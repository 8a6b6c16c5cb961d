"""C2 — AM++ claim: caching/reductions "avoid unnecessary message sends
and the corresponding handler calls in algorithms that produce potentially
large amounts of repetitive work".

Regenerated series:

* CC label propagation with a duplicate cache on the label message — the
  same (vertex, label) pair is rediscovered over many edges; the cache
  suppresses the repeats.
* SSSP with a min-reduction on the relax message — relaxations of the
  same target inside a window collapse to the minimum (the paper's
  Sec. II-B remark about reducing communication).
"""

import numpy as np

from _common import er_weighted, paper_machine, write_result
from repro import CachingLayer, ReductionLayer
from repro.algorithms import bind_sssp, dijkstra_on_graph
from repro.analysis import format_table
from repro.graph import build_graph, erdos_renyi
from repro.patterns import bind
from repro.strategies import fixed_point
from repro.algorithms.cc import cc_label_pattern


def run_cc_label(g, with_cache):
    m = paper_machine(4)
    # Cache only the evaluate-hop payloads (they carry the label, so equal
    # payloads are genuinely redundant); action (re)starts — identical
    # 3-tuples whose repetition is meaningful — bypass the cache.
    layers = (
        {
            "spread": {
                "cache": CachingLayer(
                    capacity=1 << 16, bypass=lambda p: p[1] == -1
                )
            }
        }
        if with_cache
        else None
    )
    bp = bind(cc_label_pattern(), m, g, layers=layers)
    comp = bp.map("comp")
    for v in g.vertices():
        comp[v] = v
    fixed_point(m, bp["spread"], list(g.vertices()))
    return comp.to_array(), m


def test_c2_cache_suppresses_repetitive_labels(benchmark):
    s, t = erdos_renyi(150, 600, seed=5)
    g, _ = build_graph(150, list(zip(s, t)), directed=False, n_ranks=4)

    comp_c, m_c = benchmark.pedantic(
        lambda: run_cc_label(g, True), rounds=3, iterations=1
    )
    comp_p, m_p = run_cc_label(g, False)
    assert (comp_c == comp_p).all()

    hits = m_c.stats.total.cache_hits
    plain = m_p.stats.total.handler_calls
    cached = m_c.stats.total.handler_calls
    assert hits > 0
    assert cached < plain  # suppressed sends => fewer handler invocations
    write_result(
        "C2_caching",
        "C2 — duplicate cache on CC label propagation (ER n=150, m=600 undirected)",
        format_table(
            [
                {"config": "no cache", "handlers": plain, "cache_hits": 0},
                {"config": "LRU cache", "handlers": cached, "cache_hits": hits},
            ]
        ),
    )


def test_c2_min_reduction_on_sssp(benchmark):
    g, wg = er_weighted(n=256, avg_deg=8, seed=6)
    oracle = dijkstra_on_graph(g, wg, 0)
    finite = np.isfinite(oracle)

    def run(with_reduction):
        m = paper_machine(4)
        layers = None
        if with_reduction:
            # Relax payloads are (dest, cond, step, slot, folded_sum) for the
            # evaluate hop and (dest, -1, 0) for action starts.  Reduce per
            # (dest, cond, step): evaluate hops keep the smaller candidate
            # distance; duplicate action starts collapse to one.
            def combine(a, b):
                if len(a) > 4 and len(b) > 4:
                    return a if a[4] <= b[4] else b
                return a

            layers = {
                "relax": {
                    "reduction": ReductionLayer(
                        key=lambda p: p[:3], combine=combine, window=64
                    )
                }
            }
        bp = bind_sssp(m, g, wg, layers=layers)
        bp.map("dist")[0] = 0.0
        fixed_point(m, bp["relax"], [0])
        return bp.map("dist").to_array(), m

    d_r, m_r = benchmark.pedantic(lambda: run(True), rounds=3, iterations=1)
    d_p, m_p = run(False)
    assert np.allclose(d_r[finite], oracle[finite])
    assert np.allclose(d_p[finite], oracle[finite])

    combines = m_r.stats.total.reduction_combines
    handlers_r = m_r.stats.total.handler_calls
    handlers_p = m_p.stats.total.handler_calls
    assert combines > 0
    assert handlers_r <= handlers_p
    write_result(
        "C2_reduction",
        "C2 — min-reduction on SSSP relax messages (ER n=256, deg 8)",
        format_table(
            [
                {"config": "no reduction", "handlers": handlers_p, "combines": 0},
                {
                    "config": "min window=64",
                    "handlers": handlers_r,
                    "combines": combines,
                },
            ]
        ),
    )
