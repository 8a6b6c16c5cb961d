"""Delta-stepping with the light/heavy edge split (paper Sec. II-A).

"Delta-stepping can contain more optimizations such as relaxing heavy
edges, which cannot insert more work into the current bucket, separately
from light edges, which may add work to the current bucket."

The split lives in the *pattern*, not the strategy plumbing: two actions
share the ``dist``/``weight`` maps, differing only in a weight guard —

    relax_light: if (weight[e] <= delta and nd < dist[trg(e)]) ...
    relax_heavy: if (weight[e] >  delta and nd < dist[trg(e)]) ...

The strategy settles each bucket level with the light action only
(repeating while work lands back in the current level), then relaxes the
settled vertices' heavy edges exactly once — heavy targets always land in
later buckets, so no re-settling is needed.  The classic work saving:
heavy edges are relaxed at most once per settled vertex instead of once
per tentative-distance improvement.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from ..graph.distributed import DistributedGraph
from ..patterns import Pattern, bind, trg
from ..props.property_map import EdgePropertyMap, weight_map_from_array
from ..runtime.machine import Machine
from .buckets import Buckets


def light_heavy_sssp_pattern(delta: float) -> Pattern:
    """The SSSP pattern split at weight ``delta`` (a pattern constant)."""
    p = Pattern("SSSP_LH")
    dist = p.vertex_prop("dist", float, default=math.inf)
    weight = p.edge_prop("weight", float)

    light = p.action("relax_light")
    v = light.input
    e = light.out_edges()
    nd = light.let("nd", dist[v] + weight[e])
    with light.when((weight[e] <= delta).and_(nd < dist[trg(e)])):
        light.set(dist[trg(e)], nd)

    heavy = p.action("relax_heavy")
    v2 = heavy.input
    e2 = heavy.out_edges()
    nd2 = heavy.let("nd", dist[v2] + weight[e2])
    with heavy.when((weight[e2] > delta).and_(nd2 < dist[trg(e2)])):
        heavy.set(dist[trg(e2)], nd2)
    return p


def delta_stepping_light_heavy(
    machine: Machine,
    graph: DistributedGraph,
    weight_by_gid,
    sources: Iterable[int],
    delta: float,
) -> tuple[np.ndarray, dict]:
    """Returns (distances, info) with per-kind relaxation counts."""
    wmap = (
        weight_by_gid
        if isinstance(weight_by_gid, EdgePropertyMap)
        else weight_map_from_array(graph, weight_by_gid)
    )
    bp = bind(light_heavy_sssp_pattern(delta), machine, graph, props={"weight": wmap})
    dist = bp.map("dist")
    light, heavy = bp["relax_light"], bp["relax_heavy"]

    B = Buckets(delta)
    for s in sources:
        dist[s] = 0.0
        B.insert(int(s), 0.0)

    def rebucket(ctx, w: int) -> None:
        B.insert(w, dist.get(w, rank=ctx.rank))

    def rebucket_many(ctx, ws) -> None:
        B.insert_many(ws, dist.get_many(ws, ctx.rank))

    for action in (light, heavy):
        action.work = rebucket
        action.work_many = rebucket_many

    levels = 0
    i = B.next_nonempty(0)
    while i is not None:
        settled: set[int] = set()
        # settle the level on light edges only (work may refill level i)
        with machine.epoch() as ep:
            while True:
                vs = B.drain(i)
                settled.update(vs)
                light.invoke_many(ep, vs)
                ep.flush()
                if B.bucket_empty(i):
                    break
        # heavy edges of the settled set exactly once: their targets land
        # strictly beyond level i, never back into it
        with machine.epoch() as ep:
            heavy.invoke_many(ep, sorted(settled))
        levels += 1
        i = B.next_nonempty(i + 1)

    info = {
        "levels": levels,
        "light_invocations": light.assign_count,
        "light_changes": light.change_count,
        "heavy_changes": heavy.change_count,
    }
    return dist.to_array(), info
