"""CLI: every subcommand runs and prints sane output."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])


class TestCommands:
    def test_sssp_fixed_point(self, capsys):
        assert main(["sssp", "--n", "60", "--m", "200", "--ranks", "3"]) == 0
        out = capsys.readouterr().out
        assert "sssp-fixed-point" in out
        assert "reachable" in out

    def test_sssp_delta(self, capsys):
        assert main(["sssp", "--n", "60", "--m", "200", "--delta", "2.5"]) == 0
        assert "sssp-delta(2.5)" in capsys.readouterr().out

    def test_sssp_rmat_auto_source(self, capsys):
        assert (
            main(["sssp", "--generator", "rmat", "--scale", "6", "--auto-source"])
            == 0
        )
        assert "reachable" in capsys.readouterr().out

    def test_bfs(self, capsys):
        assert main(["bfs", "--n", "50", "--m", "150"]) == 0
        assert "bfs:" in capsys.readouterr().out

    def test_cc(self, capsys):
        assert main(["cc", "--n", "80", "--m", "100", "--flush-budget", "2"]) == 0
        out = capsys.readouterr().out
        assert "components" in out
        assert "collisions" in out

    def test_pagerank(self, capsys):
        assert main(["pagerank", "--n", "40", "--m", "160", "--iterations", "5"]) == 0
        assert "top-5" in capsys.readouterr().out

    def test_mutate_verifies_bit_identity(self, capsys):
        assert main(["mutate", "--n", "80", "--m", "240", "--ops", "6"]) == 0
        out = capsys.readouterr().out
        assert "mutation: graph v1" in out
        assert "delta-restart:" in out
        assert "bit-identical" in out

    def test_mutate_no_verify(self, capsys):
        assert (
            main(
                [
                    "mutate",
                    "--generator",
                    "rmat",
                    "--scale",
                    "6",
                    "--auto-source",
                    "--fast-path",
                    "vector",
                    "--no-verify",
                    "--mutation-seed",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "delta-restart:" in out
        assert "verify" not in out

    def test_mutate_crash_recovers_bit_identical(self, capsys):
        """--crash through mutate: replay re-applies the mutation and the
        recovered delta-restart still matches from-scratch."""
        assert (
            main(["mutate", "--n", "80", "--m", "240", "--ops", "6",
                  "--crash", "1:300"])
            == 0
        )
        out = capsys.readouterr().out
        assert "bit-identical" in out
        assert "restores" in out

    def test_plan_all_patterns(self, capsys):
        for pat in ("sssp", "cc", "bfs", "pagerank"):
            assert main(["plan", "--pattern", pat]) == 0
            out = capsys.readouterr().out
            assert "plan for" in out

    def test_plan_prints_each_confluence_class(self, capsys):
        """Each action's class, or the first requirement it misses."""
        assert main(["plan", "--pattern", "pagerank"]) == 0
        assert "  confluence: sum\n" in capsys.readouterr().out
        assert main(["plan", "--pattern", "sssp"]) == 0
        assert "  confluence: extremum\n" in capsys.readouterr().out
        assert main(["plan", "--pattern", "cc"]) == 0
        out = capsys.readouterr().out
        search, jump = out.split("plan for CC.cc_jump")
        assert "confluence: none (needs optimized mode with a single condition)" in search
        assert "confluence: none (needs a builtin out_edges/adj generator)" in jump

    def test_plan_naive_mode(self, capsys):
        assert main(["plan", "--pattern", "sssp", "--mode", "naive"]) == 0
        assert "[naive]" in capsys.readouterr().out

    def test_generators(self, capsys):
        for gen_args in (
            ["--generator", "watts_strogatz", "--n", "40", "--k", "4"],
            ["--generator", "barabasi_albert", "--n", "40", "--m-attach", "2"],
            ["--generator", "grid", "--rows", "6", "--cols", "6"],
        ):
            assert main(["bfs", *gen_args]) == 0
            capsys.readouterr()

    def test_trace_subcommand(self, capsys):
        assert main(["trace", "--algorithm", "bfs", "--n", "40", "--m", "120"]) == 0
        out = capsys.readouterr().out
        assert "trace[bfs]:" in out and "spans recorded" in out
        assert "epoch" in out and "hops" in out  # critical-path table

    def test_trace_all_algorithms(self, capsys):
        for algo in ("sssp", "cc", "pagerank"):
            assert (
                main(["trace", "--algorithm", algo, "--n", "40", "--m", "80",
                      "--iterations", "3"])
                == 0
            )
            assert f"trace[{algo}]:" in capsys.readouterr().out

    def test_trace_out_writes_valid_perfetto(self, tmp_path, capsys):
        """--trace-out auto-upgrades telemetry and writes a valid trace."""
        import json

        from repro.analysis import validate_chrome_trace

        out = tmp_path / "sssp.json"
        assert (
            main(["sssp", "--n", "40", "--m", "120", "--trace-out", str(out)])
            == 0
        )
        assert "trace: wrote" in capsys.readouterr().out
        obj = json.loads(out.read_text())
        assert validate_chrome_trace(obj) == []
        assert obj["traceEvents"]  # non-trivial

    def test_metrics_out_lints_clean(self, tmp_path, capsys):
        from repro.analysis import parse_prometheus

        out = tmp_path / "m.prom"
        assert (
            main(["bfs", "--n", "40", "--m", "120", "--metrics-out", str(out)])
            == 0
        )
        assert "metrics: wrote" in capsys.readouterr().out
        samples, errors = parse_prometheus(out.read_text())
        assert errors == []
        assert ("repro_epochs", frozenset()) in samples

    def test_explicit_telemetry_level_respected(self, tmp_path, capsys):
        """--telemetry spans + --metrics-out: level is not downgraded."""
        out = tmp_path / "m.prom"
        assert (
            main(["cc", "--n", "40", "--m", "60", "--telemetry", "spans",
                  "--metrics-out", str(out)])
            == 0
        )
        text = out.read_text()
        # spans level records phase counters too
        assert "repro_phase_seconds" in text
        capsys.readouterr()

    def test_machine_options(self, capsys):
        assert (
            main(
                [
                    "sssp",
                    "--n",
                    "40",
                    "--m",
                    "120",
                    "--ranks",
                    "8",
                    "--schedule",
                    "random",
                    "--detector",
                    "safra",
                    "--routing",
                    "hypercube",
                    "--partition",
                    "cyclic",
                ]
            )
            == 0
        )
        assert "reachable" in capsys.readouterr().out


class TestCheckpointRecoveryCLI:
    """--crash / --checkpoint-* / --restore-from and the checkpoint command."""

    ARGS = ["sssp", "--n", "64", "--m", "200", "--delta", "3.0"]

    def test_crash_recovers_and_matches_plain_run(self, capsys):
        """The answer matches a plain run; the stats row matches the same
        configuration uninterrupted (a crash scheduled past the end).  A
        crash config installs reliable delivery, whose acks share the sim
        schedule, and the fused tier's accounting follows the schedule."""
        assert main(self.ARGS) == 0
        plain = capsys.readouterr().out
        assert main([*self.ARGS, "--crash", "1:1000000"]) == 0
        uninterrupted = capsys.readouterr().out
        assert main([*self.ARGS, "--crash", "1:40"]) == 0
        crashed = capsys.readouterr().out
        # headline result line and stats table are bit-identical
        assert plain.splitlines()[0] == crashed.splitlines()[0]
        assert [l for l in uninterrupted.splitlines() if "sssp-delta" in l] == [
            l for l in crashed.splitlines() if "sssp-delta" in l
        ]
        assert "restores" in crashed  # checkpoint report printed

    def test_bad_crash_spec_rejected(self):
        with pytest.raises(SystemExit):
            main([*self.ARGS, "--crash", "nope"])

    def test_checkpoint_every_prints_report(self, capsys):
        assert main([*self.ARGS, "--checkpoint-every", "2"]) == 0
        out = capsys.readouterr().out
        assert "snapshots" in out and "bytes written" in out

    def test_checkpoint_dir_inspect_and_restore(self, tmp_path, capsys):
        ckdir = str(tmp_path / "ck")
        assert main([*self.ARGS, "--checkpoint-dir", ckdir]) == 0
        baseline = capsys.readouterr().out.splitlines()[0]

        assert main(["checkpoint", ckdir]) == 0
        inspect = capsys.readouterr().out
        assert "blobs:" in inspect and "checkpoints:" in inspect
        assert "epoch" in inspect

        assert main([*self.ARGS, "--restore-from", ckdir]) == 0
        resumed = capsys.readouterr().out
        assert "restore: resumed from checkpoint" in resumed
        # the resumed (already converged) run reports the same result
        assert baseline in resumed

    def test_crash_with_dir_then_restore(self, tmp_path, capsys):
        """Crash mid-run, persist; a fresh process resumes to the same answer."""
        ckdir = str(tmp_path / "ck")
        assert main([*self.ARGS, "--crash", "1:40", "--checkpoint-dir", ckdir]) == 0
        crashed_line = capsys.readouterr().out.splitlines()[0]
        assert main([*self.ARGS, "--restore-from", ckdir]) == 0
        resumed = capsys.readouterr().out
        assert crashed_line in resumed
