"""The ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from benchmarks.smoke import COMMANDS, argv
from repro.cli import build_parser, main

SMOKE_STEPS = [(smoke, step) for smoke in COMMANDS for step in COMMANDS[smoke]]


class TestRun:
    def test_numeric_run_passes(self, capsys):
        rc = main(["run", "-N", "32", "-NB", "8", "-P", "2", "-Q", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASSED" in out
        assert "WR0" in out

    def test_schedule_and_variant_flags(self, capsys):
        rc = main([
            "run", "-N", "24", "-NB", "4", "-P", "2", "-Q", "2",
            "--schedule", "lookahead", "--pfact", "crout",
            "--bcast", "2ringM", "--threads", "2", "--frac", "0.3",
        ])
        assert rc == 0
        assert "PASSED" in capsys.readouterr().out

    def test_classic_schedule(self, capsys):
        rc = main(["run", "-N", "16", "-NB", "4", "-P", "1", "-Q", "2",
                   "--schedule", "classic"])
        assert rc == 0


class TestSim:
    def test_sim_prints_score(self, capsys):
        rc = main(["sim", "-N", "16384", "-NB", "512", "-P", "4", "-Q", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "score" in out and "TFLOPS" in out

    def test_sim_breakdown_table(self, capsys):
        rc = main(["sim", "-N", "8192", "-NB", "512", "-P", "4", "-Q", "2",
                   "--breakdown"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fact_ms" in out


class TestOtherCommands:
    def test_fact_table(self, capsys):
        assert main(["fact"]) == 0
        out = capsys.readouterr().out
        assert "T=64" in out

    def test_scale_small(self, capsys):
        assert main(["scale", "-N", "16384", "--max-doublings", "1"]) == 0
        out = capsys.readouterr().out
        assert "eff_%" in out

    def test_bindings(self, capsys):
        assert main(["bindings", "--pl", "1", "--ql", "8"]) == 0
        out = capsys.readouterr().out
        assert "T = 57" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("smoke,step", SMOKE_STEPS,
                             ids=[".".join(case) for case in SMOKE_STEPS])
    def test_smoke_command_parses(self, smoke, step):
        """Every command ``benchmarks/smoke.py`` runs parses here, so a
        deleted flag fails tier-1 and the case id names the smoke."""
        build_parser().parse_args(argv(
            smoke, step, url="http://127.0.0.1:8400", workdir="svc",
            port="8400", spec="spec.json", cid="c0", ids=["j0", "j1"]))


class TestConfigErrorHandling:
    """Invalid configs exit 2 with one clean line, not a traceback."""

    def test_bad_n_exits_two_with_one_line_error(self, capsys):
        rc = main(["run", "-N", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")
        assert "n must be positive" in captured.err
        assert "Traceback" not in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_bad_split_fraction_exits_two(self, capsys):
        rc = main(["run", "-N", "32", "-NB", "8", "--frac", "1.5"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "split_fraction" in captured.err

    def test_bad_sim_tiling_exits_two(self, capsys):
        rc = main(["sim", "-N", "8192", "-NB", "512", "-P", "4", "-Q", "2",
                   "--pl", "3", "--ql", "2"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "does not tile" in captured.err

    def test_bad_sim_n_exits_two_with_one_line_error(self, capsys):
        rc = main(["sim", "-N", "0", "-NB", "512", "-P", "2", "-Q", "2"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "n must be positive" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_unwritable_trace_path_exits_two(self, capsys, tmp_path):
        rc = main(["sim", "-N", "4096", "-NB", "512", "-P", "2", "-Q", "2",
                   "--trace", str(tmp_path / "no-such-dir" / "t.json")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: cannot write trace")
        assert len(captured.err.strip().splitlines()) == 1
