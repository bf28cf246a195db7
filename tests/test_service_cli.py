"""The service CLI: submit --sweep / workers / status / results / cancel.

Every service command is written once against the facade, so the
end-to-end and unknown-id cases run on both backends -- ``--workdir``
(in process) and ``--url`` (a server on the same workdir) -- and the
read-only commands must print the same thing on either.
"""

from __future__ import annotations

import functools
import json

import pytest

from repro.cli import main
from repro.service import ServiceFacade
from repro.service.http import ServiceHTTPServer

SWEEP_ARGS = [
    "--sweep", "--kind", "sim",
    "-N", "512,1024", "-NB", "64,128", "-P", "2", "-Q", "2",
    "--frac", "0.3,0.5",
]


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path / "svc")


@pytest.fixture
def server(workdir):
    """A pool-less server on ``workdir``: the ``--url`` view of it."""
    with ServiceHTTPServer(workdir, workers=0) as srv:
        yield srv


@pytest.fixture(params=["--workdir", "--url"])
def target(request, workdir, server) -> list[str]:
    """The CLI arguments naming the service, one backend per run."""
    return [request.param,
            workdir if request.param == "--workdir" else server.url]


def _submit(target, capsys) -> str:
    rc = main(["submit", *target, *SWEEP_ARGS])
    out = capsys.readouterr().out
    assert rc == 0
    return out


def _read(argv, workdir, server, capsys, header: int = 0):
    """Run a read-only command on both backends; ``(rc, out, err)``.

    Exit code, stderr and stdout must agree, except for the ``header``
    leading lines that name the backend itself.
    """
    seen = []
    for where in (["--url", server.url], ["--workdir", workdir]):
        rc = main([*argv, *where])
        captured = capsys.readouterr()
        seen.append((rc, captured.out.splitlines()[header:], captured.err))
    assert seen[0] == seen[1]
    return rc, captured.out, captured.err


class TestEndToEnd:
    def test_sweep_submit_workers_results(self, target, workdir, server,
                                          capsys):
        """Acceptance: an 8-point sweep completes end-to-end."""
        out = _submit(target, capsys)
        assert "submitted 8 new job(s)" in out

        rc = main(["workers", *target, "-n", "2", "--max-seconds", "120"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "8 completed, 0 failed" in out
        assert "8 done" in out

        rc, out, _ = _read(["status"], workdir, server, capsys, header=1)
        assert rc == 0
        assert "0 pending" in out and "8 done" in out
        assert out.count("DONE") == 8
        rc, out, _ = _read(["status", "--limit", "3"], workdir, server,
                           capsys, header=1)
        assert "showing 3 of 8" in out and "--cursor " in out

        # ``--json`` prints the same bytes on either backend.
        rc, out, _ = _read(["results", "--json"], workdir, server, capsys)
        assert rc == 0
        results = json.loads(out)
        assert len(results) == 8
        assert all(r["score_tflops"] > 0 for r in results.values())

        # A job without a result is a null and exit 1, as in the plain
        # form; the bytes printed are still the same on both backends.
        assert main(["submit", *target, "--kind", "sim", "-N", "2048",
                     "-NB", "128", "-P", "2", "-Q", "2"]) == 0
        pending = capsys.readouterr().out.split("queued")[1].split()[0]
        done = sorted(results)[0]
        rc, out, _ = _read(["results", "--json", done, pending], workdir,
                           server, capsys)
        assert rc == 1
        assert out == json.dumps({done: results[done], pending: None},
                                 indent=2, sort_keys=True) + "\n"
        rc, out, _ = _read(["results", done, pending], workdir, server,
                           capsys)
        assert rc == 1
        assert f"{pending}: (no result yet)" in out

    def test_resubmitted_sweep_is_all_cache_hits(self, target, capsys):
        _submit(target, capsys)
        main(["workers", *target, "-n", "2", "--max-seconds", "120"])
        capsys.readouterr()

        out = _submit(target, capsys)
        assert "submitted 0 new job(s), 8 served from cache" in out

    def test_cancel_pending_jobs(self, target, workdir, server, capsys):
        _submit(target, capsys)
        rc = main(["cancel", *target, "--all"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cancelled 8 of 8" in out

        _, out, _ = _read(["status"], workdir, server, capsys, header=1)
        assert "8 cancelled" in out


class TestUnknownJobIds:
    """Unknown ids are bad input: one-line error, exit 2, no traceback."""

    def test_status_on_unknown_id_exits_2(self, target, capsys):
        _submit(target, capsys)
        rc = main(["status", *target, "nosuchjob"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "error: no such job: nosuchjob\n"
        assert "Traceback" not in captured.err

    def test_follow_on_unknown_id_exits_2(self, target, capsys,
                                          monkeypatch):
        # watch() checks that its ids exist after one long-poll step
        # came back empty; shorten the step (15 s) for the test.
        monkeypatch.setattr(ServiceFacade, "watch", functools.partialmethod(
            ServiceFacade.watch, poll=0.1))
        _submit(target, capsys)
        rc = main(["status", *target, "--follow", "nosuchjob"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "error: no such job: nosuchjob\n"

    def test_results_on_unknown_id_exits_2(self, target, capsys):
        _submit(target, capsys)
        for how in ([], ["--json"]):
            rc = main(["results", *target, "nosuchjob", *how])
            captured = capsys.readouterr()
            assert rc == 2
            assert captured.err == "error: no such job: nosuchjob\n"
            assert "Traceback" not in captured.err

    def test_status_with_known_ids_prints_their_rows(
            self, target, workdir, server, capsys):
        _submit(target, capsys)
        main(["status", *target])
        some_id = capsys.readouterr().out.splitlines()[2].split()[0]
        rc, out, _ = _read(["status", some_id], workdir, server, capsys)
        assert rc == 0
        assert some_id in out and "PENDING" in out


class TestResultsExitCode:
    """``results`` exits 1 while a requested job has no result, in the
    plain form and under ``--json`` alike; stdout is unchanged."""

    def test_json_on_pending_jobs_prints_nulls_and_exits_1(
            self, target, capsys):
        ids = [line.split()[1] for line in
               _submit(target, capsys).splitlines()[1:]]
        assert len(ids) == 8
        rc = main(["results", *target, "--json", *ids])
        assert rc == 1
        assert capsys.readouterr().out == json.dumps(
            dict.fromkeys(ids), indent=2, sort_keys=True) + "\n"

    def test_json_with_no_done_jobs_is_empty_and_exits_0(
            self, target, capsys):
        """Without ids it reports DONE jobs only: none is not a miss."""
        _submit(target, capsys)
        assert main(["results", *target, "--json"]) == 0
        assert capsys.readouterr().out == "{}\n"


class TestSubmitValidation:
    def test_multi_value_axis_without_sweep_flag_is_rejected(
            self, workdir, capsys):
        rc = main(["submit", "--workdir", workdir, "--kind", "sim",
                   "-N", "512,1024"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--sweep" in err

    def test_bad_run_config_fails_at_submit_not_in_workers(
            self, workdir, capsys):
        """A bad grid corner exits 2 with one clean line, pre-queue."""
        rc = main(["submit", "--workdir", workdir, "--kind", "run",
                   "-N", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "n must be positive" in captured.err
        assert "Traceback" not in captured.err
        # nothing was queued
        main(["status", "--workdir", workdir])
        assert "0 pending" in capsys.readouterr().out

    def test_a_run_sweep_may_mix_classic_and_look_ahead(self, workdir,
                                                        capsys):
        rc = main(["submit", "--workdir", workdir, "--sweep", "--kind", "run",
                   "-N", "32", "-NB", "8", "-P", "1", "-Q", "1",
                   "--schedule", "classic,split"])
        assert rc == 0, capsys.readouterr().err
        capsys.readouterr()
        main(["status", "--workdir", workdir])
        assert "2 pending" in capsys.readouterr().out

    def test_unparseable_value_list_is_a_config_error(self, workdir, capsys):
        rc = main(["submit", "--workdir", workdir, "-N", "12,potato"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
