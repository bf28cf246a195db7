"""Campaigns over HTTP: staged specs, cross-shard DAGs, CLI, clients.

The acceptance scenario lives here: one ``POST /v1/campaigns`` request
expands a 3-stage tune-then-scale spec into a job DAG spread across a
3-shard coordinator (parents and children verifiably on different
shards), drains to ``done`` with the winner resolved into the study
stage, a cyclic spec dies with 422 ``cycle_detected`` before any job is
enqueued, and a mid-campaign stage failure cancels exactly its
descendants while the unrelated branch completes.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.cli import main
from repro.errors import CycleError, UnknownCampaignError
from repro.service import (
    CampaignView,
    DagView,
    JobView,
    WorkerOptions,
    WorkerPool,
    shard_index,
)
from repro.service.http import (
    AsyncServiceClient,
    ServiceClient,
    ServiceHTTPServer,
)

pytestmark = pytest.mark.dedicated

NSHARDS = 3

TUNE_THEN_SCALE = {
    "name": "tune-then-scale",
    "stages": [
        {"name": "grid",
         "sweep": {"kind": "probe", "axes": {"tag": [1, 5, 3]},
                   "base": {"behavior": "echo"}}},
        {"name": "pick", "after": ["grid"],
         "kind": "reduce", "payload": {"metric": "tag", "mode": "max"}},
        {"name": "study", "after": ["pick"],
         "sweep": {"kind": "probe", "axes": {"x": [10, 20]},
                   "base": {"behavior": "echo",
                            "tag": {"$winner": "tag"}}}},
    ],
}


def _wait_campaign(client, campaign_id, want, timeout=120.0):
    deadline = time.monotonic() + timeout
    while True:
        view = client.campaign(campaign_id)
        # The campaign state collapses to "failed" the moment any stage
        # fails, while unrelated branches are still draining -- wait for
        # quiescence (every stage terminal) before judging the outcome.
        if all(s.state in ("done", "failed", "cancelled")
               for s in view.stages):
            assert view.state == want, \
                f"campaign settled at {view.state!r}, wanted {want!r}"
            return view
        assert time.monotonic() < deadline, \
            f"campaign stuck in {view.state!r}, wanted {want!r}"
        time.sleep(0.05)


class TestCampaignAcceptance:
    def test_three_stage_campaign_drains_across_three_shards(self, tmp_path):
        with ServiceHTTPServer(tmp_path / "svc", workers=2,
                               shards=NSHARDS) as srv:
            client = ServiceClient(srv.url)
            view = client.submit_campaign(TUNE_THEN_SCALE)
            assert isinstance(view, CampaignView)
            assert view.njobs == 6 and len(view.stages) == 3
            assert [s.name for s in view.stages] == ["grid", "pick",
                                                     "study"]

            # Dependency edges came back child-side and complete.
            dag = client.campaign_dag(view.id)
            assert isinstance(dag, DagView)
            by_stage = {}
            for node in dag.nodes:
                by_stage.setdefault(node["stage"], []).append(node)
            grid_ids = {n["id"] for n in by_stage["grid"]}
            pick = by_stage["pick"][0]
            assert set(pick["depends_on"]) == grid_ids
            for study in by_stage["study"]:
                assert study["depends_on"] == [pick["id"]]

            # The acceptance cross-shard claim: some dependency edge
            # spans two shards (fixed payloads make this deterministic).
            home = {n["id"]: shard_index(client.job(n["id"]).key, NSHARDS)
                    for n in dag.nodes}
            edges = [(p, n["id"]) for n in dag.nodes
                     for p in n["depends_on"]]
            assert any(home[p] != home[c] for p, c in edges), home

            final = _wait_campaign(client, view.id, "done")
            assert all(s.state == "done" for s in final.stages)
            pick_result = client.result(pick["id"]).result
            assert pick_result["value"] == 5
            assert pick_result["winner_payload"]["tag"] == 5
            study_results = sorted(
                (client.result(n["id"]).result for n in by_stage["study"]),
                key=lambda r: r["x"])
            assert study_results == [{"tag": 5, "x": 10},
                                     {"tag": 5, "x": 20}]

    def test_cycle_rejected_before_any_enqueue(self, tmp_path):
        with ServiceHTTPServer(tmp_path / "svc", workers=0,
                               shards=NSHARDS) as srv:
            client = ServiceClient(srv.url)
            spec = {"name": "loop", "stages": [
                {"name": "a", "kind": "probe",
                 "payload": {"behavior": "ok"}, "after": ["b"]},
                {"name": "b", "kind": "probe",
                 "payload": {"behavior": "ok"}, "after": ["a"]},
            ]}
            with pytest.raises(CycleError):
                client.submit_campaign(spec)
            # Rejected whole: no job, no campaign record.
            health = client.healthz()
            assert all(v == 0 for v in health["queue"].values())
            assert client.campaigns() == []

    def test_stage_failure_cancels_exactly_descendants(self, tmp_path):
        spec = {"name": "half-doomed", "stages": [
            {"name": "root", "kind": "probe",
             "payload": {"behavior": "echo", "tag": 0}},
            {"name": "bad", "after": ["root"], "kind": "probe",
             "payload": {"behavior": "crash", "message": "boom"},
             "max_retries": 0},
            {"name": "good", "after": ["root"], "kind": "probe",
             "payload": {"behavior": "echo", "tag": 1}},
            {"name": "bad-leaf", "after": ["bad"], "kind": "probe",
             "payload": {"behavior": "echo", "tag": 2}},
            {"name": "good-leaf", "after": ["good"], "kind": "probe",
             "payload": {"behavior": "echo", "tag": 3}},
        ]}
        with ServiceHTTPServer(tmp_path / "svc", workers=2,
                               shards=NSHARDS) as srv:
            client = ServiceClient(srv.url)
            view = client.submit_campaign(spec)
            final = _wait_campaign(client, view.id, "failed")
            states = {s.name: s.state for s in final.stages}
            assert states == {"root": "done", "bad": "failed",
                              "good": "done", "bad-leaf": "cancelled",
                              "good-leaf": "done"}

    def test_unknown_campaign_is_404(self, tmp_path):
        with ServiceHTTPServer(tmp_path / "svc", workers=0) as srv:
            client = ServiceClient(srv.url)
            with pytest.raises(UnknownCampaignError):
                client.campaign("nope")
            with pytest.raises(UnknownCampaignError):
                client.campaign_dag("nope")


class TestRemoteFleetReduce:
    def test_fleet_workers_fetch_parent_results_over_http(self, tmp_path):
        """The reduce stage runs on a *remote* worker, which must pull
        its parents' results through the coordinator's HTTP API.
        """
        with ServiceHTTPServer(tmp_path / "svc", workers=0,
                               shards=NSHARDS) as srv:
            client = ServiceClient(srv.url)
            view = client.submit_campaign(TUNE_THEN_SCALE)
            pool = WorkerPool(
                ServiceClient(srv.url),
                options=WorkerOptions(n=2, poll_interval=0.01,
                                      lease_ttl=10.0, max_seconds=120.0),
                worker="campaign-fleet",
            )
            summary = pool.run()
            assert summary.failed == 0 and summary.lost == 0
            assert summary.counts["DONE"] == 6
            final = client.campaign(view.id)
            assert final.state == "done"
            pick = next(s for s in final.stages if s.name == "pick")
            assert client.result(pick.job_ids[0]).result["value"] == 5


class TestIdempotentCancelHTTP:
    def test_sync_client_cancel_job_on_terminal(self, tmp_path):
        with ServiceHTTPServer(tmp_path / "svc", workers=2) as srv:
            client = ServiceClient(srv.url)
            jid = client.submit("probe", {"behavior": "ok"}).new[0]
            client.wait([jid], timeout=60)
            flipped, view = client.cancel_job(jid)
            assert flipped is False
            assert isinstance(view, JobView) and view.state == "DONE"

    def test_async_client_cancel_job_on_terminal(self, tmp_path):
        with ServiceHTTPServer(tmp_path / "svc", workers=2) as srv:
            async def go():
                ac = AsyncServiceClient(srv.url)
                jid = (await ac.submit("probe", {"behavior": "ok"})).new[0]
                await ac.wait([jid], timeout=60)
                flipped, view = await ac.cancel_job(jid)
                assert flipped is False and view.state == "DONE"
                # A live job still flips: a child of a long-running
                # parent is reliably BLOCKED when the cancel arrives.
                slow = (await ac.submit(
                    "probe", {"behavior": "sleep", "seconds": 120.0}
                )).new[0]
                blocked = (await ac.submit(
                    "probe", {"behavior": "ok", "tag": 9},
                    depends_on=[slow])).new[0]
                flipped2, view2 = await ac.cancel_job(blocked)
                assert flipped2 is True and view2.state == "CANCELLED"
                return True
            assert asyncio.run(go()) is True


class TestCampaignCLI:
    def test_submit_status_list_dag_roundtrip(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(TUNE_THEN_SCALE))
        with ServiceHTTPServer(tmp_path / "svc", workers=2,
                               shards=NSHARDS) as srv:
            rc = main(["campaign", "submit", "--spec", str(spec_path),
                       "--url", srv.url])
            out = capsys.readouterr().out
            assert rc == 0
            assert "6 job(s) in 3 stage(s)" in out
            campaign_id = out.split()[1]

            client = ServiceClient(srv.url)
            _wait_campaign(client, campaign_id, "done")

            rc = main(["campaign", "status", campaign_id,
                       "--url", srv.url])
            out = capsys.readouterr().out
            assert rc == 0
            assert "state=done" in out and "jobs=6" in out
            for stage in ("grid", "pick", "study"):
                assert stage in out

            rc = main(["campaign", "status", campaign_id, "--dag",
                       "--url", srv.url])
            out = capsys.readouterr().out
            assert rc == 0
            assert out.count("DONE") == 6 and "<-" in out

            rc = main(["campaign", "list", "--url", srv.url])
            out = capsys.readouterr().out
            assert rc == 0
            assert campaign_id in out and "tune-then-scale" in out

    def test_cancel_cli_is_idempotent(self, tmp_path, capsys):
        with ServiceHTTPServer(tmp_path / "svc", workers=2) as srv:
            client = ServiceClient(srv.url)
            jid = client.submit("probe", {"behavior": "ok"}).new[0]
            client.wait([jid], timeout=60)
            rc = main(["cancel", jid, "--url", srv.url])
            out = capsys.readouterr().out
            assert rc == 0  # terminal cancel is a no-op success
            assert "already" in out and "DONE" in out
