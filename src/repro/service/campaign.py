"""Server-side campaigns: a staged spec expanded into a job DAG.

A campaign describes the paper's staged studies in one request: a grid
stage tunes NB over a sweep, a reduce stage picks the winner, and a
study stage runs the Fig. 8 scaling sweep *at* the winning point.  The
spec is JSON::

    {
      "name": "tune-then-scale",
      "stages": [
        {"name": "grid",
         "sweep": {"kind": "sim", "axes": {"nb": [128, 192, 256]},
                   "base": {"n": 4096, "p": 2, "q": 2}}},
        {"name": "pick", "after": ["grid"],
         "kind": "reduce",
         "payload": {"metric": "score_tflops", "mode": "max"}},
        {"name": "study", "after": ["pick"],
         "sweep": {"kind": "scale", "axes": {"nnodes": [1, 2, 4]},
                   "base": {"n_single": 4096, "nb": {"$winner": "nb"}}}}
      ]
    }

Each stage is either a ``sweep`` (expanded through the existing
:class:`~repro.service.sweep.Sweep` grid expander) or a single
``kind`` + ``payload``; ``after`` names the stages it depends on, and
every job of a stage depends on *every* job of each parent stage.  The
stage graph is toposorted before anything is enqueued -- a cyclic
``after`` graph is rejected whole with :class:`~repro.errors.CycleError`
(HTTP 422 ``cycle_detected``) and no job exists afterwards.  Payload
values of the form ``{"$winner": "<field>"}`` are resolved at launch
from the upstream reduce stage's winner (see
:mod:`repro.service.dag`).

Campaign records are one JSON file per id under the root workdir's
``campaigns/`` directory, written atomically like cache records; the
progress views are computed live from job states, so the record itself
never needs updating after submission.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import uuid

from ..errors import MalformedRequestError, UnknownCampaignError
from .dag import toposort
from .jobs import JobState
from .sweep import Sweep
from .views import CampaignView, DagView, StageView


def new_campaign_id() -> str:
    return uuid.uuid4().hex[:12]


@dataclasses.dataclass(frozen=True)
class CampaignStage:
    """One stage: a name, its parents, and the submissions it expands to.

    ``submissions`` are :meth:`Service.submit_many` items carrying the
    stage's own ``timeout`` / ``max_retries`` when the spec gave them;
    everything in them is as the spec had it -- ``submit_many`` is what
    validates it.
    """

    name: str
    kind: str
    submissions: tuple
    after: tuple


def parse_campaign_spec(spec) -> tuple[str, list[CampaignStage], list[str]]:
    """Validate a spec; returns ``(name, stages, topo_order)``.

    ``stages`` keeps the spec's order (for display); ``topo_order`` is
    the submission order.  Raises :class:`MalformedRequestError` on
    shape problems and :class:`CycleError` on a cyclic stage graph --
    both before any job is enqueued.
    """
    if not isinstance(spec, dict):
        raise MalformedRequestError("campaign spec must be a JSON object")
    name = spec.get("name", "campaign")
    if not isinstance(name, str) or not name:
        raise MalformedRequestError("campaign 'name' must be a string")
    raw = spec.get("stages")
    if not isinstance(raw, list) or not raw:
        raise MalformedRequestError(
            "campaign 'stages' must be a non-empty list"
        )
    stages: list[CampaignStage] = []
    names: set[str] = set()
    for entry in raw:
        if not isinstance(entry, dict):
            raise MalformedRequestError("each stage must be an object")
        stage_name = entry.get("name")
        if not isinstance(stage_name, str) or not stage_name:
            raise MalformedRequestError("each stage needs a string 'name'")
        if stage_name in names:
            raise MalformedRequestError(
                f"duplicate stage name: {stage_name!r}"
            )
        names.add(stage_name)
        after = entry.get("after", [])
        if (not isinstance(after, list)
                or not all(isinstance(a, str) for a in after)):
            raise MalformedRequestError(
                f"stage {stage_name!r}: 'after' must be a list of stage"
                " names"
            )
        if "sweep" in entry:
            sweep = Sweep.from_spec(entry["sweep"])
            kind, submissions = sweep.kind, sweep.submissions()
        elif "kind" in entry:
            kind = entry["kind"]
            submissions = [{"kind": kind,
                            "payload": entry.get("payload", {})}]
        else:
            raise MalformedRequestError(
                f"stage {stage_name!r} needs either 'sweep' or 'kind'"
            )
        overrides = {k: entry[k] for k in ("timeout", "max_retries")
                     if k in entry}
        stages.append(CampaignStage(
            name=stage_name, kind=kind,
            submissions=tuple({**sub, **overrides} for sub in submissions),
            after=tuple(dict.fromkeys(after)),
        ))
    for stage in stages:
        for parent in stage.after:
            if parent not in names:
                raise MalformedRequestError(
                    f"stage {stage.name!r} is after unknown stage"
                    f" {parent!r}"
                )
    order = toposort([s.name for s in stages],
                     {s.name: list(s.after) for s in stages})
    return name, stages, order


class CampaignStore:
    """One JSON record per campaign under ``<root>/campaigns/``."""

    def __init__(self, root) -> None:
        self.root = os.fspath(root)

    def _path(self, campaign_id: str) -> str:
        return os.path.join(self.root, f"{campaign_id}.json")

    def put(self, record: dict) -> None:
        os.makedirs(self.root, exist_ok=True)
        path = self._path(record["id"])
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(record, fh, sort_keys=True)
        os.replace(tmp, path)

    def get(self, campaign_id: str) -> dict:
        try:
            with open(self._path(campaign_id)) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            raise UnknownCampaignError(
                f"no such campaign: {campaign_id}"
            ) from None

    def list(self) -> list[dict]:
        """Every campaign record, oldest first."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        records = []
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(self.root, name)) as fh:
                    records.append(json.load(fh))
            except (OSError, ValueError):
                continue
        records.sort(key=lambda r: (r.get("created", 0.0), r.get("id", "")))
        return records


def make_record(campaign_id: str, name: str,
                stage_jobs: list[dict]) -> dict:
    """The persisted campaign shape (stage order = spec order)."""
    return {
        "id": campaign_id,
        "name": name,
        "created": time.time(),
        "stages": stage_jobs,
    }


def _collapse(counts: dict, total: int) -> str:
    if counts[JobState.FAILED.value]:
        return "failed"
    if counts[JobState.CANCELLED.value]:
        return "cancelled"
    if total and counts[JobState.DONE.value] == total:
        return "done"
    if counts[JobState.RUNNING.value] or counts[JobState.DONE.value]:
        return "running"
    if counts[JobState.PENDING.value]:
        return "pending"
    return "blocked"


def build_campaign_view(record: dict, store) -> CampaignView:
    """Live progress for one campaign record, computed from job states."""
    stages = []
    total_counts = {s.value: 0 for s in JobState}
    njobs = 0
    for entry in record["stages"]:
        counts = {s.value: 0 for s in JobState}
        for job_id in entry["job_ids"]:
            try:
                state = store.get(job_id).state.value
            except Exception:  # noqa: BLE001 -- vanished/unreachable job
                continue
            counts[state] += 1
            total_counts[state] += 1
        njobs += len(entry["job_ids"])
        stages.append(StageView(
            name=entry["name"], kind=entry["kind"],
            after=tuple(entry["after"]),
            job_ids=tuple(entry["job_ids"]),
            counts=counts,
            state=_collapse(counts, len(entry["job_ids"])),
        ))
    return CampaignView(
        id=record["id"], name=record["name"],
        created=record["created"],
        state=_collapse(total_counts, njobs),
        stages=tuple(stages), njobs=njobs,
    )


def build_dag_view(record: dict, store) -> DagView:
    """The campaign's dependency graph with live node states."""
    nodes = []
    for entry in record["stages"]:
        for job_id in entry["job_ids"]:
            try:
                job = store.get(job_id)
                state, depends_on = job.state.value, list(job.depends_on)
            except Exception:  # noqa: BLE001 -- vanished/unreachable job
                state, depends_on = "UNKNOWN", []
            nodes.append({
                "id": job_id,
                "stage": entry["name"],
                "kind": entry["kind"],
                "state": state,
                "depends_on": depends_on,
            })
    return DagView(campaign_id=record["id"], nodes=tuple(nodes))
