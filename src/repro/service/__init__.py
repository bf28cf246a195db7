"""Batch job-orchestration service for pyroHPL.

One level above the in-run task DAG (:mod:`repro.sched`), the service
treats *whole benchmark runs* as schedulable jobs: a persistent queue
(:mod:`.store`), a content-addressed result cache (:mod:`.cache`), a
lease-driven multiprocess worker pool with timeouts and bounded retry
(:mod:`.workers`), and a sweep expander (:mod:`.sweep`), all fronted by
the :class:`~repro.service.api.Service` facade and the ``repro submit``
/ ``workers`` / ``status`` / ``results`` / ``cancel`` CLI commands.
The call vocabulary (:mod:`.facade`) is transport-agnostic;
:mod:`repro.service.http` serves it over a socket (``repro serve``)
with blocking and asyncio clients that answer the same calls, so remote
submitters share one queue and cache.

The design follows HPC job-service practice (Balsam's job store +
launcher + worker states): jobs carry lifecycle states
``BLOCKED -> PENDING -> RUNNING -> DONE/FAILED/CANCELLED``, survive
restarts on disk, and identical submissions are deduplicated or served
from cache.  Jobs may depend on other jobs (:mod:`.dag`): a child stays
``BLOCKED`` until every parent is ``DONE`` and is cancelled when a
parent fails; :mod:`.campaign` expands a staged spec (grid ->
pick-winner -> dependent study) into such a DAG in one request.
"""

from __future__ import annotations

from .admission import AdmissionController, TokenBucket
from .api import Service, SubmitReceipt
from .cache import ResultCache, payload_key
from .campaign import CampaignStage, CampaignStore, parse_campaign_spec
from .dag import DagResolver, toposort
from .events import (
    BEGIN,
    NOW,
    EventBroker,
    EventFilter,
    decode_cursor,
    encode_cursor,
)
from .facade import ServiceFacade, WaitTimeout
from .jobs import Job, JobState, Lease, new_job_id
from .shard import (
    ShardedStore,
    detect_shard_workdirs,
    shard_index,
    shard_workdirs,
)
from .store import JobStore
from .streams import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_INLINE_MAX,
    MAX_CHUNK_BYTES,
    Chunk,
    ChunkAssembler,
    decode_result,
    encode_result,
    iter_chunks,
)
from .sweep import Sweep, expand_grid
from .views import (
    CampaignView,
    DagView,
    EventView,
    JobView,
    QueuePage,
    ResultView,
    StageView,
)
from .workers import PoolSummary, WorkerOptions, WorkerPool, register_runner

__all__ = [
    "AdmissionController",
    "BEGIN",
    "CampaignStage",
    "CampaignStore",
    "CampaignView",
    "Chunk",
    "ChunkAssembler",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_INLINE_MAX",
    "DagResolver",
    "DagView",
    "EventBroker",
    "EventFilter",
    "EventView",
    "Job",
    "MAX_CHUNK_BYTES",
    "NOW",
    "JobState",
    "JobStore",
    "JobView",
    "Lease",
    "PoolSummary",
    "QueuePage",
    "ResultCache",
    "ResultView",
    "Service",
    "ServiceFacade",
    "ShardedStore",
    "StageView",
    "SubmitReceipt",
    "Sweep",
    "TokenBucket",
    "WaitTimeout",
    "WorkerOptions",
    "WorkerPool",
    "decode_cursor",
    "decode_result",
    "encode_cursor",
    "detect_shard_workdirs",
    "encode_result",
    "expand_grid",
    "iter_chunks",
    "new_job_id",
    "parse_campaign_spec",
    "payload_key",
    "register_runner",
    "shard_index",
    "shard_workdirs",
    "toposort",
]
