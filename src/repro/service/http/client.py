"""Clients for the HTTP front-end: blocking and asyncio.

:class:`ServiceClient` is a thin blocking wrapper over ``http.client``:
the HTTP backend of the service facade.  Each thread that uses a client
keeps one connection open between its calls (and reconnects once,
transparently, when the server restarted in between) until
:meth:`ServiceClient.close` or the end of a ``with`` block.  It answers
the primitive calls listed in :mod:`repro.service.facade` (submission,
``status`` / ``job`` / ``result``, campaigns, ``events``, the lease
protocol) with one round-trip each, under the same names and
signatures as :class:`~repro.service.api.Service` and returning the
*same typed objects*; the derived calls (``watch``, ``wait``, ...) are
inherited from the shared base, so they exist once.

Errors come back as the library's own exception types: the server puts a
stable machine-readable ``code`` in every error body
(``{"error": {"code", "message"}}``) and the client re-raises the
matching :class:`~repro.errors.ReproError` subclass -- ``bad_config`` ->
:class:`ConfigError`, ``unknown_job`` -> :class:`UnknownJobError`,
``lease_expired`` -> :class:`LeaseExpiredError`, and so on -- falling
back to the HTTP status class when a body carries no code.  Admission
rejections (429 ``overloaded`` / ``rate_limited``) are retried
transparently up to ``retry_429`` times, sleeping the server's
``Retry-After`` hint between attempts; every request carries an
``X-Client-Id`` header (one identity per client instance unless
``client_id`` is given) so per-client rate limits have a key.

:class:`AsyncServiceClient` layers asyncio on top for the batch shape
the paper's experiments have (submit a grid, gather the points): it is
*generated* from :class:`ServiceClient` -- every public method,
inherited ones included, gets an awaitable twin with the identical
signature that runs the blocking call on the event loop's executor --
so the two clients cannot drift apart.  ``watch``/``wait`` ride the
``/v1/events`` long-poll feed on both.
"""

from __future__ import annotations

import asyncio
import functools
import http.client
import inspect
import json
import random
import threading
import time
import urllib.parse
import weakref

from ...errors import (
    BackpressureError,
    BadCursorError,
    ConfigError,
    CycleError,
    EventsTruncatedError,
    LeaseConflictError,
    LeaseExpiredError,
    MalformedRequestError,
    OverloadedError,
    RateLimitedError,
    ResultTooLargeError,
    ServiceError,
    StoreUnavailableError,
    UnknownCampaignError,
    UnknownJobError,
    UnknownJobKindError,
    UnknownParentError,
    UnknownRouteError,
)
from ..api import MAX_BODY_BYTES, SubmitReceipt
from ..facade import ServiceFacade, WaitTimeout
from ..jobs import Job, Lease
from ..sweep import Sweep
from ..views import (
    TERMINAL_STATES,
    CampaignView,
    DagView,
    EventView,
    JobView,
    QueuePage,
    ResultView,
)

#: ``code`` in an error body -> the exception class the client raises.
ERRORS_BY_CODE = {
    cls.code: cls
    for cls in (
        ConfigError, MalformedRequestError, UnknownJobError,
        UnknownRouteError, UnknownJobKindError, LeaseConflictError,
        LeaseExpiredError, ResultTooLargeError, StoreUnavailableError,
        CycleError, UnknownParentError, UnknownCampaignError,
        BackpressureError, OverloadedError, RateLimitedError,
        BadCursorError, EventsTruncatedError, ServiceError,
    )
}

# Fallback for bodies without a code (non-repro proxies, old servers).
_ERROR_BY_STATUS = {
    400: ConfigError,
    404: UnknownJobError,
    409: LeaseConflictError,
    422: ServiceError,
    429: BackpressureError,
}

def _query(**params) -> str:
    """Encode non-None params as a query string ('' when all default).

    List/tuple/set values become repeated parameters (``doseq``) -- the
    shape the event feed's ``job_id``/``kind``/``state`` filters take.
    """
    live = {k: sorted(v) if isinstance(v, (set, frozenset)) else v
            for k, v in params.items() if v is not None}
    return "?" + urllib.parse.urlencode(live, doseq=True) if live else ""


class ServiceClient(ServiceFacade):
    """Blocking JSON-over-HTTP client for one service URL."""

    #: Growth factor of a worker pool's idle poll on this backend:
    #: every empty claim is a round-trip, so the poll backs off.
    poll_backoff = 2.0

    def __init__(self, url: str, timeout: float = 30.0,
                 client_id: str | None = None,
                 retry_429: int = 8,
                 retry_429_cap: float = 5.0) -> None:
        if "://" not in url:
            url = f"http://{url}"
        self.base_url = url.rstrip("/")
        self.timeout = timeout
        # Every request carries X-Client-Id so the server's per-client
        # rate limiting has an identity to key on; one id per client
        # instance by default.
        self.client_id = client_id or \
            f"client-{random.getrandbits(48):012x}"
        self.retry_429 = int(retry_429)
        self.retry_429_cap = float(retry_429_cap)
        # GET /v1 capability probe result; None until first asked.
        self._capabilities: frozenset | None = None
        split = urllib.parse.urlsplit(self.base_url)
        self._connect = functools.partial(
            http.client.HTTPSConnection if split.scheme == "https"
            else http.client.HTTPConnection, split.netloc)
        self._root = split.path  # a base URL may carry a path prefix
        self._local = threading.local()  # .conn: this thread's connection
        self._conns = weakref.WeakSet()  # every thread's, for close()
        self._conns_lock = threading.Lock()

    def close(self) -> None:
        """Close every thread's kept connection, freeing the server's
        handler thread for each; a later call on any thread reconnects."""
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport -------------------------------------------------------

    def _raise_for(self, status: int, body: dict, path: str,
                   headers=None) -> None:
        error = body.get("error")
        if isinstance(error, dict):
            cls = ERRORS_BY_CODE.get(
                error.get("code"),
                _ERROR_BY_STATUS.get(status, ServiceError),
            )
            message = error.get("message") or f"HTTP {status}"
        else:
            cls = _ERROR_BY_STATUS.get(status, ServiceError)
            message = error if isinstance(error, str) and error \
                else f"HTTP {status} from {self.base_url}{path}"
        exc = cls(message)
        # Surface the server's Retry-After hint (header first, error
        # body as fallback) on the exception for the retry loop.
        retry_after = None
        if headers is not None:
            raw = headers.get("Retry-After")
            if raw:
                try:
                    retry_after = float(raw)
                except ValueError:
                    pass
        if retry_after is None and isinstance(error, dict):
            raw = error.get("retry_after")
            if isinstance(raw, (int, float)):
                retry_after = float(raw)
        if retry_after is not None:
            exc.retry_after = retry_after
        raise exc from None

    def _unreachable(self, exc: Exception) -> ServiceError:
        return ServiceError(
            f"cannot reach service at {self.base_url}: {exc}")

    def _start(self, conn, request, path: str, headers=()):
        """Send ``request`` on ``conn``; the response, status line read.

        ``request`` is ``(method, body bytes or None, content type or
        None)``.  A 4xx/5xx is read whole (the connection stays usable)
        and raised as the exception its error body names.
        """
        method, data, content_type = request
        send = {"X-Client-Id": self.client_id, **dict(headers)}
        if content_type:
            send["Content-Type"] = content_type
        conn.request(method, self._root + path, body=data, headers=send)
        resp = conn.getresponse()
        if resp.status >= 400:
            try:
                payload = json.loads(resp.read() or b"{}")
            except (ValueError, OSError, http.client.HTTPException):
                payload = {}
            self._raise_for(resp.status, payload if isinstance(payload, dict)
                            else {}, path, headers=resp.headers)
        return resp

    def _open(self, request, path: str,
              timeout: float | None = None) -> bytes:
        """One round-trip on the calling thread's kept connection.

        The server may have hung up on an idle one (a restart): a
        request that dies on a *reused* connection before a status line
        arrives is replayed once on a fresh one -- the window the 429
        loop and the worker pool's retries already accept; a fresh
        connection's failure is raised at once.
        """
        timeout = self.timeout if timeout is None else timeout
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connect()
            with self._conns_lock:
                self._conns.add(conn)
        conn.timeout = timeout  # applied by the next (re)connect
        try:
            while True:
                reused = conn.sock is not None
                if reused:
                    conn.sock.settimeout(timeout)
                try:
                    resp = self._start(conn, request, path)
                except (http.client.RemoteDisconnected,
                        ConnectionResetError, BrokenPipeError):
                    conn.close()
                    if not reused:
                        raise
                else:
                    return resp.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise self._unreachable(exc) from None

    def _send(self, request, path: str,
              timeout: float | None = None) -> bytes:
        """``_open`` with transparent 429 retry honoring Retry-After.

        Admission rejections (``overloaded``, ``rate_limited``) mean
        "the request is fine, just not now"; submissions are dedup-safe,
        so replaying one can never enqueue twice.  Up to ``retry_429``
        retries, each sleeping the server's hint capped at
        ``retry_429_cap`` seconds; ``retry_429=0`` surfaces every 429
        to the caller (what the load generator uses to *measure* them).
        """
        attempt = 0
        while True:
            try:
                return self._open(request, path, timeout=timeout)
            except BackpressureError as exc:
                if attempt >= self.retry_429:
                    raise
                attempt += 1
                hint = getattr(exc, "retry_after", 1.0)
                time.sleep(min(max(hint, 0.05), self.retry_429_cap))

    def _request(self, method: str, path: str, body: dict | None = None,
                 timeout: float | None = None) -> dict:
        data = json.dumps(body).encode() if body is not None else None
        if data is not None and len(data) > MAX_BODY_BYTES:
            # The server would refuse it unread and hang up mid-send.
            raise ResultTooLargeError(
                f"request body of {len(data)} bytes exceeds the"
                f" {MAX_BODY_BYTES}-byte limit")
        return json.loads(self._send(
            (method, data, "application/json"), path, timeout=timeout,
        ) or b"{}")

    # -- the primitive calls ---------------------------------------------

    def healthz(self) -> dict:
        """Liveness plus load; the server adds ``workers``/``admission``."""
        return self._request("GET", "/v1/healthz")

    def status(self, state: str | None = None, kind: str | None = None,
               limit: int | None = None,
               cursor: str | None = None) -> QueuePage:
        """One filtered, windowed :class:`QueuePage` of the queue.

        Paginate by passing the previous page's opaque ``cursor``
        continuation token (the page's ``.cursor`` attribute; ``None``
        on the last page).
        """
        return QueuePage.from_dict(self._request(
            "GET",
            "/v1/queue" + _query(state=state, kind=kind, limit=limit,
                                 cursor=cursor),
        ))

    def submit(self, kind: str, payload: dict, timeout: float = 0.0,
               max_retries: int = 2, depends_on=()) -> SubmitReceipt:
        """Submit one job; returns the :class:`SubmitReceipt`.

        ``depends_on`` lists parent job ids: the job starts BLOCKED and
        is released only when every parent is DONE; an unknown parent
        id raises :class:`UnknownParentError` (404 ``unknown_parent``).
        """
        return SubmitReceipt.from_dict(self._request("POST", "/v1/jobs", {
            "kind": kind, "payload": payload,
            "timeout": timeout, "max_retries": max_retries,
            "depends_on": list(depends_on),
        })["receipt"])

    def submit_sweep(self, sweep: Sweep | dict, timeout: float = 0.0,
                     max_retries: int = 2, depends_on=()) -> SubmitReceipt:
        """Submit a :class:`~repro.service.Sweep` (or its spec dict).

        One round-trip, one merged receipt; the server expands the grid
        and inserts the points in one transaction.
        ``depends_on`` applies to every job of the sweep.
        """
        if isinstance(sweep, dict):
            sweep = Sweep.from_spec(sweep)
        return SubmitReceipt.from_dict(self._request("POST", "/v1/jobs", {
            "sweep": sweep.to_spec(),
            "timeout": timeout, "max_retries": max_retries,
            "depends_on": list(depends_on),
        })["receipt"])

    def submit_many(self, submissions, timeout: float = 0.0,
                    max_retries: int = 2,
                    depends_on=()) -> list[SubmitReceipt]:
        """Submit N jobs in ONE round-trip via ``POST /v1/jobs/batch``.

        ``submissions`` is a sequence of dicts with ``kind`` and
        ``payload`` plus optional per-item ``timeout`` / ``max_retries``
        / ``depends_on``; the call-level arguments are the defaults.
        Returns one :class:`SubmitReceipt` per submission in request
        order (see :meth:`repro.service.api.Service.submit_many`).
        """
        resp = self._request("POST", "/v1/jobs/batch", {
            "jobs": list(submissions),
            "timeout": timeout, "max_retries": max_retries,
            "depends_on": list(depends_on),
        })
        return [SubmitReceipt.from_dict(r) for r in resp["receipts"]]

    # -- campaigns -------------------------------------------------------

    def submit_campaign(self, spec: dict, timeout: float = 0.0,
                        max_retries: int = 2) -> CampaignView:
        """Expand a staged spec into a job DAG server-side.

        The whole campaign is validated first: a cyclic stage graph
        raises :class:`CycleError` (422 ``cycle_detected``) and nothing
        is enqueued.  Returns the initial :class:`CampaignView`.
        """
        if not isinstance(spec, dict):
            raise ConfigError("campaign spec must be a dict")
        body = dict(spec)
        body["timeout"] = timeout
        body["max_retries"] = max_retries
        return CampaignView.from_dict(
            self._request("POST", "/v1/campaigns", body)["campaign"]
        )

    def campaign(self, campaign_id: str) -> CampaignView:
        """Live per-stage progress for one campaign."""
        return CampaignView.from_dict(self._request(
            "GET", f"/v1/campaigns/{campaign_id}"
        )["campaign"])

    def campaigns(self) -> list[CampaignView]:
        """Every campaign the coordinator knows, oldest first."""
        return [CampaignView.from_dict(c) for c in self._request(
            "GET", "/v1/campaigns"
        )["campaigns"]]

    def campaign_dag(self, campaign_id: str) -> DagView:
        """The campaign's node graph with live job states."""
        return DagView.from_dict(self._request(
            "GET", f"/v1/campaigns/{campaign_id}/dag"
        )["dag"])

    def job(self, job_id: str) -> JobView:
        """The :class:`JobView` projection of one job."""
        return JobView.from_dict(
            self._request("GET", f"/v1/jobs/{job_id}")["job"]
        )

    def result(self, job_id: str) -> ResultView:
        """The :class:`ResultView` for one job: its result once DONE."""
        return ResultView.from_dict(
            self._request("GET", f"/v1/jobs/{job_id}/result"))

    def cancel_job(self, job_id: str) -> tuple[bool, JobView]:
        """Cancel and return ``(flipped, current JobView)``.

        Idempotent: the view reflects the job *after* the call either
        way, so a caller can distinguish "I cancelled it" from "it was
        already DONE/FAILED/CANCELLED" without a second request.  Only
        an unknown id raises :class:`UnknownJobError`.
        """
        body = self._request("POST", f"/v1/jobs/{job_id}/cancel")
        return bool(body["cancelled"]), JobView.from_dict(body["job"])

    # -- lease protocol (worker pools) -----------------------------------

    def claim_jobs(self, worker: str, n: int = 1,
                   ttl: float = 30.0) -> tuple[Lease | None, list[Job]]:
        """Lease up to ``n`` ready jobs; ``(None, [])`` when queue empty."""
        body = self._request("POST", "/v1/leases",
                             {"worker": worker, "n": n, "ttl": ttl})
        lease = Lease.from_dict(body["lease"]) if body.get("lease") else None
        jobs = [JobView.from_dict(j).to_job() for j in body.get("jobs", ())]
        return lease, jobs

    def heartbeat(self, lease_id: str, ttl: float = 30.0) -> Lease:
        """Extend a lease; raises :class:`LeaseExpiredError` if lapsed."""
        return Lease.from_dict(self._request(
            "POST", f"/v1/leases/{lease_id}/heartbeat", {"ttl": ttl}
        )["lease"])

    def complete_job(self, job_id: str, lease_id: str,
                     result: dict) -> JobView:
        """Upload a leased job's result; returns the DONE job view."""
        return JobView.from_dict(self._request(
            "POST", f"/v1/jobs/{job_id}/complete",
            {"lease": lease_id, "result": result},
        )["job"])

    def fail_job(self, job_id: str, lease_id: str, error: str) -> JobView:
        """Report a leased attempt's failure (bounded retry applies)."""
        return JobView.from_dict(self._request(
            "POST", f"/v1/jobs/{job_id}/fail",
            {"lease": lease_id, "error": error},
        )["job"])

    # -- events & watch --------------------------------------------------

    def capabilities(self) -> frozenset:
        """The server's capability set, from one cached ``GET /v1``."""
        if self._capabilities is None:
            doc = self._request("GET", "/v1")
            self._capabilities = frozenset(
                c for c in doc.get("capabilities", ())
                if isinstance(c, str))
        return self._capabilities

    def events(self, cursor: str | None = None, timeout: float = 0.0,
               limit: int = 500, job_ids=None, kinds=None,
               states=None, campaign: str | None = None,
               ) -> tuple[list[EventView], str, bool]:
        """One ``GET /v1/events`` long-poll round-trip.

        Returns ``(events, next_cursor, timed_out)``.  ``cursor`` is an
        opaque token from a previous call, ``"begin"`` (everything the
        logs hold -- the default), or ``"now"`` (only what happens from
        here on).  With ``timeout > 0`` the server holds the request
        open until a matching event arrives; the socket timeout is
        stretched to cover it.  Filters (``job_ids``, ``kinds``,
        ``states``, ``campaign``) are applied server-side.
        """
        body = self._request(
            "GET",
            "/v1/events" + _query(cursor=cursor, timeout=timeout or None,
                                  limit=limit, job_id=job_ids,
                                  kind=kinds, state=states,
                                  campaign=campaign),
            timeout=self.timeout + max(0.0, timeout),
        )
        views = [EventView.from_dict(e) for e in body.get("events", ())]
        return views, body.get("cursor", ""), bool(body.get("timed_out"))

    def events_stream(self, cursor: str | None = None, job_ids=None,
                      kinds=None, states=None,
                      campaign: str | None = None,
                      heartbeat: float = 15.0, reconnect: bool = True,
                      reconnect_delay: float = 0.2):
        """Generator over the SSE feed, resuming across disconnects.

        Yields :class:`EventView`\\ s as the server pushes them.  Each
        event's cursor is remembered; when the connection drops (server
        restart, network blip) and ``reconnect`` is true, the stream
        reconnects with ``Last-Event-ID`` set to the last delivered
        cursor, so every event is observed exactly once across the gap.
        Infinite by design -- the consumer decides when to stop.
        """
        token = cursor
        path = "/v1/events" + _query(job_id=job_ids, kind=kinds,
                                     state=states, campaign=campaign,
                                     heartbeat=heartbeat)
        while True:
            headers = {"Accept": "text/event-stream"}
            if token:
                headers["Last-Event-ID"] = token
            # The server frames the stream by closing it, so it gets a
            # connection of its own, not the thread's kept one.
            conn = self._connect(timeout=self.timeout + heartbeat)
            try:
                try:
                    resp = self._start(conn, ("GET", None, None), path,
                                       headers)
                except (OSError, http.client.HTTPException) as exc:
                    if not reconnect:
                        raise self._unreachable(exc) from None
                else:
                    try:
                        for view in self._parse_sse(resp):
                            token = view.cursor
                            yield view
                    except OSError:
                        pass  # the stream broke: reconnect (or stop)
            finally:
                conn.close()
            if not reconnect:
                return
            time.sleep(reconnect_delay)

    @staticmethod
    def _parse_sse(resp):
        """Yield :class:`EventView`\\ s from one SSE response body."""
        data_lines: list[str] = []
        while True:
            raw = resp.readline()
            if not raw:  # EOF: server closed the stream
                return
            line = raw.decode("utf-8", "replace").rstrip("\r\n")
            if not line:  # blank line dispatches the pending frame
                if data_lines:
                    record = json.loads("\n".join(data_lines))
                    data_lines = []
                    yield EventView.from_dict(record)
                continue
            if line.startswith(":"):  # heartbeat comment
                continue
            field, _, value = line.partition(":")
            if value.startswith(" "):
                value = value[1:]
            if field == "data":
                data_lines.append(value)
            # ``event:`` and ``id:`` duplicate fields already inside
            # the data JSON (kind, cursor); nothing else to track.


def _awaitable_twin(method):
    """The :class:`AsyncServiceClient` twin of one blocking method.

    Plain methods run on the event loop's default executor; generator
    methods (``watch``, ``events_stream``) become async generators that
    advance the blocking generator on the executor one step at a time,
    so long-poll blocking happens off-loop and many can share one loop.
    """
    if inspect.isgeneratorfunction(method):
        @functools.wraps(method)
        async def twin(self, *args, **kwargs):
            iterator = method(self._client, *args, **kwargs)
            loop = asyncio.get_running_loop()
            sentinel = object()
            while True:
                item = await loop.run_in_executor(None, next, iterator,
                                                  sentinel)
                if item is sentinel:
                    return
                yield item
    else:
        @functools.wraps(method)
        async def twin(self, *args, **kwargs):
            return await asyncio.get_running_loop().run_in_executor(
                None, functools.partial(method, self._client, *args,
                                        **kwargs))
    return twin


class AsyncServiceClient:
    """Asyncio twin of :class:`ServiceClient`, generated from it.

    Takes the same constructor arguments and has the same public
    methods with the same signatures, each awaitable (generators become
    async generators), returning the same typed objects.  Blocking HTTP
    calls run on the event loop's default executor, so many clients (or
    many concurrent ``wait`` gathers) can share one loop.
    """

    def __init__(self, url: str, **client_options) -> None:
        self._client = ServiceClient(url, **client_options)

    @property
    def base_url(self) -> str:
        return self._client.base_url

    async def wait(self, job_ids,
                   timeout: float | None = None) -> dict[str, ResultView]:
        """Async twin of :meth:`ServiceClient.wait`, same contract.

        Hand-written rather than generated: it awaits the async
        ``watch``/``result`` twins, so the loop regains control (and
        cancellation lands) between events.
        """
        outstanding = list(dict.fromkeys(job_ids))
        views: dict[str, ResultView] = {}
        try:
            async for view in self.watch(job_ids=outstanding,
                                         states=TERMINAL_STATES,
                                         timeout=timeout):
                if view.terminal and view.job_id not in views:
                    views[view.job_id] = await self.result(view.job_id)
        except WaitTimeout:
            raise WaitTimeout(
                [jid for jid in outstanding if jid not in views], timeout
            ) from None
        return views


for _name, _method in inspect.getmembers(ServiceClient, inspect.isfunction):
    if not _name.startswith("_") and _name not in vars(AsyncServiceClient):
        setattr(AsyncServiceClient, _name, _awaitable_twin(_method))
