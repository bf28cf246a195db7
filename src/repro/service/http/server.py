"""JSON-over-HTTP front-end for the batch service (stdlib only).

:class:`ServiceHTTPServer` wraps one :class:`~repro.service.api.Service`
behind a :class:`http.server.ThreadingHTTPServer`, so many remote
clients share a single queue and result cache -- the networked analogue
of many independent submitters keeping one tiled-factorization worker
pool saturated.  Optionally it also hosts an in-process
:class:`~repro.service.workers.WorkerPool` on a background thread
(``workers > 0``), which is what ``repro serve`` runs; remote pools
(``repro workers --url``) drain the same queue through the lease
endpoints.

v1 endpoints (request and response bodies are JSON):

=======  ==================================  ===============================
method   path                                action
=======  ==================================  ===============================
GET      ``/v1``                             API discovery: ``{"version",
                                             "endpoints", "capabilities"}``
POST     ``/v1/jobs``                        one job or a sweep
                                             -> ``{"receipt": ...}``
POST     ``/v1/jobs/batch``                  N jobs or a sweep ->
                                             ``{"receipts": [...],
                                             "receipt": ...}``
GET      ``/v1/jobs``                        queue page (filter + paginate)
GET      ``/v1/jobs/{id}``                   one job -> ``{"job": ...}``
GET      ``/v1/jobs/{id}/result``            ``{"job":..., "ready", "result"}``
POST     ``/v1/jobs/{id}/cancel``            cancel (idempotent, 200)
POST     ``/v1/jobs/{id}/complete``          leased result upload
POST     ``/v1/jobs/{id}/fail``              leased failure report
POST     ``/v1/leases``                      claim jobs under a TTL lease
POST     ``/v1/leases/{id}/heartbeat``       extend a live lease
POST     ``/v1/campaigns``                   staged spec -> ``{"campaign"}``
GET      ``/v1/campaigns``                   ``{"campaigns": [...]}``
GET      ``/v1/campaigns/{id}``              progress -> ``{"campaign"}``
GET      ``/v1/campaigns/{id}/dag``          node graph -> ``{"dag": ...}``
GET      ``/v1/queue``                       queue page (same as GET jobs)
GET      ``/v1/events``                      audit-event feed:
                                             long-poll (``?cursor&timeout``)
                                             or SSE (``Accept:
                                             text/event-stream``)
GET      ``/v1/healthz``                     liveness + per-state depths +
                                             ``"http": {"connections",
                                             "requests"}`` since start
=======  ==================================  ===============================

Every route is a thin shell over the one call of the service facade
(:mod:`repro.service.facade`) it names, so what ``ServiceClient`` hands
back over the wire is what :class:`Service` hands back in process.

Queue pages (``GET /v1/queue`` / ``GET /v1/jobs``) take ``limit`` and
paginate by the opaque ``cursor`` continuation token the previous page
returned -- the same continuation idiom the event feed uses, and the
only pagination scheme.  The event feed is documented in
``docs/service.md`` ("Events & watch"): resumable cursors over the
audit log, server-side ``job_id``/``campaign``/``state``/
``kind`` filters, SSE heartbeat comments and ``Last-Event-ID`` resume.

The three submit routes read the body, pass admission and hand the
submissions to :meth:`Service.submit_many` (campaigns: one call per
stage) -- the one place a submission is validated and turned into a
job, so a malformed item is the same typed 4xx on every route and the
jobs of one call commit in one transaction.  The lease
routes do the same with ``n`` / ``ttl``: :meth:`Service.claim_jobs` and
:meth:`Service.heartbeat` validate them for both transports.
Submissions may carry ``depends_on`` (a list of parent job ids): the
job enters ``BLOCKED`` and is released only when every parent is
``DONE`` (see :mod:`repro.service.dag`).  Campaign specs are expanded
into such a DAG server-side, validated whole before the first stage is
enqueued.

Error contract: every error body is
``{"error": {"code": "...", "message": "..."}}`` where ``code`` is the
stable machine-readable identifier the raised
:class:`~repro.errors.ReproError` subclass carries (``bad_config`` 400,
``malformed`` 400, ``unknown_job`` / ``unknown_route`` /
``unknown_parent`` / ``unknown_campaign`` 404, ``unknown_kind`` /
``cycle_detected`` / ``bad_cursor`` 422, ``events_truncated`` 410,
``conflict`` / ``lease_expired`` 409, ``too_large`` 413,
``overloaded`` / ``rate_limited`` 429 with a ``Retry-After`` header,
``store_unavailable`` 503); the HTTP status comes from the same class.
Clients re-raise the matching typed exception by ``code``.  Every
result travels inline in its ``complete`` body, so a request body is
bounded by :data:`~repro.service.api.MAX_BODY_BYTES`: a longer declared
``Content-Length`` is refused with ``too_large`` before a byte of it is
read, and the connection is closed.

Connections are HTTP/1.1 keep-alive: one handler thread (and one
SQLite handle) per *connection*, not per request, parked
between requests; the bundled clients keep one connection per thread.
Responses go out with ``TCP_NODELAY``; a request body no route read is
drained (or the connection closed) before the next request is parsed;
:meth:`ServiceHTTPServer.shutdown` hangs up on every open connection.

Admission control (off by default) guards the three submit routes --
``POST /v1/jobs``, ``/v1/jobs/batch``, ``/v1/campaigns`` -- with a
queue-depth watermark and per-client token buckets keyed on the
``X-Client-Id`` header; see :mod:`repro.service.admission`.  Reads,
cancels, and the lease protocol are never gated, so workers can always
drain and clients can always observe a saturated queue.  ``GET
/v1/events`` is read-class by the same rule: a watcher is never 429'd,
which is the whole point -- watching must stay cheaper than the polling
it replaces even (especially) when the queue is saturated.
"""

from __future__ import annotations

import json
import math
import re
import socket
import sys
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ...errors import (
    MalformedRequestError,
    ReproError,
    ResultTooLargeError,
    ServiceError,
    UnknownRouteError,
)
from ..admission import AdmissionController
from ..api import MAX_BODY_BYTES, Service, SubmitReceipt
from ..sweep import Sweep
from ..views import JobView
from ..workers import WorkerOptions

_JOB_RE = re.compile(r"^/v1/jobs/([A-Za-z0-9_-]+)$")
_RESULT_RE = re.compile(r"^/v1/jobs/([A-Za-z0-9_-]+)/result$")
_CANCEL_RE = re.compile(r"^/v1/jobs/([A-Za-z0-9_-]+)/cancel$")
_COMPLETE_RE = re.compile(r"^/v1/jobs/([A-Za-z0-9_-]+)/complete$")
_FAIL_RE = re.compile(r"^/v1/jobs/([A-Za-z0-9_-]+)/fail$")
_HEARTBEAT_RE = re.compile(r"^/v1/leases/([A-Za-z0-9_-]+)/heartbeat$")
_CAMPAIGN_RE = re.compile(r"^/v1/campaigns/([A-Za-z0-9_-]+)$")
_CAMPAIGN_DAG_RE = re.compile(r"^/v1/campaigns/([A-Za-z0-9_-]+)/dag$")


def _int_param(params: dict, name: str, default=None):
    raw = params.get(name, [None])[-1]
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise MalformedRequestError(
            f"query parameter {name!r} must be an integer, got {raw!r}"
        ) from None


def _float_param(params: dict, name: str, default=None):
    raw = params.get(name, [None])[-1]
    if raw is None or raw == "":
        return default
    try:
        return float(raw)
    except ValueError:
        raise MalformedRequestError(
            f"query parameter {name!r} must be a number, got {raw!r}"
        ) from None


def _given(body: dict, *keys: str) -> dict:
    """The fields of ``keys`` the request carried, as sent.

    Handed to the service as keyword arguments, so an absent field
    takes the service's default and a present one is validated there.
    """
    return {k: body[k] for k in keys if k in body}


def _lease_of(body: dict) -> str:
    """The ``lease`` field of a leased-report body: a non-empty string."""
    lease_id = body.get("lease", "")
    if not isinstance(lease_id, str) or not lease_id:
        raise MalformedRequestError("'lease' must be a non-empty string")
    return lease_id


#: Long-poll waits and SSE heartbeat intervals are clamped to this many
#: seconds so one subscriber can never park a handler thread for long
#: without the server getting a say (clients simply re-poll).
MAX_EVENT_WAIT = 60.0

#: Per-response cap on the event batch size (and the log scan window).
MAX_EVENT_LIMIT = 1000

#: A request body its route never read is drained if at most this long
#: (the connection stays usable); a longer one costs the connection.
MAX_DRAIN_BYTES = 64 * 1024

#: Things this server can do beyond the PR-3 v1 baseline, for client
#: feature detection via ``GET /v1`` -- one probe instead of sniffing
#: 404s per endpoint.
CAPABILITIES = ("batch", "campaigns", "cursor_queue", "dag", "events",
                "leases")

#: The endpoint table ``GET /v1`` serves, mirroring the module docstring.
ENDPOINTS = (
    "GET /v1",
    "GET /v1/events",
    "GET /v1/healthz",
    "GET /v1/jobs",
    "GET /v1/jobs/{id}",
    "GET /v1/jobs/{id}/result",
    "GET /v1/campaigns",
    "GET /v1/campaigns/{id}",
    "GET /v1/campaigns/{id}/dag",
    "GET /v1/queue",
    "POST /v1/jobs",
    "POST /v1/jobs/batch",
    "POST /v1/jobs/{id}/cancel",
    "POST /v1/jobs/{id}/complete",
    "POST /v1/jobs/{id}/fail",
    "POST /v1/leases",
    "POST /v1/leases/{id}/heartbeat",
    "POST /v1/campaigns",
)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # A response leaves as two writes (headers, body).  On a kept
    # connection Nagle holds the second until the client's delayed ACK
    # of the first: ~40 ms added to every round-trip.
    disable_nagle_algorithm = True

    # The default handler logs every request to stderr; route through
    # the server's quiet flag so tests and embedded servers stay silent.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not getattr(self.server, "quiet", True):
            super().log_message(format, *args)

    @property
    def service(self) -> Service:
        return self.server.service

    # -- plumbing --------------------------------------------------------

    def _send(self, status: int, content_type: str, data: bytes,
              retry_after: int | None = None) -> None:
        """Write one framed response (all of them but the SSE stream).

        A request body the route never read would be parsed as the next
        request of a kept connection: drain it, or close after this.
        """
        if self._unread > MAX_DRAIN_BYTES:
            self.close_connection = True
        elif self._unread:
            self.rfile.read(self._unread)
        self._unread = 0
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_json(self, status: int, obj: dict,
                   retry_after: int | None = None) -> None:
        self._send(status, "application/json",
                   json.dumps(obj, sort_keys=True).encode(), retry_after)

    def _send_error_json(self, status: int, code: str, message: str,
                         retry_after: float | None = None) -> None:
        obj = {
            "error": {"code": code, "message": message.splitlines()[-1]},
        }
        if retry_after is not None:
            # HTTP Retry-After is integer seconds; round up so clients
            # never retry before the hinted window has actually passed.
            retry_after = max(1, math.ceil(retry_after))
            obj["error"]["retry_after"] = retry_after
        self._send_json(status, obj, retry_after)

    def _declared_length(self) -> int:
        """The request's ``Content-Length`` (0 when absent), parsed once.

        A body over :data:`MAX_BODY_BYTES` is refused unread, which
        costs the connection.
        """
        raw = self.headers.get("Content-Length") or "0"
        if not raw.isdecimal():
            self.close_connection = True  # no way to frame the body
            raise MalformedRequestError(
                f"Content-Length must be a non-negative integer,"
                f" got {raw!r}"
            )
        length = int(raw)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise ResultTooLargeError(
                f"request body of {length} bytes exceeds the"
                f" {MAX_BODY_BYTES}-byte limit"
            )
        return length

    def _read_body(self) -> dict:
        length, self._unread = self._unread, 0
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise MalformedRequestError("request body must be a JSON object")
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise MalformedRequestError(
                f"request body is not valid JSON: {exc}"
            ) from None
        if not isinstance(body, dict):
            raise MalformedRequestError(
                f"request body must be a JSON object,"
                f" got {type(body).__name__}"
            )
        return body

    def _dispatch(self, fn) -> None:
        self.server.count_request()
        self._unread = 0  # body bytes declared and not yet read
        try:
            self._unread = self._declared_length()
            status, obj = fn()
        except ReproError as exc:
            self._send_error_json(exc.http_status, exc.code, str(exc),
                                  retry_after=getattr(exc, "retry_after",
                                                      None))
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error_json(500, "internal",
                                  f"{type(exc).__name__}: {exc}")
        else:
            if status is None:
                return  # the route streamed its own response (SSE)
            self._send_json(status, obj)

    # -- routes ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch(self._route_get)

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch(self._route_post)

    def _admit_submit(self) -> None:
        """Run the admission gate for one submit-path request.

        The client identity is the ``X-Client-Id`` header when present
        (what well-behaved clients send; both bundled clients do), else
        the peer address -- so an anonymous storm from one host is still
        one bucket.
        """
        admission: AdmissionController | None = getattr(
            self.server, "admission", None)
        if admission is None:
            return
        client_id = self.headers.get("X-Client-Id") or \
            f"ip:{self.client_address[0]}"
        admission.check_submit(client_id, self.service.store.outstanding)

    def _submit(self, *forms: str) -> list[SubmitReceipt]:
        """Read a submit body, pass admission, hand it to the service.

        ``forms`` are the body shapes the route takes, by the key that
        marks them: ``"sweep"`` (a grid, expanded here into one
        submission per point), ``"jobs"`` (a list of submissions) or
        ``"kind"`` (one submission, ``kind`` + ``payload``).  The
        top-level ``timeout`` / ``max_retries`` / ``depends_on`` go
        through as sent: :meth:`Service.submit_many` is the one place a
        submission is validated.
        """
        body = self._read_body()
        self._admit_submit()
        form = next((f for f in forms if body.get(f)), None)
        if form == "sweep":
            jobs = Sweep.from_spec(body["sweep"]).submissions()
        elif form == "jobs":
            jobs = body["jobs"]
        elif form == "kind":
            jobs = [{"kind": body["kind"],
                     "payload": body.get("payload", {})}]
        else:
            raise MalformedRequestError(
                "submission body must carry a non-empty "
                + " or ".join(repr(f) for f in forms)
            )
        receipts = self.service.submit_many(
            jobs, **_given(body, "timeout", "max_retries", "depends_on"))
        admission: AdmissionController | None = getattr(
            self.server, "admission", None)
        if admission is not None:
            admission.note_enqueued(sum(len(r.new) for r in receipts))
        return receipts

    def _queue_page(self, query: str) -> dict:
        params = urllib.parse.parse_qs(query)
        state = params.get("state", [None])[-1] or None
        kind = params.get("kind", [None])[-1] or None
        page = self.service.status(
            state=state, kind=kind,
            limit=_int_param(params, "limit"),
            cursor=params.get("cursor", [None])[-1] or None,
        )
        return page.to_dict()

    # -- the event feed --------------------------------------------------

    def _parse_event_query(self, query: str) -> dict:
        """Shared long-poll/SSE parameter parsing -> ``events`` kwargs.

        SSE resume prefers an explicit ``cursor`` param, falling back to
        the standard ``Last-Event-ID`` header an EventSource reconnect
        sends.
        """
        params = urllib.parse.parse_qs(query)
        cursor = params.get("cursor", [None])[-1]
        if cursor is None:
            cursor = self.headers.get("Last-Event-ID") or None
        limit = _int_param(params, "limit", 500)
        if limit < 1 or limit > MAX_EVENT_LIMIT:
            raise MalformedRequestError(
                f"limit must be 1..{MAX_EVENT_LIMIT}, got {limit}"
            )
        timeout = _float_param(params, "timeout", 0.0)
        timeout = min(max(0.0, timeout), MAX_EVENT_WAIT)
        return {
            "cursor": cursor,
            "limit": limit,
            "timeout": timeout,
            "job_ids": params.get("job_id") or None,
            "kinds": params.get("kind") or None,
            "states": params.get("state") or None,
            "campaign": params.get("campaign", [None])[-1] or None,
        }

    def _events_route(self, query: str) -> tuple:
        kwargs = self._parse_event_query(query)
        accept = self.headers.get("Accept", "")
        if "text/event-stream" in accept:
            params = urllib.parse.parse_qs(query)
            heartbeat = _float_param(params, "heartbeat", 15.0)
            heartbeat = min(max(0.2, heartbeat), MAX_EVENT_WAIT)
            self._serve_sse(kwargs, heartbeat)
            return None, None
        views, cursor, timed_out = self.service.events(**kwargs)
        return 200, {
            "events": [v.to_dict() for v in views],
            "cursor": cursor,
            "timed_out": timed_out,
        }

    def _serve_sse(self, kwargs: dict, heartbeat: float) -> None:
        """Stream the feed as Server-Sent Events until the client leaves.

        Every event frame carries ``id:`` -- the cursor just past that
        event -- so a reconnecting client resumes exactly-once via
        ``Last-Event-ID``.  Comment frames (``: heartbeat``) flow every
        ``heartbeat`` seconds of silence to keep intermediaries from
        reaping the idle connection.  This is the one response the
        server frames by connection close instead of Content-Length.
        """
        # Resolve the cursor *before* streaming starts so a bad token
        # still gets its proper 422/410 JSON error.
        self.service.broker.resolve(kwargs["cursor"])
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        kwargs = dict(kwargs)
        try:
            while True:
                kwargs["timeout"] = heartbeat
                views, cursor, timed_out = self.service.events(**kwargs)
                kwargs["cursor"] = cursor
                if timed_out:
                    self.wfile.write(b": heartbeat\n\n")
                for view in views:
                    frame = (
                        f"event: {view.kind}\n"
                        f"id: {view.cursor}\n"
                        f"data: {json.dumps(view.to_dict(), sort_keys=True)}"
                        f"\n\n"
                    )
                    self.wfile.write(frame.encode("utf-8"))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            return  # the client went away; the cursor it holds resumes

    def _route_get(self) -> tuple[int, dict]:
        path, _, query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        if path == "/v1":
            # Discovery: clients feature-detect ("events", "batch", ...)
            # with one probe instead of sniffing 404s per endpoint.
            return 200, {
                "version": "1",
                "service": "repro",
                "capabilities": list(CAPABILITIES),
                "endpoints": list(ENDPOINTS),
            }
        if path == "/v1/events":
            return self._events_route(query)
        if path == "/v1/healthz":
            admission = getattr(self.server, "admission", None)
            return 200, {
                **self.service.healthz(),
                "workers": getattr(self.server, "workers", 0),
                "admission": (admission.stats()
                              if admission is not None else None),
                "http": {"connections": self.server.connections,
                         "requests": self.server.requests},
            }
        if path in ("/v1/queue", "/v1/jobs"):
            return 200, self._queue_page(query)
        if path == "/v1/campaigns":
            return 200, {
                "campaigns": [v.to_dict()
                              for v in self.service.campaigns()],
            }
        m = _CAMPAIGN_DAG_RE.match(path)
        if m:
            return 200, {
                "dag": self.service.campaign_dag(m.group(1)).to_dict(),
            }
        m = _CAMPAIGN_RE.match(path)
        if m:
            return 200, {
                "campaign": self.service.campaign(m.group(1)).to_dict(),
            }
        m = _JOB_RE.match(path)
        if m:
            return 200, {"job": self.service.job(m.group(1)).to_dict()}
        m = _RESULT_RE.match(path)
        if m:
            return 200, self.service.result(m.group(1)).to_dict()
        raise UnknownRouteError(f"no such endpoint: GET {path}")

    def _route_post(self) -> tuple[int, dict]:
        path = self.path.partition("?")[0].rstrip("/")
        if path == "/v1/jobs/batch":
            receipts = self._submit("sweep", "jobs")
            return 200, {
                "receipts": [r.to_dict() for r in receipts],
                "receipt": SubmitReceipt.merged(receipts).to_dict(),
            }
        if path == "/v1/jobs":
            receipts = self._submit("sweep", "kind")
            return 200, {
                "receipt": SubmitReceipt.merged(receipts).to_dict(),
            }
        if path == "/v1/campaigns":
            body = self._read_body()
            self._admit_submit()
            options = {k: body.pop(k) for k in ("timeout", "max_retries")
                       if k in body}
            view = self.service.submit_campaign(body, **options)
            return 200, {"campaign": view.to_dict()}
        if path == "/v1/leases":
            # ``worker`` / ``n`` / ``ttl`` go through as sent:
            # Service.claim_jobs is the one place they are validated.
            body = self._read_body()
            lease, jobs = self.service.claim_jobs(
                body.get("worker", ""), **_given(body, "n", "ttl"))
            return 200, {
                "lease": lease.to_dict() if lease else None,
                "jobs": [JobView.from_job(j).to_dict() for j in jobs],
            }
        m = _HEARTBEAT_RE.match(path)
        if m:
            body = self._read_body()
            lease = self.service.heartbeat(m.group(1),
                                           **_given(body, "ttl"))
            return 200, {"lease": lease.to_dict()}
        m = _COMPLETE_RE.match(path)
        if m:
            body = self._read_body()
            view = self.service.complete_job(
                m.group(1), _lease_of(body), body.get("result")
            )
            return 200, {"job": view.to_dict()}
        m = _FAIL_RE.match(path)
        if m:
            body = self._read_body()
            view = self.service.fail_job(
                m.group(1), _lease_of(body), str(body.get("error", ""))
            )
            return 200, {"job": view.to_dict()}
        m = _CANCEL_RE.match(path)
        if m:
            # Idempotent: cancelling an already-terminal job is a 200
            # with the current view and ``"cancelled": false``; only an
            # unknown id is a 404.
            flipped, view = self.service.cancel_job(m.group(1))
            return 200, {"job": view.to_dict(), "cancelled": flipped}
        raise UnknownRouteError(f"no such endpoint: POST {path}")


#: Lease TTL of the embedded pool.  It shares the coordinator's fate
#: (one process), so the TTL only has to outlast a stalled supervisor
#: loop, never a network partition -- and it is how long a restarted
#: coordinator waits to get a SIGKILLed predecessor's jobs back.
EMBEDDED_LEASE_TTL = 5.0


class _Server(ThreadingHTTPServer):
    """One daemon handler thread per *connection*, parked between the
    requests of a kept one -- and still answering, from the stopped
    server's service, after ``shutdown()``: :meth:`hang_up` ends them."""

    daemon_threads = True
    allow_reuse_address = True

    service: Service
    quiet: bool = True
    workers: int = 0
    admission: AdmissionController | None = None

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._lock = threading.Lock()
        self._open: set[socket.socket] = set()  # accepted, not yet closed
        self.connections = self.requests = 0  # since start, for healthz

    def process_request(self, request, client_address) -> None:
        with self._lock:
            self._open.add(request)
            self.connections += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def count_request(self) -> None:
        with self._lock:
            self.requests += 1

    def handle_error(self, request, client_address) -> None:
        # A peer that left mid-response, or was hung up on while its
        # long-poll was parked, is not a fault to print a traceback for.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def hang_up(self) -> None:
        """Shut every open connection down: its handler thread reads
        EOF, closes the socket and exits."""
        with self._lock:
            open_now = list(self._open)
        for sock in open_now:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer got there first


class ServiceHTTPServer:
    """One service workdir served over HTTP, with an optional pool.

    ``port=0`` binds an ephemeral port (read it back from ``.port`` /
    ``.url``).  ``workers > 0`` runs an in-process
    :class:`WorkerPool` on a background thread for the server's
    lifetime, so one ``repro serve`` process is a complete batch system.
    With ``workers=0`` the process is a pure coordinator: submissions
    queue up for remote ``repro workers --url`` fleets.  Usable as a
    context manager: ``with ServiceHTTPServer(...) as srv:`` starts the
    background threads and tears them down cleanly.
    """

    def __init__(self, workdir, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 0, backoff_base: float = 0.5,
                 poll_interval: float = 0.02, quiet: bool = True,
                 busy_timeout: float = 30.0,
                 max_queue_depth: int = 0, rate_limit: float = 0.0,
                 rate_burst: float | None = None) -> None:
        if workers < 0:
            raise ServiceError(f"workers must be >= 0, got {workers}")
        self.service = Service(workdir, backoff_base=backoff_base,
                               busy_timeout=busy_timeout)
        self.workers = workers
        self.poll_interval = poll_interval
        # Both gates default off (0); see repro.service.admission.  The
        # controller is exposed as ``.admission`` so tests can shrink
        # depth_ttl or read rejection tallies directly.
        self.admission = (
            AdmissionController(max_queue_depth=max_queue_depth,
                                rate_limit=rate_limit,
                                rate_burst=rate_burst)
            if max_queue_depth > 0 or rate_limit > 0 else None
        )
        self._httpd = _Server((host, port), _Handler)
        self._httpd.service = self.service
        self._httpd.quiet = quiet
        self._httpd.workers = workers
        self._httpd.admission = self.admission
        self.host, self.port = self._httpd.server_address[:2]
        self._serve_thread: threading.Thread | None = None
        self._pool_thread: threading.Thread | None = None
        self._pool_stop = threading.Event()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -------------------------------------------------------

    def _start_pool(self) -> None:
        if self.workers < 1 or self._pool_thread is not None:
            return
        pool = self.service.worker_pool(
            WorkerOptions(n=self.workers, drain=False,
                          poll_interval=self.poll_interval,
                          lease_ttl=EMBEDDED_LEASE_TTL),
            worker="serve",
        )
        self._pool_stop.clear()
        self._pool_thread = threading.Thread(
            target=pool.run, kwargs={"stop": self._pool_stop},
            name="repro-serve-pool", daemon=True,
        )
        self._pool_thread.start()

    def start(self) -> "ServiceHTTPServer":
        """Serve on a background thread (returns immediately)."""
        if self._serve_thread is None:
            self._start_pool()
            self._serve_thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="repro-serve-http", daemon=True,
            )
            self._serve_thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro serve`` loop)."""
        self._start_pool()
        self._httpd.serve_forever(poll_interval=0.1)

    def shutdown(self) -> None:
        """Stop serving, hang up, stop the pool, release the socket."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd.hang_up()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10.0)
            self._serve_thread = None
        if self._pool_thread is not None:
            self._pool_stop.set()
            self._pool_thread.join(timeout=30.0)
            self._pool_thread = None

    def __enter__(self) -> "ServiceHTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
