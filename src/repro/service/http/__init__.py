"""HTTP transport for the batch service: server + clients.

The :class:`~repro.service.api.Service` facade is transport-agnostic;
this package exposes it over a socket so remote clients share one queue
and result cache.  :class:`ServiceHTTPServer` is the stdlib-only server
(``repro serve``), :class:`ServiceClient` the blocking client, and
:class:`AsyncServiceClient` its generated asyncio twin.  See ``docs/service.md`` for the endpoint reference.
"""

from __future__ import annotations

from ..facade import WaitTimeout
from ..views import TERMINAL_STATES
from .client import AsyncServiceClient, ServiceClient
from .server import ServiceHTTPServer

__all__ = [
    "AsyncServiceClient",
    "ServiceClient",
    "ServiceHTTPServer",
    "TERMINAL_STATES",
    "WaitTimeout",
]
