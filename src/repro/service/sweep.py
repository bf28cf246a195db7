"""Parameter-grid expansion for batch submission.

A :class:`Sweep` is a job kind plus axes: every parameter maps to one
value or a list of values, and :meth:`Sweep.expand` takes the cartesian
product in deterministic order.  ``dedupe`` collapses payloads with the
same content key -- grid corners that describe the same benchmark point
(and points another sweep already queued) are submitted once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..errors import MalformedRequestError
from .cache import payload_key

#: Safety cap on the jobs one submission call (a batch, a sweep, a
#: campaign stage) may create: far above the 10k-point sweeps the batch
#: path exists for, low enough that a single request cannot hold the
#: coordinator's memory hostage.
MAX_BATCH_JOBS = 100_000


def expand_grid(axes: dict) -> list[dict]:
    """Cartesian product of the axes, scalars treated as length-1 lists.

    The output order is deterministic: axes vary slowest-first in the
    dict's insertion order, so ``{"n": [1, 2], "nb": [8, 16]}`` yields
    ``n=1,nb=8``, ``n=1,nb=16``, ``n=2,nb=8``, ``n=2,nb=16``.
    """
    names = list(axes)
    value_lists = []
    for name in names:
        v = axes[name]
        if isinstance(v, (list, tuple)):
            if not v:
                raise MalformedRequestError(
                    f"sweep axis {name!r} is empty")
            value_lists.append(list(v))
        else:
            value_lists.append([v])
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*value_lists)
    ]


def dedupe(kind: str, payloads: list[dict]) -> tuple[list[dict], int]:
    """Drop payloads whose content key repeats; keep first occurrences.

    Returns ``(unique_payloads, dropped_count)``.
    """
    seen: set[str] = set()
    unique: list[dict] = []
    for payload in payloads:
        key = payload_key(kind, payload)
        if key in seen:
            continue
        seen.add(key)
        unique.append(payload)
    return unique, len(payloads) - len(unique)


@dataclass(frozen=True)
class Sweep:
    """One batch of jobs over a parameter grid.

    Attributes:
        kind: Job kind every expanded payload is submitted as.
        axes: Parameter name -> value or list of values to sweep.
        base: Fixed parameters merged into every payload (an axis with
            the same name overrides the base value).
    """

    kind: str
    axes: dict = field(default_factory=dict)
    base: dict = field(default_factory=dict)

    @classmethod
    def from_spec(cls, spec) -> "Sweep":
        """Parse the wire form ``{"kind", "axes", "base"}``, validated.

        Every sweep that arrives as data -- a ``"sweep"`` request body,
        a campaign stage, a dict handed to a client -- comes through
        here, so a malformed one is one typed error, whatever the route.
        """
        if not isinstance(spec, dict) or not isinstance(
                spec.get("kind"), str):
            raise MalformedRequestError(
                "'sweep' must be an object with a string 'kind'"
            )
        axes, base = spec.get("axes", {}), spec.get("base", {})
        if not isinstance(axes, dict) or not isinstance(base, dict):
            raise MalformedRequestError(
                "sweep 'axes' and 'base' must be objects"
            )
        return cls(kind=spec["kind"], axes=axes, base=base)

    def to_spec(self) -> dict:
        """The wire form :meth:`from_spec` parses."""
        return {"kind": self.kind, "axes": self.axes, "base": self.base}

    def expand(self) -> list[dict]:
        """Deduplicated payload dicts for the full grid."""
        payloads = [
            {**self.base, **point} for point in expand_grid(self.axes)
        ]
        unique, _ = dedupe(self.kind, payloads)
        return unique

    def submissions(self) -> list[dict]:
        """The grid as :meth:`Service.submit_many` items, one per point.

        A grid over the cap is refused from its size, before a single
        point of the cartesian product is built.
        """
        if self.npoints > MAX_BATCH_JOBS:
            raise MalformedRequestError(
                f"sweep of {self.npoints} points exceeds the cap of"
                f" {MAX_BATCH_JOBS} jobs in one submission"
            )
        return [{"kind": self.kind, "payload": p} for p in self.expand()]

    @property
    def npoints(self) -> int:
        """Grid size before deduplication."""
        total = 1
        for v in self.axes.values():
            total *= len(v) if isinstance(v, (list, tuple)) else 1
        return total
