"""Run configuration for the HPL benchmark engine.

:class:`HPLConfig` mirrors the tunables of Netlib HPL's ``HPL.dat`` plus the
rocHPL extensions described in the paper (schedule selection, split
fraction).  It is consumed both by the *numeric* engine
(:mod:`repro.hpl.driver`) and by the *performance* simulator
(:mod:`repro.perf.hplsim`), so that one configuration object describes one
benchmark run in either world.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math

from .errors import ConfigError


def canonical_json(obj) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace).

    Enums are encoded by value so the encoding is stable across enum
    renames and python versions.  Used by :func:`config_key` and the
    service result cache, which require byte-identical encodings for
    semantically identical inputs.
    """

    def _default(o):
        if isinstance(o, enum.Enum):
            return o.value
        raise TypeError(f"{type(o).__name__} is not JSON-serializable")

    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=_default
    )


def config_key(mapping) -> str:
    """Stable content hash of a parameter mapping (sha256 hex digest)."""
    return hashlib.sha256(canonical_json(mapping).encode()).hexdigest()


class PFactVariant(enum.Enum):
    """Panel-factorization algorithm, as in Netlib HPL's PFACT/RFACT knobs."""

    LEFT = "left"
    CROUT = "crout"
    RIGHT = "right"


class BcastVariant(enum.Enum):
    """Panel-broadcast algorithm (Netlib HPL's ``BCAST`` knob).

    ``ONE_RING_M`` / ``TWO_RING_M`` are the "modified" variants in which the
    process immediately next to the root is served first so it can start its
    own (likely critical-path) work early.  ``BLONG`` is the
    bandwidth-optimal scatter + ring-allgather spread-roll algorithm.
    """

    ONE_RING = "1ring"
    ONE_RING_M = "1ringM"
    TWO_RING = "2ring"
    TWO_RING_M = "2ringM"
    BLONG = "blong"
    BINOMIAL = "binomial"


class SwapVariant(enum.Enum):
    """Row-swapping algorithm (Netlib HPL's ``SWAP`` knob).

    ``LONG`` is the bandwidth-optimal spread-roll formulation (scatterv +
    ring allgatherv -- what the paper describes and rocHPL uses on wide
    sections); ``BINEXCH`` is the latency-optimal binary exchange
    (``log2 P`` rounds); ``MIX`` switches to binary exchange once a
    section is narrower than ``swap_threshold`` columns.
    """

    BINEXCH = "binexch"
    LONG = "long"
    MIX = "mix"


class Schedule(enum.Enum):
    """Which iteration schedule the driver runs.

    ``CLASSIC``      -- fact, bcast, swap, update, strictly in order.
    ``LOOKAHEAD``    -- depth-1 look-ahead (Fig. 3 of the paper).
    ``SPLIT_UPDATE`` -- look-ahead plus the split left/right trailing update
                        that hides row-swap communication (Fig. 6).
    """

    CLASSIC = "classic"
    LOOKAHEAD = "lookahead"
    SPLIT_UPDATE = "split"


@dataclasses.dataclass(frozen=True)
class HPLConfig:
    """Complete description of one HPL run.

    Parameters mirror ``HPL.dat`` where a counterpart exists; rocHPL
    additions are noted.

    Attributes:
        n: Global problem size (the matrix is ``n x n`` plus one RHS column).
        nb: Blocking factor; panels are ``nb`` columns wide.
        p: Process-grid rows.
        q: Process-grid columns.
        pfact: Recursion-leaf panel factorization variant.
        rfact: Recursive panel factorization variant (outer levels).
        ndiv: Number of subdivisions in the recursive factorization.
        nbmin: Recursion stops when a sub-panel is narrower than this.
        bcast: Panel broadcast algorithm.
        swap: Row-swapping algorithm.
        swap_threshold: Section width (columns) below which ``MIX``
            switches from spread-roll to binary exchange (HPL.dat's
            swapping threshold).
        depth: Look-ahead depth (0 = classic; rocHPL uses 1).
        schedule: Iteration schedule (rocHPL addition).
        split_fraction: Fraction of local columns placed in the *right*
            section of the split update (rocHPL's ``--frac``); the paper
            finds 0.5 optimal on a single node.
        fact_threads: CPU threads used by the tiled multi-threaded panel
            factorization (``1`` = serial reference path).
        seed: Seed of the HPL linear-congruential matrix generator.
        row_major_grid: Rank-to-grid ordering (HPL.dat PMAP).
        check: Run the residual verification after the solve.
    """

    n: int
    nb: int
    p: int
    q: int
    pfact: PFactVariant = PFactVariant.RIGHT
    rfact: PFactVariant = PFactVariant.RIGHT
    ndiv: int = 2
    nbmin: int = 16
    bcast: BcastVariant = BcastVariant.ONE_RING_M
    swap: SwapVariant = SwapVariant.LONG
    swap_threshold: int = 64
    depth: int = 1
    schedule: Schedule = Schedule.SPLIT_UPDATE
    split_fraction: float = 0.5
    fact_threads: int = 1
    seed: int = 42
    row_major_grid: bool = True
    check: bool = True

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"n must be positive, got {self.n}")
        if self.nb < 1:
            raise ConfigError(f"nb must be positive, got {self.nb}")
        if self.p < 1 or self.q < 1:
            raise ConfigError(f"grid must be at least 1x1, got {self.p}x{self.q}")
        if self.ndiv < 2:
            raise ConfigError(f"ndiv must be >= 2, got {self.ndiv}")
        if self.nbmin < 1:
            raise ConfigError(f"nbmin must be >= 1, got {self.nbmin}")
        if self.depth not in (0, 1):
            raise ConfigError(f"look-ahead depth must be 0 or 1, got {self.depth}")
        if not 0.0 <= self.split_fraction <= 1.0:
            raise ConfigError(
                f"split_fraction must be in [0, 1], got {self.split_fraction}"
            )
        if self.fact_threads < 1:
            raise ConfigError(f"fact_threads must be >= 1, got {self.fact_threads}")
        if self.swap_threshold < 0:
            raise ConfigError(
                f"swap_threshold must be >= 0, got {self.swap_threshold}"
            )
        if self.schedule is not Schedule.CLASSIC and self.depth == 0:
            raise ConfigError("look-ahead/split schedules require depth=1")

    @property
    def nranks(self) -> int:
        """Total number of MPI ranks in the grid."""
        return self.p * self.q

    @property
    def nblocks(self) -> int:
        """Number of ``nb``-wide panel columns (the iteration count)."""
        return math.ceil(self.n / self.nb)

    @property
    def total_flops(self) -> float:
        """The canonical HPL flop count: ``2/3 n^3 + 3/2 n^2``."""
        return (2.0 / 3.0) * self.n**3 + 1.5 * self.n**2

    def replace(self, **kwargs) -> "HPLConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> dict:
        """JSON-serializable dict of every field (enums by value)."""
        out = {}
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            out[f.name] = v.value if isinstance(v, enum.Enum) else v
        return out

    @classmethod
    def from_dict(cls, data) -> "HPLConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Enum fields accept either the enum member or its value; unknown
        keys, missing required fields and wrongly typed values all
        raise :class:`~repro.errors.ConfigError` (unknown keys are not
        silently dropped, so stale payloads fail loudly).
        """
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = set(data) - set(fields)
        if unknown:
            raise ConfigError(
                f"unknown HPLConfig field(s): {', '.join(sorted(unknown))}"
            )
        enum_types = {
            "pfact": PFactVariant,
            "rfact": PFactVariant,
            "bcast": BcastVariant,
            "swap": SwapVariant,
            "schedule": Schedule,
        }
        kwargs = {}
        for name, value in data.items():
            etype = enum_types.get(name)
            if etype is not None and not isinstance(value, etype):
                try:
                    value = etype(value)
                except ValueError as exc:
                    raise ConfigError(
                        f"invalid {name} value {value!r}"
                    ) from exc
            kwargs[name] = value
        try:
            return cls(**kwargs)
        except TypeError as exc:
            # A required field is missing (the message names it), or a
            # value of the wrong type (``"n": "64"``) broke a range
            # check: for the caller either is a bad config.
            raise ConfigError(f"invalid HPLConfig: {exc}") from None

    def config_key(self) -> str:
        """Stable content hash of this configuration (sha256 hex)."""
        return config_key(self.to_dict())


@dataclasses.dataclass(frozen=True)
class PerfConfig:
    """A benchmark run as the performance simulator sees it.

    Lives here, not under ``repro.perf``, so the service can validate a
    ``sim`` payload at submit without importing numpy.

    Attributes:
        n, nb, p, q: Global problem and grid (as in ``HPLConfig``).
        pl, ql: Node-local grid (rocHPL's launch-wrapper input); determines
            both node placement and the CPU core time-sharing factor.
        schedule: Iteration schedule.
        split_fraction: Right-section fraction for the split update.
        bcast: Panel broadcast algorithm.
        swap: Row-swapping algorithm (LONG / BINEXCH / MIX).
        swap_threshold: MIX's width threshold for binary exchange.
        fact_threads: Override for FACT threads per process; 0 means use
            the Section III.B time-sharing formula ``T = 1 + Cbar / pl``.
    """

    n: int
    nb: int
    p: int
    q: int
    pl: int
    ql: int
    schedule: Schedule = Schedule.SPLIT_UPDATE
    split_fraction: float = 0.5
    bcast: BcastVariant = BcastVariant.ONE_RING_M
    swap: SwapVariant = SwapVariant.LONG
    swap_threshold: int = 64
    fact_threads: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"n must be positive, got {self.n}")
        if self.nb < 1:
            raise ConfigError(f"nb must be positive, got {self.nb}")
        if min(self.p, self.q, self.pl, self.ql) < 1:
            raise ConfigError(
                f"grids must be at least 1x1, got {self.p}x{self.q}"
                f" with node-local {self.pl}x{self.ql}"
            )
        if not 0.0 <= self.split_fraction <= 1.0:
            raise ConfigError(
                f"split_fraction must be in [0, 1], got {self.split_fraction}"
            )
        if self.fact_threads < 0:
            raise ConfigError(
                f"fact_threads must be >= 0 (0 = time-sharing formula),"
                f" got {self.fact_threads}"
            )
        if self.swap_threshold < 0:
            raise ConfigError(
                f"swap_threshold must be >= 0, got {self.swap_threshold}"
            )
        if self.p % self.pl or self.q % self.ql:
            raise ConfigError(
                f"node-local {self.pl}x{self.ql} does not tile {self.p}x{self.q}"
            )

    @property
    def nblocks(self) -> int:
        return math.ceil(self.n / self.nb)

    @property
    def total_flops(self) -> float:
        return (2.0 / 3.0) * self.n**3 + 1.5 * self.n**2
