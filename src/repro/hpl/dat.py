"""HPL.dat compatibility: parse Netlib HPL input files into run configs.

rocHPL keeps Netlib HPL's input format, so a user's existing ``HPL.dat``
drives this reproduction too.  The file is a fixed sequence of lines --
value(s) first, free-text description after -- selecting cross products of
problem sizes, blocking factors, grids and algorithm variants.

Lines we map directly: N / NB / PMAP / grids / threshold / PFACT / NBMIN /
NDIV / RFACT / BCAST / DEPTH / SWAP (+ threshold).  The trailing storage
knobs (L1/U transposition, equilibration, alignment) are parsed and
recorded but have no numeric effect here (our storage layout is fixed
column-major, like rocHPL's device layout).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..config import BcastVariant, HPLConfig, PFactVariant, Schedule, SwapVariant
from ..errors import ConfigError

_PFACT_CODES = {0: PFactVariant.LEFT, 1: PFactVariant.CROUT, 2: PFactVariant.RIGHT}
_BCAST_CODES = {
    0: BcastVariant.ONE_RING,
    1: BcastVariant.ONE_RING_M,
    2: BcastVariant.TWO_RING,
    3: BcastVariant.TWO_RING_M,
    4: BcastVariant.BLONG,
    5: BcastVariant.BLONG,  # LnM: modified long; modeled as BLONG
}
_SWAP_CODES = {0: SwapVariant.BINEXCH, 1: SwapVariant.LONG, 2: SwapVariant.MIX}


@dataclass
class HPLDat:
    """The parsed contents of an HPL.dat file."""

    output_file: str = "HPL.out"
    device_out: int = 6
    ns: list[int] = field(default_factory=lambda: [1000])
    nbs: list[int] = field(default_factory=lambda: [64])
    row_major: bool = True
    grids: list[tuple[int, int]] = field(default_factory=lambda: [(1, 1)])
    threshold: float = 16.0
    pfacts: list[PFactVariant] = field(default_factory=lambda: [PFactVariant.RIGHT])
    nbmins: list[int] = field(default_factory=lambda: [16])
    ndivs: list[int] = field(default_factory=lambda: [2])
    rfacts: list[PFactVariant] = field(default_factory=lambda: [PFactVariant.RIGHT])
    bcasts: list[BcastVariant] = field(default_factory=lambda: [BcastVariant.ONE_RING_M])
    depths: list[int] = field(default_factory=lambda: [1])
    swap: SwapVariant = SwapVariant.MIX
    swap_threshold: int = 64
    l1_transposed: bool = True
    u_transposed: bool = True
    equilibration: bool = True
    alignment: int = 8

    def configs(self, **overrides) -> Iterator[HPLConfig]:
        """Expand the cross product into :class:`HPLConfig` objects.

        The depths select the schedule only: 0 maps to classic, >= 1 to
        rocHPL's split-update schedule (the overlap family the paper
        describes).
        """
        for n in self.ns:
            for nb in self.nbs:
                for p, q in self.grids:
                    for pfact in self.pfacts:
                        for rfact in self.rfacts:
                            for nbmin in self.nbmins:
                                for ndiv in self.ndivs:
                                    for bcast in self.bcasts:
                                        for depth in self.depths:
                                            kwargs = dict(
                                                n=n,
                                                nb=nb,
                                                p=p,
                                                q=q,
                                                pfact=pfact,
                                                rfact=rfact,
                                                nbmin=nbmin,
                                                ndiv=ndiv,
                                                bcast=bcast,
                                                schedule=(
                                                    Schedule.CLASSIC
                                                    if depth == 0
                                                    else Schedule.SPLIT_UPDATE
                                                ),
                                                swap=self.swap,
                                                swap_threshold=self.swap_threshold,
                                                row_major_grid=self.row_major,
                                            )
                                            kwargs.update(overrides)
                                            yield HPLConfig(**kwargs)


class _LineReader:
    """Sequential reader over the data lines of an HPL.dat file."""

    def __init__(self, text: str):
        # the first two lines are free-text banner
        self.lines = text.splitlines()
        if len(self.lines) < 3:
            raise ConfigError("HPL.dat too short: missing header lines")
        self.pos = 2

    def _next(self) -> str:
        if self.pos >= len(self.lines):
            raise ConfigError(
                f"HPL.dat truncated at line {self.pos + 1}: expected more fields"
            )
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def str_field(self) -> str:
        return self._next().split()[0]

    def int_field(self) -> int:
        return int(self.str_field())

    def float_field(self) -> float:
        return float(self.str_field())

    def int_list(self, count: int) -> list[int]:
        values = self._next().split()
        out = []
        for v in values[:count]:
            try:
                out.append(int(v))
            except ValueError:
                break
        if len(out) < count:
            raise ConfigError(
                f"HPL.dat line {self.pos}: expected {count} integers, got {len(out)}"
            )
        return out


def _decode(codes: dict, raw: list[int], what: str) -> list:
    out = []
    for code in raw:
        if code not in codes:
            raise ConfigError(f"HPL.dat: unknown {what} code {code}")
        out.append(codes[code])
    return out


def parse_hpl_dat(text: str) -> HPLDat:
    """Parse the contents of an HPL.dat file.

    Raises:
        ConfigError: on truncated files, bad counts, or unknown codes.
    """
    r = _LineReader(text)
    dat = HPLDat()
    dat.output_file = r.str_field()
    dat.device_out = r.int_field()
    dat.ns = r.int_list(r.int_field())
    dat.nbs = r.int_list(r.int_field())
    dat.row_major = r.int_field() == 0
    ngrids = r.int_field()
    ps = r.int_list(ngrids)
    qs = r.int_list(ngrids)
    dat.grids = list(zip(ps, qs))
    dat.threshold = r.float_field()
    dat.pfacts = _decode(_PFACT_CODES, r.int_list(r.int_field()), "PFACT")
    dat.nbmins = r.int_list(r.int_field())
    dat.ndivs = r.int_list(r.int_field())
    dat.rfacts = _decode(_PFACT_CODES, r.int_list(r.int_field()), "RFACT")
    dat.bcasts = _decode(_BCAST_CODES, r.int_list(r.int_field()), "BCAST")
    dat.depths = r.int_list(r.int_field())
    dat.swap = _SWAP_CODES.get(r.int_field(), SwapVariant.MIX)
    dat.swap_threshold = r.int_field()
    # trailing storage knobs: parsed for fidelity, numerically inert here
    try:
        dat.l1_transposed = r.int_field() == 0
        dat.u_transposed = r.int_field() == 0
        dat.equilibration = r.int_field() == 1
        dat.alignment = r.int_field()
    except ConfigError:
        pass  # older files omit them
    return dat


_PFACT_LETTER = {PFactVariant.LEFT: "L", PFactVariant.CROUT: "C", PFactVariant.RIGHT: "R"}
_BCAST_DIGIT = {
    BcastVariant.ONE_RING: "0",
    BcastVariant.ONE_RING_M: "1",
    BcastVariant.TWO_RING: "2",
    BcastVariant.TWO_RING_M: "3",
    BcastVariant.BLONG: "4",
    BcastVariant.BINOMIAL: "5",
}


def encode_tv(cfg: HPLConfig) -> str:
    """The T/V column string for a run, HPL-style.

    ``W`` (wall time) + depth + bcast code + recursion spec, e.g.
    ``W11R2R16`` for depth 1, 1ringM, right-recursing NDIV=2,
    right-looking leaves of NBMIN=16.
    """
    return (
        f"W{cfg.depth}{_BCAST_DIGIT[cfg.bcast]}"
        f"{_PFACT_LETTER[cfg.rfact]}{cfg.ndiv}"
        f"{_PFACT_LETTER[cfg.pfact]}{cfg.nbmin}"
    )
