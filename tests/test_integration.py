"""Cross-layer integration: the numeric engine and the performance
simulator must describe the same algorithm.

The performance figures stand on the analytic ledger; these tests pin the
section extents it prices and its schedule structure to what every rank's
*executed tasks* did in the numeric engine at small sizes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import HPLConfig, Schedule
from repro.grid import ProcessGrid
from repro.grid.block_cyclic import (
    MODE_NAMES,
    num_local_before,
    numroc,
    section_extents,
)
from repro.hpl.driver import factorize
from repro.hpl.matrix import DistMatrix
from repro.perf import PerfConfig, run_sizes

from .conftest import spmd


def _run_numeric(cfg: HPLConfig):
    def main(comm):
        grid = ProcessGrid(comm, cfg.p, cfg.q)
        mat = DistMatrix(grid, cfg.n, cfg.nb, seed=cfg.seed)
        result = factorize(mat, cfg)
        return (grid.myrow, grid.mycol), result

    return dict(spmd(cfg.nranks, main))


#: The section each update task covers, by its name's middle part
#: (``dtrsm.k`` / ``dgemm.k`` is classic's one section, ``left``).
_SECTION = {"la": "la", "rest": "left", "left": "left", "right": "right", "": "left"}

def _iteration_sum(result, k: int, label: str, field: str) -> float:
    """Sum ``field`` over the tasks ``result`` executed in iteration ``k``
    under ``label``."""
    return sum(getattr(t, field) for t in result.tasks
               if t.tag == k and t.phase == label)


class TestLedgerAgainstMeasurement:
    """The priced ledger (:func:`run_sizes`, the focal rank's widths) against
    the focal rank's executed tasks; the per-rank property below holds the
    driver to ``section_extents``, these hold ``run_sizes``' own columns."""

    @pytest.mark.parametrize(
        "sched", [Schedule.SPLIT_UPDATE, Schedule.LOOKAHEAD, Schedule.CLASSIC]
    )
    def test_update_flops_per_iteration(self, sched):
        """Measured UPDATE flops at the focal rank == the analytic sizes'
        ``sum_sections(jb^2 w + 2 m w jb)`` -- the exact quantities the
        performance model prices."""
        n, nb, p, q = 64, 8, 2, 2
        cfg = HPLConfig(n=n, nb=nb, p=p, q=q, schedule=sched)
        pcfg = PerfConfig(n=n, nb=nb, p=p, q=q, pl=p, ql=q, schedule=sched)
        by_coords = _run_numeric(cfg)

        sz = run_sizes(pcfg)
        for k in range(cfg.nblocks):
            jb = int(sz.jb[k])
            r_f = ((k + 1) % p) if sz.jb_next[k] else (k % p)
            focal = by_coords[(r_f, sz.c_f[k])]
            measured = _iteration_sum(focal, k, "UPDATE", "flops")
            expected = 0.0
            for w in (int(sz.w_la[k]), int(sz.w_left[k]), int(sz.w_right[k])):
                expected += jb * jb * w  # DTRSM on U
                expected += 2.0 * int(sz.m_update[k]) * w * jb  # DGEMM
            assert measured == pytest.approx(expected, rel=1e-12), (sched, k)

    def test_split_mode_sequence_matches_ledger(self):
        """The numeric driver transitions split -> lookahead on exactly the
        iteration the performance ledger predicts, per process column."""
        n, nb, p, q = 96, 8, 2, 2
        cfg = HPLConfig(n=n, nb=nb, p=p, q=q)
        pcfg = PerfConfig(n=n, nb=nb, p=p, q=q, pl=p, ql=q)
        by_coords = _run_numeric(cfg)
        sz = run_sizes(pcfg)
        for k in range(cfg.nblocks):
            r_f = ((k + 1) % p) if sz.jb_next[k] else (k % p)
            numeric_mode = by_coords[(r_f, sz.c_f[k])].modes[k]
            assert numeric_mode == MODE_NAMES[sz.mode[k]], k

    def test_transfer_bytes_match_ledger_m_fact(self):
        """The driver's synthetic D2H bytes equal the ledger's panel-move
        size for the same iteration and rank."""
        n, nb, p, q = 48, 8, 2, 2
        cfg = HPLConfig(n=n, nb=nb, p=p, q=q, schedule=Schedule.CLASSIC)
        by_coords = _run_numeric(cfg)
        for k in range(cfg.nblocks):
            pcol = k % q
            jb = min(nb, n - k * nb)
            for row in range(p):
                d2h = sum(t.nbytes for t in by_coords[(row, pcol)].tasks
                          if t.tag == k and t.name.startswith("d2h."))
                rows = numroc(n, nb, row, p) - num_local_before(k * nb, nb, row, p)
                assert d2h == 8.0 * rows * jb

    def test_fact_flops_concentrated_in_owner_column(self):
        """Only ranks in the factoring column burn FACT flops."""
        cfg = HPLConfig(n=32, nb=8, p=2, q=2, schedule=Schedule.CLASSIC)
        by_coords = _run_numeric(cfg)
        for (row, col), result in by_coords.items():
            for k in range(cfg.nblocks):
                if _iteration_sum(result, k, "FACT", "flops") > 0:
                    assert col == k % 2


class TestEveryRankAgainstItsExtents:
    @settings(max_examples=60)
    @given(
        n=st.integers(1, 160),
        nb=st.sampled_from([8, 16, 32]),
        p=st.integers(1, 3),
        q=st.integers(1, 3),
        sched=st.sampled_from(list(Schedule)),
        frac=st.floats(0.0, 1.0),
    )
    def test_every_task_matches_its_ranks_extents(self, n, nb, p, q, sched, frac):
        """Every task each rank executed did the work its own rows of
        ``section_extents`` -- the function the performance ledger prices
        the focal rank from -- say it covers: DTRSM ``jb^2 w`` and DGEMM
        ``2 m_update w jb`` flops on its section's width ``w``, FACT flops
        only on the panel's owning column, ``8 rows jb`` bytes each way
        around FACT, and no flop or byte anywhere else."""
        cfg = HPLConfig(n=n, nb=nb, p=p, q=q, schedule=sched, split_fraction=frac)
        classic = sched is Schedule.CLASSIC
        for (row, col), result in _run_numeric(cfg).items():
            # Entry i is iteration i - 1; entry 0 places panel 0.
            ext = section_extents(
                n, nb, p, q, sched, frac, np.arange(-1, cfg.nblocks), row, col
            )
            lo, la_hi, sp, nloc, m_update = (
                a.tolist() for a in
                (ext.lo, ext.la_hi, ext.sp, ext.nloc_aug, ext.m_update)
            )
            modes = [MODE_NAMES[m] for m in ext.mode.tolist()]
            assert result.modes == modes[1:]
            for t in result.tasks:
                kind, *mid, tag = t.name.split(".")
                k, i = int(tag), int(tag) + 1
                jb = min(nb, n - k * nb)
                if kind in ("dtrsm", "dgemm"):
                    w = {
                        "la": la_hi[i] - lo[i],
                        "left": (sp[i] if modes[i] == "split" else nloc[i]) - la_hi[i],
                        "right": nloc[i] - sp[i],
                    }[_SECTION[mid[0] if mid else ""]]
                    want = jb * jb * w if kind == "dtrsm" else 2 * m_update[i] * w * jb
                    assert (t.flops, t.nbytes) == (want, 0), t.name
                    continue
                panel = k if classic else k + 1  # the panel a fact chain moves
                owner = panel < cfg.nblocks and col == panel % q
                if kind in ("d2h", "h2d"):
                    jb_p = min(nb, n - panel * nb)
                    want = 8 * m_update[panel] * jb_p if owner else 0
                    assert (t.flops, t.nbytes) == (0, want), t.name
                elif kind == "fact":
                    assert t.nbytes == 0 and (owner or t.flops == 0), t.name
                else:  # rs* and lbcast: communication only
                    assert (t.flops, t.nbytes) == (0, 0), t.name


class TestNumericPerfConsistency:
    def test_total_flops_near_hpl_formula(self):
        """Summed DGEMM+DTRSM+FACT flops across ranks come out near
        2/3 n^3 (the duplicated DTRSM and the RHS column add the excess)."""
        cfg = HPLConfig(n=64, nb=8, p=2, q=2, schedule=Schedule.CLASSIC)
        by_coords = _run_numeric(cfg)
        total = 0.0
        for result in by_coords.values():
            for label in ("FACT", "UPDATE"):
                total += result.timers.total(label).flops
        lower = 2 / 3 * cfg.n**3
        assert lower < total < 1.35 * lower

    def test_mode_sequences_identical_across_rows(self):
        """Within a process column every row sees the same split point."""
        cfg = HPLConfig(n=64, nb=8, p=3, q=2)
        by_coords = _run_numeric(cfg)
        for col in range(2):
            seqs = {tuple(by_coords[(r, col)].modes) for r in range(3)}
            assert len(seqs) == 1
