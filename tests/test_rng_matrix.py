"""The jump-ahead LCG and the distributed matrix generator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.grid import ProcessGrid
from repro.grid.block_cyclic import local_indices
from repro.hpl import rng
from repro.hpl.matrix import DistMatrix, generate_global

from .conftest import spmd


def _sequential_states(seed: int, count: int) -> list[int]:
    x = rng._initial_state(seed)
    out = []
    for _ in range(count):
        out.append(x)
        x = (rng.MULT * x + rng.INCR) & ((1 << 64) - 1)
    return out


def _per_run_oracle(seed, n, nb, rows, cols):
    """The pre-table generator: one stream window per (column, row run).

    Local rows come in globally contiguous runs of at most ``nb``, so each
    (local column, run) pair is one ``random_values`` window.
    """
    out = np.zeros((len(rows), len(cols)), order="F")
    for lc, gc in enumerate(cols):
        lr = 0
        while lr < len(rows):
            grow0 = int(rows[lr])
            run = min(nb - grow0 % nb, len(rows) - lr)
            out[lr : lr + run, lc] = rng.random_values(
                seed, int(gc) * n + grow0, run)
            lr += run
    return out


class TestLCG:
    @given(st.integers(0, 2**32), st.integers(0, 200))
    def test_jump_matches_sequential(self, seed, k):
        seq = _sequential_states(seed, k + 1)
        assert rng.state_at(seed, k) == seq[k]

    @given(st.integers(0, 1000), st.integers(0, 1000))
    def test_jump_composes(self, a, b):
        aa, ca = rng.lcg_jump(a)
        ab, cb = rng.lcg_jump(b)
        aab, cab = rng.lcg_jump(a + b)
        mask = (1 << 64) - 1
        assert (ab * aa) & mask == aab
        assert (ab * ca + cb) & mask == cab

    def test_jump_zero_is_identity(self):
        assert rng.lcg_jump(0) == (1, 0)

    def test_negative_jump_rejected(self):
        with pytest.raises(ValueError):
            rng.lcg_jump(-1)

    @given(st.integers(0, 2**20), st.integers(0, 500), st.integers(0, 64))
    def test_random_values_windows_agree(self, seed, start, count):
        full = rng.random_values(seed, 0, start + count)
        window = rng.random_values(seed, start, count)
        assert np.array_equal(window, full[start:])

    @given(st.integers(0, 2**64 - 1), st.integers(1, 300))
    def test_random_values_match_sequential_states(self, seed, count):
        """The vectorized tables reproduce the one-step recurrence."""
        states = np.array(_sequential_states(seed, count), dtype=np.uint64)
        expect = (states >> np.uint64(11)).astype(np.float64) * 2.0**-53 - 0.5
        assert np.array_equal(rng.random_values(seed, 0, count), expect)

    def test_range_and_distribution(self):
        v = rng.random_values(7, 0, 50_000)
        assert v.min() >= -0.5 and v.max() < 0.5
        assert abs(v.mean()) < 0.01
        assert abs(v.std() - np.sqrt(1 / 12)) < 0.01  # uniform on unit width

    def test_different_seeds_decorrelate(self):
        a = rng.random_values(1, 0, 1000)
        b = rng.random_values(2, 0, 1000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_empty_count(self):
        assert rng.random_values(1, 10, 0).size == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            rng.random_values(1, 0, -1)


class TestDistMatrix:
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 2), (3, 2), (2, 3), (1, 4), (4, 1)])
    @pytest.mark.parametrize("n,nb", [(20, 4), (17, 5), (8, 16)])
    def test_distribution_independent_of_grid(self, p, q, n, nb):
        """Every grid assembles the same global augmented matrix."""
        a_ref, b_ref = generate_global(n, seed=3)

        def main(comm):
            grid = ProcessGrid(comm, p, q)
            mat = DistMatrix(grid, n, nb, seed=3)
            return mat.gather_global()

        full = spmd(p * q, main)[0]
        assert np.array_equal(full[:, :n], a_ref)
        assert np.array_equal(full[:, n], b_ref)

    @given(n=st.integers(1, 200), nb=st.integers(1, 64), p=st.integers(1, 3),
           q=st.integers(1, 3), seed=st.integers(0, 2**63))
    @example(n=5, nb=4, p=3, q=1, seed=0)  # rank 2 owns no rows
    @example(n=5, nb=4, p=1, q=3, seed=0)  # rank 2 owns no columns
    @example(n=3, nb=64, p=2, q=2, seed=9)  # nb > n: one rank owns all
    def test_every_rank_is_the_global_slice(self, n, nb, p, q, seed):
        """Each rank's piece is bit-identical to its slice of the serial
        reference, including ranks with zero local rows or columns."""
        a_ref, b_ref = generate_global(n, seed)
        aug = np.column_stack([a_ref, b_ref])

        def main(comm):
            mat = DistMatrix(ProcessGrid(comm, p, q), n, nb, seed=seed)
            return mat.a, mat.row_pos, mat.col_pos

        for a, rows, cols in spmd(p * q, main):
            assert a.flags["F_CONTIGUOUS"]
            assert np.array_equal(a, aug[np.ix_(rows, cols)])

    @given(n=st.integers(1, 120), nb=st.integers(1, 40), p=st.integers(1, 3),
           q=st.integers(1, 3), data=st.data())
    def test_local_block_matches_per_run_windows(self, n, nb, p, q, data):
        """``local_block`` equals the per-run ``random_values`` walk."""
        seed = data.draw(st.integers(0, 2**64 - 1))
        rows = local_indices(n, nb, data.draw(st.integers(0, p - 1)), p)
        cols = local_indices(n + 1, nb, data.draw(st.integers(0, q - 1)), q)
        got = rng.local_block(seed, n, rows, cols)
        assert got.shape == (len(rows), len(cols))
        assert np.array_equal(got, _per_run_oracle(seed, n, nb, rows, cols))

    def test_local_shapes(self):
        def main(comm):
            grid = ProcessGrid(comm, 2, 3)
            mat = DistMatrix(grid, 20, 4, seed=1)
            return (mat.a.shape, len(mat.row_pos), len(mat.col_pos))

        out = spmd(6, main)
        total_cells = sum(s[0] * s[1] for s, _, _ in out)
        assert total_cells == 20 * 21
        for shape, nrows, ncols in out:
            assert shape == (nrows, ncols)

    def test_fortran_order(self):
        def main(comm):
            grid = ProcessGrid(comm, 1, 1)
            mat = DistMatrix(grid, 8, 4)
            return mat.a.flags["F_CONTIGUOUS"]

        assert spmd(1, main)[0]

    def test_index_helpers(self):
        def main(comm):
            grid = ProcessGrid(comm, 2, 1)
            mat = DistMatrix(grid, 16, 4)
            # rank 0 owns rows 0-3 and 8-11; rank 1 owns 4-7 and 12-15
            if grid.myrow == 0:
                return (mat.local_row_of(8), mat.local_rows_from(5), mat.mloc)
            return (mat.local_row_of(12), mat.local_rows_from(5), mat.mloc)

        out = spmd(2, main)
        assert out[0] == (4, 4, 8)
        assert out[1] == (4, 1, 8)

    def test_seed_changes_matrix(self):
        a1, _ = generate_global(12, 1)
        a2, _ = generate_global(12, 2)
        assert not np.allclose(a1, a2)

    def test_validation(self):
        def main(comm):
            grid = ProcessGrid(comm, 1, 1)
            with pytest.raises(ValueError):
                DistMatrix(grid, 0, 4)
            with pytest.raises(ValueError):
                DistMatrix(grid, 4, 0)

        spmd(1, main)

    def test_matrix_well_conditioned_enough(self):
        """HPL random matrices must be solvable; sanity-check conditioning."""
        a, _ = generate_global(64, 42)
        assert np.linalg.cond(a) < 1e6
