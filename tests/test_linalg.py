"""Exact linear algebra: dense RREF helpers and the sparse reducer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from yangkit import linalg

F = Fraction


class TestDense:
    def test_rank(self):
        rows = [[F(1), F(2)], [F(2), F(4)], [F(0), F(1)]]
        assert linalg.rank(rows, 2) == 2

    def test_nullspace(self):
        rows = [[F(1), F(1), F(0)], [F(0), F(1), F(1)]]
        (v,) = linalg.nullspace(rows, 3)
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0

    def test_solve(self):
        rows = [[F(2), F(1)], [F(1), F(3)]]
        x = linalg.solve(rows, [F(5), F(10)], 2)
        assert [sum(a * b for a, b in zip(r, x)) for r in rows] == \
            [F(5), F(10)]
        assert linalg.solve([[F(1), F(1)], [F(1), F(1)]],
                            [F(0), F(1)], 2) is None

    def test_invert(self):
        m = [[F(1), F(2)], [F(3), F(4)]]
        inv = linalg.invert(m)
        prod = [[sum(m[i][k] * inv[k][j] for k in range(2))
                 for j in range(2)] for i in range(2)]
        assert prod == [[F(1), F(0)], [F(0), F(1)]]
        with pytest.raises(ValueError):
            linalg.invert([[F(1), F(2)], [F(2), F(4)]])


class TestSparseReducer:
    def test_rank_and_membership(self):
        red = linalg.SparseReducer()
        assert red.add({0: F(1), 1: F(2)})
        assert red.add({1: F(1), 2: F(1)})
        # dependent row does not enlarge the span
        assert not red.add({0: F(2), 1: F(6), 2: F(2)})
        assert red.rank == 2
        # residual of a member is empty
        assert not red.reduce({0: F(1), 1: F(3), 2: F(1)})
        assert red.reduce({2: F(1)})

    def test_basis_stays_reduced(self):
        red = linalg.SparseReducer()
        red.add({0: F(1), 1: F(1)})
        red.add({1: F(1), 2: F(1)})
        for piv, row in red.basis.items():
            assert row[piv] == F(1)
            for other in red.basis:
                if other != piv:
                    assert other not in row

    def test_add_return_pivot(self):
        red = linalg.SparseReducer()
        piv = red.add_return_pivot({3: F(2), 5: F(4)})
        assert piv == 3
        assert red.basis[3] == {3: F(1), 5: F(2)}
        assert red.add_return_pivot({3: F(1), 5: F(2)}) is None

    def test_stale_index_entry_is_skipped(self):
        red = linalg.SparseReducer()
        red.add({0: F(1), 1: F(1), 2: F(1)})
        # back-substituting pivot 1 cancels column 2 out of the row of pivot 0
        assert red.add_return_pivot({1: F(1), 2: F(1)}) == 1
        assert red.basis[0] == {0: F(1)}
        # pivot 2 must reach the row of pivot 1 and skip the row of pivot 0
        assert red.add_return_pivot({2: F(1), 3: F(1)}) == 2
        assert red.basis == {0: {0: F(1)}, 1: {1: F(1), 3: F(-1)},
                             2: {2: F(1), 3: F(1)}}


_coeffs = st.integers(-2, 2).map(F) | st.sampled_from([F(1, 2), F(-2, 3)])


@st.composite
def _row_sequences(draw):
    """Sparse rows over few columns with small coefficients, so that rows
    depend on earlier ones and back-substitution cancels entries."""
    ncols = draw(st.integers(2, 7))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["fresh", "combination", "perturbed"]))
        if kind == "fresh" or not rows:
            cols = draw(st.lists(st.integers(0, ncols - 1), min_size=1,
                                 max_size=ncols, unique=True))
            row = {j: draw(_coeffs) for j in cols}
        else:
            row = {}
            for prev in draw(st.lists(st.sampled_from(rows), min_size=1,
                                      max_size=3)):
                c = draw(_coeffs)
                for j, v in prev.items():
                    row[j] = row.get(j, F(0)) + c * v
            if kind == "perturbed":
                j = draw(st.integers(0, ncols - 1))
                row[j] = row.get(j, F(0)) + draw(_coeffs)
        rows.append(row)
    return ncols, rows


@settings(max_examples=200, deadline=None)
@given(_row_sequences())
def test_sparse_reducer_matches_dense_rref(case):
    ncols, rows = case
    by_add = linalg.SparseReducer()
    by_pivot = linalg.SparseReducer()
    for k, row in enumerate(rows):
        enlarged = by_add.add(dict(row))
        piv = by_pivot.add_return_pivot(dict(row))
        assert enlarged == (piv is not None)
        assert by_add.basis == by_pivot.basis
        dense = [[row_.get(j, F(0)) for j in range(ncols)]
                 for row_ in rows[:k + 1]]
        ref_rows, ref_pivots = linalg.rref(dense, ncols)
        assert by_pivot.basis == {
            p: {j: c for j, c in enumerate(b) if c}
            for b, p in zip(ref_rows, ref_pivots)}
        for p, b in by_pivot.basis.items():
            assert b[p] == 1
            assert not any(q in b for q in by_pivot.basis if q != p)
        for prev in rows[:k + 1]:
            assert by_pivot.reduce(prev) == {}
