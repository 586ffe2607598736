"""Exact linear algebra: dense RREF helpers and the sparse reducer."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from yangkit import linalg
from yangkit.freealg import NCPoly
from yangkit.yangian import closure, normal_form, rtt_relations

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


class _FractionReducer:
    """Plain-Fraction reference: pivots normalized to 1, every basis row
    scanned on each insert."""

    def __init__(self):
        self.basis = {}

    def reduce(self, row):
        r = {j: F(c) for j, c in row.items() if c}
        for p, b in self.basis.items():
            c = r.get(p)
            if c:
                for j, bj in b.items():
                    nv = r.get(j, F(0)) - c * bj
                    if nv:
                        r[j] = nv
                    else:
                        r.pop(j, None)
        return r

    def add(self, row):
        r = self.reduce(row)
        if not r:
            return None
        piv = min(r)
        r = {j: c / r[piv] for j, c in r.items()}
        for b in self.basis.values():
            c = b.get(piv)
            if c:
                for j, rj in r.items():
                    nv = b.get(j, F(0)) - c * rj
                    if nv:
                        b[j] = nv
                    else:
                        b.pop(j, None)
        self.basis[piv] = r
        return piv


_rationals = st.builds(F, st.integers(-1000, 1000).filter(bool),
                       st.integers(1, 12))


def _cleared(row, factor):
    """``factor`` times row, scaled to integer entries."""
    den = math.lcm(*[c.denominator for c in row.values()] or [1])
    return {j: int(c * den) * factor for j, c in row.items()}


@st.composite
def _rational_row_sequences(draw):
    """Rational rows (denominators up to 12, numerators up to 10^3), some
    of them combinations of earlier rows, cancellations of one entry, or
    integer multiples of an earlier row; plus rational and integer query
    rows."""
    ncols = draw(st.integers(2, 8))
    cols = st.integers(0, ncols - 1)

    def fresh():
        return {j: draw(_rationals) for j in draw(
            st.lists(cols, min_size=1, max_size=ncols, unique=True))}

    rows = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(
            ["fresh", "combination", "cancel", "integer"]))
        if kind == "fresh" or not rows:
            row = fresh()
        elif kind == "integer":
            row = _cleared(draw(st.sampled_from(rows)),
                           draw(st.integers(-6, 6).filter(bool)))
        else:
            row = {}
            for prev in draw(st.lists(st.sampled_from(rows), min_size=1,
                                      max_size=3)):
                c = draw(_rationals)
                for j, v in prev.items():
                    row[j] = row.get(j, F(0)) + c * v
            if kind == "cancel":
                # cancel one entry of the combination against an earlier row
                prev = draw(st.sampled_from(rows))
                common = sorted(j for j in prev if row.get(j))
                if common:
                    j = draw(st.sampled_from(common))
                    m = row[j] / prev[j]
                    for i, v in prev.items():
                        row[i] = row.get(i, F(0)) - m * v
        rows.append({j: c for j, c in row.items() if c})
    queries = [fresh() for _ in range(draw(st.integers(0, 3)))]
    queries += [_cleared(q, draw(st.integers(1, 30))) for q in queries]
    return ncols, rows, queries


@settings(max_examples=300, deadline=None)
@given(_rational_row_sequences())
def test_integer_rows_match_fraction_reference(case):
    ncols, rows, queries = case
    red = linalg.SparseReducer()
    ref = _FractionReducer()
    for k, row in enumerate(rows):
        assert red.add_return_pivot(dict(row)) == ref.add(row)
        dense = [[row_.get(j, F(0)) for j in range(ncols)]
                 for row_ in rows[:k + 1]]
        ref_rows, ref_pivots = linalg.rref(dense, ncols)
        assert red.basis == {
            p: {j: c for j, c in enumerate(b) if c}
            for b, p in zip(ref_rows, ref_pivots)}
        for p, b in red.rows.items():
            assert all(type(c) is int for c in b.values())
            assert b[p] > 0
            assert math.gcd(*b.values()) == 1
            assert not any(q in b for q in red.rows if q != p)
        for q in rows[:k + 1] + [_cleared(r, 7) for r in rows[:k + 1]] \
                + queries:
            exact = red.reduce(q)
            assert exact == ref.reduce(q)
            # the insert path: a positive int multiple, same key order
            scaled = red.reduce(q, scaled=True)
            assert all(type(c) is int for c in scaled.values())
            assert list(scaled) == list(exact)
            if exact:
                j0 = next(iter(exact))
                lam = F(scaled[j0]) / exact[j0]
                assert lam > 0
                assert scaled == {j: lam * c for j, c in exact.items()}


class _FractionSpy:
    """Counts every Fraction the code under test constructs."""

    def __init__(self, monkeypatch):
        self.made = 0
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            self.made += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        # Python 3.12+ builds arithmetic results without __new__
        made_from = getattr(Fraction, "_from_coprime_ints", None)
        if made_from is not None:
            def counting_from(cls, *args):
                self.made += 1
                return made_from(*args)

            monkeypatch.setattr(Fraction, "_from_coprime_ints",
                                classmethod(counting_from))


class TestInsertPath:
    """Inserts run fraction-free and reach ``reduce`` once each."""

    SEEDS = [{0: F(2, 3), 1: F(1, 2), 3: F(5, 7)},
             {1: F(3, 4), 2: F(-5, 6), 3: F(1, 5)},
             {0: 6, 2: 9, 4: -4},
             {2: 10, 3: 4, 4: 15}]

    def _rows(self):
        """The seed rows, then dependent Fraction and int combinations."""
        a, b = self.SEEDS[:2]
        combo = {j: 2 * a.get(j, 0) - b.get(j, 0) for j in {**a, **b}}
        combo = {j: c for j, c in combo.items() if c}
        return [dict(row) for row in self.SEEDS] + [combo,
                                                    _cleared(combo, -3)]

    @staticmethod
    def _insert_all(red, rows):
        return [red.add(row) if k % 2 else red.add_return_pivot(row)
                for k, row in enumerate(rows)]

    @staticmethod
    def _non_unit_pivots():
        red = linalg.SparseReducer()
        red.add({0: 3, 1: 5})
        red.add({1: 2, 3: 7})
        return red

    def test_no_fraction_is_made(self, monkeypatch):
        twin = self._non_unit_pivots()
        want = self._insert_all(twin, self._rows())
        red = self._non_unit_pivots()
        probe = self._non_unit_pivots()
        assert all(b[p] > 1 for p, b in red.rows.items())
        rows = self._rows()
        spy = _FractionSpy(monkeypatch)
        got = self._insert_all(red, rows)
        assert spy.made == 0
        # a query still answers in Fractions, and the spy sees them
        resid = probe.reduce({0: 1, 1: 1})
        assert spy.made > 0
        monkeypatch.undo()
        assert got == want and None in got and False in got
        assert red.rows == twin.rows
        for b in red.rows.values():
            assert all(type(c) is int for c in b.values())
        assert resid and all(type(c) is F for c in resid.values())

    def test_one_reduce_per_insert(self, monkeypatch):
        calls = []
        reduce = linalg.SparseReducer.reduce

        def spy(self, row, *args, **kwargs):
            calls.append(kwargs.get("scaled", args[0] if args else False))
            return reduce(self, row, *args, **kwargs)

        monkeypatch.setattr(linalg.SparseReducer, "reduce", spy)
        red = self._non_unit_pivots()
        for row in self._rows():
            for insert in (red.add_return_pivot, red.add):
                before = len(calls)
                insert(dict(row))
                assert calls[before:] == [True]
        red.reduce({0: 1})
        assert calls[-1] is False
        # a closure: one reduce per insert, whether it enlarges the span
        inserts = []
        add_return_pivot = linalg.SparseReducer.add_return_pivot

        def count_insert(self, row):
            inserts.append(row)
            return add_return_pivot(self, row)

        monkeypatch.setattr(linalg.SparseReducer, "add_return_pivot",
                            count_insert)
        pres = rtt_relations("sl", 2, 2)
        calls.clear()
        cl = closure(pres, 2, 3)
        assert cl.rank < len(inserts) == len(calls)
        assert all(calls)


class TestFractionContract:
    """Every number the library returns is a Fraction, whatever the row
    scale the reducer stores internally."""

    def test_basis_values(self):
        red = linalg.SparseReducer()
        red.add({0: F(2), 1: F(3)})
        red.add({1: F(4), 2: F(6)})
        # back-substitution: 2 * (2, 3, 0) - 3 * (0, 2, 3)
        assert red.rows == {0: {0: 4, 2: -9}, 1: {1: 2, 2: 3}}
        assert red.basis == {0: {0: F(1), 2: F(-9, 4)},
                             1: {1: F(1), 2: F(3, 2)}}
        for b in red.basis.values():
            assert all(isinstance(c, Fraction) for c in b.values())

    def test_integral_fraction_multiplier(self):
        red = linalg.SparseReducer()
        red.add({0: F(2), 1: F(1)})
        assert red.rows == {0: {0: 2, 1: 1}}
        # multiplier F(4) / 2 is integral, yet the residual stays Fraction
        resid = red.reduce({0: F(4), 1: F(1), 2: F(1)})
        assert resid == {1: F(-1), 2: F(1)}
        assert all(type(c) is Fraction for c in resid.values())

    def test_normal_form_coefficients(self):
        cl = closure(rtt_relations("so", 3, 3), 2, 3)
        assert any(b[p] != 1 for p, b in cl.reducer.rows.items())
        a = NCPoly.gen(1, 2, 1)
        b = NCPoly.gen(2, 3, 2)
        for p in (a * b, 3 * (a * b) - 2 * (b * a), b * a * F(1, 2)):
            nf = normal_form(cl, p)
            assert nf.terms
            assert all(type(c) is Fraction for c in nf.terms.values())
