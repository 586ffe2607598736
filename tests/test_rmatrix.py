"""R-matrix layer: QYBE certification, unitarity scalars, and the
order-by-order intertwiner solver."""

import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from yangkit import rmatrix
from yangkit.cli import _perturbed_r
from yangkit.exact import (PoleError, RationalFunction, poly_divmod,
                           poly_gcd, poly_mul)
from yangkit.liealg import build_lie, frac_matmul, vector_rep
from yangkit.rmatrix import (
    RMat,
    UnitarityFailure,
    check_qybe,
    check_unitarity,
    closed_form_r,
    expansion_check,
    proportional_to,
    solve_intertwiner,
    sosp_r,
    yang_r,
)

F = Fraction


class TestQYBE:
    @pytest.mark.parametrize("N", [2, 3])
    def test_yang(self, N):
        assert check_qybe(yang_r(N))

    @pytest.mark.parametrize("family,N", [("so", 3), ("sp", 2)])
    def test_sosp(self, family, N):
        assert check_qybe(sosp_r(family, N))

    def test_genuine_non_solution_fails(self):
        R = yang_r(2)
        ent = R.entries.copy()
        # adding u^{-2} to one diagonal entry breaks the ternary identity
        ent[0, 0] = ent[0, 0] + RationalFunction((F(1),),
                                                 (F(0), F(0), F(1)))
        assert not check_qybe(RMat(ent, 2))

    def test_leg_factors_built_once(self, monkeypatch):
        built = []
        real = rmatrix._leg

        def spy(m, N, leg):
            built.append(leg)
            return real(m, N, leg)

        monkeypatch.setattr(rmatrix, "_leg", spy)
        assert check_qybe(yang_r(2))
        # grid u in {1, 2, 3}, v in {67, 68, 69}: three R13(u), three
        # R23(v) and five R12(u - v) for u - v in -68..-64
        assert sorted(built) == ["12"] * 5 + ["13"] * 3 + ["23"] * 3


class TestQYBEFloatRoute:
    """N = 4: the V^(x)3 products are 64 x 64, above the float64 cut-over
    of safe_matmul."""

    @pytest.fixture
    def products(self, monkeypatch, float_casts):
        calls = []
        real = rmatrix.safe_matmul

        def spy(a, b):
            calls.append((a.shape[1], a.dtype, b.dtype))
            return real(a, b)

        monkeypatch.setattr(rmatrix, "safe_matmul", spy)
        return calls, float_casts

    @pytest.mark.parametrize("family", ["sl", "so", "sp"])
    def test_closed_form_and_controls(self, family, products):
        calls, float_casts = products
        R = yang_r(4) if family == "sl" else sosp_r(family, 4)
        assert check_qybe(R)
        assert calls and all(n == 64 and a == b == np.int64
                             for n, a, b in calls)
        # every product of the grid took the float64 route
        assert float_casts.casts == 2 * len(calls)
        for seed in range(6):
            bad, _entry, _c = _perturbed_r(R, random.Random(seed))
            assert not check_qybe(bad)


class TestUnitarity:
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_yang_scalar(self, N):
        f = check_unitarity(yang_r(N))
        # 1 - u^{-2} = (u^2 - 1)/u^2
        assert f == RationalFunction((F(-1), F(0), F(1)),
                                     (F(0), F(0), F(1)))

    @pytest.mark.parametrize("family,N", [("so", 3), ("sp", 4)])
    def test_sosp_scalar(self, family, N):
        f = check_unitarity(sosp_r(family, N))
        for u in (F(5), F(7, 2)):
            assert f(u) == f(-u)   # the scalar is even in u
        assert f(F(10 ** 6)) != 0


class TestPlantedDefects:
    """The seeded u^{-2} bump of the QYBE negative control breaks
    unitarity and the expansion check too, for every seed."""

    @pytest.mark.parametrize("family,N",
                             [("sl", 2), ("sl", 3), ("so", 3), ("sp", 4)])
    def test_perturbed_r_fails(self, family, N):
        R = closed_form_r(family, N)
        data = build_lie(family, N)
        rep = vector_rep(data)
        for seed in range(6):
            bad, _entry, _c = _perturbed_r(R, random.Random(seed))
            with pytest.raises(UnitarityFailure):
                check_unitarity(bad)
            assert expansion_check(bad, data, rep)["status"] == "fail", seed


class TestSolver:
    @pytest.mark.parametrize("family,N", [("sl", 2), ("so", 3)])
    def test_reproduces_closed_form(self, family, N):
        data = build_lie(family, N)
        rep = vector_rep(data)
        series = solve_intertwiner(data, rep, 4)
        closed = yang_r(N) if family == "sl" else sosp_r(family, N)
        g = proportional_to(series, closed.expand(4))
        assert g.coeffs[0] == F(1)

    @pytest.mark.parametrize("family,N", [("sl", 3), ("sp", 2)])
    def test_expansion_check(self, family, N):
        data = build_lie(family, N)
        R = yang_r(N) if family == "sl" else sosp_r(family, N)
        assert expansion_check(R, data, vector_rep(data))["status"] == "pass"


# -- the (D, C) form against a per-entry RationalFunction reference -----

def _reference_cleared(entries):
    """Integer numerator polynomials and degree of c D(u) R(u), entry by
    entry: D is the lcm of the entry denominators, c the lcm of the
    resulting coefficient denominators."""
    D = (F(1),)
    for e in entries.flat:
        D = poly_mul(D, poly_divmod(e.den, poly_gcd(D, e.den))[0])
    polys = {}
    den_lcm = 1
    deg = 0
    nn = entries.shape[0]
    for i in range(nn):
        for j in range(nn):
            e = entries[i, j]
            p = poly_mul(e.num, poly_divmod(D, e.den)[0])
            polys[i, j] = p
            for c in p:
                den_lcm = lcm(den_lcm, c.denominator)
            deg = max(deg, len(p) - 1)
    return D, {k: tuple(int(c * den_lcm) for c in p)
               for k, p in polys.items()}, deg


def _as_rf(x):
    return x if isinstance(x, RationalFunction) else \
        RationalFunction.constant(x)


def _reference_unitarity(entries, N):
    """R12(u) R21(-u) entry by entry: the scalar f(u) if the product is
    f(u) I, else the first entry (row-major) that breaks it."""
    nn = N * N
    r21 = np.empty((nn, nn), dtype=object)
    for a in range(N):
        for b in range(N):
            for c in range(N):
                for d in range(N):
                    r21[a * N + b, c * N + d] = \
                        entries[b * N + a, d * N + c].compose_linear(
                            F(-1), F(0))
    prod = frac_matmul(entries, r21)
    f = _as_rf(prod[0, 0])
    for i in range(nn):
        for j in range(nn):
            if _as_rf(prod[i, j]) != (f if i == j else _as_rf(0)):
                return i, j
    return f


@st.composite
def _entry(draw, strict):
    """num/den with den a product of up to two factors (u - a), a small;
    with ``strict``, deg num < deg den."""
    den = (F(1),)
    for a in draw(st.lists(st.integers(-2, 2), max_size=2)):
        den = poly_mul(den, (F(-a), F(1)))
    num = draw(st.lists(st.fractions(-3, 3, max_denominator=4),
                        max_size=len(den) - 1 if strict else 3))
    return RationalFunction(num, den)


@st.composite
def _entry_arrays(draw):
    """(entries, N): random entries, I plus strictly proper entries (so
    R(infinity) = I), or f(u) I and f(u) P (unitary up to a scalar)."""
    N = draw(st.sampled_from([2, 2, 3]))
    nn = N * N
    kind = draw(st.sampled_from(["random", "near_identity", "scalar_I",
                                 "scalar_P"]))
    ent = np.empty((nn, nn), dtype=object)
    if kind in ("scalar_I", "scalar_P"):
        f = draw(_entry(False))
        M = np.eye(nn, dtype=int) if kind == "scalar_I" else np.eye(
            nn, dtype=int).reshape(N, N, N, N).transpose(
                0, 1, 3, 2).reshape(nn, nn)
        for i in range(nn):
            for j in range(nn):
                ent[i, j] = f * int(M[i, j])
        return ent, N
    for i in range(nn):
        for j in range(nn):
            e = draw(_entry(kind == "near_identity"))
            ent[i, j] = e + 1 if kind == "near_identity" and i == j else e
    return ent, N


def _assert_same(got, want):
    assert got.N == want.N
    assert got.den == want.den
    assert got.scale == want.scale
    assert np.array_equal(got.coeffs, want.coeffs)


@settings(max_examples=80, deadline=None)
@given(_entry_arrays(), st.integers(0, 4), st.integers(-3, 3))
def test_matches_entrywise_reference(case, K, u):
    """Every reader of the (D, C) form agrees with the same operation done
    entry by entry on RationalFunctions."""
    entries, N = case
    R = RMat(entries, N)
    nn = N * N

    D, polys, deg = _reference_cleared(entries)
    assert R.den == D
    assert len(R.coeffs) - 1 == deg
    for (i, j), p in polys.items():
        col = [int(c) for c in R.coeffs[:, i, j]]
        while col and not col[-1]:
            col.pop()
        assert tuple(col) == p

    assert (R.entries == entries).all()

    try:
        want = np.array([[e(F(u)) for e in row] for row in entries])
    except PoleError:
        with pytest.raises(PoleError):
            R.eval_at(u)
    else:
        assert (R.eval_at(u) == want).all()

    if any(len(e.num) > len(e.den) for e in entries.flat):
        with pytest.raises(ValueError):
            R.expand_scaled(K)
    else:
        ref = [[e.expand_at_infinity(K).coeffs for e in row]
               for row in entries]
        S, s = R.expand_scaled(K)
        for i in range(nn):
            for j in range(nn):
                assert tuple(s * int(x) for x in S[:, i, j]) == ref[i][j]
        if all(ref[i][j][0] == (i == j)
               for i in range(nn) for j in range(nn)):
            got = R.expand(K).coeffs
            assert all(got[k][i, j] == ref[i][j][k] for k in range(K + 1)
                       for i in range(nn) for j in range(nn))

    ref = _reference_unitarity(entries, N)
    if isinstance(ref, tuple):
        with pytest.raises(UnitarityFailure,
                           match=r"entry \(%d, %d\)$" % ref):
            check_unitarity(R)
    else:
        assert check_unitarity(R) == ref


@settings(max_examples=40, deadline=None)
@given(_entry_arrays(), st.data())
def test_sum_and_shift_match_reference(case, data):
    """R1 + R2 and R(u - a) equal the RMat cleared from the entry-wise
    sum and shift, also when the sum cancels a pole in every entry."""
    entries, N = case
    nn = N * N
    other = np.empty((nn, nn), dtype=object)
    for i in range(nn):
        for j in range(nn):
            other[i, j] = data.draw(st.one_of(st.just(-entries[i, j]),
                                              _entry(False)))
    _assert_same(RMat(entries, N) + RMat(other, N),
                 RMat(entries + other, N))
    a = data.draw(st.fractions(-2, 2, max_denominator=3))
    shifted = np.empty((nn, nn), dtype=object)
    for i in range(nn):
        for j in range(nn):
            shifted[i, j] = entries[i, j].compose_linear(F(1), -a)
    _assert_same(RMat(entries, N).shifted(a), RMat(shifted, N))


def test_from_poly_reduces_to_the_lcm():
    ident = np.eye(4, dtype=np.int64)
    # u I / u^2 is I / u
    R = RMat.from_poly(2, (0, 0, 1), [0 * ident, ident])
    assert R.den == (F(0), F(1))
    assert np.array_equal(R.coeffs, [ident])
    with pytest.raises(ValueError):
        RMat.from_poly(2, (0, 2), [ident])
