"""Exact series kernel tests, and the tests' entry-wise rational-function
reference, against hand oracles."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from yangkit.exact import (
    NonInvertibleSeries,
    TruncSeries,
    certify_bivariate_identity,
    rat_to_str,
    series_inverse,
    series_mul,
    series_shift,
)
from yangkit.freealg import NCPoly, t_matrix
from rational_reference import RationalFunction, rat_from_str

F = Fraction


def ts(*coeffs):
    return TruncSeries([F(c) for c in coeffs])


class TestTruncSeries:
    def test_ring_ops(self):
        a = ts(1, 2, 3)
        b = ts(1, -1, 0)
        assert (a + b).coeffs == tuple([F(2), F(1), F(3)])
        assert (a - b).coeffs == tuple([F(0), F(3), F(3)])
        # (1 + 2x + 3x^2)(1 - x) = 1 + x + x^2 - 3x^3 -> truncated
        assert series_mul(a, b).coeffs == tuple([F(1), F(1), F(1)])

    def test_truncate_and_order(self):
        a = ts(1, 2, 3, 4)
        assert a.order == 3
        assert ts(1).order == 0

    def test_equality_and_hash(self):
        # == compares scalar and N x N array coefficients alike; hash
        # refuses a matrix series, whose coefficients are unhashable
        assert ts(1, 2, 3) == ts(1, 2, 3) != ts(1, 2)
        assert hash(ts(1, 2, 3)) == hash(ts(1, 2, 3))
        a, b = t_matrix(2, 2), t_matrix(2, 2)
        assert a == b
        m = np.array(b.coeffs[1])
        m[0, 1] = m[0, 1] + NCPoly.gen(2, 2, 1)
        assert a != TruncSeries([b.coeffs[0], m, b.coeffs[2]])
        assert a != TruncSeries(b.coeffs[:2])
        f = TruncSeries([np.array([[F(1), F(0)], [F(0), F(1)]]),
                         np.array([[F(1, 2), F(0)], [F(-3), F(2)]])])
        g = TruncSeries([c.copy() for c in f.coeffs])
        assert f == g
        g.coeffs[1][1, 0] = F(3)
        assert f != g
        with pytest.raises(TypeError):
            hash(a)
        with pytest.raises(TypeError):
            hash(f)

    def test_geometric_inverse(self):
        # (1 - x)^{-1} = 1 + x + x^2 + ...
        a = ts(1, -1, 0, 0, 0)
        assert series_inverse(a).coeffs == tuple([F(1)] * 5)

    def test_inverse_roundtrip(self):
        a = ts(1, 3, -2, F(1, 2))
        prod = series_mul(a, series_inverse(a))
        assert prod.coeffs == tuple([F(1), F(0), F(0), F(0)])

    def test_non_invertible(self):
        with pytest.raises(NonInvertibleSeries):
            series_inverse(ts(0, 1))

    def test_shift_oracle(self):
        # f(u) = u^{-1}; f(u+1) = u^{-1} - u^{-2} + u^{-3} - ...
        a = ts(0, 1, 0, 0)
        assert series_shift(a, F(1)).coeffs == tuple([F(0), F(1), F(-1), F(1)])

    def test_shift_additivity(self):
        a = ts(1, 2, -1, 5, F(3, 7))
        two_steps = series_shift(series_shift(a, F(1, 2)), F(1, 3))
        one_step = series_shift(a, F(5, 6))
        assert two_steps.coeffs == one_step.coeffs

    def test_shift_is_ring_map(self):
        a = ts(1, 2, 3, 4)
        b = ts(1, 0, -1, 2)
        lhs = series_shift(series_mul(a, b), F(2))
        rhs = series_mul(series_shift(a, F(2)), series_shift(b, F(2)))
        assert lhs.coeffs == rhs.coeffs


class TestRationalFunction:
    def test_expand_simple_pole(self):
        # 1/(u - 1) = u^{-1} + u^{-2} + u^{-3} + ...
        f = RationalFunction((F(1),), (F(-1), F(1)))
        assert f.expand_at_infinity(4).coeffs == tuple([
            F(0), F(1), F(1), F(1), F(1)])

    def test_compose_linear(self):
        # f(u) = 1/u composed with u -> u + 3 gives 1/(u + 3)
        f = RationalFunction((F(1),), (F(0), F(1)))
        g = f.compose_linear(F(1), F(3))
        assert g(F(2)) == F(1, 5)

    def test_arithmetic_matches_evaluation(self):
        f = RationalFunction((F(1), F(2)), (F(1), F(0), F(1)))
        g = RationalFunction((F(3),), (F(-2), F(1)))
        for u in (F(1), F(5), F(-7, 2)):
            assert (f + g)(u) == f(u) + g(u)
            assert (f * g)(u) == f(u) * g(u)
            assert (f - g)(u) == f(u) - g(u)

    def test_equality_normalizes(self):
        a = RationalFunction((F(2),), (F(0), F(2)))
        b = RationalFunction((F(1),), (F(0), F(1)))
        assert a == b


class TestCertify:
    def test_identity_passes(self):
        lhs = lambda u, v: (u + v) ** 2
        rhs = lambda u, v: u * u + 2 * u * v + v * v
        assert certify_bivariate_identity(lhs, rhs, (2, 2))

    def test_non_identity_fails(self):
        lhs = lambda u, v: u * v
        rhs = lambda u, v: u + v
        assert not certify_bivariate_identity(lhs, rhs, (2, 2))

    def test_stops_at_first_mismatch(self):
        calls = Counter()

        def lhs(u, v):
            calls["lhs"] += 1
            return u * v

        def rhs(u, v):
            calls["rhs"] += 1
            return u * v + 1

        assert not certify_bivariate_identity(lhs, rhs, (3, 3))
        assert calls == {"lhs": 1, "rhs": 1}

    def test_mismatch_at_last_point_fails(self):
        seen = []

        def lhs(u, v):
            seen.append((u, v))
            return (u + v) ** 2

        same = lambda u, v: u * u + 2 * u * v + v * v
        assert certify_bivariate_identity(lhs, same, (2, 2))
        assert len(seen) == 9
        last = seen[-1]
        seen.clear()
        differ = lambda u, v: same(u, v) + ((u, v) == last)
        assert not certify_bivariate_identity(lhs, differ, (2, 2))
        assert len(seen) == 9


def test_rat_str_roundtrip():
    for x in (F(0), F(-3, 7), F(22, 4)):
        assert rat_from_str(rat_to_str(x)) == x
