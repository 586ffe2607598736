"""R-matrix layer: QYBE certification, unitarity scalars, and the
order-by-order intertwiner solver."""

import random
from fractions import Fraction

import numpy as np
import pytest

from yangkit import rmatrix
from yangkit.cli import _perturbed_r
from yangkit.exact import RationalFunction
from yangkit.liealg import build_lie, vector_rep
from yangkit.rmatrix import (
    RMat,
    check_qybe,
    check_unitarity,
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
