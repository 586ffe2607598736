"""End-to-end acceptance checks: every verification the package promises,
at exact (zero-tolerance) equality and within the stated time budgets."""

import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import yangkit
from rational_reference import (RationalFunction, frac_identity, mat_shift,
                                omega_rho)
from yangkit.exact import TruncSeries
from yangkit.freealg import NCPoly, t_matrix
from yangkit.liealg import (
    build_lie,
    casimir,
    permutation_matrix,
    q_matrix,
    verify_classical_presentation,
    verify_current_presentation,
    verify_extension_split,
    verify_yangian_module,
)
from yangkit.rmatrix import (
    check_qybe,
    check_unitarity,
    proportional_to,
    solve_intertwiner,
    sosp_r,
    yang_r,
)
from yangkit.yangian import (
    central_monomial_certificate,
    closure,
    closure_for_query,
    pbw_count,
    qdet,
    rtt_relations,
    slice_dimension,
    symmetry_series,
    verify_fixed_point,
    verify_hopf,
    y_from_z,
    z_series,
)

F = Fraction

ALL_CASES = ([("sl", n) for n in range(2, 7)]
             + [("so", n) for n in range(3, 7)]
             + [("sp", n) for n in (2, 4, 6)])


class Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.seconds = time.monotonic() - self.t0


@pytest.fixture(scope="module")
def sl2():
    return rtt_relations("sl", 2, 4)


@pytest.fixture(scope="module")
def sl2_cl(sl2):
    # [z_4, t^(2)] needs words of length 5 and total order 6
    return closure(sl2, 5, 6)


@pytest.fixture(scope="module")
def sl2_cs(sl2, sl2_cl):
    return z_series(sl2, sl2_cl)


@pytest.fixture(scope="module")
def so3():
    return rtt_relations("so", 3, 3)


@pytest.fixture(scope="module")
def so3_cl(so3):
    return closure(so3, 4, 4)


@pytest.fixture(scope="module")
def so3_cs(so3, so3_cl):
    return z_series(so3, so3_cl)


# -- Casimir closed forms ---------------------------------------

@pytest.mark.parametrize("family,N", ALL_CASES)
def test_casimir_closed_forms(family, N):
    with Timer() as t:
        data = build_lie(family, N)
        cas = casimir(data)
        P = permutation_matrix(N)
        if family == "sl":
            I = frac_identity(N * N)
            assert (omega_rho(cas) == P - F(1, N) * I).all()
            assert cas.c_g == 2 * N
        else:
            assert (omega_rho(cas) == P - q_matrix(data)).all()
            kappa = F(N, 2) + (1 if family == "sp" else -1)
            assert data.kappa == kappa
            assert cas.c_g == 4 * kappa
    assert t.seconds < 1.0


# -- QYBE --------------------------------------------------------

@pytest.mark.parametrize("family,N",
                         [("sl", n) for n in (2, 3, 4)]
                         + [("so", n) for n in range(3, 7)]
                         + [("sp", n) for n in (2, 4, 6)])
def test_qybe_certification(family, N):
    R = yang_r(N) if family == "sl" else sosp_r(family, N)
    with Timer() as t:
        assert check_qybe(R)
    assert t.seconds < 30.0


# -- unitarity ---------------------------------------------------

@pytest.mark.parametrize("N", [2, 3, 4])
def test_unitarity_sl(N):
    with Timer() as t:
        # 1 - u^{-2} = (u^2 - 1)/u^2
        assert check_unitarity(yang_r(N)) == ((F(-1), F(0), F(1)),
                                              (F(0), F(0), F(1)))
    assert t.seconds < 5.0


@pytest.mark.parametrize("family,N", [("so", 3), ("so", 5), ("sp", 4)])
def test_unitarity_sosp(family, N):
    with Timer() as t:
        f = RationalFunction(*check_unitarity(sosp_r(family, N)))
        assert f(F(3)) == f(F(-3))
    assert t.seconds < 5.0


# -- intertwiner solver ------------------------------------------

@pytest.mark.parametrize("family,N", [("sl", 2), ("sl", 3), ("so", 3),
                                      ("so", 5), ("sp", 4)])
def test_intertwiner_solver(family, N):
    with Timer() as t:
        series = solve_intertwiner(casimir(build_lie(family, N)), 4)
        closed = yang_r(N) if family == "sl" else sosp_r(family, N)
        g = proportional_to(series, closed.expand(4))
        assert g.coeffs[0] == F(1)
    assert t.seconds < 60.0


# -- PBW slice dimensions ----------------------------------------

PBW_CASES = [("sl", 2, L, R, q)
             for (L, R) in [(2, 2), (2, 3), (3, 3), (3, 4)]
             for q in (False, True)] + \
            [("so", 3, L, R, q)
             for (L, R) in [(1, 2), (1, 3), (2, 2), (2, 3)]
             for q in (False, True)]

_pbw_clock = []


@pytest.mark.parametrize("family,N,L,R,quotient", PBW_CASES)
def test_pbw_slice_dimensions(family, N, L, R, quotient):
    with Timer() as t:
        pres = rtt_relations(family, N, max(R, 2))
        cl = closure_for_query(pres, L, R, quotient=quotient)
        assert slice_dimension(cl, L, R) == pbw_count(
            pres.casimir, L, R, quotient=quotient)
    _pbw_clock.append(t.seconds)
    assert sum(_pbw_clock) < 600.0


def test_pbw_frozen_counts():
    sl = casimir(build_lie("sl", 2))
    so = casimir(build_lie("so", 3))
    assert [pbw_count(sl, L, R)
            for (L, R) in [(2, 2), (2, 3), (3, 3), (3, 4)]] == \
        [19, 39, 59, 129]
    assert [pbw_count(sl, L, R, quotient=True)
            for (L, R) in [(2, 2), (2, 3), (3, 3), (3, 4)]] == \
        [13, 25, 35, 71]
    assert [pbw_count(so, L, R) for (L, R) in [(2, 2), (2, 3)]] == \
        [19, 39]
    assert [pbw_count(so, L, R, quotient=True)
            for (L, R) in [(2, 2), (2, 3)]] == [13, 25]


# -- central series ----------------------------------------------

def test_z1_and_centrality_sl2(sl2_cs):
    rep = sl2_cs.report
    assert rep["status"] == "pass"
    assert rep["details"]["z1_zero_free_algebra"]
    assert sl2_cs.z[1] == NCPoly.zero()
    tested = {(r, s): ok for r, s, ok in
              rep["details"]["centrality_tested_r_s"]}
    for r in range(2, 5):
        for s in (1, 2):
            assert tested[(r, s)] is True
    assert not rep["details"]["centrality_failures"]


def test_centrality_so3(so3_cs):
    rep = so3_cs.report
    assert rep["status"] == "pass"
    assert rep["details"]["z1_zero_free_algebra"]
    tested = {(r, s): ok for r, s, ok in
              rep["details"]["centrality_tested_r_s"]}
    for r in (2, 3):
        assert tested[(r, 1)] is True
    assert not rep["details"]["centrality_failures"]


def test_central_monomial_independence(sl2_cs, so3_cs):
    for cs in (sl2_cs, so3_cs):
        rep = central_monomial_certificate(cs)
        assert rep["status"] == "pass"
        assert rep["details"]["rank"] == 6


# -- grouplike coproduct ----------------------------------------

def test_grouplike_coproduct(sl2_cs):
    rep = verify_hopf(sl2_cs)
    assert rep["status"] == "pass"
    assert rep["details"]["grouplike_orders"] == [1, 2, 3]
    assert not rep["details"]["grouplike_failures"]


# -- y-recursion -------------------------------------------------

def test_y_recursion(sl2, sl2_cs):
    with Timer() as t:
        cs = y_from_z(sl2_cs, 5)
        assert cs.report["details"]["y_recursion_verified_to"] == 5
        # y_1 = (2/c_g) z_2, c_g = 4 for sl_2
        assert cs.y[1].terms == {(2,): F(2) / sl2.casimir.c_g}
    assert t.seconds < 1.0


# -- quantum determinant -----------------------------------------

def test_quantum_determinant(sl2_cs):
    qd, rep = qdet(sl2_cs)
    assert rep["status"] == "pass"
    assert not rep["details"]["centrality_failures"]
    assert rep["details"]["z_equals_shifted_zdet_orders"] == [1, 2, 3]
    assert not rep["details"]["z_match_failures"]
    # independent closed form at N = 2
    T = t_matrix(2, 4)
    Tm = mat_shift(T, F(-1))
    from yangkit.exact import series_mul

    def entry(A, i, j):
        return TruncSeries([c[i, j] for c in A.coeffs])

    oracle = (series_mul(entry(T, 0, 0), entry(Tm, 1, 1))
              - series_mul(entry(T, 1, 0), entry(Tm, 0, 1)))
    for r in range(5):
        assert qd.coeffs[r] == oracle.coeffs[r]


# -- symmetry series --------------------------------------------

def test_symmetry_series_so3(so3_cs):
    _, rep = symmetry_series(so3_cs)
    assert rep["status"] == "pass"
    assert not rep["details"]["scalar_failures"]
    assert not rep["details"]["two_sided_failures"]
    assert rep["details"]["z_equals_zdet_ratio_orders"] == [1, 2, 3]
    assert not rep["details"]["z_match_failures"]


# -- public API ---------------------------------------------------

def test_export_list():
    """Every name in yangkit.__all__ resolves on the package, once."""
    names = yangkit.__all__
    assert sorted(n for n, k in Counter(names).items() if k > 1) == []
    assert [n for n in names if not hasattr(yangkit, n)] == []


def test_readme_library_example():
    """The "Library example" block of README.md runs as written."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


# -- fixed points ----------------------------------------------

@pytest.mark.parametrize("coeffs", [(1, 1), (1, 1, 1)])
def test_fixed_point_automorphisms(sl2_cs, coeffs):
    f = TruncSeries([F(c) for c in coeffs])
    rep = verify_fixed_point(sl2_cs, f)
    assert rep["status"] == "pass"
    assert rep["details"]["fixed_orders"] == [1, 2]
    assert not rep["details"]["fixed_failures"]
    assert rep["details"]["shift_compatible"]


# -- classical layer --------------------------------------------

_classical_clock = []


@pytest.mark.parametrize("family,N", ALL_CASES)
def test_classical_layer(family, N):
    with Timer() as t:
        cas = casimir(build_lie(family, N))
        assert verify_classical_presentation(cas)["status"] == "pass"
        assert verify_current_presentation(cas)["status"] == "pass"
        assert verify_extension_split(cas)["status"] == "pass"
        assert verify_yangian_module(cas)["status"] == "pass"
    _classical_clock.append(t.seconds)
    assert sum(_classical_clock) < 60.0
