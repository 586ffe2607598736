"""Classical Lie algebra layer: dimensions, Casimir closed forms, and
the finite-dimensional verification reports."""

import hashlib
import itertools
import json
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import rational_reference
from rational_reference import (frac_identity, frac_to_int_array, min_poly,
                                omega_rho)
from yangkit import cli, liealg, rmatrix
from yangkit.exact import poly_mul
from yangkit.liealg import (
    CasimirData,
    InvalidAlgebra,
    Representation,
    build_lie,
    casimir,
    checked_einsum,
    commutant,
    decompose_ad,
    int_to_frac_array,
    on_legs,
    permutation_matrix,
    q_matrix,
    safe_matmul,
    twisted_rep,
    vector_rep,
    verify_classical_presentation,
    verify_current_presentation,
    verify_extension_split,
    verify_yangian_module,
)
from yangkit.rmatrix import (NonIrreducible, closed_form_r, expansion_check,
                             solve_intertwiner)

F = Fraction

ALL_CASES = ([("sl", n) for n in range(2, 7)]
             + [("so", n) for n in range(3, 7)]
             + [("sp", n) for n in (2, 4, 6)])


class TestBuild:
    @pytest.mark.parametrize("family,N", ALL_CASES)
    def test_dimension(self, family, N):
        data = build_lie(family, N)
        n = N // 2
        expected = {"sl": N * N - 1,
                    "so": N * (N - 1) // 2,
                    "sp": n * (2 * n + 1)}[family]
        assert data.dim == expected

    @pytest.mark.parametrize("family,N", ALL_CASES)
    def test_gram_and_dual_basis(self, family, N):
        # reference on Fractions: the trace form, its Gram matrix and the
        # dual basis X^g with (X^g, X_nu) = delta; the held inverse Gram
        # matrix and the dual images of CasimirData must match them
        data = build_lie(family, N)
        B = list(int_to_frac_array(data.basis, F(1)))

        def form(X, Y):
            return data.form_scale * np.trace(X @ Y)

        gram = np.array([[form(X, Y) for Y in B] for X in B], dtype=object)
        ginv = int_to_frac_array(data.ginv, data.sginv)
        assert (gram @ ginv == frac_identity(data.dim)).all()
        dual = [sum(ginv[nu, g] * X for nu, X in enumerate(B))
                for g in range(data.dim)]
        assert all(form(D, X) == (g == nu) for g, D in enumerate(dual)
                   for nu, X in enumerate(B))
        cas = liealg.CasimirData(data, vector_rep(data))
        pd, sd = cas.dual(data.basis, F(1))
        assert (int_to_frac_array(pd, sd) == np.array(dual)).all()

    def test_held_arrays_are_read_only(self):
        data = build_lie("so", 4)
        vec, tw = vector_rep(data), twisted_rep(data, F(-1, 3))
        for a in (data.basis, data.ginv, vec.pj, tw.pj):
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 7
        assert vec.px is tw.px is data.basis and vec.dim == data.N
        assert (tw.pj == -data.basis).all() and tw.sj == F(1, 3)
        zero = twisted_rep(data, 0)
        assert not zero.pj.any() and zero.sj == vec.sj == 1

    @pytest.mark.parametrize("family,N", [("sl", 1), ("so", 2), ("sp", 3),
                                          ("xx", 3)])
    def test_invalid(self, family, N):
        with pytest.raises(InvalidAlgebra):
            build_lie(family, N)

    @pytest.mark.parametrize("family,N", ALL_CASES)
    def test_kappa(self, family, N):
        data = build_lie(family, N)
        if family == "sl":
            assert data.kappa is None
        elif family == "so":
            assert data.kappa == F(N, 2) - 1
        else:
            assert data.kappa == F(N, 2) + 1


class TestCasimir:
    @pytest.mark.parametrize("N", range(2, 7))
    def test_sl_closed_form(self, N):
        data = build_lie("sl", N)
        cas = casimir(data)
        P = permutation_matrix(N)
        target = P - F(1, N) * frac_identity(N * N)
        assert (omega_rho(cas) == target).all()
        assert cas.c_g == 2 * N

    @pytest.mark.parametrize("family,N",
                             [("so", n) for n in range(3, 7)]
                             + [("sp", n) for n in (2, 4, 6)])
    def test_sosp_closed_form(self, family, N):
        data = build_lie(family, N)
        cas = casimir(data)
        P = permutation_matrix(N)
        Q = q_matrix(data)
        assert (omega_rho(cas) == P - Q).all()
        assert cas.c_g == 4 * data.kappa


class TestVerification:
    @pytest.mark.parametrize("family,N", [("sl", 2), ("so", 3), ("sp", 4)])
    def test_all_reports_pass(self, family, N):
        data = build_lie(family, N)
        rep = vector_rep(data)
        for fn in (verify_classical_presentation,
                   verify_current_presentation,
                   verify_extension_split,
                   verify_yangian_module):
            assert fn(data, rep)["status"] == "pass"


class TestTwistedRep:
    """rho(J(X)) = 2 rho(X), the tau_2 shift of the vector representation:
    the paths that only a nonzero rho(J) reaches (YJ4 computed, the
    commutant with rho(J), the E part of decompose_ad)."""

    @pytest.mark.parametrize("family,N", [("sl", 2), ("so", 3), ("sp", 4)])
    def test_reports_and_commutants(self, family, N):
        data = build_lie(family, N)
        rep = twisted_rep(data, 2)
        for fn in (verify_classical_presentation,
                   verify_current_presentation,
                   verify_extension_split,
                   verify_yangian_module):
            assert fn(data, rep)["status"] == "pass"
        ym = verify_yangian_module(data, rep)
        assert ym["details"]["YJ4-mode"] == "computed"
        assert len(commutant(rep, False)) == len(commutant(rep, True)) == 1
        assert (decompose_ad(data, rep).dims()
                == decompose_ad(data, vector_rep(data)).dims())


class TestPlantedJ:
    """A planted rho(J) that is not a Yangian module: YJ1-Jlinear, YJ3 and
    YJ4 must fail, on a vector and on a twisted base.  YJ2 is hard-coded
    True, so it cannot fail."""

    @staticmethod
    def _planted(data, base, defect):
        rep = twisted_rep(data, base)
        assert rep.sj == 1
        pj = np.array(rep.pj)
        if defect == "corner":
            # rho(J(X_0))[0, 0] += 1
            pj[0, 0, 0] += 1
        else:
            # J(X_0) = 2 X_0, J(X) = c X otherwise
            pj[0] = 2 * data.basis[0]
        return rep, Representation(rep.px, rep.sx, pj, rep.sj)

    # base c is twisted_rep(data, c), the vector rep at c = 0; at c = 2
    # J(X_0) = 2 X_0 is no defect
    @pytest.mark.parametrize("base,defect", [
        (0, "corner"), (2, "corner"), (0, "doubled_x0"), (1, "doubled_x0")])
    @pytest.mark.parametrize("family,N", [("sl", 2), ("so", 3)])
    def test_defect_fails(self, family, N, base, defect):
        data = build_lie(family, N)
        rep, bad = self._planted(data, base, defect)
        assert verify_yangian_module(data, rep)["status"] == "pass"
        report = verify_yangian_module(data, bad)
        assert report["status"] == "fail"
        assert report["details"] == {
            "YJ1-bracket": True, "YJ1-Jlinear": False, "YJ2": True,
            "YJ3": False, "YJ4": False, "YJ4-mode": "computed"}


def _msym_by_index(T, px):
    """Index-loop reference for sum_pi m_pi([X_a (x) 1 (x) 1, T]): M is
    the commutator with X_a on slot 1 of T[i, I, j, J, k, K], and m_pi(M)
    at (r, c) sums M with slot pi[0] at (r, p), pi[1] at (p, q) and
    pi[2] at (q, c) over p and q."""
    g, d = len(px), len(T)
    out = np.zeros((g, d, d), dtype=object)
    for a in range(g):
        X = px[a]
        M = {}
        for idx in np.ndindex(*T.shape):
            i, I, rest = idx[0], idx[1], idx[2:]
            M[idx] = sum(int(X[i, z]) * int(T[(z, I) + rest])
                         - int(T[(i, z) + rest]) * int(X[z, I])
                         for z in range(d))
        for pi in itertools.permutations(range(3)):
            for r, c, p, q in np.ndindex(d, d, d, d):
                slots = [None] * 3
                for s, pair in zip(pi, ((r, p), (p, q), (q, c))):
                    slots[s] = pair
                out[a, r, c] += M[slots[0] + slots[1] + slots[2]]
    return out


@pytest.mark.parametrize("family,N", [("sl", 2), ("sl", 3), ("so", 3),
                                      ("sp", 4)])
def test_msym_batched_matches_index_loop(family, N):
    """The six written-out slot orders of _msym_batched sum the
    symmetrizer of YJ3 and YJ4 as the index loop does, on a seeded
    integer T."""
    data = build_lie(family, N)
    px = CasimirData(data, vector_rep(data)).px
    d = px.shape[1]
    T = np.random.default_rng(N).integers(-3, 4, size=(d,) * 6)
    got = liealg._msym_batched(T, px)
    assert got.dtype == np.int64
    assert (got == _msym_by_index(T, px)).all()


class TestPlantedF:
    """verify_classical_presentation on an f_override: the unperturbed F
    passes, F at twice its scale breaks the quadratic identities (F-br,
    F-sym-explicit) but not the linear ones, and F with one g-coordinate
    bumped breaks F-sym, and sigma-sym on so and sp."""

    @pytest.mark.parametrize("family,N", [
        ("sl", 2), ("sl", 3), ("so", 3), ("so", 4), ("sp", 4)])
    def test_perturbed_f_fails(self, family, N):
        data = build_lie(family, N)
        rep = vector_rep(data)
        t = CasimirData(data, rep)
        # F as _presentation_verdicts builds it
        fg = -checked_einsum("lij,nl->ijn", t.px, t.ginv)
        sfg = t.sx * t.sginv
        assert verify_classical_presentation(
            data, rep, (fg, sfg))["status"] == "pass"
        doubled = verify_classical_presentation(data, rep, (fg, 2 * sfg))
        assert doubled["details"] == {"F-br": False, "F-sym": True,
                                      "sigma-sym": True,
                                      "F-sym-explicit": False}
        bumped = np.array(fg)
        bumped[0, 0, 0] += 1
        report = verify_classical_presentation(data, rep, (bumped, sfg))
        assert report["details"] == {"F-br": False, "F-sym": False,
                                     "sigma-sym": family == "sl",
                                     "F-sym-explicit": False}


def _report_json(family, N, c):
    """The four liealg reports, expansion_check against the closed-form R
    and decompose_ad(...).dims() for twisted_rep(data, c), or for the
    vector rep when c is None, as one sorted-key JSON string."""
    data = build_lie(family, N)
    rep = vector_rep(data) if c is None else twisted_rep(data, c)
    reports = [verify_classical_presentation(data, rep),
               verify_current_presentation(data, rep),
               verify_extension_split(data, rep),
               verify_yangian_module(data, rep),
               expansion_check(closed_form_r(family, N), data, rep),
               decompose_ad(data, rep).dims()]
    return json.dumps(reports, sort_keys=True, default=str)


# sha256 of _report_json; c = 0 gives the vector rep's bytes
TWISTED_REPORT_DIGESTS = {
    ("sl", 2, 0):
        "2ee78bf1a9e891484f98efc060a1f4027b53bf8b0fbcba81649da912244be3b2",
    ("sl", 2, 2):
        "a37c89de38cc8cc9237a432c634fbf6e3b196a0721e6947642e7e8ad1fe6a1b1",
    ("sl", 2, F(-1, 3)):
        "a37c89de38cc8cc9237a432c634fbf6e3b196a0721e6947642e7e8ad1fe6a1b1",
    ("so", 3, 0):
        "f1e0e02abfb54af1abc8cf6dfbdc94921a8e000bae721d3cb915445239611bd4",
    ("so", 3, 2):
        "591fc841b28c3b98665d51addfb066f9bc5238f3ea37353d15d7672168042fcd",
    ("so", 3, F(-1, 3)):
        "591fc841b28c3b98665d51addfb066f9bc5238f3ea37353d15d7672168042fcd",
    ("sp", 4, 0):
        "4c9580dcd094938117914f296f0c54bf3d1ee8be1c9e16925cc1b8b0b8639735",
    ("sp", 4, 2):
        "d4095754e6f6ccd3f191c0264bc3f054e09b92ba0afda897df8899805eff9dde",
    ("sp", 4, F(-1, 3)):
        "d4095754e6f6ccd3f191c0264bc3f054e09b92ba0afda897df8899805eff9dde",
}


@pytest.mark.parametrize("family,N,c", list(TWISTED_REPORT_DIGESTS),
                         ids=str)
def test_twisted_report_goldens(family, N, c):
    """Report bytes of twisted representations are pinned; the twist
    c = 0 is the vector representation, rho(J) = 0."""
    got = _report_json(family, N, c)
    assert (hashlib.sha256(got.encode()).hexdigest()
            == TWISTED_REPORT_DIGESTS[family, N, c])
    if c == 0:
        assert got == _report_json(family, N, None)


def _vector_plus_trivial(data):
    """V (+) C with rho(X) = X (+) 0 and rho(J) = 0."""
    px = np.zeros((data.dim, data.N + 1, data.N + 1), dtype=np.int64)
    px[:, :data.N, :data.N] = data.basis
    return Representation(px, F(1), np.zeros_like(px), F(1))


class TestPlantedDefects:
    def test_reducible_rep_is_refused(self):
        data = build_lie("sl", 2)
        rep = _vector_plus_trivial(data)
        assert len(commutant(rep, False)) == 2
        assert len(commutant(rep, True)) == 2
        with pytest.raises(NonIrreducible):
            solve_intertwiner(data, rep, 2)

    def test_k_identities_fail_on_noncommuting_eg(self, monkeypatch):
        # E_g gains E_11, which commutes neither with Omega_rho's second
        # slot nor is killed by the omega-operator
        real = liealg.commutant

        def planted(rep, with_j):
            e11 = [F(1)] + [F(0)] * (rep.dim * rep.dim - 1)
            return real(rep, with_j) + [e11]

        monkeypatch.setattr(liealg, "commutant", planted)
        data = build_lie("sl", 2)
        report = verify_extension_split(data, vector_rep(data))
        assert report["details"]["K-identities"] is False
        assert report["status"] == "fail"


@st.composite
def _near_float_limit(draw, limit=2 ** 53):
    """int64 matrices whose bound inner * max|a| * max|b| lies just below
    or just above ``limit``.  Entries are near-maximal and, in about half
    of the matrices, all of one sign, so that the true sums come close to
    the bound."""
    inner = draw(st.integers(2, 64))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    amax = 2 ** 26 + draw(st.integers(-2 ** 10, 2 ** 10))
    bmax = (limit // (inner * amax)
            + draw(st.sampled_from([-2, -1, 0, 1, 2, 4, 8, 16])))

    def matrix(shape, top):
        sign = draw(st.sampled_from([1, -1]))
        signs = st.sampled_from([1, -1] if draw(st.booleans()) else [1])
        flat = [sign * draw(signs) * (top - draw(st.integers(0, 3)))
                for _ in range(shape[0] * shape[1])]
        flat[draw(st.integers(0, len(flat) - 1))] = top
        return np.array(flat, dtype=np.int64).reshape(shape)

    return matrix((rows, inner), amax), matrix((inner, cols), bmax)


class TestSafeMatmul:
    @settings(max_examples=200, deadline=None)
    @given(_near_float_limit())
    def test_exact_near_float_limit(self, ab):
        a, b = ab
        got = safe_matmul(a, b)
        want = a.astype(object) @ b.astype(object)
        assert got.shape == want.shape
        assert all(int(x) == y for x, y in zip(got.flat, want.flat))

    def test_float_route_below_limit(self, float_casts):
        # inner 64, entries 2**23: bound 2**52 < 2**53, sums to 2**52
        a = np.full((2, 64), 2 ** 23, dtype=np.int64)
        got = safe_matmul(a, a.T.copy())
        assert float_casts.casts == 2
        assert got.dtype == np.int64 and (got == 2 ** 52).all()

    def test_small_inner_stays_int64(self, float_casts):
        a = np.full((4, liealg._FLOAT_MIN_INNER - 1), 3, dtype=np.int64)
        assert (safe_matmul(a, a.T.copy()) == 9 * a.shape[1]).all()
        assert float_casts.casts == 0

    def test_bound_that_proves_nothing_is_rescanned(self, float_casts):
        # true bound 2**53 - 2**31, hinted bound above 2**53: the guard
        # scans and keeps the float route
        a = np.full((1, 32), 2 ** 26, dtype=np.int64)
        b = np.full((32, 1), 2 ** 22 - 1, dtype=np.int64)
        got = safe_matmul(a, b, 2 ** 26 + 2 ** 20, 2 ** 22 - 1)
        assert float_casts.casts == 2
        assert got.dtype == np.int64
        assert int(got[0, 0]) == 32 * 2 ** 26 * (2 ** 22 - 1)

    def test_odd_sum_above_limit_is_not_rounded(self, float_casts):
        # 32 x (2**26 + 1) * 2**22 + (2**26 + 1) = 2**53 + 3 * 2**26 + 1:
        # odd and above 2**53, so a float64 sum would round it
        x, y = 2 ** 26 + 1, 2 ** 22
        a = np.full((1, 32), x, dtype=np.int64)
        b = np.full((32, 1), y, dtype=np.int64)
        b[0, 0] = y + 1
        got = safe_matmul(a, b)
        assert float_casts.casts == 0
        assert int(got[0, 0]) == 32 * x * y + x == 2 ** 53 + 3 * 2 ** 26 + 1


# the float64, int64 and Python-int crossovers of safe_matmul and safe_axpy
_ROUTE_LIMITS = st.sampled_from([liealg._FLOAT_LIMIT, liealg._INT_LIMIT,
                                 2 ** 63])


# the fixtures only count calls, so they may span the examples
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ab=_ROUTE_LIMITS.flatmap(_near_float_limit), data=st.data())
def test_bound_hints_change_no_route(float_casts, monkeypatch, ab, data):
    """Any valid upper bounds, tight or far above every limit, give the
    route, the values and the dtype of the unhinted call."""
    guards = []
    real = liealg.checked_einsum

    def spy(*args):
        guards.append(1)
        return real(*args)

    monkeypatch.setattr(liealg, "checked_einsum", spy)

    def product(*args):
        casts, n = float_casts.casts, len(guards)
        out = safe_matmul(*args)
        return out, float_casts.casts - casts, len(guards) - n

    a, b = ab
    if data.draw(st.booleans()):
        a = a.astype(object)
    # 2**20 moves a bound near a limit just past it
    slack = st.sampled_from([0, 2 ** 20, 2 ** 70])
    amax = liealg._max_abs(a) + data.draw(slack)
    bmax = liealg._max_abs(b) + data.draw(slack)
    want, *want_route = product(a, b)
    got, *got_route = product(a, b, amax, bmax)
    assert got_route == want_route
    assert got.dtype == want.dtype and (got == want).all()

    # acc + c * m with |c| * max|m| + max|acc| near 2**57
    m, acc = a, (None if data.draw(st.booleans()) else a[:, ::-1].copy())
    near = liealg._INT_LIMIT // 2 ** 26
    c = data.draw(st.sampled_from([1, 3])
                  | st.integers(near - 2 ** 12, near + 2 ** 12))
    c *= data.draw(st.sampled_from([1, -1]))
    accmax = (0 if acc is None else liealg._max_abs(acc)) + data.draw(slack)
    want = liealg.safe_axpy(acc, c, m)
    got = liealg.safe_axpy(acc, c, m, accmax, amax)
    assert got.dtype == want.dtype and (got == want).all()


# the fixture only counts casts, so it may span the examples
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ab=_ROUTE_LIMITS.flatmap(_near_float_limit), data=st.data())
def test_float64_held_operands(float_casts, ab, data):
    """float64 operands that hold integers give the object-dtype product
    with any valid bounds: in float64 while inner * max|a| * max|b| <
    2**53, through the int64 or Python-int route otherwise.  Against a
    Python-int operand the product is in Python ints, never floats."""
    a, b = ab
    want = a.astype(object) @ b.astype(object)
    held = data.draw(st.sampled_from(["a", "b", "ab"]))
    x = a.astype(np.float64) if "a" in held else a
    y = b.astype(np.float64) if "b" in held else b
    pyint = held != "ab" and data.draw(st.booleans())
    if pyint:
        x, y = (m if m.dtype.kind == "f" else m.astype(object)
                for m in (x, y))
    fits = (not pyint and a.shape[1] * liealg._max_abs(a)
            * liealg._max_abs(b) < 2 ** 53)
    bounds = []
    if data.draw(st.booleans()):
        slack = st.sampled_from([0, 2 ** 20, 2 ** 70])
        bounds = [liealg._max_abs(a) + data.draw(slack),
                  liealg._max_abs(b) + data.draw(slack)]
    casts = float_casts.casts
    got = safe_matmul(x, y, *bounds)
    assert got.shape == want.shape
    assert all(int(g) == w for g, w in zip(got.flat, want.flat))
    if fits:
        assert got.dtype == np.float64
        assert float_casts.casts - casts == 2
    else:
        assert got.dtype in (np.int64, object)
        assert float_casts.casts == casts
    if pyint:
        assert all(type(g) is int for g in got.flat)


def _recorded_contractions(monkeypatch, cases):
    """(spec, operands) of every checked_einsum call that CasimirData and
    verify_yangian_module make; a case is (family, N, c) with c the
    twist of twisted_rep, or None for the vector rep."""
    calls = []
    real = liealg.checked_einsum

    def spy(spec, *ops):
        calls.append((spec, ops))
        return real(spec, *ops)

    monkeypatch.setattr(liealg, "checked_einsum", spy)
    for family, N, c in cases:
        data = build_lie(family, N)
        rep = vector_rep(data) if c is None else twisted_rep(data, c)
        liealg.CasimirData(data, rep)
        assert verify_yangian_module(data, rep)["status"] == "pass"
    monkeypatch.undo()
    return calls


def _loop_size(spec, ops):
    sizes = {}
    for part, op in zip(spec.split("->")[0].split(","), ops):
        sizes.update(zip(part, op.shape))
    return int(np.prod(list(sizes.values())))


def test_einsum_path_cut_over_parity(monkeypatch):
    """Contractions below and above _EINSUM_PATH_MIN_LOOP give the same
    int64 arrays with and without numpy's path search."""
    calls = _recorded_contractions(
        monkeypatch, [("sl", 3, 2), ("so", 4, 2), ("sl", 4, None)])
    loops = [_loop_size(spec, ops) for spec, ops in calls]
    cut = liealg._EINSUM_PATH_MIN_LOOP
    assert min(loops) < cut <= max(loops)
    for spec, ops in calls:
        got = liealg.checked_einsum(spec, *ops)
        for optimize in (False, True):
            want = np.einsum(spec, *ops, optimize=optimize)
            assert got.dtype == want.dtype == np.int64
            assert got.shape == want.shape and (got == want).all()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.integers(-2 ** 60, 2 ** 60),
                          st.fractions(max_denominator=10 ** 6)),
                min_size=1, max_size=12),
       st.fractions(max_denominator=50).filter(bool))
def test_scaled_int_round_trip(entries, scale):
    """The reference frac_to_int_array clears to the least common
    denominator through liealg._int_array, int64 within the fast path
    and Python ints beyond it; int_to_frac_array reads the integers back
    over any scale."""
    ints, s = frac_to_int_array(entries)
    assert s == F(1, lcm(*[F(x).denominator for x in entries]))
    back = liealg.int_to_frac_array(ints, s)
    assert all(type(x) is F for x in back) and list(back) == entries
    assert list(liealg.int_to_frac_array(ints, scale)) == [
        F(int(x)) * scale for x in ints]
    big = any(abs(x) >= liealg._INT_LIMIT for x in ints)
    assert ints.dtype == (object if big else np.int64)
    if big:
        assert all(type(x) is int for x in ints)


def test_build_lie_guards_the_inverse_gram_matrix(monkeypatch):
    """An inverse Gram matrix entry beyond the int64 fast path raises
    OverflowGuard; it is never wrapped or held as Python ints."""
    real = liealg.linalg.invert

    def inflated(mat):
        rows, s = real(mat)
        rows[0][0] = liealg._INT_LIMIT
        return rows, s

    monkeypatch.setattr(liealg.linalg, "invert", inflated)
    with pytest.raises(liealg.OverflowGuard):
        build_lie("sl", 2)


def _on_legs_by_index(m, d, n, legs):
    """Index-loop reference for on_legs: the entry at (row, col) of
    V^(x)n is m at the digits of ``legs`` when row and col agree on
    every other leg, and 0 otherwise."""
    out = np.zeros((d ** n, d ** n), dtype=m.dtype)
    digits = list(np.ndindex(*(d,) * n))
    for row, a in enumerate(digits):
        for col, b in enumerate(digits):
            if all(a[t] == b[t] for t in range(n) if t not in legs):
                i = j = 0
                for t in legs:
                    i, j = i * d + a[t], j * d + b[t]
                out[row, col] = m[i, j]
    return out


@st.composite
def _leg_placements(draw):
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    legs = tuple(draw(st.permutations(range(n)))[:draw(st.integers(1, n))])
    size = d ** len(legs)
    big = draw(st.booleans())
    bound = 2 ** 70 if big else 2 ** 40
    entries = draw(st.lists(st.integers(-bound, bound), min_size=size * size,
                            max_size=size * size))
    m = np.array(entries, dtype=object if big else np.int64)
    return m.reshape(size, size), d, n, legs


@settings(max_examples=100, deadline=None)
@given(_leg_placements())
def test_on_legs_matches_index_loop(case):
    """on_legs copies m's entries into place, on any legs in any order,
    and keeps int64 or Python-int entries as they are."""
    m, d, n, legs = case
    got = on_legs(m, d, n, legs)
    want = _on_legs_by_index(m, d, n, legs)
    assert got.dtype == m.dtype and got.shape == want.shape
    assert (got == want).all()
    if m.dtype == object:
        assert all(type(x) is int for x in got.flat)


@st.composite
def _rational_matrices(draw):
    """Small rational matrices; half of them bidiagonal with eigenvalues
    from three values, so that eigenvalues repeat and Jordan blocks occur,
    conjugated by a unimodular matrix."""
    n = draw(st.integers(1, 4))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    if draw(st.booleans()):
        return [[draw(small) for _ in range(n)] for _ in range(n)]
    eig = [draw(st.sampled_from([F(1, 2), F(-2), F(3)])) for _ in range(n)]
    T = np.array([[eig[i] if i == j else (draw(small) if j == i + 1 else F(0))
                   for j in range(n)] for i in range(n)], dtype=object)
    U = np.array([[F(int(i <= j)) for j in range(n)] for i in range(n)],
                 dtype=object)
    U_inv = np.array([[F(1) if i == j else (F(-1) if j == i + 1 else F(0))
                       for j in range(n)] for i in range(n)], dtype=object)
    return (U @ T @ U_inv).tolist()


@settings(max_examples=100, deadline=None)
@given(_rational_matrices())
def test_min_poly_matches_reference(m):
    """The integer Krylov iteration returns the exact monic minimal
    polynomial of the cleared integer matrix, as Fractions that are all
    integers (decompose_ad takes integer eigenspace rows from them)."""
    A = frac_to_int_array(m)[0]
    got = liealg._min_poly(A)
    assert got == min_poly(A)
    assert all(type(c) is F and c.denominator == 1 for c in got)


@st.composite
def _monic_integer_polys(draw):
    """Monic integer polynomials (ascending Fraction tuples, as _min_poly
    returns them): linear factors with repeats, times a monic factor that
    may have no rational root."""
    p = (F(1),)
    for r in draw(st.lists(st.integers(-12, 12), max_size=5)):
        p = poly_mul(p, (F(-r), F(1)))
    extra = draw(st.lists(st.integers(-6, 6), max_size=3)) + [1]
    return poly_mul(p, tuple(F(c) for c in extra))


@settings(max_examples=200, deadline=None)
@given(_monic_integer_polys())
def test_integer_roots_match_rational_root_test(p):
    """The divisors of the constant term find the same roots, in the
    same order, and leave the same remainder as the rational root test
    on Fractions."""
    roots, rem = liealg._integer_roots(p)
    want_roots, want_rem = rational_reference.rational_roots(p)
    assert roots == want_roots and rem == want_rem
    assert all(type(r) is int for r in roots)


@pytest.mark.parametrize("kernel", [[[1, 2]], [[1, 0], [0, 1]]])
def test_min_poly_refuses_a_non_monic_dependence(monkeypatch, kernel):
    """A Krylov dependence must be one kernel vector ending in +-1; any
    other kernel raises instead of giving a wrong polynomial."""
    monkeypatch.setattr(liealg.linalg, "nullspace", lambda rows, n: kernel)
    with pytest.raises(liealg.UnsupportedDecomposition):
        liealg._min_poly(np.eye(2, dtype=np.int64))


class TestDecomposeAd:
    # End V = ad(g) + C.I + W for the vector representation, with W's
    # dimension and omega-eigenvalue per family
    @pytest.mark.parametrize("family,N,w", [
        ("sl", 2, []), ("sl", 3, []),
        ("so", 3, [(5, 6)]), ("so", 4, [(9, 8)]), ("sp", 4, [(5, 8)]),
    ])
    def test_blocks(self, family, N, w):
        data = build_lie(family, N)
        rep = vector_rep(data)
        dec = decompose_ad(data, rep)
        assert dec.dims() == {"ad": data.dim, "eg": 1, "e": 1, "w": w}
        assert data.dim == {"sl": N * N - 1, "so": N * (N - 1) // 2,
                            "sp": N * (N + 1) // 2}[family]
        assert data.dim + 1 + sum(d for d, _ in w) == N * N
        assert casimir(data, rep).c_g in dec.eigenvalues
        blocks = dec.eg_part + [v for b, _ in dec.w_parts for v in b]
        rows, s = dec.a_table
        assert all(type(x) is int
                   for v in dec.c_table + blocks + rows for x in v)
        assert all(gcd(*v) == 1 for v in blocks)
        c = np.array(dec.c_table, dtype=object)
        a = np.array(rows, dtype=object)
        assert (c @ a == s.denominator * np.identity(N * N, dtype=int)).all()
        assert s.numerator == 1

    @pytest.mark.parametrize("family,N", [("sl", 2), ("sl", 3), ("so", 3),
                                          ("so", 4), ("sp", 4), ("so", 5)])
    @pytest.mark.parametrize("c", [None, F(-1, 3)])
    def test_matches_fraction_reference(self, family, N, c):
        """The integer eigenspaces give the blocks, eigenvalues and
        change of basis of the dense Fraction reference, for the vector
        rep and for twisted_rep(data, c)."""
        data = build_lie(family, N)
        rep = vector_rep(data) if c is None else twisted_rep(data, c)
        dec = decompose_ad(data, rep)
        want = rational_reference.decompose_ad(data, rep)
        assert dec.eigenvalues == want["eigenvalues"]
        assert dec.w_parts == want["w_parts"]
        assert dec.c_table == want["c_table"]
        assert dec.a_table == want["a_table"]


# the commands of the classical benchmark workload (bench/workloads.py)
CLASSICAL_COMMANDS = [
    "verify --family sl --n 3 --suite classical,rmatrix",
    "verify --family sl --n 6 --suite rmatrix",
    "verify --family so --n 5 --suite rmatrix",
    "verify --family sp --n 4 --suite rmatrix",
    "solve-r --family so --n 4 --order 3",
]


def test_classical_pass_makes_no_fraction_round_trips(monkeypatch, capsys):
    """The Gram inverse, the commutant, the minimal polynomial, the
    Casimir data and the decomposition of End V are built on integers:
    over one classical pass, plus casimir and decompose_ad on sl3, liealg
    reads no integer array back as Fractions (and neither liealg nor
    rmatrix has a function that clears Fractions to integers)."""
    read = []

    def spy(calls, real):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(liealg, "int_to_frac_array",
                        spy(read, liealg.int_to_frac_array))
    min_polys = []
    real_min_poly = liealg._min_poly

    def counted_min_poly(A):
        min_polys.append(len(A))
        return real_min_poly(A)

    monkeypatch.setattr(liealg, "_min_poly", counted_min_poly)
    monkeypatch.setattr(rmatrix, "_min_poly", counted_min_poly)
    for argv in CLASSICAL_COMMANDS:
        assert cli.main(argv.split() + ["--seed", "1"]) == 0
    data = build_lie("sl", 3)
    for rep in (vector_rep(data), twisted_rep(data, F(-1, 3))):
        casimir(data, rep)
        decompose_ad(data, rep)
    capsys.readouterr()

    assert min_polys
    assert not read
