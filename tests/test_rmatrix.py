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
from rational_reference import (RationalFunction, common_factor,
                                frac_identity, frac_to_int_array, omega_rho,
                                rational_roots, rmat_add, rmat_entries)
from yangkit.exact import poly_divmod, poly_gcd, poly_mul, rat_to_str
from yangkit.liealg import (Representation, _min_poly, build_lie, casimir,
                            int_to_frac_array, permutation_matrix,
                            twisted_rep, vector_rep)
from yangkit.linalg import SparseReducer
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
        # adding u^{-2} to one diagonal entry breaks the ternary identity
        bump = np.zeros((1, 4, 4), dtype=np.int64)
        bump[0, 0, 0] = 1
        assert not check_qybe(rmat_add(yang_r(2), RMat(2, (0, 0, 1), bump)))

    @staticmethod
    def _scaled_yang():
        # R(u) = I - P / (2^70 u) is Yang's R-matrix at a rescaled
        # spectral parameter; its cleared coefficients exceed the int64
        # guard, so the leg factors must go on in Python ints
        P = permutation_matrix(2)
        eye = np.identity(4, dtype=object)
        R = RMat(2, (0, 1), [-P, 2 ** 70 * eye], F(1, 2 ** 70))
        assert R.coeffs.dtype == object
        return R

    def test_large_coefficients_solution(self):
        assert check_qybe(self._scaled_yang())

    def test_large_coefficients_non_solution_fails(self):
        bump = np.zeros((1, 4, 4), dtype=np.int64)
        bump[0, 0, 0] = 1
        bad = rmat_add(self._scaled_yang(), RMat(2, (0, 0, 1), bump))
        assert not check_qybe(bad)

    def test_leg_factors_built_once(self, monkeypatch):
        built = []
        real = rmatrix.on_legs

        def spy(m, d, n, legs):
            built.append(legs)
            return real(m, d, n, legs)

        monkeypatch.setattr(rmatrix, "on_legs", spy)
        assert check_qybe(yang_r(2))
        # grid u in {1, 2, 3}, v in {67, 68, 69}: three R13(u), three
        # R23(v) and five R12(u - v) for u - v in -68..-64
        assert sorted(built) == [(0, 1)] * 5 + [(0, 2)] * 3 + [(1, 2)] * 3


class TestQYBEFloatRoute:
    """N = 4: the V^(x)3 products are 64 x 64, above the float64 cut-over
    of safe_matmul, so the leg factors are held as float64 and both sides
    are float64 chains whose carried bounds prove every product."""

    @pytest.fixture
    def products(self, monkeypatch, float_casts):
        calls = []
        real = rmatrix.safe_matmul

        def spy(a, b, *bounds):
            out = real(a, b, *bounds)
            calls.append((a, b, out))
            return out

        monkeypatch.setattr(rmatrix, "safe_matmul", spy)
        return calls, float_casts

    @staticmethod
    def _ints(m):
        """The Python ints a float64 matrix holds; it must hold integers."""
        assert (np.floor(m) == m).all()
        return m.astype(np.int64).astype(object)

    @pytest.mark.parametrize("family", ["sl", "so", "sp"])
    def test_closed_form_and_controls(self, family, products):
        calls, float_casts = products
        R = yang_r(4) if family == "sl" else sosp_r(family, 4)
        assert check_qybe(R)
        assert calls
        for a, b, out in calls:
            # every product of the grid took the float64 route on float64
            # operands and left its result in float64
            assert a.shape[1] == 64
            assert a.dtype == b.dtype == out.dtype == np.float64
            want = self._ints(a) @ self._ints(b)
            assert (self._ints(out) == want).all()
        assert float_casts.casts == 2 * len(calls)
        for seed in range(6):
            bad, _entry, _c = _perturbed_r(R, random.Random(seed))
            assert not check_qybe(bad)

    def test_python_int_product_with_float64_factor(self, products):
        """R(u) = I - P / (2^30 u): every leg factor, C(w) = 2^30 w I - P
        on the grid |w| <= 2, is held as float64.  A first product of two
        factors at w != 0 reaches 2^60 or more, past the int64 guard, and
        goes on in Python ints, so its second product pairs Python ints
        with a float64 factor; it must stay in Python ints, not floats.
        The factors at w = 0 are -P, so a first product that takes one
        stays in float64."""
        calls, _ = products
        P = permutation_matrix(4)
        eye = np.identity(16, dtype=np.int64)
        R = RMat(4, (0, 1), [-P, 2 ** 30 * eye], F(1, 2 ** 30))
        assert check_qybe(R)
        f64, obj = np.dtype(np.float64), np.dtype(object)
        assert {(a.dtype, b.dtype, out.dtype) for a, b, out in calls} == {
            (f64, f64, obj), (obj, f64, obj), (f64, f64, f64)}
        for a, b, out in calls:
            if out.dtype == obj:
                assert all(type(x) is int for x in out.flat)
            else:
                out = self._ints(out)
            want = (a if a.dtype == obj else self._ints(a)) @ self._ints(b)
            assert (out == want).all()
        bump = np.zeros((1, 16, 16), dtype=np.int64)
        bump[0, 0, 0] = 1
        assert not check_qybe(rmat_add(R, RMat(4, (0, 0, 1), bump)))

    def test_dense_chain_past_float_limit(self, products):
        """A dense constant R(u) = C_0 with positive entries near
        2**16.5: each side's second product passes 2**53, so it must
        leave the float64 route, and every product stays exact."""
        calls, _ = products
        rng = np.random.default_rng(7)
        C0 = rng.integers(92000, 92064, size=(16, 16))
        R = RMat(4, (1,), [C0])
        legs = [rmatrix.on_legs(C0.astype(object), 4, 3, leg)
                for leg in ((0, 1), (0, 2), (1, 2))]
        lhs = legs[0] @ legs[1] @ legs[2]
        rhs = legs[2] @ legs[1] @ legs[0]
        assert check_qybe(R) == bool((lhs == rhs).all())
        assert 2 ** 53 < max(abs(x) for x in lhs.flat) < 2 ** 57
        assert {out.dtype for _, _, out in calls} == {
            np.dtype(np.float64), np.dtype(np.int64)}
        for a, b, out in calls:
            want = self._ints(a) @ self._ints(b)
            assert (self._ints(out) == want).all()


class TestUnitarity:
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_yang_scalar(self, N):
        # 1 - u^{-2} = (u^2 - 1)/u^2
        assert check_unitarity(yang_r(N)) == ((F(-1), F(0), F(1)),
                                              (F(0), F(0), F(1)))

    @pytest.mark.parametrize("family,N", [("so", 3), ("sp", 4)])
    def test_sosp_scalar(self, family, N):
        f = RationalFunction(*check_unitarity(sosp_r(family, N)))
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
        cas = casimir(build_lie(family, N))
        for seed in range(6):
            bad, _entry, _c = _perturbed_r(R, random.Random(seed))
            with pytest.raises(UnitarityFailure):
                check_unitarity(bad)
            assert expansion_check(bad, cas)["status"] == "fail", seed


class TestSolver:
    @pytest.mark.parametrize("family,N", [("sl", 2), ("so", 3)])
    def test_reproduces_closed_form(self, family, N):
        series = solve_intertwiner(casimir(build_lie(family, N)), 4)
        closed = yang_r(N) if family == "sl" else sosp_r(family, N)
        g = proportional_to(series, closed.expand(4))
        assert g.coeffs[0] == F(1)

    @pytest.mark.parametrize("family,N", [("sl", 3), ("sp", 2)])
    def test_expansion_check(self, family, N):
        cas = casimir(build_lie(family, N))
        R = yang_r(N) if family == "sl" else sosp_r(family, N)
        assert expansion_check(R, cas)["status"] == "pass"


# -- the (D, C) form against a per-entry RationalFunction reference -----

def _reference_cleared(entries):
    """(D, C, s) cleared entry by entry: D is the lcm of the entry
    denominators, s = 1/c with c the lcm of the coefficient denominators
    of the D(u) e(u), and C stacks the integer matrices of c D(u) R(u)."""
    D = (F(1),)
    for e in entries.flat:
        D = poly_mul(D, poly_divmod(e.den, poly_gcd(D, e.den))[0])
    polys = [[poly_mul(e.num, poly_divmod(D, e.den)[0]) for e in row]
             for row in entries]
    c = lcm(1, *(x.denominator for row in polys for p in row for x in p))
    top = max(1, max(len(p) for row in polys for p in row))
    C = np.array([[[int(c * p[m]) if m < len(p) else 0 for p in row]
                   for row in polys] for m in range(top)], dtype=object)
    return D, C, F(1, c)


def _cleared(entries, N):
    return RMat(N, *_reference_cleared(entries))


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
    prod = entries @ r21
    f = prod[0, 0]
    for i in range(nn):
        for j in range(nn):
            if prod[i, j] != (f if i == j else 0):
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
@given(_entry_arrays(), st.integers(0, 4),
       st.fractions(-2, 2, max_denominator=3))
def test_matches_entrywise_reference(case, K, a):
    """Every reader of the (D, C) form agrees with the same operation done
    entry by entry on RationalFunctions."""
    entries, N = case
    nn = N * N
    D, C, s = _reference_cleared(entries)
    R = RMat(N, D, C, s)
    assert R.den == D
    assert R.scale == s
    assert np.array_equal(R.coeffs, C)
    assert (rmat_entries(R) == entries).all()

    # the padded form (q u - p) C(u) over (u - a) D(u), a = p/q, keeps
    # its D, and every reader answers on it as on R
    p, q = a.numerator, a.denominator
    pad = np.zeros((1, nn, nn), dtype=object)
    C_up = q * np.concatenate([pad, C]) - p * np.concatenate([C, pad])
    D_up = poly_mul(D, (-a, F(1)))
    P = RMat(N, D_up, C_up, s / q)
    assert P.den == D_up
    assert (rmat_entries(P) == entries).all()

    if any(len(e.num) > len(e.den) for e in entries.flat):
        for M in (R, P):
            with pytest.raises(ValueError, match="not proper"):
                M.expand_scaled(K)
    else:
        ref = [[e.expand_at_infinity(K).coeffs for e in row]
               for row in entries]
        S, s = R.expand_scaled(K)
        for i in range(nn):
            for j in range(nn):
                assert tuple(s * int(x) for x in S[:, i, j]) == ref[i][j]
        S_up, s_up = P.expand_scaled(K)
        assert s_up == s and np.array_equal(S_up, S)
        if all(ref[i][j][0] == (i == j)
               for i in range(nn) for j in range(nn)):
            got = R.expand(K).coeffs
            assert all(got[k][i, j] == ref[i][j][k] for k in range(K + 1)
                       for i in range(nn) for j in range(nn))

    ref = _reference_unitarity(entries, N)
    if isinstance(ref, tuple):
        for M in (R, P):
            with pytest.raises(UnitarityFailure,
                               match=r"entry \(%d, %d\)$" % ref):
                check_unitarity(M)
    else:
        assert check_unitarity(R) == check_unitarity(P) == (ref.num,
                                                             ref.den)


@settings(max_examples=40, deadline=None)
@given(_entry_arrays(), st.data())
def test_sum_and_shift_match_reference(case, data):
    """The reference R1 + R2 has the entries of the entry-wise sum, also
    when the sum cancels a pole in every entry (it then keeps lcm(D1,
    D2)), and R(u - a) equals the RMat cleared from the entry-wise
    shift."""
    entries, N = case
    nn = N * N
    other = np.empty((nn, nn), dtype=object)
    for i in range(nn):
        for j in range(nn):
            other[i, j] = data.draw(st.one_of(st.just(-entries[i, j]),
                                              _entry(False)))
    assert (rmat_entries(rmat_add(_cleared(entries, N), _cleared(other, N)))
            == entries + other).all()
    a = data.draw(st.fractions(-2, 2, max_denominator=3))
    shifted = np.empty((nn, nn), dtype=object)
    for i in range(nn):
        for j in range(nn):
            shifted[i, j] = entries[i, j].compose_linear(F(1), -a)
    _assert_same(_cleared(entries, N).shifted(a), _cleared(shifted, N))


LIBRARY_ALGEBRAS = [("sl", 2), ("sl", 3), ("sl", 4), ("sl", 6), ("so", 3),
                    ("so", 4), ("so", 5), ("so", 6), ("so", 7), ("sp", 2),
                    ("sp", 4), ("sp", 6)]


def test_library_builders_give_the_lcm():
    """RMat keeps the D it is given, so the lcm of the entry denominators
    comes from the builders: closed_form_r, its shifts and the QYBE
    negative control leave no factor of D that divides every entry."""
    for family, N in LIBRARY_ALGEBRAS:
        R = closed_form_r(family, N)
        builds = [R] + [R.shifted(a) for a in
                        (0, 1, -1, F(1, 2), F(-7, 3), 3)]
        builds += [_perturbed_r(R, random.Random(seed))[0]
                   for seed in range(10)]
        for B in builds:
            assert common_factor(B) == (F(1),), (family, N)
    ident = np.eye(4, dtype=np.int64)
    # u I / u^2 keeps D = u^2, and u divides every entry
    R = RMat(2, (0, 0, 1), [0 * ident, ident])
    assert R.den == (F(0), F(0), F(1))
    assert common_factor(R) == (F(0), F(1))
    assert (rmat_entries(R) == rmat_entries(RMat(2, (0, 1), [ident]))).all()
    with pytest.raises(ValueError):
        RMat(2, (0, 2), [ident])


# -- the QYBE negative control against the reference sum ----------------

def _reference_perturbed(R, rng):
    """R + c u^{-2} E_ee by the reference adder, from the same draws as
    cli._perturbed_r."""
    nn = R.N * R.N
    e = rng.randrange(nn)
    c = F(rng.randint(1, 5))
    bump = np.zeros((1, nn, nn), dtype=np.int64)
    bump[0, e, e] = 1
    return rmat_add(R, RMat(R.N, (0, 0, 1), bump, c)), e, c


def _assert_perturbed_matches(R, seeds):
    for seed in seeds:
        got, entry, c = _perturbed_r(R, random.Random(seed))
        want, want_entry, want_c = _reference_perturbed(
            R, random.Random(seed))
        assert (entry, c) == (want_entry, want_c)
        _assert_same(got, want)
        assert got.coeffs.dtype == want.coeffs.dtype


@pytest.mark.parametrize("family,N", [
    ("sl", 2), ("sl", 3), ("sl", 6), ("so", 3), ("so", 4), ("so", 5),
    ("sp", 2), ("sp", 4), ("sp", 6)])
def test_perturbed_r_is_the_reference_sum(family, N):
    """The control's one RMat build equals R + c u^{-2} E_ee added over
    lcm(D, u^2): same D, scale, coefficients, entry and bump."""
    _assert_perturbed_matches(closed_form_r(family, N), range(10))


@pytest.mark.parametrize("v", [0, 1, 2, 3])
def test_perturbed_r_at_any_order_of_d(v):
    """D = u^v (u - 2): lcm(D, u^2) prepends max(0, 2 - v) zeros to D."""
    D = poly_mul((F(0),) * v + (F(1),), (F(-2), F(1)))
    C = np.random.default_rng(v).integers(-3, 4, (len(D), 4, 4))
    R = RMat(2, D, C, F(1, 3))
    assert R.den == D
    _assert_perturbed_matches(R, range(4))


# -- the integer R-series against the former Fraction code --------------

def _frac_kron(a, b):
    n, m = a.shape
    p, q = b.shape
    out = np.full((n * p, m * q), F(0), dtype=object)
    for i in range(n):
        for j in range(m):
            if a[i, j]:
                for k in range(p):
                    for l in range(q):
                        out[i * p + k, j * q + l] = a[i, j] * b[k, l]
    return out


def _reference_proportional_to(c1, c2):
    """Fraction matrices c1, c2 of two series: the ratio g, entry by
    entry, or NotProportional with the same message."""
    K = len(c1) - 1
    nn = c1[0].shape[0]
    g = [F(1)]
    for k in range(1, K + 1):
        M = c1[k].copy()
        for a in range(k):
            if g[a]:
                M = M - g[a] * c2[k - a]
        scal = M[0, 0]
        for i in range(nn):
            for j in range(nn):
                want = scal if i == j else F(0)
                if M[i, j] != want:
                    raise rmatrix.NotProportional(
                        "ratio is not scalar at order %d" % k)
        g.append(scal)
    for k in range(K + 1):
        acc = np.full((nn, nn), F(0), dtype=object)
        for a in range(k + 1):
            if g[a]:
                acc = acc + g[a] * c2[k - a]
        if (acc != c1[k]).any():
            raise rmatrix.NotProportional(
                "back-multiplication failed at order %d" % k)
    return g


def _reference_expansion_target(data, rep):
    """I, -Omega and (J (x) 1 - 1 (x) J)(Omega) + Omega^2/2 as Fraction
    matrices, with Omega = sum_l X_l (x) X^l and the dual basis X^l =
    sum_nu gram_inv[nu][l] X_nu."""
    omega = omega_rho(casimir(data, rep))
    dd = rep.dim * rep.dim
    rho_x = int_to_frac_array(rep.px, rep.sx)
    rho_j = int_to_frac_array(rep.pj, rep.sj)
    ginv = int_to_frac_array(data.ginv, data.sginv)
    jterm = np.full((dd, dd), F(0), dtype=object)
    for l in range(data.dim):
        dual_x = sum(ginv[nu, l] * rho_x[nu] for nu in range(data.dim))
        dual_j = sum(ginv[nu, l] * rho_j[nu] for nu in range(data.dim))
        jterm = (jterm + _frac_kron(rho_j[l], dual_x)
                 - _frac_kron(rho_x[l], dual_j))
    return [frac_identity(dd), -omega,
            jterm + F(1, 2) * (omega @ omega)]


def _reference_solve_intertwiner(data, rep, K):
    """The order-by-order solver on Fraction matrices."""
    d = rep.dim
    dd = d * d
    omega = omega_rho(casimir(data, rep))
    I = frac_identity(dd)
    eye = frac_identity(d)
    # the roots of the cleared matrix A, omega = s A, scaled back by s
    A, s = frac_to_int_array(omega)
    roots = [s * r for r in rational_roots(_min_poly(A))[0]]
    projs = []
    for lam in roots:
        P = I
        for mu in roots:
            if mu != lam:
                P = (P @ (omega - mu * I)) * (F(1) / (lam - mu))
        projs.append(P)
    r = len(projs)
    rho_x = int_to_frac_array(rep.px, rep.sx)
    rho_j = int_to_frac_array(rep.pj, rep.sj)
    xs1 = [_frac_kron(X, eye) for X in rho_x]
    cs, cps = [], []
    for X, X1, J in zip(rho_x, xs1, rho_j):
        X2 = _frac_kron(eye, X)
        jsum = _frac_kron(J, eye) + _frac_kron(eye, J)
        cs.append(jsum + F(1, 2) * (X1 @ omega - omega @ X1))
        cps.append(jsum + F(1, 2) * (X2 @ omega - omega @ X2))
    coms = [[X1 @ P - P @ X1 for P in projs]
            for X1 in xs1]
    coeffs = [I]
    for k in range(K):
        red = SparseReducer()
        for C, Cp, com in zip(cs, cps, coms):
            rhs = coeffs[k] @ Cp - C @ coeffs[k]
            for p in range(dd):
                for q in range(dd):
                    row = {i: com[i][p, q] for i in range(r)
                           if com[i][p, q]}
                    if rhs[p, q]:
                        row[r] = rhs[p, q]
                    if row:
                        red.add(row)
        assert r not in red.rows and r - red.rank <= 1
        c = [F(0)] * r
        for piv, row in red.rows.items():
            c[piv] = F(row.get(r, 0), row[piv])
        nxt = np.full((dd, dd), F(0), dtype=object)
        for ci, P in zip(c, projs):
            if ci:
                nxt = nxt + ci * P
        tr = sum(nxt[i, i] for i in range(dd))
        if tr:
            nxt = nxt - (tr / dd) * I
        coeffs.append(nxt)
    return coeffs


def _assert_frac_series(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert all(type(x) is F for x in a.flat)
        assert (a == b).all()


_ORACLE_ALGEBRAS = [("sl", 2), ("sl", 3), ("so", 3), ("sp", 4)]


class TestAgainstFractionReference:
    @pytest.mark.parametrize("family,N", _ORACLE_ALGEBRAS)
    def test_solver_series(self, family, N):
        data = build_lie(family, N)
        rep = vector_rep(data)
        series = solve_intertwiner(casimir(data, rep), 3)
        _assert_frac_series(series.coeffs,
                            _reference_solve_intertwiner(data, rep, 3))
        closed = closed_form_r(family, N).expand(3)
        ratio = proportional_to(series, closed)
        assert list(ratio.coeffs) == _reference_proportional_to(
            series.coeffs, closed.coeffs)

    @pytest.mark.parametrize("family,N", [("sl", 2), ("so", 3)])
    def test_solver_series_twisted(self, family, N):
        data = build_lie(family, N)
        rep = twisted_rep(data, 2)
        _assert_frac_series(solve_intertwiner(casimir(data, rep), 3).coeffs,
                            _reference_solve_intertwiner(data, rep, 3))

    @pytest.mark.parametrize("family,N", _ORACLE_ALGEBRAS)
    def test_expansion_target_and_ratio(self, family, N):
        data = build_lie(family, N)
        rep = vector_rep(data)
        cas = casimir(data, rep)
        want = _reference_expansion_target(data, rep)
        _assert_frac_series(rmatrix._expansion_target(cas).coeffs, want)
        R = closed_form_r(family, N)
        ratio = _reference_proportional_to(R.expand(2).coeffs, want)
        assert expansion_check(R, cas)["details"] == {
            "ratio": [rat_to_str(c) for c in ratio]}

    @pytest.mark.parametrize("family,N", [("sl", 2), ("sl", 3), ("so", 4),
                                          ("sp", 4)])
    def test_expansion_target_planted_j(self, family, N):
        """The vector and twisted reps make the J-term (J (x) 1 -
        1 (x) J)(Omega) zero; a planted rho(J), a seeded integer stack in
        [-3, 3] over 1/3, makes it nonzero.  closed_form_r is not the R
        of this rho, so only the target is compared."""
        data = build_lie(family, N)
        pj = np.random.default_rng(5).integers(-3, 4, data.basis.shape)
        rep = Representation(data.basis, F(1), pj, F(1, 3))
        want = _reference_expansion_target(data, rep)
        assert (want[2] != F(1, 2) * (want[1] @ want[1])).any()
        _assert_frac_series(
            rmatrix._expansion_target(casimir(data, rep)).coeffs, want)

    @pytest.mark.parametrize("family,N", _ORACLE_ALGEBRAS)
    def test_perturbed_expansion_errors(self, family, N):
        data = build_lie(family, N)
        rep = vector_rep(data)
        want = _reference_expansion_target(data, rep)
        R = closed_form_r(family, N)
        for seed in range(6):
            bad, _entry, _c = _perturbed_r(R, random.Random(seed))
            with pytest.raises(rmatrix.NotProportional) as exc:
                _reference_proportional_to(bad.expand(2).coeffs, want)
            assert expansion_check(bad, casimir(data, rep))["details"] == {
                "error": str(exc.value)}, seed


@st.composite
def _ratio_cases(draw):
    """(g, r2): a rational scalar series g with g_0 = 1 and a scaled
    integer series r2 = s S with s S[0] = I."""
    n = draw(st.sampled_from([1, 2, 4]))
    K = draw(st.integers(0, 3))
    g = [F(1)] + draw(st.lists(st.fractions(-4, 4, max_denominator=6),
                               min_size=K, max_size=K))
    q = draw(st.integers(1, 12))
    S = [q * np.eye(n, dtype=np.int64)] + [
        np.array(draw(st.lists(st.integers(-30, 30), min_size=n * n,
                               max_size=n * n)),
                 dtype=np.int64).reshape(n, n) for _ in range(K)]
    return g, rmatrix.RSeries(S, F(1, q))


def _times(g, r2):
    """g * r2 as an RSeries, on Fraction matrices."""
    c2 = r2.coeffs
    prod = [sum((g[a] * c2[k - a] for a in range(k + 1)),
                np.zeros(c2[0].shape, dtype=object))
            for k in range(len(g))]
    return rmatrix.RSeries(*frac_to_int_array(prod))


@settings(max_examples=60, deadline=None)
@given(_ratio_cases(), st.data())
def test_proportional_to_recovers_the_ratio(case, data):
    g, r2 = case
    r1 = _times(g, r2)
    assert list(proportional_to(r1, r2).coeffs) == g
    n = r2.S.shape[1]
    if n == 1:
        return
    i, j = data.draw(st.sampled_from(
        [(i, j) for i in range(n) for j in range(n) if i != j]))
    # an off-diagonal bump of r1 at order k >= 1 breaks the forward path
    # at k
    if r1.order:
        k = data.draw(st.integers(1, r1.order))
        bad = rmatrix.RSeries(r1.S.astype(object), r1.scale)
        bad.S[k, i, j] += 1
        with pytest.raises(rmatrix.NotProportional,
                           match="^ratio is not scalar at order %d$" % k):
            proportional_to(bad, r2)
    # the forward path never reads the leading terms (r2[0] = I is taken
    # as given), so a bump there, set after construction, is what only
    # back-multiplication sees, at order 0
    bad = rmatrix.RSeries(r2.S.astype(object), r2.scale)
    bad.S[0, i, j] += 1
    with pytest.raises(rmatrix.NotProportional,
                       match="^back-multiplication failed at order 0$"):
        proportional_to(r1, bad)


class TestNoObjectEinsum:
    """numpy 1.24, the oldest supported numpy, has no object-dtype einsum:
    the R-series readers must contract Python-int matrices with matmul
    only."""

    @pytest.fixture(autouse=True)
    def int_only_einsum(self, monkeypatch):
        real = np.einsum

        def guard(*args, **kwargs):
            assert not any(isinstance(a, np.ndarray) and a.dtype == object
                           for a in args), "object-dtype einsum"
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", guard)

    @pytest.mark.parametrize("family,N", [("sl", 2), ("so", 3), ("sp", 4)])
    def test_closed_forms(self, family, N):
        cas = casimir(build_lie(family, N))
        R = closed_form_r(family, N)
        assert expansion_check(R, cas)["status"] == "pass"
        proportional_to(solve_intertwiner(cas, 3), R.expand(3))

    def test_large_coefficients(self):
        R = TestQYBE._scaled_yang()
        data = build_lie("sl", 2)
        rep = vector_rep(data)
        # the rescaled spectral parameter moves R off I - Omega u^{-1}
        with pytest.raises(rmatrix.NotProportional) as exc:
            _reference_proportional_to(
                R.expand(2).coeffs, _reference_expansion_target(data, rep))
        assert expansion_check(R, casimir(data, rep))["details"] == {
            "error": str(exc.value)}
        series = R.expand(3)
        assert series.S.dtype == object
        assert proportional_to(series, series).coeffs == (
            (F(1),) + (F(0),) * 3)
