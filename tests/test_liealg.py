"""Classical Lie algebra layer: dimensions, Casimir closed forms, and
the finite-dimensional verification reports."""

from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from yangkit import liealg, linalg
from yangkit.liealg import (
    InvalidAlgebra,
    Representation,
    build_lie,
    casimir,
    commutant,
    decompose_ad,
    frac_matmul,
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
from yangkit.rmatrix import NonIrreducible, solve_intertwiner

F = Fraction

ALL_CASES = ([("sl", n) for n in range(2, 7)]
             + [("so", n) for n in range(3, 7)]
             + [("sp", n) for n in (2, 4, 6)])


def frac_eye(n):
    return np.array([[F(1) if i == j else F(0) for j in range(n)]
                     for i in range(n)], dtype=object)


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
        # the Gram matrix and the dual basis, contracted on integers, equal
        # the form() table and sum_nu gram_inv[nu][g] X_nu built on
        # Fractions
        data = build_lie(family, N)
        B = data.basis
        gram = tuple(tuple(data.form(X, Y) for Y in B) for X in B)
        assert data.gram == gram
        assert all(type(x) is F for row in data.gram for x in row)
        for g, D in enumerate(data.dual_basis):
            want = np.full((N, N), F(0), dtype=object)
            for nu, X in enumerate(B):
                want = want + data.gram_inv[nu][g] * X
            assert D.shape == (N, N)
            assert all(type(x) is F for x in D.flat)
            assert (D == want).all()
            assert all(data.form(D, X) == (g == nu)
                       for nu, X in enumerate(B))

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
        target = P - F(1, N) * frac_eye(N * N)
        assert (np.array(cas.omega_rho) == target).all()
        assert cas.c_g == 2 * N

    @pytest.mark.parametrize("family,N",
                             [("so", n) for n in range(3, 7)]
                             + [("sp", n) for n in (2, 4, 6)])
    def test_sosp_closed_form(self, family, N):
        data = build_lie(family, N)
        cas = casimir(data)
        P = permutation_matrix(N)
        Q = q_matrix(data)
        assert (np.array(cas.omega_rho) == P - Q).all()
        assert cas.c_g == 4 * data.kappa


class TestVerification:
    @pytest.mark.parametrize("family,N", [("sl", 2), ("so", 3), ("sp", 4)])
    def test_all_reports_pass(self, family, N):
        data = build_lie(family, N)
        rep = vector_rep(data)
        for fn in (verify_classical_presentation,
                   verify_extension_split,
                   verify_yangian_module):
            assert fn(data, rep)["status"] == "pass"
        assert verify_current_presentation(data, rep, 3)["status"] == "pass"


class TestTwistedRep:
    """rho(J(X)) = 2 rho(X), the tau_2 shift of the vector representation:
    the paths that only a nonzero rho(J) reaches (YJ4 computed, the
    commutant with rho(J), the E part of decompose_ad)."""

    @pytest.mark.parametrize("family,N", [("sl", 2), ("so", 3), ("sp", 4)])
    def test_reports_and_commutants(self, family, N):
        data = build_lie(family, N)
        rep = twisted_rep(data, 2)
        for fn in (verify_classical_presentation,
                   verify_extension_split,
                   verify_yangian_module):
            assert fn(data, rep)["status"] == "pass"
        assert verify_current_presentation(data, rep, 3)["status"] == "pass"
        ym = verify_yangian_module(data, rep)
        assert ym["details"]["YJ4-mode"] == "computed"
        assert len(commutant(rep, False)) == len(commutant(rep, True)) == 1
        assert (decompose_ad(data, rep).dims()
                == decompose_ad(data, vector_rep(data)).dims())


def _vector_plus_trivial(data):
    """V (+) C with rho(X) = X (+) 0 and rho(J) = 0."""
    def pad(X):
        m = np.full((data.N + 1, data.N + 1), F(0), dtype=object)
        m[:data.N, :data.N] = X
        return m
    zero = np.full((data.N, data.N), F(0), dtype=object)
    return Representation(tuple(pad(X) for X in data.basis),
                          tuple(pad(zero) for _ in data.basis), data.N + 1)


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
def _near_float_limit(draw):
    """int64 matrices whose bound inner * max|a| * max|b| lies just below
    or just above 2**53.  Entries are near-maximal and, in about half of
    the matrices, all of one sign, so that the true sums come close to the
    bound."""
    inner = draw(st.integers(2, 64))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    amax = 2 ** 26 + draw(st.integers(-2 ** 10, 2 ** 10))
    bmax = (2 ** 53 // (inner * amax)
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


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.integers(-2 ** 60, 2 ** 60),
                          st.fractions(max_denominator=10 ** 6)),
                min_size=1, max_size=12),
       st.fractions(max_denominator=50).filter(bool))
def test_scaled_int_round_trip(entries, scale):
    """frac_to_int_array clears to the least common denominator;
    int_to_frac_array reads the integers back over any scale."""
    ints, s = liealg.frac_to_int_array(entries, wide=True)
    assert s == F(1, lcm(*[F(x).denominator for x in entries]))
    back = liealg.int_to_frac_array(ints, s)
    assert all(type(x) is F for x in back) and list(back) == entries
    assert list(liealg.int_to_frac_array(ints, scale)) == [
        F(int(x)) * scale for x in ints]
    if any(abs(x) >= liealg._INT_LIMIT for x in ints):
        assert ints.dtype == object
        with pytest.raises(liealg.OverflowGuard):
            liealg.frac_to_int_array(entries)


def _reference_min_poly(m):
    """Least-degree monic p with p(M) = 0, from the first power of M that
    depends on the lower ones (dense Fraction arithmetic)."""
    n = len(m)
    M = np.array(m, dtype=object)
    powers = [frac_eye(n)]
    while True:
        nxt = frac_matmul(powers[-1], M)
        rows = [[P.flat[i] for P in powers] for i in range(n * n)]
        sol = linalg.solve(rows, list(nxt.flat), len(powers))
        if sol is not None:
            return tuple([-c for c in sol] + [F(1)])
        powers.append(nxt)


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
    return frac_matmul(frac_matmul(U, T), U_inv).tolist()


@settings(max_examples=100, deadline=None)
@given(_rational_matrices())
def test_min_poly_matches_reference(m):
    """The integer Krylov iteration returns the exact monic Fraction
    minimal polynomial of a rational matrix, scale included."""
    got = liealg._min_poly(m, len(m))
    assert got == _reference_min_poly(m)
    assert all(type(c) is F for c in got)


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
        c = np.array(dec.c_table, dtype=object)
        a = np.array(dec.a_table, dtype=object)
        assert (frac_matmul(c, a) == np.identity(N * N, dtype=int)).all()
