"""Rational R-matrices for the classical families, exact QYBE and
unitarity certification, and the order-by-order intertwining-equation
solver with its proportionality and expansion checks.

R-matrices act on V (x) V with V the vector module.  An R-matrix is held
as one monic scalar denominator over an integer matrix polynomial,
R(u) = s (C_0 + C_1 u + ... + C_d u^d) / D(u) (see RMat), so no check
normalizes a rational function per entry.  QYBE is certified by clearing
that one scalar on both sides and comparing integer matrix products on
an interpolation-complete grid; unitarity multiplies the coefficient
matrices; u^{-1}-expansions expand 1/D once.
"""

from fractions import Fraction
from math import comb, gcd, lcm

import numpy as np

from .exact import (ONE, ZERO, PoleError, RationalFunction, TruncSeries,
                    certify_bivariate_identity, poly_compose_linear,
                    poly_divmod, poly_eval, poly_gcd, poly_lcm, poly_mul,
                    rat_to_str, series_inverse)
from . import linalg
from .liealg import (_INT_LIMIT, build_lie, casimir, checked_einsum,
                     commutant, frac_kron, frac_matmul, frac_to_int_array,
                     int_to_frac_array, permutation_matrix, q_matrix,
                     safe_axpy, safe_matmul, _max_abs, _min_poly,
                     _rational_roots, _Tensors)


class UnitarityFailure(RuntimeError):
    pass


class NotAModule(RuntimeError):
    pass


class NonIrreducible(RuntimeError):
    pass


class NotProportional(RuntimeError):
    pass


def _combine(rows, shape):
    """Exact integer-matrix combinations with rational weights.

    ``rows[k]`` lists (weight, integer matrix) pairs.  Returns (S, s): S
    stacks one integer matrix per row (int64, or Python ints where int64
    could overflow) and s = 1/q with q the least common denominator, so
    that s * S[k] is the sum of weight * matrix over ``rows[k]``.
    """
    q = 1
    for row in rows:
        for c, _ in row:
            q = lcm(q, c.denominator)
    mats = []
    for row in rows:
        acc = np.zeros(shape, dtype=np.int64)
        for c, m in row:
            if c:
                acc = safe_axpy(acc, c.numerator * (q // c.denominator), m)
        mats.append(acc)
    S = np.array(mats)
    g = gcd(q, int(np.gcd.reduce(S.ravel())))
    if g > 1:
        S //= g
        q //= g
    if S.dtype == object and _max_abs(S) < _INT_LIMIT:
        S = S.astype(np.int64)
    return S, Fraction(1, q)


class RMat:
    """R(u) = scale * (sum_m coeffs[m] u^m) / den(u) on V (x) V.

    ``den`` is D(u), the monic lcm of the entry denominators (ascending
    Fraction coefficients).  ``coeffs`` stacks the integer matrices C_0 ..
    C_deg, shape (deg + 1, N^2, N^2), int64 or Python ints where int64
    could overflow; C_deg is nonzero unless R = 0.  ``scale`` = 1/q with
    q the least common denominator of scale * C, so the C_m are the
    cleared integer matrices of q D(u) R(u).  ``RMat(entries, N)`` clears
    an N^2 x N^2 array of RationalFunction once; ``from_poly`` takes
    (D, C) directly.

    Cost, with n = N^2 and d = deg D: check_qybe evaluates sum_m C_m w^m
    with d integer axpys of n x n per grid value; check_unitarity takes
    (d + 1)^2 integer n x n products; expand(K) and eval_at expand 1/D
    once and take d + 1 axpys per output matrix.  Only the ``entries``
    view builds a RationalFunction per entry.
    """

    __slots__ = ("N", "den", "coeffs", "scale")

    def __init__(self, entries, N):
        nn = N * N
        if entries.shape != (nn, nn):
            raise ValueError("R-matrix must be N^2 x N^2")
        den = (ONE,)
        for d in {e.den for e in entries.flat}:
            den = poly_lcm(den, d)
        polys = [poly_mul(e.num, poly_divmod(den, e.den)[0])
                 for e in entries.flat]
        top = max(1, max(len(p) for p in polys))
        stack = [[p[m] if m < len(p) else ZERO for p in polys]
                 for m in range(top)]
        ints, self.scale = frac_to_int_array(stack, wide=True)
        self.coeffs = ints.reshape(top, nn, nn)
        self.den = den
        self.N = N

    @classmethod
    def from_poly(cls, N, den, coeffs, scale=ONE):
        """R(u) = scale * (sum_m coeffs[m] u^m) / den(u) for integer
        matrices ``coeffs`` over a monic common denominator ``den``, which
        is reduced to the lcm of the entry denominators."""
        coeffs = np.asarray(coeffs)
        if coeffs.shape[1:] != (N * N, N * N) or den[-1] != 1:
            raise ValueError("need N^2 x N^2 matrices over a monic "
                             "denominator")
        while len(coeffs) > 1 and not coeffs[-1].any():
            coeffs = coeffs[:-1]
        R = object.__new__(cls)
        R.N = N
        R.den = tuple(Fraction(c) for c in den)
        R.coeffs, R.scale = _combine([[(Fraction(scale), c)]
                                      for c in coeffs], (N * N, N * N))
        # den is the lcm unless it shares a factor with every entry
        g = R.den
        for col in R.coeffs.reshape(len(R.coeffs), -1).T:
            if len(g) == 1:
                break
            if col.any():
                g = poly_gcd(g, tuple(Fraction(int(c)) for c in col))
        if len(g) > 1:
            # a pole cancels in every entry: clear the reduced entries
            return cls(R.entries, N)
        return R

    def __add__(self, other):
        den = poly_lcm(self.den, other.den)
        rows = {}
        for R in (self, other):
            for j, qj in enumerate(poly_divmod(den, R.den)[0]):
                for m, c in enumerate(R.coeffs):
                    rows.setdefault(j + m, []).append((R.scale * qj, c))
        C, s = _combine([rows[k] for k in range(max(rows) + 1)],
                        self.coeffs.shape[1:])
        return RMat.from_poly(self.N, den, C, s)

    @property
    def entries(self):
        """Read-only N^2 x N^2 array of RationalFunction, built on each
        read."""
        nn = self.N * self.N
        out = np.empty((nn, nn), dtype=object)
        for i in range(nn):
            for j in range(nn):
                out[i, j] = RationalFunction(
                    [self.scale * int(c) for c in self.coeffs[:, i, j]],
                    self.den)
        out.flags.writeable = False
        return out

    def numerator(self):
        """Fraction matrices A_0 .. A_deg with D(u) R(u) = sum_m A_m u^m."""
        return [int_to_frac_array(c, self.scale) for c in self.coeffs]

    def shifted(self, a):
        """R(u - a)."""
        a = Fraction(a)
        top = len(self.coeffs) - 1
        # sum_m C_m (u - a)^m = sum_k u^k sum_{m >= k} binom(m, k)
        # (-a)^(m - k) C_m
        C, s = _combine(
            [[(self.scale * comb(m, k) * (-a) ** (m - k), self.coeffs[m])
              for m in range(k, top + 1)] for k in range(top + 1)],
            self.coeffs.shape[1:])
        return RMat.from_poly(
            self.N, poly_compose_linear(self.den, ONE, -a), C, s)

    def expand_scaled(self, K):
        """(S, s) with R(u) = sum_{k <= K} s S[k] u^{-k} + O(u^{-K-1}):
        S an integer stack of shape (K + 1, N^2, N^2) and s = 1/q, q the
        least common denominator."""
        d = len(self.den) - 1
        if len(self.coeffs) - 1 > d:
            raise ValueError("not proper at infinity")
        # u^m / D(u) = u^(m - d) / rev D(1/u) with rev D(0) = 1 (D monic),
        # so its u^-k coefficient is inv[k - d + m], inv = 1 / rev D
        rev = tuple(reversed(self.den)) + (ZERO,) * K
        inv = series_inverse(TruncSeries(rev[:K + 1])).coeffs
        return _combine(
            [[(self.scale * inv[k - d + m], c)
              for m, c in enumerate(self.coeffs) if k - d + m >= 0]
             for k in range(K + 1)], self.coeffs.shape[1:])

    def expand(self, K):
        """RSeries of the u^{-1}-expansion to order K."""
        S, s = self.expand_scaled(K)
        return RSeries([int_to_frac_array(m, s) for m in S])

    def eval_at(self, u):
        """Exact Fraction matrix R(u); raises PoleError at poles."""
        d = poly_eval(self.den, u)
        if d == 0:
            raise PoleError("pole at u=%s" % (u,))
        u = Fraction(u)
        S, s = _combine([[(u ** m, c) for m, c in enumerate(self.coeffs)]],
                        self.coeffs.shape[1:])
        return int_to_frac_array(S[0], s * self.scale / d)


class RSeries:
    """Truncated expansion R(u) = sum_k R^(k) u^{-k}, R^(0) = I."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)
        nn = self.coeffs[0].shape[0]
        if not (self.coeffs[0] == np.array(
                [[ONE if i == j else ZERO for j in range(nn)]
                 for i in range(nn)], dtype=object)).all():
            raise ValueError("leading coefficient must be the identity")

    @property
    def order(self):
        return len(self.coeffs) - 1

    def to_json(self):
        return {"order": self.order,
                "coeffs": [[[rat_to_str(x) for x in row] for row in c]
                           for c in self.coeffs]}


def yang_r(N):
    """R(u) = I - P u^{-1} = (u I - P) / u on the N-dimensional vector
    module."""
    if N < 2:
        raise ValueError("N >= 2 required")
    P = permutation_matrix(N).astype(np.int64)
    return RMat.from_poly(N, (ZERO, ONE),
                          [-P, np.eye(N * N, dtype=np.int64)])


def sosp_r(family, N):
    """R(u) = I - P u^{-1} + Q (u - kappa)^{-1} for so_N / sp_N, that is
    u (u - kappa) R(u) = u^2 I - u (kappa I + P - Q) + kappa P."""
    data = build_lie(family, N)
    # P and Q have entries 0 and +-1
    P = permutation_matrix(N).astype(np.int64)
    Q = q_matrix(data).astype(np.int64)
    I = np.eye(N * N, dtype=np.int64)
    k = data.kappa
    p, q = k.numerator, k.denominator
    return RMat.from_poly(N, (ZERO, -k, ONE),
                          [p * P, -(p * I + q * P - q * Q), q * I],
                          Fraction(1, q))


def closed_form_r(family, N):
    """The closed-form R-matrix of sl_N, so_N or sp_N."""
    return yang_r(N) if family == "sl" else sosp_r(family, N)


# ---------------------------------------------------------------------------
# QYBE

# the two axes of V^(x)3 (as (a, b, c, x, y, z)) that the identity factor
# ties together when an N^2 x N^2 matrix sits on legs 12, 13 or 23
_LEG_FREE = {"12": (2, 5), "13": (1, 4), "23": (0, 3)}


def _leg(m, N, leg):
    """Embed an N^2 x N^2 integer matrix as leg "12", "13" or "23" of
    V^(x)3.  The entries of m are copied, never combined, so the result
    keeps m's dtype (int64 or Python ints)."""
    n3 = N ** 3
    m4 = m.reshape(N, N, N, N)
    out = np.zeros((N,) * 6, dtype=m.dtype)
    p, q = _LEG_FREE[leg]
    for i in range(N):
        idx = [slice(None)] * 6
        idx[p] = idx[q] = i
        out[tuple(idx)] = m4
    return out.reshape(n3, n3)


def check_qybe(R):
    """Certify R12(u-v) R13(u) R23(v) = R23(v) R13(u) R12(u-v) exactly.

    Both sides are multiplied by q^3 D(u-v) D(u) D(v), which turns every
    factor R(w) into the integer matrix polynomial C(w) = sum_m C_m w^m.
    """
    C = R.coeffs
    N = R.N
    deg = len(C) - 1
    legs = {}

    def factor(leg, w):
        # each leg factor is built once per call: lhs and rhs share it, and
        # so do all grid points with the same u, v or u - v
        key = (leg, w)
        if key not in legs:
            m = C[deg]
            for c in reversed(C[:deg]):
                m = safe_axpy(c, w, m)
            legs[key] = _leg(m, N, leg)
        return legs[key]

    def side(u, v, left):
        a12 = factor("12", int(u - v))
        a13 = factor("13", int(u))
        a23 = factor("23", int(v))
        if left:
            return safe_matmul(safe_matmul(a12, a13), a23)
        return safe_matmul(safe_matmul(a23, a13), a12)

    # the cleared sides are polynomial in (u, v): every factor contributes
    # at most deg to each variable through u, v, or u - v
    bound = (2 * deg, 2 * deg)
    return certify_bivariate_identity(
        lambda u, v: side(u, v, True),
        lambda u, v: side(u, v, False), bound)


# ---------------------------------------------------------------------------
# unitarity

def check_unitarity(R):
    """R12(u) R21(-u); returns the scalar f(u) if the product is f(u) I.

    The product is s^2 C(u) C21(-u) / (D(u) D(-u)) with C21 = P C P, so
    its numerator coefficients are sums of the (d + 1)^2 integer products
    C_m C21_k; each must be a scalar matrix.
    """
    N = R.N
    nn = N * N
    C = R.coeffs
    n = len(C)
    C21 = C.reshape(n, N, N, N, N).transpose(0, 2, 1, 4, 3).reshape(
        n, nn, nn)
    prod = [None] * (2 * n - 1)
    for m in range(n):
        for k in range(n):
            prod[m + k] = safe_axpy(prod[m + k], (-1) ** k,
                                    safe_matmul(C[m], C21[k]))
    eye = np.eye(nn, dtype=bool)
    bad = np.zeros((nn, nn), dtype=bool)
    for p in prod:
        bad |= np.where(eye, p != p[0, 0], p != 0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise UnitarityFailure(
            "product is not scalar at entry (%d, %d)" % (i, j))
    minus = tuple(-c if i % 2 else c for i, c in enumerate(R.den))
    return RationalFunction([R.scale ** 2 * int(p[0, 0]) for p in prod],
                            poly_mul(R.den, minus))


# ---------------------------------------------------------------------------
# intertwiner solver

def _identity(nn):
    return np.array([[ONE if i == j else ZERO for j in range(nn)]
                     for i in range(nn)], dtype=object)


def _commutant_projections(omega, nn):
    """Spectral projections of Omega_rho: a commutant basis when V (x) V
    is multiplicity-free over g."""
    rows = [list(omega[i]) for i in range(nn)]
    mp = _min_poly(rows, nn)
    roots, rem = _rational_roots(mp)
    if len(rem) > 1:
        raise NonIrreducible(
            "Omega_rho has irrational eigenvalues on V (x) V")
    projs = []
    I = _identity(nn)
    for lam in roots:
        P = I
        for mu in roots:
            if mu == lam:
                continue
            P = frac_matmul(P, omega - mu * I) * (ONE / (lam - mu))
        projs.append(P)
    return projs, roots


def solve_intertwiner(data, rep, K):
    """Solve the intertwining equation order by order to u^{-K}.

    Each order is forced into the commutant of the diagonal g-action (the
    v-linear constraint) and determined by the graded recursion
    [X_1, R^(k+1)] = R^(k) C'_X - C_X R^(k); the scalar line is fixed by
    the traceless normalization.  All equations are re-verified exactly
    after each solve.
    """
    d = rep.dim
    dd = d * d

    # irreducibility of V over g: the commutant of rho(g) is scalar
    if len(commutant(rep, False)) != 1:
        raise NonIrreducible("V is not irreducible over g")

    omega = casimir(data, rep).omega_rho
    I = _identity(dd)
    eye = _identity(d)

    projs, _roots = _commutant_projections(omega, dd)
    r = len(projs)

    xs1 = [frac_kron(X, eye) for X in rep.rho_X]
    xs2 = [frac_kron(eye, X) for X in rep.rho_X]
    cs = []
    cps = []
    for X, X1, X2, J in zip(rep.rho_X, xs1, xs2, rep.rho_J):
        jsum = frac_kron(J, eye) + frac_kron(eye, J)
        half = Fraction(1, 2)
        cs.append(jsum + half * (frac_matmul(X1, omega)
                                 - frac_matmul(omega, X1)))
        cps.append(jsum + half * (frac_matmul(X2, omega)
                                  - frac_matmul(omega, X2)))
        # v-linear constraint holds for the whole commutant candidate set
        dx = X1 + X2
        if (frac_matmul(dx, omega) != frac_matmul(omega, dx)).any():
            raise NotAModule("Omega_rho does not commute with the "
                             "diagonal action")

    coms = [[frac_matmul(X1, P) - frac_matmul(P, X1)
             for P in projs] for X1 in xs1]

    coeffs = [I]
    for k in range(K):
        red = linalg.SparseReducer()
        for X1, C, Cp, com in zip(xs1, cs, cps, coms):
            rhs = frac_matmul(coeffs[k], Cp) - frac_matmul(C, coeffs[k])
            for p in range(dd):
                for q in range(dd):
                    row = {i: com[i][p, q] for i in range(r)
                           if com[i][p, q]}
                    if rhs[p, q]:
                        row[r] = rhs[p, q]
                    if row:
                        red.add(row)
        if r in red.rows:
            raise NotAModule("intertwining system inconsistent at order %d"
                             % (k + 1,))
        free = r - red.rank
        if free > 1:
            raise NonIrreducible(
                "solution ambiguity exceeds the scalar line at order %d"
                % (k + 1,))
        c = [ZERO] * r
        for piv, row in red.rows.items():
            c[piv] = Fraction(row.get(r, 0), row[piv])
        nxt = np.full((dd, dd), ZERO, dtype=object)
        for ci, P in zip(c, projs):
            if ci:
                nxt = nxt + ci * P
        tr = sum(nxt[i, i] for i in range(dd))
        if tr:
            nxt = nxt - (tr / dd) * I
        # unconditional re-verification of the order-(k+1) equations
        for X1, C, Cp in zip(xs1, cs, cps):
            lhs = frac_matmul(X1, nxt) - frac_matmul(nxt, X1)
            rhs = frac_matmul(coeffs[k], Cp) - frac_matmul(C, coeffs[k])
            if (lhs != rhs).any():
                raise NotAModule("re-verification failed at order %d"
                                 % (k + 1,))
        for X1, X2 in zip(xs1, xs2):
            dx = X1 + X2
            if (frac_matmul(dx, nxt) != frac_matmul(nxt, dx)).any():
                raise NotAModule("v-linear constraint failed at order %d"
                                 % (k + 1,))
        coeffs.append(nxt)
    if K >= 1 and (coeffs[1] != -omega).any():
        raise NotAModule("normalization failed to reproduce -Omega_rho")
    return RSeries(coeffs)


# ---------------------------------------------------------------------------
# proportionality and expansion

def proportional_to(r1, r2):
    """Scalar series g(u) with r1 = g(u) * r2 through r1's order."""
    if isinstance(r2, RMat):
        r2 = r2.expand(r1.order)
    if r2.order < r1.order:
        raise ValueError("second series has lower order")
    K = r1.order
    nn = r1.coeffs[0].shape[0]
    g = [ONE]
    for k in range(1, K + 1):
        M = r1.coeffs[k].copy()
        for a in range(k):
            if g[a]:
                M = M - g[a] * r2.coeffs[k - a]
        scal = M[0, 0]
        for i in range(nn):
            for j in range(nn):
                want = scal if i == j else ZERO
                if M[i, j] != want:
                    raise NotProportional(
                        "ratio is not scalar at order %d" % k)
        g.append(scal)
    # back-multiplication check
    for k in range(K + 1):
        acc = np.full((nn, nn), ZERO, dtype=object)
        for a in range(k + 1):
            if g[a]:
                acc = acc + g[a] * r2.coeffs[k - a]
        if (acc != r1.coeffs[k]).any():
            raise NotProportional("back-multiplication failed at order %d"
                                  % k)
    return TruncSeries(g)


def expansion_check(R, data, rep):
    """Check R's expansion against I - Omega u^{-1} +
    ((J (x) 1 - 1 (x) J)(Omega) + Omega^2/2) u^{-2} up to a scalar series."""
    t = _Tensors(data, rep)
    omega = t.casimir_data().omega_rho
    dd = rep.dim * rep.dim
    # (J (x) 1 - 1 (x) J)(Omega) with Omega = sum X_l (x) X^l
    pj, sj = rep.int_j()
    pjd, sjd = t.dual(pj, sj)
    t1 = checked_einsum("lac,lbd->abcd", pj, t.pd).reshape(dd, dd)
    t2 = checked_einsum("lac,lbd->abcd", t.px, pjd).reshape(dd, dd)
    jterm = (int_to_frac_array(t1, sj * t.sd)
             - int_to_frac_array(t2, t.sx * sjd))
    target = RSeries([
        _identity(dd),
        -omega,
        jterm + Fraction(1, 2) * frac_matmul(omega, omega),
    ])
    got = R.expand(2)
    details = {}
    try:
        g = proportional_to(got, target)
        details["ratio"] = [rat_to_str(c) for c in g.coeffs]
        status = "pass"
    except NotProportional as exc:
        details["error"] = str(exc)
        status = "fail"
    return {"check": "expansion", "family": data.family, "N": data.N,
            "status": status, "details": details}
