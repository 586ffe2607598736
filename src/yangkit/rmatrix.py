"""Rational R-matrices for the classical families, exact QYBE and
unitarity certification, and the order-by-order intertwining-equation
solver with its proportionality and expansion checks.

R-matrices act on V (x) V with V the vector module.  An R-matrix is held
as one monic scalar denominator over an integer matrix polynomial,
R(u) = s (C_0 + C_1 u + ... + C_d u^d) / D(u) (see RMat), so no check
normalizes a rational function per entry.  D is the denominator the
builder gives; each builder here (yang_r, sosp_r, RMat.shifted) gives the
lcm of the entry denominators, but no check needs it to be.  QYBE is
certified by clearing that one scalar on both sides and comparing
integer matrix products on an interpolation-complete grid; unitarity
multiplies the coefficient matrices; u^{-1}-expansions expand 1/D once.
A truncated expansion (RSeries) is likewise one integer stack over one
scale, and the intertwiner solver, the proportionality test and the
expansion check run on integer matrices throughout; Fractions appear
only in reports.
"""

from fractions import Fraction
from math import comb, gcd, lcm

import numpy as np

from .exact import (ONE, ZERO, TruncSeries, certify_bivariate_identity,
                    check_report, poly_divmod, poly_gcd, poly_mul, poly_scale,
                    poly_trim, rat_to_str, series_inverse)
from . import linalg
from .liealg import (_FLOAT_LIMIT, _FLOAT_MIN_INNER, _INT_LIMIT, build_lie,
                     checked_einsum, commutant, int_to_frac_array, on_legs,
                     permutation_matrix, q_matrix, safe_axpy, safe_matmul,
                     scaled_equal, _is_scalar, _max_abs, _min_poly,
                     _integer_roots)


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
        # the sum carries its bound, so only each term's matrix is scanned
        acc, accb = np.zeros(shape, dtype=np.int64), 0
        for c, m in row:
            if c:
                k = c.numerator * (q // c.denominator)
                mb = _max_abs(m)
                acc = safe_axpy(acc, k, m, accb, mb)
                accb += abs(k) * mb
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

    ``den`` is D(u), the monic common denominator the builder gives
    (ascending Fraction coefficients), kept as given: the library builders
    give the lcm of the entry denominators, and every reader is exact over
    any common denominator.  ``coeffs`` stacks the integer matrices C_0 ..
    C_deg, shape (deg + 1, N^2, N^2), int64 or Python ints where int64
    could overflow; C_deg is nonzero unless R = 0.  ``scale`` = 1/q with
    q the least common denominator of scale * C, so the C_m are the
    cleared integer matrices of q D(u) R(u).

    Cost, with n = N^2 and d = deg D: check_qybe evaluates sum_m C_m w^m
    with d integer axpys of n x n per grid value; check_unitarity takes
    (d + 1)^2 integer n x n products; expand(K) expands 1/D once and takes
    d + 1 axpys per output matrix.  No reader builds a rational function
    per entry.
    """

    __slots__ = ("N", "den", "coeffs", "scale")

    def __init__(self, N, den, coeffs, scale=ONE):
        """R(u) = scale * (sum_m coeffs[m] u^m) / den(u) for integer
        matrices ``coeffs`` over a monic common denominator ``den``,
        which is stored as given."""
        nn = N * N
        coeffs = np.asarray(coeffs)
        if coeffs.shape[1:] != (nn, nn) or den[-1] != 1:
            raise ValueError("need N^2 x N^2 matrices over a monic "
                             "denominator")
        den = tuple(Fraction(c) for c in den)
        while len(coeffs) > 1 and not coeffs[-1].any():
            coeffs = coeffs[:-1]
        self.N = N
        self.den = den
        self.coeffs, self.scale = _combine(
            [[(Fraction(scale), c)] for c in coeffs], (nn, nn))

    def shifted(self, a):
        """R(u - a)."""
        a = Fraction(a)

        def taylor(top):
            # sum_m X_m (u - a)^m = sum_k u^k sum_{m >= k} binom(m, k)
            # (-a)^(m - k) X_m: for each k, the (weight, m) pairs
            return [[(comb(m, k) * (-a) ** (m - k), m)
                     for m in range(k, top + 1)] for k in range(top + 1)]

        C, s = _combine(
            [[(self.scale * w, self.coeffs[m]) for w, m in ws]
             for ws in taylor(len(self.coeffs) - 1)], self.coeffs.shape[1:])
        den = [sum(w * self.den[m] for w, m in ws)
               for ws in taylor(len(self.den) - 1)]
        return RMat(self.N, den, C, s)

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
        return RSeries(*self.expand_scaled(K))


class RSeries:
    """Truncated expansion R(u) = scale * sum_k S[k] u^{-k}, R^(0) = I.

    ``S`` stacks the integer matrices (int64, or Python ints where int64
    could overflow), shape (K + 1, n, n), over one Fraction ``scale``: the
    (S, s) of :meth:`RMat.expand_scaled`.  ``coeffs``, the Fraction
    matrices R^(k), is a view built on each read.
    """

    __slots__ = ("S", "scale")

    def __init__(self, S, scale):
        self.S = np.asarray(S)
        self.scale = Fraction(scale)
        lead = self.S[0]
        if not (_is_scalar(lead) and self.scale * int(lead[0, 0]) == 1):
            raise ValueError("leading coefficient must be the identity")

    @property
    def order(self):
        return len(self.S) - 1

    @property
    def coeffs(self):
        """The Fraction matrices R^(0) .. R^(K), built on each read."""
        return [int_to_frac_array(m, self.scale) for m in self.S]

    def to_json(self):
        return {"order": self.order,
                "coeffs": [[[rat_to_str(x) for x in row] for row in c]
                           for c in self.coeffs]}


def yang_r(N):
    """R(u) = I - P u^{-1} = (u I - P) / u on the N-dimensional vector
    module."""
    if N < 2:
        raise ValueError("N >= 2 required")
    P = permutation_matrix(N)
    return RMat(N, (ZERO, ONE), [-P, np.eye(N * N, dtype=np.int64)])


def sosp_r(family, N):
    """R(u) = I - P u^{-1} + Q (u - kappa)^{-1} for so_N / sp_N, that is
    u (u - kappa) R(u) = u^2 I - u (kappa I + P - Q) + kappa P."""
    data = build_lie(family, N)
    P = permutation_matrix(N)
    Q = q_matrix(data)
    I = np.eye(N * N, dtype=np.int64)
    k = data.kappa
    p, q = k.numerator, k.denominator
    return RMat(N, (ZERO, -k, ONE), [p * P, -(p * I + q * P - q * Q), q * I],
                Fraction(1, q))


def closed_form_r(family, N):
    """The closed-form R-matrix of sl_N, so_N or sp_N."""
    return yang_r(N) if family == "sl" else sosp_r(family, N)


# ---------------------------------------------------------------------------
# QYBE

def check_qybe(R):
    """Certify R12(u-v) R13(u) R23(v) = R23(v) R13(u) R12(u-v) exactly.

    Both sides are multiplied by q^3 D(u-v) D(u) D(v), which turns every
    factor R(w) into the integer matrix polynomial C(w) = sum_m C_m w^m.
    Each leg factor is built once per call by Horner's rule, with the
    bound sum_m max|C_m| |w|^m on its entries, and both sides are
    safe_matmul chains that carry these bounds (n * b * b', n = N^3).
    From n = _FLOAT_MIN_INNER on, a factor whose bound is below 2**53 is
    held as float64, so a chain that its bounds prove runs in float64
    BLAS with no cast or scan; safe_matmul takes any product they do not
    prove to its int64 or Python-int route.
    """
    C = R.coeffs
    N = R.N
    n = N ** 3
    deg = len(C) - 1
    cmax = [_max_abs(c) for c in C]
    legs = {}

    def factor(leg, w):
        # lhs and rhs share each factor, and so do all grid points with
        # the same u, v or u - v
        key = (leg, w)
        if key not in legs:
            m, mb = C[deg], cmax[deg]
            for i in range(deg - 1, -1, -1):
                m = safe_axpy(C[i], w, m, cmax[i], mb)
                mb = cmax[i] + abs(w) * mb
            if n >= _FLOAT_MIN_INNER and mb < _FLOAT_LIMIT:
                m = m.astype(np.float64)
            legs[key] = on_legs(m, N, 3, leg), mb
        return legs[key]

    def chain(x, y, z):
        (a, ab), (b, bb), (c, cb) = x, y, z
        return safe_matmul(safe_matmul(a, b, ab, bb), c, n * ab * bb, cb)

    def side(u, v, left):
        a12 = factor((0, 1), int(u - v))
        a13 = factor((0, 2), int(u))
        a23 = factor((1, 2), int(v))
        return chain(a12, a13, a23) if left else chain(a23, a13, a12)

    # the cleared sides are polynomial in (u, v): every factor contributes
    # at most deg to each variable through u, v, or u - v
    bound = (2 * deg, 2 * deg)
    return certify_bivariate_identity(
        lambda u, v: side(u, v, True),
        lambda u, v: side(u, v, False), bound)


# ---------------------------------------------------------------------------
# unitarity

def check_unitarity(R):
    """R12(u) R21(-u); if the product is f(u) I, returns f = num / den
    reduced: ascending Fraction tuples with den monic and gcd(num, den)
    = 1.

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
    num = poly_trim([R.scale ** 2 * int(p[0, 0]) for p in prod])
    den = poly_mul(R.den, minus)
    g = poly_gcd(num, den)
    num, den = poly_divmod(num, g)[0], poly_divmod(den, g)[0]
    return poly_scale(num, ONE / den[-1]), poly_scale(den, ONE / den[-1])


# ---------------------------------------------------------------------------
# intertwiner solver

def _bracket(a, b):
    """Exact commutator ab - ba of integer matrices."""
    return safe_axpy(safe_matmul(a, b), -1, safe_matmul(b, a))


def _commutant_projections(om, nn):
    """Spectral projections of Omega_rho, given as an integer matrix om
    with Omega_rho = s om (the scale s moves no projection): a commutant
    basis when V (x) V is multiplicity-free over g.  Returns the
    projections as (integer matrix, Fraction scale) pairs."""
    mp = _min_poly(om)
    roots, rem = _integer_roots(mp)
    if len(rem) > 1:
        raise NonIrreducible(
            "Omega_rho has irrational eigenvalues on V (x) V")
    eye = np.eye(nn, dtype=np.int64)
    projs = []
    for lam in roots:
        P, s = eye, ONE
        for mu in roots:
            if mu == lam:
                continue
            # the factor (om - mu) / (lam - mu), mu an integer
            P = safe_matmul(P, safe_axpy(om, -mu, eye))
            s /= lam - mu
        projs.append((P, s))
    return projs


def solve_intertwiner(t, K):
    """Solve the intertwining equation of t order by order to u^{-K}.

    Each order is forced into the commutant of the diagonal g-action (the
    v-linear constraint) and determined by the graded recursion
    [X_1, R^(k+1)] = R^(k) C'_X - C_X R^(k); the scalar line is fixed by
    the traceless normalization.  All equations are re-verified exactly
    after each solve.

    Every matrix is an integer matrix with one Fraction scale.  The
    unknown R^(k+1) = sum_i c_i P_i runs over the spectral projections P_i
    of Omega_rho; the system's column i is the integer commutator table
    of P_i, with scale s_i, and its right-hand side has scale s_rhs, so
    the integer solution x of sum_i x_i [X_1, P_i] = rhs gives c_i =
    x_i s_rhs / s_i.
    """
    d = t.d
    dd = d * d

    # irreducibility of V over g: the commutant of rho(g) is scalar
    if len(commutant(t.rep, False)) != 1:
        raise NonIrreducible("V is not irreducible over g")

    om, som = t.omt.reshape(dd, dd), t.somt
    projs = _commutant_projections(om, dd)
    r = len(projs)

    eye = np.eye(d, dtype=np.int64)
    pj, sj = t.rep.pj, t.rep.sj
    xs1 = [np.kron(X, eye) for X in t.px]
    xs2 = [np.kron(eye, X) for X in t.px]
    # C_X = J(X)_1 + J(X)_2 + [X_1, Omega_rho]/2 and C'_X the same with
    # X_2, all on one scale sc
    jsum = [np.kron(J, eye) + np.kron(eye, J) for J in pj]
    half = t.sx * som / 2
    g = len(xs1)
    both, sc = _combine(
        [[(sj, J), (half, _bracket(X, om))]
         for xs in (xs1, xs2) for X, J in zip(xs, jsum)], (dd, dd))
    cs, cps = both[:g], both[g:]
    # the v-linear constraint holds for the whole commutant candidate set
    dxs = [X1 + X2 for X1, X2 in zip(xs1, xs2)]
    for dx in dxs:
        if (safe_matmul(dx, om) != safe_matmul(om, dx)).any():
            raise NotAModule("Omega_rho does not commute with the "
                             "diagonal action")

    # system rows: one per (X, p, q), the entries [X_1, P_i][p, q]
    table = np.array([[_bracket(X1, P) for P, _ in projs] for X1 in xs1])
    col_rows = [{i: c for i, c in enumerate(row) if c} for row in
                table.transpose(0, 2, 3, 1).reshape(-1, r).tolist()]
    col_scale = [t.sx * sp for _, sp in projs]

    series = [(np.eye(dd, dtype=np.int64), ONE)]
    for k in range(K):
        cur, scur = series[k]
        rhs = np.array([safe_axpy(safe_matmul(cur, Cp), -1,
                                  safe_matmul(C, cur))
                        for C, Cp in zip(cs, cps)])
        srhs = scur * sc
        red = linalg.SparseReducer()
        for row, v in zip(col_rows, rhs.reshape(-1).tolist()):
            if v:
                row = {**row, r: v}
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
        # a reduced row reads beta x_piv + e x_free = rho: x_free = 0
        c = [ZERO] * r
        for piv, row in red.rows.items():
            c[piv] = Fraction(row.get(r, 0), row[piv]) * srhs / col_scale[piv]
        terms = [(ci * sp, P) for ci, (P, sp) in zip(c, projs) if ci]
        tr = sum((w * int(np.trace(P)) for w, P in terms), ZERO)
        if tr:
            terms.append((-tr / dd, np.eye(dd, dtype=np.int64)))
        nxt, snxt = _combine([terms], (dd, dd))
        nxt = nxt[0]
        # unconditional re-verification of the order-(k+1) equations
        lhs = np.array([_bracket(X1, nxt) for X1 in xs1])
        if not scaled_equal(lhs, t.sx * snxt, rhs, srhs):
            raise NotAModule("re-verification failed at order %d"
                             % (k + 1,))
        for dx in dxs:
            if (safe_matmul(dx, nxt) != safe_matmul(nxt, dx)).any():
                raise NotAModule("v-linear constraint failed at order %d"
                                 % (k + 1,))
        series.append((nxt, snxt))
    if K >= 1 and not scaled_equal(*series[1], om, -som):
        raise NotAModule("normalization failed to reproduce -Omega_rho")
    return RSeries(*_combine([[(s, m)] for m, s in series], (dd, dd)))


# ---------------------------------------------------------------------------
# proportionality and expansion

def proportional_to(r1, r2):
    """Scalar series g(u) with r1 = g(u) * r2 through r1's order, for two
    RSeries.

    Order k brings r1[k] and the g_a r2[k - a] (a < k) to one integer
    matrix over one denominator; it must be scalar, and since r2[0] = I
    its [0, 0] entry is g_k.  The back-multiplication check compares
    sum_{a <= k} g_a r2[k - a] with r1[k] the same way.
    """
    if r2.order < r1.order:
        raise ValueError("second series has lower order")
    K = r1.order
    A, a = r1.S, r1.scale
    B, b = r2.S, r2.scale
    shape = A.shape[1:]
    g = [ONE]
    for k in range(1, K + 1):
        M, s = _combine([[(a, A[k])] + [(-g[i] * b, B[k - i])
                                         for i in range(k)]], shape)
        if not _is_scalar(M[0]):
            raise NotProportional("ratio is not scalar at order %d" % k)
        g.append(s * int(M[0, 0, 0]))
    # back-multiplication check
    for k in range(K + 1):
        M, _ = _combine([[(-a, A[k])] + [(g[i] * b, B[k - i])
                                          for i in range(k + 1)]], shape)
        if M.any():
            raise NotProportional("back-multiplication failed at order %d"
                                  % k)
    return TruncSeries(g)


def _expansion_target(t):
    """I - Omega u^{-1} + ((J (x) 1 - 1 (x) J)(Omega) + Omega^2/2) u^{-2}
    as an RSeries, from the integer tensors of the CasimirData t."""
    dd = t.d * t.d
    om = t.omt.reshape(dd, dd)
    # (J (x) 1 - 1 (x) J)(Omega) with Omega = sum X_l (x) X^l
    pj, sj = t.rep.pj, t.rep.sj
    pjd, sjd = t.dual(pj, sj)
    t1 = checked_einsum("lac,lbd->abcd", pj, t.pd).reshape(dd, dd)
    t2 = checked_einsum("lac,lbd->abcd", t.px, pjd).reshape(dd, dd)
    return RSeries(*_combine([
        [(ONE, np.eye(dd, dtype=np.int64))],
        [(-t.somt, om)],
        [(sj * t.sd, t1), (-t.sx * sjd, t2),
         (t.somt ** 2 / 2, safe_matmul(om, om))],
    ], (dd, dd)))


def expansion_check(R, t):
    """Check R's expansion against I - Omega u^{-1} +
    ((J (x) 1 - 1 (x) J)(Omega) + Omega^2/2) u^{-2} up to a scalar series."""
    try:
        g = proportional_to(R.expand(2), _expansion_target(t))
    except NotProportional as exc:
        ok, details = False, {"error": str(exc)}
    else:
        ok, details = True, {"ratio": [rat_to_str(c) for c in g.coeffs]}
    return check_report("expansion", ok, details, t.data.family, t.data.N)
