"""Rational R-matrices for the classical families, exact QYBE and
unitarity certification, and the order-by-order intertwining-equation
solver with its proportionality and expansion checks.

R-matrices act on V (x) V with V the vector module; entries are
RationalFunction in the spectral parameter u.  QYBE is certified by
clearing denominators with the same scalar polynomial on both sides and
comparing integer matrix products on an interpolation-complete grid.
"""

from fractions import Fraction
from math import gcd

import numpy as np

from .exact import (ONE, ZERO, PoleError, RationalFunction, TruncSeries,
                    certify_bivariate_identity, poly_divmod, poly_eval,
                    poly_gcd, poly_mul, poly_trim, rat_to_str)
from . import linalg
from .liealg import (build_lie, casimir, checked_einsum, frac_kron,
                     frac_matmul, permutation_matrix, q_matrix, safe_matmul,
                     _ad_operators_int, _min_poly, _rational_roots)


class UnitarityFailure(RuntimeError):
    pass


class NotAModule(RuntimeError):
    pass


class NonIrreducible(RuntimeError):
    pass


class NotProportional(RuntimeError):
    pass


class RMat:
    """N^2 x N^2 matrix of RationalFunction acting on V (x) V."""

    __slots__ = ("entries", "N")

    def __init__(self, entries, N):
        self.entries = entries      # object array of RationalFunction
        self.N = N
        nn = N * N
        if entries.shape != (nn, nn):
            raise ValueError("R-matrix must be N^2 x N^2")

    def eval_at(self, u):
        """Exact Fraction matrix R(u); raises PoleError at poles."""
        nn = self.N * self.N
        out = np.empty((nn, nn), dtype=object)
        for i in range(nn):
            for j in range(nn):
                out[i, j] = self.entries[i, j](u)
        return out

    def expand(self, K):
        """RSeries of the u^{-1}-expansion to order K."""
        nn = self.N * self.N
        coeffs = [np.full((nn, nn), ZERO, dtype=object) for _ in range(K + 1)]
        for i in range(nn):
            for j in range(nn):
                s = self.entries[i, j].expand_at_infinity(K)
                for k, c in enumerate(s.coeffs):
                    coeffs[k][i, j] = c
        return RSeries(coeffs)

    def to_json(self):
        return {"N": self.N,
                "entries": [[self.entries[i, j].to_json()
                             for j in range(self.N * self.N)]
                            for i in range(self.N * self.N)]}


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


def _rf_const(c):
    return RationalFunction.constant(c)


def yang_r(N):
    """R(u) = I - P u^{-1} on the N-dimensional vector module."""
    if N < 2:
        raise ValueError("N >= 2 required")
    nn = N * N
    P = permutation_matrix(N)
    inv_u = RationalFunction((ONE,), (ZERO, ONE))
    ent = np.empty((nn, nn), dtype=object)
    for i in range(nn):
        for j in range(nn):
            ent[i, j] = _rf_const(ONE if i == j else ZERO) - P[i, j] * inv_u
    return RMat(ent, N)


def sosp_r(family, N):
    """R(u) = I - P u^{-1} + Q (u - kappa)^{-1} for so_N / sp_N."""
    data = build_lie(family, N)
    nn = N * N
    P = permutation_matrix(N)
    Q = q_matrix(data)
    inv_u = RationalFunction((ONE,), (ZERO, ONE))
    inv_uk = RationalFunction((ONE,), (-data.kappa, ONE))
    ent = np.empty((nn, nn), dtype=object)
    for i in range(nn):
        for j in range(nn):
            ent[i, j] = (_rf_const(ONE if i == j else ZERO)
                         - P[i, j] * inv_u + Q[i, j] * inv_uk)
    return RMat(ent, N)


# ---------------------------------------------------------------------------
# QYBE

def _poly_lcm(p, q):
    g = poly_gcd(p, q)
    return poly_mul(p, poly_divmod(q, g)[0])


def _cleared_int_polys(R):
    """(integer-coefficient numerator polys, max degree) of c*D(u)*R(u).

    D is the lcm of all entry denominators and c clears coefficient
    denominators; the same scalar multiplies every QYBE factor, so the
    cleared ternary identity is equivalent to the original one.
    """
    nn = R.N * R.N
    D = (ONE,)
    for i in range(nn):
        for j in range(nn):
            D = _poly_lcm(D, R.entries[i, j].den)
    polys = {}
    den_lcm = 1
    deg = 0
    for i in range(nn):
        for j in range(nn):
            e = R.entries[i, j]
            p = poly_mul(e.num, poly_divmod(D, e.den)[0])
            polys[(i, j)] = p
            for c in p:
                den_lcm = den_lcm * c.denominator // gcd(
                    den_lcm, c.denominator)
            deg = max(deg, len(p) - 1)
    out = {}
    for key, p in polys.items():
        out[key] = tuple(int(c * den_lcm) for c in p)
    return out, deg


def _eval_int_matrix(polys, nn, w):
    m = np.zeros((nn, nn), dtype=np.int64)
    for (i, j), p in polys.items():
        v = 0
        for c in reversed(p):
            v = v * w + c
        m[i, j] = v
    return m


# einsum specs placing an N^2 x N^2 matrix on legs 12, 13 or 23 of V^(x)3
_LEG_SPECS = {"12": "abxy,cz->abcxyz",
              "13": "acxz,by->abcxyz",
              "23": "bcyz,ax->abcxyz"}


def _leg(m, N, leg):
    """Embed an N^2 x N^2 integer matrix as leg "12", "13" or "23" of
    V^(x)3."""
    n3 = N ** 3
    return checked_einsum(_LEG_SPECS[leg], m.reshape(N, N, N, N),
                          np.eye(N, dtype=np.int64)).reshape(n3, n3)


def check_qybe(R):
    """Certify R12(u-v) R13(u) R23(v) = R23(v) R13(u) R12(u-v) exactly."""
    polys, deg = _cleared_int_polys(R)
    N = R.N
    nn = N * N
    legs = {}

    def factor(leg, w):
        # each leg factor is built once per call: lhs and rhs share it, and
        # so do all grid points with the same u, v or u - v
        key = (leg, w)
        if key not in legs:
            legs[key] = _leg(_eval_int_matrix(polys, nn, w), N, leg)
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
    """R12(u) R21(-u); returns the scalar f(u) if the product is f(u) I."""
    N = R.N
    nn = N * N
    r21 = np.empty((nn, nn), dtype=object)
    for a in range(N):
        for b in range(N):
            for c in range(N):
                for d in range(N):
                    r21[a * N + b, c * N + d] = \
                        R.entries[b * N + a, d * N + c].compose_linear(
                            Fraction(-1), ZERO)
    prod = frac_matmul(R.entries, r21)
    f = prod[0, 0]
    for i in range(nn):
        for j in range(nn):
            want = f if i == j else RationalFunction((ZERO,))
            got = prod[i, j]
            if not isinstance(got, RationalFunction):
                got = RationalFunction.constant(got)
            if got != want:
                raise UnitarityFailure(
                    "product is not scalar at entry (%d, %d)" % (i, j))
    return f


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

    # irreducibility of V over g: the joint ad-kernel on End V is scalar
    px, _sx = rep.int_x()
    ad = _ad_operators_int(px)
    ad_rows = [[Fraction(int(x)) for x in ad[l, i]]
               for l in range(data.dim) for i in range(dd)]
    if len(linalg.nullspace(ad_rows, dd)) != 1:
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
    cas = casimir(data, rep)
    omega = cas.omega_rho
    d = rep.dim
    dd = d * d
    # (J (x) 1 - 1 (x) J)(Omega) with Omega = sum X_l (x) X^l
    from .liealg import int_to_frac_array, _dualize
    px, sx = rep.int_x()
    pj, sj = rep.int_j()
    pd, sd = _dualize(px, sx, data)
    pjd, sjd = _dualize(pj, sj, data)
    t1 = checked_einsum("lac,lbd->abcd", pj, pd).reshape(dd, dd)
    t2 = checked_einsum("lac,lbd->abcd", px, pjd).reshape(dd, dd)
    jterm = (int_to_frac_array(t1, sj * sd)
             - int_to_frac_array(t2, sx * sjd))
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
