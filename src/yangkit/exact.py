"""Exact scalar kernel.

Rationals are stdlib Fraction (always lowest terms, positive denominator).
On top of that: truncated power series in u^-1, univariate polynomials
as ascending coefficient tuples, and grid certification of bivariate
rational-matrix identities.  Matrices of exact ring elements (Fraction,
NCPoly) are numpy object arrays and multiply by ``@``.

Series coefficients are not restricted to Fraction: anything with +, -, *
and Fraction-scalar multiplication works (noncommutative polynomial
coefficients reuse the same series routines).

A matrix series, such as the generator matrix T(u), is a TruncSeries whose
coefficients are N x N object arrays.  ``+``, ``-``, ``scale``, ``==``
and ``series_shift`` act entrywise, which is what they mean for a matrix.
``series_mul`` multiplies coefficients by ``*``, which numpy broadcasts, so
it is the right product for a scalar series (Fraction or NCPoly
coefficients) times a matrix series, such as f(u) T(u); on two matrix
series it would multiply entrywise, not as matrices.  The product of two
matrix series is ``freealg.mat_mul`` and the inverse of one is
``freealg.mat_inverse``, both by ``@`` (``series_inverse`` needs an
invertible scalar constant term).
"""

from fractions import Fraction
from math import comb

import numpy as np


class NonInvertibleSeries(ValueError):
    pass


def rat_to_str(x):
    """Serialize a rational as "p/q"."""
    return "%d/%d" % (x.numerator, x.denominator)


def check_report(check, ok, details, family, N, K=None, bounds=None):
    """The report of one check, "pass" or "fail" by ``ok``; K and the
    closure bounds are keyed only when given.  Every check report is
    built here."""
    report = {"check": check, "family": family, "N": N,
              "status": "pass" if ok else "fail", "details": details}
    if K is not None:
        report["K"] = K
    if bounds is not None:
        report["bounds"] = list(bounds)
    return report


ZERO = Fraction(0)
ONE = Fraction(1)


class TruncSeries:
    """f(u) = sum_{r=0..K} coeffs[r] u^-r, hard truncation at K =
    len(coeffs) - 1.

    Immutable.  Binary operations truncate to min(K1, K2); coefficients
    beyond the truncation order are undefined, never assumed zero.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        self.order = len(self.coeffs) - 1

    def __eq__(self, other):
        return (isinstance(other, TruncSeries) and self.order == other.order
                and all(np.all(a == b)
                        for a, b in zip(self.coeffs, other.coeffs)))

    def __hash__(self):
        # a matrix series has unhashable coefficients: TypeError
        return hash(self.coeffs)

    def __repr__(self):
        return "TruncSeries(%r)" % (self.coeffs,)

    def __add__(self, other):
        k = min(self.order, other.order)
        return TruncSeries([self.coeffs[r] + other.coeffs[r] for r in range(k + 1)])

    def __sub__(self, other):
        k = min(self.order, other.order)
        return TruncSeries([self.coeffs[r] - other.coeffs[r] for r in range(k + 1)])

    def scale(self, c):
        return TruncSeries([c * x for x in self.coeffs])


def series_mul(a, b):
    """Cauchy product truncated at min(K_a, K_b)."""
    k = min(a.order, b.order)
    out = []
    for r in range(k + 1):
        acc = None
        for s in range(r + 1):
            term = a.coeffs[s] * b.coeffs[r - s]
            acc = term if acc is None else acc + term
        out.append(acc)
    return TruncSeries(out)


def _invert_coeff(a0):
    if isinstance(a0, Fraction):
        if a0 == 0:
            raise NonInvertibleSeries("zero constant term")
        return ONE / a0
    # ring elements must expose their own unit inverse
    inv = getattr(a0, "unit_inverse", None)
    if inv is None:
        raise NonInvertibleSeries("constant term not invertible")
    return inv()


def series_inverse(a):
    """b with a*b = 1 up to order K; needs invertible constant term."""
    inv0 = _invert_coeff(a.coeffs[0])
    out = [inv0]
    for r in range(1, a.order + 1):
        acc = None
        for s in range(1, r + 1):
            term = a.coeffs[s] * out[r - s]
            acc = term if acc is None else acc + term
        out.append(-(inv0 * acc))
    return TruncSeries(out)


def series_shift(a, c):
    """Coefficients of a(u+c), truncated at the order of a.

    Uses (u+c)^-k = sum_s binom(k+s-1, s) (-c)^s u^-(k+s).
    """
    k = a.order
    zero = a.coeffs[0] - a.coeffs[0]
    # every slot starts as the same zero: each update must rebind its
    # slot (out[i] = out[i] + ...), never add in place, or a matrix
    # coefficient would be shared by every order
    out = [zero] * (k + 1)
    out[0] = out[0] + a.coeffs[0]
    for r in range(1, k + 1):
        ar = a.coeffs[r]
        for s in range(0, k - r + 1):
            w = Fraction(comb(r + s - 1, s)) * (Fraction(-c)) ** s
            out[r + s] = out[r + s] + w * ar
    return TruncSeries(out)


# ---------------------------------------------------------------------------
# univariate polynomials (ascending Fraction coefficient tuples)


def poly_trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return tuple(p)


def poly_mul(p, q):
    if not p or not q:
        return ()
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_scale(p, c):
    return poly_trim([c * x for x in p])


def poly_divmod(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    p = list(p)
    dq = len(q) - 1
    lead = q[-1]
    quot = [ZERO] * max(0, len(p) - dq)
    while len(p) - 1 >= dq and poly_trim(p):
        dp = len(poly_trim(p)) - 1
        p = list(poly_trim(p))
        if dp < dq:
            break
        c = p[dp] / lead
        quot[dp - dq] = c
        for i in range(dq + 1):
            p[dp - dq + i] -= c * q[i]
    return poly_trim(quot), poly_trim(p)


def poly_gcd(p, q):
    p, q = poly_trim(p), poly_trim(q)
    while q:
        p, q = q, poly_divmod(p, q)[1]
    if p:
        p = poly_scale(p, ONE / p[-1])
    return p


def certify_bivariate_identity(lhs, rhs, degree_bound):
    """Certify lhs(u,v) == rhs(u,v) for matrix-valued polynomial
    expressions.

    lhs and rhs are callables mapping exact rational points (u, v) to
    comparable values (matrices), defined everywhere (denominators already
    cleared).  degree_bound = (d_u, d_v) must dominate the bidegree of
    both sides; evaluation on a (d_u+1) x (d_v+1) grid of distinct points
    is then complete by interpolation.  Both coordinates take the
    integers of least magnitude, 0, 1, -1, 2, -2, ...

    The grid grows one u and one v at a time, and each new point is
    compared as soon as both sides are computed: the first point where
    they differ returns False.  True needs the whole grid.
    """
    d_u, d_v = degree_bound
    need_u, need_v = d_u + 1, d_v + 1

    def agree(u, v):
        return _values_equal(lhs(u, v), rhs(u, v))

    grid = [Fraction(s * k) for k in range(max(need_u, need_v))
            for s in (1, -1)][1:]
    us = []
    vs = []
    while len(us) < need_u or len(vs) < need_v:
        if len(us) < need_u:
            u = grid[len(us)]
            if not all(agree(u, v) for v in vs):
                return False
            us.append(u)
        if len(vs) < need_v:
            v = grid[len(vs)]
            if not all(agree(u, v) for u in us):
                return False
            vs.append(v)
    return True


def _values_equal(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool((np.asarray(a) == np.asarray(b)).all())
    return a == b
