"""Exact scalar kernel.

Rationals are stdlib Fraction (always lowest terms, positive denominator).
On top of that: truncated power series in u^-1, univariate rational
functions, and grid certification of bivariate rational-matrix identities.

Series coefficients are not restricted to Fraction: anything with +, -, *
and Fraction-scalar multiplication works (noncommutative polynomial
coefficients reuse the same series routines).
"""

from fractions import Fraction
from math import comb

import numpy as np

Rational = Fraction


class NonInvertibleSeries(ValueError):
    pass


class PoleError(ZeroDivisionError):
    pass


class GridExhausted(RuntimeError):
    pass


def rat_to_str(x):
    """Serialize a rational as "p/q"."""
    return "%d/%d" % (x.numerator, x.denominator)


def rat_from_str(s):
    return Fraction(s)


ZERO = Fraction(0)
ONE = Fraction(1)


class TruncSeries:
    """f(u) = sum_{r=0..K} coeffs[r] u^-r, hard truncation at K.

    Immutable.  Binary operations truncate to min(K1, K2); coefficients
    beyond the truncation order are undefined, never assumed zero.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = tuple(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if len(coeffs) != order + 1:
            raise ValueError("need exactly order+1 coefficients")
        self.coeffs = coeffs
        self.order = order

    @staticmethod
    def constant(c, order):
        c = Fraction(c) if isinstance(c, int) else c
        zero = c - c
        return TruncSeries((c,) + (zero,) * order)

    @staticmethod
    def one(order):
        return TruncSeries.constant(ONE, order)

    def __eq__(self, other):
        return (isinstance(other, TruncSeries)
                and self.order == other.order and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return "TruncSeries(%r)" % (self.coeffs,)

    def _zero_coeff(self):
        c = self.coeffs[0]
        return c - c

    def truncate(self, order):
        if order > self.order:
            raise ValueError("cannot extend truncation order")
        return TruncSeries(self.coeffs[: order + 1])

    def __add__(self, other):
        k = min(self.order, other.order)
        return TruncSeries([self.coeffs[r] + other.coeffs[r] for r in range(k + 1)])

    def __sub__(self, other):
        k = min(self.order, other.order)
        return TruncSeries([self.coeffs[r] - other.coeffs[r] for r in range(k + 1)])

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs])

    def scale(self, c):
        return TruncSeries([c * x for x in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, TruncSeries):
            return series_mul(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def is_zero(self):
        return all(not c for c in self.coeffs)

    def to_json(self):
        return {"order": self.order, "coeffs": [rat_to_str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(d):
        return TruncSeries([rat_from_str(s) for s in d["coeffs"]], d["order"])


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
    zero = a._zero_coeff()
    out = [zero] * (k + 1)
    out[0] = out[0] + a.coeffs[0]
    for r in range(1, k + 1):
        ar = a.coeffs[r]
        for s in range(0, k - r + 1):
            w = Fraction(comb(r + s - 1, s)) * (Fraction(-c)) ** s
            out[r + s] = out[r + s] + w * ar
    return TruncSeries(out)


# ---------------------------------------------------------------------------
# univariate polynomials (ascending Fraction coefficient tuples) and
# rational functions


def poly_trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return tuple(p)


def poly_add(p, q):
    n = max(len(p), len(q))
    return poly_trim([(p[i] if i < len(p) else ZERO) + (q[i] if i < len(q) else ZERO)
                      for i in range(n)])


def poly_neg(p):
    return tuple(-c for c in p)


def poly_sub(p, q):
    return poly_add(p, poly_neg(q))


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


def poly_lcm(p, q):
    """Monic lcm of two nonzero polynomials."""
    return poly_scale(poly_mul(p, poly_divmod(q, poly_gcd(p, q))[0]),
                      ONE / (p[-1] * q[-1]))


def poly_eval(p, x):
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_compose_linear(p, a, b):
    """p(a*u + b)."""
    acc = ()
    lin = (b, a)
    for c in reversed(p):
        acc = poly_add(poly_mul(acc, lin), (c,))
    return acc


class RationalFunction:
    """num(u)/den(u) with Fraction coefficients; den monic, gcd(num,den)=1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(ONE,)):
        num = poly_trim(tuple(Fraction(c) for c in num))
        den = poly_trim(tuple(Fraction(c) for c in den))
        if not den:
            raise ZeroDivisionError("zero denominator")
        g = poly_gcd(num, den)
        if g and len(g) > 1:
            num = poly_divmod(num, g)[0]
            den = poly_divmod(den, g)[0]
        lead = den[-1]
        if lead != 1:
            num = poly_scale(num, ONE / lead)
            den = poly_scale(den, ONE / lead)
        self.num = num
        self.den = den

    @staticmethod
    def constant(c):
        return RationalFunction((Fraction(c),))

    @staticmethod
    def variable():
        return RationalFunction((ZERO, ONE))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.constant(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        return "RationalFunction(%r, %r)" % (self.num, self.den)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunction.constant(other)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFunction(
            poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den)),
            poly_mul(self.den, other.den))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return RationalFunction(
            poly_sub(poly_mul(self.num, other.den), poly_mul(other.num, self.den)),
            poly_mul(self.den, other.den))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return RationalFunction(poly_neg(self.num), self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(poly_mul(self.num, other.num),
                                poly_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(poly_mul(self.num, other.den),
                                poly_mul(self.den, other.num))

    def __call__(self, x):
        d = poly_eval(self.den, x)
        if d == 0:
            raise PoleError("pole at u=%s" % (x,))
        return poly_eval(self.num, x) / d

    def compose_linear(self, a, b):
        """self(a*u + b) as a RationalFunction."""
        return RationalFunction(poly_compose_linear(self.num, a, b),
                                poly_compose_linear(self.den, a, b))

    def degree(self):
        return (len(self.num) - 1 if self.num else -1, len(self.den) - 1)

    def expand_at_infinity(self, order):
        """TruncSeries of the u^-1 expansion; requires deg num <= deg den."""
        if not self.num:
            return TruncSeries.constant(ZERO, order)
        dn, dd = len(self.num) - 1, len(self.den) - 1
        if dn > dd:
            raise ValueError("not proper at infinity")
        # substitute u = 1/x: num/den = x^(dd-dn) * rev(num)/rev(den)
        shift = dd - dn
        nrev = tuple(reversed(self.num))
        drev = tuple(reversed(self.den))
        nser = TruncSeries(tuple(nrev[i] if i < len(nrev) else ZERO
                                 for i in range(order + 1)))
        dser = TruncSeries(tuple(drev[i] if i < len(drev) else ZERO
                                 for i in range(order + 1)))
        q = series_mul(nser, series_inverse(dser))
        out = [ZERO] * (order + 1)
        for r, c in enumerate(q.coeffs):
            if r + shift <= order:
                out[r + shift] = c
        return TruncSeries(out)

    def to_json(self):
        return {"num": [rat_to_str(c) for c in self.num],
                "den": [rat_to_str(c) for c in self.den]}


def certify_bivariate_identity(lhs, rhs, degree_bound, max_attempts=400):
    """Certify lhs(u,v) == rhs(u,v) for matrix-valued rational expressions.

    lhs and rhs are callables mapping exact rational points (u, v) to
    comparable values (matrices); they raise PoleError at denominator zeros.
    degree_bound = (d_u, d_v) must dominate the numerator bidegree after
    clearing denominators; evaluation on a (d_u+1) x (d_v+1) grid of
    distinct pole-free points is then complete by interpolation.

    Each point is compared as soon as both sides are computed, and the
    first pole-free point where they differ returns False: a true identity
    holds at every pole-free point.  True needs the whole grid.
    """
    d_u, d_v = degree_bound
    need_u, need_v = d_u + 1, d_v + 1

    def candidates(start):
        k = start
        while True:
            yield Fraction(k)
            k += 1

    def agree(u, v):
        return _values_equal(lhs(u, v), rhs(u, v))

    us = []
    vs = []
    cu = candidates(1)
    cv = candidates(10 * (need_u + need_v) + 7)
    attempts = 0
    while len(us) < need_u or len(vs) < need_v:
        attempts += 1
        if attempts > max_attempts:
            raise GridExhausted("could not build a pole-free evaluation grid")
        if len(us) < need_u:
            u = next(cu)
            try:
                if not all(agree(u, v) for v in vs):
                    return False
            except PoleError:
                continue
            us.append(u)
        if len(vs) < need_v:
            v = next(cv)
            try:
                if not all(agree(u, v) for u in us):
                    return False
            except PoleError:
                continue
            vs.append(v)
    return True


def _values_equal(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool((np.asarray(a) == np.asarray(b)).all())
    return a == b
