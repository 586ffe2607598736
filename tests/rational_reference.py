"""Dense Fraction references for the exact layers.

Entry-wise reference for R-matrices: univariate rational functions
num(u)/den(u) over Fraction, one per matrix entry.  The library holds
R(u) as one denominator over an integer matrix polynomial
(``rmatrix.RMat``); the tests check every reader of that form against
the same operation done entry by entry here.

The classical layer holds Omega_rho and the omega-operator as integer
tensors over one scale (``liealg.CasimirData``); the minimal polynomial
and the decomposition of End V are done here on dense Fraction matrices.

Exact linear algebra (``linalg``) eliminates fraction-free on integers;
here it is dense Gauss-Jordan on Fractions with normalized pivots.

PBW slice dimensions are read off a closure with per-column grade and
inside/outside lists (``yangian.slice_dimension``); here every entry
decodes its column's word instead.  The closure's columns come one
(length, sum_r) class at a time (``yangian._universe``); here every
bounded word is generated recursively and the keyed list is sorted.

The library finds the roots of an integer minimal polynomial among the
divisors of its constant term (``liealg._integer_roots``); here the
rational root test runs on Fraction coefficients, clearing denominators.
A matrix series is re-expanded at u + c by ``exact.series_shift`` acting
on whole coefficient arrays; here each entry is shifted as a scalar
series and the matrices are reassembled.

The CLI's QYBE negative control builds R(u) + c u^-2 E_ee as one RMat
over lcm(D, u^2) (``cli._perturbed_r``); here two RMats are added over
the lcm of their denominators, found by polynomial gcd.  An RMat keeps
the denominator its builder gives; ``common_factor`` finds a factor of D
that divides every entry, which the library builders never leave.  The
library builds its integer arrays on integers; a Fraction stack is
cleared to one here (``frac_to_int_array``).  The library
writes rationals and NCPolys to JSON and never reads them back; the
readers, and NCPoly's one-word constructor, are here.  A shifted RMat's
denominator is D(u - a) by the Taylor sum of its coefficients; here it is
D composed with u - a by Horner's rule.

NCPoly, TensorNCPoly and CPoly share one term algebra whose coefficients
are the shared Fractions of ``freealg``'s coefficient table, with a unit
factor taken by identity; here sums and products are the plain loops on
{key: Fraction} dicts that each class carried before, with a new
Fraction for every value.  NCPoly and TensorNCPoly pop a key that
cancels and append a new key at the end, so their key order is compared
too; CPoly filtered zeros at the end and every CPoly reader sorts, so
only its terms are.

The library's coproduct and m_f are generator tables read off one matrix
series each (``freealg.coproduct_table``, ``freealg.mf_table``); here
Delta(t_{ij}^{(r)}) is rebuilt from tensor products at every letter, and
m_f(t_{ij}^{(r)}) is summed entry by entry.
"""

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from yangkit import linalg
from yangkit.exact import (ONE, ZERO, TruncSeries, poly_divmod, poly_gcd,
                           poly_mul, poly_scale, poly_trim, series_inverse,
                           series_mul, series_shift)
from yangkit.freealg import NCPoly, TensorNCPoly, gen_id, gen_ijr
from yangkit.liealg import (CasimirData, _divisors, _int_array, commutant,
                            int_to_frac_array)
from yangkit.rmatrix import RMat, _combine


def rat_from_str(s):
    """The rational that ``exact.rat_to_str`` wrote as "p/q"."""
    return Fraction(s)


def ncpoly_from_word(w, c=ONE):
    """c times one word of generator ids."""
    c = Fraction(c)
    return NCPoly({tuple(w): c} if c else {})


def ncpoly_from_json(recs):
    """The NCPoly that ``NCPoly.to_json`` wrote."""
    terms = {}
    for rec in recs:
        w = tuple(gen_id(i, j, r) for i, j, r in rec["word"])
        terms[w] = rat_from_str(rec["coeff"])
    return NCPoly(terms)


def terms_add(a, b):
    """a + b on {key: Fraction} dicts in NCPoly's term order."""
    out = dict(a)
    for w, c in b.items():
        v = out.get(w, ZERO) + c
        if v:
            out[w] = v
        else:
            out.pop(w, None)
    return out


def terms_mul(a, b, join):
    """a * b on {key: Fraction} dicts in NCPoly's term order, keys
    multiplied by ``join``."""
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = join(w1, w2)
            v = out.get(w, ZERO) + c1 * c2
            if v:
                out[w] = v
            else:
                out.pop(w, None)
    return out


def terms_neg(a):
    return {w: -c for w, c in a.items()}


def cpoly_terms_add(a, b):
    """a + b on CPoly's {monomial: Fraction} dicts."""
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, ZERO) + c
    return {m: c for m, c in out.items() if c}


def cpoly_terms_mul(a, b):
    """a * b on CPoly's {monomial: Fraction} dicts."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(sorted(m1 + m2))
            out[m] = out.get(m, ZERO) + c1 * c2
    return {m: c for m, c in out.items() if c}


def poly_eval(p, x):
    """p(x) by Horner's rule, p as ascending coefficients."""
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_add(p, q):
    n = max(len(p), len(q))
    return poly_trim([(p[i] if i < len(p) else ZERO)
                      + (q[i] if i < len(q) else ZERO) for i in range(n)])


def poly_compose_linear(p, a, b):
    """p(a*u + b), by Horner's rule on polynomials."""
    acc = ()
    lin = (b, a)
    for c in reversed(p):
        acc = poly_add(poly_mul(acc, lin), (c,))
    return acc


def rational_roots(poly):
    """Distinct rational roots of a Fraction polynomial (ascending
    coefficients) plus the unfactored remainder: candidates p/q with p
    dividing the cleared constant term and q the cleared leading one."""
    roots = []
    p = poly_trim(poly)
    changed = True
    while changed and len(p) > 1:
        changed = False
        den = 1
        for c in p:
            den = lcm(den, c.denominator)
        ip = [int(c * den) for c in p]
        if ip[0] == 0:
            cand = [Fraction(0)]
        else:
            cand = []
            for pn in _divisors(abs(ip[0])):
                for qn in _divisors(abs(ip[-1])):
                    cand.extend([Fraction(pn, qn), Fraction(-pn, qn)])
        for r in cand:
            if poly_eval(p, r) == 0:
                if r not in roots:
                    roots.append(r)
                p = poly_divmod(p, (-r, ONE))[0]
                changed = True
                break
    return roots, p


def mat_shift(A, c):
    """A(u + c) for a matrix series A, one entry at a time."""
    N = len(A.coeffs[0])
    shifted = [series_shift(TruncSeries([m[i, j] for m in A.coeffs]), c)
               for i in range(N) for j in range(N)]
    out = []
    for k in range(A.order + 1):
        m = np.empty((N, N), dtype=object)
        for i in range(N):
            for j in range(N):
                m[i, j] = shifted[i * N + j].coeffs[k]
        out.append(m)
    return TruncSeries(out)


class RationalFunction:
    """num(u)/den(u) with Fraction coefficients; den monic, gcd(num,den)=1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(ONE,)):
        num = poly_trim(tuple(Fraction(c) for c in num))
        den = poly_trim(tuple(Fraction(c) for c in den))
        if not den:
            raise ZeroDivisionError("zero denominator")
        g = poly_gcd(num, den)
        num, den = poly_divmod(num, g)[0], poly_divmod(den, g)[0]
        self.num = poly_scale(num, ONE / den[-1])
        self.den = poly_scale(den, ONE / den[-1])

    @staticmethod
    def _coerce(x):
        return x if isinstance(x, RationalFunction) else RationalFunction((x,))

    def __eq__(self, other):
        other = self._coerce(other)
        return self.num == other.num and self.den == other.den

    def __repr__(self):
        return "RationalFunction(%r, %r)" % (self.num, self.den)

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFunction(poly_add(poly_mul(self.num, other.den),
                                         poly_mul(other.num, self.den)),
                                poly_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(poly_scale(self.num, -ONE), self.den)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(poly_mul(self.num, other.num),
                                poly_mul(self.den, other.den))

    __rmul__ = __mul__

    def __call__(self, x):
        d = poly_eval(self.den, x)
        if d == 0:
            raise ZeroDivisionError("pole at u=%s" % (x,))
        return poly_eval(self.num, x) / d

    def compose_linear(self, a, b):
        """self(a*u + b)."""
        return RationalFunction(poly_compose_linear(self.num, a, b),
                                poly_compose_linear(self.den, a, b))

    def expand_at_infinity(self, order):
        """TruncSeries of the u^-1 expansion; requires deg num <= deg den."""
        if not self.num:
            return TruncSeries((ZERO,) * (order + 1))
        dn, dd = len(self.num) - 1, len(self.den) - 1
        if dn > dd:
            raise ValueError("not proper at infinity")
        # substitute u = 1/x: num/den = x^(dd-dn) * rev(num)/rev(den)
        nrev = tuple(reversed(self.num)) + (ZERO,) * order
        drev = tuple(reversed(self.den)) + (ZERO,) * order
        q = series_mul(TruncSeries(nrev[:order + 1]),
                       series_inverse(TruncSeries(drev[:order + 1])))
        shift = dd - dn
        return TruncSeries((ZERO,) * min(shift, order + 1)
                           + q.coeffs[:max(0, order + 1 - shift)])


def rmat_entries(R):
    """The N^2 x N^2 array of RationalFunction entries of an RMat."""
    nn = R.N * R.N
    out = np.empty((nn, nn), dtype=object)
    for i in range(nn):
        for j in range(nn):
            out[i, j] = RationalFunction(
                [R.scale * int(c) for c in R.coeffs[:, i, j]], R.den)
    return out


def poly_lcm(p, q):
    """Monic lcm of two nonzero polynomials."""
    return poly_scale(poly_mul(p, poly_divmod(q, poly_gcd(p, q))[0]),
                      ONE / (p[-1] * q[-1]))


def frac_to_int_array(mats):
    """Stack Fraction matrices into (integer array, Fraction scale) over
    their least common denominator: int64, or exact Python ints (dtype
    object) when an entry is beyond the int64 fast path."""
    arr = np.asarray(mats, dtype=object)
    flat = arr.ravel().tolist()
    den = lcm(*[x.denominator for x in flat])
    out = _int_array([x.numerator * (den // x.denominator) for x in flat])
    return out.reshape(arr.shape), Fraction(1, den)


def common_factor(R):
    """The monic gcd of D and every nonzero entry numerator of an RMat:
    (1,) exactly when D is the lcm of the entry denominators."""
    g = R.den
    for col in R.coeffs.reshape(len(R.coeffs), -1).T:
        if len(g) == 1:
            break
        if col.any():
            g = poly_gcd(g, tuple(Fraction(int(c)) for c in col))
    return g


def rmat_add(R1, R2):
    """R1 + R2 over lcm(D1, D2), also when a pole cancels in every entry:
    each C(u) is multiplied by lcm / D and the integer matrices of one
    power of u are combined over one scale."""
    den = poly_lcm(R1.den, R2.den)
    rows = {}
    for R in (R1, R2):
        for j, qj in enumerate(poly_divmod(den, R.den)[0]):
            for m, c in enumerate(R.coeffs):
                rows.setdefault(j + m, []).append((R.scale * qj, c))
    C, s = _combine([rows[k] for k in range(max(rows) + 1)],
                    R1.coeffs.shape[1:])
    return RMat(R1.N, den, C, s)


def omega_rho(cas):
    """Omega_rho of a CasimirData as a (d^2, d^2) Fraction matrix."""
    dd = cas.d * cas.d
    return int_to_frac_array(cas.omt.reshape(dd, dd), cas.somt)


def frac_identity(n):
    return np.array([[ONE if i == j else ZERO for j in range(n)]
                     for i in range(n)], dtype=object)


def dense_rref(rows, ncols):
    """Reduced row echelon form by dense Gauss-Jordan on Fractions,
    first-column pivoting in input order; (basis, pivots) with pivots
    ascending."""
    basis = []
    pivots = []
    for row in rows:
        row = list(row)
        for b, p in zip(basis, pivots):
            c = row[p]
            if c:
                for j in range(ncols):
                    if b[j]:
                        row[j] -= c * b[j]
        piv = next((j for j in range(ncols) if row[j]), None)
        if piv is None:
            continue
        inv = Fraction(1) / row[piv]
        row = [x * inv for x in row]
        for b in basis:
            c = b[piv]
            if c:
                for j in range(ncols):
                    if row[j]:
                        b[j] -= c * row[j]
        basis.append(row)
        pivots.append(piv)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [basis[i] for i in order], [pivots[i] for i in order]


def dense_nullspace(rows, ncols):
    """Kernel basis read off dense_rref: per free column, ascending, the
    Fraction vector with 1 there and 0 at the other free columns."""
    basis, pivots = dense_rref(rows, ncols)
    out = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for b, p in zip(basis, pivots):
            v[p] = -b[free]
        out.append(v)
    return out


def dense_inverse(mat):
    """Inverse of a square matrix as Fraction rows, by dense_rref of
    [M | I]; None if M is singular."""
    n = len(mat)
    aug = [list(mat[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    basis, pivots = dense_rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in basis[:n]]


def primitive(v):
    """The primitive integer vector that is a positive multiple of the
    Fraction vector v."""
    den = lcm(*[Fraction(x).denominator for x in v])
    ints = [int(x * den) for x in v]
    g = gcd(*ints)
    return [x // g for x in ints]


def min_poly(m):
    """Least-degree monic p with p(M) = 0, from the first power of M that
    depends on the lower ones (dense Fraction arithmetic)."""
    n = len(m)
    M = np.array(m, dtype=object)
    powers = [frac_identity(n)]
    while True:
        powers.append(powers[-1] @ M)
        rows = [[P.flat[i] for P in powers] for i in range(n * n)]
        kernel = dense_nullspace(rows, len(powers))
        if kernel:
            # the lower powers are independent, so the one kernel vector
            # has its free 1 at the top power
            return tuple(kernel[0])


def _rank(rows, ncols):
    return len(dense_rref(rows, ncols)[1])


def _independent(base, vecs):
    """The vectors of ``vecs`` that raise the rank of ``base`` plus the
    ones kept before them."""
    kept = []
    for v in vecs:
        if (_rank(base + kept + [v], len(v))
                > _rank(base + kept, len(v))):
            kept.append(v)
    return kept


def decompose_ad(data, rep):
    """liealg.decompose_ad on dense Fraction matrices.  The eigenvalues r
    of the omega-operator swop * wop are the rational roots of its
    minimal polynomial, and each eigenspace is the nullspace of
    swop * wop - r I.  Returns the eigenvalues, the W blocks with their
    eigenvalues, the rows of the change of basis (ad(g), E, the
    complement of E in E_g, then W) and its inverse, in the library's
    forms: kernel vectors made primitive, the inverse as (integer rows,
    scale) over its least common denominator."""
    cas = CasimirData(data, rep)
    dd = rep.dim * rep.dim
    op = int_to_frac_array(cas.wop, cas.swop)
    roots, rem = rational_roots(min_poly(op))
    assert len(rem) == 1
    eye = frac_identity(dd)
    spaces = {r: [primitive(v)
                  for v in dense_nullspace((op - r * eye).tolist(), dd)]
              for r in roots}
    eg = commutant(rep, False)
    e = commutant(rep, True) if rep.pj.any() else eg
    ad = rep.px.reshape(len(rep.px), dd).tolist()
    w_parts = []
    for r in sorted(spaces):
        if r == cas.c_g:
            extra = _independent(ad, spaces[r])
            if extra:
                w_parts.append((extra, r))
        elif r:
            w_parts.append((spaces[r], r))
    c_table = ad + e + _independent(e, eg) + [v for b, _ in w_parts
                                              for v in b]
    inv, s = frac_to_int_array(dense_inverse(c_table))
    return {"eigenvalues": sorted(spaces), "w_parts": w_parts,
            "c_table": c_table, "a_table": (inv.tolist(), s)}


def slice_dimension(cl, length, sum_r):
    """yangian.slice_dimension entry by entry: the length of each
    column's word is read off the word, and an inside test runs per
    entry."""
    id2word, col_sum_r = cl.id2word, cl.col_sum_r

    def inside(i):
        return len(id2word[i]) <= length and col_sum_r[i] <= sum_r

    nwords = sum(1 for i in range(len(id2word)) if inside(i))
    outside_red = linalg.SparseReducer()
    outside_rank = 0
    for piv, row in cl.reducer.rows.items():
        top_grade = col_sum_r[piv] - len(id2word[piv])
        restricted = {}
        for i, c in row.items():
            if (col_sum_r[i] - len(id2word[i]) == top_grade
                    and not inside(i)):
                restricted[i] = c
        if restricted and outside_red.add(restricted):
            outside_rank += 1
    return nwords - (cl.reducer.rank - outside_rank)


def universe(N, L, R_ord):
    """yangian._universe by recursion and one sort: every bounded word
    keyed (len - sum_r, -sum_r, word)."""
    letters = [(gen_id(i, j, r), r)
               for r in range(1, R_ord + 1)
               for i in range(1, N + 1)
               for j in range(1, N + 1)]
    keyed = []
    prefix = []

    def rec(sumr):
        keyed.append((len(prefix) - sumr, -sumr, tuple(prefix)))
        if len(prefix) == L:
            return
        for g, r in letters:
            if sumr + r <= R_ord:
                prefix.append(g)
                rec(sumr + r)
                prefix.pop()

    rec(0)
    keyed.sort()
    return ([w for _, _, w in keyed], [-s for _, s, _ in keyed],
            [len(w) for _, _, w in keyed], letters)


def coproduct_poly(p, N):
    """Delta extended multiplicatively from
    Delta(t_{ij}^{(r)}) = sum_a sum_{b=0..r} t_{ia}^{(b)} (x) t_{aj}^{(r-b)}
    with t^{(0)} = delta, rebuilt at every letter of every word."""
    out = TensorNCPoly.zero()
    for w, c in p.terms.items():
        term = TensorNCPoly.constant(c)
        for g in w:
            i, j, r = gen_ijr(g)
            acc = TensorNCPoly.zero()
            for a in range(1, N + 1):
                for b in range(r + 1):
                    if b == 0:
                        left = NCPoly.one() if a == i else None
                    else:
                        left = NCPoly.gen(i, a, b)
                    if b == r:
                        right = NCPoly.one() if a == j else None
                    else:
                        right = NCPoly.gen(a, j, r - b)
                    if left is not None and right is not None:
                        acc = acc + TensorNCPoly.of(left, right)
            term = term * acc
        out = out + term
    return out


def mf_table(N, K, f):
    """m_f(t_{ij}^{(r)}) = t_{ij}^{(r)} + sum_{0<a<r} f_a t_{ij}^{(r-a)}
    + f_r delta_ij for r <= K, built entry by entry (f read as zero past
    its order)."""
    table = {}
    for r in range(1, K + 1):
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                img = NCPoly.gen(i, j, r)
                for a in range(1, r):
                    if a <= f.order and f.coeffs[a]:
                        img = img + f.coeffs[a] * NCPoly.gen(i, j, r - a)
                if r <= f.order and f.coeffs[r] and i == j:
                    img = img + NCPoly.constant(f.coeffs[r])
                table[gen_id(i, j, r)] = img
    return table
