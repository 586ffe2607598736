"""RTT presentations of extended Yangians and their bounded verification.

Generates the defining relations R(u-v)T_1(u)T_2(v) = T_2(v)T_1(u)R(u-v)
with denominators cleared, realizes the two-sided relation ideal inside a
bounded word slice by exact sparse row reduction, and verifies at bounded
truncation order: PBW slice dimensions, the central series z(u) and y(u),
the quantum determinant (sl) and symmetry series (so/sp), Hopf/grouplike
identities, automorphism fixed points, and low-order structure maps.
"""

from collections import deque
from fractions import Fraction
from itertools import permutations
from math import comb, lcm

import numpy as np

from . import linalg
from .exact import TruncSeries, series_inverse, series_mul, series_shift, rat_to_str
from .freealg import (
    NCPoly,
    TensorNCPoly,
    MatSeries,
    _eye,
    antipode_poly,
    antipode_table,
    coproduct_poly,
    counit_poly,
    gen_id,
    gen_ijr,
    mat_inverse,
    mat_mul,
    mat_shift,
    mf_table,
    substitute_poly,
    t_matrix,
    transpose_t,
    word_sum_r,
)
from .liealg import (
    _Tensors,
    build_lie,
    casimir,
    checked_einsum,
    commutant,
    frac_to_int_array,
    int_to_frac_array,
    safe_axpy,
    safe_matmul,
    vector_rep,
)
from .rmatrix import closed_form_r

ZERO = Fraction(0)
ONE = Fraction(1)


class WrongFamily(ValueError):
    """Operation restricted to a specific family of algebras."""


class OutOfBounds(ValueError):
    """Element does not fit inside the closure's bounded slice."""


class BoundsTooLarge(RuntimeError):
    """Requested bounds exceed the size guard."""


# ---------------------------------------------------------------------------
# RTT relation generation

class RTTPresentation:
    """The cleared RTT identity collected coefficient by coefficient."""

    __slots__ = ("lie", "casimir", "R", "K", "relations", "family", "N",
                 "clear_degree", "_zcache")

    def __init__(self, lie, cas, R, K, relations, clear_degree):
        self.lie = lie
        self.casimir = cas
        self.R = R
        self.K = K
        self.relations = relations
        self.family = lie.family
        self.N = R.N
        self.clear_degree = clear_degree
        self._zcache = {}


def _canon_poly(p):
    """Scale so the minimal term (shortest word, then lex) has coefficient 1."""
    w0 = min(p.terms, key=lambda w: (len(w), w))
    c = p.terms[w0]
    if c == ONE:
        return p
    return (ONE / c) * p


def _poly_sort_key(p):
    return tuple(sorted(((len(w), w, c) for w, c in p.terms.items())))


def rtt_relations(family, N, K):
    """Collect the (u^-a v^-b, matrix-entry) coefficients of the cleared
    RTT identity for a, b <= K+1 into deduplicated relation polynomials."""
    family = family.lower()
    if K < 2:
        raise ValueError("K >= 2 required")
    data = build_lie(family, N)
    cas = casimir(data)
    nn = N * N
    R = closed_form_r(family, N)
    # D(w) R(w) = sum_m A_m w^m with w = u - v and d = deg D
    A = R.numerator()
    d = len(R.den) - 1
    # word of T^(r)_{ij}: T^(0) = I gives the empty word, None for a 0
    W = [[[() if i == j else None for j in range(N)] for i in range(N)]]
    W += [[[(gen_id(i + 1, j + 1, r),) for j in range(N)] for i in range(N)]
          for r in range(1, K + 2 + d)]
    # R(u-v) = sum_m A_m sum_s binom(m, s) u^(m-s) (-v)^s: for each (m, s),
    # the nonzero entries of binom(m, s) (-1)^s A_m by row and by column,
    # inner index (i, k) = divmod(flat index, N) ascending
    parts = []
    for m, Am in enumerate(A):
        for s in range(m + 1):
            cA = comb(m, s) * (-1) ** s * Am
            parts.append((m - s, s,
                          [[divmod(k, N) + (cA[e, k],) for k in range(nn)
                            if cA[e, k]] for e in range(nn)],
                          [[divmod(k, N) + (cA[k, f],) for k in range(nn)
                            if cA[k, f]] for f in range(nn)]))
    split = [divmod(e, N) for e in range(nn)]

    seen = set()
    relations = []
    for a in range(K + 2):
        for b in range(K + 2):
            # u^-a v^-b coefficient of sum_{m,s} binom(m,s) (-1)^s
            # (A_m T1^(a+m-s) T2^(b+s) - T2^(b+s) T1^(a+m-s) A_m), summed
            # (m, s) by (m, s) in NCPoly order
            diff = [NCPoly.zero()] * (nn * nn)
            for dx, s, rows, cols in parts:
                Wx, Wy = W[a + dx], W[b + s]
                for e, (i, k) in enumerate(split):
                    for f, (j, l) in enumerate(split):
                        # entry (ik, jl) of A T1 T2 and of T2 T1 A; the
                        # words within each are distinct
                        lhs, rhs = {}, {}
                        for i2, k2, v in rows[e]:
                            p, q = Wx[i2][j], Wy[k2][l]
                            if p is not None and q is not None:
                                lhs[p + q] = v
                        for j2, l2, v in cols[f]:
                            p, q = Wx[i][j2], Wy[k][l2]
                            if p is not None and q is not None:
                                rhs[q + p] = v
                        if lhs or rhs:
                            diff[e * nn + f] += NCPoly(lhs) - NCPoly(rhs)
            for p in diff:
                if not p:
                    continue
                p = _canon_poly(p)
                key = tuple(sorted(p.terms.items()))
                if key in seen:
                    continue
                seen.add(key)
                relations.append(p)
    relations.sort(key=_poly_sort_key)
    pres = RTTPresentation(data, cas, R, K, relations, d)
    # sanity filter: every relation must die under the one-factor
    # evaluation homomorphism T(u) -> R(u)
    ev = evaluation_module(pres, 1, [ZERO])
    for p in relations:
        if ev.eval(p, scaled=True)[0].any():
            raise AssertionError("relation fails the evaluation zero filter")
    return pres


# ---------------------------------------------------------------------------
# bounded relation closure

_MAX_UNIVERSE = 300_000


def _count_words(N, L, R_ord):
    """Number of words of length <= L with total series order <= R_ord."""
    nn = N * N
    dp = {0: 1}  # sum_r -> count, for current length
    total = 1
    for _ in range(L):
        nxt = {}
        for s, c in dp.items():
            for r in range(1, R_ord - s + 1):
                nxt[s + r] = nxt.get(s + r, 0) + c * nn
        total += sum(nxt.values())
        dp = nxt
        if not dp:
            break
    return total


def _universe(N, L, R_ord):
    """All bounded words, sorted so that the preferred pivot (smallest id)
    has the highest filtration grade (sum_r - len, then sum_r, then lex).

    Returns (words, sum_r of each word, letters as (id, r) pairs)."""
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
    return [w for _, _, w in keyed], [-s for _, s, _ in keyed], letters


class RelationClosure:
    """Row-reduced basis of (two-sided relation ideal) ∩ (bounded slice)."""

    __slots__ = ("pres", "L", "R_ord", "quotient_mode", "reducer",
                 "id2word", "word2id", "col_sum_r")

    def __init__(self, pres, L, R_ord, quotient_mode, reducer, id2word,
                 word2id, col_sum_r):
        self.pres = pres
        self.L = L
        self.R_ord = R_ord
        self.quotient_mode = quotient_mode
        self.reducer = reducer
        self.id2word = id2word
        self.word2id = word2id
        self.col_sum_r = col_sum_r  # total series order of each column word

    @property
    def bounds(self):
        return (self.L, self.R_ord)

    @property
    def rank(self):
        return self.reducer.rank


def _poly_to_row(word2id, p):
    row = {}
    for w, c in p.terms.items():
        i = word2id.get(w)
        if i is None:
            raise OutOfBounds("word outside the bounded slice: %r" % (w,))
        row[i] = c
    return row


def _row_to_poly(id2word, row):
    return NCPoly({id2word[i]: c for i, c in row.items()})


def closure(pres, L, R_ord, quotient_mode=False):
    """Span of bounded two-sided multiples of the relations (and, in
    quotient mode, of the entries of Z(u) - I), row-reduced exactly."""
    if L < 1 or R_ord < 2:
        raise ValueError("L >= 1 and R_ord >= 2 required")
    N = pres.N
    est = _count_words(N, L, R_ord)
    if est > _MAX_UNIVERSE:
        raise BoundsTooLarge("bounded slice would hold %d words" % est)
    id2word, col_sum_r, letters = _universe(N, L, R_ord)
    word2id = {w: k for k, w in enumerate(id2word)}

    seeds = [p for p in pres.relations
             if p.max_len() <= L and p.max_sum_r() <= R_ord]
    if quotient_mode:
        # Z(u) is a free-algebra computation, available at any order
        zord = R_ord
        Z = _z_matrix(pres, zord)
        for r in range(1, zord + 1):
            for i in range(N):
                for j in range(N):
                    p = Z.coeffs[r][i, j]
                    if p and p.max_len() <= L and p.max_sum_r() <= R_ord:
                        seeds.append(_canon_poly(p))
        seeds.sort(key=_poly_sort_key)

    red = linalg.SparseReducer()
    queue = deque()
    for p in seeds:
        piv = red.add_return_pivot(_poly_to_row(word2id, p))
        if piv is not None:
            queue.append(piv)

    while queue:
        piv = queue.popleft()
        base = red.rows.get(piv)
        if base is None:
            continue
        items = list(base.items())
        maxlen = max(len(id2word[i]) for i in base)
        maxsr = max(col_sum_r[i] for i in base)
        if maxlen + 1 > L:
            continue
        for g, r in letters:
            if r + maxsr > R_ord:
                continue
            for side in (0, 1):
                prod = {}
                ok = True
                for col, c in items:
                    w = id2word[col]
                    nw = (g,) + w if side == 0 else w + (g,)
                    nid = word2id.get(nw)
                    if nid is None:
                        ok = False
                        break
                    prod[nid] = c
                if ok and prod:
                    npiv = red.add_return_pivot(prod)
                    if npiv is not None:
                        queue.append(npiv)
    return RelationClosure(pres, L, R_ord, quotient_mode, red, id2word,
                           word2id, col_sum_r)


def closure_for_query(pres, L, R_ord, quotient=False):
    """Closure whose internal bounds are enlarged so that every sub-slice
    query at (L, R_ord) is saturated.

    The denominator-clearing degree d pushes relation content up by d in
    total series order, and cross-cancellations between letter-multiples
    of relations need one extra length slot when d > 1; the relations
    themselves have length 2, so the length is enlarged from at least 2;
    quotient-mode generators carry one extra order and length themselves.
    Query results through :func:`slice_dimension` are monotone in the
    internal bounds.  The bounds were checked against independent counts
    (``pbw_count``) only for clearing degree d <= 2: sl, so, sp and the
    spin-1 representation of sl2.  At d = 3 the quotient bound is too
    small: for the spin-3/2 representation of sl2 (not yet built by this
    library), the quotient slice (1, 2) reads 12 at internal (3, 3)
    against 7 at (3, 4) and (4, 4)."""
    d = pres.clear_degree
    if quotient:
        m = max(L, R_ord) + 1
        Li, Ri = m, m
    else:
        Li, Ri = max(L, 2) + d - 1, R_ord + d
    return closure(pres, Li, Ri, quotient_mode=quotient)


def normal_form(cl, p):
    """Reduction of p against the closure basis (exact; p must fit)."""
    if not isinstance(p, NCPoly):
        p = NCPoly.constant(Fraction(p))
    row = _poly_to_row(cl.word2id, p)
    return _row_to_poly(cl.id2word, cl.reducer.reduce(row))


def is_in_ideal(cl, p):
    return not normal_form(cl, p)


def _fits(cl, p):
    return p.max_len() <= cl.L and p.max_sum_r() <= cl.R_ord


def _check_members(cl, items):
    """Bounded membership checks over (key, NCPoly) items, one policy for
    every verdict: an item that does not fit the closure bounds is
    skipped; a zero item is tested and passes without a reduction; any
    other item is tested and fails when it is not in the ideal.  Returns
    the key lists (tested, skipped, failures), each in item order."""
    tested, skipped, failures = [], [], []
    for key, p in items:
        if p and not _fits(cl, p):
            skipped.append(key)
            continue
        tested.append(key)
        if p and not is_in_ideal(cl, p):
            failures.append(key)
    return tested, skipped, failures


def _nonzero_entries(K, N, entry):
    """([r, i, j], entry(r, i, j)) at orders 1..K and 1-based matrix
    positions, leaving out the zero entries."""
    for r in range(1, K + 1):
        for i in range(N):
            for j in range(N):
                p = entry(r, i, j)
                if p:
                    yield [r, i + 1, j + 1], p


def _off_scalar(M):
    """Entry function of M(u) minus its scalar part m_11(u) I."""
    return lambda r, i, j: M.coeffs[r][i, j] - (
        M.coeffs[r][0, 0] if i == j else NCPoly.zero())


def _commutators(cl, N, coeffs):
    """([r, s, k, l], [c, t_kl^(s)]) for each (r, c) of coeffs whose
    commutators with a generator fit the length bound, at every s with
    r + s <= R_ord."""
    for r, c in coeffs:
        if c.max_len() + 1 > cl.L:
            continue
        for s in range(1, cl.R_ord - r + 1):
            for k in range(1, N + 1):
                for l in range(1, N + 1):
                    t = NCPoly.gen(k, l, s)
                    yield [r, s, k, l], c * t - t * c


def _report(check, pres, cl, details=None):
    """Header of a bounded check report; "pass" until a failure is set."""
    return {"check": check, "family": pres.family, "N": pres.N,
            "K": pres.K, "bounds": list(cl.bounds), "status": "pass",
            "details": {} if details is None else details}


def slice_dimension(cl, length, sum_r):
    """dim of the queried slice of the associated graded algebra: words in
    the sub-slice minus dim(graded ideal ∩ sub-slice).

    Column ids descend through the filtration grade (sum_r − len), so each
    reduced basis row's pivot realizes the row's maximal grade and the
    leading parts of the basis rows span the graded ideal.  Leading parts
    are independent (distinct pivots), so the intersection dimension is
    rank(basis) − rank(leading parts restricted to the columns outside the
    sub-slice): a graded ideal element lies inside the sub-slice exactly
    when a combination of leading parts cancels outside it."""
    if length > cl.L or sum_r > cl.R_ord:
        raise OutOfBounds("queried slice exceeds closure bounds")

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


def pbw_count(lie, rep, L, R_ord, quotient=False):
    """Multisets from a weighted alphabet: one letter per basis element of
    the current Lie algebra per weight w >= 1, total weight <= R_ord, size
    <= L.  Extended mode adds the commutant dimension per weight."""
    D = lie.dim + (0 if quotient else len(commutant(rep, True)))
    # dp[(size, weight)] = count of multisets using weights processed so far
    dp = {(0, 0): 1}
    for w in range(1, R_ord + 1):
        nxt = {}
        for (sz, wt), c in dp.items():
            j = 0
            while sz + j <= L and wt + j * w <= R_ord:
                key = (sz + j, wt + j * w)
                nxt[key] = nxt.get(key, 0) + c * comb(D + j - 1, j)
                j += 1
        dp = nxt
    return sum(dp.values())


# ---------------------------------------------------------------------------
# central series

class CentralSeries:
    """Scalar central series z(u) with its matrix source Z(u) and the
    commutative y-polynomials solving z(u) = y(u) y(u + c_g/2)^{-1}."""

    __slots__ = ("z", "zmat", "y", "c_g", "report")

    def __init__(self, z, zmat, c_g, report):
        self.z = z          # list of NCPoly, index r (z[0] = 1, z[1] = 0)
        self.zmat = zmat    # MatSeries of Z(u)
        self.y = None       # list of CPoly in z-symbols, set by y_from_z
        self.c_g = c_g
        self.report = report

    def z_truncseries(self, order=None):
        order = len(self.z) - 1 if order is None else order
        return TruncSeries(self.z[: order + 1])


def _z_matrix(pres, K):
    """Z(u) = S^2(T(u)) T(u + c_g/2)^{-1} to order K (cached on pres)."""
    if K in pres._zcache:
        return pres._zcache[K]
    N = pres.N
    table = antipode_table(N, K)
    table2 = {g: antipode_poly(p, table) for g, p in table.items()}
    T = t_matrix(N, K)
    s2 = [T.coeffs[0]]
    for r in range(1, K + 1):
        m = np.empty((N, N), dtype=object)
        for i in range(N):
            for j in range(N):
                m[i, j] = table2[gen_id(i + 1, j + 1, r)]
        s2.append(m)
    S2T = MatSeries(s2, N)
    half = pres.casimir.c_g / 2
    Z = mat_mul(S2T, mat_inverse(mat_shift(T, half)))
    pres._zcache[K] = Z
    return Z


def _z_coeffs(Z, K):
    """z_0..z_K read off the (1, 1) entries of Z(u), with z_1 = 0."""
    return [NCPoly.one(), NCPoly.zero()] + [Z.coeffs[r][0, 0]
                                            for r in range(2, K + 1)]


def z_series(pres, cl):
    """Compute Z(u), assert z_1 = 0 in the free algebra, and verify that Z
    is scalar and central modulo the ideal at every testable order."""
    K = pres.K
    N = pres.N
    Z = _z_matrix(pres, K)
    report = _report("z_series", pres, cl)
    det = report["details"]

    z1_zero = all(not Z.coeffs[1][i, j] for i in range(N) for j in range(N))
    det["z1_zero_free_algebra"] = z1_zero
    if not z1_zero:
        report["status"] = "fail"

    scalar_tested, _, scalar_fail = _check_members(
        cl, _nonzero_entries(K, N, _off_scalar(Z)))
    det["scalar_tested"] = scalar_tested
    det["scalar_failures"] = scalar_fail

    z = _z_coeffs(Z, K)
    tested, _, central_fail = _check_members(
        cl, _commutators(cl, N, ((r, z[r]) for r in range(2, K + 1))))
    # one [r, s, passed] entry per tested (r, s) block of N^2 commutators
    failed = {(r, s) for r, s, _, _ in central_fail}
    det["centrality_tested_r_s"] = [
        [r, s, (r, s) not in failed]
        for r, s in dict.fromkeys((r, s) for r, s, _, _ in tested)]
    det["centrality_failures"] = central_fail
    if scalar_fail or central_fail:
        report["status"] = "fail"
    return CentralSeries(z, Z, pres.casimir.c_g, report)


# ---------------------------------------------------------------------------
# commutative polynomials in z-symbols (for y(u))

class CPoly:
    """Commutative polynomial in symbols z_r; monomial = sorted tuple of
    r-indices, e.g. z2^2 z3 = (2, 2, 3)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @staticmethod
    def zero():
        return CPoly({})

    @staticmethod
    def one():
        return CPoly({(): ONE})

    @staticmethod
    def constant(c):
        return CPoly({(): Fraction(c)})

    @staticmethod
    def symbol(r):
        return CPoly({(r,): ONE})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, CPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join("z%d" % r for r in m) or "1"
            bits.append("%s*%s" % (c, mono))
        return " + ".join(bits)

    def _coerce(self, other):
        if isinstance(other, CPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return CPoly.constant(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in o.terms.items():
            out[m] = out.get(m, ZERO) + c
        return CPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return CPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                m = tuple(sorted(m1 + m2))
                out[m] = out.get(m, ZERO) + c1 * c2
        return CPoly(out)

    __rmul__ = __mul__

    def unit_inverse(self):
        if list(self.terms) != [()]:
            raise ValueError("only constants are invertible here")
        return CPoly({(): ONE / self.terms[()]})

    def constant_coeff(self):
        return self.terms.get((), ZERO)

    def to_json(self):
        return [{"coeff": rat_to_str(c), "monomial": list(m)}
                for m, c in sorted(self.terms.items())]


def y_from_z(cs, K):
    """Solve z(u) = y(u) y(u + c_g/2)^{-1} order by order for y in the
    commutative ring of z-symbols; updates cs.y and returns cs."""
    if cs.c_g == 0:
        raise ValueError("c_g must be nonzero")
    half = cs.c_g / 2
    zc = [CPoly.one(), CPoly.zero()]
    zc += [CPoly.symbol(r) for r in range(2, K + 2)]
    zser = TruncSeries(zc)

    y = [CPoly.one()]
    for r in range(2, K + 2):
        # placeholder zeros for the still-unknown orders
        ytrial = y + [CPoly.zero()] * (K + 2 - len(y))
        yser = TruncSeries(ytrial)
        res = series_mul(zser, series_shift(yser, half)) - yser
        resid = res.coeffs[r]
        # the unknown y_{r-1} enters order r with coefficient -(r-1) c_g/2
        y.append(resid * (ONE / (Fraction(r - 1) * half)))
    cs.y = y[: K + 1]

    # verification: y(u) y(u + c_g/2)^{-1} = z(u) up to order K
    yser = TruncSeries(cs.y + [CPoly.zero()] * (K + 2 - len(cs.y)))
    lhs = series_mul(yser, series_inverse(series_shift(yser, half)))
    ok = all(lhs.coeffs[r] == zser.coeffs[r] for r in range(K + 1))
    cs.report.setdefault("details", {})["y_recursion_verified_to"] = (
        K if ok else -1)
    if not ok:
        cs.report["status"] = "fail"
    return cs


def _cpoly_to_ncpoly(cp, cs):
    """Substitute the actual z_r polynomials into a CPoly (fixed ascending
    factor order; z-coefficients are central in the quotient)."""
    out = NCPoly.zero()
    for m, c in sorted(cp.terms.items()):
        term = NCPoly.constant(c)
        for r in m:
            term = term * cs.z[r]
        out = out + term
    return out


# ---------------------------------------------------------------------------
# quantum determinant (sl) and symmetry series (so/sp)

def _perm_sign(p):
    sign = 1
    seen = [False] * len(p)
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _z_list(pres, cs):
    """cs.z, or z_0..z_K read off Z(u) when no central series is given."""
    return cs.z if cs is not None else _z_coeffs(_z_matrix(pres, pres.K),
                                                 pres.K)


def qdet(pres, cl, cs=None):
    """qdet T(u) = sum_pi sign(pi) t_{pi(1),1}(u) ... t_{pi(N),N}(u-N+1),
    with centrality and z(u) = zdet(u+N) verified modulo the ideal."""
    if pres.family != "sl":
        raise WrongFamily("qdet is defined for sl only")
    N = pres.N
    K = pres.K
    T = t_matrix(N, K)
    cols = [mat_shift(T, Fraction(-j)) for j in range(N)]
    qd = None
    for pi in permutations(range(N)):
        sign = Fraction(_perm_sign(pi))
        term = None
        for j in range(N):
            fac = cols[j].entry(pi[j], j)
            term = fac if term is None else series_mul(term, fac)
        term = term.scale(sign)
        qd = term if qd is None else qd + term
    report = _report("qdet", pres, cl)
    det = report["details"]

    orders = range(1, min(3, K) + 1)
    tested, _, central_fail = _check_members(
        cl, _commutators(cl, N, ((r, qd.coeffs[r]) for r in orders)))
    det["centrality_tested"] = len(tested)
    det["centrality_failures"] = central_fail

    # zdet(u) = qdet T(u-1) (qdet T(u))^{-1}; z(u) = zdet(u+N) mod ideal
    zdet = series_mul(series_shift(qd, Fraction(-1)), series_inverse(qd))
    zlist = _z_list(pres, cs)
    shifted = series_shift(zdet, Fraction(N))
    match_tested, _, match_fail = _check_members(
        cl, ((r, zlist[r] - shifted.coeffs[r]) for r in orders))
    det["z_equals_shifted_zdet_orders"] = match_tested
    det["z_match_failures"] = match_fail
    if central_fail or match_fail:
        report["status"] = "fail"
    return qd, report


def symmetry_series(pres, cl, cs=None):
    """T^t(u+kappa) T(u) = zdet(u) I modulo the ideal (so/sp), plus the
    two-sided equality and z(u) = zdet(u) zdet(u+kappa)^{-1}."""
    if pres.family not in ("so", "sp"):
        raise WrongFamily("symmetry series is defined for so/sp only")
    N = pres.N
    K = pres.K
    kap = pres.lie.kappa
    T = t_matrix(N, K)
    Tt = transpose_t(mat_shift(T, kap), pres.lie)
    M = mat_mul(Tt, T)
    M2 = mat_mul(T, Tt)
    report = _report("symmetry_series", pres, cl)
    det = report["details"]

    scalar_tested, _, scalar_fail = _check_members(
        cl, _nonzero_entries(K, N, _off_scalar(M)))
    det["scalar_tested"] = len(scalar_tested)
    det["scalar_failures"] = scalar_fail

    two_sided_tested, _, two_sided_fail = _check_members(
        cl, _nonzero_entries(
            K, N, lambda r, i, j: M.coeffs[r][i, j] - M2.coeffs[r][i, j]))
    det["two_sided_tested"] = len(two_sided_tested)
    det["two_sided_failures"] = two_sided_fail

    zdet = TruncSeries([M.coeffs[r][0, 0] for r in range(K + 1)])
    zlist = _z_list(pres, cs)
    rhs = series_mul(zdet, series_inverse(series_shift(zdet, kap)))
    match_tested, _, match_fail = _check_members(
        cl, ((r, zlist[r] - rhs.coeffs[r]) for r in range(1, K + 1)))
    det["z_equals_zdet_ratio_orders"] = match_tested
    det["z_match_failures"] = match_fail
    if scalar_fail or two_sided_fail or match_fail:
        report["status"] = "fail"
    return zdet, report


# ---------------------------------------------------------------------------
# Hopf verification

def tensor_normal_form(cl, tp):
    """Reduce a TensorNCPoly modulo (ideal x A + A x ideal): left legs to
    normal form first, then right legs; zero iff membership (within
    bounds)."""
    by_right = {}
    for (w1, w2), c in tp.terms.items():
        by_right.setdefault(w2, {})[w1] = c
    mid = {}
    for w2 in sorted(by_right):
        nf = normal_form(cl, NCPoly(by_right[w2]))
        for w1, c in nf.terms.items():
            key = (w1, w2)
            mid[key] = mid.get(key, ZERO) + c
    by_left = {}
    for (w1, w2), c in mid.items():
        by_left.setdefault(w1, {})[w2] = c
    out = {}
    for w1 in sorted(by_left):
        nf = normal_form(cl, NCPoly(by_left[w1]))
        for w2, c in nf.terms.items():
            key = (w1, w2)
            out[key] = out.get(key, ZERO) + c
    return TensorNCPoly(out)


def verify_hopf(pres, cl, cs, orders=3, max_relations=None):
    """Grouplike property of z(u), the antipode identity S(z(u)) z(u) = 1,
    the counit values, and well-definedness of the coproduct."""
    N = pres.N
    K = pres.K
    report = _report("hopf", pres, cl)
    det = report["details"]

    grouplike_fail = []
    grouplike_tested = []
    for r in range(1, min(orders, K) + 1):
        target = TensorNCPoly({})
        for a in range(r + 1):
            target = target + TensorNCPoly.of(cs.z[a], cs.z[r - a])
        diff = coproduct_poly(cs.z[r], N) - target
        legs_fit = all(
            len(w1) <= cl.L and word_sum_r(w1) <= cl.R_ord
            and len(w2) <= cl.L and word_sum_r(w2) <= cl.R_ord
            for (w1, w2) in diff.terms)
        if not legs_fit:
            continue
        grouplike_tested.append(r)
        if tensor_normal_form(cl, diff):
            grouplike_fail.append(r)
    det["grouplike_orders"] = grouplike_tested
    det["grouplike_failures"] = grouplike_fail

    table = antipode_table(N, K)
    sz = TruncSeries([antipode_poly(p, table) for p in cs.z[: K + 1]])
    prod = series_mul(sz, cs.z_truncseries(K))
    antipode_tested, _, antipode_fail = _check_members(
        cl, ((r, prod.coeffs[r]) for r in range(1, min(orders, K) + 1)))
    det["antipode_orders"] = antipode_tested
    det["antipode_failures"] = antipode_fail

    counit_ok = all(counit_poly(cs.z[r]) == 0
                    for r in range(1, min(orders, K) + 1))
    det["counit_zero"] = counit_ok

    rels = [p for p in pres.relations if _fits(cl, p)]
    if max_relations is not None:
        rels = rels[:max_relations]
    coproduct_fail = 0
    for p in rels:
        if tensor_normal_form(cl, coproduct_poly(p, N)):
            coproduct_fail += 1
    det["coproduct_relations_tested"] = len(rels)
    det["coproduct_relation_failures"] = coproduct_fail

    if grouplike_fail or antipode_fail or not counit_ok or coproduct_fail:
        report["status"] = "fail"
    return report


# ---------------------------------------------------------------------------
# fixed-point verification

def _scalar_mat(f, N):
    """The series f(u) I as a MatSeries."""
    return MatSeries([_eye(N, one=c) for c in f.coeffs], N)


def verify_fixed_point(pres, cl, cs, f, orders=2):
    """m_f(T~) = T~ modulo the ideal for T~(u) = y(u)^{-1} T(u), and
    m_f(z(u)) = (f(u)/f(u + c_g/2)) z(u) modulo the ideal."""
    if f.coeffs[0] != ONE:
        raise ValueError("f must have constant term 1")
    N = pres.N
    K = pres.K
    if cs.y is None:
        y_from_z(cs, K - 1)
    # y_r involves z-symbols up to r+1, and cs.z stops at K
    Ku = min(orders, len(cs.y) - 1, K - 1)
    report = _report("fixed_point", pres, cl,
                     {"f": [rat_to_str(c) for c in f.coeffs]})
    det = report["details"]

    ysub = [_cpoly_to_ncpoly(cs.y[r], cs) for r in range(Ku + 1)]
    yser = TruncSeries(ysub)
    yinv = series_inverse(yser)
    T = t_matrix(N, Ku)
    Tt = mat_mul(_scalar_mat(yinv, N), T)

    zmax = min(orders + 2, K)
    max_r = max(
        1, zmax,
        max((gen_ijr(g)[2] for c in Tt.coeffs for p in c.flat
             for w in p.terms for g in w), default=1),
        max((gen_ijr(g)[2] for r in range(2, zmax + 1)
             for w in cs.z[r].terms for g in w), default=1))
    fext = TruncSeries(list(f.coeffs) + [ZERO] * max(0, max_r - f.order),
                       max(max_r, f.order))
    table = mf_table(N, max_r, fext)

    # an order counts as tested when none of its entries was skipped
    _, skipped, fixed_fail = _check_members(cl, _nonzero_entries(
        Ku, N, lambda k, i, j: substitute_poly(Tt.coeffs[k][i, j], table)
        - Tt.coeffs[k][i, j]))
    det["fixed_orders"] = [k for k in range(1, Ku + 1)
                           if all(key[0] != k for key in skipped)]
    det["fixed_failures"] = fixed_fail

    # m_f(z(u)) = (f(u) / f(u + c_g/2)) z(u) mod ideal
    half = cs.c_g / 2
    ratio = series_mul(fext, series_inverse(series_shift(fext, half)))

    def scaled_z(r):
        rhs = NCPoly.zero()
        for a in range(r + 1):
            c = ratio.coeffs[a] if a <= ratio.order else ZERO
            if c and cs.z[r - a]:
                rhs = rhs + c * cs.z[r - a]
        return rhs

    scale_tested, _, scale_fail = _check_members(
        cl, ((r, substitute_poly(cs.z[r], table) - scaled_z(r))
             for r in range(2, min(orders + 2, K) + 1)))
    det["z_scaling_orders"] = scale_tested
    det["z_scaling_failures"] = scale_fail

    # shift compatibility: forming T~ commutes with u -> u + 1 exactly
    c = ONE
    A = mat_shift(Tt, c)
    B = mat_mul(_scalar_mat(series_shift(yinv, c), N), mat_shift(T, c))
    shift_ok = all((a == b).all() for a, b in zip(A.coeffs, B.coeffs))
    det["shift_compatible"] = shift_ok

    if fixed_fail or scale_fail or not shift_ok:
        report["status"] = "fail"
    return report


# ---------------------------------------------------------------------------
# low-order structure

def verify_low_order_structure(pres, cl, cs, quotient_cl=None, rep=None):
    """(a) the classical generators embed via F_ij -> t_ij^(1) -
    (2/c_g) z_ij^(2) respecting the bracket and symmetrization identities
    modulo the ideal; (b) t_ij^(3) is generated by order <= 2 elements in
    the quotient; (c) the J-coupling table (zero for vector reps)."""
    N = pres.N
    lie = pres.lie
    rep = vector_rep(lie) if rep is None else rep
    cas = pres.casimir
    c_g = cas.c_g
    om4 = np.array(cas.omega_rho).reshape(N, N, N, N)
    wop4 = np.array(cas.omega_op_frac()).reshape(N, N, N, N)
    report = _report("low_order_structure", pres, cl)
    det = report["details"]

    Z = cs.zmat
    phi = [[NCPoly.gen(i + 1, j + 1, 1) - (2 / c_g) * Z.coeffs[2][i, j]
            for j in range(N)] for i in range(N)]

    def bracket_defects():
        for i in range(N):
            for j in range(N):
                for k in range(N):
                    for l in range(N):
                        lhs = phi[i][j] * phi[k][l] - phi[k][l] * phi[i][j]
                        rhs = NCPoly.zero()
                        for b in range(N):
                            if om4[i, k, j, b]:
                                rhs = rhs + om4[i, k, j, b] * phi[b][l]
                            if om4[i, b, j, l]:
                                rhs = rhs - om4[i, b, j, l] * phi[k][b]
                        diff = lhs - rhs
                        if diff:
                            yield [i + 1, j + 1, k + 1, l + 1], diff

    def symmetrization_defects():
        for i in range(N):
            for j in range(N):
                acc = NCPoly.zero()
                for p in range(N):
                    for q in range(N):
                        if wop4[i, j, p, q]:
                            acc = acc + wop4[i, j, p, q] * phi[p][q]
                diff = phi[i][j] - (1 / c_g) * acc
                if diff:
                    yield [i + 1, j + 1], diff

    bracket_tested, _, bracket_fail = _check_members(cl, bracket_defects())
    det["embedding_bracket_tested"] = len(bracket_tested)
    det["embedding_bracket_failures"] = bracket_fail

    _, _, sym_fail = _check_members(cl, symmetrization_defects())
    det["embedding_symmetrization_failures"] = sym_fail

    gen3 = None
    if quotient_cl is not None:
        # span of (normal forms of) all bounded words in letters of order
        # <= 2; t_ij^(3) is generated by low orders iff its normal form
        # lies in that span
        qred = quotient_cl.reducer
        span = linalg.SparseReducer()
        low = [gen_id(i + 1, j + 1, r) for r in (1, 2)
               for i in range(N) for j in range(N)]
        stack = [((), 0)]
        while stack:
            w, sr = stack.pop()
            wid = quotient_cl.word2id.get(w)
            if wid is not None:
                span.add(qred.reduce({wid: ONE}))
            if len(w) < quotient_cl.L:
                for g in low:
                    r = gen_ijr(g)[2]
                    if sr + r <= quotient_cl.R_ord:
                        stack.append((w + (g,), sr + r))
        gen3 = []
        for i in range(N):
            for j in range(N):
                p = NCPoly.gen(i + 1, j + 1, 3)
                try:
                    row = _poly_to_row(quotient_cl.word2id, p)
                except OutOfBounds:
                    continue
                resid = span.reduce(qred.reduce(row))
                gen3.append([i + 1, j + 1, not resid])
        det["order3_generated_by_low_orders"] = gen3

    # J-coupling table: b^{(ij)} = rho_J applied to F_ij = -sum_l X_l[i,j] X^l
    b_table = {}
    all_zero = True
    pjd, sjd = _Tensors(lie, rep).dual(*rep.int_j())
    bx, sbx = frac_to_int_array(list(lie.basis))
    bj = -checked_einsum("lij,lab->ijab", bx, pjd)
    for i in range(N):
        for j in range(N):
            if bj[i, j].any():
                all_zero = False
                b_table["%d,%d" % (i + 1, j + 1)] = [
                    [rat_to_str(Fraction(int(x)) * sbx * sjd) for x in row]
                    for row in bj[i, j]]
    det["b_table_all_zero"] = all_zero
    if not all_zero:
        det["b_table"] = b_table

    if bracket_fail or sym_fail or (gen3 is not None
                                    and not all(g[2] for g in gen3)):
        report["status"] = "fail"
    return report


# ---------------------------------------------------------------------------
# evaluation modules

class EvalModule:
    """Exact homomorphism X -> End(V^{(x)k}): T(u) -> R_{01}(u - a_1) ...
    R_{0k}(u - a_k) read in the auxiliary slot 0.

    The image of each generator t_ij^(r) is an integer matrix (int64, or
    Python ints where int64 could overflow), and all of them share one
    scale ``self.scale`` = 1/D: the image is ``self.scale`` times it.
    """

    __slots__ = ("pres", "k", "shifts", "N", "Nk", "order", "scale",
                 "_images")

    def __init__(self, pres, k, shifts, order=None):
        if len(shifts) != k:
            raise ValueError("need one shift per tensor factor")
        self.pres = pres
        self.k = k
        self.shifts = [Fraction(s) for s in shifts]
        N = pres.N
        self.N = N
        Nk = self.Nk = N ** k
        self.order = (pres.K + 1 + pres.clear_degree
                      if order is None else order)
        dim = N ** (k + 1)
        series = None
        scale = ONE
        for m in range(1, k + 1):
            factor, fscale = self._embedded_factor(m, dim)
            scale *= fscale
            if series is None:
                series = factor
                continue
            out = []
            for r in range(self.order + 1):
                acc = None
                for a in range(r + 1):
                    acc = safe_axpy(acc, 1,
                                    safe_matmul(series[a], factor[r - a]))
                out.append(acc)
            series = out
        self.scale = scale
        self._images = {
            gen_id(i, j, r): np.ascontiguousarray(
                series[r][(i - 1) * Nk: i * Nk, (j - 1) * Nk: j * Nk])
            for r in range(1, self.order + 1)
            for i in range(1, N + 1) for j in range(1, N + 1)}

    def _embedded_factor(self, m, dim):
        """Coefficients of R_{0m}(u - a_m) at u^-r, r <= order, on
        V^{(x)(k+1)}: a list of integer matrices and their common scale."""
        N = self.N
        expanded, scale = self.pres.R.shifted(
            self.shifts[m - 1]).expand_scaled(self.order)
        out = np.zeros((self.order + 1, dim, dim), dtype=expanded.dtype)
        k = self.k
        powers = [N ** (k - t) for t in range(k + 1)]  # digit place values
        for row in range(dim):
            rd = [(row // powers[t]) % N for t in range(k + 1)]
            base = expanded[:, rd[0] * N + rd[m]]
            for a in range(N):
                for b in range(N):
                    col = row + (a - rd[0]) * powers[0] \
                        + (b - rd[m]) * powers[m]
                    out[:, row, col] = base[:, a * N + b]
        return list(out), scale

    def eval(self, p, scaled=False):
        """Image of an NCPoly under the homomorphism, as a Fraction matrix;
        with ``scaled``, as a pair (S, s) of an integer matrix S and a
        Fraction s whose product is that image.

        The words are walked in sorted order on a stack of prefix
        products, so a word reuses the products of the prefix it shares
        with the previous word.  The coefficients are brought to one
        denominator and the integer products are summed per word length,
        so Fractions appear only in the result.
        """
        images = self._images
        clear = 1
        for c in p.terms.values():
            clear = lcm(clear, c.denominator)
        acc = {}     # word length -> sum of numerator * word product
        stack = []   # stack[t]: product of the first t + 1 letters of prev
        prev = ()
        for w in sorted(p.terms):
            n = 0
            for x, y in zip(w, prev):
                if x != y:
                    break
                n += 1
            del stack[n:]
            for g in w[n:]:
                img = images.get(g)
                if img is None:
                    raise OutOfBounds("generator outside the module's "
                                      "expansion order")
                stack.append(safe_matmul(stack[-1], img) if stack else img)
            prev = w
            c = p.terms[w]
            L = len(w)
            prod = stack[-1] if L else np.eye(self.Nk, dtype=np.int64)
            acc[L] = safe_axpy(acc.get(L),
                               c.numerator * (clear // c.denominator), prod)
        # sum_L acc[L] / (clear * D^L) over the denominator clear * D^top
        D = self.scale.denominator
        top = max(acc, default=0)
        S = np.zeros((self.Nk, self.Nk), dtype=np.int64)
        for L, a in acc.items():
            S = safe_axpy(S, D ** (top - L), a)
        s = Fraction(1, clear * D ** top)
        return (S, s) if scaled else int_to_frac_array(S, s)

    def eval_scalar(self, p):
        """Image of p, required to be a scalar matrix; returns the scalar."""
        S, s = self.eval(p, scaled=True)
        d = S[0, 0]
        off = S.copy()
        np.fill_diagonal(off, 0)
        if off.any() or (S.diagonal() != d).any():
            raise ValueError("image is not a scalar matrix")
        return int(d) * s


def evaluation_module(pres, k, shifts, order=None):
    return EvalModule(pres, k, shifts, order)


def central_monomial_certificate(pres, cs, degree=2, symbols=(2, 3)):
    """Independence of monomials in the z-symbols of bounded degree modulo
    the true ideal, certified by a full-rank value matrix over a family of
    evaluation modules (each z-monomial acts by an exact scalar)."""
    mons = [()]
    for a in symbols:
        mons.append((a,))
    if degree >= 2:
        for ai, a in enumerate(symbols):
            for b in symbols[ai:]:
                mons.append((a, b))
    polys = []
    for m in mons:
        p = NCPoly.one()
        for r in m:
            p = p * cs.z[r]
        polys.append(p)

    # (factors, shifts, scaling-series coefficients or None); composing
    # with the algebra automorphism T(u) -> f(u) T(u) multiplies the
    # z-values by f(u)/f(u + c_g/2), which separates symbols that the
    # plain vector modules evaluate to zero
    module_specs = [
        (1, [0], None), (1, [1], None), (2, [0, 0], None),
        (2, [0, 1], None), (3, [0, 0, 0], None), (3, [0, 0, 1], None),
        (1, [0], [1, 1]), (1, [0], [1, 2]), (2, [0, 0], [1, 1]),
        (2, [0, 1], [1, 2]), (1, [0], [1, 3]), (1, [0], [1, 0, 1]),
    ]
    order = max(symbols) + 1
    rows = []
    used = []
    target = len(mons)
    for k, shifts, f in module_specs:
        ev = evaluation_module(pres, k, [Fraction(s) for s in shifts],
                               order=order)
        if f is None:
            row = [ev.eval_scalar(p) for p in polys]
        else:
            fser = TruncSeries(
                [Fraction(c) for c in f]
                + [ZERO] * (order + 1 - len(f)), order)
            table = mf_table(pres.N, order, fser)
            row = [ev.eval_scalar(substitute_poly(p, table))
                   for p in polys]
        rows.append(row)
        used.append([k, [rat_to_str(Fraction(s)) for s in shifts],
                     None if f is None else [str(c) for c in f]])
        if linalg.rank(rows, target) == target:
            break
    rk = linalg.rank(rows, target)
    return {
        "check": "central_monomial_independence",
        "family": pres.family, "N": pres.N, "K": pres.K,
        "status": "pass" if rk == target else "fail",
        "details": {
            "monomials": [list(m) for m in mons],
            "modules": used,
            "rank": rk,
            "target": target,
            "values": [[rat_to_str(v) for v in row] for row in rows],
        },
    }
