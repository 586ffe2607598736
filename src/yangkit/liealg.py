"""Classical Lie algebra layer: sl_N, so_N, sp_N data, Casimir elements,
adjoint-module decompositions of gl(V), and the finite-dimensional
verification reports (classical presentation, current presentation,
extension split, Yangian module relations).

All arithmetic is exact.  Tensor contractions run on int64 numpy arrays
carrying an explicit Fraction scale; every contraction is guarded by an
a-priori overflow bound and falls back to an error (never silently
wraps).  The algebra's basis and inverse Gram matrix, and a
representation's rho(X) and rho(J), are held once as read-only int64
stacks over one Fraction scale each (``LieAlgebraData``,
``Representation``), the form every reader takes as it is.  The
integer tensors built from them (the dual images of rho(X), Omega_rho,
the ad operators, the omega-operator on End V and c_g) are built in one
place, ``casimir(data, rep)``, whose ``CasimirData`` names the algebra
and the representation too: every reader takes that one value, never
a pair that could disagree.  The commutant of a representation is
built in one place, ``commutant``.
Kernels and inverses (``linalg``) answer on integers, so the commutant,
minimal polynomials, eigenspaces and ``decompose_ad``'s blocks are too.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import ONE, ZERO, check_report, poly_divmod, poly_gcd, poly_mul
from . import linalg

SL, SO, SP = "sl", "so", "sp"
FAMILIES = (SL, SO, SP)


class InvalidAlgebra(ValueError):
    pass


class UnsupportedDecomposition(RuntimeError):
    pass


class OverflowGuard(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# scaled-int tensor helpers

# Guarded contractions stay below 2**57 in absolute value, so sums of up
# to 32 guarded results still fit in int64 without further checks.
_INT_LIMIT = 2 ** 57


# numpy's optimize=True spends 20-30 us searching a contraction path,
# which only pays when the naive loop is large.  Loop size (product of
# every label's extent) against einsum with and without the path search,
# best of 5 (2-vCPU x86-64, numpy 2.4, int64 operands):
#       648  lac,lbd->abcd   (8,3,3)^2            31 vs  5.3 us
#     1,944  aJz,zIKJkK->akI (8,3,3),(3,)*6       21 vs 17 us
#     6,250  lik,jm->lijkm   (10,5,5),(5,5)       30 vs 19 us
#     8,100  nl,nab->lab     (15,15),(15,6,6)     39 vs 13 us
#    14,400  lab,nbc->lnac   (15,4,4)^2           30 vs 62 us
#    15,360  aiz,zIIJJK->aiK (15,4,4),(4,)*6      32 vs 117 us
#   116,640  aiz,zIIJJK->aiK (15,6,6),(6,)*6      24 vs 296 us
# Contractions below the cut-over skip the search; larger ones keep it.
_EINSUM_PATH_MIN_LOOP = 8192


def checked_einsum(spec, *ops):
    """int64 einsum with an exact overflow guard on absolute values.

    A coarse bound (product of per-operand max magnitudes times the number
    of summed terms) is tried first; only if it is inconclusive is the
    elementwise absolute-value einsum computed.  numpy's contraction path
    search runs only when the naive loop (the product of every label's
    extent) reaches _EINSUM_PATH_MIN_LOOP; below it the search costs more
    than the contraction.  Integer sums are exact in any order, so the
    path never changes the result.
    """
    ins, out = spec.split("->")
    sizes = {}
    for part, op in zip(ins.split(","), ops):
        for lab, n in zip(part, op.shape):
            sizes[lab] = n
    terms = loop = 1
    for lab, n in sizes.items():
        loop *= n
        if lab not in out:
            terms *= n
    optimize = loop >= _EINSUM_PATH_MIN_LOOP
    coarse = terms
    for op in ops:
        coarse *= int(np.abs(op).max(initial=0))
    if coarse >= _INT_LIMIT:
        bound = np.einsum(spec, *[np.abs(o).astype(float) for o in ops],
                          optimize=optimize)
        if bound.size and float(bound.max()) * 1.000001 > _INT_LIMIT:
            raise OverflowGuard("contraction may exceed int64 range: %s"
                                % spec)
    return np.einsum(spec, *ops, optimize=optimize)


def _int_array(ints):
    """Nested lists of Python ints as an int64 array, or as exact Python
    ints (dtype object) when an entry is beyond the int64 fast path."""
    arr = np.array(ints, dtype=object)
    if any(abs(v) >= _INT_LIMIT for v in arr.flat):
        return arr
    return arr.astype(np.int64)


def _max_abs(a):
    return int(np.abs(a).max(initial=0))


def _is_scalar(m):
    """Whether the square integer matrix m is a multiple of I."""
    diag = np.diagonal(m)
    return bool((diag == diag[0]).all()) and \
        np.count_nonzero(m) == np.count_nonzero(diag)


# float64 holds every integer below 2**53 exactly.  If the inner dimension
# times max|a| times max|b| stays below it, every product and every partial
# sum of an int64 matmul is such an integer, so a float64 (BLAS) matmul
# returns the exact result in any summation order, with or without FMA
# (Dumas, Giorgi & Pernet, ACM TOMS 35(3), 2008).
_FLOAT_LIMIT = 2 ** 53
# Smaller products stay on int64.  Square products, best of 5 (2-vCPU
# x86-64, numpy 2.4 with OpenBLAS), int64 vs float64 with both casts:
# 0.6 vs 1.2 us at 2, 2.1 vs 2.4 us at 16, 6.7 vs 3.2 us at 24, 14 vs
# 3.8 us at 32, 92 vs 7.6 us at 64, 4.0 vs 0.22 ms at 216.  The cut-over
# sits above the crossing, so that the small evaluation-module products
# of the center suite (2x2 up to 16x16) keep the int64 route.
_FLOAT_MIN_INNER = 32


def safe_matmul(a, b, amax=None, bmax=None):
    """Exact product of integer matrices; never wraps or rounds.

    Operands are int64, Python ints (dtype object), or float64 arrays
    that hold integers below 2**53.  The routes, first that applies:

    * float64 BLAS while inner * max|a| * max|b| < 2**53, so that every
      partial sum is an integer below 2**53.  int64 operands take it from
      an inner dimension of _FLOAT_MIN_INNER on and get an int64 result.
      A product with a float64 operand always tries it and gets a float64
      result, so a chain of such products stays in float64 with no casts;
    * int64 while the checked_einsum guard proves that the result fits
      (float64 operands are cast to int64 first, which is exact);
    * Python ints otherwise, also when the other operand is float64.

    ``amax`` and ``bmax`` are optional upper bounds on max|a| and max|b|,
    for example carried through a chain as inner * amax * bmax.  When
    they prove the route, they replace the scan of both operands;
    otherwise the operands are scanned as without them, so the route and
    the dtype of the result never depend on the bounds."""
    if a.dtype != object and b.dtype != object:
        inner = a.shape[1]
        held = a.dtype.kind == "f" or b.dtype.kind == "f"
        floatable = held or (inner >= _FLOAT_MIN_INNER
                             and a.dtype == np.int64 and b.dtype == np.int64)
        if (amax is None or bmax is None or inner * amax * bmax
                >= (_FLOAT_LIMIT if floatable else _INT_LIMIT)):
            amax, bmax = _max_abs(a), _max_abs(b)
        bound = inner * amax * bmax
        if bound < _FLOAT_LIMIT and floatable:
            out = (a.astype(np.float64, copy=False)
                   @ b.astype(np.float64, copy=False))
            return out if held else out.astype(np.int64)
        if held:
            a = a.astype(np.int64, copy=False)
            b = b.astype(np.int64, copy=False)
        if bound < _INT_LIMIT:
            return a @ b
        try:
            return checked_einsum("ij,jk->ik", a, b)
        except OverflowGuard:
            pass
    # a float64 operand goes through int64 so that it becomes Python ints,
    # not Python floats, which would round the products and the sums
    a, b = (x.astype(np.int64) if x.dtype.kind == "f" else x for x in (a, b))
    return a.astype(object) @ b.astype(object)


def safe_axpy(acc, c, m, accmax=None, mmax=None):
    """Exact acc + c * m for integer matrices and an int c (acc None reads
    as zero): int64 while the magnitudes provably fit, Python ints
    (dtype object) otherwise.  Never wraps.

    ``accmax`` and ``mmax`` are optional upper bounds on max|acc| and
    max|m|, used as in safe_matmul: they replace the scans only when they
    prove that the int64 route fits."""
    if (m.dtype != object and abs(c) < _INT_LIMIT
            and (acc is None or acc.dtype != object)):
        if acc is None:
            accmax = 0
        if (accmax is None or mmax is None
                or abs(c) * mmax + accmax >= _INT_LIMIT):
            mmax = _max_abs(m)
            accmax = 0 if acc is None else _max_abs(acc)
        if abs(c) * mmax + accmax < _INT_LIMIT:
            t = m if c == 1 else m * c
            return t if acc is None else acc + t
    t = m.astype(object) * c
    return t if acc is None else acc.astype(object) + t


def scaled_equal(a, sa, b, sb):
    """Exact equality of sa*a and sb*b for int arrays with Fraction scales,
    as a num(sa) den(sb) = b num(sb) den(sa): a zero scale is allowed."""
    lhs = a.astype(object) * (sa.numerator * sb.denominator)
    rhs = b.astype(object) * (sb.numerator * sa.denominator)
    return bool((lhs == rhs).all())


def int_to_frac_array(a, scale):
    """Fraction array scale * a of an integer array (int64 or object).
    Every entry is a Fraction; the zero entries are all the one ZERO."""
    p, q = scale.numerator, scale.denominator
    return np.array([Fraction(x * p, q) if x else ZERO
                     for x in a.ravel().tolist()],
                    dtype=object).reshape(a.shape)


# ---------------------------------------------------------------------------
# index conventions

def signed_indices(family, N):
    """The signed index set for so/sp: [-n..-1,(0),1..n]; 1..N for sl."""
    if family == SL:
        return list(range(1, N + 1))
    n = N // 2
    neg = list(range(-n, 0))
    pos = list(range(1, n + 1))
    return neg + ([0] if N % 2 else []) + pos


def theta_value(family, i, j):
    if family == SO:
        return 1
    if family == SP:
        si = 1 if i > 0 else -1
        sj = 1 if j > 0 else -1
        return si * sj
    raise InvalidAlgebra("theta is defined for so/sp only")


@dataclass(frozen=True, eq=False)
class LieAlgebraData:
    """A classical Lie algebra in its vector representation.

    ``basis`` stacks the basis matrices X_l as one read-only int64 array
    of shape (dim, N, N); its entries are 0 and +-1 (and +-2 on the sp
    basis elements 2 E_{i,-i}), so it carries no scale.  The
    inverse of the Gram matrix (X_a, X_b) = form_scale tr(X_a X_b) is
    ``sginv * ginv``, with ``ginv`` a read-only int64 (dim, dim) array."""
    family: str
    N: int
    dim: int
    basis: np.ndarray
    ginv: np.ndarray
    sginv: Fraction
    form_scale: Fraction  # trace-form multiplier: 1 (sl) or 1/2 (so/sp)
    kappa: object         # Fraction for so/sp, None for sl
    indices: tuple        # signed index set (or 1..N for sl)

    def pos(self, i):
        return self.indices.index(i)


def _e_matrix(N, a, b):
    m = np.zeros((N, N), dtype=np.int64)
    m[a, b] = 1
    return m


def build_lie(family, N):
    family = family.lower()
    if family not in FAMILIES:
        raise InvalidAlgebra("unknown family %r" % (family,))
    if family == SL:
        if N < 2:
            raise InvalidAlgebra("sl_N needs N >= 2")
        basis = [_e_matrix(N, i, j) for i in range(N) for j in range(N)
                 if i != j]
        basis += [_e_matrix(N, k, k) - _e_matrix(N, k + 1, k + 1)
                  for k in range(N - 1)]
        kappa = None
        form_scale = ONE
        indices = tuple(range(1, N + 1))
        expected = N * N - 1
    else:
        if family == SO and N < 3:
            raise InvalidAlgebra("so_N needs N >= 3")
        if family == SP and (N < 2 or N % 2):
            raise InvalidAlgebra("sp_N needs even N >= 2")
        idx = signed_indices(family, N)
        pos = {i: k for k, i in enumerate(idx)}
        reducer = linalg.SparseReducer()
        basis = []
        for i in idx:
            for j in idx:
                F = _e_matrix(N, pos[i], pos[j])
                F = F - theta_value(family, i, j) * _e_matrix(
                    N, pos[-j], pos[-i])
                row = {k: v for k, v in enumerate(F.ravel().tolist()) if v}
                if row and reducer.add(row):
                    basis.append(F)
        kappa = Fraction(N, 2) - 1 if family == SO else Fraction(N, 2) + 1
        form_scale = Fraction(1, 2)
        indices = tuple(idx)
        expected = N * (N - 1) // 2 if family == SO else N * (N + 1) // 2
    if len(basis) != expected:
        raise InvalidAlgebra("basis construction produced wrong dimension")

    basis = np.array(basis)
    # the Gram matrix is form_scale times the integer traces tr(X_a X_b):
    # those are inverted once, on integers
    gram = checked_einsum("aij,bji->ab", basis, basis).tolist()
    ginv, sginv = linalg.invert(gram)
    ginv = _int_array(ginv)
    if ginv.dtype == object:
        raise OverflowGuard("inverse Gram matrix too large for int64")
    sginv /= form_scale
    basis.flags.writeable = ginv.flags.writeable = False
    return LieAlgebraData(family, N, len(basis), basis, ginv, sginv,
                          form_scale, kappa, indices)


# ---------------------------------------------------------------------------
# representations

@dataclass(frozen=True, eq=False)
class Representation:
    """rho(X_l) = sx * px[l] and rho(J(X_l)) = sj * pj[l]: two int64
    stacks of shape (dim g, dim V, dim V), each over one Fraction scale.
    The constructor makes both arrays read-only.  ``pj`` is all zero
    exactly when rho(J) = 0."""
    px: np.ndarray
    sx: Fraction
    pj: np.ndarray
    sj: Fraction

    def __post_init__(self):
        self.px.flags.writeable = self.pj.flags.writeable = False

    @property
    def dim(self):
        return self.px.shape[1]


def vector_rep(data):
    return Representation(data.basis, ONE, np.zeros_like(data.basis), ONE)


def twisted_rep(data, c):
    """rho_J(X) = c * rho(X): the tau_c shift of the zero J-action.  At
    c = 0 this is the vector representation."""
    c = Fraction(c)
    return Representation(data.basis, ONE, c.numerator * data.basis,
                          Fraction(1, c.denominator))


# ---------------------------------------------------------------------------
# representation tensors

def _ad_operators_int(px):
    """kron(X, I) - kron(I, X^T) for each X in the stacked int array: the
    operator M -> XM - MX on End V, M flattened row-major."""
    g, d, _ = px.shape
    eye = np.eye(d, dtype=np.int64)
    left = checked_einsum("lik,jm->lijkm", px, eye).reshape(g, d * d, d * d)
    right = checked_einsum("ik,lmj->lijkm", eye, px).reshape(g, d * d, d * d)
    return left - right


class CasimirData:
    """A representation rho of g and its Casimir data, each tensor an int
    array with one Fraction scale: rho(X_l) (px, sx), the dual images
    rho(X^l) (pd, sd), Omega_rho = sum_l rho(X_l) (x) rho(X^l) as [x, y,
    x', y'] (omt, somt), the omega-operator sum_l ad rho(X_l) ad rho(X^l)
    on End V (wop, swop; d^2 x d^2) and its eigenvalue c_g on ad(g), a
    nonzero Fraction verified constant.

    ``data`` and ``rep`` are the algebra and the representation it was
    built from (rho(J) is ``rep.pj``, ``rep.sj``); px, sx and the inverse
    Gram matrix (ginv, sginv) are the arrays they hold.  :meth:`dual`
    applies the inverse Gram matrix to any g-indexed array.
    """

    def __init__(self, data, rep):
        if len(rep.px) != data.dim:
            raise InvalidAlgebra("rep has %d matrices for a %d-dimensional "
                                 "algebra" % (len(rep.px), data.dim))
        self.data, self.rep = data, rep
        self.d = d = rep.dim
        self.ginv, self.sginv = data.ginv, data.sginv
        self.px, self.sx = rep.px, rep.sx
        self.pd, self.sd = self.dual(self.px, self.sx)
        self.omt = checked_einsum("lac,lbd->abcd", self.px, self.pd)
        self.somt = self.sx * self.sd
        # ad is linear, so ad rho(X^l) is ad of the dual images
        self.wop = checked_einsum("lab,lbc->ac", _ad_operators_int(self.px),
                                  _ad_operators_int(self.pd))
        self.swop = self.sx * self.sd

        # c_g is read off one entry of rho(X_0) and checked on every rho(X_l)
        v = self.px.reshape(data.dim, d * d)
        if not v.any(axis=1).all():
            raise InvalidAlgebra("zero basis element")
        w = checked_einsum("ab,lb->la", self.wop, v)
        k = np.flatnonzero(v[0])[0]
        self.c_g = Fraction(int(w[0, k]), int(v[0, k])) * self.swop
        if not scaled_equal(w, self.swop, v, self.c_g):
            raise InvalidAlgebra("omega_op is not scalar on ad(g)")
        if not self.c_g:
            raise InvalidAlgebra("omega_op vanishes on ad(g): c_g = 0")

    def dual(self, stacked, scale):
        """X_l -> X^l on the leading g-index of an int array with scale."""
        spec = "abcdef"[: stacked.ndim - 1]
        out = checked_einsum("nl,n" + spec + "->l" + spec, self.ginv, stacked)
        return out, scale * self.sginv


def casimir(data, rep=None):
    """The CasimirData of rep, by default the vector representation.
    InvalidAlgebra if rep.px is not one matrix per basis element of data
    or the omega-operator is not one nonzero scalar c_g on ad(g)."""
    return CasimirData(data, vector_rep(data) if rep is None else rep)


def commutant(rep, with_j):
    """Basis of the M in End V (flattened row-major) with XM = MX for
    every rho(X), and for every rho(J(X)) as well when ``with_j``: the
    primitive integer vectors read off the reduced echelon form, so they
    do not depend on the order or the scale of the rows."""
    mats = [rep.px, rep.pj] if with_j else [rep.px]
    dd = rep.dim * rep.dim
    rows = [row for m in mats if m.any()
            for row in _ad_operators_int(m).reshape(-1, dd).tolist()]
    return linalg.nullspace(rows, dd)


def on_legs(m, d, n, legs):
    """The operator m on the tensor legs ``legs`` of V^(x)n, dim V = d,
    and the identity on the other legs: kron(m, I) with its tensor axes
    moved into place.  Entries of m are copied, never combined, so the
    result keeps m's dtype (int64 or Python ints)."""
    rest = [t for t in range(n) if t not in legs]
    full = np.kron(m, np.eye(d ** len(rest), dtype=m.dtype))
    # axis t of the result is axis perm[t] of kron's (legs, rest) order
    perm = np.argsort(list(legs) + rest).tolist()
    full = full.reshape((d,) * (2 * n)).transpose(perm + [n + t for t in perm])
    return full.reshape(d ** n, d ** n)


def permutation_matrix(N):
    """P = sum E_ij (x) E_ji, the flip of V (x) V, as an int64 matrix."""
    P = np.zeros((N * N, N * N), dtype=np.int64)
    for i in range(N):
        for j in range(N):
            P[i * N + j, j * N + i] = 1
    return P


def q_matrix(data):
    """Q = P^{t_2} = sum theta_ij E_ij (x) E_{-i,-j} for so/sp, as an
    int64 matrix."""
    if data.family == SL:
        raise InvalidAlgebra("Q is defined for so/sp only")
    N = data.N
    Q = np.zeros((N * N, N * N), dtype=np.int64)
    for i in data.indices:
        for j in data.indices:
            a, b = data.pos(i), data.pos(j)
            am, bm = data.pos(-i), data.pos(-j)
            Q[a * N + am, b * N + bm] += theta_value(data.family, i, j)
    return Q


# ---------------------------------------------------------------------------
# decomposition of gl(V)

@dataclass
class Decomposition:
    ad_part: list       # the flattened rho(X_l) as int lists
    e_part: list        # E = End_{Y(g)} V (commutant of rho_X and rho_J)
    ec_part: list       # complement of E inside E_g
    w_parts: list       # (block basis, eigenvalue) by ascending eigenvalue
    c_table: list       # rows: flattened block bases in order, all ints
    a_table: tuple      # (int rows, Fraction s): c_table^-1 = s * rows
    eigenvalues: list

    @property
    def eg_part(self):
        return self.e_part + self.ec_part

    def dims(self):
        return {"ad": len(self.ad_part), "eg": len(self.eg_part),
                "e": len(self.e_part),
                "w": [(len(b), ev) for b, ev in self.w_parts]}


def _min_poly(A):
    """Minimal polynomial (monic Fraction tuple, ascending) of a square
    integer matrix A (int64 or Python ints).

    Krylov iteration runs on A from integer unit vectors, so its vectors
    stay integer.  The lcm of the per-vector annihilators stops as soon
    as it annihilates the whole matrix.  Every coefficient is an integer:
    each annihilator is a monic factor of A's characteristic polynomial,
    monic over Z (Gauss's lemma): the primitive kernel vector of [v, Av,
    ..., A^k v], which ends in +-1, times that entry.
    """
    dim = len(A)
    powers = [np.eye(dim, dtype=np.int64)]
    poly = (ONE,)
    for start in range(dim):
        v = np.zeros((dim, 1), dtype=np.int64)
        v[start, 0] = 1
        krylov = [v.ravel().tolist()]
        red = linalg.SparseReducer()
        red.add({start: 1})
        while True:
            v = safe_matmul(A, v)
            nxt = v.ravel().tolist()
            krylov.append(nxt)
            if not red.add({j: c for j, c in enumerate(nxt) if c}):
                break
        kernel = linalg.nullspace(list(zip(*krylov)), len(krylov))
        if len(kernel) != 1 or kernel[0][-1] not in (1, -1):
            raise UnsupportedDecomposition("Krylov dependence not monic")
        ann = tuple(Fraction(c * kernel[0][-1]) for c in kernel[0])
        g = poly_gcd(poly, ann)
        poly = poly_mul(poly, poly_divmod(ann, g)[0])
        if _poly_annihilates(poly, A, powers):
            return poly
    raise UnsupportedDecomposition("minimal polynomial not found")


def _poly_annihilates(poly, A, powers):
    """Whether poly(A) = 0, tested as one integer matrix sum_t c_t A^t
    (the coefficients of poly are integers).  ``powers`` caches A^0, A^1,
    ... across calls and is extended here."""
    while len(powers) < len(poly):
        powers.append(safe_matmul(powers[-1], A))
    acc = None
    for c, P in zip(poly, powers):
        if c:
            acc = safe_axpy(acc, c.numerator, P)
    return not acc.any()


def _integer_roots(poly):
    """Distinct rational roots of a monic integer polynomial (ascending
    coefficients, as ``_min_poly`` returns it) plus the unfactored
    remainder.  Every such root is an integer dividing the constant
    term.  The candidates come 0 first, then by ascending divisor d, +d
    before -d; each root found is divided out and the search restarts on
    the quotient."""
    p = [int(c) for c in poly]
    roots = []
    changed = True
    while changed and len(p) > 1:
        changed = False
        cand = [0] if p[0] == 0 else [
            s * d for d in _divisors(abs(p[0])) for s in (1, -1)]
        for r in cand:
            # synthetic division by u - r, from the leading coefficient
            quot = [p[-1]]
            for c in reversed(p[1:-1]):
                quot.append(c + r * quot[-1])
            if p[0] + r * quot[-1] == 0:
                if r not in roots:
                    roots.append(r)
                p = quot[::-1]
                changed = True
                break
    return roots, tuple(p)


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _independent(base, vecs):
    """The vectors of ``vecs`` that enlarge the span of ``base`` and of
    the ones kept before them."""
    red = linalg.SparseReducer()
    for v in base:
        red.add({j: c for j, c in enumerate(v) if c})
    return [v for v in vecs if red.add({j: c for j, c in enumerate(v) if c})]


def decompose_ad(t):
    rep = t.rep
    dd = t.d * t.d

    # the minimal polynomial of the integer matrix wop is monic over Z,
    # so its rational roots r are integers; the omega-operator swop * wop
    # has eigenvalue swop * r on the nullspace of wop - r I
    roots, remainder = _integer_roots(_min_poly(t.wop))
    if len(remainder) > 1:
        raise UnsupportedDecomposition(
            "non-rational eigenvalue; minimal polynomial remainder %r"
            % (remainder,))

    eye = np.eye(dd, dtype=np.int64)
    eig_spaces = {}
    total = 0
    for r in roots:
        ns = linalg.nullspace((t.wop - r * eye).tolist(), dd)
        eig_spaces[t.swop * r] = ns
        total += len(ns)
    if total != dd:
        raise UnsupportedDecomposition("omega_op is not semisimple over Q")

    eg = commutant(rep, False)
    e_part = commutant(rep, True) if rep.pj.any() else eg

    # E_g must be the 0-eigenspace
    zero_dim = len(eig_spaces.get(Fraction(0), []))
    if zero_dim != len(eg):
        raise UnsupportedDecomposition("joint kernel differs from "
                                       "0-eigenspace of omega_op")

    # complement of E inside E_g
    ec_part = _independent(e_part, eg)

    # ad(g) vectors and its eigenvalue block
    c_g = t.c_g
    ad_vecs = t.px.reshape(t.data.dim, dd).tolist()

    w_parts = []
    for r in sorted(eig_spaces):
        if r == 0:
            continue
        space = eig_spaces[r]
        if r == c_g:
            extra = _independent(ad_vecs, space)
            if extra:
                w_parts.append((extra, r))
        else:
            w_parts.append((space, r))

    blocks = ad_vecs + e_part + ec_part
    for b, _ in w_parts:
        blocks.extend(b)
    if len(blocks) != dd:
        raise UnsupportedDecomposition("blocks do not span gl(V)")
    return Decomposition(ad_vecs, e_part, ec_part, w_parts, blocks,
                         linalg.invert(blocks), sorted(eig_spaces))


# ---------------------------------------------------------------------------
# verification reports

def _bracket_constants(t):
    """[X_l, X_n] = sum_g BRC[l, n, g] X_g, as (int array, scale)."""
    bx = t.data.basis
    bd, sbd = t.dual(bx, ONE)
    c1 = (checked_einsum("lab,nbc->lnac", bx, bx)
          - checked_einsum("nab,lbc->lnac", bx, bx))
    return checked_einsum("lnab,gba->lng", c1, bd), sbd * t.data.form_scale


def _presentation_verdicts(t, f_override=None):
    """The identities of F = -(rho (x) 1) Omega that the classical and
    the current presentation report, with F_1, F_2 its slot-1 and slot-2
    copies and brackets taken in g-coordinates:

    - F-br: [F_1, F_2] = [Omega_rho, F_2];
    - F1-br: -[F_1, F_2] = [Omega_rho, F_1];
    - F-sym: omega(F) = c_g F;
    - sigma-sym: [Omega_rho, F_2] = -[Omega_rho, F_1];
    - F-sym-explicit: sum_a [F_ia, F_aj] = (c_g / 2) F_ij.

    f_override (g-coordinate tensor, scale) substitutes a perturbed F for
    negative-control tests.
    """
    if f_override is None:
        # F_ij = -sum_l rho(X_l)_ij X^l: g-coordinates in the primal basis
        fg, sfg = (-checked_einsum("lij,nl->ijn", t.px, t.ginv),
                   t.sx * t.sginv)
    else:
        fg, sfg = f_override
    brc, sbrc = _bracket_constants(t)
    # b[a,b,c,d,g] = [F_ab, F_cd]; lhs holds the [F_1, F_2] entries
    b = checked_einsum("abng,cdn->abcdg",
                       checked_einsum("abl,lng->abng", fg, brc), fg)
    sb = sfg * sfg * sbrc
    lhs = np.transpose(b, (0, 2, 1, 3, 4))
    # [Omega_rho, F_2] and [Omega_rho, F_1] as [x, y, x', y', g], with
    # F_1[x,y,a,b,g] = F[x,a,g] delta_{y,b}
    com2 = (checked_einsum("xyab,bcg->xyacg", t.omt, fg)
            - checked_einsum("ybg,xbpq->xypqg", fg, t.omt))
    com1 = (checked_einsum("xyab,acg->xycbg", t.omt, fg)
            - checked_einsum("xag,aypq->xypqg", fg, t.omt))
    sc = t.somt * sfg
    d = t.d
    wf = checked_einsum("xpqr,qrg->xpg", t.wop.reshape(d, d, d, d), fg)
    return {
        "F-br": scaled_equal(lhs, sb, com2, sc),
        "F1-br": scaled_equal(lhs, -sb, com1, sc),
        "F-sym": scaled_equal(fg, sfg, wf, t.swop * sfg / t.c_g),
        "sigma-sym": scaled_equal(com2, sc, -com1, sc),
        "F-sym-explicit": scaled_equal(
            fg, sfg, checked_einsum("iaajg->ijg", b), sb * 2 / t.c_g),
    }


def verify_classical_presentation(t, f_override=None):
    """Check the defining identities of the one-generator presentation
    carried by F = -(rho (x) 1) Omega: the bracket relation, the
    omega-symmetry, the sigma-symmetry and its explicit component form.

    f_override (g-coordinate tensor, scale) substitutes a perturbed F for
    negative-control tests.
    """
    v = _presentation_verdicts(t, f_override)
    details = {k: v[k] for k in ("F-br", "F-sym", "sigma-sym",
                                 "F-sym-explicit")}
    return check_report("classical_presentation", all(details.values()),
                        details, t.data.family, t.data.N)


# the z-degree bound D of verify_current_presentation, written in its report
CURRENT_DEGREE = 3


def verify_current_presentation(t):
    """Current-algebra presentation at z-degree <= D = CURRENT_DEGREE, plus
    agreement of the two series expansions of the denominator-cleared
    relation."""
    v = _presentation_verdicts(t)
    # [F_1^{(r)}, F_2^{(s)}] = [Omega_rho, F_2^{(r+s)}] for r + s <= D: the
    # z-degree bookkeeping is r+s on both sides and the tensors are
    # degree-free, so one comparison decides every (r, s).
    # The two expansions of (u-v) [F_1(u), F_2(v)] = [Omega, F_1(u) +
    # F_2(v)] with F(u) = sum_{r<=D} F^{(r)} u^{-r-1}, compared on the
    # truncation-complete region a + b <= D + 1: the coefficients at b = 0
    # read -[F_1, F_2] = [Omega, F_1], those at a = 0 < b read
    # [F_1, F_2] = [Omega, F_2], and every other one compares 0 with 0
    details = {"gz-R": v["F-br"], "gz-sym": v["F-sym"],
               "expansion-agreement": v["F1-br"] and v["F-br"]}
    return check_report("current_presentation", all(details.values()),
                        {**details, "D": CURRENT_DEGREE}, t.data.family,
                        t.data.N)


def verify_extension_split(t):
    """Dimension split of the one- and two-sided extensions, the K-matrix
    identities on E_g, and triviality of W(x) cap ad(g).

    ``W(x)-trivial-intersection`` cannot read False on a faithful rep of
    semisimple g: for x in E_g and any M in End V, tr(rho(Y) [x, M]) =
    tr([rho(Y), x] M) = 0, so W(x) = span{[x, rho(J(X_l))]} is
    trace-orthogonal to rho(g), on which the trace form is nondegenerate
    (Cartan's criterion).  The key and ``W-dims`` stay computed ranks."""
    data, rep = t.data, t.rep
    pj = rep.pj
    d = t.d
    dd = d * d
    details = {}

    eg = commutant(rep, False)
    e = commutant(rep, True) if pj.any() else eg
    details["dim_eg"] = len(eg)
    details["dim_e"] = len(e)
    details["dim_gJ"] = data.dim + len(eg)
    details["dim_gI"] = data.dim + len(e)

    # K-matrix identities: [Omega_rho, 1 (x) x] = 0 and omega(x) = 0 for
    # every basis x of E_g
    xs = _int_array(eg)
    x4 = xs.reshape(len(eg), d, d)
    ok_k = (bool((checked_einsum("abcq,kqe->kabce", t.omt, x4)
                  == checked_einsum("kbq,aqce->kabce", x4, t.omt)).all())
            and not checked_einsum("ab,kb->ka", t.wop, xs).any())
    details["K-identities"] = ok_k

    # W(x) = span{[x, rho(J(X_l))]}; must meet ad(g) trivially.  Ranks
    # do not depend on row scale, so the rows are the integers
    # [x4[k], pj[l]] and the integer ad rows rho(X_l)
    ok_w = True
    w_dims = []
    comm = (checked_einsum("kab,lbc->klac", x4, pj)
            - checked_einsum("lab,kbc->klac", pj, x4)).reshape(
                len(eg), data.dim, dd)
    ad_rows = [{k: int(x) for k, x in enumerate(t.px[l].reshape(dd)) if x}
               for l in range(data.dim)]
    ad_red = linalg.SparseReducer()
    for row in ad_rows:
        ad_red.add(row)
    ad_rank = ad_red.rank
    for cx in comm:
        wx = linalg.SparseReducer()
        for c in cx:
            wx.add({k: int(val) for k, val in enumerate(c) if val})
        w_dims.append(wx.rank)
        joint = linalg.SparseReducer()
        for row in ad_rows:
            joint.add(row)
        for row in wx.rows.values():
            joint.add(row)
        if joint.rank != ad_rank + wx.rank:
            ok_w = False
    details["W(x)-trivial-intersection"] = ok_w
    details["W-dims"] = w_dims

    return check_report("extension_split", ok_k and ok_w, details,
                        data.family, data.N)


# The six slot orders pi of T[i, I, j, J, k, K], each as the (left, right)
# einsum pair of m_pi(X_a T) and m_pi(T X_a): the product of the three
# slots in order pi, with X_a inserted before or after slot 1.
_MSYM_SPECS = (
    ("aiz,zIIJJK->aiK", "azI,izIJJK->aiK"),  # (1 2 3)
    ("aiz,zIKJIK->aiJ", "azI,izKJIK->aiJ"),  # (1 3 2)
    ("aJz,zIjJIK->ajK", "azI,JzjJIK->ajK"),  # (2 1 3)
    ("aKz,zIjJJK->ajI", "azI,KzjJJK->ajI"),  # (2 3 1)
    ("aKz,zIIJkK->akJ", "azI,KzIJkK->akJ"),  # (3 1 2)
    ("aJz,zIKJkK->akI", "azI,JzKJkK->akI"),  # (3 2 1)
)


def _msym_batched(T, px_all):
    """sum_pi m_pi([X_a (x) 1 (x) 1, T]) for all basis X_a at once.

    Slot s of T has row/column labels (i, I), (j, J), (k, K); in each spec
    of ``_MSYM_SPECS`` a slot's row takes the column label of the slot
    before it in pi, ``z`` is the label of slot 1's row (left) or column
    (right) that X_a takes over, and the output is [a, row of the first
    slot, column of the last].  Returns the plain integer sum; the
    caller's scale carries the -1/24.
    """
    return sum(checked_einsum(left, px_all, T)
               - checked_einsum(right, px_all, T)
               for left, right in _MSYM_SPECS)


def _current_commutator(A, B):
    """The T[i, I, j, J, k, K] of YJ3 and YJ4: the commutator
    [A_12, B_13] of two current tensors A, B[i, I, j, J] in End(V (x) V).
    """
    return (checked_einsum("iajJ,aIkK->iIjJkK", A, B)
            - checked_einsum("iakK,aIjJ->iIjJkK", B, A))


YJ4_MAX_QUARTIC = 40000  # YJ:4 is reported false, not computed, past g^3 d


def verify_yangian_module(t):
    """Check the defining Yangian relations on (rho(X), rho(J(X))) matrices.

    The right-hand sides' orthonormal triple sums are contracted through
    dual pairs; the form-summation index is collapsed with the invariance
    identity sum_l (X_l, W) X^l = W.
    """
    data = t.data
    pj, sj = t.rep.pj, t.rep.sj
    brc, sbrc = _bracket_constants(t)
    g, d = data.dim, t.d
    details = {}

    # YJ:1 — bracket representation and J([X,Y]) = [J(X), Y]
    c_xx = (checked_einsum("lab,nbc->lnac", t.px, t.px)
            - checked_einsum("nab,lbc->lnac", t.px, t.px))
    lin = checked_einsum("lng,gab->lnab", brc, t.px)
    details["YJ1-bracket"] = scaled_equal(c_xx, t.sx * t.sx, lin,
                                          sbrc * t.sx)
    c_jx = (checked_einsum("lab,nbc->lnac", pj, t.px)
            - checked_einsum("nab,lbc->lnac", t.px, pj))
    lin_j = checked_einsum("lng,gab->lnab", brc, pj)
    details["YJ1-Jlinear"] = scaled_equal(c_jx, sj * t.sx, lin_j,
                                          sbrc * sj)
    details["YJ2"] = True  # linearity is structural in the matrix model

    # dual-contracted current tensors: OmA[b] = sum_m rho([X_b,X_m]) (x)
    # rho(X^m), an element of End(V (x) V); c_xx[b, m] is rho([X_b,X_m])
    oma = checked_einsum("bmij,mkl->bijkl", c_xx, t.pd)
    s_oma = t.sx * t.sx * t.sd

    ok3 = True
    jj = (checked_einsum("bik,ckj->bcij", pj, pj)
          - checked_einsum("cik,bkj->bcij", pj, pj))
    jx = (checked_einsum("bik,ckj->bcij", pj, t.px)
          - checked_einsum("cik,bkj->bcij", t.px, pj))
    s_rhs = -Fraction(1, 24) * s_oma * s_oma * t.sx
    s_lhs = sj * sj * t.sx

    def lhs3(beta, gam):
        # [J_a, [J_beta, X_gam]] - [X_a, [J_beta, J_gam]]
        inner1 = jx[beta, gam]
        inner2 = jj[beta, gam]
        return ((checked_einsum("aik,kj->aij", pj, inner1)
                 - checked_einsum("ik,akj->aij", inner1, pj))
                - (checked_einsum("aik,kj->aij", t.px, inner2)
                   - checked_einsum("ik,akj->aij", inner2, t.px)))

    zero3 = np.zeros((g, d, d), dtype=np.int64)
    for beta in range(g):
        # the symmetrized right side is antisymmetric under (beta, gamma)
        # exchange (slot 2 <-> 3 relabelling plus commutator antisymmetry),
        # so it vanishes on the diagonal and one triangle determines both
        if not scaled_equal(lhs3(beta, beta), s_lhs, zero3, s_rhs):
            ok3 = False
        A = oma[beta]
        for gam in range(beta + 1, g):
            rhs = _msym_batched(_current_commutator(A, oma[gam]), t.px)
            if not scaled_equal(lhs3(beta, gam), s_lhs, rhs, s_rhs):
                ok3 = False
            if not scaled_equal(lhs3(gam, beta), s_lhs, -rhs, s_rhs):
                ok3 = False
    details["YJ3"] = ok3

    # YJ:4
    if not pj.any():
        # every symmetrized monomial on the right contains rho(J(X^nu)) = 0,
        # and the left side is identically zero: exact, no loop needed
        details["YJ4"] = True
        details["YJ4-mode"] = "rho_J = 0: both sides vanish identically"
    elif g ** 3 * d > YJ4_MAX_QUARTIC:
        details["YJ4"] = False
        details["YJ4-mode"] = "skipped: size guard (would not complete)"
    else:
        pdj, s_pdj = t.dual(pj, sj)
        ok4 = True
        # term1[a, b, g, dl] with B = [X_g, X_dl]; term2 = role swap
        term1 = np.zeros((g, g, g, g, d, d), dtype=np.int64)
        for gam in range(g):
            for dl in range(g):
                Bmat = c_xx[gam, dl]  # scale sx^2
                c_bn = (checked_einsum("ik,mkj->mij", Bmat, t.px)
                        - checked_einsum("mik,kj->mij", t.px, Bmat))
                omaj = checked_einsum("mij,mkl->ijkl", c_bn, pdj)
                for beta in range(g):
                    term1[:, beta, gam, dl] = _msym_batched(
                        _current_commutator(oma[beta], omaj), t.px)
        s_term1 = -Fraction(1, 24) * s_oma * (t.sx ** 3) * s_pdj * t.sx
        rhs4 = term1.astype(object) + np.transpose(
            term1, (2, 3, 0, 1, 4, 5)).astype(object)
        # LHS[a,b,g,dl] = [[J_a,J_b],[X_g,J_dl]] + [[J_g,J_dl],[X_a,J_b]]
        # with [X_b, J_c] = -[J_c, X_b]
        xj = -jx.transpose(1, 0, 2, 3)
        l1 = (checked_einsum("abik,cdkj->abcdij", jj, xj)
              - checked_einsum("cdik,abkj->abcdij", xj, jj))
        lhs4 = l1.astype(object) + np.transpose(
            l1, (2, 3, 0, 1, 4, 5)).astype(object)
        s_lhs4 = sj * sj * t.sx * sj
        q = s_lhs4 / s_term1
        ok4 = bool((lhs4 * q.numerator == rhs4 * q.denominator).all())
        details["YJ4"] = ok4
        details["YJ4-mode"] = "computed"

    ok = all(v for v in details.values() if isinstance(v, bool))
    return check_report("yangian_module", ok, details, data.family, data.N)
