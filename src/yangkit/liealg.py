"""Classical Lie algebra layer: sl_N, so_N, sp_N data, Casimir elements,
adjoint-module decompositions of gl(V), and the finite-dimensional
verification reports (classical presentation, current presentation,
extension split, Yangian module relations).

All arithmetic is exact.  Heavy tensor contractions run on int64 numpy
arrays carrying an explicit Fraction scale; every contraction is guarded
by an a-priori overflow bound and falls back to an error (never silently
wraps).  Small linear algebra runs directly over Fraction.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

from .exact import ONE, ZERO
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


def checked_einsum(spec, *ops):
    """int64 einsum with an exact overflow guard on absolute values.

    A coarse bound (product of per-operand max magnitudes times the number
    of summed terms) is tried first; only if it is inconclusive is the
    elementwise absolute-value einsum computed.
    """
    ins, out = spec.split("->")
    sizes = {}
    for part, op in zip(ins.split(","), ops):
        for lab, n in zip(part, op.shape):
            sizes[lab] = n
    terms = 1
    for lab, n in sizes.items():
        if lab not in out:
            terms *= n
    coarse = terms
    for op in ops:
        coarse *= int(np.abs(op).max(initial=0))
    if coarse >= _INT_LIMIT:
        bound = np.einsum(spec, *[np.abs(o).astype(float) for o in ops],
                          optimize=True)
        if bound.size and float(bound.max()) * 1.000001 > _INT_LIMIT:
            raise OverflowGuard("contraction may exceed int64 range: %s"
                                % spec)
    return np.einsum(spec, *ops, optimize=True)


def _lcm(a, b):
    return a * b // gcd(a, b)


def frac_to_int_array(mats, wide=False):
    """Stack Fraction matrices into (int64 array, Fraction scale).

    An entry beyond the int64 fast path raises OverflowGuard, or with
    ``wide`` makes the whole array exact Python ints (dtype object).
    """
    arr = np.asarray(mats, dtype=object)
    den = 1
    for x in arr.flat:
        den = _lcm(den, Fraction(x).denominator)
    nums = [(Fraction(x) * den).numerator for x in arr.flat]
    big = any(abs(v) >= _INT_LIMIT for v in nums)
    if big and not wide:
        raise OverflowGuard("entry too large for int64 fast path")
    out = np.array(nums, dtype=object if big else np.int64)
    return out.reshape(arr.shape), Fraction(1, den)


def _max_abs(a):
    return int(np.abs(a).max(initial=0))


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


def safe_matmul(a, b):
    """Exact product of integer matrices: float64 BLAS while every partial
    sum provably stays below 2**53 (inner dimension at least
    _FLOAT_MIN_INNER), int64 while the checked_einsum guard proves that
    the result fits, Python ints (dtype object) otherwise.  Never wraps
    or rounds."""
    if a.dtype != object and b.dtype != object:
        bound = a.shape[1] * _max_abs(a) * _max_abs(b)
        if (bound < _FLOAT_LIMIT and a.shape[1] >= _FLOAT_MIN_INNER
                and a.dtype == np.int64 and b.dtype == np.int64):
            return (a.astype(np.float64)
                    @ b.astype(np.float64)).astype(np.int64)
        if bound < _INT_LIMIT:
            return a @ b
        try:
            return checked_einsum("ij,jk->ik", a, b)
        except OverflowGuard:
            pass
    return a.astype(object) @ b.astype(object)


def safe_axpy(acc, c, m):
    """Exact acc + c * m for integer matrices and an int c (acc None reads
    as zero): int64 while the magnitudes provably fit, Python ints
    (dtype object) otherwise.  Never wraps."""
    if (m.dtype != object and abs(c) < _INT_LIMIT
            and (acc is None or acc.dtype != object)):
        bound = abs(c) * _max_abs(m) + (0 if acc is None else _max_abs(acc))
        if bound < _INT_LIMIT:
            t = m if c == 1 else m * c
            return t if acc is None else acc + t
    t = m.astype(object) * c
    return t if acc is None else acc.astype(object) + t


def scaled_equal(a, sa, b, sb):
    """Exact equality of sa*a and sb*b for int arrays with Fraction scales."""
    q = sa / sb
    lhs = a.astype(object) * q.numerator
    rhs = b.astype(object) * q.denominator
    return bool((lhs == rhs).all())


def int_to_frac_array(a, scale):
    """Fraction array scale * a of an integer array (int64 or object)."""
    return np.array([Fraction(int(x)) * scale for x in a.flat],
                    dtype=object).reshape(a.shape)


def frac_matmul(a, b):
    """Matrix product of Fraction object arrays."""
    n, m = a.shape
    m2, p = b.shape
    assert m == m2
    out = np.full((n, p), ZERO, dtype=object)
    for i in range(n):
        for k in range(m):
            c = a[i, k]
            if c:
                for j in range(p):
                    if b[k, j]:
                        out[i, j] += c * b[k, j]
    return out


def frac_kron(a, b):
    n, m = a.shape
    p, q = b.shape
    out = np.full((n * p, m * q), ZERO, dtype=object)
    for i in range(n):
        for j in range(m):
            if a[i, j]:
                for k in range(p):
                    for l in range(q):
                        out[i * p + k, j * q + l] = a[i, j] * b[k, l]
    return out


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


@dataclass(frozen=True)
class LieAlgebraData:
    family: str
    N: int
    dim: int
    basis: tuple          # Fraction object arrays, N x N
    labels: tuple         # basis labels: (i, j) pairs or ("h", k)
    dual_basis: tuple     # Fraction object arrays, (X_l, X^g) = delta
    gram: tuple           # Gram matrix of the form, rows of Fractions
    gram_inv: tuple
    form_scale: Fraction  # trace-form multiplier: 1 (sl) or 1/2 (so/sp)
    kappa: object         # Fraction for so/sp, None for sl
    indices: tuple        # signed index set (or 1..N for sl)
    simple: bool
    warnings: tuple = ()

    def form(self, X, Y):
        acc = ZERO
        n = self.N
        for i in range(n):
            for j in range(n):
                if X[i, j] and Y[j, i]:
                    acc += X[i, j] * Y[j, i]
        return acc * self.form_scale

    def pos(self, i):
        return self.indices.index(i)

    def to_json(self):
        from .exact import rat_to_str
        return {
            "family": self.family,
            "N": self.N,
            "dim": self.dim,
            "simple": self.simple,
            "kappa": rat_to_str(self.kappa) if self.kappa is not None else None,
            "indices": list(self.indices),
            "warnings": list(self.warnings),
            "basis": [[rat_to_str(Fraction(x)) for x in B.flatten()]
                      for B in self.basis],
        }


def _e_matrix(N, a, b):
    m = np.full((N, N), ZERO, dtype=object)
    m[a, b] = ONE
    return m


def build_lie(family, N):
    family = family.lower()
    if family not in FAMILIES:
        raise InvalidAlgebra("unknown family %r" % (family,))
    warnings = []
    simple = True
    if family == SL:
        if N < 2:
            raise InvalidAlgebra("sl_N needs N >= 2")
        basis = []
        labels = []
        for i in range(N):
            for j in range(N):
                if i != j:
                    basis.append(_e_matrix(N, i, j))
                    labels.append((i + 1, j + 1))
        for k in range(N - 1):
            basis.append(_e_matrix(N, k, k) - _e_matrix(N, k + 1, k + 1))
            labels.append(("h", k + 1))
        kappa = None
        form_scale = ONE
        indices = tuple(range(1, N + 1))
        expected = N * N - 1
    else:
        if family == SO and N < 3:
            raise InvalidAlgebra("so_N needs N >= 3")
        if family == SP and (N < 2 or N % 2):
            raise InvalidAlgebra("sp_N needs even N >= 2")
        if family == SO and N == 4:
            simple = False
            warnings.append("so_4 is not simple (sl_2 x sl_2); "
                            "formulas computed anyway")
        idx = signed_indices(family, N)
        pos = {i: k for k, i in enumerate(idx)}
        reducer = linalg.SparseReducer()
        basis = []
        labels = []
        for i in idx:
            for j in idx:
                F = _e_matrix(N, pos[i], pos[j])
                F = F - Fraction(theta_value(family, i, j)) * _e_matrix(
                    N, pos[-j], pos[-i])
                row = {k: Fraction(v) for k, v in enumerate(F.flatten()) if v}
                if row and reducer.add(row):
                    basis.append(F)
                    labels.append((i, j))
        kappa = Fraction(N, 2) - 1 if family == SO else Fraction(N, 2) + 1
        form_scale = Fraction(1, 2)
        indices = tuple(idx)
        expected = N * (N - 1) // 2 if family == SO else N * (N + 1) // 2
    if len(basis) != expected:
        raise InvalidAlgebra("basis construction produced wrong dimension")

    dim = len(basis)
    data0 = LieAlgebraData(family, N, dim, tuple(basis), tuple(labels),
                           (), (), (), form_scale, kappa, indices, simple,
                           tuple(warnings))
    gram = [[data0.form(basis[a], basis[b]) for b in range(dim)]
            for a in range(dim)]
    gram_inv = linalg.invert(gram)
    dual = []
    for g in range(dim):
        D = np.full((N, N), ZERO, dtype=object)
        for nu in range(dim):
            c = gram_inv[nu][g]
            if c:
                D = D + c * basis[nu]
        dual.append(D)
    return LieAlgebraData(family, N, dim, tuple(basis), tuple(labels),
                          tuple(dual), tuple(tuple(r) for r in gram),
                          tuple(tuple(r) for r in gram_inv), form_scale,
                          kappa, indices, simple, tuple(warnings))


# ---------------------------------------------------------------------------
# representations

@dataclass(frozen=True)
class Representation:
    rho_X: tuple   # Fraction object arrays
    rho_J: tuple
    dim: int

    def int_x(self):
        return frac_to_int_array(list(self.rho_X))

    def int_j(self):
        return frac_to_int_array(list(self.rho_J))


def vector_rep(data):
    zero = np.full((data.N, data.N), ZERO, dtype=object)
    return Representation(tuple(data.basis),
                          tuple(zero.copy() for _ in data.basis), data.N)


def twisted_rep(data, c):
    """rho_J(X) = c * rho(X): the tau_c shift of the zero J-action."""
    c = Fraction(c)
    return Representation(tuple(data.basis),
                          tuple(c * B for B in data.basis), data.N)


# ---------------------------------------------------------------------------
# Casimir data

@dataclass(frozen=True)
class CasimirData:
    omega_rho: object       # Fraction object array, (d^2, d^2)
    omega_op: object        # int64 array (d^2, d^2)
    omega_op_scale: object  # Fraction
    c_g: object             # Fraction

    def omega_op_frac(self):
        return int_to_frac_array(self.omega_op, self.omega_op_scale)


def _ad_operators_int(px):
    """kron(X, I) - kron(I, X^T) for each X in the stacked int array."""
    g, d, _ = px.shape
    eye = np.eye(d, dtype=np.int64)
    left = checked_einsum("lik,jm->lijkm", px, eye).reshape(g, d * d, d * d)
    right = checked_einsum("ik,lmj->lijkm", eye, px).reshape(g, d * d, d * d)
    return left - right


def _dualize(stacked, scale, data):
    """Contract a g-indexed int array with the inverse Gram matrix."""
    ginv_int, ginv_scale = frac_to_int_array(
        [list(r) for r in data.gram_inv])
    spec = "l" + "abcdef"[: stacked.ndim - 1]
    out = checked_einsum("nl,n" + spec[1:] + "->" + spec,
                         ginv_int, stacked)
    return out, scale * ginv_scale


def casimir(data, rep=None):
    if rep is None:
        rep = vector_rep(data)
    px, sx = rep.int_x()
    pd, sd = _dualize(px, sx, data)
    d = rep.dim
    om_int = checked_einsum("lac,lbd->abcd", px, pd).reshape(d * d, d * d)
    omega_rho = int_to_frac_array(om_int, sx * sd)

    ad = _ad_operators_int(px)
    ad_dual, sdual = _dualize(ad, sx, data)
    op = checked_einsum("lab,lbc->ac", ad, ad_dual)
    op_scale = sx * sdual

    # eigenvalue of omega on the adjoint block, verified constant
    c_g = None
    for lam in range(data.dim):
        v = px[lam].reshape(d * d)
        w = checked_einsum("ab,b->a", op, v)
        nz = np.nonzero(v)[0]
        if not len(nz):
            raise InvalidAlgebra("zero basis element")
        ratio = Fraction(int(w[nz[0]]), int(v[nz[0]])) * op_scale
        if not scaled_equal(w, op_scale, v, ratio):
            raise InvalidAlgebra("omega_op is not scalar on ad(g)")
        if c_g is None:
            c_g = ratio
        elif c_g != ratio:
            raise InvalidAlgebra("omega_op eigenvalue differs across ad(g)")
    return CasimirData(omega_rho, op, op_scale, c_g)


def permutation_matrix(N):
    P = np.full((N * N, N * N), ZERO, dtype=object)
    for i in range(N):
        for j in range(N):
            P[i * N + j, j * N + i] = ONE
    return P


def q_matrix(data):
    """Q = P^{t_2} = sum theta_ij E_ij (x) E_{-i,-j} for so/sp."""
    if data.family == SL:
        raise InvalidAlgebra("Q is defined for so/sp only")
    N = data.N
    Q = np.full((N * N, N * N), ZERO, dtype=object)
    for i in data.indices:
        for j in data.indices:
            a, b = data.pos(i), data.pos(j)
            am, bm = data.pos(-i), data.pos(-j)
            Q[a * N + am, b * N + bm] += Fraction(theta_value(data.family, i, j))
    return Q


# ---------------------------------------------------------------------------
# decomposition of gl(V)

@dataclass
class Decomposition:
    ad_part: list
    e_part: list        # E = End_{Y(g)} V (commutant of rho_X and rho_J)
    ec_part: list       # complement of E inside E_g
    w_parts: list       # (block basis, eigenvalue) by ascending eigenvalue
    c_table: list       # rows: flattened block bases in order
    a_table: list       # exact inverse of c_table
    eigenvalues: list

    @property
    def eg_part(self):
        return self.e_part + self.ec_part

    def dims(self):
        return {"ad": len(self.ad_part), "eg": len(self.eg_part),
                "e": len(self.e_part),
                "w": [(len(b), ev) for b, ev in self.w_parts]}


def _mat_vec(mat_rows, v, dim):
    return [sum((mat_rows[i][j] * v[j] for j in range(dim) if v[j]), ZERO)
            for i in range(dim)]


def _min_poly(mat_rows, dim):
    """Minimal polynomial (monic Fraction tuple, ascending) of a matrix.

    Krylov iteration from standard basis vectors; the lcm of the per-vector
    annihilators stops as soon as it annihilates the whole matrix.
    """
    from .exact import poly_trim, poly_mul, poly_divmod, poly_gcd
    poly = (ONE,)
    for start in range(dim):
        v = [ZERO] * dim
        v[start] = ONE
        krylov = [v]
        red = linalg.SparseReducer()
        red.add({j: c for j, c in enumerate(v) if c})
        while True:
            nxt = _mat_vec(mat_rows, krylov[-1], dim)
            if not red.add({j: c for j, c in enumerate(nxt) if c}):
                krylov.append(nxt)
                break
            krylov.append(nxt)
        k = len(krylov) - 1
        rows = [[krylov[t][i] for t in range(k)] for i in range(dim)]
        rhs = [krylov[k][i] for i in range(dim)]
        sol = linalg.solve(rows, rhs, k)
        if sol is None:
            raise UnsupportedDecomposition("Krylov dependence solve failed")
        ann = poly_trim([-c for c in sol] + [ONE])
        g = poly_gcd(poly, ann)
        poly = poly_mul(poly, poly_divmod(ann, g)[0])
        if _poly_annihilates(poly, mat_rows, dim):
            return poly
    raise UnsupportedDecomposition("minimal polynomial not found")


def _poly_annihilates(poly, mat_rows, dim):
    for start in range(dim):
        v = [ZERO] * dim
        v[start] = ONE
        acc = [ZERO] * dim
        cur = v
        for c in poly:
            if c:
                for i in range(dim):
                    acc[i] += c * cur[i]
            cur = [sum((mat_rows[i][j] * cur[j] for j in range(dim)
                        if cur[j]), ZERO) for i in range(dim)]
        if any(acc):
            return False
    return True


def _rational_roots(poly):
    """Distinct rational roots of poly plus the unfactored remainder."""
    from .exact import poly_divmod, poly_trim, poly_eval
    roots = []
    p = poly_trim(poly)
    changed = True
    while changed and len(p) > 1:
        changed = False
        den = 1
        for c in p:
            den = _lcm(den, c.denominator)
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


def decompose_ad(data, rep):
    px, sx = rep.int_x()
    pj, sj = rep.int_j()
    d = rep.dim
    dd = d * d
    ad = _ad_operators_int(px)
    ad_dual, sdual = _dualize(ad, sx, data)
    op_int = checked_einsum("lab,lbc->ac", ad, ad_dual)
    op_scale = sx * sdual
    op = [[Fraction(int(op_int[i, j])) * op_scale for j in range(dd)]
          for i in range(dd)]

    mp = _min_poly(op, dd)
    roots, remainder = _rational_roots(mp)
    if len(remainder) > 1:
        raise UnsupportedDecomposition(
            "non-rational eigenvalue; minimal polynomial remainder %r"
            % (remainder,))

    eig_spaces = {}
    total = 0
    for r in roots:
        rows = [[op[i][j] - (r if i == j else ZERO) for j in range(dd)]
                for i in range(dd)]
        ns = linalg.nullspace(rows, dd)
        eig_spaces[r] = ns
        total += len(ns)
    if total != dd:
        raise UnsupportedDecomposition("omega_op is not semisimple over Q")

    # joint kernels
    ad_rows = [list(ad[l, i, :].astype(object)) for l in range(data.dim)
               for i in range(dd)]
    eg = linalg.nullspace([[Fraction(int(x)) for x in row]
                           for row in ad_rows], dd)
    j_rows = _ad_operators_int(pj) if pj.any() else None
    if j_rows is not None:
        all_rows = ad_rows + [list(j_rows[l, i, :].astype(object))
                              for l in range(data.dim) for i in range(dd)]
        e_part = linalg.nullspace([[Fraction(int(x)) for x in row]
                                   for row in all_rows], dd)
    else:
        e_part = eg

    # E_g must be the 0-eigenspace
    zero_dim = len(eig_spaces.get(Fraction(0), []))
    if zero_dim != len(eg):
        raise UnsupportedDecomposition("joint kernel differs from "
                                       "0-eigenspace of omega_op")

    # complement of E inside E_g
    red = linalg.SparseReducer()
    for v in e_part:
        red.add({j: c for j, c in enumerate(v) if c})
    ec_part = []
    for v in eg:
        row = {j: c for j, c in enumerate(v) if c}
        if red.add(row):
            ec_part.append(v)

    # ad(g) vectors and its eigenvalue block
    cas = casimir(data, rep)
    c_g = cas.c_g
    ad_vecs = [[Fraction(int(x)) for x in px[l].reshape(dd)]
               for l in range(data.dim)]

    w_parts = []
    for r in sorted(eig_spaces):
        if r == 0:
            continue
        space = eig_spaces[r]
        if r == c_g:
            red2 = linalg.SparseReducer()
            for v in ad_vecs:
                red2.add({j: c for j, c in enumerate(v) if c})
            extra = []
            for v in space:
                if red2.add({j: c for j, c in enumerate(v) if c}):
                    extra.append(v)
            if extra:
                w_parts.append((extra, r))
        else:
            w_parts.append((space, r))

    blocks = ad_vecs + e_part + ec_part
    for b, _ in w_parts:
        blocks.extend(b)
    if len(blocks) != dd:
        raise UnsupportedDecomposition("blocks do not span gl(V)")
    c_table = [list(v) for v in blocks]
    a_table = linalg.invert(c_table)
    return Decomposition(ad_vecs, e_part, ec_part, w_parts, c_table, a_table,
                         sorted(eig_spaces))


# ---------------------------------------------------------------------------
# shared scaled-int tensors for the verification layer

class _Tensors:
    def __init__(self, data, rep):
        self.data = data
        self.rep = rep
        self.px, self.sx = rep.int_x()
        self.pj, self.sj = rep.int_j()
        self.pd, self.sd = _dualize(self.px, self.sx, data)
        self.d = rep.dim
        g = data.dim
        ginv_int, ginv_scale = frac_to_int_array(
            [list(r) for r in data.gram_inv])
        # F_{ij} = -(rho (x) 1) Omega: g-coordinates in the primal basis
        self.fg = -checked_einsum("lij,nl->ijn", self.px, ginv_int)
        self.sfg = self.sx * ginv_scale
        # abstract bracket coordinates [X_l, X_n] = sum_g BRC[l,n,g] X_g
        bx, sbx = frac_to_int_array(list(data.basis))
        bd, sbd = _dualize(bx, sbx, data)
        c1 = (checked_einsum("lab,nbc->lnac", bx, bx)
              - checked_einsum("nab,lbc->lnac", bx, bx))
        self.brc = checked_einsum("lnab,gba->lng", c1, bd)
        self.sbrc = sbx * sbx * sbd * data.form_scale
        # Omega_rho as a 4-index tensor [x, y, x', y']
        self.omt = checked_einsum("lac,lbd->abcd", self.px, self.pd)
        self.somt = self.sx * self.sd
        # omega operator on gl(V) for this rep, 4-index [x, x', q, q']
        ad = _ad_operators_int(self.px)
        ad_dual, sdual = _dualize(ad, self.sx, data)
        dd = self.d * self.d
        self.wop = checked_einsum("lab,lbc->ac", ad, ad_dual).reshape(
            self.d, self.d, self.d, self.d)
        self.swop = self.sx * sdual

    def bracket_fg(self):
        """B[a,b,c,d,g] = bracket(F_ab, F_cd) in g-coordinates."""
        m1 = checked_einsum("abl,lng->abng", self.fg, self.brc)
        b = checked_einsum("abng,cdn->abcdg", m1, self.fg)
        return b, self.sfg * self.sfg * self.sbrc

    def omega_f2_commutator(self):
        """[Omega_rho, F_2] as a tensor [x, y, x', y', g]."""
        t1 = checked_einsum("xyab,bcg->xyacg", self.omt, self.fg)
        t2 = checked_einsum("ybg,xbpq->xypqg", self.fg, self.omt)
        return t1 - t2, self.somt * self.sfg

    def omega_f1_commutator(self):
        """[Omega_rho, F_1] as a tensor [x, y, x', y', g]."""
        # F_1[x,y,a,b,g] = F[x,a,g] delta_{y,b}
        t1 = checked_einsum("xyab,acg->xycbg", self.omt, self.fg)
        t2 = checked_einsum("xag,aypq->xypqg", self.fg, self.omt)
        return t1 - t2, self.somt * self.sfg


def _report(check, data, status, details):
    return {"check": check, "family": data.family, "N": data.N,
            "status": "pass" if status else "fail", "details": details}


def verify_classical_presentation(data, rep, f_override=None):
    """Check the defining identities of the one-generator presentation
    carried by F = -(rho (x) 1) Omega: the bracket relation, the
    omega-symmetry, the sigma-symmetry and its explicit component form.

    f_override (g-coordinate tensor, scale) substitutes a perturbed F for
    negative-control tests.
    """
    t = _Tensors(data, rep)
    if f_override is not None:
        t.fg, t.sfg = f_override
    details = {}

    b, sb = t.bracket_fg()
    lhs = np.transpose(b, (0, 2, 1, 3, 4))          # [F_1, F_2] entries
    rhs, sr = t.omega_f2_commutator()
    details["F-br"] = scaled_equal(lhs, sb, rhs, sr)

    wf = checked_einsum("xpqr,qrg->xpg", t.wop, t.fg)
    details["F-sym"] = scaled_equal(t.fg, t.sfg, wf,
                                    t.swop * t.sfg / _cg(data, rep))

    rhs1, sr1 = t.omega_f1_commutator()
    details["sigma-sym"] = scaled_equal(rhs, sr, -rhs1, sr1)

    comp = checked_einsum("iaajg->ijg", b)
    details["F-sym-explicit"] = scaled_equal(
        t.fg, t.sfg, comp, sb * 2 / _cg(data, rep))

    ok = all(details.values())
    return _report("classical_presentation", data, ok, details)


@lru_cache(maxsize=None)
def _cg_cached(family, N):
    data = build_lie(family, N)
    return casimir(data).c_g


def _cg(data, rep):
    return _cg_cached(data.family, data.N)


def verify_current_presentation(data, rep, D):
    """Current-algebra presentation at z-degree <= D, plus agreement of the
    two series expansions of the denominator-cleared relation."""
    if D < 1:
        raise ValueError("D >= 1 required")
    t = _Tensors(data, rep)
    details = {}
    b, sb = t.bracket_fg()
    lhs = np.transpose(b, (0, 2, 1, 3, 4))
    com2, sc2 = t.omega_f2_commutator()
    com1, sc1 = t.omega_f1_commutator()

    # [F_1^{(r)}, F_2^{(s)}] = [Omega_rho, F_2^{(r+s)}] for r + s <= D: the
    # z-degree bookkeeping is r+s on both sides and the tensors are
    # degree-free, so one comparison decides every (r, s)
    f2_ok = scaled_equal(lhs, sb, com2, sc2)
    details["gz-R"] = f2_ok

    wf = checked_einsum("xpqr,qrg->xpg", t.wop, t.fg)
    details["gz-sym"] = scaled_equal(t.fg, t.sfg, wf,
                                     t.swop * t.sfg / _cg(data, rep))

    # two expansions of (u-v) [F_1(u), F_2(v)] = [Omega, F_1(u) + F_2(v)]
    # with F(u) = sum_{r<=D} F^{(r)} u^{-r-1}, compared on the
    # truncation-complete region a + b <= D + 1: the coefficients at b = 0
    # read -[F_1, F_2] = [Omega, F_1], those at a = 0 < b read
    # [F_1, F_2] = [Omega, F_2], and every other one compares 0 with 0
    details["expansion-agreement"] = (
        scaled_equal(lhs, -sb, com1, sc1) and f2_ok)

    ok = all(details.values())
    return _report("current_presentation", data, ok,
                   {**details, "D": D})


def verify_extension_split(data, rep):
    """Dimension split of the one- and two-sided extensions, the K-matrix
    identities on E_g, and triviality of W(x) cap ad(g)."""
    t = _Tensors(data, rep)
    d = rep.dim
    dd = d * d
    details = {}

    ad_rows = []
    for l in range(data.dim):
        A = _ad_operators_int(t.px[l:l + 1])[0]
        for i in range(dd):
            ad_rows.append([Fraction(int(x)) for x in A[i]])
    eg = linalg.nullspace(ad_rows, dd)
    if t.pj.any():
        aj = _ad_operators_int(t.pj)
        rows = ad_rows + [[Fraction(int(x)) for x in aj[l, i]]
                          for l in range(data.dim) for i in range(dd)]
        e = linalg.nullspace(rows, dd)
    else:
        e = eg
    details["dim_eg"] = len(eg)
    details["dim_e"] = len(e)
    details["dim_gJ"] = data.dim + len(eg)
    details["dim_gI"] = data.dim + len(e)

    # K-matrix identities: [Omega_rho, 1 (x) x] = 0 and omega(x) = 0
    # for every basis x of E_g
    ok_k = True
    omt_obj = int_to_frac_array(t.omt, t.somt)
    wop_obj = int_to_frac_array(t.wop.reshape(dd, dd), t.swop)
    for v in eg:
        x = np.array(v, dtype=object).reshape(d, d)
        c1 = np.full((d, d, d, d), ZERO, dtype=object)
        for a in range(d):
            for b_ in range(d):
                for c in range(d):
                    for e_ in range(d):
                        s = ZERO
                        for q in range(d):
                            s += omt_obj[a, b_, c, q] * x[q, e_]
                            s -= x[b_, q] * omt_obj[a, q, c, e_]
                        c1[a, b_, c, e_] = s
        if any(c1.flatten()):
            ok_k = False
        wv = [sum((wop_obj[i][j] * v[j] for j in range(dd) if v[j]), ZERO)
              for i in range(dd)]
        if any(wv):
            ok_k = False
    details["K-identities"] = ok_k

    # W(x) = span{[x, rho(J(X_l))]}; must meet ad(g) trivially
    ok_w = True
    w_dims = []
    pj_obj = [int_to_frac_array(t.pj[l], t.sj) for l in range(data.dim)]
    ad_red = linalg.SparseReducer()
    for l in range(data.dim):
        ad_red.add({k: Fraction(int(x)) for k, x in
                    enumerate(t.px[l].reshape(dd)) if x})
    ad_rank = ad_red.rank
    for v in eg:
        x = np.array(v, dtype=object).reshape(d, d)
        wx = linalg.SparseReducer()
        for J in pj_obj:
            c = frac_matmul(x, J) - frac_matmul(J, x)
            wx.add({k: val for k, val in enumerate(c.reshape(dd)) if val})
        w_dims.append(wx.rank)
        joint = linalg.SparseReducer()
        for l in range(data.dim):
            joint.add({k: Fraction(int(y)) for k, y in
                       enumerate(t.px[l].reshape(dd)) if y})
        for row in wx.rows.values():
            joint.add(row)
        if joint.rank != ad_rank + wx.rank:
            ok_w = False
    details["W(x)-trivial-intersection"] = ok_w
    details["W-dims"] = w_dims

    ok = ok_k and ok_w
    return _report("extension_split", data, ok, details)


def _msym_batched(T, px_all):
    """-(1/24) sum_pi m_pi([X_a (x) 1 (x) 1, T]) for all basis X_a at once.

    T has indices [i, I, j, J, k, K] (row/col per tensor slot); returns the
    integer tensor R[a, r, c] such that RHS = scalefactor * R with the
    -1/24 handled by the caller's scale bookkeeping (this routine returns
    the *plain sum* over the six orderings of the slot products).
    """
    import itertools
    acc = None
    labels = {1: ("i", "I"), 2: ("j", "J"), 3: ("k", "K")}
    for order in itertools.permutations((1, 2, 3)):
        # chain the slots in this order; slot1 carries the X commutator
        sub = {s: list(labels[s]) for s in (1, 2, 3)}
        # bind col(order[0]) = row(order[1]), col(order[1]) = row(order[2])
        sub[order[1]][0] = sub[order[0]][1]
        sub[order[2]][0] = sub[order[1]][1]
        outer_row = sub[order[0]][0]
        outer_col = sub[order[2]][1]
        term = _msym_order(T, px_all, order, sub, outer_row, outer_col)
        acc = term if acc is None else acc + term
    return acc


def _msym_order(T, px_all, order, sub, outer_row, outer_col):
    """Sum over left/right X insertion at slot 1 for one slot ordering."""
    # T axes are fixed: [i, I, j, J, k, K]
    # Build the contraction label for T per the chain substitution, leaving
    # slot1's row (left insertion) or col (right insertion) detached.
    base = [sub[1][0], sub[1][1], sub[2][0], sub[2][1], sub[3][0], sub[3][1]]

    def espec(detach_axis, new_label):
        lab = list(base)
        lab[detach_axis] = new_label
        out = "".join(lab)
        return out

    s1row_binding = sub[1][0]
    s1col_binding = sub[1][1]
    # left insertion: product ... X * slot1 ...: X[row_binding, fresh],
    # T slot1 row index renamed to fresh
    left_T = espec(0, "z")
    left = checked_einsum("a" + s1row_binding + "z," + left_T + "->a"
                          + outer_row + outer_col, px_all, T)
    # right insertion: slot1 * X: T slot1 col renamed fresh, X[fresh, colbind]
    right_T = espec(1, "z")
    right = checked_einsum("az" + s1col_binding + "," + right_T + "->a"
                           + outer_row + outer_col, px_all, T)
    return left - right


def verify_yangian_module(data, rep, max_quartic=40000):
    """Check the defining Yangian relations on (rho(X), rho(J(X))) matrices.

    The right-hand sides' orthonormal triple sums are contracted through
    dual pairs; the form-summation index is collapsed with the invariance
    identity sum_l (X_l, W) X^l = W.
    """
    t = _Tensors(data, rep)
    g, d = data.dim, rep.dim
    details = {}

    # YJ:1 — bracket representation and J([X,Y]) = [J(X), Y]
    c_xx = (checked_einsum("lab,nbc->lnac", t.px, t.px)
            - checked_einsum("nab,lbc->lnac", t.px, t.px))
    lin = checked_einsum("lng,gab->lnab", t.brc, t.px)
    details["YJ1-bracket"] = scaled_equal(c_xx, t.sx * t.sx, lin,
                                          t.sbrc * t.sx)
    c_jx = (checked_einsum("lab,nbc->lnac", t.pj, t.px)
            - checked_einsum("nab,lbc->lnac", t.px, t.pj))
    lin_j = checked_einsum("lng,gab->lnab", t.brc, t.pj)
    details["YJ1-Jlinear"] = scaled_equal(c_jx, t.sj * t.sx, lin_j,
                                          t.sbrc * t.sj)
    details["YJ2"] = True  # linearity is structural in the matrix model

    # dual-contracted current tensors: OmA[b] = sum_m rho([X_b,X_m]) (x)
    # rho(X^m), an element of End(V (x) V)
    c_bm = (checked_einsum("bik,mkj->bmij", t.px, t.px)
            - checked_einsum("mik,bkj->bmij", t.px, t.px))
    oma = checked_einsum("bmij,mkl->bijkl", c_bm, t.pd)
    s_oma = t.sx * t.sx * t.sd

    ok3 = True
    jj = (checked_einsum("bik,ckj->bcij", t.pj, t.pj)
          - checked_einsum("cik,bkj->bcij", t.pj, t.pj))
    jx = (checked_einsum("bik,ckj->bcij", t.pj, t.px)
          - checked_einsum("cik,bkj->bcij", t.px, t.pj))
    s_rhs = -Fraction(1, 24) * s_oma * s_oma * t.sx
    s_lhs = t.sj * t.sj * t.sx

    def lhs3(beta, gam):
        # [J_a, [J_beta, X_gam]] - [X_a, [J_beta, J_gam]]
        inner1 = jx[beta, gam]
        inner2 = jj[beta, gam]
        return ((checked_einsum("aik,kj->aij", t.pj, inner1)
                 - checked_einsum("ik,akj->aij", inner1, t.pj))
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
            B = oma[gam]
            T = (checked_einsum("iajJ,aIkK->iIjJkK", A, B)
                 - checked_einsum("iakK,aIjJ->iIjJkK", B, A))
            rhs = _msym_batched(T, t.px)
            if not scaled_equal(lhs3(beta, gam), s_lhs, rhs, s_rhs):
                ok3 = False
            if not scaled_equal(lhs3(gam, beta), s_lhs, -rhs, s_rhs):
                ok3 = False
    details["YJ3"] = ok3

    # YJ:4
    if not t.pj.any():
        # every symmetrized monomial on the right contains rho(J(X^nu)) = 0,
        # and the left side is identically zero: exact, no loop needed
        details["YJ4"] = True
        details["YJ4-mode"] = "rho_J = 0: both sides vanish identically"
    elif g ** 3 * d * d > max_quartic * d:
        details["YJ4"] = False
        details["YJ4-mode"] = "skipped: size guard (would not complete)"
    else:
        pdj, s_pdj = _dualize(t.pj, t.sj, data)
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
                    A = oma[beta]
                    T = (checked_einsum("iajJ,aIkK->iIjJkK", A, omaj)
                         - checked_einsum("iakK,aIjJ->iIjJkK", omaj, A))
                    term1[:, beta, gam, dl] = _msym_batched(T, t.px)
        s_term1 = -Fraction(1, 24) * s_oma * (t.sx ** 3) * s_pdj * t.sx
        rhs4 = term1.astype(object) + np.transpose(
            term1, (2, 3, 0, 1, 4, 5)).astype(object)
        # LHS[a,b,g,dl] = [[J_a,J_b],[X_g,J_dl]] + [[J_g,J_dl],[X_a,J_b]]
        xj = (checked_einsum("bik,ckj->bcij", t.px, t.pj)
              - checked_einsum("cik,bkj->bcij", t.pj, t.px))
        l1 = (checked_einsum("abik,cdkj->abcdij", jj, xj)
              - checked_einsum("cdik,abkj->abcdij", xj, jj))
        lhs4 = l1.astype(object) + np.transpose(
            l1, (2, 3, 0, 1, 4, 5)).astype(object)
        s_lhs4 = t.sj * t.sj * t.sx * t.sj
        q = s_lhs4 / s_term1
        ok4 = bool((lhs4 * q.numerator == rhs4 * q.denominator).all())
        details["YJ4"] = ok4
        details["YJ4-mode"] = "computed"

    ok = all(v for k, v in details.items()
             if isinstance(v, bool))
    return _report("yangian_module", data, ok, details)
