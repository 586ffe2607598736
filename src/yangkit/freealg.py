"""Free noncommutative algebra on the generator symbols t_{ij}^{(r)},
series-valued generator matrices, tensor squares, and the structure maps
of the algebra.

Generators are interned into single integers encoding (r, i, j) so that
integer order equals the (r, i, j) generator order; words are tuples of
these integers.  NCPoly, TensorNCPoly and yangian.CPoly share one
arithmetic, TermAlgebra, and differ only in their unit key and key
product.

Words are hash-consed: one module table maps each word to its one tuple,
and every word that a product (``NCPoly.join``, the legs of
``TensorNCPoly``), ``NCPoly.gen`` or ``yangian.rtt_relations`` makes is
looked up there, so equal words made anywhere in the process are one
object.  The table has no eviction; it holds exactly the words those
makers made in this process.  A closure's bounded word universe is not
interned, so the table never holds a closure-sized word set.  Only
object identity changes: values, term order and key order do not.

Coefficients are hash-consed the same way.  A second table maps each
value's (numerator, denominator) pair to its one Fraction, seeded with
``exact.ONE``, and every coefficient that a term-algebra operation
stores goes through it (``intern_coeff``), so each value is the table's
one Fraction.  The pair is the key, not the Fraction:
``Fraction.__hash__`` costs more than the lookup it would save.  A
stored 1 is then ``ONE`` itself, and a product takes the other factor's
coefficient when one is ``ONE`` instead of multiplying.  Scalars must be
exact: ints, Fractions and numpy integers (``numbers.Rational``); a
float, numpy float or Decimal is a TypeError, never a binary rounding of
the intended value.

Every structure map is stated on the generator matrix T(u): the
coproduct sends it to T(u) (x) T(u), the antipode to T(u)^{-1}, the counit
to I, and m_f to f(u) T(u).  So each map other than the counit is the
generator table of one matrix series, {t_{ij}^{(r)}: M^{(r)}_{ij}}, and
``substitute_poly`` applies any such table; the counit of p is its
``constant_coeff()``.
"""

from fractions import Fraction
from numbers import Rational

import numpy as np

from .exact import ONE, ZERO, TruncSeries, rat_to_str, series_mul
from .liealg import theta_value


class NonInvertible(ValueError):
    pass


# ---------------------------------------------------------------------------
# generator symbols

_I_BITS = 6
_J_BITS = 6
_MASK = (1 << _I_BITS) - 1


def gen_id(i, j, r):
    """Intern t_{ij}^{(r)} (1-based i, j; r >= 1) as a single integer."""
    if not (1 <= i <= _MASK and 1 <= j <= _MASK and r >= 1):
        raise ValueError("generator indices out of range")
    return (((r << _I_BITS) | i) << _J_BITS) | j


def gen_ijr(g):
    """Decode a generator id back to (i, j, r)."""
    j = g & _MASK
    i = (g >> _J_BITS) & _MASK
    r = g >> (_I_BITS + _J_BITS)
    return i, j, r


def word_sum_r(w):
    return sum(gen_ijr(g)[2] for g in w)


# ---------------------------------------------------------------------------
# hash-consed words

_WORDS = {}


def intern_word(w):
    """The table's one tuple equal to the word w (w itself when new)."""
    return _WORDS.setdefault(w, w)


# ---------------------------------------------------------------------------
# hash-consed coefficients

_COEFFS = {(1, 1): ONE}


def intern_coeff(c):
    """The table's one Fraction equal to the rational c (an int,
    Fraction or numpy integer); c itself when it is a new Fraction."""
    q = _COEFFS.get((c.numerator, c.denominator))
    if q is None:
        if type(c) is not Fraction or type(c.numerator) is not int:
            c = Fraction(int(c.numerator), int(c.denominator))
        q = _COEFFS[c.numerator, c.denominator] = c
    return q


def _exact(c):
    """The scalar c as the table's Fraction (ZERO for 0, which the table
    never holds); TypeError unless c is an exact rational."""
    if type(c) is not Fraction and not isinstance(c, Rational):
        raise TypeError("exact scalar required (int, Fraction or numpy "
                        "integer), got %s" % type(c).__name__)
    return intern_coeff(c) if c else ZERO


# ---------------------------------------------------------------------------
# term algebras: NCPoly, TensorNCPoly (and yangian.CPoly)

def _add_term(out, w, c):
    """out[w] += c in the term order of TermAlgebra: a new key takes the
    table's Fraction for c at the end; a key that cancels is popped."""
    v = out.get(w)
    if v is None:
        if c:
            out[w] = intern_coeff(c)
        return
    v += c
    if v:
        out[w] = intern_coeff(v)
    else:
        del out[w]


class TermAlgebra:
    """Finite Q-linear combination of basis keys, held as a dict
    {key: nonzero Fraction}.  A subclass sets the unit key ``UNIT`` and
    the key product ``join``; the arithmetic is shared.

    Each coefficient that an operation stores (a sum, a product, a
    constant, a scalar multiple, a negation or an inverse) is the
    coefficient table's one Fraction for its value (``intern_coeff``);
    the constructor stores the dict it is given.

    Term order is part of the output (relation lists and closure bases
    are pinned by hash, key order included): a sum or product pops a key
    that cancels and appends a new key at the end.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {} if terms is None else terms

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({cls.UNIT: ONE})

    @classmethod
    def constant(cls, c):
        c = _exact(c)
        return cls({cls.UNIT: c} if c else {})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Rational):
            # compared, not stored: the scalar stays out of the table
            return self.terms == ({self.UNIT: other} if other else {})
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        # __eq__ equates a constant with its scalar, so their hashes agree
        if self.terms.keys() <= {self.UNIT}:
            return hash(self.constant_coeff())
        return hash(frozenset(self.terms.items()))

    def _coerce(self, other):
        if isinstance(other, TermAlgebra):
            return other
        return self.constant(other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            _add_term(out, w, c)
        return type(self)(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __neg__(self):
        return type(self)({w: intern_coeff(-c)
                           for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, TermAlgebra):
            join = self.join
            out = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    # every stored 1 is ONE: a unit factor is not multiplied
                    _add_term(out, join(w1, w2), c2 if c1 is ONE else
                              c1 if c2 is ONE else c1 * c2)
            return type(self)(out)
        if not isinstance(other, Rational):
            # numpy then multiplies entrywise: a scalar series times a
            # matrix series is exact.series_mul
            return NotImplemented
        c = _exact(other)
        if not c:
            return type(self)({})
        return type(self)({w: intern_coeff(c * x)
                           for w, x in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, Rational):
            return self.__mul__(other)
        return NotImplemented

    def unit_inverse(self):
        """Inverse when the element is a nonzero constant."""
        if list(self.terms) != [self.UNIT]:
            raise NonInvertible("constant term is not scalar")
        c = intern_coeff(ONE / self.terms[self.UNIT])
        return type(self)({self.UNIT: c})

    def constant_coeff(self):
        return self.terms.get(self.UNIT, ZERO)


def _term_key(w):
    return (len(w), w)


class NCPoly(TermAlgebra):
    """Finite Q-linear combination of words in the generators; words
    multiply by concatenation."""

    __slots__ = ()

    UNIT = ()

    @staticmethod
    def join(a, b):
        # intern_word inlined: this runs once per term of every product
        w = a + b
        return _WORDS.setdefault(w, w)

    @staticmethod
    def gen(i, j, r):
        return NCPoly({intern_word((gen_id(i, j, r),)): ONE})

    def __repr__(self):
        if not self.terms:
            return "NCPoly(0)"
        bits = []
        for w in sorted(self.terms, key=_term_key)[:6]:
            mono = "*".join("t[%d,%d;%d]" % gen_ijr(g) for g in w) or "1"
            bits.append("%s*%s" % (self.terms[w], mono))
        if len(self.terms) > 6:
            bits.append("...")
        return "NCPoly(%s)" % " + ".join(bits)

    def max_len(self):
        return max((len(w) for w in self.terms), default=0)

    def max_sum_r(self):
        return max((word_sum_r(w) for w in self.terms), default=0)

    def to_json(self):
        out = []
        for w in sorted(self.terms, key=_term_key):
            out.append({"coeff": rat_to_str(self.terms[w]),
                        "word": [list(gen_ijr(g)) for g in w]})
        return out


class TensorNCPoly(TermAlgebra):
    """Q-linear combination of word (x) word; the legs commute."""

    __slots__ = ()

    UNIT = ((), ())

    @staticmethod
    def join(a, b):
        return (intern_word(a[0] + b[0]), intern_word(a[1] + b[1]))

    @staticmethod
    def of(left, right):
        """left (x) right for NCPoly legs."""
        return TensorNCPoly({(intern_word(w1), intern_word(w2)):
                             intern_coeff(c1 * c2)
                             for w1, c1 in left.terms.items()
                             for w2, c2 in right.terms.items()})

    def max_len(self):
        return max((len(w) for legs in self.terms for w in legs), default=0)

    def max_sum_r(self):
        return max((word_sum_r(w) for legs in self.terms for w in legs),
                   default=0)


# ---------------------------------------------------------------------------
# generator matrices as truncated series: a TruncSeries whose
# coefficients are N x N object arrays (the matrix operations of
# exact.TruncSeries act entrywise; products and inverses are here)

def _eye(N):
    m = np.full((N, N), NCPoly.zero(), dtype=object)
    for i in range(N):
        m[i, i] = NCPoly.one()
    return m


def t_matrix(N, K):
    """The generic generator matrix: entry (i,j) = delta_ij + sum_r
    t_{ij}^{(r)} u^{-r}."""
    if K < 1:
        raise ValueError("K >= 1 required")
    coeffs = [_eye(N)]
    for r in range(1, K + 1):
        m = np.empty((N, N), dtype=object)
        for i in range(N):
            for j in range(N):
                m[i, j] = NCPoly.gen(i + 1, j + 1, r)
        coeffs.append(m)
    return TruncSeries(coeffs)


def mat_mul(A, B):
    """A(u) B(u) to the lower of the two orders.  Coefficient matrices
    multiply by numpy's object ``@``, which sums the entry products in k
    order starting from the first, so NCPoly entries keep a fixed term
    order."""
    K = min(A.order, B.order)
    out = []
    for k in range(K + 1):
        acc = None
        for a in range(k + 1):
            t = A.coeffs[a] @ B.coeffs[k - a]
            acc = t if acc is None else acc + t
        out.append(acc)
    return TruncSeries(out)


def mat_inverse(A):
    """Inverse via the geometric series; requires constant term I."""
    ident = _eye(len(A.coeffs[0]))
    if not (A.coeffs[0] == ident).all():
        raise NonInvertible("constant term is not the identity")
    out = [ident]
    for k in range(1, A.order + 1):
        acc = None
        for a in range(1, k + 1):
            t = A.coeffs[a] @ out[k - a]
            acc = t if acc is None else acc + t
        out.append(-acc)
    return TruncSeries(out)


def transpose_t(A, data):
    """Entry (-j, -i) of the result is theta_{ij} t_{ij}(u), indices in the
    signed set of the algebra data."""
    out = []
    for k in range(A.order + 1):
        m = np.empty((data.N, data.N), dtype=object)
        for i in data.indices:
            for j in data.indices:
                th = theta_value(data.family, i, j)
                src = A.coeffs[k][data.pos(i), data.pos(j)]
                m[data.pos(-j), data.pos(-i)] = th * src if th != 1 else src
        out.append(m)
    return TruncSeries(out)


# ---------------------------------------------------------------------------
# structure maps as generator tables

def _generator_table(M):
    """{gen_id(i, j, r): M^{(r)}_{ij}} for r >= 1: the generator images of
    the map that sends T(u) to the matrix series M(u)."""
    N = len(M.coeffs[0])
    return {gen_id(i + 1, j + 1, r): M.coeffs[r][i, j]
            for r in range(1, M.order + 1)
            for i in range(N) for j in range(N)}


def coproduct_table(N, K):
    """Generator images of the coproduct, T(u) -> T(u) (x) T(u), as
    TensorNCPolys: Delta(t_{ij}^{(r)}) = sum_a sum_b t_{ia}^{(b)} (x)
    t_{aj}^{(r-b)} with t^{(0)} = delta, for r <= K."""
    T = t_matrix(N, K)
    one = NCPoly.one()
    left = np.frompyfunc(lambda p: TensorNCPoly.of(p, one), 1, 1)
    right = np.frompyfunc(lambda p: TensorNCPoly.of(one, p), 1, 1)
    return _generator_table(mat_mul(TruncSeries(map(left, T.coeffs)),
                                    TruncSeries(map(right, T.coeffs))))


def antipode_table(N, K):
    """Generator images of the antipode, T(u) -> T(u)^{-1}, for r <= K;
    S is applied as an anti-homomorphism (``substitute_poly(p, table,
    anti=True)``)."""
    return _generator_table(mat_inverse(t_matrix(N, K)))


def mf_table(N, K, f):
    """Generator images of the substitution induced by T(u) -> f(u) T(u),
    for r <= K: m_f(t_{ij}^{(r)}) = sum_{a<=r} f_a t_{ij}^{(r-a)} with
    t^{(0)} = delta.  f is read as zero past its order."""
    if f.coeffs[0] != ONE:
        raise ValueError("f must have constant term 1")
    f = TruncSeries(list(f.coeffs) + [ZERO] * (K - f.order))
    return _generator_table(series_mul(f, t_matrix(N, K)))


def substitute_poly(p, table, anti=False):
    """Algebra (anti)homomorphism determined by generator images: every
    letter of a word is replaced by its image, the images multiplied in
    reverse order when ``anti``.  The result has the images' type, NCPoly
    or TensorNCPoly."""
    kind = type(next(iter(table.values())))
    out = None
    for w, c in p.terms.items():
        term = kind.constant(c)
        seq = reversed(w) if anti else w
        for g in seq:
            term = term * table[g]
        out = term if out is None else out + term
    return out if out is not None else kind.zero()
