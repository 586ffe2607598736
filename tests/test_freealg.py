"""Free algebra layer: noncommutative polynomials, generator matrix
series, and the structure maps as generator tables: coproduct, counit,
antipode and the scaling substitution."""

import operator
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from yangkit import freealg, yangian
from yangkit.exact import ONE, TruncSeries, series_mul, series_shift
from yangkit.freealg import (
    NCPoly,
    NonInvertible,
    TensorNCPoly,
    TermAlgebra,
    antipode_table,
    coproduct_table,
    gen_id,
    gen_ijr,
    mat_inverse,
    mat_mul,
    mf_table,
    substitute_poly,
    t_matrix,
    transpose_t,
    word_sum_r,
)
from yangkit.liealg import build_lie
from yangkit.yangian import CPoly, closure, normal_form, rtt_relations
import rational_reference
from rational_reference import (cpoly_terms_add, cpoly_terms_mul,
                                ncpoly_from_json, ncpoly_from_word,
                                terms_add, terms_mul, terms_neg)

F = Fraction


def is_identity_mat(A):
    N = len(A.coeffs[0])
    for k in range(A.order + 1):
        for i in range(N):
            for j in range(N):
                want = NCPoly.one() if (k == 0 and i == j) else NCPoly.zero()
                if A.coeffs[k][i, j] != want:
                    return False
    return True


class TestGenIds:
    def test_roundtrip(self):
        for i, j, r in [(1, 1, 1), (3, 2, 5), (2, 3, 1)]:
            assert gen_ijr(gen_id(i, j, r)) == (i, j, r)

    def test_word_sum_r(self):
        w = (gen_id(1, 2, 3), gen_id(2, 1, 4))
        assert word_sum_r(w) == 7


class TestNCPoly:
    def test_noncommutative(self):
        a = NCPoly.gen(1, 2, 1)
        b = NCPoly.gen(2, 1, 1)
        assert a * b != b * a

    def test_ring_axioms_on_samples(self):
        a = NCPoly.gen(1, 1, 1) + 2 * NCPoly.gen(1, 2, 2)
        b = NCPoly.gen(2, 2, 1) - F(1, 3)
        c = NCPoly.gen(2, 1, 3)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a) == NCPoly.zero()

    def test_degree_trackers(self):
        p = NCPoly.gen(1, 1, 2) * NCPoly.gen(1, 2, 3) + NCPoly.gen(2, 2, 1)
        assert p.max_len() == 2
        assert p.max_sum_r() == 5

    def test_json_roundtrip(self):
        p = F(5, 3) * NCPoly.gen(1, 2, 1) * NCPoly.gen(2, 1, 4) - F(7)
        assert ncpoly_from_json(p.to_json()) == p

    def test_tensor_degree_trackers_span_both_legs(self):
        a = NCPoly.gen(1, 1, 2) * NCPoly.gen(1, 2, 3)
        b = NCPoly.gen(2, 2, 1)
        assert TensorNCPoly.of(a, b).max_len() == 2
        assert TensorNCPoly.of(b, a).max_len() == 2
        assert TensorNCPoly.of(b, a).max_sum_r() == 5
        assert (TensorNCPoly.of(b, b) + TensorNCPoly.of(a, NCPoly.one())
                ).max_sum_r() == 5
        assert TensorNCPoly.zero().max_len() == 0


_COEFFS = st.sampled_from([F(1), F(-1), F(2), F(-2), F(1, 2), F(-3, 2)])
# two letters and short words, so that keys collide and cancel often
_WORDS = st.lists(st.sampled_from([gen_id(1, 1, 1), gen_id(1, 2, 1)]),
                  max_size=2).map(tuple)
_KEYS = {
    NCPoly: _WORDS,
    TensorNCPoly: st.tuples(_WORDS, _WORDS),
    CPoly: st.lists(st.sampled_from([2, 3, 4]), max_size=2).map(
        lambda m: tuple(sorted(m))),
}
_REF = {
    NCPoly: (terms_add, lambda a, b: terms_mul(a, b, lambda x, y: x + y)),
    TensorNCPoly: (terms_add, lambda a, b: terms_mul(
        a, b, lambda x, y: (x[0] + y[0], x[1] + y[1]))),
    CPoly: (cpoly_terms_add, cpoly_terms_mul),
}
_TERM_CLASSES = pytest.mark.parametrize(
    "cls", [NCPoly, TensorNCPoly, CPoly],
    ids=["NCPoly", "TensorNCPoly", "CPoly"])


def _elements(data, cls, n):
    terms = st.dictionaries(_KEYS[cls], _COEFFS, max_size=4)
    return [cls(data.draw(terms)) for _ in range(n)]


def _same(cls, got, want):
    """got (an element) has the reference terms want, in the same key
    order where the term order is part of the output."""
    if cls is CPoly:
        return got.terms == want
    return list(got.terms.items()) == list(want.items())


class TestTermAlgebra:
    """NCPoly, TensorNCPoly and CPoly share one arithmetic; each must
    still compute what its own loops did."""

    @_TERM_CLASSES
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_reference_loops(self, cls, data):
        add, mul = _REF[cls]
        a, b = _elements(data, cls, 2)
        c = data.draw(_COEFFS | st.sampled_from([0, 3, -1]))
        cd = {cls.UNIT: F(c)} if c else {}
        assert _same(cls, a + b, add(a.terms, b.terms))
        assert _same(cls, a - b, add(a.terms, terms_neg(b.terms)))
        assert _same(cls, -a, terms_neg(a.terms))
        assert _same(cls, a * b, mul(a.terms, b.terms))
        assert _same(cls, a + c, add(a.terms, cd))
        assert _same(cls, c + a, add(a.terms, cd))
        assert _same(cls, a - c, add(a.terms, terms_neg(cd)))
        assert _same(cls, c * a, mul(cd, a.terms))
        assert _same(cls, a * c, mul(a.terms, cd))
        assert _same(cls, c - a, add(cd, terms_neg(a.terms)))

    def test_cancelled_key_reappears_at_the_end(self):
        # in (1 + g + g^2)(g^2 - g + 1) the key g^2 cancels at the second
        # left term and comes back at the third, so it moves to the end
        g = NCPoly.gen(1, 1, 1)
        a = 1 + g + g * g
        b = g * g - g + 1
        w = gen_id(1, 1, 1)
        assert list((a * b).terms) == [(), (w,) * 4, (w,) * 2]
        assert _same(NCPoly, a * b, _REF[NCPoly][1](a.terms, b.terms))

    @_TERM_CLASSES
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_int_coefficients_come_out_as_fractions(self, cls, data):
        # terms built from int dicts, with zeros on the right: a key that
        # is new to a sum, and every key of a product, holds a nonzero
        # Fraction
        add, mul = _REF[cls]
        a, b = (cls(data.draw(st.dictionaries(_KEYS[cls], coeffs,
                                              max_size=4)))
                for coeffs in (st.sampled_from([1, -1, 2, -2]),
                               st.integers(-2, 2)))
        for got, want, old in ((a + b, add(a.terms, b.terms), a.terms),
                               (a * b, mul(a.terms, b.terms), {})):
            assert _same(cls, got, want)
            assert all(type(c) is Fraction and c
                       for w, c in got.terms.items() if w not in old)

    @_TERM_CLASSES
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_ring_axioms(self, cls, data):
        a, b, c = _elements(data, cls, 3)
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a - a == cls.zero() and not (a - a)
        assert a * cls.one() == a == cls.one() * a
        assert not (a * cls.zero())
        if cls is CPoly:
            assert a * b == b * a

    @_TERM_CLASSES
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_unit_inverse(self, cls, data):
        c = data.draw(_COEFFS)
        p = cls.constant(c)
        assert p.unit_inverse() == cls.constant(1 / c)
        assert p * p.unit_inverse() == cls.one()
        assert p.constant_coeff() == c
        (a,) = _elements(data, cls, 1)
        if list(a.terms) != [cls.UNIT]:
            with pytest.raises(NonInvertible):
                a.unit_inverse()

    @_TERM_CLASSES
    @pytest.mark.parametrize("c", [0, 3, F(-1, 2)])
    def test_hash_agrees_with_eq_on_constants(self, cls, c):
        # __eq__ equates a constant with its scalar, so the hashes must
        # agree for sets and dict keys to see them as one element
        p = cls.constant(c)
        assert p == c and hash(p) == hash(c)
        assert c in {p} and p in {c}
        assert hash(p) == hash(cls.constant(c))
        assert 1 + p - 1 in {p}

    @pytest.mark.parametrize("p", [
        NCPoly.zero(), 1 + NCPoly.gen(1, 2, 1),
        TensorNCPoly.zero(), 1 + TensorNCPoly.of(NCPoly.one(),
                                                 NCPoly.gen(1, 2, 1)),
        CPoly.zero(), 1 + CPoly.symbol(2)],
        ids=["NCPoly-0", "NCPoly-1+t", "TensorNCPoly-0", "TensorNCPoly-1+t",
             "CPoly-0", "CPoly-1+z"])
    def test_only_nonzero_constants_are_invertible(self, p):
        with pytest.raises(NonInvertible):
            p.unit_inverse()


class TestMatSeries:
    def test_inverse(self):
        T = t_matrix(3, 3)
        assert is_identity_mat(mat_mul(T, mat_inverse(T)))
        assert is_identity_mat(mat_mul(mat_inverse(T), T))

    def test_shift_additive(self):
        T = t_matrix(2, 3)
        lhs = series_shift(series_shift(T, F(1)), F(2))
        rhs = series_shift(T, F(3))
        for k in range(4):
            assert (lhs.coeffs[k] == rhs.coeffs[k]).all()

    def test_transpose_involution(self):
        data = build_lie("so", 3)
        T = t_matrix(3, 2)
        TT = transpose_t(transpose_t(T, data), data)
        for k in range(3):
            assert (TT.coeffs[k] == T.coeffs[k]).all()

    def test_mat_mul_entry_without_terms_is_ncpoly_zero(self):
        a, b, z = NCPoly.gen(1, 1, 1), NCPoly.gen(1, 2, 1), NCPoly.zero()
        x = np.array([[a, z], [z, b]], dtype=object)
        y = np.array([[b, a], [z, z]], dtype=object)
        (out,) = mat_mul(TruncSeries([x]), TruncSeries([y])).coeffs
        assert out[0, 0] == a * b and out[0, 1] == a * a
        # row 1 of x meets only zero factors: no term, the NCPoly zero
        for p in out[1]:
            assert isinstance(p, NCPoly) and not p


class TestHopfMaps:
    def test_coproduct_on_generator(self):
        N, r = 2, 2
        p = NCPoly.gen(1, 2, r)
        got = substitute_poly(p, coproduct_table(N, r))
        want = (TensorNCPoly.of(p, NCPoly.one())
                + TensorNCPoly.of(NCPoly.one(), p))
        for k in range(1, N + 1):
            for a in range(1, r):
                want = want + TensorNCPoly.of(NCPoly.gen(1, k, a),
                                              NCPoly.gen(k, 2, r - a))
        assert got == want

    def test_counit(self):
        # epsilon(T(u)) = I: the counit keeps the constant term
        assert NCPoly.gen(1, 2, 1).constant_coeff() == 0
        assert NCPoly.constant(F(7, 2)).constant_coeff() == F(7, 2)
        assert (NCPoly.gen(1, 1, 1) * NCPoly.gen(2, 2, 1) + 3
                ).constant_coeff() == 3

    def test_antipode_axiom_on_generators(self):
        # m (S (x) id) Delta (t_ij^(r)) = 0 for r >= 1
        N, K = 2, 3
        table = antipode_table(N, K)
        for g, cop in coproduct_table(N, K).items():
            acc = NCPoly.zero()
            for (w1, w2), c in cop.terms.items():
                acc = acc + c * (
                    substitute_poly(ncpoly_from_word(w1), table, anti=True)
                    * ncpoly_from_word(w2))
            assert acc == NCPoly.zero(), gen_ijr(g)

    def test_antipode_antihomomorphism(self):
        table = antipode_table(2, 4)
        p = NCPoly.gen(1, 2, 1)
        q = NCPoly.gen(2, 1, 2)
        assert substitute_poly(p * q, table, anti=True) == (
            substitute_poly(q, table, anti=True)
            * substitute_poly(p, table, anti=True))

    def test_tables_read_one_matrix_series(self):
        # each table holds t_ij^(r) for r = 1..K, in (r, i, j) order
        N, K = 3, 2
        want = [gen_id(i, j, r) for r in range(1, K + 1)
                for i in range(1, N + 1) for j in range(1, N + 1)]
        f = TruncSeries([F(1), F(2)])
        for table in (antipode_table(N, K), coproduct_table(N, K),
                      mf_table(N, K, f)):
            assert list(table) == want
        assert all(isinstance(p, TensorNCPoly)
                   for p in coproduct_table(N, K).values())

    def test_constants_map_into_the_images_type(self):
        # TermAlgebra == compares types, so these are TensorNCPolys
        table = coproduct_table(2, 1)
        assert substitute_poly(NCPoly.zero(), table) == TensorNCPoly.zero()
        assert (substitute_poly(NCPoly.constant(5), table)
                == TensorNCPoly.constant(5))


def _coproduct_cases(N):
    """Random NCPolys with constant terms, in the letters of order <= 3
    of gl_N: at most 4 words of length <= 3."""
    letters = [gen_id(i, j, r) for r in range(1, 4)
               for i in range(1, N + 1) for j in range(1, N + 1)]
    words = st.lists(st.sampled_from(letters), max_size=3).map(tuple)
    return st.dictionaries(words, _COEFFS, min_size=1, max_size=4).map(
        lambda terms: NCPoly({(): F(1), **terms}))


@pytest.mark.parametrize("N", [2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_coproduct_table_matches_reference(N, data):
    """substitute_poly with the coproduct table, the entries of
    T(u) (x) T(u), is the letter-by-letter coproduct."""
    table = coproduct_table(N, 3)
    p = data.draw(_coproduct_cases(N))
    assert substitute_poly(p, table) == rational_reference.coproduct_poly(p, N)


def test_bumped_coproduct_table_fails_the_reference():
    """One entry of the coproduct table bumped by 1 (x) t_11^(1): a
    polynomial with that letter then differs from the reference."""
    N = 2
    table = dict(coproduct_table(N, 3))
    g = gen_id(1, 2, 2)
    table[g] = table[g] + TensorNCPoly.of(NCPoly.one(), NCPoly.gen(1, 1, 1))
    p = 1 + NCPoly.gen(2, 1, 1) * NCPoly.gen(1, 2, 2)
    assert substitute_poly(p, table) != rational_reference.coproduct_poly(p, N)
    q = 1 + NCPoly.gen(2, 1, 1)
    assert substitute_poly(q, table) == rational_reference.coproduct_poly(q, N)


class TestScaling:
    def test_generator_image(self):
        # T -> f T sends t_ij^(r) to sum_a f_a t_ij^(r-a) (t^(0) = delta)
        f = TruncSeries([F(1), F(2), F(-1)])
        table = mf_table(2, 2, f)
        got = table[gen_id(1, 2, 2)]
        want = NCPoly.gen(1, 2, 2) + 2 * NCPoly.gen(1, 2, 1)
        assert got == want
        diag = table[gen_id(1, 1, 2)]
        assert diag == (NCPoly.gen(1, 1, 2) + 2 * NCPoly.gen(1, 1, 1)
                        + NCPoly.constant(F(-1)))

    def test_multiplicative(self):
        f = TruncSeries([F(1), F(1), F(1), F(0)])
        table = mf_table(2, 3, f)
        p = NCPoly.gen(1, 2, 1)
        q = NCPoly.gen(2, 2, 2)
        assert substitute_poly(p * q, table) == \
            substitute_poly(p, table) * substitute_poly(q, table)

    @pytest.mark.parametrize("N,K,f", [
        (2, 4, [1, 2, -1, 3, F(1, 2)]),
        (3, 3, [1, 0, F(-3, 2), 2]),
        (2, 2, [1, 1, 1]),
        # f shorter than K: read as zero past its order
        (2, 4, [1, 1]),
        (3, 2, [1]),
    ])
    def test_matches_reference_in_term_order(self, N, K, f):
        """The entries of f(u) T(u) are the entry-by-entry images, with
        the same term order (substitute_poly's outputs feed pinned
        digests through the term order)."""
        f = TruncSeries([F(c) for c in f])
        got = mf_table(N, K, f)
        want = rational_reference.mf_table(N, K, f)
        assert list(got) == list(want)
        for g in want:
            assert list(got[g].terms.items()) == list(want[g].terms.items())

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError, match="constant term 1"):
            mf_table(2, 2, TruncSeries([F(2), F(1)]))


class TestScalarTimesMatrixSeries:
    def test_ncpoly_times_object_array_is_entrywise(self):
        p = 1 + NCPoly.gen(2, 2, 1)
        T = t_matrix(2, 1)
        out = p * T.coeffs[1]
        assert isinstance(out, np.ndarray) and out.shape == (2, 2)
        for i in range(2):
            for j in range(2):
                assert out[i, j] == p * T.coeffs[1][i, j]

    def test_series_mul_is_the_scalar_matrix_product(self):
        # y(u) T(u) by series_mul equals (y(u) I) T(u) by mat_mul
        N, K = 2, 3
        y = TruncSeries([NCPoly.one(), NCPoly.gen(1, 1, 1), F(1, 2)
                         + NCPoly.gen(1, 2, 1) * NCPoly.gen(2, 1, 1),
                         NCPoly.gen(2, 2, 2)])
        T = t_matrix(N, K)
        scalar = []
        for c in y.coeffs:
            m = np.full((N, N), NCPoly.zero(), dtype=object)
            for i in range(N):
                m[i, i] = c
            scalar.append(m)
        got = series_mul(y, T)
        want = mat_mul(TruncSeries(scalar), T)
        for k in range(K + 1):
            for i in range(N):
                for j in range(N):
                    assert (list(got.coeffs[k][i, j].terms.items())
                            == list(want.coeffs[k][i, j].terms.items()))

    def test_other_operands_are_not_implemented(self):
        assert NCPoly.gen(1, 1, 1).__mul__("x") is NotImplemented
        with pytest.raises(TypeError):
            NCPoly.gen(1, 1, 1) * "x"


def words_shared(words):
    """Equal words among ``words`` are one object, the one that
    freealg's word table holds."""
    words = list(words)
    return (len({id(w) for w in words}) == len(set(words))
            and all(freealg._WORDS.get(w) is w for w in words))


def _tensor_legs(*elements):
    return [leg for t in elements for key in t.terms for leg in key]


def products_share_words():
    x, y, z = (NCPoly.gen(1, 2, 1), NCPoly.gen(2, 1, 2),
               NCPoly.gen(1, 1, 3))
    made = [(x * y) * z, x * (y * z), (x + 1) * (y * z + y), x * y]
    return words_shared(w for p in made for w in p.terms)


def tensor_legs_share_words():
    x, y = NCPoly.gen(1, 2, 1), NCPoly.gen(2, 1, 2)
    one = NCPoly.one()
    made = [TensorNCPoly.of(x * y, y * x),
            TensorNCPoly.of(x, y) * TensorNCPoly.of(y, x),
            TensorNCPoly.of(x, one) * TensorNCPoly.of(y, one)]
    return words_shared(_tensor_legs(*made) + list((x * y).terms))


class TestHashConsedWords:
    """Every word that a product, NCPoly.gen or a TensorNCPoly leg makes
    is the word table's one tuple, so equal words are one object."""

    def test_independent_products_share_words(self):
        assert products_share_words()

    def test_gen_words_are_shared(self):
        (a,) = NCPoly.gen(2, 1, 3).terms
        (b,) = NCPoly.gen(2, 1, 3).terms
        assert a is b and freealg._WORDS[a] is a

    def test_tensor_legs_share_words(self):
        assert tensor_legs_share_words()

    def test_of_interns_legs_built_outside_products(self):
        w = (gen_id(1, 2, 1), gen_id(2, 2, 2))
        (key,) = TensorNCPoly.of(NCPoly({w: F(1)}),
                                 NCPoly.gen(1, 2, 1)).terms
        made = NCPoly.gen(1, 2, 1) * NCPoly.gen(2, 2, 2)
        assert words_shared(list(key) + list(made.terms))

    def test_planted_plain_join_fails(self, monkeypatch):
        monkeypatch.setattr(NCPoly, "join", operator.add)
        assert not products_share_words()

    def test_planted_plain_tensor_join_fails(self, monkeypatch):
        monkeypatch.setattr(TensorNCPoly, "join", staticmethod(
            lambda a, b: (a[0] + b[0], a[1] + b[1])))
        assert not tensor_legs_share_words()


def is_member(c):
    """c is the coefficient table's Fraction for its value."""
    return freealg._COEFFS.get((c.numerator, c.denominator)) is c


def coeffs_shared(coeffs):
    """Equal values among ``coeffs`` are one object, the one that
    freealg's coefficient table holds."""
    coeffs = list(coeffs)
    return (len({id(c) for c in coeffs}) == len(set(coeffs))
            and all(map(is_member, coeffs)))


def _coeffs(*elements):
    return [c for p in elements for c in p.terms.values()]


def made_coeffs_shared():
    x, y = NCPoly.gen(1, 2, 1), NCPoly.gen(2, 1, 2)
    a = 2 * x + 3 * y
    made = [a * a, (x + y) * a + a, 6 * (x * y), a * F(3, 2) - y,
            NCPoly.constant(F(12, 3)), NCPoly.constant(6), -(F(-9) * y),
            -a, NCPoly.constant(F(1, 4)).unit_inverse()]
    return coeffs_shared(_coeffs(*made))


def _fresh(n):
    """n Fractions whose values the coefficient table does not hold."""
    d = 10 ** 12 + 39
    out = []
    k = 1
    while len(out) < n:
        if (k, d) not in freealg._COEFFS:
            out.append(F(k, d))
        k += 1
    return out


def unit_factors_keep_coefficients():
    """A generator factor (coefficient ONE) on either side leaves the
    other factor's coefficient objects in the product: for an element
    made by the arithmetic, and for one whose values are new to the
    table."""
    x, y = NCPoly.gen(1, 2, 1), NCPoly.gen(2, 1, 2)
    g = NCPoly.gen(1, 1, 2)
    c1, c2 = _fresh(2)
    for p in (F(2, 3) * x + F(-5, 7) * (y * x),
              NCPoly({(gen_id(1, 2, 1),): c1, (gen_id(2, 1, 2),): c2})):
        want = [id(c) for c in p.terms.values()]
        for q in (g * p, p * g):
            if [id(c) for c in q.terms.values()] != want:
                return False
    return True


_MUL = TermAlgebra.__mul__


def _mul_without_unit_test(self, other):
    """TermAlgebra.__mul__ computing every coefficient product."""
    if not isinstance(other, TermAlgebra):
        return _MUL(self, other)
    out = {}
    for w1, c1 in self.terms.items():
        for w2, c2 in other.terms.items():
            freealg._add_term(out, self.join(w1, w2), c1 * c2)
    return type(self)(out)


def _add_term_without_table(out, w, c):
    v = out.get(w)
    if v is None:
        if c:
            out[w] = F(c)
        return
    v += c
    if v:
        out[w] = v
    else:
        del out[w]


@pytest.fixture(scope="module")
def sl2_k2():
    pres = rtt_relations("sl", 2, 2)
    return pres, closure(pres, 2, 2)


def _normal_forms(cl):
    x, y = NCPoly.gen(1, 2, 1), NCPoly.gen(2, 1, 1)
    c1, c2 = _fresh(2)
    return [normal_form(cl, c1 * (x * y) + c2 * (y * x)),
            normal_form(cl, F(3, 7) * (x * y)), normal_form(cl, F(-2, 9))]


class TestSharedCoefficients:
    """Every coefficient that the term algebra stores is the coefficient
    table's one Fraction for its value, and a coefficient equal to 1 is
    ONE, so a product takes the other factor's coefficient as is."""

    def test_equal_values_are_one_object(self):
        assert made_coeffs_shared()

    def test_one_is_the_exact_one(self):
        x = NCPoly.gen(1, 2, 1)
        made = [NCPoly.one(), NCPoly.constant(1), x, 3 * x * F(1, 3),
                (x + F(1, 2)) - F(1, 2) * NCPoly.constant(F(-1))]
        assert all(c is ONE for c in _coeffs(*made) if c == 1)

    def test_zero_is_never_stored(self):
        x = NCPoly.gen(1, 2, 1)
        assert not (NCPoly.constant(0) or 0 * x or x * F(0) or x - x)
        assert x + 0 == x and (0, 1) not in freealg._COEFFS

    def test_unit_factors_keep_coefficient_objects(self):
        assert unit_factors_keep_coefficients()

    def test_scalar_multiples_by_one_are_members(self):
        c1, c2 = _fresh(2)
        p = NCPoly({(gen_id(1, 2, 1),): c1, (gen_id(2, 1, 2),): c2})
        q = p * 1
        assert q == p and q.terms is not p.terms
        assert all(map(is_member, _coeffs(q, 1 * p, F(1) * p)))

    def test_comparison_leaves_the_table_alone(self):
        c, = _fresh(1)
        x = NCPoly.gen(1, 2, 1)
        assert x != c and NCPoly.one() != c and NCPoly.constant(2) != c
        assert (c.numerator, c.denominator) not in freealg._COEFFS
        assert NCPoly.constant(2) == np.int64(2) and NCPoly.zero() == 0

    def test_tensor_and_cpoly_coefficients_are_members(self):
        x, y = NCPoly.gen(1, 2, 1), NCPoly.gen(2, 1, 2)
        c1, c2 = _fresh(2)
        t = TensorNCPoly.of(F(2, 3) * x + y, NCPoly({(): c1}) + x)
        z = CPoly({(2,): c2}) * CPoly.symbol(3) + CPoly.constant(F(5, 4))
        assert coeffs_shared(_coeffs(t, t * t, t - t * F(1, 2), z, z * z))

    def test_relations_and_normal_forms_are_members(self, sl2_k2):
        pres, cl = sl2_k2
        nfs = _normal_forms(cl)
        assert all(nfs)
        assert all(map(is_member, _coeffs(*pres.relations, *nfs)))

    def test_planted_add_term_without_table_fails(self, monkeypatch):
        monkeypatch.setattr(freealg, "_add_term", _add_term_without_table)
        assert not made_coeffs_shared()

    def test_planted_mul_without_unit_test_fails(self, monkeypatch):
        monkeypatch.setattr(TermAlgebra, "__mul__", _mul_without_unit_test)
        assert not unit_factors_keep_coefficients()

    def test_planted_relations_without_table_fail(self, monkeypatch):
        monkeypatch.setattr(yangian, "intern_coeff", F)
        pres = rtt_relations("sl", 2, 2)
        assert not all(map(is_member, _coeffs(*pres.relations)))

    def test_planted_normal_form_without_table_fails(self, sl2_k2,
                                                      monkeypatch):
        monkeypatch.setattr(yangian, "_row_to_poly", lambda id2word, row:
                            NCPoly({id2word[i]: c for i, c in row.items()}))
        assert not all(map(is_member, _coeffs(*_normal_forms(sl2_k2[1]))))


# letters of the words that the shared-arithmetic property test builds
_GEN = {g: NCPoly.gen(*gen_ijr(g)) for g in (gen_id(1, 1, 1),
                                              gen_id(1, 2, 1))}


def _monomial(cls, key):
    """The basis element of ``key`` made by the arithmetic: letters
    multiplied, legs tensored, symbols multiplied."""
    if cls is NCPoly:
        p = NCPoly.one()
        for g in key:
            p = p * _GEN[g]
        return p
    if cls is TensorNCPoly:
        return TensorNCPoly.of(_monomial(NCPoly, key[0]),
                               _monomial(NCPoly, key[1]))
    p = CPoly.one()
    for r in key:
        p = p * CPoly.symbol(r)
    return p


# fresh Fraction objects, so a stored value is shared only through the
# coefficient table
_FRESH = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 6))


def _built(data, cls):
    """(element, reference terms): a random element summed from constant
    multiples of monomials, and its terms as a plain dict."""
    terms = data.draw(st.dictionaries(_KEYS[cls], _FRESH, max_size=4))
    p = cls.zero()
    for key, c in terms.items():
        p = p + cls.constant(c) * _monomial(cls, key)
    return p, terms


@_TERM_CLASSES
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_shared_arithmetic_matches_fraction_reference(cls, data):
    """Sums and products of elements made by the arithmetic equal the
    Fraction-only loops of rational_reference in value and term order,
    and hold only coefficient-table members."""
    add, mul = _REF[cls]
    (a, ra), (b, rb) = _built(data, cls), _built(data, cls)
    c = data.draw(_FRESH)
    rc = {cls.UNIT: c}
    results = [(a, ra), (a + b, add(ra, rb)), (a - b, add(ra, terms_neg(rb))),
               (-a, terms_neg(ra)), (a * b, mul(ra, rb)),
               (b * a, mul(rb, ra)), (a * c, mul(ra, rc)),
               (c * a, mul(rc, ra)), (a + c, add(ra, rc)),
               (c - a, add(rc, terms_neg(ra)))]
    for got, want in results:
        assert _same(cls, got, want)
        assert all(map(is_member, got.terms.values()))


_INEXACT = pytest.mark.parametrize(
    "c", [0.1, np.float64(0.5), Decimal("0.1")],
    ids=["float", "numpy-float", "Decimal"])


class TestExactScalars:
    """A scalar is an int, a Fraction or a numpy integer; an inexact one
    is refused, never rounded to a binary fraction."""

    @_INEXACT
    @_TERM_CLASSES
    def test_constant_refuses_inexact(self, cls, c):
        with pytest.raises(TypeError):
            cls.constant(c)

    @_INEXACT
    @pytest.mark.parametrize("op", [
        operator.add, lambda p, c: c + p, operator.sub, lambda p, c: c - p],
        ids=["p+c", "c+p", "p-c", "c-p"])
    def test_sum_refuses_inexact(self, c, op):
        with pytest.raises(TypeError):
            op(NCPoly.gen(1, 2, 1) + 1, c)

    @_INEXACT
    def test_normal_form_refuses_inexact(self, sl2_k2, c):
        with pytest.raises(TypeError):
            normal_form(sl2_k2[1], c)

    @pytest.mark.parametrize("c", [3, True, F(6, 2), np.int64(3),
                                   np.int8(3)],
                             ids=["int", "bool", "Fraction", "int64", "int8"])
    def test_exact_scalars_are_table_fractions(self, sl2_k2, c):
        p = NCPoly.gen(1, 2, 1)
        v = F(int(c))
        made = [NCPoly.constant(c), p + c, c - p, p * c, c * p,
                normal_form(sl2_k2[1], c)]
        assert [q.constant_coeff() for q in made] == [v, v, v, 0, 0, v]
        ks = _coeffs(*made)
        assert {abs(k) for k in ks} <= {ONE, v}
        assert all(is_member(k) and type(k.numerator) is int for k in ks)
