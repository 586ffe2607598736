"""Free algebra layer: noncommutative polynomials, generator matrix
series, and the structure maps as generator tables: coproduct, counit,
antipode and the scaling substitution."""

import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from yangkit import freealg
from yangkit.exact import TruncSeries, series_mul, series_shift
from yangkit.freealg import (
    NCPoly,
    NonInvertible,
    TensorNCPoly,
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
from yangkit.yangian import CPoly
import rational_reference
from rational_reference import ncpoly_from_json, ncpoly_from_word

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


# Reference arithmetic on plain {key: Fraction} dicts: the loops that
# NCPoly, TensorNCPoly and CPoly each carried before they shared one term
# algebra.  NCPoly and TensorNCPoly pop a key that cancels and append a
# new key at the end, so their key order is compared too; CPoly filtered
# zeros at the end and every CPoly reader sorts, so only its terms are.

def _ref_add(a, b):
    out = dict(a)
    for w, c in b.items():
        v = out.get(w, F(0)) + c
        if v:
            out[w] = v
        else:
            out.pop(w, None)
    return out


def _ref_mul(a, b, join):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = join(w1, w2)
            v = out.get(w, F(0)) + c1 * c2
            if v:
                out[w] = v
            else:
                out.pop(w, None)
    return out


def _ref_cpoly_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, F(0)) + c
    return {m: c for m, c in out.items() if c}


def _ref_cpoly_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(sorted(m1 + m2))
            out[m] = out.get(m, F(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _neg(a):
    return {w: -c for w, c in a.items()}


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
    NCPoly: (_ref_add, lambda a, b: _ref_mul(a, b, lambda x, y: x + y)),
    TensorNCPoly: (_ref_add, lambda a, b: _ref_mul(
        a, b, lambda x, y: (x[0] + y[0], x[1] + y[1]))),
    CPoly: (_ref_cpoly_add, _ref_cpoly_mul),
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
        assert _same(cls, a - b, add(a.terms, _neg(b.terms)))
        assert _same(cls, -a, _neg(a.terms))
        assert _same(cls, a * b, mul(a.terms, b.terms))
        assert _same(cls, a + c, add(a.terms, cd))
        assert _same(cls, c + a, add(a.terms, cd))
        assert _same(cls, a - c, add(a.terms, _neg(cd)))
        assert _same(cls, c * a, mul(cd, a.terms))
        assert _same(cls, a * c, mul(a.terms, cd))
        assert _same(cls, c - a, add(cd, _neg(a.terms)))

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
