"""Free algebra layer: noncommutative polynomials, generator matrix
series, coproduct/counit/antipode, and the scaling substitution."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from yangkit.exact import TruncSeries, series_shift
from yangkit.freealg import (
    NCPoly,
    NonInvertible,
    TensorNCPoly,
    antipode_poly,
    antipode_table,
    coproduct_poly,
    counit_poly,
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
        got = coproduct_poly(p, N)
        want = (TensorNCPoly.of(p, NCPoly.one())
                + TensorNCPoly.of(NCPoly.one(), p))
        for k in range(1, N + 1):
            for a in range(1, r):
                want = want + TensorNCPoly.of(NCPoly.gen(1, k, a),
                                              NCPoly.gen(k, 2, r - a))
        assert got == want

    def test_counit(self):
        assert counit_poly(NCPoly.gen(1, 2, 1)) == 0
        assert counit_poly(NCPoly.constant(F(7, 2))) == F(7, 2)
        assert counit_poly(
            NCPoly.gen(1, 1, 1) * NCPoly.gen(2, 2, 1) + 3) == 3

    def test_antipode_axiom_on_generators(self):
        # m (S (x) id) Delta (t_ij^(r)) = 0 for r >= 1
        N, K = 2, 3
        table = antipode_table(N, K)
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                for r in range(1, K + 1):
                    acc = NCPoly.zero()
                    cop = coproduct_poly(NCPoly.gen(i, j, r), N)
                    for (w1, w2), c in cop.terms.items():
                        acc = acc + c * (
                            antipode_poly(ncpoly_from_word(w1), table)
                            * ncpoly_from_word(w2))
                    assert acc == NCPoly.zero()

    def test_antipode_antihomomorphism(self):
        table = antipode_table(2, 4)
        p = NCPoly.gen(1, 2, 1)
        q = NCPoly.gen(2, 1, 2)
        assert antipode_poly(p * q, table) == \
            antipode_poly(q, table) * antipode_poly(p, table)


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
