"""Free algebra layer: noncommutative polynomials, generator matrix
series, coproduct/counit/antipode, and the scaling substitution."""

from fractions import Fraction

import numpy as np
import pytest

from yangkit.exact import TruncSeries, frac_matmul
from yangkit.freealg import (
    MatSeries,
    NCPoly,
    TensorNCPoly,
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
from yangkit.liealg import build_lie

F = Fraction


def is_identity_mat(A):
    N = A.N
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
        assert NCPoly.from_json(p.to_json()) == p


class TestMatSeries:
    def test_inverse(self):
        T = t_matrix(3, 3)
        assert is_identity_mat(mat_mul(T, mat_inverse(T)))
        assert is_identity_mat(mat_mul(mat_inverse(T), T))

    def test_shift_additive(self):
        T = t_matrix(2, 3)
        lhs = mat_shift(mat_shift(T, F(1)), F(2))
        rhs = mat_shift(T, F(3))
        for k in range(4):
            assert (lhs.coeffs[k] == rhs.coeffs[k]).all()

    def test_transpose_involution(self):
        data = build_lie("so", 3)
        T = t_matrix(3, 2)
        TT = transpose_t(transpose_t(T, data), data)
        for k in range(3):
            assert (TT.coeffs[k] == T.coeffs[k]).all()

    def test_frac_matmul_entry_without_terms_is_ncpoly_zero(self):
        a, b, z = NCPoly.gen(1, 1, 1), NCPoly.gen(1, 2, 1), NCPoly.zero()
        x = np.array([[a, z], [z, b]], dtype=object)
        y = np.array([[b, a], [z, z]], dtype=object)
        out = frac_matmul(x, y)
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
                            antipode_poly(NCPoly.from_word(w1), table)
                            * NCPoly.from_word(w2))
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
