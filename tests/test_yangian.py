"""Yangian layer: relation generation, bounded ideal closures, PBW slice
dimensions, central series, quantum determinant, Hopf and fixed-point
verification, and evaluation modules."""

import copy
import hashlib
import json
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rational_reference
from rational_reference import rmat_entries
from yangkit import freealg, yangian
from yangkit.exact import TruncSeries, series_mul, series_shift
from yangkit.freealg import (NCPoly, TensorNCPoly, gen_id, gen_ijr,
                             mat_inverse, t_matrix, transpose_t, word_sum_r)
from yangkit.liealg import (_INT_LIMIT, int_to_frac_array, twisted_rep,
                            vector_rep)
from yangkit.rmatrix import RMat, closed_form_r
from yangkit.yangian import (
    BoundsTooLarge,
    EvalModule,
    OutOfBounds,
    WrongFamily,
    central_monomial_certificate,
    closure,
    closure_for_query,
    is_in_ideal,
    normal_form,
    pbw_count,
    qdet,
    rtt_relations,
    slice_dimension,
    symmetry_series,
    tensor_normal_form,
    verify_fixed_point,
    verify_hopf,
    verify_low_order_structure,
    y_from_z,
    z_series,
)

F = Fraction


@pytest.fixture(scope="module")
def sl2():
    return rtt_relations("sl", 2, 3)


@pytest.fixture(scope="module")
def sl2_cl(sl2):
    return closure(sl2, 3, 4)


@pytest.fixture(scope="module")
def sl2_cs(sl2, sl2_cl):
    return z_series(sl2, sl2_cl)


@pytest.fixture(scope="module")
def so3():
    return rtt_relations("so", 3, 3)


@pytest.fixture(scope="module")
def so3_cl(so3):
    return closure(so3, 4, 4)


@pytest.fixture(scope="module")
def so3_cs(so3, so3_cl):
    return z_series(so3, so3_cl)


class TestRelations:
    def test_counts_deterministic(self, sl2):
        assert len(sl2.relations) == 282
        again = rtt_relations("sl", 2, 3)
        assert [sorted(p.terms.items()) for p in again.relations] == \
            [sorted(p.terms.items()) for p in sl2.relations]

    def test_bracket_oracle(self, sl2, sl2_cl):
        # [t_11^(1), t_12^(1)] = t_12^(1) in the algebra
        a = NCPoly.gen(1, 1, 1)
        b = NCPoly.gen(1, 2, 1)
        assert is_in_ideal(sl2_cl, a * b - b * a - b)

    def test_generator_not_in_ideal(self, sl2_cl):
        assert not is_in_ideal(sl2_cl, NCPoly.gen(1, 2, 1))

    def test_out_of_bounds_raises(self, sl2_cl):
        with pytest.raises(OutOfBounds):
            normal_form(sl2_cl, NCPoly.gen(1, 1, 5))

    def test_size_guard(self, sl2):
        with pytest.raises(BoundsTooLarge):
            closure(sl2, 12, 12)


class TestCheckMembers:
    def test_policy(self, sl2_cl, monkeypatch):
        calls = []
        real = yangian.normal_form

        def spy(cl, p):
            calls.append(p)
            return real(cl, p)
        monkeypatch.setattr(yangian, "normal_form", spy)
        a = NCPoly.gen(1, 1, 1)
        b = NCPoly.gen(1, 2, 1)
        items = [("long", a * a * a * a),          # length 4 > L = 3
                 ("high", NCPoly.gen(1, 1, 5)),    # sum_r 5 > R_ord = 4
                 ("generator", b),
                 ("zero", a - a),
                 ("bracket", a * b - b * a - b)]
        tested, skipped, failures = yangian._check_members(sl2_cl, items)
        assert tested == ["generator", "zero", "bracket"]
        assert skipped == ["long", "high"]
        assert failures == ["generator"]
        # the zero item is decided without a reduction
        assert calls == [b, a * b - b * a - b]

    def test_tensor_policy(self, sl2_cl, monkeypatch):
        # the same policy on tensors: an item is skipped when either leg
        # leaves the bounds, and reduced leg by leg through the module's
        # normal_form as bound at call time
        calls = []
        real = yangian.normal_form

        def spy(cl, p):
            calls.append(p)
            return real(cl, p)
        monkeypatch.setattr(yangian, "normal_form", spy)
        a = NCPoly.gen(1, 1, 1)
        b = NCPoly.gen(1, 2, 1)
        one = NCPoly.one()
        of = TensorNCPoly.of
        items = [("long_right", of(one, a * a * a * a)),
                 ("high_left", of(NCPoly.gen(1, 1, 5), b)),
                 ("generator", of(b, one)),
                 ("zero", of(a - a, b)),
                 ("bracket", of(one, a * b - b * a - b))]
        tested, skipped, failures = yangian._check_members(sl2_cl, items)
        assert tested == ["generator", "zero", "bracket"]
        assert skipped == ["long_right", "high_left"]
        assert failures == ["generator"]
        # one reduction per distinct right word, then one per distinct left
        # word: 1 + 1 for the generator, 3 + 1 for the bracket
        assert len(calls) == 6


class TestTensorNormalForm:
    """tensor_normal_form reduces modulo (ideal x A + A x ideal): an
    ideal element on either leg vanishes, whatever the other leg."""

    def test_ideal_on_either_leg(self, sl2, sl2_cl):
        rel = next(p for p in sl2.relations if yangian._fits(sl2_cl, p))
        t, one = NCPoly.gen(1, 2, 1), NCPoly.one()
        of = TensorNCPoly.of
        assert not tensor_normal_form(sl2_cl, of(rel, one) + of(t, rel))
        for tp in (of(rel, one), of(one, rel), of(rel, t), of(t, rel)):
            assert not tensor_normal_form(sl2_cl, tp)
        tt = tensor_normal_form(sl2_cl, of(t, t))
        assert tt
        assert tensor_normal_form(
            sl2_cl, of(t, t) + of(t, rel) + of(rel, one)) == tt


class TestPBW:
    @pytest.mark.parametrize("L,R,expected", [(2, 2, 19), (2, 3, 39)])
    def test_sl2_extended(self, sl2, L, R, expected):
        lie, rep = sl2.lie, vector_rep(sl2.lie)
        cl = closure_for_query(sl2, L, R)
        assert pbw_count(lie, rep, L, R) == expected
        assert slice_dimension(cl, L, R) == expected

    @pytest.mark.parametrize("L,R,expected", [(2, 2, 13), (2, 3, 25)])
    def test_sl2_quotient(self, sl2, L, R, expected):
        lie, rep = sl2.lie, vector_rep(sl2.lie)
        cl = closure_for_query(sl2, L, R, quotient=True)
        assert pbw_count(lie, rep, L, R, quotient=True) == expected
        assert slice_dimension(cl, L, R) == expected

    def test_count_formula(self, sl2):
        # L=1: 1 + D * R_ord multisets of size <= 1
        lie, rep = sl2.lie, vector_rep(sl2.lie)
        assert pbw_count(lie, rep, 1, 3) == 1 + 3 * 4
        assert pbw_count(lie, rep, 1, 3, quotient=True) == 1 + 3 * 3


def _basis_digest(cl):
    return hashlib.sha256(repr(
        [(p, list(row.items())) for p, row in cl.reducer.basis.items()]
    ).encode()).hexdigest()


_slow = pytest.mark.slow


@lru_cache(maxsize=None)
def _presentation(family, N, K):
    return rtt_relations(family, N, K)


@lru_cache(maxsize=None)
def _query_closure(family, N, K, L, R, quotient):
    return closure_for_query(_presentation(family, N, K), L, R,
                             quotient=quotient)


@pytest.mark.parametrize("family,N,L,R,quotient,digest", [
    ("sl", 2, 3, 4, False, "938c92b8346c12245e4c80e22ca9616a"
                           "e4526dd8a8328fcc6af2b03e3917c8ac"),
    ("sl", 2, 3, 4, True, "5521a523ddf27dbee236479a81a800a0"
                          "cdce462470992d5d42868e58ff7a4526"),
    ("sl", 2, 4, 5, False, "25110cbfea86112fdfe3079acd60e0e5"
                           "cef60a0c93c279aabb1e0d6ac00fc77d"),
    pytest.param("sl", 2, 4, 5, True, "408cabf5688a8d03a31ec1b6f5a2a233"
                                      "6f2477f878b777c37fd30f766d2e6acb",
                 marks=_slow),
    ("so", 3, 2, 3, False, "a0a030bf8e093e866b7e61e630762901"
                           "683eb2d032ff2245449e5ea345df4bf7"),
    ("so", 3, 2, 3, True, "6828c98850a04d1b40ca8d2817406019"
                          "5d3f2ac5bddb7b259a78bca146da2c24"),
    pytest.param("sp", 4, 2, 3, False, "d73f5ead3e7e06f494f215d348932bda"
                                       "e1f7d4f6c9472bf7cf7175045f35a9b6",
                 marks=_slow),
    pytest.param("sp", 4, 2, 3, True, "c37c55545de27272734dc612b98a7002"
                                      "54bd1a107f9a6ecc4e1f91d75f9ab6f7",
                 marks=_slow),
], ids=["sl2-3-4-ext", "sl2-3-4-quot", "sl2-4-5-ext", "sl2-4-5-quot",
        "so3-2-3-ext", "so3-2-3-quot", "sp4-2-3-ext", "sp4-2-3-quot"])
def test_closure_basis_regression(family, N, L, R, quotient, digest):
    """The normalized closure basis, key order and entry order included,
    is pinned at K = 3: a change to the reducer's arithmetic must not
    change the basis it returns."""
    cl = _query_closure(family, N, 3, L, R, quotient)
    assert _basis_digest(cl) == digest


@pytest.mark.parametrize("family,N,K,L,R,quotient", [
    ("sl", 2, 3, 3, 4, False),
    ("sl", 2, 3, 3, 4, True),
    ("sl", 2, 3, 4, 5, False),
    ("so", 3, 3, 2, 3, False),
    ("so", 3, 3, 2, 3, True),
    ("sp", 4, 3, 1, 2, False),
    ("sp", 4, 3, 1, 2, True),
    # internal (6,6): the longest held rows a back-substitution edits
    pytest.param("sl", 2, 3, 4, 5, True, marks=_slow),
    pytest.param("sl", 2, 4, 5, 5, True, marks=_slow),
], ids=["sl2-3-4-ext", "sl2-3-4-quot", "sl2-4-5-ext", "so3-2-3-ext",
        "so3-2-3-quot", "sp4-1-2-ext", "sp4-1-2-quot", "sl2-4-5-quot",
        "sl2-K4-5-5-quot"])
def test_slice_dimension_matches_reference(family, N, K, L, R, quotient):
    """The per-column grade and inside/outside lists give the dimension
    that decoding every entry's word gives, at every sub-slice."""
    cl = _query_closure(family, N, K, L, R, quotient)
    for length in range(L + 1):
        for sum_r in range(R + 1):
            assert slice_dimension(cl, length, sum_r) == \
                rational_reference.slice_dimension(cl, length, sum_r)


@pytest.mark.parametrize("N,L,R", [
    (2, 1, 2), (2, 3, 4), (2, 5, 5), (3, 3, 3), (4, 2, 3), (2, 4, 6),
    (3, 2, 5), (3, 4, 4), (4, 3, 3), (7, 1, 3), (7, 2, 4),
    # the 125,000 columns of a G2 closure at (3, 3)
    (7, 3, 3),
])
def test_universe_columns(N, L, R):
    """Each column's length and sum_r are its word's, the words are the
    whole bounded slice, and the filtration grade sum_r - len does not
    increase with the column id, which slice_dimension relies on; class
    by class in column order, lex inside a class, the columns are those
    of generating every word and sorting."""
    out = yangian._universe(N, L, R)
    assert out == rational_reference.universe(N, L, R)
    words, col_sum_r, col_len, letters = out
    assert col_len == [len(w) for w in words]
    assert col_sum_r == [word_sum_r(w) for w in words]
    assert len(set(words)) == len(words) == yangian._count_words(N, L, R)
    assert max(col_len) == L and max(col_sum_r) == R
    grade = [s - n for s, n in zip(col_sum_r, col_len)]
    assert all(a >= b for a, b in zip(grade, grade[1:]))
    # letters ascend in r, as closure's order test assumes
    assert [r for _, r in letters] == sorted(r for _, r in letters)
    assert all(gen_ijr(g)[2] == r for g, r in letters)


def test_closure_keeps_universe_columns(sl2_cl):
    words, col_sum_r, col_len, _ = yangian._universe(2, sl2_cl.L,
                                                     sl2_cl.R_ord)
    assert sl2_cl.id2word == words
    assert sl2_cl.col_sum_r == col_sum_r
    assert sl2_cl.col_len == col_len


def _words_shared(words):
    """Equal words among ``words`` are one object, the word table's."""
    words = list(words)
    return (len({id(w) for w in words}) == len(set(words))
            and all(freealg._WORDS.get(w) is w for w in words))


def _relation_words(pres):
    return [w for p in pres.relations for w in p.terms]


def _closure_interns_no_universe_word(pres):
    """An extended closure adds no word to the word table, and no word of
    a quotient closure's universe is the table's tuple (the empty word is
    one tuple in CPython anyway)."""
    before = len(freealg._WORDS)
    closure(pres, 3, 3)
    if len(freealg._WORDS) != before:
        return False
    cl = closure(pres, 3, 3, quotient_mode=True)
    return not any(freealg._WORDS.get(w) is w for w in cl.id2word if w)


class TestHashConsedWords:
    """rtt_relations interns its words in freealg's word table, so the
    relations share them with each other and with NCPoly products; a
    closure interns none of its bounded word universe."""

    def test_relations_share_words(self, sl2):
        a, b = NCPoly.gen(1, 1, 1), NCPoly.gen(1, 2, 2)
        made = list((a * b + b * a).terms)
        assert set(made) <= set(_relation_words(sl2))
        assert _words_shared(_relation_words(sl2) + made)

    def test_planted_uninterned_relations_fail(self, monkeypatch):
        monkeypatch.setattr(yangian, "intern_word", lambda w: w)
        assert not _words_shared(_relation_words(rtt_relations("sl", 2, 2)))

    def test_closure_interns_no_universe_word(self, sl2):
        assert _closure_interns_no_universe_word(sl2)

    def test_planted_interned_universe_fails(self, sl2, monkeypatch):
        universe = yangian._universe

        def interned(N, L, R_ord):
            words, *rest = universe(N, L, R_ord)
            return ([freealg.intern_word(w) for w in words], *rest)

        monkeypatch.setattr(yangian, "_universe", interned)
        assert not _closure_interns_no_universe_word(sl2)


@pytest.mark.parametrize("family,N,K", [("sl", 2, 3), ("sl", 2, 4),
                                         ("so", 3, 3), ("sp", 4, 3)])
def test_relation_bounds_are_per_relation(family, N, K):
    """The presentation holds each relation's (max length, max order),
    read here off the decoded words, beside a frozen relation tuple."""
    pres = _presentation(family, N, K)
    assert type(pres.relations) is tuple
    assert pres.relation_bounds == tuple(
        (max(len(w) for w in p.terms),
         max(sum(gen_ijr(g)[2] for g in w) for w in p.terms))
        for p in pres.relations)


@pytest.mark.parametrize("family,N,order", [("sl", 2, 5), ("so", 3, 4),
                                            ("sp", 4, 3)])
def test_z_coefficients_within_their_order(family, N, order):
    """Each entry of the order-r coefficient of Z(u) has words of total
    order <= r, hence of length <= r, which the quotient closure's seed
    filter relies on; from r = 2 on some entry reaches both."""
    Z = yangian._z_matrix(_presentation(family, N, 3), order)
    for r in range(1, order + 1):
        entries = list(Z.coeffs[r].flat)
        assert all(p.max_len() <= r and p.max_sum_r() <= r for p in entries)
        if r >= 2:
            assert max(p.max_len() for p in entries) == r
            assert max(p.max_sum_r() for p in entries) == r


def _term_lists(A):
    """Every entry of every coefficient of a matrix series, as its list
    of (word, coefficient) pairs: term order included."""
    return [[list(p.terms.items()) for p in m.flat] for m in A.coeffs]


def _shifts_match(family, N, K, reference):
    """Whether series_shift on whole coefficient arrays equals
    ``reference`` on T(u), T(u)^{-1}, Z(u) and, for so/sp, the transpose
    T^t(u), at five shifts."""
    pres = _presentation(family, N, K)
    T = t_matrix(N, K)
    series = [T, mat_inverse(T), yangian._z_matrix(pres, K)]
    if family != "sl":
        series.append(transpose_t(T, pres.lie))
    shifts = [F(1), F(-1), F(3, 2), F(-7, 3), pres.casimir.c_g / 2]
    return all(_term_lists(series_shift(A, c)) == _term_lists(reference(A, c))
               for A in series for c in shifts)


@pytest.mark.parametrize("family,N,K", [("sl", 2, 4), ("so", 3, 3),
                                         ("sp", 4, 3)])
def test_matrix_shift_matches_entrywise_reference(family, N, K):
    assert _shifts_match(family, N, K, rational_reference.mat_shift)


def test_matrix_shift_check_catches_a_misshifted_entry():
    """A reference that shifts entry (1, 1) by c + 1 fails the check."""
    def planted(A, c):
        good = rational_reference.mat_shift(A, c).coeffs
        bad = rational_reference.mat_shift(A, c + 1).coeffs
        coeffs = [m.copy() for m in good]
        for m, b in zip(coeffs, bad):
            m[0, 0] = b[0, 0]
        return TruncSeries(coeffs)

    assert not _shifts_match("sl", 2, 4, planted)


@pytest.mark.parametrize("family,N,L,R,rank,digest", [
    ("sl", 2, 2, 3, 31, "2004f8390fe24e4c42825e0a497213ef"
                        "9caf4a3ab7b52cd3c1b2f3c7f81c2af4"),
    ("sl", 2, 2, 4, 57, "32fbd4799071c84492ad252bdc847bdf"
                        "4c0416c1dcf831d63d623a2b10a69287"),
    ("sl", 2, 3, 5, 591, "fcadbaedcbaf584a4d86e87fd3535e54"
                         "c880c83a3cf8255f54f9ce059b19af64"),
    ("so", 3, 2, 4, 402, "77886f6e9450b486ed0940f908e0763a"
                         "cd034ad0438ac72581b23acaeccfc1bc"),
])
def test_quotient_closure_below_its_order(family, N, L, R, rank, digest):
    """A quotient closure whose length bound is below its order bound
    keeps a Z(u) seed of order r <= L as it is and any other by its
    length; pinned where every seed word's order was decoded instead."""
    cl = closure(_presentation(family, N, 3), L, R, quotient_mode=True)
    assert cl.rank == rank
    assert _basis_digest(cl) == digest


@pytest.mark.parametrize("family,N,K,degree,count,digest", [
    ("sl", 2, 2, 1, 160,
     "347dead67ffa9527f17cd038cd922b80"
     "fba4c8b6d41995fd7cd9e17c4050ab6a"),
    ("sl", 2, 3, 1, 282,
     "c9aba954bad6333441337a8bf69f4008"
     "a45b7bef2bf509bc623850ad440b795a"),
    ("sl", 2, 4, 1, 436,
     "bf8b7c4e4970d4d319094106ac4beeee"
     "42d3c1100702cf408e55935f3a3f38d8"),
    ("sl", 3, 2, 1, 810,
     "24b8463a91defa26415427084c4789a4"
     "d00fef91abb9b5c8a7d20a5a7cb8cf8d"),
    ("sl", 3, 3, 1, 1422,
     "52e446cc7efe8a92801bb12bc0ed285f"
     "b7b7bf5c08ead0046f7f69657b7b9125"),
    ("sl", 3, 4, 1, 2196,
     "379b333e114248a8e6b99e5685e3b89e"
     "497c9cd45fdd756b4042f77913493a09"),
    ("so", 3, 3, 2, 1967,
     "395923952c0c944120267ef17e7e2c36"
     "8d895a04dfab59639b2feb89513906cf"),
    pytest.param("so", 4, 3, 2, 6232,
                 "eb61e7ed19da427da5462c28fd4d41f7"
                 "0daf0b98c25423dbe21a2e8d7517dec8",
                 marks=_slow),
    pytest.param("sp", 4, 3, 2, 6232,
                 "c76244e9232e4384ea924859dbbb1e60"
                 "7af87b7da77fca7d3386bdefb8a2c3ce",
                 marks=_slow),
    pytest.param("so", 5, 2, 2, 9634,
                 "c10f82d9948ff5c7f304ad7b8e9469ac"
                 "a42929a8148cb38af6c420f1dba8ce17",
                 marks=_slow),
], ids=["sl2-K2", "sl2-K3", "sl2-K4", "sl3-K2", "sl3-K3", "sl3-K4",
        "so3-K3", "so4-K3", "sp4-K3", "so5-K2"])
def test_relation_list_regression(family, N, K, degree, count, digest):
    """The relation list, polynomial and term order included, is pinned.
    rtt_relations reads the integer matrices C_m of D(w) R(w) = s sum_m
    C_m w^m and the clearing degree d = deg D from the closed-form
    R-matrix, so a change to the R-matrix representation must not change
    a relation."""
    pres = rtt_relations(family, N, K)
    assert pres.clear_degree == degree
    assert len(pres.relations) == count
    assert hashlib.sha256(repr(
        [list(p.terms.items()) for p in pres.relations]
    ).encode()).hexdigest() == digest


def _reference_relations(family, N, K):
    """Reference relation list from dense NCPoly matrices: N^2 x N^2
    tables of the products T1^(x) T2^(y) and T2^(y) T1^(x), each
    multiplied by the Fraction matrix A_m entry by entry and summed as
    NCPoly arrays."""
    R = closed_form_r(family, N)
    # Fraction matrices A_m with D(u) R(u) = sum_m A_m u^m
    A = [int_to_frac_array(c, R.scale) for c in R.coeffs]
    d = len(R.den) - 1
    nn = N * N
    Tc = t_matrix(N, K + 1 + d).coeffs

    def lr_product(x, y, reverse):
        out = np.empty((nn, nn), dtype=object)
        for i in range(N):
            for j in range(N):
                for k in range(N):
                    for l in range(N):
                        p, q = Tc[x][i, j], Tc[y][k, l]
                        out[i * N + k, j * N + l] = q * p if reverse else p * q
        return out

    def frac_times_poly_mat(F_, G, right):
        out = np.empty((nn, nn), dtype=object)
        for i in range(nn):
            for j in range(nn):
                acc = None
                for k in range(nn):
                    c = F_[i, k] if not right else F_[k, j]
                    g = G[k, j] if not right else G[i, k]
                    if c and g:
                        t = c * g
                        acc = t if acc is None else acc + t
                out[i, j] = acc if acc is not None else NCPoly.zero()
        return out

    seen = set()
    relations = []
    for a in range(K + 2):
        for b in range(K + 2):
            diff = None
            for m, Am in enumerate(A):
                for s in range(m + 1):
                    c = F(comb(m, s) * (-1) ** s)
                    x, y = a + m - s, b + s
                    term = (frac_times_poly_mat(Am, lr_product(x, y, False),
                                                False)
                            - frac_times_poly_mat(Am, lr_product(x, y, True),
                                                  True))
                    if c != 1:
                        term = np.array([[c * t for t in row]
                                         for row in term], dtype=object)
                    diff = term if diff is None else diff + term
            for p in diff.flat:
                if not p:
                    continue
                p = yangian._canon_poly(p)
                key = tuple(sorted(p.terms.items()))
                if key not in seen:
                    seen.add(key)
                    relations.append(p)
    relations.sort(key=yangian._poly_sort_key)
    return relations


@pytest.mark.parametrize("family,N,K", [("sl", 2, 2), ("sl", 2, 3),
                                        ("sl", 3, 2), ("so", 3, 2)])
def test_relations_match_reference(family, N, K):
    """Same polynomials, same list order and same term order as the
    NCPoly-matrix construction."""
    got = rtt_relations(family, N, K).relations
    want = _reference_relations(family, N, K)
    assert [list(p.terms.items()) for p in got] == \
        [list(p.terms.items()) for p in want]


class TestCentralSeries:
    def test_z1_zero_and_centrality(self, sl2_cs):
        assert sl2_cs.report["status"] == "pass"
        assert sl2_cs.report["details"]["z1_zero_free_algebra"]
        assert sl2_cs.z[1] == NCPoly.zero()

    def test_y_recursion(self, sl2_cs):
        cs = y_from_z(sl2_cs, 5)
        assert cs.report["details"]["y_recursion_verified_to"] == 5
        # y_1 = (2/c_g) z_2 with c_g = 4
        assert cs.y[1].terms == {(2,): F(1, 2)}

    def test_monomial_certificate(self, sl2_cs):
        rep = central_monomial_certificate(sl2_cs)
        assert rep["status"] == "pass"
        assert rep["details"]["rank"] == 6

    def test_series_names_its_closure(self, sl2, sl2_cl, sl2_cs):
        assert sl2_cs.cl is sl2_cl
        assert sl2_cs.c_g == sl2.casimir.c_g

    def test_closure_of_another_presentation_raises(self, sl2, so3_cl):
        with pytest.raises(ValueError, match="another presentation"):
            z_series(sl2, so3_cl)


class TestQdet:
    def test_formula_n2(self, sl2_cs):
        qd, report = qdet(sl2_cs)
        assert report["status"] == "pass"
        T = t_matrix(2, 3)
        Tm = rational_reference.mat_shift(T, F(-1))

        def entry(A, i, j):
            return TruncSeries([c[i, j] for c in A.coeffs])

        oracle = (series_mul(entry(T, 0, 0), entry(Tm, 1, 1))
                  - series_mul(entry(T, 1, 0), entry(Tm, 0, 1)))
        for r in range(4):
            assert qd.coeffs[r] == oracle.coeffs[r]
        assert qd.coeffs[1] == NCPoly.gen(1, 1, 1) + NCPoly.gen(2, 2, 1)

    def test_wrong_family(self, so3_cs):
        with pytest.raises(WrongFamily):
            qdet(so3_cs)


class TestSymmetry:
    def test_so3(self, so3_cs):
        _, report = symmetry_series(so3_cs)
        assert report["status"] == "pass"
        assert not report["details"]["scalar_failures"]
        assert not report["details"]["two_sided_failures"]

    def test_wrong_family(self, sl2_cs):
        with pytest.raises(WrongFamily):
            symmetry_series(sl2_cs)


class TestHopfAndFixedPoint:
    def test_hopf(self, sl2_cs):
        report = verify_hopf(sl2_cs)
        assert report["status"] == "pass"
        assert report["details"]["grouplike_orders"] == [1, 2, 3]

    def test_fixed_point(self, sl2_cs):
        f = TruncSeries([F(1), F(1)])
        report = verify_fixed_point(sl2_cs, f)
        assert report["status"] == "pass"
        assert report["details"]["fixed_orders"] == [1, 2]
        assert report["details"]["shift_compatible"]

    def test_fixed_point_requires_unit_constant(self, sl2_cs):
        with pytest.raises(ValueError):
            verify_fixed_point(sl2_cs, TruncSeries([F(2), F(1)]))


def _planted_z(cs):
    """A copy of cs whose z_2 is off by t_12^(2); the report is copied
    because y_from_z writes into it, so the fixture's cs stays as it is."""
    z = list(cs.z)
    z[2] = z[2] + NCPoly.gen(1, 2, 2)
    return yangian.CentralSeries(z, cs.zmat, cs.cl, copy.deepcopy(cs.report))


class TestPlantedZ:
    """Each check that reads the run's z-series fails at order 2 when
    z_2 is wrong."""

    def test_hopf(self, sl2_cs):
        report = verify_hopf(_planted_z(sl2_cs))
        assert report["status"] == "fail"
        assert report["details"]["grouplike_failures"] == [2]
        assert report["details"]["antipode_failures"] == [2]

    def test_qdet(self, sl2_cs):
        _, report = qdet(_planted_z(sl2_cs))
        assert report["status"] == "fail"
        assert report["details"]["z_match_failures"] == [2]

    def test_symmetry_series(self, so3_cs):
        _, report = symmetry_series(_planted_z(so3_cs))
        assert report["status"] == "fail"
        assert report["details"]["z_match_failures"] == [2]

    def test_fixed_point(self, sl2_cs):
        f = TruncSeries([F(1), F(1)])
        report = verify_fixed_point(_planted_z(sl2_cs), f)
        assert report["status"] == "fail"
        assert report["details"]["z_scaling_failures"] == [2]


class TestLowOrder:
    def test_sl2(self, sl2, sl2_cs):
        qcl = closure_for_query(sl2, 3, 3, quotient=True)
        report = verify_low_order_structure(sl2_cs, quotient_cl=qcl)
        assert report["status"] == "pass"
        assert not report["details"]["embedding_bracket_failures"]
        assert report["details"]["b_table_all_zero"]
        gen3 = report["details"]["order3_generated_by_low_orders"]
        assert gen3 and all(flag for _, _, flag in gen3)

    def test_quotient_closure_of_another_presentation_raises(self, sl2_cs,
                                                             so3):
        qcl = closure_for_query(so3, 2, 3, quotient=True)
        with pytest.raises(ValueError, match="another presentation"):
            verify_low_order_structure(sl2_cs, quotient_cl=qcl)


@pytest.mark.parametrize("family,N,query,internal,flag", [
    ("so", 3, (2, 3), (4, 4), True),
    # bound-relative: sl3 reads False at internal bounds (3, 3) and True
    # at (4, 4)
    ("sl", 3, (2, 2), (3, 3), False),
    pytest.param("sl", 3, (3, 3), (4, 4), True, marks=_slow),
])
def test_low_order_flags(family, N, query, internal, flag):
    """The order-3 generation flags read off the quotient closure's own
    words of letter order <= 2, pinned with the internal bounds they
    hold at."""
    pres = _presentation(family, N, 3)
    cl = closure(pres, 2, 3)
    qcl = _query_closure(family, N, 3, *query, True)
    assert qcl.bounds == internal
    report = verify_low_order_structure(z_series(pres, cl),
                                        quotient_cl=qcl)
    assert report["details"]["order3_generated_by_low_orders"] == [
        [i, j, flag] for i in range(1, N + 1) for j in range(1, N + 1)]


# sha256 of the sorted-key JSON of verify_low_order_structure on sl2
# with twisted_rep(lie, c): its b_table is where the scale of rho(J)
# reaches a report; c = 0 gives the vector rep's bytes
LOW_ORDER_TWISTED_DIGESTS = {
    0: "5f8ad990f71588c75b4401617e6ee273b0d45e1f04c4ea8019825ade90bb6827",
    2: "b2403f9c0d0318fddc126f2dab629f3274cb4fe1313e746f62c5c9a6b74b6e51",
    F(-1, 3):
        "5aeb003fb94801124b76adac996b4911363bb42219361b3c614ada38c0ff6456",
}


@pytest.mark.parametrize("c", list(LOW_ORDER_TWISTED_DIGESTS), ids=str)
def test_low_order_twisted_goldens(sl2, sl2_cs, c):
    report = verify_low_order_structure(sl2_cs, rep=twisted_rep(sl2.lie, c))
    got = json.dumps(report, sort_keys=True)
    assert (hashlib.sha256(got.encode()).hexdigest()
            == LOW_ORDER_TWISTED_DIGESTS[c])
    if c == 0:
        assert got == json.dumps(
            verify_low_order_structure(sl2_cs), sort_keys=True)


class TestEvaluation:
    def test_z_scalar_on_vector_module(self, sl2, sl2_cs):
        # z(u) acts on the vector evaluation module as 1 - u^{-2}
        ev = EvalModule(sl2, [F(0)], order=3)
        vals = [ev.eval_scalar(sl2_cs.z[r]) for r in range(4)]
        assert vals == [F(1), F(0), F(-1), F(0)]

    def test_relations_die(self, sl2):
        ev = EvalModule(sl2, [F(0), F(1)], order=3)
        for p in sl2.relations[:20]:
            assert not ev.eval(p)[0].any()

    def test_generator_image_nonzero(self, sl2):
        ev = EvalModule(sl2, [F(0)], order=3)
        assert ev.eval(NCPoly.gen(1, 1, 1))[0].any()


# -- evaluation modules against a naive Fraction reference -------------

@lru_cache(maxsize=None)
def _reference_images(pres, shifts, order):
    """Fraction images of the t_ij^(r), r <= order, under T(u) ->
    R_01(u - a_1) ... R_0k(u - a_k), built entry by entry: R_0m acts on
    the digits 0 and m of a basis index and is the identity on the rest."""
    k = len(shifts)
    N = pres.N
    nn, dim, Nk = N * N, N ** (k + 1), N ** k

    def digits(x):
        return [(x // N ** (k - t)) % N for t in range(k + 1)]

    entries = rmat_entries(pres.R)
    series = None
    for m, a in enumerate(shifts, 1):
        exp = {(p, q): entries[p, q].compose_linear(F(1), -a)
               .expand_at_infinity(order).coeffs
               for p in range(nn) for q in range(nn)}
        factor = []
        for r in range(order + 1):
            M = np.full((dim, dim), F(0), dtype=object)
            for row in range(dim):
                rd = digits(row)
                for col in range(dim):
                    cd = digits(col)
                    if all(rd[t] == cd[t] for t in range(1, k + 1)
                           if t != m):
                        M[row, col] = exp[rd[0] * N + rd[m],
                                          cd[0] * N + cd[m]][r]
            factor.append(M)
        if series is None:
            series = factor
            continue
        nxt = []
        for r in range(order + 1):
            acc = np.full((dim, dim), F(0), dtype=object)
            for b in range(r + 1):
                acc = acc + series[b] @ factor[r - b]
            nxt.append(acc)
        series = nxt
    return {(i, j, r): series[r][(i - 1) * Nk: i * Nk, (j - 1) * Nk: j * Nk]
            for r in range(1, order + 1)
            for i in range(1, N + 1) for j in range(1, N + 1)}


def _reference_eval(images, Nk, p):
    """Sum of coefficient times word product, each word multiplied from
    scratch with ``@``."""
    eye = np.array([[F(int(a == b)) for b in range(Nk)] for a in range(Nk)],
                   dtype=object)
    out = np.full((Nk, Nk), F(0), dtype=object)
    for w, c in p.terms.items():
        cur = eye
        for g in w:
            cur = cur @ images[gen_ijr(g)]
        out = out + c * cur
    return out


_SHIFTS = [F(0), F(1, 2), F(-1, 3), F(2), F(3, 4)]


@st.composite
def _module_and_poly(draw):
    family = draw(st.sampled_from(["sl", "so"]))
    N = 2 if family == "sl" else 3
    k = draw(st.integers(1, 3 if family == "sl" else 2))
    shifts = tuple(draw(st.sampled_from(_SHIFTS)) for _ in range(k))
    order = draw(st.integers(2, 3))
    gen = st.builds(gen_id, st.integers(1, N), st.integers(1, N),
                    st.integers(1, order))
    # a small alphabet makes words share prefixes
    alphabet = draw(st.lists(gen, min_size=1, max_size=3, unique=True))
    words = draw(st.lists(st.lists(st.sampled_from(alphabet), max_size=3)
                          .map(tuple), max_size=8))
    coeff = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
    terms = {}
    for w in words:
        c = draw(coeff)
        if c:
            terms[w] = c
    return family, shifts, order, NCPoly(terms)


class TestEvalEngine:
    @settings(max_examples=100, deadline=None)
    @given(_module_and_poly())
    def test_eval_matches_reference(self, sl2, so3, case):
        family, shifts, order, p = case
        pres = sl2 if family == "sl" else so3
        ev = EvalModule(pres, shifts, order=order)
        want = _reference_eval(_reference_images(pres, shifts, order),
                               ev.Nk, p)
        assert (int_to_frac_array(*ev.eval(p)) == want).all()

    def test_int64_guard_falls_back_to_python_ints(self, sl2, monkeypatch):
        products = []
        real = yangian.safe_matmul

        def spy(a, b, *bounds):
            out = real(a, b, *bounds)
            products.append((a.dtype, b.dtype, out.dtype))
            return out

        monkeypatch.setattr(yangian, "safe_matmul", spy)
        shifts, order = (F(10 ** 6), F(-10 ** 6, 3)), 2
        ev = EvalModule(sl2, shifts, order=order)
        t = {(i, j, r): NCPoly.gen(i, j, r) for r in (1, 2)
             for i in (1, 2) for j in (1, 2)}
        p = (t[1, 1, 2] * t[1, 2, 2] * t[2, 1, 2] * t[2, 2, 2]
             + F(1, 3) * t[1, 1, 2] * t[1, 1, 2] * t[1, 1, 2] * t[2, 2, 2]
             - t[1, 1, 1] * t[1, 1, 2] * t[1, 1, 2] + F(5, 7) * t[1, 2, 1])
        S, s = ev.eval(p)
        # the int64 guard tripped on int64 inputs and the product went on
        # in Python ints; the result is far beyond int64, so a wrap would
        # not have matched the reference
        assert any(a == np.int64 and b == np.int64 and o == object
                   for a, b, o in products)
        assert S.dtype == object
        assert max(abs(int(x)) for x in S.flat) > 2 ** 63
        images = _reference_images(sl2, shifts, order)
        assert (int_to_frac_array(S, s)
                == _reference_eval(images, ev.Nk, p)).all()
        # one-letter words stay in int64; the large coefficients overflow
        # the accumulator, which must go on in Python ints too
        q = (F(10 ** 15 + 1, 7) * t[1, 1, 2] - F(10 ** 15, 11) * t[1, 2, 2]
             + F(1, 3) * t[1, 1, 1])
        S, s = ev.eval(q)
        assert S.dtype == object
        assert max(abs(int(x)) for x in S.flat) > 2 ** 63
        assert (int_to_frac_array(S, s)
                == _reference_eval(images, ev.Nk, q)).all()

    def test_carried_bound_past_int_limit_stays_int64(self, sl2,
                                                      monkeypatch):
        # the carried bounds (Nk = 2 per product) pass 2**57 while the true
        # entries stay below it: the guards must fall back to their scans
        # and keep int64, not go on in Python ints
        hinted = []
        real = yangian.safe_matmul

        def spy(a, b, amax, bmax):
            out = real(a, b, amax, bmax)
            hinted.append((a.shape[1] * amax * bmax, out.dtype))
            return out

        monkeypatch.setattr(yangian, "safe_matmul", spy)
        shifts, order = (F(15000),), 2
        ev = EvalModule(sl2, shifts, order=order)
        t = {(i, j): NCPoly.gen(i, j, 2) for i in (1, 2) for j in (1, 2)}
        # t_11^(2) acts by -15000 E_11, t_12^(2) by a nilpotent matrix
        p = (t[1, 1] * t[1, 1] * t[1, 1] * t[1, 1]
             + t[1, 2] * t[1, 2] * t[1, 2] - NCPoly.gen(1, 1, 1))
        S, s = ev.eval(p)
        assert any(b >= _INT_LIMIT and d == np.int64 for b, d in hinted)
        assert S.dtype == np.int64
        assert 2 ** 55 < max(abs(int(x)) for x in S.flat) < _INT_LIMIT
        want = _reference_eval(_reference_images(sl2, shifts, order),
                               ev.Nk, p)
        assert (int_to_frac_array(S, s) == want).all()

    def test_zero_filter_catches_planted_defect(self, monkeypatch):
        # a relation perturbed by + t_11^(1) no longer dies under the
        # evaluation homomorphism, so rtt_relations must refuse it; the
        # first relation is perturbed as rtt_relations builds it
        planted = []

        def perturb(terms):
            p = NCPoly(terms)
            if not planted:
                planted.append(p)
                p = p + NCPoly.gen(1, 1, 1)
            return p

        monkeypatch.setattr(yangian, "NCPoly", perturb)
        with pytest.raises(AssertionError, match="zero filter"):
            rtt_relations("sl", 2, 3)
        assert planted

    @pytest.mark.parametrize("family,N", [("sl", 2), ("so", 3)])
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_zero_filter_catches_planted_r_coefficient(self, family, N,
                                                       data):
        # rtt_relations builds its relations from the integer
        # coefficients of R; with one entry changed, R breaks the
        # Yang-Baxter equation, T(u) -> R(u) does not kill the relations
        # and the zero filter refuses them
        R = closed_form_r(family, N)
        nn = N * N
        m, e, f = data.draw(st.tuples(st.integers(0, len(R.coeffs) - 1),
                                      st.integers(0, nn - 1),
                                      st.integers(0, nn - 1)))
        C = R.coeffs.copy()
        C[m, e, f] += data.draw(st.sampled_from([-2, -1, 1, 3]))
        planted = RMat(N, R.den, C, R.scale)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(yangian, "closed_form_r", lambda *args: planted)
            with pytest.raises(AssertionError, match="zero filter"):
                rtt_relations(family, N, 2)

    def test_eval_scalar_rejects_non_scalar(self, sl2):
        ev = EvalModule(sl2, [F(1, 2)], order=3)
        assert ev.eval_scalar(NCPoly.constant(F(3, 4))) == F(3, 4)
        for i, j in ((1, 2), (1, 1)):   # off-diagonal, diagonal
            with pytest.raises(ValueError, match="not a scalar"):
                ev.eval_scalar(NCPoly.gen(i, j, 1))
        with pytest.raises(OutOfBounds):
            ev.eval(NCPoly.gen(1, 1, 4))
