"""Yangian layer: relation generation, bounded ideal closures, PBW slice
dimensions, central series, quantum determinant, Hopf and fixed-point
verification, and evaluation modules."""

import hashlib
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from yangkit import yangian
from yangkit.exact import TruncSeries, series_mul
from yangkit.freealg import NCPoly, gen_id, gen_ijr, mat_shift, t_matrix
from yangkit.liealg import build_lie, frac_matmul, vector_rep
from yangkit.yangian import (
    BoundsTooLarge,
    OutOfBounds,
    WrongFamily,
    central_monomial_certificate,
    closure,
    closure_for_query,
    evaluation_module,
    is_in_ideal,
    normal_form,
    pbw_count,
    qdet,
    rtt_relations,
    slice_dimension,
    symmetry_series,
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
    cl = closure_for_query(rtt_relations(family, N, 3), L, R,
                           quotient=quotient)
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
    rtt_relations reads the matrices A_m of D(w) R(w) = sum_m A_m w^m and
    the clearing degree d = deg D from the closed-form R-matrix, so a
    change to the R-matrix representation must not change a relation."""
    pres = rtt_relations(family, N, K)
    assert pres.clear_degree == degree
    assert len(pres.relations) == count
    assert hashlib.sha256(repr(
        [list(p.terms.items()) for p in pres.relations]
    ).encode()).hexdigest() == digest


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

    def test_monomial_certificate(self, sl2, sl2_cs):
        rep = central_monomial_certificate(sl2, sl2_cs)
        assert rep["status"] == "pass"
        assert rep["details"]["rank"] == 6


class TestQdet:
    def test_formula_n2(self, sl2, sl2_cl, sl2_cs):
        qd, report = qdet(sl2, sl2_cl, sl2_cs)
        assert report["status"] == "pass"
        T = t_matrix(2, 3)
        Tm = mat_shift(T, F(-1))
        oracle = (series_mul(T.entry(0, 0), Tm.entry(1, 1))
                  - series_mul(T.entry(1, 0), Tm.entry(0, 1)))
        for r in range(4):
            assert qd.coeffs[r] == oracle.coeffs[r]
        assert qd.coeffs[1] == NCPoly.gen(1, 1, 1) + NCPoly.gen(2, 2, 1)

    def test_wrong_family(self, so3, so3_cl):
        with pytest.raises(WrongFamily):
            qdet(so3, so3_cl)


class TestSymmetry:
    def test_so3(self, so3, so3_cl):
        _, report = symmetry_series(so3, so3_cl)
        assert report["status"] == "pass"
        assert not report["details"]["scalar_failures"]
        assert not report["details"]["two_sided_failures"]

    def test_wrong_family(self, sl2, sl2_cl):
        with pytest.raises(WrongFamily):
            symmetry_series(sl2, sl2_cl)


class TestHopfAndFixedPoint:
    def test_hopf(self, sl2, sl2_cl, sl2_cs):
        report = verify_hopf(sl2, sl2_cl, sl2_cs, orders=3,
                             max_relations=20)
        assert report["status"] == "pass"
        assert report["details"]["grouplike_orders"] == [1, 2, 3]

    def test_fixed_point(self, sl2, sl2_cl, sl2_cs):
        f = TruncSeries([F(1), F(1)])
        report = verify_fixed_point(sl2, sl2_cl, sl2_cs, f, orders=2)
        assert report["status"] == "pass"
        assert report["details"]["fixed_orders"] == [1, 2]
        assert report["details"]["shift_compatible"]

    def test_fixed_point_requires_unit_constant(self, sl2, sl2_cl, sl2_cs):
        with pytest.raises(ValueError):
            verify_fixed_point(sl2, sl2_cl, sl2_cs,
                               TruncSeries([F(2), F(1)]))


class TestLowOrder:
    def test_sl2(self, sl2, sl2_cl, sl2_cs):
        qcl = closure_for_query(sl2, 3, 3, quotient=True)
        report = verify_low_order_structure(sl2, sl2_cl, sl2_cs,
                                            quotient_cl=qcl)
        assert report["status"] == "pass"
        assert not report["details"]["embedding_bracket_failures"]
        assert report["details"]["b_table_all_zero"]
        gen3 = report["details"]["order3_generated_by_low_orders"]
        assert gen3 and all(flag for _, _, flag in gen3)


class TestEvaluation:
    def test_z_scalar_on_vector_module(self, sl2, sl2_cl, sl2_cs):
        # z(u) acts on the vector evaluation module as 1 - u^{-2}
        ev = evaluation_module(sl2, 1, [F(0)], order=3)
        vals = [ev.eval_scalar(sl2_cs.z[r]) for r in range(4)]
        assert vals == [F(1), F(0), F(-1), F(0)]

    def test_relations_die(self, sl2):
        ev = evaluation_module(sl2, 2, [F(0), F(1)], order=3)
        for p in sl2.relations[:20]:
            assert not any(x for x in ev.eval(p).flat)

    def test_generator_image_nonzero(self, sl2):
        ev = evaluation_module(sl2, 1, [F(0)], order=3)
        assert any(x for x in ev.eval(NCPoly.gen(1, 1, 1)).flat)


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

    entries = pres.R.entries
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
                acc = acc + frac_matmul(series[b], factor[r - b])
            nxt.append(acc)
        series = nxt
    return {(i, j, r): series[r][(i - 1) * Nk: i * Nk, (j - 1) * Nk: j * Nk]
            for r in range(1, order + 1)
            for i in range(1, N + 1) for j in range(1, N + 1)}


def _reference_eval(images, Nk, p):
    """Sum of coefficient times word product, each word multiplied from
    scratch with frac_matmul."""
    eye = np.array([[F(int(a == b)) for b in range(Nk)] for a in range(Nk)],
                   dtype=object)
    out = np.full((Nk, Nk), F(0), dtype=object)
    for w, c in p.terms.items():
        cur = eye
        for g in w:
            cur = frac_matmul(cur, images[gen_ijr(g)])
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
    return family, k, shifts, order, NCPoly(terms)


class TestEvalEngine:
    @settings(max_examples=100, deadline=None)
    @given(_module_and_poly())
    def test_eval_matches_reference(self, sl2, so3, case):
        family, k, shifts, order, p = case
        pres = sl2 if family == "sl" else so3
        ev = evaluation_module(pres, k, shifts, order=order)
        want = _reference_eval(_reference_images(pres, shifts, order),
                               ev.Nk, p)
        assert (ev.eval(p) == want).all()
        S, s = ev.eval(p, scaled=True)
        assert (S * s == want).all()

    def test_int64_guard_falls_back_to_python_ints(self, sl2, monkeypatch):
        products = []
        real = yangian.safe_matmul

        def spy(a, b):
            out = real(a, b)
            products.append((a.dtype, b.dtype, out.dtype))
            return out

        monkeypatch.setattr(yangian, "safe_matmul", spy)
        shifts, order = (F(10 ** 6), F(-10 ** 6, 3)), 2
        ev = evaluation_module(sl2, 2, shifts, order=order)
        t = {(i, j, r): NCPoly.gen(i, j, r) for r in (1, 2)
             for i in (1, 2) for j in (1, 2)}
        p = (t[1, 1, 2] * t[1, 2, 2] * t[2, 1, 2] * t[2, 2, 2]
             + F(1, 3) * t[1, 1, 2] * t[1, 1, 2] * t[1, 1, 2] * t[2, 2, 2]
             - t[1, 1, 1] * t[1, 1, 2] * t[1, 1, 2] + F(5, 7) * t[1, 2, 1])
        got = ev.eval(p)
        S, _ = ev.eval(p, scaled=True)
        # the int64 guard tripped on int64 inputs and the product went on
        # in Python ints; the result is far beyond int64, so a wrap would
        # not have matched the reference
        assert any(a == np.int64 and b == np.int64 and o == object
                   for a, b, o in products)
        assert S.dtype == object
        assert max(abs(int(x)) for x in S.flat) > 2 ** 63
        images = _reference_images(sl2, shifts, order)
        assert (got == _reference_eval(images, ev.Nk, p)).all()
        # one-letter words stay in int64; the large coefficients overflow
        # the accumulator, which must go on in Python ints too
        q = (F(10 ** 15 + 1, 7) * t[1, 1, 2] - F(10 ** 15, 11) * t[1, 2, 2]
             + F(1, 3) * t[1, 1, 1])
        S, _ = ev.eval(q, scaled=True)
        assert S.dtype == object
        assert max(abs(int(x)) for x in S.flat) > 2 ** 63
        assert (ev.eval(q) == _reference_eval(images, ev.Nk, q)).all()

    def test_zero_filter_catches_planted_defect(self, monkeypatch):
        # a relation perturbed by + t_11^(1) no longer dies under the
        # evaluation homomorphism, so rtt_relations must refuse it
        real = yangian._canon_poly
        planted = []

        def perturb(p):
            p = real(p)
            if not planted:
                planted.append(p)
                p = p + NCPoly.gen(1, 1, 1)
            return p

        monkeypatch.setattr(yangian, "_canon_poly", perturb)
        with pytest.raises(AssertionError, match="zero filter"):
            rtt_relations("sl", 2, 3)
        assert planted

    def test_eval_scalar_rejects_non_scalar(self, sl2):
        ev = evaluation_module(sl2, 1, [F(1, 2)], order=3)
        assert ev.eval_scalar(NCPoly.constant(F(3, 4))) == F(3, 4)
        for i, j in ((1, 2), (1, 1)):   # off-diagonal, diagonal
            with pytest.raises(ValueError, match="not a scalar"):
                ev.eval_scalar(NCPoly.gen(i, j, 1))
        with pytest.raises(OutOfBounds):
            ev.eval(NCPoly.gen(1, 1, 4))
