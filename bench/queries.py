"""Seeded ideal-membership queries for the ``ideal-query`` workload.

Every query is an element of the free algebra whose verdict is known by
construction, so the benchmark can check each answer of ``normal_form``:

* positive queries lie in the two-sided relation ideal and must reduce
  to 0.  They are either a commutator ``[z_r, sum c_k w_k]`` of a
  coefficient of the central series with seeded words, or a combination
  ``sum c_k a_k p_k b_k`` of two-sided word multiples of relations;
* negative queries are a positive query plus ``c w'`` for a seeded word
  ``w'``; they must reduce to ``c normal_form(w')``, which is nonzero.

The generator is meant for type A (``sl``), where no word is zero in the
extended Yangian, so ``normal_form(w') != 0`` holds for every word.  In
types B/C/D some short words vanish (``t_{ii'}^{(1)}`` in ``so_3``) and
membership of the commutators holds only up to the bounds, so the
verdicts would not be known in advance.

Every query fits the closure's bounds ``(L, R)``: at most ``L`` letters
per word and total series order at most ``R``.  Queries alternate
positive and negative, so each pass has the same number of each.
"""

import hashlib
import random
from fractions import Fraction


class Query:
    __slots__ = ("poly", "positive", "word", "coeff")

    def __init__(self, poly, positive, word=None, coeff=None):
        self.poly = poly
        self.positive = positive
        self.word = word      # letters of w' in a negative query
        self.coeff = coeff    # c in a negative query


def _word(rng, N, max_len, max_sr, min_len=1):
    """Seeded letters (i, j, r) of t_ij^(r): min_len <= length <= max_len
    (fewer if the order budget runs out), total order <= max_sr."""
    letters = []
    room = max_sr
    for _ in range(rng.randint(min_len, max_len)):
        if room < 1:
            break
        r = rng.randint(1, min(room, 3))
        room -= r
        letters.append((rng.randint(1, N), rng.randint(1, N), r))
    return tuple(letters)


def word_poly(yk, letters, c=1):
    """c times the word with the given letters, as an NCPoly."""
    p = yk.NCPoly.constant(c)
    for i, j, r in letters:
        p = p * yk.NCPoly.gen(i, j, r)
    return p


def _fits(p, L, R):
    return p.max_len() <= L and p.max_sum_r() <= R


def _coeff(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def _commutator(rng, yk, N, z, L, R):
    orders = [r for r in range(2, len(z))
              if z[r].max_len() < L and z[r].max_sum_r() < R]
    r = rng.choice(orders)
    zr = z[r]
    w = yk.NCPoly.zero()
    for _ in range(rng.randint(1, 3)):
        w = w + word_poly(yk, _word(rng, N, L - zr.max_len(),
                                R - zr.max_sum_r()), _coeff(rng))
    return zr * w - w * zr


def _relation_multiples(rng, yk, N, relations, L, R):
    out = yk.NCPoly.zero()
    for _ in range(rng.randint(2, 6)):
        p = rng.choice(relations)
        room_len = L - p.max_len()
        room_sr = R - p.max_sum_r()
        a = _word(rng, N, room_len, room_sr, min_len=0)
        room_len -= len(a)
        room_sr -= sum(r for _, _, r in a)
        b = _word(rng, N, room_len, room_sr, min_len=0)
        out = out + word_poly(yk, a, _coeff(rng)) * p * word_poly(yk, b)
    return out


def make_queries(yk, pres, z, bounds, seed, count):
    """``count`` queries from ``seed`` for a closure of ``pres`` at ``bounds``.

    ``z`` is the list of central-series coefficients (``CentralSeries.z``).
    """
    L, R = bounds
    N = pres.N
    rng = random.Random(seed)
    relations = [p for p in pres.relations if _fits(p, L, R)]
    queries = []
    while len(queries) < count:
        if rng.random() < 0.5:
            base = _commutator(rng, yk, N, z, L, R)
        else:
            base = _relation_multiples(rng, yk, N, relations, L, R)
        if not base:
            continue
        if len(queries) % 2 == 0:
            queries.append(Query(base, True))
            continue
        w = _word(rng, N, L, R)
        c = _coeff(rng)
        queries.append(Query(base + word_poly(yk, w, c), False, w, c))
    for q in queries:
        if not _fits(q.poly, L, R):
            raise ValueError("generated query exceeds the closure bounds")
    return queries


def nf_digest(polys):
    """sha256 of a sequence of normal forms, exact and order-sensitive."""
    h = hashlib.sha256()
    for p in polys:
        for w in sorted(p.terms, key=lambda w: (len(w), w)):
            c = p.terms[w]
            h.update(("%s:%s/%s;" % (",".join(map(str, w)), c.numerator,
                                     c.denominator)).encode())
        h.update(b"|")
    return h.hexdigest()
