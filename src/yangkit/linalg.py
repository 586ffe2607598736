"""Exact linear algebra: one fraction-free row elimination behind the
incremental sparse row-reducer of ideal closures and the dense helpers
(RREF, rank, nullspaces, inverses).

Sparse rows are dicts {column index: Fraction or int}; dense matrices are
lists of lists of Python ints or Fractions.  ``_eliminate`` and
``_place`` clear a row's denominators once and eliminate on Python ints,
storing primitive int rows with a positive, non-normalized pivot.
``SparseReducer`` calls them from its methods; the dense helpers run
them on a basis of their own.  ``rref`` and the reducer answer in
``Fraction``, ``nullspace`` and ``invert`` on integers.
"""

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

ZERO = Fraction(0)


def _eliminate(rows, row, scaled=False):
    """Fully reduce a row dict against the fraction-free basis ``rows``
    {pivot: primitive int row}; returns the exact rational residual, or
    with ``scaled`` a positive integer multiple of it.

    Basis rows are mutually reduced (no basis row contains another's
    pivot), so one elimination pass per pivot present is complete, and
    a hit's entry is still nonzero at its turn: eliminating one pivot
    adds no multiple of a basis row to another pivot's entry, and a
    rescale multiplies it by a nonzero int.  The
    multiplier of a hit pivot is ``r[hit] / beta``: an int when an int
    entry is divisible by the pivot coefficient ``beta``, a ``Fraction``
    otherwise.  With ``scaled`` the row's denominators are cleared once
    (a row of ints, as every closure product is, is only copied) and each
    hit pivot eliminates by ``r <- (beta/g) r - (c/g) b`` with ``c =
    r[hit]`` and ``g = gcd(c, beta)``, so no ``Fraction`` is made and the
    residual keeps the same keys in the same order.
    """
    if scaled and set(map(type, row.values())) != {int}:
        den = lcm(*[c.denominator for c in row.values()])
        r = {j: c.numerator * (den // c.denominator)
             for j, c in row.items() if c}
    else:
        r = {j: c for j, c in row.items() if c}
    for hit in [j for j in r if j in rows]:
        c = r[hit]
        b = rows[hit]
        beta = b[hit]
        if beta != 1:
            if scaled:
                g = gcd(c, beta)
                if g != beta:
                    mb = beta // g
                    r = {j: mb * v for j, v in r.items()}
                c //= g
            elif type(c) is not int:
                c = c / beta
            elif c % beta:
                c = Fraction(c, beta)
            else:
                c //= beta
        m = -c
        for j, bj in b.items():
            rj = r.get(j)
            if rj is None:
                r[j] = m * bj
            else:
                nv = rj + m * bj
                if nv:
                    r[j] = nv
                else:
                    del r[j]
    return r


@lru_cache(maxsize=None)
def _compact_size(n):
    """``__sizeof__`` of a dict of n entries built by insertion, the
    smallest table that holds n entries.  (``sys.getsizeof`` adds the
    same header to every dict and takes about twice as long to call.)"""
    return dict.fromkeys(range(n)).__sizeof__()


def _place(rows, holders, r):
    """Insert a scaled residual ``r`` of :func:`_eliminate` into ``rows``,
    primitive with a positive pivot, and back-substitute it into the rows
    ``holders`` (a ``defaultdict(list)``) lists for that pivot; returns
    the pivot or None.

    Every stored row is primitive and compact: its table is no larger
    than a fresh dict of its entries needs.  A row is copied into a fresh
    dict only to restore that.  A held row whose pivot entry is 1 after
    back-substitution is primitive without a gcd: ``r`` is reduced, so
    it holds no other pivot and leaves that entry alone, and a rescaled
    row's pivot entry is above 1."""
    if not r:
        return None
    piv = min(r)
    g = gcd(*r.values())
    if r[piv] < 0:
        g = -g
    if g != 1:
        r = {j: c // g for j, c in r.items()}
    elif r.__sizeof__() > _compact_size(len(r)):
        r = dict(r.items())
    beta = r[piv]
    for j in r:
        if j != piv:
            holders[j].append(piv)
    # back-substitute into the rows holding piv to keep the basis reduced
    for p in holders.pop(piv, ()):
        b = rows[p]
        c = b.get(piv)
        if not c:
            continue
        if beta == 1:
            m = -c
        else:
            g = gcd(c, beta)
            m, mb = -(c // g), beta // g
            if mb != 1:
                b = {j: mb * bj for j, bj in b.items()}
        for j, rj in r.items():
            bj = b.get(j)
            if bj is None:
                b[j] = m * rj
                holders[j].append(p)
            else:
                nv = bj + m * rj
                if nv:
                    b[j] = nv
                else:
                    del b[j]
        g = gcd(*b.values()) if b[p] != 1 else 1
        if g != 1:
            b = {j: bj // g for j, bj in b.items()}
        elif b.__sizeof__() > _compact_size(len(b)):
            # same key order; dict(b) can keep the oversized table, a
            # rebuild from the items cannot
            b = dict(b.items())
        rows[p] = b
    rows[piv] = r
    return piv


def _span(rows):
    """The fraction-free reduced basis {pivot: primitive int row} of the
    span of dense rows (lists of ints or Fractions)."""
    basis, holders = {}, defaultdict(list)
    for row in rows:
        _place(basis, holders, _eliminate(
            basis, {j: c for j, c in enumerate(row) if c}, True))
    return basis


def rref(rows, ncols):
    """Reduced row echelon form: (basis, pivots), basis the reduced rows
    as lists of Fraction with pivot entries 1, pivots ascending; the zero
    entries are all the one ZERO.  The reduced echelon form of a span is
    unique, so it is read off the fraction-free rows of the shared
    elimination."""
    basis = _span(rows)
    pivots = sorted(basis)
    return [[Fraction(basis[p][j], basis[p][p]) if j in basis[p] else ZERO
             for j in range(ncols)] for p in pivots], pivots


def rank(rows, ncols):
    return len(_span(rows))


def nullspace(rows, ncols):
    """Basis of {x : M x = 0} for M given by rows: per free column,
    ascending, one primitive int list, positive there and 0 at the other
    free columns."""
    basis = _span(rows)
    out = []
    for free in range(ncols):
        if free in basis:
            continue
        # x[free] = L and x[p] = -b[free] L / b[p] for the rows b that
        # hold the free column, L the lcm of their pivot entries
        held = {p: b for p, b in basis.items() if free in b}
        v = [0] * ncols
        v[free] = L = lcm(*[b[p] for p, b in held.items()])
        for p, b in held.items():
            v[p] = -b[free] * (L // b[p])
        g = gcd(*v)
        out.append([x // g for x in v])
    return out


def invert(mat):
    """Inverse of a square matrix of ints or Fractions (list of lists) as
    scale * rows: int lists over 1 / their least common denominator,
    returned as (rows, scale).  Raises ValueError if it is singular."""
    n = len(mat)
    aug = [list(mat[i]) + [int(j == i) for j in range(n)] for i in range(n)]
    basis = _span(aug)
    if any(p not in basis for p in range(n)):
        raise ValueError("matrix is singular")
    # a row holds no other of the first n columns and is primitive, so
    # over its pivot entry b[p] it needs exactly the denominator b[p]
    den = lcm(*[basis[p][p] for p in range(n)])
    return [[basis[p].get(n + j, 0) * (den // basis[p][p]) for j in range(n)]
            for p in range(n)], Fraction(1, den)


class SparseReducer:
    """Incremental exact row reduction of sparse rows.

    Maintains a reduced basis keyed by pivot column.  Column preference is
    the natural integer order of the interned column ids (callers intern
    monomials so that smaller id = preferred pivot).

    Rows are stored fraction-free (in the spirit of Bareiss, *Math. Comp.*
    22, 1968): :attr:`rows` maps each pivot to a primitive Python-int row
    dict, with its gcd content divided out and a positive pivot
    coefficient that is not normalized to 1.  :attr:`basis` is the
    normalized ``Fraction`` view (pivot coefficient 1), built on read; it
    is the unique reduced echelon basis of the span, so it does not depend
    on row scale.  Readers that need only the span, the pivots or the
    zero pattern read :attr:`rows` directly.

    An insert makes no ``Fraction``.  It costs one :meth:`reduce` with
    ``scaled`` (a positive integer multiple of the residual; a row of
    ints is only copied), one content gcd over the residual, and, for
    each basis row ``b`` that holds the new pivot column, one pass over
    the new row ``r``: ``b <- (beta/g) b - (c/g) r`` with ``beta =
    r[pivot]``, ``c = b[pivot]`` and ``g = gcd(c, beta)`` (no gcd when
    ``beta`` is 1).  So back-substitution work is proportional to the
    new row; ``b``'s other entries are read only by a rescale when
    ``beta/g`` is not 1, by a content gcd when ``b``'s pivot entry is
    not 1, and by a division or a copy when ``b`` is left with content
    or with a table larger than a fresh dict of its entries.  The table
    test is one ``dict.__sizeof__`` call after every in-place edit:
    each back-substitution cancels the pivot entry, and a table can
    outgrow the row whenever entries cancel.  A query (:meth:`reduce`
    without ``scaled``) returns the exact rational residual.

    A column index maps each non-pivot column to the pivots whose rows
    hold it, so back-substitution touches only those rows (plus one
    lookup per stale entry), not every basis row.  The index is
    append-only: an entry goes stale when its row loses the column
    through cancellation (and a row that regains a column is listed
    twice); stale entries are skipped when read.  A column's list is
    dropped once the column becomes a pivot, since no basis row can hold
    it again.  Most reads are stale (49,933 of 60,184 in the sl2 K=3
    quotient (5, 5) closure), but an index that deleted entries on
    cancellation would do more work, not less: back-substitution there
    cancels 58,619 non-pivot entries, each a search through a list,
    against 49,933 stale reads of one dict lookup each.
    """

    def __init__(self):
        self.rows = {}  # pivot col -> primitive int row dict, pivot > 0
        # non-pivot col -> pivots of rows holding it
        self._holders = defaultdict(list)

    @property
    def basis(self):
        """Normalized view {pivot: {col: Fraction}} with pivot entries 1,
        built on each read."""
        return {p: {j: Fraction(c, b[p]) for j, c in b.items()}
                for p, b in self.rows.items()}

    def reduce(self, row, scaled=False):
        """The residual of a row dict against the basis: exact, or with
        ``scaled`` a positive integer multiple (see :func:`_eliminate`)."""
        return _eliminate(self.rows, row, scaled)

    def _insert(self, row):
        """Reduce a row fraction-free, make it primitive and insert it;
        returns its pivot or None."""
        return _place(self.rows, self._holders, self.reduce(row, scaled=True))

    def add(self, row):
        """Insert a row; returns True if it enlarged the span."""
        return self._insert(row) is not None

    def add_return_pivot(self, row):
        """Insert a row; returns the new pivot column, or None."""
        return self._insert(row)

    @property
    def rank(self):
        return len(self.rows)
