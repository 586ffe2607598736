"""Exact linear algebra over Fraction: dense RREF, nullspaces, inverses,
and an incremental sparse row-reducer used for ideal closures.

Dense matrices are lists of lists of Fraction (or numpy object arrays);
sparse rows are dicts {column index: Fraction or int}.  The sparse
reducer inserts fraction-free: it clears an input row's denominators once
and eliminates on Python ints, storing primitive int rows with a
positive, non-normalized pivot.  Queries are answered in ``Fraction``
values as before: exact rational residuals from ``reduce`` and a
normalized ``basis`` view built on read.
"""

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def rref(rows, ncols):
    """Reduced row echelon form.

    Returns (basis, pivots): basis is a list of reduced rows (lists),
    pivots the pivot column of each row.  Deterministic: first-column
    pivoting in input order.
    """
    basis = []
    pivots = []
    for row in rows:
        row = list(row)
        for b, p in zip(basis, pivots):
            c = row[p]
            if c:
                for j in range(ncols):
                    if b[j]:
                        row[j] -= c * b[j]
        piv = next((j for j in range(ncols) if row[j]), None)
        if piv is None:
            continue
        inv = ONE / row[piv]
        row = [x * inv for x in row]
        for b in basis:
            c = b[piv]
            if c:
                for j in range(ncols):
                    if row[j]:
                        b[j] -= c * row[j]
        basis.append(row)
        pivots.append(piv)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [basis[i] for i in order], [pivots[i] for i in order]


def rank(rows, ncols):
    return len(rref(rows, ncols)[0])


def nullspace(rows, ncols):
    """Basis of {x : M x = 0} for M given by rows; vectors as lists."""
    basis, pivots = rref(rows, ncols)
    pivset = set(pivots)
    out = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for b, p in zip(basis, pivots):
            v[p] = -b[free]
        out.append(v)
    return out


def solve(rows, rhs, ncols):
    """One exact solution of M x = rhs, or None if inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    basis, pivots = rref(aug, ncols + 1)
    x = [ZERO] * ncols
    for b, p in zip(basis, pivots):
        if p == ncols:
            return None
        x[p] = b[ncols]
    return x


def invert(mat):
    """Inverse of a square Fraction matrix (list of lists)."""
    n = len(mat)
    aug = [list(mat[i]) + [ONE if j == i else ZERO for j in range(n)]
           for i in range(n)]
    basis, pivots = rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in basis[:n]]


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
    ``scaled`` (a positive integer multiple of the residual), one pass
    over the residual to divide out its content, and, for each basis row
    ``b`` that holds the new pivot column, one pass over the new row ``r``
    and one over ``b``: ``b <- (beta/g) b - (c/g) r`` with ``beta =
    r[pivot]``, ``c = b[pivot]`` and ``g = gcd(c, beta)``, followed by a
    division of ``b`` by its content.  A query (:meth:`reduce` without
    ``scaled``) returns the exact rational residual.  A column index
    maps each non-pivot column to the pivots whose rows hold it, so
    back-substitution touches only those rows (plus one lookup per stale
    entry), not every basis row.  The index is append-only: an entry goes
    stale when its row loses the column through cancellation (and a row
    that regains a column is listed twice); stale entries are skipped
    when read.  A column's list is dropped once the column becomes a
    pivot, since no basis row can hold it again.
    """

    def __init__(self):
        self.rows = {}  # pivot col -> primitive int row dict, pivot > 0
        self._holders = {}  # non-pivot col -> pivots of rows holding it

    @property
    def basis(self):
        """Normalized view {pivot: {col: Fraction}} with pivot entries 1,
        built on each read."""
        return {p: {j: Fraction(c, b[p]) for j, c in b.items()}
                for p, b in self.rows.items()}

    def reduce(self, row, scaled=False):
        """Fully reduce a row dict against the basis; returns the exact
        rational residual, or with ``scaled`` a positive integer multiple
        of it.

        Basis rows are mutually reduced (no basis row contains another's
        pivot), so one elimination pass per pivot present is complete.
        The multiplier of a hit pivot is ``r[hit] / beta``: an int when an
        int entry is divisible by the pivot coefficient ``beta``, a
        ``Fraction`` otherwise, so int rows stay int where they can and
        ``Fraction`` rows stay ``Fraction``.

        With ``scaled`` the row's denominators are cleared once and each
        hit pivot eliminates by ``r <- (beta/g) r - (c/g) b`` with ``c =
        r[hit]`` and ``g = gcd(c, beta)``, so no ``Fraction`` is made; the
        residual keeps the same keys in the same order.  Inserts need it
        only up to a positive scale; queries get the exact residual.
        """
        rows = self.rows
        if scaled:
            den = lcm(*[c.denominator for c in row.values()])
            r = {j: c.numerator * (den // c.denominator)
                 for j, c in row.items() if c}
        else:
            r = {j: c for j, c in row.items() if c}
        for hit in [j for j in r if j in rows]:
            c = r.get(hit)
            if not c:
                continue
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

    def _insert(self, row):
        """Reduce a row fraction-free, make it primitive and insert it;
        returns its pivot or None."""
        r = self.reduce(row, scaled=True)
        if not r:
            return None
        piv = min(r)
        g = gcd(*r.values())
        if r[piv] < 0:
            g = -g
        # stored as a fresh dict: the working one keeps the table slots of
        # entries that cancelled, about 12% more memory per closure row
        r = {j: c // g for j, c in r.items()}
        beta = r[piv]
        rows = self.rows
        holders = self._holders
        for j in r:
            if j != piv:
                holders.setdefault(j, []).append(piv)
        # back-substitute into the rows holding piv to keep the basis reduced
        for p in holders.pop(piv, ()):
            b = rows[p]
            c = b.get(piv)
            if not c:
                continue
            g = gcd(c, beta)
            m = -(c // g)
            mb = beta // g
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
            g = gcd(*b.values())
            if g != 1:
                b = {j: bj // g for j, bj in b.items()}
            rows[p] = b
        rows[piv] = r
        return piv

    def add(self, row):
        """Insert a row; returns True if it enlarged the span."""
        return self._insert(row) is not None

    def add_return_pivot(self, row):
        """Insert a row; returns the new pivot column, or None."""
        return self._insert(row)

    @property
    def rank(self):
        return len(self.rows)
