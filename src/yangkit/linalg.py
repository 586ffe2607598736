"""Exact linear algebra over Fraction: dense RREF, nullspaces, inverses,
and an incremental sparse row-reducer used for ideal closures.

Dense matrices are lists of lists of Fraction (or numpy object arrays);
sparse rows are dicts {column index: Fraction}.
"""

from fractions import Fraction

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

    A column index maps each non-pivot column to the pivots whose basis
    rows hold it.  An insert therefore costs one :meth:`reduce` plus one
    pass over the new row for each basis row that holds the new pivot
    column (plus one lookup per stale entry), not a scan of every basis
    row.  The index is append-only: an entry goes stale when its
    row loses the column through cancellation (and a row that regains a
    column is listed twice); stale entries are skipped when read.  A
    column's list is dropped once the column becomes a pivot, since no
    basis row can hold it again.
    """

    def __init__(self):
        self.basis = {}  # pivot col -> row dict (pivot coefficient 1)
        self._holders = {}  # non-pivot col -> pivots of rows holding it

    def reduce(self, row):
        """Fully reduce a row dict against the basis; returns residual.

        Basis rows are mutually reduced (no basis row contains another's
        pivot), so one elimination pass per pivot present is complete.
        """
        r = {j: c for j, c in row.items() if c}
        for hit in [j for j in r if j in self.basis]:
            c = r.get(hit)
            if not c:
                continue
            for j, bj in self.basis[hit].items():
                nv = r.get(j, ZERO) - c * bj
                if nv:
                    r[j] = nv
                else:
                    r.pop(j, None)
        return r

    def _insert(self, row):
        """Reduce, normalize and insert a row; returns its pivot or None."""
        r = self.reduce(row)
        if not r:
            return None
        piv = min(r)
        inv = ONE / r[piv]
        r = {j: c * inv for j, c in r.items()}
        basis = self.basis
        holders = self._holders
        for j in r:
            if j != piv:
                holders.setdefault(j, []).append(piv)
        # back-substitute into the rows holding piv to keep the basis reduced
        for p in holders.pop(piv, ()):
            b = basis[p]
            c = b.get(piv)
            if not c:
                continue
            m = -c
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
        basis[piv] = r
        return piv

    def add(self, row):
        """Insert a row; returns True if it enlarged the span."""
        return self._insert(row) is not None

    def add_return_pivot(self, row):
        """Insert a row; returns the new pivot column, or None."""
        return self._insert(row)

    @property
    def rank(self):
        return len(self.basis)
