"""Exact linear algebra kernels: sparse rational elimination and integer
characteristic polynomials.

The exact elimination handles matrices column-wise as
``dict[row_index, int | Fraction]``, so that the boundary matrices of
quotient complexes (a handful of entries per column) and operator matrices
of permutation representations stay cheap.  Integral entries are Python
``int``: elimination turns them into ints when a column enters and divides
only by pivots other than +-1, so a Fraction appears only after such a
pivot, and results stay exact either way.  Boundaries are kept as one
``ColumnStore`` each, CSC arrays whose entries are int64 when every entry
is an integer inside int64 and exact Python numbers otherwise; products
that could leave int64 are taken on Python integers (``exact_mul``).

Characteristic polynomials of integer matrices are computed exactly by
Hessenberg reduction modulo word-sized primes followed by CRT
reconstruction, one connected component of the matrix's support graph at a
time: the trailing nonzero coefficient is the product of the blocks' ones.
Only that coefficient needs a reconstruction bound, and each block takes
the smallest of three:

* the caller's, derived from the coefficient sup-norm of the group-ring
  matrix, which bounds every block since each block coefficient is a
  nonzero integer dividing the whole one;
* Gershgorin's ``R_b ** n_b`` (largest absolute row sum R_b, size n_b);
* Schur's, from the sum of the squared entries (``_schur_bound``).

Each block comes in the depth-first preorder of its support graph.  That
is a permutation similarity P M P^T, which leaves det(x*I - M), and so
the rank and every coefficient, unchanged, and which moves no entry from
one row sum or from the sum of squares to another, so every bound and the
number of primes stay the same too.  What it changes is the work of the
Hessenberg reduction.  Column j needs a pivot swap when its subdiagonal
entry is zero and clears only the rows below j + 1 with a nonzero entry.
In preorder a path or a cycle, such as a block of a permutation
representation's 2 - s - s^-1, is walked along: its block is tridiagonal
apart from one corner, with -1, a unit modulo every prime, all along the
subdiagonal, so no column swaps and a column clears at most one row, which
is updated through views.  In index order nearly every column swaps and
clears a row.  ``spectral.luck_bound_check`` splits its operator once and
solves the same blocks here and in its eigensolve.

The block then takes the fewest primes whose product exceeds four times its
bound, and one stacked pass serves all of them: the block is reduced to
Hessenberg form modulo every prime at once, as one (n, n, P) array.  Each
prime pivots on its own first nonzero row below the diagonal, and a column
clears the union over the primes of the rows with a nonzero entry, where a
zero entry gives that prime a zero multiplier.  The recurrence for the
characteristic polynomial then runs modulo x**k, which is exact for the
coefficients below x**k: k starts at 2 and doubles while every prime sees
only zeros there.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

SparseCol = dict[int, "int | Fraction"]


def int_entries(col: SparseCol) -> SparseCol:
    """Copy of ``col`` with each integral entry as an int."""
    return {r: v.numerator if v.denominator == 1 else v
            for r, v in col.items()}


def axpy(acc: SparseCol, scale, col: SparseCol) -> None:
    """acc += scale * col in place; entries that cancel are dropped."""
    get = acc.get
    for r, v in col.items():
        nv = get(r, 0) + scale * v
        if nv:
            acc[r] = nv
        else:
            acc.pop(r, None)


_INT64_LIMIT = 1 << 63


def exact_array(values: list) -> np.ndarray:
    """The exact numbers ``values`` as one array: int64 when every value is
    an integer inside int64 (an integral Fraction counts), else an object
    array of the values, integral Fractions made ints."""
    arr = np.array(values)
    if not values or arr.dtype == np.int64 and arr.min() > -_INT64_LIMIT:
        return arr.astype(np.int64)
    values = [v.numerator if isinstance(v, Fraction) and v.denominator == 1
              else v for v in values]
    if all(type(v) is int and -_INT64_LIMIT < v < _INT64_LIMIT
           for v in values):
        return np.array(values, dtype=np.int64)
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def exact_mul(a, b, terms: int = 1) -> np.ndarray:
    """a * b elementwise and exactly, such that sums of up to ``terms`` of
    the products stay exact too: in int64 when the largest such sum fits,
    else on Python integers in an object array."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != object and b.dtype != object and a.size and b.size and \
            int(np.abs(a).max()) * int(np.abs(b).max()) * terms \
            >= _INT64_LIMIT:
        a = a.astype(object)
    return a * b


class ColumnStore:
    """Sparse columns in one compressed store (CSC): column j holds the rows
    ``rows[indptr[j]:indptr[j + 1]]``, sorted and without zeros, with the
    entries ``vals`` at the same positions.  ``vals`` is int64 when every
    entry is an integer inside int64, and otherwise an object array of
    exact ints and Fractions; one array code serves both.

    ``len`` is the number of columns, and ``store[j]`` and iteration give
    the columns as ``SparseCol`` dicts for the exact elimination."""

    __slots__ = ("indptr", "rows", "vals")

    def __init__(self, indptr: np.ndarray, rows: np.ndarray,
                 vals: np.ndarray):
        self.indptr, self.rows, self.vals = indptr, rows, vals

    @classmethod
    def from_dicts(cls, cols: list[SparseCol]) -> "ColumnStore":
        cols = [sorted((r, v) for r, v in col.items() if v) for col in cols]
        indptr = np.zeros(len(cols) + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([len(col) for col in cols])
        entries = [e for col in cols for e in col]
        return cls(indptr, np.array([r for r, _ in entries], dtype=np.int64),
                   exact_array([v for _, v in entries]))

    @classmethod
    def from_entries(cls, ncols: int, nrows: int, cols: np.ndarray,
                     rows: np.ndarray, vals: np.ndarray) -> "ColumnStore":
        """The store of the entries (cols[i], rows[i], vals[i]), those at
        one position summed and the sums that vanish dropped: one sort and
        one segmented sum."""
        key = cols * max(nrows, 1) + rows
        order = np.argsort(key)
        key, vals = key[order], vals[order]
        if key.size:
            new = np.empty(key.size, dtype=bool)
            new[0] = True
            np.not_equal(key[1:], key[:-1], out=new[1:])
            starts = np.flatnonzero(new)
            key, vals = key[starts], np.add.reduceat(vals, starts)
            nonzero = vals != 0
            key, vals = key[nonzero], vals[nonzero]
        col, row = np.divmod(key, max(nrows, 1))
        indptr = np.zeros(ncols + 1, dtype=np.int64)
        np.cumsum(np.bincount(col, minlength=ncols), out=indptr[1:])
        return cls(indptr, row, vals)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, j: int) -> SparseCol:
        a, b = self.indptr[j], self.indptr[j + 1]
        return dict(zip(self.rows[a:b].tolist(), self.vals[a:b].tolist()))

    def __iter__(self):
        ptr = self.indptr.tolist()
        rows, vals = self.rows.tolist(), self.vals.tolist()
        for a, b in zip(ptr, ptr[1:]):
            yield dict(zip(rows[a:b], vals[a:b]))

    def lengths(self) -> np.ndarray:
        """The number of entries of every column."""
        return self.indptr[1:] - self.indptr[:-1]

    def col_index(self) -> np.ndarray:
        """The column of every entry."""
        return np.repeat(np.arange(len(self)), self.lengths())

    def take(self, cols: np.ndarray) -> "ColumnStore":
        """The store of the columns ``cols``, in that order: one gather of
        the entries of each."""
        starts = self.indptr[cols]
        lengths = self.indptr[cols + 1] - starts
        indptr = np.zeros(len(cols) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        at = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return ColumnStore(indptr, self.rows[at], self.vals[at])

    def product(self, other: "ColumnStore", nrows: int) -> "ColumnStore":
        """The columns of A B, for A this store with ``nrows`` rows and B
        ``other``: each entry b at (k, j) of B meets every entry a of
        column k of A, and the products a b are sorted and summed."""
        met = self.take(other.rows)
        lengths = met.lengths()
        vals = exact_mul(met.vals, np.repeat(other.vals, lengths),
                         int(other.lengths().max(initial=0)))
        return ColumnStore.from_entries(
            len(other), nrows, np.repeat(other.col_index(), lengths),
            met.rows, vals)


class ColumnReduction:
    """Sparse column elimination for the rank of a set of columns.

    ``pivot_cols[t]`` is the index of the t-th independent input column and
    ``pivot_rows[t]`` the row of its pivot.  Stored pivot columns are reduced
    only against earlier pivots; reducing a fresh column in increasing pivot
    order therefore terminates (each step only introduces pivot rows of
    strictly later pivots).
    """

    def __init__(self):
        self.pivot_rows: list[int] = []
        self.pivot_cols: list[int] = []
        self._cols: list[SparseCol] = []   # unit pivot entry, reduced vs earlier
        self._row_to_k: dict[int, int] = {}
        # always empty; perfbench's linalg.elim_fill_nnz counter reads it
        self.col_expr: dict[int, SparseCol] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def _reduce(self, col: SparseCol) -> SparseCol:
        c = int_entries(col)
        while True:
            hit_k = None
            for r in c:
                k = self._row_to_k.get(r)
                if k is not None and (hit_k is None or k < hit_k):
                    hit_k = k
            if hit_k is None:
                return c
            axpy(c, -c[self.pivot_rows[hit_k]], self._cols[hit_k])

    def add_column(self, col_id: int, col: SparseCol) -> bool:
        """Feed one column; returns True when it enlarged the rank."""
        residual = self._reduce(col)
        if not residual:
            return False
        pivot_row = min(residual)
        piv = residual[pivot_row]
        # a +-1 pivot is its own inverse and keeps int columns int
        inv = piv if piv == 1 or piv == -1 else Fraction(1) / piv
        self._row_to_k[pivot_row] = len(self._cols)
        self._cols.append({r: v * inv for r, v in residual.items()})
        self.pivot_rows.append(pivot_row)
        self.pivot_cols.append(col_id)
        return True


def column_reduce(columns: list[SparseCol]) -> ColumnReduction:
    red = ColumnReduction()
    for j, col in enumerate(columns):
        red.add_column(j, col)
    return red


# ---------------------------------------------------------------------------
# Integer characteristic polynomials via CRT
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# 25-bit primes, largest first: a sum of up to 2**13 products of two
# residues stays inside int64, which covers every block of up to 8192 rows.
_PRIME_CACHE: list[int] = []


def _crt_primes(bound: int) -> list[int]:
    """The fewest primes from the cache whose product exceeds ``4 * bound``."""
    count, prod = 0, 1
    while prod <= 4 * bound:
        if count == len(_PRIME_CACHE):
            n = _PRIME_CACHE[-1] - 2 if _PRIME_CACHE else (1 << 25) - 1
            while not _is_prime(n):
                n -= 2
            _PRIME_CACHE.append(n)
        prod *= _PRIME_CACHE[count]
        count += 1
    return _PRIME_CACHE[:count]


def _hessenberg_mod(mat: np.ndarray, primes: list[int]) -> np.ndarray:
    """Upper Hessenberg forms of the integer matrix ``mat`` modulo each of
    ``primes``, as one (n, n, P) stack: ``h[:, :, i]`` is similar to
    ``mat`` modulo ``primes[i]``.

    Each prime takes as the pivot of column j the first row below the
    diagonal that is nonzero modulo it, so the primes may swap different
    rows.  The rows cleared are the union over the primes of the rows with
    a nonzero entry to clear; where the entry is zero modulo a prime, its
    multiplier is 0 and that prime's row and column are left as they are.
    """
    ps = np.array(primes, dtype=np.int64)
    h = np.mod(np.asarray(mat, dtype=np.int64)[:, :, None], ps)
    n = h.shape[0]
    for j in range(n - 2):
        pivots = h[j + 1, j].tolist()
        if 0 in pivots:
            below = h[j + 1:, j] != 0
            if not below.any():
                continue
            # each prime pivots on its own first nonzero row; one whose
            # column is zero below the diagonal keeps row j + 1
            piv = below.argmax(axis=0) + j + 1
            every = np.arange(len(primes))
            top = h[j + 1, :, every]
            h[j + 1, :, every] = h[piv, :, every]
            h[piv, :, every] = top
            left = h[:, j + 1, every]
            h[:, j + 1, every] = h[:, piv, every]
            h[:, piv, every] = left
            pivots = h[j + 1, j].tolist()
        rows = np.logical_or.reduce(h[j + 2:, j], axis=1).nonzero()[0]
        if rows.size == 0:
            continue
        rows += j + 2
        inv = np.array([pow(a, -1, p) if a else 0
                        for a, p in zip(pivots, primes)], dtype=np.int64)
        if rows.size == 1:
            # the usual column of a preorder block: one row, through views
            r = int(rows[0])
            mult = h[r, j] * inv % ps
            h[r, j:] -= mult * h[j + 1, j:]
            h[r, j:] %= ps
            h[:, j + 1] += h[:, r] * mult
            h[:, j + 1] %= ps
            continue
        # row j + 1 is zero left of column j
        block = h[rows, j:]
        mult = block[:, 0] * inv % ps
        block -= mult[:, None] * h[j + 1, j:]
        block %= ps
        h[rows, j:] = block
        col = h[:, j + 1]
        col += (h[:, rows] * mult).sum(axis=1)
        col %= ps
    return h


def _charpoly_mod(h: np.ndarray, primes: list[int], k: int) -> np.ndarray:
    """Coefficients of x**0 .. x**(k-1) of det(x*I - h[:, :, i]) modulo
    ``primes[i]``, as a (k, P) array, for an (n, n, P) stack of upper
    Hessenberg matrices.

    The recurrence p_m = x p_{m-1} - sum_r h[r, m-1] w_r p_r, over r < m
    with w_r the product of the subdiagonal entries h[t, t-1] for
    r < t < m, only multiplies by x and combines earlier polynomials, so
    it is exact modulo x**k.
    """
    n, _, nprimes = h.shape
    ps = np.array(primes, dtype=np.int64)
    polys = np.zeros((n + 1, k, nprimes), dtype=np.int64)
    polys[0, 0] = 1
    sub = np.diagonal(h, -1).T
    # w[r] = w_r at step m, for r < m
    w = np.ones((n, nprimes), dtype=np.int64)
    for m in range(1, n + 1):
        if m >= 2:
            part = w[:m - 1]
            part *= sub[m - 2]
            part %= ps
        coef = h[:m, m - 1] * w[:m] % ps
        cur = polys[m]
        cur[1:] = polys[m - 1, :-1]
        cur -= np.einsum("rp,rkp->kp", coef, polys[:m])
        cur %= ps
    return polys[n]


def _crt(residues: np.ndarray, primes: list[int]) -> int:
    modulus = 1
    value = 0
    for r, p in zip(residues.tolist(), primes):
        inc = ((r - value) * pow(modulus, -1, p)) % p
        value += modulus * inc
        modulus *= p
    if value > modulus // 2:
        value -= modulus
    return value


def _components(mat: np.ndarray) -> list[np.ndarray]:
    """The connected components of the support graph of ``mat``, each in
    depth-first preorder: i and j are joined when mat[i, j] or mat[j, i] is
    nonzero.  The components come in the order of their smallest index,
    where each search starts, and a search visits the neighbours of a
    vertex in increasing order.

    In preorder every vertex after a block's first is adjacent to an
    earlier one, and a path or a cycle is walked along: the block of a
    cycle is tridiagonal apart from its two corners, which spares its
    Hessenberg reduction the pivot swaps and the rows to clear of an index
    order (module docstring)."""
    n = mat.shape[0]
    rows, cols = np.nonzero(mat)
    key = np.unique(np.concatenate([rows * n + cols, cols * n + rows]))
    rows, cols = np.divmod(key, max(n, 1))
    starts = np.searchsorted(rows, np.arange(n + 1)).tolist()
    neighbours = cols.tolist()
    seen = [False] * n
    blocks = []
    for root in range(n):
        if seen[root]:
            continue
        block, stack = [], [root]
        while stack:
            v = stack.pop()
            if seen[v]:
                continue
            seen[v] = True
            block.append(v)
            a, b = starts[v], starts[v + 1]
            stack.extend(w for w in reversed(neighbours[a:b]) if not seen[w])
        blocks.append(np.array(block, dtype=np.int64))
    return blocks


def _block_trailing(mat: np.ndarray, bound: int) -> tuple[int, int]:
    """``(rank, coeff)`` of one integer matrix whose trailing coefficient is
    bounded by ``bound`` in absolute value, from the fewest primes whose
    product exceeds ``4 * bound``.

    The trailing coefficient is a nonzero integer of absolute value below
    that product, so it cannot vanish modulo all of the primes, while every
    lower coefficient vanishes modulo each: the primes that certify the
    reconstruction also certify the rank, and no spare prime is needed.
    One stacked Hessenberg reduction serves every prime, and the
    recurrence keeps only the coefficients below x**k, from k = 2.  When
    every prime sees zeros there, the trailing coefficient lies higher, so
    k doubles; at k = n + 1 the leading coefficient 1 ends the search.
    """
    n = mat.shape[0]
    primes = _crt_primes(bound)
    h = _hessenberg_mod(mat, primes)
    k = 2
    while True:
        low = _charpoly_mod(h, primes, min(k, n + 1))
        seen = np.flatnonzero(low.any(axis=1))
        if seen.size:
            return n - int(seen[0]), _crt(low[seen[0]], primes)
        k *= 2


def _schur_bound(block: np.ndarray) -> int:
    """Schur's bound on the trailing coefficient of the n x n integer
    ``block``: the largest ``isqrt(F**k // k**k)`` over 1 <= k <= n, and at
    least 1, with F the sum of the squared entries.

    The coefficient c is +-the product of the k nonzero eigenvalues, and
    sum |lambda_i|**2 <= F for every square complex matrix (Schur
    triangularization, so neither symmetry nor positivity is needed), so by
    AM-GM c**2 <= (F/k)**k and |c| <= isqrt(floor((F/k)**k)), c being an
    integer.  k * log(F/k) is concave with its maximum at F/e, so the
    largest term is at min(n, floor(F/e)) or the next integer.  The float
    floor of F/e, with F capped at 3n (F/e > n from there on, and the
    division cannot overflow), may be off by one, so its neighbours are
    taken too.
    """
    n = block.shape[0]
    frob = sum(v * v for v in block[np.nonzero(block)].tolist())
    k0 = min(n, int(min(frob, 3 * n) / math.e))
    return max([1] + [math.isqrt(frob ** k // k ** k)
                      for k in range(max(1, k0 - 1), min(n, k0 + 1) + 1)])


def charpoly_trailing(mat: np.ndarray, bound: int) -> tuple[int, int]:
    """Exact rank and trailing nonzero characteristic-polynomial coefficient
    of an integer matrix.

    ``bound`` must dominate the absolute value of the trailing coefficient
    (e.g. ``c**rank`` with ``c`` a bound on the eigenvalue magnitudes).
    Returns ``(rank, coeff)`` with ``coeff`` the coefficient of
    ``x**(n-rank)`` in ``det(x*I - mat)``.

    The matrix is solved one support block of ``_components`` at a time
    (``_trailing_product``)."""
    return _trailing_product([mat[np.ix_(idx, idx)]
                              for idx in _components(mat)], bound)


def _trailing_product(blocks: list[np.ndarray], bound: int) -> tuple[int, int]:
    """``charpoly_trailing`` of an integer matrix split into ``blocks``, its
    support blocks in depth-first preorder, which spares paths and cycles
    most Hessenberg work.  det(x*I - mat) is the product of the blocks'
    polynomials, so the rank is the sum of the block ranks and the
    coefficient the product of the block coefficients, in any order of
    each block (module docstring).  Block b, of size n_b and largest
    absolute row sum R_b, gets the bound ``min(bound, max(1, R_b) ** n_b,
    _schur_bound(b))``, each of which holds on its own.  Any valid bound
    certifies the result: see ``_block_trailing``."""
    rank, coeff = 0, 1
    for block in blocks:
        growth = max(1, int(np.abs(block).sum(axis=1).max()))
        r, c = _block_trailing(block, min(bound, growth ** len(block),
                                          _schur_bound(block)))
        rank += r
        coeff *= c
    return rank, coeff
