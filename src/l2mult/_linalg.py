"""Exact linear algebra kernels: sparse rational elimination and integer
characteristic polynomials.

Matrices are handled column-wise as ``dict[row_index, int | Fraction]`` so
that the boundary matrices of quotient complexes (a handful of entries per
column) and operator matrices of permutation representations stay cheap.
Integral entries are Python ``int``: elimination turns them into ints when a
column enters and divides only by pivots other than +-1, so a Fraction appears
only after such a pivot, and results stay exact either way.  Characteristic
polynomials of integer matrices are computed exactly by Hessenberg reduction
modulo a batch of word-sized primes followed by CRT reconstruction; only the
trailing nonzero coefficient needs a reconstruction bound, which the callers
derive from the coefficient sup-norm of the group-ring matrix.
"""

from __future__ import annotations

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


def apply_columns(op_cols: list[SparseCol],
                  vecs: list[SparseCol]) -> list[SparseCol]:
    """Sparse columns of op @ V, with op and V given by their columns."""
    out = []
    for v in vecs:
        acc: SparseCol = {}
        for idx, c in v.items():
            axpy(acc, c, op_cols[idx])
        out.append(acc)
    return out


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


def sparse_rank(columns: list[SparseCol]) -> int:
    return column_reduce(columns).rank


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
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


_PRIME_CACHE: list[int] = []


def _primes(count: int) -> list[int]:
    # 25-bit primes keep all modular numpy arithmetic inside int64.
    n = _PRIME_CACHE[-1] - 2 if _PRIME_CACHE else (1 << 25) - 1
    while len(_PRIME_CACHE) < count:
        if _is_prime(n):
            _PRIME_CACHE.append(n)
        n -= 2
    return _PRIME_CACHE[:count]


def _hessenberg_mod(mat: np.ndarray, p: int) -> np.ndarray:
    h = np.mod(mat.astype(object) if mat.dtype == object else mat, p).astype(np.int64)
    n = h.shape[0]
    for j in range(n - 2):
        col = h[j + 1:, j]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = int(nz[0]) + j + 1
        if piv != j + 1:
            h[[j + 1, piv], :] = h[[piv, j + 1], :]
            h[:, [j + 1, piv]] = h[:, [piv, j + 1]]
        inv = pow(int(h[j + 1, j]), p - 2, p)
        mult = (h[j + 2:, j] * inv) % p
        if mult.any():
            # row j + 1 is zero left of column j
            h[j + 2:, j:] = (h[j + 2:, j:] - np.outer(mult, h[j + 1, j:])) % p
            h[:, j + 1] = (h[:, j + 1] + h[:, j + 2:] @ mult) % p
    return h


def _charpoly_mod(mat: np.ndarray, p: int) -> np.ndarray:
    """Coefficients (index = power of x) of det(x*I - mat) mod p."""
    n = mat.shape[0]
    if n == 0:
        return np.array([1], dtype=np.int64)
    h = _hessenberg_mod(mat, p)
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    # prods[i - 1] = h[m-1, m-2] * ... * h[m-i, m-i-1] mod p, for i < m
    prods = np.zeros(0, dtype=np.int64)
    for m in range(1, n + 1):
        prev = polys[m - 1]
        cur = np.zeros(n + 1, dtype=np.int64)
        cur[1:] = prev[:-1]
        cur = (cur - (int(h[m - 1, m - 1]) * prev) % p) % p
        if m >= 2:
            prods = (int(h[m - 1, m - 2]) * np.concatenate(([1], prods))) % p
            coefs = (h[m - 2::-1, m - 1] * prods) % p
            if coefs.any():
                # polys[m - 1 - i] has degree m - 1 - i < m - 1
                acc = (coefs @ polys[m - 2::-1, : m - 1]) % p
                cur[: m - 1] = (cur[: m - 1] - acc) % p
        polys[m] = cur
    return polys[n]


def _crt(residues: list[int], primes: list[int]) -> int:
    modulus = 1
    value = 0
    for r, p in zip(residues, primes):
        inc = ((r - value) * pow(modulus, -1, p)) % p
        value += modulus * inc
        modulus *= p
    if value > modulus // 2:
        value -= modulus
    return value


def charpoly_trailing(mat: np.ndarray, bound: int) -> tuple[int, int]:
    """Exact rank and trailing nonzero characteristic-polynomial coefficient
    of an integer matrix.

    ``bound`` must dominate the absolute value of the trailing coefficient
    (e.g. ``c**rank`` with ``c`` a bound on the eigenvalue magnitudes).
    Returns ``(rank, coeff)`` with ``coeff`` the coefficient of
    ``x**(n-rank)`` in ``det(x*I - mat)``.
    """
    n = mat.shape[0]
    if n == 0:
        return 0, 1
    need = 1
    prod = 1
    while prod <= 4 * bound:
        prod *= _primes(need)[need - 1]
        need += 1
    primes = _primes(need + 4)
    polys = [_charpoly_mod(mat, p) for p in primes]
    first_nonzero = n
    for coeffs in polys:
        nz = np.nonzero(coeffs)[0]
        if nz.size and nz[0] < first_nonzero:
            first_nonzero = int(nz[0])
    rank = n - first_nonzero
    coeff = _crt([int(c[first_nonzero]) for c in polys], primes)
    return rank, coeff
