from fractions import Fraction

import numpy as np

from l2mult._linalg import (_charpoly_mod, _primes, charpoly_trailing,
                            column_reduce, sparse_rank)

from conftest import make_rng
from oracles import charpoly_exact


def _random_matrix(rng, nrows, ncols, density=0.6, span=3):
    cols = []
    for _ in range(ncols):
        col = {}
        for r in range(nrows):
            if rng.random() < density:
                col[r] = Fraction(rng.randint(-span, span))
        cols.append({r: v for r, v in col.items() if v})
    return cols


def _dense(cols, nrows):
    out = np.zeros((nrows, len(cols)))
    for j, col in enumerate(cols):
        for r, v in col.items():
            out[r, j] = float(v)
    return out


def test_rank_matches_numpy():
    rng = make_rng(1)
    for trial in range(40):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        cols = _random_matrix(rng, nrows, ncols)
        expected = np.linalg.matrix_rank(_dense(cols, nrows), tol=1e-9)
        assert sparse_rank(cols) == expected


def test_pivot_columns_span_every_column():
    rng = make_rng(2)
    for trial in range(30):
        nrows = rng.randint(2, 6)
        ncols = rng.randint(2, 8)
        cols = _random_matrix(rng, nrows, ncols)
        _assert_pivots_span(cols, column_reduce(cols), nrows)


def _assert_pivots_span(cols, red, nrows):
    """The selected pivot columns are independent and every input column
    lies in their span."""
    pivots = _dense([cols[j] for j in red.pivot_cols], nrows)
    assert np.linalg.matrix_rank(pivots, tol=1e-9) == red.rank
    for col in cols:
        both = np.column_stack([pivots, _dense([col], nrows)])
        assert np.linalg.matrix_rank(both, tol=1e-9) == red.rank


def test_stored_pivot_columns_are_unit_and_reduced():
    rng = make_rng(3)
    cols = _random_matrix(rng, 5, 9)
    red = column_reduce(cols)
    for t, row in enumerate(red.pivot_rows):
        assert red._cols[t][row] == 1
        assert not any(r in red._cols[t] for r in red.pivot_rows[:t])


def test_charpoly_trailing_matches_exact():
    rng = make_rng(4)
    for trial in range(25):
        n = rng.randint(1, 7)
        mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        coeffs = charpoly_exact([[Fraction(x) for x in row] for row in mat])
        nz = [i for i, c in enumerate(coeffs) if c]
        rank, coeff = charpoly_trailing(np.array(mat, dtype=object), 10 ** 12)
        assert rank == n - nz[0]
        assert coeff == coeffs[nz[0]]


def test_charpoly_trailing_zero_matrix():
    rank, coeff = charpoly_trailing(np.zeros((4, 4), dtype=np.int64), 100)
    assert rank == 0 and coeff == 1


def test_charpoly_exact_matches_numpy_roots():
    rng = make_rng(5)
    mat = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
    coeffs = charpoly_exact([[Fraction(x) for x in row] for row in mat])
    numpy_coeffs = np.poly(np.array(mat, dtype=float))  # leading first
    for i, c in enumerate(coeffs):
        assert abs(float(c) - numpy_coeffs[len(coeffs) - 1 - i]) < 1e-6


def test_charpoly_trailing_large_symmetric():
    # N-cycle Laplacian: product of nonzero eigenvalues is N * N
    for n in (3, 12, 33):
        mat = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            mat[i, i] = 2
            mat[i, (i + 1) % n] -= 1
            mat[i, (i - 1) % n] -= 1
        rank, coeff = charpoly_trailing(mat, 4 ** n)
        assert rank == n - 1
        assert abs(coeff) == n * n


def _entry_types(cols):
    return {type(v) for col in cols for v in col.values()}


def test_mixed_int_fraction_elimination_matches_oracles():
    # entries in -2..2, so some pivots are +-2 and their columns divide
    rng = make_rng(6)
    saw_fraction = False
    for trial in range(60):
        nrows = rng.randint(1, 9)
        cols = _random_matrix(rng, nrows, rng.randint(1, 9), density=0.4,
                              span=2)
        red = column_reduce(cols)
        assert red.rank == np.linalg.matrix_rank(_dense(cols, nrows), tol=1e-9)
        _assert_pivots_span(cols, red, nrows)
        types = _entry_types(red._cols)
        assert types <= {int, Fraction}
        saw_fraction |= Fraction in types
    assert saw_fraction


def test_unit_pivot_elimination_stays_in_ints():
    # incidence matrices of graphs are totally unimodular: every pivot is +-1
    rng = make_rng(7)
    for trial in range(30):
        n = rng.randint(2, 12)
        cols = []
        for _ in range(rng.randint(1, 2 * n)):
            u, v = rng.sample(range(n), 2)
            cols.append({u: Fraction(1), v: Fraction(-1)})
        red = column_reduce(cols)
        assert red.rank == np.linalg.matrix_rank(_dense(cols, n))
        assert _entry_types(red._cols) == {int}


def _charpoly_cases(rng):
    for n in range(1, 9):
        yield [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        # singular: a rank-one matrix
        u = [rng.randint(-2, 2) for _ in range(n)]
        yield [[a * b for b in reversed(u)] for a in u]
        # upper triangular: every subdiagonal entry of the Hessenberg form is 0
        yield [[rng.randint(-3, 3) if j >= i else 0 for j in range(n)]
               for i in range(n)]
        # a zero subdiagonal between two full blocks
        k = n // 2
        yield [[rng.randint(-3, 3) if (i < k) == (j < k) else 0
                for j in range(n)] for i in range(n)]


def test_charpoly_mod_matches_exact_residues():
    rng = make_rng(8)
    primes = (2, 3, 5, 7) + tuple(_primes(2))
    for mat in _charpoly_cases(rng):
        exact = charpoly_exact([[Fraction(x) for x in row] for row in mat])
        for p in primes:
            residues = _charpoly_mod(np.array(mat, dtype=np.int64), p)
            assert residues.tolist() == [int(c) % p for c in exact]
