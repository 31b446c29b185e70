import math
from fractions import Fraction

import numpy as np

from l2mult import FreeGroup, GroupRingMatrix, _linalg
from l2mult._linalg import (_block_trailing, _charpoly_mod, _components,
                            _crt_primes, _hessenberg_mod, charpoly_trailing,
                            column_reduce)
from l2mult.spectral import WordPermRep, operator_columns_exact

from conftest import make_rng
from oracles import charpoly_exact, components_by_search


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
        assert column_reduce(cols).rank == expected


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
        mat = _cycle_laplacian(n)
        rank, coeff = charpoly_trailing(mat, 4 ** n)
        assert rank == n - 1
        assert abs(coeff) == n * n


def _block_diagonal_case(rng):
    """A random integer block-diagonal matrix conjugated by a random
    permutation, with non-symmetric blocks, a singular block, an isolated
    zero row and column, and 3*I_20 plus a superdiagonal of ones (connected,
    trailing coefficient 3**20, more than one 25-bit prime) next to a 2x2
    block."""
    blocks = [[[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)]
              for k in (rng.randint(1, 5) for _ in range(3))]
    singular = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(3)]
    blocks.append([row + [row[0] + row[1]] for row in singular])
    blocks.append([[0]])
    blocks.append([[3 if i == j else int(j == i + 1) for j in range(20)]
                   for i in range(20)])
    blocks.append([[1, 2], [-1, 1]])
    n = sum(len(b) for b in blocks)
    mat = np.zeros((n, n), dtype=np.int64)
    at = 0
    for b in blocks:
        mat[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    perm = rng.sample(range(n), n)
    return mat[np.ix_(perm, perm)]


def _caller_bound(mat):
    """``growth ** n`` with growth the largest absolute row sum, at least
    2, as ``luck_bound_check`` bounds its operators."""
    growth = max(2, int(np.abs(mat).sum(axis=1).max()))
    return growth ** mat.shape[0]


def test_charpoly_trailing_block_diagonal_matches_exact():
    rng = make_rng(9)
    for trial in range(4):
        mat = _block_diagonal_case(rng)
        coeffs = charpoly_exact(mat.tolist())
        nz = [i for i, c in enumerate(coeffs) if c]
        rank, coeff = charpoly_trailing(mat, _caller_bound(mat))
        assert rank == mat.shape[0] - nz[0]
        assert coeff == coeffs[nz[0]]
        assert abs(coeff) % 3 ** 20 == 0


def test_charpoly_trailing_f2_instance_matches_unsplit():
    # (w1 - w2)^* (w1 - w2) on 200 points, the shape of the crt_det
    # benchmark's permutation instances; the one-block kernel on the whole
    # matrix is the oracle
    rng = make_rng(10)
    f2 = FreeGroup(2)
    w1, w2 = f2.word("ab"), f2.word("b'a")
    a = GroupRingMatrix(f2, 1, 1, {(0, 0): {w1: 1, w2: -1}})
    gram = a.adjoint() @ a
    rho = WordPermRep(f2, [rng.sample(range(200), 200) for _ in range(2)])
    _, cols = operator_columns_exact(gram, rho)
    dense = np.zeros((200, 200), dtype=np.int64)
    for j, col in enumerate(cols):
        for r, v in col.items():
            dense[r, j] = int(v)
    assert len(_components(dense)) > 1
    bound = max(2, math.ceil(float(gram.sup_norm_bound()))) ** 200
    assert charpoly_trailing(dense, bound) == _block_trailing(dense, bound)


def _cycle_laplacian(n):
    mat = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        mat[i, i] = 2
        mat[i, (i + 1) % n] -= 1
        mat[i, (i - 1) % n] -= 1
    return mat


def _primes_per_block(monkeypatch, mat, bound):
    """``(block, primes)`` for each block that ``charpoly_trailing`` hands
    to the stacked ``_hessenberg_mod``."""
    calls = []
    hessenberg_mod = _linalg._hessenberg_mod

    def record(block, primes):
        calls.append((block, primes))
        return hessenberg_mod(block, primes)

    monkeypatch.setattr(_linalg, "_hessenberg_mod", record)
    charpoly_trailing(mat, bound)
    assert sum(block.shape[0] for block, _ in calls) == mat.shape[0]
    return calls


def _schur(block):
    """max over 1 <= k <= n of floor((F/k)**(k/2)), at least 1, by a loop
    over every k."""
    frob = int((block.astype(object) ** 2).sum())
    return max([1] + [math.isqrt(frob ** k // k ** k)
                      for k in range(1, block.shape[0] + 1)])


def test_charpoly_trailing_uses_fewest_primes_per_block(monkeypatch):
    # block b gets min(bound, R_b ** n_b, Schur's bound) and the fewest
    # primes whose product exceeds four times it
    mat = _block_diagonal_case(make_rng(11))
    bound = _caller_bound(mat)
    blocks = _primes_per_block(monkeypatch, mat, bound)
    assert max(len(primes) for _, primes in blocks) > 1
    for block, primes in blocks:
        growth = max(1, int(np.abs(block).sum(axis=1).max()))
        block_bound = min(bound, growth ** block.shape[0], _schur(block))
        prod = math.prod(primes)
        assert prod > 4 * block_bound
        assert prod // primes[-1] <= 4 * block_bound


def test_charpoly_trailing_schur_bound_saves_primes(monkeypatch):
    # the Z/64 cycle Laplacian: Schur's bound 6**32 is below both the
    # caller's 4**64 and Gershgorin's 4**64, so 4 primes serve, not 6
    mat = _cycle_laplacian(64)
    assert _schur(mat) == math.isqrt(6 ** 64) < 4 ** 64
    [(block, primes)] = _primes_per_block(monkeypatch, mat, 4 ** 64)
    assert len(primes) == 4
    assert len(_crt_primes(4 ** 64)) == 6
    assert charpoly_trailing(mat, 4 ** 64) == (63, -64 * 64)


def test_charpoly_trailing_walks_a_permuted_cycle(monkeypatch):
    # the 120-cycle Laplacian with its vertices shuffled reaches the
    # Hessenberg reduction in cycle order: tridiagonal but for one corner
    perm = make_rng(15).sample(range(120), 120)
    mat = _cycle_laplacian(120)[np.ix_(perm, perm)]
    assert np.count_nonzero(np.tril(mat, -2)) > 60
    [(block, _)] = _primes_per_block(monkeypatch, mat, 4 ** 120)
    assert np.count_nonzero(np.tril(block, -2)) <= 1
    assert charpoly_trailing(mat, 4 ** 120) == (119, -120 * 120)


def test_charpoly_trailing_is_invariant_under_permutation_similarity():
    # P M P^T has the characteristic polynomial of M, and the order the
    # blocks come in changes neither their bounds nor their primes
    rng = make_rng(16)
    cases = list(_schur_cases(rng)) + [_block_diagonal_case(rng)
                                       for _ in range(2)]
    for mat in cases:
        n = mat.shape[0]
        coeffs = charpoly_exact(mat.tolist())
        nz = [i for i, c in enumerate(coeffs) if c]
        want = (n - nz[0], coeffs[nz[0]])
        bound = _caller_bound(mat)
        assert charpoly_trailing(mat, bound) == want
        for _ in range(3):
            perm = rng.sample(range(n), n)
            assert charpoly_trailing(mat[np.ix_(perm, perm)], bound) == want


def _schur_cases(rng):
    """Integer matrices of every kind the Schur bound must hold for."""
    for n in range(1, 8):
        # non-symmetric
        yield np.array([[rng.randint(-5, 5) for _ in range(n)]
                        for _ in range(n)], dtype=np.int64)
        # a nilpotent Jordan part next to a random block: the rank exceeds
        # the number of nonzero eigenvalues
        k = rng.randint(0, n)
        mat = np.zeros((n + 2, n + 2), dtype=np.int64)
        mat[0, 1] = rng.choice([-3, -1, 2, 4])
        mat[2:, 2:] = [[rng.randint(-3, 3) for _ in range(n)]
                       for _ in range(n)]
        mat[2:2 + k, 0] = 1
        yield mat
        # strictly upper triangular: nilpotent, trailing coefficient 1
        yield np.triu([[rng.randint(-9, 9) for _ in range(n + 1)]
                       for _ in range(n + 1)], 1).astype(np.int64)
        # rank one
        u = [rng.randint(-4, 4) for _ in range(n)]
        v = [rng.randint(-4, 4) for _ in range(n)]
        yield np.outer(u, v).astype(np.int64)
        # a permutation matrix: R_b ** n_b = 1 is below Schur's bound
        yield np.eye(n, dtype=np.int64)[rng.sample(range(n), n)]
        yield np.zeros((n, n), dtype=np.int64)
    # entries near 2**31: their squares sum past int64
    big = 2 ** 31 - 1
    yield np.array([[big, -big, big], [big, big - 1, -big],
                    [-big, big, big - 2]], dtype=np.int64)


def test_schur_bound_dominates_exact_trailing_coefficient():
    rng = make_rng(13)
    saw_gershgorin_smaller = False
    for mat in _schur_cases(rng):
        coeffs = charpoly_exact(mat.tolist())
        nz = [i for i, c in enumerate(coeffs) if c]
        schur = _linalg._schur_bound(mat)
        assert schur == _schur(mat)
        assert abs(coeffs[nz[0]]) <= schur
        growth = max(1, int(np.abs(mat).sum(axis=1).max()))
        saw_gershgorin_smaller |= growth ** mat.shape[0] < schur
        rank, coeff = charpoly_trailing(mat, 10 ** 40)
        assert (rank, coeff) == (mat.shape[0] - nz[0], coeffs[nz[0]])
    assert saw_gershgorin_smaller


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
        # sparse columns, where only some rows below the diagonal are
        # cleared: a cycle Laplacian under a random permutation, a lower
        # band, and an upper triangle whose column 0 has its one nonzero
        # below the diagonal in the last row, so the pivot swap leaves no
        # row to clear
        perm = rng.sample(range(n), n)
        yield _cycle_laplacian(n)[np.ix_(perm, perm)].tolist()
        yield [[rng.randint(-3, 3) if 0 <= i - j <= 2 else 0
                for j in range(n)] for i in range(n)]
        mat = [[rng.randint(-3, 3) if j >= i else 0 for j in range(n)]
               for i in range(n)]
        mat[n - 1][0] = rng.randint(1, 3)
        yield mat
        if n >= 3:
            # primes that pivot on different rows: column 0 reads 3, then
            # 1, below the diagonal, so modulo 3 the pivot is row 2 and
            # modulo every other prime row 1; and a column 0 of multiples
            # of 6, zero below the diagonal modulo 2 and 3 only
            mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            mat[1][0], mat[2][0] = 3, 1
            yield mat
            mat = [row[:] for row in mat]
            for i in range(1, n):
                mat[i][0] = 6 * rng.randint(-2, 2)
            yield mat


def test_charpoly_mod_matches_exact_residues():
    # one stacked pass serves every prime; each prime's residues, and each
    # truncation modulo x**k, match the exact polynomial
    rng = make_rng(8)
    primes = [2, 3, 5, 7] + _crt_primes(1 << 40)
    for mat in _charpoly_cases(rng):
        n = len(mat)
        exact = charpoly_exact([[Fraction(x) for x in row] for row in mat])
        h = _hessenberg_mod(np.array(mat, dtype=np.int64), primes)
        assert h.shape == (n, n, len(primes))
        assert not np.tril(np.moveaxis(h, 2, 0), -2).any()
        residues = _charpoly_mod(h, primes, n + 1)
        assert residues.T.tolist() == [[int(c) % p for c in exact]
                                       for p in primes]
        for k in range(1, n + 1):
            assert np.array_equal(_charpoly_mod(h, primes, k), residues[:k])


def test_charpoly_trailing_doubles_k_past_zero_coefficients():
    # the truncated recurrence starts at x**2; a trailing coefficient at
    # x**5 or x**33 needs k to double up to n + 1
    for n in (5, 33):
        jordan = np.eye(n, k=1, dtype=np.int64)
        assert charpoly_trailing(jordan, 1) == (0, 1)
    # a connected block whose zero eigenvalue has algebraic multiplicity 3:
    # det(x*I - mat) = x**3 (x - 2)(x + 3)
    rng = make_rng(14)
    mat = np.triu([[rng.choice([-2, -1, 1, 2]) for _ in range(5)]
                   for _ in range(5)], 1).astype(np.int64)
    mat[3, 3], mat[4, 4] = 2, -3
    assert len(_components(mat)) == 1
    coeffs = charpoly_exact(mat.tolist())
    assert coeffs[:4] == [0, 0, 0, -6]
    assert charpoly_trailing(mat, 10 ** 6) == (2, -6)


def test_components_match_breadth_first_search():
    # random supports of every density, permutations (cycles) and the empty
    # matrix: the same partition, blocks in the same order, each block in
    # a preorder where every vertex after the first is adjacent to an
    # earlier one; on a permutation Laplacian each block is its cycle,
    # walked along
    rng = np.random.default_rng(make_rng(40).randrange(2 ** 32))
    cases = [(np.zeros((0, 0), dtype=np.int64), False),
             (np.eye(5, dtype=np.int64), True)]
    for _ in range(300):
        n = int(rng.integers(1, 40))
        cases.append(((rng.random((n, n)) < rng.random() * 0.2)
                      * rng.integers(-3, 4, (n, n)), False))
        cases.append((2 * np.eye(n, dtype=np.int64)
                      - np.eye(n, dtype=np.int64)[rng.permutation(n)], True))
    for mat, is_cycles in cases:
        got, want = _components(mat), components_by_search(mat)
        assert len(got) == len(want)
        adj = (mat != 0) | (mat.T != 0)
        for block, sorted_block in zip(got, want):
            assert np.array_equal(np.sort(block), sorted_block)
            assert block[0] == sorted_block[0]
            for t in range(1, len(block)):
                assert adj[block[t], block[:t]].any()
                if is_cycles:
                    assert adj[block[t], block[t - 1]]


def test_hessenberg_mod_clears_one_row_many_rows_or_swaps():
    # column 0 of the input decides the path of the first step: exactly
    # one row to clear below a pivot that is a unit modulo every prime
    # (the view update), several rows, or a pivot that is zero modulo some
    # prime (the swap); later columns take whichever path they reach.  Each
    # prime's slice is upper Hessenberg with the exact polynomial's residues
    rng = make_rng(16)
    primes = [3, 5, 7] + _crt_primes(1 << 60)
    ps = np.array(primes)
    for shape in ("one", "many", "swap") * 8:
        n = rng.randint(4, 9)
        mat = np.array([[rng.randint(-4, 4) for _ in range(n)]
                        for _ in range(n)], dtype=np.int64)
        mat[1:, 0] = 0
        if shape == "swap":
            mat[1, 0] = rng.choice([0, 3, 5])
            mat[rng.randint(2, n - 1), 0] = 1
        else:
            mat[1, 0] = rng.choice([-1, 1])
            below = rng.sample(range(2, n), 1 if shape == "one" else 2)
            mat[below, 0] = [rng.choice([-2, -1, 1, 2]) for _ in below]
        pivots = mat[1, 0] % ps
        rows = np.flatnonzero((mat[2:, 0, None] % ps).any(axis=1))
        path = ("swap" if not pivots.all() else
                "one" if rows.size == 1 else "many" if rows.size else None)
        assert path == shape
        h = _hessenberg_mod(mat, primes)
        assert not np.tril(np.moveaxis(h, 2, 0), -2).any()
        exact = charpoly_exact(mat.tolist())
        for i, p in enumerate(primes):
            got = charpoly_exact(h[:, :, i].tolist())
            assert [int(c) % p for c in got] == [int(c) % p for c in exact]
