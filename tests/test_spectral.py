import collections
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from l2mult import (FreeAbelianGroup, FreeGroup, GroupRingMatrix,
                    QuotientMap, abelian_group, character_of, character_table,
                    cyclic_group, dihedral_group, fk_det, from_generators,
                    induced_rep, irreducible_rep, luck_bound_check,
                    moments_check, operator_matrix, phi_betti, phi_bettis,
                    push_matrix, rank_nullity, regular_rep, spectral_measure)
from l2mult import _linalg, spectral
from l2mult._linalg import _components, charpoly_trailing
from l2mult.finite_groups import GroupHom, induce_ordinary
from l2mult.spectral import (BoundViolated, NotAComplex, NotHermitian,
                             SpectralMeasure,
                             SpectralError, UnitaryRep, WordPermRep,
                             operator_columns_exact)
from l2mult.word_groups import FiniteAlgebraMatrix

from conftest import make_rng
from oracles import coset_rep, pullback_rep

S3_GENS = [(1, 0, 2), (0, 2, 1)]


def cycle_gram(n):
    """(1-g)*(1-g) over Z pushed to Z/n, with the regular representation."""
    z = FreeAbelianGroup(1)
    a = GroupRingMatrix.from_strings(z, [["1 + -1*a"]])
    target = cyclic_group(n)
    q = QuotientMap(z, target, [1])
    return push_matrix(q, a.adjoint() @ a), regular_rep(target), q, a


def test_induced_rep_regular_and_coset():
    g = dihedral_group(4)
    triv_sub = g.subgroup([0])
    h_abs, _ = triv_sub.abstract_group()
    rho = irreducible_rep(h_abs, character_table(h_abs).irreducibles[0])
    ind = induced_rep(g, triv_sub, rho)
    assert ind.dim == g.order
    reg_char = character_of(ind)
    assert abs(reg_char.values[0] - g.order) < 1e-8
    assert np.max(np.abs(reg_char.values[1:])) < 1e-8


def test_induced_rep_dihedral_sign():
    g = dihedral_group(4)          # order 8
    sub = g.subgroup_generated([g.index_of((0, 1))])
    h_abs, _ = sub.abstract_group()
    table = character_table(h_abs)
    sign = table.irreducibles[1]
    rho = irreducible_rep(h_abs, sign)
    ind = induced_rep(g, sub, rho)
    assert ind.dim == 4
    expected = induce_ordinary(sub, sign)
    assert np.max(np.abs(character_of(ind).values - expected.values)) < 1e-8


def test_irreducible_rep_two_dimensional():
    g = from_generators(S3_GENS)
    table = character_table(g)
    chi2 = [ch for ch in table.irreducibles if ch.degree == 2][0]
    rho = irreducible_rep(g, chi2)
    assert rho.dim == 2
    assert np.max(np.abs(character_of(rho).values - chi2.values)) < 1e-7
    # multiplicativity and unitarity of the generated matrices
    rng = make_rng(40)
    for _ in range(20):
        x, y = rng.randrange(6), rng.randrange(6)
        prod = rho.matrix(x) @ rho.matrix(y)
        assert np.max(np.abs(prod - rho.matrix(g.products([x], y)[0]))) < 1e-9
        gram = rho.matrix(x).conj().T @ rho.matrix(x)
        assert np.max(np.abs(gram - np.eye(2))) < 1e-9


def test_operator_matrix_identity_and_shift():
    n = 5
    target = cyclic_group(n)
    rho = regular_rep(target)
    ident = FiniteAlgebraMatrix(target, 1, 1, {(0, 0): {0: Fraction(1)}})
    assert np.max(np.abs(operator_matrix(ident, rho) - np.eye(n))) < 1e-12
    shift = FiniteAlgebraMatrix(target, 1, 1,
                                {(0, 0): {0: Fraction(1), 1: Fraction(-1)}})
    op = operator_matrix(shift, rho)
    # I - P for a 5-cycle permutation matrix
    assert np.max(np.abs(np.diag(op) - 1)) < 1e-12
    assert abs(np.sum(op)) < 1e-12
    colsums = np.sum(np.abs(op), axis=0)
    assert np.max(np.abs(colsums - 2)) < 1e-12


def test_operator_matrix_selfadjoint_is_hermitian():
    rng = make_rng(41)
    g = dihedral_group(3)
    rho = regular_rep(g)
    for _ in range(10):
        entries = {}
        for i in range(2):
            for j in range(2):
                entries[(i, j)] = {rng.randrange(g.order): Fraction(rng.randint(-2, 2))}
        a = FiniteAlgebraMatrix(g, 2, 2, entries)
        gram = a.adjoint() @ a
        op = operator_matrix(gram, rho)
        assert np.max(np.abs(op - op.conj().T)) < 1e-12


def test_spectral_measure_cycle_matches_fourier():
    for n in (3, 8, 12):
        gram, rho, _, _ = cycle_gram(n)
        mu = spectral_measure(gram, rho)
        eigenvalues = sorted(2 - 2 * math.cos(2 * math.pi * k / n)
                             for k in range(n))
        expanded = sorted(v for v, m in mu.atoms for _ in range(m))
        assert len(expanded) == n
        assert max(abs(a - b) for a, b in zip(expanded, eigenvalues)) < 1e-9
        assert Fraction(sum(m for _, m in mu.atoms), mu.normalizer) == 1


def test_spectral_measure_identity_and_zero():
    g = cyclic_group(6)
    rho = regular_rep(g)
    ident = FiniteAlgebraMatrix(g, 1, 1, {(0, 0): {0: Fraction(1)}})
    mu = spectral_measure(ident, rho)
    assert mu.atoms == [(1.0, 6)]
    zero = FiniteAlgebraMatrix(g, 2, 2)
    mu0 = spectral_measure(zero, rho)
    assert mu0.atoms == [(0.0, 12)]
    assert fk_det(mu0) == 1.0


def test_spectral_measure_not_hermitian():
    g = cyclic_group(4)
    rho = regular_rep(g)
    shift = FiniteAlgebraMatrix(g, 1, 1, {(0, 0): {1: Fraction(1)}})
    gram = shift.adjoint() @ shift
    spectral_measure(gram, rho)    # fine
    with pytest.raises(NotHermitian):
        spectral_measure(shift, rho)


def test_spectral_measure_json_round_trip():
    gram, rho, _, _ = cycle_gram(6)
    mu = spectral_measure(gram, rho)
    again = SpectralMeasure.from_json(mu.to_json())
    assert again.atoms == mu.atoms
    assert again.normalizer == mu.normalizer
    assert [v for v, _ in mu.atoms] == sorted(v for v, _ in mu.atoms)


def _clustered_oracle(a, rho):
    """Atoms of the dense operator's eigenvalues, clustered by a plain walk
    at spectral_measure's default threshold."""
    eigs = sorted(np.linalg.eigvalsh(operator_matrix(a, rho)))
    tol = 1e-10 * max(1.0, float(a.sup_norm_bound()))
    clusters = []
    for v in eigs:
        if clusters and v - clusters[-1][-1] <= tol:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return [(0.0 if abs(np.mean(c)) <= tol else float(np.mean(c)), len(c))
            for c in clusters]


def _random_square(group, n, rng):
    return FiniteAlgebraMatrix(group, n, n, {
        (i, j): {rng.randrange(group.order): rng.randint(-3, 3)
                 for _ in range(rng.randint(0, 3))}
        for i in range(n) for j in range(n)})


def test_spectral_measure_fourier_blocks_match_dense_oracle(monkeypatch):
    rng = make_rng(44)
    cases = []
    for group in (cyclic_group(1), cyclic_group(12),
                  abelian_group([2, 3, 4]), abelian_group([1, 5])):
        rho = regular_rep(group)
        assert rho.is_regular and group.moduli is not None
        for n in (1, 2, 3):
            for _ in range(3):
                b = _random_square(group, n, rng)
                gram = b.adjoint() @ b
                cases.append((gram, rho, _clustered_oracle(gram, rho)))
    # the dense operator is the oracle only: the measure must not build it
    monkeypatch.setattr(spectral, "operator_matrix", None)
    for gram, rho, expected in cases:
        mu = spectral_measure(gram, rho)
        assert [m for _, m in mu.atoms] == [m for _, m in expected]
        assert max(abs(v1 - v2) for (v1, _), (v2, _)
                   in zip(mu.atoms, expected)) < 1e-9
        assert Fraction(sum(m for _, m in mu.atoms), mu.normalizer) \
            == gram.cols


def test_spectral_measure_fourier_route_rejects_as_dense():
    g = abelian_group([2, 3])
    fourier = regular_rep(g)
    # the same representation, unmarked, takes the dense route
    dense = coset_rep(g, g.subgroup([0]))
    assert fourier.is_regular and not dense.is_regular
    b = _random_square(g, 2, make_rng(45))
    gram = b.adjoint() @ b
    tiny = FiniteAlgebraMatrix(g, 2, 2, {(0, 1): {1: Fraction(1, 10 ** 12)}})
    small = FiniteAlgebraMatrix(g, 2, 2, {(0, 1): {1: Fraction(1, 10 ** 6)}})
    shift = FiniteAlgebraMatrix(g, 1, 1, {(0, 0): {1: Fraction(1)}})
    wide = FiniteAlgebraMatrix(g, 1, 2, {(0, 0): {0: Fraction(1)}})
    for rho in (fourier, dense):
        spectral_measure(gram + tiny, rho)    # within herm_tol
        for bad, message in ((gram + small, "differs from its adjoint"),
                             (shift, "differs from its adjoint"),
                             (wide, "not square"), (wide.adjoint(), "not square")):
            with pytest.raises(NotHermitian, match=message):
                spectral_measure(bad, rho)


def test_cycle_at_two_to_the_sixteen():
    # 2 - 2cos(2 pi / N) ~ 9.2e-9 must stay an atom of its own, not merge
    # with the kernel
    n = 2 ** 16
    gram, rho, _, _ = cycle_gram(n)
    mu = spectral_measure(gram, rho)
    assert Fraction(sum(m for v, m in mu.atoms if v == 0.0),
                    mu.normalizer) == Fraction(1, n)
    assert abs(fk_det(mu) ** n / n ** 2 - 1) < 1e-6
    assert len(moments_check(gram, rho, 4)) == 4


def test_rank_nullity_cycle():
    for n in (2, 5, 16):
        gram, rho, q, a = cycle_gram(n)
        rank, nullity = rank_nullity(gram, rho)
        assert nullity == Fraction(1, n)
        assert rank == 1 - Fraction(1, n)
        rank_a, null_a = rank_nullity(push_matrix(q, a), rho)
        assert null_a == Fraction(1, n)
        assert rank_a + null_a == 1


def test_rank_nullity_trivial_representation():
    z = FreeAbelianGroup(1)
    a = GroupRingMatrix.from_strings(z, [["1 + -1*a"]])
    c1 = cyclic_group(1)
    pushed = push_matrix(QuotientMap(z, c1, [0]), a)
    rank, nullity = rank_nullity(pushed, regular_rep(c1))
    assert rank == 0 and nullity == 1


def test_rank_nullity_identity():
    g = cyclic_group(3)
    rho = regular_rep(g)
    ident = FiniteAlgebraMatrix(g, 4, 4,
                                {(i, i): {0: Fraction(1)} for i in range(4)})
    rank, nullity = rank_nullity(ident, rho)
    assert rank == 4 and nullity == 0


def test_rank_nullity_numeric_path_matches_exact():
    g = from_generators(S3_GENS)
    table = character_table(g)
    chi2 = [ch for ch in table.irreducibles if ch.degree == 2][0]
    rho = irreducible_rep(g, chi2)       # not rational
    assert not rho.is_rational
    a = FiniteAlgebraMatrix(g, 1, 1, {(0, 0): {0: Fraction(1),
                                               1: Fraction(-1)}})
    rank_n, null_n = rank_nullity(a, rho)
    # oracle: exact on the regular rep restricted by affinity of the rank:
    # rank under chi-isotypic rep equals rank of the dense operator
    op = operator_matrix(a, rho)
    expected_rank_op = np.linalg.matrix_rank(op, tol=1e-9)
    assert abs(null_n * rho.dim - (rho.dim - expected_rank_op)) < 1e-9


def test_rank_jumps_between_circle_and_trivial_characters():
    # rank of 1 - g is 1 under every nontrivial character z of Z/N but 0
    # under the trivial one: the rank is not continuous along z -> 1
    z = FreeAbelianGroup(1)
    a = GroupRingMatrix.from_strings(z, [["1 + -1*a"]])
    n = 8
    target = cyclic_group(n)
    pushed = push_matrix(QuotientMap(z, target, [1]), a)
    table = character_table(target)
    ranks = []
    for chi in table.irreducibles:
        rho = irreducible_rep(target, chi)
        rank, nullity = rank_nullity(pushed, rho)
        ranks.append(round(float(rank)))
        assert abs(float(rank) + float(nullity) - 1) < 1e-9
    assert sorted(ranks) == [0] + [1] * (n - 1)


def test_fk_det_cycle_matches_tree_count():
    # product of nonzero cycle-Laplacian eigenvalues = n * (spanning trees)
    for n in (3, 7, 10):
        gram, rho, _, _ = cycle_gram(n)
        mu = spectral_measure(gram, rho)
        assert abs(fk_det(mu) - (n * n) ** (1.0 / n)) < 1e-9


def test_fk_det_single_atom():
    assert fk_det(SpectralMeasure([(1.0, 5)], 5, 1)) == 1.0


def test_moments_identity_and_zero():
    g = cyclic_group(5)
    rho = regular_rep(g)
    ident = FiniteAlgebraMatrix(g, 3, 3,
                                {(i, i): {0: Fraction(1)} for i in range(3)})
    rows = moments_check(ident, rho, 4)
    assert all(abs(r["moment"] - 3) < 1e-9 for r in rows)
    zero = FiniteAlgebraMatrix(g, 2, 2)
    rows0 = moments_check(zero, rho, 3)
    assert all(abs(r["moment"]) < 1e-12 for r in rows0)


def test_moments_cycle_first_moment():
    gram, rho, _, _ = cycle_gram(9)
    rows = moments_check(gram, rho, 6)
    assert abs(rows[0]["moment"] - 2) < 1e-9


def test_luck_bound_cycle_integer_determinant():
    for n in (2, 3, 8, 17):
        gram, rho, _, _ = cycle_gram(n)
        report = luck_bound_check(gram, rho, 1)
        assert report.passed
        assert report.char_trailing == n * n
        assert abs(report.det ** n - n * n) < 1e-6


def test_luck_bound_identity():
    g = cyclic_group(4)
    rho = regular_rep(g)
    ident = FiniteAlgebraMatrix(g, 2, 2,
                                {(i, i): {0: Fraction(1)} for i in range(2)})
    for d in (1, 2, 3):
        report = luck_bound_check(ident, rho, d)
        assert report.passed and abs(report.det - 1) < 1e-12


def test_luck_bound_free_group_permutation():
    rng = make_rng(42)
    f2 = FreeGroup(2)
    words = [f2.word(w) for w in ("a", "b'", "ab", "1")]
    a = GroupRingMatrix(f2, 2, 2, {
        (0, 0): {words[0]: Fraction(1), words[3]: Fraction(-1)},
        (0, 1): {words[1]: Fraction(1)},
        (1, 1): {words[2]: Fraction(1), words[3]: Fraction(1)}})
    gram = a.adjoint() @ a
    deg = 17
    perms = [rng.sample(range(deg), deg) for _ in range(2)]
    rho = WordPermRep(f2, perms)
    report = luck_bound_check(gram, rho, 1)
    assert report.det >= 1 - 1e-9
    assert report.char_trailing >= 1
    assert report.log_gap < 1e-9


def test_luck_bound_higher_arithmetic_degree():
    # complex one-dimensional representation: no exact route, bound with
    # the declared degree d = 2 must still hold
    g = cyclic_group(3)
    table = character_table(g)
    chi = table.irreducibles[1]
    rho = irreducible_rep(g, chi)
    assert not rho.is_rational
    a = FiniteAlgebraMatrix(g, 1, 1, {(0, 0): {0: Fraction(2),
                                               1: Fraction(-1),
                                               2: Fraction(-1)}})
    report = luck_bound_check(a, rho, 2)
    assert report.passed
    assert abs(report.det - 3.0) < 1e-9
    assert report.bound == pytest.approx(4.0 ** -1)
    assert report.char_trailing is None


def test_luck_bound_requires_integrality():
    g = cyclic_group(4)
    rho = regular_rep(g)
    bad = FiniteAlgebraMatrix(g, 1, 1, {(0, 0): {0: Fraction(1, 2)}})
    with pytest.raises(SpectralError):
        luck_bound_check(bad, rho, 1)


def test_phi_betti_line_complex():
    # C_1 = Q[Z] --(1-g)--> C_0 = Q[Z], pushed mod n: b_0 = b_1 = 1/n
    z = FreeAbelianGroup(1)
    a = GroupRingMatrix.from_strings(z, [["1 + -1*a"]])
    for n in (2, 6, 9):
        target = cyclic_group(n)
        q = QuotientMap(z, target, [1])
        pushed = push_matrix(q, a)
        rho = regular_rep(target)
        b0 = phi_betti(None, pushed, rho)
        b1 = phi_betti(pushed, None, rho)
        assert b0 == Fraction(1, n)
        assert b1 == Fraction(1, n)


def test_phi_betti_zero_boundaries_counts_cells():
    g = cyclic_group(4)
    rho = regular_rep(g)
    zero = FiniteAlgebraMatrix(g, 2, 3)
    assert phi_betti(zero, None, rho) == 3    # everything is homology


def test_phi_betti_rejects_non_complex():
    g = cyclic_group(3)
    rho = regular_rep(g)
    d1 = FiniteAlgebraMatrix(g, 1, 1, {(0, 0): {0: Fraction(1),
                                                1: Fraction(-1)}})
    with pytest.raises(NotAComplex):
        phi_betti(d1, d1, rho)


@pytest.mark.parametrize("group, chi_idx, expected", [
    (cyclic_group(3), 1, {0: 0.0, 1: 0.0, 2: 1.0}),
    (from_generators(S3_GENS), 2, {0: 0.5, 1: 0.5, 2: 1.0}),
])
def test_phi_betti_thresholds_each_boundary_by_its_own_bound(group, chi_idx,
                                                            expected):
    # C_2 --(K N)--> C_1 --(1 - g)--> C_0 over Q[G], N the norm element: a
    # nontrivial irreducible kills N, and K N's operator is rounding noise
    # far below 1e-8 of its own bound 6K but above 1e-8 of d_1's bound 2, so
    # d_2 must have rank 0 in both degrees it enters (the Euler
    # characteristic stays 1 - 1 + 1, and no Betti number is negative)
    rho = irreducible_rep(group, character_table(group).irreducibles[chi_idx])
    assert not rho.is_rational
    big = 10 ** 9
    d1 = FiniteAlgebraMatrix(group, 1, 1, {(0, 0): {
        0: Fraction(1), group.generators[0]: Fraction(-1)}})
    d2 = FiniteAlgebraMatrix(group, 1, 1, {(0, 0): {
        x: Fraction(big) for x in range(group.order)}})
    svals = np.linalg.svd(operator_matrix(d2, rho), compute_uv=False)
    assert 1e-8 * 2 < svals.max() < 1e-8 * big
    bettis = phi_bettis({1: d1, 2: d2}, rho)
    assert bettis == pytest.approx(expected)
    assert [phi_betti(None, d1, rho), phi_betti(d1, d2, rho),
            phi_betti(d2, None, rho)] == [bettis[0], bettis[1], bettis[2]]


def test_pullback_measure_compatibility():
    z = FreeAbelianGroup(1)
    a = GroupRingMatrix.from_strings(z, [["2*1 + -1*a + -1*a'"]])
    c8, c4 = cyclic_group(8), cyclic_group(4)
    hom = GroupHom(c8, c4, {1: 1})
    pushed8 = push_matrix(QuotientMap(z, c8, [1]), a)
    pushed4 = FiniteAlgebraMatrix(c4, 1, 1, {
        key: {hom(g): c for g, c in terms.items()}
        for key, terms in pushed8.entries.items()})
    rho4 = regular_rep(c4)
    mu_pushed = spectral_measure(pushed4, rho4)
    mu_pulled = spectral_measure(pushed8, pullback_rep(hom, rho4))
    # the regular rep of C4 takes the Fourier blocks and the pullback the
    # dense operator, so atom values agree to rounding, not to the last bit
    assert [m for _, m in mu_pushed.atoms] == [m for _, m in mu_pulled.atoms]
    assert max(abs(v1 - v2) for (v1, _), (v2, _)
               in zip(mu_pushed.atoms, mu_pulled.atoms)) < 1e-12


def _dense_columns(nrows, cols):
    out = np.zeros((nrows, len(cols)))
    for j, col in enumerate(cols):
        for r, v in col.items():
            out[r, j] = v
    return out


def _monomial_cases():
    """(name, rep, rational) for each rep constructor on a finite group:
    permutation reps and characters, degree-2 blocks, and what is induced
    or pulled back from both."""
    d4 = dihedral_group(4)
    refl = d4.subgroup_generated([d4.index_of((0, 1))])
    refl_abs, _ = refl.abstract_group()
    sign = irreducible_rep(refl_abs, character_table(refl_abs).irreducibles[1])
    s3 = from_generators(S3_GENS)
    c3 = s3.subgroup_generated([s3.index_of((1, 2, 0))])
    c3_abs, _ = c3.abstract_group()
    omega = [ch for ch in character_table(c3_abs).irreducibles
             if np.max(np.abs(ch.values.imag)) > 0.1][0]
    c8, c4 = cyclic_group(8), cyclic_group(4)
    hom = GroupHom(c8, c4, {1: 1})
    d6, d3 = dihedral_group(6), dihedral_group(3)
    fold = GroupHom(d6, d3, {d6.index_of((1, 0)): d3.index_of((1, 0)),
                             d6.index_of((0, 1)): d3.index_of((0, 1))})
    chi2 = [ch for ch in character_table(d3).irreducibles
            if ch.degree == 2][0]
    d3_in_d6 = d6.subgroup_generated([d6.index_of((2, 0)),
                                      d6.index_of((0, 1))])
    d3_abs, _ = d3_in_d6.abstract_group()
    chi2_sub = [ch for ch in character_table(d3_abs).irreducibles
                if ch.degree == 2][0]
    rot = np.array([[0, -1], [1, 0]], dtype=complex)
    flip = np.array([[1, 0], [0, -1]], dtype=complex)
    return [
        ("regular", regular_rep(d4), True),
        ("coset", coset_rep(s3, s3.subgroup_generated(
            [s3.index_of((1, 0, 2))])), True),
        ("induced sign", induced_rep(d4, refl, sign), True),
        ("induced complex", induced_rep(s3, c3,
                                        irreducible_rep(c3_abs, omega)), False),
        ("pullback", pullback_rep(hom, regular_rep(c4)), True),
        ("irreducible degree 2", irreducible_rep(d3, chi2), False),
        ("induced degree 2", induced_rep(d6, d3_in_d6,
                                         irreducible_rep(d3_abs, chi2_sub)),
         False),
        ("pullback degree 2", pullback_rep(fold, irreducible_rep(d3, chi2)),
         False),
        ("generators", UnitaryRep(d4, {d4.index_of((1, 0)): rot,
                                       d4.index_of((0, 1)): flip}), False),
    ]


def _block_placed_operator(a, rho):
    """Independent oracle: sum over terms c g of c rho(g), placed in block
    (i, j)."""
    d = rho.dim
    out = np.zeros((a.rows * d, a.cols * d), dtype=complex)
    for (i, j), terms in a.entries.items():
        for x, c in terms.items():
            out[i * d:(i + 1) * d, j * d:(j + 1) * d] += \
                complex(c) * rho.matrix(x)
    return out


def test_monomial_reps_multiply_and_match_exact_columns():
    for name, rho, rational in _monomial_cases():
        g = rho.group
        assert rho.is_rational == rational, name
        mats = [rho.matrix(x) for x in range(g.order)]
        for x in range(g.order):
            for y in range(g.order):
                assert np.max(np.abs(mats[x] @ mats[y]
                                     - mats[g.right(y)[x]])) < 1e-12, name
        # mixed signs, so that coefficients cancel inside blocks; the
        # coefficient of element 1 is a half
        a = FiniteAlgebraMatrix(g, 2, 3, {
            (i, j): {x: Fraction((7 * x + 3 * i + j) % 5 - 2, 1 + (x == 1))
                     for x in range(g.order)}
            for i in range(2) for j in range(3)})
        op = operator_matrix(a, rho)
        assert np.max(np.abs(op - _block_placed_operator(a, rho))) < 1e-12, \
            name
        if not rational:
            continue
        nrows, cols = operator_columns_exact(a, rho)
        assert all(v != 0 for col in cols for v in col.values()), name
        assert np.max(np.abs(_dense_columns(nrows, cols) - op)) < 1e-12, name
        # integral coefficients give int entries
        a_int = FiniteAlgebraMatrix(g, 1, 1, {(0, 0): {
            x: Fraction((7 * x) % 5 - 2) for x in range(g.order)}})
        _, cols = operator_columns_exact(a_int, rho)
        assert all(type(v) is int for col in cols for v in col.values()), \
            name
        # two elements that send point 0 to one place, weighted so that
        # their entries cancel there
        pairs = [rho.pair(x) for x in range(g.order)]
        scalar = [1 if blocks is None else int(blocks[0, 0, 0])
                  for _, blocks in pairs]
        hits = [(x, y) for x in range(g.order) for y in range(x)
                if pairs[x][0][0] == pairs[y][0][0]]
        assert bool(hits) == (rho.dim < g.order), name
        for x, y in hits[:1]:
            cancel = FiniteAlgebraMatrix(g, 1, 1, {(0, 0): {
                x: Fraction(scalar[x]), y: Fraction(-scalar[y])}})
            _, cols = operator_columns_exact(cancel, rho)
            assert int(pairs[x][0][0]) not in cols[0], name
            assert np.max(np.abs(_dense_columns(rho.dim, cols)
                                 - operator_matrix(cancel, rho))) < 1e-12


def test_operator_matrix_is_real_for_real_representations():
    # permutation reps give a float64 operator and complex blocks a complex
    # one; either way its eigenvalues are those of the operator assembled
    # from rho.matrix
    s3, c5, d4 = from_generators(S3_GENS), cyclic_group(5), dihedral_group(4)
    omega = [ch for ch in character_table(c5).irreducibles
             if np.max(np.abs(ch.values.imag)) > 0.1][0]
    f2 = FreeGroup(2)
    rng = make_rng(44)
    rot = np.array([[0, -1], [1, 0]], dtype=complex)
    flip = np.array([[1, 0], [0, -1]], dtype=complex)
    cases = [
        (regular_rep(s3), [1, 2], np.float64),
        (coset_rep(s3, s3.subgroup_generated([s3.index_of((1, 0, 2))])),
         [1, 2], np.float64),
        (WordPermRep(f2, [rng.sample(range(30), 30) for _ in range(2)]),
         [f2.word("ab"), f2.word("b'a")], np.float64),
        (irreducible_rep(c5, omega), [1, 2], np.complex128),
        (UnitaryRep(d4, {d4.index_of((1, 0)): rot,
                         d4.index_of((0, 1)): flip}), [1, 5], np.complex128),
    ]
    for rho, (x, y), dtype in cases:
        a = GroupRingMatrix(rho.group, 1, 1, {(0, 0): {
            x: Fraction(1), y: Fraction(-2)}})
        gram = a.adjoint() @ a
        op = operator_matrix(gram, rho)
        assert op.dtype == dtype
        want = np.linalg.eigvalsh(_block_placed_operator(gram, rho))
        assert np.max(np.abs(np.linalg.eigvalsh(op) - want)) < 1e-12


def test_word_perm_rep_multiplies_and_matches_exact_columns():
    rng = make_rng(43)
    f2 = FreeGroup(2)
    rho = WordPermRep(f2, [rng.sample(range(7), 7) for _ in range(2)])
    words = [f2.word(w) for w in ("1", "a", "a'", "b", "b'", "ab", "ba'",
                                  "b'b'", "a'ba")]
    for x in words:
        for y in words:
            assert np.array_equal(rho.matrix(x) @ rho.matrix(y),
                                  rho.matrix(x * y))
    a = GroupRingMatrix(f2, 2, 2, {
        (0, 0): {words[1]: Fraction(1), words[5]: Fraction(-1)},
        (0, 1): {words[2]: Fraction(2), words[3]: Fraction(1)},
        (1, 1): {words[0]: Fraction(3), words[8]: Fraction(-1),
                 words[6]: Fraction(-1)}})
    dense = _dense_columns(*operator_columns_exact(a, rho))
    assert np.array_equal(dense, operator_matrix(a, rho))


def test_pullback_dense_rep_measure_compatibility():
    # the degree-2 irreducible of D3 pulled back along D6 -> D3
    d6, d3 = dihedral_group(6), dihedral_group(3)
    hom = GroupHom(
        d6, d3, {d6.index_of((1, 0)): d3.index_of((1, 0)),
                 d6.index_of((0, 1)): d3.index_of((0, 1))})
    chi2 = [ch for ch in character_table(d3).irreducibles if ch.degree == 2][0]
    rho3 = irreducible_rep(d3, chi2)
    r, s = d6.index_of((1, 0)), d6.index_of((0, 1))
    a = FiniteAlgebraMatrix(d6, 2, 2, {
        (0, 0): {0: Fraction(2), r: Fraction(-1)},
        (0, 1): {s: Fraction(1), d6.right(s)[r]: Fraction(1)},
        (1, 1): {d6.right(r)[r]: Fraction(1), d6.index_of((3, 0)): Fraction(-2)}})
    gram = a.adjoint() @ a
    pushed_entries = {}
    for key, terms in gram.entries.items():
        out = pushed_entries.setdefault(key, {})
        for g, c in terms.items():
            out[hom(g)] = out.get(hom(g), Fraction(0)) + c
    pushed = FiniteAlgebraMatrix(d3, 2, 2, pushed_entries)
    mu_pushed = spectral_measure(pushed, rho3)
    mu_pulled = spectral_measure(gram, pullback_rep(hom, rho3))
    assert [m for _, m in mu_pushed.atoms] == [m for _, m in mu_pulled.atoms]
    assert max(abs(v1 - v2) for (v1, _), (v2, _)
               in zip(mu_pushed.atoms, mu_pulled.atoms)) < 1e-9


def test_unitary_rep_rejects_non_unitary_generator():
    g = cyclic_group(4)
    gen = g.generators[0]
    rot = np.array([[0, -1], [1, 0]], dtype=complex)
    assert UnitaryRep(g, {gen: rot}).dim == 2
    # S rot S^-1 with S = [[1, 1], [0, 1]] also has order 4, so it defines a
    # representation of C4; only the unitarity check rejects it
    skew = np.array([[1, -2], [1, -1]], dtype=complex)
    assert np.allclose(np.linalg.matrix_power(skew, 4), np.eye(2))
    with pytest.raises(SpectralError, match="not unitary"):
        UnitaryRep(g, {gen: skew})


def test_unitary_rep_rejects_images_that_do_not_generate():
    # the square of the generator generates a subgroup of index 2
    with pytest.raises(SpectralError, match="do not generate"):
        UnitaryRep(cyclic_group(4), {2: np.array([[-1.0]])})


def test_unitary_rep_rejects_images_that_break_a_relation():
    # g -> -1 generates C3 and is unitary, but rho(g)^3 = -1 != rho(1): only
    # the edge g^2 -> g^3 = 1 shows it
    with pytest.raises(SpectralError, match="break a relation"):
        UnitaryRep(cyclic_group(3), {1: np.array([[-1.0]])})


def _crt_det_gram(rng, f2, n_mat=1):
    """A gram b^* b of F2 in the shape of criterion 2's instances: each
    entry of b is a difference of two random words (crt_det's permutation
    instances are the 1 x 1 case)."""
    def word():
        return f2.word("".join(rng.choice(["a", "a'", "b", "b'"])
                               for _ in range(rng.randint(1, 4))))
    entries = {}
    for key in itertools.product(range(n_mat), repeat=2):
        w1, w2 = word(), word()
        while w2 == w1:
            w2 = word()
        entries[key] = {w1: 1, w2: -1}
    b = GroupRingMatrix(f2, n_mat, n_mat, entries)
    return b.adjoint() @ b


def test_block_eigensolve_matches_one_dense_eigensolve():
    # the measure is solved one support block at a time, and so is the
    # exact route of luck_bound_check; one eigvalsh of the dense operator
    # is the oracle.  Multi-cycle permutation instances, a UnitaryRep
    # operator of two blocks, and a 2 x 2 gram of one block
    rng = make_rng(46)
    f2 = FreeGroup(2)
    cases = [(_crt_det_gram(rng, f2),
              WordPermRep(f2, [rng.sample(range(size), size)
                               for _ in range(2)])) for size in (25, 75, 131)]
    d4 = dihedral_group(4)
    rho = UnitaryRep(d4, {d4.index_of((1, 0)): np.array([[0, -1], [1, 0]]),
                          d4.index_of((0, 1)): np.array([[1, 0], [0, -1]])})
    b = GroupRingMatrix(d4, 2, 2, {(0, 0): {1: 1, 5: -2}, (1, 1): {2: 1, 0: 1}})
    cases.append((b.adjoint() @ b, rho))
    for gram, rho in cases:
        assert len(_components(operator_matrix(gram, rho))) > 1
    cases.append((_crt_det_gram(rng, f2, 2),
                  WordPermRep(f2, [rng.sample(range(40), 40)
                                   for _ in range(2)])))
    for gram, rho in cases:
        expected = _clustered_oracle(gram, rho)
        mu = spectral_measure(gram, rho)
        assert [m for _, m in mu.atoms] == [m for _, m in expected]
        assert max(abs(v - w) for (v, _), (w, _)
                   in zip(mu.atoms, expected)) < 1e-12
        want = fk_det(SpectralMeasure(expected, rho.dim, gram.cols))
        report = luck_bound_check(gram, rho, 1 if rho.is_rational else 2)
        assert abs(report.det / want - 1) < 1e-12


def test_luck_bound_check_raises_in_the_order_of_its_checks(monkeypatch):
    # the Hermitian test, then the 2**31 guard, then a vanishing
    # coefficient, then the bound, on the block route (a 5-cycle of F2)
    # and on the Fourier route (Z/5)
    f2, c5 = FreeGroup(2), cyclic_group(5)
    cycle = [1, 2, 3, 4, 0]
    cases = [(WordPermRep(f2, [cycle, list(range(5))]),
              f2.word(""), f2.word("a"), f2.word("a'")),
             (regular_rep(c5), 0, 1, 4)]
    fk_det_of = spectral.fk_det
    for rho, one, shift, back in cases:
        def scalar(terms):
            return GroupRingMatrix(rho.group, 1, 1, {(0, 0): terms})
        gram = scalar({one: 2, shift: -1, back: -1})
        assert luck_bound_check(gram, rho, 1).char_trailing == 25
        for c in (1, 2 ** 31):
            with pytest.raises(NotHermitian):
                luck_bound_check(scalar({shift: c}), rho, 1)
        monkeypatch.setattr(spectral, "fk_det", lambda mu: 0.5)
        with pytest.raises(SpectralError, match="operator entries too large"):
            luck_bound_check(scalar({one: 2 ** 31}), rho, 1)
        with pytest.raises(BoundViolated, match="below bound"):
            luck_bound_check(gram, rho, 1)
        with monkeypatch.context() as m:
            m.setattr(spectral, "_trailing_product", lambda blocks, bound:
                      (0, 0))
            with pytest.raises(BoundViolated, match="vanishing"):
                luck_bound_check(gram, rho, 1)
        monkeypatch.setattr(spectral, "fk_det", fk_det_of)


def test_luck_bound_check_builds_and_splits_its_operator_once(monkeypatch):
    # one crt_det permutation instance: the exact columns once, one support
    # split shared by the eigensolve and the characteristic polynomial,
    # and no float operator of its own
    rng = make_rng(47)
    f2 = FreeGroup(2)
    gram = _crt_det_gram(rng, f2)
    rho = WordPermRep(f2, [rng.sample(range(131), 131) for _ in range(2)])
    dense = _dense_columns(*operator_columns_exact(gram, rho)).astype(np.int64)
    assert len(_components(dense)) > 1
    bound = max(2, math.ceil(float(gram.sup_norm_bound()))) ** 131
    rank, coeff = charpoly_trailing(dense, bound)
    calls = collections.Counter()

    def count(module, name):
        call = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return call(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    for module, name in ((spectral, "operator_columns_exact"),
                         (spectral, "operator_matrix"),
                         (spectral, "_components"),
                         (_linalg, "_components")):
        count(module, name)
    report = luck_bound_check(gram, rho, 1)
    assert calls["operator_columns_exact"] == 1
    assert calls["_components"] == 1
    assert calls["operator_matrix"] == 0
    assert (report.rank, report.char_trailing) == (rank, abs(coeff))
