"""Run-time checks proved by a fault they catch: each test injects one
targeted fault upstream of a check and asserts that the check fires."""

import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from l2mult import (FreeAbelianGroup, GroupRingMatrix, QuotientMap,
                    character_of, character_table, cyclic_group,
                    dihedral_group, induced_rep, irreducible_rep,
                    luck_bound_check, moments_check, push_matrix, regular_rep,
                    spectral_measure, symmetric_group, trivial_group,
                    validate_chain)
from l2mult import complexes, finite_groups, runner, spectral
from l2mult.characters import CrossCheckFailed
from l2mult.complexes import ComplexError
from l2mult.finite_groups import NumericalDegeneracy
from l2mult.spectral import (MomentMismatch, NotAComplex, NotHermitian,
                             SpectralError)
from l2mult.word_groups import ChainBroken


def test_moments_check_catches_faulty_fourier_blocks(monkeypatch):
    z = FreeAbelianGroup(1)
    a = GroupRingMatrix.from_strings(z, [["1 + -1*a"]])
    target = cyclic_group(8)
    gram = push_matrix(QuotientMap(z, target, [1]), a.adjoint() @ a)
    rho = regular_rep(target)
    moments_check(gram, rho, 4)
    assert luck_bound_check(gram, rho, 1).log_gap < 1e-8
    fourier = spectral._fourier_blocks

    def shifted(a, moduli):
        blocks = fourier(a, moduli).copy()
        blocks[-1] += 1e-3 * np.eye(a.rows)
        return blocks
    monkeypatch.setattr(spectral, "_fourier_blocks", shifted)
    # the traces come from the permutation rep, not from the blocks
    with pytest.raises(MomentMismatch):
        moments_check(gram, rho, 4)
    # the gap that crt_det reads against the exact CRT coefficient
    assert luck_bound_check(gram, rho, 1).log_gap > 1e-8


def test_fourier_hermitian_gap_catches_one_coefficient():
    # a 2 x 2 gram on Z/6, whose operator the Fourier route never builds:
    # moving any one coefficient a_g^{ij} other than its own mirror
    # a_{g^-1}^{ji}, or adding one where the gram has none, by 1e-6 breaks
    # a = a^*; 1e-12 stays within tolerance.  The gap equals the largest
    # coefficient of a - a^*
    target = cyclic_group(6)
    rho = regular_rep(target)
    b = GroupRingMatrix(target, 2, 2, {(0, 0): {0: 1, 1: -1}, (0, 1): {2: 2},
                                       (1, 1): {3: 1, 5: 1}})
    gram = b.adjoint() @ b
    spots = [((i, j), g) for (i, j), terms in gram.entries.items()
             for g in terms if (i, j, g) != (j, i, target.inv(g))]
    spots.append(((0, 1), 4))
    assert len(spots) == 9
    assert 4 not in gram.entry(0, 1)
    for (i, j), g in spots:
        for eps, fires in ((Fraction(1, 10 ** 6), True),
                           (Fraction(1, 10 ** 12), False)):
            moved = gram + GroupRingMatrix(target, 2, 2, {(i, j): {g: eps}})
            largest = max(abs(c) for terms in (moved - moved.adjoint())
                          .entries.values() for c in terms.values())
            assert spectral._hermitian_gap(moved)[1] == float(largest)
            if fires:
                with pytest.raises(NotHermitian):
                    spectral_measure(moved, rho)
            else:
                spectral_measure(moved, rho)


@pytest.mark.parametrize("coeff", [2 ** 31, 2 ** 70])
def test_luck_bound_check_rejects_operator_entries_past_2_31(coeff):
    # the CRT kernel takes int64 entries below 2**31; a larger coefficient,
    # even one past int64, is refused before the operator is filled
    target = cyclic_group(3)
    rho = regular_rep(target)

    def scalar(c):
        return GroupRingMatrix(target, 1, 1, {(0, 0): {0: Fraction(c)}})
    below = 2 ** 31 - 1
    assert luck_bound_check(scalar(below), rho, 1).char_trailing == below ** 3
    with pytest.raises(SpectralError, match="operator entries too large"):
        luck_bound_check(scalar(coeff), rho, 1)


class _ZeroDraws(random.Random):
    """A generator whose every Gaussian draw is 0: each combination of the
    class sums, and each commutant operator, is the zero matrix."""

    def gauss(self, mu=0.0, sigma=1.0):
        return 0.0


def test_character_table_retries_catch_degenerate_combinations(monkeypatch):
    monkeypatch.setattr(finite_groups, "random",
                        SimpleNamespace(Random=_ZeroDraws))
    # a fresh group: a table cached on the group would skip the loop
    s3 = symmetric_group(3)
    with pytest.raises(NumericalDegeneracy,
                       match="^class-sum eigenspaces not separated after 12 "
                             "attempts$"):
        character_table(s3)


def test_irreducible_rep_retries_catch_degenerate_commutants(monkeypatch):
    s3 = symmetric_group(3)
    chi = [ch for ch in character_table(s3).irreducibles if ch.degree == 2][0]
    monkeypatch.setattr(spectral, "random", SimpleNamespace(Random=_ZeroDraws))
    with pytest.raises(SpectralError,
                       match="^could not realize irreducible of degree 2$"):
        irreducible_rep(s3, chi)


def _sign_of_reflection():
    """Rational case: the sign of a reflection subgroup of D4."""
    d4 = dihedral_group(4)
    sub = d4.subgroup_generated([d4.index_of((0, 1))])
    h_abs, _ = sub.abstract_group()
    return d4, sub, irreducible_rep(h_abs,
                                    character_table(h_abs).irreducibles[1])


def _degree_two_of_d3():
    """Dense case: the degree-2 irreducible of D3 inside D6."""
    d6 = dihedral_group(6)
    sub = d6.subgroup_generated([d6.index_of((2, 0)), d6.index_of((0, 1))])
    h_abs, _ = sub.abstract_group()
    chi = [ch for ch in character_table(h_abs).irreducibles
           if ch.degree == 2][0]
    return d6, sub, irreducible_rep(h_abs, chi)


@pytest.mark.parametrize("case", [_sign_of_reflection, _degree_two_of_d3])
def test_induced_rep_character_check_catches_faulty_cosets(monkeypatch, case):
    q, sub, rho_h = case()
    rho = induced_rep(q, sub, rho_h)
    assert rho.is_rational == (case is _sign_of_reflection)
    identity = sub.abstract_group()[1][0]
    action = spectral._coset_action

    def h_dropped(q_group, h_sub):
        """g t_j = t_i h read as g t_j = t_i: block j goes to block i by
        the identity instead of rho_h(h)."""
        blocks = action(q_group, h_sub)
        return lambda g: [(i, identity) for i, _ in blocks(g)]
    monkeypatch.setattr(spectral, "_coset_action", h_dropped)
    with pytest.raises(CrossCheckFailed, match="induced character"):
        induced_rep(q, sub, rho_h)


@pytest.mark.parametrize("case", [_sign_of_reflection, _degree_two_of_d3])
def test_induced_rep_homomorphism_check_catches_swapped_cosets(monkeypatch,
                                                               case):
    q, sub, rho_h = case()
    action = spectral._coset_action

    def swapped(q_group, h_sub):
        """g t_j = t_i h read as g t_i = t_j h: block i goes to block j.
        The diagonal blocks, and so the character, do not change."""
        blocks = action(q_group, h_sub)

        def inverted(g):
            out = blocks(g)
            for j, (i, h) in enumerate(blocks(g)):
                out[i] = (j, h)
            return out
        return inverted
    monkeypatch.setattr(spectral, "_coset_action", swapped)
    with pytest.raises(CrossCheckFailed, match="not a homomorphism"):
        induced_rep(q, sub, rho_h)


def test_induced_rep_checks_rho_h_on_the_cayley_edges_of_h():
    # rho_h(r^2 s) alone conjugated by a rotation: its trace, and so every
    # character the other checks read, is unchanged, but rho_h is no longer
    # a homomorphism
    q, sub, rho_h = _degree_two_of_d3()
    h_abs, to_local = sub.abstract_group()
    moved = to_local[q.index_of((2, 1))]
    c, s = np.cos(0.7), np.sin(0.7)
    u = np.array([[c, -s], [s, c]])

    def pair_of(h):
        dest, blocks = rho_h.pair(h)
        return (dest, u @ blocks @ u.T) if h == moved else (dest, blocks)
    faulty = spectral.Rep(h_abs, rho_h.dim, pair_of, rho_h.is_rational)
    assert np.allclose(character_of(faulty).values,
                       character_of(rho_h).values)
    induced_rep(q, sub, rho_h)
    with pytest.raises(CrossCheckFailed, match="Cayley edges of H"):
        induced_rep(q, sub, faulty)


def test_finite_group_crosscheck_catches_wrong_irreducible(monkeypatch):
    # rho_H affords the next irreducible in place of chi: it is still a
    # representation, so induced_rep's own checks pass; the twisted Betti
    # numbers then disagree with the isotypic multiplicities of chi
    c4 = cyclic_group(4)
    sub = c4.subgroup([0, 2])
    table = character_table(sub.abstract_group()[0])
    line = {1: GroupRingMatrix(c4, 1, 1, {(0, 0): {0: Fraction(1),
                                                    1: Fraction(-1)}})}
    complexes.finite_group_crosscheck(c4, sub, line, table)
    realize = complexes.irreducible_rep

    def next_irreducible(group, chi):
        irreducibles = character_table(group).irreducibles
        k = irreducibles.index(chi)
        return realize(group, irreducibles[(k + 1) % len(irreducibles)])
    monkeypatch.setattr(complexes, "irreducible_rep", next_irreducible)
    with pytest.raises(CrossCheckFailed,
                       match="deg 0, irreducible 0: 0.0 vs 0.25"):
        complexes.finite_group_crosscheck(c4, sub, line, table)


def test_multiplicities_sum_rule_catches_a_missing_orbit(monkeypatch):
    config = runner.ExperimentConfig.from_json({
        "group": {"family": "free_by_finite", "rank": 2, "h": "cyclic:2",
                  "action": {"0": ["a'", "b'"]}},
        "complex": "tree_semidirect",
        "chain": {"template": "semidirect_mod", "base": 2, "depth": 2},
        "h_words": ["1", "c"]})
    records, _ = runner.run(config)
    assert [r.error for r in records] == [None, None]
    orbits = complexes.galois_orbits
    # the blocks of the last Galois orbit go missing from every degree
    monkeypatch.setattr(complexes, "galois_orbits",
                        lambda table: orbits(table)[:-1])
    records, report = runner.run(config)
    errors = [r.error for r in records]
    assert len(errors) == 2 and all(
        e.startswith("ComplexError: sum rule fails in degree ") for e in errors)
    assert [level["error"] for level in report["levels"]] == errors


# Doubled a-edges with a disc filling each bigon: a two-dimensional free
# F_2-complex, so that d_1 . d_2 is checked.
BIGON_COMPLEX = {
    "cells": {"0": [{"label": "v"}],
              "1": [{"label": "ea"}, {"label": "eb"}, {"label": "ea2"}],
              "2": [{"label": "f"}]},
    "boundaries": {"1": [["1*1 + -1*a", "1*1 + -1*b", "1*1 + -1*a"]],
                   "2": [["1"], ["0"], ["-1*1"]]},
}


BIGON_RUN = {"group": {"family": "free", "rank": 2}, "complex": BIGON_COMPLEX,
             "chain": {"template": "abelianized_mod", "base": 2, "depth": 2}}
DINF_REFLECTION = {"group": {"family": "dihedral_infinite"},
                   "complex": "line_dinf",
                   "chain": {"template": "dihedral", "orders": [2, 4]},
                   "h_words": ["1", "b"]}


def _flip_first_sign_of_d2(kw):
    """The entry of column 0 of d_2 at its least row changes sign."""
    cols = kw["boundaries"][2][1]
    cols.vals[cols.indptr[0]] *= -1


def _flip_first_sign_of_reflection_on_edges(kw):
    _, signs = kw["actions"][1]
    signs[1, 0] = -signs[1, 0]


def _negate_reflection_on_edges(kw):
    """-s on the edges is still an action of C2, but it anticommutes with
    d_1."""
    _, signs = kw["actions"][1]
    signs[1] = -signs[1]


@pytest.mark.parametrize("config, fault, error, message", [
    (BIGON_RUN, _flip_first_sign_of_d2, NotAComplex, "d_1 . d_2 != 0"),
    (DINF_REFLECTION, _flip_first_sign_of_reflection_on_edges, ComplexError,
     "action does not commute with boundary 1"),
    (DINF_REFLECTION, _negate_reflection_on_edges, ComplexError,
     "action does not commute with boundary 1"),
], ids=["d_d", "action", "generator_row"])
def test_chain_complex_validation_catches_faulty_quotients(
        monkeypatch, config, fault, error, message):
    config = runner.ExperimentConfig.from_json(config)
    records, _ = runner.run(config)
    assert [r.error for r in records] == [None, None]
    make = complexes.QuotientComplex

    def faulty(**kw):
        """The fault goes into the arguments before they are validated."""
        fault(kw)
        return make(**kw)
    monkeypatch.setattr(complexes, "QuotientComplex", faulty)
    # the check raises inside each level; run records it and goes on
    records, report = runner.run(config)
    recorded = f"{error.__name__}: {message}"
    assert [r.error for r in records] == [recorded, recorded]
    assert report["levels"][0]["error"] == recorded



@pytest.mark.parametrize("group, rows", [
    (cyclic_group(2), [0, 1]),
    (trivial_group(), [1]),
], ids=["c2_by_rotation", "trivial_by_rotation"])
def test_chain_complex_validation_catches_rows_that_are_no_action(group,
                                                                  rows):
    # the rotation c of F_2 : C_4, element 1 of H, is a signed permutation of
    # order 4 that commutes with d; as the involution of C2, or as the
    # identity of the trivial group, it does not make an action
    from suites import C4_ROTATION
    ctx = runner.ExperimentContext(
        runner.ExperimentConfig.from_json(C4_ROTATION))
    qc = complexes.quotient_complex(ctx.cw, ctx.chain.levels[0],
                                    h_ctx=(ctx.h_abs, ctx.h_elems))
    assert ctx.h_elems[1] == ctx.cw.group.word("c")
    actions = {p: (perms[rows], signs[rows])
               for p, (perms, signs) in qc.actions.items()}
    with pytest.raises(ComplexError,
                       match="the symmetry does not act as a group"):
        complexes.FiniteChainComplex(qc.n_cells, qc.boundaries, group,
                                     actions)

def test_validate_chain_catches_fiber_outside_fiber(monkeypatch):
    config = runner.ExperimentConfig.from_json({
        "group": {"family": "dihedral_infinite"}, "complex": "line_dinf",
        "chain": {"template": "dihedral_reflection", "orders": [2, 4]}})
    chain = runner.ExperimentContext(config).chain
    validate_chain(chain)
    deeper = chain.levels[1]
    target = deeper.via.target
    # {1, ts} in place of {1, s}: ts maps to ts, outside the fiber {1, s}
    monkeypatch.setattr(deeper.fiber, "members",
                        (0, target.index_of((1, 1))))
    with pytest.raises(ChainBroken, match="fiber does not map into fiber"):
        validate_chain(chain)


def test_check_normalizes_catches_a_fiber_h_does_not_normalize(monkeypatch):
    # the Cayley graph of D_inf on a and b, which it acts on freely
    cayley = {"cells": {"0": [{"label": "v"}],
                        "1": [{"label": "ea"}, {"label": "eb"}]},
              "boundaries": {"1": [["1*1 + -1*a", "1*1 + -1*b"]]}}
    config = runner.ExperimentConfig.from_json({
        "group": {"family": "dihedral_infinite"}, "complex": cayley,
        "chain": {"template": "dihedral_reflection", "orders": [2, 4, 8]},
        "h_words": ["1", "b"], "probe_words": ["a", "b"]})
    ctx = runner.ExperimentContext(config)
    assert [ctx.run_level(n).error for n in range(3)] == [None] * 3
    level = ctx.chain.levels[2]
    target = level.via.target
    # {1, ts} in place of {1, s} in D_16: s (ts) s^-1 = t^-1 s lies outside
    monkeypatch.setattr(level, "fiber",
                        target.subgroup([0, target.index_of((1, 1))]))
    records = [ctx.run_level(n) for n in range(3)]
    recorded = "HNotNormalizing: s does not normalize the fiber"
    assert [r.error for r in records] == [None, None, recorded]
    report = runner.assemble_report(ctx, records)
    assert report["levels"][2]["error"] == recorded
    assert report["rel_farber"] == [{
        "error": "HNotNormalizing: level 2: H does not normalize the fiber"}]


def _flip_root_signs(select):
    """A forest whose selected paired vertices have the wrong sign in front
    of their roots."""
    def fault(forest):
        def faulty(d1, perms0, perms1):
            paired, root, coef = forest(d1, perms0, perms1)
            for v in select(d1, paired):
                coef[v] = -coef[v]
            return paired, root, coef
        return faulty
    return fault


def _first_subtree(d1, paired):
    """The vertex of the first pairing and every vertex below it, which
    inherits its sign: one branch of one orbit."""
    paired = paired.tolist()
    top = paired.index(min(e for e in paired if e >= 0))

    def below(u):
        while paired[u] >= 0:
            if u == top:
                return True
            u = next(r for r in d1[paired[u]] if r != u)
        return False
    return [u for u in range(len(paired)) if below(u)]


def _every_paired_vertex(d1, paired):
    """A sign rule wrong everywhere: the same on every orbit, so the action
    still commutes with the wrong boundary."""
    return [v for v, e in enumerate(paired) if e >= 0]


def _forest_without_symmetry(forest):
    """The forest grown as if H were trivial: one root, and the vertices
    that H fixes are paired like free ones."""
    def faulty(d1, perms0, perms1):
        paired, root, coef = forest(d1, perms0[:1], perms1[:1])
        fixed = (perms0[1:] == perms0[0]).any(axis=0)
        assert any(paired[v] >= 0 for v in np.flatnonzero(fixed))
        return paired, root, coef
    return faulty


@pytest.mark.parametrize("config, fault, error, message", [
    (BIGON_RUN, _flip_root_signs(_first_subtree), NotAComplex,
     "d_1 . d_2 != 0"),
    (DINF_REFLECTION, _flip_root_signs(_first_subtree), ComplexError,
     "action does not commute with boundary 1"),
    (DINF_REFLECTION, _forest_without_symmetry, ComplexError,
     "action is not a permutation"),
    (DINF_REFLECTION, _flip_root_signs(_every_paired_vertex), ComplexError,
     "the Morse flow does not vanish on the boundary of a paired edge"),
], ids=["root_sign_d_d", "root_sign_action", "fixed_vertex", "sign_rule"])
def test_morse_reduction_checks_catch_faulty_forests(
        monkeypatch, config, fault, error, message):
    config = runner.ExperimentConfig.from_json(config)
    records, _ = runner.run(config)
    assert [r.error for r in records] == [None, None]
    monkeypatch.setattr(complexes, "_spanning_forest",
                        fault(complexes._spanning_forest))
    # the reduced complex fails a check; run records it and goes on
    records, report = runner.run(config)
    recorded = f"{error.__name__}: {message}"
    assert [r.error for r in records] == [recorded, recorded]
    assert report["levels"][1]["error"] == recorded


def _rank_moved(on_orbit):
    """The rank of d_1 on the Galois orbit with weights t is one larger
    where ``on_orbit(t)`` holds."""
    def fault(image_rank):
        return lambda elim, action, t: \
            image_rank(elim, action, t) + on_orbit(t)
    return fault


def _weight_moved(orbits):
    """The trivial orbit's weight on the class of element 1 is one
    larger."""
    def moved(table):
        out = orbits(table)
        out[0][1][table.classes.class_of[1]] += 1
        return out
    return moved


@pytest.mark.parametrize("patched, fault, recorded", [
    # chi = i and -i form one Galois orbit with t(1) = 2: its block of H_0
    # gets dimension 0 - 1, and each chi occurs dim / 2 times
    ("_image_rank", _rank_moved(lambda t: t[0] == 2),
     "NotIntegral: multiplicity -1/2 of irreducible 2 in H_0 is not "
     "integral"),
    # the sign character is a Galois orbit of its own and of degree 1, so
    # every dimension divides; only the rank sum rule sees the fault
    ("_image_rank", _rank_moved(lambda t: t[0] == 1 and min(t) < 0),
     "ComplexError: block ranks of d_1 do not sum to its rank"),
    # element 1 is the rotation c, which fixes 2 of the 4 critical
    # vertices: the trivial block of C_0 would have dimension 14/4
    ("galois_orbits", _weight_moved,
     "NotIntegral: isotypic block of irreducible 0 in C_0 has no integral "
     "dimension"),
], ids=["divisibility", "rank_sum_rule", "block_dimension"])
def test_multiplicity_checks_catch_faulty_blocks(monkeypatch, patched, fault,
                                                 recorded):
    from suites import C4_ROTATION
    config = runner.ExperimentConfig.from_json(C4_ROTATION)
    records, _ = runner.run(config)
    assert [r.error for r in records] == [None] * 3
    # chi = i and -i form one Galois orbit: each occurs dim / 2 times
    assert [r.raw[(1, 2)] for r in records] == [2, 5, 17]
    monkeypatch.setattr(complexes, patched, fault(getattr(complexes, patched)))
    records, report = runner.run(config)
    assert [r.error for r in records] == [recorded] * 3
    assert [level["error"] for level in report["levels"]] == [recorded] * 3
