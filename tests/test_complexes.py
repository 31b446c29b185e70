from fractions import Fraction

import numpy as np
import pytest

from l2mult import (EquivariantCWData, FiniteIndexSubgroup, FreeAbelianGroup,
                    FreeByFiniteGroup, FreeGroup, GroupRingMatrix,
                    InfiniteDihedralGroup, OrbitCell,
                    QuotientMap, abelian_group, builtin_line_Dinf,
                    builtin_line_Z, builtin_rose_free,
                    builtin_tree_free_by_finite, character_table,
                    cw_from_json, cyclic_group, dihedral_group,
                    finite_group_crosscheck, from_generators,
                    quotient_complex)
from l2mult import _linalg, complexes, spectral
from l2mult._linalg import ColumnStore
from l2mult.characters import HNotNormalizing, finite_word_subgroup
from l2mult.complexes import (ComplexError, FiniteChainComplex, NotFree,
                              galois_orbits, materialize_regular,
                              morse_reduce)
from l2mult.runner import ExperimentConfig, ExperimentContext, build_chain
from l2mult.spectral import NotAComplex
from l2mult.word_groups import FiniteAlgebraMatrix, UnsupportedFamily

from conftest import make_rng
from oracles import (forest_by_queue, freeness_oracle, graph_homology_oracle,
                     hodge_trace, quotient_by_dicts)

S3_GENS = [(1, 0, 2), (0, 2, 1)]


def line_z_level(n):
    cw = builtin_line_Z(FreeAbelianGroup(1))
    target = cyclic_group(n)
    q = QuotientMap(cw.group, target, [1 % n])
    return cw, FiniteIndexSubgroup(q, target.subgroup([0]))


def dinf_level(m, reflection=False):
    cw = builtin_line_Dinf(InfiniteDihedralGroup())
    target = dihedral_group(m)
    q = QuotientMap(cw.group, target,
                    [target.index_of((1 % m, 0)), target.index_of((0, 1))])
    members = [0, target.index_of((0, 1))] if reflection else [0]
    return cw, FiniteIndexSubgroup(q, target.subgroup(members))


def test_line_z_quotient_is_cycle():
    for n in (1, 2, 8):
        cw, level = line_z_level(n)
        qc = quotient_complex(cw, level)
        assert qc.n_cells == {0: n, 1: n}
        assert qc.betti_numbers() == {0: 1, 1: 1}


def test_line_dinf_quotient_counts():
    for m in (2, 4, 8):
        cw, level = dinf_level(m)
        qc = quotient_complex(cw, level)
        # circle with 2m edges and 2m vertices in two m-orbits
        assert qc.n_cells == {0: 2 * m, 1: 2 * m}
        assert [len(o.cell_reps) for o in qc.orbits[0]] == [m, m]
        assert qc.betti_numbers() == {0: 1, 1: 1}


def test_line_dinf_reflection_fiber_not_free():
    cw, level = dinf_level(4, reflection=True)
    with pytest.raises(NotFree):
        quotient_complex(cw, level)


def _freeness_corpus():
    """(complex, level, H words) triples: D_inf over Dih_2m for m = 1..8
    with every fiber that two elements generate, and the free-by-finite
    tree over its depth-3 quotient with 60 random two-element fibers; each
    without H and with the order-2 H of its group.  First, D_inf onto C2
    with b in the kernel, where a vertex stabilizer collapses."""
    cw = builtin_line_Dinf(InfiniteDihedralGroup())
    c2 = cyclic_group(2)
    yield cw, FiniteIndexSubgroup(QuotientMap(cw.group, c2, [1, 0]),
                                  c2.subgroup([0])), None
    for m in range(1, 9):
        cw, base = dinf_level(m)
        d = cw.group
        q = base.via.target
        fibers = {q.subgroup_generated([x, y]).members
                  for x in range(q.order) for y in range(x, q.order)}
        for members in sorted(fibers):
            level = FiniteIndexSubgroup(base.via, q.subgroup(members))
            yield cw, level, None
            yield cw, level, [d.identity(), d.word("b")]
    tree = builtin_tree_free_by_finite(
        FreeByFiniteGroup(2, cyclic_group(2), {1: ["a'", "b'"]}))
    g = tree.group
    qmap = build_chain({"template": "semidirect_mod", "depth": 3},
                       g).levels[2].via
    q = qmap.target
    rng = make_rng(12)
    for _ in range(60):
        fiber = q.subgroup_generated([rng.randrange(q.order) for _ in "xy"])
        level = FiniteIndexSubgroup(qmap, fiber)
        yield tree, level, None
        yield tree, level, [g.identity(), g.word("c")]


def test_freeness_from_the_fill_matches_conjugation_oracle():
    outcomes = dict.fromkeys(["free", "survives", "collapses",
                              "HNotNormalizing"], 0)
    for cw, level, h_words in _freeness_corpus():
        q = level.via.target
        fiber = level.fiber.member_set
        expected = freeness_oracle(cw, level)
        try:
            qc = quotient_complex(
                cw, level,
                h_ctx=finite_word_subgroup(h_words) if h_words else None)
        except HNotNormalizing:
            # H is checked first; some h must move the fiber
            him = [level.via.evaluate(w) for w in h_words]
            assert any(q.right(q.inv(h))[q.right(k)[h]] not in fiber
                       for h in him for k in fiber)
            outcomes["HNotNormalizing"] += 1
        except NotFree as exc:
            assert str(exc) == expected
            outcomes["collapses" if "collapses" in expected
                     else "survives"] += 1
        else:
            assert expected is None
            # a free action fills every double coset S u K completely
            for p in cw.dims():
                for cell, orbit in zip(cw.cells[p], qc.orbits[p]):
                    assert len(orbit.cell_reps) * len(cell.stabilizer) * \
                        len(fiber) == q.order
            outcomes["free"] += 1
    assert min(outcomes.values()) > 0


def test_collapsing_symmetry_group_is_rejected():
    # b maps to the identity of C2, so H = {1, b} collapses in the quotient
    cw = builtin_line_Dinf(InfiniteDihedralGroup())
    d = cw.group
    c2 = cyclic_group(2)
    level = FiniteIndexSubgroup(QuotientMap(d, c2, [1, 0]), c2.subgroup([0]))
    with pytest.raises(ComplexError) as info:
        quotient_complex(cw, level, h_ctx=finite_word_subgroup(
            [d.identity(), d.word("b")]))
    assert type(info.value) is ComplexError
    assert str(info.value) == "symmetry group collapses in the quotient"


def test_rose_quotient_euler_characteristic():
    cw = builtin_rose_free(FreeGroup(2))
    for moduli in ((2, 2), (4, 2), (4, 4)):
        target = abelian_group(moduli)
        units = []
        for i in range(2):
            e = [0, 0]
            e[i] = 1
            units.append(target.index_of(tuple(e)))
        level = FiniteIndexSubgroup(QuotientMap(cw.group, target, units),
                                    target.subgroup([0]))
        qc = quotient_complex(cw, level)
        n = target.order
        assert qc.n_cells == {0: n, 1: 2 * n}
        assert qc.betti_numbers() == {0: 1, 1: n + 1}


def test_dinf_action_traces_and_multiplicities():
    for m in (2, 4, 16):
        cw, level = dinf_level(m)
        d = cw.group
        qc = quotient_complex(cw, level,
                              h_ctx=finite_word_subgroup(
                                  [d.identity(), d.word("b")]))
        table = character_table(qc.sym_group)
        report = qc.multiplicities(table)
        assert report.traces[(0, 1)] == 1
        assert report.traces[(1, 1)] == -1
        assert report.traces[(0, 0)] == report.betti[0] == 1
        # multiplicity table is independent of m: (1, 0, 0, 1)
        assert report.multiplicities == {(0, 0): 1, (0, 1): 0,
                                         (1, 0): 0, (1, 1): 1}
        # Hodge oracle agrees with the exact elimination route
        for p in (0, 1):
            for h in (0, 1):
                assert abs(hodge_trace(qc, h, p) -
                           float(report.traces[(p, h)])) < 1e-8


def test_exact_traces_match_hodge_oracle_randomized():
    # many reflections and levels: the exact elimination route must agree
    # with the floating harmonic-projector route everywhere
    cases = 0
    for m in (2, 3, 4, 5, 6, 8, 12):
        for reflection in ("b", "ab", "aab"):
            cw, level = dinf_level(m)
            d = cw.group
            qc = quotient_complex(cw, level,
                                  h_ctx=finite_word_subgroup(
                                      [d.identity(), d.word(reflection)]))
            traces = qc.multiplicities(character_table(qc.sym_group)).traces
            for p in (0, 1):
                for h in range(qc.sym_group.order):
                    exact = float(traces[(p, h)])
                    assert abs(hodge_trace(qc, h, p) - exact) < 1e-7
                    cases += 1
    assert cases == 7 * 3 * 4


def test_orbifold_euler_characteristic():
    cases = [dinf_level(2), dinf_level(4), dinf_level(8), line_z_level(6)]
    for cw, level in cases:
        qc = quotient_complex(cw, level)
        lhs = sum((-1) ** p * qc.n_cells[p] for p in qc.dims())
        rhs = Fraction(0)
        for p in cw.dims():
            for cell in cw.cells[p]:
                rhs += (-1) ** p * Fraction(1, len(cell.stabilizer))
        assert lhs == level.index * rhs


def test_tree_free_by_finite_quotients():
    c2 = cyclic_group(2)
    cw = builtin_tree_free_by_finite(
        FreeByFiniteGroup(2, c2, {1: ["a'", "b'"]}))
    g = cw.group
    from l2mult import semidirect_vector_group
    for n in (1, 2):
        mod = 2 ** n
        target = semidirect_vector_group([mod] * 2, c2,
                                         {1: [[-1, 0], [0, -1]]})
        images = [target.index_of(((1, 0), 0)), target.index_of(((0, 1), 0)),
                  target.index_of(((0, 0), 1))]
        level = FiniteIndexSubgroup(QuotientMap(g, target, images),
                                    target.subgroup([0]))
        qc = quotient_complex(cw, level,
                              h_ctx=finite_word_subgroup(
                                  [g.identity(), g.word("c")]))
        assert qc.n_cells == {0: 4 ** n, 1: 2 * 4 ** n}
        assert qc.betti_numbers() == {0: 1, 1: 4 ** n + 1}
        report = qc.multiplicities(character_table(qc.sym_group))
        assert report.traces[(1, 1)] == -3
        assert report.multiplicities[(1, 0)] + \
            report.multiplicities[(1, 1)] == 4 ** n + 1
        for p in (0, 1):
            for h in (0, 1):
                assert abs(hodge_trace(qc, h, p) -
                           float(report.traces[(p, h)])) < 1e-7


def test_tree_rejects_non_monomial_action():
    s3 = from_generators(S3_GENS)
    # an order-2 automorphism of F_2 swapping the generators is monomial but
    # not diagonal; the built-in tree requires the diagonal form
    group = FreeByFiniteGroup(2, cyclic_group(2), {1: ["b", "a"]})
    with pytest.raises(UnsupportedFamily):
        builtin_tree_free_by_finite(group)


def test_invariance_check_rejects_bad_boundary():
    d = InfiniteDihedralGroup()
    ident = d.identity()
    s = d.word("b")
    cells0 = [OrbitCell((ident, s), (1, 1), "v")]
    cells1 = [OrbitCell((ident,), (1,), "e")]
    # boundary t - 1 is not invariant under right multiplication by s on the
    # stabilizer side: e_v (t - 1) s != +- e_v (t - 1)
    bad = GroupRingMatrix(d, 1, 1, {(0, 0): {d.word("a"): Fraction(1),
                                             ident: Fraction(-1)}})
    cells1_stab = [OrbitCell((ident, s), (1, 1), "e")]
    with pytest.raises(ComplexError):
        EquivariantCWData(d, {0: cells0, 1: cells1_stab}, {1: bad})


def test_stabilizer_must_be_closed():
    d = InfiniteDihedralGroup()
    with pytest.raises(ComplexError):
        OrbitCell((d.identity(), d.word("a")), (1, 1), "v")   # t has infinite order
        EquivariantCWData(d, {0: [OrbitCell((d.identity(), d.word("a")),
                                            (1, 1), "v")]}, {})


# the plane as a Z^2-complex
TORUS = {
    "cells": {
        "0": [{"stabilizer": ["1"], "signs": [1], "label": "v"}],
        "1": [{"stabilizer": ["1"], "signs": [1], "label": "ea"},
              {"stabilizer": ["1"], "signs": [1], "label": "eb"}],
        "2": [{"stabilizer": ["1"], "signs": [1], "label": "f"}],
    },
    "boundaries": {
        "1": [["1*1 + -1*a", "1*1 + -1*b"]],
        "2": [["1*1 + -1*b"], ["-1*1 + 1*a"]],
    },
}


def test_user_supplied_torus_complex():
    # two-dimensional input through the JSON format: the plane as a
    # Z^2-complex, quotients are n x n tori with betti (1, 2, 1)
    z2 = FreeAbelianGroup(2)
    cw = cw_from_json(z2, TORUS)
    for n in (2, 3, 4):
        target = abelian_group([n, n])
        units = [target.index_of((1, 0)), target.index_of((0, 1))]
        level = FiniteIndexSubgroup(QuotientMap(z2, target, units),
                                    target.subgroup([0]))
        qc = quotient_complex(cw, level)
        assert qc.n_cells == {0: n * n, 1: 2 * n * n, 2: n * n}
        assert qc.betti_numbers() == {0: 1, 1: 2, 2: 1}
        euler = sum((-1) ** p * qc.n_cells[p] for p in qc.dims())
        assert euler == 0


def test_quotients_without_h_words_carry_the_trivial_group():
    z2 = FreeAbelianGroup(2)
    torus = cw_from_json(z2, TORUS)
    target = abelian_group([3, 3])
    torus_level = FiniteIndexSubgroup(
        QuotientMap(z2, target, target.generators), target.subgroup([0]))
    for cw, level in ((torus, torus_level), line_z_level(6)):
        qc = quotient_complex(cw, level)
        assert qc.sym_group.order == 1
        report = qc.multiplicities(character_table(qc.sym_group))
        assert report.betti == qc.betti_numbers()
    # a degree with no cells: (|H|, 0) action arrays, the same Betti numbers
    z = FreeAbelianGroup(1)
    circle = cw_from_json(z, {"cells": {"0": [{"label": "v"}],
                                        "1": [{"label": "e"}], "2": []},
                              "boundaries": {"1": [["1*1 + -1*a"]]}})
    c4 = cyclic_group(4)
    qc = quotient_complex(circle, FiniteIndexSubgroup(
        QuotientMap(z, c4, [1]), c4.subgroup([0])))
    assert [a.shape for a in qc.actions[2]] == [(1, 0), (1, 0)]
    assert qc.betti_numbers() == {0: 1, 1: 1, 2: 0}
    report = qc.multiplicities(character_table(qc.sym_group))
    assert report.betti == {0: 1, 1: 1, 2: 0}


# the JSON of the built-in D_inf line
DINF_LINE = {
    "cells": {
        "0": [{"stabilizer": ["1", "b"], "signs": [1, 1], "label": "v0"},
              {"stabilizer": ["1", "ab"], "signs": [1, 1], "label": "v1"}],
        "1": [{"stabilizer": ["1"], "signs": [1], "label": "e"}],
    },
    "boundaries": {"1": [["-1*1"], ["1*1"]]},
}


def test_cw_from_json_reads_the_dinf_line():
    builtin = builtin_line_Dinf(InfiniteDihedralGroup())
    cw = cw_from_json(builtin.group, DINF_LINE)
    assert cw.cells == builtin.cells
    assert [(p, m.rows, m.cols, m.entries) for p, m in cw.boundaries.items()] \
        == [(p, m.rows, m.cols, m.entries)
            for p, m in builtin.boundaries.items()]


def test_action_commutes_validation():
    # corrupting an action sign must be caught
    cw, level = dinf_level(4)
    d = cw.group
    qc = quotient_complex(cw, level, h_ctx=finite_word_subgroup(
        [d.identity(), d.word("b")]))
    perms, signs = qc.actions[1]
    bad_signs = signs.copy()
    bad_signs[1, 0] = -bad_signs[1, 0]
    actions = {**qc.actions, 1: (perms, bad_signs)}
    with pytest.raises(ComplexError):
        FiniteChainComplex(qc.n_cells, qc.boundaries, qc.sym_group, actions)


def test_chain_complex_checks_the_action_arrays():
    cw, level = dinf_level(4)
    d = cw.group
    qc = quotient_complex(cw, level, h_ctx=finite_word_subgroup(
        [d.identity(), d.word("b")]))
    assert all(a.shape == (2, qc.n_cells[p]) and a.dtype == np.int64
               for p, arrays in qc.actions.items() for a in arrays)
    perms, signs = qc.actions[1]
    # a degree without rows, and a degree with the row of h = s dropped
    no_edges = {0: qc.actions[0]}
    one_row = {0: qc.actions[0], 1: (perms[:1], signs[:1])}
    for actions, message in ((no_edges, "does not cover the degrees"),
                             (one_row, "action on degree 1 is not")):
        with pytest.raises(ComplexError, match=message):
            FiniteChainComplex(qc.n_cells, qc.boundaries, qc.sym_group,
                               actions)
    # without a group, H is trivial and acts by identity rows
    plain = FiniteChainComplex(qc.n_cells, qc.boundaries)
    assert plain.sym_group.order == 1
    assert plain.actions[1][0].tolist() == [list(range(qc.n_cells[1]))]
    # a group of order 2 needs its own rows
    with pytest.raises(ComplexError, match="action on degree 0 is not"):
        FiniteChainComplex(qc.n_cells, qc.boundaries, qc.sym_group)


def test_cell_traces_count_fixed_cells_with_their_signs():
    # the interval [v0, v1] with C2 swapping its ends: the flip fixes the
    # edge with sign -1, so Tr(s | C_1) = -1, and H_0 is the trivial rep
    c2 = cyclic_group(2)
    actions = {0: (np.array([[0, 1], [1, 0]]), np.ones((2, 2), dtype=int)),
               1: (np.array([[0], [0]]), np.array([[1], [-1]]))}
    interval = FiniteChainComplex({0: 2, 1: 1}, {1: (2, [{0: -1, 1: 1}])},
                                  c2, actions)
    assert [interval.cell_traces(p) for p in (0, 1)] == [[2, 0], [1, -1]]
    report = interval.multiplicities(character_table(c2))
    assert report.multiplicities == {(0, 0): 1, (0, 1): 0, (1, 0): 0,
                                     (1, 1): 0}
    assert report.traces[(0, 1)] == 1


def test_chain_complex_rejects_nonzero_dd():
    # d_1 = d_2 = [1] on one cell per degree: d_1 . d_2 = [1] != 0
    with pytest.raises(NotAComplex):
        FiniteChainComplex({0: 1, 1: 1, 2: 1},
                           {1: (1, [{0: 1}]), 2: (1, [{0: 1}])})


def _free_complex(group, columns):
    """1 x k boundary over the group algebra from element-index columns."""
    entries = {}
    for j, terms in enumerate(columns):
        entries[(0, j)] = {g: Fraction(c) for g, c in terms.items()}
    return FiniteAlgebraMatrix(group, 1, len(columns), entries)


def test_finite_group_crosscheck_cyclic4():
    g = cyclic_group(4)
    sub = g.subgroup([0, 2])
    h_abs, _ = sub.abstract_group()
    table = character_table(h_abs)
    boundary = _free_complex(g, [{0: 1, 1: -1}])
    out = finite_group_crosscheck(g, sub, {1: boundary}, table)
    for (p, chi_idx), (lhs, rhs) in out.items():
        assert abs(lhs - rhs) < 1e-7


def test_finite_group_crosscheck_s3_cayley():
    g = from_generators(S3_GENS)
    boundary = _free_complex(g, [{0: 1, g.generators[0]: -1},
                                 {0: 1, g.generators[1]: -1}])
    for gen in (g.generators[0], g.index_of((2, 0, 1))):
        sub = g.subgroup_generated([gen])
        h_abs, _ = sub.abstract_group()
        table = character_table(h_abs)
        out = finite_group_crosscheck(g, sub, {1: boundary}, table)
        assert out


def test_finite_group_crosscheck_trivial_group_is_betti():
    g = cyclic_group(1)
    sub = g.subgroup([0])
    h_abs, _ = sub.abstract_group()
    table = character_table(h_abs)
    boundary = FiniteAlgebraMatrix(g, 1, 2, {(0, 0): {0: Fraction(1)}})
    out = finite_group_crosscheck(g, sub, {1: boundary}, table)
    # both routes equal the plain Betti numbers: b_0 = 0, b_1 = 1
    assert abs(out[(0, 0)][0] - 0) < 1e-9
    assert abs(out[(1, 0)][0] - 1) < 1e-9


def test_finite_group_crosscheck_three_term_cyclic():
    g = cyclic_group(6)
    d1 = _free_complex(g, [{0: 1, 1: -1}])
    norm = {i: Fraction(1) for i in range(6)}
    d2 = FiniteAlgebraMatrix(g, 1, 1, {(0, 0): norm})
    sub = g.subgroup([0, 3])
    h_abs, _ = sub.abstract_group()
    table = character_table(h_abs)
    out = finite_group_crosscheck(g, sub, {1: d1, 2: d2}, table)
    assert out


def test_finite_group_crosscheck_takes_each_rank_once(monkeypatch):
    # per irreducible: one twisted rank per boundary and one per adjacent
    # pair (d_p . d_{p+1} = 0), on every instance of criterion 3's corpus
    from test_acceptance import _crosscheck_corpus
    calls = []
    operator_rank = spectral._operator_rank

    def counting_rank(a, rho):
        calls.append(a)
        return operator_rank(a, rho)

    monkeypatch.setattr(spectral, "_operator_rank", counting_rank)
    for group, members, boundaries in _crosscheck_corpus():
        sub = group.subgroup(members)
        table = character_table(sub.abstract_group()[0])
        pairs = sum(p + 1 in boundaries for p in boundaries)
        calls.clear()
        finite_group_crosscheck(group, sub, boundaries, table)
        assert len(calls) == \
            (len(boundaries) + pairs) * len(table.irreducibles)


def test_quotient_boundaries_and_elimination_stay_in_ints(monkeypatch):
    from suites import KLEIN_SWAP, _dinf_quotient, _tree_quotient
    # F_2 : (C2 x C2) at level 1 keeps a critical vertex orbit for each
    # stabilizer of order 2, so every Galois block of d_1 has nonzero rank
    klein = [qc for name, _, qc in _chain_quotients(("klein", KLEIN_SWAP))
             if name == "klein level 1"]
    involutions = (_dinf_quotient(8), _tree_quotient(2))
    image_rank, calls = complexes._image_rank, []

    def recorded(elim, action, t):
        calls.append((elim, image_rank(elim, action, t)))
        return calls[-1][1]
    monkeypatch.setattr(complexes, "_image_rank", recorded)
    ranks = []
    for qc in (*involutions, *klein):
        for _, cols in qc.boundaries.values():
            assert {type(v) for col in cols for v in col.values()} == {int}
        table = character_table(qc.sym_group)
        calls.clear()
        report = qc.multiplicities(table)
        # one image rank per boundary and Galois orbit
        assert len(calls) == len(galois_orbits(table)) * len(qc.boundaries)
        for elim, _ in calls:
            # the plain elimination of the reduced d; of rank 0, it stores
            # no column
            assert {type(v) for col in elim._cols for v in col.values()} \
                == ({int} if elim.rank else set())
        # the traces stay exact Fractions
        assert all(type(t) is Fraction for t in report.traces.values())
        ranks.append([rank for _, rank in calls])
    assert ranks[2] == [4, 1, 1, 1]
    for qc, block_ranks in zip(involutions, ranks):
        # the Morse reduction leaves only the vertices fixed by the
        # involution, which span no sign block, so d_1 has rank 0 there
        fixed = morse_reduce(qc).n_cells[0]
        assert block_ranks == [fixed - 1, 0]


def test_quotient_action_is_a_left_action():
    # S3 permutes the generators of F_3, so H is not abelian and a right
    # action, row(a) row(b) = row(b a), would differ from a left one
    from suites import S3_PERMUTING
    for name, ctx, qc in _chain_quotients(("s3", S3_PERMUTING)):
        h = qc.sym_group
        assert h.order == 6
        for perms, signs in qc.actions.values():
            for a in range(h.order):
                for b in range(h.order):
                    ab = h.products([a], b)[0]
                    assert (perms[ab] == perms[a][perms[b]]).all(), name
                    assert (signs[ab] == signs[b] * signs[a][perms[b]]).all()


DINF_CHAIN = {"group": {"family": "dihedral_infinite"}, "complex": "line_dinf",
              "chain": {"template": "dihedral",
                        "orders": [2 ** k for k in range(1, 12)]},
              "h_words": ["1", "b"]}
FBF_CHAIN = {"group": {"family": "free_by_finite", "rank": 2, "h": "cyclic:2",
                       "action": {"0": ["a'", "b'"]}},
             "complex": "tree_semidirect",
             "chain": {"template": "semidirect_mod", "base": 2, "depth": 6},
             "h_words": ["1", "c"]}


def _chain_quotients(*configs):
    """(name, context, quotient complex) for every level of each chain."""
    for name, config in configs:
        ctx = ExperimentContext(ExperimentConfig.from_json(config))
        for n, level in enumerate(ctx.chain.levels):
            yield f"{name} level {n}", ctx, quotient_complex(
                ctx.cw, level, h_ctx=(ctx.h_abs, ctx.h_elems))


def test_block_ranks_match_union_find_oracle():
    # every level of the graph chains, against union-find and Lefschetz
    from suites import KLEIN_SWAP, S3_PERMUTING
    for name, ctx, qc in _chain_quotients(("dinf", DINF_CHAIN),
                                          ("fbf", FBF_CHAIN),
                                          ("klein", KLEIN_SWAP),
                                          ("s3", S3_PERMUTING)):
        report = qc.multiplicities(ctx.table)
        betti, mult, traces = graph_homology_oracle(qc, ctx.table)
        assert report.betti == betti, name
        assert qc.betti_numbers() == betti, name
        assert report.multiplicities == mult, name
        assert report.traces == traces, name
    with pytest.raises(ValueError):
        graph_homology_oracle(FiniteChainComplex({0: 1, 1: 1, 2: 1}, {}), None)


def _lefschetz_numbers(c: FiniteChainComplex) -> list:
    """sum_p (-1)^p Tr(h | C_p) for every h of the symmetry group, the Euler
    characteristic at h = 1."""
    traces = [c.cell_traces(p) for p in c.dims()]
    return [sum((-1) ** p * t[h] for p, t in zip(c.dims(), traces))
            for h in range(c.sym_group.order)]


def _check_morse_reduction(c: FiniteChainComplex, name: str):
    reduced = morse_reduce(c)
    assert reduced.betti_numbers() == c.betti_numbers(), name
    assert _lefschetz_numbers(reduced) == _lefschetz_numbers(c), name
    assert reduced.sym_group is c.sym_group, name
    return reduced


def test_morse_reduction_keeps_betti_and_lefschetz_numbers():
    from suites import C4_ROTATION, KLEIN_SWAP
    for name, ctx, qc in _chain_quotients(("dinf", DINF_CHAIN),
                                          ("fbf", FBF_CHAIN),
                                          ("c4", C4_ROTATION),
                                          ("klein", KLEIN_SWAP)):
        reduced = _check_morse_reduction(qc, name)
        # connected graphs with an H-fixed vertex: every free vertex orbit
        # is paired, and only the vertices with a stabilizer stay critical
        fixed = sum((qc.actions[0][0] == range(qc.n_cells[0])).sum(axis=0)
                    > 1)
        assert reduced.n_cells[0] == fixed, name
        assert reduced.n_cells[1] == \
            qc.n_cells[1] - (qc.n_cells[0] - fixed), name
        if name.startswith("fbf"):
            # the 2-torsion points of (Z/2^n)^2, fixed by the inversion c
            assert fixed == 4, name
    # a two-dimensional JSON complex: the n x n torus, no symmetry group
    z2 = FreeAbelianGroup(2)
    cw = cw_from_json(z2, TORUS)
    for n in (2, 3, 4):
        target = abelian_group([n, n])
        level = FiniteIndexSubgroup(QuotientMap(z2, target, target.generators),
                                    target.subgroup([0]))
        qc = quotient_complex(cw, level)
        reduced = _check_morse_reduction(qc, f"torus {n}")
        # one vertex; the paired edges leave the faces' boundaries
        assert reduced.n_cells == {0: 1, 1: n * n + 1, 2: n * n}
        assert reduced.betti_numbers() == {0: 1, 1: 2, 2: 1}
    # the three-term free complex of C6 with H = {0, 3} acting freely: one
    # vertex orbit is the root, and d_2 keeps its critical rows
    g = cyclic_group(6)
    d1 = _free_complex(g, [{0: 1, 1: -1}])
    d2 = FiniteAlgebraMatrix(g, 1, 1, {(0, 0): {i: Fraction(1)
                                                for i in range(6)}})
    c6 = materialize_regular(g, {1: d1, 2: d2}, g.subgroup([0, 3]))
    reduced = _check_morse_reduction(c6, "C6")
    assert reduced.n_cells == {0: 2, 1: 2, 2: 6}
    assert reduced.betti_numbers() == {0: 1, 1: 0, 2: 5}


def test_galois_orbit_weights_give_central_idempotents():
    groups = {"C5": cyclic_group(5),
              "A4": from_generators([(1, 2, 0, 3), (1, 0, 3, 2)]),
              "S3": from_generators(S3_GENS), "D4": dihedral_group(4),
              "K4": abelian_group([2, 2])}
    large_orbits = set()
    for name, g in groups.items():
        table = character_table(g)
        class_of = table.classes.class_of
        orbits = galois_orbits(table)
        assert sorted(i for members, _ in orbits for i in members) == \
            list(range(len(table.irreducibles))), name
        identity = [Fraction(0)] * g.order
        for members, weights in orbits:
            # each weight is the exact orbit sum of the character values
            assert all(type(w) is int for w in weights), name
            for c, w in enumerate(weights):
                exact = sum(table.irreducibles[i].values[c] for i in members)
                assert abs(exact - w) < 1e-9, name
            # E = sum_h t(h^-1) h satisfies E^2 = (|H|/chi(1)) E
            deg = table.irreducibles[members[0]].degree
            e = {h: weights[class_of[g.inv(h)]] for h in range(g.order)}
            square = [0] * g.order
            for x, cx in e.items():
                for y, cy in e.items():
                    square[g.products([x], y)[0]] += cx * cy
            assert square == [g.order // deg * e[h]
                              for h in range(g.order)], name
            for h in range(g.order):
                identity[h] += Fraction(deg, g.order) * e[h]
            if len(members) > 1:
                large_orbits.add(name)
        assert identity == [1] + [0] * (g.order - 1), name
    assert large_orbits == {"C5", "A4"}


def _chain_levels(*configs):
    """(name, complex, level, H context) for every level of each chain, and
    for the n x n torus quotients, n = 2, 3, 4, without H."""
    for name, config in configs:
        ctx = ExperimentContext(ExperimentConfig.from_json(config))
        for n, level in enumerate(ctx.chain.levels):
            yield f"{name} level {n}", ctx.cw, level, (ctx.h_abs, ctx.h_elems)
    z2 = FreeAbelianGroup(2)
    torus = cw_from_json(z2, TORUS)
    for n in (2, 3, 4):
        target = abelian_group([n, n])
        yield f"torus {n}", torus, FiniteIndexSubgroup(
            QuotientMap(z2, target, target.generators),
            target.subgroup([0])), None


def test_quotient_fill_matches_the_dict_fill():
    from suites import C4_ROTATION, KLEIN_SWAP, S3_PERMUTING
    levels = 0
    for name, cw, level, h_ctx in _chain_levels(
            ("dinf", DINF_CHAIN), ("fbf", FBF_CHAIN), ("c4", C4_ROTATION),
            ("klein", KLEIN_SWAP), ("s3", S3_PERMUTING)):
        qc = quotient_complex(cw, level, h_ctx=h_ctx)
        expected = quotient_by_dicts(cw, level, h_ctx=h_ctx)
        assert qc.n_cells == expected.n_cells, name
        assert qc.sym_group.order == expected.sym_group.order, name
        for p, orbits in expected.orbits.items():
            for orbit, want in zip(qc.orbits[p], orbits, strict=True):
                assert orbit.cell_reps.tolist() == want.cell_reps, name
                assert orbit.offset == want.offset, name
                cell_id, sign = orbit.dec
                assert list(zip(cell_id.tolist(), sign.tolist())) == \
                    want.dec, name
        assert qc.boundaries.keys() == expected.boundaries.keys(), name
        for p, (nrows, cols) in expected.boundaries.items():
            assert qc.boundaries[p][0] == nrows, name
            assert list(qc.boundaries[p][1]) == cols, name
            assert qc.boundaries[p][1].vals.dtype == np.int64, name
        for p, (perms, signs) in expected.actions.items():
            assert np.array_equal(qc.actions[p][0], perms), name
            assert np.array_equal(qc.actions[p][1], signs), name
        levels += 1
    assert levels == 11 + 6 + 3 + 3 + 2 + 3


def _forest_corpus():
    """Complexes for the spanning forest: every level of the graph chains,
    and graphs without symmetry whose edges have entries other than +-1
    (2, 1/2, 2**40 and a one-ended edge) and a vertex that no edge meets,
    where the search restarts."""
    from suites import C4_ROTATION, KLEIN_SWAP, S3_PERMUTING
    for name, cw, level, h_ctx in _chain_levels(
            ("dinf", DINF_CHAIN), ("fbf", FBF_CHAIN), ("c4", C4_ROTATION),
            ("klein", KLEIN_SWAP), ("s3", S3_PERMUTING)):
        yield name, quotient_complex(cw, level, h_ctx=h_ctx)
    big = 2 ** 40
    for name, scale in (("ints", 2), ("fractions", Fraction(1, 2)),
                        ("beyond int64", big)):
        cols = [{0: 1, 1: -1}, {1: scale, 2: -1}, {2: -1, 3: scale},
                {3: scale, 4: 1}, {4: -scale, 5: 1}, {0: 3},
                {1: -1, 5: scale}]
        yield name, FiniteChainComplex({0: 7, 1: len(cols)}, {1: (7, cols)})


def test_spanning_forest_matches_the_queue_search():
    for name, c in _forest_corpus():
        d1 = c.boundaries[1][1]
        perms0, perms1 = c.actions[0][0], c.actions[1][0]
        paired, root, coef = complexes._spanning_forest(d1, perms0, perms1)
        assert (paired.tolist(), root.tolist(), coef.tolist()) == \
            forest_by_queue(list(d1), perms0, perms1), name
        reduced = morse_reduce(c)
        assert reduced.betti_numbers() == c.betti_numbers(), name
        if name == "beyond int64":
            # the coefficients grow to 2**80, exactly
            assert coef.dtype == object and max(map(abs, coef)) == 2 ** 80


def test_column_store_keeps_exact_entries():
    ints = ColumnStore.from_dicts([{3: 1, 0: -2}, {}, {1: Fraction(4, 2)}])
    assert ints.vals.dtype == np.int64
    assert ints.indptr.tolist() == [0, 2, 2, 3]
    assert list(ints) == [{0: -2, 3: 1}, {}, {1: 2}] and ints[2] == {1: 2}
    for value in (Fraction(1, 2), 2 ** 63, -2 ** 63):
        exact = ColumnStore.from_dicts([{0: value, 1: 0}])
        assert exact.vals.dtype == object and list(exact) == [{0: value}]
    # int64 products would wrap: 2**62 * 4 = 2**64 reads 0
    with pytest.raises(NotAComplex):
        FiniteChainComplex({0: 1, 1: 1, 2: 1},
                           {1: (1, [{0: 2 ** 62}]), 2: (1, [{0: 4}])})
    # rational and very large boundaries of the line through the quotient
    z = FreeAbelianGroup(1)
    for coefficient in ("1/2", str(2 ** 70)):
        line = cw_from_json(z, {
            "cells": {"0": [{"label": "v"}], "1": [{"label": "e"}]},
            "boundaries": {"1": [[f"{coefficient}*1 + -{coefficient}*a"]]}})
        for n in (1, 4):
            c = cyclic_group(n)
            qc = quotient_complex(line, FiniteIndexSubgroup(
                QuotientMap(z, c, [1 % n]), c.subgroup([0])))
            # on one vertex the two terms cancel, and d_1 is empty
            assert qc.boundaries[1][1].vals.dtype == \
                (object if n > 1 else np.int64)
            assert qc.betti_numbers() == {0: 1, 1: 1}
            report = qc.multiplicities(character_table(qc.sym_group))
            assert report.betti == {0: 1, 1: 1}


def test_fbf_quotients_are_built_checked_and_reduced_on_arrays(monkeypatch):
    # no dict arithmetic on cells, and no column read as a dict, while the
    # depth-5 quotients are filled, validated and Morse-reduced
    calls = []

    def counted(name):
        def record(*args, **kwargs):
            calls.append(name)
        return record
    for module in (_linalg, complexes):
        monkeypatch.setattr(module, "axpy", counted("axpy"))
    for method in ("__getitem__", "__iter__"):
        monkeypatch.setattr(ColumnStore, method, counted(method))
    config = dict(FBF_CHAIN, chain={**FBF_CHAIN["chain"], "depth": 5})
    ctx = ExperimentContext(ExperimentConfig.from_json(config))
    sizes = []
    for level in ctx.chain.levels:
        qc = quotient_complex(ctx.cw, level, h_ctx=(ctx.h_abs, ctx.h_elems))
        sizes.append(morse_reduce(qc).n_cells)
    assert calls == []
    assert sizes[-1] == {0: 4, 1: 4 ** 5 + 4}
