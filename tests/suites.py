"""Randomized property suites; each function returns the number of cases it
checked (assertions fire inside).  Shared between the per-module property
tests and the acceptance gate."""

import itertools
from fractions import Fraction

import numpy as np

from l2mult import (FiniteIndexSubgroup, FreeAbelianGroup, FreeByFiniteGroup,
                    FreeGroup, InfiniteDihedralGroup, QuotientMap,
                    abelian_group, builtin_line_Dinf, builtin_line_Z,
                    builtin_rose_free,
                    builtin_tree_free_by_finite, character_table,
                    cyclic_group, dihedral_group, from_generators,
                    irreducible_rep, moments_check, quotient_complex,
                    rank_nullity, regular_rep, spectral_measure,
                    symmetric_group, semidirect_vector_group)
from l2mult.characters import finite_word_subgroup
from l2mult.finite_groups import GroupHom
from l2mult.word_groups import FiniteAlgebraMatrix

from conftest import make_rng
from oracles import coset_rep, frobenius_check, pullback_rep


def _group_catalog():
    return [cyclic_group(2), cyclic_group(3), cyclic_group(4),
            cyclic_group(6), abelian_group([2, 2]), dihedral_group(3),
            dihedral_group(4), from_generators([(1, 0, 2), (0, 2, 1)])]


def _random_algebra_matrix(rng, group, rows, cols, terms=2, span=2):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            entry = {}
            for _ in range(rng.randint(1, terms)):
                g = rng.randrange(group.order)
                c = entry.get(g, 0) + rng.randint(-span, span)
                entry[g] = c
            entry = {g: Fraction(c) for g, c in entry.items() if c}
            if entry:
                entries[(i, j)] = entry
    return FiniteAlgebraMatrix(group, rows, cols, entries)


def _random_rep(rng, group):
    kind = rng.randrange(3)
    if kind == 0:
        return regular_rep(group)
    if kind == 1:
        x = rng.randrange(group.order)
        return coset_rep(group, group.subgroup_generated([x]))
    table = character_table(group)
    chi = rng.choice(table.irreducibles)
    return irreducible_rep(group, chi)


def suite_rank_plus_nullity(cases=200) -> int:
    rng = make_rng(101)
    catalog = _group_catalog()
    done = 0
    while done < cases:
        group = rng.choice(catalog)
        rows = rng.randint(1, 2)
        cols = rng.randint(1, 3)
        a = _random_algebra_matrix(rng, group, rows, cols)
        rho = _random_rep(rng, group)
        rank, nullity = rank_nullity(a, rho)
        total = rank + nullity
        if isinstance(total, Fraction):
            assert total == cols
        else:
            assert abs(total - cols) < 1e-8
        assert (float(rank) >= -1e-12) and (float(nullity) >= -1e-12)
        done += 1
    return done


def suite_moment_identity(cases=200, kmax=6) -> int:
    rng = make_rng(102)
    catalog = _group_catalog()
    done = 0
    while done < cases:
        group = rng.choice(catalog)
        n = rng.randint(1, 2)
        a = _random_algebra_matrix(rng, group, n, n)
        gram = a.adjoint() @ a
        rho = regular_rep(group)
        moments_check(gram, rho, kmax)   # raises MomentMismatch on failure
        done += 1
    return done


def _hom_catalog():
    homs = []
    for big, small in ((8, 4), (4, 2), (6, 3), (6, 2), (9, 3)):
        homs.append(GroupHom(cyclic_group(big), cyclic_group(small),
                             {1: 1 % small}))
    d4, d2 = dihedral_group(4), dihedral_group(2)
    homs.append(GroupHom(
        d4, d2, {d4.index_of((1, 0)): d2.index_of((1, 0)),
                 d4.index_of((0, 1)): d2.index_of((0, 1))}))
    a44, a22 = abelian_group([4, 4]), abelian_group([2, 2])
    homs.append(GroupHom(
        a44, a22, {a44.index_of((1, 0)): a22.index_of((1, 0)),
                   a44.index_of((0, 1)): a22.index_of((0, 1))}))
    return homs


def _map_matrix(hom, mat):
    """Entrywise ring map of a finite algebra matrix along a group hom."""
    entries = {}
    for key, terms in mat.entries.items():
        out = {}
        for g, c in terms.items():
            img = hom(g)
            out[img] = out.get(img, Fraction(0)) + c
        out = {g: c for g, c in out.items() if c}
        if out:
            entries[key] = out
    return FiniteAlgebraMatrix(hom.target, mat.rows, mat.cols, entries)


def suite_pullback_measures(cases=200) -> int:
    rng = make_rng(103)
    homs = _hom_catalog()
    done = 0
    while done < cases:
        hom = rng.choice(homs)
        n = rng.randint(1, 2)
        a = _random_algebra_matrix(rng, hom.source, n, n)
        gram = a.adjoint() @ a
        pushed = _map_matrix(hom, gram)
        rho = regular_rep(hom.target) if rng.random() < 0.7 else \
            coset_rep(hom.target,
                      hom.target.subgroup_generated(
                          [rng.randrange(hom.target.order)]))
        mu_target = spectral_measure(pushed, rho)
        mu_pulled = spectral_measure(gram, pullback_rep(hom, rho))
        assert len(mu_target.atoms) == len(mu_pulled.atoms)
        for (v1, m1), (v2, m2) in zip(mu_target.atoms, mu_pulled.atoms):
            assert m1 == m2 and abs(v1 - v2) < 1e-7
        done += 1
    return done


def _dinf_quotient(m, reflection="b"):
    cw = builtin_line_Dinf(InfiniteDihedralGroup())
    d = cw.group
    target = dihedral_group(m)
    q = QuotientMap(d, target,
                    [target.index_of((1 % m, 0)), target.index_of((0, 1))])
    level = FiniteIndexSubgroup(q, target.subgroup([0]))
    return quotient_complex(cw, level, h_ctx=finite_word_subgroup(
        [d.identity(), d.word(reflection)]))


def _tree_quotient(n):
    c2 = cyclic_group(2)
    cw = builtin_tree_free_by_finite(
        FreeByFiniteGroup(2, c2, {1: ["a'", "b'"]}))
    g = cw.group
    mod = 2 ** n
    target = semidirect_vector_group([mod] * 2, c2, {1: [[-1, 0], [0, -1]]})
    images = [target.index_of(((1, 0), 0)), target.index_of(((0, 1), 0)),
              target.index_of(((0, 0), 1))]
    level = FiniteIndexSubgroup(QuotientMap(g, target, images),
                                target.subgroup([0]))
    return quotient_complex(cw, level, h_ctx=finite_word_subgroup(
        [g.identity(), g.word("c")]))


# F_2 : C_4 with c: a -> b, b -> a^-1 on the free group's tree: the vertex
# orbit has stabilizer C_4, the edge orbit {1, a^-1 c^2} with the flip
# acting by -1.  H = C_4 has the Galois orbit {i, -i} of size 2.
C4_ROTATION = {
    "group": {"family": "free_by_finite", "rank": 2, "h": "cyclic:4",
              "action": {"0": ["b", "a'"]}},
    "complex": {
        "cells": {"0": [{"label": "v", "stabilizer": ["1", "c", "cc", "ccc"]}],
                  "1": [{"label": "e", "stabilizer": ["1", "a'cc"],
                         "signs": [1, -1]}]},
        "boundaries": {"1": [["1*1 + -1*a"]]}},
    "chain": {"template": "semidirect_mod", "base": 2, "depth": 3},
    "h_words": ["1", "c"]}

# F_2 : C_4 with c: a -> a^-1, b -> b^-1 on the free group's tree: c^2 acts
# trivially, so it is central in G and its conjugacy class is {c^2}, while
# c and c^3 have infinite classes.  H does not act faithfully.
C4_INVERSION = {
    "group": {"family": "free_by_finite", "rank": 2, "h": "cyclic:4",
              "action": {"0": ["a'", "b'"]}},
    "complex": "tree_semidirect",
    "chain": {"template": "semidirect_mod", "base": 2, "depth": 3},
    "h_words": ["1", "c"]}

# F_2 : (C_2 x C_2) with c: a <-> b and d: a -> a^-1, b -> b^-1 on the free
# group's tree: the edge orbit {1, a^-1 d} with the flip acting by -1.  From
# level 1 on, the quotient has vertices whose stabilizer is each of the
# three subgroups of order 2, so no isotypic block of C_0 is empty after
# the Morse reduction.
KLEIN_SWAP = {
    "group": {"family": "free_by_finite", "rank": 2, "h": "abelian:2,2",
              "action": {"0": ["b", "a"], "1": ["a'", "b'"]}},
    "complex": {
        "cells": {"0": [{"label": "v", "stabilizer": ["1", "c", "d", "cd"]}],
                  "1": [{"label": "e", "stabilizer": ["1", "a'd"],
                         "signs": [1, -1]}]},
        "boundaries": {"1": [["1*1 + -1*a"]]}},
    "chain": {"template": "semidirect_mod", "base": 2, "depth": 3},
    "h_words": ["1", "c", "d"]}


# F_3 : S_3 with S_3 permuting the free generators on the free group's tree:
# d swaps a and b, e cycles a -> b -> c -> a, and the edge orbit of e_a has
# the stabilizer {1, de}, which fixes a.  S_3 is not abelian, so a quotient
# action must compose as S_3 does, not in the opposite order.
S3_PERMUTING = {
    "group": {"family": "free_by_finite", "rank": 3, "h": "sym:3",
              "action": {"0": ["b", "a", "c"], "1": ["b", "c", "a"]}},
    "complex": {
        "cells": {"0": [{"label": "v",
                         "stabilizer": ["1", "d", "e", "de", "de'", "e'"]}],
                  "1": [{"label": "e", "stabilizer": ["1", "de"]}]},
        "boundaries": {"1": [["1*1 + -1*a"]]}},
    "chain": {"template": "semidirect_mod", "base": 2, "depth": 2},
    "h_words": ["1", "d", "e"]}

def suite_sum_rule(cases=200) -> int:
    rng = make_rng(104)
    done = 0
    complexes = []
    for m in range(2, 22):
        complexes.append(_dinf_quotient(m))
    for n in (1, 2):
        complexes.append(_tree_quotient(n))
    for qc in complexes:
        table = character_table(qc.sym_group)
        report = qc.multiplicities(table)
        for p in qc.dims():
            total = sum(table.irreducibles[i].degree * report.multiplicities[(p, i)]
                        for i in range(len(table.irreducibles)))
            assert total == report.betti[p]
            done += 1
    # randomized finite complexes, subgroup acting by left translation
    from l2mult.complexes import materialize_regular
    catalog = _group_catalog()
    while done < cases:
        group = rng.choice(catalog)
        sub = group.subgroup_generated([rng.randrange(group.order)])
        h_abs, _ = sub.abstract_group()
        table = character_table(h_abs)
        d1 = _random_algebra_matrix(rng, group, 1, rng.randint(1, 2),
                                    terms=2, span=1)
        complex_b = materialize_regular(group, {1: d1}, sub)
        report = complex_b.multiplicities(table)
        for p in (0, 1):
            total = sum(table.irreducibles[i].degree * report.multiplicities[(p, i)]
                        for i in range(len(table.irreducibles)))
            assert total == report.betti[p]
            done += 1
    return done


def suite_action_commutes(cases=200) -> int:
    reflections = ["b", "ab", "aab", "a'b"]
    done = 0
    complexes = [_dinf_quotient(m, reflections[k])
                 for m in range(2, 27) for k in range(4)]
    complexes.extend(_tree_quotient(n) for n in (1, 2))
    for qc in complexes:
        for h, p in itertools.product(range(1, qc.sym_group.order),
                                      qc.dims()):
            perm, signs = (a[h] for a in qc.actions[p])
            bnd = qc.boundaries.get(p)
            if bnd is None:
                done += 1
                continue
            nrows, cols = bnd
            lperm, lsigns = (a[h] for a in qc.actions[p - 1])
            for j in range(len(cols)):
                lhs = {int(lperm[r]): int(lsigns[r]) * v
                       for r, v in cols[j].items()}
                rhs = {r: int(signs[j]) * v
                       for r, v in cols[int(perm[j])].items()}
                assert lhs == rhs
            # action matrices are signed permutations, hence orthogonal
            assert sorted(perm.tolist()) == list(range(qc.n_cells[p]))
            assert set(np.abs(signs)) == {1}
            done += 1
        if done >= cases:
            break
    return done


def suite_orbifold_euler(cases=200) -> int:
    done = 0
    builders = []
    for n in range(1, 91):
        builders.append(("line_z", n))
    for m in range(1, 73):
        builders.append(("line_dinf", m))
    for a in (2, 3, 4, 5, 6, 8):
        for b in (2, 3, 4, 5, 6, 8):
            builders.append(("rose", (a, b)))
    for n in (1, 2, 3):
        builders.append(("tree", n))
    for kind, param in builders:
        if kind == "line_z":
            cw = builtin_line_Z(FreeAbelianGroup(1))
            target = cyclic_group(param)
            level = FiniteIndexSubgroup(
                QuotientMap(cw.group, target, [1 % param]),
                target.subgroup([0]))
            qc = quotient_complex(cw, level)
        elif kind == "line_dinf":
            qc = _dinf_quotient(param)
            cw = builtin_line_Dinf(InfiniteDihedralGroup())
        elif kind == "rose":
            cw = builtin_rose_free(FreeGroup(2))
            target = abelian_group(list(param))
            units = [target.index_of((1 % param[0], 0)),
                     target.index_of((0, 1 % param[1]))]
            level = FiniteIndexSubgroup(QuotientMap(cw.group, target, units),
                                        target.subgroup([0]))
            qc = quotient_complex(cw, level)
        else:
            qc = _tree_quotient(param)
            c2 = cyclic_group(2)
            cw = builtin_tree_free_by_finite(
                FreeByFiniteGroup(2, c2, {1: ["a'", "b'"]}))
        lhs = sum((-1) ** p * qc.n_cells[p] for p in qc.dims())
        rhs = Fraction(0)
        for p in cw.dims():
            for cell in cw.cells[p]:
                rhs += (-1) ** p * Fraction(1, len(cell.stabilizer))
        assert lhs == qc.index * rhs
        done += 1
    return done


def suite_frobenius(cases=200) -> int:
    rng = make_rng(107)
    groups = [from_generators([(1, 0, 2), (0, 2, 1)]), dihedral_group(4),
              cyclic_group(6), cyclic_group(8), abelian_group([2, 2]),
              dihedral_group(6), symmetric_group(4)]
    tables = {id(g): character_table(g) for g in groups}
    done = 0
    while done < cases:
        group = rng.choice(groups)
        sub = group.subgroup_generated([rng.randrange(group.order)])
        h_abs, _ = sub.abstract_group()
        table_h = character_table(h_abs)
        chi = rng.choice(table_h.irreducibles)
        theta = rng.choice(tables[id(group)].irreducibles)
        assert frobenius_check(sub, chi, theta)
        done += 1
    return done


ALL_SUITES = [suite_rank_plus_nullity, suite_moment_identity,
              suite_pullback_measures, suite_sum_rule, suite_action_commutes,
              suite_orbifold_euler, suite_frobenius]
