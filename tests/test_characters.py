from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from l2mult import (FreeAbelianGroup, InfiniteDihedralGroup, QuotientChain,
                    QuotientMap, character_of, character_table, cyclic_group,
                    dihedral_group, from_generators, induce_ordinary,
                    induced_value, regular_rep, rel_farber_diagnostic, run)
from l2mult.characters import (HNotNormalizing, check_normalizes,
                               finite_word_subgroup, fixed_coset_count)
from l2mult.finite_groups import ClosureTooLarge
from l2mult.runner import ExperimentConfig
from l2mult.spectral import Rep
from l2mult.word_groups import FiniteIndexSubgroup

S3_GENS = [(1, 0, 2), (0, 2, 1)]


def s3():
    return from_generators(S3_GENS)


def test_perm_character_trivial_action():
    # every element fixes all five points
    g = cyclic_group(4)
    trivial = Rep(g, 5, lambda e: (np.arange(5), None))
    values = character_of(trivial).values / 5
    assert np.max(np.abs(values - 1)) < 1e-12


def test_perm_character_regular_action():
    # the regular permutation representation fixes no point off the identity
    g = cyclic_group(5)
    values = character_of(regular_rep(g)).values / g.order
    assert abs(values[0] - 1) < 1e-12
    assert np.max(np.abs(values[1:])) < 1e-12


def test_perm_character_coset_action_s3():
    # the permutation character of S3 on the three cosets of a
    # transposition's subgroup is the trivial character induced from it
    g = s3()
    sub = g.subgroup_generated([g.index_of((1, 0, 2))])
    h_abs, _ = sub.abstract_group()
    trivial = character_table(h_abs).irreducibles[0]
    values = induce_ordinary(sub, trivial).values / 3
    classes = g.conjugacy_classes()
    for c, size in enumerate(classes.sizes):
        if size == 1:
            assert abs(values[c] - 1) < 1e-12
        elif size == 3:      # transpositions fix one coset
            assert abs(values[c] - Fraction(1, 3)) < 1e-12
        else:                # 3-cycles act freely
            assert abs(values[c]) < 1e-12


def test_i_finite_trivial_subgroup_is_regular():
    g = s3()
    assert g.i_value(0, 0) == 1
    assert all(g.i_value(x, 0) == 0 for x in range(1, 6))


def test_i_finite_abelian_is_delta():
    g = cyclic_group(6)
    for h in g.subgroup([0, 2, 4]).members:
        for x in range(6):
            expected = Fraction(1) if x == h else Fraction(0)
            assert g.i_value(x, h) == expected


def test_i_finite_s3_transposition():
    g = s3()
    t = g.index_of((1, 0, 2))
    assert g.i_value(t, t) == Fraction(1, 3)
    three_cycle = g.index_of((2, 0, 1))
    assert g.i_value(three_cycle, t) == 0


def normalized_pairs(sub, chi):
    """The pairs (h, chi(h) / chi(1)) of ``induced_value``, h in the parent."""
    return [(h, chi.value(k) / chi.degree) for k, h in enumerate(sub.members)]


def test_induce_via_i_finite_denominator_is_one():
    for g, sub_gens in ((s3(), [(1, 0, 2)]), (dihedral_group(4), [(0, 1)]),
                        (cyclic_group(8), [4])):
        if isinstance(sub_gens[0], tuple):
            sub = g.subgroup_generated([g.index_of(sub_gens[0])])
        else:
            sub = g.subgroup_generated(sub_gens)
        h_abs, _ = sub.abstract_group()
        for chi in character_table(h_abs).irreducibles:
            denom = induced_value(g.i_value, 0, normalized_pairs(sub, chi))
            assert abs(denom - 1) < 1e-12
            assert induce_ordinary(sub, chi).degree == sub.index * chi.degree


def test_induce_via_regular_biset_matches_fixed_points():
    # inducing the trivial character gives the permutation character of Q
    # on the cosets of H
    g = dihedral_group(4)
    sub = g.subgroup_generated([g.index_of((0, 1))])
    h_abs, _ = sub.abstract_group()
    trivial = character_table(h_abs).irreducibles[0]
    induced = induce_ordinary(sub, trivial)
    # the coset character counts the cosets H x that g fixes: the x with
    # x g x^-1 in H, over |H|
    members = set(sub.members)
    coset_char = [sum(g.products(g.products([x], c), g.inv(x))[0] in members
                      for x in range(g.order)) / sub.order
                  for c in g.conjugacy_classes().representatives]
    assert np.max(np.abs(induced.values - coset_char)) < 1e-10


def normalized_induction(g, sub, chi):
    """Normalized induction of chi from sub to g, one value per class."""
    induced = induce_ordinary(sub, chi)
    return induced.values / induced.degree


def normalized_regular(g):
    return character_of(regular_rep(g)).values / g.order


def test_ind_finite_trivial_subgroup_regular():
    g = s3()
    sub = g.subgroup([0])
    h_abs, _ = sub.abstract_group()
    chi = character_table(h_abs).irreducibles[0]
    values = normalized_induction(g, sub, chi)
    assert np.max(np.abs(values - normalized_regular(g))) < 1e-12


def test_ind_finite_whole_group_identity():
    g = cyclic_group(4)
    sub = g.subgroup(range(4))
    h_abs, _ = sub.abstract_group()
    for chi in character_table(h_abs).irreducibles:
        values = normalized_induction(g, sub, chi)
        assert np.max(np.abs(values - chi.values / chi.degree)) < 1e-9


def test_ind_finite_dihedral_sign_two_routes():
    # the sum with Q's i-function and chi / chi(1) at each class, as the
    # char_convergence rows take it, is the normalized ordinary induction
    for m in (2, 3, 4, 6):
        g = dihedral_group(m)
        sub = g.subgroup_generated([g.index_of((0, 1))])
        h_abs, _ = sub.abstract_group()
        for chi in character_table(h_abs).irreducibles:
            values = normalized_induction(g, sub, chi)
            assert abs(values[0] - 1) < 1e-12
            pairs = normalized_pairs(sub, chi)
            by_sum = [induced_value(g.i_value, rep, pairs)
                      for rep in g.conjugacy_classes().representatives]
            assert np.max(np.abs(np.array(by_sum) - values)) < 1e-12


def test_ind_finite_sum_rule():
    # sum over irreducibles of (deg^2/|H|) ind(chi) = regular character
    for g, gen in ((s3(), (1, 0, 2)), (dihedral_group(4), (0, 1))):
        sub = g.subgroup_generated([g.index_of(gen)])
        h_abs, _ = sub.abstract_group()
        table = character_table(h_abs)
        total = np.zeros(len(g.conjugacy_classes().representatives),
                         dtype=complex)
        for chi in table.irreducibles:
            total += (chi.degree ** 2 / h_abs.order) * \
                normalized_induction(g, sub, chi)
        assert np.max(np.abs(total - normalized_regular(g))) < 1e-9


def _dinf_reflection_level(m):
    d = InfiniteDihedralGroup()
    dg = dihedral_group(m)
    q = QuotientMap(d, dg, [dg.index_of((1 % m, 0)), dg.index_of((0, 1))])
    fiber = dg.subgroup([0, dg.index_of((0, 1))])
    return d, FiniteIndexSubgroup(q, fiber)


def test_biset_character_dinf_reflection_counts():
    # counts m / gcd(2,m) / 0 for the biset of the non-normal subgroups
    for m in (2, 3, 4, 5, 8):
        d, level = _dinf_reflection_level(m)
        s_img = level.via.evaluate(d.word("b"))
        check_normalizes(level, [0, s_img])

        def psi(g_img, h_img):
            return Fraction(fixed_coset_count(level, g_img, h_img), m)
        for k in range(0, 2 * m, max(1, m // 2)):
            g_img = level.via.evaluate(d.word("a" * k) if k else d.identity())
            expected = Fraction(m if k % m == 0 else 0, m)
            assert psi(g_img, 0) == expected
        # reflections: gcd(2,m) when k is a multiple of gcd(2,m)
        assert psi(s_img, 0) == Fraction(gcd(2, m), m)
        g_img = level.via.evaluate(d.word("ab"))
        expected = Fraction(gcd(2, m), m) if 1 % gcd(2, m) == 0 \
            else Fraction(0)
        assert psi(g_img, 0) == expected
        # relative Farber failure: psi(1, s) = 1 since H is inside each level
        assert psi(0, s_img) == 1


def test_biset_of_kernel_level_degenerates_to_i_function():
    # with a trivial fiber the biset count is exactly the i-function of the
    # quotient: [Q:C(h)]^-1 on the class of h
    d = InfiniteDihedralGroup()
    m = 6
    dg = dihedral_group(m)
    q = QuotientMap(d, dg, [dg.index_of((1, 0)), dg.index_of((0, 1))])
    level = FiniteIndexSubgroup(q, dg.subgroup([0]))
    h_images = [q.evaluate(w) for w in (d.identity(), d.word("b"))]
    check_normalizes(level, h_images)
    for g in dg.conjugacy_classes().representatives:
        for him in h_images:
            assert Fraction(fixed_coset_count(level, g, him), level.index) \
                == dg.i_value(g, him)


def test_biset_character_h_must_normalize():
    # <ts> is an order-2 subgroup whose image does not normalize <s> mod 4
    d, level = _dinf_reflection_level(4)
    with pytest.raises(HNotNormalizing):
        rel_farber_diagnostic(QuotientChain([level]),
                              [d.identity(), d.word("ab")], [])


def test_finite_word_subgroup_cap_raises_closure_too_large():
    # Z is infinite: the closure of a stops at 512 words, with the error
    # that ``from_generators`` raises at its cap
    with pytest.raises(ClosureTooLarge, match="word closure exceeds cap 512"):
        finite_word_subgroup([FreeAbelianGroup(1).word("a")])


def char_convergence_limits(data, chi_idx):
    """{(level, word): limit} of the char_convergence rows of a run, with
    the error text of a row whose limit raised."""
    _, report = run(ExperimentConfig.from_json(dict(
        data, char_convergence=chi_idx)))
    return {(row["level"], row["word"]): row.get("error") or
            complex(*row["limit"]) for row in report["char_convergence"]}


def test_limit_value_induced_dinf():
    # reflections have infinite-index centralizers: the limit, the sum with
    # D_inf's i-function, is 1 at the identity and 0 elsewhere, for both
    # characters of H = <s> and without asserting infinite centralizers
    data = {"group": {"family": "dihedral_infinite"},
            "complex": "line_dinf",
            "chain": {"template": "dihedral_reflection", "orders": [2, 4]},
            "h_words": ["1", "b"], "infinite_centralizers": False,
            "probe_words": ["1", "a", "b", "ab"]}
    for chi_idx in (0, 1):
        limits = char_convergence_limits(data, chi_idx)
        assert limits == {(n, w): complex(w == "1") for n in range(2)
                          for w in data["probe_words"]}


def test_limit_value_induced_assertion_route():
    data = {"group": {"family": "free_by_finite", "rank": 2, "h": "cyclic:2",
                      "action": {"0": ["a'", "b'"]}},
            "complex": "tree_semidirect",
            "chain": {"template": "semidirect_mod", "base": 2, "depth": 2},
            "h_words": ["1", "c"], "infinite_centralizers": True,
            "probe_words": ["1", "c"]}
    limits = char_convergence_limits(data, 1)
    assert limits == {(n, w): complex(w == "1") for n in range(2)
                      for w in ("1", "c")}
    # without the assertion there is no oracle for this family
    limits = char_convergence_limits(dict(data, infinite_centralizers=False),
                                     1)
    assert set(limits.values()) == {
        "UnsupportedFamily: no conjugacy oracle for free_by_finite"}
