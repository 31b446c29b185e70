from fractions import Fraction

import numpy as np
import pytest

from l2mult import (FiniteCharacter, FreeAbelianGroup, FreeGroup,
                    InfiniteDihedralGroup, LimitCharacterSpec, QuotientMap,
                    biset_character, character_table, cyclic_group,
                    dihedral_group, from_generators, i_finite,
                    induce_ordinary, induce_via, limit_value, perm_character,
                    regular_character)
from l2mult.characters import (CannotInduce, CharacterError, HNotNormalizing,
                               NotAnAction, UnsupportedFamily, check_action,
                               finite_word_subgroup)
from l2mult.finite_groups import ClosureTooLarge
from l2mult.word_groups import FiniteIndexSubgroup

S3_GENS = [(1, 0, 2), (0, 2, 1)]


def s3():
    return from_generators(S3_GENS)


def test_perm_character_trivial_action():
    g = cyclic_group(4)
    char = perm_character(g, lambda e, x: x, 5)
    assert np.max(np.abs(char.values - 1)) < 1e-12


def test_perm_character_regular_action():
    g = cyclic_group(5)
    char = perm_character(g, lambda e, x: g.products([x], e)[0], 5)
    assert abs(char.values[0] - 1) < 1e-12
    assert np.max(np.abs(char.values[1:])) < 1e-12


def test_perm_character_coset_action_s3():
    g = s3()
    sub = g.subgroup_generated([g.index_of((1, 0, 2))])
    mem = set(sub.members)
    reps, coset_of = [], {}
    for x in range(6):
        if x not in coset_of:
            idx = len(reps)
            reps.append(x)
            for h in mem:
                coset_of[g.products([h], x)[0]] = idx
    char = perm_character(g, lambda e, x: coset_of[g.right(e)[reps[x]]], 3)
    classes = g.conjugacy_classes()
    for c, size in enumerate(classes.sizes):
        if size == 1:
            assert abs(char.values[c] - 1) < 1e-12
        elif size == 3:      # transpositions fix one coset
            assert abs(char.values[c] - Fraction(1, 3)) < 1e-12
        else:                # 3-cycles act freely
            assert abs(char.values[c]) < 1e-12


def test_perm_character_rejects_non_action():
    g = cyclic_group(4)
    with pytest.raises(NotAnAction):
        perm_character(g, lambda e, x: (x + e * e) % 3, 3)


def test_check_action_reads_every_point():
    # C6 fixes the points 0..63 and turns 64..69: by e steps it acts, by one
    # step for every e other than the identity it does not, and only the
    # points >= 64 show it
    c6 = cyclic_group(6)

    def turn(steps):
        return lambda e, x: x if x < 64 else 64 + (x - 64 + steps(e)) % 6
    with pytest.raises(NotAnAction, match="associativity"):
        check_action(c6, turn(lambda e: min(e, 1)), 70)
    assert check_action(c6, turn(lambda e: e), 70).shape == (6, 70)
    # a point sent off 0..69 would wrap around in the gather
    with pytest.raises(NotAnAction, match="leaves the points"):
        check_action(c6, lambda e, x: x - e, 70)


def test_i_finite_trivial_subgroup_is_regular():
    g = s3()
    psi = i_finite(g, g.subgroup([0]))
    assert psi.value(0, 0) == 1
    assert all(psi.value(x, 0) == 0 for x in range(1, 6))


def test_i_finite_abelian_is_delta():
    g = cyclic_group(6)
    sub = g.subgroup([0, 2, 4])
    psi = i_finite(g, sub)
    for h_local, h_parent in enumerate(sub.members):
        for x in range(6):
            expected = Fraction(1) if x == h_parent else Fraction(0)
            assert psi.value(x, h_local) == expected


def test_i_finite_s3_transposition():
    g = s3()
    t = g.index_of((1, 0, 2))
    sub = g.subgroup_generated([t])
    psi = i_finite(g, sub)
    h_local = sub.abstract_group()[1][t]
    assert psi.value(t, h_local) == Fraction(1, 3)
    three_cycle = g.index_of((2, 0, 1))
    assert psi.value(three_cycle, h_local) == 0


def test_induce_via_i_finite_denominator_is_one():
    for g, sub_gens in ((s3(), [(1, 0, 2)]), (dihedral_group(4), [(0, 1)]),
                        (cyclic_group(8), [4])):
        if isinstance(sub_gens[0], tuple):
            sub = g.subgroup_generated([g.index_of(sub_gens[0])])
        else:
            sub = g.subgroup_generated(sub_gens)
        psi = i_finite(g, sub)
        h_abs, _ = sub.abstract_group()
        for chi in character_table(h_abs).irreducibles:
            phi = FiniteCharacter.from_ordinary(chi)
            denom = sum(complex(psi.values.get((0, h), 0)) * phi.value(h)
                        for h in range(h_abs.order))
            assert abs(denom - 1) < 1e-12
            induced = induce_via(psi, phi)
            assert induced.normalized


def test_induce_via_one_point_biset_gives_trivial():
    from l2mult.characters import BisetCharacter
    g = s3()
    sub = g.subgroup_generated([g.index_of((1, 0, 2))])
    h_abs, _ = sub.abstract_group()
    k = len(g.conjugacy_classes().representatives)
    values = {(c, h): Fraction(1) for c in range(k) for h in range(h_abs.order)}
    psi = BisetCharacter(g, h_abs, values)
    induced = induce_via(psi, FiniteCharacter.from_ordinary(
        character_table(h_abs).irreducibles[0]))
    assert np.max(np.abs(induced.values - 1)) < 1e-12


def test_induce_via_regular_biset_matches_fixed_points():
    # Q as a Q-H-biset: psi(g,h) = fixed points of x -> g x h^-1, over |Q|
    g = dihedral_group(4)
    sub = g.subgroup_generated([g.index_of((0, 1))])
    h_abs, to_local = sub.abstract_group()
    classes = g.conjugacy_classes()
    values = {}
    for c, rep in enumerate(classes.representatives):
        for h_local, h_parent in enumerate(sub.members):
            fixed = sum(1 for x in range(g.order)
                        if g.right(g.inv(h_parent))[g.right(x)[rep]] == x)
            if fixed:
                values[(c, h_local)] = Fraction(fixed, g.order)
    from l2mult.characters import BisetCharacter
    psi = BisetCharacter(g, h_abs, values, tuple(sub.members))
    phi = FiniteCharacter.from_ordinary(character_table(h_abs).irreducibles[0])
    induced = induce_via(psi, phi)
    # oracle: permutation character of Q on H\Q, renormalized at identity
    mem = set(sub.members)
    reps, coset_of = [], {}
    for x in range(g.order):
        if x not in coset_of:
            idx = len(reps)
            reps.append(x)
            for h in mem:
                coset_of[g.products([h], x)[0]] = idx
    coset_char = perm_character(g, lambda e, x: coset_of[g.right(e)[reps[x]]],
                                len(reps))
    assert np.max(np.abs(induced.values - coset_char.values)) < 1e-10


def test_induce_via_cannot_induce():
    from l2mult.characters import BisetCharacter
    g = cyclic_group(2)
    h = cyclic_group(2)
    psi = BisetCharacter(g, h, {(0, 0): Fraction(1), (0, 1): Fraction(-1)})
    trivial = FiniteCharacter(h, [1.0, 1.0])
    with pytest.raises(CannotInduce):
        induce_via(psi, trivial)


def normalized_induction(g, sub, chi):
    """Normalized induction of chi from sub to g."""
    return FiniteCharacter.from_ordinary(induce_ordinary(sub, chi))


def test_ind_finite_trivial_subgroup_regular():
    g = s3()
    sub = g.subgroup([0])
    h_abs, _ = sub.abstract_group()
    chi = character_table(h_abs).irreducibles[0]
    char = normalized_induction(g, sub, chi)
    expected = regular_character(g)
    assert np.max(np.abs(char.values - expected.values)) < 1e-12


def test_ind_finite_whole_group_identity():
    g = cyclic_group(4)
    sub = g.subgroup(range(4))
    h_abs, _ = sub.abstract_group()
    for chi in character_table(h_abs).irreducibles:
        char = normalized_induction(g, sub, chi)
        assert np.max(np.abs(char.values - chi.normalized_values())) < 1e-9


def test_ind_finite_dihedral_sign_two_routes():
    # the biset of Q's i-function induces the normalized ordinary induction
    for m in (2, 3, 4, 6):
        g = dihedral_group(m)
        sub = g.subgroup_generated([g.index_of((0, 1))])
        h_abs, _ = sub.abstract_group()
        for chi in character_table(h_abs).irreducibles:
            char = normalized_induction(g, sub, chi)
            assert abs(char.values[0] - 1) < 1e-12
            via_biset = induce_via(i_finite(g, sub),
                                   FiniteCharacter.from_ordinary(chi))
            assert np.max(np.abs(via_biset.values - char.values)) < 1e-12


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
                normalized_induction(g, sub, chi).values
        assert np.max(np.abs(total - regular_character(g).values)) < 1e-9


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
        h_words = [d.identity(), d.word("b")]
        psi = biset_character(level, h_words)
        q = level.via.target
        index = m
        for k in range(0, 2 * m, max(1, m // 2)):
            g_img = level.via.evaluate(d.word("a" * k) if k else d.identity())
            expected = Fraction(m if k % m == 0 else 0, index)
            assert psi.value(g_img, 0) == expected
        # reflections: gcd(2,m) when k is a multiple of gcd(2,m)
        g_img = level.via.evaluate(d.word("b"))
        from math import gcd
        assert psi.value(g_img, 0) == Fraction(gcd(2, m), index)
        g_img = level.via.evaluate(d.word("ab"))
        expected = Fraction(gcd(2, m), index) if 1 % gcd(2, m) == 0 else Fraction(0)
        assert psi.value(g_img, 0) == expected
        # relative Farber failure: psi(1, s) = 1 since H is inside each level
        s_local = 1
        assert psi.value(0, s_local) == 1


def test_biset_of_kernel_level_degenerates_to_i_function():
    # with a trivial fiber the biset count is exactly the i-function of the
    # quotient: [Q:C(h)]^-1 on the class of h
    d = InfiniteDihedralGroup()
    m = 6
    dg = dihedral_group(m)
    q = QuotientMap(d, dg, [dg.index_of((1, 0)), dg.index_of((0, 1))])
    level = FiniteIndexSubgroup(q, dg.subgroup([0]))
    h_words = [d.identity(), d.word("b")]
    psi = biset_character(level, h_words)
    sub = dg.subgroup(sorted({q.evaluate(w) for w in h_words}))
    reference = i_finite(dg, sub)
    for cls in range(len(dg.conjugacy_classes().representatives)):
        for h in range(2):
            assert psi.values.get((cls, h), 0) == \
                reference.values.get((cls, h), 0)


def test_biset_character_h_must_normalize():
    # <ts> is an order-2 subgroup whose image does not normalize <s> mod 4
    d, level = _dinf_reflection_level(4)
    with pytest.raises(HNotNormalizing):
        biset_character(level, [d.identity(), d.word("ab")])


def test_limit_values():
    z = FreeAbelianGroup(1)
    spec_reg = LimitCharacterSpec(z, "regular")
    assert limit_value(spec_reg, z.identity()) == 1
    assert limit_value(spec_reg, z.word("aaa")) == 0
    spec_triv = LimitCharacterSpec(z, "trivial")
    assert limit_value(spec_triv, z.word("a")) == 1
    w = np.exp(2j * np.pi / 7)
    spec_circle = LimitCharacterSpec(z, "circle", z=w)
    assert abs(limit_value(spec_circle, z.word("aa")) - w ** 2) < 1e-12
    assert abs(limit_value(spec_circle, z.word("a'")) - w ** -1) < 1e-12
    with pytest.raises(CharacterError):
        LimitCharacterSpec(z, "circle", z=2.0)
    with pytest.raises(UnsupportedFamily):
        LimitCharacterSpec(FreeGroup(2), "circle", z=1.0)


def test_finite_word_subgroup_cap_raises_closure_too_large():
    # Z is infinite: the closure of a stops at 512 words, with the error
    # that ``from_generators`` raises at its cap
    with pytest.raises(ClosureTooLarge, match="word closure exceeds cap 512"):
        finite_word_subgroup([FreeAbelianGroup(1).word("a")])


def test_limit_value_induced_dinf():
    d = InfiniteDihedralGroup()
    h_words = [d.identity(), d.word("b")]
    h_abs, _ = finite_word_subgroup(h_words)
    chi = character_table(h_abs).irreducibles[0]
    spec = LimitCharacterSpec(d, "induced", h_words=h_words, chi=chi)
    # reflections have infinite-index centralizers: value 0 off the identity
    assert abs(limit_value(spec, d.word("b"))) < 1e-12
    assert abs(limit_value(spec, d.word("a"))) < 1e-12
    assert abs(limit_value(spec, d.identity()) - 1) < 1e-12


def test_limit_value_induced_assertion_route():
    from l2mult import FreeByFiniteGroup
    c2 = cyclic_group(2)
    g = FreeByFiniteGroup(2, c2, {1: ["a'", "b'"]})
    h_words = [g.identity(), g.word("c")]
    h_abs, _ = finite_word_subgroup(h_words)
    chi = character_table(h_abs).irreducibles[1]
    spec = LimitCharacterSpec(g, "induced", h_words=h_words, chi=chi,
                              assert_infinite_centralizers=True)
    assert limit_value(spec, g.identity()) == 1
    assert limit_value(spec, g.word("c")) == 0
    # without the assertion there is no oracle for this family
    spec2 = LimitCharacterSpec(g, "induced", h_words=h_words, chi=chi)
    with pytest.raises(UnsupportedFamily):
        limit_value(spec2, g.word("c"))


def test_character_json_serialization():
    g = dihedral_group(3)
    char = regular_character(g)
    data = char.to_json()
    assert data["normalized"] is True
    assert len(data["classes"]) == len(g.conjugacy_classes().representatives)
    first = data["classes"][0]
    assert first["representative"] == g.label(0)
    assert first["value"] == [1.0, 0.0] and first["size"] == 1
