import numpy as np
import pytest

from l2mult import (abelian_group, character_table, cyclic_group,
                    dihedral_group, finite_groups, from_generators,
                    induce_ordinary, multiplicity, restrict_ordinary,
                    symmetric_group, trivial_group)
from l2mult.finite_groups import (ClosureTooLarge, FiniteGroup, GroupError,
                                  GroupHom, NotIntegral)
from l2mult.runner import build_chain, build_group

from conftest import make_rng
from oracles import (check_axioms, closed_by_scan, conjugacy_classes_by_scan,
                     frobenius_check, induce_ordinary_oracle, inverse_by_scan,
                     tree_by_pairs, walk_by_pairs)

S3_GENS = [(1, 0, 2), (0, 2, 1)]


def test_from_generators_s3():
    g = from_generators(S3_GENS)
    assert g.order == 6
    check_axioms(g)


def test_from_generators_identity_only():
    g = from_generators([(0, 1, 2)])
    assert g.order == 1


def test_from_generators_five_cycle():
    g = from_generators([(1, 2, 3, 4, 0)])
    assert g.order == 5
    check_axioms(g)


def test_from_generators_cap(monkeypatch):
    monkeypatch.setattr(finite_groups, "_CLOSURE_CAP", 10)
    with pytest.raises(ClosureTooLarge, match="closure exceeds cap 10"):
        from_generators([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])


def test_character_table_rejects_orders_past_its_cap():
    g = cyclic_group(2001)
    with pytest.raises(GroupError, match="order 2001 exceeds cap 2000"):
        character_table(g)
    # before any work: no walk, no classes
    assert g._right is None and g._classes is None


def test_from_generators_rejects_non_bijection():
    with pytest.raises(GroupError):
        from_generators([(0, 0, 1)])


def test_conjugacy_classes_s3():
    g = from_generators(S3_GENS)
    classes = g.conjugacy_classes()
    assert sorted(classes.sizes) == [1, 2, 3]
    assert classes.representatives[0] == 0
    # representatives are minimal per class
    for rep, members in zip(classes.representatives, classes.members):
        assert rep == min(members)


def test_conjugacy_classes_cyclic5():
    classes = cyclic_group(5).conjugacy_classes()
    assert classes.sizes == [1] * 5


def test_conjugacy_classes_trivial():
    assert len(trivial_group().conjugacy_classes().sizes) == 1


def test_centralizer_index():
    g = from_generators(S3_GENS)
    assert g.conjugacy_class_size(0) == 1
    transposition = g.index_of((1, 0, 2))
    assert g.conjugacy_class_size(transposition) == 3
    # one class object, computed once, shared by its members and the
    # partition
    cls = g.conjugacy_class(transposition)
    assert all(g.conjugacy_class(y) is cls for y in cls)
    members = g.conjugacy_classes().members[g.class_of_element(transposition)]
    assert sorted(cls) == members
    c6 = cyclic_group(6)
    assert all(c6.conjugacy_class_size(x) == 1 for x in range(6))


def test_centralizer_index_times_centralizer_is_order():
    for g in (from_generators(S3_GENS), dihedral_group(4), cyclic_group(8)):
        for x in range(g.order):
            size = g.conjugacy_class_size(x)
            centralizer = sum(1 for y in range(g.order)
                              if g.products([y], x) == g.products([x], y))
            assert size * centralizer == g.order


def test_character_table_c2():
    table = character_table(cyclic_group(2))
    values = sorted(tuple(int(round(v.real)) for v in ch.values)
                    for ch in table.irreducibles)
    assert values == [(1, -1), (1, 1)]


def test_character_table_c3_cube_roots():
    table = character_table(cyclic_group(3))
    omega = np.exp(2j * np.pi / 3)
    for ch in table.irreducibles:
        v = ch.values[1]
        assert min(abs(v - w) for w in (1, omega, omega.conjugate())) < 1e-8


def test_character_table_s3_degrees_and_orthogonality():
    g = from_generators(S3_GENS)
    table = character_table(g)
    assert sorted(ch.degree for ch in table.irreducibles) == [1, 1, 2]
    assert sum(ch.degree ** 2 for ch in table.irreducibles) == 6
    # brute-force row orthogonality over elements, not classes
    for a in table.irreducibles:
        for b in table.irreducibles:
            total = sum(a.value(x) * np.conj(b.value(x)) for x in range(6)) / 6
            expected = 1.0 if a is b else 0.0
            assert abs(total - expected) < 1e-8


@pytest.mark.parametrize("group_factory", [
    lambda: cyclic_group(4), lambda: dihedral_group(4),
    lambda: from_generators(S3_GENS), lambda: abelian_group([2, 2]),
    lambda: symmetric_group(4), lambda: dihedral_group(6),
])
def test_column_orthogonality(group_factory):
    table = character_table(group_factory())
    assert table.column_orthogonality_defect() < 1e-8


def test_first_irreducible_is_trivial():
    for g in (cyclic_group(6), dihedral_group(4), from_generators(S3_GENS)):
        table = character_table(g)
        assert np.max(np.abs(table.irreducibles[0].values - 1)) < 1e-8


def test_regular_character_multiplicities_are_degrees():
    g = dihedral_group(4)
    triv_sub = g.subgroup([0])
    h_abs, _ = triv_sub.abstract_group()
    regular = induce_ordinary(triv_sub, character_table(h_abs).irreducibles[0])
    assert abs(regular.values[0] - g.order) < 1e-9
    for ch in character_table(g).irreducibles:
        assert multiplicity(ch, regular) == ch.degree


def test_induce_trivial_from_trivial_subgroup_is_regular():
    g = from_generators(S3_GENS)
    sub = g.subgroup([0])
    h_abs, _ = sub.abstract_group()
    reg = induce_ordinary(sub, character_table(h_abs).irreducibles[0])
    assert abs(reg.values[0] - 6) < 1e-9
    assert np.max(np.abs(reg.values[1:])) < 1e-9


def test_induce_from_order_two_subgroup_matches_coset_count():
    g = from_generators(S3_GENS)
    t = g.index_of((1, 0, 2))
    sub = g.subgroup_generated([t])
    h_abs, _ = sub.abstract_group()
    induced = induce_ordinary(sub, character_table(h_abs).irreducibles[0])
    # oracle: fixed points of the right action on cosets Hx
    mem = set(sub.members)
    reps, coset_of = [], {}
    for x in range(6):
        if x not in coset_of:
            idx = len(reps)
            reps.append(x)
            for h in mem:
                coset_of[g.products([h], x)[0]] = idx
    classes = g.conjugacy_classes()
    for c, rep in enumerate(classes.representatives):
        fixed = sum(1 for i, r in enumerate(reps)
                    if coset_of[g.products([r], rep)[0]] == i)
        assert abs(induced.values[c] - fixed) < 1e-9


def test_induce_from_whole_group_is_identity():
    g = cyclic_group(4)
    sub = g.subgroup(range(4))
    h_abs, _ = sub.abstract_group()
    for chi in character_table(h_abs).irreducibles:
        induced = induce_ordinary(sub, chi)
        # class orders agree because members are in index order
        assert np.max(np.abs(induced.values - chi.values)) < 1e-9


def test_induce_ordinary_matches_conjugation_scan():
    # every irreducible of the trivial and the cyclic subgroups of the groups
    # the induction tests here use, the whole group included
    checked = 0
    for g in (from_generators(S3_GENS), dihedral_group(4), cyclic_group(4),
              cyclic_group(6), symmetric_group(4)):
        subs = {(0,): g.subgroup([0])}
        for x in range(1, g.order):
            sub = g.subgroup_generated([x])
            subs.setdefault(sub.members, sub)
        for sub in subs.values():
            for chi in character_table(sub.abstract_group()[0]).irreducibles:
                induced = induce_ordinary(sub, chi)
                expected = induce_ordinary_oracle(sub, chi)
                assert np.max(np.abs(induced.values - expected)) < 1e-12
                checked += 1
    assert checked == 87


def test_multiplicity_trivial_in_regular_is_one():
    g = cyclic_group(6)
    sub = g.subgroup([0])
    h_abs, _ = sub.abstract_group()
    regular = induce_ordinary(sub, character_table(h_abs).irreducibles[0])
    table = character_table(g)
    assert multiplicity(table.irreducibles[0], regular) == 1


def test_multiplicity_self_is_one():
    for ch in character_table(from_generators(S3_GENS)).irreducibles:
        assert multiplicity(ch, ch) == 1


def test_multiplicity_counts_orbits():
    # trivial in the coset permutation character = number of orbits = 1
    g = from_generators(S3_GENS)
    sub = g.subgroup_generated([g.index_of((1, 0, 2))])
    h_abs, _ = sub.abstract_group()
    perm_char = induce_ordinary(sub, character_table(h_abs).irreducibles[0])
    assert multiplicity(character_table(g).irreducibles[0], perm_char) == 1


def test_multiplicity_requires_irreducible():
    g = cyclic_group(2)
    table = character_table(g)
    from l2mult.finite_groups import OrdinaryCharacter
    reducible = OrdinaryCharacter(g, table.irreducibles[0].values
                                  + table.irreducibles[1].values)
    with pytest.raises(GroupError):
        multiplicity(reducible, table.irreducibles[0])


def test_multiplicity_not_integral():
    g = cyclic_group(2)
    table = character_table(g)
    from l2mult.finite_groups import OrdinaryCharacter
    skew = OrdinaryCharacter(g, [1.0, 0.5])
    with pytest.raises(NotIntegral):
        multiplicity(table.irreducibles[0], skew)


def test_frobenius_reciprocity_exhaustive_small_groups():
    groups = [from_generators(S3_GENS), dihedral_group(4), cyclic_group(6),
              symmetric_group(4)]
    rng = make_rng(11)
    checked = 0
    for g in groups:
        table_g = character_table(g)
        subs = [g.subgroup([0])]
        for x in range(1, g.order):
            sub = g.subgroup_generated([x])
            if sub.order < g.order:
                subs.append(sub)
        rng.shuffle(subs)
        for sub in subs[:3]:
            h_abs, _ = sub.abstract_group()
            table_h = character_table(h_abs)
            for chi in table_h.irreducibles:
                for theta in table_g.irreducibles:
                    assert frobenius_check(sub, chi, theta)
                    checked += 1
    assert checked >= 40


def test_frobenius_regular_decomposition():
    g = from_generators(S3_GENS)
    sub = g.subgroup([0])
    h_abs, _ = sub.abstract_group()
    chi = character_table(h_abs).irreducibles[0]
    induced = induce_ordinary(sub, chi)
    for theta in character_table(g).irreducibles:
        assert multiplicity(theta, induced) == theta.degree
        assert multiplicity(chi, restrict_ordinary(theta, sub)) == theta.degree


def test_hom_validation():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    hom = GroupHom(c4, c2, {1: 1})
    assert [hom(x) for x in range(4)] == [0, 1, 0, 1]
    with pytest.raises(GroupError):
        GroupHom(cyclic_group(2), cyclic_group(3), {1: 1})
    with pytest.raises(GroupError):     # 2 = 1 + 1 would map to 2, not 3
        GroupHom(c4, c4, {1: 1, 2: 3})
    with pytest.raises(GroupError):     # 2 does not generate C4
        GroupHom(c4, c4, {2: 2})


def test_subgroup_validation():
    g = cyclic_group(6)
    with pytest.raises(GroupError):
        g.subgroup([0, 1])          # not closed
    with pytest.raises(GroupError):
        g.subgroup([1, 5])          # missing identity
    sub = g.subgroup([0, 2, 4])
    assert sub.index == 2
    assert sub.is_normal()


def test_semidirect_and_dihedral_structures():
    d = dihedral_group(4)
    check_axioms(d)
    from l2mult import semidirect_vector_group
    c2 = cyclic_group(2)
    g = semidirect_vector_group([4, 4], c2, {1: [[-1, 0], [0, -1]]})
    assert g.order == 32
    s = g.index_of(((0, 0), 1))
    v = g.index_of(((1, 0), 0))
    assert g.products(g.products([s], v), g.inv(s)) == [g.index_of(((3, 0), 0))]
    with pytest.raises(GroupError):     # a shear is not an involution mod 4
        semidirect_vector_group([4, 4], c2, {1: [[1, 1], [0, 1]]})


def _square_symmetries():
    """The abstract group of a dihedral subgroup of S4 of order 8: the
    symmetries of a square 0123, a 4-cycle and a reflection."""
    s4 = symmetric_group(4)
    d8 = s4.subgroup_generated([s4.index_of((1, 2, 3, 0)),
                                s4.index_of((0, 3, 2, 1))])
    assert d8.order == 8
    return d8.abstract_group()[0]


def _fbf_quotient(depth):
    """The deepest quotient (Z/2^depth)^2 x| C_2 of the free-by-finite chain
    of F_2 x| C_2 (a -> a^-1, b -> b^-1) on ``semidirect_mod``, base 2."""
    fbf = build_group({"family": "free_by_finite", "rank": 2,
                       "h": "cyclic:2", "action": {"0": ["a'", "b'"]}})
    chain = build_chain({"template": "semidirect_mod", "base": 2,
                         "depth": depth}, fbf)
    return chain.levels[-1].via.target


TABLE_CORPUS = {
    "trivial": trivial_group, "C1": lambda: cyclic_group(1),
    "C7": lambda: cyclic_group(7),
    "C2xC3xC4": lambda: abelian_group([2, 3, 4]),
    "D1": lambda: dihedral_group(1), "D2": lambda: dihedral_group(2),
    "D5": lambda: dihedral_group(5), "S4": lambda: symmetric_group(4),
    "fbf1": lambda: _fbf_quotient(1), "fbf2": lambda: _fbf_quotient(2),
    "fbf3": lambda: _fbf_quotient(3), "D4_abstract": _square_symmetries,
}


@pytest.mark.parametrize("name", TABLE_CORPUS)
def test_translation_tables_match_the_raw_product(name):
    group = TABLE_CORPUS[name]()
    n = group.order
    for g in range(n):
        assert group.right(g) == [group.products([x], g)[0] for x in range(n)]
        assert group.left(g) == [group.products([g], x)[0] for x in range(n)]
    assert group.inverses == inverse_by_scan(group)
    classes = group.conjugacy_classes()
    assert classes.members == conjugacy_classes_by_scan(group)
    assert classes.representatives == [m[0] for m in classes.members]
    assert classes.sizes == [len(m) for m in classes.members]


WALK_CORPUS = dict(TABLE_CORPUS, fbf4=lambda: _fbf_quotient(4),
                   fbf5=lambda: _fbf_quotient(5),
                   C1024=lambda: cyclic_group(1024))


@pytest.mark.parametrize("name", WALK_CORPUS)
def test_walk_matches_the_pair_product_walk(name):
    group = WALK_CORPUS[name]()
    right, tree, lefts, inverses = walk_by_pairs(group)
    assert group.inverses == inverses
    assert group._tree == tree
    assert group.walk(group.generators) is group._tree
    assert [group.right(g) for g in group.generators] == right
    assert [group.left(g) for g in group.generators] == lefts


@pytest.mark.parametrize("name, gens_of, order", [
    ("S4", lambda g: g.generators[::-1], 24),
    ("D5", lambda g: [y for x in g.generators for y in (x, g.inv(x))], 10),
    ("C2xC3xC4", lambda g: [g.index_of((1, 1, 1))], 12),
    ("C2xC3xC4", lambda g: [g.index_of((0, 2, 2)), 0], 6),
    ("D5", lambda g: [g.index_of((2, 0))], 5),
    ("S4", lambda g: [g.index_of((1, 0, 2, 3)), g.index_of((0, 1, 3, 2))], 4),
    ("fbf3", lambda g: g.generators[:2], 64),
])
def test_walk_over_other_generators_matches_the_pair_product_walk(
        name, gens_of, order):
    # generators that are not the group's own, some of a proper subgroup
    group = WALK_CORPUS[name]()
    gens = gens_of(group)
    tree = group.walk(gens)
    assert tree == tree_by_pairs(group, gens)[1]
    assert len(tree[0]) == order and closed_by_scan(group, tree[0])


def test_fbf_quotient_tables_take_no_single_pair_product(monkeypatch):
    # every raw product made while the depth-5 chain and its tables are
    # built multiplies every row of its group, or of the semidirect product
    # that calls it, by one element
    calls = []
    init = FiniteGroup.__init__

    def recording_init(self, rows, mul, *args, **kwargs):
        def recorded(xs, y):
            calls.append((self, len(xs)))
            return mul(xs, y)
        init(self, rows, recorded, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", recording_init)
    target = _fbf_quotient(5)
    assert target.order == 2048
    sizes = {group.order for group, _ in calls}
    assert all(batch in sizes for _, batch in calls)
    assert min(batch for _, batch in calls) > 1
    own = [batch for group, batch in calls if group is target]
    # the walk's three generators and two inverse letters of QuotientMap
    assert own == [2048] * 5


def test_abstract_subgroup_walks_a_small_generating_set():
    s4 = symmetric_group(4)
    h_abs, _ = s4.subgroup(range(s4.order)).abstract_group()
    # one walk over |H| |gens| edges, not |H|^2
    assert 1 <= len(h_abs.generators) <= 3
    assert sorted(h_abs.conjugacy_classes().sizes) == [1, 3, 6, 6, 8]


def test_generators_that_do_not_generate_are_rejected():
    c4 = FiniteGroup(range(4), lambda a, b: (a + b) % 4, name="C4",
                     generators=[2])
    assert c4.products([1], 2) == [3]     # single raw products need no walk
    with pytest.raises(GroupError, match="reach 2 of its 4 elements"):
        c4.right(1)
    with pytest.raises(GroupError):
        c4.conjugacy_class(1)


def test_index_of_reads_rows_in_the_family_form():
    from l2mult import semidirect_vector_group
    d4 = dihedral_group(4)
    assert [d4.index_of((k, e)) for e in (0, 1) for k in range(4)] \
        == list(range(8))
    g = semidirect_vector_group([4, 4], cyclic_group(2),
                                {1: [[-1, 0], [0, -1]]})
    assert g.index_of(((1, 2), 1)) == 16 + 4 + 2
    assert g.label(22) == "((1, 2), 1)"
    s3 = symmetric_group(3)
    # (a b)(x) = a(b(x))
    assert s3.products([s3.index_of((1, 0, 2))], s3.index_of((0, 2, 1)))[0] \
        == s3.index_of((1, 2, 0))
    c4 = FiniteGroup(range(4), lambda a, b: (a + b) % 4, name="C4",
                     generators=[1])
    assert c4.index_of(3) == 3
    # forms that no element has: out of range, the wrong width or type
    for group, raw in ((d4, (5, 0)), (d4, (-1, 0)), (d4, (1, 0, 0)),
                       (d4, "r"), (g, ((4, 0), 0)), (g, (1, 0)),
                       (s3, (0, 0, 1)), (c4, 4)):
        with pytest.raises(KeyError):
            group.index_of(raw)
    with pytest.raises(GroupError, match="duplicate elements"):
        FiniteGroup([0, 1, 1], lambda a, b: a, generators=[])


def test_subgroup_closure_walk_matches_the_raw_product():
    # every member set of D4 with the identity that is closed under inverse
    d4 = dihedral_group(4)
    inv = inverse_by_scan(d4)
    subgroups = 0
    for mask in range(1 << (d4.order - 1)):
        members = [0] + [x for x in range(1, d4.order) if mask >> (x - 1) & 1]
        if any(inv[x] not in members for x in members):
            continue
        if closed_by_scan(d4, members):
            assert d4.subgroup(members).order == len(members)
            subgroups += 1
        else:
            with pytest.raises(GroupError, match="not closed under product"):
                d4.subgroup(members)
    # the trivial group, five of order 2, three of order 4, D4 itself
    assert subgroups == 10
    with pytest.raises(GroupError, match="not closed under inverse"):
        cyclic_group(6).subgroup([0, 1, 2])
    # the vector subgroup of order 1024 in (Z/32)^2 : C2, as generated and
    # as listed
    from l2mult import semidirect_vector_group
    g = semidirect_vector_group([32, 32], cyclic_group(2),
                                {1: [[-1, 0], [0, -1]]})
    vectors = g.subgroup_generated([g.index_of(((1, 0), 0)),
                                    g.index_of(((0, 1), 0))])
    assert vectors.members == tuple(sorted(
        g.index_of(((x, y), 0)) for x in range(32) for y in range(32)))
    assert g.subgroup(vectors.members).is_normal()
