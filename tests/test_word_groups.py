from fractions import Fraction

import pytest

from l2mult import (FiniteGroup, FreeAbelianGroup, FreeByFiniteGroup,
                    FreeGroup, GroupRingMatrix, InfiniteDihedralGroup,
                    QuotientChain, QuotientMap, abelian_group, cyclic_group,
                    dihedral_group, push_matrix, validate_chain)
from l2mult.word_groups import (ChainBroken, FiniteIndexSubgroup, Word,
                                WordGroupError, format_ring_sum,
                                intersection_heuristic, parse_ring_sum)

from conftest import make_rng


def _random_word(rng, group, max_len=6):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        letters.append((rng.randrange(group.n_letters), rng.choice([1, -1])))
    return group.data_from_letters(letters)


def _random_words(rng, group, count, max_len=6):
    return [Word(group, _random_word(rng, group, max_len))
            for _ in range(count)]


def _renormalized(word):
    # the round trip through the letters and ``data_from_letters``
    return Word(word.group, word.group.data_from_letters(word.letters()))


def test_free_reduction():
    f2 = FreeGroup(2)
    assert str(f2.word("aa'b")) == "b"
    assert f2.word("aba'ab'a'").is_identity()


def test_dihedral_normal_form():
    d = InfiniteDihedralGroup()
    assert str(d.word("ba")) == "a'b"          # s t = t^-1 s
    assert d.word("bb").is_identity()
    assert str(d.word("ab") * d.word("ab")) == "1"


def test_free_abelian_normal_form():
    z2 = FreeAbelianGroup(2)
    assert str(z2.word("ba")) == "ab"
    assert z2.word("aba'b'").is_identity()


@pytest.mark.parametrize("group", [FreeGroup(2), FreeAbelianGroup(2),
                                   InfiniteDihedralGroup()])
def test_normal_form_idempotent_and_multiplicative(group):
    rng = make_rng(21)
    for _ in range(60):
        u, v = _random_words(rng, group, 2)
        assert _renormalized(u) == u
        assert _renormalized(_renormalized(u) * _renormalized(v)) == u * v
        assert (u * v).inverse() == v.inverse() * u.inverse()
        assert (u * u.inverse()).is_identity()


def test_free_group_i_value_at_rank_one():
    # F_1 = Z is abelian: every element's centralizer is the whole group
    f1, z = FreeGroup(1), FreeAbelianGroup(1)
    assert f1.i_value(f1.word("a"), f1.word("a")) == \
        z.i_value(z.word("a"), z.word("a")) == 1
    assert f1.i_value(f1.word("a"), f1.word("a'")) == 0
    # in rank 2 a nontrivial word has an infinite conjugacy class
    f2 = FreeGroup(2)
    assert f2.i_value(f2.word("a"), f2.word("a")) == 0
    assert f2.i_value(f2.identity(), f2.identity()) == 1


def test_finite_class_per_family():
    # the conjugacy class when it is finite, else None, spelled by hand
    def classes(group, words):
        return {w: (None if (cls := group.finite_class(group.word(w))) is None
                    else {str(u) for u in cls}) for w in words}
    assert classes(FreeGroup(1), ["a", "a'a'"]) == {"a": {"a"},
                                                    "a'a'": {"a'a'"}}
    assert classes(FreeGroup(2), ["1", "a", "aba'"]) == {
        "1": {"1"}, "a": None, "aba'": None}
    assert classes(FreeAbelianGroup(2), ["ab'"]) == {"ab'": {"ab'"}}
    assert classes(InfiniteDihedralGroup(), ["1", "aa", "b", "ab"]) == {
        "1": {"1"}, "aa": {"aa", "a'a'"}, "b": None, "ab": None}
    # Z : C_2 with b: a -> a^-1: a^k has the class {a^k, a^-k} at rank 1
    # too, and b and ab, which invert Z, have infinite classes
    z_c2 = FreeByFiniteGroup(1, cyclic_group(2), {1: ["a'"]})
    assert classes(z_c2, ["a", "aa", "b", "ab"]) == {
        "a": {"a", "a'"}, "aa": {"aa", "a'a'"}, "b": None, "ab": None}
    # F_2 : C_4 with c inverting both generators: c^2 is central, and a, c
    # and a c^2 have infinite classes
    f2_c4 = FreeByFiniteGroup(2, cyclic_group(4), {1: ["a'", "b'"]})
    assert classes(f2_c4, ["cc", "a", "c", "acc"]) == {
        "cc": {"cc"}, "a": None, "c": None, "acc": None}


def test_word_serialization_round_trip():
    f2 = FreeGroup(2)
    for text in ("1", "a", "ab'a", "b'b'a"):
        assert str(f2.word(text)) == text
    with pytest.raises(WordGroupError):
        f2.word("a3")


def test_ring_sum_serialization():
    z = FreeAbelianGroup(1)
    terms = parse_ring_sum(z, "3/2*a + -1*1")
    assert terms[z.word("a")] == Fraction(3, 2)
    assert terms[z.identity()] == Fraction(-1)
    assert format_ring_sum(terms) == "-1*1 + 3/2*a"
    assert parse_ring_sum(z, "0") == {}


def test_sup_norm_bound_examples():
    z = FreeAbelianGroup(1)
    a = GroupRingMatrix.from_strings(z, [["1 + -1*a"]])
    assert a.sup_norm_bound() == 2
    zero = GroupRingMatrix(z, 2, 2)
    assert zero.sup_norm_bound() == 0
    gram = a.adjoint() @ a
    assert gram.sup_norm_bound() == 4
    # expansion is 2 - a - a'
    entry = gram.entry(0, 0)
    assert entry[z.identity()] == 2
    assert entry[z.word("a")] == -1 and entry[z.word("a'")] == -1


def test_sup_norm_submultiplicative():
    rng = make_rng(22)
    f2 = FreeGroup(2)
    for _ in range(30):
        words = _random_words(rng, f2, 4, max_len=3)
        a = GroupRingMatrix(f2, 1, 2, {
            (0, 0): {words[0]: Fraction(rng.randint(-3, 3))},
            (0, 1): {words[1]: Fraction(rng.randint(-3, 3))}})
        b = GroupRingMatrix(f2, 2, 1, {
            (0, 0): {words[2]: Fraction(rng.randint(-3, 3))},
            (1, 0): {words[3]: Fraction(rng.randint(-3, 3))}})
        assert (a @ b).sup_norm_bound() <= a.sup_norm_bound() * b.sup_norm_bound()


def test_adjoint_involution_and_products():
    rng = make_rng(23)
    d = InfiniteDihedralGroup()
    assert GroupRingMatrix.from_strings(d, [["1 + -1*a"]]).adjoint() == \
        GroupRingMatrix.from_strings(d, [["1 + -1*a'"]])
    for _ in range(20):
        words = _random_words(rng, d, 4, max_len=4)
        a = GroupRingMatrix(d, 2, 2, {
            (0, 0): {words[0]: Fraction(2)}, (0, 1): {words[1]: Fraction(-1)},
            (1, 1): {words[2]: Fraction(1, 2)}, (1, 0): {words[3]: Fraction(3)}})
        assert a.adjoint().adjoint() == a
        gram = a.adjoint() @ a
        assert gram.adjoint() == gram


def test_evaluate_homomorphism():
    rng = make_rng(24)
    d = InfiniteDihedralGroup()
    dg = dihedral_group(6)
    q = QuotientMap(d, dg, [dg.index_of((1, 0)), dg.index_of((0, 1))])
    for _ in range(50):
        u, v = _random_words(rng, d, 2)
        assert q.evaluate(u * v) == dg.right(q.evaluate(v))[q.evaluate(u)]
    assert q.evaluate(d.identity()) == 0
    assert q.evaluate(d.word("aaaaaa")) == 0          # t^6 dies mod 6


def test_evaluate_commutator_dies_in_abelianization():
    f2 = FreeGroup(2)
    k4 = abelian_group([2, 2])
    q = QuotientMap(f2, k4, [k4.index_of((1, 0)), k4.index_of((0, 1))])
    assert q.evaluate(f2.word("aba'b'")) == 0


def test_quotient_map_relator_validation():
    d = InfiniteDihedralGroup()
    c4 = cyclic_group(4)
    with pytest.raises(WordGroupError):
        QuotientMap(d, c4, [1, 1])        # s^2 = 1 fails
    z2 = FreeAbelianGroup(2)
    s3 = None
    from l2mult import from_generators
    s3 = from_generators([(1, 0, 2), (0, 2, 1)])
    with pytest.raises(WordGroupError):
        QuotientMap(z2, s3, [s3.generators[0], s3.generators[1]])
    with pytest.raises(WordGroupError):  # not surjective
        QuotientMap(FreeAbelianGroup(1), c4, [2])
    # free-by-finite: the relations of H and the semidirect relations
    from l2mult import semidirect_vector_group
    c2 = cyclic_group(2)
    g = FreeByFiniteGroup(2, c2, {1: ["a'", "b'"]})
    target = semidirect_vector_group([4, 4], c2, {1: [[-1, 0], [0, -1]]})
    a, b = target.index_of(((1, 0), 0)), target.index_of(((0, 1), 0))
    QuotientMap(g, target, [a, b, target.index_of(((0, 0), 1))])
    with pytest.raises(WordGroupError, match="relator cc "):
        QuotientMap(g, target, [a, b, a])          # c of order 4
    z442 = abelian_group([4, 4, 2])
    with pytest.raises(WordGroupError, match="relator cac'a "):
        QuotientMap(g, z442, z442.generators)      # c a c^-1 = a, not a^-1
    # the same relators decide which letter permutations give a rep
    from l2mult.spectral import SpectralError, WordPermRep
    t = [1, 2, 3, 0]
    rho = WordPermRep(d, [t, [0, 3, 2, 1]])       # x.s = -x mod 4
    for x in (d.word("a"), d.word("b"), d.word("ab"), d.word("a'")):
        for y in (d.word("b"), d.word("aab")):
            assert (rho.matrix(x) @ rho.matrix(y) == rho.matrix(x * y)).all()
    with pytest.raises(SpectralError, match="relator bb$"):
        WordPermRep(d, [t, t])
    with pytest.raises(SpectralError, match="relator baba$"):
        WordPermRep(d, [t, [1, 0, 2, 3]])     # (0 1) is no reflection of Z/4
    with pytest.raises(SpectralError, match="relator aba'b'$"):
        WordPermRep(z2, [[1, 0, 2], [0, 2, 1]])


def test_push_matrix_basics():
    z = FreeAbelianGroup(1)
    a = GroupRingMatrix.from_strings(z, [["1 + -1*a"]])
    c4 = cyclic_group(4)
    q = QuotientMap(z, c4, [1])
    pushed = push_matrix(q, a)
    assert pushed.entry(0, 0) == {0: Fraction(1), 1: Fraction(-1)}
    # one matrix class over both kinds of group; finite elements print as
    # their indices, and ring sums are read over built-in groups only
    assert type(pushed) is GroupRingMatrix
    assert repr(pushed) == "[1*0 + -1*1]"
    assert repr(pushed.adjoint() @ pushed) == "[2*0 + -1*1 + -1*3]"
    with pytest.raises(WordGroupError):
        GroupRingMatrix.from_strings(c4, [["1 + -1*a"]])
    # trivial quotient collapses the coefficients
    c1 = cyclic_group(1)
    pushed1 = push_matrix(QuotientMap(z, c1, [0]), a)
    assert pushed1.entries == {}
    assert push_matrix(q, GroupRingMatrix(z, 2, 3)).entries == {}


def test_push_commutes_with_adjoint_and_product():
    rng = make_rng(25)
    d = InfiniteDihedralGroup()
    dg = dihedral_group(4)
    q = QuotientMap(d, dg, [dg.index_of((1, 0)), dg.index_of((0, 1))])
    for _ in range(20):
        words = _random_words(rng, d, 4, max_len=4)
        a = GroupRingMatrix(d, 2, 2, {
            (0, 0): {words[0]: Fraction(1)}, (0, 1): {words[1]: Fraction(-2)},
            (1, 0): {words[2]: Fraction(1, 3)}, (1, 1): {words[3]: Fraction(1)}})
        assert push_matrix(q, a.adjoint()) == push_matrix(q, a).adjoint()
        assert push_matrix(q, a @ a) == push_matrix(q, a) @ push_matrix(q, a)


def _level(group, target, images, fiber=(0,)):
    return FiniteIndexSubgroup(QuotientMap(group, target, images),
                               target.subgroup(fiber))


def _cyclic_chain(depth=3):
    z = FreeAbelianGroup(1)
    return QuotientChain([_level(z, cyclic_group(2 ** n), [1])
                          for n in range(1, depth + 1)])


def test_validate_chain_cyclic():
    chain = _cyclic_chain()
    reports = validate_chain(chain)
    assert [r.index for r in reports] == [2, 4, 8]
    assert all(r.normal for r in reports)


def test_validate_chain_broken():
    # Z -> C3 does not factor through Z -> C2
    z, c2, c3 = FreeAbelianGroup(1), cyclic_group(2), cyclic_group(3)
    with pytest.raises(ChainBroken, match="disagree"):
        validate_chain(QuotientChain([_level(z, c2, [1]), _level(z, c3, [1])]))
    # a, b -> 1 in C4 but to distinct units of C2 x C2: a homomorphism
    # C4 -> C2 x C2 fits either letter alone, so only the repeated image
    # shows the break
    f2, c4, v4 = FreeGroup(2), cyclic_group(4), abelian_group([2, 2])
    units = [v4.index_of((1, 0)), v4.index_of((0, 1))]
    with pytest.raises(ChainBroken, match="repeats an image"):
        validate_chain(QuotientChain([_level(f2, v4, units),
                                      _level(f2, c4, [1, 1])]))
    # Dih8 -> Dih4 carries the reflection fiber of Dih8 onto a reflection,
    # outside the kernel fiber of Dih4
    d = InfiniteDihedralGroup()
    dih4, dih8 = dihedral_group(2), dihedral_group(4)
    with pytest.raises(ChainBroken, match="fiber does not map into fiber"):
        validate_chain(QuotientChain([
            _level(d, dih4, [dih4.index_of((1, 0)), dih4.index_of((0, 1))]),
            _level(d, dih8, [dih8.index_of((1, 0)), dih8.index_of((0, 1))],
                   fiber=(0, dih8.index_of((0, 1))))]))


def test_dihedral_reflection_fibers_not_normal():
    d = InfiniteDihedralGroup()
    for m in (2, 4, 8):
        dg = dihedral_group(m)
        q = QuotientMap(d, dg, [dg.index_of((1 % m, 0)), dg.index_of((0, 1))])
        fiber = dg.subgroup([0, dg.index_of((0, 1))])
        level = FiniteIndexSubgroup(q, fiber)
        assert level.index == m
        assert level.is_normal() == (m <= 2)


def test_intersection_heuristic():
    chain = _cyclic_chain(3)
    # no nonidentity word of length <= 7 maps into the deepest kernel (8Z)
    assert intersection_heuristic(chain) == 7
    # D_inf orders 2..256: the shortest nonidentity kernel word is a^256
    from l2mult.runner import build_chain
    dinf = build_chain({"template": "dihedral",
                        "orders": [2 ** k for k in range(1, 9)]},
                       InfiniteDihedralGroup())
    assert intersection_heuristic(dinf) == 255


def test_free_by_finite_inversion():
    c2 = cyclic_group(2)
    g = FreeByFiniteGroup(2, c2, {1: ["a'", "b'"]})
    sigma = g.word("c")
    a = g.word("a")
    assert sigma * sigma == g.identity()
    assert sigma * a * sigma == a.inverse()
    assert str(sigma * a) == "a'c"
    rng = make_rng(26)
    for _ in range(40):
        u, v = _random_words(rng, g, 2, max_len=5)
        assert (u * v).inverse() == v.inverse() * u.inverse()
        assert _renormalized(u * v) == u * v


def test_free_by_finite_h_words():
    # breadth first over g, then g^-1: the inverse letter wins only where
    # it is shorter
    from l2mult.word_groups import Word
    g = FreeByFiniteGroup(2, cyclic_group(4), {1: ["b", "a'"]})
    assert [str(Word(g, ((), x))) for x in range(4)] == ["1", "c", "cc", "c'"]


def test_free_by_finite_rejects_inconsistent_action():
    c2 = cyclic_group(2)
    with pytest.raises(WordGroupError):
        FreeByFiniteGroup(2, c2, {1: ["ab", "b"]})   # not an involution


def test_free_by_finite_rejects_non_automorphism():
    # a -> aa is injective but not onto; extend sees it on the edge back to
    # the identity, where a -> a^4 would have to equal a
    with pytest.raises(WordGroupError, match="disagree"):
        FreeByFiniteGroup(1, cyclic_group(2), {1: ["aa"]})


def test_free_by_finite_quotient_map():
    from l2mult import semidirect_vector_group
    c2 = cyclic_group(2)
    g = FreeByFiniteGroup(2, c2, {1: ["a'", "b'"]})
    target = semidirect_vector_group([4, 4], c2, {1: [[-1, 0], [0, -1]]})
    images = [target.index_of(((1, 0), 0)), target.index_of(((0, 1), 0)),
              target.index_of(((0, 0), 1))]
    q = QuotientMap(g, target, images)
    assert q.evaluate(g.word("cac")) == target.index_of(((3, 0), 0))
    with pytest.raises(WordGroupError):
        bad = [target.index_of(((1, 0), 0)), target.index_of(((0, 1), 0)),
               target.index_of(((1, 0), 0))]      # sigma-letter not an involution
        QuotientMap(g, target, bad)


def test_surjectivity_walks_only_images_other_than_the_generators(
        monkeypatch):
    walked = []
    walk = FiniteGroup.walk

    def recorded(group, gens):
        walked.append(tuple(gens))
        return walk(group, gens)
    monkeypatch.setattr(FiniteGroup, "walk", recorded)
    z, f2 = FreeAbelianGroup(1), FreeGroup(2)
    c4, z44 = cyclic_group(4), abelian_group([4, 4])
    # the target's own generators: its table walk has shown they generate
    QuotientMap(z, c4, c4.generators)
    QuotientMap(f2, z44, z44.generators)
    assert walked == []
    # any other image set is walked, and one that generates passes
    QuotientMap(z, c4, [3])
    assert walked == [(3,)]
    x, y = z44.generators
    for images in ([x, x], [x, z44.index_of((0, 2))]):
        with pytest.raises(WordGroupError, match="do not generate"):
            QuotientMap(f2, z44, images)
    with pytest.raises(WordGroupError, match="do not generate"):
        QuotientMap(z, c4, [2])
