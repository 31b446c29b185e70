"""Normalized characters of finite quotients, biset characters, induction.

A ``FiniteCharacter`` is a conjugation-invariant function with value 1 at the
identity, stored per conjugacy class.  ``BisetCharacter`` couples a finite
quotient Q with a finite group H and holds the rational fixed-point fractions
of a Q-H-biset; inducing a character of H through it is the one induction
formula, ``finite_groups.induced_value``, with the biset in place of the
i-function, divided by its value at the identity.  ``i_finite`` is the biset
of the i-function of Q, read from ``FiniteGroup.i_value``.

A ``LimitCharacterSpec`` names the limit of a character sequence along a
chain.  Its ``"induced"`` limit is the one induction formula of
``finite_groups.induced_value``, sum_h i_G(g, h) chi(h) / chi(1), with the
i-function of the built-in group G in place of a finite quotient's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .finite_groups import (ClosureTooLarge, FiniteGroup, FiniteSubgroup,
                            L2MultError, OrdinaryCharacter, induced_value)
from .word_groups import (BuiltinGroup, FreeAbelianGroup, FiniteIndexSubgroup,
                          UnsupportedFamily, Word)


class CharacterError(L2MultError):
    pass


class NotAnAction(CharacterError):
    pass


class CannotInduce(CharacterError):
    pass


class CrossCheckFailed(CharacterError):
    pass


class HNotNormalizing(CharacterError):
    pass


class FiniteCharacter:
    """Class function on a finite group with value 1 at the identity."""

    def __init__(self, group: FiniteGroup, values):
        self.group = group
        self.values = np.asarray(values, dtype=complex)
        classes = group.conjugacy_classes()
        if len(self.values) != len(classes.representatives):
            raise CharacterError("one value per conjugacy class required")
        self.normalized = bool(abs(self.values[0] - 1.0) <= 1e-9)

    @classmethod
    def from_ordinary(cls, chi: OrdinaryCharacter) -> "FiniteCharacter":
        return cls(chi.group, chi.normalized_values())

    def value(self, element: int) -> complex:
        return self.values[self.group.class_of_element(element)]

    def to_json(self) -> dict:
        classes = self.group.conjugacy_classes()
        return {
            "normalized": self.normalized,
            "classes": [
                {"representative": self.group.label(rep), "size": size,
                 "value": [float(v.real), float(v.imag)]}
                for rep, size, v in zip(classes.representatives, classes.sizes,
                                        self.values)
            ],
        }


def regular_character(group: FiniteGroup) -> FiniteCharacter:
    values = [0.0] * len(group.conjugacy_classes().representatives)
    values[0] = 1.0
    return FiniteCharacter(group, values)


def trivial_character(group: FiniteGroup) -> FiniteCharacter:
    k = len(group.conjugacy_classes().representatives)
    return FiniteCharacter(group, [1.0] * k)


def check_action(group: FiniteGroup, act, n_points: int) -> np.ndarray:
    """The table P[g][x] = act(g, x) = x.g of a right action on the points
    0..n_points-1, else ``NotAnAction``: the identity fixes every point and
    P[x s] = P[s][P[x]] for every x and generator s, one gather each, which
    gives x.(g h) = (x.g).h for every pair by induction on word length."""
    perms = np.array([[act(g, x) for x in range(n_points)]
                      for g in range(group.order)],
                     dtype=np.int64).reshape(group.order, n_points)
    if ((perms < 0) | (perms >= n_points)).any():
        raise NotAnAction("the action leaves the points")
    if (perms[0] != np.arange(n_points)).any():
        raise NotAnAction("identity does not act trivially")
    for s in group.generators:
        if (perms[group.right(s)] != perms[s][perms]).any():
            raise NotAnAction(f"generator {s} breaks associativity of the "
                              f"action")
    return perms


def perm_character(group: FiniteGroup, act, n_points: int) -> FiniteCharacter:
    """Fixed-point fraction character of a right action act(g, x) = x.g."""
    perms = check_action(group, act, n_points)
    reps = group.conjugacy_classes().representatives
    fixed = (perms[reps] == np.arange(n_points)).sum(axis=1)
    return FiniteCharacter(group, fixed / n_points)


# ---------------------------------------------------------------------------
# Biset characters
# ---------------------------------------------------------------------------

@dataclass
class BisetCharacter:
    """Rational character values of a Q-H-biset, one per (Q-class, H-element).

    ``h_group`` is a standalone copy of H; ``h_in_q`` gives the image of each
    of its elements inside Q (empty when H only acts abstractly).
    """

    q_group: FiniteGroup
    h_group: FiniteGroup
    values: dict[tuple[int, int], Fraction]
    h_in_q: tuple[int, ...] = ()

    def value(self, q_element: int, h_element: int) -> Fraction:
        cls = self.q_group.class_of_element(q_element)
        return self.values.get((cls, h_element), Fraction(0))


def i_finite(q_group: FiniteGroup, h_sub: FiniteSubgroup) -> BisetCharacter:
    """i(g,h) = [Q:C_Q(h)]^-1 when g and h are conjugate in Q, else 0."""
    if h_sub.parent is not q_group:
        raise CharacterError("subgroup of a different group")
    h_abs, _ = h_sub.abstract_group()
    values: dict[tuple[int, int], Fraction] = {}
    for cls, g in enumerate(q_group.conjugacy_classes().representatives):
        for h_local, h_parent in enumerate(h_sub.members):
            i = q_group.i_value(g, h_parent)
            if i:
                values[(cls, h_local)] = i
    return BisetCharacter(q_group, h_abs, values, tuple(h_sub.members))


def induce_via(psi: BisetCharacter, phi: FiniteCharacter) -> FiniteCharacter:
    """Character of Q induced by phi through psi: ``induced_value`` with psi
    as the i-function, normalized by its value at the identity, which must
    exceed 1e-10 in modulus."""
    if phi.group is not psi.h_group:
        raise CharacterError("phi must live on the biset's H")
    pairs = [(h, complex(phi.value(h))) for h in range(psi.h_group.order)]
    denom = complex(induced_value(psi.value, 0, pairs))
    if abs(denom) <= 1e-10:
        raise CannotInduce(f"denominator {denom} vanishes")
    return FiniteCharacter(psi.q_group, [
        induced_value(psi.value, g, pairs) / denom
        for g in psi.q_group.conjugacy_classes().representatives])


def finite_word_subgroup(words: list[Word]):
    """Closure of a word list, of at most 512 elements; returns (H_abs,
    elements) with elements[i] the word realizing H_abs element i and
    elements[0] the identity."""
    if not words:
        raise CharacterError("empty generating set")
    group = words[0].group
    ident = group.identity()
    elems = [ident]
    seen = {ident: 0}
    frontier = [ident]
    gens = [w for w in words if not w.is_identity()]
    while frontier:
        w = frontier.pop()
        for g in gens:
            for u in (w * g, w * g.inverse()):
                if u not in seen:
                    if len(elems) >= 512:
                        raise ClosureTooLarge("word closure exceeds cap 512")
                    seen[u] = len(elems)
                    elems.append(u)
                    frontier.append(u)

    def mul(xs, y):
        # products of closure words are already in canonical form
        w = elems[y[0]]
        return np.array([[seen[elems[x] * w]] for x in xs[:, 0]],
                        dtype=np.int64).reshape(len(xs), 1)

    # element i is the row (i,)
    h_abs = FiniteGroup(np.arange(len(elems)), mul, name="H",
                        generators=sorted({seen[g] for g in gens}),
                        label=lambda i: str(elems[i]),
                        index=lambda rows: rows[:, 0],
                        encode=lambda w: seen[w])
    return h_abs, elems


def check_normalizes(level: FiniteIndexSubgroup, h_images: list[int]):
    """Raise HNotNormalizing unless each image in Q normalizes the fiber."""
    for him in h_images:
        if not level.fiber.normalized_by(him):
            raise HNotNormalizing(
                f"{level.via.target.label(him)} does not normalize the fiber")


def fixed_coset_count(level: FiniteIndexSubgroup, g: int,
                      h_image: int = 0) -> int:
    """#{cosets fK : f^-1 g f in hK}; the Farber count is the one at h = 1.

    Requires h to normalize the fiber K (``check_normalizes``); then the
    condition is constant on each coset fK, and since f -> f^-1 g f hits
    every element of cl(g) equally often, the count is the class equation
    [Q:K] |cl(g) & hK| / |cl(g)|.
    """
    q = level.via.target
    cls = q.conjugacy_class(g)
    left = q.left(h_image)
    hits = sum(1 for k in level.fiber.members if left[k] in cls)
    return level.index * hits // len(cls)


def biset_character(gamma: FiniteIndexSubgroup, h_words: list[Word],
                    h_abs: FiniteGroup | None = None,
                    h_elems: list[Word] | None = None) -> BisetCharacter:
    """Character of the biset G/Gamma computed inside the finite quotient:
    psi(g,h) = #{cosets fK : f^-1 g f in hK} / [Q:K]."""
    if h_abs is None:
        h_abs, h_elems = finite_word_subgroup(h_words)
    q = gamma.via.target
    h_images = [gamma.via.evaluate(w) for w in h_elems]
    check_normalizes(gamma, h_images)
    classes = q.conjugacy_classes()
    values: dict[tuple[int, int], Fraction] = {}
    for cls, g in enumerate(classes.representatives):
        for h_local, him in enumerate(h_images):
            count = fixed_coset_count(gamma, g, him)
            if count:
                values[(cls, h_local)] = Fraction(count, gamma.index)
    return BisetCharacter(q, h_abs, values, tuple(h_images))


# ---------------------------------------------------------------------------
# Limit characters of the built-in infinite groups
# ---------------------------------------------------------------------------

@dataclass
class LimitCharacterSpec:
    """Limit of a character sequence on a built-in group.

    kind: "regular" | "trivial" | "circle" | "induced".
    - circle: requires FreeAbelian(1) and a unimodular z.
    - induced: an irreducible character chi of the finite subgroup H
      generated by h_words; the limit at g is sum_h i_G(g, h) chi(h) / chi(1),
      ``induced_value`` with the family's i-function
      (``BuiltinGroup.i_value``).  For
      families without a conjugacy oracle the caller must assert that all
      nontrivial elements of H have infinite-index centralizers, which
      collapses the limit to the regular character.
    """

    group: BuiltinGroup
    kind: str
    z: complex = 1.0
    h_words: list[Word] = field(default_factory=list)
    chi: OrdinaryCharacter | None = None
    assert_infinite_centralizers: bool = False

    def __post_init__(self):
        if self.kind == "circle":
            if not isinstance(self.group, FreeAbelianGroup) or self.group.rank != 1:
                raise UnsupportedFamily("circle characters need FreeAbelian(1)")
            if abs(abs(self.z) - 1.0) > 1e-12:
                raise CharacterError("|z| must be 1")
        if self.kind == "induced":
            h_abs, elems = finite_word_subgroup(self.h_words)
            if self.chi is None or self.chi.group.order != h_abs.order:
                raise CharacterError("chi must live on the subgroup of h_words")
            self._h_abs, self._h_elems = h_abs, elems
            try:
                self._chi_index = [self.chi.group.index_of(w) for w in elems]
            except KeyError:
                if h_abs.order == 1:
                    self._chi_index = [0]
                else:
                    raise CharacterError(
                        "chi must be defined on the word subgroup itself")


def limit_value(spec: LimitCharacterSpec, w: Word) -> complex:
    if w.group is not spec.group:
        raise CharacterError("word from a different group")
    if spec.kind == "regular":
        return 1.0 if w.is_identity() else 0.0
    if spec.kind == "trivial":
        return 1.0
    if spec.kind == "circle":
        return complex(spec.z) ** w.data[0]
    if spec.kind == "induced":
        if spec.assert_infinite_centralizers:
            return 1.0 if w.is_identity() else 0.0
        return induced_value(spec.group.i_value, w, (
            (h_word, spec.chi.value(k) / spec.chi.degree)
            for h_word, k in zip(spec._h_elems, spec._chi_index)))
    raise CharacterError(f"unknown limit kind {spec.kind!r}")
