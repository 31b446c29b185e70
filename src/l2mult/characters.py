"""Actions, word subgroups and fixed-coset counts of the character layer.

``check_action`` reads and checks the table of a right action of a finite
group.  ``finite_word_subgroup`` closes a list of words into the finite
subgroup H of a built-in group, as an abstract ``FiniteGroup`` with the word
of each element.  ``fixed_coset_count`` is the count behind the Farber and
relative-Farber diagnostics at a chain level, once ``check_normalizes`` has
checked that H normalizes the fiber.

Characters are ``finite_groups.OrdinaryCharacter``, and every induced
character, on a finite quotient or in the limit on a built-in group, is the
one formula ``finite_groups.induced_value``.
"""

from __future__ import annotations

import numpy as np

from .finite_groups import ClosureTooLarge, FiniteGroup, L2MultError
from .word_groups import FiniteIndexSubgroup, Word


class CharacterError(L2MultError):
    pass


class NotAnAction(CharacterError):
    pass


class CrossCheckFailed(CharacterError):
    pass


class HNotNormalizing(CharacterError):
    pass


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
