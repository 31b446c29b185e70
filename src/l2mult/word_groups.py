"""Built-in infinite groups with solvable word problems.

Supported families: free groups, free abelian groups, the infinite dihedral
group <t, s | s^2, s t s = t^-1>, and free-by-finite semidirect products
F_r : H for a finite group H acting on the free generators.  Elements are
``Word`` values stored in a per-family normal form; quotient maps onto
finite groups are built on top.

Each family carries its presentation, ``relators()``, which every quotient
map and word permutation representation must satisfy, and its one conjugacy
oracle, ``finite_class``: the class of a word when it is finite, else None.
The i-function ``i_value`` reads only that, as ``FiniteGroup.i_value`` reads
a finite group's classes.

``GroupRingMatrix`` is the one sparse matrix class over a rational group
ring.  It works over a built-in group, with entries keyed by words, and over
a finite group, with entries keyed by element indices; products and adjoints
go through the group's ``products`` and ``inv``, and ``push_matrix`` carries a
matrix from a built-in group to a finite quotient.  A coefficient is an int
when it is integral and a Fraction otherwise, the convention of the exact
columns of ``_linalg``: the constructor, which every matrix passes through,
is the one place that normalizes them, so products, adjoints and sums of
integral matrices run on Python ints.  ``FiniteAlgebraMatrix`` is another
name for the same class.

Serialization uses the alphabet a, b, c, ... for the generators with a
trailing apostrophe for inverses ("ab'a"), "1" for the identity, and group
ring sums like "3/2*ab' + -1*1".
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from ._linalg import axpy
from .finite_groups import (FiniteGroup, FiniteSubgroup, GroupHom,
                            L2MultError, extend)


class WordGroupError(L2MultError):
    pass


class UnsupportedFamily(L2MultError):
    pass


class ChainBroken(WordGroupError):
    def __init__(self, level, detail=""):
        self.level = level
        super().__init__(f"chain broken at level {level}: {detail}")


class BuiltinGroup:
    """Base for the built-in families; subclasses provide the word problem."""

    family = "abstract"
    n_letters = 0

    def identity(self) -> "Word":
        return Word(self, self.identity_data())

    def generator(self, i: int) -> "Word":
        if not 0 <= i < self.n_letters:
            raise WordGroupError(f"no generator {i}")
        return Word(self, self.data_from_letters(((i, 1),)))

    def word(self, text: str) -> "Word":
        return Word(self, self.data_from_letters(parse_letters(text)))

    def products(self, xs, g: "Word") -> list["Word"]:
        """x g for every word x of ``xs``."""
        return [x * g for x in xs]

    def inv(self, w: "Word") -> "Word":
        return w.inverse()

    def data_from_letters(self, letters):
        data = self.identity_data()
        for (i, e) in letters:
            data = self.mul_data(data, self.letter_data(i, e))
        return data

    def relators(self) -> tuple:
        """Letter tuples whose products are 1; with the letters they present
        the group."""
        return ()

    def finite_class(self, w: "Word") -> frozenset | None:
        """The conjugacy class of w as a set of words when it is finite,
        else None; the family's one conjugacy oracle."""
        raise NotImplementedError

    def i_value(self, g: "Word", h: "Word") -> Fraction:
        """The i-function i_G(g, h) = [G : C_G(h)]^-1 = 1/|cl(h)| when g lies
        in cl(h), else 0; an infinite class gives 0."""
        cls = self.finite_class(h)
        return Fraction(1, len(cls)) if cls is not None and g in cls \
            else Fraction(0)

    # subclasses implement: identity_data, letter_data, mul_data, inv_data,
    # letters_of
    def __repr__(self):
        return f"{type(self).__name__}()"


@dataclass(frozen=True)
class Word:
    group: BuiltinGroup
    data: tuple

    def __mul__(self, other: "Word") -> "Word":
        if other.group is not self.group:
            raise WordGroupError("words from different groups")
        return Word(self.group, self.group.mul_data(self.data, other.data))

    def inverse(self) -> "Word":
        return Word(self.group, self.group.inv_data(self.data))

    def is_identity(self) -> bool:
        return self.data == self.group.identity_data()

    def letters(self):
        return self.group.letters_of(self.data)

    def __str__(self):
        return format_letters(self.letters())

    def __hash__(self):
        return hash((id(self.group), self.data))

    def __eq__(self, other):
        return isinstance(other, Word) and other.group is self.group \
            and other.data == self.data


def parse_letters(text: str):
    text = text.strip()
    if text in ("", "1"):
        return ()
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if not c.isalpha():
            raise WordGroupError(f"bad word syntax: {text!r}")
        idx = ord(c.lower()) - 97
        i += 1
        exp = 1
        if i < len(text) and text[i] == "'":
            exp = -1
            i += 1
        out.append((idx, exp))
    return tuple(out)


def format_letters(letters) -> str:
    if not letters:
        return "1"
    return "".join(chr(97 + i) + ("'" if e < 0 else "") for i, e in letters)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def _free_reduce_append(letters: list, item):
    if letters and letters[-1][0] == item[0] and letters[-1][1] == -item[1]:
        letters.pop()
    else:
        letters.append(item)


class FreeGroup(BuiltinGroup):
    family = "free"

    def __init__(self, rank: int):
        if not 0 < rank <= 26:
            raise WordGroupError("rank must be between 1 and 26")
        self.rank = rank
        self.n_letters = rank

    def identity_data(self):
        return ()

    def letter_data(self, i, e):
        if not 0 <= i < self.rank:
            raise WordGroupError(f"no generator {i}")
        return ((i, e),)

    def mul_data(self, d1, d2):
        out = list(d1)
        for item in d2:
            _free_reduce_append(out, item)
        return tuple(out)

    def inv_data(self, d):
        return tuple((i, -e) for i, e in reversed(d))

    def letters_of(self, d):
        return d

    def finite_class(self, w):
        """F_1 = Z is abelian; in rank >= 2 a nontrivial word has a cyclic
        centralizer, of infinite index."""
        return frozenset((w,)) if not w.data or self.rank == 1 else None

    def __repr__(self):
        return f"FreeGroup({self.rank})"


class FreeAbelianGroup(BuiltinGroup):
    family = "free_abelian"

    def __init__(self, rank: int):
        if not 0 < rank <= 26:
            raise WordGroupError("rank must be between 1 and 26")
        self.rank = rank
        self.n_letters = rank

    def identity_data(self):
        return (0,) * self.rank

    def letter_data(self, i, e):
        if not 0 <= i < self.rank:
            raise WordGroupError(f"no generator {i}")
        v = [0] * self.rank
        v[i] = e
        return tuple(v)

    def mul_data(self, d1, d2):
        return tuple(x + y for x, y in zip(d1, d2))

    def inv_data(self, d):
        return tuple(-x for x in d)

    def letters_of(self, d):
        out = []
        for i, k in enumerate(d):
            out.extend([(i, 1 if k > 0 else -1)] * abs(k))
        return tuple(out)

    def relators(self):
        r = self.rank
        return tuple(((i, 1), (j, 1), (i, -1), (j, -1))
                     for i in range(r) for j in range(i + 1, r))

    def finite_class(self, w):
        return frozenset((w,))

    def __repr__(self):
        return f"FreeAbelianGroup({self.rank})"


class InfiniteDihedralGroup(BuiltinGroup):
    """<t, s | s^2 = 1, s t s = t^-1>; normal form t^k or t^k s.

    Letter 0 is t, letter 1 is s.
    """

    family = "dihedral_infinite"
    n_letters = 2

    def identity_data(self):
        return (0, 0)

    def letter_data(self, i, e):
        if i == 0:
            return (e, 0)
        if i == 1:
            return (0, 1)
        raise WordGroupError(f"no generator {i}")

    def mul_data(self, d1, d2):
        k1, e1 = d1
        k2, e2 = d2
        return (k1 + (k2 if e1 == 0 else -k2), e1 ^ e2)

    def inv_data(self, d):
        k, e = d
        return ((-k, 0) if e == 0 else (k, 1))

    def letters_of(self, d):
        k, e = d
        out = [(0, 1 if k > 0 else -1)] * abs(k)
        if e:
            out.append((1, 1))
        return tuple(out)

    def relators(self):
        return ((1, 1), (1, 1)), ((1, 1), (0, 1), (1, 1), (0, 1))

    def finite_class(self, w):
        """{t^k, t^-k}; a reflection t^k s has the infinite class
        {t^(k+2j) s}."""
        k, e = w.data
        return None if e else frozenset((w, Word(self, (-k, 0))))


class FreeByFiniteGroup(BuiltinGroup):
    """F_rank : H with H acting on the free group through generator images.

    ``action`` maps H generator indices to lists of ``rank`` words (strings
    or letter tuples) giving the images of the free generators.  The letters
    of the product group are the free generators followed by one letter per
    H generator.
    """

    family = "free_by_finite"

    def __init__(self, rank: int, h_group: FiniteGroup, action: dict):
        if rank <= 0:
            raise WordGroupError("rank must be positive")
        self.rank = rank
        self.h_group = h_group
        self.free = FreeGroup(rank)
        self.h_letter_of = {g: rank + pos for pos, g in enumerate(h_group.generators)}
        self.n_letters = rank + len(h_group.generators)
        if self.n_letters > 26:
            raise WordGroupError("alphabet is limited to 26 letters")
        self._aut = self._extend_action(action)
        self._h_words = self._shortest_h_words()
        # H's multiplication table by columns: h1 h2 = self._h_right[h2][h1]
        self._h_right = [h_group.right(g) for g in range(h_group.order)]

    def _parse_free(self, w):
        if isinstance(w, str):
            return self.free.data_from_letters(parse_letters(w))
        return tuple(w)

    def _apply(self, images, d):
        out = ()
        for i, e in d:
            img = images[i]
            out = self.free.mul_data(out, img if e > 0 else self.free.inv_data(img))
        return out

    def _extend_action(self, action: dict):
        h = self.h_group
        ident_images = tuple(self.free.letter_data(i, 1) for i in range(self.rank))
        gen_images = {}
        for g in h.generators:
            words = action[g]
            if len(words) != self.rank:
                raise WordGroupError("action must give one image per generator")
            gen_images[g] = tuple(self._parse_free(w) for w in words)

        def step(aut_x, imgs):
            # left action: (x*g) acts as x after g
            return tuple(self._apply(aut_x, img) for img in imgs)
        # extend checks aut(x*g) = aut(x) o aut(g) on every edge, so aut is a
        # homomorphism from H with aut(1) = id, and aut(x^-1) inverts aut(x):
        # every image is an automorphism without a check of its own
        return extend(h, gen_images, step, ident_images, WordGroupError)

    def _shortest_h_words(self):
        # letters g and then g^-1 per generator: each element gets a shortest
        # word, with inverse letters where those are shorter
        h = self.h_group
        letters = [(self.h_letter_of[g], e)
                   for g in h.generators for e in (1, -1)]
        gens = [g if e > 0 else h.inv(g) for g in h.generators for e in (1, -1)]
        reached, parent, letter = h.walk(gens)
        words = [()] * h.order
        for y, p, k in zip(reached[1:], parent, letter):
            words[y] = words[p] + (letters[k],)
        return words

    def apply_aut(self, h_idx: int, free_data):
        return self._apply(self._aut[h_idx], free_data)

    def identity_data(self):
        return ((), 0)

    def letter_data(self, i, e):
        if i < self.rank:
            return (((i, e),), 0)
        pos = i - self.rank
        if pos >= len(self.h_group.generators):
            raise WordGroupError(f"no generator {i}")
        g = self.h_group.generators[pos]
        return ((), g if e > 0 else self.h_group.inv(g))

    def mul_data(self, d1, d2):
        u1, h1 = d1
        u2, h2 = d2
        return (self.free.mul_data(u1, self.apply_aut(h1, u2)),
                self._h_right[h2][h1])

    def inv_data(self, d):
        u, h = d
        hi = self.h_group.inv(h)
        return (self.apply_aut(hi, self.free.inv_data(u)), hi)

    def letters_of(self, d):
        u, h = d
        return tuple(u) + self._h_words[h]

    def relators(self):
        """Per Cayley edge x -> x g of H, word(x) g word(x g)^-1; per H
        generator c and free generator a_i, c a_i c^-1 aut_c(a_i)^-1."""
        h, words, inv = self.h_group, self._h_words, self.free.inv_data
        out = []
        for g in h.generators:
            c = self.h_letter_of[g]
            out += [words[x] + ((c, 1),) + inv(words[xg])
                    for x, xg in enumerate(h.right(g))]
            out += [((c, 1), (i, 1), (c, -1))
                    + inv(self.apply_aut(g, ((i, 1),)))
                    for i in range(self.rank)]
        return tuple(out)

    def finite_class(self, w):
        """The class of h = (u, k) is finite exactly when psi: x -> u
        aut_k(x) u^-1 is the identity on the free generators, at every rank.

        If [G : C_G(h)] is finite, psi fixes the finite-index subgroup
        C_G(h) & F_r pointwise; every x in F_r has a power there, and roots
        are unique in a free group, so psi = id.  Conversely psi = id means
        F_r centralizes h, and the class is {j h j^-1 : j in H}.
        """
        free_gens = [self.generator(i) for i in range(self.rank)]
        if any(w * x * w.inverse() != x for x in free_gens):
            return None
        h_elems = [Word(self, ((), j)) for j in range(self.h_group.order)]
        return frozenset(j * w * j.inverse() for j in h_elems)

    def __repr__(self):
        return f"FreeByFiniteGroup({self.rank}, {self.h_group.name})"


# ---------------------------------------------------------------------------
# Group ring matrices
# ---------------------------------------------------------------------------

def parse_ring_sum(group: BuiltinGroup, text: str) -> dict[Word, Fraction]:
    out: dict[Word, Fraction] = {}
    text = text.strip()
    if text in ("", "0"):
        return out
    for part in text.split(" + "):
        part = part.strip()
        if "*" in part:
            coeff_s, word_s = part.split("*", 1)
            try:
                coeff = Fraction(coeff_s.strip())
            except (ValueError, ZeroDivisionError) as exc:
                raise WordGroupError(
                    f"bad coefficient {coeff_s.strip()!r}") from exc
        else:
            coeff, word_s = Fraction(1), part
        axpy(out, coeff, {group.word(word_s.strip()): 1})
    return out


def format_ring_sum(terms: dict) -> str:
    """Words sorted by length, then spelling; finite-group elements by
    index."""
    if not terms:
        return "0"
    keys = sorted(terms, key=lambda g: (len(g.letters()), str(g))
                  if isinstance(g, Word) else g)
    return " + ".join(f"{terms[k]}*{k}" for k in keys)


def ring_mul(group, t1: dict, t2: dict) -> dict:
    """Product of two group-ring elements, each a dict from elements of
    ``group`` to coefficients."""
    # g1 g2 for every g1 of t1, one batch per g2
    cols = [group.products(list(t1), g2) for g2 in t2]
    out: dict = {}
    for i, c1 in enumerate(t1.values()):
        # g -> g1 * g is injective, so each shifted copy of t2 is a plain dict
        axpy(out, c1, {col[i]: c2 for col, c2 in zip(cols, t2.values())})
    return out


def _exact(c) -> int | Fraction:
    """The exact value of the number c: an int when it is integral, else a
    Fraction."""
    c = Fraction(c)
    # int() also for a numpy integer, which a Fraction keeps as it is
    return int(c.numerator) if c.denominator == 1 else c


class GroupRingMatrix:
    """Sparse rectangular matrix over the rational group ring of a built-in
    group (entries keyed by words) or of a finite group (entries keyed by
    element indices).  The constructor, which every matrix passes through,
    keeps each integral coefficient as an int and every other one as a
    Fraction."""

    def __init__(self, group: BuiltinGroup | FiniteGroup, rows: int,
                 cols: int, entries=None):
        self.group = group
        self.rows = rows
        self.cols = cols
        self.entries: dict[tuple[int, int], dict] = {}
        if entries:
            for (i, j), terms in entries.items():
                clean = {w: c if type(c) is int else _exact(c)
                         for w, c in terms.items() if c}
                if clean:
                    self.entries[(i, j)] = clean

    @classmethod
    def from_strings(cls, group: BuiltinGroup, rows_of_sums):
        if not isinstance(group, BuiltinGroup):
            raise WordGroupError("ring sums are read over built-in groups only")
        rows = len(rows_of_sums)
        cols = len(rows_of_sums[0]) if rows else 0
        entries = {}
        for i, row in enumerate(rows_of_sums):
            if len(row) != cols:
                raise WordGroupError("ragged matrix")
            for j, text in enumerate(row):
                terms = parse_ring_sum(group, text)
                if terms:
                    entries[(i, j)] = terms
        return cls(group, rows, cols, entries)

    def entry(self, i, j) -> dict:
        return self.entries.get((i, j), {})

    def __matmul__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        if other.group is not self.group or self.cols != other.rows:
            raise WordGroupError("shape/group mismatch")
        out: dict[tuple[int, int], dict] = {}
        by_row: dict[int, list] = {}
        for (j, k), terms in other.entries.items():
            by_row.setdefault(j, []).append((k, terms))
        for (i, j), left in self.entries.items():
            for k, right in by_row.get(j, []):
                axpy(out.setdefault((i, k), {}), 1,
                     ring_mul(self.group, left, right))
        return GroupRingMatrix(self.group, self.rows, other.cols, out)

    def adjoint(self) -> "GroupRingMatrix":
        inv = self.group.inv
        out = {(j, i): {inv(g): c for g, c in terms.items()}
               for (i, j), terms in self.entries.items()}
        return GroupRingMatrix(self.group, self.cols, self.rows, out)

    def scale(self, c) -> "GroupRingMatrix":
        out = {key: {w: c * v for w, v in terms.items()}
               for key, terms in self.entries.items()}
        return GroupRingMatrix(self.group, self.rows, self.cols, out)

    def __add__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        if (other.group, other.rows, other.cols) != (self.group, self.rows, self.cols):
            raise WordGroupError("shape/group mismatch")
        out = {key: dict(terms) for key, terms in self.entries.items()}
        for key, terms in other.entries.items():
            axpy(out.setdefault(key, {}), 1, terms)
        return GroupRingMatrix(self.group, self.rows, self.cols, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        return isinstance(other, GroupRingMatrix) and other.group is self.group \
            and (other.rows, other.cols) == (self.rows, self.cols) \
            and other.entries == self.entries

    def sup_norm_bound(self) -> int | Fraction:
        """Sum of |coefficient| over all entries, an int when every
        coefficient is; dominates the operator norm of the matrix in every
        unitary representation."""
        total = 0
        for terms in self.entries.values():
            for c in terms.values():
                total += abs(c)
        return total

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for terms in self.entries.values()
                   for c in terms.values())

    def __repr__(self):
        body = "; ".join(
            ", ".join(format_ring_sum(self.entry(i, j)) for j in range(self.cols))
            for i in range(self.rows))
        return f"[{body}]"


# kept for callers that name matrices over a finite group's algebra
FiniteAlgebraMatrix = GroupRingMatrix


# ---------------------------------------------------------------------------
# Quotient maps and chains
# ---------------------------------------------------------------------------

class QuotientMap:
    """Surjection from a built-in group onto a finite group, fixed by the
    images of the alphabet letters."""

    def __init__(self, source: BuiltinGroup, target: FiniteGroup, generator_images):
        self.source = source
        self.target = target
        self.generator_images = tuple(generator_images)
        if len(self.generator_images) != source.n_letters:
            raise WordGroupError("one image per alphabet letter required")
        # right translations by the letter images and their inverses
        self._moves = {(i, e): target.right(img if e > 0 else target.inv(img))
                       for i, img in enumerate(self.generator_images)
                       for e in (1, -1)}
        for r in source.relators():
            if self._evaluate_letters(r) != 0:
                raise WordGroupError(
                    f"relator {format_letters(r)} is not honoured")
        self._check_surjective()

    def _check_surjective(self):
        target, images = self.target, self.generator_images
        if set(target.generators) <= set(images):
            # the target's table walk, which left(0) runs if nothing has
            # yet, checks that its own generators reach every element
            target.left(0)
        elif len(target.walk(images)[0]) != target.order:
            raise WordGroupError("generator images do not generate the target")

    def evaluate(self, word: Word) -> int:
        if word.group is not self.source:
            raise WordGroupError("word from a different group")
        return self._evaluate_letters(word.letters())

    def _evaluate_letters(self, letters) -> int:
        """Image of a product of letters (index, +-1)."""
        acc = 0
        for letter in letters:
            acc = self._moves[letter][acc]
        return acc


def push_matrix(qmap: QuotientMap, a: GroupRingMatrix) -> GroupRingMatrix:
    """Apply the induced ring map entrywise, collecting coefficients."""
    if a.group is not qmap.source:
        raise WordGroupError("matrix over a different group")
    out = {}
    for (i, j), terms in a.entries.items():
        target: dict[int, int | Fraction] = {}
        for w, c in terms.items():
            axpy(target, c, {qmap.evaluate(w): 1})
        if target:
            out[(i, j)] = target
    return GroupRingMatrix(qmap.target, a.rows, a.cols, out)


class FiniteIndexSubgroup:
    """Subgroup presented as the preimage of a finite subgroup under a
    quotient map."""

    def __init__(self, via: QuotientMap, fiber: FiniteSubgroup):
        if fiber.parent is not via.target:
            raise WordGroupError("fiber must live in the quotient target")
        self.via = via
        self.fiber = fiber

    @property
    def group(self) -> BuiltinGroup:
        return self.via.source

    @property
    def index(self) -> int:
        return self.fiber.index

    def is_normal(self) -> bool:
        # the letter images generate Q, and a finite subgroup that every
        # generator normalizes is normal
        return all(self.fiber.normalized_by(g)
                   for g in set(self.via.generator_images))


@dataclass
class ChainLevelReport:
    level: int
    index: int
    normal: bool


class QuotientChain:
    """Nested finite-index subgroups, shallowest first; ``validate_chain``
    checks the nesting."""

    def __init__(self, levels):
        self.levels = list(levels)
        src = self.levels[0].group if self.levels else None
        for lv in self.levels:
            if lv.group is not src:
                raise WordGroupError("levels over different groups")

    @property
    def group(self):
        return self.levels[0].group


def validate_chain(chain: QuotientChain) -> list[ChainLevelReport]:
    """Build each map Q_{n+1} -> Q_n that sends letter images to letter
    images, check that it carries fiber into fiber, and report indices and
    normality.

    The letter images generate Q_{n+1}, so such a map is unique if it exists,
    and one walk over Q_{n+1} builds it.  Letters that share an image in
    Q_{n+1} but not in Q_n are caught first, because the walk takes one value
    per image.
    """
    levels = chain.levels
    for n, (lv, deeper) in enumerate(zip(levels, levels[1:])):
        images: dict[int, int] = {}
        for i, (d, s) in enumerate(zip(deeper.via.generator_images,
                                       lv.via.generator_images)):
            if images.setdefault(d, s) != s:
                raise ChainBroken(n, f"letter {chr(97 + i)} repeats an image "
                                     f"at level {n + 1} but not at level {n}")
        conn = GroupHom(deeper.via.target, lv.via.target, images,
                        functools.partial(ChainBroken, n)).images
        for m in deeper.fiber.members:
            if conn[m] not in lv.fiber.member_set:
                raise ChainBroken(n, "fiber does not map into fiber")
    return [ChainLevelReport(n, lv.index, lv.is_normal())
            for n, lv in enumerate(levels)]


def intersection_heuristic(chain: QuotientChain) -> int:
    """Largest L such that no nonidentity word of length <= L lies in the
    deepest subgroup of the chain (balls enumerated up to 20000 words)."""
    deepest = chain.levels[-1]
    grp = chain.group
    fiber = deepest.fiber.member_set
    # each word's image in Q is its parent's image times one letter image
    steps = [(grp.generator(i) if e > 0 else grp.generator(i).inverse(),
              deepest.via._moves[(i, e)])
             for e in (1, -1) for i in range(grp.n_letters)]
    seen = {grp.identity()}
    sphere = [(grp.identity(), 0)]
    length = 0
    while True:
        nxt = []
        for w, image in sphere:
            for g, move in steps:
                u = w * g
                if u not in seen:
                    seen.add(u)
                    nxt.append((u, move[image]))
        if not nxt:
            return length
        length += 1
        for u, image in nxt:
            if image in fiber and not u.is_identity():
                return length - 1
        if len(seen) > 20000:
            return length
        sphere = nxt

