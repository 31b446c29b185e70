"""Exact arithmetic for finite groups on integer element indices.

Element 0 is always the identity.  A group holds its elements as one
(|G|, w) int64 array, ``FiniteGroup.rows``, and one raw product that
multiplies a batch of rows by one element: ``products(xs, g)`` is x g for
every x of the index list xs, one array operation.  An index map takes rows
back to element indices: mixed radix for the cyclic, abelian, dihedral and
semidirect families, so no constructor scans a list of elements, and a dict
of row bytes for permutation groups and the default.  The abstract copy of a
subgroup keeps its parent's rows, product and index map, the last read
through a parent-to-local array.

One breadth-first search, ``_bfs``, runs over permutation tables from a
root.  ``FiniteGroup.walk(gens)`` is that search over the right translations
of ``gens`` from the identity: the elements reached, in order, and the tree
edges y = parent[i] * gens[letter[i]] for y = reached[i + 1].  In a finite
group g^-1 is a positive power of g, so g-edges suffice.  A group's walk over
its own ``generators`` runs on first use, kept as ``_tree``, and raises
``GroupError`` unless it reaches every element.  It also keeps each
generator's table right[k][x] = x * generators[k], one batched raw product
over every row, so its memory is O(|G| k).  Along its tree, in O(|G|):

* ``left(g)``, x -> g x: g x = (g p) s for the tree edge x = p s;
* ``inverses``: x^-1 = s^-1 p^-1, the left translation of s inverted;
* ``right(g)``, x -> x g, is one batched raw product.

The translations by the identity and the generators are kept.  A map fixed
by values on generators is filled along the tree of ``walk`` and checked on
every Cayley edge: ``extend`` builds f(x*g) = step(f(x), value of g), then
compares step(f(x), value of g) with f(x g) for all x, one comparison over
``right(g)`` per key.  Homomorphisms, the matrices of a semidirect product
and the H-action of a free-by-finite group are built on it, and
``spectral.UnitaryRep`` the same way.

The conjugation action has one orbit routine: ``conjugacy_class`` computes
the class of an element once, its ``_bfs`` orbit under y -> s y s^-1 for the
generators s, and shares it among its members.  The class partition, class
sizes, the i-function ``i_value`` and the fixed-coset counts of the Farber
diagnostics all come from it.  Normality has one test as well,
``FiniteSubgroup.normalized_by``, which reads the left translation of g.

Many single pairs are read off translation tables, not multiplied one by
one: the structure constants of ``character_table`` (one ``right`` per
class), the coset blocks of ``spectral.induced_rep`` (one ``left`` per
element and per coset representative), and the closure check of
``FiniteSubgroup``, which multiplies every member by each generator of a
greedy generating set of the members in one batched product.  Those
generators are the abstract copy's, so that its walk is not |K|^2.  A
group-ring product (``word_groups.ring_mul``) makes one batched product per
term of its right factor, and a free-by-finite word product reads its H part
off H's right translations.

Induced characters go through one formula, ``induced_value``: the value at
g is sum_h i(g, h) chi(h) over the elements h of a finite subgroup, with the
i-function of the group that holds g.  It serves a finite quotient (here, in
``induce_ordinary``, and for the observed values of the runner's character
convergence rows) and a built-in infinite group (their limits) alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class L2MultError(Exception):
    """Root of the package's errors: bad input and failed checks."""


class ConfigInvalid(L2MultError):
    """A configuration, or JSON input it names, of the wrong shape."""


class GroupError(L2MultError):
    pass


class ClosureTooLarge(GroupError):
    pass


class NumericalDegeneracy(GroupError):
    pass


class NotIntegral(GroupError):
    pass


@dataclass
class ConjugacyData:
    class_of: list[int]          # element index -> class index
    representatives: list[int]   # minimal element index per class
    sizes: list[int]
    members: list[list[int]]


class FiniteGroup:
    """A finite group on element indices 0..|G|-1, element 0 the identity.

    ``rows`` holds one int64 row per element (a 1-D sequence gives rows of
    width 1).  ``mul(xs, y)`` is the raw product: the (m, w) array of the
    products x y of every row x of the (m, w) array ``xs`` by the one row
    ``y``.  ``index(rows)`` gives the element index of every row as an int64
    array; by default it is a dict of row bytes.  ``encode`` takes an
    element in its family's own form to its row, for ``index_of``; by default
    an int or nested tuples of ints are flattened.  ``label(i)`` names
    element i; by default it prints its row as a tuple.
    """

    def __init__(self, rows, mul, generators, name="G", label=None,
                 moduli=None, index=None, encode=None):
        rows = np.asarray(rows, dtype=np.int64)
        self.rows = rows.reshape(len(rows), -1)
        self.order = len(self.rows)
        self.name = name
        # cyclic factors (m_1, ..., m_r) of an abelian group whose element i
        # is np.unravel_index(i, moduli) in Z/m_1 x ... x Z/m_r; else None
        self.moduli = moduli
        self._mul_rows = mul
        if index is None:
            index = _bytes_index({r.tobytes(): i
                                  for i, r in enumerate(self.rows)})
        self._index = index
        if not np.array_equal(index(self.rows), np.arange(self.order)):
            raise GroupError("duplicate elements")
        self._encode = _flat if encode is None else encode
        self.generators = list(generators)
        self._label = label
        # filled by ``_walk`` on first use
        self._right: list[list[int]] | None = None
        self._tree: tuple[list[int], list[int], list[int]] | None = None
        self._inverses: list[int] | None = None
        self._lefts: dict[int, list[int]] = {}
        self._rights: dict[int, list[int]] = {}
        self._conjugations: list[list[int]] | None = None
        self._class_cache: dict[int, frozenset[int]] = {}
        self._classes: ConjugacyData | None = None
        self._table = None

    # -- basic structure ---------------------------------------------------

    def products(self, xs, g: int) -> list[int]:
        """x g for every element x of the index list (or slice) ``xs``: one
        batched raw product."""
        return self._index(self._mul_rows(self.rows[xs],
                                          self.rows[g])).tolist()

    def inv(self, i: int) -> int:
        return self.inverses[i]

    def index_of(self, raw) -> int:
        """The index of an element given in its family's form; KeyError when
        no element has that form."""
        try:
            row = np.array(self._encode(raw), dtype=np.int64).reshape(1, -1)
            i = int(self._index(row)[0]) \
                if row.shape[1] == self.rows.shape[1] else -1
        except (TypeError, ValueError, KeyError, IndexError):
            i = -1
        if not 0 <= i < self.order or (self.rows[i] != row[0]).any():
            raise KeyError(raw)
        return i

    def label(self, i: int) -> str:
        if self._label is not None:
            return self._label(i)
        return str(tuple(self.rows[i].tolist()))

    # -- translation tables ------------------------------------------------

    def _walk(self):
        """The table walk: right[k][x] = x * generators[k] for every x, one
        batched raw product per generator, and the tree of ``walk`` over
        them.  The generators' left translations and the inverse array are
        filled along the tree."""
        n = self.order
        right = [self.products(slice(None), g) for g in self.generators]
        reached, parent, letter = tree = _bfs(right, 0, n)
        if len(reached) != n:
            raise GroupError(f"the generators of {self.name} reach "
                             f"{len(reached)} of its {n} elements")
        self._right, self._tree = right, tree
        ident = list(range(n))
        self._lefts = {0: ident}
        self._rights = {0: ident}
        for k, g in enumerate(self.generators):
            self._rights.setdefault(g, right[k])
            self._lefts.setdefault(g, self._left_along_tree(g))
        # x = p s gives x^-1 = s^-1 p^-1, and left(s^-1) inverts left(s)
        left_inv = []
        for g in self.generators:
            out = [0] * n
            for x, y in enumerate(self._lefts[g]):
                out[y] = x
            left_inv.append(out)
        inverses = [0] * n
        for x, p, k in zip(reached[1:], parent, letter):
            inverses[x] = left_inv[k][inverses[p]]
        self._inverses = inverses

    def walk(self, gens) -> tuple[list[int], list[int], list[int]]:
        """The breadth-first walk of the right Cayley graph from the identity
        over ``gens``: (reached, parent, letter), the elements in the order
        reached and, aligned with ``reached[1:]``, the tree edges that reach
        them, y = parent[i] * gens[letter[i]] for y = reached[i + 1].  Only
        the subgroup that ``gens`` generate is reached.  For the group's own
        generators it is the kept table-walk tree, which callers share."""
        gens = list(gens)
        if gens != self.generators:
            return _bfs([self.right(g) for g in gens], 0, self.order)
        if self._tree is None:
            self._walk()
        return self._tree

    def _left_along_tree(self, g: int) -> list[int]:
        # g x = (g p) s for x = p s, parents before children
        reached, parent, letter = self._tree
        right = self._right
        out = [0] * self.order
        out[0] = g
        for x, p, k in zip(reached[1:], parent, letter):
            out[x] = right[k][out[p]]
        return out

    @property
    def inverses(self) -> list[int]:
        """x -> x^-1 for every element."""
        if self._inverses is None:
            self._walk()
        return self._inverses

    def left(self, g: int) -> list[int]:
        """x -> g x for every element: cached for the identity and the
        generators, filled along the tree in O(|G|) for the others.  The
        list may be shared; callers do not modify it."""
        if self._right is None:
            self._walk()
        out = self._lefts.get(g)
        return out if out is not None else self._left_along_tree(g)

    def right(self, g: int) -> list[int]:
        """x -> x g for every element: the walk's table for the identity and
        the generators, one batched raw product for the others.  The list
        may be shared; callers do not modify it."""
        if self._right is None:
            self._walk()
        out = self._rights.get(g)
        return out if out is not None else self.products(slice(None), g)

    # -- conjugacy ---------------------------------------------------------

    def conjugacy_class(self, x: int) -> frozenset[int]:
        """The class of x, its orbit under y -> s y s^-1 for the generators
        s, computed once for all its members."""
        cls = self._class_cache.get(x)
        if cls is None:
            if self._conjugations is None:
                inv = self.inverses
                # s y s^-1 = s (s y^-1)^-1
                self._conjugations = [[left[inv[left[y]]] for y in inv]
                                      for left in map(self.left,
                                                      self.generators)]
            cls = frozenset(_bfs(self._conjugations, x, self.order)[0])
            for y in cls:
                self._class_cache[y] = cls
        return cls

    def conjugacy_classes(self) -> ConjugacyData:
        if self._classes is None:
            class_of, members = [-1] * self.order, []
            for x in range(self.order):
                if class_of[x] < 0:
                    orbit = sorted(self.conjugacy_class(x))
                    for y in orbit:
                        class_of[y] = len(members)
                    members.append(orbit)
            self._classes = ConjugacyData(class_of, [m[0] for m in members],
                                          [len(m) for m in members], members)
        return self._classes

    def class_of_element(self, x: int) -> int:
        return self.conjugacy_classes().class_of[x]

    def conjugacy_class_size(self, x: int) -> int:
        """[G : C_G(x)]; needs x's class only, not the full partition."""
        return len(self.conjugacy_class(x))

    def i_value(self, g: int, h: int) -> Fraction:
        """The i-function i(g, h) = [G : C_G(h)]^-1 when g ~ h, else 0."""
        cls = self.conjugacy_class(h)
        return Fraction(1, len(cls)) if g in cls else Fraction(0)

    def subgroup(self, members) -> "FiniteSubgroup":
        return FiniteSubgroup(self, members)

    def subgroup_generated(self, gens) -> "FiniteSubgroup":
        return FiniteSubgroup(self, self.walk(gens)[0])

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def _bfs(tables, root: int, n: int):
    """Breadth-first search over the permutations ``tables`` of 0..n-1 from
    ``root``: the points reached, in order, and the edges that reach them,
    y = tables[letter[i]][parent[i]] for y = reached[i + 1].  Past one
    n-byte mark array its memory is that of the orbit, so that the many
    small orbits of a large group stay cheap."""
    seen = bytearray(n)
    seen[root] = 1
    reached, parent, letter = [root], [], []
    for x in reached:
        for k, table in enumerate(tables):
            y = table[x]
            if not seen[y]:
                seen[y] = 1
                reached.append(y)
                parent.append(x)
                letter.append(k)
    return reached, parent, letter


def extend(group: FiniteGroup, gen_values: dict, step, start,
           error=GroupError) -> list:
    """The map f on the group with f(1) = start and f(x*g) = step(f(x),
    gen_values[g]) for every key g, as a list indexed by element: filled
    along the tree of ``group.walk`` over the keys, then checked on every
    Cayley edge, one comparison over ``right(g)`` per key.  Raises ``error``
    when the keys do not generate the group or a check fails."""
    values = list(gen_values.values())
    reached, parent, letter = group.walk(gen_values)
    if len(reached) != group.order:
        raise error("generators do not generate the group")
    out = [None] * group.order
    out[0] = start
    for y, p, k in zip(reached[1:], parent, letter):
        out[y] = step(out[p], values[k])
    for g, v in gen_values.items():
        if [step(fx, v) for fx in out] != [out[y] for y in group.right(g)]:
            raise error("generator values disagree along two paths")
    return out


class FiniteSubgroup:
    def __init__(self, parent: FiniteGroup, members):
        self.parent = parent
        self.members = tuple(sorted(set(members)))
        if 0 not in self.members:
            raise GroupError("subgroup must contain the identity")
        self.member_set = mem = frozenset(self.members)
        inverses = parent.inverses
        if any(inverses[a] not in mem for a in self.members):
            raise GroupError("subgroup not closed under inverse")
        # a greedy generating set: each member that the earlier generators
        # do not reach becomes one.  Its products with every member are one
        # batched raw product, which must stay among the members; the walk
        # then multiplies the reached elements by it through that table, so
        # every element takes each step once, O(|K| k) for k generators.
        # The abstract copy walks these generators.
        pos = {m: i for i, m in enumerate(self.members)}
        reached, seen, gens, tables = [0], {0}, [], []
        for a in self.members:
            if a in seen:
                continue
            table = parent.products(list(self.members), a)
            if not mem.issuperset(table):
                raise GroupError("subgroup not closed under product")
            gens.append(a)
            tables.append(table)
            old = len(reached)
            for i, x in enumerate(reached):
                for t in tables if i >= old else tables[-1:]:
                    y = t[pos[x]]
                    if y not in seen:
                        seen.add(y)
                        reached.append(y)
        if parent.order % len(self.members):
            raise GroupError("Lagrange violation (bad subgroup data)")
        self.generators = gens
        self._abstract = None

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def cosets(self) -> tuple[list[int], list[int]]:
        """Minimal representatives of the left cosets gH and the coset number
        of every element."""
        parent = self.parent
        # g h: one translation per member of H
        moves = [parent.right(h) for h in self.members]
        reps, coset_of = [], [-1] * parent.order
        for g in range(parent.order):
            if coset_of[g] < 0:
                for move in moves:
                    coset_of[move[g]] = len(reps)
                reps.append(g)
        return reps, coset_of

    def normalized_by(self, g: int) -> bool:
        """Whether g K g^-1 = K; K is finite, so inclusion suffices."""
        left, inv = self.parent.left(g), self.parent.inverses
        mem = self.member_set
        # g k g^-1 = g (g k^-1)^-1
        return all(left[inv[left[inv[k]]]] in mem for k in self.members)

    def is_normal(self) -> bool:
        # a subgroup that every generator normalizes is normal
        return all(self.normalized_by(g) for g in self.parent.generators)

    def abstract_group(self) -> tuple[FiniteGroup, dict[int, int]]:
        """The subgroup as a standalone FiniteGroup plus parent->local map:
        the parent's rows of the members, with the parent's raw product."""
        if self._abstract is None:
            parent, mem = self.parent, self.members
            locals_ = {m: i for i, m in enumerate(mem)}
            local = np.full(parent.order, -1, dtype=np.int64)
            local[list(mem)] = np.arange(len(mem))
            grp = FiniteGroup(parent.rows[list(mem)], parent._mul_rows,
                              generators=[locals_[g] for g in self.generators],
                              name=f"{parent.name}-sub{len(mem)}",
                              label=lambda i: parent.label(mem[i]),
                              index=lambda rows: local[parent._index(rows)])
            self._abstract = (grp, locals_)
        return self._abstract


class GroupHom:
    """Homomorphism fixed by the images of some source elements: ``extend``
    with each step a lookup in the right translation of an image, raising
    ``error`` when the assignment is not a homomorphism or is undefined."""

    def __init__(self, source: FiniteGroup, target: FiniteGroup,
                 gen_images: dict[int, int], error=GroupError):
        self.source = source
        self.target = target
        rights = {v: target.right(v) for v in gen_images.values()}
        self.images = extend(source, gen_images, lambda fx, v: rights[v][fx],
                             0, error)

    def __call__(self, i: int) -> int:
        return self.images[i]


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def _flat(raw) -> list:
    """The row of an element given as an int or as nested tuples of ints."""
    if isinstance(raw, (tuple, list)):
        return [y for x in raw for y in _flat(x)]
    return [raw]


def _bytes_index(positions: dict):
    """The index map of rows whose bytes are keys of ``positions``."""
    def index(rows):
        return np.fromiter((positions[r.tobytes()] for r in rows),
                           dtype=np.int64, count=len(rows))
    return index


def _radix_index(strides):
    """The mixed-radix index map sum_c row[c] * strides[c]."""
    strides = np.asarray(strides, dtype=np.int64)
    return lambda rows: rows @ strides


def _vectors(moduli) -> np.ndarray:
    """Z/m_1 x ... x Z/m_r as rows, the first coordinate most significant:
    row i is np.unravel_index(i, moduli)."""
    return np.indices(moduli).reshape(len(moduli), math.prod(moduli)).T


def _strides(moduli) -> list[int]:
    """The mixed-radix strides of ``_vectors(moduli)``."""
    return [math.prod(moduli[c + 1:]) for c in range(len(moduli))]


def trivial_group() -> FiniteGroup:
    return FiniteGroup([0], lambda xs, y: xs, name="1", generators=[],
                       label=lambda i: "e", index=_radix_index([0]))


def cyclic_group(n: int) -> FiniteGroup:
    if n <= 0:
        raise GroupError("order must be positive")
    return FiniteGroup(np.arange(n), lambda xs, y: (xs + y) % n,
                       name=f"C{n}", generators=[1] if n > 1 else [],
                       label=lambda k: "e" if k == 0 else
                       ("g" if k == 1 else f"g^{k}"),
                       moduli=(n,), index=_radix_index([1]))


def abelian_group(moduli) -> FiniteGroup:
    moduli = tuple(moduli)
    if any(m <= 0 for m in moduli):
        raise GroupError("moduli must be positive")
    mods = np.array(moduli, dtype=np.int64)
    strides = _strides(moduli)
    gens = [strides[i] for i in range(len(moduli)) if moduli[i] > 1]
    name = "x".join(f"C{m}" for m in moduli)
    return FiniteGroup(_vectors(moduli), lambda xs, y: (xs + y) % mods,
                       name=name, generators=gens, moduli=moduli,
                       index=_radix_index(strides))


def dihedral_group(m: int) -> FiniteGroup:
    """Dihedral group of order 2m: rotations (k,0) and reflections (k,1),
    element k + m e."""
    if m <= 0:
        raise GroupError("m must be positive")
    idx = np.arange(2 * m)

    def mul(xs, y):
        # (k1, e1)(k2, e2) = (k1 + (-1)^e1 k2, e1 + e2)
        return np.column_stack([(xs[:, 0] + (1 - 2 * xs[:, 1]) * y[0]) % m,
                                xs[:, 1] ^ y[1]])

    def label(i):
        k, e = i % m, i // m
        if e == 0:
            return f"r^{k}" if k else "e"
        return f"r^{k}s" if k else "s"

    gens = [1 % m, m] if m > 1 else [m]
    return FiniteGroup(np.column_stack([idx % m, idx // m]), mul,
                       name=f"Dih{2*m}", generators=gens, label=label,
                       index=_radix_index([1, m]))


_CLOSURE_CAP = 10 ** 6


def from_generators(perms) -> FiniteGroup:
    """Closure of bijections on {0..d-1} under composition (BFS order)."""
    perms = [tuple(p) for p in perms]
    if not perms:
        raise GroupError("need at least one generator")
    degree = len(perms[0])
    for p in perms:
        if len(p) != degree or sorted(p) != list(range(degree)):
            raise GroupError("generators must be bijections on one finite set")
    gen_rows = np.array(perms, dtype=np.int64)

    def compose(xs, y):
        # (x*y)(i) = x(y(i))
        return xs[:, y]

    # breadth first, one layer at a time: the layer's products by every
    # generator, in the order of the one-element-at-a-time walk
    frontier = np.arange(degree, dtype=np.int64)[None]
    seen = {frontier[0].tobytes(): 0}
    rows = [frontier[0]]
    while len(frontier):
        new = []
        for y in frontier[:, gen_rows].reshape(len(frontier) * len(perms),
                                               degree):
            key = y.tobytes()
            if key not in seen:
                if len(rows) >= _CLOSURE_CAP:
                    raise ClosureTooLarge(
                        f"closure exceeds cap {_CLOSURE_CAP}")
                seen[key] = len(rows)
                rows.append(y)
                new.append(y)
        frontier = np.array(new, dtype=np.int64).reshape(len(new), degree)

    gens = [seen[g.tobytes()] for g in gen_rows]
    return FiniteGroup(rows, compose, name=f"Perm{len(rows)}",
                       generators=sorted(set(gens) - {0}),
                       index=_bytes_index(seen))


def symmetric_group(n: int) -> FiniteGroup:
    if n <= 1:
        return trivial_group()
    cycle = tuple(list(range(1, n)) + [0])
    transp = tuple([1, 0] + list(range(2, n)))
    return from_generators([transp, cycle])


def semidirect_vector_group(moduli, h_group: FiniteGroup,
                            gen_matrices: dict[int, list[list[int]]]) -> FiniteGroup:
    """(Z/m1 x ... x Z/mr) : H with H acting through integer matrices.

    ``gen_matrices`` maps H generator indices to r x r integer matrices; the
    assignment is extended to all of H and checked for consistency.  The
    element (v, h) is the row (v_1, ..., v_r, h), element h |V| + i for the
    vector v = np.unravel_index(i, moduli).
    """
    moduli = tuple(moduli)
    r = len(moduli)
    if r * max(moduli, default=1) ** 2 >= 2 ** 63:
        raise GroupError("moduli too large for int64 rows")
    ident_mat = [[1 if i == j else 0 for j in range(r)] for i in range(r)]

    def mat_mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(r)) % moduli[i]
                 for j in range(r)] for i in range(r)]

    # action is a left action: M(x*g) = M(x) M(g)
    mats = np.array(extend(h_group, gen_matrices, mat_mul, ident_mat),
                    dtype=np.int64).reshape(h_group.order, r, r)
    mods = np.array(moduli, dtype=np.int64)
    h_rows, h_mul, h_index = h_group.rows, h_group._mul_rows, h_group._index

    def mul(xs, y):
        # (v1, h1)(v2, h2) = (v1 + M(h1) v2, h1 h2)
        h = xs[:, r]
        vec = (xs[:, :r] + (mats @ y[:r])[h]) % mods
        return np.column_stack([vec, h_index(h_mul(h_rows[h], h_rows[y[r]]))])

    size = math.prod(moduli)
    strides = _strides(moduli) + [size]
    rows = np.column_stack([np.tile(_vectors(moduli), (h_group.order, 1)),
                            np.repeat(np.arange(h_group.order), size)])
    gens = [strides[i] for i in range(r) if moduli[i] > 1]
    gens += [size * g for g in h_group.generators]
    name = "x".join(f"C{m}" for m in moduli) + f":{h_group.name}"
    return FiniteGroup(rows, mul, name=name, generators=gens,
                       label=lambda i: str((tuple(rows[i, :r].tolist()),
                                            int(rows[i, r]))),
                       index=_radix_index(strides))


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------

class OrdinaryCharacter:
    """Character of a complex representation: one value per conjugacy class."""

    def __init__(self, group: FiniteGroup, values):
        self.group = group
        self.values = np.asarray(values, dtype=complex)
        classes = group.conjugacy_classes()
        if len(self.values) != len(classes.representatives):
            raise GroupError("one value per conjugacy class required")
        self.degree = int(round(self.values[0].real))
        if abs(self.values[0] - self.degree) > 1e-8 or self.degree <= 0:
            raise GroupError("character degree must be a positive integer")

    def value(self, element: int) -> complex:
        return self.values[self.group.class_of_element(element)]

    def inner(self, other: "OrdinaryCharacter") -> complex:
        sizes = np.array(self.group.conjugacy_classes().sizes)
        return np.sum(sizes * self.values * np.conj(other.values)) / self.group.order

    def is_irreducible(self, tol: float = 1e-9) -> bool:
        return abs(self.inner(self) - 1.0) < max(tol, 1e-9)


class CharacterTable:
    def __init__(self, group: FiniteGroup, irreducibles: list[OrdinaryCharacter]):
        self.group = group
        self.classes = group.conjugacy_classes()
        self.irreducibles = irreducibles
        self._validate()

    def _validate(self):
        k = len(self.classes.representatives)
        if len(self.irreducibles) != k:
            raise NumericalDegeneracy("wrong number of irreducibles")
        if sum(ch.degree ** 2 for ch in self.irreducibles) != self.group.order:
            raise NumericalDegeneracy("degree sum rule fails")
        sizes = np.array(self.classes.sizes)
        mat = np.array([ch.values for ch in self.irreducibles])
        gram = (mat * sizes) @ np.conj(mat.T) / self.group.order
        if np.max(np.abs(gram - np.eye(k))) > 1e-8:
            raise NumericalDegeneracy("row orthogonality fails")

    def column_orthogonality_defect(self) -> float:
        mat = np.array([ch.values for ch in self.irreducibles])
        sizes = np.array(self.classes.sizes)
        gram = np.conj(mat.T) @ mat
        expect = np.diag(self.group.order / sizes)
        return float(np.max(np.abs(gram - expect)))


def character_table(group: FiniteGroup) -> CharacterTable:
    """Numeric class-sum eigenvector method (Burnside/Dixon style), for
    groups of order at most 2000.

    A random combination of the class-multiplication matrices is
    diagonalized; the common eigenvectors give the central characters, from
    which degrees and character values follow.  Up to 12 combinations are
    tried; a table's orthogonality must hold within 1e-8.
    """
    if group._table is not None:
        return group._table
    if group.order > 2000:
        raise GroupError(f"order {group.order} exceeds cap 2000")
    classes = group.conjugacy_classes()
    k = len(classes.representatives)
    # structure constants a[i][j][l]: #{(x,y) in C_i x C_j : xy = rep_l}
    a = np.zeros((k, k, k), dtype=np.int64)
    inv, class_of = group.inverses, classes.class_of
    for l, rep_l in enumerate(classes.representatives):
        right = group.right(rep_l)
        for i in range(k):
            for x in classes.members[i]:
                # count y with x*y = rep_l  <=>  y = x^-1 rep_l, then tally class
                a[i][class_of[right[inv[x]]]][l] += 1
    rng = np.random.default_rng(20240531)
    for attempt in range(12):
        coeffs = rng.standard_normal(k)
        # (M w)_j = sum_l (sum_i c_i a[i,j,l]) w_l = (sum_i c_i w_i) w_j,
        # so the central characters w are the eigenvectors of M.
        m = np.tensordot(coeffs, a, axes=(0, 0))
        eigvals, eigvecs = np.linalg.eig(m)
        order = np.argsort(eigvals.real + 1e-3 * eigvals.imag)
        eigvals = eigvals[order]
        eigvecs = eigvecs[:, order]
        gaps_ok = all(abs(eigvals[i] - eigvals[j]) > 1e-7
                      for i in range(k) for j in range(i + 1, k))
        if not gaps_ok:
            continue
        irreducibles = []
        ok = True
        for idx in range(k):
            v = eigvecs[:, idx]
            if abs(v[0]) < 1e-12:
                ok = False
                break
            w = v / v[0]
            sizes = np.array(classes.sizes)
            denom = np.sum(np.abs(w) ** 2 / sizes)
            deg = np.sqrt(group.order / denom)
            degree = int(round(deg.real))
            if degree <= 0 or abs(deg - degree) > 1e-6:
                ok = False
                break
            values = w * degree / sizes
            irreducibles.append(OrdinaryCharacter(group, values))
        if not ok:
            continue
        irreducibles.sort(key=lambda ch: (
            ch.degree,
            tuple((round(z.real, 7), round(z.imag, 7)) for z in ch.values)))
        # put the trivial character first for stable downstream indexing
        for pos, ch in enumerate(irreducibles):
            if ch.degree == 1 and np.max(np.abs(ch.values - 1)) < 1e-7:
                irreducibles.insert(0, irreducibles.pop(pos))
                break
        try:
            table = CharacterTable(group, irreducibles)
        except NumericalDegeneracy:
            continue
        if table.column_orthogonality_defect() > 1e-8:
            continue
        group._table = table
        return table
    raise NumericalDegeneracy(
        "class-sum eigenspaces not separated after 12 attempts")


def induced_value(i_value, g, pairs):
    """The induced character sum_h i(g, h) v_h over the pairs (h, v_h), with
    the i-function ``i_value``: that of a finite group on element indices or
    that of a built-in group on words.  Only the terms with i(g, h) != 0 are
    summed, in the order of ``pairs``; with none, the value is the int 0."""
    return sum(i * v for h, v in pairs if (i := i_value(g, h)))


def induce_ordinary(subgroup: FiniteSubgroup,
                    chi: OrdinaryCharacter) -> OrdinaryCharacter:
    """Ordinary induction: Ind(chi)(g) = [Q:H] sum_h i_Q(g, h) chi(h)."""
    parent = subgroup.parent
    h_abs, _ = subgroup.abstract_group()
    if chi.group is not h_abs:
        raise GroupError("character does not live on the given subgroup")
    # local element k of the abstract subgroup is members[k]
    pairs = [(h, chi.value(k)) for k, h in enumerate(subgroup.members)]
    return OrdinaryCharacter(parent, [
        subgroup.index * induced_value(parent.i_value, rep, pairs)
        for rep in parent.conjugacy_classes().representatives])


def restrict_ordinary(theta: OrdinaryCharacter,
                      subgroup: FiniteSubgroup) -> OrdinaryCharacter:
    h_abs, _ = subgroup.abstract_group()
    values = [theta.value(subgroup.members[rep_local])
              for rep_local in h_abs.conjugacy_classes().representatives]
    return OrdinaryCharacter(h_abs, values)


def multiplicity(chi: OrdinaryCharacter, theta: OrdinaryCharacter) -> int:
    """Multiplicity of the irreducible chi inside theta: the inner product,
    which must be within 1e-6 of an integer."""
    if chi.group is not theta.group:
        raise GroupError("characters live on different groups")
    if not chi.is_irreducible(1e-6):
        raise GroupError("first argument must be irreducible")
    val = theta.inner(chi)
    m = int(round(val.real))
    if abs(val - m) > 1e-6:
        raise NotIntegral(f"inner product {val} is not integral")
    return m
