"""Equivariant CW chain data over the built-in groups, finite quotient
complexes with residual symmetry, exact homology, traces and multiplicities.

A finite chain complex stores each boundary as one ``ColumnStore``, CSC
arrays of exact entries (int64 for every integer boundary), and its
symmetry group H permutes cells up to sign.  The quotient complex, the
checks of the constructor and the Morse reduction work on these arrays
with gathers and one sort-and-sum where entries meet; only the exact
elimination reads columns as dicts.  The cells of a quotient are the
double cosets S\\Q/K of each orbit, with stabilizer image S and fiber K,
filled for every element at once by one gather; a double coset with
repeated elements is a stabilizer surviving in the quotient, so freeness
is read off the fill and needs no pass of its own.

Every finite chain complex carries H and its action in one format: per
degree p, two int64 arrays perms and signs of shape (|H|, n_p) with
h e_c = signs[h, c] e_{perms[h, c]}, a left action of H.  A complex given no
group, such as a quotient without ``h_ctx``, carries the trivial group
with identity rows, so traces, multiplicities and the Morse reduction have
no second mode.

Multiplicities are dimensions of rational isotypic parts, read on the image
side with no isotypic basis.  For a Galois orbit [chi] of irreducibles of H,
the integer weights t = sum of chi' over [chi] give E = sum_h t(h) h, a
nonzero multiple of the central idempotent e_[chi] (t is rational, so
t(h) = t(h^-1)), and

    dim e_[chi] H_p = dim e_[chi] C_p - rank_[chi](d_p) - rank_[chi](d_{p+1}).

The block dimension is chi(1)/|H| sum_h t(h) Tr(h | C_p), from the signed
fixed cells.  d commutes with E, so d(e_[chi] C_q) = E im d_q: the block
rank rank_[chi](d_q) is the rank of E applied to the stored pivot columns of
the plain elimination of d_q, which span im d_q.  The block dimensions sum
to n_p and the block ranks to rank d_q.  Every chi in [chi] occurs
dim e_[chi] H_p / (chi(1) |[chi]|) times, and the traces are
Tr(h | H_p) = sum_chi m_chi chi(h).

The blocks are taken on the equivariant Morse reduction of the complex
(``morse_reduce``), which ``multiplicities`` always builds first.  An
H-invariant spanning forest of the graph of 0- and 1-cells is grown breadth
first over the orbits: vertices with a nontrivial stabilizer are its roots
and stay critical, and a free vertex orbit is paired with the free edge
orbit that first reaches it, when the incidence is +-1 and the edge's other
end lies in an orbit already reached.  The Morse boundary of a critical edge
is the signed sum of its ends' roots, gathered from the root and
coefficient arrays, a 2-cell boundary loses the rows of the paired edges,
and H acts on the critical cells by the restricted signed permutations.
The reduced complex is H-equivariantly chain-homotopy equivalent to the
original, so it has the same multiplicities and traces; on a connected
graph with an H-fixed vertex, only the vertices with a nontrivial
stabilizer are left in degree 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._linalg import (ColumnReduction, ColumnStore, SparseCol, axpy,
                      exact_array, exact_mul)
from .finite_groups import (CharacterTable, ConfigInvalid, FiniteGroup,
                            FiniteSubgroup, L2MultError, NotIntegral,
                            NumericalDegeneracy, trivial_group)
from .characters import CrossCheckFailed, check_normalizes
from .spectral import (NotAComplex, induced_rep, irreducible_rep,
                       operator_columns_exact, phi_bettis, regular_rep)
from .word_groups import (BuiltinGroup, FiniteIndexSubgroup,
                          FreeAbelianGroup, FreeGroup, FreeByFiniteGroup,
                          GroupRingMatrix, InfiniteDihedralGroup,
                          UnsupportedFamily, Word, push_matrix, ring_mul)


class ComplexError(L2MultError):
    pass


class NotFree(ComplexError):
    pass


# ---------------------------------------------------------------------------
# Equivariant data over the infinite group
# ---------------------------------------------------------------------------

@dataclass
class OrbitCell:
    """One orbit of cells: stabilizer words (identity first) with their
    orientation signs."""

    stabilizer: tuple[Word, ...]
    signs: tuple[int, ...]
    label: str

    def __post_init__(self):
        if len(self.stabilizer) != len(self.signs):
            raise ComplexError("one sign per stabilizer element")
        if not self.stabilizer or not self.stabilizer[0].is_identity():
            raise ComplexError("stabilizer must list the identity first")
        if self.signs[0] != 1 or any(s not in (-1, 1) for s in self.signs):
            raise ComplexError("signs must be +-1 with +1 at the identity")


def _averaging(cell: OrbitCell) -> dict[Word, Fraction]:
    # validate() has rejected duplicate stabilizer words before this runs
    n = len(cell.stabilizer)
    return {w: Fraction(s, n) for w, s in zip(cell.stabilizer, cell.signs)}


class EquivariantCWData:
    """Cells and boundaries of a cocompact complex over a built-in group."""

    def __init__(self, group: BuiltinGroup, cells: dict[int, list[OrbitCell]],
                 boundaries: dict[int, GroupRingMatrix]):
        self.group = group
        self.cells = cells
        self.boundaries = boundaries
        self.validate()

    def dims(self):
        return sorted(self.cells)

    def validate(self):
        for p, mat in self.boundaries.items():
            if p - 1 not in self.cells or p not in self.cells:
                raise ComplexError(f"boundary {p} without cells")
            if mat.rows != len(self.cells[p - 1]) or mat.cols != len(self.cells[p]):
                raise ComplexError(f"boundary {p} has the wrong shape")
            if mat.group is not self.group:
                raise ComplexError("boundary over a different group")
        for p, orbit_cells in self.cells.items():
            for cell in orbit_cells:
                self._check_stabilizer(cell)
        for p, mat in self.boundaries.items():
            self._check_invariance(p, mat)

    def _check_stabilizer(self, cell: OrbitCell):
        words = list(cell.stabilizer)
        sign_of = dict(zip(words, cell.signs))
        if len(sign_of) != len(words):
            raise ComplexError(f"duplicate stabilizer words in {cell.label}")
        for w1 in words:
            for w2 in words:
                prod = w1 * w2
                if prod not in sign_of:
                    raise ComplexError(f"stabilizer of {cell.label} not closed")
                if sign_of[prod] != sign_of[w1] * sign_of[w2]:
                    raise ComplexError(f"signs of {cell.label} not a character")

    def _check_invariance(self, p: int, mat: GroupRingMatrix):
        """e_i x s = sign(s) e_i x for each source stabilizer generator s."""
        for j, src in enumerate(self.cells[p]):
            for s_word, s_sign in zip(src.stabilizer[1:], src.signs[1:]):
                for i, tgt in enumerate(self.cells[p - 1]):
                    terms = mat.entry(i, j)
                    if not terms:
                        continue
                    left = _averaging(tgt)
                    lhs = ring_mul(self.group, left,
                                   ring_mul(self.group, terms, {s_word: 1}))
                    rhs = ring_mul(self.group, left,
                                   {w: s_sign * c for w, c in terms.items()})
                    if lhs != rhs:
                        raise ComplexError(
                            f"boundary entry ({tgt.label},{src.label}) breaks "
                            f"stabilizer invariance")


def _free_cell(group: BuiltinGroup, label: str) -> OrbitCell:
    return OrbitCell((group.identity(),), (1,), label)


def builtin_line_Z(group: FreeAbelianGroup) -> EquivariantCWData:
    """The real line as a Z-complex: one free vertex, one free edge."""
    ident, a = group.identity(), group.generator(0)
    boundary = GroupRingMatrix(group, 1, 1, {(0, 0): {ident: Fraction(1),
                                                      a: Fraction(-1)}})
    return EquivariantCWData(group, {0: [_free_cell(group, "v")],
                                     1: [_free_cell(group, "e")]},
                             {1: boundary})


def builtin_line_Dinf(group: InfiniteDihedralGroup) -> EquivariantCWData:
    """The real line as a D_inf-complex: vertex orbits at the two reflection
    points, one free edge orbit."""
    ident = group.identity()
    s = group.word("b")
    ts = group.word("ab")
    cells0 = [OrbitCell((ident, s), (1, 1), "v0"),
              OrbitCell((ident, ts), (1, 1), "v1")]
    boundary = GroupRingMatrix(group, 2, 1, {(0, 0): {ident: Fraction(-1)},
                                             (1, 0): {ident: Fraction(1)}})
    return EquivariantCWData(group, {0: cells0, 1: [_free_cell(group, "e")]},
                             {1: boundary})


def builtin_rose_free(group: FreeGroup) -> EquivariantCWData:
    """Universal cover of the rose: the tree of the free group."""
    entries = {}
    for i in range(group.rank):
        entries[(0, i)] = {group.identity(): Fraction(1),
                           group.generator(i): Fraction(-1)}
    boundary = GroupRingMatrix(group, 1, group.rank, entries)
    cells1 = [_free_cell(group, f"e_{chr(97 + i)}")
              for i in range(group.rank)]
    return EquivariantCWData(group, {0: [_free_cell(group, "v")], 1: cells1},
                             {1: boundary})


def builtin_tree_free_by_finite(group: FreeByFiniteGroup) -> EquivariantCWData:
    """The free-group tree as a complex over F_rank : H.

    Requires a monomial-diagonal action (every h sends each generator to
    itself or its inverse); edge orbits pick up order-2 stabilizers with the
    flip acting by -1.
    """
    ident = group.identity()
    order = group.h_group.order
    h_words = [Word(group, ((), h)) for h in range(order)]
    vertex = OrbitCell(tuple(h_words), tuple([1] * order), "v")
    cells1 = []
    entries = {}
    for i in range(group.rank):
        gen_free = ((i, 1),)
        stab = [ident]
        signs = [1]
        for h in range(1, order):
            img = group.apply_aut(h, gen_free)
            if img == gen_free:
                stab.append(Word(group, ((), h)))
                signs.append(1)
            elif img == ((i, -1),):
                stab.append(Word(group, (((i, -1),), h)))
                signs.append(-1)
            else:
                raise UnsupportedFamily(
                    "tree complex needs a monomial-diagonal action on the "
                    "free generators")
        cells1.append(OrbitCell(tuple(stab), tuple(signs), f"e_{chr(97 + i)}"))
        entries[(0, i)] = {ident: Fraction(1),
                           group.generator(i): Fraction(-1)}
    boundary = GroupRingMatrix(group, 1, group.rank, entries)
    return EquivariantCWData(group, {0: [vertex], 1: cells1}, {1: boundary})


_JSON_KINDS = {str: "strings", int: "integers", dict: "JSON objects",
               list: "lists"}


def _json_list(value, what: str, kind: type) -> list:
    """``value`` if it is a list of ``kind``, else ``ConfigInvalid``.  JSON
    ``true`` and ``false`` are not integers."""
    if not (isinstance(value, list)
            and all(isinstance(v, kind) and not isinstance(v, bool)
                    for v in value)):
        raise ConfigInvalid(f"{what} must be a list of {_JSON_KINDS[kind]}, "
                            f"got {value!r}")
    return value


def _by_degree(data: dict, key: str) -> list[tuple[int, object]]:
    """The entries of the JSON object ``data[key]``, keyed by degree."""
    table = data.get(key, {})
    if not isinstance(table, dict):
        raise ConfigInvalid(f"complex {key} must be a JSON object keyed by "
                            f"degree, got {table!r}")
    for p in table:
        if not (isinstance(p, str) and p.isdecimal()):
            raise ConfigInvalid(f"complex {key} has a degree {p!r} that is "
                                f"not a non-negative integer")
    return [(int(p), value) for p, value in table.items()]


def cw_from_json(group: BuiltinGroup, data: dict) -> EquivariantCWData:
    """Equivariant complex from its JSON form: per dimension, orbit cells
    with stabilizer word lists, and boundary entries as group-ring sums.
    Input of the wrong shape raises ``ConfigInvalid``."""
    if not (isinstance(data, dict) and "cells" in data):
        raise ConfigInvalid(f"a complex must be a JSON object with cells, "
                            f"got {data!r}")
    cells = {}
    for p, orbit_list in _by_degree(data, "cells"):
        out = []
        for record in _json_list(orbit_list, f"the cells of degree {p}",
                                 dict):
            stab = _json_list(record.get("stabilizer", ["1"]),
                              "a stabilizer", str)
            signs = _json_list(record.get("signs", [1] * len(stab)),
                               "signs", int)
            out.append(OrbitCell(tuple(group.word(w) for w in stab),
                                 tuple(signs), record.get("label", "cell")))
        cells[p] = out
    boundaries = {}
    for p, rows in _by_degree(data, "boundaries"):
        rows = _json_list(rows, f"boundary {p}", list)
        boundaries[p] = GroupRingMatrix.from_strings(
            group, [_json_list(row, f"a row of boundary {p}", str)
                    for row in rows])
    return EquivariantCWData(group, cells, boundaries)


# ---------------------------------------------------------------------------
# Finite chain complexes with symmetry
# ---------------------------------------------------------------------------

@dataclass
class HomologyReport:
    betti: dict[int, int]
    multiplicities: dict[tuple[int, int], int]
    traces: dict[tuple[int, int], Fraction]


def galois_orbits(table: CharacterTable) -> list[tuple[list[int], list[int]]]:
    """Galois orbits of the irreducibles, each as (member indices, integer
    weights per conjugacy class): t = sum of chi' over the orbit.

    The conjugates of chi are h -> chi(h^k) for k prime to |H|.
    """
    group, classes = table.group, table.classes
    n = group.order
    powers = []
    for rep in classes.representatives:
        right = group.right(rep)
        row, x = [0], 0
        for _ in range(1, n):
            x = right[x]
            row.append(x)
        powers.append(row)
    # conj[k][c] = class of rep_c^k
    conj = np.array([[classes.class_of[row[k % n]] for row in powers]
                     for k in range(1, n + 1) if math.gcd(k, n) == 1])
    vals = np.array([ch.values for ch in table.irreducibles])
    out, seen = [], set()
    for i in range(len(vals)):
        if i in seen:
            continue
        dist = np.abs(vals[:, None, :] - vals[i][conj][None]).max(axis=2)
        members = sorted(set(dist.argmin(axis=0).tolist()))
        if dist.min(axis=0).max() > 1e-6:
            raise NumericalDegeneracy(f"a conjugate of irreducible {i} is "
                                      f"missing from the table")
        seen.update(members)
        total = vals[members].sum(axis=0)
        weights = np.rint(total.real)
        if np.max(np.abs(total - weights)) > 1e-6:
            raise NotIntegral(f"orbit weights {total} of irreducible {i} are "
                              f"not integers")
        out.append((members, [int(w) for w in weights]))
    return out


def _image_rank(elim: ColumnReduction, action: tuple[np.ndarray, np.ndarray],
                t: list[int]) -> int:
    """The rank of E = sum_h t(h) h on im d, for the elimination ``elim`` of d
    and the action (perms, signs) on d's target: the rank of E applied to
    the stored pivot columns, which span im d."""
    perms, signs = action
    red = ColumnReduction()
    for k, col in enumerate(elim._cols):
        rows, vals = list(col), list(col.values())
        image: SparseCol = {}
        for w, perm, sign in zip(t, perms[:, rows].tolist(),
                                 signs[:, rows].tolist()):
            if w:
                axpy(image, w, {r: s * v for r, s, v in zip(perm, sign, vals)})
        red.add_column(k, image)
    return red.rank


class FiniteChainComplex:
    """Rational chain complex with a signed permutation action of a finite
    symmetry group H.

    ``boundaries[p] = (nrows, cols)``: d_p has ``nrows`` rows and its columns
    in one ``ColumnStore`` (CSC arrays, int64 entries for every integer
    boundary); a list of ``SparseCol`` dicts is converted once.  The checks
    and the Morse reduction work on the arrays; the exact elimination reads
    the columns as dicts.

    ``actions[p] = (perms, signs)``, two int64 arrays of shape (|H|, n_p):
    h e_c = signs[h, c] e_{perms[h, c]}.  The rows are a left action of
    ``sym_group``: row 0 is the identity and row(a) row(b) = row(a b), signs
    included.  Without a group, H is the trivial group acting by identity
    rows."""

    def __init__(self, n_cells: dict[int, int],
                 boundaries: dict[int, tuple[int, ColumnStore
                                             | list[SparseCol]]],
                 sym_group: FiniteGroup | None = None,
                 actions: dict[int, tuple[np.ndarray, np.ndarray]]
                 | None = None):
        self.n_cells = dict(n_cells)
        self.boundaries = {
            p: (nrows, cols if isinstance(cols, ColumnStore)
                else ColumnStore.from_dicts(cols))
            for p, (nrows, cols) in boundaries.items()}
        self.sym_group = sym_group or trivial_group()
        self.actions = actions if actions is not None else {
            p: (np.arange(n, dtype=np.int64)[None],
                np.ones((1, n), dtype=np.int64))
            for p, n in self.n_cells.items()}
        self._elims: dict[int, ColumnReduction | None] = {}
        self._validate()

    def dims(self):
        return sorted(self.n_cells)

    def _validate(self):
        for p, (nrows, cols) in self.boundaries.items():
            if len(cols) != self.n_cells.get(p, -1) or \
                    nrows != self.n_cells.get(p - 1, -1):
                raise ComplexError(f"boundary {p} shape mismatch")
        # d d = 0, exactly: the sorted and summed product has no entry
        for p, (nrows, cols) in self.boundaries.items():
            upper = self.boundaries.get(p + 1)
            if upper is not None and cols.product(upper[1], nrows).rows.size:
                raise NotAComplex(f"d_{p} . d_{p + 1} != 0")
        # symmetry: signed permutations commuting with the boundaries
        if set(self.actions) != set(self.n_cells):
            raise ComplexError("the action does not cover the degrees of "
                               "the cells")
        for p, (perms, signs) in self.actions.items():
            shape = (self.sym_group.order, self.n_cells[p])
            if perms.shape != shape or signs.shape != shape:
                raise ComplexError(f"the action on degree {p} is not "
                                   f"|H| x n_{p}")
            if (np.sort(perms, axis=1) != np.arange(shape[1])).any():
                raise ComplexError("action is not a permutation")
            if (np.abs(signs) != 1).any():
                raise ComplexError("action signs must be +-1")
        # commutation with the boundaries on the generator rows; with the
        # group action checked below, every row commutes then.  g d e_j =
        # d g e_j sends each entry v at (r, j) to sign[j] lsign[r] v at
        # (lperm[r], perm[j]), and d commutes with g exactly when these
        # images, sorted into store order by one argsort, are the entries
        # of d again
        gens = self.sym_group.generators
        for p, (nrows, cols) in self.boundaries.items():
            (perms, signs), (lperms, lsigns) = self.actions[p], \
                self.actions[p - 1]
            at_col = cols.col_index()
            keys = at_col * nrows + cols.rows
            for g in gens:
                moved = perms[g][at_col] * nrows + lperms[g][cols.rows]
                order = np.argsort(moved)
                if not (np.array_equal(moved[order], keys)
                        and np.array_equal((signs[g][at_col]
                                            * lsigns[g][cols.rows]
                                            * cols.vals)[order], cols.vals)):
                    raise ComplexError(
                        f"action does not commute with boundary {p}")
        # a left action: row 0 is the identity, and for each generator g and
        # every h, (g h) e_c = signs[h, c] g e_{perms[h, c]}
        lefts = [self.sym_group.left(g) for g in gens]
        for p, (perms, signs) in self.actions.items():
            if (perms[0] != np.arange(self.n_cells[p])).any() or \
                    (signs[0] != 1).any() or any(
                        (perms[gh] != perms[g][perms]).any()
                        or (signs[gh] != signs * signs[g][perms]).any()
                        for g, gh in zip(gens, lefts)):
                raise ComplexError("the symmetry does not act as a group")

    def _elim(self, p: int) -> ColumnReduction | None:
        if p not in self._elims:
            bnd = self.boundaries.get(p)
            if bnd is None:
                self._elims[p] = None
            else:
                # an empty column adds no rank, so only the others are read
                cols = bnd[1]
                nonempty = np.flatnonzero(cols.lengths())
                elim = self._elims[p] = ColumnReduction()
                for j, col in zip(nonempty.tolist(), cols.take(nonempty)):
                    elim.add_column(j, col)
        return self._elims[p]

    def rank(self, p: int) -> int:
        elim = self._elim(p)
        return 0 if elim is None else elim.rank

    def betti(self, p: int) -> int:
        return self.n_cells[p] - self.rank(p) - self.rank(p + 1)

    def betti_numbers(self) -> dict[int, int]:
        return {p: self.betti(p) for p in self.dims()}

    def cell_traces(self, p: int) -> list[int]:
        """Tr(h | C_p) for every h of H: the signed counts of the cells that
        h fixes, one reduction over the (|H|, n_p) action."""
        perms, signs = self.actions[p]
        fixed = perms == np.arange(self.n_cells[p])
        return np.where(fixed, signs, 0).sum(axis=1).tolist()

    def multiplicities(self, table: CharacterTable) -> HomologyReport:
        """Betti numbers, multiplicities of the irreducibles of ``table`` and
        traces of the symmetry on homology, from the isotypic block
        dimensions and image ranks of the Morse reduction of the complex."""
        if table.group is not self.sym_group:
            raise ComplexError("character table of a different group")
        reduced = morse_reduce(self)
        order = self.sym_group.order
        class_of = table.classes.class_of
        dims = reduced.dims()
        block_dim = dict.fromkeys(dims, 0)
        block_rank = dict.fromkeys(reduced.boundaries, 0)
        betti = dict.fromkeys(dims, 0)
        mult, trace = {}, {(p, h): 0 for p in dims for h in range(order)}
        cell_traces = {p: reduced.cell_traces(p) for p in dims}
        for members, weights in galois_orbits(table):
            t = [weights[class_of[h]] for h in range(order)]
            degree = table.irreducibles[members[0]].degree
            rank = {q: _image_rank(reduced._elim(q), reduced.actions[q - 1], t)
                    for q in reduced.boundaries}
            for q, r in rank.items():
                block_rank[q] += r
            for p in dims:
                dim_c, rest = divmod(degree * sum(
                    w * c for w, c in zip(t, cell_traces[p])), order)
                if rest:
                    raise NotIntegral(
                        f"isotypic block of irreducible {members[0]} in C_{p} "
                        f"has no integral dimension")
                block_dim[p] += dim_c
                dim_h = dim_c - rank.get(p, 0) - rank.get(p + 1, 0)
                size = degree * len(members)
                m, rest = divmod(dim_h, size)
                if rest:
                    raise NotIntegral(
                        f"multiplicity {Fraction(dim_h, size)} of irreducible "
                        f"{members[0]} in H_{p} is not integral")
                betti[p] += dim_h
                mult.update(((p, i), m) for i in members)
                for h in range(order):
                    trace[(p, h)] += m * t[h]
        for p in dims:
            if block_dim[p] != reduced.n_cells[p]:
                raise ComplexError(f"sum rule fails in degree {p}")
        for q, r in block_rank.items():
            if r != reduced.rank(q):
                raise ComplexError(f"block ranks of d_{q} do not sum to its "
                                   f"rank")
        return HomologyReport(betti, dict(sorted(mult.items())),
                              {k: Fraction(v) for k, v in trace.items()})


# ---------------------------------------------------------------------------
# Equivariant Morse reduction
# ---------------------------------------------------------------------------

def _spanning_forest(d1: ColumnStore, perms0: np.ndarray,
                     perms1: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                  np.ndarray]:
    """An H-invariant acyclic matching of vertices with edges, grown
    breadth first over the orbits of the graph.

    Vertices with a nontrivial stabilizer are roots; so is a whole free
    orbit where the search has to restart.  A free vertex orbit is paired
    with the free edge orbit that first reaches it, when the edge has two
    ends, the unreached one with incidence +-1, the other already reached:
    v is paired with e and h v with h e for every h.  Returns three arrays:
    per vertex, the paired edge (-1 for a critical vertex), and the root r
    and integer coefficient c with v = c r modulo the boundaries of the
    paired edges: from d e = a v + b w, v = -a b w.
    """
    n0, n1 = perms0.shape[1], len(d1)
    free0 = (perms0 == np.arange(n0)).sum(axis=0) == 1
    free1 = (perms1 == np.arange(n1)).sum(axis=0) == 1
    # the search reads Python lists; coefficients stay ints
    rows, vals, ptr = d1.rows.tolist(), d1.vals.tolist(), d1.indptr.tolist()
    p0, p1 = perms0.tolist(), perms1.tolist()
    # the incidences x -> v through the free two-ended edges e, with entry
    # +-1 at v: each vertex's edges in increasing order, as the search
    # meets them
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n0)]
    for e in np.flatnonzero(free1 & (d1.lengths() == 2)).tolist():
        k = ptr[e]
        x, y = rows[k], rows[k + 1]
        if vals[k + 1] in (1, -1):
            incident[x].append((y, e))
        if vals[k] in (1, -1):
            incident[y].append((x, e))
    paired, root, coef = [-1] * n0, [-1] * n0, [0] * n0
    queue: list[int] = []

    def make_roots(cells):
        for u in cells:
            root[u], coef[u] = u, 1
            queue.append(u)

    make_roots(np.flatnonzero(~free0).tolist())
    pos = 0
    for start in range(n0):
        if root[start] < 0:
            make_roots(sorted({row[start] for row in p0}))
        while pos < len(queue):
            x = queue[pos]
            pos += 1
            for v, e in incident[x]:
                if root[v] >= 0:
                    continue
                for row0, row1 in zip(p0, p1):
                    u, f = row0[v], row1[e]
                    k = ptr[f]
                    if rows[k] == u:
                        w, a_u, a_w = rows[k + 1], vals[k], vals[k + 1]
                    else:
                        w, a_u, a_w = rows[k], vals[k + 1], vals[k]
                    paired[u], root[u] = f, root[w]
                    coef[u] = -a_u * a_w * coef[w]
                    queue.append(u)
    return (np.array(paired, dtype=np.int64), np.array(root, dtype=np.int64),
            exact_array(coef))


def morse_reduce(c: FiniteChainComplex) -> FiniteChainComplex:
    """The Morse complex of an H-invariant spanning forest of the graph of
    0- and 1-cells (Forman, Adv. Math. 134 (1998); Skoldberg, Trans. AMS
    358 (2006)).

    The cells left unpaired by ``_spanning_forest`` are critical.  The
    Morse boundary of a critical edge is the sum of its ends' roots with the
    coefficients of the forest, gathered from the root and coefficient
    arrays and summed by one sort; a 2-cell boundary drops the rows of the
    paired edges; higher degrees are kept.  The complex is H-equivariantly
    chain-homotopy equivalent to ``c``, and H acts on it by the restricted
    signed permutations.  The constructor checks d.d = 0 and that the action
    commutes with the new boundaries; then each paired edge's boundary is
    checked to vanish under the forest, which catches a sign rule that is
    wrong on every orbit alike and so still commutes with the action.
    """
    if 1 not in c.boundaries:
        return c
    d1 = c.boundaries[1][1]
    paired, root, coef = _spanning_forest(d1, c.actions[0][0],
                                          c.actions[1][0])
    # each entry v at row r of d_1 goes to the root of r, times the
    # coefficient of r: the columns of the critical edges are the Morse
    # boundary, and those of the paired edges vanish
    flow = ColumnStore.from_entries(
        len(d1), c.n_cells[0], d1.col_index(), root[d1.rows],
        exact_mul(coef[d1.rows], d1.vals, int(d1.lengths().max(initial=0))))
    paired_edges = paired[paired >= 0]
    unpaired = np.ones(len(d1), dtype=bool)
    unpaired[paired_edges] = False
    critical = {0: np.flatnonzero(paired < 0), 1: np.flatnonzero(unpaired)}
    new_index = {}
    for p, cells in critical.items():
        new_index[p] = np.full(c.n_cells[p], -1, dtype=np.int64)
        new_index[p][cells] = np.arange(len(cells))
    n_cells = dict(c.n_cells)
    n_cells.update((p, len(cells)) for p, cells in critical.items())
    boundaries = dict(c.boundaries)
    # roots are critical, and new_index keeps their order
    d1_new = flow.take(critical[1])
    d1_new.rows = new_index[0][d1_new.rows]
    boundaries[1] = (n_cells[0], d1_new)
    if 2 in boundaries:
        d2 = boundaries[2][1]
        rows = new_index[1][d2.rows]
        on = rows >= 0
        boundaries[2] = (n_cells[1], ColumnStore.from_entries(
            len(d2), n_cells[1], d2.col_index()[on], rows[on], d2.vals[on]))
    actions = dict(c.actions)
    for p, cells in critical.items():
        perms, signs = c.actions[p]
        actions[p] = (new_index[p][perms[:, cells]], signs[:, cells])
    reduced = FiniteChainComplex(n_cells, boundaries, sym_group=c.sym_group,
                                 actions=actions)
    # d f = a v + b w with v = -a b w: a coef(v) + b coef(w) = 0 at one root
    if flow.lengths()[paired_edges].any():
        raise ComplexError("the Morse flow does not vanish on the "
                           "boundary of a paired edge")
    return reduced


# ---------------------------------------------------------------------------
# Quotient complexes
# ---------------------------------------------------------------------------

@dataclass
class QuotientOrbit:
    cell_reps: np.ndarray                   # canonical double coset reps
    offset: int
    dec: tuple[np.ndarray, np.ndarray]      # Q element -> cell id, sign


class QuotientComplex(FiniteChainComplex):
    def __init__(self, index: int, orbits: dict[int, list[QuotientOrbit]],
                 **kw):
        self.index = index
        self.orbits = orbits
        super().__init__(**kw)


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def _fill_orbit(q: FiniteGroup, cell: OrbitCell, stab_images: list[int],
                fiber_rights: np.ndarray, offset: int) -> QuotientOrbit:
    """The cells of one orbit in the quotient: the double cosets S u K,
    each filled as s (u k) by one gather of the fiber's right tables over
    the stabilizer images' left tables.

    The reps are the elements that are the least of their double coset.
    S u K has fewer than |S| |K| elements exactly when some u^-1 s u with
    s != 1 lies in K, which holds for all of S u K or none of it; the least
    rep whose images repeat names the coset where ``NotFree`` is raised."""
    n = q.order
    lefts = np.array([q.left(s) for s in stab_images], dtype=np.int64)
    # images[k |S| + i, u] = s_i u k
    images = fiber_rights[:, lefts].reshape(-1, n)
    reps = np.flatnonzero(images.min(axis=0) == np.arange(n))
    cosets = images[:, reps]
    ranked = np.sort(cosets, axis=0)
    repeats = (ranked[1:] == ranked[:-1]).any(axis=0)
    if repeats.any():
        raise NotFree(f"{cell.label}: stabilizer survives at coset "
                      f"{q.label(int(reps[repeats.argmax()]))}")
    cell_id = np.empty(n, dtype=np.int64)
    sign = np.empty(n, dtype=np.int64)
    cell_id[cosets] = np.arange(len(reps))
    sign[cosets] = np.tile(cell.signs, len(fiber_rights))[:, None]
    return QuotientOrbit(reps, offset, (cell_id, sign))


def quotient_complex(cw: EquivariantCWData, gamma: FiniteIndexSubgroup,
                     h_ctx=None) -> QuotientComplex:
    """Quotient of the equivariant complex by the finite-index subgroup,
    carrying the residual action of a finite subgroup H given as ``h_ctx``,
    the pair (abstract group, word of each element) that
    ``finite_word_subgroup`` returns; of the trivial group without it.

    Cells in the quotient are double cosets S\\Q/K with canonical minimal
    representatives; signs come from decomposing elements as s.rep.k, and
    each orbit's decomposition is two int64 arrays filled by one gather
    (``_fill_orbit``), where freeness is read off too.  Each boundary is
    one gather per group-ring term and one sort-and-sum per degree.
    """
    if cw.group is not gamma.group:
        raise ComplexError("complex and subgroup over different groups")
    qmap = gamma.via
    q = qmap.target
    if h_ctx is not None:
        h_abs, h_elem_words = h_ctx
    else:
        h_abs, h_elem_words = trivial_group(), [cw.group.identity()]
    h_images = [qmap.evaluate(w) for w in h_elem_words]
    if len(set(h_images)) != h_abs.order:
        raise ComplexError("symmetry group collapses in the quotient")
    check_normalizes(gamma, h_images)

    fiber_rights = np.array([q.right(k) for k in gamma.fiber.members],
                            dtype=np.int64)
    orbits: dict[int, list[QuotientOrbit]] = {}
    n_cells: dict[int, int] = {}
    for p in cw.dims():
        orbit_list = []
        offset = 0
        for cell in cw.cells[p]:
            stab_images = [qmap.evaluate(w) for w in cell.stabilizer]
            if len(set(stab_images)) != len(stab_images):
                raise NotFree(f"stabilizer of {cell.label} collapses "
                              f"in the quotient")
            orbit = _fill_orbit(q, cell, stab_images, fiber_rights, offset)
            orbit_list.append(orbit)
            offset += len(orbit.cell_reps)
        orbits[p] = orbit_list
        n_cells[p] = offset

    # the term c g of entry (i, j) sends the cell of rep u of source orbit j
    # to c times the cell of g u in target orbit i
    boundaries: dict[int, tuple[int, ColumnStore]] = {}
    lefts: dict[int, np.ndarray] = {}
    for p, mat in cw.boundaries.items():
        collected = push_matrix(qmap, mat).entries
        # every sum is of at most ``terms`` products, so int64 pieces sum
        # exactly; a piece that could leave int64 is an object array
        terms = sum(len(entry) for entry in collected.values())
        cols, rows, vals = [], [], []
        for (i, j), entry in collected.items():
            src, tgt = orbits[p][j], orbits[p - 1][i]
            cell_id, sign = tgt.dec
            for g, c in entry.items():
                if g not in lefts:
                    lefts[g] = np.array(q.left(g), dtype=np.int64)
                moved = lefts[g][src.cell_reps]
                cols.append(src.offset + np.arange(len(moved)))
                rows.append(tgt.offset + cell_id[moved])
                vals.append(exact_mul(sign[moved], exact_array([c]), terms))
        boundaries[p] = (n_cells[p - 1], ColumnStore.from_entries(
            n_cells[p], n_cells[p - 1], _concat(cols), _concat(rows),
            _concat(vals)))

    # h e_c = e_{c h^-1}, a left action: the cell of rep u goes to
    # dec[u h^-1] of its orbit, for every h and u of an orbit in one gather
    rights = np.array([q.right(h_images[h]) for h in h_abs.inverses],
                      dtype=np.int64)
    actions = {}
    for p in cw.dims():
        perms = np.empty((len(h_images), n_cells[p]), dtype=np.int64)
        signs = np.empty_like(perms)
        for orbit in orbits[p]:
            moved = rights[:, orbit.cell_reps]
            cell_id, sign = orbit.dec
            cells = slice(orbit.offset, orbit.offset + len(orbit.cell_reps))
            perms[:, cells] = orbit.offset + cell_id[moved]
            signs[:, cells] = sign[moved]
        actions[p] = (perms, signs)

    return QuotientComplex(index=gamma.index, orbits=orbits, sym_group=h_abs,
                           n_cells=n_cells, boundaries=boundaries,
                           actions=actions)


# ---------------------------------------------------------------------------
# Finite-group cross-check
# ---------------------------------------------------------------------------

def materialize_regular(group: FiniteGroup,
                        boundaries: dict[int, GroupRingMatrix],
                        h_sub: FiniteSubgroup) -> FiniteChainComplex:
    """Free complex over the group algebra as a plain rational complex: the
    boundaries' operators under the regular representation
    rho(g) e_x = e_{x g^-1}, with the subgroup acting by left translation
    x -> h x on each group-ring coordinate, which commutes with rho."""
    rho = regular_rep(group)
    sizes = {}
    for p, mat in boundaries.items():
        sizes[p] = mat.cols
        sizes[p - 1] = mat.rows
    order = group.order
    n_cells = {p: n_mod * order for p, n_mod in sizes.items()}
    cols = {p: operator_columns_exact(mat, rho)
            for p, mat in boundaries.items()}
    h_abs, _ = h_sub.abstract_group()
    # h e_(i, x) = e_(i, h x), for all h, i and x in one broadcast
    lefts = np.array([group.left(h) for h in h_sub.members], dtype=np.int64)
    actions = {}
    for p, n_mod in sizes.items():
        perms = (np.arange(n_mod)[:, None] * order + lefts[:, None]).reshape(
            len(lefts), -1)
        actions[p] = (perms, np.ones_like(perms))
    return FiniteChainComplex(n_cells, cols, sym_group=h_abs, actions=actions)


def finite_group_crosscheck(group: FiniteGroup, h_sub: FiniteSubgroup,
                            boundaries: dict[int, GroupRingMatrix],
                            table: CharacterTable, tol: float = 1e-7) -> dict:
    """Two independent routes to the normalized multiplicities of a free
    complex over a finite group algebra: twisted Betti numbers under the
    induced representation versus homology multiplicities over the subgroup.

    Returns {(p, chi_idx): (betti_route, homology_route)} and raises when
    the routes disagree beyond tolerance.
    """
    h_abs, _ = h_sub.abstract_group()
    if table.group is not h_abs:
        raise ComplexError("table must belong to the abstract subgroup")
    complex_b = materialize_regular(group, boundaries, h_sub)
    report = complex_b.multiplicities(table)
    out = {}
    for chi_idx, chi in enumerate(table.irreducibles):
        rho_h = irreducible_rep(h_abs, chi)
        bettis = phi_bettis(boundaries, induced_rep(group, h_sub, rho_h))
        for p in complex_b.dims():
            lhs = float(bettis[p]) * chi.degree / h_sub.order
            rhs = report.multiplicities[(p, chi_idx)] / group.order
            if abs(lhs - rhs) > tol:
                raise CrossCheckFailed(
                    f"deg {p}, irreducible {chi_idx}: {lhs} vs {rhs}")
            out[(p, chi_idx)] = (lhs, rhs)
    return out
