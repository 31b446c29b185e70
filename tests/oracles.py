"""Independent oracles for the exact routes of the library.

None of them is used by the library itself.  Each recomputes a number by a
different method: a floating harmonic projector, union-find on a graph, a
dense breadth-first search of a support graph, Hessenberg reduction over
Fractions, an exhaustive scan of a group law, of its inverses or of its
conjugation action, a Cayley walk with one raw product per pair, a loop
over coset representatives, a conjugation scan over a whole quotient,
ordinary induction summed over every conjugator, a dense homology
computation on a Cayley graph built without the package, a quotient complex
filled with dict columns one double coset at a time, a spanning forest
searched on dict columns, or a permutation representation on cosets found
by multiplying them out.  Frobenius reciprocity and the pullback of a
representation along a homomorphism are checked and built here too.
"""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from l2mult._linalg import SparseCol, axpy
from l2mult.characters import check_normalizes, finite_word_subgroup
from l2mult.complexes import ComplexError, NotFree, QuotientOrbit
from l2mult.finite_groups import (GroupError, induce_ordinary, multiplicity,
                                  restrict_ordinary, trivial_group)
from l2mult.spectral import Rep
from l2mult.word_groups import push_matrix


def check_axioms(group):
    """Exhaustive associativity/identity scan; intended for small orders."""
    n = group.order
    for i in range(n):
        if group.products([0], i)[0] != i or group.products([i], 0)[0] != i:
            raise GroupError("identity axiom fails")
        j = group.inv(i)
        if group.products([i], j)[0] != 0 or group.products([j], i)[0] != 0:
            raise GroupError("inverse axiom fails")
    for a in range(n):
        for b in range(n):
            ab = group.products([a], b)[0]
            for c in range(n):
                bc = group.products([b], c)[0]
                if group.products([ab], c)[0] != group.products([a], bc)[0]:
                    raise GroupError("associativity fails")


def inverse_by_scan(group):
    """x^-1 for every element: the y with x y = 1 under the raw product."""
    n = group.order
    return [next(y for y in range(n) if group.products([x], y)[0] == 0)
            for x in range(n)]


def closed_by_scan(group, members) -> bool:
    """Whether a member set is closed under the raw product of every pair."""
    mem = set(members)
    return all(group.products([a], b)[0] in mem for a in mem for b in mem)


def tree_by_pairs(group, gens):
    """The breadth-first walk of the right Cayley graph from the identity
    over ``gens``, with one raw product per (element, generator) pair: the
    right translations of ``gens``, filled on the elements reached, and the
    spanning tree (reached, parent, letter): the elements in the order
    reached and y = parent[i] * gens[letter[i]] for y = reached[i + 1].
    Only the subgroup that ``gens`` generate is reached."""
    n = group.order
    right = [[0] * n for _ in gens]
    parent, letter = {}, {}
    reached = [0]
    for x in reached:
        for k, g in enumerate(gens):
            y = right[k][x] = group.products([x], g)[0]
            if y and y not in parent:
                parent[y], letter[y] = x, k
                reached.append(y)
    return right, (reached, [parent[y] for y in reached[1:]],
                   [letter[y] for y in reached[1:]])


def walk_by_pairs(group):
    """``tree_by_pairs`` over the group's own generators, which must reach
    every element, with the left translations of the generators filled
    along the tree and the inverses filled along it."""
    n, gens = group.order, group.generators
    right, (reached, parent, letter) = tree_by_pairs(group, gens)
    if len(reached) != n:
        raise GroupError("the generators do not generate")
    edges = list(zip(reached[1:], parent, letter))
    lefts = []
    for g in gens:
        left = [0] * n
        left[0] = g
        for x, p, k in edges:
            left[x] = right[k][left[p]]
        lefts.append(left)
    inverses = [0] * n
    for x, p, k in edges:
        # x = p s gives x^-1 = s^-1 p^-1, and s^-1 y is the y' with s y' = y
        inverses[x] = lefts[k].index(inverses[p])
    return right, (reached, parent, letter), lefts, inverses


def conjugacy_classes_by_scan(group):
    """The class partition as sorted member lists, each class {t x t^-1}
    conjugated by every t with raw products and scanned inverses."""
    n = group.order
    inverse = inverse_by_scan(group)
    classes, seen = [], set()
    for x in range(n):
        if x not in seen:
            cls = sorted({group.products(group.products([t], x), inverse[t])[0]
                          for t in range(n)})
            seen.update(cls)
            classes.append(cls)
    return classes


def _dense_boundary(qc, p):
    bnd = qc.boundaries.get(p)
    if bnd is None:
        return None
    nrows, cols = bnd
    out = np.zeros((nrows, len(cols)))
    for j, col in enumerate(cols):
        for r, v in col.items():
            out[r, j] = float(v)
    return out


def hodge_trace(qc, h, p):
    """Floating trace of the symmetry h on harmonic p-chains of a finite
    chain complex, by dense SVD projectors; O(n^3)."""
    n = qc.n_cells[p]
    proj = np.eye(n)
    for q, sign in ((p, 0), (p + 1, 1)):
        mat = _dense_boundary(qc, q)
        if mat is None:
            continue
        m = mat if sign else mat.T
        # projection onto the image of m
        u, s, _ = np.linalg.svd(m, full_matrices=False)
        cols = u[:, s > 1e-9 * max(1.0, s[0] if len(s) else 1.0)]
        proj -= cols @ cols.T
    perms, signs = qc.actions[p]
    act = np.zeros((n, n))
    act[perms[h], np.arange(n)] = signs[h]
    return float(np.trace(act @ proj))


def graph_homology_oracle(qc, table):
    """(betti, multiplicities, traces) of a 1-dimensional complex with its
    symmetry, without elimination.

    The complex must have cells in degrees 0 and 1 only, vertex signs +1,
    and edge columns +-(u - w) or 0.  Union-find gives the components, so
    b_0 and Tr(h|H_0), the number of components that h maps to themselves.
    The Lefschetz fixed-point theorem gives Tr(h|H_1) = Tr(h|H_0) - L(h)
    with L(h) the signed count of fixed cells, and the character inner
    product gives the multiplicities.  Raises ValueError on any other
    complex.
    """
    if sorted(qc.n_cells) != [0, 1] or set(qc.boundaries) != {1}:
        raise ValueError("not a 1-dimensional complex")
    order = qc.sym_group.order
    if np.any(qc.actions[0][1] != 1):
        raise ValueError("vertex signs must be +1")
    parent = list(range(qc.n_cells[0]))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for col in qc.boundaries[1][1]:
        if not col:
            continue
        if len(col) != 2 or sorted(col.values()) != [-1, 1]:
            raise ValueError(f"edge column {col} is not +-(u - w)")
        u, w = col
        parent[find(u)] = find(w)
    roots = {find(v) for v in parent}
    betti = {0: len(roots), 1: qc.n_cells[1] - qc.n_cells[0] + len(roots)}
    traces = {}
    for h in range(order):
        perm = qc.actions[0][0][h]
        fixed = sum(1 for r in roots if find(int(perm[r])) == r)
        lefschetz = qc.cell_traces(0)[h] - qc.cell_traces(1)[h]
        traces[(0, h)] = Fraction(fixed)
        traces[(1, h)] = fixed - lefschetz
    mult = {}
    for p in (0, 1):
        for i, chi in enumerate(table.irreducibles):
            total = sum(np.conj(chi.value(h)) * float(traces[(p, h)])
                        for h in range(order)) / order
            m = int(round(total.real))
            if abs(total - m) > 1e-6:
                raise ValueError(f"multiplicity {total} is not integral")
            mult[(p, i)] = m
    return betti, mult, traces


def components_by_search(mat):
    """Sorted index sets of the connected components of the support graph of
    ``mat`` (i ~ j when mat[i, j] or mat[j, i] is nonzero), by a dense
    breadth-first search from each unvisited index in turn."""
    adj = np.asarray(mat != 0, dtype=bool)
    adj |= adj.T
    unseen = np.ones(adj.shape[0], dtype=bool)
    blocks = []
    for start in range(adj.shape[0]):
        if not unseen[start]:
            continue
        unseen[start] = False
        members = frontier = np.array([start])
        while frontier.size:
            frontier = np.nonzero(adj[frontier].any(axis=0) & unseen)[0]
            unseen[frontier] = False
            members = np.concatenate((members, frontier))
        blocks.append(np.sort(members))
    return blocks


def charpoly_exact(mat):
    """Dense exact characteristic polynomial (Hessenberg over Fractions),
    coefficients indexed by the power of x; only sensible for small sizes.
    """
    n = len(mat)
    h = [[Fraction(x) for x in row] for row in mat]
    for j in range(n - 2):
        piv = None
        for i in range(j + 1, n):
            if h[i][j]:
                piv = i
                break
        if piv is None:
            continue
        if piv != j + 1:
            h[j + 1], h[piv] = h[piv], h[j + 1]
            for row in h:
                row[j + 1], row[piv] = row[piv], row[j + 1]
        for i in range(j + 2, n):
            if not h[i][j]:
                continue
            m = h[i][j] / h[j + 1][j]
            for c in range(n):
                h[i][c] -= m * h[j + 1][c]
            for r in range(n):
                h[r][j + 1] += m * h[r][i]
    polys = [[Fraction(1)]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        cur = [Fraction(0)] * (m + 1)
        for i, c in enumerate(prev):
            cur[i + 1] += c
            cur[i] -= h[m - 1][m - 1] * c
        prod = Fraction(1)
        for i in range(1, m):
            prod *= h[m - i][m - i - 1]
            if not prod:
                break
            coef = h[m - 1 - i][m - 1] * prod
            if coef:
                for t, c in enumerate(polys[m - 1 - i]):
                    cur[t] -= coef * c
        polys.append(cur)
    return polys[n]


def fixed_coset_count_oracle(level, g, h_image=0):
    """#{cosets fK : f^-1 g f in hK} by conjugating g with every coset
    representative f of the fiber K."""
    q = level.via.target
    reps, _ = level.fiber.cosets()
    h_coset = {q.products([h_image], k)[0] for k in level.fiber.members}
    return sum(1 for f in reps
               if q.products(q.products([q.inv(f)], g), f)[0] in h_coset)


def induce_ordinary_oracle(subgroup, chi):
    """Ind(chi)(g) = |H|^-1 sum_{t in Q} chi0(t g t^-1) at each class
    representative g of Q, by conjugating g with every element t of Q;
    chi0 is chi on H and 0 off it."""
    parent = subgroup.parent
    _, to_local = subgroup.abstract_group()
    values = []
    for rep in parent.conjugacy_classes().representatives:
        total = 0j
        for t in range(parent.order):
            c = parent.products(parent.products([t], rep), parent.inv(t))[0]
            if c in to_local:
                total += chi.value(to_local[c])
        values.append(total / subgroup.order)
    return np.array(values)


def frobenius_check(subgroup, chi, theta) -> bool:
    """m(Ind chi, theta) == m(chi, Res theta) for irreducible chi, theta."""
    induced = induce_ordinary(subgroup, chi)
    restricted = restrict_ordinary(theta, subgroup)
    return multiplicity(theta, induced) == multiplicity(chi, restricted)


def pullback_rep(hom, rho):
    """Composition of a representation with a group homomorphism."""
    return Rep(hom.source, rho.dim, lambda g: rho.pair(hom(g)),
               rho.is_rational)


def coset_rep(group, subgroup):
    """The permutation representation on the right cosets H x,
    rho(g) e_{Hx} = e_{H x g^-1}, with each coset multiplied out as the set
    of products h x."""
    coset_of, reps = {}, []
    for x in range(group.order):
        if x not in coset_of:
            for h in subgroup.members:
                coset_of[group.products([h], x)[0]] = len(reps)
            reps.append(x)
    return Rep(group, len(reps), lambda g: (np.array(
        [coset_of[group.products([x], group.inv(g))[0]] for x in reps],
        dtype=np.int64), None))


def freeness_oracle(cw, level):
    """The ``NotFree`` message of the first orbit cell whose stabilizer
    survives in the quotient by ``level``, or None when the action is free.

    Cells are scanned in degree order.  Two stabilizer words with one image
    collapse; otherwise every nontrivial image s is conjugated by each u of
    Q in element order until u^-1 s u lies in the fiber, at 2 |Q| (|S| - 1)
    products per orbit cell.
    """
    qmap = level.via
    q = qmap.target
    fiber = level.fiber.member_set
    for p in cw.dims():
        for cell in cw.cells[p]:
            images = [qmap.evaluate(w) for w in cell.stabilizer]
            if len(set(images)) != len(images):
                return f"stabilizer of {cell.label} collapses in the quotient"
            for u in range(q.order):
                ui = q.inv(u)
                if any(q.products(q.products([ui], s), u)[0] in fiber
                       for s in images[1:]):
                    return (f"{cell.label}: stabilizer survives at coset "
                            f"{q.label(u)}")
    return None


def involution_homology_oracle(n):
    """Brute-force multiplicities and trace of the inversion action on H_1
    of the Cayley multigraph of (Z/2^n)^2, built independently of the
    package.  Returns (m_trivial, m_sign, trace)."""
    mod = 2 ** n
    verts = [(x, y) for x in range(mod) for y in range(mod)]
    v_index = {v: i for i, v in enumerate(verts)}
    edges = []
    for v in verts:
        for e in ((1, 0), (0, 1)):
            w = ((v[0] + e[0]) % mod, (v[1] + e[1]) % mod)
            edges.append((v, w))
    boundary = np.zeros((len(verts), len(edges)))
    for j, (v, w) in enumerate(edges):
        boundary[v_index[w], j] += 1
        boundary[v_index[v], j] -= 1
    b1 = len(edges) - np.linalg.matrix_rank(boundary, tol=1e-9)
    # inversion: edge (v, v+e) -> (-v, -v-e) = reversed edge at -v-e
    act = np.zeros((len(edges), len(edges)))
    edge_index = {pair: j for j, pair in enumerate(edges)}
    for j, (v, w) in enumerate(edges):
        nv = ((-w[0]) % mod, (-w[1]) % mod)
        nw = ((-v[0]) % mod, (-v[1]) % mod)
        act[edge_index[(nv, nw)], j] = -1.0
    # trace on H_1 = trace on C_1 minus trace on im(boundary^T)
    u, s, _ = np.linalg.svd(boundary.T, full_matrices=False)
    cols = u[:, s > 1e-9]
    trace_h1 = np.trace(act) - np.trace(cols.T @ act @ cols)
    m_triv = (b1 + trace_h1) / 2
    m_sign = (b1 - trace_h1) / 2
    return int(round(m_triv)), int(round(m_sign)), int(round(trace_h1))


def quotient_by_dicts(cw, gamma, h_words=None, h_ctx=None):
    """The quotient complex filled with dict columns, one double coset and
    one group-ring term at a time: ``quotient_complex`` as it was before
    its fill ran on arrays.  Returns the pieces unchecked: ``n_cells``,
    ``orbits`` (reps and ``dec`` lists of (cell id, sign)), ``boundaries``
    as (nrows, list of ``SparseCol``), ``actions`` and ``sym_group``."""
    if cw.group is not gamma.group:
        raise ComplexError("complex and subgroup over different groups")
    qmap = gamma.via
    q = qmap.target
    fiber = gamma.fiber.members
    if h_ctx is not None:
        h_abs, h_elem_words = h_ctx
    elif h_words:
        h_abs, h_elem_words = finite_word_subgroup(h_words)
    else:
        h_abs, h_elem_words = trivial_group(), [cw.group.identity()]
    h_images = [qmap.evaluate(w) for w in h_elem_words]
    if len(set(h_images)) != h_abs.order:
        raise ComplexError("symmetry group collapses in the quotient")
    check_normalizes(gamma, h_images)

    # S u K is filled as s (u k): left translations by the stabilizer
    # images, right translations by the fiber
    fiber_moves = [q.right(k) for k in fiber]
    orbits: dict[int, list[QuotientOrbit]] = {}
    n_cells: dict[int, int] = {}
    for p in cw.dims():
        orbit_list = []
        offset = 0
        for cell in cw.cells[p]:
            stab_images = [(qmap.evaluate(w), sgn)
                           for w, sgn in zip(cell.stabilizer, cell.signs)]
            if len({im for im, _ in stab_images}) != len(stab_images):
                raise NotFree(f"stabilizer of {cell.label} collapses "
                              f"in the quotient")
            stab_moves = [(q.left(im), sgn) for im, sgn in stab_images]
            dec: list[tuple[int, int] | None] = [None] * q.order
            reps = []
            for u in range(q.order):
                if dec[u] is not None:
                    continue
                cell_id = len(reps)
                reps.append(u)
                for left, sgn in stab_moves:
                    su = left[u]
                    for right in fiber_moves:
                        v = right[su]
                        if dec[v] is not None:
                            raise NotFree(
                                f"{cell.label}: stabilizer survives at coset "
                                f"{q.label(u)}")
                        dec[v] = (cell_id, sgn)
            orbit_list.append(QuotientOrbit(reps, offset, dec))
            offset += len(reps)
        orbits[p] = orbit_list
        n_cells[p] = offset

    boundaries: dict[int, tuple[int, list[SparseCol]]] = {}
    for p, mat in cw.boundaries.items():
        collected = push_matrix(qmap, mat).entries
        lefts = {g: q.left(g) for terms in collected.values() for g in terms}
        cols: list[SparseCol] = []
        for j, src_orbit in enumerate(orbits[p]):
            for u in src_orbit.cell_reps:
                col: SparseCol = {}
                for i, tgt_orbit in enumerate(orbits[p - 1]):
                    terms = collected.get((i, j))
                    if not terms:
                        continue
                    for g, c in terms.items():
                        cell_id, sgn = tgt_orbit.dec[lefts[g][u]]
                        axpy(col, sgn * c, {tgt_orbit.offset + cell_id: 1})
                cols.append(col)
        boundaries[p] = (n_cells[p - 1], cols)

    # h e_c = e_{c h^-1}, a left action: the cell of rep u goes to
    # dec[u h^-1] of its orbit, for every h and u of an orbit in one gather
    rights = np.array([q.right(h_images[h]) for h in h_abs.inverses],
                      dtype=np.int64)
    actions = {}
    for p in cw.dims():
        perms = np.empty((len(h_images), n_cells[p]), dtype=np.int64)
        signs = np.empty_like(perms)
        for orbit in orbits[p]:
            moved = np.array(orbit.dec, dtype=np.int64)[
                rights[:, orbit.cell_reps]]
            cells = slice(orbit.offset, orbit.offset + len(orbit.cell_reps))
            perms[:, cells] = orbit.offset + moved[..., 0]
            signs[:, cells] = moved[..., 1]
        actions[p] = (perms, signs)

    return SimpleNamespace(index=gamma.index, orbits=orbits,
                           sym_group=h_abs, n_cells=n_cells,
                           boundaries=boundaries, actions=actions)


def _other_end(col, x):
    """The row and entry of a two-entry column other than row x."""
    (r, a), (s, b) = col.items()
    return (s, b) if r == x else (r, a)


def forest_by_queue(d1, perms0, perms1):
    """The H-invariant spanning forest of ``complexes._spanning_forest``,
    searched as it was before it read the column store: the dict columns
    ``d1`` and one Python queue, each edge's other end looked up in its
    dict.  Returns the lists (paired, root, coef)."""
    order, n0 = perms0.shape
    free0 = ((perms0 == np.arange(n0)).sum(axis=0) == 1).tolist()
    free1 = ((perms1 == np.arange(len(d1))).sum(axis=0) == 1).tolist()
    p0, p1 = perms0.tolist(), perms1.tolist()
    incident: list[list[int]] = [[] for _ in range(n0)]
    for e, col in enumerate(d1):
        if free1[e] and len(col) == 2:
            for r in col:
                incident[r].append(e)
    paired, root, coef = [-1] * n0, [-1] * n0, [0] * n0
    queue: list[int] = []

    def make_roots(cells):
        for u in cells:
            root[u], coef[u] = u, 1
            queue.append(u)

    make_roots(v for v in range(n0) if not free0[v])
    head = 0
    for start in range(n0):
        if root[start] < 0:
            make_roots(sorted({row[start] for row in p0}))
        while head < len(queue):
            x = queue[head]
            head += 1
            for e in incident[x]:
                v, a = _other_end(d1[e], x)
                if root[v] >= 0 or a not in (1, -1):
                    continue
                for h in range(order):
                    u, f = p0[h][v], p1[h][e]
                    w, b = _other_end(d1[f], u)
                    paired[u], root[u] = f, root[w]
                    coef[u] = -d1[f][u] * b * coef[w]
                    queue.append(u)
    return paired, root, coef
