"""Finite unitary representations and the spectral side of the pipeline:
operator matrices, atomic spectral measures, Fuglede-Kadison determinants,
moment checks, the determinant lower bound, and twisted Betti numbers of
free chain complexes.

Every matrix is a ``GroupRingMatrix`` over the representation's group;
``operator_columns_exact`` and ``operator_matrix`` turn it into the exact
and the numeric operator.

One representation class, ``Rep``: every rep is block-monomial, rho(g)
sending block y to block dest[y] by the matrix blocks[y].  Permutation reps
and characters have 1x1 blocks, a dense irreducible is one block, and
induction from H moves rho_h's blocks between the cosets (Serre, *Linear
Representations of Finite Groups*, 3.3 and 7.1), so each operator is one
scatter of its blocks.  Exact rational elimination is used whenever the
representation is rational, i.e. its blocks are +-1 scalars; everything else
falls back to dense numerics with thresholds tied to the coefficient
sup-norm bound of the matrix.  That bound must be a float: ``_float_norm``
refuses coefficients past the float range with ``SpectralError``.

``spectral_measure`` solves Hermitian blocks, then sorts and clusters all
their eigenvalues together, relative to the sup-norm bound of the matrix.
On the regular representation of an abelian group with known cyclic factors
(``FiniteGroup.moduli``) the blocks are the character blocks
sum_g a_g conj(chi(g)), one n x n block per character, all from one FFT of
the coefficients and one ``eigvalsh`` call: mu_reg(a) = sum_chi mu_chi(a) /
|Q|.  There each operator entry is one coefficient, so the Hermitian test
reads a = a^* off the coefficients in one pass.  Every other representation
gives the dense operator, real when every block of the representation is (a
permutation, +-1 monomials), solved one support block of
``_linalg._components`` at a time, a permutation similarity.  The exact
route of ``luck_bound_check`` gives those blocks to the CRT pass as well.

``phi_bettis`` gives the twisted Betti numbers of every degree of a free
complex under rho, taking each boundary's rank once, with a threshold from
that boundary's own sup-norm bound on the numeric route; ``phi_betti`` reads
one degree of the complex of the one or two boundaries it is given.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._linalg import (SparseCol, _components, _trailing_product,
                      column_reduce)
from .characters import CrossCheckFailed
from .finite_groups import (FiniteGroup, FiniteSubgroup, L2MultError,
                            OrdinaryCharacter, induce_ordinary)
from .word_groups import BuiltinGroup, GroupRingMatrix, format_letters


class SpectralError(L2MultError):
    pass


class NotHermitian(SpectralError):
    pass


class MomentMismatch(SpectralError):
    def __init__(self, k, detail=""):
        self.k = k
        super().__init__(f"moment {k} mismatch: {detail}")


class BoundViolated(SpectralError):
    pass


class NotAComplex(SpectralError):
    pass


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------

class Rep:
    """Finite-dimensional unitary representation in block-monomial form:
    with ``(dest, blocks) = pair(g)``,

        rho(g) (e_y (x) v) = e_{dest[y]} (x) blocks[y] v.

    ``blocks`` is None for a permutation and otherwise has shape
    (n_blocks, b, b).  Permutation reps and degree-1 characters have b = 1,
    a dense irreducible is one block of size d, and induction keeps the
    blocks of the rep it induces from.  Pairs are computed on first use and
    cached.  ``is_rational`` is true exactly when every block is a +-1
    scalar; the exact routes take those representations.  ``is_regular``
    marks the reps that ``regular_rep`` returns; nothing else sets it.
    """

    is_regular = False

    def __init__(self, group, dim: int, pair_of, is_rational: bool = True):
        self.group = group
        self.dim = dim
        self.is_rational = is_rational
        self._pair_of = pair_of
        self._pairs: dict = {}

    def pair(self, elem) -> tuple[np.ndarray, np.ndarray | None]:
        cached = self._pairs.get(elem)
        if cached is None:
            cached = self._pair_of(elem)
            self._pairs[elem] = cached
        return cached

    def matrix(self, elem) -> np.ndarray:
        dest, blocks = self.pair(elem)
        k, b = len(dest), 1 if blocks is None else blocks.shape[-1]
        m = np.zeros((k, b, k, b), dtype=complex)
        m[dest, :, np.arange(k), :] = 1.0 if blocks is None else blocks
        return m.reshape(self.dim, self.dim)

    def trace(self, elem) -> complex:
        dest, blocks = self.pair(elem)
        fixed = dest == np.arange(len(dest))
        if blocks is None:
            return float(np.count_nonzero(fixed))
        return complex(np.trace(blocks[fixed], axis1=1, axis2=2).sum())


def UnitaryRep(group: FiniteGroup, gen_matrices: dict[int, np.ndarray]) -> Rep:
    """The one-block rep of a finite group generated from unitary generator
    images, filled along the tree of ``group.walk`` and checked on every
    Cayley edge within 1e-9: the numeric rep of an irreducible of degree
    >= 2."""
    if not gen_matrices:
        raise SpectralError("generator images required")
    images = list(gen_matrices.values())
    dim = images[0].shape[0]
    for m in images:
        if np.max(np.abs(m.conj().T @ m - np.eye(dim))) > 1e-9:
            raise SpectralError("generator image is not unitary")
    reached, parent, letter = group.walk(gen_matrices)
    if len(reached) != group.order:
        raise SpectralError("generator images do not generate the group")
    mats = np.empty((group.order, dim, dim), dtype=complex)
    mats[0] = np.eye(dim)
    for y, p, k in zip(reached[1:], parent, letter):
        mats[y] = mats[p] @ images[k]
    for g, m in gen_matrices.items():
        if np.abs(mats @ m - mats[group.right(g)]).max() > 1e-9:
            raise SpectralError("generator images break a relation of the "
                                "group")
    dest = np.zeros(1, dtype=np.int64)
    return Rep(group, dim, lambda g: (dest, mats[g][None]), is_rational=False)


def WordPermRep(group: BuiltinGroup, letter_perms) -> Rep:
    """Permutation representation of a built-in group, given by one
    permutation per generator letter (x -> x.a_i): rho(w) e_y = e_{y.w^-1}.

    Any family is accepted whose relators (``group.relators()``) the letter
    permutations satisfy: the relators present the group, so the
    permutations then define a right action of it.
    """
    perms = [np.asarray(p, dtype=np.int64) for p in letter_perms]
    if len(perms) != group.n_letters:
        raise SpectralError("one permutation per generator required")
    dim = len(perms[0])
    for p in perms:
        if sorted(p.tolist()) != list(range(dim)):
            raise SpectralError("letter images must be bijections")
    inverses = [np.argsort(p) for p in perms]

    def act(letters):
        out = np.arange(dim)
        for i, e in letters:
            out = (perms[i] if e > 0 else inverses[i])[out]
        return out
    for r in group.relators():
        if not np.array_equal(act(r), np.arange(dim)):
            raise SpectralError(f"letter permutations break the relator "
                                f"{format_letters(r)}")
    return Rep(group, dim, lambda word: (act(word.inverse().letters()), None))


def regular_rep(group: FiniteGroup) -> Rep:
    """The regular representation rho(g) e_x = e_{x g^-1}, marked
    ``is_regular`` so that ``spectral_measure`` may split it by characters.
    Each pair array is one right translation: x g^-1 = right(g^-1)[x]."""
    inv = group.inverses
    rep = Rep(group, group.order,
              lambda g: (np.asarray(group.right(inv[g]), dtype=np.int64),
                         None))
    rep.is_regular = True
    return rep


def character_of(rho) -> OrdinaryCharacter:
    classes = rho.group.conjugacy_classes()
    return OrdinaryCharacter(rho.group,
                             [rho.trace(r) for r in classes.representatives])


def irreducible_rep(group: FiniteGroup, chi: OrdinaryCharacter) -> Rep:
    """A unitary representation affording the irreducible character chi.

    Degree-1 characters are realized directly as 1x1 blocks (rational when
    every value is +-1); higher degrees are cut out of the regular
    representation by the isotypic projector and a random commutant operator,
    made from Gaussian draws of the standard library's ``random.Random`` with
    a fixed seed.  Any other generic operator gives the same character, and
    a representation that agrees with this one up to rounding and a change
    of basis.
    """
    if chi.group is not group:
        raise SpectralError("character of a different group")
    if chi.degree == 1:
        values = chi.values
        if np.max(np.abs(np.abs(values) - 1)) > 1e-9:
            raise SpectralError("character value is not unitary")
        rational = bool(np.all(np.abs(values.imag) < 1e-12) and
                        np.all(np.abs(values.real - np.round(values.real))
                               < 1e-12))
        coefs = np.round(values.real).astype(np.int64) if rational else values
        blocks = coefs.reshape(-1, 1, 1)
        dest = np.zeros(1, dtype=np.int64)
        return Rep(group, 1,
                   lambda g: (dest, blocks[[group.class_of_element(g)]]),
                   rational)
    reg = regular_rep(group)
    n = group.order
    d = chi.degree
    proj = np.zeros((n, n), dtype=complex)
    for g in range(n):
        proj += np.conj(chi.value(g)) * reg.matrix(g)
    proj *= d / n
    evals, evecs = np.linalg.eigh((proj + proj.conj().T) / 2)
    basis = evecs[:, evals > 0.5]
    if basis.shape[1] != d * d:
        raise SpectralError("isotypic projector has unexpected rank")
    action = {g: basis.conj().T @ reg.matrix(g) @ basis for g in range(n)}
    rng = random.Random(97 + group.order)
    for _ in range(10):
        x = np.array([rng.gauss(0.0, 1.0)
                      for _ in range(d ** 4)]).reshape(d * d, d * d)
        x = x + x.T
        t = sum(action[g] @ x @ action[g].conj().T for g in range(n)) / n
        evals, evecs = np.linalg.eigh((t + t.conj().T) / 2)
        # split into eigenvalue clusters; each is an invariant subspace
        splits = [0] + [i for i in range(1, d * d)
                        if evals[i] - evals[i - 1] > 1e-7] + [d * d]
        for a, b in zip(splits, splits[1:]):
            if b - a != d:
                continue
            sub = evecs[:, a:b]
            gens = {g: sub.conj().T @ action[g] @ sub for g in group.generators}
            try:
                rep = UnitaryRep(group, gens)
            except SpectralError:
                continue
            char = character_of(rep)
            if np.max(np.abs(char.values - chi.values)) < 1e-7:
                return rep
    raise SpectralError(f"could not realize irreducible of degree {d}")


def _coset_action(q_group: FiniteGroup, h_sub: FiniteSubgroup):
    """Q acting on the left cosets t_j H: a function of g giving, for
    j = 0..k-1, the pair (i, h) with g t_j = t_i h and h local to the
    abstract subgroup."""
    _, to_local = h_sub.abstract_group()
    reps, coset_of = h_sub.cosets()
    # h = t_i^-1 g t_j, one left translation per coset representative
    back = [q_group.left(q_group.inv(t)) for t in reps]

    def blocks(g):
        left = q_group.left(g)
        out = []
        for t in reps:
            u = left[t]
            i = coset_of[u]
            out.append((i, to_local[back[i][u]]))
        return out
    return blocks


def induced_rep(q_group: FiniteGroup, h_sub: FiniteSubgroup, rho_h) -> Rep:
    """Representation induced along H <= Q on the left cosets t_j H.  rho_h
    is checked on every Cayley edge of H, the character against ordinary
    character induction, and rho on every pair of generators of Q, each
    within 1e-8.

    With g t_j = t_i h, rho(g) sends block j to block i by rho_h(h): each
    element's pair is rho_h's pair of h, moved to coset i.
    """
    h_abs, _ = h_sub.abstract_group()
    if rho_h.group is not h_abs:
        raise SpectralError("rho_h must live on the abstract subgroup")
    # the character check sees rho_h only through its traces
    if not all(_composes(rho_h, x, s) for s in h_abs.generators
               for x in range(h_abs.order)):
        raise CrossCheckFailed("rho_h is not a homomorphism on the Cayley "
                               "edges of H")
    action = _coset_action(q_group, h_sub)

    def pair_of(g):
        dests, blocks = [], []
        for i, h in action(g):
            dest_h, blocks_h = rho_h.pair(h)
            dests.append(i * len(dest_h) + dest_h)
            blocks.append(blocks_h)
        return (np.concatenate(dests),
                None if blocks[0] is None else np.concatenate(blocks))
    rep = Rep(q_group, q_group.order // h_sub.order * rho_h.dim, pair_of,
              rho_h.is_rational)
    induced_char = induce_ordinary(h_sub, character_of(rho_h))
    if np.max(np.abs(character_of(rep).values - induced_char.values)) > 1e-8:
        raise CrossCheckFailed("induced character does not match the formula")
    # the character reads only the diagonal blocks; rho(s) rho(t) = rho(st)
    # on the generators also sees where the other blocks go
    if not all(_composes(rep, s, t) for s, t in
               itertools.product(q_group.generators, repeat=2)):
        raise CrossCheckFailed("induced rep is not a homomorphism on the "
                               "generators")
    return rep


def _composes(rep: Rep, x, s) -> bool:
    """rho(x) rho(s) = rho(x s): ``dest`` exactly, blocks within 1e-8."""
    (dest_x, blocks_x), (dest_s, blocks_s) = rep.pair(x), rep.pair(s)
    dest, blocks = rep.pair(rep.group.right(s)[x])
    return (dest == dest_x[dest_s]).all() and (
        blocks is None or np.abs(blocks - blocks_x[dest_s] @ blocks_s).max()
        <= 1e-8)


# ---------------------------------------------------------------------------
# Operator matrices
# ---------------------------------------------------------------------------

def _check_compat(a: GroupRingMatrix, rho):
    if rho.group is not a.group:
        raise SpectralError("matrix and representation group differ")


def operator_matrix(a, rho) -> np.ndarray:
    """Dense block operator of the left-multiplication action in rho, one
    scatter per term: viewed as (rows, k, b, cols, k, b), the term c g of
    entry (i, j) adds c * blocks at [i, dest, :, j, y, :] for y < k, with
    (dest, blocks) = rho.pair(g).

    The coefficients are rational, so the operator is real when every block
    it scatters is: a permutation, a +-1 monomial or a real dense block.
    It is then a float64 array, and the Hermitian test, the eigensolve and
    the singular values that read it run in real arithmetic; otherwise it
    is complex."""
    _check_compat(a, rho)
    d = rho.dim
    terms = [(i, j, float(c), *rho.pair(elem))
             for (i, j), row in a.entries.items() for elem, c in row.items()]
    dtype = np.result_type(np.float64, *(blocks.dtype for *_, blocks in terms
                                         if blocks is not None))
    out = np.zeros((a.rows * d, a.cols * d), dtype=dtype)
    for i, j, c, dest, blocks in terms:
        k, b = len(dest), 1 if blocks is None else blocks.shape[-1]
        view = out.reshape(a.rows, k, b, a.cols, k, b)
        view[i, dest, :, j, np.arange(k), :] += \
            c if blocks is None else c * blocks
    return out


def operator_columns_exact(a, rho) -> tuple[int, list[SparseCol]]:
    """Sparse exact columns of the operator; requires a rational rep.

    The term c g of entry (i, j) adds c * blocks[y] at row i * dim + dest[y]
    of column j * dim + y.  Entries are ints where c is integral (the matrix
    holds such a c as an int) and Fractions only otherwise; entries that
    cancel are dropped."""
    _check_compat(a, rho)
    if not rho.is_rational:
        raise SpectralError("exact operator needs a rational representation")
    d = rho.dim
    cols: list[SparseCol] = [dict() for _ in range(a.cols * d)]
    for (i, j), terms in a.entries.items():
        for elem, c in terms.items():
            dest, blocks = rho.pair(elem)
            rows = (dest + i * d).tolist()
            vals = [c] * d if blocks is None \
                else [c * s for s in blocks.ravel().tolist()]
            for col, r, v in zip(cols[j * d:(j + 1) * d], rows, vals):
                v += col.get(r, 0)
                if v:
                    col[r] = v
                else:
                    col.pop(r, None)
    return a.rows * d, cols


def operator_trace(a, rho) -> complex:
    """Unnormalized trace of the operator: sum of diagonal block traces."""
    total = 0j
    for (i, j), terms in a.entries.items():
        if i != j:
            continue
        for elem, c in terms.items():
            total += complex(c) * rho.trace(elem)
    return total


# ---------------------------------------------------------------------------
# Spectral measures
# ---------------------------------------------------------------------------

@dataclass
class SpectralMeasure:
    """Finite atomic measure: eigenvalue atoms with integer multiplicities,
    unit mass per matrix column after dividing by the representation size."""

    atoms: list[tuple[float, int]]
    normalizer: int
    matrix_size: int

    def moment(self, k: int) -> float:
        return sum(m * v ** k for v, m in self.atoms) / self.normalizer

    def to_json(self) -> dict:
        return {"normalizer": self.normalizer, "matrix_size": self.matrix_size,
                "atoms": [[v, m] for v, m in self.atoms]}

    @classmethod
    def from_json(cls, data: dict) -> "SpectralMeasure":
        return cls([(float(v), int(m)) for v, m in data["atoms"]],
                   int(data["normalizer"]), int(data["matrix_size"]))


def _fourier_blocks(a, moduli) -> np.ndarray:
    """The operator of a square ``a`` under the regular representation of
    Z/m_1 x ... x Z/m_r, split by the characters: a stack of |Q| blocks
    sum_g a_g conj(chi(g)), one n x n block per character chi."""
    n = a.rows
    coef = np.zeros((n, n, math.prod(moduli)))
    for (i, j), terms in a.entries.items():
        coef[i, j, list(terms)] = [float(c) for c in terms.values()]
    spectrum = np.fft.fftn(coef.reshape(n, n, *moduli),
                           axes=range(2, 2 + len(moduli)))
    return np.moveaxis(spectrum.reshape(n, n, -1), -1, 0)


def _hermitian_gap(a) -> tuple[float, float]:
    """The largest |a_g^{ij}| and the largest |a_g^{ij} - a_{g^-1}^{ji}| (the
    coefficients are rational), in one pass over the coefficients of ``a``:
    the gap is symmetric under (i, j, g) -> (j, i, g^-1)."""
    inv = a.group.inv
    scale = gap = 0
    for (i, j), terms in a.entries.items():
        mirror = a.entry(j, i)
        for g, c in terms.items():
            scale = max(scale, abs(c))
            gap = max(gap, abs(c - mirror.get(inv(g), 0)))
    return float(scale), float(gap)


def _measure(a, rho, op: np.ndarray | None, norm: float):
    """``spectral_measure``, and the ``_components`` of the dense operator
    ``op`` that the caller may pass (None without it); ``norm`` is the
    sup-norm bound of ``a``.  Blocks are solved in index order, so an
    operator of one block is solved as a whole."""
    _check_compat(a, rho)
    if a.rows != a.cols:
        raise NotHermitian("operator is not square")
    fourier = rho.is_regular and rho.group.moduli is not None
    if fourier:
        # each operator entry is one coefficient of a (module docstring)
        scale, gap = _hermitian_gap(a)
    else:
        op = operator_matrix(a, rho) if op is None else op
        scale = float(np.max(np.abs(op), initial=0.0))
        gap = float(np.max(np.abs(op - op.conj().T), initial=0.0))
    if gap > 1e-9 * max(1.0, scale):
        raise NotHermitian("operator differs from its adjoint")
    parts = None if op is None else _components(op)
    blocks = [_fourier_blocks(a, rho.group.moduli)] if fourier else \
        [op if len(idx) == len(op) else op[np.ix_(idx, idx)]
         for idx in map(np.sort, parts)]
    eigs = np.sort(np.concatenate([np.empty(0)] + [
        np.linalg.eigvalsh((b + b.conj().swapaxes(-1, -2)) / 2).ravel()
        for b in blocks]))
    tol = 1e-10 * max(1.0, norm)
    starts = np.flatnonzero(np.diff(eigs, prepend=-np.inf) > tol)
    counts = np.diff(starts, append=len(eigs))
    values = np.add.reduceat(eigs, starts) / counts
    values[np.abs(values) <= tol] = 0.0
    return SpectralMeasure([(float(v), int(m)) for v, m in zip(values, counts)],
                           rho.dim, a.cols), parts


def _float_norm(a, power: int = 1) -> float:
    """The sup-norm bound of ``a`` to the ``power``, as the float that the
    numeric thresholds scale with; coefficients whose bound is past the
    float range are refused."""
    try:
        return float(a.sup_norm_bound() ** power)
    except OverflowError:
        raise SpectralError("coefficients too large for the numeric "
                            "route") from None


def spectral_measure(a, rho) -> SpectralMeasure:
    """Eigenvalue atoms of the operator of a self-adjoint matrix, normalized
    by the representation dimension: the Fourier blocks in one ``eigvalsh``
    call, or the dense operator one support block at a time (module
    docstring).  An operator that differs from its adjoint by more than
    1e-9 * max(1, largest entry) raises ``NotHermitian``.  Sorted eigenvalues
    closer than 1e-10 * max(1, sup-norm bound of a) share an atom, the mean
    of the cluster, and an atom that close to 0 is 0.
    """
    return _measure(a, rho, None, _float_norm(a))[0]


def fk_det(mu: SpectralMeasure) -> float:
    """Geometric mean exp(int ln|t| dmu), zero atoms excluded; the empty
    product is 1."""
    log_sum = 0.0
    for v, m in mu.atoms:
        if v != 0.0:
            log_sum += m * math.log(abs(v))
    return math.exp(log_sum / mu.normalizer)


def _operator_rank(a, rho) -> int:
    """Rank of the operator of a under rho: exact on rational
    representations, else the number of singular values above 1e-8 *
    max(1, sup-norm bound of a)."""
    if rho.is_rational:
        return column_reduce(operator_columns_exact(a, rho)[1]).rank
    op = operator_matrix(a, rho)
    svals = np.linalg.svd(op, compute_uv=False) if op.size else np.array([])
    norm = _float_norm(a)
    return int(np.count_nonzero(svals > 1e-8 * max(1.0, norm)))


def rank_nullity(a, rho):
    """phi-rank and phi-nullity of a (possibly rectangular) matrix: kernel
    dimension of the operator divided by the representation dimension.

    Returns exact Fractions on the rational path, floats otherwise.
    """
    op_rank = _operator_rank(a, rho)
    kernel = a.cols * rho.dim - op_rank
    nullity = (Fraction(kernel, rho.dim) if rho.is_rational
               else kernel / rho.dim)
    return a.cols - nullity, nullity


def moments_check(a, rho, kmax: int, mu: SpectralMeasure | None = None):
    """Compare measure moments with normalized operator traces of powers,
    within 1e-6 * max(1, sup-norm bound of a)^k at power k.

    ``mu`` is the spectral measure of ``a`` under ``rho`` when the caller
    has it already, and is computed here when None.  ``kmax`` must be at
    least 1."""
    if kmax < 1:
        raise SpectralError(f"kmax must be at least 1, got {kmax}")
    if a.rows != a.cols:
        raise SpectralError("moments need a square matrix")
    # the coefficients of a^k and the moments are at most the bound to the
    # k, so the bound to the kmax must be a float
    _float_norm(a, kmax)
    if mu is None:
        mu = spectral_measure(a, rho)
    c = max(1.0, _float_norm(a))
    rows = []
    power = a
    for k in range(1, kmax + 1):
        lhs = mu.moment(k)
        rhs = operator_trace(power, rho) / rho.dim
        if abs(rhs.imag) > 1e-6 * c ** k:
            raise MomentMismatch(k, f"trace not real: {rhs}")
        delta = abs(lhs - rhs.real)
        rows.append({"k": k, "moment": lhs, "trace": rhs.real, "delta": delta})
        if delta > 1e-6 * c ** k:
            raise MomentMismatch(k, f"|{lhs} - {rhs.real}| = {delta}")
        power = power @ a
    return rows


@dataclass
class LuckReport:
    det: float
    bound: float
    passed: bool
    rank: int | None = None
    char_trailing: int | None = None
    det_exact: float | None = None
    integrality_gap: float | None = None
    log_gap: float | None = None


def luck_bound_check(a, rho, d: int) -> LuckReport:
    """det(mu) >= c_A^{-(d-1)n} for integer self-adjoint positive matrices;
    for d = 1 and rational representations the trailing coefficient of the
    exact characteristic polynomial certifies det^dim as a nonzero integer.

    There the operator is filled once, from the exact columns, and split
    once by ``_components``: each block feeds ``eigvalsh`` (but on the
    Fourier route) and, as int64, the CRT pass.  Checks fire in the order
    Hermitian test, ``2**31`` guard, vanishing coefficient, bound."""
    if not a.is_integral():
        raise SpectralError("integer coefficients required")
    if a.rows != a.cols:
        raise SpectralError("square matrix required")
    exact = d == 1 and rho.is_rational
    op = None
    if exact:
        _, cols = operator_columns_exact(a, rho)
        size = a.cols * rho.dim
        rows = np.array([r for col in cols for r in col], dtype=np.int64)
        vals = [v for col in cols for v in col.values()]
        # on Python ints, which may exceed int64
        too_large = max(map(abs, vals), default=0) >= 2 ** 31
        op = np.zeros((size, size))
        op[rows, np.repeat(np.arange(size), [len(col) for col in cols])] = vals
    c = _float_norm(a)
    mu, parts = _measure(a, rho, op, c)
    det = fk_det(mu)
    bound = c ** (-(d - 1) * a.rows) if c > 0 else 1.0
    report = LuckReport(det=det, bound=bound, passed=det >= bound * (1 - 1e-9))
    if exact:
        if too_large:
            raise SpectralError("operator entries too large")
        growth = max(2, math.ceil(c))
        rank, coeff = _trailing_product(
            [op[np.ix_(idx, idx)].astype(np.int64) for idx in parts],
            growth ** size)
        report.rank = rank
        report.char_trailing = int(abs(coeff))
        log_c = math.log(abs(coeff)) if coeff else 0.0
        report.det_exact = math.exp(log_c / rho.dim)
        report.log_gap = abs(rho.dim * math.log(det) - log_c) if det > 0 else None
        if abs(coeff) < 2 ** 50 and rho.dim * math.log(max(det, 1e-300)) < 600:
            report.integrality_gap = abs(det ** rho.dim - abs(coeff))
        if coeff == 0:
            raise BoundViolated("vanishing characteristic coefficient")
    if not report.passed:
        raise BoundViolated(f"det {det} below bound {bound}")
    return report


# ---------------------------------------------------------------------------
# Twisted Betti numbers
# ---------------------------------------------------------------------------

def phi_bettis(boundaries, rho):
    """Twisted Betti numbers nullity(d_p) - rank(d_{p+1}) under rho of every
    degree of a complex of free modules, given as {p: d_p}: {p: betti}.

    Each boundary's rank is taken once, and each adjacent pair's product
    once, to check d_p . d_{p+1} = 0.  Ranks are exact on rational
    representations, giving Fractions, and otherwise count the singular
    values above a threshold scaled by the matrix's own sup-norm bound,
    giving floats.
    """
    if not boundaries:
        raise SpectralError("at least one boundary required")
    ranks, sizes = {}, {}
    for p, mat in sorted(boundaries.items()):
        upper = boundaries.get(p + 1)
        if upper is not None and _operator_rank(mat @ upper, rho):
            raise NotAComplex(f"d_{p} . d_{p + 1} != 0")
        ranks[p] = _operator_rank(mat, rho)
        sizes[p - 1], sizes[p] = mat.rows, mat.cols
    bettis = {}
    for p, n_p in sorted(sizes.items()):
        dim = n_p * rho.dim - ranks.get(p, 0) - ranks.get(p + 1, 0)
        bettis[p] = (Fraction(dim, rho.dim) if rho.is_rational
                     else dim / rho.dim)
    return bettis


def phi_betti(boundary_p, boundary_p1, rho):
    """Twisted Betti number nullity(d_p) - rank(d_{p+1}) of one degree:
    ``phi_bettis`` of the complex of the boundaries given (either may be
    None), read at that degree."""
    given = {p: mat for p, mat in ((1, boundary_p), (2, boundary_p1))
             if mat is not None}
    return phi_bettis(given, rho)[1]
