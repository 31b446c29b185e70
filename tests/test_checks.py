"""Run-time checks proved by a fault they catch: each test injects one
targeted fault upstream of a check and asserts that the check fires."""

import numpy as np
import pytest

from l2mult import (FreeAbelianGroup, GroupRingMatrix, QuotientMap,
                    character_table, cyclic_group, dihedral_group,
                    induced_rep, irreducible_rep, luck_bound_check,
                    moments_check, push_matrix, regular_rep)
from l2mult import spectral
from l2mult.characters import CrossCheckFailed
from l2mult.spectral import MomentMismatch


def test_moments_check_catches_faulty_fourier_blocks(monkeypatch):
    z = FreeAbelianGroup(1)
    a = GroupRingMatrix.from_strings(z, [["1 + -1*a"]])
    target = cyclic_group(8)
    gram = push_matrix(QuotientMap(z, target, [1]), a.adjoint() @ a)
    rho = regular_rep(target)
    moments_check(gram, rho, 4)
    assert luck_bound_check(gram, rho, 1).log_gap < 1e-8
    fourier = spectral._fourier_blocks

    def shifted(a, moduli):
        blocks = fourier(a, moduli).copy()
        blocks[-1] += 1e-3 * np.eye(a.rows)
        return blocks
    monkeypatch.setattr(spectral, "_fourier_blocks", shifted)
    # the traces come from the permutation rep, not from the blocks
    with pytest.raises(MomentMismatch):
        moments_check(gram, rho, 4)
    # the gap that crt_det reads against the exact CRT coefficient
    assert luck_bound_check(gram, rho, 1).log_gap > 1e-8


def _sign_of_reflection():
    """Rational case: the sign of a reflection subgroup of D4."""
    d4 = dihedral_group(4)
    sub = d4.subgroup_generated([d4.index_of((0, 1))])
    h_abs, _ = sub.abstract_group()
    return d4, sub, irreducible_rep(h_abs,
                                    character_table(h_abs).irreducibles[1])


def _degree_two_of_d3():
    """Dense case: the degree-2 irreducible of D3 inside D6."""
    d6 = dihedral_group(6)
    sub = d6.subgroup_generated([d6.index_of((2, 0)), d6.index_of((0, 1))])
    h_abs, _ = sub.abstract_group()
    chi = [ch for ch in character_table(h_abs).irreducibles
           if ch.degree == 2][0]
    return d6, sub, irreducible_rep(h_abs, chi)


@pytest.mark.parametrize("case", [_sign_of_reflection, _degree_two_of_d3])
def test_induced_rep_character_check_catches_faulty_cosets(monkeypatch, case):
    q, sub, rho_h = case()
    rho = induced_rep(q, sub, rho_h)
    assert rho.is_rational == (case is _sign_of_reflection)
    identity = sub.abstract_group()[1][0]
    action = spectral._coset_action

    def h_dropped(q_group, h_sub):
        """g t_j = t_i h read as g t_j = t_i: block j goes to block i by
        the identity instead of rho_h(h)."""
        blocks = action(q_group, h_sub)
        return lambda g: [(i, identity) for i, _ in blocks(g)]
    monkeypatch.setattr(spectral, "_coset_action", h_dropped)
    with pytest.raises(CrossCheckFailed, match="induced character"):
        induced_rep(q, sub, rho_h)
