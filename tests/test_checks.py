"""Run-time checks proved by a fault they catch: each test injects one
targeted fault upstream of a check and asserts that the check fires."""

import numpy as np
import pytest

from l2mult import (FreeAbelianGroup, GroupRingMatrix, QuotientMap,
                    cyclic_group, luck_bound_check, moments_check,
                    push_matrix, regular_rep)
from l2mult import spectral
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
