"""Multiplicities of finite-group representations in the homology of
quotient complexes, with spectral measures, determinants and approximation
experiments along chains of finite quotients."""

from .finite_groups import (CharacterTable, FiniteGroup, FiniteSubgroup,
                            GroupHom, L2MultError, OrdinaryCharacter,
                            abelian_group, character_table, cyclic_group,
                            dihedral_group, from_generators, induce_ordinary,
                            induced_value, multiplicity, restrict_ordinary,
                            semidirect_vector_group, symmetric_group,
                            trivial_group)
from .word_groups import (FiniteAlgebraMatrix, FiniteIndexSubgroup,
                          FreeAbelianGroup, FreeByFiniteGroup, FreeGroup,
                          GroupRingMatrix, InfiniteDihedralGroup,
                          QuotientChain, QuotientMap, Word, push_matrix,
                          validate_chain)
from .spectral import (LuckReport, Rep, SpectralMeasure, UnitaryRep,
                       WordPermRep, character_of, fk_det,
                       induced_rep, irreducible_rep, luck_bound_check,
                       moments_check, operator_matrix, phi_betti,
                       phi_bettis, rank_nullity, regular_rep, spectral_measure)
from .complexes import (EquivariantCWData, FiniteChainComplex,
                        HomologyReport, OrbitCell, QuotientComplex,
                        builtin_line_Dinf, builtin_line_Z, builtin_rose_free,
                        builtin_tree_free_by_finite, cw_from_json,
                        finite_group_crosscheck, quotient_complex)
from .runner import (ExperimentConfig, LevelRecord, centralizer_growth, emit,
                     farber_diagnostic, rel_farber_diagnostic, run)

__version__ = "0.1.0"
