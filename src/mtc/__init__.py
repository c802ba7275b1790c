"""Exact-arithmetic engine for modular tensor categories presented by
finite-dimensional ribbon Hopf algebras: the canonical coend Hopf algebra,
modular data, and Cardy-case CFT quantities."""

from .scalars import CycField, Scalar, parse_scalar, format_scalar, \
    sqrt_in_field, sqrt_adjoin
from .linalg import Matrix, kron, solve_right, kernel_basis, rank, \
    NoSolution
from .hopf import (Algebra, HopfAlgebraData, HopfError, verify_hopf_axioms,
                   verify_quasitriangular, verify_ribbon, verify_all,
                   drinfeld_double, mirror, tensor_hopf, solve_ribbon,
                   builtin, group_algebra, sweedler, taft,
                   save_algebra, load_algebra, AlgebraFormatError)
from .repcat import (ModuleObject, Morphism, trivial_module, regular_module,
                     tensor_obj, dual_obj, direct_sum, hom_basis,
                     simples_data, composition_factors, grothendieck_ring,
                     SimplesData)
from .etale import NonSplitError
from .coend import (CoendData, CoendError, NotModularError, build_coend,
                    build_full, solve_structure_morphisms, integrals_and_zeta,
                    modularity_test, s_t_transforms, radford_pairing,
                    canonical_action, canonical_coaction, characters,
                    cocharacter, cutting_decomposition)
from .cardy import (boundary_state, annulus_amplitude, annulus_closed_channel,
                    torus_partition, defect_operator, defect_algebra,
                    sf_fusion_algebra, bulk_two_point, adjunction_maps,
                    CardyError)
from .report import Report

__version__ = "0.1.0"
