"""Exact computational algebra for C2-equivariant Clifford structures.

Subpackages cover exact scalars and matrix kernels, graded Clifford algebras
with Real and *-structures, Pin^c/Spin^c lifts and the twisted adjoint, the
A-hat genus on Pontryagin data, Mackey-functor axiom checking with the
fixed-point integrality obstruction, and the graded functional-calculus
identities. Everything exactly decidable is computed over the rationals;
spectral routines use double precision with a 1e-9 default tolerance.
"""

from .clifford import (CliffordAlgebra, Multivector, ccl, ccl_interleaved,
                       from_kasparov, graded_tensor_split, kasparov,
                       parse_multivector, to_kasparov, vector_norm_sq)
from .funcalc import (FcImage, GradedRatFunc, alpha_conjugation_check,
                      comultiplication, fc_equivariance, fc_eval, s_generators)
from .genus import (CharClassData, ManifoldSpec, MultSeq, ahat_polynomial,
                    ahat_sequence, cp_projective_data, genus_evaluate,
                    product_data)
from .linalg import (complexify_reassemble, complexify_split,
                     fixed_point_retraction, is_unitary, matrix_from_json,
                     matrix_to_json, realify, symmetric_unitary_sqrt)
from .mackey import (AbelianGroup, MackeyPresentation, ObstructionCertificate,
                     check_mackey_axioms, fixed_point_obstruction,
                     obstruction_chain_report)
from .pin_spin import (OrthogonalAction, PinElement, check_phi_real,
                       check_rho_real_equivariance, is_fixed_spinc,
                       iv_model_action, phi_lift, spin_lift, twisted_adjoint)
from .scalars import GaussianRational, MultiPoly, RatFunc, Rational

__all__ = [
    "AbelianGroup", "CharClassData", "CliffordAlgebra",
    "FcImage", "GaussianRational", "GradedRatFunc", "MackeyPresentation",
    "ManifoldSpec", "MultSeq", "MultiPoly", "Multivector",
    "ObstructionCertificate", "OrthogonalAction", "PinElement", "RatFunc",
    "Rational", "ahat_polynomial", "ahat_sequence", "alpha_conjugation_check",
    "ccl", "ccl_interleaved", "check_mackey_axioms", "check_phi_real",
    "check_rho_real_equivariance", "complexify_reassemble", "complexify_split",
    "comultiplication", "cp_projective_data", "fc_equivariance", "fc_eval",
    "fixed_point_obstruction", "fixed_point_retraction", "from_kasparov",
    "genus_evaluate", "graded_tensor_split", "is_fixed_spinc", "is_unitary",
    "iv_model_action", "kasparov", "matrix_from_json", "matrix_to_json",
    "parse_multivector", "phi_lift", "product_data", "realify", "spin_lift",
    "symmetric_unitary_sqrt", "obstruction_chain_report", "to_kasparov",
    "twisted_adjoint", "vector_norm_sq",
]

__version__ = "0.1.0"
