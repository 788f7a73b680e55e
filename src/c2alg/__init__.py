"""Exact computational algebra for C2-equivariant Clifford structures.

Subpackages cover exact scalars and matrix kernels, graded Clifford algebras
with Real and *-structures, Pin^c/Spin^c lifts and the twisted adjoint, the
A-hat genus on Pontryagin data, Mackey-functor axiom checking with the
fixed-point integrality obstruction, and the graded functional-calculus
identities. Everything exactly decidable is computed over the rationals;
spectral routines use double precision with a 1e-9 default tolerance.

``import c2alg`` loads no submodule: each exported name, and each submodule
(``c2alg.pin_spin``), is imported on first access (PEP 562), so exact work
never pays for numpy or the spectral modules.
"""

import importlib

# home module -> the names c2alg exports from it
_EXPORTS = {
    "clifford": ("CliffordAlgebra", "Multivector", "ccl", "ccl_interleaved",
                 "from_kasparov", "graded_tensor_split", "kasparov",
                 "parse_multivector", "to_kasparov", "vector_norm_sq"),
    "funcalc": ("FcImage", "GradedRatFunc", "alpha_conjugation_check",
                "comultiplication", "fc_equivariance", "fc_eval", "s_generators"),
    "genus": ("CharClassData", "ManifoldSpec", "MultSeq", "ahat_polynomial",
              "ahat_sequence", "cp_projective_data", "genus_evaluate", "product_data"),
    "linalg": ("complexify_reassemble", "complexify_split", "fixed_point_retraction",
               "is_unitary", "matrix_from_json", "matrix_to_json", "realify",
               "symmetric_unitary_sqrt"),
    "mackey": ("AbelianGroup", "MackeyPresentation", "ObstructionCertificate",
               "check_mackey_axioms", "fixed_point_obstruction", "obstruction_chain_report"),
    "pin_spin": ("DensePin", "OrthogonalAction", "PinElement", "check_phi_real",
                 "check_rho_real_equivariance", "is_fixed_spinc", "iv_model_action",
                 "phi_lift", "spin_lift", "twisted_adjoint"),
    "scalars": ("GaussianRational", "MultiPoly", "RatFunc", "Rational"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "verify"})

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
