"""Fourier analysis on bounded Vilenkin groups, with an exactly verified
counterexample for Cesaro summability in the martingale Hardy space H_{1/2}.

Every exported name is loaded from its module on first use (PEP 562), so
``import vilenkin`` loads no numpy, and the exact core never needs it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("CapExceededError", "DomainError", "VerificationError"),
    "group": (
        "Cylinder", "GroupPattern", "GroupSpec", "build_group_spec", "digit_compose",
        "digit_decompose", "parse_group_text", "NAIVE_ORACLE_CAP",
    ),
    "transform": (
        "CharacterBasis", "CylinderFunction", "Spectrum", "character_basis", "character_eval",
        "coarsen", "forward_transform", "inverse_transform", "naive_transform_oracle",
        "random_cylinder_function", "sup_abs", "sup_rel_error",
    ),
    "kernels": (
        "AtomReport", "dirichlet_kernel", "fejer_kernel", "fejer_mean_direct",
        "fejer_mean_multiplier", "hardy_quasinorm_estimate", "lp_quasinorm", "maximal_function",
        "partial_sum", "summed_partial_sums", "validate_p_atom", "zero_cylinder_indicator",
    ),
    "exact": (
        "AlphaSequence", "BoundLedger", "DivergenceReport", "LevelCertificate",
        "build_alpha_sequence", "bound_chain_evaluate", "coefficient_oracle",
        "divergence_report", "sequence_from_levels",
    ),
    "counterexample": (
        "KernelBoundReport", "SigmaDecomposition", "closed_form_partial_sum", "lemma2_verify",
        "materialize_f", "oracle_spectrum", "sigma_decomposition",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
