"""Zero-sum constants of finite abelian groups, and Noether-type degree
bounds of invariant rings of monomial representations — exact searches,
exact linear algebra over cyclotomic fields, and a one-shot verification
suite tying the two engines together.

Importing the package loads no submodule.  Each public name below, and
each submodule, is imported on first use (PEP 562), so a caller pays only
for the engines it touches.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("CapacityError", "DomainError", "ParseError", "StructuralError",
         "ValidationError", "VerificationError", "ZeroSumLabError"),
        "errors"),
    **dict.fromkeys(
        ("AbelianGroup", "Automorphism", "Embedding", "SemidirectGroup",
         "automorphism_group", "direct_product", "is_prime", "parse_groupspec",
         "smallest_prime_divisor", "subgroup_embeddable"),
        "groups"),
    **dict.fromkeys(
        ("BlockPacking", "Sequence", "apply_to_sequence", "canonical_form", "k_max",
         "k_max_naive", "k_max_with_witness", "load_kmax_cache",
         "minimal_zero_sum_subsequences", "parse_sequence", "save_kmax_cache",
         "sequence_sum"),
        "sequences"),
    **dict.fromkeys(
        ("DavenportReport", "LinearityProfile", "davenport_k", "davenport_table", "eta",
         "linearity_profile", "sigma_diagonal", "verify_inequalities",
         "verify_subgroup_relations"),
        "davenport"),
    **dict.fromkeys(
        ("direct_product_witness", "verify_direct_product_bound", "zero_sum_with_support"),
        "lemmas"),
    **dict.fromkeys(("CyclotomicNumber", "cyclotomic_polynomial", "euler_phi"), "cyclotomic"),
    **dict.fromkeys(("GradedSpan", "MultiPoly"), "polynomials"),
    **dict.fromkeys(
        ("MonomialRep", "az2_module", "beta_k", "construct_fk", "induced_module",
         "invariant_basis", "parse_repspec", "regular_representation", "transfer",
         "verify_beta_equals_davenport", "verify_sigma_az2", "verify_sigma_zpzd"),
        "invariants"),
    **dict.fromkeys(("PresentedGradedAlgebra", "parse_generator_spec"), "presented"),
    **dict.fromkeys(("GOLDEN", "verify_all"), "suite"),
}
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli"}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
