"""Zero-sum constants of finite abelian groups, and Noether-type degree
bounds of invariant rings of monomial representations — exact searches,
exact linear algebra over cyclotomic fields, and a one-shot verification
suite tying the two engines together.
"""

from .errors import (
    CapacityError,
    DomainError,
    ParseError,
    StructuralError,
    ValidationError,
    VerificationError,
    ZeroSumLabError,
)
from .groups import (
    AbelianGroup,
    Automorphism,
    Embedding,
    SemidirectGroup,
    automorphism_group,
    direct_product,
    is_prime,
    parse_groupspec,
    smallest_prime_divisor,
    subgroup_embeddable,
)
from .sequences import (
    BlockPacking,
    Sequence,
    apply_to_sequence,
    canonical_form,
    k_max,
    k_max_naive,
    k_max_with_witness,
    load_kmax_cache,
    minimal_zero_sum_subsequences,
    parse_sequence,
    save_kmax_cache,
    sequence_sum,
)
from .davenport import (
    DavenportReport,
    LinearityProfile,
    davenport_k,
    davenport_table,
    eta,
    linearity_profile,
    sigma_abelian,
    sigma_diagonal,
    verify_inequalities,
    verify_subgroup_relations,
)
from .lemmas import (
    direct_product_witness,
    verify_direct_product_bound,
    zero_sum_with_support,
)
from .cyclotomic import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    euler_phi,
)
from .polynomials import GradedSpan, MultiPoly
from .invariants import (
    MonomialRep,
    az2_module,
    beta_k,
    construct_fk,
    induced_module,
    invariant_basis,
    parse_repspec,
    regular_representation,
    transfer,
    verify_beta_equals_davenport,
    verify_sigma_az2,
    verify_sigma_zpzd,
)
from .presented import PresentedGradedAlgebra, parse_generator_spec
from .suite import GOLDEN, verify_all

__version__ = "0.1.0"
