"""Constructive procedures: zero-sum sequences with prescribed support
over Z_p, and direct-product lower-bound witnesses for D_{r+s-1}.
"""

from __future__ import annotations

from .errors import DomainError, VerificationError
from .groups import AbelianGroup, direct_product, is_prime
from .sequences import Sequence, k_max_naive, sequence_sum
from .davenport import davenport_k


def zero_sum_with_support(p: int, S) -> Sequence:
    """A zero-sum sequence over Z_p with support exactly S and length ≤ p.

    If S already sums to zero it is returned as-is (each multiplicity 1).
    Otherwise, for each s in S there is a unique n_s in [1, p−1] with
    n_s·s ≡ −ΣS; these n_s are pairwise distinct, so min n_s ≤ p − |S|,
    and raising the multiplicity of the minimizer to n_s + 1 gives a
    zero-sum sequence of length |S| + n_s ≤ p.

    >>> zero_sum_with_support(5, {1, 3}).literal()
    '[1,1,3]'
    >>> zero_sum_with_support(3, {1}).literal()
    '[1,1,1]'
    """
    if not is_prime(p):
        raise DomainError(f"support lemma requires prime p, got {p}")
    support = sorted(set(S))
    if not support:
        raise DomainError("support must be non-empty")
    for s in support:
        if not isinstance(s, int) or not 1 <= s <= p - 1:
            raise DomainError(f"support entries must lie in [1, {p - 1}], got {s!r}")
    group = AbelianGroup((p,))
    total = sum(support) % p
    if total == 0:
        return Sequence(group, (((s,), 1) for s in support))
    # n_s·s ≡ −total, so n_s = −total·s⁻¹; distinct s give distinct n_s
    n_of = {s: (-total) * pow(s, -1, p) % p for s in support}
    chosen = min(support, key=lambda s: (n_of[s], s))
    items = tuple(
        ((s,), n_of[s] + 1 if s == chosen else 1) for s in support
    )
    out = Sequence(group, items)
    if sequence_sum(out) != group.zero or len(out) > p:
        raise VerificationError(
            f"support construction over Z{p} broke its own bound", evidence=out
        )
    return out


def direct_product_witness(SG: Sequence, TH: Sequence) -> Sequence:
    """Embed SG into the first factor of G×H and TH into the second.

    Every zero-sum block of the result has a zero-sum G-part and a
    zero-sum H-part; the blocks with non-empty G-part inject into a
    packing of SG and the purely-H blocks into one of TH, so
    k_max(result) ≤ k_max(SG) + k_max(TH).

    >>> from .groups import AbelianGroup
    >>> z2, z3 = AbelianGroup((2,)), AbelianGroup((3,))
    >>> SG = Sequence.from_elements(z2, [(1,)])
    >>> TH = Sequence.from_elements(z3, [(1,)])
    >>> direct_product_witness(SG, TH).literal()
    '[2,3]'
    """
    C, embed_G, embed_H = direct_product(SG.group, TH.group)
    elements = [embed_G(x) for x in SG] + [embed_H(y) for y in TH]
    return Sequence.from_elements(C, elements)


def verify_direct_product_bound(G: AbelianGroup, H: AbelianGroup, r: int, s: int) -> dict:
    """Check D_{r+s−1}(G×H) ≥ D_r(G) + D_s(H) − 1 constructively.

    Builds the candidate extremal sequence from the d_r(G) and d_s(H)
    witnesses, re-verifies its packing number with the naive oracle, and
    compares both sides computed by the search engine.
    """
    if r < 1 or s < 1:
        raise DomainError(f"r and s must be >= 1, got r={r}, s={s}")
    rep_G = davenport_k(G, r)
    rep_H = davenport_k(H, s)
    witness = direct_product_witness(rep_G.extremal_witness, rep_H.extremal_witness)
    witness_kmax = k_max_naive(witness)
    product = witness.group
    rep_P = davenport_k(product, r + s - 1)
    lhs = rep_P.value_Dk
    rhs = rep_G.value_Dk + rep_H.value_Dk - 1
    passed = (
        witness_kmax <= r + s - 2
        and len(witness) == rep_G.value_dk + rep_H.value_dk
        and lhs >= rhs
    )
    return {
        "G": G.spec(),
        "H": H.spec(),
        "product": product.spec(),
        "r": r,
        "s": s,
        "lhs_D_r_plus_s_minus_1": lhs,
        "rhs_Dr_plus_Ds_minus_1": rhs,
        "witness": witness.literal(),
        "witness_kmax": witness_kmax,
        "tight": lhs == rhs,
        "passed": passed,
    }
