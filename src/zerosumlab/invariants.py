"""Invariant rings of monomial representations over Q(ζ_m).

A group element acts by x_i ↦ ζ_m^{s_i}·x_{σ(i)}; the closure of the
generators under composition is materialized and checked against the
declared group order.  A group element sends a monomial to ζ_m^j times
another monomial, so the degree-d monomials fall into orbits.  An orbit
is admissible when every element that sends one of its monomials to a
multiple of itself sends it to itself; the transfer (sum over all group
translates) of a monomial in any other orbit is 0.  The degree-d
invariants have one basis row per admissible orbit, read off the orbit
with int arithmetic alone (``invariant_basis``; Sturmfels, *Algorithms in
Invariant Theory* §2).  Each orbit is walked along the generators, not
over the whole closure: it is admissible iff the powers of ζ_m met along
the walk agree on every generator edge (``_orbit_rows``).  A walk starts
only at a monomial that every diagonal generator (σ = id) fixes: one that
such a generator scales by a non-trivial ζ_m^j lies in no admissible
orbit, while every member of an admissible orbit is fixed, so each
admissible orbit is still first met where a walk from every monomial
meets it (``_walk_starts``).  ``transfer`` is that sum by its
definition, one ``act`` per group element, kept as public API and as the
oracle the tests check the basis against.
β_k is the largest degree where the invariants are not contained in the
(k+1)-st power of the positive-degree ideal (the scan in ``polynomials``,
shared with presented algebras), with the scan ranges certified by the
Noether bound (β ≤ |G| in characteristic 0) and the trivial bound
β_k ≤ k·β.
"""

from __future__ import annotations

import itertools
import math
from operator import mul

from .errors import (
    CapacityError,
    DomainError,
    ParseError,
    StructuralError,
    ValidationError,
    VerificationError,
)
from .groups import AbelianGroup, SemidirectGroup, parse_groupspec
from .cyclotomic import _roots
from .polynomials import GradedSpan, MultiPoly, escaping_degrees, grlex_key
from .polynomials import power_span as _power_span

DEGREE_CAP = 64
_CLOSURE_CAP = 4096


class MonomialRep:
    """A group of monomial substitutions x_i ↦ ζ_m^{s_i}·x_{σ(i)}.

    ``generators`` are (permutation, scalar-exponent vector) pairs; the
    element closure is computed on construction and must match
    ``expected_order`` when given.
    """

    __slots__ = ("name", "nvars", "conductor", "generators", "elements",
                 "group_order", "_basis_cache", "_power_cache", "_complement_cache")

    def __init__(self, nvars, conductor, generators, expected_order=None, name=None):
        if type(nvars) is not int or nvars < 0:
            raise StructuralError(f"nvars must be an int >= 0, got {nvars!r}")
        if type(conductor) is not int or conductor < 1:
            raise StructuralError(f"conductor must be an int >= 1, got {conductor!r}")
        self.nvars = nvars
        self.conductor = conductor
        gens = []
        for perm, scalars in generators:
            perm = tuple(perm)
            scalars = tuple(scalars)
            if not all(type(x) is int for x in perm + scalars):
                raise StructuralError(f"generator entries must be ints: ({perm}, {scalars})")
            scalars = tuple(s % conductor for s in scalars)
            if sorted(perm) != list(range(nvars)) or len(scalars) != nvars:
                raise StructuralError(f"bad generator ({perm}, {scalars})")
            gens.append((perm, scalars))
        self.generators = tuple(gens)
        self.elements = self._closure()
        self.group_order = len(self.elements)
        if expected_order is not None and self.group_order != expected_order:
            raise ValidationError(
                f"closure has {self.group_order} elements, expected {expected_order}"
            )
        self.name = name or f"monomial-rep({nvars} vars, order {self.group_order})"
        self._basis_cache = {}
        self._power_cache = {}
        self._complement_cache = {}

    def _compose(self, g, h):
        """Apply g, then h."""
        sigma, s = g
        tau, t = h
        perm = tuple(tau[sigma[i]] for i in range(self.nvars))
        scalars = tuple((s[i] + t[sigma[i]]) % self.conductor for i in range(self.nvars))
        return (perm, scalars)

    def _closure(self):
        identity = (tuple(range(self.nvars)), (0,) * self.nvars)
        seen = {identity}
        queue = [identity]
        while queue:
            g = queue.pop()
            for gen in self.generators:
                h = self._compose(g, gen)
                if h not in seen:
                    if len(seen) >= _CLOSURE_CAP:
                        raise CapacityError(
                            f"element closure exceeded {_CLOSURE_CAP}",
                            limit=_CLOSURE_CAP,
                        )
                    seen.add(h)
                    queue.append(h)
        return tuple(sorted(seen))

    # -- the action on polynomials ------------------------------------------------

    def act(self, element, f: MultiPoly) -> MultiPoly:
        """Image of f under x_i ↦ ζ^{s_i}·x_{σ(i)}.

        σ permutes the variables, so distinct terms of f have distinct
        images and no two images are merged; an element whose σ is no
        permutation and sends two terms to one monomial is refused.
        """
        sigma, s = element
        if f.nvars != self.nvars:
            raise StructuralError("polynomial arity does not match the representation")
        m = math.lcm(f.conductor, self.conductor)
        roots = _roots(self.conductor)
        out = {}
        for exp, coeff in f.terms.items():
            new_exp = [0] * self.nvars
            scalar = 0
            for i, e in enumerate(exp):
                if e:
                    new_exp[sigma[i]] += e
                    scalar += s[i] * e
            out[tuple(new_exp)] = coeff.lift(m) * roots[scalar % self.conductor].lift(m)
        if len(out) != len(f.terms):
            raise StructuralError(f"{element} sends two terms of f to one monomial")
        return MultiPoly._of(self.nvars, out, m)

    def is_invariant(self, f: MultiPoly) -> bool:
        return all(self.act(g, f) == f for g in self.generators)

    def degree_span(self, d: int) -> GradedSpan:
        return invariant_basis(self, d)

    def power_span(self, j: int, d: int) -> GradedSpan:
        return _power_span(self, j, d)

    def normal_form(self, f: MultiPoly) -> MultiPoly:
        """Products of invariants are invariant polynomials; nothing to reduce."""
        return f

    def __repr__(self):
        return f"MonomialRep({self.name})"


def transfer(rep: MonomialRep, f: MultiPoly) -> MultiPoly:
    """Σ_g g·f, the sum of the images of f under every group element; always invariant.

    >>> rep = regular_representation(AbelianGroup((2,)))
    >>> str(transfer(rep, MultiPoly.variable(1, 2)))
    '0'
    >>> str(transfer(rep, MultiPoly.variable(0, 2)))
    '2*x1'
    """
    total = MultiPoly.zero(rep.nvars, math.lcm(f.conductor, rep.conductor))
    for g in rep.elements:
        total = total + rep.act(g, f)
    return total


def _degree_monomials(nvars, d):
    for split in itertools.combinations_with_replacement(range(nvars), d):
        exp = [0] * nvars
        for i in split:
            exp[i] += 1
        yield tuple(exp)


def _walk_starts(rep: MonomialRep, d: int):
    """The degree-d monomials u with ⟨s, u⟩ ≡ 0 (mod m) for every generator (id, s)."""
    m = rep.conductor
    identity = tuple(range(rep.nvars))
    diagonal = [s for sigma, s in rep.generators if sigma == identity]
    for u in _degree_monomials(rep.nvars, d):
        for s in diagonal:
            if sum(map(mul, s, u)) % m:
                break
        else:
            yield u


def _orbit_rows(rep: MonomialRep, d: int):
    """(lead, row) for every admissible orbit of degree-d monomials.

    The orbit of u is walked along the generators alone, with int
    arithmetic only: (σ, s) sends ζ_m^p·x^v to ζ_m^{p + ⟨s, v⟩}·x^{σ(v)}.
    Each image v keeps the power p_v of the path that first reached it.
    Every group element is a word in the generators, so the walk meets
    every (image, power) pair that some element sends x^u to, and it meets
    no other.  The orbit is admissible iff every generator edge v → w
    agrees with the labels, p_w = p_v + ⟨s, v⟩ mod m: then, by induction
    on the word length, each element sends x^u to ζ_m^{p_v}·x^v, so the
    stabiliser acts on x^u trivially.  An edge that disagrees gives two
    elements that send x^u to different multiples of one x^v, so the
    stabiliser acts by a non-trivial character and transfer(x^u) = 0.  An
    admissible orbit reaches each image v with one power p_v, |Stab|
    times, so transfer(x^u) divided by its leading coefficient is
    Σ_v ζ_m^{p_v − p_lead}·x^v, lead the grlex-largest image.  Walks
    start only at the monomials ``_walk_starts`` keeps.  A generator
    (id, s) sends x^u to ζ_m^{⟨s, u⟩}·x^u, so a u it scales lies in no
    admissible orbit; every member of an admissible orbit is kept, so each
    admissible orbit is met first at the same member, with the same lead
    and row, as in a walk from every monomial.
    """
    m = rep.conductor
    n = rep.nvars
    gens = rep.generators
    roots = _roots(m)
    seen = set()
    out = []
    for u in _walk_starts(rep, d):
        if u in seen:
            continue
        powers = {u: 0}
        stack = [u]
        admissible = True
        while stack:
            v = stack.pop()
            support = [(i, e) for i, e in enumerate(v) if e]
            p_v = powers[v]
            for sigma, s in gens:
                image = [0] * n
                power = p_v
                for i, e in support:
                    image[sigma[i]] += e
                    power += s[i] * e
                power %= m
                w = tuple(image)
                p_w = powers.get(w)
                if p_w is None:
                    powers[w] = power
                    stack.append(w)
                elif p_w != power:
                    admissible = False
        seen.update(powers)
        if admissible:
            lead = max(powers, key=grlex_key)
            shift = powers[lead]
            terms = {v: roots[(p - shift) % m] for v, p in powers.items()}
            out.append((lead, MultiPoly._of(n, terms, m)))
    return out


def invariant_basis(rep: MonomialRep, d: int) -> GradedSpan:
    """Reduced basis of the degree-d invariants: one row per admissible orbit.

    The rows of distinct orbits have disjoint supports, so, keyed by their
    leading monomials, they are already the unique reduced echelon basis
    that inserting every non-zero ``transfer`` of a monomial would build;
    dim A_d is the number of admissible orbits.

    >>> rep = regular_representation(AbelianGroup((3,)))
    >>> [invariant_basis(rep, d).dim for d in range(5)]
    [1, 1, 2, 4, 5]
    """
    if d < 0:
        raise DomainError(f"degree must be >= 0, got {d}")
    cached = rep._basis_cache.get(d)
    if cached is not None:
        return cached
    rows = _orbit_rows(rep, d)
    support = set()
    for _, row in rows:
        support.update(row.terms)
    if len(support) != sum(len(row.terms) for _, row in rows):
        raise VerificationError(f"overlapping orbit supports in degree {d}")
    span = GradedSpan(rep.nvars, rows)
    for _, row in rows:
        if not rep.is_invariant(row):
            raise VerificationError(f"non-invariant basis row {row}")
    rep._basis_cache[d] = span
    return span


def _require_noether_degrees(group_order):
    """The β_1 scan reaches degree |G|: refuse a group order over the cap."""
    if group_order > DEGREE_CAP:
        raise CapacityError(
            f"beta_1 scan needs degrees up to |G| = {group_order}, over the cap {DEGREE_CAP}",
            limit=DEGREE_CAP,
        )


def beta_k(rep: MonomialRep, k: int) -> dict:
    """β_k of the invariant ring: max degree d with R_d ⊄ (R_+^{k+1})_d.

    β_1 is scanned over 1..|G| (complete by the Noether bound) and β_k
    over 1..k·β_1 (complete by the trivial bound β_k ≤ k·β_1), so the
    results are exact values, not window estimates.

    >>> beta_k(regular_representation(AbelianGroup((2,))), 1)["beta"]
    2
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    _require_noether_degrees(rep.group_order)
    failing, witness = escaping_degrees(rep, 2, range(1, rep.group_order + 1))
    if not failing:
        raise VerificationError(
            "no generator degrees found within the Noether bound; "
            "impossible in characteristic zero"
        )
    beta_1 = max(failing)
    report = {
        "rep": rep.name,
        "k": k,
        "beta_1": beta_1,
        "group_order": rep.group_order,
    }
    limit = rep.group_order
    if k > 1:
        limit = k * beta_1
        if limit > DEGREE_CAP:
            raise CapacityError(
                f"beta_{k} scan needs degrees up to k·beta_1 = {limit}, over the cap "
                f"{DEGREE_CAP}",
                limit=DEGREE_CAP,
                partial=report,
            )
        failing, witness = escaping_degrees(rep, k + 1, range(1, limit + 1))
    report.update(
        {
            "beta": max(failing) if failing else 0,
            "scan_limit": limit,
            "failing_degrees": failing,
            "witness": str(witness) if witness is not None else None,
        }
    )
    return report


# -- concrete representations ----------------------------------------------------


def regular_representation(A: AbelianGroup) -> MonomialRep:
    """Diagonal action of A by all of its characters (via A ≅ Â).

    One variable per character; the variable of the character indexed by
    group element y scales under the i-th canonical generator by
    ζ_m^{(m/n_i)·y_i}, m = exp(A).

    >>> regular_representation(AbelianGroup((3,))).group_order
    3
    """
    if A.order > _CLOSURE_CAP:  # the closure would hold |A| elements
        raise CapacityError(f"element closure exceeded {_CLOSURE_CAP}", limit=_CLOSURE_CAP)
    m = A.exponent
    variables = A.elements()  # sorted tuples; the zero index is the trivial character
    generators = []
    for i, n in enumerate(A.factors):
        scalars = tuple((m // n) * y[i] % m for y in variables)
        generators.append((tuple(range(A.order)), scalars))
    return MonomialRep(
        A.order, m, generators, expected_order=A.order, name=f"reg({A.spec()})"
    )


def induced_module(G: SemidirectGroup) -> MonomialRep:
    """The d-dimensional module induced from a faithful character of Z_p.

    Variable x_i (0-based) scales by ζ_p^{e^i} under the Z_p generator;
    the Z_d generator cyclically shifts x_0 → x_1 → … → x_{d-1} → x_0.

    >>> induced_module(SemidirectGroup(3, 2, 2)).group_order
    6
    """
    p, d, e = G.p, G.d, G.e
    a_gen = (tuple(range(d)), tuple(pow(e, i, p) for i in range(d)))
    b_gen = (tuple((i + 1) % d for i in range(d)), (0,) * d)
    return MonomialRep(d, p, [a_gen, b_gen], expected_order=p * d, name=f"ind({G.spec()})")


def verify_beta_equals_davenport(A: AbelianGroup, k: int, budget_seconds=None) -> dict:
    """β_k of the regular representation against D_k from the search engine.

    >>> verify_beta_equals_davenport(AbelianGroup((2,)), 1)["passed"]
    True
    """
    if not isinstance(A, AbelianGroup):
        raise DomainError("the cross-check is defined for abelian groups only")
    _require_noether_degrees(A.order)  # before reg(A)'s closure
    beta_report = beta_k(regular_representation(A), k)
    from .davenport import davenport_k

    dav = davenport_k(A, k, budget_seconds=budget_seconds)
    return {
        "group": A.spec(),
        "k": k,
        "beta": beta_report["beta"],
        "davenport": dav.value_Dk,
        "passed": beta_report["beta"] == dav.value_Dk,
    }


# -- the two sigma constructions ---------------------------------------------------


def _weights(G: SemidirectGroup):
    return [pow(G.e, i, G.p) for i in range(G.d)]


def _subset_orbit(S, d):
    return {tuple(sorted((i + j) % d for i in S)) for j in range(d)}


def _prescribed_monomial(G: SemidirectGroup, S) -> MultiPoly:
    """The invariant monomial on variable subset S from the support lemma."""
    from .lemmas import zero_sum_with_support

    w = _weights(G)
    support_weights = [w[i] for i in S]
    T = zero_sum_with_support(G.p, support_weights)
    exp = [0] * G.d
    for i in S:
        exp[i] = T.multiplicity((w[i],))
    return MultiPoly(G.d, {tuple(exp): 1})


def construct_fk(G: SemidirectGroup) -> list[MultiPoly]:
    """For k = 1..d, the invariant f_k = Σ_orbits Σ_shifts of m_S.

    k-element variable subsets are grouped into orbits under the cyclic
    shift; the lexicographically least subset represents each orbit; its
    monomial comes from the support lemma (degree ≤ p) and is summed over
    all d shifts.

    >>> [str(f) for f in construct_fk(SemidirectGroup(3, 2, 2))]
    ['x1^3 + x2^3', '2*x1*x2']
    """
    d = G.d
    shift = (tuple((i + 1) % d for i in range(d)), (0,) * d)
    rep = induced_module(G)
    out = []
    for k in range(1, d + 1):
        reps = sorted({min(_subset_orbit(S, d)) for S in itertools.combinations(range(d), k)})
        f = MultiPoly.zero(d)
        for S in reps:
            term = _prescribed_monomial(G, S)
            for _ in range(d):
                f = f + term
                term = rep.act(shift, term)
        if not rep.is_invariant(f):
            raise VerificationError(f"f_{k} for {G.spec()} is not invariant")
        if f.degree() > G.p:
            raise VerificationError(
                f"f_{k} for {G.spec()} has degree {f.degree()} > p = {G.p}"
            )
        out.append(f)
    return out


def verify_sigma_zpzd(G: SemidirectGroup) -> dict:
    """Mechanical check that σ(G) = p along the induced module.

    For every non-empty variable subset S, restricting f_{|S|} to S must
    leave a single monomial c·m_S with c ≠ 0 — then no non-zero point
    annihilates all f_k, so the f_k cut out only the origin and σ(G, U)
    is at most their largest degree.  σ(G) ≥ σ(Z_p) from the subgroup
    Z_p, computed by ``sigma_diagonal``.  The check passes iff the two
    bounds meet.
    """
    from .davenport import sigma_diagonal

    fks = construct_fk(G)
    d = G.d
    restrictions = []
    for size in range(1, d + 1):
        for S in itertools.combinations(range(d), size):
            r = fks[size - 1].restrict_to_support(S)
            if r.is_zero():
                raise VerificationError(
                    f"restriction of f_{size} to {S} vanishes identically",
                    evidence=S,
                )
            if len(r.terms) != 1:
                raise VerificationError(
                    f"restriction of f_{size} to {S} is not a single monomial",
                    evidence=S,
                )
            expected = _prescribed_monomial(G, S)
            orbit = _subset_orbit(S, d)
            c_expected = d // len(orbit)
            if r != expected * c_expected:
                raise VerificationError(
                    f"restriction of f_{size} to {S} differs from "
                    f"{c_expected}·m_S",
                    evidence=S,
                )
            coeff = next(iter(r.terms.values())).to_fraction()
            c = int(coeff)
            restrictions.append(
                {
                    "S": [i + 1 for i in S],
                    "c": c,
                    "c_divides_d": G.d % c == 0,
                }
            )
    upper = max(f.degree() for f in fks)
    lower = sigma_diagonal(AbelianGroup((G.p,)), [(1,)])
    return {
        "group": G.spec(),
        "p": G.p,
        "d": G.d,
        "fk_degrees": [f.degree() for f in fks],
        "max_degree": upper,
        "restrictions": restrictions,
        "sigma_upper_module": upper,
        "sigma_lower_subgroup": lower,
        "sigma": upper if upper == lower else None,
        "passed": upper == lower,
    }


def az2_module(n: int, e: int) -> MonomialRep:
    """Two variables: x ↦ ζ_n^{n/e}·x, y ↦ ζ_n^{−n/e}·y, swapped by an involution."""
    if e < 2:
        raise DomainError(f"the acting character must have order >= 2, got e = {e}")
    if n % e != 0:
        raise DomainError(f"character order e = {e} must divide n = {n}")
    a = n // e
    gen_a = ((0, 1), (a, (n - a) % n))
    gen_b = ((1, 0), (0, 0))
    return MonomialRep(2, n, [gen_a, gen_b], expected_order=2 * e, name=f"az2({n},{e})")


def verify_sigma_az2(n: int, e: int) -> dict:
    """x^e + y^e and xy are invariant and cut out only the origin.

    Restricting to each non-empty variable subset leaves a non-zero
    monomial supported exactly there (x^e, y^e, xy), so the common zero
    locus is 0 and σ(G, U) ≤ max(e, 2).
    """
    rep = az2_module(n, e)
    f1 = MultiPoly(2, {(e, 0): 1, (0, e): 1})
    f2 = MultiPoly(2, {(1, 1): 1})
    for f in (f1, f2):
        if not rep.is_invariant(f):
            raise VerificationError(f"{f} is not invariant under {rep.name}")
    zero_locus = []
    for S, f, label in (((0,), f1, "x^e"), ((1,), f1, "y^e"), ((0, 1), f2, "x*y")):
        r = f.restrict_to_support(S)
        ok = (
            not r.is_zero()
            and len(r.terms) == 1
            and r.support_variables() == set(S)
        )
        if not ok:
            raise VerificationError(
                f"zero-locus step failed on support {S}", evidence=S
            )
        zero_locus.append({"S": [i + 1 for i in S], "monomial": str(r), "label": label})
    return {
        "n": n,
        "e": e,
        "conductor": n,
        "closure_order": rep.group_order,
        "invariants": [str(f1), str(f2)],
        "zero_locus": zero_locus,
        "bound": max(f1.degree(), f2.degree()),
        "sigma": n if e == n else None,
        "passed": True,
    }


def parse_repspec(text: str) -> MonomialRep:
    """``reg(<groupspec>)`` or ``ind(SD(p,d,e))``; a group whose β_1 scan would
    pass ``DEGREE_CAP`` is refused before the closure of |G| elements is built."""
    if text.startswith("reg(") and text.endswith(")"):
        group = parse_groupspec(text[4:-1])
        if not isinstance(group, AbelianGroup):
            raise DomainError("reg(...) expects an abelian group spec")
        build = regular_representation
    elif text.startswith("ind(") and text.endswith(")"):
        group = parse_groupspec(text[4:-1])
        if not isinstance(group, SemidirectGroup):
            raise DomainError("ind(...) expects an SD(p,d,e) spec")
        build = induced_module
    else:
        raise ParseError(f"repspec must be reg(...) or ind(...), got {text!r}", 0)
    _require_noether_degrees(group.order)
    return build(group)
