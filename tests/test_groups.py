"""Group construction, arithmetic, automorphisms, and spec parsing."""

from __future__ import annotations

import pytest

from zerosumlab.errors import (
    CapacityError,
    DomainError,
    ParseError,
    StructuralError,
    ValidationError,
    VerificationError,
)
from zerosumlab import davenport, groups
from zerosumlab.davenport import _canonical_maps
from zerosumlab.groups import (
    AUTOMORPHISM_INDEX_ENTRIES,
    AbelianGroup,
    Automorphism,
    SemidirectGroup,
    automorphism_count,
    automorphism_group,
    direct_product,
    factorize,
    parse_groupspec,
    subgroup_embeddable,
)
from zerosumlab.sequences import _OrbitTable


def test_invariant_factor_normalization():
    assert AbelianGroup.from_factors([2, 3]).factors == (6,)
    assert AbelianGroup.from_factors([2, 6]).factors == (2, 6)
    assert AbelianGroup.from_factors([6, 2]).factors == (2, 6)
    assert AbelianGroup.from_factors([4, 6]).factors == (2, 12)
    assert AbelianGroup.from_factors([2, 2, 3]).factors == (2, 6)
    assert AbelianGroup.from_factors([]).factors == ()


def test_constructor_requires_divisibility_chain():
    with pytest.raises(ValidationError):
        AbelianGroup((3, 2))
    with pytest.raises(ValidationError):
        AbelianGroup((2, 3))
    with pytest.raises(ValidationError):
        AbelianGroup((1,))


@pytest.mark.parametrize(
    "factors",
    [(2.5,), (2.0, 4), ("3",), ("\u0663",), (True,), (2, True)],
    ids=["float", "integral-float", "str", "arabic-indic-str", "bool", "bool-second"],
)
def test_factors_must_be_ints(factors):
    # int() would read 2.5 as 2 and "\u0663" as 3
    with pytest.raises(ValidationError):
        AbelianGroup(factors)


def test_basic_attributes():
    A = AbelianGroup((2, 6))
    assert A.order == 12
    assert A.exponent == 6
    assert A.rank == 2
    assert A.zero == (0, 0)
    assert len(A.elements()) == 12
    trivial = AbelianGroup(())
    assert trivial.order == 1 and trivial.exponent == 1 and trivial.rank == 0


def test_element_arithmetic_and_orders():
    A = AbelianGroup((12,))
    assert A.add((7,), (8,)) == (3,)
    assert A.neg((5,)) == (7,)
    assert A.scale(5, (5,)) == (1,)
    assert A.element_order((6,)) == 2
    assert A.element_order((4,)) == 3
    assert A.element_order((0,)) == 1
    B = AbelianGroup((2, 4))
    assert B.element_order((1, 2)) == 2
    assert B.element_order((1, 1)) == 4


def test_element_range_checks():
    A = AbelianGroup((4,))
    with pytest.raises(StructuralError):
        A.check((1, 2))
    with pytest.raises(DomainError):
        A.check((4,))
    with pytest.raises(DomainError):
        A.check((-1,))


def _invariant_factor_chains(limit, chain=(), order=1):
    """Every chain n_1 | n_2 | … with product <= limit, the empty one first."""
    yield chain
    last = chain[-1] if chain else 1
    for n in range(max(last, 2), limit // order + 1):
        if n % last == 0:
            yield from _invariant_factor_chains(limit, chain + (n,), order * n)


def test_automorphism_group_sizes():
    # |Aut(Z_n)| = phi(n); |Aut(Z_p^2)| = |GL(2,p)|
    assert len(automorphism_group(AbelianGroup((2,)))) == 1
    assert len(automorphism_group(AbelianGroup((8,)))) == 4
    assert len(automorphism_group(AbelianGroup((12,)))) == 4
    assert len(automorphism_group(AbelianGroup((2, 2)))) == 6
    assert len(automorphism_group(AbelianGroup((3, 3)))) == 48
    assert len(automorphism_group(AbelianGroup((2, 4)))) == 8


def test_automorphisms_are_bijective_homomorphisms():
    A = AbelianGroup((2, 4))
    elems = A.elements()
    for phi in automorphism_group(A):
        images = {phi(x) for x in elems}
        assert len(images) == A.order
        for x in elems:
            for y in elems:
                assert phi(A.add(x, y)) == A.add(phi(x), phi(y))


def test_automorphism_constructor_rejects_non_automorphisms():
    # x ↦ 2x on Z4 is a homomorphism but not injective
    with pytest.raises(ValidationError):
        Automorphism(AbelianGroup((4,)), [(2,)])
    # (0,1) has order 4, but the first generator of Z2×Z4 has order 2; the
    # map x ↦ x_0·(0,1) + x_1·(1,1) on representatives is still a bijection
    A = AbelianGroup((2, 4))
    images = {
        A.add(A.scale(x[0], (0, 1)), A.scale(x[1], (1, 1))) for x in A.elements()
    }
    assert len(images) == A.order
    with pytest.raises(ValidationError):
        Automorphism(A, [(0, 1), (1, 1)])
    with pytest.raises(ValidationError):
        Automorphism(A, [(1, 0)])
    assert Automorphism(A, [(1, 0), (1, 1)])((1, 1)) == (0, 1)
    # the index-image constructor keeps the order and bijection checks
    with pytest.raises(ValidationError, match="order not dividing"):
        Automorphism._from_indices(A, [A.index((0, 1)), A.index((1, 1))])
    with pytest.raises(ValidationError, match="bijection"):
        Automorphism._from_indices(AbelianGroup((4,)), [2])


@pytest.mark.parametrize("A", [AbelianGroup((2, 4)), AbelianGroup((3, 3))], ids=AbelianGroup.spec)
def test_automorphisms_from_index_images_equal_those_from_images(A):
    for aut in automorphism_group(A):
        again = Automorphism(A, aut.images)
        assert again == aut and again.perm == aut.perm and again.images == aut.images


def _hillar_rhea(A):
    """|Aut(A)| in closed form (Hillar–Rhea, Amer. Math. Monthly 114 (2007),
    Thm 4.1): A is the product of its p-parts, and for the p-part
    Z_{p^e_1} ⊕ … ⊕ Z_{p^e_n}, e_1 <= … <= e_n, with d_k = max{l : e_l = e_k}
    and c_k = min{l : e_l = e_k},
    |Aut| = Π_k (p^{d_k} − p^{k−1}) · Π_j p^{e_j(n−d_j)} · Π_i p^{(e_i−1)(n−c_i+1)}."""
    exponents: dict[int, list[int]] = {}
    for n in A.factors:
        for p, e in factorize(n):
            exponents.setdefault(p, []).append(e)
    total = 1
    for p, es in exponents.items():
        es.sort()
        n = len(es)
        for k in range(1, n + 1):
            d = max(l for l in range(1, n + 1) if es[l - 1] == es[k - 1])
            c = min(l for l in range(1, n + 1) if es[l - 1] == es[k - 1])
            total *= (p**d - p ** (k - 1)) * p ** (es[k - 1] * (n - d))
            total *= p ** ((es[k - 1] - 1) * (n - c + 1))
    return total


def test_hillar_rhea_formula_on_known_groups():
    assert _hillar_rhea(AbelianGroup((2, 2, 2, 2, 2))) == 9_999_360  # |GL(5,2)|
    assert _hillar_rhea(AbelianGroup((3, 9))) == 3**3 * (3 - 1) ** 2  # Z_p ⊕ Z_{p^2}


@pytest.mark.parametrize(
    "A", [AbelianGroup(c) for c in _invariant_factor_chains(64)], ids=AbelianGroup.spec
)
def test_automorphism_count_is_the_closed_form(A):
    # every group of order <= 64, the most automorphism_group lists
    assert automorphism_count(A) == _hillar_rhea(A)
    if _hillar_rhea(A) * A.order > AUTOMORPHISM_INDEX_ENTRIES:
        # Z2^5 (9,999,360 permutations of 32 entries) and six of order 48 or 64
        with pytest.raises(CapacityError) as info:
            automorphism_group(A)
        assert info.value.limit == AUTOMORPHISM_INDEX_ENTRIES
        return
    assert len(automorphism_group(A)) == automorphism_count(A)


@pytest.mark.parametrize("factors", [(3, 3, 3, 3), (2, 6, 12), (8, 64), (5, 25, 125)],
                         ids=["Z3^4", "Z2xZ6xZ12", "Z8xZ64", "Z5xZ25xZ125"])
def test_automorphism_count_past_the_listing_order(factors):
    A = AbelianGroup(factors)
    assert automorphism_count(A) == _hillar_rhea(A)


def test_a_refused_listing_enumerates_nothing(monkeypatch):
    # the count refuses Z2^5 and Z4^3 before any element or sum is read
    def unread(self):
        raise AssertionError("a refused listing read the group")

    monkeypatch.setattr(AbelianGroup, "elements", unread)
    monkeypatch.setattr(AbelianGroup, "sums", unread)
    for factors in ((2, 2, 2, 2, 2), (4, 4, 4)):
        with pytest.raises(CapacityError) as info:
            automorphism_group(AbelianGroup(factors))
        assert info.value.limit == AUTOMORPHISM_INDEX_ENTRIES


def test_a_listing_of_the_wrong_length_is_refused(monkeypatch):
    for wrong in (5, 7):  # |Aut(Z2×Z2)| = 6
        monkeypatch.setattr(groups, "automorphism_count", lambda A, wrong=wrong: wrong)
        with pytest.raises(VerificationError, match="listed 6 automorphisms"):
            automorphism_group(AbelianGroup((2, 2)))


def test_a_refused_listing_builds_no_automorphism(monkeypatch):
    built = []
    original = Automorphism.__init__
    from_indices = Automorphism._from_indices

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    def counted_from_indices(cls, *args):
        built.append(1)
        return from_indices(*args)

    # both constructors: from generator images and from their indices
    monkeypatch.setattr(Automorphism, "__init__", counted)
    monkeypatch.setattr(Automorphism, "_from_indices", classmethod(counted_from_indices))
    with pytest.raises(CapacityError):
        automorphism_group(AbelianGroup((2, 2, 2, 2, 2)))
    assert built == []
    # a listing that fits builds each automorphism once
    assert len(automorphism_group(AbelianGroup((2, 2)))) == len(built) == 6


def test_automorphism_enumeration_capacity():
    # the cap is on group order; order 96 > 64 refuses, order 8 still runs
    with pytest.raises(CapacityError) as info:
        automorphism_group(AbelianGroup((96,)))
    assert info.value.limit == 64
    assert len(automorphism_group(AbelianGroup((2, 2, 2)))) == 168  # |GL(3,2)|


def test_automorphism_group_closed_and_contains_identity():
    A = AbelianGroup((2, 2))
    auts = automorphism_group(A)
    elems = A.elements()
    assert any(all(phi(x) == x for x in elems) for phi in auts)
    tables = {phi.images for phi in auts}
    for f in auts:
        for g in auts:
            assert Automorphism(A, [f(x) for x in g.images]).images in tables


# --- element indices ---------------------------------------------------------


# every abelian group of order <= 16, plus two of order 32
KERNEL_GROUPS = [AbelianGroup(c) for c in _invariant_factor_chains(16)] + [
    AbelianGroup((2, 2, 8)),
    AbelianGroup((4, 8)),
]


def test_kernel_groups_are_every_group_up_to_order_16():
    counts = [sum(A.order == n for A in KERNEL_GROUPS) for n in range(1, 17)]
    # number of abelian groups of order n (OEIS A000688)
    assert counts == [1, 1, 1, 2, 1, 1, 1, 3, 2, 1, 1, 2, 1, 1, 1, 5]


@pytest.mark.parametrize("A", KERNEL_GROUPS, ids=AbelianGroup.spec)
def test_index_round_trips_in_element_order(A):
    elems = A.elements()
    assert [A.index(x) for x in elems] == list(range(A.order))
    assert [A.element(i) for i in range(A.order)] == elems
    assert A.index(A.zero) == 0


@pytest.mark.parametrize("A", KERNEL_GROUPS, ids=AbelianGroup.spec)
def test_coords_index_is_index_of_exact_in_range_lists(A):
    assert [A.coords_index(list(x)) for x in A.elements()] == list(range(A.order))
    bad = [tuple(A.zero), list(A.zero) + [0], None]
    if A.rank:
        last = A.factors[-1]
        bad += [[0] * (A.rank - 1) + [c] for c in (True, 0.0, "0", None, -1, last)]
        bad.append([0] * (A.rank - 1))
    for coords in bad:
        assert A.coords_index(coords) is None


@pytest.mark.parametrize("A", KERNEL_GROUPS, ids=AbelianGroup.spec)
def test_index_addition_matches_tuple_addition(A):
    elems = A.elements()
    sums = A.sums()
    for x in elems:
        for y in elems:
            expected = A.index(A.add(x, y))
            assert A.add_index(A.index(x), A.index(y)) == expected
            assert sums[A.index(x)][A.index(y)] == expected


def test_sum_table_holds_only_the_sums_asked_for():
    A = AbelianGroup((2, 2, 8))
    sums = A.sums()
    assert len(sums) == 0
    assert sums[5][9] == A.index(A.add(A.element(5), A.element(9)))
    assert sums[5][9] == sums[9][5]
    assert A.sums() is sums
    assert sorted(len(row) for row in sums.values()) == [1, 1]


def _element_images(A, aut):
    """``aut``'s image of every element, in element order, as Σ x_i·images[i]
    in tuple arithmetic: a reference that shares no code with
    ``Automorphism.perm``."""
    images = [A.zero]
    for n, img in zip(A.factors, aut.images):
        multiples = [A.scale(c, img) for c in range(n)]
        images = [A.add(y, m) for y in images for m in multiples]
    return images


@pytest.mark.parametrize("A", KERNEL_GROUPS, ids=AbelianGroup.spec)
def test_canonical_maps_are_the_automorphisms_on_indices(A, monkeypatch):
    elems = A.elements()
    auts = automorphism_group(A)
    # one enumeration of Aut(A) for both sides; Aut(Z2^4) has 20,160 elements
    monkeypatch.setattr(davenport, "automorphism_group", lambda group: auts)
    table = _OrbitTable(_canonical_maps(A), range(A.order))
    identity = tuple(range(A.order))
    # the identity first, then Aut(A) in enumeration order without repeats
    assert table.maps[0] == identity
    assert len(table.maps) == len(auts)
    images = [_element_images(A, aut) for aut in auts]
    others = [imgs for imgs in images if imgs != elems]
    assert len(others) == len(auts) - 1
    for perm, imgs in zip(table.maps[1:], others):
        assert [A.element(i) for i in perm] == imgs
    for x in range(A.order):
        assert table.cols[x] == tuple([perm[x] for perm in table.maps])
        least = min(perm[x] for perm in table.maps)
        assert table.leader[x] == least
        assert [table.maps[i] for i in table.to_leader[x]] == [
            perm for perm in table.maps if perm[x] == least]


def test_direct_product_with_embeddings():
    C, eA, eB = direct_product(AbelianGroup((2,)), AbelianGroup((3,)))
    assert C.factors == (6,)
    a = eA((1,))
    b = eB((1,))
    assert C.element_order(a) == 2
    assert C.element_order(b) == 3
    assert C.element_order(C.add(a, b)) == 6


def test_direct_product_embeddings_are_injective_homomorphisms():
    G = AbelianGroup((2, 2))
    H = AbelianGroup((6,))
    C, eG, eH = direct_product(G, H)
    assert C.order == 24
    seen = set()
    for x in G.elements():
        for y in H.elements():
            seen.add(C.add(eG(x), eH(y)))
    assert len(seen) == 24
    for x in G.elements():
        for y in G.elements():
            assert eG(G.add(x, y)) == C.add(eG(x), eG(y))


@pytest.mark.parametrize(
    "a, b, images_a, images_b",
    [
        ((2,), (2, 4), ((0, 1, 0),), ((1, 0, 0), (0, 0, 1))),
        ((2, 2), (4,), ((0, 1, 0), (1, 0, 0)), ((0, 0, 1),)),
        ((4,), (2, 4), ((0, 0, 1),), ((1, 0, 0), (0, 1, 0))),
        ((3,), (3, 9), ((0, 1, 0),), ((1, 0, 0), (0, 0, 1))),
    ],
    ids=["Z2+Z2xZ4", "Z2xZ2+Z4", "Z4+Z2xZ4", "Z3+Z3xZ9"],
)
def test_direct_product_keeps_equal_prime_powers_in_input_order(a, b, images_a, images_b):
    # equal prime powers slot in input order, so no generator image moves
    C, eA, eB = direct_product(AbelianGroup(a), AbelianGroup(b))
    assert eA.images == images_a
    assert eB.images == images_b


def test_subgroup_embeddable():
    Z2, Z4, Z6 = AbelianGroup((2,)), AbelianGroup((4,)), AbelianGroup((6,))
    V = AbelianGroup((2, 2))
    assert subgroup_embeddable(Z2, Z4)
    assert subgroup_embeddable(Z2, V)
    assert subgroup_embeddable(AbelianGroup((3,)), Z6)
    assert not subgroup_embeddable(V, Z4)
    assert not subgroup_embeddable(Z4, V)
    assert subgroup_embeddable(V, AbelianGroup((2, 4)))
    assert subgroup_embeddable(AbelianGroup(()), Z2)


def test_semidirect_multiplication_axioms():
    G = SemidirectGroup(3, 2, 2)
    elems = G.elements()
    assert len(elems) == 6
    e = G.identity
    for x in elems:
        assert G.multiply(e, x) == x
        assert G.multiply(x, G.inverse(x)) == e
        for y in elems:
            for z in elems:
                assert G.multiply(G.multiply(x, y), z) == G.multiply(x, G.multiply(y, z))
    assert any(G.multiply(x, y) != G.multiply(y, x) for x in elems for y in elems)


def test_semidirect_validation():
    with pytest.raises(ValidationError):
        SemidirectGroup(4, 2, 3)  # p not prime
    with pytest.raises(ValidationError):
        SemidirectGroup(3, 2, 1)  # multiplier must be in [2, p)
    with pytest.raises(ValidationError):
        SemidirectGroup(5, 2, 2)  # 2 has order 4 mod 5, not 2


def test_parse_groupspec_round_trip():
    assert parse_groupspec("Z6").factors == (6,)
    assert parse_groupspec("Z2xZ6").factors == (2, 6)
    assert parse_groupspec("Z2xZ3").factors == (6,)
    assert parse_groupspec("Z1").factors == ()
    G = parse_groupspec("SD(3,2,2)")
    assert isinstance(G, SemidirectGroup)
    assert (G.p, G.d, G.e) == (3, 2, 2)
    assert G.spec() == "SD(3,2,2)"
    for spec in ("Z2", "Z2xZ6", "Z3xZ3"):
        assert parse_groupspec(spec).spec() == spec


def test_equal_groups_and_automorphisms_built_two_ways_hash_alike():
    A, B = parse_groupspec("Z6xZ2"), AbelianGroup((2, 6))
    assert A == B and hash(A) == hash(B)
    f = Automorphism(A, [(1, 0), (0, 5)])
    identity = Automorphism(B, [(1, 0), (0, 1)])
    square = Automorphism(A, [f(x) for x in f.images])
    assert square == identity and hash(square) == hash(identity)
    assert len({square, identity, f}) == 2
    G, H = parse_groupspec("SD(3,2,2)"), SemidirectGroup(3, 2, 2)
    assert G == H and hash(G) == hash(H)
    assert G != SemidirectGroup(7, 3, 2) and G != AbelianGroup((6,))


def test_parse_groupspec_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_groupspec("Zx")
    assert info.value.position == 1
    with pytest.raises(ParseError):
        parse_groupspec("")
    with pytest.raises(ParseError):
        parse_groupspec("Z2x")
    with pytest.raises(ParseError):
        parse_groupspec("SD(3,2)")
    with pytest.raises(DomainError):
        parse_groupspec("Z0")
    with pytest.raises(ValidationError):
        parse_groupspec("SD(4,2,3)")


@pytest.mark.parametrize(
    "text, position",
    [("SX", 1), ("SD(", 3), ("SD(3a", 4), ("SD(3,2)", 6), ("SD(3,2,2", 8),
     ("SD(3,2,2)x", 9)],
)
def test_sd_spec_errors_point_at_the_first_bad_character(text, position):
    with pytest.raises(ParseError) as info:
        parse_groupspec(text)
    assert info.value.position == position
