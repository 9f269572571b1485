from __future__ import annotations

import pytest

from zerosumlab import (
    AbelianGroup,
    CapacityError,
    CyclotomicNumber,
    DomainError,
    GradedSpan,
    MonomialRep,
    MultiPoly,
    ParseError,
    SemidirectGroup,
    StructuralError,
    ValidationError,
    VerificationError,
    az2_module,
    beta_k,
    construct_fk,
    davenport,
    induced_module,
    invariant_basis,
    invariants,
    parse_repspec,
    regular_representation,
    transfer,
    verify_beta_equals_davenport,
    verify_sigma_az2,
    verify_sigma_zpzd,
)

Z2 = AbelianGroup((2,))
Z3 = AbelianGroup((3,))
Z6 = AbelianGroup((6,))
Z2xZ2 = AbelianGroup((2, 2))
SD322 = SemidirectGroup(3, 2, 2)

zeta = CyclotomicNumber.zeta


# --- representations --------------------------------------------------------

def test_regular_representation_shape():
    rep = regular_representation(Z3)
    assert rep.nvars == 3
    assert rep.conductor == 3
    assert rep.group_order == 3
    assert rep.name == "reg(Z3)"


def test_induced_module_shape():
    rep = induced_module(SD322)
    assert rep.nvars == 2
    assert rep.conductor == 3
    assert rep.group_order == 6
    assert rep.name == "ind(SD(3,2,2))"


def test_generator_validation():
    with pytest.raises(StructuralError):
        MonomialRep(2, 3, [((0, 0), (1, 2))])  # not a permutation
    with pytest.raises(StructuralError):
        MonomialRep(2, 3, [((0, 1), (1,))])  # scalar vector too short


@pytest.mark.parametrize(
    "nvars, conductor, generators",
    [
        (2, 3, [((1, 0), (1.0, 0))]),
        (2, 2.0, [((1, 0), (1, 0))]),
        (2, 0, [((1, 0), (1, 0))]),
        (2, -2, [((1, 0), (1, 0))]),
        (2, 2, [((1, 0), (True, 0))]),
        (2, True, [((1, 0), (0, 0))]),
        (2, 2, [((1.0, 0), (0, 0))]),
        (2.0, 2, [((1, 0), (0, 0))]),
    ],
    ids=["float-scalar", "float-conductor", "zero-conductor", "negative-conductor",
         "bool-scalar", "bool-conductor", "float-permutation", "float-nvars"],
)
def test_monomial_rep_requires_int_entries_and_a_positive_conductor(nvars, conductor,
                                                                    generators):
    with pytest.raises(StructuralError):
        MonomialRep(nvars, conductor, generators)


def test_closure_order_check():
    shift = ((1, 0), (0, 0))
    with pytest.raises(ValidationError):
        MonomialRep(2, 2, [shift], expected_order=3)
    assert MonomialRep(2, 2, [shift], expected_order=2).group_order == 2


# --- the action and transfer --------------------------------------------------

def test_action_scales_and_permutes():
    rep = induced_module(SD322)
    x1 = MultiPoly.variable(0, 2)
    a = next(g for g in rep.elements if g[0] == (0, 1) and g[1] == (1, 2))
    assert rep.act(a, x1) == zeta(3) * x1
    b = next(g for g in rep.elements if g[0] == (1, 0) and g[1] == (0, 0))
    assert rep.act(b, x1) == MultiPoly.variable(1, 2)


def test_action_refuses_an_element_that_merges_terms():
    rep = induced_module(SD322)
    x1, x2 = (MultiPoly.variable(i, 2) for i in range(2))
    with pytest.raises(StructuralError):
        rep.act(((0, 0), (0, 0)), x1 + x2)


def test_action_lifts_foreign_coefficients():
    rep = induced_module(SD322)
    f = MultiPoly(2, {(1, 0): zeta(4)})
    g = rep.elements[1]
    assert rep.act(g, f).conductor == 12


def test_transfer_examples():
    rep = regular_representation(Z2)
    x1, x2 = (MultiPoly.variable(i, 2) for i in range(2))
    # the trivial-character variable is fixed; transfer doubles it
    assert transfer(rep, x1 * x1) == 2 * x1 * x1
    # the sign character cancels itself
    assert transfer(rep, x2).is_zero()
    ind = induced_module(SD322)
    y1, y2 = (MultiPoly.variable(i, 2) for i in range(2))
    assert transfer(ind, y1 * y2) == 6 * y1 * y2


def test_transfer_output_is_invariant():
    rep = regular_representation(Z2xZ2)
    f = MultiPoly.monomial(4, (1, 1, 0, 0))
    t = transfer(rep, f)
    assert t.is_zero() or rep.is_invariant(t)


# --- invariant bases ---------------------------------------------------------

def test_invariant_basis_dims_reg_z2():
    rep = regular_representation(Z2)
    assert invariant_basis(rep, 0).dim == 1
    assert invariant_basis(rep, 1).dim == 1  # the trivial-character variable
    assert invariant_basis(rep, 2).dim == 2  # x1^2 and x2^2


def test_invariant_basis_dims_reg_z3():
    rep = regular_representation(Z3)
    # degree-3 invariant monomials: x1^3, x2^3, x3^3, x1*x2*x3
    assert invariant_basis(rep, 3).dim == 4


def _transfer_span(rep, d):
    """The oracle: the reduced span of every non-zero transfer of a degree-d monomial."""
    span = GradedSpan(rep.nvars)
    if d == 0:
        span.insert(MultiPoly.constant(rep.nvars, 1, rep.conductor))
        return span
    for exp in invariants._degree_monomials(rep.nvars, d):
        t = transfer(rep, MultiPoly.monomial(rep.nvars, exp, 1, rep.conductor))
        if not t.is_zero():
            span.insert(t)
    return span


def _cycle_z4():
    """Z4 permuting four variables cyclically: its orbits hold up to four monomials."""
    return MonomialRep(4, 1, [((1, 2, 3, 0), (0, 0, 0, 0))], expected_order=4,
                       name="perm(Z4)")


def _natural_s3():
    """S3 acting on three variables by permutations."""
    return MonomialRep(3, 1, [((1, 0, 2), (0, 0, 0)), ((1, 2, 0), (0, 0, 0))],
                       expected_order=6, name="perm(S3)")


def _twisted_swap():
    """x1 ↦ ζ_4·x2, x2 ↦ x1, of order 8: it sends x1^3*x2 to ζ_4^3·x1*x2^3."""
    return MonomialRep(2, 4, [((1, 0), (1, 0))], expected_order=8, name="twisted-swap")


_ORACLE_REPS = [
    *(regular_representation(AbelianGroup(f))
      for f in [(2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2)]),
    *(induced_module(SemidirectGroup(*spec)) for spec in [(3, 2, 2), (7, 2, 6), (5, 4, 2)]),
    az2_module(10, 10),
    az2_module(6, 3),
    _cycle_z4(),
    _natural_s3(),
    _twisted_swap(),
]


@pytest.mark.parametrize("rep", _ORACLE_REPS, ids=lambda rep: rep.name)
def test_orbit_basis_matches_the_transfer_span(rep):
    for d in range(min(rep.group_order, 8) + 1):
        basis = invariant_basis(rep, d)
        oracle = _transfer_span(rep, d)
        assert basis.pivots() == oracle.pivots(), d
        assert [str(r) for r in basis.rows] == [str(r) for r in oracle.rows], d


def test_walks_start_only_at_monomials_the_diagonal_generators_fix():
    rep = regular_representation(Z6)
    starts = list(invariants._walk_starts(rep, 6))
    assert len(list(invariants._degree_monomials(6, 6))) == 462
    assert len(starts) == 80
    (scalars,) = [s for _, s in rep.generators]
    assert all(sum(s * e for s, e in zip(scalars, u)) % 6 == 0 for u in starts)
    assert [lead for lead, _ in invariants._orbit_rows(rep, 6)] == starts


@pytest.mark.parametrize("rep", _ORACLE_REPS, ids=lambda rep: rep.name)
def test_every_member_of_an_admissible_orbit_can_start_a_walk(rep):
    for d in range(min(rep.group_order, 6) + 1):
        starts = set(invariants._walk_starts(rep, d))
        for row in invariant_basis(rep, d).rows:
            assert starts.issuperset(row.terms), (d, row)


def _regenerated(rep, generators):
    """A fresh rep of the same closure, given by another list of generators."""
    return MonomialRep(rep.nvars, rep.conductor, generators, expected_order=rep.group_order,
                       name=rep.name)


def _generator_lists(rep):
    """The generators as given, reversed, and with redundant ones added."""
    gens = list(rep.generators)
    identity = (tuple(range(rep.nvars)), (0,) * rep.nvars)
    product = rep._compose(gens[0], gens[-1])
    return {
        "as given": gens,
        "reversed": gens[::-1],
        "duplicate": gens + gens[:1],
        "identity": [identity] + gens,
        "product": [product] + gens,
        "all redundant": [product, identity] + gens[::-1] + gens,
    }


def test_orbit_basis_does_not_depend_on_the_walk_order(monkeypatch):
    # walked backwards, an orbit is met at a monomial below its lead, which
    # the rest of the orbit can reach with a non-zero power of ζ; walked
    # along other generators, each image is first reached by another path
    reps = (_twisted_swap(), _cycle_z4(), induced_module(SemidirectGroup(7, 2, 6)),
            az2_module(12, 4))
    oracles = {(rep.name, d): _transfer_span(rep, d) for rep in reps for d in range(1, 9)}
    walk = invariants._degree_monomials
    for backwards in (False, True):
        if backwards:
            monkeypatch.setattr(invariants, "_degree_monomials",
                                lambda nvars, d: reversed(list(walk(nvars, d))))
        for rep in reps:
            for label, gens in _generator_lists(rep).items():
                variant = _regenerated(rep, gens)
                assert variant.elements == rep.elements
                for d in range(1, 9):
                    basis, oracle = invariant_basis(variant, d), oracles[rep.name, d]
                    where = (rep.name, label, backwards, d)
                    assert basis.pivots() == oracle.pivots(), where
                    assert [str(r) for r in basis.rows] == [str(r) for r in oracle.rows], where


def test_orbit_walk_reads_the_generators_only():
    for rep in (_twisted_swap(), _natural_s3(), induced_module(SemidirectGroup(5, 4, 2))):
        oracles = [_transfer_span(rep, d) for d in range(7)]
        rep.elements = ()  # the closure is not walked
        for d, oracle in enumerate(oracles):
            assert invariant_basis(rep, d).rows == oracle.rows, (rep.name, d)


def test_permutation_reps_have_orbits_of_several_monomials():
    assert any(len(row.terms) == 4 for row in invariant_basis(_cycle_z4(), 2).rows)
    assert any(len(row.terms) == 6 for row in invariant_basis(_natural_s3(), 3).rows)


def test_beta_of_reg_z4_does_not_depend_on_the_basis():
    for k in (1, 2):
        assert beta_k(_cycle_z4(), k)["beta"] == 4 * k
        assert beta_k(regular_representation(AbelianGroup((4,))), k)["beta"] == 4 * k


def test_invariant_basis_never_calls_transfer(monkeypatch):
    def refuse(rep, f):
        raise AssertionError("invariant_basis called transfer")

    monkeypatch.setattr(invariants, "transfer", refuse)
    for rep in (regular_representation(Z6), induced_module(SD322), _natural_s3()):
        for d in range(4):
            invariant_basis(rep, d)


def test_invariant_basis_rejects_overlapping_orbits(monkeypatch):
    x = MultiPoly.variable(0, 2)
    monkeypatch.setattr(invariants, "_orbit_rows",
                        lambda rep, d: [((1, 0), x), ((1, 0), x)])
    with pytest.raises(VerificationError):
        invariant_basis(induced_module(SD322), 1)


def test_invariant_basis_rejects_negative_degree():
    with pytest.raises(DomainError):
        invariant_basis(regular_representation(Z2), -1)


# --- beta ------------------------------------------------------------------

def test_beta_one_values():
    assert beta_k(regular_representation(Z2), 1)["beta"] == 2
    assert beta_k(regular_representation(Z3), 1)["beta"] == 3
    assert beta_k(regular_representation(Z2xZ2), 1)["beta"] == 3
    assert beta_k(regular_representation(Z6), 1)["beta"] == 6


def test_beta_k_scales_for_z2():
    rep = regular_representation(Z2)
    assert beta_k(rep, 2)["beta"] == 4
    assert beta_k(rep, 3)["beta"] == 6


def test_beta_report_shape():
    report = beta_k(regular_representation(Z2), 1)
    assert report["rep"] == "reg(Z2)"
    assert report["beta_1"] == 2
    assert report["scan_limit"] == 2
    assert report["failing_degrees"] == [1, 2]
    assert report["witness"]


def test_beta_rejects_bad_k():
    with pytest.raises(DomainError):
        beta_k(regular_representation(Z2), 0)


def test_beta_capacity_guards(monkeypatch):
    monkeypatch.setattr(invariants, "DEGREE_CAP", 4)
    with pytest.raises(CapacityError):
        beta_k(regular_representation(Z6), 1)
    monkeypatch.setattr(invariants, "DEGREE_CAP", 5)
    with pytest.raises(CapacityError) as info:
        beta_k(regular_representation(Z2), 3)
    assert info.value.partial["beta_1"] == 2


def test_beta_matches_davenport():
    for A, k in [(Z2, 1), (Z2, 2), (Z3, 1), (Z3, 2), (Z2xZ2, 1)]:
        report = verify_beta_equals_davenport(A, k)
        assert report["passed"], report


def test_crosscheck_rejects_non_abelian():
    with pytest.raises(DomainError):
        verify_beta_equals_davenport(SD322, 1)


# --- the prescribed-support invariants -----------------------------------------

def test_fk_for_smallest_case():
    assert [str(f) for f in construct_fk(SD322)] == ["x1^3 + x2^3", "2*x1*x2"]


def test_fk_degrees_stay_below_p():
    for spec in [(3, 2, 2), (5, 2, 4), (5, 4, 2), (7, 3, 2)]:
        G = SemidirectGroup(*spec)
        fks = construct_fk(G)
        assert len(fks) == G.d
        assert all(f.degree() <= G.p for f in fks)


def test_sigma_zpzd_report():
    report = verify_sigma_zpzd(SD322)
    assert report["passed"]
    assert report["sigma"] == 3
    assert report["fk_degrees"] == [3, 2]
    assert report["max_degree"] == 3
    cs = {tuple(r["S"]): r["c"] for r in report["restrictions"]}
    assert cs == {(1,): 1, (2,): 1, (1, 2): 2}
    assert all(r["c_divides_d"] for r in report["restrictions"])


def test_sigma_zpzd_fails_when_the_bounds_disagree(monkeypatch):
    monkeypatch.setattr(davenport, "sigma_diagonal", lambda A, chars: A.factors[0] - 1)
    report = verify_sigma_zpzd(SD322)
    assert report["sigma_upper_module"] == 3
    assert report["sigma_lower_subgroup"] == 2
    assert report["sigma"] is None
    assert not report["passed"]


def test_sigma_zpzd_more_groups():
    for spec in [(5, 2, 4), (5, 4, 2)]:
        report = verify_sigma_zpzd(SemidirectGroup(*spec))
        assert report["passed"]
        assert report["sigma"] == spec[0]
        assert len(report["restrictions"]) == 2 ** spec[1] - 1


# --- the two-variable family -----------------------------------------------------

def test_az2_module_shape():
    rep = az2_module(6, 3)
    assert rep.group_order == 6
    assert rep.conductor == 6
    x, y = (MultiPoly.variable(i, 2) for i in range(2))
    assert rep.is_invariant(x * y)
    assert rep.is_invariant(x**3 + y**3)


def test_az2_module_validation():
    with pytest.raises(DomainError):
        az2_module(5, 1)
    with pytest.raises(DomainError):
        az2_module(6, 4)


def test_sigma_az2_reports():
    report = verify_sigma_az2(6, 2)
    assert report["passed"]
    assert report["bound"] == 2
    assert report["sigma"] is None  # e < n leaves sigma undetermined here
    assert report["invariants"] == ["x1^2 + x2^2", "x1*x2"]
    assert report["closure_order"] == 4

    full = verify_sigma_az2(4, 4)
    assert full["sigma"] == 4
    assert full["bound"] == 4


def test_sigma_az2_zero_locus_covers_all_supports():
    report = verify_sigma_az2(8, 2)
    assert [tuple(z["S"]) for z in report["zero_locus"]] == [(1,), (2,), (1, 2)]


# --- repspec parsing ---------------------------------------------------------------

def test_parse_repspec():
    assert parse_repspec("reg(Z3)").name == "reg(Z3)"
    assert parse_repspec("ind(SD(3,2,2))").nvars == 2
    assert parse_repspec("reg(Z64)").group_order == 64
    with pytest.raises(CapacityError):  # the beta_1 scan would pass DEGREE_CAP
        parse_repspec("reg(Z65)")


def test_parse_repspec_wrong_group_kind():
    with pytest.raises(DomainError):
        parse_repspec("reg(SD(3,2,2))")
    with pytest.raises(DomainError):
        parse_repspec("ind(Z4)")


def test_parse_repspec_unknown_form():
    with pytest.raises(ParseError):
        parse_repspec("foo(Z2)")
    with pytest.raises(ParseError):
        parse_repspec("reg(Z2")
