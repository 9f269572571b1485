from __future__ import annotations

import pytest

from zerosumlab import (
    CapacityError,
    DomainError,
    ParseError,
    PresentedGradedAlgebra,
    ValidationError,
    parse_generator_spec,
)
from zerosumlab import presented
from zerosumlab.polynomials import escaping_degrees


def example_ring() -> PresentedGradedAlgebra:
    return PresentedGradedAlgebra([("a", 1), ("b", 3)], ["b^3-a^9", "a*b^2-a^7"])


# --- generator specs -----------------------------------------------------------

def test_parse_generator_spec():
    assert parse_generator_spec("a:1, b:3") == [("a", 1), ("b", 3)]
    assert parse_generator_spec("x:2") == [("x", 2)]


def test_parse_generator_spec_errors():
    with pytest.raises(ParseError):
        parse_generator_spec("a")
    with pytest.raises(ParseError):
        parse_generator_spec("1:a")
    with pytest.raises(ParseError):
        parse_generator_spec("a:one")


# --- construction and validation -------------------------------------------------

def test_generator_validation():
    with pytest.raises(ValidationError):
        PresentedGradedAlgebra([], [])
    with pytest.raises(ValidationError):
        PresentedGradedAlgebra([("a", 1), ("a", 2)], [])
    with pytest.raises(ValidationError):
        PresentedGradedAlgebra([("a", 0)], [])
    for degree in (True, 1.0):  # weights are ints, not bools or floats
        with pytest.raises(ValidationError):
            PresentedGradedAlgebra([("a", degree)], [])


def test_relation_must_be_homogeneous():
    with pytest.raises(ValidationError) as info:
        PresentedGradedAlgebra([("a", 1), ("b", 3)], ["b-a"])
    assert "mixes degrees" in str(info.value)
    # weighted degrees make b^2 - a^6 homogeneous even though the raw
    # total degrees differ
    PresentedGradedAlgebra([("a", 1), ("b", 3)], ["b^2-a^6"])


def test_relation_rejects_zero_and_constants():
    with pytest.raises(ValidationError):
        PresentedGradedAlgebra([("a", 1)], ["a-a"])
    with pytest.raises(ValidationError):
        PresentedGradedAlgebra([("a", 1)], ["3"])


# --- expression parsing ------------------------------------------------------------

def test_element_round_trip():
    R = example_ring()
    assert R.render(R.element("b^2*a + 2")) == "a*b^2 + 2"
    assert R.render(R.element("(a+b)*a - a^2")) == "a*b"
    assert R.render(R.element("-a + 3*a")) == "2*a"


@pytest.mark.parametrize("text", ["a^\u0663", "\u0663*a", "a^\u00b2"])
def test_non_ascii_digits_are_parse_errors(text):
    with pytest.raises(ParseError):
        example_ring().element(text)


@pytest.mark.parametrize("spec", ["a:\u0663,b:+1_0", "a:+1", "a:1_0", "a:\u00b2", "a:"])
def test_generator_degrees_are_ascii_integers(spec):
    # int() reads the first three, as weights 3 and 10, 1, and 10
    with pytest.raises(ParseError):
        parse_generator_spec(spec)


def test_parse_error_positions():
    R = example_ring()
    with pytest.raises(ParseError) as info:
        R.element("a^")
    assert info.value.position == 2
    with pytest.raises(ParseError) as info:
        R.element("c+1")
    assert info.value.position == 0
    with pytest.raises(ParseError) as info:
        R.element("(a")
    assert info.value.position == 2


# --- the quotient structure ----------------------------------------------------------

def test_dimensions():
    R = example_ring()
    assert R.dimension(0) == 1
    assert R.dimension(3) == 2  # a^3 and b
    assert R.dimension(9) == 2  # b^3 = a^9 and a*b^2 = a^7 cut two monomials


def test_monomials_respect_weights():
    R = example_ring()
    assert R.monomials(3) == [(0, 1), (3, 0)]
    assert R.monomials(0) == [(0, 0)]
    assert R.monomials(-1) == []


def test_normal_form_collapses_relations():
    R = example_ring()
    nf = R.normal_form(R.element("b^3"))
    assert R.render(nf) == R.render(R.normal_form(R.element("a^9")))
    with pytest.raises(DomainError):
        R.normal_form(R.element("a + b"))


def test_ideal_slice_zero_below_relation_degree():
    R = example_ring()
    # the relations live in weighted degrees 7 (a*b^2 - a^7) and 9 (b^3 - a^9)
    assert R.ideal_slice(6).dim == 0
    assert R.ideal_slice(7).dim == 1
    assert R.ideal_slice(9).dim == 2


# --- ideal powers -----------------------------------------------------------------

def test_power_membership():
    R = example_ring()
    assert R.in_power("b^2", 2)
    assert not R.in_power("b^2", 3)
    assert R.in_power("a*b", 2)
    assert R.in_power("a^9", 3)  # = b^3


def test_power_span_rejects_bad_exponent():
    with pytest.raises(DomainError):
        example_ring().power_span(0, 3)


def test_beta_table():
    R = example_ring()
    values = {k: R.beta_k(k, cutoff=30)["beta"] for k in (1, 2, 3, 4)}
    assert values == {1: 3, 2: 6, 3: 6, 4: 6}


def test_beta_report_shape():
    report = example_ring().beta_k(2, cutoff=30)
    assert report["status"] == "exact"
    assert report["cutoff"] == 30
    assert report["scan_limit"] == 6  # k·w_max = 2·3
    assert report["beta"] == 6
    assert report["witness"]
    assert max(report["failing_degrees"]) == 6


def test_a_cutoff_below_the_bound_is_only_a_window():
    report = example_ring().beta_k(2, cutoff=4)
    assert report["scan_limit"] == 4
    assert report["beta"] == 4
    assert report["failing_degrees"] == [1, 2, 3, 4]
    assert report["status"] == "verified-up-to-cutoff"


_BOUND_RINGS = {
    "example": ([("a", 1), ("b", 3)], ["b^3-a^9", "a*b^2-a^7"]),
    "weighted": ([("a", 1), ("b", 2), ("c", 3)], ["a*c-b^2"]),
    "twisted-cubic": ([("a", 1), ("b", 1), ("c", 1), ("d", 1)],
                      ["a*c-b^2", "b*d-c^2", "a*d-b*c"]),
    "redundant": ([("a", 1), ("b", 3)], ["b-a^3"]),
    "all-generators-die": ([("a", 1), ("b", 2)], ["a", "b"]),
}


@pytest.mark.parametrize("gens, rels", _BOUND_RINGS.values(), ids=_BOUND_RINGS.keys())
def test_no_degree_escapes_past_k_times_the_largest_weight(gens, rels):
    R = PresentedGradedAlgebra(gens, rels)
    w_max = max(w for _, w in gens)
    for k in (1, 2, 3, 4):
        past = range(k * w_max + 1, k * w_max + 2 * w_max + 1)
        assert escaping_degrees(R, k + 1, past) == ([], None), k
        report = R.beta_k(k, cutoff=k * w_max + 2 * w_max)
        assert report["scan_limit"] == k * w_max
        assert report["status"] == "exact"


def test_a_ring_whose_generators_all_die_has_beta_zero():
    report = PresentedGradedAlgebra([("a", 1), ("b", 2)], ["a", "b"]).beta_k(3)
    assert (report["beta"], report["failing_degrees"], report["witness"]) == (0, [], None)
    assert report["status"] == "exact"


def test_beta_validation(monkeypatch):
    R = example_ring()
    with pytest.raises(DomainError):
        R.beta_k(0)
    with pytest.raises(DomainError):
        R.beta_k(1, cutoff=0)
    # the scan stops at k·w_max = 6, so only that is held to the cap
    assert R.beta_k(2, cutoff=100)["scan_limit"] == 6
    monkeypatch.setattr(presented, "DEGREE_CAP", 4)
    with pytest.raises(CapacityError):
        example_ring().beta_k(2)


def test_degree_cap_guard(monkeypatch):
    monkeypatch.setattr(presented, "DEGREE_CAP", 10)
    R = example_ring()
    with pytest.raises(CapacityError):
        R.dimension(11)


def test_tail_window_has_no_new_generators():
    R = example_ring()
    report = R.tail_generated(10, 20)
    assert report["generated"]
    assert report["failures"] == []


def test_tail_window_detects_missing_generator():
    # degree-3 slice contains b, which a alone cannot produce
    R = example_ring()
    report = R.tail_generated(3, 3)
    assert not report["generated"]
    assert report["failures"] == [3]


def test_tail_window_past_the_largest_weight_needs_no_scan(monkeypatch):
    # no minimal generator lives above w_max = 3, so no slice of this
    # window is built, not even those over the degree cap
    monkeypatch.setattr(presented, "DEGREE_CAP", 10)
    R = example_ring()
    assert R.tail_generated(4, 1000) == {
        "window": [4, 1000], "generated": True, "failures": []}


def test_tail_window_validation():
    with pytest.raises(DomainError):
        example_ring().tail_generated(0, 5)
    with pytest.raises(DomainError):
        example_ring().tail_generated(5, 4)


# --- a second presentation ---------------------------------------------------------

def test_polynomial_ring_without_relations():
    R = PresentedGradedAlgebra([("x", 1), ("y", 1)], [])
    assert R.dimension(2) == 3
    assert R.beta_k(1, cutoff=8)["beta"] == 1  # generated in degree 1
    assert R.in_power("x*y", 2)
    assert not R.in_power("x", 2)
