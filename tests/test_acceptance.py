"""The thirteen acceptance checks, one test and one printed verdict each.

Every check recomputes its claim through the public API and re-verifies
witnesses against the naive oracle where one exists.  Wall-clock limits
are asserted where the check is search-heavy.
"""

from __future__ import annotations

import itertools
import random
import time

from zerosumlab import (
    AbelianGroup,
    PresentedGradedAlgebra,
    Sequence,
    SemidirectGroup,
    apply_to_sequence,
    automorphism_group,
    canonical_form,
    davenport_k,
    davenport_table,
    k_max,
    k_max_naive,
    linearity_profile,
    parse_groupspec,
    sequence_sum,
    sigma_diagonal,
    smallest_prime_divisor,
    verify_beta_equals_davenport,
    verify_direct_product_bound,
    verify_inequalities,
    verify_sigma_az2,
    verify_sigma_zpzd,
    verify_subgroup_relations,
    zero_sum_with_support,
)
from zerosumlab.suite import _k_max_by_definition

_ORACLE_POOL = ("Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7", "Z8", "Z9",
                "Z2xZ4", "Z3xZ3")


def _verdict(number: int, label: str) -> None:
    print(f"acceptance {number:02d} ({label}): PASS")


def test_01_davenport_baselines():
    t0 = time.monotonic()
    expected = {f"Z{n}": n for n in range(2, 8)}
    expected.update({"Z2xZ2": 3, "Z3xZ3": 5, "Z2xZ4": 5})
    for spec, value in expected.items():
        report = davenport_k(parse_groupspec(spec))
        assert report.value_Dk == value, spec
        witness = report.extremal_witness
        assert witness.length == value - 1
        assert k_max_naive(witness) == 0
    assert time.monotonic() - t0 < 30
    _verdict(1, "davenport baselines")


def test_02_generalized_constants():
    t0 = time.monotonic()
    formulas = {
        "Z2": lambda k: 2 * k,
        "Z3": lambda k: 3 * k,
        "Z2xZ2": lambda k: 2 * k + 1,
    }
    for spec, formula in formulas.items():
        table = davenport_table(parse_groupspec(spec), 4)
        assert [r.value_Dk for r in table] == [formula(k) for k in (1, 2, 3, 4)], spec
    assert time.monotonic() - t0 < 120
    _verdict(2, "generalized constants")


def test_03_eventual_linearity():
    for spec in ("Z2", "Z3", "Z4", "Z2xZ2", "Z6"):
        A = parse_groupspec(spec)
        profile = linearity_profile(A, 4)
        assert profile.status == "stabilized", spec
        assert profile.slope == A.exponent
        values = dict(profile.table)
        for k in range(profile.k0, 4):
            assert values[k + 1] - values[k] <= A.exponent
    _verdict(3, "eventual linearity")


def test_04_inequality_suite():
    for spec in ("Z2", "Z3", "Z4", "Z2xZ2", "Z6"):
        A = parse_groupspec(spec)
        report = verify_inequalities(A, linearity_profile(A, 4))
        bad = [i for i in report["instances"] if not i["passed"]]
        assert not bad, (spec, bad)
    _verdict(4, "inequality suite")


def test_05_direct_product_bound():
    pairs = (("Z2", "Z2"), ("Z2", "Z3"), ("Z3", "Z3"))
    for g_spec, h_spec in pairs:
        for r, s in itertools.product((1, 2), repeat=2):
            report = verify_direct_product_bound(
                parse_groupspec(g_spec), parse_groupspec(h_spec), r, s
            )
            assert report["passed"], (g_spec, h_spec, r, s)
            assert report["witness_kmax"] <= r + s - 2
    tight = verify_direct_product_bound(AbelianGroup((2,)), AbelianGroup((2,)), 1, 2)
    assert tight["tight"]
    assert tight["lhs_D_r_plus_s_minus_1"] == tight["rhs_Dr_plus_Ds_minus_1"] == 5
    _verdict(5, "direct-product bound")


def test_06_prescribed_support():
    t0 = time.monotonic()
    for p in (3, 5, 7, 11):
        group = AbelianGroup((p,))
        for size in range(1, p):
            for S in itertools.combinations(range(1, p), size):
                T = zero_sum_with_support(p, S)
                assert sequence_sum(T) == group.zero
                assert {g[0] for g, _ in T.items} == set(S)
                assert len(T) <= p
                deficit = sum(S) % p
                if deficit:
                    raises = {s: (-deficit) * pow(s, -1, p) % p for s in S}
                    assert len(set(raises.values())) == len(S)
    assert time.monotonic() - t0 < 60
    _verdict(6, "prescribed-support zero sums")


def test_07_beta_equals_davenport():
    t0 = time.monotonic()
    cases = (("Z2", 1), ("Z2", 2), ("Z3", 1), ("Z3", 2), ("Z2xZ2", 1))
    for spec, k in cases:
        report = verify_beta_equals_davenport(parse_groupspec(spec), k)
        assert report["passed"], (spec, k)
        assert report["beta"] == report["davenport"]
    assert time.monotonic() - t0 < 180
    _verdict(7, "beta equals davenport")


def test_08_example_ring():
    t0 = time.monotonic()
    R = PresentedGradedAlgebra([("a", 1), ("b", 3)], ["b^3-a^9", "a*b^2-a^7"])
    assert R.beta_k(1, cutoff=30)["beta"] == 3
    for k in (2, 3, 4):
        assert R.beta_k(k, cutoff=30)["beta"] == 6, k
    assert R.in_power("b^2", 2) and not R.in_power("b^2", 3)
    for l in range(7, 31):
        power = R.power_span(5, l)
        assert all(power.contains(row) for row in R.degree_span(l).rows), l
    assert time.monotonic() - t0 < 60
    _verdict(8, "example ring")


def test_09_sigma_zpzd():
    t0 = time.monotonic()
    for spec in ((3, 2, 2), (5, 2, 4), (5, 4, 2), (7, 3, 2)):
        G = SemidirectGroup(*spec)
        report = verify_sigma_zpzd(G)
        assert report["passed"], spec
        assert report["sigma"] == G.p
        assert report["max_degree"] <= G.p
        assert len(report["restrictions"]) == 2**G.d - 1
    assert time.monotonic() - t0 < 120
    _verdict(9, "sigma of Z_p semidirect Z_d")


def test_10_sigma_az2():
    for n in range(3, 9):
        for e in range(2, n + 1):
            if n % e:
                continue
            report = verify_sigma_az2(n, e)
            assert report["passed"], (n, e)
            assert report["bound"] == max(e, 2)
    _verdict(10, "two-variable semidirect family")


def test_11_sigma_over_q():
    for spec in ("Z2xZ2", "Z3xZ3", "Z2xZ4"):
        A = parse_groupspec(spec)
        sigma = sigma_diagonal(A, [x for x in A.elements() if x != A.zero])
        q = smallest_prime_divisor(A.order)
        assert sigma * q <= A.order, spec
    for spec in ("SD(3,2,2)", "SD(5,2,4)", "SD(5,4,2)", "SD(7,3,2)"):
        G = parse_groupspec(spec)
        sigma = verify_sigma_zpzd(G)["sigma"]
        q = smallest_prime_divisor(G.order)
        assert sigma * q <= G.order, spec
    _verdict(11, "sigma at most order over q")


def test_12_subquotient_monotonicity():
    pairs = (("Z4", "Z2"), ("Z2xZ2", "Z2"), ("Z6", "Z3"))
    for a_spec, b_spec in pairs:
        report = verify_subgroup_relations(
            parse_groupspec(a_spec), parse_groupspec(b_spec), ks=(1, 2)
        )
        assert report["passed"], (a_spec, b_spec)
    _verdict(12, "subquotient monotonicity")


def test_13_engine_vs_oracle():
    pool = [parse_groupspec(s) for s in _ORACLE_POOL]
    rng = random.Random(0x5EED)
    for _ in range(500):
        A = rng.choice(pool)
        elems = A.elements()
        seq = Sequence.from_elements(
            A, [rng.choice(elems) for _ in range(rng.randint(0, 8))]
        )
        assert k_max(seq) == _k_max_by_definition(seq), seq.literal()
    for _ in range(100):
        A = rng.choice(pool)
        elems = A.elements()
        seq = Sequence.from_elements(
            A, [rng.choice(elems) for _ in range(rng.randint(0, 6))]
        )
        auts = automorphism_group(A)
        base_kmax = k_max(seq)
        base_canon = canonical_form(seq, auts)
        for phi in auts:
            image = apply_to_sequence(phi, seq)
            assert k_max(image) == base_kmax, seq.literal()
            assert canonical_form(image, auts) == base_canon, seq.literal()
    _verdict(13, "engine versus oracle")
