"""One-shot verification suite over every desk-scale claim in scope.

Each check pits an engine computation against a frozen golden table or an
independent oracle and reports pass/fail with witnesses.  A time budget
marks checks that never ran as "skipped" — a skip is never a pass.  The
goldens can be overridden (fault injection for negative controls), and a
group filter restricts every check to the instances it allows; a check
with no surviving instances is skipped.

Reports are deterministic: identical inputs give identical JSON apart
from the per-check ``seconds`` fields.
"""

from __future__ import annotations

import copy
import itertools
import random
import time

from .errors import SCHEMA_VERSION, DomainError, ZeroSumLabError
from .groups import (
    AbelianGroup,
    SemidirectGroup,
    automorphism_group,
    parse_groupspec,
    smallest_prime_divisor,
)
from .sequences import (Sequence, _items_subtract, _to_indices, _zero_sum_subitems,
                        apply_to_sequence, canonical_form, k_max, k_max_naive)
from .davenport import (
    _check_budget,
    davenport_k,
    davenport_table,
    linearity_profile,
    sigma_diagonal,
    verify_inequalities,
    verify_subgroup_relations,
)
from .lemmas import verify_direct_product_bound, zero_sum_with_support
from .invariants import (
    verify_beta_equals_davenport,
    verify_sigma_az2,
    verify_sigma_zpzd,
)
from .polynomials import GradedSpan, escaping_degrees
from .presented import PresentedGradedAlgebra

GOLDEN = {
    "davenport-baselines": {
        "Z2": 2, "Z3": 3, "Z4": 4, "Z5": 5, "Z6": 6, "Z7": 7,
        "Z2xZ2": 3, "Z3xZ3": 5, "Z2xZ4": 5,
    },
    "generalized-dk": {
        "Z2": [2, 4, 6, 8],
        "Z3": [3, 6, 9, 12],
        "Z2xZ2": [3, 5, 7, 9],
    },
    "eventual-linearity": {"Z2": 2, "Z3": 3, "Z4": 4, "Z2xZ2": 2, "Z6": 6},
    "product-bound": {"Z2|Z2|1|2": 5},
    "beta-crosscheck": {"Z2,1": 2, "Z2,2": 4, "Z3,1": 3, "Z3,2": 6, "Z2xZ2,1": 3},
    "example-ring": {"1": 3, "2": 6, "3": 6, "4": 6},
    "sigma-zpzd": {"SD(3,2,2)": 3, "SD(5,2,4)": 5, "SD(5,4,2)": 5, "SD(7,3,2)": 7},
}

_BASELINE_GROUPS = ("Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z2xZ2", "Z3xZ3", "Z2xZ4")
_TABLE_GROUPS = ("Z2", "Z3", "Z2xZ2")
_LINEARITY_GROUPS = ("Z2", "Z3", "Z4", "Z2xZ2", "Z6")
_PRODUCT_PAIRS = (("Z2", "Z2"), ("Z2", "Z3"), ("Z3", "Z3"))
_SUPPORT_PRIMES = (3, 5, 7, 11)
_CROSSCHECK_CASES = (("Z2", 1), ("Z2", 2), ("Z3", 1), ("Z3", 2), ("Z2xZ2", 1))
_ZPZD_SPECS = ("SD(3,2,2)", "SD(5,2,4)", "SD(5,4,2)", "SD(7,3,2)")
_AZ2_RANGE = (3, 4, 5, 6, 7, 8)
_SUBQUOTIENT_PAIRS = (("Z4", "Z2"), ("Z2xZ2", "Z2"), ("Z6", "Z3"))
_ORACLE_POOL = ("Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7", "Z8", "Z9",
                "Z2xZ4", "Z3xZ3")


class _Run:
    def __init__(self, groups=None, golden_overrides=None):
        if groups is None:
            self.allowed = None
        else:
            self.allowed = {
                g.spec() if hasattr(g, "spec") else parse_groupspec(g).spec()
                for g in groups
            }
        self.goldens = copy.deepcopy(GOLDEN)
        for name, table in (golden_overrides or {}).items():
            if name not in self.goldens:
                raise DomainError(f"unknown check {name!r} in golden overrides")
            self.goldens[name].update(table)

    def allows(self, spec: str) -> bool:
        return self.allowed is None or spec in self.allowed

    def golden(self, name: str) -> dict:
        return self.goldens[name]


def _verdict(instances):
    """A check's result: None (skipped) when the group filter left no
    instance, else the instances and whether every one is ok."""
    if not instances:
        return None
    return {"instances": instances, "passed": all(i["ok"] for i in instances)}


def _check_davenport_baselines(run):
    """D(A) for the small-order groups, witnesses re-verified naively."""
    golden = run.golden("davenport-baselines")
    instances = []
    for spec in _BASELINE_GROUPS:
        if not run.allows(spec):
            continue
        report = davenport_k(parse_groupspec(spec), 1)
        witness = report.extremal_witness
        witness_kmax = k_max_naive(witness)
        instances.append({
            "group": spec,
            "computed": report.value_Dk,
            "expected": golden[spec],
            "witness": witness.literal(),
            "witness_kmax": witness_kmax,
            "ok": (report.value_Dk == golden[spec]
                   and witness_kmax == 0
                   and witness.length == report.value_Dk - 1),
        })
    return _verdict(instances)


def _check_generalized_dk(run):
    """D_k tables for k ≤ 4 against the frozen values."""
    golden = run.golden("generalized-dk")
    instances = []
    for spec in _TABLE_GROUPS:
        if not run.allows(spec):
            continue
        table = [r.value_Dk for r in davenport_table(parse_groupspec(spec), 4)]
        instances.append({
            "group": spec,
            "computed": table,
            "expected": golden[spec],
            "ok": table == golden[spec],
        })
    return _verdict(instances)


def _check_eventual_linearity(run):
    """Slope exp(A) detected within k ≤ 4 and step increments ≤ exp(A)."""
    golden = run.golden("eventual-linearity")
    instances = []
    for spec in _LINEARITY_GROUPS:
        if not run.allows(spec):
            continue
        A = parse_groupspec(spec)
        profile = linearity_profile(A, 4)
        table = dict(profile.table)
        steps_ok = all(
            table[k + 1] - table[k] <= A.exponent
            for k in range(profile.k0 or 1, 4)
        )
        instances.append({
            "group": spec,
            "slope": profile.slope,
            "expected_slope": golden[spec],
            "k0": profile.k0,
            "status": profile.status,
            "ok": (profile.status == "stabilized"
                   and profile.slope == golden[spec]
                   and steps_ok),
        })
    return _verdict(instances)


def _check_inequality_suite(run):
    """Monotonicity, trivial, k-over-r, and lower bounds on every table."""
    instances = []
    for spec in _LINEARITY_GROUPS:
        if not run.allows(spec):
            continue
        A = parse_groupspec(spec)
        result = verify_inequalities(A, linearity_profile(A, 4))
        violations = [i for i in result["instances"] if not i["passed"]]
        instances.append({
            "group": spec,
            "checked": len(result["instances"]),
            "violations": violations,
            "ok": result["passed"],
        })
    return _verdict(instances)


def _check_product_bound(run):
    """D_{r+s-1}(G×H) ≥ D_r(G) + D_s(H) − 1 with constructed witnesses."""
    golden = run.golden("product-bound")
    instances = []
    for g_spec, h_spec in _PRODUCT_PAIRS:
        if not (run.allows(g_spec) and run.allows(h_spec)):
            continue
        G, H = parse_groupspec(g_spec), parse_groupspec(h_spec)
        for r, s in ((1, 1), (1, 2), (2, 1), (2, 2)):
            result = verify_direct_product_bound(G, H, r, s)
            ok = result["passed"]
            key = f"{g_spec}|{h_spec}|{r}|{s}"
            pinned = golden.get(key)
            if pinned is not None:
                ok = ok and result["tight"] and result["lhs_D_r_plus_s_minus_1"] == pinned
            instances.append({
                "pair": [g_spec, h_spec],
                "r": r,
                "s": s,
                "lhs": result["lhs_D_r_plus_s_minus_1"],
                "rhs": result["rhs_Dr_plus_Ds_minus_1"],
                "tight": result["tight"],
                "witness_kmax": result["witness_kmax"],
                "ok": ok,
            })
    return _verdict(instances)


def _check_support_lemma(run):
    """Exhaustive over all non-empty S ⊆ Z_p∖{0}: zero-sum, exact support,
    length ≤ p, and pairwise distinct multiplicity raises."""
    instances = []
    for p in _SUPPORT_PRIMES:
        if not run.allows(f"Z{p}"):
            continue
        failures = []
        count = 0
        for size in range(1, p):
            for S in itertools.combinations(range(1, p), size):
                count += 1
                T = zero_sum_with_support(p, list(S))
                support = {g[0] for g, _ in T.items}
                total = sum(g[0] * m for g, m in T.items) % p
                deficit = (-sum(S)) % p
                raises = {s: deficit * pow(s, -1, p) % p for s in S}
                # the raises n_s = deficit·s⁻¹ are pairwise distinct whenever
                # a raise happens at all (deficit ≠ 0: s ↦ s⁻¹ is injective)
                distinct = deficit == 0 or len(set(raises.values())) == len(S)
                if not (total == 0 and support == set(S) and T.length <= p and distinct):
                    failures.append(list(S))
        instances.append({
            "p": p,
            "subsets": count,
            "failures": failures,
            "ok": not failures,
        })
    return _verdict(instances)


def _check_beta_crosscheck(run):
    """β_k from the invariant engine equals D_k from the search engine."""
    golden = run.golden("beta-crosscheck")
    instances = []
    for spec, k in _CROSSCHECK_CASES:
        if not run.allows(spec):
            continue
        result = verify_beta_equals_davenport(parse_groupspec(spec), k)
        expected = golden[f"{spec},{k}"]
        instances.append({
            "group": spec,
            "k": k,
            "beta": result["beta"],
            "davenport": result["davenport"],
            "expected": expected,
            "ok": result["passed"] and result["beta"] == expected,
        })
    return _verdict(instances)


def _check_example_ring(run):
    """β table of Q[a,b]/(b³−a⁹, ab²−a⁷), plus the b² and tail-window facts."""
    golden = run.golden("example-ring")
    R = PresentedGradedAlgebra([("a", 1), ("b", 3)], ["b^3-a^9", "a*b^2-a^7"])
    betas = {}
    ok = True
    for k in (1, 2, 3, 4):
        result = R.beta_k(k, cutoff=30)
        betas[str(k)] = result["beta"]
        ok = ok and result["beta"] == golden[str(k)] and result["status"] == "exact"
    dims = {"0": R.dimension(0), "3": R.dimension(3), "9": R.dimension(9)}
    ok = ok and dims == {"0": 1, "3": 2, "9": 2}
    b2_in_2 = R.in_power("b^2", 2)
    b2_in_3 = R.in_power("b^2", 3)
    ok = ok and b2_in_2 and not b2_in_3
    # A_d ⊆ A_+^5 for every d > 4·w_max = 12 whatever the relations say,
    # so 7..12 are the only degrees where this check can fail.
    window_failures, _ = escaping_degrees(R, 5, range(7, 13))
    ok = ok and not window_failures
    # b² spans the degree-6 part of R_+² over R_+⁴
    spanning = GradedSpan(R.nvars)
    spanning.extend(R.power_span(4, 6).rows)
    spanning.insert(R.normal_form(R.element("b^2")))
    b2_spans = all(spanning.contains(row) for row in R.power_span(2, 6).rows)
    ok = ok and b2_spans
    return {
        "betas": betas,
        "expected": dict(golden),
        "dimensions": dims,
        "b2_in_square": b2_in_2,
        "b2_in_cube": b2_in_3,
        "b2_spans_degree6": b2_spans,
        "tail_window_failures": window_failures,
        "passed": ok,
    }


def _check_sigma_zpzd(run):
    """σ(Z_p⋊Z_d) = p through the induced module's invariants."""
    golden = run.golden("sigma-zpzd")
    instances = []
    for spec in _ZPZD_SPECS:
        if not run.allows(spec):
            continue
        result = verify_sigma_zpzd(parse_groupspec(spec))
        instances.append({
            "group": spec,
            "sigma": result["sigma"],
            "expected": golden[spec],
            "max_degree": result["max_degree"],
            "restrictions": len(result["restrictions"]),
            "ok": (result["passed"]
                   and result["sigma"] == golden[spec]
                   and result["max_degree"] <= result["p"]),
        })
    return _verdict(instances)


def _check_sigma_az2(run):
    """x^e + y^e and xy cut out the origin for every e | n, e ≥ 2."""
    instances = []
    for n in _AZ2_RANGE:
        if not run.allows(f"Z{n}"):
            continue
        for e in range(2, n + 1):
            if n % e != 0:
                continue
            result = verify_sigma_az2(n, e)
            instances.append({
                "n": n,
                "e": e,
                "bound": result["bound"],
                "ok": (result["passed"]
                       and result["bound"] == max(e, 2)
                       and result["closure_order"] == 2 * e),
            })
    return _verdict(instances)


def _sigma_over_q(spec, sigma, order):
    q = smallest_prime_divisor(order)
    return {
        "group": spec,
        "sigma": sigma,
        "bound": order // q,
        "ok": sigma is not None and sigma * q <= order,
    }


def _check_sigma_over_q(run):
    """σ ≤ |G|/q (q the least prime divisor) on every non-cyclic group used.

    σ of an abelian group is computed over all its non-zero characters;
    σ(Z_p⋊Z_d) is the value ``verify_sigma_zpzd`` certifies.
    """
    instances = []
    for spec in ("Z2xZ2", "Z3xZ3", "Z2xZ4"):
        if not run.allows(spec):
            continue
        A = parse_groupspec(spec)
        sigma = sigma_diagonal(A, [x for x in A.elements() if x != A.zero])
        instances.append(_sigma_over_q(spec, sigma, A.order))
    for spec in _ZPZD_SPECS:
        if not run.allows(spec):
            continue
        G = parse_groupspec(spec)
        instances.append(_sigma_over_q(spec, verify_sigma_zpzd(G)["sigma"], G.order))
    return _verdict(instances)


def _check_subquotient(run):
    """σ-ratio monotonicity and D_k(A) ≤ D_{k·[A:B]}(B) for subgroup pairs."""
    instances = []
    for a_spec, b_spec in _SUBQUOTIENT_PAIRS:
        if not (run.allows(a_spec) and run.allows(b_spec)):
            continue
        result = verify_subgroup_relations(
            parse_groupspec(a_spec), parse_groupspec(b_spec), ks=(1, 2)
        )
        instances.append({
            "pair": [a_spec, b_spec],
            "checks": result["checks"],
            "ok": result["passed"],
        })
    return _verdict(instances)


def _k_max_by_definition(S):
    """k_max as the largest 1 + k_max(S − B) over the non-empty zero-sum
    sub-multisets B of S (0 if there is none), with a per-call table: the
    block recursion, which shares no table with ``k_max``."""
    A = S.group
    seen = {}

    def rec(items):
        if items not in seen:
            seen[items] = max([1 + rec(_items_subtract(items, block))
                               for block in _zero_sum_subitems(A, items)], default=0)
        return seen[items]

    return rec(_to_indices(A, S.items))


def _check_engine_vs_oracle(run):
    """k_max against the block recursion by definition, and orbit invariance."""
    pool = [parse_groupspec(s) for s in _ORACLE_POOL if run.allows(s)]
    if not pool:
        return None
    rng = random.Random(0x5EED)
    mismatches = []
    for _ in range(500):
        A = rng.choice(pool)
        elems = A.elements()
        seq = Sequence.from_elements(
            A, [rng.choice(elems) for _ in range(rng.randint(0, 8))]
        )
        fast, slow = k_max(seq), _k_max_by_definition(seq)
        if fast != slow:
            mismatches.append({"group": A.spec(), "sequence": seq.literal(),
                               "engine": fast, "oracle": slow})
    orbit_mismatches = []
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
            if k_max(image) != base_kmax or canonical_form(image, auts) != base_canon:
                orbit_mismatches.append({"group": A.spec(), "sequence": seq.literal()})
                break
    return {
        "random_sequences": 500,
        "mismatches": mismatches,
        "orbits": 100,
        "orbit_mismatches": orbit_mismatches,
        "passed": not mismatches and not orbit_mismatches,
    }


CHECKS = (
    ("davenport-baselines", _check_davenport_baselines),
    ("generalized-dk", _check_generalized_dk),
    ("eventual-linearity", _check_eventual_linearity),
    ("inequality-suite", _check_inequality_suite),
    ("product-bound", _check_product_bound),
    ("support-lemma", _check_support_lemma),
    ("beta-crosscheck", _check_beta_crosscheck),
    ("example-ring", _check_example_ring),
    ("sigma-zpzd", _check_sigma_zpzd),
    ("sigma-az2", _check_sigma_az2),
    ("sigma-over-q", _check_sigma_over_q),
    ("subquotient", _check_subquotient),
    ("engine-vs-oracle", _check_engine_vs_oracle),
)


def verify_all(budget_seconds=None, groups=None, golden_overrides=None) -> dict:
    """Run every check; report pass/fail/skipped per check plus totals.

    A finite positive time budget is enforced between checks: once it is
    exhausted, the remaining checks are reported "skipped".
    """
    _check_budget(budget_seconds)
    run = _Run(groups, golden_overrides)
    start = time.monotonic()
    checks = []
    for name, fn in CHECKS:
        if budget_seconds is not None and time.monotonic() - start > budget_seconds:
            checks.append({
                "name": name, "status": "skipped", "seconds": 0.0,
                "details": {"reason": "budget exhausted"},
            })
            continue
        t0 = time.monotonic()
        try:
            details = fn(run)
        except ZeroSumLabError as exc:
            checks.append({
                "name": name, "status": "fail",
                "seconds": round(time.monotonic() - t0, 3),
                "details": {"error": f"{type(exc).__name__}: {exc}"},
            })
            continue
        seconds = round(time.monotonic() - t0, 3)
        if details is None:
            checks.append({
                "name": name, "status": "skipped", "seconds": seconds,
                "details": {"reason": "no instances after group filter"},
            })
            continue
        passed = details.pop("passed")
        checks.append({
            "name": name, "status": "pass" if passed else "fail",
            "seconds": seconds, "details": details,
        })
    counts = {
        "pass": sum(c["status"] == "pass" for c in checks),
        "fail": sum(c["status"] == "fail" for c in checks),
        "skipped": sum(c["status"] == "skipped" for c in checks),
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "checks": checks,
        "counts": counts,
        "passed": counts["fail"] == 0,
    }
