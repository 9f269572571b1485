from __future__ import annotations

import json
import math

import pytest

from zerosumlab import (AbelianGroup, DomainError, davenport, invariants, sequence_sum, suite,
                        verify_all)
from zerosumlab.suite import CHECKS

CHECK_NAMES = [name for name, _ in CHECKS]


@pytest.fixture(scope="module")
def full_run():
    return verify_all()


def _strip_seconds(obj):
    if isinstance(obj, dict):
        return {k: _strip_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [_strip_seconds(v) for v in obj]
    return obj


# --- the full run -------------------------------------------------------------

def test_everything_passes(full_run):
    assert full_run["passed"]
    assert full_run["counts"] == {"pass": len(CHECK_NAMES), "fail": 0, "skipped": 0}


def test_schema_and_check_order(full_run):
    assert full_run["schema_version"] == "1"
    assert [c["name"] for c in full_run["checks"]] == CHECK_NAMES


def test_check_record_shape(full_run):
    for check in full_run["checks"]:
        assert check["status"] == "pass"
        assert isinstance(check["seconds"], float)
        assert check["details"]


def test_every_instance_reports_ok(full_run):
    for check in full_run["checks"]:
        for inst in check["details"].get("instances", []):
            assert inst.get("ok", True), (check["name"], inst)


def test_runs_are_deterministic(full_run):
    again = verify_all()
    assert json.dumps(_strip_seconds(full_run), sort_keys=True) == json.dumps(
        _strip_seconds(again), sort_keys=True
    )


@pytest.mark.parametrize(
    "owner, name, fake, spec, checks",
    [
        # a Z_p lower bound of 1 disagrees with the largest f_k degree p
        (davenport, "sigma_diagonal", lambda A, chars: 1, "SD(3,2,2)",
         {"sigma-zpzd", "sigma-over-q"}),
        # σ = |A| breaks σ ≤ |A|/q
        (suite, "sigma_diagonal", lambda A, chars: A.order, "Z2xZ2", {"sigma-over-q"}),
        # the swap alone keeps x^e + y^e and xy invariant, but has order 2, not 2e
        (invariants, "az2_module",
         lambda n, e: invariants.MonomialRep(2, n, [((1, 0), (0, 0))]), "Z4",
         {"sigma-az2"}),
    ],
    ids=["semidirect-lower-bound", "abelian-sigma", "az2-closure-order"],
)
def test_sigma_checks_fail_on_a_wrong_sigma(monkeypatch, owner, name, fake, spec, checks):
    monkeypatch.setattr(owner, name, fake)
    result = verify_all(groups=[spec])
    failed = {c["name"] for c in result["checks"] if c["status"] == "fail"}
    assert failed == checks


# --- group filtering -----------------------------------------------------------

def test_group_filter_skips_rather_than_fails():
    result = verify_all(groups=["Z2"])
    assert result["passed"]
    statuses = {c["name"]: c["status"] for c in result["checks"]}
    assert set(statuses.values()) <= {"pass", "skipped"}
    assert statuses["davenport-baselines"] == "pass"
    # these families contain no Z2 instance
    assert statuses["sigma-zpzd"] == "skipped"
    assert statuses["sigma-az2"] == "skipped"
    assert statuses["support-lemma"] == "skipped"
    # the presented-ring check is not group-parametrized and always runs
    assert statuses["example-ring"] == "pass"


def test_group_filter_restricts_instances():
    result = verify_all(groups=["Z2", "Z3"])
    baselines = next(c for c in result["checks"] if c["name"] == "davenport-baselines")
    assert {i["group"] for i in baselines["details"]["instances"]} == {"Z2", "Z3"}


def test_group_filter_accepts_group_objects():
    result = verify_all(groups=[AbelianGroup((2,)), "Z3"])
    baselines = next(c for c in result["checks"] if c["name"] == "davenport-baselines")
    assert {i["group"] for i in baselines["details"]["instances"]} == {"Z2", "Z3"}


def test_group_filter_rejects_bad_specs():
    with pytest.raises(Exception):
        verify_all(groups=["Zx"])


# --- fault injection -------------------------------------------------------------

def test_golden_fault_is_caught_by_exactly_one_check():
    result = verify_all(groups=["Z2"], golden_overrides={"davenport-baselines": {"Z2": 3}})
    assert not result["passed"]
    statuses = {c["name"]: c["status"] for c in result["checks"]}
    assert statuses["davenport-baselines"] == "fail"
    assert [n for n, s in statuses.items() if s == "fail"] == ["davenport-baselines"]


def test_golden_fault_in_table_check():
    result = verify_all(
        groups=["Z3"], golden_overrides={"generalized-dk": {"Z3": [3, 6, 9, 13]}}
    )
    table_check = next(c for c in result["checks"] if c["name"] == "generalized-dk")
    assert table_check["status"] == "fail"


def test_engine_vs_oracle_fails_on_a_k_max_one_too_high_on_zero_sums(monkeypatch):
    k_max = suite.k_max

    def high(S):
        return k_max(S) + (len(S) > 0 and sequence_sum(S) == S.group.zero)

    monkeypatch.setattr(suite, "k_max", high)
    result = verify_all(groups=["Z3"])
    failed = [c for c in result["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == ["engine-vs-oracle"]
    mismatches = failed[0]["details"]["mismatches"]
    assert mismatches and all(m["engine"] == m["oracle"] + 1 for m in mismatches)


def test_unknown_override_name_is_rejected():
    with pytest.raises(DomainError):
        verify_all(golden_overrides={"no-such-check": {"Z2": 1}})


# --- budgets -----------------------------------------------------------------------

def test_budget_skips_remaining_checks():
    result = verify_all(budget_seconds=0.001)
    statuses = [c["status"] for c in result["checks"]]
    # the first check starts before the budget trips; the rest are skipped
    assert statuses[0] == "pass"
    assert set(statuses[1:]) == {"skipped"}
    skipped = [c for c in result["checks"] if c["status"] == "skipped"]
    assert all(c["details"]["reason"] == "budget exhausted" for c in skipped)
    # a skip is not a failure, and never silently counts as a pass
    assert result["passed"]
    assert result["counts"]["pass"] == 1


def test_budget_must_be_positive():
    with pytest.raises(DomainError):
        verify_all(budget_seconds=0)
    with pytest.raises(DomainError):
        verify_all(budget_seconds=-5)
    for budget in (math.nan, math.inf):
        with pytest.raises(DomainError):
            verify_all(budget_seconds=budget)
