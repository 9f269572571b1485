from __future__ import annotations

import inspect
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import zerosumlab
from zerosumlab import (
    AbelianGroup,
    PresentedGradedAlgebra,
    Sequence,
    ValidationError,
    k_max,
    load_kmax_cache,
    save_kmax_cache,
    sequences,
    verify_all,
)
from zerosumlab.cli import main
from zerosumlab.errors import DEFAULT_RING_CUTOFF, SCHEMA_VERSION
from zerosumlab.sequences import _cache_entry


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# --- happy paths, one per subcommand ------------------------------------------

def test_davenport(capsys):
    payload = run_json(capsys, "davenport", "Z3xZ3")
    assert payload["value_Dk"] == 5
    assert payload["value_dk"] == 4
    assert payload["schema_version"] == "1"


def test_davenport_with_k(capsys):
    assert run_json(capsys, "davenport", "Z2", "--k", "3")["value_Dk"] == 6


def test_dk_table_json(capsys):
    payload = run_json(capsys, "dk-table", "Z2xZ2", "--k-upto", "3")
    assert [r["value_Dk"] for r in payload["rows"]] == [3, 5, 7]


def test_eta(capsys):
    assert run_json(capsys, "eta", "Z2xZ2")["eta"] == 4


def test_linearity(capsys):
    payload = run_json(capsys, "linearity", "Z3", "--k-upto", "4")
    assert payload["slope"] == 3
    assert payload["status"] == "stabilized"


def test_support_lemma(capsys):
    payload = run_json(capsys, "support-lemma", "5", "1,3")
    assert payload["sequence"] == "[1,1,3]"
    assert payload["length"] == 3


def test_product_bound(capsys):
    payload = run_json(capsys, "product-bound", "Z2", "Z2", "--r", "1", "--s", "2")
    assert payload["tight"]
    assert payload["lhs_D_r_plus_s_minus_1"] == 5


def test_beta_regular(capsys):
    assert run_json(capsys, "beta", "reg(Z3)")["beta"] == 3


def test_beta_induced(capsys):
    assert run_json(capsys, "beta", "ind(SD(3,2,2))")["beta_1"] >= 1


def test_crosscheck(capsys):
    payload = run_json(capsys, "crosscheck", "Z2", "--k", "2")
    assert payload["beta"] == payload["davenport"] == 4


def test_sigma_zpzd(capsys):
    payload = run_json(capsys, "sigma-zpzd", "SD(3,2,2)")
    assert payload["sigma"] == 3


def test_sigma_az2(capsys):
    payload = run_json(capsys, "sigma-az2", "6", "2")
    assert payload["bound"] == 2


def test_ring_beta(capsys):
    payload = run_json(
        capsys, "ring-beta", "--gens", "a:1,b:3",
        "--rels", "b^3-a^9, a*b^2-a^7", "--k", "2", "--cutoff", "30",
    )
    assert payload["beta"] == 6
    assert payload["scan_limit"] == 6  # k·w_max = 2·3
    assert payload["status"] == "exact"


def test_ring_beta_cutoff_over_the_cap_is_answered_when_the_scan_is_not(capsys):
    payload = run_json(
        capsys, "ring-beta", "--gens", "a:1,b:3",
        "--rels", "b^3-a^9, a*b^2-a^7", "--k", "2", "--cutoff", "100",
    )
    assert (payload["beta"], payload["scan_limit"], payload["status"]) == (6, 6, "exact")


def test_verify_all_filtered(capsys):
    payload = run_json(capsys, "verify-all", "--groups", "Z2")
    assert payload["passed"]
    assert payload["counts"]["fail"] == 0


def test_shared_constants_reach_help_and_reports(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ring-beta", "--help"])
    assert exc.value.code == 0
    assert f"(default {DEFAULT_RING_CUTOFF})" in " ".join(capsys.readouterr().out.split())
    cutoff = inspect.signature(PresentedGradedAlgebra.beta_k).parameters["cutoff"]
    assert cutoff.default == DEFAULT_RING_CUTOFF
    assert verify_all(groups=["Z2"])["schema_version"] == SCHEMA_VERSION
    assert run_json(capsys, "eta", "Z2")["schema_version"] == SCHEMA_VERSION


# --- output modes ----------------------------------------------------------------

def test_dk_table_csv(capsys):
    code, out, err = run(capsys, "dk-table", "Z2", "--k-upto", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,D_k,d_k,witness"
    assert lines[1].startswith("1,2,1,")
    assert len(lines) == 4


def test_csv_rejected_elsewhere(capsys):
    code, out, err = run(capsys, "eta", "Z2", "--format", "csv")
    assert code == 2
    assert "csv" in err


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "eta", "Z3", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["eta"] == 3


def test_out_unwritable_path(capsys, tmp_path):
    target = tmp_path / "missing_dir" / "report.json"
    code, out, err = run(capsys, "eta", "Z3", "--out", str(target))
    assert code == 2
    assert err.startswith("error: cannot write")


def test_json_is_sorted_and_versioned(capsys):
    code, out, err = run(capsys, "eta", "Z2")
    payload = json.loads(out)
    assert list(payload) == sorted(payload)
    assert payload["schema_version"] == "1"


# --- exit codes --------------------------------------------------------------------

def test_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "davenport", "Zx")
    assert code == 2
    assert "error:" in err


def _zsl(*argv, timeout=60):
    env = dict(os.environ, PYTHONPATH=str(Path(zerosumlab.__file__).parent.parent))
    env.pop("ZSL_CACHE_DIR", None)
    return subprocess.run(
        [sys.executable, "-m", "zerosumlab.cli", *argv],
        env=env, capture_output=True, text=True, encoding="utf-8", timeout=timeout,
    )


@pytest.mark.parametrize(
    "argv",
    [["davenport", "Z\u00b2"], ["davenport", "Z\u0663"], ["sigma-zpzd", "SD(\u0663,2,2)"]],
    ids=["superscript-two", "arabic-indic-three", "sd-arabic-indic-three"],
)
def test_non_ascii_digits_exit_2(argv):
    proc = _zsl(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["davenport", "Z2", "--k", "\u0663"], "--k"),
        (["davenport", "Z2", "--k", "+1_0"], "--k"),
        (["dk-table", "Z2", "--k-upto", "+2"], "--k-upto"),
        (["support-lemma", "\u0667", "\u0661,2"], "argument p"),
        (["support-lemma", "7", "\u0661,2"], "support"),
        (["support-lemma", "7", "+1,2"], "support"),
        (["sigma-az2", "6", "3_0"], "argument e"),
    ],
    ids=["k-arabic-indic", "k-plus-underscore", "k-upto-plus", "p-arabic-indic",
         "support-arabic-indic", "support-plus", "e-underscore"],
)
def test_integer_arguments_are_ascii_digits(argv, bad):
    # int() reads all of these, so they used to run as ordinary numbers
    proc = _zsl(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and bad in errors[0], proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["davenport", "Z3", "--budget-seconds", value]
     for value in ("nan", "inf", "0", "-1", "\u0663", "1_0", "+5", "1e999", "0.0")]
    + [["verify-all", "--budget-seconds", "nan"]],
    ids=["nan", "inf", "zero", "negative", "arabic-indic", "underscore", "plus",
         "overflow", "zero-fraction", "verify-all-nan"],
)
def test_budget_is_a_finite_positive_decimal(argv):
    # float() reads all of these; with nan, `elapsed > budget` is never true
    proc = _zsl(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--budget-seconds" in errors[0], proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["beta", "reg(Z3)"],
        ["ring-beta", "--gens", "a:1", "--rels", "", "--cutoff", "3"],
        ["sigma-zpzd", "SD(3,2,2)"],
        ["sigma-az2", "6", "3"],
        ["support-lemma", "7", "1,2"],
        ["product-bound", "Z2", "Z3"],
    ],
    ids=lambda argv: argv[0],
)
def test_budget_is_rejected_where_it_is_not_honoured(argv):
    proc = _zsl(*argv, "--budget-seconds", "0.001")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--budget-seconds" in errors[0], proc.stderr


def test_domain_error_exits_2(capsys):
    code, out, err = run(capsys, "davenport", "SD(3,2,2)")
    assert code == 2
    code, out, err = run(capsys, "sigma-zpzd", "Z4")
    assert code == 2


def test_capacity_exits_3(capsys):
    code, out, err = run(capsys, "davenport", "Z64")
    assert code == 3
    assert "capacity:" in err


def test_budget_exhaustion_exits_3(capsys):
    code, out, err = run(capsys, "dk-table", "Z3xZ3", "--k-upto", "3",
                         "--budget-seconds", "1e-9")
    assert code == 3


@pytest.mark.parametrize("command", ["davenport", "eta"])
def test_budget_holds_where_aut_is_too_large_to_list(command):
    # Aut(Z2^6) has 20,158,709,760 elements, too many to list, and both
    # scans of Z2^6 run far past 1 s (D(Z2^5) alone takes about 1 s)
    proc = _zsl(command, "Z2xZ2xZ2xZ2xZ2xZ2", "--budget-seconds", "1", timeout=10)
    assert proc.returncode == 3
    assert "capacity:" in proc.stderr


HUGE = "Z99999999999999999999"


@pytest.mark.parametrize("argv", [
    ["davenport", HUGE, "--budget-seconds", "1"],
    ["eta", HUGE, "--budget-seconds", "1"],
    ["dk-table", HUGE, "--k-upto", "2", "--budget-seconds", "1"],
    ["linearity", HUGE, "--k-upto", "2", "--budget-seconds", "1"],
    # multiset codes of more than 1024 bits (|A|·w, 2000·11 for η(Z2000)):
    # refused before any |A|-sized table is built
    ["davenport", "Z3000000", "--budget-seconds", "1"],
    ["eta", "Z2000", "--budget-seconds", "60"],
    # the closure of reg(A) would hold |A| elements
    ["beta", "reg(Z999999999999)"],
    ["crosscheck", "Z999999999999", "--budget-seconds", "1"],
    # within the closure cap, but the beta_1 scan would pass the degree cap
    ["beta", "reg(Z4096)"],
    ["crosscheck", "Z4096", "--budget-seconds", "1"],
], ids=["davenport", "eta", "dk-table", "linearity", "davenport-3e6", "eta-2000", "beta-reg",
        "crosscheck", "beta-reg-4096", "crosscheck-4096"])
def test_a_huge_group_is_refused_with_exit_3(argv):
    proc = _zsl(*argv, timeout=10)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("capacity: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["beta", "reg(Z4096)"], ["beta", "reg(Z65)"],
                                  ["crosscheck", "Z4096", "--budget-seconds", "1"]])
def test_reg_past_the_degree_cap_is_refused_before_its_closure(capsys, monkeypatch, argv):
    import zerosumlab.invariants as invariants

    def closure(self):
        raise AssertionError("the closure of a refused representation was built")

    monkeypatch.setattr(invariants.MonomialRep, "_closure", closure)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("capacity: beta_1 scan needs degrees up to |G| = ")
    assert err.count("\n") == 1


def test_reg_at_the_degree_cap_still_runs(monkeypatch):
    # reg(Z64) is the largest regular representation under the cap: its
    # closure is built and beta_k is called on it
    import zerosumlab.cli as cli

    seen = []
    monkeypatch.setattr(cli, "beta_k", lambda rep, k: seen.append(rep.group_order) or {})
    assert main(["beta", "reg(Z64)"]) == 0
    assert seen == [64]


def test_failed_verification_exits_1(capsys, monkeypatch):
    import zerosumlab.suite as suite

    # plant a wrong frozen value so the suite genuinely fails
    monkeypatch.setitem(suite.GOLDEN["davenport-baselines"], "Z2", 3)
    code, out, err = run(capsys, "verify-all", "--groups", "Z2")
    assert code == 1
    assert json.loads(out)["passed"] is False


# --- the k_max cache ------------------------------------------------------------------

# verify-all on one small group still queries k_max (the engine-vs-oracle
# corpus), so it fills the memo; the D_k and η scans do not

def test_cache_spill_and_reload(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ZSL_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(sequences, "_KMAX_MEMO", {})
    code, _, _ = run(capsys, "verify-all", "--groups", "Z3")
    assert code == 0
    cache_file = tmp_path / "zsl_kmax_cache.json"
    assert cache_file.exists()
    data = json.loads(cache_file.read_text())
    assert data["schema_version"] == 1
    assert data["entries"]
    # a second invocation, from an empty memo as in a new process, loads it
    memo = {}
    monkeypatch.setattr(sequences, "_KMAX_MEMO", memo)
    code, _, _ = run(capsys, "verify-all", "--groups", "Z3")
    assert code == 0
    assert len(memo) == len(data["entries"])


def test_cache_save_leaves_only_the_cache_file(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ZSL_CACHE_DIR", str(tmp_path))
    for _ in range(2):
        monkeypatch.setattr(sequences, "_KMAX_MEMO", {})
        code, _, _ = run(capsys, "verify-all", "--groups", "Z3")
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == ["zsl_kmax_cache.json"]
        assert json.loads((tmp_path / "zsl_kmax_cache.json").read_text())["entries"]


_GOOD_CACHE = json.dumps({"schema_version": 1, "entries": [[[3], [[[1], 3]], 1]]})


def _zsl_cached(cache_dir, *argv):
    env = dict(os.environ, ZSL_CACHE_DIR=str(cache_dir),
               PYTHONPATH=str(Path(zerosumlab.__file__).parent.parent))
    return subprocess.run(
        [sys.executable, "-m", "zerosumlab.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )


def _zsl_davenport_z3(cache_dir):
    return _zsl_cached(cache_dir, "davenport", "Z3")


def test_a_call_that_adds_no_memo_entry_leaves_the_cache_alone(tmp_path):
    cache_file = tmp_path / "zsl_kmax_cache.json"
    assert _zsl_cached(tmp_path, "verify-all", "--groups", "Z3").returncode == 0
    written = cache_file.read_bytes()
    assert json.loads(written)["entries"]
    # a rewrite would stamp the file with the current time
    os.utime(cache_file, ns=(10**18, 10**18))
    assert _zsl_cached(tmp_path, "verify-all", "--groups", "Z3").returncode == 0
    assert cache_file.read_bytes() == written
    assert cache_file.stat().st_mtime_ns == 10**18
    # a call that adds entries still writes them
    assert _zsl_cached(tmp_path, "verify-all", "--groups", "Z4").returncode == 0
    assert cache_file.stat().st_mtime_ns != 10**18
    grown = json.loads(cache_file.read_text())["entries"]
    assert len(grown) > len(json.loads(written)["entries"])
    assert [4] in [factors for factors, _, _ in grown]


def test_a_kmax_command_writes_a_missing_cache_even_from_an_empty_memo(tmp_path):
    # no D_k scan adds a memo entry, yet a k_max command leaves a cache file
    cache_file = tmp_path / "zsl_kmax_cache.json"
    proc = _zsl_cached(tmp_path, "davenport", "Z6", "--k", "3")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value_Dk"] == 18
    assert json.loads(cache_file.read_text()) == {"schema_version": 1, "entries": []}
    # once it exists, a call that adds nothing leaves it alone
    os.utime(cache_file, ns=(10**18, 10**18))
    assert _zsl_cached(tmp_path, "dk-table", "Z6", "--k-upto", "3").returncode == 0
    assert cache_file.stat().st_mtime_ns == 10**18
    # a command that never queries k_max writes none
    cache_file.unlink()
    assert _zsl_cached(tmp_path, "eta", "Z3").returncode == 0
    assert list(tmp_path.iterdir()) == []


_RING = ("ring-beta", "--gens", "a:1,b:3", "--rels", "b^3-a^9, a*b^2-a^7",
         "--k", "2", "--cutoff", "30")


@pytest.mark.parametrize(
    "argv, key, value",
    [(("beta", "reg(Z3)"), "beta", 3), (_RING, "beta", 6), (("eta", "Z3"), "eta", 3)],
    ids=["beta", "ring-beta", "eta"],
)
def test_commands_that_never_query_k_max_leave_the_cache_unread(tmp_path, argv, key, value):
    # a corrupt file makes every command that reads it exit 2
    raw = _GOOD_CACHE[: len(_GOOD_CACHE) // 2].encode()
    cache_file = tmp_path / "zsl_kmax_cache.json"
    cache_file.write_bytes(raw)
    proc = _zsl_cached(tmp_path, *argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)[key] == value
    assert cache_file.read_bytes() == raw
    assert [p.name for p in tmp_path.iterdir()] == ["zsl_kmax_cache.json"]


def _entry(factors, items, value):
    return json.dumps({"schema_version": 1, "entries": [[factors, items, value]]})


@pytest.mark.parametrize(
    "raw",
    [
        _GOOD_CACHE[: len(_GOOD_CACHE) // 2],
        json.dumps({"schema_version": 1, "entries": {"not": "a list"}}),
        json.dumps({"schema_version": 1, "entries": [[[3], [[[1], 2]], "2"]]}),
        _entry([2, 3], [[[1, 1], 2]], 0),
        _entry([3], [[[1, 0], 3]], 1),
        _entry([3], [[[3], 3]], 1),
        _entry([3], [[[-1], 3]], 1),
        _entry([3], [[[1], 0]], 0),
        _entry([3], [[[1], 3]], 4),
        _entry([3], [[[1], 3]], -1),
        _entry([6], [[[1], 5]], 3),
        _entry([3], [[[0], 2], [[1], 3]], 4),
        _entry([3], [[[True], 3]], 1),
        _entry([3], [[[1], 3.0]], 1),
        _entry([3], [[[1], 3]], True),
        _entry([3], [[[1], 3]], float("nan")),
        _entry([3], {"not": "a list"}, 1),
        _entry([3], [[[1], 3, 0]], 1),
        _entry([3], [[[2], 1], [[1], 1]], 1),
        _entry([3], [[[1], 1], [[1], 2]], 1),
    ],
    ids=["truncated", "entries-not-a-list", "value-not-an-int", "factors-not-a-chain",
         "element-wrong-arity", "element-over-range", "element-negative",
         "multiplicity-zero", "value-over-length", "value-negative",
         "value-over-pair-bound", "value-over-zeros-plus-pairs", "coordinate-a-bool",
         "multiplicity-a-float", "value-a-bool", "value-nan", "items-not-a-list",
         "item-of-three", "runs-unsorted", "element-repeated"],
)
def test_corrupt_cache_exits_2_and_is_left_alone(tmp_path, raw):
    cache_file = tmp_path / "zsl_kmax_cache.json"
    cache_file.write_text(raw)
    proc = _zsl_davenport_z3(tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and str(cache_file) in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert cache_file.read_text() == raw


def test_cache_values_up_to_zeros_plus_pairs_load():
    # each zero is one block and every other block has at least two entries
    groups = {}
    assert _cache_entry([[3], [[[0], 2], [[1], 3]], 3], groups) == (((3,), ((0, 2), (1, 3))), 3)
    assert _cache_entry([[6], [[[1], 5]], 2], groups) == (((6,), ((1, 5),)), 2)
    assert _cache_entry([[6], [[[1], 5]], 3], groups) is None


def test_cache_runs_must_increase_strictly():
    # save_kmax_cache writes each key's runs in index order, one run per element
    groups = {}
    assert _cache_entry([[3], [[[1], 1], [[2], 1]], 1], groups) == (((3,), ((1, 1), (2, 1))), 1)
    assert _cache_entry([[3], [[[2], 1], [[1], 1]], 1], groups) is None
    assert _cache_entry([[3], [[[1], 1], [[1], 2]], 1], groups) is None
    assert _cache_entry([[2, 2], [[[0, 1], 1], [[1, 0], 1]], 0], groups) == (
        ((2, 2), ((1, 1), (2, 1))), 0)
    assert _cache_entry([[2, 2], [[[1, 0], 1], [[0, 1], 1]], 0], groups) is None


def _one_json_dump(memo):
    entries = []
    for (factors, runs), value in sorted(memo.items()):
        group = AbelianGroup(factors)
        entries.append([list(factors), [[list(group.element(i)), m] for i, m in runs], value])
    return json.dumps({"schema_version": 1, "entries": entries}).encode()


def test_a_save_streams_the_bytes_of_one_json_dump(tmp_path, monkeypatch):
    memo = {}
    monkeypatch.setattr(sequences, "_KMAX_MEMO", memo)
    # every multiset of length 4 over Z2×Z2 and of length 9 over Z6
    for factors, length in (((2, 2), 4), ((6,), 9)):
        A = AbelianGroup(factors)
        for entries in itertools.combinations_with_replacement(A.elements(), length):
            k_max(Sequence.from_elements(A, entries))
    full = dict(memo)
    keys = sorted(full)
    cut = sequences._SAVE_SLICE
    assert len(keys) > 3 * cut and len({factors for factors, _ in keys}) == 2
    for size in (0, 1, cut, cut + 1, len(keys)):
        part = {key: full[key] for key in keys[:size]}
        memo.clear()
        memo.update(part)
        assert save_kmax_cache(str(tmp_path)) == size
        assert (tmp_path / "zsl_kmax_cache.json").read_bytes() == _one_json_dump(part)
        memo.clear()
        assert load_kmax_cache(str(tmp_path)) == size
        assert memo == part


def test_davenport_without_k_adds_no_memo_entry_and_leaves_the_cache_alone(tmp_path):
    # the D_k scans decide each candidate from the previous level, with no k_max
    cache_file = tmp_path / "zsl_kmax_cache.json"
    cache_file.write_text(_GOOD_CACHE)
    os.utime(cache_file, ns=(10**18, 10**18))
    for spec, value in (("Z4", 4), ("Z2xZ4", 5)):
        proc = _zsl_cached(tmp_path, "davenport", spec)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["value_Dk"] == value
    assert cache_file.read_text() == _GOOD_CACHE
    assert cache_file.stat().st_mtime_ns == 10**18
    assert [p.name for p in tmp_path.iterdir()] == ["zsl_kmax_cache.json"]


def test_a_forged_value_inside_the_bound_does_not_change_D(tmp_path):
    # k_max([1,1,1,1,1] over Z6) is 0; the D_1 scan reads no k_max, so a
    # claimed 2 cannot prune the extremal sequence
    (tmp_path / "zsl_kmax_cache.json").write_text(_entry([6], [[[1], 5]], 2))
    proc = _zsl_cached(tmp_path, "davenport", "Z6")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value_Dk"] == 6


def test_a_forged_value_inside_the_bound_does_not_change_D_2(tmp_path):
    # k_max of eleven 1s over Z6 is 1; a claimed 2 would prune the extremal
    # sequence of a scan that read the memo, and no scan does
    (tmp_path / "zsl_kmax_cache.json").write_text(_entry([6], [[[1], 11]], 2))
    proc = _zsl_cached(tmp_path, "davenport", "Z6", "--k", "2")
    assert proc.returncode != 0 or json.loads(proc.stdout)["value_Dk"] == 12


@pytest.mark.parametrize("blocked", ["cache-dir-is-a-file", "cache-file-is-a-directory"])
def test_unusable_cache_path_exits_2_and_is_left_alone(tmp_path, blocked):
    if blocked == "cache-dir-is-a-file":
        cache_dir = tmp_path / "not-a-dir"
        cache_dir.write_text("plain file")
        culprit = cache_dir
    else:
        cache_dir = tmp_path
        culprit = tmp_path / "zsl_kmax_cache.json"
        culprit.mkdir()
    before = sorted(p.name for p in tmp_path.rglob("*"))
    proc = _zsl_davenport_z3(cache_dir)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and str(culprit) in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == before
    if blocked == "cache-dir-is-a-file":
        assert cache_dir.read_text() == "plain file"
    else:
        assert culprit.is_dir()


def test_cache_save_to_an_unusable_path_raises_validation_error(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("plain file")
    with pytest.raises(ValidationError, match=re.escape(str(blocker))):
        save_kmax_cache(str(blocker))
    assert blocker.read_text() == "plain file"
    assert [p.name for p in tmp_path.iterdir()] == ["not-a-dir"]
