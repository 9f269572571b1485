"""What importing the package and running one subcommand load.

``import zerosumlab`` loads no submodule, and each subcommand imports only
the engine it runs.  The public names resolve on first use to the
submodules' own objects, and the engine functions that the CLI binds
lazily can still be replaced on ``cli`` by a wrapper that the CLI then
calls.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import zerosumlab
from zerosumlab import cli

SRC = str(Path(zerosumlab.__file__).parent.parent)

# every name the package exports, by the submodule that defines it
EXPORTS = {
    "errors": ["CapacityError", "DomainError", "ParseError", "StructuralError",
               "ValidationError", "VerificationError", "ZeroSumLabError"],
    "groups": ["AbelianGroup", "Automorphism", "Embedding", "SemidirectGroup",
               "automorphism_group", "direct_product", "is_prime", "parse_groupspec",
               "smallest_prime_divisor", "subgroup_embeddable"],
    "sequences": ["BlockPacking", "Sequence", "apply_to_sequence", "canonical_form",
                  "k_max", "k_max_naive", "k_max_with_witness", "load_kmax_cache",
                  "minimal_zero_sum_subsequences", "parse_sequence", "save_kmax_cache",
                  "sequence_sum"],
    "davenport": ["DavenportReport", "LinearityProfile", "davenport_k", "davenport_table",
                  "eta", "linearity_profile", "sigma_diagonal", "verify_inequalities",
                  "verify_subgroup_relations"],
    "lemmas": ["direct_product_witness", "verify_direct_product_bound",
               "zero_sum_with_support"],
    "cyclotomic": ["CyclotomicNumber", "cyclotomic_polynomial", "euler_phi"],
    "polynomials": ["GradedSpan", "MultiPoly"],
    "invariants": ["MonomialRep", "az2_module", "beta_k", "construct_fk", "induced_module",
                   "invariant_basis", "parse_repspec", "regular_representation", "transfer",
                   "verify_beta_equals_davenport", "verify_sigma_az2", "verify_sigma_zpzd"],
    "presented": ["PresentedGradedAlgebra", "parse_generator_spec"],
    "suite": ["GOLDEN", "verify_all"],
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names]


def _loaded(code, cache_dir):
    """The ``zerosumlab`` submodules a fresh interpreter holds after ``code``."""
    script = (
        "import io, contextlib, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + textwrap.indent(textwrap.dedent(code), "    ")
        + "\nprint(json.dumps(sorted(m.split('.', 1)[1] for m in sys.modules\n"
        "                          if m.startswith('zerosumlab.'))))\n"
    )
    env = {"PYTHONPATH": SRC, "ZSL_CACHE_DIR": str(cache_dir), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_importing_the_package_loads_no_submodule(tmp_path):
    assert _loaded("import zerosumlab", tmp_path) == set()


D_SIDE = {"sequences", "davenport", "suite", "lemmas"}
BETA_SIDE = {"invariants", "polynomials", "cyclotomic", "presented", "suite", "lemmas"}


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["davenport", "Z3"], BETA_SIDE),
        (["ring-beta", "--gens", "a:1,b:3", "--rels", "b^3-a^9", "--k", "1"], D_SIDE),
        (["beta", "reg(Z3)"], D_SIDE),
        (["--help"], D_SIDE | BETA_SIDE),
    ],
    ids=["davenport", "ring-beta", "beta", "help"],
)
def test_a_subcommand_loads_only_its_engine(tmp_path, argv, absent):
    code = f"""
        from zerosumlab.cli import main
        try:
            code = main({argv!r})
        except SystemExit as exc:
            code = exc.code
        assert code == 0, code
    """
    loaded = _loaded(code, tmp_path)
    assert {"cli", "errors", "groups"} <= loaded
    assert not loaded & absent, sorted(loaded & absent)


def test_davenport_imports_no_fractions(tmp_path):
    # the D side compares ratios as integer cross products; importing
    # fractions, and the decimal module it pulls in, costs every call a few ms
    code = """
        from zerosumlab.cli import main
        assert main(["davenport", "Z3"]) == 0
        assert "fractions" not in sys.modules
    """
    assert "davenport" in _loaded(code, tmp_path)


# -- the public API ---------------------------------------------------------------


@pytest.mark.parametrize("module, name", EXPORTED, ids=[name for _, name in EXPORTED])
def test_each_export_is_its_submodules_own_object(module, name):
    assert getattr(zerosumlab, name) is getattr(getattr(zerosumlab, module), name)


def test_all_lists_exactly_the_exports():
    assert sorted(zerosumlab.__all__) == sorted(name for _, name in EXPORTED)


def test_star_import_and_dir_list_the_exports():
    namespace = {}
    exec("from zerosumlab import *", namespace)
    names = {name for _, name in EXPORTED}
    assert names <= set(namespace)
    assert names | set(EXPORTS) <= set(dir(zerosumlab))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        zerosumlab.no_such_name
    with pytest.raises(ImportError):
        exec("from zerosumlab import no_such_name", {})
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


# -- wrappers set on cli ---------------------------------------------------------


def _spy(monkeypatch, name):
    calls = []
    original = getattr(cli, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, wrapper)
    return calls


@pytest.mark.parametrize(
    "name, argv",
    [
        ("beta_k", ["beta", "reg(Z3)"]),
        ("verify_beta_equals_davenport", ["crosscheck", "Z2", "--k", "1"]),
        ("load_kmax_cache", ["davenport", "Z3"]),
        # no scan adds a memo entry, but a k_max command writes a missing file
        ("save_kmax_cache", ["davenport", "Z3", "--k", "2"]),
    ],
)
def test_main_calls_the_function_bound_on_cli(monkeypatch, tmp_path, capsys, name, argv):
    monkeypatch.setenv("ZSL_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(zerosumlab.sequences, "_KMAX_MEMO", {})
    calls = _spy(monkeypatch, name)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1
