"""Command-line front end: one subcommand per engine operation.

Output is JSON (sorted keys, schema-versioned) or, for the D_k table,
CSV with columns k, D_k, d_k, witness.  Exit codes: 0 success, 1 a
verification reported failure, 2 bad input or domain error, 3 a
capacity/budget limit was hit.

Each subcommand imports its own engine when it runs, so a call loads only
the modules it uses.  The engine functions named in ``_LAZY`` are also
attributes of this module, bound on first use; the CLI calls whatever is
bound to them, so a wrapper set on this module is the one that runs.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import json
import math
import os
import re
import sys

from .errors import (
    DEFAULT_RING_CUTOFF,
    SCHEMA_VERSION,
    CapacityError,
    DomainError,
    ParseError,
    ValidationError,
    ZeroSumLabError,
)
from .groups import AbelianGroup, SemidirectGroup, _parse_int, parse_groupspec

ZSL_CACHE_ENV = "ZSL_CACHE_DIR"

# engine functions bound on this module at first use: name -> submodule
_LAZY = {
    "load_kmax_cache": "sequences",
    "save_kmax_cache": "sequences",
    "beta_k": "invariants",
    "verify_beta_equals_davenport": "invariants",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + module, __package__), name)
    globals()[name] = value
    return value


def _bound(name):
    """The function bound to ``name`` on this module now."""
    return globals().get(name) or __getattr__(name)


# the subcommands that can query k_max; only they read and write the cache
_KMAX_COMMANDS = frozenset(
    {"davenport", "dk-table", "linearity", "crosscheck", "product-bound", "verify-all"}
)


def _integer(text: str) -> int:
    """argparse type for integer arguments: ASCII digits only."""
    try:
        return _parse_int(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seconds(text: str) -> float:
    """argparse type for --budget-seconds: finite, positive, ASCII (60, 0.5, 1e-3)."""
    decimal = re.fullmatch(r"[0-9]+(\.[0-9]+)?([eE]-?[0-9]+)?", text)
    if not decimal or not 0 < float(text) < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite positive decimal, got {text!r}")
    return float(text)


def _abelian(spec: str) -> AbelianGroup:
    group = parse_groupspec(spec)
    if not isinstance(group, AbelianGroup):
        raise DomainError(f"{spec} is not abelian; this command needs an abelian group")
    return group


def _semidirect(spec: str) -> SemidirectGroup:
    group = parse_groupspec(spec)
    if not isinstance(group, SemidirectGroup):
        raise DomainError(f"{spec} is not an SD(p,d,e) group spec")
    return group


def _cmd_davenport(args):
    from .davenport import davenport_k

    report = davenport_k(_abelian(args.group), args.k, budget_seconds=args.budget_seconds)
    return report.as_dict()


def _cmd_dk_table(args):
    from .davenport import davenport_table

    table = davenport_table(_abelian(args.group), args.k_upto,
                            budget_seconds=args.budget_seconds)
    return {
        "group": table[0].as_dict()["group"],
        "k_upto": args.k_upto,
        "rows": [r.as_dict() for r in table],
    }


def _cmd_eta(args):
    from .davenport import eta

    A = _abelian(args.group)
    return {"group": A.spec(), "eta": eta(A, budget_seconds=args.budget_seconds)}


def _cmd_linearity(args):
    from .davenport import linearity_profile

    profile = linearity_profile(_abelian(args.group), args.k_upto,
                                budget_seconds=args.budget_seconds)
    return profile.as_dict()


def _cmd_support_lemma(args):
    from .lemmas import zero_sum_with_support

    try:
        support = [_parse_int(s.strip()) for s in args.support.split(",") if s.strip() != ""]
    except ParseError:
        raise DomainError(f"support must be comma-separated integers, got {args.support!r}")
    T = zero_sum_with_support(args.p, support)
    return {
        "p": args.p,
        "S": sorted(set(support)),
        "sequence": T.literal(),
        "length": T.length,
        "multiplicities": {str(g[0]): m for g, m in T.items},
    }


def _cmd_product_bound(args):
    from .lemmas import verify_direct_product_bound

    return verify_direct_product_bound(
        _abelian(args.group_g), _abelian(args.group_h), args.r, args.s
    )


def _cmd_beta(args):
    from .invariants import parse_repspec

    return _bound("beta_k")(parse_repspec(args.rep), args.k)


def _cmd_crosscheck(args):
    return _bound("verify_beta_equals_davenport")(_abelian(args.group), args.k,
                                                  budget_seconds=args.budget_seconds)


def _cmd_sigma_zpzd(args):
    from .invariants import verify_sigma_zpzd

    return verify_sigma_zpzd(_semidirect(args.group))


def _cmd_sigma_az2(args):
    from .invariants import verify_sigma_az2

    return verify_sigma_az2(args.n, args.e)


def _cmd_ring_beta(args):
    from .presented import PresentedGradedAlgebra, parse_generator_spec

    generators = parse_generator_spec(args.gens)
    relations = [r.strip() for r in args.rels.split(",") if r.strip()]
    algebra = PresentedGradedAlgebra(generators, relations)
    return algebra.beta_k(args.k, cutoff=args.cutoff)


def _cmd_verify_all(args):
    from .suite import verify_all

    groups = None
    if args.groups:
        groups = [g.strip() for g in args.groups.split(",") if g.strip()]
    return verify_all(budget_seconds=args.budget_seconds, groups=groups)


def _dk_table_csv(payload) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["k", "D_k", "d_k", "witness"])
    for row in payload["rows"]:
        writer.writerow([row["k"], row["value_Dk"], row["value_dk"],
                         row["extremal_witness"]])
    return out.getvalue()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zsl",
        description="Zero-sum constants of finite abelian groups and "
                    "Noether-type degree bounds of monomial invariant rings.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (csv only for dk-table)")
    common.add_argument("--out", default=None, help="write the report to a file")
    # only the subcommands that honour it take --budget-seconds; the others
    # reject it rather than run to the end
    budgeted = argparse.ArgumentParser(add_help=False, parents=[common])
    budgeted.add_argument("--budget-seconds", type=_seconds, default=None,
                          help="abort long searches after this many seconds")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("davenport", parents=[budgeted],
                       help="D_k of an abelian group, with extremal witness")
    p.add_argument("group")
    p.add_argument("--k", type=_integer, default=1)
    p.set_defaults(handler=_cmd_davenport)

    p = sub.add_parser("dk-table", parents=[budgeted],
                       help="D_1 … D_k table of an abelian group")
    p.add_argument("group")
    p.add_argument("--k-upto", type=_integer, required=True)
    p.set_defaults(handler=_cmd_dk_table)

    p = sub.add_parser("eta", parents=[budgeted],
                       help="shortest length forcing a zero-sum block of length ≤ exp(A)")
    p.add_argument("group")
    p.set_defaults(handler=_cmd_eta)

    p = sub.add_parser("linearity", parents=[budgeted],
                       help="detect D_k = k·exp(A) + D0 on a computed table")
    p.add_argument("group")
    p.add_argument("--k-upto", type=_integer, default=4)
    p.set_defaults(handler=_cmd_linearity)

    p = sub.add_parser("support-lemma", parents=[common],
                       help="zero-sum sequence over Z_p with prescribed support")
    p.add_argument("p", type=_integer)
    p.add_argument("support", help="comma-separated non-zero residues, e.g. 1,2,4")
    p.set_defaults(handler=_cmd_support_lemma)

    p = sub.add_parser("product-bound", parents=[common],
                       help="D_{r+s-1}(G×H) ≥ D_r(G) + D_s(H) − 1 with witness")
    p.add_argument("group_g")
    p.add_argument("group_h")
    p.add_argument("--r", type=_integer, default=1)
    p.add_argument("--s", type=_integer, default=1)
    p.set_defaults(handler=_cmd_product_bound)

    p = sub.add_parser("beta", parents=[common],
                       help="β_k of a monomial representation: reg(...) or ind(...)")
    p.add_argument("rep")
    p.add_argument("--k", type=_integer, default=1)
    p.set_defaults(handler=_cmd_beta)

    p = sub.add_parser("crosscheck", parents=[budgeted],
                       help="β_k of the regular representation against D_k")
    p.add_argument("group")
    p.add_argument("--k", type=_integer, default=1)
    p.set_defaults(handler=_cmd_crosscheck)

    p = sub.add_parser("sigma-zpzd", parents=[common],
                       help="verify σ(Z_p⋊Z_d) = p via the induced module")
    p.add_argument("group", help="SD(p,d,e)")
    p.set_defaults(handler=_cmd_sigma_zpzd)

    p = sub.add_parser("sigma-az2", parents=[common],
                       help="verify the two-variable invariants x^e+y^e, xy")
    p.add_argument("n", type=_integer)
    p.add_argument("e", type=_integer)
    p.set_defaults(handler=_cmd_sigma_az2)

    p = sub.add_parser("ring-beta", parents=[common],
                       help="β_k of a presented graded algebra, exact by β_k ≤ k·(largest weight)")
    p.add_argument("--gens", required=True, help='e.g. "a:1,b:3"')
    p.add_argument("--rels", required=True, help='e.g. "b^3-a^9, a*b^2-a^7"')
    p.add_argument("--k", type=_integer, default=1)
    p.add_argument("--cutoff", type=_integer, default=DEFAULT_RING_CUTOFF,
                   help="cap on the scanned degrees (default %(default)s); below "
                        "k·(largest weight) the status is verified-up-to-cutoff")
    p.set_defaults(handler=_cmd_ring_beta)

    p = sub.add_parser("verify-all", parents=[budgeted],
                       help="run the full verification suite")
    p.add_argument("--groups", default=None,
                   help="comma-separated group specs to restrict the suite to")
    p.set_defaults(handler=_cmd_verify_all)

    return parser


def _emit(args, payload) -> None:
    if args.format == "csv":
        if args.command != "dk-table":
            raise DomainError("csv output is only defined for dk-table")
        text = _dk_table_csv(payload)
    else:
        if "schema_version" not in payload:
            payload = {"schema_version": SCHEMA_VERSION, **payload}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cache_dir = os.environ.get(ZSL_CACHE_ENV) if args.command in _KMAX_COMMANDS else None
    on_disk = 0
    if cache_dir:
        from .sequences import _CACHE_FILE, _KMAX_MEMO

        # a missing file is written even from an empty memo, so that each
        # such call leaves a cache behind
        missing = not os.path.exists(os.path.join(cache_dir, _CACHE_FILE))
        try:
            on_disk = _bound("load_kmax_cache")(cache_dir)
        except ValidationError as exc:
            # leave the file as found: a save would overwrite it
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        payload = args.handler(args)
        _emit(args, payload)
        code = 1 if payload.get("passed") is False else 0
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        code = 3
    except ZeroSumLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    finally:
        # the memo holds every key of the file, so equal sizes mean the
        # file already holds the memo and is left alone
        if cache_dir and (missing or len(_KMAX_MEMO) != on_disk):
            try:
                _bound("save_kmax_cache")(cache_dir)
            except ValidationError as exc:
                print(f"error: {exc}", file=sys.stderr)
                code = 2
    return code


if __name__ == "__main__":
    sys.exit(main())
