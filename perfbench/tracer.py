"""Per-layer tracing from outside the library.

The tracer replaces module and class attributes of ``zerosumlab`` with
timing wrappers for the length of one traced pass and restores them
afterwards; no file of the library changes.  Each wrapped call pushes a
frame, so a layer's self time is the duration of its calls minus the part
covered by wrapped calls beneath them.  Calls at coarse boundaries are also
kept as spans (name, start, end, parent span, instance id) in memory and
written out when the pass ends; hot arithmetic (group addition, cyclotomic
and polynomial products, span reduction) is only counted and timed, because
millions of span records would dominate the pass.

A wrapper sits on the attribute a caller looks up, so ``davenport._kmax_items``
sees only the calls the D_k scan makes into the k_max engine, not the
engine's own recursion through ``sequences._kmax_items``.
"""

from __future__ import annotations

import gzip
import json
import subprocess
import sys
import time
from collections import Counter

# Every per-layer metric, with its unit.  The traced run prints all of them
# for every workload; a layer that a workload never enters reads 0.
LAYER_METRICS = {
    "groups.add_calls": "count",
    "groups.scale_calls": "count",
    "groups.aut_s": "s",
    "groups.aut_count": "count",
    "groups.self_s": "s",
    "sequences.kmax_s": "s",
    "sequences.kmax_calls": "count",
    "sequences.memo_hit_ratio": "ratio",
    "sequences.memo_entries": "count",
    "sequences.blocks_enumerated": "count",
    "sequences.minimal_yield": "ratio",
    "sequences.oracle_s": "s",
    "sequences.cache_load_s": "s",
    "sequences.cache_save_s": "s",
    "sequences.cache_bytes": "bytes",
    "sequences.self_s": "s",
    "davenport.nodes": "count",
    "davenport.levels": "count",
    "davenport.canon_s": "s",
    "davenport.canon_calls": "count",
    "davenport.dedup_ratio": "ratio",
    "davenport.scan_self_s": "s",
    "cyclotomic.mul_calls": "count",
    "cyclotomic.mul_s": "s",
    "cyclotomic.inverse_calls": "count",
    "cyclotomic.inverse_s": "s",
    "cyclotomic.self_s": "s",
    "polynomials.insert_calls": "count",
    "polynomials.insert_s": "s",
    "polynomials.insert_yield": "ratio",
    "polynomials.contains_calls": "count",
    "polynomials.reduce_s": "s",
    "polynomials.poly_mul_calls": "count",
    "polynomials.self_s": "s",
    "invariants.transfer_calls": "count",
    "invariants.transfer_s": "s",
    "invariants.transfer_zero_ratio": "ratio",
    "invariants.basis_s": "s",
    "invariants.power_span_s": "s",
    "invariants.slice_dims": "count",
    "invariants.self_s": "s",
    "presented.normal_form_calls": "count",
    "presented.normal_form_s": "s",
    "presented.ideal_slice_s": "s",
    "presented.power_span_s": "s",
    "presented.slice_dims": "count",
    "presented.self_s": "s",
    "cli.call_s.davenport": "s",
    "cli.call_s.crosscheck": "s",
    "cli.call_s.beta": "s",
    "cli.call_s.ring-beta": "s",
    "cli.start_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Metrics that are functions of timings; every other one must repeat exactly.
TIMED_METRICS = {name for name, unit in LAYER_METRICS.items() if unit == "s"}
TIMED_METRICS.add("trace.overhead_ratio")


class Tracer:
    """Wrapper installer, call stack, aggregate stats and span store."""

    def __init__(self):
        self.stack = []  # frames: [time covered by wrapped children]
        self.span_stack = []  # ids of the open recorded spans
        self.spans = []  # [name, start, end, parent id, instance id]
        self.stats = {}  # name -> [calls, outermost inclusive s, self s]
        self.depth = Counter()
        self.counters = Counter()
        self.instance = None  # index of the instance being solved, stamped on spans
        self._restore = []

    # -- wrappers --------------------------------------------------------------

    def wrap(self, owner, attr, name, record=True, before=None, after=None):
        """Replace ``owner.attr`` by a timing wrapper until ``uninstall``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.instrument(original, name, record, before, after))
        self._restore.append((owner, attr, original))

    def instrument(self, original, name, record=True, before=None, after=None):
        """``original`` wrapped so that its calls count towards ``name``."""
        stack, span_stack, spans, depth = self.stack, self.span_stack, self.spans, self.depth
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            if record:
                span_id = len(spans)
                spans.append([name, 0.0, 0.0, span_stack[-1] if span_stack else None,
                              tracer.instance])
                span_stack.append(span_id)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                stack.pop()
                depth[name] -= 1
                stat[0] += 1
                stat[2] += duration - frame[0]
                if not depth[name]:
                    stat[1] += duration
                if stack:
                    stack[-1][0] += duration
                if record:
                    span_stack.pop()
                    spans[span_id][1] = start
                    spans[span_id][2] = end
            if after is not None:
                after(args, kwargs, result, duration)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def install(self, zsl):
        """Wrap the module boundaries of the library loaded in ``zsl``."""
        c = self.counters
        groups, seqs, dav = zsl.groups, zsl.sequences, zsl.davenport
        cyc, poly, inv, pres, cli = (zsl.cyclotomic, zsl.polynomials, zsl.invariants,
                                     zsl.presented, zsl.cli)
        wrap = self.wrap

        def count_auts(args, kwargs, result, duration):
            c["groups.aut_count"] += len(result)

        def probe_memo(args, kwargs):
            group, items = args
            if (group.factors, items) in seqs._KMAX_MEMO:
                c["sequences.memo_hits"] += 1

        def count_enumerated(args, kwargs, result, duration):
            if (args[2] if len(args) > 2 else kwargs.get("force_first")):
                c["sequences.blocks_enumerated"] += len(result)

        def count_kept(args, kwargs, result, duration):
            c["sequences.blocks_kept"] += len(result)

        def probe_canon(args, kwargs):
            if self.depth["davenport.davenport_table"]:
                c["davenport.table_canon_calls"] += 1

        def count_grew(args, kwargs, result, duration):
            if result:
                c["polynomials.insert_grew"] += 1

        def count_zero(args, kwargs, result, duration):
            if result.is_zero():
                c["invariants.transfer_zeros"] += 1

        def time_subcommand(args, kwargs, result, duration):
            argv = args[0] if args else kwargs["argv"]
            c["cli.call_s." + argv[0]] += duration

        wrap(groups.AbelianGroup, "add", "groups.add", record=False)
        wrap(groups.AbelianGroup, "scale", "groups.scale", record=False)
        wrap(dav, "automorphism_group", "groups.automorphism_group", after=count_auts)
        wrap(groups.Automorphism, "element_map", "groups.element_map")

        wrap(dav, "_kmax_items", "sequences.kmax", before=probe_memo)
        wrap(seqs, "k_max", "sequences.k_max")
        wrap(seqs, "k_max_naive", "sequences.k_max_naive")
        wrap(dav, "k_max_naive", "sequences.k_max_naive")
        wrap(seqs, "_zero_sum_subitems", "sequences.zero_sum_subitems", record=False,
             after=count_enumerated)
        wrap(seqs, "_minimal_blocks_with_pivot", "sequences.minimal_blocks", record=False,
             after=count_kept)
        wrap(cli, "load_kmax_cache", "sequences.load_kmax_cache")
        wrap(cli, "save_kmax_cache", "sequences.save_kmax_cache")

        wrap(dav, "davenport_table", "davenport.davenport_table")
        wrap(dav, "eta", "davenport.eta")
        wrap(dav, "_canonical_items", "davenport.canonical_items", before=probe_canon)

        for attr in ("__mul__", "__rmul__"):
            wrap(cyc.CyclotomicNumber, attr, "cyclotomic.mul", record=False)
            wrap(poly.MultiPoly, attr, "polynomials.poly_mul", record=False)
        wrap(cyc.CyclotomicNumber, "inverse", "cyclotomic.inverse", record=False)
        wrap(poly.GradedSpan, "insert", "polynomials.insert", record=False, after=count_grew)
        wrap(poly.GradedSpan, "contains", "polynomials.contains", record=False)
        wrap(poly.GradedSpan, "reduce", "polynomials.reduce", record=False)

        wrap(inv, "beta_k", "invariants.beta_k")
        wrap(cli, "beta_k", "invariants.beta_k")
        wrap(cli, "verify_beta_equals_davenport", "invariants.verify_beta_equals_davenport")
        wrap(inv, "transfer", "invariants.transfer", after=count_zero)
        wrap(inv, "invariant_basis", "invariants.invariant_basis")
        wrap(inv, "_power_span", "invariants.power_span")

        algebra = pres.PresentedGradedAlgebra
        wrap(algebra, "beta_k", "presented.beta_k")
        wrap(algebra, "normal_form", "presented.normal_form")
        wrap(algebra, "ideal_slice", "presented.ideal_slice")
        wrap(algebra, "power_span", "presented.power_span")

        wrap(cli, "main", "cli.main", after=time_subcommand)

    # -- spans ----------------------------------------------------------------------

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "instance"],
                       "spans": self.spans}, fh)

    # -- metrics --------------------------------------------------------------------

    def layer_metrics(self, counts, start_s):
        """Per-layer metrics of this pass.

        ``counts`` holds the counts the pass reads off the library's own
        results (nodes, memo size, slice dimensions); ``start_s`` is the
        time of a bare ``import zerosumlab`` in a fresh interpreter.
        """
        stats, c = self.stats, self.counters

        def calls(name):
            return stats.get(name, (0, 0.0, 0.0))[0]

        def inclusive(name):
            return stats.get(name, (0, 0.0, 0.0))[1]

        def self_time(layer):
            return sum(v[2] for n, v in stats.items() if n.split(".")[0] == layer)

        def ratio(a, b):
            return a / b if b else 0.0

        nodes = counts.get("davenport.nodes", 0)
        out = {
            "groups.add_calls": calls("groups.add"),
            "groups.scale_calls": calls("groups.scale"),
            "groups.aut_s": inclusive("groups.automorphism_group")
            + inclusive("groups.element_map"),
            "groups.aut_count": c["groups.aut_count"],
            "groups.self_s": self_time("groups"),
            "sequences.kmax_s": inclusive("sequences.kmax"),
            "sequences.kmax_calls": calls("sequences.kmax"),
            "sequences.memo_hit_ratio": ratio(c["sequences.memo_hits"],
                                              calls("sequences.kmax")),
            "sequences.memo_entries": counts.get("sequences.memo_entries", 0),
            "sequences.blocks_enumerated": c["sequences.blocks_enumerated"],
            "sequences.minimal_yield": ratio(c["sequences.blocks_kept"],
                                             c["sequences.blocks_enumerated"]),
            "sequences.oracle_s": inclusive("sequences.k_max_naive"),
            "sequences.cache_load_s": inclusive("sequences.load_kmax_cache"),
            "sequences.cache_save_s": inclusive("sequences.save_kmax_cache"),
            "sequences.cache_bytes": counts.get("sequences.cache_bytes", 0),
            "sequences.self_s": self_time("sequences"),
            "davenport.nodes": nodes,
            "davenport.levels": counts.get("davenport.levels", 0),
            "davenport.canon_s": inclusive("davenport.canonical_items"),
            "davenport.canon_calls": calls("davenport.canonical_items"),
            "davenport.dedup_ratio": ratio(nodes, c["davenport.table_canon_calls"]),
            "davenport.scan_self_s": self_time("davenport"),
            "cyclotomic.mul_calls": calls("cyclotomic.mul"),
            "cyclotomic.mul_s": inclusive("cyclotomic.mul"),
            "cyclotomic.inverse_calls": calls("cyclotomic.inverse"),
            "cyclotomic.inverse_s": inclusive("cyclotomic.inverse"),
            "cyclotomic.self_s": self_time("cyclotomic"),
            "polynomials.insert_calls": calls("polynomials.insert"),
            "polynomials.insert_s": inclusive("polynomials.insert"),
            "polynomials.insert_yield": ratio(c["polynomials.insert_grew"],
                                              calls("polynomials.insert")),
            "polynomials.contains_calls": calls("polynomials.contains"),
            "polynomials.reduce_s": inclusive("polynomials.reduce"),
            "polynomials.poly_mul_calls": calls("polynomials.poly_mul"),
            "polynomials.self_s": self_time("polynomials"),
            "invariants.transfer_calls": calls("invariants.transfer"),
            "invariants.transfer_s": inclusive("invariants.transfer"),
            "invariants.transfer_zero_ratio": ratio(c["invariants.transfer_zeros"],
                                                    calls("invariants.transfer")),
            "invariants.basis_s": inclusive("invariants.invariant_basis"),
            "invariants.power_span_s": inclusive("invariants.power_span"),
            "invariants.slice_dims": counts.get("invariants.slice_dims", 0),
            "invariants.self_s": self_time("invariants"),
            "presented.normal_form_calls": calls("presented.normal_form"),
            "presented.normal_form_s": inclusive("presented.normal_form"),
            "presented.ideal_slice_s": inclusive("presented.ideal_slice"),
            "presented.power_span_s": inclusive("presented.power_span"),
            "presented.slice_dims": counts.get("presented.slice_dims", 0),
            "presented.self_s": self_time("presented"),
            "cli.start_s": start_s,
            "cli.self_s": self_time("cli"),
        }
        for sub in ("davenport", "crosscheck", "beta", "ring-beta"):
            out["cli.call_s." + sub] = c["cli.call_s." + sub]
        return out


def import_time(env, runs=3):
    """Median wall time of ``python -c "import zerosumlab"`` in a fresh process."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import zerosumlab"], env=env, check=True,
                       timeout=60)
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]
