"""The benchmark's workloads and the answer gate.

Every instance carries an expected answer that does not come from the
engine being timed: a closed form where a theorem gives one, a literal
"frozen at seed" where none does, or the independent ``k_max_naive``
oracle for the random corpus.  ``build`` is the set-up of a pass (parsing
groups, building representations, algebras and the corpus, copying the
cache); the instances' ``run`` callables are the solve.

Sizes are chosen so that one pass takes one to two and a half seconds on a
2-core machine, which lets one benchmark run repeat the pass eight to sixteen
times within its measuring time and report medians.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys

CACHE_ENV = "ZSL_CACHE_DIR"

# suite._ORACLE_POOL, written out so that the corpus does not move when the
# suite changes.
ORACLE_POOL = ("Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7", "Z8", "Z9", "Z2xZ4", "Z3xZ3")
CORPUS_SIZE = 500
CORPUS_MAX_LENGTH = 8

# suite.GOLDEN["example-ring"]: beta_k of Q[a,b]/(b^3-a^9, a*b^2-a^7), written out.
EXAMPLE_RING = ([("a", 1), ("b", 3)], ["b^3-a^9", "a*b^2-a^7"])
EXAMPLE_RING_BETA = {1: 3, 2: 6, 3: 6, 4: 6}
WEIGHTED_RING = ([("a", 1), ("b", 2), ("c", 3)], ["a*c-b^2"])
TWISTED_CUBIC = ([("a", 1), ("b", 1), ("c", 1), ("d", 1)], ["a*c-b^2", "b*d-c^2", "a*d-b*c"])


# -- closed forms (the expected values the gate compares against) ------------


def d_cyclic(n, k):
    """D_k(Z_n) = k·n."""
    return k * n


def d_rank2(n1, n2, k):
    """D_k(Z_n1 ⊕ Z_n2) = n1 + k·n2 − 1 (Halter-Koch)."""
    return n1 + k * n2 - 1


def d_pgroup(factors):
    """D(A) = 1 + Σ(n_i − 1) for a p-group (Olson)."""
    return 1 + sum(n - 1 for n in factors)


def eta_rank2(n1, n2):
    """η(Z_n1 ⊕ Z_n2) = 2·n1 + n2 − 2."""
    return 2 * n1 + n2 - 2


def beta_dihedral(n, k):
    """β_k of the dihedral group of order 2n on x ↦ ζx, y ↦ ζ⁻¹y, x ↔ y.

    The invariants are the polynomial ring on xy (degree 2) and x^n + y^n
    (degree n), so for n ≥ 2 the top degree outside R_+^{k+1} is k·n.
    """
    return k * max(n, 2)


# -- instances ------------------------------------------------------------------


class Instance:
    """One engine call and the answer it must give.

    ``expected`` is a value, or a callable that computes it with an
    independent oracle at solve time.
    """

    __slots__ = ("label", "run", "expected", "subject")

    def __init__(self, label, run, expected, subject=None):
        self.label = label
        self.run = run
        self.expected = expected
        self.subject = subject  # the representation or algebra whose caches it fills


def child_env(root):
    """Environment for child processes: the library under ``root``, no user cache."""
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


class Env:
    """What a pass knows about its surroundings."""

    def __init__(self, root, scratch, pristine, traced):
        self.scratch = scratch
        self.pristine = pristine
        self.traced = traced
        self.cache_dir = None
        self.child_env = child_env(root)


def _add_search_stats(counts, stats):
    for name in ("nodes", "levels"):
        counts["davenport." + name] = counts.get("davenport." + name, 0) + stats[name]


def _scan(zsl, A, k_upto, counts, budget_seconds=None):
    reports = zsl.davenport.davenport_table(A, k_upto, budget_seconds=budget_seconds)
    _add_search_stats(counts, reports[0].search_stats)
    return [r.value_Dk for r in reports]


def _scan_instance(zsl, spec, k_upto, expected, budget_seconds=None):
    A = zsl.groups.parse_groupspec(spec)
    label = f"D_1..{k_upto}({spec})" if k_upto > 1 else f"D_1({spec})"
    return Instance(label, lambda counts: _scan(zsl, A, k_upto, counts, budget_seconds),
                    expected)


def _eta_instance(zsl, spec, expected):
    A = zsl.groups.parse_groupspec(spec)
    return Instance(f"eta({spec})", lambda counts: zsl.davenport.eta(A), expected)


def _beta_instance(zsl, label, rep, k, expected):
    return Instance(f"beta_{k}({label})",
                    lambda counts: zsl.invariants.beta_k(rep, k)["beta"], expected, rep)


def _ring_instance(zsl, label, algebra, k, cutoff, expected):
    return Instance(f"beta_{k}({label}, cutoff {cutoff})",
                    lambda counts: algebra.beta_k(k, cutoff=cutoff)["beta"], expected,
                    algebra)


def _corpus(zsl, seed):
    """CORPUS_SIZE seeded random sequences over the oracle pool groups."""
    rng = random.Random(seed)
    pool = [zsl.groups.parse_groupspec(s) for s in ORACLE_POOL]
    out = []
    for i in range(CORPUS_SIZE):
        A = rng.choice(pool)
        elems = A.elements()
        seq = zsl.sequences.Sequence.from_elements(
            A, [rng.choice(elems) for _ in range(rng.randint(0, CORPUS_MAX_LENGTH))])
        out.append(Instance(f"corpus[{i}] {A.spec()} {seq.literal()}",
                            lambda counts, s=seq: zsl.sequences.k_max(s),
                            lambda s=seq: zsl.sequences.k_max_naive(s)))
    return out


def zsl_call(zsl, env, argv, answer_of, expected, cache_dir=None):
    """An Instance that runs one ``zsl`` command and reads its JSON answer.

    Untraced, the command runs as ``python -m zerosumlab.cli`` in a fresh
    process, as a user would run ``zsl``.  Traced, ``cli.main`` runs in this
    process so that the tracer sees the layers beneath it; the k_max memo
    and the environment are set as a fresh process would have them and put
    back afterwards.
    """

    def run(counts):
        if env.traced:
            memo = zsl.sequences._KMAX_MEMO
            saved = dict(memo)
            memo.clear()
            if cache_dir is not None:
                os.environ[CACHE_ENV] = cache_dir
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    code = zsl.cli.main(list(argv))
            finally:
                os.environ.pop(CACHE_ENV, None)
                memo.clear()
                memo.update(saved)
            text = out.getvalue()
        else:
            child_env = dict(env.child_env)
            if cache_dir is not None:
                child_env[CACHE_ENV] = cache_dir
            proc = subprocess.run([sys.executable, "-m", "zerosumlab.cli", *argv],
                                  env=child_env, capture_output=True, text=True,
                                  timeout=170)
            code, text = proc.returncode, proc.stdout
        if code != 0:
            raise RuntimeError(f"zsl {' '.join(argv)} exited with code {code}")
        payload = json.loads(text)
        if "search_stats" in payload:
            _add_search_stats(counts, payload["search_stats"])
        return answer_of(payload)

    return Instance("zsl " + " ".join(argv), run, expected)


def _value_dk(payload):
    return payload["value_Dk"]


def _beta(payload):
    return payload["beta"]


def _crosscheck(payload):
    return [payload["beta"], payload["davenport"], payload["passed"]]


def _table(payload):
    return [row["value_Dk"] for row in payload["rows"]]


# -- the workloads ------------------------------------------------------------------


def dk_cyclic(zsl, seed, env):
    """The k_max engine and tuple group arithmetic; |Aut| is tiny."""
    return [
        _scan_instance(zsl, "Z6", 3, [d_cyclic(6, k) for k in (1, 2, 3)]),
        _scan_instance(zsl, "Z11", 1, [d_cyclic(11, 1)], budget_seconds=600),
    ] + _corpus(zsl, seed)


def dk_symmetric(zsl, seed, env):
    """Canonicalisation over Aut(A) of order 48 to 192."""
    return [
        _scan_instance(zsl, "Z3xZ3", 2, [d_rank2(3, 3, k) for k in (1, 2)]),
        # D_2, D_3(Z2^3): no closed form applies; frozen at seed
        _scan_instance(zsl, "Z2xZ2xZ2", 3, [d_pgroup((2, 2, 2)), 7, 9]),
        _scan_instance(zsl, "Z2xZ2xZ4", 1, [d_pgroup((2, 2, 4))]),
        _eta_instance(zsl, "Z2xZ2xZ2", 8),
        _eta_instance(zsl, "Z3xZ3", eta_rank2(3, 3)),
    ]


def beta_invariant(zsl, seed, env):
    """Transfers and cyclotomic arithmetic; diagonal and permuting actions."""
    inv, parse = zsl.invariants, zsl.groups.parse_groupspec

    def reg(spec):
        return inv.regular_representation(parse(spec))

    def ind(spec):
        return inv.induced_module(parse(spec))

    # beta_k(reg A) = D_k(A), and D_k from its closed form
    return [
        _beta_instance(zsl, "reg Z6", reg("Z6"), 1, d_cyclic(6, 1)),
        _beta_instance(zsl, "reg Z5", reg("Z5"), 1, d_cyclic(5, 1)),
        _beta_instance(zsl, "reg Z4", reg("Z4"), 2, d_cyclic(4, 2)),
        _beta_instance(zsl, "reg Z2xZ2", reg("Z2xZ2"), 2, d_rank2(2, 2, 2)),
        # SD(7,2,6) and az2(10,10) are dihedral groups on x, y
        _beta_instance(zsl, "ind SD(7,2,6)", ind("SD(7,2,6)"), 1, beta_dihedral(7, 1)),
        _beta_instance(zsl, "ind SD(7,2,6)", ind("SD(7,2,6)"), 2, beta_dihedral(7, 2)),
        _beta_instance(zsl, "az2(10,10)", inv.az2_module(10, 10), 1, beta_dihedral(10, 1)),
    ]


def ring_presented(zsl, seed, env):
    """GradedSpan reduction with rational coefficients; no transfer."""
    algebra = zsl.presented.PresentedGradedAlgebra
    example = algebra(*EXAMPLE_RING)
    weighted = algebra(*WEIGHTED_RING)
    cubic = algebra(*TWISTED_CUBIC)
    return [
        _ring_instance(zsl, "example ring", example, k, 30, EXAMPLE_RING_BETA[k])
        for k in (1, 2, 3, 4)
    ] + [
        # frozen at seed
        _ring_instance(zsl, "Q[a,b,c]/(ac-b^2), weights 1,2,3", weighted, 2, 17, 6),
        # generated in degree 1, so beta_k = k
        _ring_instance(zsl, "twisted cubic", cubic, 2, 6, 2),
    ]


PRISTINE_CALLS = (
    (("dk-table", "Z6", "--k-upto", "3"), _table, [d_cyclic(6, k) for k in (1, 2, 3)]),
    (("davenport", "Z11", "--budget-seconds", "600"), _value_dk, d_cyclic(11, 1)),
)


def fresh_cache(env):
    """Copy the pristine cache: every zsl call rewrites the file."""
    cache_dir = os.path.join(env.scratch, f"cache-{os.getpid()}")
    os.makedirs(cache_dir)
    for name in os.listdir(env.pristine):
        shutil.copyfile(os.path.join(env.pristine, name), os.path.join(cache_dir, name))
    env.cache_dir = cache_dir
    return cache_dir


def cli_warm_cache(zsl, seed, env):
    """The read side of the k_max memo: every call loads and rewrites it."""
    cache_dir = fresh_cache(env)
    calls = [
        (("davenport", "Z6", "--k", "3"), _value_dk, d_cyclic(6, 3)),
        (("davenport", "Z11", "--budget-seconds", "60"), _value_dk, d_cyclic(11, 1)),
        (("crosscheck", "Z2xZ2", "--k", "2"), _crosscheck,
         [d_rank2(2, 2, 2), d_rank2(2, 2, 2), True]),
        (("beta", "reg(Z5)"), _beta, d_cyclic(5, 1)),
        (("ring-beta", "--gens", "a:1,b:3", "--rels", "b^3-a^9, a*b^2-a^7",
          "--k", "2", "--cutoff", "30"), _beta, EXAMPLE_RING_BETA[2]),
    ]
    return [zsl_call(zsl, env, argv, answer_of, expected, cache_dir=cache_dir)
            for argv, answer_of, expected in calls]


def smoke(zsl, seed, env):
    """Tiny instances of every kind, for the smoke test."""
    example = zsl.presented.PresentedGradedAlgebra(*EXAMPLE_RING)
    reg3 = zsl.invariants.regular_representation(zsl.groups.parse_groupspec("Z3"))
    return [
        _scan_instance(zsl, "Z3", 2, [d_cyclic(3, k) for k in (1, 2)]),
        _beta_instance(zsl, "reg Z3", reg3, 1, d_cyclic(3, 1)),
        _ring_instance(zsl, "example ring", example, 1, 8, EXAMPLE_RING_BETA[1]),
        zsl_call(zsl, env, ("davenport", "Z3"), _value_dk, d_cyclic(3, 1)),
    ]


# name -> (build, reads the pristine cache instead of starting from a cold memo)
WORKLOADS = {
    "dk-cyclic": (dk_cyclic, False),
    "dk-symmetric": (dk_symmetric, False),
    "beta-invariant": (beta_invariant, False),
    "ring-presented": (ring_presented, False),
    "cli-warm-cache": (cli_warm_cache, True),
    "smoke": (smoke, False),
}


def final_counts(zsl, instances, env, counts):
    """Counts read off the library's state after a pass; they must repeat exactly."""
    counts["sequences.memo_entries"] = len(zsl.sequences._KMAX_MEMO)
    subjects = {id(inst.subject): inst.subject for inst in instances if inst.subject is not None}
    basis, spans = [], []
    for subject in subjects.values():
        if isinstance(subject, zsl.invariants.MonomialRep):
            basis.append(sorted((d, s.dim) for d, s in subject._basis_cache.items()))
        else:
            spans.append(sorted((d, s.dim) for d, s in subject._span_cache.items()))
    counts["invariants.slice_dims"] = sum(dim for dims in basis for _, dim in dims)
    counts["presented.slice_dims"] = sum(dim for dims in spans for _, dim in dims)
    counts["slice_dims_by_degree"] = basis + spans
    if env.cache_dir is not None:
        counts["sequences.cache_bytes"] = os.path.getsize(
            os.path.join(env.cache_dir, zsl.sequences._CACHE_FILE))
    return counts
