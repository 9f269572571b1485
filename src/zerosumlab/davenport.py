"""Exact D_k(A), d_k(A), η(A), σ values and eventual-linearity profiles.

D_k and η come out of one frontier scan (``_levels``), which walks lengths
upward keeping at each length the multisets over A∖{0} (one per
Aut(A)-orbit, or all of them; see below) whose value stays below a limit.
The value is the recurrence of the oracle ``k_max_naive``, with the
zero-sum term capped by length:

    v(∅) = 0,  v(C) = [σ(C) = 0 and |C| ≤ cap] + max over x ∈ C of v(C − x).

With no cap v is k_max, and D_k keeps v < k (k = k_upto; a table that
stops at k = 1 keeps the zero-sum-free multisets).  With cap = exp(A) and
limit 1, v(C) = 0 says that C has no non-empty zero-sum block of length
≤ exp(A), which is η's test.  v never falls when an entry is added, so the
kept set is closed under sub-multisets: every kept multiset of length n
extends a kept one of length n−1, and C can be kept only if every parent
C − x was.  So C is decided from the previous level alone, with no k_max
engine and no memo.  D_k and η are the first length with nothing kept.
The D_k scan is bounded a priori by k·D(A) ≤ k·|A|; the η scan keeps fewer
than exp(A) copies of each element, so it ends by length
(|A|−1)·(exp(A)−1) + 1.  Zero entries are handled analytically: each is
exactly one block, and appending a non-zero entry to a zero-free bad
sequence shows zeros never lengthen extremal sequences, so the search runs
over A∖{0}.  The scans work on element indices (see ``sequences``) and
decode only the reported witness.

``_levels`` keys each multiset C by one int, its code Σ c_x·2^(w·x) over
the counts c_x of C: one w-bit digit per element, so 1^2·3 is
2 + 2^(3w).  The digit width is w = (limit·exp(A)).bit_length().  A kept C
has v(C) < limit, while v(x^(limit·ord(x))) = limit: it counts the
zero-sum prefixes x^(j·ord(x)), j ≤ limit, all within the cap (the scans'
cap is None or at least limit·exp(A)).  As v never falls, C holds fewer
than limit·ord(x) copies of each x, and a candidate one more, at most
limit·exp(A) < 2^w.  So no
digit overflows and codes add as multisets do: P + x is the code of P plus
W[x] = 2^(w·x).  A code takes |A|·w bits, and each addition and hash of
it costs time in that size, where an index tuple's cost grew with the
multiset's length instead.  So the scans refuse, before level 1, a group
whose codes would pass ``CODE_BITS`` = 1024 bits, 35 Python digits; the
widest scan in the tests and CI, D(Z4^3), takes 192.  Codes wider than
61 bits hash less evenly than index tuples did (Python folds an int mod
2^61 − 1, so digits 61 bits apart land on the same bits), which costs
time on very large levels, such as D(Z4^3)'s six million at length 5.

The scan takes one of two paths.  The identity path
(``_identity_levels``) keeps every multiset, with no symmetry reduction:
each C is built once, as P + g from its parent P = C − max(C), with
g ≥ max(P), and every other parent C − x = (P − x) + g is looked up in
the previous level.  This is McKay's canonical construction path under
the trivial group.  On codes P + g is one addition, the heads P − x are
built once per P from the non-zero digits of its code, and each lookup
is one more addition and the hash of one int; σ of each survivor is kept
beside it, so no multiset is walked.  The symmetric path
(``_symmetric_levels``) keeps one multiset per Aut(A)-orbit, its least
image, and is described below.  It works on int runs, which its
canonicaliser and credits need, and codes only the survivors it keeps,
|Aut(A)|-fold fewer, as it yields them.  ``_levels`` takes the identity
path (``_identity_path``) for every A of order at most
``GUARANTEED_ORDER``, the groups scanned with no budget, whose Aut(A) is
then neither counted nor listed.  Each path forced in turn, on D_1..3
to order 9, D_1..2 above it and η, the identity path was as fast or
faster on every such group, even where Aut(A) cuts the candidates
20,160-fold (η(Z2^4): 0.1 s against 1.5 s): a candidate costs it one
int addition and one lookup, and a least image costs far more.  It loses
at larger k: D_1..3(Z2×Z2×Z4) and D_1..3(Z4×Z4) take about 20 % more
time and 3–4× the memory on it, and D_1..5(Z2^3) a few ms more.  Above
that order the symmetric path wins on D(Z3^3), D(Z5×Z5) and D(Z6×Z6),
and the identity path runs only when Aut(A), counted in closed form,
has at most ``_IDENTITY_MAX_MAPS`` elements or its listing is refused.
Aut(A) is listed only for the symmetric path.
Both paths report the same D_k, η, witnesses and lengths; only the node
counts differ.  v is constant on orbits, so the identity path's
survivors are the whole orbits of the symmetric path's, and a level is
empty on one path iff it is on the other.  The reported witness is the
least survivor of a level with v < k in the order of int runs
(``davenport_table`` decodes the codes of that level), which is not the
order of sorted index tuples: (1, 1, 1, 4) < (1, 4, 5, 5), but
1·4·5^2 < 1^3·4 as runs.  On the identity path that survivor is the
least image of its own orbit, so it is the least such canonical
survivor, the one the symmetric path reports.

Canonical forms are least images under Aut(A), found from an orbit table
(``_OrbitTable`` of ``_canonical_maps``): cols[x] is the image of x under
every automorphism, leader[x] the least of them (the least element of x's
orbit) and to_leader[x] the positions of the automorphisms that send x
there.  Three arguments keep the symmetric path exact while skipping work:

* The least image of a multiset starts with the run (t*, m0), t* the least
  leader over its support and m0 the least multiplicity among the support
  elements led by t*.  Every map reaching the least image sends one of
  those tied elements to t*, so only the maps at their to_leader positions
  are scanned (``_canonical_items``).  Each scores its image by one int in
  base s, the largest multiplicity + 1, whose digit at a point y is s − c
  for a run (y, c) and 0 for a missing y.  Two images first differ, as run
  lists and as digits, at the first point whose counts differ, where a
  point present beats one absent and the smaller count the larger: the
  largest score marks the least image, and the maps scoring it the ties.
  The maps T that send C to its least image L (the ``ties`` of
  ``_canonical_items``) form the coset Stab(L)·t for any t in T (m is in
  T iff m·t⁻¹ fixes L), so |T| = |Stab(L)| and, for every h,
  {m(h) : m ∈ T} = {s(t(h)) : s ∈ Stab(L)} is the Stab(L)-orbit of t(h).
* For p in Stab(P), P + g = p(P + g′) with g′ = p⁻¹(g), so P + g and
  P + g′ share a canonical form.  Only the least g of each Stab(P)-orbit
  (a "first") is appended, and each candidate is examined once, in the
  order it is first met.  The scan keeps the ties T of every kept item P
  whose stabiliser is not trivial, from when P was a candidate, and reads
  its firsts off them: g = t(h) is a first iff it is the least of
  {m(h) : m ∈ T}, with no inverse map and no second canonicalisation.
* Whether every parent of C was kept comes from counting, not from
  canonicalising each C − x.  Each kept P and first g with can(P + g) = C
  credits C with |Aut| / |Stab(P)_g|, the size of the Aut-orbit of the
  pair (P, g); Stab(P)_g fixes P and g.  Count the pairs (D, y) with
  can(D) kept and D + y in the orbit of C in two ways: by Aut-orbits of
  pairs, each holding exactly one (P, first g) above, and by the
  |Aut| / |Stab(C)| images of C, each of which splits as D + y in one way
  per x ∈ supp C with C − x kept.
  So the credits of C add up to (|Aut| / |Stab(C)|)·#{x : C − x kept}, and
  every parent was kept iff they reach |supp C|·|Aut| / |Stab(C)|.  Every
  kept parent's orbit holds some such P, so the max over parents is the
  max of v(P) over the same pairs.  Each orbit is examined once, as in
  McKay's isomorph-free generation (J. Algorithms 26, 1998), though with
  no canonical construction path: a candidate met again only collects
  credit.
"""

from __future__ import annotations

import math
import time

from .errors import CapacityError, DomainError, VerificationError
from .groups import AbelianGroup, automorphism_count, automorphism_group, subgroup_embeddable
from .sequences import (
    Sequence,
    _OrbitTable,
    _canonical_items,
    _items_add_one,
    _kmax_items,  # no scan calls it; perfbench's tracer wraps it here
    _to_elements,
    k_max_naive,
)

GUARANTEED_ORDER = 16  # larger groups require an explicit time budget
CODE_BITS = 1024  # most bits of a multiset code, |A|·w (see the module docstring)
# larger groups with at most this many automorphisms are scanned with no
# symmetry reduction: canonicalising costs them more than it saves
_IDENTITY_MAX_MAPS = 24


class DavenportReport:
    """Result of one D_k computation, with the extremal witness."""

    __slots__ = ("group", "k", "value_Dk", "value_dk", "extremal_witness", "search_stats")

    def __init__(self, group, k, value_Dk, extremal_witness, search_stats):
        self.group = group
        self.k = k
        self.value_Dk = value_Dk
        self.value_dk = value_Dk - 1
        self.extremal_witness = extremal_witness
        self.search_stats = search_stats

    def as_dict(self):
        return {
            "group": self.group.spec(),
            "k": self.k,
            "value_Dk": self.value_Dk,
            "value_dk": self.value_dk,
            "extremal_witness": self.extremal_witness.literal(),
            "search_stats": self.search_stats,
        }

    def __repr__(self):
        return (
            f"DavenportReport({self.group.spec()}, k={self.k}, "
            f"D_k={self.value_Dk}, witness={self.extremal_witness.literal()})"
        )


class LinearityProfile:
    """Observed behaviour of k ↦ D_k: slope, onset k0 and offset D0."""

    __slots__ = ("group", "slope", "k0", "D0", "table", "status")

    def __init__(self, group, slope, k0, D0, table, status):
        self.group = group
        self.slope = slope
        self.k0 = k0
        self.D0 = D0
        self.table = table
        self.status = status

    def as_dict(self):
        return {
            "group": self.group.spec(),
            "slope": self.slope,
            "k0": self.k0,
            "D0": self.D0,
            "table": [list(row) for row in self.table],
            "status": self.status,
        }


def _canonical_maps(A: AbelianGroup):
    """Aut(A) as permutations of element indices, the identity first and
    none repeated; None when the listing is refused (CapacityError)."""
    try:
        perms = [aut.perm for aut in automorphism_group(A)]
    except CapacityError:
        return None
    return list(dict.fromkeys([tuple(range(A.order)), *perms]))


def _check_budget(budget_seconds):
    if budget_seconds is not None and not 0 < budget_seconds < math.inf:  # NaN never trips
        raise DomainError(f"budget must be finite and positive, got {budget_seconds}")


def _require_capacity(A: AbelianGroup, limit, budget_seconds):
    _check_budget(budget_seconds)
    bits = A.order * _digit_width(A, limit)
    if bits > CODE_BITS:
        raise CapacityError(f"scans code a multiset in at most {CODE_BITS} bits "
                            f"(attempted |A|·w = {bits} for {A.spec()})", limit=CODE_BITS)
    if A.order > GUARANTEED_ORDER and budget_seconds is None:
        raise CapacityError(
            f"groups of order > {GUARANTEED_ORDER} need an explicit time budget "
            f"(attempted |A| = {A.order})",
            limit=GUARANTEED_ORDER,
        )


def _firsts(ties, order):
    """(g, credit) for each first g of L, sorted by g, from the ``ties`` of
    some C with least image L.  The images m(h), m in ``ties``, are the
    Stab(L)-orbit of g = t(h), t = ties[0]; g is a first iff it is their
    least, credited |Aut| / |Stab(L)_g| = ``order``·|orbit| / |ties|.
    """
    t = ties[0]
    return sorted([(t[h], order * len(set(orbit)) // len(ties))
                   for h, orbit in enumerate(zip(*ties)) if h and min(orbit) == t[h]])


def _digit_width(A: AbelianGroup, limit):
    """The bits w of one digit of a multiset code: a candidate holds at
    most limit·exp(A) copies of an element (see the module docstring)."""
    return (limit * A.exponent).bit_length()


def _encode(runs, width):
    """The code Σ c·2^(width·x) of the int runs ``runs``."""
    return sum([mult << width * x for x, mult in runs])


def _decode(code, width):
    """The int runs of ``code``, one step per non-zero digit: its lowest
    set bit lies in its least element's digit, which is then cleared."""
    full = (1 << width) - 1
    runs = []
    while code:
        shift = (code & -code).bit_length() - 1
        shift -= shift % width
        mult = code >> shift & full
        runs.append((shift // width, mult))
        code -= mult << shift
    return tuple(runs)


def _sigma(runs, sums):
    """σ of the int runs ``runs``, as an element index."""
    total = 0
    for x, mult in runs:
        row = sums[x]
        for _ in range(mult):
            total = row[total]
    return total


def _budget_clock(A: AbelianGroup, budget_seconds, partial):
    """The scans' budget check, called each time the node count passes a
    multiple of 256, with the length being built: past ``budget_seconds``
    from now it raises CapacityError carrying ``partial``."""
    t0 = time.monotonic()

    def check(length):
        if budget_seconds is not None and time.monotonic() - t0 > budget_seconds:
            raise CapacityError(
                f"time budget of {budget_seconds}s exhausted at "
                f"length {length} for {A.spec()}",
                limit=budget_seconds,
                partial=partial,
            )

    return check


def _identity_path(A: AbelianGroup):
    """Whether the scans of A skip symmetry: every A of order at most
    ``GUARANTEED_ORDER``, which is neither counted nor listed, and above
    it every A with at most ``_IDENTITY_MAX_MAPS`` automorphisms, counted
    in closed form (see the module docstring)."""
    return A.order <= GUARANTEED_ORDER or automorphism_count(A) <= _IDENTITY_MAX_MAPS


def _levels(A: AbelianGroup, limit, cap, budget_seconds, partial):
    """The frontier scan behind D_k and η: yields (length, survivors, nodes)
    for lengths 1, 2, … up to and including the first empty level.

    ``survivors`` maps each multiset of that length with every parent kept
    and v < ``limit``, as its code (digit width ``_digit_width(A, limit)``),
    to its v, the value of the module docstring with the zero-sum term
    counted up to length ``cap``: None (no cap), or at least
    ``limit``·exp(A), so that the digits hold every count.  They are all
    of them on the identity path, which runs where ``_identity_path(A)``
    holds or the listing of Aut(A) is refused, and the canonical ones on
    the symmetric path otherwise; Aut(A) is listed only for the symmetric
    path.  ``nodes`` counts the candidates examined so far.  The clock is
    read each time ``nodes`` passes a multiple of 256; past
    ``budget_seconds`` the scan raises CapacityError carrying ``partial``.
    """
    _require_capacity(A, limit, budget_seconds)
    check = _budget_clock(A, budget_seconds, partial)
    maps = None if _identity_path(A) else _canonical_maps(A)
    if maps is None:
        yield from _identity_levels(A, limit, cap, check)
    else:
        yield from _symmetric_levels(A, _OrbitTable(maps, range(A.order)), limit, cap, check)


def _identity_levels(A: AbelianGroup, limit, cap, check):
    """``_levels`` with no symmetry: each multiset C is built once, as
    P + g from P = C − max(C), for every kept P and g ≥ max(P); it is
    kept iff every other parent C − x is a survivor of the previous level
    and v(C) < ``limit``.  ``nodes`` counts the candidates so built.

    On codes P + g is ``code + W[g]``, and the parents of P + g are the
    heads P − x, one per x in supp(P), each plus W[g]; the head of
    x = max(P) gives P itself when g = max(P).  The heads are found once
    per P, from the non-zero digits of its code.  σ of each survivor is
    appended to ``sigmas`` as it is inserted, so the two stay in step.
    """
    width = _digit_width(A, limit)
    W = [1 << width * x for x in range(A.order)]
    # digit x of ((code & low) + low) | code has its top bit set iff digit
    # x of code is not zero; no digit of (code & low) + low carries over
    low = sum(W) * ((1 << width - 1) - 1)
    high = sum(W) << width - 1
    sums = A.sums()
    minus = [A.index(A.neg(A.element(x))) for x in range(A.order)]
    survivors, sigmas = {0: 0}, [0]
    length = nodes = 0
    while survivors:
        length += 1
        counts_zero = cap is None or length <= cap
        frontier, survivors = survivors, {}
        frontier_sigmas, sigmas = sigmas, []
        kept = frontier.get
        for (code, value), total in zip(frontier.items(), frontier_sigmas):
            row = sums[total]
            # σ(P + g) = 0 iff g = zero_at; no g ≥ 1 is 0
            zero_at = minus[total] if counts_zero else 0
            heads = []
            tops = ((code & low) + low | code) & high
            while tops:
                bit = tops & -tops
                heads.append(code - (bit >> width - 1))
                tops ^= bit
            top = (code.bit_length() - 1) // width if code else 1
            before = nodes
            nodes += A.order - top
            if nodes >> 8 != before >> 8:
                check(length)
            for g in range(top, A.order):
                zero = g == zero_at
                if value + zero >= limit:
                    continue
                step = W[g]
                best = value
                for head in heads:
                    other = kept(head + step)
                    if other is None:
                        break
                    if other > best:
                        best = other
                else:
                    if best + zero < limit:
                        survivors[code + step] = best + zero
                        sigmas.append(row[g])
        yield length, survivors, nodes


def _symmetric_levels(A: AbelianGroup, table, limit, cap, check):
    """``_levels`` up to Aut(A), whose maps ``table`` indexes: the canonical
    survivors, with every distinct canonical candidate counted in ``nodes``.

    Each candidate holds one int, missing·(limit + 1) + best: ``missing``
    is the credit it still lacks and ``best`` the largest v(P) + [σ = 0]
    over the pairs met so far, which is v(C) once nothing is missing.
    ``cosets`` holds the ties of each kept item that has more than one.
    The survivors are yielded keyed by their codes (``_encode``), the one
    format of ``_levels``.
    """
    width = _digit_width(A, limit)
    order = len(table.maps)
    sums = A.sums()
    base = limit + 1
    plain = [(g, order) for g in range(1, A.order)]  # the firsts of a trivial Stab
    survivors = {(): 0}
    cosets = {(): table.maps}  # every map fixes the empty item
    length = nodes = 0
    while survivors:
        length += 1
        counts_zero = cap is None or length <= cap
        frontier, cands, cand_cosets = survivors, {}, {}
        for items, value in frontier.items():
            total = _sigma(items, sums)
            coset = cosets.get(items)
            for g, credit in plain if coset is None else _firsts(coset, order):
                cand, ties = _canonical_items(_items_add_one(items, g), table)
                best = value + (counts_zero and sums[g][total] == 0)
                packed = cands.get(cand)
                if packed is None:
                    nodes += 1
                    if nodes % 256 == 0:
                        check(length)
                    if len(ties) > 1:
                        cand_cosets[cand] = ties
                    # |ties| = |Stab(C)|: C is owed |supp C|·|Aut| / |Stab(C)|
                    cands[cand] = (len(cand) * order // len(ties) - credit) * base + best
                else:
                    packed -= credit * base
                    if best > packed % base:
                        packed += best - packed % base
                    cands[cand] = packed
        survivors = {cand: packed for cand, packed in cands.items() if packed < limit}
        cosets = {cand: ties for cand, ties in cand_cosets.items() if cand in survivors}
        yield length, {_encode(cand, width): value for cand, value in survivors.items()}, nodes


def davenport_table(A: AbelianGroup, k_upto: int, budget_seconds=None):
    """D_1 … D_{k_upto} in one shared frontier scan.

    ``search_stats["nodes"]`` counts the candidates examined, summed over
    all levels: on the symmetric path the distinct canonical candidates,
    on the identity path every P + g built from a kept P with g ≥ max(P)
    (see the module docstring).

    The witness is the least survivor with v < k in the order of int runs,
    so the codes with v < k of the level before the resolving one are
    decoded (``_decode``, one step per element of the support).

    >>> [r.value_Dk for r in davenport_table(AbelianGroup((3,)), 2)]
    [3, 6]
    """
    if k_upto < 1:
        raise DomainError(f"k must be >= 1, got {k_upto}")

    if A.rank == 0:
        # all-zero sequences: k_max equals the length, so D_k = k exactly
        _check_budget(budget_seconds)
        reports = []
        for k in range(1, k_upto + 1):
            witness = Sequence(A, (((), k - 1),)) if k > 1 else Sequence.empty(A)
            reports.append(
                DavenportReport(A, k, k, witness, {"nodes": 0, "levels": 0, "seconds": 0.0})
            )
        return reports

    t0 = time.monotonic()
    cutoff = k_upto * A.order + 1
    width = _digit_width(A, k_upto)
    resolved_D: dict[int, int] = {}
    witnesses: dict[int, tuple] = {}
    previous = {0: 0}
    for level, survivors, nodes in _levels(A, k_upto, None, budget_seconds, resolved_D):
        if level > cutoff:
            raise VerificationError(
                f"scan passed the certified cutoff {cutoff} for {A.spec()}; "
                "this contradicts D_k <= k·|A|"
            )
        # no length-`level` sequence avoids k disjoint blocks once k - 1 is
        # below every surviving k_max; the witness is the least bad one of
        # the previous length, in run order
        for k in range(len(resolved_D) + 1, min(survivors.values(), default=k_upto) + 1):
            resolved_D[k] = level
            witnesses[k] = min(_decode(code, width) for code, km in previous.items() if km < k)
        previous = survivors

    seconds = time.monotonic() - t0
    reports = []
    for k in range(1, k_upto + 1):
        witness = Sequence(A, _to_elements(A, witnesses[k]))
        # post-hoc: the stored extremal witness really has no k disjoint blocks
        if k_max_naive(witness) > k - 1:
            raise VerificationError(
                f"witness re-verification failed for {A.spec()}, k={k}",
                evidence=witness,
            )
        stats = {"nodes": nodes, "levels": level, "seconds": round(seconds, 6)}
        reports.append(DavenportReport(A, k, resolved_D[k], witness, stats))
    return reports


def davenport_k(A: AbelianGroup, k: int = 1, budget_seconds=None) -> DavenportReport:
    """D_k(A) with extremal witness and stats.

    >>> davenport_k(AbelianGroup((3,)), 1).value_Dk
    3
    """
    return davenport_table(A, k, budget_seconds=budget_seconds)[k - 1]


def eta(A: AbelianGroup, budget_seconds=None) -> int:
    """Least ℓ such that every length-ℓ sequence over A contains a
    non-empty zero-sum block of length at most exp(A).

    >>> eta(AbelianGroup((2, 2)))
    4
    """
    # limit 1 and cap exp(A): a kept multiset has no short zero-sum block
    levels = _levels(A, 1, A.exponent, budget_seconds, None)
    return next(level for level, survivors, _ in levels if not survivors)


def sigma_abelian(A: AbelianGroup) -> int:
    """σ(A) = exp(A) for abelian groups.

    >>> sigma_abelian(AbelianGroup((2, 4)))
    4
    """
    return A.exponent


def _min_zero_sum_length(A: AbelianGroup, steps) -> int:
    """Shortest non-empty zero-sum sequence with support inside ``steps``
    (element indices), by breadth-first search over partial sums."""
    from collections import deque

    rows = [A.sums()[t] for t in steps]
    queue = deque([(0, 0)])
    seen = set()
    while queue:
        x, dist = queue.popleft()
        for row in rows:
            y = row[x]
            if y == 0:
                return dist + 1
            if y not in seen:
                seen.add(y)
                queue.append((y, dist + 1))
    raise VerificationError(f"no zero-sum combination over element indices {steps!r}")


def sigma_diagonal(A: AbelianGroup, chars) -> int:
    """σ of the diagonal action by the listed characters (via A ≅ Â).

    Maximum over non-empty subsets T of the least length of a non-empty
    zero-sum sequence supported inside T; cross-checked against the
    maximal order of a single listed character.

    >>> sigma_diagonal(AbelianGroup((6,)), [(2,), (3,)])
    3
    """
    chars = [A.check(c) for c in chars]
    if not chars:
        raise DomainError("sigma_diagonal needs at least one character")
    distinct = sorted({A.index(c) for c in chars})
    if len(distinct) > 16:
        raise CapacityError("subset scan limited to 16 distinct characters", limit=16)
    best = 0
    for mask in range(1, 1 << len(distinct)):
        T = [distinct[i] for i in range(len(distinct)) if mask >> i & 1]
        best = max(best, _min_zero_sum_length(A, T))
    expected = max(A.element_order(c) for c in chars)
    if best != expected:
        raise VerificationError(
            f"subset scan gave {best} but the maximal character order is {expected}"
        )
    return best


def linearity_profile(A: AbelianGroup, k_upto: int, budget_seconds=None) -> LinearityProfile:
    """Detect D_k = k·exp(A) + D0 for k ≥ k0 within the computed range.

    Reports status "undetermined" (k0 = D0 = None) when the final
    increment differs from exp(A) — no extrapolation.

    >>> linearity_profile(AbelianGroup((2, 2)), 4).D0
    1
    """
    if k_upto < 2:
        raise DomainError(f"linearity detection needs k_upto >= 2, got {k_upto}")
    reports = davenport_table(A, k_upto, budget_seconds=budget_seconds)
    table = [(r.k, r.value_Dk) for r in reports]
    slope = A.exponent
    k0 = None
    for start in range(1, k_upto):
        if all(table[k][1] - table[k - 1][1] == slope for k in range(start, k_upto)):
            k0 = start
            break
    if k0 is None:
        return LinearityProfile(A, slope, None, None, table, "undetermined")
    D0 = table[-1][1] - k_upto * slope
    return LinearityProfile(A, slope, k0, D0, table, "stabilized")


def verify_inequalities(A: AbelianGroup, profile: LinearityProfile) -> dict:
    """Check the general inequalities on a computed D_k table.

    Instances: monotonicity D_k ≤ D_{k+1}; the trivial bound D_k ≤ k·D_1;
    r·D_k ≤ k·D_r for r ≤ k; the lower bound D_k ≥ k·exp(A); and the step
    bound D_{k+1} ≤ D_k + exp(A) from the observed onset k0 on.
    """
    table = dict(profile.table)
    exp = A.exponent
    instances = []

    def record(name, params, lhs, rhs, ok):
        instances.append(
            {"name": name, "params": params, "lhs": lhs, "rhs": rhs, "passed": ok}
        )

    ks = sorted(table)
    for k in ks[:-1]:
        record("monotone", {"k": k}, table[k], table[k + 1], table[k] <= table[k + 1])
    for k in ks:
        record("trivial", {"k": k}, table[k], k * table[1], table[k] <= k * table[1])
        record("lower-sigma", {"k": k}, k * exp, table[k], table[k] >= k * exp)
    for r in ks:
        for k in ks:
            if r < k:
                # D_k <= (k/r)·D_r, cross-multiplied to stay in integers
                record(
                    "k-over-r",
                    {"k": k, "r": r},
                    r * table[k],
                    k * table[r],
                    r * table[k] <= k * table[r],
                )
    if profile.status == "stabilized":
        for k in ks[:-1]:
            if k >= profile.k0:
                record(
                    "step",
                    {"k": k},
                    table[k + 1],
                    table[k] + exp,
                    table[k + 1] <= table[k] + exp,
                )
    return {
        "group": A.spec(),
        "instances": instances,
        "passed": all(i["passed"] for i in instances),
    }


def verify_subgroup_relations(A: AbelianGroup, B: AbelianGroup, ks=(1, 2)) -> dict:
    """σ-ratio monotonicity and D_k(A) ≤ D_{k·[A:B]}(B) for B ≤ A.

    >>> verify_subgroup_relations(AbelianGroup((4,)), AbelianGroup((2,)), ks=(1,))["passed"]
    True
    """
    if not subgroup_embeddable(B, A):
        raise DomainError(f"{B.spec()} is not realizable as a subgroup of {A.spec()}")
    index = A.order // B.order
    checks = []
    ratio_ok = A.exponent * B.order <= B.exponent * A.order  # exp(A)/|A| <= exp(B)/|B|
    checks.append(
        {
            "name": "sigma-ratio",
            "lhs": f"{A.exponent}/{A.order}",
            "rhs": f"{B.exponent}/{B.order}",
            "passed": ratio_ok,
        }
    )
    if ks:
        tableA = davenport_table(A, max(ks))
        tableB = davenport_table(B, max(ks) * index)
        for k in ks:
            lhs = tableA[k - 1].value_Dk
            rhs = tableB[k * index - 1].value_Dk
            checks.append(
                {
                    "name": "index-inequality",
                    "k": k,
                    "index": index,
                    "lhs": lhs,
                    "rhs": rhs,
                    "passed": lhs <= rhs,
                }
            )
    return {
        "group": A.spec(),
        "subgroup": B.spec(),
        "index": index,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
