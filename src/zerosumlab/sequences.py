"""Sequences (finite multisets) over a finite abelian group and the
block-packing number k_max.

A sequence is stored as sorted (element, multiplicity) runs, so equal
multisets are identical tuples — the encoding doubles as the
memoization key and the canonical total order used everywhere for
deterministic output.  ``Sequence.items`` holds the elements as tuples;
the engines below work on *int runs*, the same runs with each element
replaced by its index in ``group.elements()`` (see ``groups``).  Index
order is tuple order, so sorting, minima and canonical forms agree, and
zero is index 0.  Conversion happens only at the public entry points.

k_max(S) is the largest number of pairwise-disjoint non-empty zero-sum
sub-multisets extractable from S.  One kernel computes it, the
sub-multiset table.  Each 0 of S is one block on its own (any block
containing 0 splits), so the zeros are split off first.  Over every T
⊆ the rest, by code (``_subitem_sums``), k(T) = [T ≠ ∅, σ(T) = 0] + max
over x ∈ T of k(T − x), k(∅) = 0.  A packing of T − x packs T, plus the
rest of T if σ(T) = 0, which is zero-sum and holds x.  If σ(T) ≠ 0, an
optimal packing of T misses some x, so it packs T − x; if σ(T) = 0 it
covers T (a zero-sum rest is one more block), so dropping the block that
holds x leaves k − 1 in T − x.

``_kmax_codes`` holds the table as one int bitset per level: bit T of
K_j is set iff k(T) ≥ j.  The levels follow exactly from the zero-sum
codes (see there) by masked shifts of whole bitsets, with no loop over
cells and no recursion.  Each level costs a few shifts per run of a
bitset of all the cells, so the table beats a loop over (cell, run)
pairs when k_max is small beside the number of runs, and loses to it on
long sequences of few runs, where the levels are many.  A table of more
than ``TABLE_CELLS`` sub-multisets, or whose cells times a bound on its
levels pass ``TABLE_LEVEL_BITS``, is refused before it is built.  Every
caller reads off it: ``k_max`` (through ``_KMAX_MEMO``, a memo of whole
answers, and its on-disk spill) and ``k_max_naive`` (no memo) count the
levels, ``k_max_with_witness`` walks down from S, and
``minimal_zero_sum_subsequences`` takes the zero-sum T outside K_2, those
with k(T) = 1.  The suite's second method is the block recursion over
``_zero_sum_subitems``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import os

from .errors import (
    CapacityError,
    DomainError,
    ParseError,
    StructuralError,
    ValidationError,
    VerificationError,
)
from .groups import AbelianGroup, _is_int

_CACHE_FILE = "zsl_kmax_cache.json"
_SAVE_SLICE = 512

# k_max memo, shared across all queries: (group factors, int runs) -> int.
# Values are mathematical facts, so concurrent/idempotent inserts are safe.
_KMAX_MEMO: dict[tuple, int] = {}


class Sequence:
    """Immutable multiset of group elements with run-length storage."""

    __slots__ = ("group", "items", "length")

    def __init__(self, group: AbelianGroup, items=()):
        self.group = group
        norm = []
        for elem, mult in items:
            group.check(elem)
            if type(mult) is not int or mult < 1:
                raise DomainError(f"multiplicity must be an int >= 1, got {mult!r} for {elem}")
            norm.append((elem, mult))
        norm.sort()
        for (a, _), (b, _) in zip(norm, norm[1:]):
            if a == b:
                raise DomainError(f"duplicate run for element {a}")
        self.items = tuple(norm)
        self.length = sum(m for _, m in self.items)

    @classmethod
    def from_elements(cls, group: AbelianGroup, elements) -> "Sequence":
        """The multiset of ``elements``.  Each element object is checked
        once: a copy that is the very object first met under its key needs
        no second look, and an equal copy of another type, such as
        (1.0,) after (1,), is checked on its own."""
        counts: dict = {}
        firsts: dict = {}  # key -> the object first met under it
        for x in elements:
            try:
                first = firsts.get(x)
            except TypeError:  # unhashable: let check name the fault
                group.check(x)
                raise
            if first is not x:
                group.check(x)
                if first is None:
                    firsts[x] = x
            counts[x] = counts.get(x, 0) + 1
        seq = cls.__new__(cls)
        seq.group = group
        seq.items = tuple(sorted(counts.items()))
        seq.length = sum(counts.values())
        return seq

    @classmethod
    def empty(cls, group: AbelianGroup) -> "Sequence":
        return cls(group, ())

    # -- multiset plumbing --------------------------------------------------

    def __len__(self):
        return self.length

    def __iter__(self):
        for elem, mult in self.items:
            for _ in range(mult):
                yield elem

    def multiplicity(self, x) -> int:
        for elem, mult in self.items:
            if elem == x:
                return mult
        return 0

    def with_extra(self, x) -> "Sequence":
        return Sequence(self.group, _items_add_one(self.items, self.group.check(x)))

    def __eq__(self, other):
        return (
            isinstance(other, Sequence)
            and self.group == other.group
            and self.items == other.items
        )

    def __hash__(self):
        return hash((self.group.factors, self.items))

    def __lt__(self, other):
        # deterministic total order on same-group sequences: run-length encoding
        return self.items < other.items

    def literal(self) -> str:
        """Round-trippable text form: ``[1,1,2]`` or ``[(1,0),(0,1)]``."""
        if self.group.rank == 1:
            return "[" + ",".join(str(x[0]) for x in self) + "]"
        return "[" + ",".join("(" + ",".join(map(str, x)) + ")" for x in self) + "]"

    def __repr__(self):
        return f"Sequence({self.group.spec()}, {self.literal()})"


# -- items-tuple helpers (run-length encodings, kept sorted) ----------------


def _items_add_one(items, x):
    for pos, (elem, mult) in enumerate(items):
        if elem >= x:
            if elem == x:
                return items[:pos] + ((x, mult + 1),) + items[pos + 1 :]
            return items[:pos] + ((x, 1),) + items[pos:]
    return items + ((x, 1),)


def _items_subtract(items, sub):
    taken = dict(sub)
    out = []
    for elem, mult in items:
        t = taken.pop(elem, 0)
        if t > mult:
            raise DomainError(f"cannot remove {t} copies of {elem}, only {mult} present")
        if mult - t:
            out.append((elem, mult - t))
    if taken:
        raise DomainError(f"elements {sorted(taken)} not present")
    return tuple(out)


def _to_indices(group, items):
    """Int runs of tuple runs (order is kept: index order is tuple order)."""
    index = group.index
    return tuple((index(elem), mult) for elem, mult in items)


def _to_elements(group, runs):
    """Tuple runs of int runs."""
    element = group.element
    return tuple((element(i), mult) for i, mult in runs)


def sequence_sum(S: Sequence):
    """Sum of all entries with multiplicity; the empty sequence sums to 0.

    >>> g = AbelianGroup((3,))
    >>> sequence_sum(Sequence.from_elements(g, [(1,), (2,)]))
    (0,)
    """
    g = S.group
    total = g.zero
    for elem, mult in S.items:
        total = g.add(total, g.scale(mult, elem))
    return total


def _over(g: AbelianGroup, x, what):
    """``x``, a sequence or an automorphism, refused unless it is over ``g``."""
    if x.group != g:
        raise StructuralError(f"cannot {what} over {g.spec()} and {x.group.spec()}")
    return x


def concat(S: Sequence, T: Sequence) -> Sequence:
    _over(S.group, T, "concatenate sequences")
    counts = dict(S.items)
    for elem, mult in T.items:
        counts[elem] = counts.get(elem, 0) + mult
    return Sequence(S.group, counts.items())

def divides(T: Sequence, S: Sequence) -> bool:
    """True iff T is a sub-multiset of S."""
    _over(S.group, T, "compare sequences")
    return all(S.multiplicity(elem) >= mult for elem, mult in T.items)


def subtract(S: Sequence, T: Sequence) -> Sequence:
    _over(S.group, T, "subtract sequences")
    return Sequence(S.group, _items_subtract(S.items, T.items))


# -- the sub-multiset table ----------------------------------------------------

# most sub-multisets, Π(m_i + 1) over the runs, that one table may hold
TABLE_CELLS = 1 << 22
# most bits, cells times a bound on the levels, that the levels of one table
# may hold: each level is one bit per cell, shifted whole, so this bounds
# both their memory (128 MB) and the shifts
TABLE_LEVEL_BITS = 1 << 30


def _subitem_sums(group, items):
    """σ(T) as an index for each sub-multiset T of the int runs ``items``,
    by code: T's copies of each run are its digits, in base mult + 1, the
    first run most significant.  The list is built from the last run back,
    each run taking the top digit, so that each copy of it appends one
    mapped copy of the list so far.  Past ``TABLE_CELLS`` codes
    it raises CapacityError before it builds anything.
    """
    cells = math.prod([mult + 1 for _, mult in items])
    if cells > TABLE_CELLS:
        raise CapacityError(f"{cells} sub-multisets exceed the table limit of {TABLE_CELLS}",
                            limit=TABLE_CELLS)
    sums = group.sums()
    out = [0]
    for elem, mult in reversed(items):
        # code c·len(out) + t: c copies of this run on top of code t
        row = sums[elem]
        grown = out[:]
        m = 0
        for _ in range(mult):
            m = row[m]
            grown += map(sums[m].__getitem__, out)
        out = grown
    return out


def _decode(items, digits, code):
    """The int runs of the sub-multiset of ``items`` with this code."""
    return tuple([(elem, c) for (elem, _), (stride, base) in zip(items, digits)
                  if (c := code // stride % base)])


def _periodic(low, period, cells):
    """The ``cells``-bit int whose bit i is set iff i % ``period`` < ``low``,
    built by doubling the set period."""
    mask, width = (1 << low) - 1, period
    while width < cells:
        mask |= mask << width
        width *= 2
    return mask & ((1 << cells) - 1)


_ZERO_BITS = bytes.maketrans(b"\0\1", b"01")


def _kmax_codes(group, items, most=None):
    """(zero, levels, digits) over the sub-multisets T of the int runs
    ``items``, each an int with one bit per code of ``_subitem_sums``: bit
    ``code`` of ``zero`` is set iff T is non-empty and zero-sum, and
    ``levels`` iterates over K_1, …, K_k, k = k_max(``items``), where bit
    ``code`` of K_j is set iff k_max(T) ≥ j.  ``digits`` holds the
    (stride, base) of each run's digit, in run order.  A caller that takes
    at most ``most`` levels says so, and the cap below counts no more.

    T ⊆ U adds nothing to k, so each K_j is closed upward, and holds the
    top code iff it is not empty.  k(T) ≥ j iff T holds a zero-sum Z with
    k(Z) ≥ j (the union of j blocks), and a non-empty zero-sum Z has
    k(Z) = 1 + max over x ∈ Z of k(Z − x).  So with Z the set of non-empty
    zero-sum codes, K_1 = close(Z) and K_j = close(Z ∩ Up(K_{j−1})): Up(K)
    holds the T with some T − x in K, and close(K) every T above a member
    of K.  T + x is T's code plus the stride of x's run, so both are shifts
    of K masked to the codes whose digit leaves room.  close adds 1, 2,
    4, … copies of each run in turn, so it takes about log2(mult + 1)
    shifts per run, not mult.  The periodic masks are built by doubling;
    dividing by 2^period − 1 is far slower on a bitset of 2^22 bits.

    The cost grows with the levels as well as the cells.  The callers
    split the zeros off, and a block of non-zero entries holds two at
    least, so k ≤ ⌊|items|/2⌋; a table whose cells times that bound pass
    ``TABLE_LEVEL_BITS`` raises CapacityError before anything is built.
    """
    cells = math.prod([mult + 1 for _, mult in items])
    bound = sum([mult for _, mult in items]) // 2
    if most is not None:
        bound = min(bound, most)
    if cells * bound > TABLE_LEVEL_BITS:
        raise CapacityError(f"{cells} sub-multisets times up to {bound} levels exceed the "
                            f"table limit of {TABLE_LEVEL_BITS} level bits",
                            limit=TABLE_LEVEL_BITS)
    sums = _subitem_sums(group, items)
    digits = []
    steps = []  # per run, (mask, shift) adding 1, 2, 4, … copies of it
    stride = cells
    for _, mult in items:
        stride //= mult + 1
        digits.append((stride, mult + 1))
        run = []
        copies = 1
        while copies <= mult:  # mask: the codes whose digit is at most mult − copies
            run.append((_periodic((mult + 1 - copies) * stride, (mult + 1) * stride, cells),
                        copies * stride))
            copies *= 2
        steps.append(run)
    zero = int(bytes(map(operator.not_, reversed(sums))).translate(_ZERO_BITS), 2) & ~1
    return zero, _kmax_levels(zero, steps), digits


def _kmax_levels(zero, steps):
    """K_1, K_2, … up to the last non-empty one, from the zero-sum codes
    ``zero`` and the (mask, shift) ``steps`` of each run (``_kmax_codes``).
    Only the level in progress is held, so a caller that counts them
    holds one at a time."""
    K = zero
    while True:
        for run in steps:
            for mask, shift in run:
                K |= (K & mask) << shift
        if not K:
            return
        yield K
        up = 0
        for run in steps:
            mask, shift = run[0]  # one more copy
            up |= (K & mask) << shift
        K = zero & up


def _kmax_of_runs(group, items) -> int:
    """k_max of the int runs ``items``: zero sorts first, and each 0 is one
    block on its own, so the table holds only the other runs.  Past them
    k_max is the number of levels, as each holds the top code, S itself."""
    zeros = items[0][1] if items and items[0][0] == 0 else 0
    levels = _kmax_codes(group, items[1:] if zeros else items)[1]
    return zeros + sum(1 for _ in levels)


def _zero_sum_subitems(group, items):
    """All non-empty zero-sum sub-multisets of the int runs ``items``, in
    code order.  Only the definitional references enumerate them.
    """
    codes = itertools.product(*[range(mult + 1) for _, mult in items])
    return [tuple([(elem, c) for (elem, _), c in zip(items, counts) if c])
            for counts, t in zip(codes, _subitem_sums(group, items)) if t == 0 and any(counts)]


def _minimal_blocks_with_pivot(group, items):
    """Minimal zero-sum sub-multisets of the int runs ``items`` that use the
    first run's element (the pivot), sorted.  A non-empty zero-sum T is
    minimal iff k_max(T) = 1: the bits of Z ∖ K_2, at codes whose first
    digit is at least 1.
    """
    if items[0][0] == 0:
        return [((0, 1),)]
    zero, levels, digits = _kmax_codes(group, items, most=2)
    next(levels, None)  # K_1, then K_2 below
    first = digits[0][0]
    bits = bin((zero & ~next(levels, 0)) >> first)[:1:-1]  # bit i at position i
    blocks = []
    at = bits.find("1")
    while at >= 0:
        blocks.append(_decode(items, digits, at + first))
        at = bits.find("1", at + 1)
    return sorted(blocks)


def minimal_zero_sum_subsequences(S: Sequence) -> list[Sequence]:
    """All minimal non-empty zero-sum sub-multisets, in encoding order.

    >>> g = AbelianGroup((3,))
    >>> seqs = minimal_zero_sum_subsequences(Sequence.from_elements(g, [(1,), (2,), (0,)]))
    >>> [s.literal() for s in seqs]
    ['[0]', '[1,2]']
    """
    g = S.group
    runs = _to_indices(g, S.items)
    # each minimal block is a pivot block of the suffix its least element starts
    found = sorted(block for i in range(len(runs))
                   for block in _minimal_blocks_with_pivot(g, runs[i:]))
    return [Sequence(g, _to_elements(g, sub)) for sub in found]


# -- k_max ---------------------------------------------------------------------


def _kmax_items(group, items) -> int:
    """k_max of the int runs ``items``, through the shared memo of whole
    answers."""
    if not items:
        return 0
    key = (group.factors, items)
    value = _KMAX_MEMO.get(key)
    if value is None:
        value = _KMAX_MEMO[key] = _kmax_of_runs(group, items)
    return value


class BlockPacking:
    """k disjoint non-empty zero-sum blocks plus the unpacked remainder."""

    __slots__ = ("blocks", "remainder")

    def __init__(self, blocks, remainder: Sequence):
        self.blocks = tuple(sorted(blocks))
        self.remainder = remainder
        for b in self.blocks:
            if len(b) == 0:
                raise DomainError("packing blocks must be non-empty")
            if sequence_sum(b) != b.group.zero:
                raise DomainError(f"packing block {b.literal()} is not zero-sum")

    def verify_covers(self, S: Sequence) -> bool:
        total = self.remainder
        for b in self.blocks:
            total = concat(total, b)
        return total == S

    def __repr__(self):
        inner = ", ".join(b.literal() for b in self.blocks)
        return f"BlockPacking([{inner}], remainder={self.remainder.literal()})"


def k_max(S: Sequence) -> int:
    """Maximum number of pairwise-disjoint non-empty zero-sum blocks in S.

    >>> g = AbelianGroup((3,))
    >>> k_max(Sequence.from_elements(g, [(1,)] * 6))
    2
    >>> k_max(Sequence.from_elements(g, [(1,), (1,)]))
    0
    """
    return _kmax_items(S.group, _to_indices(S.group, S.items))


def k_max_with_witness(S: Sequence) -> tuple[int, BlockPacking]:
    """k_max together with an attaining packing (deterministic choice).

    Each 0 is a block.  On the table of the other runs the walk goes down
    from S: at a zero-sum T it drops one copy of T's first run, and k
    falls by one; elsewhere it drops the first run whose removal keeps k,
    T − x still in K_k (see ``_kmax_codes``).
    So k falls exactly at the zero-sum sets Z_1 ⊃ … ⊃ Z_k met on the way,
    and Z_1 − Z_2, …, Z_{k−1} − Z_k, Z_k are the blocks; S − Z_1 is the
    remainder.  The packing is checked against the memo's entry for S,
    which the walk's own count fills when it is missing.  The walk holds
    every level, which ``TABLE_LEVEL_BITS`` bounds.
    """
    g = S.group
    runs = _to_indices(g, S.items)
    zeros = runs[0][1] if runs and runs[0][0] == 0 else 0
    items = runs[1:] if zeros else runs
    zero, levels, digits = _kmax_codes(g, items)
    levels = list(levels)
    cuts = []  # codes of the zero-sum sets on the walk
    top = code = math.prod([base for _, base in digits]) - 1
    k = len(levels)  # the levels holding code: one fewer past each zero-sum code
    while k:
        zero_sum = zero >> code & 1
        if zero_sum:
            cuts.append(code)
        for stride, base in digits:
            if code // stride % base and (zero_sum or levels[k - 1] >> (code - stride) & 1):
                code -= stride
                break
        k -= zero_sum
    blocks = [((0, 1),)] * zeros + [_decode(items, digits, a - b)
                                     for a, b in zip(cuts, cuts[1:] + [0])]
    rest = _decode(items, digits, top - (cuts[0] if cuts else 0))
    packing = BlockPacking([Sequence(g, _to_elements(g, b)) for b in blocks],
                           Sequence(g, _to_elements(g, rest)))
    expected = _KMAX_MEMO.setdefault((g.factors, runs), zeros + len(levels)) if runs else 0
    if len(packing.blocks) != expected or not packing.verify_covers(S):
        raise VerificationError(
            f"witness packing disagrees with k_max for {S.literal()}", evidence=packing
        )
    return len(packing.blocks), packing


def k_max_naive(S: Sequence) -> int:
    """k_max read off the sub-multiset table (``_kmax_codes``) with no
    memo: the same kernel as ``k_max``, which answers through the memo
    and its on-disk spill.
    """
    return _kmax_of_runs(S.group, _to_indices(S.group, S.items))


# -- canonical forms under automorphisms -------------------------------------


def apply_to_sequence(aut, S: Sequence) -> Sequence:
    _over(S.group, aut, "apply automorphisms")
    return Sequence(S.group, ((aut(elem), mult) for elem, mult in S.items))


class _OrbitTable:
    """Permutations of element indices, the identity among them, indexed
    by where they send each point.

    ``maps`` holds the permutation tuples (``Automorphism.perm``).  For
    each indexed point x, ``cols[x]`` is the image of x under every map,
    in map order (the perm tuples' own ints), ``leader[x]`` the least of
    them and ``to_leader[x]`` the positions in ``maps`` of the maps that
    send x there; only the given points are indexed.  ``keys`` holds, for
    each (s, mult) that ``_canonical_items`` has met, the lookup
    y ↦ (s − mult)·s^(n−1−y) over all n points y.
    """

    __slots__ = ("maps", "cols", "leader", "to_leader", "keys")

    def __init__(self, maps, points):
        self.maps = maps
        self.keys = {}
        self.cols, self.leader, self.to_leader = {}, {}, {}
        for x in points:
            col = self.cols[x] = tuple(map(operator.itemgetter(x), maps))
            least = self.leader[x] = min(col)
            self.to_leader[x] = [i for i, y in enumerate(col) if y == least]


def _candidate_positions(items, table):
    """The positions in ``table.maps`` of the maps whose image of the
    non-empty int runs ``items`` starts with the least possible first run
    (t*, m0): those that send a support element with leader t* and
    multiplicity m0 to t* (see ``davenport``).  Being injective, no two
    such elements share one.
    """
    leader = table.leader
    first = min([(leader[elem], mult) for elem, mult in items])
    out = []
    for elem, mult in items:
        if mult == first[1] and leader[elem] == first[0]:
            out.extend(table.to_leader[elem])
    return out


def _canonical_items(items, table):
    """(least image, ties) of the int runs ``items`` under the maps of
    ``table`` (an ``_OrbitTable``, which holds the identity).

    ``ties`` lists the maps that send ``items`` to its least image.  They
    form a coset Stab(least)·t, and every one of them is a candidate of
    ``_candidate_positions``; only those candidates are scanned (see
    ``davenport``, whose ``_firsts`` reads the stabiliser's orbits off the
    coset).  This uses no group structure, only the map set.  The maps are
    injective, so mapped runs never need merging.

    Each candidate m scores its image by one int, K(m) = Σ over runs
    (x, c) of (s − c)·s^(n−1−m(x)), s the largest multiplicity + 1 and n
    the number of points: in base s its digit at point y is s − c for a
    run (y, c) and 0 for a missing y.  Two images first differ, as run
    lists and as digits, at the first point whose counts differ, where a
    point present beats one absent (s − c ≥ 1 against 0) and the smaller
    count the larger.  So the least image is that of any map of largest K,
    and the ties are the maps of that K; the digits are read off the
    candidates' columns through ``table.keys``, with no Python loop over
    the maps.
    """
    maps = table.maps
    if not items or len(maps) == 1:  # every map fixes them
        return items, maps
    pos = _candidate_positions(items, table)
    ties = [maps[pos[0]]]
    if len(pos) > 1:
        s, n = max([mult for _, mult in items]) + 1, len(maps[0])
        gather, cols, keys = operator.itemgetter(*pos), table.cols, table.keys
        digits = []
        for elem, mult in items:
            key = keys.get((s, mult))
            if key is None:  # y ↦ (s − mult)·s^(n−1−y) on the points y
                key = keys[s, mult] = [(s - mult) * s**(n - 1 - y) for y in range(n)].__getitem__
            digits.append(map(key, gather(cols[elem])))
        scores = list(map(sum, zip(*digits)))
        best = max(scores)
        ties = list(itertools.compress(map(maps.__getitem__, pos), map(best.__eq__, scores)))
    m = ties[0]
    return tuple(sorted([(m[elem], mult) for elem, mult in items])), ties


def canonical_form(S: Sequence, auts) -> Sequence:
    """Lexicographically least of S and its automorphism images.

    Constant on orbits and idempotent; with auts the full automorphism
    group the result is a canonical orbit representative.  An automorphism
    of another group raises StructuralError.

    >>> from .groups import automorphism_group
    >>> g = AbelianGroup((3,))
    >>> S = Sequence.from_elements(g, [(2,), (2,)])
    >>> canonical_form(S, automorphism_group(g)).literal()
    '[1,1]'
    """
    g = S.group
    runs = _to_indices(g, S.items)
    maps = [tuple(range(g.order))] + [_over(g, aut, "apply automorphisms").perm for aut in auts]
    table = _OrbitTable(maps, [i for i, _ in runs])
    return Sequence(g, _to_elements(g, _canonical_items(runs, table)[0]))


# -- sequence literals --------------------------------------------------------


def parse_sequence(text: str, group: AbelianGroup) -> Sequence:
    """Parse ``[1,1,2]`` (rank 1) or ``[(1,0),(0,1)]`` (higher rank).

    >>> parse_sequence("[1,1,2]", AbelianGroup((3,))).items
    (((1,), 2), ((2,), 1))
    """
    s = text.replace(" ", "")
    if not s or s[0] != "[":
        raise ParseError("sequence literal must start with '['", 0)
    if s[-1] != "]":
        raise ParseError("sequence literal must end with ']'", len(s) - 1)
    body = s[1:-1]
    if not body:
        return Sequence.empty(group)
    elems = []
    pos = 1
    if group.rank == 1:
        for part in body.split(","):
            if not _is_int(part):
                raise ParseError(f"expected integer, got {part!r}", pos)
            elems.append((int(part),))
            pos += len(part) + 1
    else:
        while pos < len(s) - 1:
            if s[pos] != "(":
                raise ParseError("expected '('", pos)
            end = s.find(")", pos)
            if end == -1:
                raise ParseError("unclosed '('", pos)
            raw = s[pos + 1 : end]
            coords = raw.split(",") if raw else []
            if len(coords) != group.rank or not all(_is_int(c) for c in coords):
                raise ParseError(
                    f"expected {group.rank} integer coordinates", pos + 1
                )
            elems.append(tuple(int(c) for c in coords))
            pos = end + 1
            if pos < len(s) - 1:
                if s[pos] != ",":
                    raise ParseError("expected ',' between tuples", pos)
                pos += 1
    return Sequence.from_elements(group, elems)


# -- optional on-disk memo spill ---------------------------------------------


def _cache_entry(entry, groups):
    """Memo (key, value) of one spilled entry; None unless it can be a k_max fact.

    ``groups`` caches groups by factors.  Run indices increase strictly,
    as a save writes them.
    """
    if not (isinstance(entry, list) and len(entry) == 3):
        return None
    factors, items, value = entry
    if not (isinstance(factors, list) and isinstance(items, list) and type(value) is int):
        return None
    for n in factors:
        if type(n) is not int:
            return None
    factors = tuple(factors)
    group = groups.get(factors)
    if group is None:
        try:
            group = groups[factors] = AbelianGroup(factors)
        except ValidationError:
            return None
    runs = []
    length = 0
    for item in items:
        if not (isinstance(item, list) and len(item) == 2
                and type(item[1]) is int and item[1] >= 1):
            return None
        i = group.coords_index(item[0])
        if i is None or runs and i <= runs[-1][0]:
            return None
        runs.append((i, item[1]))
        length += item[1]
    # each zero is one block; a block without zeros holds at least 2 entries
    zeros = runs[0][1] if runs and runs[0][0] == 0 else 0
    if not 0 <= value <= zeros + (length - zeros) // 2:
        return None
    return (factors, tuple(runs)), value


def load_kmax_cache(directory: str) -> int:
    """Merge a previously spilled k_max memo; returns the number of
    distinct entries in the file (0 when there is no file).

    A directory path that names something else, or an unreadable or
    malformed file (see ``_cache_entry``), raises ValidationError naming
    it and leaves the memo unchanged.
    """
    if os.path.exists(directory) and not os.path.isdir(directory):
        raise ValidationError(f"k_max cache directory {directory} is not a directory")
    path = os.path.join(directory, _CACHE_FILE)
    if not os.path.exists(path):
        return 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read k_max cache {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValidationError(f"k_max cache {path} is not valid JSON: {exc}") from exc
    entries = data.get("entries") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ValidationError(f"k_max cache {path} has no list of entries")
    loaded = {}
    groups: dict[tuple, AbelianGroup] = {}
    for index, entry in enumerate(entries):
        pair = _cache_entry(entry, groups)
        if pair is None:
            raise ValidationError(f"k_max cache {path}: entry {index} is malformed")
        loaded[pair[0]] = pair[1]
        entries[index] = None  # let the memo reuse it
    _KMAX_MEMO.update(loaded)
    return len(loaded)


def save_kmax_cache(directory: str) -> int:
    """Spill the k_max memo (values only — they are version-stable facts).

    The file is written under a per-process temporary name in the same
    directory and then renamed over the cache, so a reader never sees a
    partial file.  An unwritable path raises ValidationError naming it.
    Elements are written as coordinate lists; index order is tuple order,
    so the entries come out in the same order as their tuple forms.  Only
    one slice of ``_SAVE_SLICE`` entries is decoded at a time.
    """
    decode = functools.cache(lambda factors, i: AbelianGroup(factors).element(i))
    keys = sorted(_KMAX_MEMO)
    path = os.path.join(directory, _CACHE_FILE)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(directory, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write('{"schema_version": 1, "entries": [')
            for at in range(0, len(keys), _SAVE_SLICE):
                entries = [[factors, [(decode(factors, i), m) for i, m in runs],
                            _KMAX_MEMO[factors, runs]]
                           for factors, runs in keys[at:at + _SAVE_SLICE]]
                fh.write((", " if at else "") + json.dumps(entries)[1:-1])
            fh.write("]}")
        os.replace(tmp, path)
    except OSError as exc:
        raise ValidationError(f"cannot write k_max cache {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return len(keys)
