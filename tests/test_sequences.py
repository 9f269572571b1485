"""Sequence multisets, zero-sum structure, k_max engine vs oracle."""

from __future__ import annotations

import collections
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import zerosumlab

from zerosumlab.errors import DomainError, ParseError, StructuralError, VerificationError
from zerosumlab.groups import AbelianGroup, Automorphism, automorphism_group, parse_groupspec
from zerosumlab import sequences
from zerosumlab.suite import _ORACLE_POOL, _k_max_by_definition
from zerosumlab.sequences import (
    _KMAX_MEMO,
    BlockPacking,
    Sequence,
    _minimal_blocks_with_pivot,
    _to_elements,
    _to_indices,
    apply_to_sequence,
    canonical_form,
    concat,
    divides,
    k_max,
    k_max_naive,
    k_max_with_witness,
    minimal_zero_sum_subsequences,
    parse_sequence,
    sequence_sum,
    subtract,
)

Z2 = AbelianGroup((2,))
Z3 = AbelianGroup((3,))
Z4 = AbelianGroup((4,))
V4 = AbelianGroup((2, 2))


def seq(group, *elems):
    return Sequence.from_elements(group, [(e,) if isinstance(e, int) else e for e in elems])


def test_runs_are_sorted_and_validated():
    s = Sequence(Z4, (((3,), 1), ((1,), 2)))
    assert s.items == (((1,), 2), ((3,), 1))
    assert s.length == 3
    with pytest.raises(DomainError):
        Sequence(Z4, (((1,), 0),))
    with pytest.raises(DomainError):
        Sequence(Z4, (((1,), 1), ((1,), 2)))


@pytest.mark.parametrize("mult", [2.7, 2.0, "2", True], ids=["float", "integral-float", "str", "bool"])
def test_multiplicities_must_be_ints(mult):
    # int() would store 2.7 as 2 and True as 1
    with pytest.raises(DomainError):
        Sequence(Z3, (((1,), mult),))


def test_from_elements_checks_each_element_object_once(monkeypatch):
    checked = []
    check = AbelianGroup.check

    def counted(self, x):
        checked.append(x)
        return check(self, x)

    monkeypatch.setattr(AbelianGroup, "check", counted)
    one, two = (1,), (2,)
    s = Sequence.from_elements(Z4, [one, two, one, one, two])
    assert checked == [one, two]
    assert s.items == ((one, 3), (two, 2)) and s.length == 5
    assert s == Sequence(Z4, ((one, 3), (two, 2)))
    # an equal copy that is another object is checked on its own
    checked.clear()
    assert Sequence.from_elements(Z4, [(1,), tuple([1])]).items == ((one, 2),)
    assert len(checked) == 2


@pytest.mark.parametrize(
    "elements, error",
    [([[1]], StructuralError), ([(1,), [1]], StructuralError), ([(1, 0)], StructuralError),
     ([(1,), (1, 0)], StructuralError), ([(1,), (1.0,)], DomainError),
     ([(1,), (4,)], DomainError), ([(1,), ([1],)], DomainError)],
    ids=["unhashable", "unhashable-later", "mis-ranked", "mis-ranked-later",
         "float-equal-to-an-element", "out-of-range", "unhashable-coordinate"],
)
def test_from_elements_rejects_each_bad_element(elements, error):
    with pytest.raises(error):
        Sequence.from_elements(Z4, elements)


def test_equal_sequences_built_two_ways_hash_alike():
    s = Sequence(V4, [((1, 0), 1), ((0, 1), 2)])
    t = Sequence.from_elements(AbelianGroup((2, 2)), [(0, 1), (1, 0), (0, 1)])
    assert s == t and hash(s) == hash(t)
    assert s != Sequence.from_elements(V4, [(0, 1), (1, 0)])


def test_literal_parse_round_trip():
    s = seq(Z4, 1, 1, 3)
    assert s.literal() == "[1,1,3]"
    assert parse_sequence("[1,1,3]", Z4) == s
    t = Sequence.from_elements(V4, [(0, 1), (1, 0), (1, 1)])
    assert parse_sequence(t.literal(), V4) == t
    assert parse_sequence("[]", Z4) == Sequence.empty(Z4)
    trivial = AbelianGroup(())
    u = Sequence.from_elements(trivial, [(), ()])
    assert parse_sequence(u.literal(), trivial) == u


def test_parse_sequence_errors():
    with pytest.raises(ParseError):
        parse_sequence("1,2", Z4)
    with pytest.raises(ParseError):
        parse_sequence("[1,", Z4)
    with pytest.raises(ParseError):
        parse_sequence("[a]", Z4)
    with pytest.raises(ParseError):
        parse_sequence("[(1,2)]", Z4)  # rank-1 group wants bare integers
    with pytest.raises(DomainError):
        parse_sequence("[4]", Z4)


@pytest.mark.parametrize(
    "text, group",
    [("[\u00b2]", Z3), ("[\u0663]", Z3), ("[-\u0663]", Z3), ("[(1,\u0663)]", V4)],
    ids=["superscript-two", "arabic-indic-three", "negative", "tuple-coordinate"],
)
def test_parse_sequence_rejects_non_ascii_digits(text, group):
    with pytest.raises(ParseError):
        parse_sequence(text, group)


def test_multiset_operations():
    s = seq(Z4, 1, 1, 2)
    t = seq(Z4, 1, 2)
    assert divides(t, s)
    assert not divides(s, t)
    assert subtract(s, t) == seq(Z4, 1)
    assert concat(t, seq(Z4, 1)) == s
    assert sequence_sum(s) == (0,)
    with pytest.raises(StructuralError):
        concat(s, seq(Z3, 1))
    with pytest.raises(DomainError):
        subtract(t, s)


def test_minimal_zero_sum_subsequences():
    blocks = minimal_zero_sum_subsequences(seq(Z4, 1, 1, 2, 3))
    literals = [b.literal() for b in blocks]
    # minimal blocks: 1+3, 2+1+1, and no proper zero-sum divisor inside them
    assert "[1,3]" in literals
    assert "[1,1,2]" in literals
    assert "[1,1,2,3]" not in literals  # contains [1,3], so not minimal
    assert minimal_zero_sum_subsequences(seq(Z4, 1, 1)) == []
    zero_block = minimal_zero_sum_subsequences(seq(Z4, 0))
    assert [b.literal() for b in zero_block] == ["[0]"]


def _minimal_zero_sums_by_definition(S):
    """Every sub-multiset, as a multiplicity vector, that sums to zero and
    has no proper non-empty zero-sum sub-multiset."""
    A = S.group
    elems = [elem for elem, _ in S.items]

    def total(counts):
        acc = A.zero
        for elem, c in zip(elems, counts):
            acc = A.add(acc, A.scale(c, elem))
        return acc

    zero_sums = [
        counts
        for counts in itertools.product(*(range(m + 1) for _, m in S.items))
        if any(counts) and total(counts) == A.zero
    ]
    minimal = [
        c
        for c in zero_sums
        if not any(d != c and all(x <= y for x, y in zip(d, c)) for d in zero_sums)
    ]
    return sorted(
        tuple((elem, n) for elem, n in zip(elems, counts) if n) for counts in minimal
    )


def test_minimal_zero_sums_match_the_definition():
    rng = random.Random(1205)
    groups = [AbelianGroup((6,)), AbelianGroup((2, 4)), AbelianGroup((3, 3))]
    for _ in range(150):
        A = rng.choice(groups)
        elems = A.elements()
        s = Sequence.from_elements(A, [rng.choice(elems) for _ in range(rng.randint(0, 7))])
        found = [b.items for b in minimal_zero_sum_subsequences(s)]
        assert found == _minimal_zero_sums_by_definition(s), s.literal()


def test_minimal_blocks_with_pivot_match_the_definition():
    rng = random.Random(1206)
    groups = [AbelianGroup((6,)), AbelianGroup((2, 4)), AbelianGroup((3, 3))]
    pivots = set()
    for _ in range(150):
        A = rng.choice(groups)
        elems = A.elements()
        entries = [rng.choice(elems) for _ in range(rng.randint(1, 7))]
        # repeat the least entry now and then, so that pivots of multiplicity
        # above 1 are common
        entries += [min(entries)] * rng.randint(0, 2)
        s = Sequence.from_elements(A, entries)
        pivot, mult = s.items[0]
        pivots.add((pivot == A.zero, mult > 1))
        blocks = _minimal_blocks_with_pivot(A, _to_indices(A, s.items))
        expected = [b for b in _minimal_zero_sums_by_definition(s) if b[0][0] == pivot]
        assert [_to_elements(A, b) for b in blocks] == expected, s.literal()
    assert pivots == {(False, False), (False, True), (True, False), (True, True)}


def test_k_max_known_values():
    assert k_max(Sequence.empty(Z2)) == 0
    assert k_max(seq(Z2, 1)) == 0
    assert k_max(seq(Z2, 1, 1)) == 1
    assert k_max(seq(Z2, 1, 1, 1)) == 1
    assert k_max(seq(Z2, 1, 1, 1, 1)) == 2
    assert k_max(seq(Z2, 0, 0)) == 2
    assert k_max(seq(Z3, 1, 2)) == 1
    assert k_max(seq(Z3, 1, 1)) == 0
    assert k_max(seq(Z3, 1, 1, 1, 2)) == 1
    assert k_max(Sequence.from_elements(V4, [(1, 0), (0, 1), (1, 1)])) == 1


def test_every_zero_counts_as_its_own_block():
    s = Sequence(Z3, (((0,), 4), ((1,), 2)))
    assert k_max(s) == 4
    assert k_max(Sequence(Z3, (((0,), 4), ((1,), 3)))) == 5


def test_k_max_witness_is_a_valid_packing():
    rng = random.Random(404)
    groups = [Z2, Z3, Z4, V4, AbelianGroup((6,))]
    for _ in range(120):
        A = rng.choice(groups)
        elems = A.elements()
        s = Sequence.from_elements(A, [rng.choice(elems) for _ in range(rng.randint(0, 7))])
        count, packing = k_max_with_witness(s)
        assert count == k_max(s)
        assert len(packing.blocks) == count
        assert packing.verify_covers(s)
        for block in packing.blocks:
            assert sequence_sum(block) == A.zero


def test_witness_check_rejects_a_poisoned_memo():
    # k_max of [1,1] over Z3 is 0; a memo that claims 1 has no packing to
    # show.  The memo is keyed by int runs: element (1,) of Z3 is index 1.
    _KMAX_MEMO[((3,), ((1, 2),))] = 1
    try:
        with pytest.raises(VerificationError):
            k_max_with_witness(seq(Z3, 1, 1))
    finally:
        _KMAX_MEMO.clear()


def test_the_witness_builds_one_table_on_a_cold_memo(monkeypatch):
    # 12 distinct non-zero elements of Z2^4: the walk's table also gives
    # the count the packing is checked against, and fills the memo
    A = AbelianGroup((2, 2, 2, 2))
    s = Sequence.from_elements(A, A.elements()[1:13])
    calls = []
    build = sequences._kmax_codes

    def counted(group, items):
        calls.append(items)
        return build(group, items)

    monkeypatch.setattr(sequences, "_kmax_codes", counted)
    monkeypatch.setattr(sequences, "_KMAX_MEMO", {})
    k, packing = k_max_with_witness(s)
    assert len(calls) == 1
    assert k == len(packing.blocks) == k_max_naive(s)
    assert sequences._KMAX_MEMO == {(A.factors, _to_indices(A, s.items)): k}


def test_every_cell_of_the_table_is_k_max_of_its_sub_multiset():
    # zeros and repeated entries included: the levels holding a code count
    # k_max of the sub-multiset it codes, and the zero bits mark the
    # non-empty zero sums, by plain group arithmetic
    rng = random.Random(1214)
    groups = [Z4, V4, AbelianGroup((6,)), AbelianGroup((2, 4))]
    values = set()
    for _ in range(60):
        A = rng.choice(groups)
        elems = A.elements()
        entries = [rng.choice(elems) for _ in range(rng.randint(1, 6))]
        entries += [A.zero] * rng.randint(0, 2) + [entries[0]] * rng.randint(0, 2)
        runs = _to_indices(A, Sequence.from_elements(A, entries).items)
        zero, levels, digits = sequences._kmax_codes(A, runs)
        levels = list(levels)
        assert [base for _, base in digits] == [m + 1 for _, m in runs]
        for code, counts in enumerate(itertools.product(*[range(m + 1) for _, m in runs])):
            sub = Sequence(A, [(A.element(i), c) for (i, _), c in zip(runs, counts) if c])
            value = _k_max_by_definition(sub)
            assert sum(K >> code & 1 for K in levels) == value, (runs, counts)
            assert zero >> code & 1 == (len(sub) > 0 and sequence_sum(sub) == A.zero)
            values.add(value)
    assert len(values) >= 4


def test_block_packing_rejects_non_zero_sum_blocks():
    with pytest.raises(DomainError):
        BlockPacking([seq(Z4, 1)], Sequence.empty(Z4))


def test_engine_matches_naive_oracle():
    rng = random.Random(1234)
    groups = [parse_groupspec(s) for s in ("Z2", "Z3", "Z4", "Z2xZ2", "Z6", "Z8", "Z2xZ4")]
    for _ in range(300):
        A = rng.choice(groups)
        elems = A.elements()
        s = Sequence.from_elements(A, [rng.choice(elems) for _ in range(rng.randint(0, 8))])
        assert k_max(s) == k_max_naive(s), s.literal()


def _oracle_pool_corpus():
    rng = random.Random(1211)
    pool = [parse_groupspec(spec) for spec in _ORACLE_POOL]
    for _ in range(500):
        A = rng.choice(pool)
        elems = A.elements()
        entries = [rng.choice(elems) for _ in range(rng.randint(0, 8))]
        yield Sequence.from_elements(A, entries), None


def _long_sequences():
    """Length 6 to 14 from supports of 1 to 4 elements, so that runs are long."""
    rng = random.Random(1212)
    groups = [parse_groupspec(spec) for spec in ("Z2xZ2xZ2", "Z2xZ2xZ4", "Z2xZ2xZ2xZ2")]
    for _ in range(300):
        A = rng.choice(groups)
        support = rng.sample(A.elements(), rng.randint(1, 4))
        entries = [rng.choice(support) for _ in range(rng.randint(6, 14))]
        yield Sequence.from_elements(A, entries), None


def _edge_cases():
    """∅, runs of zeros, Z1 and single runs of x, with their k_max."""
    for spec in ("Z1", "Z2", "Z6", "Z2xZ4", "Z2xZ2xZ2xZ2"):
        A = parse_groupspec(spec)
        for n in range(9):
            yield Sequence(A, [(A.zero, n)] if n else []), n
        for x in A.elements()[1:]:
            order = next(n for n in range(1, A.order + 1) if A.scale(n, x) == A.zero)
            for n in range(1, 13):
                yield Sequence(A, [(x, n)]), n // order


@pytest.mark.parametrize("inputs", [_oracle_pool_corpus, _long_sequences, _edge_cases],
                         ids=["corpus", "long", "edges"])
def test_oracle_engine_and_definition_agree(inputs):
    values = set()
    for s, expected in inputs():
        value = _k_max_by_definition(s)
        assert k_max_naive(s) == k_max(s) == value, s.literal()
        assert expected in (None, value), s.literal()
        count, packing = k_max_with_witness(s)
        assert count == len(packing.blocks) == value, s.literal()
        # plain sums and counts, with no group table
        covered = collections.Counter(packing.remainder)
        for block in packing.blocks:
            assert len(block) and all(sum(x[j] for x in block) % n == 0
                                      for j, n in enumerate(s.group.factors)), s.literal()
            covered.update(block)
        assert covered == collections.Counter(s), s.literal()
        values.add(value)
    assert len(values) >= 4


def test_the_oracle_ignores_a_poisoned_memo(monkeypatch):
    """Every sub-multiset of the checked sequences has a wrong memo entry:
    the engine returns it, and ``k_max_naive`` still returns the truth."""
    memo = {}
    monkeypatch.setattr(sequences, "_KMAX_MEMO", memo)
    rng = random.Random(1213)
    cases = []
    for A in (Z4, V4, AbelianGroup((6,)), AbelianGroup((2, 4))):
        elems = A.elements()
        for _ in range(25):
            s = Sequence.from_elements(A, [rng.choice(elems) for _ in range(rng.randint(1, 8))])
            runs = _to_indices(A, s.items)
            for counts in itertools.product(*(range(m + 1) for _, m in runs)):
                sub = tuple((elem, c) for (elem, _), c in zip(runs, counts) if c)
                memo[A.factors, sub] = sum(counts) + 1  # above any k_max
            cases.append(s)
    for s in cases:
        assert k_max(s) == len(s) + 1, s.literal()
        assert k_max_naive(s) == _k_max_by_definition(s) <= len(s), s.literal()


def test_k_max_superadditive_under_concat():
    rng = random.Random(99)
    for _ in range(100):
        A = rng.choice([Z3, Z4, V4])
        elems = A.elements()
        s = Sequence.from_elements(A, [rng.choice(elems) for _ in range(rng.randint(0, 5))])
        t = Sequence.from_elements(A, [rng.choice(elems) for _ in range(rng.randint(0, 5))])
        assert k_max(concat(s, t)) >= k_max(s) + k_max(t)


def test_k_max_monotone_under_extension():
    rng = random.Random(7)
    for _ in range(100):
        A = rng.choice([Z3, Z4, V4])
        elems = A.elements()
        s = Sequence.from_elements(A, [rng.choice(elems) for _ in range(rng.randint(0, 6))])
        g = rng.choice(elems)
        assert k_max(concat(s, Sequence.from_elements(A, [g]))) >= k_max(s)


def test_canonical_form_is_orbit_invariant():
    rng = random.Random(2718)
    groups = [Z3, Z4, V4, AbelianGroup((2, 4)), AbelianGroup((3, 3))]
    for _ in range(60):
        A = rng.choice(groups)
        auts = automorphism_group(A)
        elems = A.elements()
        s = Sequence.from_elements(A, [rng.choice(elems) for _ in range(rng.randint(0, 6))])
        canon = canonical_form(s, auts)
        assert k_max(canon) == k_max(s)
        assert canonical_form(canon, auts) == canon
        for phi in auts:
            image = apply_to_sequence(phi, s)
            assert canonical_form(image, auts) == canon
            assert k_max(image) == k_max(s)


def test_canonical_form_refuses_automorphisms_of_another_group():
    # Aut(Z2×Z2) would send 2 in Z4 to 1, out of its orbit; Aut(Z3) would
    # read past the index range of Z5
    Z5 = AbelianGroup((5,))
    for S, auts in ((seq(Z4, 2), automorphism_group(V4)), (seq(Z5, 4), automorphism_group(Z3))):
        with pytest.raises(StructuralError):
            canonical_form(S, auts)


def test_apply_to_sequence_refuses_an_automorphism_of_another_group():
    # x ↦ 3x of Z5 would send 2 in Z3 to 1
    with pytest.raises(StructuralError):
        apply_to_sequence(Automorphism(AbelianGroup((5,)), [(3,)]), seq(Z3, 2))


# Runs in a child process whose address space is capped, so that an engine
# which builds a table per element of A (or per pair) fails with MemoryError
# instead of exhausting the machine.
_LARGE_GROUP_CHILD = """
import json, random, resource, sys, time, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from zerosumlab.groups import parse_groupspec
from zerosumlab.sequences import (Sequence, k_max, k_max_naive, k_max_with_witness,
                                  minimal_zero_sum_subsequences)

rng = random.Random(2020)
out = []
for spec in sys.argv[1:]:
    A = parse_groupspec(spec)
    for _ in range(3):
        x = [tuple(rng.randrange(n) for n in A.factors) for _ in range(4)]
        # four random entries and four that close zero sums with them
        S = Sequence.from_elements(A, x + [A.neg(A.add(x[0], x[1])), A.neg(x[2]),
                                           A.neg(A.add(x[2], x[3])), x[0]])
        values = []
        for f in (k_max, k_max_naive, k_max_with_witness, minimal_zero_sum_subsequences):
            tracemalloc.start()
            start = time.perf_counter()
            result = f(S)
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            values.append(result[0] if f is k_max_with_witness else result)
            out.append([spec, f.__name__, seconds, peak])
        assert values[0] == values[1] == values[2] >= 2, S.literal()
        assert len(values[3]) >= 2, S.literal()
print(json.dumps(out))
"""


def test_engine_on_groups_of_order_2_to_the_20():
    """Every engine entry point on 8-entry sequences over groups of order
    2^20 takes under a second and 16 MB: what the int kernel builds grows
    with the sums it touches, not with |A|."""
    specs = ["Z1048576", "Z2xZ524288", "x".join(["Z4"] * 10)]
    env = dict(os.environ, PYTHONPATH=str(Path(zerosumlab.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", _LARGE_GROUP_CHILD, *specs], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    assert len(calls) == 3 * 3 * 4
    for spec, name, seconds, peak in calls:
        assert seconds < 1.0, (spec, name, seconds)
        assert peak < 16 << 20, (spec, name, peak)


def test_long_runs_need_no_recursion():
    # 1^1500·3^2 over Z7: 214 blocks 1^7, and 1·3^2
    S = Sequence(AbelianGroup((7,)), [((1,), 1500), ((3,), 2)])
    assert k_max(S) == k_max_naive(S) == 215
    count, packing = k_max_with_witness(S)
    assert count == len(packing.blocks) == 215
    assert packing.verify_covers(S)
    assert all(sequence_sum(block) == (0,) for block in packing.blocks)
    assert packing.remainder.items == (((1,), 1),)


_CAPACITY_CHILD = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from zerosumlab.errors import CapacityError
from zerosumlab.groups import parse_groupspec
from zerosumlab.sequences import (TABLE_CELLS, TABLE_LEVEL_BITS, Sequence, k_max,
                                  k_max_naive, k_max_with_witness,
                                  minimal_zero_sum_subsequences)

A = parse_groupspec("Z2xZ2xZ2xZ2xZ2")
# 23 distinct non-zero elements and three zeros: 2^23 sub-multisets past the zeros
S = Sequence(A, [(A.zero, 3)] + [(x, 1) for x in A.elements()[1:24]])
# 1^2047·3^2047 over Z7: exactly 2^22 sub-multisets, but up to 2047 levels
L = Sequence(parse_groupspec("Z7"), [((1,), 2047), ((3,), 2047)])
assert TABLE_CELLS == 1 << 22 and TABLE_LEVEL_BITS == 1 << 30
for f in (k_max, k_max_naive, k_max_with_witness, minimal_zero_sum_subsequences):
    refused = [(S, TABLE_CELLS), (L, TABLE_LEVEL_BITS)]
    if f is minimal_zero_sum_subsequences:
        del refused[1]  # it reads two levels of L's table, below
    for T, limit in refused:
        start = time.perf_counter()
        try:
            f(T)
        except CapacityError as exc:
            assert exc.limit == limit, exc
        else:
            sys.exit(f"{f.__name__} built a table past {limit}")
        assert time.perf_counter() - start < 0.5, f.__name__
# the minimal blocks read two levels only: 1·3^2, 1^4·3, 1^7 and 3^7
assert [B.items for B in minimal_zero_sum_subsequences(L)] == [
    (((1,), 1), ((3,), 2)), (((1,), 4), ((3,), 1)), (((1,), 7),), (((3,), 7),)]
"""


_FULL_TABLE_CHILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from zerosumlab.groups import parse_groupspec
from zerosumlab.sequences import TABLE_CELLS, TABLE_LEVEL_BITS, Sequence, k_max_with_witness


def check(S, value):
    count, packing = k_max_with_witness(S)
    assert count == len(packing.blocks) == value, (count, value)
    # plain sums and counts, with no group table
    used = [x for block in packing.blocks for x in block] + list(packing.remainder)
    assert sorted(used) == sorted(S), "the packing does not cover S"
    for block in packing.blocks:
        assert len(block) and all(sum(x[j] for x in block) % n == 0
                                  for j, n in enumerate(S.group.factors)), packing


A = parse_groupspec("Z2xZ2xZ2xZ2xZ2")
# 22 distinct non-zero elements: exactly 2^22 sub-multisets
entries = A.elements()[1:23]
assert 2 ** len(entries) == TABLE_CELLS
check(Sequence(A, [(x, 1) for x in entries]), 6)
# the longest 1^m·3^m over Z7 and 1^m over Z2 within the level cap: the
# walk holds every level at once
m = 1023
assert (m + 1) ** 2 * m <= TABLE_LEVEL_BITS < (m + 2) ** 2 * (m + 1)
# an optimal packing takes minimal blocks: 1·3^2 and 1^4·3, the rest 1^7 and 3^7
best = max(a + b + (m - a - 4 * b) // 7 + (m - 2 * a - b) // 7
           for a in range(m // 2 + 1) for b in range(min(m - 2 * a, (m - a) // 4) + 1))
check(Sequence(parse_groupspec("Z7"), [((1,), m), ((3,), m)]), best)
m = 46340
assert (m + 1) * (m // 2) <= TABLE_LEVEL_BITS < (m + 2) * ((m + 1) // 2)
check(Sequence(parse_groupspec("Z2"), [((1,), m)]), m // 2)
"""


def test_a_table_at_the_cap_is_built_and_answered():
    env = dict(os.environ, PYTHONPATH=str(Path(zerosumlab.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", _FULL_TABLE_CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr + proc.stdout


def test_a_table_past_the_cap_is_refused_before_it_is_built():
    env = dict(os.environ, PYTHONPATH=str(Path(zerosumlab.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", _CAPACITY_CHILD], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr + proc.stdout
