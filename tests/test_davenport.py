from __future__ import annotations

import itertools
import math
import random
import time

import pytest

from zerosumlab import davenport, groups, sequences
from zerosumlab.groups import automorphism_count, automorphism_group, factorize
from zerosumlab.sequences import (
    Sequence,
    _OrbitTable,
    _candidate_positions,
    _canonical_items,
    _items_add_one,
    _to_elements,
    canonical_form,
)
from zerosumlab import (
    AbelianGroup,
    CapacityError,
    DomainError,
    davenport_k,
    davenport_table,
    eta,
    k_max,
    k_max_naive,
    linearity_profile,
    parse_sequence,
    sigma_diagonal,
    verify_inequalities,
    verify_subgroup_relations,
)

Z2 = AbelianGroup((2,))
Z3 = AbelianGroup((3,))
Z4 = AbelianGroup((4,))
Z6 = AbelianGroup((6,))
Z2xZ2 = AbelianGroup((2, 2))
Z2xZ4 = AbelianGroup((2, 4))
Z3xZ3 = AbelianGroup((3, 3))
Z2cubed = AbelianGroup((2, 2, 2))
TRIVIAL = AbelianGroup(())


# --- D_1 baselines ---------------------------------------------------------

def test_cyclic_baseline():
    # D(Z_n) = n
    for n in range(2, 8):
        assert davenport_k(AbelianGroup((n,))).value_Dk == n


def test_rank_two_baseline():
    # D(Z_{n1} x Z_{n2}) = n1 + n2 - 1 for n1 | n2
    assert davenport_k(Z2xZ2).value_Dk == 3
    assert davenport_k(Z3xZ3).value_Dk == 5
    assert davenport_k(Z2xZ4).value_Dk == 5


def test_witness_is_extremal():
    r = davenport_k(Z3xZ3)
    assert r.extremal_witness.length == r.value_Dk - 1
    assert k_max_naive(r.extremal_witness) == 0


def test_dk_is_Dk_minus_one():
    r = davenport_k(Z6, k=2)
    assert r.value_dk == r.value_Dk - 1


# --- D_k tables -------------------------------------------------------------

def test_cyclic_table_is_k_times_n():
    # D_k(Z_n) = k n
    for n in (2, 3, 4):
        table = davenport_table(AbelianGroup((n,)), 3)
        assert [r.value_Dk for r in table] == [n, 2 * n, 3 * n]


def test_klein_table():
    # D_k(Z2 x Z2) = 2k + 1
    assert [r.value_Dk for r in davenport_table(Z2xZ2, 4)] == [3, 5, 7, 9]


def test_p3xp3_table():
    # D_k(Z3 x Z3) = 3k + 2
    assert [r.value_Dk for r in davenport_table(Z3xZ3, 3)] == [5, 8, 11]


def test_two_cubed_table():
    # the first three entries were independently brute-forced over all
    # multisets of nonzero vectors; the slope-2 tail starts only at k = 2
    assert [r.value_Dk for r in davenport_table(Z2cubed, 4)] == [4, 7, 9, 11]


def test_trivial_group_table():
    # only the zero element exists, so k_max equals the length
    table = davenport_table(TRIVIAL, 3)
    assert [r.value_Dk for r in table] == [1, 2, 3]
    assert table[0].extremal_witness.length == 0


def test_table_agrees_with_single_k():
    table = davenport_table(Z2xZ4, 2)
    assert davenport_k(Z2xZ4, k=2).value_Dk == table[1].value_Dk


def test_table_rejects_bad_k():
    with pytest.raises(DomainError):
        davenport_table(Z2, 0)


def test_witnesses_reverify_across_groups():
    for A in (Z2, Z4, Z2xZ2, Z6):
        for r in davenport_table(A, 3):
            w = r.extremal_witness
            assert w.length == r.value_Dk - 1
            assert k_max_naive(w) <= r.k - 1


def test_report_as_dict_round_trip():
    r = davenport_k(Z2xZ2, k=2)
    d = r.as_dict()
    assert d["group"] == "Z2xZ2"
    assert d["value_Dk"] == 5
    assert parse_sequence(d["extremal_witness"], Z2xZ2).length == 4


def _row(group, k, Dk, dk, witness, nodes, levels):
    return {"group": group, "k": k, "value_Dk": Dk, "value_dk": dk,
            "extremal_witness": witness,
            "search_stats": {"nodes": nodes, "levels": levels}}


def _table(A, k_upto, budget_seconds=None):
    reports = [r.as_dict() for r in davenport_table(A, k_upto, budget_seconds=budget_seconds)]
    for report in reports:
        del report["search_stats"]["seconds"]
    return reports


# Reports of the scans, written out; "seconds" is dropped.  Every group of
# order <= 16 takes the identity path, and so does Z17, whose Aut(A) has 16
# elements; Z3×Z6, with 48, takes the symmetric one.
@pytest.mark.parametrize(
    "compute, expected",
    [
        (lambda: _table(Z6, 3), [
            _row("Z6", 1, 6, 5, "[1,1,1,1,1]", 2098, 18),
            _row("Z6", 2, 12, 11, "[1,1,1,1,1,1,1,1,1,1,1]", 2098, 18),
            _row("Z6", 3, 18, 17, "[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1]", 2098, 18),
        ]),
        (lambda: _table(Z2xZ4, 2), [
            _row("Z2xZ4", 1, 5, 4, "[(0,1),(1,0),(1,1),(1,1)]", 2157, 9),
            _row("Z2xZ4", 2, 9, 8,
                 "[(0,1),(1,0),(1,1),(1,1),(1,1),(1,1),(1,1),(1,1)]", 2157, 9),
        ]),
        (lambda: _table(Z3xZ3, 2), [
            _row("Z3xZ3", 1, 5, 4, "[(0,1),(1,0),(1,2),(1,2)]", 5350, 8),
            _row("Z3xZ3", 2, 8, 7, "[(0,1),(1,0),(1,1),(1,1),(1,1),(1,2),(1,2)]", 5350, 8),
        ]),
        (lambda: _table(Z2cubed, 3), [
            _row("Z2xZ2xZ2", 1, 4, 3, "[(0,0,1),(0,1,0),(1,0,0)]", 4735, 9),
            _row("Z2xZ2xZ2", 2, 7, 6,
                 "[(0,0,1),(0,1,0),(0,1,1),(1,0,0),(1,0,1),(1,1,0)]", 4735, 9),
            _row("Z2xZ2xZ2", 3, 9, 8,
                 "[(0,0,1),(0,1,0),(0,1,1),(1,0,0),(1,0,1),(1,1,0),(1,1,1),(1,1,1)]",
                 4735, 9),
        ]),
        (lambda: eta(Z2cubed), 8),
        (lambda: eta(Z3xZ3), 7),
        # D = D_1 alone: the scan that keeps the zero-sum-free candidates
        (lambda: _table(Z6, 1), [_row("Z6", 1, 6, 5, "[1,1,1,1,1]", 97, 6)]),
        (lambda: _table(AbelianGroup((11,)), 1),
         [_row("Z11", 1, 11, 10, "[" + ",".join(["1"] * 10) + "]", 3364, 11)]),
        (lambda: _table(Z2xZ4, 1),
         [_row("Z2xZ4", 1, 5, 4, "[(0,1),(1,0),(1,1),(1,1)]", 242, 5)]),
        (lambda: _table(Z3xZ3, 1),
         [_row("Z3xZ3", 1, 5, 4, "[(0,1),(1,0),(1,2),(1,2)]", 532, 5)]),
        (lambda: _table(AbelianGroup((2, 2, 4)), 1),
         [_row("Z2xZ2xZ4", 1, 6, 5, "[(0,0,1),(0,1,0),(0,1,1),(1,0,0),(1,0,1)]", 9677, 6)]),
        (lambda: _table(AbelianGroup((2, 2, 2, 2)), 1),
         [_row("Z2xZ2xZ2xZ2", 1, 5, 4, "[(0,0,0,1),(0,0,1,0),(0,1,0,0),(1,0,0,0)]", 4980, 5)]),
        (lambda: _table(AbelianGroup((17,)), 1, budget_seconds=60),
         [_row("Z17", 1, 17, 16, "[" + ",".join(["1"] * 16) + "]", 61488, 17)]),
        # the symmetric path's default output: D(Z3×Z6) = 3 + 6 − 1
        (lambda: _table(AbelianGroup((3, 6)), 1, budget_seconds=60),
         [_row("Z3xZ6", 1, 8, 7, "[(0,1),(0,4),(1,0),(1,5),(1,5),(1,5),(1,5)]", 2354, 8)]),
    ],
    ids=["Z6", "Z2xZ4", "Z3xZ3", "Z2xZ2xZ2", "eta-Z2xZ2xZ2", "eta-Z3xZ3", "D1-Z6", "D1-Z11",
         "D1-Z2xZ4", "D1-Z3xZ3", "D1-Z2xZ2xZ4", "D1-Z2xZ2xZ2xZ2", "D1-Z17", "D1-Z3xZ6"],
)
def test_davenport_reports_are_pinned(compute, expected):
    assert compute() == expected


class _WatchedMemo(dict):
    """A k_max memo that records every read and write."""

    def __init__(self, touched):
        super().__init__()
        self.touched = touched

    def get(self, key, default=None):
        self.touched.append(("get", key))
        return super().get(key, default)

    def __contains__(self, key):
        self.touched.append(("contains", key))
        return super().__contains__(key)

    def __getitem__(self, key):
        self.touched.append(("getitem", key))
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        self.touched.append(("setitem", key))
        super().__setitem__(key, value)


def test_the_D1_scan_runs_no_k_max(monkeypatch):
    # every D_k and η scan decides a candidate from the previous level, so no
    # candidate reaches the engine or the memo, whatever k is
    calls, touched = [], []
    kmax_items = davenport._kmax_items

    def counted(*args):
        calls.append(args)
        return kmax_items(*args)

    monkeypatch.setattr(davenport, "_kmax_items", counted)
    monkeypatch.setattr(sequences, "_kmax_items", counted)
    monkeypatch.setattr(sequences, "_KMAX_MEMO", _WatchedMemo(touched))
    for A in (Z6, Z2xZ4, Z3xZ3, Z2cubed):
        n1, n2 = (1, *A.factors) if A.rank == 1 else A.factors[-2:]
        table = [r.value_Dk for r in davenport_table(A, 3)]
        if A.rank <= 2:
            assert table == [n1 + k * n2 - 1 for k in (1, 2, 3)]
            assert eta(A) == 2 * n1 + n2 - 2
        else:
            assert table == [4, 7, 9]
            assert eta(A) == 8
    assert calls == [] and touched == []
    # the public k_max still runs the engine through the memo
    assert k_max(parse_sequence("[1,1,1,1,1,1]", Z3)) == 2
    assert calls and touched


class _PoisonedMemo(dict):
    """A k_max memo that claims ``value`` for every key."""

    def __init__(self, value):
        super().__init__()
        self.value = value

    def get(self, key, default=None):
        return self.value

    def __contains__(self, key):
        return True

    def __getitem__(self, key):
        return self.value


@pytest.mark.parametrize("poison", [0, 1, 99], ids=["zero", "one", "high"])
def test_a_poisoned_memo_changes_no_report(monkeypatch, poison):
    # a memo that answers 0 would keep every candidate of a scan that read it,
    # one that answers 99 would keep none; the scans read no memo
    cases = [(Z6, 3), (Z2xZ4, 2), (Z3xZ3, 2), (Z2cubed, 3), (TRIVIAL, 2)]
    clean = [_table(A, k) for A, k in cases] + [eta(A) for A, _ in cases]
    monkeypatch.setattr(sequences, "_KMAX_MEMO", _PoisonedMemo(poison))
    assert [_table(A, k) for A, k in cases] + [eta(A) for A, _ in cases] == clean


# --- capacity and budgets ---------------------------------------------------

def test_large_group_needs_budget():
    with pytest.raises(CapacityError):
        davenport_table(AbelianGroup((17,)), 1)


def test_budget_exhaustion_reports_partial():
    with pytest.raises(CapacityError) as info:
        davenport_table(Z3xZ3, 3, budget_seconds=1e-9)
    assert info.value.partial is not None


@pytest.mark.parametrize("budget", [math.nan, math.inf, 0, -1])
def test_budget_must_be_finite_and_positive(budget):
    # a NaN budget would let an order-17 scan run with no working limit
    with pytest.raises(DomainError):
        davenport_table(AbelianGroup((17,)), 1, budget_seconds=budget)
    with pytest.raises(DomainError):
        eta(Z3, budget_seconds=budget)


def test_eta_checks_its_budget_inside_a_level():
    # length 6 of the Z4×Z8 scan runs from about 0.6 s to 2.6 s on a 2-vCPU
    # VM, so a clock read only between lengths overshoots a 1 s budget by
    # over a second
    start = time.monotonic()
    with pytest.raises(CapacityError):
        eta(AbelianGroup((4, 8)), budget_seconds=1.0)
    assert time.monotonic() - start < 1.5


def test_the_identity_path_checks_its_budget_inside_a_level():
    # Aut(Z4^3) is too large to list, so D(Z4^3) takes the identity path;
    # on a 2-vCPU VM its length 5 runs from about 1.1 s to 18 s, so a clock
    # read only between lengths overshoots a 3 s budget by 15 s
    start = time.monotonic()
    with pytest.raises(CapacityError):
        davenport_table(AbelianGroup((4, 4, 4)), 1, budget_seconds=3.0)
    assert time.monotonic() - start < 3.5


def test_codes_past_the_bit_bound_are_refused_at_once():
    # a code takes |A|·w bits, w = (limit·exp(A)).bit_length(): Z2000 needs
    # 2000·11, refused before level 1; Z128 fills 1024 bits exactly and
    # runs until its budget ends, Z129 passes them
    start = time.monotonic()
    with pytest.raises(CapacityError) as info:
        eta(AbelianGroup((2000,)), budget_seconds=60)
    assert time.monotonic() - start < 0.5
    assert info.value.limit == davenport.CODE_BITS == 1024
    with pytest.raises(CapacityError) as info:
        eta(AbelianGroup((128,)), budget_seconds=1e-9)
    assert info.value.limit == 1e-9
    for A, k in ((AbelianGroup((129,)), 1), (AbelianGroup((128,)), 2)):
        with pytest.raises(CapacityError) as info:
            davenport_table(A, k, budget_seconds=60)
        assert info.value.limit == 1024


@pytest.mark.parametrize("A, k_upto, width, nodes, levels",
                         [(Z3, 5, 4, 100, 15), (Z4, 4, 5, 348, 16)], ids=["Z3", "Z4"])
def test_counts_fill_their_digits(A, k_upto, width, nodes, levels):
    # limit·exp(A) = 15 = 2^4 − 1 fills a 4-bit digit and 16 needs a 5-bit
    # one: 1^(k·n), a candidate of the last level, holds limit·exp(A) copies
    n = A.exponent
    assert davenport._digit_width(A, k_upto) == width
    assert _table(A, k_upto) == [
        _row(A.spec(), k, k * n, k * n - 1, "[" + ",".join(["1"] * (k * n - 1)) + "]",
             nodes, levels)
        for k in range(1, k_upto + 1)
    ]


@pytest.mark.parametrize("A, k_upto", [
    (Z6, 3), (Z3xZ3, 2), (Z2cubed, 3), (AbelianGroup((2, 2, 4)), 1),
    (AbelianGroup((2, 2, 2, 2)), 2), (AbelianGroup((16,)), 1),
], ids=["Z6", "Z3xZ3", "Z2^3", "Z2xZ2xZ4", "Z2^4", "Z16"])
def test_the_least_code_is_the_least_decoded_survivor(A, k_upto):
    # every level and every k threshold the witness pick can meet
    width = davenport._digit_width(A, k_upto)
    for _, survivors, _ in davenport._levels(A, k_upto, None, None, {}):
        for k in range(1, k_upto + 1):
            codes = [code for code, km in survivors.items() if km < k]
            if codes:
                least = davenport._least_code(codes, width)
                assert davenport._decode(least, width) == min(
                    davenport._decode(code, width) for code in codes)


def test_the_least_code_orders_runs_not_index_tuples():
    # 1·4·5^2 < 1^3·4 as runs: the smaller count of 1 wins, though the
    # sorted index tuples order them the other way
    width = davenport._digit_width(Z6, 3)
    codes = [davenport._encode(runs, width) for runs in (((1, 3), (4, 1)), ((1, 1), (4, 1), (5, 2)))]
    for order in (codes, codes[::-1]):
        assert davenport._decode(davenport._least_code(order, width), width) == (
            (1, 1), (4, 1), (5, 2))


def test_budget_allows_large_group():
    # order 17 > the no-budget ceiling, but the scan itself is quick
    assert davenport_table(AbelianGroup((17,)), 1, budget_seconds=60)[0].value_Dk == 17


# --- eta ----------------------------------------------------------------

def test_eta_cyclic():
    # eta(Z_n) = n
    assert eta(Z2) == 2
    assert eta(Z3) == 3
    assert eta(Z6) == 6


def test_eta_rank_two():
    # eta(Z_p x Z_p) = 3p - 2; eta(Z2 x Z4) = 6
    assert eta(Z2xZ2) == 4
    assert eta(Z3xZ3) == 7
    assert eta(Z2xZ4) == 6


def test_eta_trivial_group():
    assert eta(TRIVIAL) == 1


def test_eta_needs_budget_past_ceiling():
    with pytest.raises(CapacityError):
        eta(AbelianGroup((18,)))


# --- sigma ----------------------------------------------------------------

def test_sigma_diagonal_mixed_orders():
    # characters of orders 3 and 2 inside Z6: the slowest subset is {2}
    assert sigma_diagonal(Z6, [(2,), (3,)]) == 3
    assert sigma_diagonal(Z4, [(1,)]) == 4
    assert sigma_diagonal(Z2xZ2, [(1, 0), (0, 1), (1, 1)]) == 2


def test_sigma_diagonal_rejects_empty():
    with pytest.raises(DomainError):
        sigma_diagonal(Z6, [])


def test_sigma_diagonal_subset_cap():
    A = AbelianGroup((18,))
    chars = [(i,) for i in range(1, 18)]
    with pytest.raises(CapacityError):
        sigma_diagonal(A, chars)


# --- eventual linearity ----------------------------------------------------

def test_profile_cyclic():
    p = linearity_profile(Z3, 4)
    assert (p.slope, p.k0, p.D0, p.status) == (3, 1, 0, "stabilized")
    assert p.table == [(1, 3), (2, 6), (3, 9), (4, 12)]


def test_profile_klein():
    p = linearity_profile(Z2xZ2, 4)
    assert (p.slope, p.k0, p.D0) == (2, 1, 1)


def test_profile_two_cubed_stabilizes_late():
    p = linearity_profile(Z2cubed, 4)
    assert (p.slope, p.k0, p.D0, p.status) == (2, 2, 3, "stabilized")


def test_profile_undetermined_when_window_too_short():
    # D_2 - D_1 = 3 for Z2^3, which is not the exponent: no verdict at k_upto=2
    p = linearity_profile(Z2cubed, 2)
    assert p.status == "undetermined"
    assert p.k0 is None and p.D0 is None


def test_profile_rejects_short_window():
    with pytest.raises(DomainError):
        linearity_profile(Z2, 1)


def test_profile_as_dict():
    d = linearity_profile(Z6, 3).as_dict()
    assert d["group"] == "Z6"
    assert d["slope"] == 6
    assert d["table"] == [[1, 6], [2, 12], [3, 18]]


# --- inequality batteries ---------------------------------------------------

def test_inequalities_hold_on_small_groups():
    for A in (Z2, Z3, Z2xZ2, Z6, Z2cubed):
        profile = linearity_profile(A, 4)
        report = verify_inequalities(A, profile)
        assert report["passed"]
        names = {i["name"] for i in report["instances"]}
        assert {"monotone", "trivial", "lower-sigma", "k-over-r"} <= names


def test_inequalities_include_step_bound_once_stabilized():
    report = verify_inequalities(Z2xZ2, linearity_profile(Z2xZ2, 4))
    steps = [i for i in report["instances"] if i["name"] == "step"]
    assert steps and all(i["passed"] for i in steps)


def test_subgroup_relations():
    report = verify_subgroup_relations(Z4, Z2, ks=(1, 2))
    assert report["passed"]
    assert report["index"] == 2
    # D_1(Z4) = 4 <= D_2(Z2) = 4 is tight
    tight = [c for c in report["checks"] if c["name"] == "index-inequality" and c["k"] == 1]
    assert tight[0]["lhs"] == tight[0]["rhs"] == 4


def test_subgroup_relations_more_pairs():
    assert verify_subgroup_relations(Z2xZ2, Z2, ks=(1, 2))["passed"]
    assert verify_subgroup_relations(Z6, Z3, ks=(1,))["passed"]


def test_subgroup_relations_rejects_non_subgroup():
    with pytest.raises(DomainError):
        verify_subgroup_relations(Z4, Z3)
    with pytest.raises(DomainError):
        verify_subgroup_relations(Z2xZ2, Z4)


# --- the orbit-leader canonicaliser -------------------------------------------

# every non-trivial abelian group of order <= 16 (OEIS A000688 less Z1)
GROUPS_UP_TO_16 = [AbelianGroup(f) for f in (
    (2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2), (9,), (3, 3),
    (10,), (11,), (12,), (2, 6), (13,), (14,), (15,), (16,), (4, 4), (2, 8), (2, 2, 4),
    (2, 2, 2, 2),
)]


def _permutations(A, auts):
    """The identity and each automorphism as a tuple of element indices,
    each image computed as Σ x_i·images[i] in tuple arithmetic, apart from
    ``Automorphism.perm``."""
    perms = [tuple(range(A.order))]
    for aut in auts:
        images = [A.zero]
        for n, img in zip(A.factors, aut.images):
            multiples = [A.scale(c, img) for c in range(n)]
            images = [A.add(y, m) for y in images for m in multiples]
        perms.append(tuple(A.index(y) for y in images))
    return perms


def _image(perm, items):
    return sorted((perm[elem], mult) for elem, mult in items)


def _least_image(items, perms):
    return tuple(min(_image(perm, items) for perm in perms))


def _orbit_table(A, auts, monkeypatch):
    monkeypatch.setattr(davenport, "automorphism_group", lambda group: auts)
    return _OrbitTable(davenport._canonical_maps(A), range(A.order))


def _force_path(monkeypatch, identity):
    """Route every scan to the identity path (True) or, where Aut(A) can be
    listed, to the symmetric one (False)."""
    monkeypatch.setattr(davenport, "_identity_path", lambda group: identity)


def _random_runs(A, rng):
    counts = {}
    for _ in range(rng.randint(0, 8)):
        x = rng.randrange(A.order)
        counts[x] = counts.get(x, 0) + 1
    return tuple(sorted(counts.items()))


@pytest.mark.parametrize("A", [TRIVIAL] + GROUPS_UP_TO_16, ids=AbelianGroup.spec)
def test_canonical_items_is_the_least_image_and_its_stabiliser(A, monkeypatch):
    auts = automorphism_group(A)
    perms = sorted(set(_permutations(A, auts)))
    table = _orbit_table(A, auts, monkeypatch)
    rng = random.Random(A.order * 1009 + A.rank)
    # fewer runs where each brute-force minimum sorts 20,160 images
    for _ in range(40 if len(perms) < 1000 else 8):
        items = _random_runs(A, rng)
        images = [_image(perm, items) for perm in perms]
        least = tuple(min(images))
        found, ties = _canonical_items(items, table)
        assert found == least, items
        # the ties are every map onto the least image, each once
        assert sorted(ties) == [
            perm for perm, image in zip(perms, images) if tuple(image) == least
        ], items
        # the ties of the least image are its stabiliser, and the ties of
        # ``items`` a coset of it
        stab = _canonical_items(least, table)[1]
        assert sorted(stab) == [perm for perm in perms if tuple(_image(perm, least)) == least]
        assert len(ties) == len(stab), items
        if not items:
            continue
        # the scanned maps are exactly those that reach the least first run
        assert sorted(table.maps[j] for j in _candidate_positions(items, table)) == [
            perm for perm, image in zip(perms, images) if image[0] == least[0]
        ], items
    assert sorted(_canonical_items((), table)[1]) == perms


@pytest.mark.parametrize("A", [Z2xZ2, AbelianGroup((3, 3))], ids=AbelianGroup.spec)
def test_canonical_forms_are_exact_for_any_multiplicity(A, monkeypatch):
    # mixed multiplicities up to 2^40 and more, with one tie and with
    # several among scored candidates, against every map by brute force
    auts = automorphism_group(A)
    perms = sorted(set(_permutations(A, auts)))
    table = _orbit_table(A, auts, monkeypatch)
    rng = random.Random(A.order)
    mults = [1, 2, 3, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**40 + 3, 3**50]
    scored = set()  # how many ties, when more than one candidate is scored
    for _ in range(150):
        support = rng.sample(range(A.order), rng.randint(1, min(A.order, 6)))
        items = tuple(sorted((x, rng.choice(mults)) for x in support))
        least = _least_image(items, perms)
        found, ties = _canonical_items(items, table)
        assert found == least, items
        assert sorted(ties) == [perm for perm in perms if tuple(_image(perm, items)) == least]
        if len(_candidate_positions(items, table)) > 1:
            scored.add(len(ties) > 1)
        S = Sequence(A, _to_elements(A, items))
        assert canonical_form(S, auts).items == _to_elements(A, least), items
    # the scored candidates reach one tie and several
    assert scored == {False, True}


def _key_cases(rng, n, mults):
    """Int runs over n points that hold (0, 1), paired with a permutation of
    the points that fixes 0: the two edge cases, then random ones that
    permute the support among itself or move it anywhere."""
    identity = list(range(n))
    swap = identity[:]
    swap[1], swap[2] = 2, 1
    away = identity[:]
    away[1], away[n - 1] = n - 1, 1
    # same point, different counts: (1, 2) against (1, 2^64 + 1) first;
    # a point in one image only: 1 against n − 1
    yield ((0, 1), (1, 2), (2, 2**64 + 1)), tuple(swap)
    yield ((0, 1), (1, 2**63), (5, 3)), tuple(away)
    for _ in range(400):
        support = rng.sample(range(1, n), rng.randint(1, 6))
        items = tuple(sorted([(0, 1)] + [(x, rng.choice(mults)) for x in support]))
        perm = identity[:]
        moved = support if rng.random() < 0.5 else identity[1:]
        for x, y in zip(moved, rng.sample(moved, len(moved))):
            perm[x] = y
        yield items, tuple(perm)


def test_the_key_orders_images_opposite_to_their_run_lists():
    # synthetic permutations of 64 points, counts past 2^63: every map fixes
    # 0 and each image starts with (0, 1), so every map is a candidate and
    # the key alone picks the least image and its ties.  Two maps compare
    # one pair of images, and a table of 40 the key's maximum over them
    n = 64
    identity = tuple(range(n))
    rng = random.Random(n)
    mults = [1, 2, 3, 7, 2**62, 2**63 - 1, 2**63, 2**63 + 1, 2**64 + 1, 3**50]
    orders = set()
    for items, perm in _key_cases(rng, n, mults):
        images = [items, tuple(_image(perm, items))]
        table = _OrbitTable([identity, perm], [x for x, _ in items])
        least, ties = _canonical_items(items, table)
        assert least == min(images), (items, perm)
        assert ties == [m for m, image in zip((identity, perm), images) if image == least]
        orders.add((images[0] > images[1]) - (images[0] < images[1]))
    assert orders == {-1, 0, 1}
    perms = [identity] + [perm for _, perm in itertools.islice(_key_cases(rng, n, mults), 2, 41)]
    for items, _ in itertools.islice(_key_cases(rng, n, mults), 100):
        table = _OrbitTable(perms, [x for x, _ in items])
        least, ties = _canonical_items(items, table)
        assert least == _least_image(items, perms), items
        assert ties == [perm for perm in perms if tuple(_image(perm, items)) == least], items


def test_each_canonicalisation_scans_the_candidate_maps_once(monkeypatch):
    # the firsts of a kept item come from the ties its candidate already
    # found, so no second gather of the candidate maps looks for its stabiliser
    A = AbelianGroup((2, 2, 4))
    table_calls = []
    gathers = []

    def counted(items, table):
        table_calls.append(len(table.maps) > 1)
        return _canonical_items(items, table)

    def candidate_positions(items, table):
        gathers.append(items)
        return _candidate_positions(items, table)

    monkeypatch.setattr(davenport, "_canonical_items", counted)
    monkeypatch.setattr(sequences, "_candidate_positions", candidate_positions)
    _force_path(monkeypatch, False)
    # the first 8 of the 14 levels of the D_1..3 scan: 5,206 of its 40,931 candidates
    levels = list(itertools.islice(davenport._levels(A, 3, None, None, None), 8))
    assert levels[-1][2] == 5206  # candidates examined
    assert all(table_calls) and len(gathers) == len(table_calls) > levels[-1][2]


@pytest.mark.parametrize("A", GROUPS_UP_TO_16, ids=AbelianGroup.spec)
def test_the_two_paths_report_the_same(A, monkeypatch):
    # each path forced in turn; D_1..3 where a run takes under 1 s on a
    # 2-vCPU VM, D_1..2 on the larger groups; only the node counts differ,
    # and only the symmetric path canonicalises
    k = 3 if A.order <= 9 else 2
    reports, canonicalised = [], []
    for identity in (False, True):  # the symmetric path, then the identity path
        calls = []

        def first_call(items, table, calls=calls):
            # one call tells the paths apart; the rest skip this wrapper
            calls.append(items)
            monkeypatch.setattr(davenport, "_canonical_items", _canonical_items)
            return _canonical_items(items, table)

        monkeypatch.setattr(davenport, "_canonical_items", first_call)
        _force_path(monkeypatch, identity)
        rows = _table(A, k)
        for row in rows:
            del row["search_stats"]["nodes"]
        reports.append((rows, eta(A)))
        canonicalised.append(bool(calls))
    assert reports[0] == reports[1]
    assert canonicalised == [True, False]


def test_the_scans_route_by_order_then_by_automorphisms(monkeypatch):
    # every group of order <= 16 takes the identity path with Aut(A) neither
    # counted nor listed; above that order a group with fewer than 2|A|
    # automorphisms takes it once counted (Z17: 16 < 34, Z29: 28 < 58,
    # Z2×Z14: 36 < 56, Z2×Z16: 32 < 64), and Z2^5 once its listing is refused
    counted, listed = [], []

    def count(group):
        counted.append(group.spec())
        return automorphism_count(group)

    def refuse(group):
        listed.append(group.spec())
        raise CapacityError("no automorphisms", limit=0)

    monkeypatch.setattr(davenport, "automorphism_count", count)
    for module in (davenport, groups):
        monkeypatch.setattr(module, "automorphism_group", refuse)
    for factors, D, eta_A in (((2, 2, 2), 4, 8), ((3, 3), 5, 7), ((4, 4), 7, 10),
                              ((2, 2, 4), 6, 8), ((2, 2, 2, 2), 5, 16)):
        A = AbelianGroup(factors)
        assert (davenport_k(A).value_Dk, eta(A)) == (D, eta_A)
    assert counted == listed == []
    assert davenport_k(AbelianGroup((17,)), budget_seconds=60).value_Dk == 17
    assert davenport_k(AbelianGroup((29,)), budget_seconds=60).value_Dk == 29
    # η(Z_m ⊕ Z_n) = 2m + n − 2
    assert eta(AbelianGroup((2, 14)), budget_seconds=60) == 16
    assert eta(AbelianGroup((2, 16)), budget_seconds=60) == 18
    assert davenport_k(AbelianGroup((2,) * 5), budget_seconds=60).value_Dk == 6
    assert counted == ["Z17", "Z29", "Z2xZ14", "Z2xZ16", "Z2xZ2xZ2xZ2xZ2"]
    assert listed == ["Z2xZ2xZ2xZ2xZ2"]
    # Z3×Z6 (48 automorphisms ≥ 36), Z5×Z5 (480 ≥ 50), Z4×Z8 (128 ≥ 64) and
    # Z3^3 (11,232) list Aut(A) and canonicalise; Z4×Z8 for two levels only
    monkeypatch.undo()
    listed, calls = [], []

    def listing(group):
        listed.append(group.spec())
        return automorphism_group(group)

    def canonical_items(items, table):
        calls.append(items)
        return _canonical_items(items, table)

    monkeypatch.setattr(davenport, "automorphism_group", listing)
    monkeypatch.setattr(davenport, "_canonical_items", canonical_items)
    for factors, D in (((3, 6), 8), ((5, 5), 9), ((3, 3, 3), 7)):
        calls.clear()
        assert davenport_k(AbelianGroup(factors), budget_seconds=60).value_Dk == D
        assert calls
    calls.clear()
    levels = davenport._levels(AbelianGroup((4, 8)), 1, None, 60, None)
    assert [length for length, _, _ in itertools.islice(levels, 2)] == [1, 2] and calls
    assert listed == ["Z3xZ6", "Z5xZ5", "Z3xZ3xZ3", "Z4xZ8"]


def _unpruned_extensions(A, frontier, perms):
    """Every one-element extension of every frontier item, brute-force
    canonicalised, each distinct result once in order of first appearance."""
    out = {}
    for items in frontier:
        for g in range(1, A.order):
            out.setdefault(_least_image(_items_add_one(items, g), perms), None)
    return list(out)


def _parents(items):
    """C − x for each distinct x in the int runs ``items``."""
    return [tuple((e, m - (e == x)) for e, m in items if m > (e == x)) for x, _ in items]


def _value(A, items, cap):
    """k_max_naive of the int runs ``items``, or with a cap, whether they
    hold a non-empty zero-sum block of length at most ``cap``."""
    if cap is None:
        return k_max_naive(Sequence(A, _to_elements(A, items)))
    return int(any(sum(m for _, m in block) <= cap
                   for block in sequences._zero_sum_subitems(A, items)))


def _flat(runs):
    """The sorted index tuple of the int runs ``runs``."""
    return tuple(x for x, m in runs for _ in range(m))


def _by_tuples(A, limit, survivors):
    """The survivors of ``_levels`` keyed by sorted index tuples, in their
    order: each code read digit by digit, every element of A in turn, with
    (limit·exp(A)).bit_length() bits a digit."""
    width = (limit * A.exponent).bit_length()
    full = (1 << width) - 1
    return {tuple(x for x in range(A.order) for _ in range(code >> width * x & full)): value
            for code, value in survivors.items()}


def _tuple_levels(A, limit, cap):
    """Every level of ``_levels``, its survivors keyed by sorted index tuples."""
    return [(level, _by_tuples(A, limit, survivors), nodes)
            for level, survivors, nodes in davenport._levels(A, limit, cap, None, None)]


def _runs(flat):
    """The int runs of the sorted index tuple ``flat``."""
    return tuple((x, flat.count(x)) for x in sorted(set(flat)))


def _check_levels(A, perms, limit, cap, depth):
    """Each of the first ``depth`` levels of ``_levels`` against a
    brute-force scan: the candidates are every extension of the previous
    level, and a candidate survives iff every parent did and its value,
    k_max_naive (or a short zero sum for a cap), is below ``limit``."""
    previous = {(): 0}
    nodes = 0
    for level, survivors, seen in itertools.islice(
            davenport._levels(A, limit, cap, None, None), depth):
        survivors = _by_tuples(A, limit, survivors)
        candidates = _unpruned_extensions(A, map(_runs, previous), perms)
        expected = {}
        for cand in candidates:
            if all(_flat(_least_image(p, perms)) in previous for p in _parents(cand)):
                value = _value(A, cand, cap)
                if value < limit:
                    expected[_flat(cand)] = value
        assert seen - nodes == len(candidates), level
        assert list(survivors.items()) == list(expected.items()), level
        previous, nodes = survivors, seen
    return previous


def _multisets(A, length):
    """Every multiset of ``length`` elements of A∖{0}, as sorted index tuples."""
    return itertools.combinations_with_replacement(range(1, A.order), length)


def _check_identity_levels(A, limit, cap, depth):
    """The first ``depth`` levels of the identity path against brute force:
    the survivors of length n are every multiset C with value below
    ``limit`` (v never falls, so all parents of such a C survive too), and
    level n examines each C whose C − max(C) survived length n − 1."""
    previous, nodes = {(): 0}, 0
    for level, survivors, seen in itertools.islice(
            davenport._levels(A, limit, cap, None, None), depth):
        survivors = _by_tuples(A, limit, survivors)
        expected, grown = {}, 0
        for cand in _multisets(A, level):
            grown += cand[:-1] in previous  # C − max(C)
            value = _value(A, _runs(cand), cap)
            if value < limit:
                expected[cand] = value
        assert survivors == expected, level
        assert seen - nodes == grown, level
        previous, nodes = survivors, seen
    return previous


@pytest.mark.parametrize("A", [Z2cubed, Z3xZ3, AbelianGroup((2, 2, 4))], ids=AbelianGroup.spec)
def test_extensions_match_the_unpruned_scan(A, monkeypatch):
    auts = automorphism_group(A)
    perms = _permutations(A, auts)
    table = _orbit_table(A, auts, monkeypatch)
    calls = []

    def counted(items, table):
        calls.append(items)
        return _canonical_items(items, table)

    monkeypatch.setattr(davenport, "_canonical_items", counted)
    _force_path(monkeypatch, False)
    next(davenport._levels(A, 1, None, None, None))
    # Aut(A) fixes the empty item: one call per orbit on A∖{0}
    assert len(calls) == len({table.leader[g] for g in range(1, A.order)})
    depth = 3 if A.order == 16 else 4
    for limit in (1, 2, 3):
        _check_levels(A, perms, limit, None, depth)
    _check_levels(A, perms, 1, A.exponent, depth)


def test_extensions_without_automorphisms_yield_every_extension(monkeypatch):
    # a refused Aut listing takes the identity path, which keeps every multiset
    def unavailable(group):
        raise CapacityError("no automorphisms", limit=0)

    monkeypatch.setattr(davenport, "automorphism_group", unavailable)
    assert davenport._canonical_maps(Z2xZ4) is None
    # a limit past the length keeps every multiset
    frontier = _check_identity_levels(Z2xZ4, 4, None, 3)
    # multisets of size 3 over the 7 non-zero elements
    assert len(frontier) == math.comb(7 + 2, 3)
    for limit, cap in ((1, None), (2, None), (1, Z2xZ4.exponent)):
        _check_identity_levels(Z2xZ4, limit, cap, 4)


@pytest.mark.parametrize("A", [Z2xZ2, Z6], ids=AbelianGroup.spec)
def test_identity_levels_match_brute_force(A, monkeypatch):
    # Z2×Z4 is checked on this path above, through a refused Aut listing
    _force_path(monkeypatch, True)
    for limit in (1, 2, 3):
        _check_identity_levels(A, limit, None, 5)
    _check_identity_levels(A, 1, A.exponent, 5)


@pytest.mark.parametrize("A, refused", [(Z2cubed, False), (Z3xZ3, False),
                                        (AbelianGroup((2, 2, 4)), False), (Z2xZ4, True)],
                         ids=["Z2xZ2xZ2", "Z3xZ3", "Z2xZ2xZ4", "Z2xZ4-refused"])
def test_credits_count_the_kept_parents(A, refused, monkeypatch):
    # for any set K of canonical items, the credits that the firsts of K give
    # a multiset C add up to (|Aut| / |Stab(C)|)·#{x ∈ supp C : can(C − x) ∈ K};
    # stabilisers, orbits and least images here are brute force
    if refused:  # an orbit table of the identity alone
        perms = [tuple(range(A.order))]
        table = _OrbitTable(perms, ())
    else:
        auts = automorphism_group(A)
        perms = sorted(set(_permutations(A, auts)))
        table = _orbit_table(A, auts, monkeypatch)
    rng = random.Random(A.order * 31 + refused)
    orbits = [()]
    moved = 0
    for _ in range(3):
        orbits = _unpruned_extensions(A, orbits, perms)
        K = set(rng.sample(orbits, (len(orbits) + 1) // 2))
        credits = {}
        for P in K:
            stab = [perm for perm in perms if tuple(_image(perm, P)) == P]
            # the ties of a raw image of P, as the scan meets P: the least
            # image is P, and no tie is the identity unless the raw is P
            raw = tuple(_image(rng.choice(perms), P))
            least, ties = _canonical_items(raw, table)
            assert least == P
            moved += raw != P
            firsts = davenport._firsts(ties, len(perms))
            assert [g for g, _ in firsts] == [
                g for g in range(1, A.order) if min(perm[g] for perm in stab) == g]
            for g, credit in firsts:
                fixing = [perm for perm in stab if perm[g] == g]
                assert credit == len(perms) // len(fixing)
                cand = _least_image(_items_add_one(P, g), perms)
                credits[cand] = credits.get(cand, 0) + credit
        assert credits
        for cand, credit in credits.items():
            stab_c = [perm for perm in perms if tuple(_image(perm, cand)) == cand]
            kept = sum(_least_image(p, perms) in K for p in _parents(cand))
            assert credit * len(stab_c) == kept * len(perms), cand
            assert len(_canonical_items(cand, table)[1]) == len(stab_c)
    assert moved or refused


def test_canonical_items_under_the_identity_alone_are_the_items():
    # Aut(Z2) is trivial, and a table of the identity alone indexes nothing
    trivial = _OrbitTable(davenport._canonical_maps(Z2), range(Z2.order))
    alone = _OrbitTable([tuple(range(Z2xZ4.order))], ())
    rng = random.Random(1211)
    for A, table in ((Z2, trivial), (Z2xZ4, alone)):
        assert len(table.maps) == 1
        for _ in range(20):
            items = _random_runs(A, rng)
            least, ties = _canonical_items(items, table)
            assert least is items and ties == table.maps


def test_levels_run_to_the_first_empty_level(monkeypatch):
    # Aut(Z2×Z2) = GL(2,2) leaves one orbit of length 1 and two of length 2;
    # below limit 2 the value is k_max: a^3·b and a^2·b·c are the length-4
    # multisets with one block only, and D_2(Z2×Z2) = 5
    _force_path(monkeypatch, False)
    assert _tuple_levels(Z2xZ2, 2, None) == [
        (1, {(1,): 0}, 1),
        (2, {(1, 1): 1, (1, 2): 0}, 3),
        (3, {(1, 1, 1): 1, (1, 2, 2): 1, (1, 2, 3): 1}, 6),
        (4, {(1, 2, 2, 2): 1, (1, 2, 3, 3): 1}, 10),
        (5, {}, 14),
    ]
    # Z2×Z2, of order 4, takes the identity path by default: it keeps whole
    # orbits, and builds each multiset from the one kept C − max(C)
    monkeypatch.undo()
    assert _tuple_levels(Z2xZ2, 2, None) == [
        (1, {(1,): 0, (2,): 0, (3,): 0}, 3),
        (2, {(1, 1): 1, (1, 2): 0, (1, 3): 0, (2, 2): 1, (2, 3): 0, (3, 3): 1}, 9),
        (3, {(1, 1, 1): 1, (1, 1, 2): 1, (1, 1, 3): 1, (1, 2, 2): 1, (1, 2, 3): 1,
             (1, 3, 3): 1, (2, 2, 2): 1, (2, 2, 3): 1, (2, 3, 3): 1, (3, 3, 3): 1}, 19),
        (4, {(1, 1, 1, 2): 1, (1, 1, 1, 3): 1, (1, 1, 2, 3): 1, (1, 2, 2, 2): 1,
             (1, 2, 2, 3): 1, (1, 2, 3, 3): 1, (1, 3, 3, 3): 1, (2, 2, 2, 3): 1,
             (2, 3, 3, 3): 1}, 34),
        (5, {}, 45),
    ]
    # the trivial group has no non-zero element: η(Z1) = 1, on either path
    assert _tuple_levels(TRIVIAL, 1, 1) == [(1, {}, 0)]
    _force_path(monkeypatch, False)
    assert _tuple_levels(TRIVIAL, 1, 1) == [(1, {}, 0)]


def test_budget_is_checked_by_the_shared_scan():
    partial = {}
    levels = davenport._levels(Z3xZ3, 12, None, 1e-9, partial)
    with pytest.raises(CapacityError) as info:
        list(levels)
    assert info.value.partial is partial and info.value.limit == 1e-9


def test_scans_use_no_tuple_arithmetic(monkeypatch):
    calls = []
    for name in ("add", "scale"):
        original = getattr(AbelianGroup, name)

        def counted(self, *args, _original=original, _name=name):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(AbelianGroup, name, counted)
    for factors, k in (((3, 3), 2), ((2, 2, 2), 3), ((2, 2, 4), 1)):
        # fresh groups and a cold memo, so every sum and k_max is computed
        monkeypatch.setattr(sequences, "_KMAX_MEMO", {})
        davenport_table(AbelianGroup(factors), k)
        eta(AbelianGroup(factors))
    assert sigma_diagonal(AbelianGroup((2, 6)), [(1, 0), (0, 2), (1, 3)]) == 3
    assert calls == []


# --- closed forms (oracles beside the search, never instead of it) -----------

@pytest.mark.parametrize("A", GROUPS_UP_TO_16, ids=AbelianGroup.spec)
def test_davenport_constant_closed_form(A):
    # D(A) = 1 + Σ(n_i − 1) for p-groups (Olson 1969) and rank <= 2 (van Emde
    # Boas–Kruyswijk 1967); every group here is one or the other
    assert A.rank <= 2 or len({p for n in A.factors for p, _ in factorize(n)}) == 1
    assert davenport_k(A).value_Dk == 1 + sum(n - 1 for n in A.factors)


@pytest.mark.parametrize("A", [A for A in GROUPS_UP_TO_16 if A.rank <= 2],
                         ids=AbelianGroup.spec)
def test_eta_closed_form(A):
    # η(Z_n1 ⊕ Z_n2) = 2·n1 + n2 − 2 (Geroldinger–Halter-Koch, Thm 5.8.3);
    # a cyclic group is the case n1 = 1
    n1, n2 = (1, *A.factors) if A.rank == 1 else A.factors
    assert eta(A) == 2 * n1 + n2 - 2


@pytest.mark.parametrize("A", [Z2xZ2, Z2xZ4, Z3xZ3], ids=AbelianGroup.spec)
def test_second_davenport_constant_closed_form(A):
    # D_k(Z_n1 ⊕ Z_n2) = n1 + k·n2 − 1 (Geroldinger–Halter-Koch, Thm 6.1.5)
    n1, n2 = A.factors
    assert davenport_table(A, 2)[1].value_Dk == n1 + 2 * n2 - 1
