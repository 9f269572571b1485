from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from operator import add

import pytest

from zerosumlab import (
    AbelianGroup,
    CyclotomicNumber,
    GradedSpan,
    MonomialRep,
    MultiPoly,
    PresentedGradedAlgebra,
    SemidirectGroup,
    StructuralError,
    az2_module,
    beta_k,
    induced_module,
    invariant_basis,
    regular_representation,
)
from zerosumlab.polynomials import _complement, grlex_key

zeta = CyclotomicNumber.zeta
X = MultiPoly.variable(0, 2)
Y = MultiPoly.variable(1, 2)


def _random_poly(rng: random.Random, nvars: int = 2) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exp = tuple(rng.randint(0, 3) for _ in range(nvars))
        terms[exp] = terms.get(exp, 0) + rng.randint(-3, 3)
    return MultiPoly(nvars, terms)


# --- construction -------------------------------------------------------------

def test_duplicate_exponents_combine():
    f = MultiPoly(1, [((2,), 1), ((2,), 2)])
    assert f == MultiPoly(1, {(2,): 3})


def test_zero_coefficients_dropped():
    f = MultiPoly(2, {(1, 0): 1, (0, 1): 0})
    assert len(f.terms) == 1
    assert (X - X).is_zero()


def test_subtraction_from_a_scalar():
    f = X**2 - 3 * X * Y
    assert 1 - f == -(f - 1)
    assert CyclotomicNumber.zeta(3) - f == -(f - CyclotomicNumber.zeta(3))


def test_arity_checks():
    with pytest.raises(StructuralError):
        MultiPoly(2, {(1,): 1})
    with pytest.raises(StructuralError):
        MultiPoly(1, {(-1,): 1})
    with pytest.raises(StructuralError):
        X + MultiPoly.variable(0, 3)


def test_mixed_conductor_coefficients_lift():
    f = MultiPoly(1, {(1,): zeta(3)})
    g = MultiPoly(1, {(0,): zeta(4)})
    h = f + g
    assert h.conductor == 12
    assert h.terms[(1,)] == zeta(12, 4)


# --- arithmetic -----------------------------------------------------------------

def test_ring_axioms_on_random_polys():
    rng = random.Random(424242)
    for _ in range(30):
        f, g, h = (_random_poly(rng) for _ in range(3))
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f - f == MultiPoly.zero(2)


def test_powers_match_repeated_products():
    f = X + 2 * Y
    assert f**3 == f * f * f
    assert f**0 == MultiPoly.constant(2, 1)
    with pytest.raises(StructuralError):
        f**-1


def test_scalar_operations():
    f = 3 * X
    assert f.terms[(1, 0)] == 3
    assert (f + 1) - 1 == f
    assert f * Fraction(1, 3) == X
    assert zeta(4) * X * (zeta(4) * X) == -1 * X * X


def test_binomial_square():
    assert (X + Y) ** 2 == X**2 + 2 * X * Y + Y**2


# --- structure -------------------------------------------------------------------

def test_degree_and_homogeneity():
    assert MultiPoly.zero(2).degree() == -1
    assert (X**2 * Y).degree() == 3


def test_leading_term_is_grlex_largest():
    exp, coeff = (X**3 + Y**3).leading()
    assert exp == (3, 0) and coeff == 1
    # higher total degree wins regardless of the first variable
    exp, _ = (Y**3 + X**2).leading()
    assert exp == (0, 3)
    assert MultiPoly.zero(2).leading() is None


def test_restrict_to_support():
    f = X**3 + Y**3 + X * Y + 5
    assert f.restrict_to_support([0]) == X**3 + 5
    assert f.restrict_to_support([1]) == Y**3 + 5
    assert f.restrict_to_support([0, 1]) == f
    assert f.restrict_to_support([]) == MultiPoly.constant(2, 5)


def test_support_variables():
    assert (X * Y + X).support_variables() == {0, 1}
    assert MultiPoly.constant(2, 7).support_variables() == set()


# --- rendering --------------------------------------------------------------------

def test_str_default_names():
    assert str(X**3 + Y**3) == "x1^3 + x2^3"
    assert str(2 * X * Y) == "2*x1*x2"
    assert str(X - Y) == "x1 - x2"
    assert str(MultiPoly.zero(2)) == "0"
    assert str(MultiPoly(1, {(1,): zeta(3)})) == "(z3)*x1"


def test_equal_polynomials_hash_alike_across_conductors():
    p = MultiPoly(1, {(1,): zeta(4)})
    q = MultiPoly(1, {(1,): zeta(4).lift(8)})
    assert q.conductor == 8
    assert p == q
    assert hash(p) == hash(q)
    assert len({p, q}) == 1


def test_format_custom_names():
    f = X**2 + 3 * Y
    assert f.format(["a", "b"]) == "a^2 + 3*b"


# --- graded spans -----------------------------------------------------------------

def test_span_insert_and_dim():
    span = GradedSpan(2)
    assert span.insert(X + Y)
    assert span.insert(Y)
    assert not span.insert(X)  # already in the span
    assert span.dim == 2


def test_span_contains_and_reduce():
    span = GradedSpan(2)
    span.extend([X**2 + Y**2, X * Y])
    assert span.contains(2 * X**2 + 2 * Y**2 + X * Y)
    assert not span.contains(X**2)
    nf = span.reduce(X**2)
    assert nf == X**2 - (X**2 + Y**2)  # = -y^2, pivot eliminated


def test_span_rejects_zero_and_arity_mismatch():
    span = GradedSpan(2)
    assert not span.insert(MultiPoly.zero(2))
    with pytest.raises(StructuralError):
        span.reduce(MultiPoly.variable(0, 3))


def test_span_reduced_basis_is_order_independent():
    f1, f2, f3 = X**2, X**2 + X * Y, Y**2 + X**2
    a = GradedSpan(2)
    a.extend([f1, f2, f3])
    b = GradedSpan(2)
    b.extend([f3, f1 + f2, f2, f1])
    assert a.dim == b.dim == 3
    assert a.rows == b.rows
    assert a.pivots() == b.pivots()


def test_span_pivots_sorted_descending():
    span = GradedSpan(2)
    span.extend([Y, X**2, X * Y])
    keys = [(sum(p), p) for p in span.pivots()]
    assert keys == sorted(keys, reverse=True)


def _random_homogeneous(rng: random.Random, m: int, nvars: int = 3) -> MultiPoly:
    degree = rng.randint(2, 4)
    monomials = [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) == degree]
    terms = {
        exp: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * zeta(m, rng.randrange(m))
        + rng.randint(-1, 1)
        for exp in rng.sample(monomials, rng.randint(1, min(4, len(monomials))))
    }
    return MultiPoly(nvars, terms, m)


@pytest.mark.parametrize("m", [1, 4, 3], ids=["Q", "Q(zeta_4)", "Q(zeta_3)"])
def test_span_stores_the_pivots_of_a_reduced_basis(m):
    rng = random.Random(5150 + m)
    span = GradedSpan(3)
    inserted = []
    for _ in range(16):
        if inserted and rng.random() < 0.25:  # a combination already in the span
            assert not span.insert(inserted[-1] * 2 - inserted[0])
        else:
            f = _random_homogeneous(rng, m)
            span.insert(f)
            inserted.append(f)
        pivots = span.pivots()
        assert pivots == [row.leading()[0] for row in span.rows]
        keys = [grlex_key(p) for p in pivots]
        assert all(a > b for a, b in zip(keys, keys[1:]))
        for pivot, row in zip(pivots, span.rows):
            assert row.terms[pivot] == 1
            assert not set(row.terms) & (set(pivots) - {pivot})
        shuffled = GradedSpan(3)
        shuffled.extend(rng.sample(inserted, len(inserted)))
        assert shuffled.rows == span.rows
        probe = _random_homogeneous(rng, m) + inserted[-1]
        assert span.reduce(probe) == shuffled.reduce(probe)
        for probe in (probe, sum((f * rng.randint(-2, 2) for f in inserted), probe)):
            assert shuffled.reduce(probe) == _eliminate_pivot_by_pivot(span, probe)


def _eliminate_pivot_by_pivot(span, f):
    """Normal form by cancelling f's grlex-largest term at a pivot until none is left."""
    rows = dict(zip(span.pivots(), span.rows))
    while True:
        hits = [exp for exp in f.terms if exp in rows]
        if not hits:
            return f
        pivot = max(hits, key=grlex_key)
        f = f - rows[pivot] * f.terms[pivot]


def test_reduce_against_rows_of_another_conductor():
    rng = random.Random(3412)
    span = GradedSpan(3)
    while span.dim < 6:
        span.insert(_random_homogeneous(rng, 3))
    assert {row.conductor for row in span.rows} == {3}
    for _ in range(20):
        f = _random_homogeneous(rng, 4) + rng.choice(span.rows) * zeta(4)
        nf = span.reduce(f)
        assert nf.conductor == 12
        assert nf == _eliminate_pivot_by_pivot(span, f)
        assert not set(nf.terms) & set(span.pivots())


def _snapshot(polys):
    return [(p, p.conductor, dict(p.terms)) for p in polys]


def _unchanged(snapshot):
    return all(p.conductor == m and p.terms == terms for p, m, terms in snapshot)


@pytest.mark.parametrize("m", [1, 3], ids=["Q", "Q(zeta_3)"])
def test_reduce_and_insert_leave_their_inputs_alone(m):
    rng = random.Random(2718 + m)
    span = GradedSpan(3)
    inserted = []
    for _ in range(12):
        f = _random_homogeneous(rng, m)
        if inserted:  # shares terms with the rows, so that pivots are hit
            f = f + inserted[-1] * rng.randint(1, 2)
        before = _snapshot([f] + span.rows)
        span.reduce(f)
        span.insert(f)
        inserted.append(f)
        assert _unchanged(before)
        assert all(span.contains(g) for g in inserted)


def _no_zero_coefficient(*polys):
    return all(not c.is_zero() for p in polys for c in p.terms.values())


def test_no_result_holds_a_zero_coefficient():
    rng = random.Random(1618)
    for m in (1, 4):
        span = GradedSpan(3)
        fs = [_random_homogeneous(rng, m) for _ in range(8)]
        span.extend(fs)
        for f, g in zip(fs, fs[1:]):
            results = [f + g, f - g, f - f, -f, f * g, f * 0, 0 * f, f * zeta(4) * 0,
                       f + (-f), g - (g - f)]
            combo = f * 2 - g * Fraction(1, 3)
            results += [span.reduce(combo), span.reduce(f)]
            assert _no_zero_coefficient(f, g, combo, *results, *span.rows)
            assert (f - f).terms == (f * 0).terms == span.reduce(combo).terms == {}


def test_span_copy_grows_independently():
    span = GradedSpan(2)
    span.extend([X**2 + Y**2, X * Y])
    rows, pivots = span.rows, span.pivots()
    twin = span.copy()
    assert twin.insert(Y**2)  # clears y^2 from the copy's row x^2 + y^2
    assert twin.rows == [X**2, X * Y, Y**2]
    assert span.rows == rows == [X**2 + Y**2, X * Y]
    assert span.pivots() == pivots
    assert not span.contains(Y**2)


def _dense_rref(polys):
    """The reduced echelon rows of polys by Gauss–Jordan elimination on dense vectors.

    Columns are the monomials met, in descending grlex order, so each
    row's pivot is its leading monomial; rows come out as exponent →
    coefficient dicts in descending pivot order.  No span code is used.
    """
    columns = sorted({exp for f in polys for exp in f.terms}, key=grlex_key, reverse=True)
    m = math.lcm(1, *(f.conductor for f in polys))
    zero = CyclotomicNumber.zero(m)
    matrix = [[f.terms[exp].lift(m) if exp in f.terms else zero for exp in columns]
              for f in polys]
    rank = 0
    for col in range(len(columns)):
        hit = next((i for i in range(rank, len(matrix)) if not matrix[i][col].is_zero()), None)
        if hit is None:
            continue
        matrix[rank], matrix[hit] = matrix[hit], matrix[rank]
        scale = matrix[rank][col].inverse()
        matrix[rank] = [x * scale for x in matrix[rank]]
        for i, row in enumerate(matrix):
            c = row[col]
            if i != rank and not c.is_zero():
                matrix[i] = [x - c * y for x, y in zip(row, matrix[rank])]
        rank += 1
    return [{exp: x for exp, x in zip(columns, row) if not x.is_zero()}
            for row in matrix[:rank]]


def _random_mixed(rng: random.Random, m: int) -> MultiPoly:
    """A cubic in four variables: one term half the time, two to five otherwise."""
    monomials = [e for e in itertools.product(range(4), repeat=4) if sum(e) == 3]
    size = 1 if rng.random() < 0.5 else rng.randint(2, 5)
    return MultiPoly(4, {
        exp: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) * zeta(m, rng.randrange(m))
        for exp in rng.sample(monomials, size)
    }, m)


def _hit_a_multi_term_row(span, rng):
    """A monomial at a non-pivot term of some row of span, if a row has one."""
    pivots = set(span.pivots())
    targets = sorted({exp for row in span.rows for exp in row.terms} - pivots)
    return MultiPoly.monomial(span.nvars, rng.choice(targets), 1) if targets else None


def _grow_and_check(span, inserted, fs):
    for f in fs:
        if f is None:
            continue
        span.insert(f)
        inserted.append(f)
        assert [row.terms for row in span.rows] == _dense_rref(inserted)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 4], ids=["Q", "Q(zeta_4)"])
def test_span_rows_match_dense_elimination(m, seed):
    rng = random.Random(7000 + 10 * m + seed)
    span, inserted = GradedSpan(4), []
    _grow_and_check(span, inserted, [_random_mixed(rng, m) for _ in range(8)])
    assert any(len(row.terms) > 1 for row in span.rows)
    _grow_and_check(span, inserted, [_hit_a_multi_term_row(span, rng)])
    # the copy must clear new pivots from the rows it was handed, too
    twin, twin_inserted = span.copy(), list(inserted)
    _grow_and_check(twin, twin_inserted, [_hit_a_multi_term_row(twin, rng)])
    _grow_and_check(twin, twin_inserted, [_random_mixed(rng, m) for _ in range(6)])
    _grow_and_check(span, inserted, [_random_mixed(rng, m) for _ in range(6)])
    _grow_and_check(span, inserted, [_hit_a_multi_term_row(span, rng)])


# x^2; x·y + a·y^2 + b·z^2; x·z + y·z, which loses y·z to the last row
# and keeps one term, though ``_multi`` still lists it; y·z
_ONE_TERM_BASE = [
    {(2, 0, 0, 0): 1},
    {(1, 1, 0, 0): 1, (0, 2, 0, 0): "a", (0, 0, 2, 0): "b"},
    {(1, 0, 1, 0): 1, (0, 1, 1, 0): 1},
    {(0, 1, 1, 0): 1},
]


@pytest.mark.parametrize("m", [1, 4], ids=["Q", "Q(zeta_4)"])
@pytest.mark.parametrize("scaled", [False, True], ids=["monic", "scaled"])
@pytest.mark.parametrize("exp, grows, reduces", [
    ((2, 0, 0, 0), False, False),
    ((1, 0, 1, 0), False, False),
    ((1, 1, 0, 0), True, True),
    ((0, 2, 0, 0), True, False),
    ((0, 0, 0, 2), True, False),
], ids=["one-term-pivot", "once-multi-term-pivot", "multi-term-pivot",
        "multi-term-non-pivot", "absent"])
def test_a_one_term_insert_reduces_only_at_a_multi_term_pivot(m, scaled, exp, grows, reduces,
                                                              monkeypatch):
    coeffs = {1: 1, "a": Fraction(-2, 3) * zeta(m, 1 % m), "b": 3 * zeta(m, m - 1)}
    base = [MultiPoly(4, {e: coeffs[c] for e, c in row.items()}, m) for row in _ONE_TERM_BASE]
    span = GradedSpan(4)
    span.extend(base)
    assert [row.terms for row in span.rows] == _dense_rref(base)
    assert len(span._by_pivot[(1, 0, 1, 0)].terms) == 1 and (1, 0, 1, 0) in span._multi
    calls = []
    reduce = GradedSpan.reduce
    monkeypatch.setattr(GradedSpan, "reduce", lambda self, f: calls.append(f) or reduce(self, f))
    f = MultiPoly(4, {exp: Fraction(5, 2) * zeta(m, m - 1) if scaled else 1}, m)
    dim = span.dim
    assert span.insert(f) is (span.dim > dim) is grows
    assert [row.terms for row in span.rows] == _dense_rref(base + [f])
    assert len(calls) == reduces


def test_a_span_built_from_orbit_rows_clears_new_pivots():
    # Z4 permuting four variables: degree-2 rows such as x1^2 + x2^2 + x3^2 + x4^2
    rep = MonomialRep(4, 1, [((1, 2, 3, 0), (0, 0, 0, 0))], expected_order=4)
    span = invariant_basis(rep, 2)
    inserted = list(span.rows)
    rng = random.Random(11)
    _grow_and_check(span, inserted, [MultiPoly.monomial(4, (0, 2, 0, 0), 1)])
    for _ in range(3):
        _grow_and_check(span, inserted, [_hit_a_multi_term_row(span, rng)])


# --- ideal powers shared by invariant rings and presented algebras ----------------

_EXAMPLE_RING = ([("a", 1), ("b", 3)], ["b^3-a^9", "a*b^2-a^7"])
_WEIGHTED_RING = ([("a", 1), ("b", 2), ("c", 3)], ["a*c-b^2"])
# Q[a,b]/(b-a^3) is Q[a]: b = a^3 is a redundant generator
_REDUNDANT_RING = ([("a", 1), ("b", 3)], ["b-a^3"])


def _brute_power_span(algebra, j, d):
    """Span of the normal forms of all products of j rows of positive degrees summing to d."""
    span = GradedSpan(algebra.nvars)
    for cut in itertools.combinations(range(1, d), j - 1):
        degrees = [b - a for a, b in zip((0,) + cut, cut + (d,))]
        if min(degrees) < 1:
            continue
        for rows in itertools.product(*(algebra.degree_span(e).rows for e in degrees)):
            product = rows[0]
            for row in rows[1:]:
                product = product * row
            span.insert(algebra.normal_form(product))
    return span


@pytest.mark.parametrize(
    "make, max_degree",
    [
        (lambda: regular_representation(AbelianGroup((3,))), 6),
        (lambda: induced_module(SemidirectGroup(3, 2, 2)), 6),
        (lambda: PresentedGradedAlgebra(*_EXAMPLE_RING), 9),
        (lambda: PresentedGradedAlgebra(*_WEIGHTED_RING), 9),
        (lambda: PresentedGradedAlgebra(*_REDUNDANT_RING), 9),
    ],
    ids=["reg(Z3)", "ind(SD(3,2,2))", "example-ring", "weighted-ring", "redundant-ring"],
)
def test_power_span_matches_all_products(make, max_degree):
    algebra = make()
    for j in (1, 2, 3):
        for d in range(max_degree + 1):
            assert algebra.power_span(j, d).rows == _brute_power_span(algebra, j, d).rows, (j, d)


def test_power_span_builds_one_product_per_distinct_one_term_exponent(monkeypatch):
    rep = regular_representation(AbelianGroup((6,)))
    products = 0
    normal_form = MonomialRep.normal_form

    def counted(self, f):
        # power_span takes the normal form of each product it builds, once
        nonlocal products
        products += 1
        return normal_form(self, f)

    monkeypatch.setattr(MonomialRep, "normal_form", counted)
    assert beta_k(rep, 2)["beta"] == 12
    built = products
    # every invariant of reg(Z6) is a monomial, so every row has one term
    distinct = 0
    for j, d in rep._power_cache:
        exps = set()
        for e in range(1, d - j + 2) if j > 1 else ():
            for a in _complement(rep, 2, e):
                for b in rep.power_span(j - 1, d - e).rows:
                    (p,), (q,) = a.terms, b.terms
                    exps.add(tuple(map(add, p, q)))
        distinct += len(exps)
    assert built == distinct == 5038  # 23,868 when every pair was multiplied


def _span_of(nvars, polys):
    span = GradedSpan(nvars)
    span.extend(polys)
    return span


@pytest.mark.parametrize(
    "make",
    [
        lambda: regular_representation(AbelianGroup((3,))),
        lambda: regular_representation(AbelianGroup((2, 2))),
        lambda: induced_module(SemidirectGroup(3, 2, 2)),
        lambda: PresentedGradedAlgebra(*_EXAMPLE_RING),
        lambda: PresentedGradedAlgebra(*_WEIGHTED_RING),
        lambda: PresentedGradedAlgebra(*_REDUNDANT_RING),
    ],
    ids=["reg(Z3)", "reg(Z2xZ2)", "ind(SD(3,2,2))", "example-ring", "weighted-ring",
         "redundant-ring"],
)
def test_generators_are_a_minimal_complement_of_the_square(make):
    algebra = make()
    nvars = algebra.nvars
    for e in range(1, 9):
        whole = algebra.degree_span(e)
        # (A_+^2)_e by brute force, so a wrong power_span cannot hide here
        square = _brute_power_span(algebra, 2, e)
        gens = _complement(algebra, 2, e)
        assert len(gens) == whole.dim - square.dim, e
        assert _span_of(nvars, square.rows + gens).rows == whole.rows, e
        for i, g in enumerate(gens):
            others = _span_of(nvars, square.rows + gens[:i] + gens[i + 1:])
            assert not others.contains(g), (e, i)


def test_a_redundant_generator_is_not_a_minimal_generator():
    algebra = PresentedGradedAlgebra(*_REDUNDANT_RING)
    assert [len(_complement(algebra, 2, e)) for e in range(1, 9)] == [1, 0, 0, 0, 0, 0, 0, 0]


# Reports of the parent implementation (two β scans per algebra kind), written out.
# A presented ring's scan stops at scan_limit = k·w_max, where β_k ≤ k·w_max
# makes the value exact.
@pytest.mark.parametrize(
    "compute, expected",
    [
        (lambda: beta_k(regular_representation(AbelianGroup((3,))), 2),
         {"rep": "reg(Z3)", "k": 2, "beta_1": 3, "group_order": 3, "beta": 6,
          "scan_limit": 6, "failing_degrees": [1, 2, 3, 4, 5, 6], "witness": "x2^6"}),
        (lambda: beta_k(regular_representation(AbelianGroup((2, 2))), 2),
         {"rep": "reg(Z2xZ2)", "k": 2, "beta_1": 3, "group_order": 4, "beta": 5,
          "scan_limit": 6, "failing_degrees": [1, 2, 3, 4, 5], "witness": "x2^3*x3*x4"}),
        (lambda: beta_k(induced_module(SemidirectGroup(3, 2, 2)), 1),
         {"rep": "ind(SD(3,2,2))", "k": 1, "beta_1": 3, "group_order": 6, "beta": 3,
          "scan_limit": 6, "failing_degrees": [2, 3], "witness": "x1^3 + x2^3"}),
        (lambda: beta_k(induced_module(SemidirectGroup(3, 2, 2)), 2),
         {"rep": "ind(SD(3,2,2))", "k": 2, "beta_1": 3, "group_order": 6, "beta": 6,
          "scan_limit": 6, "failing_degrees": [2, 3, 4, 5, 6], "witness": "x1^6 + x2^6"}),
        (lambda: PresentedGradedAlgebra(*_EXAMPLE_RING).beta_k(2, cutoff=30),
         {"generators": [["a", 1], ["b", 3]], "relations": ["-a^9 + b^3", "-a^7 + a*b^2"],
          "k": 2, "cutoff": 30, "scan_limit": 6, "beta": 6, "failing_degrees": [1, 2, 3, 4, 6],
          "witness": "b^2", "status": "exact"}),
        # as for Q[a]: β_k = k, and a^3 has the standard monomial b
        (lambda: PresentedGradedAlgebra(*_REDUNDANT_RING).beta_k(1, cutoff=12),
         {"generators": [["a", 1], ["b", 3]], "relations": ["-a^3 + b"], "k": 1,
          "cutoff": 12, "scan_limit": 3, "beta": 1, "failing_degrees": [1], "witness": "a",
          "status": "exact"}),
        (lambda: PresentedGradedAlgebra(*_REDUNDANT_RING).beta_k(2, cutoff=12),
         {"generators": [["a", 1], ["b", 3]], "relations": ["-a^3 + b"], "k": 2,
          "cutoff": 12, "scan_limit": 6, "beta": 2, "failing_degrees": [1, 2], "witness": "a^2",
          "status": "exact"}),
        (lambda: PresentedGradedAlgebra(*_REDUNDANT_RING).beta_k(3, cutoff=12),
         {"generators": [["a", 1], ["b", 3]], "relations": ["-a^3 + b"], "k": 3,
          "cutoff": 12, "scan_limit": 9, "beta": 3, "failing_degrees": [1, 2, 3], "witness": "b",
          "status": "exact"}),
        # multi-term rows in every complement of (A_+^3)_d
        (lambda: beta_k(induced_module(SemidirectGroup(5, 4, 2)), 2),
         {"rep": "ind(SD(5,4,2))", "k": 2, "beta_1": 7, "group_order": 20, "beta": 11,
          "scan_limit": 14, "failing_degrees": [2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
          "witness": "x1^9*x2*x3 + x1*x2*x4^9 + x1*x3^9*x4 + x2^9*x3*x4"}),
        (lambda: beta_k(az2_module(12, 4), 2),
         {"rep": "az2(12,4)", "k": 2, "beta_1": 4, "group_order": 8, "beta": 8,
          "scan_limit": 8, "failing_degrees": [2, 4, 6, 8], "witness": "x1^8 + x2^8"}),
        # the standard monomials of each slice, counted
        (lambda: [PresentedGradedAlgebra(*_EXAMPLE_RING).dimension(d) for d in range(13)],
         [1, 1, 1, 2, 2, 2, 3, 2, 2, 2, 1, 1, 1]),
    ],
    ids=["reg(Z3)-k2", "reg(Z2xZ2)-k2", "ind(SD(3,2,2))-k1", "ind(SD(3,2,2))-k2",
         "example-ring-k2", "redundant-ring-k1", "redundant-ring-k2", "redundant-ring-k3",
         "ind(SD(5,4,2))-k2", "az2(12,4)-k2", "example-ring-dimensions"],
)
def test_beta_and_tail_reports_are_pinned(compute, expected):
    assert compute() == expected
