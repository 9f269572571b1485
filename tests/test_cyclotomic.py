from __future__ import annotations

import random
from fractions import Fraction

import pytest

from zerosumlab import (
    CyclotomicNumber,
    DomainError,
    StructuralError,
    cyclotomic_polynomial,
    euler_phi,
)
from zerosumlab.cyclotomic import _poly_divmod, _reduce_mod, _residue_table, _roots

zeta = CyclotomicNumber.zeta


# --- the polynomials themselves ----------------------------------------------

def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_degree_is_totient():
    # phi(m) via the polynomial degree
    assert [euler_phi(m) for m in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_first_coefficient_outside_unit_range():
    # 105 = 3*5*7 is the least m where a coefficient leaves {-1, 0, 1}
    assert min(cyclotomic_polynomial(105)) == -2
    for m in range(1, 105):
        assert set(cyclotomic_polynomial(m)) <= {-1, 0, 1}


def test_product_over_divisors_recovers_x_to_m_minus_one():
    # prod_{d | m} Phi_d = x^m - 1, checked by direct multiplication
    for m in (6, 10, 12):
        acc = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(acc) + len(phi) - 1)
                for i, a in enumerate(acc):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                acc = out
        assert acc == [-1] + [0] * (m - 1) + [1]


def test_residue_table_reduction_matches_long_division():
    rng = random.Random(40)
    for m in range(1, 41):
        phi = cyclotomic_polynomial(m)
        deg = euler_phi(m)
        lengths = {0, 1, deg, deg + 1, m, m + 1, 2 * m + 1, 3 * m}
        lengths.update(rng.randint(0, 3 * m) for _ in range(3))
        for length in sorted(lengths):
            ints = [rng.randint(-5, 5) for _ in range(length)]
            fracs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(length)]
            for coeffs in (ints, fracs):
                _, rem = _poly_divmod(coeffs, phi)
                got = _reduce_mod(coeffs, m)
                assert len(got) == deg
                assert got == rem + [0] * (deg - len(rem)), (m, coeffs)


def test_subtraction_from_a_scalar():
    x = zeta(5, 2) + Fraction(1, 3)
    assert 1 - x == -(x - 1)
    assert Fraction(1, 2) - x == -(x - Fraction(1, 2))


def test_zeta_powers_multiply_to_one():
    for m in range(1, 41):
        for j in range(m + 1):
            assert zeta(m, j) * zeta(m, m - j) == 1, (m, j)


def test_rejects_bad_conductor():
    with pytest.raises(DomainError):
        cyclotomic_polynomial(0)
    with pytest.raises(DomainError):
        CyclotomicNumber(-3, [1])


def _table_sizes():
    return _roots.cache_info().currsize, _residue_table.cache_info().currsize


@pytest.mark.parametrize("bad", [2.0, "3", True, Fraction(2), None],
                         ids=["float", "str", "bool", "fraction", "none"])
def test_conductor_must_be_an_exact_int(bad):
    sizes = _table_sizes()
    with pytest.raises(StructuralError):
        CyclotomicNumber(bad, [1, 2])
    with pytest.raises(StructuralError):
        zeta(bad)
    with pytest.raises(StructuralError):
        zeta(bad, 0)
    assert _table_sizes() == sizes  # refused before any table is keyed by it


@pytest.mark.parametrize("bad", [0, -3])
def test_conductor_below_one_is_refused_before_any_table(bad):
    sizes = _table_sizes()
    with pytest.raises(DomainError):
        CyclotomicNumber(bad, [1])
    with pytest.raises(DomainError):
        zeta(bad)
    assert _table_sizes() == sizes


def test_zeta_reads_the_root_table():
    for m in range(1, 17):
        for p in range(-m, 2 * m + 1):
            root = zeta(m, p)
            assert root == CyclotomicNumber(m, [0] * (p % m) + [1]), (m, p)
            assert root.m == m and root is _roots(m)[p % m], (m, p)


def test_a_product_with_one_is_the_other_factor():
    rng = random.Random(0x0AE)
    for m in (1, 2, 3, 4, 6, 12):
        ones = [CyclotomicNumber.one(m), zeta(m, 0), CyclotomicNumber(m, [Fraction(1)]), 1,
                Fraction(1)]
        for exact_type in (int, Fraction):
            a = _random_number(rng, m, exact_type)
            for one in ones:
                assert a * one == a and one * a == a, (m, a, one)
                assert a * one is a and one * a is a, (m, a, one)  # no multiplication
        foreign = CyclotomicNumber.one(2 * m + 1)
        with pytest.raises(StructuralError):
            zeta(m) * foreign
        with pytest.raises(StructuralError):
            foreign * zeta(m)


# --- field arithmetic ---------------------------------------------------------

def test_i_squared_is_minus_one():
    assert zeta(4) * zeta(4) == -1


def test_power_sum_vanishes_at_primes():
    for p in (3, 5, 7):
        total = CyclotomicNumber.zero(p)
        for j in range(p):
            total = total + zeta(p, j)
        assert total.is_zero()


def test_zeta_power_wraps_modulo_conductor():
    assert zeta(4, 5) == zeta(4)
    assert zeta(6, 3) == -1
    assert zeta(5, 0) == 1


def test_ring_axioms_on_random_triples():
    rng = random.Random(20260817)

    def rand(m):
        return CyclotomicNumber(
            m, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(euler_phi(m))]
        )

    for m in (3, 4, 12):
        for _ in range(25):
            a, b, c = rand(m), rand(m), rand(m)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a - a == 0


def _random_number(rng, m, exact_type):
    if exact_type is int:
        coeffs = [rng.randint(-3, 3) for _ in range(euler_phi(m))]
    else:
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(euler_phi(m))]
    return CyclotomicNumber(m, coeffs)


def test_inverse_round_trip():
    rng = random.Random(0xC1C)
    for m in range(1, 41):
        rationals = [
            CyclotomicNumber.from_rational(Fraction(n, rng.randint(1, 6)), m)
            for n in rng.sample([-7, -2, 1, 3, 5], 3)
        ]
        samples = [zeta(m, j) for j in range(m)] + rationals
        samples += [_random_number(rng, m, t) for t in (int, Fraction)]
        for x in samples:
            if not x.is_zero():
                assert x * x.inverse() == 1, (m, x)
        for j in range(m):
            assert zeta(m, j).inverse() == zeta(m, m - j), (m, j)
        assert all(q / q == 1 for q in rationals), m


def test_coefficients_are_only_ever_int_or_fraction():
    rng = random.Random(0xE7AC7)

    def exact(x, types=(int, Fraction)):
        return all(type(c) in types for c in x.coeffs)

    for m in (1, 2, 3, 4, 5, 6, 8, 9, 12, 15):
        for _ in range(6):
            a = _random_number(rng, m, rng.choice([int, Fraction]))
            b = _random_number(rng, m, rng.choice([int, Fraction]))
            results = [a + b, a - b, a * b, -a, a ** 3, a.lift(2 * m), 3 * a, a + Fraction(1, 2)]
            if not a.is_zero():
                results += [a.inverse(), a ** -2, b / a]
            assert all(exact(r) for r in results), (m, a, b)
            i, j = _random_number(rng, m, int), _random_number(rng, m, int)
            # no division, so no Fraction
            for r in (i + j, i - j, i * j, i ** 3, i.lift(3 * m)):
                assert exact(r, (int,)), (m, i, j)
        # a unit of Z[ζ_m] has norm ±1, so its inverse needs no Fraction either
        for k in range(m):
            assert exact(zeta(m, k).inverse(), (int,)), (m, k)


@pytest.mark.parametrize("bad", [0.5, "1/2", True], ids=["float", "str", "bool"])
def test_constructor_rejects_inexact_coefficients(bad):
    with pytest.raises(StructuralError):
        CyclotomicNumber(4, [1, bad])
    # past φ(m) as well, where the residue table would fold it in
    with pytest.raises(StructuralError):
        CyclotomicNumber(4, [1, 0, 0, bad])


def test_from_rational_is_exact():
    half = CyclotomicNumber.from_rational(0.5)
    assert half == Fraction(1, 2)
    assert half.coeffs == (Fraction(1, 2),)
    assert CyclotomicNumber.from_rational("1/3", 4).to_fraction() == Fraction(1, 3)


def test_inverse_of_zero_fails():
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.zero(4).inverse()
    with pytest.raises(ZeroDivisionError):
        zeta(3) / CyclotomicNumber.zero(3)


def test_negative_powers():
    assert zeta(5) ** -1 == zeta(5, 4)
    assert (zeta(8) ** -3) * (zeta(8) ** 3) == 1


# --- conductor discipline -----------------------------------------------------

def test_mixed_conductor_arithmetic_is_rejected():
    with pytest.raises(StructuralError):
        zeta(4) + zeta(3)
    with pytest.raises(StructuralError):
        zeta(4) * zeta(6)
    with pytest.raises(StructuralError):
        # even when the value happens to be rational, conductors must match
        zeta(2) + zeta(3)


def test_lift_preserves_value():
    # zeta_3 = zeta_12^4
    assert zeta(3).lift(12) == zeta(12, 4)
    a, b = zeta(3), zeta(3, 2)
    prod_low = (a * b).lift(12)
    prod_high = a.lift(12) * b.lift(12)
    assert prod_low == prod_high


def test_lift_rejects_non_multiple():
    with pytest.raises(StructuralError):
        zeta(4).lift(6)


def test_rationals_compare_across_conductors():
    half = Fraction(1, 2)
    assert CyclotomicNumber.from_rational(half, 4) == CyclotomicNumber.from_rational(half, 6)
    assert CyclotomicNumber.from_rational(3, 5) == 3
    assert hash(CyclotomicNumber.from_rational(half, 4)) == hash(
        CyclotomicNumber.from_rational(half, 6)
    )


def test_values_compare_and_hash_alike_across_conductors():
    assert zeta(4) == zeta(4).lift(8)
    assert hash(zeta(4)) == hash(zeta(4).lift(8))
    assert zeta(4) != zeta(8)
    assert zeta(3) != zeta(4)
    rng = random.Random(0xC0D)
    for m in (1, 2, 3, 4, 5, 6, 8, 9, 12):
        for _ in range(6):
            a = _random_number(rng, m, rng.choice([int, Fraction]))
            for big in (2 * m, 3 * m, 4 * m):
                assert a == a.lift(big) and a.lift(big) == a, (m, big, a)
                assert hash(a) == hash(a.lift(big)), (m, big, a)
            assert a + zeta(m) != a.lift(2 * m)


def test_to_fraction():
    assert CyclotomicNumber.from_rational(Fraction(2, 3)).to_fraction() == Fraction(2, 3)
    assert (zeta(6) - zeta(6)).to_fraction() == 0
    with pytest.raises(StructuralError):
        zeta(3).to_fraction()


def test_rational_conductor_one_arithmetic():
    two_thirds = CyclotomicNumber.from_rational(Fraction(2, 3))
    third = CyclotomicNumber.from_rational(Fraction(1, 3))
    assert two_thirds + third == 1


# --- rendering -------------------------------------------------------------------

def test_str_forms():
    assert str(zeta(4)) == "z4"
    assert str(-zeta(4)) == "-z4"
    assert str(zeta(3) + 1) == "z3 + 1"
    assert str(CyclotomicNumber(8, [0, -1, 0, 3])) == "3*z8^3 - z8"
    assert str(CyclotomicNumber.from_rational(Fraction(1, 2))) == "1/2"
    assert str(CyclotomicNumber.zero()) == "0"
