"""Exact arithmetic in the cyclotomic fields Q(ζ_m).

A value is a rational coefficient vector representing a residue modulo
the m-th cyclotomic polynomial Φ_m, which is computed by the defining
iterated division of x^m − 1 by the Φ_d for proper divisors d | m.  No
floating point anywhere: coefficients are ints, or Fractions once a
division needs them, and the conductor m is an int ≥ 1.  Reduction mod
Φ_m folds each power x^j onto the integer residue of x^(j mod m), valid
because Φ_m divides x^m − 1; the inverse is the product of the other
conjugates over the norm.  The m roots ζ_m^p are built once per conductor
and shared (numbers are immutable), and a product with a factor equal to
1 returns the other factor without multiplying.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import DomainError, StructuralError, VerificationError

_EXACT = frozenset((int, Fraction))  # float is inexact; bool is no coefficient


def _poly_divmod(num, den):
    """Polynomial division over Q; coefficient lists, ascending powers."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    rem = num[:]
    lead = den[-1]
    for shift in range(len(num) - len(den), -1, -1):
        c = rem[shift + len(den) - 1] / lead
        if c:
            quot[shift] = c
            for i, d in enumerate(den):
                rem[shift + i] -= c * d
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Φ_m, ascending.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if m < 1:
        raise DomainError(f"conductor must be >= 1, got {m}")
    num = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            quot, rem = _poly_divmod(num, cyclotomic_polynomial(d))
            if rem:
                raise VerificationError(
                    f"Phi_{d} does not divide the quotient of x^{m} - 1", evidence=rem
                )
            num = quot
    return tuple(int(c) for c in num)


def euler_phi(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


class CyclotomicNumber:
    """Element of Q(ζ_m): int/Fraction vector of length φ(m), powers ascending.

    Equality is value equality: two numbers at different conductors are
    compared at their lcm conductor, and rational values (only the
    constant coefficient non-zero) also compare equal to plain
    ints/Fractions.  Cross-conductor arithmetic requires an explicit
    lift to a common conductor.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs):
        if type(m) is not int or m < 1:
            raise _conductor_error(m)
        if not _EXACT.issuperset(map(type, coeffs)):
            raise StructuralError(f"coefficients must be ints or Fractions, got {coeffs!r}")
        self.m = m
        self.coeffs = tuple(_reduce_mod(coeffs, m))

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rational(cls, q, m: int = 1) -> "CyclotomicNumber":
        return cls(m, [q if type(q) is int else Fraction(q)])

    @classmethod
    def zeta(cls, m: int, power: int = 1) -> "CyclotomicNumber":
        """ζ_m^power.

        >>> CyclotomicNumber.zeta(4) * CyclotomicNumber.zeta(4) == -1
        True
        """
        if type(m) is not int or m < 1:
            raise _conductor_error(m)
        return _roots(m)[power % m]

    @classmethod
    def zero(cls, m: int = 1) -> "CyclotomicNumber":
        return cls(m, [])

    @classmethod
    def one(cls, m: int = 1) -> "CyclotomicNumber":
        return cls(m, [1])

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise StructuralError(f"{self} is not rational")
        return Fraction(self.coeffs[0])

    def lift(self, M: int) -> "CyclotomicNumber":
        """Image under ζ_m = ζ_M^(M/m); M must be a multiple of m."""
        if M % self.m != 0:
            raise StructuralError(f"cannot lift conductor {self.m} into {M}")
        if M == self.m:
            return self
        step = M // self.m
        out = [0] * ((len(self.coeffs) - 1) * step + 1)
        out[::step] = self.coeffs
        return CyclotomicNumber(M, out)

    def _same(self, other):
        if type(other) is not CyclotomicNumber:  # the common case skips the ABC check
            if isinstance(other, (int, Fraction)):
                other = CyclotomicNumber.from_rational(other, self.m)
            elif not isinstance(other, CyclotomicNumber):
                return None
        if other.m != self.m:
            raise StructuralError(
                f"conductor mismatch: {self.m} vs {other.m}; lift explicitly"
            )
        return other

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = self._same(other)
        if other is None:
            return NotImplemented
        return CyclotomicNumber(self.m, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.m, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._same(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._same(other)
        if other is None:
            return NotImplemented
        one = _residue_table(self.m)[0]  # the coefficients of ζ_m^0
        if other.coeffs == one:
            return self
        if self.coeffs == one:
            return other
        return CyclotomicNumber(self.m, _poly_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse through the norm N(a) of Q(ζ_m) over Q.

        c = ∏ σ_k(a) over 1 < k < m with gcd(k, m) = 1, where σ_k sends
        ζ_m to ζ_m^k.  With σ_1 = id, a·c = N(a) is the product of all
        conjugates, a non-zero rational for a ≠ 0 (Φ_m is irreducible),
        so a⁻¹ = c / N(a).  Over Q (m ≤ 2) c = 1 and this is one division.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        m = self.m
        c = CyclotomicNumber.one(m)
        for k in range(2, m):
            if gcd(k, m) == 1:
                conj = [0] * m
                for j, a in enumerate(self.coeffs):
                    conj[j * k % m] = a
                c = c * CyclotomicNumber(m, conj)
        norm = self * c
        if not norm.is_rational():
            raise VerificationError(f"norm of {self} is not rational", evidence=norm)
        inv = [Fraction(x, norm.coeffs[0]) for x in c.coeffs]  # the only division
        return CyclotomicNumber(m, [q.numerator if q.denominator == 1 else q for q in inv])

    def __truediv__(self, other):
        other = self._same(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = CyclotomicNumber.one(self.m)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- identity ----------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        if self.m == other.m:
            return self.coeffs == other.coeffs
        m = lcm(self.m, other.m)
        return self.lift(m).coeffs == other.lift(m).coeffs

    def __hash__(self):
        # Tr(a)/φ(m) does not depend on the conductor a is written at, and
        # is a itself for a rational a, so it hashes like the int/Fraction
        return hash(sum(w * a for w, a in zip(_trace_weights(self.m), self.coeffs)))

    def __str__(self):
        if self.is_rational():
            return str(self.to_fraction())
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}z{self.m}" + (f"^{i}" if i > 1 else "")
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"

    def __repr__(self):
        return f"CyclotomicNumber({self.m}, {[str(c) for c in self.coeffs]})"


def _conductor_error(m):
    """The error for a conductor that is not an int ≥ 1, raised before any table is keyed by it."""
    if type(m) is not int:  # bool excluded: True would share the tables of 1
        return StructuralError(f"conductor must be an int, got {m!r}")
    return DomainError(f"conductor must be >= 1, got {m}")


@lru_cache(maxsize=None)
def _roots(m: int) -> tuple[CyclotomicNumber, ...]:
    """ζ_m^p for p = 0..m−1; row p of the residue table is its coefficient vector."""
    return tuple(CyclotomicNumber(m, row) for row in _residue_table(m))


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1 or 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return out


@lru_cache(maxsize=None)
def _trace_weights(m: int) -> tuple[Fraction, ...]:
    """Tr(ζ_m^j)/φ(m) for j < φ(m); the trace Σ ζ_m^(jk) over k prime to m is rational."""
    table = _residue_table(m)
    units = [k for k in range(1, m + 1) if gcd(k, m) == 1]
    return tuple(
        Fraction(sum(table[j * k % m][0] for k in units), len(units)) for j in range(len(table[0]))
    )


@lru_cache(maxsize=None)
def _residue_table(m: int) -> tuple[tuple[int, ...], ...]:
    """Row j holds the integer coefficients of x^j mod Φ_m, j = 0..m−1.

    Each row is x times the previous one, with x^φ(m) replaced by
    x^φ(m) − Φ_m (Φ_m is monic with integer coefficients).
    """
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    row = [1] + [0] * (deg - 1)
    rows = []
    for _ in range(m):
        rows.append(tuple(row))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            for i in range(deg):
                row[i] -= top * phi[i]
    return tuple(rows)


def _reduce_mod(coeffs, m: int) -> list:
    """Residue of Σ c_j·x^j modulo Φ_m, as a list of length φ(m).

    x^m ≡ 1 mod Φ_m, so a term of degree j ≥ φ(m) folds onto row
    j mod m of the residue table.  Integer inputs stay integers.
    """
    table = _residue_table(m)
    deg = len(table[0])
    out = list(coeffs[:deg])
    out += [0] * (deg - len(out))
    for j in range(deg, len(coeffs)):
        c = coeffs[j]
        if c:
            for i, r in enumerate(table[j % m]):
                if r:
                    out[i] += c * r
    return out

