"""Multivariate polynomials over Q(ζ_m) and row-reduced graded spans.

Terms live in a dict from exponent vector to non-zero coefficient; the
global term order is graded lexicographic (total degree first, then the
exponent tuple), fixed once so that all linear algebra pivots are
deterministic.  A GradedSpan keeps a fully reduced echelon basis — the
unique reduced form of the span — as one map from each row's pivot to
that row, so reported bases do not depend on insertion order.
Membership is a reduction to zero, and a reduction looks up only the
terms of the polynomial being reduced.  Reduction and insertion share
one elimination kernel (``_eliminate``): it lifts f's terms once into a
single coefficient dict, cancels each pivot there in place, and builds
one polynomial at the end.  A one-term insert skips that kernel unless
its monomial is the pivot of a multi-term row: at a one-term row's pivot
it is in the span, at no pivot it is already reduced.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add

from .errors import StructuralError
from .cyclotomic import CyclotomicNumber


def _as_coeff(value, m: int = 1) -> CyclotomicNumber:
    if isinstance(value, CyclotomicNumber):
        return value
    return CyclotomicNumber.from_rational(value, m)


def grlex_key(exponents: tuple[int, ...]):
    return (sum(exponents), exponents)


class MultiPoly:
    """Polynomial in nvars variables with cyclotomic coefficients.

    All coefficients are stored at one common conductor; mixed-conductor
    inputs are lifted on construction.
    """

    __slots__ = ("nvars", "conductor", "terms")

    def __init__(self, nvars: int, terms=(), conductor: int = 1):
        self.nvars = nvars
        items = list(terms.items() if isinstance(terms, dict) else terms)
        m = conductor
        coeffs = []
        for exp, c in items:
            c = _as_coeff(c)
            m = math.lcm(m, c.m)
            coeffs.append((tuple(exp), c))
        self.conductor = m
        acc: dict[tuple[int, ...], CyclotomicNumber] = {}
        for exp, c in coeffs:
            if len(exp) != nvars:
                raise StructuralError(
                    f"exponent vector {exp} has arity {len(exp)}, expected {nvars}"
                )
            if any(e < 0 for e in exp):
                raise StructuralError(f"negative exponent in {exp}")
            c = c.lift(m)
            if exp in acc:
                c = acc[exp] + c
            acc[exp] = c
        self.terms = {exp: c for exp, c in acc.items() if not c.is_zero()}

    # -- constructors ----------------------------------------------------------

    @classmethod
    def _of(cls, nvars: int, terms: dict, m: int) -> "MultiPoly":
        """Internal: terms already checked and all at conductor m; drops zeros only."""
        out = object.__new__(cls)
        out.nvars = nvars
        out.conductor = m
        out.terms = {exp: c for exp, c in terms.items() if not c.is_zero()}
        return out

    @classmethod
    def zero(cls, nvars: int, conductor: int = 1) -> "MultiPoly":
        return cls(nvars, (), conductor)

    @classmethod
    def constant(cls, nvars: int, value, conductor: int = 1) -> "MultiPoly":
        return cls(nvars, [((0,) * nvars, _as_coeff(value, conductor))], conductor)

    @classmethod
    def monomial(cls, nvars: int, exponents, coeff=1, conductor: int = 1) -> "MultiPoly":
        return cls(nvars, [(tuple(exponents), _as_coeff(coeff, conductor))], conductor)

    @classmethod
    def variable(cls, i: int, nvars: int, conductor: int = 1) -> "MultiPoly":
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls.monomial(nvars, exp, 1, conductor)

    # -- structure ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def leading(self):
        """(exponent, coefficient) of the grlex-largest term."""
        if not self.terms:
            return None
        exp = max(self.terms, key=grlex_key)
        return exp, self.terms[exp]

    def _check_arity(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise StructuralError(
                f"arity mismatch: {self.nvars} vs {other.nvars} variables"
            )

    # -- arithmetic -----------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            other = MultiPoly.constant(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_arity(other)
        m = math.lcm(self.conductor, other.conductor)
        out = {exp: c.lift(m) for exp, c in self.terms.items()}
        for exp, c in other.terms.items():
            c = c.lift(m)
            out[exp] = out[exp] + c if exp in out else c
        return MultiPoly._of(self.nvars, out, m)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of(self.nvars, {e: -c for e, c in self.terms.items()}, self.conductor)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, CyclotomicNumber, MultiPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            c = _as_coeff(other)
            m = math.lcm(self.conductor, c.m)
            c = c.lift(m)
            return MultiPoly._of(
                self.nvars, {e: co.lift(m) * c for e, co in self.terms.items()}, m
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_arity(other)
        m = math.lcm(self.conductor, other.conductor)
        out: dict[tuple[int, ...], CyclotomicNumber] = {}
        for e1, c1 in self.terms.items():
            c1 = c1.lift(m)
            for e2, c2 in other.terms.items():
                exp = tuple(map(add, e1, e2))
                c = c1 * c2.lift(m)
                out[exp] = out[exp] + c if exp in out else c
        return MultiPoly._of(self.nvars, out, m)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise StructuralError("negative polynomial power")
        out = MultiPoly.constant(self.nvars, 1, self.conductor)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- the operations the invariant arguments need -----------------------------

    def restrict_to_support(self, support) -> "MultiPoly":
        """Set every variable outside ``support`` (0-based indices) to zero.

        >>> f = MultiPoly(2, {(3, 0): 1, (0, 3): 1})
        >>> str(f.restrict_to_support([0]))
        'x1^3'
        """
        keep = set(support)
        out = {
            exp: c
            for exp, c in self.terms.items()
            if all(e == 0 or i in keep for i, e in enumerate(exp))
        }
        return MultiPoly(self.nvars, out, self.conductor)

    def support_variables(self) -> set[int]:
        used = set()
        for exp in self.terms:
            used.update(i for i, e in enumerate(exp) if e)
        return used

    # -- identity ---------------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            other = MultiPoly.constant(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        # no map holds a zero; coefficients compare by value across conductors
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        # the support: equal polynomials share it at any conductor, while
        # their coefficients' representations differ after a lift
        return hash((self.nvars, frozenset(self.terms)))

    def sort_terms(self):
        return sorted(self.terms.items(), key=lambda ec: grlex_key(ec[0]), reverse=True)

    def format(self, names=None):
        """Stable text form, grlex-descending terms: ``x1^3 + 2*x2``.

        ``names`` overrides the default x1, x2, … variable names.
        """
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i + 1}" for i in range(self.nvars)]
        parts = []
        for exp, coeff in self.sort_terms():
            pieces = [
                names[i] + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp)
                if e
            ]
            mono = "*".join(pieces)
            if coeff.is_rational():
                q = coeff.to_fraction()
                sign = "-" if q < 0 else "+"
                mag = abs(q)
                if not mono:
                    body = str(mag)
                elif mag == 1:
                    body = mono
                else:
                    body = f"{mag}*{mono}"
            else:
                sign = "+"
                body = f"({coeff})" + (f"*{mono}" if mono else "")
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self})"


def _eliminate(f: MultiPoly, rows) -> MultiPoly:
    """f − Σ c·row over the (pivot, row) pairs, c being f's coefficient at pivot.

    Each row is monic at its pivot, each pivot is a term of f and no row
    has a term at another listed pivot, so every c is read off f.  f's
    terms are lifted once into one dict; each pivot is popped there and
    c·(the row's other terms) subtracted in place.
    """
    if not rows:
        return f
    m = f.conductor
    for _, row in rows:
        m = math.lcm(m, row.conductor)
    out = {exp: c.lift(m) for exp, c in f.terms.items()}
    for pivot, row in rows:
        neg = -out.pop(pivot)
        for exp, r in row.terms.items():
            if exp != pivot:
                d = neg * r.lift(m)
                old = out.get(exp)
                out[exp] = d if old is None else old + d
    return MultiPoly._of(f.nvars, out, m)


class GradedSpan:
    """Fully reduced echelon basis of a span, held as one map pivot → row.

    Rows are monic on their grlex-leading monomial (the pivot), and no row
    has a term at another row's pivot: the unique reduced basis of the
    span.  ``rows`` and ``pivots()`` read the map in descending grlex
    order of the pivots.  ``_multi`` indexes the rows of more than one
    term by their pivots (a superset: a row that lost terms may stay in
    it); only those rows can hold another row's pivot.  ``rows`` given to
    the constructor are (pivot, row) pairs already in that reduced form.
    """

    __slots__ = ("nvars", "_by_pivot", "_multi")

    def __init__(self, nvars: int, rows=()):
        self.nvars = nvars
        self._by_pivot: dict[tuple[int, ...], MultiPoly] = dict(rows)
        self._multi = {pivot for pivot, row in self._by_pivot.items() if len(row.terms) > 1}

    @property
    def dim(self) -> int:
        return len(self._by_pivot)

    def pivots(self):
        return sorted(self._by_pivot, key=grlex_key, reverse=True)

    @property
    def rows(self) -> list[MultiPoly]:
        by_pivot = self._by_pivot
        return [by_pivot[pivot] for pivot in self.pivots()]

    def reduce(self, f: MultiPoly) -> MultiPoly:
        """Normal form of f against the basis (every pivot eliminated).

        Only f's own terms are looked up, and every row whose pivot is one
        of them is subtracted in one ``_eliminate`` pass: subtracting a row
        changes f only at that row's pivot and at monomials that are no
        pivot, so each other pivot keeps the coefficient it had in f.
        """
        if f.nvars != self.nvars:
            raise StructuralError("arity mismatch in span reduction")
        by_pivot = self._by_pivot
        return _eliminate(f, [(exp, by_pivot[exp]) for exp in f.terms if exp in by_pivot])

    def contains(self, f: MultiPoly) -> bool:
        return self.reduce(f).is_zero()

    def insert(self, f: MultiPoly) -> bool:
        """Add f to the span; True iff the dimension grew.

        A one-term f = c·x^e takes one pivot lookup: in the span if e is
        a one-term row's pivot, already reduced if e is no pivot; only a
        multi-term row at e sends it through ``reduce``.  The new pivot is
        cleared from the multi-term rows alone: a one-term row holds only
        its own pivot, and f, reduced, has no term there.
        """
        one = len(f.terms) == 1 and f.nvars == self.nvars
        row = self._by_pivot.get(next(iter(f.terms))) if one else None
        if row is not None and len(row.terms) == 1:
            return False
        if row is not None or not one:
            f = self.reduce(f)
            if f.is_zero():
                return False
        pivot, lead = f.leading()
        if lead != 1:
            f = f * lead.inverse()
        # f is reduced, so clearing its pivot from a row leaves that row
        # reduced and its pivot as it was.
        by_pivot = self._by_pivot
        for row_pivot in self._multi:
            row = by_pivot[row_pivot]
            if pivot in row.terms:
                by_pivot[row_pivot] = _eliminate(row, [(pivot, f)])
        by_pivot[pivot] = f
        if len(f.terms) > 1:
            self._multi.add(pivot)
        return True

    def copy(self) -> "GradedSpan":
        """A span with the same rows that ``insert`` can grow independently."""
        return GradedSpan(self.nvars, self._by_pivot)

    def extend(self, polys) -> int:
        added = 0
        for f in polys:
            if self.insert(f):
                added += 1
        return added

    def __repr__(self):
        return f"GradedSpan(dim={self.dim}, pivots={self.pivots()})"


def _complement(algebra, j: int, d: int) -> list[MultiPoly]:
    """A basis of a complement of (A_+^j)_d in A_d, cached per (j, d).

    The rows of ``degree_span(d)`` that grow a copy of ``power_span(j, d)``
    when inserted in order.  For j = 2 they are G_d, the degree-d minimal
    generators; (A_+^2)_d needs G_e for e < d only, so the recursion closes.
    """
    key = (j, d)
    cached = algebra._complement_cache.get(key)
    if cached is not None:
        return cached
    span = algebra.power_span(j, d).copy()
    rows = [row for row in algebra.degree_span(d).rows if span.insert(row)]
    algebra._complement_cache[key] = rows
    return rows


def _one_term(f: MultiPoly):
    """The (exponent, coefficient) of f's one term, or None if f has several."""
    if len(f.terms) == 1:
        (term,) = f.terms.items()
        return term
    return None


def power_span(algebra, j: int, d: int) -> GradedSpan:
    """(A_+^j)_d via P_{1,d} = A_d and P_{j+1,d} = Σ_e G_e · P_{j,d−e}.

    G_e are the degree-e minimal generators (``_complement``, j = 2).  Any
    homogeneous generators g_i of A generate A_+ as an ideal, so
    A_+^{j+1} = A_+ · A_+^j = Σ_i g_i·A·A_+^j = Σ_i g_i·A_+^j; by graded
    Nakayama the rows of the G_e generate A (Derksen–Kemper,
    *Computational Invariant Theory*), so multiplying by them alone spans
    the same slice as multiplying by all of A_e.  Degrees are positive, so
    only e ≤ d − j + 1 contribute.  The product of two one-term rows
    c·x^p and c'·x^q is built once per exponent p + q: a later pair with
    the same exponent gives a scalar multiple of a product already
    inserted, and ``normal_form`` is linear, so it cannot grow the span.
    That product is the one term c·c'·x^(p+q), with no ``MultiPoly``
    multiplication; other pairs are multiplied.  ``algebra`` is an
    invariant ring or a presented quotient: it provides ``nvars``,
    ``degree_span(d)``, ``power_span(j, d)``, ``normal_form(f)`` and the
    dicts ``_power_cache`` and ``_complement_cache``.
    """
    key = (j, d)
    cached = algebra._power_cache.get(key)
    if cached is not None:
        return cached
    if j == 1:
        span = algebra.degree_span(d) if d >= 1 else GradedSpan(algebra.nvars)
    else:
        span = GradedSpan(algebra.nvars)
        built = set()  # the exponents of the one-term products built so far
        for e in range(1, d - j + 2):
            left = _complement(algebra, 2, e)
            if not left:
                continue
            right = algebra.power_span(j - 1, d - e).rows
            right_terms = [_one_term(b) for b in right]
            for a in left:
                s = _one_term(a)
                for b, t in zip(right, right_terms):
                    if s is None or t is None:
                        product = a * b
                    else:
                        exp = tuple(map(add, s[0], t[0]))
                        if exp in built:
                            continue
                        built.add(exp)
                        m = math.lcm(a.conductor, b.conductor)
                        product = MultiPoly._of(a.nvars, {exp: s[1].lift(m) * t[1].lift(m)}, m)
                    span.insert(algebra.normal_form(product))
    algebra._power_cache[key] = span
    return span


def escaping_degrees(algebra, j: int, degrees):
    """The d in ``degrees`` with A_d ⊄ (A_+^j)_d, i.e. a non-empty ``_complement``,
    and the first row of that complement at the last such d."""
    failing = []
    witness = None
    for d in degrees:
        rows = _complement(algebra, j, d)
        if rows:
            failing.append(d)
            witness = rows[0]
    return failing, witness
