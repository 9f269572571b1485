"""Graded commutative algebras given by generators and relations.

The algebra is Q[g_1, …, g_n]/(relations) with a positive weight per
generator; every relation must be homogeneous for that weighting, so the
quotient is graded.  A degree slice is handled as the normal-form image
of the polynomial slice modulo the matching slice of the relation ideal,
which makes quotient linear algebra exact row reduction: a slice is spanned
by its standard monomials, those that are no pivot of the ideal slice.  Ideal
powers and the β scan are those of ``polynomials``, shared with invariant rings.

Every presentation has a degree bound: with w_max the largest generator
weight, a monomial of degree d > k·w_max has at least k+1 factors, so
A_d ⊆ A_+^{k+1} and β_k ≤ k·w_max.  The β scan stops there and reports
status ``exact``; a cutoff below the bound caps the scan, and the report
then says ``verified-up-to-cutoff``.
"""

from __future__ import annotations

import re

from .errors import (
    DEFAULT_RING_CUTOFF,
    CapacityError,
    DomainError,
    ParseError,
    ValidationError,
)
from .groups import _parse_int
from .polynomials import GradedSpan, MultiPoly, escaping_degrees, power_span

DEGREE_CAP = 48

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_INT_RE = re.compile(r"[0-9]+")


class _Parser:
    """Recursive descent over +, -, *, ^, parentheses, integers, names."""

    def __init__(self, text, var_index, nvars):
        self.text = text
        self.pos = 0
        self.var_index = var_index
        self.nvars = nvars

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> MultiPoly:
        out = self._expr()
        if self._peek():
            raise ParseError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return out

    def _expr(self):
        total = self._term()
        while True:
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                total = total + self._term()
            elif ch == "-":
                self.pos += 1
                total = total - self._term()
            else:
                return total

    def _term(self):
        total = self._factor()
        while self._peek() == "*":
            self.pos += 1
            total = total * self._factor()
        return total

    def _factor(self):
        base = self._atom()
        if self._peek() == "^":
            self.pos += 1
            self._skip_ws()
            m = _INT_RE.match(self.text, self.pos)
            if not m:
                raise ParseError("exponent must be a non-negative integer", self.pos)
            self.pos = m.end()
            return base ** int(m.group())
        return base

    def _atom(self):
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            inner = self._expr()
            if self._peek() != ")":
                raise ParseError("missing closing parenthesis", self.pos)
            self.pos += 1
            return inner
        if ch == "-":
            self.pos += 1
            return -self._factor()
        m = _INT_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return MultiPoly.constant(self.nvars, int(m.group()))
        m = _NAME_RE.match(self.text, self.pos)
        if m:
            name = m.group()
            if name not in self.var_index:
                raise ParseError(f"unknown generator {name!r}", self.pos)
            self.pos = m.end()
            return MultiPoly.variable(self.var_index[name], self.nvars)
        raise ParseError("expected a generator, integer, or parenthesis", self.pos)


def parse_generator_spec(text: str):
    """``"a:1,b:3"`` → [("a", 1), ("b", 3)].

    >>> parse_generator_spec("a:1, b:3")
    [('a', 1), ('b', 3)]
    """
    out = []
    offset = 0
    for chunk in text.split(","):
        piece = chunk.strip()
        if ":" not in piece:
            raise ParseError(f"generator {piece!r} is not name:degree", offset)
        name, _, deg = piece.partition(":")
        name = name.strip()
        if not _NAME_RE.fullmatch(name):
            raise ParseError(f"bad generator name {name!r}", offset)
        try:
            degree = _parse_int(deg.strip())
        except ParseError:
            raise ParseError(f"bad degree {deg.strip()!r} for {name}", offset) from None
        out.append((name, degree))
        offset += len(chunk) + 1
    return out


class PresentedGradedAlgebra:
    """Q[generators]/(relations), graded by positive generator weights.

    >>> R = PresentedGradedAlgebra([("a", 1), ("b", 3)], ["b^3-a^9", "a*b^2-a^7"])
    >>> [R.dimension(d) for d in (0, 3, 9)]
    [1, 2, 2]
    """

    def __init__(self, generators, relations):
        gens = list(generators)
        if not gens:
            raise ValidationError("at least one generator is required")
        names = [name for name, _ in gens]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate generator names in {names}")
        for name, degree in gens:
            if type(degree) is not int or degree < 1:
                raise ValidationError(f"generator {name} needs a positive degree, got {degree}")
        self.generators = tuple(gens)
        self.nvars = len(gens)
        self.names = tuple(name for name, _ in gens)
        self.weights = tuple(degree for _, degree in gens)
        self._var_index = {name: i for i, (name, _) in enumerate(gens)}
        self.relations = tuple(self._check_relation(r) for r in relations)
        self._mono_cache = {}
        self._ideal_cache = {}
        self._span_cache = {}
        self._power_cache = {}
        self._complement_cache = {}

    def element(self, text: str) -> MultiPoly:
        """Parse an expression in the generators."""
        return _Parser(text, self._var_index, self.nvars).parse()

    def render(self, f: MultiPoly) -> str:
        """Text form of f using the generator names.

        >>> R = PresentedGradedAlgebra([("a", 1), ("b", 3)], ["b^3-a^9"])
        >>> R.render(R.element("b^2*a + 2"))
        'a*b^2 + 2'
        """
        return f.format(list(self.names))

    def weighted_degree(self, exp) -> int:
        return sum(e * w for e, w in zip(exp, self.weights))

    def _check_relation(self, text):
        f = self.element(text)
        if f.is_zero():
            raise ValidationError(f"relation {text!r} is identically zero")
        degrees = {self.weighted_degree(exp) for exp in f.terms}
        if len(degrees) != 1:
            raise ValidationError(
                f"relation {text!r} mixes degrees {sorted(degrees)}; "
                "the quotient would not be graded"
            )
        if degrees == {0}:
            raise ValidationError(f"relation {text!r} is a non-zero constant")
        return f

    def _require_degree(self, d):
        if d > DEGREE_CAP:
            raise CapacityError(
                f"degree {d} is over the materialization cap {DEGREE_CAP}",
                limit=DEGREE_CAP,
            )

    def monomials(self, d: int):
        """Exponent tuples of weighted degree exactly d."""
        if d < 0:
            return []
        self._require_degree(d)
        cached = self._mono_cache.get(d)
        if cached is not None:
            return cached
        out = []

        def fill(i, remaining, prefix):
            if i == self.nvars:
                if remaining == 0:
                    out.append(tuple(prefix))
                return
            w = self.weights[i]
            for e in range(remaining // w + 1):
                fill(i + 1, remaining - e * w, prefix + [e])

        fill(0, d, [])
        out.sort()
        self._mono_cache[d] = out
        return out

    def ideal_slice(self, d: int) -> GradedSpan:
        """Degree-d slice of the relation ideal, row reduced."""
        cached = self._ideal_cache.get(d)
        if cached is not None:
            return cached
        span = GradedSpan(self.nvars)
        for rel in self.relations:
            rel_degree = self.weighted_degree(next(iter(rel.terms)))
            for exp in self.monomials(d - rel_degree):
                span.insert(rel * MultiPoly.monomial(self.nvars, exp, 1))
        self._ideal_cache[d] = span
        return span

    def normal_form(self, f: MultiPoly) -> MultiPoly:
        """Canonical representative of f's coset (f must be homogeneous)."""
        if f.is_zero():
            return f
        degrees = {self.weighted_degree(exp) for exp in f.terms}
        if len(degrees) != 1:
            raise DomainError("normal forms are defined per homogeneous degree")
        return self.ideal_slice(degrees.pop()).reduce(f)

    def dimension(self, d: int) -> int:
        return self.degree_span(d).dim

    def degree_span(self, d: int) -> GradedSpan:
        """The degree-d slice, spanned by its standard monomials.

        A monomial that is no pivot of the ideal slice is its own normal form,
        and monic one-term rows with distinct pivots are a reduced basis as they stand.
        """
        cached = self._span_cache.get(d)
        if cached is not None:
            return cached
        self._require_degree(d)
        pivots = set(self.ideal_slice(d).pivots())
        span = GradedSpan(self.nvars, [
            (exp, MultiPoly.monomial(self.nvars, exp, 1))
            for exp in self.monomials(d)
            if exp not in pivots
        ])
        self._span_cache[d] = span
        return span

    def power_span(self, j: int, d: int) -> GradedSpan:
        """Degree-d slice of the j-th power of the positive-degree ideal."""
        if j < 1:
            raise DomainError(f"power must be >= 1, got {j}")
        return power_span(self, j, d)

    def in_power(self, text: str, j: int) -> bool:
        """Whether the (homogeneous) expression lies in the j-th ideal power."""
        f = self.normal_form(self.element(text))
        if f.is_zero():
            return True
        d = self.weighted_degree(next(iter(f.terms)))
        return self.power_span(j, d).contains(f)

    def beta_k(self, k: int, cutoff: int = DEFAULT_RING_CUTOFF) -> dict:
        """β_k: the largest degree d with A_d ⊄ (A_+^{k+1})_d.

        Degrees are scanned up to ``scan_limit`` = min(cutoff, k·w_max).
        No degree above k·w_max can escape, so the value is ``exact`` when
        the cutoff reaches that bound, and ``verified-up-to-cutoff`` when
        the cutoff stops the scan short of it.  Only the scanned degrees are
        held to ``DEGREE_CAP``.
        """
        if k < 1:
            raise DomainError(f"k must be >= 1, got {k}")
        if cutoff < 1:
            raise DomainError(f"cutoff must be >= 1, got {cutoff}")
        bound = k * max(self.weights)
        limit = min(cutoff, bound)
        if limit > DEGREE_CAP:
            raise CapacityError(
                f"beta_{k} scan needs degrees up to {limit}, over the materialization "
                f"cap {DEGREE_CAP}",
                limit=DEGREE_CAP,
            )
        failing, witness = escaping_degrees(self, k + 1, range(1, limit + 1))
        return {
            "generators": [list(g) for g in self.generators],
            "relations": [self.render(r) for r in self.relations],
            "k": k,
            "cutoff": cutoff,
            "scan_limit": limit,
            "beta": max(failing) if failing else 0,
            "failing_degrees": failing,
            "witness": self.render(witness) if witness is not None else None,
            "status": "exact" if limit == bound else "verified-up-to-cutoff",
        }
