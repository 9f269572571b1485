"""Finite abelian groups in invariant-factor form, plus the semidirect
family Z_p ⋊ Z_d needed by the sigma verifications.

An abelian group is presented by its invariant factors n_1 | n_2 | … | n_r;
elements are plain integer tuples with coordinate i reduced mod n_i.  The
trivial group is the empty factor list and its only element is the empty
tuple.  All values are immutable; every operation is a pure function.

The combinatorial engines work on element *indices* instead: the position
of an element in ``elements()``, i.e. its coordinates read in mixed radix
with the first coordinate most significant.  Zero is index 0 and index
order is tuple order.  ``index``/``element`` convert, ``add_index`` adds,
and ``sums()`` memoises additions row by row as they are first asked for,
so its size follows the sums a caller touches, never |A|².
This module also owns the automorphisms on indices: ``Automorphism``
builds its permutation ``perm`` once, and ``automorphism_group`` lists
Aut(A) on indices; the scans and canonical forms only read ``perm``.
``automorphism_count`` gives |Aut(A)| in closed form, with nothing listed.
"""

from __future__ import annotations

import bisect
import itertools
import math

from .errors import (
    CapacityError,
    DomainError,
    ParseError,
    StructuralError,
    ValidationError,
    VerificationError,
)

AUTOMORPHISM_ENUMERATION_LIMIT = 64  # largest |A| whose automorphisms are listed
# most index entries the listed permutations may hold, |Aut(A)|·|A|: every
# group of order <= 32 but Z2^5 fits (Z2^3×Z4 needs 688,128)
AUTOMORPHISM_INDEX_ENTRIES = 1 << 20


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs, ascending.

    >>> factorize(12)
    [(2, 2), (3, 1)]
    >>> factorize(1)
    []
    """
    if n < 1:
        raise DomainError(f"cannot factorize {n}")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == [(n, 1)]


def smallest_prime_divisor(n: int) -> int:
    """Least prime q dividing n.

    >>> smallest_prime_divisor(35)
    5
    >>> smallest_prime_divisor(7)
    7
    """
    if n < 2:
        raise DomainError(f"smallest_prime_divisor needs n >= 2, got {n}")
    return factorize(n)[0][0]


def multiplicative_order(a: int, p: int) -> int:
    a %= p
    if math.gcd(a, p) != 1:
        raise DomainError(f"{a} is not a unit mod {p}")
    k, x = 1, a
    while x != 1:
        x = x * a % p
        k += 1
    return k


def _prime_power_slots(factors):
    """The invariant factors of ⊕ Z_n over the orders n in ``factors``, and
    where each order's prime powers go.

    Each order splits into prime powers.  For each prime the powers are
    sorted descending, equal ones kept in input order (the sort is
    stable), and the t-th of them multiplies into invariant factor
    rank − 1 − t, so the largest joins the last factor.  ``slots[i]``
    lists the (position, prime power) pairs of the i-th order.
    """
    by_prime: dict[int, list[tuple[int, int]]] = {}
    slots: list[list[tuple[int, int]]] = []
    for idx, n in enumerate(factors):
        if n < 1:
            raise DomainError(f"cyclic order must be >= 1, got {n}")
        for p, e in factorize(n):
            by_prime.setdefault(p, []).append((p**e, idx))
        slots.append([])
    rank = max((len(v) for v in by_prime.values()), default=0)
    out = [1] * rank
    for powers in by_prime.values():
        powers.sort(key=lambda qi: qi[0], reverse=True)
        for t, (q, idx) in enumerate(powers):
            j = rank - 1 - t
            out[j] *= q
            slots[idx].append((j, q))
    return tuple(out), slots


def invariant_factors(factors) -> tuple[int, ...]:
    """Normalize an arbitrary list of cyclic orders to invariant factors,
    slotting their prime powers as ``_prime_power_slots`` does.

    >>> invariant_factors([2, 6, 4])
    (2, 2, 12)
    >>> invariant_factors([2, 3])
    (6,)
    >>> invariant_factors([1, 1])
    ()
    """
    return _prime_power_slots(factors)[0]


class AbelianGroup:
    """A finite abelian group Z_{n_1} ⊕ … ⊕ Z_{n_r} with n_i | n_{i+1}."""

    __slots__ = ("factors", "order", "exponent", "rank", "_elements", "_sums")

    def __init__(self, factors):
        factors = tuple(factors)
        for n in factors:
            if type(n) is not int:
                raise ValidationError(f"invariant factors must be ints, got {n!r}")
            if n < 2:
                raise ValidationError(
                    f"invariant factors must be >= 2, got {n}; "
                    "use AbelianGroup.from_factors to normalize"
                )
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValidationError(
                    f"invariant factor chain violated: {a} does not divide {b}"
                )
        self.factors = factors
        self.order = math.prod(factors)
        self.exponent = factors[-1] if factors else 1
        self.rank = len(factors)
        self._elements = None
        self._sums = None

    @classmethod
    def from_factors(cls, factors) -> "AbelianGroup":
        """Build from arbitrary cyclic orders, normalizing to invariant factors."""
        return cls(invariant_factors(factors))

    # -- element plumbing -------------------------------------------------

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def check(self, x) -> tuple[int, ...]:
        if not isinstance(x, tuple):
            raise StructuralError(f"group element must be a tuple, got {x!r}")
        if len(x) != self.rank:
            raise StructuralError(
                f"rank mismatch: element {x!r} has length {len(x)}, group rank is {self.rank}"
            )
        for c, n in zip(x, self.factors):
            if not isinstance(c, int) or not 0 <= c < n:
                raise DomainError(f"coordinate {c!r} out of range [0, {n}) in {x!r}")
        return x

    def add(self, x, y) -> tuple[int, ...]:
        if len(x) != self.rank or len(y) != self.rank:
            raise StructuralError(f"rank mismatch adding {x!r} and {y!r}")
        return tuple((a + b) % n for a, b, n in zip(x, y, self.factors))

    def neg(self, x) -> tuple[int, ...]:
        return tuple((-a) % n for a, n in zip(x, self.factors))

    def scale(self, c: int, x) -> tuple[int, ...]:
        return tuple((c * a) % n for a, n in zip(x, self.factors))

    def element_order(self, x) -> int:
        """Least k >= 1 with k·x = 0; divides the exponent.

        >>> AbelianGroup((6,)).element_order((2,))
        3
        >>> AbelianGroup((2, 4)).element_order((1, 2))
        2
        """
        self.check(x)
        return math.lcm(1, *(n // math.gcd(n, c) for c, n in zip(x, self.factors)))

    def elements(self) -> list[tuple[int, ...]]:
        if self._elements is None:
            self._elements = [
                tuple(v) for v in itertools.product(*(range(n) for n in self.factors))
            ]
        return self._elements

    # -- element indices ---------------------------------------------------

    def index(self, x) -> int:
        """Position of ``x`` in ``elements()``.

        >>> AbelianGroup((2, 4)).index((1, 2))
        6
        """
        i = 0
        for c, n in zip(x, self.factors):
            i = i * n + c
        return i

    def coords_index(self, coords) -> int | None:
        """``index`` of a list of ``rank`` exact ints in range, else None.

        >>> AbelianGroup((2, 4)).coords_index([1, 2]), AbelianGroup((2, 4)).coords_index([1, True])
        (6, None)
        """
        if not (isinstance(coords, list) and len(coords) == self.rank):
            return None
        i = 0
        for c, n in zip(coords, self.factors):
            if type(c) is not int or not 0 <= c < n:
                return None
            i = i * n + c
        return i

    def element(self, i: int) -> tuple[int, ...]:
        """The element at position ``i`` of ``elements()``; inverse of ``index``.

        >>> AbelianGroup((2, 4)).element(6)
        (1, 2)
        """
        out = [0] * self.rank
        for j in range(self.rank - 1, -1, -1):
            i, out[j] = divmod(i, self.factors[j])
        return tuple(out)

    def add_index(self, s: int, t: int) -> int:
        """Index of element(s) + element(t), digit by digit."""
        out, weight = 0, 1
        for n in reversed(self.factors):
            s, a = divmod(s, n)
            t, b = divmod(t, n)
            out += (a + b) % n * weight
            weight *= n
        return out

    def sums(self) -> "_SumTable":
        """Addition on indices: ``sums()[x][t]`` is the index of x + t.

        Rows and their entries are computed on first lookup and kept, so
        the table grows with the sums actually asked for, never with |A|².
        """
        if self._sums is None:
            self._sums = _SumTable(self)
        return self._sums

    # -- identity ----------------------------------------------------------

    def spec(self) -> str:
        if not self.factors:
            return "Z1"
        return "x".join(f"Z{n}" for n in self.factors)

    def __repr__(self):
        return f"AbelianGroup({self.factors})"

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and self.factors == other.factors

    def __hash__(self):
        return hash(("AbelianGroup", self.factors))


class _SumRow(dict):
    """t ↦ t + x on element indices, filled on first lookup."""

    __slots__ = ("group", "x")

    def __init__(self, group: AbelianGroup, x: int):
        super().__init__()
        self.group = group
        self.x = x

    def __missing__(self, t):
        s = self[t] = self.group.add_index(t, self.x)
        return s


class _SumTable(dict):
    """x ↦ its ``_SumRow``, created on first lookup."""

    __slots__ = ("group",)

    def __init__(self, group: AbelianGroup):
        super().__init__()
        self.group = group

    def __missing__(self, x):
        row = self[x] = _SumRow(self.group, x)
        return row


class Automorphism:
    """Automorphism of an abelian group, stored as generator images and as
    the permutation of element indices they induce.

    ``images[i]`` is the image of the i-th canonical generator; viewed as
    a matrix, column i holds images[i].  ``perm[t]`` is the index of the
    image of the element with index t; only ``_fill``, which both
    constructors call, builds it.
    """

    __slots__ = ("group", "images", "perm")

    def __init__(self, group: AbelianGroup, images):
        images = tuple(group.check(g) for g in images)
        if len(images) != group.rank:
            raise ValidationError(
                f"{group.spec()} has {group.rank} generators, got {len(images)} images"
            )
        self._fill(group, images, [group.index(img) for img in images])

    @classmethod
    def _from_indices(cls, group: AbelianGroup, indices) -> "Automorphism":
        """The automorphism whose generator images have the element indices
        ``indices``, one in range for each generator; they are not checked
        through ``group.check``, only as images (order and bijection)."""
        aut = cls.__new__(cls)
        aut._fill(group, tuple(map(group.elements().__getitem__, indices)), indices)
        return aut

    def _fill(self, group, images, indices):
        self.group = group
        self.images = images
        # image of x = image of x − e_j + images[j], j the last non-zero
        # coordinate of x; those with x_j = c sit at stride n_j·w from c·w
        sums = group.sums()
        perm = [0] * group.order
        w = group.order
        for n, img, i in zip(group.factors, images, indices):
            w //= n
            row = sums[i]
            for c in range(1, n):
                perm[c * w :: n * w] = [row[t] for t in perm[(c - 1) * w :: n * w]]
            if row[perm[(n - 1) * w]] != 0:
                raise ValidationError(
                    f"image {img} of a generator of order {n} has order not dividing {n}"
                )
        if len(set(perm)) != group.order:
            raise ValidationError(f"generator images {images} do not give a bijection")
        self.perm = tuple(perm)

    def __call__(self, x) -> tuple[int, ...]:
        g = self.group
        return g.element(self.perm[g.index(g.check(x))])

    def element_map(self) -> dict:
        return {x: self(x) for x in self.group.elements()}

    def __eq__(self, other):
        return (
            isinstance(other, Automorphism)
            and self.group == other.group
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.group.factors, self.images))

    def __repr__(self):
        return f"Automorphism({self.group.spec()}, {self.images})"


def automorphism_count(A: AbelianGroup) -> int:
    """|Aut(A)| in closed form, with nothing listed (Hillar–Rhea, Amer.
    Math. Monthly 114 (2007), Thm 4.1).

    |Aut(A)| is the product over the p-parts of A.  For the p-part
    Z_{p^e_1} ⊕ … ⊕ Z_{p^e_n}, e_1 ≤ … ≤ e_n, let d_k and c_k be the last
    and the first position l with e_l = e_k; then its automorphisms number
    Π_k (p^{d_k} − p^{k−1}) · p^{e_k(n−d_k)} · p^{(e_k−1)(n−c_k+1)}.

    >>> automorphism_count(AbelianGroup((2, 2, 2)))  # |GL(3,2)|
    168
    >>> automorphism_count(AbelianGroup((2, 2, 2, 2, 2)))  # |GL(5,2)|
    9999360
    """
    exponents: dict[int, list[int]] = {}
    for n in A.factors:
        for p, e in factorize(n):
            exponents.setdefault(p, []).append(e)
    count = 1
    for p, es in exponents.items():
        # each invariant factor divides the next, so es ascends
        n = len(es)
        for k, e in enumerate(es, 1):
            last, first = bisect.bisect_right(es, e), bisect.bisect_left(es, e) + 1
            count *= (p**last - p ** (k - 1)) * p ** (e * (n - last) + (e - 1) * (n - first + 1))
    return count


def automorphism_group(A: AbelianGroup):
    """All automorphisms of A by generator-image enumeration.

    An automorphism preserves element orders, so the image of the i-th
    generator must have order exactly n_i; a partial choice is viable only
    if the chosen images generate a subgroup of size n_1·…·n_j (the map
    restricted there must be injective).  Any surviving full choice whose
    images generate A is a surjective endomorphism of a finite group,
    hence an automorphism.  Images are tried in element order.

    Raises CapacityError when |A| > AUTOMORPHISM_ENUMERATION_LIMIT, or
    when the permutations would hold more than AUTOMORPHISM_INDEX_ENTRIES
    entries (|Aut(A)|·|A|, with |Aut(A)| from ``automorphism_count``),
    before anything is enumerated; VerificationError when the listing
    does not hold ``automorphism_count(A)`` automorphisms.

    >>> len(automorphism_group(AbelianGroup((3,))))
    2
    >>> len(automorphism_group(AbelianGroup((2, 2))))
    6
    """
    if A.order > AUTOMORPHISM_ENUMERATION_LIMIT:
        raise CapacityError(
            f"automorphism enumeration limited to groups of order <= "
            f"{AUTOMORPHISM_ENUMERATION_LIMIT}, |A| = {A.order}",
            limit=AUTOMORPHISM_ENUMERATION_LIMIT,
        )
    count = automorphism_count(A)
    if count * A.order > AUTOMORPHISM_INDEX_ENTRIES:
        raise CapacityError(
            f"the {count} automorphisms of {A.spec()} hold more than "
            f"{AUTOMORPHISM_INDEX_ENTRIES} permutation entries",
            limit=AUTOMORPHISM_INDEX_ENTRIES,
        )
    elems = A.elements()
    sums = A.sums()
    by_order: dict[int, list] = {}
    for i, x in enumerate(elems):
        by_order.setdefault(A.element_order(x), []).append(i)
    found = []

    def extend(i, images, span):
        if i == A.rank:
            found.append(images)
            return
        need = len(span) * A.factors[i]
        for g in by_order.get(A.factors[i], ()):
            # subgroup spanned by span and g: the translates of span by multiples of g
            bigger = set(span)
            step = g
            while step not in span:
                row = sums[step]
                bigger.update([row[s] for s in span])
                step = row[g]
            if len(bigger) == need:
                extend(i + 1, images + [g], bigger)

    extend(0, [], {0})
    if len(found) != count:
        raise VerificationError(
            f"listed {len(found)} automorphisms of {A.spec()}, but |Aut| = {count}"
        )
    return [Automorphism._from_indices(A, images) for images in found]


class Embedding:
    """Injective homomorphism recorded by the images of the source generators."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: AbelianGroup, target: AbelianGroup, images):
        self.source = source
        self.target = target
        self.images = tuple(target.check(g) for g in images)

    def __call__(self, x) -> tuple[int, ...]:
        self.source.check(x)
        out = self.target.zero
        for c, img in zip(x, self.images):
            out = self.target.add(out, self.target.scale(c, img))
        return out

    def __repr__(self):
        return f"Embedding({self.source.spec()} -> {self.target.spec()})"


def direct_product(A: AbelianGroup, B: AbelianGroup):
    """A ⊕ B in invariant-factor form, with embeddings of both factors.

    The cyclic factors of A, then of B, are slotted by
    ``_prime_power_slots``.  The generator of an input factor maps to the
    sum, over its prime powers q slotted into invariant factor m_j, of the
    order-q element (m_j // q) in coordinate j.

    >>> C, eA, eB = direct_product(AbelianGroup((2,)), AbelianGroup((3,)))
    >>> C.factors
    (6,)
    >>> eA((1,)), eB((1,))
    ((3,), (2,))
    """
    factors, slots = _prime_power_slots(A.factors + B.factors)
    C = AbelianGroup(factors)
    gen_images = []
    for slot in slots:
        coords = [0] * C.rank
        for j, q in slot:
            coords[j] = (coords[j] + factors[j] // q) % factors[j]
        gen_images.append(tuple(coords))
    embed_A = Embedding(A, C, gen_images[: A.rank])
    embed_B = Embedding(B, C, gen_images[A.rank :])
    return C, embed_A, embed_B


def subgroup_embeddable(B: AbelianGroup, A: AbelianGroup) -> bool:
    """True iff B is realizable as a subgroup of A.

    For abelian groups this is the right-aligned divisibility of the
    invariant factor chains.

    >>> subgroup_embeddable(AbelianGroup((2,)), AbelianGroup((4,)))
    True
    >>> subgroup_embeddable(AbelianGroup((2, 2)), AbelianGroup((8,)))
    False
    """
    if B.rank > A.rank:
        return False
    for i in range(1, B.rank + 1):
        if A.factors[-i] % B.factors[-i] != 0:
            return False
    return True


class SemidirectGroup:
    """Z_p ⋊ Z_d where the Z_d generator acts on Z_p by multiplication by e.

    Elements are pairs (a, t) with a in [0, p) and t in [0, d); the
    product is (a, t)·(b, u) = (a + e^t·b mod p, t + u mod d).
    """

    __slots__ = ("p", "d", "e", "order")

    AXIOM_CHECK_LIMIT = 60

    def __init__(self, p: int, d: int, e: int):
        if not is_prime(p):
            raise ValidationError(f"SD requires prime p, got {p}")
        if not 2 <= e < p:
            raise ValidationError(f"SD multiplier e must lie in [2, {p}), got {e}")
        if multiplicative_order(e, p) != d:
            raise ValidationError(
                f"multiplicative order of {e} mod {p} is "
                f"{multiplicative_order(e, p)}, expected d = {d}"
            )
        self.p = p
        self.d = d
        self.e = e
        self.order = p * d
        if self.order <= self.AXIOM_CHECK_LIMIT:
            self._verify_axioms()

    def _verify_axioms(self):
        els = self.elements()
        ident = self.identity
        for x in els:
            if self.multiply(x, ident) != x or self.multiply(ident, x) != x:
                raise ValidationError(f"identity axiom fails at {x}")
            if self.multiply(x, self.inverse(x)) != ident:
                raise ValidationError(f"inverse axiom fails at {x}")
        for x in els:
            for y in els:
                xy = self.multiply(x, y)
                for z in els:
                    if self.multiply(xy, z) != self.multiply(x, self.multiply(y, z)):
                        raise ValidationError(f"associativity fails at {x},{y},{z}")

    @property
    def identity(self):
        return (0, 0)

    def elements(self):
        return [(a, t) for a in range(self.p) for t in range(self.d)]

    def multiply(self, x, y):
        a, t = x
        b, u = y
        return ((a + pow(self.e, t, self.p) * b) % self.p, (t + u) % self.d)

    def inverse(self, x):
        a, t = x
        u = (-t) % self.d
        b = (-a) * pow(self.e, u, self.p) % self.p
        return (b, u)

    def spec(self) -> str:
        return f"SD({self.p},{self.d},{self.e})"

    def __repr__(self):
        return f"SemidirectGroup(p={self.p}, d={self.d}, e={self.e})"

    def __eq__(self, other):
        return isinstance(other, SemidirectGroup) and (self.p, self.d, self.e) == (
            other.p,
            other.d,
            other.e,
        )

    def __hash__(self):
        return hash(("SemidirectGroup", self.p, self.d, self.e))


def _digits_end(text: str, pos: int) -> int:
    """End of the run of ASCII digits 0-9 that starts at ``pos``."""
    while pos < len(text) and "0" <= text[pos] <= "9":
        pos += 1
    return pos


def _is_int(text: str) -> bool:
    """An optional leading '-', then one or more ASCII digits 0-9, and nothing else."""
    start = 1 if text.startswith("-") else 0
    return len(text) > start and _digits_end(text, start) == len(text)


def _parse_int(text: str) -> int:
    """``text`` as an int if ``_is_int`` accepts it.

    ``int`` alone would also read "٣", "+1" and "1_0".

    >>> _parse_int("-12")
    -12
    """
    if not _is_int(text):
        raise ParseError(f"expected an integer of ASCII digits, got {text!r}")
    return int(text)


def parse_groupspec(text: str):
    """Parse ``Z<n>``, ``Z<a>xZ<b>x…`` (normalized) or ``SD(p,d,e)``.

    >>> parse_groupspec("Z2xZ6").factors
    (2, 6)
    >>> parse_groupspec("SD(3,2,2)").order
    6
    """
    if not text:
        raise ParseError("empty group spec", 0)
    if text[0] == "S":
        # "#" is a run of ASCII digits; an error points at the first
        # character that breaks the template
        pos, params = 0, []
        for token in "SD(#,#,#)":
            if token == "#":
                end = _digits_end(text, pos)
                params.append(text[pos:end])
            else:
                end = pos + 1 if text[pos : pos + 1] == token else pos
            if end == pos:
                raise ParseError(f"malformed SD spec {text!r}", pos)
            pos = end
        if pos != len(text):
            raise ParseError(f"malformed SD spec {text!r}", pos)
        return SemidirectGroup(*map(int, params))
    factors = []
    pos = 0
    while True:
        if pos >= len(text) or text[pos] != "Z":
            raise ParseError("expected 'Z'", pos)
        start = pos + 1
        pos = _digits_end(text, start)
        if start == pos:
            raise ParseError("expected digits after 'Z'", pos)
        n = int(text[start:pos])
        if n < 1:
            raise DomainError(f"cyclic factor must be >= 1, got Z{n}")
        factors.append(n)
        if pos == len(text):
            break
        if text[pos] != "x":
            raise ParseError(f"expected 'x' between factors, got {text[pos]!r}", pos)
        pos += 1
    return AbelianGroup.from_factors(factors)
