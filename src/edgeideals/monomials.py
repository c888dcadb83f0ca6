"""Monomials and monomial ideals over a fixed variable universe.

Ideals are stored through their unique minimal generating set, sorted by
(total degree, exponent vector) with variable 1 most significant.  Variable
indices are 0-based in code and 1-based when rendered (position 0 is ``x1``).

`Monomial`, an exponent tuple, is the public type and is validated where it
enters.  The ideal operations pack each generator into one int instead: a
byte per variable, variable 1 most significant, the top bit of each byte a
guard bit that a stored monomial keeps clear.  Exponents thus stop at
MAX_EXPONENT = 127; beyond it LimitExceeded is raised, never a wrap.  With G
the guard bits, a divides b iff ((b | G) - a) & G == G (no borrow crosses a
byte); the guard bits left set, spread over their bytes, select lcm and
colon per variable; a product is a + b, overflowed iff a guard bit is set;
the degree is the byte sum, and the canonical order is (degree, -p).

Minimalizing buckets the packed candidates by degree and tests each only
against the generators kept at lower degrees.

An ideal's generators also sit side by side in one int, its row (`_Row`,
kept on the ideal once read): generator j fills chunk j of W = 8 * nvars
bits, and with `ones` a 1 at the bottom of every chunk, d * ones is d in
every chunk.  The guarded subtraction then serves all generators at once:
one select gives every quotient g : d as a chunk, and one subtraction tests
which generators divide a monomial.  A chunk c below 2^(W-1) is nonzero iff
the top bit of c + 2^(W-1) - 1 is set, with no carry into the next chunk, so
"some chunk is zero" is one addition and one mask over the whole row.
A row also keeps, once asked, the set of its generators and a table of
masks with one bit per generator: t[a][e] holds those whose exponent of
variable a is at least e (`_Row.thresholds`), each read off the byte
column of variable a by one guarded subtraction, all columns from one
byte string of the row.  Because the minimal generating set is unique and
lies inside every generating set, whether the quotients g : d generate an
ideal of products x_a x_b is decided from these by set and list lookups,
without forming, splitting or minimalizing the quotients
(`_Row.quotients_generate`); colon checks of one ideal by many divisors
reuse the table.  `contains` and `_quotient_supports` (the Betti facets)
stay loops over the generators: few generators divide a given monomial,
so the loops do little work, while a row form must split its result back
into chunks; on the 2,585 `_quotient_supports` calls of the `reg-prime`
tables a row form took 1.3-2.7x the loop's time.
"""

from __future__ import annotations

import itertools
import re
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .errors import LimitExceeded, UniverseMismatch

# the packed layout: one byte per variable, its top bit the guard bit
_BITS = 8
_GUARD = 1 << (_BITS - 1)
MAX_EXPONENT = _GUARD - 1
_OVERFLOW = f"an exponent exceeds {MAX_EXPONENT}, the packed-monomial limit"


class Monomial(tuple):
    """Exponent vector of a monomial, e.g. Monomial((2, 0, 1)) is x1^2*x3."""

    def __new__(cls, exponents: Iterable[int]):
        exps = tuple(int(e) for e in exponents)
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        return super().__new__(cls, exps)

    @classmethod
    def unit(cls, nvars: int) -> "Monomial":
        return cls((0,) * nvars)

    @classmethod
    def variable(cls, index: int, nvars: int) -> "Monomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} outside universe of size {nvars}")
        return cls(tuple(1 if i == index else 0 for i in range(nvars)))

    @property
    def nvars(self) -> int:
        return len(self)

    def degree(self) -> int:
        return sum(self)

    def is_unit(self) -> bool:
        return not any(self)

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self) if e)

    def pow(self, k: int) -> "Monomial":
        if k < 0:
            raise ValueError("negative power of a monomial")
        return _monomial(e * k for e in self)

    def render(self) -> str:
        if self.is_unit():
            return "1"
        parts = []
        for i, e in enumerate(self):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({self.render()})"


def _monomial(exponents: Iterable[int]) -> Monomial:
    """A Monomial from exponents known to be valid, without re-checking them."""
    return tuple.__new__(Monomial, exponents)


_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_monomial(text: str, nvars: int) -> Monomial:
    """Parse the rendered form, e.g. 'x1^2*x3' with a fixed universe size."""
    text = text.strip().replace(" ", "")
    if text in ("1", ""):
        return Monomial.unit(nvars)
    exps = [0] * nvars
    for factor in text.split("*"):
        m = _FACTOR_RE.match(factor)
        if not m:
            raise ValueError(f"bad monomial factor {factor!r}")
        idx = int(m.group(1))
        if not 1 <= idx <= nvars:
            raise ValueError(f"variable x{idx} outside universe of size {nvars}")
        exps[idx - 1] += int(m.group(2) or 1)
    return Monomial(exps)


def _guard(nvars: int) -> int:
    """G: the guard bits of every variable."""
    return int.from_bytes(bytes((_GUARD,)) * nvars, "big")


def _spread(bits: int) -> int:
    """Guard bits spread over the exponent bits below them in their bytes."""
    return bits - (bits >> (_BITS - 1))


def _pack(m: Sequence[int]) -> int:
    """The packed form of a valid exponent vector; LimitExceeded above MAX_EXPONENT."""
    if m and max(m) > MAX_EXPONENT:
        raise LimitExceeded(_OVERFLOW)
    return int.from_bytes(bytes(m), "big")


def _unpack(p: int, nvars: int) -> Monomial:
    return _monomial(p.to_bytes(nvars, "big"))


def _degree(p: int, nvars: int) -> int:
    return sum(p.to_bytes(nvars, "big"))


def _member(p: int, gens: Iterable[int], guard: int) -> bool:
    """Some packed generator divides p."""
    pg = p | guard
    for g in gens:
        if (pg - g) & guard == guard:
            return True
    return False


def _colon(p: int, d: int, guard: int) -> int:
    """p : d = p / gcd(p, d): the bytes 128 + p_i - d_i, kept where p_i >= d_i."""
    diff = (p | guard) - d
    return diff & _spread(diff & guard)


class _Row:
    """Packed generators side by side in one int (a row), the first most significant.

    Generator j fills chunk j of W = 8 * nvars bits.  `ones` holds 1 at the
    bottom of each chunk, so x * ones is x in every chunk; `guards` holds the
    guard bits, `top` the top bit and `fill` = top - ones of every chunk.
    No operation here carries or borrows across a chunk boundary.
    """

    __slots__ = (
        "nvars", "count", "row", "ones", "guards", "top", "fill", "_members", "_thresholds"
    )

    def __init__(self, gens: Sequence[int], nvars: int):
        self.nvars, self.count = nvars, len(gens)
        self.row = int.from_bytes(b"".join(g.to_bytes(nvars, "big") for g in gens), "big")
        self.ones = int.from_bytes(b"\1".rjust(nvars, b"\0") * len(gens), "big")
        self.guards = _guard(nvars) * self.ones
        self.top = self.ones << _BITS * nvars >> 1
        self.fill = self.top - self.ones
        self._members: frozenset[int] | None = None
        self._thresholds: list[list[int]] | None = None

    def quotients(self, d: int) -> int:
        """The row of g : d over the generators g; no chunk has a guard bit."""
        diff = (self.row | self.guards) - d * self.ones
        return diff & _spread(diff & self.guards)

    def has_zero(self, x: int) -> bool:
        """Some chunk of the row x, each chunk below 2^(W-1), is zero."""
        return (x + self.fill) & self.top != self.top

    def member(self, p: int) -> bool:
        """Some generator divides the packed p, which has no guard bit."""
        t = ((p * self.ones | self.guards) - self.row) & self.guards
        return self.has_zero((t ^ self.guards) >> 1)

    @property
    def members(self) -> frozenset[int]:
        """The generators as a set, built on first use."""
        if self._members is None:
            self._members = frozenset(self.split(self.row))
        return self._members

    @property
    def thresholds(self) -> list[list[int]]:
        """t[a][e]: the generators whose exponent of variable a (0-based) is
        at least e, for e up to the largest such exponent, as a mask whose
        byte j (the first most significant) holds a guard bit iff generator
        j qualifies.  Built on first use."""
        if self._thresholds is None:
            every = _guard(self.count)
            ones = every >> _BITS - 1
            b = self.row.to_bytes(self.nvars * self.count, "big")
            self._thresholds = []
            for a in range(self.nvars):
                # byte j is g_j[a]; its guard bit survives subtracting e iff g_j[a] >= e
                column = b[a :: self.nvars]
                guarded = int.from_bytes(column, "big") | every
                self._thresholds.append(
                    [(guarded - e * ones) & every for e in range(max(column, default=0) + 1)]
                )
        return self._thresholds

    def quotients_generate(self, d: int, pairs: Iterable[tuple[int, int]]) -> bool:
        """The quotients g : d over the generators g generate the ideal of the
        x_a x_b over `pairs` (0-based variables a <= b), for d packed without
        guard bits, shown by: (i) d * x_a x_b is a generator for each pair,
        so x_a x_b is a quotient; (ii) each quotient is a multiple of some
        x_a x_b, and g : d is one iff g_a >= d_a + 1 and g_b >= d_b + 1
        (g_a >= d_a + 2 when a = b).

        A monomial ideal has a unique minimal generating set, and it lies
        inside every generating set, so (i) and (ii) give equality.  False
        means that (i) or (ii) fails.  When every generator has degree
        deg d + 2, (i) is also necessary: g : d has degree at least
        deg g - deg d, with equality only when d divides g.  Then False
        means the quotients generate another ideal.
        """
        members, t, top = self.members, self.thresholds, self.nvars - 1
        exps = d.to_bytes(self.nvars, "big")
        covered = 0
        for a, b in pairs:
            if d + (1 << _BITS * (top - a)) + (1 << _BITS * (top - b)) not in members:
                return False
            # that generator has d_a + 1 (d_a + 2 when a = b) in x_a: t[a] reaches it
            if a == b:
                covered |= t[a][exps[a] + 2]
            else:
                covered |= t[a][exps[a] + 1] & t[b][exps[b] + 1]
        return covered == _guard(self.count)

    def split(self, x: int) -> set[int]:
        """The distinct chunks of the row x."""
        nv = self.nvars
        b = x.to_bytes(nv * self.count, "big")
        return {int.from_bytes(b[i * nv : i * nv + nv], "big") for i in range(self.count)}


def _lcm_row(gens: Sequence[int], nvars: int) -> Callable[[int], Iterator[bytes]]:
    """A map from packed x to lcm(x, y) for every generator y, as nvars-byte chunks.

    x * ones is x beside each generator in the row, so one select serves
    every pair: y, raised to x where x_i >= y_i.
    """
    r = _Row(gens, nvars)
    width = nvars * len(gens)
    chunks = [slice(j * nvars, j * nvars + nvars) for j in range(len(gens))]

    def lcms(x: int) -> Iterator[bytes]:
        xs = x * r.ones
        t = ((xs | r.guards) - r.row) & r.guards
        lcm = (r.row ^ ((xs ^ r.row) & _spread(t))).to_bytes(width, "big")
        return map(lcm.__getitem__, chunks)

    return lcms


def _quotient_supports(b: int, gens: Iterable[int], guard: int) -> set[int]:
    """supp(b / g) as a mask of guard bits, for each packed g dividing b."""
    low = _spread(guard)
    out = set()
    for g in gens:
        d = (b | guard) - g
        if d & guard == guard:
            out.add(((d ^ guard) + low) & guard)
    return out


def _of_degree(nvars: int, t: int, variables: Sequence[int]) -> set[int]:
    """Every packed monomial of degree t in the chosen variables (0-based)."""
    if t < 0:
        raise ValueError("negative degree")
    for v in variables:
        if not 0 <= v < nvars:
            raise ValueError(f"variable index {v} outside universe of size {nvars}")
    if t > MAX_EXPONENT and variables:
        raise LimitExceeded(_OVERFLOW)
    units = [1 << _BITS * (nvars - 1 - v) for v in variables]
    return {sum(c) for c in itertools.combinations_with_replacement(units, t)}


def _minimal(gens: Collection[int], nvars: int) -> tuple[int, ...]:
    """The minimal generators of the ideal that packed monomials generate.

    They come back in canonical order.  The distinct candidates are bucketed
    by degree; the buckets are walked upward, each in descending packed
    order, and a candidate is kept unless a generator kept at a lower degree
    divides it: distinct monomials of one degree never divide each other.
    A packed product whose exponent overflowed carries a guard bit and
    raises LimitExceeded here, whether or not a kept generator divides it.
    """
    guard = _guard(nvars)
    buckets: dict[int, list[int]] = {}
    for p in set(gens):
        if p & guard:
            raise LimitExceeded(_OVERFLOW)
        buckets.setdefault(sum(p.to_bytes(nvars, "big")), []).append(p)
    kept: list[int] = []
    for d in sorted(buckets):
        fresh = []
        for c in sorted(buckets[d], reverse=True):
            cg = c | guard
            for k in kept:
                if (cg - k) & guard == guard:
                    break
            else:
                fresh.append(c)
        kept += fresh
    return tuple(kept)


def minimalize(gens: Sequence[Monomial]) -> tuple[Monomial, ...]:
    """Reduce a generating list to the unique minimal one, canonically sorted."""
    if not gens:
        return ()
    nv = len(gens[0])
    if any(len(g) != nv for g in gens):
        raise UniverseMismatch("mixed universe sizes in generator list")
    return tuple(_unpack(p, nv) for p in _minimal({_pack(g) for g in gens}, nv))


class MonomialIdeal:
    """A monomial ideal, stored via its minimal generators.

    `packed` holds them as packed ints in canonical order; `gens` holds them
    as Monomials and `row` as one `_Row`, each built when first read.  The
    zero ideal has no generators; the unit ideal is generated by the unit
    monomial.
    """

    __slots__ = ("nvars", "packed", "_gens", "_row")

    def __init__(self, nvars: int, gens: Iterable = ()):
        self.nvars = int(nvars)
        mono = [g if isinstance(g, Monomial) else Monomial(g) for g in gens]
        for g in mono:
            if g.nvars != self.nvars:
                raise UniverseMismatch(
                    f"generator {g.render()} has {g.nvars} variables, expected {self.nvars}"
                )
        self._gens = minimalize(mono)
        self.packed = tuple(map(_pack, self._gens))
        self._row = None

    @classmethod
    def _from_packed(cls, nvars: int, packed: Collection[int]) -> "MonomialIdeal":
        """The ideal generated by packed monomials of this universe."""
        return cls._from_minimal(nvars, _minimal(packed, nvars))

    @classmethod
    def _from_minimal(cls, nvars: int, packed: Iterable[int]) -> "MonomialIdeal":
        """The ideal whose minimal generators are the packed monomials, given
        in canonical order; neither is checked."""
        a = cls.__new__(cls)
        a.nvars = nvars
        a.packed = tuple(packed)
        a._gens = None
        a._row = None
        return a

    @classmethod
    def zero(cls, nvars: int) -> "MonomialIdeal":
        return cls._from_packed(nvars, ())

    @classmethod
    def unit(cls, nvars: int) -> "MonomialIdeal":
        return cls._from_packed(nvars, (0,))

    @property
    def gens(self) -> tuple[Monomial, ...]:
        if self._gens is None:
            self._gens = tuple(_unpack(p, self.nvars) for p in self.packed)
        return self._gens

    @property
    def row(self) -> _Row:
        if self._row is None:
            self._row = _Row(self.packed, self.nvars)
        return self._row

    @property
    def is_zero(self) -> bool:
        return not self.packed

    @property
    def is_unit(self) -> bool:
        return self.packed == (0,)

    def __len__(self) -> int:
        return len(self.packed)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.gens)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.nvars == other.nvars
            and self.packed == other.packed
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.packed))

    def __repr__(self) -> str:
        body = ", ".join(g.render() for g in self.gens) or "0"
        return f"MonomialIdeal({body})"

    def render(self) -> str:
        return "(" + (", ".join(g.render() for g in self.gens) or "0") + ")"


def parse_ideal(text: str, nvars: int) -> MonomialIdeal:
    """Parse a comma-separated generator list, optionally in parentheses."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    body = body.strip()
    if body in ("", "0"):
        return MonomialIdeal.zero(nvars)
    return MonomialIdeal(nvars, [parse_monomial(p, nvars) for p in body.split(",")])


def contains(a: MonomialIdeal, m: Monomial) -> bool:
    """Monomial membership: some minimal generator divides m."""
    if m.nvars != a.nvars:
        raise UniverseMismatch("monomial universe differs from ideal universe")
    return _member(_pack(m), a.packed, _guard(a.nvars))


def ideal_contains(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    """Inclusion b subseteq a, decided on minimal generators of b."""
    _check_pair(a, b)
    guard = _guard(a.nvars)
    return all(_member(g, a.packed, guard) for g in b.packed)


def first_difference(a: MonomialIdeal, b: MonomialIdeal):
    """A witness monomial in exactly one of the two ideals, or None if equal.

    Returns (monomial, side) where side is 'left' or 'right' for the ideal
    that contains it.
    """
    _check_pair(a, b)
    if a.packed == b.packed:
        return None
    guard = _guard(a.nvars)
    for g in a.packed:
        if not _member(g, b.packed, guard):
            return _unpack(g, a.nvars), "left"
    for g in b.packed:
        if not _member(g, a.packed, guard):
            return _unpack(g, a.nvars), "right"
    return None


def ideal_sum(*ideals: MonomialIdeal) -> MonomialIdeal:
    if not ideals:
        raise ValueError("ideal_sum needs at least one ideal")
    nv = ideals[0].nvars
    gens: set[int] = set()
    for a in ideals:
        if a.nvars != nv:
            raise UniverseMismatch("summands live in different universes")
        gens.update(a.packed)
    return MonomialIdeal._from_packed(nv, gens)


def ideal_product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    _check_pair(a, b)
    return MonomialIdeal._from_packed(a.nvars, {x + y for x in a.packed for y in b.packed})


def ideal_power(a: MonomialIdeal, k: int) -> MonomialIdeal:
    if k < 0:
        raise ValueError("negative ideal power")
    if k == 0:
        return MonomialIdeal.unit(a.nvars)
    out = a
    for _ in range(k - 1):
        out = ideal_product(out, a)
    return out


def ideal_intersection(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """Intersection via pairwise lcms of the generators, a row of b's at a time."""
    _check_pair(a, b)
    lcms = _lcm_row(b.packed, a.nvars)
    gens = {int.from_bytes(z, "big") for x in a.packed for z in lcms(x)}
    return MonomialIdeal._from_packed(a.nvars, gens)


def ideal_colon(a: MonomialIdeal, d) -> MonomialIdeal:
    """Colon a : d for d a Monomial or a MonomialIdeal.

    Colon by an ideal is the intersection of colons by its generators;
    colon by the zero ideal is rejected.
    """
    if isinstance(d, Monomial):
        if d.nvars != a.nvars:
            raise UniverseMismatch("colon divisor universe differs")
        row = a.row
        return MonomialIdeal._from_packed(a.nvars, row.split(row.quotients(_pack(d))))
    if isinstance(d, MonomialIdeal):
        _check_pair(a, d)
        if d.is_zero:
            raise ValueError("colon by the zero ideal is undefined here")
        out = ideal_colon(a, d.gens[0])
        for g in d.gens[1:]:
            out = ideal_intersection(out, ideal_colon(a, g))
        return out
    raise TypeError(f"cannot colon by {type(d).__name__}")


def alpha_degree(a: MonomialIdeal) -> int:
    """alpha(a): least degree of a nonzero element (= of a minimal generator)."""
    if a.is_zero:
        raise ValueError("alpha degree of the zero ideal is undefined")
    return _degree(a.packed[0], a.nvars)


def monomials_of_degree(
    nvars: int, degree: int, variables: Sequence[int] | None = None
) -> list[Monomial]:
    """All monomials of the given total degree in the chosen variables (0-based),
    in canonical order."""
    chosen = range(nvars) if variables is None else tuple(variables)
    return [_unpack(p, nvars) for p in sorted(_of_degree(nvars, degree, chosen), reverse=True)]


def variable_power_ideal(
    nvars: int, variables: Sequence[int], t: int
) -> MonomialIdeal:
    """The t-th power of the prime generated by the chosen variables (0-based).

    t = 0 gives the unit ideal; an empty variable set with t >= 1 gives zero.
    """
    return MonomialIdeal._from_packed(nvars, _of_degree(nvars, t, tuple(variables)))


def _meet_prime_power(a: MonomialIdeal, variables: Sequence[int], t: int) -> MonomialIdeal:
    """a intersected with the t-th power of the prime of the chosen variables (0-based).

    A monomial lies in that power exactly when its degree in the chosen
    variables is >= t, so each minimal generator g of a either survives
    as-is or, short by a deficit d, contributes g * (every monomial of
    degree d in the chosen variables); each deficit's monomials are built
    once, and the result is minimalized once.
    """
    nv = a.nvars
    chosen = set(variables)
    mask = int.from_bytes(bytes(MAX_EXPONENT if i in chosen else 0 for i in range(nv)), "big")
    fills: dict[int, set[int]] = {}
    gens: set[int] = set()
    for g in a.packed:
        deficit = t - _degree(g & mask, nv)
        if deficit <= 0:
            gens.add(g)
            continue
        fill = fills.get(deficit)
        if fill is None:
            fill = fills[deficit] = _of_degree(nv, deficit, variables)
        gens.update(g + w for w in fill)
    return MonomialIdeal._from_packed(nv, gens)


def intersect_with_m_power(a: MonomialIdeal, t: int) -> MonomialIdeal:
    """a intersected with the t-th power of the maximal ideal (all variables)."""
    return _meet_prime_power(a, range(a.nvars), t)


def _check_pair(a: MonomialIdeal, b: MonomialIdeal) -> None:
    if not isinstance(a, MonomialIdeal) or not isinstance(b, MonomialIdeal):
        raise TypeError("expected MonomialIdeal operands")
    if a.nvars != b.nvars:
        raise UniverseMismatch(f"universe sizes differ: {a.nvars} vs {b.nvars}")
