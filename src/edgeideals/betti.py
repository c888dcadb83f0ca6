"""Multigraded Betti numbers, regularity, the Hochster oracle and the socle degree.

beta_{i,b}(a) is the rank of reduced homology in dimension i-1 of the
upper-Koszul complex of a at the multidegree b.  Candidate multidegrees are
the closure of the packed generators under lcm (every nonzero Betti
multidegree is an lcm of generators), built one frontier element at a time
against all the generators packed side by side in one int (a row).  Per
multidegree the complex lives on supp(b) and is down-closed: a face is any
subset of supp(b / g) for a generator g dividing b, so its facets are the
maximal such supports, kept as int bitmasks.  Deleting a dominated vertex
(another vertex lies in every facet containing it) keeps the homotopy type
(Barmak-Minian), so each complex is cut to its strong-homotopy core; a core
that is one nonempty simplex has no reduced homology.  The other cores have
their vertices renumbered 0..k-1, and each distinct renumbered core has its
faces sent to `homology.reduced_homology` once per table: a memo that lives
for one `betti_table` call maps sorted facet tuples, before and after
collapsing and renumbering, to their homology.  The Hochster oracle
computes squarefree tables through the same routine from its full,
uncollapsed complexes, with no memo.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

from .errors import LimitExceeded
from .graphs import Graph
from .homology import DEFAULT_PRIME, check_field, reduced_homology
from .monomials import (
    Monomial,
    MonomialIdeal,
    _guard,
    _lcm_row,
    _quotient_supports,
    _row,
    _unpack,
    _variables,
    contains,
    monomials_of_degree,
)
from .symbolic import symbolic_power

DEFAULT_MAX_GENERATORS = 200
DEFAULT_MAX_CLOSURE = 20000
DEFAULT_MAX_SUPPORT = 16


def lcm_closure(a: MonomialIdeal, cap: int = DEFAULT_MAX_CLOSURE) -> list[int]:
    """Close the packed generators of a under lcm, sorted by (degree, exponent vector).

    Each frontier element meets the whole row of generators at once
    (`_lcm_row`); multidegrees stay as nv-byte chunks of the row's bytes
    until they are returned as ints.
    """
    nv, base = a.nvars, a.packed
    row, ones, guards = _row(base, nv)
    width = nv * len(base)
    chunks = [slice(j * nv, j * nv + nv) for j in range(len(base))]
    frontier = [g.to_bytes(nv, "big") for g in base]
    seen = set(frontier)
    while frontier:
        fresh: set[bytes] = set()
        for x in frontier:
            lcms = _lcm_row(int.from_bytes(x, "big"), row, ones, guards, width)
            fresh.update(map(lcms.__getitem__, chunks))
        fresh -= seen
        if len(seen) + len(fresh) > cap:
            raise LimitExceeded(
                f"lcm closure exceeds {cap} multidegrees "
                f"({len(seen)} found, {len(fresh)} pending)"
            )
        seen |= fresh
        frontier = fresh
    return [p for _, p in sorted((sum(x), int.from_bytes(x, "big")) for x in seen)]


@dataclass(frozen=True)
class BettiTable:
    """Nonzero multigraded Betti numbers with the graded and reg views."""

    nvars: int
    field: str
    prime: int | None
    entries: tuple[tuple[int, Monomial, int], ...]

    def graded(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for i, b, rank in self.entries:
            key = (i, b.degree())
            out[key] = out.get(key, 0) + rank
        return out

    @property
    def regularity(self) -> int:
        if not self.entries:
            raise ValueError("empty Betti table has no regularity")
        return max(b.degree() - i for i, b, _ in self.entries)


def _facets(supports: set[int]) -> list[int]:
    """The maximal masks among the supports: the facets of the complex they span."""
    facets: list[int] = []
    for m in sorted(supports, key=int.bit_count, reverse=True):
        if all(m & f != m for f in facets):
            facets.append(m)
    return facets


def _core(facets: list[int]) -> list[int]:
    """The facets of the strong-homotopy core of the complex with these facets.

    Dominated vertices go one at a time, since two can dominate each other;
    a cone goes to its apex at once.  [0] ({emptyset}) and [] (the void
    complex) are their own cores.
    """
    while facets:
        apex = reduce(and_, facets)
        if apex:
            return [apex & -apex]
        union = reduce(or_, facets)
        while union:
            v = union & -union
            union ^= v
            if reduce(and_, (f for f in facets if f & v)) != v:  # v is dominated
                facets = _facets({f & ~v for f in facets})
                break
        else:
            return facets
    return facets


def _contractible(core: list[int]) -> bool:
    """A core that is one nonempty simplex; [0] is {emptyset}, with H~_-1 = 1."""
    return len(core) == 1 and core[0] != 0


def _faces(facets: list[int]) -> set[int]:
    """Every face of the complex: each submask of each facet, the empty one included."""
    faces = set()
    for f in facets:
        sub = f
        while True:
            faces.add(sub)
            if not sub:
                break
            sub = (sub - 1) & f
    return faces


def _relabel(facets: list[int]) -> list[int]:
    """The facets with the complex's k vertices renumbered 0..k-1 in mask order."""
    union = reduce(or_, facets, 0)
    vertices = []
    while union:
        vertices.append(union & -union)
        union &= union - 1
    return [sum(1 << i for i, v in enumerate(vertices) if f & v) for f in facets]


def _core_homology(core: list[int], memo: dict, field: str, prime: int) -> dict[int, int]:
    """Reduced homology of a core, taken once per facet tuple up to renumbering.

    Renumbering the vertices 0..k-1 is an isomorphism, so one memo entry,
    keyed by the relabelled and sorted facets, serves every core that
    renumbers to them.
    """
    if _contractible(core):
        return {}
    core = _relabel(core)
    key = tuple(sorted(core))
    if key not in memo:
        faces = [tuple(v for v in range(f.bit_length()) if f >> v & 1) for f in _faces(core)]
        memo[key] = reduced_homology(faces, field, prime)
    return memo[key]


def betti_table(
    a: MonomialIdeal,
    field: str = "rational",
    prime: int = DEFAULT_PRIME,
    max_generators: int = DEFAULT_MAX_GENERATORS,
    max_closure: int = DEFAULT_MAX_CLOSURE,
    max_support: int = DEFAULT_MAX_SUPPORT,
) -> BettiTable:
    if a.is_zero:
        raise ValueError("Betti table of the zero ideal is undefined here")
    check_field(field, prime)
    used_prime = prime if field == "prime" else None
    if a.is_unit:
        return BettiTable(a.nvars, field, used_prime, ((0, Monomial.unit(a.nvars), 1),))
    if len(a) > max_generators:
        raise LimitExceeded(f"{len(a)} generators exceed the {max_generators} cap")
    nv = a.nvars
    guard = _guard(nv)
    entries: list[tuple[int, Monomial, int]] = []
    # sorted facet tuple -> reduced homology, for this table's field only
    memo: dict[tuple[int, ...], dict[int, int]] = {}
    for b in lcm_closure(a, max_closure):
        support = _variables(b, nv)
        if len(support) > max_support:
            raise LimitExceeded(
                f"multidegree support {len(support)} exceeds the {max_support} cap"
            )
        facets = _facets(_quotient_supports(b, a.packed, guard))
        key = tuple(sorted(facets))
        homology = memo.get(key)
        if homology is None:
            homology = memo[key] = _core_homology(_core(facets), memo, field, prime)
        if homology:
            mono = _unpack(b, nv)
            entries.extend((d + 1, mono, rank) for d, rank in homology.items())
    entries.sort(key=lambda e: (e[0], e[1].degree(), tuple(-x for x in e[1])))
    return BettiTable(a.nvars, field, used_prime, tuple(entries))


def regularity(a: MonomialIdeal, **kwargs) -> int:
    """max over nonzero beta_{i,b} of deg(b) - i."""
    return betti_table(a, **kwargs).regularity


def quotient_regularity(a: MonomialIdeal, **kwargs) -> int:
    """Regularity of the quotient ring by a, i.e. regularity(a) - 1."""
    return regularity(a, **kwargs) - 1


def hochster_betti_table(
    a: MonomialIdeal,
    field: str = "rational",
    prime: int = DEFAULT_PRIME,
    max_vars: int = 8,
) -> BettiTable:
    """Independent oracle for squarefree ideals via complement-complex homology.

    The complex has the squarefree monomials outside the ideal as faces;
    beta_{i,W} is the reduced homology rank of its restriction to W in
    dimension |W|-i-2.  Exponential in the variable count, so capped.
    """
    if a.is_zero or a.is_unit:
        raise ValueError("oracle needs a proper nonzero ideal")
    check_field(field, prime)
    if any(not g.is_squarefree() for g in a.gens):
        raise ValueError("oracle only applies to squarefree ideals")
    ground: set[int] = set()
    for g in a.gens:
        ground |= set(g.support())
    if len(ground) > max_vars:
        raise LimitExceeded(f"{len(ground)} variables exceed the {max_vars} oracle cap")
    ground_list = sorted(ground)
    nv = a.nvars
    # faces of the complement complex with their vertex bitmasks
    faces = []
    for r in range(len(ground_list) + 1):
        for sub in itertools.combinations(ground_list, r):
            exps = [0] * nv
            for i in sub:
                exps[i] = 1
            if not contains(a, Monomial(exps)):
                faces.append((sum(1 << i for i in sub), sub))
    entries: list[tuple[int, Monomial, int]] = []
    for r in range(1, len(ground_list) + 1):
        for sub in itertools.combinations(ground_list, r):
            w = sum(1 << i for i in sub)
            restricted = [f for m, f in faces if m & ~w == 0]
            for d, rank in reduced_homology(restricted, field, prime).items():
                i = len(sub) - d - 2
                if i < 0:
                    continue
                exps = [0] * nv
                for v in sub:
                    exps[v] = 1
                entries.append((i, Monomial(exps), rank))
    entries.sort(key=lambda e: (e[0], e[1].degree(), tuple(-x for x in e[1])))
    used_prime = prime if field == "prime" else None
    return BettiTable(nv, field, used_prime, tuple(entries))


def socle_regularity(g: Graph, s: int) -> int:
    """Regularity of S modulo (s-th symbolic power + m^2s): its top nonzero degree.

    m^2s kills every degree from 2s on, and below 2s a monomial lies in the
    sum iff it lies in the symbolic power, so the value is the largest
    d <= 2s-1 with a degree-d monomial outside the computed I^(s), found by
    stopping at the first such monomial; -1 if the quotient is zero.  The
    expected value is 2s-1: for a graph with an edge, x1^(2s-1) is already
    outside, since the vertices other than 1 contain a minimal cover.
    """
    a = symbolic_power(g, s)
    for d in range(2 * s - 1, -1, -1):
        if any(not contains(a, m) for m in monomials_of_degree(a.nvars, d)):
            return d
    return -1
