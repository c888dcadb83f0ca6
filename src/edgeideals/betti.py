"""Multigraded Betti numbers, regularity, the Hochster oracle and the socle degree.

beta_{i,b}(a) is the rank of reduced homology in dimension i-1 of the
upper-Koszul complex of a at the multidegree b.  Candidate multidegrees are
the closure of the packed generators under lcm (every nonzero Betti
multidegree is an lcm of generators), built one frontier element at a time
against all the generators packed side by side in one int (a row).  A
variable permutation that maps the minimal generators onto themselves maps
the closure onto itself and the complex at b onto the one at its image, so
the closure is built and the complexes are taken once per orbit of the
ideal's automorphism group, which is kept as a few generating permutations
found by a backtrack (`_automorphisms`); each orbit's least multidegree
stands for it, and its entries are copied to the other members.  Per
multidegree the complex lives on supp(b) and is down-closed: a face is any
subset of supp(b / g) for a generator g dividing b, so its facets are the
maximal such supports, kept as the vertex bitmasks of `homology`.  Each
complex is cut to its strong-homotopy core there, and a memo that lives for
one `betti_table` call maps sorted facet tuples, before and after
collapsing and renumbering, to their homology.  The Hochster oracle
computes squarefree tables through the same `reduced_homology` from its
full, uncollapsed complexes, with no memo and no symmetry.  Both take the
coefficient field as one value, `prime`: None for Q, else GF(prime).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import itemgetter, or_

from .errors import LimitExceeded
from .graphs import Graph
from .homology import _core, _core_homology, _facets, check_field, reduced_homology
from .monomials import (
    Monomial,
    MonomialIdeal,
    _BITS,
    _guard,
    _lcm_row,
    _quotient_supports,
    _monomial,
    contains,
    monomials_of_degree,
)
from .symbolic import symbolic_power

DEFAULT_MAX_GENERATORS = 200
DEFAULT_MAX_CLOSURE = 20000
DEFAULT_MAX_SUPPORT = 16


def _classes(exps: list[bytes], nv: int) -> list[int]:
    """Colour refinement of the variables: every automorphism keeps each class.

    A variable's colour is refined by the exponents and colours of the
    generators it divides, until no class splits.  Colours are ranks of
    signature hashes, which do not depend on the variable numbering; a hash
    collision only merges classes, which stay unions of orbits.
    """
    terms = [[(i, g[i] << 32) for i in range(nv) if g[i]] for g in exps]
    colour = [0] * nv
    count = 1
    while True:
        incident: list[list[int]] = [[] for _ in range(nv)]
        for t in terms:
            shape = hash(tuple(sorted([e | colour[i] for i, e in t])))
            for i, e in t:
                incident[i].append(e ^ shape)
        signature = [hash((colour[i], *sorted(incident[i]))) for i in range(nv)]
        ranks = {sig: k for k, sig in enumerate(sorted(set(signature)))}
        if len(ranks) == count:
            return colour
        colour, count = [ranks[sig] for sig in signature], len(ranks)
        if count == nv:
            return colour


def _automorphisms(a: MonomialIdeal) -> list[tuple[int, ...]]:
    """Generators of the variable permutations that map a's minimal generators
    onto themselves and fix every variable that divides none of them.

    perm[i] is the image of variable i.  The base runs first through the
    variables that every such permutation fixes, then through the others in an
    order where generators' supports are complete early.  From the deepest
    level up, at level L the permutations found so far fix the base points
    above L, and one more is searched for each image of the base point that
    they do not yet reach: one automorphism per coset of the next
    stabilizer, so together they generate the group without ever listing
    it.  A search is a backtrack that assigns the variables in base order
    within their refinement class and checks each generator as soon as its
    support is assigned.
    """
    nv = a.nvars
    exps = [g.to_bytes(nv, "big") for g in a.packed]
    colour = _classes(exps, nv)
    members: dict[int, list[int]] = {}
    for v in range(nv):
        members.setdefault(colour[v], []).append(v)
    supports = [[i for i in range(nv) if g[i]] for g in exps]
    masks = [sum(1 << i for i in s) for s in supports]
    # base order: first the fixed variables, those alone in their class and
    # those in no generator (permuting them moves no multidegree, so they are
    # left fixed); then each next variable completes the most generators,
    # the lowest on ties
    occurring = reduce(or_, masks, 0)
    order = [v for v in range(nv) if len(members[colour[v]]) == 1 or not occurring >> v & 1]
    fixed = len(order)
    if fixed == nv:
        return []
    unplaced = (1 << nv) - 1 - sum(1 << v for v in order)
    while unplaced:
        done = [0] * nv
        for m in masks:
            rest = m & unplaced
            if rest and not rest & (rest - 1):
                done[rest.bit_length() - 1] += 1
        v = max((v for v in range(nv) if unplaced >> v & 1), key=lambda v: (done[v], -v))
        unplaced ^= 1 << v
        order.append(v)
    position = [0] * nv
    for d, v in enumerate(order):
        position[v] = d
    shift = [_BITS * (nv - 1 - i) for i in range(nv)]
    genset = set(a.packed)
    # the generators whose support is complete once order[d] is assigned
    checks: list[list] = [[] for _ in range(nv)]
    for g, s in zip(exps, supports):
        if s:
            checks[max(position[i] for i in s)].append([(i, g[i]) for i in s])
    perm = list(range(nv))
    used = [False] * nv

    def fits(d: int) -> bool:
        return all(
            sum(e << shift[perm[i]] for i, e in terms) in genset for terms in checks[d]
        )

    def extend(d: int) -> bool:
        if d == nv:
            return True
        v = order[d]
        for u in members[colour[v]]:
            if not used[u]:
                perm[v], used[u] = u, True
                if fits(d) and extend(d + 1):
                    return True
                used[u] = False
        return False

    found: list[tuple[int, ...]] = []
    for level in range(nv - 1, fixed - 1, -1):
        b = order[level]
        images = [c for c in members[colour[b]] if position[c] > level]
        orbit = _point_orbit(b, found) if images else ()
        for c in images:
            if c in orbit:
                continue
            for d, v in enumerate(order):
                perm[v], used[v] = v, d < level
            perm[b], used[c] = c, True
            if fits(level) and extend(level + 1):
                found.append(tuple(perm))
                orbit = _point_orbit(b, found)
    return found


def _point_orbit(v: int, perms: list[tuple[int, ...]]) -> set[int]:
    """The images of variable v under the group that the permutations generate."""
    orbit, stack = {v}, [v]
    while stack:
        x = stack.pop()
        for p in perms:
            if p[x] not in orbit:
                orbit.add(p[x])
                stack.append(p[x])
    return orbit


def _movers(perms: list[tuple[int, ...]]) -> list[itemgetter]:
    """Each permutation as a map of nv-byte multidegrees: byte perm[i] of the image is byte i."""
    movers = []
    for p in perms:
        source = [0] * len(p)
        for i, j in enumerate(p):
            source[j] = i
        movers.append(itemgetter(*source))
    return movers


def _orbit(x: bytes, movers: list[itemgetter], into: set[bytes]) -> list[bytes]:
    """The orbit of x, which is not in `into`, added to `into`."""
    orbit = [x]
    into.add(x)
    for y in orbit:
        for move in movers:
            z = bytes(move(y))
            if z not in into:
                into.add(z)
                orbit.append(z)
    return orbit


def _closure(a: MonomialIdeal, movers: list[itemgetter], cap: int) -> list[bytes]:
    """The least element of each orbit of the lcm closure, as nv-byte chunks.

    The closure and each round's new elements are unions of orbits, since
    the automorphisms permute the generators and lcm commutes with them, so
    a round meets one representative per orbit with the whole row of
    generators (`_lcm_row`) and expands each new element's orbit.  `seen`
    and the pending count are those of the plain closure, cap included.
    """
    nv, base = a.nvars, a.packed
    row_lcms = _lcm_row(base, nv)
    seen: set[bytes] = set()
    gens = [g.to_bytes(nv, "big") for g in base]
    frontier = [min(_orbit(x, movers, seen)) for x in gens if x not in seen]
    reps = list(frontier)
    while frontier:
        lcms: set[bytes] = set()
        for x in frontier:
            lcms.update(row_lcms(int.from_bytes(x, "big")))
        lcms -= seen
        fresh: set[bytes] = set()
        frontier = [min(_orbit(x, movers, fresh)) for x in lcms if x not in fresh]
        if len(seen) + len(fresh) > cap:
            raise LimitExceeded(
                f"lcm closure exceeds {cap} multidegrees "
                f"({len(seen)} found, {len(fresh)} pending)"
            )
        seen |= fresh
        reps += frontier
    return reps


def lcm_closure(a: MonomialIdeal, cap: int = DEFAULT_MAX_CLOSURE) -> list[int]:
    """Close the packed generators of a under lcm, sorted by (degree, exponent vector).

    This is `_closure` with no automorphisms, so every orbit is one multidegree.
    """
    every = _closure(a, [], cap)
    return [p for _, p in sorted((sum(x), int.from_bytes(x, "big")) for x in every)]


@dataclass(frozen=True)
class BettiTable:
    """Nonzero multigraded Betti numbers with the graded and reg views."""

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


def _entry_key(entry: tuple[int, Monomial, int]) -> tuple:
    """Table order: i, then the degree of b, then b's exponents descending."""
    return (entry[0], entry[1].degree(), tuple(-x for x in entry[1]))


def betti_table(
    a: MonomialIdeal,
    prime: int | None = None,
    max_generators: int = DEFAULT_MAX_GENERATORS,
    max_closure: int = DEFAULT_MAX_CLOSURE,
    max_support: int = DEFAULT_MAX_SUPPORT,
) -> BettiTable:
    if a.is_zero:
        raise ValueError("Betti table of the zero ideal is undefined here")
    check_field(prime)
    if a.is_unit:
        return BettiTable(((0, Monomial.unit(a.nvars), 1),))
    if len(a) > max_generators:
        raise LimitExceeded(f"{len(a)} generators exceed the {max_generators} cap")
    nv = a.nvars
    # the top multidegree, the lcm of every generator, has the largest support
    support = nv - reduce(or_, a.packed).to_bytes(nv, "big").count(0)
    if support > max_support:
        raise LimitExceeded(f"multidegree support {support} exceeds the {max_support} cap")
    guard = _guard(nv)
    movers = _movers(_automorphisms(a))
    entries: list[tuple[int, Monomial, int]] = []
    # sorted facet tuple -> reduced homology, for this table's prime only
    memo: dict[tuple[int, ...], dict[int, int]] = {}
    for x in _closure(a, movers, max_closure):
        facets = _facets(_quotient_supports(int.from_bytes(x, "big"), a.packed, guard))
        key = tuple(sorted(facets))
        homology = memo.get(key)
        if homology is None:
            homology = memo[key] = _core_homology(_core(facets), memo, prime)
        if homology:  # the same at every multidegree of x's orbit
            for y in _orbit(x, movers, set()):
                mono = _monomial(y)
                entries.extend((d + 1, mono, rank) for d, rank in homology.items())
    entries.sort(key=_entry_key)
    return BettiTable(tuple(entries))


def hochster_betti_table(
    a: MonomialIdeal,
    prime: int | None = None,
    max_vars: int = 8,
) -> BettiTable:
    """Independent oracle for squarefree ideals via complement-complex homology.

    The complex has the squarefree monomials outside the ideal as faces;
    beta_{i,W} is the reduced homology rank of its restriction to W in
    dimension |W|-i-2.  Exponential in the variable count, so capped.
    """
    if a.is_zero or a.is_unit:
        raise ValueError("oracle needs a proper nonzero ideal")
    check_field(prime)
    if any(not g.is_squarefree() for g in a.gens):
        raise ValueError("oracle only applies to squarefree ideals")
    ground = sorted({i for g in a.gens for i in g.support()})
    if len(ground) > max_vars:
        raise LimitExceeded(f"{len(ground)} variables exceed the {max_vars} oracle cap")
    nv = a.nvars
    # every W in the ground set, empty first, as a vertex bitmask and a monomial
    subsets = [
        (sum(1 << i for i in sub), Monomial(1 if i in sub else 0 for i in range(nv)))
        for r in range(len(ground) + 1)
        for sub in itertools.combinations(ground, r)
    ]
    faces = [w for w, m in subsets if not contains(a, m)]
    entries: list[tuple[int, Monomial, int]] = []
    for w, m in subsets[1:]:
        restricted = [f for f in faces if f & ~w == 0]
        for d, rank in reduced_homology(restricted, prime).items():
            i = w.bit_count() - d - 2
            if i >= 0:
                entries.append((i, m, rank))
    entries.sort(key=_entry_key)
    return BettiTable(tuple(entries))


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
