"""Simplicial complexes on vertex bitmasks, exact ranks, and the one homology routine.

A face is an int whose set bits are its vertices; 0 is the empty face.  The
void complex (no faces at all) and the irrelevant complex {emptyset} differ:
the latter has reduced homology of rank one in dimension -1.  The Betti
engine, through `_core_homology`, and the Hochster oracle both call
`reduced_homology`.

The coefficient field is one value, `prime`: None for the rationals, else
a prime p for GF(p).  Ranks of boundary maps come from one sparse echelon
elimination, `rank`, in integers with gcd stripping over Q (no floating
point, no fractions) and mod p over GF(p).
"""

from __future__ import annotations

from functools import reduce
from math import gcd
from operator import and_, or_
from typing import Iterable, Sequence


def is_prime(p: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24,
    a strong probable-prime test above."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2:
        return False
    if p in bases:
        return True
    if any(p % q == 0 for q in bases):
        return False
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_field(prime: int | None) -> None:
    """Refuse what is no coefficient field: Z/n for n not prime.  None is Q."""
    if prime is not None and not is_prime(prime):
        raise ValueError(f"{prime} is not a prime")


def rank(rows: Iterable[dict], prime: int | None = None) -> int:
    """Rank of a sparse integer matrix (rows of col->val) over Q, or over GF(prime).

    Each stored row is keyed by its least column and never changes.  A work
    row whose least column c has a stored row is replaced by row*b - prow*a,
    a and b their entries at c, which clears c; so the least column rises and
    the loop ends with no back-substitution.  Over GF(p) a stored row is
    scaled to lead with 1, so b = 1, and only the entries the stored row
    touches are reduced mod p.  Over Q all arithmetic is integer, and each
    reduced row is divided by the gcd of its entries to stay small.
    """
    pivots: dict[int, dict] = {}
    for raw in rows:
        if prime is None:
            row = {c: v for c, v in raw.items() if v}
        else:
            row = {c: v % prime for c, v in raw.items() if v % prime}
        while row and (lead := min(row)) in pivots:
            prow, a = pivots[lead], row[lead]
            if prime is None:
                b = prow[lead]
                if b != 1:
                    for c in row:
                        row[c] *= b
                for c, v in prow.items():
                    w = row.get(c, 0) - v * a
                    if w:
                        row[c] = w
                    else:
                        del row[c]
                g = gcd(*row.values())
                if g > 1:
                    row = {c: v // g for c, v in row.items()}
            else:
                for c, v in prow.items():
                    w = (row.get(c, 0) - v * a) % prime
                    if w:
                        row[c] = w
                    else:
                        del row[c]
        if row:
            if prime is not None and row[lead] != 1:
                inverse = pow(row[lead], -1, prime)
                row = {c: v * inverse % prime for c, v in row.items()}
            pivots[lead] = row
    return len(pivots)


def boundary_rank(lower: Sequence[int], upper: Sequence[int], prime: int | None = None) -> int:
    """Rank of the boundary map from span(upper) to span(lower), over Q or GF(prime).

    Faces are vertex bitmasks and each one is its own column key.  Removing
    the vertex at position idx, counting the set bits from the lowest,
    carries the sign (-1)^idx.  Rows of the sparse matrix are the upper faces.
    """
    if not upper or not lower:
        return 0
    rows = []
    for face in upper:
        row, sign, rest = {}, 1, face
        while rest:
            v = rest & -rest
            row[face ^ v] = sign
            sign, rest = -sign, rest ^ v
        rows.append(row)
    return rank(rows, prime)


def reduced_homology(faces: Iterable[int], prime: int | None = None) -> dict[int, int]:
    """Nonzero reduced homology ranks by dimension of a complex given by its faces.

    `faces` lists every face once as a vertex bitmask, the empty face 0
    included, so the augmentation map is part of the chain complex:
    rank H~_d = f_d - rank d_d - rank d_{d+1}.  No faces at all is the void
    complex, with no homology; [0] is {emptyset}, with rank one in dimension -1.
    Coefficients are in Q for prime None, else in GF(prime); the caller
    vouches for the prime with `check_field`, once per table.
    """
    by_dim: dict[int, list[int]] = {}
    for face in faces:
        by_dim.setdefault(face.bit_count() - 1, []).append(face)
    bnd = {
        d: boundary_rank(by_dim.get(d - 1, []), group, prime)
        for d, group in by_dim.items()
    }
    ranks = {
        d: len(group) - bnd[d] - bnd.get(d + 1, 0) for d, group in by_dim.items()
    }
    return {d: r for d, r in sorted(ranks.items()) if r}


def _facets(supports: set[int]) -> list[int]:
    """The maximal masks among the supports: the facets of the complex they span."""
    facets: list[int] = []
    for m in sorted(supports, key=int.bit_count, reverse=True):
        for f in facets:
            if m & f == m:
                break
        else:
            facets.append(m)
    return facets


def _core(facets: list[int]) -> list[int]:
    """The facets of the strong-homotopy core of the complex with these facets.

    Deleting a dominated vertex (another vertex lies in every facet
    containing it) keeps the homotopy type (Barmak-Minian).  They go one at
    a time, since two can dominate each other; a cone goes to its apex at
    once.  [0] ({emptyset}) and [] (the void complex) are their own cores.
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


def _core_homology(core: list[int], memo: dict, prime: int | None) -> dict[int, int]:
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
        memo[key] = reduced_homology(_faces(core), prime)
    return memo[key]
