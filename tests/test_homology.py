from __future__ import annotations

import itertools
import os
import random
from fractions import Fraction
from math import gcd

import numpy as np

from edgeideals import homology
from edgeideals.homology import _contractible, _core, boundary_rank, rank, reduced_homology

_SEED = 77141
EXTENDED = bool(os.environ.get("EDGEIDEALS_EXTENDED"))

# minimal 6-vertex triangulation of the real projective plane
_RP2 = [
    (1, 2, 3), (1, 3, 4), (1, 2, 6), (1, 4, 5), (1, 5, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]


def _masks(faces) -> list[int]:
    """Vertex tuples as the engine's vertex bitmasks."""
    return [sum(1 << v for v in f) for f in faces]


def _closure(maximal) -> list[int]:
    """Every face of the complex with these maximal faces, the empty face
    included, listed on tuples and returned as bitmasks."""
    faces = set()
    for m in maximal:
        m = sorted(m)
        for r in range(len(m) + 1):
            faces.update(itertools.combinations(m, r))
    return _masks(sorted(faces, key=lambda f: (len(f), f)))


def test_cone_detection():
    # the Betti engine prunes contractible cores (no reduced homology) before
    # calling reduced_homology; a cone's core is its apex
    cones = [[(0, 1, 2)], [(0, 1), (0, 2)]]
    others = [[(0, 1), (2,)], [(0, 1), (1, 2), (0, 2)], [()]]
    for maximal in cones:
        assert _contractible(_core(_masks(maximal))), maximal
        assert reduced_homology(_closure(maximal)) == {}
    for maximal in others:
        assert not _contractible(_core(_masks(maximal))), maximal
        assert reduced_homology(_closure(maximal)) != {}
    assert not _contractible(_core([]))  # void complex


def test_homology_classic_spaces():
    hollow = _closure([(1, 2), (2, 3), (1, 3)])
    assert reduced_homology(hollow) == {1: 1}

    two_points = _closure([(1,), (2,)])
    assert reduced_homology(two_points) == {0: 1}

    simplex = _closure([(1, 2, 3, 4)])
    assert reduced_homology(simplex) == {}

    sphere = _closure([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
    assert reduced_homology(sphere) == {2: 1}

    assert reduced_homology([0]) == {-1: 1}
    assert reduced_homology([]) == {}

    # hollow triangle plus two isolated vertices
    mixed = _closure([(1, 2), (2, 3), (1, 3), (7,), (8,)])
    assert reduced_homology(mixed) == {0: 2, 1: 1}


def test_projective_plane_torsion():
    rp2 = _closure(_RP2)
    assert reduced_homology(rp2) == {}
    # mod 2 the top class and the 1-cycle appear
    assert reduced_homology(rp2, prime=2) == {1: 1, 2: 1}
    # a large prime behaves like characteristic zero here
    assert reduced_homology(rp2, prime=32003) == {}


def _random_complex(rng: random.Random) -> list[int]:
    n = rng.randint(1, 6)
    faces = []
    for _ in range(rng.randint(1, 8)):
        size = rng.randint(1, min(4, n))
        faces.append(tuple(rng.sample(range(1, n + 1), size)))
    return _closure(faces)


def test_euler_characteristic_matches_homology():
    rng = random.Random(_SEED)
    for _ in range(40):
        faces = _random_complex(rng)
        rng.shuffle(faces)  # face order must not matter
        ranks = reduced_homology(faces)
        alt = sum(r if d % 2 == 0 else -r for d, r in ranks.items())
        assert sum(1 if f.bit_count() % 2 == 1 else -1 for f in faces) == alt


def test_rank_engines_match_numpy():
    rng = random.Random(_SEED + 1)
    for _ in range(60):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        dense = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rows = [{j: v for j, v in enumerate(r) if v} for r in dense]
        want = int(np.linalg.matrix_rank(np.array(dense, dtype=float)))
        assert rank(rows) == want
        assert rank(rows, 32003) == want


def test_rank_sparse_wide():
    rng = random.Random(_SEED + 2)
    rows = []
    dense = np.zeros((30, 40))
    for i in range(30):
        row = {}
        for _ in range(4):
            j = rng.randrange(40)
            v = rng.choice([-2, -1, 1, 2, 3])
            row[j] = row.get(j, 0) + v
        row = {j: v for j, v in row.items() if v}
        rows.append(row)
        for j, v in row.items():
            dense[i, j] = v
    want = int(np.linalg.matrix_rank(dense))
    assert rank(rows) == want
    assert rank(rows, 32003) == want


def _dense_rank(dense: list[list[int]], p: int | None = None) -> int:
    """Rank by textbook Gaussian elimination, over Q with Fractions or over GF(p)."""
    if p is None:
        work = [[Fraction(v) for v in row] for row in dense]
    else:
        work = [[v % p for v in row] for row in dense]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inverse = 1 / work[rank][col] if p is None else pow(work[rank][col], -1, p)
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col] * inverse
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
                if p is not None:
                    work[r] = [a % p for a in work[r]]
        rank += 1
    return rank


def test_rank_mod_p_never_exceeds_rational_rank(monkeypatch):
    # sparse matrices with entries in -5..5; by universal coefficients a rank
    # mod p is at most the rational rank, and both agree with dense
    # elimination written out here
    strips = []

    def recording_gcd(*values):
        g = gcd(*values)
        strips.append(g)
        return g

    monkeypatch.setattr(homology, "gcd", recording_gcd)
    rng = random.Random(_SEED + 3)
    dropped = lead_not_one = 0
    for _ in range(2000 if EXTENDED else 150):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        density = rng.choice([0.2, 0.4, 0.7])
        dense = [
            [rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(m)
        ]
        rows = [{j: v for j, v in enumerate(r) if v} for r in dense]
        rational = rank(rows)
        assert rational == _dense_rank(dense), dense
        for p in (2, 3, 32003):
            modular = rank(rows, p)
            assert modular == _dense_rank(dense, p), (dense, p)
            assert modular <= rational, (dense, p)
            dropped += modular < rational
        # the first nonzero row is stored as it is, keyed by its least column,
        # so a later row with that least column is reduced by it with b != 1
        leads = [(min(r), r[min(r)]) for r in rows if r]
        lead_not_one += bool(leads) and leads[0][1] != 1 and any(
            c == leads[0][0] for c, _ in leads[1:]
        )
    assert dropped > 10
    assert lead_not_one > 10
    assert any(g > 1 for g in strips)


def test_boundary_rank_empty_edges():
    edge, points = _masks([(1, 2)]), _masks([(1,), (2,)])
    assert boundary_rank([], edge) == 0
    assert boundary_rank(points, []) == 0
    # single edge boundary has rank 1
    assert boundary_rank(points, edge) == 1
    # the hollow triangle's boundary map has rank 2, the filled one's 2-face adds 1
    triangle = _masks([(0, 1), (0, 2), (1, 2)])
    vertices = _masks([(0,), (1,), (2,)])
    assert boundary_rank(vertices, triangle) == 2
    assert boundary_rank(triangle, _masks([(0, 1, 2)])) == 1
