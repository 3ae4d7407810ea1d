"""Property tests: ``self_intersects`` gives the all-pairs flag and witness.

The oracle is ``_oracles.self_intersects_allpairs``, which evaluates every
non-adjacent segment pair. Lines are random walks in 2-D and 3-D (Gaussian
steps, and unit grid steps, which touch and overlap exactly; short walks of
3-10 segments as well as longer ones; open and closed), zigzag lines
l1..l4 with a vertex bent across its neighbours, lines with a vertex
planted next to another segment, and rings left open across the negative
x-axis, where polar angles wrap. Near misses are checked at ``tol`` equal to
the computed distance of the planted pair, one ulp either side of it, and a
relative 1e-9 either side.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from ifscert.continua import build_zigzag_ln
from ifscert.geometry import Polyline, _segment_distance_batch, self_intersects

from _oracles import self_intersects_allpairs

SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.sampled_from([2, 3])
# vertex counts of the walks: short lines and longer ones, drawn about equally
WALK_LENGTHS = st.one_of(st.integers(4, 11), st.integers(12, 80))
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _assert_agree(vertices, closed, tol):
    line = Polyline(vertices, closed=closed)
    got = self_intersects(line, tol=tol)
    want = self_intersects_allpairs(line, tol)
    assert got == want, f"tol={tol!r}: self_intersects {got}, all-pairs {want}"


def _random_walk(seed, n, grid, dim=2):
    rng = np.random.default_rng(seed)
    if grid:
        steps = rng.integers(-1, 2, size=(n, dim)).astype(float)
        steps[np.all(steps == 0, axis=1), 0] = 1.0
    else:
        steps = rng.normal(size=(n, dim)) * 0.3
    pts = np.cumsum(steps, axis=0)
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(pts[1:] != pts[:-1], axis=1)
    return pts[keep]


def _zigzag(n):
    return np.array(build_zigzag_ln(n).vertices)


def _bend(v, seed, reach):
    """Move one interior vertex part of the way towards a vertex further on."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, len(v) - 2))
    m = min(len(v) - 1, k + int(rng.integers(2, reach + 1)))
    out = v.copy()
    out[k] += rng.uniform(0.1, 0.9) * (v[m] - v[k])
    return out


def _plant_near_miss(v, seed):
    """Put a vertex at a seeded small offset from the midpoint of a far segment.

    Returns the vertices and the computed distance between the closest
    planted pair, with the pair in index order as the all-pairs test takes it.
    """
    rng = np.random.default_rng(seed)
    n_seg = len(v) - 1
    k = int(rng.integers(1, len(v) - 1))
    far = [j for j in range(n_seg) if j < k - 2 or j > k + 1]
    j = far[int(rng.integers(len(far)))]
    a, b = v[j], v[j + 1]
    # a unit normal: the segment turned a right angle in 2-D, in 3-D its
    # cross product with the axis it leans on least
    d = b - a
    if len(d) == 2:
        normal = np.array([-d[1], d[0]])
    else:
        normal = np.cross(d, np.eye(3)[np.argmin(np.abs(d))])
    normal /= np.hypot.reduce(normal)
    out = v.copy()
    out[k] = 0.5 * (a + b) + rng.uniform(1e-6, 1e-2) * np.hypot.reduce(d) * normal
    if np.any(np.all(out[1:] == out[:-1], axis=1)):
        return out, None
    P, Q = out[:-1], out[1:]
    dists = []
    for s in (k - 1, k):
        i1, i2 = min(s, j), max(s, j)
        dists.append(_segment_distance_batch(P[i1:i1 + 1], Q[i1:i1 + 1], P[i2:i2 + 1], Q[i2:i2 + 1])[0])
    return out, float(min(dists))


def _tols_around(d):
    return [d, np.nextafter(d, 0.0), np.nextafter(d, np.inf), d * (1 - 1e-9), d * (1 + 1e-9)]


@PROPERTY
@given(SEEDS, WALK_LENGTHS, st.booleans(), st.booleans(), DIMS,
       st.sampled_from([0.0, 1e-9, 1e-2, 0.1]))
def test_sap_matches_allpairs_on_random_walks(seed, n, grid, closed, dim, tol):
    pts = _random_walk(seed, n, grid, dim)
    if len(pts) < 4 or (closed and np.all(pts[0] == pts[-1])):
        return
    _assert_agree(pts, closed, tol)


@PROPERTY
@given(SEEDS, st.integers(1, 4), st.integers(2, 16), st.sampled_from([0.0, 1e-12, 1e-6, 1e-3]))
def test_sap_matches_allpairs_on_bent_zigzags(seed, n, reach, rel_tol):
    v = _bend(_zigzag(n), seed, reach)
    if np.any(np.all(v[1:] == v[:-1], axis=1)):
        return
    _assert_agree(v, False, rel_tol * 2.0 ** -n)


@PROPERTY
@given(SEEDS, st.integers(1, 4), st.integers(0, 4))
def test_sap_matches_allpairs_on_zigzag_near_misses(seed, n, which):
    v, d = _plant_near_miss(_zigzag(n), seed)
    if d is None:
        return
    _assert_agree(v, False, _tols_around(d)[which])


@PROPERTY
@given(SEEDS, st.one_of(st.integers(6, 11), st.integers(12, 80)), st.booleans(), DIMS,
       st.integers(0, 4))
def test_sap_matches_allpairs_on_random_walk_near_misses(seed, n, grid, dim, which):
    v, d = _plant_near_miss(_random_walk(seed, n, grid, dim), seed)
    if d is None:
        return
    _assert_agree(v, False, _tols_around(d)[which])


@PROPERTY
@given(SEEDS, st.integers(8, 200), st.booleans(), st.integers(0, 4))
def test_sap_matches_allpairs_on_rings_open_at_the_branch_cut(seed, k, centred, which):
    # the first and last segments meet across the negative x-axis as seen
    # from the ring's centre; centred at the origin, that is where the
    # broad phase's angle key wraps from +pi to -pi
    rng = np.random.default_rng(seed)
    gap = rng.uniform(1e-6, 0.2)
    theta = np.linspace(-np.pi + gap, np.pi - gap, k)
    r = 1.0 + rng.uniform(-0.02, 0.02, size=k)
    centre = np.zeros(2) if centred else rng.uniform(-3.0, 3.0, size=2)
    v = centre + np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    P, Q = v[:-1], v[1:]
    d = float(_segment_distance_batch(P[:1], Q[:1], P[-1:], Q[-1:])[0])
    _assert_agree(v, False, _tols_around(d)[which])
