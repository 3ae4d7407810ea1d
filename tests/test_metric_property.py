"""Property tests: the sweep in ``eps_graph`` and the capped search in ``hausdorff``.

Three oracles. On dyadic lattices every hop length and its comparison with
epsilon are exact, so the graph must equal ``_graph_oracle``'s, computed in
rational arithmetic: pairs exactly epsilon apart are left out, whether they
sit in one cell of the sweep or straddle two. On arbitrary float clouds the
graph must equal, bit for bit, the all-pairs evaluation of the same
floating-point hop length. And whole chain profiles must equal
``_oracles.chain_profiles_reference``, which takes its pairs from the
KD-tree and builds its matrix from COO triples. The clouds are 1-D, 2-D and
3-D, with duplicate points, points on the cell boundaries, negative
coordinates and coordinates offset by 1e6, and as few as one point; and
4-D to 12-D, where the sweep cuts cells on the first two axes only.

``hausdorff`` caps its nearest-neighbour search by a strided sample and runs
it on several workers; it must equal ``_oracles.hausdorff_reference``, two
plain single-threaded queries, in distance, side and witness, and its
per-point distances must equal an unbounded query's bit for bit.

``nearest_samples`` takes the nearest sample, ties to the lowest index. Its
distance must equal a KD-tree query's in up to seven dimensions, and so
must its index wherever one sample is nearest.
"""

import math
import warnings
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scipy.spatial import cKDTree

from ifscert import metric
from ifscert.continua import build_needle
from ifscert.geometry import ContinuumModel, PointCloud, Polyline
from ifscert.metric import chain_profiles, eps_graph, hausdorff

from _oracles import chain_profiles_reference, hausdorff_reference
from test_metric import _graph_oracle, graph_edges

SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.sampled_from([1, 2, 3])
PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def _graph(points, epsilon):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # epsilon may be below three pitches
        graph = eps_graph(PointCloud(points, 1e-3), epsilon)
    got = graph_edges(graph)
    assert len(got) == graph.edge_count
    return got


@st.composite
def lattice_clouds(draw):
    """Points ``offset + step * k`` for small integers k; epsilon a multiple of the step.

    Either some sites drawn at random, or every site of a box, which fills
    each cell of the sweep and its neighbours.
    """
    dim = draw(DIMS)
    step = draw(st.sampled_from([0.125, 0.25, 0.5, 1.0]))
    epsilon = step * draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
    offset = draw(st.sampled_from([0.0, -3.5, 1e6, -1e6]))
    if draw(st.booleans()):
        side = np.arange(-4, 5 if dim < 3 else 1)
        ks = np.stack(np.meshgrid(*[side] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    else:
        ks = draw(st.lists(st.lists(st.integers(-8, 8), min_size=dim, max_size=dim),
                           min_size=1, max_size=40))
    points = offset + step * np.array(ks, dtype=float)
    repeats = draw(st.integers(0, 3))  # duplicate points: hops of length zero
    return np.vstack([points, points[:repeats]]), epsilon


@PROPERTY
@given(lattice_clouds())
@example((np.array([[0.0, 0.0]]), 1.0))
@example((np.array([[0.0, 0.0], [1.0, 0.0]]), 1.0))
@example((np.array([[0.0, 0.0], [0.0, 0.0]]), 1.0))
def test_sweep_matches_exact_oracle_on_lattices(case):
    points, epsilon = case
    got = _graph(points, epsilon)
    want = _graph_oracle(points, epsilon)
    assert got.keys() == want.keys()
    for key, w in want.items():
        assert got[key] == pytest.approx(w, rel=1e-15, abs=0.0), key


def _all_pairs(points, epsilon):
    i, j = np.triu_indices(len(points), 1)
    d = points[i] - points[j]
    w = np.sqrt(np.einsum("ij,ij->i", d, d))
    keep = w < epsilon
    return dict(zip(zip(i[keep].tolist(), j[keep].tolist()), w[keep].tolist()))


@st.composite
def float_clouds(draw):
    """Uniform or clustered clouds at several scales and offsets."""
    dim = draw(DIMS)
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(SEEDS))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    offset = draw(st.sampled_from([0.0, -7.25, 1e6, -1e6]))
    points = rng.uniform(-1.0, 1.0, size=(n, dim))
    if draw(st.booleans()):
        points = points[rng.integers(0, n, size=n)] + rng.normal(size=(n, dim)) * 0.05
    epsilon = scale * draw(st.floats(0.01, 1.5))
    return offset + scale * points, epsilon


@PROPERTY
@given(float_clouds())
# a hop whose square underflows is computed shorter than its coordinate gap
@example((np.array([[0.0, 0.0], [0.0, 3e-161]]), 2.9995e-161))
def test_sweep_matches_all_pairs_bit_for_bit(case):
    points, epsilon = case
    assert _graph(points, epsilon) == _all_pairs(points, epsilon)


@st.composite
def high_dim_clouds(draw):
    """Clouds in 4 to 12 dimensions, where the sweep cuts cells on two axes only.

    Dyadic lattices (exact hop comparisons, pairs exactly epsilon apart) or
    uniform and clustered float clouds.
    """
    dim = draw(st.integers(4, 12))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(SEEDS))
    if draw(st.booleans()):
        step = draw(st.sampled_from([0.25, 1.0]))
        points = draw(st.sampled_from([0.0, -1e6])) + step * rng.integers(-2, 3, size=(n, dim))
        return points, step * draw(st.sampled_from([1, 2, 3, 4])), True
    points = rng.uniform(-1.0, 1.0, size=(n, dim))
    if draw(st.booleans()):
        points = points[rng.integers(0, n, size=n)] + rng.normal(size=(n, dim)) * 0.05
    return points, draw(st.floats(0.05, 2.5)), False


@PROPERTY
@given(high_dim_clouds())
def test_sweep_matches_the_oracles_in_high_dimensions(case):
    points, epsilon, lattice = case
    got = _graph(points, epsilon)
    if lattice:
        want = _graph_oracle(points, epsilon)
        assert got.keys() == want.keys()
        for key, w in want.items():
            assert got[key] == pytest.approx(w, rel=1e-15, abs=0.0), key
    else:
        assert got == _all_pairs(points, epsilon)


@st.composite
def polyline_models(draw, dims=st.sampled_from([2, 3])):
    """A random open polyline, marked at both ends and at a middle vertex."""
    dim = draw(dims)
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(SEEDS))
    vertices = np.cumsum(rng.normal(size=(n, dim)) * 0.3, axis=0)
    marked = {"a": vertices[0], "b": vertices[-1], "c": vertices[n // 2]}
    return ContinuumModel((Polyline(vertices),), marked, dim)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(polyline_models(), st.sampled_from([0.1, 0.2, 0.35]), st.integers(0, 3))
def test_chain_profiles_match_the_kdtree_reference(model, eps0, k_max):
    pairs = [("a", "b"), ("c", "a"), ("b", "b")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = np.array([p.values for p in chain_profiles(model, pairs, eps0, k_max)])
    want = chain_profiles_reference(model, pairs, eps0, k_max)
    assert np.array_equal(got, want)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(polyline_models(st.integers(4, 12)), st.sampled_from([0.2, 0.35]), st.integers(0, 2))
def test_chain_profiles_match_the_kdtree_reference_in_high_dimensions(model, eps0, k_max):
    pairs = [("a", "b"), ("c", "a")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = np.array([p.values for p in chain_profiles(model, pairs, eps0, k_max)])
    assert np.array_equal(got, chain_profiles_reference(model, pairs, eps0, k_max))


def test_needle_profile_matches_the_kdtree_reference():
    pairs = [("far", "h(p)"), ("h(p)", "far")]
    got = np.array([p.values for p in chain_profiles(build_needle(), pairs, 0.1, 4)])
    assert np.array_equal(got, chain_profiles_reference(build_needle(), pairs, 0.1, 4))


@st.composite
def cloud_pairs(draw):
    """Two clouds: float or dyadic-lattice points, the second maybe equal to the first.

    Lattice points make many nearest distances tie, between points and
    between the two sides. Duplicates repeat a cloud's first points, and an
    outlier far from everything may land at any index of the first cloud,
    where a strided sample may or may not see it.
    """
    dim = draw(DIMS)
    rng = np.random.default_rng(draw(SEEDS))
    lattice = draw(st.booleans())

    def cloud():
        n = draw(st.integers(1, 150))
        if lattice:
            return rng.integers(-4, 5, size=(n, dim)) * draw(st.sampled_from([0.25, 1.0]))
        return rng.normal(size=(n, dim)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))

    a = cloud()
    b = a.copy() if draw(st.booleans()) else cloud()
    a = np.vstack([a, a[:draw(st.integers(0, 3))]])
    if draw(st.booleans()):
        at = draw(st.integers(0, len(a)))
        a = np.insert(a, at, np.full(dim, 1e4 if lattice else 7.5e3), axis=0)
    offset = draw(st.sampled_from([0.0, -3.5, 1e6]))
    return offset + a, offset + b


def _outlier_case(n, at):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, 2))
    return np.insert(a, at, [40.0, -3.0], axis=0), rng.normal(size=(n, 2))


@PROPERTY
@given(cloud_pairs(), st.sampled_from([1, 3, 64]), st.booleans(), st.booleans())
@example((np.zeros((1, 2)), np.ones((1, 2))), 64, True, False)  # one point each
@example((np.eye(3), np.eye(3)), 64, True, False)  # identical clouds: the cap is 0
@example(_outlier_case(130, 100), 64, False, False)  # the stride skips the farthest point
@example(_outlier_case(130, 100), 64, True, True)
def test_hausdorff_matches_the_reference(clouds, stride, balanced, one_worker):
    # hausdorff's trees are balanced and the attractor's are not; a pass is exact on either
    a, b = (PointCloud(c, 1.0) for c in clouds)
    workers = mock.patch.object(metric, "_query_workers", lambda: 1) if one_worker else nullcontext()
    with mock.patch.object(metric, "_CAP_STRIDE", stride), workers:
        for tree, pts in ((cKDTree(b.points, balanced_tree=balanced), a.points),
                          (cKDTree(a.points, balanced_tree=balanced), b.points)):
            assert np.array_equal(metric._nearest_distances(tree, pts), tree.query(pts, workers=1)[0])
        gap = hausdorff(a, b)
        got = hausdorff(a, b, witness=True)
    want = hausdorff_reference(a, b, witness=True)
    assert gap == got[0] == want[0] == hausdorff_reference(a, b)
    assert got[1] == want[1]
    assert np.array_equal(got[2], want[2])


def _nearest_oracle(samples, pt):
    """(distance, lowest nearest index, every nearest index), squares summed in axis order."""
    sq = []
    for row in samples.tolist():
        total = 0.0
        for s, p in zip(row, pt.tolist()):
            total += (s - p) * (s - p)
        sq.append(total)
    low = min(sq)
    tied = [j for j, v in enumerate(sq) if v == low]
    return math.sqrt(sq[tied[0]]), tied[0], tied


@PROPERTY
@given(st.integers(1, 9), SEEDS, st.booleans())
def test_nearest_samples_match_the_kdtree(dim, seed, lattice):
    # lattice queries sit halfway between samples, where several tie
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 120))
    if lattice:
        samples = rng.integers(-3, 4, size=(n, dim)) * 0.5
        points = rng.integers(-6, 7, size=(4, dim)) * 0.25
    else:
        samples = rng.normal(size=(n, dim))
        points = samples[rng.integers(0, n, size=4)] + rng.normal(size=(4, dim)) * 1e-2
    got = metric.nearest_samples(samples, points)
    want = cKDTree(samples).query(points)
    for k, pt in enumerate(points):
        dist, first, tied = _nearest_oracle(samples, pt)
        # the nearest sample, ties to the lowest index
        assert got[0][k] == dist and got[1][k] == first
        if dim < 8:
            # the tree sums squares in axis order too, up to seven axes
            assert got[0][k] == want[0][k]
            if len(tied) == 1:
                assert got[1][k] == want[1][k]
