"""Property tests: the sweep in ``eps_graph`` keeps exactly the hops below epsilon.

Three oracles. On dyadic lattices every hop length and its comparison with
epsilon are exact, so the graph must equal ``_graph_oracle``'s, computed in
rational arithmetic: pairs exactly epsilon apart are left out, whether they
sit in one cell of the sweep or straddle two. On arbitrary float clouds the
graph must equal, bit for bit, the all-pairs evaluation of the same
floating-point hop length. And whole chain profiles must equal
``_oracles.chain_profiles_reference``, which takes its pairs from the
KD-tree and builds its matrix from COO triples. The clouds are 1-D, 2-D and
3-D, with duplicate points, points on the cell boundaries, negative
coordinates and coordinates offset by 1e6, and as few as one point.
"""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifscert.continua import build_needle
from ifscert.geometry import ContinuumModel, PointCloud, Polyline
from ifscert.metric import chain_profiles, eps_graph

from _oracles import chain_profiles_reference
from test_metric import _graph_oracle

SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.sampled_from([1, 2, 3])
PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def _graph(points, epsilon):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # epsilon may be below three pitches
        graph = eps_graph(PointCloud(points, 1e-3), epsilon)
    got = dict(zip(map(tuple, graph.edges.tolist()), graph.weights.tolist()))
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
def polyline_models(draw):
    """A random open polyline in 2-D or 3-D, marked at both ends and at a middle vertex."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(SEEDS))
    vertices = np.cumsum(rng.normal(size=(n, dim)) * 0.3, axis=0)
    marked = {"a": vertices[0], "b": vertices[-1], "c": vertices[n // 2]}
    return ContinuumModel((Polyline(vertices),), marked, dim)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(polyline_models(), st.sampled_from([0.1, 0.2, 0.35]), st.integers(0, 3),
       st.sampled_from([3.0, 10.0]))
def test_chain_profiles_match_the_kdtree_reference(model, eps0, k_max, pitch_ratio):
    pairs = [("a", "b"), ("c", "a"), ("b", "b")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = np.array([p.values for p in chain_profiles(model, pairs, eps0, k_max, pitch_ratio)])
    want = chain_profiles_reference(model, pairs, eps0, k_max, pitch_ratio)
    assert np.array_equal(got, want)


def test_needle_profile_matches_the_kdtree_reference():
    pairs = [("far", "h(p)"), ("h(p)", "far")]
    got = np.array([p.values for p in chain_profiles(build_needle(), pairs, 0.1, 4)])
    assert np.array_equal(got, chain_profiles_reference(build_needle(), pairs, 0.1, 4))
