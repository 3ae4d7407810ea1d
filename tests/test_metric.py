import math
from fractions import Fraction

import numpy as np
import pytest

from ifscert.continua import build_needle
from ifscert.geometry import ContinuumModel, PointCloud, Polyline, sample_polyline
from ifscert.metric import (
    chain_distance,
    chain_distance_on_graph,
    chain_profile,
    chain_profiles,
    eps_graph,
    hausdorff,
    monotonicity_check,
)

from _oracles import chain_bruteforce


def _segment_cloud(pitch: float) -> PointCloud:
    line = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
    return sample_polyline(line, pitch)


def test_hausdorff_matches_double_loop():
    rng = np.random.default_rng(7)
    a = PointCloud(rng.uniform(size=(40, 2)), 0.1)
    b = PointCloud(rng.uniform(size=(50, 2)), 0.1)
    d_ab = max(min(np.linalg.norm(p - q) for q in b.points) for p in a.points)
    d_ba = max(min(np.linalg.norm(p - q) for q in a.points) for p in b.points)
    assert hausdorff(a, b) == pytest.approx(max(d_ab, d_ba), rel=1e-12)


@pytest.mark.filterwarnings("ignore:epsilon")
def test_eps_graph_hops_strictly_below_epsilon():
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [2.5, 0.0]]), 0.5)
    graph = eps_graph(cloud, 1.0)
    assert len(graph.edges) == 0  # the gap of exactly 1.0 does not qualify
    graph = eps_graph(cloud, 1.0 + 1e-9)
    assert [tuple(e) for e in graph.edges] == [(0, 1)]
    assert graph.weights[0] == pytest.approx(1.0)


def _graph_oracle(points, epsilon):
    """Every pair i < j whose exact distance is below ``epsilon``, with its length."""
    eps2 = Fraction(epsilon) ** 2
    edges = {}
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d2 = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(points[i], points[j]))
            if d2 < eps2:
                edges[(i, j)] = math.dist(points[i], points[j])
    return edges


@pytest.mark.filterwarnings("ignore:epsilon")
def test_eps_graph_matches_all_pairs_oracle():
    rng = np.random.default_rng(20261018)
    grid = np.stack(np.meshgrid(np.arange(6.0), np.arange(5.0)), axis=-1).reshape(-1, 2)
    clouds = [
        # lattice: hops of exactly 1 and 2 are left out, diagonals kept or not
        (grid, 1.0), (grid, 2.0), (grid, 1.5), (grid * 0.25, 0.25),
        # random clouds with a duplicate point (a zero-length hop)
        *[(np.vstack([p, p[:1]]), eps) for p, eps in
          ((rng.uniform(size=(150, 2)), 0.12), (rng.uniform(size=(120, 3)), 0.3))],
    ]
    for points, epsilon in clouds:
        graph = eps_graph(PointCloud(points, 0.01), epsilon)
        got = {(int(i), int(j)): w for (i, j), w in zip(graph.edges, graph.weights)}
        want = _graph_oracle(points, epsilon)
        assert len(got) == len(graph.edges)
        assert got.keys() == want.keys()
        for key, w in want.items():
            assert got[key] == pytest.approx(w, rel=1e-15, abs=0.0), key


def test_eps_graph_warns_when_epsilon_hits_the_pitch():
    cloud = _segment_cloud(0.01)
    with pytest.warns(UserWarning, match="below"):
        eps_graph(cloud, 0.02)


def test_eps_graph_refuses_oversized_graphs():
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.uniform(size=(20000, 2)) * 0.01, 1e-4)
    with pytest.raises(ValueError, match="edges"):
        eps_graph(cloud, 1.0)


def test_chain_distance_on_segment():
    cloud = _segment_cloud(1e-3)
    d = chain_distance(cloud, [0.0, 0.0], [1.0, 0.0], 1e-2)
    assert d == pytest.approx(1.0, abs=2e-3)


@pytest.mark.filterwarnings("ignore:epsilon")
def test_chain_distance_disconnected_is_inf():
    cloud = PointCloud(np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0], [5.1, 0.0]]), 0.1)
    assert chain_distance(cloud, [0.0, 0.0], [5.1, 0.0], 0.2) == np.inf


def test_chain_distance_snap_rejects_faraway_points():
    cloud = _segment_cloud(1e-3)
    with pytest.raises(ValueError, match="away from the cloud"):
        chain_distance(cloud, [0.0, 0.5], [1.0, 0.0], 1e-2)


@pytest.mark.filterwarnings("ignore:epsilon")
def test_chain_distance_matches_bruteforce_on_random_clouds():
    rng = np.random.default_rng(20240818)
    for case in range(20):
        pts = rng.uniform(size=(120, 2))
        cloud = PointCloud(pts, 0.2)
        eps = rng.uniform(0.08, 0.3)
        i, j = rng.integers(0, len(pts), size=2)
        got = chain_distance(cloud, pts[i], pts[j], eps)
        want = chain_bruteforce(pts, int(i), int(j), eps)
        if np.isinf(want):
            assert np.isinf(got), f"case {case}"
        else:
            assert got == pytest.approx(want, rel=1e-10), f"case {case}"


def test_chain_distance_on_graph_reuses_graph():
    cloud = _segment_cloud(1e-2)
    graph = eps_graph(cloud, 5e-2)
    d1 = chain_distance_on_graph(graph, [0.0, 0.0], [1.0, 0.0])
    d2 = chain_distance(cloud, [0.0, 0.0], [1.0, 0.0], 5e-2)
    assert d1 == d2


def _segment_model() -> ContinuumModel:
    line = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
    return ContinuumModel((line,), {"a": np.zeros(2), "b": np.array([1.0, 0.0])}, 2)


def test_chain_profile_on_segment_converges_to_length():
    profile = chain_profile(_segment_model(), "a", "b", 0.02, 3)
    assert profile.verdict == "converges"
    assert profile.limit == pytest.approx(1.0, abs=2e-3)
    assert len(profile.epsilons) == 4
    assert np.all(np.diff(profile.epsilons) < 0)
    assert "converges" in profile.summary()


def test_chain_profile_resolves_coordinates_too():
    profile = chain_profile(_segment_model(), [0.0, 0.0], [1.0, 0.0], 0.02, 2)
    assert profile.verdict == "converges"


def _marked_path_model() -> ContinuumModel:
    line = Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.3, 1.2]]))
    marks = {"a": [0.0, 0.0], "b": [1.0, 0.0], "c": [1.0, 0.6], "d": [0.3, 1.2]}
    return ContinuumModel((line,), {k: np.array(v) for k, v in marks.items()}, 2)


@pytest.mark.parametrize("pairs", [
    [("a", "d"), ("a", "c"), ("a", "a")],        # one shared source
    [("a", "b"), ("c", "d"), ("d", "c"), ("b", "b")],  # distinct sources
])
def test_chain_profiles_equal_separate_profiles(pairs):
    model = _marked_path_model()
    together = chain_profiles(model, pairs, 0.05, 4, pitch_ratio=8.0)
    assert len(together) == len(pairs)
    for (x, y), got in zip(pairs, together):
        alone = chain_profile(model, x, y, 0.05, 4, pitch_ratio=8.0)
        assert np.array_equal(got.values, alone.values)
        assert np.array_equal(got.epsilons, alone.epsilons)
        assert np.array_equal(got.pitches, alone.pitches)
        assert (got.verdict, got.slope, got.limit, got.note) == (
            alone.verdict, alone.slope, alone.limit, alone.note)


# criterion 2's profile, far end to attachment point, as the parent of the
# shared-graph rewrite computed it
_CRITERION_2_VALUES = [
    "0x1.eaf20a213e079p+0", "0x1.278801030e6ebp+1", "0x1.6f79a1bd18021p+1",
    "0x1.c80d94340e34bp+1", "0x1.17ed53c7bad85p+2", "0x1.56ab0bfb7ccbep+2",
    "0x1.a1c63cd229b1ep+2", "0x1.fbb92d3b3da15p+2", "0x1.3373f899b6a9bp+3",
]


def test_needle_profile_values_are_pinned_bit_for_bit():
    profile = chain_profile(build_needle().image, "far", "h(p)", eps0=0.1, k_max=8)
    assert [float(v).hex() for v in profile.values] == _CRITERION_2_VALUES
    assert profile.verdict == "diverges"


@pytest.mark.parametrize("kwargs", [
    {"eps0": math.nan}, {"eps0": math.inf}, {"eps0": 0.0},
    {"pitch_ratio": math.nan}, {"pitch_ratio": math.inf}, {"pitch_ratio": 2.0},
])
def test_chain_profiles_reject_bad_schedules(kwargs):
    args = {"eps0": 0.02, "k_max": 2, "pitch_ratio": 10.0, **kwargs}
    with pytest.raises(ValueError, match="eps0|pitch_ratio"):
        chain_profiles(_segment_model(), [("a", "b")], **args)


def test_chain_profile_disconnected_is_inconclusive():
    a = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
    b = Polyline(np.array([[0.0, 5.0], [1.0, 5.0]]))
    model = ContinuumModel((a, b), {"a": np.zeros(2), "b": np.array([1.0, 5.0])}, 2)
    profile = chain_profile(model, "a", "b", 0.02, 2)
    assert profile.verdict == "inconclusive"
    assert "disconnected" in profile.note
    assert np.isinf(profile.values).all()


@pytest.mark.filterwarnings("ignore:epsilon")
def test_monotonicity_sub_cloud_distances_dominate():
    rng = np.random.default_rng(5)
    pts = rng.uniform(size=(300, 2))
    sup = PointCloud(pts, 0.15)
    sub = PointCloud(pts[:150], 0.15)
    result = monotonicity_check(sub, sup, pts[0], pts[1], 0.2)
    assert result.ok
    assert result.subset_value >= result.superset_value - 1e-12


def test_monotonicity_rejects_non_contained_clouds():
    sub = PointCloud(np.array([[0.0, 0.0], [2.0, 2.0]]), 0.5)
    sup = PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]), 0.5)
    with pytest.raises(ValueError, match="not contained in"):
        monotonicity_check(sub, sup, [0.0, 0.0], [1.0, 1.0], 0.5)
