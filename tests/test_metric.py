import dataclasses
import functools
import math
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import cKDTree

from ifscert import metric
from ifscert.continua import build_P, build_needle
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

from _oracles import chain_bruteforce, chain_profiles_reference
from test_cli import _subprocess_env


def _segment_cloud(pitch: float) -> PointCloud:
    line = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
    return sample_polyline(line, pitch)


def graph_edges(graph) -> dict:
    """``{(i, j): hop}`` over the graph's edges, ``i < j`` indices into its cloud."""
    m = graph.matrix().tocoo()
    a, b = graph.order[m.row], graph.order[m.col]
    return {(int(min(i, j)), int(max(i, j))): w for i, j, w in zip(a, b, m.data.tolist())}


def test_hausdorff_matches_double_loop():
    rng = np.random.default_rng(7)
    a = PointCloud(rng.uniform(size=(40, 2)), 0.1)
    b = PointCloud(rng.uniform(size=(50, 2)), 0.1)
    d_ab = max(min(np.linalg.norm(p - q) for q in b.points) for p in a.points)
    d_ba = max(min(np.linalg.norm(p - q) for q in a.points) for p in b.points)
    assert hausdorff(a, b) == pytest.approx(max(d_ab, d_ba), rel=1e-12)


def test_hausdorff_refuses_a_gap_whose_square_overflows():
    origin = PointCloud(np.zeros((1, 2)), 1.0)
    assert hausdorff(origin, PointCloud(np.array([[1e150, 0.0]]), 1.0)) == 1e150
    with pytest.raises(ValueError, match="overflows"):
        hausdorff(origin, PointCloud(np.array([[1e200, 0.0]]), 1.0))


@pytest.mark.filterwarnings("ignore:epsilon")
def test_eps_graph_hops_strictly_below_epsilon():
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [2.5, 0.0]]), 0.5)
    assert graph_edges(eps_graph(cloud, 1.0)) == {}  # the gap of exactly 1.0 does not qualify
    edges = graph_edges(eps_graph(cloud, 1.0 + 1e-9))
    assert list(edges) == [(0, 1)]
    assert edges[0, 1] == pytest.approx(1.0)


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
        got = graph_edges(graph)
        want = _graph_oracle(points, epsilon)
        assert len(got) == graph.edge_count
        assert got.keys() == want.keys()
        for key, w in want.items():
            assert got[key] == pytest.approx(w, rel=1e-15, abs=0.0), key


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan])
def test_eps_graph_needs_a_positive_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon must be positive"):
        eps_graph(_segment_cloud(0.01), epsilon)


def test_eps_graph_warns_when_epsilon_hits_the_pitch():
    cloud = _segment_cloud(0.01)
    with pytest.warns(UserWarning, match="below"):
        eps_graph(cloud, 0.02)


def test_eps_graph_refuses_oversized_graphs():
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.uniform(size=(20000, 2)) * 0.01, 1e-4)
    with pytest.raises(ValueError, match="edges"):
        eps_graph(cloud, 1.0)


class _CountingTree(cKDTree):
    """A KD-tree that records its pair searches and pair counts."""

    calls: list[str] = []

    def count_neighbors(self, *args, **kwargs):
        self.calls.append("count_neighbors")
        return super().count_neighbors(*args, **kwargs)

    def query_pairs(self, *args, **kwargs):
        self.calls.append("query_pairs")
        return super().query_pairs(*args, **kwargs)


def _guarded_cloud():
    """A cloud whose sweep candidates outnumber its pairs within epsilon, and both counts."""
    rng = np.random.default_rng(11)
    points, epsilon = rng.uniform(size=(600, 2)), 0.08
    candidates = int(metric._sweep_ranges(points, epsilon)[2].sum())
    tree = cKDTree(points)
    exact = (tree.count_neighbors(tree, epsilon) - len(points)) // 2
    assert candidates > exact
    return PointCloud(points, 0.01), epsilon, candidates, exact


def test_eps_graph_within_budget_needs_no_kdtree_pair_search(monkeypatch):
    monkeypatch.setattr(metric, "cKDTree", _CountingTree)
    monkeypatch.setattr(_CountingTree, "calls", [])
    cloud, epsilon, candidates, exact = _guarded_cloud()
    monkeypatch.setattr(metric, "_MAX_EDGES", candidates)
    graph = eps_graph(cloud, epsilon)
    assert graph.edge_count == exact
    assert _CountingTree.calls == []
    assert graph.matrix() is graph.matrix()  # stored, not rebuilt


def test_chain_profiles_build_no_kdtree_within_the_budget(monkeypatch):
    # the query points are snapped by an exact scan, not through a tree
    built = []

    class _RecordingTree(cKDTree):
        def __init__(self, *args, **kwargs):
            built.append(len(args[0]))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(metric, "cKDTree", _RecordingTree)
    chain_profiles(build_needle(), [("far", "h(p)"), ("h(p)", "far")], 0.1, 2)
    # p0 ties: the refined union holds one copy of the origin per piece
    chain_profiles(build_P(3), [("p0", "p1")], 0.1, 1)
    assert built == []


def test_eps_graph_counts_exactly_when_the_candidates_exceed_the_budget(monkeypatch):
    monkeypatch.setattr(metric, "cKDTree", _CountingTree)
    monkeypatch.setattr(_CountingTree, "calls", [])
    cloud, epsilon, candidates, exact = _guarded_cloud()
    # over the budget by the candidate bound, within it by the exact count
    monkeypatch.setattr(metric, "_MAX_EDGES", exact)
    graph = eps_graph(cloud, epsilon)
    assert graph.edge_count == exact
    assert _CountingTree.calls == ["count_neighbors"]
    # over the budget by the exact count: refused with that count
    monkeypatch.setattr(metric, "_MAX_EDGES", exact - 1)
    message = f"epsilon graph would have about {exact:.2g} edges (limit {exact - 1:.2g})"
    with pytest.raises(ValueError, match=re.escape(message)):
        eps_graph(cloud, epsilon)


def _assert_same_csr(got, want):
    """The CSR arrays of ``got`` and ``want`` are equal bit for bit."""
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))


def _one_chunk_csr(monkeypatch, points, epsilon):
    """The sweep of ``points`` in one chunk, in the calling thread."""
    order, starts, lengths = metric._sweep_ranges(points, epsilon)
    with monkeypatch.context() as patch:
        patch.setattr(metric, "_SWEEP_CHUNK", 1 << 62)
        patch.setattr(metric, "_query_workers", lambda: 1)
        return metric._sweep_csr(points[order], epsilon, starts, lengths)


@functools.cache
def _stitch_case():
    """A random cloud with a duplicate point (a zero-length hop), its epsilon and its oracle."""
    rng = np.random.default_rng(20261020)
    points = rng.uniform(size=(400, 2))
    points = np.vstack([points, points[:1]])
    return points, 0.2, _graph_oracle(points, 0.2)


@pytest.fixture
def fast_switching():
    """Switch threads every microsecond, so that workers interleave as often as they can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_sweep_chunks_stitch_bit_for_bit(monkeypatch, fast_switching, chunk, workers):
    # three workers are more threads than a two-core machine has cores
    points, epsilon, oracle = _stitch_case()
    want = _one_chunk_csr(monkeypatch, points, epsilon)
    order, starts, lengths = metric._sweep_ranges(points, epsilon)
    assert lengths.sum() > 3 * 4096  # even the largest chunk cuts the sweep several times
    monkeypatch.setattr(metric, "_SWEEP_CHUNK", chunk)
    monkeypatch.setattr(metric, "_query_workers", lambda: workers)
    _assert_same_csr(metric._sweep_csr(points[order], epsilon, starts, lengths), want)
    graph = eps_graph(PointCloud(points, 0.01), epsilon)
    _assert_same_csr(graph.matrix(), want)
    got = graph_edges(graph)
    assert got.keys() == oracle.keys()
    for key, w in oracle.items():
        assert got[key] == pytest.approx(w, rel=1e-15, abs=0.0), key


def test_sweep_buffers_grow_past_the_budget(monkeypatch):
    cloud, epsilon, _, exact = _guarded_cloud()
    want = _one_chunk_csr(monkeypatch, cloud.points, epsilon)
    monkeypatch.setattr(metric, "_MAX_EDGES", 1)
    order, starts, lengths = metric._sweep_ranges(cloud.points, epsilon)
    # one chunk, then many: the buffers grow while chunks are stitched
    for chunk, workers in [(1 << 62, 1), (7, 1), (7, 2), (7, 3)]:
        monkeypatch.setattr(metric, "_SWEEP_CHUNK", chunk)
        monkeypatch.setattr(metric, "_query_workers", lambda: workers)
        got = metric._sweep_csr(cloud.points[order], epsilon, starts, lengths)
        assert got.nnz == exact
        _assert_same_csr(got, want)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_eps_graph_keeps_hops_whose_squares_underflow(dim):
    # 3e-161 squared is subnormal and rounds down, so the computed hop is
    # shorter than its one nonzero coordinate gap
    points = np.zeros((2, dim))
    points[1, -1] = 3e-161
    hop = float(np.sqrt(np.einsum("ij,ij->i", points[1:], points[1:]))[0])
    epsilon = 2.9995e-161
    assert hop < epsilon < points[1, -1]
    graph = eps_graph(PointCloud(points, 1e-170), epsilon)
    assert graph_edges(graph) == {(0, 1): hop}


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


def test_chain_distance_refuses_an_epsilon_whose_hops_could_overflow():
    # the hop of 2e154 is below epsilon, but its square overflows, so a graph
    # at this epsilon would drop it and read the points as disconnected
    cloud = PointCloud(np.array([[0.0, 0.0], [2e154, 0.0]]), 1e153)
    with pytest.raises(ValueError, match="above 2\\*\\*510"):
        chain_distance(cloud, (0.0, 0.0), (2e154, 0.0), 1e155)
    assert chain_distance(cloud, (0.0, 0.0), (2e154, 0.0), 2.0 ** 510) == np.inf
    near = PointCloud(np.array([[0.0, 0.0], [2e152, 0.0]]), 1e152)
    assert chain_distance(near, (0.0, 0.0), (2e152, 0.0), 2.0 ** 510) == 2e152


def test_nearest_samples_refuses_a_gap_whose_square_overflows():
    samples = np.array([[1e200, 0.0], [2e200, 0.0]])
    assert metric.nearest_samples(samples, np.array([[2e200, 1.0]]))[0].tolist() == [1.0]
    with pytest.raises(ValueError, match="overflows"):
        metric.nearest_samples(samples, np.zeros((1, 2)))


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


class _RecordingPool:
    """A thread pool that keeps every future it hands out."""

    def __init__(self, workers):
        self.pool = ThreadPoolExecutor(workers)
        self.futures = []

    def submit(self, fn, *args):
        self.futures.append(self.pool.submit(fn, *args))
        return self.futures[-1]


@pytest.fixture
def recording_pool(monkeypatch):
    """Route the pool work through a :class:`_RecordingPool` of two workers."""
    pool = _RecordingPool(2)
    monkeypatch.setattr(metric, "_pool", lambda workers: pool)
    yield pool
    pool.pool.shutdown(wait=True)


@pytest.fixture(params=[1, 2], ids=["1-worker", "2-workers"])
def workers(request, monkeypatch, recording_pool):
    """Run with one CPU or two; one CPU never touches the pool."""
    monkeypatch.setattr(metric, "_query_workers", lambda: request.param)
    yield request.param
    assert bool(recording_pool.futures) == (request.param > 1)


@pytest.mark.parametrize(("build", "pairs", "eps0", "k_max"), [
    (build_needle, [("far", "h(p)"), ("h(p)", "far")], 0.1, 4),
    (lambda: build_P(3), [("p1", "p2"), ("p0", "p3")], 0.1, 2),
], ids=["needle", "P3"])
def test_prefetched_profiles_match_the_kdtree_reference(workers, build, pairs, eps0, k_max):
    got = np.array([p.values for p in chain_profiles(build(), pairs, eps0, k_max)])
    assert np.array_equal(got, chain_profiles_reference(build(), pairs, eps0, k_max))


def _fragile_model(finest: float, calls: list, failing: threading.Event) -> ContinuumModel:
    """The segment model, whose sampler refuses pitches below ``finest``, slowly."""
    model = _segment_model()

    def sampler(delta):
        calls.append(delta)
        if delta < finest:
            failing.set()
            time.sleep(0.2)  # still running when a coarser scale fails, unless waited for
            raise ValueError(f"pitch {delta:g} is below {finest:g}")
        return model.refine(delta)

    return dataclasses.replace(model, sampler=sampler)


def test_a_refinement_error_surfaces_at_its_own_scale(monkeypatch, workers, recording_pool):
    built = []
    monkeypatch.setattr(metric, "eps_graph", lambda cloud, eps: built.append(eps) or eps_graph(cloud, eps))
    calls = []
    # pitches 0.04, 0.02, 0.01, 0.005, 0.0025: the fourth is refused
    with pytest.raises(ValueError, match=re.escape("pitch 0.005 is below 0.008")):
        chain_profiles(_fragile_model(0.008, calls, threading.Event()), [("a", "b")], 0.4, 4)
    assert built == [0.4, 0.2, 0.1]
    assert calls == [0.04, 0.02, 0.01, 0.005]
    assert all(f.done() for f in recording_pool.futures)


def test_a_refused_graph_wins_over_a_later_refinement_error(monkeypatch, workers, recording_pool):
    monkeypatch.setattr(metric, "_MAX_EDGES", 1)
    calls, failing = [], threading.Event()

    def graph_while_refining(cloud, eps):
        # with two workers, scale 1's failing refinement is under way when scale 0 is refused
        assert workers == 1 or failing.wait(timeout=30)
        return eps_graph(cloud, eps)

    monkeypatch.setattr(metric, "eps_graph", graph_while_refining)
    with pytest.raises(ValueError, match="epsilon graph would have about"):
        chain_profiles(_fragile_model(0.03, calls, failing), [("a", "b")], 0.4, 4)
    assert calls == [0.04, 0.02][:workers]
    assert all(f.done() for f in recording_pool.futures)


_FORK_AFTER_THE_POOL = """
import os, signal, sys
from ifscert import metric
from ifscert.continua import build_needle
metric._query_workers = lambda: 2
want = metric.chain_profile(build_needle(), "far", "h(p)", 0.1, 1).values
pid = os.fork()
if pid == 0:  # the child has no pool threads: it must make its own
    signal.alarm(60)  # a child left waiting on the parent's pool ends here
    got = metric.chain_profile(build_needle(), "far", "h(p)", 0.1, 1).values
    os._exit(0 if (got == want).all() else 1)
_, status = os.waitpid(pid, 0)
sys.exit(os.waitstatus_to_exitcode(status))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_gets_a_pool_of_its_own():
    run = subprocess.run([sys.executable, "-c", _FORK_AFTER_THE_POOL], env=_subprocess_env(), timeout=120)
    assert run.returncode == 0


def test_needle_profile_values_are_pinned_bit_for_bit():
    profile = chain_profile(build_needle(), "far", "h(p)", eps0=0.1, k_max=8)
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
