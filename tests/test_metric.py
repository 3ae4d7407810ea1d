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

from ifscert import continua, geometry, metric
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


def test_hausdorff_passes_share_the_attractors_tree_shape(monkeypatch):
    # one tree a pass, over the other cloud's frozen points, with the leaf
    # size and sliding-midpoint splits of the attractor's passes
    built = []

    class Recording(cKDTree):
        def __init__(self, data, **kwargs):
            super().__init__(data, **kwargs)
            built.append((len(data), self.leafsize, kwargs.get("balanced_tree"), np.shares_memory(self.data, data)))

    monkeypatch.setattr(metric, "cKDTree", Recording)
    rng = np.random.default_rng(3)
    a, b = PointCloud(rng.uniform(size=(300, 2)), 0.1), PointCloud(rng.uniform(size=(200, 2)), 0.1)
    hausdorff(a, b, witness=True)
    assert built == [(200, metric._LEAF, False, True), (300, metric._LEAF, False, True)]


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
    """The sweep of ``points`` in one chunk."""
    order, starts, lengths = metric._sweep_ranges(points, epsilon)
    with monkeypatch.context() as patch:
        patch.setattr(metric, "_SWEEP_CHUNK", 1 << 62)
        return metric._sweep_csr(points[order], epsilon, starts, lengths)


@functools.cache
def _stitch_case(dim):
    """A random cloud with a duplicate point (a zero-length hop), its epsilon and its oracle.

    The sweep cuts ``dim - 1`` axes (at most 2), so a row of candidates has
    1, 2 or 5 ranges.
    """
    rng = np.random.default_rng(20261020)
    points = rng.uniform(size=(400, dim))
    points = np.vstack([points, points[:1]])
    epsilon = 0.3 if dim == 3 else 0.2
    return points, epsilon, _graph_oracle(points, epsilon)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_sweep_chunks_stitch_bit_for_bit(monkeypatch, chunk, dim):
    points, epsilon, oracle = _stitch_case(dim)
    want = _one_chunk_csr(monkeypatch, points, epsilon)
    order, starts, lengths = metric._sweep_ranges(points, epsilon)
    assert lengths.sum() > 3 * 4096  # even the largest chunk cuts the sweep several times
    monkeypatch.setattr(metric, "_SWEEP_CHUNK", chunk)
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
    for chunk in [1 << 62, 7]:
        monkeypatch.setattr(metric, "_SWEEP_CHUNK", chunk)
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
    together = chain_profiles(model, pairs, 0.05, 4)
    assert len(together) == len(pairs)
    for (x, y), got in zip(pairs, together):
        alone = chain_profile(model, x, y, 0.05, 4)
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
    """A one-thread pool, as the module's, that keeps every future it hands out."""

    def __init__(self):
        self.pool = ThreadPoolExecutor(1)
        self.futures = []

    def submit(self, fn, *args):
        self.futures.append(self.pool.submit(fn, *args))
        return self.futures[-1]


@pytest.fixture
def recording_pool(monkeypatch):
    """Route the pool work through a :class:`_RecordingPool`."""
    pool = _RecordingPool()
    monkeypatch.setattr(metric, "_pool", lambda: pool)
    yield pool
    pool.pool.shutdown(wait=True)


@pytest.fixture(params=[1, 2], ids=["1-worker", "2-workers"])
def workers(request, monkeypatch, recording_pool):
    """Report one CPU or two: a profile and its errors may not depend on the count.

    The look-ahead refinement runs on the one pool thread either way.
    """
    monkeypatch.setattr(metric, "_query_workers", lambda: request.param)
    yield request.param
    assert recording_pool.futures


def test_eps_graph_submits_no_pool_job(monkeypatch, recording_pool):
    points, epsilon, _ = _stitch_case(2)
    monkeypatch.setattr(metric, "_SWEEP_CHUNK", 7)  # many chunks, all measured in this thread
    want = _one_chunk_csr(monkeypatch, points, epsilon)
    _assert_same_csr(eps_graph(PointCloud(points, 0.01), epsilon).matrix(), want)
    assert recording_pool.futures == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ordered_map_yields_in_order_from_a_bounded_window(monkeypatch, recording_pool, seed):
    delays = np.random.default_rng(seed).uniform(0, 0.01, size=12)

    def job(k):
        time.sleep(delays[k])  # jobs of uneven length
        return k

    got, window = [], []
    submit = recording_pool.submit

    def counting_submit(fn, *args):
        future = submit(fn, *args)
        # every future not yet taken by the caller is unfinished or waiting to be taken
        window.append(len(recording_pool.futures) - len(got))
        return future

    monkeypatch.setattr(recording_pool, "submit", counting_submit)
    for value in metric._ordered_map(job, [(k,) for k in range(12)]):
        got.append(value)
    assert got == list(range(12))
    assert max(window) == 2  # one job ahead of the result the caller holds, never more


def test_closing_an_ordered_map_early_settles_every_job(recording_pool):
    def job(k):
        time.sleep(0.05)
        return k

    jobs = metric._ordered_map(job, [(k,) for k in range(10)])
    assert next(jobs) == 0
    jobs.close()
    assert len(recording_pool.futures) == 2
    assert all(f.done() for f in recording_pool.futures)


def test_an_ordered_map_raises_a_job_error_at_its_turn(recording_pool):
    def job(k):
        if k == 1:
            time.sleep(0.1)  # the caller waits for job 1 before job 2 is submitted
        if k == 2:
            raise ValueError("job 2 failed")
        return k

    got = []
    with pytest.raises(ValueError, match="job 2 failed"):
        for value in metric._ordered_map(job, [(k,) for k in range(8)]):
            got.append(value)
    assert got == [0, 1]
    # job 2 was submitted while job 1 was taken, and none after the error
    assert len(recording_pool.futures) == 3
    assert all(f.done() for f in recording_pool.futures)


@pytest.mark.parametrize(("build", "pairs", "eps0", "k_max"), [
    (build_needle, [("far", "h(p)"), ("h(p)", "far")], 0.1, 4),
    (lambda: build_P(3), [("p1", "p2"), ("p0", "p3")], 0.1, 2),
], ids=["needle", "P3"])
def test_prefetched_profiles_match_the_kdtree_reference(workers, recording_pool, build, pairs, eps0, k_max):
    got = np.array([p.values for p in chain_profiles(build(), pairs, eps0, k_max)])
    assert np.array_equal(got, chain_profiles_reference(build(), pairs, eps0, k_max))
    assert recording_pool.futures


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
    assert recording_pool.futures
    assert all(f.done() for f in recording_pool.futures)


def test_a_refused_graph_wins_over_a_later_refinement_error(monkeypatch, workers, recording_pool):
    monkeypatch.setattr(metric, "_MAX_EDGES", 1)
    calls, failing = [], threading.Event()

    def graph_while_refining(cloud, eps):
        # scale 1's failing refinement is under way when scale 0 is refused
        assert failing.wait(timeout=30)
        return eps_graph(cloud, eps)

    monkeypatch.setattr(metric, "eps_graph", graph_while_refining)
    with pytest.raises(ValueError, match="epsilon graph would have about"):
        chain_profiles(_fragile_model(0.03, calls, failing), [("a", "b")], 0.4, 4)
    assert calls == [0.04, 0.02]
    assert recording_pool.futures
    assert all(f.done() for f in recording_pool.futures)


_FORK_AFTER_THE_POOL = """
import os, signal, sys
from ifscert import metric
from ifscert.continua import build_needle
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
    {"k_max": -1}, {"eps0": -1.0}, {"eps0": -math.inf},
])
def test_chain_profiles_reject_bad_schedules(kwargs):
    args = {"eps0": 0.02, "k_max": 2, **kwargs}
    with pytest.raises(ValueError, match="eps0"):
        chain_profiles(_segment_model(), [("a", "b")], **args)


@pytest.mark.parametrize(("eps0", "k_max", "finest"), [
    (0.1, 1069, None), (1e-300, 100, None), (0.1, 1068, 5e-324),
])
def test_chain_profiles_refuse_a_finest_pitch_that_underflows(eps0, k_max, finest):
    calls = []

    def sampler(delta):
        calls.append(delta)
        raise ValueError(f"sampled at pitch {delta:g}")

    model = dataclasses.replace(_segment_model(), sampler=sampler)
    message = "underflows to 0" if finest is None else "sampled at pitch"
    with pytest.raises(ValueError, match=message):
        chain_profiles(model, [("a", "b")], eps0, k_max)
    # refused before any refinement; a subnormal finest pitch still gets the schedule
    assert calls == ([] if finest is None else [eps0 / 10])
    assert eps0 * 0.5 ** k_max / 10 == (finest or 0.0)


def _refusing_sampler(calls: list, finest: float):
    """A sampler that records its calls and bounds a pitch below ``finest`` past the sample cap."""
    def sampler(delta):
        calls.append(delta)
        return _segment_model().refine(delta)

    sampler.sample_bound = lambda delta: 2.0 * geometry._MAX_SAMPLE_POINTS if delta < finest else 2.0
    return sampler


@pytest.mark.parametrize("case", ["sampler", "needle", "polyline"])
def test_chain_profiles_refuse_a_finest_refinement_past_the_cap_before_refining(monkeypatch, case):
    calls = []

    def recorder(delta):
        calls.append(delta)
        raise AssertionError(f"refined at pitch {delta:g}")

    if case == "sampler":
        model = dataclasses.replace(_segment_model(), sampler=_refusing_sampler(calls, 1e-4))
        pairs, eps0, k_max, finest, samples = [("a", "b")], 0.02, 5, 6.25e-05, 4e7
    elif case == "needle":  # the needle sampler's own bound, through its model
        model = build_needle()
        monkeypatch.setattr(continua, "_needle_zone_points", recorder)
        pairs, eps0, k_max, finest, samples = [("far", "h(p)")], 0.1, 12, 2.44141e-06, 2.35e7
    else:  # a polyline's count, 1 / pitch + 1
        model = _segment_model()
        monkeypatch.setattr(geometry, "sample_polyline", recorder)
        pairs, eps0, k_max, finest, samples = [("a", "b")], 0.02, 40, 1.81899e-15, 5.5e14
    message = (f"the finest pitch {finest:g} of eps0={eps0:g} with k_max={k_max} needs {samples:.3g} samples, "
               f"above {geometry._MAX_SAMPLE_POINTS}; use a larger eps0 or a smaller k_max")
    with pytest.raises(ValueError, match=re.escape(message)):
        chain_profiles(model, pairs, eps0, k_max)
    assert calls == []  # the coarse scales were not refined first


def test_a_one_scale_schedule_is_left_to_its_refinement():
    # nothing is refined before the one scale's refinement, which refuses in its own words
    calls = []
    model = dataclasses.replace(_segment_model(), sampler=_refusing_sampler(calls, 1e-4))
    profile = chain_profile(model, "a", "b", 0.02, 0)
    assert calls == [0.002] and profile.values.tolist() == [1.0]


def test_the_sample_bound_is_the_count_each_sampler_refuses_on():
    needle, segment = build_needle(), _segment_model()
    for delta in (1e-2, 1e-4):
        assert needle.sample_bound(delta) >= len(needle.refine(delta))
        assert segment.sample_bound(delta) == len(segment.refine(delta))
    for delta in (5e-6, 1e-14, 1e-300, 5e-324):
        assert needle.sample_bound(delta) > geometry._MAX_SAMPLE_POINTS
        with pytest.raises(ValueError, match="^needle refinement too fine; raise delta$"):
            needle.refine(delta)
    for delta in (5e-8, 1e-300):
        assert segment.sample_bound(delta) > geometry._MAX_SAMPLE_POINTS
        with pytest.raises(ValueError, match="polyline sampling too fine"):
            segment.refine(delta)
    assert dataclasses.replace(segment, sampler=segment.refine).sample_bound(1e-300) == 0


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
