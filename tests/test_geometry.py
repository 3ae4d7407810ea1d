import warnings

import numpy as np
import pytest

import ifscert.geometry
from ifscert.continua import build_zigzag_ln
from ifscert.geometry import (
    DEFAULT_INTERSECT_TOL,
    ContinuumModel,
    PointCloud,
    Polyline,
    _angle_key,
    _candidate_pairs,
    _cross_mask_2d,
    _segment_distance_batch,
    polar_to_cartesian,
    polyline_length,
    sample_polyline,
    self_intersects,
)

from _oracles import angle_key_strided, self_intersects_allpairs


def test_polyline_rejects_degenerate_input():
    with pytest.raises(ValueError):
        Polyline(np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        Polyline(np.array([[0.0, 0.0], [np.nan, 1.0]]))
    with pytest.raises(ValueError):
        Polyline(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]), closed=True)


def test_polyline_vertices_are_read_only():
    line = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        line.vertices[0, 0] = 5.0


def test_polyline_length_known_shapes():
    diag = Polyline(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert polyline_length(diag) == pytest.approx(np.sqrt(2.0), rel=1e-15)
    square = Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), closed=True)
    assert polyline_length(square) == pytest.approx(4.0, rel=1e-15)
    open_square = Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert polyline_length(open_square) == pytest.approx(3.0, rel=1e-15)


def test_sample_polyline_pitch_and_order():
    line = Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]]))
    cloud = sample_polyline(line, 0.05)
    pts = cloud.points
    gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert gaps.max() <= 0.05 + 1e-12
    assert np.array_equal(pts[0], [0.0, 0.0])
    assert np.array_equal(pts[-1], [1.0, 2.0])
    # samples visit the line in path order: cumulative progress never decreases
    seg1 = pts[pts[:, 1] == 0.0]
    assert np.all(np.diff(seg1[:, 0]) > 0)
    seg2 = pts[pts[:, 0] == 1.0]
    assert np.all(np.diff(seg2[:, 1]) > 0)


def test_segments_whose_squares_overflow_are_refused():
    # the distance kernels square their gaps, so a segment whose square overflows
    # is refused with one error, not sampled into gaps that read inf
    line = Polyline(np.array([[0.0, 0.0], [1e300, 1e300]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^polyline segment too long: its squared length overflows$"):
            sample_polyline(line, 1e298)


def test_sample_polyline_keeps_vertices():
    vertices = np.array([[0.0, 0.0], [0.3, 0.7], [1.0, 0.1], [2.0, 2.0]])
    cloud = sample_polyline(Polyline(vertices), 0.095)
    for v in vertices:
        assert np.min(np.linalg.norm(cloud.points - v, axis=1)) == 0.0


def test_sample_polyline_closed_covers_closing_edge():
    square = Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), closed=True)
    cloud = sample_polyline(square, 0.1)
    on_left_edge = cloud.points[(cloud.points[:, 0] == 0.0) & (cloud.points[:, 1] > 0)]
    assert len(on_left_edge) >= 9


def test_polar_to_cartesian():
    pt = polar_to_cartesian([2.0, np.pi / 2])
    assert pt[0] == pytest.approx(0.0, abs=1e-15)
    assert pt[1] == pytest.approx(2.0, rel=1e-15)
    rows = polar_to_cartesian([[1.0, 0.0], [1.0, np.pi]])
    assert rows[0, 0] == pytest.approx(1.0) and rows[1, 0] == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        polar_to_cartesian([-0.1, 0.0])


def test_self_intersects_bowtie_and_square():
    bowtie = Polyline(np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]))
    flag, witness = self_intersects(bowtie)
    assert flag and witness is not None
    i, j = witness
    assert (i, j) == (0, 2)
    square = Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), closed=True)
    flag, _ = self_intersects(square, tol=0.0)
    assert not flag


def test_self_intersects_collinear_overlap():
    line = Polyline(np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 0.0], [3.0, 0.0]]))
    flag, _ = self_intersects(line, tol=0.0)
    assert flag


def test_self_intersects_near_miss_tolerance():
    # two parallel runs 1e-3 apart: clean at tol=0, a hit at tol=1e-2
    line = Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-3], [0.0, 1e-3]]))
    assert not self_intersects(line, tol=0.0)[0]
    assert self_intersects(line, tol=1e-2)[0]


def test_self_intersects_flags_revisited_point():
    # a polyline that returns to the origin touches itself there
    near = Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1e-6], [1.0, 1.0]]))
    assert not self_intersects(near, tol=0.0)[0]
    revisit = Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.0, 0.0], [-1.0, 1.0]]))
    flag, witness = self_intersects(revisit, tol=0.0)
    assert flag and witness == (0, 2)


def test_self_intersects_tight_fan_without_contact():
    # near-parallel spokes whose roots are offset by tiny gaps: no contact
    angles = np.linspace(0.1, 0.2, 50)
    pts = []
    for k, a in enumerate(angles):
        root = [0.0, 3e-4 * k]
        tip = [np.cos(a), np.sin(a) + 3e-4 * k]
        if k % 2 == 0:
            pts += [root, tip]
        else:
            pts += [tip, root]
    fan = Polyline(np.array(pts))
    flag, witness = self_intersects(fan, tol=0.0)
    assert not flag, witness


def test_sweep_agrees_with_allpairs_on_random_walks():
    rng = np.random.default_rng(20240817)
    for case in range(40):
        steps = rng.normal(size=(30, 2)) * 0.3
        pts = np.cumsum(steps, axis=0)
        keep = np.ones(len(pts), dtype=bool)
        keep[1:] = np.linalg.norm(np.diff(pts, axis=0), axis=1) > 1e-9
        line = Polyline(pts[keep])
        tol = 1e-9
        got_sap = self_intersects(line, tol=tol)[0]
        got_pairs = self_intersects_allpairs(line, tol)[0]
        assert got_sap == got_pairs, f"case {case}"


def test_near_miss_past_the_allpairs_limit_is_found():
    # segments 0 and 4 pass 0.707 * tol apart at (1, 0), and segment 0 ends
    # before segment 4 begins in x; a clean zigzag tail going up makes the
    # line long, and the pair must still be found among its candidates
    tol = 1e-3
    head = [[0.0, 0.0], [1.0, 0.0], [1.0, -1.0], [3.0, -1.0], [3.0, 1.0],
            [1 + tol / 2, tol / 2], [1 + tol / 2, 2.0]]
    k = np.arange(1, 4100)
    tail = np.column_stack([np.where(k % 2 == 1, 1.5, 1 + tol / 2), 2.0 + 0.01 * k])
    line = Polyline(np.vstack([head, tail]))
    assert self_intersects(line, tol=tol) == (True, (0, 4))
    assert self_intersects(line, tol=0.5 * tol) == (False, None)


def test_disjoint_collinear_segments_are_not_a_crossing():
    # four points of one line: segments 0 and 2 lie 5.1 apart, but the
    # orientation signs of that pair are rounding noise of mixed sign
    verts = np.array([
        [6.696394818845069, 0.02226880233960893],
        [3.559673869784609, 2.1215233597731444],
        [-0.7093210850388556, 4.978553761938254],
        [-3.997462866242608, 7.179146907384343],
    ])
    line = Polyline(verts)
    starts, ends = line.segments()
    assert not _cross_mask_2d(starts[:1], ends[:1], starts[2:], ends[2:])[0]
    assert self_intersects(line, tol=0.0) == (False, None)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("closed", [False, True])
def test_allpairs_row_blocks_match_triu_reference(monkeypatch, closed, dim):
    # candidate pairs come in chunks of about seven, so a witness found in
    # one chunk must bound the pairs that later chunks can still report
    monkeypatch.setattr(ifscert.geometry, "_PAIR_CHUNK", 7)
    rng = np.random.default_rng(20261018 + dim + 2 * closed)
    hits = 0
    for case in range(30):
        steps = rng.normal(size=(int(rng.integers(4, 26)), dim))
        line = Polyline(np.cumsum(steps, axis=0), closed=closed)
        for tol in (0.0, 0.3):
            got = self_intersects(line, tol=tol)
            assert got == self_intersects_allpairs(line, tol), f"case {case} tol {tol}"
            hits += got[0]
    assert 0 < hits < 60


@pytest.mark.parametrize("seed", range(12))
def test_candidate_pairs_with_labels_skip_one_label_and_keep_every_close_pair(seed):
    # every close pair among fans from the origin in wedges that may
    # overlap, whose first legs are wild under the broad phase's angle key,
    # and random walks that cross them (the name is kept from the label mode
    # that the broad phase no longer has, so the suite's ids stay)
    rng = np.random.default_rng(seed)
    walks = []
    for m in range(5):
        k = int(rng.integers(3, 60))
        theta = 0.25 * m + np.sort(rng.uniform(0.0, 0.3, size=k))
        radius = np.where(np.arange(k) % 2, 1.0, 0.3) * rng.uniform(0.9, 1.0, size=k)
        walks.append(np.vstack([[0.0, 0.0], np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])]))
    walks += [np.cumsum(rng.normal(size=(int(rng.integers(2, 12)), 2)) * 0.3, axis=0) for _ in range(seed % 3)]
    starts = np.concatenate([w[:-1] for w in walks])
    ends = np.concatenate([w[1:] for w in walks])
    i, j = np.triu_indices(len(starts), 1)
    dist = _segment_distance_batch(starts[i], ends[i], starts[j], ends[j])
    for tol in (0.0, 0.05, 0.5):
        pairs = [(min(a, b), max(a, b)) for c in _candidate_pairs(starts, ends, tol)
                 for a, b in zip(*(x.tolist() for x in c))]
        assert len(pairs) == len(set(pairs)), "a pair came twice"
        close = {(a, b) for a, b, d in zip(i.tolist(), j.tolist(), dist.tolist()) if d <= tol}
        assert close <= set(pairs)


@pytest.mark.parametrize("tol", [0.0, None])
def test_candidate_pairs_on_zigzag_lines_stay_near_one_per_segment(tol):
    # the angle key about the origin, the apex of each zigzag's wedge, gives
    # 1.36-1.50 pairs per segment on l1..l7; keys on the coordinates gave
    # l7 about 419 million
    for n in range(1, 8):
        line = build_zigzag_ln(n)
        starts, ends = line.segments()
        t = DEFAULT_INTERSECT_TOL * float(np.linalg.norm(np.ptp(line.vertices, axis=0))) if tol is None else tol
        pairs = sum(len(i) for i, _ in _candidate_pairs(starts, ends, t))
        assert pairs <= 2 * len(starts), (n, pairs)


def _broad_phase_segments(rng, case):
    """Seeded segments for the broad phase's angle key: fans from the origin,
    whose first legs are wild about it, random walks, and zero-length segments."""
    k = int(rng.integers(2, 80))
    if case % 3 == 0:
        theta = np.sort(rng.uniform(-np.pi, np.pi, size=k))
        radius = np.where(np.arange(k) % 2, 1.0, 0.3)
        pts = np.vstack([[0.0, 0.0], np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])])
    else:
        pts = np.cumsum(rng.normal(size=(k + 1, 2)) * 0.3, axis=0)
    if case % 4 == 1:  # small integers of mixed sign, exact zeros among them
        pts = np.round(pts)
    starts, ends = pts[:-1].copy(), pts[1:].copy()
    flat = rng.random(len(starts)) < 0.1
    ends[flat] = starts[flat]
    return starts, ends


@pytest.mark.parametrize("seed", range(6))
def test_angle_key_matches_the_strided_formula(seed):
    rng = np.random.default_rng(seed)
    for case in range(20):
        starts, ends = _broad_phase_segments(rng, case)
        for reach in (0.0, 1e-9, 0.05, 2.0):
            got = _angle_key(starts, ends, reach)
            want = angle_key_strided(starts, ends, np.zeros(2), reach)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), (case, reach)


def test_sweep_handles_large_polygon_and_planted_crossing():
    n = 6000
    theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    ring = Polyline(np.column_stack([np.cos(theta), np.sin(theta)]), closed=True)
    flag, _ = self_intersects(ring, tol=0.0)
    assert not flag
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    pts[n // 2] = [1.5, 0.0]  # kick one vertex outward so two edges cross the hull
    crossed = Polyline(pts, closed=True)
    assert self_intersects(crossed, tol=0.0)[0]


def test_point_cloud_contract():
    with pytest.raises(ValueError):
        PointCloud(np.empty((0, 2)), 0.1)
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.0, 0.0]]), 0.0)
    cloud = PointCloud(np.array([[0.0, 1.0]]), 0.5)
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 2.0


def test_continuum_model_resolve_and_labels():
    line = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
    model = ContinuumModel((line,), {"a": np.zeros(2), "b": np.array([1.0, 0.0])}, 2)
    assert np.array_equal(model.resolve("a"), [0.0, 0.0])
    assert np.array_equal(model.resolve([0.5, 0.0]), [0.5, 0.0])
    with pytest.raises(ValueError):
        model.resolve("missing")
    with pytest.raises(ValueError):
        ContinuumModel((line,), {"bad label": np.zeros(2)}, 2)


def test_continuum_model_needs_a_piece():
    # the model file format has no record for a model of marked points only
    with pytest.raises(ValueError, match="at least one piece"):
        ContinuumModel((), {"p0": np.zeros(2)}, 2)


def test_continuum_model_refine_covers_all_pieces():
    a = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
    b = Polyline(np.array([[0.0, 1.0], [1.0, 1.0]]))
    model = ContinuumModel((a, b), {}, 2)
    cloud = model.refine(0.01)
    assert cloud.pitch == 0.01
    assert np.any(cloud.points[:, 1] == 0.0) and np.any(cloud.points[:, 1] == 1.0)
