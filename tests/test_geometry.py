import numpy as np
import pytest

import ifscert.geometry
from ifscert.geometry import (
    ContinuumModel,
    GraphCurve,
    PointCloud,
    Polyline,
    _ALLPAIRS_MAX_SEGMENTS,
    _cross_mask_2d,
    _intersects_allpairs,
    _intersects_sap,
    _segment_distance_batch,
    _segment_pairs,
    polar_to_cartesian,
    polyline_length,
    sample_graph_curve,
    sample_polyline,
    self_intersects,
)


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


def test_sample_graph_curve_stays_on_curve_and_controls_chords():
    curve = GraphCurve(lambda x: x * x, lambda x: 2 * x, min_feature=lambda a: 0.1)
    cloud = sample_graph_curve(curve, 0.2, 1.0, 0.01)
    x, y = cloud.points[:, 0], cloud.points[:, 1]
    assert np.max(np.abs(y - x * x)) == 0.0
    gaps = np.linalg.norm(np.diff(cloud.points, axis=0), axis=1)
    assert gaps.max() <= 0.01 + 1e-12
    with pytest.raises(ValueError):
        sample_graph_curve(curve, 0.0, 1.0, 0.01)


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
        starts, ends = line.segments()
        tol = 1e-9
        got_sap = _intersects_sap(starts, ends, False, tol)[0]
        got_pairs = _intersects_allpairs(starts, ends, False, tol)[0]
        assert got_sap == got_pairs, f"case {case}"


def test_near_miss_past_the_allpairs_limit_is_found():
    # segments 0 and 4 pass 0.707 * tol apart at (1, 0), and segment 0 ends
    # before segment 4 begins in x; a clean zigzag tail going up pushes the
    # line past the all-pairs limit so the large-input path must find them
    tol = 1e-3
    head = [[0.0, 0.0], [1.0, 0.0], [1.0, -1.0], [3.0, -1.0], [3.0, 1.0],
            [1 + tol / 2, tol / 2], [1 + tol / 2, 2.0]]
    k = np.arange(1, 4100)
    tail = np.column_stack([np.where(k % 2 == 1, 1.5, 1 + tol / 2), 2.0 + 0.01 * k])
    line = Polyline(np.vstack([head, tail]))
    assert len(line.vertices) - 1 > _ALLPAIRS_MAX_SEGMENTS
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


def _allpairs_reference(P, Q, closed, tol):
    """The all-pairs test over ``np.triu_indices`` in one block."""
    n = len(P)
    ii, jj = np.triu_indices(n, k=2)
    if closed and n > 2:
        keep = ~((ii == 0) & (jj == n - 1))
        ii, jj = ii[keep], jj[keep]
    hit = _segment_distance_batch(P[ii], Q[ii], P[jj], Q[jj]) <= tol
    if P.shape[1] == 2:
        hit |= _cross_mask_2d(P[ii], Q[ii], P[jj], Q[jj])
    if not hit.any():
        return False, None
    k = int(np.argmax(hit))
    return True, (int(ii[k]), int(jj[k]))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("closed", [False, True])
def test_allpairs_row_blocks_match_triu_reference(monkeypatch, closed, dim):
    monkeypatch.setattr(ifscert.geometry, "_PAIR_CHUNK", 7)
    for n in (3, 4, 5, 9, 23):
        ii, jj = np.triu_indices(n, k=2)
        if closed:
            keep = ~((ii == 0) & (jj == n - 1))
            ii, jj = ii[keep], jj[keep]
        blocks = list(_segment_pairs(n, closed))
        assert len(blocks) > 1 or len(ii) <= 7
        assert all(len(i) <= 7 or len(set(i)) == 1 for i, _ in blocks)  # a longer row is one block
        assert np.array_equal(np.concatenate([i for i, _ in blocks]), ii)
        assert np.array_equal(np.concatenate([j for _, j in blocks]), jj)
    rng = np.random.default_rng(20261018 + dim + 2 * closed)
    hits = 0
    for case in range(30):
        steps = rng.normal(size=(int(rng.integers(4, 26)), dim))
        line = Polyline(np.cumsum(steps, axis=0), closed=closed)
        starts, ends = line.segments()
        for tol in (0.0, 0.3):
            got = _intersects_allpairs(starts, ends, closed, tol)
            assert got == _allpairs_reference(starts, ends, closed, tol), f"case {case} tol {tol}"
            hits += got[0]
    assert 0 < hits < 60


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


def test_continuum_model_refine_covers_all_pieces():
    a = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
    b = Polyline(np.array([[0.0, 1.0], [1.0, 1.0]]))
    model = ContinuumModel((a, b), {}, 2)
    cloud = model.refine(0.01)
    assert cloud.pitch == 0.01
    assert np.any(cloud.points[:, 1] == 0.0) and np.any(cloud.points[:, 1] == 1.0)
