import math
import tracemalloc

import numpy as np
import pytest

from ifscert.continua import (
    _needle_zone_points,
    _zigzag_layout,
    _zigzag_teeth,
    build_needle,
    build_P,
    build_zigzag_ln,
    needle_h1,
    needle_h2,
    needle_offset,
    needle_wave,
    needle_wave_slope_bound,
    verify_P,
    wedge_bounds_ok,
)
from ifscert.certify import needle_dichotomy_check, p_point_coverage
from ifscert.geometry import ContinuumModel, Polyline, polar_to_cartesian, polyline_length, self_intersects
from ifscert.ifs import IfsSpec, affine_map

from _oracles import (
    mp_needle_point,
    segments_meet_off_origin,
    zigzag_teeth_reference,
    zigzag_vertices_per_tooth,
)


# --- the oscillating wave -------------------------------------------------


def test_needle_wave_zero_crossings_and_envelope():
    assert needle_wave(0.0) == 0.0
    for k in range(1, 40):
        x = 1.0 / (k * math.pi)
        assert abs(needle_wave(x)) < 1e-12
    xs = np.linspace(1e-6, 1.0, 10001)
    assert np.all(np.abs(needle_wave(xs)) <= np.sqrt(xs) + 1e-15)
    with pytest.raises(ValueError):
        needle_wave(-1e-12)


def test_needle_wave_slope_bound_dominates_numeric_derivative():
    rng = np.random.default_rng(3)
    for a in (0.5, 0.1, 0.02):
        xs = rng.uniform(a, 1.0, size=2000)
        h = 1e-9
        slope = np.abs(needle_wave(xs + h) - needle_wave(xs - h)) / (2 * h)
        assert slope.max() <= needle_wave_slope_bound(a) * (1 + 1e-4)


# --- the two embedding stages ---------------------------------------------


def test_needle_h1_squeezes_the_tail_exactly():
    pts = np.array([[0.5, 0.8], [0.0, 1.0], [1.0, -1.0]])
    out = needle_h1(pts, 100.0)
    assert np.array_equal(out[:, 0], pts[:, 0])
    assert out[0, 1] == pytest.approx(0.5 * 0.8 / 100.0, rel=1e-15)
    assert out[1, 1] == 0.0
    assert out[2, 1] == pytest.approx(-1.0 / 100.0, rel=1e-15)


def test_needle_h2_adds_the_wave_and_rejects_negative_x():
    pts = np.array([[0.25, 0.1], [0.0, 0.3]])
    out = needle_h2(pts)
    assert out[0, 1] == pytest.approx(0.1 + needle_wave(0.25), rel=1e-14)
    assert out[1, 1] == pytest.approx(0.3, rel=1e-15)  # wave vanishes at the tip
    with pytest.raises(ValueError):
        needle_h2(np.array([[-0.1, 0.0]]))


def test_needle_map_matches_high_precision_reference():
    rng = np.random.default_rng(11)
    x1 = rng.uniform(0.0, 1.0, size=200)
    x2 = rng.uniform(-1.0, 1.0, size=200)
    got = needle_h2(needle_h1(np.column_stack([x1, x2]), 100.0))
    for k in range(200):
        rx, ry = mp_needle_point(x1[k], x2[k], 100.0)
        assert got[k, 0] == pytest.approx(rx, abs=1e-15)
        assert got[k, 1] == pytest.approx(ry, abs=1e-13)


def test_needle_h1_true_contraction_bound_on_the_box():
    # d(h1 x, h1 y) <= d(x, y) * sqrt(1 + (x2^2 + y1^2) / s^2) on [0,1] x [-1,1];
    # the crude factor sqrt(1 + 2/s^2) therefore bounds every sampled ratio
    rng = np.random.default_rng(20240819)
    s = 100.0
    x = np.column_stack([rng.uniform(0, 1, 200000), rng.uniform(-1, 1, 200000)])
    y = np.column_stack([rng.uniform(0, 1, 200000), rng.uniform(-1, 1, 200000)])
    num = np.linalg.norm(needle_h1(x, s) - needle_h1(y, s), axis=1)
    den = np.linalg.norm(x - y, axis=1)
    keep = den > 1e-12
    ratio = num[keep] / den[keep]
    assert ratio.max() <= math.sqrt(1.0 + 2.0 / s**2) * (1 + 1e-12)
    assert ratio.max() > 1.0  # the map is not a plain non-expansion


def test_needle_h2_expansion_bounded_away_from_the_tip():
    rng = np.random.default_rng(77)
    for a in (0.2, 0.1, 0.05):
        x1 = rng.uniform(a, 1.0, size=(50000, 2))
        pts = np.column_stack([x1[:, 0], rng.uniform(-1, 1, 50000)])
        qts = np.column_stack([x1[:, 1], rng.uniform(-1, 1, 50000)])
        num = np.linalg.norm(needle_h2(pts) - needle_h2(qts), axis=1)
        den = np.linalg.norm(pts - qts, axis=1)
        keep = den > 1e-9
        ratio = (num[keep] / den[keep]).max()
        assert ratio <= 1.0 + needle_wave_slope_bound(a)
    # the bound itself falls off monotonically as the excluded ball grows
    assert needle_wave_slope_bound(0.2) < needle_wave_slope_bound(0.1)
    assert needle_wave_slope_bound(0.1) < needle_wave_slope_bound(0.05)


# --- the assembled needle model ---------------------------------------------


def test_build_needle_marks_and_meta():
    needle = build_needle(delta=1e-3)
    assert np.array_equal(needle.marked["h(p)"], [0.0, 0.0])
    far = needle.marked["far"]
    assert far[0] == 1.0 and far[1] == pytest.approx(math.sin(1.0), rel=1e-15)
    assert needle.meta["kind"] == "needle"
    with pytest.raises(ValueError):
        build_needle(delta=0.0)


def test_needle_refine_points_are_on_curve_and_chained():
    needle = build_needle(delta=1e-3)
    for delta in (1e-3, 2e-4):
        cloud = needle.refine(delta)
        pts = cloud.points
        assert cloud.pitch == delta
        assert np.all(np.abs(pts[:, 1] - needle_wave(pts[:, 0])) < 1e-14)
        gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert gaps.max() < 10 * delta  # no hop may bridge distant folds
        assert np.array_equal(pts[0], [0.0, 0.0])
        assert pts[-1, 0] == 1.0


def test_needle_refinement_too_fine_is_refused_before_it_allocates():
    # the grid and fold lists at this pitch came to 312 MiB, built before
    # the first speed band refused
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^needle refinement too fine; raise delta$"):
            _needle_zone_points(1e-14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_needle_refinement_holds_three_arrays_of_its_widest_band():
    # at the finest README pitch the first speed band samples about 1.7 M
    # x-values, 13.2 MiB an array; its xs, its wave (then its hops) and its
    # arc length peak at 5.0 times the 7.9 MiB cloud, where separate diff,
    # hypot, cumsum and concatenate copies took 8.7
    tracemalloc.start()
    try:
        cloud = build_needle().refine(0.1 / 256 / 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cloud) == 518_576
    assert peak < 6 * cloud.points.nbytes


def test_needle_refinement_coarser_than_the_curve_is_its_coarsest_sample():
    # at pitch 2 and above every zone ends at 0.25; (delta / 4) ** 2 overflowed at 1e200
    coarse = _needle_zone_points(2.0)
    for delta in (4.0, 1e10, 1e200, 1e308):
        assert _needle_zone_points(delta).tobytes() == coarse.tobytes()


def test_needle_embedding_is_injective_at_sample_resolution():
    delta = 1e-3
    cloud = build_needle(delta=delta).refine(delta)
    pts = cloud.points
    order = np.argsort(pts[:, 0], kind="stable")
    pts = pts[order]
    from scipy.spatial import cKDTree

    tree = cKDTree(pts)
    pairs = tree.query_pairs(r=delta / 10, output_type="ndarray")
    if len(pairs):
        param_gap = np.abs(pts[pairs[:, 0], 0] - pts[pairs[:, 1], 0])
        assert param_gap.max() <= 10 * delta


def test_needle_offset_vertical_distance_properties():
    on_curve = np.array([[0.3, float(needle_wave(0.3))], [0.0, 0.0]])
    assert np.all(needle_offset(on_curve) == 0.0)
    off = needle_offset(np.array([[0.3, float(needle_wave(0.3)) + 0.2]]))
    assert off[0] == pytest.approx(0.2, rel=1e-12)
    beyond = needle_offset(np.array([[1.5, float(needle_wave(1.0))]]))
    assert beyond[0] >= 0.5


# --- zigzag lines and their union -------------------------------------------


def test_zigzag_lengths_are_powers_of_two():
    for n in range(1, 9):
        line = build_zigzag_ln(n)
        assert polyline_length(line) == pytest.approx(2.0**n, rel=1e-9)


@pytest.mark.parametrize("n", range(1, 11))
def test_zigzag_vertices_match_the_per_tooth_interleave(n):
    got = build_zigzag_ln(n).vertices
    want = zigzag_vertices_per_tooth(n)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(1, 13))
def test_zigzag_teeth_match_the_full_search(n):
    # the tooth count and trim alone: l11 and l12 run to tens of millions of vertices
    M, t = _zigzag_teeth(_zigzag_layout(n), 2.0**n)
    want_M, want_t = zigzag_teeth_reference(n)
    assert (M, t.hex()) == (want_M, want_t.hex())


def test_zigzag_endpoints_and_confinement():
    for n in (1, 3, 5):
        line = build_zigzag_ln(n)
        assert np.array_equal(line.vertices[0], [0.0, 0.0])
        tip = polar_to_cartesian([2.0**-n, 2.0**-n])
        assert np.allclose(line.vertices[-1], tip, rtol=0, atol=1e-15)
        assert wedge_bounds_ok(line, n)
        assert not self_intersects(line, tol=0.0)[0]


def test_zigzag_rejects_out_of_range_scale():
    with pytest.raises(ValueError):
        build_zigzag_ln(0)
    with pytest.raises(ValueError):
        build_zigzag_ln(13)


def test_build_P_marks_every_tip():
    pm = build_P(4)
    assert set(pm.marked) == {"p0", "p1", "p2", "p3", "p4"}
    assert np.array_equal(pm.marked["p0"], [0.0, 0.0])
    for n in range(1, 5):
        tip = polar_to_cartesian([2.0**-n, 2.0**-n])
        assert np.allclose(pm.marked[f"p{n}"], tip, rtol=0, atol=1e-15)
    verify_P(pm)  # re-check on demand: simplicity and wedges


def test_build_P_range_check():
    with pytest.raises(ValueError):
        build_P(0)
    with pytest.raises(ValueError):
        build_P(13)


def _with_vertex(pm, n, k, point):
    """``pm`` with vertex ``k`` of line ``l_n`` moved to ``point``."""
    v = np.array(pm.pieces[n - 1].vertices)
    v[k] = point
    pieces = list(pm.pieces)
    pieces[n - 1] = Polyline(v, name=f"l{n}")
    return ContinuumModel(tuple(pieces), pm.marked, 2, meta=pm.meta)


def _moved_segments_meet_other_lines(model, n, k):
    """Whether a segment at vertex ``k`` of ``l_n`` meets another line off the origin (exactly)."""
    v = model.pieces[n - 1].vertices
    mine = [(v[a], v[a + 1]) for a in (k - 1, k) if 0 <= a < len(v) - 1]
    for m, line in enumerate(model.pieces, start=1):
        if m == n:
            continue
        P, Q = line.segments()
        lo, hi = np.minimum(P, Q), np.maximum(P, Q)
        for p, q in mine:
            # segments that meet have overlapping boxes; float comparisons are exact
            near = np.flatnonzero(np.all((lo <= np.maximum(p, q)) & (np.minimum(p, q) <= hi), axis=1))
            if any(segments_meet_off_origin(p, q, P[j], Q[j]) for j in near):
                return True
    return False


def test_verify_P_finds_lines_touching_away_from_the_origin():
    # a vertex of l2 moved onto the middle of a tooth leg of l1, at radius
    # 0.25, far from the apex: it leaves l2's wedge, which keeps the lines apart
    pm = build_P(3)
    l1, l2, l3 = pm.pieces
    bad = _with_vertex(pm, 2, 3, 0.5 * (l1.vertices[5] + l1.vertices[6]))
    assert _moved_segments_meet_other_lines(bad, 2, 3)
    assert not wedge_bounds_ok(bad.pieces[1], 2)
    assert wedge_bounds_ok(l1, 1) and wedge_bounds_ok(l3, 3)
    with pytest.raises(RuntimeError, match="^line 2 leaves its wedge$"):
        verify_P(bad)


def test_verify_P_accepts_a_vertex_next_to_the_apex():
    # vertex 1 of l2 on its own ray at radius 1e-18: within 1e-15 of l1's
    # first segment, but in l2's wedge, so the lines meet only at the origin
    pm = build_P(3)
    v = pm.pieces[1].vertices[1]
    near = _with_vertex(pm, 2, 1, v * (1e-18 / np.hypot(*v)))
    verify_P(near)
    assert not _moved_segments_meet_other_lines(near, 2, 1)


@pytest.mark.parametrize("seed", range(6))
def test_verify_P_accepts_no_union_whose_lines_meet_off_the_origin(seed):
    # one vertex moved onto a segment of another line, by a small random step,
    # or toward the origin by a factor of 1e-1 to 1e-18; whenever verify_P
    # accepts, no segment at the moved vertex meets another line but at the
    # origin, where both end (checked exactly)
    rng = np.random.default_rng(seed)
    models = {n_max: build_P(n_max) for n_max in (3, 4)}
    outcomes = []
    for case in range(30):
        pm = models[3 + case % 2]
        n = int(rng.integers(1, len(pm.pieces) + 1))
        v = pm.pieces[n - 1].vertices
        k = int(rng.integers(0, len(v)))
        how = case % 3
        if how == 0:
            other = pm.pieces[int(rng.choice([m for m in range(len(pm.pieces)) if m != n - 1]))]
            j = int(rng.integers(0, len(other.vertices) - 1))
            t = rng.uniform()
            point = (1 - t) * other.vertices[j] + t * other.vertices[j + 1]
        elif how == 1:
            point = v[k] + rng.normal(size=2) * 2.0 ** -n * 10.0 ** -rng.uniform(1, 4)
        else:
            point = v[k] * 10.0 ** -rng.uniform(1, 18)
        model = _with_vertex(pm, n, k, point)
        try:
            verify_P(model)
        except RuntimeError:
            outcomes.append(False)
            continue
        outcomes.append(True)
        assert not _moved_segments_meet_other_lines(model, n, k), (case, n, k, point)
    assert any(outcomes) and not all(outcomes)


def test_wedge_bounds_reject_foreign_line():
    stray = Polyline(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert not wedge_bounds_ok(stray, 3)


# --- model metadata the certificates check ---------------------------------


def test_model_wrappers_require_matching_metadata():
    const = affine_map(np.zeros((2, 2)), [0.0, 0.0])
    pm = build_P(2)
    with pytest.raises(ValueError, match="needle"):
        needle_dichotomy_check(const, pm, classify_pairs=0)
    needle = build_needle(delta=1e-2)
    with pytest.raises(ValueError, match="zigzag"):
        p_point_coverage(IfsSpec((const,)), needle, 1e-2)
    again = p_point_coverage(IfsSpec((const,)), pm, 1e-2)
    assert again.parameters["n_max"] == 2 and len(pm.pieces) == 2
    assert needle.meta["sharpness"] == "100.0" and needle.meta["delta"] == "0.01"
