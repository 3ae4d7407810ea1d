"""Acceptance suite: ten numbered criteria, one reported line each.

Each criterion computes its checks first, then reports a single PASS/FAIL
line (echoed in the terminal summary via conftest) and asserts. Frozen
expected values come from the independent oracles in ``_oracles.py``; the
needle window coefficient is calibrated by ``tools/calibrate_needle.py``.
"""

import math
import time

import numpy as np
import pytest
from scipy.spatial import cKDTree

from _cli_runs import CRITERION_10_RUNS, IFS_FILES
from _oracles import chaos_game, wave_arc_length

from ifscert import cli, formats
from ifscert.certify import (
    fixed_set_check,
    image_length_bound,
    length_budget,
    needle_dichotomy_check,
    p_point_coverage,
)
from ifscert.continua import build_needle, build_P, build_zigzag_ln, needle_h1, needle_wave
from ifscert.geometry import ContinuumModel, PointCloud, Polyline, sample_polyline, self_intersects
from ifscert.ifs import IfsSpec, affine_map, attractor, classify_contraction, closed_form_map, eval_map
from ifscert.metric import chain_distance, chain_profile, hausdorff, monotonicity_check

RESULTS: list[str] = []

pytestmark = pytest.mark.filterwarnings("ignore:epsilon")


def _report(num: int, checks: list[tuple[bool, str]]) -> None:
    ok = all(flag for flag, _ in checks)
    failed = "; ".join(msg for flag, msg in checks if not flag)
    passed = "; ".join(msg for flag, msg in checks if flag)
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {failed or passed}"
    RESULTS.append(line)
    print(line)
    assert ok, failed


def _halves_2d() -> IfsSpec:
    h = [[0.5, 0.0], [0.0, 0.5]]
    return IfsSpec((affine_map(h, [0.0, 0.0]), affine_map(h, [0.5, 0.0])))


def _segment_model() -> ContinuumModel:
    seg = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]), name="seg")
    return ContinuumModel((seg,), {"a": (0.0, 0.0), "b": (1.0, 0.0)}, 2)


def test_criterion_01_chain_distance_on_segment_and_circle():
    t0 = time.time()
    n = int(round(1.0 / 1e-4))
    seg = PointCloud(np.column_stack([np.linspace(0, 1, n + 1), np.zeros(n + 1)]), 1e-4)
    d_seg = chain_distance(seg, [0.0, 0.0], [1.0, 0.0], 1e-3)
    t_seg = time.time() - t0

    t0 = time.time()
    m = int(round(2 * math.pi / 1e-4))
    theta = np.linspace(0.0, 2 * math.pi, m, endpoint=False)
    circle = PointCloud(np.column_stack([np.cos(theta), np.sin(theta)]), 1e-4)
    d_circ = chain_distance(circle, [1.0, 0.0], [-1.0, 0.0], 1e-3)
    t_circ = time.time() - t0

    _report(1, [
        (abs(d_seg - 1.0) <= 2e-4, f"segment endpoints {d_seg:.9f} (err {abs(d_seg-1):.1e})"),
        (abs(d_circ / math.pi - 1.0) <= 0.01, f"circle antipodes {d_circ:.7f} vs pi"),
        (t_seg < 5.0 and t_circ < 5.0, f"runtimes {t_seg:.1f}s / {t_circ:.1f}s < 5s"),
    ])


# Shortcut window calibration: hop bound eps effectively erases the folds on
# [0, a(eps)] with a(eps) = COEFF * sqrt(eps), so each profile entry should
# match the arc length of sqrt(x) sin(1/x) over [a(eps), 1]. The coefficient
# and the frozen quadrature values are reproduced by tools/calibrate_needle.py.
_WINDOW_COEFF = 0.630150
_WINDOW_LENGTHS = [
    1.7741141780031433,
    2.4753957832905567,
    3.10235216411604,
    3.793680415628084,
    4.75035664749376,
    5.803969581251326,
    7.048227021526809,
    8.616759510124822,
    10.40974532068579,
]


def test_criterion_02_needle_profile_diverges_and_tracks_windows():
    t0 = time.time()
    needle = build_needle()
    checks = []

    # staleness guard: the frozen literals must still match the oracle
    stale = max(
        abs(wave_arc_length(_WINDOW_COEFF * math.sqrt(0.1 * 2.0 ** -k), 1.0) / lit - 1.0)
        for k, lit in enumerate(_WINDOW_LENGTHS)
    )
    checks.append((stale < 1e-9, f"frozen window lengths current (drift {stale:.1e})"))

    # the dense shortest path at pitch 1e-5 validates quadrature arc length
    # as the window oracle before the frozen windows are trusted
    full = needle.refine(1e-5)
    worst_window = 0.0
    for a in (0.1, 0.05, 0.02):
        window = PointCloud(full.points[full.points[:, 0] >= a], 1e-5)
        d = chain_distance(
            window, [a, float(needle_wave(a))], [1.0, float(needle_wave(1.0))], 1e-4
        )
        worst_window = max(worst_window, abs(d / wave_arc_length(a, 1.0) - 1.0))
    checks.append((worst_window < 0.01, f"dense-path window oracle (worst {worst_window:.1e})"))

    profile = chain_profile(needle, "far", "h(p)", eps0=0.1, k_max=8)
    checks.append((profile.verdict == "diverges", f"verdict {profile.verdict}"))
    checks.append(
        (profile.slope is not None and profile.slope <= -0.15,
         f"slope {profile.slope:.4f} <= -0.15"),
    )
    rel = np.abs(np.asarray(profile.values) / np.asarray(_WINDOW_LENGTHS) - 1.0)
    checks.append((float(rel.max()) <= 0.10, f"entries within 10% of windows (worst {rel.max():.3f})"))
    elapsed = time.time() - t0
    checks.append((elapsed < 120.0, f"runtime {elapsed:.0f}s < 120s"))
    _report(2, checks)


def test_criterion_03_chain_distance_scales_under_contractions():
    worst = -math.inf
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        pts = rng.uniform(size=(400, 2))
        delta = float(cKDTree(pts).query(pts, k=2)[0][:, 1].max())
        cloud = PointCloud(pts, delta)
        A = rng.normal(size=(2, 2))
        lam = rng.uniform(0.3, 0.9)
        A *= lam / np.linalg.svd(A, compute_uv=False)[0]
        f = affine_map(A, rng.normal(size=2))
        i, j = rng.choice(400, size=2, replace=False)
        eps = 0.25
        d = chain_distance(cloud, pts[i], pts[j], eps)
        image = PointCloud(eval_map(f, pts), lam * delta)
        d_img = chain_distance(
            image, eval_map(f, pts[i][None])[0], eval_map(f, pts[j][None])[0], lam * eps
        )
        slack = d_img - (lam * d + 4 * lam * delta)
        worst = max(worst, slack)
        ok = ok and slack <= 0
    _report(3, [(ok, f"20 seeded contractions obey the scaling bound (worst slack {worst:.2e})")])


def test_criterion_04_chain_distance_monotone_under_inclusion():
    failures = 0
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        b = rng.uniform(size=(500, 2))
        idx = rng.choice(500, size=250, replace=False)
        sub = PointCloud(b[idx], 0.2)
        sup = PointCloud(b, 0.2)
        r = monotonicity_check(sub, sup, b[idx[0]], b[idx[1]], 0.25)
        failures += not r.ok
    _report(4, [(failures == 0, f"50 seeded nested pairs monotone ({failures} failures)")])


def test_criterion_05_zigzag_lines_are_what_they_claim():
    t0 = time.time()
    checks = []
    lines = [build_zigzag_ln(n) for n in range(1, 9)]

    len_err = max(
        abs(float(np.linalg.norm(np.diff(line.vertices, axis=0), axis=1).sum()) / 2.0 ** n - 1.0)
        for n, line in zip(range(1, 9), lines)
    )
    checks.append((len_err <= 1e-9, f"lengths 2^n (worst rel {len_err:.1e})"))

    # vertex-level wedge bounds, checked directly: radius below 2^-n except
    # the tip, angle strictly inside (0.75, 1.25) * 2^-n away from the origin
    wedge_ok, sectors = True, []
    for n, line in zip(range(1, 9), lines):
        v = line.vertices
        r = np.hypot(v[:, 0], v[:, 1])
        ang = np.arctan2(v[:, 1], v[:, 0])[r > 0]
        scale = 2.0 ** -n
        wedge_ok &= bool(r[:-1].max() < scale and abs(r[-1] - scale) <= 1e-12 * scale)
        wedge_ok &= bool(np.all((ang > 0.75 * scale) & (ang < 1.25 * scale)))
        sectors.append((0.75 * scale, 1.25 * scale))
    checks.append((wedge_ok, "polar wedge bounds on every vertex"))

    simple = all(not self_intersects(line)[0] for line in lines)
    checks.append((simple, "no self-intersections"))

    # pairwise contact only at the shared origin: the angular sectors are
    # disjoint and each pie slice is convex, so distinct lines can only meet
    # at the apex; there the single origin-touching first legs must point
    # into their own sectors (already asserted above), not along each other
    disjoint = all(sectors[k + 1][1] < sectors[k][0] for k in range(7))
    first_legs = [line.vertices[1] / np.linalg.norm(line.vertices[1]) for line in lines]
    apex_ok = all(
        abs(first_legs[a][0] * first_legs[b][1] - first_legs[a][1] * first_legs[b][0]) > 1e-12
        for a in range(8) for b in range(a + 1, 8)
    )
    origin_start = all(np.linalg.norm(line.vertices[0]) == 0.0 for line in lines)
    checks.append((disjoint and apex_ok and origin_start, "pairwise contact only at the origin"))

    elapsed = time.time() - t0
    checks.append((elapsed < 30.0, f"runtime {elapsed:.0f}s < 30s"))
    _report(5, checks)


def test_criterion_06_length_budget_and_image_length_bounds():
    grid_ok = all(
        length_budget(i, n) == (i >= n) for i in range(1, 65) for n in range(1, 65)
    )

    lines = [build_zigzag_ln(2), build_zigzag_ln(3),
             Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 2.0]]))]
    worst = -math.inf
    bound_ok = True
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        A = rng.normal(size=(2, 2))
        lam = rng.uniform(0.2, 1.0)
        A *= lam / np.linalg.svd(A, compute_uv=False)[0]
        f = affine_map(A, rng.normal(size=2))
        line = lines[seed % len(lines)]
        bound = image_length_bound(f, line)
        length = float(np.linalg.norm(np.diff(line.vertices, axis=0), axis=1).sum())
        pts = sample_polyline(line, length / 4000.0).points
        chained = float(np.linalg.norm(np.diff(eval_map(f, pts), axis=0), axis=1).sum())
        slack = chained - bound * (1 + 1e-9)
        worst = max(worst, slack)
        bound_ok = bound_ok and slack <= 1e-12
    _report(6, [
        (grid_ok, "length budget is exactly the index order on 1..64"),
        (bound_ok, f"20 seeded image lengths within bounds (worst slack {worst:.2e})"),
    ])


def test_criterion_07_attractor_positive_controls():
    t0 = time.time()
    checks = []

    halves = IfsSpec((affine_map([[0.5]], [0.0]), affine_map([[0.5]], [0.5])))
    res = attractor(halves, PointCloud(np.array([[0.0], [0.3], [1.0]]), 2.5e-4), tol=2.5e-4)
    ref = PointCloud(np.linspace(0, 1, 4097)[:, None], 2.5e-4)
    h_interval = hausdorff(res.cloud, ref)
    checks.append((res.converged and h_interval <= 1e-3,
                   f"interval attractor within 1e-3 ({h_interval:.1e})"))

    corners = [(0.0, 0.0), (0.5, 0.0), (0.25, 0.5)]
    sier = IfsSpec(tuple(affine_map([[0.5, 0.0], [0.0, 0.5]], list(c)) for c in corners))
    res = attractor(sier, PointCloud(np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]]), 5e-4),
                    tol=5e-4)
    steps = np.array(res.steps)
    ratios = steps[4:] / steps[3:-1]
    checks.append((res.converged and float(ratios.max()) <= 0.5 + 1e-6,
                   f"triangle step ratios after iteration 3 (max {ratios.max():.9f})"))

    pairs = [(np.array(m.matrix), np.array(m.offset)) for m in sier.maps]
    oracle = PointCloud(chaos_game(pairs, 400000, seed=123), 5e-4)
    h_chaos = hausdorff(res.cloud, oracle)
    checks.append((h_chaos <= 2e-3, f"chaos-game oracle agreement ({h_chaos:.2e})"))

    elapsed = time.time() - t0
    checks.append((elapsed < 60.0, f"runtime {elapsed:.0f}s < 60s"))
    _report(7, checks)


def test_criterion_08_squeeze_is_claimed_nonexpansive():
    # One million seeded pairs in [0, 1] x [-1, 1]; the claim bounds the
    # distance ratio under (x1, x2) -> (x1, x1 * x2 / s) by 1 + 1e-12.
    rng = np.random.default_rng(8)
    lo, hi = np.array([0.0, -1.0]), np.array([1.0, 1.0])
    x = rng.uniform(lo, hi, size=(1_000_000, 2))
    y = rng.uniform(lo, hi, size=(1_000_000, 2))
    num = np.linalg.norm(needle_h1(x) - needle_h1(y), axis=1)
    den = np.linalg.norm(x - y, axis=1)
    ratio = float((num / den).max())
    _report(8, [(ratio <= 1.0 + 1e-12, f"max ratio {ratio:.15f} vs 1 + 1e-12")])


def test_criterion_09_certificates():
    checks = []
    needle = build_needle(delta=1e-3)

    cert = needle_dichotomy_check(affine_map(np.zeros((2, 2)), [0.0, 0.0]), needle,
                                  classify_pairs=0)
    checks.append((cert.verdict == "consistent",
                   f"constant-to-attachment dichotomy {cert.verdict}"))

    verdict = classify_contraction(
        closed_form_map("needle_param_scale", (0.5,)), needle.refine(1e-3)
    )
    checks.append((verdict.kind == "expansion_witness" and verdict.max_ratio > 1.0,
                   f"parameter halving witness ratio {verdict.max_ratio:.3f}"))

    control = fixed_set_check(_halves_2d(), _segment_model(), 1e-3)
    checks.append((control.verdict == "inconclusive", f"interval control {control.verdict}"))

    against = fixed_set_check(_halves_2d(), needle, 1e-3)
    checks.append((against.verdict == "certified" and against.margin > 0,
                   f"interval system vs needle margin {against.margin:.3f}"))

    pm = build_P(4)
    cover = p_point_coverage(IfsSpec((affine_map(np.zeros((2, 2)), [0.0, 0.0]),)), pm, 1e-3)
    checks.append(
        (cover.verdict == "certified" and cover.witnesses[0][0] == "p1",
         f"constant-to-origin coverage {cover.verdict} witness {cover.witnesses[0][0]}"),
    )
    _report(9, checks)


def test_criterion_10_cli_runs_are_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in IFS_FILES.items():
        (tmp_path / name).write_text(text)

    def outputs_of(argv, paths):
        rc = cli.main(argv)
        stdout = capsys.readouterr().out
        blobs = [open(p, "rb").read() for p in paths]
        return rc, stdout, blobs

    # each run's output files are the values of its --out and --report flags
    runs = [(argv, [argv[i + 1] for i, flag in enumerate(argv[:-1]) if flag in ("--out", "--report")])
            for argv in CRITERION_10_RUNS]
    mismatches = []
    for argv, paths in runs:
        first = outputs_of(argv, paths)
        second = outputs_of(argv, paths)
        if first != second:
            mismatches.append(argv[0])
    _report(10, [(not mismatches,
                  f"{len(runs)} command invocations repeated byte-identically"
                  + (f" (mismatch: {mismatches})" if mismatches else ""))])
