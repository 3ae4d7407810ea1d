import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.spatial import cKDTree

from ifscert import ifs
from ifscert.continua import build_needle, needle_wave
from ifscert.geometry import PointCloud
from ifscert.ifs import (
    IfsSpec,
    MapSpec,
    affine_map,
    attractor,
    certified_lipschitz,
    classify_contraction,
    closed_form_map,
    composed_map,
    eval_map,
    hutchinson,
    interval_image,
    ripple_map,
    squeeze_map,
)

from _oracles import chaos_game, needle_map, spectral_norm


def _halves_1d() -> IfsSpec:
    return IfsSpec((
        affine_map([[0.5]], [0.0]),
        affine_map([[0.5]], [0.5]),
    ))


def _sierpinski() -> IfsSpec:
    corners = [(0.0, 0.0), (0.5, 0.0), (0.25, 0.5)]
    return IfsSpec(tuple(
        affine_map([[0.5, 0.0], [0.0, 0.5]], list(c)) for c in corners
    ))


# --- map specs ----------------------------------------------------------------


def test_map_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        MapSpec("mystery", 2)
    with pytest.raises(ValueError, match="matrix"):
        MapSpec("affine", 2, matrix=np.eye(3), offset=np.zeros(2))
    with pytest.raises(ValueError, match="closed form"):
        MapSpec("closed_form", 2, form="does_not_exist")
    # every rule holds however the map is built
    for sharpness in (-5.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="sharpness"):
            squeeze_map(sharpness)
    with pytest.raises(ValueError, match="finite"):
        affine_map([[math.nan, 0.0], [0.0, 1.0]], [0.0, 0.0])
    with pytest.raises(ValueError, match="parameters"):
        MapSpec("closed_form", 2, form="needle_param_scale", params=(0.5, 0.1))
    with pytest.raises(ValueError, match="dimension 2"):
        closed_form_map("needle_param_scale", (0.5,), dimension=3)
    with pytest.raises(ValueError, match="dimension"):
        ripple_map(dimension=1)
    with pytest.raises(ValueError, match="dimension"):
        composed_map(affine_map([[0.5]], [0.0]), squeeze_map(100.0))
    with pytest.raises(ValueError, match="dimension"):
        MapSpec("composition", 3, parts=(squeeze_map(100.0, dimension=3), ripple_map()))
    with pytest.raises(ValueError, match="empty composition"):
        composed_map()
    assert MapSpec("affine", 2, matrix=0.5 * np.eye(2), offset=np.zeros(2)).lip_bound == 0.5


@pytest.mark.parametrize("lip", [-1.0, -1e-300, math.nan, -math.inf])
def test_map_spec_rejects_negative_or_nan_lipschitz_bound(lip):
    with pytest.raises(ValueError, match="Lipschitz bound must be >= 0"):
        MapSpec("affine", 2, matrix=np.eye(2), offset=np.zeros(2), lip_bound=lip)
    with pytest.raises(ValueError, match="Lipschitz bound must be >= 0"):
        closed_form_map("needle_param_scale", (0.5,), lip_bound=lip)
    assert MapSpec("affine", 2, matrix=np.eye(2), offset=np.zeros(2), lip_bound=0.0).lip_bound == 0.0


def test_affine_map_evaluates_and_carries_spectral_bound():
    A = [[0.3, 0.1], [0.0, 0.4]]
    f = affine_map(A, [1.0, -1.0])
    out = eval_map(f, np.array([[2.0, 2.0]]))
    assert np.allclose(out, [[1.8, -0.2]])
    assert f.lip_bound == pytest.approx(spectral_norm(A), rel=1e-14)


def test_eval_map_enforces_declared_region():
    # a squeeze acts on [0, 1] x [-1, 1], up to a slack of 1e-9
    f = squeeze_map(100.0)
    eval_map(f, np.array([[1.0, -1.0], [1.0 + 5e-10, 1.0]]))
    for outside in ([2.0, 0.0], [-0.1, 0.0], [0.5, 1.1], [0.5, -1.0 - 1e-8]):
        with pytest.raises(ValueError, match="points leave the map's declared region"):
            eval_map(f, np.array([outside]))
    # no other kind checks a domain
    assert eval_map(affine_map([[0.5]], [0.0]), np.array([[2.0]]))[0, 0] == 1.0


def test_closed_forms_stay_on_the_curve():
    rng = np.random.default_rng(1)
    pts = np.column_stack([rng.uniform(0, 1, 100), rng.uniform(-1, 1, 100)])
    for form, params in (
        ("needle_param_scale", (0.5,)),
        ("needle_param_affine", (0.3, 0.9)),
        ("needle_param_tent", (0.6, 0.5)),
    ):
        f = closed_form_map(form, params)
        out = eval_map(f, pts)
        assert np.all((out[:, 0] >= 0) & (out[:, 0] <= 1))
        assert np.allclose(out[:, 1], needle_wave(out[:, 0]), atol=1e-14)


def test_closed_form_checks_arity():
    with pytest.raises(ValueError, match="parameters"):
        closed_form_map("needle_param_scale", (0.5, 0.1))


def test_squeeze_and_ripple_compose_to_the_needle_map():
    rng = np.random.default_rng(2)
    pts = np.column_stack([rng.uniform(0, 1, 50), rng.uniform(-1, 1, 50)])
    f = composed_map(squeeze_map(100.0), ripple_map())
    assert np.allclose(eval_map(f, pts), needle_map(pts, 100.0), atol=1e-15)


def test_single_point_passthrough():
    f = affine_map([[2.0, 0.0], [0.0, 2.0]], [0.0, 0.0])
    out = eval_map(f, np.array([1.0, 1.0]))
    assert out.shape == (2,)
    assert np.allclose(out, [2.0, 2.0])


# --- interval images and Lipschitz data -----------------------------------------


def test_interval_image_contains_sampled_images():
    rng = np.random.default_rng(20240820)
    maps = [
        affine_map(rng.normal(size=(2, 2)) * 0.4, rng.normal(size=2)),
        squeeze_map(100.0),
        ripple_map(),
        closed_form_map("needle_param_tent", (0.8, 0.3)),
        composed_map(squeeze_map(100.0), affine_map([[0.5, 0], [0, 0.5]], [0.1, 0.1])),
    ]
    for f in maps:
        lo = rng.uniform(0.0, 0.3, size=2)
        hi = lo + rng.uniform(0.1, 0.5, size=2)
        box = np.vstack([lo, hi])
        xs = rng.uniform(lo, hi, size=(4000, 2))
        image = eval_map(f, xs)
        got = interval_image(f, box)
        assert np.all(image >= got[0] - 1e-12), f.kind
        assert np.all(image <= got[1] + 1e-12), f.kind


def test_certified_lipschitz_affine_is_exact():
    rng = np.random.default_rng(4)
    for _ in range(20):
        A = rng.normal(size=(3, 3))
        f = affine_map(A, rng.normal(size=3))
        box = np.vstack([-np.ones(3), np.ones(3)])
        assert certified_lipschitz(f, box) == pytest.approx(spectral_norm(A), rel=1e-14)


def test_certified_lipschitz_squeeze_formula():
    box = np.array([[0.0, -1.0], [1.0, 1.0]])
    got = certified_lipschitz(squeeze_map(100.0), box)
    assert got == pytest.approx(math.sqrt(1.0 + 2.0 / 100.0**2), rel=1e-12)


def test_certified_lipschitz_dominates_samples():
    rng = np.random.default_rng(9)
    box = np.array([[0.05, -1.0], [1.0, 1.0]])
    # a uniform cloud of the box, whose near neighbours are about 0.01 apart, and
    # a 1e-4 grid of the steep strip by x = 1/(6 pi), where the ripple's slope
    # peaks near 81.8: near pairs there probe the localized stretching
    gx, gy = np.meshgrid(0.05 + 1e-4 * np.arange(100), 1e-4 * np.arange(-20, 21))
    strip = np.column_stack([gx.ravel(), gy.ravel()])
    cloud = PointCloud(np.vstack([rng.uniform(box[0], box[1], size=(20000, 2)), strip]), 0.01)
    for f, reached in ((squeeze_map(100.0), 1.0), (ripple_map(), 81.0),
                       (composed_map(squeeze_map(100.0), ripple_map()), 81.0)):
        bound = certified_lipschitz(f, box)
        assert bound is not None
        ratio = classify_contraction(f, cloud, pairs=20000, seed=1).max_ratio
        assert reached < ratio <= bound * (1 + 1e-9)


# --- contraction classification -------------------------------------------------


def test_classify_half_map_strict():
    cloud = PointCloud(np.linspace(0, 1, 101)[:, None], 0.01)
    verdict = classify_contraction(affine_map([[0.5]], [0.0]), cloud)
    assert verdict.kind == "strict"
    assert verdict.max_ratio == pytest.approx(0.5, abs=1e-12)


def test_classify_identity_reports_boundary():
    cloud = PointCloud(np.linspace(0, 1, 101)[:, None], 0.01)
    verdict = classify_contraction(affine_map([[1.0]], [0.0]), cloud)
    assert verdict.kind == "boundary"


def test_classify_catches_parameter_halving_expansion():
    # halving the curve parameter drags points toward the tip, where arcs
    # stretch without bound: local pairs must expose a ratio above one
    needle = build_needle(delta=1e-3)
    cloud = needle.refine(1e-3)
    f = closed_form_map("needle_param_scale", (0.5,))
    verdict = classify_contraction(f, cloud, pairs=20000, seed=0)
    assert verdict.kind == "expansion_witness"
    assert verdict.max_ratio > 1.0
    x, y = verdict.witness
    stretched = np.linalg.norm(eval_map(f, x[None, :]) - eval_map(f, y[None, :]))
    assert stretched > np.linalg.norm(x - y)


# --- Hutchinson step and attractor ----------------------------------------------


def test_hutchinson_monotone_on_well_separated_clouds():
    # exact subset semantics hold when no two inputs share a dedup cell
    rng = np.random.default_rng(6)
    big = rng.permutation(np.stack(np.meshgrid(np.arange(10) / 10.0, np.arange(10) / 10.0),
                                   axis=-1).reshape(-1, 2))
    b2 = PointCloud(big, 1e-3)
    b1 = PointCloud(big[:40], 1e-3)
    f = _sierpinski()
    out1 = {tuple(p) for p in hutchinson(f, b1).points}
    out2 = {tuple(p) for p in hutchinson(f, b2).points}
    assert out1 <= out2


def test_hutchinson_refuses_images_past_its_grid_keys():
    # half-pitch cells of 5e-4: int64 keys hold images out to 4e15 cells, 2e12
    f = _sierpinski()
    near = hutchinson(f, PointCloud(np.array([[0.0, 0.0], [2e12, 0.0]]), 1e-3))
    assert len(near) == 6
    with pytest.raises(ValueError, match="too far out"):
        hutchinson(f, PointCloud(np.array([[0.0, 0.0], [1e13, 0.0]]), 1e-3))


@pytest.mark.parametrize("matrix, point", [
    ([[1e308, 0.0], [0.0, 0.5]], [10.0, 0.0]),  # an infinite image
    ([[1e308, 1e308], [0.0, 0.5]], [10.0, -10.0]),  # inf - inf: a NaN image
])
def test_hutchinson_refuses_images_past_the_float_range(matrix, point):
    f = IfsSpec((affine_map([[0.5, 0.0], [0.0, 0.5]], [0.0, 0.0]),
                 affine_map(matrix, [0.0, 0.0], weak_attested=True)), mode="weak")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="too far out"):
        hutchinson(f, PointCloud(np.array([[0.0, 0.0], point]), 1e-3))


def test_hutchinson_holds_a_small_multiple_of_its_output():
    # no two images share a cell, so the output is every image. The images,
    # their int32 keys and the sort order peak near 2.6 times the output;
    # float64 keys took 3.1, and a step that copies them whole (``|images|``,
    # sorted keys and points) takes 5.1
    f = _sierpinski()
    cloud = PointCloud(np.random.default_rng(9).uniform(size=(30_000, 2)), 1e-7)
    tracemalloc.start()
    try:
        out = hutchinson(f, cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == 90_000
    assert peak < 2.8 * out.points.nbytes


def test_hutchinson_contracts_hausdorff():
    from ifscert.metric import hausdorff

    rng = np.random.default_rng(8)
    f = _sierpinski()
    for _ in range(5):
        a = PointCloud(rng.uniform(size=(200, 2)), 1e-3)
        b = PointCloud(rng.uniform(size=(200, 2)), 1e-3)
        lhs = hausdorff(hutchinson(f, a), hutchinson(f, b))
        assert lhs <= 0.5 * hausdorff(a, b) + 2e-3


def test_ifs_mode_validation():
    grower = affine_map([[1.5]], [0.0])
    with pytest.raises(ValueError, match="strict"):
        IfsSpec((grower,))
    with pytest.raises(ValueError, match="weak"):
        IfsSpec((grower,), mode="weak")
    ok = IfsSpec((affine_map([[1.0]], [0.0]),), mode="weak")
    assert ok.contraction_factor == 1.0
    unknown = closed_form_map("needle_param_scale", (0.5,), weak_attested=True)
    assert IfsSpec((unknown,), mode="weak").contraction_factor is None


def test_attractor_interval_fixed_point():
    seed = PointCloud(np.array([[0.0], [0.37], [1.0]]), 2.5e-4)
    result = attractor(_halves_1d(), seed, tol=2.5e-4)
    assert result.converged
    from ifscert.metric import hausdorff

    reference = PointCloud(np.linspace(0, 1, 4097)[:, None], 2.5e-4)
    assert hausdorff(result.cloud, reference) < 1e-3
    assert result.tail_bound == pytest.approx(result.steps[-1], rel=1e-12)  # factor 0.5


def test_attractor_steps_contract_and_seed_choice_washes_out():
    f = _sierpinski()
    tol = 2e-3
    r1 = attractor(f, PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]), tol), tol=tol)
    r2 = attractor(f, PointCloud(np.array([[0.3, 0.9], [0.7, 0.1], [0.2, 0.2]]), tol), tol=tol)
    steps = np.array(r1.steps)
    assert np.all(steps[4:] <= 0.5 * steps[3:-1] + 2 * tol)
    from ifscert.metric import hausdorff

    assert hausdorff(r1.cloud, r2.cloud) <= 3 * tol


def test_attractor_matches_chaos_game():
    from ifscert.metric import hausdorff

    f = _sierpinski()
    tol = 2e-3
    result = attractor(f, PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]), tol), tol=tol)
    pairs = [(np.array(m.matrix), np.array(m.offset)) for m in f.maps]
    sample = chaos_game(pairs, 400000, seed=123)
    assert hausdorff(result.cloud, PointCloud(sample, tol)) < 2e-3


def test_attractor_holds_one_kdtree_at_a_time_over_its_cloud(monkeypatch):
    # the old cloud's tree is gone before the new cloud's is built, and each
    # tree shares its cloud's frozen points; the steps stay the Hausdorff
    # distances between successive clouds
    trees, live_at_build, shared = [], [], []

    class Recording(cKDTree):
        def __init__(self, data, **kwargs):
            live_at_build.append(sum(ref() is not None for ref in trees))
            super().__init__(data, **kwargs)
            shared.append(np.shares_memory(self.data, data))
            trees.append(weakref.ref(self))

    monkeypatch.setattr(ifs, "cKDTree", Recording)
    f = _sierpinski()
    seed = PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]), 2e-3)
    result = attractor(f, seed, tol=2e-3)
    assert len(trees) == len(result.steps) + 1
    assert live_at_build == [0] * len(trees)
    assert all(shared)
    monkeypatch.undo()
    from ifscert.metric import hausdorff

    clouds = [seed]
    for _ in result.steps:
        clouds.append(hutchinson(f, clouds[-1]))
    assert list(result.steps) == [hausdorff(b, a) for a, b in zip(clouds, clouds[1:])]
    assert result.cloud.points.tobytes() == clouds[-1].points.tobytes()


def test_attractor_refuses_weak_mode():
    weak = IfsSpec((affine_map([[1.0]], [0.0], weak_attested=True),), mode="weak")
    with pytest.raises(ValueError, match="strict mode"):
        attractor(weak, PointCloud(np.array([[0.0], [1.0]]), 1e-3))
