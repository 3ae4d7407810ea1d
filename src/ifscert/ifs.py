"""Iterated function systems: map specs, Lipschitz evidence, set iteration.

A map spec is declarative so files can describe systems exactly. Certified
Lipschitz bounds exist for affine maps, the needle squeeze and ripple on
boxes, and compositions through interval image boxes; everything else gets
empirical estimates only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial import cKDTree

from . import continua
from .geometry import PointCloud
from .metric import hausdorff

KIND_AFFINE = "affine"
KIND_SQUEEZE = "needle_h1"
KIND_RIPPLE = "needle_h2"
KIND_COMPOSITION = "composition"
KIND_CLOSED_FORM = "closed_form"

MODE_STRICT = "strict"
MODE_WEAK = "weak"

# Ratio thresholds for empirical contraction classification.
_EXPANSION_EDGE = 1.0 + 1e-9
_IDENTITY_EDGE = 1.0 - 1e-9

_INT_KEY_LIMIT = 4e15


@dataclass(frozen=True)
class MapSpec:
    """Declarative description of one map of an iterated function system.

    ``parts`` of a composition are applied first-listed-first. ``lip_bound``
    is a Lipschitz bound on ``region`` (a ``(2, dim)`` box) or globally when
    no region is given; it is certified for the kinds listed in
    :func:`certified_lipschitz` and otherwise only as declared by the author.
    """

    kind: str
    dimension: int
    matrix: np.ndarray | None = None
    offset: np.ndarray | None = None
    sharpness: float = continua.DEFAULT_SHARPNESS
    parts: tuple["MapSpec", ...] = ()
    form: str = ""
    params: tuple[float, ...] = ()
    lip_bound: float | None = None
    region: np.ndarray | None = None
    weak_attested: bool = False

    def __post_init__(self):
        if self.kind not in (KIND_AFFINE, KIND_SQUEEZE, KIND_RIPPLE, KIND_COMPOSITION, KIND_CLOSED_FORM):
            raise ValueError(f"unknown map kind {self.kind!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if self.kind == KIND_AFFINE:
            m = np.asarray(self.matrix, dtype=float)
            b = np.asarray(self.offset, dtype=float)
            if m.shape != (self.dimension, self.dimension) or b.shape != (self.dimension,):
                raise ValueError("affine map needs a square matrix and matching offset")
            m.setflags(write=False)
            b.setflags(write=False)
            object.__setattr__(self, "matrix", m)
            object.__setattr__(self, "offset", b)
        if self.kind == KIND_COMPOSITION and not self.parts:
            raise ValueError("composition needs at least one part")
        if self.kind == KIND_CLOSED_FORM and self.form not in _CLOSED_FORMS:
            raise ValueError(f"unknown closed form {self.form!r}")
        if self.region is not None:
            r = np.asarray(self.region, dtype=float)
            if r.shape != (2, self.dimension) or np.any(r[0] > r[1]):
                raise ValueError("region must be a (2, dim) box with lo <= hi")
            r.setflags(write=False)
            object.__setattr__(self, "region", r)


def _closed_param_scale(params, pts):
    (factor,) = params
    return np.clip(pts[:, 0] * factor, 0.0, 1.0)


def _closed_param_affine(params, pts):
    a, b = params
    return np.clip(a + b * pts[:, 0], 0.0, 1.0)


def _closed_param_tent(params, pts):
    a, c = params
    return np.clip(a * np.abs(pts[:, 0] - c), 0.0, 1.0)


# Closed forms reparametrise the default needle: the first coordinate is the
# curve parameter, the output point is back on the curve.
_CLOSED_FORMS = {
    "needle_param_scale": (1, _closed_param_scale),
    "needle_param_affine": (2, _closed_param_affine),
    "needle_param_tent": (2, _closed_param_tent),
}


def closed_form_arity(form: str) -> int:
    if form not in _CLOSED_FORMS:
        raise ValueError(f"unknown closed form {form!r}")
    return _CLOSED_FORMS[form][0]


def eval_map(spec: MapSpec, points) -> np.ndarray:
    """Apply the map to an ``(N, dim)`` array (or a single point)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    single = np.asarray(points).ndim == 1
    if pts.shape[1] != spec.dimension:
        raise ValueError(f"points have dimension {pts.shape[1]}, map expects {spec.dimension}")
    if spec.region is not None:
        slack = 1e-9 * max(1.0, float(np.abs(spec.region).max()))
        if np.any(pts < spec.region[0] - slack) or np.any(pts > spec.region[1] + slack):
            raise ValueError("points leave the map's declared region")
    if spec.kind == KIND_AFFINE:
        out = pts @ spec.matrix.T + spec.offset
    elif spec.kind == KIND_SQUEEZE:
        out = continua.needle_h1(pts, spec.sharpness)
    elif spec.kind == KIND_RIPPLE:
        out = continua.needle_h2(pts)
    elif spec.kind == KIND_COMPOSITION:
        out = pts
        for part in spec.parts:
            out = eval_map(part, out)
    else:
        arity, fn = _CLOSED_FORMS[spec.form]
        if len(spec.params) != arity:
            raise ValueError(f"{spec.form} takes {arity} parameters")
        if spec.dimension != 2:
            raise ValueError("closed needle forms live in dimension 2")
        t = fn(spec.params, pts)
        out = np.column_stack((t, continua.needle_wave(t)))
    return out[0] if single else out


def affine_map(matrix, offset, dimension: int | None = None, **kw) -> MapSpec:
    """Affine map with its exact spectral-norm Lipschitz bound filled in."""
    m = np.asarray(matrix, dtype=float)
    dim = dimension or m.shape[0]
    spec = MapSpec(KIND_AFFINE, dim, matrix=m, offset=np.asarray(offset, dtype=float), **kw)
    if spec.lip_bound is None:
        spec = replace(spec, lip_bound=float(np.linalg.svd(m, compute_uv=False)[0]))
    return spec


def squeeze_map(sharpness: float = continua.DEFAULT_SHARPNESS, dimension: int = 2,
                region=None) -> MapSpec:
    """The needle squeeze on its canonical box, with a certified bound."""
    if region is None:
        region = np.vstack([np.full(dimension, -1.0), np.ones(dimension)])
        region[0, 0] = 0.0
    spec = MapSpec(KIND_SQUEEZE, dimension, sharpness=sharpness, region=np.asarray(region, dtype=float))
    return replace(spec, lip_bound=certified_lipschitz(spec, spec.region))


def ripple_map(dimension: int = 2, region=None) -> MapSpec:
    spec = MapSpec(KIND_RIPPLE, dimension, region=None if region is None else np.asarray(region, dtype=float))
    if spec.region is not None:
        spec = replace(spec, lip_bound=certified_lipschitz(spec, spec.region))
    return spec


def closed_form_map(form: str, params, dimension: int = 2, **kw) -> MapSpec:
    """Curve reparametrisation given by a registered closed form."""
    params = tuple(float(p) for p in params)
    if len(params) != closed_form_arity(form):
        raise ValueError(f"{form} takes {closed_form_arity(form)} parameters, got {len(params)}")
    return MapSpec(KIND_CLOSED_FORM, dimension, form=form, params=params, **kw)


def composed_map(*parts: MapSpec, region=None, lip_bound=None) -> MapSpec:
    dim = parts[0].dimension
    spec = MapSpec(KIND_COMPOSITION, dim, parts=tuple(parts),
                   region=None if region is None else np.asarray(region, dtype=float),
                   lip_bound=lip_bound)
    if spec.lip_bound is None and spec.region is not None:
        spec = replace(spec, lip_bound=certified_lipschitz(spec, spec.region))
    if spec.lip_bound is None and all(p.lip_bound is not None for p in parts):
        spec = replace(spec, lip_bound=float(np.prod([p.lip_bound for p in parts])))
    return spec


def interval_image(spec: MapSpec, box: np.ndarray) -> np.ndarray:
    """A box guaranteed to contain the image of ``box``."""
    box = np.asarray(box, dtype=float)
    lo, hi = box
    if spec.kind == KIND_AFFINE:
        c = spec.matrix @ ((lo + hi) / 2) + spec.offset
        h = np.abs(spec.matrix) @ ((hi - lo) / 2)
        return np.vstack([c - h, c + h])
    if spec.kind == KIND_SQUEEZE:
        out = np.vstack([lo.copy(), hi.copy()])
        for i in range(1, spec.dimension):
            corners = np.array([lo[0] * lo[i], lo[0] * hi[i], hi[0] * lo[i], hi[0] * hi[i]])
            out[0, i], out[1, i] = corners.min() / spec.sharpness, corners.max() / spec.sharpness
        return out
    if spec.kind == KIND_RIPPLE:
        if lo[0] < 0:
            raise ValueError("ripple image box needs x1 >= 0")
        amp = math.sqrt(hi[0])
        out = np.vstack([lo.copy(), hi.copy()])
        out[0, 1] -= amp
        out[1, 1] += amp
        return out
    if spec.kind == KIND_COMPOSITION:
        cur = box
        for part in spec.parts:
            cur = interval_image(part, cur)
        return cur
    # closed needle forms: parameter range then curve amplitude
    t_corners = eval_map(spec, np.array([[lo[0], 0.0], [hi[0], 0.0]]))[:, 0]
    t_hi = float(max(t_corners.max(), 0.0))
    if spec.form == "needle_param_tent":
        t_hi = float(max(
            t_hi,
            eval_map(spec, np.array([[min(max(spec.params[1], lo[0]), hi[0]), 0.0]]))[0, 0],
        ))
    amp = math.sqrt(t_hi) if t_hi > 0 else 0.0
    return np.vstack([[min(t_corners.min(), 0.0), -amp], [t_hi, amp]])


def certified_lipschitz(spec: MapSpec, box) -> float | None:
    """A proved Lipschitz bound for the map on ``box``, or None.

    Affine: the largest singular value. Squeeze on a box: the Cauchy-Schwarz
    bound ``sqrt(1 + (max |x_tail|^2 + max |x1|^2) / s^2)``. Ripple on a box
    with ``x1 >= a > 0``: one plus the slope bound of the wave on ``[a, inf)``.
    Compositions: the product of part bounds over propagated image boxes.
    """
    if spec.kind == KIND_AFFINE:
        return float(np.linalg.svd(spec.matrix, compute_uv=False)[0])
    if box is None:
        return None
    box = np.asarray(box, dtype=float)
    lo, hi = box
    if spec.kind == KIND_SQUEEZE:
        tail_sq = float((np.maximum(np.abs(lo[1:]), np.abs(hi[1:])) ** 2).sum())
        x1_sq = float(max(abs(lo[0]), abs(hi[0])) ** 2)
        return math.sqrt(1.0 + (tail_sq + x1_sq) / spec.sharpness**2)
    if spec.kind == KIND_RIPPLE:
        if lo[0] <= 0:
            return None
        return 1.0 + continua.needle_wave_slope_bound(float(lo[0]))
    if spec.kind == KIND_COMPOSITION:
        bound = 1.0
        cur = box
        for part in spec.parts:
            li = certified_lipschitz(part, cur)
            if li is None:
                return None
            bound *= li
            cur = interval_image(part, cur)
        return bound
    return None


def lipschitz_estimate(spec: MapSpec, box, pairs: int = 20000, seed: int = 0):
    """(empirical lower bound, certified upper bound or None) on ``box``.

    Half the sample are independent uniform pairs, half are short local
    pairs; localized stretching (steep spots of non-smooth maps) only shows
    up in the latter.
    """
    box = np.asarray(box, dtype=float)
    rng = np.random.default_rng(seed)
    n = max(2, pairs // 2)
    lo, hi = box
    a = rng.uniform(lo, hi, size=(n, spec.dimension))
    b = rng.uniform(lo, hi, size=(n, spec.dimension))
    scale = float(np.max(hi - lo))
    c = rng.uniform(lo, hi, size=(n, spec.dimension))
    d = np.clip(c + rng.normal(scale=1e-4 * scale, size=c.shape), lo, hi)
    x = np.vstack([a, c])
    y = np.vstack([b, d])
    num = np.linalg.norm(eval_map(spec, x) - eval_map(spec, y), axis=1)
    den = np.linalg.norm(x - y, axis=1)
    good = den > 0
    ratios = num[good] / den[good]
    lower = float(ratios.max()) if len(ratios) else 0.0
    return lower, certified_lipschitz(spec, box)


@dataclass(frozen=True)
class ContractionVerdict:
    """Outcome of empirical contraction classification over a cloud."""

    kind: str  # "strict" | "weak_candidate" | "boundary" | "expansion_witness"
    max_ratio: float
    witness: tuple[np.ndarray, np.ndarray] | None = None


def classify_contraction(spec: MapSpec, cloud: PointCloud, pairs: int = 20000,
                         seed: int = 0) -> ContractionVerdict:
    """Classify the map on sampled pairs of ``cloud``.

    ``strict``: every ratio clearly below one. ``expansion_witness``: some
    pair stretched, witness attached. ``boundary``: all sampled ratios pinned
    at one (isometry-like). ``weak_candidate``: mixed, maximum at one.
    """
    pts = cloud.points
    n = len(pts)
    rng = np.random.default_rng(seed)
    m = max(2, pairs // 2)
    i = rng.integers(0, n, size=m)
    j = rng.integers(0, n, size=m)
    k = min(8, n - 1)
    tree = cKDTree(pts)
    li = rng.integers(0, n, size=m)
    neigh = tree.query(pts[li], k=k + 1)[1]
    lj = neigh[np.arange(m), rng.integers(1, k + 1, size=m)]
    ii = np.concatenate([i, li])
    jj = np.concatenate([j, lj])
    keep = ii != jj
    ii, jj = ii[keep], jj[keep]
    fx = eval_map(spec, pts[ii])
    fy = eval_map(spec, pts[jj])
    num = np.linalg.norm(fx - fy, axis=1)
    den = np.linalg.norm(pts[ii] - pts[jj], axis=1)
    good = den > 0
    ratios = num[good] / den[good]
    if not len(ratios):
        return ContractionVerdict("boundary", 1.0)
    worst = int(np.argmax(ratios))
    max_ratio = float(ratios[worst])
    if max_ratio > _EXPANSION_EDGE:
        wi = pts[ii[good][worst]].copy()
        wj = pts[jj[good][worst]].copy()
        return ContractionVerdict("expansion_witness", max_ratio, (wi, wj))
    if max_ratio < _IDENTITY_EDGE:
        return ContractionVerdict("strict", max_ratio)
    if float(ratios.min()) >= _IDENTITY_EDGE:
        return ContractionVerdict("boundary", max_ratio)
    return ContractionVerdict("weak_candidate", max_ratio)


@dataclass(frozen=True)
class IfsSpec:
    """A finite family of map specs with a declared contraction mode."""

    maps: tuple[MapSpec, ...]
    mode: str = MODE_STRICT
    dimension: int | None = None

    def __post_init__(self):
        if not self.maps:
            raise ValueError("an IFS needs at least one map")
        if self.dimension is None:
            object.__setattr__(self, "dimension", self.maps[0].dimension)
        if self.mode not in (MODE_STRICT, MODE_WEAK):
            raise ValueError("mode must be strict or weak")
        for m in self.maps:
            if m.dimension != self.dimension:
                raise ValueError("map dimension mismatch")
        if self.mode == MODE_STRICT:
            for m in self.maps:
                if m.lip_bound is None or not m.lip_bound < 1:
                    raise ValueError(
                        "strict mode requires every map to carry a Lipschitz bound below one"
                    )
        else:
            for m in self.maps:
                ok = (m.lip_bound is not None and m.lip_bound <= 1) or m.weak_attested
                if not ok:
                    raise ValueError(
                        "weak mode requires lip_bound <= 1 or an explicit attestation"
                    )

    @property
    def contraction_factor(self) -> float | None:
        bounds = [m.lip_bound for m in self.maps]
        if any(b is None for b in bounds):
            return None
        return float(max(bounds))


def hutchinson(ifs: IfsSpec, cloud: PointCloud) -> PointCloud:
    """One set-map step: union of map images, deduplicated on a half-pitch grid.

    The output pitch is ``pitch * max(lip_bound)`` (one where a bound is
    missing): images of a pitch net stay a pitch net up to the map stretch.
    """
    images = [eval_map(m, cloud.points) for m in ifs.maps]
    allp = np.vstack(images)
    cell = cloud.pitch / 2
    if np.abs(allp).max() / cell < _INT_KEY_LIMIT:
        keys = np.round(allp / cell).astype(np.int64)
        # group equal cells, then pick the lexicographically smallest point
        order = np.lexsort(tuple(allp.T[::-1]) + tuple(keys.T[::-1]))
        keys = keys[order]
        allp = allp[order]
        first = np.ones(len(allp), dtype=bool)
        first[1:] = np.any(keys[1:] != keys[:-1], axis=1)
        allp = allp[first]
    factors = [m.lip_bound if m.lip_bound is not None else 1.0 for m in ifs.maps]
    # a pitch is an upper bound on sample spacing, so a degenerate (all maps
    # constant) image may keep the input pitch rather than claim zero
    return PointCloud(allp, cloud.pitch * max(max(factors), 1e-6))


@dataclass(frozen=True)
class AttractorResult:
    """Fixed-cloud iteration outcome with its a-posteriori error bound."""

    cloud: PointCloud
    steps: tuple[float, ...]
    converged: bool
    tail_bound: float
    factor: float

    def report_rows(self):
        return [(k, s) for k, s in enumerate(self.steps, start=1)]


def attractor(ifs: IfsSpec, seed_cloud: PointCloud, tol: float = 1e-3,
              max_iter: int = 60) -> AttractorResult:
    """Iterate the set map from ``seed_cloud`` until steps fall below ``tol``.

    Refuses weak mode: without a uniform factor below one the step sequence
    carries no convergence guarantee. The final Hausdorff distance to the
    true attractor is at most ``tail_bound = step * factor / (1 - factor)``
    plus the resolution of the final cloud.
    """
    if ifs.mode != MODE_STRICT:
        raise ValueError("attractor iteration requires strict mode")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, not {max_iter}")
    lam = ifs.contraction_factor
    current = seed_cloud
    tree = cKDTree(current.points)
    steps: list[float] = []
    for _ in range(max_iter):
        nxt = hutchinson(ifs, current)
        # each cloud's tree serves two steps: as the new cloud, then as the old
        nxt_tree = cKDTree(nxt.points)
        step = hausdorff(nxt, current, trees=(nxt_tree, tree))
        steps.append(step)
        current, tree = nxt, nxt_tree
        if step < tol:
            return AttractorResult(current, tuple(steps), True, step * lam / (1 - lam), lam)
    return AttractorResult(current, tuple(steps), False, steps[-1] * lam / (1 - lam), lam)
