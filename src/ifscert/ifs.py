"""Iterated function systems: map specs, Lipschitz evidence, set iteration.

A map spec is declarative so files can describe systems exactly. Certified
Lipschitz bounds exist for affine maps, the needle squeeze and ripple on
boxes, and compositions through interval image boxes; everything else gets
empirical estimates only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import continua
from .geometry import PointCloud
from .metric import _finite_gap, _nearest_distances, _pass_tree, _release_freed_memory

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
# below this many cells out every key rounds to at most 2**31 - 1 and fits an int32
_INT32_KEY_LIMIT = 2.0 ** 31 - 1


def squeeze_box(dim: int) -> np.ndarray:
    """The canonical box ``[0, 1] x [-1, 1]^(dim - 1)``, the domain of a squeeze map."""
    return np.vstack([np.r_[0.0, np.full(dim - 1, -1.0)], np.ones(dim)])


@dataclass(frozen=True)
class MapSpec:
    """Declarative description of one map of an iterated function system.

    Construction checks and completes every spec, from code or from a file:
    ``affine`` needs a finite ``(dim, dim)`` matrix and ``(dim,)`` offset;
    ``needle_h1`` (squeeze) needs ``0 < sharpness < inf`` and acts on
    :func:`squeeze_box`; ``needle_h2`` (ripple) needs ``dim >= 2``;
    ``closed_form`` needs a registered form, its number of params and
    ``dim == 2``; a ``composition`` needs parts, all of dimension ``dim``,
    applied first-listed-first.

    ``lip_bound`` is a Lipschitz bound on the squeeze box for a squeeze and
    globally for any other map. A declared bound stays as given; else it is
    :func:`certified_lipschitz` (on the squeeze box for a squeeze), else for
    a composition the product of its parts' bounds when all have one, else
    None.
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
    weak_attested: bool = False

    def __post_init__(self):
        if self.kind not in (KIND_AFFINE, KIND_SQUEEZE, KIND_RIPPLE, KIND_COMPOSITION, KIND_CLOSED_FORM):
            raise ValueError(f"unknown map kind {self.kind!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if self.lip_bound is not None and not self.lip_bound >= 0:
            raise ValueError(f"a Lipschitz bound must be >= 0, not {self.lip_bound!r}")
        dim = self.dimension
        if self.kind == KIND_AFFINE:
            m = np.asarray(self.matrix, dtype=float)
            b = np.asarray(self.offset, dtype=float)
            if m.shape != (dim, dim) or b.shape != (dim,):
                raise ValueError("affine map needs a square matrix and matching offset")
            if not (np.isfinite(m).all() and np.isfinite(b).all()):
                raise ValueError("affine coefficients must be finite")
            m.setflags(write=False)
            b.setflags(write=False)
            object.__setattr__(self, "matrix", m)
            object.__setattr__(self, "offset", b)
        elif self.kind == KIND_SQUEEZE:
            if not 0 < self.sharpness < math.inf:
                raise ValueError("needle_h1 sharpness must be finite and positive")
        elif self.kind == KIND_RIPPLE:
            if dim < 2:
                raise ValueError("needle_h2 needs dimension at least 2")
        elif self.kind == KIND_CLOSED_FORM:
            if self.form not in _CLOSED_FORMS:
                raise ValueError(f"unknown closed form {self.form!r}")
            arity = _CLOSED_FORMS[self.form][0]
            if len(self.params) != arity:
                raise ValueError(f"{self.form} takes {arity} parameters, got {len(self.params)}")
            if dim != 2:
                raise ValueError("closed needle forms live in dimension 2")
            object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        else:
            if not self.parts:
                raise ValueError("empty composition: a composition needs at least one part")
            if any(p.dimension != dim for p in self.parts):
                raise ValueError(f"every part of a composition needs dimension {dim}")
        if self.lip_bound is None:
            lip = certified_lipschitz(self, squeeze_box(dim) if self.kind == KIND_SQUEEZE else None)
            part_lips = [p.lip_bound for p in self.parts]
            if lip is None and self.kind == KIND_COMPOSITION and None not in part_lips:
                lip = float(np.prod(part_lips))
            object.__setattr__(self, "lip_bound", lip)


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


def eval_map(spec: MapSpec, points) -> np.ndarray:
    """Apply the map (checked when built) to an ``(N, dim)`` array or one point."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    single = np.asarray(points).ndim == 1
    if pts.shape[1] != spec.dimension:
        raise ValueError(f"points have dimension {pts.shape[1]}, map expects {spec.dimension}")
    if spec.kind == KIND_SQUEEZE:
        box = squeeze_box(spec.dimension)
        if np.any(pts < box[0] - 1e-9) or np.any(pts > box[1] + 1e-9):
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
        t = _CLOSED_FORMS[spec.form][1](spec.params, pts)
        out = np.column_stack((t, continua.needle_wave(t)))
    return out[0] if single else out


# shorthands for ``MapSpec(kind, dim, ...)``, which checks and completes the spec


def affine_map(matrix, offset, dimension: int | None = None, **kw) -> MapSpec:
    return MapSpec(KIND_AFFINE, dimension or len(matrix), matrix=matrix, offset=offset, **kw)


def squeeze_map(sharpness: float = continua.DEFAULT_SHARPNESS, dimension: int = 2, **kw) -> MapSpec:
    return MapSpec(KIND_SQUEEZE, dimension, sharpness=sharpness, **kw)


def ripple_map(dimension: int = 2, **kw) -> MapSpec:
    return MapSpec(KIND_RIPPLE, dimension, **kw)


def closed_form_map(form: str, params, dimension: int = 2, **kw) -> MapSpec:
    return MapSpec(KIND_CLOSED_FORM, dimension, form=form, params=tuple(params), **kw)


def composed_map(*parts: MapSpec, **kw) -> MapSpec:
    return MapSpec(KIND_COMPOSITION, parts[0].dimension if parts else 1, parts=parts, **kw)


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


def check_map(spec: MapSpec, mode: str, dimension: int) -> None:
    """Refuse ``spec`` as a map of a ``mode`` system in ``dimension``."""
    if spec.dimension != dimension:
        raise ValueError("map dimension mismatch")
    if mode == MODE_STRICT:
        if spec.lip_bound is None or not spec.lip_bound < 1:
            raise ValueError("strict mode requires every map to carry a Lipschitz bound below one")
    elif not ((spec.lip_bound is not None and spec.lip_bound <= 1) or spec.weak_attested):
        raise ValueError("weak mode requires lip_bound <= 1 or an explicit attestation")


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
            check_map(m, self.mode, self.dimension)

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
    An image too far out for int64 grid keys at this pitch is refused:
    without the dedupe each step would grow the cloud by the map count. The
    keys are held as int32 where every one fits, else as whole float64s.

    Each cell keeps its lexicographically smallest point (the first image,
    in map-then-point order, among equal ones), and the cells come out in
    key order. The images and their keys are held one coordinate per row,
    so every sort key is contiguous and the sort copies none of them.
    """
    n, dim = cloud.points.shape
    allp = np.empty((dim, len(ifs.maps) * n))
    with np.errstate(over="ignore", invalid="ignore"):  # the extent check refuses inf and NaN
        for j, m in enumerate(ifs.maps):
            allp[:, j * n:(j + 1) * n] = eval_map(m, cloud.points).T
    cell = cloud.pitch / 2
    # the largest |coordinate|; a NaN image makes it NaN, which is refused
    extent = float(max(-allp.min(), allp.max()))
    with np.errstate(over="ignore"):  # a ratio that overflows is past the limit too
        if not extent / cell < _INT_KEY_LIMIT:
            raise ValueError(f"set-map image reaches {extent:.3g}, too far out for grid cells of {cell:.3g}")
    # whole floats below 2^53 order and compare as their integer values (-0.0
    # as 0); int32 keys take half the room, float64 keys hold what they cannot
    keys = np.empty(allp.shape, dtype=np.int32 if extent / cell < _INT32_KEY_LIMIT else float)
    row = np.empty(allp.shape[1])
    for axis in range(dim):
        np.divide(allp[axis], cell, out=row)
        np.rint(row, out=keys[axis], casting="unsafe")
    del row
    # group equal cells, then pick the lexicographically smallest point; each
    # full-size temporary is dropped before the next one is made
    order = np.lexsort(tuple(allp[::-1]) + tuple(keys[::-1]))
    first = np.zeros(len(order), dtype=bool)
    first[0] = True
    for axis in range(dim):
        ranked = keys[axis, order]
        first[1:] |= ranked[1:] != ranked[:-1]
        del ranked
    del keys
    keep = order[first]
    del order, first
    # gathered through the transposed view, the kept points come out row by row
    out = allp.T[keep]
    factors = [m.lip_bound if m.lip_bound is not None else 1.0 for m in ifs.maps]
    # a pitch is an upper bound on sample spacing, so a degenerate (all maps
    # constant) image may keep the input pitch rather than claim zero
    return PointCloud(out, cloud.pitch * max(max(factors), 1e-6))


@dataclass(frozen=True)
class AttractorResult:
    """Fixed-cloud iteration outcome with its a-posteriori error bound."""

    cloud: PointCloud
    steps: tuple[float, ...]
    converged: bool
    tail_bound: float


def attractor(ifs: IfsSpec, seed_cloud: PointCloud, tol: float = 1e-3,
              max_iter: int = 60) -> AttractorResult:
    """Iterate the set map from ``seed_cloud`` until steps fall below ``tol``.

    Refuses weak mode: without a uniform factor below one the step sequence
    carries no convergence guarantee. The final Hausdorff distance to the
    true attractor is at most ``tail_bound = step * factor / (1 - factor)``
    plus the resolution of the final cloud.

    Each step is the Hausdorff distance between successive clouds, as
    :func:`metric.hausdorff` computes it: two exact passes, each against a
    ``metric._pass_tree``. One tree is held at a time: the new cloud is
    measured against the old cloud's tree, which then goes, and the new
    cloud's tree takes the reverse pass and the next step.
    """
    if ifs.mode != MODE_STRICT:
        raise ValueError("attractor iteration requires strict mode")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, not {max_iter}")
    lam = ifs.contraction_factor
    current = seed_cloud
    tree = _pass_tree(current.points)
    steps: list[float] = []
    for _ in range(max_iter):
        nxt = hutchinson(ifs, current)
        _release_freed_memory()  # the step's freed temporaries, before the next tree
        far_new = _nearest_distances(tree, nxt.points).max()
        del tree
        tree = _pass_tree(nxt.points)
        step = _finite_gap(far_new, _nearest_distances(tree, current.points).max())
        steps.append(step)
        current = nxt
        if step < tol:
            return AttractorResult(current, tuple(steps), True, step * lam / (1 - lam))
    return AttractorResult(current, tuple(steps), False, steps[-1] * lam / (1 - lam))
