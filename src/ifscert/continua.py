"""Built-in continua: the oscillating needle embedding and the zigzag union.

The needle is the image of a base segment under ``squeeze`` then ``ripple``:
``squeeze`` flattens all but the first coordinate by a factor ``x1 / s`` and
``ripple`` adds ``sqrt(x1) * sin(1 / x1)`` to the second coordinate. The
zigzag union packs a broken line of length ``2**n`` into a polar wedge of
size ``2**-n`` for each ``n``, all glued at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import (
    ContinuumModel,
    PointCloud,
    Polyline,
    as_point,
    polar_to_cartesian,
    polyline_length,
    self_intersects,
)

DEFAULT_SHARPNESS = 100.0

# Zigzag layout fractions of the wedge scale 2**-n: teeth run between the
# inner and outer radius, inside a corridor narrower than the wedge.
_RADIAL_INNER = 0.1
_RADIAL_OUTER = 0.9
_ANGULAR_FILL = 0.8
_TRIM_FLOOR = 0.02

ZIGZAG_MAX_N = 12

# A refined needle cloud keeps full pitch where the oscillation branches are
# farther apart than this multiple of the pitch; below that scale it follows
# the zero crossings of the wave, which is what epsilon-chains do anyway.
SHORTCUT_PITCHES = 10.0

_MAX_SAMPLE_POINTS = 20_000_000


def needle_wave(x) -> np.ndarray:
    """The scalar ripple ``sqrt(x) * sin(1/x)``, extended by 0 at ``x = 0``."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError("the ripple is only defined for x >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(arr > 0, np.sqrt(arr) * np.sin(1.0 / np.where(arr > 0, arr, 1.0)), 0.0)
    return out if out.ndim else float(out)


def needle_wave_slope_bound(a: float) -> float:
    """Upper bound for ``|needle_wave'|`` on ``[a, inf)``, ``a > 0``."""
    if a <= 0:
        raise ValueError("need a > 0")
    return 0.5 / math.sqrt(a) + a ** -1.5


def needle_h1(points, sharpness: float = DEFAULT_SHARPNESS) -> np.ndarray:
    """Squeeze: ``(x1, x2, ..) -> (x1, (x1 / s) x2, ..)``."""
    if sharpness <= 0:
        raise ValueError("sharpness must be positive")
    p = np.atleast_2d(np.asarray(points, dtype=float))
    out = p.copy()
    out[:, 1:] = p[:, 1:] * (p[:, :1] / sharpness)
    return out if np.asarray(points).ndim == 2 else out[0]


def needle_h2(points) -> np.ndarray:
    """Ripple: add ``needle_wave(x1)`` to the second coordinate; ``x1 >= 0`` only."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    if p.shape[1] < 2:
        raise ValueError("the ripple needs at least two coordinates")
    if np.any(p[:, 0] < 0):
        raise ValueError("the ripple is only defined for x1 >= 0")
    out = p.copy()
    out[:, 1] = p[:, 1] + needle_wave(p[:, 0])
    return out if np.asarray(points).ndim == 2 else out[0]


def needle_map(points, sharpness: float = DEFAULT_SHARPNESS) -> np.ndarray:
    """The full embedding: squeeze, then ripple."""
    return needle_h2(needle_h1(points, sharpness))


def needle_offset(points) -> np.ndarray:
    """Upper bound on the distance from each 2-D point to the default needle.

    Measures against the vertical projection onto the curve, so it is exact
    for on-curve points and conservative everywhere else.
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    x = np.clip(p[:, 0], 0.0, 1.0)
    excess = np.maximum(np.maximum(p[:, 0] - 1.0, -p[:, 0]), 0.0)
    return np.hypot(excess, np.abs(p[:, 1] - needle_wave(x)))


# ---------------------------------------------------------------------------
# needle model


def _needle_zone_points(delta: float, shortcut_scale: float) -> np.ndarray:
    """Ordered on-curve samples of ``(x, needle_wave(x))`` on ``[0, 1]``.

    Full arc pitch ``delta`` where consecutive zero crossings are farther
    apart than a quarter of ``shortcut_scale``; below that the samples follow
    the zero crossings at ``delta/2`` x-steps, which keeps every hop well
    under ``shortcut_scale`` without spending points on folds that chains
    with hops below that scale skip across anyway.
    """
    if delta <= 0 or shortcut_scale <= 0:
        raise ValueError("delta and shortcut_scale must be positive")
    sigma = shortcut_scale
    x_full = min(0.25, math.sqrt(sigma / (4 * math.pi)))
    x_dense = min(math.sqrt(delta / (2 * math.pi)), x_full)
    x_tip = min((delta / 4) ** 2, x_dense)

    parts = [np.arange(0.0, x_tip, delta / 2)]
    if not len(parts[0]):
        parts[0] = np.array([0.0])

    # largest zero crossing at or below x_full; the arc-true zone starts there
    k_lo = max(1, math.ceil(1.0 / (math.pi * x_full)))
    x_start = 1.0 / (math.pi * k_lo)

    if x_dense > x_tip:
        grid = np.arange(x_tip + delta / 2, x_dense, delta / 2)
        if len(grid):
            ks = np.maximum(1, np.round(1.0 / (math.pi * grid)))
            parts.append(np.unique(1.0 / (math.pi * ks)))
    k_hi = max(k_lo, math.floor(1.0 / (math.pi * max(x_dense, x_tip))))
    if k_hi > k_lo:
        parts.append(1.0 / (math.pi * np.arange(k_hi, k_lo, -1, dtype=float)))

    # arc-length-paced samples from x_start to 1, in dyadic speed bands
    step = 0.8 * delta
    lo = x_start
    while lo < 1.0:
        hi = min(1.0, 2 * lo)
        vmax = 1.0 + needle_wave_slope_bound(lo)
        m = int(math.ceil((hi - lo) * vmax / (0.2 * delta)))
        if m + 1 > _MAX_SAMPLE_POINTS:
            raise MemoryError("needle refinement too fine; raise delta")
        xs = np.linspace(lo, hi, m + 1)
        ys = needle_wave(xs)
        cum = np.concatenate([[0.0], np.cumsum(np.hypot(np.diff(xs), np.diff(ys)))])
        marks = np.arange(0.0, cum[-1], step)
        band = np.interp(marks, cum, xs)
        parts.append(np.append(band, hi))
        lo = hi

    xs = np.unique(np.concatenate(parts))
    if xs[-1] != 1.0:
        xs = np.append(xs, 1.0)
    if sum(len(p) for p in parts) > _MAX_SAMPLE_POINTS:
        raise MemoryError("needle refinement too fine; raise delta")
    return np.column_stack((xs, needle_wave(xs)))


@dataclass(frozen=True)
class NeedleModel:
    """Needle embedding of a base model, with the base kept for reference."""

    base: ContinuumModel
    image: ContinuumModel
    sharpness: float
    delta: float

    @property
    def dimension(self) -> int:
        return self.image.dimension

    @property
    def marked(self) -> dict:
        return self.image.marked

    def refine(self, delta: float) -> PointCloud:
        return self.image.refine(delta)


def default_needle_base(dimension: int = 2) -> ContinuumModel:
    """Unit segment along the first axis with marked endpoints ``p`` and ``q``."""
    if dimension < 2:
        raise ValueError("the needle lives in dimension >= 2")
    p = np.zeros(dimension)
    q = np.zeros(dimension)
    q[0] = 1.0
    return ContinuumModel(
        (Polyline(np.vstack([p, q])),),
        {"p": p, "q": q},
        dimension,
        meta={"kind": "segment"},
    )


def _validate_needle_base(base: ContinuumModel, delta: float) -> None:
    cloud = base.refine(min(delta, 1e-3))
    pts = cloud.points
    if pts[:, 0].min() < -1e-9 or pts[:, 0].max() > 1 + 1e-9:
        raise ValueError("base first coordinate must stay in [0, 1]")
    if base.dimension > 1 and np.abs(pts[:, 1:]).max() > 1 + 1e-9:
        raise ValueError("base coordinates beyond the first must stay in [-1, 1]")
    if "p" not in base.marked:
        raise ValueError("base must mark its attachment point 'p'")
    p = base.marked["p"]
    if abs(p[0]) > 1e-12:
        raise ValueError("the attachment point must sit on the x1 = 0 face")
    face = pts[pts[:, 0] <= 1e-9]
    if len(face) and np.linalg.norm(face - p, axis=1).max() > 2 * cloud.pitch:
        raise ValueError("base meets the x1 = 0 face away from the attachment point")


def _mapped_base_cloud(base: ContinuumModel, sharpness: float, delta: float) -> PointCloud:
    """Image of a custom base under the embedding, sampled at image pitch ``delta``.

    Splits each base segment at dyadic x1 boundaries and samples each part at
    ``delta`` over its local Lipschitz bound; the tip band is handled through
    the amplitude bound ``|wave| <= sqrt(x1)`` instead of a slope bound.
    """
    a_tip = (delta / 8) ** 2
    h1_factor = math.sqrt(1.0 + base.dimension / sharpness**2)
    chunks = []
    total = 0
    for piece in base.pieces:
        starts, ends = piece.segments()
        for u, v in zip(starts, ends):
            lo, hi = sorted((u[0], v[0]))
            cuts = [0.0]
            b = a_tip
            while b < hi:
                if b > lo:
                    cuts.append(b)
                b *= 2
            cuts.append(hi)
            # sample each x1 band of the segment at its own pitch
            span = np.linalg.norm(v - u)
            x_lo, x_hi = u[0], v[0]
            for c0, c1 in zip(cuts[:-1], cuts[1:]):
                c0c, c1c = max(c0, lo), min(c1, hi)
                if c1c <= c0c and not (lo == hi and c0 <= lo <= c1):
                    continue
                band_lo = max(c0c, a_tip)
                lip = 2.0 if c1c <= a_tip else h1_factor * (1.0 + needle_wave_slope_bound(band_lo))
                # parameter range of this band along the segment
                if x_hi != x_lo:
                    t0 = (c0c - x_lo) / (x_hi - x_lo)
                    t1 = (c1c - x_lo) / (x_hi - x_lo)
                    t0, t1 = min(t0, t1), max(t0, t1)
                else:
                    t0, t1 = 0.0, 1.0
                seg_len = span * (t1 - t0)
                m = max(1, int(math.ceil(seg_len * lip / delta)))
                total += m + 1
                if total > _MAX_SAMPLE_POINTS:
                    raise MemoryError("base refinement too fine; raise delta")
                ts = np.linspace(t0, t1, m + 1)
                chunks.append(u + ts[:, None] * (v - u))
    pts = np.vstack(chunks)
    image = needle_map(pts, sharpness)
    return PointCloud(image, float(delta))


def default_needle_sampler() -> Callable[[float], PointCloud]:
    """On-curve resampler for the default needle, any pitch."""

    def sampler(d: float) -> PointCloud:
        return PointCloud(_needle_zone_points(d, SHORTCUT_PITCHES * d), float(d))

    return sampler


def build_needle(
    sharpness: float = DEFAULT_SHARPNESS,
    delta: float = 1e-3,
    base: ContinuumModel | None = None,
) -> NeedleModel:
    """Embed a base model (default: the unit segment) as a needle.

    The returned model's ``refine`` regenerates on-curve samples at any pitch
    from the defining formula. Marked points: ``h(p)`` for the attachment
    point, ``far`` for the image of ``q`` when the base marks one, and
    ``h(<label>)`` otherwise.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if sharpness <= 0:
        raise ValueError("sharpness must be positive")
    if base is None:
        base = default_needle_base()
        pts = _needle_zone_points(delta, SHORTCUT_PITCHES * delta)
        pieces = (Polyline(pts, name="needle"),)
        marked = {
            "h(p)": np.zeros(2),
            "far": np.array([1.0, float(needle_wave(1.0))]),
        }
        sampler = default_needle_sampler()
        meta = {
            "kind": "needle",
            "sharpness": repr(float(sharpness)),
            "delta": repr(float(delta)),
            "base": "default",
        }
        image = ContinuumModel(pieces, marked, 2, sampler=sampler, meta=meta)
        return NeedleModel(base, image, float(sharpness), float(delta))

    _validate_needle_base(base, delta)
    marked = {}
    for label, pt in base.marked.items():
        new = "far" if label == "q" else f"h({label})"
        marked[new] = needle_map(pt[None, :], sharpness)[0]

    def sampler(d: float, _b=base, _s=sharpness) -> PointCloud:
        return _mapped_base_cloud(_b, _s, d)

    build_cloud = _mapped_base_cloud(base, sharpness, delta)
    pieces = tuple(
        Polyline(needle_map(_ordered_piece_points(piece, delta), sharpness), name=piece.name)
        for piece in base.pieces
    )
    meta = {
        "kind": "needle",
        "sharpness": repr(float(sharpness)),
        "delta": repr(float(delta)),
        "base": "custom",
    }
    image = ContinuumModel(pieces, marked, base.dimension, sampler=sampler, meta=meta)
    model = NeedleModel(base, image, float(sharpness), float(delta))
    assert len(build_cloud) > 0
    return model


def _ordered_piece_points(piece: Polyline, delta: float) -> np.ndarray:
    from .geometry import sample_polyline

    return sample_polyline(piece, delta).points


# ---------------------------------------------------------------------------
# zigzag union


def _zigzag_layout(n: int):
    scale = 2.0 ** -n
    return {
        "scale": scale,
        "r_lo": _RADIAL_INNER * scale,
        "r_hi": _RADIAL_OUTER * scale,
        "theta_c": scale,
        "width": _ANGULAR_FILL * scale / 4.0,
    }


def _zigzag_total(M: int, t: float, lay: dict) -> float:
    """Exact length of the zigzag with M teeth legs and trimmed peak radius t."""
    dtheta = lay["width"] / (M - 1)
    s_hi = 2 * lay["r_hi"] * math.sin(dtheta / 2)
    s_lo = 2 * lay["r_lo"] * math.sin(dtheta / 2)
    leg = lay["r_hi"] - lay["r_lo"]
    n_outer = (M - 1) // 2
    n_inner = (M - 1) // 2
    fixed = lay["r_lo"] + (lay["scale"] - lay["r_hi"])
    base = fixed + (M - 2) * leg + (n_outer - 1) * s_hi + n_inner * s_lo
    return base + 2 * abs(t - lay["r_lo"]) + 2 * t * math.sin(dtheta / 2)


def build_zigzag_ln(n: int, length_tol: float = 1e-9) -> Polyline:
    """Broken line of length ``2**n`` inside the wedge at angle ``2**-n``.

    Radial teeth alternate between an inner and an outer ring at strictly
    increasing angles; one middle tooth is trimmed (or pushed inward) so the
    total length hits ``2**n`` within ``length_tol`` relative error. The
    result starts at the origin and ends at radius ``2**-n`` on the wedge
    bisector ray.
    """
    if not 1 <= n <= ZIGZAG_MAX_N:
        raise ValueError(f"n must be between 1 and {ZIGZAG_MAX_N}")
    if length_tol <= 0 or length_tol > 1e-3:
        raise ValueError("length_tol must be in (0, 1e-3]")
    lay = _zigzag_layout(n)
    target = 2.0 ** n
    leg = lay["r_hi"] - lay["r_lo"]

    M = max(5, int(math.ceil((target / leg))) | 1)
    while M >= 7 and _zigzag_total(M - 2, lay["r_hi"], lay) >= target * (1 + 1e-12):
        M -= 2
    for _ in range(8):
        if _zigzag_total(M, lay["r_hi"], lay) >= target:
            break
        M += 2
    else:
        raise RuntimeError("tooth count search failed")

    t_floor = _TRIM_FLOOR * lay["scale"]
    t = _solve_trim(M, target, lay, t_floor, length_tol)
    if t is None:
        M += 2
        t = _solve_trim(M, target, lay, t_floor, length_tol)
        if t is None:
            raise RuntimeError("trim radius search failed")

    j_star = M // 2
    if j_star % 2 == 0:
        j_star -= 1
    j_star = min(max(j_star, 1), M - 2)

    dtheta = lay["width"] / (M - 1)
    thetas = (lay["theta_c"] - lay["width"]) + dtheta * np.arange(M)
    peaks = np.full(M, lay["r_hi"])
    peaks[j_star - 1] = t
    peaks[j_star] = t

    # vertex order: origin, then per tooth leg the inner/peak pair in
    # travel direction (odd legs go outward), then the bisector tip
    inner = np.column_stack([np.full(M, lay["r_lo"]), thetas])
    outer = np.column_stack([peaks, thetas])
    polar = np.empty((2 * M + 2, 2))
    polar[0] = (0.0, thetas[0])
    for j in range(M):
        a, b = (inner[j], outer[j]) if j % 2 == 0 else (outer[j], inner[j])
        polar[1 + 2 * j] = a
        polar[2 + 2 * j] = b
    polar[-1] = (lay["scale"], lay["theta_c"])
    verts = polar_to_cartesian(polar)
    verts[0] = 0.0
    line = Polyline(verts, name=f"l{n}")

    err = abs(polyline_length(line) - target)
    if err > length_tol * target:
        raise RuntimeError(f"length missed target by {err:g}")
    return line


def _solve_trim(M: int, target: float, lay: dict, t_floor: float, length_tol: float):
    def excess(t: float) -> float:
        return _zigzag_total(M, t, lay) - target

    hi = excess(lay["r_hi"])
    if abs(hi) <= 0.25 * length_tol * target:
        return lay["r_hi"]
    if hi < 0:
        return None
    if excess(lay["r_lo"]) <= 0:
        a, b = lay["r_lo"], lay["r_hi"]
        increasing = True
    elif excess(t_floor) <= 0:
        a, b = t_floor, lay["r_lo"]
        increasing = False
    else:
        return None
    for _ in range(200):
        mid = 0.5 * (a + b)
        e = excess(mid)
        if abs(e) <= 0.25 * length_tol * target:
            return mid
        if (e > 0) == increasing:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


@dataclass(frozen=True)
class PModel:
    """Union of zigzag lines glued at the origin, one per scale 1..n_max."""

    n_max: int
    lines: tuple[Polyline, ...]
    model: ContinuumModel

    @property
    def marked(self) -> dict:
        return self.model.marked

    def refine(self, delta: float) -> PointCloud:
        return self.model.refine(delta)


def build_P(n_max: int, length_tol: float = 1e-9, verify: bool = True) -> PModel:
    """Union of the zigzag lines for n = 1..n_max with marked tips.

    When ``verify`` is set, each line is checked to be simple and the wedge
    bounds are checked on every vertex; distinct lines live in angularly
    disjoint convex sectors, so they can only meet at the shared origin,
    which is additionally spot-checked near the apex.
    """
    if not 1 <= n_max <= ZIGZAG_MAX_N:
        raise ValueError(f"n_max must be between 1 and {ZIGZAG_MAX_N}")
    lines = tuple(build_zigzag_ln(n, length_tol) for n in range(1, n_max + 1))
    marked = {"p0": np.zeros(2)}
    for n, line in zip(range(1, n_max + 1), lines):
        marked[f"p{n}"] = np.array(line.vertices[-1])
    meta = {"kind": "P", "n_max": str(n_max), "length_tol": repr(float(length_tol))}
    model = ContinuumModel(lines, marked, 2, meta=meta)
    pm = PModel(n_max, lines, model)
    if verify:
        verify_P(pm)
    return pm


def wedge_bounds_ok(line: Polyline, n: int) -> bool:
    """All vertices inside the wedge; only the last may reach radius ``2**-n``."""
    lay = _zigzag_layout(n)
    v = line.vertices
    r = np.hypot(v[:, 0], v[:, 1])
    theta = np.arctan2(v[:, 1], v[:, 0])
    if r[:-1].max() >= lay["scale"] or abs(r[-1] - lay["scale"]) > 1e-15 * lay["scale"]:
        return False
    pos = r > 0
    lo = lay["theta_c"] - 0.25 * lay["scale"]
    hi = lay["theta_c"] + 0.25 * lay["scale"]
    return bool(np.all((theta[pos] > lo) & (theta[pos] < hi)))


def verify_P(pm: PModel) -> None:
    """Raise if any line self-intersects, leaves its wedge, or meets another."""
    for n, line in zip(range(1, pm.n_max + 1), pm.lines):
        if not wedge_bounds_ok(line, n):
            raise RuntimeError(f"line {n} leaves its wedge")
        flag, witness = self_intersects(line, tol=0.0)
        if flag:
            raise RuntimeError(f"line {n} self-intersects at segments {witness}")
    # angular sector separation: line n spans theta in [0.75, 1.25] * 2**-n,
    # so consecutive scales are separated by an empty sector
    for n in range(1, pm.n_max):
        hi_next = 1.25 * 2.0 ** -(n + 1)
        lo_this = 0.75 * 2.0 ** -n
        if hi_next >= lo_this:
            raise RuntimeError("wedges overlap angularly")
    _check_apex_contacts(pm)


def _check_apex_contacts(pm: PModel) -> None:
    """Near the apex, segment pairs from distinct lines may meet only at 0."""
    from .geometry import _segment_distance_batch

    near = []
    for line in pm.lines:
        starts, ends = line.segments()
        radius = np.minimum(np.hypot(*starts.T), np.hypot(*ends.T))
        keep = radius <= 2.0 * _RADIAL_INNER * 2.0 ** -1
        near.append((starts[keep], ends[keep]))
    for i in range(len(near)):
        for j in range(i + 1, len(near)):
            s1, e1 = near[i]
            s2, e2 = near[j]
            if not len(s1) or not len(s2):
                continue
            ii, jj = np.meshgrid(np.arange(len(s1)), np.arange(len(s2)), indexing="ij")
            d = _segment_distance_batch(
                s1[ii.ravel()], e1[ii.ravel()], s2[jj.ravel()], e2[jj.ravel()]
            )
            close = d < 1e-15
            if close.any():
                a = s1[ii.ravel()[close]]
                b = e1[ii.ravel()[close]]
                # contact must happen at the origin, i.e. both segments touch 0
                for seg_s, seg_e in ((a, b), (s2[jj.ravel()[close]], e2[jj.ravel()[close]])):
                    touches = np.minimum(
                        np.hypot(*seg_s.T), np.hypot(*seg_e.T)
                    )
                    if touches.max() > 0:
                        raise RuntimeError(
                            f"lines {i + 1} and {j + 1} touch away from the origin"
                        )


def needle_from_model(model: ContinuumModel) -> NeedleModel:
    """Rebuild the needle wrapper around a model loaded from a file."""
    if model.meta.get("kind") != "needle":
        raise ValueError("model is not a needle (missing 'kind' metadata)")
    if model.meta.get("base") != "default":
        raise ValueError("only default-base needle files can be rebuilt")
    sharpness = float(model.meta["sharpness"])
    delta = float(model.meta["delta"])
    return NeedleModel(default_needle_base(), model, sharpness, delta)


def p_from_model(model: ContinuumModel) -> PModel:
    """Rebuild the zigzag-union wrapper around a model loaded from a file."""
    if model.meta.get("kind") != "P":
        raise ValueError("model is not a zigzag union (missing 'kind' metadata)")
    n_max = int(model.meta.get("n_max", len(model.pieces)))
    if n_max != len(model.pieces):
        raise ValueError("piece count does not match the recorded n_max")
    return PModel(n_max, model.pieces, model)
