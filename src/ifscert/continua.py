"""Built-in continua: the oscillating needle embedding and the zigzag union.

The needle is the image of a base segment under ``squeeze`` then ``ripple``:
``squeeze`` flattens all but the first coordinate by a factor ``x1 / s`` and
``ripple`` adds ``sqrt(x1) * sin(1 / x1)`` to the second coordinate. The
zigzag union packs a broken line of length ``2**n`` into a polar wedge of
size ``2**-n`` for each ``n``, all glued at the origin.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import (
    ContinuumModel,
    PointCloud,
    Polyline,
    _MAX_SAMPLE_POINTS,
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

ZIGZAG_MAX_N = 12
_LENGTH_TOL = 1e-9  # relative error allowed in a zigzag line's length 2**n

# A refined needle cloud keeps full pitch where the oscillation branches are
# farther apart than this multiple of the pitch; below that scale it follows
# the zero crossings of the wave, which is what epsilon-chains do anyway.
SHORTCUT_PITCHES = 10.0


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


def _needle_zone_points(delta: float) -> np.ndarray:
    """Ordered on-curve samples of ``(x, needle_wave(x))`` on ``[0, 1]``.

    Full arc pitch ``delta`` where consecutive zero crossings are farther
    apart than a quarter of the shortcut scale ``SHORTCUT_PITCHES * delta``;
    below that the samples follow the zero crossings at ``delta/2`` x-steps,
    which keeps every hop well under the shortcut scale without spending
    points on folds that chains with hops below that scale skip across anyway.
    """
    x_tip, x_dense, k_lo, k_hi, bands, count = _needle_plan(delta)
    if count > _MAX_SAMPLE_POINTS:
        raise ValueError("needle refinement too fine; raise delta")

    parts = [np.arange(0.0, x_tip, delta / 2)]
    if not len(parts[0]):
        parts[0] = np.array([0.0])
    if x_dense > x_tip:
        grid = np.arange(x_tip + delta / 2, x_dense, delta / 2)
        if len(grid):
            ks = np.maximum(1, np.round(1.0 / (math.pi * grid)))
            parts.append(np.unique(1.0 / (math.pi * ks)))
    if k_hi > k_lo:
        parts.append(1.0 / (math.pi * np.arange(k_hi, k_lo, -1, dtype=float)))

    # arc-length-paced samples from x_start to 1. A band holds three arrays
    # of its length: the xs, the wave, made in place (needle_wave bit for bit,
    # as x > 0), whose buffer then takes the hops, and the arc length, which
    # first holds sqrt(x) and then the wave's steps
    step = 0.8 * delta
    for lo, hi, m in bands:
        xs = np.linspace(lo, hi, math.ceil(m) + 1)
        cum = np.sqrt(xs)
        wave = np.divide(1.0, xs)
        np.sin(wave, out=wave)
        wave *= cum
        np.subtract(wave[1:], wave[:-1], out=cum[1:])
        hops = wave[1:]
        np.subtract(xs[1:], xs[:-1], out=hops)
        np.hypot(hops, cum[1:], out=hops)
        cum[0] = 0.0
        np.cumsum(hops, out=cum[1:])
        del wave, hops
        marks = np.arange(0.0, cum[-1], step)
        band = np.interp(marks, cum, xs)
        parts.append(np.append(band, hi))

    xs = np.unique(np.concatenate(parts))
    if xs[-1] != 1.0:
        xs = np.append(xs, 1.0)
    if sum(len(p) for p in parts) > _MAX_SAMPLE_POINTS:
        raise ValueError("needle refinement too fine; raise delta")
    return np.column_stack((xs, needle_wave(xs)))


def _needle_plan(delta: float):
    """The parts of :func:`_needle_zone_points` at pitch ``delta``, planned without a sample.

    Returns ``(x_tip, x_dense, k_lo, k_hi, bands, count)``. ``count`` bounds
    the points of every part and the largest array a band is resampled
    from; the sampler refuses ``delta`` when it passes the sample cap. It is
    kept in floats, so that no count overflows, and it is inf where
    ``delta / (2 pi)`` underflows.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    x_full = min(0.25, math.sqrt(SHORTCUT_PITCHES * delta / (4 * math.pi)))
    x_dense = min(math.sqrt(delta / (2 * math.pi)), x_full)
    if x_dense == 0.0:  # delta / (2 pi) underflowed
        return 0.0, 0.0, 1, 1, [], math.inf
    x_tip = min(min(delta / 4, 0.5) ** 2, x_dense)  # x_dense <= 0.25: the cap only stops overflow

    # largest zero crossing at or below x_full; the arc-true zone starts there
    k_lo = max(1, math.ceil(1.0 / (math.pi * x_full)))
    x_start = 1.0 / (math.pi * k_lo)
    k_hi = max(k_lo, math.floor(1.0 / (math.pi * max(x_dense, x_tip))))

    # the tip, the grid and the folds, then the dyadic speed bands, stopping
    # as soon as the total passes the cap. Band (lo, hi) is resampled from
    # m + 1 points at speed at most vmax, so its arc is at most
    # (hi - lo) vmax = 0.2 delta m, and at pitch 0.8 delta it keeps at most
    # m / 4 + 2 points
    total = 1.0 + 2 * x_tip / delta + 2 * max(0.0, x_dense - x_tip) / delta + (k_hi - k_lo)
    bands = []
    lo = x_start
    while lo < 1.0 and total <= _MAX_SAMPLE_POINTS:
        hi = min(1.0, 2 * lo)
        vmax = 1.0 + needle_wave_slope_bound(lo)
        m = (hi - lo) * vmax / (0.2 * delta)
        bands.append((lo, hi, m))
        total += m / 4 + 2
        lo = hi
    # every band's m is finite unless the total has passed the cap
    count = total if total > _MAX_SAMPLE_POINTS else max([total] + [math.ceil(m) + 1 for _, _, m in bands])
    return x_tip, x_dense, k_lo, k_hi, bands, count


def sample_needle(delta: float) -> PointCloud:
    """On-curve resampler for the default needle, any pitch."""
    return PointCloud(_needle_zone_points(delta), float(delta))


# the count the sampler refuses on, for ContinuumModel.sample_bound
sample_needle.sample_bound = lambda delta: _needle_plan(delta)[-1]


def build_needle(delta: float = 1e-3) -> ContinuumModel:
    """Embed the unit segment from ``p = 0`` to ``q = e1`` as the needle in the plane.

    The returned model's ``refine`` regenerates on-curve samples at any pitch
    from the defining formula. Marked points: ``h(p)``, the attachment point
    at the origin, and ``far``, the image of ``q``.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    meta = {
        "kind": "needle",
        "sharpness": repr(DEFAULT_SHARPNESS),
        "delta": repr(float(delta)),
        "base": "default",
    }
    pts = _needle_zone_points(delta)
    marked = {"h(p)": np.zeros(2), "far": np.array([1.0, float(needle_wave(1.0))])}
    return ContinuumModel(
        (Polyline(pts, name="needle"),), marked, 2, sampler=sample_needle, meta=meta
    )


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


def _zigzag_teeth(lay: dict, target: float) -> tuple[int, float]:
    """Tooth count and trimmed peak radius t of the zigzag of length ``target``.

    The length grows with t, and for every n in 1..ZIGZAG_MAX_N it is short
    of ``target`` at ``r_lo`` and past it at ``r_hi``: one bisection finds t.
    """
    M = max(5, int(math.ceil(target / (lay["r_hi"] - lay["r_lo"]))) | 1)
    a, b = lay["r_lo"], lay["r_hi"]
    for _ in range(200):
        t = 0.5 * (a + b)
        excess = _zigzag_total(M, t, lay) - target
        if abs(excess) <= 0.25 * _LENGTH_TOL * target:
            break
        if excess > 0:
            b = t
        else:
            a = t
    return M, t


def build_zigzag_ln(n: int) -> Polyline:
    """Broken line of length ``2**n`` inside the wedge at angle ``2**-n``.

    Radial teeth alternate between an inner and an outer ring at strictly
    increasing angles. The tooth count is ``M = max(5, ceil(2**n / leg) | 1)``,
    with ``leg`` the gap between the rings; one middle tooth is trimmed, by
    bisection on its peak radius, so the total length hits ``2**n`` within
    ``_LENGTH_TOL`` relative error. The result starts at the origin and ends
    at radius ``2**-n`` on the wedge bisector ray.
    """
    if not 1 <= n <= ZIGZAG_MAX_N:
        raise ValueError(f"n must be between 1 and {ZIGZAG_MAX_N}")
    lay = _zigzag_layout(n)
    target = 2.0 ** n
    M, t = _zigzag_teeth(lay, target)

    j_star = M // 2
    if j_star % 2 == 0:
        j_star -= 1

    dtheta = lay["width"] / (M - 1)
    thetas = (lay["theta_c"] - lay["width"]) + dtheta * np.arange(M)
    peaks = np.full(M, lay["r_hi"])
    peaks[j_star - 1] = t
    peaks[j_star] = t

    # vertex order: origin, then per tooth leg the inner/peak pair in
    # travel direction (odd legs go outward), then the bisector tip
    inner = np.column_stack([np.full(M, lay["r_lo"]), thetas])
    outer = np.column_stack([peaks, thetas])
    even = (np.arange(M) % 2 == 0)[:, None]
    polar = np.empty((2 * M + 2, 2))
    polar[0] = (0.0, thetas[0])
    polar[1:-1:2] = np.where(even, inner, outer)
    polar[2:-1:2] = np.where(even, outer, inner)
    polar[-1] = (lay["scale"], lay["theta_c"])
    verts = polar_to_cartesian(polar)
    verts[0] = 0.0
    line = Polyline(verts, name=f"l{n}")

    err = abs(polyline_length(line) - target)
    if err > _LENGTH_TOL * target:
        raise RuntimeError(f"length missed target by {err:g}")
    return line


def build_P(n_max: int) -> ContinuumModel:
    """Union of the zigzag lines for n = 1..n_max with marked tips.

    :func:`verify_P` checks the result: each line must be simple and every
    vertex must lie in its line's wedge, so distinct lines meet only at the
    shared origin.
    """
    if not 1 <= n_max <= ZIGZAG_MAX_N:
        raise ValueError(f"n_max must be between 1 and {ZIGZAG_MAX_N}")
    lines = tuple(build_zigzag_ln(n) for n in range(1, n_max + 1))
    marked = {"p0": np.zeros(2)}
    for n, line in zip(range(1, n_max + 1), lines):
        marked[f"p{n}"] = np.array(line.vertices[-1])
    meta = {"kind": "P", "n_max": str(n_max), "length_tol": repr(_LENGTH_TOL)}
    model = ContinuumModel(lines, marked, 2, meta=meta)
    verify_P(model)
    return model


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


def verify_P(model: ContinuumModel) -> None:
    """Raise if a line leaves its wedge or self-intersects.

    Piece ``n`` of ``model`` (counting from 1) is checked as the line
    ``l_n``. Distinct lines then meet only at the origin, and only where
    both end there, with no test of their segment pairs. Wedge n is the
    open sector of angles ``(0.75, 1.25) * 2**-n`` about the origin, and
    both ends are exact dyadics. Sectors n and n + 1 lie ``2**-(n+3)``
    apart, far more than the few-ulp error of ``arctan2``, so each vertex
    off the origin that :func:`wedge_bounds_ok` accepts lies in its own
    line's sector, and no two lines share a sector. Each sector is convex
    and narrower than pi, so a segment between two of its points, or
    between one of them and the apex, stays inside it, and it passes
    through the apex only if it ends there.
    """
    for n, line in enumerate(model.pieces, start=1):
        if not wedge_bounds_ok(line, n):
            raise RuntimeError(f"line {n} leaves its wedge")
        flag, witness = self_intersects(line, tol=0.0)
        if flag:
            raise RuntimeError(f"line {n} self-intersects at segments {witness}")
