"""Geometric primitives: polylines, sampled point clouds, and continuum models.

Coordinates are float64 numpy arrays. A "cloud" is a finite sample of a
continuum together with the pitch (sampling resolution) it was produced at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Point = np.ndarray

# Near-miss tolerance for self_intersects defaults to this fraction of the
# bounding-box diagonal.
DEFAULT_INTERSECT_TOL = 1e-12

# Above this segment count the quadratic all-pairs test gives way to the
# sort-and-prune test of _intersects_sap (2-D only), which returns the same
# flag and witness from far fewer pairs.
_ALLPAIRS_MAX_SEGMENTS = 4000

# Relative rounding slack of the sort-and-prune broad phase: several hundred
# ulps, far above what its own arithmetic and the narrow phase can lose.
_SLACK = 1e-13

_PAIR_CHUNK = 2_000_000


def as_point(coords, dimension: int | None = None) -> Point:
    """Coerce ``coords`` to a finite 1-D float64 point."""
    p = np.asarray(coords, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("a point must be a nonempty 1-D coordinate array")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    if dimension is not None and p.size != dimension:
        raise ValueError(f"expected dimension {dimension}, got {p.size}")
    return p


@dataclass(frozen=True)
class Polyline:
    """Open or closed broken line with pairwise distinct consecutive vertices."""

    vertices: np.ndarray
    closed: bool = False
    name: str = ""

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 2:
            raise ValueError("a polyline needs at least two vertices")
        if not np.all(np.isfinite(v)):
            raise ValueError("polyline vertices must be finite")
        if np.any(np.all(v[1:] == v[:-1], axis=1)):
            raise ValueError("consecutive polyline vertices must be distinct")
        if self.closed and np.all(v[0] == v[-1]):
            raise ValueError("closed polylines must not repeat the first vertex")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def dimension(self) -> int:
        return self.vertices.shape[1]

    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Segment start and end arrays, including the closing edge if closed."""
        v = self.vertices
        if self.closed:
            return v, np.roll(v, -1, axis=0)
        return v[:-1], v[1:]


@dataclass(frozen=True)
class PointCloud:
    """Finite sample of a set, with the pitch it was sampled at.

    The pitch records the guarantee "every point of the underlying set lies
    within ``pitch`` of a sample and consecutive samples along the generating
    curve are at most ``pitch`` apart" for samplers that provide it.
    """

    points: np.ndarray
    pitch: float

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        if p.ndim != 2 or p.shape[0] == 0:
            raise ValueError("a point cloud must be a nonempty (N, dim) array")
        if not np.all(np.isfinite(p)):
            raise ValueError("cloud coordinates must be finite")
        if not (self.pitch > 0):
            raise ValueError("pitch must be positive")
        p.setflags(write=False)
        object.__setattr__(self, "points", p)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class ContinuumModel:
    """Piecewise-polyline model of a continuum with labelled marked points.

    ``sampler``, when present, overrides the default piecewise resampling in
    :meth:`refine`; builders use it when the modelled set is defined by a
    formula rather than by its stored polylines. ``meta`` carries provenance
    (builder name and parameters) so files can be reconstituted.
    """

    pieces: tuple[Polyline, ...]
    marked: dict[str, Point]
    dimension: int
    sampler: Callable[[float], PointCloud] | None = None
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.pieces and not self.marked:
            raise ValueError("a model needs at least one piece or marked point")
        for piece in self.pieces:
            if piece.dimension != self.dimension:
                raise ValueError("piece dimension mismatch")
        marked = {k: as_point(v, self.dimension) for k, v in self.marked.items()}
        for label in marked:
            if not label.isascii() or any(c.isspace() for c in label):
                raise ValueError(f"marked label {label!r} must be ASCII without spaces")
        object.__setattr__(self, "marked", marked)

    def refine(self, delta: float) -> PointCloud:
        """Resample the model at pitch ``delta``."""
        if self.sampler is not None:
            return self.sampler(delta)
        if not self.pieces:
            pts = np.array(list(self.marked.values()), dtype=float)
            return PointCloud(pts, delta)
        clouds = [sample_polyline(piece, delta).points for piece in self.pieces]
        return PointCloud(np.vstack(clouds), delta)

    def resolve(self, target) -> Point:
        """Resolve a marked label or a coordinate sequence to a point."""
        if isinstance(target, str):
            if target not in self.marked:
                raise ValueError(f"unknown marked point {target!r}")
            return self.marked[target]
        return as_point(target, self.dimension)


def polar_to_cartesian(points) -> np.ndarray:
    """Map ``(r, theta)`` rows to Cartesian ``(x, y)`` rows."""
    p = np.asarray(points, dtype=float)
    single = p.ndim == 1
    p = np.atleast_2d(p)
    if p.shape[1] != 2:
        raise ValueError("polar points must have two components (r, theta)")
    if np.any(p[:, 0] < 0):
        raise ValueError("polar radius must be nonnegative")
    out = np.column_stack((p[:, 0] * np.cos(p[:, 1]), p[:, 0] * np.sin(p[:, 1])))
    return out[0] if single else out


def polyline_length(line: Polyline) -> float:
    """Total chord length of the polyline."""
    a, b = line.segments()
    return float(np.linalg.norm(b - a, axis=1).sum())


def sample_polyline(line: Polyline, delta: float) -> PointCloud:
    """Sample the polyline so consecutive samples are at most ``delta`` apart.

    All vertices are included exactly; points are returned in path order.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    a, b = line.segments()
    seg = b - a
    lens = np.linalg.norm(seg, axis=1)
    counts = np.maximum(1, np.ceil(lens / delta)).astype(np.int64)
    total = int(counts.sum())
    reps = np.repeat(np.arange(len(lens)), counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    frac = offsets / np.repeat(counts, counts)
    pts = a[reps] + seg[reps] * frac[:, None]
    if not line.closed:
        pts = np.vstack([pts, line.vertices[-1:]])
    return PointCloud(pts, float(delta))


@dataclass(frozen=True)
class GraphCurve:
    """Graph of a scalar function x -> f(x), with optional analytic helpers.

    ``min_feature(x)`` should underestimate the local oscillation scale of f;
    the adaptive sampler uses it to seed the initial grid so that chord
    refinement cannot step over a whole oscillation.
    """

    f: Callable[[np.ndarray], np.ndarray]
    fprime: Callable[[np.ndarray], np.ndarray] | None = None
    min_feature: Callable[[float], float] | None = None


def sample_graph_curve(curve: GraphCurve, a: float, b: float, delta: float) -> PointCloud:
    """Arc-length-adaptive sample of the graph of ``curve.f`` on ``[a, b]``.

    ``a`` must be positive: the left endpoint is where oscillatory integrands
    of interest blow up, and clouds only approach it through the refinement
    schedule of the metric layer.
    """
    if a <= 0:
        raise ValueError("left endpoint must be positive")
    if b <= a:
        raise ValueError("need a < b")
    if delta <= 0:
        raise ValueError("delta must be positive")
    feat = (b - a) / 1024.0
    if curve.min_feature is not None:
        feat = min(feat, float(curve.min_feature(a)))
    n0 = int(np.ceil((b - a) / max(feat, 1e-12))) + 1
    xs = np.linspace(a, b, max(n0, 17))
    ys = np.asarray(curve.f(xs), dtype=float)
    for _ in range(64):
        chord = np.hypot(np.diff(xs), np.diff(ys))
        bad = chord > delta
        if not bad.any():
            break
        mids = 0.5 * (xs[:-1][bad] + xs[1:][bad])
        xs = np.sort(np.concatenate([xs, mids]))
        ys = np.asarray(curve.f(xs), dtype=float)
    else:
        raise RuntimeError("graph sampling did not reach the requested pitch")
    return PointCloud(np.column_stack((xs, ys)), float(delta))


# ---------------------------------------------------------------------------
# self-intersection testing


def self_intersects(line: Polyline, tol: float | None = None):
    """Check whether non-adjacent segments pass within ``tol`` of each other.

    Returns ``(flag, witness)`` where witness is the lexicographically
    smallest hitting pair of segment indices. ``tol=0`` means exact contact.
    Small inputs use a vectorised all-pairs test; 2-D inputs above
    ``_ALLPAIRS_MAX_SEGMENTS`` segments use :func:`_intersects_sap`, which
    prunes the pairs first and returns the same flag and witness.
    """
    starts, ends = line.segments()
    if tol is None:
        lo = line.vertices.min(axis=0)
        hi = line.vertices.max(axis=0)
        tol = DEFAULT_INTERSECT_TOL * float(np.linalg.norm(hi - lo))
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    n = len(starts)
    if n < 3 and not line.closed:
        return False, None
    if line.dimension == 2 and n > _ALLPAIRS_MAX_SEGMENTS:
        return _intersects_sap(starts, ends, line.closed, float(tol))
    return _intersects_allpairs(starts, ends, line.closed, float(tol))


def _intersects_allpairs(P, Q, closed, tol):
    two_d = P.shape[1] == 2
    for ic, jc in _segment_pairs(len(P), closed):
        p1, q1, p2, q2 = P[ic], Q[ic], P[jc], Q[jc]
        hit = _segment_distance_batch(p1, q1, p2, q2) <= tol
        if two_d:
            hit |= _cross_mask_2d(p1, q1, p2, q2)
        if hit.any():
            k = int(np.argmax(hit))
            return True, (int(ic[k]), int(jc[k]))
    return False, None


def _segment_pairs(n, closed):
    """Yield the non-adjacent segment pairs ``i < j`` in lexicographic order.

    The pairs come in row blocks of about ``_PAIR_CHUNK``, so the first
    block with a hit holds the smallest hitting pair. A closed line drops
    ``(0, n - 1)``, which share the closing vertex.
    """
    counts = np.arange(n - 2, 0, -1)  # row i pairs with j = i + 2 .. n - 1
    if closed and n > 2:
        counts[0] -= 1
    ends = np.cumsum(counts)
    start = 0
    while start < len(counts):
        base = ends[start] - counts[start]
        stop = max(start + 1, int(np.searchsorted(ends, base + _PAIR_CHUNK, side="right")))
        rows = np.arange(start, stop)
        c = counts[start:stop]
        i = np.repeat(rows, c)
        # j = row + 2 + (position in the block - offset of the row's first pair)
        j = np.arange(len(i))
        j -= np.repeat(ends[start:stop] - c - base - rows - 2, c)
        yield i, j
        start = stop


def _segment_distance_batch(p1, q1, p2, q2):
    """Minimum distance between segment pairs (vectorised, any dimension)."""
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = np.einsum("...i,...i", d1, d1)
    e = np.einsum("...i,...i", d2, d2)
    b = np.einsum("...i,...i", d1, d2)
    c = np.einsum("...i,...i", d1, r)
    f = np.einsum("...i,...i", d2, r)
    denom = a * e - b * b
    s = np.where(denom > 0, np.clip((b * f - c * e) / np.where(denom == 0, 1, denom), 0, 1), 0.0)
    t = (b * s + f) / np.where(e == 0, 1, e)
    t = np.clip(t, 0, 1)
    s = np.clip((b * t - c) / np.where(a == 0, 1, a), 0, 1)
    gap = p1 + s[..., None] * d1 - (p2 + t[..., None] * d2)
    return np.sqrt(np.einsum("...i,...i", gap, gap))


def _cross2(ux, uy, vx, vy):
    return ux * vy - uy * vx


def _cross_mask_2d(p1, q1, p2, q2):
    d1x, d1y = (q1 - p1).T
    d2x, d2y = (q2 - p2).T
    o1 = _cross2(d1x, d1y, (p2 - p1)[:, 0], (p2 - p1)[:, 1])
    o2 = _cross2(d1x, d1y, (q2 - p1)[:, 0], (q2 - p1)[:, 1])
    o3 = _cross2(d2x, d2y, (p1 - p2)[:, 0], (p1 - p2)[:, 1])
    o4 = _cross2(d2x, d2y, (q1 - p2)[:, 0], (q1 - p2)[:, 1])
    proper = (np.sign(o1) * np.sign(o2) < 0) & (np.sign(o3) * np.sign(o4) < 0)
    # on disjoint, nearly collinear segments the signs can be rounding noise;
    # segments that really cross have overlapping bounding boxes
    k = np.flatnonzero(proper)
    lo1, hi1 = np.minimum(p1[k], q1[k]), np.maximum(p1[k], q1[k])
    lo2, hi2 = np.minimum(p2[k], q2[k]), np.maximum(p2[k], q2[k])
    proper[k] = np.all((lo1 <= hi2) & (lo2 <= hi1), axis=1)

    def on_seg(p, q, r):
        return (
            (np.minimum(p[:, 0], q[:, 0]) <= r[:, 0])
            & (r[:, 0] <= np.maximum(p[:, 0], q[:, 0]))
            & (np.minimum(p[:, 1], q[:, 1]) <= r[:, 1])
            & (r[:, 1] <= np.maximum(p[:, 1], q[:, 1]))
        )

    touch = (
        ((o1 == 0) & on_seg(p1, q1, p2))
        | ((o2 == 0) & on_seg(p1, q1, q2))
        | ((o3 == 0) & on_seg(p2, q2, p1))
        | ((o4 == 0) & on_seg(p2, q2, q1))
    )
    return proper | touch


def _intersects_sap(P, Q, closed, tol):
    """Sort-and-prune test for 2-D segments: same answer as the all-pairs test.

    Broad phase: each segment gets an interval under a key, and only pairs
    whose intervals overlap are candidates. The keys are x, y and the polar
    angle about the origin and about the bounding-box centre; each key's
    candidates are counted with ``searchsorted`` before any pair is built,
    and the key with the fewest is used. Narrow phase: the all-pairs
    predicate, ``_segment_distance_batch <= tol`` or ``_cross_mask_2d``,
    evaluated with each pair in index order, so every candidate gets the
    all-pairs verdict bit for bit. The smallest hitting pair is returned.

    No pair within ``tol`` is pruned. Let M be the largest coordinate
    magnitude, u the unit roundoff and s = ``_SLACK`` (several hundred u). A
    computed distance ``<= tol`` means a true distance of at most
    ``tol (1 + 4u) + 17uM``, and shifting the coordinates to a centre moves
    a segment by at most 3uM; ``reach = tol (1 + s) + sM`` covers both.

    * x or y: segments within ``reach`` have projections within ``reach``,
      so each interval's upper end is padded by ``reach``.
    * Angle about a centre c: let y on segment i and y' on segment j be
      within ``reach``, and let d_i > reach be the distance from c to
      segment i. Seen from c, the disc of radius ``reach`` about y subtends
      a half-angle ``asin(reach / |y - c|) <= asin(reach / d_i)``, so the
      direction of y' lies within that angle of segment i's angular span,
      and inside segment j's. Each span is therefore padded by
      ``asin(reach / d_lo) (1 + s) + s`` radians, where d_lo is the
      computed d_i less ``s (|a - c| + |b - c|)``, a lower bound on d_i, and
      the last s covers ``arctan2``'s few-ulp error. This fails only when
      the short way between the two directions crosses the branch cut at
      +-pi; then segment i's padded span reaches +-pi. So a segment is
      "wild", and paired with every segment, when d_lo <= 2 reach (which
      also keeps ``asin`` to arguments below 1/2, where its rounding error
      stays a few ulps), when its padded span reaches +-pi, or when that
      span is at least pi wide (a segment across the cut has a computed
      span above pi - 2s).

    ``_cross_mask_2d`` flags a touch (a computed zero orientation with the
    point inside the other segment's box) only within about 50uM, so inside
    ``reach`` too. A proper crossing also needs overlapping bounding boxes,
    so rounding-noise orientation signs of disjoint, nearly collinear
    segments flag only pairs within a few uM of each other (below 3uM
    over four million random near-collinear pairs), again inside ``reach``.
    """
    n = len(P)
    endpoints = np.concatenate([P, Q])
    reach = tol * (1 + _SLACK) + _SLACK * float(np.abs(endpoints).max())
    keys = [_axis_key(P, Q, axis, reach) for axis in (0, 1)]
    centres = [np.zeros(2), 0.5 * (endpoints.min(axis=0) + endpoints.max(axis=0))]
    if np.array_equal(centres[0], centres[1]):
        centres.pop()
    keys += [_angle_key(P, Q, c, reach) for c in centres]
    plan = min((_count_candidates(*key) for key in keys), key=lambda p: p[0])

    best = n * n
    for i, j in _candidate_pairs(*plan[1:], n):
        a, b = np.minimum(i, j), np.maximum(i, j)
        key = a * n + b
        keep = (b - a > 1) & (key < best)
        if closed:
            keep &= (a > 0) | (b < n - 1)
        a, b = a[keep], b[keep]
        p1, q1, p2, q2 = P[a], Q[a], P[b], Q[b]
        hit = (_segment_distance_batch(p1, q1, p2, q2) <= tol) | _cross_mask_2d(p1, q1, p2, q2)
        if hit.any():
            best = int((a * n + b)[hit].min())
    if best == n * n:
        return False, None
    return True, divmod(best, n)


def _axis_key(P, Q, axis, reach):
    """Coordinate intervals along ``axis``, upper ends padded by ``reach``."""
    lo = np.minimum(P[:, axis], Q[:, axis])
    hi = np.maximum(P[:, axis], Q[:, axis]) + reach
    return lo, hi, np.zeros(len(P), dtype=bool)


def _angle_key(P, Q, centre, reach):
    """Padded polar-angle intervals about ``centre`` and the wild mask."""
    a = P - centre
    b = Q - centre
    ta = np.arctan2(a[:, 1], a[:, 0])
    tb = np.arctan2(b[:, 1], b[:, 0])
    v = b - a
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(-np.einsum("ij,ij->i", a, v) / np.einsum("ij,ij->i", v, v), 0.0, 1.0)
        d_lo = np.hypot(*(a + t[:, None] * v).T) - _SLACK * (np.hypot(*a.T) + np.hypot(*b.T))
        wild = ~(d_lo > 2 * reach)  # also a segment that the shift collapsed to a point
        pad = np.arcsin(np.where(wild, 1.0, reach / d_lo)) * (1 + _SLACK) + _SLACK
    lo = np.minimum(ta, tb) - pad
    hi = np.maximum(ta, tb) + pad
    wild |= (lo <= -np.pi) | (hi >= np.pi) | (hi - lo >= np.pi)
    return lo, hi, wild


def _count_candidates(lo, hi, wild):
    """Count the pairs a key leaves: overlapping tame intervals, wild x all.

    Returns ``(count, order, counts, wild)``: the tame segments sorted by
    lower end, and how many later ones in that order each one overlaps.
    """
    n = len(lo)
    tame = np.flatnonzero(~wild)
    order = tame[np.argsort(lo[tame], kind="stable")]
    ends = np.searchsorted(lo[order], hi[order], side="right")
    counts = ends - np.arange(1, len(order) + 1)
    w = n - len(order)
    return int(counts.sum()) + w * (n - w) + w * (w - 1) // 2, order, counts, wild


def _candidate_pairs(order, counts, wild, n):
    """Yield the candidate pairs of a key in chunks of about ``_PAIR_CHUNK``."""
    cum = np.concatenate([[0], np.cumsum(counts)])
    k = 0
    while k < len(order):
        stop = max(k + 1, int(np.searchsorted(cum, cum[k] + _PAIR_CHUNK, side="right")) - 1)
        c = counts[k:stop]
        rep = np.repeat(np.arange(k, stop), c)
        later = rep + 1 + np.arange(len(rep)) - np.repeat(cum[k:stop] - cum[k], c)
        yield order[rep], order[later]
        k = stop
    wild_idx = np.flatnonzero(wild)
    block = max(1, _PAIR_CHUNK // n)
    for lo in range(0, len(wild_idx), block):
        i = np.repeat(wild_idx[lo : lo + block], n)
        j = np.tile(np.arange(n), len(i) // n)
        keep = ~wild[j] | (j > i)
        yield i[keep], j[keep]
