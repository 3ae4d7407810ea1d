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

# Relative rounding slack of the sort-and-prune broad phase: several hundred
# ulps, far above what its own arithmetic and the narrow phase can lose.
_SLACK = 1e-13

_PAIR_CHUNK = 2_000_000

# the most samples one polyline or one refined model may hold
_MAX_SAMPLE_POINTS = 20_000_000


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


def marked_point(label: str, coords, dimension: int | None = None) -> Point:
    """``coords`` as the point of a marked ``label``, which must be ASCII without spaces."""
    if not label.isascii() or any(c.isspace() for c in label):
        raise ValueError(f"marked label {label!r} must be ASCII without spaces")
    return as_point(coords, dimension)


def positive_pitch(pitch: float) -> None:
    """Refuse a sampling pitch that is not positive."""
    if not pitch > 0:
        raise ValueError("pitch must be positive")


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
        positive_pitch(self.pitch)
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
        if not self.pieces:
            raise ValueError("a model needs at least one piece")
        for piece in self.pieces:
            if piece.dimension != self.dimension:
                raise ValueError("piece dimension mismatch")
        marked = {k: marked_point(k, v, self.dimension) for k, v in self.marked.items()}
        object.__setattr__(self, "marked", marked)

    def refine(self, delta: float) -> PointCloud:
        """Resample the model at pitch ``delta``."""
        if self.sampler is not None:
            return self.sampler(delta)
        clouds = [sample_polyline(piece, delta).points for piece in self.pieces]
        return PointCloud(np.vstack(clouds), delta)

    def sample_bound(self, delta: float) -> float:
        """The count that :meth:`refine` refuses ``delta`` on, found without a sample.

        ``refine(delta)`` is refused for its size exactly when this passes
        the sample cap: the largest piece's count from
        :func:`sample_polyline`, or the ``sample_bound`` of the sampler; 0
        for a sampler that has none.
        """
        if self.sampler is not None:
            bound = getattr(self.sampler, "sample_bound", None)
            return bound(delta) if bound is not None else 0.0
        return max(_sample_plan(piece, delta)[-1] for piece in self.pieces)

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


def _sample_plan(line: Polyline, delta: float):
    """The segments of ``line`` and their sample counts at pitch ``delta``, without a sample.

    Returns each segment's start and step, its count as a float, and
    ``wanted``, the float sum of the counts and the closing vertex, which
    :func:`sample_polyline` refuses above the sample cap. A segment whose
    squared length overflows is refused: the distance kernels square their
    gaps.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    a, b = line.segments()
    with np.errstate(over="ignore"):
        seg = b - a
        lens = np.linalg.norm(seg, axis=1)
        counts = np.maximum(1, np.ceil(lens / delta))
        wanted = counts.sum() + (not line.closed)
    if not np.isfinite(lens).all():
        raise ValueError("polyline segment too long: its squared length overflows")
    return a, seg, counts, float(wanted)


def sample_polyline(line: Polyline, delta: float) -> PointCloud:
    """Sample the polyline so consecutive samples are at most ``delta`` apart.

    All vertices are included exactly; points are returned in path order.
    A segment whose squared length overflows is refused: the distance
    kernels square their gaps.
    """
    a, seg, counts, wanted = _sample_plan(line, delta)
    if wanted > _MAX_SAMPLE_POINTS:  # so the int64 cast below cannot wrap
        raise ValueError(f"polyline sampling too fine: pitch {delta:.3g} needs {wanted:.3g} points, "
                         f"above {_MAX_SAMPLE_POINTS}")
    counts = counts.astype(np.int64)
    total = int(counts.sum())
    reps = np.repeat(np.arange(len(counts)), counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    frac = offsets / np.repeat(counts, counts)
    pts = a[reps] + seg[reps] * frac[:, None]
    if not line.closed:
        pts = np.vstack([pts, line.vertices[-1:]])
    return PointCloud(pts, float(delta))


# ---------------------------------------------------------------------------
# self-intersection testing


def self_intersects(line: Polyline, tol: float | None = None):
    """Check whether non-adjacent segments pass within ``tol`` of each other.

    Returns ``(flag, witness)`` where witness is the lexicographically
    smallest hitting pair of segment indices. ``tol=0`` means exact contact.
    A pair hits when its computed distance is at most ``tol`` or, in 2-D,
    when ``_cross_mask_2d`` flags it; the pair is evaluated in index order.
    Only the pairs that :func:`_candidate_pairs` yields are evaluated, and it
    yields every hitting pair, so the answer is that of the all-pairs test
    at every size and in every dimension.
    """
    starts, ends = line.segments()
    if tol is None:
        lo = line.vertices.min(axis=0)
        hi = line.vertices.max(axis=0)
        tol = DEFAULT_INTERSECT_TOL * float(np.linalg.norm(hi - lo))
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    tol = float(tol)
    n = len(starts)
    best = n * n
    for i, j in _candidate_pairs(starts, ends, tol):
        a, b = np.minimum(i, j), np.maximum(i, j)
        keep = (b - a > 1) & (a * n + b < best)
        if line.closed:
            keep &= (a > 0) | (b < n - 1)
        a, b = a[keep], b[keep]
        p1, q1, p2, q2 = starts[a], ends[a], starts[b], ends[b]
        hit = _segment_distance_batch(p1, q1, p2, q2) <= tol
        if line.dimension == 2:
            hit |= _cross_mask_2d(p1, q1, p2, q2)
        if hit.any():
            best = int((a * n + b)[hit].min())
    if best == n * n:
        return False, None
    return True, divmod(best, n)


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


def _axis_key(P, Q, reach):
    """Intervals of the first coordinate, upper ends padded by ``reach``."""
    lo = np.minimum(P[:, 0], Q[:, 0])
    hi = np.maximum(P[:, 0], Q[:, 0]) + reach
    return lo, hi, np.zeros(len(P), dtype=bool)


def _angle_key(P, Q, reach):
    """Padded polar-angle intervals about the origin and the wild mask."""
    ax, ay = P[:, 0], P[:, 1]
    bx, by = Q[:, 0], Q[:, 1]
    ta = np.arctan2(ay, ax)
    tb = np.arctan2(by, bx)
    vx, vy = bx - ax, by - ay
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(-(ax * vx + ay * vy) / (vx * vx + vy * vy), 0.0, 1.0)
        d_lo = np.hypot(ax + t * vx, ay + t * vy) - _SLACK * (np.hypot(ax, ay) + np.hypot(bx, by))
        wild = ~(d_lo > 2 * reach)  # also a segment of length 0
        pad = np.arcsin(np.where(wild, 1.0, reach / d_lo)) * (1 + _SLACK) + _SLACK
    lo = np.minimum(ta, tb) - pad
    hi = np.maximum(ta, tb) + pad
    wild |= (lo <= -np.pi) | (hi >= np.pi) | (hi - lo >= np.pi)
    return lo, hi, wild


def _candidate_pairs(P, Q, tol):
    """Yield candidate segment pairs ``(i, j)`` in chunks; every pair within ``tol`` is among them.

    Each unordered pair of distinct segments comes at most once, in either
    order. Broad phase: each segment gets an interval under one key, and
    only pairs whose intervals overlap are candidates. In 2-D the key is
    the polar angle about the origin, the apex of every wedge that
    ``build P`` packs a line into, so each segment of a zigzag line spans
    a sliver of angle; in any other dimension it is the first coordinate.
    The segments are sorted by lower end and ``searchsorted`` counts the
    later ones each overlaps; the chunks hold about ``_PAIR_CHUNK`` pairs.

    No pair within ``tol`` is left out. Let d be the dimension, M the
    largest coordinate magnitude, u the unit roundoff and
    s = ``_SLACK`` max(1, d/2), at least 900u max(1, d/2).
    ``_segment_distance_batch`` measures the gap between a point on each
    segment at its clipped parameters; each computed gap component is off
    by at most 12uM, and the rounded root of the d-term sum of squares
    loses at most (d/2 + 2)u relative. So a computed distance ``<= tol``
    means a true distance of at most ``tol (1 + (d + 2)u) + 12 sqrt(d) uM``,
    which ``reach = tol (1 + s) + sM`` covers in every dimension.

    * A coordinate: segments within ``reach`` have projections within
      ``reach``, so each interval's upper end is padded by ``reach``.
    * Angle about the origin (2-D): let y on segment i and y' on segment j
      be within ``reach``, and let d_i > reach be the distance from the
      origin to segment i. Seen from the origin, the disc of radius
      ``reach`` about y subtends a half-angle
      ``asin(reach / |y|) <= asin(reach / d_i)``, so the direction of y'
      lies within that angle of segment i's angular span, and inside
      segment j's. Each span is therefore padded by
      ``asin(reach / d_lo) (1 + s) + s`` radians, where d_lo is the
      computed d_i less ``s (|a| + |b|)``, a lower bound on d_i, and
      the last s covers ``arctan2``'s few-ulp error. This fails only when
      the short way between the two directions crosses the branch cut at
      +-pi; then segment i's padded span reaches +-pi. So a segment is
      "wild", and left to the next rule, when d_lo <= 2 reach (which
      also keeps ``asin`` to arguments below 1/2, where its rounding error
      stays a few ulps), when its padded span reaches +-pi, or when that
      span is at least pi wide (a segment across the cut has a computed
      span above pi - 2s).
    * A wild segment i (2-D) is paired with every segment that does not lie
      wholly on one side of the line through it, more than ``reach`` away;
      a segment of length 0 with every segment. The signed distance from
      that line is affine along a segment, so if both ends of segment j
      are beyond ``reach`` on one side, all of it is, and so is its
      distance to segment i. Computed from ``fl(b - a)``, ``fl(p - a)``,
      a cross product and a division, the signed distance is off by less
      than 30uM, inside the sM of ``reach``.

    ``_cross_mask_2d`` flags a touch (a computed zero orientation with the
    point inside the other segment's box) only within about 50uM, so inside
    ``reach`` too. A proper crossing also needs overlapping bounding boxes,
    so rounding-noise orientation signs of disjoint, nearly collinear
    segments flag only pairs within a few uM of each other (below 3uM
    over four million random near-collinear pairs), again inside ``reach``.
    """
    n, dim = P.shape
    slack = _SLACK * max(1.0, dim / 2)
    reach = tol * (1 + slack) + slack * float(max(np.abs(P).max(), np.abs(Q).max()))
    lo, hi, wild = _angle_key(P, Q, reach) if dim == 2 else _axis_key(P, Q, reach)
    tame = np.flatnonzero(~wild)
    order = tame[np.argsort(lo[tame], kind="stable")]
    counts = np.searchsorted(lo[order], hi[order], side="right") - np.arange(1, len(order) + 1)

    cum = np.concatenate([[0], np.cumsum(counts)])
    k = 0
    while k < len(order):
        stop = max(k + 1, int(np.searchsorted(cum, cum[k] + _PAIR_CHUNK, side="right")) - 1)
        c = counts[k:stop]
        rep = np.repeat(np.arange(k, stop), c)
        later = rep + 1 + np.arange(len(rep)) - np.repeat(cum[k:stop] - cum[k], c)
        yield order[rep], order[later]
        k = stop
    after = np.ones(n, dtype=bool)
    for i in np.flatnonzero(wild):  # wild segments come from the 2-D angle key only
        after[i] = False
        near = after | ~wild
        d = Q[i] - P[i]
        length = float(np.hypot(d[0], d[1]))
        if length > 0:
            # signed distances of both ends from the line through segment i
            side_p = (d[0] * (P[:, 1] - P[i, 1]) - d[1] * (P[:, 0] - P[i, 0])) / length
            side_q = (d[0] * (Q[:, 1] - P[i, 1]) - d[1] * (Q[:, 0] - P[i, 0])) / length
            near &= ~(((side_p > reach) & (side_q > reach)) | ((side_p < -reach) & (side_q < -reach)))
        j = np.flatnonzero(near)
        yield np.full(len(j), i), j
