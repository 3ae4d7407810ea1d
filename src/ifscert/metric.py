"""Chain metrics on point clouds: neighbour graphs, shortest chains, profiles.

The chained distance between two samples is the length of the shortest path
in the graph whose edges join samples strictly closer than a hop bound
``epsilon``. Driving ``epsilon`` to zero along a refinement schedule and
watching the values either settle or blow up is the whole point of this
module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

from .geometry import ContinuumModel, PointCloud, as_point

# Hops below three pitches cannot be told apart from sampling noise.
_MIN_HOP_PITCHES = 3.0

# Relative tolerance used when snapping query points onto cloud samples.
_SNAP_SLACK = 1.000001

# Edge budget for a single neighbour graph. Building a 2-D graph peaks at
# about 53 bytes an edge (index pairs, coordinate differences, weights), so
# about 4.2 GB at the budget; the kept graph (24 bytes an edge) plus the CSR
# matrix and transpose of a query stay below that peak.
_MAX_EDGES = 8e7

# Verdict thresholds for chain profiles.
DIVERGENCE_SLOPE = -0.15
CONVERGENCE_REL_STEP = 0.01


def hausdorff(a: PointCloud, b: PointCloud, trees: tuple[cKDTree, cKDTree] | None = None,
              witness: bool = False) -> float | tuple[float, bool, np.ndarray]:
    """Hausdorff distance between two clouds (exact, two nearest-neighbour passes).

    ``trees`` are KD-trees over ``a.points`` and ``b.points`` built by the
    caller, who may reuse them; by default both are built here. With
    ``witness``, return ``(distance, in_a, point)``: the point farthest from
    the other cloud, and whether it belongs to ``a`` (ties go to ``a``).
    """
    ta, tb = trees if trees is not None else (cKDTree(a.points), cKDTree(b.points))
    d_ab = tb.query(a.points, k=1)[0]
    d_ba = ta.query(b.points, k=1)[0]
    gap = float(max(d_ab.max(), d_ba.max()))
    if not witness:
        return gap
    in_a = bool(d_ab.max() >= d_ba.max())
    far = a.points[int(np.argmax(d_ab))] if in_a else b.points[int(np.argmax(d_ba))]
    return gap, in_a, far


@dataclass(frozen=True)
class EpsGraph:
    """Undirected neighbour graph with hops strictly below ``epsilon``."""

    cloud: PointCloud
    epsilon: float
    edges: np.ndarray   # (E, 2) int64, each pair once with i < j, in no set order
    weights: np.ndarray  # (E,) float64 Euclidean hop lengths
    tree: cKDTree = field(repr=False, compare=False)  # over cloud.points, for snapping

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def matrix(self) -> csr_matrix:
        """Upper-triangle adjacency matrix: pass ``directed=False`` to ``dijkstra``."""
        n = len(self.cloud)
        return csr_matrix((self.weights, (self.edges[:, 0], self.edges[:, 1])), shape=(n, n))


def eps_graph(cloud: PointCloud, epsilon: float) -> EpsGraph:
    """Build the neighbour graph of ``cloud`` with hop lengths strictly below ``epsilon``."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if epsilon < _MIN_HOP_PITCHES * cloud.pitch:
        warnings.warn(
            f"epsilon={epsilon:g} is below {_MIN_HOP_PITCHES:g} pitches; "
            "chain values at this resolution are unreliable",
            stacklevel=2,
        )
    tree = cKDTree(cloud.points)
    # refuse graphs that would not fit in memory before materializing them
    approx_pairs = (tree.count_neighbors(tree, epsilon) - len(cloud)) // 2
    if approx_pairs > _MAX_EDGES:
        raise ValueError(
            f"epsilon graph would have about {approx_pairs:.2g} edges "
            f"(limit {_MAX_EDGES:.2g}); use a coarser pitch or a smaller epsilon"
        )
    pairs = tree.query_pairs(r=epsilon, output_type="ndarray").astype(np.int64, copy=False)
    d = np.take(cloud.points, pairs[:, 0], axis=0) - np.take(cloud.points, pairs[:, 1], axis=0)
    w = np.sqrt(np.einsum("ij,ij->i", d, d))
    keep = w < epsilon  # query_pairs includes hops equal to epsilon
    if not keep.all():
        pairs, w = pairs[keep], w[keep]
    return EpsGraph(cloud, float(epsilon), pairs, w, tree)


def _snap_indices(graph: EpsGraph, points: np.ndarray) -> np.ndarray:
    """Index of the sample nearest to each row of ``points``, within one pitch."""
    cloud = graph.cloud
    dist, idx = graph.tree.query(points)
    far = np.flatnonzero(dist > cloud.pitch * _SNAP_SLACK)
    if len(far):
        k = far[0]
        raise ValueError(
            f"point {points[k]} is {dist[k]:g} away from the cloud, beyond its pitch "
            f"{cloud.pitch:g}"
        )
    return idx


def _pair_distances(graph: EpsGraph, ends: np.ndarray) -> np.ndarray:
    """Chained distances for an ``(m, 2, dim)`` array of endpoint pairs.

    One Dijkstra pass serves every distinct source; pairs that snap to one
    sample get 0 without a search.
    """
    src, dst = _snap_indices(graph, ends.reshape(-1, ends.shape[-1])).reshape(-1, 2).T
    out = np.zeros(len(src))
    live = src != dst
    if live.any():
        sources, row = np.unique(src[live], return_inverse=True)
        dist = dijkstra(graph.matrix(), directed=False, indices=sources)
        out[live] = dist[row, dst[live]]
    return out


def chain_distance(cloud: PointCloud, x, y, epsilon: float) -> float:
    """Shortest chained distance between ``x`` and ``y`` over ``cloud``.

    ``x`` and ``y`` must lie within one pitch of a sample; they are snapped to
    the nearest one. Returns ``math.inf`` when no chain connects them.
    """
    graph = eps_graph(cloud, epsilon)
    return chain_distance_on_graph(graph, x, y)


def chain_distance_on_graph(graph: EpsGraph, x, y) -> float:
    dim = graph.cloud.dimension
    ends = np.stack([as_point(x, dim), as_point(y, dim)])[None]
    return float(_pair_distances(graph, ends)[0])


@dataclass(frozen=True)
class ChainMetricProfile:
    """Chain values along a geometric refinement schedule, with a verdict.

    ``verdict`` is one of ``"diverges"``, ``"converges"``, ``"inconclusive"``.
    Disconnected entries are recorded as ``inf``.
    """

    epsilons: np.ndarray
    pitches: np.ndarray
    values: np.ndarray
    verdict: str
    slope: float | None = None
    limit: float | None = None
    note: str = ""

    def __post_init__(self):
        for name in ("epsilons", "pitches", "values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def summary(self) -> str:
        bits = [f"verdict={self.verdict}"]
        if self.slope is not None:
            bits.append(f"slope={self.slope:.6g}")
        if self.limit is not None:
            bits.append(f"limit={self.limit:.17g}")
        if self.note:
            bits.append(f"note={self.note}")
        return " ".join(bits)


def chain_profile(
    model: ContinuumModel,
    x,
    y,
    eps0: float,
    k_max: int,
    pitch_ratio: float = 10.0,
) -> ChainMetricProfile:
    """Chain values between two points of ``model`` at hop bounds ``eps0 * 2**-k``.

    Each entry resamples the model at pitch ``eps_k / pitch_ratio``. ``x`` and
    ``y`` may be marked labels or coordinates.
    """
    return chain_profiles(model, [(x, y)], eps0, k_max, pitch_ratio)[0]


def chain_profiles(
    model: ContinuumModel,
    pairs,
    eps0: float,
    k_max: int,
    pitch_ratio: float = 10.0,
) -> list[ChainMetricProfile]:
    """One :func:`chain_profile` per ``(x, y)`` pair, all over one schedule.

    Each scale refines the model once, builds one graph and runs one
    Dijkstra pass from the distinct sources, so the profiles equal separate
    :func:`chain_profile` calls bit for bit.
    """
    if not (0 < eps0 < math.inf) or k_max < 0:
        raise ValueError("need a finite eps0 > 0 and k_max >= 0")
    if not (_MIN_HOP_PITCHES <= pitch_ratio < math.inf):
        raise ValueError(
            f"pitch_ratio must be finite and at least {_MIN_HOP_PITCHES:g}, "
            "the reliable hop resolution"
        )
    ends = np.array([[model.resolve(x), model.resolve(y)] for x, y in pairs], dtype=float)
    ends = ends.reshape(-1, 2, model.dimension)
    epsilons = eps0 * 0.5 ** np.arange(k_max + 1)
    pitches = epsilons / pitch_ratio
    values = np.empty((len(ends), k_max + 1))
    for k, (eps, delta) in enumerate(zip(epsilons, pitches)):
        graph = eps_graph(model.refine(float(delta)), float(eps))
        values[:, k] = _pair_distances(graph, ends)
    return [
        ChainMetricProfile(epsilons, pitches, v, *_profile_verdict(epsilons, pitches, v, k_max))
        for v in values
    ]


def _profile_verdict(epsilons, pitches, values, k_max):
    window = max(2, math.ceil(k_max / 2)) if k_max >= 1 else 1
    window = min(window, len(values))
    ve = epsilons[-window:]
    vp = pitches[-window:]
    vv = values[-window:]
    if not np.all(np.isfinite(vv)):
        bad = epsilons[~np.isfinite(values)]
        return "inconclusive", None, None, f"disconnected at epsilon={bad.max():g}"
    slope = None
    if window >= 2:
        slope = float(np.polyfit(np.log(ve), np.log(np.maximum(vv, 1e-300)), 1)[0])
        growing = np.all(vv[1:] >= vv[:-1] - _MIN_HOP_PITCHES * vp[1:])
        if slope <= DIVERGENCE_SLOPE and growing:
            return "diverges", slope, None, ""
    if len(values) >= 3 and np.all(np.isfinite(values[-3:])):
        v1, v2, v3 = values[-3:]
        ok12 = abs(v2 - v1) <= CONVERGENCE_REL_STEP * max(abs(v1), 1e-300)
        ok23 = abs(v3 - v2) <= CONVERGENCE_REL_STEP * max(abs(v2), 1e-300)
        if ok12 and ok23:
            return "converges", slope, float(v3), ""
    return "inconclusive", slope, None, "no stable trend over the fit window"


@dataclass(frozen=True)
class MonotonicityResult:
    ok: bool
    subset_value: float
    superset_value: float


def monotonicity_check(sub: PointCloud, sup: PointCloud, x, y, epsilon: float) -> MonotonicityResult:
    """Check that chaining over the superset never beats chaining over the subset.

    ``sub`` must be contained in ``sup`` (within floating slack); raises otherwise.
    """
    tree = cKDTree(sup.points)
    dmax = tree.query(sub.points, k=1)[0].max()
    scale = max(1.0, float(np.abs(sup.points).max()))
    if dmax > 1e-9 * scale:
        raise ValueError(f"first cloud is not contained in the second (offset {dmax:g})")
    d_sub = chain_distance(sub, x, y, epsilon)
    d_sup = chain_distance(sup, x, y, epsilon)
    ok = d_sup <= d_sub + 1e-12 * max(1.0, abs(d_sub))  # always true when d_sub is inf
    return MonotonicityResult(bool(ok), d_sub, d_sup)
