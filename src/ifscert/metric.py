"""Chain metrics on point clouds: neighbour graphs, shortest chains, profiles.

The chained distance between two samples is the length of the shortest path
in the graph whose edges join samples strictly closer than a hop bound
``epsilon``. Driving ``epsilon`` to zero along a refinement schedule and
watching the values either settle or blow up is the whole point of this
module.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import os
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

# Edge budget for a single neighbour graph. The kept graph costs 12 bytes an
# edge (an int32 column index and a float64 weight), about 1 GB at the
# budget. The sweep writes kept edges straight into those arrays, so a build
# adds only its per-point ranges and at most two chunks of candidates per
# worker: 13 bytes an edge in all at the needle's finest README scale. A
# query's Dijkstra pass adds the transpose, another 12.
_MAX_EDGES = 8e7

# The largest hop bound a graph takes. Every hop it keeps is shorter, so the
# hop's squared length stays below 2**1020 and is finite; a gap whose square
# overflows is longer than the bound, and rightly dropped.
_MAX_EPSILON = 2.0 ** 510

# Candidate pairs one worker measures at a time while the sweep builds a
# graph; each worker has at most two chunks in flight.
_SWEEP_CHUNK = 1 << 16

# glibc's mallopt parameter numbers (malloc.h), for the pool's settings.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# Every this-many-th point is queried without a bound to cap the rest of a
# Hausdorff pass (see _nearest_distances).
_CAP_STRIDE = 64

# Verdict thresholds for chain profiles.
DIVERGENCE_SLOPE = -0.15
CONVERGENCE_REL_STEP = 0.01


def hausdorff(a: PointCloud, b: PointCloud, trees: tuple[cKDTree, cKDTree] | None = None,
              witness: bool = False) -> float | tuple[float, bool, np.ndarray]:
    """Hausdorff distance between two clouds (exact, two nearest-neighbour passes).

    ``trees`` are KD-trees over ``a.points`` and ``b.points`` built by the
    caller, who may reuse them, balanced or not; by default both are built
    here. With ``witness``, return ``(distance, in_a, point)``: the point
    farthest from the other cloud, and whether it belongs to ``a`` (ties go
    to ``a``). A gap whose square overflows is refused, not read as inf.

    Each pass is :func:`_nearest_distances`: it returns every point's exact
    distance to the other cloud, the same floats as one unbounded query, so
    the distance, the side and the witness are too.
    """
    ta, tb = trees if trees is not None else (cKDTree(a.points), cKDTree(b.points))
    d_ab = _nearest_distances(tb, a.points)
    d_ba = _nearest_distances(ta, b.points)
    gap = float(max(d_ab.max(), d_ba.max()))
    if gap == np.inf:  # the clouds are finite, so a squared gap overflowed
        raise ValueError("Hausdorff distance overflows: a gap's square passes the float range")
    if not witness:
        return gap
    in_a = bool(d_ab.max() >= d_ba.max())
    far = a.points[int(np.argmax(d_ab))] if in_a else b.points[int(np.argmax(d_ba))]
    return gap, in_a, far


def _nearest_distances(tree: cKDTree, points: np.ndarray) -> np.ndarray:
    """Distance from each row of ``points`` to its nearest point in ``tree``, exactly.

    Only the largest distance decides a Hausdorff distance, so the search is
    capped. Every ``_CAP_STRIDE``-th point is queried without a bound. The
    largest of those distances, ``cap``, is attained by a point, so it is a
    lower bound on the largest distance of all. Every point is then queried
    with ``distance_upper_bound=cap``, which lets the search skip each
    subtree farther than ``cap``. A finite answer is that point's nearest
    distance: the nearest point lies within the bound, so the search reaches
    it, and the distance of a pair is computed the same way on every path
    through any tree, so it is the float an unbounded query returns. A point
    that comes back ``inf`` has nothing within the bound, and is queried
    again without it; every point that attains the maximum is among them.
    So the array equals one unbounded query's bit for bit, and the stride
    changes the speed, never the result. A ``cap`` of 0 (every sampled
    point on the tree) would bound nothing, so then every point gets the
    plain query.

    Queries run on every CPU this process may use; each point is answered on
    its own, so the result does not depend on the worker count.
    """
    workers = _query_workers()
    cap = tree.query(points[::_CAP_STRIDE], workers=workers)[0].max()
    if not cap > 0:
        return tree.query(points, workers=workers)[0]
    dist = tree.query(points, distance_upper_bound=cap, workers=workers)[0]
    far = np.flatnonzero(np.isinf(dist))
    dist[far] = tree.query(points[far], workers=workers)[0]
    return dist


def _query_workers() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _pool(workers: int):
    """The process's pool of ``workers`` threads, made on first use and then kept.

    glibc gives each thread that allocates a malloc arena of its own, and
    keeps an arena's free top resident up to its trim threshold, which
    grows to 64 MiB as large blocks are freed. The calling thread cannot
    reuse what the workers' arenas keep, a refinement's temporaries above
    all, so before its threads start the pool fixes glibc's thresholds:
    the mmap threshold at 32 MiB, the ceiling it grows to anyway, and the
    trim threshold at 8 MiB. Kept threads keep their arenas, and
    :func:`_release_freed_memory` hands back what the arenas hold free.
    """
    from concurrent.futures import ThreadPoolExecutor  # a one-CPU run never pays the import

    libc = _glibc()
    if libc is not None:
        libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        libc.mallopt(_M_TRIM_THRESHOLD, 8 << 20)
    return ThreadPoolExecutor(workers, thread_name_prefix="ifscert")


if hasattr(os, "register_at_fork"):  # a forked child has none of its parent's threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _ordered_map(fn, jobs):
    """Yield ``fn(*job)`` for each job, in order.

    With one CPU the jobs run one by one in the calling thread. Otherwise
    they run on the pool, at most two per worker ahead of the caller, so
    finished results never pile up; if the caller stops early, the jobs not
    yet started are cancelled and the running ones waited for.
    """
    workers = _query_workers()
    if workers == 1:
        yield from itertools.starmap(fn, jobs)
        return
    pool, pending = _pool(workers), collections.deque()
    try:
        for job in jobs:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, *job))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            _settle(future)


def _settle(future) -> None:
    """Cancel ``future``, or wait for it if it is running; its result or error is dropped."""
    if not future.cancel():
        future.exception()


@functools.cache
def _glibc():
    """The C library through ctypes where it is glibc (it has ``malloc_trim``), else None."""
    import ctypes

    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # no process-wide symbol table to open, as on Windows
        return None
    if not hasattr(libc, "malloc_trim"):
        return None
    libc.malloc_trim.argtypes, libc.malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
    libc.mallopt.argtypes, libc.mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return libc


def _release_freed_memory() -> None:
    """Hand the free pages of every malloc arena back to the system, with glibc."""
    libc = _glibc()
    if libc is not None:
        libc.malloc_trim(0)


@dataclass(frozen=True)
class EpsGraph:
    """Undirected neighbour graph with hops strictly below ``epsilon``.

    Vertex ``k`` of ``adjacency`` is sample ``order[k]`` of ``cloud``; the
    sweep that built the graph numbers the samples in that order.
    """

    cloud: PointCloud
    epsilon: float
    order: np.ndarray  # (n,) vertex -> index into cloud.points
    adjacency: csr_matrix = field(repr=False, compare=False)  # upper triangle, sorted rows

    @property
    def edge_count(self) -> int:
        return self.adjacency.nnz

    def matrix(self) -> csr_matrix:
        """Upper-triangle adjacency matrix: pass ``directed=False`` to ``dijkstra``."""
        return self.adjacency


def eps_graph(cloud: PointCloud, epsilon: float) -> EpsGraph:
    """Build the neighbour graph of ``cloud`` with hop lengths strictly below ``epsilon``.

    The pairs come from :func:`_sweep_ranges` and are measured a chunk at a
    time. A graph whose candidate count exceeds the edge budget is counted
    exactly with the KD-tree before it is built, and refused if its pairs
    within ``epsilon`` still exceed the budget. An ``epsilon`` above
    ``_MAX_EPSILON`` is refused.
    """
    if not epsilon > 0:  # NaN too: every pair would be a candidate
        raise ValueError("epsilon must be positive")
    if epsilon > _MAX_EPSILON:
        raise ValueError(f"epsilon={epsilon:g} is above 2**510, where a hop's square could overflow")
    if epsilon < _MIN_HOP_PITCHES * cloud.pitch:
        warnings.warn(
            f"epsilon={epsilon:g} is below {_MIN_HOP_PITCHES:g} pitches; "
            "chain values at this resolution are unreliable",
            stacklevel=2,
        )
    order, starts, lengths = _sweep_ranges(cloud.points, epsilon)
    if lengths.sum() > _MAX_EDGES:
        # refuse graphs that would not fit in memory before materializing them
        tree = cKDTree(cloud.points)
        approx_pairs = (tree.count_neighbors(tree, epsilon) - len(cloud)) // 2
        if approx_pairs > _MAX_EDGES:
            raise ValueError(
                f"epsilon graph would have about {approx_pairs:.2g} edges "
                f"(limit {_MAX_EDGES:.2g}); use a coarser pitch or a smaller epsilon"
            )
    adjacency = _sweep_csr(cloud.points[order], epsilon, starts, lengths)
    return EpsGraph(cloud, float(epsilon), order, adjacency)


def _sweep_ranges(points: np.ndarray, epsilon: float):
    """Sort ``points`` for the sweep and give each its candidate neighbours.

    Returns ``order``, the sweep's numbering of the points, and two
    ``(n, c)`` arrays: the candidates of vertex ``k`` are the vertices
    ``starts[k, t] + 0 .. lengths[k, t] - 1`` for each column ``t``. All of
    them are later than ``k``, and they increase along a row.

    The sweep cuts space into cells of width ``reach``, a padded ``epsilon``,
    on the first ``c = min(d - 1, 2)`` axes, and sorts the points by (cell,
    last coordinate), cells in lexicographic order. The candidates of a
    point are the later points of its own cell whose last coordinate is at
    most its own plus ``reach``, then, in each of the (3^c - 1)/2 cells
    whose offset is lexicographically positive and at most 1 on every cut
    axis, the points whose last coordinate lies within ``reach`` of its
    own. Each unordered pair of points is considered at most once. In
    ``d <= 3`` every axis but the last is cut; in higher dimensions the
    other axes are not, so the neighbour cells number at most 4, not
    (3^(d-1) - 1)/2.

    No pair that the filter of :func:`_sweep_csr` keeps is left out. Let u
    be the unit roundoff, M the largest coordinate magnitude, g the
    computed difference of two points and w = fl(sqrt(S)) the computed
    length, S the rounded sum of the squares of g. The terms of S are not
    negative and rounding is monotone, so S >= fl(g_k^2) on every axis k.
    If |g_k| >= 2^-510 that square is normal, so w >= |g_k|(1 - 2u), and
    ``w < epsilon`` gives |g_k| < epsilon/(1 - 2u); otherwise |g_k| < 2^-510.
    A difference of two floats is off by at most u relative, so the true
    coordinate gap is below r = max(epsilon, 2^-510)(1 + 4u).
    ``reach = max(epsilon, 2^-510)(1 + 2^-40) + 2^-48 M``, evaluated in
    floating point, has reach (1 - u) >= r + 2uM with room to spare.

    * Cells: fl(x/reach) is off by at most uM/reach, so two points less
      than r apart on an axis have quotients less than (r + 2uM)/reach < 1
      apart, and their cells differ by at most one. The quotients stay below
      2^49 in magnitude, so the cell numbers are exact integers.
    * Last coordinate: fl(y + reach) >= y + reach - u(M + reach) >= y + r
      and fl(y - reach) <= y - r, so the searched window holds every point
      less than r away on that axis.

    A kept pair therefore lies in one cell, or in two cells whose offset,
    seen from the lexicographically smaller one, is one of the forward
    offsets; and it lies within the window of the point that comes first.
    The bound on the coordinate gap holds on every axis, so the argument
    needs it only on the cut axes and the last: an axis left uncut puts no
    condition on a candidate, so it only adds candidates, and the filter
    drops those.
    """
    n, dim = points.shape
    reach = max(epsilon, 2.0 ** -510) * (1 + 2.0 ** -40) + 2.0 ** -48 * float(np.abs(points).max())
    y = points[:, -1]
    by_y = np.argsort(y, kind="stable")
    y_sorted = y[by_y]
    cut = min(dim - 1, 2)
    cells = np.floor(points[:, :cut] / reach).astype(np.int64)
    # stable sorts: within a cell the points keep their order in ``by_y``
    order = by_y[np.lexsort(cells[by_y].T[::-1])] if cut else by_y
    cells = cells[order]
    head = np.ones(n, dtype=bool)
    head[1:] = (cells[1:] != cells[:-1]).any(axis=1)
    cell = np.cumsum(head) - 1  # dense cell numbers, in lexicographic order
    y_rank = np.empty(n, dtype=np.int64)
    y_rank[by_y] = np.arange(n)
    # strictly increasing along the sweep: (cell, rank in y) as one integer
    key = cell * n + y_rank[order]
    ys = y[order]
    lo = np.searchsorted(y_sorted, ys - reach, "left")
    hi = np.searchsorted(y_sorted, ys + reach, "right")
    starts = [np.arange(1, n + 1)]
    ends = [np.searchsorted(key, cell * n + hi)]
    heads = np.ascontiguousarray(cells[head])
    for offset in itertools.product((-1, 0, 1), repeat=cut):
        if offset <= (0,) * cut:
            continue
        target = heads + offset
        at = np.minimum(np.searchsorted(_lex_keys(heads), _lex_keys(target)), len(heads) - 1)
        # -1 for a cell with no points: its key range lies below every key
        nb = np.where((heads[at] == target).all(axis=1), at, -1)[cell]
        starts.append(np.searchsorted(key, nb * n + lo))
        ends.append(np.searchsorted(key, nb * n + hi))
    starts = np.stack(starts, axis=1)
    return order, starts, np.stack(ends, axis=1) - starts


def _lex_keys(rows: np.ndarray) -> np.ndarray:
    """The rows of an int64 array as records that compare lexicographically."""
    fields = [(f"a{k}", rows.dtype) for k in range(rows.shape[1])]
    return np.ascontiguousarray(rows).view(fields).ravel()


def _sweep_csr(points: np.ndarray, epsilon: float, starts, lengths) -> csr_matrix:
    """Upper-triangle CSR graph of the candidates whose computed length is below ``epsilon``.

    ``points`` are in the sweep's order. Candidates are measured a chunk of
    whole rows at a time by :func:`_measure_rows`, the chunks on the worker
    pool (see :func:`_ordered_map`). They arrive by row with increasing
    columns, and this thread writes each chunk's kept edges into the CSR
    arrays in row order, so the arrays do not depend on the chunk size or
    the worker count.
    """
    n = len(points)
    per_row = lengths.sum(axis=1)
    cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(per_row, out=cum[1:])
    index = np.int32 if n < 2 ** 31 else np.int64
    indptr = np.zeros(n + 1, dtype=np.int64)
    # room for every candidate within the budget; only the pages that the
    # kept edges fill are ever written, so only they take memory
    room = int(min(cum[-1], _MAX_EDGES))
    indices, data = np.empty(room, dtype=index), np.empty(room)
    measure = functools.partial(_measure_rows, points, epsilon, starts, lengths, per_row, cum)
    chunks = list(_row_chunks(cum))
    for (r0, r1), (col, w, row_ends) in zip(chunks, _ordered_map(measure, chunks)):
        indptr[r0 + 1:r1 + 1] = indptr[r0] + row_ends
        if indptr[r1] > len(data):
            indices.resize(2 * indptr[r1], refcheck=False)
            data.resize(2 * indptr[r1], refcheck=False)
        indices[indptr[r0]:indptr[r1]] = col
        data[indptr[r0]:indptr[r1]] = w
    indices.resize(indptr[-1], refcheck=False)  # shrinks in place, without a copy
    data.resize(indptr[-1], refcheck=False)
    adjacency = csr_matrix((data, indices, indptr.astype(index)), shape=(n, n))
    adjacency.has_sorted_indices = True
    return adjacency


def _row_chunks(cum: np.ndarray):
    """Runs ``(r0, r1)`` of whole rows holding about ``_SWEEP_CHUNK`` candidates each.

    ``cum[r]`` counts the candidates of the rows before ``r``; a run holds
    at least one row.
    """
    r0, n = 0, len(cum) - 1
    while r0 < n:
        r1 = max(r0 + 1, int(np.searchsorted(cum, cum[r0] + _SWEEP_CHUNK, "right")) - 1)
        yield r0, r1
        r0 = r1


def _measure_rows(points, epsilon, starts, lengths, per_row, cum, r0, r1):
    """The kept candidates of rows ``r0 .. r1 - 1``: columns, hops and each row's end.

    Each hop is ``sqrt(einsum(d, d))`` over its own ``d = p_row - p_col``,
    so its float does not depend on the other candidates of the chunk.
    """
    ln = lengths[r0:r1].ravel()
    first = np.cumsum(ln) - ln
    col = np.arange(first[-1] + ln[-1]) + np.repeat(starts[r0:r1].ravel() - first, ln)
    d = np.repeat(points[r0:r1], per_row[r0:r1], axis=0)
    d -= np.take(points, col, axis=0)
    w = np.einsum("ij,ij->i", d, d)
    np.sqrt(w, out=w)
    keep = np.flatnonzero(w < epsilon)
    # kept candidates before the end of each row
    return col[keep], w[keep], np.searchsorted(keep, cum[r0 + 1:r1 + 1] - cum[r0])


def nearest_samples(samples: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance to and index of the nearest row of ``samples`` for each row of ``points``.

    An exact scan, for a handful of points, in place of a KD-tree over all
    the samples. The rule: the nearest sample, ties to the lowest index.
    Each squared distance is summed axis by axis in order, as scipy's
    KD-tree query sums it in up to seven dimensions, so there the distance
    is the query's float. A nearest gap whose square overflows is refused,
    not read as inf.
    """
    dist = np.empty(len(points))
    idx = np.empty(len(points), dtype=np.intp)
    for k, pt in enumerate(points):
        sq = np.zeros(len(samples))
        with np.errstate(over="ignore"):  # a gap or square past the float range is inf
            for axis in range(samples.shape[1]):
                gap = samples[:, axis] - pt[axis]
                sq += gap * gap
        idx[k] = np.argmin(sq)
        if sq[idx[k]] == np.inf:  # every gap's square overflowed, so argmin picked a tie
            raise ValueError(f"distance from {pt} to the nearest sample overflows: "
                             "its square passes the float range")
        dist[k] = math.sqrt(sq[idx[k]])
    return dist, idx


def _snap_indices(graph: EpsGraph, points: np.ndarray) -> np.ndarray:
    """Index of the sample nearest to each row of ``points``, within one pitch."""
    cloud = graph.cloud
    dist, idx = nearest_samples(cloud.points, points)
    far = np.flatnonzero(dist > cloud.pitch * _SNAP_SLACK)
    if len(far):
        k = far[0]
        raise ValueError(
            f"point {points[k]} is {dist[k]:g} away from the cloud, beyond its pitch "
            f"{cloud.pitch:g}"
        )
    return idx


def _snapped_vertices(graph: EpsGraph, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The vertices of ``graph`` that an ``(m, 2, dim)`` array of endpoint pairs snaps to.

    Returns the ``m`` sources and the ``m`` targets.
    """
    vertex = np.empty_like(graph.order)
    vertex[graph.order] = np.arange(len(vertex))
    return vertex[_snap_indices(graph, ends.reshape(-1, ends.shape[-1]))].reshape(-1, 2).T


def _chained_distances(adjacency: csr_matrix, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Shortest-path lengths from each vertex of ``src`` to its vertex of ``dst``.

    One Dijkstra pass serves every distinct source; pairs of one vertex get
    0 without a search.
    """
    out = np.zeros(len(src))
    live = src != dst
    if live.any():
        sources, row = np.unique(src[live], return_inverse=True)
        if _query_workers() > 1:
            _release_freed_memory()
        dist = dijkstra(adjacency, directed=False, indices=sources)
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
    return float(_chained_distances(graph.matrix(), *_snapped_vertices(graph, ends))[0])


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

    With more than one CPU, scale ``k + 1`` is refined on the worker pool
    while scale ``k``'s graph is built and searched in this thread. Errors
    keep their serial order: a refinement's error is raised when its scale
    is reached, and an error at scale ``k`` cancels or waits out the
    pending refinement first.
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
    workers = _query_workers()
    refined = None  # the pending refinement of the next scale
    try:
        for k, (eps, delta) in enumerate(zip(epsilons, pitches)):
            cloud = refined.result() if refined is not None else model.refine(float(delta))
            refined = None
            if workers > 1 and k < k_max:
                refined = _pool(workers).submit(_refine, model, float(pitches[k + 1]))
            graph = eps_graph(cloud, float(eps))
            src, dst = _snapped_vertices(graph, ends)
            adjacency = graph.matrix()
            del graph, cloud  # the search needs only the matrix: free the samples first
            values[:, k] = _chained_distances(adjacency, src, dst)
    finally:
        if refined is not None:
            _settle(refined)
    return [
        ChainMetricProfile(epsilons, pitches, v, *_profile_verdict(epsilons, pitches, v, k_max))
        for v in values
    ]


def _refine(model: ContinuumModel, delta: float) -> PointCloud:
    """``model.refine(delta)`` on a worker, whose temporaries go back to the system at once."""
    cloud = model.refine(delta)
    _release_freed_memory()
    return cloud


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
