"""Independent reference computations used by the test suite.

Everything here recomputes expected values through a different route than
the library under test: direct quadrature, dense brute force, random
iteration, or high precision arithmetic.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad


def wave_arc_length(a: float, b: float) -> float:
    """Arc length of x -> sqrt(x) sin(1/x) over [a, b] by piecewise quadrature.

    Splits at the zero crossings 1/(k pi) so each piece is a single smooth
    hump, which keeps the quadrature honest at small a.
    """
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")

    def speed(x):
        g1 = math.sin(1.0 / x) / (2.0 * math.sqrt(x)) - math.cos(1.0 / x) / x ** 1.5
        return math.hypot(1.0, g1)

    k_hi = math.floor(1.0 / (math.pi * a))
    k_lo = math.ceil(1.0 / (math.pi * b))
    breaks = [a] + [1.0 / (math.pi * k) for k in range(k_hi, k_lo - 1, -1) if a < 1.0 / (math.pi * k) < b] + [b]
    total = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        val, _ = quad(speed, lo, hi, limit=200)
        total += val
    return total


def chain_bruteforce(points: np.ndarray, i: int, j: int, epsilon: float) -> float:
    """Shortest chained distance via a dense distance matrix and Dijkstra.

    Quadratic in the cloud size; only for small reference cases.
    """
    from scipy.sparse.csgraph import dijkstra

    n = len(points)
    if n > 4000:
        raise ValueError("brute force reference limited to 4000 points")
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(-1))
    graph = np.where(dist < epsilon, dist, 0.0)
    out = dijkstra(graph, directed=False, indices=i)
    return float(out[j])


def chain_profiles_reference(model, pairs, eps0: float, k_max: int, pitch_ratio: float = 10.0):
    """Chain values of ``chain_profiles`` through a KD-tree pair search.

    Each scale refines the model, takes the pairs from ``cKDTree.query_pairs``,
    keeps the hops below epsilon, builds the CSR matrix from COO triples and
    runs Dijkstra once per pair, with the endpoints snapped by the KD-tree.
    Returns a ``(len(pairs), k_max + 1)`` array.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra
    from scipy.spatial import cKDTree

    dim = model.dimension
    ends = np.array([[model.resolve(x), model.resolve(y)] for x, y in pairs], dtype=float)
    epsilons = eps0 * 0.5 ** np.arange(k_max + 1)
    values = np.empty((len(ends), k_max + 1))
    for k, eps in enumerate(epsilons):
        cloud = model.refine(float(eps / pitch_ratio))
        points = cloud.points
        tree = cKDTree(points)
        ij = tree.query_pairs(r=float(eps), output_type="ndarray")
        d = points[ij[:, 0]] - points[ij[:, 1]]
        w = np.sqrt(np.einsum("ij,ij->i", d, d))
        keep = w < eps
        n = len(points)
        graph = csr_matrix((w[keep], (ij[keep, 0], ij[keep, 1])), shape=(n, n))
        src, dst = tree.query(ends.reshape(-1, dim))[1].reshape(-1, 2).T
        for m, (a, b) in enumerate(zip(src, dst)):
            values[m, k] = dijkstra(graph, directed=False, indices=int(a))[b]
    return values


def hausdorff_reference(a, b, witness: bool = False):
    """``metric.hausdorff`` as two plain KD-tree passes.

    Balanced trees, one unbounded single-threaded query per point, and the
    same witness rule: the farthest point, on ``a``'s side when the two
    sides tie, the first such point of its cloud.
    """
    from scipy.spatial import cKDTree

    d_ab = cKDTree(b.points).query(a.points, k=1, workers=1)[0]
    d_ba = cKDTree(a.points).query(b.points, k=1, workers=1)[0]
    gap = float(max(d_ab.max(), d_ba.max()))
    if not witness:
        return gap
    in_a = bool(d_ab.max() >= d_ba.max())
    far = a.points[int(np.argmax(d_ab))] if in_a else b.points[int(np.argmax(d_ba))]
    return gap, in_a, far


def chaos_game(maps: list[tuple[np.ndarray, np.ndarray]], n_points: int, seed: int,
               burn: int = 64, walkers: int = 4096) -> np.ndarray:
    """Random-iteration sample of the attractor of affine contractions.

    Runs many walkers in parallel, discards a burn-in, then collects one
    point per walker per step until ``n_points`` are gathered.
    """
    rng = np.random.default_rng(seed)
    dim = maps[0][1].size
    x = rng.uniform(-1, 1, size=(walkers, dim))
    out = []
    have = 0
    steps = burn + int(math.ceil(n_points / walkers))
    for step in range(steps):
        pick = rng.integers(0, len(maps), size=walkers)
        nxt = np.empty_like(x)
        for m, (A, b) in enumerate(maps):
            sel = pick == m
            nxt[sel] = x[sel] @ A.T + b
        x = nxt
        if step >= burn:
            out.append(x.copy())
            have += walkers
            if have >= n_points:
                break
    return np.vstack(out)[:n_points]


def hutchinson_reference(images: list[np.ndarray], pitch: float) -> np.ndarray:
    """The points one set-map step keeps of ``images``, one array per map in map order.

    A point's cell is each coordinate over half the pitch, rounded by
    Python's ``round`` (half to even). Each cell keeps its lexicographically
    smallest point; among points that compare equal (``-0.0`` equals
    ``0.0``) the first in map-then-point order stays. Cells come out in key
    order.
    """
    cell = pitch / 2
    best: dict[tuple[int, ...], list[float]] = {}
    for image in images:
        for point in image.tolist():
            key = tuple(round(x / cell) for x in point)
            if key not in best or point < best[key]:
                best[key] = point
    return np.array([best[key] for key in sorted(best)], dtype=float)


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value, straight from numpy's SVD."""
    return float(np.linalg.svd(np.asarray(A, dtype=float), compute_uv=False)[0])


def needle_map(points, sharpness: float = 100.0) -> np.ndarray:
    """The needle embedding, squeeze then ripple, written out in one formula.

    ``(x1, x2) -> (x1, x1 * x2 / s + sqrt(x1) * sin(1 / x1))``, the wave taken
    as 0 at ``x1 = 0``: the reference for a composed squeeze-then-ripple map.
    """
    p = np.asarray(points, dtype=float)
    x1, x2 = p[:, 0], p[:, 1]
    safe = np.where(x1 > 0, x1, 1.0)
    wave = np.where(x1 > 0, np.sqrt(x1) * np.sin(1.0 / safe), 0.0)
    return np.column_stack((x1, x1 / sharpness * x2 + wave))


def mp_needle_point(x1: float, x2: float, sharpness: float = 100.0, dps: int = 50):
    """High precision image of a point under squeeze-then-ripple (mpmath)."""
    import mpmath as mp

    with mp.workdps(dps):
        x1m, x2m = mp.mpf(x1), mp.mpf(x2)
        y2 = x1m / mp.mpf(sharpness) * x2m
        if x1m > 0:
            y2 = y2 + mp.sqrt(x1m) * mp.sin(1 / x1m)
        return float(x1m), float(y2)


def self_intersects_allpairs(line, tol: float):
    """``self_intersects`` by brute force over every non-adjacent segment pair.

    Builds all pairs in one ``np.triu_indices`` block, so memory is quadratic
    in the segment count; only for small lines. A closed line drops the pair
    ``(0, n - 1)``, which shares the closing vertex.
    """
    from ifscert.geometry import _cross_mask_2d, _segment_distance_batch

    P, Q = line.segments()
    n = len(P)
    ii, jj = np.triu_indices(n, k=2)
    if line.closed and n > 2:
        keep = ~((ii == 0) & (jj == n - 1))
        ii, jj = ii[keep], jj[keep]
    hit = _segment_distance_batch(P[ii], Q[ii], P[jj], Q[jj]) <= tol
    if P.shape[1] == 2:
        hit |= _cross_mask_2d(P[ii], Q[ii], P[jj], Q[jj])
    if not hit.any():
        return False, None
    k = int(np.argmax(hit))
    return True, (int(ii[k]), int(jj[k]))


def _orientation(a, b, c) -> int:
    """Exact sign of the turn a -> b -> c, for points with ``Fraction`` coordinates."""
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def segments_meet_off_origin(p1, q1, p2, q2) -> bool:
    """Whether two 2-D segments of positive length share a point other than
    an origin endpoint of both, in exact rational arithmetic.

    Every float is a rational, so ``fractions.Fraction`` gives each
    orientation's exact sign. The segments meet when each one's ends lie
    strictly on both sides of the other's line, or an end of one lies on
    the other (a zero orientation and inside its box), which covers
    collinear overlap. Segments that both end at the origin meet elsewhere
    only when their other ends point the same way from it.
    """
    from fractions import Fraction

    p1, q1, p2, q2 = ([Fraction(float(c)) for c in pt] for pt in (p1, q1, p2, q2))

    def inside(a, b, c):
        return all(min(a[k], b[k]) <= c[k] <= max(a[k], b[k]) for k in (0, 1))

    o1, o2 = _orientation(p1, q1, p2), _orientation(p1, q1, q2)
    o3, o4 = _orientation(p2, q2, p1), _orientation(p2, q2, q1)
    meet = (o1 * o2 < 0 and o3 * o4 < 0) or any(
        o == 0 and inside(a, b, c)
        for o, a, b, c in ((o1, p1, q1, p2), (o2, p1, q1, q2), (o3, p2, q2, p1), (o4, p2, q2, q1)))
    origin = [Fraction(0), Fraction(0)]
    ends1, ends2 = [p1, q1], [p2, q2]
    if not meet or origin not in ends1 or origin not in ends2:
        return meet
    a = ends1[1 - ends1.index(origin)]
    b = ends2[1 - ends2.index(origin)]
    return _orientation(origin, a, b) == 0 and a[0] * b[0] + a[1] * b[1] > 0


def zigzag_teeth_reference(n: int) -> tuple[int, float]:
    """Tooth count and trim radius of ``l_n`` by a full search.

    The tooth count steps down by two while a line with fewer teeth still
    reaches ``2**n`` untrimmed, and up by two until it does. The trim
    radius is then solved three ways: exact at the outer radius, by
    bisection on ``[r_lo, r_hi]`` when the line is short at ``r_lo``, or
    by bisection on ``[0.02 * 2**-n, r_lo]``, pushing the tooth inward;
    when none applies, the search retries with two more teeth. Only the
    layout and the closed-form length come from the builder.
    """
    from ifscert import continua

    lay = continua._zigzag_layout(n)
    target = 2.0 ** n
    tol = 0.25 * continua._LENGTH_TOL * target

    def total(M, t):
        return continua._zigzag_total(M, t, lay)

    def solve_trim(M):
        hi = total(M, lay["r_hi"]) - target
        if abs(hi) <= tol:
            return lay["r_hi"]
        if hi < 0:
            return None
        t_floor = 0.02 * lay["scale"]
        if total(M, lay["r_lo"]) - target <= 0:
            a, b, increasing = lay["r_lo"], lay["r_hi"], True
        elif total(M, t_floor) - target <= 0:
            a, b, increasing = t_floor, lay["r_lo"], False
        else:
            return None
        for _ in range(200):
            mid = 0.5 * (a + b)
            e = total(M, mid) - target
            if abs(e) <= tol:
                return mid
            if (e > 0) == increasing:
                b = mid
            else:
                a = mid
        return 0.5 * (a + b)

    M = max(5, int(math.ceil(target / (lay["r_hi"] - lay["r_lo"]))) | 1)
    while M >= 7 and total(M - 2, lay["r_hi"]) >= target * (1 + 1e-12):
        M -= 2
    while total(M, lay["r_hi"]) < target:
        M += 2
    t = solve_trim(M)
    if t is None:
        M += 2
        t = solve_trim(M)
    return M, t


def zigzag_vertices_per_tooth(n: int) -> np.ndarray:
    """The vertices of ``build_zigzag_ln(n)``, interleaved one tooth at a time.

    The tooth count and trim radius come from :func:`zigzag_teeth_reference`
    and the layout from the builder's private helper; the inner and outer
    vertices of each tooth are then placed by a Python loop in travel
    direction.
    """
    from ifscert import continua
    from ifscert.geometry import polar_to_cartesian

    lay = continua._zigzag_layout(n)
    M, t = zigzag_teeth_reference(n)
    j_star = M // 2
    if j_star % 2 == 0:
        j_star -= 1
    j_star = min(max(j_star, 1), M - 2)
    thetas = (lay["theta_c"] - lay["width"]) + lay["width"] / (M - 1) * np.arange(M)
    peaks = np.full(M, lay["r_hi"])
    peaks[j_star - 1] = peaks[j_star] = t
    polar = np.empty((2 * M + 2, 2))
    polar[0] = (0.0, thetas[0])
    for j in range(M):
        inner, outer = (lay["r_lo"], thetas[j]), (peaks[j], thetas[j])
        polar[1 + 2 * j], polar[2 + 2 * j] = (inner, outer) if j % 2 == 0 else (outer, inner)
    polar[-1] = (lay["scale"], lay["theta_c"])
    verts = polar_to_cartesian(polar)
    verts[0] = 0.0
    return verts


def angle_key_strided(P, Q, centre, reach):
    """``geometry._angle_key`` on ``(n, 2)`` rows: ``einsum`` dot products, ``hypot`` of transposes."""
    from ifscert.geometry import _SLACK

    a = P - centre
    b = Q - centre
    ta = np.arctan2(a[:, 1], a[:, 0])
    tb = np.arctan2(b[:, 1], b[:, 0])
    v = b - a
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(-np.einsum("ij,ij->i", a, v) / np.einsum("ij,ij->i", v, v), 0.0, 1.0)
        d_lo = np.hypot(*(a + t[:, None] * v).T) - _SLACK * (np.hypot(*a.T) + np.hypot(*b.T))
        wild = ~(d_lo > 2 * reach)
        pad = np.arcsin(np.where(wild, 1.0, reach / d_lo)) * (1 + _SLACK) + _SLACK
    lo = np.minimum(ta, tb) - pad
    hi = np.maximum(ta, tb) + pad
    wild |= (lo <= -np.pi) | (hi >= np.pi) | (hi - lo >= np.pi)
    return lo, hi, wild


# ---------------------------------------------------------------------------
# per-point text formats: the one-row-at-a-time writers and reader that the
# chunked ones in ``ifscert.formats`` and ``ifscert.svg`` must match exactly


def _fmt17(x) -> str:
    return format(float(x), ".17g")


def _coords17(pt) -> str:
    return " ".join(_fmt17(c) for c in np.asarray(pt, dtype=float).ravel())


def model_text_per_point(model) -> str:
    """A model file's text, one ``format(x, ".17g")`` call per coordinate."""
    from ifscert.geometry import PointCloud

    out = []
    if isinstance(model, PointCloud):
        out.append(f"dim {model.points.shape[1]}\n")
        out.append(f"meta pitch {_fmt17(model.pitch)}\n")
        out.append(f"points cloud {len(model.points)}\n")
        out += [_coords17(pt) + "\n" for pt in model.points]
        return "".join(out)
    out.append(f"dim {model.dimension}\n")
    out += [f"meta {key} {model.meta[key]}\n" for key in sorted(model.meta)]
    for line in model.pieces:
        head = f"polyline {line.name} {len(line.vertices)}"
        out.append(head + (" closed\n" if line.closed else "\n"))
        out += [_coords17(pt) + "\n" for pt in line.vertices]
    out += [f"marked {label} {_coords17(model.marked[label])}\n" for label in sorted(model.marked)]
    return "".join(out)


def model_svg_per_point(model) -> str:
    """A model's SVG, one ``format(v, ".2f")`` call per canvas coordinate."""
    from ifscert import svg
    from ifscert.geometry import PointCloud

    def c(v):
        return format(v, ".2f")

    if isinstance(model, PointCloud):
        pts = svg._Frame(model.points).map(model.points)
        dots = " ".join(f"M{c(x)},{c(y)} h0" for x, y in pts)
        body = (
            f'<path d="{dots}" stroke="{svg._PALETTE[0]}" stroke-width="3" '
            f'stroke-linecap="round" fill="none"/>\n'
        )
        return svg._HEADER + body + "</svg>\n"
    stack = [line.vertices for line in model.pieces]
    if model.marked:
        stack.append(np.vstack(list(model.marked.values())))
    frame = svg._Frame(np.vstack(stack))
    parts = []
    for i, line in enumerate(model.pieces):
        pts = frame.map(line.vertices)
        d = " ".join([f"M{c(pts[0, 0])},{c(pts[0, 1])}"] + [f"L{c(x)},{c(y)}" for x, y in pts[1:]])
        if line.closed:
            d += " Z"
        color = svg._PALETTE[i % len(svg._PALETTE)]
        parts.append(f'<path d="{d}" stroke="{color}" stroke-width="1.5" fill="none"/>')
    parts += svg._marked_elements(model.marked, frame)
    return svg._HEADER + "\n".join(parts) + "\n</svg>\n"


def load_model_per_line(path: str):
    """Read a model file whole, then parse it one line and one float at a time."""
    from ifscert import continua
    from ifscert.formats import _number
    from ifscert.geometry import ContinuumModel, PointCloud, Polyline, marked_point, positive_pitch

    def at(where, build, *args, **kw):
        try:
            return build(*args, **kw)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None

    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None

    def vertices(start, count, dim):
        rows = np.empty((count, dim))
        for j in range(count):
            idx = start + j
            if idx >= len(lines):
                raise ValueError(f"{path}: truncated vertex block at line {idx + 1}")
            parts = lines[idx].split()
            if len(parts) != dim:
                raise ValueError(f"{path}:{idx + 1}: expected {dim} coordinates")
            try:
                rows[j] = [float(p) for p in parts]
            except ValueError:
                raise ValueError(f"{path}:{idx + 1}: bad coordinate in {lines[idx]!r}") from None
        return rows

    dim = dim_where = pitch_where = None
    meta, pieces, point_blocks, marked = {}, [], [], {}
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        if not line or line.startswith("#"):
            i += 1
            continue
        parts = line.split(None, 2)
        tag = parts[0]
        where = f"{path}:{i + 1}"
        if tag == "dim":
            if len(parts) < 2:
                raise ValueError(f"{where}: dim needs a value")
            dim, dim_where = _number(parts[1], where, int, least=1), where
        elif tag == "meta":
            if len(parts) < 3:
                raise ValueError(f"{where}: meta needs a key and a value")
            meta[parts[1]] = parts[2]
            if parts[1] == "pitch":
                pitch_where = where
        elif tag in ("polyline", "points"):
            if dim is None:
                raise ValueError(f"{where}: dim header must come first")
            if len(parts) < 3:
                raise ValueError(f"{where}: {tag} needs a name and a count")
            name, rest = parts[1], parts[2].split()
            count = _number(rest[0], where, int, least=0)
            closed = len(rest) > 1 and rest[1] == "closed"
            rows = vertices(i + 1, count, dim)
            if tag == "polyline":
                pieces.append(at(where, Polyline, rows, closed=closed, name=name))
            else:
                point_blocks.append(rows)
            i += count
        elif tag == "marked":
            coords = parts[2].split() if len(parts) == 3 else []
            if dim is None or len(coords) != dim:
                raise ValueError(f"{where}: marked point needs {dim} coordinates")
            marked[parts[1]] = at(where, marked_point, parts[1], [_number(c, where) for c in coords])
        else:
            raise ValueError(f"{where}: unknown record {tag!r}")
        i += 1
    if dim is None:
        raise ValueError(f"{path}: missing dim header")
    if point_blocks and pieces:
        raise ValueError(f"{path}: mixed polyline and points sections are not supported")
    if point_blocks:
        if "pitch" not in meta:
            raise ValueError(f"{path}: point files need a 'meta pitch' record")
        pitch = _number(meta["pitch"], pitch_where)
        at(pitch_where, positive_pitch, pitch)
        return at(path, PointCloud, at(dim_where, np.vstack, point_blocks), pitch)
    if not pieces:
        raise ValueError(f"{path}: no polyline or points sections")
    needle = meta.get("kind") == "needle" and meta.get("base") == "default"
    sampler = continua.sample_needle if needle else None
    return at(dim_where, ContinuumModel, tuple(pieces), marked, dim, sampler=sampler, meta=meta)
