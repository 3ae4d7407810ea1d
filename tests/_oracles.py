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


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value, straight from numpy's SVD."""
    return float(np.linalg.svd(np.asarray(A, dtype=float), compute_uv=False)[0])


def mp_needle_point(x1: float, x2: float, sharpness: float = 100.0, dps: int = 50):
    """High precision image of a point under squeeze-then-ripple (mpmath)."""
    import mpmath as mp

    with mp.workdps(dps):
        x1m, x2m = mp.mpf(x1), mp.mpf(x2)
        y2 = x1m / mp.mpf(sharpness) * x2m
        if x1m > 0:
            y2 = y2 + mp.sqrt(x1m) * mp.sin(1 / x1m)
        return float(x1m), float(y2)


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
    from ifscert.geometry import ContinuumModel, PointCloud, Polyline

    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]

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

    dim = None
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
            dim = _number(parts[1], where, int, least=1)
        elif tag == "meta":
            if len(parts) < 3:
                raise ValueError(f"{where}: meta needs a key and a value")
            meta[parts[1]] = parts[2]
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
                pieces.append(Polyline(rows, closed=closed, name=name))
            else:
                point_blocks.append(rows)
            i += count
        elif tag == "marked":
            coords = parts[2].split() if len(parts) == 3 else []
            if dim is None or len(coords) != dim:
                raise ValueError(f"{where}: marked point needs {dim} coordinates")
            marked[parts[1]] = np.array([_number(c, where) for c in coords])
        else:
            raise ValueError(f"{where}: unknown record {tag!r}")
        i += 1
    if dim is None:
        raise ValueError(f"{path}: missing dim header")
    if point_blocks and pieces:
        raise ValueError(f"{path}: mixed polyline and points sections are not supported")
    if point_blocks:
        pitch = _number(meta.get("pitch", "0"), f"{path}: meta pitch") or None
        if pitch is None:
            raise ValueError(f"{path}: point files need a 'meta pitch' record")
        return PointCloud(np.vstack(point_blocks), pitch)
    if not pieces:
        raise ValueError(f"{path}: no polyline or points sections")
    sampler = None
    if meta.get("kind") == "needle" and meta.get("base") == "default":
        sampler = continua.default_needle_sampler()
    return ContinuumModel(tuple(pieces), marked, dim, sampler=sampler, meta=meta)
