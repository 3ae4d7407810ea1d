"""Static SVG rendering for models, point clouds and chain-metric profiles.

Fixed 1000x1000 viewport, fixed palette, fixed decimal formatting: the same
input always produces the same bytes. Path data for large clouds and lines
is formatted 8,192 points per block by the exact ``%.2f`` kernel of
``_numtext``, whose bytes are Python's ``%``.
"""

from __future__ import annotations

import numpy as np

from . import _numtext
from .geometry import ContinuumModel, PointCloud

VIEW = 1000
_PLOT_MARGIN = 0.05
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")

_HEADER = (
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW}" height="{VIEW}" '
    f'viewBox="0 0 {VIEW} {VIEW}">\n'
    f'<rect width="{VIEW}" height="{VIEW}" fill="white"/>\n'
)


def _c(v: float) -> str:
    return format(v, ".2f")


def _escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities (``xml.sax.saxutils.escape``
    without its import of ``urllib`` and ``ssl``); ``&`` goes first."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Frame:
    """Data-to-canvas transform: fit the padded bounding box (width 0: the centre), keep aspect, flip y."""

    def __init__(self, points: np.ndarray):
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            span = np.maximum(hi - lo, 1e-12)
            pad = _PLOT_MARGIN * float(span.max())
            lo, hi = lo - pad, hi + pad
            self.center = (lo + hi) / 2
            width = float((hi - lo).max())
        if not np.isfinite([*self.center, width]).all():
            raise ValueError("cannot draw these coordinates: the padded bounding box overflows")
        self.scale = VIEW / width if width > 0 else 0.0

    def map(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        out = np.empty_like(pts, dtype=float)
        out[:, 0] = VIEW / 2 + (pts[:, 0] - self.center[0]) * self.scale
        out[:, 1] = VIEW / 2 - (pts[:, 1] - self.center[1]) * self.scale
        return out


def _format_points(pattern: str, pts: np.ndarray) -> str:
    """``pattern % (x, y)`` for each point, space-separated, a block at a time.

    The bytes are Python's ``%`` (see ``_numtext``); ``"%.2f" % v`` and
    ``_c(v)`` are the same C routine.
    """
    return " ".join(_numtext.text_chunks(pattern, pts, " "))


def _path(canvas_pts: np.ndarray) -> str:
    head = _format_points("M%.2f,%.2f", canvas_pts[:1])
    return head + " " + _format_points("L%.2f,%.2f", canvas_pts[1:])


def _marked_elements(marked: dict, frame: _Frame) -> list[str]:
    parts = []
    for label in sorted(marked):
        x, y = frame.map(marked[label])[0]
        parts.append(f'<circle cx="{_c(x)}" cy="{_c(y)}" r="6" fill="#d62728"/>')
        parts.append(
            f'<text x="{_c(x + 9)}" y="{_c(y - 9)}" font-family="monospace" '
            f'font-size="22" fill="#333333">{_escape(label)}</text>'
        )
    return parts


def model_svg(model: ContinuumModel | PointCloud) -> str:
    """Draw a model's polylines (and marked points) or a bare cloud."""
    dim = model.points.shape[1] if isinstance(model, PointCloud) else model.dimension
    if dim != 2:
        raise ValueError(f"only 2-D models can be drawn, not dimension {dim}")
    if isinstance(model, PointCloud):
        frame = _Frame(model.points)
        pieces = [_HEADER, '<path d="']
        # each block of 8,192 points is mapped to the canvas, formatted as one piece and dropped
        step = _numtext._BLOCK_VALUES // 2
        for lo in range(0, len(model.points), step):
            (block,) = _numtext.text_chunks("M%.2f,%.2f h0", frame.map(model.points[lo:lo + step]), " ")
            pieces += (block, " ")
        pieces[-1] = f'" stroke="{_PALETTE[0]}" stroke-width="3" stroke-linecap="round" fill="none"/>\n</svg>\n'
        # one join: the dots are the bulk of the document
        return "".join(pieces)
    stack = [line.vertices for line in model.pieces]
    if model.marked:
        stack.append(np.vstack(list(model.marked.values())))
    frame = _Frame(np.vstack(stack))
    parts = []
    for i, line in enumerate(model.pieces):
        pts = frame.map(line.vertices)
        d = _path(pts)
        if line.closed:
            d += " Z"
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(f'<path d="{d}" stroke="{color}" stroke-width="1.5" fill="none"/>')
    parts += _marked_elements(model.marked, frame)
    return _HEADER + "\n".join(parts) + "\n</svg>\n"


def profile_svg(epsilons, values, title: str = "") -> str:
    """Log-log chart of a chain-length profile; finer scales to the right.

    A value of 0 (both ends snap to one sample) has no place on the log
    axis: it is drawn on the scale axis and labelled ``0``. An infinite
    value (no chain) is labelled ``inf`` at the top.
    """
    epsilons = np.asarray(epsilons, dtype=float)
    values = np.asarray(values, dtype=float)
    zero = values == 0
    finite = np.isfinite(values) & (values > 0)
    x0, x1, y0, y1 = 120.0, 950.0, 880.0, 100.0
    parts = [
        f'<line x1="{_c(x0)}" y1="{_c(y0)}" x2="{_c(x1)}" y2="{_c(y0)}" stroke="#333333" stroke-width="2"/>',
        f'<line x1="{_c(x0)}" y1="{_c(y0)}" x2="{_c(x0)}" y2="{_c(y1)}" stroke="#333333" stroke-width="2"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_c((x0 + x1) / 2)}" y="60" font-family="monospace" font-size="26" '
            f'text-anchor="middle" fill="#333333">{_escape(title)}</text>'
        )
    if not (finite | zero).any():
        parts.append(
            f'<text x="{_c((x0 + x1) / 2)}" y="{_c((y0 + y1) / 2)}" font-family="monospace" '
            f'font-size="26" text-anchor="middle" fill="#333333">no finite values</text>'
        )
        return _HEADER + "\n".join(parts) + "\n</svg>\n"
    lx = -np.log10(epsilons)
    ly = np.log10(values[finite])
    lx_lo, lx_hi = float(lx.min()), float(lx.max())
    ly_lo, ly_hi = (float(ly.min()), float(ly.max())) if len(ly) else (0.0, 0.0)
    lx_hi = lx_hi if lx_hi > lx_lo else lx_lo + 1
    ly_hi = ly_hi if ly_hi > ly_lo else ly_lo + 1

    def sx(v):
        return x0 + (v - lx_lo) / (lx_hi - lx_lo) * (x1 - x0)

    def sy(v):
        return y0 + (v - ly_lo) / (ly_hi - ly_lo) * (y1 - y0)

    for xv, eps in zip(lx, epsilons):
        parts.append(
            f'<line x1="{_c(sx(xv))}" y1="{_c(y0)}" x2="{_c(sx(xv))}" y2="{_c(y0 + 8)}" '
            f'stroke="#333333" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_c(sx(xv))}" y="{_c(y0 + 32)}" font-family="monospace" font-size="16" '
            f'text-anchor="middle" fill="#333333">{format(eps, ".3g")}</text>'
        )
    for yv in sorted(set(np.round(np.linspace(ly_lo, ly_hi, 5), 3))) if len(ly) else ():
        parts.append(
            f'<line x1="{_c(x0 - 8)}" y1="{_c(sy(yv))}" x2="{_c(x0)}" y2="{_c(sy(yv))}" '
            f'stroke="#333333" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_c(x0 - 14)}" y="{_c(sy(yv) + 6)}" font-family="monospace" font-size="16" '
            f'text-anchor="end" fill="#333333">{format(10.0 ** yv, ".3g")}</text>'
        )
    chart = [(sx(xv), sy(yv)) for xv, yv in zip(lx[finite], ly)]
    if len(chart) > 1:
        d = _path(np.array(chart))
        parts.append(f'<path d="{d}" stroke="{_PALETTE[0]}" stroke-width="2.5" fill="none"/>')
    for px, py in chart:
        parts.append(f'<circle cx="{_c(px)}" cy="{_c(py)}" r="5" fill="{_PALETTE[1]}"/>')
    for xv in lx[zero]:
        parts.append(f'<circle cx="{_c(sx(xv))}" cy="{_c(y0)}" r="5" fill="{_PALETTE[1]}"/>')
        parts.append(
            f'<text x="{_c(sx(xv))}" y="{_c(y0 - 12)}" font-family="monospace" font-size="18" '
            f'text-anchor="middle" fill="{_PALETTE[1]}">0</text>'
        )
    for xv in lx[~finite & ~zero]:
        parts.append(
            f'<text x="{_c(sx(xv))}" y="{_c(y1 + 18)}" font-family="monospace" font-size="18" '
            f'text-anchor="middle" fill="{_PALETTE[1]}">inf</text>'
        )
    parts.append(
        f'<text x="{_c((x0 + x1) / 2)}" y="{_c(y0 + 60)}" font-family="monospace" font-size="18" '
        f'text-anchor="middle" fill="#333333">scale (finer to the right)</text>'
    )
    return _HEADER + "\n".join(parts) + "\n</svg>\n"
