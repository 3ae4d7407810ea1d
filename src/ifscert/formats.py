"""Text serialization for models, function systems, profiles and certificates.

Everything here is plain ASCII with one record per line, 17 significant
digits for decimals, and atomic writes (write to a temp file in the target
directory, then rename). Same input, same bytes.

Model files can hold millions of vertex rows, so their text is built and
read in chunks of ``_CHUNK_ROWS`` rows. A write formats each chunk with one
``%``-format (``%.17g`` is the same C routine as ``format(x, ".17g")``) and
joins the chunks once; ``atomic_write`` encodes its text in slices. A read
streams the file: header records line by line, vertex rows a chunk at a time
through one ``np.array(tokens, dtype=float)``, which parses each token with
Python's ``float``. A chunk that fails the exact layout check is parsed
again line by line, which gives the error with its ``path:line``. Memory
stays bounded by one chunk plus the arrays and text being returned.
"""

from __future__ import annotations

import csv
import io
import math
import os
import tempfile
from dataclasses import replace
from itertools import islice

import numpy as np

from . import continua
from .certify import Certificate
from .geometry import ContinuumModel, PointCloud, Polyline
from .ifs import (
    IfsSpec,
    KIND_AFFINE,
    KIND_CLOSED_FORM,
    KIND_COMPOSITION,
    KIND_RIPPLE,
    KIND_SQUEEZE,
    MapSpec,
    closed_form_arity,
    closed_form_map,
    composed_map,
    ripple_map,
    squeeze_map,
)
from .metric import ChainMetricProfile


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_coords(pt) -> str:
    return " ".join(_fmt(c) for c in np.asarray(pt, dtype=float).ravel())


# vertex rows formatted or parsed at a time, and characters encoded at a time
_CHUNK_ROWS = 1 << 16
_WRITE_SLICE = 1 << 20


def _row_blocks(rows: np.ndarray):
    """Yield the text of ``rows``, one ``%.17g`` row a line, a chunk at a time."""
    line = " ".join(["%.17g"] * rows.shape[1]) + "\n"
    for lo in range(0, len(rows), _CHUNK_ROWS):
        block = rows[lo:lo + _CHUNK_ROWS]
        yield (line * len(block)) % tuple(block.ravel().tolist())


def atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` so readers never see a partial file."""
    parent = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp-", text=False)
    try:
        with os.fdopen(fd, "wb") as fh:
            # UTF-8 encodes each code point alone, so the slices' bytes
            # are the whole text's bytes without one full-size copy
            for lo in range(0, len(text), _WRITE_SLICE):
                fh.write(text[lo:lo + _WRITE_SLICE].encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# model files


def model_text(model: ContinuumModel | PointCloud) -> str:
    if isinstance(model, PointCloud):
        parts = [
            f"dim {model.points.shape[1]}\n",
            f"meta pitch {_fmt(model.pitch)}\n",
            f"points cloud {len(model.points)}\n",
        ]
        parts += _row_blocks(model.points)
        return "".join(parts)
    parts = [f"dim {model.dimension}\n"]
    parts += [f"meta {key} {model.meta[key]}\n" for key in sorted(model.meta)]
    for line in model.pieces:
        head = f"polyline {line.name} {len(line.vertices)}"
        parts.append(head + (" closed\n" if line.closed else "\n"))
        parts += _row_blocks(line.vertices)
    parts += [f"marked {label} {_fmt_coords(model.marked[label])}\n" for label in sorted(model.marked)]
    return "".join(parts)


def save_model(model: ContinuumModel | PointCloud, path: str) -> None:
    atomic_write(path, model_text(model))


def _number(text: str, where: str, kind=float, least=None):
    """``kind(text)``, or a ``ValueError`` that names the file and line."""
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"{where}: {text!r} is not a valid {kind.__name__}") from None
    if least is not None and value < least:
        raise ValueError(f"{where}: {text!r} is below {least}")
    return value


def _parse_vertices(lines, start: int, count: int, dim: int, path: str):
    """Parse ``count`` rows of ``dim`` numbers one line at a time.

    ``lines[0]`` is line ``start + 1`` of ``path``; fewer than ``count``
    lines means the file ended inside the block.
    """
    rows = np.empty((count, dim))
    for j in range(count):
        idx = start + j
        if j >= len(lines):
            raise ValueError(f"{path}: truncated vertex block at line {idx + 1}")
        line = lines[j].rstrip("\n")
        parts = line.split()
        if len(parts) != dim:
            raise ValueError(f"{path}:{idx + 1}: expected {dim} coordinates")
        try:
            rows[j] = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"{path}:{idx + 1}: bad coordinate in {line!r}") from None
    return rows


def _chunk_rows(lines: list[str], dim: int):
    """Rows of ``lines`` when each holds exactly ``dim`` floats, else None.

    Each line end becomes a ``|`` token, and every ``(dim + 1)``-th token is
    dropped. There are as many ``|`` as dropped tokens and ``|`` is no float,
    so the parse succeeds only if the dropped tokens are exactly the line ends.
    """
    n = len(lines)
    text = "".join(lines)
    if not text.endswith("\n"):
        text += "\n"  # the file's last line need not end in a newline
    tokens = text.replace("\n", " | ").split()
    if len(tokens) != n * (dim + 1):
        return None
    del tokens[dim::dim + 1]
    try:
        return np.array(tokens, dtype=float).reshape(n, dim)
    except ValueError:
        return None


def _read_vertices(fh, start: int, count: int, dim: int, path: str):
    """Read the next ``count`` rows of ``fh``, line ``start + 1`` first, a chunk at a time."""
    rows = np.empty((count, dim))
    for lo in range(0, count, _CHUNK_ROWS):
        want = min(_CHUNK_ROWS, count - lo)
        lines = list(islice(fh, want))
        block = _chunk_rows(lines, dim) if len(lines) == want else None
        if block is None:
            # the line-by-line parse raises with the line at fault
            block = _parse_vertices(lines, start + lo, want, dim, path)
        rows[lo:lo + want] = block
    return rows


def _read_model_records(fh, path: str):
    """The records of a model file, read from ``fh`` line by line."""
    dim = None
    meta: dict[str, str] = {}
    pieces: list[Polyline] = []
    point_blocks: list[np.ndarray] = []
    marked: dict[str, np.ndarray] = {}
    i = 0
    for raw in fh:
        i += 1
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        tag = parts[0]
        where = f"{path}:{i}"
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
            rows = _read_vertices(fh, i, count, dim, path)
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
    return dim, meta, pieces, point_blocks, marked


def load_model(path: str) -> ContinuumModel | PointCloud:
    """Read a model file back; point-only files come back as clouds.

    A default-needle file (``meta kind needle``, ``meta base default``)
    regains its exact resampler, so refinement after a round trip still
    follows the curve rather than subdividing stored chords.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            dim, meta, pieces, point_blocks, marked = _read_model_records(fh, path)
        except UnicodeDecodeError:
            raise
        except ValueError:
            # a byte that is not UTF-8 anywhere in the file takes precedence
            # over a parse error, as if the file had been decoded whole
            for _ in fh:
                pass
            raise
    if dim is None:
        raise ValueError(f"{path}: missing dim header")
    if point_blocks and pieces:
        raise ValueError(f"{path}: mixed polyline and points sections are not supported")
    if point_blocks:
        pitch = _number(meta.get("pitch", "0"), f"{path}: meta pitch") or None
        if pitch is None:
            raise ValueError(f"{path}: point files need a 'meta pitch' record")
        points = point_blocks[0] if len(point_blocks) == 1 else np.vstack(point_blocks)
        return PointCloud(points, pitch)
    if not pieces:
        raise ValueError(f"{path}: no polyline or points sections")
    sampler = None
    if meta.get("kind") == "needle" and meta.get("base") == "default":
        sampler = continua.default_needle_sampler()
    return ContinuumModel(tuple(pieces), marked, dim, sampler=sampler, meta=meta)


# ---------------------------------------------------------------------------
# function-system files


def _map_line(spec: MapSpec) -> str:
    if spec.kind == KIND_AFFINE:
        nums = list(spec.matrix.ravel()) + list(spec.offset)
        body = "affine " + " ".join(_fmt(v) for v in nums)
    elif spec.kind == KIND_SQUEEZE:
        body = f"needle_h1 {_fmt(spec.sharpness)}"
    elif spec.kind == KIND_RIPPLE:
        body = "needle_h2"
    elif spec.kind == KIND_CLOSED_FORM:
        body = f"closed_form {spec.form} " + " ".join(_fmt(p) for p in spec.params)
    else:
        raise ValueError(f"cannot serialize map kind {spec.kind!r} as one line")
    if spec.lip_bound is not None:
        body += f" lip={_fmt(spec.lip_bound)}"
    if spec.weak_attested:
        body += " attested"
    return body


def ifs_text(ifs: IfsSpec) -> str:
    out = io.StringIO()
    out.write(f"dim {ifs.dimension}\n")
    out.write(f"mode {ifs.mode}\n")
    for spec in ifs.maps:
        if spec.kind == KIND_COMPOSITION:
            out.write("begin\n")
            for part in spec.parts:
                out.write(_map_line(part) + "\n")
            tail = "end"
            if spec.lip_bound is not None:
                tail += f" lip={_fmt(spec.lip_bound)}"
            if spec.weak_attested:
                tail += " attested"
            out.write(tail + "\n")
        else:
            out.write(_map_line(spec) + "\n")
    return out.getvalue()


def save_ifs(ifs: IfsSpec, path: str) -> None:
    atomic_write(path, ifs_text(ifs))


def _pop_map_flags(tokens: list[str], where: str):
    lip = None
    attested = False
    while tokens and (tokens[-1].startswith("lip=") or tokens[-1] == "attested"):
        tok = tokens.pop()
        if tok == "attested":
            attested = True
        else:
            lip = _number(tok[4:], where)
    return lip, attested


def _parse_map_tokens(tokens: list[str], dim: int, where: str) -> MapSpec:
    lip, attested = _pop_map_flags(tokens, where)
    if not tokens:
        raise ValueError(f"{where}: flags without a map")
    kw = {"lip_bound": lip, "weak_attested": attested}
    head, args = tokens[0], tokens[1:]
    if head == "affine":
        need = dim * dim + dim
        if len(args) != need:
            raise ValueError(f"{where}: affine needs {need} numbers in dimension {dim}")
        vals = [_number(a, where) for a in args]
        matrix = np.array(vals[: dim * dim]).reshape(dim, dim)
        spec = MapSpec(KIND_AFFINE, dim, matrix=matrix, offset=np.array(vals[dim * dim:]), **kw)
        if spec.lip_bound is None:
            spec = replace(spec, lip_bound=float(np.linalg.svd(matrix, compute_uv=False)[0]))
        return spec
    if head == "needle_h1":
        if len(args) != 1:
            raise ValueError(f"{where}: needle_h1 takes exactly one sharpness value")
        spec = squeeze_map(_number(args[0], where), dimension=dim)
        if lip is not None or attested:
            spec = replace(spec, lip_bound=lip if lip is not None else spec.lip_bound,
                           weak_attested=attested)
        return spec
    if head == "needle_h2":
        if args:
            raise ValueError(f"{where}: needle_h2 takes no parameters")
        spec = ripple_map(dimension=dim)
        if lip is not None or attested:
            spec = replace(spec, lip_bound=lip, weak_attested=attested)
        return spec
    if head == "closed_form":
        if not args:
            raise ValueError(f"{where}: closed_form needs a form name")
        form, params = args[0], args[1:]
        try:
            arity = closed_form_arity(form)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if len(params) != arity:
            raise ValueError(f"{where}: {form} takes {arity} parameters")
        return closed_form_map(form, [_number(p, where) for p in params], dimension=dim, **kw)
    raise ValueError(f"{where}: unknown map {head!r}")


def load_ifs(path: str) -> IfsSpec:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    dim = 2
    mode = "strict"
    maps: list[MapSpec] = []
    block: list[MapSpec] | None = None
    for i, raw in enumerate(lines):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        where = f"{path}:{i + 1}"
        if tokens[0] in ("dim", "mode") and len(tokens) < 2:
            raise ValueError(f"{where}: {tokens[0]} needs a value")
        if tokens[0] == "dim":
            dim = _number(tokens[1], where, int, least=1)
        elif tokens[0] == "mode":
            if tokens[1] not in ("strict", "weak"):
                raise ValueError(f"{where}: mode must be strict or weak")
            mode = tokens[1]
        elif tokens[0] == "begin":
            if block is not None:
                raise ValueError(f"{where}: nested begin")
            block = []
        elif tokens[0] == "end":
            if block is None:
                raise ValueError(f"{where}: end without begin")
            if not block:
                raise ValueError(f"{where}: empty composition")
            lip, attested = _pop_map_flags(tokens, where)
            spec = composed_map(*block, lip_bound=lip)
            if attested:
                spec = replace(spec, weak_attested=True)
            maps.append(spec)
            block = None
        else:
            spec = _parse_map_tokens(tokens, dim, where)
            if block is not None:
                block.append(spec)
            else:
                maps.append(spec)
    if block is not None:
        raise ValueError(f"{path}: unterminated begin block")
    if not maps:
        raise ValueError(f"{path}: no maps")
    return IfsSpec(tuple(maps), mode=mode, dimension=dim)


# ---------------------------------------------------------------------------
# profile CSV


def profile_csv(profile: ChainMetricProfile) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["epsilon", "pitch", "value"])
    for eps, pitch, val in zip(profile.epsilons, profile.pitches, profile.values):
        writer.writerow([_fmt(eps), _fmt(pitch), "" if math.isinf(val) else _fmt(val)])
    return out.getvalue()


def save_profile(profile: ChainMetricProfile, path: str) -> None:
    atomic_write(path, profile_csv(profile))


def load_profile_csv(path: str):
    """Return (epsilons, pitches, values); blank values read back as inf."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["epsilon", "pitch", "value"]:
        raise ValueError(f"{path}: not a profile CSV (bad header)")
    eps, pitch, vals = [], [], []
    for row in rows[1:]:
        if len(row) != 3:
            raise ValueError(f"{path}: malformed profile row {row!r}")
        eps.append(float(row[0]))
        pitch.append(float(row[1]))
        vals.append(math.inf if row[2] == "" else float(row[2]))
    return np.array(eps), np.array(pitch), np.array(vals)


# ---------------------------------------------------------------------------
# certificates


def _param_str(value) -> str:
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, (tuple, list, np.ndarray)):
        return " ".join(_param_str(v) for v in value)
    return str(value)


def certificate_text(cert: Certificate) -> str:
    out = io.StringIO()
    out.write(f"claim={cert.claim}\n")
    out.write(f"verdict={cert.verdict}\n")
    out.write(f"margin={_fmt(cert.margin)}\n")
    for key in sorted(cert.parameters):
        out.write(f"param.{key}={_param_str(cert.parameters[key])}\n")
    for label, pt in cert.witnesses:
        out.write(f"witness.{label}={_fmt_coords(pt)}\n")
    for note in cert.notes:
        out.write(f"note={note}\n")
    return out.getvalue()


def parse_certificate(text: str) -> dict:
    """Inverse of :func:`certificate_text`, into plain strings and floats."""
    info = {"params": {}, "witnesses": [], "notes": []}
    for i, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        if "=" not in line:
            raise ValueError(f"certificate line {i + 1} is not key=value")
        key, value = line.split("=", 1)
        if key == "margin":
            info[key] = float(value)
        elif key in ("claim", "verdict"):
            info[key] = value
        elif key.startswith("param."):
            info["params"][key[6:]] = value
        elif key.startswith("witness."):
            info["witnesses"].append((key[8:], np.array([float(v) for v in value.split()])))
        elif key == "note":
            info["notes"].append(value)
        else:
            raise ValueError(f"certificate line {i + 1}: unknown key {key!r}")
    for required in ("claim", "verdict", "margin"):
        if required not in info:
            raise ValueError(f"certificate is missing {required}")
    return info


def certificate_csv_header() -> list[str]:
    return ["claim", "verdict", "margin", "witnesses", "notes"]


def certificate_csv_row(cert: Certificate) -> list[str]:
    return [
        cert.claim,
        cert.verdict,
        _fmt(cert.margin),
        "; ".join(f"{label}: {_fmt_coords(pt)}" for label, pt in cert.witnesses),
        "; ".join(cert.notes),
    ]
