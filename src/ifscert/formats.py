"""Text serialization for models, function systems, profiles and certificates.

Everything here is plain ASCII with one record per line, 17 significant
digits for decimals, and atomic writes (write to a temp file in the target
directory, then rename). Same input, same bytes.
"""

from __future__ import annotations

import csv
import io
import math
import os
import tempfile
from dataclasses import replace

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


def atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` so readers never see a partial file."""
    parent = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp-", text=False)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# model files


def model_text(model: ContinuumModel | PointCloud) -> str:
    out = io.StringIO()
    if isinstance(model, PointCloud):
        out.write(f"dim {model.points.shape[1]}\n")
        out.write(f"meta pitch {_fmt(model.pitch)}\n")
        out.write(f"points cloud {len(model.points)}\n")
        for pt in model.points:
            out.write(_fmt_coords(pt) + "\n")
        return out.getvalue()
    out.write(f"dim {model.dimension}\n")
    for key in sorted(model.meta):
        out.write(f"meta {key} {model.meta[key]}\n")
    for line in model.pieces:
        head = f"polyline {line.name} {len(line.vertices)}"
        out.write(head + (" closed\n" if line.closed else "\n"))
        for pt in line.vertices:
            out.write(_fmt_coords(pt) + "\n")
    for label in sorted(model.marked):
        out.write(f"marked {label} {_fmt_coords(model.marked[label])}\n")
    return out.getvalue()


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


def load_model(path: str) -> ContinuumModel | PointCloud:
    """Read a model file back; point-only files come back as clouds.

    A default-needle file (``meta kind needle``, ``meta base default``)
    regains its exact resampler, so refinement after a round trip still
    follows the curve rather than subdividing stored chords.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    dim = None
    meta: dict[str, str] = {}
    pieces: list[Polyline] = []
    point_blocks: list[np.ndarray] = []
    marked: dict[str, np.ndarray] = {}
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
            rows = _parse_vertices(lines, i + 1, count, dim, path)
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


def save_certificate(cert: Certificate, path: str) -> None:
    atomic_write(path, certificate_text(cert))


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
