"""Text serialization for models, function systems, profiles and certificates.

Everything here is plain ASCII with one record per line, 17 significant
digits for decimals, and atomic writes (write to a temp file in the target
directory, then rename). Same input, same bytes.

Model files can hold millions of vertex rows, so their text is written and
read in pieces. A write formats the rows 16,384 numbers (8,192 plane rows)
per block with the exact ``%.17g`` kernel of ``_numtext`` (the bytes of
Python's ``%``, which is the same C routine as ``format(x, ".17g")``) and
streams each block, encoded in slices, into the temp file as it is made;
the whole text is never held. A read streams the file, a regular file or
a pipe alike: header records line by line, vertex rows ``_CHUNK_ROWS`` at
a time through one ``np.array(tokens, dtype=float)``, which parses each
token with Python's ``float``, into one array grown as each chunk parses.
A chunk that fails the exact layout check is parsed again line by line,
which gives the error with its ``path:line``. Memory stays bounded by one
block or chunk plus the arrays being written or returned.
"""

from __future__ import annotations

import csv
import io
import math
import os
import tempfile
from contextlib import nullcontext
from itertools import islice

import numpy as np

# modules, not names, so that scipy loads on first use (``ifs_text`` has a parameter ``ifs``)
from . import _numtext, certify, continua, ifs as ifs_mod, metric
from .geometry import ContinuumModel, PointCloud, Polyline, marked_point, positive_pitch


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_coords(pt) -> str:
    return " ".join(_fmt(c) for c in np.asarray(pt, dtype=float).ravel())


# vertex rows parsed at a time (a chunk of plane rows holds about 1.4 MB of
# lines and tokens, near cache size), and characters encoded at a time
_CHUNK_ROWS = 1 << 12
_WRITE_SLICE = 1 << 20


def _row_blocks(rows: np.ndarray):
    """Yield the text of ``rows``, one ``%.17g`` row a line, a block at a time."""
    return _numtext.text_chunks(" ".join(["%.17g"] * rows.shape[1]) + "\n", rows, "")


def _write_pieces(path: str, pieces) -> None:
    """Write the strings of ``pieces``, in order, to ``path`` so readers never
    see a partial file; each piece is encoded as it comes."""
    parent = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp-", text=False)
    try:
        with os.fdopen(fd, "wb") as fh:
            # UTF-8 encodes each code point alone, so the slices' bytes
            # are the whole text's bytes without one full-size copy
            for text in pieces:
                for lo in range(0, len(text), _WRITE_SLICE):
                    fh.write(text[lo:lo + _WRITE_SLICE].encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` so readers never see a partial file."""
    _write_pieces(path, (text,))


# ---------------------------------------------------------------------------
# model files


def _model_pieces(model: ContinuumModel | PointCloud):
    """Yield the text of a model file: header records, row blocks, marked points."""
    if isinstance(model, PointCloud):
        yield f"dim {model.points.shape[1]}\nmeta pitch {_fmt(model.pitch)}\npoints cloud {len(model.points)}\n"
        yield from _row_blocks(model.points)
        return
    yield f"dim {model.dimension}\n"
    yield "".join(f"meta {key} {model.meta[key]}\n" for key in sorted(model.meta))
    for line in model.pieces:
        head = f"polyline {line.name} {len(line.vertices)}"
        yield head + (" closed\n" if line.closed else "\n")
        yield from _row_blocks(line.vertices)
    yield "".join(f"marked {label} {_fmt_coords(model.marked[label])}\n" for label in sorted(model.marked))


def model_text(model: ContinuumModel | PointCloud) -> str:
    return "".join(_model_pieces(model))


def save_model(model: ContinuumModel | PointCloud, path: str) -> None:
    _write_pieces(path, _model_pieces(model))


def _built(where: str, build, *args, **kw):
    """``build(*args, **kw)``, its ``ValueError`` prefixed with ``where``."""
    try:
        return build(*args, **kw)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _number(text: str, where: str, kind=float, least=None):
    """``kind(text)``, or a ``ValueError`` that names the file and line."""
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"{where}: {text!r} is not a valid {kind.__name__}") from None
    if least is not None and not value >= least:
        raise ValueError(f"{where}: {text!r} is not >= {least}")
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
    """Read the next ``count`` rows of ``fh``, line ``start + 1`` first, a chunk at a time.

    The array grows by each chunk as it parses, so a count larger than the
    rows that follow ends in a truncation error, not in its allocation.
    """
    rows = np.empty((0, dim))
    for lo in range(0, count, _CHUNK_ROWS):
        want = min(_CHUNK_ROWS, count - lo)
        lines = list(islice(fh, want))
        block = _chunk_rows(lines, dim) if len(lines) == want else None
        if block is None:
            # the line-by-line parse raises with the line at fault
            block = _parse_vertices(lines, start + lo, want, dim, path)
        rows.resize((lo + want, dim), refcheck=False)
        rows[lo:] = block
    return rows


def _read_model_records(fh, path: str):
    """The records of a model file, read from the lines of ``fh``.

    Each polyline and marked point is checked at its line. ``wheres`` holds
    the ``path:line`` of the last ``dim`` and ``meta pitch`` records.
    """
    dim = None
    meta: dict[str, str] = {}
    wheres: dict[str, str] = {}
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
            wheres["dim"] = where
        elif tag == "meta":
            if len(parts) < 3:
                raise ValueError(f"{where}: meta needs a key and a value")
            meta[parts[1]] = parts[2]
            if parts[1] == "pitch":
                wheres["pitch"] = where
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
                pieces.append(_built(where, Polyline, rows, closed=closed, name=name))
            else:
                point_blocks.append(rows)
            i += count
        elif tag == "marked":
            coords = parts[2].split() if len(parts) == 3 else []
            if dim is None or len(coords) != dim:
                raise ValueError(f"{where}: marked point needs {dim} coordinates")
            marked[parts[1]] = _built(where, marked_point, parts[1], [_number(c, where) for c in coords])
        else:
            raise ValueError(f"{where}: unknown record {tag!r}")
    return dim, meta, pieces, point_blocks, marked, wheres


def load_model(path: str, lines=None) -> ContinuumModel | PointCloud:
    """Read a model file back; point-only files come back as clouds.

    A default-needle file (``meta kind needle``, ``meta base default``)
    regains its exact resampler, so refinement after a round trip still
    follows the curve rather than subdividing stored chords. ``lines``, when
    given, iterates the lines of ``path`` opened by the caller, so that a
    pipe is read once.

    A record that breaks a rule of its own names its line. Pieces or marked
    points of another dimension than the model's name the last ``dim``
    record, which sets that dimension.
    """
    with open(path, "r", encoding="utf-8") if lines is None else nullcontext(lines) as fh:
        try:
            try:
                dim, meta, pieces, point_blocks, marked, wheres = _read_model_records(fh, path)
            except ValueError as exc:
                # a byte that is not UTF-8 anywhere in the file takes precedence
                # over a parse error, as if the file had been decoded whole
                if not isinstance(exc, UnicodeDecodeError):
                    for _ in fh:
                        pass
                raise
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if dim is None:
        raise ValueError(f"{path}: missing dim header")
    if point_blocks and pieces:
        raise ValueError(f"{path}: mixed polyline and points sections are not supported")
    if point_blocks:
        if "pitch" not in meta:
            raise ValueError(f"{path}: point files need a 'meta pitch' record")
        pitch = _number(meta["pitch"], wheres["pitch"])
        _built(wheres["pitch"], positive_pitch, pitch)
        points = point_blocks[0] if len(point_blocks) == 1 else _built(wheres["dim"], np.vstack, point_blocks)
        return _built(path, PointCloud, points, pitch)
    if not pieces:
        raise ValueError(f"{path}: no polyline or points sections")
    needle = meta.get("kind") == "needle" and meta.get("base") == "default"
    sampler = continua.sample_needle if needle else None
    return _built(wheres["dim"], ContinuumModel, tuple(pieces), marked, dim, sampler=sampler, meta=meta)


# ---------------------------------------------------------------------------
# function-system files


def _map_flags(spec: ifs_mod.MapSpec) -> str:
    """The ``lip=``/``attested`` suffix of a map line or an ``end`` line."""
    flags = "" if spec.lip_bound is None else f" lip={_fmt(spec.lip_bound)}"
    return flags + (" attested" if spec.weak_attested else "")


def _map_line(spec: ifs_mod.MapSpec) -> str:
    if spec.kind == ifs_mod.KIND_AFFINE:
        nums = list(spec.matrix.ravel()) + list(spec.offset)
        body = "affine " + " ".join(_fmt(v) for v in nums)
    elif spec.kind == ifs_mod.KIND_SQUEEZE:
        body = f"needle_h1 {_fmt(spec.sharpness)}"
    elif spec.kind == ifs_mod.KIND_RIPPLE:
        body = "needle_h2"
    elif spec.kind == ifs_mod.KIND_CLOSED_FORM:
        body = f"closed_form {spec.form} " + " ".join(_fmt(p) for p in spec.params)
    else:
        # the file format has no nested compositions
        raise ValueError(f"cannot serialize map kind {spec.kind!r} as one line")
    return body + _map_flags(spec)


def ifs_text(ifs: ifs_mod.IfsSpec) -> str:
    out = io.StringIO()
    out.write(f"dim {ifs.dimension}\n")
    out.write(f"mode {ifs.mode}\n")
    for spec in ifs.maps:
        if spec.kind == ifs_mod.KIND_COMPOSITION:
            out.write("begin\n")
            for part in spec.parts:
                out.write(_map_line(part) + "\n")
            out.write("end" + _map_flags(spec) + "\n")
        else:
            out.write(_map_line(spec) + "\n")
    return out.getvalue()


def save_ifs(ifs: ifs_mod.IfsSpec, path: str) -> None:
    atomic_write(path, ifs_text(ifs))


def _pop_map_flags(tokens: list[str], where: str):
    lip = None
    attested = False
    while tokens and (tokens[-1].startswith("lip=") or tokens[-1] == "attested"):
        tok = tokens.pop()
        if tok == "attested":
            attested = True
        else:
            lip = _number(tok[4:], where, least=0)
    return lip, attested


def _map_spec(where: str, *args, **kw) -> ifs_mod.MapSpec:
    """``MapSpec(*args, **kw)``, its ``ValueError`` prefixed with ``where``.

    A squeeze builds its box in the file's ``dim``; a ``dim`` too large for
    memory is a bad file too.
    """
    try:
        return _built(where, ifs_mod.MapSpec, *args, **kw)
    except MemoryError as exc:
        raise ValueError(f"{where}: out of memory building the map ({exc})") from None


def _parse_map_tokens(tokens: list[str], dim: int, where: str) -> ifs_mod.MapSpec:
    lip, attested = _pop_map_flags(tokens, where)
    if not tokens:
        raise ValueError(f"{where}: flags without a map")
    head, args = tokens[0], tokens[1:]
    if head == "affine":
        need = dim * dim + dim
        if len(args) != need:
            raise ValueError(f"{where}: affine needs {need} numbers in dimension {dim}")
        vals = np.array([_number(a, where) for a in args])
        fields = {"matrix": vals[:dim * dim].reshape(dim, dim), "offset": vals[dim * dim:]}
    elif head == "needle_h1":
        if len(args) != 1:
            raise ValueError(f"{where}: needle_h1 takes exactly one sharpness value")
        fields = {"sharpness": _number(args[0], where)}
    elif head == "needle_h2":
        if args:
            raise ValueError(f"{where}: needle_h2 takes no parameters")
        fields = {}
    elif head == "closed_form":
        if not args:
            raise ValueError(f"{where}: closed_form needs a form name")
        fields = {"form": args[0], "params": tuple(_number(p, where) for p in args[1:])}
    else:
        raise ValueError(f"{where}: unknown map {head!r}")
    # a map line starts with its kind
    return _map_spec(where, head, dim, lip_bound=lip, weak_attested=attested, **fields)


def load_ifs(path: str) -> ifs_mod.IfsSpec:
    """Read a function-system file; a map that breaks the system's rules names its line.

    ``dim`` and ``mode`` hold for the whole file, wherever they stand.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    dim = 2
    mode = "strict"
    maps: list[tuple[ifs_mod.MapSpec, str]] = []  # each map and the line that completes it
    block: list[ifs_mod.MapSpec] | None = None
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
            lip, attested = _pop_map_flags(tokens, where)
            maps.append((_map_spec(where, ifs_mod.KIND_COMPOSITION, dim, parts=tuple(block),
                                   lip_bound=lip, weak_attested=attested), where))
            block = None
        else:
            spec = _parse_map_tokens(tokens, dim, where)
            if block is not None:
                block.append(spec)
            else:
                maps.append((spec, where))
    if block is not None:
        raise ValueError(f"{path}: unterminated begin block")
    if not maps:
        raise ValueError(f"{path}: no maps")
    for spec, where in maps:
        _built(where, ifs_mod.check_map, spec, mode, dim)
    return ifs_mod.IfsSpec(tuple(spec for spec, _ in maps), mode=mode, dimension=dim)


# ---------------------------------------------------------------------------
# profile CSV


PROFILE_HEADER = ["epsilon", "pitch", "value"]


def profile_csv(profile: metric.ChainMetricProfile) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PROFILE_HEADER)
    for eps, pitch, val in zip(profile.epsilons, profile.pitches, profile.values):
        writer.writerow([_fmt(eps), _fmt(pitch), "" if math.isinf(val) else _fmt(val)])
    return out.getvalue()


def save_profile(profile: metric.ChainMetricProfile, path: str) -> None:
    atomic_write(path, profile_csv(profile))


def load_profile_csv(path: str, lines=None):
    """Return (epsilons, pitches, values); blank values read back as inf.

    Epsilons and pitches must be finite and positive, values blank or at
    least 0, as :func:`profile_csv` writes them. ``lines`` is as for
    :func:`load_model`.
    """
    with open(path, "r", encoding="utf-8", newline="") if lines is None else nullcontext(lines) as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != PROFILE_HEADER:
                raise ValueError(f"{path}: not a profile CSV (bad header)")
            eps, pitch, vals = [], [], []
            for row in reader:
                where = f"{path}:{reader.line_num}"
                if len(row) != 3:
                    raise ValueError(f"{where}: malformed profile row {row!r}")
                e, p = _number(row[0], where), _number(row[1], where)
                if not (0 < e < math.inf and 0 < p < math.inf):
                    raise ValueError(f"{where}: epsilon and pitch must be finite and positive")
                eps.append(e)
                pitch.append(p)
                vals.append(math.inf if row[2] == "" else _number(row[2], where, least=0))
        except csv.Error as exc:  # a field past the csv module's size limit, say
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return np.array(eps), np.array(pitch), np.array(vals)


# ---------------------------------------------------------------------------
# certificates


def _param_str(value) -> str:
    return _fmt(value) if isinstance(value, float) else str(value)


def certificate_text(cert: certify.Certificate) -> str:
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
        where = f"certificate line {i + 1}"
        if "=" not in line:
            raise ValueError(f"{where} is not key=value")
        key, value = line.split("=", 1)
        if key == "margin":
            info[key] = _number(value, where)
        elif key in ("claim", "verdict"):
            info[key] = value
        elif key.startswith("param."):
            info["params"][key[6:]] = value
        elif key.startswith("witness."):
            info["witnesses"].append((key[8:], np.array([_number(v, where) for v in value.split()])))
        elif key == "note":
            info["notes"].append(value)
        else:
            raise ValueError(f"{where}: unknown key {key!r}")
    for required in ("claim", "verdict", "margin"):
        if required not in info:
            raise ValueError(f"certificate is missing {required}")
    return info
