"""Property tests: chunked model-file I/O against the per-line and per-point oracles.

``load_model`` streams a file and parses its vertex rows a chunk at a time;
``load_model_per_line`` reads the file whole and parses one line and one
float at a time. On model files with mutated vertex blocks (tabs and other
whitespace, ragged rows whose token total still matches, padded and blank
rows, CRLF and CR line ends, no final newline, truncation, ``1_0``,
non-ASCII digits, bad tokens, a byte that is not UTF-8), both must return
the same arrays bit for bit or raise the same error with the same message.
The writers must give the per-point writers' text byte for byte. Read
chunks are 7 rows and write blocks 7 values, so vertex blocks span several
of each and end inside one.
"""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _oracles import load_model_per_line, model_svg_per_point, model_text_per_point
from ifscert import _numtext, formats
from ifscert.formats import load_model, model_text
from ifscert.geometry import ContinuumModel, PointCloud, Polyline
from ifscert.svg import model_svg

CHUNK = 7
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 2.0 ** -1074 * 3, 0.1, 1 / 3]
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(SPECIAL))
GOOD_TOKENS = ["1_0", "١٢", "+.5", "1.", "-0", "1e-400", "1e400", "inf", "-nan", "NaN"]
BAD_TOKENS = ["x", "0x1", "1,5", "|", "1__0", "--1", "nan(1)", "1e", "\u00bd"]
SEPARATORS = [" ", "  ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]
LINE_ENDS = ["\n", "\r\n", "\r"]


@pytest.fixture(autouse=True, scope="module")
def small_chunks():
    with mock.patch.object(formats, "_CHUNK_ROWS", CHUNK), \
            mock.patch.object(formats, "_WRITE_SLICE", CHUNK), \
            mock.patch.object(_numtext, "_BLOCK_VALUES", CHUNK):
        yield


def _token(draw) -> str:
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.sampled_from(GOOD_TOKENS))
    x = draw(FLOATS)
    return draw(st.sampled_from([format(x, ".17g"), repr(x), format(x, ".3e"), format(x, ".6f")]))


@st.composite
def model_files(draw) -> bytes:
    """The bytes of a model file with one or two vertex blocks, then mutations."""
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["points", "polyline"]))
    lines = [f"dim {dim}"] + (["meta pitch 0.25"] if kind == "points" else [])
    for name in "ab"[:draw(st.integers(1, 2))]:
        n = draw(st.integers(0, 3 * CHUNK + 2))
        lines.append(f"{kind} {name} {n}" + (" closed" if draw(st.booleans()) else ""))
        lines += [[_token(draw) for _ in range(dim)] for _ in range(n)]
    if kind == "polyline" and draw(st.booleans()):
        lines.append(f"marked p0 {' '.join(['0.5'] * dim)}")

    # vertex rows are token lists until a mutation turns one into its text
    for _ in range(draw(st.integers(0, 3))):
        rows = [j for j, ln in enumerate(lines) if isinstance(ln, list)]
        if not rows:
            break
        i = draw(st.sampled_from(rows))
        row = lines[i]
        mutation = draw(st.sampled_from(["sep", "ragged", "pad", "blank", "bad", "drop"]))
        if mutation == "sep":
            lines[i] = draw(st.sampled_from(SEPARATORS)).join(row)
        elif mutation == "ragged":
            if i + 1 < len(lines) and isinstance(lines[i + 1], list) and row:
                lines[i + 1].insert(0, row.pop())
        elif mutation == "pad":
            lines[i] = draw(st.sampled_from([" ", "\t", ""])) + " ".join(row) + draw(st.sampled_from([" ", "\t", "\x0c"]))
        elif mutation == "blank":
            lines.insert(i, draw(st.sampled_from(["", " ", "\t"])))
        elif mutation == "bad":
            if row:
                row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD_TOKENS))
        else:
            del lines[i]

    text_lines = [ln if isinstance(ln, str) else " ".join(ln) for ln in lines]
    end = draw(st.sampled_from(LINE_ENDS))
    text = end.join(text_lines) + (end if draw(st.booleans()) else "")
    data = text.encode("utf-8")
    if draw(st.integers(0, 5)) == 0:
        data = data[:draw(st.integers(0, len(data)))]
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _outcome(load, path):
    try:
        model = load(path)
    except ValueError as exc:
        return ("error", type(exc).__name__, str(exc))
    if isinstance(model, PointCloud):
        return ("cloud", model.pitch, model.points.shape, model.points.tobytes())
    pieces = [(p.name, p.closed, p.vertices.shape, p.vertices.tobytes()) for p in model.pieces]
    marked = [(k, model.marked[k].tobytes()) for k in sorted(model.marked)]
    return ("model", model.dimension, pieces, marked, model.meta, model.sampler is None)


@PROPERTY
@given(data=model_files())
def test_streamed_loader_agrees_with_the_per_line_reader(tmp_path_factory, data):
    path = str(tmp_path_factory.getbasetemp() / "fuzz.model")
    with open(path, "wb") as fh:
        fh.write(data)
    assert _outcome(load_model, path) == _outcome(load_model_per_line, path)


@pytest.mark.parametrize("text, message", [
    # a ragged pair with the right token total, and a short final line
    ("dim 2\npolyline a 2\n1\t2 3\n5 \n", "fuzz.model:3: expected 2 coordinates"),
    ("dim 2\npoints c 9\n" + "0 0\n" * 8 + "1 x\nmeta pitch 1\n", "fuzz.model:11: bad coordinate in '1 x'"),
    ("dim 2\nmeta pitch 1\npoints c 9\n" + "0 0\n" * 7, "fuzz.model: truncated vertex block at line 11"),
])
def test_chunk_errors_name_the_absolute_line(tmp_path, text, message):
    path = tmp_path / "fuzz.model"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_model(str(path))
    assert str(exc.value) == f"{tmp_path}/{message}"


@pytest.mark.parametrize("head", [b"0 0 0\n1 1\n", b"0 0\n1 1\n# \xff\n"])
def test_the_first_bad_byte_is_the_error_past_the_first_read(tmp_path, head):
    # the reader decodes 8 KiB at a time; the per-line reader decodes the
    # whole file before it parses, so the first bad byte anywhere is the error
    path = tmp_path / "late.model"
    path.write_bytes(b"dim 2\npolyline a 2\n" + head + b"# pad\n" * 4000 + b"\xff\n" + b"# pad\n" * 4001 + b"\xff\n")
    got, want = _outcome(load_model, str(path)), _outcome(load_model_per_line, str(path))
    assert got == want and "'utf-8' codec can't decode byte 0xff" in want[2]


@st.composite
def polylines(draw, dim=2):
    n = draw(st.integers(2, 3 * CHUNK + 2))
    rows = draw(st.lists(st.tuples(*[FLOATS] * dim), min_size=n, max_size=n))
    closed = draw(st.booleans())
    try:
        return Polyline(np.array(rows, dtype=float), closed=closed, name=f"l{n}")
    except ValueError:
        assume(False)


@st.composite
def models(draw, dim=None):
    dim = dim or draw(st.integers(1, 3))
    pieces = tuple(draw(st.lists(polylines(dim), min_size=1, max_size=3)))
    labels = draw(st.lists(st.sampled_from(["p0", "p1", "far", "h(p)"]), unique=True, max_size=3))
    marked = {label: draw(st.tuples(*[FLOATS] * dim)) for label in labels}
    meta = {"kind": "demo"} if draw(st.booleans()) else {}
    return ContinuumModel(pieces, marked, dim, meta=meta)


@st.composite
def clouds(draw, dim=None):
    dim = dim or draw(st.integers(1, 3))
    n = draw(st.integers(1, 3 * CHUNK + 2))
    rows = draw(st.lists(st.tuples(*[FLOATS] * dim), min_size=n, max_size=n))
    return PointCloud(np.array(rows, dtype=float), draw(st.sampled_from([1.0, 5e-324, 0.1, 1e308])))


@PROPERTY
@given(model=st.one_of(models(), clouds()))
def test_model_text_matches_the_per_point_writer(model):
    assert model_text(model) == model_text_per_point(model)


def _svg_or_error(draw, model):
    try:
        return draw(model)
    except ValueError as exc:
        return f"error: {exc}"


@PROPERTY
@given(model=st.one_of(models(dim=2), clouds(dim=2)))
# one point whose 5e-14 pad is lost to rounding: a padded box of width 0
@example(model=PointCloud(np.array([[513.0, 513.0]]), 1.0))
def test_model_svg_matches_the_per_point_writer(model):
    # both writers refuse a frame past the float range with the same error
    assert _svg_or_error(model_svg, model) == _svg_or_error(model_svg_per_point, model)


@PROPERTY
@given(text=st.text(st.characters(blacklist_categories=("Cs",)), max_size=4 * CHUNK))
def test_atomic_write_slices_give_the_whole_encoding(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "sliced.txt"
    formats.atomic_write(str(path), text)
    assert path.read_bytes() == text.encode("utf-8")
