import itertools
import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from ifscert import _numtext, cli, formats
from ifscert.certify import Certificate
from ifscert.continua import build_P, build_needle
from ifscert.formats import (
    certificate_text,
    ifs_text,
    load_ifs,
    load_model,
    load_profile_csv,
    model_text,
    parse_certificate,
    profile_csv,
    save_ifs,
    save_model,
    save_profile,
)
from ifscert.geometry import ContinuumModel, PointCloud, Polyline
from ifscert.ifs import (
    IfsSpec,
    MapSpec,
    affine_map,
    closed_form_map,
    composed_map,
    ripple_map,
    squeeze_map,
)
from ifscert.metric import ChainMetricProfile
from ifscert.svg import model_svg


def test_model_roundtrip_is_byte_identical(tmp_path):
    pm = build_P(3)
    path = str(tmp_path / "P.model")
    save_model(pm, path)
    first = open(path, "rb").read()
    again = str(tmp_path / "P2.model")
    save_model(load_model(path), again)
    assert open(again, "rb").read() == first


def test_model_roundtrip_preserves_fields(tmp_path):
    ring = Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]), closed=True, name="ring")
    model = ContinuumModel((ring,), {"corner": (1.0, 1.0)}, 2, meta={"kind": "demo"})
    path = str(tmp_path / "demo.model")
    save_model(model, path)
    back = load_model(path)
    assert back.meta == {"kind": "demo"}
    assert back.pieces[0].closed and back.pieces[0].name == "ring"
    assert np.array_equal(back.pieces[0].vertices, ring.vertices)
    assert np.array_equal(back.marked["corner"], [1.0, 1.0])


def test_needle_file_regains_its_sampler(tmp_path):
    needle = build_needle(delta=1e-3)
    path = str(tmp_path / "needle.model")
    save_model(needle, path)
    back = load_model(path)
    assert back.sampler is not None
    fine = back.refine(1e-4)
    stored = sum(len(p.vertices) for p in back.pieces)
    assert len(fine) > 2 * stored  # resampled from the formula, not the chords


def test_point_cloud_roundtrip(tmp_path):
    cloud = PointCloud(np.array([[0.0, 1.0], [2.0, 3.0], [-1.5, 0.25]]), 0.125)
    path = str(tmp_path / "cloud.model")
    save_model(cloud, path)
    back = load_model(path)
    assert isinstance(back, PointCloud)
    assert back.pitch == 0.125
    assert np.array_equal(back.points, cloud.points)


def test_model_loader_rejects_malformed_files(tmp_path):
    cases = {
        "nodim.model": ("polyline a 2\n0 0\n1 0\n", "dim header"),
        "truncated.model": ("dim 2\npolyline a 3\n0 0\n1 1\n", "truncated"),
        "badrow.model": ("dim 2\npolyline a 2\n0 0 0\n1 1 1\n", "expected 2 coordinates"),
        "mixed.model": ("dim 2\npolyline a 2\n0 0\n1 0\npoints b 1\n1 1\n", "mixed"),
        "unknown.model": ("dim 2\nwiggle a 1\n0 0\n", "unknown record"),
        "empty.model": ("dim 2\nmeta kind x\n", "no polyline or points"),
        "nopitch.model": ("dim 2\npoints c 1\n0 0\n", "meta pitch"),
    }
    for name, (text, needle_text) in cases.items():
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ValueError, match=needle_text):
            load_model(str(p))
    # the geometry types' own checks name the record at fault, a dimension
    # that does not fit the last dim record, or the file when no line is at fault
    anchored = {
        "repeat.model": ("dim 2\npolyline a 2\n0 0\n0 0\n", 2, "consecutive polyline vertices must be distinct"),
        "ring.model": ("dim 2\npolyline a 3 closed\n0 0\n1 0\n0 0\n", 2, "closed polylines must not repeat"),
        "redim.model": ("dim 2\npolyline a 2\n0 0\n1 0\ndim 3\npolyline b 2\n0 0 0\n1 1 1\n", 5,
                        "piece dimension mismatch"),
        "redim_marked.model": ("dim 2\nmarked a 0 0\ndim 3\npolyline b 2\n0 0 0\n1 1 1\n", 3,
                               "expected dimension 3, got 2"),
        "label.model": ("dim 2\npolyline a 2\n0 0\n1 0\nmarked \u00e9 0 0\n", 5, "marked label 'é' must be ASCII"),
        "nan_marked.model": ("dim 2\npolyline a 2\n0 0\n1 0\nmarked a nan 0\n", 5, "point coordinates must be finite"),
        "pitch.model": ("dim 2\nmeta pitch -1\npoints c 1\n0 0\n", 2, "pitch must be positive"),
        "nan_cloud.model": ("dim 2\nmeta pitch 1\npoints c 1\nnan 0\n", None, "cloud coordinates must be finite"),
    }
    for name, (text, line, message) in anchored.items():
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        where = str(p) if line is None else f"{p}:{line}"
        with pytest.raises(ValueError, match=f"^{re.escape(where)}: {message}"):
            load_model(str(p))


def test_ifs_roundtrip_all_map_kinds(tmp_path):
    from dataclasses import replace

    needle_h = composed_map(squeeze_map(100.0), ripple_map())
    ifs = IfsSpec(
        (
            affine_map([[0.5, 0.1], [0.0, 0.25]], [0.0, 0.5]),
            replace(needle_h, weak_attested=True),
            closed_form_map("needle_param_tent", (0.8, 0.3), weak_attested=True),
        ),
        mode="weak",
    )
    path = str(tmp_path / "maps.ifs")
    save_ifs(ifs, path)
    first = open(path, "rb").read()
    back = load_ifs(path)
    again = str(tmp_path / "maps2.ifs")
    save_ifs(back, again)
    assert open(again, "rb").read() == first
    assert back.mode == "weak"
    assert [m.kind for m in back.maps] == [m.kind for m in ifs.maps]
    assert back.maps[1].weak_attested and back.maps[2].weak_attested
    assert [p.kind for p in back.maps[1].parts] == ["needle_h1", "needle_h2"]


def test_ifs_loader_fills_affine_bounds_and_reads_comments(tmp_path):
    p = tmp_path / "halves.ifs"
    p.write_text(
        "# the two halves of the unit interval\n"
        "dim 1\n"
        "mode strict\n"
        "affine 0.5 0\n"
        "affine 0.5 0.5  # shifted copy\n"
    )
    ifs = load_ifs(str(p))
    assert ifs.dimension == 1
    assert all(m.lip_bound == 0.5 for m in ifs.maps)


def test_every_way_to_build_a_map_gives_one_lip_bound(tmp_path):
    # MapSpec, its constructor and the file reader agree bit for bit
    A, b = np.array([[0.5, 0.1], [0.0, 0.25]]), np.array([0.0, 0.5])
    affine = "affine 0.5 0.1 0 0.25 0 0.5"
    lines = [affine, "needle_h1 100", "needle_h2", "closed_form needle_param_tent 0.8 0.3",
             "begin", "needle_h1 100", affine, "end"]
    path = tmp_path / "kinds.ifs"
    path.write_text("dim 2\nmode weak\n" + "".join(f"{ln} attested\n" for ln in lines))
    squeeze = MapSpec("needle_h1", 2, sharpness=100.0)
    direct = (
        MapSpec("affine", 2, matrix=A, offset=b),
        squeeze,
        MapSpec("needle_h2", 2),
        MapSpec("closed_form", 2, form="needle_param_tent", params=(0.8, 0.3)),
        MapSpec("composition", 2, parts=(squeeze, MapSpec("affine", 2, matrix=A, offset=b))),
    )
    built = (
        affine_map(A, b),
        squeeze_map(100.0),
        ripple_map(),
        closed_form_map("needle_param_tent", (0.8, 0.3)),
        composed_map(squeeze_map(100.0), affine_map(A, b)),
    )
    bounds = [[spec.lip_bound for spec in specs] for specs in zip(direct, built, load_ifs(str(path)).maps)]
    assert all(lips[0] == lips[1] == lips[2] for lips in bounds)
    assert [lips[0] is None for lips in bounds] == [False, False, True, True, False]
    assert bounds[4][0] == bounds[0][0] * bounds[1][0]


def test_ifs_loader_rejects_malformed_files(tmp_path):
    cases = {
        "arity.ifs": ("dim 2\naffine 1 0 0\n", "affine needs 6 numbers"),
        "nested.ifs": ("dim 2\nbegin\nbegin\n", "nested begin"),
        "loose_end.ifs": ("dim 2\nend\n", "end without begin"),
        "hollow.ifs": ("dim 2\nbegin\nend\n", "empty composition"),
        "open.ifs": ("dim 2\nbegin\nneedle_h2\n", "unterminated"),
        "nomap.ifs": ("dim 2\nmode strict\n", "no maps"),
        "mystery.ifs": ("dim 2\nshear 1 2\n", "unknown map"),
        "badmode.ifs": ("dim 2\nmode loose\naffine 1 0 0 1 0 0\n", "strict or weak"),
    }
    for name, (text, msg) in cases.items():
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ValueError, match=msg):
            load_ifs(str(p))
    # the system's rules name the line of the first map at fault, with the
    # file's dim and mode wherever they stand; a composition is at its end line
    anchored = {
        "strict.ifs": ("dim 2\naffine 1 0 0 1 0 0\n", 2,
                       "strict mode requires every map to carry a Lipschitz bound below one"),
        "weak.ifs": ("dim 2\nmode weak\naffine 2 0 0 2 0 0\n", 3,
                     "weak mode requires lip_bound <= 1 or an explicit attestation"),
        "redim.ifs": ("affine 0.5 0 0 0.5 0 0\ndim 1\n", 1, "map dimension mismatch"),
        "late_mode.ifs": ("affine 0.5 0 0 0.5 0 0\nbegin\nneedle_h1 100\nneedle_h2\nend\nmode weak\n", 5,
                          "weak mode requires"),
    }
    for name, (text, line, msg) in anchored.items():
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:{line}: {msg}"):
            load_ifs(str(p))


@pytest.mark.parametrize("text", [
    "dim 2\nclosed_form needle_param_scale 0.5 lip=-1\n",
    "dim 2\nclosed_form needle_param_scale 0.5 lip=nan\n",
    "dim 2\naffine 0.5 0 0 0.5 0 0 lip=-0.5\n",
    "dim 2\nbegin\nneedle_h2\nend lip=nan\n",
    "dim 2\naffine nan 0 0 1 0 0\n",
    "dim 2\naffine 1 0 0 1 inf 0 lip=0.5\n",
], ids=["lip-negative", "lip-nan", "affine-lip-negative", "end-lip-nan", "affine-nan", "affine-inf"])
def test_ifs_loader_rejects_bad_lipschitz_bounds_and_coefficients(tmp_path, text):
    p = tmp_path / "bad.ifs"
    p.write_text(text)
    line = text.count("\n")
    with pytest.raises(ValueError, match=f"^{p}:{line}: "):
        load_ifs(str(p))


def test_oversized_point_count_fails_without_allocating(tmp_path):
    p = tmp_path / "huge.model"
    p.write_text("dim 2\nmeta pitch 1\npoints c 100000000000\n")
    with pytest.raises(ValueError, match=f"^{p}: truncated vertex block at line 4$"):
        load_model(str(p))
    # the same count with a bad row in its first chunk names that row
    p.write_text("dim 2\nmeta pitch 1\npoints c 100000000000\n0 0\n1 x\n")
    with pytest.raises(ValueError, match=f"^{p}:5: bad coordinate"):
        load_model(str(p))


def _load_three_ways(tmp_path, name: str, text: str):
    """``load_model`` of ``text`` from a file, through ``lines=`` as ``plot``
    passes them, and from a FIFO fed by a writer thread; each gives its
    model or its error with the path as ``<path>``."""
    path, fifo = tmp_path / f"{name}.model", tmp_path / f"{name}.fifo"
    path.write_text(text)
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "w") as fh:
            fh.write(text)

    def plotted(where):
        with open(where, "r", encoding="utf-8") as fh:
            return load_model(where, itertools.chain([fh.readline()], fh))

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    outcomes = []
    for load, where in ((load_model, str(path)), (plotted, str(path)), (load_model, str(fifo))):
        try:
            outcomes.append(load(where))
        except ValueError as exc:
            outcomes.append(str(exc).replace(where, "<path>"))
    writer.join(timeout=60)
    assert not writer.is_alive()
    return outcomes


def test_files_lines_and_pipes_read_rows_alike(tmp_path):
    n = 2 * formats._CHUNK_ROWS + 5
    assert 2 * formats._CHUNK_ROWS < n <= 3 * formats._CHUNK_ROWS  # three chunks
    points = np.random.default_rng(5).standard_normal((n, 2))
    text = model_text(PointCloud(points, 0.25))
    for cloud in _load_three_ways(tmp_path, "good", text):
        assert isinstance(cloud, PointCloud) and cloud.pitch == 0.25
        assert cloud.points.tobytes() == points.tobytes()
    # a bad row in the third chunk, the last row but one, at line 3 + n - 1
    lines = text.splitlines(keepends=True)
    lines[3 + n - 2] = "1 x\n"
    errors = _load_three_ways(tmp_path, "bad", "".join(lines))
    assert errors == [f"<path>:{3 + n - 1}: bad coordinate in '1 x'"] * 3


def _traced_peak(fn):
    """``fn()`` and the peak of the memory that ``tracemalloc`` saw it allocate."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_model_holds_a_few_blocks_not_the_file(tmp_path):
    # a block of 16,384 values peaks near 3.4 MiB; a writer that joins the
    # blocks, then the text, holds twice the file
    cloud = PointCloud(np.random.default_rng(11).standard_normal((300_000, 2)), 0.25)
    path = tmp_path / "big.model"
    _, peak = _traced_peak(lambda: save_model(cloud, str(path)))
    bound = 384 * _numtext._BLOCK_VALUES  # 6 MiB
    assert path.stat().st_size > 1.5 * bound
    assert peak < bound
    assert path.read_text() == model_text(cloud)


def test_load_model_holds_its_rows_plus_one_chunk(tmp_path):
    # a plane row of a chunk costs about 340 bytes of lines, tokens and
    # text, so a chunk of 4,096 rows about 1.3 MiB and one of 65,536 rows
    # about 20 MiB
    points = np.random.default_rng(12).standard_normal((200_000, 2))
    path = tmp_path / "big.model"
    path.write_text(model_text(PointCloud(points, 0.25)))
    cloud, peak = _traced_peak(lambda: load_model(str(path)))
    assert cloud.points.tobytes() == points.tobytes()
    assert peak < points.nbytes + 2 * 2**20


def test_model_svg_of_a_cloud_holds_its_text_not_a_canvas_array():
    # the pieces and the one join are twice the document; a canvas array of
    # the whole cloud (16 bytes a point against about 18 of text) beside the
    # pieces took 2.11 times
    cloud = PointCloud(np.random.default_rng(13).uniform(size=(200_000, 2)), 1e-3)
    svg, peak = _traced_peak(lambda: model_svg(cloud))
    assert len(svg) > 3 * 2**20
    assert peak < 2.05 * len(svg)


def test_plot_of_a_cloud_holds_its_points_not_its_document(tmp_path):
    # load_model holds the rows plus one chunk (see above) and the document
    # streams out a block at a time; joining it first held the pieces and
    # the join, 10.1 MiB in all
    points = np.random.default_rng(14).uniform(size=(200_000, 2))
    cloud = PointCloud(points, 1e-3)
    path, out = str(tmp_path / "cloud.model"), tmp_path / "cloud.svg"
    save_model(cloud, path)
    rc, peak = _traced_peak(lambda: cli.main(["plot", path, "--out", str(out), "--quiet"]))
    assert rc == 0
    assert out.stat().st_size > 3 * 2**20
    assert peak < points.nbytes + 2 * 2**20
    assert out.read_text() == model_svg(cloud)


def test_profile_csv_roundtrip_with_infinities(tmp_path):
    profile = ChainMetricProfile(
        epsilons=np.array([0.1, 0.05, 0.025]),
        pitches=np.array([0.01, 0.005, 0.0025]),
        values=np.array([math.inf, 1.25, 1.125]),
        verdict="converges",
        limit=1.125,
        slope=None,
    )
    text = profile_csv(profile)
    assert text.splitlines()[0] == "epsilon,pitch,value"
    assert text.splitlines()[1].endswith(",")  # inf serializes as empty
    path = str(tmp_path / "profile.csv")
    save_profile(profile, path)
    eps, pitch, vals = load_profile_csv(path)
    assert np.array_equal(eps, profile.epsilons)
    assert np.array_equal(pitch, profile.pitches)
    assert math.isinf(vals[0]) and vals[1] == 1.25


def test_profile_loader_rejects_foreign_csv(tmp_path):
    p = tmp_path / "other.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="bad header"):
        load_profile_csv(str(p))


@pytest.mark.parametrize("row, message", [
    ("0,0.01,1", "epsilon and pitch must be finite and positive"),
    ("-0.1,0.01,1", "epsilon and pitch must be finite and positive"),
    ("1e-400,0.01,1", "epsilon and pitch must be finite and positive"),
    ("nan,0.01,1", "epsilon and pitch must be finite and positive"),
    ("inf,0.01,1", "epsilon and pitch must be finite and positive"),
    ("0.1,0,1", "epsilon and pitch must be finite and positive"),
    ("0.1,0.01,nan", "'nan' is not >= 0"),
    ("0.1,0.01,-1", "'-1' is not >= 0"),
    ("0.1,0.01," + "1" * 140_000, "field larger than field limit"),
], ids=["eps0", "eps-neg", "eps-underflow", "eps-nan", "eps-inf", "pitch0", "value-nan",
        "value-neg", "long-field"])
def test_profile_loader_refuses_what_no_profile_holds(tmp_path, row, message):
    # a plot of these drew nan coordinates, or the csv module's own error escaped
    p = tmp_path / "bad.csv"
    p.write_text(f"epsilon,pitch,value\n0.2,0.02,1\n{row}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:3: .*{re.escape(message)}"):
        load_profile_csv(str(p))


def test_load_ifs_names_the_line_of_a_map_too_large_for_memory(tmp_path):
    # a squeeze's box has the file's dim; this one no address space holds
    p = tmp_path / "huge.ifs"
    p.write_text("dim 1000000000000000\nneedle_h1 100\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:2: out of memory building the map"):
        load_ifs(str(p))


@pytest.mark.parametrize("read", [load_ifs, load_profile_csv, load_model])
def test_readers_name_the_file_of_a_byte_that_is_not_utf8(tmp_path, read):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"dim 2\n\xff\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: 'utf-8' codec can't decode byte 0xff"):
        read(str(p))


def test_certificate_text_parses_back():
    cert = Certificate(
        "union-is-not-the-fixed-set",
        "certified",
        0.5,
        (("p1", [0.43879128096042316, 0.2397127693021015]),),
        {"delta": 1e-3, "missed": "1,2", "n_max": 2},
        ("first missed tip is the witness",),
    )
    info = parse_certificate(certificate_text(cert))
    assert info["claim"] == cert.claim
    assert info["verdict"] == "certified"
    assert info["margin"] == 0.5
    assert info["params"]["missed"] == "1,2"
    label, pt = info["witnesses"][0]
    assert label == "p1" and pt[0] == pytest.approx(0.43879128096042316, rel=1e-16)
    assert info["notes"] == ["first missed tip is the witness"]


def test_certificate_parse_flags_gaps():
    with pytest.raises(ValueError, match="missing margin"):
        parse_certificate("claim=c\nverdict=inconclusive\n")
    with pytest.raises(ValueError, match="unknown key"):
        parse_certificate("claim=c\nverdict=inconclusive\nmargin=0\nbonus=1\n")
    with pytest.raises(ValueError, match="key=value"):
        parse_certificate("claim\n")
    with pytest.raises(ValueError, match="^certificate line 3: 'abc' is not a valid float$"):
        parse_certificate("claim=c\nverdict=inconclusive\nmargin=abc\n")
    with pytest.raises(ValueError, match="^certificate line 4: 'zz' is not a valid float$"):
        parse_certificate("claim=c\nverdict=certified\nmargin=0.5\nwitness.p=1 zz\n")


def test_seventeen_digit_floats_are_exact(tmp_path):
    vals = np.array([[math.pi, math.e], [1 / 3, 2 ** -52]])
    cloud = PointCloud(vals, 2 ** -20)
    path = str(tmp_path / "exact.model")
    save_model(cloud, path)
    back = load_model(path)
    assert np.array_equal(back.points, vals)
    assert back.pitch == 2 ** -20
