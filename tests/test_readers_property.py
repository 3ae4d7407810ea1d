"""Fuzz tests: the function-system, profile and certificate readers on mutated texts.

Each text starts as a valid file and takes a few mutations: a token swapped
for a special one (``nan``, ``1e400``, ``lip=-1``, a keyword, a separator),
a character inserted or a span deleted, a run of digits longer than the
``csv`` module's field limit, a line dropped, repeated or moved, the end
cut off, or a byte that is not UTF-8. ``load_ifs``,
``load_profile_csv`` and ``parse_certificate`` may then return or raise
``ValueError``, nothing else, and a refusal by one of the two file readers
begins with the file's path. The commands that read those files,
``attractor`` and ``certify`` (function systems), ``plot`` (profiles) and
all three on certificates, may only exit 0, 1 or 2, and exit 2 with one
``error:`` line whenever the reader refuses the file. A plot that exits 0
has no ``nan`` coordinate.
"""

import contextlib
import io
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifscert import formats
from ifscert.certify import Certificate
from ifscert.cli import main
from ifscert.metric import ChainMetricProfile

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
CLI_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

IFS_TEXTS = [
    "dim 2\nmode strict\naffine 0.5 0 0 0.5 0 0\naffine 0.5 0 0 0.5 0.5 0\n",
    "dim 2\nmode weak\nclosed_form needle_param_scale 0.5 attested\n",
    "dim 2\nclosed_form needle_param_affine 0.35 -0.7 lip=0.9\n",
    "dim 2\nclosed_form needle_param_tent 0.8 0.3 lip=0.5\n",
    "# squeeze, then ripple\ndim 2\nmode weak\nbegin\nneedle_h1 100\nneedle_h2\nend lip=1 attested\n",
    "dim 3\nmode strict\nneedle_h1 100 lip=0.5\naffine 0.5 0 0 0 0.5 0 0 0 0.5 0 0 0 lip=0.5\n",
    "dim 1\naffine 0.25 0.5\naffine 0.5 0 lip=0.5\n",
]
PROFILE_TEXTS = [
    formats.profile_csv(ChainMetricProfile(
        0.1 * 0.5 ** np.arange(4), 0.01 * 0.5 ** np.arange(4), [1.5, 2.25, 3.5, math.inf],
        "inconclusive")),
    "epsilon,pitch,value\n0.1,0.01,1\n",
    'epsilon,pitch,value\n"0.1",0.01,""\n0.05,0.005,2e-3\n',
]
CERTIFICATE_TEXTS = [
    formats.certificate_text(Certificate(
        "model-is-not-the-fixed-set", "certified", 0.42, (("image-point-off-model", [0.87, 0.42]),),
        {"delta": 0.001, "threshold": 0.01, "kind": "needle", "pair": (1.0, 2.0)},
        ("a note with = and , in it",))),
    "claim=c\nverdict=inconclusive\nmargin=0\n",
]

SPECIAL_TOKENS = [
    "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "0", "-0", "-1", "1", "0.5", "2",
    "9" * 30, "1_0", "١", "0x1", "", "begin", "end", "dim", "mode", "strict", "weak",
    "affine", "needle_h1", "needle_h2", "closed_form", "needle_param_tent", "lip=", "lip=nan",
    "lip=inf", "lip=-1", "lip=0.5", "attested", "#", ",", '"', "=", "epsilon", "margin=",
    "param.", "witness.x=", "note=", "verdict=certified", "claim=", "1,2,3", "1e308",
    "1000000000000000",  # as a dim, a squeeze box no address space can hold
]
LONG_FIELD = "1" * 140_000
CHARS = [" ", "\t", "\n", "\r", "\x00", "\x0b", "\xa0", " ", "﻿", "#", ",", '"', "=",
         ".", "-", "e", "5", "é"]


@st.composite
def mutated(draw, texts) -> bytes:
    """One of ``texts`` after up to four mutations, as bytes."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["token", "char", "delete", "long", "line", "truncate"]))
        if kind == "token":
            tokens = text.split(" ")
            at = draw(st.integers(0, len(tokens) - 1))
            tokens[at] = draw(st.sampled_from(SPECIAL_TOKENS))
            text = " ".join(tokens)
        elif kind == "char":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(CHARS)) + text[at:]
        elif kind == "long":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + LONG_FIELD + text[at:]
        elif kind == "delete" and text:
            at = draw(st.integers(0, len(text) - 1))
            text = text[:at] + text[at + draw(st.integers(1, 4)):]
        elif kind == "line":
            lines = text.split("\n")
            i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
            how = draw(st.sampled_from(["drop", "repeat", "move"]))
            line = lines.pop(i) if how != "repeat" else lines[i]
            if how != "drop":
                lines.insert(j, line)
            text = "\n".join(lines)
        elif kind == "truncate":
            text = text[:draw(st.integers(0, len(text)))]
    data = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:  # a byte that is not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + data[at:]
    return data


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("readers")
    (path / "seg.model").write_text("dim 2\npolyline seg 3\n0 0\n0.5 0.25\n1 0\nmarked a 0 0\n")
    return path


def _write(workdir, name, data: bytes) -> str:
    path = workdir / name
    path.write_bytes(data)
    return str(path)


def _refused(read, *args) -> bool:
    """Whether ``read`` refuses its input; any error but ``ValueError`` escapes.

    A file reader's refusal must begin with the path it was given.
    """
    try:
        read(*args)
    except ValueError as exc:
        assert read is formats.parse_certificate or str(exc).startswith(f"{args[0]}:"), exc
        return True
    return False


def _run(*argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv] + ["--quiet"])
    err = err.getvalue()
    assert rc in (0, 1, 2), rc
    if rc == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    return rc


@PROPERTY
@given(mutated(IFS_TEXTS))
@example(b"dim 1000000000000000\nneedle_h1 100\n")
def test_load_ifs_raises_only_value_errors(workdir, data):
    _refused(formats.load_ifs, _write(workdir, "f.ifs", data))


@PROPERTY
@given(mutated(PROFILE_TEXTS))
@example(f"epsilon,pitch,value\n{LONG_FIELD},0.01,1\n".encode())
def test_load_profile_csv_raises_only_value_errors(workdir, data):
    _refused(formats.load_profile_csv, _write(workdir, "p.csv", data))


@PROPERTY
@given(mutated(CERTIFICATE_TEXTS))
def test_parse_certificate_raises_only_value_errors(data):
    _refused(formats.parse_certificate, data.decode("utf-8", errors="replace"))


@CLI_PROPERTY
@given(mutated(IFS_TEXTS))
@example(b"dim 1000000000000000\nneedle_h1 100\n")
def test_commands_on_mutated_function_systems_keep_the_exit_contract(workdir, data):
    path = _write(workdir, "f.ifs", data)
    refused = _refused(formats.load_ifs, path)
    for argv in (["attractor", path, "--tol", "0.25", "--max-iter", "2", "--out", workdir / "a.model"],
                 ["certify", "fixed-set", "--ifs", path, "--model", workdir / "seg.model",
                  "--delta", "0.25", "--out", workdir / "c.cert"]):
        rc = _run(*argv)
        assert rc == 2 or not refused


@CLI_PROPERTY
@given(mutated(PROFILE_TEXTS))
@example(b"epsilon,pitch,value\n0,0.01,1\n0.05,0.005,2\n")
@example(f"epsilon,pitch,value\n0.1,0.01,{LONG_FIELD}\n".encode())
def test_plot_on_mutated_profiles_keeps_the_exit_contract(workdir, data):
    path = _write(workdir, "p.csv", data)
    refused = _refused(formats.load_profile_csv, path)
    svg = workdir / "p.svg"
    svg.unlink(missing_ok=True)
    rc = _run("plot", path, "--out", svg)
    assert rc in (0, 2)
    assert rc == 2 or not refused
    assert rc == 2 or "nan" not in svg.read_text()


@CLI_PROPERTY
@given(mutated(CERTIFICATE_TEXTS))
def test_commands_on_certificates_exit_2(workdir, data):
    path = _write(workdir, "c.cert", data)
    assert _run("plot", path, "--out", workdir / "c.svg") == 2
    assert _run("attractor", path, "--max-iter", "1", "--out", workdir / "a.model") == 2
    assert _run("certify", "fixed-set", "--ifs", path, "--model", workdir / "seg.model") == 2
