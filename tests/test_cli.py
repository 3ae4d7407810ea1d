import hashlib
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import ifscert
from ifscert import continua, formats
from ifscert.cli import main
from ifscert.geometry import PointCloud


def run(*argv) -> int:
    return main(list(argv))


def _subprocess_env():
    """The environment for a child interpreter that imports this ifscert."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(ifscert.__file__)), os.environ.get("PYTHONPATH", "")])}


@pytest.fixture()
def halves_ifs(tmp_path):
    path = tmp_path / "halves.ifs"
    path.write_text(
        "dim 2\nmode strict\n"
        "affine 0.5 0 0 0.5 0 0\n"
        "affine 0.5 0 0 0.5 0.5 0\n"
    )
    return str(path)


def test_build_zigzag_and_chain_converges(tmp_path, capsys):
    model = str(tmp_path / "l1.model")
    assert run("build", "zigzag", "--n", "1", "--out", model) == 0
    csv_out = str(tmp_path / "profile.csv")
    rc = run("chain", model, "p0", "p1", "--eps0", "1e-3", "--kmax", "3",
             "--out", csv_out)
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict=converges limit=" in out
    eps, _, vals = formats.load_profile_csv(csv_out)
    assert len(eps) == 4  # eps0 plus three halvings
    assert vals[-1] == pytest.approx(2.0, abs=1e-2)


def test_build_needle_and_chain_diverges(tmp_path, capsys):
    model = str(tmp_path / "needle.model")
    assert run("build", "needle", "--out", model, "--quiet") == 0
    rc = run("chain", model, "far", "h(p)", "--kmax", "5")
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict=diverges slope=-0." in out


def test_chain_inconclusive_on_disconnected_model(tmp_path, capsys):
    model = tmp_path / "two.model"
    model.write_text(
        "dim 2\n"
        "polyline a 2\n0 0\n1 0\n"
        "polyline b 2\n0 5\n1 5\n"
        "marked lo 0 0\n"
        "marked hi 0 5\n"
    )
    rc = run("chain", str(model), "lo", "hi", "--eps0", "0.1", "--kmax", "2")
    assert rc == 1
    assert "verdict=inconclusive" in capsys.readouterr().out


def test_attractor_writes_cloud_and_report(tmp_path, halves_ifs, capsys):
    out = str(tmp_path / "a.model")
    report = str(tmp_path / "steps.csv")
    rc = run("attractor", halves_ifs, "--tol", "1e-3", "--out", out,
             "--report", report, "--box", "0,0,1,1")
    assert rc == 0
    assert "converged=True" in capsys.readouterr().out
    cloud = formats.load_model(out)
    assert isinstance(cloud, PointCloud)
    # the fixed set is the x axis segment: y collapses, x fills out
    assert np.abs(cloud.points[:, 1]).max() < 2e-3
    rows = open(report).read().splitlines()
    assert rows[0] == "iteration,step"
    assert len(rows) > 3


def test_triangle_attractor_bytes_are_pinned(tmp_path, capsys):
    # the set-map step's KD-trees and capped parallel queries may change
    # speed, never these bytes: digests of the model, the step report and
    # the plot from the default 3 x 3 seed grid over the unit box
    ifs = tmp_path / "tri.ifs"
    ifs.write_text(
        "dim 2\nmode strict\n"
        "affine 0.5 0 0 0.5 0 0\naffine 0.5 0 0 0.5 0.5 0\naffine 0.5 0 0 0.5 0.25 0.5\n"
    )
    model, report, plot = (str(tmp_path / name) for name in ("tri.model", "tri.csv", "tri.svg"))
    assert run("attractor", str(ifs), "--tol", "5e-3", "--out", model, "--report", report) == 0
    assert "converged=True iterations=8 points=38276" in capsys.readouterr().out
    assert run("plot", model, "--out", plot, "--quiet") == 0
    digests = {os.path.basename(p): hashlib.sha256(open(p, "rb").read()).hexdigest()
               for p in (model, report, plot)}
    assert digests == {
        "tri.model": "f5942efbcd888834c5c41e95fea7355740e77da732ea150a9ed1f94eebd47a95",
        "tri.csv": "7ad1f3f0e3f150841a79a28eb6000cc97d84d636f8d6b56857e7bbce3007253d",
        "tri.svg": "d27701658ee30e6469b322df5249329cf876736803010312d9a3f28e5461c846",
    }


def test_attractor_rejects_bad_box(halves_ifs, capsys):
    rc = run("attractor", halves_ifs, "--box", "0,0,1")
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_certify_fixed_set_exit_codes(tmp_path, halves_ifs, capsys):
    seg = tmp_path / "seg.model"
    seg.write_text("dim 2\npolyline seg 2\n0 0\n1 0\nmarked a 0 0\n")
    assert run("certify", "fixed-set", "--ifs", halves_ifs, "--model", str(seg)) == 1

    needle = str(tmp_path / "needle.model")
    run("build", "needle", "--out", needle, "--quiet")
    cert_path = str(tmp_path / "cert.txt")
    rc = run("certify", "fixed-set", "--ifs", halves_ifs, "--model", needle,
             "--out", cert_path)
    assert rc == 0
    info = formats.parse_certificate(open(cert_path).read())
    assert info["verdict"] == "certified"
    assert info["margin"] > 0
    capsys.readouterr()


def test_certify_p_coverage(tmp_path, capsys):
    pmodel = str(tmp_path / "P.model")
    run("build", "P", "--n-max", "3", "--out", pmodel, "--quiet")
    const = tmp_path / "const.ifs"
    const.write_text("dim 2\naffine 0 0 0 0 0 0\n")
    rc = run("certify", "p-coverage", "--ifs", str(const), "--model", pmodel)
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict=certified" in out
    assert "witness.p1=" in out


def test_build_P_at_n_max_7_exits_0(tmp_path):
    # l1..l7 hold about 54,600 segments: the check that distinct lines meet
    # only at the origin must not grow with the product of their sizes
    out = tmp_path / "P.model"
    assert run("build", "P", "--n-max", "7", "--out", str(out), "--quiet") == 0
    model = formats.load_model(str(out))
    assert len(model.pieces) == 7
    assert model.marked.keys() == {f"p{n}" for n in range(8)}


@pytest.mark.parametrize("kind, meta, message", [
    ("p-coverage", "meta kind P\nmeta n_max 1\n", "model lacks the marked point 'p1'"),
    ("needle-dichotomy", "meta kind needle\nmeta base default\n",
     "model lacks the marked point 'h(p)'"),
    # only the default needle has a sampler to rebuild; the base is refused first
    ("needle-dichotomy", "meta kind needle\nmeta base custom\n",
     "only default-base needle files can be rebuilt"),
    # the recorded scale count is read before the tips it names
    ("p-coverage", "meta kind P\nmeta n_max abc\n", "meta n_max: 'abc' is not a valid int"),
], ids=["p-coverage", "needle-dichotomy", "needle-custom-base", "p-coverage-n-max"])
def test_certificates_name_a_missing_marked_point(tmp_path, capfd, kind, meta, message):
    # one polyline and a marked point other than the one the certificate reads
    model = tmp_path / "m.model"
    model.write_text(f"dim 2\n{meta}polyline a 2\n0 0\n1 0\nmarked p0 0 0\n")
    const = tmp_path / "const.ifs"
    const.write_text("dim 2\naffine 0 0 0 0 0 0\n")
    rc = run("certify", kind, "--ifs", str(const), "--model", str(model))
    stdout, err = capfd.readouterr()
    assert rc == 2
    assert stdout == ""
    assert err == f"error: {message}\n"


def test_certify_dichotomy_paths(tmp_path, capsys):
    needle = str(tmp_path / "needle.model")
    run("build", "needle", "--out", needle, "--quiet")

    const = tmp_path / "const.ifs"
    const.write_text("dim 2\naffine 0 0 0 0 0 0\n")
    rc = run("certify", "needle-dichotomy", "--ifs", str(const), "--model", needle,
             "--classify-pairs", "0")
    assert rc == 0
    assert "verdict=consistent" in capsys.readouterr().out

    halving = tmp_path / "halving.ifs"
    halving.write_text("dim 2\nmode weak\nclosed_form needle_param_scale 0.5 attested\n")
    rc = run("certify", "needle-dichotomy", "--ifs", str(halving), "--model", needle,
             "--kmax", "4")
    assert rc == 2
    assert "verdict=refuted" in capsys.readouterr().out

    shift = tmp_path / "shift.ifs"
    shift.write_text("dim 2\nmode weak\naffine 1 0 0 1 0.5 0\n")
    rc = run("certify", "needle-dichotomy", "--ifs", str(shift), "--model", needle,
             "--classify-pairs", "0")
    assert rc == 1
    assert "verdict=inconclusive" in capsys.readouterr().out


def test_plot_is_deterministic(tmp_path, halves_ifs):
    model = str(tmp_path / "l2.model")
    run("build", "zigzag", "--n", "2", "--out", model, "--quiet")
    a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    assert run("plot", model, "--out", a, "--quiet") == 0
    assert run("plot", model, "--out", b, "--quiet") == 0
    va, vb = open(a, "rb").read(), open(b, "rb").read()
    assert va == vb
    assert va.startswith(b"<svg")

    csv_out = str(tmp_path / "profile.csv")
    run("build", "zigzag", "--n", "1", "--out", str(tmp_path / "l1.model"), "--quiet")
    run("chain", str(tmp_path / "l1.model"), "p0", "p1", "--eps0", "1e-3",
        "--kmax", "2", "--out", csv_out, "--quiet")
    c, d = str(tmp_path / "c.svg"), str(tmp_path / "d.svg")
    assert run("plot", csv_out, "--title", "profile", "--out", c, "--quiet") == 0
    assert run("plot", csv_out, "--title", "profile", "--out", d, "--quiet") == 0
    assert open(c, "rb").read() == open(d, "rb").read()


def test_plot_draws_a_chain_value_of_zero(tmp_path):
    # a pair that snaps to one sample has chain value 0: it is no missing point
    model = str(tmp_path / "l1.model")
    run("build", "zigzag", "--n", "1", "--out", model, "--quiet")
    csv_out, svg_out = str(tmp_path / "bb.csv"), str(tmp_path / "bb.svg")
    run("chain", model, "p1", "p1", "--eps0", "1e-3", "--kmax", "2", "--out", csv_out, "--quiet")
    assert formats.load_profile_csv(csv_out)[2].tolist() == [0.0, 0.0, 0.0]
    assert run("plot", csv_out, "--out", svg_out, "--quiet") == 0
    text = open(svg_out).read()
    assert text.count(">0</text>") == 3
    assert ">inf</text>" not in text and "no finite values" not in text
    mixed = tmp_path / "mixed.csv"
    mixed.write_text("epsilon,pitch,value\n0.1,0.01,0\n0.05,0.005,2\n0.025,0.0025,\n0.0125,0.00125,4\n")
    assert run("plot", str(mixed), "--out", svg_out, "--quiet") == 0
    text = open(svg_out).read()
    assert text.count(">0</text>") == 1 and text.count(">inf</text>") == 1
    assert text.count('r="5"') == 3  # the two positive values and the 0


def test_cli_import_loads_no_url_or_tls_modules(tmp_path):
    # xml.sax.saxutils pulls in urllib.request, http.client and ssl; scipy
    # comes with metric, ifs and certify, which no build or plot runs
    assert run("build", "zigzag", "--n", "1", "--out", str(tmp_path / "l1.model"), "--quiet") == 0
    (tmp_path / "profile.csv").write_text("epsilon,pitch,value\n0.1,0.01,2\n0.05,0.005,\n")
    probe = ("import sys, ifscert.cli; "
             "assert not sys.argv[1:] or ifscert.cli.main(sys.argv[1:]) == 0; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
             "or m in {'xml.sax.saxutils', 'urllib.request', 'ssl'}))")
    for argv in ([], ["build", "needle"], ["build", "P"], ["build", "zigzag"], ["plot", "l1.model"],
                 ["plot", "profile.csv"]):
        out = subprocess.run([sys.executable, "-c", probe, *argv, *(["--quiet"] if argv else [])],
                             cwd=tmp_path, capture_output=True, text=True, env=_subprocess_env())
        assert (out.returncode, out.stdout.strip()) == (0, "[]"), (argv, out.stderr)


def test_public_names_resolve_to_their_home_modules():
    # the lazy modules are the package's attributes from the start
    for name in ("metric", "ifs", "certify"):
        assert getattr(ifscert, name) is sys.modules[f"ifscert.{name}"]


def test_svg_escape_matches_saxutils():
    from xml.sax.saxutils import escape

    from ifscert import svg

    for label in ["plain", "a&b", "<p>", "x > y & y < z", "&amp;", "\"quoted\" 'single'", "&<>\"'" * 3, ""]:
        assert svg._escape(label) == escape(label)


def test_chain_in_twenty_dimensions_returns_within_seconds(tmp_path):
    # cells cut on every axis but the last meant (3^19 - 1)/2 neighbour cells
    # per sample: about half a day for this two-vertex polyline
    dim = 20
    model = tmp_path / "d20.model"
    model.write_text(f"dim {dim}\npolyline a 2\n{' '.join(['0'] * dim)}\n{' '.join(['1'] * dim)}\n"
                     f"marked a {' '.join(['0'] * dim)}\nmarked b {' '.join(['1'] * dim)}\n")
    profile = str(tmp_path / "d20.csv")
    done = subprocess.run(
        [sys.executable, "-m", "ifscert.cli", "chain", str(model), "a", "b", "--eps0", "0.5", "--kmax", "1",
         "--out", profile, "--quiet"], capture_output=True, env=_subprocess_env(), timeout=60)
    assert done.returncode in (0, 1), done.stderr
    assert formats.load_profile_csv(profile)[2] == pytest.approx([dim ** 0.5] * 2, rel=1e-9)


def test_plot_reads_a_piped_input_once(tmp_path):
    model = str(tmp_path / "l1.model")
    csv_out = str(tmp_path / "profile.csv")
    run("build", "zigzag", "--n", "1", "--out", model, "--quiet")
    run("chain", model, "p0", "p1", "--eps0", "1e-3", "--kmax", "2", "--out", csv_out, "--quiet")
    env = _subprocess_env()
    for source in (model, csv_out):
        by_path, by_pipe = str(tmp_path / "path.svg"), str(tmp_path / "pipe.svg")
        assert run("plot", source, "--title", "t", "--out", by_path, "--quiet") == 0
        with open(source, "rb") as fh:
            text = fh.read()
        # ``input`` goes through a pipe, which can be read only once
        piped = subprocess.run(
            [sys.executable, "-m", "ifscert.cli", "plot", "/dev/stdin", "--title", "t", "--out", by_pipe, "--quiet"],
            input=text, capture_output=True, env=env)
        assert piped.returncode == 0, piped.stderr
        assert open(by_pipe, "rb").read() == open(by_path, "rb").read()
    # a pipe has no size to bound a vertex count by: the stream must run out
    # before anything is allocated for the count
    piped = subprocess.run(
        [sys.executable, "-m", "ifscert.cli", "plot", "/dev/stdin", "--out", str(tmp_path / "huge.svg")],
        input=b"dim 2\nmeta pitch 1\npoints c 100000000000\n", capture_output=True, env=env)
    assert piped.returncode == 2
    assert piped.stderr == b"error: /dev/stdin: truncated vertex block at line 4\n"


@pytest.mark.parametrize("text, message", [
    # a zero scale has no place on the log axis: the SVG held nan coordinates
    ("epsilon,pitch,value\n0,0.01,1\n0.05,0.005,2\n", ":2: epsilon and pitch must be finite and positive"),
    # the csv module's own error escaped as a traceback
    ("epsilon,pitch,value\n0.1,0.01," + "1" * 140_000 + "\n", ":2: field larger than field limit"),
], ids=["zero-epsilon", "long-field"])
def test_plot_refuses_a_profile_no_chain_writes(tmp_path, capfd, text, message):
    profile = tmp_path / "p.csv"
    profile.write_text(text)
    assert run("plot", str(profile), "--out", str(tmp_path / "p.svg")) == 2
    stdout, err = capfd.readouterr()
    assert stdout == ""
    assert err.startswith(f"error: {profile}{message}")
    assert not (tmp_path / "p.svg").exists()


@pytest.mark.parametrize("exc, message", [
    (MemoryError(), "out of memory"),
    (MemoryError("Unable to allocate 2.7 GiB"), "Unable to allocate 2.7 GiB"),
])
def test_memory_error_exits_2(tmp_path, capfd, monkeypatch, exc, message):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(continua, "build_needle", exhausted)
    rc = run("build", "needle", "--out", str(tmp_path / "needle.model"))
    stdout, err = capfd.readouterr()
    assert rc == 2
    assert stdout == ""
    assert err == f"error: {message}\n"


def test_usage_and_input_errors(tmp_path, capsys, halves_ifs):
    assert run("frobnicate") == 2
    assert run() == 2
    garbage = tmp_path / "garbage.model"
    garbage.write_text("this is not a model\n")
    rc = run("chain", str(garbage), "a", "b")
    assert rc == 2
    assert "unknown record" in capsys.readouterr().err
    # only certify reads --seed; elsewhere it is a usage error, not a prefix of --seed-cloud
    for argv in (["build", "zigzag", "--n", "1", "--out", str(tmp_path / "l1.model")],
                 ["chain", str(garbage), "a", "b"], ["plot", str(garbage), "--out", str(tmp_path / "g.svg")],
                 ["attractor", halves_ifs, "--out", str(tmp_path / "att.model")]):
        assert run(*argv, "--seed", "7") == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
    assert not (tmp_path / "l1.model").exists()
    assert not (tmp_path / "att.model").exists()
    # no flag is read as a prefix of another, and the removed flags are gone
    for argv, flag in ((["chain", str(garbage), "a", "b"], ["--eps", "1e-3"]),
                       (["chain", str(garbage), "a", "b"], ["--pitch-ratio", "10"]),
                       (["certify", "needle-dichotomy", "--ifs", halves_ifs, "--model", str(garbage)],
                        ["--map-index", "0"])):
        assert run(*argv, *flag) == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("kind, ifs_text, model_argv", [
    ("fixed-set", "dim 2\naffine 0.5 0 0 0.5 0 0\n", ["needle", "--delta", "1e-2"]),
    ("p-coverage", "dim 2\naffine 0 0 0 0 0 0\n", ["P", "--n-max", "2"]),
], ids=["fixed-set", "p-coverage"])
def test_certify_refuses_a_seed_its_kind_does_not_read(tmp_path, capfd, kind, ifs_text, model_argv):
    system, model, out = tmp_path / "f.ifs", str(tmp_path / "m.model"), tmp_path / "out.cert"
    system.write_text(ifs_text)
    assert run("build", *model_argv, "--out", model, "--quiet") == 0
    argv = ["certify", kind, "--ifs", str(system), "--model", model, "--delta", "1e-2", "--quiet"]
    assert run(*argv) in (0, 1)
    rc = run(*argv, "--seed", "7", "--out", str(out))
    stdout, err = capfd.readouterr()
    assert (rc, stdout) == (2, "")
    assert err == f"error: --seed applies to needle-dichotomy only, not {kind}\n"
    assert not out.exists()


def test_needle_dichotomy_seed_defaults_to_0(tmp_path, capsys):
    needle = str(tmp_path / "needle.model")
    assert run("build", "needle", "--delta", "1e-2", "--out", needle, "--quiet") == 0
    const = tmp_path / "const.ifs"
    const.write_text("dim 2\naffine 0 0 0 0 0 0\n")
    argv = ["certify", "needle-dichotomy", "--ifs", str(const), "--model", needle,
            "--delta", "1e-2", "--kmax", "2", "--classify-pairs", "200"]
    outs = {}
    for seed in ([], ["--seed", "0"], ["--seed", "7"]):
        assert run(*argv, *seed) == 0
        outs[" ".join(seed)] = capsys.readouterr().out
    assert outs[""] == outs["--seed 0"]
    assert "param.seed=0\n" in outs[""]
    assert outs["--seed 7"] == outs[""].replace("param.seed=0\n", "param.seed=7\n")


def test_plot_names_the_file_of_a_first_line_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_bytes(b"dim \xff2\n")
    assert run("plot", str(bad), "--out", str(tmp_path / "bad.svg")) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")


def test_quiet_silences_informational_output(tmp_path, capsys):
    model = str(tmp_path / "l1.model")
    assert run("build", "zigzag", "--n", "1", "--out", model, "--quiet") == 0
    assert capsys.readouterr().out == ""
    # the chain verdict line is the machine-readable result, never silenced
    rc = run("chain", model, "p0", "p1", "--eps0", "1e-3", "--kmax", "2", "--quiet")
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("verdict=")
    assert "wrote" not in out


MALFORMED_INPUTS = {
    "nodim.model": "dim\npolyline a 2\n0 0\n1 0\n",
    "nocount.model": "dim 2\npolyline a\n0 0\n1 0\n",
    "repeat.model": "dim 2\npolyline a 2\n0 0\n0 0\n",
    "pitch.model": "dim 2\nmeta pitch -1\npoints c 1\n0 0\n",
    "strict.ifs": "dim 2\naffine 1 0 0 1 0 0\n",
    "nomode.ifs": "dim 2\nmode\naffine 0.5 0 0 0.5 0 0\n",
    "nope.ifs": "dim 2\nclosed_form nope 1\n",
    "lipneg.ifs": "dim 2\nclosed_form needle_param_scale 0.5 lip=-1\n",
    "lipnan.ifs": "dim 2\nclosed_form needle_param_scale 0.5 lip=nan\n",
    "affnan.ifs": "dim 2\naffine nan 0 0 1 0 0\n",
    "h1nan.ifs": "dim 2\nneedle_h1 nan\n",
    "h1neg.ifs": "dim 2\nneedle_h1 -5\n",
    "h1zero.ifs": "dim 2\nneedle_h1 0\n",
    "cf3d.ifs": "dim 3\nclosed_form needle_param_scale 0.5 lip=0.5\n",
    "h2dim1.ifs": "dim 1\nneedle_h2 lip=0.5\n",
    "badeps.csv": "epsilon,pitch,value\nx,0.01,1\n",
    "badvalue.csv": "epsilon,pitch,value\n0.1,0.01,zz\n",
    "shortrow.csv": "epsilon,pitch,value\n0.1,0.01\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_files_exit_2_with_their_line(tmp_path, capsys, name):
    bad = tmp_path / name
    bad.write_text(MALFORMED_INPUTS[name])
    model = tmp_path / "l1.model"
    assert run("build", "zigzag", "--n", "1", "--out", str(model), "--quiet") == 0
    if name.endswith(".ifs"):
        rc = run("certify", "fixed-set", "--ifs", str(bad), "--model", str(model))
    elif name.endswith(".csv"):
        rc = run("plot", str(bad), "--out", str(tmp_path / "out.svg"))
    else:
        rc = run("chain", str(bad), "a", "b")
    err = capsys.readouterr().err
    assert rc == 2
    line = 2 if name != "nodim.model" else 1
    assert err.startswith(f"error: {bad}:{line}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag, value", [
    ("--eps0", "nan"), ("--eps0", "inf"),
])
def test_chain_rejects_non_finite_schedule_flags(tmp_path, capfd, flag, value):
    model = str(tmp_path / "l1.model")
    assert run("build", "zigzag", "--n", "1", "--out", model, "--quiet") == 0
    rc = run("chain", model, "p0", "p1", "--kmax", "2", flag, value)
    out, err = capfd.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag.lstrip("-").replace("-", "_") in err


@pytest.mark.parametrize("argv, name", [
    (["certify", "fixed-set", "--delta", "inf"], "delta"),
    (["certify", "fixed-set", "--delta", "nan"], "delta"),
    (["certify", "fixed-set", "--delta=-1e-3"], "delta"),
    (["certify", "needle-dichotomy", "--eps0", "nan"], "eps0"),
    (["attractor", "--tol", "inf"], "tol"),
    (["attractor", "--max-iter", "0"], "max_iter"),
    (["attractor", "--box", "0,0,inf,1"], "--box"),
    (["attractor", "--box", "nan,0,1,1"], "--box"),
    (["build", "needle", "--delta", "1e-9"], "needle refinement too fine; raise delta"),
    (["build", "needle", "--delta", "1e-300"], "needle refinement too fine; raise delta"),
    (["build", "needle", "--delta", "5e-324"], "needle refinement too fine; raise delta"),
], ids=["delta-inf", "delta-nan", "delta-negative", "eps0-nan", "tol-inf", "max-iter-0", "box-inf", "box-nan",
        "delta-too-fine", "delta-1e-300", "delta-subnormal"])
def test_numeric_flags_must_be_finite_and_positive(tmp_path, halves_ifs, capfd, argv, name):
    seg = tmp_path / "seg.model"
    seg.write_text("dim 2\npolyline seg 2\n0 0\n1 0\nmarked a 0 0\n")
    out = str(tmp_path / "out.model")
    if argv[0] == "certify":
        argv = [*argv, "--ifs", halves_ifs, "--model", str(seg), "--out", out]
    elif argv[0] == "build":
        argv = [*argv, "--out", out]
    else:
        argv = [argv[0], halves_ifs, *argv[1:], "--out", out]
    rc = run(*argv)
    stdout, err = capfd.readouterr()
    assert rc == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert name in err
    assert not (tmp_path / "out.model").exists()


def test_a_set_map_image_past_the_float_range_is_one_error_line(tmp_path):
    # the second map sends x = 10 to 1e309, past the float range; numpy would warn first
    (tmp_path / "big.ifs").write_text(
        "dim 2\nmode weak\naffine 0.5 0 0 0.5 0 0\naffine 1e308 0 0 0.5 0 0 attested\n")
    (tmp_path / "s.model").write_text("dim 2\npolyline a 2\n0 0\n10 0\n")
    argv = ["certify", "fixed-set", "--ifs", "big.ifs", "--model", "s.model", "--out", "s.cert"]
    done = subprocess.run([sys.executable, "-m", "ifscert.cli", *argv], cwd=tmp_path,
                          env=_subprocess_env(), capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: set-map image reaches inf, too far out for grid cells of 0.0005\n"
    assert not (tmp_path / "s.cert").exists()


def test_sampling_too_fine_is_one_error_line(tmp_path, capfd):
    # ceil(length / pitch) past the int64 range wrapped negative in the cast
    p_model, line, const = (str(tmp_path / name) for name in ("P.model", "l1.model", "const.ifs"))
    (tmp_path / "const.ifs").write_text("dim 2\nmode strict\naffine 0 0 0 0 0 0\n")
    assert run("build", "P", "--n-max", "1", "--out", p_model, "--quiet") == 0
    assert run("build", "zigzag", "--n", "1", "--out", line, "--quiet") == 0
    capfd.readouterr()
    for argv in (["certify", "p-coverage", "--ifs", const, "--model", p_model, "--delta", "1e-20"],
                 ["chain", line, "p0", "p1", "--eps0", "1e-18", "--kmax", "0"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(*argv)
        out, err = capfd.readouterr()
        assert (rc, out, caught) == (2, "", [])
        assert err.startswith("error: polyline sampling too fine") and err.count("\n") == 1


@pytest.mark.parametrize("flag, value, name", [
    ("--kmax", "-1", "kmax"), ("--classify-pairs", "-5", "classify_pairs"),
])
def test_integer_flags_must_not_be_negative(tmp_path, capfd, flag, value, name):
    # a constant map onto the attachment point: any accepted run exits 0
    needle = str(tmp_path / "needle.model")
    assert run("build", "needle", "--delta", "1e-2", "--out", needle, "--quiet") == 0
    const = tmp_path / "const.ifs"
    const.write_text("dim 2\naffine 0 0 0 0 0 0\n")
    out = str(tmp_path / "out.cert")
    rc = run("certify", "needle-dichotomy", "--ifs", str(const), "--model", needle,
             "--delta", "1e-2", flag, value, "--out", out)
    stdout, err = capfd.readouterr()
    assert rc == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert name in err
    assert not (tmp_path / "out.cert").exists()


def test_oversized_point_count_exits_2(tmp_path, capfd):
    huge = tmp_path / "huge.model"
    huge.write_text("dim 2\nmeta pitch 1\npoints c 100000000000\n")
    rc = run("plot", str(huge), "--out", str(tmp_path / "huge.svg"))
    stdout, err = capfd.readouterr()
    assert rc == 2
    assert stdout == ""
    assert err == f"error: {huge}: truncated vertex block at line 4\n"


def test_plot_draws_a_one_point_cloud_at_the_centre(tmp_path, capfd):
    # the 5e-14 pad is lost to rounding at 513, so the padded box has width 0
    cloud = tmp_path / "one.model"
    cloud.write_text("dim 2\nmeta pitch 1\npoints cloud 1\n513 513\n")
    out = tmp_path / "one.svg"
    assert run("plot", str(cloud), "--out", str(out), "--quiet") == 0
    assert capfd.readouterr() == ("", "")
    assert '<path d="M500.00,500.00 h0"' in out.read_text()


def test_plot_refuses_a_box_past_the_float_range(tmp_path, capfd):
    huge = tmp_path / "huge.model"
    huge.write_text("dim 2\npolyline a 2\n-1e308 -1e308\n1e308 1e308\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run("plot", str(huge), "--out", str(tmp_path / "huge.svg"))
    out, err = capfd.readouterr()
    assert (rc, out, caught) == (2, "", [])
    assert err == "error: cannot draw these coordinates: the padded bounding box overflows\n"
    assert not (tmp_path / "huge.svg").exists()


def test_overflowing_coordinates_print_no_numpy_warning(tmp_path, halves_ifs, capfd):
    line = str(tmp_path / "l1.model")
    assert run("build", "zigzag", "--n", "1", "--out", line, "--quiet") == 0
    # segments about 1e300 long, whose squared lengths overflow, are refused: sampled
    # at a pitch near 1e298, every distance kernel would read their gaps as inf
    big = tmp_path / "big.model"
    big.write_text("dim 2\npolyline a 2\n0 0\n1e300 1e300\nmarked p0 0 0\nmarked p1 1e300 1e300\n")
    seg = tmp_path / "seg.model"
    seg.write_text("dim 2\npolyline a 2\n0 0\n1e300 0\n")
    # the segment is this system's attractor, so no certificate may deny that
    halves = tmp_path / "seg.ifs"
    halves.write_text("dim 2\naffine 0.5 0 0 0.5 0 0\naffine 0.5 0 0 0.5 5e299 0\n")
    # the unit segment and its image pieces 1e200 apart, below the 1e201 threshold:
    # the gap's square overflows, so the certificate must not read it as inf
    unit = tmp_path / "unit.model"
    unit.write_text("dim 2\npolyline a 2\n0 0\n1 0\n")
    apart = tmp_path / "apart.ifs"
    apart.write_text("dim 2\naffine 0.5 0 0 0.5 0 0\naffine 0.5 0 0 0.5 1e200 0\n")
    # every image point about 1e200 from every tip: no gap may read as inf
    P = str(tmp_path / "P.model")
    assert run("build", "P", "--n-max", "3", "--out", P, "--quiet") == 0
    far_ifs = tmp_path / "far.ifs"
    far_ifs.write_text("dim 2\nmode weak\naffine 1 0 0 1 1e200 0 attested\n")
    # two pieces 1e155 - 1e150 apart: at epsilon 1e160 a graph would drop the
    # gap, whose square overflows, and call the model disconnected
    far = tmp_path / "far.model"
    far.write_text("dim 2\npolyline a 2\n0 0\n1e150 0\npolyline b 2\n1e155 0\n1.0000000001e155 0\n"
                   "marked s 0 0\nmarked t 1e155 0\n")
    capfd.readouterr()
    runs = [
        (["chain", line, "p0", "1e200,0", "--eps0", "1e-3", "--kmax", "0"], 2),
        # images past the int64 keys of the half-pitch grid, which no step could dedupe
        (["attractor", halves_ifs, "--box=0,0,1e308,1e308", "--max-iter", "2",
          "--out", str(tmp_path / "att.model"), "--quiet"], 2),
        (["chain", str(big), "p0", "p1", "--eps0", "1e299", "--kmax", "0"], 2),
        (["certify", "fixed-set", "--ifs", str(halves), "--model", str(seg), "--delta", "1e298",
          "--out", str(tmp_path / "seg.cert")], 2),
        (["certify", "fixed-set", "--ifs", str(apart), "--model", str(unit), "--delta", "1e200",
          "--out", str(tmp_path / "apart.cert")], 2),
        (["certify", "p-coverage", "--ifs", str(far_ifs), "--model", P,
          "--out", str(tmp_path / "far.cert")], 2),
        (["chain", str(far), "s", "t", "--eps0", "1e160", "--kmax", "2"], 2),
    ]
    for argv, code in runs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(*argv)
        _, err = capfd.readouterr()
        assert (rc, caught) == (code, []), (argv, rc, caught)
        # one error line for a refusal, nothing otherwise
        if rc == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        else:
            assert err == "", (argv, err)
    assert not any((tmp_path / name).exists() for name in ("seg.cert", "apart.cert", "far.cert"))


@pytest.mark.parametrize("pitch, message", [
    ("0", "pitch must be positive"), ("-1", "pitch must be positive"), ("abc", "'abc' is not a valid float"),
], ids=["zero", "negative", "word"])
def test_a_bad_meta_pitch_names_its_record(tmp_path, capfd, pitch, message):
    cloud = tmp_path / "cloud.model"
    cloud.write_text(f"dim 2\n# the pitch record is on line 3\nmeta pitch {pitch}\npoints c 1\n0 0\n")
    rc = run("plot", str(cloud), "--out", str(tmp_path / "cloud.svg"))
    assert (rc, *capfd.readouterr()) == (2, "", f"error: {cloud}:3: {message}\n")
    assert not (tmp_path / "cloud.svg").exists()


@pytest.mark.parametrize("argv, message", [
    (["attractor", "{ifs}", "--box", "0,0,a,1"], "--box needs comma-separated numbers, not 0,0,a,1"),
    (["chain", "{line}", "0,x", "p1"], "src needs comma-separated numbers, not 0,x"),
    (["chain", "{line}", "p0", "1,,0"], "dst needs comma-separated numbers, not 1,,0"),
], ids=["box", "src", "dst"])
def test_an_unparsed_number_names_its_argument(tmp_path, halves_ifs, capfd, argv, message):
    line = str(tmp_path / "l1.model")
    assert run("build", "zigzag", "--n", "1", "--out", line, "--quiet") == 0
    out = str(tmp_path / "out.model")
    rc = run(*[a.format(ifs=halves_ifs, line=line) for a in argv], "--out", out)
    assert (rc, *capfd.readouterr()) == (2, "", f"error: {message}\n")
    assert not os.path.exists(out)


def test_a_schedule_whose_finest_pitch_underflows_is_refused(tmp_path, capfd):
    line = str(tmp_path / "l1.model")
    assert run("build", "zigzag", "--n", "1", "--out", line, "--quiet") == 0
    out = tmp_path / "profile.csv"
    rc = run("chain", line, "p0", "p1", "--eps0", "1e-300", "--kmax", "100", "--out", str(out))
    message = "the finest pitch of eps0=1e-300 with k_max=100 underflows to 0; use a larger eps0 or a smaller k_max"
    assert (rc, *capfd.readouterr()) == (2, "", f"error: {message}\n")
    assert not out.exists()


def test_needle_dichotomy_refuses_a_system_of_several_maps(tmp_path, halves_ifs, capfd):
    needle = str(tmp_path / "needle.model")
    assert run("build", "needle", "--delta", "1e-2", "--out", needle, "--quiet") == 0
    out = tmp_path / "halves.cert"
    rc = run("certify", "needle-dichotomy", "--ifs", halves_ifs, "--model", needle, "--out", str(out))
    message = f"{halves_ifs}: needle-dichotomy certifies one map, and this system has 2"
    assert (rc, *capfd.readouterr()) == (2, "", f"error: {message}\n")
    assert not out.exists()
