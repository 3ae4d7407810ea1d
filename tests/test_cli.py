import numpy as np
import pytest

from ifscert import formats
from ifscert.cli import main
from ifscert.geometry import PointCloud


def run(*argv) -> int:
    return main(list(argv))


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


def test_usage_and_input_errors(tmp_path, capsys):
    assert run("frobnicate") == 2
    assert run() == 2
    garbage = tmp_path / "garbage.model"
    garbage.write_text("this is not a model\n")
    rc = run("chain", str(garbage), "a", "b")
    assert rc == 2
    assert "unknown record" in capsys.readouterr().err


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
    "nomode.ifs": "dim 2\nmode\naffine 0.5 0 0 0.5 0 0\n",
    "nope.ifs": "dim 2\nclosed_form nope 1\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_files_exit_2_with_their_line(tmp_path, capsys, name):
    bad = tmp_path / name
    bad.write_text(MALFORMED_INPUTS[name])
    model = tmp_path / "l1.model"
    assert run("build", "zigzag", "--n", "1", "--out", str(model), "--quiet") == 0
    if name.endswith(".ifs"):
        rc = run("certify", "fixed-set", "--ifs", str(bad), "--model", str(model))
    else:
        rc = run("chain", str(bad), "a", "b")
    err = capsys.readouterr().err
    assert rc == 2
    line = 2 if name != "nodim.model" else 1
    assert err.startswith(f"error: {bad}:{line}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag, value", [
    ("--eps0", "nan"), ("--eps0", "inf"), ("--pitch-ratio", "nan"), ("--pitch-ratio", "inf"),
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
], ids=["delta-inf", "delta-nan", "delta-negative", "eps0-nan", "tol-inf", "max-iter-0", "box-inf", "box-nan"])
def test_numeric_flags_must_be_finite_and_positive(tmp_path, halves_ifs, capfd, argv, name):
    seg = tmp_path / "seg.model"
    seg.write_text("dim 2\npolyline seg 2\n0 0\n1 0\nmarked a 0 0\n")
    out = str(tmp_path / "out.model")
    if argv[0] == "certify":
        argv = [*argv, "--ifs", halves_ifs, "--model", str(seg), "--out", out]
    else:
        argv = [argv[0], halves_ifs, *argv[1:], "--out", out]
    rc = run(*argv)
    stdout, err = capfd.readouterr()
    assert rc == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert name in err
    assert not (tmp_path / "out.model").exists()
