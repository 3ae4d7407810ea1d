import math
from dataclasses import replace

import numpy as np
import pytest

from ifscert.certify import (
    Certificate,
    CertificationError,
    fixed_set_check,
    image_length_bound,
    length_budget,
    needle_dichotomy_check,
    p_point_coverage,
)
from ifscert.continua import build_needle, build_P, build_zigzag_ln
from ifscert.geometry import ContinuumModel, Polyline
from ifscert.ifs import IfsSpec, affine_map, closed_form_map


def _const_map(target=(0.0, 0.0)):
    return affine_map(np.zeros((2, 2)), np.asarray(target, dtype=float))


def _halves_2d() -> IfsSpec:
    h = [[0.5, 0.0], [0.0, 0.5]]
    return IfsSpec((affine_map(h, [0.0, 0.0]), affine_map(h, [0.5, 0.0])))


def _segment_model() -> ContinuumModel:
    seg = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]), name="seg")
    return ContinuumModel((seg,), {"left": (0.0, 0.0), "right": (1.0, 0.0)}, 2)


# --- certificate invariants ------------------------------------------------------


def test_decisive_certificates_need_margin_and_witnesses():
    with pytest.raises(ValueError, match="unknown verdict"):
        Certificate("c", "maybe", 0.0)
    with pytest.raises(ValueError, match="positive margin"):
        Certificate("c", "certified", 0.0, ((("w"), np.zeros(2)),))
    with pytest.raises(ValueError, match="witnesses"):
        Certificate("c", "refuted", 1.0)
    ok = Certificate("c", "inconclusive", 0.0)
    assert ok.witnesses == ()


def test_certificate_witnesses_are_frozen():
    cert = Certificate("c", "certified", 1.0, (("w", [1.0, 2.0]),))
    label, pt = cert.witnesses[0]
    assert label == "w"
    assert not pt.flags.writeable


# --- length bookkeeping ----------------------------------------------------------


def test_length_budget_is_exactly_the_index_order():
    for i in range(1, 65):
        for n in range(1, 65):
            assert length_budget(i, n) == (i >= n)
    with pytest.raises(ValueError, match="nonnegative"):
        length_budget(-1, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        length_budget(3, -1)


def test_image_length_bound_identity_and_rotation_keep_length():
    ident = affine_map(np.eye(2), [0.0, 0.0])
    assert image_length_bound(ident, build_zigzag_ln(2)) == pytest.approx(4.0, rel=1e-9)
    c, s = math.cos(0.3), math.sin(0.3)
    rot = affine_map([[c, -s], [s, c]], [0.2, -0.1])
    assert image_length_bound(rot, build_zigzag_ln(3)) == pytest.approx(8.0, rel=1e-9)


def test_image_length_bound_scales_with_the_map():
    seg = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
    half = affine_map([[0.5, 0.0], [0.0, 0.5]], [0.0, 0.0])
    assert image_length_bound(half, seg) == pytest.approx(0.5, rel=1e-12)


def test_image_length_bound_requires_a_bound():
    f = closed_form_map("needle_param_scale", (0.5,))
    with pytest.raises(ValueError, match="Lipschitz bound"):
        image_length_bound(f, build_zigzag_ln(1))


def test_image_length_bound_catches_false_declarations():
    liar = affine_map([[2.0, 0.0], [0.0, 2.0]], [0.0, 0.0], lip_bound=0.5)
    seg = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(CertificationError, match="exceeds certified bound"):
        image_length_bound(liar, seg)


# --- fixed-set certificates ------------------------------------------------------


def test_fixed_set_check_inconclusive_on_its_own_fixed_set():
    cert = fixed_set_check(_halves_2d(), _segment_model(), 1e-3)
    assert cert.verdict == "inconclusive"
    assert cert.parameters["hausdorff"] <= cert.parameters["threshold"]


def test_fixed_set_check_certifies_needle_is_not_interval_fixed_set():
    needle = build_needle(delta=1e-3)
    cert = fixed_set_check(_halves_2d(), needle, 1e-3)
    assert cert.verdict == "certified"
    assert cert.margin > 0.1
    assert cert.witnesses[0][0] in ("image-point-off-model", "model-point-off-image")


def test_fixed_set_check_constant_map_margin_is_the_reach():
    # collapsing everything to the origin leaves the far tip uncovered, so
    # the gap is the needle's farthest distance from the origin
    needle = build_needle(delta=1e-3)
    cert = fixed_set_check(IfsSpec((_const_map(),)), needle, 1e-3)
    reach = math.sqrt(1.0 + math.sin(1.0) ** 2)
    assert cert.verdict == "certified"
    assert cert.margin == pytest.approx(reach - 0.01, abs=5e-3)


# --- zigzag tip coverage ---------------------------------------------------------


def test_p_coverage_constant_map_misses_the_first_tip():
    pm = build_P(4)
    cert = p_point_coverage(IfsSpec((_const_map(),)), pm, 1e-3)
    assert cert.verdict == "certified"
    assert cert.witnesses[0][0] == "p1"
    assert cert.margin == pytest.approx(0.5, rel=1e-9)
    assert cert.parameters["missed"] == "1,2,3,4"


def test_p_coverage_identity_covers_every_tip():
    ident = affine_map(np.eye(2), [0.0, 0.0], weak_attested=True)
    cert = p_point_coverage(IfsSpec((ident,), mode="weak"), build_P(4), 1e-3)
    assert cert.verdict == "inconclusive"
    assert any("covered" in n for n in cert.notes)


def test_p_coverage_quarter_map_certified():
    quarter = affine_map(np.eye(2) * 0.25, [0.0, 0.0])
    cert = p_point_coverage(IfsSpec((quarter,)), build_P(4), 1e-3)
    assert cert.verdict == "certified"
    assert cert.margin > 0.3


# --- needle dichotomy ------------------------------------------------------------


@pytest.fixture(scope="module")
def needle():
    return build_needle(delta=1e-3)


def test_dichotomy_constant_onto_attachment_is_consistent(needle):
    cert = needle_dichotomy_check(_const_map(), needle, classify_pairs=0)
    assert cert.verdict == "consistent"
    assert cert.witnesses[0][0] == "fixed-point"


def test_dichotomy_screening_refutes_parameter_halving(needle):
    f = closed_form_map("needle_param_scale", (0.5,))
    cert = needle_dichotomy_check(f, needle)
    assert cert.verdict == "refuted"
    assert cert.margin > 0
    assert {w[0] for w in cert.witnesses} == {"stretched-from", "stretched-to"}


def test_dichotomy_fixed_tip_beats_granted_bound(needle):
    # skip the screening and grant the (false) contraction claim: the chain
    # to the attachment point still overruns the geometric series bound
    f = closed_form_map("needle_param_scale", (0.5,), lip_bound=0.9)
    cert = needle_dichotomy_check(f, needle, classify_pairs=0)
    assert cert.verdict == "certified"
    assert cert.margin > 0
    assert {w[0] for w in cert.witnesses} == {"probe", "probe-image", "attachment"}


def test_dichotomy_moved_tip_beats_granted_bound(needle):
    f = closed_form_map("needle_param_affine", (0.35, -0.7), lip_bound=0.9)
    cert = needle_dichotomy_check(f, needle, classify_pairs=0)
    assert cert.verdict == "certified"
    assert cert.margin > 0
    assert {w[0] for w in cert.witnesses} == {
        "source", "source-far", "image-of-far", "attachment",
    }


def test_dichotomy_refutes_tent_reparametrisation(needle):
    f = closed_form_map("needle_param_tent", (0.8, 0.3))
    cert = needle_dichotomy_check(f, needle)
    assert cert.verdict == "refuted"


def test_dichotomy_rejects_non_self_maps(needle):
    shift = affine_map(np.eye(2), [0.5, 0.0])
    cert = needle_dichotomy_check(shift, needle, classify_pairs=0)
    assert cert.verdict == "inconclusive"
    assert any("self-map" in n for n in cert.notes)


def test_dichotomy_needs_a_bound_when_screening_passes(needle):
    f = closed_form_map("needle_param_affine", (0.35, -0.7))
    cert = needle_dichotomy_check(f, needle, classify_pairs=0)
    assert cert.verdict == "inconclusive"
    assert any("Lipschitz" in n for n in cert.notes)


# --- model kind ------------------------------------------------------------------


def test_p_coverage_checks_the_recorded_n_max():
    # the wrong kind of model is refused in tests/test_continua.py, and a
    # needle file with another base in tests/test_cli.py
    P = build_P(2)
    extra = replace(P, meta={**P.meta, "n_max": "3"})
    with pytest.raises(ValueError, match="does not match the recorded n_max"):
        p_point_coverage(IfsSpec((_const_map(),)), extra, 1e-2)
