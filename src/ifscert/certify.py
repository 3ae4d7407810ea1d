"""Certificates: machine-checkable verdicts about IFS claims on continua.

A certificate never claims more than what was computed: ``certified`` and
``refuted`` verdicts carry a positive margin and explicit witnesses,
``consistent`` marks the one degenerate situation the theory allows, and
everything else stays ``inconclusive``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .continua import needle_offset
from .geometry import ContinuumModel, PointCloud, Polyline, polyline_length, sample_polyline
from .ifs import IfsSpec, MapSpec, classify_contraction, eval_map, hutchinson
from .metric import chain_profiles, hausdorff, nearest_samples

VERDICT_CERTIFIED = "certified"
VERDICT_REFUTED = "refuted"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_CONSISTENT = "consistent"

# A mismatch below this many pitches cannot be told from discretisation.
_RESOLUTION_PITCHES = 10.0
_COVER_PITCHES = 3.0


class CertificationError(RuntimeError):
    """A certified bound was contradicted by direct computation."""


@dataclass(frozen=True)
class Certificate:
    claim: str
    verdict: str
    margin: float
    witnesses: tuple[tuple[str, np.ndarray], ...] = ()
    parameters: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.verdict not in (
            VERDICT_CERTIFIED,
            VERDICT_REFUTED,
            VERDICT_INCONCLUSIVE,
            VERDICT_CONSISTENT,
        ):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict in (VERDICT_CERTIFIED, VERDICT_REFUTED):
            if not (self.margin > 0) or not self.witnesses:
                raise ValueError("decisive certificates need a positive margin and witnesses")
        wit = tuple((str(k), np.asarray(v, dtype=float)) for k, v in self.witnesses)
        for _, v in wit:
            v.setflags(write=False)
        object.__setattr__(self, "witnesses", wit)


def _inconclusive(claim: str, params: dict, *notes: str) -> Certificate:
    return Certificate(claim, VERDICT_INCONCLUSIVE, 0.0, (), params, notes)


def length_budget(i: int, n: int) -> bool:
    """Whether a piece of length ``2**i`` can cover a target needing ``2**n``."""
    if i < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    return 2 ** i >= 2 ** n


def image_length_bound(f: MapSpec, line: Polyline) -> float:
    """Certified bound ``lip_bound * length`` for the image of a polyline.

    Refuses maps without a Lipschitz bound. The chord length of a finely
    sampled image is compared against the bound, and a violation raises
    :class:`CertificationError`.
    """
    if f.lip_bound is None:
        raise ValueError("image_length_bound needs a map with a Lipschitz bound")
    length = polyline_length(line)
    bound = f.lip_bound * length
    pitch = max(length / 2000.0, 1e-12)
    image = eval_map(f, sample_polyline(line, pitch).points)
    chained = float(np.linalg.norm(np.diff(image, axis=0), axis=1).sum())
    if chained > bound * (1 + 1e-9) + 1e-12:
        raise CertificationError(
            f"image chord length {chained:.12g} exceeds certified bound {bound:.12g}"
        )
    return bound


def fixed_set_check(ifs: IfsSpec, model: ContinuumModel, delta: float) -> Certificate:
    """Compare one set-map step of the refined model against the model itself.

    A gap above ten pitches certifies that the modelled set is not the fixed
    set of the system; anything smaller is inconclusive at this resolution.
    """
    cloud = model.refine(delta)
    image = hutchinson(ifs, cloud)
    gap, on_image, far = hausdorff(image, cloud, witness=True)
    threshold = _RESOLUTION_PITCHES * delta
    side = "image-point-off-model" if on_image else "model-point-off-image"
    params = {"delta": delta, "hausdorff": gap, "threshold": threshold}
    if gap > threshold:
        return Certificate(
            "model-is-not-the-fixed-set",
            VERDICT_CERTIFIED,
            gap - threshold,
            ((side, far),),
            params,
        )
    return _inconclusive(
        "model-is-not-the-fixed-set", params, "set-map step stayed within the resolution threshold"
    )


def _require_P(model: ContinuumModel) -> int:
    """The scale count of a zigzag-union model; raise for any other model."""
    if model.meta.get("kind") != "P":
        raise ValueError("model is not a zigzag union (missing 'kind' metadata)")
    raw = model.meta.get("n_max", str(len(model.pieces)))
    try:
        n_max = int(raw)
    except ValueError:
        raise ValueError(f"meta n_max: {raw!r} is not a valid int") from None
    if n_max != len(model.pieces):
        raise ValueError("piece count does not match the recorded n_max")
    missing = [f"p{n}" for n in range(1, n_max + 1) if f"p{n}" not in model.marked]
    if missing:
        raise ValueError(f"model lacks the marked point {missing[0]!r}")
    return n_max


def _require_needle(model: ContinuumModel) -> None:
    """Raise unless ``model`` is the default needle (``meta base default``).

    It is the only needle that ``build_needle`` makes and the only one whose
    resampler ``load_model`` rebuilds, and ``needle_offset`` measures it.
    """
    if model.meta.get("kind") != "needle":
        raise ValueError("model is not a needle (missing 'kind' metadata)")
    if model.meta.get("base") != "default":
        raise ValueError("only default-base needle files can be rebuilt")
    if "h(p)" not in model.marked:
        raise ValueError("model lacks the marked point 'h(p)'")


def p_point_coverage(ifs: IfsSpec, model: ContinuumModel, delta: float) -> Certificate:
    """Check which marked tips of the zigzag union the image reaches.

    ``model`` must be a zigzag union (``meta kind P``, as ``build_P`` makes)
    whose ``n_max`` matches its piece count. A tip farther than three pitches
    from every map image certifies that the union is not fixed, with the
    smallest missed tip as witness. When all tips are covered, coverage owed
    entirely to short pieces through origin-fixing maps is flagged as a
    resolution artifact.
    """
    n_max = _require_P(model)
    clouds = [sample_polyline(line, delta) for line in model.pieces]
    targets = [(n, model.marked[f"p{n}"]) for n in range(1, n_max + 1)]
    best = {n: math.inf for n, _ in targets}
    contributions: dict[int, list[tuple[int, int]]] = {n: [] for n, _ in targets}
    threshold = _COVER_PITCHES * delta
    tips = np.array([pt for _, pt in targets])
    for j, f in enumerate(ifs.maps):
        for i, cloud in enumerate(clouds, start=1):
            dists = nearest_samples(eval_map(f, cloud.points), tips)[0]
            for (n, _), d in zip(targets, dists.tolist()):
                best[n] = min(best[n], d)
                if d <= threshold:
                    contributions[n].append((j, i))
    params = {"delta": delta, "threshold": threshold, "n_max": n_max}
    missed = [n for n, _ in targets if best[n] > threshold]
    if missed:
        n = min(missed)
        return Certificate(
            "union-is-not-the-fixed-set",
            VERDICT_CERTIFIED,
            best[n],
            ((f"p{n}", model.marked[f"p{n}"]),),
            {**params, "missed": ",".join(str(m) for m in missed)},
        )
    notes = []
    origin = np.zeros(2)
    fixes_origin = {
        j for j, f in enumerate(ifs.maps)
        if float(np.linalg.norm(eval_map(f, origin[None, :])[0] - origin)) <= delta
    }
    for n, _ in targets:
        pairs = contributions[n]
        if pairs and all(j in fixes_origin and not length_budget(i, n) for j, i in pairs):
            notes.append(
                f"p{n} is covered only by origin-fixing maps through pieces with "
                f"insufficient length budget; likely a resolution artifact"
            )
    notes = notes or ["every tip is covered at this resolution"]
    return _inconclusive("union-is-not-the-fixed-set", params, *notes)


def needle_dichotomy_check(
    f: MapSpec,
    model: ContinuumModel,
    eps0: float = 0.1,
    k_max: int = 6,
    delta: float = 1e-3,
    classify_pairs: int = 20000,
    seed: int = 0,
) -> Certificate:
    """Test a claimed contraction of the needle against the dichotomy.

    Either the map moves the attachment point, and then some convergent pair
    must map to a divergent one, or it fixes the attachment point, and then
    the divergent chain to it must exceed the geometric series bound built
    from one convergent step; the only escape is the constant map onto the
    attachment point, reported as ``consistent``. ``classify_pairs=0`` skips
    the empirical contraction screening (diagnostic use). ``model`` must be
    the default needle (``meta kind needle``, ``meta base default``, as
    ``build_needle`` makes): image points are tested for membership against
    its defining formula with ``needle_offset``.
    """
    _require_needle(model)
    claim = "map-cannot-contract-the-needle"
    cloud = model.refine(delta)
    params: dict = {
        "eps0": eps0, "k_max": k_max, "delta": delta, "seed": seed,
        "lip_bound": f.lip_bound if f.lip_bound is not None else "none",
    }

    # membership against the defining formula: the refined cloud
    # intentionally under-covers folds below the shortcut scale
    images = eval_map(f, cloud.points)
    off = needle_offset(images)
    worst = int(np.argmax(off))
    if off[worst] > _COVER_PITCHES * delta:
        return _inconclusive(
            claim, params, f"not a self-map at this resolution: image point strays {off[worst]:.3g}"
        )

    if classify_pairs:
        verdict = classify_contraction(f, cloud, pairs=classify_pairs, seed=seed)
        params["empirical_ratio"] = verdict.max_ratio
        if verdict.kind == "expansion_witness":
            x, y = verdict.witness
            return Certificate(
                claim, VERDICT_REFUTED, verdict.max_ratio - 1.0,
                (("stretched-from", x), ("stretched-to", y)),
                params, ("the map visibly expands a sampled pair; not a contraction",),
            )

    lam = f.lip_bound
    if lam is None or not lam < 1:
        return _inconclusive(
            claim, params, "the dichotomy bound needs a declared Lipschitz bound below one"
        )

    hp = model.marked["h(p)"]
    fhp = eval_map(f, hp[None, :])[0]
    if float(np.linalg.norm(fhp - hp)) <= delta:
        return _dichotomy_fixed_tip(f, model, hp, eps0, k_max, delta, lam, claim, params, cloud, images)
    return _dichotomy_moved_tip(f, model, hp, eps0, k_max, delta, lam, claim, params, cloud, images)


def _snap_to_cloud(cloud: PointCloud, pt: np.ndarray) -> np.ndarray:
    return cloud.points[nearest_samples(cloud.points, pt[None, :])[1][0]]


def _dichotomy_fixed_tip(f, model, hp, eps0, k_max, delta, lam, claim, params, cloud, images):
    far = model.marked.get("far")
    fx_far = eval_map(f, far[None, :])[0] if far is not None else None
    if fx_far is not None and np.linalg.norm(fx_far - hp) > 2 * delta:
        x = far
    else:
        dists = np.linalg.norm(images - hp, axis=1)
        best = int(np.argmax(dists))
        if dists[best] <= 2 * delta:
            spread = np.linalg.norm(images - eval_map(f, hp[None, :])[0], axis=1).max()
            if spread <= delta:
                return Certificate(
                    claim, VERDICT_CONSISTENT, 0.0, (("fixed-point", hp),), params,
                    ("constant map onto the attachment point; the allowed degenerate case",),
                )
            return _inconclusive(
                claim, params, "image collapses near the attachment point but is not constant"
            )
        x = cloud.points[best]
    fx = _snap_to_cloud(cloud, eval_map(f, x[None, :])[0])
    step, divergent = chain_profiles(model, [(x, fx), (x, hp)], eps0, k_max)
    params["step_verdict"] = step.verdict
    if step.verdict != "converges":
        return _inconclusive(claim, params, "the one-step chain between x and f(x) did not settle")
    series_bound = step.limit / (1.0 - lam)
    params["series_bound"] = series_bound
    params["divergent_verdict"] = divergent.verdict
    params["divergent_value"] = float(divergent.values[-1])
    if divergent.verdict != "diverges":
        return _inconclusive(
            claim, params, "the chain to the attachment point did not visibly blow up"
        )
    margin = float(divergent.values[-1]) - series_bound
    if margin > 0:
        return Certificate(
            claim, VERDICT_CERTIFIED, margin,
            (("probe", x), ("probe-image", fx), ("attachment", hp)),
            params,
            ("chains to the attachment point exceed the geometric series any "
             "contraction fixing it would allow",),
        )
    return _inconclusive(
        claim, params, "resolution too coarse: the divergent chain has not passed the series bound yet"
    )


def _dichotomy_moved_tip(f, model, hp, eps0, k_max, delta, lam, claim, params, cloud, images):
    to_hp = np.linalg.norm(images - hp, axis=1)
    self_dist = np.linalg.norm(cloud.points - hp, axis=1)
    hits = to_hp <= delta
    if not hits.any():
        return _inconclusive(claim, params, "no sampled point maps onto the attachment point")
    # both probes stand clear of the attachment point, else their own
    # chains blow up and the comparison says nothing
    src = int(np.argmax(np.where(hits, self_dist, -np.inf)))
    extent = float(np.linalg.norm(cloud.points.max(0) - cloud.points.min(0)))
    clear = (to_hp > 2 * delta) & (self_dist >= max(10 * delta, extent / 8))
    if not clear.any():
        return _inconclusive(
            claim, params, "the image never leaves the attachment point's neighbourhood"
        )
    far_idx = int(np.argmax(np.where(clear, to_hp, -np.inf)))
    x = cloud.points[src]
    y = cloud.points[far_idx]
    fy = _snap_to_cloud(cloud, images[far_idx])
    convergent, divergent = chain_profiles(model, [(x, y), (hp, fy)], eps0, k_max)
    params["source_verdict"] = convergent.verdict
    if convergent.verdict != "converges":
        return _inconclusive(claim, params, "the source chain did not settle")
    params["image_verdict"] = divergent.verdict
    params["image_value"] = float(divergent.values[-1])
    if divergent.verdict != "diverges":
        return _inconclusive(claim, params, "the image chain did not visibly blow up")
    margin = float(divergent.values[-1]) - lam * convergent.limit
    if margin <= 0:
        return _inconclusive(
            claim, params, "resolution too coarse to separate the image chain from the source chain"
        )
    return Certificate(
        claim, VERDICT_CERTIFIED, margin,
        (("source", x), ("source-far", y), ("image-of-far", fy), ("attachment", hp)),
        params,
        ("a settled source pair maps onto a blowing-up image pair; no contraction does that",),
    )
