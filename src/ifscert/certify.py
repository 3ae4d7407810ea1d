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
from scipy.spatial import cKDTree

from .continua import NeedleModel, PModel, needle_offset
from .geometry import ContinuumModel, PointCloud, Polyline, polyline_length, sample_polyline
from .ifs import IfsSpec, MapSpec, classify_contraction, eval_map, hutchinson
from .metric import chain_profiles, hausdorff

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


def length_budget(i: int, n: int) -> bool:
    """Whether a piece of length ``2**i`` can cover a target needing ``2**n``."""
    if i < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    return 2 ** i >= 2 ** n


def image_length_bound(f: MapSpec, line: Polyline, validate: bool = True) -> float:
    """Certified bound ``lip_bound * length`` for the image of a polyline.

    Refuses maps without a Lipschitz bound. When ``validate`` is set, the
    chord length of a finely sampled image is compared against the bound and
    a violation raises :class:`CertificationError`.
    """
    if f.lip_bound is None:
        raise ValueError("image_length_bound needs a map with a Lipschitz bound")
    length = polyline_length(line)
    bound = f.lip_bound * length
    if validate:
        pitch = max(length / 2000.0, 1e-12)
        pts = sample_polyline(line, pitch).points
        image = eval_map(f, pts)
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
    return Certificate(
        "model-is-not-the-fixed-set",
        VERDICT_INCONCLUSIVE,
        0.0,
        (),
        params,
        ("set-map step stayed within the resolution threshold",),
    )


def p_point_coverage(ifs: IfsSpec, pm: PModel, delta: float) -> Certificate:
    """Check which marked tips of the zigzag union the image reaches.

    A tip farther than three pitches from every map image certifies that the
    union is not fixed, with the smallest missed tip as witness. When all
    tips are covered, coverage owed entirely to short pieces through
    origin-fixing maps is flagged as a resolution artifact.
    """
    clouds = [sample_polyline(line, delta) for line in pm.lines]
    targets = [(n, pm.marked[f"p{n}"]) for n in range(1, pm.n_max + 1)]
    best = {n: math.inf for n, _ in targets}
    contributions: dict[int, list[tuple[int, int]]] = {n: [] for n, _ in targets}
    threshold = _COVER_PITCHES * delta
    for j, f in enumerate(ifs.maps):
        for i, cloud in enumerate(clouds, start=1):
            img = eval_map(f, cloud.points)
            tree = cKDTree(img)
            for n, pt in targets:
                d = float(tree.query(pt)[0])
                best[n] = min(best[n], d)
                if d <= threshold:
                    contributions[n].append((j, i))
    params = {"delta": delta, "threshold": threshold, "n_max": pm.n_max}
    missed = [n for n, _ in targets if best[n] > threshold]
    if missed:
        n = min(missed)
        return Certificate(
            "union-is-not-the-fixed-set",
            VERDICT_CERTIFIED,
            best[n],
            ((f"p{n}", pm.marked[f"p{n}"]),),
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
    return Certificate(
        "union-is-not-the-fixed-set",
        VERDICT_INCONCLUSIVE,
        0.0,
        (),
        params,
        tuple(notes) if notes else ("every tip is covered at this resolution",),
    )


def needle_dichotomy_check(
    f: MapSpec,
    needle: NeedleModel,
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
    the empirical contraction screening (diagnostic use).
    """
    claim = "map-cannot-contract-the-needle"
    model = needle.image
    cloud = model.refine(delta)
    params: dict = {
        "eps0": eps0, "k_max": k_max, "delta": delta, "seed": seed,
        "lip_bound": f.lip_bound if f.lip_bound is not None else "none",
    }

    image_pts = eval_map(f, cloud.points)
    # membership against the defining formula when available: the refined
    # cloud intentionally under-covers folds below the shortcut scale
    if model.meta.get("kind") == "needle" and model.meta.get("base") == "default":
        off = needle_offset(image_pts)
    else:
        off = cKDTree(cloud.points).query(image_pts, k=1)[0]
    worst = int(np.argmax(off))
    if off[worst] > _COVER_PITCHES * delta:
        return Certificate(
            claim, VERDICT_INCONCLUSIVE, 0.0, (), params,
            (f"not a self-map at this resolution: image point strays {off[worst]:.3g}",),
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
        return Certificate(
            claim, VERDICT_INCONCLUSIVE, 0.0, (), params,
            ("the dichotomy bound needs a declared Lipschitz bound below one",),
        )

    hp = model.marked["h(p)"]
    fhp = eval_map(f, hp[None, :])[0]
    if float(np.linalg.norm(fhp - hp)) <= delta:
        return _dichotomy_fixed_tip(f, needle, hp, eps0, k_max, delta, lam, claim, params, cloud)
    return _dichotomy_moved_tip(f, needle, hp, eps0, k_max, delta, lam, claim, params, cloud)


def _snap_to_cloud(cloud: PointCloud, pt: np.ndarray) -> np.ndarray:
    idx = int(cKDTree(cloud.points).query(pt)[1])
    return cloud.points[idx]


def _dichotomy_fixed_tip(f, needle, hp, eps0, k_max, delta, lam, claim, params, cloud):
    model = needle.image
    far = model.marked.get("far")
    fx_far = eval_map(f, far[None, :])[0] if far is not None else None
    if fx_far is not None and np.linalg.norm(fx_far - hp) > 2 * delta:
        x = far
    else:
        images = eval_map(f, cloud.points)
        dists = np.linalg.norm(images - hp, axis=1)
        best = int(np.argmax(dists))
        if dists[best] <= 2 * delta:
            spread = np.linalg.norm(images - eval_map(f, hp[None, :])[0], axis=1).max()
            if spread <= delta:
                return Certificate(
                    claim, VERDICT_CONSISTENT, 0.0, (("fixed-point", hp),), params,
                    ("constant map onto the attachment point; the allowed degenerate case",),
                )
            return Certificate(
                claim, VERDICT_INCONCLUSIVE, 0.0, (), params,
                ("image collapses near the attachment point but is not constant",),
            )
        x = cloud.points[best]
    fx = _snap_to_cloud(cloud, eval_map(f, x[None, :])[0])
    step, divergent = chain_profiles(model, [(x, fx), (x, hp)], eps0, k_max)
    params["step_verdict"] = step.verdict
    if step.verdict != "converges":
        return Certificate(
            claim, VERDICT_INCONCLUSIVE, 0.0, (), params,
            ("the one-step chain between x and f(x) did not settle",),
        )
    series_bound = step.limit / (1.0 - lam)
    params["series_bound"] = series_bound
    params["divergent_verdict"] = divergent.verdict
    params["divergent_value"] = float(divergent.values[-1])
    if divergent.verdict != "diverges":
        return Certificate(
            claim, VERDICT_INCONCLUSIVE, 0.0, (), params,
            ("the chain to the attachment point did not visibly blow up",),
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
    return Certificate(
        claim, VERDICT_INCONCLUSIVE, 0.0, (), params,
        ("resolution too coarse: the divergent chain has not passed the series bound yet",),
    )


def _dichotomy_moved_tip(f, needle, hp, eps0, k_max, delta, lam, claim, params, cloud):
    model = needle.image
    images = eval_map(f, cloud.points)
    to_hp = np.linalg.norm(images - hp, axis=1)
    self_dist = np.linalg.norm(cloud.points - hp, axis=1)
    hits = to_hp <= delta
    if not hits.any():
        return Certificate(
            claim, VERDICT_INCONCLUSIVE, 0.0, (), params,
            ("no sampled point maps onto the attachment point",),
        )
    # both probes stand clear of the attachment point, else their own
    # chains blow up and the comparison says nothing
    src = int(np.argmax(np.where(hits, self_dist, -np.inf)))
    extent = float(np.linalg.norm(cloud.points.max(0) - cloud.points.min(0)))
    clear = (to_hp > 2 * delta) & (self_dist >= max(10 * delta, extent / 8))
    if not clear.any():
        return Certificate(
            claim, VERDICT_INCONCLUSIVE, 0.0, (), params,
            ("the image never leaves the attachment point's neighbourhood",),
        )
    far_idx = int(np.argmax(np.where(clear, to_hp, -np.inf)))
    x = cloud.points[src]
    y = cloud.points[far_idx]
    fy = _snap_to_cloud(cloud, images[far_idx])
    convergent, divergent = chain_profiles(model, [(x, y), (hp, fy)], eps0, k_max)
    params["source_verdict"] = convergent.verdict
    if convergent.verdict != "converges":
        return Certificate(
            claim, VERDICT_INCONCLUSIVE, 0.0, (), params,
            ("the source chain did not settle",),
        )
    params["image_verdict"] = divergent.verdict
    params["image_value"] = float(divergent.values[-1])
    if divergent.verdict != "diverges":
        return Certificate(
            claim, VERDICT_INCONCLUSIVE, 0.0, (), params,
            ("the image chain did not visibly blow up",),
        )
    margin = float(divergent.values[-1]) - lam * convergent.limit
    if margin <= 0:
        return Certificate(
            claim, VERDICT_INCONCLUSIVE, 0.0, (), params,
            ("resolution too coarse to separate the image chain from the source chain",),
        )
    return Certificate(
        claim, VERDICT_CERTIFIED, margin,
        (("source", x), ("source-far", y), ("image-of-far", fy), ("attachment", hp)),
        params,
        ("a settled source pair maps onto a blowing-up image pair; no contraction does that",),
    )
