"""Chain metrics on sampled continua and certificate checks for iterated function systems.

Only ``metric``, ``ifs`` and ``certify`` import scipy, which costs more than
the rest of the package together, and building or plotting a model runs none
of them. So they load lazily (``importlib.util.LazyLoader``): each is in
``sys.modules`` and an attribute of the package from the start, and its body
runs on the first access to one of its attributes. A public name resolves
through the module ``__getattr__`` (PEP 562) from ``_HOMES``.
"""

import importlib.util
import sys


def _lazy_module(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# before ``formats``, which binds them
metric, ifs, certify = (_lazy_module(name) for name in ("metric", "ifs", "certify"))

from . import formats, svg  # noqa: E402

__version__ = "0.1.0"

# public name -> the module that defines it; ``formats`` and ``svg`` are bound above
_HOMES = {
    **dict.fromkeys(("formats", "svg"), None),
    **dict.fromkeys((
        "ContinuumModel", "PointCloud", "Polyline", "polar_to_cartesian", "polyline_length",
        "sample_polyline", "self_intersects",
    ), "geometry"),
    **dict.fromkeys((
        "ChainMetricProfile", "EpsGraph", "MonotonicityResult", "chain_distance",
        "chain_distance_on_graph", "chain_profile", "chain_profiles", "eps_graph", "hausdorff",
        "monotonicity_check",
    ), "metric"),
    **dict.fromkeys((
        "build_needle", "build_P", "build_zigzag_ln", "needle_h1", "needle_h2", "needle_wave",
        "verify_P",
    ), "continua"),
    **dict.fromkeys((
        "AttractorResult", "ContractionVerdict", "IfsSpec", "MapSpec", "affine_map", "attractor",
        "certified_lipschitz", "classify_contraction", "closed_form_map", "composed_map",
        "eval_map", "hutchinson", "interval_image", "ripple_map", "squeeze_map",
    ), "ifs"),
    **dict.fromkeys((
        "Certificate", "CertificationError", "fixed_set_check", "image_length_bound",
        "length_budget", "needle_dichotomy_check", "p_point_coverage",
    ), "certify"),
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)
