"""Chain metrics on sampled continua and certificate checks for iterated function systems.

Only ``metric``, ``ifs`` and ``certify`` import scipy, which costs more than
the rest of the package together, and building or plotting a model runs none
of them. So they load lazily (``importlib.util.LazyLoader``): each is in
``sys.modules`` and an attribute of the package from the start, and its body
runs on the first access to one of its attributes. Each public name lives
in the module that defines it (``ifscert.metric.chain_profile``, say).
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
