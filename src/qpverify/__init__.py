"""Exact-arithmetic checks for Yang-Baxter, Schouten and Poisson-pencil
identities on semisimple Lie algebras, plus the combinatorial classification
of good semisimple orbits."""

import importlib.util
import sys

__version__ = "0.1.0"


def _register_lazily(*names):
    """Put each submodule into ``sys.modules`` and onto the package, with
    its body run on its first attribute access.

    The modules' own ``from . import x`` lines then bind the same lazy
    module, so a process loads only the modules its suite reaches.
    """
    for name in names:
        spec = importlib.util.find_spec(f"{__name__}.{name}")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        globals()[name] = module


# every module but cli, which ``python -m qpverify.cli`` must find unimported
_register_lazily(
    "grouppois", "liealg", "linalg", "multivec", "orbits", "polyfield", "quantize", "rootsys",
    "suites", "termops",
)
