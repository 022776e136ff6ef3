"""Per-layer tracing of one qpverify invocation, installed from outside.

Run as ``python3 perfbench/tracer.py <src dir> <qpverify arguments...>``.
The script imports the package from ``<src dir>``, rebinds the module
and class attributes listed in ``TRACED`` to timing wrappers, runs
``qpverify.cli.main(arguments + ["--timings"])`` in this process and
prints one JSON object: the exit code, the report text and the
statistics of every traced function.  Nothing in the package is edited;
only attribute lookups made after installation go through the wrappers.

For each traced function the wrapper records ``calls`` (exact),
``s`` (inclusive time of the outermost active call) and ``self_s``
(inclusive time minus the time spent in traced callees).  For
``FirstOrderProduct.__call__`` it also counts the distinct
(product, left polynomial, right polynomial) arguments.
"""

import contextlib
import io
import json
import os
import sys
import time

# (module, attribute or Class.method, metric prefix, published statistics)
TRACED = [
    *(
        ("qpverify.termops", name, f"termops.{name}", ("calls", "self_s"))
        for name in (
            "pderive", "pmul", "piadd", "ptruncate", "bivector_eval",
            "sn_bracket", "smul", "kveval", "table_bracket",
        )
    ),
    ("qpverify.quantize", "FirstOrderProduct.__call__", "quantize.first_order_product",
     ("calls", "self_s", "distinct_ratio")),
    *(
        ("qpverify.quantize", name, f"quantize.{name}", ("s",))
        for name in (
            "hochschild_cocycle_check", "first_order_invariance_check",
            "twist_correspondence_check", "pentagon_order2_check", "pbw_flatness",
        )
    ),
    *(
        ("qpverify.polyfield", name, f"polyfield.{name}", ("s",))
        for name in (
            "solve_equivariant", "calibrate_scale", "phibar",
            "gl_transport_quadratic_bracket", "invariant_bivector_scan",
        )
    ),
    ("qpverify.polyfield", "schouten_nijenhuis", "polyfield.schouten_nijenhuis",
     ("calls", "self_s")),
    *(
        ("qpverify.linalg", name, f"linalg.{name}", ("calls", "self_s"))
        for name in ("nullspace_sparse", "rref", "mat_mul", "mat_kron_many")
    ),
    *(
        ("qpverify.grouppois", name, f"grouppois.{name}", ("s",))
        for name in ("build_ad_bracket", "build_sklyanin_bracket", "build_two_sided_bracket")
    ),
    *(
        ("qpverify.grouppois", name, f"grouppois.{name}", ("self_s",))
        for name in ("jacobiator_on_generators", "ad_invariance_defect", "phi_through_conjugation")
    ),
    ("qpverify.grouppois", "GroupBivector.bracket", "grouppois.bracket", ("calls",)),
    *(
        ("qpverify.multivec", name, f"multivec.{name}", ("self_s",))
        for name in ("algebraic_schouten", "is_invariant", "cyb", "co_jacobi_check")
    ),
    ("qpverify.liealg", "algebra", "liealg.algebra", ("s",)),
    ("qpverify.liealg", "canonical_tensors", "liealg.canonical_tensors", ("s",)),
    ("qpverify.rootsys", "build_root_system", "rootsys.build_root_system", ("s",)),
    ("qpverify.orbits", "enumerate_good_orbits", "orbits.enumerate_good_orbits", ("s",)),
]

PRODUCT_PREFIX = "quantize.first_order_product"


class Tracer:
    """Timing wrappers with self time measured against traced callees."""

    def __init__(self):
        self.stats = {}
        self.distinct_products = set()
        self._children = []  # one accumulator of traced-callee time per active call

    def wrap(self, prefix, fn):
        stat = self.stats[prefix] = {"calls": 0, "s": 0.0, "self_s": 0.0}
        children = self._children
        depth = [0]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children.append(0.0)
            depth[0] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[0] -= 1
                stat["calls"] += 1
                stat["self_s"] += elapsed - children.pop()
                if not depth[0]:
                    stat["s"] += elapsed
                if children:
                    children[-1] += elapsed

        return traced

    def wrap_product_call(self, fn):
        timed = self.wrap(PRODUCT_PREFIX, fn)
        seen = self.distinct_products

        def call(product, a, b):
            seen.add((product, frozenset(a.items()), frozenset(b.items())))
            return timed(product, a, b)

        return call

    def install(self):
        for module_name, attr, prefix, _ in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name)
            fn = getattr(owner, attr)
            if prefix == PRODUCT_PREFIX:
                wrapper = self.wrap_product_call(fn)
            else:
                wrapper = self.wrap(prefix, fn)
            setattr(owner, attr, wrapper)

    def snapshot(self):
        out = {prefix: dict(stat) for prefix, stat in self.stats.items()}
        out[PRODUCT_PREFIX]["distinct"] = len(self.distinct_products)
        return out


def main(argv):
    src, args = os.path.abspath(argv[0]), argv[1:]
    sys.path.insert(0, src)
    import qpverify.cli

    if not os.path.abspath(qpverify.__file__).startswith(src + os.sep):
        raise SystemExit(f"qpverify imported from {qpverify.__file__}, not from {src}")
    tracer = Tracer()
    tracer.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qpverify.cli.main(args + ["--timings"])
    print(json.dumps({
        "exit": code,
        "report": out.getvalue(),
        "stats": tracer.snapshot(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
