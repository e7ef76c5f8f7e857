"""Run ``sparsemp.cli.main`` once in a fresh process, for the benchmark harness.

    python3 perfbench/child.py SRC_DIR SIDECAR MODE -- <sparsemp CLI arguments>

MODE is ``run`` (plain command), ``trace`` (command with layer spans) or
``setup`` (stop at the first campaign call and record provenance).  The
harness sets the BLAS thread count in this process's environment before numpy
loads.  Timestamps are CLOCK_MONOTONIC, which the harness shares, so it can
subtract its spawn time.

The first call from ``sparsemp.cli`` into a library function ends set-up.  In
``trace`` mode every library function listed in ``TRACED`` is wrapped at each
place its name is bound (``sparsemp.locallaw.sample_matrix``, not only
``sparsemp.model.sample_matrix``), because the modules import each other's
functions by name.  Functions in ``COUNTED`` are wrapped the same way but
only counted.  Spans and counts are kept in memory and written to the sidecar
when the command ends.  Nothing under ``src/`` is modified, and numpy is not
patched.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import types
from pathlib import Path


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _sample_attrs(args, kwargs, result):
    return {"bytes": result.raw.nbytes + result.mask.nbytes + result.scaled.nbytes}


def _max_abs_attrs(args, kwargs, result):
    spec = args[0]
    n, m, r = spec.left_vectors.shape[0], spec.right_vectors.shape[0], spec.singulars.size
    # three complex GEMMs, real factor promoted: 8 flops per multiply-add
    return {"flop": 8 * r * (n * n + m * m + n * m)}


def _audit_attrs(args, kwargs, result):
    return {"minor_svds": args[0].scaled.shape[0]}


def _configuration_attrs(args, kwargs, result):
    return {"links": int(result.links.sum(dtype=int))}


def _classify_attrs(args, kwargs, result):
    comps = result.components
    return {"components": len(comps), "useful": sum(1 for c in comps if len(c) > 1)}


def _map_counts(args, kwargs, result):
    from sparsemp.mc import resolve_workers
    workers = args[2] if len(args) > 2 else kwargs.get("workers")
    return {"reps": len(result), "workers": resolve_workers(workers)}


# (defining module, function, attribute extractor run after the span ends)
TRACED = (
    ("model", "sample_matrix", _sample_attrs),
    ("spectral", "singular_values", None),
    ("spectral", "resolvent_max_abs", _max_abs_attrs),
    ("locallaw", "locallaw_scan", None),
    ("locallaw", "self_consistency_audit", _audit_attrs),
    ("mplaw", "stieltjes_mp", None),
    ("mplaw", "gamma_n", None),
    ("mplaw", "domain_grid", None),
    ("configuration", "build_configuration", _configuration_attrs),
    ("configuration", "classify", _classify_attrs),
    ("configuration", "classify_sample", None),
    ("configuration", "inadmissibility_probability", None),
)

# Counted, not timed: the replication closures it runs belong to the campaign
# function that defines them, so their time stays in that function's span.
COUNTED = (("mc", "map_replications", _map_counts),)


class Tracer:
    """In-memory spans [id, name, start, end, parent id, attrs], plus counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans) + 1, name, now(), None,
                    self._stack[-1] if self._stack else 0, None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = now()
                self._stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result
        return traced

    def count(self, name: str, fn, attrs):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            for key, val in attrs(args, kwargs, result).items():
                self.counts.setdefault(f"{name}.{key}", []).append(val)
            return result
        return counted


def _sparsemp_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sparsemp" or name.startswith("sparsemp."))]


def patch_use_sites(target, replacement) -> None:
    """Rebind every module-level name in sparsemp that refers to ``target``."""
    for mod in _sparsemp_modules():
        for attr, val in list(vars(mod).items()):
            if val is target:
                setattr(mod, attr, replacement)


class SetupDone(BaseException):
    """Raised at the first campaign call in ``setup`` mode."""


def main(argv: list[str]) -> int:
    src, sidecar, mode = argv[1], Path(argv[2]), argv[3]
    cli_args = argv[argv.index("--") + 1:]
    sys.path.insert(0, src)
    import sparsemp
    import sparsemp.cli as cli
    if Path(sparsemp.__file__).resolve().parent != (Path(src) / "sparsemp").resolve():
        print(f"sparsemp imported from {sparsemp.__file__}, not from {src}",
              file=sys.stderr)
        return 3

    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        for hooks, make in ((TRACED, tracer.wrap), (COUNTED, tracer.count)):
            for mod_name, fn_name, attrs in hooks:
                mod = importlib.import_module(f"sparsemp.{mod_name}")
                fn = getattr(mod, fn_name, None)
                if fn is not None:
                    patch_use_sites(fn, make(f"{mod_name}.{fn_name}", fn, attrs))

    marks: dict[str, float] = {}

    def first_call(fn):
        @functools.wraps(fn)
        def stamped(*args, **kwargs):
            if "setup" not in marks:
                marks["setup"] = now()
                if mode == "setup":
                    raise SetupDone
            return fn(*args, **kwargs)
        return stamped

    for attr, val in list(vars(cli).items()):
        if (isinstance(val, types.FunctionType)
                and val.__module__.startswith("sparsemp.") and val.__module__ != cli.__name__):
            setattr(cli, attr, first_call(val))

    marks["main"] = now()
    try:
        rc = cli.main(cli_args)
    except SetupDone:
        rc = 0
    marks["end"] = now()

    out = {"rc": rc, "marks": marks}
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counts"] = tracer.counts
    if mode == "setup":
        out["provenance"] = provenance(sparsemp)
    sidecar.write_text(json.dumps(out), encoding="utf-8")
    return rc


def provenance(sparsemp) -> dict:
    import numpy as np
    scipy = sys.modules.get("scipy")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "sparsemp": getattr(sparsemp, "__version__", "unknown"),
        "numpy": np.__version__,
        "scipy": getattr(scipy, "__version__", "not loaded"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv))
