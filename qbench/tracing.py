"""Spans around the calls qdnls makes between its modules, recorded from outside.

`installed(tracer)` replaces, for the duration of a `with` block, the module
attributes qdnls looks up at call time (`qdnls.hamiltonian.eigh`,
`qdnls.bands.classify_block`, the closed-form matrices held in module-level
dicts, and so on) with wrappers that record a span per call.  Nothing inside
`src/` changes, and with no tracer installed the program runs untouched.

A span is (name, start, end, parent).  Its name is `<layer>.<call>`, the
layer being the qdnls module that owns the call.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same trace


class Tracer:
    """Spans and counters of one pass, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent))
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def wrap(self, fn, name: str, on_result=None):
        def traced(*args, **kwargs):
            with self.span(name) as idx:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, idx, args, result)
            return result

        return traced

    def parent_name(self, idx: int) -> str | None:
        parent = self.spans[idx].parent
        return None if parent is None else self.spans[parent].name


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        out[s.name] = out.get(s.name, 0.0) + t
    return out


def self_time_by_layer(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, t in self_time_by_name(spans).items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t
    return out


# ------------------------------------------------------------ counters


ASSEMBLY = ("hamiltonian.assemble_block", "hamiltonian.block_parts")


def _on_enumerate(tracer, idx, args, states):
    tracer.counts["basis.states"] += len(states)


def _on_sector(tracer, idx, args, sector):
    tracer.counts["basis.orbits"] += len(sector.orbits)


def _on_block(tracer, idx, args, result):
    if tracer.parent_name(idx) in ASSEMBLY:
        return  # block_parts inside assemble_block: the same block
    dim = result.matrix.shape[0] if hasattr(result, "matrix") else result[0].dim
    c = tracer.counts
    c["hamiltonian.blocks"] += 1
    c["hamiltonian.block_dim_sum"] += dim
    c["hamiltonian.block_dim_max"] = max(c["hamiltonian.block_dim_max"], dim)


def _on_eigh(tracer, idx, args, spectrum):
    dim = np.shape(args[0])[0]
    tracer.counts["eigensolve.pairs"] += len(spectrum.eigenvalues)
    tracer.counts["eigensolve.dim3_sum"] += dim ** 3


def _on_band(tracer, idx, args, report):
    tracer.counts["bands.points"] += len(report.points)
    tracer.counts["bands.overlap_notes"] += len(report.overlap_notes)


# qdnls function or class name -> (span name, counter hook)
TRACED = {
    "enumerate_sector": ("basis.enumerate_sector", _on_enumerate),
    "SectorOrbits": ("basis.sector_orbits", _on_sector),
    "momentum_spectra": ("hamiltonian.momentum_spectra", None),
    "assemble_block": ("hamiltonian.assemble_block", _on_block),
    "block_parts": ("hamiltonian.block_parts", _on_block),
    "full_matrix": ("hamiltonian.full_matrix", None),
    "eigh": ("eigensolve.eigh", _on_eigh),
    "classify_block": ("bands.classify_block", None),
    "extract_band": ("bands.extract_band", _on_band),
    "ground_state": ("bands.ground_state", None),
    "bw_second_order_block": ("perturbation.bw_second_order_block", None),
    "h22_matrix": ("perturbation.closed_form", None),
    "h42_matrix": ("perturbation.closed_form", None),
    "h33_matrix": ("perturbation.closed_form", None),
}

# numpy / scipy calls inside `qdnls.eigensolve` that run LAPACK
LAPACK_CALLS = ("eigh", "eigvalsh", "eig", "eigvals", "eigh_tridiagonal",
                "eigvalsh_tridiagonal", "ldl")
LAPACK_MODULES = ("numpy", "numpy.linalg", "scipy", "scipy.linalg")


class _Namespace:
    """A module seen through some replaced attributes."""

    def __init__(self, target, overrides: dict):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


def _lapack_view(module, wrap):
    if module.__name__ in ("numpy", "scipy"):
        return _Namespace(module, {"linalg": _lapack_view(module.linalg, wrap)})
    return _Namespace(module, {name: wrap(getattr(module, name))
                               for name in LAPACK_CALLS if hasattr(module, name)})


@contextmanager
def installed(tracer: Tracer):
    """Route every qdnls lookup of a TRACED name, and the LAPACK calls of
    `qdnls.eigensolve`, through span-recording wrappers; restore on exit."""
    saved = []
    wrappers: dict[int, object] = {}

    def traced(value):
        name = getattr(value, "__name__", None)
        if (name not in TRACED or not callable(value)
                or not getattr(value, "__module__", "").startswith("qdnls")):
            return None
        if id(value) not in wrappers:
            span_name, hook = TRACED[name]
            wrappers[id(value)] = tracer.wrap(value, span_name, hook)
        return wrappers[id(value)]

    def put(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "qdnls" or name.startswith("qdnls."))]
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapped = traced(value)
            if wrapped is not None:
                put(module, attr, wrapped)
            elif isinstance(value, dict) and attr != "__builtins__" and any(
                    traced(v) is not None for v in value.values()):
                put(module, attr, {k: traced(v) or v for k, v in value.items()})

    def lapack(fn):
        return tracer.wrap(fn, "eigensolve.lapack")

    eigensolve = sys.modules.get("qdnls.eigensolve")
    for attr, value in list(vars(eigensolve).items() if eigensolve else ()):
        called = getattr(value, "__name__", None)
        if type(value) is type(sys) and called in LAPACK_MODULES:
            put(eigensolve, attr, _lapack_view(value, lapack))
        elif (callable(value) and called in LAPACK_CALLS
              and getattr(value, "__module__", "").startswith(LAPACK_MODULES)):
            put(eigensolve, attr, lapack(value))
    try:
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


# ------------------------------------------------------ per-layer metrics


def layer_metrics(tracer: Tracer, cli_rows: int, cli_bytes: int) -> dict[str, float]:
    """Per-layer times (s) and counts of one traced pass."""
    spans = tracer.spans
    own = self_time_by_name(spans)
    c = tracer.counts

    def self_s(*names):
        return math.fsum(own.get(n, 0.0) for n in names)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    eigh_self = self_s("eigensolve.eigh")
    lapack = math.fsum(s.end - s.start for s in spans if s.name == "eigensolve.lapack")
    pairs = c["eigensolve.pairs"]
    return {
        "basis.sector_s": self_s("basis.enumerate_sector", "basis.sector_orbits"),
        "basis.states": c["basis.states"],
        "basis.orbits": c["basis.orbits"],
        "hamiltonian.assemble_s": self_s(*ASSEMBLY),
        "hamiltonian.full_matrix_s": self_s("hamiltonian.full_matrix"),
        "hamiltonian.blocks": c["hamiltonian.blocks"],
        "hamiltonian.block_dim_max": c["hamiltonian.block_dim_max"],
        "hamiltonian.block_dim_sum": c["hamiltonian.block_dim_sum"],
        "eigensolve.eigh_s": eigh_self + lapack,
        "eigensolve.lapack_s": lapack,
        "eigensolve.certify_s": eigh_self,
        "eigensolve.calls": calls("eigensolve.eigh"),
        "eigensolve.pairs": pairs,
        "eigensolve.dim3_sum": c["eigensolve.dim3_sum"],
        "eigensolve.useful_ratio": cli_rows / pairs if pairs else 0.0,
        "bands.classify_s": self_s("bands.classify_block"),
        "bands.extract_s": self_s("bands.extract_band"),
        "bands.ground_s": self_s("bands.ground_state"),
        "bands.points": c["bands.points"],
        "bands.overlap_notes": c["bands.overlap_notes"],
        "perturbation.bw_s": self_s("perturbation.bw_second_order_block"),
        "perturbation.bw_calls": calls("perturbation.bw_second_order_block"),
        "perturbation.closed_form_s": self_s("perturbation.closed_form"),
        "cli.self_s": math.fsum(t for n, t in own.items() if n.startswith("cli.")),
        "cli.rows": cli_rows,
        "cli.bytes": cli_bytes,
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    out = {}
    for key, first in per_pass[0].items():
        values = [m[key] for m in per_pass]
        # counts repeat exactly from pass to pass: keep them whole numbers
        out[key] = (statistics.median_low(values) if isinstance(first, int)
                    else statistics.median(values))
    return out
