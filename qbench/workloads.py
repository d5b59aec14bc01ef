"""Workload definitions: the operations each workload runs and their inputs.

Every workload is a closed loop of operations issued one after another by
one process.  The CLI commands run in-process through `qdnls.cli.main` with
its default `--threads 1`; OpenBLAS keeps its own default thread count.

The seed jitters gamma1, gamma2 and epsilon of every operation by up to
+-2% and keeps f, n and the pattern fixed, so the work volume does not
depend on the seed.  Seed 0 gives the shipped parameter points exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"

JITTER = 0.02

WORKLOADS = {
    "band-configs": (
        "The paper's reproduction path: `qdnls band` on the four shipped configs. "
        "A band keeps about 1.7% of the eigenpairs computed, so a windowed or "
        "+-l symmetric eigensolve shows here."),
    "full-spectrum": (
        "`qdnls spectrum` at f=11/n=6 and the dense `qdnls oracle` at f=8/n=6: "
        "every eigenpair (or eigenvalue) is consumed, so windowing cannot help "
        "and a change that trades this path for bands shows here."),
    "pt-reference": (
        "The numeric second-order reference against the closed {2,2}, {4,2} and "
        "{3,3} forms at every momentum: dominated by Bloch block assembly, with "
        "no eigensolve, so hop-table work shows and eigensolve work must not."),
}

# shipped config -> the band the paper reads from it
BAND_CONFIGS = (("band22_n4", (2, 2)), ("band22_ground", (2, 2)),
                ("band42_n6", (4, 2)), ("band33_n6", (3, 3)))
SPECTRUM_CONFIG = "band42_n6"

# (pattern, f, n, gamma1, gamma2); epsilon = 0.5 throughout
PT_POINTS = (((2, 2), 19, 4, 10.0, 0.0), ((2, 2), 23, 4, 10.0, 0.0),
             ((4, 2), 11, 6, 30.0, 0.0), ((4, 2), 13, 6, 30.0, 0.0),
             ((3, 3), 11, 6, 10.0, 20.0), ((3, 3), 13, 6, 10.0, 20.0))
PT_EPSILON = 0.5
CLOSED_FORMS = {(2, 2): "h22_matrix", (4, 2): "h42_matrix", (3, 3): "h33_matrix"}


class Params(NamedTuple):
    f: int
    n: int
    gamma1: float
    gamma2: float
    epsilon: float


@dataclass
class Op:
    """One operation: `execute(state, tracer)` performs the program call(s) and
    returns the raw output that `checks.check` inspects.  `state` is a dict
    that lives for one pass of the workload."""

    name: str
    kind: str  # band | spectrum | oracle | pt
    params: Params
    execute: Callable


def import_qdnls():
    """Import qdnls from this checkout's `src/`, never from an installed copy."""
    if not (SRC / "qdnls" / "__init__.py").is_file():
        raise SystemExit(f"error: no qdnls sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qdnls

    if Path(qdnls.__file__).resolve().parent != (SRC / "qdnls").resolve():
        raise SystemExit(f"error: imported qdnls from {qdnls.__file__}, not from {SRC}")
    return qdnls


def jitter(seed: int, index: int) -> tuple[float, float, float]:
    """Factors for (gamma1, gamma2, epsilon) of operation `index`."""
    if seed == 0:
        return (1.0, 1.0, 1.0)
    u = np.random.default_rng([seed, index]).uniform(-JITTER, JITTER, 3)
    return tuple(1.0 + float(x) for x in u)


def _jittered(base: Params, seed: int, index: int) -> Params:
    a, b, c = jitter(seed, index)
    return base._replace(gamma1=base.gamma1 * a, gamma2=base.gamma2 * b,
                         epsilon=base.epsilon * c)


def _config(name: str) -> Params:
    with open(CONFIGS / f"{name}.json", encoding="utf-8") as fh:
        raw = json.load(fh)
    return Params(raw["f"], raw["n"], float(raw["gamma1"]), float(raw.get("gamma2", 0.0)),
                  float(raw.get("epsilon", 0.0)))


def run_cli(argv: list[str], tracer=None) -> str:
    """Run one `qdnls` command in this process and return what it printed."""
    from qdnls.cli import main

    buf = io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(buf), span:
        try:
            main(argv, standalone_mode=False)
        except SystemExit as exc:
            if exc.code:
                raise RuntimeError(f"qdnls {argv[0]} exited with code {exc.code}") from None
    return buf.getvalue()


def cli_op(name: str, kind: str, params: Params, command: list[str]) -> Op:
    argv = command + ["--gamma1", repr(params.gamma1), "--gamma2", repr(params.gamma2),
                      "--eps", repr(params.epsilon)]
    return Op(name, kind, params, lambda state, tracer: run_cli(argv, tracer))


def _pt_op(name: str, params: Params, pattern: tuple[int, ...], l: int) -> Op:
    import qdnls

    model = qdnls.ModelParams(f=params.f, n=params.n, gamma1=params.gamma1,
                              gamma2=params.gamma2, epsilon=params.epsilon)
    point = (params.f, params.n, pattern)

    def execute(state, tracer):
        # attribute lookups go through the package, where the tracer hooks in
        if point not in state:
            sector = qdnls.SectorOrbits(params.f, params.n)
            classes = [o for o in sector.orbits if qdnls.pattern_of(o.rep) == pattern]
            state[point] = (sector, classes)
        sector, classes = state[point]
        k = qdnls.MomentumIndex(l, params.f)
        numeric = qdnls.bw_second_order_block(model, k, classes, sector)
        closed = getattr(qdnls, CLOSED_FORMS[pattern])(model, k)
        return numeric, closed

    return Op(name, "pt", params, execute)


def make_ops(workload: str, seed: int) -> list[Op]:
    """Import qdnls and build the operations of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    qdnls = import_qdnls()
    import qdnls.cli  # noqa: F401  the CLI workloads call it

    if workload == "band-configs":
        ops = []
        for i, (name, pattern) in enumerate(BAND_CONFIGS):
            params = _jittered(_config(name), seed, i)
            command = ["band", "--config", str(CONFIGS / f"{name}.json"),
                       "--pattern", ",".join(map(str, pattern))]
            ops.append(cli_op(name, "band", params, command))
        return ops
    if workload == "full-spectrum":
        spectrum = _jittered(_config(SPECTRUM_CONFIG), seed, 0)
        oracle = _jittered(Params(8, 6, 30.0, 0.0, 0.5), seed, 1)
        return [
            cli_op(f"spectrum {SPECTRUM_CONFIG}", "spectrum", spectrum,
                   ["spectrum", "--config", str(CONFIGS / f"{SPECTRUM_CONFIG}.json")]),
            cli_op("oracle f8 n6", "oracle", oracle,
                   ["oracle", "--f", str(oracle.f), "--n", str(oracle.n)]),
        ]
    ops = []
    for pattern, f, n, g1, g2 in PT_POINTS:
        for k in qdnls.momentum_grid(f):
            params = _jittered(Params(f, n, g1, g2, PT_EPSILON), seed, len(ops))
            label = "".join(map(str, pattern))
            ops.append(_pt_op(f"pt {label} f{f} n{n} l={k.l}", params, pattern, k.l))
    return ops
