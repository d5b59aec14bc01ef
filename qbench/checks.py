"""Output checks: seed-0 reference outputs plus invariants that hold on every seed.

Invariants, independent of how the program computes its answer:
- spectrum and oracle emit one row per state of the sector;
- their energies sum to the trace of H, which is the sum of the zero-hopping
  energies over all occupation vectors (hopping has no diagonal), within
  TRACE_RTOL of the summed magnitudes;
- a band holds as many states as its pattern has orbits at every momentum;
- the closed {2,2}/{4,2}/{3,3} forms equal the numeric second-order
  reference `bw_second_order_block` entrywise within PT_ATOL.

At seed 0 the outputs are also compared with `reference/seed0.json.gz`:
labels, tags and counts exactly, energies within ENERGY_RTOL * max(1, |E|).
"""

from __future__ import annotations

import gzip
import json
import math

import numpy as np

from workloads import BENCH_DIR, Op, Params

REFERENCE = BENCH_DIR / "reference" / "seed0.json.gz"

ENERGY_RTOL = 1e-10
TRACE_RTOL = 1e-9
PT_ATOL = 1e-10


def parse_csv(text: str) -> tuple[dict, list[list[str]]]:
    """Split CLI CSV output into its `# key: json` comments and its data rows."""
    extras: dict = {}
    lines = text.splitlines()
    body = 0
    while body < len(lines) and lines[body].startswith("# "):
        key, _, value = lines[body][2:].partition(": ")
        extras[key] = json.loads(value)
        body += 1
    return extras, [line.split(",") for line in lines[body + 1:]]


def sector_dimension(p: Params) -> int:
    return math.comb(p.n + p.f - 1, p.n)


def analytic_trace(p: Params) -> tuple[float, float]:
    """Sum of zero-hopping energies over the sector, and of their magnitudes."""

    def onsite(m):
        return -p.gamma1 * m * (m - 1) + p.gamma2 * m * (m - 1) * (m - 2)

    # one site holds m bosons in comb(n - m + f - 2, f - 2) occupation vectors
    weights = [(onsite(m), math.comb(p.n - m + p.f - 2, p.f - 2)) for m in range(p.n + 1)]
    return (p.f * sum(e * c for e, c in weights),
            p.f * sum(abs(e) * c for e, c in weights))


def summarize(op: Op, output) -> dict:
    """The parts of an output that the seed-0 reference pins down."""
    if op.kind == "pt":
        return {"energies": np.linalg.eigvalsh(output[0]).tolist()}
    extras, rows = parse_csv(output)
    energies = [float(r[3]) for r in rows]
    if op.kind == "oracle":
        return {"energies": energies}
    labels = [[int(r[0]), int(r[2]), r[4]] for r in rows]
    out = {"labels": labels, "energies": energies}
    if op.kind == "band":
        ground = extras["global_ground"]
        out["counts"] = extras["counts"]
        out["ground"] = {"l": ground["l"], "in_band": ground["in_band"],
                         "energy": ground["energy"]}
    return json.loads(json.dumps(out))


def mismatches(got, ref, path: str = "") -> list[str]:
    """Paths where `got` differs from `ref`: floats within ENERGY_RTOL, the rest exactly."""
    if isinstance(ref, float) and isinstance(got, float):
        if abs(got - ref) <= ENERGY_RTOL * max(1.0, abs(ref)):
            return []
        return [f"{path}: {got!r} != {ref!r}"]
    if isinstance(ref, list) and isinstance(got, list):
        if len(got) != len(ref):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        out = []
        for i, (g, r) in enumerate(zip(got, ref)):
            out += mismatches(g, r, f"{path}[{i}]")
            if len(out) > 3:
                break
        return out
    if isinstance(ref, dict) and isinstance(got, dict):
        if got.keys() != ref.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(ref)}"]
        return [m for key in ref for m in mismatches(got[key], ref[key], f"{path}.{key}")]
    return [] if got == ref else [f"{path}: {got!r} != {ref!r}"]


def invariants(op: Op, output) -> list[str]:
    if op.kind == "pt":
        numeric, closed = output
        if numeric.shape != closed.shape:
            return [f"shape {numeric.shape} != closed form {closed.shape}"]
        worst = float(np.abs(numeric - closed).max())
        return [] if worst <= PT_ATOL else [f"closed form differs by {worst:.3e} > {PT_ATOL:g}"]
    extras, rows = parse_csv(output)
    problems = []
    if op.kind == "band":
        short = {l: c for l, c in extras["counts"].items() if c[0] != c[1]}
        if short:
            problems.append(f"selected != expected at l = {short}")
        if len(rows) != sum(c[0] for c in extras["counts"].values()):
            problems.append(f"{len(rows)} rows, counts add up to something else")
        return problems
    dim = sector_dimension(op.params)
    if len(rows) != dim:
        problems.append(f"{len(rows)} rows for a sector of dimension {dim}")
    total = math.fsum(float(r[3]) for r in rows)
    trace, scale = analytic_trace(op.params)
    if abs(total - trace) > TRACE_RTOL * max(1.0, scale):
        problems.append(f"energies sum to {total!r}, trace is {trace!r}")
    return problems


def check(op: Op, output, reference: dict | None) -> list[str]:
    """Problems with one operation's output; empty when it is correct."""
    problems = invariants(op, output)
    if reference is not None:
        problems += mismatches(summarize(op, output), reference, "reference")
    return problems


def load_reference(workload: str) -> list[dict]:
    with gzip.open(REFERENCE, "rt", encoding="utf-8") as fh:
        return json.load(fh)[workload]
