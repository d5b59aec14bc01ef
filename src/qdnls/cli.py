"""Command-line driver: spectra, bands, perturbative predictions, comparisons.

Commands share a parameter set assembled from an optional flat JSON config
file (keys f, n, gamma1, gamma2, epsilon, model) overridden by flags.  A
JSON output file embeds its own config, so it can be fed back through
--config to reproduce the run bit for bit.

Exit codes: 0 success, 2 validation, 3 capacity, 4 resonance, 5 numerical.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass

import click
import numpy as np

from .bands import BandReport, classify_block, extract_band, ground_state
from .basis import MomentumIndex, momentum_grid
from .eigensolve import eigh
from .errors import (
    BandOverlapError,
    CapacityError,
    NumericalError,
    QdnlsError,
    ResonanceError,
    ValidationError,
)
from .hamiltonian import ModelParams, full_matrix, momentum_spectra
from .perturbation import (
    band22_asymptotic,
    coeffs33,
    continuum42_bounds,
    pattern_energy,
    pt_band,
)

CSV_COLUMNS = ("l", "k", "index", "energy", "band", "weight")
MODEL_KEYS = ("f", "n", "gamma1", "gamma2", "epsilon", "model")

_EXIT_CODES = (
    (ValidationError, 2),
    (BandOverlapError, 2),
    (CapacityError, 3),
    (ResonanceError, 4),
    (NumericalError, 5),
)


@dataclass
class RunConfig:
    """Fully resolved parameters of one CLI invocation."""

    params: ModelParams
    pattern: tuple[int, ...] | None = None
    k_select: int | None = None  # None means every momentum
    threshold: float = 0.5
    out: str | None = None
    fmt: str = "csv"

    def payload(self) -> dict:
        data = dict(asdict(self.params))
        data["pattern"] = list(self.pattern) if self.pattern else None
        data["k"] = self.k_select if self.k_select is not None else "all"
        data["threshold"] = self.threshold
        return data


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"config {path} must hold a JSON object")
    allowed = set(MODEL_KEYS)
    if isinstance(raw.get("config"), dict):
        # a previous JSON output; reuse its embedded parameters
        raw = raw["config"]
        allowed |= {"pattern", "k", "threshold"}  # run settings stored alongside them
    unknown = set(raw) - allowed
    if unknown:
        raise ValidationError(
            f"config {path} has unknown keys {sorted(unknown)}; expected {sorted(allowed)}")
    return {key: raw[key] for key in MODEL_KEYS if key in raw}


def _resolve_params(config_path, f, n, gamma1, gamma2, epsilon, model) -> ModelParams:
    values: dict = {"gamma2": 0.0, "epsilon": 0.0, "model": "h2"}
    if config_path is not None:
        values.update(_load_config_file(config_path))
    for key, val in (("f", f), ("n", n), ("gamma1", gamma1), ("gamma2", gamma2),
                     ("epsilon", epsilon), ("model", model)):
        if val is not None:
            values[key] = val
    missing = [key for key in ("f", "n", "gamma1") if key not in values]
    if missing:
        raise ValidationError(f"missing required parameters {missing}; pass flags or --config")
    return ModelParams(**values)


def _parse_pattern(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"cannot parse pattern {text!r}; expected e.g. '2,2'") from exc
    return tuple(sorted(parts, reverse=True))


def _parse_k(text: str, f: int) -> int | None:
    if text == "all":
        return None
    try:
        l = int(text)
    except ValueError as exc:
        raise ValidationError(f"--k must be 'all' or a grid label, got {text!r}") from exc
    labels = {kidx.l for kidx in momentum_grid(f)}
    if l not in labels:
        raise ValidationError(f"momentum label {l} is not on the grid for f = {f}")
    return l


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_output(config: RunConfig, columns, rows, extras: dict | None = None) -> None:
    """Emit rows as CSV (with a params comment header) or JSON with the
    embedded config; only after the computation fully succeeded."""
    extras = extras or {}
    if config.fmt == "json":
        doc = {"config": config.payload(), "columns": list(columns),
               "rows": [list(r) for r in rows]}
        doc.update(extras)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"# params: {json.dumps(config.payload(), sort_keys=True)}"]
        for key, val in extras.items():
            lines.append(f"# {key}: {json.dumps(val, sort_keys=True)}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    if config.out is None:
        click.echo(text, nl=False)
    else:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _run(action) -> None:
    try:
        action()
    except QdnlsError as exc:
        for kind, code in _EXIT_CODES:
            if isinstance(exc, kind):
                click.echo(f"error: {exc}", err=True)
                sys.exit(code)
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


def _common(fn):
    options = [
        click.option("--config", "config_path", type=click.Path(), default=None,
                     help="JSON config with f, n, gamma1, gamma2, epsilon, model."),
        click.option("--f", type=int, default=None, help="Number of lattice sites."),
        click.option("--n", type=int, default=None, help="Total boson number."),
        click.option("--gamma1", type=float, default=None, help="Two-boson on-site coupling."),
        click.option("--gamma2", type=float, default=None, help="Three-boson on-site coupling."),
        click.option("--eps", "epsilon", type=float, default=None, help="Hopping strength."),
        click.option("--model", type=click.Choice(["h1", "h2"]), default=None),
        click.option("--out", type=click.Path(dir_okay=False), default=None,
                     help="Output path; stdout when omitted."),
        click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv"),
    ]
    for opt in reversed(options):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Exact and perturbative band spectra of bosons on a small ring."""


# ------------------------------------------------------------------- spectrum


def _spectrum_rows(params: ModelParams, threshold: float, k_select: int | None):
    grid = momentum_grid(params.f)
    if k_select is not None:
        grid = [kidx for kidx in grid if kidx.l == k_select]
    spectra = momentum_spectra(params, want_vectors=True, grid=grid)
    rows = []
    for ksp in spectra:
        labels = classify_block(ksp.spectrum.eigenvectors, ksp.basis, threshold)
        for idx, (energy, cls) in enumerate(zip(ksp.spectrum.eigenvalues, labels)):
            band = cls.pattern.label if cls.pattern is not None else "unclassified"
            rows.append((ksp.k.l, ksp.k.k, idx, float(energy), band, cls.weight))
    return rows


@main.command()
@_common
@click.option("--k", "k_text", default="all", show_default=True,
              help="Momentum grid label to restrict to, or 'all'.")
@click.option("--threshold", type=float, default=0.5, show_default=True,
              help="Classification weight threshold.")
def spectrum(config_path, f, n, gamma1, gamma2, epsilon, model, out, fmt,
             k_text, threshold):
    """Momentum-resolved exact spectrum with per-state pattern labels."""

    def action():
        params = _resolve_params(config_path, f, n, gamma1, gamma2, epsilon, model)
        config = RunConfig(params=params, k_select=_parse_k(k_text, params.f),
                           threshold=threshold, out=out, fmt=fmt)
        rows = _spectrum_rows(params, threshold, config.k_select)
        _write_output(config, CSV_COLUMNS, rows)

    _run(action)


# ----------------------------------------------------------------------- band


def _band_rows(report: BandReport):
    rows = []
    for p in sorted(report.points, key=lambda p: (p.l, p.energy)):
        rows.append((p.l, p.k, p.index, p.energy, p.tag, p.weight))
    return rows


def _band_extras(report: BandReport) -> dict:
    extras: dict = {
        "counts": {str(l): list(report.counts[l]) for l in sorted(report.counts)},
    }
    if report.overlap_notes:
        extras["overlap_warnings"] = list(report.overlap_notes)
    if report.pt_residuals is not None:
        finite = [v for v in report.pt_residuals.values() if v is not None]
        extras["pt_max_residual"] = max(finite) if finite else None
    return extras


@main.command()
@_common
@click.option("--pattern", "pattern_text", required=True,
              help="Occupation pattern, e.g. '2,2' or '4,2'.")
@click.option("--threshold", type=float, default=0.5, show_default=True)
def band(config_path, f, n, gamma1, gamma2, epsilon, model, out, fmt,
         pattern_text, threshold):
    """Extract one pattern band with line/continuum tags."""

    def action():
        params = _resolve_params(config_path, f, n, gamma1, gamma2, epsilon, model)
        pattern = _parse_pattern(pattern_text)
        config = RunConfig(params=params, pattern=pattern, threshold=threshold,
                           out=out, fmt=fmt)
        spectra = momentum_spectra(params, want_vectors=True)
        report = extract_band(params, pattern, threshold=threshold,
                              on_overlap="warn", spectra=spectra)
        gs = ground_state(spectra, threshold)
        in_band = any(p.l == gs.l and
                      abs(p.energy - gs.energy) <= 1e-12 * max(1.0, abs(gs.energy))
                      for p in report.points)
        extras = _band_extras(report)
        extras["global_ground"] = {"l": gs.l, "energy": gs.energy, "in_band": in_band}
        _write_output(config, CSV_COLUMNS, _band_rows(report), extras)

    _run(action)


# ------------------------------------------------------------------------- pt


def _asymptotics(params: ModelParams, pattern, k: MomentumIndex) -> dict:
    """f -> infinity formulas where they exist; None entries mean the line
    detaches from the continuum only for part of the zone."""
    if pattern == (2, 2):
        asym = band22_asymptotic(params, k.k)
        return {
            "asym_line": asym.line,
            "asym_cont_min": asym.continuum_lo,
            "asym_cont_max": asym.continuum_hi,
        }
    if pattern == (4, 2):
        lo, hi = continuum42_bounds(params)
        return {"asym_cont_min": lo, "asym_cont_max": hi}
    if pattern == (3, 3):
        c = coeffs33(params)
        offset = pattern_energy(pattern, params)
        return {
            "asym_line": offset + c.prefactor * (1.0 + c.impurity),
            "asym_cont": offset + c.prefactor,
        }
    return {}


@main.command()
@_common
@click.option("--pattern", "pattern_text", required=True,
              help="Pattern with a closed perturbative form: '2,2', '4,2' or '3,3'.")
@click.option("--k", "k_text", default="all", show_default=True)
def pt(config_path, f, n, gamma1, gamma2, epsilon, model, out, fmt,
       pattern_text, k_text):
    """Perturbative band energies and their asymptotic formulas."""

    def action():
        params = _resolve_params(config_path, f, n, gamma1, gamma2, epsilon, model)
        pattern = _parse_pattern(pattern_text)
        config = RunConfig(params=params, pattern=pattern,
                           k_select=_parse_k(k_text, params.f), out=out, fmt=fmt)
        grid = momentum_grid(params.f)
        if config.k_select is not None:
            grid = [kidx for kidx in grid if kidx.l == config.k_select]
        energies_at = pt_band(params, pattern, grid)
        extra_cols: list[str] = []
        rows = []
        for kidx in grid:
            asym = _asymptotics(params, pattern, kidx)
            if not extra_cols:
                extra_cols = list(asym)
            for idx, energy in enumerate(energies_at[kidx.l]):
                rows.append((kidx.l, kidx.k, idx, float(energy), "pt", 1.0)
                            + tuple(asym[c] for c in extra_cols))
        _write_output(config, CSV_COLUMNS + tuple(extra_cols), rows)

    _run(action)


# -------------------------------------------------------------------- compare


def _compare_once(params: ModelParams, pattern, threshold: float):
    spectra = momentum_spectra(params, want_vectors=True)
    report = extract_band(params, pattern, threshold=threshold,
                          on_overlap="warn", spectra=spectra)
    if report.pt_residuals is None:
        raise ValidationError(
            f"no perturbative reference for pattern {report.pattern} at f = {params.f}; "
            f"closed forms need an odd site count and one of 2,2 / 4,2 / 3,3")
    pt_of = pt_band(params, report.pattern)
    rows = []
    for l in sorted(report.counts):
        pts = sorted(report.points_at(l), key=lambda p: p.energy)
        reference = pt_of[l]
        for slot, p in enumerate(pts):
            pred = float(reference[slot]) if slot < len(reference) else None
            diff = abs(p.energy - pred) if pred is not None else None
            rows.append((p.l, p.k, p.index, p.energy, p.tag, p.weight, pred, diff))
    diffs = [r[7] for r in rows if r[7] is not None]
    stats = {"max_residual": max(diffs) if diffs else None,
             "mean_residual": sum(diffs) / len(diffs) if diffs else None}
    return rows, stats, report


@main.command()
@_common
@click.option("--pattern", "pattern_text", required=True)
@click.option("--threshold", type=float, default=0.5, show_default=True)
@click.option("--scaling", is_flag=True, default=False,
              help="Repeat at eps, eps/2, eps/4 and report residual decay.")
def compare(config_path, f, n, gamma1, gamma2, epsilon, model, out, fmt,
            pattern_text, threshold, scaling):
    """Exact band against the perturbative prediction, per momentum."""

    def action():
        params = _resolve_params(config_path, f, n, gamma1, gamma2, epsilon, model)
        pattern = _parse_pattern(pattern_text)
        config = RunConfig(params=params, pattern=pattern, threshold=threshold,
                           out=out, fmt=fmt)
        rows, stats, report = _compare_once(params, pattern, threshold)
        extras = _band_extras(report)
        extras.update(stats)
        if scaling:
            if params.epsilon <= 0:
                raise ValidationError("--scaling needs a positive epsilon")
            table = []
            for divisor in (1.0, 2.0, 4.0):
                eps_i = params.epsilon / divisor
                params_i = ModelParams(f=params.f, n=params.n, gamma1=params.gamma1,
                                       gamma2=params.gamma2, epsilon=eps_i,
                                       model=params.model)
                _, stats_i, _ = _compare_once(params_i, pattern, threshold)
                table.append({"epsilon": eps_i, "max_residual": stats_i["max_residual"]})
            for i in range(1, len(table)):
                prev, cur = table[i - 1]["max_residual"], table[i]["max_residual"]
                table[i]["decay_factor"] = (prev / cur) if cur else None
            extras["scaling"] = table
        _write_output(config, CSV_COLUMNS + ("pt", "absdiff"), rows, extras)

    _run(action)


# --------------------------------------------------------------------- oracle


@main.command()
@_common
def oracle(config_path, f, n, gamma1, gamma2, epsilon, model, out, fmt):
    """Dense full-sector eigenvalues, no translation symmetry; a brute-force
    cross-check for the momentum blocks."""

    def action():
        params = _resolve_params(config_path, f, n, gamma1, gamma2, epsilon, model)
        config = RunConfig(params=params, out=out, fmt=fmt)
        energies = eigh(full_matrix(params)).eigenvalues
        rows = [(None, None, idx, float(e), "oracle", None)
                for idx, e in enumerate(np.sort(energies))]
        _write_output(config, CSV_COLUMNS, rows)

    _run(action)


if __name__ == "__main__":
    main()
