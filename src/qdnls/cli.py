"""Command-line driver: spectra, bands, perturbative predictions, comparisons.

Every command runs through one path, `_command`: it attaches the shared
model options, resolves `ModelParams` from an optional flat JSON config file
(keys f, n, gamma1, gamma2, epsilon, model) overridden by flags, parses the
run settings (pattern, momentum, threshold), calls the command body, which
only computes `(columns, rows, extras)`, and writes them as CSV or JSON.  A
failure raises a `QdnlsError` that the same path turns into its exit code,
before anything is written.

A JSON output file embeds its own config and run settings, so it can be fed
back through --config to reproduce the run bit for bit: its stored k and
threshold apply wherever those flags are left at their defaults.

`spectrum`, `band` and `compare` solve and label the momentum blocks through
`bands.labelled_spectra`, each +-k pair once; `band` and `compare` form only
the eigenvectors that may belong to their pattern, and report a band
overlap once, in the output's `overlap_warnings`.  The commands hold no
model rule of their own: `pt` takes its energies from `perturbation.pt_band`
and its `asym_*` columns from `perturbation.pt_asymptotics`, the closed-form
list in its help and in `compare`'s error is the keys of
`perturbation.PT_BUILDERS`, eigenvalues come in `eigh`'s ascending order
(`oracle`'s certified by the trace and the Frobenius norm) and `hamiltonian`
checks the dense cap.

Exit codes: 0 success, 2 validation, 3 capacity, 4 resonance, 5 numerical.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, replace

import click
from click.core import ParameterSource

from .bands import extract_band, ground_state, labelled_spectra
from .basis import MomentumIndex, momentum_grid, normalize_pattern, sector_pattern
from .eigensolve import eigh
from .errors import CapacityError, NumericalError, QdnlsError, ResonanceError, ValidationError
from .hamiltonian import ModelParams, full_matrix
from .perturbation import _closed_forms, pt_asymptotics, pt_band

CSV_COLUMNS = ("l", "k", "index", "energy", "band", "weight")
MODEL_KEYS = ("f", "n", "gamma1", "gamma2", "epsilon", "model")

# every other QdnlsError (validation, band overlap) exits with 2
_EXIT_CODES = {CapacityError: 3, ResonanceError: 4, NumericalError: 5}


def _load_config_file(path: str) -> dict:
    """Model parameters of a flat config, or the parameters and run settings
    (k as text, threshold) embedded in a previous JSON output."""
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
    config = {key: raw[key] for key in MODEL_KEYS if key in raw}
    if "k" in raw:
        config["k"] = str(raw["k"])
    if "threshold" in raw:
        threshold = raw["threshold"]
        if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
            raise ValidationError(f"config {path} has a non-numeric threshold {threshold!r}")
        config["threshold"] = float(threshold)
    return config


def _parse_pattern(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"cannot parse pattern {text!r}; expected e.g. '2,2'") from exc
    return normalize_pattern(parts)


def _momenta(text: str, f: int) -> list[MomentumIndex]:
    """The momentum grid, or its one point labelled `text` unless that is 'all'."""
    grid = momentum_grid(f)
    if text == "all":
        return grid
    try:
        l = int(text)
    except ValueError as exc:
        raise ValidationError(f"--k must be 'all' or a grid label, got {text!r}") from exc
    grid = [kidx for kidx in grid if kidx.l == l]
    if not grid:
        raise ValidationError(f"momentum label {l} is not on the grid for f = {f}")
    return grid


def _resolve(config_path: str | None, options: dict) -> tuple[ModelParams, dict, dict]:
    """Model parameters, the body's keyword arguments and the run settings
    stored with the output.  Flags override the config file; a previous JSON
    output also restores k and threshold where those flags kept their defaults."""
    config = _load_config_file(config_path) if config_path is not None else {}
    values: dict = {"gamma2": 0.0, "epsilon": 0.0, "model": "h2"}
    for key in MODEL_KEYS:
        flag = options.pop(key)
        if flag is not None:
            values[key] = flag
        elif key in config:
            values[key] = config[key]
    missing = [key for key in ("f", "n", "gamma1") if key not in values]
    if missing:
        raise ValidationError(f"missing required parameters {missing}; pass flags or --config")
    params = ModelParams(**values)

    ctx = click.get_current_context()
    for key in ("k", "threshold"):
        if (key in options and key in config
                and ctx.get_parameter_source(key) is ParameterSource.DEFAULT):
            options[key] = config[key]
    settings = {"pattern": None, "k": "all", "threshold": options.get("threshold", 0.5)}
    if "pattern" in options:
        options["pattern"] = _parse_pattern(options["pattern"])
        settings["pattern"] = list(options["pattern"])
    if "k" in options:
        text = options.pop("k")
        options["grid"] = _momenta(text, params.f)
        if text != "all":
            settings["k"] = options["grid"][0].l
    return params, options, settings


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_output(settings: dict, out: str | None, fmt: str, columns, rows,
                  extras: dict) -> None:
    """Emit rows as CSV (with a params comment header) or JSON with the
    embedded config; only after the computation fully succeeded."""
    if fmt == "json":
        doc = {"config": settings, "columns": list(columns),
               "rows": [list(r) for r in rows]}
        doc.update(extras)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"# params: {json.dumps(settings, sort_keys=True)}"]
        for key, val in extras.items():
            lines.append(f"# {key}: {json.dumps(val, sort_keys=True)}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    if out is None:
        # click caches its default stdout in a WeakKeyDictionary that maps a
        # redirected stream to itself, which keeps every in-process output alive
        click.echo(text, nl=False, file=sys.stdout)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


MODEL_OPTIONS = (
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
)
PATTERN = click.option("--pattern", required=True,
                       help="Occupation pattern, e.g. '2,2' or '4,2'.")
MOMENTUM = click.option("--k", default="all", show_default=True,
                        help="Momentum grid label to restrict to, or 'all'.")
THRESHOLD = click.option("--threshold", type=float, default=0.5, show_default=True,
                         help="Classification weight threshold.")


@click.group()
def main():
    """Exact and perturbative band spectra of bosons on a small ring."""


def _command(*options):
    """Register `body(params, **settings) -> (columns, rows, extras)` as the
    subcommand named after it, with the model options plus `options`."""

    def register(body):
        def run(config_path, out, fmt, **values):
            try:
                params, kwargs, settings = _resolve(config_path, values)
                columns, rows, extras = body(params, **kwargs)
                _write_output(asdict(params) | settings, out, fmt, columns, rows, extras)
            except QdnlsError as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(_EXIT_CODES.get(type(exc), 2))

        run.__doc__ = body.__doc__
        for option in reversed(MODEL_OPTIONS + options):
            run = option(run)
        return main.command(name=body.__name__)(run)

    return register


# ------------------------------------------------------------------- spectrum


@_command(MOMENTUM, THRESHOLD)
def spectrum(params: ModelParams, grid, threshold: float):
    """Momentum-resolved exact spectrum with per-state pattern labels."""
    rows = []
    for ksp in labelled_spectra(params, threshold, grid):
        # pattern id -1 (unclassified) picks the last name
        names = ["+".join(map(str, p)) for p in ksp.basis.sector.patterns] + ["unclassified"]
        rows += [(ksp.basis.k.l, ksp.basis.k.k, idx, energy, names[pid], weight)
                 for idx, (energy, pid, weight) in enumerate(zip(
                     ksp.eigenvalues.tolist(), ksp.pattern_ids.tolist(), ksp.weights.tolist()))]
    return CSV_COLUMNS, rows, {}


# ----------------------------------------------------------------------- band


def _solved_band(params: ModelParams, pattern, threshold: float):
    """Solve every momentum and extract the band of `pattern`, with its
    per-momentum counts, overlap notes and worst perturbative residual."""
    spectra = labelled_spectra(params, threshold, pattern=pattern)
    report = extract_band(params, pattern, spectra)
    extras: dict = {
        "counts": {str(l): list(report.counts[l]) for l in sorted(report.counts)},
    }
    if report.overlap_notes:
        extras["overlap_warnings"] = list(report.overlap_notes)
    if report.pt_residuals is not None:
        finite = [v for v in report.pt_residuals.values() if v is not None]
        extras["pt_max_residual"] = max(finite) if finite else None
    return spectra, report, extras


@_command(PATTERN, THRESHOLD)
def band(params: ModelParams, pattern, threshold: float):
    """Extract one pattern band with line/continuum tags."""
    spectra, report, extras = _solved_band(params, pattern, threshold)
    gs = ground_state(spectra)
    in_band = any(p.l == gs.l and abs(p.energy - gs.energy) <= 1e-12 * max(1.0, abs(gs.energy))
                  for p in report.points)
    extras["global_ground"] = {"l": gs.l, "energy": gs.energy, "in_band": in_band}
    rows = [(p.l, p.k, p.index, p.energy, p.tag, p.weight) for p in report.points]
    return CSV_COLUMNS, rows, extras


# ------------------------------------------------------------------------- pt


@_command(PATTERN, MOMENTUM)
def pt(params: ModelParams, pattern, grid):
    """Perturbative band energies and their asymptotic formulas."""
    energies_at = pt_band(params, pattern, grid)
    rows = []
    for kidx in grid:
        asym = pt_asymptotics(params, pattern, kidx)
        rows += [(kidx.l, kidx.k, idx, float(energy), "pt", 1.0, *asym.values())
                 for idx, energy in enumerate(energies_at[kidx.l])]
    return CSV_COLUMNS + tuple(asym), rows, {}


pt.help += f"\n\nClosed forms exist for the patterns {_closed_forms()}."


# -------------------------------------------------------------------- compare


def _compare_once(params: ModelParams, pattern, threshold: float):
    """Exact band rows beside their paired perturbative energies at one
    epsilon, with the band extras and the residual statistics."""
    _, report, extras = _solved_band(params, pattern, threshold)
    rows = [(p.l, p.k, p.index, p.energy, p.tag, p.weight, p.pt,
             abs(p.energy - p.pt) if p.pt is not None else None) for p in report.points]
    diffs = [r[7] for r in rows if r[7] is not None]
    extras["max_residual"] = max(diffs) if diffs else None
    extras["mean_residual"] = sum(diffs) / len(diffs) if diffs else None
    return rows, extras


@_command(PATTERN, THRESHOLD,
          click.option("--scaling", is_flag=True, default=False,
                       help="Repeat at eps, eps/2, eps/4 and report residual decay."))
def compare(params: ModelParams, pattern, threshold: float, scaling: bool):
    """Exact band against the perturbative prediction, per momentum."""
    pattern = sector_pattern(params.f, params.n, pattern)
    if scaling and params.epsilon <= 0:
        raise ValidationError("--scaling needs a positive epsilon")
    try:  # parity and resonances do not depend on epsilon: checked once
        pt_band(params, pattern)
    except ValidationError:
        raise ValidationError(
            f"no perturbative reference for pattern {pattern} at f = {params.f}; "
            f"closed forms need an odd site count and one of {_closed_forms()}") from None
    rows, extras = _compare_once(params, pattern, threshold)
    if scaling:
        table = [{"epsilon": params.epsilon, "max_residual": extras["max_residual"]}]
        for divisor in (2.0, 4.0):
            eps_i = params.epsilon / divisor
            _, extras_i = _compare_once(replace(params, epsilon=eps_i), pattern, threshold)
            prev, cur = table[-1]["max_residual"], extras_i["max_residual"]
            table.append({"epsilon": eps_i, "max_residual": cur,
                          "decay_factor": prev / cur if prev is not None and cur else None})
        extras["scaling"] = table
    return CSV_COLUMNS + ("pt", "absdiff"), rows, extras


# --------------------------------------------------------------------- oracle


@_command()
def oracle(params: ModelParams):
    """Dense full-sector eigenvalues, no translation symmetry; a brute-force
    cross-check for the momentum blocks."""
    energies = eigh(full_matrix(params)).eigenvalues
    rows = [(None, None, idx, float(e), "oracle", None) for idx, e in enumerate(energies)]
    return CSV_COLUMNS, rows, {}


if __name__ == "__main__":
    main()
