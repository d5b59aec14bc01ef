"""Acceptance gate: one test per shipped claim, each printing PASS or FAIL.

Each criterion runs at its stated tolerance; calibration bounds frozen
during the build are tightened on top where noted.  The summary block at
the end of the pytest run lists every line via conftest.
"""

import math
import time

import numpy as np

from qdnls import (
    ModelParams,
    SectorOrbits,
    assemble_block,
    bw_second_order_block,
    eigh,
    extract_band,
    full_matrix,
    ground_state,
    h22_matrix,
    h33_matrix,
    h42_matrix,
    labelled_spectra,
    mass_ratio_report,
    momentum_grid,
    momentum_spectra,
)
from qdnls.basis import pattern_of
from qdnls.hamiltonian import diagonal_energy
from qdnls.perturbation import coeffs33, pt_asymptotics

from conftest import points_at

RESULTS: list[str] = []

PAIR_PARAMS = dict(f=19, n=4, gamma1=10.0, gamma2=0.0, epsilon=0.5)
HEAVY_PARAMS = dict(f=11, n=6, gamma1=30.0, gamma2=0.0, epsilon=0.5)
TRIPLET_PARAMS = dict(f=11, n=6, gamma1=10.0, gamma2=20.0, epsilon=0.5)


def record(num: int, label: str, parts: dict[str, bool]) -> None:
    bad = [name for name, good in parts.items() if not good]
    line = f"ACCEPTANCE {num} ({label}): " + ("PASS" if not bad else f"FAIL {bad}")
    RESULTS.append(line)
    print(line)
    assert not bad, f"criterion {num} failed: {bad}"


def line_and_continuum(report, l):
    points = points_at(report, l)
    lines = [p for p in points if p.tag == "line"]
    cont = sorted(p.energy for p in points if p.tag == "continuum")
    return lines, cont


def test_criterion_1_pair_band_vs_asymptotic_forms():
    started = time.perf_counter()
    params = ModelParams(**PAIR_PARAMS)
    report = extract_band(params, (2, 2), spectra=labelled_spectra(params))
    nine = all(c == (9, 9) for c in report.counts.values())
    one_line = True
    line_diff = 0.0
    contained = True
    tol = 5e-3
    for l in report.counts:
        lines, cont = line_and_continuum(report, l)
        one_line &= len(lines) == 1
        asym = pt_asymptotics(params, (2, 2), 2.0 * math.pi * l / params.f)
        line_diff = max(line_diff, abs(lines[0].energy - asym["asym_line"]))
        contained &= all(asym["asym_cont_min"] - tol <= e <= asym["asym_cont_max"] + tol
                         for e in cont)
    elapsed = time.perf_counter() - started
    record(1, "pair band line and continuum vs asymptotic forms", {
        "nine states per momentum": nine,
        "exactly one line state per momentum": one_line,
        f"line within stated 5e-3 (got {line_diff:.3e})": line_diff <= tol,
        "line within frozen calibration 1.085e-3": line_diff <= 1.085e-3,
        "continuum inside widened asymptotic interval": contained,
        f"runtime {elapsed:.1f}s under 60s": elapsed < 60.0,
    })


def test_criterion_2_pair_band_ground_state():
    params = ModelParams(f=19, n=4, gamma1=10.0, gamma2=7.5, epsilon=0.5)
    spectra = labelled_spectra(params)
    gs = ground_state(spectra)
    report = extract_band(params, (2, 2), spectra=spectra)
    lines, _ = line_and_continuum(report, gs.l)
    on_line = (len(lines) == 1
               and abs(lines[0].energy - gs.energy) <= 1e-9 * abs(gs.energy))
    asym = pt_asymptotics(params, (2, 2), 0.0)["asym_line"]
    literal = -40.0 - 0.05 * (2.0 + 1.4 + 1.0 / 1.4)
    record(2, "pair-band ground state with the three-body term", {
        "pair band complete at every momentum": not report.overlap_notes,
        "ground state classified into the pair band": gs.pattern == (2, 2),
        "ground state is the line state of its momentum": on_line,
        "coupling regime gamma1 < 3*gamma2": params.gamma1 < 3.0 * params.gamma2,
        "asymptotic line equals its arithmetic form to 1e-12":
            abs(asym - literal) <= 1e-12,
        f"asymptotic line within 5e-3 of exact (got {abs(asym - gs.energy):.3e})":
            abs(asym - gs.energy) <= 5e-3,
    })


def test_criterion_3_heavy_pair_band_flatness():
    started = time.perf_counter()
    params = ModelParams(**HEAVY_PARAMS)
    report = extract_band(params, (4, 2), spectra=labelled_spectra(params))
    ten = all(c == (10, 10) for c in report.counts.values())
    two_lines = True
    contained = True
    tol = 5e-3
    lo, hi = pt_asymptotics(params, (4, 2), 0.0).values()
    per_index: list[list[float]] = []
    for l in sorted(report.counts):
        lines, cont = line_and_continuum(report, l)
        two_lines &= (len(lines) == 2
                      and min(p.energy for p in lines) < cont[0]
                      and max(p.energy for p in lines) > cont[-1])
        contained &= all(lo - tol <= e <= hi + tol for e in cont)
        per_index.append(cont)
    widths = np.asarray(per_index)
    spread = float((widths.max(axis=0) - widths.min(axis=0)).max())
    bound = 10.0 * params.epsilon ** 3 / params.gamma1 ** 2
    elapsed = time.perf_counter() - started
    record(3, "heavy-light pair band with two lines", {
        "ten states per momentum": ten,
        "two line states, one above and one below the continuum": two_lines,
        "continuum inside widened asymptotic interval": contained,
        f"continuum k-spread {spread:.3e} within cubic bound {bound:.3e}":
            spread <= bound,
        f"runtime {elapsed:.1f}s under 120s": elapsed < 120.0,
    })


def test_criterion_4_triplet_flat_band():
    params = ModelParams(**TRIPLET_PARAMS)
    report = extract_band(params, (3, 3), spectra=labelled_spectra(params))
    c = coeffs33(params)
    offset = diagonal_energy((3, 3), params)
    line_ref = offset + c.prefactor * (1.0 + c.impurity)
    cont_ref = offset + c.prefactor
    tol = 5e-3
    line_ok = True
    cont_ok = True
    split_ok = True
    bound = 10.0 * params.epsilon ** 3 / params.gamma1 ** 2
    for l in report.counts:
        lines, cont = line_and_continuum(report, l)
        line_ok &= len(lines) == 1 and abs(lines[0].energy - line_ref) <= tol
        cont_ok &= all(abs(e - cont_ref) <= tol for e in cont)
        split = cont[-1] - cont[0]
        split_ok &= 0.0 < split <= bound
    record(4, "triplet pair flat band with one impurity line", {
        "band complete at every momentum": not report.overlap_notes,
        "one line state near its arithmetic value": line_ok,
        "continuum states near the uniform shift": cont_ok,
        f"continuum splitting nonzero and within cubic bound {bound:.3e}": split_ok,
    })


def test_criterion_5_dense_oracle_equals_momentum_blocks():
    rng = np.random.default_rng(20260822)
    value_ok = True
    trace_ok = True
    for f, n in ((4, 3), (5, 3), (5, 4), (6, 3)):
        for _ in range(3):
            params = ModelParams(f=f, n=n,
                                 gamma1=float(rng.uniform(0.5, 20.0)),
                                 gamma2=float(rng.uniform(0.0, 5.0)),
                                 epsilon=float(rng.uniform(0.05, 1.0)))
            dense = np.sort(eigh(full_matrix(params), want_vectors=False).eigenvalues)
            blocks = momentum_spectra(params)
            union = np.sort(np.concatenate([spectrum.eigenvalues for _, spectrum in blocks]))
            value_ok &= union.shape == dense.shape
            value_ok &= float(np.abs(union - dense).max()) <= 1e-9
            t_dense = float(np.trace(full_matrix(params)))
            t_blocks = float(sum(np.trace(assemble_block(params, basis.k)[1]).real
                                 for basis, _ in blocks))
            trace_ok &= abs(t_blocks - t_dense) <= 1e-10 * max(1.0, abs(t_dense))
    record(5, "dense oracle equals the momentum-block union", {
        "eigenvalue multisets agree to 1e-9": value_ok,
        "trace sums agree to 1e-10 relative": trace_ok,
    })


def test_criterion_6_closed_forms_equal_numeric_reference():
    param_sets = ((10.0, 0.0, 0.5), (30.0, 4.0, 0.5), (12.0, 1.0, 0.25))
    cases = (((2, 2), 4, h22_matrix), ((4, 2), 6, h42_matrix), ((3, 3), 6, h33_matrix))
    sectors = {n: SectorOrbits(11, n) for n in (4, 6)}
    worst = 0.0
    for pattern, n, build in cases:
        sector = sectors[n]
        classes = [orb for orb in sector.orbits if pattern_of(orb.rep) == pattern]
        for g1, g2, eps in param_sets:
            params = ModelParams(f=11, n=n, gamma1=g1, gamma2=g2, epsilon=eps)
            for k in momentum_grid(11):
                bw = bw_second_order_block(params, k, classes, sector)
                worst = max(worst, float(np.abs(bw - build(params, k)).max()))
    record(6, "closed forms equal the numeric second-order reference", {
        f"entrywise agreement to 1e-10 (got {worst:.3e})": worst <= 1e-10,
    })


def test_criterion_7_residual_decay_under_hopping_halving():
    residuals = []
    complete = True
    for eps in (0.5, 0.25, 0.125):
        params = ModelParams(f=19, n=4, gamma1=10.0, gamma2=0.0, epsilon=eps)
        report = extract_band(params, (2, 2), spectra=labelled_spectra(params))
        complete &= not report.overlap_notes
        residuals.append(max(v for v in report.pt_residuals.values() if v is not None))
    factors = [residuals[i - 1] / residuals[i] for i in range(1, len(residuals))]
    record(7, "perturbative residual decay under hopping halving", {
        "pair band complete at every epsilon": complete,
        f"decay factors {['%.2f' % x for x in factors]} within [6, 40]":
            all(6.0 <= x <= 40.0 for x in factors),
    })


def test_criterion_8_effective_mass_ratio():
    report = mass_ratio_report(19, 10.0, gamma2=0.0, epsilon=0.1)
    record(8, "effective masses of the single pair and the bound pair", {
        f"single-pair mass {report.m2_star:.1f} within 10% of 500":
            abs(report.m2_star - 500.0) <= 50.0,
        f"mass ratio {report.ratio:.4f} within 10% of -4":
            abs(report.ratio - (-4.0)) <= 0.4,
    })


def test_criterion_9_eigensolver_contract():
    rng = np.random.default_rng(9)
    residual_ok = True
    ortho_ok = True
    trace_ok = True
    for _ in range(100):
        dim = int(rng.integers(2, 201))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (a + a.conj().T) / 2.0
        result = eigh(h, want_vectors=True)
        w, v = result.eigenvalues, result.eigenvectors
        fro = float(np.linalg.norm(h))
        residual_ok &= float(np.abs(h @ v - v * w).max()) <= 1e-10 * fro
        ortho_ok &= float(np.abs(v.conj().T @ v - np.eye(dim)).max()) <= 1e-10
        trace_ok &= (abs(float(w.sum()) - float(np.trace(h).real))
                     <= 1e-10 * max(1.0, abs(float(np.trace(h).real))))
    record(9, "eigensolver residual, orthonormality and trace contract", {
        "residuals within 1e-10 of the Frobenius scale": residual_ok,
        "eigenvector orthonormality within 1e-10": ortho_ok,
        "trace identity within 1e-10 relative": trace_ok,
    })
