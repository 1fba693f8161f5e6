"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Criteria 1 and 6 contain clauses the implemented equations cannot
satisfy (analysis in the README's "known deviations" section); those tests
assert the criteria as stated and fail honestly with the measured values.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deformed_lindblad as dl

GOLDEN = Path(__file__).parent / "golden" / "purity_golden.json"


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {criterion}: {detail}")
    return ok


@pytest.fixture(scope="module")
def morse():
    params = dl.MorseParams(15)
    model = dl.morse_model(params)
    return params, model, dl.eta_values(params)


@pytest.fixture(scope="module")
def initial_states(morse):
    params, model, _ = morse
    cap = (math.pi / 2 - 1e-9) / params.chi
    alpha_a = dl.alpha_for_mean_n(2.0, dl.aocs, model)
    alpha_d = dl.alpha_for_mean_n(
        2.0, lambda a, m: dl.docs_from_alpha(a, params), model, alpha_max=cap
    )
    alpha_c = dl.alpha_for_mean_n(2.0, dl.even_cat, model)
    return {
        "aocs": dl.to_density(dl.aocs(alpha_a, model)),
        "docs": dl.to_density(dl.docs_from_alpha(alpha_d, params)),
        "even_cat": dl.to_density(dl.even_cat(alpha_c, model)),
    }


@pytest.fixture(scope="module")
def docs_scenario_defaults():
    # full default docs scenario: grids on the default window
    return dl.run_scenario(dl.parse_config("scenario = docs"))


def test_criterion_1_trace_hermiticity_positivity(morse, initial_states):
    """Criterion 1: invariant suite at gamma_scale = 0.1 over t <= 4."""
    params, model, etas = morse
    rates = dl.rate_table(model, dl.ReservoirParams(theta=4.0, gamma_scale=0.1))
    samples = [0.0, 0.2, 1.0, 2.0, 2.5, 4.0]
    worst = {"trace": 0.0, "herm": 0.0, "eig": 1.0}
    for name, rho0 in initial_states.items():
        result = dl.integrate(rho0, model, rates, etas, 4.0, 1e-3, samples)
        worst["trace"] = max(worst["trace"], result.diagnostics["max_trace_error"])
        worst["herm"] = max(worst["herm"], result.diagnostics["max_hermiticity_error"])
        worst["eig"] = min(worst["eig"], result.diagnostics["min_eigenvalue"])
    trace_ok = worst["trace"] < 1e-9
    herm_ok = worst["herm"] < 1e-10
    eig_ok = worst["eig"] >= -1e-8
    ok = trace_ok and herm_ok and eig_ok
    report(
        1,
        ok,
        f"trace drift {worst['trace']:.2e} (<1e-9: {trace_ok}), "
        f"hermiticity {worst['herm']:.2e} (<1e-10: {herm_ok}), "
        f"min eigenvalue {worst['eig']:.2e} (>=-1e-8: {eig_ok})",
    )
    if not ok:
        pytest.fail(
            f"positivity clause unattainable: the generator is not completely "
            f"positive (arithmetic-mean gain rates), producing intrinsic "
            f"transient negativity; measured min eigenvalue {worst['eig']:.3e} "
            f"against the stated floor -1e-8.  Trace ({worst['trace']:.2e}) and "
            f"Hermiticity ({worst['herm']:.2e}) clauses hold."
        )


def test_criterion_2_harmonic_limit_oracle():
    """Criterion 2: <n>(t) against the analytic relaxation law, 1e-4 relative."""
    model = dl.OscillatorModel(30, dl.harmonic_deformation())
    reservoir = dl.ReservoirParams(theta=4.0, gamma_scale=0.1)
    rates = dl.rate_table(model, reservoir)
    rho0 = dl.to_density(dl.aocs(math.sqrt(2.0), model))
    n0 = dl.mean_occupation(rho0)
    nbar = 1.0 / math.expm1(reservoir.theta)
    times = [0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 40.0]
    result = dl.integrate(rho0, model, rates, np.ones(30), 40.0, 1e-3, times)
    worst = 0.0
    for t, rho in zip(times, result.states, strict=True):
        want = nbar + (n0 - nbar) * math.exp(-0.1 * t)
        worst = max(worst, abs(dl.mean_occupation(rho) - want) / want)
    ok = report(2, worst < 1e-4, f"max relative deviation {worst:.2e} (tol 1e-4)")
    assert ok


def test_criterion_3_detailed_balance(morse):
    """Criterion 3: stationary rung ratios match the Boltzmann factors."""
    params, model, etas = morse
    rates = dl.rate_table(model, dl.ReservoirParams(theta=4.0))
    stationary = dl.steady_state(model, rates, etas)
    populations = np.diag(stationary).real
    gaps = dl.gap_frequencies(model)
    ratio_err = float(
        np.max(np.abs(populations[1:] / populations[:-1] - np.exp(-4.0 * gaps[:-1])))
    )
    off_diag = float(np.max(np.abs(stationary - np.diag(populations))))
    ok = report(
        3,
        ratio_err < 1e-6 and off_diag < 1e-10,
        f"worst rung ratio error {ratio_err:.2e} (tol 1e-6), "
        f"off-diagonal {off_diag:.2e} (tol 1e-10)",
    )
    assert ok


def test_criterion_4_wigner_oracle_equivalence(morse, initial_states, fock_state):
    """Criterion 4: closed form vs direct integral, 1e-6 relative, 41x41."""
    params, model, _ = morse
    grid = dl.GridSpec(n_r=41, n_p=41)
    states = {
        "|0>": fock_state(0),
        "|3>": fock_state(3),
        "aocs": initial_states["aocs"],
        "docs": initial_states["docs"],
        "even_cat": initial_states["even_cat"],
    }
    worst_name, worst = "", 0.0
    for name, rho in states.items():
        closed = dl.wigner_closed(rho, params, grid)
        direct = dl.wigner_direct_oracle(rho, params, grid, rtol=1e-9)
        rel = float(
            np.max(np.abs(closed.values - direct.values))
            / np.max(np.abs(direct.values))
        )
        if rel > worst:
            worst_name, worst = name, rel
    ok = report(
        4, worst < 1e-6, f"worst state {worst_name}: {worst:.2e} (tol 1e-6)"
    )
    assert ok


def test_criterion_5_purity_consistency(morse, docs_scenario_defaults):
    """Criterion 5: |2 pi hbar int W^2 - Tr rho^2| < 1e-2 per docs snapshot.

    Evaluated on a window wide enough to hold the state: the default
    momentum window clips a transient few percent of the mass mid-relaxation,
    which would test the window rather than the purity identity.
    """
    params, _, _ = morse
    wide = dl.GridSpec(r_min=-2.0, r_max=12.0, n_r=141, p_min=-16.0, p_max=16.0, n_p=161)
    worst = 0.0
    for snapshot, rho in zip(
        docs_scenario_defaults.grids, docs_scenario_defaults.states
    ):
        grid = dl.wigner_closed(rho, params, wide, time=snapshot.time)
        diag = dl.wigner_diagnostics(grid, rho)
        worst = max(worst, abs(diag.purity_w - diag.purity_m))
    ok = report(5, worst < 1e-2, f"worst |purity_w - purity_m| {worst:.2e} (tol 1e-2)")
    assert ok


def test_criterion_6_docs_scenario_qualitative(morse, docs_scenario_defaults):
    """Criterion 6: W stays positive (to -1 percent) and <n> decays monotonely."""
    params, model, etas = morse
    result = docs_scenario_defaults

    means = [float(np.dot(np.arange(15), np.diag(rho).real)) for rho in result.states]
    rates = dl.rate_table(model, dl.ReservoirParams(theta=4.0))
    stationary = dl.steady_state(model, rates, etas)
    steady_mean = dl.mean_occupation(stationary)
    monotone = all(a > b for a, b in zip(means, means[1:])) and all(
        m > steady_mean - 1e-9 for m in means
    )

    ratios = {}
    for grid in result.grids:
        if grid.time in (1.0, 2.0, 4.0):
            peak = float(np.max(grid.values))
            ratios[grid.time] = float(np.min(grid.values)) / peak
    positive_ok = all(r >= -0.01 for r in ratios.values())

    detail = (
        "min_w/max_w "
        + ", ".join(f"t={t:g}: {r:+.2e}" for t, r in sorted(ratios.items()))
        + f" (floor -1e-2); <n> {['%.3f' % m for m in means]} -> steady "
        f"{steady_mean:.3f}, monotone: {monotone}"
    )
    ok = report(6, positive_ok and monotone, detail)
    if not ok:
        pytest.fail(
            "clause (i) unattainable at early times: the anharmonic shear of "
            "the displaced state produces interference fringes near -4 percent "
            "of the peak at t = 1..2 for every plausible damping strength "
            "(they fade by t = 4, which passes); clause (ii) monotone energy "
            f"decay holds.  Measured: {detail}"
        )


def test_criterion_7_purity_thresholds(morse, initial_states):
    """Criterion 7: singles stay coherent, the cat does not."""
    params, model, etas = morse
    rates = dl.rate_table(model, dl.ReservoirParams(theta=4.0))
    golden = json.loads(GOLDEN.read_text())
    samples = golden["t_samples"]

    purities = {}
    for name, rho0 in initial_states.items():
        ev = dl.integrate(rho0, model, rates, etas, samples[-1], 1e-3, samples)
        purities[name] = [dl.purity(s) for s in ev.states]

    singles_ok = all(
        value > 0.85
        for name in ("aocs", "docs")
        for value in purities[name]
    )
    cat_below_single = all(
        purities["even_cat"][i] < purities["aocs"][i]
        for i in range(1, len(samples))
    )
    cat_below_07_by_1 = purities["even_cat"][samples.index(1.0)] < 0.7
    golden_ok = all(
        abs(purities[name][i] - golden["purity"][name][i]) < 1e-6
        for name in purities
        for i in range(len(samples))
    )
    ok = report(
        7,
        singles_ok and cat_below_single and cat_below_07_by_1 and golden_ok,
        f"aocs {['%.4f' % v for v in purities['aocs']]}, "
        f"docs {['%.4f' % v for v in purities['docs']]}, "
        f"cat {['%.4f' % v for v in purities['even_cat']]} "
        f"(singles>0.85: {singles_ok}, cat<single: {cat_below_single}, "
        f"cat<0.7 by t=1: {cat_below_07_by_1}, matches golden: {golden_ok})",
    )
    assert ok


def test_criterion_8_bessel_spot_checks():
    """Criterion 8: special-function values and symmetries."""
    value = dl.bessel_k_complex_order(0.5, 1.0)
    exact = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
    spot_ok = abs(value - exact) < 1e-8

    rng = np.random.default_rng(2024)
    sym_worst = conj_worst = 0.0
    for _ in range(20):
        nu = complex(rng.uniform(-20.0, 20.0), rng.uniform(-15.0, 15.0))
        x = float(np.exp(rng.uniform(np.log(0.01), np.log(50.0))))
        k = dl.bessel_k_complex_order(nu, x)
        scale = max(abs(k), 1e-300)
        sym_worst = max(
            sym_worst, abs(k - dl.bessel_k_complex_order(-nu, x)) / scale
        )
        conj_worst = max(
            conj_worst,
            abs(np.conj(k) - dl.bessel_k_complex_order(np.conj(nu), x)) / scale,
        )
    ok = report(
        8,
        spot_ok and sym_worst < 1e-10 and conj_worst < 1e-10,
        f"K_1/2(1) error {abs(value - exact):.2e} (tol 1e-8), "
        f"evenness {sym_worst:.2e}, conjugation {conj_worst:.2e} (tol 1e-10)",
    )
    assert ok


def test_criterion_9_determinism(tmp_path):
    """Criterion 9: byte-identical outputs across runs and thread counts."""
    config_text = (
        "scenario = docs\nt_samples = 0, 1\ndt = 1e-3\n"
        "n_r = 61\np_min = -6\np_max = 6\nn_p = 61\n"
    )
    config_path = tmp_path / "det.cfg"
    config_path.write_text(config_text)
    out_dir = tmp_path / "out"   # identical config including the output path

    digests = []
    for threads in ("1", "4", "1"):
        env = dict(os.environ)
        for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[key] = threads
        code = subprocess.run(
            [
                sys.executable,
                "-m",
                "deformed_lindblad.cli",
                "run",
                "--config",
                str(config_path),
                "--output-dir",
                str(out_dir),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert code.returncode == 0, code.stderr
        blob = b"".join(
            (out_dir / name).read_bytes()
            for name in ("series.csv", "wigner_t0.csv", "wigner_t1.csv", "metadata.txt")
        )
        digests.append(blob)
    identical = digests[0] == digests[1] == digests[2]
    ok = report(
        9,
        identical,
        f"three runs (threads 1/4/1) produced "
        f"{'identical' if identical else 'DIFFERING'} bytes "
        f"({len(digests[0])} bytes of CSV/metadata)",
    )
    assert ok
