import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre

from deformed_lindblad import (
    MorseParams,
    OscillatorModel,
    dipole_element,
    eta,
    eta_values,
    gap_frequencies,
    hamiltonian,
    morse_deformation,
    morse_energy,
    morse_wavefunction,
)
from deformed_lindblad.morse import _laguerre


def test_params_pin_chi():
    p = MorseParams(15)
    assert p.chi * 31 == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError, match="n_bound"):
        MorseParams(1)


def test_deformation_values(params, model):
    assert model.f2[0] == pytest.approx(1.0, abs=1e-15)
    assert model.f2[14] == pytest.approx(17.0 / 31.0, abs=1e-15)
    # the zero at n = 2N + 1 lies past the truncation; a 30-level model reaches it
    wide = OscillatorModel(30, morse_deformation(params))
    assert wide.f2[31] == pytest.approx(0.0, abs=1e-15)


def test_energy_values(params, model):
    assert morse_energy(params, 0) == pytest.approx(0.5 - 0.25 / 31.0, abs=1e-15)
    # adjacent gap matches the algebraic gap frequency
    assert morse_energy(params, 1) - morse_energy(params, 0) == pytest.approx(
        gap_frequencies(model)[0], abs=1e-14
    )
    with pytest.raises(ValueError):
        morse_energy(params, 15)


def test_energy_harmonic_limit():
    big = MorseParams(20000)
    for n in (0, 1, 5):
        assert morse_energy(big, n) == pytest.approx(n + 0.5, rel=1e-3)


def test_spectrum_matches_deformed_hamiltonian(params, model):
    # eigenvalues of the ladder Hamiltonian equal E_n - chi/4 (constant shift)
    diag = np.sort(np.diag(hamiltonian(model)))
    energies = np.sort(
        [morse_energy(params, n) - params.chi / 4.0 for n in range(15)]
    )
    assert np.max(np.abs(diag - energies)) < 1e-12


def test_eta_values(params):
    assert eta(params, 14) == 0.0
    assert eta(params, 0) == pytest.approx(
        15.5 * math.sqrt(210.0) / (15.0 * 14.5), abs=1e-12
    )
    with pytest.raises(ValueError):
        eta(params, 15)


def test_eta_harmonic_limit():
    big = MorseParams(10**4)
    for n in (0, 3, 7):
        assert eta(big, n) == pytest.approx(1.0, abs=1e-3)


def test_dipole_ratio_matches_eta_route(params, model):
    # both routes realize the same coupling up to one global scale
    f2 = model.f2
    base_d = dipole_element(params, 0)
    base_e = eta(params, 0) * math.sqrt(f2[1])
    for n in range(14):
        ratio_d = dipole_element(params, n) / base_d
        ratio_e = (
            eta(params, n) * math.sqrt(f2[n + 1] * (n + 1))
        ) / base_e
        assert ratio_d == pytest.approx(ratio_e, abs=1e-9)


def test_dipole_finite_and_positive(params):
    assert dipole_element(params, 13) / dipole_element(params, 0) > 0.0
    assert np.isfinite(dipole_element(params, 13))
    with pytest.raises(ValueError):
        dipole_element(params, 14)


def test_laguerre_recurrence_against_scipy():
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 60.0, size=64)
    for n in (0, 1, 2, 7, 14):
        alpha = 2.0 * (15 - n)
        mine = _laguerre(n, alpha, x)
        ref = eval_genlaguerre(n, alpha, x)
        scale = np.max(np.abs(ref)) + 1.0
        assert np.max(np.abs(mine - ref)) / scale < 1e-12


def test_wavefunction_normalization_quadrature(params):
    value, err = quad(
        lambda r: morse_wavefunction(params, 0, r) ** 2, -3.0, 25.0, limit=200
    )
    assert value == pytest.approx(1.0, abs=1e-8)


def test_wavefunction_orthogonality_quadrature(params):
    value, err = quad(
        lambda r: morse_wavefunction(params, 0, r) * morse_wavefunction(params, 1, r),
        -3.0,
        25.0,
        limit=200,
    )
    assert abs(value) < 1e-8


def test_wavefunction_nodal_counts(params):
    r = np.linspace(-3.0, 25.0, 6001)
    for n in (0, 1, 5, 9, 14):
        psi = morse_wavefunction(params, n, r)
        live = psi[np.abs(psi) > 1e-9 * np.max(np.abs(psi))]
        changes = int(np.sum(np.sign(live[1:]) * np.sign(live[:-1]) < 0))
        assert changes == n


def test_wavefunction_deep_wall_underflows(params):
    assert morse_wavefunction(params, 0, -60.0) == 0.0
    assert np.isfinite(morse_wavefunction(params, 14, -60.0))


def test_wavefunction_table_invariants(params):
    # every bound state on one grid: trapezoid Gram matrix is the identity,
    # and each state has decayed at both grid ends
    r = np.linspace(-3.0, 30.0, 8001)
    table = np.stack([morse_wavefunction(params, n, r) for n in range(params.n_bound)])
    gram = np.trapezoid(table[:, None, :] * table[None, :, :], r, axis=-1)
    assert np.max(np.abs(gram - np.eye(params.n_bound))) < 1e-6
    peaks = np.max(np.abs(table), axis=1)
    edges = np.maximum(np.abs(table[:, 0]), np.abs(table[:, -1]))
    assert np.all(edges < 1e-8 * peaks)


def test_wavefunctions_solve_schroedinger(params):
    # finite-difference check of -(1/2m) psi'' + D (1 - e^-r)^2 psi = E_n psi
    # with the implied well parameters m = N + 1/2 and D = (2N + 1)/4
    mass = params.n_bound + 0.5
    depth = params.k / 4.0
    r = np.linspace(-3.0, 30.0, 24001)
    dr = r[1] - r[0]
    potential = depth * (1.0 - np.exp(-r)) ** 2
    for n in (0, 3, 9, 14):
        psi = morse_wavefunction(params, n, r)
        laplacian = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / dr**2
        h_psi = -laplacian / (2.0 * mass) + potential[1:-1] * psi[1:-1]
        residual = np.max(np.abs(h_psi - morse_energy(params, n) * psi[1:-1]))
        assert residual / np.max(np.abs(psi)) < 5e-4
