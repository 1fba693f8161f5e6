import math

import numpy as np
import pytest
from scipy.special import gammaln

from deformed_lindblad import (
    OscillatorModel,
    alpha_for_mean_n,
    aocs,
    docs,
    docs_from_alpha,
    even_cat,
    harmonic_deformation,
    ladder_pair,
    mean_excitation,
    to_density,
)


def test_aocs_vacuum(model):
    state = aocs(0.0, model)
    assert state.amplitudes[0] == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(state.amplitudes[1:])) == 0.0


def test_aocs_harmonic_limit_matches_glauber():
    model = OscillatorModel(30, harmonic_deformation())
    state = aocs(1.0, model)
    n = np.arange(30)
    glauber = np.exp(-0.5 - 0.5 * gammaln(n + 1))  # |alpha| = 1
    assert np.max(np.abs(state.amplitudes.real - glauber)) < 1e-10
    assert np.max(np.abs(state.amplitudes.imag)) == 0.0


def test_aocs_is_approximate_eigenstate(model, alpha_aocs):
    state = aocs(alpha_aocs, model)
    a, _ = ladder_pair(model)
    residual = np.linalg.norm(a @ state.amplitudes - alpha_aocs * state.amplitudes)
    assert residual < 0.05


def test_aocs_rejects_vanishing_deformation():
    from deformed_lindblad import DeformationFunction

    dead = DeformationFunction(lambda n: max(0.0, 1.0 - 0.5 * n), label="pinch")
    model = OscillatorModel(5, dead)
    with pytest.raises(ValueError, match="level 2"):
        aocs(1.0, model)


def test_docs_vacuum(params):
    state = docs(0.0, params)
    assert state.amplitudes[0] == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(state.amplitudes[1:])) == 0.0


def test_docs_single_peak_at_mean_two(params, model, alpha_docs):
    state = docs_from_alpha(alpha_docs, params)
    weights = np.abs(state.amplitudes) ** 2
    peak = int(np.argmax(weights))
    assert peak in (1, 2)
    # single-peaked: increasing up to the peak, decreasing after
    assert np.all(np.diff(weights[: peak + 1]) > 0)
    assert np.all(np.diff(weights[peak:]) < 0)


def test_docs_binomial_via_loggamma_is_exact():
    # C(30, 14) recovered through the log-gamma route
    value = math.exp(
        gammaln(31) - gammaln(15) - gammaln(17)
    )
    assert round(value) == 145422675
    assert abs(value - 145422675) / 145422675 < 1e-12


def test_docs_rejects_overlong_displacement(params):
    with pytest.raises(ValueError, match="alpha"):
        docs_from_alpha(1.01 * (math.pi / 2) / params.chi, params)


def test_even_cat_parity(model, alpha_cat):
    state = even_cat(alpha_cat, model)
    assert np.max(np.abs(state.amplitudes[1::2])) < 1e-14


def test_even_cat_degenerates_to_vacuum(model):
    state = even_cat(1e-12, model)
    assert abs(state.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)


def test_cat_is_pure_before_evolution(model, alpha_cat):
    rho = to_density(even_cat(alpha_cat, model))
    assert np.einsum("ij,ji->", rho, rho).real == pytest.approx(1.0, abs=1e-12)


def test_alpha_solver_trivial_target(model):
    assert alpha_for_mean_n(0.0, aocs, model) == 0.0


def test_alpha_solver_hits_target(model, params, alpha_aocs, alpha_docs, alpha_cat):
    assert mean_excitation(aocs(alpha_aocs, model)) == pytest.approx(2.0, abs=1e-6)
    assert mean_excitation(docs_from_alpha(alpha_docs, params)) == pytest.approx(
        2.0, abs=1e-6
    )
    assert mean_excitation(even_cat(alpha_cat, model)) == pytest.approx(2.0, abs=1e-6)


def test_mean_excitation_monotone_in_alpha(model, params):
    grid = np.linspace(0.05, 3.0, 24)
    for builder in (
        aocs,
        even_cat,
        lambda a, m: docs_from_alpha(a, params),
    ):
        means = [mean_excitation(builder(a, model)) for a in grid]
        assert np.all(np.diff(means) > 0)


def test_alpha_solver_reports_unreachable(model):
    with pytest.raises(ValueError, match="outside the reachable range"):
        alpha_for_mean_n(14.5, aocs, model)
    # a cap on alpha makes moderate targets unreachable too
    with pytest.raises(ValueError, match="unreachable"):
        alpha_for_mean_n(5.0, aocs, model, alpha_max=1.0)


def test_alpha_solver_builds_each_alpha_once(model, params):
    # each doubling step of the bracket search builds its state once
    cap = (math.pi / 2 - 1e-9) / params.chi
    for builder, alpha_max in (
        (aocs, None),
        (even_cat, None),
        (lambda a, m: docs_from_alpha(a, params), cap),
    ):
        seen = []

        def counting(a, m):
            seen.append(a)
            return builder(a, m)

        alpha = alpha_for_mean_n(4.0, counting, model, alpha_max=alpha_max)
        assert alpha == alpha_for_mean_n(4.0, builder, model, alpha_max=alpha_max)
        assert len(seen) > 3
        assert len(seen) == len(set(seen)), sorted(seen)


def test_to_density_invariants(model, alpha_aocs):
    rho = to_density(aocs(alpha_aocs, model))
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(rho - rho.conj().T)) == 0.0
    assert np.einsum("ij,ji->", rho, rho).real == pytest.approx(1.0, abs=1e-12)
    vacuum = to_density(aocs(0.0, model))
    assert vacuum[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert np.count_nonzero(vacuum) == 1
