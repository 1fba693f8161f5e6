import math

import numpy as np
import pytest

from deformed_lindblad import (
    MorseParams,
    ReservoirParams,
    alpha_for_mean_n,
    aocs,
    docs_from_alpha,
    eta_values,
    even_cat,
    morse_model,
    rate_table,
    to_density,
)


@pytest.fixture(scope="session")
def params():
    return MorseParams(15)


@pytest.fixture(scope="session")
def model(params):
    return morse_model(params)


@pytest.fixture(scope="session")
def etas(params):
    return eta_values(params)


@pytest.fixture(scope="session")
def reservoir():
    return ReservoirParams(theta=4.0)


@pytest.fixture(scope="session")
def rates(model, reservoir):
    return rate_table(model, reservoir)


@pytest.fixture(scope="session")
def alpha_aocs(model):
    return alpha_for_mean_n(2.0, aocs, model)


@pytest.fixture(scope="session")
def alpha_docs(params, model):
    cap = (math.pi / 2 - 1e-9) / params.chi
    return alpha_for_mean_n(
        2.0, lambda a, m: docs_from_alpha(a, params), model, alpha_max=cap
    )


@pytest.fixture(scope="session")
def alpha_cat(model):
    return alpha_for_mean_n(2.0, even_cat, model)


@pytest.fixture(scope="session")
def rho_docs(params, model, alpha_docs):
    return to_density(docs_from_alpha(alpha_docs, params))


@pytest.fixture(scope="session")
def rho_aocs(model, alpha_aocs):
    return to_density(aocs(alpha_aocs, model))


@pytest.fixture(scope="session")
def rho_cat(model, alpha_cat):
    return to_density(even_cat(alpha_cat, model))


@pytest.fixture(scope="session")
def fock_state():
    def build(n, dim=15):
        rho = np.zeros((dim, dim), dtype=complex)
        rho[n, n] = 1.0
        return rho

    return build


def _rk4_propagate(gen, rho0, times, dt):
    """Fixed-step classical RK4 from t = 0 through the sorted sample times.

    The last step of each interval is trimmed so snapshots land on the
    requested times.  An independent reference for the exact propagator.
    """
    rho = np.asarray(rho0, dtype=complex).copy()
    states = []
    t = 0.0
    for target in times:
        while target - t > 1e-12:
            h = min(dt, target - t)
            k1 = gen.apply(rho)
            k2 = gen.apply(rho + 0.5 * h * k1)
            k3 = gen.apply(rho + 0.5 * h * k2)
            k4 = gen.apply(rho + h * k3)
            rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        t = target
        states.append(rho.copy())
    return states


@pytest.fixture(scope="session")
def rk4_oracle():
    return _rk4_propagate
