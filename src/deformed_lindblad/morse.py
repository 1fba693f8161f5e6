"""Morse-like oscillator as a deformed ladder.

The deformation f^2(n) = 1 - chi * n with chi = 1/(2N + 1) reproduces the
bound-state spectrum of a one-dimensional Morse well with N bound states,

    E_n = (n + 1/2) - (n + 1/2)^2 / (2N + 1),

up to a constant offset of -chi/4.  Units are those of the source model:
hbar = omega0 = 1, and the well's range parameter beta (1/length) is one
too, so positions are in units of 1/beta.  This module supplies that
deformation together with the quantities the dissipative model needs:

* eta(n), the level-dependent dipole coupling entering the jump operators,
  with eta(N-1) = 0 so the bound ladder closes at the top;
* the adjacent-level dipole matrix elements <n+1|r|n>, used as an
  independent consistency route to eta;
* the bound-state wavefunctions psi_n(r) in the Morse variable
  xi(r) = (2N + 1) exp(-r), needed by the phase-space transforms.

Gamma functions appear as log-gamma throughout, through the standard
library's math.lgamma on integer arguments: with k = 2N + 1 = 31 already,
Gamma(k - 1) overflows naive evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock_algebra import DeformationFunction, OscillatorModel

__all__ = [
    "MorseParams",
    "morse_deformation",
    "morse_model",
    "morse_energy",
    "eta",
    "eta_values",
    "dipole_element",
    "morse_wavefunction",
]

# exp() underflows to zero below this; used to short-circuit dead tails
_LOG_TINY = -745.0


@dataclass(frozen=True)
class MorseParams:
    """Morse ladder parameters: the number of bound states N.

    The anharmonicity is pinned to chi = 1/(2N + 1).
    """

    n_bound: int

    def __post_init__(self) -> None:
        if self.n_bound < 2:
            raise ValueError(f"n_bound must be >= 2, got {self.n_bound}")

    @property
    def chi(self) -> float:
        """The anharmonicity 1/(2N + 1)."""
        return 1.0 / (2 * self.n_bound + 1)

    @property
    def k(self) -> int:
        """The combination 2N + 1 = 1/chi."""
        return 2 * self.n_bound + 1


def morse_deformation(params: MorseParams) -> DeformationFunction:
    """The linear deformation f^2(n) = 1 - chi n.

    Positive for every retained level since chi (N - 1) < 1; the zero at
    n = 2N + 1 is never reached because the model truncates at dim = N.
    """
    chi = params.chi
    return DeformationFunction(
        lambda n: 1.0 - chi * n, label=f"morse-N{params.n_bound}"
    )


def morse_model(params: MorseParams) -> OscillatorModel:
    """Oscillator model truncated at the bound-state count (dim = N)."""
    return OscillatorModel(dim=params.n_bound, deformation=morse_deformation(params))


def morse_energy(params: MorseParams, n: int) -> float:
    """Bound-state energy E_n = (n + 1/2) - chi (n + 1/2)^2."""
    _check_level(params, n, params.n_bound - 1)
    x = n + 0.5
    return x - params.chi * x * x


def eta(params: MorseParams, n: int) -> float:
    """Dipole coupling function for the transition n <-> n+1.

    eta(n) = (N + 1/2) sqrt((N - n)(N - n - 1)) / ((N - n/2)(N - n - 1/2)).

    eta(N-1) = 0 exactly, which closes the ladder: no coupling carries
    population out of the top bound state.  For fixed n, eta(n) -> 1 as
    N -> infinity (harmonic limit).
    """
    _check_level(params, n, params.n_bound - 1)
    big_n = params.n_bound
    num = (big_n + 0.5) * np.sqrt((big_n - n) * (big_n - n - 1.0))
    den = (big_n - 0.5 * n) * (big_n - n - 0.5)
    return float(num / den)


def eta_values(params: MorseParams) -> np.ndarray:
    """eta(n) for n = 0..N-1 as an array."""
    return np.array([eta(params, n) for n in range(params.n_bound)])


def _log_wavefunction_norm(params: MorseParams, n: int) -> float:
    # N_n = [n! (k - 2n - 1) / Gamma(k - n)]^(1/2), in log space
    k = params.k
    return 0.5 * (
        math.lgamma(n + 1)
        + np.log(k - 2 * n - 1.0)
        - math.lgamma(k - n)
    )


def dipole_element(params: MorseParams, n: int) -> float:
    """Adjacent-level position matrix element <n+1|r|n>.

    Evaluates (with k = 2N + 1)

        <n+1|r|n> = N_n N_{n+1} Gamma(k - n - 1) / ((k - 2n - 2) n!)

    entirely in log space.  This is an independent route to the coupling:
    the ratio dipole_element(n) / dipole_element(0) must match the ratio of
    eta(n) f(n+1) sqrt(n+1) up to a single global scale.
    """
    _check_level(params, n, params.n_bound - 2)
    k = params.k
    log_value = (
        _log_wavefunction_norm(params, n)
        + _log_wavefunction_norm(params, n + 1)
        + math.lgamma(k - n - 1)
        - np.log(k - 2.0 * n - 2.0)
        - math.lgamma(n + 1)
    )
    value = float(np.exp(log_value))
    if not np.isfinite(value):
        raise ValueError(
            f"dipole element overflow at n = {n} (log value {log_value:.3f})"
        )
    return value


def _laguerre(n: int, alpha: float, x: np.ndarray) -> np.ndarray:
    """Associated Laguerre L_n^alpha(x) by the three-term degree recurrence."""
    prev = np.ones_like(x)
    if n == 0:
        return prev
    curr = 1.0 + alpha - x
    for i in range(2, n + 1):
        prev, curr = curr, ((2 * i - 1 + alpha - x) * curr - (i - 1 + alpha) * prev) / i
    return curr


def morse_wavefunction(params: MorseParams, n: int, r) -> np.ndarray | float:
    """Bound-state wavefunction psi_n(r) = N_n exp(-xi/2) xi^(N-n) L_n^(2N-2n)(xi).

    xi(r) = (2N + 1) exp(-r).  The exponential prefactor is assembled in
    log space so the deep repulsive wall (xi large) underflows cleanly to
    zero instead of producing inf * 0.
    """
    _check_level(params, n, params.n_bound - 1)
    r_arr = np.asarray(r, dtype=float)
    scalar = r_arr.ndim == 0
    r_arr = np.atleast_1d(r_arr)

    xi = params.k * np.exp(-r_arr)
    power = params.n_bound - n
    log_env = _log_wavefunction_norm(params, n) - 0.5 * xi + power * np.log(xi)
    alive = log_env > _LOG_TINY
    psi = np.zeros_like(r_arr)
    if np.any(alive):
        xi_a = xi[alive]
        psi[alive] = np.exp(log_env[alive]) * _laguerre(n, 2.0 * power, xi_a)
    return float(psi[0]) if scalar else psi


def _check_level(params: MorseParams, n: int, n_max: int) -> None:
    if not 0 <= n <= n_max:
        raise ValueError(
            f"level {n} outside the valid range 0..{n_max} "
            f"(N = {params.n_bound})"
        )
