"""Nonlinear coherent states over a truncated deformed ladder.

Three pure-state constructors:

* aocs: approximate eigenstate of the deformed lowering operator, with
  amplitudes c_n proportional to alpha^n / (sqrt(n!) f(1) f(2) ... f(n));
* docs: the deformed-displacement state of a Morse ladder, with amplitudes
  proportional to binomial(2N, n)^(1/2) zeta^n where zeta = e^(i phi)
  tan(|alpha| chi);
* even_cat: the normalized even superposition of two aocs with opposite
  phases, populating even levels only.

All constructors renormalize after truncation, so downstream trace
bookkeeping is exact even though the closed-form normalization constants
only apply to the untruncated sums.  alpha_for_mean_n inverts the monotone
map alpha -> <n> so a target mean excitation can be hit reproducibly.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fock_algebra import OscillatorModel
from .morse import MorseParams

__all__ = [
    "StateVector",
    "aocs",
    "docs",
    "docs_from_alpha",
    "even_cat",
    "mean_excitation",
    "alpha_for_mean_n",
    "to_density",
]

# |<n>(alpha) - target| at which alpha_for_mean_n's bisection stops
MEAN_N_TOL = 1e-9


@dataclass(frozen=True)
class StateVector:
    """Unit-norm complex amplitudes over the truncated number basis."""

    amplitudes: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.amplitudes)


def _normalized(amplitudes: np.ndarray, label: str) -> StateVector:
    norm = np.linalg.norm(amplitudes)
    if not norm > 0.0:
        raise ValueError(f"cannot normalize a zero {label} state")
    return StateVector(amplitudes=amplitudes / norm)


def aocs(alpha: complex, model: OscillatorModel) -> StateVector:
    """Lowering-operator coherent state on the truncated ladder.

    c_n follows the recurrence c_n = c_{n-1} alpha / (f(n) sqrt(n)), which is
    the condition for A|psi> = alpha|psi> level by level; truncation at the
    top makes the eigenstate property approximate.  Requires f(n) > 0 for
    1 <= n <= dim-1.
    """
    c = np.zeros(model.dim, dtype=complex)
    c[0] = 1.0
    for n in range(1, model.dim):
        fn = math.sqrt(model.f2[n])
        if fn == 0.0:
            raise ValueError(
                f"deformation '{model.deformation.label}' vanishes at level {n}; "
                "lowering-operator state undefined"
            )
        c[n] = c[n - 1] * alpha / (fn * math.sqrt(n))
    return _normalized(c, "aocs")


def docs(zeta: complex, params: MorseParams) -> StateVector:
    """Displacement-operator coherent state of the Morse ladder.

    Amplitudes proportional to binomial(2N, n)^(1/2) zeta^n for
    n = 0..N-1, built with log-gamma binomials and renormalized after
    truncation (the closed-form prefactor (1+|zeta|^2)^(-N) normalizes the
    untruncated sum only).
    """
    powers = np.concatenate(([1.0 + 0j], np.cumprod(np.full(params.n_bound - 1, zeta, dtype=complex))))
    return _normalized(np.exp(_half_log_binomials(params.n_bound)) * powers, "docs")


@functools.lru_cache(maxsize=None)
def _half_log_binomials(n_bound: int) -> np.ndarray:
    """0.5 log binomial(2N, n) for n = 0..N-1 by log-gamma, built once per N (read only)."""
    two_n = 2 * n_bound
    half_logs = np.array([
        0.5 * (math.lgamma(two_n + 1) - math.lgamma(n + 1) - math.lgamma(two_n - n + 1))
        for n in range(n_bound)
    ])
    half_logs.setflags(write=False)
    return half_logs


def docs_from_alpha(alpha: complex, params: MorseParams) -> StateVector:
    """docs with zeta = e^(i phi) tan(|alpha| chi) derived from alpha."""
    mag = abs(alpha)
    if mag * params.chi >= math.pi / 2:
        raise ValueError(
            f"|alpha| = {mag} exceeds the displacement parameterization "
            f"(requires |alpha| chi < pi/2)"
        )
    phase = cmath.exp(1j * cmath.phase(alpha)) if mag > 0 else 1.0
    return docs(phase * math.tan(mag * params.chi), params)


def even_cat(alpha: complex, model: OscillatorModel) -> StateVector:
    """Even superposition of aocs(alpha) and aocs(-alpha).

    Odd amplitudes cancel exactly, so the state populates even levels only.
    """
    plus = aocs(alpha, model).amplitudes
    minus = aocs(-alpha, model).amplitudes
    return _normalized(plus + minus, "even_cat")


def mean_excitation(state: StateVector) -> float:
    """<n> = sum_n n |c_n|^2."""
    weights = np.abs(state.amplitudes) ** 2
    return float(np.dot(np.arange(state.dim), weights))


def alpha_for_mean_n(
    target: float,
    builder: Callable[[float, OscillatorModel], StateVector],
    model: OscillatorModel,
    alpha_max: float | None = None,
) -> float:
    """Solve <n>(alpha) = target for real alpha >= 0 by bracketing + bisection.

    The map alpha -> <n> is monotone increasing for all three constructors,
    so a doubling search brackets the target and bisection pins it down to
    MEAN_N_TOL.
    Raises if the target is not reachable on the truncated ladder (the
    bracket saturates below target), reporting the best attainable mean.
    """
    if target == 0.0:
        return 0.0
    if not 0.0 < target < model.dim - 1:
        raise ValueError(
            f"target mean excitation {target} outside the reachable range "
            f"(0, {model.dim - 1})"
        )

    def mean_at(a: float) -> float:
        return mean_excitation(builder(a, model))

    lo, hi = 0.0, 1.0
    if alpha_max is not None:
        hi = min(hi, alpha_max)
    prev = -1.0
    while (value := mean_at(hi)) < target:
        saturated = value <= prev * (1.0 + 1e-12) + 1e-15
        at_cap = alpha_max is not None and hi >= alpha_max
        if saturated or at_cap or hi > 1e12:
            raise ValueError(
                f"target mean excitation {target} unreachable; "
                f"maximum attainable is about {value:.6f}"
            )
        prev = value
        lo = hi
        hi = 2.0 * hi if alpha_max is None else min(2.0 * hi, alpha_max)

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = mean_at(mid)
        if abs(value - target) <= MEAN_N_TOL:
            return mid
        if value < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
    mid = 0.5 * (lo + hi)
    if abs(mean_at(mid) - target) > 1e-6:
        raise ValueError(
            f"bisection failed to reach target {target} within 1e-6 "
            f"(best alpha {mid})"
        )
    return mid


def to_density(state: StateVector) -> np.ndarray:
    """Rank-one density matrix |psi><psi| (Hermitian, unit trace, purity 1)."""
    c = state.amplitudes
    return np.outer(c, c.conj())
