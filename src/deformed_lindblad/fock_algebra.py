"""Truncated f-deformed oscillator algebra in the number basis.

A deformed oscillator is a harmonic oscillator whose ladder operators are
rescaled by a level-dependent function f, so that the lowering operator acts
as A|n> = f(n) sqrt(n) |n-1> and the raising operator as its conjugate
transpose.  The Hamiltonian is diagonal in the number basis with

    H_nn = (omega0 / 2) * ((n + 1) f^2(n + 1) + n f^2(n))        (hbar = 1)

and the spacing between adjacent levels is the gap frequency

    Omega(n) = (omega0 / 2) * ((n + 2) f^2(n + 2) - n f^2(n)).

f(n_hat) is diagonal in the number basis, so on the truncated ladder it is
a table of numbers: OscillatorModel calls the deformation once per level
n = 0..dim+1 when it is constructed (Omega(dim-1) reaches f^2(dim+1)),
rejects negative f^2 on 0..dim, and keeps the values as the read-only array
``model.f2``.  Everything below reads that table.

Everything here is a dense float matrix over the first ``dim`` number states.
The untruncated algebra satisfies [H, A] = -Omega(n_hat) A exactly; after
truncation, identities that touch the top edge are only guaranteed on the
interior block (rows/columns 0..dim-2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "DeformationFunction",
    "OscillatorModel",
    "harmonic_deformation",
    "ladder_pair",
    "hamiltonian",
    "gap_frequencies",
    "eigenoperator_residual",
]


@dataclass(frozen=True)
class DeformationFunction:
    """Level-dependent deformation f^2(n) plus a short label.

    ``f_squared`` maps an integer level n >= 0 to the dimensionless value
    f^2(n).  The harmonic oscillator corresponds to f^2(n) = 1 for all n.
    Levels with negative f^2 lie outside the physical ladder and must be
    excluded by the model truncation.
    """

    f_squared: Callable[[int], float]
    label: str = "custom"


def harmonic_deformation() -> DeformationFunction:
    """The undeformed case f^2(n) = 1, which contracts to the textbook oscillator."""
    return DeformationFunction(lambda n: 1.0, label="harmonic")


@dataclass(frozen=True)
class OscillatorModel:
    """Truncated deformed oscillator: base frequency, dimension, deformation.

    ``dim`` is the number of retained number states (indices 0..dim-1).  For
    a Morse-like ladder with N bound states set dim = N.  Frequencies are in
    units of 1/time; the default simulation convention is omega0 = 1.
    ``f2`` holds f^2(n) for n = 0..dim+1, read-only.
    """

    omega0: float
    dim: int
    deformation: DeformationFunction
    f2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError(f"model dimension must be >= 2, got {self.dim}")
        if not self.omega0 > 0.0:
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        f2 = np.array([float(self.deformation.f_squared(n)) for n in range(self.dim + 2)])
        bad = np.flatnonzero(f2[: self.dim + 1] < 0.0)
        if bad.size:
            n = int(bad[0])
            raise ValueError(
                f"deformation '{self.deformation.label}': f^2({n}) = {f2[n]} "
                f"is negative inside the truncation (dim = {self.dim})"
            )
        f2.flags.writeable = False
        object.__setattr__(self, "f2", f2)


def ladder_pair(model: OscillatorModel) -> tuple[np.ndarray, np.ndarray]:
    """Lowering and raising matrices (A, A_dagger) in the number basis.

    <n-1|A|n> = f(n) sqrt(n) on the superdiagonal; A_dagger is the exact
    transpose (entries are real).  The matrices are dim x dim, so the
    amplitude f(dim) sqrt(dim) that would leak past the top level is never
    referenced.
    """
    n = np.arange(1, model.dim)
    amplitudes = np.sqrt(model.f2[1:model.dim] * n)
    a = np.zeros((model.dim, model.dim))
    a[n - 1, n] = amplitudes
    return a, a.T.copy()


def hamiltonian(model: OscillatorModel) -> np.ndarray:
    """Diagonal Hamiltonian with H_nn = (omega0/2)((n+1) f^2(n+1) + n f^2(n)).

    The top entry n = dim-1 reads f^2(dim), one level past the truncation.
    """
    f2, dim = model.f2, model.dim
    n = np.arange(dim)
    diag = 0.5 * model.omega0 * ((n + 1) * f2[1:dim + 1] + n * f2[:dim])
    return np.diag(diag)


def gap_frequencies(model: OscillatorModel) -> np.ndarray:
    """Omega(n) = (omega0/2)((n+2) f^2(n+2) - n f^2(n)) for n = 0..dim-1.

    Physically meaningful for 0 <= n <= dim-2 (the spacing between retained
    levels n+1 and n); the entry at n = dim-1 reads f^2(dim+1) and refers to
    the first level beyond the truncation.
    """
    f2, dim = model.f2, model.dim
    n = np.arange(dim)
    return 0.5 * model.omega0 * ((n + 2) * f2[2:dim + 2] - n * f2[:dim])


def eigenoperator_residual(model: OscillatorModel) -> float:
    """Max-norm of [H, A] + Omega(n_hat) A on the interior block.

    The untruncated algebra makes this vanish identically, so the residual is
    a round-off-level self-test of the ladder, Hamiltonian, and gap-frequency
    constructions.  Rows and columns 0..dim-2 are checked; the edge row is a
    truncation artifact.
    """
    a, _ = ladder_pair(model)
    h = hamiltonian(model)
    omega_diag = np.diag(gap_frequencies(model))
    residual = h @ a - a @ h + omega_diag @ a
    interior = residual[: model.dim - 1, : model.dim - 1]
    return float(np.max(np.abs(interior))) if interior.size else 0.0
