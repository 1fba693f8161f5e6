"""Thermal-reservoir dissipator and time evolution for the deformed ladder.

The reduced density matrix evolves under a generalized Lindblad-type
generator whose jump structure couples adjacent levels n <-> n+1 with the
amplitude g(n) = eta(n) f(n+1) sqrt(n+1) and level-dependent rates

    K1(n) = gamma(n-1)/2 (nbar(Omega(n-1)) + 1)     loss, downward
    K2(n) = gamma(n)/2    nbar(Omega(n))            loss, upward
    K3(n) = gamma(n-1)/2  nbar(Omega(n-1))          gain, upward
    K4(n) = gamma(n)/2   (nbar(Omega(n)) + 1)       gain, downward

with gamma(n) = gamma_scale Omega(n)^3 and nbar(w) = 1/(exp(theta w) - 1)
the Planck occupation at the dimensionless inverse temperature
theta = hbar omega0 / (k_B T).  Units are those of the source model,
hbar = omega0 = 1, so frequencies, rates and energies are in units of
omega0.  In the number basis,

    d rho_mn/dt = -i (E_m - E_n) rho_mn
                  - (K1(m) g(m-1)^2 + K2(m) g(m)^2
                     + K1(n) g(n-1)^2 + K2(n) g(n)^2) rho_mn
                  + (K3(m) + K3(n)) g(m-1) g(n-1) rho_{m-1,n-1}
                  + (K4(m) + K4(n)) g(m) g(n)     rho_{m+1,n+1}.

Note the downward gain carries the full product g(m) g(n), i.e. the factor
sqrt((m+1)(n+1)) is present.  Without it the generator does not conserve
trace even in the harmonic limit; with it, the index identities
K3(n+1) = K2(n) and K4(n-1) = K1(n) make trace conservation exact.

Optional frequency-shift coefficients delta1..delta4 (Stark and Lamb type)
enter as commutator terms that perturb off-diagonal elements only.  They are
principal-value integrals that diverge without an ultraviolet cutoff, so
they are disabled by default and require an explicit cutoff when enabled.
Like the gain terms below, the shift commutators are not in completely
positive form either.

A caution on positivity: this generator is Lindblad-like but not completely
positive.  Its gain terms weight the sandwich F rho F^dag by the arithmetic
mean of the rates at the two levels involved, where a completely positive
generator would carry the geometric mean.  States with coherences therefore
acquire a transient negative eigenvalue that vanishes in the harmonic limit,
where the rates are level independent.  At 15 levels and theta = 4 it
stays below 1e-3 in magnitude in the worst measured case (even cat,
gamma_scale <= 2).  That bound carries over neither to other ladders, nor
to colder reservoirs, nor to shifts.  At the default gamma_scale, even cat
at 10 levels reaches -1.153e-2 at t = 1; the default docs run reaches
-4.6e-3 at theta = 6, -9.8e-3 at theta = 10 and -1.014e-2 at t = 1 from
theta = 18 on (theta = inf included); aocs with shifts on (cutoff 40)
reaches -2.329e-2 at t = 4.  Trace and Hermiticity are conserved exactly.
integrate aborts when an eigenvalue falls below EIG_ABORT_FLOOR, an order
of magnitude outside the band at 15 levels and theta = 4, so the 10-level
even cat, the shifted aocs and docs from theta = 12 on abort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial
from typing import Sequence

import numpy as np

from .fock_algebra import OscillatorModel, gap_frequencies, hamiltonian

__all__ = [
    "ReservoirParams",
    "RateTable",
    "IntegrationError",
    "EvolutionResult",
    "rate_table",
    "shift_table",
    "jump_amplitudes",
    "build_generator",
    "integrate",
    "steady_state",
    "detailed_balance_populations",
    "purity",
    "mean_occupation",
    "validate_density",
]

TRACE_ABORT = 1e-7
HERMITICITY_TOL = 1e-10
# Abort threshold for negative eigenvalues.  At 15 levels and theta = 4 the
# generator itself produces transient negativity up to about 1e-3 on coherent
# states (see the module docstring), so the abort floor sits an order of
# magnitude below that band rather than at round-off scale.
EIG_ABORT_FLOOR = -1e-2
# steady_state's bounds on ||d rho/dt||_max and on |dp_n/dt| / p_n, p_n > 0
STEADY_RESIDUAL_TOL = 1e-12
STEADY_RELATIVE_TOL = 1e-9

# The [13/13] Pade approximant to exp(x) is p(x) / p(-x) with
# p(x) = sum_j c_j x^j, c_j = (26 - j)! 13! / (26! j! (13 - j)!), c_0 = 1; it
# meets double precision for 1-norms up to _THETA13 (N. J. Higham, SIAM
# J. Matrix Anal. Appl. 26 (2005) 1179, table 2.3).  Python's int division
# rounds each c_j correctly.
_PADE13 = tuple(
    factorial(26 - j) * factorial(13) / (factorial(26) * factorial(j) * factorial(13 - j))
    for j in range(14)
)
_THETA13 = 5.371920351148152

# Damping prefactor with every physical constant in the decay-rate
# expression set to one (the convention of the source model), which makes
# gamma(n)/2 = (2/3) Omega(n)^3: gamma_scale = 4/3.
DEFAULT_GAMMA_SCALE = 4.0 / 3.0


@dataclass(frozen=True)
class ReservoirParams:
    """Thermal reservoir: inverse temperature and damping strength.

    theta is hbar omega0 / (k_B T); gamma_scale is the dimensionless damping
    prefactor multiplying Omega(n)^3.  The default 4/3 corresponds to
    setting every physical constant in the dipole decay rate to one.
    shift_cutoff (in units of omega0) is required only when shifts_enabled,
    because the shift integrals grow without bound as the upper limit
    increases.
    """

    theta: float
    gamma_scale: float = DEFAULT_GAMMA_SCALE
    shifts_enabled: bool = False
    shift_cutoff: float | None = None

    def __post_init__(self) -> None:
        if not self.theta > 0.0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if not 0.0 <= self.gamma_scale < np.inf:
            raise ValueError(f"gamma_scale must be finite and >= 0, got {self.gamma_scale}")
        if self.shift_cutoff is not None and not np.isfinite(self.shift_cutoff):
            raise ValueError(f"shift_cutoff must be finite, got {self.shift_cutoff}")
        if self.shifts_enabled and self.shift_cutoff is None:
            raise ValueError("shift_cutoff is required when shifts_enabled")


@dataclass(frozen=True)
class RateTable:
    """Per-level rates K1..K4 and frequency shifts delta1..delta4.

    All arrays run over n = 0..dim-1 in units of omega0.  Entries at n = 0
    that would reference the gap below the ground state are zero; they always
    multiply the structural zero g(-1).  The identities K3(n+1) = K2(n) and
    K4(n-1) = K1(n) hold bitwise by construction.
    """

    K1: np.ndarray
    K2: np.ndarray
    K3: np.ndarray
    K4: np.ndarray
    delta1: np.ndarray
    delta2: np.ndarray
    delta3: np.ndarray
    delta4: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.K1)


class IntegrationError(RuntimeError):
    """A density-matrix invariant broke during time evolution.

    invariant names it: "finite", "trace", "hermiticity" or "eigenvalue".
    """

    def __init__(self, message: str, time: float, drift: float, invariant: str):
        super().__init__(message)
        self.time = time
        self.drift = drift
        self.invariant = invariant


def rate_table(model: OscillatorModel, reservoir: ReservoirParams) -> RateTable:
    """Build K1..K4 (and shifts, when enabled) for every level of the model."""
    dim = model.dim
    gaps = gap_frequencies(model)
    bad = np.flatnonzero(gaps <= 0.0)
    if bad.size:
        n = int(bad[0])
        raise ValueError(
            f"non-positive gap Omega({n}) = {gaps[n]} inside the ladder; "
            "rates undefined"
        )
    half_gamma = 0.5 * reservoir.gamma_scale * gaps**3
    with np.errstate(over="ignore"):
        nbar = 1.0 / np.expm1(reservoir.theta * gaps)

    k1 = np.zeros(dim)
    k2 = half_gamma * nbar
    k3 = np.zeros(dim)
    k4 = half_gamma * (nbar + 1.0)
    k1[1:] = k4[:-1]
    k3[1:] = k2[:-1]

    zeros = np.zeros(dim)
    if reservoir.shifts_enabled:
        d1, d2, d3, d4 = shift_table(model, reservoir)
    else:
        d1 = d2 = d3 = d4 = zeros
    return RateTable(K1=k1, K2=k2, K3=k3, K4=k4,
                     delta1=d1, delta2=d2, delta3=d3, delta4=d4)


def _principal_value(weight, pole: float, cutoff: float) -> float:
    """P.V. of integral_0^cutoff weight(w) / (pole - w) dw.

    Splits at the pole and pairs symmetric points across it, leaving a
    regular integrand for adaptive quadrature.
    """
    from scipy.integrate import quad  # loaded only when shifts are on

    if cutoff <= pole:
        raise ValueError(f"cutoff {cutoff} must exceed the pole {pole}")
    half = min(pole, cutoff - pole)

    def paired(u):
        return (weight(pole + u) - weight(pole - u)) / u

    total, _ = quad(paired, 0.0, half, limit=200)
    total = -total  # 1/(pole - w) = -1/(w - pole)
    if pole - half > 0.0:
        left, _ = quad(lambda w: weight(w) / (pole - w), 0.0, pole - half, limit=200)
        total += left
    if pole + half < cutoff:
        right, _ = quad(lambda w: weight(w) / (pole - w), pole + half, cutoff, limit=200)
        total += right
    return total


def shift_table(
    model: OscillatorModel, reservoir: ReservoirParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Frequency-shift coefficients delta1..delta4 by principal-value quadrature.

    Each integral runs over w in (0, cutoff) with the integrand
    (w^3 / Omega^3) occupancy(w) / (Omega - w); delta1/delta4 use the
    stimulated-plus-spontaneous weight (nbar + 1), delta2/delta3 the thermal
    weight nbar.  delta1 and delta3 at level n sit at the lower gap
    Omega(n-1) and are zero at n = 0 where no lower gap exists.  Requires
    shifts_enabled; with shifts off, rate_table fills the deltas with zeros.
    """
    if not reservoir.shifts_enabled:
        raise ValueError("shift_table requires shifts_enabled")
    cutoff = float(reservoir.shift_cutoff)
    gaps = gap_frequencies(model)
    if cutoff <= np.max(gaps):
        raise ValueError(
            f"shift_cutoff {reservoir.shift_cutoff} omega0 lies below the "
            f"largest gap {np.max(gaps)} omega0"
        )
    theta = reservoir.theta
    half_gamma = 0.5 * reservoir.gamma_scale * gaps**3

    def spontaneous(w):
        return w**3 * (1.0 / np.expm1(theta * w) + 1.0)

    def thermal(w):
        return w**3 / np.expm1(theta * w)

    dim = model.dim
    d1 = np.zeros(dim)
    d2 = np.zeros(dim)
    d3 = np.zeros(dim)
    d4 = np.zeros(dim)
    pv_spont = [ _principal_value(spontaneous, g, cutoff) for g in gaps ]
    pv_therm = [ _principal_value(thermal, g, cutoff) for g in gaps ]
    for n in range(dim):
        scale = half_gamma[n] / (np.pi * gaps[n] ** 3)
        d2[n] = -scale * pv_therm[n]
        d4[n] = -scale * pv_spont[n]
        if n >= 1:
            scale_lo = half_gamma[n - 1] / (np.pi * gaps[n - 1] ** 3)
            d1[n] = scale_lo * pv_spont[n - 1]
            d3[n] = scale_lo * pv_therm[n - 1]
    return d1, d2, d3, d4


def jump_amplitudes(model: OscillatorModel, eta_values: Sequence[float]) -> np.ndarray:
    """Transition amplitudes g(n) = eta(n) f(n+1) sqrt(n+1) for n = 0..dim-1.

    g(n) couples levels n and n+1.  The top entry g(dim-1) is forced to zero:
    it would couple to the first discarded level, and dropping both its loss
    and gain contributions together is what keeps the truncated generator
    trace-preserving.  (For the Morse ladder eta(N-1) = 0 makes this exact
    rather than a truncation choice.)
    """
    etas = np.asarray(eta_values, dtype=float)
    if len(etas) < model.dim:
        raise ValueError(
            f"need eta values for levels 0..{model.dim - 1}, got {len(etas)}"
        )
    n = np.arange(1, model.dim)
    return np.append(etas[:model.dim - 1] * np.sqrt(model.f2[1:model.dim]) * np.sqrt(n), 0.0)


@dataclass(frozen=True)
class _Generator:
    """The number-basis generator as three complex coefficient arrays.

    d rho_mn/dt = same[m, n] rho_mn + below[m, n] rho_{m-1,n-1}
                  + above[m, n] rho_{m+1,n+1},
    with below read for m, n >= 1 and above for m, n <= dim-2.  The shift
    terms are folded in at build time; they are zero without shifts.
    """

    same: np.ndarray
    below: np.ndarray
    above: np.ndarray

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = self.same * rho
        out[1:, 1:] += self.below[1:, 1:] * rho[:-1, :-1]
        out[:-1, :-1] += self.above[:-1, :-1] * rho[1:, 1:]
        return out

    def block(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The generator restricted to coherence order k = m - n.

        The generator couples rho_mn only to rho_{m-1,n-1} and rho_{m+1,n+1},
        so each diagonal rho[n+k, n], k = -(dim-1) .. dim-1, evolves on its
        own under a tridiagonal matrix L_k of size dim - |k|.  Returns
        (rows, cols, L_k) with d/dt rho[rows, cols] = L_k @ rho[rows, cols].
        The generator preserves Hermiticity, so block(-k) is block(k) with
        rows and cols swapped and L_{-k} = conj(L_k), entry for entry.
        """
        index = np.arange(len(self.same) - abs(k))
        rows, cols = index + max(k, 0), index + max(-k, 0)
        diag = self.same[rows, cols]
        below = self.below[rows[1:], cols[1:]]
        above = self.above[rows[:-1], cols[:-1]]
        return rows, cols, np.diag(diag) + np.diag(below, -1) + np.diag(above, 1)

    def blocks(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """block(k) for k = 0 .. dim-1; each k > 0 also stands for -k.

        The mirror order -k is the diagonal (cols, rows) under conj(L_k),
        so these dim blocks cover every entry of rho: the k = 0 diagonal
        once, every other entry through either its own block or the mirror.
        """
        return [self.block(k) for k in range(len(self.same))]


def build_generator(
    model: OscillatorModel, rates: RateTable, eta_values: Sequence[float]
) -> _Generator:
    """Assemble the generator once; reuse across many applications."""
    if rates.dim != model.dim:
        raise ValueError(
            f"rate table dimension {rates.dim} != model dimension {model.dim}"
        )
    g = jump_amplitudes(model, eta_values)
    g2 = g * g
    g2_below = np.concatenate(([0.0], g2[:-1]))   # g(n-1)^2 with g(-1) = 0
    g_below = np.concatenate(([0.0], g[:-1]))
    pair_below = np.outer(g_below, g_below)        # g(m-1) g(n-1)
    pair = np.outer(g, g)                          # g(m) g(n)

    energies = np.diag(hamiltonian(model))
    omega_diff = energies[:, None] - energies[None, :]
    loss = rates.K1 * g2_below + rates.K2 * g2
    gain_up = (rates.K3[:, None] + rates.K3[None, :]) * pair_below
    gain_down = (rates.K4[:, None] + rates.K4[None, :]) * pair

    level_shift = rates.delta1 * g2_below + rates.delta2 * g2
    shift_diff = level_shift[:, None] - level_shift[None, :]
    shift_up = (rates.delta3[:, None] - rates.delta3[None, :]) * pair_below
    shift_down = (rates.delta4[:, None] - rates.delta4[None, :]) * pair
    return _Generator(
        same=-1j * omega_diff - (loss[:, None] + loss[None, :]) - 1j * shift_diff,
        below=gain_up - 1j * shift_up,
        above=gain_down - 1j * shift_down,
    )


def validate_density(rho: np.ndarray, time: float = 0.0) -> dict[str, float]:
    """Check finiteness, trace, Hermiticity and positivity of rho at time.

    A non-finite entry raises IntegrationError naming it, before any
    arithmetic on rho.  Then |Tr rho - 1| must stay within TRACE_ABORT,
    max |rho - rho^H| within HERMITICITY_TOL (wigner_closed's bound too)
    and the least eigenvalue of the Hermitian part above EIG_ABORT_FLOOR,
    or IntegrationError names the breach and the time.
    """
    bad = np.argwhere(~np.isfinite(rho))
    if len(bad):
        n, m = bad[0]
        raise IntegrationError(
            f"density matrix entry ({n}, {m}) is not finite ({rho[n, m]}) at t = {time}",
            time=time, drift=float(abs(rho[n, m])), invariant="finite",
        )
    trace = np.trace(rho)
    trace_err = abs(trace.real - 1.0) + abs(trace.imag)
    herm_err = float(np.max(np.abs(rho - rho.conj().T)))
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
    if trace_err > TRACE_ABORT:
        raise IntegrationError(
            f"trace drift {trace_err:.3e} exceeds {TRACE_ABORT} at t = {time}",
            time=time, drift=trace_err, invariant="trace",
        )
    if herm_err > HERMITICITY_TOL:
        raise IntegrationError(
            f"Hermiticity deviation {herm_err:.3e} exceeds {HERMITICITY_TOL} at t = {time}",
            time=time, drift=herm_err, invariant="hermiticity",
        )
    if min_eig < EIG_ABORT_FLOOR:
        raise IntegrationError(
            f"negative eigenvalue {min_eig:.3e} below {EIG_ABORT_FLOOR} at t = {time}",
            time=time, drift=min_eig, invariant="eigenvalue",
        )
    return {"trace_error": trace_err, "hermiticity_error": herm_err, "min_eigenvalue": min_eig}


@dataclass
class EvolutionResult:
    """Snapshots at the requested sample times plus run diagnostics."""

    times: list[float]
    states: list[np.ndarray]
    diagnostics: dict[str, float] = field(default_factory=dict)


def _expm_stack(a: np.ndarray) -> np.ndarray:
    """exp of every matrix of an (..., n, n) stack by Pade scaling and squaring.

    Each matrix A is scaled by 2^-s, s >= 0 the least integer with
    ||A 2^-s||_1 <= _THETA13, mapped through the [13/13] Pade approximant
    and squared s times (Higham 2005).  s comes from the matrix's own
    1-norm, and every product and solve acts on one matrix at a time, so a
    matrix's exponential is bitwise the same inside any stack as alone.  A
    zero matrix gives I exactly.  Overflow is not trapped: it leaves
    non-finite entries, which the caller checks.
    """
    shape = a.shape
    a = a.reshape((-1,) + shape[-2:])
    c = _PADE13
    eye = np.eye(shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.abs(a).sum(axis=-2).max(axis=-1)
        mantissa, exponent = np.frexp(norms / _THETA13)
        s = np.maximum(exponent - (mantissa == 0.5), 0)  # ceil(log2(.)), clipped at 0
        a = a * np.ldexp(1.0, -s)[:, None, None]
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (c[13] * a6 + c[11] * a4 + c[9] * a2)
                 + c[7] * a6 + c[5] * a4 + c[3] * a2 + c[1] * eye)
        v = (a6 @ (c[12] * a6 + c[10] * a4 + c[8] * a2)
             + c[6] * a6 + c[4] * a4 + c[2] * a2 + eye)
        r = np.linalg.solve(v - u, v + u)
        for j in range(s.max(initial=0)):
            live = s > j
            r[live] = r[live] @ r[live]
    return r.reshape(shape)


def integrate(
    rho0: np.ndarray,
    model: OscillatorModel,
    rates: RateTable,
    eta_values: Sequence[float],
    t_final: float,
    dt: float,
    sample_times: Sequence[float] | None = None,
) -> EvolutionResult:
    """Exact propagation to each sample time, one coherence order pair at a time.

    The generator is linear and time independent and keeps k = m - n (see
    _Generator.blocks), so each sample interval delta_t is bridged by
    U_k = exp(L_k delta_t) on the diagonal of order k and conj(U_k) on the
    diagonal of order -k.  U_k depends on delta_t alone, so it is computed
    once per distinct interval length of this call and reused for every
    interval of that length.  All of them come from one _expm_stack call:
    order 0 has a dim x dim matrix of its own, and orders k and dim - k
    (sizes dim - k and k) share one block-diagonal dim x dim matrix, so each
    interval length takes (dim + 2) // 2 matrices.  Snapshots land exactly
    on the requested times.  dt is accepted and must be finite and
    positive, for callers and configs written for a fixed-step integrator,
    but sets no step.  Every snapshot must pass the density-matrix
    invariants (finiteness, trace, Hermiticity, eigenvalue floor); a breach,
    such as an interval too long for the exponential, raises
    IntegrationError.
    """
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not t_final >= 0.0:
        raise ValueError(f"t_final must be >= 0, got {t_final}")
    if sample_times is None:
        sample_times = [0.0, t_final] if t_final > 0.0 else [0.0]
    samples = [float(t) for t in sample_times]
    if not all(0.0 <= t < np.inf for t in samples) or sorted(samples) != samples:
        raise ValueError(f"sample times must be finite, sorted and non-negative: {samples}")
    if samples and samples[-1] > t_final + 1e-12:
        raise ValueError(
            f"last sample time {samples[-1]} exceeds t_final {t_final}"
        )

    gen = build_generator(model, rates, eta_values)
    rho = np.asarray(rho0, dtype=complex).copy()
    if rho.shape != (model.dim, model.dim):
        raise ValueError(
            f"initial density matrix shape {rho.shape} != ({model.dim}, {model.dim})"
        )

    dim = model.dim
    blocks = gen.blocks()
    # order k (size dim - k) sits in matrix min(k, dim - k): at the top left
    # when k <= dim - k, else after its partner dim - k (size k)
    slots = []
    for k in range(dim):
        lo = k if 2 * k > dim else 0
        slots.append((min(k, dim - k), slice(lo, lo + dim - k)))
    packed = np.zeros(((dim + 2) // 2, dim, dim), dtype=complex)
    for (_, _, block), (p, span) in zip(blocks, slots):
        packed[p, span, span] = block
    steps = sorted({b - a for a, b in zip([0.0] + samples, samples) if b > a})
    with np.errstate(over="ignore"):
        exponents = np.multiply.outer(np.array(steps), packed)
    stacks = _expm_stack(exponents)
    propagators = dict(zip(steps, zip(stacks, stacks.conj())))

    result = EvolutionResult(times=[], states=[])
    max_trace = max_herm = 0.0
    min_eig = 1.0
    t = 0.0
    for target in samples:
        if target > t:
            u, u_conj = propagators[target - t]
            evolved = np.empty_like(rho)
            for k, ((rows, cols, _), (p, span)) in enumerate(zip(blocks, slots)):
                evolved[rows, cols] = u[p, span, span] @ rho[rows, cols]
                if k:
                    evolved[cols, rows] = u_conj[p, span, span] @ rho[cols, rows]
            rho = evolved
        t = target
        checks = validate_density(rho, time=t)
        max_trace = max(max_trace, checks["trace_error"])
        max_herm = max(max_herm, checks["hermiticity_error"])
        min_eig = min(min_eig, checks["min_eigenvalue"])
        result.times.append(t)
        result.states.append(rho.copy())
    result.diagnostics = {
        "max_trace_error": max_trace,
        "max_hermiticity_error": max_herm,
        "min_eigenvalue": min_eig,
    }
    return result


def steady_state(
    model: OscillatorModel,
    rates: RateTable,
    eta_values: Sequence[float],
) -> np.ndarray:
    """Stationary state: the null vector of the population block.

    The k = 0 block of the generator is a real birth-death chain on the
    populations, and the stationary state is diagonal.  Its null vector is
    solved for directly, with the ground-state row of the block replaced by
    the normalisation sum(p) = 1.  Dropping the ground row rather than the
    top one keeps the top rung's own balance equation, which fixes the
    smallest populations (about 1e-13 of the ground state's at theta = 4)
    relative to their neighbours; without it they come out as differences
    of much larger fluxes and lose their relative accuracy.  The result is
    then checked: the generator residual ||d rho/dt||_max must fall below
    STEADY_RESIDUAL_TOL AND the relative rate |dp_n/dt| / p_n below
    STEADY_RELATIVE_TOL on every level with p_n > 0, or RuntimeError names
    the residual reached.  Levels whose population underflows to zero
    (extreme cold) have no relative rate; the absolute residual covers them.
    """
    if not np.any(rates.K4[:-1]):
        raise ValueError("steady state requires nonzero damping")
    gen = build_generator(model, rates, eta_values)
    _, _, chain = gen.block(0)
    system = chain.real.copy()
    system[0, :] = 1.0
    rhs = np.zeros(model.dim)
    rhs[0] = 1.0
    populations = np.linalg.solve(system, rhs)
    rho = np.diag(populations / np.sum(populations)).astype(complex)

    derivative = gen.apply(rho)
    residual = float(np.max(np.abs(derivative)))
    p = np.diag(rho).real
    occupied = p > 0.0
    relative = float(np.max(np.abs(np.diag(derivative).real[occupied]) / p[occupied]))
    if not (residual < STEADY_RESIDUAL_TOL and relative < STEADY_RELATIVE_TOL):
        raise RuntimeError(
            f"steady state residual {residual:.3e} (tolerance {STEADY_RESIDUAL_TOL}), "
            f"relative rate {relative:.3e} (tolerance {STEADY_RELATIVE_TOL})"
        )
    return rho


def detailed_balance_populations(rates: RateTable) -> np.ndarray:
    """Stationary populations predicted by rung-by-rung flux balance.

    Upward flux from n equals downward flux from n+1 when
    p(n+1)/p(n) = K2(n)/K1(n+1), which is the Boltzmann factor over the local
    gap.  This is an independent cross-check route for the evolved steady
    state, not a substitute for it.
    """
    ratios = rates.K2[:-1] / rates.K1[1:]
    log_p = np.concatenate(([0.0], np.cumsum(np.log(ratios))))
    p = np.exp(log_p - np.max(log_p))
    return p / np.sum(p)


def purity(rho: np.ndarray) -> float:
    """Tr rho^2 (real part; imaginary residue is round-off for Hermitian rho)."""
    return float(np.einsum("ij,ji->", rho, rho).real)


def mean_occupation(rho: np.ndarray) -> float:
    """<n> = sum_n n rho_nn."""
    return float(np.dot(np.arange(rho.shape[0]), np.diag(rho).real))
