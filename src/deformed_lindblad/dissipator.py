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
K3(n+1) = K2(n) and K4(n-1) = K1(n), which every RateTable holds by
construction, make trace conservation exact.

Optional frequency-shift coefficients delta1..delta4 (Stark and Lamb type)
enter as commutator terms that perturb off-diagonal elements only.  They are
principal-value integrals over the bath frequencies.  The thermal ones
(delta2, delta3) converge, but the spontaneous part of delta4 (and delta1)
grows like the cube of an ultraviolet cutoff, so the shifts are on exactly
when a cutoff is given, and off by default.
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

The negativity is not always transient.  Away from the defaults some
coherence blocks L_k (see _Generator.block) have eigenvalues of positive
real part, so those coherences grow exponentially: the largest real part
is 20.0 (k = 11) at 15 levels, theta = 0.5 and gamma_scale = 5; 5.28
(k = 11) at theta = 0.5 with the default gamma_scale; 0.299 (k = 13) at
theta = 4 and gamma_scale = 5; and 0.192 (k = 28) at 30 levels with the
default reservoir.  At 15 levels with the default reservoir none is above
round-off.  Such runs cross EIG_ABORT_FLOOR early (an even cat at
theta = 0.5, gamma_scale = 5 reaches -37.7 at t = 0.5) and overflow later.

Large shift cutoffs make the blocks too stiff for one double-precision
exponential: the packed blocks' largest 1-norm ||L||_1 is 9.0 at 15
levels and the default reservoir, 1.0e5 at cutoff 40, 2.0e8 at 500 and
1.6e9 at 1e3, and the Pade kernel is accurate to 2 eps max(1, h ||L||_1)
of max |U| over an interval h.  integrate refuses, before any exponential,
an interval where that exceeds TRACE_ABORT, so with their default samples
the docs and aocs runs raise above cutoff 412 and the even cat above 454,
where cutoffs 1e3 to 1e5 used to return exponentials off by 1.1e-7 to
0.14 of max |U|.
"""

from __future__ import annotations

import functools
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
    shift_cutoff (in units of omega0) turns the frequency shifts on: the
    spontaneous shift delta4 grows like the cube of the upper limit (delta2
    converges), so without a cutoff there are no shifts.
    """

    theta: float
    gamma_scale: float = DEFAULT_GAMMA_SCALE
    shift_cutoff: float | None = None

    def __post_init__(self) -> None:
        if not self.theta > 0.0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if not 0.0 <= self.gamma_scale < np.inf:
            raise ValueError(f"gamma_scale must be finite and >= 0, got {self.gamma_scale}")
        if self.shift_cutoff is not None and not np.isfinite(self.shift_cutoff):
            raise ValueError(f"shift_cutoff must be finite, got {self.shift_cutoff}")


def _gap_below(per_gap: np.ndarray) -> np.ndarray:
    """per_gap(n - 1) at each level n, 0 at n = 0 (read only)."""
    below = np.concatenate(([0.0], per_gap[:-1]))
    below.setflags(write=False)
    return below


@dataclass(frozen=True)
class RateTable:
    """Absorption rate K2, emission rate K4 and their shifts delta2, delta4
    of each gap n <-> n+1, n = 0..dim-1, in units of omega0.

    K1(n) = K4(n-1), K3(n) = K2(n-1), delta1(n) = -delta4(n-1) and
    delta3(n) = -delta2(n-1) are derived on access as read-only arrays, 0
    at n = 0 (where they multiply the structural zero g(-1)), so every
    table, an edited one too, keeps the identities trace conservation needs.

    A table also keeps the generator its last integrate or steady_state
    call used, keyed by the bytes of everything build_generator builds it
    from: model.dim, model.f2, the etas, K2, K4, delta2 and delta4.  The
    calls of one study under one table therefore build it once, and the
    generator keeps their propagators (see integrate); an array edited in
    place, other etas or another model miss and rebuild it.  Every new
    table starts without one, dataclasses.replace included, and a table
    holds at most one.
    """

    K2: np.ndarray
    K4: np.ndarray
    delta2: np.ndarray
    delta4: np.ndarray
    _generator: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    K1 = property(lambda self: _gap_below(self.K4))
    K3 = property(lambda self: _gap_below(self.K2))
    delta1 = property(lambda self: _gap_below(-self.delta4))
    delta3 = property(lambda self: _gap_below(-self.delta2))

    @property
    def dim(self) -> int:
        return len(self.K4)


class IntegrationError(RuntimeError):
    """A density-matrix invariant broke during time evolution.

    invariant names it: "finite", "trace", "hermiticity" or "eigenvalue"
    for a snapshot, or "exponential" for a sample interval integrate
    refuses before propagating, because the exponential kernel cannot
    resolve it (drift is then the kernel's accuracy, time the interval's end).
    """

    def __init__(self, message: str, time: float, drift: float, invariant: str):
        super().__init__(message)
        self.time = time
        self.drift = drift
        self.invariant = invariant


def rate_table(model: OscillatorModel, reservoir: ReservoirParams) -> RateTable:
    """Build K2 and K4 (and shifts, given a cutoff) for every gap of the model."""
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
    if reservoir.shift_cutoff is not None:
        d2, d4 = shift_table(model, reservoir)
    else:
        d2, d4 = np.zeros(model.dim), np.zeros(model.dim)
    return RateTable(K2=half_gamma * nbar, K4=half_gamma * (nbar + 1.0), delta2=d2, delta4=d4)


def check_shift_cutoff(model: OscillatorModel, reservoir: ReservoirParams) -> np.ndarray:
    """Refuse a shift cutoff c the shifts cannot take, else return the part
    of delta4 - delta2 that grows like c^3, per gap Omega: -gamma_scale /
    (2 pi) times the principal value over w in (0, c) of w^3 / (Omega - w),
    Omega^3 ln(Omega / (c - Omega)) - c (c^2/3 + Omega c/2 + Omega^2).  c
    must exceed the largest gap, each principal value's pole, and keep that
    part finite (below about 8.1e102 at the default gamma_scale)."""
    gaps = gap_frequencies(model)
    cutoff = float(reservoir.shift_cutoff)
    if not cutoff > np.max(gaps):
        raise ValueError(
            f"shift_cutoff must exceed the largest gap {float(np.max(gaps))} omega0 "
            f"({model.dim} levels), got {cutoff}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        cube = gaps**3 * np.log(gaps / (cutoff - gaps)) - cutoff * (
            cutoff * cutoff / 3.0 + gaps * cutoff / 2.0 + gaps**2
        )
        spontaneous = -(reservoir.gamma_scale / (2.0 * np.pi) * cube)
    if not np.all(np.isfinite(spontaneous)):
        raise ValueError(
            f"shift_cutoff {cutoff} is too large: the spontaneous shift delta4, which "
            f"grows like its cube, is not finite at gamma_scale {reservoir.gamma_scale}"
        )
    return spontaneous


def check_generator_shifts(
    model: OscillatorModel, reservoir: ReservoirParams, eta_values: Sequence[float]
) -> None:
    """Refuse a shift cutoff check_shift_cutoff refuses, or one at which the
    generator's shift terms (_shift_terms) are not finite.

    The terms are the products build_generator forms, taken with delta4 as
    its spontaneous part and delta2 as zero, so no quadrature runs.  The
    products near the float range only where |delta4| is near 1e300, and
    there the thermal delta2, which is independent of the cutoff past
    64 / theta, is below half an ulp of delta4 unless theta is below about
    1e-95: delta4 is then its spontaneous part bit for bit, and the check
    refuses exactly the cutoffs whose generator is not finite.
    """
    spontaneous = check_shift_cutoff(model, reservoir)
    g = jump_amplitudes(model, eta_values)
    with np.errstate(all="ignore"):
        terms = _shift_terms(g * g, np.outer(g, g), np.zeros_like(spontaneous), spontaneous)
    if not all(np.isfinite(term).all() for term in terms):
        raise ValueError(
            f"shift_cutoff {float(reservoir.shift_cutoff)} is too large: the generator's "
            "shift terms, which grow like its cube, are not finite at gamma_scale "
            f"{reservoir.gamma_scale}"
        )


def shift_table(model: OscillatorModel, reservoir: ReservoirParams) -> tuple[np.ndarray, np.ndarray]:
    """Frequency shifts (delta2, delta4) of every gap, as principal values.

    delta2 and delta4 are -gamma_scale / (2 pi) times the principal value
    over w in (0, c), c the cutoff, of T(w) / (Omega - w), resp.
    (T(w) + w^3) / (Omega - w), at each gap Omega(n), T(w) = w^3 nbar(w).
    The w^3 part grows like c^3 (check_shift_cutoff); delta2 converges.  T
    is below 1e-22 of its peak past theta w = 64, so delta2 integrates over
    (0, u), u = min(c, 64 / theta), and is the same at every cutoff past
    64 / theta.  For each gap below u, T(Omega) is subtracted from T(w) and
    T(Omega) ln(Omega / (u - Omega)) added back; a gap at or past u has no
    pole inside (0, u).  Within Omega / 4 of a gap, where the subtraction
    cancels (0/0 on the gap itself), the quotient is taken with its factor
    w - Omega divided out exactly, so a node on or next to a gap costs no
    digits.  What remains is one composite Gauss-Legendre rule of 21 panels
    of 32 nodes.  Its integrand's only singularities are the poles of nbar
    at w = 2 pi i k / theta, k != 0, and a panel is at most 64 / (21 theta)
    < pi / theta wide, so they lie over 4 half-widths off the axis and the
    rule's error (about 8.4^-64) is far below rounding.  delta1 and delta3
    are these read at the gap below with the opposite sign (see RateTable).
    A cutoff check_shift_cutoff refuses raises its ValueError; without a
    cutoff, rate_table fills the deltas with zeros.
    """
    if reservoir.shift_cutoff is None:
        raise ValueError("shift_table requires a shift_cutoff")
    spontaneous = check_shift_cutoff(model, reservoir)
    gaps = gap_frequencies(model)
    theta = reservoir.theta
    reach = min(float(reservoir.shift_cutoff), 64.0 / theta)
    thermal = np.zeros_like(gaps)
    if reach > 0.0:  # at theta = inf, nbar and with it T vanish
        x, weights = np.polynomial.legendre.leggauss(32)
        half = 0.5 * reach / 21
        w = (half * (2 * np.arange(21)[:, None] + 1 + x)).ravel()
        below = gaps < reach
        pole = np.zeros_like(gaps)
        pole[below] = gaps[below] ** 3 / np.expm1(theta * gaps[below])
        nbar = 1.0 / np.expm1(theta * w)
        gap = gaps[:, None]
        step = w - gap
        # T(w) - T(Omega) = (w - Omega) nbar(w) [w^2 + w Omega + Omega^2
        # - Omega^3 (nbar(Omega) + 1) expm1(theta (w - Omega)) / (w - Omega)],
        # whose last quotient (theta at w = Omega) loses no digits; taken
        # near a gap below u, where the plain difference cancels
        near = below[:, None] & (np.abs(step) < 0.25 * gap)
        slope = np.divide(
            np.expm1(theta * step), step, out=np.full_like(step, theta), where=step != 0.0
        )
        regular = nbar * ((pole + gaps**3)[:, None] * slope - (w * w + w * gap + gap * gap))
        np.divide(w**3 * nbar - pole[:, None], -step, out=regular, where=~near)
        thermal = regular @ np.tile(half * weights, 21)
        thermal[below] += pole[below] * np.log(gaps[below] / (reach - gaps[below]))
    delta2 = -reservoir.gamma_scale / (2.0 * np.pi) * thermal
    return delta2, delta2 + spontaneous


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
    build_generator makes the arrays read only, so a generator stays the
    one it was built as, and it keeps the (U, conj U) stack of its last
    propagators call, keyed by the interval lengths alone (read only; at
    most one).
    """

    same: np.ndarray
    below: np.ndarray
    above: np.ndarray
    _propagators: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def packed(self) -> np.ndarray:
        """L_k for k = 0 .. dim-1 in the (P, dim, dim) stack integrate exponentiates.

        Matrix p holds L_p and L_{dim-p} on its diagonal, in the slots
        _packed_layout(dim) gives them; every other entry is zero.
        """
        layout = _packed_layout(len(self.same))
        order, cols = layout.order, layout.cols
        count, dim = order.shape
        rows = cols + order
        packed = np.zeros((count, dim, dim), dtype=complex)
        p, j = np.nonzero(order >= 0)
        packed[p, j, j] = self.same[rows[p, j], cols[p, j]]
        # slots j and j + 1 holding neighbouring entries of one order
        p, j = np.nonzero((order[:, 1:] >= 0) & (order[:, 1:] == order[:, :-1]))
        packed[p, j + 1, j] = self.below[rows[p, j + 1], cols[p, j + 1]]
        packed[p, j, j + 1] = self.above[rows[p, j], cols[p, j]]
        return packed

    def propagators(self, samples: list[float]) -> dict[float, np.ndarray]:
        """The (2, P, dim, dim) stack of U = exp(h L_p) and conj(U) per
        distinct interval length h between 0 and the sorted samples.

        A call whose lengths match the last stack's returns it; otherwise
        _refuse_unresolved runs first, so a refused stack is never kept,
        and one _expm_stack call computes the new stack, which replaces
        the old.
        """
        steps = tuple(sorted({b - a for a, b in zip([0.0] + samples, samples) if b > a}))
        stacks = self._propagators.get(steps)
        if stacks is None:
            blocks = self.packed()
            _refuse_unresolved(blocks, samples)
            self._propagators.clear()
            stacks = _expm_stack(np.multiply.outer(np.array(steps), blocks))
            stacks = np.stack([stacks, stacks.conj()], axis=1)
            stacks.setflags(write=False)
            self._propagators[steps] = stacks
        return dict(zip(steps, stacks))


@dataclass(frozen=True)
class _Layout:
    """Where each entry of rho sits in integrate's packed (2, P, dim) stack.

    order and cols are (P, dim): slot j of row p in the first half holds
    rho[cols + order, cols] of coherence order order >= 0, and the same
    slot in the second half holds the mirror rho[cols, cols + order] of
    order -order; order is -1 in an unused slot.  gather (2, P, dim) is
    each slot's flat index into rho padded with one zero, dim * dim in an
    unused slot, and scatter (dim * dim,) is each entry's flat index into
    the stack.
    """

    order: np.ndarray
    cols: np.ndarray
    gather: np.ndarray
    scatter: np.ndarray


@functools.lru_cache(maxsize=None)
def _packed_layout(dim: int) -> _Layout:
    """The packed slot layout for dim levels, built once per dim (read only).

    Row p of P = (dim + 2) // 2 holds order p in slots 0 .. dim - p - 1 and
    order dim - p in the last p slots.  Order 0 has no mirror, and at even
    dim order dim / 2 would meet itself, so those slots stay unused: every
    entry of rho has exactly one slot.
    """
    p = np.arange((dim + 2) // 2)[:, None]
    j = np.arange(dim)
    low = j < dim - p
    order = np.where(low, p, dim - p)
    order[~low & (order == p)] = -1
    cols = np.where(low, j, j - (dim - p))
    pad = dim * dim
    gather = np.stack([
        np.where(order >= 0, (cols + order) * dim + cols, pad),
        np.where(order > 0, cols * dim + cols + order, pad),
    ])
    live = gather.ravel() < pad
    scatter = np.empty(pad, dtype=np.intp)
    scatter[gather.ravel()[live]] = np.flatnonzero(live)
    layout = _Layout(order=order, cols=cols, gather=gather, scatter=scatter)
    for array in vars(layout).values():
        array.setflags(write=False)
    return layout


def _shift_terms(
    g2: np.ndarray, pair: np.ndarray, d2: np.ndarray, d4: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The generator's three real shift products: the level-shift difference
    of rho_mn, and the delta2 and delta4 differences across gaps m and n
    times g(m) g(n) (pair), which enter below and above."""
    level_shift = d2 * g2 + _gap_below(-d4 * g2)
    return (
        level_shift[:, None] - level_shift[None, :],
        (d2[:, None] - d2[None, :]) * pair,
        (d4[:, None] - d4[None, :]) * pair,
    )


def build_generator(
    model: OscillatorModel, rates: RateTable, eta_values: Sequence[float]
) -> _Generator:
    """Assemble a fresh generator, its arrays read only.

    It runs under np.errstate(all="ignore"), so no input makes it warn: a
    rate or shift past the float range leaves non-finite entries, which
    integrate refuses and SimulationConfig keeps shift cutoffs from
    reaching (check_generator_shifts).  integrate and steady_state take the
    table's kept generator (RateTable) rather than calling this again.
    """
    if rates.dim != model.dim:
        raise ValueError(
            f"rate table dimension {rates.dim} != model dimension {model.dim}"
        )
    k2, k4 = rates.K2, rates.K4
    with np.errstate(all="ignore"):
        g = jump_amplitudes(model, eta_values)
        g2 = g * g
        pair = np.outer(g, g)                      # g(m) g(n)
        # each level loses through its own gap and the gap below
        energies = np.diag(hamiltonian(model))
        omega_diff = energies[:, None] - energies[None, :]
        loss = k2 * g2 + _gap_below(k4 * g2)
        shift_diff, shift_up, shift_down = _shift_terms(g2, pair, rates.delta2, rates.delta4)
        # the gain across gaps m and n: absorption feeds rho_{m+1,n+1} from
        # rho_mn, one level down and right in below, and emission the reverse
        up = (k2[:, None] + k2[None, :]) * pair + 1j * shift_up
        below = np.zeros_like(up)
        below[1:, 1:] = up[:-1, :-1]
        gen = _Generator(
            same=-1j * omega_diff - (loss[:, None] + loss[None, :]) - 1j * shift_diff,
            below=below,
            above=(k4[:, None] + k4[None, :]) * pair - 1j * shift_down,
        )
    for array in (gen.same, gen.below, gen.above):
        array.setflags(write=False)
    return gen


def _table_generator(
    model: OscillatorModel, rates: RateTable, eta_values: Sequence[float]
) -> _Generator:
    """rates' kept generator of (model, rates, eta_values), built anew when
    the bytes it is built from changed (see RateTable)."""
    key = (model.dim, model.f2.tobytes(), np.asarray(eta_values, dtype=float).tobytes()) + tuple(
        array.tobytes() for array in (rates.K2, rates.K4, rates.delta2, rates.delta4)
    )
    gen = rates._generator.get(key)
    if gen is None:
        gen = build_generator(model, rates, eta_values)
        rates._generator.clear()
        rates._generator[key] = gen
    return gen


def validate_density(
    rho: np.ndarray, time: float | Sequence[float] = 0.0
) -> dict[str, float]:
    """Check finiteness, trace, Hermiticity and positivity of each state of a stack.

    rho is an (S, N, N) stack of states, or one (N, N) state as a stack of
    one; time is one time per state, or one time for all.  A non-finite
    entry raises IntegrationError naming it, and no arithmetic runs on its
    state or any later one.  Then |Tr rho - 1| must stay within TRACE_ABORT,
    max |rho - rho^H| within HERMITICITY_TOL (wigner_closed's bound too)
    and the least eigenvalue of the Hermitian part above EIG_ABORT_FLOOR,
    or IntegrationError names the breach and the time.  The earliest state
    that breaks an invariant raises, with the invariants checked in that
    order, so each state raises what it would raise alone.  Returns the
    largest trace and Hermiticity errors and the least eigenvalue over the
    stack as max_trace_error, max_hermiticity_error and min_eigenvalue, the
    names metadata.txt prints them under.
    """
    stack = np.asarray(rho)
    stack = stack.reshape((-1,) + stack.shape[-2:])
    times = np.broadcast_to(np.asarray(time, dtype=float), len(stack))
    finite = np.isfinite(stack).all(axis=(1, 2))
    clean = int(np.argmin(finite)) if not finite.all() else len(stack)
    checked = stack[:clean]
    adjoint = checked.conj().transpose(0, 2, 1)
    # summed along contiguous rows, in the order np.trace sums one state
    trace = np.ascontiguousarray(checked.diagonal(axis1=1, axis2=2)).sum(axis=1)
    trace_err = np.abs(trace.real - 1.0) + np.abs(trace.imag)
    herm_err = np.abs(checked - adjoint).max(axis=(1, 2))
    # halved before the sum, so no finite state overflows
    min_eig = np.linalg.eigvalsh(0.5 * checked + 0.5 * adjoint).min(axis=1)
    broken = (trace_err > TRACE_ABORT) | (herm_err > HERMITICITY_TOL) | (min_eig < EIG_ABORT_FLOOR)
    first = int(np.argmax(broken)) if broken.any() else clean
    if first < len(stack):
        t = float(times[first])
        if first == clean:
            n, m = np.argwhere(~np.isfinite(stack[first]))[0]
            value = stack[first, n, m]
            raise IntegrationError(
                f"density matrix entry ({n}, {m}) is not finite ({value}) at t = {t}",
                time=t, drift=float(abs(value)), invariant="finite",
            )
        if trace_err[first] > TRACE_ABORT:
            raise IntegrationError(
                f"trace drift {trace_err[first]:.3e} exceeds {TRACE_ABORT} at t = {t}",
                time=t, drift=float(trace_err[first]), invariant="trace",
            )
        if herm_err[first] > HERMITICITY_TOL:
            raise IntegrationError(
                f"Hermiticity deviation {herm_err[first]:.3e} exceeds {HERMITICITY_TOL} at t = {t}",
                time=t, drift=float(herm_err[first]), invariant="hermiticity",
            )
        raise IntegrationError(
            f"negative eigenvalue {min_eig[first]:.3e} below {EIG_ABORT_FLOOR} at t = {t}",
            time=t, drift=float(min_eig[first]), invariant="eigenvalue",
        )
    return {
        "max_trace_error": float(trace_err.max(initial=0.0)),
        "max_hermiticity_error": float(herm_err.max(initial=0.0)),
        "min_eigenvalue": float(min_eig.min(initial=np.inf)),
    }


@dataclass(frozen=True)
class EvolutionResult:
    """integrate's snapshots, one per sample time in the caller's order, and
    the validate_density values over all of them."""

    states: list[np.ndarray]
    diagnostics: dict[str, float]


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


def _refuse_unresolved(packed: np.ndarray, samples: list[float]) -> None:
    """Raise IntegrationError for the first sample interval h whose stack the
    Pade kernel cannot resolve: one whose accuracy, 2 eps max(1, h ||L_p||_1)
    of max |U| (Higham 2005), exceeds TRACE_ABORT for the packed matrix L_p
    of largest 1-norm.  L_p holds coherence orders p and dim - p.  A
    generator that overflowed to NaN has a NaN norm and is refused too."""
    norms = np.abs(packed).sum(axis=-2).max(axis=-1)
    p = int(np.argmax(norms))  # the first NaN, if any
    dim = packed.shape[-1]
    for start, end in zip([0.0] + samples, samples):
        norm = (end - start) * float(norms[p])  # a Python float: inf, not a warning
        accuracy = 2.0 * np.finfo(float).eps * np.maximum(1.0, norm)
        if not accuracy <= TRACE_ABORT:
            orders = " and ".join(str(k) for k in sorted({p, dim - p} - {dim}))
            raise IntegrationError(
                f"the exponential cannot resolve interval {start} to {end}: "
                f"coherence orders {orders} have ||h L||_1 = {norm:.3e}, so its accuracy "
                f"2 eps max(1, ||h L||_1) = {accuracy:.3e} is not within {TRACE_ABORT}",
                time=end, drift=float(accuracy), invariant="exponential",
            )


def integrate(
    rho0: np.ndarray,
    model: OscillatorModel,
    rates: RateTable,
    eta_values: Sequence[float],
    t_final: float,
    dt: float,
    sample_times: Sequence[float],
) -> EvolutionResult:
    """Exact propagation to each sample time, every coherence order at once.

    The generator is linear and time independent and keeps k = m - n (see
    _Generator.block), so each sample interval delta_t is bridged by
    U_k = exp(L_k delta_t) on the diagonal of order k and conj(U_k) on the
    diagonal of order -k.  U_k depends on delta_t alone, so it is computed
    once per distinct interval length and reused for every interval of that
    length.  All of them come from one _expm_stack call: order 0 has a
    dim x dim matrix of its own, and orders k and dim - k (sizes dim - k
    and k) share one block-diagonal dim x dim matrix, so each interval
    length takes P = (dim + 2) // 2 matrices (_Generator.packed).  rho is
    gathered once into the matching (2, P, dim) slot stack
    (_packed_layout), the orders k >= 0 in the first half and their
    mirrors in the second, and each interval is one stacked product of
    that stack with U and conj(U).  Every snapshot is read back out of its
    stack with one index at the end.  Snapshots land exactly on the
    sample times, which must be sorted, finite, non-negative and at most
    t_final; the result holds one state per sample, in their order.

    Before any exponential is taken, an interval the kernel cannot resolve
    raises IntegrationError (invariant "exponential"), naming the interval,
    the coherence orders of the worst matrix and its 1-norm ||h L||_1: the
    kernel's accuracy 2 eps max(1, ||h L||_1) must stay within TRACE_ABORT,
    so h ||L||_1 up to about 2.25e8 (||L||_1 is 9.0 at the defaults and
    1.6e9 at a shift cutoff of 1e3).  A generator with a NaN entry has a
    NaN norm and is refused the same way.

    The generator is the one rates keeps (see RateTable), built only when
    its inputs' bytes changed, and it keeps the (U, conj U) stack of its
    last call, keyed by the tuple of distinct interval lengths
    (_Generator.propagators).  A call under the same generator and lengths
    reuses both instead of calling build_generator and _expm_stack, so its
    states are bitwise those under a fresh table; a rates array edited in
    place, other etas or another model rebuild the generator, other
    intervals recompute the stack, and the new one replaces the old.  A
    refused stack is never kept, so a repeated call raises again.

    dt is accepted and must be finite and positive, for callers and configs
    written for a fixed-step integrator, but sets no step.  All snapshots
    are then checked in one validate_density pass (finiteness, trace,
    Hermiticity, eigenvalue floor), whose values the result's diagnostics
    are; the earliest breach raises IntegrationError.  Overflow in later
    intervals stays silent: it only yields non-finite snapshots after the
    one that raises.
    """
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not t_final >= 0.0:
        raise ValueError(f"t_final must be >= 0, got {t_final}")
    samples = [float(t) for t in sample_times]
    if not all(0.0 <= t < np.inf for t in samples) or sorted(samples) != samples:
        raise ValueError(f"sample times must be finite, sorted and non-negative: {samples}")
    if not samples:
        raise ValueError("sample_times must contain at least one time")
    if samples[-1] > t_final + 1e-12:
        raise ValueError(
            f"last sample time {samples[-1]} exceeds t_final {t_final}"
        )

    gen = _table_generator(model, rates, eta_values)
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (model.dim, model.dim):
        raise ValueError(
            f"initial density matrix shape {rho.shape} != ({model.dim}, {model.dim})"
        )

    dim = model.dim
    layout = _packed_layout(dim)
    with np.errstate(over="ignore", invalid="ignore"):
        propagators = gen.propagators(samples)
        packed = np.append(rho.ravel(), 0.0)[layout.gather][..., None]
        snapshots = np.empty((len(samples),) + packed.shape, dtype=complex)
        t = 0.0
        for i, target in enumerate(samples):
            if target > t:
                packed = propagators[target - t] @ packed
            t = target
            snapshots[i] = packed
    states = np.take(snapshots.reshape(len(samples), -1), layout.scatter, axis=1).reshape(-1, dim, dim)
    return EvolutionResult(states=list(states), diagnostics=validate_density(states, samples))


def _birth_death_populations(up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """Stationary populations of the birth-death chain with rate up[n] from
    n to n+1 and down[n] back: the product of the rung ratios up / down,
    summed in logs and normalised.  up = 0 (a cold reservoir's underflowed
    absorption, or a gap with no coupling) gives log 0 = -inf and zero
    population above it.  With no down rate there is no flux to balance."""
    if not np.any(down):
        raise ValueError("steady state requires nonzero damping")
    ratios = np.divide(up, down, out=np.zeros_like(up), where=up > 0.0)
    with np.errstate(divide="ignore"):
        log_p = np.concatenate(([0.0], np.cumsum(np.log(ratios))))
    p = np.exp(log_p - np.max(log_p))
    return p / np.sum(p)


def steady_state(model: OscillatorModel, rates: RateTable, eta_values: Sequence[float]) -> np.ndarray:
    """Stationary state: the rung balance of the generator's population chain.

    The k = 0 block of the generator is a birth-death chain on the
    populations, with rates 2 K2(n) g(n)^2 up and 2 K4(n) g(n)^2 down across
    gap n (the diagonals of below and above), and the stationary state is
    diagonal with its _birth_death_populations.  The generator residual
    ||d rho/dt||_max must then fall below STEADY_RESIDUAL_TOL AND the
    relative rate |dp_n/dt| / p_n below STEADY_RELATIVE_TOL on every level
    with a normal p_n (at least the smallest normal float), or RuntimeError
    names the residual reached.  A level whose population underflows
    (extreme cold) or lies above an uncoupled gap (eta = 0) is zero, and a
    subnormal one has lost bits of its rate products; the absolute residual
    covers both.  The generator is the one rates keeps (see RateTable), so
    a study's integrate calls and its steady state build it once.
    """
    gen = _table_generator(model, rates, eta_values)
    p = _birth_death_populations(np.diagonal(gen.below)[1:].real, np.diagonal(gen.above)[:-1].real)
    rho = np.diag(p).astype(complex)
    derivative = gen.apply(rho)
    residual = float(np.max(np.abs(derivative)))
    normal = p >= np.finfo(float).tiny
    relative = float(np.max(np.abs(np.diag(derivative).real[normal]) / p[normal]))
    if not (residual < STEADY_RESIDUAL_TOL and relative < STEADY_RELATIVE_TOL):
        raise RuntimeError(
            f"steady state residual {residual:.3e} (tolerance {STEADY_RESIDUAL_TOL}), "
            f"relative rate {relative:.3e} (tolerance {STEADY_RELATIVE_TOL})"
        )
    return rho


def detailed_balance_populations(rates: RateTable) -> np.ndarray:
    """Stationary populations predicted by rung-by-rung flux balance.

    Upward flux from n equals downward flux from n+1 when p(n+1)/p(n) =
    K2(n)/K4(n), absorption over emission across gap n: the Boltzmann factor
    over that gap.  This is the same product steady_state takes, read from
    the rates rather than the generator.  Without damping there is no flux
    to balance: ValueError, as from steady_state.
    """
    return _birth_death_populations(rates.K2[:-1], rates.K4[:-1])


def purity(rho: np.ndarray) -> float:
    """Tr rho^2 (real part; imaginary residue is round-off for Hermitian rho)."""
    return float(np.einsum("ij,ji->", rho, rho).real)


def mean_occupation(rho: np.ndarray) -> float:
    """<n> = sum_n n rho_nn."""
    return float(np.dot(np.arange(rho.shape[0]), np.diag(rho).real))
