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
only apply to the untruncated sums.

For real alpha >= 0 all three share one form, |c_n|^2 = w_n e^(n s(alpha)) / Z
with alpha-free weights w_n, so <n> increases with s.  alpha_for_mean_n uses
it to hit a target mean excitation reproducibly: it reads the weights off one
reference state, solves for s by Newton and maps s back to alpha.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from typing import Callable

import numpy as np

from .fock_algebra import OscillatorModel
from .morse import MorseParams

__all__ = [
    "aocs",
    "docs",
    "docs_from_alpha",
    "even_cat",
    "mean_excitation",
    "alpha_for_mean_n",
    "to_density",
]

# |<n> - target| / max(1, target) that the last state alpha_for_mean_n builds
# must meet; its Newton solve and its map back to alpha run to round-off
MEAN_N_TOL = 1e-12
# builder calls and Newton steps after which alpha_for_mean_n gives up
_MAX_BUILDS = 64
_NEWTON_STEPS = 200
_EPS = sys.float_info.epsilon


def _normalized(amplitudes: np.ndarray, label: str) -> np.ndarray:
    """The unit-norm complex amplitudes c_n over the truncated number basis."""
    norm = np.linalg.norm(amplitudes)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"cannot normalize the {label} state: its norm is {norm}")
    return amplitudes / norm


def aocs(alpha: complex, model: OscillatorModel) -> np.ndarray:
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


def docs(zeta: complex, params: MorseParams) -> np.ndarray:
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


def docs_from_alpha(alpha: complex, params: MorseParams) -> np.ndarray:
    """docs with zeta = e^(i phi) tan(|alpha| chi) derived from alpha."""
    mag = abs(alpha)
    if mag * params.chi >= math.pi / 2:
        raise ValueError(
            f"|alpha| = {mag} exceeds the displacement parameterization "
            f"(requires |alpha| chi < pi/2)"
        )
    phase = cmath.exp(1j * cmath.phase(alpha)) if mag > 0 else 1.0
    return docs(phase * math.tan(mag * params.chi), params)


def even_cat(alpha: complex, model: OscillatorModel) -> np.ndarray:
    """Even superposition of aocs(alpha) and aocs(-alpha).

    Odd amplitudes cancel exactly, so the state populates even levels only.
    aocs(-alpha) is (-1)^n aocs(alpha) (negation is exact and rounding is
    sign-symmetric), so the sum is built from one aocs call: aocs(alpha) +
    aocs(alpha) on even levels and 0 on odd ones.  The values equal the
    two-call sum; for real alpha >= 0 its bits do too (elsewhere a zero
    part may differ in sign).
    """
    plus = aocs(alpha, model)
    cat = np.zeros_like(plus)
    cat[::2] = plus[::2] + plus[::2]
    return _normalized(cat, "even_cat")


def mean_excitation(state: np.ndarray) -> float:
    """<n> = sum_n n |c_n|^2 of the amplitudes c_n."""
    weights = np.abs(state) ** 2
    return float(np.dot(np.arange(len(state)), weights))


def alpha_for_mean_n(
    target: float,
    builder: Callable[[float, OscillatorModel], np.ndarray],
    model: OscillatorModel,
    alpha_max: float | None = None,
) -> float:
    """Solve <n>(alpha) = target for real alpha >= 0 below alpha_max.

    For real alpha >= 0 each constructor has |c_n|^2 = w_n e^(n s(alpha)) / Z
    with weights w_n that do not depend on alpha, so <n> = d log Z / ds and
    d<n>/ds = Var(n) > 0 (the f-deformed coherent states of V. I. Man'ko,
    G. Marmo, E. C. G. Sudarshan and F. Zaccaria, Phys. Scr. 55 (1997) 528;
    R. L. de Matos Filho and W. Vogel, Phys. Rev. A 54 (1996) 4560).  The
    builder stays opaque:

    1. One reference state, built at alpha = 1 (or just below alpha_max),
       gives the populated levels and log w_n up to the linear term n s.
    2. Newton in s on those weights, with Var(n) as the derivative and a
       bracket as safeguard, solves <n>(s*) = target (_solve_s).
    3. s(alpha) - s(reference) is read off the log-ratio of the reference's
       two lowest levels in each state built, and s(alpha) = s* is solved
       in log alpha by inverse interpolation inside a bracket: a first step
       of slope 2, exact for aocs and even_cat (s = 2 log alpha + const),
       then a secant, then a quadratic once both signs are seen.  docs
       takes a few steps.

    It returns the alpha of the last state built, whose <n> lies within
    MEAN_N_TOL * max(1, target) of the target.  A builder not of this form
    makes it raise ValueError instead.  A state that populates levels the
    reference lacks (levels the reference lost to underflow in the builder)
    becomes the reference.  The builder is never called at alpha >=
    alpha_max.  The supremum of <n> is the top populated level, or <n> just
    below alpha_max; a target at or past it raises ValueError naming it.
    NaN, infinite and negative targets raise before any builder call.
    """
    if target == 0.0:
        return 0.0
    if not 0.0 < target < model.dim - 1:
        raise ValueError(
            f"target mean excitation {target} outside the reachable range "
            f"(0, {model.dim - 1})"
        )
    if alpha_max is not None and not alpha_max > 0.0:
        raise ValueError(f"alpha_max must be positive, got {alpha_max}")
    top_alpha = math.inf if alpha_max is None else math.nextafter(alpha_max, 0.0)
    tol = MEAN_N_TOL * max(1.0, target)
    built: list[float] = []

    def build(alpha: float) -> tuple[np.ndarray, float]:
        """|c_n| and <n> of the builder's state; no alpha is built twice."""
        if alpha in built or len(built) == _MAX_BUILDS:
            raise ValueError(
                f"alpha solve for <n> = {target} stalled after {len(built)} builder "
                "calls: the builder does not fit |c_n|^2 = w_n e^(n s(alpha)) / Z"
            )
        built.append(alpha)
        state = builder(alpha, model)
        mean = mean_excitation(state)
        if not math.isfinite(mean):
            raise ValueError(f"builder returned a non-finite state at alpha = {alpha!r}")
        return np.abs(state), mean

    alpha = min(1.0, top_alpha)
    reference, mean = build(alpha)
    while abs(mean - target) > tol:
        levels = np.flatnonzero(reference)
        unpopulated = np.flatnonzero(reference == 0.0)
        log_w = 2.0 * np.log(reference[levels])
        goal = _reachable_goal(target, levels, model.dim)
        s_star = _solve_s(levels, log_w, goal)
        if alpha == top_alpha and s_star > 0.0:
            raise _beyond_cap(target, alpha_max, mean)

        # s(alpha) - s(reference alpha), read off the two lowest levels
        n0, n1 = int(levels[0]), int(levels[1])
        offset = float(log_w[1] - log_w[0])

        # root of g(x) = s(e^x) - s* in x = log alpha through the points of
        # smallest |g| (two while the bracket is open, so that the step heads
        # for the open end, three once it is closed); a step past the cap
        # builds just below it, one outside the bracket bisects it
        x = math.log(alpha)
        points = [(-s_star, x)]
        lo, hi = (x, math.inf) if s_star > 0.0 else (-math.inf, x)
        g_lo, g_hi = (-s_star, math.inf) if s_star > 0.0 else (-math.inf, -s_star)
        x += 0.5 * s_star
        while True:
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
            alpha = math.exp(x)
            if alpha >= top_alpha:
                alpha, x = top_alpha, math.log(top_alpha)
            state, mean = build(alpha)
            if abs(mean - target) <= tol:
                return alpha
            if unpopulated.size and state[unpopulated].any():
                reference = state
                break
            if abs(mean - goal) <= tol:
                # the goal stood in for a target past the top level, and no
                # level above it appeared: the support does end there
                raise _unreachable(target, "supremum", int(levels[-1]))
            if not (state[n0] > 0.0 and state[n1] > 0.0):
                raise ValueError(
                    f"state at alpha = {alpha!r} lost level {n0} or {n1} to underflow"
                )
            log_ratio = 2.0 * (math.log(state[n1]) - math.log(state[n0]))
            g = (log_ratio - offset) / (n1 - n0) - s_star
            if not g_lo < g < g_hi:
                raise ValueError(
                    f"s(alpha) is not increasing at alpha = {alpha!r}: the builder "
                    "does not fit |c_n|^2 = w_n e^(n s(alpha)) / Z"
                )
            if alpha == top_alpha and g < 0.0:
                raise _beyond_cap(target, alpha_max, mean)
            if g < 0.0:
                lo, g_lo = x, g
            else:
                hi, g_hi = x, g
            points.append((g, x))
            points.sort(key=lambda point: abs(point[0]))
            x = _interpolated_root(points[:3] if hi - lo < math.inf else points[:2])
    return alpha


def _interpolated_root(points: list[tuple[float, float]]) -> float:
    """x at g = 0 on the polynomial through the (g, x) points; NaN if two g tie."""
    root = 0.0
    for i, (g_i, x_i) in enumerate(points):
        term = x_i
        for j, (g_j, _) in enumerate(points):
            if j != i:
                if g_j == g_i:
                    return math.nan
                term *= g_j / (g_j - g_i)
        root += term
    return root


def _beyond_cap(target: float, alpha_max: float | None, mean: float) -> ValueError:
    return ValueError(
        f"target mean excitation {target} unreachable; the supremum of <n> "
        f"below alpha_max = {alpha_max!r} is {mean!r}"
    )


def _unreachable(target: float, bound: str, level: int) -> ValueError:
    return ValueError(
        f"target mean excitation {target} unreachable; the {bound} of <n> is "
        f"{level}, the {'top' if bound == 'supremum' else 'lowest'} level the state populates"
    )


def _reachable_goal(target: float, levels: np.ndarray, dim: int) -> float:
    """The mean to solve for on the populated levels, or raise if target is out of reach.

    <n> sweeps the open interval between the lowest and the top populated
    level as s runs over the reals.  A target at or past the top level is
    out of reach when the support ends with the ladder or its pattern does
    (the top even level of even_cat).  A support that stops inside the
    ladder in mid-pattern may instead have lost its upper levels to
    underflow in the builder, so the goal becomes the middle of the
    support: the state built there populates those levels if they exist,
    and proves the target unreachable if not.
    """
    bottom, top = int(levels[0]), int(levels[-1])
    if target <= bottom:
        raise _unreachable(target, "infimum", bottom)
    if target < top:
        return target
    if len(levels) == 1 or 2 * top - int(levels[-2]) >= dim:
        raise _unreachable(target, "supremum", top)
    return 0.5 * (bottom + top)


def _solve_s(levels: np.ndarray, log_w: np.ndarray, target: float) -> float:
    """s with <n>(s) = target for |c_n|^2 proportional to e^(log_w + n s).

    Newton with Var(n) as the derivative (on ln<n>, with Var(n) / <n>, more
    than a factor e from the target), kept inside a bracket that every
    evaluation narrows by the sign of <n> - target; a step that leaves it
    bisects instead.  The first bracket holds s* by construction: at its
    upper end every level below the top carries at most
    (top - target) / ((top - n) count) of the top level's weight, so <n> >=
    target, and the lower end mirrors that at the lowest level.
    """
    n = levels.astype(float)
    bottom, top = n[0], n[-1]
    count = len(n) - 1
    lo = float(np.min(
        (log_w[0] - log_w[1:] - np.log((n[1:] - bottom) * count / (target - bottom)))
        / (n[1:] - bottom)
    ))
    hi = float(np.max(
        (log_w[:-1] - log_w[-1] + np.log((top - n[:-1]) * count / (top - target)))
        / (top - n[:-1])
    ))
    moments = np.stack([np.ones_like(n), n, n * n])
    s = min(max(0.0, lo), hi)
    for _ in range(_NEWTON_STEPS):
        x = log_w + n * s
        x -= x.max()
        z, first, second = (moments @ np.exp(x, out=x)).tolist()
        mean = first / z
        if mean == target:
            return s
        if mean < target:
            lo = s
        else:
            hi = s
        var = second / z - mean * mean
        step = (target - mean) / var if var > 0.0 else math.nan
        if mean > 0.0 and abs(math.log(target / mean)) > 1.0:
            # more than a factor e off the target, Newton runs on ln<n>
            # (slope Var / <n>), near-linear in s where <n> falls towards
            # a level 0 like e^(s (n1 - n0))
            step *= math.log(target / mean) * mean / (target - mean)
        if lo < s + step < hi:
            # quadratic convergence leaves an error near step^2 after it
            if abs(step) <= 1e-9 * max(1.0, abs(s)):
                return s + step
            s += step
        else:
            s = 0.5 * (lo + hi)
            if hi - lo <= 4.0 * _EPS * max(1.0, abs(s)):
                return s
    raise ValueError(f"Newton solve for <n> = {target} did not converge")


def to_density(state: np.ndarray) -> np.ndarray:
    """Rank-one density matrix |psi><psi| (Hermitian, unit trace, purity 1)."""
    return np.outer(state, state.conj())
