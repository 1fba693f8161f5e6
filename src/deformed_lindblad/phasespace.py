"""Wigner phase-space maps of Morse-ladder density matrices.

Two independent routes to the same function:

* wigner_closed evaluates the analytic double sum obtained by inserting the
  bound-state wavefunctions into the Wigner integral.  Each term carries a
  modified Bessel function of the second kind at complex order D - 2ip
  with integer D.  Orders D = 0 and 1 come from the trapezoidal rule on

      K_nu(x) = integral_0^inf exp(-x cosh t) cosh(nu t) dt,   x > 0,

  valid for arbitrary complex order (bessel_k_complex_order is one point of
  the same kernel); higher D follow by the upward order recurrence.  The
  sum is linear in rho.  Each of its weights is a polynomial in the Bessel
  argument xi with exact rational coefficients, so its coefficient table
  depends on params only and its xi powers and Bessel tensor on (params,
  grid): one cached plan per pair holds them, with the tensor at two
  trapezoid steps, h and h / 2.  A snapshot maps the Hermitian part of rho
  as 2 Re(c K): rho multiplies into the coefficients first, the xi powers
  then give c on the r axis, and c contracts once with the finer tensor on
  the distinct |p| columns, one per mirrored pair p, -p on a symmetric
  window.  A bound on the change from the coarser step, read from c and
  the plan, accepts that map; where it cannot, the two maps are compared,
  and the map is returned or refused on that comparison alone.
* wigner_direct_oracle builds the coordinate-space kernel
  rho(r + y/2, r - y/2) from the wavefunctions and Fourier-transforms in y
  with refinement-controlled Gauss-Legendre quadrature.  It is the testing
  reference, kept deliberately free of the combinatorics and the Bessel
  quadrature the closed form relies on.

Units are those of the source model: hbar = omega0 = 1, and positions are
in units of 1/beta, the Morse range parameter.

A note on precision: the closed-form expansion is ill conditioned.  For
states with coherences between distant levels, the individual Bessel-
weighted terms near the potential minimum exceed the assembled value by up
to nine orders of magnitude, so ordinary doubles leave only six to seven
correct digits.  The closed-form pipeline therefore runs in extended
precision (x86 80-bit long double) with exact integer combinatorics, which
restores agreement with the direct-integral oracle to well below the
comparison tolerances.  On platforms where numpy's longdouble is plain
float64 the closed form still works, with accuracy degraded to the
conditioning limit.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dissipator import HERMITICITY_TOL, purity
from .morse import MorseParams, morse_wavefunction

__all__ = [
    "GridSpec",
    "WignerGrid",
    "WignerDiagnostics",
    "BesselAccuracyError",
    "bessel_k_complex_order",
    "wigner_closed",
    "wigner_direct_oracle",
    "wigner_diagnostics",
]

_LD = np.longdouble

# log-integrand drop below the peak at which the Bessel integral is truncated
_TAIL_DROP = 45.0
# float64 cosh overflows past this argument
_COSH_MAX = math.acosh(np.finfo(float).max)
# Refinement budgets: bessel_k_complex_order halves its trapezoid step up
# to K_MAX_LEVELS times until two levels agree to K_RTOL; the direct oracle
# halves its panels up to WIGNER_MAX_LEVELS times
K_MAX_LEVELS = 8
K_RTOL = 1e-9
WIGNER_MAX_LEVELS = 6
# Memory the Bessel tensor's quadrature may take on one window.  A node of
# the finer trapezoid step costs 64 bytes per |b| column (at most n_p): cos
# and sin of b t as 16-byte longdoubles and the temporaries that build
# them.  The node, its weight and one xi row of its integrand cost about as
# much as 8 more columns, so a window may take _QUADRATURE_BYTES /
# (64 (n_p + 8)) nodes
_QUADRATURE_BYTES = 2**30
# Memory one closed-form plan may take (see the note above _closed_form)
_PLAN_BYTES = 2**30


class BesselAccuracyError(RuntimeError):
    """A quadrature comparison that did not reach its accuracy target."""

    def __init__(self, message: str, estimate=None, error: float = float("nan")):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


@dataclass(frozen=True)
class GridSpec:
    """Rectangular phase-space window (defaults sized for a 15-level ladder)."""

    r_min: float = -2.0
    r_max: float = 10.0
    n_r: int = 121
    p_min: float = -6.0
    p_max: float = 6.0
    n_p: int = 121

    def __post_init__(self) -> None:
        for name in ("r_min", "r_max", "p_min", "p_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.n_r < 2 or self.n_p < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if not (self.r_max > self.r_min and self.p_max > self.p_min):
            raise ValueError("grid extents must be increasing")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(self.r_min, self.r_max, self.n_r),
            np.linspace(self.p_min, self.p_max, self.n_p),
        )


@dataclass(frozen=True)
class WignerGrid:
    """Real Wigner values on the (r, p) grid for one time slice."""

    r_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray
    time: float = 0.0


@dataclass(frozen=True)
class WignerDiagnostics:
    """Scalar summaries of one Wigner grid against its density matrix."""

    norm: float
    purity_w: float
    purity_m: float
    min_w: float
    min_w_location: tuple[float, float]
    max_w: float


def _tail_cutoff(x: float, re_order: float) -> float:
    """Smallest t beyond the integrand peak where the log-integrand has
    dropped _TAIL_DROP below its peak value.  A search in float64 that
    would take cosh past _COSH_MAX (at re_order 1, x below about 1e-306)
    raises ValueError."""
    re = abs(re_order)
    t_peak = math.asinh(re / x) if x > 0.0 else math.inf

    def log_integrand(t: float) -> float:
        if not t <= _COSH_MAX:
            raise ValueError(
                f"at x = {x:.4g} the tail passes t = {_COSH_MAX:.2f}, where cosh overflows"
            )
        return -x * math.cosh(t) + re * t

    floor = log_integrand(t_peak) - _TAIL_DROP
    hi = t_peak + 1.0
    while log_integrand(hi) >= floor:
        hi = t_peak + 1.5 * (hi - t_peak)
    lo = t_peak
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if log_integrand(mid) >= floor:
            lo = mid
        else:
            hi = mid
    return hi


def _nodes_weights(edges: np.ndarray, level: int) -> tuple[np.ndarray, np.ndarray]:
    """16-node Gauss-Legendre nodes/weights per (fine panel, node) after
    2^level splits of each panel."""
    xg, wg = np.polynomial.legendre.leggauss(16)
    splits = 2**level
    fine = np.concatenate(
        [np.linspace(a, b, splits + 1)[:-1] for a, b in zip(edges[:-1], edges[1:])]
        + [edges[-1:]]
    )
    a = fine[:-1][:, None]
    b = fine[1:][:, None]
    nodes = 0.5 * (b - a) * xg[None, :] + 0.5 * (a + b)
    weights = 0.5 * (b - a) * wg[None, :]
    return nodes, weights


def _refine(evaluate, rtol: float, levels: int, failure):
    """evaluate(level) for level = 0, 1, ..., levels until two successive
    levels agree to rtol of the largest |value|; returns the finer one.
    Exhaustion raises failure(last value, index of its largest change, that
    change relative to the largest |value|, the change itself)."""
    previous = evaluate(0)
    for level in range(1, levels + 1):
        current = evaluate(level)
        scale = float(np.max(np.abs(current)))
        diff = np.abs(current - previous).astype(float)
        if float(np.max(diff)) <= rtol * max(scale, 1e-300):
            return current
        previous = current
    worst = np.unravel_index(int(np.argmax(diff)), diff.shape)
    error = float(np.max(diff))
    raise failure(current, worst, error / max(scale, 1e-300), error)


def _trapezoid_step(x_large: float, b_max: float) -> float:
    """Level-0 step h of the trapezoidal rule for K_{a - ib}(x) with x (plus
    |a|) up to x_large and |b| up to b_max.

    The rule's relative error is about exp(-2 pi s / h) times the growth
    exp(x s^2 / 2 + b s) of the integrand on the edge of an analytic strip
    |Im t| < s (L. N. Trefethen and J. A. C. Weideman, SIAM Review 56 (2014)
    385).  h = 2 pi / (b + sqrt(2 D x)) with D = _TAIL_DROP makes it exp(-D)
    at s = sqrt(2 D / x), the drop at which the tail is cut; s stops near
    pi / 2, where exp(-x cosh t) no longer decays, which sets the 2 D / pi
    floor for small x.
    """
    drop = _TAIL_DROP
    return 2.0 * math.pi / (b_max + max(math.sqrt(2.0 * drop * x_large), 2.0 * drop / math.pi))


def _k_quadrature(
    xi: np.ndarray, b: np.ndarray, orders: np.ndarray, t_max: float, step: float
) -> np.ndarray:
    """K_{a - ib}(xi) for each real order a on the (xi, b) grid.

    K_{a - ib}(xi) = int_0^inf exp(-xi cosh t) (cosh(at) cos(bt) - i sinh(at)
    sin(bt)) dt by the trapezoidal rule with nodes j step from 0 past
    t_max, as a clongdouble array of shape (len(xi), len(b), len(orders)).
    The integrand is entire and even in t, so the node t = 0 takes half
    weight and the rule converges geometrically as the step shrinks.  The
    two exponentials exp(-xi cosh t +- a t) are kept together so neither
    overflows alone.  The nodes come in blocks of 16, each summed in turn,
    and the block sums are added pairwise, which holds the round-off that
    the closed form's conditioning amplifies near one ulp.  Chunked over xi
    for memory.
    """
    a = np.asarray(orders, dtype=_LD)
    step = _LD(step)
    blocks = math.ceil((t_max / float(step) + 1.0) / 16)
    t = step * np.arange(16 * blocks, dtype=_LD).reshape(blocks, 16)
    w = np.full(t.shape, step)
    w[0, 0] *= 0.5
    cosh_t = np.cosh(t)
    at = a[:, None, None] * t
    cos_b = np.cos(b[:, None, None] * t) * w
    sin_b = np.sin(b[:, None, None] * t) * w
    n_x = len(xi)
    k = np.empty((n_x, len(b), len(a)), dtype=np.clongdouble)
    # about 24 MB of integrand and per-block sums (16 bytes a value) per chunk
    chunk = max(1, int(24e6 // (16 * len(a) * (t.size + len(b) * blocks))))
    for start in range(0, n_x, chunk):
        sl = slice(start, min(start + chunk, n_x))
        base = -xi[sl, None, None, None] * cosh_t
        plus = np.exp(base + at)
        minus = np.exp(base - at)
        even = 0.5 * (plus + minus)      # exp(-xi cosh t) cosh(a t)
        odd = 0.5 * (plus - minus)       # exp(-xi cosh t) sinh(a t)
        del plus, minus
        k.real[sl] = np.einsum("xapn,bpn->xbap", even, cos_b, optimize=False).sum(-1)
        k.imag[sl] = -np.einsum("xapn,bpn->xbap", odd, sin_b, optimize=False).sum(-1)
    return k


def bessel_k_complex_order(nu: complex, x: float) -> complex:
    """K_nu(x) for arbitrary complex order by refinement-controlled quadrature.

    One point of the extended-precision trapezoidal kernel that also builds
    the Wigner Bessel tensor.  The step is halved until two successive
    levels agree to K_RTOL; exhaustion after K_MAX_LEVELS raises
    BesselAccuracyError carrying the best estimate.  A non-finite order or
    argument, or x <= 0, raises ValueError naming it.  Designed for
    x >= 1e-6 and |Re nu| <= 35, where the result itself stays inside
    double range.
    """
    nu = complex(nu)
    if not cmath.isfinite(nu):
        raise ValueError(f"order must be finite, got nu = {nu}")
    if not 0.0 < x < math.inf:
        raise ValueError(f"argument must be positive and finite, got x = {x}")
    t_max = _tail_cutoff(x, nu.real)
    step = _trapezoid_step(x + abs(nu.real), abs(nu.imag))
    xi = np.array([x], dtype=_LD)
    b = np.array([-nu.imag], dtype=_LD)

    def evaluate(level: int) -> complex:
        k = _k_quadrature(xi, b, np.array([nu.real]), t_max, step / 2**level)
        return complex(k[0, 0, 0])

    def failure(estimate, worst, residual, error):
        return BesselAccuracyError(
            f"K_nu quadrature did not reach rtol = {K_RTOL} for nu = {nu}, x = {x} "
            f"(achieved {residual:.3e})",
            estimate=estimate,
            error=error,
        )

    return _refine(evaluate, K_RTOL, K_MAX_LEVELS, failure)


def _k_tensor_level(
    xi: np.ndarray, b_abs: np.ndarray, d_max: int, t_max: float, step: float
) -> np.ndarray:
    """K_{D - i b}(xi) for D = 0..d_max on the (xi, b) grid.

    Returns a clongdouble array of shape (len(xi), len(b_abs), d_max + 1).
    Only orders 0 and 1 come from the quadrature; the rest follow by the
    upward recurrence K_{nu+1} = K_{nu-1} + (2 nu / xi) K_nu at nu = D - ib
    (DLMF 10.29.1), the stable direction for K, which grows with the order.
    No convergence control here: the caller compares two steps on the
    quantity it assembles.
    """
    k = np.empty((len(xi), len(b_abs), d_max + 1), dtype=np.clongdouble)
    k[..., :2] = _k_quadrature(xi, b_abs, np.arange(min(d_max, 1) + 1), t_max, step)
    two_over_xi = (2.0 / xi)[:, None]
    for d in range(2, d_max + 1):
        k[..., d] = k[..., d - 2] + two_over_xi * ((d - 1) - 1j * b_abs) * k[..., d - 1]
    return k


def _term_coefficients(params: MorseParams) -> tuple[np.ndarray, ...]:
    """Rho- and r-independent coefficients of the closed-form Bessel sum.

    The weight of rho_nm at Bessel order +D (D = 0..N-1) and Bessel
    argument xi is the polynomial

        T_D(xi)[n, m] = sum_i coefficients[D][i, (n - D) N + m] xi^(D + 2 + 2i)

    for i < N - D.  For the ordered level pair (n, m) the inner sums run over
    j = 0..m and k = 0..n with Bessel order D = (n - m) + s where s = j - k,
    so D runs over 0..n only: in row-major (n, m) order the pairs that reach
    order D are the contiguous tail n >= D, and only those columns are
    stored, one C-contiguous array per D.  Along a fixed anti-diagonal s the
    sign (-xi)^(j+k) = (-1)^s xi^(j+k) is constant, so each group

        G_s(xi) = sum_k C(2N-m, m-s-k) C(2N-n, n-k) xi^(s+2k) / ((s+k)! k!)

    is a sum of positive terms, for k = max(0, -s) .. n - D.  With the pair
    prefactor (-1)^s N_n N_m xi^(2N-n-m), term k carries xi^e with
    e = 2N + D - 2n + 2k, which is row i = N - 1 - n + k; the rows a pair
    does not reach are zero.  Each weight is a ratio of exact integers
    whose numerator and denominator are each rounded once to longdouble
    (numpy's correctly rounded conversion of Python ints) and then divided,
    then multiplied by N_n N_m.  Swapping (n, m) maps s to -s and negates D
    with identical magnitudes, so the weight of rho_nm at order -D is the
    weight of rho_mn at +D: the table holds D >= 0 only.  For a Hermitian
    rho the -D half of the sum is then the complex conjugate of the +D half,
    and wigner_closed assembles 2 Re of the +D half.  Both halves reach
    order D = 0, so its coefficients are halved (exact in binary).

    Everything is longdouble: the alternating sums over s and over orders
    cancel to one part in 1e9 of their largest terms on parts of the default
    window, which leaves extended precision ten spare digits, and its range
    (1e4932) removes any need for log-space scaling of the xi powers.
    """
    big_n = params.n_bound
    two_n = 2 * big_n
    k_total = params.k
    factorial = [math.factorial(i) for i in range(k_total)]
    levels = range(big_n)
    # norms[n] = N_n = sqrt(n! (k - 2n - 1) / (k - n - 1)!)
    norms = np.sqrt(
        np.array([factorial[n] * (k_total - 2 * n - 1) for n in levels], dtype=object).astype(_LD)
        / np.array([factorial[k_total - n - 1] for n in levels], dtype=object).astype(_LD)
    )
    # comb_m[m, a] = C(2N-m, a) and comb_n[n, k] = C(2N-n, n-k), exact ints
    comb_m = np.array(
        [[math.comb(two_n - m, a) for a in levels] for m in levels], dtype=object
    )
    comb_n = np.array(
        [[math.comb(two_n - n, n - k) if k <= n else 0 for k in levels] for n in levels],
        dtype=object,
    )
    denominators = np.array(
        [[factorial[j] * factorial[k] for k in levels] for j in levels], dtype=object
    ).astype(_LD)
    coefficients = []
    for d in levels:
        n = np.repeat(np.arange(d, big_n), big_n)
        m = np.tile(np.arange(big_n), big_n - d)
        s = d - n + m
        pair = norms[n] * norms[m]
        pair[s % 2 == 1] *= -1
        if d == 0:
            pair *= 0.5
        k = np.arange(big_n - d)[:, None] - (big_n - 1) + n
        used = (k >= np.maximum(0, -s)) & (k <= n - d)
        n_used, m_used, k_used = (np.broadcast_to(v, used.shape)[used] for v in (n, m, k))
        table = np.zeros(used.shape, dtype=_LD)
        table[used] = (
            (comb_m[m_used, n_used - d - k_used] * comb_n[n_used, k_used]).astype(_LD)
            / denominators[d - n_used + m_used + k_used, k_used]
        )
        table *= pair
        coefficients.append(table)
    return tuple(coefficients)


@dataclass(frozen=True)
class _ClosedForm:
    """Everything in the closed-form map that does not depend on rho.

    inverse (the window's) maps each p point to its |b| column and
    negative_b marks the points with b < 0.  coefficients are the
    xi-polynomials of _term_coefficients, and powers[D][x, i] =
    xi_x^(D + 2 + 2i) their powers on the r axis, so powers[D] @
    coefficients[D] is the weight of each pair of order D at each r point.
    k0 and k1 are the Bessel tensor (_k_tensor_level) at the window's steps
    h (level 0) and h / 2 (level 1).  dk[x, D] = max over b of |K1 - K0| at
    r point x and order D; with a snapshot's coefficients it bounds that
    map's change from level 0 to 1.
    """

    inverse: np.ndarray
    negative_b: np.ndarray
    coefficients: tuple[np.ndarray, ...]
    powers: tuple[np.ndarray, ...]
    k0: np.ndarray
    k1: np.ndarray
    dk: np.ndarray


class ClosedFormWindow(NamedTuple):
    """What the closed form reads of one (params, grid): see closed_form_window."""

    xi: np.ndarray
    b: np.ndarray
    b_abs: np.ndarray
    inverse: np.ndarray
    t_max: float
    step: float


def closed_form_window(params: MorseParams, grid: GridSpec) -> ClosedFormWindow:
    """The closed form's window on grid, refused where it is out of reach.

    xi = (2N+1) e^(-r) is the Bessel argument per r point and b = 2p per p
    point; b_abs holds the distinct |b| (sorted), inverse each p point's
    index into them.  np.linspace is not bitwise antisymmetric, so with
    p_min = -p_max, p_j and p_{n-1-j} both take the later point's |b|.
    t_max, where the integrals are cut, is the _tail_cutoff of the smallest
    xi, and step (the level-0 h) the _trapezoid_step of the largest xi and |b|.
    ValueError names r_max and xi where the tail search fails, r_min and xi
    where the nodes up to t_max at the finer step h / 2 would pass the
    _QUADRATURE_BYTES budget, and N, n_r and the distinct |b| count where
    the plan's arrays would pass the _PLAN_BYTES budget.  The first two
    need the grid's extents only, so they refuse before any array exists;
    the third reads n_r as an integer only, so the r axis (GridSpec.axes'
    np.linspace) and xi are built after it.
    """
    xi_min = float(_LD(params.k) * np.exp(-_LD(grid.r_max)))
    try:
        t_max = _tail_cutoff(xi_min, 1.0)
    except ValueError as exc:
        raise ValueError(
            f"r_max = {grid.r_max} is out of the closed form's reach: its smallest "
            f"Bessel argument is xi = {params.k} e^(-r_max), and {exc}"
        ) from exc
    with np.errstate(over="ignore"):  # past longdouble range xi is inf: refused below
        xi_max = float(_LD(params.k) * np.exp(-_LD(grid.r_min)))
    b_max = 2.0 * max(abs(grid.p_min), abs(grid.p_max))
    step = _trapezoid_step(xi_max, b_max)
    budget = _QUADRATURE_BYTES // (64 * (grid.n_p + 8))
    if not t_max <= budget * step / 2:
        raise ValueError(
            f"r_min = {grid.r_min} and |p| <= {b_max / 2:.4g} are out of the closed form's "
            f"reach: its largest Bessel argument is xi = {params.k} e^(-r_min) = "
            f"{xi_max:.4g}, and with |b| = 2|p| the trapezoid step {step / 2:.3g} needs "
            f"{t_max / (step / 2) if step else math.inf:.3g} nodes up to t = {t_max:.4g}, "
            f"past the {budget} that {_QUADRATURE_BYTES >> 20} MiB hold at n_p = {grid.n_p}"
        )
    b = 2.0 * np.linspace(grid.p_min, grid.p_max, grid.n_p).astype(_LD)
    folded = np.abs(b)
    if grid.p_min == -grid.p_max:
        j = np.arange(len(b))
        folded = folded[np.maximum(j, j[::-1])]
    b_abs, inverse = np.unique(folded, return_inverse=True)
    big_n, n_b = params.n_bound, len(b_abs)
    size = np.dtype(_LD).itemsize * (
        big_n * (big_n * (big_n + 1) * (2 * big_n + 1) // 6)
        + grid.n_r * (big_n * (big_n + 1) // 2 + 4 * n_b * big_n + big_n)
    )
    if size > _PLAN_BYTES:
        raise ValueError(
            f"the closed-form plan for N = {big_n} on n_r = {grid.n_r} r points and "
            f"{n_b} distinct |b| would take {size} bytes, past its "
            f"{_PLAN_BYTES >> 20} MiB budget"
        )
    r_axis = np.linspace(grid.r_min, grid.r_max, grid.n_r)
    xi = _LD(params.k) * np.exp(-r_axis.astype(_LD))
    return ClosedFormWindow(xi, b, b_abs, inverse, t_max, step)


# One plan per (params, grid), shared by every snapshot on it: the
# coefficients take 16 N^2 (N + 1) (2N + 1) / 6 bytes, the powers
# 8 n_r N (N + 1), each tensor level 32 n_r n_b N bytes and dk 16 n_r N,
# with n_b the number of distinct |b| (61 on the default window) and
# 16-byte longdoubles: 7.3 MiB at the default 121 x 121 window and N = 15,
# 75 MiB at 401 x 401.  closed_form_window refuses one past _PLAN_BYTES.
@functools.lru_cache(maxsize=2)
def _closed_form(params: MorseParams, grid: GridSpec) -> _ClosedForm:
    """The read-only closed-form plan for (params, grid), built once."""
    xi, b, b_abs, inverse, t_max, step = closed_form_window(params, grid)
    big_n = params.n_bound
    k0, k1 = (_k_tensor_level(xi, b_abs, big_n - 1, t_max, h) for h in (step, step / 2))
    # xi^e for e = 0..2N; order D reads e = D + 2, D + 4, .., 2N - D
    powers = np.array([xi ** _LD(e) for e in range(2 * big_n + 1)])
    plan = _ClosedForm(
        inverse=inverse,
        negative_b=b < 0.0,
        coefficients=_term_coefficients(params),
        powers=tuple(powers[d + 2:2 * big_n - d + 1:2].T.copy() for d in range(big_n)),
        k0=k0,
        k1=k1,
        dk=np.abs(k1 - k0).max(axis=1),
    )
    for array in (inverse, plan.negative_b, *plan.coefficients, *plan.powers, k0, k1, plan.dk):
        array.setflags(write=False)
    return plan


def _coefficient_product(plan: _ClosedForm, rows: np.ndarray) -> np.ndarray:
    """Re c and Im c of the +D half, shape (len(rows), n_r, N), from the
    rows (Re 2h, Im 2h), or Re 2h alone, flattened in row-major (n, m)
    order.  Per order D the rows of its pairs multiply into the xi
    coefficients first, once for the whole window, and the r axis then
    enters through one product with the xi powers; c goes to (x, D) order,
    the layout the contraction reads."""
    big_n = len(plan.coefficients)
    c = np.empty((len(rows), len(plan.powers[0]), big_n), dtype=_LD)
    for d, (table, powers) in enumerate(zip(plan.coefficients, plan.powers)):
        c[:, :, d] = np.dot(powers, np.dot(table, rows[:, d * big_n:].T)).T
    return c


def _checked_inputs(rho: np.ndarray, big_n: int, rtol: float) -> np.ndarray:
    """rho as a complex array once the inputs have passed the checks both
    Wigner routes make before any quadrature: a positive, finite rtol, shape
    (N, N) and finite entries.  Each failure raises ValueError naming the
    offence."""
    if not 0.0 < rtol < math.inf:
        raise ValueError(f"rtol must be positive and finite, got {rtol}")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (big_n, big_n):
        raise ValueError(f"density matrix shape {rho.shape} != ({big_n}, {big_n})")
    bad = np.argwhere(~np.isfinite(rho))
    if len(bad):
        n, m = bad[0]
        raise ValueError(f"density matrix entry ({n}, {m}) is not finite: {rho[n, m]}")
    return rho


def wigner_closed(
    rho: np.ndarray,
    params: MorseParams,
    grid: GridSpec | None = None,
    time: float = 0.0,
    rtol: float = 1e-8,
) -> WignerGrid:
    """Wigner function from the analytic bound-state sum.

    The map is W[h] = 2 Re(c K) of the +D half of the sum, with
    h = (rho + rho^H)/2: one product of h with the plan's xi coefficients,
    then one with its xi powers, gives the coefficients c on the r axis,
    which contract once with the level-1 Bessel tensor.
    A real h (Im h = 0, as every t = 0 state of the scenarios) takes one
    product row and one contraction, Re c Re K; otherwise Re c Re K -+
    Im c Im K are formed for b >= 0 and b < 0.  Either way the map is
    formed on the distinct |b| columns in longdouble, rounded to float64
    once and copied out to the p points with one index.
    That map is returned when (2/pi) max_x sum_D (|Re c_D| + |Im c_D|)
    dk[x, D], a bound on its change from level 0, is within rtol of the
    grid maximum.  Otherwise the level-0 map is contracted too, and W1 is
    returned if the two agree to rtol at every grid point; if not,
    BesselAccuracyError names the worst grid point and its conditioning.
    No finer quadrature level is built: the quadrature orders of the two
    tensors already agree to about 1e-17 of their scale, so a finer level
    would compare round-off.  Before any quadrature, an rtol that is not positive and
    finite, a wrong shape or a non-finite entry in rho raises ValueError,
    and so does an anti-Hermitian residue max |rho - rho^H| above
    HERMITICITY_TOL, the bound validate_density holds every state to.

    The plan (xi coefficients and powers, Bessel tensor at levels 0 and 1)
    depends on (params, grid) only; later calls on the same pair reuse it.
    """
    grid = grid or GridSpec()
    big_n = params.n_bound
    rho = _checked_inputs(rho, big_n, rtol)
    skew = np.abs(rho - rho.conj().T)
    n, m = np.unravel_index(int(np.argmax(skew)), skew.shape)
    if skew[n, m] > HERMITICITY_TOL:
        raise ValueError(
            f"anti-Hermitian residue |rho - rho^H| = {skew[n, m]:.3e} at entry "
            f"({n}, {m}) exceeds {HERMITICITY_TOL}; rho is not Hermitian"
        )
    plan = _closed_form(params, grid)
    r_axis, p_axis = grid.axes()

    # rows: Re and Im of 2h.  A Hermitian h has c_neg = conj(c_pos), so
    # W[h] = 2 Re(c_pos K) needs only Re c and Im c of the +D half, from one
    # real product with the table.  A real h has Im c = +0 exactly (each sum
    # starts at +0), and x -+ (+0) is x bit for bit, so it takes Re c alone
    re, im = rho.real.astype(_LD), rho.imag.astype(_LD)
    rows = np.reshape([re + re.T, im - im.T], (2, -1))
    c = _coefficient_product(plan, rows if rows[1].any() else rows[:1])
    prefactor = _LD(2.0) / _LD(math.pi)
    # each p point's column of assemble: its |b| column, and for a complex h
    # the plus half where b < 0
    columns = plan.inverse if len(c) == 1 else plan.inverse + plan.k1.shape[1] * plan.negative_b

    def assemble(k: np.ndarray) -> np.ndarray:
        # Re c Re K - Im c Im K, then Re c Re K + Im c Im K, on the distinct
        # |b| columns: negative-b points take conj(K), which flips the sign
        # of Im K
        re_k = np.einsum("xd,xbd->xb", c[0], k.real, optimize=False)
        if len(c) == 1:
            return re_k * prefactor
        im_k = np.einsum("xd,xbd->xb", c[1], k.imag, optimize=False)
        return np.concatenate([re_k - im_k, re_k + im_k], axis=1) * prefactor

    def failure(estimate, worst, residual, error):
        # conditioning at the worst point: the largest single term
        # |row . term . K| of its sum against the largest assembled |W|,
        # with the point's terms rebuilt from its row of the xi powers
        x, p = worst
        k = np.abs(plan.k1[x, plan.inverse[p]])
        scale = np.abs(rows).max(axis=0)
        largest = max(
            np.max(scale[d * big_n:] * np.abs(np.dot(powers[x], table)) * k[d])
            for d, (table, powers) in enumerate(zip(plan.coefficients, plan.powers))
        )
        ratio = float(largest * prefactor) / max(float(np.max(np.abs(estimate))), 1e-300)
        mantissa = -math.log10(float(np.finfo(_LD).eps))
        return BesselAccuracyError(
            f"Wigner quadrature at t = {time} did not stabilize to rtol = "
            f"{rtol}; worst grid point r = {r_axis[x]:.4g}, p = {p_axis[p]:.4g} "
            f"(residual {residual:.3e}); its largest single term is {ratio:.3e} "
            f"x max |W|, which leaves {mantissa - math.log10(ratio):.1f} of the "
            f"{mantissa:.1f} digits of the longdouble mantissa",
            estimate=np.asarray(estimate, dtype=float),
            error=error,
        )

    # |Re(c dK)| <= (|Re c| + |Im c|) |dK| term by term, so the bound holds
    # |W1 - W0| at every grid point: when it is within rtol, the comparison
    # of the two maps would accept W1 too (up to round-off).  Rounding to
    # float64 is monotone, so max |W1| read from the rounded map is the
    # rounded longdouble max: the columns are rounded once, then copied out
    w1 = assemble(plan.k1)
    values = w1.astype(float)[:, columns]
    bound = float(np.max(np.sum(np.abs(c).sum(axis=0) * plan.dk, axis=1)) * prefactor)
    if bound > rtol * max(float(np.max(np.abs(values))), 1e-300):
        w1 = w1[:, columns]
        values = _refine(
            lambda level: w1 if level else assemble(plan.k0)[:, columns], rtol, 1, failure
        ).astype(float)
    return WignerGrid(r_axis=r_axis, p_axis=p_axis, values=values, time=time)


def _support_bounds(params: MorseParams, tail: float = 1e-12) -> tuple[float, float]:
    """Position interval outside which every bound state is below tail * peak."""
    probe = np.linspace(-6.0, 80.0, 2049)
    table = np.stack(
        [np.abs(morse_wavefunction(params, n, probe)) for n in range(params.n_bound)]
    )
    reference = table.max()
    alive = np.any(table > tail * reference, axis=0)
    if not np.any(alive):
        raise RuntimeError("no wavefunction support found on the probe window")
    idx = np.flatnonzero(alive)
    lo = probe[max(idx[0] - 1, 0)]
    hi = probe[min(idx[-1] + 1, len(probe) - 1)]
    return float(lo), float(hi)


def wigner_direct_oracle(
    rho: np.ndarray,
    params: MorseParams,
    grid: GridSpec | None = None,
    time: float = 0.0,
    rtol: float = 1e-8,
) -> WignerGrid:
    """Wigner function by direct Fourier transform of the coordinate kernel.

    Builds rho(r + y/2, r - y/2) from the wavefunctions and integrates
    against exp(-i p y), refining the y-quadrature until two levels agree
    to rtol of the grid maximum, within WIGNER_MAX_LEVELS.  The y-range is
    truncated where the wavefunction tails fall below 1e-12 of their peak.
    An rtol that is not positive and finite, a wrong shape or a non-finite
    entry in rho raises ValueError first.
    Reference implementation for testing, not tuned for speed.
    """
    grid = grid or GridSpec()
    big_n = params.n_bound
    rho = _checked_inputs(rho, big_n, rtol)
    r_axis, p_axis = grid.axes()

    lo, hi = _support_bounds(params)
    reach = np.minimum(r_axis - lo, hi - r_axis)
    y_max = 2.0 * float(np.max(np.maximum(reach, 0.0)))
    if y_max == 0.0:
        values = np.zeros((len(r_axis), len(p_axis)))
        return WignerGrid(r_axis=r_axis, p_axis=p_axis, values=values, time=time)

    # panel width set by the fastest oscillation: the Fourier phase plus the
    # highest wavefunction momentum content (about sqrt(2N+1) at the bottom)
    p_scale = max(1.0, float(np.max(np.abs(p_axis))))
    cap = 6.0 / (p_scale + 0.5 * math.sqrt(2.0 * params.k))
    n_panels = max(8, int(math.ceil(2.0 * y_max / cap)))
    edges = np.linspace(-y_max, y_max, n_panels + 1)

    def psi(half_y: np.ndarray) -> np.ndarray:
        """Every bound state at r + half_y, shaped (N, len(half_y), n_r)."""
        points = (r_axis[None, :] + half_y[:, None]).ravel()
        return np.stack(
            [morse_wavefunction(params, n, points).reshape(len(half_y), -1) for n in range(big_n)]
        )

    def evaluate(level: int) -> np.ndarray:
        y, w = (v.ravel() for v in _nodes_weights(edges, level))
        kernel = np.einsum("nyx,nm,myx->yx", psi(0.5 * y), rho, psi(-0.5 * y), optimize=False)
        phases = np.exp(-1j * np.outer(y, p_axis)) * w[:, None]
        return np.einsum("yx,yp->xp", kernel, phases, optimize=False) / (2.0 * math.pi)

    def failure(estimate, worst, residual, error):
        return RuntimeError(
            f"direct Wigner quadrature did not converge to rtol = {rtol}; worst "
            f"grid point r = {r_axis[worst[0]]:.4g}, p = {p_axis[worst[1]]:.4g} "
            f"(residual {residual:.3e})"
        )

    values = _refine(evaluate, rtol, WIGNER_MAX_LEVELS, failure).real
    return WignerGrid(r_axis=r_axis, p_axis=p_axis, values=values, time=time)


def _trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    w = np.zeros_like(axis)
    w[1:] += 0.5 * np.diff(axis)
    w[:-1] += 0.5 * np.diff(axis)
    return w


def wigner_diagnostics(grid: WignerGrid, rho: np.ndarray) -> WignerDiagnostics:
    """Normalization, the two purity routes, and the grid minimum."""
    w_r = _trapezoid_weights(grid.r_axis)
    w_p = _trapezoid_weights(grid.p_axis)
    norm = float(w_r @ grid.values @ w_p)
    purity_w = float(2.0 * math.pi * (w_r @ grid.values**2 @ w_p))
    purity_m = purity(rho)
    flat_min = int(np.argmin(grid.values))
    i, j = np.unravel_index(flat_min, grid.values.shape)
    return WignerDiagnostics(
        norm=norm,
        purity_w=purity_w,
        purity_m=purity_m,
        min_w=float(grid.values[i, j]),
        min_w_location=(float(grid.r_axis[i]), float(grid.p_axis[j])),
        max_w=float(np.max(grid.values)),
    )
