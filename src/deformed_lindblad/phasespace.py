"""Wigner phase-space maps of Morse-ladder density matrices.

Two independent routes to the same function:

* wigner_closed evaluates the analytic double sum obtained by inserting the
  bound-state wavefunctions into the Wigner integral.  Each term carries a
  modified Bessel function of the second kind at complex order D - 2ip
  with integer D.  Orders D = 0 and 1 come from panel quadrature of

      K_nu(x) = integral_0^inf exp(-x cosh t) cosh(nu t) dt,   x > 0,

  valid for arbitrary complex order (bessel_k_complex_order is one point of
  the same kernel); higher D follow by the upward order recurrence.  The
  sum is linear in rho; its term table and Bessel tensor do not depend on
  rho and are cached, so a snapshot maps the Hermitian part of rho as
  2 Re(c K): one real product with the table gives c, and each level
  contracts it with the tensor on the distinct |p| columns.
* wigner_direct_oracle builds the coordinate-space kernel
  rho(r + y/2, r - y/2) from the wavefunctions and Fourier-transforms in y
  with refinement-controlled quadrature.  It is the testing reference, kept
  deliberately free of the combinatorics the closed form relies on.

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

import functools
import math
from dataclasses import dataclass

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
# Refinement budgets: bessel_k_complex_order halves its panels up to
# K_MAX_LEVELS times until two levels agree to K_RTOL; each Wigner route
# refines up to WIGNER_MAX_LEVELS times
K_MAX_LEVELS = 8
K_RTOL = 1e-9
WIGNER_MAX_LEVELS = 6


class BesselAccuracyError(RuntimeError):
    """Panel refinement exhausted before reaching the accuracy target."""

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


def _ld_int(value: int) -> np.longdouble:
    """Exact integer -> longdouble conversion (python ints can exceed 2^53)."""
    if -(2**53) < value < 2**53:
        return _LD(value)
    hi, lo = divmod(value, 2**53)
    return _ld_int(hi) * _LD(2**53) + _LD(lo)


@functools.lru_cache(maxsize=None)
def _gl_nodes(n: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] at longdouble precision.

    Double-precision seeds are polished with Newton steps on the longdouble
    Legendre recurrence; weights come from the standard derivative formula.
    """

    def legendre(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p_prev = np.ones_like(x)
        p_curr = x.copy()
        for i in range(2, n + 1):
            p_prev, p_curr = p_curr, ((2 * i - 1) * x * p_curr - (i - 1) * p_prev) / i
        return p_curr, n * (x * p_curr - p_prev) / (x * x - 1.0)

    x = np.polynomial.legendre.leggauss(n)[0].astype(_LD)
    for _ in range(3):
        p_n, dp = legendre(x)
        x = x - p_n / dp
    dp = legendre(x)[1]
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def _tail_cutoff(x: float, re_order: float) -> float:
    """Smallest t beyond the integrand peak where the log-integrand has
    dropped _TAIL_DROP below its peak value."""
    re = abs(re_order)
    t_peak = math.asinh(re / x) if re > 0.0 else 0.0
    log_peak = -x * math.cosh(t_peak) + re * t_peak

    def excess(t: float) -> float:
        return (-x * math.cosh(t) + re * t) - (log_peak - _TAIL_DROP)

    hi = t_peak + 1.0
    for _ in range(200):
        if excess(hi) < 0.0:
            break
        hi = t_peak + 1.5 * (hi - t_peak)
    else:
        return hi
    lo = t_peak
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if excess(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def _panel_edges(t_max: float, x_large: float, b_max: float) -> np.ndarray:
    """Graded panel edges on [0, t_max].

    Early panels resolve the exp(-x cosh t) boundary layer (width about
    1/sqrt(x) for large x); the panel width then grows geometrically up to a
    cap small enough that 16-node Gauss-Legendre resolves the cos(b t)
    oscillation to spectral accuracy.
    """
    cap = min(0.5, 6.0 / (1.0 + b_max))
    width = min(cap, 1.6 / math.sqrt(1.0 + x_large))
    edges = [0.0]
    t = 0.0
    while t < t_max:
        t = min(t + width, t_max)
        edges.append(t)
        width = min(width * 1.6, cap)
    return np.asarray(edges)


def _nodes_weights(
    edges: np.ndarray, level: int, dtype=np.float64
) -> tuple[np.ndarray, np.ndarray]:
    """GL nodes/weights per (fine panel, node) after 2^level splits of each panel."""
    xg, wg = _gl_nodes()
    xg = xg.astype(dtype)
    wg = wg.astype(dtype)
    splits = 2**level
    fine = np.concatenate(
        [np.linspace(a, b, splits + 1)[:-1] for a, b in zip(edges[:-1], edges[1:])]
        + [edges[-1:]]
    ).astype(dtype)
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


def _k_quadrature(
    xi: np.ndarray, b: np.ndarray, orders: np.ndarray, edges: np.ndarray, level: int
) -> np.ndarray:
    """K_{a - ib}(xi) for each real order a on the (xi, b) grid.

    K_{a - ib}(xi) = int exp(-xi cosh t) (cosh(at) cos(bt) - i sinh(at)
    sin(bt)) dt on the panels `edges` split 2^level times, as a clongdouble
    array of shape (len(xi), len(b), len(orders)).  The two exponentials
    exp(-xi cosh t +- a t) are kept together so neither overflows alone.
    Panel sums are added pairwise, which holds the roundoff that the closed
    form's conditioning amplifies near one ulp.  Chunked over xi for memory.
    """
    a = np.asarray(orders, dtype=_LD)
    t, w = _nodes_weights(edges, level, _LD)
    cosh_t = np.cosh(t)
    cos_b = np.cos(b[:, None, None] * t) * w
    sin_b = np.sin(b[:, None, None] * t) * w
    n_x = len(xi)
    k = np.empty((n_x, len(b), len(a)), dtype=np.clongdouble)
    # about 24 MB of integrand and per-panel sums (16 bytes a value) per chunk
    chunk = max(1, int(24e6 // (16 * len(a) * (t.size + len(b) * len(t)))))
    for start in range(0, n_x, chunk):
        sl = slice(start, min(start + chunk, n_x))
        base = -xi[sl, None, None, None] * cosh_t
        at = a[:, None, None] * t
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

    One point of the extended-precision kernel that also builds the Wigner
    Bessel tensor.  Panels are refined (halved) until two successive levels
    agree to K_RTOL; exhaustion after K_MAX_LEVELS raises
    BesselAccuracyError carrying the best estimate.  Designed for
    x >= 1e-6 and |Re nu| <= 35, where the result itself stays inside
    double range.
    """
    if not x > 0.0:
        raise ValueError(f"argument must be positive, got x = {x}")
    nu = complex(nu)
    t_max = _tail_cutoff(x, nu.real)
    edges = _panel_edges(t_max, x, abs(nu.imag))
    xi = np.array([x], dtype=_LD)
    b = np.array([-nu.imag], dtype=_LD)

    def evaluate(level: int) -> complex:
        return complex(_k_quadrature(xi, b, np.array([nu.real]), edges, level)[0, 0, 0])

    def failure(estimate, worst, residual, error):
        return BesselAccuracyError(
            f"K_nu quadrature did not reach rtol = {K_RTOL} for nu = {nu}, x = {x} "
            f"(achieved {residual:.3e})",
            estimate=estimate,
            error=error,
        )

    return _refine(evaluate, K_RTOL, K_MAX_LEVELS, failure)


def _k_tensor_level(
    xi: np.ndarray, b_abs: np.ndarray, d_max: int, edges: np.ndarray, level: int
) -> np.ndarray:
    """K_{D - i b}(xi) for D = 0..d_max on the (xi, b) grid.

    Returns a clongdouble array of shape (len(xi), len(b_abs), d_max + 1).
    Only orders 0 and 1 come from the quadrature; the rest follow by the
    upward recurrence K_{nu+1} = K_{nu-1} + (2 nu / xi) K_nu at nu = D - ib
    (DLMF 10.29.1), the stable direction for K, which grows with the order.
    No convergence control here: the caller compares successive levels on
    the quantity it assembles.
    """
    k = np.empty((len(xi), len(b_abs), d_max + 1), dtype=np.clongdouble)
    k[..., :2] = _k_quadrature(xi, b_abs, np.arange(min(d_max, 1) + 1), edges, level)
    two_over_xi = (2.0 / xi)[:, None]
    for d in range(2, d_max + 1):
        k[..., d] = k[..., d - 2] + two_over_xi * ((d - 1) - 1j * b_abs) * k[..., d - 1]
    return k


# One read-only, C-contiguous longdouble array of shape (n_r N, N^2) per
# (params, grid), 16 N^2 n_r N bytes: 6.2 MiB at the default, 21 MiB at
# 401 x 401, 50 MiB at N = 30.
@functools.lru_cache(maxsize=2)
def _closed_terms(params: MorseParams, grid: GridSpec) -> np.ndarray:
    """Rho-independent weights of the closed-form Bessel sum, per r point.

    terms[x N + D, n N + m] is the weight of rho_nm at r point x and Bessel
    order +D for D = 0..N-1: row (x, D) holds every rho_nm in row-major
    (n, m) order, so the product with the rows of rho reads the table
    contiguously, one row at a time.  For the ordered level pair (n, m)
    the inner sums run over j = 0..m and k = 0..n with Bessel order
    D = (n - m) + s where s = j - k.  Along a fixed anti-diagonal s the sign
    (-xi)^(j+k) = (-1)^s xi^(j+k) is constant, so each group

        G_s(xi) = sum_k C(2N-m, m-s-k) C(2N-n, n-k) xi^(s+2k) / ((s+k)! k!)

    is a sum of positive terms built from exact integer combinatorics.
    Swapping (n, m) maps s to -s and negates D with identical magnitudes, so
    the weight of rho_nm at order -D is the weight of rho_mn at +D: the
    table holds D >= 0 only.  For a Hermitian rho the -D half of the sum is
    then the complex conjugate of the +D half, and wigner_closed assembles
    2 Re of the +D half.  Both halves reach order D = 0, so its rows are
    halved (exact in binary).

    Everything is longdouble: the alternating sums over s and over orders
    cancel to one part in 1e9 of their largest terms on parts of the default
    window, which leaves extended precision ten spare digits, and its range
    (1e4932) removes any need for log-space scaling of the xi powers.
    """
    xi = _closed_axes(params, grid)[0]
    big_n = params.n_bound
    two_n = 2 * big_n
    k_total = params.k

    factorial = [math.factorial(i) for i in range(two_n + 1)]
    # norms[n] = N_n = sqrt(n! (k - 2n - 1) / (k - n - 1)!)
    norms = [
        np.sqrt(_ld_int(factorial[n] * (k_total - 2 * n - 1)) / _ld_int(factorial[k_total - n - 1]))
        for n in range(big_n)
    ]

    terms = np.zeros((len(xi) * big_n, big_n * big_n), dtype=_LD)
    # a view of the same memory indexed [x, D, n, m]; filled in place
    view = terms.reshape(len(xi), big_n, big_n, big_n)
    xi_sq = xi * xi
    for n in range(big_n):
        for m in range(big_n):
            pair = norms[n] * norms[m] * xi ** _LD(two_n - n - m)
            for s in range(m - n, m + 1):
                k_start = max(0, -s)
                # Horner over k of the positive series G_s; exact integer
                # weights C(2N-m, m-j) C(2N-n, n-k) / (j! k!) with j = s + k
                value = np.zeros(len(xi), dtype=_LD)
                for k in range(m - s, k_start - 1, -1):
                    coef = _ld_int(
                        math.comb(two_n - m, m - s - k) * math.comb(two_n - n, n - k)
                    ) / _ld_int(factorial[s + k] * factorial[k])
                    value = value * xi_sq + coef
                value *= xi ** _LD(s + 2 * k_start)
                view[:, n - m + s, n, m] = (-pair if s % 2 else pair) * value
    view[:, 0] *= 0.5
    terms.setflags(write=False)
    return terms


# O(n_r + n_p) values per (params, grid), as many keys as the tensor cache
# can hold.
@functools.lru_cache(maxsize=7)
def _closed_axes(
    params: MorseParams, grid: GridSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rho-independent axes of the closed form, cached and read-only.

    Returns (xi, b_abs, inverse, negative_b, edges): the Bessel argument per
    r point, the distinct |b| = 2|p| values, the index mapping
    each p point to its |b|, the mask of negative b, and the panel edges of
    the Bessel quadrature, which runs at orders 0 and 1 only.
    """
    r_axis, p_axis = grid.axes()
    xi = _ld_int(params.k) * np.exp(-r_axis.astype(_LD))
    b = 2.0 * p_axis.astype(_LD)
    b_abs, inverse = np.unique(np.abs(b), return_inverse=True)
    negative_b = b < 0.0
    t_max = _tail_cutoff(float(np.min(xi)), 1.0)
    edges = _panel_edges(t_max, float(np.max(xi)), float(np.max(b_abs, initial=0.0)))
    axes = (xi, b_abs, inverse, negative_b, edges)
    for array in axes:
        array.setflags(write=False)
    return axes


# One entry per refinement level: enough for one (params, grid) key through
# every level up to WIGNER_MAX_LEVELS = 6.
# Each entry holds one clongdouble array of shape (n_r, n_unique_b, N),
# 32 n_r n_unique_b N bytes: 3.5 MB for the default 121 x 121 window at
# N = 15, 39 MB for a 401 x 401 window.
@functools.lru_cache(maxsize=7)
def _bessel_tensor(params: MorseParams, grid: GridSpec, level: int) -> np.ndarray:
    """_k_tensor_level cached per (params, grid, level).  The tensor does not
    depend on rho, so every snapshot with the same key reuses it; the array
    is read-only because it is shared."""
    xi, b_abs, _, _, edges = _closed_axes(params, grid)
    k = _k_tensor_level(xi, b_abs, params.n_bound - 1, edges, level)
    k.setflags(write=False)
    return k


def wigner_closed(
    rho: np.ndarray,
    params: MorseParams,
    grid: GridSpec | None = None,
    time: float = 0.0,
    rtol: float = 1e-8,
) -> WignerGrid:
    """Wigner function from the analytic bound-state sum.

    The Bessel panel quadrature is refined until the assembled W values
    stabilize to rtol of the grid maximum; exhaustion after
    WIGNER_MAX_LEVELS raises BesselAccuracyError naming the worst grid
    point.  The map is W[h] = 2 Re(c K) of the +D half of the sum, with
    h = (rho + rho^H)/2.  Before
    any quadrature, a non-finite entry in rho raises ValueError, and so
    does an anti-Hermitian residue max |rho - rho^H| above
    HERMITICITY_TOL, the bound validate_density holds every state to.

    The term table (per params, grid) and the Bessel tensor (per params,
    grid, level) do not depend on rho; later calls reuse them.
    """
    grid = grid or GridSpec()
    big_n = params.n_bound
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (big_n, big_n):
        raise ValueError(f"density matrix shape {rho.shape} != ({big_n}, {big_n})")
    bad = np.argwhere(~np.isfinite(rho))
    if len(bad):
        n, m = bad[0]
        raise ValueError(f"density matrix entry ({n}, {m}) is not finite: {rho[n, m]}")
    skew = np.abs(rho - rho.conj().T)
    n, m = np.unravel_index(int(np.argmax(skew)), skew.shape)
    if skew[n, m] > HERMITICITY_TOL:
        raise ValueError(
            f"anti-Hermitian residue |rho - rho^H| = {skew[n, m]:.3e} at entry "
            f"({n}, {m}) exceeds {HERMITICITY_TOL}; rho is not Hermitian"
        )
    r_axis, p_axis = grid.axes()
    _, _, inverse, negative_b, _ = _closed_axes(params, grid)

    # rows: Re and Im of 2h.  A Hermitian h has c_neg = conj(c_pos), so
    # W[h] = 2 Re(c_pos K) needs only Re c and Im c of the +D half, from one
    # real product with the table
    re, im = rho.real.astype(_LD), rho.imag.astype(_LD)
    rows = np.reshape([re + re.T, im - im.T], (2, -1))
    terms = _closed_terms(params, grid)
    # one sequential sum over (n, m) per table row (x, D), read contiguously;
    # Re c and Im c go back to (x, D) order, the layout the contraction reads
    re_c, im_c = np.ascontiguousarray(np.dot(terms, rows.T).T).reshape(2, len(r_axis), big_n)
    prefactor = _LD(2.0) / _LD(math.pi)
    # negative-b columns take conj(K), which flips the sign of Im K
    sign = np.where(negative_b, _LD(-1.0), _LD(1.0))

    def assemble(level: int) -> np.ndarray:
        k = _bessel_tensor(params, grid, level)
        # Re c Re K - Im c Im K on the unique |b| columns, then out to p
        re_k = np.einsum("xd,xbd->xb", re_c, k.real, optimize=False)
        im_k = np.einsum("xd,xbd->xb", im_c, k.imag, optimize=False)
        return (re_k[:, inverse] - sign * im_k[:, inverse]) * prefactor

    def failure(estimate, worst, residual, error):
        # conditioning at the worst point: the largest single term
        # |row . term . K| of its sum against the largest assembled |W|
        x, p = worst
        k = _bessel_tensor(params, grid, WIGNER_MAX_LEVELS)[x, inverse[p]]
        block = terms[x * big_n:(x + 1) * big_n]
        largest = np.max(np.abs(rows).max(axis=0) * np.abs(block) * np.abs(k)[:, None])
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

    values = np.asarray(_refine(assemble, rtol, WIGNER_MAX_LEVELS, failure), dtype=float)
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
    Reference implementation for testing, not tuned for speed.
    """
    grid = grid or GridSpec()
    big_n = params.n_bound
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (big_n, big_n):
        raise ValueError(f"density matrix shape {rho.shape} != ({big_n}, {big_n})")
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
