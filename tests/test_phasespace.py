import cmath
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special as sp

from deformed_lindblad import (
    BesselAccuracyError,
    GridSpec,
    MorseParams,
    alpha_for_mean_n,
    aocs,
    bessel_k_complex_order,
    docs_from_alpha,
    integrate,
    morse_model,
    to_density,
    wigner_closed,
    wigner_diagnostics,
    wigner_direct_oracle,
)
from deformed_lindblad import phasespace
from deformed_lindblad.dissipator import HERMITICITY_TOL
from deformed_lindblad.runner import DEFAULT_T_SAMPLES

SMALL_GRID = GridSpec(n_r=21, n_p=21)
# the widest momentum window the tests map (b = 2|p| up to 38) on r <= 16,
# where xi falls to 3.5e-6
WIDE_GRID = GridSpec(r_min=-2.0, r_max=16.0, n_r=19, p_min=-19.0, p_max=19.0, n_p=39)


def test_bessel_half_order_closed_form():
    value = bessel_k_complex_order(0.5, 1.0)
    exact = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
    assert abs(value - exact) < 1e-8
    assert abs(value.imag) < 1e-15


def test_bessel_against_scipy_real_orders():
    for nu, x in [(0.0, 0.5), (3.0, 2.0), (7.5, 10.0), (1.0, 40.0), (20.0, 0.05)]:
        mine = bessel_k_complex_order(nu, x)
        ref = sp.kv(nu, x)
        assert abs(mine - ref) / abs(ref) < 1e-9


def test_bessel_against_mpmath_complex_orders():
    mpmath.mp.dps = 40
    cases = [
        (2 + 3j, 1.5),
        (-4.2 + 11j, 0.3),
        (14 - 12j, 30.0),
        (0.5 - 2j, 1e-4),
        (30 + 5j, 0.01),
        (35 + 0j, 1e-6),   # corner of the advertised domain, |K| ~ 4e258
    ]
    for nu, x in cases:
        mine = bessel_k_complex_order(nu, x)
        ref = complex(mpmath.besselk(mpmath.mpc(nu), mpmath.mpf(x)))
        assert abs(mine - ref) / abs(ref) < 1e-9


def test_bessel_even_in_order():
    rng = np.random.default_rng(8)
    for _ in range(10):
        nu = complex(rng.uniform(-20, 20), rng.uniform(-15, 15))
        x = float(np.exp(rng.uniform(np.log(0.01), np.log(50.0))))
        a = bessel_k_complex_order(nu, x)
        b = bessel_k_complex_order(-nu, x)
        assert abs(a - b) <= 1e-10 * max(abs(a), 1e-300)


def test_bessel_conjugation():
    rng = np.random.default_rng(9)
    for _ in range(10):
        nu = complex(rng.uniform(-20, 20), rng.uniform(-15, 15))
        x = float(np.exp(rng.uniform(np.log(0.01), np.log(50.0))))
        a = bessel_k_complex_order(np.conj(nu), x)
        b = np.conj(bessel_k_complex_order(nu, x))
        assert abs(a - b) <= 1e-10 * max(abs(a), 1e-300)


def test_bessel_refinement_budget_exhaustion_raises():
    # order 18i at x = 1e-5 oscillates faster than K_MAX_LEVELS halvings of
    # the step resolve: the error names the point and keeps the best estimate
    with pytest.raises(BesselAccuracyError, match=r"nu = 18j, x = 1e-05 \(achieved") as exc:
        bessel_k_complex_order(18j, 1e-5)
    assert exc.value.error > 0.0
    assert cmath.isfinite(exc.value.estimate)


def test_bessel_rejects_nonpositive_argument():
    with pytest.raises(ValueError, match="positive"):
        bessel_k_complex_order(1.0, 0.0)
    with pytest.raises(ValueError, match="positive"):
        bessel_k_complex_order(1.0, -2.0)
    # non-finite input is refused by name before any quadrature is sized
    for x in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"x = {x}"):
            bessel_k_complex_order(1.0, x)
    for nu in (complex(0.0, math.inf), math.nan, math.inf, complex(2.0, -math.inf)):
        with pytest.raises(ValueError, match="order must be finite, got nu"):
            bessel_k_complex_order(nu, 1.0)


@pytest.mark.parametrize("grid, orders, floor", [
    (GridSpec(), (0, 1, 7, 14), 0.0), (WIDE_GRID, (0, 1), 1e-16),
], ids=["default", "wide"])
def test_bessel_tensor_against_mpmath(grid, orders, floor):
    # orders 0 and 1 come from the quadrature and the rest from the upward
    # order recurrence; check both kinds at the corners of each window,
    # reading each p point's column through the axes' index map.  On the
    # wide window, at b = 38 and xi = 3.5e-6, K_{D - ib} is below
    # exp(-pi b / 2) = 1e-26 of its b = 0 value, under the longdouble
    # resolution of the integrand, so an error within floor of that scale
    # is accepted there.  Only the quadrature orders are checked there: on
    # the way up, the recurrence multiplies their absolute error by about
    # prod_d |d - ib| / d, 4e6 from D = 1 to D = 7 at b = 38, whatever the
    # quadrature of orders 0 and 1
    params = MorseParams(n_bound=15)
    p_axis = grid.axes()[1]
    window = phasespace.closed_form_window(params, grid)
    xi, b_abs, inverse = window.xi, window.b_abs, window.inverse
    tensor = phasespace._closed_form(params, grid).k1
    assert b_abs[0] == 0.0
    mpmath.mp.dps = 40
    for x in (int(np.argmin(xi)), int(np.argmax(xi))):
        for p in (0, grid.n_p // 2, grid.n_p - 1):
            for d in orders:
                # p_min takes the column of its mirror p_max
                nu = mpmath.mpc(d, -2.0 * abs(float(p_axis[max(p, grid.n_p - 1 - p)])))
                ref = complex(mpmath.besselk(nu, mpmath.mpf(float(xi[x]))))
                scale = float(mpmath.besselk(d, mpmath.mpf(float(xi[x]))))
                got = complex(tensor[x, inverse[p], d])
                assert abs(got - ref) <= 1e-9 * abs(ref) + floor * scale, (x, p, d)


@pytest.mark.parametrize("n_p, columns", [(121, 61), (41, 21)])
def test_symmetric_window_merges_mirrored_columns(params, n_p, columns):
    # np.linspace(-6, 6, n) is not bitwise antisymmetric, so exact |p| values
    # alone would keep 101 (121 points) and 32 (41 points) columns; p_j and
    # p_{n-1-j} share the column of the p >= 0 point instead
    grid = GridSpec(n_r=21, n_p=n_p)
    p_axis = grid.axes()[1]
    assert not np.array_equal(p_axis, -p_axis[::-1])
    plan = phasespace._closed_form(params, grid)
    b_abs = phasespace.closed_form_window(params, grid).b_abs
    inverse, negative_b = plan.inverse, plan.negative_b
    assert len(b_abs) == columns
    assert np.array_equal(inverse, inverse[::-1])
    upper = np.arange(n_p // 2, n_p)
    assert np.array_equal(b_abs[inverse[upper]], 2.0 * np.abs(p_axis[upper].astype(np.longdouble)))
    assert np.array_equal(negative_b, p_axis < 0)


def test_real_state_maps_to_a_mirror_symmetric_grid(params, rho_docs, monkeypatch):
    # a real rho has W(r, -p) = W(r, p); with mirrored columns merged the
    # default grid holds it bit for bit.  Its level-0/1 bound (2e-17 of
    # max |W|) accepts the single contraction, so no refinement runs
    assert not np.any(rho_docs.imag)

    def refine(*args):
        raise AssertionError("the default docs snapshot refined past level 1")

    monkeypatch.setattr(phasespace, "_refine", refine)
    values = wigner_closed(rho_docs, params).values
    assert np.array_equal(values, values[:, ::-1])


def test_ground_state_closed_matches_oracle(params, fock_state):
    rho = fock_state(0)
    closed = wigner_closed(rho, params, SMALL_GRID)
    direct = wigner_direct_oracle(rho, params, SMALL_GRID)
    scale = np.max(np.abs(direct.values))
    assert np.max(np.abs(closed.values - direct.values)) < 1e-8 * scale
    assert np.min(closed.values) > -1e-12 * scale


def test_coherence_state_closed_matches_oracle(params, model):
    # complex displacement: complex off-diagonals exercise the order pairing
    rho = to_density(aocs(0.9 + 0.7j, model))
    closed = wigner_closed(rho, params, SMALL_GRID)
    direct = wigner_direct_oracle(rho, params, SMALL_GRID)
    scale = np.max(np.abs(direct.values))
    assert np.max(np.abs(closed.values - direct.values)) < 1e-7 * scale


def test_asymmetric_momentum_window(params, model):
    # an off-center p axis exercises the negative-order conjugation mapping
    # on a non-uniform set of |b| values
    grid = GridSpec(r_min=-1.0, r_max=6.0, n_r=15, p_min=-2.0, p_max=6.5, n_p=16)
    rho = to_density(aocs(0.8 + 0.5j, model))
    closed = wigner_closed(rho, params, grid)
    direct = wigner_direct_oracle(rho, params, grid)
    scale = np.max(np.abs(direct.values))
    assert np.max(np.abs(closed.values - direct.values)) < 1e-7 * scale


@pytest.mark.parametrize("state", ["rho_docs", "rho_cat", 8])
def test_wide_momentum_window_matches_oracle_at_the_default_rtol(request, params, fock_state, state):
    # on WIDE_GRID the Bessel recurrence runs at |b| up to 38 and xi down
    # to 3.5e-6, where it loses digits (about 2e-8 of K_14); the maps keep
    # 4.1e-13 (docs), 1.9e-10 (even cat) and 1.6e-9 (|8>) of max |W|
    rho = fock_state(state) if isinstance(state, int) else request.getfixturevalue(state)
    closed = wigner_closed(rho, params, WIDE_GRID)
    direct = wigner_direct_oracle(rho, params, WIDE_GRID)
    scale = np.max(np.abs(direct.values))
    assert np.max(np.abs(closed.values - direct.values)) < 1e-6 * scale


def test_wide_momentum_window_refuses_a_high_level(params, fock_state):
    # |12> has too few digits left on WIDE_GRID at rtol = 1e-8: it is
    # refused, not returned with the recurrence's error in it
    with pytest.raises(BesselAccuracyError, match="stabilize"):
        wigner_closed(fock_state(12), params, WIDE_GRID)


def test_window_beyond_every_support_maps_to_zero(params):
    # the bound states end near r = 33 at 1e-12 of their peak, so on
    # r in [60, 70] the oracle has no kernel to integrate and returns zeros;
    # the closed form agrees to its true values there, which the top level
    # keeps below 1e-45 (its wavefunction is of order xi = 31 e^(-r))
    grid = GridSpec(r_min=60.0, r_max=70.0, n_r=5, p_min=-3.0, p_max=3.0, n_p=7)
    rho = np.eye(15, dtype=complex) / 15
    assert not np.any(wigner_direct_oracle(rho, params, grid).values)
    assert np.max(np.abs(wigner_closed(rho, params, grid).values)) < 1e-45


@pytest.mark.parametrize("n_bound", [10, 15, 20, 30, 35])
def test_closed_matches_oracle_across_ladder_sizes(n_bound):
    # the closed form loses digits as N grows (about 7e-15 of max |W| at
    # N = 10, 1.6e-8 at N = 30 and 6.5e-7 at N = 35); the oracle gate must
    # hold across the sweep
    params = MorseParams(n_bound)
    cap = (math.pi / 2 - 1e-9) / params.chi
    alpha = alpha_for_mean_n(
        2.0, lambda a, m: docs_from_alpha(a, params), morse_model(params), alpha_max=cap
    )
    rho = to_density(docs_from_alpha(alpha, params))
    grid = GridSpec(n_r=41, n_p=41)
    closed = wigner_closed(rho, params, grid)
    direct = wigner_direct_oracle(rho, params, grid)
    scale = np.max(np.abs(direct.values))
    assert np.max(np.abs(closed.values - direct.values)) < 1e-6 * scale


def test_closed_form_rejects_non_hermitian(params, fock_state):
    rho = fock_state(0)
    rho[0, 3] = 0.05          # no conjugate partner
    with pytest.raises(ValueError, match="residue"):
        wigner_closed(rho, params, SMALL_GRID)


@pytest.mark.parametrize("state", ["rho_docs", "rho_aocs", "rho_cat"])
def test_hermitian_pairing_is_exact(request, params, model, rates, etas, state):
    # the states the runner maps are exactly Hermitian, at t = 0 and after
    # evolution has dressed every order, so they pass the check on rho with
    # no anti-Hermitian residue at all
    rho0 = request.getfixturevalue(state)
    evolved = integrate(rho0, model, rates, etas, 1.0, 1e-3, [0.0, 1.0]).states
    for rho in evolved:
        assert np.array_equal(rho, rho.conj().T)
        wigner_closed(rho, params, SMALL_GRID)


def test_anti_hermitian_part_only_reaches_the_residue(params, model, rates, etas, rho_docs, rho_cat):
    # rho = h + i eps S with S real symmetric has anti-Hermitian residue
    # |rho - rho^H| = 2 eps |S|: below HERMITICITY_TOL it must leave the real
    # map W[h] bit for bit, above it the check on rho rejects the input.  S
    # is full on the real docs state; on the evolved cat state (complex
    # coherences) it is diagonal, where adding i eps S rounds nothing
    rng = np.random.default_rng(3)
    full = rng.normal(size=(15, 15))
    full = full + full.T
    evolved = integrate(rho_cat, model, rates, etas, 1.0, 1e-3, [1.0]).states[-1]
    assert 2e-12 * np.max(np.abs(full)) < HERMITICITY_TOL
    for h, s in ((rho_docs, full), (evolved, np.diag(np.diag(full)))):
        expected = wigner_closed(h, params, SMALL_GRID).values
        got = wigner_closed(h + 1e-12j * s, params, SMALL_GRID).values
        assert got.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="residue"):
            wigner_closed(h + 1e-4j * s, params, SMALL_GRID)


@pytest.mark.parametrize("t", [0.2, 1.0])
def test_evolved_cat_closed_matches_oracle(params, model, rates, etas, rho_cat, t):
    # the evolved cat is mixed with complex coherences in every order: the
    # snapshots where the imaginary rows of the contraction weigh most
    rho = integrate(rho_cat, model, rates, etas, t, 1e-3, [t]).states[-1]
    closed = wigner_closed(rho, params, SMALL_GRID)
    direct = wigner_direct_oracle(rho, params, SMALL_GRID)
    scale = np.max(np.abs(direct.values))
    assert np.max(np.abs(closed.values - direct.values)) < 1e-7 * scale


def test_closed_form_rejects_non_finite_before_quadrature(params, fock_state):
    # a non-finite and a non-Hermitian rho both raise before any plan is
    # built, naming the offending entry; the oracle refuses the non-finite
    # one too, where it would otherwise climb every level on NaN residuals.
    # Hermiticity is the closed form's own premise, not the oracle's.  An
    # rtol that is not positive and finite is refused by both routes
    # instead of being blamed on the quadrature
    non_finite = fock_state(0)
    non_finite[3, 1] = np.nan
    lopsided = fock_state(0)
    lopsided[2, 4] = 1e-6     # no conjugate partner
    cases = [(wigner_closed, non_finite, 1e-8, r"entry \(3, 1\) is not finite"),
             (wigner_direct_oracle, non_finite, 1e-8, r"entry \(3, 1\) is not finite"),
             (wigner_closed, lopsided, 1e-8, r"residue .* at entry \(2, 4\)")]
    cases += [(route, fock_state(0), rtol, f"rtol must be positive and finite, got {rtol}")
              for route in (wigner_closed, wigner_direct_oracle)
              for rtol in (math.nan, 0.0, -1e-8, math.inf)]
    for route, rho, rtol, message in cases:
        builds = phasespace._closed_form.cache_info()
        with pytest.raises(ValueError, match=message):
            route(rho, params, SMALL_GRID, rtol=rtol)
        assert phasespace._closed_form.cache_info() == builds


def test_wigner_grid_metadata(params, fock_state):
    grid = wigner_closed(fock_state(0), params, SMALL_GRID, time=1.5)
    assert grid.time == 1.5
    assert grid.values.shape == (21, 21)
    assert grid.r_axis[0] == SMALL_GRID.r_min
    assert grid.p_axis[-1] == SMALL_GRID.p_max


def test_diagnostics_fields(params, fock_state):
    wide = GridSpec(r_min=-2, r_max=12, n_r=101, p_min=-14, p_max=14, n_p=141)
    rho = fock_state(0)
    grid = wigner_closed(rho, params, wide)
    diag = wigner_diagnostics(grid, rho)
    assert diag.norm == pytest.approx(1.0, abs=1e-3)
    assert diag.purity_w == pytest.approx(1.0, abs=1e-2)
    assert diag.purity_m == pytest.approx(1.0, abs=1e-12)
    assert diag.max_w > 0
    assert diag.min_w <= diag.max_w
    r_loc, p_loc = diag.min_w_location
    assert wide.r_min <= r_loc <= wide.r_max
    assert wide.p_min <= p_loc <= wide.p_max


def test_diagnostics_maximally_mixed(params):
    # the top level's closed form is conditioned beyond even extended
    # precision (about 1e13), so the quadrature tolerance is relaxed to what
    # that input can support; the diagnostics tolerances dominate anyway.
    # near-dissociation levels carry Lorentzian momentum tails (their
    # position tails decay as slowly as exp(-beta r)), so a finite window
    # always leaves a few tenths of a percent of the mixed-state norm outside
    wide = GridSpec(r_min=-2, r_max=16, n_r=91, p_min=-19, p_max=19, n_p=191)
    rho = np.eye(15, dtype=complex) / 15.0
    grid = wigner_closed(rho, params, wide, rtol=1e-4)
    diag = wigner_diagnostics(grid, rho)
    assert diag.purity_m == pytest.approx(1.0 / 15.0, abs=1e-14)
    assert diag.purity_w == pytest.approx(1.0 / 15.0, abs=1e-2)
    assert 0.99 < diag.norm < 1.001


def test_top_level_state_needs_relaxed_tolerance(params, fock_state, monkeypatch):
    # |N-1> is the worst-conditioned input: the default tolerance must be
    # refused honestly rather than met with noise
    from deformed_lindblad import BesselAccuracyError

    rho = fock_state(14)
    with pytest.raises(BesselAccuracyError, match="stabilize") as exc:
        wigner_closed(rho, params, SMALL_GRID)
    # the message names the cause: one term of the sum is about 1e12 x max |W|
    # (measured 7.05e11), which leaves fewer digits than rtol = 1e-8 needs
    found = re.search(r"largest single term is (\S+) x max \|W\|, which leaves (\S+) of",
                      str(exc.value))
    assert found, str(exc.value)
    assert float(found.group(1)) > 1e10
    assert float(found.group(2)) < 8.0
    # once the plan exists, neither the acceptance nor the refusal runs any
    # quadrature: both are decided from the plan's two levels alone
    quadratures = []
    kernel = phasespace._k_quadrature

    def counted(*args):
        quadratures.append(args)
        return kernel(*args)

    monkeypatch.setattr(phasespace, "_k_quadrature", counted)
    grid = wigner_closed(rho, params, SMALL_GRID, rtol=1e-4)
    direct = wigner_direct_oracle(rho, params, SMALL_GRID)
    scale = np.max(np.abs(direct.values))
    assert np.max(np.abs(grid.values - direct.values)) < 1e-4 * scale
    # the refusal is repeatable
    with pytest.raises(BesselAccuracyError, match="stabilize"):
        wigner_closed(rho, params, SMALL_GRID)
    assert quadratures == []


# Each default snapshot's outcome when longdouble is plain float64 (as on
# MSVC builds and macOS arm64), on SMALL_GRID: "returns" within 1e-6 of the
# oracle (docs up to 1.0e-8 and aocs up to 3.2e-8 of max |W|) or "raises"
# BesselAccuracyError (even cat: residuals 4.5e-8 to 4.0e-7)
FLOAT64_OUTCOMES = {"docs": ["returns"] * 4, "aocs": ["returns"] * 4, "even_cat": ["raises"] * 4}


def test_float64_closed_form_returns_within_the_oracle_gate_or_raises(
    params, model, rates, etas, rho_docs, rho_aocs, rho_cat, monkeypatch
):
    monkeypatch.setattr(phasespace, "_LD", np.float64)
    monkeypatch.setattr(phasespace, "_CLD", np.complex128)
    phasespace._closed_form.cache_clear()
    outcomes = {}
    try:
        assert phasespace._closed_form(params, SMALL_GRID).k1.dtype == np.complex128
        for name, rho0 in (("docs", rho_docs), ("aocs", rho_aocs), ("even_cat", rho_cat)):
            samples = list(DEFAULT_T_SAMPLES[name])
            evolved = integrate(rho0, model, rates, etas, samples[-1], 1e-3, samples).states
            outcomes[name] = []
            for t, rho in zip(samples, evolved, strict=True):
                try:
                    closed = wigner_closed(rho, params, SMALL_GRID, time=t)
                except BesselAccuracyError:
                    outcomes[name].append("raises")
                    continue
                direct = wigner_direct_oracle(rho, params, SMALL_GRID)
                scale = np.max(np.abs(direct.values))
                assert np.max(np.abs(closed.values - direct.values)) < 1e-6 * scale
                outcomes[name].append("returns")
    finally:
        phasespace._closed_form.cache_clear()
    assert outcomes == FLOAT64_OUTCOMES


def _cold(rho, params, grid):
    phasespace._closed_form.cache_clear()
    return wigner_closed(rho, params, grid).values


def test_warm_cache_is_bit_identical_to_cold(params, rho_docs):
    cold = _cold(rho_docs, params, SMALL_GRID)
    assert phasespace._closed_form.cache_info().currsize == 1
    warm = wigner_closed(rho_docs, params, SMALL_GRID).values
    assert warm.tobytes() == cold.tobytes()


@pytest.mark.parametrize("grid", [
    SMALL_GRID, GridSpec(r_min=-1.0, r_max=6.0, n_r=15, p_min=-2.0, p_max=6.5, n_p=16), WIDE_GRID,
])
def test_level_one_bound_dominates_the_level_change(params, fock_state, rho_docs, rho_aocs,
                                                    rho_cat, grid):
    # wigner_closed returns the level-1 map W1 when
    # max_x sum_D (|Re c_D| + |Im c_D|) dk[x, D] is within rtol of max |W1|
    # (both in units of 2/pi), so that sum must hold |W1 - W0| at every grid
    # point.  Both maps are built here in complex arithmetic; the bound may
    # read below the change by round-off only
    plan = phasespace._closed_form(params, grid)
    for rho in (rho_docs, rho_aocs, rho_cat, *(fock_state(n) for n in range(14))):
        re, im = rho.real.astype(np.longdouble), rho.imag.astype(np.longdouble)
        rows = np.reshape([re + re.T, im - im.T], (2, -1))
        re_c, im_c = phasespace._coefficient_product(plan, rows)
        maps = []
        for k in (plan.k0, plan.k1):
            # negative-b points take conj(K)
            k = k[:, plan.inverse]
            k = np.where(plan.negative_b[:, None], k.conj(), k)
            maps.append(np.einsum("xd,xpd->xp", re_c + 1j * im_c, k).real)
        bound = np.max(np.sum((np.abs(re_c) + np.abs(im_c)) * plan.dk, axis=1))
        scale = np.max(np.abs(maps[1]))
        assert bound / scale >= np.max(np.abs(maps[1] - maps[0])) / scale - 1e-18


@pytest.mark.parametrize("grid", [GridSpec(), WIDE_GRID], ids=["default", "wide"])
def test_quadrature_steps_agree_to_the_tensor_scale(params, grid):
    # the trapezoid step comes from the strip bound for the largest xi and
    # |b| on the grid; at that step and its half, orders 0 and 1 agree to
    # 1e-16 of max_b |K| at every r point (at most 5e-18 measured), so the
    # level change is round-off and a finer level would compare noise.
    # The recurrence orders above inherit this change amplified, as they
    # would from any quadrature (see test_bessel_tensor_against_mpmath)
    plan = phasespace._closed_form(params, grid)
    scale = np.abs(plan.k1[..., :2]).max(axis=1)
    assert np.max(plan.dk[:, :2] / scale) <= 1e-16


def test_unresolvable_window_raises_at_once(params, fock_state):
    # b = 2e300 asks for a step of about 3e-300: sizing its nodes fails at
    # once instead of looping or allocating
    with pytest.raises(ValueError):
        wigner_closed(fock_state(0), params, GridSpec(p_min=-1e300, p_max=1e300))


@pytest.mark.parametrize("r_max", [709.0, 800.0])
def test_window_past_float64_reach_raises_before_quadrature(params, fock_state, r_max):
    # the Bessel tail at xi = 31 e^(-r_max) is sized in float64, whose cosh
    # overflows past t = 710.48; at 800 xi itself underflows to 0
    builds = phasespace._closed_form.cache_info()
    with pytest.raises(ValueError, match=r"r_max = .* xi = 31 e\^\(-r_max\)"):
        wigner_closed(fock_state(0), params, GridSpec(r_max=r_max, n_r=5, n_p=5))
    assert phasespace._closed_form.cache_info().currsize == builds.currsize


@pytest.mark.parametrize("r_min", [-40.0, -700.0, -1e6])
def test_window_past_the_node_budget_raises_before_quadrature(params, fock_state, monkeypatch, r_min):
    # the trapezoid step shrinks as xi = 31 e^(-r_min) grows: at -40 the
    # finer step needs 9.1e10 nodes (the cos and sin tables alone would
    # take 8.7 TB at n_p = 5), and at -1e6 xi overflows even longdouble; each
    # window is refused before any quadrature is sized
    def no_quadrature(*args):
        raise AssertionError("quadrature reached")

    monkeypatch.setattr(phasespace, "_k_quadrature", no_quadrature)
    builds = phasespace._closed_form.cache_info()
    with pytest.raises(ValueError, match=r"r_min = .* xi = 31 e\^\(-r_min\)"):
        wigner_closed(fock_state(0), params, GridSpec(r_min=r_min, n_r=5, n_p=5))
    assert phasespace._closed_form.cache_info().currsize == builds.currsize


@pytest.mark.parametrize(
    "n_bound, grid", [(200, GridSpec()), (15, GridSpec(n_r=4001, n_p=4001))]
)
def test_plan_past_the_byte_budget_raises_before_building(monkeypatch, n_bound, grid):
    # 8.6e9 bytes of xi coefficients at N = 200, two 3.8e9-byte Bessel
    # tensor levels on 4001 x 4001: each plan is refused before any array
    # of it
    def no_build(*args):
        raise AssertionError("plan build reached")

    monkeypatch.setattr(phasespace, "_term_coefficients", no_build)
    monkeypatch.setattr(phasespace, "_k_tensor_level", no_build)
    builds = phasespace._closed_form.cache_info()
    rho = np.zeros((n_bound, n_bound), dtype=complex)
    rho[0, 0] = 1.0
    with pytest.raises(ValueError, match=rf"plan for N = {n_bound} on n_r = {grid.n_r} r points"):
        wigner_closed(rho, MorseParams(n_bound), grid)
    assert phasespace._closed_form.cache_info().currsize == builds.currsize


@pytest.mark.parametrize("grid", [SMALL_GRID, GridSpec(n_r=7, p_min=-2.0, n_p=9)])
def test_plan_budget_counts_the_plans_bytes(params, monkeypatch, grid):
    # the size closed_form_window checks is the bytes of the plan's arrays:
    # a budget of exactly that admits the plan, one byte less refuses it
    plan = phasespace._closed_form(params, grid)
    size = sum(a.nbytes for a in (*plan.coefficients, *plan.powers, plan.k0, plan.k1, plan.dk))
    monkeypatch.setattr(phasespace, "_PLAN_BYTES", size)
    n_b = len(phasespace.closed_form_window(params, grid).b_abs)
    monkeypatch.setattr(phasespace, "_PLAN_BYTES", size - 1)
    with pytest.raises(ValueError, match=rf"{n_b} distinct \|b\| would take {size} bytes"):
        phasespace.closed_form_window(params, grid)


def test_node_budget_follows_the_momentum_points(params):
    # at 64 (n_p + 8) bytes per node, r_min = -15 (about 340,000 nodes at
    # the finer step) fits the budget at n_p = 5 and not at n_p = 121; the
    # tail itself depends on r_max alone
    tail = phasespace.closed_form_window(params, GridSpec()).t_max
    assert phasespace.closed_form_window(params, GridSpec(r_min=-15.0, n_p=5)).t_max == tail
    with pytest.raises(ValueError, match=r"r_min = -15\.0 .* at n_p = 121"):
        phasespace.closed_form_window(params, GridSpec(r_min=-15.0))


def test_extent_refusals_come_before_any_window_array(params, monkeypatch):
    # the node budget reads the grid's extents and n_p only: 10^8 momentum
    # points are refused before an axis of them exists
    def no_axes(self):
        raise AssertionError("grid axes built")

    monkeypatch.setattr(GridSpec, "axes", no_axes)
    with pytest.raises(ValueError, match=r"r_min = -2\.0 .* at n_p = 100000000"):
        phasespace.closed_form_window(params, GridSpec(n_p=10**8))
    with pytest.raises(ValueError, match=r"r_max = 800\.0 is out of the closed form's reach"):
        phasespace.closed_form_window(params, GridSpec(r_max=800.0))


def _two_row_map(rho, params, grid):
    """The level-1 map as two contractions on the |b| columns, their
    difference and sum copied out to the p points in longdouble, then
    rounded: the reference for wigner_closed's rounded column copy-out."""
    plan = phasespace._closed_form(params, grid)
    re, im = rho.real.astype(np.longdouble), rho.imag.astype(np.longdouble)
    rows = np.reshape([re + re.T, im - im.T], (2, -1))
    re_c, im_c = phasespace._coefficient_product(plan, rows)
    prefactor = np.longdouble(2.0) / np.longdouble(math.pi)
    re_k = np.einsum("xd,xbd->xb", re_c, plan.k1.real, optimize=False)
    im_k = np.einsum("xd,xbd->xb", im_c, plan.k1.imag, optimize=False)
    values = ((re_k - im_k) * prefactor)[:, plan.inverse]
    negative = plan.negative_b
    values[:, negative] = ((re_k + im_k) * prefactor)[:, plan.inverse[negative]]
    return values.astype(float)


@pytest.mark.parametrize("grid", [
    GridSpec(), GridSpec(r_min=-1.0, r_max=6.0, n_r=15, p_min=-2.0, p_max=6.5, n_p=16),
], ids=["default", "asymmetric"])
def test_column_copy_out_equals_the_two_row_map(params, model, rho_docs, grid):
    # the real docs state takes one product row and the complex aocs state
    # two; each map is the two-row reference bit for bit, on the mirrored
    # default window and on an asymmetric one with an even n_p
    complex_rho = to_density(aocs(0.9 + 0.7j, model))
    assert not np.any(rho_docs.imag) and np.any(complex_rho.imag - complex_rho.imag.T)
    for rho in (rho_docs, complex_rho):
        got = wigner_closed(rho, params, grid).values
        assert np.array_equal(got, _two_row_map(rho, params, grid))


def test_refused_bound_refines_to_the_same_map(params, fock_state, monkeypatch):
    # |8> on SMALL_GRID: the bound reads 2.41e-8 of max |W| against a true
    # level-0/1 change of 3.67e-9.  At rtol = 1e-7 the bound accepts the
    # single contraction; at 1e-8 it refuses, and _refine accepts level 1
    # on the true change, so both calls return the same map
    calls = []
    refine = phasespace._refine

    def counted(evaluate, rtol, levels, failure):
        calls.append(rtol)
        return refine(evaluate, rtol, levels, failure)

    monkeypatch.setattr(phasespace, "_refine", counted)
    rho = fock_state(8)
    fast = wigner_closed(rho, params, SMALL_GRID, rtol=1e-7).values
    assert calls == []
    refined = wigner_closed(rho, params, SMALL_GRID, rtol=1e-8).values
    assert calls == [1e-8]
    assert np.array_equal(refined, fast)


def test_cache_key_separates_inputs(params, fock_state):
    asymmetric = GridSpec(r_min=-1.0, r_max=6.0, n_r=15, p_min=-2.0, p_max=6.5, n_p=16)
    small_ladder = MorseParams(10)
    variants = [
        (fock_state(1), params, asymmetric),
        (fock_state(1, dim=10), small_ladder, SMALL_GRID),
    ]
    # off a symmetric window the distinct |b| come from exact np.unique
    b_abs = phasespace.closed_form_window(params, asymmetric).b_abs
    p_axis = asymmetric.axes()[1]
    assert np.array_equal(b_abs, np.unique(np.abs(2.0 * p_axis.astype(np.longdouble))))
    base = _cold(fock_state(1), params, SMALL_GRID)
    warm = []
    for rho, p, grid in variants:
        warm.append(wigner_closed(rho, p, grid).values)
    # every variant was computed with the base key (and the earlier
    # variants) in the cache; each must equal its own cold computation
    for (rho, p, grid), values in zip(variants, warm):
        cold = _cold(rho, p, grid)
        assert values.tobytes() == cold.tobytes()
        assert not np.array_equal(values, base)


def test_cached_arrays_are_read_only(params, fock_state):
    wigner_closed(fock_state(0), params, SMALL_GRID)
    plan = phasespace._closed_form(params, SMALL_GRID)
    arrays = (plan.k0, plan.k1, plan.dk, *plan.coefficients, *plan.powers, plan.inverse,
              plan.negative_b)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    assert phasespace._closed_form(params, SMALL_GRID) is plan


def _term_reference(params, r, n, m, d):
    """Weight of rho_nm at r and Bessel order +d from the G_s formula of the
    _term_coefficients docstring: exact combinatorics, 50-digit xi powers."""
    if d > n:
        return mpmath.mpf(0)
    mpmath.mp.dps = 50
    two_n, k_total = 2 * params.n_bound, params.k
    s = d - n + m
    xi = k_total * mpmath.exp(-mpmath.mpf(r))
    g_s = mpmath.mpf(0)
    for k in range(max(0, -s), m - s + 1):
        c = Fraction(
            math.comb(two_n - m, m - s - k) * math.comb(two_n - n, n - k),
            math.factorial(s + k) * math.factorial(k),
        )
        g_s += mpmath.mpf(c.numerator) / c.denominator * xi ** (s + 2 * k)

    def norm(level):
        # N_level = sqrt(level! (k - 2 level - 1) / (k - level - 1)!)
        top = math.factorial(level) * (k_total - 2 * level - 1)
        return mpmath.sqrt(mpmath.mpf(top) / math.factorial(k_total - level - 1))

    entry = (-1) ** s * norm(n) * norm(m) * xi ** (two_n - n - m) * g_s
    return entry / 2 if d == 0 else entry


def _weights_per_r(plan):
    """Each order's weights per r point, powers[D] @ coefficients[D]: the
    tail n >= D of the term table, shape (n_r, (N - D) N)."""
    return [np.dot(powers, table) for table, powers in zip(plan.coefficients, plan.powers)]


def test_term_table_layout_against_exact_reference(params):
    # order D's coefficients hold the xi polynomials of rho_nm for n >= D in
    # row-major (n, m) order, one row per power xi^(D + 2 + 2i), stored
    # C-contiguously so the product reads each row in memory order; its
    # powers hold xi^(D + 2 + 2i) per r point
    plan = phasespace._closed_form(params, SMALL_GRID)
    big_n = params.n_bound
    assert len(plan.coefficients) == len(plan.powers) == big_n
    xi = phasespace.closed_form_window(params, SMALL_GRID).xi
    for d, (table, powers) in enumerate(zip(plan.coefficients, plan.powers)):
        assert table.shape == (big_n - d, big_n * (big_n - d))
        assert powers.shape == (SMALL_GRID.n_r, big_n - d)
        assert table.flags.c_contiguous and powers.flags.c_contiguous
        exponents = (d + 2 + 2 * np.arange(big_n - d)).astype(np.longdouble)
        assert np.array_equal(powers, xi[:, None] ** exponents)
    terms = _weights_per_r(plan)
    r_axis = SMALL_GRID.axes()[0]
    cases = [
        (0, 0, 0, 0),       # halved D = 0
        (3, 5, 4, 0),       # halved D = 0, n < m
        (7, 2, 10, 3),
        (5, 11, 6, 5),      # D = n, the top order of the pair
        (12, 4, 15, 8),
        (14, 14, 20, 9),
        (9, 13, 17, 4),
        (14, 0, 3, 14),     # the only pairs of the last tail: n = N - 1
    ]
    for n, m, x, d in cases:
        got = terms[d][x, (n - d) * big_n + m]
        ref = _term_reference(params, float(r_axis[x]), n, m, d)
        assert abs(mpmath.mpf(float(got)) / ref - 1) < 1e-15, (n, m, x, d)


def _ld_int_reference(value):
    """Exact int -> longdouble, one recursion step per 53 bits."""
    if -(2**53) < value < 2**53:
        return np.longdouble(value)
    hi, lo = divmod(value, 2**53)
    return _ld_int_reference(hi) * np.longdouble(2**53) + np.longdouble(lo)


def _dense_term_table(params, grid):
    """The (n_r N, N^2) table with its zero half, by the scalar loop over
    (n, m, s, k): row (x, D), column (n, m) row-major."""
    ld = np.longdouble
    xi = phasespace.closed_form_window(params, grid).xi
    big_n = params.n_bound
    two_n = 2 * big_n
    k_total = params.k
    factorial = [math.factorial(i) for i in range(two_n + 1)]
    norms = [
        np.sqrt(_ld_int_reference(factorial[n] * (k_total - 2 * n - 1))
                / _ld_int_reference(factorial[k_total - n - 1]))
        for n in range(big_n)
    ]
    terms = np.zeros((len(xi) * big_n, big_n * big_n), dtype=ld)
    view = terms.reshape(len(xi), big_n, big_n, big_n)
    xi_sq = xi * xi
    for n in range(big_n):
        for m in range(big_n):
            pair = norms[n] * norms[m] * xi ** ld(two_n - n - m)
            for s in range(m - n, m + 1):
                k_start = max(0, -s)
                value = np.zeros(len(xi), dtype=ld)
                for k in range(m - s, k_start - 1, -1):
                    coef = _ld_int_reference(
                        math.comb(two_n - m, m - s - k) * math.comb(two_n - n, n - k)
                    ) / _ld_int_reference(factorial[s + k] * factorial[k])
                    value = value * xi_sq + coef
                value *= xi ** ld(s + 2 * k_start)
                view[:, n - m + s, n, m] = (-pair if s % 2 else pair) * value
    view[:, 0] *= 0.5
    return terms


def _weight_roundings(n_bound):
    """Relative roundings along each term of a weight, in the scalar loop
    and in the polynomial table together: the budget of their difference.

    Each weight is a sum of same-sign terms, so an evaluation that makes at
    most k roundings along every term is within gamma_k = k u / (1 - k u) of
    the exact weight, u = eps(longdouble) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., chs. 3 and 5); an xi power counts 2, as
    powl is within one ulp.  The loop makes 3 in the ratio of integers, 4 in
    each norm, 2 in the pair prefactor's products, 2 per Horner step of up
    to N - 1, N - 1 from the rounded xi^2 raised to N - 1, and 6 in its two
    xi powers and the products that apply them: 3N + 16.  The table makes 3
    in the ratio, 8 in the norms and 2 in their products, 3 in the xi power
    and its product, and N - 1 in the sum over powers: N + 15.
    """
    return (3 * n_bound + 16) + (n_bound + 15)


@pytest.mark.parametrize("n_bound", [10, 15])
def test_packed_tails_equal_the_dense_loop(n_bound):
    # each order's weights from the polynomial table, powers[D] @
    # coefficients[D], equal the scalar loop's nonzero part within the sum
    # of both rounding budgets (at most 4.9 u measured), and the part
    # the table leaves out (n < D) is exactly zero in the loop
    params = MorseParams(n_bound)
    dense = _dense_term_table(params, SMALL_GRID).reshape(SMALL_GRID.n_r, n_bound, -1)
    terms = _weights_per_r(phasespace._closed_form(params, SMALL_GRID))
    tol = _weight_roundings(n_bound) * np.finfo(np.longdouble).eps
    for d, tail in enumerate(terms):
        reference = dense[:, d, d * n_bound:]
        assert np.all(np.abs(tail - reference) <= tol * np.abs(reference)), d
        assert np.all(tail != 0), d
        assert not np.any(dense[:, d, :d * n_bound]), d


def _ld_nearest_reference(value):
    """Positive int -> the nearest longdouble (ties to even), by integer
    rounding to the 64-bit significand."""
    shift = max(0, value.bit_length() - 64)
    top, rest = divmod(value, 2**shift)
    half = 2**shift // 2
    if shift and (rest > half or (rest == half and top % 2)):
        top += 1
    return np.ldexp(np.longdouble(top), shift)


def test_term_weights_are_correctly_rounded_above_2_64():
    # at N = 30 the denominator 8! 29! of the pair (n, m) = (29, 8) rounds
    # twice when split into base-2^53 digits; the table takes the nearest
    # longdouble of numerator and denominator, so the pair's order-0
    # coefficients equal the correctly rounded ratios times its halved,
    # signed norms bit for bit, in rows i = N - 1 - n + k
    params = MorseParams(30)
    n, m = 29, 8
    denominator = math.factorial(8) * math.factorial(29)
    assert _ld_int_reference(denominator) != _ld_nearest_reference(denominator)
    big_n, two_n, k_total, s = params.n_bound, 2 * params.n_bound, params.k, m - n

    def norm(level):
        top = math.factorial(level) * (k_total - 2 * level - 1)
        return np.sqrt(_ld_nearest_reference(top)
                       / _ld_nearest_reference(math.factorial(k_total - level - 1)))

    expected = np.zeros(big_n, dtype=np.longdouble)
    for k in range(-s, n + 1):
        coef = _ld_nearest_reference(
            math.comb(two_n - m, m - s - k) * math.comb(two_n - n, n - k)
        ) / _ld_nearest_reference(math.factorial(s + k) * math.factorial(k))
        expected[big_n - 1 - n + k] = coef * (norm(n) * norm(m) * -0.5)
    column = phasespace._term_coefficients(params)[0][:, n * big_n + m]
    assert np.array_equal(column, expected)


@pytest.mark.parametrize("state", ["rho_docs", "rho_aocs", "rho_cat"])
def test_tail_product_equals_the_dense_product(request, params, model, rates, etas, state):
    # Re c and Im c of the polynomial product against the dense product,
    # for the real initial state and for the evolved one with complex
    # coherences.  Each is a sum of row . weight over the pairs.  The dense
    # product adds the N^2 roundings of its dot product to its weights'
    # budget; the polynomial one adds (N - D) N for the rows into the
    # coefficients and N - D for the sum over powers, less the N - 1 its
    # weights' budget already counts, so at most N^2 + 1.  By the
    # dot-product bound the two differ by at most gamma_k sum |row| |weight|
    # with k the sum of both budgets
    rho0 = request.getfixturevalue(state)
    big_n = params.n_bound
    dense = _dense_term_table(params, SMALL_GRID)
    plan = phasespace._closed_form(params, SMALL_GRID)
    k = _weight_roundings(big_n) + 2 * big_n**2 + 1
    for rho in integrate(rho0, model, rates, etas, 1.0, 1e-3, [0.0, 1.0]).states:
        re, im = rho.real.astype(np.longdouble), rho.imag.astype(np.longdouble)
        rows = np.reshape([re + re.T, im - im.T], (2, -1))
        expected = np.dot(dense, rows.T).T.reshape(2, SMALL_GRID.n_r, big_n)
        scale = np.dot(np.abs(dense), np.abs(rows).T).T.reshape(expected.shape)
        got = phasespace._coefficient_product(plan, rows)
        assert np.all(np.abs(got - expected) <= k * np.finfo(np.longdouble).eps * scale)


def test_cached_sizes_match_the_documented_formulas(params):
    # 16 N^2 (N + 1) (2N + 1) / 6 bytes for the xi coefficients,
    # 8 n_r N (N + 1) for their powers, 32 n_r n_b N for each of the two
    # tensor levels and 16 n_r N for dk, with 16-byte longdouble; n_b = 61
    # on the default window, one column per mirrored pair
    grid = GridSpec()
    big_n = params.n_bound
    half = np.dtype(np.longdouble).itemsize // 2
    plan = phasespace._closed_form(params, grid)
    table = sum(a.nbytes for a in plan.coefficients)
    assert table == 2 * half * big_n**2 * (big_n + 1) * (2 * big_n + 1) // 6
    assert sum(a.nbytes for a in plan.powers) == half * grid.n_r * big_n * (big_n + 1)
    for tensor in (plan.k0, plan.k1):
        assert tensor.nbytes == 4 * half * grid.n_r * 61 * big_n
    assert plan.dk.nbytes == 2 * half * grid.n_r * big_n


def test_default_window_clips_momentum_tail(params, fock_state):
    # sigma_p of the ground state is about 2.7, so the default window keeps
    # roughly 97 percent of the mass; the diagnostics must report that
    # honestly rather than the transform silently renormalizing
    rho = fock_state(0)
    grid = wigner_closed(rho, params)
    diag = wigner_diagnostics(grid, rho)
    assert 0.95 < diag.norm < 0.98


def test_position_marginal_recovers_probability_density(params, fock_state):
    # integrating W over momentum must give |psi(r)|^2, which ties the
    # closed form back to the coordinate wavefunctions it was derived from
    from deformed_lindblad import morse_wavefunction

    wide = GridSpec(r_min=-2, r_max=10, n_r=61, p_min=-14, p_max=14, n_p=241)
    for n in (0, 2):
        rho = fock_state(n)
        grid = wigner_closed(rho, params, wide)
        marginal = np.trapezoid(grid.values, grid.p_axis, axis=1)
        density = morse_wavefunction(params, n, grid.r_axis) ** 2
        assert np.max(np.abs(marginal - density)) < 1e-3 * np.max(density)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(n_r=1)
    with pytest.raises(ValueError):
        GridSpec(r_min=3.0, r_max=-1.0)
    with pytest.raises(ValueError, match="p_max must be finite"):
        GridSpec(p_max=math.inf)
    with pytest.raises(ValueError, match="r_min must be finite"):
        GridSpec(r_min=-math.inf)


def test_closed_form_shape_check(params):
    with pytest.raises(ValueError, match="shape"):
        wigner_closed(np.eye(4, dtype=complex) / 4, params, SMALL_GRID)
    with pytest.raises(ValueError, match="shape"):
        wigner_direct_oracle(np.eye(4, dtype=complex) / 4, params, SMALL_GRID)
