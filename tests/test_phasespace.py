import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special as sp

from deformed_lindblad import (
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

SMALL_GRID = GridSpec(n_r=21, n_p=21)


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


def test_bessel_rejects_nonpositive_argument():
    with pytest.raises(ValueError, match="positive"):
        bessel_k_complex_order(1.0, 0.0)
    with pytest.raises(ValueError, match="positive"):
        bessel_k_complex_order(1.0, -2.0)


def test_bessel_tensor_against_mpmath():
    # orders 0 and 1 come from the quadrature and the rest from the upward
    # order recurrence; check both kinds at the corners of the default window
    params = MorseParams(n_bound=15)
    grid = GridSpec()
    xi, b_abs, _, _, _ = phasespace._closed_axes(params, grid)
    tensor = phasespace._bessel_tensor(params, grid, 1)
    assert b_abs[0] == 0.0
    mpmath.mp.dps = 40
    for x in (int(np.argmin(xi)), int(np.argmax(xi))):
        for b in (0, len(b_abs) - 1):
            for d in (0, 1, 7, 14):
                nu = mpmath.mpc(d, -float(b_abs[b]))
                ref = complex(mpmath.besselk(nu, mpmath.mpf(float(xi[x]))))
                got = complex(tensor[x, b, d])
                assert abs(got - ref) <= 1e-9 * abs(ref), (x, b, d)


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


@pytest.mark.parametrize("n_bound", [10, 15, 20, 30])
def test_closed_matches_oracle_across_ladder_sizes(n_bound):
    # the closed form loses digits as N grows (about 4e-14 of max |W| at
    # N = 10, 3e-7 at N = 30); the oracle gate must hold across the sweep
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
    # a non-finite and a non-Hermitian rho both raise before any table or
    # tensor is built, naming the offending entry
    non_finite = fock_state(0)
    non_finite[3, 1] = np.nan
    lopsided = fock_state(0)
    lopsided[2, 4] = 1e-6     # no conjugate partner
    cases = ((non_finite, r"entry \(3, 1\) is not finite"),
             (lopsided, r"residue .* at entry \(2, 4\)"))
    for rho, message in cases:
        builds = (phasespace._bessel_tensor.cache_info(), phasespace._closed_terms.cache_info())
        with pytest.raises(ValueError, match=message):
            wigner_closed(rho, params, SMALL_GRID)
        assert (phasespace._bessel_tensor.cache_info(), phasespace._closed_terms.cache_info()) == builds


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


def test_top_level_state_needs_relaxed_tolerance(params, fock_state):
    # |N-1> is the worst-conditioned input: the default tolerance must be
    # refused honestly rather than met with noise
    from deformed_lindblad import BesselAccuracyError

    rho = fock_state(14)
    with pytest.raises(BesselAccuracyError, match="stabilize") as exc:
        wigner_closed(rho, params, SMALL_GRID)
    # the message names the cause: one term of the sum is about 1e12 x max |W|
    # (measured 1.06e12), which leaves fewer digits than rtol = 1e-8 needs
    found = re.search(r"largest single term is (\S+) x max \|W\|, which leaves (\S+) of",
                      str(exc.value))
    assert found, str(exc.value)
    assert float(found.group(1)) > 1e10
    assert float(found.group(2)) < 8.0
    grid = wigner_closed(rho, params, SMALL_GRID, rtol=1e-4)
    direct = wigner_direct_oracle(rho, params, SMALL_GRID)
    scale = np.max(np.abs(direct.values))
    assert np.max(np.abs(grid.values - direct.values)) < 1e-4 * scale
    # every level's tensor is cached now; the refusal must not depend on that
    with pytest.raises(BesselAccuracyError, match="stabilize"):
        wigner_closed(rho, params, SMALL_GRID)


def _cold(rho, params, grid):
    phasespace._bessel_tensor.cache_clear()
    phasespace._closed_terms.cache_clear()
    phasespace._closed_axes.cache_clear()
    return wigner_closed(rho, params, grid).values


def test_warm_cache_is_bit_identical_to_cold(params, rho_docs):
    cold = _cold(rho_docs, params, SMALL_GRID)
    assert phasespace._bessel_tensor.cache_info().currsize > 0
    assert phasespace._closed_terms.cache_info().currsize == 1
    warm = wigner_closed(rho_docs, params, SMALL_GRID).values
    assert warm.tobytes() == cold.tobytes()


def test_cache_key_separates_inputs(params, fock_state):
    asymmetric = GridSpec(r_min=-1.0, r_max=6.0, n_r=15, p_min=-2.0, p_max=6.5, n_p=16)
    small_ladder = MorseParams(10)
    variants = [
        (fock_state(1), params, asymmetric),
        (fock_state(1, dim=10), small_ladder, SMALL_GRID),
    ]
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
    tensor = phasespace._bessel_tensor(params, SMALL_GRID, 0)
    axes = phasespace._closed_axes(params, SMALL_GRID)
    for array in (tensor, phasespace._closed_terms(params, SMALL_GRID), *axes):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    assert phasespace._closed_axes(params, SMALL_GRID) is axes


def _term_reference(params, r, n, m, d):
    """Weight of rho_nm at r and Bessel order +d from the G_s formula of the
    _closed_terms docstring: exact combinatorics, 50-digit xi powers."""
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


def test_term_table_layout_against_exact_reference(params):
    # row (x, D) of the table holds the weights of every rho_nm in row-major
    # (n, m) order, stored C-contiguously so the product reads it row by row
    terms = phasespace._closed_terms(params, SMALL_GRID)
    big_n = params.n_bound
    assert terms.shape == (SMALL_GRID.n_r * big_n, big_n * big_n)
    assert terms.flags.c_contiguous
    r_axis = SMALL_GRID.axes()[0]
    cases = [
        (0, 0, 0, 0),       # halved D = 0
        (3, 5, 4, 0),       # halved D = 0, n < m
        (7, 2, 10, 3),
        (5, 11, 6, 5),      # D = n, the top order of the pair
        (12, 4, 15, 8),
        (14, 14, 20, 9),
        (9, 13, 17, 4),
        (2, 6, 7, 5),       # D > n: exactly zero
        (6, 1, 3, 14),      # D > n: exactly zero
    ]
    for n, m, x, d in cases:
        got = terms[x * big_n + d, n * big_n + m]
        ref = _term_reference(params, float(r_axis[x]), n, m, d)
        if ref == 0:
            assert got == 0.0, (n, m, x, d)
        else:
            assert abs(mpmath.mpf(float(got)) / ref - 1) < 1e-15, (n, m, x, d)


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
