import math

import numpy as np
import pytest
from scipy.special import gammaln

from deformed_lindblad import (
    MorseParams,
    OscillatorModel,
    alpha_for_mean_n,
    aocs,
    docs,
    docs_from_alpha,
    even_cat,
    harmonic_deformation,
    ladder_pair,
    mean_excitation,
    morse_model,
    to_density,
)


def test_constructors_return_unit_norm_amplitude_arrays(params, model):
    for state in (aocs(0.7, model), docs(0.3j, params), docs_from_alpha(2.0, params),
                  even_cat(0.7, model)):
        assert type(state) is np.ndarray
        assert state.shape == (model.dim,) and state.dtype == complex
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(to_density(state), np.outer(state, state.conj()))


def test_aocs_vacuum(model):
    state = aocs(0.0, model)
    assert state[0] == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(state[1:])) == 0.0


def test_aocs_harmonic_limit_matches_glauber():
    model = OscillatorModel(30, harmonic_deformation())
    state = aocs(1.0, model)
    n = np.arange(30)
    glauber = np.exp(-0.5 - 0.5 * gammaln(n + 1))  # |alpha| = 1
    assert np.max(np.abs(state.real - glauber)) < 1e-10
    assert np.max(np.abs(state.imag)) == 0.0


def test_aocs_is_approximate_eigenstate(model, alpha_aocs):
    state = aocs(alpha_aocs, model)
    a, _ = ladder_pair(model)
    residual = np.linalg.norm(a @ state - alpha_aocs * state)
    assert residual < 0.05


def test_aocs_rejects_vanishing_deformation():
    from deformed_lindblad import DeformationFunction

    dead = DeformationFunction(lambda n: max(0.0, 1.0 - 0.5 * n), label="pinch")
    model = OscillatorModel(5, dead)
    with pytest.raises(ValueError, match="level 2"):
        aocs(1.0, model)


def test_docs_vacuum(params):
    state = docs(0.0, params)
    assert state[0] == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(state[1:])) == 0.0


def test_docs_single_peak_at_mean_two(params, model, alpha_docs):
    state = docs_from_alpha(alpha_docs, params)
    weights = np.abs(state) ** 2
    peak = int(np.argmax(weights))
    assert peak in (1, 2)
    # single-peaked: increasing up to the peak, decreasing after
    assert np.all(np.diff(weights[: peak + 1]) > 0)
    assert np.all(np.diff(weights[peak:]) < 0)


def test_docs_binomial_via_loggamma_is_exact():
    # C(30, 14) recovered through the log-gamma route
    value = math.exp(
        gammaln(31) - gammaln(15) - gammaln(17)
    )
    assert round(value) == 145422675
    assert abs(value - 145422675) / 145422675 < 1e-12


def test_docs_rejects_overlong_displacement(params):
    with pytest.raises(ValueError, match="alpha"):
        docs_from_alpha(1.01 * (math.pi / 2) / params.chi, params)


@pytest.mark.parametrize("label", ["docs", "aocs"])
def test_overflowing_state_is_refused(model, label):
    build = {
        # zeta^n binom(300, n)^(1/2) overflows the norm's dot at N = 150
        "docs": lambda: docs(20.0, MorseParams(150)),
        # alpha^n overflows level by level, and inf * 0 turns later levels nan
        "aocs": lambda: aocs(1e200, model),
    }[label]
    # the overflow warns first; the refusal must follow it, not a zero state
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=f"cannot normalize the {label} state: its norm is (inf|nan)"):
            build()


def test_even_cat_parity(model, alpha_cat):
    state = even_cat(alpha_cat, model)
    assert np.max(np.abs(state[1::2])) < 1e-14


def two_aocs_cat(alpha, model):
    """aocs(alpha) + aocs(-alpha), normalized: even_cat built from two calls."""
    cat = aocs(alpha, model) + aocs(-alpha, model)
    norm = np.linalg.norm(cat)
    if not norm > 0.0:
        raise ValueError("cannot normalize a zero even_cat state")
    return cat / norm


def test_even_cat_equals_the_two_aocs_sum_bitwise():
    # even_cat calls aocs once; its amplitudes must equal the two-call sum
    # for every alpha (or, where aocs overflows, both raise the same error),
    # and agree in every bit for real alpha >= 0, the alphas every scenario
    # and alpha solve uses (a zero part elsewhere may differ in sign only)
    def outcome(build, alpha, model):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return build(alpha, model)
        except ValueError as error:
            return str(error)

    rng = np.random.default_rng(3)
    real = [0.0, 1e-300, 0.3, 1.7, np.float64(0.8), 1e11, 1e200] + list(rng.uniform(0.0, 3.0, 8))
    other = [-0.0, -1.7, np.float64(-0.8), complex(1.7, -0.0), complex(-1.7, 0.0),
             complex(-1.7, -0.0), 0.5j, -0.5j, complex(-0.0, 0.5), complex(-0.0, -2.2), -1e11]
    other += list(rng.uniform(-3, 3, 8) + 1j * rng.uniform(-3, 3, 8))
    for dim in (2, 10, 15, 30):
        model = morse_model(MorseParams(dim))
        for alpha, bitwise in [(a, True) for a in real] + [(a, False) for a in other]:
            got, want = outcome(even_cat, alpha, model), outcome(two_aocs_cat, alpha, model)
            if isinstance(want, str):
                assert got == want, (dim, alpha)
            elif bitwise:
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (dim, alpha)
            else:
                assert np.array_equal(got, want), (dim, alpha)


def test_even_cat_alpha_solves_are_unchanged():
    def solve(builder, target, model):
        try:
            return alpha_for_mean_n(target, builder, model)
        except ValueError as error:
            return str(error)

    for dim in (2, 10, 15, 30):
        model = morse_model(MorseParams(dim))
        for target in (0.3, 0.5 * (dim - 1), 0.9 * (dim - 1)):
            assert solve(even_cat, target, model) == solve(two_aocs_cat, target, model), (dim, target)


def test_even_cat_degenerates_to_vacuum(model):
    state = even_cat(1e-12, model)
    assert abs(state[0]) == pytest.approx(1.0, abs=1e-12)


def test_cat_is_pure_before_evolution(model, alpha_cat):
    rho = to_density(even_cat(alpha_cat, model))
    assert np.einsum("ij,ji->", rho, rho).real == pytest.approx(1.0, abs=1e-12)


def test_alpha_solver_trivial_target(model):
    assert alpha_for_mean_n(0.0, aocs, model) == 0.0


def test_alpha_solver_hits_target(model, params, alpha_aocs, alpha_docs, alpha_cat):
    assert mean_excitation(aocs(alpha_aocs, model)) == pytest.approx(2.0, abs=1e-6)
    assert mean_excitation(docs_from_alpha(alpha_docs, params)) == pytest.approx(
        2.0, abs=1e-6
    )
    assert mean_excitation(even_cat(alpha_cat, model)) == pytest.approx(2.0, abs=1e-6)


def test_mean_excitation_monotone_in_alpha(model, params):
    grid = np.linspace(0.05, 3.0, 24)
    for builder in (
        aocs,
        even_cat,
        lambda a, m: docs_from_alpha(a, params),
    ):
        means = [mean_excitation(builder(a, model)) for a in grid]
        assert np.all(np.diff(means) > 0)


def test_alpha_solver_reports_unreachable(model):
    with pytest.raises(ValueError, match="outside the reachable range"):
        alpha_for_mean_n(14.5, aocs, model)
    # a cap on alpha makes moderate targets unreachable too
    with pytest.raises(ValueError, match="unreachable"):
        alpha_for_mean_n(5.0, aocs, model, alpha_max=1.0)


def reference_alpha(target, builder, model, alpha_max=None):
    """Doubling bracket + bisection to the last bit of alpha: the solver's oracle.

    It raises where the bracket saturates below the target or reaches
    alpha_max, as the solver did before it used the amplitude weights.
    """
    if target == 0.0:
        return 0.0
    if not 0.0 < target < model.dim - 1:
        raise ValueError("outside the reachable range")

    def mean_at(a):
        return mean_excitation(builder(a, model))

    lo, hi = 0.0, 1.0 if alpha_max is None else min(1.0, alpha_max)
    prev = -1.0
    while (value := mean_at(hi)) < target:
        if value <= prev * (1.0 + 1e-12) + 1e-15 or hi == alpha_max:
            raise ValueError("unreachable")
        prev, lo = value, hi
        hi = 2.0 * hi if alpha_max is None else min(2.0 * hi, alpha_max)
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if mean_at(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sweep_builders(n_bound):
    params = MorseParams(n_bound)
    cap = (math.pi / 2 - 1e-9) / params.chi
    return {
        "aocs": (aocs, None),
        "docs": (lambda a, m: docs_from_alpha(a, params), cap),
        "even_cat": (even_cat, None),
    }


SWEEP = [
    (n_bound, name, float(target))
    for n_bound in (2, 3, 10, 15, 16, 30)
    for name in ("aocs", "docs", "even_cat")
    for target in np.linspace(0.0, 0.97 * (n_bound - 1), 12)
] + [(120, "docs", float(target)) for target in np.linspace(0.0, 0.97 * 119, 12)]


def check_against_reference(n_bound, name, target):
    model = morse_model(MorseParams(n_bound))
    builder, alpha_max = sweep_builders(n_bound)[name]
    try:
        want = reference_alpha(target, builder, model, alpha_max)
    except ValueError:
        with pytest.raises(ValueError, match="unreachable"):
            alpha_for_mean_n(target, builder, model, alpha_max=alpha_max)
        return
    got = alpha_for_mean_n(target, builder, model, alpha_max=alpha_max)
    assert abs(mean_excitation(builder(got, model)) - target) <= 1e-12 * max(1.0, target)
    assert abs(got - want) <= 1e-8 * want


@pytest.mark.parametrize("n_bound", sorted({case[0] for case in SWEEP}))
def test_alpha_solver_matches_reference_bisection(n_bound):
    # same raise-or-return outcome as the bisection, <n> to 1e-12 of the
    # target and alpha to 1e-8; docs at N = 120 starts from a reference
    # (alpha = 1) whose top populations are below 1e-300 of the vacuum's
    for case in SWEEP:
        if case[0] == n_bound:
            check_against_reference(*case)


def test_alpha_solver_does_not_cycle_on_aocs_n30():
    # plain Newton in s with steps clipped to +-2 cycles here between
    # s = 1.464 and 3.464 (<n> = 4.78 and 28.11); the bracket stops it
    check_against_reference(30, "aocs", 24.65)


def counted(builder):
    seen = []

    def counting(a, m):
        seen.append(a)
        return builder(a, m)

    return counting, seen


def test_alpha_solver_builder_call_budget(model, params):
    # aocs and even_cat: the reference and the exact first step (3 at most);
    # docs: the reference and a few interpolation steps (10 at most)
    cap = (math.pi / 2 - 1e-9) / params.chi
    for builder, alpha_max, budget in (
        (aocs, None, 3),
        (even_cat, None, 3),
        (lambda a, m: docs_from_alpha(a, params), cap, 10),
        (aocs, 1.5, 3),
    ):
        for target in (1.8, 1.9, 2.0, 2.1, 2.2):
            counting, seen = counted(builder)
            alpha = alpha_for_mean_n(target, counting, model, alpha_max=alpha_max)
            assert alpha == alpha_for_mean_n(target, builder, model, alpha_max=alpha_max)
            assert len(seen) <= budget, (target, seen)
            assert len(seen) == len(set(seen)), sorted(seen)
            assert alpha_max is None or max(seen) < alpha_max


def test_alpha_solver_never_builds_at_the_cap(model):
    # <n> = 5 lies past <n>(1) = 1.07: the state just below the cap decides
    # it, and the message names that supremum
    counting, seen = counted(aocs)
    with pytest.raises(ValueError, match="below alpha_max = 1.0 is 1.07316126616"):
        alpha_for_mean_n(5.0, counting, model, alpha_max=1.0)
    assert seen == [math.nextafter(1.0, 0.0)]
    counting, seen = counted(aocs)
    with pytest.raises(ValueError, match="below alpha_max = 3.0 is"):
        alpha_for_mean_n(13.0, counting, model, alpha_max=3.0)
    assert max(seen) < 3.0
    assert len(seen) == len(set(seen))


def test_alpha_solver_names_the_supremum_of_even_cat():
    # even_cat populates even levels only: <n> stays below the top even level
    for n_bound, target, top in ((2, 0.5, 0), (10, 8.5, 8), (10, 8.0, 8), (16, 14.5, 14)):
        model = morse_model(MorseParams(n_bound))
        with pytest.raises(ValueError, match=f"supremum of <n> is {top}, the top level"):
            alpha_for_mean_n(target, even_cat, model)


def test_alpha_solver_names_the_supremum_of_a_support_that_stops(model):
    # levels 6 and up are cut in mid-pattern: the solve aims at the middle
    # of the support, and the state it builds there shows level 5 is the top
    def truncated(a, m):
        c = aocs(a, m)
        c[6:] = 0.0
        return c / np.linalg.norm(c)

    with pytest.raises(ValueError, match="the supremum of <n> is 5, the top level"):
        alpha_for_mean_n(7.0, truncated, model)


@pytest.mark.parametrize("target", [1e-100, 1e-300])
def test_alpha_solver_reaches_tiny_targets(model, params, target):
    # <n> falls like alpha^2 towards the vacuum, so the solve for s covers
    # ln(target / 2) in a few steps, where plain Newton in s moved by about 1
    # a step; the contract is MEAN_N_TOL absolute below 1, but the state
    # lands on the target itself to within 1e-3 of it
    cap = (math.pi / 2 - 1e-9) / params.chi
    for builder, alpha_max in (
        (aocs, None),
        (lambda a, m: docs_from_alpha(a, params), cap),
        (even_cat, None),
    ):
        counting, seen = counted(builder)
        alpha = alpha_for_mean_n(target, counting, model, alpha_max=alpha_max)
        assert mean_excitation(builder(alpha, model)) == pytest.approx(target, rel=1e-3)
        assert len(seen) <= 3


def test_alpha_solver_rejects_a_builder_not_of_the_form(model):
    # a weight that depends on alpha, and an s(alpha) that falls with alpha,
    # must raise rather than return an alpha
    def reweighted(a, m):
        c = aocs(a, m)
        c[5] *= 1.0 + a
        return c / np.linalg.norm(c)

    def falling(a, m):
        return aocs(1.0 / (1.0 + a), m)

    for builder in (reweighted, falling):
        for target in (1.0, 3.0, 7.5):
            with pytest.raises(ValueError, match="does not fit"):
                alpha_for_mean_n(target, builder, model)


def test_alpha_solver_refreshes_a_reference_that_lost_levels():
    # docs at N = 150 and alpha = 1 underflows zeta^n past level 130 before
    # it multiplies by the binomial: the reference stops there, and the
    # state built for the target, populating the rest, becomes the reference
    params = MorseParams(150)
    model = morse_model(params)
    cap = (math.pi / 2 - 1e-9) / params.chi
    builder = lambda a, m: docs_from_alpha(a, params)
    assert np.flatnonzero(builder(1.0, model))[-1] == 130
    for target in (74.5, 134.1):
        alpha = alpha_for_mean_n(target, builder, model, alpha_max=cap)
        assert abs(mean_excitation(builder(alpha, model)) - target) <= 1e-12 * target
        assert abs(alpha - reference_alpha(target, builder, model, cap)) <= 1e-8 * alpha


def test_alpha_solver_refuses_a_non_finite_state(model):
    def broken(a, m):
        return np.full(m.dim, np.nan, dtype=complex)

    with pytest.raises(ValueError, match=r"non-finite state at alpha = 1\.0"):
        alpha_for_mean_n(2.0, broken, model)


def test_alpha_solver_refuses_a_state_that_lost_its_lowest_levels(model):
    # past alpha = 1 the builder drops levels 0 and 1, the two the solve
    # reads s(alpha) from
    def dropping(a, m):
        c = aocs(a, m)
        if a > 1.0:
            c[:2] = 0.0
            c /= np.linalg.norm(c)
        return c

    with pytest.raises(ValueError, match=r"lost level 0 or 1 to underflow"):
        alpha_for_mean_n(4.0, dropping, model)


def test_alpha_solver_returns_the_reference_alpha_on_its_own_mean(model):
    counting, seen = counted(aocs)
    assert alpha_for_mean_n(mean_excitation(aocs(1.0, model)), counting, model) == 1.0
    assert seen == [1.0]


def test_alpha_solver_names_the_infimum_of_a_support_above_the_ground(model):
    def raised(a, m):
        c = aocs(a, m)
        c[:2] = 0.0
        return c / np.linalg.norm(c)

    with pytest.raises(ValueError, match=r"the infimum of <n> is 2, the lowest level"):
        alpha_for_mean_n(1.5, raised, model)


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_alpha_solver_rejects_bad_targets_before_building(model, target):
    counting, seen = counted(aocs)
    with pytest.raises(ValueError, match="outside the reachable range"):
        alpha_for_mean_n(target, counting, model)
    assert seen == []


@pytest.mark.parametrize("alpha_max", [0.0, -1.0, math.nan])
def test_alpha_solver_rejects_a_bad_cap_before_building(model, alpha_max):
    counting, seen = counted(aocs)
    with pytest.raises(ValueError, match="alpha_max must be positive"):
        alpha_for_mean_n(2.0, counting, model, alpha_max=alpha_max)
    assert seen == []


def test_to_density_invariants(model, alpha_aocs):
    rho = to_density(aocs(alpha_aocs, model))
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(rho - rho.conj().T)) == 0.0
    assert np.einsum("ij,ji->", rho, rho).real == pytest.approx(1.0, abs=1e-12)
    vacuum = to_density(aocs(0.0, model))
    assert vacuum[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert np.count_nonzero(vacuum) == 1
