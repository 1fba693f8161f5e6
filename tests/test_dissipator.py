import math
import re
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from deformed_lindblad import (
    IntegrationError,
    MorseParams,
    OscillatorModel,
    ReservoirParams,
    aocs,
    detailed_balance_populations,
    eta_values,
    even_cat,
    gap_frequencies,
    harmonic_deformation,
    integrate,
    mean_occupation,
    morse_model,
    purity,
    rate_table,
    shift_table,
    steady_state,
    to_density,
)
from deformed_lindblad import dissipator
from deformed_lindblad.dissipator import (
    _expm_stack,
    _packed_layout,
    build_generator,
    validate_density,
)


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def test_planck_values(model, reservoir):
    # K2 = gamma/2 nbar and K4 = gamma/2 (nbar + 1) with the Planck occupation
    # nbar = 1 / expm1(theta Omega); every harmonic gap is 1.
    # A non-positive gap is rejected by test_rate_table_rejects_closed_gap.
    harmonic = OscillatorModel(10, harmonic_deformation())
    half_gamma = 0.5 * reservoir.gamma_scale
    nbar = 1.0 / (math.e**4 - 1.0)
    table = rate_table(harmonic, reservoir)
    assert np.max(np.abs(table.K2 / (half_gamma * nbar) - 1.0)) <= 1e-12
    assert np.max(np.abs(table.K4 / (half_gamma * (nbar + 1.0)) - 1.0)) <= 1e-12
    # Morse ground gap Omega(0) = 29/31: nbar = K2 / (K4 - K2)
    morse = rate_table(model, reservoir)
    assert morse.K2[0] / (morse.K4[0] - morse.K2[0]) == pytest.approx(0.024284, abs=1e-6)
    cold = rate_table(harmonic, ReservoirParams(theta=400.0))
    assert np.all(cold.K2 < 1e-150 * half_gamma)
    assert np.all(cold.K4 == half_gamma)


def test_decay_rate_values(model, reservoir):
    # gamma(n) = gamma_scale Omega(n)^3 = 2 (K4(n) - K2(n))
    harmonic = OscillatorModel(10, harmonic_deformation())
    table = rate_table(harmonic, reservoir)
    gamma = 2.0 * (table.K4 - table.K2)
    assert np.max(np.abs(gamma / reservoir.gamma_scale - 1.0)) <= 1e-14
    weak = rate_table(model, ReservoirParams(theta=4.0, gamma_scale=0.1))
    gamma = 2.0 * (weak.K4 - weak.K2)
    assert gamma[0] == pytest.approx(0.1 * (29.0 / 31.0) ** 3, rel=1e-12)
    assert gamma[14] == pytest.approx(0.1 / 31.0**3, rel=1e-12)


def test_rate_identities_hold_bitwise(model, rates):
    assert np.array_equal(rates.K3[1:], rates.K2[:-1])
    assert np.array_equal(rates.K4[:-1], rates.K1[1:])
    assert rates.K1[0] == 0.0 and rates.K3[0] == 0.0
    assert np.all(rates.K1 >= 0) and np.all(rates.K2 >= 0)
    assert np.all(rates.K3 >= 0) and np.all(rates.K4 >= 0)


def test_rate_example_value(model):
    # independent composition: K4(0) = gamma(0)/2 (nbar(Omega(0)) + 1)
    # with gamma(0) = 0.1 (29/31)^3 = 0.08186701 (cube of 29/31 = 0.8186701)
    weak = ReservoirParams(theta=4.0, gamma_scale=0.1)
    table = rate_table(model, weak)
    expected = 0.5 * 0.1 * (29.0 / 31.0) ** 3 * (1.0 + 1.0 / math.expm1(4.0 * 29.0 / 31.0))
    assert table.K4[0] == pytest.approx(expected, rel=1e-14)
    assert table.K4[0] == pytest.approx(0.0419275, abs=1e-7)


def test_zero_temperature_limit(model):
    # theta large enough that even the smallest gap (1/31) is frozen out
    frozen = ReservoirParams(theta=1e5, gamma_scale=0.1)
    table = rate_table(model, frozen)
    assert np.max(table.K2) == 0.0
    assert np.max(table.K3) == 0.0
    assert np.all(table.K4 > 0)


def test_rate_table_rejects_closed_gap():
    from deformed_lindblad import DeformationFunction

    collapsing = DeformationFunction(lambda n: max(0.0, 1.0 - 0.12 * n), "collapse")
    bad = OscillatorModel(6, collapsing)
    with pytest.raises(ValueError, match="Omega"):
        rate_table(bad, ReservoirParams(theta=4.0))


def test_generator_conserves_trace(model, rates, etas):
    rho = random_density(model.dim, 0)
    derivative = build_generator(model, rates, etas).apply(rho)
    assert abs(np.trace(derivative)) < 1e-12


def test_generator_commutes_with_adjoint(model, rates, etas):
    rho = random_density(model.dim, 1)
    gen = build_generator(model, rates, etas)
    lhs = gen.apply(rho).conj().T
    rhs = gen.apply(rho.conj().T)
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_generator_matches_operator_form(model, rates, etas):
    # independent construction straight from the jump-operator expression
    from deformed_lindblad import hamiltonian, ladder_pair

    a, _ = ladder_pair(model)
    h = hamiltonian(model)
    eta_shifted = np.concatenate(([0.0], etas[:-1]))
    f_op = a @ np.diag(eta_shifted)
    f_dag = f_op.conj().T
    k1, k2, k3, k4 = (np.diag(x) for x in (rates.K1, rates.K2, rates.K3, rates.K4))

    rho = random_density(model.dim, 2)
    loss = k1 @ (f_dag @ f_op) + k2 @ (f_op @ f_dag)
    up = f_dag @ rho @ f_op
    down = f_op @ rho @ f_dag
    expected = (
        -1j * (h @ rho - rho @ h)
        - (loss @ rho + rho @ loss)
        + (up @ k3 + k3 @ up)
        + (down @ k4 + k4 @ down)
    )
    got = build_generator(model, rates, etas).apply(rho)
    assert np.max(np.abs(got - expected)) < 1e-14


def test_generator_matches_literal_transcription(model, rates, etas, params):
    # element-by-element transcription of the number-basis equation (with
    # the restored sqrt((m+1)(n+1)) in the downward gain), fully independent
    # of the vectorized slicing in the implementation
    chi = params.chi
    dim = model.dim
    rho = random_density(dim, 4)
    k1, k2, k3, k4 = rates.K1, rates.K2, rates.K3, rates.K4

    def eta_at(j):
        return etas[j] if j >= 0 else 0.0

    expected = np.zeros_like(rho)
    for m in range(dim):
        for n in range(dim):
            acc = -1j * (m - n) * (1 - chi * (m + n + 1)) * rho[m, n]
            acc -= k1[m] * eta_at(m - 1) ** 2 * (1 - chi * m) * m * rho[m, n]
            acc -= k1[n] * eta_at(n - 1) ** 2 * (1 - chi * n) * n * rho[m, n]
            acc -= k2[m] * eta_at(m) ** 2 * (1 - chi * (m + 1)) * (m + 1) * rho[m, n]
            acc -= k2[n] * eta_at(n) ** 2 * (1 - chi * (n + 1)) * (n + 1) * rho[m, n]
            if m >= 1 and n >= 1:
                acc += (
                    (k3[n] + k3[m])
                    * eta_at(n - 1) * eta_at(m - 1)
                    * math.sqrt((1 - chi * m) * (1 - chi * n))
                    * math.sqrt(n * m)
                    * rho[m - 1, n - 1]
                )
            if m + 1 < dim and n + 1 < dim:
                acc += (
                    (k4[m] + k4[n])
                    * eta_at(m) * eta_at(n)
                    * math.sqrt((1 - chi * (m + 1)) * (1 - chi * (n + 1)))
                    * math.sqrt((m + 1) * (n + 1))
                    * rho[m + 1, n + 1]
                )
            expected[m, n] = acc
    got = build_generator(model, rates, etas).apply(rho)
    assert np.max(np.abs(got - expected)) < 1e-14


def random_deformation_cases():
    """Five random deformed ladders (8 levels) with rate tables and etas."""
    from deformed_lindblad import DeformationFunction

    rng = np.random.default_rng(12)
    for trial in range(5):
        # draw n f^2(n) as an increasing sequence so every gap stays positive
        ladder = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.5, size=11))))
        f2 = np.ones(12)
        f2[1:] = ladder[1:] / np.arange(1, 12)
        deformation = DeformationFunction(
            lambda n, v=f2: float(v[n]) if n < len(v) else 1.0, f"random-{trial}"
        )
        model = OscillatorModel(8, deformation)
        table = rate_table(model, ReservoirParams(theta=3.0, gamma_scale=0.7))
        etas = rng.uniform(0.2, 1.5, size=8)
        yield trial, model, table, etas


def test_generic_deformation_trace_conservation():
    # the trace identity is structural, not Morse-specific
    for trial, model, table, etas in random_deformation_cases():
        rho = random_density(8, 100 + trial)
        derivative = build_generator(model, table, etas).apply(rho)
        assert abs(np.trace(derivative)) < 1e-13


def assert_blocks_reassemble(model, table, etas, seed):
    # integrate's packed layout: each entry of rho in exactly one slot,
    # slots of one order consecutive, and the packed generator applied
    # slot by slot reproduces gen.apply
    dim = model.dim
    gen = build_generator(model, table, etas)
    layout = _packed_layout(dim)
    count = (dim + 2) // 2
    assert layout.gather.shape == (2, count, dim)
    assert np.all(np.bincount(layout.gather.ravel(), minlength=dim * dim + 1)[:-1] == 1)
    assert np.array_equal(layout.gather.ravel()[layout.scatter], np.arange(dim * dim))
    used = layout.order >= 0
    rows, cols = np.divmod(layout.gather[0], dim)
    assert np.array_equal((rows - cols)[used], layout.order[used])
    # the second half holds the mirror of every order but 0
    mirror_rows, mirror_cols = np.divmod(layout.gather[1], dim)
    mirrored = layout.order > 0
    assert np.array_equal(mirror_rows[mirrored], cols[mirrored])
    assert np.array_equal(mirror_cols[mirrored], rows[mirrored])
    # slots of one order hold consecutive entries of its diagonal
    linked = used[:, 1:] & (layout.order[:, 1:] == layout.order[:, :-1])
    assert np.all(np.diff(cols, axis=1)[linked] == 1)
    assert np.array_equal(cols[used], layout.cols[used])

    packed = gen.packed()
    assert packed.shape == (count, dim, dim)
    # no coupling between slots of different orders or with unused ones
    apart = (layout.order[:, :, None] != layout.order[:, None, :]) | ~used[:, :, None]
    assert not np.any(packed[apart])
    for k in range(dim):
        p, j = np.nonzero(layout.order == k)
        assert np.array_equal(packed[p[0]][np.ix_(j, j)], gen.block(k)[2])

    stack = np.stack([packed, packed.conj()])
    rng = np.random.default_rng(seed)
    skew = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    for rho in (random_density(dim, seed), skew / np.linalg.norm(skew)):
        slots = np.append(rho.ravel(), 0.0)[layout.gather]
        rebuilt = (stack @ slots[..., None]).ravel()[layout.scatter].reshape(dim, dim)
        # relative to the largest entry: with shifts on, entries reach ~70
        expected = gen.apply(rho)
        assert np.max(np.abs(rebuilt - expected)) < 1e-14 * np.max(np.abs(expected))


def test_blocks_reassemble_generator_morse(model, rates, etas):
    assert_blocks_reassemble(model, rates, etas, 20)


def test_blocks_reassemble_generator_harmonic(reservoir):
    model = OscillatorModel(30, harmonic_deformation())
    assert_blocks_reassemble(model, rate_table(model, reservoir), np.ones(30), 21)


def test_blocks_reassemble_generator_with_shifts(model, etas):
    with_shifts = rate_table(
        model,
        ReservoirParams(theta=4.0, gamma_scale=0.5, shift_cutoff=40.0),
    )
    # delta3/delta4 give the gain couplings an imaginary part
    assert np.any(build_generator(model, with_shifts, etas).below.imag)
    assert_blocks_reassemble(model, with_shifts, etas, 22)


SHIFTED = ReservoirParams(theta=4.0, gamma_scale=0.5, shift_cutoff=40.0)


def test_mirror_blocks_are_conjugate_bitwise(model, rates, etas, reservoir):
    # integrate evolves order -k with conj(expm(h L_k)), which reproduces
    # expm(h L_{-k}) only if L_{-k} = conj(L_k) entry for entry (zeros may
    # differ in sign); test_integrate_reuses_propagators_bitwise pins the states
    harmonic = OscillatorModel(30, harmonic_deformation())
    cases = [
        (model, rates, etas),
        (harmonic, rate_table(harmonic, reservoir), np.ones(30)),
        (model, rate_table(model, SHIFTED), etas),
    ]
    cases += [(m, table, e) for _, m, table, e in random_deformation_cases()]
    for case_model, table, case_etas in cases:
        gen = build_generator(case_model, table, case_etas)
        for k in range(1, case_model.dim):
            rows, cols, block = gen.block(k)
            mirror_rows, mirror_cols, mirror = gen.block(-k)
            assert np.array_equal(mirror_rows, cols) and np.array_equal(mirror_cols, rows)
            assert np.array_equal(mirror, block.conj()), (case_model.dim, k)


def block_stack(gen, sign=1):
    """L_{sign k}, k = 0..N-1, from gen.block, packed as integrate packs them.

    Order 0 alone, orders p and N - p on the diagonal of one block-diagonal
    N x N matrix.
    """
    dim = len(gen.same)
    stack = np.zeros(((dim + 2) // 2, dim, dim), dtype=complex)
    for p in range(len(stack)):
        stack[p, :dim - p, :dim - p] = gen.block(sign * p)[2]
        if 0 < p < dim - p:
            stack[p, dim - p:, dim - p:] = gen.block(sign * (dim - p))[2]
    return stack


def kernel_propagators(gen, h, sign=1):
    """exp(h L_{sign k}) for k = 0..N-1 from one _expm_stack call."""
    dim = len(gen.same)
    u = _expm_stack(h * block_stack(gen, sign))
    out = {}
    for p in range(len(u)):
        out[sign * p] = u[p, :dim - p, :dim - p]
        if 0 < p < dim - p:
            out[sign * (dim - p)] = u[p, dim - p:, dim - p:]
    return out


def kernel_every_interval_packed(gen, rho0, times):
    """Reference propagation: every order exponentiated afresh per interval.

    Orders -k come from their own blocks, not as conj(U_k), and the stack
    is applied through integrate's packed gather, product and scatter.
    """
    layout = _packed_layout(len(gen.same))
    rho, t, states = rho0.astype(complex), 0.0, []
    for target in times:
        if target > t:
            u = np.stack([_expm_stack((target - t) * block_stack(gen, sign)) for sign in (1, -1)])
            slots = np.append(rho.ravel(), 0.0)[layout.gather]
            rho = (u @ slots[..., None]).ravel()[layout.scatter].reshape(rho.shape)
        t = target
        states.append(rho.copy())
    return states


def kernel_every_order_every_interval(gen, rho0, times):
    """Reference propagation: u_k @ rho[rows, cols] on each of the 2N - 1 diagonals."""
    dim = len(gen.same)
    blocks = [gen.block(k) for k in range(1 - dim, dim)]
    rho, t, states = rho0.astype(complex), 0.0, []
    for target in times:
        if target > t:
            u = {**kernel_propagators(gen, target - t), **kernel_propagators(gen, target - t, -1)}
            evolved = np.empty_like(rho)
            for k, (rows, cols, _) in zip(range(1 - dim, dim), blocks):
                evolved[rows, cols] = u[k] @ rho[rows, cols]
            rho = evolved
        t = target
        states.append(rho.copy())
    return states


@pytest.mark.parametrize("shifts", [False, True])
def test_integrate_reuses_propagators_bitwise(model, reservoir, etas, rho_aocs, rho_cat, shifts):
    # one stacked exponential per call, reused across equal steps and
    # applied as conj(U_k) to order -k, changes no bit of any state; the
    # first sample set repeats the step 0.5, the second has none equal.
    # A fresh table per call, so integrate's own kernel run is compared
    # (a shared table could hand it another test's stored propagators)
    reservoir = SHIFTED if shifts else reservoir
    repeated = [0.0, 0.5, 1.0, 1.5, 2.0] if shifts else [0.0, 0.2, 0.5, 1.0, 1.5, 2.0, 2.5, 4.0]
    gen = build_generator(model, rate_table(model, reservoir), etas)
    for times in (repeated, [0.3, 0.7, 1.9]):
        for rho0 in (rho_aocs, rho_cat):
            table = rate_table(model, reservoir)
            result = integrate(rho0, model, table, etas, times[-1], 1e-3, times)
            reference = kernel_every_interval_packed(gen, rho0, times)
            for got, want in zip(result.states, reference, strict=True):
                assert np.array_equal(got, want)


RELAXATION_TIMES = [0.0, 0.2, 0.5, 1.0, 1.5, 2.0, 2.5, 4.0]


@pytest.fixture
def kernel_calls(monkeypatch):
    """The shapes of the stacks integrate passes to _expm_stack, one per call."""
    calls = []

    def counted(a):
        calls.append(a.shape)
        return _expm_stack(a)

    monkeypatch.setattr(dissipator, "_expm_stack", counted)
    return calls


def test_second_call_on_one_table_reuses_its_propagators(
    model, reservoir, etas, rho_aocs, rho_cat, kernel_calls
):
    # a relaxation study: several initial states under one table and one
    # sample set exponentiate once, with the states of a fresh table
    table = rate_table(model, reservoir)
    first = integrate(rho_aocs, model, table, etas, 4.0, 1e-3, RELAXATION_TIMES)
    second = integrate(rho_cat, model, table, etas, 4.0, 1e-3, RELAXATION_TIMES)
    assert len(kernel_calls) == 1
    for result, rho0 in ((first, rho_aocs), (second, rho_cat)):
        # a new table with the same content exponentiates again
        fresh = integrate(rho0, model, rate_table(model, reservoir), etas, 4.0, 1e-3, RELAXATION_TIMES)
        for got, want in zip(result.states, fresh.states, strict=True):
            assert np.array_equal(got, want)
        assert result.diagnostics == fresh.diagnostics
    assert len(kernel_calls) == 3


@pytest.mark.parametrize("change", ["K4 in place", "etas", "samples"])
def test_a_changed_generator_or_sample_set_recomputes(model, reservoir, etas, rho_cat, kernel_calls, change):
    table = rate_table(model, reservoir)
    integrate(rho_cat, model, table, etas, 4.0, 1e-3, RELAXATION_TIMES)
    call_etas, times = etas, RELAXATION_TIMES
    if change == "K4 in place":
        table.K4[3] *= 1.5
    elif change == "etas":
        call_etas = 0.9 * np.asarray(etas)
    else:
        times = [0.0, 0.3, 1.0, 4.0]
    got = integrate(rho_cat, model, table, call_etas, 4.0, 1e-3, times)
    assert len(kernel_calls) == 2
    # replace() copies the (edited) arrays into a table without propagators
    want = integrate(rho_cat, model, replace(table), call_etas, 4.0, 1e-3, times)
    assert len(kernel_calls) == 3
    for a, b in zip(got.states, want.states, strict=True):
        assert np.array_equal(a, b)


def test_a_table_keeps_one_read_only_propagator_stack(model, reservoir, etas, rho_cat):
    table = rate_table(model, reservoir)
    assert table._propagators == {}
    assert "_propagators" not in repr(table)
    for times in ([0.0, 1.0], [0.5, 2.0, 4.0], [0.0, 1.0]):
        integrate(rho_cat, model, table, etas, 4.0, 1e-3, times)
        assert len(table._propagators) == 1
        (key, stack), = table._propagators.items()
        steps = key[-1]
        assert steps == tuple(sorted({b - a for a, b in zip([0.0] + times, times) if b > a}))
        assert stack.shape == (len(steps), 2, (model.dim + 2) // 2, model.dim, model.dim)
        assert not stack.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0, 0, 0, 0] = 0.0
    assert replace(table)._propagators == {}


def test_growing_coherences_raise_the_same_error_on_a_hit(model, etas, rho_cat, kernel_calls):
    hot = rate_table(model, ReservoirParams(theta=0.5, gamma_scale=5.0))
    times = [0.0, 0.5, 1.0, 2.0, 40.0, 400.0]
    errors = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            with pytest.raises(IntegrationError) as info:
                integrate(rho_cat, model, hot, etas, 400.0, 1e-3, times)
            errors.append(info.value)
    assert len(kernel_calls) == 1
    miss, hit = errors
    assert (str(hit), hit.time, hit.drift, hit.invariant) == (str(miss), miss.time, miss.drift, miss.invariant)


@pytest.mark.parametrize("shifts", [False, True])
@pytest.mark.parametrize("dim", [2, 15, 16, 30])
def test_packed_product_matches_the_per_order_product(dim, shifts):
    # the packed product sums each row over zeros of the other order too,
    # so it may differ from u_k @ rho[rows, cols] by round-off only; odd
    # and even dim cover both pairings (even dim leaves order dim/2 alone)
    params = MorseParams(dim)
    model = morse_model(params)
    etas = eta_values(params)
    table = rate_table(model, SHIFTED if shifts else ReservoirParams(theta=4.0))
    gen = build_generator(model, table, etas)
    times = [0.0, 0.3, 1.0, 1.5]
    for rho0 in (to_density(aocs(0.8, model)), to_density(even_cat(0.8, model))):
        result = integrate(rho0, model, table, etas, times[-1], 1e-3, times)
        reference = kernel_every_order_every_interval(gen, rho0, times)
        for got, want in zip(result.states, reference, strict=True):
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_stacked_exponential_equals_the_one_taken_alone(model, rates, etas):
    # integrate exponentiates every step of a call in one stack and reuses
    # the result bitwise only if no matrix depends on its neighbours: each
    # takes its own scaling, here from 0 to 19 squarings in one stack
    stack = []
    for table in (rates, rate_table(model, SHIFTED)):
        gen = build_generator(model, table, etas)
        for k in range(model.dim):
            padded = np.zeros((model.dim, model.dim), dtype=complex)
            padded[:model.dim - k, :model.dim - k] = gen.block(k)[2]
            stack += [h * padded for h in (1e-6, 0.01, 0.2, 0.5, 1.5, 4.0, 40.0)]
    stack = np.array(stack)
    together = _expm_stack(stack)
    for a, u in zip(stack, together, strict=True):
        assert np.array_equal(u, _expm_stack(a))
    # a leading axis of steps, as integrate passes it, changes nothing
    assert np.array_equal(_expm_stack(stack.reshape(14, 15, 15, 15)).reshape(stack.shape), together)


def test_exponential_of_zero_is_identity_exactly():
    stack = np.zeros((3, 6, 6), dtype=complex)
    stack[1, :2, :2] = [[-1.0, 0.5], [0.25, -2.0j]]
    u = _expm_stack(stack)
    for i in (0, 2):
        assert np.array_equal(u[i], np.eye(6))
    # the zero block beside a nonzero one stays I and the coupling 0
    assert np.array_equal(u[1, 2:, 2:], np.eye(4))
    assert not np.any(u[1, :2, 2:]) and not np.any(u[1, 2:, :2])


def kernel_accuracy_cases():
    # ladder sizes of both pairing parities (odd N pairs every order; even N
    # leaves order N/2 alone), Morse and harmonic, at the default reservoir
    for dim in (2, 15, 16, 30):
        morse = morse_model(MorseParams(dim))
        yield f"morse-{dim}", morse, ReservoirParams(theta=4.0), eta_values(MorseParams(dim))
        harmonic = OscillatorModel(dim, harmonic_deformation())
        yield f"harmonic-{dim}", harmonic, ReservoirParams(theta=4.0), np.ones(dim)
    # hot to cold reservoirs, weak to strong damping, on the default ladder
    morse = morse_model(MorseParams(15))
    for theta in (0.5, 4.0, 20.0):
        for gamma_scale in (0.1, 4.0 / 3.0, 5.0):
            yield (f"theta-{theta}-gamma-{gamma_scale:.3g}", morse,
                   ReservoirParams(theta=theta, gamma_scale=gamma_scale),
                   eta_values(MorseParams(15)))


@pytest.mark.parametrize("h", [1e-6, 0.2, 1.5, 40.0])
def test_exponential_matches_scipy(h):
    # the forward error of a backward-stable exponential scales with
    # eps ||h L||_1; the measured worst here is 2.0 eps max(1, ||h L||_1)
    # of max |U| over all orders (1.2e-13 on the harmonic N = 15, 16
    # ladders at h = 40, where ||h L_0||_1 = 1.5e3 and a 40-digit reference
    # puts this kernel 1.0e-13 and scipy 2e-14 off)
    eps = np.finfo(float).eps
    for name, case_model, reservoir, case_etas in kernel_accuracy_cases():
        if (h, name) == (40.0, "theta-0.5-gamma-5"):
            continue  # exp(40 L_k), k = 10..12, exceeds the double range here
        gen = build_generator(case_model, rate_table(case_model, reservoir), case_etas)
        got = kernel_propagators(gen, h)
        want = {k: expm(h * gen.block(k)[2]) for k in got}
        scale = max(np.max(np.abs(u)) for u in want.values())
        norm = max(np.max(np.abs(h * gen.block(k)[2]).sum(axis=0)) for k in got)
        err = max(np.max(np.abs(got[k] - want[k])) for k in got)
        assert err <= 4.0 * eps * max(1.0, norm) * scale, (name, err / scale)


@pytest.mark.parametrize("h", [0.5, 2.0])
@pytest.mark.parametrize("k", [1, 7])
def test_shifted_exponential_against_mpmath(model, etas, k, h):
    # with shifts on the blocks reach ||h L_k||_1 = 4.8e4 (k = 7, h = 2),
    # about 14 squarings; orders 1 and 7 are packed with 14 and 8
    gen = build_generator(model, rate_table(model, SHIFTED), etas)
    got = kernel_propagators(gen, h)[k]
    with mpmath.workdps(40):
        exact = mpmath.expm(mpmath.matrix((h * gen.block(k)[2]).tolist()))
        want = np.array(exact.tolist(), dtype=complex)
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def test_long_interval_reaches_the_steady_state(model, reservoir, etas, rho_aocs):
    # t = 1e6 takes about 20 squarings of each block in one step (a fresh
    # table, so they run here)
    rates = rate_table(model, reservoir)
    result = integrate(rho_aocs, model, rates, etas, 1e6, 1e-3, [1e6])
    stationary = steady_state(model, rates, etas)
    assert np.max(np.abs(result.states[0] - stationary)) < 1e-9


@pytest.mark.parametrize("t_final", [1e300, 1e308])
def test_overlong_interval_fails_loudly(model, reservoir, etas, rho_aocs, t_final):
    # the squarings over- or underflow; that must surface as a broken
    # invariant, never as an OverflowError or a RuntimeWarning (an error
    # under this suite's filterwarnings); a fresh table, so they run here
    rates = rate_table(model, reservoir)
    with pytest.raises(IntegrationError) as info:
        integrate(rho_aocs, model, rates, etas, t_final, 1e-3, [0.0, 1.0, t_final])
    assert info.value.time == t_final
    assert info.value.invariant in ("finite", "trace")


def test_integrate_with_shifts_matches_full_propagator(model, etas, rho_aocs):
    # exact block propagation against expm of the full N^2 x N^2 generator,
    # built column by column; with shifts on, its diagonal reaches ~4e4,
    # beyond what the fixed-step RK4 oracle can follow
    table = rate_table(
        model,
        ReservoirParams(theta=4.0, gamma_scale=0.5, shift_cutoff=40.0),
    )
    gen = build_generator(model, table, etas)
    dim = model.dim
    full = np.column_stack(
        [gen.apply(unit.reshape(dim, dim)).ravel() for unit in np.eye(dim * dim, dtype=complex)]
    )
    times = [0.5, 1.0, 2.0]
    result = integrate(rho_aocs, model, table, etas, 2.0, 1e-3, times)
    for t, got in zip(times, result.states):
        want = (expm(t * full) @ rho_aocs.ravel()).reshape(dim, dim)
        assert np.max(np.abs(got - want)) < 1e-10


def test_blocks_reassemble_generator_random_deformations():
    for trial, model, table, etas in random_deformation_cases():
        assert_blocks_reassemble(model, table, etas, 30 + trial)


def test_integrate_off_grid_sample_times(model, rates, etas, rho_docs, rk4_oracle):
    # sample times need not relate to dt: each interval is bridged exactly
    times = [0.0004, 0.0105]
    result = integrate(rho_docs, model, rates, etas, 0.0105, 1e-3, times)
    assert result.times == times
    assert result.diagnostics["max_trace_error"] < 1e-12
    reference = rk4_oracle(build_generator(model, rates, etas), rho_docs, times, 1e-4)
    for got, want in zip(result.states, reference):
        assert np.max(np.abs(got - want)) < 1e-12


def test_integrate_matches_rk4_oracle(model, rates, etas, rho_docs, rho_aocs, rho_cat, rk4_oracle):
    times = [0.0, 0.2, 0.5, 1.0, 1.5, 2.0, 2.5, 4.0]
    gen = build_generator(model, rates, etas)
    for rho0 in (rho_docs, rho_aocs, rho_cat):
        result = integrate(rho0, model, rates, etas, 4.0, 1e-3, times)
        assert result.times == times
        reference = rk4_oracle(gen, rho0, times, 1e-3)
        for got, want in zip(result.states, reference):
            assert np.max(np.abs(got - want)) <= 1e-10


def test_harmonic_mean_occupation_rate(reservoir):
    # d<n>/dt = -gamma (<n> - nbar) for the undeformed ladder
    model = OscillatorModel(30, harmonic_deformation())
    table = rate_table(model, reservoir)
    ones = np.ones(30)
    rng = np.random.default_rng(5)
    populations = rng.uniform(0.0, 1.0, size=30)
    populations[-6:] = 0.0  # keep clear of the truncation edge
    populations /= populations.sum()
    rho = np.diag(populations).astype(complex)
    derivative = build_generator(model, table, ones).apply(rho)
    got = float(np.dot(np.arange(30), np.diag(derivative).real))
    nbar = 1.0 / math.expm1(reservoir.theta)
    want = -reservoir.gamma_scale * (mean_occupation(rho) - nbar)
    assert got == pytest.approx(want, abs=1e-10)


def test_integrate_zero_time(rho_docs, model, rates, etas):
    result = integrate(rho_docs, model, rates, etas, t_final=0.0, dt=1e-3)
    assert result.times == [0.0]
    assert np.array_equal(result.states[0], rho_docs)


def test_harmonic_relaxation_analytic(reservoir):
    model = OscillatorModel(30, harmonic_deformation())
    weak = ReservoirParams(theta=4.0, gamma_scale=0.1)
    table = rate_table(model, weak)
    rho0 = to_density(aocs(math.sqrt(2.0), model))
    n0 = mean_occupation(rho0)
    nbar = 1.0 / math.expm1(weak.theta)
    times = [0.0, 5.0, 10.0, 20.0, 40.0]
    result = integrate(rho0, model, table, np.ones(30), 40.0, 1e-3, times)
    for t, rho in zip(result.times, result.states):
        want = nbar + (n0 - nbar) * math.exp(-0.1 * t)
        assert mean_occupation(rho) == pytest.approx(want, rel=1e-4)


@pytest.mark.parametrize("theta, dim", [(400.0, 30), (4.0, 30), (1.0, 60)])
def test_harmonic_damping_basis_spectrum(theta, dim):
    # the damped harmonic oscillator's Liouvillian has the eigenvalues
    # -i k - gamma (k / 2 + j), j = 0, 1, ..., at every temperature
    # (H.-J. Briegel and B.-G. Englert, PRA 47 (1993) 3311); truncation
    # moves only the fast end of each block's spectrum
    model = OscillatorModel(dim, harmonic_deformation())
    table = rate_table(model, ReservoirParams(theta=theta, gamma_scale=0.1))
    gen = build_generator(model, table, np.ones(dim))
    for k in range(6):
        eigenvalues = np.linalg.eigvals(gen.block(k)[2])
        slowest = eigenvalues[np.argsort(-eigenvalues.real)][:4]
        want = -0.1 * (k / 2 + np.arange(4)) - 1j * k
        assert np.max(np.abs(slowest - want)) < 1e-10


def test_step_halving_agreement(rho_docs, model, rates, etas):
    # dt sets no step: halving it changes nothing, and halving the sample
    # interval instead agrees to round-off (the propagator is a semigroup)
    coarse = integrate(rho_docs, model, rates, etas, 1.0, 1e-3, [1.0])
    fine = integrate(rho_docs, model, rates, etas, 1.0, 5e-4, [1.0])
    assert np.array_equal(coarse.states[0], fine.states[0])
    split = integrate(rho_docs, model, rates, etas, 1.0, 1e-3, [0.5, 1.0])
    assert np.max(np.abs(split.states[-1] - coarse.states[0])) < 1e-12


def test_integrate_validates_input_shape(model, rates, etas):
    with pytest.raises(ValueError, match="shape"):
        integrate(np.eye(4, dtype=complex) / 4, model, rates, etas, 1.0, 1e-3)
    with pytest.raises(ValueError, match="dt"):
        integrate(np.eye(15, dtype=complex) / 15, model, rates, etas, 1.0, -1e-3)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be finite"):
            integrate(np.eye(15, dtype=complex) / 15, model, rates, etas, 1.0, bad)
    with pytest.raises(ValueError, match="sorted"):
        integrate(np.eye(15, dtype=complex) / 15, model, rates, etas, 1.0, 1e-3, [1.0, 0.5])
    with pytest.raises(ValueError, match="sample_times must contain at least one time"):
        integrate(np.eye(15, dtype=complex) / 15, model, rates, etas, 1.0, 1e-3, [])
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="t_final must be >= 0"):
            integrate(np.eye(15, dtype=complex) / 15, model, rates, etas, bad, 1e-3)
    with pytest.raises(ValueError, match="last sample time 2.0 exceeds t_final 1.0"):
        integrate(np.eye(15, dtype=complex) / 15, model, rates, etas, 1.0, 1e-3, [0.0, 2.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_integrate_rejects_non_finite_sample_times(model, rates, etas, rho_docs, bad):
    with pytest.raises(ValueError, match="finite"):
        integrate(rho_docs, model, rates, etas, 1.0, 1e-3, [0.0, bad])


@pytest.mark.parametrize(
    "kwargs, key",
    [
        ({"gamma_scale": math.nan}, "gamma_scale"),
        ({"gamma_scale": math.inf}, "gamma_scale"),
        ({"shift_cutoff": math.nan}, "shift_cutoff"),
        ({"shift_cutoff": math.inf}, "shift_cutoff"),
    ],
)
def test_reservoir_rejects_non_finite_values(kwargs, key):
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        ReservoirParams(theta=4.0, **kwargs)


@pytest.mark.parametrize("theta", [0.0, -1.0, math.nan, -math.inf])
def test_reservoir_rejects_a_non_positive_theta(theta):
    with pytest.raises(ValueError, match="theta must be positive"):
        ReservoirParams(theta=theta)


def test_generator_refuses_a_rate_table_of_another_dimension(model, etas):
    small = rate_table(morse_model(MorseParams(10)), ReservoirParams(theta=4.0))
    with pytest.raises(ValueError, match="rate table dimension 10 != model dimension 15"):
        build_generator(model, small, etas)


def test_jump_amplitudes_refuse_too_few_etas(model):
    with pytest.raises(ValueError, match=r"need eta values for levels 0\.\.14, got 10"):
        dissipator.jump_amplitudes(model, eta_values(MorseParams(10)))


def test_integrate_aborts_on_trace_breach(model, rates, etas, rho_docs):
    # a non-trace-preserving initial matrix must trip the drift abort
    with pytest.raises(IntegrationError, match="trace"):
        integrate(1.5 * rho_docs, model, rates, etas, 0.1, 1e-3, [0.1])


def test_integrate_aborts_on_non_hermitian_start(model, rates, etas, rho_docs):
    # every coherence order is propagated on its own, so a non-Hermitian
    # start stays non-Hermitian and trips the check at the first snapshot
    skewed = rho_docs.copy()
    skewed[0, 3] += 1e-6
    with pytest.raises(IntegrationError, match="Hermiticity"):
        integrate(skewed, model, rates, etas, 0.5, 1e-3, [0.5])


def test_unitary_limit_keeps_populations(model, etas, rho_docs):
    frozen = rate_table(model, ReservoirParams(theta=4.0, gamma_scale=0.0))
    result = integrate(rho_docs, model, frozen, etas, 2.0, 1e-3, [0.0, 2.0])
    p0 = np.diag(result.states[0]).real
    p1 = np.diag(result.states[-1]).real
    assert np.max(np.abs(p1 - p0)) < 1e-12
    assert purity(result.states[-1]) == pytest.approx(1.0, abs=1e-12)


def test_unitary_limit_phases_match_spectrum(model, params, etas, rho_docs):
    # coherences rotate with (m-n)(1 - chi (m+n+1)) t
    frozen = rate_table(model, ReservoirParams(theta=4.0, gamma_scale=0.0))
    t = 0.7
    result = integrate(rho_docs, model, frozen, etas, t, 1e-3, [t])
    rho_t = result.states[0]
    m, n = 3, 1
    phase = -(m - n) * (1.0 - params.chi * (m + n + 1)) * t
    expected = rho_docs[m, n] * np.exp(1j * phase)
    assert rho_t[m, n] == pytest.approx(expected, abs=1e-9)


def test_steady_state_harmonic_is_boltzmann(reservoir):
    model = OscillatorModel(12, harmonic_deformation())
    table = rate_table(model, reservoir)
    stationary = steady_state(model, table, np.ones(12))
    populations = np.diag(stationary).real
    ratios = populations[1:-1] / populations[:-2]
    assert np.max(np.abs(ratios - math.exp(-4.0))) < 1e-6


def test_steady_state_detailed_balance(model, rates, etas):
    stationary = steady_state(model, rates, etas)
    populations = np.diag(stationary).real
    gaps = gap_frequencies(model)
    ratios = populations[1:] / populations[:-1]
    expected = np.exp(-4.0 * gaps[:-1])
    assert np.max(np.abs(ratios - expected)) < 1e-6
    off = stationary - np.diag(np.diag(stationary))
    assert np.max(np.abs(off)) < 1e-10
    predicted = detailed_balance_populations(rates)
    assert np.max(np.abs(populations - predicted)) < 1e-8


def test_steady_state_requires_damping(model, etas):
    frozen = rate_table(model, ReservoirParams(theta=4.0, gamma_scale=0.0))
    with pytest.raises(ValueError, match="damping"):
        steady_state(model, frozen, etas)
    # the flux-balance route refuses it too, before dividing 0 by 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="steady state requires nonzero damping"):
            detailed_balance_populations(frozen)


def test_steady_state_reports_residual_breach(model, rates, etas, monkeypatch):
    balance = dissipator._birth_death_populations

    def perturbed(up, down):
        return balance(up, down) * (1.0 + 1e-6 * np.arange(len(up) + 1))

    monkeypatch.setattr(dissipator, "_birth_death_populations", perturbed)
    with pytest.raises(RuntimeError, match=r"steady state residual \d\.\d+e-\d+"):
        steady_state(model, rates, etas)


def test_steady_state_matches_detailed_balance_per_level(model, rates, etas, reservoir):
    harmonic = OscillatorModel(12, harmonic_deformation())
    cases = [
        (model, rates, etas),
        (harmonic, rate_table(harmonic, reservoir), np.ones(12)),
    ]
    for theta in (3.6, 4.4):
        cases.append((model, rate_table(model, ReservoirParams(theta=theta)), etas))
    for case_model, table, case_etas in cases:
        populations = np.diag(steady_state(case_model, table, case_etas)).real
        predicted = detailed_balance_populations(table)
        assert np.max(np.abs(populations / predicted - 1.0)) <= 1e-12


@pytest.mark.parametrize("n_bound, theta", [
    (15, 20.0), (15, 60.0), (15, 400.0), (15, 1000.0), (15, math.inf), (60, 60.0),
], ids=["20.0", "60.0", "400.0", "1000.0", "inf", "60-60.0"])
def test_steady_state_extreme_cold(n_bound, theta):
    # upper populations underflow to zero at theta = 400; the relative-rate
    # check must skip them rather than read 0/0.  From theta = 1000 on K2 is
    # 0, and the balance takes log 0 = -inf without a warning.  At N = 60,
    # theta = 60 level 14 holds a subnormal 2.6e-320, whose rate products
    # have lost most of their bits: the relative check skips it too
    params = MorseParams(n_bound)
    model = morse_model(params)
    etas = eta_values(params)
    table = rate_table(model, ReservoirParams(theta=theta))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        populations = np.diag(steady_state(model, table, etas)).real
        predicted = detailed_balance_populations(table)
    occupied = populations != 0.0
    assert occupied[0]
    assert np.max(np.abs(populations[occupied] / predicted[occupied] - 1.0)) <= 1e-12
    assert np.all(predicted[~occupied] < 1e-300)


def test_steady_state_leaves_zero_above_an_uncoupled_gap(model, rates, etas):
    # eta(5) = 0 cuts the chain at gap 5: no flux reaches levels 6 and up,
    # so they hold zero population (not 0/0), and the levels below keep the
    # full chain's relative balance
    cut = np.array(etas, dtype=float)
    cut[5] = 0.0
    populations = np.diag(steady_state(model, rates, cut)).real
    assert np.all(populations[6:] == 0.0)
    predicted = detailed_balance_populations(rates)[:6]
    assert np.max(np.abs(populations[:6] / (predicted / predicted.sum()) - 1.0)) <= 1e-12


def test_steady_state_of_a_sixty_level_ladder():
    params = MorseParams(60)
    model = morse_model(params)
    table = rate_table(model, ReservoirParams(theta=4.0))
    populations = np.diag(steady_state(model, table, eta_values(params))).real
    assert np.all(populations > 0.0)
    assert np.max(np.abs(populations / detailed_balance_populations(table) - 1.0)) <= 1e-12


def test_shifts_leave_the_steady_state_unchanged(model, etas):
    # shifts enter the coherences only; the population chain is the same
    plain, shifted = (
        steady_state(model, rate_table(model, ReservoirParams(4.0, 0.5, cutoff)), etas)
        for cutoff in (None, 40.0)
    )
    assert np.array_equal(np.diag(plain), np.diag(shifted))
    assert not np.any(shifted - np.diag(np.diag(shifted)))


def test_purity_values(model, rates, etas, rho_docs):
    assert purity(rho_docs) == pytest.approx(1.0, abs=1e-12)
    assert purity(np.eye(15, dtype=complex) / 15) == pytest.approx(1.0 / 15.0, abs=1e-14)


def test_purity_relaxation_for_diagonal_starts(model, rates, etas):
    # sampled check, not a theorem: from the maximally mixed state purity
    # climbs monotonically toward the stationary value; from a pure number
    # state it dips (populations spread) before converging to the same value
    stationary = steady_state(model, rates, etas)
    target = purity(stationary)

    mixed = np.eye(15, dtype=complex) / 15.0
    result = integrate(mixed, model, rates, etas, 6.0, 1e-3, [0.0, 1.0, 2.0, 4.0, 6.0])
    purities = np.array([purity(s) for s in result.states])
    assert np.all(np.diff(purities) > 0)
    assert np.all(purities <= target + 1e-9)

    fock3 = np.zeros((15, 15), dtype=complex)
    fock3[3, 3] = 1.0
    late = integrate(fock3, model, rates, etas, 30.0, 1e-3, [30.0])
    assert purity(late.states[0]) == pytest.approx(target, abs=1e-3)


def test_an_edited_table_keeps_the_trace(model, etas):
    # a table stores one rate and one shift array per direction and gap, so
    # an in-place edit moves a level's loss and its neighbour's gain
    # together; the level-indexed arrays derived from them refuse writes
    table = rate_table(model, ReservoirParams(theta=4.0, shift_cutoff=40.0))
    table.K4[3] *= 1.5
    table.delta2[5] += 0.1
    derivative = build_generator(model, table, etas).apply(random_density(model.dim, 5))
    assert abs(np.trace(derivative)) < 1e-12
    assert table.K1[4] == table.K4[3]
    with pytest.raises(ValueError, match="read-only"):
        table.K1[4] = 0.0


def test_shift_table_requires_cutoff(model, rates, etas):
    # no cutoff, no shifts: rate_table fills zeros and the gain couplings
    # stay real
    assert not any(np.any(d) for d in (rates.delta1, rates.delta2, rates.delta3, rates.delta4))
    gen = build_generator(model, rates, etas)
    assert not np.any(gen.below.imag) and not np.any(gen.above.imag)
    with pytest.raises(ValueError, match="shift_cutoff"):
        shift_table(model, ReservoirParams(theta=4.0))


def test_shift_requires_cutoff(model):
    # the cutoff alone turns the shifts on: rate_table then fills both
    # per-gap arrays with shift_table's values, and all four are nonzero
    reservoir = ReservoirParams(theta=4.0, shift_cutoff=40.0)
    table = rate_table(model, reservoir)
    assert all(np.any(d) for d in (table.delta1, table.delta2, table.delta3, table.delta4))
    for got, want in zip((table.delta2, table.delta4), shift_table(model, reservoir), strict=True):
        np.testing.assert_array_equal(got, want)


def test_shift_cutoff_below_pole_rejected(model):
    bad = ReservoirParams(theta=4.0, shift_cutoff=0.5)
    with pytest.raises(ValueError, match="cutoff"):
        shift_table(model, bad)


@pytest.mark.parametrize("cutoff", [1e103, 1e154, 1e200])
def test_a_cutoff_whose_shifts_overflow_is_refused(model, cutoff):
    # the spontaneous shift grows like the cutoff cubed: a table that would
    # hold -inf (or overflow the cutoff's square) raises ValueError instead
    reservoir = ReservoirParams(theta=4.0, shift_cutoff=cutoff)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (shift_table, rate_table):
            with pytest.raises(ValueError, match=re.escape(f"shift_cutoff {cutoff} is too large")):
                build(model, reservoir)
    # below the overflow the table is finite
    assert np.all(np.isfinite(shift_table(model, replace(reservoir, shift_cutoff=1e102))[1]))


def test_shift_sign_structure(model):
    reservoir = ReservoirParams(theta=4.0, shift_cutoff=50.0)
    table = rate_table(model, reservoir)
    d1, d2, d3, d4 = table.delta1, table.delta2, table.delta3, table.delta4
    # delta1 and delta3 at the next level share delta4's and delta2's
    # integrals with opposite sign, bitwise, like K1 and K3 in the rates
    assert np.array_equal(d1[1:], -d4[:-1])
    assert np.array_equal(d3[1:], -d2[:-1])
    assert np.max(np.abs(d1)) > 0 and np.max(np.abs(d4)) > 0
    assert d1[0] == 0.0 and d3[0] == 0.0


@pytest.mark.parametrize("theta, cutoff", [(20.0, 40.0), (12.0, 80.0)])
def test_cold_shift_table_builds_without_warnings(model, theta, cutoff):
    # the thermal rule stops at theta w = 64, far below where expm1(theta w)
    # overflows, however cold the bath; no warning may escape
    reservoir = ReservoirParams(theta=theta, shift_cutoff=cutoff)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rates = rate_table(model, reservoir)
    shifts = (rates.delta1, rates.delta2, rates.delta3, rates.delta4)
    assert all(np.all(np.isfinite(d)) for d in shifts)


def test_zero_shift_arrays_are_separate(model):
    # with shifts off each per-gap delta is its own array: writing one
    # leaves the other at zero
    rates = rate_table(model, ReservoirParams(theta=4.0))
    rates.delta2[3] = 0.25
    assert not np.any(rates.delta4) and not np.any(rates.delta1)


def test_shift_cutoff_sensitivity_is_visible(model):
    base, wide = (
        shift_table(model, ReservoirParams(theta=4.0, shift_cutoff=cutoff))
        for cutoff in (30.0, 60.0)
    )
    thermal, spontaneous = (float(np.max(np.abs(w - b))) for b, w in zip(base, wide, strict=True))
    # the spontaneous-weight integrals (delta4, and delta1 from it) are
    # cutoff dominated by construction
    assert spontaneous > 1e-3
    # the thermal-weight integrals end at the bath's reach, below both cutoffs
    assert thermal == 0.0


def test_thermal_shifts_do_not_depend_on_a_cutoff_past_the_reach(model):
    # the thermal weight is cut at theta w = 64, so delta2 is the same
    # table at any cutoff beyond 64 / theta
    narrow, wide = (
        shift_table(model, ReservoirParams(theta=4.0, shift_cutoff=cutoff))[0]
        for cutoff in (40.0, 1e6)
    )
    assert np.array_equal(narrow, wide)


@pytest.mark.parametrize("n", [0, 7, 14])
def test_shift_table_with_the_reach_on_a_gap(model, n):
    # at theta = 64 / Omega(n) the reach 64 / theta is Omega(n) exactly, so
    # that gap's pole sits on the end of the thermal rule
    gaps = gap_frequencies(model)
    theta = 64.0 / gaps[n]
    assert 64.0 / theta == gaps[n]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d2, d4 = shift_table(model, ReservoirParams(theta=theta, shift_cutoff=40.0))
    assert np.all(np.isfinite(d2)) and np.all(np.isfinite(d4))


def mpmath_principal_value(weight, pole, cutoff):
    """P.V. of integral_0^cutoff weight(w) / (pole - w) dw at 30 digits.

    For cutoff > pole: with half = min(pole, cutoff - pole), the pole's
    symmetric points are paired over (pole - half, pole + half), and the
    rest of (0, cutoff), left or right of that, has no pole.
    """
    with mpmath.workdps(30):
        pole, cutoff = mpmath.mpf(pole), mpmath.mpf(cutoff)
        half = min(pole, cutoff - pole)
        total = mpmath.quad(lambda u: (weight(pole - u) - weight(pole + u)) / u, [0, half])
        for a, b in ((0, pole - half), (pole + half, cutoff)):
            if a < b:
                total += mpmath.quad(lambda w: weight(w) / (pole - w), [a, b])
        return total


@pytest.mark.parametrize(
    "theta, cutoff",
    [(4.0, 40.0), (12.0, 80.0), (4.0, 1.2), (4.0, 1e4), (400.0, 40.0), (math.inf, 40.0),
     (12.26886721969377, 40.0), (37.41333635178506, 40.0),
     (12.2688672196815, 40.0), (12.268867207424902, 40.0)],
)
def test_shift_integrals_against_mpmath(model, theta, cutoff):
    # delta2 and delta4 are -gamma_scale / (2 pi) times the principal value
    # of w^3 nbar(w) / (Omega - w), resp. w^3 (nbar(w) + 1) / (Omega - w).
    # At cutoff 1.2 every gap above 0.6 lies past half the cutoff, so the
    # integral's pole-free part is left of the pole; at theta = inf the
    # thermal weight, and with it delta2, is exactly 0.  Of the cases at
    # cutoff 40 past theta 12, the first two put a quadrature node on
    # Omega(2), resp. Omega(5), and the last two put one 8e-13 and 8e-10
    # from Omega(2)
    reservoir = ReservoirParams(theta=theta, shift_cutoff=cutoff)
    d2, d4 = shift_table(model, reservoir)
    gaps = gap_frequencies(model)
    scale = -reservoir.gamma_scale / (2 * math.pi)
    x = mpmath.mpf(theta)

    def thermal(w):
        return w**3 / mpmath.expm1(x * w)

    def spontaneous(w):
        return w**3 * (1 / mpmath.expm1(x * w) + 1)

    for n in (0, 2, 3, 5, 9, 13):
        for got, weight in ((d2[n], thermal), (d4[n], spontaneous)):
            want = scale * float(mpmath_principal_value(weight, gaps[n], cutoff))
            assert abs(got - want) <= 1e-12 * abs(want), (n, got, want)


def test_shifts_preserve_trace_and_hermiticity(model, etas):
    reservoir = ReservoirParams(
        theta=4.0, gamma_scale=0.5, shift_cutoff=40.0
    )
    table = rate_table(model, reservoir)
    assert np.any(table.delta2)
    rho = random_density(model.dim, 9)
    gen = build_generator(model, table, etas)
    derivative = gen.apply(rho)
    assert abs(np.trace(derivative)) < 1e-12
    back = gen.apply(rho.conj().T)
    assert np.max(np.abs(derivative.conj().T - back)) < 1e-13


def test_shift_terms_match_operator_form(model, etas):
    # the shift part of the generator is -i([S, rho] + [D3, F^dag rho F]
    # + [D4, F rho F^dag]) with S = D1 F^dag F + D2 F F^dag, built here from
    # the ladder operator independently of the generator's arrays
    from deformed_lindblad import ladder_pair

    reservoir = ReservoirParams(theta=4.0, gamma_scale=0.5, shift_cutoff=40.0)
    with_shifts = rate_table(model, reservoir)
    without = rate_table(model, ReservoirParams(theta=4.0, gamma_scale=0.5))
    a, _ = ladder_pair(model)
    f_op = a @ np.diag(np.concatenate(([0.0], etas[:-1])))
    f_dag = f_op.T
    d1, d2, d3, d4 = (
        np.diag(x) for x in (with_shifts.delta1, with_shifts.delta2, with_shifts.delta3, with_shifts.delta4)
    )
    s_op = d1 @ f_dag @ f_op + d2 @ f_op @ f_dag

    def comm(x, y):
        return x @ y - y @ x

    rho = random_density(model.dim, 11)
    expected = -1j * (
        comm(s_op, rho) + comm(d3, f_dag @ rho @ f_op) + comm(d4, f_op @ rho @ f_dag)
    )
    got = build_generator(model, with_shifts, etas).apply(rho) - build_generator(
        model, without, etas
    ).apply(rho)
    assert np.max(np.abs(expected)) > 1e-2
    assert np.max(np.abs(got - expected)) < 1e-13 * np.max(np.abs(expected))


def test_shifts_leave_populations_untouched(model, etas):
    with_shifts = rate_table(
        model,
        ReservoirParams(theta=4.0, gamma_scale=0.5, shift_cutoff=40.0),
    )
    without = rate_table(model, ReservoirParams(theta=4.0, gamma_scale=0.5))
    rho = random_density(model.dim, 10)
    d_with = build_generator(model, with_shifts, etas).apply(rho)
    d_without = build_generator(model, without, etas).apply(rho)
    assert np.max(np.abs(np.diag(d_with) - np.diag(d_without))) < 1e-14


def test_validate_density_raises(model, rates, etas):
    good = np.eye(15, dtype=complex) / 15
    checks = validate_density(good)
    assert checks["trace_error"] < 1e-14
    with pytest.raises(IntegrationError, match="trace"):
        validate_density(good * 1.01)
    lopsided = good.copy()
    lopsided[0, 3] = 1e-6
    with pytest.raises(IntegrationError, match="Hermiticity"):
        validate_density(lopsided)
    # a non-finite entry is named, with the time, before any arithmetic on
    # rho (which would end in a LinAlgError after RuntimeWarnings)
    broken = good.copy()
    broken[2, 3] = np.nan
    with pytest.raises(IntegrationError, match=r"entry \(2, 3\) is not finite .* at t = 0\.5"):
        validate_density(broken, time=0.5)
    with pytest.raises(IntegrationError, match=r"entry \(2, 3\) is not finite .* at t = 0\.0"):
        integrate(broken, model, rates, etas, 1.0, 1e-3)


def test_validate_density_on_a_stack_equals_the_per_state_calls(model, rates, etas, rho_cat):
    # integrate checks all its snapshots in one call; the stack's worst
    # values are bitwise those of the states checked one by one
    # whatever the memory layout of the stack
    def worst(states):
        alone = [validate_density(rho) for rho in states]
        return {
            "trace_error": max(c["trace_error"] for c in alone),
            "hermiticity_error": max(c["hermiticity_error"] for c in alone),
            "min_eigenvalue": min(c["min_eigenvalue"] for c in alone),
        }

    times = [0.0, 0.2, 0.5, 1.0, 1.5, 2.0, 2.5, 4.0]
    result = integrate(rho_cat, model, rates, etas, 4.0, 1e-3, times)
    expected = worst(result.states)
    assert result.diagnostics == {
        "max_trace_error": expected["trace_error"],
        "max_hermiticity_error": expected["hermiticity_error"],
        "min_eigenvalue": expected["min_eigenvalue"],
    }
    states = result.states + [random_density(15, seed) for seed in range(5)]
    for stack in (np.array(states), np.asfortranarray(states)):
        assert validate_density(stack, [0.0] * len(states)) == worst(states)
    assert validate_density(states[3][None], 0.0) == validate_density(states[3])


def breaking_states():
    good = np.eye(15, dtype=complex) / 15
    lopsided = good.copy()
    lopsided[0, 3] = 1e-6
    broken = good.copy()
    broken[2, 3] = np.nan
    negative = np.diag([1.05, -0.05] + [0.0] * 13).astype(complex)
    return {"finite": broken, "trace": good * 1.01, "hermiticity": lopsided,
            "eigenvalue": negative}


@pytest.mark.parametrize("invariant", ["finite", "trace", "hermiticity", "eigenvalue"])
def test_validate_density_raises_for_the_earliest_breaking_state(invariant):
    # a good state, the breaking one, then states breaking every other way
    states = breaking_states()
    bad = states.pop(invariant)
    with pytest.raises(IntegrationError) as alone:
        validate_density(bad, time=0.5)
    stack = np.array([np.eye(15) / 15, bad] + list(states.values()))
    times = [0.25, 0.5, 1.0, 2.0, 4.0]
    with pytest.raises(IntegrationError) as together:
        validate_density(stack, times)
    assert together.value.invariant == alone.value.invariant == invariant
    assert str(together.value) == str(alone.value)
    assert together.value.time == alone.value.time == 0.5
    assert np.array_equal(together.value.drift, alone.value.drift, equal_nan=True)


def test_growing_coherences_raise_at_the_first_breach_without_warnings(model, etas, rho_cat):
    # at theta = 0.5, gamma_scale = 5 some coherence blocks grow like
    # exp(20 t): the state breaks the eigenvalue floor at t = 0.5 and
    # overflows by t = 40, which integrate computes before it checks
    hot = rate_table(model, ReservoirParams(theta=0.5, gamma_scale=5.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError) as info:
            integrate(rho_cat, model, hot, etas, 400.0, 1e-3, [0.0, 0.5, 1.0, 2.0, 40.0, 400.0])
    assert info.value.invariant == "eigenvalue"
    assert info.value.time == 0.5
    assert info.value.drift == pytest.approx(-37.70598455652969, rel=1e-12)
    assert "negative eigenvalue -3.771e+01 below -0.01 at t = 0.5" in str(info.value)
