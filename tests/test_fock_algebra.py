import numpy as np
import pytest

from deformed_lindblad import (
    DeformationFunction,
    OscillatorModel,
    eigenoperator_residual,
    gap_frequencies,
    hamiltonian,
    harmonic_deformation,
    ladder_pair,
)


def test_harmonic_ladder_entries():
    model = OscillatorModel(3, harmonic_deformation())
    a, ad = ladder_pair(model)
    assert a[0, 1] == pytest.approx(1.0, abs=1e-14)
    assert a[1, 2] == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert np.count_nonzero(a) == 2


def test_morse_ladder_entry(model):
    a, _ = ladder_pair(model)
    assert a[0, 1] == pytest.approx(np.sqrt(30.0 / 31.0), abs=1e-14)


def test_raising_is_transpose(model):
    a, ad = ladder_pair(model)
    assert np.array_equal(ad, a.T)


def test_negative_deformation_rejected():
    bad = DeformationFunction(lambda n: 1.0 - 0.3 * n, label="steep")
    with pytest.raises(ValueError, match=r"f\^2\(4\)"):
        OscillatorModel(6, bad)


def test_deformation_tabulated_once_per_level():
    calls = []

    def counted(n):
        calls.append(n)
        return 1.0 - 0.01 * n

    model = OscillatorModel(7, DeformationFunction(counted, "counted"))
    assert calls == list(range(9))
    assert np.array_equal(model.f2, 1.0 - 0.01 * np.arange(9))
    ladder_pair(model)
    hamiltonian(model)
    gap_frequencies(model)
    eigenoperator_residual(model)
    assert len(calls) == model.dim + 2
    assert not model.f2.flags.writeable
    with pytest.raises(ValueError):
        model.f2[0] = 2.0


def test_negative_f2_past_the_truncation_is_allowed():
    # f^2(dim + 1) only enters the gap Omega(dim - 1) beyond the top level
    steep = DeformationFunction(lambda n: 1.0 - 0.2 * n, label="steep")
    model = OscillatorModel(5, steep)
    assert model.f2[-1] < 0.0
    assert gap_frequencies(model)[-1] < 0.0


def test_harmonic_hamiltonian_matches_textbook():
    model = OscillatorModel(8, harmonic_deformation())
    h = hamiltonian(model)
    assert np.max(np.abs(h - np.diag(np.arange(8) + 0.5))) < 1e-14


def test_morse_hamiltonian_ground_entry(model):
    h = hamiltonian(model)
    assert h[0, 0] == pytest.approx(15.0 / 31.0, abs=1e-15)


def test_morse_hamiltonian_closed_form(model, params):
    # diagonal must equal n + 1/2 - chi (n + 1/2)^2 - chi/4
    n = np.arange(model.dim)
    x = n + 0.5
    closed = x - params.chi * x**2 - params.chi / 4.0
    assert np.max(np.abs(np.diag(hamiltonian(model)) - closed)) < 1e-14


def test_hamiltonian_is_real_diagonal(model):
    h = hamiltonian(model)
    assert np.array_equal(h, h.T.conj())
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0


def test_gap_frequency_harmonic():
    model = OscillatorModel(10, harmonic_deformation())
    assert np.max(np.abs(gap_frequencies(model) - 1.0)) <= 1e-15


def test_gap_frequency_morse(model):
    gaps = gap_frequencies(model)
    assert gaps[0] == pytest.approx(29.0 / 31.0, abs=1e-14)
    assert gaps[14] == pytest.approx(1.0 / 31.0, abs=1e-14)
    # closed form 1 - 2 chi (n+1)
    chi = 1.0 / 31.0
    n = np.arange(model.dim)
    assert np.max(np.abs(gaps - (1.0 - 2.0 * chi * (n + 1)))) <= 1e-13


def test_commutator_identity_interior(model):
    a, ad = ladder_pair(model)
    comm = a @ ad - ad @ a
    f2 = model.f2
    n = np.arange(model.dim)
    expected = (n + 1) * f2[1:-1] - n * f2[:-2]
    interior = slice(0, model.dim - 1)
    assert np.max(np.abs(np.diag(comm)[interior] - expected[interior])) < 1e-13


def test_eigenoperator_residual_harmonic():
    model = OscillatorModel(8, harmonic_deformation())
    assert eigenoperator_residual(model) < 1e-12


def test_eigenoperator_residual_morse(model):
    assert eigenoperator_residual(model) < 1e-12


def test_eigenoperator_residual_random_deformations():
    rng = np.random.default_rng(42)
    for trial in range(20):
        values = rng.uniform(0.1, 3.0, size=16)
        deformation = DeformationFunction(
            lambda n, v=values: float(v[n]) if n < len(v) else 1.0,
            label=f"random-{trial}",
        )
        model = OscillatorModel(6, deformation)
        assert eigenoperator_residual(model) < 1e-12


def test_gap_frequencies_vector(model):
    # entry by entry from the f^2 table: ((n+2) f^2(n+2) - n f^2(n)) / 2
    gaps = gap_frequencies(model)
    assert len(gaps) == model.dim
    for n in range(model.dim):
        f2n, f2n2 = float(model.f2[n]), float(model.f2[n + 2])
        assert gaps[n] == 0.5 * ((n + 2) * f2n2 - n * f2n)


def test_model_validation():
    with pytest.raises(ValueError, match="dimension"):
        OscillatorModel(1, harmonic_deformation())
