"""The deformed ladder: how a level-dependent f(n) bends a harmonic spectrum.

Builds the Morse-like oscillator with 15 bound states, compares its spectrum
with the undeformed ladder, and runs the algebra self-test that checks the
ladder operators really are eigenoperators of the Hamiltonian.
"""

import numpy as np

from deformed_lindblad import (
    MorseParams,
    OscillatorModel,
    eigenoperator_residual,
    gap_frequencies,
    hamiltonian,
    harmonic_deformation,
    morse_energy,
    morse_model,
)

params = MorseParams(15)
model = morse_model(params)
harmonic = OscillatorModel(15, harmonic_deformation())

print(f"Morse-like ladder with N = {params.n_bound} bound states, "
      f"chi = 1/{params.k} = {params.chi:.5f}\n")

energies = np.diag(hamiltonian(model))
reference = np.diag(hamiltonian(harmonic))
gaps = gap_frequencies(model)

print(" n   E_n (deformed)   E_n (harmonic)   gap Omega(n)")
for n in range(params.n_bound):
    print(f"{n:2d}   {energies[n]:14.6f}   {reference[n]:14.6f}   {gaps[n]:12.6f}")

print("\nThe gaps shrink linearly, Omega(n) = 1 - 2 chi (n+1): the ladder")
print("compresses toward the dissociation limit instead of staying uniform.")

# spectrum identity: ladder Hamiltonian vs the closed-form Morse energies
shift = params.chi / 4.0
worst = max(
    abs(energies[n] - (morse_energy(params, n) - shift))
    for n in range(params.n_bound)
)
print(f"\nClosed-form Morse energies match the ladder spectrum to {worst:.2e}")
print(f"Eigenoperator residual (should be round-off): "
      f"{eigenoperator_residual(model):.2e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(5, 4))
    ax.hlines(energies, 0.1, 0.9, color="tab:blue", label="deformed")
    ax.hlines(reference, 1.1, 1.9, color="tab:gray", label="harmonic")
    ax.set_xticks([0.5, 1.5], ["Morse-like", "harmonic"])
    ax.set_ylabel("energy (units of Omega0)")
    ax.legend(loc="upper left")
    fig.tight_layout()
    fig.savefig("demo01_spectrum.png", dpi=150)
    print("\nWrote demo01_spectrum.png")
except ImportError:
    pass
