"""Nonlinear coherent states on the Morse ladder.

Constructs the three initial states used throughout (aocs, docs, even cat),
all tuned to the same mean excitation, and compares their occupation
distributions and their quality as approximate eigenstates of the deformed
lowering operator.
"""

import math

import numpy as np

from deformed_lindblad import (
    MorseParams,
    alpha_for_mean_n,
    aocs,
    docs_from_alpha,
    even_cat,
    ladder_pair,
    mean_excitation,
    morse_model,
)

params = MorseParams(15)
model = morse_model(params)
target = 2.0

alpha_a = alpha_for_mean_n(target, aocs, model)
cap = (math.pi / 2 - 1e-9) / params.chi
alpha_d = alpha_for_mean_n(
    target, lambda a, m: docs_from_alpha(a, params), model, alpha_max=cap
)
alpha_c = alpha_for_mean_n(target, even_cat, model)

states = {
    "aocs": aocs(alpha_a, model),
    "docs": docs_from_alpha(alpha_d, params),
    "even cat": even_cat(alpha_c, model),
}

print(f"All states solved for <n> = {target}:")
print(f"  aocs:     alpha = {alpha_a:.6f}")
print(f"  docs:     alpha = {alpha_d:.6f}  "
      f"(zeta = tan(alpha chi) = {math.tan(alpha_d * params.chi):.6f})")
print(f"  even cat: alpha = {alpha_c:.6f}\n")

print(" n   P(n) aocs   P(n) docs   P(n) cat")
for n in range(8):
    row = [abs(states[k][n]) ** 2 for k in states]
    print(f"{n:2d}   {row[0]:9.5f}   {row[1]:9.5f}   {row[2]:9.5f}")
print("(the cat populates even levels only)\n")

a_matrix, _ = ladder_pair(model)
for name, state in states.items():
    resid = np.linalg.norm(a_matrix @ state - alpha_a * state)
    mean = mean_excitation(state)
    print(f"{name:9s}: <n> = {mean:.6f}, lowering-eigenstate residual = {resid:.3f}")
print("\nOnly the aocs is built to be an approximate eigenstate of the")
print("lowering operator; the cat deliberately is not (it superposes +alpha")
print("and -alpha), which is what makes it fragile under damping.")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 3.5))
    n = np.arange(15)
    width = 0.27
    for i, (name, state) in enumerate(states.items()):
        ax.bar(n + (i - 1) * width, np.abs(state) ** 2, width, label=name)
    ax.set_xlabel("level n")
    ax.set_ylabel("P(n)")
    ax.set_xlim(-0.7, 9)
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo02_occupations.png", dpi=150)
    print("\nWrote demo02_occupations.png")
except ImportError:
    pass
