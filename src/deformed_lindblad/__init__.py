"""Damped dynamics of an f-deformed (Morse-like) oscillator.

Library layout:

* fock_algebra: truncated deformed ladder operators, Hamiltonian, gaps
* morse: Morse deformation, spectrum, coupling eta(n), wavefunctions
* coherent_states: aocs / docs / even_cat constructors and the mean-n solver
* dissipator: thermal rate tables, generator, propagation, steady state
* phasespace: Wigner maps (closed form and direct-integral oracle)
* runner: scenario configs, end-to-end runs, CSV outputs
"""

__version__ = "0.1.0"

from .coherent_states import (
    alpha_for_mean_n,
    aocs,
    docs,
    docs_from_alpha,
    even_cat,
    mean_excitation,
    to_density,
)
from .dissipator import (
    IntegrationError,
    ReservoirParams,
    detailed_balance_populations,
    integrate,
    mean_occupation,
    purity,
    rate_table,
    shift_table,
    steady_state,
)
from .fock_algebra import (
    DeformationFunction,
    OscillatorModel,
    eigenoperator_residual,
    gap_frequencies,
    hamiltonian,
    harmonic_deformation,
    ladder_pair,
)
from .morse import (
    MorseParams,
    dipole_element,
    eta,
    eta_values,
    morse_deformation,
    morse_energy,
    morse_model,
    morse_wavefunction,
)
from .phasespace import (
    BesselAccuracyError,
    GridSpec,
    bessel_k_complex_order,
    wigner_closed,
    wigner_diagnostics,
    wigner_direct_oracle,
)
from .runner import (
    ConfigError,
    parse_config,
    run_scenario,
    write_outputs,
)
