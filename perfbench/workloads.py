"""Workload inputs, the cases they run, and the correctness gate.

Every workload is a list of cases run one after another from one process
(a closed loop with a single client).  One pass runs each case once; each
pass draws fresh inputs from the seed's generator, so a run averages over
several draws.  Seed 0 is the paper's defaults on every pass.

* ``figures``: ``run_scenario`` + ``write_outputs`` for docs, aocs and
  even_cat at N = 15 on the 121 x 121 grid, four snapshots each.  Wigner
  maps dominate; each (params, grid) pair is evaluated at several times.
* ``relaxation``: the thermal-relaxation study (rate table, three alpha
  solves, three propagations to t = 4, steady state).  No Wigner call, so
  the dissipator dominates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator

import numpy as np

from deformed_lindblad import coherent_states, dissipator, morse, phasespace, runner
from deformed_lindblad.dissipator import IntegrationError, ReservoirParams
from deformed_lindblad.morse import MorseParams
from deformed_lindblad.phasespace import BesselAccuracyError, GridSpec
from deformed_lindblad.runner import SimulationConfig

WORKLOADS = ("figures", "relaxation")
# The calibration loop (see worker.Calibration) that resembles the work
# each workload spends its time on: Wigner maps, or propagation.
CALIBRATION = {"figures": "bessel", "relaxation": "propagation"}

# Draw ranges for seeds other than 0: a tenth either side of the defaults.
# Inside them every case returns, and the time per case measured at the
# corners agrees with the centre within the machine's noise, so seeds differ
# in their inputs but not in the work a run times.  They stop short of the
# aocs IntegrationError above theta ~4.2 with target_mean_n ~2.35.
THETA_RANGE = (3.6, 4.4)
TARGET_RANGE = (1.8, 2.2)

RELAXATION_TIMES = (0.0, 0.2, 0.5, 1.0, 1.5, 2.0, 2.5, 4.0)
RELAXATION_STATES = ("aocs", "docs", "even_cat")

ORACLE_POINTS = 5             # oracle sub-grid is ORACLE_POINTS^2 snapshot points
ORACLE_RTOL = 1e-6            # relative to max |W| of the snapshot
BALANCE_RTOL = 1e-6           # steady populations vs detailed balance, per level
GOLDEN_TOL = 1e-6
GOLDEN_TIMES = (0.2, 1.0, 2.5)

# Failures the library raises by design when a computation leaves its
# validated envelope; they count as failed cases, not as wrong output.
NUMERICAL_ERRORS = (BesselAccuracyError, IntegrationError)


@dataclass(frozen=True)
class Case:
    """One unit of work: a scenario config, or one relaxation study."""

    case_id: str
    kind: str                     # "scenario" or "relaxation"
    theta: float
    target_mean_n: float
    config: SimulationConfig | None = None
    write: bool = False

    def inputs(self) -> dict:
        record = {"case": self.case_id, "theta": self.theta,
                  "target_mean_n": self.target_mean_n}
        if self.config is not None:
            record["n_bound"] = self.config.n_bound
        return record


def _templates(workload: str) -> list[Case]:
    base = SimulationConfig()
    if workload == "figures":
        return [
            Case(name, "scenario", base.theta, base.target_mean_n,
                 replace(base, scenario=name), write=True)
            for name in ("docs", "aocs", "even_cat")
        ]
    if workload == "relaxation":
        return [Case("relaxation", "relaxation", base.theta, base.target_mean_n)]
    raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")


def passes(workload: str, seed: int) -> Iterator[list[Case]]:
    """Endless sequence of passes; the same seed gives the same sequence.

    Seed 0 repeats the SimulationConfig defaults.  Other seeds draw theta and
    target_mean_n uniformly for every case of every pass, in a fixed order.
    """
    templates = _templates(workload)
    rng = np.random.default_rng(seed)
    while True:
        if seed == 0:
            yield list(templates)
            continue
        drawn = []
        for case in templates:
            theta = float(rng.uniform(*THETA_RANGE))
            target = float(rng.uniform(*TARGET_RANGE))
            config = (
                None if case.config is None
                else replace(case.config, theta=theta, target_mean_n=target)
            )
            drawn.append(replace(case, theta=theta, target_mean_n=target, config=config))
        yield drawn


def library(tracer=None) -> SimpleNamespace:
    """The library entry points the workloads call, wrapped when tracing."""
    functions = dict(
        run_scenario=runner.run_scenario,
        write_outputs=runner.write_outputs,
        morse_model=morse.morse_model,
        eta_values=morse.eta_values,
        rate_table=dissipator.rate_table,
        integrate=dissipator.integrate,
        steady_state=dissipator.steady_state,
        alpha_for_mean_n=coherent_states.alpha_for_mean_n,
        aocs=coherent_states.aocs,
        docs_from_alpha=coherent_states.docs_from_alpha,
        even_cat=coherent_states.even_cat,
        to_density=coherent_states.to_density,
    )
    if tracer is not None:
        functions = {name: tracer.wrap(fn) for name, fn in functions.items()}
    return SimpleNamespace(**functions)


@dataclass
class RelaxationOutput:
    purities: dict[str, list[float]] = field(default_factory=dict)
    steady_populations: np.ndarray | None = None
    balance_populations: np.ndarray | None = None


def run_case(api: SimpleNamespace, case: Case, out_dir: Path) -> tuple[object, int]:
    """Run one case through ``api``; returns what the gate checks and the
    number of output bytes written."""
    if case.kind == "relaxation":
        return _relaxation(api, case), 0
    result = api.run_scenario(case.config)
    written = 0
    if case.write:
        manifest = api.write_outputs(result, out_dir / case.case_id)
        written = sum(size for _, size in manifest)
    return result, written


def _relaxation(api: SimpleNamespace, case: Case) -> RelaxationOutput:
    params = MorseParams(n_bound=SimulationConfig().n_bound)
    model = api.morse_model(params)
    etas = api.eta_values(params)
    rates = api.rate_table(model, ReservoirParams(theta=case.theta))
    cap = (math.pi / 2 - 1e-9) / params.chi
    builders = {
        "aocs": (api.aocs, None),
        "docs": (lambda a, m: api.docs_from_alpha(a, params), cap),
        "even_cat": (api.even_cat, None),
    }
    out = RelaxationOutput()
    for name in RELAXATION_STATES:
        builder, alpha_max = builders[name]
        alpha = api.alpha_for_mean_n(case.target_mean_n, builder, model, alpha_max=alpha_max)
        rho0 = api.to_density(builder(alpha, model))
        evolution = api.integrate(
            rho0, model, rates, etas, RELAXATION_TIMES[-1], 1e-3, RELAXATION_TIMES
        )
        out.purities[name] = [dissipator.purity(s) for s in evolution.states]
    steady = api.steady_state(model, rates, etas)
    out.steady_populations = np.diag(steady).real.copy()
    out.balance_populations = dissipator.detailed_balance_populations(rates)
    return out


def oracle_subgrid(grid: GridSpec) -> tuple[GridSpec, int, int]:
    """A coarse grid whose points all lie on ``grid``, and the index strides."""
    steps = ORACLE_POINTS - 1
    if (grid.n_r - 1) % steps or (grid.n_p - 1) % steps:
        raise ValueError(
            f"grid {grid.n_r} x {grid.n_p}: each axis needs a multiple of "
            f"{steps} intervals so the oracle points lie on the grid"
        )
    sub = replace(grid, n_r=ORACLE_POINTS, n_p=ORACLE_POINTS)
    return sub, (grid.n_r - 1) // steps, (grid.n_p - 1) // steps


def oracle_errors(result: runner.ScenarioResult) -> list[float]:
    """Per snapshot: max |closed - oracle| over the sub-grid, / max |W|."""
    config = result.config
    params = MorseParams(n_bound=config.n_bound)
    sub, stride_r, stride_p = oracle_subgrid(config.grid())
    errors = []
    for grid, rho in zip(result.grids, result.states):
        reference = phasespace.wigner_direct_oracle(rho, params, sub, time=grid.time)
        closed = grid.values[::stride_r, ::stride_p]
        scale = float(np.max(np.abs(grid.values)))
        errors.append(float(np.max(np.abs(closed - reference.values))) / scale)
    return errors


def load_golden(root: Path) -> dict:
    return json.loads((root / "tests" / "golden" / "purity_golden.json").read_text())


def gate(case: Case, output, golden: dict) -> dict:
    """Check one case's output; returns the errors measured and a verdict."""
    if case.kind == "scenario":
        errors = oracle_errors(output)
        return {"oracle_err": max(errors), "ok": max(errors) <= ORACLE_RTOL}
    steady, balance = output.steady_populations, output.balance_populations
    balance_err = float(np.max(np.abs(steady - balance) / balance))
    ok = balance_err <= BALANCE_RTOL
    defaults = SimulationConfig()
    if (case.theta, case.target_mean_n) == (defaults.theta, defaults.target_mean_n):
        golden_err = 0.0
        for name in RELAXATION_STATES:
            for t in GOLDEN_TIMES:
                got = output.purities[name][RELAXATION_TIMES.index(t)]
                want = golden["purity"][name][golden["t_samples"].index(t)]
                golden_err = max(golden_err, abs(got - want))
        ok = ok and golden_err <= GOLDEN_TOL
        return {"balance_err": balance_err, "golden_err": golden_err, "ok": ok}
    return {"balance_err": balance_err, "ok": ok}
