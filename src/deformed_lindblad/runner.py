"""Scenario orchestration: config parsing, evolution runs, CSV outputs.

A scenario builds a Morse ladder, prepares one of the initial states (docs,
aocs, even_cat, or a user-supplied density matrix), relaxes it against the
thermal reservoir, and records occupation series plus one Wigner grid per
sample time.  Outputs are plain CSV so any plotting tool can consume them;
identical configs produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .coherent_states import (
    alpha_for_mean_n,
    aocs,
    docs_from_alpha,
    even_cat,
    mean_excitation,
    to_density,
)
from .dissipator import (
    DEFAULT_GAMMA_SCALE,
    IntegrationError,
    ReservoirParams,
    integrate,
    purity,
    rate_table,
    validate_density,
)
from .morse import MorseParams, eta_values, morse_model
from .phasespace import GridSpec, WignerGrid, wigner_closed, wigner_diagnostics

__all__ = [
    "ConfigError",
    "SimulationConfig",
    "SampleRecord",
    "ScenarioResult",
    "parse_config",
    "run_scenario",
    "write_outputs",
]

SCENARIOS = ("docs", "aocs", "even_cat", "custom_rho")

DEFAULT_T_SAMPLES = {
    "docs": (0.0, 1.0, 2.0, 4.0),
    "aocs": (0.0, 1.0, 2.0, 4.0),
    "even_cat": (0.0, 0.2, 1.0, 2.5),
    "custom_rho": (0.0, 1.0, 2.0, 4.0),
}


class ConfigError(ValueError):
    """Malformed, unknown, or ill-typed configuration input."""


@dataclass(frozen=True)
class SimulationConfig:
    n_bound: int = 15
    theta: float = 4.0
    gamma_scale: float = DEFAULT_GAMMA_SCALE
    scenario: str = "docs"
    target_mean_n: float = 2.0
    t_samples: tuple[float, ...] | None = None
    dt: float = 1e-3    # accepted and validated, unused: propagation is exact
    r_min: float = -2.0
    r_max: float = 10.0
    n_r: int = 121
    p_min: float = -6.0
    p_max: float = 6.0
    n_p: int = 121
    shifts_enabled: bool = False
    shift_cutoff: float | None = None
    rho_path: str | None = None
    output_dir: str = "."

    def resolved_t_samples(self) -> tuple[float, ...]:
        if self.t_samples is not None:
            return self.t_samples
        return DEFAULT_T_SAMPLES[self.scenario]

    def morse_params(self) -> MorseParams:
        return MorseParams(n_bound=self.n_bound)

    def reservoir(self) -> ReservoirParams:
        return ReservoirParams(
            theta=self.theta,
            gamma_scale=self.gamma_scale,
            shifts_enabled=self.shifts_enabled,
            shift_cutoff=self.shift_cutoff,
        )

    def grid(self) -> GridSpec:
        return GridSpec(
            r_min=self.r_min, r_max=self.r_max, n_r=self.n_r,
            p_min=self.p_min, p_max=self.p_max, n_p=self.n_p,
        )

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario '{self.scenario}' (choose from {', '.join(SCENARIOS)})"
            )
        try:
            self.morse_params()
            self.reservoir()
            self.grid()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # the alpha solver reaches means in [0, n_bound - 1) only
        if self.scenario != "custom_rho" and not 0.0 <= self.target_mean_n < self.n_bound - 1:
            raise ConfigError(
                f"target_mean_n must be finite and in [0, {self.n_bound - 1}), "
                f"got {self.target_mean_n}"
            )
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        samples = self.resolved_t_samples()
        if not samples:
            raise ConfigError("t_samples must contain at least one time")
        if not all(0 <= t < math.inf for t in samples) or list(samples) != sorted(samples):
            raise ConfigError(f"t_samples must be finite, sorted and non-negative: {samples}")
        # sorted samples put any two that share a file name side by side
        names = [_snapshot_name(t) for t in samples]
        for earlier, later in zip(names, names[1:]):
            if earlier == later:
                raise ConfigError(f"t_samples {samples} write {later} more than once")
        if self.scenario == "custom_rho" and not self.rho_path:
            raise ConfigError("scenario custom_rho requires rho_path")


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_samples(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


_PARSERS = {
    "n_bound": int,
    "theta": float,
    "gamma_scale": float,
    "scenario": str,
    "target_mean_n": float,
    "t_samples": _parse_samples,
    "dt": float,
    "r_min": float,
    "r_max": float,
    "n_r": int,
    "p_min": float,
    "p_max": float,
    "n_p": int,
    "shifts_enabled": _parse_bool,
    "shift_cutoff": float,
    "rho_path": str,
    "output_dir": str,
}


def parse_config(source: str) -> SimulationConfig:
    """Parse a flat key = value document (one pair per line, '#' comments).

    Unknown keys and type mismatches are errors naming the line and key;
    missing keys take the documented defaults.
    """
    overrides: dict = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in overrides:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        try:
            overrides[key] = _PARSERS[key](value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(
                f"line {lineno}: bad value for '{key}': {value!r} ({exc})"
            ) from exc
    config = SimulationConfig(**overrides)
    config.validate()
    return config


@dataclass(frozen=True)
class SampleRecord:
    """Scalar series entry for one sample time."""

    time: float
    trace: float
    purity: float
    min_w: float
    populations: np.ndarray


@dataclass
class ScenarioResult:
    """Everything a scenario run produced, ready for write_outputs."""

    config: SimulationConfig
    metadata: dict[str, str]
    samples: list[SampleRecord] = field(default_factory=list)
    grids: list[WignerGrid] = field(default_factory=list)
    states: list[np.ndarray] = field(default_factory=list)


def _initial_state(config: SimulationConfig, params: MorseParams, model):
    """Build the scenario's initial density matrix and its metadata entries."""
    meta: dict[str, str] = {}
    if config.scenario == "custom_rho":
        try:
            rho = np.asarray(np.load(config.rho_path), dtype=complex)
        except (OSError, ValueError, EOFError) as exc:
            raise ConfigError(f"cannot load rho_path {config.rho_path}: {exc}") from exc
        if rho.shape != (model.dim, model.dim):
            raise ConfigError(
                f"rho from {config.rho_path} has shape {rho.shape}, "
                f"expected ({model.dim}, {model.dim})"
            )
        if not np.all(np.isfinite(rho)):
            raise ConfigError(f"rho from {config.rho_path} must be finite everywhere")
        try:
            validate_density(rho)
        except IntegrationError as exc:
            # unit trace and Hermiticity define a density matrix; a negative
            # eigenvalue stays numerical, judged against the abort floor
            if exc.invariant == "eigenvalue":
                raise
            raise ConfigError(
                f"rho_path {config.rho_path} is not a density matrix: {exc}"
            ) from exc
        return rho, meta

    target = config.target_mean_n
    if config.scenario == "docs":
        cap = (math.pi / 2 - 1e-9) / params.chi
        builder = lambda a, m: docs_from_alpha(a, params)
        alpha = alpha_for_mean_n(target, builder, model, alpha_max=cap)
        state = builder(alpha, model)
        meta["zeta"] = repr(math.tan(alpha * params.chi))
    elif config.scenario == "aocs":
        alpha = alpha_for_mean_n(target, aocs, model)
        state = aocs(alpha, model)
    else:
        alpha = alpha_for_mean_n(target, even_cat, model)
        state = even_cat(alpha, model)
    meta["alpha"] = repr(alpha)
    meta["initial_mean_n"] = f"{mean_excitation(state):.12g}"
    return to_density(state), meta


def run_scenario(config: SimulationConfig) -> ScenarioResult:
    """Run one scenario end to end; deterministic for identical configs."""
    config.validate()
    params = config.morse_params()
    model = morse_model(params)
    etas = eta_values(params)
    rates = rate_table(model, config.reservoir())
    rho0, state_meta = _initial_state(config, params, model)

    samples = config.resolved_t_samples()
    evolution = integrate(
        rho0, model, rates, etas,
        t_final=samples[-1], dt=config.dt, sample_times=samples,
    )

    grid_spec = config.grid()
    result = ScenarioResult(config=config, metadata={})
    for t, rho in zip(evolution.times, evolution.states):
        grid = wigner_closed(rho, params, grid_spec, time=t)
        diag = wigner_diagnostics(grid, rho)
        result.samples.append(
            SampleRecord(
                time=t,
                trace=float(np.trace(rho).real),
                purity=purity(rho),
                min_w=diag.min_w,
                populations=np.diag(rho).real.copy(),
            )
        )
        result.grids.append(grid)
        result.states.append(rho)

    meta = {name: _format_config_value(getattr(config, name)) for name in _PARSERS}
    meta["t_samples"] = ",".join(f"{t:g}" for t in samples)
    meta.update(state_meta)
    meta["chi"] = f"{params.chi:.12g}"
    meta["version"] = __version__
    meta["generator_note"] = (
        "downward gain terms carry the full sqrt((m+1)(n+1)) amplitude product; "
        "required for exact trace conservation"
    )
    meta["propagation"] = "exact (coherence-order blocks, expm)"
    for key, value in evolution.diagnostics.items():
        meta[key] = f"{value:.6e}"
    result.metadata = meta
    return result


def _format_config_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(f"{v:.12g}" for v in value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _snapshot_name(t: float) -> str:
    return f"wigner_t{t:g}.csv"


def write_outputs(result: ScenarioResult, out_dir: str | Path) -> list[tuple[str, int]]:
    """Write series.csv, one wigner_t{T}.csv per sample, and metadata.txt.

    Numbers are decimal text with 12 significant digits.  A Wigner CSV is
    one '%' template per (r, p) axis pair, "r,p,w" and then a line
    "{r},{p},%.12g" per grid point with p varying fastest, filled with the
    grid's values; grids on the same axes share it.  Returns the file
    manifest as (name, byte count) pairs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: list[tuple[str, int]] = []

    n_levels = result.config.n_bound
    header = ["t", "trace", "purity", "min_w"] + [f"p{i}" for i in range(n_levels)]
    lines = [",".join(header)]
    for record in result.samples:
        row = [record.time, record.trace, record.purity, record.min_w]
        row.extend(record.populations.tolist())
        lines.append(",".join(f"{value:.12g}" for value in row))
    manifest.append(_write_text(out / "series.csv", "\n".join(lines) + "\n"))

    templates: dict[tuple[bytes, bytes], str] = {}
    for grid in result.grids:
        key = (grid.r_axis.tobytes(), grid.p_axis.tobytes())
        if key not in templates:
            # formatted floats hold no '%', so only the value fields are live
            r_text = [f"{r:.12g}" for r in grid.r_axis.tolist()]
            p_text = [f"{p:.12g}" for p in grid.p_axis.tolist()]
            templates[key] = "r,p,w\n" + "".join(
                f"{r},{p},%.12g\n" for r in r_text for p in p_text
            )
        name = _snapshot_name(grid.time)
        content = templates[key] % tuple(grid.values.ravel().tolist())
        manifest.append(_write_text(out / name, content))

    meta_lines = [f"{key} = {value}" for key, value in sorted(result.metadata.items())]
    manifest.append(_write_text(out / "metadata.txt", "\n".join(meta_lines) + "\n"))
    return manifest


def _write_text(path: Path, content: str) -> tuple[str, int]:
    data = content.encode("utf-8")
    path.write_bytes(data)
    return path.name, len(data)
