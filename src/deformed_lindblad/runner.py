"""Scenario orchestration: config parsing, evolution runs, CSV outputs.

A scenario builds a Morse ladder, prepares one of the initial states (docs,
aocs, even_cat, or a user-supplied density matrix), relaxes it against the
thermal reservoir, and keeps the state and its Wigner grid per sample time,
from which the occupation series is written.  Outputs are plain CSV so any
plotting tool can consume them; identical configs give byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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
    check_generator_shifts,
    integrate,
    purity,
    rate_table,
    validate_density,
)
from .morse import MorseParams, eta_values, morse_model
from .phasespace import GridSpec, WignerGrid, closed_form_window, wigner_closed

__all__ = [
    "ConfigError",
    "SimulationConfig",
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
    """One scenario run's settings, checked when built (dataclasses.replace
    included): a value outside what the run can do raises ConfigError."""

    n_bound: int = 15
    theta: float = 4.0
    gamma_scale: float = DEFAULT_GAMMA_SCALE
    scenario: str = "docs"
    target_mean_n: float = 2.0
    t_samples: tuple[float, ...] | None = None
    dt: float = 1e-3    # accepted and validated, unused: propagation is exact
    r_min: float = GridSpec.r_min
    r_max: float = GridSpec.r_max
    n_r: int = GridSpec.n_r
    p_min: float = GridSpec.p_min
    p_max: float = GridSpec.p_max
    n_p: int = GridSpec.n_p
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
            shift_cutoff=self.shift_cutoff,
        )

    def grid(self) -> GridSpec:
        return GridSpec(
            r_min=self.r_min, r_max=self.r_max, n_r=self.n_r,
            p_min=self.p_min, p_max=self.p_max, n_p=self.n_p,
        )

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario '{self.scenario}' (choose from {', '.join(SCENARIOS)})"
            )
        try:
            params = self.morse_params()
            reservoir = self.reservoir()
            closed_form_window(params, self.grid())
            if self.shift_cutoff is not None:
                check_generator_shifts(morse_model(params), reservoir, eta_values(params))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # the alpha solver reaches means in [0, n_bound - 1) only
        if self.scenario != "custom_rho" and not 0.0 <= self.target_mean_n < self.n_bound - 1:
            raise ConfigError(
                f"target_mean_n must be finite and in [0, {self.n_bound - 1}), "
                f"got {self.target_mean_n}"
            )
        # even_cat populates even levels only: its mean is 0 (the vacuum) or
        # stays below the top even level
        if self.scenario == "even_cat" and self.target_mean_n > 0.0:
            top_even = 2 * ((self.n_bound - 1) // 2)
            if self.target_mean_n >= top_even:
                raise ConfigError(
                    f"even_cat target_mean_n must be below its top even level {top_even} "
                    f"(n_bound = {self.n_bound}), got {self.target_mean_n}"
                )
        if not 0 < self.dt < math.inf:
            raise ConfigError(f"dt must be finite and positive, got {self.dt}")
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


def _parse_samples(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


# each key is a SimulationConfig field, parsed by its annotation; a key
# annotated "| None" is None only by leaving it out
_TYPE_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "float | None": float,
    "str | None": str,
    "tuple[float, ...] | None": _parse_samples,
}
_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(SimulationConfig)}


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
    return SimulationConfig(**overrides)


@dataclass(frozen=True)
class ScenarioResult:
    """Everything a scenario run produced, ready for write_outputs: per
    sample time, the density matrix and its Wigner grid (which holds t)."""

    config: SimulationConfig
    metadata: dict[str, str]
    grids: list[WignerGrid]
    states: list[np.ndarray]


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
    grids = [
        wigner_closed(rho, params, grid_spec, time=t)
        for t, rho in zip(samples, evolution.states)
    ]

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
    return ScenarioResult(config=config, metadata=meta, grids=grids, states=evolution.states)


def _format_config_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(f"{v:.12g}" for v in value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _snapshot_name(t: float) -> str:
    return f"wigner_t{t:g}.csv"


def write_outputs(result: ScenarioResult, out_dir: str | Path) -> list[tuple[str, int]]:
    """Write series.csv, one wigner_t{T}.csv per sample, and metadata.txt.

    A series.csv row is computed from one state and its grid as the file
    is written: t, Tr rho (real part), Tr rho^2, the grid's minimum W and
    the populations diag(rho).

    Numbers are decimal text with 12 significant digits, byte for byte
    Python's "%.12g".  A Wigner CSV is "r,p,w" and then a line "{r},{p},{w}"
    per grid point with p varying fastest.  Its values are formatted by
    numpy (see `_wigner_csv`): every value with 1e-280 <= |w| < 1 that is
    not within 1e-3 of a 12-digit rounding tie, which is every nonzero
    Wigner value but about 0.2% of them, never reaches Python's '%'.  The
    header and "{r},{p}," prefix rows are built once per distinct axis pair
    in the call and kept only for it; each grid refills their value fields.
    Returns the file manifest as (name, byte count) pairs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: list[tuple[str, int]] = []

    n_levels = result.config.n_bound
    header = ["t", "trace", "purity", "min_w"] + [f"p{i}" for i in range(n_levels)]
    lines = [",".join(header)]
    for grid, rho in zip(result.grids, result.states):
        min_w = grid.values.flat[np.argmin(grid.values)]
        row = [grid.time, np.trace(rho).real, purity(rho), min_w, *np.diag(rho).real.tolist()]
        lines.append(",".join(f"{value:.12g}" for value in row))
    manifest.append(_write_bytes(out / "series.csv", ("\n".join(lines) + "\n").encode()))

    templates: dict[tuple[bytes, bytes], np.ndarray] = {}
    for grid in result.grids:
        key = tuple(np.asarray(axis, dtype=float).tobytes() for axis in (grid.r_axis, grid.p_axis))
        rows = templates.get(key)
        if rows is None:
            rows = templates[key] = _wigner_rows(grid)
        manifest.append(_write_bytes(out / _snapshot_name(grid.time), _wigner_csv(grid, rows)))

    meta_lines = [f"{key} = {value}" for key, value in sorted(result.metadata.items())]
    manifest.append(_write_bytes(out / "metadata.txt", ("\n".join(meta_lines) + "\n").encode()))
    return manifest


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of each group 0..9999 as one uint32 in memory
    order, in full and with the group's trailing zeros as NUL bytes."""
    groups = np.arange(10_000, dtype=np.uint16)[:, None]
    text = (groups // np.array([1000, 100, 10, 1], np.uint16) % 10 + ord("0")).astype(np.uint8)
    # digit j is a trailing zero when the group is a multiple of 10^(4 - j)
    trailing = groups % np.array([10_000, 1000, 100, 10], np.uint16) == 0
    stripped = np.where(trailing, np.uint8(0), text)
    return text.view(np.uint32).ravel(), stripped.view(np.uint32).ravel()


def _exponent_text(x: int) -> str:
    """The three leading-zero slots and the exponent field of a value whose
    decimal exponent is -x, NUL-padded to 8 bytes."""
    if x <= 4:  # "0.ddd" to "0.000ddd"
        return ("0" * (x - 1)).rjust(3, "\0") + "\0" * 5
    return "\0" * 3 + f"e-{x:02d}".ljust(5, "\0")


# Tables of the Wigner CSV's fast path: 10^k correctly rounded to float64
# for k = 0..292, the digit groups, and the fields of exponents -1..-281.
_POW10 = np.array([float(f"1e{k}") for k in range(293)])
_DIGITS4, _STRIPPED4 = _digit_tables()
_EXPONENT_BYTES = np.frombuffer(
    "".join(_exponent_text(x) for x in range(282)).encode(), dtype=np.uint64
)
# A value's field: sign, lead, '.', three zeros, d0, d1..d11, exponent, newline
_FIELD_WIDTH = 24


def _fixed_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fast-path predicate of the Wigner CSV and its 12 digits and exponents.

    Returns (fast, m, e): fast marks the values whose "%.12g" text is
    sign, 12 digits m in [1e11, 1e12) and decimal exponent e; m is 1e11
    where fast is False.  Python's '%' prints the 12-digit decimal nearest to
    the float (correctly rounded, after D. M. Gay, "Correctly rounded
    binary-decimal and decimal-binary conversions", 1990).  For 1e-280 <= |w|
    < 1 take e = floor(log10 |w|), in [-281, -1], and k = 11 - e <= 292.
    _POW10[k] is 10^k (1 + d1) and scaled = |w| _POW10[k] (1 + d2), |di| <=
    2^-53, so scaled is within 2.3e-4 of s = |w| 10^k.  If m = rint(scaled)
    is within 0.499 of scaled, s is within 0.4993 of m and is no tie, so m
    is s rounded to an integer.  scaled >= 1e11 puts s above 1e11 - 2.3e-4,
    where rounding at exponent e - 1 would carry to 10^e too, and m < 1e12
    leaves no carry into e + 1; so m and e are the digits and exponent '%'
    prints.  A floor(log10) off by one puts scaled below 1e11 or m at 1e12
    or above.  Such values fall back to '%', as do 0, |w| >= 1, subnormals,
    nan and inf; no step raises a floating-point warning on any input.
    """
    a = np.abs(values)
    fast = (a >= 1e-280) & (a < 1.0)
    a = np.where(fast, a, 0.5)
    e = np.floor(np.log10(a)).astype(np.intp)
    scaled = a * _POW10[11 - e]
    m = np.rint(scaled)
    fast &= (scaled >= 1e11) & (m < 1e12) & (np.abs(scaled - m) < 0.499)
    return fast, np.where(fast, m, 1e11), e


def _wigner_rows(grid: WignerGrid) -> np.ndarray:
    """The rows of a Wigner CSV on the grid's axes, value fields NUL.

    One fixed-width row of a uint8 matrix per line, absent bytes NUL: the
    header "r,p,w", then per grid point the "{r},{p}," prefix, broadcast
    from the axis texts, and `_FIELD_WIDTH` bytes for the value, last.
    """
    r_text = np.array([f"{r:.12g}," for r in np.asarray(grid.r_axis, float).tolist()], bytes)
    p_text = np.array([f"{p:.12g}," for p in np.asarray(grid.p_axis, float).tolist()], bytes)
    prefix = r_text.itemsize + p_text.itemsize
    rows = np.zeros((1 + r_text.size * p_text.size, prefix + _FIELD_WIDTH), dtype=np.uint8)
    rows[0, :6] = np.frombuffer(b"r,p,w\n", dtype=np.uint8)
    points = rows[1:].reshape(r_text.size, p_text.size, rows.shape[1])
    points[:, :, : r_text.itemsize] = r_text.view(np.uint8).reshape(r_text.size, 1, -1)
    points[:, :, r_text.itemsize : prefix] = p_text.view(np.uint8).reshape(1, p_text.size, -1)
    return rows


def _wigner_csv(grid: WignerGrid, rows: np.ndarray) -> bytes:
    """The bytes of one Wigner CSV, in rows from `_wigner_rows` on the
    grid's axes: the grid's `_value_fields` are copied into the rows once,
    and the file is the non-NUL bytes.  Every byte of each field is
    written, so rows shared by grids on one axis pair carry nothing from
    one grid to the next."""
    rows[1:, -_FIELD_WIDTH:] = _value_fields(np.asarray(grid.values, dtype=float).ravel()).T
    return rows.tobytes().translate(None, b"\0")


def _value_fields(values: np.ndarray) -> np.ndarray:
    """The "%.12g" text of each value and a newline, NUL-padded, as the
    columns of a contiguous (`_FIELD_WIDTH`, n) uint8 buffer, built one
    byte position (row) at a time.

    Below |w| = 1 "%.12g" has two layouts, "0.000ddd" for e >= -4 and
    "d.ddde-XX" below, so every byte has a fixed position; digits come from
    table lookups of three 4-digit groups.  Values outside the fast path
    (`_fixed_digits`) are formatted by one '%' call and scattered into
    their fields.
    """
    fast, m, e = _fixed_digits(values)
    high = np.floor(m / 1e8)
    middle = np.floor(m / 1e4)
    g0, g1, g2 = (g.astype(np.intp) for g in (high, middle - high * 1e4, m - middle * 1e4))
    # the last nonzero group and those after it lose their trailing zeros
    words = np.empty((values.size, 3), dtype=np.uint32)
    words[:, 0] = np.where((g1 == 0) & (g2 == 0), _STRIPPED4[g0], _DIGITS4[g0])
    words[:, 1] = np.where(g2 == 0, _STRIPPED4[g1], _DIGITS4[g1])
    words[:, 2] = _STRIPPED4[g2]
    digits = words.view(np.uint8)
    scientific = e < -4
    layout = _EXPONENT_BYTES[-e].view(np.uint8).reshape(-1, 8)
    field = np.empty((_FIELD_WIDTH, values.size), dtype=np.uint8)
    field[0] = np.where(values < 0, ord("-"), 0)
    field[1] = np.where(scientific, digits[:, 0], ord("0"))
    field[2] = np.where(scientific & (digits[:, 1] == 0), 0, ord("."))
    field[3:6] = layout[:, :3].T
    field[6] = np.where(scientific, 0, digits[:, 0])
    field[7:18] = digits[:, 1:].T
    field[18:23] = layout[:, 3:].T
    field[23] = ord("\n")

    slow = np.flatnonzero(~fast)
    text = ("%.12g\n" * slow.size % tuple(values[slow].tolist())).encode().split()
    width = _FIELD_WIDTH - 1
    field[:width, slow] = np.array(text, f"S{width}").view(np.uint8).reshape(slow.size, width).T
    return field


def _write_bytes(path: Path, data: bytes) -> tuple[str, int]:
    path.write_bytes(data)
    return path.name, len(data)
