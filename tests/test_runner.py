import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from deformed_lindblad import (
    ConfigError,
    GridSpec,
    IntegrationError,
    MorseParams,
    ReservoirParams,
    aocs,
    morse_model,
    parse_config,
    purity,
    rate_table,
    run_scenario,
    to_density,
    wigner_closed,
    write_outputs,
)
from deformed_lindblad.cli import main as cli_main
from deformed_lindblad.dissipator import HERMITICITY_TOL
from deformed_lindblad.phasespace import WignerGrid
from deformed_lindblad.runner import (
    _PARSERS,
    ScenarioResult,
    SimulationConfig,
    _fixed_digits,
    _wigner_csv,
    _wigner_rows,
)

FAST_GRID = "r_min = -2\nr_max = 10\nn_r = 31\np_min = -6\np_max = 6\nn_p = 31\n"


def with_fast_grid(lines):
    """The given config lines plus every FAST_GRID key they do not set."""
    keys = {line.split("=")[0].strip() for line in lines.splitlines()}
    grid = [line for line in FAST_GRID.splitlines() if line.split("=")[0].strip() not in keys]
    return lines + "\n" + "\n".join(grid) + "\n"


def fast_config(extra=""):
    return parse_config(
        "t_samples = 0, 0.2\ndt = 2e-3\n" + FAST_GRID + extra
    )


def test_defaults():
    config = parse_config("")
    assert config.n_bound == 15
    assert config.theta == 4.0
    assert config.scenario == "docs"
    assert config.resolved_t_samples() == (0.0, 1.0, 2.0, 4.0)
    assert config.gamma_scale == pytest.approx(4.0 / 3.0)


def test_readme_config_block_parses_to_defaults():
    # the README's "All keys and defaults" block is a valid config that
    # lists every key and sets each to its default; t_samples shows the
    # docs samples, which the default None resolves to per scenario
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("All keys and defaults", 1)[1].split("```")[1]
    listed = {line.lstrip("# ").split(" =")[0] for line in block.splitlines() if line}
    assert listed == set(_PARSERS)
    config = parse_config(block)
    defaults = SimulationConfig()
    for field in dataclasses.fields(SimulationConfig):
        if field.name != "t_samples":
            assert getattr(config, field.name) == getattr(defaults, field.name), field.name
    assert config.t_samples == defaults.resolved_t_samples()


def test_scenario_default_samples():
    config = parse_config("theta = 4.0\nscenario = even_cat")
    assert config.resolved_t_samples() == (0.0, 0.2, 1.0, 2.5)


def test_unknown_key_errors_with_line():
    with pytest.raises(ConfigError, match="line 1.*thetaa"):
        parse_config("thetaa = 4")


def test_malformed_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("theta = 4\njust some words")


def test_type_mismatch_names_key():
    with pytest.raises(ConfigError, match="line 1.*n_bound"):
        parse_config("n_bound = twelve")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("theta = 4\ntheta = 5")


def test_comments_and_blanks_ignored():
    config = parse_config("# leading comment\n\n theta = 2.5 # trailing\n")
    assert config.theta == 2.5


def test_validation_catches_bad_samples():
    with pytest.raises(ConfigError, match="sorted"):
        parse_config("t_samples = 1.0, 0.5")
    with pytest.raises(ConfigError, match="dt"):
        parse_config("dt = 0")
    with pytest.raises(ConfigError, match="theta must be positive, got 0.0"):
        parse_config("theta = 0")
    with pytest.raises(ConfigError, match="scenario"):
        parse_config("scenario = quench")
    with pytest.raises(ConfigError, match="unknown key 'shifts_enabled'"):
        parse_config("shifts_enabled = true")
    with pytest.raises(ConfigError, match="rho_path"):
        parse_config("scenario = custom_rho")
    for line in ("t_samples = ,", "t_samples ="):
        with pytest.raises(ConfigError, match="t_samples must contain at least one time"):
            parse_config(line)


def test_a_replaced_config_checks_itself():
    with pytest.raises(ConfigError, match="unknown scenario 'quench'"):
        dataclasses.replace(SimulationConfig(), scenario="quench")


@pytest.mark.parametrize("r_max", [709.0, 720.0, 800.0])
def test_window_past_the_closed_forms_reach_is_config_error(tmp_path, capsys, r_max):
    # the closed form sizes its Bessel tail at xi = 31 e^(-r_max) in
    # float64: cosh overflows past r_max = 708 at n_bound = 15, and xi
    # underflows to 0 past 748; both are refused before any run
    config_path = tmp_path / "far.cfg"
    config_path.write_text(f"n_r = 5\nn_p = 5\nt_samples = 0\nr_max = {r_max}\n")
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(config_path), "--output-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert f"config error: r_max = {r_max} is out of the closed form's reach" in err
    assert "xi = 31 e^(-r_max)" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("r_min", [-40.0, -700.0])
def test_window_past_the_node_budget_is_config_error(tmp_path, capsys, r_min):
    # the closed form's trapezoid step shrinks as xi = 31 e^(-r_min) grows;
    # a window whose nodes pass the quadrature budget is refused before any
    # run
    config_path = tmp_path / "wide.cfg"
    config_path.write_text(f"n_r = 5\nn_p = 5\nt_samples = 0\nr_min = {r_min}\n")
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(config_path), "--output-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert f"config error: r_min = {r_min} and |p| <= 6 are out of the closed form's reach" in err
    assert "xi = 31 e^(-r_min)" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "lines, plan",
    [
        ("n_bound = 200", "N = 200 on n_r = 121 r points and 61 distinct |b| would take 8731217600 bytes"),
        ("n_r = 4001\nn_p = 4001", "N = 15 on n_r = 4001 r points and 2001 distinct |b| would take 7694700720 bytes"),
    ],
)
def test_plan_past_the_byte_budget_is_config_error(tmp_path, capsys, lines, plan):
    # the closed-form plan would take 8.7e9 bytes (xi coefficients at
    # N = 200) or 7.7e9 (two Bessel tensor levels on 4001 x 4001); both are
    # refused before any run
    config_path = tmp_path / "big.cfg"
    config_path.write_text(f"t_samples = 0\n{lines}\n")
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(config_path), "--output-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert f"config error: the closed-form plan for {plan}, past its 1024 MiB budget" in err
    assert not out_dir.exists()


def test_huge_n_r_is_refused_before_its_r_axis():
    # the plan-bytes check reads n_r as an integer: n_r = 10^9 (8 GB of r
    # axis in float64) is refused by the config and by wigner_closed before
    # any array of n_r points exists
    grid = GridSpec(n_r=10**9)
    rho = np.zeros((15, 15), dtype=complex)
    rho[0, 0] = 1.0
    refusals = [
        (ConfigError, lambda: SimulationConfig(n_r=10**9)),
        (ValueError, lambda: wigner_closed(rho, MorseParams(15), grid)),
    ]
    for error, call in refusals:
        tracemalloc.start()
        try:
            with pytest.raises(error, match=r"on n_r = 1000000000 r points"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_window_at_the_closed_forms_reach_runs(tmp_path):
    config_path = tmp_path / "far.cfg"
    config_path.write_text("n_r = 5\nn_p = 5\nt_samples = 0\nr_max = 708\n")
    assert cli_main(["run", "--config", str(config_path), "--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / "wigner_t0.csv").exists()


@pytest.mark.parametrize(
    "samples, name",
    [
        ("0, 1.0000001, 1.0000002", "wigner_t1.csv"),
        ("0, 1, 1", "wigner_t1.csv"),
        ("0, 2.5, 2.5000001, 4", "wigner_t2.5.csv"),
    ],
)
def test_snapshot_file_collision_rejected(samples, name):
    with pytest.raises(ConfigError, match=re.escape(name)):
        parse_config(f"t_samples = {samples}")


@pytest.mark.parametrize(
    "line, key",
    [
        ("t_samples = 0, nan", "t_samples"),
        ("t_samples = 0, inf", "t_samples"),
        ("gamma_scale = nan", "gamma_scale"),
        ("gamma_scale = inf", "gamma_scale"),
        ("shift_cutoff = nan", "shift_cutoff"),
        ("shift_cutoff = inf", "shift_cutoff"),
        ("p_max = inf", "p_max"),
        ("r_min = -inf", "r_min"),
        ("dt = nan", "dt"),
        ("dt = inf", "dt"),
    ],
)
def test_cli_non_finite_input_is_config_error(tmp_path, capsys, line, key):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(with_fast_grid(line))
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(config_path), "--output-dir", str(out_dir)]) == 2
    assert re.search(f"{key}.* finite", capsys.readouterr().err)
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "lines",
    [
        "target_mean_n = nan",
        "target_mean_n = inf",
        "target_mean_n = -1",
        "n_bound = 2",
        "scenario = aocs\ntarget_mean_n = 14",
        "scenario = even_cat\nn_bound = 2",
    ],
)
def test_cli_unreachable_target_mean_is_config_error(tmp_path, capsys, lines):
    # the alpha solver reaches means in [0, n_bound - 1) only; anything else
    # is a bad input, not a numerical breach
    config_path = tmp_path / "run.cfg"
    config_path.write_text(with_fast_grid(lines))
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(config_path), "--output-dir", str(out_dir)]) == 2
    assert re.search(r"target_mean_n .*\[0, \d+\)", capsys.readouterr().err)
    assert not out_dir.exists()


def test_cold_reservoir_aborts_loudly():
    # the non-CP gain term's negativity grows as the reservoir cools and
    # crosses the abort floor on the default docs run; it must stop, naming
    # the eigenvalue and the time, rather than write outputs
    config = parse_config("theta = 20\n" + FAST_GRID)
    with pytest.raises(IntegrationError, match=r"negative eigenvalue -1\.01\de-02 .* at t = 1\.0") as exc:
        run_scenario(config)
    assert exc.value.time == 1.0


def test_run_scenario_docs_fast():
    config = fast_config()
    result = run_scenario(config)
    assert len(result.states) == 2
    assert len(result.grids) == 2
    assert purity(result.states[0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.trace(result.states[-1]).real - 1.0) < 1e-9
    assert "alpha" in result.metadata and "zeta" in result.metadata
    assert result.metadata["scenario"] == "docs"
    assert "generator_note" in result.metadata
    # every config key is echoed into the metadata
    from deformed_lindblad.runner import _PARSERS

    assert set(_PARSERS) <= set(result.metadata)
    mean0 = float(np.dot(np.arange(15), np.diag(result.states[0]).real))
    assert mean0 == pytest.approx(2.0, abs=1e-6)


def test_run_scenario_unitary_limit():
    config = fast_config("gamma_scale = 0\n")
    result = run_scenario(config)
    p0 = np.diag(result.states[0]).real
    p1 = np.diag(result.states[-1]).real
    assert np.max(np.abs(p1 - p0)) < 1e-12
    assert purity(result.states[-1]) == pytest.approx(1.0, abs=1e-12)


def test_run_scenario_custom_rho(tmp_path):
    rho = to_density(aocs(1.0, morse_model(MorseParams(15))))
    path = tmp_path / "rho.npy"
    np.save(path, rho)
    config = fast_config(f"scenario = custom_rho\nrho_path = {path}\n")
    result = run_scenario(config)
    assert purity(result.states[0]) == pytest.approx(1.0, abs=1e-10)
    assert "alpha" not in result.metadata


def test_custom_rho_within_hermiticity_tol_runs(tmp_path, rho_docs):
    # rho = h + i eps S with S real symmetric has anti-Hermitian residue
    # 2 eps max|S| below HERMITICITY_TOL: the density check on load and the
    # Wigner map's check on rho use the same measure and bound, so the run
    # goes through and the t = 0 map of the Hermitian part h is unchanged,
    # byte for byte.  Evolution mixes i eps S into the rounding of h's
    # coherences, so the evolved map agrees with h's to round-off only
    assert not np.any(rho_docs.imag)
    rng = np.random.default_rng(11)
    s = rng.normal(size=(15, 15))
    s = s + s.T
    eps = 1e-12
    assert 2 * eps * np.max(np.abs(s)) < HERMITICITY_TOL
    results = []
    for name, rho in (("h", rho_docs), ("skewed", rho_docs + 1j * eps * s)):
        np.save(tmp_path / f"{name}.npy", rho)
        config = fast_config(f"scenario = custom_rho\nrho_path = {tmp_path / name}.npy\n")
        results.append(run_scenario(config))
        write_outputs(results[-1], tmp_path / name)
    expected = (tmp_path / "h" / "wigner_t0.csv").read_bytes()
    assert (tmp_path / "skewed" / "wigner_t0.csv").read_bytes() == expected
    plain, skewed = (result.grids[-1].values for result in results)
    assert np.max(np.abs(skewed - plain)) < 1e-11 * np.max(np.abs(plain))


def test_custom_rho_shape_mismatch(tmp_path):
    path = tmp_path / "rho.npy"
    np.save(path, np.eye(4, dtype=complex) / 4)
    config = fast_config(f"scenario = custom_rho\nrho_path = {path}\n")
    with pytest.raises(ConfigError, match="shape"):
        run_scenario(config)


def test_write_outputs_schema(tmp_path):
    config = fast_config()
    result = run_scenario(config)
    manifest = write_outputs(result, tmp_path)
    names = [name for name, _ in manifest]
    assert names == ["series.csv", "wigner_t0.csv", "wigner_t0.2.csv", "metadata.txt"]
    assert all(size > 0 for _, size in manifest)

    series = (tmp_path / "series.csv").read_text().splitlines()
    header = series[0].split(",")
    assert header[:4] == ["t", "trace", "purity", "min_w"]
    assert len(header) == 4 + 15
    assert header[4] == "p0" and header[-1] == "p14"
    assert len(series) == 1 + 2

    wigner = (tmp_path / "wigner_t0.csv").read_text().splitlines()
    assert wigner[0] == "r,p,w"
    assert len(wigner) == 1 + 31 * 31
    # row-major: p varies fastest
    first = wigner[1].split(",")
    second = wigner[2].split(",")
    assert first[0] == second[0]
    assert first[1] != second[1]

    meta = (tmp_path / "metadata.txt").read_text()
    assert "n_bound = 15" in meta
    assert "alpha = " in meta


def test_series_rows_are_computed_from_the_states_and_grids(tmp_path):
    # each row is "%.12g" of t, Tr rho, Tr rho^2, the grid's minimum W and
    # the populations, for one state and its grid
    result = run_scenario(fast_config())
    write_outputs(result, tmp_path)
    rows = (tmp_path / "series.csv").read_text().splitlines()[1:]
    assert len(rows) == len(result.states) == len(result.grids)
    for row, grid, rho in zip(rows, result.grids, result.states):
        values = [grid.time, np.trace(rho).real, purity(rho), np.min(grid.values)]
        values += np.diag(rho).real.tolist()
        assert row == ",".join(f"{value:.12g}" for value in values)


def test_wigner_csv_matches_per_point_format(tmp_path):
    # pins the snapshot bytes to one f"{r},{p},{w}" line per grid point at
    # 12 significant digits, p varying fastest, on a non-square grid
    r_axis = np.array([-0.0, 1.5])
    p_axis = np.array([-2.0, 1e-13, 123456789012.345])
    values = np.array([[-0.0, 1e-13, 123456789012.345], [1e16, 0.123456789012, -7.5e-300]])
    result = ScenarioResult(
        config=SimulationConfig(), metadata={},
        grids=[WignerGrid(r_axis=r_axis, p_axis=p_axis, values=values, time=0.5)], states=[],
    )
    write_outputs(result, tmp_path)
    expected = ["r,p,w"] + [
        f"{r_axis[i]:.12g},{p_axis[j]:.12g},{values[i, j]:.12g}"
        for i in range(2) for j in range(3)
    ]
    assert (tmp_path / "wigner_t0.5.csv").read_bytes() == ("\n".join(expected) + "\n").encode()


def test_wigner_csv_template_per_axis_pair(tmp_path):
    # grids on two axis pairs, interleaved: one symmetric square pair, one
    # with the same r axis but an asymmetric, longer p axis.  Each file must
    # come from its own pair's template, byte for byte
    r_axis = np.array([-2.0, 0.5, 3.25])
    square_p = np.array([-1.5, 0.0, 1.5])
    skew_p = np.array([-0.75, 0.1, 2.0, 6.5])
    rng = np.random.default_rng(5)
    pairs = [(r_axis, square_p), (r_axis, skew_p), (r_axis, square_p), (r_axis, skew_p)]
    grids = [
        WignerGrid(r_axis=r, p_axis=p, values=rng.normal(size=(len(r), len(p))), time=t)
        for t, (r, p) in zip((0.0, 0.5, 1.0, 2.5), pairs)
    ]
    result = ScenarioResult(config=SimulationConfig(), metadata={}, grids=grids, states=[])
    write_outputs(result, tmp_path)
    for grid in grids:
        expected = ["r,p,w"] + [
            f"{r:.12g},{p:.12g},{grid.values[i, j]:.12g}"
            for i, r in enumerate(grid.r_axis) for j, p in enumerate(grid.p_axis)
        ]
        written = (tmp_path / f"wigner_t{grid.time:g}.csv").read_bytes()
        assert written == ("\n".join(expected) + "\n").encode()


def _percent_csv(grid):
    """The Wigner CSV written value by value with Python's '%'."""
    return ("r,p,w\n" + "".join(
        "%.12g,%.12g,%.12g\n" % (r, p, grid.values[i, j])
        for i, r in enumerate(grid.r_axis.tolist()) for j, p in enumerate(grid.p_axis.tolist())
    )).encode()


def _adversarial_values():
    rng = np.random.default_rng(24)
    powers = np.array([float(f"1e{k}") for k in range(-300, 300)])
    # floats within 1.5e-3 of a 12-digit rounding tie, in units of the 12th
    # digit, on both sides of the writer's 1e-3 guard
    mantissas = rng.integers(10**11, 10**12, size=1000).tolist()
    exponents = rng.integers(-290, 12, size=1000).tolist()
    offsets = ["4985", "4989", "499", "4991", "4995", "4999", "5", "5001", "5009", "501", "5015"]
    near_ties = [float(f"{d}.{o}e{x - 11}") for d, x in zip(mantissas, exponents) for o in offsets]
    # odd multiples of powers of two: many are exact binary ties, such as
    # 2^-18 = 3.814697265625e-6
    odd = np.arange(1, 200, 2, dtype=float)
    dyadic = (odd[:, None] * 2.0 ** -np.arange(1.0, 80.0)).ravel()
    edges = np.array([1e-280, 1e-281, 0.99999999999995, 9.99999999999995e-5, 0.5, 1.0])
    special = np.array([0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
                        1e-310, 123456789012.345, 1e16, 0.123456789012, -7.5e-300])
    mixed = 10.0 ** rng.uniform(-320, 308, size=10000) * rng.choice([-1.0, 1.0], size=10000)
    values = np.concatenate([
        powers, 0.5 * powers, edges, special, near_ties, dyadic, mixed,
        rng.uniform(0, 2.2250738585072014e-308, size=500),   # subnormals
        rng.uniform(-1e6, 1e6, size=500),
    ])
    values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    return np.concatenate([values, -values])


def test_wigner_csv_matches_percent_on_adversarial_values():
    # the numpy writer against Python's '%' on every layout and edge of its
    # fast path: powers of ten and their neighbours, values at and next to
    # 12-digit rounding ties, exact binary ties, the edges 1e-280 and 1,
    # zeros, subnormals, nan, inf, |w| >= 1 and a random mix over
    # 10^[-320, 308]; no floating-point exception may be raised on the way
    values = _adversarial_values()
    values = np.concatenate([values, np.zeros(-values.size % 50)]).reshape(-1, 50)
    r_axis = np.arange(len(values)) * 0.25 - 7.0
    grids = [
        WignerGrid(r_axis=r_axis, p_axis=np.linspace(-6, 6, 50), values=values),
        # every value falls back to '%'
        WignerGrid(r_axis=np.array([-1e300, 0.5]), p_axis=np.array([-0.0, 1e-5, 3.0]),
                   values=np.array([[0.0, -0.0, 1.0], [np.nan, -np.inf, 1e16]])),
    ]
    for grid in grids:
        with np.errstate(all="raise"):
            written = _wigner_csv(grid, _wigner_rows(grid))
        expected = _percent_csv(grid)
        if written != expected:
            bad = [(w, e) for w, e in zip(written.split(b"\n"), expected.split(b"\n")) if w != e]
            raise AssertionError(f"{len(bad)} lines differ, first {bad[:3]}")


def test_grids_sharing_prefix_rows_leak_no_field_bytes(tmp_path):
    # three grids on one axis pair in one call share its prefix rows: fast
    # values, then values that all fall back to '%' (shorter texts), then
    # fast values again.  Each file must be its own grid's '%' text, so no
    # field bytes carry over from one grid to the next
    r_axis = np.array([-2.0, 0.5, 3.25])
    p_axis = np.array([-1.5, 0.0, 1.5])
    rng = np.random.default_rng(11)
    fast = [rng.uniform(-0.3, 0.3, size=(3, 3)) * 10.0 ** -rng.integers(0, 12, size=(3, 3))
            for _ in range(2)]
    percent = np.array([[0.0, -0.0, 1.0], [np.nan, -np.inf, 1e16], [2.5, -7.0, 0.0]])
    grids = [WignerGrid(r_axis=r_axis, p_axis=p_axis, values=v, time=t)
             for t, v in zip((0.0, 1.0, 2.0), (fast[0], percent, fast[1]))]
    assert np.all(_fixed_digits(fast[0].ravel())[0]) and np.all(_fixed_digits(fast[1].ravel())[0])
    assert not np.any(_fixed_digits(percent.ravel())[0])
    write_outputs(ScenarioResult(config=SimulationConfig(), metadata={}, grids=grids, states=[]),
                  tmp_path)
    for grid in grids:
        assert (tmp_path / f"wigner_t{grid.time:g}.csv").read_bytes() == _percent_csv(grid)


@pytest.mark.parametrize("scenario", ["docs", "aocs", "even_cat"])
def test_wigner_values_take_the_fast_path(scenario):
    # the default snapshots are written almost wholly without '%' (0.22% of
    # their values fell back); a writer that sent every value to '%' would
    # keep its bytes and only read slower, so the share is pinned here
    result = run_scenario(parse_config(f"scenario = {scenario}"))
    fast = np.concatenate([_fixed_digits(grid.values.ravel())[0] for grid in result.grids])
    assert np.count_nonzero(~fast) <= 0.01 * fast.size


def test_outputs_are_deterministic(tmp_path):
    config = fast_config()
    first = tmp_path / "a"
    second = tmp_path / "b"
    write_outputs(run_scenario(config), first)
    write_outputs(run_scenario(config), second)
    for name in ("series.csv", "wigner_t0.csv", "wigner_t0.2.csv", "metadata.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_rewrite_matches_fresh_write(tmp_path):
    # the second write has shorter wigner files, so stale tail bytes from
    # the first would show unless each file is replaced in full
    samples = "t_samples = 0, 0.2\ndt = 2e-3\n"
    wide = run_scenario(parse_config(samples))
    narrow = run_scenario(parse_config(samples + "n_r = 9\nn_p = 9\n"))
    reused = tmp_path / "reused"
    fresh = tmp_path / "fresh"
    write_outputs(wide, reused)
    manifest = write_outputs(narrow, reused)
    assert manifest == write_outputs(narrow, fresh)
    assert sorted(p.name for p in reused.iterdir()) == sorted(
        p.name for p in fresh.iterdir()
    )
    for name, _ in manifest:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes()


def test_cli_run_and_exit_codes(tmp_path, capsys):
    config_path = tmp_path / "run.cfg"
    config_path.write_text("t_samples = 0\ndt = 1e-2\n" + FAST_GRID)
    out_dir = tmp_path / "out"
    code = cli_main(["run", "--config", str(config_path), "--output-dir", str(out_dir)])
    assert code == 0
    captured = capsys.readouterr()
    assert "series.csv" in captured.out
    assert (out_dir / "series.csv").exists()

    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 1")
    assert cli_main(["run", "--config", str(bad)]) == 2
    assert cli_main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2

    bad_scenario = cli_main(
        ["run", "--config", str(config_path), "--scenario", "quench"]
    )
    assert bad_scenario == 2


def test_cli_unwritable_output_dir_is_config_error(tmp_path, capsys, monkeypatch):
    # refused before the run: the run itself must not start
    def no_run(config):
        raise AssertionError("run_scenario called for an unwritable output directory")

    monkeypatch.setattr("deformed_lindblad.cli.run_scenario", no_run)
    config_path = tmp_path / "run.cfg"
    config_path.write_text("t_samples = 0\n" + FAST_GRID)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_dir = blocker / "out"
    assert cli_main(["run", "--config", str(config_path), "--output-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Not a directory" in err and str(out_dir) in err
    assert not out_dir.exists()


def test_cli_output_dir_without_write_access_is_config_error(tmp_path, capsys, monkeypatch):
    # a process running as root passes every permission check, so the
    # access check is denied here instead; the run must not start
    def no_run(config):
        raise AssertionError("run_scenario called for an unwritable output directory")

    monkeypatch.setattr("deformed_lindblad.cli.run_scenario", no_run)
    monkeypatch.setattr("deformed_lindblad.cli.os.access", lambda path, mode: False)
    config_path = tmp_path / "run.cfg"
    config_path.write_text("t_samples = 0\n" + FAST_GRID)
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(config_path), "--output-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert f"cannot write output directory {out_dir}: Permission denied: {tmp_path}" in err
    assert not out_dir.exists()


def test_cli_reads_the_config_as_utf8_with_or_without_a_bom(tmp_path, capsys):
    # a leading byte-order mark is not part of the first key; bytes that
    # are not UTF-8 are a config error naming the file, not a numerical one
    config_path = tmp_path / "bom.cfg"
    config_path.write_bytes(b"\xef\xbb\xbftheta = 4.0\nt_samples = 0\n" + FAST_GRID.encode())
    assert cli_main(["run", "--config", str(config_path), "--output-dir", str(tmp_path / "out")]) == 0
    latin = tmp_path / "latin.cfg"
    latin.write_bytes(b"# \xe9tat initial\nt_samples = 0\n" + FAST_GRID.encode())
    assert cli_main(["run", "--config", str(latin), "--output-dir", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert f"config error: config file {latin} is not UTF-8" in err
    assert not (tmp_path / "x").exists()


def test_cli_runs_a_tiny_target_mean(tmp_path):
    # the config accepts any target in [0, n_bound - 1), 1e-300 included
    config_path = tmp_path / "run.cfg"
    config_path.write_text("scenario = aocs\ntarget_mean_n = 1e-300\nt_samples = 0\n" + FAST_GRID)
    assert cli_main(["run", "--config", str(config_path), "--output-dir", str(tmp_path / "out")]) == 0


def test_shift_cutoff_below_the_top_gap_is_config_error(tmp_path, capsys):
    # shift_table needs the cutoff above every gap; the largest Morse gap
    # at n_bound = 15 is Omega(0) = 29/31
    with pytest.raises(ConfigError, match=r"shift_cutoff must exceed the largest gap 0\.935"):
        parse_config("shift_cutoff = 0.5")
    parse_config("shift_cutoff = 0.94")
    config_path = tmp_path / "run.cfg"
    config_path.write_text(with_fast_grid("shift_cutoff = 0.5"))
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(config_path), "--output-dir", str(out_dir)]) == 2
    assert "config error: shift_cutoff must exceed" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("cutoff", ["1e103", "1e154", "1e200"])
def test_a_cutoff_whose_shifts_overflow_is_config_error(tmp_path, capsys, cutoff):
    # delta4 grows like the cutoff cubed: past about 8.1e102 it is not
    # finite, and past about 1.34e154 the square alone overflows a float
    config_path = tmp_path / "run.cfg"
    config_path.write_text(with_fast_grid(f"scenario = aocs\nshift_cutoff = {cutoff}\nt_samples = 0"))
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(config_path), "--output-dir", str(out_dir)]) == 2
    assert f"config error: shift_cutoff {float(cutoff)} is too large" in capsys.readouterr().err
    assert not out_dir.exists()


def test_a_cutoff_whose_generator_overflows_is_config_error_without_warnings(tmp_path):
    # at 8e102 delta4 is finite but its products with g(n)^2 in the
    # generator are not: the config refuses it, and numpy prints nothing
    config_path = tmp_path / "run.cfg"
    config_path.write_text(with_fast_grid("scenario = aocs\nshift_cutoff = 8e102\nt_samples = 0"))
    out_dir = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "deformed_lindblad.cli", "run", "--config", str(config_path),
         "--output-dir", str(out_dir)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2
    assert "config error: shift_cutoff 8e+102 is too large: the generator's shift terms" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not out_dir.exists()


def test_cli_unreachable_even_cat_target_is_config_error(tmp_path, capsys):
    # even_cat populates even levels only: at n_bound = 10 its <n> stays
    # below 8, so 8 and 8.5 are refused as config (exit 2) before any solve
    for target in (8.0, 8.5):
        config_path = tmp_path / "cat.cfg"
        config_path.write_text(
            f"scenario = even_cat\nn_bound = 10\ntarget_mean_n = {target}\n"
            "t_samples = 0\n" + FAST_GRID
        )
        assert cli_main(["run", "--config", str(config_path)]) == 2
        assert "top even level 8" in capsys.readouterr().err
    for n_bound, target in ((2, 0.5), (12, 10.5)):
        with pytest.raises(ConfigError, match="top even level"):
            SimulationConfig(scenario="even_cat", n_bound=n_bound, target_mean_n=target)
    # below the top even level, and the vacuum at n_bound = 2, still validate
    SimulationConfig(scenario="even_cat", n_bound=10, target_mean_n=7.9)
    SimulationConfig(scenario="even_cat", n_bound=2, target_mean_n=0.0)


def test_cli_numerical_breach_exit_code(tmp_path):
    # a unit-trace Hermitian matrix with a negative eigenvalue fails the
    # density invariants on load, which is a numerical error (exit 3)
    rho = np.zeros((15, 15), dtype=complex)
    rho[0, 0] = 1.2
    rho[1, 1] = -0.2
    path = tmp_path / "bad_rho.npy"
    np.save(path, rho)
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        "scenario = custom_rho\nrho_path = "
        + str(path)
        + "\nt_samples = 0\ndt = 1e-2\n"
        + FAST_GRID
    )
    assert cli_main(["run", "--config", str(config_path)]) == 3


def test_cli_unloadable_rho_path_is_config_error(tmp_path, capsys):
    empty = tmp_path / "empty.npy"
    empty.write_bytes(b"")
    for path in (tmp_path / "absent.npy", empty):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(
            f"scenario = custom_rho\nrho_path = {path}\nt_samples = 0\n" + FAST_GRID
        )
        assert cli_main(["run", "--config", str(config_path)]) == 2
        assert f"cannot load rho_path {path}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, delta, message",
    [
        ((2, 5), np.nan, "rho from {path} must be finite"),
        ((0, 0), 1.0, "rho_path {path} is not a density matrix: trace drift"),
        ((2, 5), 1e-2j, "rho_path {path} is not a density matrix: Hermiticity deviation"),
    ],
    ids=["nan", "trace-2", "non-hermitian"],
)
def test_cli_non_finite_rho_is_config_error(tmp_path, capsys, entry, delta, message):
    # a loaded matrix that is not a density matrix is bad input (exit 2); a
    # negative eigenvalue stays numerical (test_cli_numerical_breach_exit_code)
    rho = to_density(aocs(1.0, morse_model(MorseParams(15))))
    rho[entry] += delta
    path = tmp_path / "rho.npy"
    np.save(path, rho)
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        f"scenario = custom_rho\nrho_path = {path}\nt_samples = 0\n" + FAST_GRID
    )
    assert cli_main(["run", "--config", str(config_path)]) == 2
    assert message.format(path=path) in capsys.readouterr().err


def test_cli_selftest_rejected(capsys):
    # the invariant suite is pytest; there is no selftest subcommand
    with pytest.raises(SystemExit) as exc:
        cli_main(["selftest"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


ROOT = Path(__file__).resolve().parents[1]


def run_fresh_python(code, cwd):
    """Stdout of ``code`` run in a new interpreter that imports the package from src."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def scipy_modules(listing):
    return {name for name in listing.split() if name.split(".")[0] == "scipy"}


def test_import_and_default_scenarios_load_no_scipy(tmp_path):
    # the package needs numpy only, with the frequency shifts on as well
    listing = "import sys; print('\\n'.join(sorted(sys.modules)))"
    package = run_fresh_python(
        "from deformed_lindblad import parse_config, run_scenario\n"
        "from deformed_lindblad import MorseParams, ReservoirParams, morse_model, rate_table\n"
        "for name in ('docs', 'aocs', 'even_cat'):\n"
        "    run_scenario(parse_config(f'scenario = {name}\\nn_r = 9\\nn_p = 9\\n'))\n"
        "rate_table(morse_model(MorseParams(15)), ReservoirParams(theta=4.0, shift_cutoff=40.0))\n"
        + listing,
        tmp_path,
    )
    assert "deformed_lindblad" in package.split()
    assert sorted(scipy_modules(package)) == []


def test_shift_table_from_a_cold_process_matches(tmp_path):
    # a process whose first table has the shifts on must build the same
    # deltas as one that has built other tables before
    run_fresh_python(
        "import numpy as np\n"
        "from deformed_lindblad import MorseParams, ReservoirParams, morse_model, rate_table\n"
        "table = rate_table(morse_model(MorseParams(15)), ReservoirParams(\n"
        "    theta=4.0, gamma_scale=0.5, shift_cutoff=40.0))\n"
        "np.save('deltas.npy', np.stack([table.delta1, table.delta2, table.delta3, table.delta4]))\n",
        tmp_path,
    )
    table = rate_table(
        morse_model(MorseParams(15)),
        ReservoirParams(theta=4.0, gamma_scale=0.5, shift_cutoff=40.0),
    )
    cold = np.load(tmp_path / "deltas.npy")
    for got, want in zip(cold, (table.delta1, table.delta2, table.delta3, table.delta4)):
        assert np.array_equal(got, want)
