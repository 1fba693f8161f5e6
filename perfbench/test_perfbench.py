"""Tests of the benchmark itself: python -m pytest perfbench"""

import math
from dataclasses import replace
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from deformed_lindblad import dissipator, runner
from deformed_lindblad.runner import SimulationConfig

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SMALL = SimulationConfig(n_r=9, n_p=9, t_samples=(0.0, 0.1))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_zero_is_the_config_defaults(workload):
    defaults = SimulationConfig()
    for cases in islice(workloads.passes(workload, 0), 2):
        for case in cases:
            assert (case.theta, case.target_mean_n) == (defaults.theta, defaults.target_mean_n)
            if case.config is not None:
                assert case.config.theta == defaults.theta
                assert case.config.target_mean_n == defaults.target_mean_n
                assert case.config.gamma_scale == defaults.gamma_scale
                assert case.config.dt == defaults.dt
    if workload == "figures":
        first = next(workloads.passes(workload, 0))
        assert [c.config for c in first] == [
            replace(defaults, scenario=name) for name in ("docs", "aocs", "even_cat")
        ]


def test_other_seeds_draw_in_range_and_repeat():
    a = list(islice(workloads.passes("figures", 7), 4))
    b = list(islice(workloads.passes("figures", 7), 4))
    assert a == b
    drawn = [case for cases in a for case in cases]
    assert len({case.theta for case in drawn}) == len(drawn)
    for case in drawn:
        assert workloads.THETA_RANGE[0] <= case.theta <= workloads.THETA_RANGE[1]
        assert workloads.TARGET_RANGE[0] <= case.target_mean_n <= workloads.TARGET_RANGE[1]
        assert (case.config.theta, case.config.target_mean_n) == (case.theta, case.target_mean_n)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        tracing.Span("bench.case", 0.0, 10.0, None, "c"),
        tracing.Span("runner.run_scenario", 1.0, 4.0, 0, "c"),
        tracing.Span("phasespace.wigner_closed", 2.0, 3.0, 1, "c"),
        tracing.Span("runner.write_outputs", 5.0, 6.5, 0, "c"),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0), (9.0, 12.0)]) == pytest.approx(6.0)


def test_gate_rejects_a_perturbed_wigner_grid(tmp_path):
    golden = workloads.load_golden(ROOT)
    case = workloads.Case("docs", "scenario", 4.0, 2.0, SMALL)
    output, _ = workloads.run_case(workloads.library(), case, tmp_path)
    verdict = workloads.gate(case, output, golden)
    assert verdict["ok"] and verdict["oracle_err"] < 1e-9

    values = output.grids[-1].values
    values += 1e-5 * np.max(np.abs(values))
    verdict = workloads.gate(case, output, golden)
    assert not verdict["ok"]
    assert verdict["oracle_err"] == pytest.approx(1e-5, rel=1e-3)


def test_oracle_subgrid_points_lie_on_the_grid():
    grid = SimulationConfig().grid()
    sub, stride_r, stride_p = workloads.oracle_subgrid(grid)
    r, p = grid.axes()
    r_sub, p_sub = sub.axes()
    assert np.allclose(r[::stride_r], r_sub, rtol=0, atol=1e-14)
    assert np.allclose(p[::stride_p], p_sub, rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        workloads.oracle_subgrid(replace(grid, n_r=120))


def test_traced_and_untraced_runs_write_identical_csvs(tmp_path):
    case = workloads.Case("docs", "scenario", 4.0, 2.0, SMALL, write=True)
    _, plain_bytes = workloads.run_case(workloads.library(), case, tmp_path / "plain")

    tracer = tracing.Tracer()
    originals = (runner.wigner_closed, dissipator.validate_density)
    with tracer.installed():
        _, traced_bytes = workloads.run_case(workloads.library(tracer), case, tmp_path / "traced")
    assert (runner.wigner_closed, dissipator.validate_density) == originals

    names = {s.name for s in tracer.spans}
    assert {"runner.run_scenario", "phasespace.wigner_closed",
            "dissipator.validate_density", "runner.write_outputs"} <= names
    plain = sorted((tmp_path / "plain" / "docs").iterdir())
    traced = sorted((tmp_path / "traced" / "docs").iterdir())
    assert [f.name for f in plain] == [f.name for f in traced]
    assert any(f.suffix == ".csv" for f in plain)
    for a, b in zip(plain, traced):
        assert a.read_bytes() == b.read_bytes()
    assert plain_bytes == traced_bytes > 0


def test_relaxation_gate_matches_golden_at_seed_zero(tmp_path):
    golden = workloads.load_golden(ROOT)
    case = next(workloads.passes("relaxation", 0))[0]
    output, _ = workloads.run_case(workloads.library(), case, tmp_path)
    verdict = workloads.gate(case, output, golden)
    assert verdict["ok"]
    assert verdict["golden_err"] < 1e-6 and verdict["balance_err"] < 1e-6
    assert math.isclose(output.purities["aocs"][0], 1.0)


def test_passes_with_a_failed_case_are_not_timed():
    import worker

    ok = worker.PassRecord(cases=[], index=0, wall=2.0, errors=[None, None])
    failed = worker.PassRecord(cases=[], index=1, wall=0.1, errors=[None, "IntegrationError"])
    assert worker.timed([ok, failed, ok]) == [ok, ok]
    assert worker.timed([failed]) == [failed]


def test_end_to_end_divides_each_case_by_its_calibration():
    import worker

    records = [
        worker.PassRecord(cases=[], index=0, case_walls=[2.0, 6.0], case_cpus=[1.0, 3.0],
                          case_cals=[0.5, 2.0], errors=[None, None]),
        worker.PassRecord(cases=[], index=1, case_walls=[4.0, 3.0], case_cpus=[4.0, 3.0],
                          case_cals=[1.0, 1.0], errors=[None, None]),
        worker.PassRecord(cases=[], index=2, case_walls=[0.1], case_cpus=[0.1],
                          case_cals=[1.0], errors=["IntegrationError"]),
    ]
    metrics = worker.end_to_end(records)
    assert metrics["wall_cal"] == (pytest.approx(7.0), "cal")       # median of 4 + 3, 4 + 3
    assert metrics["case_cal_p50"] == (pytest.approx(3.5), "cal")   # median of 4, 3, 4, 3
    assert metrics["cpu_cal"] == (pytest.approx(5.25), "cal")       # median of 2 + 1.5, 4 + 3


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_has_a_calibration_loop(workload):
    import worker

    assert worker.Calibration(workloads.CALIBRATION[workload]).run() > 0.0


def test_setup_time_is_scaled_to_the_nominal_calibration():
    import run

    nominal = run.NOMINAL_CALIBRATION_S
    # A machine at half speed takes twice as long for both; the scaled time is unchanged.
    assert run.setup_seconds([1.0, 2.0, 0.9], [nominal, 2 * nominal, nominal]) == pytest.approx(1.0)


def test_draw_ranges_stop_short_of_the_known_aocs_abort(tmp_path):
    """Just outside the draw ranges the library still aborts (ROADMAP item 4a).

    The ranges exclude this region only because a workload must not fail.
    When this test fails the defect is fixed, and the ranges should widen.
    """
    assert workloads.THETA_RANGE[1] < 4.5 and workloads.TARGET_RANGE[1] < 2.45
    case = workloads.Case("relaxation", "relaxation", 4.5, 2.45)
    with pytest.raises(dissipator.IntegrationError):
        workloads.run_case(workloads.library(), case, tmp_path)
