"""Child process of the benchmark: set up, then measure one workload.

Started by ``run.py`` from the root of a checkout, with the BLAS thread
count already fixed to one in its environment.  It imports the library from
``src/``, runs a small warm-up case that fills lazy caches, and prints
``READY``; the parent times the interval from process start to that line as
the set-up time.  It then runs the ``propagation`` calibration loop once and
prints ``CALIBRATION <seconds>``, the machine's speed at set-up.  With
``--role setup`` it stops there.  With ``--role measure`` it runs timed
passes of the workload, checks every case outside the timed region, and
prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import deformed_lindblad
from deformed_lindblad.runner import SimulationConfig

import tracing
import workloads

ROOT = Path.cwd()
WORK_DIR = ROOT / ".perfbench_out"

# Passes in which every case returned, needed before a run may stop, so
# that a single slow pass does not set the median.  A figures pass takes
# about 20 s, so a 45 s run measures exactly two.
MIN_PASSES = {"figures": 2, "relaxation": 3}
# No pass starts that would, at the median pass time so far, end past this,
# even if too few passes completed, so that the run ends within its time
# limit on a slow machine.  A traced run gives each half of it to one half.
PASS_BUDGET_S = 100.0

WARM_UP = SimulationConfig(n_r=9, n_p=9, t_samples=(0.0, 0.05))
# The calibration loop that set-up times are divided by.  Any of the loops
# tracks set-up; this one is the same for every workload.
SETUP_CALIBRATION = "propagation"


@dataclass(eq=False)
class PassRecord:
    cases: list
    index: int
    wall: float = 0.0                 # sum of the case wall times
    cpu: float = 0.0                  # sum of the case CPU times
    span: float = 0.0                 # wall time of the pass with its calibrations
    case_walls: list[float] = field(default_factory=list)
    case_cpus: list[float] = field(default_factory=list)
    case_cals: list[float] = field(default_factory=list)   # calibration time around each case
    outputs: list = field(default_factory=list)      # None where the case raised
    errors: list[str | None] = field(default_factory=list)
    bytes_written: int = 0
    first_span: int = 0
    last_span: int = 0


class Calibration:
    """A fixed loop whose time tracks the speed the machine gives this process.

    Each workload is calibrated with the kind of work it spends its time on.
    ``propagation`` runs small complex matrix products driven from Python, as
    ``integrate`` does; ``bessel`` evaluates long-double exponentials and
    contracts them with ``einsum``, as the Wigner Bessel tensor does.  The
    loop is the benchmark's own code, so no change to the library moves it.
    """

    def __init__(self, kind: str) -> None:
        rng = np.random.default_rng(12345)
        self.kind = kind
        self.step = (rng.standard_normal((15, 15)) + 1j * rng.standard_normal((15, 15))) / 15
        self.xi = np.linspace(0.5, 4.0, 12).astype(np.longdouble)
        self.t = np.linspace(0.0, 6.0, 240).astype(np.longdouble)
        self.d = np.arange(15).astype(np.longdouble)
        self.cos_b = np.cos(np.outer(np.linspace(0.0, 3.0, 60), self.t).astype(np.longdouble))

    def run(self) -> float:
        """Run the loop once; returns its wall time in seconds."""
        start = time.perf_counter()
        if self.kind == "propagation":
            rho = np.eye(15, dtype=complex)
            for _ in range(8000):
                rho = rho + 0.01 * (self.step @ rho - rho @ self.step.conj().T)
                rho /= np.trace(rho)
        elif self.kind == "bessel":
            for _ in range(24):
                base = -self.xi[:, None, None] * np.cosh(self.t)[None, None, :]
                shift = self.d[None, :, None] * self.t[None, None, :]
                even = 0.5 * (np.exp(base + shift) + np.exp(base - shift))
                np.einsum("xdt,bt->xbd", even, self.cos_b, optimize=False)
        else:
            raise ValueError(f"unknown calibration {self.kind!r}")
        return time.perf_counter() - start


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "blas_threads": blas_threads(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def check_library_source() -> None:
    origin = Path(deformed_lindblad.__file__).resolve()
    expected = (ROOT / "src" / "deformed_lindblad").resolve()
    if origin.parent != expected:
        raise SystemExit(f"deformed_lindblad imported from {origin}, not from {expected}")


def warm_up(out_dir: Path) -> None:
    api = workloads.library()
    result = api.run_scenario(WARM_UP)
    api.write_outputs(result, out_dir / "warm_up")


def run_passes(workload: str, seed: int, seconds: float, budget: float, out_dir: Path,
               tracer: tracing.Tracer | None = None) -> list[PassRecord]:
    """Closed loop: passes back to back until the next would overrun.

    The calibration loop runs before the first case and after every case, so
    each case has one calibration on either side; their mean is its
    ``case_cals`` entry.  Calibration time is not part of any case time.
    """
    api = workloads.library(tracer)
    calibration = Calibration(workloads.CALIBRATION[workload])
    records: list[PassRecord] = []
    elapsed = 0.0
    before = calibration.run()
    for index, cases in enumerate(workloads.passes(workload, seed)):
        good = completed(records)
        if len(good) >= MIN_PASSES[workload]:
            typical = statistics.median(r.span for r in good)
            if elapsed + typical > seconds:
                break
        if records and elapsed + statistics.median(r.span for r in records) > budget:
            break
        record = PassRecord(cases=cases, index=index)
        record.first_span = len(tracer.spans) if tracer else 0
        start = time.perf_counter()
        for case in cases:
            case_start = time.perf_counter()
            cpu0 = time.process_time()
            output, error, written = None, None, 0
            if tracer is not None:
                tracer.case = f"p{index}/{case.case_id}"
            try:
                with tracer.span(tracing.BENCH_LAYER + ".case") if tracer else nullcontext():
                    output, written = workloads.run_case(api, case, out_dir)
            except workloads.NUMERICAL_ERRORS as exc:
                error = f"{type(exc).__name__}: {exc}"
            record.case_walls.append(time.perf_counter() - case_start)
            record.case_cpus.append(time.process_time() - cpu0)
            record.outputs.append(output)
            record.errors.append(error)
            record.bytes_written += written
            after = calibration.run()
            record.case_cals.append(0.5 * (before + after))
            before = after
        record.wall = sum(record.case_walls)
        record.cpu = sum(record.case_cpus)
        record.span = time.perf_counter() - start
        record.last_span = len(tracer.spans) if tracer else 0
        elapsed += record.span
        records.append(record)
    return records


def completed(records: list[PassRecord]) -> list[PassRecord]:
    """Passes in which every case returned an output."""
    return [r for r in records if not any(r.errors)]


def timed(records: list[PassRecord]) -> list[PassRecord]:
    """The passes whose times are reported.

    A case that raised did not do the work of the pass, so its time is not
    comparable; failures are reported by fail_frac instead.  Only when no pass
    completed are all of them used.
    """
    return completed(records) or records


def gate_passes(records: list[PassRecord], golden: dict) -> list[list[dict]]:
    """Gate every case that returned; a case that raised is already failed."""
    verdicts = []
    for record in records:
        row = []
        for case, output, error in zip(record.cases, record.outputs, record.errors):
            row.append({"ok": False, "error": error} if error
                       else workloads.gate(case, output, golden))
        verdicts.append(row)
    return verdicts


def end_to_end(records: list[PassRecord]) -> dict:
    """Medians over the timed passes, in calibration units (``cal``).

    Each case time is divided by the calibration time around it, which
    cancels the drift of the machine's speed between and within runs.
    """
    records = timed(records)
    case_cal = [w / c for r in records for w, c in zip(r.case_walls, r.case_cals)]
    return {
        "wall_cal": (statistics.median(
            sum(w / c for w, c in zip(r.case_walls, r.case_cals)) for r in records), "cal"),
        "case_cal_p50": (statistics.median(case_cal), "cal"),
        "cpu_cal": (statistics.median(
            sum(u / c for u, c in zip(r.case_cpus, r.case_cals)) for r in records), "cal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def raw_times(records: list[PassRecord]) -> dict:
    """The same medians in seconds, as this machine ran them."""
    records = timed(records)
    cals = [c for r in records for c in r.case_cals]
    return {
        "wall_s": statistics.median(r.wall for r in records),
        "case_s_p50": statistics.median(w for r in records for w in r.case_walls),
        "cpu_s": statistics.median(r.cpu for r in records),
        "calibration_s": statistics.median(cals),
    }


def per_layer(traced: list[PassRecord], spans: list[tracing.Span],
              untraced_wall: float, verdicts: list[list[dict]]) -> dict:
    """Per-pass sums over the timed traced passes, reported as medians."""
    own = tracing.self_times(spans)
    rows = []
    wigner_calls = []
    for record in timed(traced):
        points = {
            f"p{record.index}/{case.case_id}": case.config.n_r * case.config.n_p
            for case in record.cases if case.config is not None
        }
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        layer_self: dict[str, float] = {}
        wigner_points = 0
        for i in range(record.first_span, record.last_span):
            span = spans[i]
            duration = span.end - span.start
            total[span.name] = total.get(span.name, 0.0) + duration
            calls[span.name] = calls.get(span.name, 0) + 1
            layer = tracing.layer_of(span.name)
            layer_self[layer] = layer_self.get(layer, 0.0) + own[i]
            if span.name == "phasespace.wigner_closed":
                wigner_points += points[span.case]
                wigner_calls.append(duration)
        wigner_s = total.get("phasespace.wigner_closed", 0.0)
        integrate_s = total.get("dissipator.integrate", 0.0)
        library_self = sum(v for k, v in layer_self.items() if k != tracing.BENCH_LAYER)
        rows.append({
            "phasespace.wigner_closed_calls": calls.get("phasespace.wigner_closed", 0),
            "phasespace.wigner_points_per_s": wigner_points / wigner_s if wigner_s else 0.0,
            "phasespace.wigner_diagnostics_s": total.get("phasespace.wigner_diagnostics", 0.0),
            "dissipator.integrate_s": integrate_s,
            "dissipator.integrate_s_per_t": integrate_s / simulated_time(record.cases),
            "dissipator.steady_state_s": total.get("dissipator.steady_state", 0.0),
            "dissipator.rate_table_s": total.get("dissipator.rate_table", 0.0),
            "dissipator.validate_density_s": total.get("dissipator.validate_density", 0.0),
            "dissipator.validate_density_calls": calls.get("dissipator.validate_density", 0),
            "coherent_states.alpha_for_mean_n_s": total.get("coherent_states.alpha_for_mean_n", 0.0),
            "coherent_states.builder_calls": sum(
                calls.get(f"coherent_states.{name}", 0)
                for name in ("aocs", "docs_from_alpha", "even_cat")
            ),
            "morse.model_s": total.get("morse.morse_model", 0.0) + total.get("morse.eta_values", 0.0),
            "runner.run_scenario_s": total.get("runner.run_scenario", 0.0),
            "runner.self_s": layer_self.get("runner", 0.0),
            "runner.write_outputs_s": total.get("runner.write_outputs", 0.0),
            "runner.bytes_written": record.bytes_written,
            "trace.coverage": library_self / record.wall,
        })
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["phasespace.wigner_closed_s"] = statistics.median(wigner_calls) if wigner_calls else 0.0
    gated = [v for row in verdicts for v in row]
    metrics["phasespace.oracle_err"] = max((v.get("oracle_err", 0.0) for v in gated), default=0.0)
    metrics["dissipator.balance_err"] = max((v.get("balance_err", 0.0) for v in gated), default=0.0)
    metrics["trace.overhead_s"] = statistics.median(r.wall for r in timed(traced)) - untraced_wall
    return metrics


def simulated_time(cases: list) -> float:
    """Total time span propagated by ``integrate`` over the given cases."""
    total = 0.0
    for case in cases:
        if case.kind == "relaxation":
            total += len(workloads.RELAXATION_STATES) * workloads.RELAXATION_TIMES[-1]
        else:
            total += case.config.resolved_t_samples()[-1]
    return total


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", "_per_t")):
        return "s"
    if name.endswith("_calls"):
        return "count"
    if name.endswith("bytes_written"):
        return "bytes"
    return "ratio"                      # gate errors and trace coverage


def pass_details(records: list[PassRecord], verdicts: list[list[dict]]) -> list[dict]:
    return [
        {
            "wall_s": r.wall,
            "cpu_s": r.cpu,
            "timed": r in timed(records),
            "cases": [
                dict(case.inputs(), wall_s=w, calibration_s=c, **verdict)
                for case, w, c, verdict in zip(r.cases, r.case_walls, r.case_cals, row)
            ],
        }
        for r, row in zip(records, verdicts)
    ]


def measure(args: argparse.Namespace, out_dir: Path) -> dict:
    golden = workloads.load_golden(ROOT)
    details: dict = {"machine": machine_facts()}
    if not args.trace:
        records = run_passes(args.workload, args.seed, args.seconds, PASS_BUDGET_S, out_dir)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end(records).items()}
        verdicts = gate_passes(records, golden)
        details["case_samples"] = sum(len(r.case_walls) for r in timed(records))
        details["raw_times"] = raw_times(records)
        details["passes"] = pass_details(records, verdicts)
    else:
        half, budget = args.seconds / 2.0, PASS_BUDGET_S / 2.0
        untraced = run_passes(args.workload, args.seed, half, budget, out_dir)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = run_passes(args.workload, args.seed, half, budget, out_dir, tracer)
        untraced_verdicts = gate_passes(untraced, golden)
        traced_verdicts = gate_passes(traced, golden)
        verdicts = untraced_verdicts + traced_verdicts
        untraced_wall = statistics.median(r.wall for r in timed(untraced))
        values = per_layer(traced, tracer.spans, untraced_wall, verdicts)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())}
        details["passes"] = pass_details(untraced, untraced_verdicts)
        details["traced_passes"] = pass_details(traced, traced_verdicts)
        details["spans"] = [[s.name, s.start, s.end, s.parent, s.case] for s in tracer.spans]

    flat = [v for row in verdicts for v in row]
    wrong = sum(1 for v in flat if not v["ok"] and not v.get("error"))
    return {
        "correct": wrong == 0,
        "attempted": len(flat),
        "failed": sum(1 for v in flat if not v["ok"]),
        "metrics": metrics,
        "details": details,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    check_library_source()
    out_dir = WORK_DIR / f"worker-{os.getpid()}"
    try:
        warm_up(out_dir)
        print("READY", flush=True)
        print(f"CALIBRATION {Calibration(SETUP_CALIBRATION).run()!r}", flush=True)
        if args.role == "measure":
            result = measure(args, out_dir)
            print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
