"""Benchmark of the deformed-lindblad library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload figures --seed 0 --seconds 45 --trace 0

Workloads are ``figures`` and ``relaxation`` (see
``perfbench/workloads.py``).  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it runs the workload untraced and then traced,
and reports the per-layer metrics and the tracing overhead.

Case times are reported in units of a calibration loop timed around each
case (``cal``), which cancels the drift of a shared machine's speed; the
seconds are printed too.  See ``perfbench/README.md``.

Every child process starts with the BLAS thread count fixed to one and runs
alone, so the load stays on one core of the machine.  Set-up time is taken
several times, each from the start of a fresh interpreter to the end of its
warm-up case, scaled by the calibration loop run right after it, and
reported as the median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(machine facts, drawn inputs, per-pass and per-case times, gate results and,
for a traced run, every span) goes to ``.perfbench_out/``.  The exit code is
not 0 when the checkout holds no library source or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("figures", "relaxation")
SETUP_PROBES = 2
# Set-up time is reported in seconds on a machine where the set-up
# calibration loop (worker.SETUP_CALIBRATION) takes this long, its median on
# the 2-core x86 VM the benchmark was defined on.  This cancels the drift of
# the machine's speed between runs; see README.md, "Calibration".
NOMINAL_CALIBRATION_S = 0.15
RUN_LIMIT_S = 170.0
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    for name in THREAD_VARIABLES:
        env[name] = "1"
    env["PYTHONPATH"] = str(root / "src")
    return env


def start_worker(args: list[str], root: Path) -> tuple[subprocess.Popen, float, float]:
    """Start a worker and wait for its READY line.

    Returns the worker, its set-up time, and the time of the calibration loop
    it runs right after set-up.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (exit code {proc.returncode})")
    label, _, value = proc.stdout.readline().partition(" ")
    if label != "CALIBRATION":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not report its calibration (exit code {proc.returncode})")
    return proc, setup, float(value)


def setup_seconds(setups: list[float], calibrations: list[float]) -> float:
    """Median set-up time, each scaled to the nominal calibration speed."""
    return statistics.median(NOMINAL_CALIBRATION_S * s / c for s, c in zip(setups, calibrations))


def finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker overran the run limit and was stopped")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def print_report(workload: str, seed: int, result: dict) -> None:
    details = result["details"]
    print(f"perfbench  workload={workload}  seed={seed}  machine={json.dumps(details['machine'])}")
    for label in ("passes", "traced_passes"):
        for index, record in enumerate(details.get(label, [])):
            cases = ", ".join(
                f"{c['case']}(theta={c['theta']:.3f}, n={c['target_mean_n']:.3f}) "
                f"{c['wall_s']:.3f}s{'' if c['ok'] else ' FAILED'}"
                for c in record["cases"]
            )
            note = "" if record["timed"] else " (not timed)"
            print(f"  {label[:-2]} {index}: {record['wall_s']:.3f} s{note}  [{cases}]")
    samples = details.get("case_samples")
    print(f"  cases attempted {result['attempted']}, failed {result['failed']}"
          + (f"; case_cal_p50 over {samples} case samples" if samples else ""))
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    for name, value in details.get("raw_times", {}).items():
        print(f"  {name + ' (not normalised)':40s} {value:.6g} s")
    # fail_frac is carried by the result's failed / attempted fields rather
    # than as a metric: it is 0 on a healthy run, so it has no relative bound.
    print(f"  {'fail_frac':40s} {result['failed'] / result['attempted']:.6g} ratio")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="deformed-lindblad benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "deformed_lindblad" / "__init__.py").is_file():
        print(f"perfbench: no library source under {root / 'src'}; run from the "
              "root of a deformed-lindblad checkout", file=sys.stderr)
        return 2
    golden = root / "tests" / "golden" / "purity_golden.json"
    if not golden.is_file():
        print(f"perfbench: missing {golden}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    setups, calibrations = [], []
    try:
        for _ in range(0 if args.trace else SETUP_PROBES):
            proc, setup, calibration = start_worker(["--role", "setup"], root)
            finish(proc, deadline)
            setups.append(setup)
            calibrations.append(calibration)
        proc, setup, calibration = start_worker(
            ["--role", "measure", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            root,
        )
        setups.append(setup)
        calibrations.append(calibration)
        result = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if not args.trace:
        result["metrics"]["setup_s"] = {"value": setup_seconds(setups, calibrations), "unit": "s"}
        result["details"]["raw_times"]["setup_s"] = statistics.median(setups)
    result["details"]["setup_samples_s"] = setups
    result["details"]["setup_calibrations_s"] = calibrations

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1))

    print_report(args.workload, args.seed, result)
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
