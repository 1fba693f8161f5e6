"""Command-line entry point.

Exit codes: 0 success, 2 configuration error (an unreadable config file or
an unwritable output directory included), 3 numerical-invariant breach.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import replace
from pathlib import Path

from .dissipator import IntegrationError
from .phasespace import BesselAccuracyError
from .runner import ConfigError, parse_config, run_scenario, write_outputs

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deformed-lindblad",
        description="Damped Morse-like oscillator: evolution and phase-space outputs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario from a config file")
    run.add_argument("--config", required=True, help="flat key = value config file")
    run.add_argument("--output-dir", default=None, help="override output directory")
    run.add_argument("--scenario", default=None, help="override the scenario name")
    return parser


def _require_writable(out_dir: Path) -> None:
    """Refuse, before any run, an output directory that cannot be written.

    The nearest existing ancestor of out_dir must be a directory this
    process may write into; nothing is created here.
    """
    ancestor = out_dir.absolute()
    while not ancestor.exists():
        ancestor = ancestor.parent
    if not ancestor.is_dir():
        reason = errno.ENOTDIR
    elif not os.access(ancestor, os.W_OK | os.X_OK):
        reason = errno.EACCES
    else:
        return
    raise ConfigError(
        f"cannot write output directory {out_dir}: {os.strerror(reason)}: {ancestor}"
    )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # ConfigError is a ValueError, so it is caught first
    try:
        try:
            text = Path(args.config).read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not UTF-8: {exc}") from exc
        config = parse_config(text)
        overrides = {"scenario": args.scenario, "output_dir": args.output_dir}
        config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
        _require_writable(Path(config.output_dir))
        manifest = write_outputs(run_scenario(config), config.output_dir)
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, BesselAccuracyError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    for name, size in manifest:
        print(f"{name}  {size} bytes")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
