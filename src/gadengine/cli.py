"""Command-line front end.

Subcommands:
    sweep <preset|specfile>   run a parameter sweep, emit CSV
    validate                  run the self-check suite (exit 1 on failure)
    ergomap                   emit one ergotropy landscape as long-form CSV
    report <specfile>         run a single engine configuration

Exit codes: 0 success, 1 validation failure, 2 bad input or I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import GadEngineError
from .sweeps import (
    MAP_KEYS_BY_DIM,
    PRESET_NAMES,
    PRESETS,
    REPORT_ENGINES,
    SweepSpec,
    SweepTable,
    emit_csv,
    run_report,
    run_sweep,
    spec_from_mapping,
    with_points,
)
from .sweeps import preset  # noqa: F401  e2ebench/run.py imports it from here
from .validation import validate_all

_BAD_INPUT = 2
_VALIDATION_FAILED = 1
_ERGOMAP_DIMS = {"qubit": 2, "qutrit": 3}


def _pair(text: str, where: str) -> tuple:
    if "=" not in text:
        raise ValueError(f"{where}: expected key=value, got {text!r}")
    key, value = text.split("=", 1)
    return key.strip(), value.strip()


def _read_pairs(path: str) -> dict:
    """The key=value lines of a file; '#' starts a comment, blank lines are skipped."""
    with open(path, encoding="utf-8") as fh:
        lines = [(lineno, raw.split("#", 1)[0].strip()) for lineno, raw in enumerate(fh, 1)]
    return dict(_pair(line, f"{path}:{lineno}") for lineno, line in lines if line)


def _set_pairs(items) -> dict:
    """The --set pairs, each taken whole: a '#' in a value is part of it."""
    pairs = dict(_pair(item, "--set") for item in items or ())
    if "target" in pairs:
        raise ValueError("--set cannot change 'target'; name another preset or spec file")
    return pairs


def _spec(base: dict, sets: dict, points) -> SweepSpec:
    spec = spec_from_mapping({**base, **sets})
    return spec if points is None else with_points(spec, points)


def _run_report(path: str, overrides, paper_literal: bool) -> SweepTable:
    data = {**_read_pairs(path), **_set_pairs(overrides)}
    engine = data.pop("engine", None)
    if engine not in REPORT_ENGINES:
        raise ValueError(f"{path}: engine must be one of {list(REPORT_ENGINES)}, got {engine!r}")
    return run_report(engine, data, paper_literal=paper_literal)


def _ergomap_spec(args) -> SweepSpec:
    """fig7's mapping, only the chosen medium's keys for system=qubit|qutrit, then --set."""
    sets = _set_pairs(args.set)
    system = sets.pop("system", "diff")
    if "dim" in sets:
        raise ValueError("parameter 'dim' does not apply to ergomap; system sets the medium")
    base = PRESETS["fig7"]
    if system in _ERGOMAP_DIMS:
        dim = _ERGOMAP_DIMS[system]
        other = MAP_KEYS_BY_DIM[5 - dim]
        base = {key: value for key, value in base.items() if key not in other}
        base.update(target="ergotropy_map", dim=dim)
    elif system != "diff":
        raise ValueError(f"system must be qubit, qutrit, or diff, got {system!r}")
    return _spec(base, sets, args.points)


def _add_paper_literal(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--paper-literal", action="store_true",
                        help="use the documented uncorrected formula variants for comparison")


def _add_run_flags(parser: argparse.ArgumentParser, set_help: str) -> None:
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output file (default: standard output)")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE", help=set_help)
    _add_paper_literal(parser)


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    _add_run_flags(parser, "override a parameter (repeatable); also sweep=... / series=...")
    parser.add_argument("--points", type=int, default=None, metavar="N",
                        help="override the number of sweep points per axis")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gadengine",
        description="Qubit/qutrit heat engines driven by generalized-amplitude-damping channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a preset or spec-file sweep and emit CSV")
    p_sweep.add_argument("spec", help=f"preset name ({', '.join(PRESET_NAMES)}) or key=value file")
    _add_sweep_flags(p_sweep)

    p_val = sub.add_parser("validate", help="run the self-check suite")
    _add_paper_literal(p_val)

    p_ergo = sub.add_parser("ergomap", help="emit an ergotropy landscape as long-form CSV")
    _add_sweep_flags(p_ergo)

    p_rep = sub.add_parser("report", help="run one engine configuration from a key=value file")
    p_rep.add_argument("specfile", help="key=value file with engine=cyclic|noncyclic|qutrit")
    _add_run_flags(p_rep, "override a key of the file (repeatable)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            summary = validate_all(paper_literal=args.paper_literal)
            for line in summary.lines():
                print(line)
            print(f"{'OK' if summary.ok else 'FAILED'}: "
                  f"{sum(c.passed for c in summary.checks)}/{len(summary.checks)} checks passed")
            return 0 if summary.ok else _VALIDATION_FAILED

        if args.command in ("sweep", "ergomap"):
            if args.command == "ergomap":
                spec = _ergomap_spec(args)
            else:
                base = PRESETS[args.spec] if args.spec in PRESETS else _read_pairs(args.spec)
                spec = _spec(base, _set_pairs(args.set), args.points)
            table = run_sweep(spec, paper_literal=args.paper_literal)
            emit_csv(table, args.out)
            return 0

        if args.command == "report":
            table = _run_report(args.specfile, args.set, args.paper_literal)
            emit_csv(table, args.out)
            return 0
    except (GadEngineError, ValueError, OSError) as exc:
        print(f"gadengine: error: {exc}", file=sys.stderr)
        return _BAD_INPUT
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
