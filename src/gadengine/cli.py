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
from dataclasses import replace

from .errors import GadEngineError
from .sweeps import (
    PRESET_NAMES,
    REPORT_ENGINES,
    SeriesAxis,
    SweepSpec,
    SweepTable,
    SweptAxis,
    emit_csv,
    preset,
    run_report,
    run_sweep,
    with_points,
)
from .validation import validate_all

_BAD_INPUT = 2
_VALIDATION_FAILED = 1


def _parse_kv_lines(lines, source: str) -> dict:
    data = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        data[key.strip()] = value.strip()
    return data


def _parse_swept(text: str) -> SweptAxis:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"sweep must be name:start:stop[:points], got {text!r}")
    points = int(parts[3]) if len(parts) == 4 else 201
    return SweptAxis(parts[0], float(parts[1]), float(parts[2]), points)


def _parse_series(text: str) -> SeriesAxis:
    name, _, values = text.partition(":")
    if not values:
        raise ValueError(f"series must be name:v1,v2,..., got {text!r}")
    return SeriesAxis(name, tuple(float(v) for v in values.split(",")))


def _spec_from_mapping(data: dict, source: str) -> SweepSpec:
    data = dict(data)
    try:
        target = data.pop("target")
        swept = _parse_swept(data.pop("sweep"))
    except KeyError as exc:
        raise ValueError(f"{source}: missing required key {exc.args[0]!r}") from None
    series = _parse_series(data.pop("series")) if "series" in data else None
    fixed = {key: float(value) for key, value in data.items()}
    return SweepSpec(target=target, fixed_params=fixed, swept=swept, series=series)


def _load_sweep_spec(token: str) -> SweepSpec:
    if token in PRESET_NAMES:
        return preset(token)
    with open(token, encoding="utf-8") as fh:
        data = _parse_kv_lines(fh, token)
    return _spec_from_mapping(data, token)


def _apply_overrides(spec: SweepSpec, overrides) -> SweepSpec:
    if not overrides:
        return spec
    fixed = dict(spec.fixed_params)
    swept = spec.swept
    series = spec.series
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key == "sweep":
            swept = _parse_swept(value)
        elif key == "series":
            series = _parse_series(value)
        else:
            fixed[key] = float(value)
    return replace(spec, fixed_params=fixed, swept=swept, series=series)


def _run_report(path: str, overrides, paper_literal: bool) -> SweepTable:
    with open(path, encoding="utf-8") as fh:
        data = _parse_kv_lines(fh, path)
    for item in overrides or ():
        key, _, value = item.partition("=")
        data[key.strip()] = value.strip()
    engine = data.pop("engine", None)
    if engine not in REPORT_ENGINES:
        raise ValueError(f"{path}: engine must be one of {list(REPORT_ENGINES)}, got {engine!r}")
    params = {key: float(value) for key, value in data.items()}
    return run_report(engine, params, paper_literal=paper_literal)


def _ergomap_spec(args) -> SweepSpec:
    spec = preset("fig7")
    overrides = list(args.set or [])
    system = "diff"
    kept = []
    for item in overrides:
        key, _, value = item.partition("=")
        if key.strip() == "system":
            system = value.strip()
        elif key.strip() == "dim":
            raise ValueError("parameter 'dim' does not apply to ergomap; system sets the medium")
        else:
            kept.append(item)
    if system == "qubit":
        spec = replace(spec, target="ergotropy_map",
                       fixed_params={**spec.fixed_params, "dim": 2})
    elif system == "qutrit":
        spec = replace(spec, target="ergotropy_map",
                       fixed_params={**spec.fixed_params, "dim": 3})
    elif system != "diff":
        raise ValueError(f"system must be qubit, qutrit, or diff, got {system!r}")
    spec = _apply_overrides(spec, kept)
    if args.points:
        spec = with_points(spec, args.points)
    return spec


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

        if args.command == "sweep":
            spec = _load_sweep_spec(args.spec)
            spec = _apply_overrides(spec, args.set)
            if args.points:
                spec = with_points(spec, args.points)
            table = run_sweep(spec, paper_literal=args.paper_literal)
            emit_csv(table, args.out)
            return 0

        if args.command == "ergomap":
            spec = _ergomap_spec(args)
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
