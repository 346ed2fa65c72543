"""Run one gadengine CLI command in-process, with per-layer spans.

Usage:
    python e2ebench/tracer.py REPORT.json [--plain] -- <gadengine arguments>

Imports ``gadengine.cli`` (timed as the import cost), wraps the public
functions of each module where their caller looks the name up, runs
``cli.main`` and writes one JSON report: per span name the call count, the
total time and the self time (total minus the wrapped calls made inside it),
plus counters for rows, cells, bytes and validation checks. ``--plain``
skips the wrapping, which gives the untraced time of ``main`` that the
tracing overhead is measured against. Nothing inside ``src/`` changes.
The exit code is that of ``cli.main``.
"""

from __future__ import annotations

import json
import pathlib
import sys
from collections import Counter
from time import perf_counter


class Tracer:
    """Aggregated spans: one [calls, total_s, self_s] entry per span name."""

    def __init__(self):
        self.spans = {}
        self.counts = Counter()
        self._stack = []  # time covered by wrapped children of each open span

    def wrap(self, owner, attr: str, span: str, count=None) -> None:
        fn = getattr(owner, attr)
        stats = self.spans.setdefault(span, [0, 0.0, 0.0])
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += took
                stats[0] += 1
                stats[1] += took
                stats[2] += took - inner
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(owner, attr, traced)


class _TimedStdout:
    """Standard output whose writes are timed as io.write spans."""

    def __init__(self, stream, tracer: Tracer):
        self._stream = stream
        tracer.wrap(self, "_write", "io.write", _count_text)

    def _write(self, text):
        return self._stream.write(text)

    def write(self, text):
        return self._write(text)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def _count_text(counts, args, result):
    counts["bytes_out"] += len(args[-1])


def _count_rows(counts, args, table):
    counts["rows"] += len(table.rows)


def _count_cells(counts, args, grid):
    counts["cells"] += grid.values.size


def _count_fill(counts, args, values):
    # bytes computed from array sizes: every array argument read once, the grid written once
    counts["kernel_cells"] += values.size
    counts["kernel_bytes"] += values.nbytes + sum(a.nbytes for a in args if hasattr(a, "nbytes"))


def _count_checks(counts, args, summary):
    counts["checks"] += len(summary.checks)


def install(tracer: Tracer) -> None:
    from gadengine import _kernels, cli, engine, sweeps

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "run_sweep", "sweeps.run_sweep", _count_rows)
    tracer.wrap(cli, "emit_csv", "sweeps.emit_csv")
    tracer.wrap(cli, "validate_all", "validation.validate_all", _count_checks)
    for name in ("qubit_config_from_params", "qutrit_config_from_params"):
        tracer.wrap(sweeps, name, "sweeps.config")
    for name in ("run_cyclic_qubit", "run_noncyclic_qubit", "run_qutrit"):
        tracer.wrap(sweeps, name, "engine.run")
    for name in ("qubit_record", "qutrit_record"):
        tracer.wrap(sweeps, name, "engine.record")
    tracer.wrap(sweeps, "ergotropy_landscape", "ergotropy.landscape", _count_cells)
    tracer.wrap(sweeps, "landscape_difference", "ergotropy.diff")
    for name in ("gad_qubit", "ad_qubit", "gad_qutrit", "apply"):
        tracer.wrap(engine, name, "channels")
    for name in ("make_diagonal_state", "energy", "hs_distance"):
        tracer.wrap(engine, name, "states")
    for name in ("qubit_fill", "qutrit_fill"):  # ergotropy calls _kernels.<name>
        tracer.wrap(_kernels, name, "kernels.fill", _count_fill)
    tracer.wrap(pathlib.Path, "write_text", "io.write", _count_text)
    sys.stdout = _TimedStdout(sys.stdout, tracer)


def main(argv) -> int:
    report_path, *rest = argv
    plain = rest[:1] == ["--plain"]
    cli_args = rest[rest.index("--") + 1:]

    start = perf_counter()
    from gadengine import cli
    import_s = perf_counter() - start

    tracer = Tracer()
    if not plain:
        install(tracer)
    start = perf_counter()
    code = cli.main(cli_args)
    main_s = perf_counter() - start
    sys.stdout.flush()

    report = {
        "import_s": import_s,
        "main_s": main_s,
        "spans": {name: {"calls": c, "total_s": t, "self_s": s}
                  for name, (c, t, s) in tracer.spans.items()},
        "counts": dict(tracer.counts),
    }
    pathlib.Path(report_path).write_text(json.dumps(report), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
