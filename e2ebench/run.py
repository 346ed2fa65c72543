"""End-to-end benchmark of the gadengine CLI, with a traced per-layer breakdown.

Usage, from the repository root (no install step: the source tree goes on
PYTHONPATH of every child):

    python3 e2ebench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --workload all --tiny --seconds 1   # seconds-long smoke run
    python3 e2ebench/selftest.py                                # proves the gate bites

Closed loop with one client: each command runs as a fresh child process
(``python -m gadengine ...``) and the next starts only after it has ended;
no threads, no ``--parallel``. Repetitions continue while the measured time
plus half the last repetition is below ``--seconds`` (at least one runs), so
a run measures about ``--seconds`` whatever one repetition costs. Before
measuring, one warm-up repetition of every command at the tiny size is
discarded so that ``__pycache__`` and the page cache are filled; a full-size
warm-up would double the cost of the big workloads. Each child's resources
come from ``os.wait4`` on its own pid (``RUSAGE_CHILDREN`` is a running
maximum over all earlier children and would hide a drop in peak RSS).
``setup_s`` is the median wall time of fresh processes that import
``gadengine.cli`` and build the workload's specs without evaluating them.

Every command is checked: non-zero exit, a CSV whose sha256 differs from
``digests.json`` (recorded at commit 55a2bc8), a failed closed-form spot
check of seeded rows (``checks.py``), or a ``validate`` run that does not
print ``OK: 13/13`` counts as failed. ``failed_frac`` is printed with the
metrics; it stays out of the JSON metrics because it is 0 whenever the
program is right, and the JSON carries ``failed`` and ``attempted``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every
command twice in-process through ``tracer.py``, once plain and once with
the modules wrapped, and reports the per-layer metrics; the difference of
the two ``main`` times is ``trace.overhead_s``.

The seed picks the interleaving order of workloads (with ``all``) and of
the commands inside a repetition, and the rows the spot check samples. The
inputs stay the preset grids, because the byte-identity contract is stated
on them.

``BENCHMARK.json`` lists three workloads: ``ergomap_1201``,
``qubit_sweep_100k`` and ``presets_cold``. ``mixed_sweep_40k`` stays here to
run by hand, for a change to the qutrit or mixed-schema path. With a fourth
workload, the benchmark's whole series of runs would not fit its time budget
at a run length that keeps wall times steady on a 2-vCPU shared host.
``presets_cold`` still runs ``sweep fig6`` at its default size, so the mixed
path stays checked.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A results file with
the machine description goes to ``e2ebench/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
RESULTS = BENCH / "results"


@dataclass(frozen=True)
class Workload:
    why: str
    commands: tuple  # gadengine argument tuples, one child process each
    tiny: tuple  # the same commands at self-test size
    specs: tuple  # (preset, points) pairs the set-up probe builds; 0 keeps the default


_PRESETS = tuple(f"fig{i}" for i in range(1, 8))

WORKLOADS = {
    # A columnar CSV writer must show here; a batched engine should not.
    "ergomap_1201": Workload(
        why="row assembly and CSV formatting in sweeps do almost all the work and engine none; "
            "1,442,401 rows, 51 MB",
        commands=(("ergomap", "--points", "1201"),),
        tiny=(("ergomap", "--points", "41"),),
        specs=(("fig7", 1201),),
    ),
    # A batched engine must show here; a columnar writer moves little.
    "qubit_sweep_100k": Workload(
        why="the per-point engine/channels/states object path is most of the run and emit_csv "
            "a small part; 100,005 rows",
        commands=(("sweep", "fig1", "--points", "20001"),),
        tiny=(("sweep", "fig1", "--points", "201"),),
        specs=(("fig1", 20001),),
    ),
    # A batched engine or columnar writer that only handles numeric qubit rows
    # costs something here.
    "mixed_sweep_40k": Workload(
        why="qutrit 3x3 strokes, the non-cyclic qubit and a mixed CSV schema with string, "
            "empty and bool cells; 40,002 rows",
        commands=(("sweep", "fig6", "--points", "20001"),),
        tiny=(("sweep", "fig6", "--points", "201"),),
        specs=(("fig6", 20001),),
    ),
    # Work moved into import or start-up (a JIT, precomputed tables, heavier
    # imports) shows here; bulk-path optimisations should leave it unchanged.
    "presets_cold": Workload(
        why="fig1..fig7 at default points then validate, each a fresh process: start-up, "
            "import and validation dominate",
        commands=tuple(("sweep", p) for p in _PRESETS) + (("validate",),),
        tiny=tuple(("sweep", p, "--points", "21") for p in _PRESETS) + (("validate",),),
        specs=tuple((p, 0) for p in _PRESETS),
    ),
}

# metric name -> unit, as in BENCHMARK.json
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "rows_per_s": "1/s",
    "setup_s": "s",
}
PER_LAYER = {
    "sweeps.emit_csv_s": "s",
    "sweeps.format_s": "s",
    "sweeps.bytes_out": "B",
    "sweeps.run_sweep_s": "s",
    "sweeps.self_s": "s",
    "sweeps.rows": "count",
    "sweeps.config_s": "s",
    "sweeps.config_calls": "count",
    "engine.run_s": "s",
    "engine.run_calls": "count",
    "engine.self_s": "s",
    "engine.record_s": "s",
    "channels.s": "s",
    "channels.calls": "count",
    "states.s": "s",
    "states.calls": "count",
    "engine.calls_per_row": "count",
    "channels.calls_per_row": "count",
    "states.calls_per_row": "count",
    "ergotropy.landscape_s": "s",
    "ergotropy.diff_s": "s",
    "ergotropy.cells": "count",
    "kernels.fill_s": "s",
    "kernels.cells_per_s": "1/s",
    "kernels.bytes_moved": "B-computed",
    "io.write_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "validation.validate_all_s": "s",
    "validation.checks": "count",
    "trace.overhead_s": "s",
}

_SETUP_PROBE = (
    "import sys\n"
    "from gadengine.cli import preset, with_points\n"
    "for item in sys.argv[1:]:\n"
    "    name, points = item.split(':')\n"
    "    spec = preset(name)\n"
    "    if int(points):\n"
    "        spec = with_points(spec, int(points))\n"
)


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


def spawn(argv, env) -> Child:
    """Run one child to completion; its resources come from wait4 on its pid."""
    out, err = WORK / "stdout", WORK / "stderr"
    with open(out, "wb") as out_fh, open(err, "wb") as err_fh:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out_fh, stderr=err_fh, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode, out.read_bytes(), err.read_bytes())


def cli_args(args: tuple, csv: Path) -> list:
    """The command's gadengine arguments, with CSV output going to ``csv``."""
    return list(args) if args[0] == "validate" else [*args, "--out", str(csv)]


def _flip_byte(data: bytes, lo: int, hi: int, rng) -> bytes:
    i = rng.randrange(lo, hi)
    return data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]


def verdict(args: tuple, child: Child, csv: Path, rng, corrupt: bool) -> tuple:
    """(problem or None, data rows) for one finished command."""
    if child.code != 0:
        tail = child.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        return f"exit code {child.code}: {' '.join(tail)}", 0
    if args[0] == "validate":
        stdout = child.stdout
        if corrupt and b"OK: " in stdout:
            at = stdout.rindex(b"OK: ")
            stdout = _flip_byte(stdout, at, at + len(b"OK: 13/13"), rng)
        return checks.check_validate(stdout), 0
    try:
        data = csv.read_bytes()
        csv.unlink()
    except OSError as exc:
        return f"no CSV output: {exc}", 0
    if corrupt:
        data = _flip_byte(data, 0, len(data), rng)
    return checks.check_csv(" ".join(args), data, rng)


@dataclass
class Rep:
    """One repetition: every command of the workload once."""

    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    rows: int = 0
    attempted: int = 0
    problems: list = field(default_factory=list)
    traced: list = field(default_factory=list)  # tracer reports, --trace 1 only
    plain_main_s: float = 0.0

    def add(self, child: Child, problem, rows: int) -> None:
        self.wall += child.wall
        self.cpu += child.cpu
        self.rss_mb = max(self.rss_mb, child.rss_mb)
        self.rows += rows
        self.attempted += 1
        if problem:
            self.problems.append(problem)


class Session:
    """Measurement state of one workload."""

    def __init__(self, name: str, opts, env):
        self.name = name
        self.workload = WORKLOADS[name]
        self.opts = opts
        self.env = env
        self.rng = random.Random(f"{opts.seed}:{name}")
        self.commands = self.workload.tiny if opts.tiny else self.workload.commands
        self.reps = []
        self.setup = []
        self.measured = 0.0

    @property
    def done(self) -> bool:
        # stop where the measured time lands nearest --seconds, so a run's
        # length stays close to it whatever one repetition costs
        return bool(self.reps) and self.measured + self.reps[-1].wall / 2 >= self.opts.seconds

    def prepare(self) -> None:
        csv = WORK / "warmup.csv"
        for args in self.workload.tiny:
            spawn([sys.executable, "-m", "gadengine", *cli_args(args, csv)], self.env)
        csv.unlink(missing_ok=True)
        for _ in range(4):
            self.probe_setup()

    def probe_setup(self) -> None:
        """Time one fresh process that imports the CLI and builds the specs.

        Four probes run before measuring and one after every repetition, so
        the median spans the whole run rather than one moment of it.
        """
        if self.opts.trace:
            return
        probe = [sys.executable, "-c", _SETUP_PROBE,
                 *(f"{name}:{points}" for name, points in self.workload.specs)]
        child = spawn(probe, self.env)
        if child.code != 0:
            raise SystemExit(f"set-up probe failed: {child.stderr.decode(errors='replace')}")
        self.setup.append(child.wall)

    def step(self) -> None:
        rep = Rep()
        csv = WORK / "out.csv"
        for args in self.rng.sample(self.commands, len(self.commands)):
            if not self.opts.trace:
                child = spawn([sys.executable, "-m", "gadengine", *cli_args(args, csv)], self.env)
                rep.add(child, *verdict(args, child, csv, self.rng, self.opts.corrupt))
                continue
            for plain in (True, False):
                report = WORK / "trace.json"
                argv = [sys.executable, str(BENCH / "tracer.py"), str(report),
                        *(["--plain"] if plain else []), "--", *cli_args(args, csv)]
                child = spawn(argv, self.env)
                rep.add(child, *verdict(args, child, csv, self.rng, self.opts.corrupt))
                if child.code == 0:
                    data = json.loads(report.read_text(encoding="utf-8"))
                    if plain:
                        rep.plain_main_s += data["main_s"]
                    else:
                        rep.traced.append(data)
        self.reps.append(rep)
        self.measured += rep.wall
        self.probe_setup()

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.reps)

    @property
    def failed(self) -> int:
        return sum(len(r.problems) for r in self.reps)

    def metrics(self) -> dict:
        if self.opts.trace:
            per_rep = [layer_metrics(r) for r in self.reps]
            return {m: statistics.median([p[m] for p in per_rep]) for m in PER_LAYER}
        return {
            "wall_s": statistics.median([r.wall for r in self.reps]),
            "cpu_s": statistics.median([r.cpu for r in self.reps]),
            "peak_rss_mb": statistics.median([r.rss_mb for r in self.reps]),
            # total over total, not a median of per-repetition rates: on a host
            # whose speed swings within seconds, the time-weighted mean over the
            # whole measured window is the steadiest estimate of throughput
            "rows_per_s": sum(r.rows for r in self.reps) / self.measured,
            "setup_s": statistics.median(self.setup),
        }


def layer_metrics(rep: Rep) -> dict:
    """Per-layer numbers of one traced repetition, summed over its commands.

    Self time is a span's total minus the wrapped calls made inside it, so
    sweeps.self_s is run_sweep without engine, record, config and ergotropy
    calls, and sweeps.format_s is emit_csv without its write.
    """
    def span(name, key="total_s"):
        return sum(r["spans"].get(name, {}).get(key, 0) for r in rep.traced)

    def count(key):
        return sum(r["counts"].get(key, 0) for r in rep.traced)

    rows = count("rows")
    fill_s = span("kernels.fill")

    def per_row(calls):
        return calls / rows if rows else 0.0

    return {
        "sweeps.emit_csv_s": span("sweeps.emit_csv"),
        "sweeps.format_s": span("sweeps.emit_csv", "self_s"),
        "sweeps.bytes_out": count("bytes_out"),
        "sweeps.run_sweep_s": span("sweeps.run_sweep"),
        "sweeps.self_s": span("sweeps.run_sweep", "self_s"),
        "sweeps.rows": rows,
        "sweeps.config_s": span("sweeps.config"),
        "sweeps.config_calls": span("sweeps.config", "calls"),
        "engine.run_s": span("engine.run"),
        "engine.run_calls": span("engine.run", "calls"),
        "engine.self_s": span("engine.run", "self_s"),
        "engine.record_s": span("engine.record"),
        "channels.s": span("channels"),
        "channels.calls": span("channels", "calls"),
        "states.s": span("states"),
        "states.calls": span("states", "calls"),
        "engine.calls_per_row": per_row(span("engine.run", "calls")),
        "channels.calls_per_row": per_row(span("channels", "calls")),
        "states.calls_per_row": per_row(span("states", "calls")),
        "ergotropy.landscape_s": span("ergotropy.landscape"),
        "ergotropy.diff_s": span("ergotropy.diff"),
        "ergotropy.cells": count("cells"),
        "kernels.fill_s": fill_s,
        "kernels.cells_per_s": count("kernel_cells") / fill_s if fill_s else 0.0,
        "kernels.bytes_moved": count("kernel_bytes"),
        "io.write_s": span("io.write"),
        "cli.import_s": sum(r["import_s"] for r in rep.traced),
        "cli.self_s": span("cli.main", "self_s"),
        "validation.validate_all_s": span("validation.validate_all"),
        "validation.checks": count("checks"),
        "trace.overhead_s": span("cli.main") - rep.plain_main_s,
    }


def machine() -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        cpu = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured time per workload (at least one repetition runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: every workload in seconds")
    parser.add_argument("--corrupt", action="store_true",
                        help="flip one byte of every output before checking it (self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    opts = parse_args(argv)
    if not (ROOT / "src" / "gadengine" / "cli.py").is_file():
        print(f"e2ebench: no gadengine source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    order = random.Random(opts.seed)
    sessions = [Session(name, opts, env) for name in order.sample(names, len(names))]
    for s in sessions:
        s.prepare()
    while not all(s.done for s in sessions):
        pending = [s for s in sessions if not s.done]
        for s in order.sample(pending, len(pending)):
            s.step()

    units = PER_LAYER if opts.trace else END_TO_END
    metrics = {}
    for s in sorted(sessions, key=lambda s: s.name):
        values = s.metrics()
        prefix = f"{s.name}." if opts.workload == "all" else ""
        print(f"{s.name}: {len(s.reps)} repetition(s), {s.attempted} command(s); "
              f"{WORKLOADS[s.name].why}")
        for name, value in values.items():
            print(f"  {name:26s} {value:16.6f} {units[name]}")
            metrics[prefix + name] = {"value": value, "unit": units[name]}
        print(f"  {'failed_frac':26s} {s.failed / s.attempted:16.6f} share")
        for problem in dict.fromkeys(p for r in s.reps for p in r.problems):
            print(f"  FAILED: {problem}", file=sys.stderr)

    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"args": vars(opts), "machine": machine(), "result": result,
              "setup_s_samples": {s.name: s.setup for s in sessions},
              "repetitions": {s.name: [vars(r) for r in s.reps] for s in sessions}}
    tag = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}{'-tiny' if opts.tiny else ''}"
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
