"""taxisim benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory. With --trace 0 the benchmark times the workload's CLI
command (taxisim.cli.main, in this process, stdout captured, 1 worker) in a
closed loop for S seconds after one warm-up command, alternating with a
calibration loop and with fresh-process set-up probes, and prints the
end-to-end metrics. With --trace 1 it measures single layers instead: micro-benchmarks,
the sweep at 1 and 2 workers, and commands run with spans recorded around
taxisim's public functions, alternated with untraced ones to give the
tracing overhead. Every command's output goes through the correctness gate
(gate.py). The last line printed is one JSON object with the keys correct,
attempted, failed and metrics. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import gate
import layers
from tracer import ROOT, Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT_DIR = BENCH.parent
SRC = ROOT_DIR / "src"
WORK = BENCH / "_work"

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "frac"),
)
# Scalar entries of the result record's detail, printed with these notes.
DETAIL_NOTES = {
    "wall_raw_s": "s (measured median)",
    "setup_raw_s": "s (measured median)",
    "calibration_s": "s (measured median)",
    "stepper.step.tail_pct": "% (the percentile stepper.step.us_tail is)",
    "stepper.step.samples": "steps traced (the samples of us_p50 and us_tail)",
}
SETUP_PROBES = 25  # fresh processes per run, after one discarded warm-up probe
# Times are reported in reference-speed seconds: measured seconds times
# CALIBRATION_REF_S over the calibration loop's time at that moment. The
# constant is about the loop's time on the 2-CPU Xeon host of the README
# baseline.
CALIBRATION_REF_S = 0.1
CALIBRATION_REPS = {1: 5000, 2: 1400, 3: 950}  # by dim: 0.05-0.14 s each on that host
MIN_SAMPLES = 5  # timed commands per run, even if --seconds runs out first
SWEEP_SECONDS = 10.0  # untraced sweeps at 1 and at 2 workers in a traced run
SWEEP_WORKERS = min(2, os.cpu_count() or 1)  # for the 1-vs-N-worker checks


def import_taxisim():
    """Import taxisim from this checkout's src/, and from nowhere else."""
    if not (SRC / "taxisim" / "__init__.py").is_file():
        sys.exit(f"error: no taxisim sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import taxisim
    import taxisim.cli

    if Path(taxisim.__file__).resolve().parent != (SRC / "taxisim").resolve():
        sys.exit(f"error: imported taxisim from {taxisim.__file__}, not from {SRC}")
    return taxisim


@contextlib.contextmanager
def sweep_outcomes():
    """Collect (theta, RunOutcome) of every run a sweep makes, by wrapping
    taxisim.sweep.run for the duration of the block."""
    import taxisim.sweep as sweep_mod

    original = sweep_mod.run
    found: list = []

    def recording(init, params, cfg, *args, **kwargs):
        outcome = original(init, params, cfg, *args, **kwargs)
        found.append((params.chi / params.mu, outcome))
        return outcome

    sweep_mod.run = recording
    try:
        yield found
    finally:
        sweep_mod.run = original


class Session:
    """One benchmark run: the generated inputs, and the gate's tally."""

    def __init__(self, workload, seed: int, references: dict, directory: Path) -> None:
        self.workload = workload
        self.dir = directory
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "workload.cfg"
        self.config.write_text(workload.config(seed), encoding="utf-8")
        ref = references[workload.name][str(workload.seed_class(seed))]
        if workload.command == "sweep":
            self.sweep_config = self.config
            self.sweep_ref = ref
        else:
            self.ref = ref
            self.sweep_config = self.dir / "sweep_form.cfg"
            self.sweep_config.write_text(
                workload.config(seed, outdir="out_sweep", sweep_form=True), encoding="utf-8"
            )
            point = {"theta": workload.chi / workload.mu, "classification": self.ref["verdict"],
                     "max_sup_u": self.ref["max_sup_u"]}
            self.sweep_ref = [point, point]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_table: dict[Path, str] = {}

    def outdir(self, config: Path) -> Path:
        return self.dir / ("out_sweep" if config.name == "sweep_form.cfg" else "out")

    def command(self, main, *, sweep_form: bool = False, workers: int = 1,
                check_outcomes: bool = False) -> float:
        """Run the workload's CLI command once, gate its output, return its wall time.

        check_outcomes also gates the run outcome of every sweep point (see
        sweep_outcomes); it is used on untimed sweeps, and byte identity of
        sweep.csv carries the check over to the other repeats.
        """
        sweep = sweep_form or self.workload.command == "sweep"
        config = self.sweep_config if sweep else self.config
        output = self.outdir(config) / ("sweep.csv" if sweep else "timeseries.csv")
        output.unlink(missing_ok=True)
        os.environ["TAXISIM_WORKERS"] = str(workers)
        stdout, stderr = io.StringIO(), io.StringIO()
        code = None
        collecting = sweep_outcomes() if sweep and check_outcomes else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                    collecting as outcomes:
                code = main(["sweep" if sweep else "run", str(config)])
        except Exception:  # a crash is a failed operation, not a benchmark abort
            stderr.write(traceback.format_exc())
        wall = time.perf_counter() - start
        text = output.read_text(encoding="utf-8") if output.is_file() else ""
        if stderr.getvalue():
            self.problems.append(stderr.getvalue().strip())
        if sweep:
            first = self.first_table.get(config)
            checked = None if outcomes is None else [
                (theta, gate.check_outcome(outcome)) for theta, outcome in outcomes]
            points = gate.check_sweep_points(code, text, first, self.sweep_ref, checked)
            if first is None and code == 0:
                self.first_table[config] = text
            self._tally([p for problems in points for p in problems], len(points),
                        sum(1 for problems in points if problems))
        else:
            problems = gate.check_run(code, stdout.getvalue(), text, self.ref,
                                      self.workload.domain_measure)
            self._tally(problems, 1, 1 if problems else 0)
        return wall

    def _tally(self, problems: list[str], attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)

    def bytes_written(self) -> float:
        return float(sum(f.stat().st_size for f in self.outdir(self.config).iterdir()))


def setup_probe_seconds(config: Path) -> float:
    """Set-up time of one fresh process, measured by setup_probe.py."""
    probe = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(config)]
    done = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def calibration_seconds(shape: tuple[int, ...]) -> float:
    """Wall time of a fixed loop that does not use taxisim.

    Run between timed commands, it measures how fast the machine is at that
    moment: on a shared host the same command's time drifts by tens of
    percent from one minute to the next, and its ratio to this loop drifts
    far less. The loop applies a numpy Laplacian stencil to an array of the
    workload's grid shape, so it spends its time as the workload does:
    numpy kernels on 4096 cells in 2D and 3D, call overhead on 64 cells in
    1D. On slaved-3d it followed the command's time more closely than a
    mix of all three shapes and plain Python did (README.md).
    """
    start = time.perf_counter()
    a = np.linspace(0.0, 1.0, int(np.prod(shape))).reshape(shape)
    for _ in range(CALIBRATION_REPS[len(shape)]):
        c = np.zeros_like(a)
        for axis in range(a.ndim):
            lo, mid, hi = ([slice(None)] * a.ndim for _ in range(3))
            lo[axis], mid[axis], hi[axis] = slice(0, -2), slice(1, -1), slice(2, None)
            c[tuple(mid)] += a[tuple(hi)] - 2.0 * a[tuple(mid)] + a[tuple(lo)]
        a = a + 1e-3 * c
        float(np.max(a))
    return time.perf_counter() - start


def timed_loop(commands, seconds: float, min_samples: int = MIN_SAMPLES) -> list[list[float]]:
    """Call each of commands in turn until seconds have passed and each ran
    min_samples times; returns the wall times per command."""
    walls: list[list[float]] = [[] for _ in commands]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(walls[0]) < min_samples:
        for wall, command in zip(walls, commands):
            wall.append(command())
    return walls


def end_to_end(session: Session, cli_main, seconds: float) -> tuple[dict, dict]:
    """Closed loop of the workload command with the calibration loop between
    commands; fresh-process set-up probes are spread evenly over the window.

    Each command and each probe is divided by the mean of the calibrations
    just before and just after it, and the medians of those ratios are
    reported in reference-speed seconds (see CALIBRATION_REF_S).
    """
    setup_probe_seconds(session.config)  # warm-up: writes bytecode caches
    session.command(cli_main, check_outcomes=True)
    walls: list[float] = []
    setup: list[float] = []
    wall_ratios: list[float] = []
    setup_ratios: list[float] = []
    calibrations = [calibration_seconds(session.workload.shape)]
    start = time.perf_counter()
    while (
        (elapsed := time.perf_counter() - start) < seconds
        or len(walls) < MIN_SAMPLES
        or len(setup) < SETUP_PROBES
    ):
        # every probe that has come due, so the window alone sets the run length
        due = SETUP_PROBES if elapsed >= seconds else 1 + int(elapsed / seconds * SETUP_PROBES)
        probes = [setup_probe_seconds(session.config) for _ in range(due - len(setup))]
        wall = session.command(cli_main)
        calibrations.append(calibration_seconds(session.workload.shape))
        speed = 0.5 * (calibrations[-2] + calibrations[-1])
        walls.append(wall)
        wall_ratios.append(wall / speed)
        setup += probes
        setup_ratios += [probe / speed for probe in probes]
    if session.workload.command == "sweep":
        # sweep.csv must not depend on workers
        session.command(cli_main, workers=SWEEP_WORKERS, check_outcomes=True)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": CALIBRATION_REF_S * statistics.median(wall_ratios),
        "setup_s": CALIBRATION_REF_S * statistics.median(setup_ratios),
        "peak_rss_mib": rss_mib,
        "ok_frac": 1.0 - session.failed / session.attempted,
    }
    detail = {"wall_raw_s": statistics.median(walls),
              "setup_raw_s": statistics.median(setup), "calibration_s": statistics.median(calibrations),
              "wall_samples_s": walls, "setup_samples_s": setup, "calibration_samples_s": calibrations}
    return metrics, detail


def per_layer(session: Session, taxisim, seconds: float) -> tuple[dict, dict]:
    cli_main = taxisim.cli.main
    session.command(cli_main, check_outcomes=True)  # warm-up
    cfg_text = session.config.read_text(encoding="utf-8")
    cfg = taxisim.parse_config(cfg_text, base_dir=session.dir)
    metrics = layers.micro_metrics(taxisim, cfg, cfg_text, session.dir)

    # Sweep at 1 and 2 workers, untraced, alternating, for SWEEP_SECONDS and
    # at least one pair. A run workload is swept as two repetitions of its
    # own run.
    w1, w2 = timed_loop(
        [lambda: session.command(cli_main, sweep_form=True, workers=1),
         lambda: session.command(cli_main, sweep_form=True, workers=SWEEP_WORKERS,
                                 check_outcomes=True)],
        seconds=SWEEP_SECONDS,
        min_samples=1,
    )
    metrics["sweep.wall_s.w1"] = statistics.median(w1)
    metrics["sweep.wall_s.w2"] = statistics.median(w2)
    metrics["sweep.speedup_w2"] = metrics["sweep.wall_s.w1"] / metrics["sweep.wall_s.w2"]

    # Traced commands alternate with untraced ones, all at 1 worker, so the
    # overhead estimate sees the same machine state on both sides.
    tracer = Tracer()
    traced_main = tracer.wrap(ROOT, cli_main)

    def traced_command() -> float:
        with tracer.patched():
            return session.command(traced_main)

    untraced, traced = timed_loop([lambda: session.command(cli_main), traced_command], seconds)
    metrics.update(layers.span_metrics(tracer.spans))
    tail_detail = {name: metrics.pop(name) for name in layers.TAIL_DETAIL}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["fileio.bytes_written"] = session.bytes_written()

    if session.workload.command == "sweep":
        sweep_tracer = tracer
    else:
        sweep_tracer = Tracer()
        with sweep_tracer.patched():
            session.command(sweep_tracer.wrap(ROOT, cli_main), sweep_form=True)
    metrics.update(layers.sweep_span_metrics(sweep_tracer.spans))

    tracer.write_csv(session.dir / "spans.csv")
    if sweep_tracer is not tracer:
        sweep_tracer.write_csv(session.dir / "spans_sweep.csv")
    detail = {"traced_wall_s": traced, "untraced_wall_s": untraced,
              "sweep_w1_s": w1, "sweep_w2_s": w2, "spans": len(tracer.spans), **tail_detail}
    return metrics, detail


def environment(workload, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        # timed commands run at 1 worker; sweeps are also run at this many
        # workers for the byte-identity check and for sweep.wall_s.w2
        "workers": {"timed": 1, "max": SWEEP_WORKERS},
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_revision": _git_revision(),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return caches


def _git_revision() -> str:
    """HEAD of the checkout, read from .git; 'unknown' outside a git clone."""
    git = ROOT_DIR / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    taxisim = import_taxisim()
    workload = WORKLOADS[args.workload]
    session = Session(workload, args.seed, gate.load_references(), WORK / workload.name)
    if args.trace:
        metrics, detail = per_layer(session, taxisim, args.seconds)
        units = dict(layers.PER_LAYER)
    else:
        metrics, detail = end_to_end(session, taxisim.cli.main, args.seconds)
        units = dict(END_TO_END)

    env = environment(workload, args.seed, args.seconds, args.trace)
    fail_frac = session.failed / session.attempted
    record = {"env": env, "metrics": metrics, "units": units, "detail": detail,
              "attempted": session.attempted, "failed": session.failed,
              "fail_frac": fail_frac, "problems": session.problems}
    (session.dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("env: " + json.dumps(env))
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]!r} {unit}")
    print(f"{'fail_frac':40s} {fail_frac!r} ({session.failed} of {session.attempted} operations)")
    for name, note in DETAIL_NOTES.items():
        if name in detail:
            print(f"{name:40s} {detail[name]!r} {note}")
    for problem in session.problems[:20]:
        print("problem: " + problem)
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
