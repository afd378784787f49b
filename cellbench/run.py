"""cellplace benchmark: time to an oracle-verified result on fixed workloads.

    python3 cellbench/run.py --workload solve_squared --seed 1 --seconds 15 --trace 0

One single-threaded process, one closed-loop caller, BLAS pinned to one
thread. Set-up runs ``make_inputs.py`` several times in fresh interpreters.
Then one warm-up pass runs every input once, and whole passes follow until
``--seconds`` have elapsed. Every operation's result is checked outside the
timed region. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones. With ``--trace 1``, each input runs
untraced and then traced in every pass, and the metrics are the per-layer
ones. The lines above it give provenance, host calibration and per-input
figures. The exit code is 0 only when every result is correct. It is 2, with
no JSON line, when the checkout holds no cellplace sources.
"""
import os

# must precede the first numpy import, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# provenance and host calibration
# ---------------------------------------------------------------------------

def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot tell."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle
                     if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance() -> list[str]:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else "unknown"
    return [
        f"python {platform.python_version()} numpy {numpy.__version__} "
        f"scipy {scipy.__version__} blas {blas.get('name', '?')} "
        f"{blas.get('version', '?')}",
        f"blas threads {_openblas_threads()} "
        f"(OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}, "
        f"OMP_NUM_THREADS={os.environ['OMP_NUM_THREADS']}) "
        f"cpu affinity {affinity} machine {platform.machine()}",
        f"commit {commit}",
    ]


def calibrate() -> tuple[float, float]:
    """Seconds for a fixed pure-Python loop and for 50 n=486 cho_solves.

    Each is the median of five repeats. The program does not enter them, so
    a change between sets of runs in these figures is the host's.
    """
    import numpy as np
    import scipy.linalg
    rng = np.random.default_rng(0)
    a = rng.standard_normal((486, 486))
    factor = scipy.linalg.cho_factor(a @ a.T + 486.0 * np.eye(486))
    rhs = rng.standard_normal(486)
    py, blas = [], []
    for _ in range(5):
        started = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        py.append(time.perf_counter() - started)
        started = time.perf_counter()
        for _ in range(50):
            scipy.linalg.cho_solve(factor, rhs)
        blas.append(time.perf_counter() - started)
    return statistics.median(py), statistics.median(blas)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Setup:
    """Fresh-interpreter runs of make_inputs.py, timed from outside.

    The host's speed shifts over tens of seconds, so the repeats are spread
    over the run (one between passes) rather than made in one burst; the
    median then samples the host at several times. Every repeat must write
    byte-identical inputs.
    """

    def __init__(self, workload: str, seed: int, work: Path):
        self.command = [sys.executable, str(HERE / "make_inputs.py"),
                        "--workload", workload, "--seed", str(seed)]
        self.work = work
        self.walls: list[float] = []
        self.synth: list[float] = []
        self.digests: list[str] = []

    def repeat(self) -> Path:
        out = self.work / f"inputs{len(self.walls)}"
        started = time.perf_counter()
        proc = subprocess.run(self.command + ["--out", str(out)],
                              capture_output=True, text=True, timeout=120,
                              check=False)
        self.walls.append(time.perf_counter() - started)
        if proc.returncode != 0:
            raise RuntimeError(f"make_inputs.py failed:\n{proc.stderr}")
        self.synth.append(
            json.loads(proc.stdout.strip().splitlines()[-1])["synthesize_s"])
        self.digests.append(_digest(out))
        return out

    def finish(self, runner) -> tuple[float, float]:
        """Top up to SETUP_REPEATS; return median (wall, synthesize) seconds."""
        while len(self.walls) < SETUP_REPEATS:
            self.repeat()
        if len(set(self.digests)) != 1:
            runner.problems.append("set-up: one seed gave different input files")
        return statistics.median(self.walls), statistics.median(self.synth)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Runner:
    """Runs operations, checks each result and keeps the tallies."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.reference = {}  # input index -> fingerprint of its first result
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []  # one line on each input's first result

    def timed_op(self, inp, tracer=None):
        """(seconds, output) of one operation, or (None, None) if it raised.

        Only the operation itself is inside the timed region (and inside
        the tracer); ``gc.collect()`` runs before it, outside.
        """
        gc.collect()
        try:
            with tracer if tracer is not None else contextlib.nullcontext():
                started = time.perf_counter()
                out = self.workload.run(inp)
                return time.perf_counter() - started, out
        except Exception as exc:  # noqa: BLE001 - count it and go on
            self.problems.append(f"operation raised {type(exc).__name__}: {exc}")
            return None, None

    def check(self, index: int, out) -> None:
        """Check one output of input ``index``; None means the op raised."""
        self.attempted += 1
        if out is None:
            self.failed += 1
            return
        problems = self.workload.check(self.inputs[index], out)
        fingerprint = self.workload.fingerprint(out)
        if index not in self.reference:
            self.reference[index] = fingerprint
            self.notes.append(f"input {index}: {self.workload.note(out)}")
        elif fingerprint != self.reference[index]:
            problems.append("result differs from the first run of this input")
        if problems:
            self.failed += 1
            self.problems.extend(f"input {index}: {p}" for p in problems)

    def run_pass(self) -> list:
        """One operation per input, then the checks; returns the seconds."""
        times, outputs = zip(*(self.timed_op(inp) for inp in self.inputs))
        for index, out in enumerate(outputs):
            self.check(index, out)
        return list(times)

    def paired_pass(self, tracer) -> tuple[list, list]:
        """Each input untraced, then traced; returns both lists of seconds.

        Pairing the two runs of an input in time keeps the host's drift out
        of the tracing overhead. Each output is checked before the next
        operation, which overwrites the report file it wrote.
        """
        plain, traced = [], []
        for index, inp in enumerate(self.inputs):
            for times, op_tracer in ((plain, None), (traced, tracer)):
                elapsed, out = self.timed_op(inp, op_tracer)
                self.check(index, out)
                times.append(elapsed)
        return plain, traced


def pooled_tail(samples: list[float]) -> str:
    """Highest pooled percentile with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return f"pooled n={n}: too few samples for a tail percentile"
    pct = math.floor(100.0 * (n - 10) / n)
    return f"pooled p{pct}={ordered[n - 11]:.4f} s (n={n}, 10 samples above)"


def measure_untraced(runner: Runner, seconds: float, between, lines: list) -> dict:
    """Whole timed passes until ``seconds`` of pass time; ``between()`` runs
    after each pass, outside the timed region and outside the budget."""
    per_input = [[] for _ in runner.inputs]
    pass_walls = []
    while sum(pass_walls) < seconds:
        started = time.perf_counter()
        times = runner.run_pass()
        pass_walls.append(time.perf_counter() - started)
        for samples, t in zip(per_input, times):
            if t is not None:
                samples.append(t)
        between()
    for index, samples in enumerate(per_input):
        shown = f"{statistics.median(samples):.4f} s" if samples else "none"
        lines.append(f"input {index}: median {shown} over {len(samples)} repeats")
    lines.append(pooled_tail([t for s in per_input for t in s]))
    lines.append("pass seconds " + " ".join(f"{t:.4f}" for t in pass_walls))
    if not all(per_input):
        return {}
    return {"op_s_p50": (_geomean([statistics.median(s) for s in per_input]), "s")}


def measure_traced(runner: Runner, seconds: float, between, lines: list) -> dict:
    """Paired untraced/traced passes until ``seconds`` of pass time and at
    least two traced passes (four at most if operations fail)."""
    import layers
    ratios, traced_s, values, counts = [], [], [], []
    spent, cycles = 0.0, 0
    while spent < seconds or (len(values) < 2 and cycles < 4):
        started = time.perf_counter()
        tracer = layers.make_tracer()
        plain, traced = runner.paired_pass(tracer)
        if None not in plain and None not in traced:
            ratios.append(sum(traced) / sum(plain))
            traced_s.append(sum(traced))
            values.append(layers.layer_values(tracer))
            counts.append(tracer.counts())
            if tracer.total_self_s() > traced_s[-1]:
                runner.problems.append("trace: self times sum above the traced wall time")
        spent += time.perf_counter() - started
        cycles += 1
        between()
    if not values:
        return {}
    if any(c != counts[0] for c in counts):
        runner.problems.append("trace: counts differ between traced passes")
    lines.append(f"traced passes {len(values)}: " +
                 " ".join(f"{t:.4f}" for t in traced_s))
    # counts repeat exactly, so only times take a true median
    metrics = {name: (statistics.median_low if isinstance(values[0][name], int)
                      else statistics.median)([v[name] for v in values])
               for name in values[0]}
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    return metrics


def _geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cellplace" / "__init__.py").is_file():
        print(f"no cellplace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cellplace
    if Path(cellplace.__file__).resolve().parent != SRC / "cellplace":
        print(f"imported cellplace from {cellplace.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import layers
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    lines = provenance()
    calib_start = calibrate()
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="cellbench-", dir=build))
    try:
        setup = Setup(args.workload, args.seed, work)
        workload = workloads.WORKLOADS[args.workload]
        inputs = [workload.prepare(path, work)
                  for path in workloads.scene_files(setup.repeat())]
        runner = Runner(workload, inputs)
        runner.run_pass()  # warm-up, checked but not timed
        lines.extend(runner.notes)
        setup.repeat()
        if args.trace:
            metrics = measure_traced(runner, args.seconds, setup.repeat, lines)
            setup_s, synth_s = setup.finish(runner)
            if metrics:
                metrics["scene.synthesize_scene.s"] = synth_s
                metrics = {name: (metrics[name], unit)
                           for name, unit in layers.per_layer_units().items()}
        else:
            metrics = measure_untraced(runner, args.seconds, setup.repeat, lines)
            setup_s, synth_s = setup.finish(runner)
            if metrics:
                metrics["setup_s"] = (setup_s, "s")
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
        lines.append(f"set-up repeats {len(setup.walls)}: " +
                     " ".join(f"{t:.4f}" for t in setup.walls))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    calib_end = calibrate()

    correct = runner.failed == 0 and not runner.problems and bool(metrics)
    lines.append(f"host.calib_py_s start={calib_start[0]:.6f} end={calib_end[0]:.6f}")
    lines.append(f"host.calib_blas_s start={calib_start[1]:.6f} end={calib_end[1]:.6f}")
    lines.append(f"attempted {runner.attempted} failed {runner.failed} failed_frac "
                 f"{runner.failed / max(runner.attempted, 1):.6f}")
    lines.extend(f"problem: {p}" for p in runner.problems[:20])
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
