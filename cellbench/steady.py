"""Steadiness check: run workloads in two sets of ten seeded runs each.

    python3 cellbench/steady.py --workload solve_squared --seconds 15

Each set runs each named workload ten times, each time with a new seed,
through ``run.py --trace 0``; the second set runs after the first, so the
two are taken at different times. For each (workload, end-to-end metric) it prints every
set's median, quartiles and spread (interquartile distance over the median,
as ``statistics.quantiles(values, n=4)`` gives the quartiles), the gap
between each set's median and the first set's, and the host calibration
figures of each set, which tell a host drift from a program change.
``--json FILE`` also writes all values.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CALIB = re.compile(r"^(host\.calib_\w+) start=(\S+) end=(\S+)$")
RUNS = 10
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        match = CALIB.match(line)
        if match:
            values[match[1]] = 0.5 * (float(match[2]) + float(match[3]))
    return values


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)

    # raw[set][workload][metric] -> values in run order
    raw = []
    seed = args.first_seed
    for set_index in range(SETS):
        per_workload = {}
        for workload in args.workload:
            runs = []
            for _ in range(RUNS):
                runs.append(one_run(workload, seed, args.seconds))
                print(f"set {set_index + 1} {workload} seed {seed}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
                      flush=True)
                seed += 1
            per_workload[workload] = {name: [r[name] for r in runs]
                                      for name in runs[0]}
        raw.append(per_workload)

    report = {}
    for workload in args.workload:
        for name in raw[0][workload]:
            sets = [summary(raw[s][workload][name]) for s in range(SETS)]
            first = sets[0]["median"]
            for s, stats in enumerate(sets):
                stats["gap_vs_set1"] = stats["median"] / first - 1.0 if first else 0.0
                print(f"{workload:17s} {name:18s} set {s + 1}: median "
                      f"{stats['median']:.6g} q1 {stats['q1']:.6g} q3 "
                      f"{stats['q3']:.6g} spread {stats['spread']:.4f} gap "
                      f"{stats['gap_vs_set1']:+.4f}")
            report[f"{workload}/{name}"] = sets
    if args.json:
        args.json.write_text(json.dumps({"summary": report, "raw": raw}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
