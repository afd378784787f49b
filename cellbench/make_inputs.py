"""Write one workload's input scenes for a seed.

run.py times this script in a fresh interpreter to measure set-up: start
Python, import cellplace, build the robot, synthesize and write the scenes.
It prints one JSON line with the seconds spent in synthesize_scene.

    python3 cellbench/make_inputs.py --workload solve_squared --seed 1 --out DIR
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    synth_s = workloads.write_inputs(args.workload, args.seed, args.out)
    print(json.dumps({"synthesize_s": synth_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
