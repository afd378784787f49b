"""Count the SQP's Hessian resets over a fixed sweep of seeded placement solves.

The sweep is 196 solves, each mode in turn:
- K = 3, 6, 10 and 16, scene seeds 500-511, plain and with mixed
  configurations, solved with SolveSettings(mode, multistart=4,
  seed=<scene seed>): 96 solves per mode;
- the K=30 acceptance scenes, seeds 300 and 301, with multistart=8, seed=0
  and early_stop_objective=1e-12: 2 solves per mode.

Per mode it prints the solves, the feasible verdicts, the false positives
(feasible reports that oracle.verify_solution rejects), the SQP iterations of
the reported starts (polish included) and the Hessian resets, which a handler
counts from the cellplace.solver debug log. Each solve that resets gets one
line. The last line is one SHA-256 over the canonical reports (strict JSON,
keys sorted, elapsed_s dropped): two trees that take the same solve paths
print the same digest. The BLAS thread count is left as the environment sets
it, since the paths may differ between thread counts.

    OPENBLAS_NUM_THREADS=1 python3 scripts/fallback_sweep.py

Exits 1 on any false positive.
"""
import hashlib
import json
import logging
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cellplace.nlp import SolveSettings, solve_placement  # noqa: E402
from cellplace.oracle import verify_solution  # noqa: E402
from cellplace.scene import report_to_dict, synthesize_scene  # noqa: E402

SWEEP_COUNTS = (3, 6, 10, 16)
SWEEP_SEEDS = range(500, 512)
K30_SEEDS = (300, 301)


class _ResetCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.resets = 0

    def emit(self, record):
        if record.getMessage().startswith("hessian reset"):
            self.resets += 1


def _solves(mode):
    """(label, scene, settings) of every solve of one mode, in sweep order."""
    for count in SWEEP_COUNTS:
        for seed in SWEEP_SEEDS:
            for mixed in (False, True):
                label = f"K={count} seed {seed} {'mixed' if mixed else 'plain'}"
                yield label, synthesize_scene(
                    count=count, seed=seed, mixed_config=mixed), \
                    SolveSettings(mode=mode, multistart=4, seed=seed)
    for seed in K30_SEEDS:
        yield f"K=30 seed {seed}", synthesize_scene(count=30, seed=seed), \
            SolveSettings(mode=mode, multistart=8, seed=0,
                          early_stop_objective=1e-12)


def main() -> int:
    counter = _ResetCounter()
    solver_log = logging.getLogger("cellplace.solver")
    solver_log.setLevel(logging.DEBUG)
    solver_log.addHandler(counter)
    digest = hashlib.sha256()
    false_positives = 0
    for mode in ("squared", "abs"):
        solves = feasible = wrong = iterations = resets = 0
        for label, scene, settings in _solves(mode):
            counter.resets = 0
            report = solve_placement(scene, settings)
            raw = report_to_dict(report)
            del raw["elapsed_s"]
            digest.update(json.dumps(raw, sort_keys=True,
                                     allow_nan=False).encode() + b"\n")
            solves += 1
            if report.verdict == "feasible":
                feasible += 1
                wrong += not verify_solution(scene, report)[0]
            iterations += report.diagnostics["iterations"] + \
                report.diagnostics["polish_iterations"]
            resets += counter.resets
            if counter.resets:
                print(f"  {mode} {label}: {counter.resets} hessian reset(s)")
        print(f"{mode}: {solves} solves, {feasible} feasible, "
              f"{wrong} false positives, {iterations} SQP iterations, "
              f"{resets} hessian resets")
        false_positives += wrong
    print(f"reports sha256 {digest.hexdigest()}")
    return 1 if false_positives else 0


if __name__ == "__main__":
    sys.exit(main())
