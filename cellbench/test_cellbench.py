"""Tests of the benchmark itself (not of cellplace).

    python3 -m pytest -q cellbench
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import cellplace  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from cellplace import kinematics, nlp, oracle, scene  # noqa: E402


def _bindings():
    """Every attribute of every cellplace module, and PlacementProblem's."""
    snapshot = {}
    for name, module in sorted(sys.modules.items()):
        if name == "cellplace" or name.startswith("cellplace."):
            for attr, value in vars(module).items():
                snapshot[name, attr] = value
    for attr, value in vars(nlp.PlacementProblem).items():
        snapshot["PlacementProblem", attr] = value
    return snapshot


def _small_op():
    """A solve plus oracle checks on a K=2 scene: every solve layer runs."""
    sc = scene.synthesize_scene(count=2, seed=402)
    report = nlp.solve_placement(sc, nlp.SolveSettings(
        mode="squared", multistart=2, seed=0, early_stop_objective=1e-14))
    oracle.verify_solution(sc, report)
    oracle.placement_score(sc, cellplace.frame_from_pose(report.placement))
    return report


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    original = kinematics.backward7_all
    with layers.make_tracer():
        # a name imported into another module is wrapped there too
        for module in (kinematics, nlp, oracle, scene, cellplace):
            assert module.backward7_all is not original
        assert cellplace.solve_placement is nlp.solve_placement
        assert nlp.solve_placement.__wrapped__ is before["cellplace.nlp",
                                                         "solve_placement"]
    assert _bindings() == before
    try:
        with layers.make_tracer():
            raise KeyError("boom")
    except KeyError:
        pass
    assert _bindings() == before


def test_self_times_sum_to_at_most_traced_wall_time():
    _small_op()  # warm caches outside the trace
    tracer = layers.make_tracer()
    started = time.perf_counter()
    with tracer:
        _small_op()
    wall = time.perf_counter() - started
    assert tracer.stats["nlp.solve_placement"].calls == 1
    assert tracer.stats["kinematics.backward7_all"].calls > 0
    assert 0.0 < tracer.total_self_s() <= wall
    for stat in tracer.stats.values():
        assert 0.0 <= stat.self_s <= stat.wall_s + 1e-12


def test_counts_repeat_exactly_between_traced_passes():
    counts = []
    for _ in range(2):
        tracer = layers.make_tracer()
        with tracer:
            _small_op()
        counts.append(tracer.counts())
        values = layers.layer_values(tracer)
        assert values["solver.sqp_iterations"] > 0
        assert values["oracle.verify_solution.calls"] == 1
        # run.py adds the rest of the metrics BENCHMARK.json lists
        assert set(values) == set(layers.per_layer_units()) - set(
            layers.SETUP_AND_OVERHEAD)
    assert counts[0] == counts[1]


def test_one_seed_always_yields_identical_inputs(tmp_path):
    def files(seed, where):
        workloads.write_inputs("solve_squared", seed, tmp_path / where)
        return {p.name: p.read_bytes() for p in (tmp_path / where).iterdir()}

    first = files(5, "a")
    assert len(first) == 5
    assert files(5, "b") == first
    other = files(6, "c")
    assert other != first  # another seed permutes the points differently
    for name, raw in first.items():
        ids = sorted(p["id"] for p in json.loads(raw)["points"])
        assert ids == sorted(p["id"] for p in json.loads(other[name])["points"])


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"op_s_p50", "setup_s", "peak_rss_mb"}


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "grid_scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
