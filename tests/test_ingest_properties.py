"""Property tests of scene and report ingest and of strict report output.

Ingest may reject a document only with ParseError or ValidationError, however
the document is mangled; save_report must always write strict JSON. Every
place in a valid document gets random replacement values of its own, and
random multi-edit documents also delete and add keys. The examples are
derandomized, so a run is deterministic.
"""
import copy
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cellplace.errors import ParseError, ValidationError
from cellplace.geometry import Pose
from cellplace.oracle import IN_LIMITS, OUT_OF_LIMITS, OUT_OF_WORKSPACE
from cellplace.scene import (PointResult, SolutionReport, load_report,
                             report_to_dict, save_report, scene_from_dict)


def _settings(max_examples):
    return settings(derandomize=True, max_examples=max_examples,
                    deadline=None, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


BASE_SCENE = {
    "format_version": 1,
    "robot": {
        "name": "custom",
        "base": {"c": 180.0},
        "rows": [
            {"type": "R", "d": -400, "a": 25, "alpha": 90,
             "theta_min": -170, "theta_max": 170},
            {"type": "R", "a": 455, "theta_min": -190, "theta_max": 45},
            {"type": "R", "a": 35, "alpha": 90, "phi": -90,
             "theta_min": -120, "theta_max": 156},
            {"type": "P"},
            {"type": "R", "d": -420, "alpha": -90,
             "theta_min": -185, "theta_max": 185},
            {"type": "R", "alpha": 90, "theta_min": -120, "theta_max": 120},
            {"type": "R", "d": -80, "alpha": 180,
             "theta_min": -350, "theta_max": 350},
        ],
    },
    "tool": {"z": 50.0},
    "points": [
        {"id": "p1", "pose": {"x": 100.0, "y": 0.0, "z": 50.0}},
        {"id": "p2", "pose": {"x": 120.0, "a": 30.0}, "segment": "s"},
    ],
    "placement_bounds": {"x": [300, 700], "y": [-200, 200], "z": 400,
                         "a": [-45, 45]},
    "initial_placement": {"x": 500.0, "z": 400.0},
    "solve": {"mode": "abs", "multistart": 2, "seed": 3,
              "kkt_tolerance": 1e-6},
    "metadata": {"note": "base"},
}

BASE_REPORT = report_to_dict(SolutionReport(
    placement=Pose(317.25, -42.5, 410.0, 0.78, -0.12, 0.3), mode="abs",
    points=[
        PointResult(id="p1", config=5, v_mm=0.0,
                    joints=[0.1, -1.2, 1.3, 0.25, -0.5, 2.75],
                    axis_margins=[0.5, 0.25, 1.0, 2.0, 1.5, 3.0],
                    outcome=IN_LIMITS),
        PointResult(id="p2", config=0, v_mm=math.inf, joints=None,
                    axis_margins=[-math.inf] * 6, outcome=OUT_OF_WORKSPACE),
    ],
    objective=1.5e-11, verdict="infeasible",
    diagnostics={"iterations": 17, "status": "converged"}, elapsed_s=0.125))

# every value json.load can produce; NaN, infinities and huge integers too
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6)


def _paths(obj, prefix=()):
    """Every key path into a nested dict/list document, the root first."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    """A copy of doc with the value at path replaced."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _edited(doc, data):
    """A copy of doc with one to three random edits, each replacing,
    deleting or adding a value at a random place."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            doc = _replaced(doc, path, data.draw(json_values))
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]] if path else doc
        if action == "delete" and path:
            del parent[path[-1]]
        elif action == "add" and isinstance(target, dict):
            target[data.draw(st.text(max_size=6))] = data.draw(json_values)
        elif action == "add" and isinstance(target, list):
            target.append(data.draw(json_values))
    return doc


def _ingest_scene(raw, tmp_path):
    try:
        scene_from_dict(raw)
    except (ParseError, ValidationError):
        pass


def _ingest_report(raw, tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(raw))
    try:
        load_report(path)
    except (ParseError, ValidationError):
        pass


def _path_id(path):
    return ".".join(map(str, path)) or "root"


def test_base_documents_load(tmp_path):
    scene_from_dict(copy.deepcopy(BASE_SCENE))
    path = tmp_path / "report.json"
    path.write_text(json.dumps(BASE_REPORT))
    load_report(path)


@pytest.mark.parametrize("path", list(_paths(BASE_SCENE)), ids=_path_id)
@_settings(4)
@given(value=json_values)
def test_scene_value_replaced(tmp_path, path, value):
    _ingest_scene(_replaced(BASE_SCENE, path, value), tmp_path)


@pytest.mark.parametrize("path", list(_paths(BASE_REPORT)), ids=_path_id)
@_settings(4)
@given(value=json_values)
def test_report_value_replaced(tmp_path, path, value):
    _ingest_report(_replaced(BASE_REPORT, path, value), tmp_path)


@pytest.mark.parametrize("base, ingest", [(BASE_SCENE, _ingest_scene),
                                          (BASE_REPORT, _ingest_report)],
                         ids=["scene", "report"])
@_settings(30)
@given(data=st.data())
def test_edited_document(tmp_path, base, ingest, data):
    ingest(_edited(base, data), tmp_path)


floats = st.floats()
point_results = st.builds(
    PointResult, id=st.text(min_size=1, max_size=4),
    config=st.integers(0, 7), v_mm=floats,
    joints=st.none() | st.lists(floats, min_size=6, max_size=6),
    axis_margins=st.lists(floats, min_size=6, max_size=6),
    outcome=st.sampled_from([IN_LIMITS, OUT_OF_LIMITS, OUT_OF_WORKSPACE]))
reports = st.builds(
    SolutionReport,
    placement=st.builds(Pose, floats, floats, floats, floats, floats, floats),
    points=st.lists(point_results, max_size=3), objective=floats,
    mode=st.sampled_from(["squared", "abs"]),
    verdict=st.sampled_from(["feasible", "infeasible"]),
    diagnostics=st.dictionaries(st.text(max_size=6), json_values, max_size=4),
    elapsed_s=floats)


def _reject(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@_settings(30)
@given(report=reports)
def test_saved_report_is_strict_json(tmp_path, report):
    path = tmp_path / "report.json"
    save_report(report, path)
    json.loads(path.read_text(), parse_constant=_reject)
