"""BENCHMARK.json keeps to its contract and to the code."""

import json
import re

from conftest import REPO, SUITE

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _spec():
    with open(REPO / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_shape_and_limits():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/suite"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_workloads_match_the_code():
    import workloads
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tooling_hygiene():
    """pyproject collects bench_*.py / test_*.py under ``pytest benchmarks/``."""
    for path in SUITE.rglob("*.py"):
        if path.parent.name != "tests":
            assert not path.name.startswith(("bench_", "test_")), path
