"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Every workload must run clean and report exactly the metrics that
BENCHMARK.json declares; a deliberately corrupted output must count as a
failed op; and the command must refuse a checkout without src/lcmlat.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import lcmlat.audit  # noqa: E402
import lcmlat.cli  # noqa: E402
import lcmlat.properties  # noqa: E402
from lcmlat.audit import GeneratorConfig  # noqa: E402
from run import measure  # noqa: E402
from workloads import AuditStream, BooleanMatching, RandomIdeals, reference_streams  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_EXHAUSTIVE = {
    "boolean": GeneratorConfig(n_range=(2, 4), k_range=(2, 3), m_range=(1, 2)),
    "relatively-complemented": GeneratorConfig(n_range=(2, 4), k_range=(2, 2), m_range=(1, 3)),
}


def tiny(name: str):
    if name == "audit-stream":
        seeded = (("polarization-iso", "1..3", "1..3", 3), ("birkhoff-crosscheck", "1..3", "1..3", 3))
        return AuditStream(reference_streams(TINY_EXHAUSTIVE), TINY_EXHAUSTIVE, seeded)
    if name == "boolean-matching":
        return BooleanMatching({}, slots=((2, 2), (3, 3)))
    return RandomIdeals({}, targets={3: 5, 4: 9}, per_m=1, candidates=4)


NAMES = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_clean_with_declared_metrics(name, trace, tmp_path):
    result = measure(tiny(name), seed=1, seconds=0, trace=trace, workdir=tmp_path)
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: unit for k, (_, unit) in result["metrics"].items()}


def test_nested_decider_calls_are_not_verdicts(tmp_path):
    """Each interval that is_relatively_complemented scans is one nested is_complemented call."""
    metrics = measure(tiny("audit-stream"), seed=1, seconds=0, trace=True,
                      workdir=tmp_path)["metrics"]
    nested = metrics["properties.is_complemented.nested_calls"][0]
    assert nested > 0
    assert nested == metrics["lattice.interval.calls"][0]


def _flip_one_agree(monkeypatch):
    original = lcmlat.audit.audit_instance
    flipped = []

    def corrupt(name, instance):
        report = original(name, instance)
        if name == "relatively-complemented" and not flipped:
            flipped.append(instance)
            report = dataclasses.replace(report, agree=not report.agree)
        return report

    monkeypatch.setattr(lcmlat.audit, "audit_instance", corrupt)


def _drop_one_cover(monkeypatch):
    original = lcmlat.cli.lattice_json

    def corrupt(lattice):
        data = json.loads(original(lattice))
        data["covers"].pop()
        return json.dumps(data, sort_keys=True)

    monkeypatch.setattr(lcmlat.cli, "lattice_json", corrupt)


def _reorder_verdicts(monkeypatch):
    original = lcmlat.properties.all_properties
    monkeypatch.setattr(lcmlat.properties, "all_properties", lambda L: original(L)[::-1])


CORRUPTIONS = {
    "audit-stream": _flip_one_agree,
    "boolean-matching": _drop_one_cover,
    "random-ideals": _reorder_verdicts,
}


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_output_is_a_failed_op(name, tmp_path, monkeypatch):
    workload = tiny(name)
    CORRUPTIONS[name](monkeypatch)
    result = measure(workload, seed=1, seconds=0, trace=False, workdir=tmp_path)
    assert 0 < result["failed"] <= result["attempted"]


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
