"""Tests of the benchmark itself, on tiny versions of its workloads.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import spans  # noqa: E402

TINY_DIMS = {"robust_chain": (6,), "sparse_grid3d": (2, 2, 3), "exhaustive_small": (2, 3)}
TINY_SEEDS = (11, 12)


def tiny(name):
    w = harness.WORKLOADS[name]
    return dataclasses.replace(w, generate={**w.generate, "dims": TINY_DIMS[name]}, seeds=TINY_SEEDS)


def _declared(key):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[key]}


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(name, tmp_path):
    line, full = harness.run(tiny(name), seed=3, seconds=0.0, out_dir=tmp_path)
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == len(TINY_SEEDS)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert full["unpinned_seeds"] == list(TINY_SEEDS)
    assert json.loads(Path(full["path"]).read_text())["summary"] == line


def test_failed_solve_leaves_replayable_witness(tmp_path, monkeypatch):
    from submodqp import cli, model

    refs = tmp_path / "references.json"
    refs.write_text(json.dumps({"robust_chain": {str(TINY_SEEDS[0]): 1e6}}))
    monkeypatch.setattr(harness, "REFERENCES", refs)
    line, full = harness.run(tiny("robust_chain"), seed=0, seconds=0.0, out_dir=tmp_path)
    assert not line["correct"] and line["failed"] == 1
    assert line["metrics"]["verified_frac"]["value"] == 0.5
    (witness,) = full["witnesses"]
    payload = json.loads(Path(witness).read_text())
    assert payload["instance_seed"] == TINY_SEEDS[0] and "pinned reference" in payload["failures"][0]
    instance = tmp_path / payload["replay"].split()[2]
    assert model.load_instance(instance).n == TINY_DIMS["robust_chain"][0]
    assert cli.main(["solve", str(instance), "--engine", "mnp", "--tol", "1e-06"]) == 0


def _counts(line):
    return {k: v["value"] for k, v in line["metrics"].items() if v["unit"] == "count"}


def test_traced_runs_repeat_counts_and_restore_functions(tmp_path):
    before = spans.originals()
    w = tiny("robust_chain")
    first, _ = harness.run(w, seed=1, trace=True, out_dir=tmp_path)
    second, full = harness.run(w, seed=2, trace=True, out_dir=tmp_path)
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == _declared("per_layer")
    assert _counts(first) == _counts(second)
    assert _counts(first)["pathtrace.chains"] > 0
    assert Path(full["detail"]["spans"]).is_file()
    after = spans.originals()
    assert all(after[name] is before[name] for name in before)
