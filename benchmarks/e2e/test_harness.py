"""Checks of the benchmark harness itself, on the ``--smoke`` shapes.

Run explicitly (tier-1 ``testpaths`` does not collect it; about two minutes):

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def run(script, *args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One full ``--smoke`` run of all four workloads: (report, file, process)."""
    out = tmp_path_factory.mktemp("e2e") / "results.json"
    done = run(HERE / "run.py", "--smoke", "--seed", "2026", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), out, done


def test_declared_metrics_are_well_formed():
    names = END_TO_END + PER_LAYER
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert "setup_s" in END_TO_END
    assert SPEC["paths"] == ["benchmarks/e2e"]


def test_every_declared_metric_is_emitted_for_every_workload(smoke):
    report, _, done = smoke
    assert sorted(report["workloads"]) == sorted(WORKLOADS)
    for name, result in report["workloads"].items():
        assert sorted(result["end_to_end"]) == sorted(END_TO_END), name
        assert sorted(result["per_layer"]) == sorted(PER_LAYER), name
        for metric in END_TO_END:
            value = result["end_to_end"][metric]
            assert (value["median"] if isinstance(value, dict) else value) > 0, (name, metric)
        assert result["failed"] == 0 and result["failed_share"] == 0.0
        assert isinstance(result["counts_repeat"], bool)
        assert isinstance(result["unstable_counters"], list)
    for metric in END_TO_END + PER_LAYER:
        assert re.search(rf"^\s+{re.escape(metric)}\s+\S+ \S+", done.stdout, re.M), metric
    assert report["claim"] is None
    for key in ("commit", "nproc", "cpu", "python", "numpy", "sympy", "seed", "wall_s"):
        assert key in report["fingerprint"]


def test_self_times_fit_inside_the_traced_wall(smoke):
    report, _, _ = smoke
    for name, result in report["workloads"].items():
        layer = result["per_layer"]
        assert 0 < layer["trace.coverage_share"] <= 1.0 + 1e-9, name
        assert layer["trace.unexplained_s"] >= -1e-9, name
        spans = [
            json.loads(line)
            for line in (HERE / "out" / f"{name}.smoke.trace.jsonl").read_text().splitlines()
        ]
        wall = max(s["end"] for s in spans) - min(s["start"] for s in spans)
        assert sum(s["self_s"] for s in spans) <= wall + 1e-9, name
        assert all(s["self_s"] >= -1e-9 for s in spans), name


def test_layer_predictions_hold_on_the_smoke_shapes(smoke):
    report, _, _ = smoke
    it = report["workloads"]["it_mlp_10k"]["per_layer"]
    assert not any(
        value for metric, value in it.items()
        if metric.startswith(("engine.", "paillier.", "nizk."))
    )
    service = report["workloads"]["service_stats_9k"]
    assert service["per_layer"]["service.ingest.rejected"] == 10
    assert service["per_layer"]["service.queue.overloads"] >= 1
    assert service["per_layer"]["nizk.proofs_rejected"] == 2
    assert service["rejections"]["InvalidProofError"] == 2
    for name in ("core_dot_256", "cdn_mlp_128", "service_stats_9k"):
        assert report["workloads"][name]["per_layer"]["wire.encode_fallbacks"] == 0


@pytest.mark.parametrize("trace, declared", [("0", END_TO_END), ("1", PER_LAYER)])
def test_driver_result_line(trace, declared):
    done = run(HERE / "run.py", "--workload", "cdn_mlp_128", "--seed", "7",
               "--seconds", "1", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert sorted(line["metrics"]) == sorted(declared)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, metric in line["metrics"].items():
        assert sorted(metric) == ["unit", "value"] and metric["unit"] == units[name]


def test_injected_wrong_output_fails_the_run():
    done = run(HERE / "run.py", "--workload", "it_mlp_10k", "--seed", "7",
               "--seconds", "1", "--trace", "0", "--smoke", "--inject-fault")
    assert done.returncode == 1
    line = json.loads(done.stdout.splitlines()[-1])
    assert line["correct"] is False
    assert 0 < line["failed"] <= line["attempted"]


def test_without_the_repository_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run(tmp_path / "benchmarks" / "e2e" / "run.py", "--workload", "it_mlp_10k",
               "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_compare_agrees_with_itself_and_flags_a_regression(smoke, tmp_path):
    report, out, _ = smoke
    same = run(HERE / "compare.py", str(out), str(out))
    assert same.returncode == 0, same.stdout + same.stderr
    assert "regressed" not in same.stdout.split("rows,")[0]

    slower = copy.deepcopy(report)
    wall = slower["workloads"]["it_mlp_10k"]["end_to_end"]["run_wall_s"]
    for key in ("median", "min", "max"):
        wall[key] *= 2
    worse = tmp_path / "slower.json"
    worse.write_text(json.dumps(slower))
    flagged = run(HERE / "compare.py", str(out), str(worse))
    assert flagged.returncode == 1
    assert re.search(r"it_mlp_10k\s+run_wall_s .* regressed", flagged.stdout)
    # The other direction reads as a gain, not a regression.
    assert run(HERE / "compare.py", str(worse), str(out)).returncode == 0
