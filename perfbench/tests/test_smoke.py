"""Smoke test of the benchmark at toy size.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spec  # noqa: E402

SCORE = ("score-sat", "score-multi-default")


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)
    return proc


def _printed(stdout):
    """(workload, metric) -> unit from the human-readable metric lines."""
    found = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] in spec.WORKLOADS:
            float(parts[2])
            found[(parts[0], parts[1])] = parts[3]
    return found


def _check_schema(summary, metric_names):
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(summary["correct"], bool)
    assert isinstance(summary["attempted"], int) and summary["attempted"] >= 1
    assert isinstance(summary["failed"], int) and summary["failed"] >= 0
    assert set(summary["metrics"]) == set(metric_names)
    for entry in summary["metrics"].values():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])


def test_end_to_end_metrics_printed_with_units():
    proc = _bench("--workload", "all", "--seconds", "0.3", "--scale", "toy")
    assert proc.returncode == 0, proc.stderr
    printed = _printed(proc.stdout)
    for workload in spec.WORKLOADS:
        for metric, entry in spec.END_TO_END.items():
            assert printed[(workload, metric)] == entry["unit"]
        assert printed[(workload, "failed_frac")] == spec.REPORTED["failed_frac"]
        assert ((workload, "variants_per_s") in printed) == (workload in SCORE)
    summary = json.loads(proc.stdout.splitlines()[-1])
    _check_schema(summary, [f"{w}.{m}" for w in spec.WORKLOADS for m in spec.END_TO_END])
    assert summary["correct"] and summary["failed"] == 0


def test_traced_run_counters():
    proc = _bench("--workload", "all", "--trace", "1", "--scale", "toy")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    _check_schema(summary, [f"{w}.{m}" for w in spec.WORKLOADS for m in spec.PER_LAYER])
    assert summary["correct"]
    value = {k: v["value"] for k, v in summary["metrics"].items()}
    assert value["score-sat.scoring.passes_per_variant"] == 1.0
    for workload in SCORE:
        assert value[f"{workload}.autodiff.backward.calls"] == 0
    assert value["pretrain-desk.autodiff.backward.calls"] > 0
    assert value["score-multi-default.scoring.baseline_fallbacks"] > 0


def test_surface_points_repeat_exactly():
    def points():
        proc = _bench("--workload", "surface-mixed", "--trace", "1", "--scale", "toy")
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])["metrics"]["surface.points"]["value"]

    assert points() == points()


def test_single_workload_output_matches_contract():
    proc = _bench("--workload", "score-sat", "--seed", "3", "--seconds", "0.2",
                  "--trace", "0", "--scale", "toy")
    assert proc.returncode == 0, proc.stderr
    _check_schema(json.loads(proc.stdout.splitlines()[-1]), spec.END_TO_END)


def _measure_toy(name, tmp_path):
    run.import_program()
    import workloads
    plain, spare = (workloads.WORKLOADS[name](seed=1, scale="toy", workdir=tmp_path / side)
                    for side in ("plain", "spare"))
    plain.workdir.mkdir()
    spare.workdir.mkdir()
    return run.measure(plain, spare, seconds=0.2)


def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch):
    run.import_program()
    import protfit.surface

    real = protfit.surface.read_cloud_tsv

    def corrupted(path):
        cloud = real(path)
        cloud.points[0, 0] += 1e-6
        return cloud

    monkeypatch.setattr(protfit.surface, "read_cloud_tsv", corrupted)
    result = _measure_toy("surface-mixed", tmp_path)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["failed_frac"][0] == 1.0
    assert all("read back" in " ".join(m) for m in result["failures"].values())


def test_raising_op_counts_as_failed(tmp_path, monkeypatch):
    run.import_program()
    import protfit.scoring

    real = protfit.scoring.score_assay
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(protfit.scoring, "score_assay", flaky)
    result = _measure_toy("score-multi-default", tmp_path)
    assert result["failed"] == 1 and result["attempted"] >= 2
    assert "injected" in result["failures"][0][0]


def test_setup_failure_counts_as_failed(tmp_path, monkeypatch):
    run.import_program()
    import protfit.corpus

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(protfit.corpus, "make_motif_protein", broken)
    result = _measure_toy("score-sat", tmp_path)
    assert result["attempted"] == 1 and result["failed"] == 1
    assert "injected" in result["failures"][0][0]


def test_spec_covers_benchmark_json():
    run.import_program()
    import workloads

    assert list(spec.DETAILS) == spec.WORKLOADS == list(workloads.WORKLOADS)
    for prefix, targets in spec.LAYER_TARGETS.items():
        assert any(name.startswith(prefix) for name in spec.PER_LAYER), prefix
        for metric, names in targets:
            assert metric in spec.END_TO_END or metric in spec.REPORTED, metric
            assert set(names) <= set(spec.WORKLOADS), names
    for name in spec.PER_LAYER:
        assert any(name.startswith(prefix) for prefix in spec.LAYER_TARGETS), name


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / BENCH.name / "run.py"),
                           "--workload", "surface-mixed", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True, cwd=tmp_path,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("bad", [["--workload", "score-sat", "--seconds", "0"],
                                 ["--workload", "score-sat", "--trace", "2"],
                                 ["--workload", "no-such-workload"]])
def test_rejects_bad_arguments(bad):
    assert _bench(*bad).returncode != 0
