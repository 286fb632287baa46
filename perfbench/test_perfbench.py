"""Self-tests of the benchmark: python -m pytest -q perfbench"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import check  # noqa: E402
import lomo  # noqa: E402
import lomo.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "train-order": {
        "synth": {"pos": 10, "neg": 10, "d": 6, "n": 40, "neg_mode": "shuffled"},
    },
    "cv-preprocess": {
        "synth": {"pos": 10, "neg": 10, "d": 12, "n": 40, "neg_mode": "absent"},
        "cv": {"folds": 5, "pca_dim": 4, "max_iter": 100},
    },
}


def _tiny(tmp_path, workload, trace=False, seed=3):
    return run.run_workload(lomo, workload, seed, 0, trace, runs_dir=tmp_path,
                            sizes=TINY[workload])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert sorted(TINY) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_is_correct_and_emits_exactly_the_declared_metrics(tmp_path, workload, trace):
    record = _tiny(tmp_path, workload, trace)
    assert record["correct"], record["failures"]
    line = json.loads(run.result_line(record))
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    emitted = {name: metric["unit"] for name, metric in line["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(metric["value"] > 0 for metric in line["metrics"].values())
        samples = record["samples"]
        scaled = [w * k for w, k in zip(samples["wall_s"], samples["wall_scale"])]
        assert line["metrics"]["wall_s"]["value"] == statistics.median(scaled)
    assert not any(p.name.startswith("work-") for p in tmp_path.iterdir())


def test_traced_run_records_layers_of_the_workload(tmp_path):
    metrics = _tiny(tmp_path, "train-order", trace=True)["metrics"]
    steps = 100 * 20
    assert metrics["training.sgd_step.calls"] == steps
    assert 0 < metrics["training.sgd_step.update_ratio"] <= 1
    # predict scores 20 sequences after 2000 steps; both read every file twice
    assert metrics["inference.latent_assign.calls"] == steps + 20
    assert metrics["data.read_sequence.calls"] == 4 * 20
    assert metrics["data.pca_fit.calls"] == 0
    assert 0 < metrics["training.sgd_step.self_s"] < metrics["training.sgd_step.busy_s"]
    assert metrics["data.gen_synthetic.busy_s"] > 0
    spans = (tmp_path / "spans-train-order.csv").read_text().splitlines()
    assert spans[0] == "id,parent,name,start_ns,end_ns"
    assert any(",cli.train," in line for line in spans)


def test_tracer_wraps_every_binding_and_restores_it():
    original = lomo.data.read_sequence
    tracer = tracing.Tracer()
    with tracer.installed():
        wrapped = lomo.data.read_sequence
        assert wrapped is not original
        assert lomo.cli.read_sequence is wrapped and lomo.read_sequence is wrapped
        assert lomo.inference.perm_index is lomo.model.perm_index is not original
    assert lomo.data.read_sequence is original and lomo.cli.read_sequence is original


def test_rationale_covers_every_workload_and_layer_metric():
    rationale = json.loads((HERE / "rationale.json").read_text())
    assert sorted(rationale["workloads"]) == sorted(run.WORKLOADS)
    covered = {f"{layer}.{stat}" for layer, entry in rationale["layers"].items()
               for stat in entry["metrics"]}
    assert covered == {m["name"] for m in BENCH["per_layer"]}
    assert covered == set(tracing.layer_metric_names())


def _cli(argv):
    assert lomo.cli.main([str(a) for a in argv]) == 0


@pytest.fixture
def predicted(tmp_path):
    data, model, out = tmp_path / "data", tmp_path / "m.lomo", tmp_path / "p.csv"
    _cli(["synth", "--out", data, "--d", 5, "--n", 30, "--pos", 6, "--neg", 6])
    _cli(["train", "--manifest", data / "manifest.csv", "--out", model,
          "--positive-label", "pos", "--max-iter", 300])
    _cli(["predict", "--manifest", data / "manifest.csv", "--model", model, "--out", out])
    loaded = lomo.load_model(model)
    models = [(loaded.templates.tolist(), loaded.costs.tolist())]
    return out, data / "manifest.csv", models


def test_predict_check_accepts_lomo_output(predicted):
    out, manifest, models = predicted
    assert check.check_predict(out, manifest, models, 5) == (14, [])


def test_predict_check_rejects_one_perturbed_score(predicted):
    out, manifest, models = predicted
    lines = out.read_text().splitlines()
    rec_id, score, decision = lines[3].split(",")
    lines[3] = f"{rec_id},{float(score) + 1e-6!r},{decision}"
    out.write_text("\n".join(lines) + "\n")
    attempted, failures = check.check_predict(out, manifest, models, 5)
    assert attempted == 14 and len(failures) == 1 and rec_id in failures[0]


def test_predict_check_rejects_a_decision_against_the_sign(predicted):
    out, manifest, models = predicted
    lines = out.read_text().splitlines()
    rec_id, score, decision = lines[1].split(",")
    lines[1] = f"{rec_id},{score},{-int(decision)}"
    out.write_text("\n".join(lines) + "\n")
    assert len(check.check_predict(out, manifest, models, 5)[1]) == 1


def test_cv_check(tmp_path):
    path = tmp_path / "cv.csv"
    path.write_text("fold,metric,value\n0,eer,0.5\n1,eer,0.75\nmean,eer,0.625\n")
    assert check.check_cv(path, 2, "eer") == (6, [])
    path.write_text("fold,metric,value\n0,eer,0.5\n1,eer,0.75\nmean,eer,0.6\n")
    assert len(check.check_cv(path, 2, "eer")[1]) == 1
    path.write_text("fold,metric,value\n0,eer,0.5\nmean,eer,0.5\n")
    assert len(check.check_cv(path, 2, "eer")[1]) == 1
    path.write_text("fold,metric,value\n0,eer,1.5\n1,eer,0.5\nmean,eer,1.0\n")
    assert len(check.check_cv(path, 2, "eer")[1]) == 1


def test_digests_are_compared_with_earlier_runs_of_the_same_code_and_seed(tmp_path):
    first = _tiny(tmp_path, "cv-preprocess")
    second = _tiny(tmp_path, "cv-preprocess")
    assert second["correct"] and second["attempted"] == first["attempted"] + 1
    assert second["digests"] == first["digests"] and "cv" in first["digests"]
    records = tmp_path / "runs.jsonl"
    tampered = [json.loads(line) for line in records.read_text().splitlines()]
    for record in tampered:
        record["digests"]["cv"] = "0" * 64
    records.write_text("".join(json.dumps(r) + "\n" for r in tampered))
    third = _tiny(tmp_path, "cv-preprocess")
    assert not third["correct"] and any("earlier run" in f for f in third["failures"])


def test_fails_without_printing_a_result_when_only_the_benchmark_is_present(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-order", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
