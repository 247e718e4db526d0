"""Tests of the benchmark's own logic: span accounting, metric names, the
BENCHMARK.json description, and the tracer's patching on the real package."""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_times_of_a_synthetic_span_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # d [6, 8] and e [7, 8.5] overlap inside b.
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("d", 6.0, 8.0, 3),
        ("e", 7.0, 8.5, 3),
    ]
    starts = [s for _, s, _, _ in spans]
    ends = [e for _, _, e, _ in spans]
    parents = [p for _, _, _, p in spans]
    got = tracer.self_times(starts, ends, parents)
    assert got == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.0, 1.5])


def test_children_outside_their_parent_are_clipped():
    got = tracer.self_times([0.0, -1.0, 1.5], [2.0, 0.5, 3.0], [-1, 0, 0])
    assert got[0] == pytest.approx(2.0 - 0.5 - 0.5)


def test_uncovered_time_counts_gaps_between_top_level_spans():
    starts, ends, parents = [1.0, 2.0, 5.0], [3.0, 2.5, 6.0], [-1, 0, -1]
    assert tracer.uncovered_time(starts, ends, parents, 0.0, 10.0) == pytest.approx(7.0)


def test_tail_percentile_keeps_ten_calls_beyond_it():
    assert tracer.tail_percentile(1) == 50.0
    assert tracer.tail_percentile(19) == 50.0
    assert tracer.tail_percentile(20) == 50.0
    assert tracer.tail_percentile(99) == 50.0
    assert tracer.tail_percentile(100) == 90.0
    assert tracer.tail_percentile(1000) == 99.0
    assert tracer.tail_percentile(10_000) == 99.9
    values = list(range(1, 101))
    assert tracer.percentile(values, 50.0) == 50
    assert tracer.percentile(values, 90.0) == 90


def test_metric_names_units_and_counts():
    e2e = [name for name, *_ in workload.END_TO_END]
    layer = [name for name, _ in workload.PER_LAYER]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    assert len(set(e2e + layer)) == len(e2e) + len(layer)
    for name in e2e + layer + list(workload.WORKLOADS):
        assert NAME.fullmatch(name), name
    for _, unit, *_ in workload.END_TO_END + workload.PER_LAYER:
        assert UNIT.fullmatch(unit), unit
    assert ("setup_s", "s", "lower") == next(m[:3] for m in workload.END_TO_END if m[0] == "setup_s")


def test_benchmark_json_lists_what_the_script_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workload.WORKLOADS[w["name"]].why and len(w["why"]) <= 200
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(workload.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(workload.PER_LAYER)
    assert all(m["better"] in ("higher", "lower") for m in spec["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_per_layer_metrics_cover_every_declared_name():
    summary = {
        "callables": {
            "net.Conv2D.forward": {"calls": 2, "us_p50": 5.0, "us_tail": 6.0, "total_s": 0.5},
            "tensor.FeatureMap": {"calls": 10, "us_p50": 1.0, "us_tail": 2.0, "total_s": 1e-5},
        },
        "module_self_s": {m: 0.25 for m in tracer.MODULES},
        "metered": {"net.Conv2D.forward": 1e9},
    }
    passes = [
        workload.Round(seconds={"online_bs1": 2.0, "grad-bias": 1.0}, accuracy={"online_bs1": 0.95}),
        workload.Round(seconds={"online_bs1": 3.0, "grad-bias": 2.0}, accuracy={"online_bs1": 0.95}),
    ]
    metrics = workload.per_layer_metrics(summary, train_samples=5, overhead=1.2, untraced=passes)
    assert list(metrics) == [name for name, _ in workload.PER_LAYER]
    assert metrics["tensor.FeatureMap.per_sample"]["value"] == 2.0
    assert metrics["net.Conv2D.gflops"]["value"] == pytest.approx(2.0)
    assert metrics["online.forward_sample.calls"]["value"] == 0
    assert metrics["online_bs1_samples_per_s"]["value"] == pytest.approx(5000 / 2.5)
    assert metrics["online_bs1_val_accuracy"]["value"] == 0.95
    assert metrics["grad_bias_s"]["value"] == pytest.approx(1.5)
    assert metrics["batch_bs32_samples_per_s"]["value"] == 0.0


def test_tracer_restores_bindings_and_reproduces_outputs():
    from onlinenorm import datasets, experiments, net, online
    from onlinenorm.tensor import FeatureMap

    originals = (online.forward_sample, experiments.forward_sample, net.train, FeatureMap.__init__)
    spec = datasets.DatasetSpec(kind="gaussian-blobs", classes=3, samples=120, dim=4)
    cfg = net.TrainConfig(batch_size=1, epochs=1, hidden=8, normalizer="online", eta=0.01)

    def run():
        data = datasets.generate_dataset(spec, 3)
        train_set, val_set = data.split(0.25, 3)
        return repr(net.train(cfg, train_set, val_set)[0])

    before = run()
    t = tracer.Tracer()
    with t:
        assert online.forward_sample is not originals[0]
        assert experiments.forward_sample is not originals[1]
        traced = run()
    assert (online.forward_sample, experiments.forward_sample, net.train, FeatureMap.__init__) == originals
    assert traced == before

    names = [t.names[i] for i in t.span_name]
    assert names.count("online.forward_sample") == 90
    assert names.count("datasets.generate_dataset") == 1
    parent_of = {names[i]: names[p] for i, p in enumerate(t.span_parent) if p >= 0}
    assert parent_of["online.forward_sample"] == "online.OnlineNorm.forward"
    summary = tracer.summarize(t, min(t.span_start), max(t.span_end))
    total = sum(summary["module_self_s"].values()) + summary["untraced_s"]
    assert total == pytest.approx(summary["wall_s"], rel=1e-9)
