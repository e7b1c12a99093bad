"""Tests of the benchmark itself (``pytest bench -q``; not tier-1)."""

from __future__ import annotations

import json

import pytest

from bench import compare, harness, workloads
from bench.tracer import Tracer, self_times, span_counts

harness.program_on_path()

SMOKE_SCALE = 0.02  # 1/50 of every count


# -- tracer arithmetic --------------------------------------------------------
def test_self_time_nested_spans_sum_to_the_root():
    spans = [
        ("run", 0, 100, -1),
        ("netsim", 10, 90, 0),
        ("runtime.device", 20, 60, 1),
        ("ir.interp", 30, 50, 2),
        ("host_app", 70, 80, 1),
    ]
    by_root = self_times(spans)
    assert by_root == {
        "run": {
            "run": 20, "netsim": 30, "runtime.device": 20, "ir.interp": 20,
            "host_app": 10,
        }
    }
    assert sum(by_root["run"].values()) == 100


def test_self_time_recursive_same_name_counts_each_ns_once():
    # host_app -> reliability.channel -> host_app (channel re-enters the app)
    spans = [
        ("run", 0, 50, -1),
        ("host_app", 0, 40, 0),
        ("reliability.channel", 5, 35, 1),
        ("host_app", 10, 30, 2),
        ("setup", 60, 70, -1),
        ("compile", 61, 69, 4),
    ]
    by_root = self_times(spans)
    assert by_root["run"] == {"run": 10, "host_app": 10 + 20, "reliability.channel": 10}
    assert by_root["setup"] == {"setup": 2, "compile": 8}
    assert span_counts(spans)["host_app"] == 2


def test_tracer_wrap_records_parents_and_survives_exceptions():
    tracer = Tracer()

    def inner(n):
        if n == 0:
            raise ValueError("boom")
        return traced_inner(n - 1)

    traced_inner = tracer.wrap(inner, "inner")
    tracer.begin("run")
    with pytest.raises(ValueError):
        traced_inner(2)
    traced_inner_sibling = tracer.wrap(lambda: None, "sibling")
    traced_inner_sibling()
    tracer.end()
    spans = tracer.spans()
    assert [s[0] for s in spans] == ["run", "inner", "inner", "inner", "sibling"]
    assert [s[3] for s in spans] == [-1, 0, 1, 2, 0]
    assert all(end >= start for _, start, end, _ in spans)
    tracer.begin("left open")
    with pytest.raises(RuntimeError):
        tracer.spans()
    assert sum(self_times(spans)["run"].values()) == spans[0][2] - spans[0][1]


# -- comparator ---------------------------------------------------------------
def _detail(walls, *, rss=60.0, failed=0, facts=None):
    return {
        "seed": 7, "import_s": 0.5, "failed": failed, "attempted": 10,
        "wall_samples_s": walls, "setup_samples_s": [0.1, 0.1, 0.1],
        "facts": facts or {"sim_done_ns": 1000},
        "metrics": {
            "wall_s": sorted(walls)[len(walls) // 2], "setup_s": 0.6,
            "peak_rss_mb": rss,
        },
    }


BOUNDS = {"wall_s": 0.10, "setup_s": 0.25, "peak_rss_mb": 0.10}


def _verdicts(a, b):
    rows = compare.compare({"w": a}, {"w": b}, BOUNDS)
    return {metric: verdict for _, metric, *_, verdict in rows}


def test_compare_verdicts():
    base = _detail([1.00, 1.01, 1.02])
    assert _verdicts(base, _detail([1.00, 1.02, 1.03]))["wall_s"] == "ok"
    # median 30% worse and every sample worse: a regression
    assert _verdicts(base, _detail([1.30, 1.31, 1.32]))["wall_s"] == "REGRESSION"
    # median worse past the bound but the ranges overlap: unresolved
    assert _verdicts(base, _detail([1.01, 1.20, 1.25]))["wall_s"] == "unresolved"
    # median fine, but one side's own spread is wider than the bound
    assert _verdicts(base, _detail([0.95, 1.01, 1.15]))["wall_s"] == "unresolved"
    assert _verdicts(base, _detail([0.80, 0.81, 0.82]))["wall_s"] == "better"
    assert _verdicts(base, _detail([1.0, 1.01, 1.02], rss=70.0))["peak_rss_mb"] == "REGRESSION"


def test_compare_exact_metrics_and_exit_status(tmp_path, capsys):
    base = _detail([1.0, 1.01, 1.02])
    v = _verdicts(base, _detail([1.0, 1.01, 1.02], facts={"sim_done_ns": 1001}))
    assert v["sim_done_ns"] == "REGRESSION"
    assert _verdicts(base, _detail([1.0, 1.01, 1.02], failed=1))["failed"] == "REGRESSION"
    assert _verdicts(base, base)["sim_done_ns"] == "same"

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"w": base}))
    b.write_text(json.dumps({"w": _detail([1.0, 1.01, 1.02], failed=1)}))
    assert compare.main(str(a), str(a)) == 0
    assert compare.main(str(a), str(b)) == 1
    other_seed = dict(base, seed=11)
    b.write_text(json.dumps({"w": other_seed}))
    assert compare.main(str(a), str(b)) == 2
    capsys.readouterr()


# -- input generation ---------------------------------------------------------
def test_inputs_repeat_for_a_seed_and_differ_between_seeds():
    assert workloads.rpc_ops(7, 0, 200) == workloads.rpc_ops(7, 0, 200)
    assert workloads.rpc_ops(7, 0, 200) != workloads.rpc_ops(11, 0, 200)
    assert workloads.rpc_ops(7, 0, 200) != workloads.rpc_ops(7, 1, 200)
    ops = workloads.rpc_ops(7, 0, 2000)
    kinds = [op[0] for op in ops]
    assert (kinds.count("get"), kinds.count("bump"), kinds.count("gather")) == (
        1200, 200, 600,
    )  # the mix is exact, only the order and the keys are drawn
    assert sum(1 for op in ops if op[0] == "get" and op[1] < 1000) == 840
    assert len({op[1] for op in ops if op[0] == "bump"}) == kinds.count("bump")

    assert workloads.service_plan(7, 6).to_dict() == workloads.service_plan(7, 6).to_dict()
    assert workloads.service_plan(7, 6).seed != workloads.service_plan(11, 6).seed

    w = workloads.AllreduceClean()
    assert w.build(7, SMOKE_SCALE).tensors == w.build(7, SMOKE_SCALE).tensors
    assert w.build(7, SMOKE_SCALE).tensors != w.build(11, SMOKE_SCALE).tensors


def test_compile_units_match_the_cluster_builders():
    """The role defines are spelled out in bench so a round-unique comment
    can be appended; they must produce what the builders produce."""
    from repro.collective import compile_role, leaf_device
    from repro.core import compile_netcl
    from repro.apps import netcl_source
    from repro.rpc import compile_rpc_role, tor_device

    units = {label: rest for label, *rest in workloads.compile_units()}
    assert len(units) == 17

    def p4(label):
        app, dev, target, defines = units[label]
        return compile_netcl(
            netcl_source(app), dev, target=target, defines=defines, program_name=app
        ).p4_source

    leaf = leaf_device(0)
    assert p4("collective-leaf/tna") == compile_role(
        leaf, rack=0, num_racks=4, workers_per_rack=2
    ).p4_source
    assert p4("rpc-tor/tna") == compile_rpc_role(
        tor_device(0), "tor", fanout=16
    ).p4_source


# -- the six workloads, 1/50 size ---------------------------------------------
@pytest.fixture(scope="module")
def benchmark_spec():
    return json.loads((harness.REPO_ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_untraced(name, benchmark_spec):
    detail = harness.measure(name, 7, 0.0, False, SMOKE_SCALE)
    assert detail["correct"], detail["problems"]
    assert detail["failed"] == 0 and detail["attempted"] >= 1
    assert detail["reps"] == harness.MIN_REPS
    assert set(detail["metrics"]) == {m["name"] for m in benchmark_spec["end_to_end"]}
    assert all(v > 0 for v in detail["metrics"].values())
    line = json.loads(harness.result_line(detail))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    for m in benchmark_spec["end_to_end"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced(name, benchmark_spec):
    detail = harness.measure(name, 11, 0.0, True, SMOKE_SCALE)
    assert detail["correct"], detail["problems"]
    m = detail["metrics"]
    assert set(m) == {x["name"] for x in benchmark_spec["per_layer"]}
    for x in benchmark_spec["per_layer"]:
        assert harness.metric_unit(x["name"]) == x["unit"], x["name"]
    # the bypass predictions
    if name in ("forward_storm", "agg_p4", "compile_all"):
        assert m["ir.interp.calls"] == 0
    else:
        assert m["ir.interp.calls"] > 0
    assert (m["p4.calls"] > 0) == (name == "agg_p4")
    assert (m["chaos.lost"] > 0) == (name == "rpc_chaos")
    assert (m["service.submits"] > 0) == (name == "service_churn")
    if name == "forward_storm":
        assert m["runtime.device.noop_share"] == 1.0
    if name == "allreduce_clean":
        assert m["compile.calls"] == 9
    if name == "compile_all":
        assert m["netsim.events"] == 0 and m["compile.calls"] == 17
    # the wrappers are gone again
    from repro.netsim.net import Host
    from repro.netsim.sim import Simulator

    assert "on_receive" not in vars(Host)
    assert not hasattr(Simulator.run, "__wrapped__")


def test_wrong_output_is_reported_and_fails(monkeypatch):
    """A workload whose reference check fails must not come out correct."""
    import repro.rpc

    # the host twin the check compares gathers with now disagrees with the switch
    monkeypatch.setattr(repro.rpc, "merge_words", lambda policy, parts: [1])
    detail = harness.measure("rpc_chaos", 7, 0.0, False, SMOKE_SCALE)
    assert not detail["correct"]
    assert detail["failed"] > 0
    assert any("merge_words twin" in p for p in detail["problems"])
