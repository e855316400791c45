"""Fast tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

run.load_program()
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture
def make(tmp_path):
    def build(name, seed=5, trace_ops=None):
        # two trials per mc_rf_power op keep the trial axis, at a quarter of the cost
        extra = {"trials": 2} if name == "mc_rf_power" else {}
        wl = workloads.WORKLOADS[name](seed, str(tmp_path), **extra)
        if trace_ops is not None:
            wl.trace_ops = trace_ops
        return wl
    return build


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_end_to_end(make, name):
    wl = make(name)
    result = run.run_untraced(wl, 0.05, probes=1)
    assert result["attempted"] == run.op_count(wl, 0.05) and not result["failed"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in result["metrics"].values())
    assert result["printed"]["failed_share"][0] == 0

    result = run.run_traced(make(name, trace_ops=2), 0)
    assert result["attempted"] == 2
    assert not result["failed"] and not result["wrong"] and not result["problems"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_mc_check_rejects_perturbed_mean_power(make):
    wl = make("mc_rf_power")
    inp = wl.prepare(1)
    sc, trials = inp["scenario"], inp["trials"]
    result = wl.run(inp)
    assert result.meta["trials"] == trials == 2
    assert wl.problems(sc, result, trials) == []
    cols = result.columns
    row = next(i for i, v in enumerate(cols["mean_power_w"]) if v == v and v > 0)
    cols["mean_power_w"][row] *= 1 + 1e-6
    assert any(p.startswith(f"row {row}: mean_power_w")
               for p in wl.problems(sc, result, trials))


def test_mc_reported_solver_failure_fails_the_op_only(make):
    wl = make("mc_rf_power")
    inp = wl.prepare(1)
    result = wl.run(inp)
    cols = result.columns
    row = next(i for i, v in enumerate(cols["mean_power_w"]) if v == v and v > 0)
    cols["solver_failures"][row], cols["trials_ok"][row] = 1, 1
    rec = wl.collect(1, inp, result)
    assert rec["problem"] == "1 solver failures reported" and not rec["wrong"]
    assert rec["units"] == wl.instances_per_op - 1
    cols["trials_ok"][row] = 2  # one trial counted twice is a wrong output
    assert wl.collect(1, inp, result)["wrong"]


def test_control_loop_check_rejects_low_delivery(make):
    wl = make("control_loop")
    k, req = next((k, r) for k, r in ((k, wl.prepare(k)) for k in range(1, 200))
                  if r["mode"] == "semi" and 4e-3 < r["theta"] < 8e-3)
    assert wl.run(req) == workloads.EXIT_OK
    path = os.path.join(wl.out_dir, "solution.json")
    with open(path) as fh:
        sol = json.load(fh)
    assert any(t > 0 for t in sol["rf_targets_w"])
    sol["rf_delivered_w"] = [0.99 * v for v in sol["rf_delivered_w"]]
    with open(path, "w") as fh:
        json.dump(sol, fh)
    assert wl.collect(k, req, workloads.EXIT_OK)["problem"] == \
        "RF delivery below the inverted rectifier targets"


def test_traced_spans_nest(make):
    wl = make("control_loop")
    tracer = tracing.Tracer()
    with tracer:
        for k in range(1, 7):
            tracer.run_op(k, wl.run, wl.prepare(k))
    spans = {s[1]: s for s in tracer.spans}
    assert len(spans) > 6
    for op, sid, parent, group, start, end, _ in spans.values():
        assert start <= end
        if parent is not None:
            p = spans[parent]
            assert p[0] == op and p[4] <= start and end <= p[5]
    assert min(tracing.self_times(tracer.spans).values()) >= 0
    assert tracing.check_nesting(tracer.spans) == []

    # a child that outlives its parent is reported
    root, child = (1, 0, None, "op", 0.0, 1.0, None), (1, 1, 0, "cli", 0.5, 1.5, None)
    assert tracing.check_nesting([child, root])
    # so is an op that the named layers leave largely uncovered
    child = (1, 1, 0, "cli", 0.0, 0.97, None)
    assert tracing.check_nesting([child, root]) == []
    child = (1, 1, 0, "cli", 0.0, 0.9, None)
    assert tracing.check_nesting([child, root])


def test_wrappers_are_removed(make):
    import attocell.cli
    original = attocell.cli.solve_aggregate_sdp
    with tracing.Tracer():
        assert attocell.cli.solve_aggregate_sdp is not original
    assert attocell.cli.solve_aggregate_sdp is original


def test_work_counters_repeat_exactly(make):
    first = run.run_traced(make("control_loop", seed=9, trace_ops=6), 0)
    second = run.run_traced(make("control_loop", seed=9, trace_ops=6), 0)
    assert first["detail"]["counters"] == second["detail"]["counters"]
    assert not first["problems"] and not second["problems"]
