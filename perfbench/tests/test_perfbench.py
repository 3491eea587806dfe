"""The benchmark's own tests: a tiny-scale smoke run of every workload, and
proof that each correctness gate rejects a perturbed reference.

    python3 -m pytest perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parent
for entry in (str(REPO_ROOT / "src"), str(BENCH_DIR)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def _smoke(name, tmp_path, scale, **overrides):
    wl = workloads.WORKLOADS[name](REPO_ROOT, tmp_path, scale=scale)
    for key, value in overrides.items():
        setattr(wl, key, value)
    state = wl.setup(SEED)
    outcome = wl.collect(state, wl.run_once(state, spans.NoTracer()))
    checks = wl.check(state, outcome)
    assert checks and all(c.ok for c in checks), checks
    return wl, state, outcome


def _fails(checks):
    return any(not c.ok for c in checks)


def test_kernel_interval_smoke_and_gate(tmp_path):
    wl, state, outcome = _smoke("kernel-interval", tmp_path, 0.125)
    assert len(outcome.output) == 3
    assert outcome.paths == 3 * 1024
    assert 0.0 < outcome.rel_stderr < 0.1
    stderr = float(outcome.output[0]["stderr"])
    shifted = [ref + 10 * stderr for ref in state["refs"]]
    assert _fails(workloads.gate_mc_rows(outcome.output, shifted))


def test_semigroup_coupled_fine_smoke_and_gate(tmp_path):
    wl, state, outcome = _smoke("semigroup-coupled-fine", tmp_path, 0.125)
    (row,) = outcome.output
    assert float(row["x"]) == workloads.toy_site(0.0)
    perturbed = [state["refs"][0] * 1.5]
    assert _fails(workloads.gate_mc_rows(outcome.output, perturbed))


def test_mc_gate_rejects_non_finite_rows():
    row = {"x": "0.5", "y": "0.5", "re": "nan", "im": "0", "stderr": "0.01"}
    assert _fails(workloads.gate_mc_rows([row], [0.5 + 0j]))
    row = dict(row, re="0.5", stderr="0")
    assert _fails(workloads.gate_mc_rows([row], [0.5 + 0j]))
    assert _fails(workloads.gate_mc_rows([], [0.5 + 0j]))


def test_oracle_pf_smoke_and_gate(tmp_path):
    wl, state, outcome = _smoke("oracle-pf", tmp_path, 0.034,
                                sizes=((16, 2), (24, 3)))
    records, ops = outcome.output
    assert sorted(ops) == [48, 96]
    assert all(len(v) == 1 for v in records.values())
    dim, E = next(iter(records))
    margin = records[(dim, E)][0][1]
    assert _fails(workloads.gate_diamagnetic(records, {(dim, E): (margin, margin + 1e-3)}))
    broken = dict(records)
    broken[(dim, E)] = [(False, 1e-3)]
    assert _fails(workloads.gate_diamagnetic(broken, {}))


def test_independent_violation_matches_program(tmp_path):
    wl, state, outcome = _smoke("oracle-pf", tmp_path, 0.034, sizes=((16, 3),))
    records, ops = outcome.output
    pf, sch, sites, cutoff = ops[64]
    phi = state["phis"][(sites, cutoff, 1.0)][0]
    assert math.isclose(workloads.independent_violation(pf, sch, 1.0, phi),
                        records[(64, 1.0)][0][1], rel_tol=1e-9, abs_tol=1e-12)


def test_acceptance_perpath_smoke_and_gate(tmp_path):
    wl, state, outcome = _smoke("acceptance-perpath", tmp_path, 0.5)
    assert [r.cid for r in outcome.output] == ["c07", "c10", "c11"]
    strict = {"slope": 5.0, "flow_gap": 0.0, "exact_gap": 0.0, "slack": 1e9}
    checks = workloads.gate_criteria(outcome.output, strict)
    assert all(not c.ok for c in checks)


def test_traced_run_counts_every_stream(tmp_path):
    wl = workloads.WORKLOADS["kernel-interval"](REPO_ROOT, tmp_path, scale=0.125)
    state = wl.setup(SEED)
    tracer = spans.Tracer()
    tracer.run_id = 1
    tracer.install()
    try:
        wl.run_once(state, tracer)
    finally:
        tracer.remove()
    import fkpf.paths

    assert not hasattr(fkpf.paths.stream_generator, "__wrapped__")
    metrics = tracer.layer_metrics()[1]
    assert metrics["paths.streams_calls"] == 3 * 1024
    assert metrics["paths.gated"] == 3 * 1024
    assert 0.0 < metrics["paths.survival_frac"] <= 1.0
    assert 0.0 < metrics["paths.mean_crossing_weight"] <= 1.0
    assert metrics["harness.self_s"] > 0.0
    assert metrics["semigroup.estimate_s"] >= metrics["paths.sample_s"]
    assert list(tracer.layer_metrics()) == [1]
    tracer.write(tmp_path / "trace.npz", {"seed": SEED})
    assert (tmp_path / "trace.npz").stat().st_size > 0


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
        with tracer.span("outer"):
            pass
    totals = tracer.run_totals()[0]
    cols = tracer.columns()
    dur = cols["end"] - cols["start"]
    assert totals["calls"] == {"outer": 1, "inner": 1}
    assert totals["incl"]["inner"] == pytest.approx(dur[1])
    assert totals["incl"]["outer"] == pytest.approx(dur[0])
    assert totals["self"]["outer"] == pytest.approx(dur[0] - dur[1], abs=1e-12)



@pytest.mark.parametrize("kind", sorted(hostspeed.NOMINAL_S))
def test_host_clock_scales_by_the_probes_around_a_call(kind):
    clock = hostspeed.HostClock(kind)
    wall, scaled, result = clock.scaled(lambda: sum(range(100_000)))
    assert result == sum(range(100_000))
    before, after = (sum(p) for p in clock.probes)
    assert scaled == pytest.approx(wall * 2.0 * clock.nominal / (before + after))
    clock.scaled(lambda: None)
    assert len(clock.probes) == 3  # the probe after a call opens the next


def test_every_workload_names_a_probe():
    assert {w.probe for w in workloads.WORKLOADS.values()} <= set(hostspeed.NOMINAL_S)


def test_benchmark_json_names_every_printed_metric():
    bench = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    per_layer = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
    per_layer.update(run.TRACE_ONLY)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == per_layer
