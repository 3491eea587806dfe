import json

import jsonschema
import numpy as np
import pytest

from fkpf.harness import (
    CONFIG_SCHEMA,
    ExperimentConfig,
    compare,
    load_config,
    rows_to_csv,
    run,
)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


BASE_SEMIGROUP = {
    "experiment": "semigroup",
    "seed": 42,
    "domain": {"kind": "all_space", "nu": 1},
    "modes": {"omega": [1.0]},
    "coefficients": {"name": "zero"},
    "state": {"profile": "gaussian"},
    "mc": {"samples": 2000, "steps": 32},
    "points": {"x": [0.0, 0.5], "t": 1.0},
}


def test_schema_rejects_bad_configs(tmp_path):
    bad = dict(BASE_SEMIGROUP)
    bad["experiment"] = "nonsense"
    with pytest.raises(jsonschema.ValidationError):
        load_config(write_config(tmp_path, bad))
    bad2 = dict(BASE_SEMIGROUP)
    del bad2["seed"]
    with pytest.raises(jsonschema.ValidationError):
        load_config(write_config(tmp_path, bad2))
    bad3 = dict(BASE_SEMIGROUP)
    bad3["extra_field"] = 1
    with pytest.raises(jsonschema.ValidationError):
        load_config(write_config(tmp_path, bad3))


def test_semigroup_run_and_reproducibility(tmp_path):
    config = load_config(write_config(tmp_path, BASE_SEMIGROUP))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    man1 = run(config, output_dir=out1)
    man2 = run(config, output_dir=out2)
    body1 = (out1 / "results.csv").read_text()
    body2 = (out2 / "results.csv").read_text()
    assert body1 == body2
    assert man1.config_hash == man2.config_hash
    assert (out1 / "manifest.json").exists()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["seed"] == 42
    assert manifest["experiment"] == "semigroup"
    # sanity of the estimate itself
    lines = body1.strip().split("\n")
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert abs(float(row["re"]) - 1 / np.sqrt(2)) < 5 * float(row["stderr"])


def test_kernel_run_grid_rows(tmp_path):
    payload = {
        "experiment": "kernel",
        "seed": 7,
        "domain": {"kind": "interval", "params": [0.0, 1.0]},
        "modes": {"omega": [1.0]},
        "coefficients": {"name": "zero"},
        "mc": {"samples": 1000, "steps": 16},
        "points": {"x": [0.4, 0.6], "y": [0.5], "t": 0.2},
    }
    config = load_config(write_config(tmp_path, payload))
    run(config, output_dir=tmp_path / "out")
    lines = (tmp_path / "out" / "results.csv").read_text().strip().split("\n")
    assert len(lines) == 3  # header + 2 (x, y) combinations


def test_compare_identical_and_failing(tmp_path):
    rows = [
        {"experiment": "kernel", "x": 0.4, "y": 0.5, "t": 0.2,
         "re": 0.7, "im": 0.0, "stderr": 0.01, "n": 100, "seed": 1,
         "config_hash": "abc"},
    ]
    a = tmp_path / "a.csv"
    a.write_text(rows_to_csv(rows))
    assert compare(a, a, {"mode": "stat", "z": 3.0})["passed"]
    shifted = [dict(rows[0], re=0.7 + 0.2)]
    b = tmp_path / "b.csv"
    b.write_text(rows_to_csv(shifted))
    report = compare(a, b, {"mode": "stat", "z": 3.0})
    assert not report["passed"]
    z = report["rows"][0]["z"]
    assert z == pytest.approx(0.2 / np.hypot(0.01, 0.01), rel=1e-12)
    # absolute mode
    assert compare(a, b, {"mode": "abs", "tol": 0.5})["passed"]
    assert not compare(a, b, {"mode": "abs", "tol": 0.1})["passed"]


def test_compare_mixed_criteria(tmp_path):
    rows = [
        {"experiment": "kernel", "x": 0.4, "y": 0.5, "t": 0.2, "re": 0.7,
         "im": 0.0, "stderr": 0.01, "n": 100, "seed": 1, "config_hash": "a"},
        {"experiment": "oracle", "x": 0.0, "y": "", "t": 1.0, "re": 2.0,
         "im": 0.0, "stderr": 0.0, "n": 1, "seed": 1, "config_hash": "a"},
    ]
    other = [dict(rows[0], re=0.705), dict(rows[1], re=2.0 + 5e-9)]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(rows_to_csv(rows))
    b.write_text(rows_to_csv(other))
    spec = {"mode": "stat", "z": 3.0,
            "per_experiment": {"oracle": {"mode": "abs", "tol": 1e-8}}}
    report = compare(a, b, spec)
    assert report["passed"]
    statuses = {tuple(r["key"])[0]: r["status"] for r in report["rows"]}
    assert statuses == {"kernel": "ok", "oracle": "ok"}
    tight = {"mode": "stat", "z": 3.0,
             "per_experiment": {"oracle": {"mode": "abs", "tol": 1e-10}}}
    assert not compare(a, b, tight)["passed"]


def test_compare_reports_rows_only_in_second_file(tmp_path):
    row = {"experiment": "kernel", "x": 0.4, "y": 0.5, "t": 0.2, "re": 0.7,
           "im": 0.0, "stderr": 0.01, "n": 100, "seed": 1, "config_hash": "a"}
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(rows_to_csv([row]))
    b.write_text(rows_to_csv([row, dict(row, x=0.9)]))
    report = compare(a, b, {"mode": "stat", "z": 3.0})
    assert not report["passed"]
    statuses = sorted((r["status"], float(r["key"][1])) for r in report["rows"])
    assert statuses == [("extra", 0.9), ("ok", 0.4)]
    # the reverse direction reports the same row as missing
    reverse = compare(b, a, {"mode": "stat", "z": 3.0})
    assert not reverse["passed"]
    assert sorted(r["status"] for r in reverse["rows"]) == ["missing", "ok"]


def test_compare_matches_rows_by_value(tmp_path):
    row = {"experiment": "kernel", "x": 0.9, "y": 0.2, "t": 0.2, "re": 0.7,
           "im": 0.0, "stderr": 0.01, "n": 100, "seed": 1, "config_hash": "a"}
    written = tmp_path / "written.csv"
    written.write_text(rows_to_csv([row]))
    assert "0.90000000000000002" in written.read_text()
    by_hand = tmp_path / "by_hand.csv"
    by_hand.write_text("experiment,x,y,t,re,im,stderr,n,seed,config_hash\n"
                       "kernel,0.9,0.2,0.2,0.7,0,0.01,100,1,a\n")
    for a, b in ((written, by_hand), (by_hand, written)):
        report = compare(a, b, {"mode": "stat", "z": 3.0})
        assert report["passed"]
        assert [r["status"] for r in report["rows"]] == ["ok"]
    # a genuinely different x is still unmatched
    other = tmp_path / "other.csv"
    other.write_text(rows_to_csv([dict(row, x=0.9 + 1e-12)]))
    report = compare(by_hand, other, {"mode": "stat", "z": 3.0})
    assert not report["passed"]
    assert sorted(r["status"] for r in report["rows"]) == ["extra", "missing"]


def test_penalty_sweep_run(tmp_path):
    payload = {
        "experiment": "penalty-sweep",
        "seed": 3,
        "domain": {"kind": "interval", "params": [0.0, 20.0]},
        "modes": {"omega": [1.0]},
        "coefficients": {"name": "zero"},
        "mc": {"samples": 500, "steps": 16,
               "gating": {"mode": "indicator", "correction": False}},
        "points": {"x": [10.0], "y": [10.0], "t": 0.2},
        "penalty": {"kappa": 1.0, "n_cap_list": [100.0, 10000.0]},
    }
    config = load_config(write_config(tmp_path, payload))
    run(config, output_dir=tmp_path / "out")
    lines = (tmp_path / "out" / "results.csv").read_text().strip().split("\n")
    assert len(lines) == 4  # header + hard + 2 caps


def test_diamagnetic_run(tmp_path):
    payload = {
        "experiment": "diamagnetic",
        "seed": 5,
        "domain": {"kind": "interval", "params": [-2.0, 2.0]},
        "modes": {"omega": [1.0]},
        "coefficients": {"name": "sine_A"},
        "oracle": {"grid": {"lo": -2.0, "hi": 2.0, "points": 16},
                   "cutoff": 2, "E": [1.0], "trials": 5},
    }
    config = load_config(write_config(tmp_path, payload))
    run(config, output_dir=tmp_path / "out")
    body = (tmp_path / "out" / "results.csv").read_text()
    assert "diamagnetic" in body
    assert "VIOLATED" not in body


def test_mollify_converge_run(tmp_path):
    import numpy as np

    from fkpf.action import CoefficientTable

    points = 32
    xs = np.linspace(-2.0 + 4.0 / 33, 2.0 - 4.0 / 33, points)
    table = CoefficientTable(
        lo=[xs[0]], hi=[xs[-1]], shape=(points,), omega=np.array([1.0]),
        A=(np.abs(xs - 0.3) ** -0.25)[None, :],
    )
    table_path = tmp_path / "singular.npz"
    table.save(table_path)
    payload = {
        "experiment": "mollify-converge",
        "seed": 9,
        "domain": {"kind": "interval", "params": [-2.0, 2.0]},
        "modes": {"omega": [1.0]},
        "coefficients": {"name": "table", "table_path": str(table_path)},
        "oracle": {"grid": {"lo": -2.0, "hi": 2.0, "points": points},
                   "cutoff": 1, "E": [1.0], "n_list": [2, 8, 32]},
    }
    config = load_config(write_config(tmp_path, payload))
    run(config, output_dir=tmp_path / "out")
    lines = (tmp_path / "out" / "results.csv").read_text().strip().split("\n")
    assert len(lines) == 4
    diffs = [float(line.split(",")[4]) for line in lines[1:]]
    assert diffs[-1] <= diffs[0]


def test_selftest_run_smoke(tmp_path):
    payload = {
        "experiment": "selftest",
        "seed": 11,
        "selftest": {"scale": 0.02, "criteria": ["c01", "c03"]},
    }
    config = load_config(write_config(tmp_path, payload))
    manifest = run(config, output_dir=tmp_path / "out")
    assert manifest.criteria == {"c01": True, "c03": True}
    assert (tmp_path / "out" / "selftest_summary.csv").exists()
    assert (tmp_path / "out" / "results.csv").exists()


def test_cli_run_and_compare(tmp_path):
    from fkpf.cli import main

    cfg_path = write_config(tmp_path, BASE_SEMIGROUP)
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "o1")]) == 0
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "o2")]) == 0
    code = main([
        "compare",
        str(tmp_path / "o1" / "results.csv"),
        str(tmp_path / "o2" / "results.csv"),
        json.dumps({"mode": "abs", "tol": 0.0}),
    ])
    assert code == 0


def test_shipped_configs_validate():
    from pathlib import Path

    config_dir = Path(__file__).resolve().parents[1] / "configs"
    found = sorted(config_dir.glob("*.json"))
    assert found
    for path in found:
        load_config(path)


KERNEL_CONFIG = {
    "experiment": "kernel",
    "seed": 4,
    "domain": {"kind": "interval", "params": [0.0, 1.0]},
    "coefficients": {"name": "zero"},
    "mc": {"samples": 100, "steps": 16,
           "gating": {"mode": "indicator", "correction": False}},
    "points": {"x": [0.4], "y": [0.5], "t": 0.2},
}


def edited(config, path, value=None, delete=False):
    """A deep copy of config with the value at the key path set or deleted."""
    out = json.loads(json.dumps(config))
    node = out
    for key in path[:-1]:
        node = node[key]
    if delete:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


def rejected(name, path, value=None, delete=False):
    return pytest.param(path, value, delete, id=name)


@pytest.mark.parametrize("path, value, delete", [
    # a typo in a nested key used to be ignored, leaving the correction on
    rejected("gating-typo", ("mc", "gating", "corection"), False),
    rejected("penalty-without-n_cap", ("mc", "gating"),
             {"mode": "penalty", "kappa": 1.0}),
    rejected("indicator-with-kappa", ("mc", "gating"),
             {"mode": "indicator", "kappa": 1.0}),
    rejected("penalty-kappa-zero", ("mc", "gating"),
             {"mode": "penalty", "kappa": 0.0, "n_cap": 1.0}),
    rejected("mc-typo", ("mc", "antithetc"), True),
    rejected("domain-unknown-key", ("domain", "lo"), 0.0),
    rejected("points-unknown-key", ("points", "z"), [0.1]),
    rejected("x-not-a-number", ("points", "x"), ["0.4"]),
    rejected("u-not-a-pair", ("points", "u"), [[0.1, 0.2, 0.3]]),
    rejected("params-typo", ("coefficients",),
             {"name": "constant_V", "params": {"levle": 2.0}}),
    rejected("params-on-zero-family", ("coefficients", "params"), {"level": 2.0}),
    rejected("table-path-without-table", ("coefficients", "table_path"),
             "coeffs.npz"),
    # the blocks and points an experiment reads must be there
    rejected("kernel-without-mc", ("mc",), delete=True),
    rejected("kernel-without-points", ("points",), delete=True),
    rejected("kernel-without-y", ("points", "y"), delete=True),
    rejected("kernel-without-coefficients", ("coefficients",), delete=True),
])
def test_schema_rejects_unknown_keys_and_missing_blocks(tmp_path, path, value, delete):
    load_config(write_config(tmp_path, KERNEL_CONFIG))
    bad = edited(KERNEL_CONFIG, path, value, delete)
    with pytest.raises(jsonschema.ValidationError):
        load_config(write_config(tmp_path, bad))


def test_schema_checks_each_experiment_and_family(tmp_path):
    penalty = edited(KERNEL_CONFIG, ("mc", "gating"),
                     {"mode": "penalty", "kappa": 2.0, "n_cap": 100.0})
    load_config(write_config(tmp_path, penalty))
    no_state = edited(BASE_SEMIGROUP, ("state",), delete=True)
    oracle = {"grid": {"lo": -1.0, "hi": 1.0, "points": 8}}
    mollify = {"experiment": "mollify-converge", "seed": 1,
               "domain": {"kind": "interval", "params": [-1.0, 1.0]},
               "coefficients": {"name": "table"}, "oracle": oracle}
    bump_typo = edited(BASE_SEMIGROUP, ("coefficients",),
                       {"name": "gaussian_bump_G", "params": {"strenght": 1.0}})
    for bad in (no_state, mollify, bump_typo,
                edited(mollify, ("coefficients",), {"name": "zero"}),
                edited(mollify, ("oracle", "grid", "points"), delete=True),
                {"experiment": "diamagnetic", "seed": 1,
                 "domain": {"kind": "interval", "params": [-1.0, 1.0]},
                 "coefficients": {"name": "sine_A"}}):
        with pytest.raises(jsonschema.ValidationError):
            load_config(write_config(tmp_path, bad))
    good = edited(mollify, ("coefficients", "table_path"), "coeffs.npz")
    load_config(write_config(tmp_path, good))


def test_config_schema_is_valid():
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)


def test_benchmark_generated_configs_validate(tmp_path):
    import sys
    from pathlib import Path

    bench_dir = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(bench_dir))
    try:
        import workloads
    finally:
        sys.path.remove(str(bench_dir))
    for name in ("kernel-interval", "semigroup-coupled-fine"):
        wl = workloads.WORKLOADS[name](bench_dir.parent, tmp_path)
        load_config(write_config(tmp_path, wl.make_config(17), f"{name}.json"))


def test_config_hash_stability():
    config = ExperimentConfig(dict(BASE_SEMIGROUP))
    same = ExperimentConfig(json.loads(json.dumps(BASE_SEMIGROUP)))
    assert config.config_hash() == same.config_hash()
    changed = ExperimentConfig(dict(BASE_SEMIGROUP, seed=43))
    assert changed.config_hash() != config.config_hash()
