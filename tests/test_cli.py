import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from depthlab.cli import ConfigError, ExperimentConfig, _suite_params, main, run_experiment
from depthlab.measures import MeasureSpec, generate_measure
from depthlab.median import tukey_median
from depthlab.suites import rows_to_csv, run_suite


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


SQUARE = {
    "kind": "point_masses",
    "dim": 2,
    "n": 4,
    "params": {"points": [[1, 0], [-1, 0], [0, 1], [0, -1]]},
}


def test_depth_command_square(tmp_path):
    cfg = write(tmp_path, "c.json", {"command": "depth", "measure": SQUARE, "query": [0, 0], "expected": 0.5})
    code = main(["depth", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    csv = (tmp_path / "out" / "depth.csv").read_text()
    lines = csv.strip().split("\n")
    assert lines[0] == "suite,check,instance,d,n,seed,expected,observed,slack,pass"
    assert ",0.5," in lines[1] and lines[1].endswith("true")


def test_depth_command_reports_both_ends(tmp_path):
    # a sampled query: the depth row is the certified lower end, 0, and
    # passes against expected; the bound itself is the depth_upper row,
    # not checked against expected
    cfg = write(tmp_path, "c.json", {"command": "depth", "measure": SQUARE, "query": [0.2, 0.1], "mode": "sampled",
                                     "sample_count": 64, "expected": 0.0})
    assert main(["depth", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "depth.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["check"] for r in rows] == ["depth", "depth_upper"]
    assert float(rows[0]["observed"]) == 0.0 and float(rows[1]["observed"]) == 0.25
    assert rows[1]["expected"] == rows[1]["observed"] and rows[1]["pass"] == "true"


def test_point_masses_without_n_takes_its_point_count(tmp_path):
    square = {k: v for k, v in SQUARE.items() if k != "n"}
    cfg = write(tmp_path, "c.json", {"command": "depth", "measure": square, "query": [0, 0], "expected": 0.5})
    assert main(["depth", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "depth.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["n"] == "4" and float(rows[0]["observed"]) == 0.5


def test_failing_expectation_exit_1(tmp_path):
    cfg = write(tmp_path, "c.json", {"command": "depth", "measure": SQUARE, "query": [0, 0], "expected": 0.75})
    assert main(["depth", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


def test_unknown_command_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x.json"])
    assert exc.value.code == 2


def test_missing_config_exit_2(tmp_path, capsys):
    assert main(["depth", "--config", str(tmp_path / "missing.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_malformed_config_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    assert main(["depth", "--config", str(p)]) == 2
    assert "config" in capsys.readouterr().err


def test_invalid_field_named(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", {"command": "depth", "measure": {"kind": "gaussian"}, "query": [0, 0]})
    assert main(["depth", "--config", cfg]) == 2
    assert "config.measure" in capsys.readouterr().err


def test_measure_path_checks_dim(tmp_path, capsys):
    from depthlab.measures import make_measure, save_measure

    path = str(tmp_path / "m.json")
    save_measure(make_measure(SQUARE["params"]["points"]), path)
    cfg = write(tmp_path, "c.json", {"command": "depth", "measure": {"path": path, "dim": 3}, "query": [0, 0, 0]})
    assert main(["depth", "--config", cfg]) == 2
    assert "config.measure.dim" in capsys.readouterr().err
    cfg = write(tmp_path, "c.json", {"command": "depth", "measure": {"path": path, "dim": 2}, "query": [0, 0],
                                     "expected": 0.5})
    assert main(["depth", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    cfg = write(tmp_path, "c.json", {"command": "depth", "measure": {"path": 0}, "query": [0, 0]})
    assert main(["depth", "--config", cfg]) == 2  # not a read of file descriptor 0
    assert "config.measure.path: must be a path string" in capsys.readouterr().err


def test_command_mismatch(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", {"command": "median", "measure": SQUARE})
    assert main(["depth", "--config", cfg]) == 2


def test_generate_roundtrip(tmp_path):
    out_m = str(tmp_path / "m.json")
    cfg = write(
        tmp_path,
        "c.json",
        {"command": "generate", "measure": {"kind": "gaussian", "dim": 2, "n": 30, "seed": 5}, "out_measure": out_m},
    )
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    from depthlab.measures import load_measure

    m = load_measure(out_m)
    assert m.n == 30 and m.dim == 2


def test_median_command(tmp_path):
    cfg = write(
        tmp_path,
        "c.json",
        {"command": "median", "measure": SQUARE, "budget": {"mode": "exact"}, "expected": 0.5, "tolerance": 1e-9},
    )
    out = tmp_path / "out"
    assert main(["median", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "median.csv").read_text().strip().split("\n")
    assert any("median_depth" in r for r in rows)


def test_median_arrangement_mode_names_its_field(tmp_path, capsys):
    # the arrangement scan is gone: its mode is not a valid value
    cfg = write(tmp_path, "c.json", {"command": "median", "measure": SQUARE, "budget": {"mode": "arrangement"}})
    assert main(["median", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config.budget.mode: 'arrangement' invalid; valid: auto, exact, multistart" in err


def test_median_exact_mode_names_its_field_and_the_dim(tmp_path, capsys):
    gauss = {"kind": "gaussian", "dim": 3, "n": 50}
    cfg = write(tmp_path, "c.json", {"command": "median", "measure": gauss, "budget": {"mode": "exact"}})
    assert main(["median", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config.budget.mode" in err and "dim = 3" in err


def test_median_exact_mode_at_n_500(tmp_path):
    # no size limit on the exact planar median: the CLI reports the depth
    # of the library's exact median
    gauss = {"kind": "gaussian", "dim": 2, "n": 500, "seed": 3}
    cfg = write(tmp_path, "c.json", {"command": "median", "measure": gauss, "budget": {"mode": "exact"}})
    out = tmp_path / "out"
    assert main(["median", "--config", cfg, "--out", str(out)]) == 0
    want = tukey_median(generate_measure(MeasureSpec("gaussian", 2, 500, {}, 3)), mode="exact")
    rows = list(csv.DictReader((out / "median.csv").open()))
    assert [r["check"] for r in rows] == ["median_depth", "median_x0", "median_x1"]
    assert float(rows[0]["observed"]) == pytest.approx(want.depth, abs=1e-11)


def test_verify_command_and_determinism(tmp_path):
    cfg = write(
        tmp_path,
        "c.json",
        {
            "command": "verify",
            "suite": "oracle",
            "params": {"instances_per_dim": 4},
            "seed": 0,
        },
    )
    o1, o2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["verify", "--config", cfg, "--out", o1]) == 0
    assert main(["verify", "--config", cfg, "--out", o2]) == 0
    a = (tmp_path / "o1" / "oracle.csv").read_bytes()
    b = (tmp_path / "o2" / "oracle.csv").read_bytes()
    assert a == b


def test_verify_refuses_a_threads_flag(tmp_path, capsys):
    # suites run serially: --threads is no option, a usage error
    cfg = write(tmp_path, "c.json", {"command": "verify", "suite": "oracle", "params": {"instances_per_dim": 4}})
    with pytest.raises(SystemExit) as e:
        main(["verify", "--config", cfg, "--out", str(tmp_path / "out"), "--threads", "2"])
    assert e.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_config_threads_key_is_ignored(tmp_path):
    # a config that still names threads runs like one without it
    out = tmp_path / "out"
    cfg = write(tmp_path, "c.json", {"command": "depth", "measure": SQUARE, "query": [0, 0], "threads": "x"})
    assert main(["depth", "--config", cfg, "--out", str(out)]) == 0
    assert "threads" not in json.loads((out / "depth_summary.json").read_text())


def test_verify_unknown_suite(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", {"command": "verify", "suite": "nope"})
    assert main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "rado" in err and "theorem1" in err  # names the valid suites


def test_env_seed_override(tmp_path, monkeypatch):
    cfg = write(tmp_path, "c.json", {"command": "depth", "measure": SQUARE, "query": [0, 0], "seed": 3})
    monkeypatch.setenv("DEPTHLAB_SEED", "11")
    out = tmp_path / "out"
    assert main(["depth", "--config", cfg, "--out", str(out)]) == 0
    assert ",11," in (out / "depth.csv").read_text()
    # the --seed flag wins over the environment
    out2 = tmp_path / "out2"
    assert main(["depth", "--config", cfg, "--out", str(out2), "--seed", "7"]) == 0
    assert ",7," in (out2 / "depth.csv").read_text()


def test_summary_json(tmp_path):
    cfg = write(tmp_path, "c.json", {"command": "depth", "measure": SQUARE, "query": [0, 0]})
    out = tmp_path / "out"
    main(["depth", "--config", cfg, "--out", str(out)])
    summary = json.loads((out / "depth_summary.json").read_text())
    assert summary["rows"] == 2 and summary["failed"] == 0 and summary["exit_code"] == 0  # depth, depth_upper


def test_cli_entry_point_subprocess(tmp_path):
    cfg = write(tmp_path, "c.json", {"command": "depth", "measure": SQUARE, "query": [0, 0]})
    r = subprocess.run(
        [sys.executable, "-m", "depthlab.cli", "depth", "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0


def test_rows_to_csv_format():
    rows = run_suite("oracle", {"instances_per_dim": 2})
    text = rows_to_csv(rows)
    assert text.startswith("suite,check,instance,d,n,seed,expected,observed,slack,pass\n")
    assert text.endswith("\n") and "\r" not in text


def test_verify_bmes_corrupted_epsilon_exit_1(tmp_path):
    cfg = write(
        tmp_path,
        "c.json",
        {"command": "verify", "suite": "bmes", "params": {"count": 2, "eps": 0.2}},
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    csv = (out / "bmes.csv").read_text()
    assert "epsilon_precondition" in csv and csv.count("false") == 2


def test_landscape_command(tmp_path):
    cfg = write(
        tmp_path,
        "c.json",
        {
            "command": "landscape",
            "measure": {"kind": "gaussian", "dim": 3, "n": 60, "seed": 2},
            "grid_count": 6,
        },
    )
    out = tmp_path / "out"
    assert main(["landscape", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "landscape.csv").read_text().strip().split("\n")
    assert len(rows) == 7  # header + one row per direction


def test_landscape_csv_bytes(tmp_path):
    """The batched profiles write the CSV that one profile per direction wrote."""
    cfg = write(tmp_path, "c.json", {
        "command": "landscape",
        "measure": {"kind": "simplex_mixture", "dim": 3, "n": 90, "params": {"sigma": 0.2}, "seed": 4},
        "grid_count": 10,
        "seed": 7,
    })
    assert main(["landscape", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    depths = ["0.4", "0.4", "0.388888888889", "0.411111111111", "0.366666666667",
              "0.422222222222", "0.4", "0.411111111111", "0.444444444444", "0.388888888889"]
    expected = "suite,check,instance,d,n,seed,expected,observed,slack,pass\n" + "".join(
        f"cli,profile_depth,dir{i},3,90,7,{a},{a},0,true\n" for i, a in enumerate(depths))
    assert (tmp_path / "out" / "landscape.csv").read_bytes() == expected.encode()


GAUSS2 = {"kind": "gaussian", "dim": 2, "n": 5}


@pytest.mark.parametrize(
    "config, field",
    [
        ({"command": "verify", "suite": "bmes", "params": {"cout": 2}}, "config.params.cout"),
        ({"command": "verify", "suite": "oracle", "params": {"instances_per_dim": "x"}},
         "config.params.instances_per_dim"),
        ({"command": "verify", "suite": "rado", "params": {"dims": [2, "x"]}}, "config.params.dims"),
        ({"command": "depth", "measure": SQUARE, "query": [0, 0], "expected": "half"}, "config.expected"),
        ({"command": "depth", "measure": SQUARE, "query": [0, 0], "expected": 0.5, "tolerance": "x"},
         "config.tolerance"),
        ({"command": "depth", "measure": {"kind": "point_masses", "dim": 2}, "query": [0, 0]},
         "config.measure"),
        ({"command": "depth", "measure": {"kind": "file", "dim": 2}, "query": [0, 0]}, "config.measure.kind"),
        ({"command": "depth", "measure": GAUSS2, "query": [0, 0], "expected": True}, "config.expected"),
        ({"command": "depth", "measure": GAUSS2, "query": [0, 0], "mode": "sampled", "sample_count": 0},
         "config.sample_count"),
        ({"command": "landscape", "measure": GAUSS2, "grid_count": "many"}, "config.grid_count"),
        ({"command": "line-search", "measure": GAUSS2, "refine_iters": 1.5}, "config.refine_iters"),
        ({"command": "median", "measure": GAUSS2, "budget": {"starts": 0}}, "config.budget.starts"),
        ({"command": "median", "measure": GAUSS2, "budget": {"iters": "x"}}, "config.budget.iters"),
        ({"command": "median", "measure": GAUSS2, "budget": [1]}, "config.budget"),
        ({"command": "depth", "measure": GAUSS2, "query": [0, 0], "mode": "fast"}, "config.mode"),
        ({"command": "depth", "measure": 5, "query": [0, 0]}, "config.measure"),
        ({"command": "depth", "measure": {**GAUSS2, "params": [1]}, "query": [0, 0]},
         "config.measure.params"),
        ({"command": "depth", "measure": {**GAUSS2, "params": {"sigma": "x"}}, "query": [0, 0]},
         "config.measure.params.sigma"),
        ({"command": "depth", "measure": {"kind": "uniform_ball", "dim": 2, "n": 5, "params": {"radius": "big"}},
          "query": [0, 0]}, "config.measure.params.radius"),
        ({"command": "depth", "measure": {**GAUSS2, "params": {"scales": "ab"}}, "query": [0, 0]},
         "config.measure.params.scales"),
        ({"command": "depth", "measure": GAUSS2, "query": [0, 0, 0]}, "config.query"),
        ({"command": "depth", "measure": GAUSS2, "query": "ab"}, "config.query"),
        ({"command": "median", "measure": GAUSS2, "budget": {"mode": "fast"}}, "config.budget.mode"),
        ({"command": "generate", "measure": GAUSS2}, "config.out_measure"),
        ({"command": "depth", "measure": GAUSS2, "query": [0, 0], "out": 5}, "config.out"),
        ({"command": "depth", "measure": GAUSS2, "query": [0, 0], "seed": True}, "config.seed"),
        ({"command": "depth", "measure": {**GAUSS2, "dim": 2.5}, "query": [0, 0]}, "config.measure.dim"),
        ({"command": "depth", "measure": {**GAUSS2, "dim": "two"}, "query": [0, 0]}, "config.measure.dim"),
        ({"command": "depth", "measure": GAUSS2, "query": [0, 0]}, "--seed"),  # with --seed -1
        # json writes and reads NaN and Infinity
        ({"command": "depth", "measure": {**SQUARE, "params": {**SQUARE["params"], "weights": [1, float("nan"), 1, 1]}},
          "query": [0, 0]}, "config.measure.params.weights: index 1"),
        ({"command": "depth", "measure": {**SQUARE, "params": {**SQUARE["params"], "weights": [1, float("inf"), 1, 1]}},
          "query": [0, 0]}, "config.measure.params.weights: index 1"),
        ({"command": "depth", "measure": {**SQUARE, "params": {**SQUARE["params"], "weights": [1, 1]}},
          "query": [0, 0]}, "config.measure.params.weights: must be a list of 4"),
        ({"command": "depth", "measure": {**SQUARE, "params": {**SQUARE["params"], "weights": [1, "abc", 1, 1]}},
          "query": [0, 0]}, "config.measure.params.weights: index 1"),
        ({"command": "depth", "measure": {**SQUARE, "params": {"points": []}}, "query": [0, 0]},
         "config.measure.params.points: must be a nonempty list"),
        ({"command": "depth", "measure": {**SQUARE, "params": {"points": [[1, 0, 0], [0, 1, 0]]}}, "query": [0, 0]},
         "config.measure.params.points: point index 0"),
        ({"command": "depth", "measure": {**SQUARE, "n": 7}, "query": [0, 0]},
         "config.measure.n: 7, but params.points holds 4 points"),
        ({"command": "verify", "suite": "theorem1", "params": {"slack": 0.5}}, "config.params.slack"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_config_error_names_field(tmp_path, capsys, config, field):
    cfg = write(tmp_path, "c.json", config)
    flags = {"--seed": ["--seed", "-1"]}.get(field, [])
    assert main([config["command"], "--config", cfg, "--out", str(tmp_path / "out"), *flags]) == 2
    assert field in capsys.readouterr().err


def test_readme_rado_params_bind():
    params = {"dims": [2, 3], "seeds_per_dim": 10, "n": 200}
    assert _suite_params("rado", params) == params
    assert _suite_params("bmes", {"eps": 0.2}) == {"eps": 0.2}  # a None default takes any value
    with pytest.raises(ConfigError, match="config.params.slack"):  # a gate's slack is no parameter
        _suite_params("theorem1", {"slack": 0.5})
    with pytest.raises(ConfigError, match="config.params.count"):
        _suite_params("bmes", {"count": True})
