"""Command-line experiment runner and verification harness.

Usage:  depthlab <command> --config <file> [--seed N] [--out DIR] [--threads N]

Commands: generate, depth, median, line-search, landscape, verify.
Every run writes a CSV of per-check rows plus a JSON summary to the output
directory.  Exit codes: 0 all checks pass, 1 a verification failed,
2 usage/config error.  The DEPTHLAB_SEED environment variable overrides the
config seed; the --seed flag overrides both.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .geometry import sample_directions
from .measures import MeasureSpec, _is_number, generate_measure, load_measure, save_measure
from .depth import deep_line_search, direction_profiles, line_depth_thresholds, point_depth
from .median import tukey_median
from . import suites as _suites

COMMANDS = ("generate", "depth", "median", "line-search", "landscape", "verify")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _int_field(obj: dict, name: str, default: int, least: int, path: str = "config") -> int:
    """The integer field ``name`` of a config object, at least ``least``."""
    value = obj.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{path}.{name}: must be an integer >= {least}, got {value!r}")
    return value


def _choice_field(obj: dict, name: str, default: str, valid: tuple, path: str = "config") -> str:
    """The field ``name`` of a config object, one of ``valid``."""
    value = obj.get(name, default)
    if value not in valid:
        raise ConfigError(f"{path}.{name}: {value!r} invalid; valid: {', '.join(valid)}")
    return value


def _param_fits(value, default) -> bool:
    """Whether a JSON value may stand in for a suite parameter's default."""
    if default is None:
        return True
    if isinstance(value, bool) != isinstance(default, bool):
        return False
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_param_fits(v, default[0]) for v in value)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _suite_params(suite: str, params) -> dict:
    """``params`` of a verify config, checked against the suite function's
    signature: every name must be a parameter, and every value must fit the
    type of that parameter's default."""
    if params is None:
        return {}
    if not isinstance(params, dict):
        raise ConfigError("config.params: must be an object")
    sig = inspect.signature(_suites.SUITES[suite].fn).parameters
    for name, value in params.items():
        if name not in sig:
            raise ConfigError(f"config.params.{name}: not a parameter of suite {suite!r}; "
                              f"valid: {', '.join(sig)}")
        default = sig[name].default
        if not _param_fits(value, default):
            raise ConfigError(f"config.params.{name}: {value!r} does not fit the default {default!r}")
    return params


@dataclass
class ExperimentConfig:
    command: str
    seed: int = 0
    out: str = "depthlab_out"
    threads: int = 1
    raw: dict = field(default_factory=dict)

    @staticmethod
    def from_file(path: str, command: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config: file not found: {path}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config: malformed JSON at line {e.lineno}: {e.msg}")
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be an object")
        cfg_cmd = raw.get("command", command)
        if cfg_cmd != command:
            raise ConfigError(f"config.command: {cfg_cmd!r} does not match CLI command {command!r}")
        for name in ("expected", "tolerance"):
            value = raw.get(name, 0.0)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"config.{name}: must be a number, got {value!r}")
        out = raw.get("out", "depthlab_out")
        if not isinstance(out, str):
            raise ConfigError(f"config.out: must be a path string, got {out!r}")
        return ExperimentConfig(command, _int_field(raw, "seed", 0, 0), out, _int_field(raw, "threads", 1, 1), raw)

    def measure(self):
        spec = self.raw.get("measure")
        if spec is None:
            raise ConfigError("config.measure: missing")
        if not isinstance(spec, dict):
            raise ConfigError(f"config.measure: must be an object, got {spec!r}")
        if "path" in spec:
            if not isinstance(spec["path"], str):  # open() takes an integer as a file descriptor
                raise ConfigError(f"config.measure.path: must be a path string, got {spec['path']!r}")
            try:
                m = load_measure(spec["path"])
            except (OSError, ValueError) as e:
                raise ConfigError(f"config.measure.path: {e}")
            if spec.get("dim", m.dim) != m.dim:
                raise ConfigError(f"config.measure.dim: {spec['dim']!r}, but the file holds a {m.dim}-d measure")
            return m
        for name in ("kind", "dim"):
            if name not in spec:
                raise ConfigError(f"config.measure.{name}: missing")
        dim = _int_field(spec, "dim", 1, 1, "config.measure")
        n = _int_field(spec, "n", 1, 1, "config.measure")
        seed = _int_field(spec, "seed", self.seed, 0, "config.measure")
        try:
            ms = MeasureSpec(spec["kind"], dim, n, spec.get("params", {}), seed)
        except ValueError as e:  # its message starts with the field
            raise ConfigError(f"config.measure.{e}")
        return generate_measure(ms)


def _result_row(check: str, observed: float, cfg: ExperimentConfig, d: int, n: int,
                instance="cli", use_expected: bool = True):
    has_exp = use_expected and "expected" in cfg.raw
    expected = cfg.raw["expected"] if has_exp else observed
    tolerance = cfg.raw.get("tolerance", 1e-9)
    ok = abs(observed - expected) <= tolerance if has_exp else True
    return _suites._row("cli", check, instance, d, n, cfg.seed, expected, observed,
                        observed - expected, ok)


def _run_command(cfg: ExperimentConfig) -> list[dict]:
    cmd = cfg.command
    if cmd == "generate":
        m = cfg.measure()
        out_path = cfg.raw.get("out_measure")
        if not out_path:
            raise ConfigError("config.out_measure: missing (where to write the measure)")
        save_measure(m, out_path)
        return [_result_row("generate_n", float(m.n), cfg, m.dim, m.n)]
    if cmd == "depth":
        m = cfg.measure()
        if "query" not in cfg.raw:
            raise ConfigError("config.query: missing")
        q = cfg.raw["query"]
        if not (isinstance(q, list) and len(q) == m.dim and all(map(_is_number, q))):
            raise ConfigError(f"config.query: must be a list of {m.dim} numbers, got {q!r}")
        mode = _choice_field(cfg.raw, "mode", "exact", ("exact", "sampled"))
        res = point_depth(m, q, mode=mode, sample_count=_int_field(cfg.raw, "sample_count", 512, 1), seed=cfg.seed)
        return [_result_row("depth", res.depth, cfg, m.dim, m.n)]
    if cmd == "median":
        m = cfg.measure()
        budget = cfg.raw.get("budget", {})
        if not isinstance(budget, dict):
            raise ConfigError("config.budget: must be an object")
        mode = _choice_field(budget, "mode", "auto", ("auto", "exact", "multistart"), "config.budget")
        if mode == "exact" and m.dim > 2:
            raise ConfigError(f"config.budget.mode: exact mode requires dim <= 2, got dim = {m.dim}")
        res = tukey_median(m, mode=mode,
                           starts=_int_field(budget, "starts", 16, 1, "config.budget"),
                           iters=_int_field(budget, "iters", 30, 0, "config.budget"), seed=cfg.seed)
        rows = [_result_row("median_depth", res.depth, cfg, m.dim, m.n)]
        for j, c in enumerate(res.point):
            rows.append(_result_row(f"median_x{j}", float(c), cfg, m.dim, m.n, use_expected=False))
        return rows
    if cmd == "line-search":
        m = cfg.measure()
        res = deep_line_search(
            m,
            grid_count=_int_field(cfg.raw, "grid_count", 512, 1),
            refine_iters=_int_field(cfg.raw, "refine_iters", 3, 0),
            seed=cfg.seed,
        )
        th = line_depth_thresholds(m.dim)
        rows = [
            _result_row("line_depth", res.depth, cfg, m.dim, m.n),
            _suites._row("cli", "line_vs_rado", "cli", m.dim, m.n, cfg.seed,
                         th["rado"], res.depth, res.depth - th["rado"], res.depth >= th["rado"]),
            _suites._row("cli", "line_vs_improved", "cli", m.dim, m.n, cfg.seed,
                         th["improved"], res.depth, res.depth - th["improved"],
                         res.depth >= th["improved"]),
        ]
        return rows
    if cmd == "landscape":
        m = cfg.measure()
        count = _int_field(cfg.raw, "grid_count", 64, 1)
        dirs = sample_directions(m.dim, count, mode="grid")
        budget = {"mode": "multistart", "starts": 8, "iters": 12, "seed": cfg.seed}
        profile, _ = direction_profiles(m, dirs, budget)
        return [_result_row("profile_depth", a, cfg, m.dim, m.n, instance=f"dir{i}")
                for i, a in enumerate(profile)]
    if cmd == "verify":
        suite = cfg.raw.get("suite")
        if suite not in _suites.SUITES:
            raise ConfigError(f"config.suite: {suite!r} invalid; valid: {', '.join(_suites.SUITES)}")
        return _suites.run_suite(suite, _suite_params(suite, cfg.raw.get("params")), threads=cfg.threads)
    raise ConfigError(f"unknown command {cmd!r}")


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute a configured command, write CSV and JSON summary, and return
    the process exit code."""
    t0 = time.perf_counter()
    rows = _run_command(cfg)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_text = _suites.rows_to_csv(rows)
    name = cfg.raw.get("suite", cfg.command).replace("-", "_")
    (out_dir / f"{name}.csv").write_text(csv_text, encoding="utf-8", newline="")
    passed = sum(1 for r in rows if r["pass"])
    summary = {
        "command": cfg.command,
        "suite": cfg.raw.get("suite"),
        "rows": len(rows),
        "passed": passed,
        "failed": len(rows) - passed,
        "seed": cfg.seed,
        "threads": cfg.threads,
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }
    exit_code = 0 if passed == len(rows) else 1
    summary["exit_code"] = exit_code
    (out_dir / f"{name}_summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )
    return exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="depthlab",
        description="Half-space depth experiments and verification suites.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config, args.command)
        env_seed = os.environ.get("DEPTHLAB_SEED")
        if env_seed is not None:
            try:
                cfg.seed = int(env_seed)
            except ValueError:
                raise ConfigError("DEPTHLAB_SEED: must be an integer")
        if args.seed is not None:
            cfg.seed = args.seed
        if cfg.seed < 0:  # the config's own seed is checked in from_file
            raise ConfigError(f"--seed or DEPTHLAB_SEED: must be an integer >= 0, got {cfg.seed}")
        if args.out is not None:
            cfg.out = args.out
        if args.threads is not None:
            if args.threads < 1:
                raise ConfigError(f"--threads: must be an integer >= 1, got {args.threads}")
            cfg.threads = args.threads
        return run_experiment(cfg)
    except (ConfigError, ValueError) as e:
        # ValueError here means a user-supplied parameter violated an
        # operation's precondition: a config-class failure
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
