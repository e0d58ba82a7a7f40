"""Command-line entry point: JSON configs in, plot-ready CSV/JSON tables out.

Exit codes: 0 success, 2 configuration error, 3 instability in steady mode
(or no feasible optimization point), 4 numerical or I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys

from . import dynamics, experiments
from .errors import (
    ConfigError,
    DivergenceError,
    NoFeasiblePointError,
    NumericalError,
    StabilityError,
    UnsupportedRegimeError,
)
from .experiments import ResultTable, RunConfig, SweepAxis

_CONFIG_KEYS = {f.name for f in dataclasses.fields(RunConfig)} | {"thetaPi"}
_NUMBER_KEYS = {f.name for f in dataclasses.fields(RunConfig)
                if f.type.startswith(("float", "int"))} | {"thetaPi"}
_BOOLEAN_KEYS = {f.name for f in dataclasses.fields(RunConfig) if f.type == "bool"}
_AXIS_KEYS = {"name", "min", "max", "count"}

SIGNIFICANT_DIGITS = 12


def _round12(value: float) -> float:
    return float(f"{value:.{SIGNIFICANT_DIGITS}g}")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.{SIGNIFICANT_DIGITS}g}"
    return str(value)


def _json_cell(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return _round12(value)
    return value


def serialize(table: ResultTable, fmt: str) -> str:
    """Render a result table as CSV (header mandatory, 12 significant digits,
    missing values empty) or JSON (rows plus a meta object)."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_csv_cell(row.get(col)) for col in table.columns])
        return buf.getvalue()
    if fmt == "json":
        payload = {
            "meta": table.meta,
            "rows": [{col: _json_cell(row.get(col)) for col in table.columns}
                     for row in table.rows],
        }
        return json.dumps(payload, indent=2) + "\n"
    raise ConfigError(f"unknown format '{fmt}'")


def _parse_set_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _merge_sets(data: dict, set_items: list[str]) -> dict:
    for item in set_items:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got '{item}'")
        key, _, raw = item.partition("=")
        key = key.strip()
        # an override of either angle spelling supersedes the other
        if key == "theta":
            data.pop("thetaPi", None)
        elif key == "thetaPi":
            data.pop("theta", None)
        data[key] = _parse_set_value(raw)
    return data


def _number(key: str, value, integral: bool = False):
    """The value of a numeric config key, checked to be a finite number, not a
    string or a boolean, and where integral a whole one, returned as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if integral and not float(value).is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value) if integral else value


def _checked(key: str, value):
    """A config value checked for its key's kind; the mode and the axes are
    checked where they are read."""
    if key in _NUMBER_KEYS:
        return _number(key, value, key == "tPoints")
    if key in _BOOLEAN_KEYS and not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def build_config(data: dict) -> RunConfig:
    """Validate a flat key-value mapping and build the run configuration."""
    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    data = {k: v if v is None else _checked(k, v) for k, v in data.items()}
    if "thetaPi" in data:
        if data.get("theta") is not None:
            raise ConfigError("give either theta or thetaPi, not both")
        data["theta"] = float(data.pop("thetaPi")) * math.pi
    axes_raw = data.pop("axes", None)
    if not isinstance(axes_raw, (list, type(None))):
        raise ConfigError(f"axes must be a list of axis objects, got {axes_raw!r}")
    axes = []
    for i, ax in enumerate(axes_raw or []):
        if not isinstance(ax, dict):
            raise ConfigError(f"axes[{i}] must be an object with {sorted(_AXIS_KEYS)}")
        bad = sorted(set(ax) - _AXIS_KEYS)
        if bad:
            raise ConfigError(f"axes[{i}]: unknown key(s) {', '.join(bad)}")
        if not {"name", "min", "max"} <= set(ax):
            raise ConfigError(f"axes[{i}]: name, min and max are required")
        axes.append(SweepAxis(
            name=ax["name"], min=float(_number(f"axes[{i}].min", ax["min"])),
            max=float(_number(f"axes[{i}].max", ax["max"])),
            count=_number(f"axes[{i}].count", ax.get("count", experiments.DEFAULT_AXIS_COUNT),
                          integral=True)))
    # drop explicit nulls so dataclass defaults apply uniformly
    cleaned = {k: v for k, v in data.items() if v is not None}
    cleaned["axes"] = tuple(axes)
    try:
        return RunConfig(**cleaned)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _load_config(args) -> RunConfig:
    data: dict = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        # accept a previous JSON output directly as an override source
        meta = loaded.get("meta")
        if isinstance(meta, dict) and "config" in meta:
            loaded = meta["config"]
            if not isinstance(loaded, dict):
                raise ConfigError(f"meta.config must be a JSON object, got {loaded!r}")
        data.update(loaded)
    _merge_sets(data, args.set or [])
    return build_config(data)


def _point_table(cfg: RunConfig) -> ResultTable:
    """The one operating point of cfg, its curve in evolve mode, through the
    evaluation core.  A point the core reports as unstable (in steady mode)
    or failed raises instead of giving a row."""
    table = experiments.run_points(cfg, [], [{}], curves=True)
    row = table.rows[0]
    if cfg.mode == "steady" and not row["stable"]:
        raise StabilityError("steady mode on an unstable operating point; "
                             "use evolve mode or change parameters")
    if row["error"] is not None:
        raise NumericalError(row["error"])
    return table


def _stability_table(cfg: RunConfig) -> ResultTable:
    model, verdict = experiments.resolve_point(cfg)
    abscissa, stable = dynamics.stability_batch(dynamics.state_space_batch([model])[0])
    try:
        analytic = dynamics.stability_margin(model) > 0.0
    except UnsupportedRegimeError:
        analytic = None
    row = {
        "stableAnalytic": analytic,
        "stableEigen": bool(stable[0]),
        "spectralAbscissa": float(abscissa[0]),
        "kappaTilde": model.kappa_tilde,
        "DeltaTilde": model.delta_tilde,
        "rwaVerdict": verdict,
    }
    return ResultTable(list(row.keys()), [row], experiments.table_meta(cfg))


def _emit(table: ResultTable, args) -> None:
    text = serialize(table, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        if not args.quiet:
            print(f"wrote {len(table.rows)} row(s) to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _add_common(parser: argparse.ArgumentParser, config_flag: bool = True) -> None:
    if config_flag:
        parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--set", action="extend", nargs="+", default=[],
                        metavar="KEY=VALUE",
                        help="config overrides, last one wins")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--curves", action="store_true",
                        help="emit full time series in evolve mode")
    parser.add_argument("--quiet", action="store_true")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and argparse copies the --set default list on each parse."""
    parser = argparse.ArgumentParser(
        prog="cfomech",
        description="Entanglement of two mechanical resonators in a driven "
                    "cavity with a coherent feedback loop.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("steady", "one steady-state entanglement value"),
        ("evolve", "one entanglement transient"),
        ("sweep", "grid sweep over one or two axes"),
        ("optimize", "grid search with recursive refinement"),
        ("stability", "both stability verdicts and the spectral abscissa"),
    ):
        p = sub.add_parser(name, help=text)
        _add_common(p)
        if name == "optimize":
            p.add_argument("--refine", type=int, default=3,
                           help="number of refinement levels")
    p = sub.add_parser("preset", help="run a named figure preset")
    p.add_argument("name", choices=experiments.PRESET_NAMES)
    _add_common(p, config_flag=False)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "preset":
            base = experiments.preset_config(args.name).as_dict()
            cfg = build_config(_merge_sets(base, args.set or []))
            table = experiments.run_preset(args.name, cfg, curves=args.curves)
        else:
            cfg = _load_config(args)
            if args.command == "steady":
                table = _point_table(cfg.replace(mode="steady"))
            elif args.command == "evolve":
                table = _point_table(cfg.replace(mode="evolve"))
            elif args.command == "sweep":
                table = experiments.run_sweep(cfg, curves=args.curves)
            elif args.command == "optimize":
                table = experiments.find_optimum(cfg, refine_levels=args.refine)
            elif args.command == "stability":
                table = _stability_table(cfg)
            else:  # pragma: no cover
                raise ConfigError(f"unknown command {args.command}")
        _emit(table, args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (StabilityError, NoFeasiblePointError) as exc:
        print(f"stability error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, DivergenceError, OSError) as exc:
        print(f"numerical/io error: {exc}", file=sys.stderr)
        return 4
    return 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
