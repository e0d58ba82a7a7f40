"""Command-line entry point: JSON configs in, plot-ready CSV/JSON tables out.

Exit codes: 0 success, 2 configuration error, 3 instability in steady mode
(or no feasible optimization point), 4 numerical or I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
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
from .experiments import ResultTable, RunConfig, SweepAxis, _number

_CONFIG_KEYS = {f.name for f in dataclasses.fields(RunConfig)} | {"thetaPi"}
_NUMBER_KEYS = {*experiments.NUMBER_FIELDS, "thetaPi"}
_BOOLEAN_KEYS = {f.name for f in dataclasses.fields(RunConfig) if f.type == "bool"}
_AXIS_KEYS = {"name", "min", "max", "count"}

SIGNIFICANT_DIGITS = 12

_CSV_FLOAT = f"%.{SIGNIFICANT_DIGITS}g"

#: csv.writer's minimal quoting under a "\n" line terminator quotes a cell
#: holding one of these, with its quotes doubled.
_CSV_QUOTED = re.compile('[,"\n]')


def _csv_cell(value) -> str:
    """CSV text of a value: a float to SIGNIFICANT_DIGITS, None empty, a
    boolean true or false, anything else its str; quoted where needed."""
    text = (_CSV_FLOAT % value if isinstance(value, float) else "" if value is None
            else ("true" if value else "false") if isinstance(value, bool) else str(value))
    return '"%s"' % text.replace('"', '""') if _CSV_QUOTED.search(text) else text


def _csv_column(values: list) -> list[str]:
    """The CSV cells of a column: each distinct text, boolean or None formatted
    once, any other value one by one (1, 1.0 and True are one dict key)."""
    if not set(map(type, values)) <= {str, bool, type(None)}:
        return list(map(_csv_cell, values))
    memo = {value: _csv_cell(value) for value in set(values)}
    return list(map(memo.__getitem__, values))


def _json_value(value, rounded: bool = True):
    """A JSON value: a float rounded to SIGNIFICANT_DIGITS if asked, null if not finite."""
    if isinstance(value, float):
        return (float(_CSV_FLOAT % value) if rounded else value) if math.isfinite(value) else None
    return value


def serialize(table: ResultTable, fmt: str) -> str:
    """Render a result table column by column as CSV (header mandatory, 12
    significant digits, missing values empty) or JSON (rows plus a meta
    object, a non-finite float null)."""
    if fmt == "csv":
        # a float column is formatted within its line, any other one first
        floats = [set(map(type, values)) <= {float} for values in table.columns.values()]
        line = ",".join([_CSV_FLOAT if f else "%s" for f in floats])
        cells = [values if f else _csv_column(values)
                 for values, f in zip(table.columns.values(), floats)]
        quoted = _CSV_QUOTED.search("".join(table.columns))  # in a header, seldom
        header = ",".join(map(_csv_cell, table.columns) if quoted else table.columns)
        lines = [header, *map(line.__mod__, zip(*cells))]
        if len(cells) == 1:  # a line of one empty field reads "", as csv.writer writes it
            lines = ['""' if text == "" else text for text in lines]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        meta = {key: _json_value(value, False) for key, value in table.meta.items()}
        cells = [list(map(_json_value, values)) for values in table.columns.values()]
        rows = [dict(zip(table.columns, row)) for row in zip(*cells)]
        return json.dumps({"meta": meta, "rows": rows}, indent=2, allow_nan=False) + "\n"
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
    if data.get("thetaPi") is not None:
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
    table = experiments.run_points(cfg, [], [], curves=True)
    error = table.columns["error"][0]
    if cfg.mode == "steady" and error == "unstable":
        raise StabilityError("steady mode on an unstable operating point; "
                             "use evolve mode or change parameters")
    if error is not None:
        raise NumericalError(error)
    return table


def _stability_table(cfg: RunConfig) -> ResultTable:
    model, verdict = experiments.resolve_point(cfg)
    A = dynamics.state_space_realified(dynamics.state_space_coordinates(model)[0])
    abscissa = dynamics.spectral_abscissa(A)
    if math.isnan(abscissa[0]):
        raise NumericalError(experiments.NONFINITE_DRIFT)
    try:
        analytic = dynamics.stability_margin(model) > 0.0
    except UnsupportedRegimeError:
        analytic = None
    columns = {"stableAnalytic": [analytic],
               "stableEigen": dynamics.stability_from_abscissa(A, abscissa).tolist(),
               "spectralAbscissa": abscissa.tolist(), "kappaTilde": [model.kappa_tilde],
               "DeltaTilde": [model.delta_tilde], "rwaVerdict": [verdict]}
    return ResultTable(columns, experiments.table_meta(cfg, columns))


def _emit(table: ResultTable, args) -> None:
    text = serialize(table, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        if not args.quiet:
            print(f"wrote {len(table)} row(s) to {args.out}", file=sys.stderr)
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
