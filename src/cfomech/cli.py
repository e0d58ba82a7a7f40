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

from . import experiments
from .errors import (
    ConfigError,
    DivergenceError,
    NoFeasiblePointError,
    NumericalError,
    StabilityError,
)
from .experiments import ResultTable, RunConfig, SweepAxis, _number

_CONFIG_KEYS = {f.name for f in dataclasses.fields(RunConfig)} | {"thetaPi"}
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


def _csv_column(values: list, types: set) -> list[str]:
    """The CSV cells of a column whose values are of the given types: each
    distinct text, boolean or None formatted once, any other value one by one
    (1, 1.0 and True are one dict key)."""
    if not types <= {str, bool, type(None)}:
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
        # a float column is formatted within its line, any other one first;
        # each column's types are taken once
        types = [set(map(type, values)) for values in table.columns.values()]
        line = ",".join([_CSV_FLOAT if t <= {float} else "%s" for t in types])
        cells = [values if t <= {float} else _csv_column(values, t)
                 for values, t in zip(table.columns.values(), types)]
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
        try:
            data[key] = json.loads(raw)
        except json.JSONDecodeError:
            data[key] = raw
    return data


def build_config(data: dict) -> RunConfig:
    """Build the run configuration from a flat key-value mapping.  RunConfig and
    SweepAxis check every value; this checks only what they never see: unknown
    keys, thetaPi (theta in units of pi) and the JSON shape of the axes."""
    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    # drop explicit nulls so dataclass defaults apply uniformly
    cleaned = {k: v for k, v in data.items() if v is not None}
    if "thetaPi" in cleaned:
        theta_pi = _number("thetaPi", cleaned.pop("thetaPi"))
        if "theta" in cleaned:
            raise ConfigError("give either theta or thetaPi, not both")
        cleaned["theta"] = float(theta_pi) * math.pi
        if not math.isfinite(cleaned["theta"]):  # a finite thetaPi may overflow
            raise ConfigError(f"thetaPi must be at most {sys.float_info.max / math.pi:.6g} "
                              f"in magnitude, got {theta_pi!r}")
    axes_raw = cleaned.get("axes", [])
    if not isinstance(axes_raw, list):
        raise ConfigError(f"axes must be a list of axis objects, got {axes_raw!r}")
    axes = []
    for i, ax in enumerate(axes_raw):
        if not isinstance(ax, dict):
            raise ConfigError(f"axes[{i}] must be an object with {sorted(_AXIS_KEYS)}")
        bad = sorted(set(ax) - _AXIS_KEYS)
        if bad:
            raise ConfigError(f"axes[{i}]: unknown key(s) {', '.join(bad)}")
        if not {"name", "min", "max"} <= set(ax):
            raise ConfigError(f"axes[{i}]: name, min and max are required")
        axes.append(SweepAxis(**ax))
    cleaned["axes"] = tuple(axes)
    return RunConfig(**cleaned)


def _load_config(args) -> RunConfig:
    """Every command's configuration: the preset's own, the config file or a
    previous JSON output's meta.config, then the --set overrides."""
    data = experiments.preset_config(args.name).as_dict() if args.command == "preset" else {}
    if getattr(args, "config", None):  # preset takes no config file
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
    _merge_sets(data, args.set)
    # the steady and evolve commands run in their own mode, one RunConfig built
    # per call; an invalid mode in the input stays, for RunConfig to reject
    if args.command in ("steady", "evolve") and data.get("mode") in ("steady", "evolve", None):
        data["mode"] = args.command
    return build_config(data)


def _emit(table: ResultTable, args) -> None:
    text = serialize(table, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        if not args.quiet:
            print(f"wrote {len(table)} row(s) to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _add_common(parser: argparse.ArgumentParser, command: str) -> None:
    if command != "preset":
        parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--set", action="extend", nargs="+", default=[],
                        metavar="KEY=VALUE",
                        help="config overrides, last one wins")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    if command in ("sweep", "preset"):  # the other commands give one row
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
        _add_common(p, name)
        if name == "optimize":
            p.add_argument("--refine", type=int, default=3,
                           help="number of refinement levels")
    p = sub.add_parser("preset", help="run a named figure preset")
    p.add_argument("name", choices=experiments.PRESET_NAMES)
    _add_common(p, "preset")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command in ("steady", "evolve"):
            table = experiments.point_table(cfg)
        elif args.command == "sweep":
            table = experiments.run_sweep(cfg, curves=args.curves)
        elif args.command == "optimize":
            table = experiments.find_optimum(cfg, refine_levels=args.refine)
        elif args.command == "stability":
            table = experiments.stability_table(cfg)
        else:  # preset, the one command left
            table = experiments.run_preset(args.name, cfg, curves=args.curves)
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
