#!/usr/bin/env python3
"""Regenerate every named figure preset into plot-ready CSV tables.

Usage: python scripts/reproduce_figures.py [OUTPUT_DIR]

Prints the time of each preset and of the whole run, in milliseconds.
"""

import sys
import time
from pathlib import Path

from cfomech import cli, experiments


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("figures")
    out_dir.mkdir(parents=True, exist_ok=True)
    total = 0.0
    for name in experiments.PRESET_NAMES:
        start = time.perf_counter()
        table = experiments.run_preset(name)
        path = out_dir / f"{name}.csv"
        path.write_text(cli.serialize(table, "csv"), encoding="utf-8")
        elapsed = time.perf_counter() - start
        total += elapsed
        print(f"{name}: {len(table)} rows -> {path} ({1e3 * elapsed:.1f} ms)")
    print(f"total: {len(experiments.PRESET_NAMES)} presets in {1e3 * total:.1f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
