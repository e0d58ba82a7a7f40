#!/usr/bin/env python3
"""cfomech benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.

Runs from the root of a source checkout and imports the package from its
``src`` directory. Every pass is checked row by row against the stored
reference in ``perfbench/reference`` or, for seeds without one, against the
independent oracle in ``oracle.py``. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it carries the provenance. Details of the run, and the spans of
the last traced pass, are written to ``.bench_out/``. End-to-end timings are
corrected for the CPU's current speed by the probe in ``speed.py``; per-layer
timings are raw.

``--record`` stores this checkout's outputs as the reference for the given
workload (and seed, for seeded workloads) instead of measuring.
"""

from __future__ import annotations

import os

#: BLAS and OpenMP pools are pinned to one thread before numpy is imported;
#: the set-up processes inherit the setting.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(SRC))
try:
    import cfomech
    if not Path(cfomech.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"resolved to {cfomech.__file__}")
except ImportError as _exc:
    sys.exit(f"cannot import cfomech from {SRC}: {_exc}")

import numpy  # noqa: E402
import scipy  # noqa: E402

import oracle  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: Fresh processes per run that measure set-up; the first also runs one full
#: pass for the peak resident set size.
SETUP_RUNS = 7
CHILD_TIMEOUT_S = 150
#: Timed passes per run at least, whatever --seconds says.
MIN_PASSES = 3

TRACED_MODULES = ("experiments", "dynamics", "entanglement", "cli")

#: Per-layer metrics, with the unit each is reported in.
LAYER_METRICS = (
    ("experiments.resolve.self_s", "s"),
    ("experiments.rows.self_s", "s"),
    ("dynamics.state_space.self_s", "s"),
    ("dynamics.stability.self_s", "s"),
    ("dynamics.stability.calls_per_point", "count"),
    ("dynamics.lyapunov.self_s", "s"),
    ("dynamics.lyapunov.us_per_call", "us"),
    ("dynamics.propagate.self_s", "s"),
    ("dynamics.expm.calls_per_model", "count"),
    ("entanglement.pt_spectrum.self_s", "s"),
    ("entanglement.pt_spectrum.us_per_call", "us"),
    ("entanglement.eig.calls_per_spectrum", "count"),
    ("cli.main.self_s", "s"),
    ("cli.serialize.self_s", "s"),
    ("cli.serialize.bytes", "count"),
    ("trace.overhead_frac", "1"),
)


# -- references ---------------------------------------------------------------
def reference_path(wl) -> Path:
    suffix = f"-seed{wl.seed}" if wl.seeded_reference else ""
    return REFERENCE_DIR / f"{wl.name}{suffix}.json"


def load_reference(wl) -> tuple[dict, str]:
    """Rows per call key, from the stored file or else from the oracle."""
    path = reference_path(wl)
    if path.exists():
        rows = json.loads(path.read_text(encoding="utf-8"))["rows"]
        source = f"stored {path.relative_to(ROOT)}"
    else:
        rows = wl.oracle_rows()
        source = "oracle"
    return {str(k): [tuple(r) for r in v] for k, v in rows.items()}, source


def record_reference(wl) -> Path:
    rows = {str(key): wl.rows(key, wl.call(key)) for key in wl.keys}
    path = reference_path(wl)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"workload": wl.name, "seed": wl.seed if wl.seeded_reference else None,
               "row": ["status", "EN", "nu_minus"], "rows": rows}
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
    return path


# -- passes -------------------------------------------------------------------
class Tally:
    """Rows checked and rows failed over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reported = False

    def check(self, wl, key, output, reference) -> None:
        expected = reference[str(key)]
        got = wl.rows(key, output) if output is not None else []
        self.attempted += len(expected)
        if len(got) != len(expected):
            self.failed += len(expected)
            bad = [f"{len(got)} rows, expected {len(expected)}"]
        else:
            bad = [f"row {i}: {r} vs {e}" for i, (r, e) in enumerate(zip(got, expected))
                   if not oracle.row_matches(r, e)]
            self.failed += len(bad)
        if bad and not self.reported:
            self.reported = True
            print(f"mismatch in {wl.name} call {key}: {bad[0]}", file=sys.stderr)


def run_pass(wl, reference, tally):
    """Run every call of one pass; return the pass's (start, end) and each
    call's (start, end) on the perf_counter clock, and the counts. Outputs
    are checked after the clock stops."""
    calls, outputs = [], []
    perf = time.perf_counter
    start = perf()
    for key in wl.keys:
        t0 = perf()
        try:
            out = wl.call(key)
        except Exception:  # a raising call counts its rows as failed
            if not tally.reported:
                traceback.print_exc()
            out = None
        calls.append((t0, perf()))
        outputs.append(out)
    end = perf()
    counts = workloads.Counts()
    for key, out in zip(wl.keys, outputs):
        tally.check(wl, key, out, reference)
        if out is not None:
            wl.count(key, out, counts)
    return (start, end), calls, counts


def traced_pass(tr, wl, reference, tally):
    """One pass with the tracer installed: wall time, span summary, counts."""
    tr.begin_pass()
    with tr:
        (start, end), _, counts = run_pass(wl, reference, tally)
    return end - start, tr.pass_summary(), counts


def make_tracer():
    return tracer.Tracer({m: getattr(cfomech, m) for m in TRACED_MODULES}, numpy.linalg)


def run_child(args, rss: bool) -> dict:
    """Set-up time (and peak RSS) measured by cold_start.py in a fresh process."""
    cmd = [sys.executable, str(HERE / "cold_start.py"), args.workload, str(args.seed)]
    if rss:
        cmd.append("--rss")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- metrics ------------------------------------------------------------------
def ratio(num, den) -> float:
    return num / den if den else 0.0


def end_to_end(args, wl, reference):
    """Set-up in fresh processes, one untimed warm-up pass, then timed passes
    until --seconds have passed, under the speed probe. Every timing is at
    the probe's reference speed; the raw wall times go to the details."""
    setups = [run_child(args, rss=(i == 0)) for i in range(SETUP_RUNS)]
    tally = Tally()
    run_pass(wl, reference, tally)  # warm-up, not timed
    passes, calls = [], []
    probe = speed.Probe()
    with probe:
        deadline = time.perf_counter() + args.seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            span, call_spans, counts = run_pass(wl, reference, tally)
            passes.append(span)
            calls.extend(call_spans)
    walls = [probe.normalize(*span) for span in passes]
    pass_s = statistics.median(walls)
    latencies = [probe.normalize(*span) for span in calls] if wl.call_is_request else walls
    metrics = {
        "pass_s": (pass_s, "s"),
        "samples_per_s": (counts.samples / pass_s, "1/s"),
        "call_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        "call_ms_p90": (1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[-1],
                        "ms"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (setups[0]["maxrss_kb"] / 1024.0, "MB"),
        "ok_frac": (1.0 - ratio(tally.failed, tally.attempted), "1"),
    }
    details = {"pass_s": walls, "pass_s_raw": [end - start for start, end in passes],
               "latencies": len(latencies), "probe_samples": len(probe.durations),
               "probe_kernel_s_median": statistics.median(probe.durations),
               "setup_s": [s["setup_s"] for s in setups],
               "setup_s_raw": [s["setup_s_raw"] for s in setups],
               "counts_per_pass": vars(counts)}
    return tally, metrics, details


def layer_values(summary: dict, counts) -> dict:
    """Per-layer metrics of one traced pass.

    us_per_call is per layer entry for the Lyapunov solve and per spectrum
    (E_N sample) for the PT spectrum; calls_per_point divides entries into
    the stability layer by the operating points of the pass.
    """
    self_s, entries = summary["self_s"], summary["entries"]
    out = {name: self_s.get(name[:-len(".self_s")], 0.0)
           for name, _ in LAYER_METRICS if name.endswith(".self_s")}
    out.update({
        "dynamics.stability.calls_per_point":
            ratio(entries.get("dynamics.stability", 0), counts.points),
        "dynamics.lyapunov.us_per_call":
            1e6 * ratio(out["dynamics.lyapunov.self_s"], entries.get("dynamics.lyapunov", 0)),
        "dynamics.expm.calls_per_model":
            ratio(summary["calls"].get("dynamics.expm", 0), counts.models),
        "entanglement.pt_spectrum.us_per_call":
            1e6 * ratio(out["entanglement.pt_spectrum.self_s"], counts.samples),
        "entanglement.eig.calls_per_spectrum":
            ratio(summary["eig_calls"].get("entanglement.pt_spectrum", 0), counts.samples),
        "cli.serialize.bytes": counts.bytes,
    })
    return out


def per_layer(args, wl, reference):
    """Untraced and traced passes alternate; per-layer metrics are medians over
    the traced passes, and the overhead compares the two kinds."""
    tally = Tally()
    run_pass(wl, reference, tally)  # warm-up, not timed
    tr = make_tracer()
    plain, traced, per_pass, self_sums = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        (start, end), _, _ = run_pass(wl, reference, tally)
        plain.append(end - start)
        wall, summary, counts = traced_pass(tr, wl, reference, tally)
        traced.append(wall)
        per_pass.append(layer_values(summary, counts))
        self_sums.append(sum(summary["self_s"].values()))
    OUT_DIR.mkdir(exist_ok=True)
    tr.write_spans(OUT_DIR / f"spans-{wl.name}-seed{wl.seed}.csv")
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics = {name: (overhead if name == "trace.overhead_frac"
                      else statistics.median(p[name] for p in per_pass), unit)
               for name, unit in LAYER_METRICS}
    details = {"pass_s_plain": plain, "pass_s_traced": traced, "per_pass": per_pass,
               "self_s_sum_per_pass": self_sums, "last_pass_summary": summary}
    return tally, metrics, details


# -- provenance ---------------------------------------------------------------
def git_commit() -> str | None:
    """HEAD of the checkout; None when it is not a git repository (git does
    not look above the checkout for one)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, env=env, check=False)
    except OSError:  # no git on the machine
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except Exception:  # show_config's layout differs between numpy versions
        blas_name = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(), "thread_env": {v: os.environ.get(v) for v in THREAD_ENV},
        "blas": blas_name, "numpy": numpy.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this checkout's outputs as the reference")
    args = parser.parse_args(argv)

    wl = workloads.make(args.workload, args.seed)
    if args.record:
        print(f"wrote {record_reference(wl)}", file=sys.stderr)
        return 0
    reference, source = load_reference(wl)
    measure = per_layer if args.trace else end_to_end
    tally, metrics, details = measure(args, wl, reference)

    prov = provenance(args)
    prov["reference"] = source
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{wl.name}-seed{wl.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"provenance": prov, "result": result, "details": details},
                              indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
