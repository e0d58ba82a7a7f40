#!/usr/bin/env python3
"""Self-tests of the benchmark's correctness gate and tracer.

    python3 perfbench/selftest.py

Runs one or two passes per workload (about a minute on a 2-core x86-64 box)
and prints one PASS or FAIL line per check; the exit code is the number of
failed checks.
"""

from __future__ import annotations

import sys

import run  # pins the BLAS threads and imports cfomech from this checkout
from run import cfomech, numpy, oracle, workloads

#: Counts that must come out exactly, per workload.
EXACT = {
    "steady_presets": {"dynamics.stability.calls_per_point": 2.0,
                       "entanglement.eig.calls_per_spectrum": 2.0},
    "transient_presets": {"entanglement.eig.calls_per_spectrum": 2.0,
                          "dynamics.expm.calls_per_model": 12.0},
}
COUNT_METRICS = ("dynamics.stability.calls_per_point", "dynamics.expm.calls_per_model",
                 "entanglement.eig.calls_per_spectrum", "cli.serialize.bytes")

#: E_N error of the two-mode invariant formula on fig2a; the gate must catch it.
INVARIANT_FORMULA_EN_ERROR = 3.5e-5

failures = 0


def check(ok: bool, what: str) -> None:
    global failures
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'}  {what}")


def wrapped_attributes() -> dict:
    tr = run.make_tracer()
    found = {(mod.__name__, attr): getattr(mod, attr) for mod, attr, _ in tr.targets()}
    for attr in run.tracer.EIG_FUNCTIONS:
        found[("numpy.linalg", attr)] = getattr(numpy.linalg, attr)
    return found


def test_tracer(name: str) -> None:
    wl = workloads.make(name, 0)
    reference, _ = run.load_reference(wl)
    before = wrapped_attributes()
    check(("cfomech.dynamics", "steady_state_covariance") in before
          and ("cfomech.dynamics", "expm") in before,
          f"{name}: tracer targets include steady_state_covariance and expm")
    runs = []
    for _ in range(2):
        tally = run.Tally()
        tr = run.make_tracer()
        wall, summary, counts = run.traced_pass(tr, wl, reference, tally)
        runs.append(run.layer_values(summary, counts))
        self_sum = sum(summary["self_s"].values())
        check(0.0 < self_sum <= wall,
              f"{name}: self times sum to {self_sum:.4f} s <= traced pass {wall:.4f} s")
        check(tally.failed == 0, f"{name}: traced pass matches the reference")
    after = wrapped_attributes()
    check(all(after[k] is v for k, v in before.items()) and after.keys() == before.keys(),
          f"{name}: all {len(before)} wrapped attributes restored")
    first, second = runs
    check(all(first[m] == second[m] for m in COUNT_METRICS),
          f"{name}: counts repeat exactly {[first[m] for m in COUNT_METRICS]}")
    for metric, value in EXACT.get(name, {}).items():
        check(first[metric] == value, f"{name}: {metric} = {first[metric]} (expected {value})")


def test_gate() -> None:
    wl = workloads.make("steady_presets", 0)
    reference, _ = run.load_reference(wl)
    key = "fig2a"
    rows = reference[key]
    entangled = [i for i, r in enumerate(rows) if r[1]]
    i = entangled[len(entangled) // 2]

    class Fixed(workloads.Workload):
        """Replays reference rows with one E_N value shifted."""
        name = "fixed"

        def __init__(self, shift):
            self.shifted = list(rows)
            status, en, nu = rows[i]
            self.shifted[i] = (status, en + shift, nu)

        def rows(self, key, output):
            return self.shifted

    for shift, expect in ((INVARIANT_FORMULA_EN_ERROR, 1), (-INVARIANT_FORMULA_EN_ERROR, 1),
                          (0.0, 0), (1e-9, 0)):
        tally = run.Tally()
        tally.reported = True  # keep the expected mismatch off stderr
        tally.check(Fixed(shift), key, object(), reference)
        check(tally.failed == expect and tally.attempted == len(rows),
              f"gate: E_N shifted by {shift:g} gives {tally.failed} failed row(s), "
              f"expected {expect}")
    status, en, nu = rows[i]
    check(not oracle.row_matches((status, en, nu * (1 + 3.4e-5)), rows[i]),
          "gate: nu off by 3.4e-5 relative (the invariant formula's loss) fails")
    check(not oracle.row_matches(("unstable|unstable", None, None), rows[i]),
          "gate: a changed stability verdict fails")


def test_probe() -> None:
    probe = run.speed.Probe()
    ref = run.speed.REFERENCE_S
    probe.starts, probe.durations = [1.0, 2.0, 3.0], [ref, ref, ref]
    got = probe.normalize(0.5, 2.5)
    check(abs(got - (2.0 - 2 * ref)) < 1e-12,
          f"probe: at reference speed an interval keeps its length less the samples ({got:.6f} s)")
    probe.durations = [2 * ref, 2 * ref, 2 * ref]
    got = probe.normalize(2.0 + 2 * ref + 0.1, 2.0 + 2 * ref + 0.3)
    check(abs(got - 0.1) < 1e-12, f"probe: at half speed an interval counts half ({got:.6f} s)")


def test_oracle() -> None:
    for name in ("evolve_sweep", "cli_single_point"):
        for seed in (0, 1):
            wl = workloads.make(name, seed)
            stored, source = run.load_reference(wl)
            predicted = {str(k): v for k, v in wl.oracle_rows().items()}
            bad = sum(not oracle.row_matches(r, e)
                      for k in stored for r, e in zip(predicted[k], stored[k]))
            check(source.startswith("stored") and bad == 0 and stored.keys() == predicted.keys(),
                  f"oracle agrees with {source} ({bad} mismatches)")


def main() -> int:
    print(f"cfomech from {cfomech.__file__}")
    test_gate()
    test_probe()
    test_oracle()
    for name in workloads.WORKLOADS:
        test_tracer(name)
    print(f"{failures} check(s) failed")
    return failures


if __name__ == "__main__":
    sys.exit(main())
