"""The benchmark's row check, run in Tier-1.

One pass of each workload that BENCHMARK.json declares, at seeds 0 and 1,
with every row held to the stored reference in perfbench/reference by
perfbench/oracle.row_matches, as perfbench/run.py checks each timed pass
(Tally.check): a row-count mismatch fails.  perfbench/run.py itself is not
imported, since it pins the BLAS thread count in the environment on import.
About 2.5 s for all eight passes on a 2-vCPU machine.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def bench():
    """perfbench's workloads and oracle modules, registered under the names
    they import each other by while the tests of this file run."""
    with pytest.MonkeyPatch.context() as patch:
        loaded = []
        for name in ("oracle", "workloads"):
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            patch.setitem(sys.modules, name, module)
            spec.loader.exec_module(module)
            loaded.append(module)
        yield loaded[1], loaded[0]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_one_pass_matches_the_stored_reference(bench, name, seed):
    workloads, oracle = bench
    wl = workloads.make(name, seed)
    stored = f"{name}-seed{seed}.json" if wl.seeded_reference else f"{name}.json"
    reference = json.loads((PERFBENCH / "reference" / stored).read_text())["rows"]
    assert sorted(reference) == sorted(str(key) for key in wl.keys)
    for key in wl.keys:
        expected = [tuple(row) for row in reference[str(key)]]
        got = wl.rows(key, wl.call(key))
        assert len(got) == len(expected), f"call {key}: {len(got)} rows, expected {len(expected)}"
        bad = [f"row {i}: {r} vs {e}" for i, (r, e) in enumerate(zip(got, expected))
               if not oracle.row_matches(r, e)]
        assert not bad, f"call {key}: {len(bad)} rows differ, first {bad[0]}"
