"""The four benchmark workloads: inputs drawn from a seed, the top-level calls
of one pass, and the rows each pass is checked on.

A row is (status, EN, nu_minus). Sweep rows have status "stable|<error>" or
"unstable|<error>"; CLI rows have status "exit <code>".
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math

import numpy as np

from cfomech import cli, experiments
from cfomech.experiments import RunConfig, SweepAxis

import oracle

#: Length of the seeded call sequence that one CLI pass runs through.
CLI_CALLS_PER_PASS = 512

#: Base of the evolve sweep: the equal-coupling transient setting of fig3 on a
#: coarser time grid, swept over coupling ratio and reflectivity.
EVOLVE_BASE = dict(G1=1e4, G2=1e4, kappa1=5e4, kappa2=5e4, gamma1=10.0,
                   gamma2=10.0, theta=0.0, mode="evolve", tMax=2e-3, tPoints=51)
EVOLVE_AXES = (("ratio", 0.9, 1.1, 15), ("rB", 0.0, 1.0, 15))

#: The CLI single-point setting. Only G1, G2, rB and theta are passed; the
#: rest are the package defaults, restated here for the oracle.
CLI_G2 = 1e5
CLI_DEFAULTS = dict(kappa1=5e4, kappa2=5e4, gamma1=10.0, gamma2=10.0,
                    Delta=0.0, nbar1=0.0, nbar2=0.0)


def sweep_row(row: dict) -> tuple:
    flag = "stable" if row["stable"] else "unstable"
    return (f"{flag}|{row['error'] or ''}", row["EN"], row["nu_minus"])


def one_point(cfg: RunConfig) -> RunConfig:
    """The same run reduced to the first point of each sweep axis."""
    return cfg.replace(axes=tuple(dataclasses.replace(ax, count=1) for ax in cfg.axes))


@dataclasses.dataclass
class Counts:
    """What one pass produced, counted by the benchmark itself."""

    points: int = 0    # operating points evaluated (rows, models or CLI calls)
    models: int = 0    # models propagated in time
    samples: int = 0   # E_N values produced
    bytes: int = 0     # characters of serialized output


class Workload:
    """One named workload. ``keys`` name the top-level calls of a pass in the
    order the seed chose; ``call(key)`` runs one of them and ``rows`` turns
    its output into checkable rows."""

    name: str
    why: str
    seeded_reference = False  # True when the outputs depend on the seed
    #: True when one call, not the whole pass, is what a user waits for;
    #: call_ms percentiles are then taken over calls instead of passes.
    call_is_request = False

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.keys: list = []

    def call(self, key):
        raise NotImplementedError

    def rows(self, key, output) -> list[tuple]:
        raise NotImplementedError

    def count(self, key, output, counts: Counts) -> None:
        raise NotImplementedError

    def cold_point(self) -> None:
        """Evaluate one point of this workload's code path."""
        raise NotImplementedError

    def oracle_rows(self) -> dict:
        raise NotImplementedError(f"{self.name} has no independent oracle")


class PresetWorkload(Workload):
    """Named figure presets through ``run_preset`` plus CSV ``serialize``.
    The seed only chooses the order of the presets within a pass."""

    presets: tuple = ()

    def __init__(self, seed: int):
        super().__init__(seed)
        self.keys = [self.presets[i] for i in self.rng.permutation(len(self.presets))]

    def call(self, key):
        table = experiments.run_preset(key)
        return table, cli.serialize(table, "csv")

    def rows(self, key, output):
        return [sweep_row(r) for r in output[0].rows]

    def count(self, key, output, counts):
        table, text = output
        counts.bytes += len(text)
        counts.samples += sum(r["EN"] is not None for r in table.rows)


class SteadyPresets(PresetWorkload):
    name = "steady_presets"
    why = ("fig2a, fig2c and fig2d: 3965 steady points, one Lyapunov solve "
           "each and no propagation")
    presets = ("fig2a", "fig2c", "fig2d")

    def count(self, key, output, counts):
        super().count(key, output, counts)
        counts.points += len(output[0].rows)

    def cold_point(self):
        cfg = one_point(experiments.preset_config("fig2a"))
        cli.serialize(experiments.run_preset("fig2a", cfg), "csv")


class TransientPresets(PresetWorkload):
    name = "transient_presets"
    why = ("fig3a and fig3b: 10 models x 201 samples, so PT spectra and the "
           "interval-map cache dominate and no Lyapunov solve runs")
    presets = ("fig3a", "fig3b")

    def count(self, key, output, counts):
        super().count(key, output, counts)
        models = len({r["rB"] for r in output[0].rows})
        counts.points += models
        counts.models += models

    def cold_point(self):
        cfg = experiments.preset_config("fig3a").replace(tPoints=2)
        cli.serialize(experiments.run_preset("fig3a", cfg), "csv")


class EvolveSweep(Workload):
    name = "evolve_sweep"
    why = ("peak E_N over a 15x15 ratio x rB grid, 51 samples each: every model "
           "is propagated, half are unstable and rB = 1 has kappa_tilde = 0")
    seeded_reference = True

    def __init__(self, seed: int):
        super().__init__(seed)
        self.Delta = float(self.rng.uniform(0.0, 2e3))
        self.nbar1 = float(self.rng.uniform(0.0, 20.0))
        self.nbar2 = float(self.rng.uniform(0.0, 20.0))
        self.cfg = RunConfig(**EVOLVE_BASE, Delta=self.Delta, nbar1=self.nbar1,
                             nbar2=self.nbar2,
                             axes=tuple(SweepAxis(*ax) for ax in EVOLVE_AXES))
        self.keys = ["sweep"]

    def call(self, key):
        return experiments.run_sweep(self.cfg)

    def rows(self, key, output):
        return [sweep_row(r) for r in output.rows]

    def count(self, key, output, counts):
        counts.points += len(output.rows)
        counts.models += len(output.rows)
        counts.samples += self.cfg.tPoints * sum(r["error"] is None for r in output.rows)

    def cold_point(self):
        experiments.run_sweep(one_point(self.cfg))

    def oracle_rows(self):
        base = EVOLVE_BASE
        t = np.linspace(0.0, base["tMax"], base["tPoints"])
        (_, r0, r1, rn), (_, b0, b1, bn) = EVOLVE_AXES
        rows = []
        for ratio in np.linspace(r0, r1, rn):
            for rB in np.linspace(b0, b1, bn):
                A, D = oracle.state_space(
                    G1=float(ratio) * base["G2"], G2=base["G2"],
                    kappa1=base["kappa1"], kappa2=base["kappa2"],
                    gamma1=base["gamma1"], gamma2=base["gamma2"],
                    Delta=self.Delta, rB=float(rB), theta=base["theta"],
                    nbar1=self.nbar1, nbar2=self.nbar2)
                rows.append(oracle.evolve_peak(A, D, self.nbar1, self.nbar2, t))
        return {"sweep": rows}


class CliSinglePoint(Workload):
    name = "cli_single_point"
    why = ("closed loop of in-process 'cfomech steady --set ...' calls: the "
           "config path at N = 1, about 9% exit 3 (unstable) by design")
    seeded_reference = True
    call_is_request = True

    def __init__(self, seed: int):
        super().__init__(seed)
        n = CLI_CALLS_PER_PASS
        ratio = self.rng.uniform(0.5, 1.05, n)
        rB = self.rng.uniform(0.0, 0.99, n)
        theta = self.rng.uniform(-math.pi, math.pi, n)
        self.points = [(float(q) * CLI_G2, float(r), float(th))
                       for q, r, th in zip(ratio, rB, theta)]
        self.argv = [["steady", "--set", f"G1={G1!r}", f"G2={CLI_G2!r}",
                      f"rB={r!r}", f"theta={th!r}"] for G1, r, th in self.points]
        self.keys = list(range(n))

    def call(self, key):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv[key])
        return code, out.getvalue()

    def rows(self, key, output):
        code, text = output
        if code != 0:
            return [(f"exit {code}", None, None)]
        values = text.splitlines()[1].split(",")
        return [(f"exit {code}", float(values[0]), float(values[1]))]

    def count(self, key, output, counts):
        counts.points += 1
        counts.samples += output[0] == 0
        counts.bytes += len(output[1])

    def cold_point(self):
        self.call(0)

    def oracle_rows(self):
        rows = {}
        for key, (G1, rB, theta) in enumerate(self.points):
            A, D = oracle.state_space(G1=G1, G2=CLI_G2, rB=rB, theta=theta,
                                      **CLI_DEFAULTS)
            stable, en, nu = oracle.steady(A, D)
            rows[key] = [("exit 0", en, nu) if stable else ("exit 3", None, None)]
        return rows


WORKLOADS = {cls.name: cls for cls in
             (SteadyPresets, TransientPresets, EvolveSweep, CliSinglePoint)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
