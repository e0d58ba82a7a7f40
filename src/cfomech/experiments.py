"""Named, reproducible pipelines: grid sweeps, optimum search, figure presets.

Everything here is deterministic: fixed iteration order, no randomized
numerics, so identical configurations produce bit-identical result rows.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, entanglement, params
from .errors import ConfigError, NoFeasiblePointError

#: Parameters that a sweep axis may address.
AXIS_NAMES = (
    "ratio", "G1", "G2", "rB", "theta", "Delta",
    "nbar1", "nbar2", "gamma1", "gamma2", "kappa1", "kappa2",
)

_DRIVE_KEYS = ("g1", "g2", "P1", "P2", "omegaL1", "omegaL2")

#: Default grid density per sweep axis.
DEFAULT_AXIS_COUNT = 61

#: Default time horizon and sampling for evolve-mode runs.
DEFAULT_T_MAX = 2e-3
DEFAULT_T_POINTS = 201

#: Reflectivities of the equal-coupling transient preset family.
FIG3_RB_VALUES = (0.0, 0.9, 0.99, 0.999, 1.0)

#: Steady sweeps resolve, solve and emit this many points at a time.  Larger
#: stacks save little time but hold every point's Lyapunov operator and
#: outcome at once, which raises peak memory.
STEADY_CHUNK = 64

#: Evolve sweeps propagate and score at most this many covariance samples
#: (points times tPoints, at least one point) at a time.  Peak memory grows
#: with the chunk while the time per sample stops falling well below it.
EVOLVE_SAMPLES = 1024


@dataclass(frozen=True)
class SweepAxis:
    name: str
    min: float
    max: float
    count: int = DEFAULT_AXIS_COUNT

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ConfigError(f"unknown sweep axis '{self.name}'; "
                              f"expected one of {', '.join(AXIS_NAMES)}")
        if self.count < 1:
            raise ConfigError(f"axis '{self.name}': count must be >= 1")
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ConfigError(f"axis '{self.name}': bounds must be finite")
        if self.min > self.max:
            raise ConfigError(f"axis '{self.name}': min exceeds max")

    def grid(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.min])
        return np.linspace(self.min, self.max, self.count)


@dataclass(frozen=True)
class RunConfig:
    """Flat run configuration; field names double as the config-file schema.

    Couplings come either directly (G1, G2) or from the drive block (g1, g2,
    P1, P2, omegaL1, omegaL2 together with omega1, omega2), never both.
    Occupancies come either from nbar1/nbar2 or from temperatureK with the
    mechanical frequencies.
    """

    gamma1: float = 10.0
    gamma2: float = 10.0
    kappa1: float = 5e4
    kappa2: float = 5e4
    G1: float | None = None
    G2: float | None = None
    Delta: float = 0.0
    rB: float = 0.0
    theta: float = 0.0
    nbar1: float | None = None
    nbar2: float | None = None
    temperatureK: float | None = None
    omega1: float | None = None
    omega2: float | None = None
    g1: float | None = None
    g2: float | None = None
    P1: float | None = None
    P2: float | None = None
    omegaL1: float | None = None
    omegaL2: float | None = None
    mode: str = "steady"
    tMax: float = DEFAULT_T_MAX
    tPoints: int = DEFAULT_T_POINTS
    axes: tuple[SweepAxis, ...] = ()
    detuningLock: bool = False
    rwaThreshold: float = params.RWA_THRESHOLD

    def __post_init__(self):
        drive = [getattr(self, k) is not None for k in _DRIVE_KEYS]
        direct = self.G1 is not None or self.G2 is not None
        if any(drive) and direct:
            raise ConfigError("give either G1/G2 or the drive block "
                              "(g1, g2, P1, P2, omegaL1, omegaL2), not both")
        if any(drive) and not all(drive):
            missing = [k for k, have in zip(_DRIVE_KEYS, drive) if not have]
            raise ConfigError(f"incomplete drive block: missing {', '.join(missing)}")
        if all(drive):
            if self.omega1 is None or self.omega2 is None:
                raise ConfigError("the drive block needs omega1 and omega2")
        elif not (self.G1 is not None and self.G2 is not None):
            raise ConfigError("either G1 and G2 or the full drive block is required")
        if self.temperatureK is not None:
            if self.nbar1 is not None or self.nbar2 is not None:
                raise ConfigError("give either temperatureK or nbar1/nbar2, not both")
            if self.omega1 is None or self.omega2 is None:
                raise ConfigError("temperatureK needs omega1 and omega2")
        if self.gamma1 + self.gamma2 + self.kappa1 + self.kappa2 <= 0:
            raise ConfigError("zero dissipation: at least one of "
                              "gamma1, gamma2, kappa1, kappa2 must be positive")
        if self.mode not in ("steady", "evolve"):
            raise ConfigError(f"mode must be 'steady' or 'evolve', got '{self.mode}'")
        if self.tMax <= 0:
            raise ConfigError("tMax must be positive")
        if self.tPoints < 2:
            raise ConfigError("tPoints must be >= 2")
        if self.rwaThreshold <= 0:
            raise ConfigError("rwaThreshold must be positive")
        if self.omega1 is not None and self.omega2 is not None:
            if self.omega1 <= 0 or self.omega2 <= 0:
                raise ConfigError("mechanical frequencies must be positive")
            if self.omega1 == self.omega2:
                raise ConfigError("mechanical frequencies must differ")

    @property
    def uses_drive_block(self) -> bool:
        return all(getattr(self, k) is not None for k in _DRIVE_KEYS)

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.tMax, self.tPoints)

    def as_dict(self) -> dict:
        """Fields by name, the axes as a list of field dicts: what
        dataclasses.asdict gives, without its deep copy of every value."""
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        out["axes"] = [{f.name: getattr(ax, f.name) for f in dataclasses.fields(ax)}
                       for ax in self.axes]
        return out


@dataclass
class ResultTable:
    """Uniform tabular result: ordered columns, one dict per row, run metadata."""

    columns: list[str]
    rows: list[dict]
    meta: dict = field(default_factory=dict)


def resolve_point(cfg: RunConfig, overrides: dict[str, float] | None = None
                  ) -> tuple[params.EffectiveModel, str]:
    """Apply axis values to the configuration: the effective model and its RWA
    verdict.

    The couplings are G1 and G2, with G1 = ratio*G2 on a ratio axis, or come
    from the drive block.  The detuning lock replaces Delta by
    2*sqrt(kappa1*kappa2)*rB*sin(theta) so the effective detuning vanishes
    identically.  The RWA verdict is "unknown" unless both mechanical
    frequencies are set.
    """
    overrides = overrides or {}
    drive = cfg.uses_drive_block
    if drive and ("ratio" in overrides or "G1" in overrides or "G2" in overrides):
        raise ConfigError("coupling axes need the direct G1/G2 entry path")
    if cfg.temperatureK is not None and ("nbar1" in overrides or "nbar2" in overrides):
        raise ConfigError("occupancy axes conflict with temperatureK")
    values = {
        "gamma1": cfg.gamma1, "gamma2": cfg.gamma2,
        "kappa1": cfg.kappa1, "kappa2": cfg.kappa2,
        "G1": cfg.G1, "G2": cfg.G2, "Delta": cfg.Delta,
        "rB": cfg.rB, "theta": cfg.theta,
        "nbar1": cfg.nbar1, "nbar2": cfg.nbar2,
    }
    for name, value in overrides.items():
        values[name] = float(value)
    kappa1, kappa2 = values["kappa1"], values["kappa2"]
    rB, theta, Delta = values["rB"], values["theta"], values["Delta"]
    if cfg.detuningLock:
        # the loop's own detuning shift; this checks rB and the decays first
        Delta = -params.effective_cavity_params(kappa1, kappa2, rB, theta, 0.0)[1]
    if cfg.temperatureK is not None:
        nbar1 = params.thermal_occupancy(cfg.omega1, cfg.temperatureK)
        nbar2 = params.thermal_occupancy(cfg.omega2, cfg.temperatureK)
    else:
        nbar1 = values["nbar1"] if values["nbar1"] is not None else 0.0
        nbar2 = values["nbar2"] if values["nbar2"] is not None else 0.0
    if drive:
        G1, G2 = params.effective_couplings(
            cfg.g1, cfg.g2,
            params.drive_amplitude(cfg.P1, kappa1, cfg.omegaL1),
            params.drive_amplitude(cfg.P2, kappa1, cfg.omegaL2),
            cfg.omega1, cfg.omega2, Delta, kappa1, kappa2)
    else:
        G1 = values["ratio"] * values["G2"] if "ratio" in values else values["G1"]
        G2 = values["G2"]
    model = params.effective_model(G1, G2, kappa1, kappa2, rB, theta, Delta,
                                   values["gamma1"], values["gamma2"], nbar1, nbar2)
    if cfg.omega1 is None or cfg.omega2 is None:
        return model, "unknown"
    return model, params.rwa_validity(G1, G2, kappa1, kappa2, cfg.omega1, cfg.omega2,
                                      threshold=cfg.rwaThreshold)


@dataclass
class ChunkResult:
    """Entanglement of a chunk of N models at T samples each (T = 1 for a
    steady point): E_N and nu_minus as (N, T) arrays, NaN for a model with an
    error; each model's stability verdict; and each model's error text, or
    None."""

    EN: np.ndarray
    nu_minus: np.ndarray
    stable: np.ndarray
    error: list[str | None]


def _score(covs: np.ndarray, errors: list[str | None]) -> tuple[np.ndarray, np.ndarray]:
    """(N, T) E_N and nu_minus of an (N, T, 6, 6) covariance stack from one
    batched spectrum call over every sample of the models with no error yet.
    Such a model with a sample failing the physicality gate, or with an
    unresolved spectrum, gets that error in errors; errors already given
    stay."""
    N, T = covs.shape[:2]
    ok = [k for k, error in enumerate(errors) if error is None]
    physical, nus = entanglement.pt_spectrum_batch(covs[ok, :, :4, :4].reshape(-1, 4, 4))
    physical, nus = physical.reshape(-1, T).all(axis=1), nus.reshape(-1, T)
    nu_minus = np.full((N, T), np.nan)
    nu_minus[ok] = nus
    for j in np.flatnonzero(~physical | np.isnan(nus).any(axis=1)).tolist():
        errors[ok[j]] = entanglement.UNRESOLVED if physical[j] else entanglement.UNPHYSICAL
        nu_minus[ok[j]] = np.nan
    with np.errstate(divide="ignore"):  # nu = 0 (diverged, or an unphysical V): E_N is dropped
        return entanglement.log_negativity_from_nu(nu_minus), nu_minus


def evaluate_steady_batch(models: Sequence[params.EffectiveModel]) -> ChunkResult:
    """Steady-state entanglement of N models: one batched stability test and
    one batched Lyapunov solve over the stable models, then scored.  Unstable,
    numerically failing, unphysical or unresolved points carry an error text
    instead of raising; only the unstable ones read stable = False."""
    A, D = dynamics.state_space_batch(models)
    _, stable = dynamics.stability_batch(A)
    idx = np.flatnonzero(stable)
    V, solve_errors = dynamics.steady_state_batch(A[idx], D[idx])
    covs = np.empty((len(models), 1) + V.shape[1:])
    covs[idx, 0] = V
    errors: list[str | None] = ["unstable"] * len(models)
    for k, error in zip(idx.tolist(), solve_errors):
        errors[k] = error
    return ChunkResult(*_score(covs, errors), stable, errors)


def evaluate_evolve_batch(models: Sequence[params.EffectiveModel], t_grid) -> ChunkResult:
    """Time-resolved entanglement of N models, each starting from the separable
    thermal-vacuum state at its bath occupancies: one batched stability test
    and one batched propagation, then scored.  A model that diverges, or that
    has a sample failing the physicality gate or with an unresolved spectrum,
    carries its error instead of raising, and reads stable = False."""
    A, D = dynamics.state_space_batch(models)
    _, stable = dynamics.stability_batch(A)
    V0 = np.stack([entanglement.initial_covariance(m.nbar1, m.nbar2) for m in models])
    covs, first_bad = dynamics.propagate_batch(A, D, V0, t_grid)
    # a model whose covariance turned non-finite is not scored
    errors = [None if step < 0 else str(dynamics.propagation_failure(t_grid, step))
              for step in first_bad.tolist()]
    EN, nu_minus = _score(covs, errors)
    return ChunkResult(EN, nu_minus, stable & np.array([e is None for e in errors]), errors)


def table_meta(cfg: RunConfig) -> dict:
    """Run metadata of a table: the configuration and the regime tags of its
    base point."""
    model, verdict = resolve_point(cfg)
    return {
        "config": cfg.as_dict(),
        "kappaTilde": model.kappa_tilde,
        "DeltaTilde": model.delta_tilde,
        "rwaVerdict": verdict,
    }


def run_points(cfg: RunConfig, names: list[str], values: Iterable[dict],
               curves: bool = False) -> ResultTable:
    """Evaluate cfg at each point of values, override dicts keyed by names,
    independently and in chunks drawn one at a time.

    Steady mode solves for the stationary state; evolve mode reports the peak
    E_N and the lowest nu_minus over the time grid, or one row per time sample
    with curves.  A failed point gets one row with its error and no values;
    per-point failures never abort the run.
    """
    evolve = cfg.mode == "evolve"
    curves = curves and evolve
    t_grid = cfg.time_grid() if evolve else None
    size = max(1, EVOLVE_SAMPLES // cfg.tPoints) if evolve else STEADY_CHUNK
    columns = [*names, *(["t"] if curves else []), "EN", "nu_minus",
               "stable", "kappaTilde", "DeltaTilde", "rwaVerdict", "error"]
    rows: list[dict] = []
    values = iter(values)
    while chunk := list(itertools.islice(values, size)):
        models, verdicts = zip(*(resolve_point(cfg, overrides) for overrides in chunk))
        out = evaluate_evolve_batch(models, t_grid) if evolve else evaluate_steady_batch(models)
        peak_EN, low_nu = out.EN.max(axis=1).tolist(), out.nu_minus.min(axis=1).tolist()
        for k, (overrides, model, verdict, stable, error) in enumerate(
                zip(chunk, models, verdicts, out.stable.tolist(), out.error)):
            tags = {"stable": stable, "kappaTilde": model.kappa_tilde,
                    "DeltaTilde": model.delta_tilde, "rwaVerdict": verdict, "error": error}
            if error is not None:
                rows.append({**overrides, "EN": None, "nu_minus": None, **tags})
            elif curves:
                rows.extend({**overrides, "t": t, "EN": en, "nu_minus": nu, **tags}
                            for t, en, nu in zip(t_grid.tolist(), out.EN[k].tolist(),
                                                 out.nu_minus[k].tolist()))
            else:
                rows.append({**overrides, "EN": peak_EN[k], "nu_minus": low_nu[k], **tags})
    return ResultTable(columns, rows, table_meta(cfg))


def run_sweep(cfg: RunConfig, curves: bool = False) -> ResultTable:
    """Evaluate every grid point of a 1- or 2-axis sweep independently through
    run_points, the last axis varying fastest."""
    if not 1 <= len(cfg.axes) <= 2:
        raise ConfigError("a sweep needs one or two axes")
    names = [ax.name for ax in cfg.axes]
    if len(set(names)) != len(names):
        raise ConfigError("sweep axes must be distinct")
    grid = itertools.product(*(ax.grid().tolist() for ax in cfg.axes))
    return run_points(cfg, names, (dict(zip(names, combo)) for combo in grid), curves)


def find_optimum(cfg: RunConfig, refine_levels: int = 3) -> ResultTable:
    """Locate the steady-state entanglement maximum by grid search with
    recursive window halving around the best point.

    Deterministic given the configuration; unstable points never win.  Raises
    NoFeasiblePointError when no grid point has a steady state.
    """
    if cfg.mode != "steady":
        raise ConfigError("optimization runs in steady mode")
    if not 1 <= len(cfg.axes) <= 2:
        raise ConfigError("optimization needs one or two axes")
    if refine_levels < 0:
        raise ConfigError("refine_levels must be nonnegative")

    axes = cfg.axes
    best: dict | None = None
    for _ in range(refine_levels + 1):
        table = run_sweep(cfg.replace(axes=axes))
        feasible = [r for r in table.rows if r["EN"] is not None]
        if not feasible:
            raise NoFeasiblePointError("every grid point is unstable or failed")
        top = max(feasible, key=lambda r: r["EN"])
        if best is None or top["EN"] > best["EN"]:
            best = top
        refined = []
        for ax, ax0 in zip(axes, cfg.axes):
            half = (ax.max - ax.min) / 4.0
            center = best[ax.name]
            refined.append(SweepAxis(
                name=ax.name,
                min=max(ax0.min, center - half),
                max=min(ax0.max, center + half),
                count=ax.count,
            ))
        axes = tuple(refined)
    return ResultTable(columns=table.columns, rows=[best], meta=table_meta(cfg))


PRESET_NAMES = ("fig2a", "fig2c", "fig2d", "fig3a", "fig3b")


def preset_config(name: str) -> RunConfig:
    """Base configuration of a named preset."""
    if name == "fig2a":
        return RunConfig(
            G1=0.99e5, G2=1e5, kappa1=5e4, kappa2=5e4,
            gamma1=10.0, gamma2=10.0, Delta=0.0,
            nbar1=0.0, nbar2=0.0, mode="steady", detuningLock=True,
            axes=(SweepAxis("theta", -math.pi, math.pi, DEFAULT_AXIS_COUNT),
                  SweepAxis("rB", 0.0, 0.99, DEFAULT_AXIS_COUNT)),
        )
    if name == "fig2c":
        return RunConfig(
            G2=1e5, G1=0.9e5, kappa1=5e4, kappa2=5e4,
            gamma1=10.0, gamma2=10.0, Delta=0.0, theta=0.0,
            nbar1=0.0, nbar2=0.0, mode="steady",
            axes=(SweepAxis("ratio", 0.8, 0.999, DEFAULT_AXIS_COUNT),
                  SweepAxis("rB", 0.0, 0.95, 2)),
        )
    if name == "fig2d":
        return RunConfig(
            G2=1e5, G1=0.9e5, kappa1=5e4, kappa2=5e4,
            gamma1=10.0, gamma2=10.0, Delta=0.0, theta=0.0,
            nbar1=200.0, nbar2=100.0, mode="steady",
            axes=(SweepAxis("ratio", 0.8, 0.999, DEFAULT_AXIS_COUNT),
                  SweepAxis("rB", 0.0, 0.7, 2)),
        )
    if name in ("fig3a", "fig3b"):
        # equal couplings, Delta = 1e3; fig3b starts from hot baths
        nbar1, nbar2 = (0.0, 0.0) if name == "fig3a" else (20.0, 10.0)
        return RunConfig(
            G1=1e4, G2=1e4, kappa1=5e4, kappa2=5e4,
            gamma1=10.0, gamma2=10.0, Delta=1e3, theta=0.0,
            nbar1=nbar1, nbar2=nbar2, mode="evolve",
        )
    raise ConfigError(f"unknown preset '{name}'; expected one of {', '.join(PRESET_NAMES)}")


def run_preset(name: str, cfg: RunConfig | None = None, curves: bool = False) -> ResultTable:
    """Run a named preset; cfg may carry overrides applied on top of the preset
    defaults.  Transient presets run one point per reflectivity of
    FIG3_RB_VALUES, which sets rB, and emit full curves in evolve mode."""
    cfg = cfg if cfg is not None else preset_config(name)
    if name in ("fig3a", "fig3b"):
        return run_points(cfg, ["rB"], ({"rB": rB} for rB in FIG3_RB_VALUES), curves=True)
    return run_sweep(cfg, curves=curves)
