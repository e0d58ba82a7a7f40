"""Named, reproducible pipelines: grid sweeps, optimum search, figure presets.

Everything here is deterministic: fixed iteration order, no randomized
numerics, so identical configurations produce bit-identical result rows.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, entanglement, params
from .errors import ConfigError, NoFeasiblePointError

#: Parameters that a sweep axis may address.
AXIS_NAMES = (
    "ratio", "G1", "G2", "rB", "theta", "Delta",
    "nbar1", "nbar2", "gamma1", "gamma2", "kappa1", "kappa2",
)

#: Axis names that only make sense when the couplings are given directly.
_DIRECT_ONLY_AXES = ("ratio", "G1", "G2")

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

    @property
    def uses_drive_block(self) -> bool:
        return all(getattr(self, k) is not None for k in _DRIVE_KEYS)

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.tMax, self.tPoints)

    def as_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["axes"] = [dataclasses.asdict(ax) for ax in self.axes]
        return out


@dataclass
class ResultTable:
    """Uniform tabular result: ordered columns, one dict per row, run metadata."""

    columns: list[str]
    rows: list[dict]
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ResolvedPoint:
    """One grid point after axis substitution: the model plus its regime tags."""

    model: params.EffectiveModel
    rwa_verdict: str
    rwa_ratio: float | None


def resolve_point(cfg: RunConfig, overrides: dict[str, float] | None = None) -> ResolvedPoint:
    """Apply axis values to the configuration and build the effective model.

    The detuning lock replaces Delta by 2*sqrt(kappa1*kappa2)*rB*sin(theta) so
    the effective detuning vanishes identically.
    """
    values = {
        "gamma1": cfg.gamma1, "gamma2": cfg.gamma2,
        "kappa1": cfg.kappa1, "kappa2": cfg.kappa2,
        "G1": cfg.G1, "G2": cfg.G2, "Delta": cfg.Delta,
        "rB": cfg.rB, "theta": cfg.theta,
        "nbar1": cfg.nbar1, "nbar2": cfg.nbar2,
    }
    ratio = None
    for name, value in (overrides or {}).items():
        if name == "ratio":
            ratio = float(value)
        else:
            values[name] = float(value)
    if ratio is not None or any(k in (overrides or {}) for k in ("G1", "G2")):
        if cfg.uses_drive_block:
            raise ConfigError("coupling axes need the direct G1/G2 entry path")
    if cfg.temperatureK is not None and any(
            k in (overrides or {}) for k in ("nbar1", "nbar2")):
        raise ConfigError("occupancy axes conflict with temperatureK")
    if ratio is not None:
        values["G1"] = ratio * values["G2"]

    feedback = params.FeedbackParams(rB=values["rB"], theta=values["theta"])
    Delta = values["Delta"]
    if cfg.detuningLock:
        Delta = 2.0 * math.sqrt(values["kappa1"] * values["kappa2"]) \
            * feedback.rB * math.sin(feedback.theta)

    if cfg.temperatureK is not None:
        nbar1 = params.thermal_occupancy(cfg.omega1, cfg.temperatureK)
        nbar2 = params.thermal_occupancy(cfg.omega2, cfg.temperatureK)
    else:
        nbar1 = values["nbar1"] if values["nbar1"] is not None else 0.0
        nbar2 = values["nbar2"] if values["nbar2"] is not None else 0.0

    if cfg.uses_drive_block:
        physical = params.PhysicalParams(
            omega1=cfg.omega1, omega2=cfg.omega2,
            gamma1=values["gamma1"], gamma2=values["gamma2"],
            kappa1=values["kappa1"], kappa2=values["kappa2"],
            Delta=Delta, temperature=cfg.temperatureK or 0.0,
            g1=cfg.g1, g2=cfg.g2, P1=cfg.P1, P2=cfg.P2,
            omegaL1=cfg.omegaL1, omegaL2=cfg.omegaL2,
        )
        model, report = params.effective_model_from_drives(
            physical, feedback, rwa_threshold=cfg.rwaThreshold)
        model = dataclasses.replace(model, nbar1=nbar1, nbar2=nbar2)
        return ResolvedPoint(model, report.verdict, report.ratio)

    model = params.effective_model(
        values["G1"], values["G2"], values["kappa1"], values["kappa2"],
        feedback, Delta, values["gamma1"], values["gamma2"], nbar1, nbar2)
    if cfg.omega1 is not None and cfg.omega2 is not None:
        physical = params.PhysicalParams(
            omega1=cfg.omega1, omega2=cfg.omega2,
            gamma1=values["gamma1"], gamma2=values["gamma2"],
            kappa1=values["kappa1"], kappa2=values["kappa2"],
            Delta=Delta, temperature=cfg.temperatureK or 0.0)
        report = params.rwa_validity(physical, model.G1, model.G2,
                                     threshold=cfg.rwaThreshold)
        return ResolvedPoint(model, report.verdict, report.ratio)
    return ResolvedPoint(model, "unknown", None)


@dataclass
class SteadyOutcome:
    EN: float | None
    nu_minus: float | None
    stable: bool
    V: np.ndarray | None
    error: str | None


def evaluate_steady_batch(models: list[params.EffectiveModel]) -> list[SteadyOutcome]:
    """Steady-state entanglement of N models: one batched stability test, one
    batched Lyapunov solve over the stable models and one batched spectrum
    call over the solved ones.  Unstable, numerically failing or unphysical
    points report missing data and an error text instead of raising."""
    ss = dynamics.state_space_batch(models)
    _, stable = dynamics.stability_batch(ss.A)
    idx = np.flatnonzero(stable)
    V, errors = dynamics.steady_state_batch(dynamics.StateSpace(A=ss.A[idx], D=ss.D[idx]))
    solved = [k for k, error in enumerate(errors) if error is None]
    physical, nus = entanglement.pt_spectrum_batch(V[solved, :4, :4])
    with np.errstate(divide="ignore"):  # an unphysical V may give nu = 0; its E_N is dropped
        ens = entanglement.log_negativity_from_nu(nus)
    out = [SteadyOutcome(None, None, False, None, "unstable") for _ in models]
    for k, error in zip(idx, errors):
        out[k] = SteadyOutcome(None, None, True, None, error)
    for j, k in enumerate(solved):
        out[idx[k]] = (SteadyOutcome(float(ens[j]), float(nus[j]), True, V[k], None)
                       if physical[j] else
                       SteadyOutcome(None, None, True, None, entanglement.UNPHYSICAL))
    return out


def evaluate_steady(model: params.EffectiveModel) -> SteadyOutcome:
    """Steady-state entanglement of one model, as evaluate_steady_batch
    reports it."""
    return evaluate_steady_batch([model])[0]


@dataclass
class EvolveOutcome:
    t: np.ndarray
    EN: np.ndarray
    nu_minus: np.ndarray
    stable: bool
    covariances: np.ndarray


def evaluate_evolve(model: params.EffectiveModel, t_grid) -> EvolveOutcome:
    """Time-resolved entanglement starting from the separable thermal-vacuum
    state at the model's bath occupancies."""
    ss = dynamics.state_space(model)
    V0 = entanglement.initial_covariance(model.nbar1, model.nbar2)
    covs = dynamics.propagate(ss, V0, t_grid)
    nus = entanglement.min_symplectic_eigenvalue_pt(entanglement.mechanical_submatrix(covs))
    ens = entanglement.log_negativity_from_nu(nus)
    return EvolveOutcome(np.asarray(t_grid, dtype=float), ens, nus,
                         dynamics.stability_eigen(ss.A), covs)


_META_COLUMNS = ["stable", "kappaTilde", "DeltaTilde", "rwaVerdict", "error"]


def _point_columns(point: ResolvedPoint, stable: bool, error: str | None) -> dict:
    return {
        "stable": stable,
        "kappaTilde": point.model.kappa_tilde,
        "DeltaTilde": point.model.delta_tilde,
        "rwaVerdict": point.rwa_verdict,
        "error": error,
    }


def _table_meta(cfg: RunConfig) -> dict:
    base = resolve_point(cfg)
    return {
        "config": cfg.as_dict(),
        "kappaTilde": base.model.kappa_tilde,
        "DeltaTilde": base.model.delta_tilde,
        "rwaVerdict": base.rwa_verdict,
    }


def run_sweep(cfg: RunConfig, curves: bool = False) -> ResultTable:
    """Evaluate every grid point of a 1- or 2-axis sweep independently.

    Steady mode solves for the stationary state; evolve mode reports the peak
    entanglement over the time grid, or the full curves when requested.
    Per-point failures land in the row's error column and never abort the
    sweep.
    """
    if not 1 <= len(cfg.axes) <= 2:
        raise ConfigError("a sweep needs one or two axes")
    axis_names = [ax.name for ax in cfg.axes]
    if len(set(axis_names)) != len(axis_names):
        raise ConfigError("sweep axes must be distinct")

    grids = [ax.grid() for ax in cfg.axes]
    combos = [(i,) for i in range(len(grids[0]))]
    if len(grids) == 2:
        combos = [(i, j) for i in range(len(grids[0])) for j in range(len(grids[1]))]

    if cfg.mode == "evolve" and curves:
        columns = axis_names + ["t", "EN", "nu_minus"] + _META_COLUMNS
    else:
        columns = axis_names + ["EN", "nu_minus"] + _META_COLUMNS
    rows: list[dict] = []
    t_grid = cfg.time_grid()

    def axis_values(combo) -> dict[str, float]:
        return {name: float(grids[k][i]) for k, (name, i) in enumerate(zip(axis_names, combo))}

    if cfg.mode == "steady":
        for start in range(0, len(combos), STEADY_CHUNK):
            chunk = [axis_values(combo) for combo in combos[start:start + STEADY_CHUNK]]
            points = [resolve_point(cfg, overrides) for overrides in chunk]
            outs = evaluate_steady_batch([point.model for point in points])
            for overrides, point, out in zip(chunk, points, outs):
                rows.append({**overrides, "EN": out.EN, "nu_minus": out.nu_minus,
                             **_point_columns(point, out.stable, out.error)})
        return ResultTable(columns=columns, rows=rows, meta=_table_meta(cfg))

    for combo in combos:
        overrides = axis_values(combo)
        point = resolve_point(cfg, overrides)
        try:
            evo = evaluate_evolve(point.model, t_grid)
        except Exception as exc:  # recorded per point, sweep continues
            rows.append({**overrides, "EN": None, "nu_minus": None,
                         **_point_columns(point, False, str(exc))})
            continue
        if curves:
            for t, en, nu in zip(evo.t, evo.EN, evo.nu_minus):
                rows.append({**overrides, "t": float(t), "EN": float(en),
                             "nu_minus": float(nu),
                             **_point_columns(point, evo.stable, None)})
        else:
            rows.append({**overrides, "EN": float(evo.EN.max()),
                         "nu_minus": float(evo.nu_minus.min()),
                         **_point_columns(point, evo.stable, None)})
    return ResultTable(columns=columns, rows=rows, meta=_table_meta(cfg))


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

    original = cfg.axes
    axes = cfg.axes
    best: tuple[dict, float] | None = None
    for _ in range(refine_levels + 1):
        table = run_sweep(cfg.replace(axes=axes))
        feasible = [r for r in table.rows if r["EN"] is not None]
        if not feasible:
            raise NoFeasiblePointError("every grid point is unstable or failed")
        top = max(feasible, key=lambda r: r["EN"])
        if best is None or top["EN"] > best[1]:
            best = ({ax.name: top[ax.name] for ax in axes}, top["EN"])
        refined = []
        for ax, ax0 in zip(axes, original):
            half = (ax.max - ax.min) / 4.0
            center = best[0][ax.name]
            refined.append(SweepAxis(
                name=ax.name,
                min=max(ax0.min, center - half),
                max=min(ax0.max, center + half),
                count=ax.count,
            ))
        axes = tuple(refined)

    values, en_best = best
    point = resolve_point(cfg, values)
    out = evaluate_steady(point.model)
    columns = [ax.name for ax in original] + ["EN", "nu_minus"] + _META_COLUMNS
    row = {**values, "EN": en_best, "nu_minus": out.nu_minus,
           **_point_columns(point, out.stable, out.error)}
    return ResultTable(columns=columns, rows=[row], meta=_table_meta(cfg))


def fig3_base_config(nbar1: float = 0.0, nbar2: float = 0.0) -> RunConfig:
    """Equal-coupling transient setting: G1 = G2 = 1e4, symmetric cavity with
    kappa = 5e4 per mirror, Delta = 1e3, theta = 0."""
    return RunConfig(
        G1=1e4, G2=1e4, kappa1=5e4, kappa2=5e4,
        gamma1=10.0, gamma2=10.0, Delta=1e3, theta=0.0,
        nbar1=nbar1, nbar2=nbar2, mode="evolve",
        tMax=DEFAULT_T_MAX, tPoints=DEFAULT_T_POINTS,
    )


def fig3_curves(
    rB_list=FIG3_RB_VALUES,
    nbar1: float = 0.0,
    nbar2: float = 0.0,
    t_max: float = DEFAULT_T_MAX,
    t_points: int = DEFAULT_T_POINTS,
) -> ResultTable:
    """Entanglement transients for a family of reflectivities, one labeled
    curve per rB, all starting from the separable thermal-vacuum state."""
    cfg = fig3_base_config(nbar1, nbar2).replace(tMax=t_max, tPoints=t_points)
    t_grid = cfg.time_grid()
    columns = ["rB", "t", "EN", "nu_minus"] + _META_COLUMNS
    rows: list[dict] = []
    for rB in rB_list:
        point = resolve_point(cfg, {"rB": float(rB)})
        evo = evaluate_evolve(point.model, t_grid)
        for t, en, nu in zip(evo.t, evo.EN, evo.nu_minus):
            rows.append({"rB": float(rB), "t": float(t), "EN": float(en),
                         "nu_minus": float(nu),
                         **_point_columns(point, evo.stable, None)})
    return ResultTable(columns=columns, rows=rows, meta=_table_meta(cfg))


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
    if name == "fig3a":
        return fig3_base_config(0.0, 0.0)
    if name == "fig3b":
        return fig3_base_config(20.0, 10.0)
    raise ConfigError(f"unknown preset '{name}'; expected one of {', '.join(PRESET_NAMES)}")


def run_preset(name: str, cfg: RunConfig | None = None, curves: bool = False) -> ResultTable:
    """Run a named preset; cfg may carry overrides applied on top of the preset
    defaults.  Transient presets always emit full curves."""
    cfg = cfg if cfg is not None else preset_config(name)
    if name in ("fig3a", "fig3b"):
        return fig3_curves(FIG3_RB_VALUES, cfg.nbar1 or 0.0, cfg.nbar2 or 0.0,
                           t_max=cfg.tMax, t_points=cfg.tPoints)
    return run_sweep(cfg, curves=curves)
