"""Named, reproducible pipelines: grid sweeps, optimum search, figure presets.

Everything here is deterministic: fixed iteration order, no randomized
numerics, so identical configurations produce bit-identical result rows.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys
from collections.abc import Sequence
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

#: Steady sweeps resolve, solve and emit this many points at a time.  Each
#: chunk pays a fixed cost per numpy call, which 256 points spread thinly;
#: much larger stacks save little more time but hold every point's Lyapunov
#: operator and outcome at once, which raises peak memory.
STEADY_CHUNK = 256

#: Evolve sweeps propagate and score at most this many covariance samples
#: (points times tPoints, at least one point) at a time.  Peak memory grows
#: with the chunk while the time per sample stops falling well below it.
EVOLVE_SAMPLES = 1024


def _number(key: str, value, integral: bool = False):
    """The value of a numeric config key, checked to be a finite number, not a
    string or a boolean, and where integral a whole one, returned as an int.
    The range is compared, not converted: an int beyond double precision is
    not finite, and would overflow float().  float and int are tested before
    numbers.Real (numpy scalars), whose abstract-class test is 5 times slower."""
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)) \
            or not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if integral and not float(value).is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value) if integral else value


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
        for key in ("min", "max"):
            _number(f"axis '{self.name}': {key}", getattr(self, key))
        object.__setattr__(self, "count", _number(f"axis '{self.name}': count", self.count, True))
        if self.count < 1:
            raise ConfigError(f"axis '{self.name}': count must be >= 1")
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
        if self.mode not in ("steady", "evolve"):
            raise ConfigError(f"mode must be 'steady' or 'evolve', got '{self.mode}'")
        if not (isinstance(self.tMax, (float, int, numbers.Real)) and 0 < self.tMax < math.inf):
            raise ConfigError("tMax must be positive and finite")
        # a NaN threshold would read every point marginal
        if not (isinstance(self.rwaThreshold, (float, int, numbers.Real))
                and self.rwaThreshold > 0):
            raise ConfigError("rwaThreshold must be positive")
        for name in NUMBER_FIELDS:  # the checks below compare numbers only
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, _number(name, value, name == "tPoints"))
        if not isinstance(self.detuningLock, bool):
            raise ConfigError(f"detuningLock must be true or false, got {self.detuningLock!r}")
        if self.gamma1 + self.gamma2 + self.kappa1 + self.kappa2 <= 0:
            raise ConfigError("zero dissipation: at least one of "
                              "gamma1, gamma2, kappa1, kappa2 must be positive")
        if self.tPoints < 2:
            raise ConfigError("tPoints must be >= 2")
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


#: The numeric fields of RunConfig, which __post_init__ checks to be finite.
NUMBER_FIELDS = tuple(f.name for f in dataclasses.fields(RunConfig)
                      if f.type.startswith(("float", "int")))


@dataclass
class ResultTable:
    """Uniform tabular result: one list of cells per column, in order; run metadata."""

    columns: dict[str, list]
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    @property
    def rows(self) -> list[dict]:
        """One dict per row, built on each read."""
        return [dict(zip(self.columns, cells)) for cells in zip(*self.columns.values())]


def resolve_chunk(cfg: RunConfig, names: Sequence[str], points: np.ndarray
                  ) -> tuple[params.EffectiveModel, list[str]]:
    """Apply the axis values of N points, a (len(names), N) array with one
    row of values per name, to the configuration: one model of (N,) columns
    and the N RWA verdicts.

    The couplings are G1 and G2, with G1 = ratio*G2 on a ratio axis, or come
    from the drive block.  The detuning lock replaces Delta by
    2*sqrt(kappa1*kappa2)*rB*sin(theta) so the effective detuning vanishes
    identically.  The RWA verdict is "unknown" unless both mechanical
    frequencies are set.  Each point gets the bits it gets alone: + - * /
    and sqrt run on the columns in the scalar formulas' order, and math's
    sin and cos, the drive block's complex arithmetic and the verdict run
    once per distinct value (params.per_value).  An invalid chunk raises
    what its first failing point raises alone.
    """
    drive = cfg.uses_drive_block
    if drive and {"ratio", "G1", "G2"} & set(names):
        raise ConfigError("coupling axes need the direct G1/G2 entry path")
    if cfg.temperatureK is not None and {"nbar1", "nbar2"} & set(names):
        raise ConfigError("occupancy axes conflict with temperatureK")
    try:
        return _resolve_columns(cfg, names, points, drive)
    except (ValueError, ArithmeticError):
        if points.shape[1] > 1:  # raise what the first failing point raises alone
            for k in range(points.shape[1]):
                resolve_chunk(cfg, names, points[:, k:k + 1])
        raise


def _resolve_columns(cfg: RunConfig, names: Sequence[str], points: np.ndarray,
                     drive: bool) -> tuple[params.EffectiveModel, list[str]]:
    """resolve_chunk on the columns, with any point's failure raised."""
    values = {name: getattr(cfg, name) for name in AXIS_NAMES if name != "ratio"}
    # each value below is a float of the configuration or an (N,) column
    values.update(zip(names, points))
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
        def couplings(kappa1, kappa2, Delta):
            G1, G2 = params.effective_couplings(
                cfg.g1, cfg.g2,
                params.drive_amplitude(cfg.P1, kappa1, cfg.omegaL1),
                params.drive_amplitude(cfg.P2, kappa1, cfg.omegaL2),
                cfg.omega1, cfg.omega2, Delta, kappa1, kappa2)
            return abs(G1), abs(G2)
        G1, G2 = params.per_value(couplings, kappa1, kappa2, Delta)
    elif "ratio" in values:
        with np.errstate(over="ignore"):  # a product beyond double precision is inf
            G1, G2 = values["ratio"] * values["G2"], values["G2"]
    else:
        G1, G2 = values["G1"], values["G2"]
    kappa_tilde, delta_tilde = params.effective_cavity_params(kappa1, kappa2, rB, theta, Delta)
    columns = np.empty((8, points.shape[1]))
    for k, value in enumerate((np.abs(G1), np.abs(G2), kappa_tilde, delta_tilde,
                               values["gamma1"], values["gamma2"], nbar1, nbar2)):
        columns[k] = value
    model = params.EffectiveModel(*columns)
    if cfg.omega1 is None or cfg.omega2 is None:
        return model, ["unknown"] * points.shape[1]
    verdicts = params.per_value(
        lambda G1, G2, kappa1, kappa2: params.rwa_validity(
            G1, G2, kappa1, kappa2, cfg.omega1, cfg.omega2, threshold=cfg.rwaThreshold),
        model.G1, model.G2, kappa1, kappa2)
    return model, verdicts.tolist()


def resolve_point(cfg: RunConfig, overrides: dict[str, float] | None = None
                  ) -> tuple[params.EffectiveModel, str]:
    """The effective model of one point, in floats, and its RWA verdict: the
    N = 1 view of resolve_chunk."""
    overrides = overrides or {}
    model, verdicts = resolve_chunk(cfg, list(overrides),
                                    np.array([*overrides.values()], float).reshape(-1, 1))
    return params.EffectiveModel(*model.columns()[:, 0].tolist()), verdicts[0]


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


#: Error text of a point whose drift matrix has a non-finite entry, a rate
#: beyond double precision: no stability verdict can be read from it.
NONFINITE_DRIFT = "drift matrix has a non-finite entry"


def _score(coords: np.ndarray, errors: list[str | None]) -> tuple[np.ndarray, np.ndarray]:
    """(N, T) E_N and nu_minus of an (N, T, 4) stack of mechanical
    coordinates (a, Re c, Im c, b) from one batched spectrum call over every
    sample of the models with no error yet.  Such a model with a sample
    failing the physicality gate, or with an unresolved spectrum, gets that
    error in errors; errors already given stay."""
    N, T = coords.shape[:2]
    ok = np.flatnonzero([error is None for error in errors])
    physical, nus = entanglement.pt_spectrum(coords[ok].reshape(-1, 4))
    physical, nus = physical.reshape(-1, T).all(axis=1), nus.reshape(-1, T)
    nu_minus = np.full((N, T), np.nan)
    nu_minus[ok] = nus
    for j in np.flatnonzero(~physical | np.isnan(nus).any(axis=1)).tolist():
        errors[ok[j]] = entanglement.UNRESOLVED if physical[j] else entanglement.UNPHYSICAL
        nu_minus[ok[j]] = np.nan
    with np.errstate(divide="ignore"):  # nu = 0 (diverged, or an unphysical V): E_N is dropped
        return entanglement.log_negativity_from_nu(nu_minus), nu_minus


def evaluate_steady_batch(model: params.EffectiveModel) -> ChunkResult:
    """Steady-state entanglement of the N models of a column model: one
    batched stability test and one batched Lyapunov solve over the stable
    models, both on the coordinates of their complex drifts and Hermitian
    diffusions, then scored on the solved coordinates.  Unstable,
    numerically failing, unphysical or unresolved points carry an error text
    instead of raising; only the unstable ones, and those whose drift has a
    non-finite entry (NONFINITE_DRIFT), read stable = False."""
    m, d = dynamics.state_space_coordinates(model)
    stable = dynamics.stability_batch(m)
    idx = np.flatnonzero(stable)
    h, solve_errors = dynamics.steady_state_batch(m[idx], d[idx])
    coords = np.empty((len(m), 1, 4))
    coords[idx, 0] = h[:, [0, 1, 6, 3]]  # (H11, Re H12, Im H12, H22)
    errors: list[str | None] = ["unstable" if finite else NONFINITE_DRIFT
                                for finite in np.isfinite(m).all(axis=1).tolist()]
    for k, error in zip(idx.tolist(), solve_errors):
        errors[k] = error
    return ChunkResult(*_score(coords, errors), stable, errors)


def evaluate_evolve_batch(model: params.EffectiveModel, t_grid) -> ChunkResult:
    """Time-resolved entanglement of the N models of a column model, each
    starting from the separable thermal-vacuum state at its bath occupancies
    (entanglement.initial_covariance): one batched stability test and one
    batched propagation, then scored.  A model that diverges, or that has a
    sample failing the physicality gate or with an unresolved spectrum,
    carries its error instead of raising, and reads stable = False."""
    m, d = dynamics.state_space_coordinates(model)
    stable = dynamics.stability_batch(m)
    V0 = entanglement.initial_covariance(*model.columns()[6:])
    covs, first_bad = dynamics.propagate_batch(*map(dynamics.state_space_realified, (m, d)),
                                               V0, t_grid)
    # a model whose covariance turned non-finite is not scored
    errors = [NONFINITE_DRIFT if not finite else None if step < 0
              else str(dynamics.propagation_failure(t_grid, step))
              for finite, step in zip(np.isfinite(m).all(axis=1).tolist(), first_bad.tolist())]
    EN, nu_minus = _score(entanglement.two_mode_coordinates(covs[:, :, :4, :4]), errors)
    return ChunkResult(EN, nu_minus, stable & np.array([e is None for e in errors]), errors)


def table_meta(cfg: RunConfig, columns: dict[str, list] | None = None) -> dict:
    """Run metadata: the configuration and the regime tags of its base point,
    read from the first row of columns if given (a table's, led by that point)."""
    if columns is None:
        model, verdict = resolve_point(cfg)
        columns = {"kappaTilde": [model.kappa_tilde], "DeltaTilde": [model.delta_tilde],
                   "rwaVerdict": [verdict]}
    return {"config": cfg.as_dict(),
            **{key: columns[key][0] for key in ("kappaTilde", "DeltaTilde", "rwaVerdict")}}


def run_points(cfg: RunConfig, names: list[str], grids: Sequence[Sequence[float]],
               curves: bool = False) -> ResultTable:
    """Evaluate cfg independently at each point of the product of grids, one
    sequence of values per name, the last varying fastest (with no names, at
    cfg's own point), in chunks whose values are drawn one chunk at a time.

    Steady mode solves for the stationary state; evolve mode reports the peak
    E_N and the lowest nu_minus over the time grid, or one row per time sample
    with curves.  A failed point gets one row with its error and no values;
    per-point failures never abort the run.
    """
    evolve = cfg.mode == "evolve"
    curves = curves and evolve
    t_grid = cfg.time_grid() if evolve else None
    size = max(1, EVOLVE_SAMPLES // cfg.tPoints) if evolve else STEADY_CHUNK
    shape = tuple(map(len, grids))
    columns = {name: [] for name in (*names, *(["t"] if curves else []), "EN", "nu_minus",
                                     "stable", "kappaTilde", "DeltaTilde", "rwaVerdict", "error")}
    for start in range(0, math.prod(shape), size):
        # a trailing axis of length 1 changes no index, and lets shape be ()
        index = np.unravel_index(np.arange(start, min(start + size, math.prod(shape))),
                                 (*shape, 1))
        points = np.array([np.asarray(grid, float)[i] for grid, i in zip(grids, index)]
                          ).reshape(len(names), len(index[-1]))
        model, verdicts = resolve_chunk(cfg, names, points)
        out = evaluate_evolve_batch(model, t_grid) if evolve else evaluate_steady_batch(model)
        failed = [k for k, error in enumerate(out.error) if error is not None]
        if curves:  # a scored model gives a row per sample, a failed one a single row
            reps = np.full(len(out.error), cfg.tPoints)
            reps[failed] = 1
            keep = np.arange(cfg.tPoints) < reps[:, None]
            samples = {"t": np.broadcast_to(t_grid, keep.shape), "EN": out.EN,
                       "nu_minus": out.nu_minus}
            rows = np.repeat(np.arange(len(reps)), reps)
            failed = (np.cumsum(reps) - reps)[failed].tolist()
        else:
            keep = rows = slice(None)
            samples = {"EN": out.EN.max(axis=1), "nu_minus": out.nu_minus.min(axis=1)}
        for name, block in samples.items():
            cells = block[keep].tolist()
            for row in failed:
                cells[row] = None
            columns[name] += cells
        for name, values in (*zip(names, points), ("stable", out.stable),
                             ("kappaTilde", model.kappa_tilde), ("DeltaTilde", model.delta_tilde)):
            columns[name] += values[rows].tolist()
        for name, values in (("rwaVerdict", verdicts), ("error", out.error)):
            columns[name] += np.asarray(values, dtype=object)[rows].tolist()
    # with no axes every point is the base point, whose tags the meta reads
    return ResultTable(columns, table_meta(cfg, columns if columns["EN"] and not names else None))


def run_sweep(cfg: RunConfig, curves: bool = False) -> ResultTable:
    """Evaluate every grid point of a 1- or 2-axis sweep independently through
    run_points, the last axis varying fastest."""
    if not 1 <= len(cfg.axes) <= 2:
        raise ConfigError("a sweep needs one or two axes")
    names = [ax.name for ax in cfg.axes]
    if len(set(names)) != len(names):
        raise ConfigError("sweep axes must be distinct")
    return run_points(cfg, names, [ax.grid() for ax in cfg.axes], curves)


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
        EN = table.columns["EN"]
        feasible = [k for k, en in enumerate(EN) if en is not None]
        if not feasible:
            raise NoFeasiblePointError("every grid point is unstable or failed")
        top = max(feasible, key=EN.__getitem__)  # the first maximum
        if best is None or EN[top] > best["EN"]:
            best = {name: cells[top] for name, cells in table.columns.items()}
        # halve each window around the best point, within the first one
        axes = tuple(SweepAxis(ax.name, max(ax0.min, best[ax.name] - (ax.max - ax.min) / 4.0),
                               min(ax0.max, best[ax.name] + (ax.max - ax.min) / 4.0), ax.count)
                     for ax, ax0 in zip(axes, cfg.axes))
    return ResultTable({name: [value] for name, value in best.items()}, table_meta(cfg))


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
    if name in ("fig2c", "fig2d"):
        # coupling-ratio scans with and without feedback; fig2d with hot baths
        hot = name == "fig2d"
        return RunConfig(
            G2=1e5, G1=0.9e5, kappa1=5e4, kappa2=5e4,
            gamma1=10.0, gamma2=10.0, Delta=0.0, theta=0.0,
            nbar1=200.0 if hot else 0.0, nbar2=100.0 if hot else 0.0, mode="steady",
            axes=(SweepAxis("ratio", 0.8, 0.999, DEFAULT_AXIS_COUNT),
                  SweepAxis("rB", 0.0, 0.7 if hot else 0.95, 2)),
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
        return run_points(cfg, ["rB"], [FIG3_RB_VALUES], curves=True)
    return run_sweep(cfg, curves=curves)
