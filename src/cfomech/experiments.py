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
from .errors import (ConfigError, NoFeasiblePointError, NumericalError, StabilityError,
                     UnsupportedRegimeError)

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
#: chunk pays a fixed cost per numpy call: on a 2-vCPU x86-64 VM with one
#: BLAS thread the fig2 presets with CSV took 16.7, 14.2 and 13.2 ms in
#: chunks of 256, 1024 and 4096 (min of 9 in-process passes), and a fresh
#: process peaked at 32.8, 33.0 and 37.1 MB: a chunk holds every point's
#: Lyapunov operator and outcome at once.
STEADY_CHUNK = 1024

#: Evolve sweeps fill covariance samples in slices of at most this many
#: (points times tPoints, at least one point): 80 points at 51 samples.  A
#: slice holds its (n, T, 6, 6) samples and one fill step's product of them
#: at once.  The per-point stages (stability, interval maps, scoring) run
#: once per point chunk of 3 times as many samples, where scoring's peak
#: (about 232 bytes a sample) stays within 3.5 slice stacks (288 bytes a
#: sample each): the 15 x 15 evolve_sweep grid is one chunk.  On the same
#: VM that grid took 11.4, 10.2, 8.4 and 7.3 ms at 1024, 2048, 4096 and
#: 16384 samples (min of 3 x 30 in-process runs), and a fresh process that
#: loads no scipy peaked at 37.7, 38.3, 39.7 and 42.1 MB.
EVOLVE_SAMPLES = 4096


def _number(key: str, value, integral: bool = False):
    """A numeric config value checked to be a finite number, not a string or a
    boolean, and where integral a whole one, returned as an int: the one number
    check, of RunConfig, SweepAxis and the CLI's thetaPi.  The range is compared,
    not converted: an int beyond double precision would overflow float().  float
    and int come before numbers.Real (numpy scalars), a 5 times slower test."""
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
        for key in ("min", "max", "count"):
            value = _number(f"axis '{self.name}': {key}", getattr(self, key), key == "count")
            object.__setattr__(self, key, value if key == "count" else float(value))
        if self.count < 1:
            raise ConfigError(f"axis '{self.name}': count must be >= 1")
        if self.min > self.max:
            raise ConfigError(f"axis '{self.name}': min exceeds max")

    def grid(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.min])
        if self.max - self.min < math.inf:
            return np.linspace(self.min, self.max, self.count)
        # a span beyond double precision: the grid at half scale, doubled exactly
        return 2.0 * np.linspace(self.min / 2.0, self.max / 2.0, self.count)


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
        if not (isinstance(self.axes, (tuple, list))
                and all(isinstance(ax, SweepAxis) for ax in self.axes)):
            raise ConfigError(f"axes must be a tuple or list of SweepAxis, got {self.axes!r}")
        object.__setattr__(self, "axes", tuple(self.axes))
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
        # float first: a sum of ints near the largest double would not convert
        if float(self.gamma1) + self.gamma2 + self.kappa1 + self.kappa2 <= 0:
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
        out = {f.name: getattr(self, f.name) for f in _FIELDS}
        out["axes"] = [{f.name: getattr(ax, f.name) for f in dataclasses.fields(ax)}
                       for ax in self.axes]
        return out


#: The fields of RunConfig, and the numeric ones, which __post_init__ checks to be finite.
_FIELDS = dataclasses.fields(RunConfig)
NUMBER_FIELDS = tuple(f.name for f in _FIELDS if f.type.startswith(("float", "int")))


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
    what its first failing point raises alone.  An axis that the
    configuration overrides is a ConfigError: a coupling axis with the drive
    block, a G1 axis beside a ratio axis, an occupancy axis with temperatureK
    and a Delta axis under the detuning lock.
    """
    drive = cfg.uses_drive_block
    if drive and {"ratio", "G1", "G2"} & set(names):
        raise ConfigError("coupling axes need the direct G1/G2 entry path")
    if "ratio" in names and "G1" in names:
        raise ConfigError("a G1 axis conflicts with a ratio axis, which sets G1")
    if cfg.temperatureK is not None and {"nbar1", "nbar2"} & set(names):
        raise ConfigError("occupancy axes conflict with temperatureK")
    if cfg.detuningLock and "Delta" in names:
        raise ConfigError("a Delta axis conflicts with detuningLock, which sets Delta")
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
    steady point): nu_minus as an (N, T) array, NaN for a model with an
    error, from which E_N follows (entanglement.log_negativity_from_nu);
    each model's stability verdict; and each model's error text, or None."""

    nu_minus: np.ndarray
    stable: np.ndarray
    error: list[str | None]


#: Error text of a point whose drift matrix has a non-finite entry, a rate
#: beyond double precision: no stability verdict can be read from it.
NONFINITE_DRIFT = "drift matrix has a non-finite entry"


def _score(coords: np.ndarray, errors: list[str | None]) -> np.ndarray:
    """(N, T) nu_minus of an (N, T, 4) stack of mechanical
    coordinates (a, Re c, Im c, b) from one batched spectrum call over every
    sample of the models with no error yet.  Such a model with a sample
    failing the physicality gate, or with an unresolved spectrum, gets that
    error in errors; errors already given stay."""
    N, T = coords.shape[:2]
    ok = np.array([error is None for error in errors]).nonzero()[0]
    if len(ok) < N:  # a copy of the models to score, where not all are
        coords = coords.take(ok, axis=0)
    physical, nus = entanglement.pt_spectrum(coords.reshape(-1, 4))
    physical, nus = physical.reshape(-1, T).all(axis=1), nus.reshape(-1, T)
    nu_minus = np.full((N, T), np.nan)
    nu_minus[ok] = nus
    for j in (~physical | np.isnan(nus).any(axis=1)).nonzero()[0].tolist():
        errors[ok[j]] = entanglement.UNRESOLVED if physical[j] else entanglement.UNPHYSICAL
        nu_minus[ok[j]] = np.nan
    return nu_minus


def evaluate_steady_batch(model: params.EffectiveModel) -> ChunkResult:
    """Steady-state nu_minus of the N models of a column model: one
    batched stability test and one batched Lyapunov solve over the stable
    models, both on the coordinates of their complex drifts and Hermitian
    diffusions, then scored on the solved coordinates.  Unstable,
    numerically failing, unphysical or unresolved points carry an error text
    instead of raising; only the unstable ones, and those whose drift has a
    non-finite entry (NONFINITE_DRIFT), read stable = False."""
    m, d = dynamics.state_space_coordinates(model)
    stable = dynamics.stability_batch(m)
    idx = stable.nonzero()[0]
    h, solve_errors = dynamics.steady_state_batch(m.take(idx, axis=0), d.take(idx, axis=0))
    coords = np.empty((len(m), 1, 4))
    coords[idx, 0] = h[:, [0, 1, 6, 3]]  # (H11, Re H12, Im H12, H22)
    solved = iter(solve_errors)
    errors = [next(solved) if ok else "unstable" if finite else NONFINITE_DRIFT
              for ok, finite in zip(stable.tolist(), np.isfinite(m).all(axis=1).tolist())]
    return ChunkResult(_score(coords, errors), stable, errors)


def evaluate_evolve_batch(model: params.EffectiveModel, t_grid) -> ChunkResult:
    """Time-resolved nu_minus of the N models of a column model, each
    starting from the separable thermal-vacuum state at its bath occupancies
    (entanglement.initial_covariance): one batched stability test and one
    set of interval maps for all N, a propagation filled in slices of
    EVOLVE_SAMPLES // T models, each reduced to its mechanical coordinates
    before the next, then one scoring step.  A model that diverges, or that
    has a sample failing the physicality gate or with an unresolved
    spectrum, carries its error instead of raising, and reads stable =
    False."""
    m, d = dynamics.state_space_coordinates(model)
    stable = dynamics.stability_batch(m)
    V0 = entanglement.initial_covariance(*model.columns()[6:])
    runs = dynamics.interval_maps(*map(dynamics.state_space_realified, (m, d)), t_grid)
    N, T = len(m), np.size(t_grid)
    coords, first_bad = np.empty((N, T, 4)), np.empty(N, dtype=int)
    size = max(1, EVOLVE_SAMPLES // T)
    for start in range(0, N, size):
        rows = slice(start, start + size)
        # the slice's (n, T, 6, 6) stack, the largest array, is dropped before the next
        covs, first_bad[rows] = dynamics.propagate_runs(
            V0[rows], [(s, L, P[rows], S[rows]) for s, L, P, S in runs], T)
        coords[rows] = entanglement.two_mode_coordinates(covs)
        del covs
    del runs
    # a model whose covariance turned non-finite is not scored
    errors = [NONFINITE_DRIFT if not finite else None if step < 0
              else str(dynamics.propagation_failure(t_grid, step))
              for finite, step in zip(np.isfinite(m).all(axis=1).tolist(), first_bad.tolist())]
    nu_minus = _score(coords, errors)  # after which errors holds every model's error
    return ChunkResult(nu_minus, stable & np.array([e is None for e in errors]), errors)


def _table_meta(cfg: RunConfig, columns: dict[str, list] | None = None) -> dict:
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
    cfg's own point), in chunks sliced from one array of all the points.

    Steady mode solves for the stationary state; evolve mode reports the peak
    E_N and the lowest nu_minus over the time grid, or one row per time sample
    with curves.  A failed point gets one row with its error and no values;
    per-point failures never abort the run.
    """
    evolve = cfg.mode == "evolve"
    curves = curves and evolve
    t_grid = cfg.time_grid() if evolve else None
    # an evolve point chunk is three fill slices (EVOLVE_SAMPLES)
    size = max(1, 3 * EVOLVE_SAMPLES // cfg.tPoints) if evolve else STEADY_CHUNK
    # with no names, the array has no rows and holds the one point
    all_points = np.array(np.meshgrid(*grids, indexing="ij"), float).reshape(
        len(names), math.prod(map(len, grids))) if names else np.empty((0, 1))
    columns = {name: [] for name in (*names, *(["t"] if curves else []), "EN", "nu_minus",
                                     "stable", "kappaTilde", "DeltaTilde", "rwaVerdict", "error")}
    for start in range(0, all_points.shape[1], size):
        points = all_points[:, start:start + size]
        model, verdicts = resolve_chunk(cfg, names, points)
        out = evaluate_evolve_batch(model, t_grid) if evolve else evaluate_steady_batch(model)
        failed = [k for k, error in enumerate(out.error) if error is not None]
        # E_N does not increase with nu: a peak row's E_N is that of its lowest nu
        nu_minus = out.nu_minus if curves else out.nu_minus.min(axis=1)
        samples = {"EN": entanglement.log_negativity_from_nu(nu_minus), "nu_minus": nu_minus}
        if curves:  # a scored model gives a row per sample, a failed one a single row
            reps = np.full(len(out.error), cfg.tPoints)
            reps[failed] = 1
            keep = np.arange(cfg.tPoints) < reps[:, None]
            samples["t"] = np.broadcast_to(t_grid, keep.shape)
            rows = np.repeat(np.arange(len(reps)), reps)
            failed = (np.cumsum(reps) - reps)[failed].tolist()
        else:
            keep = rows = slice(None)
        for name, block in samples.items():
            cells = block[keep].tolist()
            for row in failed:
                cells[row] = None
            columns[name] += cells
        for name, values in (*zip(names, points), ("stable", out.stable),
                             ("kappaTilde", model.kappa_tilde), ("DeltaTilde", model.delta_tilde)):
            columns[name] += values[rows].tolist()
        for name, values in (("rwaVerdict", verdicts), ("error", out.error)):
            columns[name] += np.asarray(values, dtype=object)[rows].tolist() if curves else values
    # with no axes every point is the base point, whose tags the meta reads
    return ResultTable(columns, _table_meta(cfg, None if names else columns))


def point_table(cfg: RunConfig) -> ResultTable:
    """The one operating point of cfg, its curve in evolve mode, through the
    evaluation core.  A point the core reports as unstable (in steady mode)
    raises StabilityError, any other failed point NumericalError, instead of
    giving a row."""
    table = run_points(cfg, [], [], curves=True)
    error = table.columns["error"][0]
    if cfg.mode == "steady" and error == "unstable":
        raise StabilityError("steady mode on an unstable operating point; "
                             "use evolve mode or change parameters")
    if error is not None:
        raise NumericalError(error)
    return table


def stability_table(cfg: RunConfig) -> ResultTable:
    """Both stability verdicts (the closed form's None for unequal dampings) and the
    spectral abscissa of cfg's own point; a non-finite drift raises NONFINITE_DRIFT."""
    model, verdict = resolve_point(cfg)
    A = dynamics.state_space_realified(dynamics.state_space_coordinates(model)[0])
    abscissa, stable = dynamics.spectral_abscissa(A)
    if math.isnan(abscissa[0]):
        raise NumericalError(NONFINITE_DRIFT)
    try:
        analytic = dynamics.stability_margin(model) > 0.0
    except UnsupportedRegimeError:
        analytic = None
    columns = {"stableAnalytic": [analytic], "stableEigen": stable.tolist(),
               "spectralAbscissa": abscissa.tolist(), "kappaTilde": [model.kappa_tilde],
               "DeltaTilde": [model.delta_tilde], "rwaVerdict": [verdict]}
    return ResultTable(columns, _table_meta(cfg, columns))


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
        # halve each window around the best point, within the first one; a
        # quarter-span taken end by end stays finite where the span overflows
        quarters = [ax.max / 4.0 - ax.min / 4.0 for ax in axes]
        axes = tuple(SweepAxis(ax.name, max(ax0.min, best[ax.name] - q),
                               min(ax0.max, best[ax.name] + q), ax.count)
                     for ax, ax0, q in zip(axes, cfg.axes, quarters))
    return ResultTable({name: [value] for name, value in best.items()}, _table_meta(cfg))


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
    FIG3_RB_VALUES, which sets rB, and emit full curves in evolve mode; they
    take no sweep axes and no rB of their own, which they would otherwise
    ignore."""
    cfg = cfg if cfg is not None else preset_config(name)
    if name in ("fig3a", "fig3b"):
        if cfg.axes:
            raise ConfigError(f"preset '{name}' runs one curve per rB and takes no axes")
        if cfg.rB != preset_config(name).rB:
            raise ConfigError(f"preset '{name}' runs one curve per rB and takes no rB")
        return run_points(cfg, ["rB"], [FIG3_RB_VALUES], curves=True)
    return run_sweep(cfg, curves=curves)
