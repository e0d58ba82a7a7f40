import dataclasses
import importlib.util
import itertools
import math
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import cfomech
from cfomech import cli, dynamics, entanglement, experiments
from cfomech.errors import (
    ConfigError,
    SingularityError,
    DivergenceError,
    NoFeasiblePointError,
)
from cfomech.experiments import (
    EVOLVE_SAMPLES,
    STEADY_CHUNK,
    RunConfig,
    SweepAxis,
    evaluate_evolve_batch,
    evaluate_steady_batch,
    find_optimum,
    preset_config,
    resolve_chunk,
    resolve_point,
    run_preset,
    run_sweep,
)
from cfomech.params import (
    EffectiveModel,
    drive_amplitude,
    effective_couplings,
    thermal_occupancy,
)
from reference import point_columns, scalar_resolve, stack_models

ROOT = Path(__file__).resolve().parents[1]


def peak_values(out, k=0):
    """(EN, nu_minus, stable, error) of model k of a chunk result, as its
    peak row gives them."""
    if out.error[k] is not None:
        return None, None, bool(out.stable[k]), out.error[k]
    return float(out.EN[k].max()), float(out.nu_minus[k].min()), bool(out.stable[k]), None


def base_config(**kw):
    defaults = dict(G1=0.9e5, G2=1e5, kappa1=5e4, kappa2=5e4,
                    gamma1=10.0, gamma2=10.0, Delta=0.0, theta=0.0,
                    nbar1=0.0, nbar2=0.0, mode="steady")
    defaults.update(kw)
    return RunConfig(**defaults)


class TestConfigValidation:
    def test_requires_couplings(self):
        with pytest.raises(ConfigError):
            RunConfig(G1=None, G2=None)

    def test_rejects_mixed_entry_paths(self):
        with pytest.raises(ConfigError):
            RunConfig(G1=1e4, G2=2e4, g1=100.0, g2=100.0, P1=1e-6, P2=1e-6,
                      omegaL1=1e15, omegaL2=1e15, omega1=1e8, omega2=2e8)

    def test_rejects_partial_drive_block(self):
        with pytest.raises(ConfigError):
            RunConfig(g1=100.0, g2=100.0, P1=1e-6, P2=1e-6, omegaL1=1e15)

    def test_temperature_conflicts_with_nbar(self):
        with pytest.raises(ConfigError):
            base_config(temperatureK=0.01, nbar1=1.0, omega1=1e8, omega2=2e8)

    def test_temperature_needs_frequencies(self):
        with pytest.raises(ConfigError):
            base_config(nbar1=None, nbar2=None, temperatureK=0.01)

    def test_mechanical_frequencies_positive_and_distinct(self):
        for omegas, text in (((-1e8, 2e8), "be positive"), ((1e8, 0.0), "be positive"),
                             ((1e8, 1e8), "differ")):
            with pytest.raises(ConfigError, match=f"^mechanical frequencies must {text}$"):
                base_config(omega1=omegas[0], omega2=omegas[1])
        # one frequency alone is not checked: nothing reads it
        assert base_config(omega1=-1e8).omega1 == -1e8

    def test_time_span_positive_and_finite(self):
        # a non-finite span would give rows at t = nan or inf that hold the
        # start state, with no error
        for tMax in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match="^tMax must be positive and finite$"):
                base_config(mode="evolve", tMax=tMax)

    def test_rwa_threshold_positive(self):
        # a NaN threshold passes "<= 0" and would read every point marginal
        for threshold in (0.0, -1.0, math.nan):
            with pytest.raises(ConfigError, match="^rwaThreshold must be positive$"):
                base_config(rwaThreshold=threshold)

    @pytest.mark.parametrize("field, value", [("rwaThreshold", math.inf),
                                              ("kappa1", math.inf), ("gamma1", math.nan)])
    def test_non_finite_numbers_rejected(self, field, value):
        # as the CLI rejects them: an infinite rwaThreshold made the JSON of
        # the run's meta raise, and an infinite kappa1 or a NaN gamma1 ran to
        # rows with kappaTilde NaN and a non-finite drift
        with pytest.raises(ConfigError, match=f"^{field} must be a finite number, got {value}$"):
            RunConfig(G1=9e4, G2=1e5, axes=(SweepAxis("rB", 0, 0.5, 2),), **{field: value})
        # an int beyond double precision is compared, not converted
        with pytest.raises(ConfigError, match="^tPoints must be a finite number"):
            base_config(tPoints=10 ** 400)

    @pytest.mark.parametrize("kw, message", [
        ({"detuningLock": "no"}, "detuningLock must be true or false, got 'no'"),
        ({"detuningLock": 1}, "detuningLock must be true or false, got 1"),
        ({"G1": "9e4"}, "G1 must be a finite number, got '9e4'"),
        ({"gamma1": True}, "gamma1 must be a finite number, got True"),
        ({"tPoints": 20.5}, "tPoints must be an integer, got 20.5"),
        ({"tMax": "2e-3"}, "tMax must be positive and finite"),
        ({"rwaThreshold": "10"}, "rwaThreshold must be positive"),
    ], ids=["text_lock", "numeric_lock", "text_coupling", "boolean_rate", "fractional_tPoints",
            "text_tMax", "text_threshold"])
    def test_python_callers_get_the_cli_checks(self, kw, message):
        # the CLI's number check runs in RunConfig itself: a wrongly typed
        # value is a ConfigError, not a bare TypeError or a truthy lock
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunConfig(**{"G1": 9e4, "G2": 1e5, **kw})

    @pytest.mark.parametrize("bounds, count, message", [
        ((0.5, 1.0), True, "count must be a finite number, got True"),
        ((0.5, 1.0), 2.5, "count must be an integer, got 2.5"),
        ((0.5, 1.0), math.nan, "count must be a finite number, got nan"),
        (("0.5", 1.0), 3, "min must be a finite number, got '0.5'"),
        ((0.5, math.inf), 3, "max must be a finite number, got inf"),
    ], ids=["boolean_count", "fractional_count", "nan_count", "text_bound", "infinite_bound"])
    def test_axis_takes_the_number_check(self, bounds, count, message):
        with pytest.raises(ConfigError, match=f"^axis 'ratio': {re.escape(message)}$"):
            SweepAxis("ratio", *bounds, count)

    def test_whole_float_counts_are_taken_as_ints(self):
        assert SweepAxis("ratio", 0.5, 1.0, 3.0).grid().tolist() == [0.5, 0.75, 1.0]
        assert base_config(mode="evolve", tPoints=np.int64(3)).time_grid().size == 3
        assert base_config(mode="evolve", tPoints=3.0).tPoints == 3

    def test_zero_dissipation_rejected(self):
        with pytest.raises(ConfigError):
            base_config(gamma1=0.0, gamma2=0.0, kappa1=0.0, kappa2=0.0)

    def test_axis_name_checked(self):
        with pytest.raises(ConfigError):
            SweepAxis("bogus", 0.0, 1.0, 5)

    def test_axis_bounds_checked(self):
        with pytest.raises(ConfigError):
            SweepAxis("rB", 0.9, 0.1, 5)
        with pytest.raises(ConfigError):
            SweepAxis("rB", 0.0, 1.0, 0)


class TestResolvePoint:
    def test_config_dict_is_asdict_without_its_deep_copy(self):
        cfg = preset_config("fig2a")
        ref = {**dataclasses.asdict(cfg), "axes": [dataclasses.asdict(ax) for ax in cfg.axes]}
        assert cfg.as_dict() == ref
        assert list(cfg.as_dict()) == list(ref)

    def test_ratio_axis_scales_coupling(self):
        model, _ = resolve_point(base_config(), {"ratio": 0.5})
        assert model.G1 == 0.5e5
        assert model.G2 == 1e5

    def test_detuning_lock_zeroes_effective_detuning(self):
        cfg = base_config(Delta=123.0, theta=0.7, rB=0.9, detuningLock=True)
        model, _ = resolve_point(cfg)
        assert model.delta_tilde == 0.0

    def test_temperature_sets_occupancies(self):
        cfg = base_config(nbar1=None, nbar2=None, temperatureK=0.01,
                          omega1=1e9, omega2=2e9)
        model, _ = resolve_point(cfg)
        assert model.nbar1 == pytest.approx(0.8722448670164474, rel=1e-12)
        assert model.nbar2 < model.nbar1

    def test_rwa_verdict_unknown_without_frequencies(self):
        assert resolve_point(base_config())[1] == "unknown"

    def test_occupancy_axis_conflicts_with_temperature(self):
        cfg = base_config(nbar1=None, nbar2=None, temperatureK=0.01,
                          omega1=1e9, omega2=2e9)
        with pytest.raises(ConfigError):
            resolve_point(cfg, {"nbar1": 5.0})

    def test_rwa_verdict_with_frequencies(self):
        _, verdict = resolve_point(base_config(omega1=1e8, omega2=2e8))
        assert verdict == "valid"

    def test_drive_block_couplings_drop_phases(self):
        drive = dict(g1=100.0, g2=100.0, P1=1e-6, P2=2e-6, omegaL1=1.77e15,
                     omegaL2=1.77e15, omega1=1e8, omega2=2e8)
        cfg = base_config(G1=None, G2=None, nbar1=None, nbar2=None, temperatureK=0.01,
                          rB=0.5, theta=0.3, Delta=7.0, detuningLock=True, **drive)
        model, verdict = resolve_point(cfg, {"kappa1": 4e4})
        # the couplings see the axis value of kappa1 and the locked Delta
        Delta = 2.0 * math.sqrt(4e4 * 5e4) * 0.5 * math.sin(0.3)
        G1, G2 = effective_couplings(100.0, 100.0, drive_amplitude(1e-6, 4e4, 1.77e15),
                                     drive_amplitude(2e-6, 4e4, 1.77e15),
                                     1e8, 2e8, Delta, 4e4, 5e4)
        assert G1.imag != 0 and G2.imag != 0
        assert (model.G1, model.G2) == (abs(G1), abs(G2))
        assert model.delta_tilde == 0.0
        assert (model.nbar1, model.nbar2) == (thermal_occupancy(1e8, 0.01),
                                              thermal_occupancy(2e8, 0.01))
        # ratio kappa2 / omega1 = 5e-4
        assert verdict == "valid"
        assert resolve_point(cfg.replace(rwaThreshold=1e-4))[1] == "marginal"
        for axis in ("ratio", "G1", "G2"):
            with pytest.raises(ConfigError, match="coupling axes need"):
                resolve_point(cfg, {axis: 0.5})


def _grid(cfg):
    names = [ax.name for ax in cfg.axes]
    return names, [dict(zip(names, combo))
                   for combo in itertools.product(*(ax.grid().tolist() for ax in cfg.axes))]


def _bits(values):
    return [float(x).hex() for x in values]


_DRIVE = dict(G1=None, G2=None, g1=100.0, g2=100.0, P1=1e-6, P2=2e-6, omegaL1=1.77e15,
              omegaL2=1.77e15, omega1=1e8, omega2=2e8)


class TestResolveChunk:
    """resolve_chunk against the scalar resolution of tests/reference.py, bit
    for bit, and against resolve_point, its N = 1 view."""

    def assert_matches_scalar(self, cfg, names, points):
        for start in range(0, len(points), STEADY_CHUNK):
            chunk = points[start:start + STEADY_CHUNK]
            model, verdicts = resolve_chunk(cfg, names, point_columns(names, chunk))
            columns = model.columns()
            assert columns.shape == (8, len(chunk)) and len(verdicts) == len(chunk)
            for k, overrides in enumerate(chunk):
                fields, verdict = scalar_resolve(cfg, overrides)
                assert _bits(columns[:, k].tolist()) == _bits(fields), overrides
                assert verdicts[k] == verdict
                alone, alone_verdict = resolve_point(cfg, overrides)
                assert _bits(alone.columns()[:, 0].tolist()) == _bits(fields)
                assert alone_verdict == verdict

    @pytest.mark.parametrize("name", experiments.PRESET_NAMES)
    def test_every_preset_point(self, name):
        cfg = preset_config(name)
        if name in ("fig3a", "fig3b"):
            self.assert_matches_scalar(cfg, ["rB"], [{"rB": rB} for rB in
                                                     experiments.FIG3_RB_VALUES])
        else:
            self.assert_matches_scalar(cfg, *_grid(cfg))

    def test_evolve_sweep_grid(self):
        cfg = base_config(G1=1e4, G2=1e4, Delta=1.3e3, nbar1=4.0, nbar2=11.0, mode="evolve",
                          tPoints=51, axes=(SweepAxis("ratio", 0.9, 1.1, 15),
                                            SweepAxis("rB", 0.0, 1.0, 15)))
        self.assert_matches_scalar(cfg, *_grid(cfg))

    @pytest.mark.parametrize("lock", [True, False])
    def test_drive_block_temperature_and_lock_over_delta_and_theta(self, lock):
        cfg = base_config(nbar1=None, nbar2=None, temperatureK=0.01, rB=0.7,
                          detuningLock=lock, **_DRIVE,
                          axes=(SweepAxis("Delta", -2e4, 2e4, 7),
                                SweepAxis("theta", -math.pi, math.pi, 9)))
        names, points = _grid(cfg)
        self.assert_matches_scalar(cfg, names, points)
        # the couplings vary over the chunk, with the locked or the swept Delta
        model = resolve_chunk(cfg, names, point_columns(names, points))[0]
        assert len(set(model.G1.tolist())) > 1

    @pytest.mark.parametrize("kw, points", [
        ({}, [{"rB": 0.5}, {"rB": 1.2}, {"rB": 0.7}]),
        ({}, [{"kappa1": 5e4}, {"kappa1": -1.0}]),
        # the decays fail at point 1 before rB at point 2 (a columnwise
        # check would meet the rB check first)
        ({}, [{"kappa1": 5e4, "rB": 0.5}, {"kappa1": -1.0, "rB": 0.5},
              {"kappa1": 5e4, "rB": 1.5}]),
        ({}, [{"gamma1": 10.0}, {"gamma1": -1.0}]),
        ({"detuningLock": True, "theta": 0.3}, [{"rB": 0.2}, {"rB": -0.1}]),
        # a vanishing coupling denominator (omega1 - Delta = 0 and kappa1 +
        # kappa2 = 0), first or after a point with a negative decay
        ({"kappa2": -5e4, "nbar1": None, "nbar2": None, **_DRIVE},
         [{"Delta": 1e8}, {"Delta": 2e8}]),
        ({"kappa2": -5e4, "nbar1": None, "nbar2": None, **_DRIVE},
         [{"Delta": 2e8}, {"Delta": 1e8}]),
    ], ids=["rB_above_1", "negative_decay", "first_failing_point", "negative_damping",
            "lock_negative_rB", "singular_first", "singular_second"])
    def test_invalid_chunk_raises_as_its_first_failing_point(self, kw, points):
        cfg = base_config(**kw)
        first, expected = next((p, _scalar_failure(cfg, p)) for p in points
                               if _scalar_failure(cfg, p) is not None)
        names = list(points[0])
        for run in (lambda: resolve_chunk(cfg, names, point_columns(names, points)),
                    lambda: resolve_point(cfg, first)):
            with pytest.raises(ValueError) as got:
                run()
            assert (type(got.value), str(got.value)) == (type(expected), str(expected))

    def test_singular_denominator_is_a_singularity_error(self):
        cfg = base_config(kappa2=-5e4, nbar1=None, nbar2=None, **_DRIVE)
        with pytest.raises(SingularityError, match="coupling denominator vanishes"):
            resolve_chunk(cfg, ["Delta"], np.array([[1e8, 2e8]]))

    @pytest.mark.parametrize("field, text", [
        ("G2", "couplings must be nonnegative reals"),
        ("kappa_tilde", "effective cavity decay must be nonnegative"),
        ("gamma1", "mechanical dampings must be nonnegative"),
        ("nbar2", "thermal occupancies must be nonnegative"),
    ])
    def test_column_model_checks_as_a_float_model(self, field, text):
        fields = dict(G1=0.9e5, G2=1e5, kappa_tilde=1e5, delta_tilde=-3.0,
                      gamma1=10.0, gamma2=10.0, nbar1=0.0, nbar2=0.0)
        with pytest.raises(ValueError, match=text):
            EffectiveModel(**{**fields, field: -1.0})
        columns = {k: np.full(3, v) for k, v in fields.items()}
        columns[field][1] = -1.0
        with pytest.raises(ValueError, match=text):
            EffectiveModel(**columns)
        # a negative detuning is no defect
        assert EffectiveModel(**{k: np.full(3, v) for k, v in fields.items()}).columns()[3, 0] == -3.0


def _scalar_failure(cfg, overrides) -> ValueError | None:
    try:
        scalar_resolve(cfg, overrides)
    except ValueError as exc:
        return exc
    return None


class TestRunSweep:
    def test_requires_axes(self):
        with pytest.raises(ConfigError):
            run_sweep(base_config())

    def test_deterministic_rows(self):
        cfg = base_config(axes=(SweepAxis("rB", 0.0, 0.9, 7),))
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        assert a.rows == b.rows
        assert a.columns == b.columns

    def test_sweep_matches_standalone_pipeline(self):
        cfg = base_config(axes=(SweepAxis("rB", 0.0, 0.9, 4),
                                SweepAxis("ratio", 0.85, 0.95, 3)))
        table = run_sweep(cfg)
        row = table.rows[5]
        model = EffectiveModel(
            G1=row["ratio"] * 1e5, G2=1e5,
            kappa_tilde=row["kappaTilde"], delta_tilde=row["DeltaTilde"],
            gamma1=10.0, gamma2=10.0, nbar1=0.0, nbar2=0.0)
        V = dynamics.steady_state_covariance(*dynamics.state_space(model))
        en = entanglement.log_negativity(V[:4, :4])
        assert en == pytest.approx(row["EN"], abs=1e-12)

    def test_theta_sweep_inert_without_feedback(self):
        cfg = base_config(rB=0.0, axes=(SweepAxis("theta", -math.pi, math.pi, 9),))
        ens = [r["EN"] for r in run_sweep(cfg).rows]
        assert len(set(ens)) == 1

    def test_detuning_lock_rows(self):
        cfg = base_config(Delta=1e3, rB=0.9, detuningLock=True,
                          axes=(SweepAxis("theta", -math.pi, math.pi, 9),))
        for row in run_sweep(cfg).rows:
            assert abs(row["DeltaTilde"]) <= 1e-9 * 1e3

    def test_unstable_points_reported_missing(self):
        cfg = base_config(G1=2e5, G2=1e5, kappa1=1e3, kappa2=1e3,
                          axes=(SweepAxis("ratio", 1.5, 2.0, 3),))
        for row in run_sweep(cfg).rows:
            assert row["EN"] is None
            assert row["stable"] is False
            assert row["error"] == "unstable"

    def test_evolve_summary_and_curves(self):
        cfg = base_config(G1=1e4, G2=1e4, Delta=1e3, mode="evolve",
                          tMax=5e-4, tPoints=11,
                          axes=(SweepAxis("rB", 0.0, 0.9, 2),))
        summary = run_sweep(cfg)
        assert len(summary.rows) == 2
        full = run_sweep(cfg, curves=True)
        assert len(full.rows) == 2 * 11
        peak = max(r["EN"] for r in full.rows if r["rB"] == 0.9)
        row = [r for r in summary.rows if r["rB"] == 0.9][0]
        assert row["EN"] == pytest.approx(peak, abs=0)

    def test_evolve_failures_recorded_per_row(self):
        # the unstable point overflows over this horizon; the sweep keeps going
        cfg = base_config(G1=2e5, G2=1e4, kappa1=1e3, kappa2=1e3,
                          mode="evolve", tMax=10.0, tPoints=3,
                          axes=(SweepAxis("G1", 1e3, 2e5, 2),))
        rows = run_sweep(cfg).rows
        assert len(rows) == 2
        assert rows[0]["EN"] is not None
        assert rows[1]["EN"] is None
        assert "non-finite" in rows[1]["error"]

    def test_metadata_columns_present(self):
        cfg = base_config(axes=(SweepAxis("rB", 0.0, 0.5, 2),))
        table = run_sweep(cfg)
        for col in ("kappaTilde", "DeltaTilde", "rwaVerdict", "stable", "error"):
            assert col in table.columns
        assert table.meta["config"]["G2"] == 1e5


class TestSteadyBatch:
    def test_chunked_sweep_matches_points_evaluated_alone(self, monkeypatch):
        # 27 x 21 = 567 points: two full chunks of 256 and a partial one, with
        # unstable points mixed in by the ratio axis; the chunk is set here,
        # so the sweep stays multi-chunk whatever the module's constant
        monkeypatch.setattr(experiments, "STEADY_CHUNK", 256)
        cfg = base_config(axes=(SweepAxis("ratio", 0.8, 1.1, 27),
                                SweepAxis("rB", 0.0, 0.99, 21)))
        rows = run_sweep(cfg).rows
        assert len(rows) > 2 * experiments.STEADY_CHUNK
        assert {r["stable"] for r in rows} == {True, False}
        for row in rows:
            model, _ = resolve_point(cfg, {"ratio": row["ratio"], "rB": row["rB"]})
            alone = evaluate_steady_batch(model)
            assert (row["EN"], row["nu_minus"], row["stable"], row["error"]) == \
                peak_values(alone)

    def test_mixed_chunk_gives_per_point_outcomes(self):
        def m(**kw):
            fields = dict(G1=0.9e5, G2=1e5, kappa_tilde=1e5, delta_tilde=0.0,
                          gamma1=10.0, gamma2=10.0, nbar1=0.0, nbar2=0.0)
            return EffectiveModel(**{**fields, **kw})
        models = [
            m(kappa_tilde=0.0),                  # ideal feedback, still stable
            m(kappa_tilde=0.0, G1=1e5),          # ideal feedback at G1 = G2: marginal
            m(gamma1=0.0, gamma2=0.0),           # undamped mechanics: marginal
            m(G1=1e5),                           # G1 = G2
            m(nbar1=1e9, nbar2=1e9),             # very hot baths
            m(nbar1=1e300),                      # hotter still: norms past overflow
            m(G1=2e5, kappa_tilde=1e3),          # unstable
            m(),
            m(nbar1=1e303),                      # unscaled, A V would overflow
            m(nbar1=1e306),                      # V near 1e307 still fits
            m(nbar1=1e307),                      # V overflows once scaled back
            m(nbar1=1e308),                      # D itself overflows
            # G1 = G2 with weak damping: the Lyapunov operator has cond ~ 2e17,
            # so the solved V is singular to rounding (the 50-digit state is
            # physical; see test_oracle)
            m(G1=197265.0, G2=197265.0, kappa_tilde=1003.0, gamma1=2.0,
              gamma2=2.0, nbar1=1.0, nbar2=3.0),
        ]
        overflowing = (10, 11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warns nothing
            out = evaluate_steady_batch(stack_models(models))
        assert out.EN.shape == out.nu_minus.shape == (len(models), 1)
        assert out.stable.tolist() == [True, False, False, True, True, True, False, True, True,
                                       True, True, True, True]
        for k in overflowing:
            assert out.error[k] == "stationary covariance overflows double precision"
        for k, model in enumerate(models):
            values = peak_values(out, k)
            assert values == peak_values(evaluate_steady_batch(model))
            EN, _, stable, error = values
            if not stable:
                assert error == "unstable" and EN is None
            elif error is None:
                assert math.isfinite(EN)
            elif k not in overflowing:
                assert error == entanglement.UNRESOLVED and EN is None
            if error is not None:
                assert np.isnan(out.EN[k]).all() and np.isnan(out.nu_minus[k]).all()
        assert all(e is None for e, s in zip(out.error[:10], out.stable[:10]) if s)
        assert out.EN[4, 0] == out.EN[5, 0] == out.EN[8, 0] == out.EN[9, 0] == 0.0
        # V is linear in D, and the bath term dominates D at these occupancies
        assert out.nu_minus[8, 0] / out.nu_minus[5, 0] == pytest.approx(1e3, rel=1e-9)
        assert out.nu_minus[9, 0] / out.nu_minus[5, 0] == pytest.approx(1e6, rel=1e-9)

    def test_chunk_with_no_stable_point(self):
        models = [EffectiveModel(G1=G1, G2=1e5, kappa_tilde=1e3, delta_tilde=0.0, gamma1=10.0,
                                 gamma2=10.0, nbar1=0.0, nbar2=0.0) for G1 in (1.5e5, 2e5)]
        out = evaluate_steady_batch(stack_models(models))
        assert out.error == ["unstable", "unstable"]
        assert out.stable.tolist() == [False, False]
        assert out.EN.shape == out.nu_minus.shape == (2, 1)
        assert np.isnan(out.EN).all() and np.isnan(out.nu_minus).all()

    def test_non_finite_drift_is_a_per_point_error(self):
        def m(**kw):
            fields = dict(G1=0.9e5, G2=1e5, kappa_tilde=1e5, delta_tilde=0.0,
                          gamma1=10.0, gamma2=10.0, nbar1=0.0, nbar2=0.0)
            return EffectiveModel(**{**fields, **kw})
        models = [m(), m(kappa_tilde=math.inf), m(delta_tilde=math.nan),
                  m(G1=2e5, kappa_tilde=1e3)]
        abscissa = dynamics.spectral_abscissa(dynamics.state_space_batch(stack_models(models))[0])
        assert np.isnan(abscissa).tolist() == [False, True, True, False]
        t_grid = np.linspace(0.0, 1e-3, 3)
        evaluate = (evaluate_steady_batch, lambda ms: evaluate_evolve_batch(ms, t_grid))
        for run in evaluate:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an overflow warns nothing
                out = run(stack_models(models))
            assert out.error[1:3] == [experiments.NONFINITE_DRIFT] * 2
            assert out.stable.tolist() == [True, False, False, False]
            assert peak_values(out, 0) == peak_values(run(models[0]))
            assert peak_values(out, 3) == peak_values(run(models[3]))


class TestEvolveBatch:
    def test_chunked_sweep_matches_points_evaluated_alone(self, monkeypatch):
        # 9 x 7 = 63 points at 51 samples: chunks of 20 points, so three full
        # chunks and a partial one, with unstable points and kappa_tilde = 0;
        # the chunk is set here, as in the steady test
        monkeypatch.setattr(experiments, "EVOLVE_SAMPLES", 1024)
        cfg = base_config(G1=1e4, G2=1e4, Delta=1e3, nbar1=5.0, nbar2=2.0,
                          mode="evolve", tPoints=51,
                          axes=(SweepAxis("ratio", 0.9, 1.1, 9),
                                SweepAxis("rB", 0.0, 1.0, 7)))
        rows = run_sweep(cfg).rows
        assert len(rows) > 2 * (experiments.EVOLVE_SAMPLES // cfg.tPoints)
        assert {r["stable"] for r in rows} == {True, False}
        assert any(r["kappaTilde"] == 0.0 for r in rows)
        t_grid = cfg.time_grid()
        for row in rows:
            model, _ = resolve_point(cfg, {"ratio": row["ratio"], "rB": row["rB"]})
            alone = evaluate_evolve_batch(model, t_grid)
            assert row["error"] is None
            assert (row["EN"], row["nu_minus"], row["stable"], row["error"]) == \
                peak_values(alone)

    def test_mixed_chunk_gives_per_point_outcomes(self):
        def m(**kw):
            fields = dict(G1=1e4, G2=1e4, kappa_tilde=1e5, delta_tilde=1e3,
                          gamma1=10.0, gamma2=10.0, nbar1=0.0, nbar2=0.0)
            return EffectiveModel(**{**fields, **kw})
        models = [
            m(G1=2e5, kappa_tilde=1e3),          # overflows in the first interval
            m(kappa_tilde=0.0),                  # ideal feedback
            m(gamma1=0.0, gamma2=0.0),           # undamped: grows until unphysical
            m(nbar1=1e9, nbar2=1e9),             # very hot baths
            m(G1=2e4),                           # unstable: overflows later
            m(G1=0.9e4),                         # stable
            m(nbar1=1e308),                      # D and the start overflow
        ]
        t_grid = [0.1, 1.0, 10.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warns nothing
            out = evaluate_evolve_batch(stack_models(models), t_grid)
        assert out.EN.shape == out.nu_minus.shape == (len(models), len(t_grid))
        with pytest.raises(DivergenceError) as excinfo:
            dynamics.propagate(*dynamics.state_space(models[0]),
                               entanglement.initial_covariance(0.0, 0.0), t_grid)
        assert out.error[0] == str(excinfo.value)
        assert out.error == [
            str(excinfo.value), None, entanglement.UNPHYSICAL, None,
            "non-finite covariance at t = 1 (grid index 1)", None,
            "non-finite covariance at t = 0.1 (grid index 0)"]
        assert out.stable.tolist() == [False, False, False, True, False, True, False]
        for k, model in enumerate(models):
            alone = evaluate_evolve_batch(model, t_grid)
            assert (out.stable[k], out.error[k]) == (alone.stable[0], alone.error[0])
            if out.error[k] is not None:
                assert np.isnan(out.EN[k]).all() and np.isnan(out.nu_minus[k]).all()
                continue
            assert np.array_equal(out.EN[k], alone.EN[0])
            assert np.array_equal(out.nu_minus[k], alone.nu_minus[0])
            assert np.all(np.isfinite(out.EN[k]))
        assert np.all(out.EN[3] == 0.0)

    def test_unresolved_spectrum_fails_the_model(self):
        # unstable: by t = 2 ms ||V4||_F ~ 1e48 and nu_minus sinks below the
        # eigen-solver floor eps*||V4||_F, where it used to read 0 (E_N = inf)
        model, _ = resolve_point(base_config(G1=3e4, G2=1e4, Delta=1e3, rB=0.99))
        out = evaluate_evolve_batch(model, [0.0, 1e-3, 2e-3])
        assert out.error == [entanglement.UNRESOLVED]
        assert np.isnan(out.EN).all() and out.stable.tolist() == [False]


class TestRunPoints:
    def test_steady_chunks_make_no_structure_check(self, monkeypatch):
        # drifts and diffusions built from the columns are phase-insensitive
        # by construction; only the single-system entry checks its inputs
        checked = []
        original = dynamics._check_phase_insensitive
        monkeypatch.setattr(dynamics, "_check_phase_insensitive",
                            lambda X, maps, name: checked.append(name) or original(X, maps, name))
        cfg = base_config(axes=(SweepAxis("ratio", 0.8, 1.1, 30), SweepAxis("rB", 0.0, 0.9, 10)))
        rows = run_sweep(cfg).rows
        assert {r["stable"] for r in rows} == {True, False} and checked == []
        model, _ = resolve_point(cfg, {"ratio": 0.9, "rB": 0.5})
        dynamics.steady_state_covariance(*dynamics.state_space(model))
        assert checked == ["drift matrix", "diffusion matrix"]

    @pytest.mark.parametrize("mode", ["steady", "evolve"])
    def test_points_are_drawn_one_chunk_at_a_time(self, mode, monkeypatch):
        cfg = base_config(G1=1e4, G2=1e4, Delta=1e3, mode=mode, tPoints=51)
        size = max(1, EVOLVE_SAMPLES // cfg.tPoints) if mode == "evolve" else STEADY_CHUNK
        grid = np.linspace(0.8, 1.1, 2 * size + 5)
        drawn = 0
        resolve = experiments.resolve_chunk

        def resolving(cfg, names, points):
            nonlocal drawn
            drawn += points.shape[1]
            return resolve(cfg, names, points)

        name = f"evaluate_{mode}_batch"
        evaluate = getattr(experiments, name)
        drawn_at_call = []

        def recording(models, *args):
            drawn_at_call.append(drawn)
            return evaluate(models, *args)

        monkeypatch.setattr(experiments, "resolve_chunk", resolving)
        monkeypatch.setattr(experiments, name, recording)
        table = experiments.run_points(cfg, ["ratio"], [grid])
        assert len(drawn_at_call) == 3
        for k, count in enumerate(drawn_at_call, start=1):
            assert count <= k * size
        # the grid as Python floats gives the same table
        assert table.rows == experiments.run_points(cfg, ["ratio"], [grid.tolist()]).rows
        assert table.columns["ratio"] == grid.tolist()

    def test_points_are_the_product_of_the_grids_last_fastest(self):
        # 300 points: the second chunk starts inside a ratio's run of rB values
        grids = [np.linspace(0.8, 1.1, 30), np.linspace(0.0, 0.9, 10)]
        table = experiments.run_points(base_config(), ["ratio", "rB"], grids)
        assert [table.columns["ratio"], table.columns["rB"]] == \
            [list(axis) for axis in zip(*itertools.product(*(g.tolist() for g in grids)))]
        assert table.rows == run_sweep(base_config(axes=(
            SweepAxis("ratio", 0.8, 1.1, 30), SweepAxis("rB", 0.0, 0.9, 10)))).rows
        # with no names, the one point is the configuration's own
        alone = experiments.run_points(base_config(rB=0.5), [], [])
        swept = experiments.run_points(base_config(), ["rB"], [[0.5]]).rows[0]
        assert len(alone) == 1 and alone.rows == [{k: v for k, v in swept.items() if k != "rB"}]

    @pytest.mark.parametrize("name", ["fig2a", "fig3a"])
    def test_presets_and_csv_never_build_the_rows_view(self, name, monkeypatch):
        # the pass is columnar from the chunk results to the CSV text
        def no_rows(table):
            raise AssertionError("ResultTable.rows read")

        monkeypatch.setattr(experiments.ResultTable, "rows", property(no_rows))
        table = run_preset(name)
        assert cli.serialize(table, "csv").count("\n") == len(table) + 1


class TestFindOptimum:
    def test_single_point_grid_returns_it(self):
        cfg = base_config(axes=(SweepAxis("rB", 0.5, 0.5, 1),))
        table = find_optimum(cfg, refine_levels=0)
        assert table.rows[0]["rB"] == 0.5

    def test_feedback_beats_no_feedback(self):
        cfg = base_config(G1=0.99e5, axes=(SweepAxis("rB", 0.0, 0.99, 12),))
        best = find_optimum(cfg, refine_levels=2).rows[0]
        baseline = run_sweep(base_config(
            G1=0.99e5, axes=(SweepAxis("rB", 0.0, 0.0, 1),))).rows[0]
        assert best["EN"] >= baseline["EN"]
        assert best["rB"] < 1.0

    def test_all_unstable_raises(self):
        cfg = base_config(G1=3e5, G2=1e5, kappa1=1e3, kappa2=1e3,
                          axes=(SweepAxis("ratio", 2.0, 3.0, 4),))
        with pytest.raises(NoFeasiblePointError):
            find_optimum(cfg, refine_levels=1)

    def test_row_is_the_sweep_row_it_won(self, monkeypatch):
        tables = []

        def recording_sweep(cfg, curves=False):
            tables.append(run_sweep(cfg, curves))
            return tables[-1]

        monkeypatch.setattr(experiments, "run_sweep", recording_sweep)
        cfg = base_config(G1=0.99e5, axes=(SweepAxis("rB", 0.0, 0.99, 8),
                                           SweepAxis("theta", -1.0, 1.0, 5)))
        best = find_optimum(cfg, refine_levels=3).rows[0]
        assert len(tables) == 4
        won = max((r for t in tables for r in t.rows if r["EN"] is not None),
                  key=lambda r: r["EN"])

        def bits(row):  # repr round-trips floats, so equal reprs are equal bits
            return {k: repr(v) for k, v in row.items()}

        assert bits(best) == bits(won)
        # the winner's values equal the point evaluated on its own, bit for bit
        model, _ = resolve_point(cfg, {"rB": best["rB"], "theta": best["theta"]})
        EN, nu_minus, stable, error = peak_values(evaluate_steady_batch(model))
        assert bits({"EN": EN, "nu_minus": nu_minus, "stable": stable,
                     "error": error, "kappaTilde": model.kappa_tilde}) == \
            bits({k: best[k] for k in ("EN", "nu_minus", "stable", "error", "kappaTilde")})

    def test_refinement_never_worse(self):
        cfg = base_config(G1=0.99e5, axes=(SweepAxis("rB", 0.0, 0.99, 8),))
        coarse = find_optimum(cfg, refine_levels=0).rows[0]["EN"]
        fine = find_optimum(cfg, refine_levels=3).rows[0]["EN"]
        assert fine >= coarse


class TestFig3Curves:
    def test_row_layout(self):
        cfg = preset_config("fig3a").replace(
            tMax=4e-4, tPoints=9, axes=(SweepAxis("rB", 0.0, 1.0, 2),))
        table = run_sweep(cfg, curves=True)
        assert len(table.rows) == 2 * 9
        assert table.rows[0]["t"] == 0.0
        assert table.rows[0]["EN"] == 0.0
        rbs = {r["rB"] for r in table.rows}
        assert rbs == {0.0, 1.0}

    def test_ideal_feedback_kills_cavity_decay(self):
        cfg = preset_config("fig3a").replace(
            tMax=2e-4, tPoints=5, axes=(SweepAxis("rB", 1.0, 1.0, 1),))
        table = run_sweep(cfg, curves=True)
        assert all(r["kappaTilde"] == 0.0 for r in table.rows)
        assert all(r["DeltaTilde"] == 1e3 for r in table.rows)
        assert all(r["stable"] is False for r in table.rows)


def _benchmark_tracer():
    """perfbench/tracer.py, loaded by path, and the modules perfbench/run.py
    traces."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer, {m: importlib.import_module(f"cfomech.{m}")
                    for m in ("experiments", "dynamics", "entanglement", "cli")}


class TestPackage:
    def test_all_names_no_module(self):
        for name in cfomech.__all__:
            assert not isinstance(getattr(cfomech, name), types.ModuleType), name

    def test_benchmark_tracer_assigns_every_public_function_a_layer(self):
        # perfbench/run.py traces these modules; a public function that no
        # layer rule matches would only fail there
        tracer, modules = _benchmark_tracer()
        targets = tracer.Tracer(modules, np.linalg).targets()
        for _, attr, short in targets:
            tracer.layer_of(short, attr)
        assert (dynamics, "steady_state_covariance", "dynamics") in targets

    def test_benchmark_tracer_times_the_steady_solve(self):
        # the pipeline's Lyapunov solve is a public dynamics function, so the
        # tracer gives its time to the dynamics.lyapunov layer
        tracer, modules = _benchmark_tracer()
        with tracer.Tracer(modules, np.linalg) as traced:
            traced.begin_pass()
            run_preset("fig2c")
            summary = traced.pass_summary()
        assert summary["calls"]["dynamics.steady_state_batch"] >= 1
        assert summary["self_s"]["dynamics.lyapunov"] > 0

    def test_eigenvalue_calls_of_steady_chunks(self, monkeypatch, capsys):
        # a large chunk takes its stability verdicts from the Routh-Hurwitz
        # certificate, which settles every fig2c point; a single-point
        # command takes one eigenvalue call, for its verdict and its abscissa
        shapes = []
        eigvals = np.linalg.eigvals

        def counting(a):
            shapes.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        run_preset("fig2c")
        assert shapes == []
        for command in ("steady", "stability"):
            assert cli.main([command, "--set", "G1=9e4", "G2=1e5"]) == 0
            assert shapes.pop() == (1, 6, 6) and shapes == []

    def test_steady_chunks_run_on_coordinates(self, monkeypatch):
        # the certificate and the solve take the coordinates of M and D_c as
        # the builder gives them: a steady preset forms no 6x6 stack
        calls = []
        for name in ("state_space_batch", "state_space_realified"):
            original = getattr(dynamics, name)
            monkeypatch.setattr(dynamics, name, lambda *args, name=name, original=original:
                                calls.append(name) or original(*args))
        run_preset("fig2c")
        assert calls == []
        # the hooks see an evolve chunk realify its drifts for eigvals, then
        # its drifts and diffusions for propagation
        run_preset("fig3a", preset_config("fig3a").replace(tPoints=3))
        assert calls.count("state_space_realified") == 3

    def test_package_runs_without_scipy(self):
        # the exponentials are summed in numpy: no command loads scipy
        commands = (["steady", "--set", "G1=9e4", "G2=1e5"],
                    ["evolve", "--set", "G1=1e4", "G2=1e4", "tPoints=3"],
                    ["preset", "fig3a", "--set", "tPoints=3"])
        code = ("import sys, cfomech, cfomech.cli; seen = ['scipy' in sys.modules]\n"
                f"for argv in {commands!r}:\n"
                "    seen += [cfomech.cli.main([*argv, '--quiet']), 'scipy' in sys.modules]\n"
                "print(seen)")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert done.stdout.splitlines()[-1] == str([False] + [0, False] * len(commands))

    def test_reproduce_figures_script_writes_every_preset(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "reproduce_figures.py"), str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300, check=True)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted(f"{name}.csv" for name in experiments.PRESET_NAMES)
        for name in experiments.PRESET_NAMES:
            assert (tmp_path / f"{name}.csv").read_bytes() == \
                cli.serialize(run_preset(name), "csv").encode("utf-8"), name
        assert done.stdout.splitlines()[-1].startswith(
            f"total: {len(experiments.PRESET_NAMES)} presets in ")


class TestPresets:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            preset_config("fig99")

    def test_fig2c_layout(self):
        cfg = preset_config("fig2c")
        assert cfg.mode == "steady"
        names = [ax.name for ax in cfg.axes]
        assert names == ["ratio", "rB"]
        assert cfg.axes[1].grid().tolist() == [0.0, 0.95]

    def test_fig2d_is_hot(self):
        cfg = preset_config("fig2d")
        assert cfg.nbar1 == 200.0 and cfg.nbar2 == 100.0
        assert cfg.axes[1].grid().tolist() == [0.0, 0.7]

    def test_fig3_presets_emit_five_curves(self):
        cfg = preset_config("fig3a").replace(tMax=2e-4, tPoints=5)
        table = run_preset("fig3a", cfg)
        assert sorted({r["rB"] for r in table.rows}) == [0.0, 0.9, 0.99, 0.999, 1.0]
        assert len(table.rows) == 5 * 5

    def test_kappa_tilde_is_the_closed_form_on_every_preset_point(self, monkeypatch):
        # bit for bit kappa1 + kappa2 - 2*sqrt(kappa1*kappa2)*rB*cos(theta),
        # and the matching detuning, as the closed form reads
        seen = []
        original = experiments.params.effective_cavity_params

        def recording(kappa1, kappa2, rB, theta, Delta):
            # called on the columns of a chunk: record each point
            out = original(kappa1, kappa2, rB, theta, Delta)
            seen.extend(zip(*(np.broadcast_to(x, np.shape(out[0])).reshape(-1).tolist()
                              for x in (kappa1, kappa2, rB, theta, Delta, *out))))
            return out

        monkeypatch.setattr(experiments.params, "effective_cavity_params", recording)
        for name in experiments.PRESET_NAMES:
            run_preset(name)
        assert len(seen) > 4000
        for kappa1, kappa2, rB, theta, Delta, kt, dt in seen:
            cross = 2.0 * math.sqrt(kappa1 * kappa2) * rB
            assert kt == max(0.0, kappa1 + kappa2 - cross * math.cos(theta))
            assert dt == Delta - cross * math.sin(theta)

    def test_equal_coupling_rows_no_entanglement_when_hot(self):
        # hot baths wash out stationary entanglement at equal couplings
        cfg = base_config(G1=1e4, G2=1e4, nbar1=200.0, nbar2=100.0,
                          axes=(SweepAxis("rB", 0.0, 0.9, 3),))
        for row in run_sweep(cfg).rows:
            assert row["EN"] == 0.0
