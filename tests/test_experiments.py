import math
import types

import pytest

import cfomech
from cfomech import dynamics, entanglement
from cfomech.errors import ConfigError, NoFeasiblePointError
from cfomech.experiments import (
    STEADY_CHUNK,
    RunConfig,
    SweepAxis,
    evaluate_steady,
    evaluate_steady_batch,
    fig3_curves,
    find_optimum,
    preset_config,
    resolve_point,
    run_preset,
    run_sweep,
)
from cfomech.params import EffectiveModel


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
    def test_ratio_axis_scales_coupling(self):
        pt = resolve_point(base_config(), {"ratio": 0.5})
        assert pt.model.G1 == 0.5e5
        assert pt.model.G2 == 1e5

    def test_detuning_lock_zeroes_effective_detuning(self):
        cfg = base_config(Delta=123.0, theta=0.7, rB=0.9, detuningLock=True)
        pt = resolve_point(cfg)
        assert pt.model.delta_tilde == 0.0

    def test_temperature_sets_occupancies(self):
        cfg = base_config(nbar1=None, nbar2=None, temperatureK=0.01,
                          omega1=1e9, omega2=2e9)
        pt = resolve_point(cfg)
        assert pt.model.nbar1 == pytest.approx(0.8722448670164474, rel=1e-12)
        assert pt.model.nbar2 < pt.model.nbar1

    def test_rwa_verdict_unknown_without_frequencies(self):
        assert resolve_point(base_config()).rwa_verdict == "unknown"

    def test_occupancy_axis_conflicts_with_temperature(self):
        cfg = base_config(nbar1=None, nbar2=None, temperatureK=0.01,
                          omega1=1e9, omega2=2e9)
        with pytest.raises(ConfigError):
            resolve_point(cfg, {"nbar1": 5.0})

    def test_rwa_verdict_with_frequencies(self):
        pt = resolve_point(base_config(omega1=1e8, omega2=2e8))
        assert pt.rwa_verdict == "valid"


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
        V = dynamics.steady_state_covariance(dynamics.state_space(model))
        en = entanglement.log_negativity(entanglement.mechanical_submatrix(V))
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
    def test_chunked_sweep_matches_points_evaluated_alone(self):
        # 13 x 11 = 143 points: two full chunks and a partial one, with
        # unstable points mixed in by the ratio axis
        cfg = base_config(axes=(SweepAxis("ratio", 0.8, 1.1, 13),
                                SweepAxis("rB", 0.0, 0.99, 11)))
        rows = run_sweep(cfg).rows
        assert len(rows) > 2 * STEADY_CHUNK
        assert {r["stable"] for r in rows} == {True, False}
        for row in rows:
            point = resolve_point(cfg, {"ratio": row["ratio"], "rB": row["rB"]})
            alone = evaluate_steady(point.model)
            assert (row["EN"], row["nu_minus"], row["stable"], row["error"]) == \
                (alone.EN, alone.nu_minus, alone.stable, alone.error)

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
            m(G1=2e5, kappa_tilde=1e3),          # unstable
            m(),
            # G1 = G2 with weak damping: the Lyapunov operator has cond ~ 2e17,
            # so the solved V need not even be physical
            m(G1=197265.0, G2=197265.0, kappa_tilde=1003.0, gamma1=2.0,
              gamma2=2.0, nbar1=1.0, nbar2=3.0),
        ]
        outs = evaluate_steady_batch(models)
        assert [o.stable for o in outs] == [True, False, False, True, True, False, True, True]
        for model, out in zip(models, outs):
            alone = evaluate_steady(model)
            assert (out.EN, out.nu_minus, out.stable, out.error) == \
                (alone.EN, alone.nu_minus, alone.stable, alone.error)
            if not out.stable:
                assert out.error == "unstable" and out.EN is None
            elif out.error is None:
                assert math.isfinite(out.EN)
            else:
                assert out.error == entanglement.UNPHYSICAL and out.EN is None
        assert all(o.error is None for o in outs[:-1] if o.stable)
        assert outs[4].EN == 0.0


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

    def test_refinement_never_worse(self):
        cfg = base_config(G1=0.99e5, axes=(SweepAxis("rB", 0.0, 0.99, 8),))
        coarse = find_optimum(cfg, refine_levels=0).rows[0]["EN"]
        fine = find_optimum(cfg, refine_levels=3).rows[0]["EN"]
        assert fine >= coarse


class TestFig3Curves:
    def test_row_layout(self):
        table = fig3_curves(rB_list=(0.0, 1.0), nbar1=0.0, nbar2=0.0,
                            t_max=4e-4, t_points=9)
        assert len(table.rows) == 2 * 9
        assert table.rows[0]["t"] == 0.0
        assert table.rows[0]["EN"] == 0.0
        rbs = {r["rB"] for r in table.rows}
        assert rbs == {0.0, 1.0}

    def test_ideal_feedback_kills_cavity_decay(self):
        table = fig3_curves(rB_list=(1.0,), nbar1=0.0, nbar2=0.0,
                            t_max=2e-4, t_points=5)
        assert all(r["kappaTilde"] == 0.0 for r in table.rows)
        assert all(r["DeltaTilde"] == 1e3 for r in table.rows)
        assert all(r["stable"] is False for r in table.rows)


class TestPackage:
    def test_all_names_no_module(self):
        for name in cfomech.__all__:
            assert not isinstance(getattr(cfomech, name), types.ModuleType), name


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

    def test_equal_coupling_rows_no_entanglement_when_hot(self):
        # hot baths wash out stationary entanglement at equal couplings
        cfg = base_config(G1=1e4, G2=1e4, nbar1=200.0, nbar2=100.0,
                          axes=(SweepAxis("rB", 0.0, 0.9, 3),))
        for row in run_sweep(cfg).rows:
            assert row["EN"] == 0.0
