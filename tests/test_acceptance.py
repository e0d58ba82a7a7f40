"""Acceptance gate.

One test per criterion (sub-items split where they check distinct claims),
each printing a PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

Shared fixtures hold every covariance matrix produced along the way so the
physicality criterion can audit exactly the states the other criteria emitted.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from cfomech import cli, dynamics, entanglement, experiments
from cfomech.entanglement import (
    initial_covariance,
    log_negativity,
    log_negativity_from_nu,
    min_symplectic_eigenvalue_pt,
)
from cfomech.params import EffectiveModel
from reference import physicality_check, two_mode_squeezed_covariance

GAMMA = 10.0

#: Time horizon for the transient criterion; long enough to contain both the
#: first entanglement peak and the next revival of the undamped-cavity curve
#: at these rates (the loop time is 2*pi/DeltaTilde ~ 6.3 ms).
TRANSIENT_T_MAX = 1e-2
TRANSIENT_T_POINTS = 801


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")


def fig2_model(ratio: float, rB: float, nbar1: float = 0.0, nbar2: float = 0.0) -> EffectiveModel:
    # gamma = 10, G2 = 2*kappa = 1e5 with a symmetric cavity, Delta = 0, theta = 0
    kappa_tilde = 1e5 * (1.0 - rB)
    return EffectiveModel(G1=ratio * 1e5, G2=1e5, kappa_tilde=kappa_tilde,
                          delta_tilde=0.0, gamma1=GAMMA, gamma2=GAMMA,
                          nbar1=nbar1, nbar2=nbar2)


def fig3_model(rB: float, nbar1: float, nbar2: float) -> EffectiveModel:
    # G1 = G2 = 1e4, kappa1 = kappa2 = 5e4, Delta = 1e3, theta = 0
    return EffectiveModel(G1=1e4, G2=1e4, kappa_tilde=1e5 * (1.0 - rB),
                          delta_tilde=1e3, gamma1=GAMMA, gamma2=GAMMA,
                          nbar1=nbar1, nbar2=nbar2)


def steady_en(model: EffectiveModel):
    V = dynamics.steady_state_covariance(*dynamics.state_space(model))
    return log_negativity(V[:4, :4]), V


def sample_stable_models(seed: int, count: int) -> list[EffectiveModel]:
    """Randomized stable operating points spanning the regimes of interest
    (couplings 1e4..2e5, cavity decay 1e3..2e5, dampings 1..1e3, warm baths)."""
    rng = np.random.default_rng(seed)
    models = []
    while len(models) < count:
        G2 = 10 ** rng.uniform(4.0, 5.3)
        m = EffectiveModel(
            G1=rng.uniform(0.0, 0.95) * G2, G2=G2,
            kappa_tilde=10 ** rng.uniform(3.0, 5.3),
            delta_tilde=rng.uniform(-1e5, 1e5),
            gamma1=0.0, gamma2=0.0, nbar1=rng.uniform(0, 50),
            nbar2=rng.uniform(0, 50))
        gamma = 10 ** rng.uniform(0.0, 3.0)
        m = EffectiveModel(**{**m.__dict__, "gamma1": gamma, "gamma2": gamma})
        if dynamics.stability_eigen(dynamics.state_space(m)[0]):
            models.append(m)
    return models


@pytest.fixture(scope="session")
def crit3_data():
    start = time.perf_counter()
    records = []
    for m in sample_stable_models(20240811, 50):
        A, D = dynamics.state_space(m)
        V_ss = dynamics.steady_state_covariance(A, D)
        horizon = 50.0 / float(np.abs(np.linalg.eigvals(A).real).min())
        V_t = dynamics.propagate(A, D, initial_covariance(m.nbar1, m.nbar2), [horizon])[0]
        records.append({
            "EN_steady": log_negativity(V_ss[:4, :4]),
            "EN_propagated": log_negativity(V_t[:4, :4]),
            "covariances": [V_ss, V_t],
        })
    return {"records": records, "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="session")
def fig2c_data():
    start = time.perf_counter()
    ratios = np.linspace(0.8, 0.999, 61)
    curves = {}
    for rB in (0.0, 0.95):
        ens, covs = [], []
        for ratio in ratios:
            en, V = steady_en(fig2_model(float(ratio), rB))
            ens.append(en)
            covs.append(V)
        curves[rB] = {"EN": np.array(ens), "covariances": covs}
    en_equal, V_equal = steady_en(fig2_model(1.0, 0.95))
    return {"ratios": ratios, "curves": curves,
            "equal_coupling_EN": en_equal, "equal_coupling_V": V_equal,
            "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="session")
def fig2a_data():
    # G1 = 0.99 G2, G2 = 2 kappa1 = 2 kappa2 = 1e5, effective detuning locked to 0
    start = time.perf_counter()

    def point(rB, theta):
        kappa_tilde = 1e5 - 2.0 * 5e4 * rB * math.cos(theta)
        m = EffectiveModel(G1=0.99e5, G2=1e5, kappa_tilde=kappa_tilde,
                           delta_tilde=0.0, gamma1=GAMMA, gamma2=GAMMA,
                           nbar1=0.0, nbar2=0.0)
        return steady_en(m)

    baseline, V0 = point(0.0, 0.0)
    plus, V_plus = point(0.9, math.pi / 2)
    minus, V_minus = point(0.9, -math.pi / 2)
    thetas = np.linspace(-math.pi / 2, math.pi / 2, 23)[1:-1]
    interior, covs = [], [V0, V_plus, V_minus]
    for theta in thetas:
        en, V = point(0.9, float(theta))
        interior.append(en)
        covs.append(V)
    return {"baseline": baseline, "plus": plus, "minus": minus,
            "thetas": thetas, "interior": np.array(interior),
            "covariances": covs, "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="session")
def fig3_data():
    start = time.perf_counter()
    t_grid = np.linspace(0.0, TRANSIENT_T_MAX, TRANSIENT_T_POINTS)
    out = {"t": t_grid, "cold": {}, "hot": {}, "covariances": []}
    for label, (n1, n2) in (("cold", (0.0, 0.0)), ("hot", (20.0, 10.0))):
        for rB in experiments.FIG3_RB_VALUES:
            A, D = dynamics.state_space(fig3_model(rB, n1, n2))
            covs = dynamics.propagate(A, D, initial_covariance(n1, n2), t_grid)
            ens = np.array([
                log_negativity_from_nu(
                    min_symplectic_eigenvalue_pt(V[:4, :4]))
                for V in covs])
            out[label][rB] = ens
            out["covariances"].extend(covs)
    out["elapsed"] = time.perf_counter() - start
    return out


class TestCriterion1StabilityOracles:
    def test_analytic_matches_eigenvalues(self):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        checked = disagreements = 0
        for _ in range(1000):
            m = EffectiveModel(
                G1=rng.uniform(0.0, 2e5), G2=rng.uniform(0.0, 2e5),
                kappa_tilde=rng.uniform(0.0, 2e5),
                delta_tilde=rng.uniform(-1e5, 1e5),
                gamma1=(g := rng.uniform(1.0, 1e3)), gamma2=g,
                nbar1=0.0, nbar2=0.0)
            if abs(dynamics.stability_margin(m)) < 1e-6:
                continue
            checked += 1
            if (dynamics.stability_margin(m) > 0.0) != dynamics.stability_eigen(
                    dynamics.state_space(m)[0]):
                disagreements += 1
        elapsed = time.perf_counter() - start
        ok = disagreements == 0 and elapsed < 10.0
        report("criterion 1 (stability oracle equivalence)", ok,
               f"{checked} checked, {disagreements} disagreements, {elapsed:.2f}s")
        assert disagreements == 0
        assert elapsed < 10.0


class TestCriterion2LyapunovResidual:
    def test_relative_residual_bound(self):
        start = time.perf_counter()
        worst = 0.0
        for m in sample_stable_models(20240811, 200):
            A, D = dynamics.state_space(m)
            V = dynamics.steady_state_covariance(A, D)
            residual = np.linalg.norm(A @ V + V @ A.T + D)
            worst = max(worst, residual / np.linalg.norm(D))
        elapsed = time.perf_counter() - start
        ok = worst < 1e-10 and elapsed < 10.0
        report("criterion 2 (Lyapunov residual)", ok,
               f"worst {worst:.3e}, {elapsed:.2f}s")
        assert worst < 1e-10
        assert elapsed < 10.0


class TestCriterion3PropagatorConsistency:
    def test_long_time_propagation_matches_steady_state(self, crit3_data):
        worst = max(abs(r["EN_propagated"] - r["EN_steady"])
                    for r in crit3_data["records"])
        elapsed = crit3_data["elapsed"]
        ok = worst < 1e-6 and elapsed < 60.0
        report("criterion 3 (propagator vs steady state)", ok,
               f"worst |dEN| {worst:.3e}, {elapsed:.2f}s")
        assert worst < 1e-6
        assert elapsed < 60.0


class TestCriterion4AnalyticNegativity:
    def test_two_mode_squeezed_line_and_separable_zeros(self):
        worst = 0.0
        for r in (0.1, 0.5, 1.0, 2.0, 3.0):
            en = log_negativity(two_mode_squeezed_covariance(r))
            worst = max(worst, abs(en - 2.0 * r))
        vacuum = log_negativity(np.eye(4) / 2)
        thermal = log_negativity(np.diag([5.5, 5.5, 2.5, 2.5]))
        ok = worst < 1e-9 and vacuum == 0.0 and thermal == 0.0
        report("criterion 4 (analytic negativity)", ok,
               f"worst |EN - 2r| {worst:.2e}")
        assert worst < 1e-9
        assert vacuum == 0.0
        assert thermal == 0.0


class TestCriterion5SteadyStateCurves:
    def test_5a_feedback_curve_dominates_baseline(self, fig2c_data):
        e0 = fig2c_data["curves"][0.0]["EN"]
        e95 = fig2c_data["curves"][0.95]["EN"]
        margins = e95 - e0
        failures = int(np.sum(margins <= 0))
        ok = failures == 0
        report("criterion 5a (rB=0.95 dominates rB=0)", ok,
               f"{failures}/61 grid points not dominated, "
               f"worst margin {margins.min():.4f}")
        assert failures == 0, (
            f"the rB=0.95 curve falls below the rB=0 curve at {failures} of 61 "
            f"grid points (worst margin {margins.min():.4f}); the gain from "
            f"feedback at these rates is confined to coupling ratios above ~0.97")

    def test_5b_single_interior_maximum(self, fig2c_data):
        details = []
        ok = True
        for rB, curve in fig2c_data["curves"].items():
            ens = curve["EN"]
            idx = int(np.argmax(ens))
            diffs = np.diff(ens)
            diffs = diffs[diffs != 0]
            sign_changes = int(np.sum(np.sign(diffs[1:]) != np.sign(diffs[:-1])))
            interior = 0 < idx < len(ens) - 1
            unimodal = sign_changes <= 1
            ok = ok and interior and unimodal
            details.append(f"rB={rB}: argmax idx {idx}, interior={interior}, "
                           f"unimodal={unimodal}")
        report("criterion 5b (single interior maximum)", ok, "; ".join(details))
        assert ok, (
            "the rB=0.95 curve still rises at the last grid point: its true "
            "maximum sits near ratio 0.9989, closer to the right edge than one "
            "61-point grid step")

    def test_5c_equal_couplings_no_stationary_entanglement(self, fig2c_data):
        en = fig2c_data["equal_coupling_EN"]
        ok = en == 0.0
        report("criterion 5c (EN = 0 at G1 = G2)", ok, f"EN = {en:.6f}")
        assert en == 0.0, (
            f"the stationary solution at exactly equal couplings carries "
            f"EN = {en:.6f} (about ln 2) at zero temperature: the noise-driven "
            f"cross-correlations between the amplified and the thermal collective "
            f"quadratures keep the pair entangled in the strict long-time limit")


class TestCriterion6FeedbackPhaseMap:
    def test_phase_boundary_and_interior_gain(self, fig2a_data):
        base = fig2a_data["baseline"]
        d_plus = abs(fig2a_data["plus"] - base)
        d_minus = abs(fig2a_data["minus"] - base)
        interior_gain = fig2a_data["interior"] - base
        boundary_ok = d_plus < 1e-9 and d_minus < 1e-9
        interior_ok = bool(np.all(interior_gain > 0))
        elapsed = fig2a_data["elapsed"]
        ok = boundary_ok and interior_ok and elapsed < 30.0
        report("criterion 6 (phase map boundary and gain)", ok,
               f"|dEN(+pi/2)| {d_plus:.2e}, |dEN(-pi/2)| {d_minus:.2e}, "
               f"min interior gain {interior_gain.min():.4f}, {elapsed:.2f}s")
        assert boundary_ok
        assert interior_ok
        assert elapsed < 30.0


class TestCriterion7Transients:
    def test_7a_peak_monotone_in_reflectivity(self, fig3_data):
        peaks = [fig3_data["cold"][rB].max() for rB in experiments.FIG3_RB_VALUES]
        ok = all(b >= a for a, b in zip(peaks, peaks[1:]))
        report("criterion 7a (peaks nondecreasing in rB)", ok,
               "peaks " + ", ".join(f"{p:.4f}" for p in peaks))
        assert ok

    def test_7b_ideal_feedback_oscillates(self, fig3_data):
        ens = fig3_data["cold"][1.0]
        maxima = [i for i in range(1, len(ens) - 1)
                  if ens[i] > ens[i - 1] and ens[i] > ens[i + 1]]
        ok = len(maxima) >= 2
        t = fig3_data["t"]
        report("criterion 7b (ideal-feedback oscillation)", ok,
               f"{len(maxima)} local maxima at t = "
               + ", ".join(f"{t[i] * 1e3:.2f} ms" for i in maxima[:4]))
        assert ok

    def test_7c_thermal_noise_degrades(self, fig3_data):
        peaks_ok = windows_ok = True
        details = []
        for rB in experiments.FIG3_RB_VALUES:
            cold, hot = fig3_data["cold"][rB], fig3_data["hot"][rB]
            peaks_ok = peaks_ok and hot.max() < cold.max()
            windows_ok = windows_ok and int((hot > 0).sum()) < int((cold > 0).sum())
            details.append(f"rB={rB}: {cold.max():.3f}->{hot.max():.3f}")
        elapsed = fig3_data["elapsed"]
        ok = peaks_ok and windows_ok and elapsed < 60.0
        report("criterion 7c (thermal degradation)", ok,
               "; ".join(details) + f", {elapsed:.2f}s")
        assert peaks_ok
        assert windows_ok
        assert elapsed < 60.0


class TestCriterion8Physicality:
    def test_every_emitted_covariance_is_physical(self, crit3_data, fig2c_data,
                                                  fig2a_data, fig3_data):
        matrices = []
        for record in crit3_data["records"]:
            matrices.extend(record["covariances"])
        for curve in fig2c_data["curves"].values():
            matrices.extend(curve["covariances"])
        matrices.append(fig2c_data["equal_coupling_V"])
        matrices.extend(fig2a_data["covariances"])
        matrices.extend(fig3_data["covariances"])
        bad = sum(0 if physicality_check(V) else 1 for V in matrices)
        ok = bad == 0
        report("criterion 8 (physicality of emitted states)", ok,
               f"{len(matrices)} covariance matrices audited, {bad} unphysical")
        assert bad == 0


class TestCriterion9Determinism:
    def test_preset_runs_byte_identical_and_formats_agree(self, tmp_path, capsys):
        paths = [tmp_path / f"run{i}.csv" for i in (0, 1)]
        for path in paths:
            code = cli.main(["preset", "fig3a", "--out", str(path), "--quiet"])
            assert code == 0
        identical = paths[0].read_bytes() == paths[1].read_bytes()

        json_path = tmp_path / "run.json"
        code = cli.main(["preset", "fig3a", "--format", "json",
                         "--out", str(json_path), "--quiet"])
        assert code == 0
        capsys.readouterr()
        import csv as csv_mod
        import json as json_mod
        with open(paths[0], newline="") as fh:
            reader = csv_mod.reader(fh)
            header = next(reader)
            csv_rows = list(reader)
        payload = json_mod.loads(json_path.read_text())
        agree = len(csv_rows) == len(payload["rows"])
        for csv_row, json_row in zip(csv_rows, payload["rows"]):
            for col, cell in zip(header, csv_row):
                value = json_row[col]
                if isinstance(value, float):
                    agree = agree and float(cell) == value
                elif isinstance(value, bool):
                    agree = agree and cell == ("true" if value else "false")
                elif value is None:
                    agree = agree and cell == ""
                else:
                    agree = agree and cell == str(value)
        ok = identical and agree
        report("criterion 9 (determinism and serialization)", ok,
               f"byte-identical={identical}, csv/json agree={agree}")
        assert identical
        assert agree

    def test_preset_bytes_match_recorded_digests(self):
        # sha256 of each preset's default output: the fig3 ones recorded when
        # the PT spectrum moved to the closed form, the fig2 ones when the
        # steady-state solve moved to the 21 unknowns of vech(V)
        recorded = {
            ("fig2a", "csv"): "943e23cab06d57d4074e2c0d6d9e57e40e060ecfcfb12161c35c2f0d45959832",
            ("fig2c", "csv"): "0bc82241884a65ba40873c9c7623c3dc8536d51d1808e4a52451077111ad24d4",
            ("fig2d", "csv"): "2631f3a10f17097c80fed0c435bea9f785494b10c6710a03aedf109f652d9d33",
            ("fig3a", "csv"): "4c3955b408729af45677d566526c5d8dfa1acf81bf0e9b865601c8769efa079e",
            ("fig3b", "csv"): "c035f71ea4b86f379747a1594f11f3474408542bc06dc8a6138ec0b7fd1c71d7",
            ("fig3a", "json"): "994a1a1d7a2b859f6608c8f49497a629228cfd36b5c07abd3beba23046ef9f64",
            ("fig3b", "json"): "13447d66d0cbe8068078d2c7258582ae146d8d6568e4998f622a3dc06e22041d",
        }
        tables = {name: experiments.run_preset(name) for name in experiments.PRESET_NAMES}
        changed = [f"{name} {fmt}" for (name, fmt), digest in recorded.items()
                   if hashlib.sha256(cli.serialize(tables[name], fmt).encode()).hexdigest()
                   != digest]
        ok = not changed
        report("criterion 9 (recorded preset bytes)", ok,
               f"changed: {', '.join(changed)}" if changed else f"{len(recorded)} outputs match")
        assert ok, (f"preset output bytes changed ({', '.join(changed)}); only an intended "
                    "numerics change may re-record these digests, with a justification "
                    "of the new bytes in CHANGES.md")
