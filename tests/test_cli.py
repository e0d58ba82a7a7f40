import csv
import dataclasses
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from cfomech import cli, dynamics, experiments
from cfomech.cli import build_config, main, serialize
from cfomech.errors import ConfigError, UnsupportedRegimeError
from cfomech.experiments import ResultTable, RunConfig, resolve_point


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


BASE = {
    "G1": 9.9e4, "G2": 1e5, "rB": 0.95, "theta": 0.0, "Delta": 0.0,
    "gamma1": 10.0, "gamma2": 10.0, "kappa1": 5e4, "kappa2": 5e4,
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(BASE))
    return str(path)


class TestBuildConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(Exception, match="unknown config key"):
            build_config({**BASE, "kappa3": 1.0})

    def test_theta_pi_conversion(self):
        data = dict(BASE)
        data.pop("theta")
        cfg = build_config({**data, "thetaPi": 0.5})
        assert cfg.theta == pytest.approx(math.pi / 2)

    def test_theta_conflict_rejected(self):
        with pytest.raises(Exception, match="either theta or thetaPi"):
            build_config({**BASE, "thetaPi": 0.5})

    def test_theta_pi_override_supersedes_file_theta(self, capsys):
        import json as json_mod
        import tempfile
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            json_mod.dump(BASE, fh)
            path = fh.name
        code, out, _ = run_cli(
            ["stability", "--config", path, "--set", "thetaPi=0.5",
             "--format", "json"], capsys)
        assert code == 0
        theta = json_mod.loads(out)["meta"]["config"]["theta"]
        assert theta == pytest.approx(math.pi / 2)

    def test_null_theta_pi_is_dropped(self, tmp_path, capsys):
        # a null thetaPi falls back like every other null key, on the command
        # line and in a file, beside a theta or alone
        sets = ["G1=9e4", "G2=1e5"]
        code, plain, _ = run_cli(["steady", "--set", *sets], capsys)
        assert code == 0
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"thetaPi": None}))
        for args in (["--set", *sets, "thetaPi=null"],
                     ["--config", str(path), "--set", *sets],
                     ["--config", str(path), "--set", *sets, "theta=0"]):
            assert run_cli(["steady", *args], capsys)[:2] == (0, plain)

    def test_axes_parsed(self):
        cfg = build_config({**BASE, "axes": [
            {"name": "rB", "min": 0.0, "max": 0.9, "count": 5}]})
        assert cfg.axes[0].name == "rB"
        assert cfg.axes[0].count == 5

    def test_axes_unknown_field_rejected(self):
        with pytest.raises(Exception, match="unknown key"):
            build_config({**BASE, "axes": [
                {"name": "rB", "min": 0, "max": 1, "step": 0.1}]})

    def test_null_values_fall_back_to_defaults(self):
        cfg = build_config({**BASE, "nbar1": None, "omega1": None})
        assert cfg.nbar1 is None

    def test_every_key_has_exactly_one_checked_kind(self):
        # a key with no kind would reach RunConfig unchecked
        kinds = (cli._NUMBER_KEYS, cli._BOOLEAN_KEYS, {"mode"}, {"axes"})
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert cli._CONFIG_KEYS == fields | {"thetaPi"}
        for key in sorted(cli._CONFIG_KEYS):
            assert sum(key in kind for kind in kinds) == 1, key
            # an object is the wrong type for every kind
            with pytest.raises(ConfigError, match=f"^{key} must be "):
                build_config({**BASE, key: {}})


class TestSerialize:
    def test_empty_table_is_header_only(self):
        text = serialize(ResultTable({"a": [], "b": []}, {}), "csv")
        assert text == "a,b\n"

    def test_missing_value_renders_empty(self):
        table = ResultTable({"EN": [None], "stable": [False]}, {})
        header, rows = parse_csv(serialize(table, "csv"))
        assert rows == [["", "false"]]

    def test_twelve_significant_digits(self):
        table = ResultTable({"x": [math.pi]}, {})
        _, rows = parse_csv(serialize(table, "csv"))
        assert rows[0][0] == "3.14159265359"

    def test_csv_json_values_identical(self):
        table = ResultTable({"x": [1.23456789012345e-7], "ok": [True]}, {})
        _, rows = parse_csv(serialize(table, "csv"))
        payload = json.loads(serialize(table, "json"))
        assert float(rows[0][0]) == payload["rows"][0]["x"]
        assert payload["rows"][0]["ok"] is True

    def test_non_finite_floats_are_null_in_json(self, capsys):
        # kappa1 + kappa2 overflows, so kappaTilde is inf at both points
        sweep = ["sweep", "--set", "G1=9e4", "G2=1e5", "kappa1=1e308", "kappa2=1e308",
                 'axes=[{"name":"rB","min":0,"max":0.5,"count":2}]']
        code, out, err = run_cli([*sweep, "--format", "json"], capsys)
        assert (code, err) == (0, "")

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(out, parse_constant=reject)
        assert payload["meta"]["kappaTilde"] is None
        assert [row["kappaTilde"] for row in payload["rows"]] == [None, None]
        # CSV keeps the text of the float
        code, out, _ = run_cli(sweep, capsys)
        header, rows = parse_csv(out)
        assert code == 0 and [row[header.index("kappaTilde")] for row in rows] == ["inf"] * 2


def _rowwise_csv(table: ResultTable) -> str:
    """csv.writer on the rows view, one row at a time, cell by cell."""
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return f"{value:.12g}"
        return str(value)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([cell(row.get(col)) for col in table.columns])
    return buf.getvalue()


_CELLS = st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20),
                   st.floats(allow_nan=True, allow_infinity=True),
                   st.text(max_size=8))


def _columnar(names, rows) -> ResultTable:
    """The table of rows in the given columns, a cell None where a row lacks it."""
    return ResultTable({name: [row.get(name) for row in rows] for name in names})


class TestBlockwiseCsv:
    """serialize writes CSV column by column, with csv.writer's bytes."""

    @settings(deadline=None, max_examples=200)
    @given(columns=st.lists(st.sampled_from(["a", "b", "c,d", 'e"f', "g"]), min_size=1,
                            max_size=5, unique=True),
           rows=st.lists(st.dictionaries(st.sampled_from(["a", "b", "c,d", 'e"f', "g", "x"]),
                                         _CELLS), max_size=12))
    def test_matches_the_rowwise_writer(self, columns, rows):
        # rows may lack a column or carry an extra key
        table = _columnar(columns, rows)
        assert serialize(table, "csv") == _rowwise_csv(table)

    @pytest.mark.parametrize("columns, rows", [
        # csv.writer quotes a "\n" but not a "\r" under a "\n" line terminator
        (["a", "b"], [{"a": "x\ry", "b": "p\nq"}, {"a": "\r", "b": 1.5}]),
        # a line of one empty field reads ""
        (["a"], [{"a": None}, {"a": 2.5}, {"a": ""}, {"a": "text"}]),
        # an error row: no values, its tags and error text
        (["ratio", "EN", "nu_minus", "stable", "kappaTilde", "error"],
         [{"ratio": 0.9, "EN": 0.25, "nu_minus": 0.4, "stable": True, "kappaTilde": 1e5},
          {"ratio": 1.2, "EN": None, "nu_minus": None, "stable": False, "kappaTilde": 1e5,
           "error": "unstable"},
          {"ratio": 1.3, "stable": False, "kappaTilde": math.inf,
           "error": 'non-finite covariance at t = 1e-3, "x"'}]),
        # floats and bools that compare equal keep their own text
        (["a", "b"], [{"a": 1.0, "b": True}, {"a": True, "b": 1}, {"a": 1, "b": 1.0},
                      {"a": -0.0, "b": 0.0}, {"a": 0.0, "b": -0.0}]),
    ], ids=["carriage_return", "one_column_none", "error_row", "equal_values"])
    def test_cases_match_the_rowwise_writer(self, columns, rows):
        table = _columnar(columns, rows)
        assert serialize(table, "csv") == _rowwise_csv(table)

    def test_preset_bytes_match_the_rowwise_writer(self):
        table = experiments.run_preset("fig2c")
        assert len(table) == len(table.rows) == 122
        assert serialize(table, "csv") == _rowwise_csv(table)


class TestSteadyCommand:
    def test_single_row(self, config_file, capsys):
        code, out, _ = run_cli(["steady", "--config", config_file], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:2] == ["EN", "nu_minus"]
        assert len(rows) == 1
        assert float(rows[0][0]) > 0

    def test_set_overrides_file(self, config_file, capsys):
        code, out, _ = run_cli(
            ["steady", "--config", config_file, "--set", "rB=0", "--format", "json"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["config"]["rB"] == 0
        assert payload["meta"]["kappaTilde"] == 1e5

    def test_last_set_wins(self, config_file, capsys):
        code, out, _ = run_cli(
            ["steady", "--config", config_file, "--set", "rB=0.2", "rB=0.4",
             "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["meta"]["config"]["rB"] == 0.4

    def test_matches_sweep_baseline_row(self, config_file, capsys):
        code, out, _ = run_cli(
            ["steady", "--config", config_file, "--set", "rB=0"], capsys)
        _, steady_rows = parse_csv(out)
        code, out, _ = run_cli(
            ["sweep", "--config", config_file, "--set",
             'axes=[{"name":"rB","min":0,"max":0.95,"count":2}]'], capsys)
        assert code == 0
        header, sweep_rows = parse_csv(out)
        i_en = header.index("EN")
        assert steady_rows[0][0] == sweep_rows[0][i_en]

    def test_unstable_exits_three(self, config_file, capsys):
        code, _, err = run_cli(
            ["steady", "--config", config_file,
             "--set", "G1=2e5", "kappa1=1e3", "kappa2=1e3"], capsys)
        assert code == 3
        assert "stability" in err


class TestParserReuse:
    def test_back_to_back_calls_are_independent(self, config_file, capsys):
        _, first, _ = run_cli(["steady", "--config", config_file, "--set", "rB=0.5"], capsys)
        _, second, _ = run_cli(["steady", "--config", config_file, "--set", "G1=5e4"], capsys)
        _, again, _ = run_cli(["steady", "--config", config_file, "--set", "rB=0.5"], capsys)
        _, plain, _ = run_cli(["steady", "--config", config_file], capsys)
        assert again == first
        assert len({first, second, plain}) == 3
        _, (row,) = parse_csv(second)
        header, (base,) = parse_csv(plain)
        assert row[header.index("kappaTilde")] == base[header.index("kappaTilde")]

    def test_bad_flag_still_exits_two_with_usage(self, config_file, capsys):
        run_cli(["steady", "--config", config_file], capsys)
        with pytest.raises(SystemExit) as excinfo:
            main(["steady", "--no-such-flag"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cfomech ")
        assert "unrecognized arguments: --no-such-flag" in err


class TestExitCodes:
    def test_zero_dissipation_is_config_error(self, capsys):
        code, _, err = run_cli(
            ["stability", "--set", "G1=1", "G2=2", "kappa1=0", "kappa2=0",
             "gamma1=0", "gamma2=0"], capsys)
        assert code == 2
        assert "config error" in err

    def test_negative_decay_under_detuning_lock_is_config_error(self, capsys):
        # the decays are checked before the lock takes sqrt(kappa1*kappa2)
        code, out, err = run_cli(
            ["steady", "--set", "G1=0.9e5", "G2=1e5", "kappa1=-1", "detuningLock=true",
             "rB=0.5"], capsys)
        assert code == 2
        assert out == ""
        assert err == "config error: cavity decays must be nonnegative\n"

    def test_unknown_key_is_config_error(self, config_file, capsys):
        code, _, _ = run_cli(
            ["steady", "--config", config_file, "--set", "bogus=1"], capsys)
        assert code == 2

    def test_unwritable_path_is_io_error(self, config_file, capsys):
        code, _, err = run_cli(
            ["steady", "--config", config_file,
             "--out", "/nonexistent-dir/result.csv"], capsys)
        assert code == 4

    def test_missing_couplings_is_config_error(self, capsys):
        code, _, _ = run_cli(["steady", "--set", "rB=0.5"], capsys)
        assert code == 2

    def test_infeasible_optimization_exits_three(self, config_file, capsys):
        code, _, err = run_cli(
            ["optimize", "--config", config_file, "--set",
             "G1=3e5", "kappa1=1e3", "kappa2=1e3",
             'axes=[{"name":"rB","min":0,"max":0.5,"count":3}]'], capsys)
        assert code == 3
        assert "stability" in err


    @pytest.mark.parametrize("command, sets, key", [
        ("evolve", ["G1=1e4", "G2=1e4", "tPoints=2.5"], "tPoints"),
        ("steady", ["G1=1e4", "G2=abc"], "G2"),
        ("steady", ["G1=1e4", "G2=1e5", "axes=5"], "axes"),
        ("steady", ["G1=1e4", "G2=1e5", "rB=true"], "rB"),
        ("evolve", ["G1=1e4", "G2=1e4", "tMax=NaN"], "tMax"),
        ("sweep", ["G1=1e4", "G2=1e5",
                   'axes=[{"name":"rB","min":0,"max":0.9,"count":2.7}]'], "axes[0].count"),
        ("sweep", ["G1=1e4", "G2=1e5",
                   'axes=[{"name":"rB","min":"0","max":0.9}]'], "axes[0].min"),
        ("steady", ["G1=0.9e5", "G2=1e5", "rB=0.5", "theta=0.3", 'detuningLock="no"'],
         "detuningLock"),
        ("steady", ["G1=0.9e5", "G2=1e5", "detuningLock=1"], "detuningLock"),
    ], ids=["fractional_tPoints", "text_coupling", "scalar_axes", "boolean_rB",
            "nan_tMax", "fractional_count", "text_axis_bound", "text_lock", "numeric_lock"])
    def test_wrongly_typed_value_is_config_error(self, command, sets, key, capsys):
        code, out, err = run_cli([command, "--set", *sets], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: {key} must be ")

    @pytest.mark.parametrize("key, literal", [("Delta", "1" + "0" * 400),
                                              ("G1", "-1" + "0" * 400)])
    def test_integer_beyond_double_precision_is_config_error(self, key, literal, capsys):
        # the literal parses to an int that float() cannot hold
        code, out, err = run_cli(["steady", "--set", "G1=9e4", "G2=1e5", f"{key}={literal}"],
                                 capsys)
        assert (code, out) == (2, "")
        assert err == f"config error: {key} must be a finite number, got {literal}\n"

    def test_wrongly_typed_file_value_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**BASE, "kappa1": "5e4"}))
        code, out, err = run_cli(["steady", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err == "config error: kappa1 must be a finite number, got '5e4'\n"

    @pytest.mark.parametrize("loaded, message", [
        ({"meta": "config"}, "unknown config key(s): meta"),
        ({"meta": ["config"]}, "unknown config key(s): meta"),
        ({"meta": {"config": 5}}, "meta.config must be a JSON object, got 5"),
    ], ids=["text_meta", "list_meta", "scalar_meta_config"])
    def test_malformed_meta_is_config_error(self, loaded, message, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(loaded))
        code, out, err = run_cli(["steady", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"config error: {message}\n"

    def test_whole_number_counts_may_be_floats(self):
        cfg = build_config({**BASE, "tPoints": 5.0, "axes": [
            {"name": "rB", "min": 0, "max": 0.9, "count": 3.0}]})
        assert (cfg.tPoints, cfg.axes[0].count) == (5, 3)
        assert type(cfg.tPoints) is type(cfg.axes[0].count) is int

    def test_unphysical_transient_is_numerical_error(self, capsys):
        code, out, err = run_cli(
            ["evolve", "--set", "G1=1e4", "G2=1e4", "gamma1=0", "gamma2=0",
             "Delta=1e3", "tMax=10", "tPoints=3"], capsys)
        assert code == 4
        assert out == ""
        assert err == "numerical/io error: covariance matrix violates the uncertainty principle\n"

    def test_unresolved_spectrum_is_numerical_error(self, capsys):
        # unstable growth drives nu_minus below the eigen-solver floor
        code, out, err = run_cli(
            ["evolve", "--set", "G1=3e4", "G2=1e4", "Delta=1e3", "rB=0.99",
             "tPoints=3"], capsys)
        assert code == 4
        assert out == ""
        assert err.startswith("numerical/io error: partially transposed spectrum unresolved")

    @pytest.mark.parametrize("nbar1", ["1e27", "1e30"])
    def test_hot_product_state_is_resolved(self, capsys, nbar1):
        # the separable start diag(nbar1 + 1/2, nbar1 + 1/2, 1/2, 1/2) has
        # nu_minus = 1/2 exactly, and a floor that grew like eps*||V4|| with
        # the bath would call it unresolved
        code, out, err = run_cli(
            ["evolve", "--set", "G1=1e4", "G2=1e4", "Delta=1e3", f"nbar1={nbar1}",
             "tPoints=3"], capsys)
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        first = dict(zip(header, rows[0]))
        assert (first["t"], first["nu_minus"], first["error"]) == ("0", "0.5", "")
        assert all(row[header.index("error")] == "" for row in rows)

    @pytest.mark.parametrize("command", ["steady", "evolve", "stability"])
    def test_non_finite_drift_is_numerical_error(self, command, capsys):
        # kappa1 + kappa2 overflows: kappa_tilde = inf, a per-point error
        code, out, err = run_cli(
            [command, "--set", "G1=0.9e5", "G2=1e5", "kappa1=1e308", "kappa2=1e308",
             "tPoints=3"], capsys)
        assert (code, out) == (4, "")
        assert err == "numerical/io error: drift matrix has a non-finite entry\n"

    def test_overflowing_point_keeps_the_other_rows(self, capsys):
        # sqrt(kappa1*kappa2) overflows at the last point, where kappa1 +
        # kappa2 does not: kappa_tilde is that sum at rB = 0
        code, out, err = run_cli(
            ["sweep", "--set", "G1=0.9e5", "G2=1e5", "kappa2=5e4",
             'axes=[{"name": "kappa1", "min": 5e4, "max": 1.7e308, "count": 3}]'], capsys)
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        rows = [dict(zip(header, row)) for row in rows]
        assert [row["kappaTilde"] for row in rows] == ["100000", "8.5e+307", "1.7e+308"]
        assert rows[0]["error"] == "" and float(rows[0]["EN"]) > 0
        # the mechanical dampings are inside the marginal band of so large a drift
        assert [row["error"] for row in rows[1:]] == ["unstable", "unstable"]

    @pytest.mark.parametrize("sets", [
        ["omega1=1e-300", "omega2=2e7", "temperatureK=1e10"],
        ["omega1=1e-10", "omega2=2e7", "temperatureK=1e300"],
    ], ids=["occupancy_ratio_underflows", "occupancy_overflows"])
    def test_bath_beyond_double_precision_is_numerical_error(self, sets, capsys):
        code, out, err = run_cli(["steady", "--set", "G1=0.9e5", "G2=1e5", *sets], capsys)
        assert (code, out) == (4, "")
        assert err == "numerical/io error: stationary covariance overflows double precision\n"


class TestStabilityCommand:
    @pytest.mark.parametrize("command", ["steady", "stability", "evolve"])
    def test_meta_tags_are_the_resolved_base_point(self, command, capsys):
        # single-point tables copy their meta tags from their row: the same
        # tags as a fresh resolution of the configuration
        sets = ["G1=9e4", "G2=1e5", "rB=0.7", "theta=1.1", "Delta=5e3", "omega1=1e6",
                "omega2=2e6", "tPoints=3"]
        code, out, _ = run_cli([command, "--set", *sets, "--format", "json"], capsys)
        assert code == 0
        model, verdict = resolve_point(build_config(cli._merge_sets({}, sets)))
        meta = json.loads(out)["meta"]
        assert (meta["kappaTilde"], meta["DeltaTilde"], meta["rwaVerdict"]) == \
            (model.kappa_tilde, model.delta_tilde, verdict)
        assert verdict == "marginal" and model.delta_tilde != 5e3

    def test_reports_both_verdicts(self, config_file, capsys):
        code, out, _ = run_cli(["stability", "--config", config_file], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:3] == ["stableAnalytic", "stableEigen", "spectralAbscissa"]
        assert rows[0][0] == "true" and rows[0][1] == "true"
        assert float(rows[0][2]) < 0

    def test_unequal_dampings_blank_analytic(self, config_file, capsys):
        code, out, _ = run_cli(
            ["stability", "--config", config_file, "--set", "gamma2=20"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][0] == ""

    def test_couplings_whose_squares_overflow(self, capsys):
        # G2^2 overflows; the closed form's sign is G2 > G1, while the
        # abscissa of so large a drift is inside the marginal band
        code, out, err = run_cli(["stability", "--set", "G1=2e154", "G2=3e154"], capsys)
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert rows[0][:2] == ["true", "false"]

    @pytest.mark.parametrize("sets, expected", [
        (["G1=9e4", "G2=1e5"], "true,true,-5,100000,0,unknown"),
        (["G1=2e5", "G2=1e5"], "false,false,130274.370414,100000,0,unknown"),
        # kappa_tilde = 0 at G1 = G2: a zero mode, so marginal, not stable
        (["G1=1e4", "G2=1e4", "rB=1"], "false,false,2.03249104566e-06,0,0,unknown"),
        (["G1=9e4", "G2=1e5", "gamma2=20"], ",false,16.2863352173,100000,0,unknown"),
        # undamped mechanics: one Bogoliubov mode decouples, so marginal
        (["G1=9e4", "G2=1e5", "gamma1=0", "gamma2=0"],
         "false,false,6.5370275706e-11,100000,0,unknown"),
    ], ids=["stable", "unstable", "marginal", "unequal_dampings", "undamped"])
    def test_pinned_rows_match_the_stability_kernels(self, sets, expected, capsys):
        code, out, err = run_cli(["stability", "--set", *sets], capsys)
        assert (code, err) == (0, "")
        assert out == "stableAnalytic,stableEigen,spectralAbscissa,kappaTilde," \
            f"DeltaTilde,rwaVerdict\n{expected}\n"
        model, _ = resolve_point(build_config(cli._merge_sets({}, sets)))
        A = dynamics.state_space_batch(model)[0]
        m = dynamics.state_space_coordinates(model)[0]
        abscissa, stable = dynamics.spectral_abscissa(A), dynamics.stability_batch(m)
        try:
            analytic = dynamics.stability_margin(model) > 0.0
        except UnsupportedRegimeError:
            analytic = None
        one_row = ResultTable({"stableAnalytic": [analytic], "stableEigen": [bool(stable[0])],
                               "spectralAbscissa": [float(abscissa[0])]})
        assert out.splitlines()[1].split(",")[:3] == \
            serialize(one_row, "csv").splitlines()[1].split(",")


class TestEvolveCommand:
    def test_curve_rows(self, config_file, capsys):
        code, out, _ = run_cli(
            ["evolve", "--config", config_file,
             "--set", "G1=1e4", "G2=1e4", "Delta=1e3", "tMax=2e-4", "tPoints=6"],
            capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "t"
        assert len(rows) == 6
        assert float(rows[0][0]) == 0.0


    @pytest.mark.parametrize("t_max", [1e302, 1e305, 1e307])
    def test_long_horizon_reaches_the_steady_state(self, t_max, capsys):
        # the doubling count and the substep are read at unit size, so no
        # horizon up to the largest double overflows them; nu_minus at the
        # last sample is within STEADY_HORIZON_ATOL of the steady solve
        sets = ["G1=9e4", "G2=1e5"]
        _, out, _ = run_cli(["steady", "--set", *sets], capsys)
        steady = float(parse_csv(out)[1][0][1])
        code, out, err = run_cli(["evolve", "--set", *sets, f"tMax={t_max!r}", "tPoints=3"],
                                 capsys)
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        assert abs(float(rows[-1][header.index("nu_minus")]) - steady) <= STEADY_HORIZON_ATOL


#: Absolute distance allowed between the nu_minus of a stable system
#: propagated over a long horizon and its steady value (0.0477); the largest
#: seen at horizons from 1 to 1.7e308 s is 3.7e-12.
STEADY_HORIZON_ATOL = 1e-11

#: Binary exponents of the units of time of TestUnitOfTime, about 1e-200 and
#: 1e+200 s: powers of 2, so that every rate and time scales exactly.
UNIT_EXPONENTS = (-664, 664)

#: Relative change allowed in spectralAbscissa between units.  numpy's
#: eigvals scales a matrix this far from unit size by a factor that is not a
#: power of 2, which moves the abscissa by about eps*||A||_F: at BASE that is
#: 6.3e-11 s^-1, 1.3e-11 of its abscissa of -5 s^-1, the change seen at
#: every unit from 2^-1000 to 2^1000 s.
ABSCISSA_UNIT_RTOL = 1e-10

#: BASE detuned (DeltaTilde about -7.5e3 s^-1), in s^-1, and its rates.
UNIT_POINT = {**BASE, "Delta": 2e3, "theta": 0.1}
_RATE_KEYS = ("G1", "G2", "Delta", "gamma1", "gamma2", "kappa1", "kappa2")


class TestUnitOfTime:
    """Only rate ratios matter: with UNIT_POINT's rates in units of 2^k s^-1,
    and tMax = 2e-3 s in units of 2^-k s, each single-point command exits 0,
    its unit-free columns match the run in s^-1 byte for byte, and its rates
    and times scale exactly."""

    @staticmethod
    def run(command, k, capsys):
        sets = [f"{key}={math.ldexp(value, k) if key in _RATE_KEYS else value!r}"
                for key, value in UNIT_POINT.items()]
        code, out, err = run_cli([command, "--set", *sets, f"tMax={math.ldexp(2e-3, -k)!r}",
                                  "tPoints=5"], capsys)
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        return [dict(zip(header, row)) for row in rows]

    @staticmethod
    def pop_scaled(row, k):
        """Check and drop the columns that are rates."""
        model, _ = resolve_point(build_config(UNIT_POINT))
        assert row.pop("kappaTilde") == "%.12g" % math.ldexp(model.kappa_tilde, k)
        assert row.pop("DeltaTilde") == "%.12g" % math.ldexp(model.delta_tilde, k)

    @pytest.mark.parametrize("k", UNIT_EXPONENTS)
    @pytest.mark.parametrize("command", ["steady", "evolve"])
    def test_steady_and_evolve(self, command, k, capsys):
        rows, base = self.run(command, k, capsys), self.run(command, 0, capsys)
        assert len(rows) == len(base) == (5 if command == "evolve" else 1)
        grid = build_config({**UNIT_POINT, "tMax": 2e-3, "tPoints": 5}).time_grid()
        for row, base_row, t in zip(rows, base, grid):
            self.pop_scaled(row, k)
            if command == "evolve":
                assert row.pop("t") == "%.12g" % math.ldexp(t, -k)
            assert set(row) == {"EN", "nu_minus", "stable", "rwaVerdict", "error"}
            assert row == {key: base_row[key] for key in row}

    @pytest.mark.parametrize("k", UNIT_EXPONENTS)
    def test_stability(self, k, capsys):
        (row,), (base,) = self.run("stability", k, capsys), self.run("stability", 0, capsys)
        self.pop_scaled(row, k)
        assert math.ldexp(float(row.pop("spectralAbscissa")), -k) == \
            pytest.approx(float(base["spectralAbscissa"]), rel=ABSCISSA_UNIT_RTOL)
        # the closed-form gap is of order rate^2, 2^-1328 s^-2 here: below
        # double precision it reads 0, and stableAnalytic false
        # (dynamics.stability_margin)
        assert row.pop("stableAnalytic") == ("false" if k < 0 else base["stableAnalytic"])
        assert base["stableAnalytic"] == base["stableEigen"] == "true"
        assert row == {"stableEigen": "true", "rwaVerdict": "unknown"}

class TestPresetCommand:
    def test_fig3a_json_has_five_series(self, capsys):
        code, out, _ = run_cli(
            ["preset", "fig3a", "--format", "json",
             "--set", "tMax=2e-4", "tPoints=5"], capsys)
        assert code == 0
        payload = json.loads(out)
        rbs = sorted({row["rB"] for row in payload["rows"]})
        assert rbs == [0.0, 0.9, 0.99, 0.999, 1.0]

    def test_fig3_overrides_apply_to_every_curve(self, capsys):
        _, plain, _ = run_cli(["preset", "fig3a", "--set", "tPoints=3"], capsys)
        args = ["preset", "fig3a", "--set", "G1=3e4", "tPoints=3"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert out != plain
        code, out, _ = run_cli(args + ["--format", "json"], capsys)
        payload = json.loads(out)
        assert payload["meta"]["config"]["G1"] == 3e4
        assert sorted({row["rB"] for row in payload["rows"]}) == [0.0, 0.9, 0.99, 0.999, 1.0]

    def test_repeat_runs_byte_identical(self, capsys):
        args = ["preset", "fig2c", "--set",
                'axes=[{"name":"ratio","min":0.8,"max":0.999,"count":7},'
                '{"name":"rB","min":0,"max":0.95,"count":2}]']
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1.encode() == out2.encode()

    def test_csv_and_json_agree(self, capsys):
        args = ["preset", "fig3a", "--set", "tMax=2e-4", "tPoints=4"]
        code, out_csv, _ = run_cli(args, capsys)
        assert code == 0
        code, out_json, _ = run_cli(args + ["--format", "json"], capsys)
        assert code == 0
        header, rows = parse_csv(out_csv)
        payload = json.loads(out_json)
        assert len(rows) == len(payload["rows"])
        for csv_row, json_row in zip(rows, payload["rows"]):
            for col, cell in zip(header, csv_row):
                value = json_row[col]
                if isinstance(value, float):
                    assert float(cell) == value
                elif isinstance(value, bool):
                    assert cell == ("true" if value else "false")
                elif value is None:
                    assert cell == ""
                else:
                    assert cell == str(value)


class TestRoundTrip:
    def test_json_output_feeds_back_identically(self, config_file, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        code, _, _ = run_cli(
            ["steady", "--config", config_file, "--format", "json",
             "--out", str(out_path), "--quiet"], capsys)
        assert code == 0
        code, out1, _ = run_cli(["steady", "--config", config_file], capsys)
        code, out2, _ = run_cli(["steady", "--config", str(out_path)], capsys)
        assert out1 == out2

    def test_out_file_written(self, config_file, tmp_path, capsys):
        out_path = tmp_path / "result.csv"
        code, out, err = run_cli(
            ["steady", "--config", config_file, "--out", str(out_path)], capsys)
        assert code == 0
        assert out == ""
        assert "wrote 1 row(s)" in err
        assert out_path.read_text().startswith("EN,")
