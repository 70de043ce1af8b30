"""Scenario loading, the run/compare pipelines, and process exit codes."""

import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from gpdist.cli import (
    MODELS,
    SCHEMA_VERSION,
    compare_scenario,
    load_scenario,
    main,
    run_scenario,
)
from gpdist.errors import ConfigError


def write_config(tmp_path, payload, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def se_config(**overrides):
    cfg = {
        "schema": SCHEMA_VERSION,
        "model": "spontaneous_emission",
        "params": {"omega": 1.0, "gamma0": 1e-3, "theta": np.pi / 3},
        "outputs": ["moments"],
    }
    cfg.update(overrides)
    return cfg


def joint_config(r_matrix, **overrides):
    cfg = {
        "schema": SCHEMA_VERSION,
        "model": "custom_joint",
        "params": {
            "omega": 1.0,
            "theta": np.pi / 3,
            "reservoir_energies": [0.0, 2.0],
            "reservoir_probs": [0.7, 0.3],
            "couplings": [{"g": 0.1, "r": r_matrix,
                           "s": [[0, 1], [1, 0]]}],
        },
        "grid": {"n_steps": 256},
        "outputs": ["moments"],
    }
    cfg.update(overrides)
    return cfg


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestLoadScenario:
    def test_round_trip(self, tmp_path):
        scn = load_scenario(write_config(tmp_path, se_config()))
        assert scn.model == "spontaneous_emission"
        assert scn.n_steps == 4096
        assert scn.sweep_parameter is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario(str(tmp_path / "nope.yaml"))

    def test_wrong_schema(self, tmp_path):
        with pytest.raises(ConfigError, match="schema"):
            load_scenario(write_config(tmp_path, se_config(schema=99)))

    def test_unknown_model(self, tmp_path):
        with pytest.raises(ConfigError, match="model"):
            load_scenario(write_config(tmp_path, se_config(model="qubit")))
        assert "spontaneous_emission" in MODELS

    def test_unsorted_sweep(self, tmp_path):
        cfg = se_config(sweep={"parameter": "theta", "values": [0.5, 0.1]})
        with pytest.raises(ConfigError, match="sorted"):
            load_scenario(write_config(tmp_path, cfg))

    def test_sweep_requires_fields(self, tmp_path):
        cfg = se_config(sweep={"parameter": "theta"})
        with pytest.raises(ConfigError, match="sweep"):
            load_scenario(write_config(tmp_path, cfg))

    def test_unknown_output(self, tmp_path):
        with pytest.raises(ConfigError, match="output"):
            load_scenario(write_config(tmp_path,
                                       se_config(outputs=["histogram"])))

    def test_custom_lindblad_rejects_gp_outputs(self, tmp_path):
        cfg = {
            "schema": SCHEMA_VERSION,
            "model": "custom_lindblad",
            "params": {"jump_ops": [[[0, 0.1], [0, 0]]]},
            "outputs": ["moments"],
        }
        with pytest.raises(ConfigError, match="custom_lindblad"):
            load_scenario(write_config(tmp_path, cfg))

    def test_bad_n_steps(self, tmp_path):
        with pytest.raises(ConfigError, match="n_steps"):
            load_scenario(write_config(tmp_path,
                                       se_config(grid={"n_steps": 0})))


class TestRunSpontaneousEmission:
    def test_sweep_table(self, tmp_path):
        cfg = se_config(sweep={"parameter": "theta",
                               "values": [np.pi / 6, np.pi / 4, np.pi / 2]})
        scn = load_scenario(write_config(tmp_path, cfg))
        rows = run_scenario(scn, tmp_path, "csv", seed=0)
        assert len(rows) == 3
        table = read_csv(tmp_path / "moments.csv")
        assert len(table) == 3
        for rec in table:
            th = float(rec["theta_rad"])
            beta0 = 2.0 * np.pi * np.sin(th / 2.0) ** 2
            assert float(rec["closed_system_gp_rad"]) == pytest.approx(beta0)
            got = float(rec["mean_gp_z_unwrapped_rad"])
            assert abs(got - beta0) < 0.1  # weak coupling, near closed value

    def test_deterministic_output(self, tmp_path):
        cfg = se_config()
        path = write_config(tmp_path, cfg)
        scn = load_scenario(path)
        run_scenario(scn, tmp_path / "a", "csv", seed=0)
        run_scenario(scn, tmp_path / "b", "csv", seed=0)
        assert (tmp_path / "a" / "moments.csv").read_bytes() \
            == (tmp_path / "b" / "moments.csv").read_bytes()

    def test_json_format(self, tmp_path):
        scn = load_scenario(write_config(tmp_path, se_config()))
        run_scenario(scn, tmp_path, "json", seed=0)
        rows = json.loads((tmp_path / "moments.json").read_text())
        assert len(rows) == 1
        assert "zero_temperature_gp_rad" in rows[0]


class TestRunPhaseDamping:
    def test_atoms_output(self, tmp_path):
        cfg = {
            "schema": SCHEMA_VERSION,
            "model": "phase_damping",
            "params": {"omega": 1.0, "alpha": 1e-2, "theta": np.pi / 4},
            "grid": {"n_steps": 512},
            "outputs": ["moments", "atoms"],
        }
        scn = load_scenario(write_config(tmp_path, cfg))
        run_scenario(scn, tmp_path, "csv", seed=0)
        atoms = read_csv(tmp_path / "atoms.csv")
        assert len(atoms) == 2  # two conditional branches
        weights = [float(a["weight_probability"]) for a in atoms]
        assert sum(weights) == pytest.approx(1.0)
        table = read_csv(tmp_path / "moments.csv")
        assert float(table[0]["spread_w_dimensionless"]) > 0.0


class TestRunCustomLindblad:
    def test_evolution_table(self, tmp_path):
        cfg = {
            "schema": SCHEMA_VERSION,
            "model": "custom_lindblad",
            "params": {"omega": 1.0, "theta": np.pi / 2,
                       "jump_ops": [[[0, 0.1], [0, 0]]]},
            "grid": {"n_steps": 512},
            "outputs": [],
        }
        scn = load_scenario(write_config(tmp_path, cfg))
        rows = run_scenario(scn, tmp_path, "csv", seed=0)
        table = read_csv(tmp_path / "evolution.csv")
        assert len(table) == len(rows)
        for rec in table:
            assert float(rec["trace_dimensionless"]) == pytest.approx(
                1.0, abs=1e-8)
        # ground population grows monotonically under pure decay
        pg = [float(r["population_g_dimensionless"]) for r in table]
        assert pg[-1] > pg[0]


class TestCompare:
    def test_se_sweep_over_temperature(self, tmp_path):
        cfg = se_config(sweep={"parameter": "n_thermal",
                               "values": [0.0, 1.0, 5.0]})
        cfg["params"]["theta"] = np.pi / 2  # second-order term is smallest
        scn = load_scenario(write_config(tmp_path, cfg))
        rows = compare_scenario(scn, tmp_path, "csv")
        table = read_csv(tmp_path / "comparison.csv")
        assert len(table) == 3
        perts = {r["perturbative_gp_unwrapped_rad"] for r in table}
        assert len(perts) == 1  # first order is temperature independent
        for rec in table:
            assert rec["order_violation"] == "false"
            assert float(rec["abs_diff_z_rad"]) \
                <= float(rec["expected_order_rad"])
        assert len(rows) == 3

    def test_pd_columns(self, tmp_path):
        cfg = {
            "schema": SCHEMA_VERSION,
            "model": "phase_damping",
            "params": {"omega": 1.0, "alpha": 1e-3, "theta": np.pi / 4},
            "grid": {"n_steps": 1024},
            "outputs": ["moments"],
        }
        scn = load_scenario(write_config(tmp_path, cfg))
        compare_scenario(scn, tmp_path, "csv")
        rec = read_csv(tmp_path / "comparison.csv")[0]
        assert float(rec["measure_difference_dimensionless"]) > 0.0
        assert float(rec["exact_spread_w_dimensionless"]) > 0.0
        assert "order_violation" in rec

    def test_custom_joint_perturbative(self, tmp_path):
        cfg = joint_config([[0, 1], [1, 0]])
        scn = load_scenario(write_config(tmp_path, cfg))
        compare_scenario(scn, tmp_path, "csv")
        rec = read_csv(tmp_path / "comparison.csv")[0]
        assert abs(float(rec["im_delta_z_dimensionless"])) < 1.0
        assert float(rec["abs_diff_h_dimensionless"]) < 0.1


class TestMain:
    def test_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, se_config())
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
        assert "wrote 1 rows" in capsys.readouterr().out

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, se_config(schema=7))
        assert main(["run", path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_exit_three_names_failing_point(self, tmp_path, capsys):
        # a diagonal reservoir coupling has nonzero diagonal matrix elements
        # in the reservoir eigenbasis, which the perturbative route rejects
        cfg = joint_config([[1, 0], [0, -1]],
                           sweep={"parameter": "theta",
                                  "values": [np.pi / 3]})
        path = write_config(tmp_path, cfg)
        assert main(["compare", path, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "theta" in err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "gpdist" in capsys.readouterr().out

    def test_decomposition_check_output(self, tmp_path):
        cfg = joint_config([[0, 1], [1, 0]])
        cfg["params"]["reservoir_energies"] = [0.0, 2.0, 2.0]
        cfg["params"]["reservoir_probs"] = [0.5, 0.3, 0.2]
        cfg["params"]["couplings"] = [{
            "g": 0.1,
            "r": [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
            "s": [[0, 1], [1, 0]],
        }]
        cfg["outputs"] = ["moments", "decomposition_check"]
        scn = load_scenario(write_config(tmp_path, cfg))
        run_scenario(scn, tmp_path, "csv", seed=0)
        rec = read_csv(tmp_path / "moments.csv")[0]
        z_shift = float(rec["decomposition_shift_mean_z_dimensionless"])
        h_shift = float(rec["decomposition_shift_mean_h_dimensionless"])
        assert z_shift < 1e-9
        assert h_shift > z_shift


def lindblad_config(**overrides):
    cfg = {
        "schema": SCHEMA_VERSION,
        "model": "custom_lindblad",
        "params": {"jump_ops": [[[0, 0.1], [0, 0]]]},
        "grid": {"n_steps": 64},
        "outputs": [],
    }
    cfg.update(overrides)
    return cfg


def with_params(cfg, **params):
    cfg["params"] = {**cfg["params"], **params}
    return cfg


PD = {"schema": SCHEMA_VERSION, "model": "phase_damping",
      "params": {"alpha": 1e-3}, "grid": {"n_steps": 64}}

# Malformed scenarios, each with the field its config error must name.
MALFORMED = {
    "n_steps_text": (se_config(grid={"n_steps": "abc"}), "grid.n_steps"),
    "n_steps_fraction": (se_config(grid={"n_steps": 2.7}), "grid.n_steps"),
    "omega_nan": (with_params(se_config(), omega=float("nan")),
                  "params.omega"),
    "sweep_misspelled": (se_config(sweep={"parameter": "thetta",
                                          "values": [0.1, 0.2]}),
                         "sweep.parameter"),
    "outputs_string": (se_config(outputs="moments"), "outputs"),
    "decomposition_check_se": (
        se_config(outputs=["moments", "decomposition_check"]), "outputs[1]"),
    "decomposition_check_pd": (
        {**PD, "outputs": ["decomposition_check"]}, "outputs[0]"),
    "jump_op_3x3": (
        lindblad_config(params={"jump_ops": [np.eye(3).tolist()]}),
        "params.jump_ops[0]"),
    "coupling_without_r": (
        with_params(joint_config(None),
                    couplings=[{"g": 0.1, "s": [[0, 1], [1, 0]]}]),
        "params.couplings[0].r"),
    "r_wrong_size": (joint_config(np.eye(3).tolist()),
                     "params.couplings[0].r"),
    "r_huge_non_hermitian": (joint_config([[0.0, 1.0e200], [0.0, 0.0]]),
                             "params.couplings"),
    "g_r_overflow": (
        with_params(joint_config(None), couplings=[
            {"g": 1.0e200, "r": [[0.0, 1.0e200], [1.0e200, 0.0]],
             "s": [[0, 1], [1, 0]]}]),
        "params.couplings"),
    "lindblad_sweep": (
        lindblad_config(sweep={"parameter": "theta", "values": [0.1, 0.2]}),
        "sweep"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cfg, field", MALFORMED.values(), ids=MALFORMED)
def test_malformed_scenario_names_field(tmp_path, capsys, cfg, field):
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert f"{field}:" in err
    assert not (tmp_path / "out").exists()


def test_overflowing_coupling_is_non_finite(tmp_path, capsys):
    # g*r is Hermitian but overflows: the error says so, not "not Hermitian"
    cfg, _ = MALFORMED["g_r_overflow"]
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "non-finite" in err and "not Hermitian" not in err


PARAM_NAMES = {
    "spontaneous_emission": ["omega", "gamma0", "n_thermal", "theta"],
    "phase_damping": ["omega", "alpha", "theta"],
    "custom_joint": ["omega", "theta", "reservoir_energies",
                     "reservoir_probs", "couplings"],
    "custom_lindblad": ["omega", "theta", "jump_ops"],
}
NUMBER = st.floats() | st.integers(-3, 64)
JUNK = st.recursive(
    st.none() | st.booleans() | NUMBER | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=6)


def matrix(dim):
    cell = NUMBER | st.lists(NUMBER, min_size=2, max_size=2)
    return st.lists(st.lists(cell, min_size=dim, max_size=dim),
                    min_size=dim, max_size=dim)


REQUIRED_PARAMS = ("reservoir_energies", "reservoir_probs", "couplings",
                      "jump_ops")
PLAUSIBLE = {
    "omega": st.floats(0.5, 2.0),
    "gamma0": st.floats(0.0, 0.1),
    "n_thermal": st.floats(0.0, 2.0),
    "alpha": st.floats(0.0, 0.1),
    "theta": st.floats(0.0, np.pi),
    "reservoir_energies": st.just([0.0, 2.0]),
    "reservoir_probs": st.just([0.7, 0.3]),
    "couplings": st.lists(st.fixed_dictionaries(
        {"r": matrix(2), "s": matrix(2)}, optional={"g": NUMBER}),
        max_size=2),
    "jump_ops": st.lists(matrix(2), max_size=2),
}


def mostly(plausible):
    """``plausible`` five times in six, junk otherwise."""
    return st.sampled_from(range(6)).flatmap(
        lambda i: JUNK if i == 5 else plausible)


@st.composite
def scenario_mappings(draw):
    """Schema field names with mostly plausible values, some junk values and
    now and then a junk key."""
    model = draw(st.sampled_from(sorted(PARAM_NAMES)))
    names = PARAM_NAMES[model]
    kinds = [] if model == "custom_lindblad" else ["moments", "atoms",
                                                   "decomposition_check"]
    params = {n: mostly(PLAUSIBLE[n]) for n in names}
    fields = {
        "schema": mostly(st.just(SCHEMA_VERSION)),
        "model": mostly(st.just(model)),
        "params": mostly(st.fixed_dictionaries(
            {n: v for n, v in params.items() if n in REQUIRED_PARAMS},
            optional={n: v for n, v in params.items()
                      if n not in REQUIRED_PARAMS})),
        "outputs": mostly(st.lists(st.sampled_from(kinds), max_size=2)
                          if kinds else st.just([])),
        # always a mapping with n_steps, so no example runs 4096 steps
        "grid": st.fixed_dictionaries({"n_steps": mostly(st.integers(1, 64))}),
    }
    optional = {
        "sweep": mostly(st.fixed_dictionaries({
            "parameter": mostly(st.sampled_from(names)),
            "values": mostly(st.lists(NUMBER, max_size=3).map(sorted))})),
    }
    cfg = draw(st.fixed_dictionaries(fields, optional=optional))
    junk_key = st.dictionaries(st.text(min_size=1, max_size=4), JUNK,
                               min_size=1, max_size=1)
    return {**draw(st.sampled_from(range(6)).flatmap(
        lambda i: junk_key if i == 5 else st.just({}))), **cfg}


@settings(max_examples=60, deadline=None)
@given(cfg=scenario_mappings(), command=st.sampled_from(["run", "compare"]))
def test_any_mapping_exits_cleanly(cfg, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main([command, str(path), "--out", str(Path(tmp) / "out")]) \
            in (0, 2, 3)
