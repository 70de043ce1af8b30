"""Scenario loading, the run/compare pipelines, and process exit codes."""

import csv
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import yaml
from hypothesis import given, settings, strategies as st

import gpdist
from gpdist.cli import (
    MODELS,
    SCHEMA_VERSION,
    YAML_LOADER,
    YAML_MAX_DEPTH,
    _evolution_rows,
    _nesting_bound,
    _parser,
    _write_rows,
    compare_scenario,
    load_scenario,
    main,
    run_scenario,
)
from gpdist.channels import ReservoirSpec, integrate_lindblad
from gpdist.distribution import decomposition_check
from gpdist.errors import ConfigError, InvalidOperand
from gpdist.models import (PhaseDampingParams, h_system, pd_distribution,
                           pd_first_order_references, pd_moments, psi_initial)
from gpdist.weakcoupling import IM_DZ_WARN


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

    def test_loader_keeps_yaml_11_numbers(self):
        # libyaml must resolve exactly like the pure-Python loader: YAML 1.1
        # reads 1e-3 (no dot) as text, which _number accepts
        text = ("a: 1e-3\nb: 1.0e-3\nc: .inf\nd: 0x10\ne: 1_000\n"
                "f: [-.inf, .NaN, 0o17, 1:30, 1e3, +2]\n")
        got = yaml.load(text, Loader=YAML_LOADER)
        assert repr(got) == repr(yaml.load(text, Loader=yaml.SafeLoader))
        assert got["a"] == "1e-3" and got["b"] == 1e-3
        assert got["c"] == float("inf") and got["d"] == 16
        assert got["e"] == 1000

    def test_large_shallow_file_loads(self, tmp_path, monkeypatch):
        # a d_R = 64 coupling of complex cells in block style, nested 7
        # deep: more collection-opening characters than YAML_MAX_DEPTH, but
        # the line bound clears it without an event pass
        dim = 64
        rng = np.random.default_rng(1)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        r = 0.05 * (a + a.conj().T) * (1.0 - np.eye(dim))
        cfg = joint_config([[[z.real, z.imag] for z in row]
                            for row in r.tolist()])
        cfg["params"].update(reservoir_energies=[float(e) for e in range(dim)],
                             reservoir_probs=[1.0 / dim] * dim)
        path = write_config(tmp_path, cfg)
        text = Path(path).read_text()
        assert sum(map(text.count, "[{-:?")) > YAML_MAX_DEPTH
        assert _nesting_bound(text) <= YAML_MAX_DEPTH

        def no_event_pass(*args, **kwargs):
            raise AssertionError("yaml.parse called")

        monkeypatch.setattr(yaml, "parse", no_event_pass)
        scn = load_scenario(path)
        assert scn.points[0].theta == np.pi / 3


PD_CONFIG = {"schema": SCHEMA_VERSION, "model": "phase_damping",
             "params": {"omega": 1.0, "alpha": 1e-2, "theta": np.pi / 4},
             "outputs": ["moments", "atoms"]}


@pytest.mark.parametrize("command", ["run", "compare"])
def test_gp_error_estimate_column(tmp_path, command):
    # one estimate per point, for the models scored on closed-form paths
    table = "moments.csv" if command == "run" else "comparison.csv"
    joint = joint_config([[0, 1], [1, 0]],
                         sweep={"parameter": "theta", "values": [0.5, 1.5]})
    for name, cfg in (("pd", PD_CONFIG), ("joint", joint),
                      ("se", se_config())):
        out = tmp_path / name
        assert main([command, write_config(tmp_path, cfg, f"{name}.yaml"),
                     "--out", str(out)]) == 0
        rows = read_csv(out / table)
        if name == "se":
            assert "gp_error_estimate_rad" not in rows[0]
            continue
        for rec in rows:
            assert 0.0 <= float(rec["gp_error_estimate_rad"]) <= 1e-12


@pytest.mark.parametrize("command", ["run", "compare"])
def test_grid_does_not_enter_closed_form_models(tmp_path, command):
    for name, cfg in (("pd", PD_CONFIG),
                      ("joint", joint_config([[0, 1], [1, 0]]))):
        tables = []
        for n_steps in (1, 4096):
            path = write_config(tmp_path,
                                {**cfg, "grid": {"n_steps": n_steps}},
                                f"{name}{n_steps}.yaml")
            out = tmp_path / f"{name}{n_steps}"
            assert main([command, path, "--out", str(out)]) == 0
            tables.append({f.name: f.read_bytes() for f in out.glob("*.csv")})
        assert tables[0] == tables[1]


def test_run_and_compare_share_one_evaluation(tmp_path):
    # compare's exact columns come from the evaluation that run writes, so
    # the two tables agree digit for digit, not just to rounding
    thetas = {"parameter": "theta",
              "values": [float(x) for x in np.linspace(0.2, 2.9, 8)]}
    cases = (("pd", {**PD_CONFIG, "sweep": thetas}, "principal"),
             ("joint", joint_config([[0, 1], [1, 0]], sweep=thetas),
              "principal"),
             ("se", se_config(sweep=thetas), "positive_branch"))
    for name, cfg, branch in cases:
        path = write_config(tmp_path, cfg, f"{name}.yaml")
        tables = []
        for command, table in (("run", "moments.csv"),
                               ("compare", "comparison.csv")):
            out = tmp_path / f"{name}_{command}"
            assert main([command, path, "--out", str(out)]) == 0
            tables.append(read_csv(out / table))
        assert len(tables[0]) == len(tables[1]) == 8
        for run, cmp in zip(*tables):
            for measure in "zh":
                assert (run[f"mean_gp_{measure}_{branch}_rad"]
                        == cmp[f"exact_mean_gp_{measure}_{branch}_rad"])
            assert (run.get("gp_error_estimate_rad")
                    == cmp.get("gp_error_estimate_rad"))


@pytest.mark.parametrize("command", ["run", "compare"])
def test_strong_emission_stays_finite(tmp_path, command):
    # gamma_n / omega = 126, where the unreduced closed forms overflow
    cfg = se_config(params={"omega": 1.0, "gamma0": 6, "n_thermal": 10,
                            "theta": 1},
                    outputs=["moments", "atoms"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "out")]) == 0
    for table in (tmp_path / "out").glob("*.csv"):
        for rec in read_csv(table):
            cells = [v for v in rec.values() if v not in ("true", "false")]
            assert np.all(np.isfinite(np.array(cells, float)))


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
            got = float(rec["mean_gp_z_positive_branch_rad"])
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

    @pytest.mark.parametrize("seed", range(4))
    def test_cells_match_per_row_formulas(self, tmp_path, seed):
        # the columns are formed on the whole strided stack; each cell must
        # equal the formula applied to its own row, bit for bit
        rng = np.random.default_rng(seed)
        jumps = 0.2 * (rng.normal(size=(2, 2, 2))
                       + 1j * rng.normal(size=(2, 2, 2)))
        cfg = lindblad_config(grid={"n_steps": 4096}, params={
            "omega": float(rng.uniform(0.9, 1.1)),
            "theta": float(rng.uniform(0.3, 2.8)),
            "jump_ops": [[[[z.real, z.imag] for z in row] for row in jump]
                         for jump in jumps.tolist()]})
        scn = load_scenario(write_config(tmp_path, cfg))
        table = run_scenario(scn, tmp_path, "csv", seed=0)
        expected = evolution_reference(scn.points[0], 4096)
        assert table.shape == (257, 6) and same_bits(table, expected)
        assert read_csv(tmp_path / "evolution.csv") == [
            {k: format(v, ".17g") for k, v in row.items()} for row in expected]

    @pytest.mark.parametrize("n_steps", [300, 1000, 4096])
    def test_last_row_is_at_the_period(self, tmp_path, n_steps):
        # every (n_steps // 256)-th node reaches t = T only where the stride
        # divides n_steps; the last node is added, and no other row moves
        cfg = lindblad_config(grid={"n_steps": n_steps})
        scn = load_scenario(write_config(tmp_path, cfg))
        table = run_scenario(scn, tmp_path, "csv", seed=0)
        p = scn.points[0]
        assert same_bits(table, evolution_reference(p, n_steps))
        assert table[-1, 0] == p.period
        strided = range(0, n_steps + 1, max(1, n_steps // 256))
        assert len(table) == len(strided) + (n_steps == 1000)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n_steps", [300, 1000, 4096])
    def test_written_bytes_match_per_row_reference(self, tmp_path, n_steps,
                                                   fmt):
        # the table is written from the array; the bytes are those of the
        # per-row dicts written by csv.writer and json.dumps
        cfg = lindblad_config(grid={"n_steps": n_steps})
        scn = load_scenario(write_config(tmp_path, cfg))
        run_scenario(scn, tmp_path, fmt, seed=0)
        rows = evolution_reference(scn.points[0], n_steps)
        expected = (csv_bytes(rows) if fmt == "csv" else
                    json.dumps(rows, indent=2, default=float).encode())
        assert (tmp_path / f"evolution.{fmt}").read_bytes() == expected

    def test_first_non_finite_cell_in_row_order_is_named(self, tmp_path,
                                                         monkeypatch):
        # row 3 is non-finite in later columns than row 5, so the column
        # checked first would name another cell than the row checked first
        scn = load_scenario(write_config(tmp_path, lindblad_config()))
        p = scn.points[0]
        psi = psi_initial(p.theta)
        times, rhos = integrate_lindblad(p.model, np.outer(psi, psi.conj()),
                                         p.period, 64)
        rhos[3, 0, 1] = np.inf
        rhos[5, 0, 0] = np.nan
        monkeypatch.setattr("gpdist.cli.integrate_lindblad",
                            lambda *args: (times, rhos))
        with np.errstate(invalid="ignore"):
            key, value = next(
                (k, v) for t, rho in zip(times, rhos)
                for k, v in evolution_cells(t, rho).items()
                if not np.isfinite(v))
            with pytest.raises(InvalidOperand) as exc:
                _evolution_rows(p, 64)
        assert str(exc.value) == f"{key} is {value}"
        assert key != "trace_dimensionless"

    def test_run_peak_does_not_grow_with_the_grid(self, tmp_path):
        # 257 rows at both sizes; the stack of 2**18 nodes would be 16 MiB
        peaks = []
        for n in (16384, 2**18):
            scn = load_scenario(write_config(tmp_path, lindblad_config(
                grid={"n_steps": n})))
            run_scenario(scn, tmp_path, "csv", seed=0)  # first-call allocations
            tracemalloc.start()
            try:
                assert len(run_scenario(scn, tmp_path, "csv", seed=0)) == 257
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 16 * 1024

    def test_rows_hold_no_second_stack(self, tmp_path):
        n = 16384
        cfg = lindblad_config(grid={"n_steps": n})
        p = load_scenario(write_config(tmp_path, cfg)).points[0]
        _evolution_rows(p, n)  # first-call allocations
        tracemalloc.start()
        try:
            _evolution_rows(p, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack = (n + 1) * 4 * np.dtype(complex).itemsize
        assert peak <= stack + 64 * 1024

    def test_run_holds_no_row_objects(self, tmp_path):
        # a 257-row run peaked at 69 KB, against 176 KB when the table was
        # expanded into one dict of Python floats per row
        scn = load_scenario(write_config(tmp_path, lindblad_config(
            grid={"n_steps": 4096})))
        run_scenario(scn, tmp_path, "csv", seed=0)  # first-call allocations
        tracemalloc.start()
        try:
            assert len(run_scenario(scn, tmp_path, "csv", seed=0)) == 257
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 112 * 1024


def reference_cell(x) -> str:
    """A CSV cell as the tables have always written it."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


WRITER_ROWS = [
    {"flag": True, "np_flag": np.bool_(False), "count": 3,
     "np_count": np.int64(-7), "x": 0.1, "np_x": np.float64(1.0 / 3.0),
     "name": 'a,b "c"'},
    {"flag": False, "np_flag": np.bool_(True), "count": 0,
     "np_count": np.int64(2**40), "x": -0.0, "np_x": np.float32(0.1),
     "extra": 1e300},
    {"x": 5e-324, "name": "plain"},
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_bytes(tmp_path, fmt):
    _write_rows(WRITER_ROWS, tmp_path / "table", fmt)
    if fmt == "csv":
        header = list(dict.fromkeys(k for row in WRITER_ROWS for k in row))
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in WRITER_ROWS:
            writer.writerow([reference_cell(row.get(k, "")) for k in header])
        expected = buf.getvalue()
        assert expected.splitlines(keepends=True)[1] == (
            'true,false,3,-7,0.10000000000000001,0.33333333333333331,'
            '"a,b ""c""",\r\n')
    else:
        expected = json.dumps(WRITER_ROWS, indent=2, default=float)
    assert (tmp_path / f"table.{fmt}").read_bytes() == expected.encode()


def test_json_rows_leave_no_cyclic_garbage(tmp_path):
    # json.dumps(indent=...) runs the pure-Python encoder, whose nested
    # closures leave cycles for the collector on every call
    rows = [dict(WRITER_ROWS[0], x=0.1 * i) for i in range(100)]
    _write_rows(rows, tmp_path / "table", "json")  # first-call
    gc.collect()
    gc.disable()
    try:
        _write_rows(rows, tmp_path / "table", "json")
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0


def csv_bytes(rows) -> bytes:
    """The table as csv.writer writes it, cells as reference_cell forms
    them."""
    header = list(dict.fromkeys(k for row in rows for k in row))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([reference_cell(row.get(k, "")) for k in header])
    return buf.getvalue().encode()


@pytest.mark.parametrize("cell", [
    "a\rb", "a\nb", "\r\n", 'say "hi"', '"', '""', "a,b", ",", " ", "",
    "  two  spaces  ", "'", "tab\there", "plain"])
def test_writer_quotes_as_csv_does(tmp_path, cell):
    # the cell also names a column, so the header is quoted the same way
    rows = [{"x": 0.5, f"key {cell}": cell, "n": 2}, {"x": -1e-300}]
    _write_rows(rows, tmp_path / "table", "csv")
    assert (tmp_path / "table.csv").read_bytes() == csv_bytes(rows)


def test_writer_quotes_a_lone_empty_cell(tmp_path):
    # one column and a row without it: csv writes "" for the empty record
    rows = [{"x": 1.0}, {}, {"x": 2}]
    _write_rows(rows, tmp_path / "table", "csv")
    assert (tmp_path / "table.csv").read_bytes() == csv_bytes(rows)
    assert csv_bytes(rows) == b'x\r\n1\r\n""\r\n2\r\n'


def test_one_row_table_peaks_below_16_kib(tmp_path):
    # csv.writer's record buffer alone was 128 KiB, whatever the row
    rows = [{"x": 0.1, "n": 3, "name": "a"}]
    _write_rows(rows, tmp_path / "first", "csv")  # first-call allocations
    tracemalloc.start()
    try:
        _write_rows(rows, tmp_path / "table", "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024


class TestCompare:
    def test_se_sweep_over_temperature(self, tmp_path):
        cfg = se_config(sweep={"parameter": "n_thermal",
                               "values": [0.0, 1.0, 5.0]})
        cfg["params"]["theta"] = np.pi / 2  # second-order term is smallest
        scn = load_scenario(write_config(tmp_path, cfg))
        rows = compare_scenario(scn, tmp_path, "csv")
        table = read_csv(tmp_path / "comparison.csv")
        assert len(table) == 3
        perts = {r["perturbative_gp_positive_branch_rad"] for r in table}
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

    def test_pd_cells_are_the_acceptance_values(self, tmp_path):
        # at criterion 5's points the compare table carries, bit for bit,
        # the library values that criteria 5 and 6 score
        thetas = [np.pi / 4, np.pi / 2]
        cfg = {"schema": SCHEMA_VERSION, "model": "phase_damping",
               "params": {"omega": 1.0, "alpha": 1e-3},
               "sweep": {"parameter": "theta", "values": thetas}}
        path = write_config(tmp_path, cfg)
        assert main(["compare", path, "--out", str(tmp_path)]) == 0
        table = read_csv(tmp_path / "comparison.csv")
        assert [float(rec["theta_rad"]) for rec in table] == thetas
        for theta, rec in zip(thetas, table):
            p = PhaseDampingParams(omega=1.0, alpha=1e-3, theta=theta)
            m = pd_moments(p)
            assert float(rec["exact_mean_gp_h_principal_rad"]) == float(
                np.angle(m.mean_gp_h))
            assert float(rec["exact_spread_w_dimensionless"]) == m.spread_w
            assert float(rec["ref_spread_w_dimensionless"]) == \
                pd_first_order_references(p)[2]
            assert float(rec["gp_error_estimate_rad"]) == \
                pd_distribution(p).error_estimate

    @pytest.mark.parametrize("model, rate", [
        ("spontaneous_emission", "gamma0"), ("phase_damping", "alpha")])
    def test_zero_rate_is_no_order_violation(self, tmp_path, model, rate):
        # at rate 0 the expected order is 0, and exact and first-order sides
        # differ only by rounding, which is no violation
        cfg = {
            "schema": SCHEMA_VERSION,
            "model": model,
            "params": {"omega": 1.0, rate: 0.0},
            "sweep": {"parameter": "theta",
                      "values": [0.3, 0.9, 1.5, 2.1, 2.7]},
            "outputs": ["moments"],
        }
        compare_scenario(load_scenario(write_config(tmp_path, cfg)),
                         tmp_path, "csv")
        table = read_csv(tmp_path / "comparison.csv")
        assert [rec["order_violation"] for rec in table] == ["false"] * 5

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
        # one grid step is the smallest documented grid
        pd = {"schema": SCHEMA_VERSION, "model": "phase_damping",
              "params": {"omega": 1.0, "alpha": 1e-3, "theta": np.pi / 4}}
        for name, cfg in (("pd", pd), ("joint", joint_config([[0, 1],
                                                               [1, 0]]))):
            cfg["grid"] = {"n_steps": 1}
            path = write_config(tmp_path, cfg, f"{name}.yaml")
            for command in ("run", "compare"):
                out = tmp_path / f"{name}_{command}"
                assert main([command, path, "--out", str(out)]) == 0
                for table in out.glob("*.csv"):
                    for rec in read_csv(table):
                        cells = [v for v in rec.values()
                                 if v not in ("true", "false")]
                        assert np.all(np.isfinite(np.array(cells, float)))

    def test_unpopulated_state_adds_no_atom(self, tmp_path):
        # |e,1> is resonant with |g,0>: the path of the unpopulated state
        # swaps out completely at T, and its zero weight drops it
        cfg = joint_config([[0, 1], [1, 0]], outputs=["moments", "atoms"])
        cfg["params"].update(theta=0.0, reservoir_energies=[0.0, 1.0],
                             reservoir_probs=[1.0, 0.0])
        cfg["params"]["couplings"][0]["g"] = 0.25
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
        atoms = read_csv(tmp_path / "out" / "atoms.csv")
        assert [a["weight_probability"] for a in atoms] == ["1"]

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

    def test_unusable_out_exits_two_naming_it(self, tmp_path, capsys,
                                              monkeypatch):
        # --out names an existing file, or a path below one; that is found
        # before any point is computed
        def no_numerics(*args):
            raise AssertionError("a point was computed")

        monkeypatch.setitem(MODELS, "phase_damping", replace(
            MODELS["phase_damping"], distribution=no_numerics))
        path = write_config(tmp_path, PD)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        for command in ("run", "compare"):
            for out in (blocker, blocker / "sub"):
                assert main([command, path, "--out", str(out)]) == 2
                err = capsys.readouterr().err
                assert err.startswith(f"output error: {out}: ")
                assert err.count("\n") == 1 and "Traceback" not in err

    def test_any_grid_length_runs(self, tmp_path, capsys):
        # the integrator's time and memory are those of the kept nodes, so
        # no grid is too long: 2**32 + 1 steps keep node n on its own
        for n, rows in ((2**32 + 1, 258), (10**15, 257)):
            out = tmp_path / str(n)
            path = write_config(tmp_path, lindblad_config(
                grid={"n_steps": n}))
            assert main(["run", path, "--out", str(out)]) == 0
            table = read_csv(out / "evolution.csv")
            assert len(table) == rows
            assert float(table[-1]["time_inverse_omega"]) == 2.0 * np.pi
        assert capsys.readouterr().err == ""

    def test_parser_is_built_once_and_each_call_parses_its_own(
            self, tmp_path, capsys):
        path = write_config(tmp_path, se_config())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", path, "--out", str(a), "--format", "json",
                     "--seed", "3"]) == 0
        assert main(["compare", path, "--out", str(b)]) == 0
        assert os.listdir(a) == ["moments.json"]
        assert os.listdir(b) == ["comparison.csv"]
        assert capsys.readouterr().out == (f"run: wrote 1 rows to {a}\n"
                                           f"compare: wrote 1 rows to {b}\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", path, "--seed", "-1", "--out", str(b)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --seed: must be >= 0, got -1\n")
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == (
            f"gpdist {gpdist.__version__} (config schema {SCHEMA_VERSION})\n")
        assert _parser() is _parser()
        # built on the first call, not at import
        code = ("import gpdist.cli as cli; "
                "print(cli._parser.cache_info().currsize)")
        done = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(
                                  [str(Path(gpdist.__file__).parents[1])]
                                  + sys.path)})
        assert done.stdout == "0\n"

    @staticmethod
    def breach_guard(tmp_path, capsys, action):
        """``compare`` on a g = 0.6 theta sweep, two of whose points breach
        the Im<DeltaZ> guard, under the warning filter ``action``; returns
        the stderr lines and the two expected ones."""
        thetas = [0.5, 1.0, 2.0]
        cfg = joint_config([[0, 1], [1, 0]], sweep={"parameter": "theta",
                                                    "values": thetas})
        cfg["params"]["couplings"][0]["g"] = 0.6
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            assert main(["compare", path, "--out", str(tmp_path)]) == 0
        assert caught == []  # printed by the CLI, not left to Python
        ims = [float(r["im_delta_z_dimensionless"])
               for r in read_csv(tmp_path / "comparison.csv")]
        expected = [f"warning: sweep point theta = {t!r}: Im<DeltaZ> = "
                    f"{im:.3g} exceeds the perturbative guard ({IM_DZ_WARN}); "
                    "the expansion may be unreliable"
                    for t, im in zip(thetas, ims) if abs(im) > IM_DZ_WARN]
        assert len(expected) == 2
        return capsys.readouterr().err.splitlines(), expected

    def test_im_delta_z_warning_is_one_line_naming_the_point(self, tmp_path,
                                                             capsys):
        err, expected = self.breach_guard(tmp_path, capsys, "always")
        assert err == expected

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_im_delta_z_warning_whatever_the_filter(self, tmp_path, capsys,
                                                    action):
        # the CLI records the warning itself, so a filter that raises or
        # drops warnings changes neither the exit code nor the line
        err, expected = self.breach_guard(tmp_path, capsys, action)
        assert err == expected

    def test_strong_dephasing_grid_exits_zero(self, tmp_path, capsys):
        # dephasing 5 sigma_z on 64 steps, on which classical RK4 would
        # amplify the coherences: |rho_01| = e^{-100 t} / 2 at every row
        path = write_config(tmp_path, lindblad_config(params={
            "omega": 1.0, "theta": np.pi / 2,
            "jump_ops": [[[5, 0], [0, -5]]]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
        assert caught == [] and capsys.readouterr().err == ""
        rows = read_csv(tmp_path / "out" / "evolution.csv")
        t, coherence = (np.array([float(r[k]) for r in rows]) for k in (
            "time_inverse_omega", "coherence_abs_dimensionless"))
        assert len(rows) == 65
        np.testing.assert_allclose(coherence, 0.5 * np.exp(-100.0 * t),
                                   rtol=1e-12, atol=0.0)

    def test_bad_seed_exits_two_before_numerics(self, tmp_path, capsys):
        joint = joint_config([[0, 1], [1, 0]],
                             outputs=["moments", "decomposition_check"])
        for name, cfg in (("se", se_config()), ("joint", joint)):
            path = write_config(tmp_path, cfg, f"{name}.yaml")
            for seed in ("-1", "1.5"):
                with pytest.raises(SystemExit) as exc:
                    main(["run", path, "--seed", seed,
                          "--out", str(tmp_path / "out")])
                assert exc.value.code == 2
                assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("seed", [0, 7])
    def test_decomposition_check_reads_the_final_propagator(self, tmp_path,
                                                            seed):
        # both shift columns are decomposition_check on scipy's expm(-i H T).
        # The Z shift is a trace identity, near 0 for any U, so the H shift
        # carries the check: U at T/2 moves it.  No column can tell U from
        # U^dag, which only conjugates every member's first moment.
        r = np.array([[0, 1 + 0.5j, 0], [1 - 0.5j, 0, 1j], [0, -1j, 0]])
        energies, probs, omega = [0.0, 2.0, 2.0], [0.5, 0.3, 0.2], 1.3
        cfg = joint_config([[[float(z.real), float(z.imag)] for z in row]
                            for row in r],
                           sweep={"parameter": "theta", "values": [0.4, 2.3]},
                           outputs=["moments", "decomposition_check"])
        with_params(cfg, omega=omega, reservoir_energies=energies,
                    reservoir_probs=probs)
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out),
                     "--seed", str(seed)]) == 0
        h = (np.kron(h_system(omega), np.eye(3))
             + np.kron(np.eye(2), np.diag(energies))
             - np.kron([[0, 1], [1, 0]], 0.1 * r))
        res = ReservoirSpec(probs=probs, states=np.eye(3, dtype=complex),
                            energies=energies)
        period = 2.0 * np.pi / omega
        for rec, theta in zip(read_csv(out / "moments.csv"), [0.4, 2.3]):
            got = np.array([
                float(rec["decomposition_shift_mean_z_dimensionless"]),
                float(rec["decomposition_shift_mean_h_dimensionless"])])

            def shifts(t):
                return np.array(decomposition_check(
                    res, psi_initial(theta), scipy.linalg.expm(-1j * h * t),
                    seed))

            assert np.abs(got - shifts(period)).max() <= 1e-10
            assert np.abs(got - shifts(-period)).max() <= 1e-10
            assert abs(got[1] - shifts(period / 2)[1]) > 1e-4

    def test_unpopulated_block_is_not_redecomposed(self, tmp_path):
        # the degenerate pair carries no weight, so no member can be mixed
        cfg = joint_config([[0, 1, 0], [1, 0, 1], [0, 1, 0]],
                           outputs=["moments", "decomposition_check"])
        cfg["params"]["reservoir_energies"] = [0.0, 1.0, 1.0]
        cfg["params"]["reservoir_probs"] = [1.0, 0.0, 0.0]
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out",
                     str(out)]) == 0
        rec = read_csv(out / "moments.csv")[0]
        assert rec["decomposition_shift_mean_z_dimensionless"] == "0"
        assert rec["decomposition_shift_mean_h_dimensionless"] == "0"


JOINT_SWEEPS = {"theta": [0.4, 1.1, 2.3], "omega": [0.9, 1.2]}


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("key", sorted(JOINT_SWEEPS))
def test_sweep_cells_match_single_points(tmp_path, command, key):
    # the work a point shares with its omega neighbours is done once per
    # omega; every cell equals that of the point run on its own, bit for bit
    cfg = joint_config([[0, 1, 0], [1, 0, 1], [0, 1, 0]],
                       outputs=["moments", "atoms", "decomposition_check"])
    with_params(cfg, reservoir_energies=[0.0, 1.0, 1.0],
                reservoir_probs=[0.5, 0.3, 0.2])
    values = JOINT_SWEEPS[key]

    def tables(name, cfg):
        out = tmp_path / name
        assert main([command, write_config(tmp_path, cfg, f"{name}.yaml"),
                     "--out", str(out), "--seed", "5"]) == 0
        return {f.name: read_csv(f) for f in out.glob("*.csv")}

    swept = tables("sweep", {**cfg, "sweep": {"parameter": key,
                                              "values": values}})
    singles = [tables(f"single{i}", with_params(dict(cfg), **{key: v}))
               for i, v in enumerate(values)]
    assert sorted(swept) == sorted(singles[0])
    for name, rows in swept.items():
        if name == "atoms.csv":  # a sweep's atoms lead with the swept value
            assert [float(r.pop(key)) for r in rows] == [
                v for v, s in zip(values, singles) for _ in s[name]]
        assert rows == [r for s in singles for r in s[name]]


def test_rcond_violation_on_sweep_names_first_point(tmp_path, capsys):
    cfg = joint_config([[1, 0], [0, -1]], sweep={"parameter": "theta",
                                                 "values": [0.4, 1.1, 2.3]})
    assert main(["compare", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure at sweep point theta = 0.4: RCondViolated: ")


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


def evolution_cells(t, rho) -> dict:
    """One evolution.csv row by the per-row formulas."""
    return {
        "time_inverse_omega": float(t),
        "trace_dimensionless": float(np.trace(rho).real),
        "purity_dimensionless": float(np.trace(rho @ rho).real),
        "population_g_dimensionless": float(rho[0, 0].real),
        "population_e_dimensionless": float(rho[1, 1].real),
        "coherence_abs_dimensionless": float(abs(rho[0, 1])),
    }


def evolution_reference(p, n_steps) -> list[dict]:
    """evolution.csv's rows by the per-row formulas on the integrator's
    nodes at the CLI's stride: every (n_steps // 256)-th node, and node
    n_steps."""
    psi = psi_initial(p.theta)
    every = max(1, n_steps // 256)
    _, rhos = integrate_lindblad(p.model, np.outer(psi, psi.conj()),
                                 p.period, n_steps, every)
    times = np.linspace(0.0, p.period, n_steps + 1)
    nodes = list(range(0, n_steps, every)) + [n_steps]
    return [evolution_cells(times[i], rho)
            for i, rho in zip(nodes, rhos, strict=True)]


def same_bits(table, rows) -> bool:
    """The array holds exactly the rows' cells, bit for bit."""
    expected = np.array([list(row.values()) for row in rows])
    return (table.shape == expected.shape
            and table.tobytes() == expected.tobytes())


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
    "omega_zero": (with_params(se_config(), omega=0), "params.omega"),
    # 2 pi / omega overflows: no model can reach the end of the period
    "omega_period_overflows_se": (
        with_params(se_config(), omega=1e-320, gamma0=0.0), "params.omega"),
    "omega_period_overflows_pd": (
        with_params(dict(PD), omega=1e-320), "params.omega"),
    "omega_period_overflows_joint": (
        with_params(joint_config([[0, 1], [1, 0]]), omega=1e-320),
        "params.omega"),
    "omega_period_overflows_lindblad": (
        with_params(lindblad_config(), omega=1e-320), "params.omega"),
    "omega_sweep_period_overflows": (
        {**PD, "sweep": {"parameter": "omega", "values": [1e-320, 1.0]}},
        "sweep.values[0]"),
    "alpha_negative": ({**PD, "params": {"alpha": -0.1}}, "params.alpha"),
    "theta_past_pi": (se_config(sweep={"parameter": "theta",
                                       "values": [1.0, 4.0]}),
                      "sweep.values[1]"),
    "probs_not_normalised": (
        with_params(joint_config([[0, 1], [1, 0]]), reservoir_probs=[0.7, 0.4]),
        "params.reservoir_probs"),
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
    "r_non_hermitian_omega_sweep": (
        joint_config([[0.0, 1.0], [0.0, 0.0]],
                     sweep={"parameter": "omega", "values": [0.9, 1.1]}),
        "params.couplings"),
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


# Values nested deeper than repr can follow, each with the field its config
# error must name.  yaml.safe_dump cannot emit them, so the text is written
# directly.
DEEP = "[" * 3000 + "]" * 3000
DEEPLY_NESTED = {
    "omega": (f"model: phase_damping\nparams: {{omega: {DEEP}}}",
              "params.omega"),
    "coupling_cell": (f"""model: custom_joint
params:
  reservoir_energies: [0.0, 1.0]
  reservoir_probs: [0.5, 0.5]
  couplings:
    - {{r: [[{DEEP}, 1], [1, 0]], s: [[0, 1], [1, 0]]}}""",
                      "params.couplings[0].r"),
    "sweep_value": (f"model: phase_damping\n"
                    f"sweep: {{parameter: theta, values: [{DEEP}]}}",
                    "sweep.values[0]"),
}


def write_deep(tmp_path, body: str) -> str:
    path = tmp_path / "deep.yaml"
    path.write_text(f"schema: {SCHEMA_VERSION}\n{body}\n")
    return str(path)


@pytest.mark.parametrize("body, field", DEEPLY_NESTED.values(),
                         ids=DEEPLY_NESTED)
def test_deeply_nested_value_names_field(tmp_path, capsys, body, field):
    path = write_deep(tmp_path, body)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}")
    assert err.count("\n") == 1 and len(err) < 200


def test_deeply_nested_value_with_python_loader(tmp_path, capsys,
                                                monkeypatch):
    # the pure-Python loader recurses while it composes the nodes
    monkeypatch.setattr("gpdist.cli.YAML_LOADER", yaml.SafeLoader)
    path = write_deep(tmp_path, DEEPLY_NESTED["omega"][0])
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: YAML parse error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value, brk", [
    ("[" * 50000 + "1" + "]" * 50000, "\n"), ("- " * 50000 + "1", "\n"),
    ("? a\n    : " + "- " * 50000 + "1", "\n"),
    ("- " * 50000 + "1", "\u2028")],
    ids=["flow", "block", "explicit_value", "line_separators"])
def test_nesting_past_the_libyaml_stack_exits_2(tmp_path, value, brk):
    # libyaml's composer would overflow the C stack and kill the process,
    # so the run goes in a subprocess.  A compact sequence after an
    # explicit value's ":" and lines that only U+2028 breaks must both
    # reach the line bound
    path = write_deep(tmp_path, f"model: phase_damping\nparams:\n  omega:\n"
                                f"    {value}".replace("\n", brk))
    proc = subprocess.run(
        [sys.executable, "-m", "gpdist.cli", "run", path, "--out",
         str(tmp_path / "out")], capture_output=True, text=True,
        env={**os.environ,
             "PYTHONPATH": str(Path(gpdist.__file__).parents[1])})
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: ")
    assert proc.stderr.count("\n") == 1


def event_depth(text: str) -> int:
    """How deep libyaml's events nest the collections of ``text``, up to
    its first parse error."""
    depth = deepest = 0
    try:
        for event in yaml.parse(text, Loader=YAML_LOADER):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                deepest = max(deepest, depth)
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
    except yaml.YAMLError:
        pass
    return deepest


@pytest.mark.parametrize("text", [
    "- - - - x", "? - - - x", "? a\n: - - - - x", "[a: [b: [c: d]]]",
    "a:\n- b:\n  - c:\n    - d", "\ufeff- - - x", "-\r -\r  -\r   - x",
    "-\u2028 -\u2028  - x", "{a: [b, {c: [d]}]}"])
def test_nesting_bound_on_compact_forms(text):
    assert _nesting_bound(text) >= event_depth(text) >= 3


YAML_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4) | st.just("k" * 130),  # 130: an explicit "? " key
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=3) | st.just("k" * 130), inner, max_size=3),
    max_leaves=12)
YAML_PIECES = st.lists(st.sampled_from(
    ["- ", "? ", ": ", "-", " ", "  ", "\n", "\r", "[", "]", "{", "}", ",",
     "a", "\t", "#", "&x ", "\ufeff", "\u2028"]), max_size=40).map("".join)


@settings(max_examples=300, deadline=None)
@given(dumped=st.tuples(YAML_VALUES, st.sampled_from([True, False, None]),
                        st.integers(2, 9),
                        st.sampled_from(["\n", "\r", "\r\n", "\u2028"])),
       pieces=YAML_PIECES)
def test_nesting_bound_holds(dumped, pieces):
    # block, flow and mixed dumps at any indent and line break, and texts
    # of indicators, valid or not: the events before an error count too
    value, flow, indent, brk = dumped
    text = yaml.safe_dump(value, default_flow_style=flow,
                          indent=indent).replace("\n", brk)
    for t in (text, pieces):
        assert _nesting_bound(t) >= event_depth(t)


# A key given twice in one mapping, which PyYAML would resolve to the last
# value; yaml.safe_dump cannot emit it, so the text is written directly.
PD_TEXT = "schema: 1\nmodel: phase_damping\n"
JOINT_PARAMS = """params:
  reservoir_energies: [0.0, 1.0]
  reservoir_probs: [0.5, 0.5]
  couplings:
  - g: 0.1
    r: [[0, 1], [1, 0]]
    s: [[0, 1], [1, 0]]
"""
REPEATED_KEYS = {
    "params.theta": (PD_TEXT + "params:\n  theta: 0.5\n  theta: 2.0\n",
                     "theta", 5),
    "model": ("schema: 1\nmodel: custom_joint\nmodel: phase_damping\n",
              "model", 3),
    "couplings[0].g": ("schema: 1\nmodel: custom_joint\n" + JOINT_PARAMS
                       + "    g: 0.2\n", "g", 10),
    "flow": (PD_TEXT + "params: {omega: 2.0, alpha: 0.01, omega: 1.0}\n",
             "omega", 3),
}


@pytest.mark.parametrize("text, key, line", REPEATED_KEYS.values(),
                         ids=REPEATED_KEYS)
def test_repeated_key_exits_2(tmp_path, capsys, text, key, line):
    path = tmp_path / "scenario.yaml"
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: {path}: YAML parse error: line {line}: "
                   f"repeated key '{key}'\n")


def test_merge_keys_stay_legal(tmp_path):
    # explicit keys override merged ones, and merged mappings may overlap
    path = tmp_path / "scenario.yaml"
    path.write_text(PD_TEXT + "params:\n  <<: [{omega: 2.0, alpha: 0.01}, "
                    "{omega: 3.0}]\n  omega: 1.5\n")
    scn = load_scenario(str(path))
    assert (scn.points[0].omega, scn.points[0].alpha) == (1.5, 0.01)


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
