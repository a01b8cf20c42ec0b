import json
from pathlib import Path

import numpy as np
import pytest

from mhdstab.cli import main, write_csv

GAS = {"kind": "ideal-gas", "R": 1.0, "c_v": 1.5}
SMALL_GRID = {"n_phi": 3, "n_sphere": 40, "equator_refine": 2}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


def run(args):
    return main(args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------------
# speeds
# ----------------------------------------------------------------------------

def test_speeds_command(tmp_path):
    cfg = write_config(tmp_path, {
        "eos": GAS,
        "states": [{"rho": 1.0, "u": [0, 0, 0], "theta": 1.0, "B": [1, 0, 0]}],
        "frequencies": [[0, 1, 0], [1, 0, 0]],
    })
    out = tmp_path / "out"
    assert run(["speeds", "--config", cfg, "--out", str(out),
                "--dump-symbols"]) == 0
    lines = (out / "speeds.csv").read_text().splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    # xi = (0,1,0), B = (1,0,0): a = 0, b = h = 1, c_f^2 = c0^2 + 1
    assert float(row["a"]) == 0.0
    assert abs(float(row["b"]) - 1.0) < 1e-14
    assert abs(float(row["c_f"])**2 - (5.0 / 3.0 + 1.0)) < 1e-13
    sym_lines = (out / "symbols.csv").read_text().splitlines()
    assert len(sym_lines) == 3 and len(sym_lines[0].split(",")) == 2 + 64


def test_csv_numbers_round_trip(tmp_path):
    cfg = write_config(tmp_path, {
        "eos": GAS,
        "states": [{"rho": 0.123456789012345678, "u": [0, 0, 0],
                    "theta": 3.7e-3, "B": [0, 0, 0]}],
        "frequencies": [[0.0, 0.0, 1.0]],
    })
    out = tmp_path / "out"
    assert run(["speeds", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "speeds.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    # 17 significant digits reproduce the doubles exactly
    assert float(row["rho"]) == 0.123456789012345678
    assert float(row["theta"]) == 3.7e-3


def test_write_csv_formats_every_value_as_the_per_type_reference(tmp_path):
    # floats to 17 significant digits, signed zero and non-finite values
    # included, integers of either kind as str
    rows = [[-0.0, float("nan"), float("inf"), -float("inf")],
            [5e-324, 0.1 + 0.2, 7, np.int64(-123456789)],
            [np.float64(1.0) / 3.0, np.float64(-2.5e300), 2**53 - 1, np.int64(0)]]
    path = tmp_path / "rows.csv"
    write_csv(path, ["a", "b", "c", "d"], rows)

    def ref(v):
        return f"{float(v):.17g}" if isinstance(v, float) else str(v)

    expected = "a,b,c,d\n" + "".join(",".join(map(ref, row)) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode()


# ----------------------------------------------------------------------------
# classify
# ----------------------------------------------------------------------------

def test_classify_command_covers_all_cases(tmp_path):
    cfg = write_config(tmp_path, {
        "eos": GAS,
        "states": [{"rho": 1.0, "u": [0, 0, 0], "theta": 1.0, "B": [1, 0, 0]}],
        "frequencies": [[1, 0, 0], [0, 1, 0], [1, 1, 0]],
        "boundary": {"axis": 3, "sigma": 0.5},
    })
    out = tmp_path / "out"
    assert run(["classify", "--config", cfg, "--out", str(out)]) == 0
    data = read_json(out / "classify.json")
    assert data["schema_version"] == 1
    assert data["n_errors"] == 0
    cases = [r["regime"]["case"] for r in data["records"]]
    assert sorted(cases) == ["a", "b", "c"]
    for rec in data["records"]:
        assert sum(r["mult"] for r in rec["roots"]) == 8
        assert rec["error"] is None


def test_classify_missing_boundary_is_per_point_error(tmp_path):
    cfg = write_config(tmp_path, {
        "eos": GAS,
        "states": [{"rho": 1.0, "u": [0, 0, 0], "theta": 1.0, "B": [1, 0, 0]}],
        "frequencies": [[1, 0, 0]],
    })
    out = tmp_path / "out"
    assert run(["classify", "--config", cfg, "--out", str(out)]) == 1
    data = read_json(out / "classify.json")
    assert data["n_errors"] == 1
    assert data["records"][0]["error"]["type"] == "MissingBoundary"


def test_classify_empty_states_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "eos": GAS, "states": [], "frequencies": [[0, 0, 1]],
    })
    assert run(["classify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "states" in capsys.readouterr().err


def test_invalid_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"eos": \n oops}')
    assert run(["classify", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


# ----------------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------------

def scan_config(op_kind="frozen-complement"):
    boundary = {
        "state": {"rho": 1.0, "u": [0.2, -0.1, 0.9], "theta": 1.0,
                  "B": [0.3, 0.1, 0.2]},
        "axis": 3,
    }
    if op_kind == "frozen-complement":
        boundary["operator"] = {
            "kind": "frozen-complement",
            "at": {"tau": 0.3, "gamma_L": 0.5, "eta": [0.4, -0.1]},
        }
    return {"eos": GAS, "grid": SMALL_GRID, "boundary": boundary}


def test_scan_command_boundary(tmp_path):
    cfg = write_config(tmp_path, scan_config())
    out = tmp_path / "out"
    assert run(["scan", "--config", cfg, "--out", str(out)]) == 0
    data = read_json(out / "scan.json")
    assert data["min_abs_D"] > 0.0
    assert data["expected_dim_Eminus"] == 7
    csv_lines = (out / "scan.csv").read_text().splitlines()
    assert csv_lines[0] == "tau,gamma_L,eta1,eta2,abs_D,dim_Eminus"
    assert len(csv_lines) == 1 + data["n_rows"]


def test_scan_missing_boundary_and_shock(tmp_path, capsys):
    cfg = write_config(tmp_path, {"eos": GAS, "grid": SMALL_GRID})
    assert run(["scan", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "boundary" in capsys.readouterr().err


def test_scan_shock_with_refinement(tmp_path):
    cfg = write_config(tmp_path, {
        "eos": GAS,
        "grid": SMALL_GRID,
        "shock": {
            "upstream": {"rho": 1.0, "u": [0, 0, 0], "theta": 1.0,
                         "B": [0.01, 0, 0]},
            "family": "fast", "mach": 2.0, "axis": 3,
        },
    })
    out = tmp_path / "out"
    assert run(["scan", "--config", cfg, "--out", str(out), "--refine", "2"]) == 0
    data = read_json(out / "scan.json")
    ref = data["refinement"]
    assert ref["factor"] == 2
    assert ref["converged"] is True
    assert (out / "scan_refined.csv").exists()


def test_scan_allow_partial_with_failing_operator(tmp_path):
    # rank-deficient operator: every grid point records a failure
    cfg_dict = scan_config(op_kind=None)
    rows = [[[1.0, 0.0]] * 8] + [[[0.0, 0.0]] * 8] * 6
    cfg_dict["boundary"]["operator"] = {"kind": "matrix", "rows": rows}
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run(["scan", "--config", cfg, "--out", str(out)]) == 1
    data = read_json(out / "scan.json")
    assert data["n_rows"] == 0
    assert all(f["type"] == "RankDeficiency" for f in data["failures"])
    assert run(["scan", "--config", cfg, "--out", str(out),
                "--allow-partial"]) == 0


@pytest.mark.parametrize("name", ["scan_shock.json", "scan_boundary.json"])
def test_shipped_scan_configs_need_no_fallback(tmp_path, name):
    # every row of the shipped scans takes the batched path, and the count
    # leaves the output byte-identical between runs
    cfg = str(Path(__file__).resolve().parents[1] / "configs" / name)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["scan", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["scan", "--config", cfg, "--out", str(out2)]) == 0
    assert read_json(out1 / "scan.json")["diagnostics"] == {"n_fallback": 0}
    for f in ("scan.csv", "scan.json"):
        assert (out1 / f).read_bytes() == (out2 / f).read_bytes()


def test_scan_byte_determinism(tmp_path):
    cfg = write_config(tmp_path, scan_config())
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["scan", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["scan", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()
    assert (out1 / "scan.json").read_bytes() == (out2 / "scan.json").read_bytes()


# ----------------------------------------------------------------------------
# shock-study
# ----------------------------------------------------------------------------

def study_config():
    return {
        "eos": GAS,
        "grid": SMALL_GRID,
        "polish_rounds": 4,
        "gas_shock": {"rho": 1.0, "theta": 1.0, "mach": 2.0, "axis": 3,
                      "b_direction": [1, 0, 0]},
        "B_values": [1e-1, 1e-2, 0.0],
    }


def test_shock_study_command(tmp_path):
    cfg = write_config(tmp_path, study_config())
    out = tmp_path / "out"
    assert run(["shock-study", "--config", cfg, "--out", str(out)]) == 0
    data = read_json(out / "study.json")
    assert [row["B"] for row in data["rows"]] == [0.1, 0.01, 0.0]
    assert all(row["min_abs_D"] > 0 for row in data["rows"])
    assert data["deviations_monotone"] is True
    csv_lines = (out / "study.csv").read_text().splitlines()
    assert csv_lines[0] == "B,min_abs_D,deviation_from_limit,n_failures"
    assert len(csv_lines) == 4


def test_shock_study_matches_library_op(tmp_path):
    from mhdstab.lopatinski import GasShockSpec, HemisphereGrid, b_to_zero_study
    from mhdstab.thermo import IdealGas

    cfg_dict = study_config()
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run(["shock-study", "--config", cfg, "--out", str(out)]) == 0

    study = b_to_zero_study(
        IdealGas(R=1.0, c_v=1.5),
        GasShockSpec(rho=1.0, theta=1.0, mach=2.0, axis=3,
                     b_direction=(1.0, 0.0, 0.0)),
        cfg_dict["B_values"],
        HemisphereGrid(**cfg_dict["grid"]),
        polish_rounds=cfg_dict["polish_rounds"],
    )
    lines = (out / "study.csv").read_text().splitlines()[1:]
    assert len(lines) == len(study.rows)
    for line, row in zip(lines, study.rows):
        b, min_d, dev, nf = line.split(",")
        assert float(b) == row.B_mag
        assert float(min_d) == row.min_abs_D
        assert float(dev) == row.deviation
        assert int(nf) == row.n_failures


def test_shock_study_refinement_compares_each_row(tmp_path):
    from mhdstab.lopatinski import GasShockSpec, HemisphereGrid, b_to_zero_study
    from mhdstab.thermo import IdealGas

    cfg_dict = study_config()
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run(["shock-study", "--config", cfg, "--out", str(out), "--refine", "2"]) == 0
    data = read_json(out / "study.json")
    ref = data["refinement"]
    assert (ref["factor"], ref["convergence_tol"]) == (2, 0.05)
    fine = b_to_zero_study(
        IdealGas(R=1.0, c_v=1.5), GasShockSpec(**{**cfg_dict["gas_shock"], "b_direction": (1, 0, 0)}),
        cfg_dict["B_values"], HemisphereGrid(**cfg_dict["grid"]).refined(2),
        polish_rounds=cfg_dict["polish_rounds"])
    assert [r["B"] for r in ref["rows"]] == [row["B"] for row in data["rows"]]
    for r, row, fine_row in zip(ref["rows"], data["rows"], fine.rows):
        assert r["min_abs_D"] == [row["min_abs_D"], fine_row.min_abs_D]
        base, fine_value = r["min_abs_D"]
        assert r["converged"] == (abs(base - fine_value) <= 0.05 * fine_value)
    assert ref["converged"] == all(r["converged"] for r in ref["rows"])


def test_shock_study_byte_determinism(tmp_path):
    cfg = write_config(tmp_path, study_config())
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run(["shock-study", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["shock-study", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("study.csv", "study.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_random_state_specs_are_seed_deterministic(tmp_path):
    cfg = write_config(tmp_path, {
        "eos": GAS,
        "states": {"random": {"count": 4, "seed": 9}},
        "frequencies": {"random": {"count": 3, "seed": 10}},
    })
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["speeds", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["speeds", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "speeds.csv").read_bytes() == (out2 / "speeds.csv").read_bytes()


def test_unknown_eos_kind_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "eos": {"kind": "van-der-waals"},
        "states": [{"rho": 1.0, "theta": 1.0}],
        "frequencies": [[0, 0, 1]],
    })
    assert run(["speeds", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "eos" in capsys.readouterr().err


# ----------------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------------

def shock_scan_config(**shock):
    return {"eos": GAS, "grid": SMALL_GRID,
            "shock": {"upstream": {"rho": 1.0, "u": [0, 0, 0], "theta": 1.0,
                                   "B": [0.01, 0, 0]},
                      "family": "fast", "mach": 2.0, "axis": 3, **shock}}


def matrix_scan_config(rows):
    cfg = scan_config(op_kind=None)
    cfg["boundary"]["operator"] = {"kind": "matrix", "rows": rows}
    return cfg


def characteristic_scan_config():
    # u_3 = 0: the entropy wave makes x_3 = const characteristic
    cfg = scan_config()
    cfg["boundary"]["state"]["u"] = [0.2, -0.1, 0.0]
    return cfg


CONFIG_ERRORS = {
    "family-not-a-string": (shock_scan_config(family=["fast"]), "shock.family"),
    "eos-R-null": ({**scan_config(), "eos": {**GAS, "R": None}}, "eos"),
    "rows-not-pairs": (matrix_scan_config([[1, 2]]), "boundary.operator.rows[0][0]"),
    "rows-ragged": (matrix_scan_config([[[1, 0]] * 8, [[1, 0]] * 7]),
                    "boundary.operator.rows"),
    "rows-empty": (matrix_scan_config([[]]), "boundary.operator.rows"),
    "convergence-tol-zero": ({**scan_config(), "convergence_tol": 0.0},
                             "convergence_tol"),
    "convergence-tol-nan": ({**scan_config(), "convergence_tol": float("nan")},
                            "convergence_tol"),
    "polish-rounds-negative": ({**scan_config(), "polish_rounds": -1}, "polish_rounds"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_scan_config_error_exits_2(tmp_path, capsys, case):
    cfg_dict, field = CONFIG_ERRORS[case]
    cfg = write_config(tmp_path, cfg_dict)
    assert run(["scan", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")


SCIENCE_ERRORS = {
    "mach-below-one": (shock_scan_config(mach=0.5), "NoAdmissibleShock"),
    "characteristic-frozen-complement": (characteristic_scan_config(),
                                         "CharacteristicBoundary"),
    "matrix-not-8-columns": (matrix_scan_config([[[1, 0]] * 5] * 7), "DimensionMismatch"),
}


@pytest.mark.parametrize("case", sorted(SCIENCE_ERRORS))
def test_scan_science_error_before_any_point_exits_1(tmp_path, capsys, case):
    cfg_dict, error_type = SCIENCE_ERRORS[case]
    cfg = write_config(tmp_path, cfg_dict)
    assert run(["scan", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error_type}: ") and err.count("\n") == 1


@pytest.mark.parametrize("tolerances, field", [
    ({"eps": 1e-6}, "tolerances.eps"),
    ({"eps_cont": 0.0}, "tolerances.eps_cont"),
    ({"tol_det": -1e-10}, "tolerances.tol_det"),
], ids=["unknown-key", "zero", "negative"])
def test_tolerances_config_error_exits_2(tmp_path, capsys, tolerances, field):
    cfg = write_config(tmp_path, {**scan_config(), "tolerances": tolerances})
    assert run(["scan", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")


def test_tolerances_eps_cont_reaches_the_scan(tmp_path):
    # at eps_cont = 1e-9 the continuation damping is below the batch's 1e-8
    # gap test, so every equator row takes the per-point path; by default
    # none does
    fallbacks = []
    for tolerances in ({}, {"eps_cont": 1e-9}):
        cfg = write_config(tmp_path, {**scan_config(), "tolerances": tolerances})
        out = tmp_path / f"out{len(fallbacks)}"
        assert run(["scan", "--config", cfg, "--out", str(out)]) == 0
        n_equator = sum(line.split(",")[1] == "0" for line in
                        (out / "scan.csv").read_text().splitlines()[1:])
        fallbacks.append(read_json(out / "scan.json")["diagnostics"]["n_fallback"])
    assert n_equator == SMALL_GRID["equator_refine"] * SMALL_GRID["n_sphere"]
    assert fallbacks[0] == 0 and fallbacks[1] >= n_equator


@pytest.mark.parametrize("command, make_config", [
    ("scan", scan_config),
    ("shock-study", lambda: {**study_config(), "B_values": [0.0], "polish_rounds": 0}),
], ids=["scan", "shock-study"])
def test_eps_cont_below_the_gap_floor_is_noted_on_stderr(tmp_path, capsys, command,
                                                          make_config):
    # the note is one stderr line, printed once per run and only below the
    # floor; the output files do not carry it
    errs = []
    for tolerances in ({}, {"eps_cont": 1e-9}):
        cfg = write_config(tmp_path, {**make_config(), "tolerances": tolerances})
        assert run([command, "--config", cfg, "--out", str(tmp_path / f"out{len(errs)}")]) == 0
        errs.append(capsys.readouterr().err)
    assert errs[0] == ""
    assert errs[1].count("\n") == 1
    assert errs[1].startswith("note: tolerances.eps_cont = 1e-09 is below the scan's "
                              "spectral gap floor 1e-08")
    assert not any("note:" in p.read_text() for p in (tmp_path / "out1").iterdir())


@pytest.mark.parametrize("edit, field", [
    ({"B_values": [0.1, -0.1]}, "B_values"),
    ({"gas_shock": {"rho": 1.0, "theta": 1.0, "mach": 2.0, "b_direction": [0, 0, 0]}},
     "gas_shock.b_direction"),
], ids=["B-negative", "b-direction-zero"])
def test_shock_study_config_error_exits_2(tmp_path, capsys, edit, field):
    cfg = write_config(tmp_path, {**study_config(), **edit})
    assert run(["shock-study", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")


def test_shock_study_science_error_writes_record(tmp_path, capsys):
    cfg_dict = study_config()
    cfg_dict["gas_shock"]["mach"] = 0.5
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert run(["shock-study", "--config", cfg, "--out", str(out),
                "--refine", "2"]) == 1
    assert read_json(out / "study.json")["error"]["type"] == "NoAdmissibleShock"
    assert capsys.readouterr().err.startswith("error: NoAdmissibleShock: ")


@pytest.mark.parametrize("command, make_config", [("scan", scan_config),
                                                  ("shock-study", study_config)])
def test_refine_below_one_is_usage_error(tmp_path, capsys, command, make_config):
    cfg = write_config(tmp_path, make_config())
    assert run([command, "--config", cfg, "--out", str(tmp_path), "--refine", "0"]) == 2
    assert capsys.readouterr().err.startswith("config error: --refine: ")
