"""Command-line front end: config-driven sweeps and reports.

Commands
--------
speeds       wave-speed table for a sweep of (state, xi) pairs -> speeds.csv
classify     eigenvalue classification records -> classify.json
scan         Lopatinski hemisphere scan (boundary or shock) -> scan.csv/json
shock-study  small-magnetic-field limit study -> study.csv/json

Every run is fully determined by one JSON config file; outputs contain no
timestamps and numbers are written with 17 significant digits, so repeated
runs are byte-identical.  Exit codes: 0 success, 1 science failures
recorded in the outputs (suppressed by --allow-partial) or raised before
any point is evaluated, 2 config or usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .charstruct import BoundaryFrame, classification_record, classify, wave_speeds
from .errors import ConfigError, MhdStabError
from .lopatinski import (
    _GAP_FLOOR,
    _LAX_PATTERNS,
    _Side,
    BoundaryFrequency,
    GasShockSpec,
    HemisphereGrid,
    PlanarShock,
    ScanResult,
    b_to_zero_study,
    rankine_hugoniot,
    shock_scan,
    stable_subspace,
    uniform_scan,
)
from .symbol import assemble_tilde_symbol
from .thermo import EquationOfState, ThermoState, eos_from_dict

SCHEMA_VERSION = 1

_DEFAULT_TOLS = {
    "tol_merge": 1e-9,
    "tol_manifold": 1e-9,
    "tol_det": 1e-10,
    "eps_cont": 1e-6,
}


# ----------------------------------------------------------------------------
# Config loading and validation
# ----------------------------------------------------------------------------

def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def _expect_dict(cfg, path: str) -> dict:
    if not isinstance(cfg, dict):
        _fail(path, f"expected an object, got {type(cfg).__name__}")
    return cfg


def _expect_list(cfg, path: str) -> list:
    if not isinstance(cfg, list):
        _fail(path, f"expected an array, got {type(cfg).__name__}")
    return cfg


def _expect_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    if not math.isfinite(value):  # json accepts NaN and Infinity
        _fail(path, f"expected a finite number, got {value}")
    return float(value)


def _expect_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    return int(value)


def _get(cfg: dict, key: str, path: str, required: bool = True, default=None):
    if key not in cfg:
        if required:
            _fail(path, f"missing required field '{key}'")
        return default
    return cfg[key]


def _get_number(cfg: dict, key: str, path: str, default: float | None = None) -> float:
    """Field `key` of the object at `path`; required unless a default is given."""
    return _expect_number(_get(cfg, key, path, required=default is None,
                               default=default), f"{path}.{key}")


def load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    return _expect_dict(cfg, str(path))


def _parse_eos(cfg: dict, path: str = "eos") -> EquationOfState:
    d = _expect_dict(_get(cfg, "eos", "config"), path)
    try:
        return eos_from_dict(d)
    except (KeyError, TypeError, ValueError) as exc:
        _fail(path, str(exc))


def _parse_tolerances(cfg: dict) -> dict:
    tols = dict(_DEFAULT_TOLS)
    raw = cfg.get("tolerances")
    if raw is None:
        return tols
    raw = _expect_dict(raw, "tolerances")
    for key, value in raw.items():
        if key not in tols:
            _fail(f"tolerances.{key}", "unknown tolerance")
        v = _expect_number(value, f"tolerances.{key}")
        if v <= 0.0:
            _fail(f"tolerances.{key}", f"must be positive, got {v}")
        tols[key] = v
    return tols


def _parse_numbers(value, path: str, n: int) -> list[float]:
    arr = _expect_list(value, path)
    if len(arr) != n:
        _fail(path, f"expected {n} components, got {len(arr)}")
    return [_expect_number(v, f"{path}[{i}]") for i, v in enumerate(arr)]


def _parse_vec3(value, path: str) -> np.ndarray:
    return np.array(_parse_numbers(value, path, 3))


def _parse_matrix(value, path: str) -> np.ndarray:
    """A non-empty rectangular array of rows of [re, im] pairs."""
    rows = [_expect_list(row, f"{path}[{i}]")
            for i, row in enumerate(_expect_list(value, path))]
    if not rows or not rows[0] or any(len(row) != len(rows[0]) for row in rows):
        _fail(path, "expected a non-empty array of rows of equal length")
    return np.array([[complex(*_parse_numbers(entry, f"{path}[{i}][{j}]", 2))
                      for j, entry in enumerate(row)]
                     for i, row in enumerate(rows)])


def _parse_axis(d: dict, path: str, default: int | None = None) -> int:
    axis = _expect_int(_get(d, "axis", path, required=default is None,
                            default=default), f"{path}.axis")
    if axis not in (1, 2, 3):
        _fail(f"{path}.axis", f"must be 1, 2 or 3, got {axis}")
    return axis


def _parse_state(value, path: str) -> ThermoState:
    d = _expect_dict(value, path)
    try:
        return ThermoState(
            rho=_get_number(d, "rho", path),
            u=_parse_vec3(_get(d, "u", path, required=False, default=[0, 0, 0]),
                          f"{path}.u"),
            theta=_get_number(d, "theta", path),
            B=_parse_vec3(_get(d, "B", path, required=False, default=[0, 0, 0]),
                          f"{path}.B"),
        )
    except MhdStabError as exc:
        _fail(path, str(exc))


def _parse_sweep(cfg: dict, key: str, parse, draw) -> list:
    """The non-empty list `key` of items read by `parse`, or a seeded random
    spec {"random": {"count": N, "seed": S}} of N items drawn by `draw`."""
    raw = _get(cfg, key, "config")
    if isinstance(raw, dict):
        spec = _expect_dict(raw.get("random"), f"{key}.random")
        count = _expect_int(_get(spec, "count", f"{key}.random"), f"{key}.random.count")
        seed = _expect_int(_get(spec, "seed", f"{key}.random"), f"{key}.random.seed")
        if count < 1:
            _fail(f"{key}.random.count", "must be >= 1")
        rng = np.random.default_rng(seed)
        return [draw(rng) for _ in range(count)]
    raw = _expect_list(raw, key)
    if not raw:
        _fail(key, "must not be empty")
    return [parse(v, f"{key}[{i}]") for i, v in enumerate(raw)]


def _random_state(rng: np.random.Generator) -> ThermoState:
    return ThermoState(rho=10.0 ** rng.uniform(-2, 2),
                       u=rng.uniform(-1.0, 1.0, 3) * rng.uniform(0.0, 10.0),
                       theta=10.0 ** rng.uniform(-2, 2),
                       B=rng.uniform(-1.0, 1.0, 3) * rng.uniform(0.0, 10.0))


def _parse_frequency(value, path: str) -> np.ndarray:
    xi = _parse_vec3(value, path)
    if float(np.linalg.norm(xi)) == 0.0:
        _fail(path, "frequency must be nonzero")
    return xi


def _random_frequency(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return v * 10.0 ** rng.uniform(-1, 1)


def _parse_sweeps(cfg: dict) -> tuple[list[ThermoState], list[np.ndarray]]:
    return (_parse_sweep(cfg, "states", _parse_state, _random_state),
            _parse_sweep(cfg, "frequencies", _parse_frequency, _random_frequency))


def _parse_boundary(cfg: dict) -> BoundaryFrame | None:
    raw = cfg.get("boundary")
    if raw is None:
        return None
    d = _expect_dict(raw, "boundary")
    return BoundaryFrame(axis=_parse_axis(d, "boundary"),
                         sigma=_get_number(d, "sigma", "boundary", default=0.0))


def _parse_grid(cfg: dict) -> HemisphereGrid:
    raw = cfg.get("grid")
    if raw is None:
        return HemisphereGrid()
    d = _expect_dict(raw, "grid")
    kwargs = {}
    for key in ("n_phi", "n_sphere", "equator_refine"):
        if key in d:
            v = _expect_int(d[key], f"grid.{key}")
            if v < 1:
                _fail(f"grid.{key}", "must be >= 1")
            kwargs[key] = v
    return HemisphereGrid(**kwargs)


def _parse_scan_settings(cfg: dict) -> tuple:
    """What scan and shock-study share: the eos, the grid, the keywords every
    scan entry point takes, and the refinement convergence tolerance."""
    eos = _parse_eos(cfg)
    tols = _parse_tolerances(cfg)
    grid = _parse_grid(cfg)
    polish_rounds = _expect_int(cfg.get("polish_rounds", 6), "polish_rounds")
    if polish_rounds < 0:
        _fail("polish_rounds", f"must be >= 0, got {polish_rounds}")
    conv_tol = _expect_number(cfg.get("convergence_tol", 0.05), "convergence_tol")
    if conv_tol <= 0.0:
        _fail("convergence_tol", f"must be positive, got {conv_tol}")
    if tols["eps_cont"] < _GAP_FLOOR:
        print(f"note: tolerances.eps_cont = {tols['eps_cont']:g} is below the scan's "
              f"spectral gap floor {_GAP_FLOOR:g}; equator rows may take the slower "
              "per-point path (each row whose gap min |Im mu|, which scales with "
              "eps_cont, falls below the floor)", file=sys.stderr)
    scan_kwargs = {"tol_det": tols["tol_det"], "eps_cont": tols["eps_cont"],
                   "polish_rounds": polish_rounds}
    return eos, grid, scan_kwargs, conv_tol


def _parse_zeta(value, path: str) -> BoundaryFrequency:
    d = _expect_dict(value, path)
    eta = _get(d, "eta", path, required=False, default=[0.0, 0.0])
    try:
        return BoundaryFrequency(
            tau=_get_number(d, "tau", path),
            gamma_L=_get_number(d, "gamma_L", path),
            eta=_parse_numbers(eta, f"{path}.eta", 2),
        )
    except ValueError as exc:
        _fail(path, str(exc))


def _parse_shock(cfg_shock: dict, eos: EquationOfState, path: str = "shock") -> PlanarShock:
    d = _expect_dict(cfg_shock, path)
    upstream = _parse_state(_get(d, "upstream", path), f"{path}.upstream")
    family = _get(d, "family", path, required=False, default="fast")
    if not isinstance(family, str) or family not in _LAX_PATTERNS:
        _fail(f"{path}.family", f"must be one of {sorted(_LAX_PATTERNS)}, got {family!r}")
    return rankine_hugoniot(eos, upstream, family=family,
                            mach=_get_number(d, "mach", path), d=_parse_axis(d, path))


# ----------------------------------------------------------------------------
# Deterministic writers
# ----------------------------------------------------------------------------

def write_json(path: Path, obj: dict) -> None:
    obj = {"schema_version": SCHEMA_VERSION, **obj}
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def write_csv(path: Path, header: list[str], rows) -> None:
    """One line per row, every value as "%.17g": a float as f"{x:.17g}"
    (-0, nan and inf included), an integer below 2**53 exactly as str()."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


# ----------------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------------

def cmd_speeds(cfg: dict, out: Path, dump_symbols: bool = False) -> int:
    eos = _parse_eos(cfg)
    states, xis = _parse_sweeps(cfg)
    header = ["state_index", "xi_index", "rho", "u1", "u2", "u3", "theta",
              "B1", "B2", "B3", "xi1", "xi2", "xi3",
              "a", "b", "h", "c0", "c_s", "c_f"]
    rows = []
    symbol_rows = []
    for i, state in enumerate(states):
        for j, xi in enumerate(xis):
            ws = wave_speeds(state, eos, xi)
            rows.append([i, j, state.rho, *state.u, state.theta, *state.B,
                         *xi, ws.a, ws.b, ws.h, ws.c0, ws.c_s, ws.c_f])
            if dump_symbols:
                A = assemble_tilde_symbol(state, eos, xi)
                symbol_rows.append([i, j, *A.reshape(-1)])
    write_csv(out / "speeds.csv", header, rows)
    if dump_symbols:
        sym_header = (["state_index", "xi_index"]
                      + [f"A{r+1}{c+1}" for r in range(8) for c in range(8)])
        write_csv(out / "symbols.csv", sym_header, symbol_rows)
    print(f"wrote {len(rows)} rows to {out / 'speeds.csv'}")
    return 0


def cmd_classify(cfg: dict, out: Path) -> int:
    eos = _parse_eos(cfg)
    tols = _parse_tolerances(cfg)
    states, xis = _parse_sweeps(cfg)
    boundary = _parse_boundary(cfg)
    records = []
    n_errors = 0
    for i, state in enumerate(states):
        for j, xi in enumerate(xis):
            record = {"state_index": i, "state": state.to_dict(), "xi_index": j}
            try:
                roots, regime = classify(
                    state, eos, xi, boundary=boundary,
                    tol_merge=tols["tol_merge"],
                    tol_manifold=tols["tol_manifold"])
                record.update(classification_record(xi, roots, regime))
                record["error"] = None
            except MhdStabError as exc:
                record["xi"] = [float(v) for v in np.asarray(xi).reshape(3)]
                record["error"] = {"type": type(exc).__name__, "message": str(exc)}
                n_errors += 1
            records.append(record)
    write_json(out / "classify.json", {
        "boundary": ({"axis": boundary.axis, "sigma": boundary.sigma}
                     if boundary is not None else None),
        "n_records": len(records),
        "n_errors": n_errors,
        "records": records,
    })
    print(f"classified {len(records)} points, {n_errors} errors "
          f"-> {out / 'classify.json'}")
    return 0 if n_errors == 0 else 1


def _build_scan(cfg: dict, eos: EquationOfState, grid, scan_kwargs: dict) -> ScanResult:
    has_boundary = "boundary" in cfg
    has_shock = "shock" in cfg
    if has_boundary == has_shock:
        _fail("config", "exactly one of 'boundary' or 'shock' is required for scan")
    if has_shock:
        return shock_scan(_parse_shock(cfg["shock"], eos), grid, **scan_kwargs)
    b = _expect_dict(cfg["boundary"], "boundary")
    state = _parse_state(_get(b, "state", "boundary"), "boundary.state")
    axis = _parse_axis(b, "boundary")
    op_spec = _expect_dict(_get(b, "operator", "boundary"), "boundary.operator")
    kind = _get(op_spec, "kind", "boundary.operator")
    if kind == "matrix":
        M = _parse_matrix(_get(op_spec, "rows", "boundary.operator"),
                          "boundary.operator.rows")
    elif kind == "frozen-complement":
        zf0 = _parse_zeta(_get(op_spec, "at", "boundary.operator"),
                          "boundary.operator.at")
        side = _Side(state, eos, axis, scan_kwargs["tol_det"])
        E0 = stable_subspace(side.G(zf0), zf0.gamma_L, a_d_inv=side.a_d_inv,
                             eps_cont=scan_kwargs["eps_cont"])
        M = E0.conj().T
    else:
        _fail("boundary.operator.kind",
              f"unknown kind {kind!r} (expected 'matrix' or 'frozen-complement')")
    return uniform_scan(state, eos, axis, M, grid, **scan_kwargs)


def _converged(base: float | None, fine: float | None, tol: float) -> bool:
    """Refinement test: min |D| moved by at most tol relative to the fine value."""
    return (base is not None and fine is not None
            and abs(base - fine) <= tol * max(abs(fine), 1e-300))


def cmd_scan(cfg: dict, out: Path, refine: int = 1, allow_partial: bool = False) -> int:
    eos, grid, scan_kwargs, conv_tol = _parse_scan_settings(cfg)
    result = _build_scan(cfg, eos, grid, scan_kwargs)
    result.write_csv(out / "scan.csv")
    summary = result.summary()

    if refine > 1:
        refined = _build_scan(cfg, eos, grid.refined(refine), scan_kwargs)
        refined.write_csv(out / "scan_refined.csv")
        base, fine = result.min_abs_D, refined.min_abs_D
        converged = _converged(base, fine, conv_tol)
        summary["refinement"] = {
            "factor": refine,
            "min_abs_D": [base, fine],
            "convergence_tol": conv_tol,
            "converged": converged,
        }
        print(f"min |D| = {base} -> {fine} under refinement x{refine}: "
              f"{'converged' if converged else 'NOT converged'}")
    write_json(out / "scan.json", summary)

    if result.min_abs_D is not None:
        print(f"min |D| = {result.min_abs_D} at "
              f"{json.dumps(result.argmin.to_dict(), sort_keys=True)}")
    n_fail = len(result.failures)
    if n_fail:
        print(f"{n_fail} per-point failures recorded in scan.json")
    return 0 if (n_fail == 0 or allow_partial) else 1


def cmd_shock_study(cfg: dict, out: Path, refine: int = 1,
                    allow_partial: bool = False) -> int:
    eos, grid, scan_kwargs, conv_tol = _parse_scan_settings(cfg)
    gs = _expect_dict(_get(cfg, "gas_shock", "config"), "gas_shock")
    spec = GasShockSpec(
        rho=_get_number(gs, "rho", "gas_shock"),
        theta=_get_number(gs, "theta", "gas_shock"),
        mach=_get_number(gs, "mach", "gas_shock"),
        axis=_parse_axis(gs, "gas_shock", default=3),
        b_direction=tuple(_parse_vec3(
            _get(gs, "b_direction", "gas_shock", required=False,
                 default=[1.0, 0.0, 0.0]), "gas_shock.b_direction")),
    )
    if not any(spec.b_direction):
        _fail("gas_shock.b_direction", "must be nonzero")
    b_values = [_expect_number(v, f"B_values[{i}]")
                for i, v in enumerate(_expect_list(_get(cfg, "B_values", "config"),
                                                   "B_values"))]
    if not b_values or min(b_values) < 0.0:
        _fail("B_values", "must be a non-empty list of magnitudes >= 0")

    try:
        study = b_to_zero_study(eos, spec, b_values, grid, **scan_kwargs)
        refined = (b_to_zero_study(eos, spec, b_values, grid.refined(refine),
                                   **scan_kwargs) if refine > 1 else None)
    except MhdStabError as exc:
        write_json(out / "study.json", {
            "error": {"type": type(exc).__name__, "message": str(exc)}})
        raise

    payload = study.to_dict()
    if refined is not None:
        per_row = [{"B": row.B_mag,
                    "min_abs_D": [row.min_abs_D, row_ref.min_abs_D],
                    "converged": _converged(row.min_abs_D, row_ref.min_abs_D, conv_tol)}
                   for row, row_ref in zip(study.rows, refined.rows)]
        converged = all(r["converged"] for r in per_row)
        payload["refinement"] = {
            "factor": refine, "convergence_tol": conv_tol,
            "rows": per_row, "converged": converged,
        }
        print(f"refinement x{refine}: {'converged' if converged else 'NOT converged'}")
    write_json(out / "study.json", payload)
    write_csv(out / "study.csv",
              ["B", "min_abs_D", "deviation_from_limit", "n_failures"],
              [[r.B_mag, r.min_abs_D, r.deviation, r.n_failures]
               for r in study.rows])
    for r in study.rows:
        print(f"|B| = {r.B_mag:.17g}: min |D| = {r.min_abs_D:.17g} "
              f"(deviation {r.deviation:.3e}, {r.n_failures} failures)")
    n_fail = sum(r.n_failures for r in study.rows)
    return 0 if (n_fail == 0 or allow_partial) else 1


# ----------------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhdstab",
        description="Characteristic structure and Lopatinski stability of full MHD")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("speeds", help="wave-speed table for a (state, xi) sweep")
    add_common(p)
    p.add_argument("--dump-symbols", action="store_true",
                   help="also write the symbol matrices to symbols.csv")

    p = sub.add_parser("classify", help="eigenvalue classification sweep")
    add_common(p)

    for command, help_text in (("scan", "Lopatinski hemisphere scan"),
                               ("shock-study", "small-magnetic-field limit study")):
        p = sub.add_parser(command, help=help_text)
        add_common(p)
        p.add_argument("--refine", type=int, default=1, metavar="K",
                       help="also scan at K-fold grid density and report convergence")
        p.add_argument("--allow-partial", action="store_true",
                       help="exit 0 even when per-point failures were recorded")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "speeds":
            return cmd_speeds(cfg, out, dump_symbols=args.dump_symbols)
        if args.command == "classify":
            return cmd_classify(cfg, out)
        if args.refine < 1:
            _fail("--refine", "must be >= 1")
        cmd = cmd_scan if args.command == "scan" else cmd_shock_study
        return cmd(cfg, out, refine=args.refine, allow_partial=args.allow_partial)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except MhdStabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
