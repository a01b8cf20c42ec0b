"""The benchmark's three workloads: inputs from a seed, one repetition, gate.

Each workload is chosen to load different modules of mhdstab:

* shock_study    -- the two-sided 16-dimensional shock path of the small-field
                    study (criterion 7) on a coarse grid: shock operator, argmin
                    polish and the Rankine-Hugoniot continuation.
* boundary_scan  -- the one-sided 8-dimensional path through the `scan` CLI
                    command: constant operator, finer grid, CSV/JSON writers.
* classify_sweep -- `classify` and `nonglancing_test` on designed points of
                    regimes a, b and c; no `lopatinski` code runs.

A repetition returns an Outcome.  Operations are frequency evaluations
(sweep points plus polish points) for the scans and classified points plus
glancing tests for the sweep; a repetition that raises counts all of its
planned operations as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from mhdstab import charstruct, cli, lopatinski
from mhdstab.charstruct import BoundaryFrame, Classification
from mhdstab.errors import MhdStabError
from mhdstab.lopatinski import (
    BoundaryFrequency,
    BoundaryOperator,
    GasShockSpec,
    HemisphereGrid,
    assemble_G,
    lopatinski_det,
    shock_boundary_operator,
    stable_subspace,
)
from mhdstab.symbol import assemble_full_symbol, boundary_matrix, symmetrizer
from mhdstab.thermo import IdealGas, ThermoState

from tracing import replace_everywhere, restore

GAS = IdealGas(R=1.0, c_v=1.5)
GAS_CFG = {"kind": "ideal-gas", "R": 1.0, "c_v": 1.5}
EPS_CONT = 1e-6
# Re-evaluated |D| and the QR-vs-Gram pair must agree to this (|D| is in [0, 1]).
ABS_D_TOL = 1e-10
POLISH_LATTICE = 124  # points per polish round: 5^3 offsets minus the center


@dataclass
class Outcome:
    attempted: int
    failed: int
    output: object = None
    counts: dict = field(default_factory=dict)  # per-layer counts of this repetition


@contextlib.contextmanager
def captured_scans():
    """Collect the ScanResult of every shock_scan/uniform_scan call."""
    results, undo = [], []
    for name in ("shock_scan", "uniform_scan"):
        fn = getattr(lopatinski, name)

        def capture(*args, _fn=fn, **kwargs):
            result = _fn(*args, **kwargs)
            results.append(result)
            return result

        replace_everywhere(fn, capture, undo)
    try:
        yield results
    finally:
        restore(undo)


def scan_counts(scans) -> dict:
    polish = sum(s.polish.get("n_evaluations", 0) for s in scans)
    return {"lopatinski.evals": sum(s.n_points for s in scans) + polish,
            "lopatinski.polish.evals": polish,
            "lopatinski.points_failed": sum(len(s.failures) for s in scans)}


def _gate_abs_D(res, reported: float, where: str) -> list[str]:
    problems = []
    if abs(res.abs_D - reported) > ABS_D_TOL:
        problems.append(f"{where}: re-evaluated |D| {res.abs_D!r} != reported {reported!r}")
    gap = res.diagnostics.get("algorithm_disagreement")
    if gap is None or not gap <= ABS_D_TOL:
        problems.append(f"{where}: QR and Gram |D| disagree by {gap}")
    return problems


# ----------------------------------------------------------------------------
# shock_study
# ----------------------------------------------------------------------------

class ShockStudy:
    """b_to_zero_study for the Mach-2 ideal-gas shock of criterion 7.

    The seed rotates the tangential field direction about the shock normal
    (axis 3); the B = 0 row does not depend on it.
    """

    name = "shock_study"
    B_VALUES = (0.1, 0.01, 0.001, 0.0)

    def generate(self, seed: int, tiny: bool) -> dict:
        phi = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi)
        return {
            "spec": GasShockSpec(rho=1.0, theta=1.0, mach=2.0, axis=3,
                                 b_direction=(math.cos(phi), math.sin(phi), 0.0)),
            "grid": HemisphereGrid(1, 8, 1) if tiny else HemisphereGrid(2, 40, 2),
            "polish_rounds": 2 if tiny else 6,
        }

    def planned(self, inp: dict) -> int:
        per_scan = inp["grid"].n_points + POLISH_LATTICE * inp["polish_rounds"]
        return len(set(self.B_VALUES)) * per_scan

    def run(self, inp: dict) -> Outcome:
        with captured_scans() as scans:
            study = lopatinski.b_to_zero_study(
                GAS, inp["spec"], self.B_VALUES, inp["grid"],
                eps_cont=EPS_CONT, polish_rounds=inp["polish_rounds"])
        counts = scan_counts(scans)
        return Outcome(counts["lopatinski.evals"],
                       counts["lopatinski.points_failed"], study, counts)

    def fingerprint(self, study) -> tuple:
        return tuple(r.min_abs_D for r in study.rows)

    def check(self, inp: dict, study, refs: dict | None) -> list[str]:
        """Reference rows (when given) and per-point re-evaluation at each argmin."""
        problems = []
        rows = {r.B_mag: r for r in study.rows}
        if sorted(rows) != sorted(set(self.B_VALUES)):
            return [f"study rows {sorted(rows)} != {sorted(set(self.B_VALUES))}"]
        for b, want in (refs or {}).items():
            got = rows[float(b)].min_abs_D
            if abs(got - want) > ABS_D_TOL:
                problems.append(f"|B| = {b}: min |D| {got!r} != reference {want!r}")
        for row in study.rows:
            res = self.reevaluate(row.shock, row.argmin)
            problems += _gate_abs_D(res, row.min_abs_D, f"|B| = {row.B_mag}")
        return problems

    @staticmethod
    def reevaluate(shock, zf: BoundaryFrequency):
        """|D| of the two-sided problem at zf through the public per-point calls."""
        d, eos = shock.axis, shock.eos
        blocks, inverses = [], []
        for state, sign in ((shock.right, 1.0), (shock.left, -1.0)):
            A_d, _ = boundary_matrix(state, eos, d)
            blocks.append(sign * assemble_G(state, eos, d, zf))
            inverses.append(sign * np.linalg.inv(A_d))
        E = stable_subspace(scipy.linalg.block_diag(*blocks), zf.gamma_L,
                            a_d_inv=scipy.linalg.block_diag(*inverses),
                            eps_cont=EPS_CONT)
        # lopatinski_det takes ker M from the operator's kernel_basis
        return lopatinski_det(E, shock_boundary_operator(shock, zf), zf)


# ----------------------------------------------------------------------------
# boundary_scan
# ----------------------------------------------------------------------------

class BoundaryScan:
    """`mhdstab scan --refine 2` on a one-sided frozen-complement problem.

    The config is shaped like configs/scan_boundary.json; the seed perturbs
    the boundary state and the frozen frequency, keeping the number of
    positive eigenvalues of A_d.
    """

    name = "boundary_scan"
    AXIS = 3
    BASE_STATE = {"rho": 1.0, "u": [0.2, -0.1, 0.9], "theta": 1.0, "B": [0.3, 0.1, 0.2]}
    BASE_AT = {"tau": 0.3, "gamma_L": 0.5, "eta": [0.4, -0.1]}
    REFINE = 2

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    @staticmethod
    def _n_positive(state: ThermoState) -> int:
        A_d, ok = boundary_matrix(state, GAS, BoundaryScan.AXIS)
        if not ok:
            return -1
        return int(np.sum(np.linalg.eigvals(A_d).real > 0.0))

    def generate(self, seed: int, tiny: bool) -> dict:
        rng = np.random.default_rng(seed)
        base = self.BASE_STATE
        want = self._n_positive(ThermoState(**base))
        while True:
            state = {
                "rho": base["rho"] * math.exp(rng.uniform(-0.1, 0.1)),
                "u": [v + rng.uniform(-0.05, 0.05) for v in base["u"]],
                "theta": base["theta"] * math.exp(rng.uniform(-0.1, 0.1)),
                "B": [v + rng.uniform(-0.05, 0.05) for v in base["B"]],
            }
            if self._n_positive(ThermoState(**state)) == want:
                break
        at = {"tau": self.BASE_AT["tau"] + rng.uniform(-0.05, 0.05),
              "gamma_L": self.BASE_AT["gamma_L"] + rng.uniform(-0.05, 0.05),
              "eta": [v + rng.uniform(-0.05, 0.05) for v in self.BASE_AT["eta"]]}
        grid = ({"n_phi": 2, "n_sphere": 16, "equator_refine": 1} if tiny
                else {"n_phi": 6, "n_sphere": 100, "equator_refine": 4})
        cfg = {"eos": GAS_CFG, "grid": grid, "polish_rounds": 2 if tiny else 6,
               "boundary": {"state": state, "axis": self.AXIS,
                            "operator": {"kind": "frozen-complement", "at": at}}}
        run_dir = self.work_dir / f"{self.name}-{seed}{'-tiny' if tiny else ''}"
        run_dir.mkdir(parents=True, exist_ok=True)
        cfg_path = run_dir / "config.json"
        cfg_path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
        return {"cfg": cfg, "cfg_path": cfg_path, "out": run_dir / "out"}

    def planned(self, inp: dict) -> int:
        g = inp["cfg"]["grid"]
        grid = HemisphereGrid(g["n_phi"], g["n_sphere"], g["equator_refine"])
        polish = POLISH_LATTICE * inp["cfg"]["polish_rounds"]
        return grid.n_points + grid.refined(self.REFINE).n_points + 2 * polish

    def run(self, inp: dict) -> Outcome:
        with captured_scans() as scans, contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["scan", "--config", str(inp["cfg_path"]),
                             "--out", str(inp["out"]), "--refine", str(self.REFINE)])
        counts = scan_counts(scans)
        counts["cli.output_bytes"] = sum(p.stat().st_size for p in inp["out"].iterdir())
        attempted = counts["lopatinski.evals"] if scans else self.planned(inp)
        # A nonzero exit code fails the whole repetition.
        failed = counts["lopatinski.points_failed"] if code == 0 else attempted
        summary = (inp["out"] / "scan.json").read_text(encoding="utf-8") if code == 0 else None
        return Outcome(attempted, failed, (code, summary), counts)

    def fingerprint(self, output) -> tuple:
        return output

    def check(self, inp: dict, output, refs=None) -> list[str]:
        """Exit code 0 and re-evaluation of |D| at the scan.json argmin."""
        code, text = output
        if code != 0:
            return [f"mhdstab scan exited {code}"]
        summary = json.loads(text)
        if summary["argmin"] is None:
            return ["scan.json has no argmin"]
        res = self.reevaluate(inp["cfg"], BoundaryFrequency.from_dict(summary["argmin"]))
        return _gate_abs_D(res, summary["min_abs_D"], "scan.json argmin")

    @staticmethod
    def reevaluate(cfg: dict, zf: BoundaryFrequency):
        """|D| at zf through the public per-point calls, operator rebuilt from cfg."""
        b = cfg["boundary"]
        state, d = ThermoState(**b["state"]), b["axis"]
        a_d_inv = np.linalg.inv(boundary_matrix(state, GAS, d)[0])
        zf0 = BoundaryFrequency.from_dict(b["operator"]["at"])
        E0 = stable_subspace(assemble_G(state, GAS, d, zf0), zf0.gamma_L,
                             a_d_inv=a_d_inv, eps_cont=EPS_CONT)
        E = stable_subspace(assemble_G(state, GAS, d, zf), zf.gamma_L,
                            a_d_inv=a_d_inv, eps_cont=EPS_CONT)
        return lopatinski_det(E, BoundaryOperator.from_matrix(E0.conj().T), zf)


# ----------------------------------------------------------------------------
# classify_sweep
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class DesignedPoint:
    case: str                 # designed regime: "a", "b" or "c"
    state: ThermoState
    xi: np.ndarray
    boundary: BoundaryFrame
    glancing: bool = False    # case c: frame speed on u_d -+ B_d/sqrt(rho)


class ClassifySweep:
    """Designed points of regimes a, b, c as in acceptance criterion 4.

    Each point runs `classify` with a BoundaryFrame, then `nonglancing_test`
    on every multiple root.  The seed draws the states, frequencies and
    boundary frames.
    """

    name = "classify_sweep"

    @staticmethod
    def _base_state(rng, sub_field: bool) -> ThermoState:
        """Admissible state with |B|^2 at least 5% away from rho c0^2."""
        while True:
            rho = 10.0 ** rng.uniform(-1, 1)
            theta = 10.0 ** rng.uniform(-1, 1)
            u = rng.uniform(-2.0, 2.0, 3)
            c0_sq = (1.0 + GAS.R / GAS.c_v) * GAS.R * theta
            frac = rng.uniform(0.15, 0.75) if sub_field else rng.uniform(1.3, 3.0)
            b_dir = rng.standard_normal(3)
            b_dir /= np.linalg.norm(b_dir)
            state = ThermoState(rho=rho, u=u, theta=theta,
                                B=frac * math.sqrt(rho * c0_sq) * b_dir)
            if abs(float(state.B @ state.B) - rho * c0_sq) > 0.05 * rho * c0_sq:
                return state

    @staticmethod
    def _xi(rng, direction=None) -> np.ndarray:
        v = rng.standard_normal(3) if direction is None else direction
        return v / np.linalg.norm(v) * 10.0 ** rng.uniform(-1, 1)

    def generate(self, seed: int, tiny: bool) -> dict:
        rng = np.random.default_rng(seed)
        n_each = 4 if tiny else 120
        points = []
        for case in "abc":
            for i in range(n_each):
                state = self._base_state(rng, sub_field=case == "c" or bool(rng.integers(2)))
                B = state.B
                Bn = float(np.linalg.norm(B))
                d = int(rng.integers(1, 4))
                sigma = rng.uniform(-3.0, 3.0)
                glancing = False
                if case == "a":
                    while True:
                        xi = self._xi(rng)
                        xh = xi / np.linalg.norm(xi)
                        if (abs(xh @ B) > 0.05 * Bn
                                and np.linalg.norm(np.cross(xh, B)) > 0.05 * Bn):
                            break
                elif case == "b":
                    while True:
                        v = rng.standard_normal(3)
                        v -= (v @ B) / Bn**2 * B
                        if np.linalg.norm(v) > 1e-3:
                            break
                    xi = self._xi(rng, v)
                else:
                    xi = self._xi(rng, B * rng.choice([-1.0, 1.0]))
                    alf = B[d - 1] / math.sqrt(state.rho)
                    u_d = state.u[d - 1]
                    glancing = i % 2 == 1
                    if glancing:
                        sigma = u_d - alf if rng.integers(2) else u_d + alf
                    else:
                        while min(abs(u_d - sigma - alf), abs(u_d - sigma + alf)) <= 0.05:
                            sigma = rng.uniform(-3.0, 3.0)
                points.append(DesignedPoint(case, state, xi,
                                            BoundaryFrame(axis=d, sigma=sigma), glancing))
        return {"points": points}

    def planned(self, inp: dict) -> int:
        # one classify per point plus the multiple roots of each regime
        roots = {"a": 1, "b": 1, "c": 3}
        return sum(1 + roots[p.case] for p in inp["points"])

    def run(self, inp: dict) -> Outcome:
        attempted = failed = 0
        records = []
        for p in inp["points"]:
            attempted += 1
            try:
                roots, regime = charstruct.classify(p.state, GAS, p.xi, boundary=p.boundary)
            except MhdStabError:
                failed += 1
                records.append(None)
                continue
            for root in roots:
                if root.multiplicity > 1:
                    attempted += 1
                    try:
                        charstruct.nonglancing_test(p.state, GAS, root, p.xi, p.boundary)
                    except (MhdStabError, ValueError):
                        failed += 1
            records.append((roots, regime))
        return Outcome(attempted, failed, records)

    def fingerprint(self, records) -> tuple:
        return tuple(None if r is None else
                     tuple((x.multiplicity, x.classification.value) for x in r[0])
                     for r in records)

    def check(self, inp: dict, records, refs=None) -> list[str]:
        """Every record carries the classes its designed regime implies."""
        if len(records) != len(inp["points"]):
            return [f"{len(records)} records for {len(inp['points'])} points"]
        bad = [i for i, (p, rec) in enumerate(zip(inp["points"], records))
               if rec is None or not self._matches(p, *rec)]
        return [f"{len(bad)} points classified against their design, first {bad[:5]}"] if bad else []

    @staticmethod
    def _matches(p: DesignedPoint, roots, regime) -> bool:
        simple = sum(r.classification is Classification.SIMPLE for r in roots)
        geom = Classification.GEOMETRICALLY_REGULAR
        if p.case == "a":
            doubles = [r for r in roots if r.multiplicity == 2]
            return (regime.case == "a" and simple == 6 and len(doubles) == 1
                    and doubles[0].classification is geom)
        if p.case == "b":
            big = [r for r in roots if r.multiplicity == 6]
            if not (regime.case == "b" and len(big) == 1 and simple == 2
                    and big[0].classification is geom):
                return False
            # independent witness: six S-orthogonal eigenvectors at the root
            S = symmetrizer(p.state, GAS)
            w = scipy.linalg.eigh(S @ assemble_full_symbol(p.state, GAS, p.xi), S,
                                  eigvals_only=True)
            band = 1e-6 * np.linalg.norm(p.xi) * max(
                charstruct.wave_speeds(p.state, GAS, p.xi).c_f, 1.0)
            return int(np.sum(np.abs(w - big[0].lam) <= band)) == 6
        doubles = [r for r in roots if r.multiplicity == 2 and "entropy" not in r.families]
        entropy = [r for r in roots if r.multiplicity == 2 and "entropy" in r.families]
        expected = (Classification.NOT_CLASSIFIED if p.glancing
                    else Classification.TOTALLY_NONGLANCING)
        return (regime.case == "c" and len(doubles) == 2 and len(entropy) == 1
                and entropy[0].classification is geom
                and doubles[0].lam != doubles[1].lam and simple == 2
                and all(r.classification is expected for r in doubles))


def make(name: str, work_dir: Path):
    if name == "shock_study":
        return ShockStudy()
    if name == "boundary_scan":
        return BoundaryScan(work_dir)
    if name == "classify_sweep":
        return ClassifySweep()
    raise KeyError(name)
