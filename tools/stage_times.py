"""Microseconds per call of the batched scan's stages, and per row of its CSV.

    PYTHONPATH=src python tools/stage_times.py [--repeat 30] [--sizes 1 124 1024]

For each input and each row count N, prints the least of `--repeat`
single calls of `lopatinski._evaluate` and of its stages: `_Side.roots`,
`_Side.complement` and `_Side.certificate` on the side that takes a
complement, the scan kernel of the boundary operator and `_abs_det`.
The inputs are the Mach-2 ideal-gas fast shock at |B| = 0.01 and at B =
0, as in the small-field study, and the subsonic inflow of
configs/scan_boundary.json with its frozen-complement operator.  The N
rows are spread evenly over a hemisphere grid whose last quarter is the
equator, so continuation rows are among them.  Then, for the inflow
scanned on the grids of the scan benchmark (`scan --refine 2` on a
HemisphereGrid(6, 100, 4): 1000 and 3200 rows), prints the least of
`--repeat` calls of `ScanResult.write_csv`, in microseconds per row.
BLAS is pinned to one thread unless the environment already sets it.
Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import os
import tempfile
import timeit
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS pin)

from mhdstab.lopatinski import (  # noqa: E402
    BoundaryFrequency,
    BoundaryOperator,
    HemisphereGrid,
    _abs_det,
    _evaluate,
    _one_sided_problem,
    _scan,
    _scan_kernel,
    _shock_problem,
    assemble_G,
    rankine_hugoniot,
    stable_subspace,
)
from mhdstab.thermo import IdealGas, ThermoState  # noqa: E402

GAS = IdealGas(R=1.0, c_v=1.5)
EPS_CONT = 1e-6
STAGES = ("evaluate", "roots", "complement", "certificate", "kernel", "abs_det")
WRITE_GRID = HemisphereGrid(6, 100, 4)  # the scan benchmark's grid, also refined x2


def problems() -> dict:
    """The scan problems, by name."""
    out = {}
    for label, b in (("shock |B|=0.01", 0.01), ("shock B=0", 0.0)):
        upstream = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[b, 0, 0])
        shock = rankine_hugoniot(GAS, upstream, family="fast", mach=2.0, d=3)
        out[label] = _shock_problem(shock, 1e-10)
    inflow = ThermoState(rho=1.0, u=[0.2, -0.1, 0.9], theta=1.0, B=[0.3, 0.1, 0.2])
    zf0 = BoundaryFrequency(0.3, 0.5, [0.4, -0.1])
    E0 = stable_subspace(assemble_G(inflow, GAS, 3, zf0), zf0.gamma_L)
    out["inflow"] = _one_sided_problem(inflow, GAS, 3, BoundaryOperator.from_matrix(E0.conj().T),
                                       1e-10)
    return out


def rows(n: int) -> np.ndarray:
    """n rows (tau, gamma_L, eta1, eta2) spread evenly over a hemisphere grid."""
    P = HemisphereGrid(4, max(n, 64), 4)._rows()
    return P[np.linspace(0, len(P) - 1, n).astype(int)]


def stage_calls(problem, P: np.ndarray) -> dict:
    """One zero-argument call per stage, on the inputs the scan gives it."""
    kernel = _scan_kernel(problem.operator)
    gamma = np.where(P[:, 1] <= 1e-8, EPS_CONT, P[:, 1])
    side = next(s for s in problem.sides if 0 < s.dim < 8)
    mu, _ = side.roots(P, gamma)
    wh, _ = side.complement(P, gamma, mu)
    nu = mu[:, 8 - wh.shape[1]:]
    bases = [wh if s is side else np.eye(8)[s.dim:] for s in problem.sides]
    K, scale, _ = kernel(P)
    return {
        "evaluate": lambda: _evaluate(problem, kernel, P, EPS_CONT),
        "roots": lambda: side.roots(P, gamma),
        "complement": lambda: side.complement(P, gamma, mu),
        "certificate": lambda: side.certificate(P, gamma, wh, nu),
        "kernel": lambda: kernel(P),
        "abs_det": lambda: _abs_det(bases, K, scale),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeat", type=int, default=30, help="calls per stage; the least is shown")
    p.add_argument("--sizes", type=int, nargs="+", default=[1, 124, 1024], help="row counts N")
    args = p.parse_args(argv)
    if args.repeat < 1 or min(args.sizes) < 1:
        p.error("--repeat and --sizes must be >= 1")
    print(f"{'input':<16}{'N':>6}" + "".join(f"{s:>13}" for s in STAGES) + "   (us per call)")
    scan_problems = problems()
    for label, problem in scan_problems.items():
        for n in args.sizes:
            calls = stage_calls(problem, rows(n))
            us = [1e6 * min(timeit.repeat(calls[s], number=1, repeat=args.repeat))
                  for s in STAGES]
            print(f"{label:<16}{n:>6}" + "".join(f"{t:>13.1f}" for t in us))
    print(f"{'write_csv':<16}{'rows':>6}{'us/row':>13}")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scan.csv"
        for grid in (WRITE_GRID, WRITE_GRID.refined(2)):
            res = _scan(scan_problems["inflow"], grid, EPS_CONT, polish_rounds=0)
            n = len(res.rows)
            t = min(timeit.repeat(lambda: res.write_csv(path), number=1, repeat=args.repeat))
            print(f"{'inflow':<16}{n:>6}{1e6 * t / n:>13.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
