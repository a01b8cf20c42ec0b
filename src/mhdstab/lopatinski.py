"""Boundary-value stability machinery: reduced ODE symbol, stable subspace,
Lopatinski determinant, hemisphere scans, and planar Lax-shock studies.

Conventions, fixed once here and used consistently:

  * Time modes are e^{(gamma_L + i tau) t}, tangential modes e^{i eta . y},
    so the Laplace-Fourier multiplier of d/dt is s = gamma_L + i tau and
    (tau - i gamma_L) = -i s.
  * On the half-space x_d > 0 the transformed interior equations read
    dU/dx_d + i G U = 0 with G = A_d^{-1}((tau - i gamma_L) I
    + eta_1 A_{t1} + eta_2 A_{t2}); the tangential axes t1 < t2 are the two
    axes different from d in increasing order.
  * E_minus is the invariant subspace of G for {Im mu < 0}: exactly the
    initial traces of solutions decaying as x_d -> +infinity.  For
    gamma_L > 0 its dimension equals the number of positive eigenvalues of
    A_d.  At gamma_L = 0 the subspace is defined by continuation: evaluate
    at gamma_L = eps_cont on the same (tau, eta) and reuse that splitting.
  * |D| is computed from orthonormal bases of E_minus and ker M, making it
    basis independent and confined to [0, 1].
  * Scans evaluate stacks of rows (tau, gamma_L, eta1, eta2) at once, with
    orthonormal rows V spanning range(M^H) (one SVD per scan for a constant
    operator, a closed form for the shock operator) and E_minus per side:
      - dimension 0 or 8 (a fast shock's upstream side, supersonic inflow):
        the Friedrichs symmetrizer S > 0 makes every S A_j symmetric, so
        x^H S applied to (tau - i gamma) x + eta . A_t x = mu s A_d x, the
        eigenproblem of s G (s = -1 on a shock's reflected upstream side,
        see below), gives Im mu = -gamma x^H S x / (s x^H S A_d x).
        When s A_d^{-1} is definite, every root of s G thus has the sign of
        Im mu the dimension requires and |Im mu| >= gamma min |lambda(s
        A_d^{-1})|; rows where that bound clears the gap test need no
        eigenvalues at all.
      - dimension 7 (a fast shock's downstream side, an inflow faster than
        the Alfven speed and slower than the fast speed): E_minus is the orthogonal complement of the left
        eigenvector w of the single Im mu > 0 root, found by two steps of
        inverse iteration, and |D| = |det(V E)| = |det([V; w^H])| because
        [E w] is unitary.
      - any other dimension: a batched `eig` plus QR.
    The per-point path (`stable_subspace` per side, then `lopatinski_det`)
    is the reference, and the fallback for every row the batch cannot trust.

Shock problems are folded to one side by reflection.  A planar shock with
upstream (left, x_d < 0) and downstream (right, x_d > 0) states in the
shock frame gives the doubled generator diag(G_right, -G_left) acting on
the stacked trace (U_right(0), U_left(0)); decay at both infinities selects
E_minus(G_right) (+) E_plus(G_left), split per side: E_plus(G_left) =
E_minus(-G_left), continued at gamma_L = 0 along the signed inverse
-A_d^{-1} (the right side uses +A_d^{-1}).  For a fast shock the upstream
block is 8x0.  The linearized jump conditions are

    N_right u_right - N_left u_left - psi_hat * b_f = 0,

with N the normal-flux Jacobians of the conservation laws in
(rho, u, theta, B) variables, b_f = s [q] + i eta . [f_tangential] the
front coefficient, and the degenerate normal-induction row replaced by the
linearized continuity of the normal field across the perturbed front,
[B_d'] - i (eta . [B_tangential]) psi_hat = 0.  The front amplitude is
eliminated by projecting the eight conditions onto the orthogonal
complement of b_f, leaving a rank-7 operator on the 16-dimensional trace.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .errors import (
    CharacteristicBoundary,
    DimensionMismatch,
    MhdStabError,
    NoAdmissibleShock,
    RankDeficiency,
    SpectralSplitFailure,
)
from .symbol import assemble_full_symbol, boundary_matrix, unit_vector
from .thermo import (
    EquationOfState,
    ThermoState,
    e_rho_consistent,
    eos_from_dict,
    eos_to_dict,
    eval_eos,
)
from .charstruct import wave_speeds

__all__ = [
    "BoundaryFrequency",
    "BoundaryOperator",
    "LopatinskiResult",
    "PlanarShock",
    "GasShockSpec",
    "HemisphereGrid",
    "ExplicitGrid",
    "ScanResult",
    "StudyRow",
    "StudyResult",
    "assemble_G",
    "stable_subspace",
    "lopatinski_det",
    "uniform_scan",
    "rankine_hugoniot",
    "shock_boundary_operator",
    "shock_scan",
    "b_to_zero_study",
    "conserved_vector",
    "flux_vector",
    "flux_jacobian",
    "conserved_jacobian",
]

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


# ----------------------------------------------------------------------------
# Frequency parametrization and grids
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryFrequency:
    """One point zeta = (tau - i gamma_L, eta) of the frequency space.

    Scan grids live on the closed unit hemisphere tau^2 + gamma_L^2 +
    |eta|^2 = 1, gamma_L >= 0; the assembly routines accept any finite
    point since G is linear in zeta.
    """

    tau: float
    gamma_L: float
    eta: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "gamma_L", float(self.gamma_L))
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=float).reshape(2))
        if not np.all(np.isfinite([self.tau, self.gamma_L, *self.eta])):
            raise ValueError(f"frequency must be finite, got {self.to_dict()}")
        if self.gamma_L < 0.0:
            raise ValueError(f"gamma_L must be >= 0, got {self.gamma_L}")

    @property
    def norm(self) -> float:
        return math.sqrt(self.tau**2 + self.gamma_L**2 + float(self.eta @ self.eta))

    def normalized(self) -> "BoundaryFrequency":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero frequency")
        return BoundaryFrequency(self.tau / n, self.gamma_L / n, self.eta / n)

    def scaled(self, s: float) -> "BoundaryFrequency":
        return BoundaryFrequency(self.tau * s, self.gamma_L * s, self.eta * s)

    def to_dict(self) -> dict:
        return {"tau": self.tau, "gamma_L": self.gamma_L,
                "eta": [float(self.eta[0]), float(self.eta[1])]}

    @classmethod
    def from_dict(cls, d: dict) -> "BoundaryFrequency":
        return cls(tau=d["tau"], gamma_L=d["gamma_L"], eta=d["eta"])


def _frequency(row: np.ndarray) -> BoundaryFrequency:
    """The point of one (tau, gamma_L, eta1, eta2) row."""
    return BoundaryFrequency(row[0], row[1], row[2:4])


def _fibonacci_sphere(n: int, azimuth_offset: float = 0.0) -> np.ndarray:
    """n nearly uniform points on S^2 as rows (x, y, z); deterministic."""
    i = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = i * _GOLDEN_ANGLE + azimuth_offset
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


@dataclass(frozen=True)
class HemisphereGrid:
    """Deterministic grid on the unit hemisphere {|zeta| = 1, gamma_L >= 0}.

    Interior: n_phi latitude levels gamma_L = cos(psi_j) with a Fibonacci
    sphere of n_sphere points on the (tau, eta) factor at each level.  The
    gamma_L = 0 equator, where uniform-stability failures occur first, gets
    its own Fibonacci sphere refined by equator_refine.
    """

    n_phi: int = 25
    n_sphere: int = 400
    equator_refine: int = 4

    def __post_init__(self):
        if self.n_phi < 1 or self.n_sphere < 1 or self.equator_refine < 1:
            raise ValueError("grid sizes must be >= 1")

    @property
    def n_points(self) -> int:
        return self.n_phi * self.n_sphere + self.equator_refine * self.n_sphere

    def refined(self, k: int) -> "HemisphereGrid":
        return HemisphereGrid(self.n_phi * k, self.n_sphere * k, self.equator_refine)

    def points(self) -> list[BoundaryFrequency]:
        return [_frequency(row) for row in self._rows()]

    def _rows(self) -> np.ndarray:
        """The points as (N, 4) rows (tau, gamma_L, eta1, eta2)."""
        blocks = []
        for j in range(self.n_phi):
            psi = (j + 0.5) / self.n_phi * (0.5 * math.pi)
            gamma = math.cos(psi)
            ring = math.sin(psi)
            x, y, z = _fibonacci_sphere(self.n_sphere, azimuth_offset=j * 2.399963).T
            blocks.append(np.column_stack([ring * z, np.full_like(z, gamma),
                                           ring * x, ring * y]))
        x, y, z = _fibonacci_sphere(self.equator_refine * self.n_sphere).T
        blocks.append(np.column_stack([z, np.zeros_like(z), x, y]))
        return np.concatenate(blocks)

    def describe(self) -> dict:
        return {"kind": "hemisphere", "n_phi": self.n_phi,
                "n_sphere": self.n_sphere, "equator_refine": self.equator_refine,
                "n_points": self.n_points}


@dataclass(frozen=True)
class ExplicitGrid:
    """A caller-supplied list of frequency points."""

    frequencies: tuple[BoundaryFrequency, ...]

    def __init__(self, frequencies):
        object.__setattr__(self, "frequencies", tuple(frequencies))

    @property
    def n_points(self) -> int:
        return len(self.frequencies)

    def points(self) -> list[BoundaryFrequency]:
        return list(self.frequencies)

    def _rows(self) -> np.ndarray:
        return np.array([(zf.tau, zf.gamma_L, *zf.eta)
                         for zf in self.frequencies]).reshape(-1, 4)

    def describe(self) -> dict:
        return {"kind": "explicit", "n_points": self.n_points}


# ----------------------------------------------------------------------------
# Reduced symbol, stable subspace, determinant
# ----------------------------------------------------------------------------

def assemble_G(state: ThermoState, eos: EquationOfState, d: int,
               zf: BoundaryFrequency, tol_det: float = 1e-10) -> np.ndarray:
    """Reduced ODE symbol G = A_d^{-1}((tau - i gamma_L) I + eta . A_t).

    Raises CharacteristicBoundary when |det A_d| falls below the
    scale-relative threshold.
    """
    return _Side(state, eos, d, tol_det).G(zf)


class _Side:
    """One side's reduced symbol s G, kept as its three coefficients in zeta
    (s A_d^{-1} is also the continuation matrix), and dim = dim E_minus(s G),
    the number of positive eigenvalues of s A_d.  s = -1 reflects a shock's
    upstream side."""

    def __init__(self, state: ThermoState, eos: EquationOfState, d: int,
                 tol_det: float, sign: float = 1.0, where: str = "boundary"):
        A_d, ok = boundary_matrix(state, eos, d, tol_det=tol_det)
        if not ok:
            raise CharacteristicBoundary(f"{where} x_{d} = const is characteristic")
        self.a_d_inv = sign * np.linalg.inv(A_d)
        self.a_t1, self.a_t2 = (
            self.a_d_inv @ assemble_full_symbol(state, eos, unit_vector(t))
            for t in _tangential_axes(d))
        self.dim = int(np.sum(sign * np.linalg.eigvals(A_d).real > 0.0))

    def G(self, zf) -> np.ndarray:
        """s G at a BoundaryFrequency, or stacked at each row of an (N, 4) array."""
        if isinstance(zf, BoundaryFrequency):
            zf = (zf.tau, zf.gamma_L, *zf.eta)
        tau, gamma_L, eta1, eta2 = np.asarray(zf, dtype=float).T[..., None, None]
        return ((tau - 1j * gamma_L) * self.a_d_inv
                + eta1 * self.a_t1 + eta2 * self.a_t2)


def _tangential_axes(d: int) -> tuple[int, int]:
    axes = [a for a in (1, 2, 3) if a != d]
    if len(axes) != 2:
        raise ValueError(f"axis index must be 1, 2 or 3, got {d}")
    return axes[0], axes[1]


def stable_subspace(G: np.ndarray, gamma_L: float,
                    a_d_inv: np.ndarray | None = None,
                    eps_cont: float = 1e-6) -> np.ndarray:
    """Orthonormal basis of the invariant subspace of G for {Im mu < 0}.

    Computed by an ordered complex Schur reduction with the Im mu < 0
    eigenvalues sorted first.  This is the per-point reference: scans take
    E_minus without it (a symmetrizer certificate for a side of dimension 0
    or 8, a left eigenvector's orthogonal complement for dimension 7, a
    batched eigendecomposition plus QR otherwise) and come back here only
    for the rows the batch cannot trust.  At the hemisphere boundary
    (gamma_L = 0, extended to gamma_L <= 1e-8 where the gap is numerically
    untrustable) the limit subspace is taken by continuation: the same
    (tau, eta) evaluated at gamma_L = eps_cont, which shifts G by
    -i (eps_cont - gamma_L) A_d^{-1} (hence a_d_inv is required there).
    Raises SpectralSplitFailure when the spectral gap min |Im mu| is below
    the fixed threshold 1e-12 while gamma_L > 1e-8.
    """
    if gamma_L < 0.0:
        raise ValueError("gamma_L must be >= 0")
    if gamma_L <= 1e-8:
        # At and just above the hemisphere boundary the spectral gap closes;
        # use the continuation limit along the (tau, eta) ray.
        if a_d_inv is None:
            raise ValueError(
                "gamma_L <= 1e-8 needs a_d_inv for the continuation limit")
        G = G - 1j * (eps_cont - gamma_L) * a_d_inv
        gamma_L = eps_cont
    T, Z, sdim = scipy.linalg.schur(
        np.asarray(G, dtype=complex), output="complex",
        sort=lambda mu: mu.imag < 0.0)
    gap = float(np.min(np.abs(np.diag(T).imag)))
    if gap < 1e-12 and gamma_L > 1e-8:
        raise SpectralSplitFailure(
            f"stable/unstable splitting ambiguous: min |Im mu| = {gap:.3e} "
            f"at gamma_L = {gamma_L:.3e}")
    return Z[:, :sdim]


class BoundaryOperator:
    """Boundary condition matrix M of shape (p, n), possibly zeta-dependent.

    rank(M) = p is required wherever the operator is evaluated; kernel_dim
    = n - p.  Wrap a fixed matrix with `from_matrix`, or pass a callable
    zf -> matrix to the constructor.
    """

    def __init__(self, evaluator, n: int, p: int):
        self._evaluator = evaluator
        self.n = int(n)
        self.p = int(p)
        # for scans, see `_range_rows`
        self._closed_form = None

    @property
    def kernel_dim(self) -> int:
        return self.n - self.p

    @classmethod
    def from_matrix(cls, M) -> "BoundaryOperator":
        M = np.atleast_2d(np.asarray(M, dtype=complex))
        op = cls(lambda zf: M, n=M.shape[1], p=M.shape[0])
        V, ok = _svd_rows(M[None], np.ones(1, dtype=bool))
        op._closed_form = lambda P: (V, ok)
        return op

    def matrix(self, zf: BoundaryFrequency | None = None) -> np.ndarray:
        M = np.atleast_2d(np.asarray(self._evaluator(zf), dtype=complex))
        if M.shape != (self.p, self.n):
            raise DimensionMismatch(
                f"boundary operator produced shape {M.shape}, expected {(self.p, self.n)}")
        return M

    def kernel_basis(self, zf: BoundaryFrequency | None = None) -> np.ndarray:
        """Orthonormal basis of ker M; raises RankDeficiency if rank < p."""
        vh = _right_singular_rows(self.matrix(zf), full_matrices=True)
        return vh[self.p:, :].conj().T


def _right_singular_rows(M: np.ndarray, full_matrices: bool) -> np.ndarray:
    """V^H of the SVD M = U S V^H: its first p rows span range(M^H), the rest
    (full_matrices only) span ker M.  Raises RankDeficiency if rank M < p."""
    _, s, vh = np.linalg.svd(M, full_matrices=full_matrices)
    if s.size and s[-1] <= 1e-10 * max(s[0], 1e-300):
        raise RankDeficiency(
            f"boundary operator rank-deficient: singular values {s}")
    return vh


@dataclass(frozen=True)
class LopatinskiResult:
    """Lopatinski determinant at one frequency point."""

    k: int
    abs_D: float
    diagnostics: dict


def lopatinski_det(E_minus: np.ndarray, M: BoundaryOperator,
                   zf: BoundaryFrequency | None = None) -> LopatinskiResult:
    """det(E_minus, ker M) from orthonormal bases of both subspaces.

    The reference evaluation: |D| is the QR-based value |prod r_ii| of the
    square matrix [E_minus | ker M]; the Gram route sqrt(prod(1 - s_i^2))
    over the singular values of E_minus^H K is an independent check
    reported in the diagnostics.  |D| = 0 iff the subspaces intersect,
    |D| = 1 iff they are orthogonal complements.  Scans use |det(V E_minus)|
    with V an orthonormal basis of range(M^H), equal for orthonormal bases.
    """
    E = np.asarray(E_minus, dtype=complex)
    K = M.kernel_basis(zf)
    n, k = E.shape
    if k + K.shape[1] != n:
        raise DimensionMismatch(
            f"dim E_minus ({k}) + dim ker M ({K.shape[1]}) != {n}")
    F = np.hstack([E, K])
    r = np.linalg.qr(F, mode="r")
    abs_qr = float(np.prod(np.abs(np.diag(r))))
    cross = E.conj().T @ K
    s = np.linalg.svd(cross, compute_uv=False) if min(cross.shape) else np.array([])
    abs_gram = float(np.sqrt(np.prod(np.clip(1.0 - s**2, 0.0, None)))) if s.size else 1.0
    return LopatinskiResult(
        k=k,
        abs_D=min(abs_qr, 1.0),
        diagnostics={"abs_D_qr": abs_qr, "abs_D_gram": abs_gram,
                     "algorithm_disagreement": abs(abs_qr - abs_gram)},
    )


# ----------------------------------------------------------------------------
# Scans
# ----------------------------------------------------------------------------

@dataclass
class ScanResult:
    """Outcome of a hemisphere scan: rows in grid order plus a failure report.

    min_abs_D/argmin report the polished minimum when the argmin-polish
    stage is enabled; the raw sweep minimum is kept alongside.  CSV rows
    are the sweep only.
    """

    min_abs_D: float | None
    argmin: BoundaryFrequency | None
    sweep_min_abs_D: float | None
    sweep_argmin: BoundaryFrequency | None
    rows: list[tuple]
    failures: list[dict]
    histogram: list[int]
    expected_dim: int
    n_points: int
    grid: dict
    polish: dict
    n_fallback: int  # sweep and polish rows evaluated on the per-point path

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("tau,gamma_L,eta1,eta2,abs_D,dim_Eminus\n")
            for tau, gamma, eta1, eta2, abs_D, dim in self.rows:
                fh.write(f"{tau:.17g},{gamma:.17g},{eta1:.17g},{eta2:.17g},"
                         f"{abs_D:.17g},{dim:d}\n")

    def summary(self) -> dict:
        return {
            "min_abs_D": self.min_abs_D,
            "argmin": self.argmin.to_dict() if self.argmin is not None else None,
            "sweep_min_abs_D": self.sweep_min_abs_D,
            "sweep_argmin": (self.sweep_argmin.to_dict()
                             if self.sweep_argmin is not None else None),
            "grid": self.grid,
            "polish": self.polish,
            "expected_dim_Eminus": self.expected_dim,
            "n_points": self.n_points,
            "n_rows": len(self.rows),
            "failures": self.failures,
            "histogram": self.histogram,
            "diagnostics": {"n_fallback": self.n_fallback},
        }


class _ScanProblem:
    """Internal bundle: the sides, whose traces stack in order, and the
    operator.  G_of and a_d_inv are the direct sums over the sides."""

    def __init__(self, sides, operator: BoundaryOperator):
        if operator.n != 8 * len(sides):
            raise DimensionMismatch(f"boundary operator acts on {operator.n} "
                                    f"components, the trace has {8 * len(sides)}")
        self.sides = sides
        self.operator = operator
        self.expected_dim = sum(side.dim for side in sides)

    @property
    def a_d_inv(self) -> np.ndarray:
        return scipy.linalg.block_diag(*[side.a_d_inv for side in self.sides])

    def G_of(self, zf: BoundaryFrequency) -> np.ndarray:
        return scipy.linalg.block_diag(*[side.G(zf) for side in self.sides])


def _one_sided_problem(state, eos, d, M, tol_det) -> _ScanProblem:
    operator = M if isinstance(M, BoundaryOperator) else BoundaryOperator.from_matrix(M)
    return _ScanProblem((_Side(state, eos, d, tol_det),), operator)


_CHUNK = 256  # rows per batched evaluation of the sweep; bounds the stacked arrays


def _svd_rows(M: np.ndarray, ok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V^H of each thin SVD in a stack; ok narrowed by `_right_singular_rows`' test."""
    _, s, vh = np.linalg.svd(M, full_matrices=False)
    if s.shape[-1]:
        ok = ok & (s[:, -1] > 1e-10 * np.maximum(s[:, 0], 1e-300))
    return vh, ok


def _range_rows(operator: BoundaryOperator):
    """Once per scan: P -> (V, ok), V orthonormal rows spanning range(M^H) at each
    row of P (a stack of one for a constant M), ok where M evaluated at full rank."""
    if operator._closed_form is not None:
        return operator._closed_form

    def per_point(P: np.ndarray):
        M = np.zeros((len(P), operator.p, operator.n), dtype=complex)
        ok = np.ones(len(P), dtype=bool)
        for i, row in enumerate(P):
            try:
                M[i] = operator.matrix(_frequency(row))
            except MhdStabError:
                ok[i] = False
        return _svd_rows(M, ok)
    return per_point


@dataclass(frozen=True)
class _Complement:
    """One side's E_minus given by the rows W^H of an orthonormal basis W of
    its orthogonal complement."""

    rows: np.ndarray


def _abs_det(V: np.ndarray, bases) -> np.ndarray:
    """min(|det(V E)|, 1) for E the direct sum of the sides' bases, taken side
    by side; V and the bases may carry a leading stack axis.  For a side given
    as a `_Complement`, [E W] is unitary, so its columns V_i E_i of V E may
    be traded for V_i with the rows W^H appended under them: the |det| of
    that square matrix is |det(V E)|."""
    cols, under = [], []
    for i, E in enumerate(bases):
        V_i = V[..., 8 * i:8 * (i + 1)]
        if isinstance(E, _Complement):
            under.append((sum(c.shape[-1] for c in cols), E.rows))
            cols.append(V_i)
        else:
            cols.append(V_i @ E)
    stack = np.broadcast_shapes(*(c.shape[:-2] for c in cols),
                                *(R.shape[:-2] for _, R in under))
    Z = np.concatenate([np.broadcast_to(c, stack + c.shape[-2:]) for c in cols], axis=-1)
    for start, R in under:
        rows = np.zeros(stack + (R.shape[-2], Z.shape[-1]), dtype=complex)
        rows[..., start:start + 8] = R
        Z = np.concatenate([Z, rows], axis=-2)
    return np.minimum(np.abs(np.linalg.det(Z)), 1.0)


def _point_abs_D(problem: _ScanProblem, zf: BoundaryFrequency,
                 eps_cont: float) -> float:
    """|D| at one point on the reference path: ordered Schur and dim E_minus
    check per side, then `lopatinski_det`.  Raises the point's MhdStabError."""
    bases = []
    for i, side in enumerate(problem.sides):
        E = stable_subspace(side.G(zf), zf.gamma_L, a_d_inv=side.a_d_inv,
                            eps_cont=eps_cont)
        # checked at continuation points too: a shift of the wrong sign
        # shows there as a wrong dimension
        if E.shape[1] != side.dim:
            raise SpectralSplitFailure(
                f"side {i}: dim E_minus = {E.shape[1]}, expected {side.dim}")
        bases.append(E)
    return lopatinski_det(scipy.linalg.block_diag(*bases), problem.operator, zf).abs_D


def _evaluate(problem: _ScanProblem, range_rows, P: np.ndarray,
              eps_cont: float) -> tuple[np.ndarray, dict, int]:
    """|D| at each (tau, gamma_L, eta1, eta2) row of P, the MhdStabError of
    each failed row by row index (its |D| entry is NaN), and the number of
    rows sent to the per-point path.

    Per side, on the stacked G (shifted at continuation rows):
      * dimension 0 or 8: E_minus is 0 or C^8.  When the side's a_d_inv has
        all its eigenvalues of the sign dim implies, the symmetrizer's energy
        identity gives every eigenvalue of G that sign's Im mu with |Im mu| >=
        gamma min |lambda(a_d_inv)| (gamma = eps_cont at continuation rows), so
        a row whose bound clears the gap test twice over needs no eigenvalues;
        the other rows keep the `eigvals` sign count.
      * dimension 7: E_minus is the orthogonal complement of the left
        eigenvector w of the single Im mu > 0 root (`_left_vector`), so
        `_abs_det` takes w^H in place of a basis: for the fast shock |D| =
        |det([V[:, :8]; w^H])|, an 8x8 determinant.
      * any other: the QR of the Im mu < 0 unit eigenvectors of a batched `eig`.
    A row goes to `_point_abs_D` when a count is wrong, min |Im mu| < 1e-8,
    the left vector fails its residual test, min |r_ii| < 1e-6 max |r_ii|, or
    `range_rows` does not vouch for it; so failures come from there.
    """
    cont = P[:, 1] <= 1e-8  # as in stable_subspace
    gamma = np.where(cont, eps_cont, P[:, 1])  # the damping each row's G carries
    trusted = np.ones(len(P), dtype=bool)
    bases = []
    for side in problem.sides:
        need = np.ones(len(P), dtype=bool)  # rows whose split needs eigenvalues
        E = np.eye(8)[:, :side.dim]  # E_minus at dimension 0 or 8
        if side.dim in (0, 8):
            lam = np.linalg.eigvals(side.a_d_inv)
            if np.all((lam.real > 0.0) == (side.dim == 8)):
                # the factor 2 covers the rounding of the bound and of eigvals
                need = gamma * np.abs(lam).min() < 2e-8
        if need.any():
            G = side.G(P[need])
            shift = cont[need]
            G[shift] -= (1j * (eps_cont - P[need][shift, 1]))[:, None, None] * side.a_d_inv
            if side.dim in (0, 7, 8):
                mu = np.linalg.eigvals(G)
                if side.dim == 7:
                    w, ok = _left_vector(G, mu[np.arange(len(G)), np.argmax(mu.imag, axis=1)])
                    E = _Complement(w.conj()[:, None, :])
                    trusted &= ok
            else:
                mu, X = np.linalg.eig(G)
                stable = np.argsort(mu.imag >= 0.0, axis=1, kind="stable")[:, :side.dim]
                E, R = np.linalg.qr(np.take_along_axis(X, stable[:, None, :], axis=2))
                r = np.abs(np.diagonal(R, axis1=1, axis2=2))
                trusted &= r.min(axis=1) >= 1e-6 * r.max(axis=1)
            trusted[need] &= ((np.count_nonzero(mu.imag < 0.0, axis=1) == side.dim)
                              & (np.abs(mu.imag).min(axis=1) >= 1e-8))
        bases.append(E)
    V, ok = range_rows(P)
    trusted &= ok
    if V.shape[-2] == problem.expected_dim:
        abs_D = np.broadcast_to(_abs_det(V, bases), len(P)).copy()
    else:  # no row can pass the dimension check
        abs_D = np.zeros(len(P))
        trusted[:] = False
    errors = {}
    for i in np.flatnonzero(~trusted):
        try:
            abs_D[i] = _point_abs_D(problem, _frequency(P[i]), eps_cont)
        except MhdStabError as exc:
            abs_D[i] = np.nan
            errors[int(i)] = exc
    return abs_D, errors, int(np.count_nonzero(~trusted))


def _left_vector(G: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit w with G^H w = conj(mu) w at each matrix of the stack G, for a
    simple eigenvalue mu of each: two steps of inverse iteration on G^H -
    conj(mu) from the all-ones vector.  ok where the residual |G^H w -
    conj(mu) w| is at most 5e-14 |G|_F, about 200 rounding units (one step
    does not always get there).  A row whose shifted matrix is exactly
    singular fails; a failed row gets the unit all-ones vector, so the stack
    stays finite."""
    A = G.conj().transpose(0, 2, 1) - mu.conj()[:, None, None] * np.eye(8)
    w = np.ones((len(G), 8, 1), dtype=complex)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for _ in range(2):
            w = _solve(A, w)
            w /= np.linalg.norm(w, axis=1, keepdims=True)
        residual = np.linalg.norm(A @ w, axis=(1, 2))
    ok = residual <= 5e-14 * np.linalg.norm(G, axis=(1, 2))
    return np.where(ok[:, None], w[..., 0], 8.0 ** -0.5), ok


def _solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve over a stack, with NaN rows where the LU of A is exactly
    singular (the batched call raises for the whole stack)."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return np.full_like(b, np.nan)
        h = len(A) // 2
        return np.concatenate([_solve(A[:h], b[:h]), _solve(A[h:], b[h:])])


def _scan(problem: _ScanProblem, grid, eps_cont: float,
          polish_rounds: int) -> ScanResult:
    if grid is None:
        grid = HemisphereGrid()
    P = grid._rows()
    range_rows = _range_rows(problem.operator)
    n_fallback = 0

    def evaluate(rows: np.ndarray) -> tuple[np.ndarray, dict]:
        nonlocal n_fallback
        values, errors, n = _evaluate(problem, range_rows, rows, eps_cont)
        n_fallback += n
        return values, errors

    values = np.empty(len(P))
    failures: list[dict] = []
    for start in range(0, len(P), _CHUNK):
        values[start:start + _CHUNK], errors = evaluate(P[start:start + _CHUNK])
        failures += [{"index": start + i, "zeta": _frequency(P[start + i]).to_dict(),
                      "type": type(exc).__name__, "message": str(exc)}
                     for i, exc in errors.items()]
    ok = ~np.isnan(values)
    rows = [(*row, abs_D, problem.expected_dim)
            for row, abs_D in zip(P[ok].tolist(), values[ok].tolist())]
    histogram = np.bincount(np.minimum((values[ok] * 20.0).astype(int), 19),
                            minlength=20).tolist()
    min_abs = argmin = None
    if ok.any():
        best = int(np.flatnonzero(ok)[np.argmin(values[ok])])  # first minimum
        min_abs, argmin = float(values[best]), _frequency(P[best])

    sweep_min, sweep_argmin = min_abs, argmin
    polish_info: dict = {"rounds": 0}
    polish_radius = _polish_radius(grid)
    if polish_rounds > 0 and argmin is not None and polish_radius is not None:
        min_abs, argmin, n_eval = _polish_min(
            evaluate, argmin, min_abs, polish_rounds, polish_radius, failures)
        polish_info = {"rounds": polish_rounds, "radius": polish_radius,
                       "n_evaluations": n_eval}

    return ScanResult(
        min_abs_D=min_abs,
        argmin=argmin,
        sweep_min_abs_D=sweep_min,
        sweep_argmin=sweep_argmin,
        rows=rows,
        failures=failures,
        histogram=histogram,
        expected_dim=problem.expected_dim,
        n_points=len(P),
        grid=grid.describe(),
        polish=polish_info,
        n_fallback=n_fallback,
    )


def _polish_radius(grid) -> float | None:
    if isinstance(grid, HemisphereGrid):
        # twice the typical equator-point spacing
        return 2.0 * math.sqrt(4.0 * math.pi / (grid.equator_refine * grid.n_sphere))
    return None


# One polish round's 5^3 - 1 = 124 offsets in tangent-frame units, c3 fastest.
_POLISH_OFFSETS = np.array([c for c in itertools.product(
    (-1.0, -0.5, 0.0, 0.5, 1.0), repeat=3) if any(c)])


def _polish_min(evaluate, zf0: BoundaryFrequency, abs0: float, rounds: int,
                radius: float, failures: list[dict]) -> tuple[float, BoundaryFrequency, int]:
    """Deterministic local refinement of the sweep argmin.

    The minimum of |D| typically sits in a conical valley along a glancing
    circle on the gamma_L = 0 equator, where grid sampling converges only
    linearly in the spacing; a few rounds of shrinking lattice search around
    the argmin recover the valley bottom to high accuracy at negligible
    cost.  Points are projected back to the closed hemisphere.  Each
    round's lattice is one batched evaluation; its winner is the first
    lattice point, in lattice order, of least |D| below the best so far.
    """
    center = np.array([zf0.tau, zf0.gamma_L, zf0.eta[0], zf0.eta[1]])
    best_val, best_zf = abs0, zf0
    n_eval = 0
    for round_idx in range(rounds):
        # orthonormal tangent frame of the unit 3-sphere at the center
        q, _ = np.linalg.qr(np.column_stack([center, np.eye(4)]))
        # a matrix-vector and a dot product per point, as a point loop takes
        lattice = center + radius * (q[:, 1:4] @ _POLISH_OFFSETS[:, :, None])[..., 0]
        lattice[lattice[:, 1] < 1e-12, 1] = 0.0  # snap to the equator face
        norm = np.sqrt((lattice[:, None, :] @ lattice[:, :, None]).ravel())
        lattice = lattice[norm != 0.0] / norm[norm != 0.0, None]
        n_eval += len(lattice)
        values, errors = evaluate(lattice)
        failures += [{"stage": "polish", "round": round_idx,
                      "zeta": _frequency(lattice[i]).to_dict(),
                      "type": type(exc).__name__, "message": str(exc)}
                     for i, exc in errors.items()]
        ok = np.flatnonzero(~np.isnan(values))
        if ok.size:
            i = int(ok[np.argmin(values[ok])])
            if values[i] < best_val:
                best_val, best_zf = float(values[i]), _frequency(lattice[i])
                center = lattice[i]
        radius *= 0.35
    return best_val, best_zf, n_eval


def uniform_scan(state: ThermoState, eos: EquationOfState, d: int, M,
                 sampling=None, *, tol_det: float = 1e-10,
                 eps_cont: float = 1e-6, polish_rounds: int = 6) -> ScanResult:
    """Scan |D| over the unit hemisphere for a one-sided boundary problem.

    M is a BoundaryOperator (or a plain matrix) with as many rows as A_d
    has positive eigenvalues.  `sampling` defaults to HemisphereGrid().
    Per-point science errors are collected into the failure report, never
    silently skipped; the reduction is by grid order, so results are
    deterministic.  The argmin polish runs `polish_rounds` rounds on a
    HemisphereGrid, starting from twice its equator spacing; other grids
    are not polished.
    """
    return _scan(_one_sided_problem(state, eos, d, M, tol_det), sampling,
                 eps_cont, polish_rounds)


# ----------------------------------------------------------------------------
# Conservation laws: conserved variables, fluxes, Jacobians
# ----------------------------------------------------------------------------

def _split(v: np.ndarray):
    return v[0], v[1:4], v[4], v[5:8]


def conserved_vector(v: np.ndarray, eos: EquationOfState) -> np.ndarray:
    """Conserved quantities q = (rho, rho u, E, B) from primitive (rho, u, theta, B)."""
    rho, u, theta, B = _split(v)
    ev = eval_eos(eos, rho, theta)
    E = rho * (ev.e + 0.5 * float(u @ u)) + 0.5 * float(B @ B)
    return np.concatenate([[rho], rho * u, [E], B])


def flux_vector(v: np.ndarray, eos: EquationOfState, k: int) -> np.ndarray:
    """Flux of (mass, momentum, energy, induction) in the 1-based direction k."""
    rho, u, theta, B = _split(v)
    ev = eval_eos(eos, rho, theta)
    kk = k - 1
    ptot = ev.P + 0.5 * float(B @ B)
    E = rho * (ev.e + 0.5 * float(u @ u)) + 0.5 * float(B @ B)
    e_k = np.zeros(3)
    e_k[kk] = 1.0
    mass = rho * u[kk]
    mom = rho * u[kk] * u + ptot * e_k - B[kk] * B
    energy = (E + ptot) * u[kk] - float(u @ B) * B[kk]
    ind = u[kk] * B - B[kk] * u
    return np.concatenate([[mass], mom, [energy], ind])


def conserved_jacobian(v: np.ndarray, eos: EquationOfState) -> np.ndarray:
    """d q / d (rho, u, theta, B)."""
    rho, u, theta, B = _split(v)
    ev = eval_eos(eos, rho, theta)
    e_rho = e_rho_consistent(ev, rho, theta)
    J = np.zeros((8, 8))
    J[0, 0] = 1.0
    J[1:4, 0] = u
    J[1:4, 1:4] = rho * np.eye(3)
    J[4, 0] = ev.e + rho * e_rho + 0.5 * float(u @ u)
    J[4, 1:4] = rho * u
    J[4, 4] = rho * ev.e_theta
    J[4, 5:8] = B
    J[5:8, 5:8] = np.eye(3)
    return J


def flux_jacobian(v: np.ndarray, eos: EquationOfState, k: int) -> np.ndarray:
    """d flux_k / d (rho, u, theta, B), analytic."""
    rho, u, theta, B = _split(v)
    ev = eval_eos(eos, rho, theta)
    e_rho = e_rho_consistent(ev, rho, theta)
    kk = k - 1
    ptot = ev.P + 0.5 * float(B @ B)
    E = rho * (ev.e + 0.5 * float(u @ u)) + 0.5 * float(B @ B)
    uB = float(u @ B)
    I3 = np.eye(3)
    J = np.zeros((8, 8))
    # mass row
    J[0, 0] = u[kk]
    J[0, 1 + kk] = rho
    # momentum rows
    J[1:4, 0] = u * u[kk]
    J[1 + kk, 0] += ev.P_rho
    J[1:4, 1:4] = rho * (I3 * u[kk] + np.outer(u, I3[kk]))
    J[1 + kk, 4] = ev.P_theta
    for i in range(3):
        for j in range(3):
            J[1 + i, 5 + j] = B[j] * (1.0 if i == kk else 0.0) \
                - (1.0 if i == j else 0.0) * B[kk] \
                - B[i] * (1.0 if j == kk else 0.0)
    # energy row
    J[4, 0] = (ev.e + rho * e_rho + 0.5 * float(u @ u) + ev.P_rho) * u[kk]
    J[4, 1:4] = rho * u * u[kk] - B * B[kk]
    J[4, 1 + kk] += E + ptot
    J[4, 4] = (rho * ev.e_theta + ev.P_theta) * u[kk]
    J[4, 5:8] = 2.0 * B * u[kk] - u * B[kk]
    J[4, 5 + kk] -= uB
    # induction rows
    for i in range(3):
        for j in range(3):
            J[5 + i, 1 + j] = (1.0 if j == kk else 0.0) * B[i] \
                - (1.0 if i == j else 0.0) * B[kk]
            J[5 + i, 5 + j] = u[kk] * (1.0 if i == j else 0.0) \
                - u[i] * (1.0 if j == kk else 0.0)
    return J


# ----------------------------------------------------------------------------
# Planar shocks
# ----------------------------------------------------------------------------

_LAX_PATTERNS = {
    # family -> (positive eigenvalues upstream, negative eigenvalues downstream)
    "fast": (8, 1),
    "slow": (6, 3),
}


@dataclass(frozen=True)
class PlanarShock:
    """Planar Lax shock; left (upstream) and right (downstream) states are in
    the shock frame, so their normal velocity along `axis` is relative to
    the front.  `sigma` is the lab-frame front speed."""

    left: ThermoState
    right: ThermoState
    sigma: float
    axis: int
    lax_family: str
    eos: EquationOfState
    residual: float
    lax_valid: bool
    noncharacteristic: bool

    def jump_residual(self) -> np.ndarray:
        """Scaled Rankine-Hugoniot residual of the stored pair."""
        return _rh_residual(self.left.as_array(), self.right.as_array(),
                            self.eos, self.axis)

    def to_dict(self) -> dict:
        return {
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
            "sigma": self.sigma,
            "axis": self.axis,
            "lax_family": self.lax_family,
            "eos": eos_to_dict(self.eos),
            "residual": self.residual,
            "lax_valid": self.lax_valid,
            "noncharacteristic": self.noncharacteristic,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PlanarShock":
        eos = eos_from_dict(d["eos"])
        left = ThermoState.from_dict(d["left"])
        right = ThermoState.from_dict(d["right"])
        axis = int(d["axis"])
        family = d["lax_family"]
        residual = float(np.max(np.abs(_rh_residual(
            left.as_array(), right.as_array(), eos, axis))))
        lax_valid, noncharacteristic = _shock_flags(left, right, eos, axis, family)
        return cls(left=left, right=right, sigma=float(d["sigma"]), axis=axis,
                   lax_family=family, eos=eos, residual=residual,
                   lax_valid=lax_valid, noncharacteristic=noncharacteristic)


def _rh_rows(axis: int) -> list[int]:
    """Rows of the flux vector entering the jump solve: mass, momentum,
    energy and the tangential induction components (normal induction is
    replaced by B_d continuity, imposed directly on the unknowns)."""
    t1, t2 = _tangential_axes(axis)
    return [0, 1, 2, 3, 4, 4 + t1, 4 + t2]


def _rh_scales(upstream_vec: np.ndarray, eos: EquationOfState, axis: int) -> np.ndarray:
    rho, u, theta, B = _split(upstream_vec)
    state = ThermoState(rho=rho, u=u, theta=theta, B=B)
    ws = wave_speeds(state, eos, unit_vector(axis))
    V = max(ws.c_f, abs(u[axis - 1]), 1e-30)
    m = rho * V
    b_scale = max(float(np.linalg.norm(B)), math.sqrt(rho) * V)
    scales = np.empty(7)
    scales[0] = m
    scales[1:4] = m * V
    scales[4] = m * V * V
    scales[5:7] = V * b_scale
    return scales


def _rh_residual(left_vec: np.ndarray, right_vec: np.ndarray,
                 eos: EquationOfState, axis: int) -> np.ndarray:
    rows = _rh_rows(axis)
    diff = flux_vector(right_vec, eos, axis) - flux_vector(left_vec, eos, axis)
    return diff[rows] / _rh_scales(left_vec, eos, axis)


def _shock_flags(left: ThermoState, right: ThermoState, eos: EquationOfState,
                 axis: int, family: str) -> tuple[bool, bool]:
    pattern = _LAX_PATTERNS.get(family)
    counts = []
    nonchar = True
    for side in (left, right):
        A_d = assemble_full_symbol(side, eos, unit_vector(axis))
        evs = np.linalg.eigvals(A_d).real
        scale = max(float(np.max(np.abs(evs))), 1e-30)
        if float(np.min(np.abs(evs))) <= 1e-10 * scale:
            nonchar = False
        counts.append((int(np.sum(evs > 0.0)), int(np.sum(evs < 0.0))))
    lax = (pattern is not None and nonchar
           and counts[0][0] == pattern[0] and counts[1][1] == pattern[1])
    return lax, nonchar


def _gas_seed(upstream_vec: np.ndarray, eos: EquationOfState, axis: int,
              w_minus: float) -> np.ndarray:
    """Gas-dynamic normal-shock seed for the downstream unknowns."""
    rho, u, theta, B = _split(upstream_vec)
    ev = eval_eos(eos, rho, theta)
    state = ThermoState(rho=rho, u=u, theta=theta, B=B)
    ws = wave_speeds(state, eos, unit_vector(axis))
    gamma_eff = max(rho * ws.c0**2 / ev.P, 1.0 + 1e-6)
    m_gas = max(w_minus / ws.c0, 1.0 + 1e-12)
    r = max(((gamma_eff + 1.0) * m_gas**2)
            / ((gamma_eff - 1.0) * m_gas**2 + 2.0), 1.0)
    p_ratio = max(1.0 + 2.0 * gamma_eff / (gamma_eff + 1.0) * (m_gas**2 - 1.0), 1.0)
    t1, t2 = _tangential_axes(axis)
    u_plus = u.copy()
    u_plus[axis - 1] = w_minus / r
    x0 = np.empty(7)
    x0[0] = rho * r
    x0[1:4] = u_plus
    x0[4] = theta * p_ratio / r
    x0[5] = B[t1 - 1] * r
    x0[6] = B[t2 - 1] * r
    return x0


def _pack_downstream(x: np.ndarray, upstream_vec: np.ndarray, axis: int) -> np.ndarray:
    v = upstream_vec.copy()  # normal field component inherited: [B_d] = 0
    v[_rh_rows(axis)] = x
    return v


def rankine_hugoniot(eos: EquationOfState, upstream: ThermoState,
                     family: str = "fast", mach: float = 2.0, d: int = 3,
                     B=None, seed_downstream: ThermoState | None = None) -> PlanarShock:
    """Construct a planar Lax shock from an upstream state and a strength.

    `mach` is the upstream normal velocity relative to the front in units
    of the upstream characteristic speed of the chosen family evaluated
    along the shock normal (fast speed for family="fast").  The front
    speed is sigma = u_d - mach * c_family, and the stored left/right
    states are expressed in the shock frame.  mach = 1 produces the
    zero-strength degenerate shock (downstream = upstream, front moving at
    the characteristic speed) with the validity flags false.  A damped
    Newton iteration on the scaled jump conditions starts from the
    gas-dynamic seed (or from `seed_downstream` when continuing in a
    parameter); failure to converge or a Lax-count mismatch raises
    NoAdmissibleShock.
    """
    if family not in _LAX_PATTERNS:
        raise NoAdmissibleShock(f"unknown Lax family {family!r}")
    if B is not None:
        upstream = replace(upstream, B=np.asarray(B, dtype=float))
    if mach < 1.0:
        raise NoAdmissibleShock(
            f"mach must be >= 1 for an entropy-admissible shock, got {mach}")

    ws = wave_speeds(upstream, eos, unit_vector(d))
    c_ref = ws.c_f if family == "fast" else ws.c_s
    if c_ref <= 0.0:
        raise NoAdmissibleShock(
            f"{family} characteristic speed vanishes along the shock normal")
    w_minus = mach * c_ref
    sigma = float(upstream.u[d - 1]) - w_minus

    u_frame = upstream.u.copy()
    u_frame[d - 1] = w_minus
    left = replace(upstream, u=u_frame)
    left_vec = left.as_array()

    if mach <= 1.0 + 1e-12:
        # zero-strength limit: the degenerate shock moving at the
        # characteristic speed, downstream identical to upstream
        lax_valid, noncharacteristic = _shock_flags(left, left, eos, d, family)
        return PlanarShock(left=left, right=left, sigma=sigma, axis=d,
                           lax_family=family, eos=eos, residual=0.0,
                           lax_valid=lax_valid,
                           noncharacteristic=noncharacteristic)

    scales = _rh_scales(left_vec, eos, d)
    rows = _rh_rows(d)
    f_left = flux_vector(left_vec, eos, d)

    def residual(x: np.ndarray) -> np.ndarray:
        v = _pack_downstream(x, left_vec, d)
        if v[0] <= 0.0 or v[4] <= 0.0 or not np.all(np.isfinite(v)):
            return np.full(7, np.inf)
        return (flux_vector(v, eos, d) - f_left)[rows] / scales

    def jacobian(x: np.ndarray) -> np.ndarray:
        # the unknowns are the primitive components of the same indices
        v = _pack_downstream(x, left_vec, d)
        return flux_jacobian(v, eos, d)[np.ix_(rows, rows)] / scales[:, None]

    if seed_downstream is not None:
        x = seed_downstream.as_array()[rows]
    else:
        x = _gas_seed(left_vec, eos, d, w_minus)

    r = residual(x)
    r_norm = float(np.max(np.abs(r)))
    converged = r_norm < 1e-13
    for _ in range(80):
        if converged:
            break
        try:
            step = np.linalg.solve(jacobian(x), -r)
        except np.linalg.LinAlgError as exc:
            raise NoAdmissibleShock(f"singular jump Jacobian: {exc}") from exc
        t = 1.0
        while t >= 1.0 / 1024.0:
            r_new = residual(x + t * step)
            n_new = float(np.max(np.abs(r_new)))
            if n_new < r_norm:
                x = x + t * step
                r, r_norm = r_new, n_new
                break
            t *= 0.5
        else:
            break
        converged = r_norm < 1e-13
    if not converged and r_norm > 1e-10:
        raise NoAdmissibleShock(
            f"jump-condition Newton did not converge: scaled residual {r_norm:.3e}")

    right_vec = _pack_downstream(x, left_vec, d)
    try:
        right = ThermoState.from_array(right_vec)
    except MhdStabError as exc:
        raise NoAdmissibleShock(f"downstream state is not admissible: {exc}") from exc

    lax_valid, noncharacteristic = _shock_flags(left, right, eos, d, family)
    degenerate = float(np.linalg.norm(right_vec - left_vec)) <= 1e-10 * float(
        np.linalg.norm(left_vec))
    if degenerate:
        raise NoAdmissibleShock(
            "Newton converged to the trivial (no-jump) solution")
    if not lax_valid:
        raise NoAdmissibleShock(
            f"solution violates the Lax {family}-family pattern "
            f"(counts or characteristic boundary)")
    return PlanarShock(left=left, right=right, sigma=sigma, axis=d,
                       lax_family=family, eos=eos, residual=r_norm,
                       lax_valid=lax_valid, noncharacteristic=noncharacteristic)


# ----------------------------------------------------------------------------
# Shock boundary operator and two-sided scan
# ----------------------------------------------------------------------------

def shock_boundary_operator(shock: PlanarShock,
                            zf: BoundaryFrequency | None = None) -> BoundaryOperator:
    """Majda-type linearized jump conditions with the front eliminated.

    Acts on the stacked trace (u_right(0), u_left(0)) of the reflected
    two-sided problem; see the module docstring for the construction and
    sign conventions.  With `zf` supplied, the operator is frozen at that
    frequency; otherwise it is frequency dependent.  Raises RankDeficiency
    (possibly at evaluation time) when the front coefficient degenerates,
    e.g. for a zero-strength shock.  Scans skip the SVD of M: with N_pair^H
    = W R, the rows of M = H(b_hat)[1:] R^H W^H span {y W^H : y g = 0}, g =
    R^{-H} b_f, as do the orthonormal rows of H(g_hat)[1:] W^H.  By
    interlacing, s_7(M) >= s_8(N_pair) and s_1(M) <= s_1(N_pair), so M
    passes the rank test wherever N_pair does; if not, scans take its SVD.
    """
    d = shock.axis
    eos = shock.eos
    vl = shock.left.as_array()
    vr = shock.right.as_array()
    t1, t2 = _tangential_axes(d)
    b_row = 4 + d  # index of the normal induction component in the 8 rows

    N_r = flux_jacobian(vr, eos, d)
    N_l = flux_jacobian(vl, eos, d)
    q_jump = conserved_vector(vr, eos) - conserved_vector(vl, eos)
    f_jump = {t: flux_vector(vr, eos, t) - flux_vector(vl, eos, t) for t in (t1, t2)}
    bt_jump = np.array([vr[4 + t1] - vl[4 + t1], vr[4 + t2] - vl[4 + t2]])

    # Normal-induction row degenerates (its normal flux is identically 0);
    # replace it by continuity of B . n across the perturbed front.
    for N in (N_r, N_l):
        N[b_row, :] = 0.0
        N[b_row, b_row] = 1.0
    q_jump[b_row] = 0.0
    for t in (t1, t2):
        f_jump[t][b_row] = 0.0

    jump_scale = (float(np.linalg.norm(q_jump))
                  + sum(float(np.linalg.norm(f_jump[t])) for t in (t1, t2))
                  + float(np.linalg.norm(bt_jump)))
    N_pair = np.hstack([N_r, -N_l]).astype(complex)

    def front(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """b_f / |b_f| at the rows of P, and the rows where b_f does not degenerate."""
        s = P[:, 1] + 1j * P[:, 0]
        b_f = s[:, None] * q_jump + 1j * (P[:, 2:3] * f_jump[t1] + P[:, 3:4] * f_jump[t2])
        b_f[:, b_row] = 1j * (P[:, 2] * bt_jump[0] + P[:, 3] * bt_jump[1])
        zeta_scale = np.abs(s) + np.linalg.norm(P[:, 2:4], axis=1)
        b_norm = np.linalg.norm(b_f, axis=1)
        ok = b_norm > 1e-12 * np.maximum(zeta_scale * jump_scale, 1e-300)
        return b_f / np.where(ok, b_norm, 1.0)[:, None], ok

    def evaluate(zf: BoundaryFrequency) -> np.ndarray:
        b_hat, ok = front(np.array([[zf.tau, zf.gamma_L, *zf.eta]]))
        if not ok[0]:
            raise RankDeficiency(
                f"front coefficient degenerates at zeta = {zf.to_dict()}")
        return _complement_rows(b_hat, N_pair)[0]

    if zf is not None:
        return BoundaryOperator.from_matrix(evaluate(zf))
    op = BoundaryOperator(evaluate, n=16, p=7)
    W, R = np.linalg.qr(N_pair.conj().T)
    s = np.linalg.svd(N_pair, compute_uv=False)
    if s[-1] > 1e-10 * s[0]:
        R_inv_h = np.linalg.inv(R).conj()  # g as a row: b_f^T conj(R^{-1})

        def closed_form(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            b_hat, ok = front(P)
            g = np.where(ok[:, None], b_hat, 1.0) @ R_inv_h
            g /= np.linalg.norm(g, axis=1)[:, None]
            return _complement_rows(g, W.conj().T), ok
        op._closed_form = closed_form
    return op


def _complement_rows(u: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Rows 1.. of H X, H = I - 2 v v^H / (v^H v) with v = u + phase(u_0) e_0
    the reflector mapping the unit row u onto e_0's span, for each u of a
    stack: they span {y X : y u = 0}, orthonormal when X's rows are."""
    a0 = np.abs(u[:, 0])
    v = u.copy()
    v[:, 0] += np.divide(u[:, 0], a0, out=np.ones(len(u), dtype=complex),
                         where=a0 > 0.0)
    w = (2.0 / np.sum(np.abs(v) ** 2, axis=1))[:, None] * (v.conj() @ X)
    return X[1:] - v[:, 1:, None] * w[:, None, :]


def _shock_problem(shock: PlanarShock, tol_det: float) -> _ScanProblem:
    sides = tuple(_Side(state, shock.eos, shock.axis, tol_det, sign,
                        f"shock {name} side")
                  for name, state, sign in (("right", shock.right, 1.0),
                                            ("left", shock.left, -1.0)))
    return _ScanProblem(sides, shock_boundary_operator(shock))


def shock_scan(shock: PlanarShock, sampling=None, *, tol_det: float = 1e-10,
               eps_cont: float = 1e-6, polish_rounds: int = 6) -> ScanResult:
    """Hemisphere scan of the two-sided shock Lopatinski determinant.

    Grid, polish and failure report as in `uniform_scan`.
    """
    return _scan(_shock_problem(shock, tol_det), sampling, eps_cont,
                 polish_rounds)


# ----------------------------------------------------------------------------
# Small-field limit study
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class GasShockSpec:
    """Limiting gas-dynamic shock for the small-field study: quiescent
    upstream (rho, theta), strength mach, shock normal axis, and the unit
    direction along which the seed field is applied (tangential for the
    perpendicular fast-shock continuation)."""

    rho: float = 1.0
    theta: float = 1.0
    mach: float = 2.0
    axis: int = 3
    b_direction: tuple[float, float, float] = (1.0, 0.0, 0.0)

    def direction(self) -> np.ndarray:
        v = np.asarray(self.b_direction, dtype=float).reshape(3)
        n = float(np.linalg.norm(v))
        if n == 0.0:
            raise ValueError("b_direction must be nonzero")
        return v / n


@dataclass(frozen=True)
class StudyRow:
    B_mag: float
    min_abs_D: float
    argmin: BoundaryFrequency
    deviation: float
    n_failures: int
    shock: PlanarShock

    def to_dict(self) -> dict:
        return {
            "B": self.B_mag,
            "min_abs_D": self.min_abs_D,
            "argmin": self.argmin.to_dict(),
            "deviation_from_limit": self.deviation,
            "n_failures": self.n_failures,
            "shock": self.shock.to_dict(),
        }


@dataclass(frozen=True)
class StudyResult:
    rows: tuple[StudyRow, ...]
    reference_min_abs_D: float
    deviations_monotone: bool
    grid: dict

    def to_dict(self) -> dict:
        return {
            "rows": [r.to_dict() for r in self.rows],
            "reference_min_abs_D": self.reference_min_abs_D,
            "deviations_monotone": self.deviations_monotone,
            "grid": self.grid,
        }


def b_to_zero_study(eos: EquationOfState, gas_shock: GasShockSpec,
                    b_values, sampling=None, *, tol_det: float = 1e-10,
                    eps_cont: float = 1e-6, polish_rounds: int = 6) -> StudyResult:
    """Small-magnetic-field stability study for a Lax shock.

    For each |B| in the descending list (0 allowed, meaning the limiting
    gas-dynamic shock), constructs the MHD shock by continuation from the
    previous field value and scans the hemisphere; rows report min |D| and
    its deviation from the B = 0 limit.  `deviations_monotone` records
    whether the deviation decreases along decreasing |B| > 0; it is
    reported, not enforced.  Every scan runs on `sampling` (default
    HemisphereGrid()) with the polish of `shock_scan`.
    """
    b_values = [float(b) for b in b_values]
    if any(b < 0.0 for b in b_values):
        raise ValueError("field magnitudes must be >= 0")
    direction = gas_shock.direction()

    def make_shock(b_mag: float, seed: ThermoState | None) -> PlanarShock:
        upstream = ThermoState(rho=gas_shock.rho, u=np.zeros(3),
                               theta=gas_shock.theta, B=b_mag * direction)
        return rankine_hugoniot(eos, upstream, family="fast",
                                mach=gas_shock.mach, d=gas_shock.axis,
                                seed_downstream=seed)

    reference_shock = make_shock(0.0, None)
    reference_scan = shock_scan(reference_shock, sampling, tol_det=tol_det,
                                eps_cont=eps_cont, polish_rounds=polish_rounds)
    if reference_scan.min_abs_D is None:
        raise MhdStabError("reference B = 0 scan produced no valid points")
    ref_min = reference_scan.min_abs_D

    rows: list[StudyRow] = []
    seed: ThermoState | None = None
    for b in sorted(set(b_values), reverse=True):
        if b == 0.0:
            shock, scan = reference_shock, reference_scan
        else:
            shock = make_shock(b, seed)
            scan = shock_scan(shock, sampling, tol_det=tol_det, eps_cont=eps_cont,
                              polish_rounds=polish_rounds)
            seed = shock.right
        if scan.min_abs_D is None:
            raise MhdStabError(f"scan at |B| = {b} produced no valid points")
        rows.append(StudyRow(
            B_mag=b,
            min_abs_D=scan.min_abs_D,
            argmin=scan.argmin,
            deviation=abs(scan.min_abs_D - ref_min),
            n_failures=len(scan.failures),
            shock=shock,
        ))

    positive = [r for r in rows if r.B_mag > 0.0]
    slack = 1e-12 * max(ref_min, 1e-30)
    monotone = all(positive[i + 1].deviation <= positive[i].deviation + slack
                   for i in range(len(positive) - 1))
    return StudyResult(rows=tuple(rows), reference_min_abs_D=ref_min,
                       deviations_monotone=monotone, grid=reference_scan.grid)
