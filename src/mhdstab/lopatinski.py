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
    a basis K of ker M (`kernel_basis` once per scan for a constant
    operator, Majda's closed form for the shock operator) and E_minus per
    side.  The eigenvalues mu of a side's s G come in closed form: they are the
    roots of det((tau - i gamma) I + A(eta, -s mu)), the factored MHD
    dispersion polynomial of `charstruct._char_poly_factors` at a complex
    xi (built here with one coefficient row per power, in the same
    arithmetic), that is an entropy double and an Alfven pair linear in mu
    and a magnetoacoustic quartic, solved by Ferrari and polished by Newton
    (`_Side.roots`).  A row whose roots `_Side.roots` does not vouch for,
    and every row of a side close to a characteristic boundary that needs
    its roots, takes the per-point path instead.
      - dimension 0 or 8 (a fast shock's upstream side, supersonic inflow):
        the Friedrichs symmetrizer S > 0 makes every S A_j symmetric, so
        x^H S applied to (tau - i gamma) x + eta . A_t x = mu s A_d x, the
        eigenproblem of s G (s = -1 on a shock's reflected upstream side,
        see below), gives Im mu = -gamma x^H S x / (s x^H S A_d x).
        The pencil (S A_d, S) has A_d's eigenvalues, all of one sign here,
        so every root of s G has the sign of Im mu the dimension requires
        and |Im mu| >= gamma / max |lambda(A_d)|; rows where that bound
        clears the gap test need no eigenvalues at all, the others count
        the signs of the roots.
      - dimension 1 to 7: E_minus is the orthogonal complement of the left
        eigenvectors at the 8 - dim roots with Im mu > 0, each in closed form
        through S: w = conj(S A_d x)/|S A_d x| for x a right null vector of
        (tau - i gamma) I + A(eta, -s mu), by family (`_Side.left_vector`).
        Each is certified by its residual |w^H G - mu w^H| <= 5e-14 |G|_F,
        with w^H G = (tau - i gamma) w^H A_d^{-1} + eta1 w^H A_d^{-1} A_t1 +
        eta2 w^H A_d^{-1} A_t2 from three 8-vector products and |G|_F from
        a 3x3 Gram form (`_Side.certificate`), so no scan row builds the
        stack of G.
    With W the orthonormal complements of the sides side by side, [E W] is
    unitary, so |D| = |det(W^H K)| / sqrt(det(K^H K)), an (8 sides -
    p)-square determinant: for a fast shock, or a constant operator on a
    dimension-7 side, a single product w^H k (`_abs_det`).
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

with N the normal-flux Jacobians of the conservation laws in (rho, u,
theta, B) variables, taken from the symbol as N = (dq/dv) A_d - Phi
e_{B_d}^T, Phi = (0, B, u.B, u) the Powell column (`flux_jacobian`), so that
the jump conditions and the sides linearize through one A_d; b_f = s [q] +
i eta . [f_tangential] the front coefficient; and the degenerate
normal-induction row replaced by the linearized continuity of the normal
field across the perturbed front, [B_d'] - i (eta . [B_tangential]) psi_hat
= 0.  The front amplitude is eliminated by projecting the eight conditions
onto the orthogonal complement of b_f, leaving a rank-7 operator on the
16-dimensional trace.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    CharacteristicBoundary,
    DimensionMismatch,
    MhdStabError,
    NoAdmissibleShock,
    RankDeficiency,
    SpectralSplitFailure,
)
from .symbol import assemble_full_symbol, symmetrizer, unit_vector
from .thermo import (
    EquationOfState,
    ThermoState,
    c0_sq_from_eval,
    e_rho_consistent,
    eos_from_dict,
    eos_to_dict,
    eval_eos,
)
from .charstruct import _noncharacteristic, _normal_speeds, wave_speeds

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

@dataclass(frozen=True, eq=False)
class BoundaryFrequency:
    """One point zeta = (tau - i gamma_L, eta) of the frequency space.

    Scan grids live on the closed unit hemisphere tau^2 + gamma_L^2 +
    |eta|^2 = 1, gamma_L >= 0; the assembly routines accept any finite
    point since G is linear in zeta.  Points compare and hash by the floats
    (tau, gamma_L, eta1, eta2).
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

    def _key(self) -> tuple[float, float, float, float]:
        return (self.tau, self.gamma_L, float(self.eta[0]), float(self.eta[1]))

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, BoundaryFrequency) else NotImplemented

    def __hash__(self):
        return hash(self._key())

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

    Raises CharacteristicBoundary when an eigenvalue of A_d is within
    tol_det max |lambda(A_d)| of zero (`boundary_matrix`).
    """
    return _Side(state, eos, d, tol_det).G(zf)


class _Side:
    """One side's reduced symbol s G, kept as its three coefficients in zeta
    (s A_d^{-1} is also the continuation matrix), and dim = dim E_minus(s G),
    the number of positive eigenvalues of s A_d, counted on A_d's closed-form
    spectrum (`charstruct._normal_speeds`).  s = -1 reflects a shock's
    upstream side.  The scan also takes the side's eigenvalues and left
    eigenvectors in closed form (`roots`, `left_vector`, `complement`),
    certifies the vectors without forming s G (`certificate`) and, at
    dimension 0 or 8, takes the symmetrizer bound |Im mu| >= gamma * damping,
    damping = 1 / max |lambda(A_d)| (see `_evaluate`; damping is 0
    elsewhere).  s G itself (`G`) serves `assemble_G` and the per-point
    path, at one point each."""

    def __init__(self, state: ThermoState, eos: EquationOfState, d: int,
                 tol_det: float, sign: float = 1.0, where: str = "boundary"):
        lam = _normal_speeds(state, eos, d)
        if not _noncharacteristic(lam, tol_det):
            raise CharacteristicBoundary(f"{where} x_{d} = const is characteristic")
        A_d = assemble_full_symbol(state, eos, unit_vector(d))
        self.a_d_inv = sign * np.linalg.inv(A_d)
        axes = _tangential_axes(d)
        self.a_t1, self.a_t2 = (
            self.a_d_inv @ assemble_full_symbol(state, eos, unit_vector(t)) for t in axes)
        self.dim = int(np.count_nonzero(sign * lam > 0.0))
        self.damping = 1.0 / float(np.abs(lam).max()) if self.dim in (0, 8) else 0.0
        # the constants of the dispersion relation, with b = B / sqrt(rho),
        # and of the eigenvectors: S A_d (symmetric) and kappa
        self.u, self.b = state.u, state.B / math.sqrt(state.rho)
        self.axes = np.array(axes) - 1, d - 1
        self.sign = sign
        self.u_t, self.u_d = self.u[self.axes[0]], float(self.u[d - 1])
        self.b_t, self.b_d = self.b[self.axes[0]], float(self.b[d - 1])
        ev = eval_eos(eos, state.rho, state.theta)
        self.p_rho, self.p_theta = ev.P_rho, ev.P_theta
        self.c0_sq = c0_sq_from_eval(ev, state.rho, state.theta)
        self.h_sq = float(state.B @ state.B) / state.rho
        # `roots` columns linear in mu (6 at B = 0), those unstable at gamma > 0
        self.n_linear = 4 if self.h_sq else 6
        self.unstable_linear = np.flatnonzero(
            sign * (self.u_d + self.b_d * np.array([0, 0, -1, 1, 0, 0])[:self.n_linear]) < 0.0)
        self.rho, self.kappa = state.rho, ev.P_theta * state.theta / (state.rho * ev.e_theta)
        self.sym_a_d = symmetrizer(state, eos) @ A_d
        # for `certificate`: s A_d^{-1}, a_t1 and a_t2, and their real 3x3
        # Gram matrix
        parts = np.stack([self.a_d_inv, self.a_t1, self.a_t2])
        self.parts = parts.astype(complex)
        self.gram = parts.reshape(3, 64) @ parts.reshape(3, 64).T
        # `roots` solves the magnetoacoustic quartic in mu (for B = 0 the
        # quadratic T - c0^2 S), whose leading coefficient (u_d^2 -
        # c_s^2)(u_d^2 - c_f^2), the product of the speeds u_d -+ c_s, u_d -+
        # c_f, is a factor of det A_d.  Near a characteristic boundary it
        # cancels against its terms (u_d^2 + c_s^2)(u_d^2 + c_f^2), from
        # (u_d - c)^2 + (u_d + c)^2 = 2 (u_d^2 + c^2), a root runs off towards
        # infinity, and the closed form loses digits; the scan sends such a
        # side's rows to the per-point path
        lead, terms = np.prod(lam[4:]), np.prod(lam[4::2]**2 + lam[5::2]**2) / 4.0
        self.closed_form = bool(abs(lead) >= 1e-2 * terms)

    def G(self, zf) -> np.ndarray:
        """s G at a BoundaryFrequency, or stacked at each row of an (N, 4) array."""
        if isinstance(zf, BoundaryFrequency):
            zf = (zf.tau, zf.gamma_L, *zf.eta)
        tau, gamma_L, eta1, eta2 = np.asarray(zf, dtype=float).T[..., None, None]
        return ((tau - 1j * gamma_L) * self.a_d_inv
                + eta1 * self.a_t1 + eta2 * self.a_t2)

    def roots(self, P: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The eight eigenvalues of s G at each row (tau, ., eta1, eta2) of P
        with the damping gamma in place of its gamma_L, as (N, 8), and ok
        where the closed form may be trusted.  The (N, 8) array is the
        transpose of an (8, N) stack: each root's row runs along the N rows
        of P, as every step here and every test across a row of mu does.

        mu is an eigenvalue of s G iff det((tau - i gamma) I + A(xi)) = 0 at
        the complex xi = (eta, -s mu), so the roots are those of the factors
        `charstruct._char_poly_factors` gives in mu, with tau_tilde = tau -
        i gamma + u.xi and b = B/sqrt(rho): the entropy double tau_tilde = 0
        and the Alfven pair tau_tilde = +-xi.b are linear; the quartic Q =
        T^2 - (c0^2 + h^2) S T + c0^2 S F (T = tau_tilde^2, S = xi.xi, F =
        (xi.b)^2), in the factored form (T - F)(T - c0^2 S) - (h^2 S - F) T
        with its coefficient rows from `_polymul_rows`, takes
        `_quartic_roots`.  For B = 0, where Q = T (T - c0^2 S) has a double
        root, the quadratic T - c0^2 S takes `_quadratic_roots`.
        Two Newton steps polish those roots, with Q (or T - c0^2 S) evaluated
        through T, S and F: the expanded coefficients lose the slow roots
        crowding the entropy double at small |B| to cancellation.  A row is
        not ok when a root is not finite or the last Newton step exceeds
        1e-13 max(1, |mu|).  Scans call this only when `closed_form` holds.
        """
        s, u_d, b_d, c0_sq, h_sq = self.sign, self.u_d, self.b_d, self.c0_sq, self.h_sq
        eta = P[:, 2:4]
        tau_hat = P[:, 0] - 1j * gamma + eta @ self.u_t
        l0 = eta @ self.b_t
        eta_sq = (eta * eta).sum(axis=1)
        # coefficients in mu (increasing powers, one row each) of tau_tilde,
        # xi.b and S
        tt, xb, xi_sq = np.empty((2, len(P)), complex), np.empty((2, len(P))), np.zeros((3, len(P)))
        tt[0], tt[1] = tau_hat, -s * u_d
        xi_sq[0], xi_sq[2] = eta_sq, 1.0
        tau_sq, c0_xi_sq = _polymul_rows(tt, tt), c0_sq * xi_sq
        k = c0_sq + h_sq
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            if h_sq == 0.0:
                poly = tau_sq - c0_xi_sq
                mu = _quadratic_roots(poly[1] / poly[2], poly[0] / poly[2])
            else:
                xb[0], xb[1] = l0, -s * b_d
                xb_sq = _polymul_rows(xb, xb)
                # the magnetoacoustic factor of `charstruct._char_poly_factors`
                poly = (_polymul_rows(tau_sq - xb_sq, tau_sq - c0_xi_sq)
                        - _polymul_rows(h_sq * xi_sq - xb_sq, tau_sq))
                mu = _quartic_roots(*(poly[:4] / poly[4]))
            for _ in range(2):
                t = tau_hat - s * u_d * mu
                S = eta_sq + mu * mu
                T, dT, kS = t * t, -2.0 * s * u_d * t, k * S
                if h_sq == 0.0:
                    value, slope = T - c0_sq * S, dT - 2.0 * c0_sq * mu
                else:
                    L = l0 - s * b_d * mu
                    F, dF = L * L, -2.0 * s * b_d * L
                    value = T * (T - kS) + c0_sq * S * F
                    slope = (dT * (2.0 * T - kS) - 2.0 * k * mu * T
                             + c0_sq * (2.0 * mu * F + S * dF))
                step = value / slope
                mu = mu - step
            ok = (np.isfinite(mu) & (np.abs(step) <= 1e-13 * np.maximum(1.0, np.abs(mu)))).all(0)
            roots = np.empty((8, len(P)), complex)
            roots[:2] = roots[4:self.n_linear] = s * tau_hat / u_d
            roots[2] = (tau_hat - l0) / (s * (u_d - b_d))
            roots[3] = (tau_hat + l0) / (s * (u_d + b_d))
        roots[self.n_linear:] = mu
        return roots.T, ok

    def left_vector(self, P: np.ndarray, gamma: np.ndarray, mu: np.ndarray,
                    col: int) -> np.ndarray:
        """Unit w with (s G)^H w = conj(mu) w at each row (tau, ., eta1, eta2)
        of P with the damping gamma, for mu its root in column col of `roots`:
        w = conj(S A_d x) normalized (S A_j is symmetric), x a null vector of
        tau_tilde I + A_tilde(xi), xi = (eta, -s mu).  Entropy (col 0, 1;
        tau_tilde = 0): x = (P_theta, 0, 0, 0, -P_rho, 0, 0, 0) or (0, .., 0,
        xi).  Alfven (col 2, 3; tau_tilde = +-m exactly): (0, +-v, 0,
        sqrt(rho) v), v = xi x b.  For B = 0 (col 2 to 5; tau_tilde = 0):
        (0, v, 0, 0) or (0, 0, 0, v), v = xi x e_a for the two axes a but
        that of the largest |xi_a|, so xi.v = 0.  Magnetoacoustic (col >=
        n_linear): (-rho q, tau_tilde u', -kappa q, (B.xi) u' - q B), kappa
        = P_theta theta / (rho e_theta), u' = alpha xi + beta b for (alpha,
        beta) the larger null vector (T, -m S) or (c0^2 m, T - k S) of [[T -
        k S, -c0^2 m], [m S, T]] (m = xi.b, k = c0^2 + h^2), whose
        determinant is the quartic, and q = xi.u' = S (T - F) or m (T - h^2
        S), not a sum that cancels.  A degenerate row may come out not
        finite; the caller tests residuals."""
        xi = np.empty((len(P), 3), dtype=complex)
        xi[:, self.axes[0]] = P[:, 2:4]
        xi[:, self.axes[1]] = -self.sign * mu
        with np.errstate(invalid="ignore", over="ignore"):
            if col >= self.n_linear:
                tt = P[:, 0] - 1j * gamma + xi @ self.u
                m, S, T = xi @ self.b, (xi * xi).sum(axis=1), tt * tt
                n1 = (T, -m * S, S * (T - m * m))
                n2 = (self.c0_sq * m, T - (self.c0_sq + self.h_sq) * S, m * (T - self.h_sq * S))
                first = np.abs(n1[0])**2 + np.abs(n1[1])**2 >= np.abs(n2[0])**2 + np.abs(n2[1])**2
                alpha, beta, q = (np.where(first, a, b)[:, None] for a, b in zip(n1, n2))
                v = alpha * xi + beta * self.b
                x = np.concatenate([-self.rho * q, tt[:, None] * v, -self.kappa * q,
                                    math.sqrt(self.rho) * (m[:, None] * v - q * self.b)], axis=1)
            else:
                x = np.zeros((len(P), 8), dtype=complex)
                if col == 0:
                    x[:, 0], x[:, 4] = self.p_theta, -self.p_rho
                elif col == 1:
                    x[:, 5:] = xi
                elif col < 4 and self.h_sq:
                    v = np.cross(xi, self.b)
                    x[:, 1:4], x[:, 5:] = (5 - 2 * col) * v, math.sqrt(self.rho) * v
                else:
                    a = (np.argmax(np.abs(xi), axis=1) + 1 + col % 2) % 3
                    x[:, 1 + 4 * (col // 4) + np.arange(3)] = np.cross(xi, np.eye(3)[a])
            y = x @ self.sym_a_d
            return y.conj() / _row_norms(y)[:, None]

    def certificate(self, P: np.ndarray, gamma: np.ndarray, wh: np.ndarray,
                    nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(|w^H G - nu w^H|, |G|_F) for the (N, k) rows w^H of wh and their
        nu, G = s G at each row (tau, ., eta1, eta2) of P with the damping
        gamma, without G: w^H G = c0 (w^H s A_d^{-1}) + eta1 (w^H a_t1) + eta2
        (w^H a_t2), c0 = tau - i gamma, from three (N k, 8) x (8, 8) products
        summed in place (two (N, k, 8) arrays, 256 k bytes per row), and
        |G|_F^2 = x^T gram x + gamma^2 gram_00, x = (tau, eta1, eta2)."""
        rows, term = wh.reshape(-1, 8), np.empty(wh.shape, complex)
        with np.errstate(invalid="ignore", over="ignore"):
            r = (rows @ self.parts[0]).reshape(wh.shape)
            r *= (P[:, 0] - 1j * gamma)[:, None, None]
            for part, eta in zip(self.parts[1:], P[:, 2:].T):
                np.matmul(rows, part, out=term.reshape(-1, 8))
                term *= eta[:, None, None]
                r += term
            np.multiply(nu[:, :, None], wh, out=term)
            r -= term  # w^H G - nu w^H
            square = r.view(float)
            square *= square
            residual = np.sqrt(square.sum(axis=2))
        x = P[:, [0, 2, 3]]
        return residual, np.sqrt(np.sum(x * (x @ self.gram), axis=1)
                                 + gamma * gamma * self.gram[0, 0])

    def complement(self, P: np.ndarray, gamma: np.ndarray,
                   mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(W^H, ok): W orthonormal, spanning the left vectors of s G at each
        row (tau, ., eta1, eta2) of P with the damping gamma, at its 8 - dim
        roots with Im mu > 0 (the unstable linear columns, then the quartic
        ones of largest Im), so E_minus = W^perp, for mu from `roots`.  ok
        fails where a residual |w^H G - mu w^H| exceeds 5e-14 |G|_F (about
        200 rounding units) or 1e-12 times the gap between its root and the
        nearest stable one, or, for several vectors, their QR has min r_ii <
        1e-6 max r_ii (see `certificate`).  The residual over the gap is the
        first-order error the vector brings into the span, and so into |D|;
        near a glancing point, where a stable and an unstable root crowd, it
        grows past the residual itself."""
        lin, n = self.unstable_linear, self.n_linear
        rows = np.arange(len(mu))[:, None]
        top = n + np.argsort(-mu[:, n:].imag, axis=1, kind="stable")[:, :8 - self.dim - len(lin)]
        nu = np.concatenate([mu[:, lin], mu[rows, top]], axis=1)
        wh = np.empty((len(mu), 8 - self.dim, 8), complex)
        for j, col in enumerate([*lin, *[n] * top.shape[1]]):
            np.conjugate(self.left_vector(P, gamma, nu[:, j], col), out=wh[:, j])
        residual, g_norm = self.certificate(P, gamma, wh, nu)
        # the distance of each nu to the stable roots: inf at the unstable ones
        gap = np.abs(nu[:, :, None] - mu[:, None, :])
        to_root = gap.transpose(0, 2, 1)
        to_root[:, lin] = to_root[rows, top] = np.inf
        bound = np.minimum(5e-14 * g_norm[:, None], 1e-12 * gap.min(axis=2))
        ok = (residual <= bound).all(axis=1)
        wh[~ok] = 8.0 ** -0.5  # a failed row keeps a stand-in
        if wh.shape[1] > 1:
            W, R = np.linalg.qr(wh.conj().transpose(0, 2, 1))
            r = np.abs(np.diagonal(R, axis1=1, axis2=2))
            ok &= r.min(axis=1) >= 1e-6 * r.max(axis=1)
            wh = W.conj().transpose(0, 2, 1)
        return wh, ok


def _polymul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`charstruct._polymul` along the first axis: the product of the
    polynomials whose coefficients (increasing powers) are the rows of a
    and b, summed in the same order, the first term to a zero."""
    out = np.zeros((len(a) + len(b) - 1,) + b.shape[1:], dtype=np.result_type(a, b))
    for i in range(len(a)):
        out[i:i + len(b)] += a[i] * b
    return out


def _quadratic_roots(beta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """The roots of each y^2 + beta y + gamma, as (2, N): the one of larger
    modulus from the root formula with the sign that avoids cancellation,
    the other from the product gamma."""
    d = np.sqrt(beta * beta - 4.0 * gamma)
    d = np.where((beta.conj() * d).real >= 0.0, d, -d)
    y = -0.5 * (beta + d)
    return np.stack([y, gamma / y])


# the cube roots of unity, by which Cardano's root turns into the other two
_CUBE_ROOTS = np.exp(2j * np.pi / 3.0 * np.arange(3))[:, None]


def _quartic_roots(a0: np.ndarray, a1: np.ndarray, a2: np.ndarray,
                   a3: np.ndarray) -> np.ndarray:
    """The roots of each monic quartic z^4 + a3 z^3 + a2 z^2 + a1 z + a0 of
    the (N,) coefficient columns, as (4, N), by Ferrari: with z = y - a3/4
    it becomes y^4 + p y^2 + q y + r = (y^2 + p/2 + m)^2 - (sqrt(2m) y -
    q/(2 sqrt(2m)))^2 for a root m of the resolvent cubic m^3 + p m^2 +
    (p^2/4 - r) m - q^2/8, and so splits into two quadratics, solved in one
    stack.  m is the root of largest modulus, by Cardano.  A quadruple root
    gives m = 0 and non-finite roots."""
    shift = 0.25 * a3
    shift_sq = shift**2
    p = a2 - 6.0 * shift_sq
    q = a1 - 2.0 * a2 * shift + 8.0 * shift**3
    r = a0 - a1 * shift + a2 * shift_sq - 3.0 * shift**4
    # the resolvent cubic, depressed by m = t - p/3: t^3 + P t + R
    P = -p * p / 12.0 - r
    R = -p**3 / 108.0 + p * r / 3.0 - q * q / 8.0
    d = np.sqrt(0.25 * R * R + P**3 / 27.0)
    w = -0.5 * R + np.where((R.conj() * d).real <= 0.0, d, -d)  # the larger |w|
    c = w ** (1.0 / 3.0)
    c = np.where(c == 0.0, 1.0, c) * _CUBE_ROOTS
    m = np.where(w == 0.0, 0.0, c - P / (3.0 * c)) - p / 3.0
    m = m[np.argmax(np.abs(m), axis=0), np.arange(len(a0))]
    s = np.sqrt(2.0 * m)
    half, slope = 0.5 * p + m, q / (2.0 * s)
    y = _quadratic_roots(np.concatenate([-s, s]), np.concatenate([half + slope, half - slope]))
    return (y.reshape(2, 2, -1) - shift).transpose(1, 0, 2).reshape(4, -1)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of x, summed as `np.linalg.norm(x, axis=-1)`
    sums it, without its checks."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=-1))


def _tangential_axes(d: int) -> tuple[int, int]:
    axes = [a for a in (1, 2, 3) if a != d]
    if len(axes) != 2:
        raise ValueError(f"axis index must be 1, 2 or 3, got {d}")
    return axes[0], axes[1]


# gamma_L at or below which E_minus is the continuation limit at eps_cont:
# there the spectral gap closes and is not trusted.  A rule on the row's
# gamma_L, apart from `_GAP_FLOOR`, a rule on the computed gap.
_CONTINUATION_GAMMA = 1e-8


def _check_eps_cont(eps_cont: float) -> None:
    """Raise ValueError unless eps_cont, the gamma_L at which a continuation
    row takes its splitting, is finite and positive."""
    if not (math.isfinite(eps_cont) and eps_cont > 0.0):
        raise ValueError(f"eps_cont must be finite and positive, got {eps_cont}")


def stable_subspace(G: np.ndarray, gamma_L: float,
                    a_d_inv: np.ndarray | None = None,
                    eps_cont: float = 1e-6) -> np.ndarray:
    """Orthonormal basis of the invariant subspace of G for {Im mu < 0}.

    Computed by an ordered complex Schur reduction with the Im mu < 0
    eigenvalues sorted first.  This is the per-point reference: scans take
    E_minus in closed form (see `_evaluate`) and come back here only for
    the rows the batch cannot trust.  At the hemisphere boundary (gamma_L =
    0, extended to gamma_L <= `_CONTINUATION_GAMMA` where the gap is
    numerically untrustable) the limit subspace is taken by continuation:
    the same (tau, eta) evaluated at gamma_L = eps_cont, which shifts G by
    -i (eps_cont - gamma_L) A_d^{-1} (hence a_d_inv is required there).
    Raises SpectralSplitFailure when the spectral gap min |Im mu| is below
    the fixed threshold 1e-12 while gamma_L > `_CONTINUATION_GAMMA`, and
    ValueError unless eps_cont is finite and positive.
    """
    _check_eps_cont(eps_cont)
    import scipy.linalg  # loaded only when the per-point path runs

    if gamma_L < 0.0:
        raise ValueError("gamma_L must be >= 0")
    if gamma_L <= _CONTINUATION_GAMMA:
        # At and just above the hemisphere boundary the spectral gap closes;
        # use the continuation limit along the (tau, eta) ray.
        if a_d_inv is None:
            raise ValueError(f"gamma_L <= {_CONTINUATION_GAMMA:g} needs a_d_inv "
                             "for the continuation limit")
        G = G - 1j * (eps_cont - gamma_L) * a_d_inv
        gamma_L = eps_cont
    T, Z, sdim = scipy.linalg.schur(
        np.asarray(G, dtype=complex), output="complex",
        sort=lambda mu: mu.imag < 0.0)
    gap = float(np.min(np.abs(np.diag(T).imag)))
    if gap < 1e-12 and gamma_L > _CONTINUATION_GAMMA:
        raise SpectralSplitFailure(
            f"stable/unstable splitting ambiguous: min |Im mu| = {gap:.3e} "
            f"at gamma_L = {gamma_L:.3e}")
    return Z[:, :sdim]


class BoundaryOperator:
    """Boundary condition matrix M of shape (p, n), possibly zeta-dependent.

    rank(M) = p is required wherever the operator is evaluated; kernel_dim
    = n - p.  Wrap a fixed matrix with `from_matrix`, or pass a callable
    zf -> matrix to the constructor.  Scans take ker M by `_scan_kernel`.
    """

    def __init__(self, evaluator, n: int, p: int):
        self._evaluator = evaluator
        self.n = int(n)
        self.p = int(p)
        # for scans, see `_scan_kernel`
        self._constant = False
        self._kernel = None

    @property
    def kernel_dim(self) -> int:
        return self.n - self.p

    @classmethod
    def from_matrix(cls, M) -> "BoundaryOperator":
        M = np.atleast_2d(np.asarray(M, dtype=complex))
        op = cls(lambda zf: M, n=M.shape[1], p=M.shape[0])
        op._constant = True
        return op

    def matrix(self, zf: BoundaryFrequency | None = None) -> np.ndarray:
        M = np.atleast_2d(np.asarray(self._evaluator(zf), dtype=complex))
        if M.shape != (self.p, self.n):
            raise DimensionMismatch(
                f"boundary operator produced shape {M.shape}, expected {(self.p, self.n)}")
        return M

    def kernel_basis(self, zf: BoundaryFrequency | None = None) -> np.ndarray:
        """Orthonormal basis of ker M, the last n - p right singular vectors;
        raises RankDeficiency if rank < p."""
        _, s, vh = np.linalg.svd(self.matrix(zf))
        if s.size and s[-1] <= 1e-10 * max(s[0], 1e-300):
            raise RankDeficiency(
                f"boundary operator rank-deficient: singular values {s}")
        return vh[self.p:].conj().T


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
    |D| = 1 iff they are orthogonal complements.  Scans take it from any
    basis K of ker M as |det(W^H K)| / sqrt(det(K^H K)) (`_abs_det`).
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
    are the sweep only: `_table` holds them as an (n, 6) float array
    (tau, gamma_L, eta1, eta2, abs_D, dim_Eminus), and `rows` lists them.
    """

    min_abs_D: float | None
    argmin: BoundaryFrequency | None
    sweep_min_abs_D: float | None
    sweep_argmin: BoundaryFrequency | None
    _table: np.ndarray
    failures: list[dict]
    histogram: list[int]
    expected_dim: int
    n_points: int
    grid: dict
    polish: dict
    n_fallback: int  # sweep and polish rows evaluated on the per-point path

    @property
    def rows(self) -> list[tuple]:
        """The CSV rows as tuples: five floats, then dim_Eminus as an int."""
        dim = self.expected_dim
        return [(*row[:5], dim) for row in self._table.tolist()]

    def write_csv(self, path) -> None:
        from .cli import write_csv  # the CLI's writer; cli imports this module

        write_csv(path, ["tau", "gamma_L", "eta1", "eta2", "abs_D", "dim_Eminus"], self._table)

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
            "n_rows": len(self._table),
            "failures": self.failures,
            "histogram": self.histogram,
            "diagnostics": {"n_fallback": self.n_fallback},
        }


class _ScanProblem:
    """Internal bundle: the sides, whose traces stack in order, and the operator."""

    def __init__(self, sides, operator: BoundaryOperator):
        if operator.n != 8 * len(sides):
            raise DimensionMismatch(f"boundary operator acts on {operator.n} "
                                    f"components, the trace has {8 * len(sides)}")
        self.sides = sides
        self.operator = operator
        self.expected_dim = sum(side.dim for side in sides)


def _one_sided_problem(state, eos, d, M, tol_det) -> _ScanProblem:
    operator = M if isinstance(M, BoundaryOperator) else BoundaryOperator.from_matrix(M)
    return _ScanProblem((_Side(state, eos, d, tol_det),), operator)


# Rows per batched evaluation of the sweep, and per formatted run of the CSV
# writer (`cli.write_csv`).  `_evaluate`'s temporaries peak
# (tracemalloc, 1024 rows) at about 1.3 KiB per row on a side with one left
# vector (a fast shock, a dimension-7 inflow), 5.3 KiB on a dimension-1
# outflow and 6.2 KiB on a slow shock (5 + 2), the worst measured side, so a
# chunk peaks at about 6.2 MiB; no row builds its 1 KiB s G.  By
# 1024 rows the per-call cost is spread thin on every measured side.
# OpenBLAS rounds some rows differently in stacks of 4096, which moves |D|
# in the 16th digit on the shipped configs.
_CHUNK = 1024

# The smallest spectral gap min |Im mu| the batch trusts.  The gap of a
# continuation row scales with eps_cont, so an eps_cont near or below the
# floor sends equator rows to the per-point path.
_GAP_FLOOR = 1e-8

# the rows of the complement of E_minus at dimension 0 (all eight) or 8
# (none), shared read-only by every scan
_EYE = np.eye(8)
_EYE.flags.writeable = False


def _scan_kernel(operator: BoundaryOperator):
    """Once per scan: P -> (K, scale, ok), K a basis of ker M at each row of P
    (a stack of one for a constant M), scale = sqrt(det(K^H K)), ok where M
    evaluated at full rank: the shock operator's closed form (Majda's K as
    a pair, see `_abs_det`), else `kernel_basis` (scale 1), once for a
    constant M."""
    if operator._kernel is not None:
        return operator._kernel

    def basis(row: np.ndarray) -> tuple[np.ndarray, bool]:
        try:
            return operator.kernel_basis(_frequency(row)), True
        except MhdStabError:
            return np.zeros((operator.n, operator.kernel_dim)), False
    if operator._constant:
        K, ok = basis(np.zeros(4))  # M is the same at every point
        return lambda P: (K[None], 1.0, np.full(len(P), ok))

    def kernel(P: np.ndarray):
        K, ok = zip(*map(basis, P))
        return np.array(K), 1.0, np.array(ok)
    return kernel


def _abs_det(rows, K, scale) -> np.ndarray:
    """min(|det(W^H K)| / scale, 1): W^H the sides' rows W_i^H side by side,
    W_i an orthonormal basis of the complement of side i's E_minus, K a
    basis of ker M, scale = sqrt(det(K^H K)); all may carry a stack axis.
    As [E W] is unitary this is the |D| of `lopatinski_det`.  Majda's shock
    basis K = [[X, k], [I_8, 0]] comes as the pair (X, k) of its constant
    block and its stacked last column; at dimension 0 (W = I) the last
    side drops out with the first 8 columns, so a fast shock, like every
    1x1 case, takes no det, and only a slow shock assembles K."""
    if isinstance(K, tuple):
        X, k = K
        if rows[-1].shape[-2] == 8:
            rows, K = rows[:-1], k
        else:
            shape = k.shape[:-2]
            K = np.concatenate([np.concatenate([np.broadcast_to(X, shape + X.shape), k], axis=-1),
                                np.broadcast_to(np.eye(8, 9), shape + (8, 9))], axis=-2)
    Z = [R @ K[..., 8 * i:8 * i + 8, :] for i, R in enumerate(rows)]
    if len(Z) == 1:
        Z = Z[0]
    else:  # the sides' rows on one stack
        stack = np.broadcast_shapes(*(z.shape[:-2] for z in Z))
        Z = np.concatenate([np.broadcast_to(z, stack + z.shape[-2:]) for z in Z], axis=-2)
    det = Z[..., 0, 0] if Z.shape[-1] == 1 else np.linalg.det(Z)
    return np.minimum(np.abs(det) / scale, 1.0)


def _point_abs_D(problem: _ScanProblem, zf: BoundaryFrequency,
                 eps_cont: float) -> float:
    """|D| at one point on the reference path: ordered Schur and dim E_minus
    check per side, then `lopatinski_det`.  Raises the point's MhdStabError."""
    E = np.zeros((8 * len(problem.sides), problem.expected_dim), dtype=complex)
    col = 0
    for i, side in enumerate(problem.sides):
        E_i = stable_subspace(side.G(zf), zf.gamma_L, a_d_inv=side.a_d_inv,
                              eps_cont=eps_cont)
        # checked at continuation points too: a shift of the wrong sign
        # shows there as a wrong dimension
        if E_i.shape[1] != side.dim:
            raise SpectralSplitFailure(
                f"side {i}: dim E_minus = {E_i.shape[1]}, expected {side.dim}")
        E[8 * i:8 * i + 8, col:col + side.dim] = E_i  # block diagonal
        col += side.dim
    return lopatinski_det(E, problem.operator, zf).abs_D


def _evaluate(problem: _ScanProblem, kernel, P: np.ndarray,
              eps_cont: float) -> tuple[np.ndarray, dict, int]:
    """|D| at each (tau, gamma_L, eta1, eta2) row of P, the MhdStabError of
    each failed row by row index (its |D| entry is NaN), and the number of
    rows sent to the per-point path.

    Each side's s G carries the damping gamma: the row's gamma_L, or
    eps_cont at continuation rows.  Per side, with the roots mu of
    `_Side.roots`, `_abs_det` takes E_minus as the rows W^H of an
    orthonormal basis W of its complement: `_Side.complement` at dimension
    1 to 7; W = I or none at dimension 0 or 8, where a row whose
    symmetrizer bound |Im mu| >= gamma * damping (module docstring) clears
    the gap test twice over needs no eigenvalues and the other rows count
    the signs of mu.  No row builds the stack of s G.  ker M comes from
    `kernel` (`_scan_kernel`).
    A row goes to `_point_abs_D` when it needs its roots and the side is
    not `closed_form` or `roots` does not vouch for them, when a count is
    wrong, min |Im mu| < `_GAP_FLOOR`, `complement` does not certify it,
    `kernel` does not vouch for it, or ker M has other than 8 sides - dim
    E_minus dimensions; so failures come from there.
    """
    gamma = np.where(P[:, 1] <= _CONTINUATION_GAMMA, eps_cont, P[:, 1])
    trusted = np.ones(len(P), dtype=bool)
    bases = []
    for side in problem.sides:
        # rows whose split needs eigenvalues: every row at damping 0, else
        # those the bound does not clear; the factor 2 covers the rounding
        # of the bound and of the eigenvalues
        every = side.damping == 0.0
        need = slice(None) if every else gamma * side.damping < 2.0 * _GAP_FLOOR
        # the complement's rows at dimension 0 or 8, and the stand-in of a
        # side whose rows all go per point
        W_h = _EYE[side.dim:]
        if not side.closed_form:
            trusted[need] = False
        elif every or need.any():
            mu, ok = side.roots(P[need], gamma[need])
            if 0 < side.dim < 8:  # damping 0: every row is needed
                W_h, certified = side.complement(P, gamma, mu)
                ok &= certified
            im = mu.imag
            ok &= (im < 0.0).sum(axis=1) == side.dim
            ok &= (np.abs(im) >= _GAP_FLOOR).all(axis=1)
            trusted[need] &= ok
        bases.append(W_h)
    K, scale, ok = kernel(P)
    trusted &= ok
    abs_D = np.zeros(len(P))
    if problem.operator.kernel_dim == 8 * len(problem.sides) - problem.expected_dim:
        abs_D[:] = _abs_det(bases, K, scale)
    else:  # no row can pass the dimension check
        trusted[:] = False
    errors = {}
    untrusted = np.flatnonzero(~trusted)
    for i in untrusted:
        try:
            abs_D[i] = _point_abs_D(problem, _frequency(P[i]), eps_cont)
        except MhdStabError as exc:
            abs_D[i] = np.nan
            errors[int(i)] = exc
    return abs_D, errors, len(untrusted)


def _scan(problem: _ScanProblem, grid, eps_cont: float,
          polish_rounds: int) -> ScanResult:
    _check_eps_cont(eps_cont)
    if grid is None:
        grid = HemisphereGrid()
    P = grid._rows()
    kernel = _scan_kernel(problem.operator)
    n_fallback = 0

    def evaluate(rows: np.ndarray) -> tuple[np.ndarray, dict]:
        nonlocal n_fallback
        values, errors, n = _evaluate(problem, kernel, rows, eps_cont)
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
    dim = np.full(np.count_nonzero(ok), float(problem.expected_dim))
    table = np.column_stack([P[ok], values[ok], dim])
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
        _table=table,
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
    frame = np.column_stack([center, np.eye(4)])
    for round_idx in range(rounds):
        # orthonormal tangent frame of the unit 3-sphere at the center
        frame[:, 0] = center
        q, _ = np.linalg.qr(frame)
        # a matrix-vector and a dot product per point, as a point loop takes
        lattice = center + radius * (q[:, 1:4] @ _POLISH_OFFSETS[:, :, None])[..., 0]
        lattice[lattice[:, 1] < 1e-12, 1] = 0.0  # snap to the equator face
        norm = np.sqrt((lattice[:, None, :] @ lattice[:, :, None]).ravel())
        if not norm.all():
            lattice, norm = lattice[norm != 0.0], norm[norm != 0.0]
        lattice /= norm[:, None]
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
    are not polished.  eps_cont, the gamma_L at which an equator row takes
    its splitting (see `stable_subspace`), must be finite and positive
    (ValueError).
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
    b_sq = 0.5 * float(B @ B)
    ptot = ev.P + b_sq
    E = rho * (ev.e + 0.5 * float(u @ u)) + b_sq
    e_k = unit_vector(k)
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
    """d flux_k / d (rho, u, theta, B) = (dq/dv) A_k - Phi e_{B_k}^T, from
    the symbol A_k = A(U, e_k): the symmetrizable (Godunov-Powell) form
    q_t + div F + Phi div B = 0, Phi = (0, B, u.B, u), has the primitive
    coefficients A_k = (dq/dv)^{-1} (dF_k/dv + Phi e_{B_k}^T)."""
    _, u, _, B = _split(v)
    J = conserved_jacobian(v, eos) @ assemble_full_symbol(
        ThermoState.from_array(v), eos, unit_vector(k))
    J[:, 4 + k] -= np.concatenate([[0.0], B, [u @ B], u])
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
    return np.array([m, m * V, m * V, m * V, m * V * V, V * b_scale, V * b_scale])


def _rh_residual(left_vec: np.ndarray, right_vec: np.ndarray,
                 eos: EquationOfState, axis: int) -> np.ndarray:
    rows = _rh_rows(axis)
    diff = flux_vector(right_vec, eos, axis) - flux_vector(left_vec, eos, axis)
    return diff[rows] / _rh_scales(left_vec, eos, axis)


def _shock_flags(left: ThermoState, right: ThermoState, eos: EquationOfState,
                 axis: int, family: str) -> tuple[bool, bool]:
    """(lax_valid, noncharacteristic): both sides pass `boundary_matrix`'s
    test at its default tol_det (`charstruct._noncharacteristic`), and the
    family's Lax pattern counts the positive speeds upstream and the
    negative ones downstream."""
    lam_left, lam_right = (_normal_speeds(side, eos, axis) for side in (left, right))
    nonchar = all(_noncharacteristic(lam, 1e-10) for lam in (lam_left, lam_right))
    counts = (int(np.count_nonzero(lam_left > 0.0)), int(np.count_nonzero(lam_right < 0.0)))
    return nonchar and counts == _LAX_PATTERNS.get(family), nonchar


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
    return np.array([rho * r, *u_plus, theta * p_ratio / r, B[t1 - 1] * r, B[t2 - 1] * r])


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
    NoAdmissibleShock.  A slow shock needs c_s < w_- < |a_d| upstream (a_d
    = B_d / sqrt(rho)), that is 1 < mach < |a_d| / c_s; a mach above 1 and
    outside that window raises NoAdmissibleShock before Newton.
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

    if family == "slow" and not mach < abs(ws.a) / ws.c_s:
        # the upstream Lax count 6 needs c_s < w_- < |a_d|: at w_- >= |a_d|
        # the upstream speed w_- - |a_d| is not negative, so no shock of the
        # slow pattern exists and Newton would only fail in one way or another
        raise NoAdmissibleShock(
            f"mach {mach} is outside the slow-shock window 1 < mach < |a_d| / c_s = "
            f"{abs(ws.a) / ws.c_s:.17g} (c_s < w_- < |B_d| / sqrt(rho) upstream)")

    scales = _rh_scales(left_vec, eos, d)
    rows = _rh_rows(d)
    block = np.ix_(rows, rows)
    f_left = flux_vector(left_vec, eos, d)

    def residual(x: np.ndarray) -> np.ndarray:
        v = _pack_downstream(x, left_vec, d)
        if v[0] <= 0.0 or v[4] <= 0.0 or not np.all(np.isfinite(v)):
            return np.full(7, np.inf)
        return (flux_vector(v, eos, d) - f_left)[rows] / scales

    def jacobian(x: np.ndarray) -> np.ndarray:
        # the unknowns are the primitive components of the same indices
        v = _pack_downstream(x, left_vec, d)
        return flux_jacobian(v, eos, d)[block] / scales[:, None]

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
    e.g. for a zero-strength shock.  M = Q N_pair, N_pair = [N_r, -N_l], Q
    the orthonormal complement of b_f, so ker M = {(x_r, x_l) : N_r x_r -
    N_l x_l in span b_f}.  Scans take Majda's basis K = [[N_r^{-1} N_l,
    N_r^{-1} b_f], [I_8, 0]] of it (Majda 1983; Blokhin & Trakhinin 2002),
    with sqrt(det(K^H K)) = g0 |k_perp|, g0 = sqrt(det(K0^H K0)) for K0 the
    constant first 8 columns and k_perp the part of the last orthogonal to
    them; a fast shock's |D| is |w^H N_r^{-1} b_f| / (g0 |k_perp|), k =
    N_r^{-1} b_f and k_perp each one product of b_f per row.  N =
    (dq/dv) A_d - Phi e_{B_d}^T (`flux_jacobian`) takes the A_d that each
    side's `_Side` takes, so with the normal-induction row replaced det N_r =
    det(dq/dv) det A_d / u_d, det(dq/dv) = rho^4 e_theta > 0, holds by
    construction: N_r is invertible where the downstream side is not
    characteristic, which its `_Side` checks.
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
        """b_f at the rows of P, and the rows where it does not degenerate."""
        s = P[:, 1] + 1j * P[:, 0]
        b_f = s[:, None] * q_jump + 1j * (P[:, 2:3] * f_jump[t1] + P[:, 3:4] * f_jump[t2])
        b_f[:, b_row] = 1j * (P[:, 2] * bt_jump[0] + P[:, 3] * bt_jump[1])
        zeta_scale = np.abs(s) + _row_norms(P[:, 2:4])
        ok = _row_norms(b_f) > 1e-12 * np.maximum(zeta_scale * jump_scale, 1e-300)
        return b_f, ok

    def evaluate(zf: BoundaryFrequency) -> np.ndarray:
        b_f, ok = front(np.array([[zf.tau, zf.gamma_L, *zf.eta]]))
        if not ok[0]:
            raise RankDeficiency(
                f"front coefficient degenerates at zeta = {zf.to_dict()}")
        Q = np.linalg.qr(b_f.T, mode="complete")[0]  # column 0 along b_f
        return Q[:, 1:].conj().T @ N_pair

    if zf is not None:
        return BoundaryOperator.from_matrix(evaluate(zf))
    op = BoundaryOperator(evaluate, n=16, p=7)
    N_r_inv = np.linalg.inv(N_r)
    X = N_r_inv @ N_l
    Q0, R0 = np.linalg.qr(np.vstack([X, np.eye(8)]), mode="complete")
    g0 = abs(np.prod(np.diag(R0)))
    perp = Q0[:8, 8:].conj().T @ N_r_inv  # b_f -> k_perp in the basis Q0[:, 8:]

    def kernel(P: np.ndarray):  # K as the pair (X, k), see `_abs_det`
        b_f, ok = front(P)
        b_f[~ok] = 1.0  # a stand-in where the per-point path takes over
        k = b_f @ N_r_inv.T  # N_r^{-1} b_f, the last column of K
        return (X, k[:, :, None]), g0 * _row_norms(b_f @ perp.T), ok
    op._kernel = kernel
    return op


def _shock_problem(shock: PlanarShock, tol_det: float) -> _ScanProblem:
    sides = tuple(_Side(state, shock.eos, shock.axis, tol_det, sign,
                        f"shock {name} side")
                  for name, state, sign in (("right", shock.right, 1.0),
                                            ("left", shock.left, -1.0)))
    return _ScanProblem(sides, shock_boundary_operator(shock))


def shock_scan(shock: PlanarShock, sampling=None, *, tol_det: float = 1e-10,
               eps_cont: float = 1e-6, polish_rounds: int = 6) -> ScanResult:
    """Hemisphere scan of the two-sided shock Lopatinski determinant.

    Grid, polish, eps_cont and failure report as in `uniform_scan`.
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
