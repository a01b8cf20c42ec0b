"""Assembly of the 8x8 MHD symbol matrices and the Friedrichs symmetrizer.

The unknown ordering is fixed everywhere to

    (rho, u1, u2, u3, theta, B1, B2, B3)

and matrices are plain (8, 8) float arrays in that ordering.  The shifted
symbol A(U, xi) = (u.xi) I + A_tilde(U, xi) carries the eight wave speeds;
A_tilde is the symbol of the linearized equations in the frame moving with
the fluid.  The divergence constraint is used only to bring the equations
to symmetric form: the 8x8 symbol keeps the zero row of the normal field
component, so the eigenvalue count stays eight.
"""

from __future__ import annotations

import numpy as np

from .thermo import EquationOfState, ThermoState, eval_eos

__all__ = [
    "UNKNOWN_ORDER",
    "IDX_RHO",
    "IDX_U",
    "IDX_THETA",
    "IDX_B",
    "assemble_tilde_symbol",
    "assemble_full_symbol",
    "symmetrizer",
    "boundary_matrix",
    "unit_vector",
]

UNKNOWN_ORDER = ("rho", "u1", "u2", "u3", "theta", "B1", "B2", "B3")
IDX_RHO = 0
IDX_U = slice(1, 4)
IDX_THETA = 4
IDX_B = slice(5, 8)

_EYE3, _EYE8 = np.eye(3), np.eye(8)


def unit_vector(d: int) -> np.ndarray:
    """Cartesian basis vector for a 1-based axis index d in {1, 2, 3}."""
    if d not in (1, 2, 3):
        raise ValueError(f"axis index must be 1, 2 or 3, got {d}")
    e = np.zeros(3)
    e[d - 1] = 1.0
    return e


def assemble_tilde_symbol(state: ThermoState, eos: EquationOfState, xi) -> np.ndarray:
    """Symbol A_tilde(U, xi) of the linearized equations in the fluid frame.

    Block pattern (row -> action on the perturbation):
        rho   -> rho * (xi . u')
        u     -> (P_rho rho' + P_theta theta') xi / rho
                  + ((B . B') xi - (B . xi) B') / rho
        theta -> (P_theta theta / (rho e_theta)) (xi . u')
        B     -> (xi . u') B - (B . xi) u'

    Linear in xi; xi = 0 returns the zero matrix.
    """
    xi = np.asarray(xi, dtype=float).reshape(3)
    if not np.isfinite(xi).all():
        raise ValueError("xi must be finite")
    ev = eval_eos(eos, state.rho, state.theta)
    rho, theta, B = state.rho, state.theta, state.B
    B_dot_xi = float(B @ xi)

    A = np.zeros((8, 8))
    A[IDX_RHO, IDX_U] = rho * xi
    A[IDX_U, IDX_RHO] = ev.P_rho / rho * xi
    A[IDX_U, IDX_THETA] = ev.P_theta / rho * xi
    A[IDX_U, IDX_B] = (xi[:, None] * B - B_dot_xi * _EYE3) / rho
    A[IDX_THETA, IDX_U] = ev.P_theta * theta / (rho * ev.e_theta) * xi
    A[IDX_B, IDX_U] = B[:, None] * xi - B_dot_xi * _EYE3
    return A


def assemble_full_symbol(state: ThermoState, eos: EquationOfState, xi) -> np.ndarray:
    """Full symbol A(U, xi) = (u . xi) I + A_tilde(U, xi)."""
    xi = np.asarray(xi, dtype=float).reshape(3)
    return float(state.u @ xi) * _EYE8 + assemble_tilde_symbol(state, eos, xi)


def symmetrizer(state: ThermoState, eos: EquationOfState) -> np.ndarray:
    """Diagonal Friedrichs symmetrizer S with S A_j symmetric for j = 1, 2, 3.

    S = diag(P_rho / rho, rho, rho, rho, rho e_theta / theta, 1, 1, 1),
    positive definite for admissible states.
    """
    ev = eval_eos(eos, state.rho, state.theta)
    rho, theta = state.rho, state.theta
    return np.diag([
        ev.P_rho / rho,
        rho, rho, rho,
        rho * ev.e_theta / theta,
        1.0, 1.0, 1.0,
    ])


def boundary_matrix(state: ThermoState, eos: EquationOfState, d: int,
                    tol_det: float = 1e-10) -> tuple[np.ndarray, bool]:
    """Boundary symbol A_d = A(U, e_d) and a noncharacteristic flag.

    The flag is min |lambda| > tol_det * max |lambda| over the eight
    eigenvalues of A_d, taken in closed form (`charstruct._normal_speeds`,
    `charstruct._noncharacteristic`): det A_d != 0, read relative to the
    spectrum's own scale.
    """
    from .charstruct import _noncharacteristic, _normal_speeds  # charstruct imports this module

    return (assemble_full_symbol(state, eos, unit_vector(d)),
            _noncharacteristic(_normal_speeds(state, eos, d), tol_det))
