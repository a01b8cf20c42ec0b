"""Thermodynamic states and equations of state.

Every coefficient the MHD symbol needs is produced here: the pressure P and
its partial derivatives P_rho, P_theta, the specific internal energy e and
its derivative e_theta, and the magneto-acoustic reference speed c0 with

    c0^2 = P_rho + P_theta^2 * theta / (rho^2 * e_theta).

All quantities are nondimensional and the magnetic permeability is fixed
to 1.  A state is admissible when rho > 0, theta > 0, P_rho > 0 and
e_theta > 0; admissibility is what makes the first-order system
symmetrizable, so it is enforced eagerly.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .errors import NonAdmissibleState

__all__ = [
    "ThermoState",
    "EosEval",
    "EquationOfState",
    "IdealGas",
    "eval_eos",
    "sound_speed_sq",
    "e_rho_consistent",
    "eos_to_dict",
    "eos_from_dict",
]


def _as_vec3(value, name: str) -> np.ndarray:
    vec = np.asarray(value, dtype=float).reshape(-1)
    if vec.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {vec.shape}")
    return vec


@dataclass(frozen=True)
class ThermoState:
    """Fluid/magnetic state (rho, u, theta, B) at a point.

    rho and theta must be strictly positive and every component finite.
    """

    rho: float
    u: np.ndarray = field(default_factory=lambda: np.zeros(3))
    theta: float = 1.0
    B: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "u", _as_vec3(self.u, "u"))
        object.__setattr__(self, "B", _as_vec3(self.B, "B"))
        values = np.concatenate([[self.rho, self.theta], self.u, self.B])
        if not np.all(np.isfinite(values)):
            raise NonAdmissibleState("state has non-finite components")
        if self.rho <= 0.0:
            raise NonAdmissibleState(f"rho must be positive, got {self.rho}")
        if self.theta <= 0.0:
            raise NonAdmissibleState(f"theta must be positive, got {self.theta}")

    def as_array(self) -> np.ndarray:
        """Pack into the fixed unknown ordering (rho, u1, u2, u3, theta, B1, B2, B3)."""
        return np.concatenate([[self.rho], self.u, [self.theta], self.B])

    @classmethod
    def from_array(cls, vec) -> "ThermoState":
        vec = np.asarray(vec, dtype=float).reshape(-1)
        if vec.shape != (8,):
            raise ValueError(f"expected an 8-vector, got shape {vec.shape}")
        return cls(rho=vec[0], u=vec[1:4], theta=vec[4], B=vec[5:8])

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "u": list(self.u),
            "theta": self.theta,
            "B": list(self.B),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ThermoState":
        return cls(rho=d["rho"], u=d.get("u", (0, 0, 0)),
                   theta=d["theta"], B=d.get("B", (0, 0, 0)))


@dataclass(frozen=True)
class EosEval:
    """Pointwise EOS evaluation: P, dP/drho, dP/dtheta, e, de/dtheta."""

    P: float
    P_rho: float
    P_theta: float
    e: float
    e_theta: float


class EquationOfState(ABC):
    """Maps (rho, theta) to an EosEval.

    Abstract so synthetic laws (for instance P_theta = 0) can exercise
    degenerate branches of the characteristic analysis.
    """

    @abstractmethod
    def evaluate(self, rho: float, theta: float) -> EosEval:
        ...


@dataclass(frozen=True)
class IdealGas(EquationOfState):
    """P = R * rho * theta, e = c_v * theta.

    The adiabatic exponent is Gamma = 1 + R / c_v.
    """

    R: float = 1.0
    c_v: float = 1.5

    def __post_init__(self):
        if self.R <= 0.0 or self.c_v <= 0.0:
            raise ValueError("IdealGas requires R > 0 and c_v > 0")

    def evaluate(self, rho: float, theta: float) -> EosEval:
        return EosEval(
            P=self.R * rho * theta,
            P_rho=self.R * theta,
            P_theta=self.R * rho,
            e=self.c_v * theta,
            e_theta=self.c_v,
        )


def eval_eos(eos: EquationOfState, rho: float, theta: float) -> EosEval:
    """Evaluate an EOS at (rho, theta), enforcing admissibility.

    Raises NonAdmissibleState when rho <= 0, theta <= 0, P_rho <= 0 or
    e_theta <= 0, or when any returned field is non-finite.
    """
    rho = float(rho)
    theta = float(theta)
    if not (math.isfinite(rho) and math.isfinite(theta)):
        raise NonAdmissibleState("rho and theta must be finite")
    if rho <= 0.0:
        raise NonAdmissibleState(f"rho must be positive, got {rho}")
    if theta <= 0.0:
        raise NonAdmissibleState(f"theta must be positive, got {theta}")
    ev = eos.evaluate(rho, theta)
    fields = (ev.P, ev.P_rho, ev.P_theta, ev.e, ev.e_theta)
    if not all(math.isfinite(v) for v in fields):
        raise NonAdmissibleState(f"EOS returned non-finite values at rho={rho}, theta={theta}")
    if ev.P_rho <= 0.0:
        raise NonAdmissibleState(f"P_rho must be positive, got {ev.P_rho}")
    if ev.e_theta <= 0.0:
        raise NonAdmissibleState(f"e_theta must be positive, got {ev.e_theta}")
    return ev


def sound_speed_sq(eos: EquationOfState, state: ThermoState) -> float:
    """Magneto-acoustic reference speed squared, c0^2.

    c0^2 = P_rho + P_theta^2 * theta / (rho^2 * e_theta); strictly positive
    for admissible states and independent of u and B.
    """
    ev = eval_eos(eos, state.rho, state.theta)
    return c0_sq_from_eval(ev, state.rho, state.theta)


def c0_sq_from_eval(ev: EosEval, rho: float, theta: float) -> float:
    return ev.P_rho + ev.P_theta**2 * theta / (rho**2 * ev.e_theta)


def e_rho_consistent(ev: EosEval, rho: float, theta: float) -> float:
    """de/drho implied by thermodynamic consistency.

    The EOS interface does not carry e_rho; the Maxwell relation for
    (rho, theta) variables gives e_rho = (P - theta * P_theta) / rho^2,
    which is zero for an ideal gas.  Used by the jump-condition machinery,
    which needs the full energy flux.
    """
    return (ev.P - theta * ev.P_theta) / rho**2


def eos_to_dict(eos: EquationOfState) -> dict:
    if isinstance(eos, IdealGas):
        return {"kind": "ideal-gas", "R": eos.R, "c_v": eos.c_v}
    raise ValueError(f"cannot serialize EOS of type {type(eos).__name__}")


def eos_from_dict(d: dict) -> EquationOfState:
    kind = d.get("kind")
    if kind == "ideal-gas":
        return IdealGas(R=float(d["R"]), c_v=float(d["c_v"]))
    raise ValueError(f"unknown EOS kind {kind!r}")
