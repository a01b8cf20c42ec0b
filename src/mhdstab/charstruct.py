"""Closed-form wave speeds, eigenvalue classification, and glancing tests.

The eight eigenvalues of the full symbol A(U, xi) are, per unit |xi|,

    lambda_0   = u.xi                      (multiplicity 2)
    lambda_+-1 = u.xi -+/+ c_s |xi|          (slow magnetosonic)
    lambda_+-2 = u.xi +- (xi.B)/sqrt(rho)  (Alfven)
    lambda_+-3 = u.xi +- c_f |xi|          (fast magnetosonic)

with a = (xi_hat . B)/sqrt(rho) (signed), b = |xi_hat x B|/sqrt(rho),
h^2 = a^2 + b^2 = |B|^2/rho and

    c_{f,s}^2 = ((c0^2 + h^2) +- sqrt((c0^2 - h^2)^2 + 4 b^2 c0^2)) / 2.

Multiple eigenvalues are classified by regime:

  * generic (xi.B != 0, xi x B != 0): six simple roots, the double
    entropy root is geometrically regular;
  * xi.B = 0: one multiplicity-6 geometrically regular root plus two
    simple fast roots;
  * xi x B = 0: the slow and Alfven roots pair into two doubles which are
    not geometrically regular; relative to a boundary x_d = sigma*t they
    are totally nonglancing exactly when u_d - sigma != +-B_d/sqrt(rho).

The excluded regimes B = 0 and |B|^2 = rho c0^2 are detected and reported
rather than classified.  A root of multiplicity m is nonglancing relative
to the boundary when the m-th derivative of the characteristic polynomial
in the normal frequency component does not vanish at the root; that
derivative is read exactly off the factorized polynomial.  The branch
group velocities are exact too.  Scaled by D = S^(1/2), S the diagonal
Friedrichs symmetrizer, the symbol becomes H(xi) = D A(xi) D^-1, in closed
form (u.xi) I plus the symmetric blocks

    rho-u    c xi,                 c = sqrt(P_rho),
    theta-u  g xi,                 g = P_theta sqrt(theta/e_theta)/rho,
    u-B      xi b^T - (b.xi) I,    b = B/sqrt(rho),

whose transposes fill the u-rho, u-theta and B-u blocks.  H is symmetric
and linear in xi, so (Rellich) the slopes of the m branches through the
root are the eigenvalues of an m x m compression.  Both the compression
and its m eigenvectors are written in an orthonormal frame (xi_hat, t1,
t2) with t1 along the tangential field (`_frame_symbol`), where
H(xi_hat) - (u.xi_hat) I is the paper's adapted block form: a
magnetoacoustic tridiagonal with off-diagonals (c0, b, -a) on (s, u.xi_hat,
B.t1, u.t1), s = (c rho' + g theta')/c0, the Alfven pair (u.t2, B.t2) with
off-diagonal -a, the entropy mode (g rho' - c theta')/c0 and the div-B mode
B.xi_hat.  So the eigenvectors come in closed form (`_root_vectors`), with
no 8x8 eigensolve.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MissingBoundary, SingularTransform, ZeroFrequency
from .symbol import IDX_B, IDX_RHO, IDX_THETA, IDX_U, unit_vector
from .thermo import EquationOfState, ThermoState, c0_sq_from_eval, eval_eos

__all__ = [
    "WaveSpeeds",
    "Classification",
    "CharacteristicRoot",
    "RegimeTag",
    "BoundaryFrame",
    "NonglancingResult",
    "wave_speeds",
    "eigenvalues",
    "char_poly_reduced",
    "entropy_transform",
    "tangent_basis",
    "adapted_block_matrix",
    "adapted_change_of_basis",
    "classify",
    "nonglancing_test",
    "classification_record",
]

FAMILY_ENTROPY = "entropy"
FAMILY_SLOW_M = "slow-"
FAMILY_SLOW_P = "slow+"
FAMILY_ALFVEN_M = "alfven-"
FAMILY_ALFVEN_P = "alfven+"
FAMILY_FAST_M = "fast-"
FAMILY_FAST_P = "fast+"


class Classification(str, enum.Enum):
    SIMPLE = "Simple"
    GEOMETRICALLY_REGULAR = "GeometricallyRegular"
    TOTALLY_NONGLANCING = "TotallyNonglancing"
    NOT_CLASSIFIED = "NotClassified"


@dataclass(frozen=True)
class WaveSpeeds:
    """Characteristic speeds per unit |xi| for one (state, xi).

    `a` keeps the sign of xi_hat . B; all identities use a^2.  Satisfies
    a^2 + b^2 = h^2, c_f^2 c_s^2 = a^2 c0^2, c_f^2 + c_s^2 = c0^2 + h^2 and
    c_s <= min(|a|, c0) <= max(|a|, c0) <= c_f.
    """

    a: float
    b: float
    h: float
    c0: float
    c_s: float
    c_f: float


@dataclass(frozen=True)
class CharacteristicRoot:
    """One eigenvalue of the full symbol with multiplicity and classification."""

    lam: float
    multiplicity: int
    families: tuple[str, ...]
    classification: Classification = Classification.NOT_CLASSIFIED

    def with_classification(self, c: Classification) -> "CharacteristicRoot":
        return CharacteristicRoot(self.lam, self.multiplicity, self.families, c)


@dataclass(frozen=True)
class RegimeTag:
    """Case-splitting predicates of the classification lemma for one (state, xi)."""

    xi_dot_B_zero: bool
    xi_cross_B_zero: bool
    field_vs_sound: str  # "sub" | "super" | "equal"
    B_zero: bool
    near_manifold: bool = False

    @property
    def case(self) -> str:
        """Which classification case applies: excluded | b | c | a."""
        if self.B_zero or self.field_vs_sound == "equal":
            return "excluded"
        if self.xi_dot_B_zero:
            return "b"
        if self.xi_cross_B_zero:
            return "c"
        return "a"

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "xi_dot_B_zero": self.xi_dot_B_zero,
            "xi_cross_B_zero": self.xi_cross_B_zero,
            "field_vs_sound": self.field_vs_sound,
            "B_zero": self.B_zero,
            "near_manifold": self.near_manifold,
        }


@dataclass(frozen=True)
class BoundaryFrame:
    """Boundary data for glancing verdicts: 1-based normal axis and frame speed."""

    axis: int
    sigma: float = 0.0

    def __post_init__(self):
        if self.axis not in (1, 2, 3):
            raise ValueError(f"boundary axis must be 1, 2 or 3, got {self.axis}")


@dataclass(frozen=True)
class NonglancingResult:
    nonglancing: bool
    totally: bool
    incoming_count: int
    outgoing_count: int
    derivative_value: float
    branch_velocities: tuple[float, ...] = field(default_factory=tuple)


def _norm(v: np.ndarray) -> float:
    """float(np.linalg.norm(v)) for a float vector without the call's
    overhead: the square root of the same dot of the same raveled array,
    so the same bits."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def _check_xi(xi) -> tuple[np.ndarray, float]:
    xi = np.asarray(xi, dtype=float).reshape(3)
    xin = _norm(xi)
    if xin == 0.0 or not math.isfinite(xin):
        raise ZeroFrequency("xi must be a finite nonzero 3-vector")
    return xi, xin


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b for 3-vectors: np.cross's component formula without its overhead."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def wave_speeds(state: ThermoState, eos: EquationOfState, xi) -> WaveSpeeds:
    """Alfven/slow/fast speeds per unit |xi| at one (state, xi).

    c_s^2 is evaluated through the product identity c_f^2 c_s^2 = a^2 c0^2
    to avoid cancellation in the subtracted quadratic root.
    """
    return _wave_speeds(state, eos, *_check_xi(xi))


def _wave_speeds(state: ThermoState, eos: EquationOfState, xi: np.ndarray,
                 xin: float) -> WaveSpeeds:
    """`wave_speeds` from the caller's checked xi and |xi|."""
    xi_hat = xi / xin
    ev = eval_eos(eos, state.rho, state.theta)
    rho, B = state.rho, state.B
    sqrt_rho = math.sqrt(rho)

    a = float(xi_hat @ B) / sqrt_rho
    b = _norm(_cross(xi_hat, B)) / sqrt_rho
    h_sq = float(B @ B) / rho
    c0_sq = c0_sq_from_eval(ev, rho, state.theta)

    disc = math.sqrt(max((c0_sq - h_sq) ** 2 + 4.0 * b * b * c0_sq, 0.0))
    cf_sq = 0.5 * ((c0_sq + h_sq) + disc)
    cs_sq = (a * a * c0_sq) / cf_sq if cf_sq > 0.0 else 0.0

    return WaveSpeeds(
        a=a,
        b=b,
        h=math.sqrt(h_sq),
        c0=math.sqrt(c0_sq),
        c_s=math.sqrt(max(cs_sq, 0.0)),
        c_f=math.sqrt(cf_sq),
    )


def _normal_speeds(state: ThermoState, eos: EquationOfState, d: int) -> np.ndarray:
    """The eight eigenvalues of A_d = A(U, e_d) for a 1-based axis d:
    u_d + (0, 0, -a, a, -c_s, c_s, -c_f, c_f), a = B_d / sqrt(rho)."""
    ws = wave_speeds(state, eos, unit_vector(d))
    return float(state.u[d - 1]) + np.array(
        [0.0, 0.0, -ws.a, ws.a, -ws.c_s, ws.c_s, -ws.c_f, ws.c_f])


def _noncharacteristic(lam: np.ndarray, tol_det: float) -> bool:
    """min |lambda| > tol_det * max |lambda| over A_d's eigenvalues lam
    (`_normal_speeds`): det A_d != 0, read relative to the spectrum's own
    scale."""
    speed = np.abs(lam)
    return bool(speed.min() > tol_det * speed.max())


def _speed_scale(ws: WaveSpeeds, state: ThermoState, sigma: float = 0.0) -> float:
    """The velocity scale max(c_f, |u|, |sigma|, 1) of the tolerances."""
    return max(ws.c_f, _norm(state.u), abs(sigma), 1.0)


def eigenvalues(state: ThermoState, eos: EquationOfState, xi,
                tol_merge: float = 1e-9) -> list[CharacteristicRoot]:
    """The eight eigenvalues of A(U, xi), coincident values merged.

    A value within tol_merge * |xi| * max(c_f, |u|, 1) of the smallest value
    of its cluster merges into that root with summed multiplicity (see
    `_clusters`); multiplicities always sum to 8.  Classification is
    NotClassified; use `classify` for labels.
    """
    xi, xin = _check_xi(xi)
    ws = _wave_speeds(state, eos, xi, xin)
    return _merged_roots(state, xi, xin, ws, tol_merge, _speed_scale(ws, state))


def _closed_form_values(state: ThermoState, xi: np.ndarray, xin: float,
                        ws: WaveSpeeds) -> list[tuple[float, str, int]]:
    """The seven distinct closed-form values (value, family, multiplicity)."""
    base = float(state.u @ xi)
    return [
        (base, FAMILY_ENTROPY, 2),
        (base - ws.c_s * xin, FAMILY_SLOW_M, 1),
        (base + ws.c_s * xin, FAMILY_SLOW_P, 1),
        (base - ws.a * xin, FAMILY_ALFVEN_M, 1),
        (base + ws.a * xin, FAMILY_ALFVEN_P, 1),
        (base - ws.c_f * xin, FAMILY_FAST_M, 1),
        (base + ws.c_f * xin, FAMILY_FAST_P, 1),
    ]


def _merged_roots(state: ThermoState, xi: np.ndarray, xin: float, ws: WaveSpeeds,
                  tol_merge: float, scale: float) -> list[CharacteristicRoot]:
    """`eigenvalues` from the caller's checked xi, |xi|, wave speeds and
    `_speed_scale`: the clusters of `_clusters` in the band tol_merge |xi|
    scale."""
    roots = [CharacteristicRoot(lam, mult, tuple(sorted(families)))
             for lam, mult, families in _clusters(
                 _closed_form_values(state, xi, xin, ws), tol_merge * xin * scale)]
    assert sum(r.multiplicity for r in roots) == 8
    return roots


def _clusters(values: list[tuple[float, str, int]], band: float
              ) -> list[tuple[float, int, list[str]]]:
    """The closed-form values grouped into roots (mean value, multiplicity,
    families).  The sorted values group by anchor: a cluster opens at its
    smallest value and takes every later value within the band of that
    anchor, so values spaced just under the band do not chain into one root.
    """
    clusters: list[list] = []  # [anchor, sum of value x multiplicity, multiplicity, families]
    for value, family, k in sorted(values, key=lambda t: t[0]):
        if not clusters or value - clusters[-1][0] > band:
            clusters.append([value, 0.0, 0, []])
        cluster = clusters[-1]
        cluster[1] += value * k
        cluster[2] += k
        cluster[3].append(family)
    return [(total / mult, mult, families) for _, total, mult, families in clusters]


def _polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of polynomials given by their coefficients (increasing powers)
    along the last axis, over any broadcast leading axes."""
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
                   + (a.shape[-1] + b.shape[-1] - 1,), dtype=np.result_type(a, b))
    for i in range(a.shape[-1]):
        out[..., i:i + b.shape[-1]] += a[..., i, None] * b
    return out


def _char_poly_factors(tau_sq, xi_dot_B_sq, c0_xi_sq, xi_cross_B_sq
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factors T, T - F and (T - F)(T - C) - X T of det(tau_tilde I +
    A_tilde(xi)) along a line of xi, one per pair of +- roots of a wave
    family (entropy, Alfven, magnetoacoustic).

    The inputs are coefficient arrays (increasing powers in the line's
    parameter along the last axis, length 3, any leading stack axes, real or
    complex) of T = tau_tilde^2, F = (xi.B)^2/rho, C = c0^2 xi.xi and X =
    h^2 xi.xi - F, which is |xi x B|^2/rho for real xi.  For complex xi the
    products are the bilinear ones (xi.xi, not |xi|^2), so the factors stay
    those of the determinant.  `nonglancing_test` takes the line xi + t e_d
    with real t (`_glancing_coefficient`, the same factors in scalar
    arithmetic); the scan takes xi = (eta, -s mu) with complex mu, whose
    roots are a side's eigenvalues (`lopatinski._Side.roots`).
    """
    alfven = tau_sq - xi_dot_B_sq
    magnetosonic = (_polymul(alfven, tau_sq - c0_xi_sq)
                    - _polymul(xi_cross_B_sq, tau_sq))
    return tau_sq, alfven, magnetosonic


def _factored_char_poly(tau_sq, xi_dot_B_sq, c0_xi_sq, xi_cross_B_sq) -> np.ndarray:
    """The 9 coefficients (increasing powers) of det(tau_tilde I + A_tilde(xi))

        P = T (T - F) ((T - F)(T - C) - X T),

    the product of `_char_poly_factors` of the same inputs.
    """
    entropy, alfven, magnetosonic = _char_poly_factors(
        tau_sq, xi_dot_B_sq, c0_xi_sq, xi_cross_B_sq)
    return _polymul(_polymul(entropy, alfven), magnetosonic)


def _quadratic_product(p, q) -> tuple[float, ...]:
    """The 5 coefficients of the product of two quadratics given as
    coefficient triples (increasing powers)."""
    p0, p1, p2 = p
    q0, q1, q2 = q
    return (p0 * q0, p0 * q1 + p1 * q0, p0 * q2 + p1 * q1 + p2 * q0,
            p1 * q2 + p2 * q1, p2 * q2)


def _glancing_coefficient(tau_sq, xi_dot_B_sq, c0_xi_sq, xi_cross_B_sq, m: int) -> float:
    """The m-th coefficient of `_factored_char_poly` of the same real
    quadratics, P = T (T - F)((T - F)(T - C) - X T), in scalar arithmetic:
    the sum over i of the i-th coefficient of T (T - F) times the (m-i)-th
    of the magnetosonic factor."""
    alfven = [t - f for t, f in zip(tau_sq, xi_dot_B_sq)]
    lead = _quadratic_product(tau_sq, alfven)
    magnetosonic = [p - q for p, q in zip(
        _quadratic_product(alfven, [t - c for t, c in zip(tau_sq, c0_xi_sq)]),
        _quadratic_product(xi_cross_B_sq, tau_sq))]
    return sum(lead[i] * magnetosonic[m - i] for i in range(max(0, m - 4), min(m, 4) + 1))


def char_poly_reduced(state: ThermoState, eos: EquationOfState, xi) -> np.ndarray:
    """Coefficients (highest degree first) of the reduced characteristic polynomial

        P(x) = x^2 (x^2 - a^2) ((x^2 - a^2)(x^2 - c0^2) - b^2 x^2)

    in x = lambda_tilde / |xi|.  Expanded:
        x^8 - (c0^2 + h^2 + a^2) x^6 + a^2 (2 c0^2 + h^2) x^4 - a^4 c0^2 x^2.
    """
    ws = wave_speeds(state, eos, xi)
    return _factored_char_poly(np.array([0.0, 0.0, 1.0]),
                               np.array([ws.a**2, 0.0, 0.0]),
                               np.array([ws.c0**2, 0.0, 0.0]),
                               np.array([ws.b**2, 0.0, 0.0]))[::-1]


def entropy_transform(state: ThermoState, eos: EquationOfState
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The 2x2 map T, (sigma', theta') -> (x', y'), and its inverse.

    T = [[P_rho, P_theta / rho], [P_theta * theta, -e_theta * rho]] with
    det T = -(rho P_rho e_theta + theta P_theta^2 / rho), nonzero for
    admissible states; SingularTransform guards synthetic EOS where the
    criterion can cross zero.
    """
    ev = eval_eos(eos, state.rho, state.theta)
    rho, theta = state.rho, state.theta
    T = np.array([
        [ev.P_rho, ev.P_theta / rho],
        [ev.P_theta * theta, -ev.e_theta * rho],
    ])
    det = T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0]
    scale = float(np.sum(T * T))
    if abs(det) <= 1e-14 * scale:
        raise SingularTransform(
            f"entropy transform singular: det={det:.3e}, scale={scale:.3e}")
    T_inv = np.array([[T[1, 1], -T[0, 1]], [-T[1, 0], T[0, 0]]]) / det
    return T, T_inv


def tangent_basis(xi, B) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal frame (xi_hat, t1, t2) with t1 along the tangential field.

    When the component of B orthogonal to xi is negligible (|xi x B| <=
    1e-12 |B|, or B = 0) the tangent pair has no preferred direction
    and a deterministic Householder complement of xi_hat is used instead.
    Always right-handed: t2 = xi_hat x t1.
    """
    xi, xin = _check_xi(xi)
    xi_hat = xi / xin
    t1, t2 = _tangent_pair(xi_hat.tolist(), np.asarray(B, dtype=float).reshape(3).tolist(), 1e-12)
    return xi_hat, np.array(t1), np.array(t2)


def _tangent_pair(x: list[float], B: list[float], tol: float
                  ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """t1 and t2 of `tangent_basis` for the components of a unit xi_hat and
    of B, with the Householder complement where |xi_hat x B| <= tol |B|."""
    x0, x1, x2 = x
    dot = x0 * B[0] + x1 * B[1] + x2 * B[2]
    perp = [Bi - dot * xi for Bi, xi in zip(B, x)]
    # a second projection keeps t1 orthogonal to xi_hat to rounding even
    # when the tangential field is small next to the first one's rounding
    dot = x0 * perp[0] + x1 * perp[1] + x2 * perp[2]
    perp = [p - dot * xi for p, xi in zip(perp, x)]
    norm = math.hypot(*perp)
    if norm > tol * math.hypot(*B):
        t1 = tuple([p / norm for p in perp])
    else:
        # column 2 of the Householder reflection I - 2 v v^T / (v.v),
        # v = xi_hat + sign(x0) e_1, which maps e_1 to -sign(x0) xi_hat
        v0 = x0 + (1.0 if x0 >= 0.0 else -1.0)
        scale = 2.0 * x1 / (v0 * v0 + x1 * x1 + x2 * x2)
        t1 = (-scale * v0, 1.0 - scale * x1, -scale * x2)
    t2 = (x1 * t1[2] - x2 * t1[1], x2 * t1[0] - x0 * t1[2], x0 * t1[1] - x1 * t1[0])
    return t1, t2


def _frame_symbol(ws: WaveSpeeds, v) -> np.ndarray:
    """H(v) - (u.v) I of `_symmetric_symbol` on the frame coordinates

        (s, u.xi_hat, B.t1, u.t1, u.t2, B.t2, e, B.xi_hat),

    s = (c rho' + g theta')/c0 and e = (g rho' - c theta')/c0 (c0^2 = c^2 +
    g^2), for v = (v0, v1, v2) on the frame (xi_hat, t1, t2), t1 along the
    tangential field so that B/sqrt(rho) = a xi_hat + b t1: the s-u block
    c0 v and the u-B block v (a, b, 0)^T - (a v0 + b v1) I, the rest zero.
    At v = (1, 0, 0) it is the zero-diagonal tridiagonal with off-diagonals
    (c0, b, -a, 0, -a, 0, 0): the paper's adapted blocks, a magnetoacoustic
    block on (s, u.xi_hat, B.t1, u.t1), the Alfven pair (u.t2, B.t2) and the
    entropy and div-B modes.
    """
    a, b, c0 = ws.a, ws.b, ws.c0
    v0, v1, v2 = v
    bv = a * v0 + b * v1
    return np.array([
        [0.0, c0 * v0, 0.0, c0 * v1, c0 * v2, 0.0, 0.0, 0.0],
        [c0 * v0, 0.0, b * v0, 0.0, 0.0, 0.0, 0.0, -b * v1],
        [0.0, b * v0, 0.0, -a * v0, b * v2, 0.0, 0.0, 0.0],
        [c0 * v1, 0.0, -a * v0, 0.0, 0.0, 0.0, 0.0, a * v1],
        [c0 * v2, 0.0, b * v2, 0.0, 0.0, -bv, 0.0, a * v2],
        [0.0, 0.0, 0.0, 0.0, -bv, 0.0, 0.0, 0.0],
        [0.0] * 8,
        [0.0, -b * v1, 0.0, a * v1, a * v2, 0.0, 0.0, 0.0],
    ])


def adapted_block_matrix(state: ThermoState, eos: EquationOfState, xi,
                         lambda_tilde: float) -> np.ndarray:
    """Block matrix lambda_tilde*I - A0 in the adapted coordinates

        (x', u'_par, u'_perp1, u'_perp2, v'_perp1, v'_perp2, y', v'_par)

    where v' = B'/sqrt(rho) and lambda_tilde is the eigenvalue per unit
    |xi| (a speed).  Its determinant is char_poly_reduced evaluated at
    lambda_tilde, and the conjugation back to (rho, u, theta, B) unknowns
    is `adapted_change_of_basis`.
    """
    ws = _wave_speeds(state, eos, *_check_xi(xi))
    # the frame block in the adapted order, x' = c0 s scaling the (s,
    # u.xi_hat) pair to (c0^2, 1)
    order = [0, 1, 3, 4, 2, 5, 6, 7]
    A0 = _frame_symbol(ws, (1.0, 0.0, 0.0))[np.ix_(order, order)]
    A0[0, 1], A0[1, 0] = ws.c0**2, 1.0
    return float(lambda_tilde) * np.eye(8) - A0


def adapted_change_of_basis(state: ThermoState, eos: EquationOfState, xi) -> np.ndarray:
    """Matrix V mapping (rho, u, theta, B) perturbations to the adapted coordinates.

    V conjugates the fluid-frame symbol: V (A_tilde / |xi|) V^-1 equals the
    constant matrix A0 whose pencil `adapted_block_matrix` returns.
    """
    xi, _ = _check_xi(xi)
    ev = eval_eos(eos, state.rho, state.theta)
    rho, theta = state.rho, state.theta
    sqrt_rho = math.sqrt(rho)
    xi_hat, t1, t2 = tangent_basis(xi, state.B)

    V = np.zeros((8, 8))
    V[0, IDX_RHO] = ev.P_rho / rho          # x' from sigma' = rho'/rho
    V[0, IDX_THETA] = ev.P_theta / rho
    V[1, IDX_U] = xi_hat                    # u'_par
    V[2, IDX_U] = t1                        # u'_perp1
    V[3, IDX_U] = t2                        # u'_perp2
    V[4, IDX_B] = t1 / sqrt_rho             # v'_perp1
    V[5, IDX_B] = t2 / sqrt_rho             # v'_perp2
    V[6, IDX_RHO] = ev.P_theta * theta / rho  # y'
    V[6, IDX_THETA] = -ev.e_theta * rho
    V[7, IDX_B] = xi_hat / sqrt_rho         # v'_par
    return V


def _symmetric_symbol(state: ThermoState, eos: EquationOfState, *xis) -> list[np.ndarray]:
    """H(xi) = D A(xi) D^-1 at each given xi (float 3-vectors), D = S^(1/2)
    with S the diagonal symmetrizer, in closed form from one EOS evaluation:

        H(xi) = (u.xi) I + the symmetric blocks
                rho-u    c xi,                 c = sqrt(P_rho),
                theta-u  g xi,                 g = P_theta sqrt(theta/e_theta)/rho,
                u-B      xi b^T - (b.xi) I,    b = B/sqrt(rho),

    and B-u the transpose of u-B.  H is exactly symmetric: it has A's
    eigenvalues and an orthonormal eigenvector set, and it is linear in xi
    like A.
    """
    ev = eval_eos(eos, state.rho, state.theta)
    c = math.sqrt(ev.P_rho)
    g = ev.P_theta * math.sqrt(state.theta / ev.e_theta) / state.rho
    b0, b1, b2 = (state.B / math.sqrt(state.rho)).tolist()
    u0, u1, u2 = state.u.tolist()
    out = []
    for xi in xis:
        x0, x1, x2 = xi.tolist()
        ux = u0 * x0 + u1 * x1 + u2 * x2
        bx = b0 * x0 + b1 * x1 + b2 * x2
        out.append(np.array([
            [ux, c * x0, c * x1, c * x2, 0.0, 0.0, 0.0, 0.0],
            [c * x0, ux, 0.0, 0.0, g * x0, x0 * b0 - bx, x0 * b1, x0 * b2],
            [c * x1, 0.0, ux, 0.0, g * x1, x1 * b0, x1 * b1 - bx, x1 * b2],
            [c * x2, 0.0, 0.0, ux, g * x2, x2 * b0, x2 * b1, x2 * b2 - bx],
            [0.0, g * x0, g * x1, g * x2, ux, 0.0, 0.0, 0.0],
            [0.0, x0 * b0 - bx, x1 * b0, x2 * b0, 0.0, ux, 0.0, 0.0],
            [0.0, x0 * b1, x1 * b1 - bx, x2 * b1, 0.0, 0.0, ux, 0.0],
            [0.0, x0 * b2, x1 * b2, x2 * b2 - bx, 0.0, 0.0, 0.0, ux],
        ]))
    return out


def _detect_regime(state: ThermoState, ws: WaveSpeeds, tol_manifold: float) -> RegimeTag:
    """The regime predicates at one (state, xi) from its wave speeds:
    |B| = h sqrt(rho), |xi_hat . B| = |a| sqrt(rho), |xi_hat x B| = b sqrt(rho)
    and rho c0^2, each compared with tol_manifold times its scale.
    """
    sqrt_rho = math.sqrt(state.rho)
    Bn, dot, cross = ws.h * sqrt_rho, abs(ws.a) * sqrt_rho, ws.b * sqrt_rho
    rho_c0_sq = state.rho * ws.c0**2

    b_zero = Bn <= tol_manifold * math.sqrt(rho_c0_sq)
    dot_zero = b_zero or dot <= tol_manifold * Bn
    cross_zero = (not b_zero) and cross <= tol_manifold * Bn

    diff = Bn**2 - rho_c0_sq
    equal = abs(diff) <= tol_manifold * (Bn**2 + rho_c0_sq)
    field_vs_sound = "equal" if equal else ("sub" if diff < 0 else "super")

    near = ((b_zero and Bn > 0.0)
            or (dot_zero and not b_zero and dot > 0.0)
            or (cross_zero and cross > 0.0)
            or equal)
    return RegimeTag(
        xi_dot_B_zero=dot_zero,
        xi_cross_B_zero=cross_zero,
        field_vs_sound=field_vs_sound,
        B_zero=b_zero,
        near_manifold=near,
    )


def classify(state: ThermoState, eos: EquationOfState, xi,
             boundary: BoundaryFrame | None = None,
             tol_merge: float = 1e-9,
             tol_manifold: float = 1e-9,
             ) -> tuple[list[CharacteristicRoot], RegimeTag]:
    """Classify the merged eigenvalues at one (state, xi).

    Returns the merged roots with classifications assigned per regime, and
    the regime tag.  On the field-aligned manifold (case c) the glancing
    verdict for the double roots needs boundary data; MissingBoundary is
    raised if none is supplied.  In the excluded regimes (B = 0 or
    |B|^2 = rho c0^2 within tolerance) multiple roots are reported
    NotClassified; simple roots are Simple in every regime.  One
    `wave_speeds` evaluation serves the regime tag and the merged roots; the
    multiplicity-6 root of case b counts its eigenvectors as the eigenvalues
    of the symmetric H(xi) inside the merge band.
    """
    xi, xin = _check_xi(xi)
    ws = _wave_speeds(state, eos, xi, xin)
    regime = _detect_regime(state, ws, tol_manifold)
    scale = _speed_scale(ws, state)
    roots = _merged_roots(state, xi, xin, ws, tol_merge, scale)
    band = tol_merge * xin * scale

    def classify_root(root: CharacteristicRoot) -> CharacteristicRoot:
        if root.multiplicity == 1:
            return root.with_classification(Classification.SIMPLE)
        if regime.case == "excluded":
            return root.with_classification(Classification.NOT_CLASSIFIED)
        if FAMILY_ENTROPY in root.families and root.multiplicity == 2:
            # Entropy double: semisimple of constant multiplicity 2.
            return root.with_classification(Classification.GEOMETRICALLY_REGULAR)
        if regime.case == "b":
            if root.multiplicity == 6:
                # H(xi) is diagonalizable by an orthogonal matrix
                w = np.linalg.eigvalsh(_symmetric_symbol(state, eos, xi)[0])
                tol = max(band, 1e-12 * max(1.0, abs(root.lam)))
                if np.count_nonzero(np.abs(w - root.lam) <= tol) == 6:
                    return root.with_classification(Classification.GEOMETRICALLY_REGULAR)
            return root.with_classification(Classification.NOT_CLASSIFIED)
        if regime.case == "c" and root.multiplicity == 2:
            if boundary is None:
                raise MissingBoundary(
                    "glancing verdict on the field-aligned manifold requires "
                    "boundary data {axis, sigma}")
            d = boundary.axis
            u_d = float(state.u[d - 1])
            alf_d = float(state.B[d - 1]) / math.sqrt(state.rho)
            tol = tol_manifold * max(scale, abs(boundary.sigma))
            rel = u_d - boundary.sigma
            if abs(rel - alf_d) > tol and abs(rel + alf_d) > tol:
                return root.with_classification(Classification.TOTALLY_NONGLANCING)
            return root.with_classification(Classification.NOT_CLASSIFIED)
        return root.with_classification(Classification.NOT_CLASSIFIED)

    return [classify_root(r) for r in roots], regime


def _unit(v) -> tuple[float, ...]:
    norm = math.hypot(*v)
    return tuple([x / norm for x in v])


def _magnetoacoustic_vectors(mus: list[float], others: list[float], p: float, q: float,
                             r: float) -> list[tuple[float, float, float, float]]:
    """Orthonormal vectors spanning the eigenvectors of the zero-diagonal
    symmetric tridiagonal T with off-diagonals (p, q, r) at its eigenvalues
    mus; others are its remaining eigenvalues.

    One eigenvalue mu: the column of adj(T - mu I) = prod(gaps) w w^T with
    the largest diagonal entry; its entries are products of off-diagonals
    and the leading and trailing principal minors of T - mu I.  More: the
    leading columns of the product of T - o I over the others,
    orthonormalized; only their span is well determined when the
    eigenvalues lie close together.  Both are polynomials in the entries, so
    where an off-diagonal vanishes they give the vectors of the decoupled
    blocks without a separate branch.
    """
    p2, q2, r2 = p * p, q * q, r * r
    if len(mus) == 1:
        mu = mus[0]
        m2 = mu * mu
        adj = [(mu * (q2 + r2 - m2), p * (r2 - m2), -p * q * mu, -p * q * r),
               (p * (r2 - m2), mu * (r2 - m2), -q * m2, -q * r * mu),
               (-p * q * mu, -q * m2, mu * (p2 - m2), r * (p2 - m2)),
               (-p * q * r, -q * r * mu, r * (p2 - m2), mu * (p2 + q2 - m2))]
        return [_unit(adj[max(range(4), key=lambda j: abs(adj[j][j]))])]
    # the range of the product of T - o I over the other eigenvalues o,
    # which vanishes on their eigenvectors: its leading columns, pivoted
    # Gram-Schmidt
    if len(others) == 2:
        s, t = others[0] + others[1], others[0] * others[1]
        cols = [(p2 + t, -s * p, p * q, 0.0),
                (-s * p, p2 + q2 + t, -s * q, q * r),
                (p * q, -s * q, q2 + r2 + t, -s * r),
                (0.0, q * r, -s * r, r2 + t)]
    elif others:
        o = others[0]
        cols = [(-o, p, 0.0, 0.0), (p, -o, q, 0.0), (0.0, q, -o, r), (0.0, 0.0, r, -o)]
    else:
        cols = [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)]
    vectors = []
    while len(vectors) < len(mus):
        v = _unit(max(cols, key=lambda col: math.hypot(*col)))
        vectors.append(v)
        dots = [v[0] * x0 + v[1] * x1 + v[2] * x2 + v[3] * x3 for x0, x1, x2, x3 in cols]
        cols = [[x - dot * y for x, y in zip(col, v)] for col, dot in zip(cols, dots)]
    return vectors


def _root_vectors(families, ws: WaveSpeeds) -> list[tuple[float, ...]]:
    """Orthonormal eigenvectors of `_frame_symbol` at xi_hat, the
    tridiagonal with off-diagonals (c0, b, -a, 0, -a, 0, 0), at a root made
    of `families`: its magnetoacoustic block (`_magnetoacoustic_vectors`) at
    -+c_s and -+c_f, the Alfven pair with off-diagonal -a at -+a, and the
    entropy and div-B modes at 0.
    """
    r = math.sqrt(0.5)
    vectors = []
    if FAMILY_ENTROPY in families:
        vectors += [(0.0,) * 6 + (1.0, 0.0), (0.0,) * 7 + (1.0,)]
    if FAMILY_ALFVEN_M in families:
        vectors.append((0.0,) * 4 + (r, r, 0.0, 0.0))
    if FAMILY_ALFVEN_P in families:
        vectors.append((0.0,) * 4 + (r, -r, 0.0, 0.0))
    mus, others = [], []
    for family, mu in ((FAMILY_SLOW_M, -ws.c_s), (FAMILY_SLOW_P, ws.c_s),
                       (FAMILY_FAST_M, -ws.c_f), (FAMILY_FAST_P, ws.c_f)):
        (mus if family in families else others).append(mu)
    if mus:
        vectors += [v + (0.0,) * 4 for v in _magnetoacoustic_vectors(
            mus, others, ws.c0, ws.b, -ws.a)]
    return vectors


def nonglancing_test(state: ThermoState, eos: EquationOfState,
                     root: CharacteristicRoot, xi,
                     boundary: BoundaryFrame) -> NonglancingResult:
    """Glancing test for a multiplicity-m root at (state, xi).

    nonglancing: the m-th derivative of det(tau0 I + A(xi) - sigma xi_d I)
    in xi_d at the root is nonzero.  The determinant is the closed-form
    factorization of `char_poly_reduced` with tau_tilde = tau0 + u.xi -
    sigma xi_d, a degree-8 polynomial in the shift of xi_d whose m-th
    coefficient gives the derivative exactly; only that coefficient is
    formed, in scalar arithmetic on the quadratics T, F, C and X
    (`_glancing_coefficient`).  The derivative is normalized by the
    same-order tau derivative m! * prod_{j not in root}(lambda_j -
    lambda_root), over the seven closed-form values merged as `eigenvalues`
    merges them (`_clusters`); the root is the merged value within 1e-9 |xi|
    vel_scale of root.lam.  The two derivatives differ exactly by the
    product of the branch group velocities, so the scale-relative tolerance
    1e-8 acts in velocity units.  totally: all m branch group velocities
    d(lambda)/d(xi_d) - sigma share one sign.  The velocities are exact:
    H(xi + t e_d) = H(xi) + t H(e_d), H = S^(1/2) A S^(-1/2) the symmetric
    symbol, so (Rellich) the m eigenvalue branches through the root are
    analytic in t and their slopes are the eigenvalues of W^T H(e_d) W, W the
    m orthonormal eigenvectors of H(xi) at the merged root's values.  Both
    come from the
    frame (xi_hat, t1, t2) with t1 along the tangential field wherever it is
    nonzero (`_frame_symbol`): H(xi_hat) splits there into the paper's
    adapted blocks, whose eigenvectors at the root are polynomials in their
    entries (`_root_vectors`).  The entropy double needs no vectors: its
    branches are exactly lambda = u . xi, so both velocities are u_d -
    sigma.  Raises ValueError when root.lam is not an eigenvalue of
    multiplicity m at xi.
    """
    if boundary is None:
        raise MissingBoundary("nonglancing_test requires boundary data")
    xi, xin = _check_xi(xi)
    m = root.multiplicity
    if m > 6:
        raise ValueError(f"derivative order capped at 6, got multiplicity {m}")
    d, sigma = boundary.axis, boundary.sigma
    ws = _wave_speeds(state, eos, xi, xin)
    scale = _speed_scale(ws, state)
    vel_scale = max(scale, abs(sigma))

    # same-order tau derivative of P at the root, over the other roots merged
    # as `eigenvalues` merges them: the sigma shift cancels in the gaps
    values = _closed_form_values(state, xi, xin, ws)
    gap_product = math.factorial(m)
    matched = []
    for lam, mult, families in _clusters(values, 1e-9 * xin * scale):
        if abs(lam - root.lam) <= 1e-9 * xin * vel_scale:
            if mult != m:
                raise ValueError(
                    f"root multiplicity {m} does not match the spectrum "
                    f"(found {mult} at lambda = {lam})")
            matched.append((abs(lam - root.lam), families))
            continue
        gap_product *= (lam - root.lam) ** mult
    if not matched:
        raise ValueError(f"lambda = {root.lam} is not an eigenvalue at this xi")
    families = min(matched)[1]
    denom = abs(gap_product) * vel_scale**m

    # in the shift t of xi_d, at tau0 = sigma xi_d - lambda_root:
    # tau_tilde = u.xi - lambda_root + (u_d - sigma) t, and
    # |xi x B|^2 = |xi|^2 |B|^2 - (xi.B)^2
    x = xi.tolist()
    rho, u_d, B_d = state.rho, float(state.u[d - 1]), float(state.B[d - 1])
    tau, xb, rel = values[0][0] - root.lam, float(xi @ state.B), u_d - sigma
    xi_sq = (x[0] * x[0] + x[1] * x[1] + x[2] * x[2], 2.0 * x[d - 1], 1.0)
    xi_dot_B_sq = (xb * xb / rho, 2.0 * xb * B_d / rho, B_d * B_d / rho)
    c0_sq, h_sq = ws.c0**2, ws.h**2
    deriv = math.factorial(m) * _glancing_coefficient(
        (tau * tau, 2.0 * tau * rel, rel * rel), xi_dot_B_sq,
        [c0_sq * s for s in xi_sq], [h_sq * s - f for s, f in zip(xi_sq, xi_dot_B_sq)], m)
    nonglancing = abs(deriv) > 1e-8 * max(denom, 1e-300)

    if families == [FAMILY_ENTROPY]:
        # the entropy branches are exactly lambda = u . xi: both move at u_d
        velocities = [rel] * m
    else:
        # W^T H(e_d) W on the frame coordinates, e_d = (xi_hat_d, t1_d, t2_d)
        # on the frame (xi_hat, t1, t2)
        xi_hat = [c / xin for c in x]
        t1, t2 = _tangent_pair(xi_hat, state.B.tolist(), 0.0)
        W = np.array(_root_vectors(families, ws))
        H_d = _frame_symbol(ws, (xi_hat[d - 1], t1[d - 1], t2[d - 1]))
        velocities = (np.linalg.eigvalsh(W @ H_d @ W.T) + rel).tolist()

    vel_tol = 1e-8 * vel_scale
    incoming = sum(v > vel_tol for v in velocities)
    outgoing = sum(v < -vel_tol for v in velocities)
    totally = bool(nonglancing and (incoming == m or outgoing == m))
    return NonglancingResult(
        nonglancing=bool(nonglancing),
        totally=totally,
        incoming_count=incoming,
        outgoing_count=outgoing,
        derivative_value=deriv,
        branch_velocities=tuple(velocities),
    )


def classification_record(xi, roots: list[CharacteristicRoot],
                          regime: RegimeTag) -> dict:
    """JSON-serializable record {xi, regime, roots: [{lambda, mult, class}]}."""
    return {
        "xi": [float(x) for x in np.asarray(xi, dtype=float).reshape(3)],
        "regime": regime.to_dict(),
        "roots": [
            {
                "lambda": r.lam,
                "mult": r.multiplicity,
                "class": r.classification.value,
                "families": list(r.families),
            }
            for r in roots
        ],
    }
