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
derivative is read exactly off the factorized polynomial, and the branch
group velocities are tracked numerically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateBranchMatching,
    MissingBoundary,
    SingularTransform,
    ZeroFrequency,
)
from .symbol import (
    IDX_B,
    IDX_RHO,
    IDX_THETA,
    IDX_U,
    assemble_full_symbol,
    symmetrizer,
    unit_vector,
)
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

    @property
    def family(self) -> str:
        return self.families[0] if len(self.families) == 1 else "merged"

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


def _check_xi(xi) -> tuple[np.ndarray, float]:
    xi = np.asarray(xi, dtype=float).reshape(3)
    xin = float(np.linalg.norm(xi))
    if xin == 0.0 or not np.isfinite(xin):
        raise ZeroFrequency("xi must be a finite nonzero 3-vector")
    return xi, xin


def wave_speeds(state: ThermoState, eos: EquationOfState, xi) -> WaveSpeeds:
    """Alfven/slow/fast speeds per unit |xi| at one (state, xi).

    c_s^2 is evaluated through the product identity c_f^2 c_s^2 = a^2 c0^2
    to avoid cancellation in the subtracted quadratic root.
    """
    xi, xin = _check_xi(xi)
    xi_hat = xi / xin
    ev = eval_eos(eos, state.rho, state.theta)
    rho, B = state.rho, state.B
    sqrt_rho = math.sqrt(rho)

    a = float(xi_hat @ B) / sqrt_rho
    b = float(np.linalg.norm(np.cross(xi_hat, B))) / sqrt_rho
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


def _speed_scale(ws: WaveSpeeds, state: ThermoState) -> float:
    return max(ws.c_f, float(np.linalg.norm(state.u)), 1.0)


def eigenvalues(state: ThermoState, eos: EquationOfState, xi,
                tol_merge: float = 1e-9) -> list[CharacteristicRoot]:
    """The eight eigenvalues of A(U, xi), coincident values merged.

    Values within tol_merge * |xi| * max(c_f, |u|, 1) of each other are
    merged into one root with summed multiplicity; multiplicities always
    sum to 8.  Classification is NotClassified; use `classify` for labels.
    """
    xi, xin = _check_xi(xi)
    return _merged_roots(state, xi, xin, wave_speeds(state, eos, xi), tol_merge)


def _merged_roots(state: ThermoState, xi: np.ndarray, xin: float, ws: WaveSpeeds,
                  tol_merge: float = 1e-9) -> list[CharacteristicRoot]:
    """`eigenvalues` from the caller's checked xi, |xi| and wave speeds."""
    base = float(state.u @ xi)

    entries = [
        (base, FAMILY_ENTROPY, 2),
        (base - ws.c_s * xin, FAMILY_SLOW_M, 1),
        (base + ws.c_s * xin, FAMILY_SLOW_P, 1),
        (base - ws.a * xin, FAMILY_ALFVEN_M, 1),
        (base + ws.a * xin, FAMILY_ALFVEN_P, 1),
        (base - ws.c_f * xin, FAMILY_FAST_M, 1),
        (base + ws.c_f * xin, FAMILY_FAST_P, 1),
    ]
    entries.sort(key=lambda t: t[0])
    band = tol_merge * xin * _speed_scale(ws, state)

    roots: list[CharacteristicRoot] = []
    cluster: list[tuple[float, str, int]] = []

    def flush():
        if not cluster:
            return
        mult = sum(m for _, _, m in cluster)
        lam = sum(v * m for v, _, m in cluster) / mult
        fams = tuple(sorted(f for _, f, _ in cluster))
        roots.append(CharacteristicRoot(lam, mult, fams))

    anchor = None
    for value, fam, mult in entries:
        if anchor is not None and value - anchor > band:
            flush()
            cluster = []
            anchor = None
        if anchor is None:
            anchor = value
        cluster.append((value, fam, mult))
    flush()

    assert sum(r.multiplicity for r in roots) == 8
    return roots


def _factored_char_poly(tau_sq, xi_dot_B_sq, c0_xi_sq, xi_cross_B_sq) -> np.ndarray:
    """The 9 coefficients (increasing powers) of det(tau_tilde I + A_tilde(xi))

        P = T (T - F) ((T - F)(T - C) - X T)

    from the length-3 coefficient arrays (increasing powers) of T =
    tau_tilde^2, F = (xi.B)^2/rho, C = c0^2 |xi|^2 and X = |xi x B|^2/rho:
    each factor pairs the +- roots of one wave family.
    """
    alfven = tau_sq - xi_dot_B_sq
    magnetosonic = (np.convolve(alfven, tau_sq - c0_xi_sq)
                    - np.convolve(xi_cross_B_sq, tau_sq))
    return np.convolve(np.convolve(tau_sq, alfven), magnetosonic)


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
    B = np.asarray(B, dtype=float).reshape(3)
    B_perp = B - (B @ xi_hat) * xi_hat
    B_perp_norm = np.linalg.norm(B_perp)
    if B_perp_norm > 1e-12 * np.linalg.norm(B):
        t1 = B_perp / B_perp_norm
    else:
        sign = 1.0 if xi_hat[0] >= 0.0 else -1.0
        v = xi_hat + sign * np.array([1.0, 0.0, 0.0])
        H = np.eye(3) - 2.0 * np.outer(v, v) / (v @ v)
        t1 = H[:, 1]
    t2 = np.cross(xi_hat, t1)
    return xi_hat, t1, t2


def adapted_block_matrix(state: ThermoState, eos: EquationOfState, xi,
                         lambda_tilde: float) -> np.ndarray:
    """Block matrix lambda_tilde*I - A0 in the adapted coordinates

        (x', u'_par, u'_perp1, u'_perp2, v'_perp1, v'_perp2, y', v'_par)

    where v' = B'/sqrt(rho) and lambda_tilde is the eigenvalue per unit
    |xi| (a speed).  Its determinant is char_poly_reduced evaluated at
    lambda_tilde, and the conjugation back to (rho, u, theta, B) unknowns
    is `adapted_change_of_basis`.
    """
    _check_xi(xi)
    ws = wave_speeds(state, eos, xi)
    a, b, c0_sq = ws.a, ws.b, ws.c0**2
    lt = float(lambda_tilde)
    M = np.array([
        [lt, -c0_sq, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [-1.0, lt, 0.0, 0.0, -b, 0.0, 0.0, 0.0],
        [0.0, 0.0, lt, 0.0, a, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, lt, 0.0, a, 0.0, 0.0],
        [0.0, -b, a, 0.0, lt, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, a, 0.0, lt, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, lt, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, lt],
    ])
    return M


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


def _geometric_multiplicity(state: ThermoState, eos: EquationOfState, xi,
                            lam: float, band: float) -> int:
    """Eigenvector count at eigenvalue lam via the S-symmetric eigenproblem.

    S A is symmetric and S positive definite, so eigh(S A, S) returns real
    eigenvalues with a full S-orthogonal eigenvector set; the geometric
    multiplicity is the count of eigenvalues inside the merge band.
    """
    A = assemble_full_symbol(state, eos, xi)
    S = symmetrizer(state, eos)
    w = scipy.linalg.eigh(S @ A, S, eigvals_only=True)
    return int(np.sum(np.abs(w - lam) <= max(band, 1e-12 * max(1.0, abs(lam)))))


def _detect_regime(state: ThermoState, eos: EquationOfState, xi,
                   tol_manifold: float) -> RegimeTag:
    xi, xin = _check_xi(xi)
    xi_hat = xi / xin
    B = state.B
    Bn = float(np.linalg.norm(B))
    rho_c0_sq = state.rho * c0_sq_from_eval(
        eval_eos(eos, state.rho, state.theta), state.rho, state.theta)

    b_zero = Bn <= tol_manifold * math.sqrt(rho_c0_sq)
    dot = abs(float(xi_hat @ B))
    cross = float(np.linalg.norm(np.cross(xi_hat, B)))
    dot_zero = b_zero or dot <= tol_manifold * Bn
    cross_zero = (not b_zero) and cross <= tol_manifold * Bn

    diff = Bn**2 - rho_c0_sq
    equal = abs(diff) <= tol_manifold * (Bn**2 + rho_c0_sq)
    field_vs_sound = "equal" if equal else ("sub" if diff < 0 else "super")

    near = ((b_zero and Bn > 0.0)
            or (dot_zero and not b_zero and dot > 0.0)
            or (cross_zero and cross > 0.0)
            or (equal and diff != 0.0))
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
    NotClassified; simple roots are Simple in every regime.
    """
    xi, xin = _check_xi(xi)
    regime = _detect_regime(state, eos, xi, tol_manifold)
    ws = wave_speeds(state, eos, xi)
    roots = _merged_roots(state, xi, xin, ws, tol_merge)
    band = tol_merge * xin * _speed_scale(ws, state)

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
                if _geometric_multiplicity(state, eos, xi, root.lam, band) == 6:
                    return root.with_classification(Classification.GEOMETRICALLY_REGULAR)
                return root.with_classification(Classification.NOT_CLASSIFIED)
            return root.with_classification(Classification.NOT_CLASSIFIED)
        if regime.case == "c" and root.multiplicity == 2:
            if boundary is None:
                raise MissingBoundary(
                    "glancing verdict on the field-aligned manifold requires "
                    "boundary data {axis, sigma}")
            d = boundary.axis
            u_d = float(state.u[d - 1])
            alf_d = float(state.B[d - 1]) / math.sqrt(state.rho)
            vel_scale = max(ws.c_f, float(np.linalg.norm(state.u)),
                            abs(boundary.sigma), 1.0)
            tol = tol_manifold * vel_scale
            rel = u_d - boundary.sigma
            if abs(rel - alf_d) > tol and abs(rel + alf_d) > tol:
                return root.with_classification(Classification.TOTALLY_NONGLANCING)
            return root.with_classification(Classification.NOT_CLASSIFIED)
        return root.with_classification(Classification.NOT_CLASSIFIED)

    return [classify_root(r) for r in roots], regime


def nonglancing_test(state: ThermoState, eos: EquationOfState,
                     root: CharacteristicRoot, xi,
                     boundary: BoundaryFrame) -> NonglancingResult:
    """Glancing test for a multiplicity-m root at (state, xi).

    nonglancing: the m-th derivative of det(tau0 I + A(xi) - sigma xi_d I)
    in xi_d at the root is nonzero.  The determinant is the closed-form
    factorization of `char_poly_reduced` with tau_tilde = tau0 + u.xi -
    sigma xi_d, a degree-8 polynomial in the shift of xi_d whose m-th
    coefficient gives the derivative exactly.  The derivative is
    normalized by the same-order tau derivative
    m! * prod_{j not in root}(lambda_j - lambda_root) -- the two differ
    exactly by the product of the branch group velocities -- so the
    scale-relative tolerance 1e-8 acts in velocity units.  totally: all m
    branch group velocities d(lambda)/d(xi_d) - sigma share one sign, the
    branches being tracked by continuity through xi_d -> xi_d +- eps with
    eps = 1e-3 |xi|.  The entropy double needs no tracking: its
    branches are exactly lambda = u . xi, so both velocities are u_d -
    sigma, however close another root sits.  Raises ValueError when
    root.lam is not an eigenvalue of multiplicity m at xi, and
    DegenerateBranchMatching when the continuation window is ambiguous.
    """
    if boundary is None:
        raise MissingBoundary("nonglancing_test requires boundary data")
    xi, xin = _check_xi(xi)
    m = root.multiplicity
    if m > 6:
        raise ValueError(f"derivative order capped at 6, got multiplicity {m}")
    d, sigma = boundary.axis, boundary.sigma
    ws = wave_speeds(state, eos, xi)
    vel_scale = max(ws.c_f, float(np.linalg.norm(state.u)), abs(sigma), 1.0)
    eps = 1e-3 * xin

    # same-order tau derivative of P at the root: the sigma shift cancels in
    # the eigenvalue gaps
    gap_product = math.factorial(m)
    matched = False
    for other in _merged_roots(state, xi, xin, ws):
        if abs(other.lam - root.lam) <= 1e-9 * xin * vel_scale:
            if other.multiplicity != m:
                raise ValueError(
                    f"root multiplicity {m} does not match the spectrum "
                    f"(found {other.multiplicity} at lambda = {other.lam})")
            matched = True
            continue
        gap_product *= (other.lam - root.lam) ** other.multiplicity
    if not matched:
        raise ValueError(f"lambda = {root.lam} is not an eigenvalue at this xi")
    denom = abs(gap_product) * vel_scale**m

    # in the shift t of xi_d, at tau0 = sigma xi_d - lambda_root:
    # tau_tilde = u.xi - lambda_root + (u_d - sigma) t, and
    # |xi x B|^2 = |xi|^2 |B|^2 - (xi.B)^2
    e_d = unit_vector(d)

    def sq(v0, v1):  # coefficients of |v0 + t v1|^2
        return np.array([np.dot(v0, v0), 2.0 * np.dot(v0, v1), np.dot(v1, v1)])

    xi_sq = sq(xi, e_d)
    xi_dot_B_sq = sq(float(xi @ state.B), state.B[d - 1]) / state.rho
    coef = _factored_char_poly(
        sq(float(state.u @ xi) - root.lam, state.u[d - 1] - sigma),
        xi_dot_B_sq, ws.c0**2 * xi_sq, ws.h**2 * xi_sq - xi_dot_B_sq)
    deriv = math.factorial(m) * float(coef[m])
    nonglancing = abs(deriv) > 1e-8 * max(denom, 1e-300)

    # Branch group velocities through the root.
    window = 3.0 * eps * vel_scale

    def branch_values(sign: float) -> np.ndarray:
        A = assemble_full_symbol(state, eos, xi + sign * eps * e_d)
        evs = np.sort(np.linalg.eigvals(A).real)
        dist = np.abs(evs - root.lam)
        order = np.argsort(dist)
        if dist[order[m - 1]] > window:
            raise DegenerateBranchMatching(
                f"branch moved beyond the continuation window at step {eps:.3e}")
        if m < 8 and dist[order[m]] < 1.5 * window:
            raise DegenerateBranchMatching(
                f"extraneous eigenvalue within the continuation window at step "
                f"{eps:.3e}: separation {dist[order[m]]:.3e}")
        return np.sort(evs[order[:m]])

    if root.families == (FAMILY_ENTROPY,):
        # the entropy branches are exactly lambda = u . xi: both move at u_d
        velocities = np.full(m, float(state.u[d - 1]) - sigma)
    else:
        velocities = (branch_values(+1.0) - branch_values(-1.0)) / (2.0 * eps) - sigma

    vel_tol = 1e-8 * vel_scale
    incoming = int(np.sum(velocities > vel_tol))
    outgoing = int(np.sum(velocities < -vel_tol))
    totally = bool(nonglancing and (incoming == m or outgoing == m))
    return NonglancingResult(
        nonglancing=bool(nonglancing),
        totally=totally,
        incoming_count=incoming,
        outgoing_count=outgoing,
        derivative_value=deriv,
        branch_velocities=tuple(float(v) for v in velocities),
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
