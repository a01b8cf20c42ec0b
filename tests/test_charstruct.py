import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mhdstab.errors import (
    MissingBoundary,
    SingularTransform,
    ZeroFrequency,
)
from mhdstab.thermo import (
    EosEval, EquationOfState, IdealGas, ThermoState, eval_eos, sound_speed_sq)
from mhdstab.symbol import assemble_full_symbol, assemble_tilde_symbol, symmetrizer, unit_vector
from mhdstab.charstruct import (
    BoundaryFrame,
    Classification,
    WaveSpeeds,
    adapted_block_matrix,
    adapted_change_of_basis,
    char_poly_reduced,
    classification_record,
    classify,
    eigenvalues,
    entropy_transform,
    nonglancing_test,
    tangent_basis,
    wave_speeds,
)
from mhdstab.charstruct import (
    _char_poly_factors,
    _factored_char_poly,
    _merged_roots,
    _symmetric_symbol,
)
from mhdstab import charstruct

from conftest import random_state, random_xi, random_rotation

SIMPLE = Classification.SIMPLE
GEOM = Classification.GEOMETRICALLY_REGULAR
TOTAL = Classification.TOTALLY_NONGLANCING
NOT = Classification.NOT_CLASSIFIED


def closed_form_spectrum(roots):
    return np.sort(np.concatenate([[r.lam] * r.multiplicity for r in roots]))


# ----------------------------------------------------------------------------
# wave speeds
# ----------------------------------------------------------------------------

def test_wave_speeds_euler_limit(gas):
    st = ThermoState(rho=1.0, u=[0, 1, 0], theta=1.0, B=[0, 0, 0])
    ws = wave_speeds(st, gas, [0, 0, 1])
    assert ws.a == ws.b == ws.h == 0.0
    assert ws.c_s == 0.0
    assert_allclose(ws.c_f, ws.c0, rtol=1e-15)


def test_wave_speeds_perpendicular(gas):
    st = ThermoState(rho=2.0, u=[0, 0, 0], theta=1.0, B=[3, 0, 0])
    ws = wave_speeds(st, gas, [0, 0, 1])  # xi . B = 0
    assert ws.a == 0.0
    assert_allclose(ws.b, ws.h, rtol=1e-15)
    assert ws.c_s == 0.0
    assert_allclose(ws.c_f**2, ws.c0**2 + ws.h**2, rtol=1e-14)


def test_wave_speeds_oblique_reference_values(gas):
    # rho = theta = 1, B = (1,0,0), xi_hat = (1,1,0)/sqrt(2)
    st = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[1, 0, 0])
    ws = wave_speeds(st, gas, np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0))
    assert_allclose(ws.a**2, 0.5, rtol=1e-14)
    assert_allclose(ws.b**2, 0.5, rtol=1e-14)
    assert_allclose(ws.h**2, 1.0, rtol=1e-14)
    cf_sq = (8.0 / 3.0 + math.sqrt(34.0) / 3.0) / 2.0
    cs_sq = (8.0 / 3.0 - math.sqrt(34.0) / 3.0) / 2.0
    assert_allclose(ws.c_f**2, cf_sq, rtol=1e-13)
    assert_allclose(ws.c_s**2, cs_sq, rtol=1e-13)


def test_wave_speed_identities_random(gas):
    rng = np.random.default_rng(31)
    for _ in range(500):
        st = random_state(rng)
        ws = wave_speeds(st, gas, random_xi(rng))
        scale = max(ws.c_f**2, 1e-30)
        assert abs(ws.a**2 + ws.b**2 - ws.h**2) <= 1e-12 * scale
        assert abs(ws.c_f**2 * ws.c_s**2 - ws.a**2 * ws.c0**2) <= 1e-12 * scale**2
        assert abs(ws.c_f**2 + ws.c_s**2 - (ws.c0**2 + ws.h**2)) <= 1e-12 * scale
        tol = 1e-12 * ws.c_f
        assert ws.c_s <= abs(ws.a) + tol <= ws.c_f + 2 * tol
        assert ws.c_s <= ws.c0 + tol <= ws.c_f + 2 * tol


def test_wave_speeds_zero_frequency_raises(gas):
    st = ThermoState(rho=1.0, theta=1.0)
    with pytest.raises(ZeroFrequency):
        wave_speeds(st, gas, [0, 0, 0])


# ----------------------------------------------------------------------------
# eigenvalues
# ----------------------------------------------------------------------------

def test_eigenvalues_euler_multiplicity(gas):
    st = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0, 0, 0])
    roots = eigenvalues(st, gas, [0, 0, 1])
    mults = sorted((r.lam, r.multiplicity) for r in roots)
    c0 = math.sqrt(5.0 / 3.0)
    assert len(roots) == 3
    assert_allclose([m[0] for m in mults], [-c0, 0.0, c0], atol=1e-14)
    assert [m[1] for m in mults] == [1, 6, 1]
    # numeric nullspace of the assembled symbol confirms multiplicity 6
    A = assemble_full_symbol(st, gas, [0, 0, 1])
    s = np.linalg.svd(A, compute_uv=False)
    assert np.sum(s < 1e-10 * s[0]) == 6


def test_eigenvalues_perpendicular_case(gas):
    st = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[1, 0, 0])
    roots = eigenvalues(st, gas, [0, 1, 0])
    by_mult = sorted(roots, key=lambda r: r.multiplicity)
    assert [r.multiplicity for r in by_mult] == [1, 1, 6]
    assert_allclose(sorted(abs(r.lam) for r in by_mult if r.multiplicity == 1),
                    [math.sqrt(8.0 / 3.0)] * 2, rtol=1e-14)


def test_eigenvalues_parallel_case(gas):
    st = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[1, 0, 0])
    roots = eigenvalues(st, gas, [1, 0, 0])
    table = sorted((round(r.lam, 12), r.multiplicity) for r in roots)
    c0 = math.sqrt(5.0 / 3.0)
    assert table == [(-round(c0, 12), 1), (-1.0, 2), (0.0, 2), (1.0, 2),
                     (round(c0, 12), 1)]


def test_eigenvalues_match_numeric_spectrum(gas):
    rng = np.random.default_rng(32)
    for _ in range(300):
        st = random_state(rng)
        xi = random_xi(rng)
        closed = closed_form_spectrum(eigenvalues(st, gas, xi))
        numeric = np.sort(np.linalg.eigvals(assemble_full_symbol(st, gas, xi)).real)
        scale = max(np.max(np.abs(closed)), 1e-30)
        assert np.max(np.abs(closed - numeric)) <= 1e-8 * scale


def test_eigenvalues_homogeneity(gas):
    rng = np.random.default_rng(33)
    st = random_state(rng)
    xi = random_xi(rng)
    for t in (0.5, 2.0, 7.5):
        r1 = closed_form_spectrum(eigenvalues(st, gas, xi))
        rt = closed_form_spectrum(eigenvalues(st, gas, t * xi))
        assert_allclose(rt, t * r1, rtol=1e-13)


# ----------------------------------------------------------------------------
# reduced characteristic polynomial and block matrix
# ----------------------------------------------------------------------------

def test_char_poly_euler_collapse(gas):
    st = ThermoState(rho=1.0, u=[2, 0, 0], theta=1.0, B=[0, 0, 0])
    coeffs = char_poly_reduced(st, gas, [0, 0, 1])
    c0_sq = 5.0 / 3.0
    expected = np.array([1, 0, -c0_sq, 0, 0, 0, 0, 0, 0], dtype=float)
    assert_allclose(coeffs, expected, atol=1e-14)


def test_char_poly_roots_and_determinant_oracle(gas):
    rng = np.random.default_rng(34)
    for _ in range(100):
        st = random_state(rng)
        xi = random_xi(rng)
        coeffs = char_poly_reduced(st, gas, xi)
        ws = wave_speeds(st, gas, xi)
        # c_f is a root by construction
        assert abs(np.polyval(coeffs, ws.c_f)) <= 1e-12 * max(ws.c_f**8, 1.0)
        # independent determinant oracle: det(x I - A_tilde/|xi|) pointwise
        A = assemble_tilde_symbol(st, gas, xi) / np.linalg.norm(xi)
        scale = max(ws.c_f, 1.0)
        for x in rng.uniform(-2, 2, 4) * scale:
            det = np.linalg.det(x * np.eye(8) - A)
            val = np.polyval(coeffs, x)
            assert abs(det - val) <= 1e-8 * scale**8


def test_block_matrix_determinant_matches_poly(gas):
    rng = np.random.default_rng(35)
    for _ in range(100):
        st = random_state(rng)
        xi = random_xi(rng)
        coeffs = char_poly_reduced(st, gas, xi)
        ws = wave_speeds(st, gas, xi)
        scale = max(ws.c_f, 1.0)
        for x in rng.uniform(-2, 2, 3) * scale:
            M = adapted_block_matrix(st, gas, xi, x)
            assert abs(np.linalg.det(M) - np.polyval(coeffs, x)) <= 1e-10 * scale**8


def test_block_matrix_zero_eigenspace(gas):
    rng = np.random.default_rng(36)
    count = 0
    while count < 50:
        st = random_state(rng)
        xi = random_xi(rng)
        ws = wave_speeds(st, gas, xi)
        if abs(ws.a) < 1e-3:  # need a != 0 for the rank statement
            continue
        count += 1
        M = adapted_block_matrix(st, gas, xi, 0.0)
        s = np.linalg.svd(M, compute_uv=False)
        assert np.sum(s < 1e-10 * s[0]) == 2
        # nullspace is exactly the (y', v'_par) pair
        assert np.linalg.matrix_rank(M[:, :6], tol=1e-10 * s[0]) == 6
        # the same statement on the assembled fluid-frame symbol
        A = assemble_tilde_symbol(st, gas, xi)
        sa = np.linalg.svd(A, compute_uv=False)
        assert np.sum(sa < 1e-10 * sa[0]) == 2


def test_adapted_change_of_basis_conjugates_symbol(gas):
    rng = np.random.default_rng(37)
    for _ in range(100):
        st = random_state(rng)
        xi = random_xi(rng)
        V = adapted_change_of_basis(st, gas, xi)
        cond = np.linalg.cond(V)
        assert cond < 1e6
        A_t = assemble_tilde_symbol(st, gas, xi) / np.linalg.norm(xi)
        A0 = V @ A_t @ np.linalg.inv(V)
        # lambda I - A0 must equal the block pencil at every lambda; check at 0
        M0 = adapted_block_matrix(st, gas, xi, 0.0)
        scale = max(np.max(np.abs(A0)), 1.0)
        assert np.max(np.abs(-A0 - M0)) <= 1e-10 * scale


def test_tangent_basis_degenerate_is_deterministic(gas):
    xi = np.array([0.3, -0.2, 0.9])
    _, t1a, t2a = tangent_basis(xi, np.zeros(3))
    _, t1b, t2b = tangent_basis(xi, 1e-18 * xi)
    assert_allclose(t1a, t1b)
    assert_allclose(t2a, t2b)
    xin = xi / np.linalg.norm(xi)
    for t in (t1a, t2a):
        assert abs(t @ xin) < 1e-14
        assert_allclose(np.linalg.norm(t), 1.0, rtol=1e-14)


# ----------------------------------------------------------------------------
# entropy transform
# ----------------------------------------------------------------------------

def test_entropy_transform_reference(gas):
    st = ThermoState(rho=1.0, theta=1.0)
    T, T_inv = entropy_transform(st, gas)
    assert_allclose(T, [[1.0, 1.0], [1.0, -1.5]])
    assert_allclose(T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0], -2.5)
    assert_allclose(T_inv @ T, np.eye(2), atol=1e-15)


def test_entropy_transform_diagonal_when_ptheta_zero():
    class ZeroPtheta(EquationOfState):
        def evaluate(self, rho, theta):
            return EosEval(P=rho, P_rho=1.0, P_theta=0.0, e=theta, e_theta=1.0)

    st = ThermoState(rho=2.0, theta=3.0)
    T, _ = entropy_transform(st, ZeroPtheta())
    assert T[0, 1] == 0.0 and T[1, 0] == 0.0
    assert_allclose(np.diag(T), [1.0, -2.0])


def test_entropy_transform_inverse_property(gas):
    rng = np.random.default_rng(38)
    for _ in range(100):
        st = random_state(rng)
        T, T_inv = entropy_transform(st, gas)
        v = rng.standard_normal(2)
        assert_allclose(T_inv @ (T @ v), v, rtol=1e-12, atol=1e-14)


def test_entropy_transform_singular_synthetic():
    class Degenerate(EquationOfState):
        # rho P_rho e_theta + theta P_theta^2 / rho = 0 is unreachable for
        # admissible laws; force it with P_rho -> 0+, P_theta = 0
        def evaluate(self, rho, theta):
            return EosEval(P=1.0, P_rho=1e-30, P_theta=0.0, e=theta, e_theta=1.0)

    st = ThermoState(rho=1.0, theta=1.0)
    with pytest.raises(SingularTransform):
        entropy_transform(st, Degenerate())


# ----------------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------------

def test_classify_generic_case(gas):
    st = ThermoState(rho=1.0, u=[0.1, 0.2, -0.3], theta=1.0, B=[1.0, 0.4, 0.2])
    xi = np.array([0.3, 1.0, 0.5])
    roots, regime = classify(st, gas, xi)
    assert regime.case == "a"
    simple = [r for r in roots if r.multiplicity == 1]
    double = [r for r in roots if r.multiplicity == 2]
    assert len(simple) == 6 and len(double) == 1
    assert all(r.classification is SIMPLE for r in simple)
    assert double[0].classification is GEOM
    assert "entropy" in double[0].families


def test_classify_perpendicular_manifold(gas):
    st = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[1, 0, 0])
    roots, regime = classify(st, gas, [0, 1, 0])
    assert regime.case == "b" and regime.xi_dot_B_zero
    big = [r for r in roots if r.multiplicity == 6]
    assert len(big) == 1 and big[0].classification is GEOM
    fast = [r for r in roots if r.multiplicity == 1]
    assert len(fast) == 2 and all(r.classification is SIMPLE for r in fast)


def test_classify_parallel_manifold_nonglancing_condition(gas):
    st = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[1, 0, 0])
    xi = [1, 0, 0]
    # u_3 - sigma = -0.5, +-B_3/sqrt(rho) = 0: condition holds
    roots, regime = classify(st, gas, xi, boundary=BoundaryFrame(axis=3, sigma=0.5))
    assert regime.case == "c" and regime.field_vs_sound == "sub"
    doubles = [r for r in roots if r.multiplicity == 2 and "entropy" not in r.families]
    assert len(doubles) == 2
    assert {round(r.lam, 12) for r in doubles} == {1.0, -1.0}
    assert all(r.classification is TOTAL for r in doubles)

    # u_3 - sigma = 0 = +-B_3/sqrt(rho): condition fails
    roots, _ = classify(st, gas, xi, boundary=BoundaryFrame(axis=3, sigma=0.0))
    doubles = [r for r in roots if r.multiplicity == 2 and "entropy" not in r.families]
    assert all(r.classification is NOT for r in doubles)

    with pytest.raises(MissingBoundary):
        classify(st, gas, xi)


def test_classify_super_field_pairs_alfven_with_fast(gas):
    st = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0, 0, 2.0])
    roots, regime = classify(st, gas, [0, 0, 1],
                             boundary=BoundaryFrame(axis=3, sigma=0.3))
    assert regime.case == "c" and regime.field_vs_sound == "super"
    doubles = [r for r in roots if r.multiplicity == 2 and "entropy" not in r.families]
    assert len(doubles) == 2
    fams = set()
    for r in doubles:
        fams.update(r.families)
        assert r.classification is TOTAL
    assert fams == {"alfven+", "fast+", "alfven-", "fast-"}


def test_classify_excluded_regimes(gas):
    st = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0, 0, 0])
    roots, regime = classify(st, gas, [0, 0, 1])
    assert regime.B_zero and regime.case == "excluded"
    assert all(r.classification is (NOT if r.multiplicity > 1 else SIMPLE)
               for r in roots)

    c0 = math.sqrt(5.0 / 3.0)
    st = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[c0, 0, 0])
    roots, regime = classify(st, gas, [1, 0, 0])
    assert regime.field_vs_sound == "equal" and regime.case == "excluded"
    triples = [r for r in roots if r.multiplicity == 3]
    assert len(triples) == 2
    assert all(r.classification is NOT for r in triples)


def test_classify_near_manifold_flag(gas):
    st = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[1, 0, 0])
    _, regime = classify(st, gas, [1e-12, 1.0, 0.0], tol_manifold=1e-9)
    assert regime.case == "b" and regime.near_manifold

    _, regime = classify(st, gas, [1e-3, 1.0, 0.0], tol_manifold=1e-9)
    assert regime.case == "a" and not regime.near_manifold


def test_every_point_on_the_field_sound_manifold_is_near_it(gas):
    # |B|^2 = rho c0^2 up to rounding: whether |B|^2 - rho c0^2 rounds to
    # exactly zero is no property of the state, so near_manifold reads True
    # on every such point, as on every "equal" point
    rng = np.random.default_rng(53)
    for _ in range(3000):
        rho, theta = 10.0 ** rng.uniform(-1.0, 1.0, 2)
        b_hat = rng.standard_normal(3)
        st = ThermoState(rho=rho, u=rng.uniform(-1.0, 1.0, 3), theta=theta)
        st = dataclasses.replace(st, B=math.sqrt(rho * sound_speed_sq(gas, st))
                                 * b_hat / np.linalg.norm(b_hat))
        _, regime = classify(st, gas, rng.standard_normal(3))
        assert regime.field_vs_sound == "equal" and regime.case == "excluded"
        assert regime.near_manifold


def test_classify_invariant_under_rotation_and_scaling(gas):
    rng = np.random.default_rng(39)

    def labels(roots):
        return sorted((r.multiplicity, r.classification.value) for r in roots)

    for _ in range(30):
        st = random_state(rng)
        if np.linalg.norm(st.B) < 1e-6:
            continue
        xi = random_xi(rng)
        roots, regime = classify(st, gas, xi)
        Q = random_rotation(rng)
        st_rot = ThermoState(rho=st.rho, u=Q @ st.u, theta=st.theta, B=Q @ st.B)
        roots_rot, regime_rot = classify(st_rot, gas, Q @ xi)
        assert labels(roots) == labels(roots_rot)
        assert regime.case == regime_rot.case
        roots_scaled, regime_scaled = classify(st, gas, 3.7 * np.asarray(xi))
        assert labels(roots) == labels(roots_scaled)
        assert regime.case == regime_scaled.case

    # case (c) with boundary: cyclic axis permutation x->y->z->x is a rotation
    st = ThermoState(rho=1.0, u=[0.2, 0.0, 0.1], theta=1.0, B=[1, 0, 0])
    perm = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
    r1, _ = classify(st, gas, [1, 0, 0], boundary=BoundaryFrame(axis=3, sigma=0.4))
    st_p = ThermoState(rho=st.rho, u=perm @ st.u, theta=st.theta, B=perm @ st.B)
    r2, _ = classify(st_p, gas, perm @ np.array([1.0, 0, 0]),
                     boundary=BoundaryFrame(axis=1, sigma=0.4))
    assert labels(r1) == labels(r2)


def test_classification_record_shape(gas):
    st = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[1, 0, 0])
    roots, regime = classify(st, gas, [0, 1, 0])
    rec = classification_record([0, 1, 0], roots, regime)
    assert set(rec) == {"xi", "regime", "roots"}
    assert all(set(r) == {"lambda", "mult", "class", "families"}
               for r in rec["roots"])
    assert sum(r["mult"] for r in rec["roots"]) == 8


def _geometric_regime(state, eos, xi, tol) -> dict:
    """The RegimeTag fields from the direct geometry: |xi_hat . B|,
    |xi_hat x B|, |B| and rho c0^2."""
    xi_hat = np.asarray(xi, dtype=float) / np.linalg.norm(xi)
    Bn = float(np.linalg.norm(state.B))
    rho_c0_sq = state.rho * sound_speed_sq(eos, state)
    dot = abs(float(xi_hat @ state.B))
    cross = float(np.linalg.norm(np.cross(xi_hat, state.B)))
    b_zero = Bn <= tol * math.sqrt(rho_c0_sq)
    dot_zero = b_zero or dot <= tol * Bn
    cross_zero = not b_zero and cross <= tol * Bn
    diff = Bn**2 - rho_c0_sq
    equal = abs(diff) <= tol * (Bn**2 + rho_c0_sq)
    return {
        "xi_dot_B_zero": dot_zero,
        "xi_cross_B_zero": cross_zero,
        "field_vs_sound": "equal" if equal else ("sub" if diff < 0 else "super"),
        "B_zero": b_zero,
        "near_manifold": ((b_zero and Bn > 0.0) or (dot_zero and not b_zero and dot > 0.0)
                          or (cross_zero and cross > 0.0) or (equal and diff != 0.0)),
    }


def test_regime_flags_from_wave_speeds_match_the_geometry(gas):
    # classify takes |B|, |xi_hat . B|, |xi_hat x B| and rho c0^2 from its
    # wave speeds.  Points 1e-6 (relative) either side of each threshold
    # must carry the geometry's flags, and each pair must straddle its
    # threshold.  At tol 1e-9 the frames are coordinate axes, so that
    # xi_hat . B and xi_hat x B are exact and the margin is not rounding.
    rng = np.random.default_rng(41)
    for tol in (1e-9, 1e-4):
        for _ in range(3):
            st = random_state(rng, B_max=0.0)
            rho_c0_sq = st.rho * sound_speed_sq(gas, st)
            Q = (random_rotation(rng) if tol > 1e-6
                 else np.eye(3)[:, rng.permutation(3)] * rng.choice([-1.0, 1.0], 3))
            e1, e3 = Q[:, 0], Q[:, 2]
            Bn = 0.6 * math.sqrt(rho_c0_sq)

            def field(t, key):
                if key == "B_zero":
                    return t * math.sqrt(rho_c0_sq) * e1, e3 + 0.5 * e1
                if key == "xi_dot_B_zero":
                    return Bn * (t * e3 + math.sqrt(1.0 - t * t) * e1), 2.0 * e3
                if key == "xi_cross_B_zero":
                    return Bn * (math.sqrt(1.0 - t * t) * e3 + t * e1), -0.7 * e3
                x = (1.0 + t) / (1.0 - t)  # (|B|^2 - rho c0^2) / (|B|^2 + rho c0^2) = t
                return math.sqrt(x * rho_c0_sq) * e1, e3 + e1

            for key in ("B_zero", "xi_dot_B_zero", "xi_cross_B_zero", "super", "sub"):
                flags = []
                for k in (1.0 - 1e-6, 1.0 + 1e-6):
                    B, xi = field({"sub": -k}.get(key, k) * tol, key)
                    st_k = dataclasses.replace(st, B=B)
                    ref = _geometric_regime(st_k, gas, xi, tol)
                    _, regime = classify(st_k, gas, xi, boundary=BoundaryFrame(axis=3),
                                         tol_manifold=tol)
                    assert dataclasses.asdict(regime) == ref, (key, k)
                    flags.append(ref[key] if key in ref else ref["field_vs_sound"] == "equal")
                assert flags == [True, False], key

            # exactly on each manifold (with the axis frames, xi . B and
            # xi x B are exactly zero too)
            for B, xi in ((np.zeros(3), e3), (Bn * e1, e3), (Bn * e1, 2.0 * e1)):
                st_k = dataclasses.replace(st, B=B)
                _, regime = classify(st_k, gas, xi, boundary=BoundaryFrame(axis=3),
                                     tol_manifold=tol)
                assert dataclasses.asdict(regime) == _geometric_regime(st_k, gas, xi, tol)
                assert not regime.near_manifold or tol > 1e-6
            # |B|^2 = rho c0^2: whether |B|^2 - rho c0^2 rounds to zero, which
            # near_manifold reports, depends on the order of evaluation
            st_k = dataclasses.replace(st, B=math.sqrt(rho_c0_sq) * e1)
            _, regime = classify(st_k, gas, e3 + e1, tol_manifold=tol)
            ref = _geometric_regime(st_k, gas, e3 + e1, tol)
            assert regime.field_vs_sound == "equal" and regime.case == "excluded"
            assert ({**dataclasses.asdict(regime), "near_manifold": None}
                    == {**ref, "near_manifold": None})


def test_merged_roots_cluster_by_anchor_not_by_chain():
    # the eight values -0.18, -0.12, ..., 0.18 are spaced 0.6 band apart: a
    # cluster takes the values within one band of its smallest value, so
    # the chain splits at every second gap rather than merging into one root
    st = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0, 0, 0])
    ws = WaveSpeeds(a=0.12, b=0.0, h=0.12, c0=1.0, c_s=0.06, c_f=0.18)
    xi = np.array([0.0, 0.0, 1.0])
    roots = _merged_roots(st, xi, 1.0, ws, tol_merge=0.1, scale=1.0)  # band = 0.1
    assert [r.multiplicity for r in roots] == [2, 3, 2, 1]
    assert [r.families for r in roots] == [
        ("alfven-", "fast-"), ("entropy", "slow-"), ("alfven+", "slow+"), ("fast+",)]
    assert_allclose([r.lam for r in roots], [-0.15, -0.02, 0.09, 0.18], rtol=0, atol=1e-15)
    # at a band of 0.37 every value is within one band of the smallest
    assert [r.multiplicity for r in _merged_roots(
        st, xi, 1.0, ws, tol_merge=0.37, scale=1.0)] == [8]


# ----------------------------------------------------------------------------
# nonglancing test
# ----------------------------------------------------------------------------

def test_nonglancing_alfven_double_analytic(gas):
    # super-field parallel case: doubles at +-|B|/sqrt(rho); both branch
    # velocities equal u_d +- B_d/sqrt(rho) - sigma
    st = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0, 0, 2.0])
    xi = [0, 0, 1]
    sigma = 0.3
    boundary = BoundaryFrame(axis=3, sigma=sigma)
    roots, _ = classify(st, gas, xi, boundary=boundary)
    plus = [r for r in roots if r.multiplicity == 2 and r.lam > 1.0][0]
    res = nonglancing_test(st, gas, plus, xi, boundary)
    assert res.nonglancing and res.totally
    assert res.incoming_count == 2 and res.outgoing_count == 0
    assert_allclose(res.branch_velocities, [2.0 - sigma] * 2, atol=1e-7)

    minus = [r for r in roots if r.multiplicity == 2 and r.lam < -1.0][0]
    res = nonglancing_test(st, gas, minus, xi, boundary)
    assert res.totally and res.outgoing_count == 2
    assert_allclose(res.branch_velocities, [-2.0 - sigma] * 2, atol=1e-7)


def test_nonglancing_simple_root_transversality(gas):
    # generic point: the simple Alfven branch is exactly linear in xi, so
    # its group velocity u_d + B_d/sqrt(rho) is known in closed form and
    # sigma can be placed exactly on / off the glancing value
    st = ThermoState(rho=1.0, u=[0.3, -0.1, 0.5], theta=1.0, B=[0.8, 0.2, 0.6])
    xi = np.array([0.4, 1.0, 0.6])
    roots, regime = classify(st, gas, xi)
    assert regime.case == "a"
    alf_speed = float(xi @ st.B) / math.sqrt(st.rho)
    target = float(st.u @ xi) + alf_speed
    alfven = min((r for r in roots if r.multiplicity == 1),
                 key=lambda r: abs(r.lam - target))
    assert_allclose(alfven.lam, target, rtol=1e-12)

    velocity = st.u[2] + st.B[2] / math.sqrt(st.rho)  # d(lambda)/d(xi_3)
    res = nonglancing_test(st, gas, alfven, xi, BoundaryFrame(axis=3, sigma=0.0))
    assert res.nonglancing
    assert_allclose(res.branch_velocities, [velocity], rtol=1e-9)

    # m = 1 reduces to simple transversality: glancing exactly at
    # sigma = d(lambda)/d(xi_d)
    res_glancing = nonglancing_test(
        st, gas, alfven, xi, BoundaryFrame(axis=3, sigma=velocity))
    assert not res_glancing.nonglancing


def test_nonglancing_flow_aligned_entropy_root_is_glancing(gas):
    st = ThermoState(rho=1.0, u=[0.2, 0.1, 0.7], theta=1.0, B=[0.5, 0.3, 0.2])
    xi = np.array([1.0, 0.4, -0.2])
    boundary = BoundaryFrame(axis=3, sigma=st.u[2])  # u_d = sigma
    roots, _ = classify(st, gas, xi, boundary=boundary)
    entropy = [r for r in roots if "entropy" in r.families][0]
    res = nonglancing_test(st, gas, entropy, xi, boundary)
    assert not res.nonglancing
    assert not res.totally
    assert_allclose(res.branch_velocities, [0.0, 0.0], atol=1e-7)


def test_nonglancing_entropy_double_next_to_slow_pair(gas):
    # the slow pair sits about 0.0027 |xi| from the entropy double; the
    # entropy branches are exactly u . xi, so however close the slow pair
    # sits, both velocities are u_d - sigma to the last bit
    st = ThermoState(rho=1.0, u=[0.3, -0.2, 0.5], theta=1.0, B=[1.0, 0, 0])
    xi = np.array([0.004, 1.0, 0.0])
    boundary = BoundaryFrame(axis=3, sigma=-0.4)
    roots, regime = classify(st, gas, xi, boundary=boundary)
    assert regime.case == "a"
    entropy = [r for r in roots if r.families == ("entropy",)]
    assert len(entropy) == 1 and entropy[0].multiplicity == 2
    res = nonglancing_test(st, gas, entropy[0], xi, boundary)
    assert res.nonglancing and res.totally
    assert (res.incoming_count, res.outgoing_count) == (2, 0)
    assert_allclose(res.branch_velocities, [0.9, 0.9], rtol=1e-15)


def test_nonglancing_fast_root_exact_velocity(gas):
    # fast root separated from the Alfven/slow doubles by ~5e-4; at xi
    # orthogonal to e_3 the fast branch has zero xi_3-slope by symmetry
    # (c_f depends on xi_3 only through xi_3^2), so its velocity is -sigma
    st = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[1.2905, 0, 0])
    xi = [1, 0, 0]
    boundary = BoundaryFrame(axis=3, sigma=0.5)
    roots, regime = classify(st, gas, xi, boundary=boundary)
    assert regime.case == "c"
    fast = max(roots, key=lambda r: r.lam)
    assert fast.multiplicity == 1
    res = nonglancing_test(st, gas, fast, xi, boundary)
    assert res.nonglancing and res.totally
    assert (res.incoming_count, res.outgoing_count) == (0, 1)
    assert res.branch_velocities == (-0.5,)


def _designed_point(rng, case: str):
    """A state, xi and boundary frame of regime a, b or c: |B|^2 at least
    5% away from rho c0^2; xi generic (a), orthogonal to B (b) or along
    B (c), about half the case-c frames moving at a glancing speed."""
    while True:
        rho, theta = 10.0 ** rng.uniform(-1, 1, 2)
        c0_sq = (5.0 / 3.0) * theta  # IdealGas(R=1, c_v=1.5)
        sub_field = case == "c" or rng.integers(2)
        frac = rng.uniform(0.15, 0.75) if sub_field else rng.uniform(1.3, 3.0)
        b_dir = rng.standard_normal(3)
        B = frac * math.sqrt(rho * c0_sq) * b_dir / np.linalg.norm(b_dir)
        if abs(B @ B - rho * c0_sq) > 0.05 * rho * c0_sq:
            break
    st = ThermoState(rho=rho, u=rng.uniform(-2.0, 2.0, 3), theta=theta, B=B)
    d = int(rng.integers(1, 4))
    sigma = rng.uniform(-3.0, 3.0)
    Bn = np.linalg.norm(B)
    v = rng.standard_normal(3)
    if case == "a":
        while abs(v @ B) <= 0.05 * Bn * np.linalg.norm(v) or np.linalg.norm(
                np.cross(v, B)) <= 0.05 * Bn * np.linalg.norm(v):
            v = rng.standard_normal(3)
    elif case == "b":
        v -= (v @ B) / Bn**2 * B
    else:
        v = B * rng.choice([-1.0, 1.0])
        if rng.integers(2):
            sigma = st.u[d - 1] + rng.choice([-1.0, 1.0]) * B[d - 1] / math.sqrt(rho)
    xi = v / np.linalg.norm(v) * 10.0 ** rng.uniform(-1, 1)
    return st, xi, BoundaryFrame(axis=d, sigma=sigma)


def test_nonglancing_velocities_satisfy_coefficient_identity(gas):
    # m! coef[m] of the factorized determinant equals the same-order tau
    # derivative m! prod (lambda_j - lambda_root) times the product of the
    # m branch velocities: an identity between the closed-form polynomial
    # and the velocities that holds at crossing roots too
    rng = np.random.default_rng(12)
    tested = {"a": 0, "b": 0, "c": 0}
    for case in "abc" * 30:
        st, xi, boundary = _designed_point(rng, case)
        roots, regime = classify(st, gas, xi, boundary=boundary)
        assert regime.case == case
        ws = wave_speeds(st, gas, xi)
        vel_scale = max(ws.c_f, np.linalg.norm(st.u), abs(boundary.sigma), 1.0)
        for root in (r for r in roots if r.multiplicity > 1):
            m = root.multiplicity
            gap_product = math.factorial(m) * math.prod(
                (r.lam - root.lam) ** r.multiplicity for r in roots if r is not root)
            res = nonglancing_test(st, gas, root, xi, boundary)
            assert len(res.branch_velocities) == m
            assert abs(res.derivative_value
                       - gap_product * math.prod(res.branch_velocities)) <= (
                1e-12 * abs(gap_product) * vel_scale**m), (case, root)
            tested[case] += 1
    assert tested == {"a": 30, "b": 30, "c": 90}


def test_nonglancing_sextuple_root_analytic_velocities(gas):
    # at xi.B = 0 the entropy, Alfven and slow roots coincide; their slopes
    # in xi_d are u_d - sigma (twice), u_d - sigma +- B_d/sqrt(rho) and
    # u_d - sigma +- (B_d/sqrt(rho)) c0/c_f with c_f^2 = c0^2 + |B|^2/rho
    rng = np.random.default_rng(6)
    for _ in range(20):
        st, xi, boundary = _designed_point(rng, "b")
        roots, regime = classify(st, gas, xi, boundary=boundary)
        assert regime.case == "b"
        sextuple = next(r for r in roots if r.multiplicity == 6)
        res = nonglancing_test(st, gas, sextuple, xi, boundary)
        d = boundary.axis
        rel = st.u[d - 1] - boundary.sigma
        alf = st.B[d - 1] / math.sqrt(st.rho)
        ws = wave_speeds(st, gas, xi)
        slow = alf * ws.c0 / math.sqrt(ws.c0**2 + st.B @ st.B / st.rho)
        expected = np.sort([rel, rel, rel - alf, rel + alf, rel - slow, rel + slow])
        got = np.array(res.branch_velocities)
        assert np.all(np.abs(got - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


def test_nonglancing_agrees_with_lemma_condition(gas):
    # randomized case (c) points: the numerical branch test must agree with
    # the closed-form frame condition on both doubles
    rng = np.random.default_rng(40)
    checked = 0
    while checked < 20:
        rho = 10.0 ** rng.uniform(-1, 1)
        theta = 10.0 ** rng.uniform(-1, 1)
        b_mag = rng.uniform(0.1, 3.0)
        st = ThermoState(rho=rho, u=rng.uniform(-2, 2, 3), theta=theta,
                         B=b_mag * np.array([0.0, 0.0, 1.0]))
        ws = wave_speeds(st, gas, [0, 0, 1])
        if abs(abs(ws.a) - ws.c0) < 0.05 * ws.c0:  # stay clear of the excluded manifold
            continue
        d = 3
        sigma = rng.uniform(-3, 3)
        alf = st.B[d - 1] / math.sqrt(st.rho)
        rel = st.u[d - 1] - sigma
        if min(abs(rel - alf), abs(rel + alf)) < 1e-3:
            continue
        checked += 1
        boundary = BoundaryFrame(axis=d, sigma=sigma)
        roots, regime = classify(st, gas, [0, 0, 1], boundary=boundary)
        assert regime.case == "c"
        doubles = [r for r in roots
                   if r.multiplicity == 2 and "entropy" not in r.families]
        assert len(doubles) == 2
        for root in doubles:
            assert root.classification is TOTAL
            res = nonglancing_test(st, gas, root, [0, 0, 1], boundary)
            assert res.nonglancing
            sign = 1.0 if root.lam > st.u[d - 1] * 1.0 else -1.0
            expected = st.u[d - 1] + sign * alf - sigma
            assert_allclose(res.branch_velocities, [expected] * 2,
                            rtol=1e-5, atol=1e-6)
            assert res.totally == (res.incoming_count == 2 or res.outgoing_count == 2)


def test_nonglancing_rejects_root_outside_spectrum(gas):
    # a value off the spectrum matches no root of the merged spectrum: a
    # caller error, raised as ValueError
    st = ThermoState(rho=1.0, u=[0.3, -0.1, 0.5], theta=1.0, B=[0.8, 0.2, 0.6])
    xi = [0.4, 1.0, 0.6]
    roots, regime = classify(st, gas, xi)
    assert regime.case == "a"
    entropy = next(r for r in roots if "entropy" in r.families)
    off = dataclasses.replace(entropy, lam=entropy.lam + 0.37)
    with pytest.raises(ValueError, match="not an eigenvalue"):
        nonglancing_test(st, gas, off, xi, BoundaryFrame(axis=3, sigma=0.2))


def test_nonglancing_at_glancing_frame_speed(gas):
    # case (c) with sigma = u_d + s B_d/sqrt(rho): the double at
    # u.xi + s (xi.B)/sqrt(rho) has both branch velocities zero and is
    # glancing, the other double stays totally nonglancing; classify
    # leaves both NotClassified because the frame condition fails
    rng = np.random.default_rng(43)
    for _ in range(20):
        rho, theta = 10.0 ** rng.uniform(-1, 1, 2)
        d = int(rng.integers(1, 4))
        b_dir = rng.standard_normal(3)
        b_dir /= np.linalg.norm(b_dir)
        b_dir[d - 1] = math.copysign(max(abs(b_dir[d - 1]), 0.2), b_dir[d - 1])
        b_dir /= np.linalg.norm(b_dir)
        frac = rng.choice([rng.uniform(0.15, 0.75), rng.uniform(1.3, 3.0)])
        c0 = math.sqrt(sound_speed_sq(gas, ThermoState(rho=rho, theta=theta)))
        st = ThermoState(rho=rho, u=rng.uniform(-2, 2, 3), theta=theta,
                         B=frac * math.sqrt(rho) * c0 * b_dir)
        xi = rng.choice([-1.0, 1.0]) * b_dir * 10.0 ** rng.uniform(-1, 1)
        s_hit = rng.choice([-1.0, 1.0])
        boundary = BoundaryFrame(
            axis=d, sigma=st.u[d - 1] + s_hit * st.B[d - 1] / math.sqrt(rho))
        roots, regime = classify(st, gas, xi, boundary=boundary)
        assert regime.case == "c"
        doubles = [r for r in roots
                   if r.multiplicity == 2 and "entropy" not in r.families]
        assert [r.classification for r in doubles] == [NOT, NOT]
        alf_xi = float(xi @ st.B) / math.sqrt(rho)
        # central differences at step 1e-3 |xi|: exact on the Alfven branch,
        # O(1e-6) relative on the slow or fast one
        vel_scale = max(wave_speeds(st, gas, xi).c_f, np.linalg.norm(st.u),
                        abs(boundary.sigma))
        for root in doubles:
            res = nonglancing_test(st, gas, root, xi, boundary)
            if np.sign((root.lam - st.u @ xi) / alf_xi) == s_hit:
                assert not res.nonglancing and not res.totally
                assert_allclose(res.branch_velocities, [0.0, 0.0],
                                atol=1e-6 * vel_scale)
            else:
                assert res.totally


class _QuadraticPressure(EquationOfState):
    """Synthetic law with a non-ideal P_theta: P = rho theta (1 + 0.3 rho theta),
    e = 1.5 theta + 0.2 theta^2."""

    def evaluate(self, rho, theta):
        return EosEval(P=rho * theta * (1.0 + 0.3 * rho * theta),
                       P_rho=theta * (1.0 + 0.6 * rho * theta),
                       P_theta=rho * (1.0 + 0.6 * rho * theta),
                       e=1.5 * theta + 0.2 * theta**2, e_theta=1.5 + 0.4 * theta)


def _quadratic(f):
    """Increasing-power coefficients of a quadratic f(t) from f(-1), f(0), f(1)."""
    fm, f0, fp = f(-1.0), f(0.0), f(1.0)
    return np.array([f0, 0.5 * (fp - fm), 0.5 * (fp + fm) - f0])


@pytest.mark.parametrize("eos", [IdealGas(R=1.0, c_v=1.5), _QuadraticPressure()],
                         ids=["ideal-gas", "quadratic-pressure"])
def test_factored_char_poly_matches_shifted_determinant(eos):
    # P(t) = det(tau0 I + A(xi + t e_d) - sigma (xi_d + t) I) from the
    # factorization, against the 8x8 determinant and the glancing derivative
    rng = np.random.default_rng(44)
    for _ in range(40):
        st = ThermoState(rho=10.0 ** rng.uniform(-1, 1), u=rng.uniform(-2, 2, 3),
                         theta=10.0 ** rng.uniform(-1, 1), B=rng.uniform(-2, 2, 3))
        xi = random_xi(rng)
        d = int(rng.integers(1, 4))
        e_d = unit_vector(d)
        sigma = rng.uniform(-3, 3)
        c0_sq = sound_speed_sq(eos, st)
        speed = math.sqrt(c0_sq + st.B @ st.B / st.rho)  # bounds every wave speed

        def factors(tau0):
            def at(f):
                return _quadratic(lambda t: f(xi + t * e_d))
            return (at(lambda x: (tau0 + st.u @ x - sigma * x[d - 1]) ** 2),
                    at(lambda x: (x @ st.B) ** 2 / st.rho),
                    at(lambda x: c0_sq * (x @ x)),
                    at(lambda x: np.sum(np.cross(x, st.B) ** 2) / st.rho))

        tau0 = rng.uniform(-3, 3) * np.linalg.norm(xi)
        coef = _factored_char_poly(*factors(tau0))
        for t in rng.uniform(-1, 1, 4) * np.linalg.norm(xi):
            x = xi + t * e_d
            det = np.linalg.det((tau0 - sigma * x[d - 1]) * np.eye(8)
                                + assemble_full_symbol(st, eos, x))
            scale = (abs(tau0 + st.u @ x - sigma * x[d - 1])
                     + speed * np.linalg.norm(x)) ** 8
            assert abs(np.polyval(coef[::-1], t) - det) <= 1e-10 * scale

        # derivative_value of the fast+ root, whose branch stays clear of the
        # others, is coef[1] at tau0 = sigma xi_d - lambda up to the roundoff
        # of the coefficient arithmetic, bounded by the |.|-majorant
        fast = eigenvalues(st, eos, xi)[-1]
        res = nonglancing_test(st, eos, fast, xi, BoundaryFrame(axis=d, sigma=sigma))
        T, F, C, X = factors(sigma * xi[d - 1] - fast.lam)
        majorant = _factored_char_poly(abs(T), -abs(F), -abs(C), -abs(X))[1]
        assert (abs(res.derivative_value - _factored_char_poly(T, F, C, X)[1])
                <= 1e-12 * majorant)


@pytest.mark.parametrize("eos", [IdealGas(R=1.0, c_v=1.5), _QuadraticPressure()],
                         ids=["ideal-gas", "quadratic-pressure"])
def test_char_poly_reduced_matches_expanded_coefficients(eos):
    rng = np.random.default_rng(45)
    for _ in range(100):
        st = random_state(rng)
        xi = random_xi(rng)
        ws = wave_speeds(st, eos, xi)
        a_sq, h_sq, c0_sq = ws.a**2, ws.h**2, ws.c0**2
        expected = [1.0, 0.0, -(c0_sq + h_sq + a_sq), 0.0, a_sq * (2.0 * c0_sq + h_sq),
                    0.0, -(a_sq**2) * c0_sq, 0.0, 0.0]
        assert_allclose(char_poly_reduced(st, eos, xi), expected, rtol=1e-13, atol=0)


def test_char_poly_factors_of_a_stack_match_each_row():
    # the scan passes stacks of complex coefficient rows, char_poly_reduced
    # single real rows: both get the same factors, and their product is
    # _factored_char_poly
    rng = np.random.default_rng(47)
    args = rng.standard_normal((4, 6, 3)) + 1j * rng.standard_normal((4, 6, 3))
    stacked = _char_poly_factors(*args)
    assert [f.shape for f in stacked] == [(6, 3), (6, 3), (6, 5)]
    for i in range(6):
        row = [a[i] for a in args]
        for got, want in zip(stacked, _char_poly_factors(*row)):
            assert_allclose(got[i], want, rtol=1e-14, atol=1e-14)
        entropy, alfven, magnetosonic = (f[i] for f in stacked)
        assert_allclose(np.convolve(np.convolve(entropy, alfven), magnetosonic),
                        _factored_char_poly(*row), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("eos", [IdealGas(R=1.0, c_v=1.5), _QuadraticPressure()],
                         ids=["ideal-gas", "quadratic-pressure"])
def test_symmetric_symbol_is_the_scaled_full_symbol(eos):
    # the closed-form H(xi) against D A(xi) D^-1 with D = S^(1/2) from
    # `symmetrizer`, on random states and xi, at B = 0, xi along B and xi
    # across B: exactly symmetric, linear in xi, and with the closed-form
    # spectrum, multiplicities included
    rng = np.random.default_rng(48)
    for kind in ("random", "B = 0", "xi || B", "xi _|_ B") * 10:
        st, xi = random_state(rng), random_xi(rng)
        if kind == "B = 0":
            st = dataclasses.replace(st, B=np.zeros(3))
        elif kind == "xi || B":
            xi = st.B * (rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1, 1)
                         / np.linalg.norm(st.B))
        elif kind == "xi _|_ B":
            xi = xi - (xi @ st.B) / (st.B @ st.B) * st.B
        H, *H_e = _symmetric_symbol(st, eos, xi, *np.eye(3))
        scale = np.abs(H).max()
        D = np.sqrt(np.diag(symmetrizer(st, eos)))
        assert_allclose(H, D[:, None] * assemble_full_symbol(st, eos, xi) / D,
                        rtol=0, atol=1e-14 * scale)
        assert np.array_equal(H, H.T)
        assert_allclose(H, sum(x * h for x, h in zip(xi, H_e)), rtol=0, atol=1e-14 * scale)
        vel_scale = max(wave_speeds(st, eos, xi).c_f, np.linalg.norm(st.u), 1.0)
        assert_allclose(np.linalg.eigvalsh(H), closed_form_spectrum(eigenvalues(st, eos, xi)),
                        rtol=0, atol=1e-12 * np.linalg.norm(xi) * vel_scale)


def test_derivative_value_at_every_multiplicity(gas):
    # derivative_value / m! is the m-th coefficient of the factored
    # determinant along xi + t e_d up to the rounding its |.|-majorant
    # bounds, at simple roots, the entropy double, the Alfven doubles of case
    # c and the sextuple of case b; the reference factors are closed-form
    # quadratics, X = |x x B|^2 / rho from the cross product
    rng = np.random.default_rng(49)
    seen = set()
    for case in "abc" * 10:
        st, xi, boundary = _designed_point(rng, case)
        d, sigma = boundary.axis, boundary.sigma
        c0_sq = sound_speed_sq(gas, st)
        cross, cross_d = np.cross(xi, st.B), np.cross(unit_vector(d), st.B)
        xb, b_d = xi @ st.B, st.B[d - 1]
        F = np.array([xb * xb, 2.0 * xb * b_d, b_d * b_d]) / st.rho
        C = c0_sq * np.array([xi @ xi, 2.0 * xi[d - 1], 1.0])
        X = np.array([cross @ cross, 2.0 * cross @ cross_d, cross_d @ cross_d]) / st.rho
        roots, _ = classify(st, gas, xi, boundary=boundary)
        for root in roots:
            m = root.multiplicity
            tau, rel = st.u @ xi - root.lam, st.u[d - 1] - sigma
            T = np.array([tau * tau, 2.0 * tau * rel, rel * rel])
            res = nonglancing_test(st, gas, root, xi, boundary)
            majorant = _factored_char_poly(abs(T), -abs(F), -abs(C), -abs(X))[m]
            assert (abs(res.derivative_value / math.factorial(m)
                        - _factored_char_poly(T, F, C, X)[m]) <= 1e-12 * majorant), (case, root)
            seen.add((m, "alfven" if any("alfven" in f for f in root.families)
                      else root.families[0]))
    assert {(1, "fast-"), (2, "entropy"), (2, "alfven"), (6, "alfven")} <= seen


def test_classify_and_nonglancing_build_no_full_symbol(gas, monkeypatch):
    # H(xi) is built in closed form: neither classify, case b's eigenvector
    # count included, nor nonglancing_test assembles the 8x8 symbol or the
    # symmetrizer
    import sys

    from mhdstab import symbol

    calls = []
    for name in ("assemble_full_symbol", "symmetrizer"):
        fn = getattr(symbol, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        for mod in [m for key, m in sys.modules.items() if key.startswith("mhdstab")]:
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    rng = np.random.default_rng(50)
    classes = set()
    for case in "abc" * 5:
        st, xi, boundary = _designed_point(rng, case)
        roots, regime = classify(st, gas, xi, boundary=boundary)
        for root in roots:
            nonglancing_test(st, gas, root, xi, boundary)
            classes.add((regime.case, root.multiplicity, root.classification))
    assert ("b", 6, GEOM) in classes
    assert calls == []
    # the counters see a call through the module
    symbol.symmetrizer(st, gas)
    symbol.assemble_full_symbol(st, gas, xi)
    monkeypatch.undo()
    assert calls == ["symmetrizer", "assemble_full_symbol"]


def _reference_nonglancing(st, eos, root, xi, boundary):
    """`nonglancing_test` by the 8x8 route: the root matched among the
    merged roots, the gap product over the other merged roots, the
    derivative from the stacked `_factored_char_poly` of quadratics built
    from the cross product, and the branch velocities from a full `eigh` of
    H(xi) compressed onto the m eigenvectors at the root's place in the
    ascending spectrum (the m nearest the root's mean need not be the
    root's own when its values spread across the merge band).  Returns the
    result fields and the derivative's |.|-majorant."""
    xi = np.asarray(xi, dtype=float)
    xin = float(np.linalg.norm(xi))
    m, d, sigma = root.multiplicity, boundary.axis, boundary.sigma
    if m > 6:
        raise ValueError(f"derivative order capped at 6, got multiplicity {m}")
    ws = wave_speeds(st, eos, xi)
    scale = max(ws.c_f, float(np.linalg.norm(st.u)), 1.0)
    vel_scale = max(scale, abs(sigma))
    gap_product = math.factorial(m)
    matched, start = None, 0  # start: multiplicities below the root
    for other in _merged_roots(st, xi, xin, ws, 1e-9, scale):
        if abs(other.lam - root.lam) <= 1e-9 * xin * vel_scale:
            if other.multiplicity != m:
                raise ValueError(
                    f"root multiplicity {m} does not match the spectrum "
                    f"(found {other.multiplicity} at lambda = {other.lam})")
            matched = matched or other
            continue
        gap_product *= (other.lam - root.lam) ** other.multiplicity
        if matched is None:
            start += other.multiplicity
    if matched is None:
        raise ValueError(f"lambda = {root.lam} is not an eigenvalue at this xi")

    c0_sq = sound_speed_sq(eos, st)
    cross, cross_d = np.cross(xi, st.B), np.cross(unit_vector(d), st.B)
    xb, b_d = xi @ st.B, st.B[d - 1]
    F = np.array([xb * xb, 2.0 * xb * b_d, b_d * b_d]) / st.rho
    C = c0_sq * np.array([xi @ xi, 2.0 * xi[d - 1], 1.0])
    X = np.array([cross @ cross, 2.0 * cross @ cross_d, cross_d @ cross_d]) / st.rho
    tau, rel = st.u @ xi - root.lam, st.u[d - 1] - sigma
    T = np.array([tau * tau, 2.0 * tau * rel, rel * rel])
    deriv = math.factorial(m) * _factored_char_poly(T, F, C, X)[m]
    majorant = math.factorial(m) * _factored_char_poly(abs(T), -abs(F), -abs(C), -abs(X))[m]
    nonglancing = abs(deriv) > 1e-8 * max(abs(gap_product) * vel_scale**m, 1e-300)

    if matched.families == ("entropy",):
        velocities = np.full(m, rel)
    else:
        H, H_d = _symmetric_symbol(st, eos, xi, unit_vector(d))
        W = np.linalg.eigh(H)[1][:, start:start + m]
        velocities = np.linalg.eigvalsh(W.T @ H_d @ W) - sigma
    incoming = int(np.sum(velocities > 1e-8 * vel_scale))
    outgoing = int(np.sum(velocities < -1e-8 * vel_scale))
    totally = nonglancing and (incoming == m or outgoing == m)
    return (nonglancing, totally, incoming, outgoing), deriv, velocities, majorant, vel_scale


_NONGLANCING_ERRORS = ("does not match the spectrum", "is not an eigenvalue",
                       "derivative order capped")


def _probe(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_nonglancing_matches_the_eight_by_eight_reference(gas):
    # designed points of cases a, b and c at axes 1-3; xi 1e-13..1e-12 off B
    # (t1 along the tangential field below tangent_basis's threshold)
    # and 1e-14..1e-4 off the plane orthogonal to B (slow, Alfven and
    # entropy values crowd at band edges); the excluded regimes B = 0 and
    # |B|^2 = rho c0^2 (xi generic, along B, and 1e-10 off B, where slow,
    # Alfven and fast pass within 1e-10 of each other); cold states whose
    # values crowd within the merge band.  Every root as it is, with
    # multiplicity m - 1 and with lambda shifted by 1e-3: the same verdicts,
    # counts and errors as the 8x8 reference, the velocities within 1e-13
    # vel_scale and the derivative within 1e-12 of its majorant
    rng = np.random.default_rng(51)
    points = []
    for case in "abc" * 8:
        st, xi, boundary = _designed_point(rng, case)
        points += [(case, st, xi, BoundaryFrame(axis=d, sigma=boundary.sigma))
                   for d in (1, 2, 3)]
    for _ in range(20):
        st, xi, boundary = _designed_point(rng, "c")
        b_dir = st.B / np.linalg.norm(st.B)
        tilt = np.cross(b_dir, rng.standard_normal(3))
        points.append(("xi near B", st, b_dir + tilt * 10.0 ** rng.uniform(-13, -12)
                       / np.linalg.norm(tilt), boundary))
        st, xi, boundary = _designed_point(rng, "b")
        points.append(("xi near B-perp", st, xi / np.linalg.norm(xi) + st.B / np.linalg.norm(
            st.B) * 10.0 ** rng.uniform(-14, -4), boundary))
    for _ in range(8):
        st, xi, boundary = _designed_point(rng, "a")
        b_dir = st.B / np.linalg.norm(st.B)
        on_manifold = dataclasses.replace(
            st, B=math.sqrt(st.rho * sound_speed_sq(gas, st)) * b_dir)
        tilt = np.cross(b_dir, xi)
        tilt *= 1e-10 / np.linalg.norm(tilt)
        points += [("B = 0", dataclasses.replace(st, B=np.zeros(3)), xi, boundary),
                   ("equal", on_manifold, xi, boundary),
                   ("equal, xi || B", on_manifold, b_dir * np.linalg.norm(xi), boundary),
                   ("equal, xi near B", on_manifold, b_dir + tilt, boundary)]
    for _ in range(30):
        st = ThermoState(rho=1.0, u=rng.uniform(-3.0, 3.0, 3), theta=10.0 ** rng.uniform(-21, -17),
                         B=rng.standard_normal(3) * 10.0 ** rng.uniform(-11, -8))
        points.append(("cold", st, rng.standard_normal(3),
                       BoundaryFrame(axis=int(rng.integers(1, 4)), sigma=0.2)))
    seen, errors = set(), set()
    for kind, st, xi, boundary in points:
        for root in eigenvalues(st, gas, xi):
            for probe in (root, dataclasses.replace(root, multiplicity=root.multiplicity - 1),
                          dataclasses.replace(root, lam=root.lam + 1e-3)):
                got = _probe(nonglancing_test, st, gas, probe, xi, boundary)
                want = _probe(_reference_nonglancing, st, gas, probe, xi, boundary)
                if isinstance(want[0], str):
                    assert got == want, (kind, probe)
                    errors.add(next(msg for msg in _NONGLANCING_ERRORS if msg in want[1]))
                    continue
                flags, deriv, velocities, majorant, vel_scale = want
                assert (got.nonglancing, got.totally, got.incoming_count,
                        got.outgoing_count) == flags, (kind, probe)
                assert abs(got.derivative_value - deriv) <= 1e-12 * majorant, (kind, probe)
                assert len(got.branch_velocities) == probe.multiplicity
                assert np.max(np.abs(np.array(got.branch_velocities) - velocities)) <= (
                    1e-13 * vel_scale), (kind, probe)
                seen.add((kind, probe.multiplicity))
    assert {("a", 2), ("b", 6), ("c", 2), ("xi near B", 2), ("B = 0", 6),
            ("equal, xi || B", 3), ("equal, xi near B", 3), ("cold", 1)} <= seen
    assert errors == set(_NONGLANCING_ERRORS)


def test_nonglancing_rejects_a_multiplicity_the_spectrum_does_not_have(gas):
    # the case-b sextuple passed as a double: the values within the band of
    # lambda number six, a caller error raised as ValueError
    rng = np.random.default_rng(52)
    st, xi, boundary = _designed_point(rng, "b")
    roots, regime = classify(st, gas, xi, boundary=boundary)
    assert regime.case == "b"
    sextuple = next(r for r in roots if r.multiplicity == 6)
    with pytest.raises(ValueError, match="does not match the spectrum"):
        nonglancing_test(st, gas, dataclasses.replace(sextuple, multiplicity=2), xi, boundary)


def test_nonglancing_takes_no_second_merge_and_no_eight_by_eight_eigensolve(gas, monkeypatch):
    # nonglancing_test reads the spectrum off the closed-form values and the
    # eigenvectors off the frame blocks: no `_merged_roots` and no eigh or
    # eigvalsh of an 8x8 matrix; classify's case-b count keeps its 8x8
    # eigvalsh as the independent witness
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            shape = np.shape(args[0]) if name != "_merged_roots" else None
            calls.append((name, shape))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(charstruct, "_merged_roots",
                        counted("_merged_roots", charstruct._merged_roots))
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    rng = np.random.default_rng(53)
    for case in "abc" * 5:
        st, xi, boundary = _designed_point(rng, case)
        calls.clear()
        roots, regime = classify(st, gas, xi, boundary=boundary)
        assert ("_merged_roots", None) in calls
        assert (("eigvalsh", (8, 8)) in calls) == (regime.case == "b")
        for root in roots:
            calls.clear()
            nonglancing_test(st, gas, root, xi, boundary)
            assert all(name != "_merged_roots" and shape != (8, 8) for name, shape in calls)
            if root.families != ("entropy",):  # the m x m compression, seen by the counter
                assert ("eigvalsh", (root.multiplicity,) * 2) in calls


def _frame_basis(st, eos, xi_hat, t1, t2):
    """Q whose columns are the frame coordinates (s, u.xi_hat, B.t1, u.t1,
    u.t2, B.t2, e, B.xi_hat) in the coordinates of `_symmetric_symbol`."""
    ev = eval_eos(eos, st.rho, st.theta)
    c = math.sqrt(ev.P_rho)
    g = ev.P_theta * math.sqrt(st.theta / ev.e_theta) / st.rho
    c0 = math.hypot(c, g)
    Q = np.zeros((8, 8))
    Q[[0, 4], 0] = c / c0, g / c0
    Q[1:4, 1], Q[5:8, 2], Q[1:4, 3] = xi_hat, t1, t1
    Q[1:4, 4], Q[5:8, 5] = t2, t2
    Q[[0, 4], 6] = g / c0, -c / c0
    Q[5:8, 7] = xi_hat
    return Q


@pytest.mark.parametrize("eos", [IdealGas(R=1.0, c_v=1.5), _QuadraticPressure()],
                         ids=["ideal-gas", "quadratic-pressure"])
def test_frame_symbol_is_the_symmetric_symbol_in_the_frame(eos):
    # every entry of the frame block against Q^T (H(v) - (u.v) I) Q, Q the
    # frame's orthonormal change of basis, at e_1, e_2, e_3 and at xi_hat,
    # where it is the tridiagonal with off-diagonals (c0, b, -a, 0, -a, 0, 0)
    rng = np.random.default_rng(54)
    for k in range(30):
        st = random_state(rng)
        xi = random_xi(rng)
        if k % 3 == 1:  # xi 1e-14..1e-6 off B
            b_dir = st.B / np.linalg.norm(st.B)
            xi = b_dir + np.cross(b_dir, xi) * 10.0 ** rng.uniform(-14, -6)
        xi_hat = xi / np.linalg.norm(xi)
        t1, t2 = charstruct._tangent_pair(xi_hat.tolist(), st.B.tolist(), 0.0)
        Q = _frame_basis(st, eos, xi_hat, t1, t2)
        assert_allclose(Q.T @ Q, np.eye(8), rtol=0, atol=1e-14)
        ws = wave_speeds(st, eos, xi)
        scale = max(ws.c0, ws.h)
        for v in (unit_vector(1), unit_vector(2), unit_vector(3), xi_hat):
            H = _symmetric_symbol(st, eos, v)[0] - (st.u @ v) * np.eye(8)
            F = charstruct._frame_symbol(ws, (v @ xi_hat, v @ t1, v @ t2))
            assert_allclose(F, Q.T @ H @ Q, rtol=0, atol=1e-13 * scale)
        F = charstruct._frame_symbol(ws, (1.0, 0.0, 0.0))
        off = [ws.c0, ws.b, -ws.a, 0.0, -ws.a, 0.0, 0.0]
        assert np.array_equal(F, np.diag(off, 1) + np.diag(off, -1))


def test_root_vectors_are_eigenvectors_of_the_frame_block(gas):
    # the adjugate and product columns on the frame block's off-diagonals
    # (c0, b, -a) span an invariant subspace of that block with the
    # root's eigenvalues, for every merged root: at designed points, where
    # slow, Alfven and fast coincide (xi || B, |B|^2 = rho c0^2) and on cold
    # states whose values crowd within the merge band
    rng = np.random.default_rng(55)
    seen = set()
    for k in range(48):
        st, xi, _ = _designed_point(rng, "abc"[k % 3])
        if k % 4 == 1:
            b_dir = st.B / np.linalg.norm(st.B)
            st = dataclasses.replace(st, B=math.sqrt(st.rho * sound_speed_sq(gas, st)) * b_dir)
            xi = b_dir
        elif k % 4 == 3:
            st = dataclasses.replace(st, theta=1e-19, B=st.B * 1e-9)
        ws = wave_speeds(st, gas, xi)
        scale = max(ws.c0, ws.h)
        F = charstruct._frame_symbol(ws, (1.0, 0.0, 0.0))
        eig = {"slow-": -ws.c_s, "slow+": ws.c_s, "fast-": -ws.c_f, "fast+": ws.c_f,
               "alfven-": -ws.a, "alfven+": ws.a, "entropy": 0.0}
        for root in eigenvalues(st, gas, xi):
            W = np.array(charstruct._root_vectors(root.families, ws))
            m = root.multiplicity
            assert W.shape == (m, 8)
            assert_allclose(W @ W.T, np.eye(m), rtol=0, atol=1e-14)
            K = W @ F @ W.T
            assert_allclose(F @ W.T, W.T @ K, rtol=0, atol=1e-13 * scale)
            want = sorted(eig[f] for f in root.families for _ in range(1 + (f == "entropy")))
            assert_allclose(np.linalg.eigvalsh(K), want, rtol=0, atol=1e-13 * scale)
            seen.add(m)
    assert {1, 2, 3, 6} <= seen
