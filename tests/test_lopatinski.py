import copy
import dataclasses
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import scipy.linalg

from mhdstab.cli import write_csv
from mhdstab.errors import (
    CharacteristicBoundary,
    DimensionMismatch,
    MhdStabError,
    NoAdmissibleShock,
    RankDeficiency,
)
from mhdstab.thermo import ThermoState, eval_eos, sound_speed_sq
from mhdstab.symbol import assemble_full_symbol, boundary_matrix, unit_vector
from mhdstab.charstruct import _normal_speeds, wave_speeds
from mhdstab.lopatinski import (
    BoundaryFrequency,
    BoundaryOperator,
    ExplicitGrid,
    GasShockSpec,
    HemisphereGrid,
    PlanarShock,
    assemble_G,
    b_to_zero_study,
    conserved_jacobian,
    conserved_vector,
    flux_jacobian,
    flux_vector,
    lopatinski_det,
    rankine_hugoniot,
    shock_boundary_operator,
    shock_scan,
    stable_subspace,
    uniform_scan,
)
from mhdstab.lopatinski import (
    _CHUNK,
    _LAX_PATTERNS,
    _ScanProblem,
    _Side,
    _evaluate,
    _frequency,
    _one_sided_problem,
    _point_abs_D,
    _polish_min,
    _scan,
    _scan_kernel,
    _shock_problem,
    _tangential_axes,
)

from conftest import random_state

SUBSONIC_STATE = ThermoState(rho=1.0, u=[0.2, -0.1, 0.9], theta=1.0,
                             B=[0.3, 0.1, 0.2])
SLOW_INFLOW = ThermoState(rho=1.0, u=[0.2, -0.1, 0.1], theta=1.0,
                          B=[0.3, 0.1, 0.2])
SUPERSONIC_INFLOW = ThermoState(rho=1.0, u=[0.2, -0.1, 3.0], theta=1.0,
                                B=[0.3, 0.1, 0.2])
OUTFLOW = ThermoState(rho=1.0, u=[0.2, -0.1, -0.1], theta=1.0,
                      B=[0.3, 0.1, 0.2])


def n_positive(state, gas, d):
    A_d = assemble_full_symbol(state, gas, unit_vector(d))
    return int(np.sum(np.linalg.eigvals(A_d).real > 0))


# ----------------------------------------------------------------------------
# frequency points and grids
# ----------------------------------------------------------------------------

def test_boundary_frequency_normalization():
    zf = BoundaryFrequency(3.0, 4.0, [0.0, 0.0]).normalized()
    assert_allclose(zf.norm, 1.0, rtol=1e-15)
    with pytest.raises(ValueError):
        BoundaryFrequency(1.0, -0.1, [0, 0])


def test_boundary_frequency_equality_and_hash():
    # equal points compare and hash equal whatever form eta came in; a point
    # differing in one component does not compare equal
    a = BoundaryFrequency(0.3, 0.5, [0.1, -0.2])
    b = BoundaryFrequency(0.3, 0.5, np.array([0.1, -0.2]))
    assert a == b and not a != b and hash(a) == hash(b)
    assert BoundaryFrequency.from_dict(a.to_dict()) == a
    assert len({a, b, BoundaryFrequency(0.0, 0.0, [1.0, 0.0])}) == 2
    assert a != BoundaryFrequency(0.3, 0.5, [0.1, 0.2]) and a != (0.3, 0.5, 0.1, -0.2)
    assert ExplicitGrid([a]) == ExplicitGrid([b]) and hash(ExplicitGrid([a])) == hash(ExplicitGrid([b]))


@pytest.mark.parametrize("tau, gamma_L, eta", [
    (np.nan, 0.5, [0.1, 0.2]),
    (np.inf, 0.5, [0.1, 0.2]),
    (0.3, np.nan, [0.1, 0.2]),
    (0.3, np.inf, [0.1, 0.2]),
    (0.3, 0.5, [-np.inf, 0.2]),
    (0.3, 0.5, [0.1, np.nan]),
])
def test_boundary_frequency_rejects_non_finite(tau, gamma_L, eta):
    # a non-finite point would otherwise reach a scan's batched linear
    # algebra, which raises for the whole stack instead of one failure record
    with pytest.raises(ValueError, match="finite"):
        BoundaryFrequency(tau, gamma_L, eta)


def test_hemisphere_grid_shape():
    grid = HemisphereGrid(n_phi=4, n_sphere=30, equator_refine=2)
    pts = grid.points()
    assert len(pts) == grid.n_points == 4 * 30 + 60
    for zf in pts:
        assert_allclose(zf.norm, 1.0, rtol=1e-12)
        assert zf.gamma_L >= 0.0
    n_equator = sum(1 for zf in pts if zf.gamma_L == 0.0)
    assert n_equator == 60
    # deterministic
    again = HemisphereGrid(n_phi=4, n_sphere=30, equator_refine=2).points()
    assert all(a.to_dict() == b.to_dict() for a, b in zip(pts, again))


# ----------------------------------------------------------------------------
# G and the stable subspace
# ----------------------------------------------------------------------------

def test_assemble_G_pure_damping_is_inverse(gas):
    st = ThermoState(rho=1.0, u=[0, 0, 2], theta=1.0, B=[0, 0, 0])
    A_d, ok = boundary_matrix(st, gas, 3)
    assert ok
    G = assemble_G(st, gas, 3, BoundaryFrequency(0.0, 1.0, [0, 0]))
    assert_allclose(G, -1j * np.linalg.inv(A_d), atol=1e-13)
    mu = np.linalg.eigvals(G)
    assert np.all(mu.imag < 0.0)  # supersonic: every characteristic incoming


def test_assemble_G_linear_in_zeta(gas):
    zf = BoundaryFrequency(0.4, 0.2, [0.5, -0.3])
    G1 = assemble_G(SUBSONIC_STATE, gas, 3, zf)
    G2 = assemble_G(SUBSONIC_STATE, gas, 3, zf.scaled(2.5))
    assert_allclose(G2, 2.5 * G1, rtol=1e-13)


def test_assemble_G_characteristic_boundary_raises(gas):
    st = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[1, 0, 0])
    with pytest.raises(CharacteristicBoundary):
        assemble_G(st, gas, 3, BoundaryFrequency(0.0, 1.0, [0, 0]))


def test_stable_subspace_dimension_and_invariance(gas):
    st = SUBSONIC_STATE
    expected = n_positive(st, gas, 3)
    A_d, _ = boundary_matrix(st, gas, 3)
    a_d_inv = np.linalg.inv(A_d)
    rng = np.random.default_rng(50)
    for _ in range(200):
        zf = BoundaryFrequency(rng.standard_normal(), rng.uniform(0.05, 1.0),
                               rng.standard_normal(2)).normalized()
        G = assemble_G(st, gas, 3, zf)
        E = stable_subspace(G, zf.gamma_L, a_d_inv=a_d_inv)
        assert E.shape[1] == expected
        # orthonormal, G-invariant
        assert_allclose(E.conj().T @ E, np.eye(expected), atol=1e-12)
        residual = np.linalg.norm((np.eye(8) - E @ E.conj().T) @ (G @ E))
        assert residual < 1e-8


def test_stable_subspace_continuation_limit(gas):
    st = SUBSONIC_STATE
    A_d, _ = boundary_matrix(st, gas, 3)
    a_d_inv = np.linalg.inv(A_d)
    zf = BoundaryFrequency(0.6, 0.0, [0.6, -0.2]).normalized()
    zf = BoundaryFrequency(zf.tau, 0.0, zf.eta)
    G = assemble_G(st, gas, 3, zf)
    E0 = stable_subspace(G, 0.0, a_d_inv=a_d_inv)
    assert E0.shape[1] == n_positive(st, gas, 3)
    with pytest.raises(ValueError):
        stable_subspace(G, 0.0)


# ----------------------------------------------------------------------------
# Lopatinski determinant
# ----------------------------------------------------------------------------

def _subspace_pair(gas):
    st = SUBSONIC_STATE
    A_d, _ = boundary_matrix(st, gas, 3)
    zf = BoundaryFrequency(0.3, 0.5, [0.4, -0.1]).normalized()
    G = assemble_G(st, gas, 3, zf)
    E = stable_subspace(G, zf.gamma_L, a_d_inv=np.linalg.inv(A_d))
    return E, zf


def test_det_unit_for_orthogonal_complement(gas):
    E, _ = _subspace_pair(gas)
    res = lopatinski_det(E, BoundaryOperator.from_matrix(E.conj().T))
    assert abs(res.abs_D - 1.0) <= 1e-12
    assert res.k == E.shape[1]


def test_det_zero_for_intersecting_kernel(gas):
    E, _ = _subspace_pair(gas)
    k = E.shape[1]
    # kernel spanned by the first stable direction: M kills its complement
    kernel = E[:, :1]
    q, _ = np.linalg.qr(np.hstack([kernel, np.eye(8)[:, :7]]))
    M = q[:, 1:8].conj().T  # 7 x 8, rank 7, kernel = span(kernel)
    assert M.shape[0] + 1 == 8
    if k + 1 != 8:
        pytest.skip("state does not give a 7-dimensional stable space")
    res = lopatinski_det(E, BoundaryOperator.from_matrix(M))
    assert res.abs_D <= 1e-12


def test_det_basis_invariance_and_dual_algorithms(gas):
    E, _ = _subspace_pair(gas)
    k = E.shape[1]
    rng = np.random.default_rng(51)
    M = BoundaryOperator.from_matrix(
        rng.standard_normal((k, 8)) + 1j * rng.standard_normal((k, 8)))
    base = lopatinski_det(E, M)
    for _ in range(10):
        Z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        Q, _ = np.linalg.qr(Z)
        res = lopatinski_det(E @ Q, M)
        assert abs(res.abs_D - base.abs_D) <= 1e-12
        assert res.diagnostics["algorithm_disagreement"] <= 1e-12


def test_det_invariant_under_kernel_presentation(gas):
    # two operators with the same kernel (row recombination) give one |D|
    E, zf = _subspace_pair(gas)
    k = E.shape[1]
    rng = np.random.default_rng(54)
    M0 = rng.standard_normal((k, 8)) + 1j * rng.standard_normal((k, 8))
    base = lopatinski_det(E, BoundaryOperator.from_matrix(M0))
    for _ in range(10):
        U, _ = np.linalg.qr(rng.standard_normal((k, k))
                            + 1j * rng.standard_normal((k, k)))
        res = lopatinski_det(E, BoundaryOperator.from_matrix(U @ M0))
        assert abs(res.abs_D - base.abs_D) <= 1e-12


def test_det_invariant_under_zeta_scaling(gas):
    st = SUBSONIC_STATE
    A_d, _ = boundary_matrix(st, gas, 3)
    a_d_inv = np.linalg.inv(A_d)
    rng = np.random.default_rng(55)
    M = BoundaryOperator.from_matrix(
        rng.standard_normal((7, 8)) + 1j * rng.standard_normal((7, 8)))
    zf = BoundaryFrequency(0.3, 0.5, [0.4, -0.1]).normalized()
    values = []
    for s in (1.0, 3.0, 0.25):
        zs = zf.scaled(s)
        G = assemble_G(st, gas, 3, zs)
        E = stable_subspace(G, zs.gamma_L, a_d_inv=a_d_inv)
        values.append(lopatinski_det(E, M, zs).abs_D)
    assert max(values) - min(values) <= 1e-12


def test_abs_D_continuous_along_paths(gas):
    # |D| along a frequency path is Lipschitz: consecutive increments at
    # step h stay below 10 * h * (local slope estimate at step h/2), even
    # across the conical valley at the glancing circle
    up = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0, 0, 0])
    sh = rankine_hugoniot(gas, up, family="fast", mach=2.0, d=3)
    from mhdstab.lopatinski import _shock_problem
    prob = _shock_problem(sh, 1e-10)

    def absD(tau):
        eta = np.sqrt(max(1.0 - tau * tau, 0.0))
        zf = BoundaryFrequency(tau, 0.0, [eta, 0.0])
        return lopatinski_det(_direct_sum_E(prob, zf), prob.operator, zf).abs_D

    taus = np.linspace(0.70, 0.95, 161)  # fine path through the kink
    h = taus[1] - taus[0]
    vals = np.array([absD(t) for t in taus])
    fine = np.array([absD(t) for t in np.arange(taus[0], taus[-1] + h / 4, h / 2)])
    slopes_fine = np.abs(np.diff(fine)) / (h / 2)
    for i in range(len(taus) - 1):
        local = max(slopes_fine[2 * i: 2 * i + 2].max(), 1e-12)
        assert abs(vals[i + 1] - vals[i]) <= 10.0 * h * local


def test_det_dimension_mismatch(gas):
    E, _ = _subspace_pair(gas)
    M = BoundaryOperator.from_matrix(np.eye(8)[:2])  # kernel dim 6, k = 7
    with pytest.raises(DimensionMismatch):
        lopatinski_det(E, M)


def test_rank_deficient_operator_detected(gas):
    E, _ = _subspace_pair(gas)
    rows = np.zeros((7, 8), dtype=complex)
    rows[0] = 1.0  # rank 1, declared rank 7
    with pytest.raises(RankDeficiency):
        lopatinski_det(E, BoundaryOperator.from_matrix(rows))


# ----------------------------------------------------------------------------
# one-sided uniform scan
# ----------------------------------------------------------------------------

def test_uniform_scan_frozen_complement_near_unity(gas):
    st = SUBSONIC_STATE
    A_d, _ = boundary_matrix(st, gas, 3)
    zf0 = BoundaryFrequency(0.3, 0.5, [0.4, -0.1]).normalized()
    G0 = assemble_G(st, gas, 3, zf0)
    E0 = stable_subspace(G0, zf0.gamma_L, a_d_inv=np.linalg.inv(A_d))
    M = BoundaryOperator.from_matrix(E0.conj().T)

    # small cap around zf0
    rng = np.random.default_rng(52)
    points = []
    for _ in range(40):
        delta = rng.standard_normal(4) * 0.02
        v = np.array([zf0.tau, zf0.gamma_L, zf0.eta[0], zf0.eta[1]]) + delta
        v[1] = abs(v[1])
        v /= np.linalg.norm(v)
        points.append(BoundaryFrequency(v[0], v[1], v[2:]))
    res = uniform_scan(st, gas, 3, M, ExplicitGrid(points), polish_rounds=0)
    assert not res.failures
    assert res.min_abs_D > 0.95
    assert res.expected_dim == n_positive(st, gas, 3)
    # dim E_minus constant across rows
    assert {row[5] for row in res.rows} == {res.expected_dim}


def test_uniform_scan_detects_constructed_zero(gas):
    st = SUBSONIC_STATE
    A_d, _ = boundary_matrix(st, gas, 3)
    zf0 = BoundaryFrequency(0.3, 0.5, [0.4, -0.1]).normalized()
    G0 = assemble_G(st, gas, 3, zf0)
    E0 = stable_subspace(G0, zf0.gamma_L, a_d_inv=np.linalg.inv(A_d))
    kernel = E0[:, :1]
    q, _ = np.linalg.qr(np.hstack([kernel, np.eye(8, dtype=complex)[:, :7]]))
    M = BoundaryOperator.from_matrix(q[:, 1:8].conj().T)
    res = uniform_scan(st, gas, 3, M, ExplicitGrid([zf0]), polish_rounds=0)
    assert res.min_abs_D <= 1e-12
    assert res.argmin.to_dict() == zf0.to_dict()


def test_uniform_scan_csv_round_trip(gas, tmp_path):
    st = SUBSONIC_STATE
    grid = HemisphereGrid(n_phi=2, n_sphere=12, equator_refine=1)
    A_d, _ = boundary_matrix(st, gas, 3)
    zf0 = BoundaryFrequency(0.0, 1.0, [0.0, 0.0])
    E0 = stable_subspace(assemble_G(st, gas, 3, zf0), 1.0)
    res = uniform_scan(st, gas, 3, BoundaryOperator.from_matrix(E0.conj().T),
                       grid, polish_rounds=0)
    path = tmp_path / "scan.csv"
    write_csv(path, ["tau", "gamma_L", "eta1", "eta2", "abs_D", "dim_Eminus"], res.rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau,gamma_L,eta1,eta2,abs_D,dim_Eminus"
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert_allclose(parsed[:, 4], [row[4] for row in res.rows], rtol=0, atol=0)


# ----------------------------------------------------------------------------
# conservation-law plumbing
# ----------------------------------------------------------------------------

def test_flux_jacobians_match_finite_differences(gas):
    rng = np.random.default_rng(53)
    h = 1e-6
    for _ in range(20):
        v = np.concatenate([[rng.uniform(0.5, 2.0)], rng.uniform(-2, 2, 3),
                            [rng.uniform(0.5, 2.0)], rng.uniform(-2, 2, 3)])
        for k in (1, 2, 3):
            J = flux_jacobian(v, gas, k)
            J_fd = np.empty_like(J)
            for j in range(8):
                vp, vm = v.copy(), v.copy()
                vp[j] += h
                vm[j] -= h
                J_fd[:, j] = (flux_vector(vp, gas, k)
                              - flux_vector(vm, gas, k)) / (2 * h)
            assert_allclose(J, J_fd, atol=5e-8)
        Jq = conserved_jacobian(v, gas)
        Jq_fd = np.empty_like(Jq)
        for j in range(8):
            vp, vm = v.copy(), v.copy()
            vp[j] += h
            vm[j] -= h
            Jq_fd[:, j] = (conserved_vector(vp, gas)
                           - conserved_vector(vm, gas)) / (2 * h)
        assert_allclose(Jq, Jq_fd, atol=5e-8)


def test_flux_jacobians_match_finite_differences_on_wide_states(gas):
    # flux_jacobian is (dq/dv) A_k - Phi e_{B_k}^T; this checks it, the sign
    # of the Powell column Phi included, against central differences of the
    # fluxes over rho and theta in 1e-2..1e2 and |u|, |B| <= 10 on every
    # axis, with steps on each component's own scale (the state's density,
    # temperature, speed and field) and errors read against each column's
    # largest entry; the worst error is below 1e-6 of it at these steps
    rng = np.random.default_rng(54)
    for _ in range(200):
        st = random_state(rng)
        v = st.as_array()
        speed = (math.sqrt(st.theta) + np.linalg.norm(st.u)
                 + np.linalg.norm(st.B) / math.sqrt(st.rho))
        field = math.sqrt(st.rho) * speed
        step = 1e-5 * np.array([st.rho, speed, speed, speed, st.theta, field, field, field])
        cases = [(lambda w, k=k: flux_vector(w, gas, k), flux_jacobian(v, gas, k))
                 for k in (1, 2, 3)]
        cases.append((lambda w: conserved_vector(w, gas), conserved_jacobian(v, gas)))
        for f, J in cases:
            J_fd = np.column_stack([(f(v + h * e) - f(v - h * e)) / (2.0 * h)
                                    for h, e in zip(step, np.eye(8))])
            assert np.all(np.abs(J - J_fd).max(axis=0) <= 1e-5 * np.abs(J).max(axis=0))


# ----------------------------------------------------------------------------
# Rankine-Hugoniot
# ----------------------------------------------------------------------------

def test_gas_dynamic_mach2_reference(gas):
    up = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0, 0, 0])
    sh = rankine_hugoniot(gas, up, family="fast", mach=2.0, d=3)
    # classical normal-shock relation, Gamma = 5/3, M = 2
    assert_allclose(sh.right.rho / sh.left.rho, 32.0 / 14.0, rtol=1e-12)
    assert sh.residual < 1e-10
    assert sh.lax_valid and sh.noncharacteristic
    assert np.max(np.abs(sh.jump_residual())) < 1e-10
    # upstream normal inflow at fast speed * mach, front speed consistent
    ws = wave_speeds(up, gas, [0, 0, 1])
    assert_allclose(sh.left.u[2], 2.0 * ws.c_f, rtol=1e-14)
    assert_allclose(sh.sigma, up.u[2] - 2.0 * ws.c_f, rtol=1e-14)


def test_zero_strength_limit(gas):
    up = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0.4, 0, 0])
    sh = rankine_hugoniot(gas, up, family="fast", mach=1.0, d=3)
    assert_allclose(sh.right.as_array(), sh.left.as_array(), atol=1e-12)
    ws = wave_speeds(up, gas, [0, 0, 1])
    assert_allclose(sh.sigma, -ws.c_f, rtol=1e-12)
    assert not sh.lax_valid  # degenerate: front moves at a characteristic speed
    assert not sh.noncharacteristic


def test_small_tangential_field_continuation(gas):
    up = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0, 0, 0])
    base = rankine_hugoniot(gas, up, family="fast", mach=2.0, d=3)
    eps = 1e-3
    sh = rankine_hugoniot(gas, up, family="fast", mach=2.0, d=3, B=[eps, 0, 0])
    assert sh.residual < 1e-10
    diff = np.linalg.norm(sh.right.as_array() - base.right.as_array())
    # O(eps) from the seed field itself; O(eps^2) in the gas quantities
    assert diff < 10 * eps
    gas_diff = abs(sh.right.rho - base.right.rho) + abs(sh.right.theta
                                                        - base.right.theta)
    assert gas_diff < 50 * eps**2
    # tangential field is compressed by the density ratio
    assert_allclose(sh.right.B[0], eps * sh.right.rho / sh.left.rho, rtol=1e-8)


def test_expansion_rejected(gas):
    up = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0, 0, 0])
    with pytest.raises(NoAdmissibleShock):
        rankine_hugoniot(gas, up, family="fast", mach=0.8, d=3)
    with pytest.raises(NoAdmissibleShock):
        rankine_hugoniot(gas, up, family="sideways", mach=2.0, d=3)


def test_slow_family_requires_normal_field(gas):
    up = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[1.0, 0, 0])
    with pytest.raises(NoAdmissibleShock):
        # B_d = 0 makes the slow speed vanish along the normal
        rankine_hugoniot(gas, up, family="slow", mach=1.5, d=3)


@pytest.mark.parametrize("B, mach, message", [
    ([0.1, 0.0, 0.2], 1.1, "Newton converged to the trivial"),
    ([0.1, 0.0, 1.0], 1.5, "violates the Lax slow-family pattern"),
    ([0.1, 0.0, 1.5], 1.5, "Newton did not converge"),
], ids=["trivial", "lax-violation", "no-convergence"])
def test_slow_family_jump_solve_failures_raise(gas, B, mach, message):
    # from the gas-dynamic seed, Newton on the slow-family jump conditions
    # finds no shock, a shock of another Lax pattern, or nothing at all
    up = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=B)
    with pytest.raises(NoAdmissibleShock, match=message):
        rankine_hugoniot(gas, up, family="slow", mach=mach, d=3)


def test_shock_round_trip(gas):
    up = ThermoState(rho=1.0, u=[0.1, -0.2, 0.5], theta=1.2, B=[0.2, 0.1, 0.05])
    sh = rankine_hugoniot(gas, up, family="fast", mach=1.8, d=3)
    again = PlanarShock.from_dict(sh.to_dict())
    assert_allclose(again.left.as_array(), sh.left.as_array(), rtol=1e-15)
    assert_allclose(again.right.as_array(), sh.right.as_array(), rtol=1e-15)
    assert again.sigma == sh.sigma
    assert again.lax_valid == sh.lax_valid
    assert again.to_dict() == sh.to_dict()


# ----------------------------------------------------------------------------
# shock boundary operator and two-sided scan
# ----------------------------------------------------------------------------

def test_shock_operator_dimensions_and_rank(gas):
    up = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0.05, 0, 0])
    sh = rankine_hugoniot(gas, up, family="fast", mach=2.0, d=3)
    op = shock_boundary_operator(sh)
    assert (op.p, op.n) == (7, 16)
    zf = BoundaryFrequency(0.3, 0.4, [0.2, 0.1]).normalized()
    M = op.matrix(zf)
    assert np.linalg.matrix_rank(M) == 7
    K = op.kernel_basis(zf)
    assert K.shape == (16, 9)
    # frozen variant agrees
    frozen = shock_boundary_operator(sh, zf)
    assert_allclose(frozen.matrix(), M)


def test_shock_operator_scale_invariant_kernel(gas):
    up = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0.05, 0, 0])
    sh = rankine_hugoniot(gas, up, family="fast", mach=2.0, d=3)
    op = shock_boundary_operator(sh)
    zf = BoundaryFrequency(0.3, 0.4, [0.2, 0.1])
    K1 = op.kernel_basis(zf)
    K2 = op.kernel_basis(zf.scaled(3.0))
    # same subspace: projectors agree
    assert_allclose(K1 @ K1.conj().T, K2 @ K2.conj().T, atol=1e-12)


def test_zero_strength_shock_operator_rank_deficient(gas):
    up = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0.3, 0, 0])
    sh = rankine_hugoniot(gas, up, family="fast", mach=1.0, d=3)
    op = shock_boundary_operator(sh)
    with pytest.raises(RankDeficiency):
        op.matrix(BoundaryFrequency(0.3, 0.4, [0.2, 0.1]))


@pytest.mark.parametrize("B, zf", [
    ([0.05, 0.0, 0.0], BoundaryFrequency(0.3, 0.4, [0.2, 0.1]).normalized()),
    ([0.2, -0.1, 0.3], BoundaryFrequency(0.6, 0.0, [0.64, -0.48])),  # gamma_L = 0
    # tau = gamma_L = 0 at B = 0: the front vector has no mass component
    ([0.0, 0.0, 0.0], BoundaryFrequency(0.0, 0.0, [0.6, 0.8])),
], ids=["interior", "equator", "zero-mass-component"])
def test_shock_operator_is_complement_of_front_vector(gas, B, zf):
    """op.matrix(zf) = Q N_pair with Q Q^H = I_7 and Q b_f = 0, for b_f and
    N_pair rebuilt from the conservation laws as the module docstring
    defines them."""
    up = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=B)
    sh = rankine_hugoniot(gas, up, family="fast", mach=2.0, d=3)
    vl, vr = sh.left.as_array(), sh.right.as_array()
    b_row = 4 + 3  # normal induction component for d = 3, tangential axes 1, 2

    def jump(f):
        return f(vr) - f(vl)

    b_f = ((zf.gamma_L + 1j * zf.tau) * jump(lambda v: conserved_vector(v, gas))
           + 1j * zf.eta[0] * jump(lambda v: flux_vector(v, gas, 1))
           + 1j * zf.eta[1] * jump(lambda v: flux_vector(v, gas, 2)))
    b_f[b_row] = 1j * (zf.eta[0] * (vr[5] - vl[5]) + zf.eta[1] * (vr[6] - vl[6]))
    N_r, N_l = flux_jacobian(vr, gas, 3), flux_jacobian(vl, gas, 3)
    N_r[b_row] = N_l[b_row] = np.eye(8)[b_row]
    N_pair = np.hstack([N_r, -N_l])

    M = shock_boundary_operator(sh).matrix(zf)
    Q = M @ np.linalg.pinv(N_pair)  # N_pair has full row rank 8
    assert_allclose(Q @ N_pair, M, atol=1e-12)
    assert_allclose(Q @ Q.conj().T, np.eye(7), atol=1e-12)
    assert_allclose(Q @ b_f / np.linalg.norm(b_f), np.zeros(7), atol=1e-12)


def test_shock_scan_bookkeeping_and_positive_floor(gas):
    up = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0, 0, 0])
    sh = rankine_hugoniot(gas, up, family="fast", mach=2.0, d=3)
    grid = HemisphereGrid(n_phi=4, n_sphere=60, equator_refine=2)
    res = shock_scan(sh, grid)
    assert not res.failures
    # fast Lax shock: 7 incoming + 9-dimensional kernel = 16
    assert res.expected_dim == 7
    assert {row[5] for row in res.rows} == {7}
    assert res.min_abs_D > 0.0
    assert res.min_abs_D <= res.sweep_min_abs_D


def test_shock_scan_rejects_characteristic_front(gas):
    up = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0.3, 0, 0])
    sh = rankine_hugoniot(gas, up, family="fast", mach=1.0, d=3)
    with pytest.raises(CharacteristicBoundary):
        shock_scan(sh, HemisphereGrid(n_phi=2, n_sphere=8, equator_refine=1))


def test_every_lax_shock_builds_its_scan_problem(gas):
    # rankine_hugoniot's noncharacteristic flag is the test the scan's sides
    # apply, so every shock it returns builds at the default tol_det, with
    # the dimensions of its Lax pattern: the downstream side's dim E_minus
    # counts its positive speeds, 8 - pattern[1], and the reflected upstream
    # side's its negative ones, 8 - pattern[0].  The fast shocks are drawn
    # far from the unit scale; the slow shock is the one of the probed slow
    # cases that builds (see test_slow_shock_builds_and_scans_as_the_oracle).
    rng = np.random.default_rng(29)
    shocks = []
    for _ in range(420):
        rho, theta = 10.0 ** rng.uniform(-1.5, 1.5, 2)
        up = ThermoState(rho=rho, u=rng.uniform(-3.0, 3.0, 3), theta=theta,
                         B=rng.uniform(-2.0, 2.0, 3))
        try:
            shocks.append(rankine_hugoniot(gas, up, family="fast", mach=rng.uniform(1.2, 4.0),
                                           d=int(rng.integers(1, 4))))
        except NoAdmissibleShock:
            pass
    up = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0.2, 0.0, 1.5])
    shocks.append(rankine_hugoniot(gas, up, family="slow", mach=1.1, d=3))
    assert len(shocks) >= 400
    for sh in shocks:
        assert sh.lax_valid and sh.noncharacteristic
        up_positive, down_negative = _LAX_PATTERNS[sh.lax_family]
        dims = [side.dim for side in _shock_problem(sh, 1e-10).sides]
        assert dims == [8 - down_negative, 8 - up_positive], sh.to_dict()
        d = sh.axis
        assert dims == [n_positive(sh.right, gas, d), 8 - n_positive(sh.left, gas, d)]


def _mixed_grid(n, seed):
    """n unit frequencies, every third on the gamma_L = 0 equator."""
    rng = np.random.default_rng(seed)
    points = []
    for i in range(n):
        v = rng.standard_normal(4)
        v[1] = 0.0 if i % 3 == 0 else abs(v[1])
        v /= np.linalg.norm(v)
        points.append(BoundaryFrequency(v[0], v[1], v[2:]))
    return ExplicitGrid(points)


def _direct_sum_E(problem, zf):
    """E_minus of the direct sum of a problem's sides, on the Schur path."""
    return stable_subspace(scipy.linalg.block_diag(*[side.G(zf) for side in problem.sides]),
                           zf.gamma_L,
                           a_d_inv=scipy.linalg.block_diag(*[s.a_d_inv for s in problem.sides]))


def _reference_abs_D(gas, sides, d, operator, zf):
    """|D| by lopatinski_det on the block-diagonal assemble_G path; sides
    are (state, sign) pairs in trace order."""
    G = scipy.linalg.block_diag(
        *[sign * assemble_G(st, gas, d, zf) for st, sign in sides])
    a_d_inv = scipy.linalg.block_diag(
        *[sign * np.linalg.inv(boundary_matrix(st, gas, d)[0]) for st, sign in sides])
    E = stable_subspace(G, zf.gamma_L, a_d_inv=a_d_inv)
    return lopatinski_det(E, operator, zf).abs_D


def test_scan_rows_match_reference_path(gas):
    grid = _mixed_grid(30, 61)
    st = SUBSONIC_STATE
    A_d, _ = boundary_matrix(st, gas, 3)
    zf0 = BoundaryFrequency(0.3, 0.5, [0.4, -0.1]).normalized()
    E0 = stable_subspace(assemble_G(st, gas, 3, zf0), zf0.gamma_L,
                         a_d_inv=np.linalg.inv(A_d))
    M = BoundaryOperator.from_matrix(E0.conj().T)
    cases = [(uniform_scan(st, gas, 3, M, grid, polish_rounds=0), [(st, 1.0)], M)]
    for B in ([0.0, 0.0, 0.0], [0.2, -0.1, 0.3]):
        up = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=B)
        sh = rankine_hugoniot(gas, up, family="fast", mach=2.0, d=3)
        cases.append((shock_scan(sh, grid, polish_rounds=0),
                      [(sh.right, 1.0), (sh.left, -1.0)], shock_boundary_operator(sh)))
    for res, sides, op in cases:
        assert not res.failures
        assert len(res.rows) == grid.n_points
        for row, zf in zip(res.rows, grid.points()):
            assert abs(row[4] - _reference_abs_D(gas, sides, 3, op, zf)) <= 1e-12


def test_scan_flags_unsigned_upstream_continuation(gas):
    # Shifting the upstream block along the unsigned A_d^{-1} at gamma_L = 0
    # takes its splitting from gamma_L < 0; the dimension check must turn
    # that into per-point failures, not a wrong |D|.  The upstream side keeps
    # its G but continues along -A_d^{-1}; without the symmetrizer bound and
    # the closed-form roots (both of the signed side) every row takes the
    # per-point path, which is exact at the interior rows, where no row
    # shifts.
    up = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0.01, 0, 0])
    sh = rankine_hugoniot(gas, up, family="fast", mach=2.0, d=3)
    grid = _mixed_grid(30, 62)
    good = _scan(_shock_problem(sh, 1e-10), grid, 1e-6, polish_rounds=0)
    problem = _shock_problem(sh, 1e-10)
    right, left = problem.sides
    unsigned = copy.copy(left)
    unsigned.G, unsigned.a_d_inv = left.G, -left.a_d_inv
    unsigned.damping, unsigned.closed_form = 0.0, False
    problem.sides = (right, unsigned)
    bad = _scan(problem, grid, 1e-6, polish_rounds=0)
    equator = {i for i, zf in enumerate(grid.points()) if zf.gamma_L == 0.0}
    assert not good.failures
    assert {f["index"] for f in bad.failures} == equator
    assert {f["type"] for f in bad.failures} == {"SpectralSplitFailure"}
    reference = _shock_problem(sh, 1e-10)
    assert bad.rows == [(*row[:4], _point_abs_D(reference, _frequency(np.array(row[:4])), 1e-6),
                         row[5]) for row in good.rows if row[1] > 0.0]


def test_shock_scan_invariant_under_axis_relabelling(gas):
    # the same shock with its normal along x_1, x_2 or x_3: u and B keep
    # their (normal, t1, t2) components, so the rows agree (d = 2 is a
    # reflection of the tangential pair)
    u_ntt, B_ntt = (0.0, 0.1, 0.05), (0.1, 0.15, -0.08)
    grid = _mixed_grid(24, 63)
    values = []
    for d in (1, 2, 3):
        axes = [d] + [a for a in (1, 2, 3) if a != d]
        u, B = np.zeros(3), np.zeros(3)
        u[np.array(axes) - 1], B[np.array(axes) - 1] = u_ntt, B_ntt
        up = ThermoState(rho=1.0, u=u, theta=1.0, B=B)
        res = shock_scan(rankine_hugoniot(gas, up, family="fast", mach=1.7, d=d),
                         grid, polish_rounds=0)
        assert not res.failures
        values.append([row[4] for row in res.rows])
    assert_allclose(values[0], values[2], rtol=0, atol=1e-12)
    assert_allclose(values[1], values[2], rtol=0, atol=1e-12)


# ----------------------------------------------------------------------------
# small-field study (desk-scale grid; the full-scale run lives in acceptance)
# ----------------------------------------------------------------------------

def test_b_to_zero_study_small_grid(gas):
    spec = GasShockSpec(rho=1.0, theta=1.0, mach=2.0, axis=3,
                        b_direction=(1.0, 0.0, 0.0))
    grid = HemisphereGrid(n_phi=4, n_sphere=60, equator_refine=2)
    study = b_to_zero_study(gas, spec, [1e-1, 1e-2, 0.0], grid, polish_rounds=4)
    assert [r.B_mag for r in study.rows] == [1e-1, 1e-2, 0.0]
    assert all(r.min_abs_D > 0.0 for r in study.rows)
    assert all(r.n_failures == 0 for r in study.rows)
    zero_row = study.rows[-1]
    assert zero_row.deviation == 0.0
    assert_allclose(study.reference_min_abs_D, zero_row.min_abs_D)
    assert study.deviations_monotone


def test_scan_even_under_antipodal_map(gas):
    # (tau, eta) -> (-tau, -eta) sends G to -conj(G), hence E_minus and the
    # shock operator's front vector to their conjugates, so |D| is even for
    # the shock operator and for every real matrix operator (not for a
    # complex one); the equator points exercise the continuation
    grid = _mixed_grid(40, 64)
    antipodes = ExplicitGrid([BoundaryFrequency(-zf.tau, zf.gamma_L, -zf.eta)
                              for zf in grid.points()])
    up = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0.2, -0.1, 0.3])
    sh = rankine_hugoniot(gas, up, family="fast", mach=1.7, d=3)
    st = SUBSONIC_STATE
    M = np.random.default_rng(65).standard_normal((n_positive(st, gas, 3), 8))
    for scan in (lambda g: shock_scan(sh, g, polish_rounds=0),
                 lambda g: uniform_scan(st, gas, 3, M, g, polish_rounds=0)):
        res, anti = scan(grid), scan(antipodes)
        assert len(res.rows) == len(anti.rows) > 0
        assert_allclose([row[4:] for row in anti.rows],
                        [row[4:] for row in res.rows], rtol=0, atol=1e-12)
        assert ([f["index"] for f in anti.failures]
                == [f["index"] for f in res.failures])


def test_scan_invariant_under_rotation_about_the_normal(gas):
    # a rotation by pi about x_3 acts as Q = diag(-1, -1, 1) on u and B and as
    # R = diag(1, Q, 1, Q) on the trace; it maps the problem at (tau, gamma_L,
    # eta) onto the one at (tau, gamma_L, -eta), so scanning (U, M) on the
    # flipped points gives the rows of (QU, M R) on the original points, and
    # a shock from the rotated upstream state those of the original shock;
    # the equator points exercise the continuation
    grid = _mixed_grid(40, 77)
    flipped = ExplicitGrid([BoundaryFrequency(zf.tau, zf.gamma_L, -zf.eta)
                            for zf in grid.points()])
    Q = np.diag([-1.0, -1.0, 1.0])
    R = np.diag([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0])

    def rotated(st):
        return ThermoState(rho=st.rho, u=Q @ st.u, theta=st.theta, B=Q @ st.B)

    st = SUBSONIC_STATE
    M_re, M_im = np.random.default_rng(78).standard_normal((2, n_positive(st, gas, 3), 8))
    up = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0.2, -0.1, 0.3])
    pairs = [(uniform_scan(st, gas, 3, M, flipped, polish_rounds=0),
              uniform_scan(rotated(st), gas, 3, M @ R, grid, polish_rounds=0))
             for M in (M_re, M_re + 1j * M_im)]
    sh, sh_rot = (rankine_hugoniot(gas, u, family="fast", mach=1.7, d=3)
                  for u in (up, rotated(up)))
    pairs.append((shock_scan(sh, flipped, polish_rounds=0),
                  shock_scan(sh_rot, grid, polish_rounds=0)))
    for res, rot in pairs:
        assert len(res.rows) == len(rot.rows) > 0
        assert_allclose([row[4:] for row in rot.rows],
                        [row[4:] for row in res.rows], rtol=0, atol=1e-12)
        assert ([f["index"] for f in rot.failures]
                == [f["index"] for f in res.failures])


# ----------------------------------------------------------------------------
# batched scan engine against the per-point reference
# ----------------------------------------------------------------------------

def _oracle(gas, sides, d, operator, grid):
    """|D| rows and failures (index, type, message) of the per-point
    reference: stable_subspace + lopatinski_det at every point."""
    rows, failures = [], []
    for i, zf in enumerate(grid.points()):
        try:
            rows.append(_reference_abs_D(gas, sides, d, operator, zf))
        except MhdStabError as exc:
            failures.append((i, type(exc).__name__, str(exc)))
    return rows, failures


def _failure_list(res):
    return [(f["index"], f["type"], f["message"]) for f in res.failures]


def _count_fallbacks(monkeypatch):
    """Count the scan's per-point stable_subspace calls."""
    from mhdstab import lopatinski

    calls = []
    monkeypatch.setattr(lopatinski, "stable_subspace",
                        lambda *a, _f=lopatinski.stable_subspace, **k:
                        calls.append(a[1]) or _f(*a, **k))
    return calls


def test_batched_scan_matches_per_point_oracle(gas, monkeypatch):
    # longer than one chunk, every third point on the equator; the B = 0
    # shock has repeated eigenvalues, the callable operator depends on zeta
    grid = _mixed_grid(_CHUNK + 44, 70)
    cases = []
    for u, B, mach in (([0, 0, 0], [0, 0, 0], 2.0), ([0, 0.1, 0.05], [0.2, -0.1, 0.3], 1.7)):
        sh = rankine_hugoniot(gas, ThermoState(rho=1.0, u=u, theta=1.0, B=B),
                              family="fast", mach=mach, d=3)
        cases.append(([(sh.right, 1.0), (sh.left, -1.0)], _shock_problem(sh, 1e-10)))
    st = SUBSONIC_STATE
    M0, M1 = np.random.default_rng(66).standard_normal((2, n_positive(st, gas, 3), 8))
    callable_op = BoundaryOperator(lambda zf: M0 + 1j * zf.tau * M1, n=8, p=len(M0))
    for M in (M0, callable_op):
        cases.append(([(st, 1.0)], _one_sided_problem(st, gas, 3, M, 1e-10)))
    # inflow slower than the slow and Alfven speeds, and supersonic inflow:
    # dim E_minus 5 (three closed-form left vectors) and 8 (the definite-side
    # certificate)
    for inflow in (SLOW_INFLOW, SUPERSONIC_INFLOW):
        M = np.random.default_rng(67).standard_normal((n_positive(inflow, gas, 3), 8))
        cases.append(([(inflow, 1.0)], _one_sided_problem(inflow, gas, 3, M, 1e-10)))
    assert [problem.expected_dim for _, problem in cases[-2:]] == [5, 8]
    # outflow: dim E_minus 3, its unstable roots the entropy double, one
    # Alfven root and two magnetoacoustic roots; at B = 0, dim E_minus 1, its
    # unstable roots the sixfold tau_tilde = 0 and one acoustic root
    for outflow in (OUTFLOW, ThermoState(rho=1.0, u=[0.2, -0.1, -0.5], theta=1.0, B=[0, 0, 0])):
        M = np.random.default_rng(68).standard_normal((n_positive(outflow, gas, 3), 8))
        cases.append(([(outflow, 1.0)], _one_sided_problem(outflow, gas, 3, M, 1e-10)))
    assert [(side.dim, list(side.unstable_linear)) for _, problem in cases[-2:]
            for side in problem.sides] == [(3, [0, 1, 2]), (1, [0, 1, 2, 3, 4, 5])]
    for sides, problem in cases:
        fallbacks = _count_fallbacks(monkeypatch)
        res = _scan(problem, grid, 1e-6, polish_rounds=0)
        monkeypatch.undo()
        assert fallbacks == []  # every row took the batched path
        rows, failures = _oracle(gas, sides, 3, problem.operator, grid)
        assert _failure_list(res) == failures == []
        assert_allclose([row[4] for row in res.rows], rows, rtol=0, atol=1e-12)
        assert [row[:4] for row in res.rows] == [(zf.tau, zf.gamma_L, *zf.eta)
                                                 for zf in grid.points()]


def test_batched_scan_degenerate_front_fails_as_oracle(gas, monkeypatch):
    # the zero-strength front coefficient vanishes, so the operator raises
    # at every point: each row falls back and fails with the oracle's record
    up = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0.3, 0, 0])
    sh = rankine_hugoniot(gas, up, family="fast", mach=2.0, d=3)
    degenerate = shock_boundary_operator(
        rankine_hugoniot(gas, up, family="fast", mach=1.0, d=3))
    problem = _ScanProblem(_shock_problem(sh, 1e-10).sides, degenerate)
    grid = _mixed_grid(_CHUNK + 10, 71)
    fallbacks = _count_fallbacks(monkeypatch)
    res = _scan(problem, grid, 1e-6, polish_rounds=0)
    monkeypatch.undo()
    assert len(fallbacks) == 2 * grid.n_points  # both sides of every row
    _, failures = _oracle(gas, [(sh.right, 1.0), (sh.left, -1.0)], 3, degenerate, grid)
    assert not res.rows and res.min_abs_D is None
    assert len(failures) == grid.n_points
    assert _failure_list(res) == failures
    assert {f[1] for f in failures} == {"RankDeficiency"}


def test_scan_operator_of_wrong_rank_fails_every_row_on_the_oracle(gas):
    # a full-rank 6x8 operator against dim E_minus 7: no row can pass the
    # dimension check, so each row falls back and fails with the record of
    # lopatinski_det, and with no valid point there is nothing to polish
    st = SUBSONIC_STATE
    M = np.random.default_rng(79).standard_normal((6, 8))
    grid = HemisphereGrid(1, 10, 1)
    res = uniform_scan(st, gas, 3, M, grid, polish_rounds=2)
    assert res.expected_dim == n_positive(st, gas, 3) == 7
    assert not res.rows and res.min_abs_D is None
    assert [f["index"] for f in res.failures] == list(range(grid.n_points))
    assert {(f["type"], f["message"]) for f in res.failures} == {
        ("DimensionMismatch", "dim E_minus (7) + dim ker M (2) != 8")}
    assert res.n_fallback == grid.n_points == 20
    assert res.polish == {"rounds": 0}


def test_polish_takes_first_strict_minimum_in_lattice_order():
    # two points of round 0's lattice tie below the start value: the first
    # in lattice order wins; a failed point is reported with its round
    seen = []

    def evaluate(P):
        seen.append(P)
        values = np.ones(len(P))
        errors = {}
        if len(seen) == 1:
            values[[9, 40]] = 0.25
            values[3] = np.nan
            errors[3] = RankDeficiency("probe")
        return values, errors

    zf0 = BoundaryFrequency(0.6, 0.0, [0.0, 0.8])
    failures = []
    best, best_zf, n_eval = _polish_min(evaluate, zf0, 0.5, 3, 0.1, failures)
    assert n_eval == 3 * 124 and [len(P) for P in seen] == [124] * 3
    assert best == 0.25
    assert best_zf.to_dict() == BoundaryFrequency(*seen[0][9, :2], seen[0][9, 2:]).to_dict()
    # the next lattice is centered on the winner, at 0.35 times the radius
    assert np.linalg.norm(seen[1] - seen[0][9], axis=1).max() <= 2 * 0.035
    assert failures == [{"stage": "polish", "round": 0,
                         "zeta": BoundaryFrequency(*seen[0][3, :2], seen[0][3, 2:]).to_dict(),
                         "type": "RankDeficiency", "message": "probe"}]


@pytest.mark.parametrize("family, B, mach, zf", [
    ("fast", [0.05, 0.0, 0.0], 2.0, BoundaryFrequency(0.3, 0.4, [0.2, 0.1]).normalized()),
    ("fast", [0.2, -0.1, 0.3], 2.0, BoundaryFrequency(0.6, 0.0, [0.64, -0.48])),  # gamma_L = 0
    ("fast", [0.0, 0.0, 0.0], 2.0, BoundaryFrequency(0.0, 0.0, [0.6, 0.8])),  # b_f_0 = 0
    ("slow", [0.2, 0.0, 1.5], 1.1, BoundaryFrequency(0.3, 0.4, [0.2, 0.1]).normalized()),
], ids=["interior", "equator", "zero-mass-component", "slow-shock"])
def test_majda_kernel_basis_spans_ker_M_and_gives_abs_D(gas, family, B, mach, zf):
    """The scan's basis K of ker M (Majda's, as the pair of its constant
    block and its last column, its upstream rows [I_8 0] left implicit)
    spans ker op.matrix(zf) with its scale sqrt(det(K^H K)), and
    |det(W^H K)| / scale, W an orthonormal basis of the complement of the
    Schur E_minus, is the |D| of lopatinski_det."""
    up = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=B)
    sh = rankine_hugoniot(gas, up, family=family, mach=mach, d=3)
    op = shock_boundary_operator(sh)
    (X, (k,)), (scale,), (ok,) = _scan_kernel(op)(np.array([[zf.tau, zf.gamma_L, *zf.eta]]))
    assert ok
    K = np.vstack([np.hstack([X, k]), np.eye(8, 9)])
    M = op.matrix(zf)
    assert np.linalg.norm(M @ K) <= 1e-12 * np.linalg.norm(M) * np.linalg.norm(K)
    assert np.linalg.matrix_rank(K) == 9
    assert_allclose(scale, np.sqrt(abs(np.linalg.det(K.conj().T @ K))), rtol=1e-10)
    E = _direct_sum_E(_shock_problem(sh, 1e-10), zf)
    W = np.linalg.qr(E, mode="complete")[0][:, E.shape[1]:]
    assert_allclose(abs(np.linalg.det(W.conj().T @ K)) / scale,
                    lopatinski_det(E, op, zf).abs_D, rtol=0, atol=1e-14)


def test_downstream_flux_jacobian_invertible_off_characteristic(gas):
    # with its normal-induction row replaced as in the shock operator, det N
    # = det(dq/dv) det A_d / u_d, det(dq/dv) = rho^4 e_theta > 0: N_r is
    # invertible wherever A_d is, so Majda's basis needs no other route;
    # checked to rounding in units of cond(A_d)
    rng = np.random.default_rng(88)
    for _ in range(300):
        st = random_state(rng)
        v = st.as_array()
        dq = conserved_jacobian(v, gas)
        e_theta = eval_eos(gas, st.rho, st.theta).e_theta
        assert_allclose(np.linalg.det(dq), st.rho**4 * e_theta, rtol=1e-13)
        for d in (1, 2, 3):
            N = flux_jacobian(v, gas, d)
            N[4 + d] = np.eye(8)[4 + d]
            A_d = assemble_full_symbol(st, gas, unit_vector(d))
            want = np.linalg.det(dq) * np.linalg.det(A_d) / st.u[d - 1]
            assert abs(np.linalg.det(N) - want) <= 1e-13 * np.linalg.cond(A_d) * abs(want)


def test_fast_shock_and_constant_operator_scans_take_no_stacked_det_or_svd(gas, monkeypatch):
    # |D| is |w^H N_r^{-1} b_f| / (g0 |k_perp|) on a fast shock and |w^H k| for
    # a constant operator on a dimension-7 side: no determinant or SVD of a
    # stack; a slow shock (sides of dimensions 5 and 2) takes the 9x9 det
    calls = {"det": 0, "svd": 0}
    for name in calls:
        def counted(a, *args, _f=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += np.ndim(a) > 2
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    grid = HemisphereGrid(2, 40, 2)
    sh = rankine_hugoniot(gas, ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0.01, 0, 0]),
                          family="fast", mach=2.0, d=3)
    zf0 = BoundaryFrequency(0.3, 0.5, [0.4, -0.1]).normalized()
    E0 = stable_subspace(assemble_G(SUBSONIC_STATE, gas, 3, zf0), zf0.gamma_L)
    for res in (shock_scan(sh, grid, polish_rounds=2),
                uniform_scan(SUBSONIC_STATE, gas, 3, E0.conj().T, grid, polish_rounds=2)):
        assert not res.failures and res.n_fallback == 0
    assert calls == {"det": 0, "svd": 0}
    slow = rankine_hugoniot(gas, ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0.2, 0, 1.5]),
                            family="slow", mach=1.1, d=3)
    assert shock_scan(slow, grid, polish_rounds=0).n_fallback == 0
    assert calls["det"] > 0 and calls["svd"] == 0


def test_batched_scan_falls_back_on_defective_eigenvalue(gas, monkeypatch):
    # a 2x2 Jordan block inside a 3-dimensional E_minus, put on the outflow
    # side (dimension 3) in place of its G, with A_d^{-1} = I so that the
    # continuation shift keeps the invariant subspaces: the side does not
    # take the closed form, so every row takes the per-point Schur path
    rng = np.random.default_rng(73)
    S = rng.standard_normal((8, 8))
    J = np.diag([-1j, -1j, -2j, 1j, 2j, 3j, 4j, 5j])
    J[0, 1] = 1.0
    G0 = S @ J @ np.linalg.inv(S)
    side = _Side(OUTFLOW, gas, 3, 1e-10)
    assert side.dim == 3 and len(side.unstable_linear) > 0
    side.G = lambda zf: G0 if isinstance(zf, BoundaryFrequency) else np.repeat(
        G0[None], len(zf), axis=0)
    side.a_d_inv, side.closed_form = np.eye(8), False
    M = BoundaryOperator.from_matrix(rng.standard_normal((3, 8)))
    grid = _mixed_grid(20, 74)
    fallbacks = _count_fallbacks(monkeypatch)
    res = _scan(_ScanProblem((side,), M), grid, 1e-6, polish_rounds=0)
    monkeypatch.undo()
    assert len(fallbacks) == res.n_fallback == grid.n_points and not res.failures
    # shifting G by a multiple of I at the equator keeps its invariant subspaces
    want = lopatinski_det(stable_subspace(G0, 1.0), M).abs_D
    assert_allclose([row[4] for row in res.rows], want, rtol=0, atol=1e-12)


def test_ambiguous_split_is_per_point_failure_data(gas, monkeypatch):
    # a real eigenvalue in the stand-in G of the outflow side (dimension 3),
    # with A_d^{-1} = I: at gamma_L > 1e-8 its |Im mu| is at rounding level,
    # so the per-point Schur split raises SpectralSplitFailure, which the
    # scan records for that row alone; on the equator the continuation
    # shift -i eps_cont I moves it to Im mu < 0 and the row evaluates
    rng = np.random.default_rng(76)
    S = rng.standard_normal((8, 8))
    G0 = S @ np.diag([0.5, -1j, -2j, 1j, 2j, 3j, 4j, 5j]) @ np.linalg.inv(S)
    side = _Side(OUTFLOW, gas, 3, 1e-10)
    assert side.dim == 3
    side.G = lambda zf: G0 if isinstance(zf, BoundaryFrequency) else np.repeat(
        G0[None], len(zf), axis=0)
    side.a_d_inv, side.closed_form = np.eye(8), False
    M = BoundaryOperator.from_matrix(rng.standard_normal((3, 8)))
    grid = _mixed_grid(30, 77)
    fallbacks = _count_fallbacks(monkeypatch)
    res = _scan(_ScanProblem((side,), M), grid, 1e-6, polish_rounds=0)
    monkeypatch.undo()
    P = grid._rows()
    cont = P[:, 1] <= 1e-8
    assert 0 < np.count_nonzero(cont) < len(P)
    assert len(fallbacks) == res.n_fallback == grid.n_points
    assert [f["index"] for f in res.failures] == np.flatnonzero(~cont).tolist()
    assert {f["type"] for f in res.failures} == {"SpectralSplitFailure"}
    assert [row[:4] for row in res.rows] == [tuple(row) for row in P[cont].tolist()]
    want = lopatinski_det(stable_subspace(G0, 0.0, a_d_inv=np.eye(8)), M).abs_D
    assert_allclose([row[4] for row in res.rows], want, rtol=0, atol=1e-12)


def _count_stacked_eig_rows(monkeypatch):
    """Rows passed in stacks to np.linalg.eig, np.linalg.eigvals and the
    closed-form root helper `_Side.roots`, and the rows it did not trust."""
    rows = {"eig": 0, "eigvals": 0, "roots": 0, "untrusted": 0}
    for name in ("eig", "eigvals"):
        def counted(a, _f=getattr(np.linalg, name), _name=name):
            if np.ndim(a) == 3:
                rows[_name] += len(a)
            return _f(a)
        monkeypatch.setattr(np.linalg, name, counted)

    def roots(self, P, gamma, _f=_Side.roots):
        mu, ok = _f(self, P, gamma)
        rows["roots"] += len(P)
        rows["untrusted"] += int(np.count_nonzero(~ok))
        return mu, ok
    monkeypatch.setattr(_Side, "roots", roots)
    return rows


def test_batched_scan_certifies_definite_side_and_skips_eig(gas, monkeypatch):
    # the fast shock's upstream side has dimension 0 and a negative definite
    # A_d^{-1}: every eigenvalue of its G has Im mu > 0 with |Im mu| >= gamma
    # min |lambda(A_d^{-1})| (gamma = eps_cont on the equator), so only a row
    # whose bound is below twice the gap 1e-8 gets its eigenvalues; the
    # downstream side (dimension 7) takes them at every row; all of them come
    # from the closed-form roots, none from an 8x8 eigvals or eig
    grid = _mixed_grid(_CHUNK + 44, 75)
    for u, B, mach in (([0, 0, 0], [0, 0, 0], 2.0), ([0, 0.1, 0.05], [0.2, -0.1, 0.3], 1.7)):
        sh = rankine_hugoniot(gas, ThermoState(rho=1.0, u=u, theta=1.0, B=B),
                              family="fast", mach=mach, d=3)
        problem = _shock_problem(sh, 1e-10)
        assert [side.dim for side in problem.sides] == [7, 0]
        lam = np.abs(np.linalg.eigvals(problem.sides[1].a_d_inv)).min()
        margin = [BoundaryFrequency(0.6, bound / lam, [0.8, 0.0]) for bound in (1.5e-8, 2.5e-8)]
        points = ExplicitGrid(grid.points() + margin)
        rows = _count_stacked_eig_rows(monkeypatch)
        res = _scan(problem, points, 1e-6, polish_rounds=0)
        monkeypatch.undo()
        assert rows == {"eig": 0, "eigvals": 0, "roots": points.n_points + 1, "untrusted": 0}
        assert not res.failures and len(res.rows) == points.n_points
        # the bound itself, on the shifted G of every row
        P = points._rows()
        gamma = np.where(P[:, 1] <= 1e-8, 1e-6, P[:, 1])
        G = problem.sides[1].G(P) - (1j * (gamma - P[:, 1]))[:, None, None] * problem.sides[1].a_d_inv
        assert np.all(np.linalg.eigvals(G).imag >= (1.0 - 1e-9) * gamma[:, None] * lam)


def test_batched_scan_survives_exactly_singular_inverse_iteration(gas):
    # at this row of the B = 0 Mach-2 shock the LU of G^H - conj(mu+) for the
    # downstream side came out exactly singular when the left eigenvector
    # was found by inverse iteration, although mu+ is 1.73 away from the
    # other roots; the closed-form left vector must hold there too, alone and
    # in a stack longer than a chunk
    sh = rankine_hugoniot(gas, ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0, 0, 0]),
                          family="fast", mach=2.0, d=3)
    problem = _shock_problem(sh, 1e-10)
    zf = BoundaryFrequency(-0.1502804529822391, 0.9723699203976766,
                           [-0.12597538793416418, -0.12665987917294855])
    points = _mixed_grid(299, 76).points()
    grid = ExplicitGrid(points[:150] + [zf] + points[150:])
    want, failures = _oracle(gas, [(sh.right, 1.0), (sh.left, -1.0)], 3, problem.operator, grid)
    assert failures == []
    abs_D, errors, n_fallback = _evaluate(problem, _scan_kernel(problem.operator),
                                          grid._rows(), 1e-6)
    assert errors == {} and n_fallback <= 1
    assert_allclose(abs_D, want, rtol=0, atol=1e-12)
    res = _scan(problem, ExplicitGrid([zf]), 1e-6, polish_rounds=0)
    assert not res.failures and res.n_fallback <= 1
    assert abs(res.rows[0][4] - want[150]) <= 1e-12


def test_scan_reports_fallback_rows_of_sweep_and_polish(gas, monkeypatch):
    # with a left vector that fails its residual test, every sweep and polish
    # row of a fast-shock scan takes the per-point path and is counted, with
    # the same |D|
    from mhdstab import lopatinski

    sh = rankine_hugoniot(gas, ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0.01, 0, 0]),
                          family="fast", mach=2.0, d=3)
    grid = HemisphereGrid(n_phi=1, n_sphere=8, equator_refine=1)
    fast = shock_scan(sh, grid, polish_rounds=1)
    monkeypatch.setattr(lopatinski._Side, "left_vector",
                        lambda self, P, gamma, mu, col: np.full((len(P), 8), 8.0 ** -0.5))
    slow = shock_scan(sh, grid, polish_rounds=1)
    assert fast.n_fallback == 0
    assert slow.n_fallback == grid.n_points + 124 == 140
    assert slow.summary()["diagnostics"] == {"n_fallback": 140}
    assert_allclose([row[4] for row in slow.rows], [row[4] for row in fast.rows],
                    rtol=0, atol=1e-12)
    assert abs(slow.min_abs_D - fast.min_abs_D) <= 1e-12


def test_slow_shock_builds_and_scans_as_the_oracle(gas, monkeypatch):
    # the one slow shock of 35 probed (B, mach) cases that builds; its sides
    # have dimensions 5 and 2, so both complements' rows share one 16x16
    # determinant, each under its own side's columns
    up = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0.2, 0.0, 1.5])
    sh = rankine_hugoniot(gas, up, family="slow", mach=1.1, d=3)
    assert sh.lax_valid and sh.noncharacteristic
    assert (n_positive(sh.left, gas, 3), 8 - n_positive(sh.right, gas, 3)) == (6, 3)
    assert sh.residual <= 1e-10 and np.abs(sh.jump_residual()).max() <= 1e-10
    problem = _shock_problem(sh, 1e-10)
    assert [side.dim for side in problem.sides] == [5, 2]
    grid = _mixed_grid(90, 86)
    fallbacks = _count_fallbacks(monkeypatch)
    res = _scan(problem, grid, 1e-6, polish_rounds=0)
    monkeypatch.undo()
    assert fallbacks == [] and res.n_fallback == 0
    rows, failures = _oracle(gas, [(sh.right, 1.0), (sh.left, -1.0)], 3, problem.operator, grid)
    assert _failure_list(res) == failures == []
    assert_allclose([row[4] for row in res.rows], rows, rtol=0, atol=1e-12)


@pytest.mark.parametrize("tamper", ["moved", "repeated"])
def test_batched_scan_certifies_every_left_vector(gas, monkeypatch, tamper):
    # the slow inflow has two unstable quartic roots: moving the top one by
    # 1e-6 relative must fail its vector's residual test, copying it over the
    # other makes the two vectors parallel and must fail the r_ii test; either
    # way every row takes the per-point path, with the oracle's |D|
    M = np.random.default_rng(87).standard_normal((n_positive(SLOW_INFLOW, gas, 3), 8))
    grid = HemisphereGrid(1, 30, 1)
    assert uniform_scan(SLOW_INFLOW, gas, 3, M, grid, polish_rounds=0).n_fallback == 0

    def roots(self, P, gamma, _f=_Side.roots):
        mu, ok = _f(self, P, gamma)
        i = np.arange(len(P))
        order = 4 + np.argsort(-mu[:, 4:].imag, axis=1)
        assert np.all(mu[i, order[:, 1]].imag > 0.0)
        if tamper == "moved":
            mu[i, order[:, 0]] *= 1.0 + 1e-6
        else:
            mu[i, order[:, 1]] = mu[i, order[:, 0]]
        return mu, ok
    monkeypatch.setattr(_Side, "roots", roots)
    res = uniform_scan(SLOW_INFLOW, gas, 3, M, grid, polish_rounds=0)
    monkeypatch.undo()
    assert res.n_fallback == grid.n_points == 60
    rows, failures = _oracle(gas, [(SLOW_INFLOW, 1.0)], 3, BoundaryOperator.from_matrix(M), grid)
    assert _failure_list(res) == failures == []
    assert_allclose([row[4] for row in res.rows], rows, rtol=0, atol=1e-12)


# ----------------------------------------------------------------------------
# closed-form side roots against the 8x8 eigenproblem
# ----------------------------------------------------------------------------

def _matched_error(mu, ref):
    """Per row, the largest distance between the roots mu and ref paired by
    an optimal assignment, in units of max(1, |ref|)."""
    from scipy.optimize import linear_sum_assignment

    err = np.empty(len(mu))
    for i, (a, b) in enumerate(zip(mu, ref)):
        cost = np.abs(a[:, None] - b[None, :]) / np.maximum(1.0, np.abs(b))
        err[i] = cost[linear_sum_assignment(cost)].max()
    return err


def _closed_form_cases(gas):
    """The interior rows of the bench grid and its equator rows shifted to
    gamma = eps_cont, as the scan's continuation takes them, as (P, gamma),
    and the sides of the Mach-2 shock (its downstream side of dimension 7
    and its reflected, s = -1, upstream side) as |B| -> 0, of an oblique
    shock, a subsonic inflow of dimension 7, the slow inflow (dimension 5),
    an outflow of dimension 3 and outflows of dimension 1 at B = 0, whose
    unstable root tau_tilde = 0 is sixfold, and at |B| = 0.01 and 1e-4,
    whose unstable entropy and Alfven roots crowd the slow pair."""
    P = HemisphereGrid(2, 40, 2)._rows()
    equator = P[:, 1] == 0.0
    P = np.concatenate([P[~equator], P[equator]])
    gamma = np.where(np.arange(len(P)) < np.count_nonzero(~equator), P[:, 1], 1e-6)
    sides = []
    for b in (0.1, 0.01, 0.001, 0.0):
        sh = rankine_hugoniot(gas, ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[b, 0, 0]),
                              family="fast", mach=2.0, d=3)
        sides += _shock_problem(sh, 1e-10).sides
    sh = rankine_hugoniot(gas, ThermoState(rho=1.0, u=[0, 0.1, 0.05], theta=1.0,
                                           B=[0.2, -0.1, 0.3]), family="fast", mach=1.7, d=3)
    sides += _shock_problem(sh, 1e-10).sides
    sides += [_Side(st, gas, 3, 1e-10) for st in (
        SUBSONIC_STATE, SLOW_INFLOW, OUTFLOW,
        *(ThermoState(rho=1.0, u=OUTFLOW.u, theta=1.0, B=[b, 0, 0]) for b in (0.0, 0.01, 1e-4)))]
    assert [(side.dim, side.sign) for side in sides] == (
        [(7, 1.0), (0, -1.0)] * 5 + [(7, 1.0), (5, 1.0), (3, 1.0)] + [(1, 1.0)] * 3)
    return P, gamma, sides


def test_closed_form_roots_match_batched_eigvals(gas):
    P, gamma, sides = _closed_form_cases(gas)
    for side in sides:
        assert side.closed_form
        mu, ok = side.roots(P, gamma)
        ref = np.linalg.eigvals(side.G(np.column_stack([P[:, 0], gamma, P[:, 2:]])))
        # on the |B| = 1e-4 outflow the last Newton step does not vouch for
        # the slow pair crowding the entropy double on 3 of the 240 rows
        assert np.count_nonzero(ok) >= (0.98 if side is sides[-1] else 0.99) * len(P)
        assert _matched_error(mu[ok], ref[ok]).max() <= 1e-12
        counts = np.count_nonzero(mu[ok].imag < 0.0, axis=1)
        assert np.array_equal(counts, np.count_nonzero(ref[ok].imag < 0.0, axis=1))
        assert np.all(counts == side.dim)


def test_closed_form_left_vector_matches_eig_left(gas):
    # on every side of dimension 1 to 7 and every row of the roots test whose
    # roots are trusted, the closed-form left eigenvector at each root with
    # Im mu > 0 passes the scan's residual test, and together they span the
    # orthogonal complement of the Schur reference's E_minus (not compared
    # one by one: at small |B| the entropy, Alfven and slow roots lie within
    # 3e-12 of one another).  On a side without an unstable linear root the
    # magnetoacoustic vector also holds at the rows whose closed-form roots
    # are not trusted, which the scan sends per point: at the top roots of
    # the 8x8 eigvals, all magnetoacoustic, the vectors pass the residual
    # test (a dimension-7 inflow at tangential |B| = 1e-5 has such rows)
    P, gamma, sides = _closed_form_cases(gas)
    sides.append(_Side(ThermoState(rho=1.0, u=[0.2, -0.1, 0.9], theta=1.0, B=[1e-5, 0, 0]),
                       gas, 3, 1e-10))
    n_untrusted = 0
    for side in sides:
        if side.dim in (0, 8):
            continue
        G = side.G(np.column_stack([P[:, 0], gamma, P[:, 2:]]))
        mu, ok = side.roots(P, gamma)
        unstable = mu.imag > 0.0
        assert np.all(np.count_nonzero(unstable[ok], axis=1) == 8 - side.dim)
        checked = ok.copy()
        if len(side.unstable_linear) == 0:
            checked[:] = True
            lam = np.linalg.eigvals(G[~ok])
            mu[~ok] = np.take_along_axis(lam, np.argsort(lam.imag, axis=1), axis=1)
            unstable[~ok] = np.arange(8) >= side.dim
            n_untrusted += np.count_nonzero(~ok)
        W = np.zeros((len(P), 8, 8), dtype=complex)
        for col in range(8):
            w = np.where(ok[:, None], side.left_vector(P, gamma, mu[:, col], col),
                         side.left_vector(P, gamma, mu[:, col], side.n_linear))
            rows = checked & unstable[:, col]
            residual = np.linalg.norm((G.conj().transpose(0, 2, 1) @ w[..., None])[..., 0]
                                      - mu[:, col].conj()[:, None] * w, axis=1)
            assert np.all(residual[rows] <= 5e-14 * np.linalg.norm(G[rows], axis=(1, 2)))
            W[rows, :, col] = w[rows]
        for G_i, gamma_i, W_i, unstable_i in zip(G[ok], gamma[ok], W[ok], unstable[ok]):
            Q = np.linalg.qr(W_i[:, unstable_i])[0]
            E = stable_subspace(G_i, gamma_i)
            assert np.linalg.norm(Q.conj().T @ E, 2) <= 1e-12
    assert n_untrusted > 0


def test_degenerate_dispersion_structures_take_a_trusted_path(gas, monkeypatch):
    # B = 0: the quartic has a double root and takes its exact factors; a
    # tangential |B| = 1e-5: the double root has split by about |B|, and on
    # some rows Ferrari and two Newton steps do not vouch for the slow
    # roots; B along the normal: xi.b has no eta term, and at eta = 0 the
    # Alfven pair also solves the quartic; an inflow 0.1% below the fast
    # speed: the quartic's leading coefficient cancels, so the side does
    # not take the closed form.  Every row the closed form does not vouch
    # for, and every row of that side, takes the per-point path, no row
    # takes an 8x8 eigvals, and |D| matches the oracle.
    c_f = wave_speeds(SUBSONIC_STATE, gas, [0.0, 0.0, 1.0]).c_f
    states = {
        "B = 0": ThermoState(rho=1.0, u=[0.2, -0.1, 0.9], theta=1.0, B=[0, 0, 0]),
        "B -> 0": ThermoState(rho=1.0, u=[0.2, -0.1, 0.9], theta=1.0, B=[1e-5, 0, 0]),
        "B normal": ThermoState(rho=1.0, u=[0.2, -0.1, 0.9], theta=1.0, B=[0, 0, 0.3]),
        "near characteristic": ThermoState(rho=1.0, u=[0.2, -0.1, (1.0 - 1e-3) * c_f],
                                           theta=1.0, B=[0.3, 0.1, 0.2]),
    }
    grid = ExplicitGrid(_mixed_grid(60, 82).points()
                        + [BoundaryFrequency(0.6, 0.8, [0.0, 0.0]),
                           BoundaryFrequency(1.0, 0.0, [0.0, 0.0])])
    for name, st in states.items():
        M = np.random.default_rng(83).standard_normal((n_positive(st, gas, 3), 8))
        problem = _one_sided_problem(st, gas, 3, M, 1e-10)
        (side,) = problem.sides
        assert side.dim == 7
        assert side.closed_form == (name != "near characteristic")
        rows = _count_stacked_eig_rows(monkeypatch)
        fallbacks = _count_fallbacks(monkeypatch)
        res = _scan(problem, grid, 1e-6, polish_rounds=0)
        monkeypatch.undo()
        assert rows["eig"] == 0
        assert rows["eigvals"] == 0
        assert res.n_fallback == (rows["untrusted"] if side.closed_form else grid.n_points)
        assert (rows["untrusted"] > 0) == (name == "B -> 0")
        assert len(fallbacks) == res.n_fallback
        want, failures = _oracle(gas, [(st, 1.0)], 3, problem.operator, grid)
        assert _failure_list(res) == failures == []
        assert_allclose([row[4] for row in res.rows], want, rtol=0, atol=1e-12)


def test_batched_scan_retries_an_exactly_singular_moved_shift(gas):
    # at this row of the B = 0 Mach-2 shock the closed-form mu+ of the
    # downstream side is exact enough that the LU of G^H - conj(mu+), with the
    # shift moved by one rounding unit, came out exactly singular when the
    # left eigenvector was found by inverse iteration; the closed-form left
    # vector keeps the row on the batched path, in a stack longer than a
    # chunk as well
    sh = rankine_hugoniot(gas, ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0, 0, 0]),
                          family="fast", mach=2.0, d=3)
    problem = _shock_problem(sh, 1e-10)
    zf = BoundaryFrequency(-0.8620488121522458, 0.4539904997395468,
                           [-0.17710244342382164, -0.13928099707587688])
    points = _mixed_grid(299, 84).points()
    grid = ExplicitGrid(points[:150] + [zf] + points[150:])
    want, failures = _oracle(gas, [(sh.right, 1.0), (sh.left, -1.0)], 3, problem.operator, grid)
    assert failures == []
    abs_D, errors, n_fallback = _evaluate(problem, _scan_kernel(problem.operator),
                                          grid._rows(), 1e-6)
    assert errors == {} and n_fallback == 0
    assert_allclose(abs_D, want, rtol=0, atol=1e-12)


# ----------------------------------------------------------------------------
# the left-vector certificate without the stacked G
# ----------------------------------------------------------------------------

def test_certificate_matches_the_explicit_G(gas):
    # w^H G from three products with s A_d^{-1}, a_t1 and a_t2 and |G|_F from
    # the 3x3 Gram matrix agree with the explicit stack of s G, at the left
    # vectors of all eight roots, on every side and row of the roots test,
    # the equator rows at gamma = eps_cont included
    P, gamma, sides = _closed_form_cases(gas)
    for side in sides:
        G = side.G(np.column_stack([P[:, 0], gamma, P[:, 2:]]))
        g_norm = np.linalg.norm(G, axis=(1, 2))
        mu, ok = side.roots(P, gamma)
        wh = np.stack([side.left_vector(P, gamma, mu[:, col], col).conj()
                       for col in range(8)], axis=1)
        residual, gram_norm = side.certificate(P, gamma, wh, mu)
        assert_allclose(gram_norm, g_norm, rtol=1e-12, atol=0)
        explicit = np.linalg.norm(wh @ G - mu[:, :, None] * wh, axis=2)
        rows = ok & np.all(np.isfinite(wh), axis=(1, 2))
        assert np.count_nonzero(rows) >= 0.98 * len(P)
        assert np.all(np.abs(residual - explicit)[rows] <= 1e-15 * g_norm[rows, None])


def _count_G_rows(monkeypatch):
    """Rows passed in stacks to `_Side.G`."""
    rows = []

    def G(self, zf, _f=_Side.G):
        if np.ndim(zf) == 2:
            rows.append(len(zf))
        return _f(self, zf)
    monkeypatch.setattr(_Side, "G", G)
    return rows


def test_scan_builds_no_G_and_takes_no_eigvals(gas, monkeypatch):
    # a fast-shock scan and a frozen-complement scan trust every closed-form
    # root, so no row builds s G; on the dimension-7 inflow at tangential |B|
    # = 1e-5, the 8 rows of the roots test whose roots are not trusted go to
    # the per-point path, and no row builds the stack of s G or takes an 8x8
    # eigvals
    grid = HemisphereGrid(2, 40, 2)
    sh = rankine_hugoniot(gas, ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0.01, 0, 0]),
                          family="fast", mach=2.0, d=3)
    zf0 = BoundaryFrequency(0.3, 0.5, [0.4, -0.1]).normalized()
    E0 = stable_subspace(assemble_G(SUBSONIC_STATE, gas, 3, zf0), zf0.gamma_L)
    for scan in (lambda: shock_scan(sh, grid, polish_rounds=2),
                 lambda: uniform_scan(SUBSONIC_STATE, gas, 3, E0.conj().T, grid, polish_rounds=2)):
        G_rows = _count_G_rows(monkeypatch)
        res = scan()
        monkeypatch.undo()
        assert not res.failures and res.n_fallback == 0
        assert G_rows == []
    P, _, _ = _closed_form_cases(gas)
    st = ThermoState(rho=1.0, u=[0.2, -0.1, 0.9], theta=1.0, B=[1e-5, 0, 0])
    M = np.random.default_rng(83).standard_normal((n_positive(st, gas, 3), 8))
    rows = _count_stacked_eig_rows(monkeypatch)
    G_rows = _count_G_rows(monkeypatch)
    res = uniform_scan(st, gas, 3, M, ExplicitGrid([BoundaryFrequency(*p[:2], p[2:]) for p in P]),
                       polish_rounds=0)
    monkeypatch.undo()
    assert not res.failures
    assert res.n_fallback == rows["untrusted"] == 8
    assert sum(G_rows) == rows["eigvals"] == 0


def test_scan_does_not_depend_on_the_chunk(gas, monkeypatch):
    # one row, seven rows or a whole chunk per batched evaluation: the same
    # rows and sweep argmin, and |D| and the polished argmin to rounding (BLAS
    # may round a row differently in another stack size; at an equator center
    # two polish offsets along -gamma snap back onto the center, so a
    # rounding-level tie can move the argmin by a rounding unit)
    from mhdstab import lopatinski

    grid = HemisphereGrid(2, 20, 2)
    sh = rankine_hugoniot(gas, ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0.01, 0, 0]),
                          family="fast", mach=2.0, d=3)
    results = []
    for chunk in (1, 7, _CHUNK):
        monkeypatch.setattr(lopatinski, "_CHUNK", chunk)
        results.append(shock_scan(sh, grid, polish_rounds=1))
    for res in results:
        assert res.n_fallback == 0 and len(res.rows) == grid.n_points
        assert res.sweep_argmin == results[0].sweep_argmin
        assert_allclose(res.argmin._key(), results[0].argmin._key(), rtol=0, atol=1e-15)
        assert abs(res.min_abs_D - results[0].min_abs_D) <= 1e-15
        assert_allclose([row[4] for row in res.rows], [row[4] for row in results[0].rows],
                        rtol=0, atol=1e-15)


# ----------------------------------------------------------------------------
# seeded random problems: the batched scan against the per-point path
# ----------------------------------------------------------------------------

def _random_field_state(rng, gas, d, level):
    """rho and theta log-uniform in [0.1, 10], a tangential u of up to c0 per
    component, and B of magnitude level * sqrt(rho c0^2) whose normal and
    tangential parts are each at least 0.3 of it."""
    rho, theta = 10.0 ** rng.uniform(-1.0, 1.0, 2)
    c0 = math.sqrt(sound_speed_sq(gas, ThermoState(rho=rho, theta=theta)))
    while True:
        b = rng.standard_normal(3)
        b /= np.linalg.norm(b)
        if 0.3 <= abs(b[d - 1]) <= math.sqrt(1.0 - 0.3**2):
            break
    u = rng.uniform(-c0, c0, 3)
    u[d - 1] = 0.0
    return ThermoState(rho=rho, u=u, theta=theta, B=level * math.sqrt(rho) * c0 * b)


def _with_side_dimension(state, gas, d, dim, rng):
    """The state with u_d inside the window where dim of the eigenvalues of
    A_d, u_d -+ c_f, u_d -+ |a|, u_d -+ c_s and the double u_d, are
    positive; the double root makes dimension 4 impossible."""
    ws = wave_speeds(state, gas, unit_vector(d))
    edges = [-2.0 * ws.c_f, -ws.c_f, -abs(ws.a), -ws.c_s, 0.0, ws.c_s, abs(ws.a), ws.c_f,
             2.0 * ws.c_f]
    lo = dim - (dim > 4)
    u = state.u.copy()
    u[d - 1] = edges[lo] + rng.uniform(0.25, 0.75) * (edges[lo + 1] - edges[lo])
    return dataclasses.replace(state, u=u)


def _near_glancing_rows(side, rng):
    """Rows near up to two glancing points of a side: equator points where
    two real roots of s G meet, found by bisection in the angle along one
    half great circle of the equator; at each, the equator rows 1e-4 and
    1e-8 to either side and the rows 1e-4 and 1e-8 above it."""
    psi = rng.uniform(0.0, 2.0 * math.pi)

    def row(phi, gamma=0.0):
        r = np.array([math.cos(phi), gamma, math.sin(phi) * math.cos(psi),
                      math.sin(phi) * math.sin(psi)])
        return r / np.linalg.norm(r)

    def n_real(phi):
        lam = np.linalg.eigvals(side.G(row(phi)[None])[0])
        return np.count_nonzero(np.abs(lam.imag) <= 1e-9 * np.abs(lam).max())

    phis = np.linspace(0.0, math.pi, 49)
    counts = [n_real(phi) for phi in phis]
    rows = []
    for a, b, n_a, n_b in zip(phis, phis[1:], counts, counts[1:]):
        if n_a == n_b or len(rows) >= 12:
            continue
        for _ in range(45):
            mid = 0.5 * (a + b)
            a, b = (mid, b) if n_real(mid) == n_a else (a, mid)
        rows += [row(a + s * delta) for delta in (1e-4, 1e-8) for s in (-1.0, 1.0)]
        rows += [row(a, delta) for delta in (1e-4, 1e-8)]
    return np.array(rows).reshape(-1, 4)


def _random_operator(rng, p, kind, perm=slice(None)):
    """A real, complex or callable (tau-dependent) p x 8 operator, its
    columns taken in the order perm."""
    M0, M1 = rng.standard_normal((2, p, 8))[..., perm]
    if kind == "real":
        return M0
    if kind == "complex":
        return M0 + 1j * M1
    return BoundaryOperator(lambda zf: M0 + 1j * zf.tau * M1, n=8, p=p)


def _axis_permutation(d, d_new):
    """perm with U'[j] = U[perm[j]]: the unknowns with the (normal, t1, t2)
    components of u and B along axis d moved to those along d_new (t1 < t2
    the tangential axes, so d_new = 2 from d = 1 or 3 reflects the pair)."""
    perm = np.arange(8)
    for a, b in zip((d, *_tangential_axes(d)), (d_new, *_tangential_axes(d_new))):
        perm[[b, 4 + b]] = a, 4 + a
    return perm


def _relabelled(state, perm):
    return ThermoState.from_array(state.as_array()[perm])


def _relabelled_shock(shock, perm, d_new):
    return dataclasses.replace(shock, left=_relabelled(shock.left, perm),
                               right=_relabelled(shock.right, perm), axis=d_new)


def _random_problems(gas, rng, shift=0):
    """(label, problem) pairs: one-sided problems for every axis d, every
    field level |B| / sqrt(rho c0^2) in {0, 1e-4, 1e-2, 1} and every side
    dimension the level allows (all of 0-3 and 5-8 at level 1; at the small
    levels the windows of dimensions 2, 3, 5 and 6 are within |B| of a
    characteristic boundary), each with a real, complex or callable
    operator in turn, and a fast shock per axis and level.  A draw with a
    characteristic side, which the scan does not take, is drawn again; the
    redraws are counted under "redrawn".  With shift k every problem drawn
    for the normal d is built relabelled to the normal 1 + (d - 1 + k) % 3
    (`_axis_permutation`: its states, shock and operator columns), from the
    same draws."""
    kinds = itertools.cycle(("real", "complex", "callable"))
    problems, redrawn = [], 0

    def noncharacteristic(draw):
        nonlocal redrawn
        while True:
            try:
                return draw()
            except CharacteristicBoundary:
                redrawn += 1

    for d in (1, 2, 3):
        d_new = 1 + (d - 1 + shift) % 3
        perm = _axis_permutation(d, d_new)
        for level in (0.0, 1e-4, 1e-2, 1.0):
            for dim in (0, 1, 2, 3, 5, 6, 7, 8) if level == 1.0 else (0, 1, 7, 8):
                M = _random_operator(rng, dim, next(kinds), perm)
                problems.append((f"side {dim}", noncharacteristic(lambda: _one_sided_problem(
                    _relabelled(_with_side_dimension(_random_field_state(rng, gas, d, level),
                                                     gas, d, dim, rng), perm),
                    gas, d_new, M, 1e-10))))
            problems.append(("fast shock", noncharacteristic(lambda: _shock_problem(
                _relabelled_shock(rankine_hugoniot(gas, _random_field_state(rng, gas, d, level),
                                                   family="fast", mach=rng.uniform(1.3, 3.0), d=d),
                                  perm, d_new), 1e-10))))
    return problems, redrawn


def _split_condition(problem, row, eps_cont):
    """max over the sides of |G|_F / gap, G the side's s G at the row (shifted
    to gamma = eps_cont at continuation rows, as `stable_subspace` takes it)
    and gap the distance between its stable and unstable eigenvalues: the
    first-order sensitivity of E_minus, and so of |D|, to a perturbation of
    G relative to |G|_F."""
    condition = 0.0
    for side in problem.sides:
        G = side.G(row[None])[0]
        if row[1] <= 1e-8:
            G = G - 1j * (eps_cont - row[1]) * side.a_d_inv
        mu = np.linalg.eigvals(G)
        stable, unstable = mu[mu.imag < 0.0], mu[mu.imag >= 0.0]
        if len(stable) and len(unstable):
            gap = np.abs(stable[:, None] - unstable[None, :]).min()
            condition = max(condition, np.linalg.norm(G) / gap)
    return condition


def test_batched_scan_matches_per_point_path_on_random_problems(gas):
    # every row of every drawn problem: the batched |D| equals the per-point
    # path's, and the rows that fail there fail in the scan with the same
    # record.  The bound is 1e-12, or 10 eps |G|_F / gap where the split of
    # E_minus is ill-conditioned: the per-point Schur path is backward
    # stable, so near a glancing point its |D| carries about eps |G|_F / gap
    # (up to 1.8e-12 against a 40-digit evaluation, over five seeds of these
    # draws), and the batch certifies its own error to 1e-12 through the
    # same gap.  The seed draws a dimension-7 side whose left vector near a
    # glancing point passes the 5e-14 |G|_F residual test but not the gap
    # test; certified by the residual alone, its |D| is off by 3.7e-11.  The
    # fallback rows per side dimension are printed, so that a rise in the
    # share the batch cannot certify shows.
    rng = np.random.default_rng(2)
    problems, redrawn = _random_problems(gas, rng)
    eps = np.finfo(float).eps
    tally = {}
    for label, problem in problems:
        assert [side.dim for side in problem.sides] == (
            [7, 0] if label == "fast shock" else [int(label.split()[1])])
        glancing = [_near_glancing_rows(side, rng) for side in problem.sides]
        P = np.concatenate([_mixed_grid(24, int(rng.integers(2**31)))._rows(), *glancing])
        grid = ExplicitGrid([_frequency(row) for row in P])
        res = _scan(problem, grid, 1e-6, polish_rounds=0)
        expected, bounds, failures = [], [], []
        for i, zf in enumerate(grid.points()):
            try:
                expected.append(_point_abs_D(problem, zf, 1e-6))
                bounds.append(max(1e-12, 10.0 * eps * _split_condition(problem, P[i], 1e-6)))
            except MhdStabError as exc:
                failures.append((i, type(exc).__name__, str(exc)))
        assert _failure_list(res) == failures, label
        error = np.abs(np.array([row[4] for row in res.rows]) - expected)
        assert np.all(error <= bounds), (label, error.max(), P[np.argmax(error / bounds)])
        n = tally.setdefault(label, [0, 0, 0, 0])
        n[0] += 1
        n[1] += len(P)
        n[2] += res.n_fallback
        n[3] += len(failures)
    print(f"\n  {len(problems)} problems, {redrawn} characteristic draws redrawn")
    for label in sorted(tally):
        cases, rows, fallback, failed = tally[label]
        print(f"  {label}: {cases} problems, {rows} rows, {fallback} per point, {failed} failed")


def test_batched_scan_invariant_under_axis_relabelling_on_random_problems(gas):
    # every draw of the random-problem oracle (the same seed, so the same
    # problems and rows) relabelled from its normal d to each of the other
    # two normals, and the slow shock that builds moved from x_3 to x_1 and
    # x_2: u, B, the operator's columns and the tangential pair are permuted
    # as in test_shock_scan_invariant_under_axis_relabelling, so every row
    # gives the per-point |D| of the draw as it was, within the oracle's
    # bound, with the same failures.  This covers the rows the batch sends
    # per point.
    rng = np.random.default_rng(2)
    problems, _ = _random_problems(gas, rng)
    rows = []
    for _, problem in problems:
        glancing = [_near_glancing_rows(side, rng) for side in problem.sides]
        rows.append(np.concatenate([_mixed_grid(24, int(rng.integers(2**31)))._rows(),
                                    *glancing]))
    relabelled = [_random_problems(gas, np.random.default_rng(2), shift)[0]
                  for shift in (1, 2)]
    up = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0.2, 0.0, 1.5])
    slow = rankine_hugoniot(gas, up, family="slow", mach=1.1, d=3)
    problems.append(("slow shock", _shock_problem(slow, 1e-10)))
    rows.append(_mixed_grid(36, 87)._rows())
    for shift, moved in zip((1, 2), relabelled):  # shift k takes x_3 to x_k
        moved.append(("slow shock", _shock_problem(
            _relabelled_shock(slow, _axis_permutation(3, shift), shift), 1e-10)))
    eps = np.finfo(float).eps
    n_per_point = [0, 0]
    for i, ((label, problem), P) in enumerate(zip(problems, rows)):
        grid = ExplicitGrid([_frequency(row) for row in P])
        expected, bounds, failures = [], [], []
        for j, zf in enumerate(grid.points()):
            try:
                expected.append(_point_abs_D(problem, zf, 1e-6))
                bounds.append(max(1e-12, 10.0 * eps * _split_condition(problem, P[j], 1e-6)))
            except MhdStabError as exc:
                failures.append((j, type(exc).__name__, str(exc)))
        for k, moved in enumerate(relabelled):
            moved_label, moved_problem = moved[i]
            assert moved_label == label
            assert [side.dim for side in moved_problem.sides] == [
                side.dim for side in problem.sides]
            res = _scan(moved_problem, grid, 1e-6, polish_rounds=0)
            assert _failure_list(res) == failures, (label, k + 1)
            error = np.abs(np.array([row[4] for row in res.rows]) - expected)
            assert np.all(error <= bounds), (label, k + 1, error.max())
            n_per_point[k] += res.n_fallback
    print(f"\n  {len(problems)} problems relabelled twice, "
          f"{n_per_point} rows per point")


def _near_characteristic_state(rng, gas, d, family, ratio):
    """A state of field level 1 whose A_d has the root of `family` (entropy,
    alfven, slow or fast) at min |lambda| = ratio * max |lambda|, on a
    random side of zero: u_d = +-(c + delta), c the family's speed."""
    st = _random_field_state(rng, gas, d, 1.0)
    ws = wave_speeds(st, gas, unit_vector(d))
    c = {"entropy": 0.0, "alfven": abs(ws.a), "slow": ws.c_s, "fast": ws.c_f}[family]
    u = st.u.copy()
    u[d - 1] = rng.choice([-1.0, 1.0]) * (c + ratio * (c + ws.c_f) / (1.0 - ratio))
    st = dataclasses.replace(st, u=u)
    lam = np.abs(_normal_speeds(st, gas, d))
    assert_allclose(lam.min() / lam.max(), ratio, rtol=1e-6)
    return st


def test_batched_scan_matches_per_point_path_near_characteristic_sides(gas):
    # sides with min |lambda(A_d)| / max |lambda(A_d)| of 1e-3, 1e-6 and
    # 1e-9 at each wave family's root, which the eigenvalue-relative test
    # admits: on every row the batch's |D| equals the per-point path's within
    # the random-problem bound (a row the batch cannot certify goes per point
    # and is equal), and the failures match.  The per-point rows per family
    # and ratio are printed.
    rng = np.random.default_rng(3)
    eps = np.finfo(float).eps
    kinds = itertools.cycle(("real", "complex", "callable"))
    print()
    for i, (family, ratio) in enumerate(itertools.product(
            ("entropy", "alfven", "slow", "fast"), (1e-3, 1e-6, 1e-9))):
        d = 1 + i % 3
        st = _near_characteristic_state(rng, gas, d, family, ratio)
        dim = int(np.count_nonzero(_normal_speeds(st, gas, d) > 0.0))
        problem = _one_sided_problem(st, gas, d, _random_operator(rng, dim, next(kinds)), 1e-10)
        P = np.concatenate([_mixed_grid(24, int(rng.integers(2**31)))._rows(),
                            _near_glancing_rows(problem.sides[0], rng)])
        grid = ExplicitGrid([_frequency(row) for row in P])
        res = _scan(problem, grid, 1e-6, polish_rounds=0)
        expected, bounds, failures = [], [], []
        for j, zf in enumerate(grid.points()):
            try:
                expected.append(_point_abs_D(problem, zf, 1e-6))
                bounds.append(max(1e-12, 10.0 * eps * _split_condition(problem, P[j], 1e-6)))
            except MhdStabError as exc:
                failures.append((j, type(exc).__name__, str(exc)))
        label = (family, ratio, dim)
        assert _failure_list(res) == failures, label
        error = np.abs(np.array([row[4] for row in res.rows]) - expected)
        assert np.all(error <= bounds), (label, error.max(), P[np.argmax(error / bounds)])
        print(f"  {family} {ratio:g} side {dim}: {len(P)} rows, {res.n_fallback} per point, "
              f"{len(failures)} failed")
