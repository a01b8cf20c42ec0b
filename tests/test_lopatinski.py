import numpy as np
import pytest
from numpy.testing import assert_allclose

import scipy.linalg

from mhdstab.errors import (
    CharacteristicBoundary,
    DimensionMismatch,
    MhdStabError,
    NoAdmissibleShock,
    RankDeficiency,
)
from mhdstab.thermo import ThermoState
from mhdstab.symbol import assemble_full_symbol, boundary_matrix, unit_vector
from mhdstab.charstruct import wave_speeds
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
    _ScanProblem,
    _evaluate,
    _one_sided_problem,
    _polish_min,
    _range_rows,
    _right_singular_rows,
    _scan,
    _shock_problem,
)

SUBSONIC_STATE = ThermoState(rho=1.0, u=[0.2, -0.1, 0.9], theta=1.0,
                             B=[0.3, 0.1, 0.2])
SLOW_INFLOW = ThermoState(rho=1.0, u=[0.2, -0.1, 0.1], theta=1.0,
                          B=[0.3, 0.1, 0.2])
SUPERSONIC_INFLOW = ThermoState(rho=1.0, u=[0.2, -0.1, 3.0], theta=1.0,
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
        E = stable_subspace(prob.G_of(zf), 0.0, a_d_inv=prob.a_d_inv)
        return lopatinski_det(E, prob.operator, zf).abs_D

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
    res.write_csv(path)
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
    # that into per-point failures, not a wrong |D|.
    from mhdstab.lopatinski import _scan, _shock_problem

    class UnsignedContinuation:
        def __init__(self, side):
            self.G, self.dim, self.a_d_inv = side.G, side.dim, -side.a_d_inv

    up = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0.01, 0, 0])
    sh = rankine_hugoniot(gas, up, family="fast", mach=2.0, d=3)
    grid = _mixed_grid(30, 62)
    good = _scan(_shock_problem(sh, 1e-10), grid, 1e-6, polish_rounds=0)
    problem = _shock_problem(sh, 1e-10)
    right, left = problem.sides
    problem.sides = (right, UnsignedContinuation(left))
    bad = _scan(problem, grid, 1e-6, polish_rounds=0)
    equator = {i for i, zf in enumerate(grid.points()) if zf.gamma_L == 0.0}
    assert not good.failures
    assert {f["index"] for f in bad.failures} == equator
    assert {f["type"] for f in bad.failures} == {"SpectralSplitFailure"}
    assert bad.rows == [row for row in good.rows if row[1] > 0.0]


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
    # dim E_minus 5 (eig and QR) and 8 (the definite-side certificate)
    for inflow in (SLOW_INFLOW, SUPERSONIC_INFLOW):
        M = np.random.default_rng(67).standard_normal((n_positive(inflow, gas, 3), 8))
        cases.append(([(inflow, 1.0)], _one_sided_problem(inflow, gas, 3, M, 1e-10)))
    assert [problem.expected_dim for _, problem in cases[-2:]] == [5, 8]
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


@pytest.mark.parametrize("B, zf", [
    ([0.05, 0.0, 0.0], BoundaryFrequency(0.3, 0.4, [0.2, 0.1]).normalized()),
    ([0.2, -0.1, 0.3], BoundaryFrequency(0.6, 0.0, [0.64, -0.48])),  # gamma_L = 0
    ([0.0, 0.0, 0.0], BoundaryFrequency(0.0, 0.0, [0.6, 0.8])),  # b_hat_0 = 0
], ids=["interior", "equator", "zero-mass-component"])
def test_closed_form_shock_rows_span_range_of_operator(gas, B, zf):
    """The scan's closed-form rows V are orthonormal, span the rows of
    op.matrix(zf), and give the |det(V E)| of the SVD route."""
    up = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=B)
    sh = rankine_hugoniot(gas, up, family="fast", mach=2.0, d=3)
    op = shock_boundary_operator(sh)
    (V,), (ok,) = op._closed_form(np.array([[zf.tau, zf.gamma_L, *zf.eta]]))
    assert ok
    M = op.matrix(zf)
    assert_allclose(V @ V.conj().T, np.eye(7), rtol=0, atol=1e-12)
    assert np.linalg.norm(M - M @ V.conj().T @ V) <= 1e-12 * np.linalg.norm(M)
    problem = _shock_problem(sh, 1e-10)
    E = stable_subspace(problem.G_of(zf), zf.gamma_L, a_d_inv=problem.a_d_inv)
    V_svd = _right_singular_rows(M, full_matrices=False)
    assert_allclose(abs(np.linalg.det(V @ E)), abs(np.linalg.det(V_svd @ E)),
                    rtol=0, atol=1e-14)


def test_batched_scan_falls_back_on_defective_eigenvalue(gas, monkeypatch):
    # a 2x2 Jordan block inside E_minus: eig returns two nearly parallel
    # eigenvectors, so the QR test sends every row to the Schur path
    rng = np.random.default_rng(73)
    S = rng.standard_normal((8, 8))
    J = np.diag([-1j, -1j, -2j, -3j, 1j, 2j, 3j, 4j])
    J[0, 1] = 1.0
    G0 = S @ J @ np.linalg.inv(S)

    class JordanSide:
        dim, a_d_inv = 4, np.eye(8)

        def G(self, zf):
            if isinstance(zf, BoundaryFrequency):
                return G0
            return np.repeat(G0[None], len(zf), axis=0)

    M = BoundaryOperator.from_matrix(rng.standard_normal((4, 8)))
    grid = _mixed_grid(20, 74)
    fallbacks = _count_fallbacks(monkeypatch)
    res = _scan(_ScanProblem((JordanSide(),), M), grid, 1e-6, polish_rounds=0)
    monkeypatch.undo()
    assert len(fallbacks) == grid.n_points and not res.failures
    # shifting G by a multiple of I at the equator keeps its invariant subspaces
    want = lopatinski_det(stable_subspace(G0, 1.0), M).abs_D
    assert_allclose([row[4] for row in res.rows], want, rtol=0, atol=1e-12)


def _count_stacked_eig_rows(monkeypatch):
    """Rows passed in stacks to np.linalg.eig and np.linalg.eigvals."""
    rows = {"eig": 0, "eigvals": 0}
    for name in rows:
        def counted(a, _f=getattr(np.linalg, name), _name=name):
            if np.ndim(a) == 3:
                rows[_name] += len(a)
            return _f(a)
        monkeypatch.setattr(np.linalg, name, counted)
    return rows


def test_batched_scan_certifies_definite_side_and_skips_eig(gas, monkeypatch):
    # the fast shock's upstream side has dimension 0 and a negative definite
    # A_d^{-1}: every eigenvalue of its G has Im mu > 0 with |Im mu| >= gamma
    # min |lambda(A_d^{-1})| (gamma = eps_cont on the equator), so only a row
    # whose bound is below twice the gap 1e-8 gets its eigenvalues; the
    # downstream side (dimension 7) takes eigvals at every row and never eig
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
        assert rows == {"eig": 0, "eigvals": points.n_points + 1}
        assert not res.failures and len(res.rows) == points.n_points
        # the bound itself, on the shifted G of every row
        P = points._rows()
        gamma = np.where(P[:, 1] <= 1e-8, 1e-6, P[:, 1])
        G = problem.sides[1].G(P) - (1j * (gamma - P[:, 1]))[:, None, None] * problem.sides[1].a_d_inv
        assert np.all(np.linalg.eigvals(G).imag >= (1.0 - 1e-9) * gamma[:, None] * lam)


def test_batched_scan_survives_exactly_singular_inverse_iteration(gas):
    # at this row of the B = 0 Mach-2 shock the LU of G^H - conj(mu+) for the
    # downstream side comes out exactly singular (with the LAPACK at hand),
    # although mu+ is 1.73 away from the other roots; a batched solve raises
    # for the whole stack, so the row must fall back alone, in a stack longer
    # than a chunk as well
    sh = rankine_hugoniot(gas, ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0, 0, 0]),
                          family="fast", mach=2.0, d=3)
    problem = _shock_problem(sh, 1e-10)
    zf = BoundaryFrequency(-0.1502804529822391, 0.9723699203976766,
                           [-0.12597538793416418, -0.12665987917294855])
    points = _mixed_grid(299, 76).points()
    grid = ExplicitGrid(points[:150] + [zf] + points[150:])
    want, failures = _oracle(gas, [(sh.right, 1.0), (sh.left, -1.0)], 3, problem.operator, grid)
    assert failures == []
    abs_D, errors, n_fallback = _evaluate(problem, _range_rows(problem.operator),
                                          grid._rows(), 1e-6)
    assert errors == {} and n_fallback <= 1
    assert_allclose(abs_D, want, rtol=0, atol=1e-12)
    res = _scan(problem, ExplicitGrid([zf]), 1e-6, polish_rounds=0)
    assert not res.failures and res.n_fallback <= 1
    assert abs(res.rows[0][4] - want[150]) <= 1e-12


def test_scan_reports_fallback_rows_of_sweep_and_polish(gas, monkeypatch):
    # with no left vector trusted, every sweep and polish row of a fast-shock
    # scan takes the per-point path and is counted, with the same |D|
    from mhdstab import lopatinski

    sh = rankine_hugoniot(gas, ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0.01, 0, 0]),
                          family="fast", mach=2.0, d=3)
    grid = HemisphereGrid(n_phi=1, n_sphere=8, equator_refine=1)
    fast = shock_scan(sh, grid, polish_rounds=1)
    monkeypatch.setattr(lopatinski, "_left_vector",
                        lambda G, mu: (np.ones((len(G), 8)), np.zeros(len(G), dtype=bool)))
    slow = shock_scan(sh, grid, polish_rounds=1)
    assert fast.n_fallback == 0
    assert slow.n_fallback == grid.n_points + 124 == 140
    assert slow.summary()["diagnostics"] == {"n_fallback": 140}
    assert_allclose([row[4] for row in slow.rows], [row[4] for row in fast.rows],
                    rtol=0, atol=1e-12)
    assert abs(slow.min_abs_D - fast.min_abs_D) <= 1e-12
