import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mhdstab.charstruct import wave_speeds
from mhdstab.thermo import ThermoState, eval_eos, sound_speed_sq
from mhdstab.symbol import (
    assemble_full_symbol,
    assemble_tilde_symbol,
    boundary_matrix,
    symmetrizer,
    unit_vector,
)

from conftest import random_rotation, random_state, random_xi


def quasilinear_rhs(eos, vec, grad):
    """Spatial terms of the quasilinear system, written as in the governing
    equations (momentum through curl B x B), for state `vec` and gradient
    array grad[i, j] = d vec_i / d x_j.  Independent oracle route for the
    assembled symbol."""
    rho, u, theta, B = vec[0], vec[1:4], vec[4], vec[5:8]
    ev = eval_eos(eos, rho, theta)
    g_rho = grad[0]
    g_u = grad[1:4]
    g_theta = grad[4]
    g_B = grad[5:8]
    div_u = np.trace(g_u)
    curl_B = np.array([
        g_B[2, 1] - g_B[1, 2],
        g_B[0, 2] - g_B[2, 0],
        g_B[1, 0] - g_B[0, 1],
    ])
    out = np.empty(8)
    out[0] = u @ g_rho + rho * div_u
    out[1:4] = (g_u @ u
                + (ev.P_rho * g_rho + ev.P_theta * g_theta) / rho
                - np.cross(curl_B, B) / rho)
    out[4] = u @ g_theta + theta * ev.P_theta / (rho * ev.e_theta) * div_u
    out[5:8] = g_B @ u + div_u * B - g_u @ B
    return out


def fd_symbol(eos, state, xi, rel_step=1e-6, phase=0.7):
    """Central finite-difference linearization of the quasilinear operator
    around `state` along plane-wave perturbations e_k sin(xi.x + phase).
    Steps are scaled per component so states with disparate magnitudes
    (rho ~ 1e-2 against theta ~ 1e2) stay in the linear regime."""
    v0 = state.as_array()
    cols = []
    for k in range(8):
        e_k = np.zeros(8)
        e_k[k] = 1.0
        h = rel_step * max(abs(v0[k]), 1.0)

        def rhs(eps):
            value = v0 + eps * np.sin(phase) * e_k
            grad = eps * np.cos(phase) * np.outer(e_k, xi)
            return quasilinear_rhs(eos, value, grad)

        cols.append((rhs(h) - rhs(-h)) / (2.0 * h * np.cos(phase)))
    return np.column_stack(cols)


def test_xi_zero_gives_zero_matrix(gas):
    st = ThermoState(rho=2.0, u=[1, -1, 3], theta=0.7, B=[1, 2, 3])
    assert np.all(assemble_tilde_symbol(st, gas, [0, 0, 0]) == 0.0)


def test_euler_acoustic_couplings_when_B_zero(gas):
    st = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0, 0, 0])
    A = assemble_tilde_symbol(st, gas, [1, 0, 0])
    expected = np.zeros((8, 8))
    expected[0, 1] = 1.0      # rho <-> u1
    expected[1, 0] = 1.0
    expected[1, 4] = 1.0      # u1 <-> theta
    expected[4, 1] = 1.0 / 1.5
    assert_allclose(A, expected, atol=1e-15)


def test_field_coupling_entry(gas):
    st = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[1, 0, 0])
    A = assemble_tilde_symbol(st, gas, [0, 1, 0])
    assert_allclose(A[2, 5], 1.0)   # u2-row, B1-column
    assert_allclose(A[5, 2], 1.0)   # B1-row, u2-column
    assert_allclose(A[1, 6], 0.0)   # u1-row, B2-column


def test_fd_linearization_oracle(gas):
    # The quasilinear operator linearizes to the full symbol; the fluid-frame
    # symbol is recovered by removing the transport shift (u . xi) I.
    rng = np.random.default_rng(21)
    for _ in range(50):
        st = random_state(rng)
        xi = random_xi(rng)
        A_fd = fd_symbol(gas, st, xi)
        A_full = assemble_full_symbol(st, gas, xi)
        scale = max(np.linalg.norm(A_full), 1e-30)
        assert np.linalg.norm(A_fd - A_full) < 1e-6 * scale
        A_tilde = assemble_tilde_symbol(st, gas, xi)
        shift = float(st.u @ xi) * np.eye(8)
        assert np.linalg.norm((A_fd - shift) - A_tilde) < 1e-6 * scale


def test_linearity_in_xi(gas):
    rng = np.random.default_rng(22)
    st = random_state(rng)
    x1, x2 = random_xi(rng), random_xi(rng)
    a, b = 2.5, -0.75
    A = assemble_tilde_symbol(st, gas, a * x1 + b * x2)
    B = (a * assemble_tilde_symbol(st, gas, x1)
         + b * assemble_tilde_symbol(st, gas, x2))
    assert_allclose(A, B, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(A))))


def test_full_symbol_is_shifted_tilde(gas):
    rng = np.random.default_rng(23)
    st_rest = ThermoState(rho=1.5, u=[0, 0, 0], theta=2.0, B=[1, 0, 2])
    xi = random_xi(rng)
    assert_allclose(assemble_full_symbol(st_rest, gas, xi),
                    assemble_tilde_symbol(st_rest, gas, xi))

    st = ThermoState(rho=1.5, u=[0.5, -1, 2], theta=2.0, B=[1, 0, 2])
    shift = float(st.u @ xi)
    ev_full = np.sort(np.linalg.eigvals(assemble_full_symbol(st, gas, xi)).real)
    ev_tilde = np.sort(np.linalg.eigvals(assemble_tilde_symbol(st, gas, xi)).real)
    assert_allclose(ev_full, ev_tilde + shift, atol=1e-12 * max(1.0, abs(shift)))


def test_supersonic_spectrum_example(gas):
    st = ThermoState(rho=1.0, u=[0, 0, 2], theta=1.0, B=[0, 0, 0])
    ev = np.sort(np.linalg.eigvals(assemble_full_symbol(st, gas, [0, 0, 1])).real)
    c0 = np.sqrt(5.0 / 3.0)
    expected = np.sort([2.0] * 6 + [2.0 - c0, 2.0 + c0])
    assert_allclose(ev, expected, atol=1e-12)


def test_symmetrizer_explicit_and_positive(gas):
    st = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[0, 0, 0])
    S = symmetrizer(st, gas)
    assert_allclose(S, np.diag([1.0, 1, 1, 1, 1.5, 1, 1, 1]))

    rng = np.random.default_rng(24)
    for _ in range(100):
        st = random_state(rng)
        S = symmetrizer(st, gas)
        assert np.min(np.diag(S)) > 0.0
        for _ in range(10):
            xi = random_xi(rng)
            SA = S @ assemble_full_symbol(st, gas, xi)
            assert (np.linalg.norm(SA - SA.T)
                    <= 1e-13 * max(np.linalg.norm(SA), 1e-30))


def test_hyperbolicity_real_spectrum(gas):
    rng = np.random.default_rng(25)
    for _ in range(200):
        st = random_state(rng)
        xi = random_xi(rng)
        ev = np.linalg.eigvals(assemble_full_symbol(st, gas, xi))
        scale = max(np.max(np.abs(ev)), 1e-30)
        assert np.max(np.abs(ev.imag)) <= 1e-10 * scale


def test_rotation_equivariance(gas):
    rng = np.random.default_rng(26)
    for _ in range(50):
        st = random_state(rng)
        xi = random_xi(rng)
        Q = random_rotation(rng)
        st_rot = ThermoState(rho=st.rho, u=Q @ st.u, theta=st.theta, B=Q @ st.B)
        ev1 = np.sort(np.linalg.eigvals(assemble_full_symbol(st, gas, xi)).real)
        ev2 = np.sort(np.linalg.eigvals(assemble_full_symbol(st_rot, gas, Q @ xi)).real)
        scale = max(np.max(np.abs(ev1)), 1.0)
        assert_allclose(ev1, ev2, atol=1e-12 * scale)


def test_boundary_matrix_flags(gas):
    # stationary flow: u . e_3 = 0 is an eigenvalue, so A_3 is singular
    st = ThermoState(rho=1.0, u=[0, 0, 0], theta=1.0, B=[1, 2, 0.5])
    _, ok = boundary_matrix(st, gas, 3)
    assert not ok

    st = ThermoState(rho=1.0, u=[0, 0, 2], theta=1.0, B=[0, 0, 0])
    A3, ok = boundary_matrix(st, gas, 3)
    assert ok
    ev = np.sort(np.linalg.eigvals(A3).real)
    c0 = np.sqrt(5.0 / 3.0)
    assert_allclose(ev, np.sort([2.0] * 6 + [2.0 - c0, 2.0 + c0]), atol=1e-12)

    # sonic boundary: u_3 = c0 makes the slow acoustic eigenvalue vanish
    st = ThermoState(rho=1.0, u=[0, 0, c0], theta=1.0, B=[0, 0, 0])
    _, ok = boundary_matrix(st, gas, 3)
    assert not ok


def test_boundary_matrix_validates_axis(gas):
    st = ThermoState(rho=1.0, u=[0, 0, 1], theta=1.0, B=[0, 0, 0])
    with pytest.raises(ValueError):
        boundary_matrix(st, gas, 4)
    with pytest.raises(ValueError):
        unit_vector(0)


def test_noncharacteristic_flag_is_the_eigenvalue_ratio(gas):
    # the flag is min |lambda(A_d)| > tol_det max |lambda(A_d)|, with the
    # eigenvalues from the 8x8 solver here: on random states, and on states
    # with |B|^2 = rho c0^2 and rho, theta log-uniform in [0.1, 10], where a
    # test of det A_d against ||A_d||_2^8 rejected boundaries whose
    # eigenvalue ratio reached 0.23 (||A_d||_2 grows with rho and 1/rho)
    rng = np.random.default_rng(47)
    for k in range(600):
        rho, theta = 10.0 ** rng.uniform(-1.0, 1.0, 2)
        st = ThermoState(rho=rho, u=rng.uniform(-3.0, 3.0, 3), theta=theta)
        b_hat = rng.standard_normal(3)
        B = (math.sqrt(rho * sound_speed_sq(gas, st)) * b_hat / np.linalg.norm(b_hat)
             if k % 2 else rng.uniform(-2.0, 2.0, 3))
        st, d = dataclasses.replace(st, B=B), int(rng.integers(1, 4))
        for tol in (1e-10, 1e-3):
            A_d, flag = boundary_matrix(st, gas, d, tol_det=tol)
            lam = np.abs(np.linalg.eigvals(A_d))
            assert flag == (lam.min() > tol * lam.max()), (st, d, tol, lam.min() / lam.max())
    # u_d = 0 and u_d on a wave speed, sonic at B = 0, stay characteristic
    for B in ([0.3, -0.2, 0.7], [0.0, 0.0, 0.0]):
        st = ThermoState(rho=2.0, u=[0.4, -0.3, 0.0], theta=0.6, B=B)
        ws = wave_speeds(st, gas, unit_vector(3))
        for u_d in (0.0, ws.a, -ws.a, ws.c_s, -ws.c_s, ws.c_f, -ws.c_f):
            u = np.array([0.4, -0.3, u_d])
            assert not boundary_matrix(dataclasses.replace(st, u=u), gas, 3)[1], (B, u_d)
