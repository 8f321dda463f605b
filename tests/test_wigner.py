import functools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from wigner_oracle import exact_values, laguerre_values

from cwlsim import wigner
from cwlsim.errors import ConfigError, GridTooCoarseError
from cwlsim.hilbert import (DensityMatrix, coherent_state,
                            displacement_operator, fock_state, pure_density)
from cwlsim.integrator import propagate
from cwlsim.model import SystemConfig
from cwlsim.presets import (DRIVE_SERIES, NOISE_BIN, NOISE_DRIVE, PARITY_BIN,
                            PARITY_DRIVE)
from cwlsim.wigner import (DEFAULT_SPACING, REFINE_ABS_FLOOR, _hermite_functions,
                           _rotations, _wigner_values, default_bounds, wigner_grid)

FOCK1_NEGATIVITY = 2 * math.exp(-0.5) - 1  # radial quadrature of the analytic W


def test_vacuum_peak_value():
    w = _wigner_values(pure_density(fock_state(0, 10)).mat,
                       np.array([0.0]), np.array([0.0]))
    assert abs(w[0, 0] - 2 / math.pi) < 1e-6


def test_fock_one_origin_value():
    w = _wigner_values(pure_density(fock_state(1, 10)).mat,
                       np.array([0.0]), np.array([0.0]))
    assert abs(w[0, 0] + 2 / math.pi) < 1e-6


def test_coherent_state_gaussian():
    beta = 1.1 - 0.5j
    dm = pure_density(coherent_state(beta, 26))
    w = wigner_grid(dm)
    assert abs(w.norm - 1) < 2e-3
    assert w.negativity < 1e-4
    # peak position and height match the analytic Gaussian
    ip, ix = np.unravel_index(np.argmax(w.values), w.values.shape)
    assert abs(w.xs[ix] - beta.real) <= w.spacing
    assert abs(w.ps[ip] - beta.imag) <= w.spacing
    assert abs(w.values[ip, ix] - 2 / math.pi) < 1e-3


def test_matches_displaced_parity_matrix_oracle():
    # brute-force oracle: W(b) = (2/pi) Tr[rho D(b) P D+(b)] by expm products
    rng = np.random.default_rng(3)
    sup, cut = 7, 40
    x = rng.normal(size=(sup + 1, sup + 1)) + 1j * rng.normal(size=(sup + 1, sup + 1))
    r = x @ x.conj().T
    r /= np.trace(r)
    rho = np.zeros((cut + 1, cut + 1), dtype=complex)
    rho[: sup + 1, : sup + 1] = r
    parity = np.diag((-1.0) ** np.arange(cut + 1))
    for _ in range(6):
        beta = complex(rng.normal() * 0.8, rng.normal() * 0.8)
        d = displacement_operator(beta, cut)
        w_oracle = (2 / math.pi) * np.real(np.trace(rho @ d @ parity @ d.conj().T))
        w_fast = _wigner_values(rho, np.array([beta.real]), np.array([beta.imag]))[0, 0]
        assert abs(w_oracle - w_fast) < 1e-10


def test_matches_integral_definition_on_fock_one():
    # the y-integral definition of W in canonical quadratures ([x, p] = i),
    # evaluated by position-representation quadrature, agrees with the
    # displaced-parity form after the change to coherent-amplitude units
    # beta = (x + i p)/sqrt(2) (Jacobian 2)
    ys = np.linspace(-9, 9, 4001)

    def position_wave(n, u):
        from numpy.polynomial.hermite import hermval

        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        h = hermval(u, coeffs)
        return (
            (1 / math.pi) ** 0.25
            / math.sqrt(2.0**n * math.factorial(n))
            * h
            * np.exp(-u * u / 2.0)
        )

    rho = pure_density(fock_state(1, 12)).mat
    for beta in (0.0 + 0.0j, 0.3 + 0.0j, 0.2 - 0.4j):
        x0, p0 = math.sqrt(2.0) * beta.real, math.sqrt(2.0) * beta.imag
        bra = position_wave(1, x0 + ys)
        ket = position_wave(1, x0 - ys)
        integrand = bra * ket * np.exp(-2j * p0 * ys)
        w_int = 2.0 * np.real(np.trapezoid(integrand, ys)) / math.pi
        w_fast = _wigner_values(rho, np.array([beta.real]), np.array([beta.imag]))[0, 0]
        assert abs(w_int - w_fast) < 1e-6


def test_norm_tracks_trace():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    r = x @ x.conj().T
    r /= np.trace(r)
    rho = np.zeros((16, 16), dtype=complex)
    rho[:6, :6] = r
    w = wigner_grid(DensityMatrix(rho), bounds=((-5, 5), (-5, 5)))
    assert abs(w.norm - 1) < 2e-3


def test_fock_one_negativity_analytic():
    w = wigner_grid(pure_density(fock_state(1, 14)), bounds=((-4, 4), (-4, 4)))
    assert abs(w.negativity - FOCK1_NEGATIVITY) < 2e-3


def test_negativity_translation_invariance():
    base = pure_density(fock_state(1, 20)).mat
    w0 = wigner_grid(DensityMatrix(base)).negativity
    rng = np.random.default_rng(4)
    for _ in range(5):
        beta = complex(rng.normal(), rng.normal()) * 0.8
        d = displacement_operator(beta, 20)
        moved = DensityMatrix(d @ base @ d.conj().T, positivity_tol=1e-6)
        w = wigner_grid(moved)
        assert abs(w.negativity - w0) < 2e-3


def test_negativity_phase_rotation_invariance():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    r = x @ x.conj().T
    r /= np.trace(r)
    rho = np.zeros((14, 14), dtype=complex)
    rho[:5, :5] = r
    w0 = wigner_grid(DensityMatrix(rho)).negativity
    for theta in (0.4, 1.7):
        phase = np.exp(1j * theta * np.arange(14))
        rot = phase[:, None] * rho * phase.conj()[None, :]
        w = wigner_grid(DensityMatrix(rot))
        assert abs(w.negativity - w0) < 2e-3


def test_origin_parity_identity():
    # W(0) = (2/pi) Tr[rho (-1)^n], grid independent
    rng = np.random.default_rng(6)
    x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    r = x @ x.conj().T
    r /= np.trace(r)
    parity = (-1.0) ** np.arange(8)
    expected = (2 / math.pi) * float(np.real(np.diag(r) @ parity))
    got = _wigner_values(r, np.array([0.0]), np.array([0.0]))[0, 0]
    assert abs(got - expected) < 1e-8


def test_coarse_grid_rejected():
    with pytest.raises(GridTooCoarseError):
        wigner_grid(pure_density(fock_state(0, 5)), spacing=0.2)


@pytest.mark.parametrize("spacing", [0.0, -0.05, math.nan])
def test_non_positive_spacing_rejected(spacing):
    with pytest.raises(GridTooCoarseError):
        wigner_grid(pure_density(fock_state(0, 5)), spacing=spacing)


@pytest.mark.parametrize("bounds", [((2.0, 1.0), (1.0, 1.0)), ((-1.0, 1.0), (1.0, 1.0)),
                                    ((1.0, 1.0), (-1.0, 1.0))])
def test_empty_or_inverted_bounds_rejected(bounds):
    with pytest.raises(ConfigError, match="upper edge"):
        wigner_grid(pure_density(fock_state(0, 5)), bounds=bounds)


def test_default_bounds_centered_on_mean():
    beta = 2.0 + 1.0j
    dm = pure_density(coherent_state(beta, 40))
    (x0, x1), (p0, p1) = default_bounds(dm)
    assert x0 < beta.real < x1 and p0 < beta.imag < p1
    assert abs((x1 - x0) - 8) < 1e-6


def test_raw_array_input_validated():
    rho = pure_density(fock_state(1, 14))
    w = wigner_grid(np.array(rho.mat), bounds=((-4, 4), (-4, 4)))
    assert abs(w.negativity - FOCK1_NEGATIVITY) < 2e-3
    with pytest.raises(ConfigError):
        wigner_grid(np.eye(4))  # trace 4
    with pytest.raises(ConfigError):
        default_bounds(np.ones((3, 2)))


def _random_hermitian_state(rng, support):
    x = rng.normal(size=(support, support)) + 1j * rng.normal(size=(support, support))
    r = x @ x.conj().T
    return r / np.trace(r)


@pytest.mark.parametrize("support", [1, 2, 7, 16, 30])
def test_kernel_matches_both_oracles(support):
    # random Hermitian states against the Laguerre recurrence and against
    # the exact displaced parity, at points out to |beta| = 6
    rng = np.random.default_rng(100 + support)
    rho = _random_hermitian_state(rng, support)
    beta = rng.uniform(0, 6, 24) * np.exp(2j * math.pi * rng.uniform(size=24))
    beta = np.append(beta, [6.0, -6j, 0.0])
    for b in beta:
        xs, ps = np.array([b.real]), np.array([b.imag])
        got = _wigner_values(rho, xs, ps)[0, 0]
        assert abs(got - laguerre_values(rho, xs, ps)[0, 0]) <= 1e-12
        assert abs(got - exact_values(rho, xs, ps)[0, 0]) <= 1e-12


def test_rotation_tables_orthogonal():
    for N, T in enumerate(_rotations(201)):
        assert T.shape == (N + 1, N + 1)
        assert np.max(np.abs(np.einsum("ik,jk->ij", T, T) - np.eye(N + 1))) <= 1e-12


@pytest.mark.parametrize("N", [1, 2, 5, 24, 60])
def test_rotation_table_is_the_45_degree_rotation(N):
    # T^(N) = expm((pi/4) G_N), G antisymmetric tridiagonal with
    # G[j-1, j] = sqrt((N - j + 1) j), and for small N the exact binomial
    # expansion of (a+ - b+)^m (a+ + b+)^n / sqrt(m! n! 2^N)
    T = list(_rotations(N + 1))[N]
    j = np.arange(1, N + 1)
    off = np.sqrt((N - j + 1.0) * j)
    assert np.max(np.abs(T - expm((math.pi / 4) * (np.diag(off, 1) - np.diag(off, -1))))) <= 1e-12
    if N <= 24:
        fact = math.factorial
        exact = np.array([[
            sum(math.comb(N - n, i) * (-1) ** i * math.comb(n, k - i) for i in range(k + 1))
            * math.sqrt(fact(N - k) * fact(k) / (fact(N - n) * fact(n) * 2**N))
            for n in range(N + 1)] for k in range(N + 1)])
        assert np.max(np.abs(T - exact)) <= 1e-14


def test_hermite_functions_finite_far_out():
    z = np.array([-40.0, -38.5, -20.0, 0.0, 20.0, 38.5, 40.0])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        h = _hermite_functions(200, z)
    assert np.all(np.isfinite(h))
    assert np.max(np.abs(h)) <= math.pi**-0.25  # Cramer's bound


def test_wide_user_grid_matches_exact_oracle():
    rng = np.random.default_rng(12)
    rho = np.zeros((24, 24), dtype=complex)
    rho[:20, :20] = _random_hermitian_state(rng, 20)
    w = wigner_grid(DensityMatrix(rho), bounds=((-10, 10), (-10, 10)), spacing=0.1)
    assert abs(wigner._mean_amplitude(rho)) <= wigner.RECENTER_THRESHOLD  # no shift
    sub = slice(0, None, 8)  # 26 x 26 points, corners included
    ref = exact_values(rho, w.xs[sub], w.ps[sub])
    got = w.values[sub, sub]
    assert np.max(np.abs(got - ref)) <= 1e-12
    shown = np.abs(ref) > 1e-300  # representable: here every value, down to ~1e-138
    assert shown.all()
    assert np.max(np.abs(got - ref)[shown] / np.abs(ref[shown])) <= 1e-10


CAPTURE_PRESETS = {f"drive{a}": (SystemConfig(alpha=a, M=1), b) for a, b in DRIVE_SERIES}
CAPTURE_PRESETS.update({f"parity{m}": (SystemConfig(alpha=PARITY_DRIVE, M=m), PARITY_BIN)
                        for m in (1, 2, 3)})
CAPTURE_PRESETS["noise"] = (SystemConfig(alpha=NOISE_DRIVE, M=1, gamma_D=0.5), NOISE_BIN)


@functools.cache
def _captured(name):
    return propagate(*CAPTURE_PRESETS[name]).rho_v


@pytest.mark.parametrize("name", list(CAPTURE_PRESETS))
def test_capture_presets_match_laguerre_oracle(name, monkeypatch):
    # every grid the refinement evaluates, and the half-spacing grid, against
    # the Laguerre oracle; negativities below the refinement's floor
    # are quadratures of rounding and are compared at that floor's scale
    rho = _captured(name)
    fast = wigner_grid(rho)
    errors = []

    def oracle(mat, xs, ps):
        ref = laguerre_values(mat, xs, ps)
        errors.append(float(np.max(np.abs(_wigner_values(mat, xs, ps) - ref))))
        return ref

    monkeypatch.setattr(wigner, "_wigner_values", oracle)
    slow = wigner_grid(rho)
    if slow.levels == 1:
        wigner._evaluate(rho.mat, default_bounds(rho), DEFAULT_SPACING / 2)
    assert len(errors) >= 2 and max(errors) <= 1e-12
    assert fast.levels == slow.levels
    assert abs(fast.negativity - slow.negativity) <= 1e-10 * max(slow.negativity, REFINE_ABS_FLOOR)
    assert abs(fast.norm - slow.norm) <= 1e-10 * abs(slow.norm)
