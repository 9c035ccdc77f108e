import warnings
from fractions import Fraction

import numpy as np
import pytest

from grassq.biortho import (biortho_decompose, check_pseudo_hermiticity,
                            decomposition_residuals, instantiate_numeric,
                            numeric_ladder)
from grassq.suites import _default_matrix
from grassq.coherent import check_stability, make_coherent, verify_eigen
from grassq.errors import (ComplexSpectrumError, DecompositionError,
                           DefectiveMatrixError, DegenerateSpectrumError,
                           EngineError)
from grassq.opalg import PHI, PSI
from grassq.resolution import MIXED_PAIRS, solve_weight, verify_resolution

from conftest import random_real_spectrum_matrix

H_REF = np.array([[1.0, 4.0], [1.0, 1.0]])


def test_reference_system():
    d = biortho_decompose(H_REF)
    assert np.allclose(d.E, [-1.0, 3.0], atol=1e-12)
    assert max(decomposition_residuals(d).values()) < 1e-10
    # with the positive-gauge eigenvectors the metric is diag(5/8, 5/2)
    assert np.allclose(d.eta, np.diag([5 / 8, 5 / 2]), atol=1e-10)
    report = check_pseudo_hermiticity(d)
    assert report.passed
    assert report.residual < 1e-10
    assert report.eta_min_eigenvalue > 0


def test_hermitian_reduces_to_orthonormal():
    d = biortho_decompose(np.diag([1.0, 2.0, 4.0]))
    assert np.allclose(d.eta, np.eye(3), atol=1e-12)
    assert np.allclose(np.abs(d.Psi.conj().T @ d.Phi), np.eye(3), atol=1e-12)
    report = check_pseudo_hermiticity(d)
    assert report.residual < 1e-12


def test_rejections():
    with pytest.raises(DefectiveMatrixError):
        biortho_decompose([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DegenerateSpectrumError):
        biortho_decompose(np.eye(2))
    with pytest.raises(ComplexSpectrumError):
        biortho_decompose([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(DecompositionError):
        biortho_decompose(np.ones((2, 3)))
    with pytest.raises(DecompositionError):
        biortho_decompose([[1.0]])


def test_randomized_invariants():
    rng = np.random.default_rng(2024)
    for trial in range(40):
        size = 2 + trial % 5
        H = random_real_spectrum_matrix(rng, size)
        d = biortho_decompose(H)
        assert max(decomposition_residuals(d).values()) < 1e-9, trial
        report = check_pseudo_hermiticity(d)
        assert report.residual < 1e-9
        assert report.eta_min_eigenvalue > 0


def test_numeric_ladders():
    d = biortho_decompose(H_REF)
    ladders = numeric_ladder(d, [2.0])
    assert ladders.nilpotency_residual < 1e-12
    assert ladders.sharp_form_residual < 1e-10
    assert ladders.dagger_residual < 1e-12
    with pytest.raises(EngineError):
        numeric_ladder(d, [])
    with pytest.raises(EngineError):
        numeric_ladder(d, [-1.0])
    for bad in (float("inf"), float("nan"), Fraction(10**400)):
        with pytest.raises(EngineError):
            numeric_ladder(d, [bad])
    d3 = biortho_decompose(_default_matrix(3))
    with pytest.raises(EngineError):
        numeric_ladder(d3, [float("inf"), 1.0])


def test_numeric_bracket_matches_symbolic_closure():
    # the three-level bracket [b_z, b]_q = (rho1 - q rho2 + q^2 rho1) b
    # holds numerically at matching rho
    rng = np.random.default_rng(7)
    H = random_real_spectrum_matrix(rng, 3)
    d = biortho_decompose(H)
    rho = [2.0, 3.0]
    ladders = numeric_ladder(d, rho)
    q = np.exp(2j * np.pi / 3)
    b, bs = ladders.b, ladders.b_sharp
    bz = b @ bs - q * bs @ b
    bracket = bz @ b - q * b @ bz
    prefactor = rho[0] - q * rho[1] + q ** 2 * rho[0]
    assert np.linalg.norm(bracket - prefactor * b, 2) < 1e-9


def test_nilpotency_residual_is_finite_at_tiny_rho():
    d = biortho_decompose(_default_matrix(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        residual = numeric_ladder(d, (1e-300, 1e-300)).nilpotency_residual
    assert np.isfinite(residual) and residual < 1e-12


def test_instantiate_symbolic_zero_defects():
    d = biortho_decompose(H_REF)
    rho = [2.0]
    assert instantiate_numeric(verify_eigen(make_coherent(2, PSI)),
                               d, rho) < 1e-12
    assert instantiate_numeric(check_stability(2, PSI), d, rho,
                               u_value=np.exp(-0.37j)) < 1e-12
    weight = solve_weight(2)
    for pair in MIXED_PAIRS:
        defect = verify_resolution(weight, pair)
        assert instantiate_numeric(defect, d, rho) < 1e-12


def test_instantiate_same_family_gap():
    d = biortho_decompose(H_REF)
    weight = solve_weight(2)
    gap = instantiate_numeric(verify_resolution(weight, (PSI, PSI)), d, [2.0])
    assert gap > 0.1
    # Hermitian limit: both integral families coincide and the gap closes
    dh = biortho_decompose(np.diag([1.0, 2.0]))
    gap_h = instantiate_numeric(verify_resolution(weight, (PSI, PSI)),
                                dh, [2.0])
    assert gap_h < 1e-10


def test_instantiate_level_mismatch():
    d = biortho_decompose(H_REF)
    with pytest.raises(EngineError):
        instantiate_numeric(verify_eigen(make_coherent(3, PSI)), d, [2.0, 3.0])
