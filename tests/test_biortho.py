import warnings
from dataclasses import replace
from fractions import Fraction
from importlib import import_module

import numpy as np
import pytest

from grassq.biortho import (biortho_decompose, check_pseudo_hermiticity,
                            decomposition_residuals, instantiate_numeric,
                            numeric_ladder)
from grassq.suites import Problem, _default_matrix, run_suite
from grassq.coherent import (check_stability, evolve_state, make_coherent,
                             verify_eigen)
from grassq.errors import (ComplexSpectrumError, DecompositionError,
                           DefectiveMatrixError, DegenerateSpectrumError,
                           EngineError)
from grassq.opalg import PHI, PSI
from grassq.resolution import MIXED_PAIRS, solve_weight, verify_resolution

from conftest import (clear_construction_caches, random_real_spectrum_matrix,
                      shifted_weight)

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
    assert instantiate_numeric(check_stability(2, PSI), d, rho) < 1e-12
    weight = solve_weight(2)
    for pair in MIXED_PAIRS:
        defect = verify_resolution(weight, pair)
        assert instantiate_numeric(defect, d, rho) < 1e-12


def test_instantiate_refuses_a_term_holding_u():
    # u, the evolution phase, has no value, as a rho without a value has
    # none: the evolved state's second term carries u
    d = biortho_decompose(H_REF)
    evolved = evolve_state(make_coherent(2, PSI))
    with pytest.raises(ValueError, match="no value supplied for u"):
        instantiate_numeric(evolved, d, [2.0])
    with pytest.raises(ValueError, match="no value supplied for rho_1"):
        instantiate_numeric(make_coherent(2, PSI).body, d, [])


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


def test_a_problem_short_of_rho_values_is_refused_by_the_suite():
    # the 3x3 fallback matrix has two ladder steps but the problem one rho;
    # numeric_ladder refuses it before any check can be reported
    with pytest.raises(EngineError, match="need one rho value per ladder step"):
        run_suite("biortho", problem=Problem(n=3, rho=(Fraction(2),)))


def _decomposed(**changes):
    """A mutant of ``biortho.BiorthoDecomp``: the decomposition stores each
    named field changed, before its own residual guard reads it."""
    def mutant(plain):
        def build(**fields):
            for name, change in changes.items():
                fields[name] = change(fields[name])
            return plain(**fields)
        return build
    return mutant


# Above every residual tolerance the suite judges (1e-9 and below), and
# far enough under biortho_decompose's own guard, 1e3 * tol = 1e-7, that a
# decomposition mutant still reaches the checks: the guard would raise out
# of run_suite instead.
EPS = 1e-8

# One row per mutant: the grassq name it replaces, the replacement built
# from the plain value, and the biortho checks at n = 3 it must fail;
# other checks may move.
BIORTHO_MUTANTS = {
    # every energy off by EPS of the largest
    "energies": (
        "biortho.BiorthoDecomp",
        _decomposed(E=lambda E: E + EPS * np.abs(E).max()),
        {"decomp/right_eigen", "decomp/left_eigen"}),
    # each left vector leans by EPS towards its neighbour
    "left-vectors": (
        "biortho.BiorthoDecomp",
        _decomposed(Phi=lambda Phi: Phi + EPS * np.roll(Phi, 1, axis=1)),
        {"decomp/left_eigen", "decomp/pairing", "decomp/completeness",
         "ladder/nilpotency", "ladder/sharp-form"}),
    # the metric gains the anti-Hermitian part i EPS
    "metric-phase": (
        "biortho.BiorthoDecomp",
        _decomposed(eta=lambda eta: eta + 1j * EPS * np.eye(len(eta))),
        {"decomp/eta_hermitian", "decomp/eta_inverse", "pseudo-hermiticity",
         "ladder/sharp-form", "ladder/dagger"}),
    # the metric and its inverse with the wrong sign: every identity that
    # holds eta against eta^-1 still holds, only positivity fails
    "metric-sign": (
        "biortho.BiorthoDecomp",
        _decomposed(eta=lambda eta: -eta, eta_inv=lambda inv: -inv),
        {"metric-positive"}),
    # the phi family instantiated with psi's vectors, as for a Hermitian H
    "one-family": (
        "biortho._dyad_matrix",
        lambda plain: lambda d, dyad: plain(replace(d, Phi=d.Psi), dyad),
        {"instantiate/same-family-gap"}),
    # the lowering operator with 2 s_i in place of s_i
    "ladder-scale": (
        "coherent.make_ladder",
        lambda plain: lambda level: plain(level).scale(2),
        {"instantiate/eigen-defect"}),
    "weight-shift": ("resolution._weight", shifted_weight,
                     {"instantiate/mixed-resolution"}),
}


@pytest.mark.parametrize("name", sorted(BIORTHO_MUTANTS))
def test_each_biortho_check_fails_under_a_named_mutant(
        name, monkeypatch, fresh_caches):
    # every biortho check at n = 3 (rho 2, 3; the seeded non-Hermitian
    # fallback matrix) has a row
    problem = Problem(n=3, rho=(Fraction(2), Fraction(3)))

    def statuses():
        return {c.id: c.status
                for c in run_suite("biortho", problem=problem).checks}

    clean = statuses()
    assert {f"biortho/{i}" for _, _, flips in BIORTHO_MUTANTS.values()
            for i in flips} == set(clean)
    assert set(clean.values()) == {"pass"}
    target, mutant, flips = BIORTHO_MUTANTS[name]
    module, attr = target.split(".")
    owner = import_module(f"grassq.{module}")
    monkeypatch.setattr(owner, attr, mutant(getattr(owner, attr)))
    clear_construction_caches()
    mutated = statuses()
    assert {i: mutated[f"biortho/{i}"] for i in flips} == {
        i: "fail" for i in flips}
