import warnings
from dataclasses import fields, replace
from fractions import Fraction
from importlib import import_module

import numpy as np
import pytest

from grassq import biortho as nb
from grassq.biortho import (_spectral_norm, biortho_decompose,
                            check_pseudo_hermiticity,
                            decomposition_residuals, instantiate_numeric,
                            numeric_ladder)
from grassq.suites import Problem, _default_matrix, run_suite
from grassq.coherent import (check_stability, evolve_state, make_coherent,
                             verify_eigen)
from grassq.errors import (ComplexSpectrumError, DecompositionError,
                           DefectiveMatrixError, DegenerateSpectrumError,
                           EngineError)
from grassq.galg import grade
from grassq.opalg import (PHI, PSI, OpExpr, dual_identity_sum, ket, outer,
                          theta_op)
from grassq.resolution import (MIXED_PAIRS, resolution_integral, solve_weight,
                               verify_resolution)
from grassq.scalars import Scalar

from conftest import (bra, clear_construction_caches,
                      random_real_spectrum_matrix, shifted_weight)

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


def test_rejections(monkeypatch):
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
    # every entry is finite, but the norm overflows and the residuals
    # would read NaN
    with pytest.raises(DecompositionError, match="not finite"):
        biortho_decompose(np.full((2, 2), 1e308))
    # a NaN residual is refused, though it compares false with the bound
    with monkeypatch.context() as mutant:
        mutant.setattr(nb, "decomposition_residuals",
                       lambda d: {"right_eigen": float("nan")})
        with pytest.raises(DecompositionError, match="residual nan"):
            biortho_decompose(H_REF)


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


@pytest.mark.parametrize("other", (outer(PSI, 0, PHI, 1), bra(PHI, 1)))
def test_instantiate_refuses_a_word_that_mixes_kinds(other):
    # a word sums matrices of one shape: a ket (n x 1) beside an
    # operator (n x n) or a bra (1 x n) has no sum
    d = biortho_decompose(H_REF)
    mixed = OpExpr(2, {((), ket(PSI, 0)): Scalar.one(2),
                       ((), other): Scalar.s(2, 1)})
    with pytest.raises(EngineError, match="cannot mix operator, ket and bra "
                                          "terms per word"):
        instantiate_numeric(mixed, d, [2.0])


def test_instantiate_sums_the_kets_of_one_word():
    # two ket terms of the empty word are one n x 1 matrix, whose norm
    # is that of the summed vector, not the larger of the two
    d = biortho_decompose(H_REF)
    kets = OpExpr(2, {((), ket(PSI, 0)): Scalar.from_rational(2, 2),
                      ((), ket(PHI, 1)): Scalar.s(2, 1)})
    summed = 2 * d.Psi[:, 0] + 2.0 ** 0.5 * d.Phi[:, 1]
    assert instantiate_numeric(kets, d, [2.0]) == pytest.approx(
        np.linalg.norm(summed), abs=1e-12)


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


def _decomposition_mutants():
    return sorted(name for name, (target, _, _) in BIORTHO_MUTANTS.items()
                  if target == "biortho.BiorthoDecomp")


def _mutated(name, d):
    """The decomposition d as the named BIORTHO_MUTANTS row stores it."""
    _, mutant, _ = BIORTHO_MUTANTS[name]
    build = mutant(type(d))
    return build(**{f.name: getattr(d, f.name) for f in fields(d)})


def test_spectral_norm_is_numpy_norm_2_bit_for_bit():
    rng = np.random.default_rng(29)
    matrices = [np.zeros((3, 3), dtype=complex), np.zeros((2, 2))]
    for n in range(2, 9):
        for _ in range(4):
            matrices.append(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
    # the EPS-perturbed eigendata of each decomposition mutant and the
    # residual matrices read from it
    d = biortho_decompose(_default_matrix(3))
    eye = np.eye(3)
    for name in _decomposition_mutants():
        m = _mutated(name, d)
        matrices += [m.H, m.Psi, m.Phi, m.eta, m.eta_inv,
                     m.H @ m.Psi - m.Psi * m.E,
                     m.H.conj().T @ m.Phi - m.Phi * m.E,
                     m.Phi.conj().T @ m.Psi - eye, m.Psi @ m.Phi.conj().T - eye,
                     m.eta - m.eta.conj().T, m.eta @ m.eta_inv - eye]
    for x in matrices:
        assert float(_spectral_norm(x)).hex() == \
            float(np.linalg.norm(x, 2)).hex()


def test_scale_and_residuals_are_those_of_the_fields():
    d = biortho_decompose(H_REF)
    assert d.scale == np.linalg.norm(H_REF, 2)
    assert d.residuals == decomposition_residuals(d)
    # a replaced H carries its own scale and residuals, not the kept ones
    moved = replace(d, H=3 * H_REF)
    assert moved.scale == np.linalg.norm(3 * H_REF, 2) != d.scale
    assert moved.residuals["right_eigen"] > 0.1


def test_one_biortho_run_makes_one_residual_pass_and_no_numpy_norm_2(
        monkeypatch):
    passes, norm_2, spectral = [], [], []
    plain_residuals = nb.decomposition_residuals
    plain_norm = np.linalg.norm
    plain_spectral = nb._spectral_norm

    def residuals(d):
        passes.append(d)
        return plain_residuals(d)

    def norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            norm_2.append(x)
        return plain_norm(x, ord, *args, **kwargs)

    def counted(x):
        spectral.append(x)
        return plain_spectral(x)

    monkeypatch.setattr(nb, "decomposition_residuals", residuals)
    monkeypatch.setattr(np.linalg, "norm", norm)
    monkeypatch.setattr(nb, "_spectral_norm", counted)
    report = run_suite("biortho",
                       problem=Problem(n=3, rho=(Fraction(2), Fraction(3))))
    assert {c.status for c in report.checks} == {"pass"}
    # read by biortho_decompose's guard and by the six decomp checks
    assert len(passes) == 1
    assert norm_2 == []
    # the spectrum guard's scale of H, the decomposition's own lazy scale,
    # 7 in the residual pass, 1 for pseudo-hermiticity, 4 in numeric_ladder
    # and the suite's Hermitian test
    assert len(spectral) == 15


# The two-sided numeric grounding of the eigen equation and of the
# resolution of identity: each side is instantiated on its own, word by
# word, so the decomposition is read where the symbolic engine contracts
# <phi_i|psi_j> = delta_ij or resolves sum_i |psi_i><phi_i| = I.  The
# report's instantiate checks ground the exact defect, which is the zero
# expression on a working engine, so they read no decomposition at all.

GROUNDING_TOL = 1e-10


def _dyad_as_matrix(d, dyad):
    """|F_i> is column i of Psi or Phi, <G_j| its conjugate row, and the
    identity dyad the identity matrix."""
    cols = {PSI: d.Psi, PHI: d.Phi}
    ket, bra = dyad
    if not (ket or bra):
        return np.eye(d.size)
    column = cols[ket[0]][:, [ket[1]]] if ket else None
    row = cols[bra[0]][:, [bra[1]]].conj().T if bra else None
    if ket and bra:
        return column @ row
    return column if ket else row


def _word_matrices(expr, d, rho):
    out = {}
    for (word, dyad), coeff in expr.terms.items():
        out[word] = out.get(word, 0) + coeff.eval(rho) * _dyad_as_matrix(d, dyad)
    return out


def _gap(left, right):
    """Largest norm over the words of the difference of two word-to-matrix
    maps, a word missing on one side counting as zero there."""
    return max(float(np.linalg.norm(left.get(w, 0) - right.get(w, 0)))
               for w in left.keys() | right.keys())


def _eigen_gap(d, family, rho):
    """b|theta> against theta|theta> for the psi family, b~|theta~>
    against theta|theta~> for the phi family, with b and b~ the matrices of
    ``numeric_ladder``.  Every dyad of a lowering ladder, |F_i><G_(i+1)|,
    gives a word crossing it the phase q^(theta degree - thetabar degree)
    (the opalg crossing rule), so the lowered side of word w is that phase
    times the ladder matrix applied to the state's vector at w."""
    n = d.size
    ladders = numeric_ladder(d, rho)
    lowering = ladders.b if family == PSI else ladders.b_tilde
    state = make_coherent(n, family).body
    lowered = {w: Scalar.q(n, grade(w)[0] - grade(w)[1]).eval(rho)
               * (lowering @ v) for w, v in _word_matrices(state, d, rho).items()}
    scaled = _word_matrices(theta_op(n) @ state, d, rho)
    return _gap(lowered, scaled)


def _resolution_gap(d, pair, rho):
    """int w |A><B| word by word against the identity matrix that
    dual_identity_sum resolves; its own matrix, sum_i |F_i><F'_i|, is
    also the integral's, exactly."""
    n = d.size
    integral = _word_matrices(resolution_integral(solve_weight(n), pair),
                              d, rho)
    assert _gap(integral, _word_matrices(dual_identity_sum(n, pair[0]),
                                         d, rho)) < 1e-12
    return _gap(integral, {(): np.eye(n)})


def _grounding_gaps(d, rho):
    return {"eigen-psi": _eigen_gap(d, PSI, rho),
            "eigen-phi": _eigen_gap(d, PHI, rho),
            **{f"resolution-{ket}-{bra}": _resolution_gap(d, (ket, bra), rho)
               for ket, bra in MIXED_PAIRS}}


@pytest.mark.parametrize("n", range(2, 7))
def test_two_sided_grounding_on_the_default_matrices(n):
    d = biortho_decompose(_default_matrix(n))
    for first in (2.0, 3.0):
        rho = [(first, 5.0 - first)[i % 2] for i in range(n - 1)]
        gaps = _grounding_gaps(d, rho)
        assert max(gaps.values()) < GROUNDING_TOL, (rho, gaps)


# Each decomposition mutant of BIORTHO_MUTANTS with the two-sided residuals
# it moves past tolerance.  Neither identity reads the energies, and both
# hold eta against eta^-1, so the energies and metric-sign rows move none:
# decomp/right_eigen and metric-positive catch those two.
GROUNDING_MUTANTS = {
    "energies": set(),
    "left-vectors": {"eigen-psi", "eigen-phi", "resolution-psi-phi",
                     "resolution-phi-psi"},
    "metric-phase": {"eigen-phi"},
    "metric-sign": set(),
}


def test_grounding_mutants_cover_the_decomposition_mutants():
    assert sorted(GROUNDING_MUTANTS) == _decomposition_mutants()


@pytest.mark.parametrize("name", sorted(GROUNDING_MUTANTS))
def test_two_sided_grounding_under_a_decomposition_mutant(name, monkeypatch):
    plain = nb.BiorthoDecomp
    monkeypatch.setattr(nb, "BiorthoDecomp",
                        lambda **fields: _mutated(name, plain(**fields)))
    gaps = _grounding_gaps(biortho_decompose(_default_matrix(3)), [2.0, 3.0])
    assert {k for k, gap in gaps.items() if gap > GROUNDING_TOL} \
        == GROUNDING_MUTANTS[name], gaps
