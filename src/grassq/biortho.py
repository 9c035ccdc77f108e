"""Numeric toolkit for concrete non-Hermitian matrices with real spectra.

Given a diagonalizable matrix H with real nondegenerate eigenvalues, the
right eigenvectors Psi_i and the rows of the inverse eigenvector matrix
give a biorthonormal pair: Phi = (V^-1)^dagger satisfies
<Phi_i|Psi_j> = delta_ij exactly in exact arithmetic.  The positive
metric is eta = sum |Phi_i><Phi_i| with inverse sum |Psi_i><Psi_i|, and
it intertwines H with its adjoint.

The module also maps symbolic operator expressions onto matrices so that
identities proved symbolically can be checked on concrete systems, and
same-family integrals, which the symbolic layer refuses to evaluate, get
their concrete gap measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (ComplexSpectrumError, DecompositionError,
                     DefectiveMatrixError, DegenerateSpectrumError,
                     EngineError)
from .opalg import OpExpr, PHI, PSI
from .scalars import finite_positive

DEFAULT_TOL = 1e-10


@dataclass
class BiorthoDecomp:
    """Eigendata of a real-spectrum diagonalizable matrix.

    Psi columns are unit-norm right eigenvectors with the phase gauge
    that their largest component is real positive; Phi columns are the
    left-conjugate partners scaled for exact pairing.
    """

    H: np.ndarray
    E: np.ndarray
    Psi: np.ndarray
    Phi: np.ndarray
    eta: np.ndarray
    eta_inv: np.ndarray
    tol: float

    @property
    def size(self) -> int:
        return self.H.shape[0]


def _matrix_scale(H: np.ndarray) -> float:
    return max(np.linalg.norm(H, 2), 1e-300)


def biortho_decompose(H, tol: float = DEFAULT_TOL) -> BiorthoDecomp:
    """Biorthonormal eigendecomposition with validated invariants.

    Rejects complex spectra (beyond tol), near-degenerate spectra
    (relative gap below 1e3 * tol) and defective matrices, since the
    ladder constructions assume a complete nondegenerate real spectrum.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise DecompositionError("H must be a square matrix")
    n = H.shape[0]
    if n < 2:
        raise DecompositionError("need at least a two-level system")
    scale = _matrix_scale(H)
    w, V = np.linalg.eig(H)
    if np.max(np.abs(w.imag)) > tol * scale:
        raise ComplexSpectrumError(
            f"imaginary eigenvalue parts up to {np.max(np.abs(w.imag)):.3e}")
    energies = w.real
    order = np.argsort(energies)
    energies = energies[order]
    V = V[:, order]
    gaps = np.diff(energies)
    if np.min(gaps) < 1e3 * tol * scale:
        # distinguish a genuinely defective matrix from a degenerate
        # but diagonalizable one through the geometric multiplicity
        clusters = []
        start = 0
        for i, g in enumerate(gaps):
            if g >= 1e3 * tol * scale:
                clusters.append((start, i + 1))
                start = i + 1
        clusters.append((start, n))
        for a, b in clusters:
            if b - a > 1:
                rank = np.linalg.matrix_rank(V[:, a:b], tol=1e-8)
                if rank < b - a:
                    raise DefectiveMatrixError(
                        "repeated eigenvalue with too few eigenvectors")
        raise DegenerateSpectrumError(
            f"minimal eigenvalue gap {np.min(gaps):.3e} is below threshold")
    V = V / np.linalg.norm(V, axis=0, keepdims=True)
    for i in range(n):
        j = int(np.argmax(np.abs(V[:, i])))
        phase = V[j, i] / abs(V[j, i])
        V[:, i] = V[:, i] / phase
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > 1.0 / (1e3 * tol):
        raise DefectiveMatrixError("eigenvector matrix is numerically singular")
    Phi = np.linalg.inv(V).conj().T
    eta = Phi @ Phi.conj().T
    eta_inv = V @ V.conj().T
    decomp = BiorthoDecomp(H=H, E=energies, Psi=V, Phi=Phi,
                           eta=eta, eta_inv=eta_inv, tol=tol)
    residual = max(decomposition_residuals(decomp).values())
    if residual > 1e3 * tol:
        raise DecompositionError(
            f"decomposition residual {residual:.3e} exceeds tolerance")
    return decomp


def decomposition_residuals(d: BiorthoDecomp) -> dict[str, float]:
    """Relative residuals of every defining property of the eigendata."""
    scale = _matrix_scale(d.H)
    n = d.size
    eye = np.eye(n)
    right = np.linalg.norm(d.H @ d.Psi - d.Psi * d.E, 2) / scale
    left = np.linalg.norm(d.H.conj().T @ d.Phi - d.Phi * d.E, 2) / scale
    pairing = np.linalg.norm(d.Phi.conj().T @ d.Psi - eye, 2)
    completeness = np.linalg.norm(d.Psi @ d.Phi.conj().T - eye, 2)
    eta_herm = np.linalg.norm(d.eta - d.eta.conj().T, 2) / np.linalg.norm(d.eta, 2)
    eta_pair = np.linalg.norm(d.eta @ d.eta_inv - eye, 2)
    return {
        "right_eigen": right,
        "left_eigen": left,
        "pairing": pairing,
        "completeness": completeness,
        "eta_hermitian": eta_herm,
        "eta_inverse": eta_pair,
    }


@dataclass
class PseudoHermReport:
    residual: float
    eta_min_eigenvalue: float
    passed: bool


def check_pseudo_hermiticity(d: BiorthoDecomp) -> PseudoHermReport:
    """Residual of eta H eta^-1 = H^dagger and positivity of the metric,
    judged against the decomposition's own tolerance."""
    scale = _matrix_scale(d.H)
    residual = np.linalg.norm(d.eta @ d.H @ d.eta_inv - d.H.conj().T, 2) / scale
    min_eig = float(np.min(np.linalg.eigvalsh((d.eta + d.eta.conj().T) / 2)))
    return PseudoHermReport(residual=float(residual),
                            eta_min_eigenvalue=min_eig,
                            passed=residual <= d.tol and min_eig > 0)


@dataclass
class LadderMatrices:
    b: np.ndarray
    b_sharp: np.ndarray
    b_tilde: np.ndarray
    b_tilde_sharp_prime: np.ndarray
    nilpotency_residual: float
    sharp_form_residual: float
    dagger_residual: float


def numeric_ladder(d: BiorthoDecomp, rho_values: Sequence[float]) -> LadderMatrices:
    """Concrete ladder matrices and their defining residuals.

    b = sum_i sqrt(rho_{i+1}) Psi_i Phi_{i+1}^dag; the sharp partner is
    conjugated through the metric, the tilde partner through its inverse
    ordering, and b~' must coincide with the plain adjoint of b.
    """
    n = d.size
    if len(rho_values) < n - 1:
        raise EngineError("need one rho value per ladder step")
    if not all(map(finite_positive, rho_values[:n - 1])):
        raise EngineError("rho values must be finite floats > 0")
    roots = [float(r) ** 0.5 for r in rho_values[:n - 1]]
    b = np.zeros((n, n), dtype=complex)
    b_sharp_direct = np.zeros((n, n), dtype=complex)
    for i in range(n - 1):
        b += roots[i] * np.outer(d.Psi[:, i], d.Phi[:, i + 1].conj())
        b_sharp_direct += roots[i] * np.outer(d.Psi[:, i + 1], d.Phi[:, i].conj())
    b_sharp = d.eta_inv @ b.conj().T @ d.eta
    b_tilde = d.eta @ b @ d.eta_inv
    btsp = d.eta @ b_tilde.conj().T @ d.eta_inv
    bnorm = max(np.linalg.norm(b, 2), 1e-300)
    bn = np.linalg.matrix_power(b / bnorm, n)
    return LadderMatrices(
        b=b, b_sharp=b_sharp, b_tilde=b_tilde, b_tilde_sharp_prime=btsp,
        nilpotency_residual=float(np.linalg.norm(bn, 2)),
        sharp_form_residual=float(
            np.linalg.norm(b_sharp - b_sharp_direct, 2) / bnorm),
        dagger_residual=float(
            np.linalg.norm(btsp - b.conj().T, 2) / bnorm),
    )


def _dyad_matrix(d: BiorthoDecomp, dyad) -> tuple[str, np.ndarray]:
    n = d.size
    cols = {PSI: d.Psi, PHI: d.Phi}
    k, b = dyad
    if k and b:
        return "op", np.outer(cols[k[0]][:, k[1]], cols[b[0]][:, b[1]].conj())
    if k:
        return "ket", cols[k[0]][:, k[1]].reshape(n, 1)
    if b:
        return "bra", cols[b[0]][:, b[1]].conj().reshape(1, n)
    return "op", np.eye(n, dtype=complex)


def instantiate_numeric(expr: OpExpr, d: BiorthoDecomp,
                        rho_values: Sequence[float],
                        u_value: complex = 1.0) -> float:
    """Largest matrix norm over the Grassmann words of a symbolic expression.

    Words stay formal: the expression is grouped by word, every dyad is
    replaced by its matrix under the decomposition, coefficients are
    evaluated at the given rho and u, and the max word norm is returned.
    Zero symbolic expressions instantiate to zero up to rounding.
    """
    if expr.level != d.size:
        raise EngineError(
            f"expression level {expr.level} does not match matrix size {d.size}")
    buckets: dict = {}
    shapes: dict = {}
    for (word, dyad), coeff in expr.terms.items():
        shape, mat = _dyad_matrix(d, dyad)
        prev_shape = shapes.setdefault(word, shape)
        if prev_shape != shape:
            raise EngineError("cannot mix operator, ket and bra terms per word")
        value = coeff.eval(rho_values, u_value)
        if word in buckets:
            buckets[word] = buckets[word] + value * mat
        else:
            buckets[word] = value * mat
    if not buckets:
        return 0.0
    return max(float(np.linalg.norm(m)) for m in buckets.values())
