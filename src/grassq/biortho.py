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

Every residual of the decomposition and the ladders is a spectral
norm, the largest singular value, read from one
``np.linalg.svd(x, compute_uv=False)`` call (``_spectral_norm``);
:func:`instantiate_numeric` reads the Frobenius norm of each word.  A
decomposition's scale (the norm of H) and its residuals are computed
once each, lazily, from the decomposition as constructed
(:attr:`BiorthoDecomp.scale`, :attr:`BiorthoDecomp.residuals`):
:func:`biortho_decompose`'s own guard and the numeric suite read the one
copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (ComplexSpectrumError, DecompositionError,
                     DefectiveMatrixError, DegenerateSpectrumError,
                     EngineError)
from .opalg import OpExpr, PHI, PSI
from .scalars import finite_positive

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class BiorthoDecomp:
    """Eigendata of a real-spectrum diagonalizable matrix.

    Psi columns are unit-norm right eigenvectors with the phase gauge
    that their largest component is real positive; Phi columns are the
    left-conjugate partners scaled for exact pairing.  :attr:`scale` and
    :attr:`residuals` are computed once, on first read, from the instance
    as constructed; the fields cannot be reassigned, so both stay those
    of the fields, and ``dataclasses.replace`` builds an instance that
    computes its own.
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

    @cached_property
    def scale(self) -> float:
        """Spectral norm of H, floored at 1e-300: every relative residual
        divides by it."""
        return _matrix_scale(self.H)

    @cached_property
    def residuals(self) -> dict[str, float]:
        """:func:`decomposition_residuals` of this decomposition."""
        return decomposition_residuals(self)


def _spectral_norm(x: np.ndarray) -> float:
    """The largest singular value of x, as ``np.linalg.norm(x, 2)``: the
    same LAPACK call, bit for bit, without that function's dispatch."""
    return np.linalg.svd(x, compute_uv=False).max()


def _matrix_scale(H: np.ndarray) -> float:
    return max(_spectral_norm(H), 1e-300)


def biortho_decompose(H, tol: float = DEFAULT_TOL) -> BiorthoDecomp:
    """Biorthonormal eigendecomposition with validated invariants.

    Rejects complex spectra (beyond tol), near-degenerate spectra
    (relative gap below 1e3 * tol) and defective matrices, since the
    ladder constructions assume a complete nondegenerate real spectrum,
    and a matrix whose norm, eigenvalues or eigenvectors overflow to a
    non-finite value, whose residuals could only read NaN.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise DecompositionError("H must be a square matrix")
    n = H.shape[0]
    if n < 2:
        raise DecompositionError("need at least a two-level system")
    scale = _matrix_scale(H)
    w, V = np.linalg.eig(H)
    if not (np.isfinite(scale) and np.isfinite(w).all()
            and np.isfinite(V).all()):
        raise DecompositionError(
            "H overflows: its norm, eigenvalues or eigenvectors are not finite")
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
    residual = max(decomp.residuals.values())
    # NaN compares false, so only this form refuses a NaN residual
    if not residual <= 1e3 * tol:
        raise DecompositionError(
            f"decomposition residual {residual:.3e} exceeds tolerance")
    return decomp


def decomposition_residuals(d: BiorthoDecomp) -> dict[str, float]:
    """Relative residuals of every defining property of the eigendata.

    Each is a spectral norm; ``d.residuals`` keeps the one computation.
    """
    scale = d.scale
    eye = np.eye(d.size)
    right = _spectral_norm(d.H @ d.Psi - d.Psi * d.E) / scale
    left = _spectral_norm(d.H.conj().T @ d.Phi - d.Phi * d.E) / scale
    pairing = _spectral_norm(d.Phi.conj().T @ d.Psi - eye)
    completeness = _spectral_norm(d.Psi @ d.Phi.conj().T - eye)
    eta_herm = _spectral_norm(d.eta - d.eta.conj().T) / _spectral_norm(d.eta)
    eta_pair = _spectral_norm(d.eta @ d.eta_inv - eye)
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
    residual = _spectral_norm(d.eta @ d.H @ d.eta_inv - d.H.conj().T) / d.scale
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
    ordering, and b~' must coincide with the plain adjoint of b.  That
    last residual is zero by algebra whenever eta is Hermitian and
    eta eta^-1 = I (eta (eta b eta^-1)^dag eta^-1 = b^dag), so it
    re-reads those two properties of the decomposition.
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
    bnorm = max(_spectral_norm(b), 1e-300)
    bn = np.linalg.matrix_power(b / bnorm, n)
    return LadderMatrices(
        b=b, b_sharp=b_sharp, b_tilde=b_tilde, b_tilde_sharp_prime=btsp,
        nilpotency_residual=float(_spectral_norm(bn)),
        sharp_form_residual=float(
            _spectral_norm(b_sharp - b_sharp_direct) / bnorm),
        dagger_residual=float(_spectral_norm(btsp - b.conj().T) / bnorm),
    )


def _dyad_matrix(d: BiorthoDecomp, dyad) -> np.ndarray:
    """The matrix of a dyad, its shape its kind: n x n for an operator,
    n x 1 for a ket and 1 x n for a bra."""
    n = d.size
    cols = {PSI: d.Psi, PHI: d.Phi}
    k, b = dyad
    if k and b:
        return np.outer(cols[k[0]][:, k[1]], cols[b[0]][:, b[1]].conj())
    if k:
        return cols[k[0]][:, k[1]].reshape(n, 1)
    if b:
        return cols[b[0]][:, b[1]].conj().reshape(1, n)
    return np.eye(n, dtype=complex)


def instantiate_numeric(expr: OpExpr, d: BiorthoDecomp,
                        rho_values: Sequence[float]) -> float:
    """Largest Frobenius norm over the Grassmann words of a symbolic expression.

    Words stay formal: the expression is grouped by word, every dyad is
    replaced by its matrix under the decomposition, coefficients are
    evaluated at the given rho, and the max word norm is returned.  A
    word sums terms of one kind, told by the matrix shape: a term whose
    shape differs from the word's first is refused with ``EngineError``
    before its coefficient is read.  A coefficient holding u has no value
    and is refused (``Scalar.eval``).
    The zero expression has no words and returns 0.0 without reading the
    decomposition, so a check that instantiates an exact defect re-reads
    the exact verdict and grounds nothing when that defect is zero.
    """
    if expr.level != d.size:
        raise EngineError(
            f"expression level {expr.level} does not match matrix size {d.size}")
    buckets: dict = {}
    for (word, dyad), coeff in expr.terms.items():
        mat = _dyad_matrix(d, dyad)
        prev = buckets.get(word)
        if prev is not None and prev.shape != mat.shape:
            raise EngineError("cannot mix operator, ket and bra terms per word")
        term = coeff.eval(rho_values) * mat
        buckets[word] = term if prev is None else prev + term
    if not buckets:
        return 0.0
    return max(float(np.linalg.norm(m)) for m in buckets.values())
