"""Dense complex linear-algebra helpers shared across modules.

Everything here operates on plain numpy arrays and is tolerant of the mild
Hermiticity/PSD drift that accumulates in chained d <= ~100 computations.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveSemidefiniteError

#: Relative tolerance base used throughout: tol = RTOL * max(1, scale).
RTOL = 1e-9


def frob(x: np.ndarray) -> float:
    """Frobenius norm as a plain float."""
    return float(np.linalg.norm(x))


def scaled_tol(*arrays: np.ndarray, base: float = RTOL) -> float:
    """Default tolerance: relative to the largest input norm, floored at base."""
    scale = 1.0
    for a in arrays:
        scale = max(scale, float(np.linalg.norm(a)))
    return base * scale


def is_hermitian(a: np.ndarray, tol: float) -> bool:
    return frob(a - a.conj().T) <= tol


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def min_eigenvalue(a: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of a, per matrix of a stack (..., d, d)."""
    return np.linalg.eigvalsh(hermitian_part(a))[..., 0]


def assert_psd(a: np.ndarray, tol: float, what: str = "matrix") -> None:
    """Raise unless a is Hermitian PSD within tol."""
    if not is_hermitian(a, tol):
        raise NotPositiveSemidefiniteError(
            f"{what} is not Hermitian: ||A - A^dag|| = {frob(a - a.conj().T):.3e} > {tol:.3e}"
        )
    lo = float(min_eigenvalue(a))
    if lo < -tol:
        raise NotPositiveSemidefiniteError(
            f"{what} is not PSD: min eigenvalue {lo:.3e} < -{tol:.3e}"
        )


def psd_sqrt(a: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix.

    Eigenvalues in [-tol, 0) are treated as exact zeros; anything below -tol
    raises.  This absorbs the negative drift PSD matrices pick up numerically.
    """
    if tol is None:
        tol = scaled_tol(a)
    vals, vecs = np.linalg.eigh(hermitian_part(a))
    if vals[0] < -tol:
        raise NotPositiveSemidefiniteError(
            f"cannot take PSD square root: min eigenvalue {vals[0]:.3e} < -{tol:.3e}"
        )
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def trace_norm(x: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(x, compute_uv=False)))


def polar_unitary(m: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition m = U P, per matrix of a stack."""
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def random_complex(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-corrected QR of a Ginibre matrix."""
    z = random_complex((dim, dim), rng)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))

