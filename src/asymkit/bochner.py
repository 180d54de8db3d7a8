"""Which functions on a group are characteristic functions of a state?

Exactly the normalized positive definite ones: f(e) = 1 and the translated
Gram matrix X[g,h] = f(g^-1 h) is Hermitian PSD.  One rule decides it, in the
units of X (:func:`_gram_rule`), from either of two spectra of X: the Fourier
blocks B_mu = d_mu * avg_g f(g^-1) U_mu(g) give gamma = (|G|/d_mu) lambda(Herm
B_mu) per irrep (:func:`is_positive_definite`), and the ``eigh`` of X gives the
eigenbasis in which :func:`gns_construct` rebuilds a block-diagonal rep and a
cyclic unit vector realizing a valid f.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import reps
from .errors import InvalidCharacteristicFunctionError, InvalidParameterError
from .errors import NumericalDegeneracyError
from .linalg import RTOL, frob, min_eigenvalue, scaled_tol
from .states import CharFunction, QuantumState, fourier_blocks

_RANK_TOL = 1e-10


def _gram_rule(f: CharFunction, base: float = RTOL) -> tuple[float, float]:
    """(||X - X^dag||_F, t = base * max(1, ||X||_F)) in O(|G|), as sqrt|G| times
    ||f - f~|| (f~(g) = conj f(g^-1)) and ||f||.  f is positive definite iff the
    residual is <= t and every Gram eigenvalue is >= -t."""
    root_n = f.group.order**0.5
    residual = root_n * frob(f.values - f.values[f.group.inv].conj())
    return residual, base * max(1.0, root_n * frob(f.values))


@dataclass(eq=False)
class BochnerReport:
    """Outcome of the positive-definiteness test with per-block diagnostics, in
    units of X: block mu's eigenvalues are gamma = (|G|/d_mu) lambda(Herm B_mu)."""

    positive_definite: bool
    normalized: bool
    min_eigenvalue: float
    worst_block: int | None
    block_min_eigenvalues: dict[int, float]
    hermiticity_residual: float

    def __bool__(self) -> bool:
        return self.positive_definite


@dataclass(eq=False)
class GnsResult:
    """A representation and cyclic unit vector realizing a group function."""

    rep: reps.UnitaryRep
    state: QuantumState
    dim: int


def is_positive_definite(
    f: CharFunction, dec_of_regular: reps.IrrepDecomposition, tol: float | None = None
) -> BochnerReport:
    """Test a candidate function blockwise over all irreps of the group.

    The decomposition must hold every irrep of f's group, as the regular
    representation's does: one over another group raises GroupMismatchError,
    one missing an irrep InvalidParameterError.  The verdict is the module's
    Gram rule with base tol (default 1e-9), read from the Fourier blocks; the
    report carries the most negative Gram eigenvalue, each block's, and where
    it occurred.  Normalization f(e) = 1 is reported separately and does not
    affect positive definiteness.  A negative tol raises InvalidParameterError,
    a NaN or infinite value of f InvalidCharacteristicFunctionError.
    """
    if not np.isfinite(f.values).all():
        raise InvalidCharacteristicFunctionError("candidate function has a NaN or infinite value")
    if not (tol is None or tol >= 0):
        raise InvalidParameterError(f"tol must be nonnegative, got {tol}")
    reps._require_every_irrep(f.group, dec_of_regular)
    residual, t = _gram_rule(f, RTOL if tol is None else tol)
    n = f.group.order
    blocks = zip(dec_of_regular.blocks, fourier_blocks(f.values, dec_of_regular))
    minima = {blk.label: n / blk.dim * min_eigenvalue(b) for blk, b in blocks}
    worst = min(minima, key=minima.get)
    norm_tol = scaled_tol(f.values) if tol is None else max(tol, RTOL)
    return BochnerReport(
        positive_definite=residual <= t and minima[worst] >= -t,
        normalized=bool(abs(f.values[0] - 1.0) <= norm_tol),
        min_eigenvalue=minima[worst],
        worst_block=worst,
        block_min_eigenvalues=minima,
        hermiticity_residual=residual,
    )


def gns_construct(f: CharFunction) -> GnsResult:
    """Build a representation and cyclic vector whose chi equals f.

    The translated Gram matrix X[g,h] = f(g^-1 h) embeds one vector per group
    element, with v_e the cyclic unit vector; left translation of the labels
    preserves the Gram form (X depends only on g^-1 h), so it extends to a
    unitary representation on the span.  The carrier dimension is the rank of
    X with eigenvalues below 1e-10 * (largest eigenvalue) truncated.  L(k)
    commutes with X, so U(k) = M^dag L(k) M on each eigenvalue cluster's columns
    M (clustered as in :func:`asymkit.decompose`), exactly zero elsewhere.

    Raises InvalidCharacteristicFunctionError if f is not normalized positive
    definite under the module's Gram rule, and NumericalDegeneracyError if chi
    of (U, psi) misses f (a split eigenspace).
    """
    group = f.group
    n = group.order
    residual, t = _gram_rule(f)
    if not residual <= t:
        raise InvalidCharacteristicFunctionError(
            "candidate function is not Hermitian-symmetric: f(g^-1) != conj(f(g))"
        )
    if abs(f.values[0] - 1.0) > 1e-8:
        raise InvalidCharacteristicFunctionError(
            f"candidate function is not normalized: f(e) = {f.values[0]:.6f}"
        )
    x = f.values[group.mul[group.inv]]  # x[g,h] = f(g^-1 h)
    vals, vecs = np.linalg.eigh(0.5 * (x + x.conj().T))
    if not vals[0] >= -t:
        raise InvalidCharacteristicFunctionError(
            f"candidate function is not positive definite: Gram eigenvalue {vals[0]:.3e} < 0"
        )
    keep = vals > _RANK_TOL * vals[-1]
    lam, m = vals[keep], vecs[:, keep]
    psi = np.sqrt(lam) * m[0].conj()  # the embedded v_e
    mats = np.zeros((n, lam.size, lam.size), dtype=complex)
    for idx in reps._cluster_indices(lam, reps._CLUSTER_GAP * max(1.0, lam[-1] - lam[0])):
        c = slice(idx[0], idx[-1] + 1)
        for ks in reps._chunk_slices(n, m[:, c].nbytes):  # (L(k) M)[h] = M[k^-1 h]
            mats[ks, c, c] = m[:, c].conj().T @ m[group.mul[group.inv[ks]], c]
    err = float(np.abs(mats @ psi @ psi.conj() - f.values).max())
    if not err <= t:
        raise NumericalDegeneracyError(f"GNS realization misses f by {err:.3e} > {t:.3e}")
    return GnsResult(rep=reps.UnitaryRep(group, mats), state=QuantumState.pure(psi), dim=lam.size)
