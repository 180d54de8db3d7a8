"""Which functions on a group are characteristic functions of a state?

Exactly the normalized positive definite ones: f(e) = 1 and the translated
Gram matrix X[g,h] = f(g^-1 h) is PSD.  Equivalently, every Fourier block
B_mu = d_mu * avg_g f(g^-1) U_mu(g) is Hermitian PSD.  Both routes are
implemented: the block test produces per-irrep diagnostics, and the Gram
route powers the constructive inverse, which rebuilds a representation and a
cyclic unit vector realizing a valid f.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidCharacteristicFunctionError, InvalidParameterError
from .linalg import frob, min_eigenvalue, polar_unitary, scaled_tol
from .reps import IrrepDecomposition, UnitaryRep, _require_every_irrep
from .states import CharFunction, QuantumState, fourier_blocks

_DEFAULT_RANK_TOL = 1e-10


@dataclass(eq=False)
class BochnerReport:
    """Outcome of the positive-definiteness test with per-block diagnostics."""

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

    rep: UnitaryRep
    state: QuantumState
    dim: int


def is_positive_definite(
    f: CharFunction, dec_of_regular: IrrepDecomposition, tol: float | None = None
) -> BochnerReport:
    """Test a candidate function blockwise over all irreps of the group.

    The decomposition must hold every irrep of f's group, as the regular
    representation's does: one over another group raises GroupMismatchError,
    one missing an irrep InvalidParameterError.  The verdict is true iff all
    Fourier blocks are Hermitian PSD within tolerance; the report carries the
    most negative block eigenvalue and where it occurred.  Normalization
    f(e) = 1 is reported separately and does not affect positive
    definiteness.  A negative tol raises InvalidParameterError.
    """
    if tol is None:
        tol = scaled_tol(f.values)
    if not tol >= 0:
        raise InvalidParameterError(f"tol must be nonnegative, got {tol}")
    _require_every_irrep(f.group, dec_of_regular)
    blocks = fourier_blocks(f.values, dec_of_regular)
    herm_residual = max(frob(b - b.conj().T) for b in blocks)
    minima = {blk.label: min_eigenvalue(b) for blk, b in zip(dec_of_regular.blocks, blocks)}
    worst = min(minima, key=minima.get)
    scale = max(1.0, max(frob(b) for b in blocks))
    ok = minima[worst] >= -tol * scale and herm_residual <= tol * scale
    return BochnerReport(
        positive_definite=bool(ok),
        normalized=bool(abs(f.values[0] - 1.0) <= max(tol, 1e-9)),
        min_eigenvalue=minima[worst],
        worst_block=worst,
        block_min_eigenvalues=minima,
        hermiticity_residual=herm_residual,
    )


def gns_construct(f: CharFunction, rank_tol: float = _DEFAULT_RANK_TOL) -> GnsResult:
    """Build a representation and cyclic vector whose chi equals f.

    The translated Gram matrix X[g,h] = f(g^-1 h) embeds one vector per group
    element, with v_e the cyclic unit vector; left translation of the labels
    preserves the Gram form (X depends only on g^-1 h), so it extends to a
    unitary representation on the span.  The carrier dimension is the rank of
    X with eigenvalues below rank_tol * (largest eigenvalue) truncated.

    Raises InvalidCharacteristicFunctionError if f is not normalized positive
    definite, and InvalidParameterError unless 0 <= rank_tol < 1.
    """
    if not 0 <= rank_tol < 1:
        raise InvalidParameterError(f"rank_tol must lie in [0, 1), got {rank_tol}")
    group = f.group
    n = group.order
    x = f.values[group.mul[group.inv]]  # x[g,h] = f(g^-1 h)
    tol = scaled_tol(x)
    if not frob(x - x.conj().T) <= tol:
        raise InvalidCharacteristicFunctionError(
            "candidate function is not Hermitian-symmetric: f(g^-1) != conj(f(g))"
        )
    if abs(f.values[0] - 1.0) > 1e-8:
        raise InvalidCharacteristicFunctionError(
            f"candidate function is not normalized: f(e) = {f.values[0]:.6f}"
        )
    vals, vecs = np.linalg.eigh(0.5 * (x + x.conj().T))
    top = float(vals[-1])
    if vals[0] < -max(tol, 1e-9 * max(top, 1.0)):
        raise InvalidCharacteristicFunctionError(
            f"candidate function is not positive definite: Gram eigenvalue {vals[0]:.3e} < 0"
        )
    keep = vals > rank_tol * top
    lam = vals[keep]
    m = vecs[:, keep]
    rank = int(lam.size)
    phi = (np.sqrt(lam)[:, None]) * m.conj().T  # columns are the embedded vectors
    pinv = m / np.sqrt(lam)[None, :]
    mats = np.empty((n, rank, rank), dtype=complex)
    for k in range(n):
        mats[k] = polar_unitary(phi[:, group.mul[k]] @ pinv)
    rep = UnitaryRep(group, mats)
    state = QuantumState.pure(phi[:, 0])
    return GnsResult(rep=rep, state=state, dim=rank)
