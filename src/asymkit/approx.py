"""Optimal approximate interconversion of pure states by invariant unitaries.

The best achievable overlap |<phi| V |psi>| over all unitaries V commuting
with the representation equals the sum over irreducible sectors of the
Uhlmann fidelities of the two reductions,

    max_V |<phi|V|psi>|  =  sum_mu Fid(F_psi_mu, F_phi_mu),
    Fid(A, B)            =  || sqrt(A) sqrt(B) ||_1 ,

and both the maximizer and the per-sector fidelities come from the shared
sector-alignment primitive :meth:`IrrepDecomposition.align` (one batched SVD
of the cross matrices of the two sector coefficient matrices per sector shape).

Two cheaper lower bounds on the optimum are provided, one from the trace
distance of the reductions and one from the distance of the characteristic
functions (global and per-component variants).  Both start from the sector
reductions, which the inverse Fourier transform turns into irrep components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, GroupMismatchError, PureStateRequiredError
from .groups import same_group
from .linalg import assert_psd, psd_sqrt, scaled_tol, trace_norm
from .reps import IrrepDecomposition, _dagger
from .states import CharFunction, QuantumState, _forward_block, _inverse_block

#: Sectors with less weight than this in both states are left out of the
#: characteristic-function bounds.
_SECTOR_WEIGHT_CUTOFF = 1e-12


@dataclass(eq=False)
class OverlapReport:
    """Optimal overlap, its witness, and the cheaper lower bounds."""

    optimal: float
    per_mu_fidelity: dict[int, float]
    witness: np.ndarray
    bound_trace: float
    bound_charfunc_global: float
    bound_charfunc_per_mu: float


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Uhlmann fidelity of two PSD matrices: trace norm of sqrt(a) sqrt(b)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatchError("fidelity requires equally sized matrices")
    tol = scaled_tol(a, b, base=1e-8)
    assert_psd(a, tol, what="fidelity argument")
    assert_psd(b, tol, what="fidelity argument")
    return trace_norm(psd_sqrt(a, tol) @ psd_sqrt(b, tol))


def _pair_coefficients(psi: QuantumState, phi: QuantumState, dec: IrrepDecomposition):
    """Both states' coefficients W psi, W phi (:meth:`IrrepDecomposition._coefficients`)."""
    if not (psi.is_pure and phi.is_pure):
        raise PureStateRequiredError("approximate interconversion is defined for pure states")
    if psi.dim != phi.dim or psi.dim != dec.rep.dim:
        raise DimensionMismatchError("states and decomposition must share one dimension")
    return dec._coefficients(psi.vec), dec._coefficients(phi.vec)


def max_overlap(psi1: QuantumState, psi2: QuantumState, dec: IrrepDecomposition) -> OverlapReport:
    """Best overlap achievable by an invariant unitary, with its achiever.

    The witness and the per-sector fidelities both come from one
    :meth:`IrrepDecomposition.align` of psi1 onto psi2 (SVDs per sector shape); the optimum is
    the sum of the sector fidelities.  W psi1 and W psi2 are shared with the bounds, which take
    one call per step over all sectors, zero-padded: O(d^3 + |G| K D^2).
    """
    x, y = _pair_coefficients(psi1, psi2, dec)
    v, shares = dec._align(x, y)
    bound_trace, bound_global, bound_per_mu = _bounds(x, y, dec)
    return OverlapReport(
        optimal=float(sum(shares)),
        per_mu_fidelity={blk.label: share for blk, share in zip(dec.blocks, shares)},
        witness=v,
        bound_trace=bound_trace,
        bound_charfunc_global=bound_global,
        bound_charfunc_per_mu=bound_per_mu,
    )


def bound_from_trace_distance(
    psi1: QuantumState, psi2: QuantumState, dec: IrrepDecomposition
) -> float:
    """Lower bound 1 - (1/2) sum_mu ||F1_mu - F2_mu||_1 on the optimal overlap."""
    return _bounds(*_pair_coefficients(psi1, psi2, dec), dec)[0]


def irrep_component(f: CharFunction, dec: IrrepDecomposition, index: int) -> CharFunction:
    """Component of a group function living on one irreducible block.

    chi_mu = d_mu * (phi_mu conv f) with phi_mu the block's character.  As phi_mu
    is a class function, this is the inverse row of f's forward block B_mu,
    tr(B_mu U_mu(g)): O(|G| d_mu^2).  The components of a state's
    characteristic function sum back to it and vanish on every block the state
    does not occupy.
    """
    if not same_group(f.group, dec.rep.group):
        raise GroupMismatchError("function and decomposition must share the group")
    blk = dec.blocks[index]
    forward = _forward_block(f.values, dec.rep.group, blk.mats, blk.dim)
    return CharFunction(dec.rep.group, _inverse_block(forward, blk.mats))


def bound_from_charfunc(
    psi1: QuantumState, psi2: QuantumState, dec: IrrepDecomposition
) -> tuple[float, float]:
    """Characteristic-function lower bounds on the optimal overlap.

    Returns (global, per_component):

      global         1 - (1/2) (sum_mu d_mu^2) avg_g |chi1(g) - chi2(g)|
      per_component  1 - (1/2) sum_mu d_mu^2 avg_g |chi1_mu(g) - chi2_mu(g)|

    The sums run over blocks where either state has nonzero weight; adding
    the union's extra blocks only subtracts more, so the bound stays valid.
    chi1_mu - chi2_mu is the inverse row of F1_mu - F2_mu, and chi1 - chi2 the
    sum of those rows: O(|G| sum_mu d_mu^2).
    """
    return _bounds(*_pair_coefficients(psi1, psi2, dec), dec)[1:]


def _bounds(x: np.ndarray, y: np.ndarray, dec: IrrepDecomposition) -> tuple[float, float, float]:
    """The trace-distance and both characteristic-function bounds from x = W psi1, y = W psi2 in
    one call per step over the padded sectors: F1, F2, ||F1 - F2||_1 as sum |lambda| of one
    eigvalsh (a zero border adds zeros), the inverse rows tr((F1_mu - F2_mu) U_mu(g))."""
    rows, mats, dims = dec._padded()
    f1, f2 = (z @ _dagger(z) for z in (x[rows], y[rows]))
    gap = f1 - f2
    dist = float(np.abs(np.linalg.eigvalsh(gap)).sum())
    chi_rows = _inverse_block(gap, mats)
    weight = np.maximum(np.einsum("kii->k", f1).real, np.einsum("kii->k", f2).real)
    active = weight > _SECTOR_WEIGHT_CUTOFF
    dim2 = dims[active] ** 2
    bound_global = 1.0 - 0.5 * int(dim2.sum()) * float(np.mean(np.abs(chi_rows.sum(axis=0))))
    per_total = float(dim2 @ np.abs(chi_rows[active]).mean(axis=1))
    return 1.0 - 0.5 * dist, bound_global, 1.0 - 0.5 * per_total
