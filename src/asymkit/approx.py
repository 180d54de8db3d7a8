"""Optimal approximate interconversion of pure states by invariant unitaries.

The best achievable overlap |<phi| V |psi>| over all unitaries V commuting
with the representation equals the sum over irreducible sectors of the
Uhlmann fidelities of the two reductions,

    max_V |<phi|V|psi>|  =  sum_mu Fid(F_psi_mu, F_phi_mu),
    Fid(A, B)            =  || sqrt(A) sqrt(B) ||_1 ,

and both the maximizer and the per-sector fidelities come from the shared
sector-alignment primitive :meth:`IrrepDecomposition.align` (one batched SVD
of the cross matrices of the two sector coefficient matrices per sector shape).

Three cheaper lower bounds on the optimum are fields of the same report, one
from the trace distance of the reductions and two from the distance of the
characteristic functions (global and per component).  All three read the sector
reductions and their gaps from :meth:`IrrepDecomposition._gap`, the pass that
:func:`asymkit.decide_unitary_g_equivalence` decides on; the inverse Fourier
transform turns the reductions into irrep components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, GroupMismatchError, PureStateRequiredError
from .groups import same_group
from .linalg import assert_psd, psd_sqrt, scaled_tol, trace_norm
from .reps import IrrepDecomposition
from .states import CharFunction, QuantumState, _forward_block, _inverse_block

#: Sectors with less weight than this in both states are left out of the
#: characteristic-function bounds.
_SECTOR_WEIGHT_CUTOFF = 1e-12


@dataclass(eq=False)
class OverlapReport:
    """Optimal overlap, its witness, and three cheaper lower bounds on it:

      bound_trace            1 - (1/2) sum_mu ||F1_mu - F2_mu||_1
      bound_charfunc_global  1 - (1/2) (sum_mu d_mu^2) avg_g |chi1(g) - chi2(g)|
      bound_charfunc_per_mu  1 - (1/2) sum_mu d_mu^2 avg_g |chi1_mu(g) - chi2_mu(g)|

    The charfunc sums run over blocks where either state has weight over 1e-12; adding the
    union's extra blocks only subtracts more, so the bounds stay valid.
    """

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


def max_overlap(psi1: QuantumState, psi2: QuantumState, dec: IrrepDecomposition) -> OverlapReport:
    """Best overlap achievable by an invariant unitary, with its achiever.

    The witness and the per-sector fidelities both come from one
    :meth:`IrrepDecomposition.align` of psi1 onto psi2 (SVDs per sector shape); the optimum is
    the sum of the sector fidelities.  W psi1 and W psi2 are shared with the bounds, which read
    the reductions and gaps of :meth:`IrrepDecomposition._gap` (one call per step over all
    sectors, zero-padded): O(d^3 + |G| K D^2).  A mixed state raises PureStateRequiredError, a
    vector not of dec's dimension DimensionMismatchError.
    """
    if not (psi1.is_pure and psi2.is_pure):
        raise PureStateRequiredError("approximate interconversion is defined for pure states")
    x, y = dec._coefficients(psi1.vec), dec._coefficients(psi2.vec)
    v, shares = dec._align(x, y)
    bound_trace, bound_global, bound_per_mu = _bounds(*dec._gap(x, y), dec)
    return OverlapReport(
        optimal=float(sum(shares)),
        per_mu_fidelity={blk.label: share for blk, share in zip(dec.blocks, shares)},
        witness=v,
        bound_trace=bound_trace,
        bound_charfunc_global=bound_global,
        bound_charfunc_per_mu=bound_per_mu,
    )


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


def _bounds(f1: np.ndarray, f2: np.ndarray, dist: np.ndarray, dec: IrrepDecomposition
            ) -> tuple[float, float, float]:
    """The three lower bounds of :class:`OverlapReport` from the padded reductions F1, F2 and the
    sector gaps ||F1_mu - F2_mu||_1 of :meth:`IrrepDecomposition._gap`; chi1_mu - chi2_mu is the
    inverse row tr((F1_mu - F2_mu) U_mu(g)), and chi1 - chi2 the sum of those rows."""
    _, mats, dims = dec._padded()
    chi_rows = _inverse_block(f1 - f2, mats)
    weight = np.maximum(np.einsum("kii->k", f1).real, np.einsum("kii->k", f2).real)
    active = weight > _SECTOR_WEIGHT_CUTOFF
    dim2 = dims[active] ** 2
    bound_global = 1.0 - 0.5 * int(dim2.sum()) * float(np.mean(np.abs(chi_rows.sum(axis=0))))
    per_total = float(dim2 @ np.abs(chi_rows[active]).mean(axis=1))
    return 1.0 - 0.5 * float(dist.sum()), bound_global, 1.0 - 0.5 * per_total
