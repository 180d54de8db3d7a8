"""Optimal approximate interconversion of pure states by invariant unitaries.

The best achievable overlap |<phi| V |psi>| over all unitaries V commuting
with the representation equals the sum over irreducible sectors of the
Uhlmann fidelities of the two reductions,

    max_V |<phi|V|psi>|  =  sum_mu Fid(F_psi_mu, F_phi_mu),
    Fid(A, B)            =  || sqrt(A) sqrt(B) ||_1 ,

and both the maximizer and the per-sector fidelities come from the shared
sector-alignment primitive :meth:`IrrepDecomposition.align` (one SVD of the
cross matrix of the two sector coefficient matrices per sector).

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
from .reps import IrrepDecomposition
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


def _check_pair(psi: QuantumState, phi: QuantumState, dec: IrrepDecomposition) -> None:
    if not (psi.is_pure and phi.is_pure):
        raise PureStateRequiredError("approximate interconversion is defined for pure states")
    if psi.dim != phi.dim or psi.dim != dec.rep.dim:
        raise DimensionMismatchError("states and decomposition must share one dimension")


def _sector_reductions(psi: QuantumState, phi: QuantumState, dec: IrrepDecomposition):
    """Both states' sector reductions F_mu = A A^dag, in block order."""
    _check_pair(psi, phi, dec)
    return [[a @ a.conj().T for a in dec.vector_sectors(s.vec)] for s in (psi, phi)]


def max_overlap(psi1: QuantumState, psi2: QuantumState, dec: IrrepDecomposition) -> OverlapReport:
    """Best overlap achievable by an invariant unitary, with its achiever.

    The witness and the per-sector fidelities both come from one
    :meth:`IrrepDecomposition.align` of psi1 onto psi2; the optimum is the
    sum of the sector fidelities.
    """
    _check_pair(psi1, psi2, dec)
    v, shares = dec.align(psi1.vec, psi2.vec)
    fidelities = {blk.label: share for blk, share in zip(dec.blocks, shares)}
    optimal = float(sum(shares))
    bound_global, bound_per_mu = bound_from_charfunc(psi1, psi2, dec)
    return OverlapReport(
        optimal=optimal,
        per_mu_fidelity=fidelities,
        witness=v,
        bound_trace=bound_from_trace_distance(psi1, psi2, dec),
        bound_charfunc_global=bound_global,
        bound_charfunc_per_mu=bound_per_mu,
    )


def bound_from_trace_distance(
    psi1: QuantumState, psi2: QuantumState, dec: IrrepDecomposition
) -> float:
    """Lower bound 1 - (1/2) sum_mu ||F1_mu - F2_mu||_1 on the optimal overlap."""
    red1, red2 = _sector_reductions(psi1, psi2, dec)
    total = sum(trace_norm(f1 - f2) for f1, f2 in zip(red1, red2))
    return 1.0 - 0.5 * float(total)


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
    forward = _forward_block(f.values, dec.rep.group, blk)
    return CharFunction(dec.rep.group, _inverse_block(forward, blk))


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
    red1, red2 = _sector_reductions(psi1, psi2, dec)
    rows = [_inverse_block(f1 - f2, blk) for blk, f1, f2 in zip(dec.blocks, red1, red2)]
    active = [
        i
        for i, (f1, f2) in enumerate(zip(red1, red2))
        if max(np.trace(f1).real, np.trace(f2).real) > _SECTOR_WEIGHT_CUTOFF
    ]
    d2 = sum(dec.blocks[i].dim ** 2 for i in active)
    bound_global = 1.0 - 0.5 * d2 * float(np.mean(np.abs(sum(rows))))
    per_total = sum(dec.blocks[i].dim ** 2 * float(np.mean(np.abs(rows[i]))) for i in active)
    return bound_global, 1.0 - 0.5 * per_total
