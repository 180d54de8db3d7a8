"""Deciding when two pure states are interconvertible by symmetric dynamics.

Two notions are implemented, both with explicit witnesses:

* unitary equivalence under the group: some unitary commuting with the whole
  representation maps one state to the other.  Holds iff the two reductions
  onto irreps coincide, and the witness is assembled sector by sector from
  the multiplicity-space alignment of the two states.
* full equivalence under symmetric channels: holds iff the characteristic
  functions agree up to a one-dimensional representation, with the caveat
  that for finite groups the "only if" direction is proven only when both
  characteristic functions vanish nowhere; outside that regime the verdict
  is Inconclusive rather than a guess.

Mixed states are rejected by both deciders: reductions and characteristic
functions do not determine the equivalence class of a mixed state (a pure
and a mixed state can share the same characteristic function yet lie in
different classes), so answering would be wrong, not just unproven.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    GroupMismatchError,
    InvalidParameterError,
    NotInvariantIsometryError,
    PureStateRequiredError,
    ValidationError,
)
from .groups import same_group
from .linalg import assert_psd, frob, polar_unitary, scaled_tol
from .reps import (IrrepDecomposition, UnitaryRep, _chunk_slices, _dagger, _frob_each,
                   _require_every_irrep, decompose, one_dim_reps)
from .states import QuantumState, WeightState, charfunc

#: Per-element absolute tolerance for characteristic-function equality.
CHI_MATCH_TOL = 1e-8
#: Elements where |chi| falls below this are treated as vanishing.
CHI_ZERO_THRESHOLD = 1e-6


class EquivalenceStatus(enum.Enum):
    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not_equivalent"
    INCONCLUSIVE = "inconclusive"


@dataclass(eq=False)
class EquivalenceVerdict:
    """Outcome of an equivalence decision.

    witness       unitary commuting with the representation (unitary case).
    one_dim_rep   per-element phase vector omega with chi_phi = omega * chi_psi
                  (full equivalence case).
    certificate   group element where the characteristic functions differ in
                  modulus, which no unimodular factor can repair.
    """

    status: EquivalenceStatus
    witness: np.ndarray | None = None
    one_dim_rep: np.ndarray | None = None
    certificate: int | None = None

    def __bool__(self) -> bool:
        return self.status is EquivalenceStatus.EQUIVALENT


def _require_pure(*states: QuantumState) -> None:
    for s in states:
        if not s.is_pure:
            raise PureStateRequiredError(
                "equivalence deciders accept pure states only: reductions and "
                "characteristic functions do not determine mixed-state classes"
            )


def gram(states: list[QuantumState]) -> np.ndarray:
    """Gram matrix X[i,j] = <psi_i|psi_j> of a list of pure states."""
    _require_pure(*states)
    dims = {s.dim for s in states}
    if len(dims) != 1:  # no state fixes the dimension of an empty list
        raise DimensionMismatchError("a Gram matrix needs states, all of one dimension")
    vecs = np.array([s.vec for s in states])
    x = vecs.conj() @ vecs.T
    assert_psd(x, scaled_tol(x), what="Gram matrix")
    return x


def unitary_set_interconversion(a: list[QuantumState], b: list[QuantumState]) -> np.ndarray | None:
    """A unitary V with V psi_i = phi_i for all i, or None.

    Such a V exists iff the two Gram matrices agree (entrywise within 1e-8).
    Construction: with A = [psi_i] = E_a S F^dag and an equal Gram matrix,
    B = [phi_i] = E_b S F^dag, so B A^dag = E_b S^2 E_a^dag and its unitary
    polar factor maps span(a) onto span(b) as required, completed on the
    orthogonal complements.
    """
    if len(a) != len(b):
        raise DimensionMismatchError("both sets must contain the same number of states")
    if np.max(np.abs(gram(a) - gram(b))) > 1e-8:
        return None
    va = np.array([s.vec for s in a]).T  # d x n, columns psi_i
    vb = np.array([s.vec for s in b]).T
    v = polar_unitary(vb @ va.conj().T)
    worst = float(np.linalg.norm(v @ va - vb, axis=0).max())
    if worst > 1e-6 * max(1.0, np.sqrt(va.shape[0])):
        raise ValidationError(
            f"interconversion witness failed its mapping bound: residual {worst:.3e}"
        )
    return v


def decide_unitary_g_equivalence(
    psi: QuantumState,
    phi: QuantumState,
    dec: IrrepDecomposition,
    tol: float = 1e-8,
) -> EquivalenceVerdict:
    """Decide whether an invariant unitary maps psi to phi, and build one.

    Equivalent iff every sector satisfies ||F_psi_mu - F_phi_mu||_1 <= tol, read from
    :meth:`IrrepDecomposition._gap`, which :func:`asymkit.max_overlap`'s bounds read too.
    On success the witness is :meth:`IrrepDecomposition.align` of psi onto
    phi: with equal reductions every sector's alignment saturates the
    Cauchy-Schwarz bound, which forces V psi = phi with no phase left over.
    A negative tol raises InvalidParameterError, a vector not of dec's dimension
    DimensionMismatchError.
    """
    if not tol >= 0:
        raise InvalidParameterError(f"tol must be nonnegative, got {tol}")
    _require_pure(psi, phi)
    x, y = dec._coefficients(psi.vec), dec._coefficients(phi.vec)
    if not (dec._gap(x, y)[2] <= tol).all():
        # A |chi| gap below CHI_MATCH_TOL is rounding, whatever the sector tol.
        cert = _modulus_certificate(
            charfunc(psi, dec.rep).values, charfunc(phi, dec.rep).values, max(tol, CHI_MATCH_TOL)
        )
        return EquivalenceVerdict(EquivalenceStatus.NOT_EQUIVALENT, certificate=cert)
    v, _ = dec._align(x, y)
    return EquivalenceVerdict(EquivalenceStatus.EQUIVALENT, witness=v)


def _modulus_certificate(chi1: np.ndarray, chi2: np.ndarray, tol: float) -> int | None:
    gap = np.abs(np.abs(chi1) - np.abs(chi2))
    g = int(np.argmax(gap))
    return g if gap[g] > tol else None


def decide_g_equivalence(
    psi: QuantumState,
    phi: QuantumState,
    r: UnitaryRep,
    dec_regular: IrrepDecomposition | None = None,
) -> EquivalenceVerdict:
    """Decide reversible interconvertibility under symmetric channels.

    Scans every one-dimensional representation omega of the group for
    chi_phi(g) = omega(g) chi_psi(g).  A match proves equivalence.  If no
    omega matches and both characteristic functions vanish nowhere, the
    states are provably inequivalent; if either vanishes somewhere, the
    inequivalence argument does not apply and the verdict is Inconclusive.
    The omegas always come from the group's character table (:func:`one_dim_reps`); a
    dec_regular given is only checked to hold every irrep (else InvalidParameterError) of r's
    group (else GroupMismatchError).
    """
    if dec_regular is not None:
        _require_every_irrep(r.group, dec_regular)
    _require_pure(psi, phi)
    chi_psi = charfunc(psi, r).values
    chi_phi = charfunc(phi, r).values
    omegas = one_dim_reps(r.group)
    big = np.abs(chi_psi) > CHI_ZERO_THRESHOLD
    misses = (np.abs(chi_phi[big] - omegas[:, big] * chi_psi[big]) > CHI_MATCH_TOL).any(axis=1)
    # where chi_psi vanishes chi_phi must vanish too, whatever omega; the first match wins
    if not misses.all() and not (np.abs(chi_phi[~big]) > CHI_ZERO_THRESHOLD).any():
        return EquivalenceVerdict(EquivalenceStatus.EQUIVALENT, one_dim_rep=omegas[misses.argmin()])
    cert = _modulus_certificate(chi_psi, chi_phi, CHI_MATCH_TOL)
    if big.all() and (np.abs(chi_phi) > CHI_ZERO_THRESHOLD).all():  # both vanish nowhere
        return EquivalenceVerdict(EquivalenceStatus.NOT_EQUIVALENT, certificate=cert)
    return EquivalenceVerdict(EquivalenceStatus.INCONCLUSIVE, certificate=cert)


def u1_shift_equivalence(w_psi: WeightState, w_phi: WeightState) -> int | None:
    """Integer Delta with p_psi(n) = p_phi(n + Delta) for all n, or None.

    Probabilities are compared within 1e-9.  Weight distributions that are
    rigid shifts of each other are exactly the phase-symmetry-equivalent pure
    states of the weight model; the matching one-dimensional representation
    is the pure phase of weight Delta.
    """
    supp_psi = sorted(w_psi.weights)
    supp_phi = sorted(w_phi.weights)
    if len(supp_psi) != len(supp_phi):
        return None
    delta = supp_phi[0] - supp_psi[0]
    for n, p in w_psi.weights.items():
        if abs(w_phi.weights.get(n + delta, 0.0) - p) > 1e-9:
            return None
    return delta


def extend_isometry_to_ginv_unitary(
    w: np.ndarray,
    proj: np.ndarray,
    r: UnitaryRep,
    dec: IrrepDecomposition | None = None,
) -> np.ndarray:
    """Complete an invariant partial isometry to an invariant unitary.

    Requires proj to be a projector with W isometric on its support
    (proj W^dag W proj = proj) and W proj commuting with the whole
    representation.  Both the projector and the partial isometry are then
    block-diagonal over the isotypic sectors, acting only on multiplicity
    spaces; each multiplicity-space piece is completed to a unitary there,
    which assembles into an invariant unitary V with V proj = W proj.  A dec given must be
    of r's group (else GroupMismatchError) and dimension (else DimensionMismatchError).
    """
    if dec is not None and not same_group(dec.rep.group, r.group):
        raise GroupMismatchError("decomposition is over a different group")
    if dec is not None and dec.rep.dim != r.dim:
        raise DimensionMismatchError(f"decomposition of dim {dec.rep.dim}, rep of dim {r.dim}")
    w = np.asarray(w, dtype=complex)
    proj = np.asarray(proj, dtype=complex)
    d = r.dim
    if w.shape != (d, d) or proj.shape != (d, d):
        raise DimensionMismatchError("isometry and projector must be d x d for the rep")
    wp = w @ proj
    if frob(proj @ w.conj().T @ wp - proj) > max(1e-8, scaled_tol(proj)):
        raise NotInvariantIsometryError(
            "precondition violated: proj W^dag W proj = proj (W is not isometric on the support)"
        )
    wh = _dagger(wp)[None]  # U W - W U in chunks of g, W U = (U^dag W^dag)^dag
    worst = max(float(_frob_each(r._act(wp[None], g) - _dagger(r._act(wh, g, True))).max())
                for g in _chunk_slices(r.group.order, wp.nbytes))
    if worst > max(1e-8, scaled_tol(wp)):
        raise NotInvariantIsometryError(
            f"precondition violated: [W proj, U(g)] = 0 fails with residual {worst:.3e}"
        )
    if dec is None:
        dec = decompose(r, seed=0)
    pj, xj = (dec.basis @ x @ _dagger(dec.basis) for x in (proj, wp))
    fulls, worst = [], np.zeros(len(dec.blocks))
    for ix, rows, _ in dec._by_shape():  # sector operators [j, m, a, m', b] are I_{d_mu} kron M
        sectors = (x[rows[..., None, None], rows[:, None, None]] for x in (pj, xj))
        p_mu, t_mu = (np.einsum("kmamb->kab", y) / rows.shape[1] for y in sectors)
        fulls.append(polar_unitary(t_mu))
        worst[ix] = _frob_each(fulls[-1] @ p_mu - t_mu)
    # On the kernel of p_mu the completion is free; keep the SVD's choice.
    failed = np.flatnonzero(worst > 1e-6)
    if failed.size:
        label = dec.blocks[failed[0]].label
        raise NotInvariantIsometryError(
            f"sector {label}: completion failed; input is not an invariant isometry"
        )
    return dec._assemble(fulls)
