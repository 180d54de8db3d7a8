"""Quantum channels in Kraus form, covariance checks, twirls, and embeddings.

Covariance with respect to a group action is decided on the Choi matrix, an
exact finite check (no state sampling), with no d^2 x d^2 Kronecker product:
a gather of it on monomial reps, batched Kraus products otherwise.
Vectorization is row-major throughout: vec(A B C) = (A kron C^T) vec(B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError, ValidationError
from .groups import SubgroupRef, subgroup
from .linalg import frob, scaled_tol
from .reps import UnitaryRep, _chunk_slices, _conjugations, _dagger, _frob_each, direct_sum_rep
from .states import QuantumState


class QuantumChannel:
    """Completely positive trace-preserving map, stored as Kraus operators.

    ``kraus`` has shape (k, d_out, d_in).  Non-finite entries are rejected and
    trace preservation sum_k K^dag K = I is verified on construction; complete
    positivity is automatic from the Kraus form.
    """

    __slots__ = ("kraus", "d_in", "d_out")

    def __init__(self, kraus):
        kraus = np.asarray(kraus, dtype=complex)
        if kraus.ndim != 3:
            raise DimensionMismatchError("kraus must have shape (k, d_out, d_in)")
        if not np.isfinite(kraus).all():
            raise ValidationError("Kraus operators have non-finite entries")
        self.kraus = kraus
        self.d_out = int(kraus.shape[1])
        self.d_in = int(kraus.shape[2])
        flat = kraus.reshape(len(kraus) * self.d_out, self.d_in)  # sum K^dag K as one product
        total = flat.conj().T @ flat
        residual = frob(total - np.eye(self.d_in))
        if not residual <= scaled_tol(kraus, base=1e-8):
            raise ValidationError(
                "trace preservation invariant violated: sum K^dag K != I "
                f"(residual {residual:.3e})"
            )
        self.kraus.setflags(write=False)

    @property
    def is_endomorphic(self) -> bool:
        return self.d_in == self.d_out

    def apply_to_density(self, rho: np.ndarray) -> np.ndarray:
        return (self.kraus @ rho @ self.kraus.conj().transpose(0, 2, 1)).sum(axis=0)

    def choi(self) -> np.ndarray:
        """Unnormalized Choi matrix sum_k vec(K_k) vec(K_k)^dag (row-major vec)."""
        flat = self.kraus.reshape(self.kraus.shape[0], -1)
        return flat.T @ flat.conj()

    def __repr__(self):
        return f"QuantumChannel(d_in={self.d_in}, d_out={self.d_out}, kraus={self.kraus.shape[0]})"


def identity_channel(dim: int) -> QuantumChannel:
    return QuantumChannel(np.eye(dim, dtype=complex)[None, :, :])


def channel_from_unitary(u: np.ndarray) -> QuantumChannel:
    u = np.asarray(u, dtype=complex)
    return QuantumChannel(u[None, :, :])


def shift_channel(dim: int, shift: int) -> QuantumChannel:
    """Conjugation by the cyclic basis shift |n> -> |n + shift mod dim>."""
    perm = np.zeros((dim, dim), dtype=complex)
    perm[(np.arange(dim) + shift) % dim, np.arange(dim)] = 1.0
    return channel_from_unitary(perm)


def random_channel(dim: int, kraus_count: int, rng) -> QuantumChannel:
    """A Haar-flavoured random channel: Gaussian Kraus set, renormalized."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    ks = rng.normal(size=(kraus_count, dim, dim)) + 1j * rng.normal(size=(kraus_count, dim, dim))
    total = np.einsum("kij,kil->jl", ks.conj(), ks)
    vals, vecs = np.linalg.eigh(total)
    correction = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return QuantumChannel(ks @ correction)


def apply(c: QuantumChannel, s: QuantumState) -> QuantumState:
    """Send a state through the channel; the output is kept as a density matrix."""
    if s.dim != c.d_in:
        raise DimensionMismatchError(
            f"state dimension {s.dim} does not match channel input {c.d_in}"
        )
    return QuantumState.mixed(c.apply_to_density(s.density()))


@dataclass(eq=False)
class CovarianceCheck:
    """Boolean verdict plus the worst Choi-level residual over the group."""

    covariant: bool
    residual: float

    def __bool__(self) -> bool:
        return self.covariant


def is_g_covariant(
    c: QuantumChannel, r_in: UnitaryRep, r_out: UnitaryRep, tol: float = 1e-8
) -> CovarianceCheck:
    """Choi-level covariance test of E against the in/out group actions.

    Measures max_g || Choi(U_out(g) o E o U_in(g)^dag) - Choi(E) ||_F, covariant iff
    <= tol * max(1, ||Choi(E)||_F) (tol >= 0).  With D = d_in d_out, each g costs a
    gather, O(D^2), when both reps are monomial, else O(D^2 r) from the r <= D Kraus
    operators U_out(g) K U_in(g)^dag (after a thin QR); g goes in budgeted chunks.
    """
    if not tol >= 0:
        raise InvalidParameterError(f"tol must be nonnegative, got {tol}")
    if c.d_in != r_in.dim or c.d_out != r_out.dim:
        raise DimensionMismatchError("channel dimensions must match the representations")
    j = c.choi()
    n = r_in.group.order
    monomial = r_in._monomial is not None and r_out._monomial is not None
    if monomial:  # U_out kron conj U_in is monomial too
        (src_out, ph_out), (src_in, ph_in) = r_out._monomial, r_in._monomial
        src = (src_out[:, :, None] * c.d_in + src_in[:, None, :]).reshape(n, -1)
        phase = (ph_out[:, :, None] * ph_in.conj()[:, None, :]).reshape(n, -1)
    else:
        flat = c.kraus.reshape(len(c.kraus), -1)
        if len(flat) > flat.shape[1]:  # J = R^dag R for the thin QR conj(flat) = Q R
            flat = np.linalg.qr(flat.conj(), mode="r").conj()
        kraus = flat.reshape(len(flat), c.d_out, c.d_in)
    worst = 0.0
    for g in _chunk_slices(n, j.nbytes):
        if monomial:
            choi_g = _conjugations(src[g], phase[g], j)
        else:
            a = r_out.mats[g, None] @ kraus @ _dagger(r_in.mats[g])[:, None]
            a = a.reshape(len(a), *flat.shape)
            choi_g = a.transpose(0, 2, 1) @ a.conj()
        worst = max(worst, float(_frob_each(choi_g - j).max()))
    return CovarianceCheck(covariant=bool(worst <= tol * max(1.0, frob(j))), residual=worst)


def twirl_channel(c: QuantumChannel, r: UnitaryRep) -> QuantumChannel:
    """Group average (1/|G|) sum_g U(g)^dag o E o U(g); always covariant.

    A channel that was already covariant is reproduced exactly (as a
    superoperator; the Kraus list is expanded but equivalent).  If E maps the
    whole orbit of rho onto the orbit of sigma pointwise, the average still
    maps rho to sigma.
    """
    if not c.is_endomorphic:
        raise DimensionMismatchError(
            "twirl needs an endomorphic channel; embed the channel into the "
            "direct-sum space first"
        )
    if c.d_in != r.dim:
        raise DimensionMismatchError("channel and representation dimensions differ")
    n = r.group.order
    # Kraus operators U(g)^dag K_k U(g), ordered by g then k.
    out = _dagger(r.mats)[:, None] @ c.kraus @ r.mats[:, None] / np.sqrt(n)
    return QuantumChannel(out.reshape(n * c.kraus.shape[0], r.dim, r.dim))


def uniform_twirl_over_subgroup(r: UnitaryRep, k: SubgroupRef | object) -> QuantumChannel:
    """rho -> (1/|K|) sum_{k in K} U(k) rho U(k)^dag for a subgroup K.

    Covariant under the whole group whenever K is normal in it.
    """
    if not isinstance(k, SubgroupRef):
        k = subgroup(r.group, k)
    mats = r.mats[list(k.elements)] / np.sqrt(len(k))
    return QuantumChannel(mats)


def embed_channel(c: QuantumChannel, r_in: UnitaryRep, r_out: UnitaryRep) -> QuantumChannel:
    """Extend an in->out channel to an endomorphism of the direct-sum space.

    On the input sector the embedded channel acts as E (output placed in the
    out sector); everything fed into the out sector is dumped to the
    maximally mixed state of the whole sum space.  Preserves covariance: if E
    is covariant for (U_in, U_out), the embedding is covariant for
    U_in directsum U_out, which is asserted in that case.
    """
    if c.d_in != r_in.dim or c.d_out != r_out.dim:
        raise DimensionMismatchError("channel dimensions must match the representations")
    was_covariant = bool(is_g_covariant(c, r_in, r_out))
    d_in, d_out = c.d_in, c.d_out
    d = d_in + d_out
    r = len(c.kraus)
    kraus = np.zeros((r + d_out * d, d, d), dtype=complex)
    kraus[:r, d_in:, :d_in] = c.kraus
    # Junk branch: measure the out sector, emit the maximally mixed state.
    junk = np.arange(d_out * d)  # operator r + j d + i is |i><d_in + j| / sqrt(d)
    kraus[r + junk, junk % d, d_in + junk // d] = 1.0 / np.sqrt(d)
    embedded = QuantumChannel(kraus)
    if was_covariant:
        combined = direct_sum_rep(r_in, r_out)
        check = is_g_covariant(embedded, combined, combined)
        if not check:
            raise ValidationError(
                f"embedding lost covariance (residual {check.residual:.3e}); "
                "this indicates an inconsistent input"
            )
    return embedded
