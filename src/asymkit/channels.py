"""Quantum channels in Kraus form, covariance checks, twirls, and embeddings.

Covariance with respect to a group action is decided on the Choi matrix J, an exact
finite check (no state sampling) with no dense Kronecker product: J conjugated by the
monomial U_out kron conj U_in on monomial reps, batched Kraus products otherwise.
Vectorization is row-major throughout: vec(A B C) = (A kron C^T) vec(B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError, ValidationError
from .groups import SubgroupRef, _whole_number, subgroup
from .linalg import frob, scaled_tol
from .reps import UnitaryRep, _chunk_slices, _dagger, _frob_each, _kron_rep, _unitarity_residuals
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
        flat = kraus.reshape(len(kraus) * self.d_out, self.d_in)  # sum K^dag K over row chunks
        total = sum(flat[g].conj().T @ flat[g] for g in _chunk_slices(len(flat), 16 * self.d_in))
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


def channel_from_unitary(u: np.ndarray) -> QuantumChannel:
    """Conjugation by u; a u that is not a matrix raises DimensionMismatchError."""
    return QuantumChannel(np.asarray(u, dtype=complex)[None])


def shift_channel(dim: int, shift: int) -> QuantumChannel:
    """Conjugation by the cyclic basis shift |n> -> |n + shift mod dim>, dim >= 1."""
    dim, shift = _whole_number(dim, "dim", 1), _whole_number(shift, "shift")
    perm = np.zeros((dim, dim), dtype=complex)
    perm[(np.arange(dim) + shift) % dim, np.arange(dim)] = 1.0
    return channel_from_unitary(perm)


def random_channel(dim: int, kraus_count: int, rng) -> QuantumChannel:
    """A Haar-flavoured random channel: Gaussian Kraus set, renormalized."""
    dim, kraus_count = _whole_number(dim, "dim", 1), _whole_number(kraus_count, "kraus_count", 1)
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
    <= tol * max(1, ||Choi(E)||_F) (tol >= 0).  With D = d_in d_out, each g costs O(D^2), J
    gathered by U_out kron conj U_in (no phase products if all are 1) if both reps are monomial,
    else O(D^2 r) from the r <= D Kraus operators U_out(g) (U_in(g) K^dag)^dag by each rep's
    ``_act`` (thin QR first); g in budgeted chunks, J taken off each chunk's fresh stack in place.
    """
    if not tol >= 0:
        raise InvalidParameterError(f"tol must be nonnegative, got {tol}")
    if c.d_in != r_in.dim or c.d_out != r_out.dim:
        raise DimensionMismatchError("channel dimensions must match the representations")
    j = c.choi()
    prod = _kron_rep(r_out, r_in, conj=True)  # U_out kron conj U_in, if both are monomial
    if prod is None:
        flat = c.kraus.reshape(len(c.kraus), -1)
        if len(flat) > flat.shape[1]:  # J = R^dag R for the thin QR conj(flat) = Q R
            flat = np.linalg.qr(flat.conj(), mode="r").conj()
        kraus = flat.reshape(len(flat), c.d_out, c.d_in)
    worst = 0.0
    for g in _chunk_slices(r_in.group.order, j.nbytes):
        if prod is not None:
            choi_g = prod.conjugate(j, g)
        else:
            a = r_out._act(_dagger(r_in._act(_dagger(kraus)[:, None], g)), g)  # [k, g]
            a = a.swapaxes(0, 1).reshape(a.shape[1], *flat.shape)
            choi_g = a.transpose(0, 2, 1) @ a.conj()
        worst = max(worst, float(_frob_each(np.subtract(choi_g, j, out=choi_g)).max()))
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

    Covariant under the whole group whenever K is normal in it; scatters only |K| matrices.
    """
    if not isinstance(k, SubgroupRef):
        k = subgroup(r.group, k)
    return QuantumChannel(r._scatter(list(k.elements)) / np.sqrt(len(k)))


def embed_channel(c: QuantumChannel, r_in: UnitaryRep, r_out: UnitaryRep) -> QuantumChannel:
    """Extend an in->out channel to an endomorphism of the direct-sum space.

    On the input sector the embedded channel acts as E (output placed in the
    out sector); everything fed into the out sector is dumped to the
    maximally mixed state of the whole sum space.  Preserves covariance: if E
    is covariant for (U_in, U_out), the embedding E' is covariant for
    U = U_in directsum U_out, which is asserted in that case, at :func:`is_g_covariant`'s
    tolerance, by a bound on the residual of J' = Choi(E') that is never below it in exact
    arithmetic and is E's residual on exactly unitary reps.  With row-major vec, E's part of J'
    has its input index in the in sector, the junk part (Choi I kron P_out / d) in the out
    sector, so ||dJ'(g)||^2 = ||dJ_E||^2 + ||dJ_junk||^2 and ||J'||^2 = ||J_E||^2 + d_out / d;
    with A = U U^dag - I and A'_out = 0 directsum A_out, d dJ_junk = A kron P_out + I kron conj
    A'_out + A kron conj A'_out, of norm <= a sqrt d_out + sqrt d a_out + a a_out for a = ||A||_F,
    a_out = ||A_out||_F.  Cost: E's check, then O(|G| d) on monomial reps, d = d_in + d_out.
    """
    if c.d_in != r_in.dim or c.d_out != r_out.dim:
        raise DimensionMismatchError("channel dimensions must match the representations")
    check = is_g_covariant(c, r_in, r_out)
    d_in, d_out = c.d_in, c.d_out
    d = d_in + d_out
    r = len(c.kraus)
    kraus = np.zeros((r + d_out * d, d, d), dtype=complex)
    kraus[:r, d_in:, :d_in] = c.kraus
    # Junk branch: measure the out sector, emit the maximally mixed state.
    junk = np.arange(d_out * d)  # operator r + j d + i is |i><d_in + j| / sqrt(d)
    kraus[r + junk, junk % d, d_in + junk // d] = 1.0 / np.sqrt(d)
    embedded = QuantumChannel(kraus)
    if check and d:  # a 0-dim embedding has an empty Choi matrix
        residual = _embedding_residual(check, r_in, r_out)
        if not residual <= 1e-8 * max(1.0, np.sqrt(frob(c.choi()) ** 2 + d_out / d)):
            raise ValidationError(
                f"embedding lost covariance (residual {residual:.3e}); "
                "this indicates an inconsistent input"
            )
    return embedded


def _embedding_residual(check: CovarianceCheck, r_in: UnitaryRep, r_out: UnitaryRep) -> float:
    """:func:`embed_channel`'s bound, sqrt(E's residual^2 + max_g (||dJ_junk(g)|| bound)^2)."""
    n, d_out, d = r_in.group.order, r_out.dim, r_in.dim + r_out.dim
    a_in, a_out = (_unitarity_residuals(n, r._monomial or r._stacks) for r in (r_in, r_out))
    junk = (np.hypot(a_in, a_out) * (np.sqrt(d_out) + a_out) + np.sqrt(d) * a_out) / d
    return float(np.hypot(check.residual, junk.max(initial=0.0)))
