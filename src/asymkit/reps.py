"""Unitary representations of finite groups and their irreducible decomposition.

The central object is :class:`IrrepDecomposition`: a unitary change of basis W
and an ordered list of irreducible blocks such that

    W U(g) W^dag  =  directsum_mu  U_mu(g) (x) I_{n_mu}      for every g,

with d_mu the block dimension and n_mu its multiplicity.  Within one block the
basis is ordered so that index m * n_mu + n means (irrep row m, copy n); all
sector bookkeeping in the package leans on that layout.

Block ordering is canonical - ascending d_mu, ties broken on the character
vector over the canonical conjugacy-class order - so decompositions of the
same representation are comparable across runs and seeds.  The irrep basis
inside a class is fixed only up to a simultaneous unitary conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    GroupMismatchError,
    NumericalDegeneracyError,
    ValidationError,
)
from .groups import GroupTable, same_group
from .linalg import (
    frob,
    haar_unitary,
    polar_unitary,
    random_complex,
    random_hermitian,
    scaled_tol,
)

_MAX_DECOMPOSE_RETRIES = 5

# Loose thresholds used while carving out candidate invariant subspaces; the
# final decomposition is always re-verified at the strict tolerance.
_CLUSTER_GAP = 1e-6
_CHARACTER_MATCH = 1e-6


class UnitaryRep:
    """Per-element unitary matrices forming a homomorphism of the group.

    Construction verifies mats[0] = I, unitarity of every matrix, and the
    homomorphism property mats[a] @ mats[b] = mats[a*b] for all pairs, each
    within a tolerance relative to the matrix norms.  Instances are immutable.
    """

    __slots__ = ("group", "dim", "mats")

    def __init__(self, group: GroupTable, mats, *, tol: float | None = None):
        mats = np.asarray(mats, dtype=complex)
        if mats.ndim != 3 or mats.shape[0] != group.order or mats.shape[1] != mats.shape[2]:
            raise DimensionMismatchError(
                "mats must have shape (|G|, d, d) matching the group order"
            )
        self.group = group
        self.dim = int(mats.shape[1])
        self.mats = mats
        if tol is None:
            tol = scaled_tol(mats)
        _validate_rep(group, mats, tol)
        self.mats.setflags(write=False)

    def matrix(self, g: int) -> np.ndarray:
        return self.mats[g]

    def character(self) -> np.ndarray:
        """Per-element trace vector tr U(g)."""
        return np.einsum("gii->g", self.mats)

    def __repr__(self):
        return f"UnitaryRep(order={self.group.order}, dim={self.dim})"


def _validate_rep(group: GroupTable, mats: np.ndarray, tol: float) -> None:
    n, d = mats.shape[0], mats.shape[1]
    eye = np.eye(d)
    if frob(mats[0] - eye) > tol:
        raise ValidationError("representation invariant violated: mats[0] must be the identity")
    worst = float(_frob_each(mats @ _dagger(mats) - eye).max())
    if worst > tol:
        raise ValidationError(
            f"unitarity invariant violated: max ||U U^dag - I|| = {worst:.3e} > {tol:.3e}"
        )
    # Homomorphism check, one batched row of products per element.
    for a in range(n):
        diff = mats[a] @ mats - mats[group.mul[a]]
        worst = np.linalg.norm(diff.reshape(n, -1), axis=1).max()
        if worst > tol:
            raise ValidationError(
                f"homomorphism invariant violated at element {a}: residual {worst:.3e} > {tol:.3e}"
            )


def _dagger(mats: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a (|G|, m, n) stack."""
    return mats.conj().transpose(0, 2, 1)


def _frob_each(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix in an (n, a, b) stack, as a length-n array.

    One pass over the stack's float view; ``np.linalg.norm(stack, axis=(1, 2))``
    gives the same values but is slower than a Python loop over ``frob`` once
    the matrices are about 32 x 32.
    """
    flat = np.ascontiguousarray(stack, dtype=complex).reshape(len(stack), -1).view(float)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


def trivial_rep(group: GroupTable) -> UnitaryRep:
    """The one-dimensional all-ones representation."""
    return UnitaryRep(group, np.ones((group.order, 1, 1), dtype=complex))


def regular_rep(group: GroupTable) -> UnitaryRep:
    """Left-regular representation: permutation matrix of left multiplication."""
    n = group.order
    mats = np.zeros((n, n, n), dtype=complex)
    for g in range(n):
        mats[g, group.mul[g], np.arange(n)] = 1.0
    return UnitaryRep(group, mats)


def number_rep(group: GroupTable, weights) -> UnitaryRep:
    """Diagonal phase representation of a cyclic group Z_N.

    Basis state j carries weight w_j, so element g acts as the phase
    exp(2 pi i g w_j / N).  This is the finite sampling of a U(1) phase
    rotation generated by a number operator with spectrum ``weights``.
    """
    n = group.order
    w = np.asarray(list(weights), dtype=float)
    phases = np.exp(2j * np.pi * np.outer(np.arange(n), w) / n)
    mats = np.zeros((n, w.size, w.size), dtype=complex)
    step = np.arange(w.size)
    mats[:, step, step] = phases
    return UnitaryRep(group, mats)


def tensor_rep(a: UnitaryRep, b: UnitaryRep) -> UnitaryRep:
    """Collective action on a composite system: g -> a(g) kron b(g)."""
    if not same_group(a.group, b.group):
        raise GroupMismatchError("tensor_rep requires both factors over the same group")
    mats = np.einsum("gij,gkl->gikjl", a.mats, b.mats).reshape(
        a.group.order, a.dim * b.dim, a.dim * b.dim
    )
    return UnitaryRep(a.group, mats)


def direct_sum_rep(a: UnitaryRep, b: UnitaryRep) -> UnitaryRep:
    """Block-diagonal sum g -> a(g) directsum b(g)."""
    if not same_group(a.group, b.group):
        raise GroupMismatchError("direct_sum_rep requires both summands over the same group")
    n = a.group.order
    d = a.dim + b.dim
    mats = np.zeros((n, d, d), dtype=complex)
    mats[:, : a.dim, : a.dim] = a.mats
    mats[:, a.dim :, a.dim :] = b.mats
    return UnitaryRep(a.group, mats)


def twirl_operator(r: UnitaryRep, x: np.ndarray) -> np.ndarray:
    """Group average (1/|G|) sum_g U(g) x U(g)^dag.

    The result commutes with every U(g); averaging a Hermitian input yields a
    Hermitian output with the same trace.  Costs O(|G| d^3): one batched
    matrix product over the group.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (r.dim, r.dim):
        raise DimensionMismatchError(
            f"twirl_operator needs a {r.dim}x{r.dim} matrix, got {x.shape}"
        )
    return (r.mats @ x @ _dagger(r.mats)).sum(axis=0) / r.group.order


@dataclass(eq=False)
class IrrepBlock:
    """One inequivalent irreducible constituent of a decomposition.

    ``mats`` holds the reference copy's d_mu x d_mu unitaries (one per group
    element); all other copies in the sector were rotated to match it.
    ``character`` is the trace vector over conjugacy classes in canonical
    class order.
    """

    label: int
    dim: int
    mult: int
    mats: np.ndarray
    character: np.ndarray

    def character_per_element(self) -> np.ndarray:
        return np.einsum("gii->g", self.mats)


class IrrepDecomposition:
    """Basis change W plus the ordered irreducible blocks it exposes."""

    __slots__ = ("rep", "basis", "blocks", "offsets")

    def __init__(self, rep: UnitaryRep, basis: np.ndarray, blocks: list[IrrepBlock]):
        self.rep = rep
        self.basis = basis
        self.blocks = blocks
        offsets = []
        at = 0
        for blk in blocks:
            offsets.append(at)
            at += blk.dim * blk.mult
        if at != rep.dim:
            raise ValidationError(
                "decomposition invariant violated: sum of d_mu * n_mu must equal dim"
            )
        self.offsets = offsets

    def multiset(self) -> list[tuple[int, int]]:
        """The (dimension, multiplicity) pairs, in block order."""
        return [(b.dim, b.mult) for b in self.blocks]

    def sector_slice(self, index: int) -> slice:
        blk = self.blocks[index]
        start = self.offsets[index]
        return slice(start, start + blk.dim * blk.mult)

    def block_matrix(self, g) -> np.ndarray:
        """directsum_mu U_mu(g) kron I_{n_mu} in the decomposed basis.

        An index array or slice for ``g`` gives a stack, one matrix per element.
        """
        lead = self.rep.mats[g].shape[:-2]
        out = np.zeros(lead + (self.rep.dim, self.rep.dim), dtype=complex)
        for i, blk in enumerate(self.blocks):
            sl = self.sector_slice(i)
            # kron(M, I_n) over the leading axes: entry (m, a, m', b) is M[m, m'] I[a, b].
            kron = blk.mats[g][..., :, None, :, None] * np.eye(blk.mult)[:, None, :]
            out[..., sl, sl] = kron.reshape(out[..., sl, sl].shape)
        return out

    def vector_sectors(self, vec: np.ndarray) -> list[np.ndarray]:
        """Coefficient matrix (d_mu x n_mu) of a vector in each sector."""
        x = self.basis @ np.asarray(vec, dtype=complex)
        out = []
        for i, blk in enumerate(self.blocks):
            out.append(x[self.sector_slice(i)].reshape(blk.dim, blk.mult))
        return out

    def invariant_unitary(self, mult_unitaries: list[np.ndarray]) -> np.ndarray:
        """Assemble directsum_mu I_{d_mu} kron V_mu back in the original basis.

        Every unitary commuting with the whole representation has this shape,
        with V_mu acting on the multiplicity space of block mu.
        """
        if len(mult_unitaries) != len(self.blocks):
            raise DimensionMismatchError("need one multiplicity-space unitary per block")
        out = np.zeros((self.rep.dim, self.rep.dim), dtype=complex)
        for i, blk in enumerate(self.blocks):
            v = np.asarray(mult_unitaries[i], dtype=complex)
            if v.shape != (blk.mult, blk.mult):
                raise DimensionMismatchError(
                    f"block {blk.label} needs a {blk.mult}x{blk.mult} unitary, got {v.shape}"
                )
            sl = self.sector_slice(i)
            out[sl, sl] = np.kron(np.eye(blk.dim), v)
        return self.basis.conj().T @ out @ self.basis

    def align(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, list[float]]:
        """Invariant unitary V maximizing Re <b|V|a>, and each sector's share of it.

        Sector mu, with coefficient matrices A and B, contributes tr(B^dag A V_mu^T).
        From the SVD B^dag A = u s vh, V_mu = conj(u vh) makes it ||B^dag A||_1 =
        sum(s), the maximum, which is the Uhlmann fidelity of A A^dag and B B^dag
        (on zero singular values the SVD's completion is kept).  The shares, in
        block order, sum to <b|V|a>, which is therefore real and nonnegative.
        """
        mult_unitaries = []
        shares = []
        for x, y in zip(self.vector_sectors(a), self.vector_sectors(b)):
            u, s, vh = np.linalg.svd(y.conj().T @ x)
            mult_unitaries.append(np.conj(u @ vh))
            shares.append(float(s.sum()))
        return self.invariant_unitary(mult_unitaries), shares

    def reconstruction_residual(self) -> float:
        """max_g || W U(g) W^dag - blocks(g) ||_F."""
        w = self.basis
        diff = w @ self.rep.mats @ w.conj().T - self.block_matrix(slice(None))
        return float(_frob_each(diff).max())


class _Retry(Exception):
    """Internal: current random splitting ran into a degeneracy; reseed."""


def decompose(r: UnitaryRep, seed: int = 0, *, tol: float | None = None) -> IrrepDecomposition:
    """Decompose a unitary representation into irreducible blocks.

    Strategy: the group average of a random Hermitian matrix lies in the
    commutant, so for a generic draw each of its eigenspaces is a single
    irreducible invariant subspace.  Eigenspaces are extracted, the carried
    subrepresentations are grouped into equivalence classes by character,
    copies within a class are aligned to the first copy with Schur
    intertwiners (unitarized through their polar factor), and the blocks are
    sorted canonically.

    Every group sum and per-element check is one batched numpy call over
    the group, so one attempt costs O(|G| d^3).

    Deterministic for a fixed seed.  Eigenvalue collisions across
    inequivalent irreps are detected by the built-in verification and
    resolved by reseeding; five failures raise NumericalDegeneracyError.

    Parameters
    ----------
    r : UnitaryRep
        The representation to split.
    seed : int
        Seed for the random probes; the only source of randomness.
    tol : float, optional
        Acceptance tolerance for the final verification; defaults to the
        package-wide relative tolerance.
    """
    if tol is None:
        tol = max(scaled_tol(r.mats), 1e-10 * r.dim)
    last_error = "no attempt made"
    for attempt in range(_MAX_DECOMPOSE_RETRIES):
        rng = np.random.default_rng((int(seed), attempt))
        try:
            dec = _decompose_once(r, rng)
        except _Retry as exc:
            last_error = str(exc)
            continue
        residual = dec.reconstruction_residual()
        if residual > max(tol, 1e-8):
            last_error = f"reconstruction residual {residual:.3e}"
            continue
        return dec
    raise NumericalDegeneracyError(
        f"decompose failed after {_MAX_DECOMPOSE_RETRIES} reseeds: {last_error}"
    )


def _decompose_once(r: UnitaryRep, rng: np.random.Generator) -> IrrepDecomposition:
    d = r.dim
    group = r.group
    t = twirl_operator(r, random_hermitian(d, rng))
    evals, evecs = np.linalg.eigh(t)
    spread = max(1.0, float(evals[-1] - evals[0]))
    clusters = _cluster_indices(evals, _CLUSTER_GAP * spread)

    copies = []  # (basis Q, submats) for each candidate irreducible subspace
    for idx in clusters:
        q = evecs[:, idx]
        sub = q.conj().T @ r.mats @ q
        k = len(idx)
        uni = float(_frob_each(sub @ _dagger(sub) - np.eye(k)).max())
        if uni > 1e-7:
            raise _Retry(f"eigenspace of size {k} is not invariant (residual {uni:.3e})")
        char = np.einsum("gii->g", sub)
        norm = float(np.mean(np.abs(char) ** 2))
        if abs(norm - 1.0) > 1e-6:
            raise _Retry(f"subspace carries character norm {norm:.6f}, not irreducible")
        copies.append((q, sub, char))

    # Group equivalent copies by their characters.
    classes: list[list[int]] = []
    for i, (_, _, char) in enumerate(copies):
        for cls in classes:
            ref_char = copies[cls[0]][2]
            if char.shape == ref_char.shape and np.max(np.abs(char - ref_char)) < _CHARACTER_MATCH:
                cls.append(i)
                break
        else:
            classes.append([i])

    # Canonical order: ascending dimension, then the character at the class
    # representatives, real part descending so the trivial block leads its peers.
    class_chars = [copies[cls[0]][2][group.class_representatives()] for cls in classes]
    keys = [
        (copies[cls[0]][0].shape[1], [(-round(c.real, 9), round(c.imag, 9)) for c in ch.tolist()])
        for cls, ch in zip(classes, class_chars)
    ]
    class_order = sorted(range(len(classes)), key=keys.__getitem__)
    basis_cols = []
    blocks = []
    for label, ci in enumerate(class_order):
        members = classes[ci]
        q_ref, ref_mats, _ = copies[members[0]]
        d_mu = q_ref.shape[1]
        aligned = [q_ref]
        for i in members[1:]:
            aligned.append(_align_copy(r, ref_mats, copies[i], rng))
        n_mu = len(aligned)
        for m in range(d_mu):
            for q in aligned:
                basis_cols.append(q[:, m])
        blocks.append(
            IrrepBlock(label=label, dim=d_mu, mult=n_mu, mats=ref_mats, character=class_chars[ci])
        )

    w = np.array(basis_cols).conj()  # rows are conj of new basis vectors: W = B^dag
    return IrrepDecomposition(r, w, blocks)


def _cluster_indices(evals: np.ndarray, gap: float) -> list[list[int]]:
    clusters = [[0]]
    for i in range(1, evals.size):
        if evals[i] - evals[i - 1] > gap:
            clusters.append([i])
        else:
            clusters[-1].append(i)
    return clusters


def _align_copy(r: UnitaryRep, ref_mats: np.ndarray, copy, rng: np.random.Generator) -> np.ndarray:
    """Rotate one equivalent copy so its subrepresentation equals the reference.

    The group average S = avg_g U_ref(g) X U_i(g)^dag of a random X intertwines
    the copy with the reference; by Schur's lemma S is a scalar multiple of a
    unitary, recovered stably as the polar factor.
    """
    q, sub, _ = copy
    d_mu = sub.shape[1]
    for _ in range(4):
        x = random_complex((d_mu, d_mu), rng)
        s = (ref_mats @ x @ _dagger(sub)).sum(axis=0) / r.group.order
        smin = np.linalg.svd(s, compute_uv=False)[-1]
        if smin > 1e-6:
            break
    else:
        raise _Retry("could not find a nonsingular intertwiner between equivalent copies")
    u = polar_unitary(s)
    aligned_q = q @ u.conj().T
    residual = float(_frob_each(u @ sub @ u.conj().T - ref_mats).max())
    if residual > 1e-8:
        raise _Retry(f"intertwiner alignment residual {residual:.3e}")
    return aligned_q


def one_dim_reps(group: GroupTable, dec: IrrepDecomposition | None = None) -> np.ndarray:
    """All one-dimensional representations, as unit-modulus vectors over G.

    Row k of the result is one homomorphism omega: G -> U(1) with omega(e)=1.
    Extracted from the regular representation, which contains every irrep;
    the list always includes the all-ones (trivial) row.
    """
    if dec is None:
        dec = decompose(regular_rep(group), seed=0)
    rows = [blk.mats[:, 0, 0] for blk in dec.blocks if blk.dim == 1]
    return np.array(rows)


def random_invariant_unitary(dec: IrrepDecomposition, rng) -> np.ndarray:
    """Sample a unitary commuting with the whole representation.

    Haar-random on each multiplicity space, identity across irrep rows: the
    generic element of the commutant's unitary group.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    vs = [haar_unitary(blk.mult, rng) for blk in dec.blocks]
    return dec.invariant_unitary(vs)
