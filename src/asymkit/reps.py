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
    InvalidParameterError,
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

_STACK_BYTES = 1 << 18  # bytes per stack in a chunked pass over the group


class UnitaryRep:
    """Per-element unitary matrices forming a homomorphism of the group.

    Construction rejects non-finite entries, then verifies mats[0] = I,
    unitarity, and mats[a] @ mats[b] = mats[a*b] for all pairs, each within a
    tolerance relative to the matrix norms.  Instances are immutable.  A
    monomial rep (one nonzero per row and column, exact zeros elsewhere:
    permutation and number reps, their sums and products) is also kept as
    index and phase arrays and validated in O(|G|^2 d); others per diagonal block.
    """

    __slots__ = ("group", "dim", "mats", "_monomial")

    def __init__(self, group: GroupTable, mats):
        mats = np.asarray(mats, dtype=complex)
        if mats.ndim != 3 or mats.shape[0] != group.order or mats.shape[1] != mats.shape[2]:
            raise DimensionMismatchError(
                "mats must have shape (|G|, d, d) matching the group order"
            )
        if not np.isfinite(mats).all():
            raise ValidationError("representation matrices have non-finite entries")
        self.group = group
        self.dim = int(mats.shape[1])
        self.mats = mats
        form = _sparsity_form(mats)
        self._monomial = form if isinstance(form, tuple) else None
        _validate_rep(group, mats, scaled_tol(mats), form)
        self.mats.setflags(write=False)

    def character(self) -> np.ndarray:
        """Per-element trace vector tr U(g)."""
        return np.einsum("gii->g", self.mats)

    def __repr__(self):
        return f"UnitaryRep(order={self.group.order}, dim={self.dim})"


def _sparsity_form(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray] | list[slice]:
    """Monomial (src, phase), shape (|G|, d), with mats[g, i, src[g, i]] = phase[g, i] the
    only nonzero of each row and column of every matrix; otherwise, or if d = 0, the
    slices of the contiguous diagonal blocks outside which every entry is exactly zero."""
    nonzero = mats != 0
    if mats.size and (nonzero.sum(axis=1) == 1).all() and (nonzero.sum(axis=2) == 1).all():
        src = nonzero.argmax(axis=2)
        return src, np.take_along_axis(mats, src[..., None], axis=2)[..., 0]
    union, cols = nonzero.any(axis=0), np.arange(mats.shape[1])
    reach = np.maximum(cols, np.where(union | union.T, cols, -1).max(axis=1, initial=-1))
    ends = np.flatnonzero(np.maximum.accumulate(reach) == cols) + 1
    return [slice(int(a), int(b)) for a, b in zip(np.r_[0, ends[:-1]], ends)]


def _validate_rep(group: GroupTable, mats: np.ndarray, tol: float, form) -> None:
    """Raise ValidationError unless ||mats[0] - I||, every ||U U^dag - I|| and
    every ||U(a) U(b) - U(ab)|| are <= tol (a NaN residual fails).  Given mats'
    :func:`_sparsity_form`: O(|G|^2 d) if monomial, else O(|G|^2 sum s^3)."""
    if not frob(mats[0] - np.eye(mats.shape[1])) <= tol:
        raise ValidationError("representation invariant violated: mats[0] must be the identity")
    if not isinstance(form, tuple):
        form = _block_stacks(mats, form)
    worst = float(_unitarity_residuals(mats, form).max())
    if not worst <= tol:
        raise ValidationError(
            f"unitarity invariant violated: max ||U U^dag - I|| = {worst:.3e} > {tol:.3e}"
        )
    for a, row in enumerate(_homomorphism_residuals(mats, group.mul, form)):
        worst = float(row.max())
        if not worst <= tol:
            raise ValidationError(
                f"homomorphism invariant violated at element {a}: residual {worst:.3e} > {tol:.3e}"
            )


def _unitarity_residuals(mats: np.ndarray, form) -> np.ndarray:
    """||U(g) U(g)^dag - I|| for every g; a monomial U U^dag is diag |phase|^2, and the
    squares of :func:`_block_stacks` residuals add up."""
    if isinstance(form, tuple):
        return np.sqrt(((abs(form[1]) ** 2 - 1.0) ** 2).sum(axis=1))
    sq = np.zeros(len(mats))
    for stack in form:
        for g in _chunk_slices(len(mats), stack[:, :, 0].nbytes):
            u = stack[:, :, g].transpose(2, 0, 1, 3)
            sq[g] += _frob_each(u @ _dagger(u) - np.eye(stack.shape[1])) ** 2
    return np.sqrt(sq)


def _homomorphism_residuals(mats: np.ndarray, mul: np.ndarray, form):
    """Yield ||U(a) U(b) - U(ab)|| over b for each a in turn, computed in chunks of a.
    Row i of a monomial U(a) U(b) holds phase[a, i] * phase[b, src[a, i]] at column
    src[b, src[a, i]]; a block U_j(a) multiplies every U_j(b) side by side."""
    n = len(mats)
    if not isinstance(form, tuple):
        for rows in _chunk_slices(n, sum(stack.nbytes for stack in form)):
            sq = np.zeros((len(mul[rows]), n))
            for st in form:
                k, s = st.shape[:2]
                prod = st[:, :, rows].transpose(0, 2, 1, 3) @ st.reshape(k, 1, s, n * s)
                diff = prod.reshape(k, -1, s, n, s)  # [j, a, i, b, l]
                diff -= st[:, :, mul[rows]].transpose(0, 2, 1, 3, 4)
                sq += np.einsum("kaibl,kaibl->ab", diff.view(float), diff.view(float))
            yield from np.sqrt(sq)
        return
    src, phase = form
    row_start = (np.arange(n) * src.shape[1])[:, None]
    for rows in _chunk_slices(n, src.size * 16):
        at = row_start + src[rows][:, None, :]  # flat index of [b, src[a, i]]
        prod, want = phase[rows][:, None, :] * np.take(phase, at), phase[mul[rows]]
        same = np.take(src, at) == src[mul[rows]]
        sq = np.where(same, abs(prod - want) ** 2, abs(prod) ** 2 + abs(want) ** 2)
        yield from np.sqrt(sq.sum(axis=2))


def _block_stacks(mats: np.ndarray, blocks: list[slice]) -> list[np.ndarray]:
    """Per block size s, the (k, s, |G|, s) stack of its k blocks: [j, i, g, l] = U(g)_j[i, l]."""
    g, spans = np.arange(len(mats))[:, None], [np.arange(b.start, b.stop) for b in blocks]
    idx = [np.array([i for i in spans if len(i) == s]) for s in sorted({len(i) for i in spans})]
    return [mats[g, i[:, :, None, None], i[:, None, None, :]] for i in idx]


def _chunk_slices(n: int, bytes_each: int) -> list[slice]:
    """Slices covering range(n), each of as many bytes_each-byte items as fit _STACK_BYTES, >= 1."""
    step = max(1, _STACK_BYTES // max(1, bytes_each))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _conjugations(src: np.ndarray, phase: np.ndarray, x: np.ndarray) -> np.ndarray:
    """U(g) x U(g)^dag per monomial row (src, phase): phase_i x[src_i, src_k] conj(phase_k)."""
    at = src[:, :, None] * len(x) + src[:, None, :]  # flat index of [src_i, src_k]
    return phase[:, :, None] * np.take(x, at) * phase.conj()[:, None, :]


def _dagger(mats: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack of shape (..., m, n)."""
    return mats.conj().swapaxes(-1, -2)


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
    mats[np.arange(n)[:, None], group.mul, np.arange(n)] = 1.0
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
    Hermitian output with the same trace.  Costs O(|G| d^3), one batched matrix
    product over the group; on a monomial rep (see :class:`UnitaryRep`) each
    term is a gather (:func:`_conjugations`) and the twirl costs O(|G| d^2).
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (r.dim, r.dim):
        raise DimensionMismatchError(
            f"twirl_operator needs a {r.dim}x{r.dim} matrix, got {x.shape}"
        )
    terms = r.mats @ x @ _dagger(r.mats) if r._monomial is None else _conjugations(*r._monomial, x)
    return terms.sum(axis=0) / r.group.order


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


def decompose(r: UnitaryRep, seed: int = 0) -> IrrepDecomposition:
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
    inequivalent irreps are detected by the built-in verification (residual
    at most max(1e-8, 1e-9 ||mats||, 1e-10 d)) and resolved by reseeding;
    five failures raise NumericalDegeneracyError.

    Parameters
    ----------
    r : UnitaryRep
        The representation to split.
    seed : int
        Seed for the random probes; the only source of randomness.
    """
    tol = max(scaled_tol(r.mats), 1e-10 * r.dim, 1e-8)
    last_error = "no attempt made"
    for attempt in range(_MAX_DECOMPOSE_RETRIES):
        rng = np.random.default_rng((int(seed), attempt))
        try:
            dec = _decompose_once(r, rng)
        except _Retry as exc:
            last_error = str(exc)
            continue
        residual = dec.reconstruction_residual()
        if residual > tol:
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


def _require_every_irrep(group: GroupTable, dec: IrrepDecomposition) -> None:
    """Raise unless dec is over group and holds every irrep of it: its blocks
    are pairwise inequivalent, so that holds iff sum of d_mu^2 = |G|."""
    if not same_group(group, dec.rep.group):
        raise GroupMismatchError("decomposition is over a different group")
    total = sum(blk.dim**2 for blk in dec.blocks)
    if total != group.order:
        raise InvalidParameterError(
            f"decomposition misses irreps: sum of d_mu^2 = {total}, group order {group.order}"
        )


def one_dim_reps(group: GroupTable, dec: IrrepDecomposition | None = None) -> np.ndarray:
    """All one-dimensional representations, as unit-modulus vectors over G.

    Row k of the result is one homomorphism omega: G -> U(1) with omega(e)=1.
    Extracted from a decomposition holding every irrep, by default the group's
    regular one; the list always includes the all-ones (trivial) row.  A dec
    over another group raises GroupMismatchError, one missing an irrep
    InvalidParameterError.
    """
    if dec is not None:
        _require_every_irrep(group, dec)
    elif group._regular_blocks is None:
        # Kept on the group from first use: every irrep once, O(|G|^2) numbers.
        group._regular_blocks = decompose(regular_rep(group), seed=0).blocks
    blocks = group._regular_blocks if dec is None else dec.blocks
    return np.array([blk.mats[:, 0, 0] for blk in blocks if blk.dim == 1])


def random_invariant_unitary(dec: IrrepDecomposition, rng) -> np.ndarray:
    """Sample a unitary commuting with the whole representation.

    Haar-random on each multiplicity space, identity across irrep rows: the
    generic element of the commutant's unitary group.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    vs = [haar_unitary(blk.mult, rng) for blk in dec.blocks]
    return dec.invariant_unitary(vs)
