"""Unitary representations of finite groups and their irreducible decomposition.

The central object is :class:`IrrepDecomposition`: a unitary change of basis W
and an ordered list of irreducible blocks such that

    W U(g) W^dag  =  directsum_mu  U_mu(g) (x) I_{n_mu}      for every g,

with d_mu the block dimension and n_mu its multiplicity.  Within one block the
basis is ordered so that index m * n_mu + n means (irrep row m, copy n); all
sector bookkeeping in the package leans on that layout.

Block order is the character table's: ascending d_mu, ties broken on the
character vector over the canonical conjugacy-class order, the same across runs
and seeds.  The irrep basis inside a block is fixed only up to a simultaneous
unitary conjugation, which a seed moves only in isotypes of several copies of an
irrep of dimension > 1: there the twirl of one random vector picks one copy, and
Serre's projection operators carry its irrep basis to every other copy.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    GroupMismatchError,
    InvalidParameterError,
    NumericalDegeneracyError,
    ValidationError,
)
from .groups import _STACK_BYTES, GroupTable, _whole, same_group
from .linalg import frob, haar_unitary, random_complex, scaled_tol

# Loose threshold used while carving out candidate invariant subspaces; the
# final decomposition is always re-verified at the strict tolerance.
_CLUSTER_GAP = 1e-6


class UnitaryRep:
    """Per-element unitary matrices forming a homomorphism of the group.

    Construction rejects non-finite entries, then verifies mats[0] = I, unitarity, and
    mats[a] @ mats[b] = mats[a*b] for all pairs, each within a tolerance relative to the matrix
    norms.  Instances are immutable.  A rep is held in one of two forms, and ``mats`` is
    scattered from it on first read (a dense input keeps its stack).  A monomial rep (one
    nonzero per row and column, exact zeros elsewhere: permutation and number reps, their sums
    and products) is kept as index and phase arrays, validated in O(|G|^2 d), or in integers if
    its entries are 0 or 1.  Any other rep keeps its diagonal blocks' stacks, cut once by
    :func:`_cut` to its exact-zero pattern where they come from elsewhere (a dense input is one
    block, a view unless it splits; :func:`_block_rep`, :func:`direct_sum_rep`), validated block
    by block; a trusted form, as GNS hands over, is held as given.  Only :func:`_block_rep`
    validates a form, unless the constructor proves it exact (:func:`regular_rep`,
    :func:`trivial_rep`) or certifies it (:func:`direct_sum_rep`, GNS by
    ``bochner._residual_bound``).  U(g) acts by :meth:`_act`.
    """

    __slots__ = ("group", "dim", "_mats", "_monomial", "_stacks")

    def __init__(self, group: GroupTable, mats, _form=None):
        if _form is None:  # else trusted: (src, phase), or (cols, sub) stacks as _cut gives them
            mats = np.asarray(mats, dtype=complex)
            if mats.ndim != 3 or mats.shape[0] != group.order or mats.shape[1] != mats.shape[2]:
                raise DimensionMismatchError(
                    "mats must have shape (|G|, d, d) matching the group order"
                )
            _form = _cut([(np.arange(mats.shape[1])[None], mats[None])])
            _validate_rep(group, _form)
            mats.setflags(write=False)
        monomial = isinstance(_form, tuple)
        self.group, self._mats = group, mats
        self._monomial, self._stacks = (_form, None) if monomial else (None, _form)
        self.dim = int(_form[0].shape[1]) if monomial else sum(c.size for c, _ in _form)

    @property
    def mats(self) -> np.ndarray:
        """The read-only (|G|, d, d) stack; scattered from the rep's form on first read and
        kept (published only once complete)."""
        if self._mats is None:
            self._mats = self._scatter()
        return self._mats

    def _scatter(self, g=slice(None)) -> np.ndarray:
        """U(g) for a slice or index array g: the kept stack's rows, else scattered, read-only."""
        if self._mats is not None:
            return self._mats[g]
        mats = np.zeros((np.arange(self.group.order)[g].size, self.dim, self.dim), dtype=complex)
        if self._monomial is not None:  # U(g)[i, src[g, i]] = phase[g, i]
            np.put_along_axis(mats, self._monomial[0][g, :, None], self._monomial[1][g, :, None], 2)
        for cols, sub in self._stacks or ():  # [g, block, row, column]
            mats[:, cols[:, :, None], cols[:, None, :]] = sub[:, g].swapaxes(0, 1)
        return mats.setflags(write=False) or mats

    def character(self) -> np.ndarray:
        """Per-element trace vector tr U(g), in O(|G| d): diagonal phases, or block traces."""
        if self._monomial is not None:
            return np.where(self._monomial[0] == np.arange(self.dim), self._monomial[1], 0).sum(1)
        return sum((np.einsum("kgii->g", sub) for _, sub in self._stacks),
                   np.zeros(self.group.order, complex))  # a 0-dim rep's zeros

    def trace_against(self, x: np.ndarray) -> np.ndarray:
        """tr(x U(g)) for every g, a vector x standing for x x^dag; on a monomial rep the gather
        sum_i phase[g, i] x[src[g, i], i] in O(|G| d) (x[src[g, i]] conj x[i] of a vector: no d x d
        array, the same products); else one einsum per block size, on x's blocks, or of a vector
        on conj(y_i) y_j for y = x[cols]: y^dag U y with no d x d array."""
        if x.ndim == 1:
            if self._monomial is not None:
                return (self._monomial[1] * (x[self._monomial[0]] * x.conj())).sum(axis=1)
            return sum((np.einsum("kij,kgij->g", x[c].conj()[..., None] * x[c][:, None], m)
                        for c, m in self._stacks), np.zeros(self.group.order, complex))
        if self._monomial is not None:
            return (self._monomial[1] * x[self._monomial[0], np.arange(self.dim)]).sum(axis=1)
        return sum((np.einsum("kij,kgji->g", x[c[..., None], c[:, None]], m)
                    for c, m in self._stacks), np.zeros(self.group.order, complex))

    def _act(self, x: np.ndarray, g=slice(None), adjoint: bool = False) -> np.ndarray:
        """U(g) x or U(g)^dag x, new, broadcast as matmul broadcasts the (|g|, d, d) stack against a
        complex x (..., 1 or |g|, d, m): one product per block size, or if monomial a row gather (a
        contiguous np.take: matmul's rounding turns on layout) times the phases unless all are 1."""
        if self._monomial is not None:
            src, ph = self._monomial[0][g], self._monomial[1][g]
            if adjoint:  # U(g)^dag[src[g, i], i] = conj phase[g, i]: the inverse gather
                src = np.argsort(src, axis=1)
                ph = np.take_along_axis(ph, src, axis=1).conj()
            at = src + np.arange(len(src))[:, None] * self.dim if x.shape[-3] > 1 else src
            y = np.take(x.reshape(*x.shape[:-3], -1, x.shape[-1]), at, axis=-2)
            return y if (ph == 1).all() else np.multiply(ph[..., None], y, out=y)
        out = np.empty((*x.shape[:-3], len(np.arange(self.group.order)[g]), *x.shape[-2:]), complex)
        for cols, sub in self._stacks:  # [..., block, g, row, column]
            u = _dagger(sub[:, g]) if adjoint else sub[:, g]
            out[..., cols, :] = (u @ np.take(x, cols, axis=-2).swapaxes(-3, -4)).swapaxes(-3, -4)
        return out

    def conjugate(self, x: np.ndarray, g=slice(None)) -> np.ndarray:
        """U(g) x U(g)^dag stacked over g, a slice or index array, always a fresh array the caller
        may overwrite: gathers if monomial (times phases unless all are 1), else U (U x^dag)^dag."""
        if self._monomial is None:
            return self._act(_dagger(self._act(_dagger(np.asarray(x, complex))[None], g)), g)
        src, ph = self._monomial[0][g], self._monomial[1][g]  # ph_i x[src_i, src_k] conj(ph_k)
        y = np.take(np.asarray(x, complex), src[:, :, None] * len(x) + src[:, None, :])
        if not (ph == 1).all():  # a product by 1 + 0j would change at most the sign of a zero
            np.multiply(np.multiply(ph[:, :, None], y, out=y), ph.conj()[:, None, :], out=y)
        return y

    def __repr__(self):
        return f"UnitaryRep(order={self.group.order}, dim={self.dim})"


def _exact_zeros(m: np.ndarray) -> tuple:
    """Of a stack m (k, |G|, s, s): the flags (k,) of its monomial blocks, one nonzero in each row
    and column of every matrix; if any is, each row's nonzero column at (k, |G|, s) and value (read
    on every block, used on those), else None, None; and the mask m != 0."""
    z = m != 0
    mono = (z.sum(2) == 1).all((1, 2))  # one nonzero per column, s in all: one per row iff no
    if mono.any():  # row is empty; a dense stack pays for one count only
        mono &= z.any(3).all((1, 2))
    at = z.argmax(3) if mono.any() else None
    return mono, at, None if at is None else m[(*np.indices(at.shape, sparse=True), at)], z


def _src_phase(parts: list) -> tuple[np.ndarray, np.ndarray]:
    """The (src, phase) (|G|, d) of monomial blocks from per-stack (cols (k, s), at, value) as
    :func:`_exact_zeros` reads them, cols tiling range(d): src = at + the block's first column,
    the stacks side by side, [g, column], their columns put in order only if they are not."""
    src, phase = (np.concatenate([x.transpose(1, 0, 2).reshape(x.shape[1], -1) for x in xs], 1)
                  for xs in ([at + c[:, :1, None] for c, at, _ in parts], [v for *_, v in parts]))
    cols = np.concatenate([c.ravel() for c, _, _ in parts])
    if (cols[1:] < cols[:-1]).any():  # a take, C-contiguous as the in-order stacks are
        src, phase = (x.take(np.argsort(cols), 1) for x in (src, phase))
    return src, phase


def _cut(stacks: list) -> tuple[np.ndarray, np.ndarray] | list[tuple[np.ndarray, np.ndarray]]:
    """The form of the block rep of (cols, sub) stacks tiling range(d) (a dense stack is one
    block), read by :func:`_exact_zeros`: monomial (src, phase) (|G|, d) if d > 0 and every block
    is; else each block cut where no entry reaches past, per piece size s ascending one (cols
    (k, s), sub (k, |G|, s, s)), pieces in start order, stacked anew; a stack left whole kept."""
    if not sum(c.size for c, _ in stacks):
        return []
    read = [_exact_zeros(m) for _, m in stacks]
    if all(mono.all() for mono, *_ in read):
        return _src_phase([(c, at, v) for (c, _), (_, at, v, _) in zip(stacks, read)])
    sizes = {}
    for (c, m), (*_, z) in zip(stacks, read):  # [block, row]: a piece ends at a row that no
        union, cols = z.any(1), np.arange(c.shape[1])  # entry reaches past, as each block's last
        reach = np.where(union | union.transpose(0, 2, 1), cols, -1).max(2, initial=-1)
        block, end = np.nonzero(np.maximum.accumulate(np.maximum(cols, reach), axis=1) == cols)
        start = np.concatenate([[0], end[:-1] + 1]) % len(cols)  # after an end, 0 after a last
        for j, a, b, at in zip(*(x.tolist() for x in (block, start, end + 1, c[block, start]))):
            sizes.setdefault(b - a, {})[at] = m[j, :, a:b, a:b]
    out = []
    for s, pieces in sorted(sizes.items()):
        cols = np.array(sorted(pieces))[:, None] + np.arange(s)
        whole = [st for st in stacks if np.array_equal(st[0], cols)]
        out.append(whole[0] if whole else (cols, np.stack([pieces[a] for a in sorted(pieces)])))
    return out


def _block_rep(group: GroupTable, form) -> UnitaryRep:
    """The rep of a monomial (src, phase), U(g)[i, src[g, i]] = phase[g, i] with each row of src
    a permutation of range(d), or of (cols, sub) stacks whose blocks tile range(d) cut by
    :func:`_cut`, validated on its form with the checks, verdicts and messages of
    :class:`UnitaryRep`, whose mats it never stacks; d = 0 or no stacks give the 0-dim rep."""
    form = _cut(form) if isinstance(form, list) else form if form[0].shape[1] else []
    rep = UnitaryRep(group, None, form)
    _validate_rep(group, rep._stacks if rep._monomial is None else rep._monomial)
    return rep


def _validate_rep(group: GroupTable, form) -> None:
    """Raise ValidationError unless every entry is finite and ||mats[0] - I||, every
    ||U U^dag - I|| and every ||U(a) U(b) - U(ab)|| are <= tol = 1e-9 max(1, ||mats||_F), read
    off a :func:`_cut` form: O(|G|^2 d) if monomial, else O(|G|^2 sum s^3).  Residuals of 0/1
    entries (monomial, every phase exactly 1) are 0 or >= sqrt 2, so such a rep passes iff
    src[ab] = src[b][src[a]] for all a and each greedy generator b (the b that pass are closed
    under products), in integers; if not, the float pass names the failing element."""
    arrays = [form[1]] if isinstance(form, tuple) else [m for _, m in form]
    if not all(np.isfinite(m).all() for m in arrays):
        raise ValidationError("representation matrices have non-finite entries")
    tol = scaled_tol([frob(m) for m in arrays])
    if isinstance(form, tuple):  # U(0) - I: phase - 1 on the diagonal, else phase and a -1
        on = form[0][0] == np.arange(form[0].shape[1])
        first = float(np.sqrt((abs(form[1][0] - on) ** 2 + ~on).sum()))
    else:
        first = float(np.sqrt(sum(frob(m[:, 0] - np.eye(m.shape[-1])) ** 2 for m in arrays)))
    if not first <= tol:
        raise ValidationError("representation invariant violated: mats[0] must be the identity")
    worst = float(_unitarity_residuals(group.order, form).max())
    if not worst <= tol:
        raise ValidationError(
            f"unitarity invariant violated: max ||U U^dag - I|| = {worst:.3e} > {tol:.3e}"
        )
    if isinstance(form, tuple) and (form[1] == 1).all():
        src = form[0]
        if all((src[group.mul[:, b]] == src[b][src]).all() for b in group._generators):
            return
    for a, row in enumerate(_homomorphism_residuals(group.mul, form)):
        worst = float(row.max())
        if not worst <= tol:
            raise ValidationError(
                f"homomorphism invariant violated at element {a}: residual {worst:.3e} > {tol:.3e}"
            )


def _unitarity_residuals(n: int, form) -> np.ndarray:
    """||U(g) U(g)^dag - I|| for each of n elements g; a monomial U U^dag is diag |phase|^2,
    and the squares of the blocks' residuals add up."""
    if isinstance(form, tuple):
        return np.sqrt(((abs(form[1]) ** 2 - 1.0) ** 2).sum(axis=1))
    sq = np.zeros(n)
    for _, m in form:
        for g in _chunk_slices(n, m[:, 0].nbytes):
            u = m[:, g].swapaxes(0, 1)  # [g, block, i, l]
            sq[g] += _frob_each(u @ _dagger(u) - np.eye(m.shape[-1])) ** 2
    return np.sqrt(sq)


def _homomorphism_residuals(mul: np.ndarray, form):
    """Yield ||U(a) U(b) - U(ab)|| over b for each a in turn, computed in chunks of a.
    Row i of a monomial U(a) U(b) holds phase[a, i] * phase[b, src[a, i]] at column
    src[b, src[a, i]]; a block U_j(a) multiplies every U_j(b) side by side."""
    n = len(mul)
    if not isinstance(form, tuple):
        wide = [np.ascontiguousarray(m.transpose(0, 2, 1, 3)) for _, m in form]  # [j, i, g, l]
        for rows in _chunk_slices(n, sum(st.nbytes for st in wide)):
            sq = np.zeros((len(mul[rows]), n))
            for st in wide:
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


def _chunk_slices(n: int, bytes_each: int) -> list[slice]:
    """Slices covering range(n), each of as many bytes_each-byte items as fit _STACK_BYTES, >= 1."""
    step = max(1, _STACK_BYTES // max(1, bytes_each))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _dagger(mats: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack of shape (..., m, n)."""
    return mats.conj().swapaxes(-1, -2)


def _frob_each(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix in an (n, a, b) stack, as a length-n array.

    One pass over the stack's float view; ``np.linalg.norm(stack, axis=(1, 2))``
    gives the same values but is slower than a Python loop over ``frob`` once
    the matrices are about 32 x 32.
    """
    flat = np.ascontiguousarray(stack, dtype=complex)
    flat = flat.reshape(len(flat), -1 if flat.size else 0).view(float)  # an empty stack too
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


def trivial_rep(group: GroupTable) -> UnitaryRep:
    """The one-dimensional all-ones representation, exact and so built unchecked: U(g) = 1."""
    n = group.order
    return UnitaryRep(group, None, (np.zeros((n, 1), int), np.ones((n, 1), complex)))


def regular_rep(group: GroupTable) -> UnitaryRep:
    """Left-regular representation: permutation matrix of left multiplication.
    U(g) e_h = e_gh, so row i reads column g^-1 i: src = mul[inv], unit phases.  Exact, so built
    unchecked from the group's exact checks: rows of mul are permutations, src[e] = mul[e] is
    the identity, and src[ab][h] = (ab)^-1 h = b^-1 (a^-1 h) = src[b][src[a][h]] by
    associativity, so U(e) = I, every U(g) is a permutation and U(a) U(b) = U(ab), all exactly."""
    return UnitaryRep(group, None, (group.mul[group.inv], np.ones((group.order,) * 2, complex)))


def number_rep(group: GroupTable, weights) -> UnitaryRep:
    """Diagonal phase representation of a cyclic group Z_N.

    Basis state j carries weight w_j, so element g acts as the phase
    exp(2 pi i g w_j / N).  This is the finite sampling of a U(1) phase
    rotation generated by a number operator with spectrum ``weights``, whole numbers (a
    fractional weight gives no rep of Z_N); else ValidationError.

    Each phase is read from one table of N-th roots of unity at the exponent
    (g (w_j mod N)) mod N, in integers, so a weight of any size gives the rep of w_j mod N.
    If g -> g mod N is a homomorphism of the group into Z_N, checked in integers on its greedy
    generators as :func:`one_dim_reps` checks (the b with m(ab) = m(a) + m(b) for all a are
    closed under products), the rep is exact up to the rounding of the roots and built
    unchecked: U(e) = 1 exactly, and each phase is within a few ulps of unit modulus and of
    the product of the two it must equal, far below tol = 1e-9 max(1, ||mats||_F).  Otherwise
    it is validated as any other rep, which names the element where it fails.
    """
    n, idx = group.order, np.arange(group.order)
    w = _whole(list(weights), "number_rep weights")
    phase = np.exp(2j * np.pi * idx / n)[idx[:, None] * (w % n) % n]  # a table of roots, read
    form = np.tile(np.arange(w.size), (n, 1)), phase
    if w.size and all(((group.mul[:, s] - idx - s) % n == 0).all() for s in group._generators):
        return UnitaryRep(group, None, form)
    return _block_rep(group, form)


def tensor_rep(a: UnitaryRep, b: UnitaryRep) -> UnitaryRep:
    """Collective action on a composite system: g -> a(g) kron b(g)."""
    if not same_group(a.group, b.group):
        raise GroupMismatchError("tensor_rep requires both factors over the same group")
    prod = _kron_rep(a, b)
    if prod is not None:
        return _block_rep(a.group, prod._monomial)
    n, d = a.group.order, a.dim * b.dim
    mats = np.einsum("gij,gkl->gikjl", a.mats, b.mats).reshape(n, d, d)
    return UnitaryRep(a.group, mats)


def _kron_rep(a: UnitaryRep, b: UnitaryRep, conj: bool = False) -> UnitaryRep | None:
    """g -> a(g) kron b(g), or a(g) kron conj b(g), unvalidated, if both reps are monomial,
    else None: row (i, k) reads column (src_a, src_b) with phase phase_a phase_b.  Its product is
    validated by :func:`tensor_rep` through :func:`_block_rep`; ``is_g_covariant`` only gathers
    conjugations with it and returns no rep."""
    if a._monomial is None or b._monomial is None:
        return None
    (src_a, ph_a), (src_b, ph_b) = a._monomial, b._monomial
    src = (src_a[:, :, None] * b.dim + src_b[:, None]).reshape(len(src_a), -1)
    phase = np.einsum("gi,gk->gik", ph_a, ph_b.conj() if conj else ph_b)  # dense einsum rounding
    return UnitaryRep(a.group, None, (src, phase.reshape(src.shape)))


def direct_sum_rep(a: UnitaryRep, b: UnitaryRep) -> UnitaryRep:
    """Block-diagonal sum g -> a(g) directsum b(g): two monomial forms concatenated, else the
    summands' blocks, cut anew.  Not validated again on
    |G| >= 2: residuals of a block-diagonal stack add in squares, a 0-dim summand has none, and
    a valid one of dim >= 1 has ||M||_F > 1 (two near-unitary terms), so r^2 = r_a^2 + r_b^2
    <= tol_a^2 + tol_b^2 = tol^2 for tol = 1e-9 ||M||_F."""
    if not same_group(a.group, b.group):
        raise GroupMismatchError("direct_sum_rep requires both summands over the same group")
    if a._monomial is not None and b._monomial is not None:
        (src_a, ph_a), (src_b, ph_b) = a._monomial, b._monomial
        form = np.hstack([src_a, src_b + a.dim]), np.hstack([ph_a, ph_b])
    else:  # a monomial summand's matrices as one block, scattered, not kept on the summand
        st_a, st_b = (r._stacks if r._monomial is None else
                      [(np.arange(r.dim)[None], r._scatter()[None])] for r in (a, b))
        form = _cut(st_a + [(c + a.dim, m) for c, m in st_b])
    return UnitaryRep(a.group, None, form) if a.group.order > 1 else _block_rep(a.group, form)


def twirl_operator(r: UnitaryRep, x: np.ndarray) -> np.ndarray:
    """Group average (1/|G|) sum_g U(g) x U(g)^dag.

    The result commutes with every U(g); averaging a Hermitian input yields a
    Hermitian output with the same trace.  The terms come from
    :meth:`UnitaryRep.conjugate` in chunks of g under a fixed byte budget: O(|G| d^2)
    on a monomial rep, O(|G| d sum s^2) on one of diagonal blocks of sizes s.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (r.dim, r.dim):
        raise DimensionMismatchError(
            f"twirl_operator needs a {r.dim}x{r.dim} matrix, got {x.shape}"
        )
    total = sum(r.conjugate(x, g).sum(axis=0) for g in _chunk_slices(r.group.order, x.nbytes))
    return total / r.group.order


@dataclass(eq=False)
class IrrepBlock:
    """One inequivalent irreducible constituent of a decomposition.

    ``character`` is the trace vector over conjugacy classes in canonical
    class order.
    ``mats`` holds the d_mu x d_mu unitaries (one per group element) by which
    every copy in the sector acts: the decomposition's basis lays all copies out
    in the same irrep basis.
    """

    label: int
    dim: int
    mult: int
    character: np.ndarray
    mats: np.ndarray


class IrrepDecomposition:
    """Basis change W plus the ordered irreducible blocks it exposes.  State queries make one call
    per step over all sectors (:meth:`_padded`); SVDs and residual one per shape (d_mu, n_mu)."""

    __slots__ = ("rep", "basis", "blocks", "offsets", "_shapes", "_pad", "_residual")

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
        self._shapes = None  # the index of _by_shape: decompose's own, else built on first use
        self._pad = None  # the layout of _padded, built by the first state query
        self._residual = None  # decompose's final reconstruction residual

    def multiset(self) -> list[tuple[int, int]]:
        """The (dimension, multiplicity) pairs, in block order."""
        return [(b.dim, b.mult) for b in self.blocks]

    def sector_slice(self, index: int) -> slice:
        blk = self.blocks[index]
        start = self.offsets[index]
        return slice(start, start + blk.dim * blk.mult)

    def _by_shape(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The sectors grouped by shape (d_mu, n_mu): as :func:`decompose` hands them over, whose
        blocks' mats are views into its stacks, else built on first use.  Per shape, in order of
        first block: the block indices ix, rows of shape (k, d_mu, n_mu) with
        rows[j, m, a] = offsets[ix[j]] + m * n_mu + a, and the stack of the blocks' mats."""
        if self._shapes is None:
            shapes: dict[tuple[int, int], list[int]] = {}
            for i, blk in enumerate(self.blocks):
                shapes.setdefault((blk.dim, blk.mult), []).append(i)
            index = []
            for (d, n), ix in shapes.items():
                starts = np.array([self.offsets[i] for i in ix])[:, None]
                rows = (starts + np.arange(d * n)).reshape(-1, d, n)
                index.append((np.array(ix), rows, np.array([self.blocks[i].mats for i in ix])))
            self._shapes = index
        return self._shapes

    def _padded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The K sectors in block order, zero-padded to D = max d_mu and N = max n_mu (>= 1),
        built on first use: rows (K, D, N) into :meth:`_coefficients`, offsets[k] + m n_mu + a
        or d (its zero) on the padding; the block mats (K, |G|, D, D), K |G| D^2 16 bytes; d_mu."""
        if self._pad is None:
            dims, mults = np.array(self.multiset(), dtype=int).reshape(-1, 2).T
            size, k = dims.max(initial=1), len(self.blocks)
            rows = np.full((k, size, mults.max(initial=1)), self.rep.dim)
            mats = np.zeros((k, self.rep.group.order, size, size), dtype=complex)
            for ix, r, m in self._by_shape():  # one assignment per shape, not per block
                d, n = r.shape[1:]
                rows[ix, :d, :n], mats[ix, :, :d, :d] = r, m
            self._pad = rows, mats, dims
        return self._pad

    def _coefficients(self, vec: np.ndarray) -> np.ndarray:
        """W vec with a zero appended, which the padding of :meth:`_padded` reads; a vec not of
        shape (d,) raises DimensionMismatchError."""
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (self.rep.dim,):
            raise DimensionMismatchError(f"vector of shape {vec.shape} for dim {self.rep.dim}")
        x = np.zeros(self.rep.dim + 1, dtype=complex)
        np.matmul(self.basis, vec, out=x[:-1])
        return x

    def _gap(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """From the :meth:`_coefficients` x, y of two vectors: their padded reductions F_x = X X^dag
        and F_y (K, D, D), and each sector's ||F_x - F_y||_1 as sum |lambda| of one eigvalsh (a zero
        border adds only zero eigenvalues)."""
        rows = self._padded()[0]
        fx, fy = (z @ _dagger(z) for z in (x[rows], y[rows]))
        return fx, fy, np.abs(np.linalg.eigvalsh(fx - fy)).sum(axis=1)

    def vector_sectors(self, vec: np.ndarray) -> list[np.ndarray]:
        """Coefficient matrix (d_mu x n_mu) of a vector in each sector."""
        x = self._coefficients(vec)[self._padded()[0]]
        return [z[: b.dim, : b.mult] for z, b in zip(x, self.blocks)]

    def invariant_unitary(self, mult_unitaries: list[np.ndarray]) -> np.ndarray:
        """Assemble directsum_mu I_{d_mu} kron V_mu back in the original basis.

        Every unitary commuting with the whole representation has this shape,
        with V_mu acting on the multiplicity space of block mu.  One indexed
        assignment per shape (d_mu, n_mu) places the V_mu; W^dag (.) W is O(d^3).
        """
        if len(mult_unitaries) != len(self.blocks):
            raise DimensionMismatchError("need one multiplicity-space unitary per block")
        vs = [np.asarray(v, dtype=complex) for v in mult_unitaries]
        for blk, v in zip(self.blocks, vs):
            if v.shape != (blk.mult, blk.mult):
                raise DimensionMismatchError(
                    f"block {blk.label} needs a {blk.mult}x{blk.mult} unitary, got {v.shape}"
                )
        return self._assemble([np.stack([vs[i] for i in ix]) for ix, _, _ in self._by_shape()])

    def _assemble(self, stacks: list[np.ndarray]) -> np.ndarray:
        """W^dag (directsum_mu I_{d_mu} kron V_mu) W from the per-shape stacks of V_mu."""
        out = np.zeros((self.rep.dim, self.rep.dim), dtype=complex)
        for (_, rows, _), v in zip(self._by_shape(), stacks):
            out[rows[..., None], rows[:, :, None, :]] = v[:, None]  # [j, m, a, b] = V_j[a, b]
        return _dagger(self.basis) @ out @ self.basis

    def align(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, list[float]]:
        """Invariant unitary V maximizing Re <b|V|a>, and each sector's share of it.

        Sector mu, with coefficient matrices A and B, contributes tr(B^dag A V_mu^T).
        From the SVD B^dag A = u s vh, V_mu = conj(u vh) makes it ||B^dag A||_1 =
        sum(s), the maximum, which is the Uhlmann fidelity of A A^dag and B B^dag
        (on zero singular values the SVD's completion is kept).  The shares, in
        block order, sum to <b|V|a>, which is therefore real and nonnegative.
        One batched SVD per shape (d_mu, n_mu), then V as in :meth:`invariant_unitary`.
        """
        return self._align(self._coefficients(a), self._coefficients(b))

    def _align(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, list[float]]:
        """:meth:`align` from the :meth:`_coefficients` x of a and y of b."""
        vs, shares = [], np.zeros(len(self.blocks))
        for ix, rows, _ in self._by_shape():
            u, s, vh = np.linalg.svd(_dagger(y[rows]) @ x[rows])
            vs.append(np.conj(u @ vh))
            shares[ix] = s.sum(axis=1)
        return self._assemble(vs), shares.tolist()

    def reconstruction_residual(self) -> float:
        """A bound on max_g ||W U(g) W^dag - B(g)||_F, B(g) = directsum_mu U_mu(g) (x) I_{n_mu},
        never below it: W U W^dag - B = (W U - B W) W^dag + B (W W^dag - I) gives r sqrt(1 + e)
        + sqrt(b) e for the :func:`_intertwiner_residual` (r, e, b) of W, as ||W||_2^2 <= 1 + e."""
        r, e, b = _intertwiner_residual(self.rep, self.basis, self._by_shape())
        return float(r * np.sqrt(1.0 + e) + np.sqrt(b) * e)


def _intertwiner_residual(rep: UnitaryRep, w: np.ndarray, shapes: list) -> tuple:
    """r = max_g ||W U(g) - B(g) W||_F, e = ||W W^dag - I||_F and b = 1 + max ||B_c B_c^dag - I||_F
    for W (L, d), B(g) = directsum_c B_c(g) (x) I_{n_c} per shape (_, rows (k, d_c, n_c) of W,
    B_c (k, |G|, d_c, d_c)), the residual of :meth:`IrrepDecomposition.reconstruction_residual`.
    Per shape and chunk of g, rows of W U(g) are one gather (of W, times the phases unless all are
    1, if monomial, else of (U(g)^dag W^dag)^dag from :meth:`UnitaryRep._act`), of B(g) W one
    product: O(|G| d sum d_c^2 n_c + L^2 d), plus O(|G| L sum s^2) for blocks of sizes s."""
    w, d, n, phase = np.ascontiguousarray(w), rep.dim, rep.group.order, None
    e, b, mono, r = frob(w @ _dagger(w) - np.eye(len(w))), 1.0, rep._monomial, 0.0
    parts = []  # per shape: flat index of row [j, m, a] in x, mats, W's rows [j, m, (a, col)]
    for _, rows, m in shapes:  # U U^dag summed over columns: no tiny matmuls
        gram = sum(m[..., :, j, None] * m[..., None, :, j].conj() for j in range(m.shape[-1]))
        gram -= np.eye(m.shape[-1])
        b = max(b, 1 + _frob_each(gram.reshape(len(m), -1)).max())
        parts.append((rows[:, None, :, :, None] * d, m, w[rows].reshape(*rows.shape[:2], -1)))
    if mono is not None:  # (W U(g))[:, col] = W[:, at[g, col]] phase[g, at[g, col]]
        at, unit = np.argsort(mono[0], axis=1), (mono[1] == 1).all()
        phase = None if unit else np.take_along_axis(mono[1], at, axis=1)[:, None, None]
    for g in _chunk_slices(n, w.nbytes):  # cols: flat index of [row 0, col] in x, per g
        x = w if mono is not None else _dagger(rep._act(_dagger(w)[None], g, adjoint=True))
        cols = at[g] if mono is not None else np.arange(len(x))[:, None] * w.size + np.arange(d)
        sq = 0.0
        for at_row, m, wr in parts:  # diff[j, g, m, a, col], as B(g) W comes out
            diff = np.take(x, at_row + cols[:, None, None])
            if phase is not None:
                diff *= phase[g]
            k, d_mu = wr.shape[:2]  # B(g) W: outer products if d_mu = 1, else small products
            bw = m[:, g] * wr[:, None] if d_mu == 1 else m[:, g].reshape(k, -1, d_mu) @ wr
            diff -= bw.reshape(diff.shape)
            flat = diff.reshape(k, len(cols), -1).view(float)
            sq = sq + np.einsum("jgx,jgx->g", flat, flat)
        r = max(r, float(np.sqrt(np.max(sq, initial=0.0))))
    return r, e, b


def decompose(r: UnitaryRep, seed: int = 0) -> IrrepDecomposition:
    """Decompose a unitary representation into irreducible blocks.

    Strategy (Serre, Linear Representations of Finite Groups, 2.6-2.7): the
    group's character table gives each multiplicity n_mu = <chi_mu, chi_r>, and
    one ``eigh`` of P = sum_mu c_mu P_mu, the isotypic projectors weighted by
    labels c_mu = 0, 1, 2, ... in the table's canonical order, splits the space
    into isotypes.  An isotype of a 1-dim irrep acts by its table row, and one of one
    copy is a block as it is.  In any other, the top eigenvectors of the twirl of z z^dag,
    for one random vector z, give one copy's matrices ref, and Serre's projection operators
    built from ref lay out every copy in ref's basis at once (:func:`_split`), one batched
    pass per isotype shape (d_mu, n_mu), whose stacks the blocks' mats are views into.
    P costs O(|G| d) on a monomial rep, O(|G| sum s^2) block by block
    on one of diagonal blocks of sizes s; U(g) acts by :meth:`UnitaryRep._act`, and the final
    check (the residual bound, at most max(1e-8, 1e-9 ||mats||, 1e-10 d)) costs
    O(|G| d sum d_mu^2 n_mu + d^3), plus O(|G| d sum s^2) on blocks.  A 0-dim rep has no blocks.

    Deterministic for a fixed seed, which drives only the splitting twirls: it
    moves the basis inside such an isotype but never the blocks' order, labels,
    dimensions or multiplicities.  Each split isotype draws exactly one complex Gaussian
    vector, in label order, before any twirl is diagonalized.  NumericalDegeneracyError is
    raised at once for multiplicities that are not whole, P's eigenvalues off their labels, a
    failed final check, or a twirl whose top d_mu eigenvalues collide with the next one: no
    rep forces that, as the twirl is I_{d_mu} (x) M with M a complex Wishart matrix, whose
    top gap repels, and another seed draws another twirl.

    Parameters
    ----------
    r : UnitaryRep
        The representation to split.
    seed : int
        Nonnegative integer seed of the splitting twirls, the only source of
        randomness; any other value raises InvalidParameterError.
    """
    try:  # a float or str seed fails operator.index, a negative one default_rng
        rng = np.random.default_rng((operator.index(seed), 0))
    except (TypeError, ValueError):
        raise InvalidParameterError(f"decompose needs a nonnegative integer seed, got {seed!r}")
    group, d, n = r.group, r.dim, r.group.order
    if d == 0:
        dec = IrrepDecomposition(r, np.zeros((0, 0), dtype=complex), [])
        dec._residual = 0.0
        return dec
    chars = group._character_table()
    degs = chars[:, 0].real.astype(int)
    mults = chars.conj() @ r.character() / n  # n_mu = <chi_mu, chi_r>
    counts = np.rint(mults.real).astype(int)
    if abs(mults - counts).max() > _CLUSTER_GAP or degs @ counts != d:
        raise NumericalDegeneracyError(f"decompose: multiplicities {np.round(mults, 6)} not whole")
    present = np.flatnonzero(counts)
    dims, copies = degs[present], counts[present]
    sizes = dims * copies
    # P = sum_mu c_mu P_mu with P_mu = (d_mu/|G|) sum_g conj chi_mu(g) U(g), labels c_mu = 0, 1, ...
    a = (np.arange(present.size) * dims) @ chars[present].conj() / n
    p = np.zeros((d, d), dtype=complex)
    for cols, sub in r._stacks or ():  # per diagonal block
        p[cols[:, :, None], cols[:, None, :]] = np.tensordot(a, sub, (0, 1))
    if r._monomial is not None:  # U(g)[i, src[g, i]] = phase[g, i]
        np.add.at(p, (np.arange(d), r._monomial[0]), a[:, None] * r._monomial[1])
    evals, evecs = np.linalg.eigh(p)
    off = float(abs(evals - np.repeat(np.arange(present.size), sizes)).max())
    if off > _CLUSTER_GAP:
        raise NumericalDegeneracyError(f"decompose: projector eigenvalues {off:.3e} off labels")

    zs = {i: random_complex((sizes[i],), rng) for i in np.flatnonzero((dims > 1) & (copies > 1))}
    shapes: dict[tuple[int, int], list[int]] = {}  # the labels of each shape, in label order
    for i in range(present.size):
        shapes.setdefault((int(dims[i]), int(copies[i])), []).append(i)
    cuts, basis, index = np.r_[0, np.cumsum(sizes)], evecs.copy(), []
    reps_, blocks = group.class_representatives(), [None] * present.size
    for (d_mu, n_mu), ix in shapes.items():  # the index of IrrepDecomposition._by_shape
        cols = cuts[ix, None] + np.arange(d_mu * n_mu)  # [j, column]
        if d_mu == 1:  # a 1-dim isotype acts by its table row
            mats = chars[present[ix]].reshape(len(ix), n, 1, 1)
            character = mats[:, reps_, 0, 0]
        else:
            q = np.ascontiguousarray(evecs[:, cols].transpose(1, 0, 2))
            mats = _subreps(r, q)
            if n_mu > 1:
                q, mats = _split(q, mats, np.stack([zs[i] for i in ix]), d_mu)
            basis[:, cols] = q.transpose(1, 0, 2)
            character = np.einsum("kgii->kg", mats[:, reps_])
        index.append((np.array(ix), cols.reshape(-1, d_mu, n_mu), mats))
        for j, i in enumerate(ix):
            blocks[i] = IrrepBlock(i, d_mu, n_mu, character[j], mats[j])
    dec = IrrepDecomposition(r, basis.conj().T, blocks)
    dec._shapes = index
    norm = [frob(m) for _, m in r._stacks] if r._monomial is None else r._monomial[1]  # ||mats||_F
    residual, tol = dec.reconstruction_residual(), max(scaled_tol(norm), 1e-10 * d, 1e-8)
    if residual > tol:
        raise NumericalDegeneracyError(f"decompose: residual {residual:.3e} > {tol:.3e}")
    dec._residual = residual
    return dec


def _subreps(r: UnitaryRep, q: np.ndarray) -> np.ndarray:
    """q_j^dag (U(g) q_j) for a stack q (k, d, m) in chunks of g, by :meth:`UnitaryRep._act`."""
    out, qh = np.empty((len(q), r.group.order, *q.shape[2:] * 2), complex), _dagger(q)[:, None]
    for g in _chunk_slices(r.group.order, q.nbytes):
        out[:, g] = qh @ r._act(q[:, None], g)
    return out


def _split(q: np.ndarray, sub: np.ndarray, z: np.ndarray, d_mu: int) -> tuple:
    """Split k isotypes of one shape (d_mu, n_mu > 1), with bases q (k, d, m), subreps sub
    (k, |G|, m, m) and one complex Gaussian vector each in z (k, m): the bases in the layout
    m * n_mu + n (irrep row m, copy n) and the first copies' matrices ref.  The twirl of z z^dag,
    A A^dag / |G| with A = [sub(g) z]_g, is I_{d_mu} (x) M with M of rank <= d_mu; its top d_mu
    eigenvectors v span one copy, and a closed gap below them raises.  Serre's p_a =
    (d_mu/|G|) sum_g conj(ref(g)[a, 0]) sub(g) (Linear Representations of Finite Groups, 2.7,
    Prop. 8) map a basis w of the range of p_0 onto row a of every copy.  A, ref = v^dag sub v
    and the p_a are each one product per isotype, the group axis folded into it, in chunks of
    isotypes under a fixed byte budget, so that no bit depends on the budget."""
    k, n, m = sub.shape[:3]
    n_mu = m // d_mu
    basis, ref = np.empty_like(q), np.empty((k, n, d_mu, d_mu), complex)
    for c in _chunk_slices(k, sub[0].nbytes):
        rows = sub[c].reshape(-1, n * m, m)  # [j, (g, i), l]
        a = (rows @ z[c, :, None]).reshape(-1, n, m)  # [j, g, i] = (sub(g) z)_i
        evals, v = np.linalg.eigh(a.swapaxes(1, 2) @ a.conj() / n)
        gap = evals[:, -d_mu] - evals[:, -d_mu - 1]
        if not (gap > _CLUSTER_GAP * np.maximum(1.0, evals[:, -1] - evals[:, 0])).all():
            raise NumericalDegeneracyError(f"decompose: copies of a {d_mu}-dim irrep collide in "
                                           "the isotypic twirl; another seed draws another twirl")
        v = v[..., -d_mu:]
        sv = (rows @ v).reshape(-1, n, m, d_mu).transpose(0, 2, 1, 3).reshape(-1, m, n * d_mu)
        ref[c] = (_dagger(v) @ sv).reshape(-1, d_mu, n, d_mu).transpose(0, 2, 1, 3)
        p = (ref[c, :, :, 0].conj().swapaxes(1, 2) @ sub[c].reshape(-1, n, m * m)) * (d_mu / n)
        p = p.reshape(-1, d_mu * m, m)  # [j, (a, i), l] = p_a[i, l]
        w = np.linalg.eigh(p[:, :m])[1][..., -n_mu:]  # a basis of the range of p_0
        x = (p @ w).reshape(-1, d_mu, m, n_mu).transpose(0, 2, 1, 3)
        basis[c] = q[c] @ x.reshape(-1, m, d_mu * n_mu)
    return basis, ref


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


def one_dim_reps(group: GroupTable) -> np.ndarray:
    """All one-dimensional representations, as unit-modulus vectors over G.

    Row k of the result is one homomorphism omega: G -> U(1) with omega(e)=1:
    a degree-1 row of the group's character table (the 1-dim blocks of :func:`decompose`),
    checked exactly on the integer exponents of its |G|-th roots of unity.
    The list always includes the all-ones (trivial) row.
    """
    if group._one_dim is None:  # checked once, then kept read-only on the group
        chars, n = group._character_table(), group.order
        omegas = chars[chars[:, 0] == 1]
        m = np.rint(np.angle(omegas) * n / (2 * np.pi)).astype(np.int64)
        for s in group._generators:  # the b with m(ab) = m(a) + m(b) for all a
            for rows in _chunk_slices(len(m), m[0].nbytes):  # are closed under products
                if ((m[rows][:, group.mul[:, s]] - m[rows] - m[rows, s, None]) % n).any():
                    raise NumericalDegeneracyError("a degree-1 character is not a homomorphism")
        omegas.setflags(write=False)
        group._one_dim = omegas
    return group._one_dim


def _regular_irreps(group: GroupTable) -> tuple[list[np.ndarray], float, list[tuple], list]:
    """What GNS reads of decompose(regular_rep(group), seed=0): the irrep stacks of each sector
    shape (:meth:`IrrepDecomposition._by_shape`), the residual, each stack's monomial flags and
    rows as :func:`_exact_zeros` reads them, and their :func:`_squared_norms`.  Kept on the group
    on first use: deterministic, so a race only builds them twice, and no caller's seed reaches
    them.  No decomposition is kept, as its regular rep would point back at the group."""
    if group._irreps is None:
        dec = decompose(regular_rep(group), seed=0)
        stacks = [m for _, _, m in dec._by_shape()]
        monomial = [_exact_zeros(m)[:3] for m in stacks]
        group._irreps = stacks, dec._residual, monomial, _squared_norms(stacks)
    return group._irreps


def _squared_norms(stacks: list[np.ndarray]) -> list[np.ndarray]:
    """Per irrep stack m (k, |G|, s, s), each irrep's ||U_mu||_F^2 over the group, (k,)."""
    return [np.einsum("kgij,kgij->k", m.conj(), m).real for m in stacks]


def random_invariant_unitary(dec: IrrepDecomposition, rng) -> np.ndarray:
    """Sample a unitary commuting with the whole representation.

    Haar-random on each multiplicity space, identity across irrep rows: the
    generic element of the commutant's unitary group.
    """
    rng = np.random.default_rng(rng)
    vs = [haar_unitary(blk.mult, rng) for blk in dec.blocks]
    return dec.invariant_unitary(vs)
