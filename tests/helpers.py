"""Checks shared by several test modules."""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import json
import operator
from typing import Any

import numpy as np

import asymkit as ak
from asymkit import bochner, cli, jsonio, reps
from asymkit.linalg import assert_psd, frob, scaled_tol, trace_norm


def trace_distance_fidelity_check(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ||A - B||_1 >= tr A + tr B - 2 Fid(A, B) holds (it always does).

    The characteristic-function and trace-distance bounds on the optimal
    overlap lean on this inequality.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    tol = scaled_tol(a, b, base=1e-8)
    assert_psd(a, tol, what="inequality argument")
    assert_psd(b, tol, what="inequality argument")
    lhs = trace_norm(a - b)
    rhs = float(np.trace(a).real + np.trace(b).real) - 2.0 * ak.fidelity(a, b)
    return lhs >= rhs - 10 * tol


def charfunc_bound_by_convolution(psi1, psi2, dec) -> tuple[float, float]:
    """The characteristic-function overlap bounds from charfunc and convolve.

    Same formulas as the charfunc bounds of :class:`asymkit.OverlapReport`, but each state's
    irrep component is d_mu * (character conv chi), built from the
    characteristic functions themselves rather than from the sector
    reductions: an oracle that shares no Fourier code with the library.
    """
    chi1 = ak.charfunc(psi1, dec.rep)
    chi2 = ak.charfunc(psi2, dec.rep)
    sectors = zip(dec.vector_sectors(psi1.vec), dec.vector_sectors(psi2.vec))
    active = [
        i
        for i, (a, b) in enumerate(sectors)
        if np.linalg.norm(a) ** 2 > 1e-12 or np.linalg.norm(b) ** 2 > 1e-12
    ]
    d2 = sum(dec.blocks[i].dim ** 2 for i in active)
    bound_global = 1.0 - 0.5 * d2 * float(np.mean(np.abs(chi1.values - chi2.values)))
    per_total = 0.0
    for i in active:
        blk = dec.blocks[i]
        character = ak.CharFunction(dec.rep.group, np.einsum("gii->g", blk.mats))
        c1 = ak.convolve(character, chi1).values
        c2 = ak.convolve(character, chi2).values
        per_total += blk.dim**2 * float(np.mean(np.abs(blk.dim * (c1 - c2))))
    return bound_global, 1.0 - 0.5 * per_total


def assert_matches_character_table(dec, atol: float = 1e-9) -> None:
    """decompose's blocks against the group's character table: each block's own
    character, the trace of its matrices, is a table row; the rows appear in table
    order; each dim is the row's degree and each multiplicity <chi_mu, chi_r>, with
    chi_r the trace of the rep's own matrices; the residual is within tolerance."""
    group = dec.rep.group
    table = group._character_table()
    mults = (table.conj() @ np.einsum("gii->g", dec.rep.mats) / group.order).real
    rows = []
    for blk in dec.blocks:
        char = np.einsum("gii->g", blk.mats)
        row = int(np.argmin(np.abs(table - char).max(axis=1)))
        assert np.abs(table[row] - char).max() <= atol
        assert blk.dim == table[row, 0].real and abs(blk.mult - mults[row]) <= atol
        rows.append(row)
    assert rows == list(np.flatnonzero(np.rint(mults)))
    assert dec.reconstruction_residual() <= max(1e-8, 1e-10 * dec.rep.dim)


def block_matrix(dec, g) -> np.ndarray:
    """directsum_mu U_mu(g) kron I_{n_mu} in the decomposed basis, placed one block at a
    time; an index array or slice for ``g`` gives a stack, one matrix per element."""
    lead = dec.rep.mats[g].shape[:-2]
    out = np.zeros(lead + (dec.rep.dim, dec.rep.dim), dtype=complex)
    for i, blk in enumerate(dec.blocks):
        sl = dec.sector_slice(i)
        # kron(M, I_n) over the leading axes: entry (m, a, m', b) is M[m, m'] I[a, b].
        kron = blk.mats[g][..., :, None, :, None] * np.eye(blk.mult)[:, None, :]
        out[..., sl, sl] = kron.reshape(out[..., sl, sl].shape)
    return out


def dense_reconstruction_residual(dec) -> float:
    """max_g ||W U(g) W^dag - B(g)||_F with B(g) from :func:`block_matrix`, one dense
    product per g: the residual that ``reconstruction_residual`` bounds from above."""
    w = dec.basis
    return max(
        (frob(w @ u @ w.conj().T - block_matrix(dec, g)) for g, u in enumerate(dec.rep.mats)),
        default=0.0,
    )


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """The Hermitian part of a complex Gaussian (dim, dim) matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def per_isotype_decompose(r, seed: int = 0) -> ak.IrrepDecomposition:
    """``decompose`` with one Python iteration per isotype, unchecked: each isotype's
    subrep, twirl (one draw, which raises if its copies collide), ``eigh`` and Serre
    projection on its own.  The oracle for the batched split, which must give the same
    bits; it draws through ``reps.random_complex``, as decompose does, one vector per
    split isotype in label order, and folds the group axis into each product in the same
    order."""
    rng = np.random.default_rng((seed, 0))
    group, d, n = r.group, r.dim, r.group.order
    chars = group._character_table()
    degs = chars[:, 0].real.astype(int)
    counts = np.rint((chars.conj() @ np.einsum("gii->g", r.mats) / n).real).astype(int)
    present = np.flatnonzero(counts)
    sizes = degs[present] * counts[present]
    a = (np.arange(present.size) * degs[present]) @ chars[present].conj() / n
    if r._monomial is None:
        p = np.tensordot(a, r.mats, axes=1)
    else:
        p = np.zeros((d, d), dtype=complex)
        np.add.at(p, (np.arange(d), r._monomial[0]), a[:, None] * r._monomial[1])
    evecs = np.linalg.eigh(p)[1]
    basis_cols, blocks = [], []
    for label, (mu, q) in enumerate(zip(present, np.split(evecs, np.cumsum(sizes)[:-1], axis=1))):
        d_mu, n_mu = int(degs[mu]), int(counts[mu])
        if d_mu == 1:
            ref = chars[mu].reshape(n, 1, 1)
            character = chars[mu][group.class_representatives()]
        else:
            if r._monomial is None:
                ref = q.conj().T @ (r.mats @ q)
            else:
                ref = q.conj().T @ (r._monomial[1][..., None] * q[r._monomial[0]])
            if n_mu > 1:
                q, ref = _split_isotype(q, ref, d_mu, rng)
            character = np.einsum("gii->g", ref[group.class_representatives()])
        basis_cols.append(q)
        blocks.append(ak.IrrepBlock(label, d_mu, n_mu, character, ref))
    return ak.IrrepDecomposition(r, np.hstack(basis_cols).conj().T, blocks)


def sector_gaps_by_shape(dec, a, b) -> np.ndarray:
    """Each sector's ||F_a_mu - F_b_mu||_1, in block order, as the sum of the singular values of
    one SVD per sector shape of the unpadded reductions: an oracle that shares neither the padding
    nor the eigvalsh of IrrepDecomposition._gap, for the verdict of
    decide_unitary_g_equivalence, (gaps <= tol).all()."""
    x, y = dec.basis @ a, dec.basis @ b
    gaps = np.zeros(len(dec.blocks))
    for ix, rows, _ in dec._by_shape():
        f = [z[rows] @ z[rows].conj().transpose(0, 2, 1) for z in (x, y)]
        gaps[ix] = np.linalg.svd(f[0] - f[1], compute_uv=False).sum(axis=1)
    return gaps


def _split_isotype(q, sub, d_mu, rng):
    """One isotype's split as :func:`per_isotype_decompose` makes it: the twirl of z z^dag as
    A A^dag / |G|, A = [sub(g) z]_g, its top d_mu eigenvectors v, then ref(g) = v^dag sub(g) v
    and Serre's p_a, each one product over the whole group axis."""
    n, m = sub.shape[:2]
    n_mu = m // d_mu
    z = reps.random_complex((m,), rng)
    rows = sub.reshape(n * m, m)  # [(g, i), l]
    a = (rows @ z[:, None]).reshape(n, m)  # [g, i] = (sub(g) z)_i
    evals, v = np.linalg.eigh(a.T @ a.conj() / n)
    if evals[-d_mu] - evals[-d_mu - 1] <= reps._CLUSTER_GAP * max(1.0, float(evals[-1] - evals[0])):
        raise ak.NumericalDegeneracyError("copies collide")
    v = v[:, -d_mu:]
    sv = (rows @ v).reshape(n, m, d_mu).transpose(1, 0, 2).reshape(m, n * d_mu)
    ref = (v.conj().T @ sv).reshape(d_mu, n, d_mu).transpose(1, 0, 2)
    p = (ref[:, :, 0].conj().T @ sub.reshape(n, m * m)) * (d_mu / n)
    p = p.reshape(d_mu * m, m)  # [(a, i), l] = p_a[i, l]
    w = np.linalg.eigh(p[:m])[1][:, -n_mu:]
    x = (p @ w).reshape(d_mu, m, n_mu).transpose(1, 0, 2)
    return q @ x.reshape(m, m), ref


def gns_copies(f) -> list[tuple[np.ndarray, np.ndarray]]:
    """The copies ``gns_construct`` keeps, in its layout (by sector shape, then block, then
    eigenvalue), each built one irrep at a time from the irreps the group caches of its regular
    decomposition: each block's Fourier block d_mu avg_g f(g^-1) U_mu(g) by its own einsum and
    ``eigh``, then per kept eigenvector the irrep's stack U_mu and that column y of Y_mu."""
    group, n = f.group, f.group.order
    spectra = []
    for stack in reps._regular_irreps(group)[0]:
        for u in stack:
            b = u.shape[-1] * np.einsum("g,gij->ij", f.values[group.inv], u) / n
            lam, v = np.linalg.eigh(0.5 * (b + b.conj().T))
            spectra.append((u, lam, v, n / u.shape[-1] * lam))
    top = max(gamma[-1] for *_, gamma in spectra)
    return [(u, v[:, c] * np.sqrt(lam[c])) for u, lam, v, gamma in spectra
            for c in np.flatnonzero(gamma > bochner._RANK_TOL * top)]


def gns_by_irrep(f) -> tuple[np.ndarray, np.ndarray]:
    """The GNS stack and unnormalized cyclic vector of ``gns_construct``, one dense copy of U_mu
    per copy of :func:`gns_copies`: the oracle, bit for bit, for its batched route."""
    copies, n = gns_copies(f), f.group.order
    dim = sum(len(y) for _, y in copies)
    mats, at = np.zeros((n, dim, dim), dtype=complex), 0
    for u, y in copies:
        mats[:, at : at + len(y), at : at + len(y)] = u
        at += len(y)
    return mats, np.concatenate([y for _, y in copies])


def gns_copy_stacks(f) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (cols, sub) stack of each copy of :func:`gns_copies` on its own, in order: what
    ``reps._cut`` cuts into the form the GNS rep must hold."""
    stacks, at = [], 0
    for u, y in gns_copies(f):
        stacks.append((np.arange(at, at + len(y))[None], u[None]))
        at += len(y)
    return stacks


def gram_rank(f) -> int:
    """Rank of the translated Gram matrix f(g^-1 h) under the GNS truncation at 1e-10 of the
    top eigenvalue, from its own ``eigvalsh``."""
    spec = np.linalg.eigvalsh(f.values[f.group.mul[f.group.inv]])
    return int(np.sum(spec > 1e-10 * spec[-1]))


def check_gns(f, res) -> float:
    """Assert that a GNS result realizes f within 1e-9, in dimension ``gram_rank(f)``, and that
    the bound its rep was trusted on, from the residual of the group's regular decomposition, is
    at least each residual of the dense check: ||U(e) - I||, every ||U U^dag - I|| and every
    ||U(a) U(b) - U(ab)||.  Returns that bound."""
    chi = np.einsum("i,gij,j->g", res.state.vec.conj(), res.rep.mats, res.state.vec)
    assert np.abs(chi - f.values).max() <= 1e-9
    assert res.dim == gram_rank(f)
    bound = bochner._residual_bound(reps._regular_irreps(f.group)[1])
    identity, units, pairs = dense_rep_residuals(f.group.mul, res.rep.mats)
    assert bound >= max(identity, units.max(), pairs.max())
    return bound


def gns_cases() -> dict:
    """Characteristic functions whose GNS reps take every form and block layout: chi of a
    random state in the regular rep of each construct-validate and cli-roundtrip group (1-dim
    blocks for Z32, a monomial rep, several block sizes for the others); low-rank chi of states
    in the 3-dim permutation rep of S3, a 3-dim number rep of Z32 and the 4-dim permutation rep
    of S4; delta_e on Z6 (a monomial rep) and S4 (each irrep d_mu times); and the normalized
    irreducible characters of S4 (one irrep, d_mu times each)."""
    rng = np.random.default_rng(17)
    s4 = ak.make_symmetric(4)
    cases = {}
    for name, group in (("s4", s4), ("d12", ak.make_dihedral(6)), ("z32", ak.make_cyclic(32)),
                        ("d20", ak.make_dihedral(10))):
        cases[name] = ak.charfunc(ak.random_pure_state(group.order, rng), ak.regular_rep(group))
    for name, r in (("s3 perm", perm_rep(ak.make_symmetric(3))),
                    ("z32 number", ak.number_rep(ak.make_cyclic(32), [0, 3, 7])),
                    ("s4 perm", perm_rep(s4))):
        cases[name] = ak.charfunc(ak.random_pure_state(r.dim, rng), r)
    for name, group in (("z6 delta", ak.make_cyclic(6)), ("s4 delta", s4)):
        cases[name] = ak.CharFunction(group, np.eye(group.order)[0].astype(complex))
    for blk in ak.decompose(ak.regular_rep(s4), seed=0).blocks:
        character = np.einsum("gii->g", blk.mats) / blk.dim
        cases[f"s4 irrep {blk.label}"] = ak.CharFunction(s4, character)
    return cases


def dense_rep_residuals(mul: np.ndarray, mats: np.ndarray):
    """The three residuals a UnitaryRep is checked on, from one dense product per pair.

    Returns ||mats[0] - I||, the vector ||U(g) U(g)^dag - I|| over g, and the
    (|G|, |G|) array ||U(a) U(b) - U(ab)||, all Frobenius norms: an oracle that
    shares no code with the library's batched or monomial paths.
    """
    n, d = mats.shape[0], mats.shape[1]
    eye = np.eye(d)
    identity = float(np.linalg.norm(mats[0] - eye))
    unitarity = np.array([np.linalg.norm(u @ u.conj().T - eye) for u in mats])
    homomorphism = np.array(
        [[np.linalg.norm(mats[a] @ mats[b] - mats[mul[a, b]]) for b in range(n)] for a in range(n)]
    )
    return identity, unitarity, homomorphism


def slice_stacks(mats: np.ndarray, blocks: list[slice]) -> list:
    """The (cols, sub) stacks of mats' diagonal blocks at the given slices, one per block
    size s in ascending order, sub (k, |G|, s, s): the form a rep of those blocks holds."""
    spans = [np.arange(b.start, b.stop) for b in blocks]
    out = []
    for s in sorted({len(i) for i in spans}):
        cols = np.array([i for i in spans if len(i) == s])
        out.append((cols, mats[:, cols[:, :, None], cols[:, None, :]].transpose(1, 0, 2, 3)))
    return out


def cut_form(mats: np.ndarray):
    """``reps._cut`` of a dense (|G|, d, d) stack, one block: monomial (src, phase), else the
    slices of the pieces its stacks hold, in start order ([] if d = 0)."""
    form = reps._cut([(np.arange(mats.shape[1])[None], mats[None])])
    if isinstance(form, tuple):
        return form
    spans = sorted((int(c[0]), int(c[-1]) + 1) for cs, _ in form for c in cs)
    return [slice(a, b) for a, b in spans]


def stack_spans(r) -> list[tuple[int, int]]:
    """The (start, stop) of every diagonal block a non-monomial rep holds, in start order."""
    return sorted((int(c[0]), int(c[-1]) + 1) for cs, _ in r._stacks for c in cs)


def perm_rep(group) -> ak.UnitaryRep:
    """Defining permutation rep of S_n, read off the element labels."""
    perms = [[int(c) for c in label] for label in group.labels]
    n = len(perms[0])
    mats = np.zeros((group.order, n, n), dtype=complex)
    for g, p in enumerate(perms):
        mats[g, p, np.arange(n)] = 1.0
    return ak.UnitaryRep(group, mats)


def dense_covariance_residual(c, r_in, r_out) -> float:
    """max_g ||Choi(U_out(g) o E o U_in(g)^dag) - Choi(E)||_F, one Kronecker product per g.

    Each term conjugates the d^2 x d^2 Choi matrix by U_out(g) kron conj U_in(g),
    at O(|G| d^6): the dense oracle for :func:`asymkit.is_g_covariant`, sharing
    none of its gather or Kraus-level code.
    """
    j = c.choi()
    worst = 0.0
    for g in range(r_in.group.order):
        m = np.kron(r_out.mats[g], r_in.mats[g].conj())
        worst = max(worst, frob(m @ j @ m.conj().T - j))
    return worst


def embedded_covariance_check(emb, r_in, r_out):
    """is_g_covariant of an embedding over U_in directsum U_out, on its (d^2 x d^2) Choi matrix,
    d = d_in + d_out: the second check ``embed_channel`` once made, which its certificate
    now bounds from above."""
    combined = ak.direct_sum_rep(r_in, r_out)
    return ak.is_g_covariant(emb, combined, combined)


def embedded_kraus(c) -> np.ndarray:
    """The Kraus operators of ``embed_channel(c, ...)``, one assignment per entry: E's
    operators in the (out, in) corner, then |i><d_in + j| / sqrt(d) ordered by j, then i."""
    r, d = len(c.kraus), c.d_in + c.d_out
    out = np.zeros((r + c.d_out * d, d, d), dtype=complex)
    out[:r, c.d_in:, :c.d_in] = c.kraus
    for j in range(c.d_out):
        for i in range(d):
            out[r + j * d + i, i, c.d_in + j] = 1.0 / np.sqrt(d)
    return out


def reference_canonical_dumps(obj: Any) -> str:
    """The report text as the encoder-based ``canonical_dumps`` wrote it.

    Rounds every float to 12 significant digits, then lets ``json.dumps``
    print the payload: the oracle for the library's whole-array emitter.
    """
    return json.dumps(_round_floats(obj), sort_keys=True, separators=(",", ": "), indent=1)


def listed(obj: Any) -> Any:
    """obj with each numpy array leaf in its dicts, lists and tuples listed as JSON files hold
    it: a complex array by ``matrix_to_json``, any other by ``tolist``.  What the oracles above
    read of a report whose arrays the library keeps as arrays."""
    if isinstance(obj, np.ndarray):
        return jsonio.matrix_to_json(obj) if np.iscomplexobj(obj) else obj.tolist()
    if isinstance(obj, dict):
        return {k: listed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(listed(v) for v in obj)
    return obj


def table_text(obj) -> str:
    """What ``--format table`` prints of a payload."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._render_table(obj)
    return out.getvalue()


def _round12(x: float) -> float:
    return float(f"{float(x):.12g}")


def _round_floats(obj: Any) -> Any:
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, (np.floating,)):
        return _round12(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def dense_charfunc(s, r) -> np.ndarray:
    """chi(g) = tr(rho U(g)) by one einsum over every dense matrix: what charfunc computes on
    a rep that is not monomial, and the oracle for its gather on one that is."""
    if s.is_pure:
        return np.einsum("i,gij,j->g", s.vec.conj(), r.mats, s.vec)
    return np.einsum("ij,gji->g", s.rho, r.mats)


def _per_shape_in_block_order(dec, stacks) -> list:
    """The entries of per-shape stacks, in dec's shape order, as one list in block order."""
    out = [None] * len(dec.blocks)
    for (ix, _, _), stack in zip(dec._by_shape(), stacks):
        for i, x in zip(ix, stack):
            out[i] = x
    return out


def per_shape_reduction(s, dec) -> list:
    """The reduction blocks of a state one sector shape (d_mu, n_mu) at a time, in block
    order: X X^dag of a pure state's coefficient stack, the partial trace of a mixed one."""
    if s.is_pure:
        x = dec.basis @ s.vec
        stacks = [x[rows] @ x[rows].conj().swapaxes(1, 2) for _, rows, _ in dec._by_shape()]
    else:
        rho = dec.basis @ s.rho @ dec.basis.conj().T
        stacks = [np.einsum("kmaja->kmj", rho[rows[..., None, None], rows[:, None, None]])
                  for _, rows, _ in dec._by_shape()]
    return _per_shape_in_block_order(dec, stacks)


def per_shape_fourier(values, dec) -> list:
    """The forward blocks d_mu avg_g values(g^-1) U_mu(g), one einsum per sector shape."""
    group = dec.rep.group
    stacks = [m.shape[-1] * np.einsum("g,kgij->kij", values[group.inv], m) / group.order
              for _, _, m in dec._by_shape()]
    return _per_shape_in_block_order(dec, stacks)


def per_shape_bounds(psi, phi, dec) -> tuple[float, float, float]:
    """max_overlap's trace, charfunc-global and charfunc-per-component bounds, one sector
    shape at a time: an SVD of F1 - F2 and one einsum of inverse rows per shape."""
    x, y = dec.basis @ psi.vec, dec.basis @ phi.vec
    dist, chi_gap, d2, per_total = 0.0, 0.0, 0, 0.0
    for _, rows, mats in dec._by_shape():
        f1, f2 = (z[rows] @ z[rows].conj().swapaxes(1, 2) for z in (x, y))
        dist += np.linalg.svd(f1 - f2, compute_uv=False).sum()
        chi_rows = np.einsum("kij,kgji->kg", f1 - f2, mats)
        weight = np.maximum(np.einsum("kii->k", f1).real, np.einsum("kii->k", f2).real)
        active, dim2 = weight > 1e-12, mats.shape[-1] ** 2
        chi_gap = chi_gap + chi_rows.sum(axis=0)
        d2 += dim2 * int(active.sum())
        per_total += dim2 * float(np.abs(chi_rows[active]).mean(axis=1).sum())
    return 1 - 0.5 * dist, 1 - 0.5 * d2 * float(np.mean(np.abs(chi_gap))), 1 - 0.5 * per_total


def blocked_rep(group) -> ak.UnitaryRep:
    """A rep of Z4 with two diagonal blocks, neither monomial nor dense: the number rep
    with weights 0 and 1 turned by 45 degrees (a 2x2 block), then weight 2 (1x1)."""
    c = np.sqrt(0.5)
    turn = np.array([[c, -c], [c, c]])
    pair = ak.number_rep(group, [0, 1])
    pair = ak.UnitaryRep(group, turn @ pair.mats @ turn.T)
    return ak.direct_sum_rep(pair, ak.number_rep(group, [2]))


PAIR_KINDS = ("rep", "rep-phase", "rep-block", "state", "func", "channel")


def pair_payloads():
    """A valid JSON payload of each kind that holds [re, im] pairs.

    Each entry is (payload, the path of keys to its pair array, reader).  The rep is
    the Z4 number rep with weights 0 and 1 (d = 2), as a hand-written dense file
    ("rep") and in the monomial form the writer picks ("rep-phase"); "rep-block" is
    :func:`blocked_rep` in the block form.  The other payloads live on that d = 2 rep.
    """
    z4 = ak.make_cyclic(4)
    rep = ak.number_rep(z4, [0, 1])
    dense = {"group": ak.group_to_json(z4), "dim": 2, "mats": jsonio.matrix_to_json(rep.mats)}
    psi = ak.QuantumState.pure(np.array([1.0, 1.0j]) / np.sqrt(2))
    return {
        "rep": (dense, ("mats",), jsonio.rep_from_json),
        "rep-phase": (jsonio.rep_to_json(rep), ("phase",), jsonio.rep_from_json),
        "rep-block": (
            jsonio.rep_to_json(blocked_rep(z4)),
            ("blocks", 0, "mats"),
            jsonio.rep_from_json,
        ),
        "state": (jsonio.state_to_json(psi), ("data",), jsonio.state_from_json),
        "func": (
            jsonio.func_to_json(ak.charfunc(psi, rep)),
            ("values",),
            lambda obj: jsonio.func_from_json(obj, z4),
        ),
        "channel": (
            jsonio.channel_to_json(ak.QuantumChannel(np.eye(2)[None])),
            ("kraus",),
            jsonio.channel_from_json,
        ),
    }


def _with(base, path, value):
    """A deep copy of ``base`` with the entry at the key path set to ``value``."""
    obj = copy.deepcopy(base)
    *outer, key = path
    functools.reduce(operator.getitem, outer, obj)[key] = value
    return obj


def edited_payload(kind, edit):
    """A copy of the ``kind`` payload of :func:`pair_payloads` with ``edit`` applied to
    its pair array (edit returns the new array)."""
    payload, path, _ = pair_payloads()[kind]
    pairs = copy.deepcopy(functools.reduce(operator.getitem, path, payload))
    return _with(payload, path, edit(pairs))


def _first_row(pairs):
    """The innermost list of pairs that holds the first pair."""
    while isinstance(pairs[0][0], list):
        pairs = pairs[0]
    return pairs


def _null(pairs):
    _first_row(pairs)[0][0] = None
    return pairs


def _ragged(pairs):
    row = _first_row(pairs)
    if row is pairs:  # a vector has one row: nest its first pair instead
        row[0] = [row[0]]
    else:
        row.pop()
    return pairs


def _triple(pairs):
    _first_row(pairs)[0].append(0.0)
    return pairs


MALFORMED = {
    "null": _null,
    "ragged": _ragged,
    "triple": _triple,
    "depth": lambda pairs: [pairs],
}


def malformed_payload(kind, case):
    return edited_payload(kind, MALFORMED[case])


def rejected_inputs():
    """Input files each reader must reject with ValidationError: id -> (kind, payload), kind
    "rep", "group", "channel" or "weights".  The reps edit the payloads of :func:`pair_payloads`."""
    payloads = pair_payloads()
    dense, mono, blocks = (payloads[k][0] for k in ("rep", "rep-phase", "rep-block"))
    narrow = [[row[:1] for row in m] for m in blocks["blocks"][0]["mats"]]
    rep = {
        "dim-fraction-dense": _with(dense, ("dim",), 2.9),
        "dim-fraction-compact": _with(mono, ("dim",), 2.9),
        "dim-missing-compact": {k: v for k, v in mono.items() if k != "dim"},
        "src-fraction": _with(mono, ("src", 1, 1), 1.5),
        "src-out-of-range": _with(mono, ("src", 1, 1), 2),
        "src-negative": _with(mono, ("src", 1, 0), -1),
        "src-repeated": _with(mono, ("src", 1), [0, 0]),
        "src-phase-shapes": _with(mono, ("phase",), mono["phase"][:3]),
        "src-without-phase": {k: v for k, v in mono.items() if k != "phase"},
        "phase-zero": _with(mono, ("phase", 1, 0), [0.0, 0.0]),
        "phase-not-unit": _with(mono, ("phase", 1, 0), [2.0, 0.0]),
        "start-fraction": _with(blocks, ("blocks", 1, "start"), 2.5),
        "blocks-overlap": _with(blocks, ("blocks", 1, "start"), 1),
        "blocks-gap": _with(_with(blocks, ("blocks", 1, "start"), 3), ("dim",), 4),
        "blocks-not-square": _with(blocks, ("blocks", 0, "mats"), narrow),
        "blocks-short-of-dim": _with(blocks, ("dim",), 4),
        "blocks-past-dim": _with(blocks, ("dim",), 2),
        "blocks-mats-empty": _with(blocks, ("blocks", 0, "mats"), []),
        "blocks-mats-scalar": _with(blocks, ("blocks", 0, "mats"), 5),
        "blocks-block-without-start": _with(blocks, ("blocks", 1), {"mats": narrow}),
        "blocks-block-a-list": _with(blocks, ("blocks", 1), [2, narrow]),
        "blocks-not-a-list": _with(blocks, ("blocks",), blocks["blocks"][0]),
        "mats-and-src": {**mono, "mats": dense["mats"]},
        "blocks-and-src": {**blocks, "src": mono["src"], "phase": mono["phase"]},
        "no-form": {k: v for k, v in dense.items() if k != "mats"},
    }
    channel = payloads["channel"][0]
    return {
        **{name: ("rep", obj) for name, obj in rep.items()},
        "mul-fraction": ("group", {"mul": [[0, 1.5], [1, 0]]}),
        "order-fraction": ("group", {"mul": [[0, 1], [1, 0]], "order": 2.5}),
        "d-in-fraction": ("channel", _with(channel, ("d_in",), 2.5)),
        "d-out-fraction": ("channel", _with(channel, ("d_out",), 2.5)),
        "weights-missing": ("weights", {"amplitudes": {}}),
        "weight-nan": ("weights", {"weights": {"0": 1.0, "1": float("nan")}}),
        "weight-amplitude-nan": (
            "weights", {"weights": {"0": 1.0}, "amplitudes": {"0": [float("nan"), 0.0]}}
        ),
        "weight-amplitude-missing": (
            "weights", {"weights": {"0": 0.5, "1": 0.5}, "amplitudes": {"0": [0.5**0.5, 0.0]}}
        ),
    }


# -- the hand-written report serializers that jsonio.report_to_json replaced, kept as its oracle


def _verdict_to_json(v) -> dict:
    return {
        "status": v.status.value,
        "witness": None if v.witness is None else jsonio.matrix_to_json(v.witness),
        "one_dim_rep": (
            None if v.one_dim_rep is None else jsonio.matrix_to_json(np.ravel(v.one_dim_rep))
        ),
        "certificate": v.certificate,
    }


def _overlap_report_to_json(rep) -> dict:
    return {
        "optimal": float(rep.optimal),
        "per_mu_fidelity": {str(k): float(v) for k, v in rep.per_mu_fidelity.items()},
        "witness": jsonio.matrix_to_json(rep.witness),
        "bound_trace": float(rep.bound_trace),
        "bound_charfunc_global": float(rep.bound_charfunc_global),
        "bound_charfunc_per_mu": float(rep.bound_charfunc_per_mu),
    }


def _bochner_report_to_json(rep) -> dict:
    return {
        "positive_definite": rep.positive_definite,
        "normalized": rep.normalized,
        "min_eigenvalue": float(rep.min_eigenvalue),
        "worst_block": rep.worst_block,
        "block_min_eigenvalues": {
            str(k): float(v) for k, v in rep.block_min_eigenvalues.items()
        },
        "hermiticity_residual": float(rep.hermiticity_residual),
    }


def _gns_result_to_json(res) -> dict:
    return {
        "dim": res.dim,
        "state": jsonio.state_to_json(res.state),
        "rep": {k: v for k, v in jsonio.rep_to_json(res.rep).items() if k != "group"},
    }


def _covariance_check_to_json(check) -> dict:
    return {"covariant": check.covariant, "residual": check.residual}


REPORT_ORACLES = {
    ak.EquivalenceVerdict: _verdict_to_json,
    ak.OverlapReport: _overlap_report_to_json,
    ak.BochnerReport: _bochner_report_to_json,
    ak.GnsResult: _gns_result_to_json,
    ak.CovarianceCheck: _covariance_check_to_json,
}


def report_oracle(report) -> dict:
    """The dict the CLI wrote for a report before one rule wrote them all."""
    return REPORT_ORACLES[type(report)](report)


def decomposition_oracle(dec) -> dict:
    return {
        "basis": jsonio.matrix_to_json(dec.basis),
        "offsets": list(dec.offsets),
        "blocks": [
            {
                "label": blk.label,
                "dim": blk.dim,
                "mult": blk.mult,
                "character": jsonio.matrix_to_json(np.ravel(blk.character)),
                "mats": jsonio.matrix_to_json(blk.mats),
            }
            for blk in dec.blocks
        ],
    }


# -- raise sites: each test module holds one table of calls, their error types and messages


def assert_raises_exactly(call, error: type, message: str) -> None:
    """``call()`` raises an error of exactly the type ``error``, with exactly ``message``."""
    try:
        call()
    except ak.AsymkitError as exc:
        assert (type(exc), str(exc)) == (error, message)
    else:
        raise AssertionError(f"no {error.__name__} raised")
