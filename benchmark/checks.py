"""Correctness checks on the answers of each workload, in plain numpy.

Every check recomputes what it needs from the inputs and the returned
arrays; none calls asymkit, so a check never shows up in a trace and never
shares a defect with the code it checks.  None depends on the random probes
``decompose`` draws: each tests an invariant that every valid answer has.
A check raises :class:`CheckError` on a wrong answer.
"""

from __future__ import annotations

import numpy as np

# Absolute slack for quantities of order one built from unit vectors and
# unitaries of dimension <= 48.
TOL = 1e-8


class CheckError(Exception):
    """A returned answer violates a property every correct answer has."""


def _require(ok, what: str) -> None:
    if not ok:
        raise CheckError(what)


# -- decompose ---------------------------------------------------------------


def decompose_tolerance(mats: np.ndarray) -> float:
    """The acceptance bound ``decompose`` states for its reconstruction residual."""
    d = mats.shape[1]
    tol = max(1e-9 * max(1.0, float(np.linalg.norm(mats))), 1e-10 * d)
    return max(tol, 1e-8)


def block_matrices(blocks, order: int) -> np.ndarray:
    """directsum_mu U_mu(g) kron I_{n_mu}, for every g at once."""
    dim = sum(d * n for d, n, _ in blocks)
    out = np.zeros((order, dim, dim), dtype=complex)
    at = 0
    for d, n, mats in blocks:
        size = d * n
        out[:, at : at + size, at : at + size] = np.einsum(
            "gij,nm->ginjm", mats, np.eye(n)
        ).reshape(order, size, size)
        at += size
    return out


def check_residual(mats, basis, blocks) -> None:
    """max_g ||W U(g) W^dag - blocks(g)||_F is within decompose's stated bound."""
    order, d = mats.shape[0], mats.shape[1]
    _require(basis.shape == (d, d), f"basis has shape {basis.shape}, expected {(d, d)}")
    _require(sum(bd * bn for bd, bn, _ in blocks) == d, "block sizes do not add up to dim")
    diff = basis @ mats @ basis.conj().T - block_matrices(blocks, order)
    worst = float(np.linalg.norm(diff.reshape(order, -1), axis=1).max())
    _require(worst <= decompose_tolerance(mats), f"reconstruction residual {worst:.3e}")


def check_basis_unitary(basis) -> None:
    err = float(np.linalg.norm(basis @ basis.conj().T - np.eye(basis.shape[0])))
    _require(err <= TOL, f"basis is not unitary: ||W W^dag - I|| = {err:.3e}")


def check_block_characters(blocks) -> None:
    """Each block character has norm one and the blocks are mutually orthogonal."""
    chars = np.array([np.einsum("gii->g", mats) for _, _, mats in blocks])
    gram = chars.conj() @ chars.T / chars.shape[1]
    err = float(np.abs(gram - np.eye(len(blocks))).max())
    _require(err <= 1e-6, f"block characters are not orthonormal (error {err:.3e})")


def check_multiplicities(mats, blocks) -> None:
    """n_mu equals <chi_mu, chi_rep>, the inner product with the rep's character."""
    chi = np.einsum("gii->g", mats)
    for d, n, bmats in blocks:
        inner = np.vdot(np.einsum("gii->g", bmats), chi) / mats.shape[0]
        _require(
            abs(inner - n) <= 1e-6,
            f"block of dim {d} has multiplicity {n}, character inner product {inner:.6f}",
        )


def check_decomposition(mats, basis, blocks) -> None:
    check_residual(mats, basis, blocks)
    check_basis_unitary(basis)
    check_block_characters(blocks)
    check_multiplicities(mats, blocks)


# -- state queries ------------------------------------------------------------


def state_chi(mats, vec) -> np.ndarray:
    """chi(g) = <psi|U(g)|psi>."""
    return np.einsum("i,gij,j->g", vec.conj(), mats, vec)


def check_chi(mats, vec, values) -> None:
    err = float(np.abs(state_chi(mats, vec) - values).max())
    _require(err <= TOL, f"characteristic function off by {err:.3e}")


def check_round_trip(reduction_blocks, recovered_blocks) -> None:
    """fourier_inverse(charfunc) reproduces reduction_onto_irreps, traces summing to one."""
    _require(len(reduction_blocks) == len(recovered_blocks), "block counts differ")
    err = max(
        float(np.abs(a - b).max()) for a, b in zip(reduction_blocks, recovered_blocks)
    )
    _require(err <= TOL, f"Fourier round trip off by {err:.3e}")
    total = sum(np.trace(b).real for b in reduction_blocks)
    _require(abs(total - 1.0) <= TOL, f"reduction traces sum to {total:.12f}")


def check_invariant_unitary(mats, v) -> None:
    """v is unitary and commutes with every U(g)."""
    err = float(np.linalg.norm(v @ v.conj().T - np.eye(v.shape[0])))
    _require(err <= TOL, f"witness is not unitary: {err:.3e}")
    comm = v @ mats - mats @ v
    worst = float(np.linalg.norm(comm.reshape(mats.shape[0], -1), axis=1).max())
    _require(worst <= TOL, f"witness does not commute with the rep: {worst:.3e}")


def check_unitary_verdict(mats, psi, phi, planted: bool, status: str, witness) -> None:
    if not planted:
        _require(status == "not_equivalent", f"unrelated pair judged {status}")
        return
    _require(status == "equivalent", f"planted pair judged {status}")
    check_invariant_unitary(mats, witness)
    err = float(np.linalg.norm(witness @ psi - phi))
    _require(err <= TOL, f"witness maps psi to phi only within {err:.3e}")


def check_g_verdict(mul, mats, psi, phi, planted: bool, status: str, omega) -> None:
    chi_psi = state_chi(mats, psi)
    chi_phi = state_chi(mats, phi)
    if not planted:
        vanishing = min(np.abs(chi_psi).min(), np.abs(chi_phi).min()) <= 1e-6
        allowed = ("not_equivalent", "inconclusive") if vanishing else ("not_equivalent",)
        _require(status in allowed, f"unrelated pair judged {status}")
        return
    _require(status == "equivalent", f"planted pair judged {status}")
    _require(np.allclose(np.abs(omega), 1.0, atol=TOL), "omega is not unimodular")
    hom = np.abs(omega[:, None] * omega[None, :] - omega[mul]).max()
    _require(hom <= TOL, f"omega is not a homomorphism ({hom:.3e})")
    err = float(np.abs(chi_phi - omega * chi_psi).max())
    _require(err <= TOL, f"chi_phi differs from omega chi_psi by {err:.3e}")


def check_overlap(mats, psi, phi, planted: bool, optimal, bounds, witness) -> None:
    """|<phi|V|psi>| equals the optimum, which is at least every bound."""
    check_invariant_unitary(mats, witness)
    achieved = abs(np.vdot(phi, witness @ psi))
    _require(
        abs(achieved - optimal) <= TOL,
        f"witness achieves {achieved:.12f}, report says {optimal:.12f}",
    )
    _require(optimal <= 1.0 + TOL, f"optimal overlap {optimal:.12f} exceeds one")
    for b in bounds:
        _require(b <= optimal + TOL, f"lower bound {b:.12f} exceeds optimum {optimal:.12f}")
    if planted:
        _require(optimal >= 1.0 - TOL, f"planted pair reaches only {optimal:.12f}")


# -- construct-validate -----------------------------------------------------


def check_gns(f_values, rep_mats, vec) -> None:
    """The constructed state's chi equals f."""
    err = float(np.abs(state_chi(rep_mats, vec) - f_values).max())
    _require(err <= 1e-7, f"GNS state reproduces f only within {err:.3e}")


def check_flag(name: str, got: bool, expected: bool) -> None:
    _require(bool(got) == expected, f"{name} verdict {got}, planted {expected}")


def check_trace_preserving(kraus) -> None:
    total = np.einsum("kij,kil->jl", kraus.conj(), kraus)
    err = float(np.linalg.norm(total - np.eye(total.shape[0])))
    _require(err <= TOL, f"channel is not trace preserving: {err:.3e}")


def choi_residual(kraus, mats_in, mats_out) -> float:
    """max_g ||Choi(U_out(g) E(U_in(g)^dag . U_in(g)) U_out(g)^dag) - Choi(E)||, relative."""
    flat = kraus.reshape(kraus.shape[0], -1)
    choi = flat.T @ flat.conj()
    worst = 0.0
    for u_in, u_out in zip(mats_in, mats_out):
        m = np.kron(u_out, u_in.conj())
        worst = max(worst, float(np.linalg.norm(m @ choi @ m.conj().T - choi)))
    return worst / max(1.0, float(np.linalg.norm(choi)))


def check_embedding(kraus, channel_kraus, mats_in, mats_out) -> None:
    """Trace preserving, covariant for U_in + U_out, and equal to E on the input sector."""
    check_trace_preserving(kraus)
    d_in, d_out = mats_in.shape[1], mats_out.shape[1]
    order = mats_in.shape[0]
    summed = np.zeros((order, d_in + d_out, d_in + d_out), dtype=complex)
    summed[:, :d_in, :d_in] = mats_in
    summed[:, d_in:, d_in:] = mats_out
    res = choi_residual(kraus, summed, summed)
    _require(res <= TOL, f"embedded channel is not covariant: {res:.3e}")
    v = np.exp(1j * np.arange(d_in))
    rho = (np.eye(d_in) + np.outer(v, v.conj())) / (2 * d_in)
    big = np.zeros((d_in + d_out, d_in + d_out), dtype=complex)
    big[:d_in, :d_in] = rho
    out = np.einsum("kij,jl,kml->im", kraus, big, kraus.conj())
    want = np.einsum("kij,jl,kml->im", channel_kraus, rho, channel_kraus.conj())
    err = float(np.abs(out[d_in:, d_in:] - want).max()) + float(np.abs(out[:d_in]).max())
    _require(err <= TOL, f"embedding does not act as E on the input sector: {err:.3e}")


# -- cli ---------------------------------------------------------------------


def check_cli(command: str, code: int, out: str, err: str, reference: str | None) -> None:
    """Exit code 0, a report for the right command, byte-identical across repeats."""
    _require(code == 0, f"{command} exited with {code}: {err.strip()}")
    _require(
        out.startswith("{") and f'"command": "{command}"' in out, f"{command} report malformed"
    )
    if reference is not None:
        _require(out == reference, f"{command} output differs from its first run")
