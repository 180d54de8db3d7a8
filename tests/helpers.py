"""Checks shared by several test modules."""

from __future__ import annotations

import copy
import json
from typing import Any

import numpy as np

import asymkit as ak
from asymkit import jsonio
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

    Same formulas as :func:`asymkit.bound_from_charfunc`, but each state's
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
        character = ak.CharFunction(dec.rep.group, blk.character_per_element())
        c1 = ak.convolve(character, chi1).values
        c2 = ak.convolve(character, chi2).values
        per_total += blk.dim**2 * float(np.mean(np.abs(blk.dim * (c1 - c2))))
    return bound_global, 1.0 - 0.5 * per_total


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
    for g in r_in.group.elements():
        m = np.kron(r_out.mats[g], r_in.mats[g].conj())
        worst = max(worst, frob(m @ j @ m.conj().T - j))
    return worst


def reference_canonical_dumps(obj: Any) -> str:
    """The report text as the encoder-based ``canonical_dumps`` wrote it.

    Rounds every float to 12 significant digits, then lets ``json.dumps``
    print the payload: the oracle for the library's whole-array emitter.
    """
    return json.dumps(_round_floats(obj), sort_keys=True, separators=(",", ": "), indent=1)


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


def pair_payloads():
    """A valid JSON payload of each kind that holds [re, im] pairs.

    Each entry is (payload, the key of its pair array, reader); all live on
    the Z4 number rep with weights 0 and 1 (d = 2).
    """
    z4 = ak.make_cyclic(4)
    rep = ak.number_rep(z4, [0, 1])
    psi = ak.QuantumState.pure(np.array([1.0, 1.0j]) / np.sqrt(2))
    return {
        "rep": (jsonio.rep_to_json(rep), "mats", jsonio.rep_from_json),
        "state": (jsonio.state_to_json(psi), "data", jsonio.state_from_json),
        "func": (
            jsonio.func_to_json(ak.charfunc(psi, rep)),
            "values",
            lambda obj: jsonio.func_from_json(obj, z4),
        ),
        "channel": (
            jsonio.channel_to_json(ak.QuantumChannel(np.eye(2)[None])),
            "kraus",
            jsonio.channel_from_json,
        ),
    }


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
    payload, key, _ = pair_payloads()[kind]
    payload = copy.deepcopy(payload)
    payload[key] = MALFORMED[case](payload[key])
    return payload
