"""Which functions on a group are characteristic functions of a state?

Exactly the normalized positive definite ones: f(e) = 1 and the translated
Gram matrix X[g,h] = f(g^-1 h) is Hermitian PSD.  One rule decides it, in the
units of X (:func:`_gram_rule`), from either of two spectra of X: the Fourier
blocks B_mu = d_mu * avg_g f(g^-1) U_mu(g) give gamma = (|G|/d_mu) lambda(Herm
B_mu) per irrep (:func:`is_positive_definite`), and the ``eigh`` of X gives the
eigenbasis in which :func:`gns_construct` rebuilds a block-diagonal rep and a
cyclic unit vector realizing a valid f.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import reps
from .errors import InvalidCharacteristicFunctionError, InvalidParameterError
from .errors import NumericalDegeneracyError
from .linalg import RTOL, frob, hermitian_part, min_eigenvalue, scaled_tol
from .states import CharFunction, QuantumState, _forward_block

_RANK_TOL = 1e-10


def _gram_rule(f: CharFunction, base: float = RTOL) -> tuple[float, float]:
    """(||X - X^dag||_F, t = base * max(1, ||X||_F)) in O(|G|), as sqrt|G| times
    ||f - f~|| (f~(g) = conj f(g^-1)) and ||f||.  f is positive definite iff the
    residual is <= t and every Gram eigenvalue is >= -t; a NaN or infinite f raises."""
    if not np.isfinite(f.values).all():
        raise InvalidCharacteristicFunctionError("candidate function has a NaN or infinite value")
    root_n = f.group.order**0.5
    residual = root_n * frob(f.values - f.values[f.group.inv].conj())
    return residual, base * max(1.0, root_n * frob(f.values))


@dataclass(eq=False)
class BochnerReport:
    """Outcome of the positive-definiteness test with per-block diagnostics, in
    units of X: block mu's eigenvalues are gamma = (|G|/d_mu) lambda(Herm B_mu)."""

    positive_definite: bool
    normalized: bool
    min_eigenvalue: float
    worst_block: int | None
    block_min_eigenvalues: dict[int, float]
    hermiticity_residual: float

    def __bool__(self) -> bool:
        return self.positive_definite


@dataclass(eq=False)
class GnsResult:
    """A representation and cyclic unit vector realizing a group function."""

    dim: int
    state: QuantumState
    rep: reps.UnitaryRep


def is_positive_definite(
    f: CharFunction, dec_of_regular: reps.IrrepDecomposition, tol: float | None = None
) -> BochnerReport:
    """Test a candidate function blockwise over all irreps of the group.

    The decomposition must hold every irrep of f's group, as the regular
    representation's does: one over another group raises GroupMismatchError,
    one missing an irrep InvalidParameterError.  The verdict is the module's
    Gram rule with base tol (default 1e-9), read from the Fourier blocks; the
    report carries the most negative Gram eigenvalue, each block's, and where
    it occurred.  Normalization f(e) = 1 is reported separately and does not
    affect positive definiteness.  A negative tol raises InvalidParameterError,
    a NaN or infinite value of f InvalidCharacteristicFunctionError.
    """
    if not (tol is None or tol >= 0):
        raise InvalidParameterError(f"tol must be nonnegative, got {tol}")
    reps._require_every_irrep(f.group, dec_of_regular)
    residual, t = _gram_rule(f, RTOL if tol is None else tol)
    n, dec = f.group.order, dec_of_regular
    lows = np.zeros(len(dec.blocks))
    for ix, _, m in dec._by_shape():  # each block's own eigenvalues: per shape, not padded
        lows[ix] = min_eigenvalue(_forward_block(f.values, f.group, m, m.shape[-1]))
    minima = {b.label: n / b.dim * float(x) for b, x in zip(dec.blocks, lows)}
    worst = min(minima, key=minima.get)
    norm_tol = scaled_tol(f.values) if tol is None else max(tol, RTOL)
    return BochnerReport(
        positive_definite=residual <= t and minima[worst] >= -t,
        normalized=bool(abs(f.values[0] - 1.0) <= norm_tol),
        min_eigenvalue=minima[worst],
        worst_block=worst,
        block_min_eigenvalues=minima,
        hermiticity_residual=residual,
    )


def gns_construct(f: CharFunction) -> GnsResult:
    """Build a representation and cyclic vector whose chi equals f.

    The translated Gram matrix X[g,h] = f(g^-1 h) embeds one vector per group
    element, with v_e the cyclic unit vector; left translation of the labels
    preserves the Gram form (X depends only on g^-1 h), so it extends to a
    unitary representation on the span.  The carrier dimension is the rank of
    X with eigenvalues below 1e-10 * (largest eigenvalue) truncated.  The regular rep
    L(k) commutes with X, so U(k) = M^dag L(k) M, its subrep on each eigenvalue cluster's
    columns M (split at gaps over 1e-6 of the spread), exactly zero elsewhere: the rep holds
    these blocks, with no dense stack, certified by the spectral gaps of X (:func:`_certify`).

    Raises InvalidCharacteristicFunctionError if f has a NaN or infinite value or
    is not normalized positive definite under the module's Gram rule,
    NumericalDegeneracyError if chi of (U, psi) misses f (a split eigenspace), and
    ValidationError if U fails the pairwise check that a failed certificate falls back on.
    """
    group = f.group
    residual, t = _gram_rule(f)
    if not residual <= t:
        raise InvalidCharacteristicFunctionError(
            "candidate function is not Hermitian-symmetric: f(g^-1) != conj(f(g))"
        )
    if abs(f.values[0] - 1.0) > 1e-8:
        raise InvalidCharacteristicFunctionError(
            f"candidate function is not normalized: f(e) = {f.values[0]:.6f}"
        )
    x = hermitian_part(f.values[group.mul[group.inv]])  # x[g,h] = f(g^-1 h)
    vals, vecs = np.linalg.eigh(x)
    if not vals[0] >= -t:
        raise InvalidCharacteristicFunctionError(
            f"candidate function is not positive definite: Gram eigenvalue {vals[0]:.3e} < 0"
        )
    keep = vals > _RANK_TOL * vals[-1]
    lam, m = vals[keep], vecs[:, keep]
    psi = np.sqrt(lam) * m[0].conj()  # the embedded v_e
    cuts = np.flatnonzero(np.diff(lam) > reps._CLUSTER_GAP * max(1.0, lam[-1] - lam[0])) + 1
    starts, sizes = np.r_[0, cuts], np.diff(np.r_[0, cuts, lam.size])
    regular, stacks = reps.regular_rep(group), []
    for s in sorted(set(sizes.tolist())):  # the clusters of size s at once: cols[j] is cluster j
        cols = starts[sizes == s, None] + np.arange(s)
        q = np.ascontiguousarray(m[:, cols].transpose(1, 0, 2))
        stacks.append((cols, reps._subreps(regular, q)))
    rep = reps.UnitaryRep(group, None, stacks)  # certified below, once chi is checked
    err = float(np.abs(rep.trace_against(psi) - f.values).max())
    if not err <= t:
        raise NumericalDegeneracyError(f"GNS realization misses f by {err:.3e} > {t:.3e}")
    _certify(rep, x, vals, vecs, starts + vals.size - lam.size)
    return GnsResult(rep=rep, state=QuantumState.pure(psi), dim=lam.size)


def _certify(rep: reps.UnitaryRep, x, vals, vecs, starts) -> np.ndarray:
    """Bounds on ||U(e) - I||_F, every ||U U^dag - I||_F and every ||U(a) U(b) - U(ab)||_F of the
    GNS rep of blocks B_c(g) = fl(Q_c^dag L(g) Q_c), Q_c the columns of V from starts[c] to the
    next, from x V ~ V Lambda (x's eigh) alone; if one is over tol = 1e-9 max(1, ||blocks||_F),
    ``reps._validate_rep`` on rep's form decides.  L(k) permutes x's entries, so commutes with x:
    with R = x V - V Lambda, e = ||V^dag V - I||_F >= ||V||_2^2 - 1 and Q' V's other columns,
    O = Q'^dag L(k) Q_c has Lambda' O - O Lambda_c = Q'^dag L(k) R_c - R'^dag L(k) Q_c, so ||O||_F
    <= l_c = sqrt(1 + e) (||R_c|| + ||R||) / delta_c, delta_c = dist(Lambda_c, Lambda') (Davis &
    Kahan, SIAM J. Numer. Anal. 7, 1970).  A = Q_c^dag L Q_c has A(a) A(b) - A(ab) = -O(a^-1)^dag
    O(b) - Q_c^dag L(a) (I - V V^dag) L(b) Q_c, at most l_c^2 + (1 + e) e, and A A^dag - I adds
    A(e) - I, at most e.  B is within eta_c = gamma_{|G|+2} ||Q_c||_F^2 of A (Higham, Accuracy and
    Stability, 3.6), ||A||_2 <= 1 + e: that adds (2 + 2e) eta_c + eta_c^2, and eta_c more to the
    homomorphism.  The truncated columns are in Q' and R'; the clusters add in squares."""
    gamma, mono = (len(vals) + 2) * np.finfo(float).eps / 2, rep._monomial
    e = frob(vecs.conj().T @ vecs - np.eye(len(vals)))
    r2 = (abs(x @ vecs - vecs * vals) ** 2).sum(axis=0)  # ||R||_F^2 per column
    gaps = np.r_[np.inf, np.diff(vals), np.inf]  # gaps[i] = vals[i] - vals[i - 1]
    delta = np.minimum(gaps[starts], gaps[np.r_[starts[1:], len(vals)]])
    ell = np.sqrt(1 + e) * (np.sqrt(np.add.reduceat(r2, starts)) + np.sqrt(r2.sum())) / delta
    eta = gamma / (1 - gamma) * np.add.reduceat((abs(vecs) ** 2).sum(axis=0), starts)
    hom = ell**2 + (1 + e) * e + (3 + 2 * e) * eta + eta**2
    bounds, form = np.array([e + frob(eta), frob(e + hom - eta), frob(hom)]), rep._stacks or mono
    if not bounds.max() <= scaled_tol([frob(m) for _, m in form] if mono is None else mono[1]):
        reps._validate_rep(rep.group, form)
    return bounds
