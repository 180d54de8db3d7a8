"""Which functions on a group are characteristic functions of a state?

Exactly the normalized positive definite ones: f(e) = 1 and the translated
Gram matrix X[g,h] = f(g^-1 h) is Hermitian PSD.  One spectrum of X, two
readers: the Fourier blocks B_mu = d_mu * avg_g f(g^-1) U_mu(g) give its
eigenvalues gamma = (|G|/d_mu) lambda(Herm B_mu), each d_mu times.
:func:`is_positive_definite` decides on them with one rule in the units of X
(:func:`_gram_rule`), and :func:`gns_construct` applies the same rule, then
rebuilds from the blocks' eigenvectors a rep directsum_mu U_mu (x) I_(r_mu)
and a cyclic unit vector realizing a valid f.
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

    The Fourier blocks B_mu = d_mu avg_g f(g^-1) U_mu(g) of the irreps of
    :func:`reps._regular_irreps`, cached on the group, give f(g) = sum_mu tr(B_mu U_mu(g))
    (Serre, Linear Representations of Finite Groups, 6.2) and the spectrum of X[g,h] = f(g^-1 h)
    that the module's Gram rule reads.  One batched ``eigh`` per sector shape writes B_mu =
    Y_mu Y_mu^dag, Y_mu = V_mu Lambda_mu^(1/2) cut to gamma > 1e-10 max gamma.  U = directsum_mu
    U_mu (x) I_(r_mu), one block per column of Y_mu, and psi, those columns, give <psi|U(g)|psi> =
    sum_mu tr(Y_mu^dag U_mu(g) Y_mu) = f(g) in dimension rank X; U is trusted by
    :func:`_residual_bound`.  O(|G| sum_mu d_mu^3), after the group's first call has paid for
    ``decompose(regular_rep(group))``.

    U is handed over in the form ``reps._cut`` gives its copies' (cols, U_mu copies) stacks,
    assembled from what the group caches of its irreps (:func:`reps._monomial_irreps`), so a
    warm call makes no pass over exact-zero masks.  ``_sparsity_form`` of stacks is monomial iff
    each stack is, each stack's (src, phase) its own shifted to its columns: (src, phase) when
    every kept irrep is monomial (always if all are 1-dim: src the identity, phase their values).
    Otherwise it takes each block's slices on its own, and an irrep's exact zeros never cut it (a
    cut would make its first slice an invariant subspace): one slice per copy, the stacks of one
    size each, ascending, which ``_cut`` keeps as they are.  ||mats||_F, which scales the trust
    gate, is read off the norms the group caches too: sqrt(sum over copies ||U_mu||_F^2).

    Raises InvalidCharacteristicFunctionError if f has a NaN or infinite value or
    is not normalized positive definite under the module's Gram rule,
    ValidationError if U fails the pairwise check that a failed bound falls back on, and
    NumericalDegeneracyError if chi of (U, psi) misses f.
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
    (stacks, rho, monomial, norms), spectra = reps._regular_irreps(group), []
    for m in stacks:  # lam[j], v[j]: block j's eigenpairs, gamma in Gram units
        lam, v = np.linalg.eigh(hermitian_part(_forward_block(f.values, group, m, m.shape[-1])))
        spectra.append((m, lam, v, group.order / m.shape[-1] * lam))
    low, top = min(g.min() for *_, g in spectra), max(g.max() for *_, g in spectra)
    if not low >= -t:
        raise InvalidCharacteristicFunctionError(
            f"candidate function is not positive definite: Gram eigenvalue {low:.3e} < 0"
        )
    kept, parts, at, sq = [], [], 0, 0.0
    for (m, lam, v, gamma), (mono, src, ph), m2 in zip(spectra, monomial, norms):
        j, c = np.nonzero(gamma > _RANK_TOL * top)  # copy c of block j: column c of Y_j, acted
        if j.size:  # on by m[j], whose ||m[j]||_F^2 is m2[j]
            cols = at + np.arange(j.size * m.shape[-1]).reshape(j.size, -1)
            kept.append((j, cols, m, mono, src, ph))
            parts.append((v[j, :, c] * np.sqrt(lam[j, c])[:, None]).ravel())
            at, sq = at + j.size * m.shape[-1], sq + m2[j].sum()
    if all(mono[j].all() for j, _, _, mono, _, _ in kept):  # [g, column], copy by copy
        n = group.order
        form = (np.hstack([(src[j] + c[:, :1, None]).transpose(1, 0, 2).reshape(n, -1)
                           for j, c, _, _, src, _ in kept]),
                np.hstack([ph[j].transpose(1, 0, 2).reshape(n, -1) for j, *_, ph in kept]))
    else:
        form = [(c, m[j]) for j, c, m, *_ in kept]
    rep, psi = reps.UnitaryRep(group, None, form), np.concatenate(parts)
    if not _residual_bound(rho) <= scaled_tol(np.sqrt(sq)):  # ||mats||_F, copy by copy
        reps._validate_rep(group, form)
    err = float(np.abs(rep.trace_against(psi) - f.values).max())
    if not err <= t:
        raise NumericalDegeneracyError(f"GNS realization misses f by {err:.3e} > {t:.3e}")
    return GnsResult(rep=rep, state=QuantumState.pure(psi), dim=rep.dim)


def _residual_bound(rho: float) -> float:
    """4 rho (1 + rho), at least ||U(e) - I||_F, every ||U U^dag - I||_F and every
    ||U(a) U(b) - U(ab)||_F of U = directsum_mu U_mu (x) I_(r_mu), r_mu <= d_mu, cut from the
    decomposition of the exact regular rep L with residual rho; over 1e-9 max(1, ||mats||_F),
    ``reps._validate_rep`` decides.  With basis W, B(g) = directsum_mu U_mu(g) (x) I_(d_mu),
    E = W L W^dag - B and e = ||W W^dag - I||_F: rho = r sqrt(1 + e) + sqrt(b) e is at least
    max_g ||E(g)||_F and, as b >= 1, at least e; ||W||_2^2 <= 1 + e, and W^dag W - I has the
    singular values of W W^dag - I.  As L(a) L(b) = L(ab) exactly, B(e) - I = (W W^dag - I) - E(e)
    is at most e + rho; B(a) B(b) - B(ab) = W L(a) (W^dag W - I) L(b) W^dag - E(a) W L(b) W^dag
    - W L(a) W^dag E(b) + E(a) E(b) + E(ab) at most (1 + e) e + 2 (1 + e) rho + rho^2 + rho; and
    B(a) B(a)^dag - I, that sum with L(a)^dag, E(a)^dag for L(b), E(b) and W W^dag - I for E(ab),
    at most the same with e for the last rho.  Each is at most 4 rho (1 + rho), and U's squared
    residuals sum r_mu copies of each irrep's, B's d_mu copies."""
    return 4 * rho * (1 + rho)
