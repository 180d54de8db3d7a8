"""Quantum states, characteristic functions, and reductions onto irreps.

A state's characteristic function chi(g) = tr(rho U(g)) and its reduction
onto irreps {F_mu} carry the same information; they are linked by the group
Fourier transform, implemented here once per direction and block (O(|G| d_mu^2)
each) and used by every conversion in the package:

    forward  F_mu    =  d_mu * (1/|G|) sum_g chi(g^-1) U_mu(g)    (fourier_blocks)
    inverse  chi(g)  =  sum_mu tr(F_mu U_mu(g))                   (charfunc_from_reduction)

Characteristic functions are stored densely per group element.  They are a
class function only for states commuting with the representation, which is
not the generic case, so no per-class compression is done.  charfunc is O(|G| d) on a monomial
rep (no d x d array for a pure state), O(|G| d^2) otherwise.  Reductions and Fourier blocks take
one call per step over all sectors, zero-padded (:meth:`IrrepDecomposition._padded`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    GroupMismatchError,
    InvalidParameterError,
    InvalidSubgroupError,
    ToleranceError,
    ValidationError,
)
from .groups import GroupTable, SubgroupRef, _whole_number, same_group, subgroup
from .linalg import assert_psd, min_eigenvalue, scaled_tol
from .reps import IrrepDecomposition, UnitaryRep, _chunk_slices, _dagger, _frob_each


class QuantumState:
    """A pure state (unit vector) or a mixed state (density matrix)."""

    __slots__ = ("kind", "dim", "vec", "rho")

    def __init__(self, kind: str, data):
        data = np.asarray(data, dtype=complex)
        if kind == "pure":
            if data.ndim != 1:
                raise ValidationError("pure state data must be a vector")
            nrm = np.linalg.norm(data)
            if not abs(nrm - 1.0) <= 1e-8:
                raise ValidationError(
                    f"pure state invariant violated: ||vec|| = {nrm:.12f}, must be 1"
                )
            self.vec = data / nrm
            self.rho = None
            self.dim = data.size
        elif kind == "mixed":
            if data.ndim != 2 or data.shape[0] != data.shape[1]:
                raise ValidationError("mixed state data must be a square matrix")
            tol = scaled_tol(data, base=1e-8)
            assert_psd(data, tol, what="density matrix")
            tr = np.trace(data).real
            if abs(tr - 1.0) > tol:
                raise ValidationError(
                    f"mixed state invariant violated: tr rho = {tr:.12f}, must be 1"
                )
            self.vec = None
            self.rho = data
            self.dim = data.shape[0]
        else:
            raise InvalidParameterError(f"state kind must be 'pure' or 'mixed', got {kind!r}")
        self.kind = kind

    @staticmethod
    def pure(vec) -> "QuantumState":
        return QuantumState("pure", vec)

    @staticmethod
    def mixed(rho) -> "QuantumState":
        return QuantumState("mixed", rho)

    @property
    def is_pure(self) -> bool:
        return self.kind == "pure"

    def density(self) -> np.ndarray:
        """Density matrix view of the state."""
        if self.is_pure:
            return np.outer(self.vec, self.vec.conj())
        return self.rho

    def __repr__(self):
        return f"QuantumState(kind={self.kind!r}, dim={self.dim})"


def random_pure_state(dim: int, rng) -> QuantumState:
    dim, rng = _whole_number(dim, "dim", 1), np.random.default_rng(rng)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return QuantumState.pure(v / np.linalg.norm(v))


def random_mixed_state(dim: int, rng, rank: int | None = None) -> QuantumState:
    dim = _whole_number(dim, "dim", 1)
    rank = dim if rank is None else _whole_number(rank, "rank", 1)
    rng = np.random.default_rng(rng)
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return QuantumState.mixed(rho / np.trace(rho).real)


@dataclass(eq=False)
class CharFunction:
    """A complex function on the group, one value per element.

    Raw containers carry no invariants; functions that came from a state
    additionally satisfy values[0] = 1 and |values[g]| <= 1, which
    :func:`charfunc` asserts on its output.
    """

    group: GroupTable
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.group.order,):
            raise DimensionMismatchError(
                "characteristic function needs one value per group element"
            )


@dataclass(eq=False)
class IrrepReduction:
    """Per-block PSD matrices F_mu with traces summing to one."""

    labels: list[int]
    blocks: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        self.blocks = [np.asarray(b, dtype=complex) for b in self.blocks]
        if len(self.labels) != len(self.blocks):
            raise ValidationError("reduction needs one label per block")

    def traces(self) -> np.ndarray:
        return np.array([np.trace(b).real for b in self.blocks])

    def validate(self, tol: float = 1e-8) -> "IrrepReduction":
        """Raise unless every block is Hermitian PSD within tol (>= 0), naming the first that
        is not, and the traces sum to one: one pass over the blocks zero-padded (:meth:`_check`)."""
        if not tol >= 0:
            raise InvalidParameterError(f"tol must be nonnegative, got {tol}")
        size = max((max(b.shape) for b in self.blocks), default=1)
        return self._check(_pad(self.blocks, size), tol)

    def _check(self, padded: np.ndarray, tol: float) -> "IrrepReduction":
        """:meth:`validate` on the blocks zero-padded into (K, D, D): one Hermitian pass and one
        eigvalsh.  A zero border adds only zero eigenvalues: as tol >= 0, no verdict changes."""
        ok = _frob_each(padded - _dagger(padded)) <= tol  # a NaN residual fails
        ok[ok] = min_eigenvalue(padded[ok]) >= -tol
        for i in np.flatnonzero(~ok):  # assert_psd words the error
            assert_psd(self.blocks[i], tol, what=f"reduction block {self.labels[i]}")
        total = float(np.einsum("kii->", padded).real)
        if abs(total - 1.0) > tol:
            raise ValidationError(
                f"reduction invariant violated: sum of traces = {total:.12g}, must be 1"
            )
        return self


def _pad(blocks: list[np.ndarray], size: int) -> np.ndarray:
    """The blocks in order, zero-padded into one (K, size, size) stack."""
    padded = np.zeros((len(blocks), size, size), dtype=complex)
    for p, b in zip(padded, blocks):
        p[: b.shape[0], : b.shape[1]] = b
    return padded


def _cut(padded: np.ndarray, dec: IrrepDecomposition) -> list[np.ndarray]:
    """dec's zero-padded (K, D, D) blocks, each cut to d_mu x d_mu (if d_mu = D, as it is)."""
    return [f if b.dim == len(f) else f[: b.dim, : b.dim] for f, b in zip(padded, dec.blocks)]


def _padded_reduction(padded: np.ndarray, dec: IrrepDecomposition, tol: float) -> IrrepReduction:
    """The reduction of dec's zero-padded (K, D, D) blocks, checked in one pass."""
    return IrrepReduction([b.label for b in dec.blocks], _cut(padded, dec))._check(padded, tol)


def _state_chi_check(values: np.ndarray, tol: float = 1e-8) -> None:
    if not abs(values[0] - 1.0) <= tol:
        raise ValidationError(
            f"characteristic function invariant violated: chi(e) = {values[0]:.6f}, must be 1"
        )
    worst = float(np.abs(values).max())
    if not worst <= 1.0 + tol:
        raise ValidationError(
            f"characteristic function invariant violated: max |chi| = {worst:.12f} > 1"
        )


def charfunc(s: QuantumState, r: UnitaryRep) -> CharFunction:
    """chi(g) = tr(rho U(g)) from :meth:`UnitaryRep.trace_against`, of psi itself if pure."""
    if s.dim != r.dim:
        raise DimensionMismatchError(
            f"state dimension {s.dim} does not match representation dimension {r.dim}"
        )
    values = r.trace_against(s.vec if s.is_pure else s.rho)
    _state_chi_check(values)
    return CharFunction(r.group, values)


def reduction_onto_irreps(s: QuantumState, dec: IrrepDecomposition) -> IrrepReduction:
    """Partial trace of each isotypic sector over its multiplicity space, in one padded pass."""
    if s.dim != dec.rep.dim:
        raise DimensionMismatchError(
            f"state dimension {s.dim} does not match decomposition dimension {dec.rep.dim}"
        )
    rows = dec._padded()[0]
    if s.is_pure:
        x = dec._coefficients(s.vec)[rows]
        padded = x @ _dagger(x)
    else:  # the trace over a of rho's sector entries [k, m, a, m', b], 0 on the padding
        rho = np.zeros((s.dim + 1,) * 2, dtype=complex)
        rho[:-1, :-1] = dec.basis @ s.rho @ _dagger(dec.basis)
        padded = np.einsum("kmaja->kmj", rho[rows[..., None, None], rows[:, None, None]])
    scale = np.vdot(s.vec, s.vec) if s.is_pure else s.rho  # ||psi||^2 = ||psi psi^dag||_F
    return _padded_reduction(padded, dec, max(1e-8, scaled_tol(scale, base=1e-9)))


def charfunc_from_reduction(red: IrrepReduction, dec: IrrepDecomposition) -> CharFunction:
    """chi(g) = sum_mu tr(F_mu U_mu(g)): one :func:`_inverse_block` over the padded blocks."""
    if red.labels != [b.label for b in dec.blocks]:
        raise ValidationError("reduction labels do not match the decomposition blocks")
    if [f.shape for f in red.blocks] != [(b.dim, b.dim) for b in dec.blocks]:
        raise DimensionMismatchError("reduction blocks do not match the decomposition blocks")
    mats = dec._padded()[1]
    rows = _inverse_block(_pad(red.blocks, mats.shape[-1]), mats)
    return CharFunction(dec.rep.group, rows.sum(axis=0))


def fourier_inverse(f: CharFunction, dec: IrrepDecomposition) -> IrrepReduction:
    """The reduction of a characteristic function: :func:`fourier_blocks`, validated.

    Undoes :func:`charfunc_from_reduction` (orthogonality of irrep matrix elements).
    """
    if not same_group(f.group, dec.rep.group):
        raise GroupMismatchError("function and decomposition must share the group")
    _, mats, dims = dec._padded()
    padded = _forward_block(f.values, f.group, mats, dims[:, None, None])
    return _padded_reduction(padded, dec, 1e-8)


def fourier_blocks(values: np.ndarray, dec: IrrepDecomposition) -> list[np.ndarray]:
    """Forward transform: raw blocks d_mu * avg_g values(g^-1) U_mu(g), unvalidated."""
    _, mats, dims = dec._padded()
    return _cut(_forward_block(values, dec.rep.group, mats, dims[:, None, None]), dec)


def _forward_block(values: np.ndarray, group: GroupTable, mats: np.ndarray, dim) -> np.ndarray:
    """Forward block of mats (|G|, d, d), or per block of a (k, |G|, d, d) stack, with dim = d_mu
    (one, or broadcast per block): O(|G| d^2)."""
    inv_vals = np.asarray(values, dtype=complex)[group.inv]
    return dim * np.einsum("g,...gij->...ij", inv_vals, mats) / group.order


def _inverse_block(f: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Inverse row g -> tr(f U(g)) of a block, or per block of stacked f and mats, O(|G| d^2)."""
    return np.einsum("...ij,...gji->...g", f, mats)


def convolve(f1: CharFunction, f2: CharFunction) -> CharFunction:
    """Group convolution (f1 * f2)(g) = avg_h f1(g h^-1) f2(h)."""
    if not same_group(f1.group, f2.group):
        raise GroupMismatchError("convolution requires functions on the same group")
    g = f1.group
    idx = g.mul[:, g.inv]  # idx[x, h] = x * h^-1
    values = (f1.values[idx] @ f2.values) / g.order
    return CharFunction(g, values)


def tensor_state(s1: QuantumState, s2: QuantumState) -> QuantumState:
    """Kronecker product; characteristic functions multiply pointwise."""
    if s1.is_pure and s2.is_pure:
        return QuantumState.pure(np.kron(s1.vec, s2.vec))
    return QuantumState.mixed(np.kron(s1.density(), s2.density()))


def symmetry_subgroup(s: QuantumState, r: UnitaryRep, tol: float = 1e-8) -> SubgroupRef:
    """Elements whose action leaves the state fixed: ||U(g) rho U(g)^dag - rho|| <= tol.

    Closure of the resulting set is exact in theory; a closure failure at the
    working tolerance means the tolerance sits inside the spectrum of
    deviations and raises ToleranceError rather than returning a non-group.  A negative
    or NaN tol raises InvalidParameterError.
    """
    if not tol >= 0:
        raise InvalidParameterError(f"tol must be nonnegative, got {tol}")
    if s.dim != r.dim:
        raise DimensionMismatchError(
            f"state dimension {s.dim} does not match representation dimension {r.dim}"
        )
    rho, moved = s.density(), np.empty(r.group.order)
    for g in _chunk_slices(r.group.order, rho.nbytes):
        y = r.conjugate(rho, g)  # a fresh stack: rho is taken off in place
        moved[g] = _frob_each(np.subtract(y, rho, out=y))
    try:
        return subgroup(r.group, np.flatnonzero(moved <= tol))
    except InvalidSubgroupError as exc:
        raise ToleranceError(
            f"symmetry set is not a subgroup ({exc}); tolerance misconfigured"
        ) from exc


# ---------------------------------------------------------------------------
# U(1) weight model: a phase symmetry sampled exactly through Z_N.
#
# A state occupying weights n <= n_max is fully described by its weight
# distribution; any cyclic group of order N > 2 n_max reproduces all its
# phase-rotation statistics exactly, because a trigonometric polynomial of
# degree n_max is determined by N equispaced samples.
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class WeightState:
    """Distribution over nonnegative integer weights, with optional amplitudes.  A weight is
    read as a whole number: 2.0 and "2" read as 2, 2.5 raises ValidationError."""

    weights: dict[int, float]
    amplitudes: dict[int, complex] | None = None

    def __post_init__(self):
        clean = {}
        for n, p in self.weights.items():
            n, p = _whole_number(n, "weight"), float(p)
            if n < 0:
                raise InvalidParameterError("weights must be nonnegative integers")
            if p < -1e-12:
                raise ValidationError(f"weight probability p({n}) = {p} is negative")
            if p > 1e-15:
                clean[n] = p
        total = sum(clean.values())
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"weight probabilities sum to {total:.12f}, must be 1")
        self.weights = dict(sorted(clean.items()))
        if self.amplitudes is not None:
            amps = {_whole_number(n, "weight"): complex(a) for n, a in self.amplitudes.items()}
            for n, a in amps.items():
                if abs(abs(a) ** 2 - self.weights.get(n, 0.0)) > 1e-9:
                    raise ValidationError(
                        f"amplitude at weight {n} inconsistent with its probability"
                    )
            self.amplitudes = amps

    @staticmethod
    def from_amplitudes(amplitudes: dict[int, complex]) -> "WeightState":
        return WeightState({n: abs(complex(a)) ** 2 for n, a in amplitudes.items()}, amplitudes)

    def max_weight(self) -> int:
        return max(self.weights) if self.weights else 0

    def vector(self, dim: int | None = None) -> np.ndarray:
        """Amplitude vector on weights 0..dim-1 (phases default to positive roots)."""
        d = (dim if dim is not None else self.max_weight() + 1)
        if d <= self.max_weight():
            raise DimensionMismatchError("dim too small for the occupied weights")
        v = np.zeros(d, dtype=complex)
        for n, p in self.weights.items():
            v[n] = self.amplitudes[n] if self.amplitudes else np.sqrt(p)
        return v


def u1_moments(w: WeightState, k: int) -> float:
    """k-th moment of the weight observable: sum_n p(n) n^k."""
    if k < 0:
        raise InvalidParameterError("moment order must be nonnegative")
    return float(sum(p * n**k for n, p in w.weights.items()))


def u1_cumulant(w: WeightState, k: int) -> float:
    """Cumulants of the weight observable up to order 4.

    Cumulants of independent systems add, which is what makes them the right
    bookkeeping for composite (tensored) weight states.
    """
    m = [u1_moments(w, i) for i in range(5)]
    if k == 1:
        return m[1]
    if k == 2:
        return m[2] - m[1] ** 2
    if k == 3:
        return m[3] - 3 * m[1] * m[2] + 2 * m[1] ** 3
    if k == 4:
        return m[4] - 4 * m[1] * m[3] - 3 * m[2] ** 2 + 12 * m[1] ** 2 * m[2] - 6 * m[1] ** 4
    raise InvalidParameterError("cumulants implemented for orders 1..4")


def weight_tensor(w1: WeightState, w2: WeightState) -> WeightState:
    """Weight distribution of a composite system: the convolution of the factors.

    Amplitudes are dropped: a composite can occupy one total weight through
    several splits, which the degeneracy-free weight model cannot carry.
    """
    out: dict[int, float] = {}
    for n1, p1 in w1.weights.items():
        for n2, p2 in w2.weights.items():
            out[n1 + n2] = out.get(n1 + n2, 0.0) + p1 * p2
    return WeightState(out)
