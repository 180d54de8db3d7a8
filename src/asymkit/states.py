"""Quantum states, characteristic functions, and reductions onto irreps.

A state's characteristic function chi(g) = tr(rho U(g)) and its reduction
onto irreps {F_mu} carry the same information; they are linked by the group
Fourier transform, implemented here once per direction and block (O(|G| d_mu^2)
each) and used by every conversion in the package:

    forward  F_mu    =  d_mu * (1/|G|) sum_g chi(g^-1) U_mu(g)    (fourier_blocks)
    inverse  chi(g)  =  sum_mu tr(F_mu U_mu(g))                   (charfunc_from_reduction)

Characteristic functions are stored densely per group element.  They are a
class function only for states commuting with the representation, which is
not the generic case, so no per-class compression is done.
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
from .groups import GroupTable, SubgroupRef, same_group, subgroup
from .linalg import assert_psd, scaled_tol
from .reps import IrrepBlock, IrrepDecomposition, UnitaryRep, _dagger, _frob_each


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
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return QuantumState.pure(v / np.linalg.norm(v))


def random_mixed_state(dim: int, rng, rank: int | None = None) -> QuantumState:
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    rank = rank or dim
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
        for lab, b in zip(self.labels, self.blocks):
            assert_psd(b, tol, what=f"reduction block {lab}")
        total = float(self.traces().sum())
        if abs(total - 1.0) > tol:
            raise ValidationError(
                f"reduction invariant violated: sum of traces = {total:.12f}, must be 1"
            )
        return self


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
    """chi(g) = tr(rho U(g)), via <psi|U(g)|psi> for pure states."""
    if s.dim != r.dim:
        raise DimensionMismatchError(
            f"state dimension {s.dim} does not match representation dimension {r.dim}"
        )
    if s.is_pure:
        values = np.einsum("i,gij,j->g", s.vec.conj(), r.mats, s.vec)
    else:
        values = np.einsum("ij,gji->g", s.rho, r.mats)
    _state_chi_check(values)
    return CharFunction(r.group, values)


def reduction_onto_irreps(s: QuantumState, dec: IrrepDecomposition) -> IrrepReduction:
    """Partial trace of each isotypic sector over its multiplicity space."""
    if s.dim != dec.rep.dim:
        raise DimensionMismatchError(
            f"state dimension {s.dim} does not match decomposition dimension {dec.rep.dim}"
        )
    blocks = []
    if s.is_pure:
        for a in dec.vector_sectors(s.vec):
            blocks.append(a @ a.conj().T)
    else:
        rho = dec.basis @ s.rho @ dec.basis.conj().T
        for i, blk in enumerate(dec.blocks):
            sl = dec.sector_slice(i)
            sector = rho[sl, sl].reshape(blk.dim, blk.mult, blk.dim, blk.mult)
            blocks.append(np.einsum("mnkn->mk", sector))
    red = IrrepReduction([b.label for b in dec.blocks], blocks)
    return red.validate(max(1e-8, scaled_tol(s.density(), base=1e-9)))


def charfunc_from_reduction(red: IrrepReduction, dec: IrrepDecomposition) -> CharFunction:
    """chi(g) = sum_mu tr(F_mu U_mu(g)): the sum of the inverse-transform rows."""
    if red.labels != [b.label for b in dec.blocks]:
        raise ValidationError("reduction labels do not match the decomposition blocks")
    values = sum(_inverse_block(f, blk) for blk, f in zip(dec.blocks, red.blocks))
    return CharFunction(dec.rep.group, values)


def fourier_inverse(f: CharFunction, dec: IrrepDecomposition) -> IrrepReduction:
    """The reduction of a characteristic function: :func:`fourier_blocks`, validated.

    Undoes :func:`charfunc_from_reduction` (orthogonality of irrep matrix elements).
    """
    if not same_group(f.group, dec.rep.group):
        raise GroupMismatchError("function and decomposition must share the group")
    blocks = fourier_blocks(f.values, dec)
    red = IrrepReduction([b.label for b in dec.blocks], blocks)
    return red.validate()


def fourier_blocks(values: np.ndarray, dec: IrrepDecomposition) -> list[np.ndarray]:
    """Forward transform: raw blocks d_mu * avg_g values(g^-1) U_mu(g), unvalidated."""
    return [_forward_block(values, dec.rep.group, blk) for blk in dec.blocks]


def _forward_block(values: np.ndarray, group: GroupTable, blk: IrrepBlock) -> np.ndarray:
    """One block of the forward transform, O(|G| d_mu^2)."""
    inv_vals = np.asarray(values, dtype=complex)[group.inv]
    return blk.dim * np.einsum("g,gij->ij", inv_vals, blk.mats) / group.order


def _inverse_block(f: np.ndarray, blk: IrrepBlock) -> np.ndarray:
    """One block of the inverse transform: the row g -> tr(f U_mu(g)), O(|G| d_mu^2)."""
    return np.einsum("ij,gji->g", f, blk.mats)


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
    deviations and raises ToleranceError rather than returning a non-group.
    """
    if s.dim != r.dim:
        raise DimensionMismatchError(
            f"state dimension {s.dim} does not match representation dimension {r.dim}"
        )
    rho = s.density()
    moved = _frob_each(r.mats @ rho @ _dagger(r.mats) - rho)
    members = np.flatnonzero(moved <= tol)
    try:
        return subgroup(r.group, members)
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
    """Distribution over nonnegative integer weights, with optional amplitudes."""

    weights: dict[int, float]
    amplitudes: dict[int, complex] | None = None

    def __post_init__(self):
        clean = {}
        for n, p in self.weights.items():
            n = int(n)
            p = float(p)
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
            amps = {int(n): complex(a) for n, a in self.amplitudes.items()}
            for n, a in amps.items():
                if abs(abs(a) ** 2 - self.weights.get(n, 0.0)) > 1e-9:
                    raise ValidationError(
                        f"amplitude at weight {n} inconsistent with its probability"
                    )
            self.amplitudes = amps

    @staticmethod
    def from_amplitudes(amplitudes: dict[int, complex]) -> "WeightState":
        weights = {int(n): abs(complex(a)) ** 2 for n, a in amplitudes.items()}
        return WeightState(weights, {int(n): complex(a) for n, a in amplitudes.items()})

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
