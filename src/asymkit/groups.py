"""Finite groups as dense multiplication tables.

Conventions shared by the whole package:

* elements are integers 0..|G|-1 and index 0 is always the identity;
* tables are immutable after construction; derived data is computed eagerly,
  except the character table, the 1-dim reps checked against it and the regular
  rep's seed-0 decomposition (GNS sums its irreps), cached on first use (a race
  is harmless: all three are deterministic), so concurrent reads are safe;
* the desk-scale cap is |G| <= 720 so that |G|-indexed dense data and
  O(|G| d^3) averaging loops stay comfortable in memory and time.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    InvalidSubgroupError,
    NumericalDegeneracyError,
    SizeLimitError,
    ValidationError,
)

GROUP_ORDER_CAP = 720

_STACK_BYTES = 1 << 18  # bytes per stack in a chunked pass over the group


class GroupTable:
    """A finite group given by its full multiplication table.

    ``mul[a, b]`` is the index of the product a*b.  Inverses are recomputed
    from the table, never trusted from input.  All construction invariants
    (identity row/column, Latin-square rows and columns, associativity) are
    verified eagerly; a table that fails any of them raises ValidationError.  The makers
    below build groups by construction and skip those checks, handing over the greedy
    generators they know; each docstring gives the proof.
    """

    __slots__ = ("order", "mul", "inv", "labels", "_generators", "_classes", "_abelian",
                 "_characters", "_one_dim", "_irreps")

    def __init__(self, mul, labels=None, _generators=None):
        mul = _whole(mul, "multiplication table")
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
            raise ValidationError("multiplication table must be square")
        n = mul.shape[0]
        if n == 0:
            raise InvalidParameterError("group order must be positive")
        if n > GROUP_ORDER_CAP:
            raise SizeLimitError(
                f"group order {n} exceeds the desk-scale cap {GROUP_ORDER_CAP}"
            )
        if mul.min() < 0 or mul.max() >= n:
            raise ValidationError("table entries must be element indices 0..order-1")
        self.order = n
        self.mul = mul
        # a maker's greedy generators are trusted, and its table is not checked again
        self._generators = _validate_table(mul) if _generators is None else _generators
        self.inv = _compute_inverses(mul)
        if labels is not None:
            labels = list(map(str, labels))
            if len(labels) != n:
                raise ValidationError("labels must have one entry per element")
        self.labels = labels or [str(i) for i in range(n)]
        self._classes = _conjugacy_classes(mul, self.inv)
        self._abelian = bool(np.array_equal(mul, mul.T))
        self._characters = self._one_dim = self._irreps = None  # the last two cached by reps
        self.mul.setflags(write=False)
        self.inv.setflags(write=False)

    @property
    def is_abelian(self) -> bool:
        return self._abelian

    def conjugacy_classes(self) -> list[list[int]]:
        """Conjugacy classes in canonical order (sorted by smallest member)."""
        return [list(c) for c in self._classes]

    def class_representatives(self) -> list[int]:
        return [c[0] for c in self._classes]

    def _character_table(self) -> np.ndarray:
        """Irreducible characters, shape (irreps, |G|), built once (Burnside-Dixon): the
        central characters w(C_j) = |C_j| chi(z_j) / d are the eigenvectors of a random
        sum_i c_i M_i, M_i[j, k] = #{x in C_i : x^-1 z_k in C_j}, scaled by w(C_e) = 1 and
        d^2 = |G| / sum_j |w(C_j)|^2 / |C_j|.  Rows by degree, then by the values at the class
        representatives (real descending, imaginary ascending, to 9 digits); degree-1 rows
        are exact |G|-th roots of unity and column 0 holds the exact degrees."""
        if self._characters is not None:
            return self._characters
        n, k = self.order, len(self._classes)
        size = np.array([len(c) for c in self._classes])
        cls = np.repeat(np.arange(k), size)[np.argsort(np.concatenate(self._classes))]
        at = self.mul[self.inv[:, None], self.class_representatives()]  # [x, k] = x^-1 z_k
        flat = (cls[at] * k + np.arange(k)).ravel()
        for seed in range(4):
            weights = np.repeat(np.random.default_rng(seed).normal(size=k)[cls], k)
            w = np.linalg.eig(np.bincount(flat, weights, k * k).reshape(k, k))[1].T + 0j
            w = w / w[:, :1]
            deg = np.sqrt(n / (abs(w) ** 2 / size).sum(axis=1))
            chars, whole = np.rint(deg)[:, None] * w / size, abs(deg - np.rint(deg)).max() <= 1e-6
            chars[:, 0] = deg = np.rint(deg)
            gram = (chars * size) @ chars.conj().T / n
            if whole and deg @ deg == n and abs(gram - np.eye(k)).max() <= 1e-8:
                break
        else:
            raise NumericalDegeneracyError("character table: degrees or orthogonality failed")
        lin = deg == 1  # snapped to exp(2 pi i m / |G|), the values of a 1-dim rep
        chars[lin] = np.exp(2j * np.pi * np.rint(np.angle(chars[lin]) * n / (2 * np.pi)) / n)
        keys = np.round(np.stack([-chars.real, chars.imag], 2), 9).reshape(k, -1).T[::-1]
        self._characters = chars[np.lexsort(np.vstack([keys, deg]))][:, cls]
        self._characters.setflags(write=False)
        return self._characters

    def __repr__(self):
        return f"GroupTable(order={self.order})"


@dataclass(frozen=True)
class SubgroupRef:
    """A validated subgroup, stored as a sorted tuple of element indices."""

    elements: tuple[int, ...]

    def __contains__(self, g: int) -> bool:
        return g in self.elements

    def __len__(self) -> int:
        return len(self.elements)


def _whole(obj, what: str) -> np.ndarray:
    """obj as an int64 array, or ValidationError naming ``what`` unless every entry is a
    whole number of magnitude at most 2^53 (2 and 2.0 pass, 2.5 and 2+0j do not).  An integer
    array is only cast, so the tables the makers build pay no extra pass."""
    try:
        a = np.asarray(obj)
        if a.dtype.kind in "iu":
            return a.astype(np.int64, copy=False)
        if a.dtype.kind == "c":
            raise ValidationError(f"{what}: expected whole numbers, got complex values")
        x = a.astype(float)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what}: expected whole numbers") from None
    bad = ~(abs(x) <= 2.0**53) | (x != np.rint(x))
    if bad.any():
        raise ValidationError(f"{what}: expected whole numbers, got {float(x[bad].flat[0])}")
    return x.astype(np.int64)


def _whole_number(obj, what: str, low: int | None = None) -> int:
    """One whole number, as :func:`_whole` reads it; InvalidParameterError if below low."""
    a = _whole(obj, what)
    if a.ndim:
        raise ValidationError(f"{what} must be one whole number, got an array of shape {a.shape}")
    if low is not None and a < low:
        raise InvalidParameterError(f"{what} must be >= {low}, got {int(a)}")
    return int(a)


def _validate_table(mul: np.ndarray) -> tuple[int, ...]:
    """The greedy generators of a group table; ValidationError if mul is not one."""
    n = mul.shape[0]
    idx = np.arange(n)
    if not np.array_equal(mul[0], idx):
        raise ValidationError("identity invariant violated: mul[0][g] = g must hold")
    if not np.array_equal(mul[:, 0], idx):
        raise ValidationError("identity invariant violated: mul[g][0] = g must hold")
    # Latin-square property: every row and column is a permutation.
    if not (np.sort(mul, axis=1) == idx).all():
        raise ValidationError("row permutation invariant violated")
    if not (np.sort(mul, axis=0) == idx[:, None]).all():
        raise ValidationError("column permutation invariant violated")
    # Light's test, exact: the s with (xy)s = x(ys) for all x, y are closed under
    # products ((xy)(st) = ((xy)s)t = (x(ys))t = x((ys)t) = x(y(st))), so checking
    # each s of a generating set covers every triple.
    generators = tuple(_greedy_generators(mul))
    if not all(np.array_equal(mul[mul, s], mul[:, mul[:, s]]) for s in generators):
        raise ValidationError("associativity invariant violated")
    return generators


def _greedy_generators(mul: np.ndarray):
    """Yield generators, each the least element the ones before it do not generate."""
    reached = np.arange(len(mul)) == 0
    while not reached.all():
        s = int(np.argmin(reached))
        yield s
        reached[s] = True
        members = np.flatnonzero(reached)
        while members.size < len(mul):  # square the reached set until it is closed under products
            reached[mul[np.ix_(members, members)]] = True
            grown = np.flatnonzero(reached)
            if grown.size == members.size:
                break
            members = grown


def _compute_inverses(mul: np.ndarray) -> np.ndarray:
    n = mul.shape[0]
    inv = np.empty(n, dtype=np.int64)
    rows, cols = np.nonzero(mul == 0)
    inv[rows] = cols
    if not np.array_equal(mul[np.arange(n), inv], np.zeros(n, dtype=np.int64)):
        raise ValidationError("inverse invariant violated: mul[g][inv[g]] = identity")
    return inv


def _conjugacy_classes(mul: np.ndarray, inv: np.ndarray) -> list[tuple[int, ...]]:
    """The classes as ascending tuples, sorted by least member: h's class is the set of
    elements whose least conjugate, a running minimum of g h g^-1 over chunks of g, is h's."""
    n = mul.shape[0]
    least, step = np.arange(n), max(1, _STACK_BYTES // (8 * n))
    for g in range(0, n, step):  # conj[g, h] = g h g^-1
        conj = mul[mul[g : g + step], inv[g : g + step, None]]
        np.minimum(least, conj.min(axis=0), out=least)
    order, keys = np.argsort(least, kind="stable").tolist(), least.tolist()
    return [tuple(c) for _, c in itertools.groupby(order, keys.__getitem__)]


def make_cyclic(n: int) -> GroupTable:
    """Cyclic group Z_n with mul[a][b] = (a+b) mod n.

    A group by construction, so built with no table check: addition mod n is associative,
    0 is its identity and n - a inverts a.  Its greedy generators are 1, which reaches every
    k = 1 + ... + 1, or none for n = 1.
    """
    n = _whole_number(n, "cyclic group order", 1)
    if n > GROUP_ORDER_CAP:
        raise SizeLimitError(f"cyclic group order {n} exceeds cap {GROUP_ORDER_CAP}")
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    return GroupTable(mul, [str(i) for i in range(n)], (1,) if n > 1 else ())


def make_dihedral(n: int) -> GroupTable:
    """Dihedral group D_n of order 2n.

    Element e*n + k stands for s^e r^k (rotation r of order n, reflection s),
    multiplied with the relation r s = s r^-1.  Identity (e=0, k=0) sits at
    index 0.

    A group by construction, so built with no table check: the product (e1, k1)(e2, k2) =
    (e1 + e2, k2 + (-1)^e2 k1) is associative, as both bracketings expand to (e1 + e2 + e3,
    k3 + (-1)^e3 k2 + (-1)^(e2 + e3) k1); (0, 0) is its identity, (0, -k) inverts (0, k) and
    (1, k) inverts itself.  Its greedy generators are r = 1, which reaches the rotations
    0..n-1, then s = n.
    """
    n = _whole_number(n, "dihedral parameter", 2)
    if 2 * n > GROUP_ORDER_CAP:
        raise SizeLimitError(f"dihedral order {2 * n} exceeds cap {GROUP_ORDER_CAP}")
    e1, k1, e2, k2 = np.ix_((0, 1), range(n), (0, 1), range(n))
    # s^e1 r^k1 s^e2 r^k2 = s^(e1+e2) r^(k2 +- k1), over all pairs at once
    mul = (e1 + e2) % 2 * n + np.where(e2, k2 - k1, k1 + k2) % n
    labels = [f"r{k}" for k in range(n)] + [f"sr{k}" for k in range(n)]
    return GroupTable(mul.reshape(2 * n, 2 * n), labels, (1, n))


def make_symmetric(n: int) -> GroupTable:
    """Symmetric group S_n as a composition table of permutations.

    Permutations are enumerated in lexicographic order, so the identity is
    element 0.  Composition convention: (p*q)(x) = p(q(x)).

    A group by construction, so built with no table check: composition of permutations is
    associative, the identity permutation is its identity and p^-1 inverts p; the ranks are
    exact, as base-n codes of distinct permutations differ.  The first k! permutations are the
    ones that fix 0..n-k-1, the symmetric group of the last k points, and the next, at k!, swaps
    points n-k-1 and n-k; so the greedy generators are these adjacent transpositions at k! for
    k = 1..n-1, which generate S_n.
    """
    n = _whole_number(n, "symmetric group parameter", 1)
    if n > 6:
        raise SizeLimitError(
            f"symmetric group S_{n} has order {n}! > {GROUP_ORDER_CAP}; cap is n <= 6"
        )
    perms = np.array(list(itertools.permutations(range(n))))
    # base-n codes ascend in lexicographic order: one search ranks every p_i(q_j(x))
    code = n ** np.arange(n - 1, -1, -1)
    mul = np.searchsorted(perms @ code, perms[:, perms] @ code)
    labels = ["".join(map(str, p)) for p in perms]
    return GroupTable(mul, labels, tuple(itertools.accumulate(range(1, n), operator.mul)))


def direct_product(a: GroupTable, b: GroupTable) -> GroupTable:
    """Direct product with element index i_a * |b| + i_b.

    A group by construction, as a and b are, so built with no table check: the product is
    taken in each factor.  The indices below |b| are e x b, so the greedy generators are b's,
    which reach e x b; then, with H x b reached, the least element outside it is (s, e), at
    |b| s, for s the least element of a outside H: a's greedy generators, in turn.
    """
    order = a.order * b.order
    if order > GROUP_ORDER_CAP:
        raise SizeLimitError(f"product order {order} exceeds cap {GROUP_ORDER_CAP}")
    # mul[(x1,y1),(x2,y2)] = (x1*x2, y1*y2), flattened row-major
    mul = (a.mul[:, None, :, None] * b.order + b.mul[None, :, None, :]).reshape(order, order)
    labels = [f"{la},{lb}" for la in a.labels for lb in b.labels]
    return GroupTable(mul, labels, b._generators + tuple(b.order * s for s in a._generators))


def same_group(a: GroupTable, b: GroupTable) -> bool:
    """Structural equality: identical multiplication tables."""
    return a is b or (a.order == b.order and np.array_equal(a.mul, b.mul))


def subgroup(g: GroupTable, elements) -> SubgroupRef:
    """Validate an element set as a subgroup and wrap it.

    The set must contain the identity and be closed under multiplication,
    which in a finite group implies closure under inversion; otherwise
    InvalidSubgroupError is raised, as for an element that is not a whole number.
    """
    try:
        elems = _whole(list(elements), "subgroup elements")
    except ValidationError as exc:
        raise InvalidSubgroupError(str(exc)) from None
    if elems.ndim != 1:
        raise InvalidSubgroupError("subgroup elements must be single element indices")
    elems = np.unique(elems).tolist()
    if any(x < 0 or x >= g.order for x in elems):
        raise InvalidSubgroupError("subgroup elements must be valid element indices")
    if 0 not in elems:
        raise InvalidSubgroupError("subgroup must contain the identity (index 0)")
    k = np.array(elems)
    member = np.zeros(g.order, dtype=bool)
    member[k] = True
    missing = ~member[g.mul[np.ix_(k, k)]]
    if missing.any():
        a, b = k[np.argwhere(missing)[0]]
        raise InvalidSubgroupError(
            f"non-closed element set: product of {a} and {b} is missing"
        )
    return SubgroupRef(tuple(elems))


def is_normal(g: GroupTable, k: SubgroupRef | object) -> bool:
    """True iff x k x^-1 stays in the subgroup for all x in G, k in K."""
    if not isinstance(k, SubgroupRef):
        k = subgroup(g, k)
    elems = np.array(k.elements)
    member = np.zeros(g.order, dtype=bool)
    member[elems] = True
    # conj[x, j] = x k_j x^-1
    return bool(member[g.mul[g.mul[:, elems], g.inv[:, None]]].all())

