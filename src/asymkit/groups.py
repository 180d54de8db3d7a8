"""Finite groups as dense multiplication tables.

Conventions shared by the whole package:

* elements are integers 0..|G|-1 and index 0 is always the identity;
* tables are immutable after construction; derived data is computed eagerly,
  except the irreps of the regular decomposition, cached on first use (a race
  is harmless: it is deterministic), so concurrent reads are safe;
* the desk-scale cap is |G| <= 720 so that |G|-indexed dense data and
  O(|G| d^3) averaging loops stay comfortable in memory and time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    InvalidSubgroupError,
    SizeLimitError,
    ValidationError,
)

GROUP_ORDER_CAP = 720


class GroupTable:
    """A finite group given by its full multiplication table.

    ``mul[a, b]`` is the index of the product a*b.  Inverses are recomputed
    from the table, never trusted from input.  All construction invariants
    (identity row/column, Latin-square rows and columns, associativity) are
    verified eagerly; a table that fails any of them raises ValidationError.
    """

    __slots__ = ("order", "mul", "inv", "labels", "_classes", "_abelian", "_regular_blocks")

    def __init__(self, mul, labels=None):
        mul = np.asarray(mul, dtype=np.int64)
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
        _validate_table(mul)
        self.inv = _compute_inverses(mul)
        if labels is not None:
            labels = list(map(str, labels))
            if len(labels) != n:
                raise ValidationError("labels must have one entry per element")
        self.labels = labels or [str(i) for i in range(n)]
        self._classes = _conjugacy_classes(mul, self.inv)
        self._abelian = bool(np.array_equal(mul, mul.T))
        self._regular_blocks = None
        self.mul.setflags(write=False)
        self.inv.setflags(write=False)

    def multiply(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def elements(self) -> range:
        return range(self.order)

    @property
    def is_abelian(self) -> bool:
        return self._abelian

    def conjugacy_classes(self) -> list[list[int]]:
        """Conjugacy classes in canonical order (sorted by smallest member)."""
        return [list(c) for c in self._classes]

    def class_representatives(self) -> list[int]:
        return [c[0] for c in self._classes]

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


def _validate_table(mul: np.ndarray) -> None:
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
    # each s of a generating set, picked greedily, covers every triple.
    reached = idx == 0
    while not reached.all():
        s = int(np.argmin(reached))  # the least element not yet reached
        if not np.array_equal(mul[mul, s], mul[:, mul[:, s]]):
            raise ValidationError("associativity invariant violated")
        reached[s] = True
        members = np.flatnonzero(reached)
        while members.size < n:  # square the reached set until it is closed under products
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
    n = mul.shape[0]
    seen = np.zeros(n, dtype=bool)
    classes = []
    for h in range(n):
        if seen[h]:
            continue
        orbit = np.unique(mul[mul[:, h], inv])  # all g h g^-1
        seen[orbit] = True
        classes.append(tuple(int(x) for x in orbit))
    classes.sort(key=lambda c: c[0])
    return classes


def make_cyclic(n: int) -> GroupTable:
    """Cyclic group Z_n with mul[a][b] = (a+b) mod n."""
    if n < 1:
        raise InvalidParameterError(f"cyclic group order must be >= 1, got {n}")
    if n > GROUP_ORDER_CAP:
        raise SizeLimitError(f"cyclic group order {n} exceeds cap {GROUP_ORDER_CAP}")
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    return GroupTable(mul, labels=[str(i) for i in range(n)])


def make_dihedral(n: int) -> GroupTable:
    """Dihedral group D_n of order 2n.

    Element e*n + k stands for s^e r^k (rotation r of order n, reflection s),
    multiplied with the relation r s = s r^-1.  Identity (e=0, k=0) sits at
    index 0.
    """
    if n < 2:
        raise InvalidParameterError(f"dihedral parameter must be >= 2, got {n}")
    if 2 * n > GROUP_ORDER_CAP:
        raise SizeLimitError(f"dihedral order {2 * n} exceeds cap {GROUP_ORDER_CAP}")
    order = 2 * n
    mul = np.empty((order, order), dtype=np.int64)
    for e1, k1, e2, k2 in itertools.product((0, 1), range(n), (0, 1), range(n)):
        # s^e1 r^k1 s^e2 r^k2 = s^(e1+e2) r^(k2 +- k1)
        e = (e1 + e2) % 2
        k = (k2 - k1) % n if e2 else (k1 + k2) % n
        mul[e1 * n + k1, e2 * n + k2] = e * n + k
    labels = [f"r{k}" for k in range(n)] + [f"sr{k}" for k in range(n)]
    return GroupTable(mul, labels=labels)


def make_symmetric(n: int) -> GroupTable:
    """Symmetric group S_n as a composition table of permutations.

    Permutations are enumerated in lexicographic order, so the identity is
    element 0.  Composition convention: (p*q)(x) = p(q(x)).
    """
    if n < 1:
        raise InvalidParameterError(f"symmetric group parameter must be >= 1, got {n}")
    if n > 6:
        raise SizeLimitError(
            f"symmetric group S_{n} has order {n}! > {GROUP_ORDER_CAP}; cap is n <= 6"
        )
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    order = len(perms)
    mul = np.empty((order, order), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            mul[i, j] = index[tuple(p[q[x]] for x in range(n))]
    labels = ["".join(map(str, p)) for p in perms]
    return GroupTable(mul, labels=labels)


def direct_product(a: GroupTable, b: GroupTable) -> GroupTable:
    """Direct product with element index i_a * |b| + i_b."""
    order = a.order * b.order
    if order > GROUP_ORDER_CAP:
        raise SizeLimitError(f"product order {order} exceeds cap {GROUP_ORDER_CAP}")
    ia = np.arange(a.order)
    ib = np.arange(b.order)
    # mul[(x1,y1),(x2,y2)] = (x1*x2, y1*y2), flattened row-major
    mul_a = a.mul[ia[:, None], ia[None, :]]
    mul_b = b.mul[ib[:, None], ib[None, :]]
    mul = (
        mul_a[:, None, :, None] * b.order + mul_b[None, :, None, :]
    ).reshape(order, order)
    labels = [f"{la},{lb}" for la in a.labels for lb in b.labels]
    return GroupTable(mul, labels=labels)


def same_group(a: GroupTable, b: GroupTable) -> bool:
    """Structural equality: identical multiplication tables."""
    return a is b or (a.order == b.order and np.array_equal(a.mul, b.mul))


def subgroup(g: GroupTable, elements) -> SubgroupRef:
    """Validate an element set as a subgroup and wrap it.

    The set must contain the identity and be closed under multiplication,
    which in a finite group implies closure under inversion; otherwise
    InvalidSubgroupError is raised.
    """
    elems = sorted(set(int(x) for x in elements))
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


def group_to_json(g: GroupTable) -> dict:
    """JSON form: order, full table, labels.  Inverses are never serialized."""
    return {
        "order": g.order,
        "mul": g.mul.tolist(),
        "labels": list(g.labels),
    }


def group_from_json(obj: dict) -> GroupTable:
    """Rebuild and fully re-validate a group from its JSON form."""
    if "mul" not in obj:
        raise ValidationError("group JSON must contain a 'mul' table")
    table = GroupTable(obj["mul"], labels=obj.get("labels"))
    if "order" in obj and int(obj["order"]) != table.order:
        raise ValidationError("group JSON 'order' does not match table size")
    return table
