"""Group construction, validation, and structural queries."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asymkit as ak
from asymkit import groups as groups_module
from asymkit.groups import _greedy_generators, group_from_json, group_to_json


def brute_force_isomorphic(a: ak.GroupTable, b: ak.GroupTable) -> bool:
    """Oracle: search all identity-fixing bijections for a table isomorphism."""
    if a.order != b.order:
        return False
    rest = range(1, a.order)
    for perm in itertools.permutations(rest):
        f = (0,) + perm
        if all(
            f[a.mul[x, y]] == b.mul[f[x], f[y]]
            for x in range(a.order)
            for y in range(a.order)
        ):
            return True
    return False


def dihedral_table_by_loops(n: int) -> np.ndarray:
    """Oracle: D_n's table pair by pair from s^e1 r^k1 s^e2 r^k2 = s^(e1+e2) r^(k2 +- k1)."""
    mul = np.empty((2 * n, 2 * n), dtype=np.int64)
    for e1, k1, e2, k2 in itertools.product((0, 1), range(n), (0, 1), range(n)):
        k = (k2 - k1) % n if e2 else (k1 + k2) % n
        mul[e1 * n + k1, e2 * n + k2] = (e1 + e2) % 2 * n + k
    return mul


def symmetric_table_by_loops(n: int) -> tuple[np.ndarray, list[str]]:
    """Oracle: S_n's table and labels, composing (p*q)(x) = p(q(x)) pair by pair and
    looking each product up among the permutations in lexicographic order."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    mul = np.empty((len(perms), len(perms)), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            mul[i, j] = index[tuple(p[q[x]] for x in range(n))]
    return mul, ["".join(map(str, p)) for p in perms]


def assert_same_characters(got: np.ndarray, want: np.ndarray) -> None:
    """got holds the rows of want in some order, each entry within 1e-10.

    Every row of a character table has norm 1 under <a, b> = avg_g conj a(g) b(g),
    so the overlaps of two tables of the same rows form a permutation matrix.
    """
    assert got.shape == want.shape
    overlap = got.conj() @ want.T / want.shape[1]
    match = np.argmax(abs(overlap), axis=1)
    assert sorted(match) == list(range(len(want)))
    assert np.abs(got - want[match]).max() <= 1e-10


def cycle_type(label: str) -> tuple[int, ...]:
    """Cycle lengths, descending, of the permutation spelled by a make_symmetric label."""
    p, seen, lengths = [int(c) for c in label], set(), []
    for start in range(len(p)):
        x, n = start, 0
        while x not in seen:
            seen.add(x)
            x, n = p[x], n + 1
        if n:
            lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


# The printed character table of S4, by cycle type.
S4_TABLE = {
    (1, 1, 1, 1): [1, 1, 2, 3, 3],
    (2, 1, 1): [1, -1, 0, 1, -1],
    (2, 2): [1, 1, 2, -1, -1],
    (3, 1): [1, 1, -1, 0, 0],
    (4,): [1, -1, 0, -1, 1],
}


class TestCharacterTable:
    """The table read off the multiplication table, against closed forms."""

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 30, 720])
    def test_cyclic_closed_form(self, n):
        table = ak.make_cyclic(n)._character_table()
        idx = np.arange(n)
        assert_same_characters(table, np.exp(2j * np.pi * np.outer(idx, idx) / n))

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 10, 100])
    def test_dihedral_closed_form(self, n):
        # element e * n + k is s^e r^k
        k = np.arange(n)
        rows = [np.r_[a**k, b * a**k] for a in ((1, -1) if n % 2 == 0 else (1,)) for b in (1, -1)]
        rows += [np.r_[2 * np.cos(2 * np.pi * j * k / n), 0 * k] for j in range(1, (n + 1) // 2)]
        want = np.array(rows, dtype=complex)
        assert_same_characters(ak.make_dihedral(n)._character_table(), want)

    def test_s4_printed_table(self):
        g = ak.make_symmetric(4)
        want = np.array([S4_TABLE[cycle_type(label)] for label in g.labels], dtype=complex).T
        assert_same_characters(g._character_table(), want)

    @pytest.mark.parametrize(
        "a, b",
        [("s3", "z4"), ("d4", "z3"), ("s3", "s3"), ("klein", "d3")],
    )
    def test_direct_products(self, groups, a, b):
        """Column orthogonality, and the rows are the products of the factors' rows."""
        g = ak.direct_product(groups[a], groups[b])
        table = g._character_table()
        same_class = np.zeros((g.order, g.order))
        for c in g.conjugacy_classes():
            same_class[np.ix_(c, c)] = g.order / len(c)  # |C_G(x)| for x in c
        assert np.abs(table.conj().T @ table - same_class).max() <= 1e-10
        ta, tb = groups[a]._character_table(), groups[b]._character_table()
        products = ta[:, None, :, None] * tb[None, :, None, :]  # chi_a(x) chi_b(y) at (x, y)
        assert_same_characters(table, products.reshape(len(table), -1))

    @pytest.mark.parametrize(
        "make, n", [(ak.make_symmetric, 6), (ak.make_dihedral, 360), (ak.make_symmetric, 5)]
    )
    def test_degrees_and_row_orthogonality(self, make, n):
        g = make(n)
        table = g._character_table()
        deg = table[:, 0].real
        assert np.array_equal(deg, np.sort(np.rint(deg))) and deg @ deg == g.order
        assert len(table) == len(g.conjugacy_classes())
        assert np.abs(table @ table.conj().T / g.order - np.eye(len(table))).max() <= 1e-10

    def test_built_once_read_only_and_canonical(self):
        g = ak.make_dihedral(6)
        table = g._character_table()
        assert g._character_table() is table
        with pytest.raises(ValueError):
            table[0, 0] = 2
        assert np.array_equal(table[0], np.ones(g.order))  # the trivial row leads
        linear = table[table[:, 0] == 1]
        powers = np.rint(np.angle(linear) * 12 / (2 * np.pi))
        assert np.array_equal(linear, np.exp(2j * np.pi * powers / 12))  # exact 12th roots


class TestCyclic:
    def test_trivial_group(self):
        g = ak.make_cyclic(1)
        assert g.order == 1
        assert g.mul.tolist() == [[0]]

    def test_z3_inverse(self):
        g = ak.make_cyclic(3)
        assert g.order == 3
        assert g.inv[1] == 2

    def test_z8_product(self):
        g = ak.make_cyclic(8)
        assert g.mul[5, 6] == 3

    def test_zero_rejected(self):
        with pytest.raises(ak.InvalidParameterError):
            ak.make_cyclic(0)

    @given(st.integers(min_value=1, max_value=24))
    @settings(max_examples=20, deadline=None)
    def test_cyclic_structure(self, n):
        g = ak.make_cyclic(n)
        assert g.is_abelian
        assert all(g.inv[a] == (-a) % n for a in range(n))
        # abelian: one singleton class per element
        assert g.conjugacy_classes() == [[a] for a in range(n)]


@pytest.mark.parametrize("make", [ak.make_cyclic, ak.make_dihedral, ak.make_symmetric])
def test_maker_sizes_are_read_as_whole_numbers(make):
    """3.0 and '3' read as 3, as every whole number the package takes does; 2.5 raises a typed
    error, not a bare TypeError."""
    want = make(3)
    for n in (3.0, "3", np.int64(3)):
        got = make(n)
        assert np.array_equal(got.mul, want.mul) and got.labels == want.labels
    with pytest.raises(ak.ValidationError, match="whole"):
        make(2.5)


def test_complex_sizes_and_tables_are_rejected():
    """A complex value is no whole number, even with a zero imaginary part: numpy's cast to
    float would drop the imaginary part with only a ComplexWarning."""
    for n in (3 + 1j, 3 + 0j, np.complex128(3)):
        with pytest.raises(ak.ValidationError, match="cyclic group order: expected whole"):
            ak.make_cyclic(n)
    table = ak.make_cyclic(3).mul.astype(complex)
    with pytest.raises(ak.ValidationError, match="multiplication table: expected whole"):
        ak.GroupTable(table)


class TestDihedral:
    def test_d3_is_s3(self):
        assert brute_force_isomorphic(ak.make_dihedral(3), ak.make_symmetric(3))

    def test_d2_is_klein(self):
        g = ak.make_dihedral(2)
        assert g.order == 4
        assert g.is_abelian
        assert all(g.inv[a] == a for a in range(4))

    def test_d4_non_abelian(self):
        g = ak.make_dihedral(4)
        assert g.order == 8
        pairs = [
            (a, b)
            for a in range(8)
            for b in range(8)
            if g.mul[a, b] != g.mul[b, a]
        ]
        assert pairs

    def test_n1_rejected(self):
        with pytest.raises(ak.InvalidParameterError):
            ak.make_dihedral(1)

    @pytest.mark.parametrize("n", range(2, 25))
    def test_table_and_labels_match_loops(self, n):
        g = ak.make_dihedral(n)
        assert np.array_equal(g.mul, dihedral_table_by_loops(n)) and g.mul.dtype == np.int64
        assert g.labels == [f"r{k}" for k in range(n)] + [f"sr{k}" for k in range(n)]


class TestSymmetric:
    def test_orders(self):
        assert ak.make_symmetric(3).order == 6
        assert ak.make_symmetric(4).order == 24

    def test_s2_is_z2(self):
        assert brute_force_isomorphic(ak.make_symmetric(2), ak.make_cyclic(2))

    def test_s4_classes(self):
        assert len(ak.make_symmetric(4).conjugacy_classes()) == 5

    def test_size_limit(self):
        with pytest.raises(ak.SizeLimitError):
            ak.make_symmetric(7)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_table_and_labels_match_loops(self, n):
        g = ak.make_symmetric(n)
        mul, labels = symmetric_table_by_loops(n)
        assert np.array_equal(g.mul, mul) and g.mul.dtype == np.int64 and g.labels == labels


class TestDirectProduct:
    def test_klein(self):
        g = ak.direct_product(ak.make_cyclic(2), ak.make_cyclic(2))
        assert g.order == 4
        assert all(g.inv[a] == a for a in range(4))

    def test_z2_x_z3_is_z6(self):
        g = ak.direct_product(ak.make_cyclic(2), ak.make_cyclic(3))
        assert brute_force_isomorphic(g, ak.make_cyclic(6))

    def test_trivial_factor(self):
        s3 = ak.make_symmetric(3)
        g = ak.direct_product(ak.make_cyclic(1), s3)
        assert np.array_equal(g.mul, s3.mul)


def orbit_loop_classes(g) -> list[tuple[int, ...]]:
    """The classes as one np.unique of g h g^-1 per unseen h found them, sorted by least
    member: the oracle for the running-minimum pass."""
    seen, classes = np.zeros(g.order, dtype=bool), []
    for h in range(g.order):
        if not seen[h]:
            orbit = np.unique(g.mul[g.mul[:, h], g.inv])
            seen[orbit] = True
            classes.append(tuple(int(x) for x in orbit))
    return sorted(classes, key=lambda c: c[0])


LADDER = {
    "z1": lambda: ak.make_cyclic(1),
    "z32": lambda: ak.make_cyclic(32),
    "d17": lambda: ak.make_dihedral(17),
    "d100": lambda: ak.make_dihedral(100),
    "s5": lambda: ak.make_symmetric(5),
    "s3 x d4": lambda: ak.direct_product(ak.make_symmetric(3), ak.make_dihedral(4)),
}


class TestConjugacyClasses:
    @pytest.mark.parametrize("name", list(LADDER))
    def test_same_classes_as_orbit_loop(self, name):
        g = LADDER[name]()
        want = orbit_loop_classes(g)
        assert g.conjugacy_classes() == [list(c) for c in want]
        assert groups_module._conjugacy_classes(g.mul, g.inv) == want

    @pytest.mark.parametrize("stack_bytes", [1, 8 * 120 * 7])
    def test_chunked_running_minimum(self, monkeypatch, stack_bytes):
        g = ak.make_symmetric(5)  # chunks of one row, then of 7 rows (the last one short)
        monkeypatch.setattr(groups_module, "_STACK_BYTES", stack_bytes)
        assert groups_module._conjugacy_classes(g.mul, g.inv) == orbit_loop_classes(g)

    def test_s3_sizes(self, groups):
        sizes = sorted(len(c) for c in groups["s3"].conjugacy_classes())
        assert sizes == [1, 2, 3]

    def test_d4_count(self, groups):
        assert len(groups["d4"].conjugacy_classes()) == 5

    def test_identity_class_is_singleton(self, groups):
        for g in groups.values():
            assert g.conjugacy_classes()[0] == [0]


class TestCachedGenerators:
    @pytest.mark.parametrize("name", list(LADDER))
    def test_generators_kept_and_generating(self, name):
        g = LADDER[name]()
        assert g._generators == tuple(_greedy_generators(g.mul))
        reached = np.zeros(g.order, dtype=bool)
        reached[[0, *g._generators]] = True
        while True:  # closure of the generators under products
            members = np.flatnonzero(reached)
            reached[g.mul[np.ix_(members, members)]] = True
            if reached.sum() == members.size:
                break
        assert reached.all()

    def test_one_dim_reps_kept_read_only(self):
        g = ak.make_dihedral(6)
        first = ak.one_dim_reps(g)
        assert ak.one_dim_reps(g) is first and not first.flags.writeable
        table = g._character_table()
        assert np.array_equal(first, table[table[:, 0] == 1])


def maker_ladder() -> dict:
    """Each maker over a ladder of sizes: Z1 to Z720 sampled, D2 to D360 sampled, S1 to S6,
    and direct products, a cyclic factor on either side."""
    out = {f"z{n}": functools.partial(ak.make_cyclic, n)
           for n in [*range(1, 13), 16, 31, 64, 120, 360, 719, 720]}
    out |= {f"d{n}": functools.partial(ak.make_dihedral, n) for n in [*range(2, 9), 17, 100, 360]}
    out |= {f"s{n}": functools.partial(ak.make_symmetric, n) for n in range(1, 7)}
    for a, b in [("z1", "s3"), ("s3", "z1"), ("z2", "z2"), ("z2", "z3"), ("z3", "z2"),
                 ("s3", "d4"), ("d4", "s3"), ("s4", "z6"), ("z5", "s4"), ("z8", "d8")]:
        out[f"{a} x {b}"] = lambda a=a, b=b: ak.direct_product(out[a](), out[b]())
    return out


MAKER_LADDER = maker_ladder()


@pytest.mark.parametrize("name", list(MAKER_LADDER))
def test_trusted_tables_match_validation(name):
    """The makers build their tables with no Latin-square or associativity pass and hand over
    their greedy generators: the full validation passes on each table and finds the same
    generators, inverses, classes and abelianness."""
    g = MAKER_LADDER[name]()
    checked = ak.GroupTable(np.array(g.mul), labels=g.labels)  # runs _validate_table
    assert checked._generators == g._generators
    assert np.array_equal(checked.inv, g.inv)
    assert checked._classes == g._classes
    assert checked._abelian == g._abelian


class TestSubgroups:
    def test_abelian_subgroups_normal(self):
        z6 = ak.make_cyclic(6)
        assert ak.is_normal(z6, [0, 2, 4])
        assert ak.is_normal(z6, [0, 3])

    def test_d4_rotations_normal(self, groups):
        # index-2 subgroup
        assert ak.is_normal(groups["d4"], range(4))

    def test_d3_reflection_not_normal(self, groups):
        d3 = groups["d3"]
        refl = 3  # sr0, an involution
        assert d3.mul[refl, refl] == 0
        assert not ak.is_normal(d3, [0, refl])

    def test_non_closed_rejected(self, groups):
        three_cycle = 3  # (1,2,0) in lexicographic enumeration, order 3
        assert groups["s3"].mul[three_cycle, three_cycle] != 0
        with pytest.raises(ak.InvalidSubgroupError):
            ak.subgroup(groups["s3"], [0, three_cycle])
        with pytest.raises(ak.InvalidSubgroupError):
            ak.subgroup(groups["s3"], [1, 2])  # no identity

    def test_inverse_closed_but_not_product_closed_rejected(self, groups):
        s3 = groups["s3"]
        t1, t2 = 1, 2  # the transpositions (0,2,1) and (1,0,2)
        assert s3.mul[t1, t1] == 0 and s3.mul[t2, t2] == 0
        with pytest.raises(ak.InvalidSubgroupError, match="product"):
            ak.subgroup(s3, [0, t1, t2])

    def test_elements_are_read_as_whole_numbers(self):
        """Any iterable of whole numbers names its elements (2.0 reads as 2); 2.5 is no element,
        not element 2, for subgroup and for the callers that read a set through it."""
        z6 = ak.make_cyclic(6)
        for elements in ([0, 2, 4], (4.0, 2, 0), range(0, 6, 2), {0, 2.0, 4},
                         np.array([4, 0, 2, 2]), np.array([0.0, 2.0, 4.0])):
            assert ak.subgroup(z6, elements).elements == (0, 2, 4)
        for bad in ([0, 2.5], (0, 3.5), [0, float("nan")], np.array([[0, 3]])):
            with pytest.raises(ak.InvalidSubgroupError):
                ak.subgroup(z6, bad)
        with pytest.raises(ak.InvalidSubgroupError):
            ak.is_normal(z6, [0, 3.5])
        with pytest.raises(ak.InvalidSubgroupError):
            ak.uniform_twirl_over_subgroup(ak.regular_rep(z6), [0, 3.5])

    def test_complex_elements_are_no_elements(self):
        z6 = ak.make_cyclic(6)
        for bad in ([0, 2 + 1j], np.array([0, 2, 4], dtype=complex)):
            with pytest.raises(ak.InvalidSubgroupError, match="subgroup elements"):
                ak.subgroup(z6, bad)

    def test_is_normal_matches_brute_force_on_s4(self, groups):
        s4 = groups["s4"]

        def generated(gens):
            elems = {0}
            frontier = [0]
            while frontier:
                x = frontier.pop()
                for s in gens:
                    y = s4.mul[x, s]
                    if y not in elems:
                        elems.add(y)
                        frontier.append(y)
            return frozenset(elems)

        def normal(h):
            inv = {x: next(y for y in range(24) if s4.mul[x, y] == 0) for x in range(24)}
            return all(s4.mul[s4.mul[x, k], inv[x]] in h for x in range(24) for k in h)

        subgroups = {generated((a, b)) for a in range(24) for b in range(a, 24)}
        verdicts = [ak.is_normal(s4, sorted(h)) for h in subgroups]
        assert verdicts == [normal(h) for h in subgroups]
        # S4 has 30 subgroups, 4 of them normal: 1, V4, A4, S4
        assert len(subgroups) == 30 and sum(verdicts) == 4


class TestValidation:
    def test_corrupted_table_rejected(self):
        mul = ak.make_cyclic(4).mul.copy()
        mul[2, 3] = 2  # breaks the Latin-square property
        with pytest.raises(ak.ValidationError):
            ak.GroupTable(mul)

    def test_non_associative_latin_square_rejected(self):
        # A quasigroup with identity that fails associativity: 5x5 from a
        # non-associative loop.
        mul = np.array(
            [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0],
            ]
        )
        with pytest.raises(ak.ValidationError):
            ak.GroupTable(mul)

    @pytest.mark.parametrize("n", [10, 66])
    def test_intercalate_loop_rejected(self, n):
        # Swapping the 2x2 subsquare {1, 1 + n/2}^2 of the Z_n table keeps a
        # Latin square with identity (a loop), but not an associative one.
        mul = ak.make_cyclic(n).mul.copy()
        a, b = 1, 1 + n // 2
        mul[[a, a, b, b], [a, b, a, b]] = mul[[a, a, b, b], [b, a, b, a]]
        with pytest.raises(ak.ValidationError, match="associativity"):
            ak.GroupTable(mul)

    @pytest.mark.parametrize(
        "make, n", [(ak.make_symmetric, 6), (ak.make_dihedral, 360), (ak.make_cyclic, 720)]
    )
    def test_largest_groups_accepted(self, make, n):
        assert make(n).order == ak.GROUP_ORDER_CAP

    def test_order_cap(self):
        with pytest.raises(ak.SizeLimitError):
            ak.make_cyclic(721)

    def test_immutability(self, groups):
        with pytest.raises(ValueError):
            groups["s3"].mul[0, 0] = 1


class TestJson:
    def test_round_trip(self, groups):
        for g in (groups["s3"], groups["z4"]):
            back = group_from_json(group_to_json(g))
            assert np.array_equal(back.mul, g.mul)
            assert np.array_equal(back.inv, g.inv)
            assert back.labels == g.labels

    def test_order_mismatch_rejected(self, groups):
        obj = group_to_json(groups["z4"])
        obj["order"] = 5
        with pytest.raises(ak.ValidationError):
            group_from_json(obj)

    def test_missing_table_rejected(self):
        with pytest.raises(ak.ValidationError):
            group_from_json({"order": 2})
