"""Group construction, validation, and structural queries."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asymkit as ak
from asymkit.groups import group_from_json, group_to_json


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


class TestCyclic:
    def test_trivial_group(self):
        g = ak.make_cyclic(1)
        assert g.order == 1
        assert g.mul.tolist() == [[0]]

    def test_z3_inverse(self):
        g = ak.make_cyclic(3)
        assert g.order == 3
        assert g.inverse(1) == 2

    def test_z8_product(self):
        g = ak.make_cyclic(8)
        assert g.multiply(5, 6) == 3

    def test_zero_rejected(self):
        with pytest.raises(ak.InvalidParameterError):
            ak.make_cyclic(0)

    @given(st.integers(min_value=1, max_value=24))
    @settings(max_examples=20, deadline=None)
    def test_cyclic_structure(self, n):
        g = ak.make_cyclic(n)
        assert g.is_abelian
        assert all(g.inverse(a) == (-a) % n for a in range(n))
        # abelian: one singleton class per element
        assert g.conjugacy_classes() == [[a] for a in range(n)]


class TestDihedral:
    def test_d3_is_s3(self):
        assert brute_force_isomorphic(ak.make_dihedral(3), ak.make_symmetric(3))

    def test_d2_is_klein(self):
        g = ak.make_dihedral(2)
        assert g.order == 4
        assert g.is_abelian
        assert all(g.inverse(a) == a for a in range(4))

    def test_d4_non_abelian(self):
        g = ak.make_dihedral(4)
        assert g.order == 8
        pairs = [
            (a, b)
            for a in range(8)
            for b in range(8)
            if g.multiply(a, b) != g.multiply(b, a)
        ]
        assert pairs

    def test_n1_rejected(self):
        with pytest.raises(ak.InvalidParameterError):
            ak.make_dihedral(1)


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


class TestDirectProduct:
    def test_klein(self):
        g = ak.direct_product(ak.make_cyclic(2), ak.make_cyclic(2))
        assert g.order == 4
        assert all(g.inverse(a) == a for a in range(4))

    def test_z2_x_z3_is_z6(self):
        g = ak.direct_product(ak.make_cyclic(2), ak.make_cyclic(3))
        assert brute_force_isomorphic(g, ak.make_cyclic(6))

    def test_trivial_factor(self):
        s3 = ak.make_symmetric(3)
        g = ak.direct_product(ak.make_cyclic(1), s3)
        assert np.array_equal(g.mul, s3.mul)


class TestConjugacyClasses:
    def test_s3_sizes(self, groups):
        sizes = sorted(len(c) for c in groups["s3"].conjugacy_classes())
        assert sizes == [1, 2, 3]

    def test_d4_count(self, groups):
        assert len(groups["d4"].conjugacy_classes()) == 5

    def test_identity_class_is_singleton(self, groups):
        for g in groups.values():
            assert g.conjugacy_classes()[0] == [0]


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
        assert d3.multiply(refl, refl) == 0
        assert not ak.is_normal(d3, [0, refl])

    def test_non_closed_rejected(self, groups):
        three_cycle = 3  # (1,2,0) in lexicographic enumeration, order 3
        assert groups["s3"].multiply(three_cycle, three_cycle) != 0
        with pytest.raises(ak.InvalidSubgroupError):
            ak.subgroup(groups["s3"], [0, three_cycle])
        with pytest.raises(ak.InvalidSubgroupError):
            ak.subgroup(groups["s3"], [1, 2])  # no identity

    def test_inverse_closed_but_not_product_closed_rejected(self, groups):
        s3 = groups["s3"]
        t1, t2 = 1, 2  # the transpositions (0,2,1) and (1,0,2)
        assert s3.multiply(t1, t1) == 0 and s3.multiply(t2, t2) == 0
        with pytest.raises(ak.InvalidSubgroupError, match="product"):
            ak.subgroup(s3, [0, t1, t2])

    def test_is_normal_matches_brute_force_on_s4(self, groups):
        s4 = groups["s4"]

        def generated(gens):
            elems = {0}
            frontier = [0]
            while frontier:
                x = frontier.pop()
                for s in gens:
                    y = s4.multiply(x, s)
                    if y not in elems:
                        elems.add(y)
                        frontier.append(y)
            return frozenset(elems)

        def normal(h):
            inv = {x: next(y for y in range(24) if s4.multiply(x, y) == 0) for x in range(24)}
            return all(s4.multiply(s4.multiply(x, k), inv[x]) in h for x in range(24) for k in h)

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
