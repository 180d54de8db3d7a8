"""Representation construction, twirling, and irreducible decomposition."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asymkit as ak
from asymkit import jsonio, reps
from asymkit.groups import group_from_json, group_to_json
from asymkit.linalg import frob, haar_unitary, random_complex, scaled_tol
from helpers import (
    assert_matches_character_table,
    block_matrix,
    dense_charfunc,
    dense_reconstruction_residual,
    dense_rep_residuals,
    per_isotype_decompose,
    perm_rep,
    random_hermitian,
    slice_stacks,
    stack_spans,
)


def count_draws(monkeypatch, zero_at=()) -> list:
    """Record the size of every random vector decompose draws for a splitting twirl in the
    list returned.  Draws numbered (from 1) in zero_at are the zero vector instead, whose
    twirl is 0 with one eigenvalue, so that every copy collides."""
    draws, real_draw = [], reps.random_complex

    def draw(shape, rng):
        draws.append(shape[0])
        return np.zeros(shape, complex) if len(draws) in zero_at else real_draw(shape, rng)

    monkeypatch.setattr(reps, "random_complex", draw)
    return draws


def split_isotypes(dec) -> int:
    """Isotypes holding several copies of an irrep of dimension > 1: one twirl each."""
    return sum(blk.dim > 1 and blk.mult > 1 for blk in dec.blocks)


class TestRegularRep:
    def test_z2_matrices(self):
        r = ak.regular_rep(ak.make_cyclic(2))
        assert np.allclose(r.mats[0], np.eye(2))
        assert np.allclose(r.mats[1], np.array([[0, 1], [1, 0]]))

    def test_character_is_delta(self, regular_reps):
        for name, r in regular_reps.items():
            char = r.character()
            assert abs(char[0] - r.group.order) < 1e-12
            assert np.all(np.abs(char[1:]) < 1e-12)

    def test_s3_block_structure(self, decompositions):
        dec = decompositions["s3"]
        assert dec.multiset() == [(1, 1), (1, 1), (2, 2)]


class TestTensorAndSum:
    def test_trivial_tensor_preserves_character(self, groups, rng):
        s3 = groups["s3"]
        r = ak.regular_rep(s3)
        t = ak.tensor_rep(ak.trivial_rep(s3), r)
        assert np.allclose(t.character(), r.character())

    def test_character_multiplies(self, groups):
        g = groups["d4"]
        r = ak.regular_rep(g)
        t = ak.tensor_rep(r, r)
        assert np.allclose(t.character(), r.character() ** 2)

    def test_z3_weights_add(self, groups):
        z3 = groups["z3"]
        w1 = ak.number_rep(z3, [1])
        w2 = ak.number_rep(z3, [2])
        t = ak.tensor_rep(w1, w2)
        assert np.allclose(t.mats[:, 0, 0], 1.0)  # weight 1+2 = 0 mod 3

    def test_direct_sum_of_trivials(self, groups):
        s = ak.direct_sum_rep(ak.trivial_rep(groups["z2"]), ak.trivial_rep(groups["z2"]))
        assert s.dim == 2
        assert np.allclose(s.mats, np.eye(2))

    def test_direct_sum_weights(self, groups):
        z16 = groups["z16"]
        s = ak.direct_sum_rep(ak.number_rep(z16, [1]), ak.number_rep(z16, [2]))
        expected = np.exp(2j * np.pi * np.outer(np.arange(16), [1, 2]) / 16)
        assert np.allclose(np.diagonal(s.mats, axis1=1, axis2=2), expected)

    def test_doubling_doubles_multiplicities(self, regular_reps):
        r = regular_reps["s3"]
        doubled = ak.decompose(ak.direct_sum_rep(r, r), seed=3)
        base = ak.decompose(r, seed=3)
        assert sorted(doubled.multiset()) == sorted((d, 2 * n) for d, n in base.multiset())

    def test_group_mismatch(self, groups):
        with pytest.raises(ak.GroupMismatchError):
            ak.tensor_rep(ak.trivial_rep(groups["z2"]), ak.trivial_rep(groups["z3"]))


class TestTwirl:
    def test_identity_fixed(self, regular_reps):
        r = regular_reps["s3"]
        assert np.allclose(ak.twirl_operator(r, np.eye(6)), np.eye(6))

    def test_hermitian_trace_preserved(self, regular_reps, rng):
        r = regular_reps["d4"]
        h = random_hermitian(8, rng)
        t = ak.twirl_operator(r, h)
        assert frob(t - t.conj().T) < 1e-12
        assert abs(np.trace(t) - np.trace(h)) < 1e-10

    def test_commutes_with_rep(self, regular_reps, rng):
        r = regular_reps["s3"]
        t = ak.twirl_operator(r, random_hermitian(6, rng))
        worst = max(frob(t @ r.mats[g] - r.mats[g] @ t) for g in range(6))
        assert worst <= 1e-10

    def test_schur_on_irreducible_block(self, decompositions, rng):
        two_dim = next(b for b in decompositions["s3"].blocks if b.dim == 2)
        sub = ak.UnitaryRep(decompositions["s3"].rep.group, two_dim.mats)
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        t = ak.twirl_operator(sub, x)
        assert np.allclose(t, np.trace(x) / 2 * np.eye(2), atol=1e-10)

    def test_dimension_mismatch(self, regular_reps):
        with pytest.raises(ak.DimensionMismatchError):
            ak.twirl_operator(regular_reps["z2"], np.eye(3))


class TestDecompose:
    def test_z3_characters_are_cube_roots(self, decompositions):
        dec = decompositions["z3"]
        assert dec.multiset() == [(1, 1)] * 3
        key = lambda z: (round(z.real, 9), round(z.imag, 9))
        got = sorted((complex(b.mats[1, 0, 0]) for b in dec.blocks), key=key)
        expected = sorted(np.exp(2j * np.pi * np.arange(3) / 3), key=key)
        assert np.allclose(got, expected)

    def test_one_dim_rep_basis(self, groups):
        r = ak.number_rep(groups["z16"], [3])
        dec = ak.decompose(r, seed=0)
        assert dec.multiset() == [(1, 1)]
        assert np.allclose(np.abs(dec.basis), [[1.0]])

    def test_dft_oracle_z3(self, groups, decompositions):
        # Explicit discrete Fourier change of basis block-diagonalizes the
        # regular action of Z3; characters must match as multisets.
        omega = np.exp(2j * np.pi / 3)
        f = np.array([[omega ** (j * k) for j in range(3)] for k in range(3)]) / np.sqrt(3)
        r = ak.regular_rep(groups["z3"])
        oracle_chars = set()
        for g in range(3):
            diag = f @ r.mats[g] @ f.conj().T
            assert np.allclose(diag, np.diag(np.diagonal(diag)), atol=1e-12)
            oracle_chars.add(tuple(np.round(np.diagonal(diag), 9)))
        dec_chars = {
            tuple(np.round([b.mats[g, 0, 0] for g in range(3)], 9))
            for b in decompositions["z3"].blocks
        }
        assert dec_chars == oracle_chars

    def test_regular_blocks_match_character_table(self, decompositions):
        for dec in decompositions.values():
            assert_matches_character_table(dec)
            assert dec.multiset() == [(d, d) for d in dec.rep.group._character_table()[:, 0].real]

    def test_one_dim_blocks_are_table_rows(self, decompositions):
        for dec in decompositions.values():
            table = dec.rep.group._character_table()
            linear = [blk.mats[:, 0, 0] for blk in dec.blocks if blk.dim == 1]
            assert np.array_equal(linear, table[table[:, 0] == 1])

    def test_regular_multiplicity_equals_dimension(self, decompositions):
        for name in ("s3", "s4", "d4", "z6"):
            for d, n in decompositions[name].multiset():
                assert d == n

    def test_reconstruction_residual(self, decompositions):
        for dec in decompositions.values():
            assert dec.reconstruction_residual() <= 1e-8

    def test_character_orthogonality(self, decompositions):
        for dec in decompositions.values():
            chars = np.array([np.einsum("gii->g", b.mats) for b in dec.blocks])
            grammat = chars @ chars.conj().T / dec.rep.group.order
            assert np.max(np.abs(grammat - np.eye(len(dec.blocks)))) <= 1e-8

    def test_class_character_is_trace_at_class_representatives(self, decompositions):
        for dec in decompositions.values():
            reps_ = dec.rep.group.class_representatives()
            for b in dec.blocks:
                expected = [np.trace(b.mats[g]) for g in reps_]
                assert np.max(np.abs(b.character - expected)) <= 1e-12

    def test_block_character_norm_one(self, decompositions):
        for dec in decompositions.values():
            for b in dec.blocks:
                norm = np.mean(np.abs(np.einsum("gii->g", b.mats)) ** 2)
                assert abs(norm - 1.0) <= 1e-8

    def test_deterministic_given_seed(self, regular_reps):
        a = ak.decompose(regular_reps["s3"], seed=5)
        b = ak.decompose(regular_reps["s3"], seed=5)
        assert np.array_equal(a.basis, b.basis)

    def test_seed_independent_structure(self, regular_reps):
        a = ak.decompose(regular_reps["d4"], seed=1)
        b = ak.decompose(regular_reps["d4"], seed=2)
        assert a.multiset() == b.multiset()

    def test_idempotent_on_block_diagonal_input(self, decompositions):
        dec = decompositions["s3"]
        mats = block_matrix(dec, np.arange(6))
        again = ak.decompose(ak.UnitaryRep(dec.rep.group, mats), seed=0)
        assert sorted(again.multiset()) == sorted(dec.multiset())

    def test_negative_seed_rejected(self, regular_reps):
        with pytest.raises(ak.InvalidParameterError, match="seed"):
            ak.decompose(regular_reps["s3"], seed=-1)

    @pytest.mark.parametrize("seed", [1.7, "3", 3.0, None])
    def test_non_integer_seed_rejected(self, regular_reps, seed):
        """Not truncated to another seed's basis: 1.7 once decomposed as seed 1."""
        with pytest.raises(ak.InvalidParameterError, match="seed"):
            ak.decompose(regular_reps["s3"], seed=seed)

    def test_numpy_integer_seed_is_that_integer(self, regular_reps):
        a, b = (ak.decompose(regular_reps["s4"], seed=s) for s in (np.int64(3), 3))
        assert np.array_equal(a.basis, b.basis)
        assert all(np.array_equal(x.mats, y.mats) for x, y in zip(a.blocks, b.blocks))

    def test_zero_dimensional_rep_has_no_blocks(self, groups):
        dec = ak.decompose(ak.UnitaryRep(groups["s3"], np.zeros((6, 0, 0))), seed=0)
        assert dec.blocks == [] and dec.basis.shape == (0, 0)
        assert dec.reconstruction_residual() == 0.0

    def test_block_count_equals_class_count_for_regular(self, groups, decompositions):
        for name in ("z2", "z3", "z6", "klein", "s3", "s4", "d4"):
            assert len(decompositions[name].blocks) == len(groups[name].conjugacy_classes())


class TestOneDimReps:
    def test_table_rows_match_regular_blocks(self, groups, decompositions):
        for name, dec in decompositions.items():
            cold = group_from_json(group_to_json(groups[name]))  # no table built yet
            blocks = np.array([blk.mats[:, 0, 0] for blk in dec.blocks if blk.dim == 1])
            assert np.array_equal(ak.one_dim_reps(cold), blocks)
            assert ak.one_dim_reps(groups[name]) is ak.one_dim_reps(groups[name])

    def test_non_homomorphism_in_table_rejected(self):
        z6 = ak.make_cyclic(6)
        table = z6._character_table().copy()
        table[1, [1, 2]] = table[1, [2, 1]]  # still sixth roots of unity, no longer a homomorphism
        z6._characters = table
        with pytest.raises(ak.NumericalDegeneracyError, match="not a homomorphism"):
            ak.one_dim_reps(z6)

    def test_cyclic_characters(self, groups):
        n = 6
        om = ak.one_dim_reps(groups["z6"])
        assert om.shape == (6, 6)
        expected = {
            tuple(np.round(np.exp(2j * np.pi * k * np.arange(n) / n), 9)) for k in range(n)
        }
        got = {tuple(np.round(row, 9)) for row in om}
        assert got == expected

    def test_s3_has_two(self, groups):
        om = ak.one_dim_reps(groups["s3"])
        assert om.shape[0] == 2

    def test_contains_trivial(self, groups):
        for name in ("z2", "s3", "d4", "klein"):
            om = ak.one_dim_reps(groups[name])
            assert any(np.allclose(row, 1.0) for row in om)


class TestInvariantUnitary:
    def test_commutes(self, decompositions, rng):
        for name in ("s3", "d4"):
            dec = decompositions[name]
            v = ak.random_invariant_unitary(dec, rng)
            assert frob(v @ v.conj().T - np.eye(dec.rep.dim)) < 1e-10
            worst = max(
                frob(v @ dec.rep.mats[g] - dec.rep.mats[g] @ v)
                for g in range(dec.rep.group.order)
            )
            assert worst < 1e-10


class TestRepValidation:
    def test_number_rep_weights_are_whole_numbers(self, groups):
        """Whole weights, ints or floats, give the same phases bit for bit; a complex or
        fractional weight raises ValidationError naming the weights, not numpy's TypeError or a
        homomorphism check (a weight of 0.5 makes no rep of Z_N)."""
        z4 = groups["z4"]
        want = ak.number_rep(z4, [0, 1, 3])._monomial
        got = ak.number_rep(z4, [0.0, 1.0, 3.0])._monomial
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        for bad in ([1 + 1j], [0, 0.5]):
            with pytest.raises(ak.ValidationError, match="number_rep weights: expected whole"):
                ak.number_rep(z4, bad)

    @pytest.mark.parametrize("w", [2**40 + 3, 2**50 + 1, 2**52 + 1, 2**53, -(2**53)])
    def test_large_whole_weights_give_the_rep_of_their_residue(self, groups, w):
        """Regression: exp(2 pi i g w / N) in floats lost the phase from about 2^40 up, and
        these weights raised a homomorphism error on Z16.  The exponents are whole numbers."""
        got = ak.number_rep(groups["z16"], [w, 1])._monomial
        want = ak.number_rep(groups["z16"], [w % 16, 1])._monomial
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    @pytest.mark.parametrize("name, weights, message", [
        ("klein", [1], "element 1: residual 2.000e+00 > 2.000e-09"),
        ("s3", [1, 2], "element 1: residual 2.449e+00 > 3.464e-09"),
        ("d4", [0, 3], "element 1: residual 2.000e+00 > 4.000e-09"),
        ("z2 x z3", [1], "element 1: residual 2.000e+00 > 2.449e-09"),
    ])
    def test_number_rep_on_a_non_cyclic_table_raises(self, groups, name, weights, message):
        """A table that is not Z_N in the order g -> g mod N fails the integer check on its
        generators, and the full validation names where the phases fail, as it always did."""
        group = ak.direct_product(groups["z2"], groups["z3"]) if name == "z2 x z3" else groups[name]
        with pytest.raises(ak.ValidationError) as err:
            ak.number_rep(group, weights)
        assert str(err.value) == f"homomorphism invariant violated at {message}"

    @given(st.integers(1, 720), st.lists(st.integers(-(2**53), 2**53), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_trusted_number_reps_pass_validation(self, n, weights):
        """number_rep builds its phases unchecked on Z_N; the float pass accepts them."""
        group = ak.make_cyclic(n)
        reps._validate_rep(group, ak.number_rep(group, weights)._monomial)

    def test_non_unitary_rejected(self, groups):
        mats = np.array([np.eye(2), 2.0 * np.eye(2)])
        with pytest.raises(ak.ValidationError):
            ak.UnitaryRep(groups["z2"], mats)

    def test_non_homomorphism_rejected(self, groups):
        # unitary per element but not a homomorphism for Z2: U(1)^2 != U(0)
        u = np.array([[0, 1j], [1j, 0]])
        with pytest.raises(ak.ValidationError):
            ak.UnitaryRep(groups["z2"], np.array([np.eye(2), u]))

    def test_identity_slot_enforced(self, groups):
        u = np.array([[0, 1], [1, 0]])
        with pytest.raises(ak.ValidationError):
            ak.UnitaryRep(groups["z2"], np.array([u, np.eye(2)]))

    @pytest.mark.parametrize("where", ["nan-stack", "inf-entry"])
    def test_non_finite_rejected(self, groups, where):
        group = groups["z4"]
        if where == "nan-stack":
            mats = np.full((4, 2, 2), np.nan)
        else:
            mats = ak.regular_rep(group).mats.copy()
            mats[2, 0, 1] = np.inf
        with pytest.raises(ak.ValidationError, match="non-finite"):
            ak.UnitaryRep(group, mats)


class TestDegeneracyPath:
    @pytest.mark.parametrize("name, twirls", [("z2", 0), ("s3", 1), ("s4", 3)])
    def test_failed_final_check_raises_after_one_pass(self, regular_reps, monkeypatch, name, twirls):
        """A residual over tolerance raises at once: the seed moves only the twirls, so
        decompose draws once per split isotype and never starts over."""
        monkeypatch.setattr(ak.IrrepDecomposition, "reconstruction_residual", lambda self: 1.0)
        draws = count_draws(monkeypatch)
        with pytest.raises(ak.NumericalDegeneracyError, match="residual"):
            ak.decompose(regular_reps[name], seed=0)
        assert len(draws) == twirls

    @pytest.mark.parametrize(
        "name, at, d_mu", [("s3", 1, 2), ("s4", 1, 2), ("s4", 2, 3), ("s4", 3, 3)]
    )
    def test_twirl_collision_raises_after_one_draw_each(
        self, regular_reps, monkeypatch, name, at, d_mu
    ):
        """A zero draw twirls to one eigenvalue, so its isotype's copies collide.  On
        regular S4, draw 1 splits the 2-dim irrep's isotype and draws 2 and 3 the 3-dim
        ones.  decompose raises at once, having drawn once per split isotype and no more."""
        splits = split_isotypes(ak.decompose(regular_reps[name], seed=0))
        draws = count_draws(monkeypatch, {at})
        collide = f"{d_mu}-dim irrep collide.*another seed"
        with pytest.raises(ak.NumericalDegeneracyError, match=collide):
            ak.decompose(regular_reps[name], seed=0)
        assert len(draws) == splits

    def test_twirl_gaps_clear_their_threshold(self, split_inputs, monkeypatch):
        """The twirl of z z^dag is I_{d_mu} (x) M with M a complex Wishart matrix, whose
        eigenvalues repel, so a collision cannot be forced by the choice of rep.  Over seeds
        0-29 on the split fixtures, the smallest gap below the top d_mu eigenvalues is at
        least 1e3 times the threshold decompose checks it against."""
        ratios, real_split = [], reps._split

        def split(q, sub, z, d_mu):
            a = sub @ z[:, None, :, None]  # [j, g, i, 0] = (sub(g) z)_i
            evals = np.linalg.eigvalsh((a @ reps._dagger(a)).mean(axis=1))
            threshold = reps._CLUSTER_GAP * np.maximum(1.0, evals[:, -1] - evals[:, 0])
            ratios.extend((evals[:, -d_mu] - evals[:, -d_mu - 1]) / threshold)
            return real_split(q, sub, z, d_mu)

        monkeypatch.setattr(reps, "_split", split)
        decs = [ak.decompose(r, seed=seed) for r in split_inputs.values() for seed in range(30)]
        twirls = sum(split_isotypes(dec) for dec in decs)
        assert len(ratios) == twirls > 500
        assert min(ratios) >= 1e3

    @staticmethod
    def perturbed_table(monkeypatch, group, row: int, g: int, by: float) -> None:
        """Replace the group's cached character table by a copy with chi_row(g) moved by ``by``."""
        chars = group._character_table().copy()
        chars[row, g] += by
        monkeypatch.setattr(group, "_characters", chars)

    def test_multiplicities_not_whole_raise(self, monkeypatch):
        """The permutation rep of S3 has character 1 on a transposition: moving the trivial
        row there by 0.3 moves the trivial multiplicity off 1 by 0.3/6."""
        s3 = ak.make_symmetric(3)
        r, t = perm_rep(s3), s3.class_representatives()[1]
        assert r.character()[t] == 1
        self.perturbed_table(monkeypatch, s3, 0, t, 0.3)
        draws = count_draws(monkeypatch)
        with pytest.raises(ak.NumericalDegeneracyError, match="multiplicities .* not whole"):
            ak.decompose(r, seed=0)
        assert draws == []

    def test_projector_eigenvalues_off_labels_raise(self, monkeypatch):
        """The regular character is 0 off e, so a degree-1 row moved at g != e keeps every
        multiplicity whole; the sign row (label 1) moved by 0.5 is no projector any more."""
        s3 = ak.make_symmetric(3)
        r = ak.regular_rep(s3)
        assert s3._character_table()[1, 0] == 1
        self.perturbed_table(monkeypatch, s3, 1, 1, 0.5)
        draws = count_draws(monkeypatch)
        with pytest.raises(ak.NumericalDegeneracyError, match="projector eigenvalues .* off labels"):
            ak.decompose(r, seed=0)
        assert draws == []


def same_bits(a, b) -> bool:
    """Whether two decompositions have the same basis, block matrices and characters."""
    return np.array_equal(a.basis, b.basis) and all(
        np.array_equal(x.mats, y.mats) and np.array_equal(x.character, y.character)
        for x, y in zip(a.blocks, b.blocks, strict=True)
    )


class TestDecomposeCompositeReps:
    """Multiplicities of built-up representations against a character oracle."""

    @staticmethod
    def multiplicity_oracle(rep, dec_regular):
        # n_mu = avg_g chi_rep(g) conj(chi_mu(g)), independent of decompose(rep)
        chi = rep.character()
        out = []
        for blk in dec_regular.blocks:
            n = np.mean(chi * np.einsum("gii->g", blk.mats).conj())
            assert abs(n.imag) < 1e-9
            assert abs(n.real - round(n.real)) < 1e-9
            out.append((blk.dim, int(round(n.real))))
        return sorted((d, n) for d, n in out if n > 0)

    def test_tensor_square_of_two_dim_block(self, decompositions):
        dec_reg = decompositions["s3"]
        blk = next(b for b in dec_reg.blocks if b.dim == 2)
        sub = ak.UnitaryRep(dec_reg.rep.group, blk.mats)
        squared = ak.tensor_rep(sub, sub)
        got = sorted(ak.decompose(squared, seed=0).multiset())
        assert got == self.multiplicity_oracle(squared, dec_reg)

    def test_mixed_sums_and_tensors(self, groups, decompositions):
        g = groups["d4"]
        dec_reg = decompositions["d4"]
        r = ak.regular_rep(g)
        triv = ak.trivial_rep(g)
        composites = [
            ak.direct_sum_rep(triv, triv),
            ak.direct_sum_rep(ak.tensor_rep(triv, triv), triv),
        ]
        two_dim = next(b for b in dec_reg.blocks if b.dim == 2)
        sub = ak.UnitaryRep(g, two_dim.mats)
        composites.append(ak.tensor_rep(sub, sub))
        composites.append(ak.direct_sum_rep(sub, ak.direct_sum_rep(sub, triv)))
        for rep in composites:
            got = sorted(ak.decompose(rep, seed=1).multiset())
            assert got == self.multiplicity_oracle(rep, dec_reg)

    def test_scrambled_basis_recovered(self, regular_reps, rng):
        # conjugating by a fixed unitary must not change the block content
        from asymkit.linalg import haar_unitary

        r = regular_reps["s3"]
        u = haar_unitary(6, rng)
        scrambled = ak.UnitaryRep(r.group, u @ r.mats @ u.conj().T)
        dec = ak.decompose(scrambled, seed=0)
        assert sorted(dec.multiset()) == [(1, 1), (1, 1), (2, 2)]
        assert dec.reconstruction_residual() <= 1e-8


class TestAlign:
    """The sector alignment against ``fidelity`` as an independent reference.

    S3reg (x) S3reg has 1 x 6 sectors, so there the cross matrices B^dag A are
    6 x 6 of rank one and most of each multiplicity unitary is the SVD's
    completion.
    """

    @staticmethod
    def pairs(decompositions, s3_square_dec, rng):
        for dec in [*decompositions.values(), s3_square_dec]:
            for _ in range(3):
                a = ak.random_pure_state(dec.rep.dim, rng).vec
                b = ak.random_pure_state(dec.rep.dim, rng).vec
                yield dec, a, b

    def test_shares_are_sector_fidelities(self, decompositions, s3_square_dec, rng):
        for dec, a, b in self.pairs(decompositions, s3_square_dec, rng):
            _, shares = dec.align(a, b)
            assert len(shares) == len(dec.blocks)
            for x, y, share in zip(dec.vector_sectors(a), dec.vector_sectors(b), shares):
                want = ak.fidelity(x @ x.conj().T, y @ y.conj().T)
                assert abs(share - want) <= 1e-10

    def test_witness_invariant_and_achieves_shares(self, decompositions, s3_square_dec, rng):
        for dec, a, b in self.pairs(decompositions, s3_square_dec, rng):
            v, shares = dec.align(a, b)
            assert frob(v @ v.conj().T - np.eye(dec.rep.dim)) < 1e-10
            assert frob(v @ dec.rep.mats - dec.rep.mats @ v) < 1e-10
            overlap = np.vdot(b, v @ a)
            assert abs(overlap.imag) <= 1e-10
            assert abs(overlap.real - sum(shares)) <= 1e-10


class TestBatchedMatchesPerElementLoops:
    """The batched group sums and checks against explicit per-element Python sums.

    The rep is S3reg (x) S3reg (d = 36), which is not regular and carries
    multiplicity.  Only the summation order differs from the loops, so every
    comparison uses a 1e-12 relative tolerance set from complex128.
    """

    @staticmethod
    def close(got, want):
        return frob(got - want) <= 1e-12 * max(1.0, frob(want))

    def test_rep_has_multiplicity(self, s3_square_dec):
        assert sorted(s3_square_dec.multiset()) == [(1, 6), (1, 6), (2, 12)]

    def test_frob_each(self, s3_square):
        from asymkit.reps import _frob_each

        stack = s3_square.mats.transpose(0, 2, 1)[:, :30, :] - np.eye(30, 36)  # not contiguous
        want = np.array([frob(m) for m in stack])
        assert np.allclose(_frob_each(stack), want, rtol=1e-12, atol=0)

    def test_twirl_operator(self, s3_square, rng):
        x = rng.normal(size=(36, 36)) + 1j * rng.normal(size=(36, 36))  # not Hermitian
        want = sum(u @ x @ u.conj().T for u in s3_square.mats) / s3_square.group.order
        assert self.close(ak.twirl_operator(s3_square, x), want)

    def test_block_matrix_is_kron_per_block(self, s3_square_dec):
        """The oracle's indexed kron, for one element and for a stack, against np.kron."""
        dec = s3_square_dec
        stack = block_matrix(dec, slice(None))
        for g in range(dec.rep.group.order):
            want = np.zeros((dec.rep.dim, dec.rep.dim), dtype=complex)
            for i, blk in enumerate(dec.blocks):
                sl = dec.sector_slice(i)
                want[sl, sl] = np.kron(blk.mats[g], np.eye(blk.mult))
            assert np.array_equal(block_matrix(dec, g), want)
            assert np.array_equal(stack[g], want)

    def test_reconstruction_residual(self, s3_square_dec, rng):
        """On a unitary basis the bound is the dense residual up to rounding: the true
        decomposition, and one with a scrambled basis whose residual is O(1)."""
        dec = s3_square_dec
        scrambled = ak.IrrepDecomposition(dec.rep, haar_unitary(36, rng) @ dec.basis, dec.blocks)
        for d in (dec, scrambled):
            want = dense_reconstruction_residual(d)
            assert want <= d.reconstruction_residual() <= want + 1e-12 * max(1.0, want)
        assert scrambled.reconstruction_residual() > 1e-2

    def test_twirl_channel_same_kraus_list(self, regular_reps, rng):
        r = regular_reps["s3"]
        c = ak.random_channel(6, 3, rng)
        n = r.group.order
        want = [u.conj().T @ k @ u / np.sqrt(n) for u in r.mats for k in c.kraus]
        got = ak.twirl_channel(c, r).kraus
        assert got.shape == (len(want), 6, 6)
        for a, b in zip(got, want):
            assert self.close(a, b)

    def test_apply_to_density(self, rng):
        c = ak.random_channel(5, 4, rng)
        rho = ak.random_mixed_state(5, rng).rho
        want = sum(k @ rho @ k.conj().T for k in c.kraus)
        assert self.close(c.apply_to_density(rho), want)


class TestDecomposeOrder60:
    """Regular rep of D30 (|G| = 60), past the size where the per-element loops dominated."""

    def test_regular_d30(self):
        g = ak.make_dihedral(30)
        dec = ak.decompose(ak.regular_rep(g), seed=0)
        assert all(blk.mult == blk.dim for blk in dec.blocks)
        assert sum(blk.dim**2 for blk in dec.blocks) == 60
        assert len(dec.blocks) == len(g.conjugacy_classes())
        assert dec.reconstruction_residual() <= 1e-8


def random_direct_sum(group, rng):
    """A direct sum of 2-4 summands drawn from the regular and trivial reps and a
    number rep (abelian group) or the permutation rep (symmetric group)."""
    pool = [ak.regular_rep(group), ak.trivial_rep(group)]
    if group.is_abelian:
        pool += [ak.number_rep(group, rng.integers(0, group.order, size=3))]
    else:
        pool += [perm_rep(group)]
    out = pool[rng.integers(len(pool))]
    for _ in range(rng.integers(1, 4)):
        out = ak.direct_sum_rep(out, pool[rng.integers(len(pool))])
    return out


class TestAgainstCharacterTable:
    """decompose's block characters are table rows, its multiplicities <chi_mu, chi_r>."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_direct_sums(self, seed):
        rng = np.random.default_rng(seed)
        for group in (ak.make_symmetric(3), ak.make_symmetric(4), ak.make_cyclic(6)):
            assert_matches_character_table(ak.decompose(random_direct_sum(group, rng), seed=seed))

    def test_tensor_products(self, s3_square_dec, decompositions):
        assert_matches_character_table(s3_square_dec)
        perm = perm_rep(ak.make_symmetric(4))
        assert_matches_character_table(ak.decompose(ak.tensor_rep(perm, perm), seed=1))
        d4 = decompositions["d4"]
        two = ak.UnitaryRep(d4.rep.group, next(b.mats for b in d4.blocks if b.dim == 2))
        cube = ak.tensor_rep(two, ak.tensor_rep(two, two))
        assert_matches_character_table(ak.decompose(cube, seed=2))

    def test_dense_haar_conjugated(self):
        s4 = ak.make_symmetric(4)
        r = ak.direct_sum_rep(perm_rep(s4), ak.regular_rep(s4))
        u = haar_unitary(r.dim, np.random.default_rng(11))
        dense = ak.UnitaryRep(s4, u @ r.mats @ u.conj().T)
        assert dense._monomial is None
        dec = ak.decompose(dense, seed=0)
        assert_matches_character_table(dec)
        assert dec.multiset() == ak.decompose(r, seed=0).multiset()


@pytest.mark.parametrize(
    "make, n", [(ak.make_dihedral, 100), (ak.make_cyclic, 120), (ak.make_symmetric, 5)],
    ids=["D100", "Z120", "S5"],
)
def test_regular_ladder_against_table(make, n):
    """Regular reps of order 200 and 120: every irrep d_mu times, in table order."""
    dec = ak.decompose(ak.regular_rep(make(n)), seed=0)
    assert_matches_character_table(dec)
    assert dec.multiset() == [(d, d) for d in dec.rep.group._character_table()[:, 0].real]


def _residual_inputs():
    """Regular reps, and reps holding several copies of a 2-dim irrep in a sector."""
    s3, d16 = ak.make_symmetric(3), ak.regular_rep(ak.make_dihedral(8))
    s3_twice = ak.direct_sum_rep(ak.regular_rep(s3), ak.regular_rep(s3))
    return {
        "z16": lambda: ak.regular_rep(ak.make_cyclic(16)),
        "z32": lambda: ak.regular_rep(ak.make_cyclic(32)),
        "d20": lambda: ak.regular_rep(ak.make_dihedral(10)),
        "s3reg x s3reg": lambda: ak.tensor_rep(ak.regular_rep(s3), ak.regular_rep(s3)),
        "d16reg + d16reg": lambda: ak.direct_sum_rep(d16, d16),
        "dense s3reg + s3reg": lambda: ak.UnitaryRep(
            s3, conjugated(s3_twice, np.random.default_rng(3))
        ),
    }


RESIDUAL_INPUTS = _residual_inputs()


@pytest.mark.parametrize("name", list(RESIDUAL_INPUTS))
@pytest.mark.parametrize("seed", range(6))
def test_regular_residual_at_every_seed(name, seed, monkeypatch):
    """Regression: regular Z16 at seed 3 once gave 4.6e-11 against <= 2e-13 at other
    seeds.  Every input decomposes in table order, each twirl on its first draw."""
    draws = count_draws(monkeypatch)
    dec = ak.decompose(RESIDUAL_INPUTS[name](), seed=seed)
    assert dec.reconstruction_residual() <= 1e-12
    assert len(draws) == split_isotypes(dec)
    assert_matches_character_table(dec)


class TestDecomposeOrder120:
    """Regular rep of S5 (|G| = 120), validated and twirled by index gathers."""

    def test_regular_s5(self):
        dec = ak.decompose(ak.regular_rep(ak.make_symmetric(5)), seed=0)
        assert sorted(blk.dim for blk in dec.blocks) == [1, 1, 4, 4, 5, 5, 6]
        assert all(blk.mult == blk.dim for blk in dec.blocks)
        assert sum(blk.dim**2 for blk in dec.blocks) == 120
        assert dec.reconstruction_residual() <= 1e-8


MONOMIAL_REPS = [
    *(f"{name} regular" for name in ("z2", "z3", "z4", "z6", "z16", "klein", "s3", "s4", "d3", "d4")),
    "z16 number",
    "s3reg x s3reg",
    "s4 perm x s4 perm",
    "z16 number x3",
    "d4 regular, diagonal-conjugated",
]


@pytest.fixture(scope="module")
def monomial_reps(regular_reps, z16_number_rep, s3_square, z16_number_x3_dec):
    perm = perm_rep(ak.make_symmetric(4))
    out = {f"{name} regular": r for name, r in regular_reps.items()}
    out["z16 number"] = z16_number_rep
    out["s3reg x s3reg"] = s3_square
    out["s4 perm x s4 perm"] = ak.tensor_rep(perm, perm)
    out["z16 number x3"] = z16_number_x3_dec.rep
    # D U(g) D^dag for a random diagonal unitary D: phase d_i conj(d_src(i)) moves with src
    d = np.exp(2j * np.pi * np.random.default_rng(5).uniform(size=8))
    d4 = regular_reps["d4"]
    out["d4 regular, diagonal-conjugated"] = ak.UnitaryRep(
        d4.group, d[:, None] * d4.mats * d.conj()
    )
    return out


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", MONOMIAL_REPS)
def test_sector_projectors_match_character_sums(monomial_reps, name, seed):
    """An oracle sharing no code or randomness with decompose (Serre, 2.6, Thm. 8): each
    sector's projector W_mu^dag W_mu is (d_mu/|G|) sum_g conj chi_mu(g) U(g), with chi_mu
    the trace of the block's own matrices, summed element by element."""
    r = monomial_reps[name]
    dec = ak.decompose(r, seed=seed)
    for i, blk in enumerate(dec.blocks):
        w = dec.basis[dec.sector_slice(i)]
        chi = [np.trace(m) for m in blk.mats]
        want = sum(np.conj(c) * u for c, u in zip(chi, r.mats)) * blk.dim / r.group.order
        assert np.abs(w.conj().T @ w - want).max() <= 1e-10


def malformed_monomial(kind):
    """A monomial stack that is not a unitary rep, and the check it must fail."""
    s3, z4 = ak.make_symmetric(3), ak.make_cyclic(4)
    if kind == "identity-slot":
        mats = ak.regular_rep(s3).mats.copy()
        mats[0] = mats[1]
        return s3, mats, "must be the identity"
    if kind == "phase-modulus":
        mats = ak.number_rep(z4, [0, 1, 3]).mats.copy()
        mats[1, 0, 0] *= 1 + 1e-6
        return z4, mats, "unitarity"
    if kind == "swapped":
        mats = ak.regular_rep(s3).mats.copy()
        mats[[1, 2]] = mats[[2, 1]]
        return s3, mats, "homomorphism"
    # weight 0.5 on Z4: U(3) U(1) = -1, not U(0) = 1
    phases = np.exp(2j * np.pi * np.outer(np.arange(4), [0.0, 0.5]) / 4)
    return z4, phases[:, :, None] * np.eye(2), "homomorphism"


def residual_rows(group, mats, form):
    """The library's unitarity and homomorphism rows, given a monomial form or block slices
    (read as the stacks of mats' blocks at the slices)."""
    if not isinstance(form, tuple):
        form = slice_stacks(mats, form)
    rows = list(reps._homomorphism_residuals(group.mul, form))
    return reps._unitarity_residuals(group.order, form), np.array(rows)


class TestMonomialPath:
    """The index-and-phase path for monomial reps against dense products."""

    @pytest.mark.parametrize("conjugate", [False, True], ids=["monomial", "haar-conjugated"])
    @pytest.mark.parametrize("name", MONOMIAL_REPS)
    def test_residuals_match_dense_reference(self, monomial_reps, name, conjugate, rng):
        r = monomial_reps[name]
        mats = r.mats
        if conjugate:
            v = haar_unitary(r.dim, rng)
            mats = v @ mats @ v.conj().T
        form = reps._sparsity_form(mats)
        assert isinstance(form, list) == conjugate
        _, unitarity, homomorphism = dense_rep_residuals(r.group.mul, mats)
        got_unitarity, got_homomorphism = residual_rows(r.group, mats, form)
        tol = 1e-14 * max(1.0, frob(mats))
        assert np.max(np.abs(got_unitarity - unitarity)) <= tol
        assert np.max(np.abs(got_homomorphism - homomorphism)) <= tol

    @pytest.mark.parametrize("kind", ["identity-slot", "phase-modulus", "swapped", "half-weight"])
    def test_malformed_rejected_alike(self, kind):
        group, mats, fragment = malformed_monomial(kind)
        form = reps._sparsity_form(mats)
        assert isinstance(form, tuple)
        with pytest.raises(ak.ValidationError, match=fragment) as monomial:
            ak.UnitaryRep(group, mats)
        with pytest.raises(ak.ValidationError) as dense:  # one block: the dense case
            reps._validate_rep(group, slice_stacks(mats, [slice(0, mats.shape[1])]))
        assert str(monomial.value) == str(dense.value)
        _, unitarity, homomorphism = dense_rep_residuals(group.mul, mats)
        got_unitarity, got_homomorphism = residual_rows(group, mats, form)
        tol = 1e-14 * max(1.0, frob(mats))
        assert np.max(np.abs(got_unitarity - unitarity)) <= tol
        assert np.max(np.abs(got_homomorphism - homomorphism)) <= tol
        assert got_homomorphism.max() >= 1.0 or kind == "phase-modulus"

    @pytest.mark.parametrize("rows_per_chunk", [1, 2, 5, None])
    def test_corrupted_element_named(self, monkeypatch, rows_per_chunk):
        # S4 regular with one sign flipped in U(7): still monomial and unitary,
        # but U(a) U(7) != U(a 7) from row a = 1 on, wherever the chunks start.
        s4 = ak.make_symmetric(4)
        mats = ak.regular_rep(s4).mats.copy()
        mats[7] *= -1
        assert isinstance(reps._sparsity_form(mats), tuple)
        if rows_per_chunk is not None:
            monkeypatch.setattr(reps, "_STACK_BYTES", rows_per_chunk * 24 * 24 * 16)
            assert len(reps._chunk_slices(24, 24 * 24 * 16)) == -(-24 // rows_per_chunk)
        _, _, homomorphism = dense_rep_residuals(s4.mul, mats)
        _, got = residual_rows(s4, mats, reps._sparsity_form(mats))
        assert np.max(np.abs(got - homomorphism)) <= 1e-12
        first = int(np.flatnonzero(homomorphism.max(axis=1) > scaled_tol(mats))[0])
        assert first == 1
        with pytest.raises(ak.ValidationError, match=f"at element {first}: residual "):
            ak.UnitaryRep(s4, mats)

    @pytest.mark.parametrize("name", MONOMIAL_REPS)
    def test_twirl_matches_dense_sum(self, monomial_reps, name, rng):
        r = monomial_reps[name]
        assert r._monomial is not None
        x = random_complex((r.dim, r.dim), rng)  # not Hermitian
        want = (r.mats @ x @ r.mats.conj().transpose(0, 2, 1)).sum(axis=0) / r.group.order
        assert frob(ak.twirl_operator(r, x) - want) <= 1e-13 * max(1.0, frob(want))

    def test_sources_and_phases(self, regular_reps, z16_number_rep):
        src, phase = z16_number_rep._monomial
        assert np.array_equal(src, np.tile(np.arange(16), (16, 1)))
        assert np.array_equal(phase, np.einsum("gii->gi", z16_number_rep.mats))
        r = regular_reps["s3"]
        src, phase = r._monomial
        for g in range(r.group.order):  # U(g) e_h = e_gh: row gh reads column h
            assert np.array_equal(src[g, r.group.mul[g]], np.arange(6))
        assert np.all(phase == 1)

    def test_zero_dimensional_rep_takes_dense_path(self, groups):
        r = ak.UnitaryRep(groups["z4"], np.zeros((4, 0, 0)))
        assert r._monomial is None
        assert ak.twirl_operator(r, np.zeros((0, 0))).shape == (0, 0)

    def test_gns_rep_is_dense(self, regular_reps, rng):
        res = ak.gns_construct(ak.charfunc(ak.random_pure_state(6, rng), regular_reps["s3"]))
        assert res.dim > 1
        assert res.rep._monomial is None

    @pytest.mark.parametrize(
        "m",
        [[[1, 0], [1, 0]], [[0, 0, 0], [0, 1, 1], [0, 0, 1]], [[1, 1e-300], [0, 1]]],
        ids=["two-in-one-column", "empty-row", "tiny-off-diagonal"],
    )
    def test_detection_rejects(self, m):
        form = reps._sparsity_form(np.array([np.eye(len(m)), m], dtype=complex))
        assert not isinstance(form, tuple)


def conjugated(r, rng):
    """V U(g) V^dag for a Haar-random V: dense, with no exact zeros."""
    v = haar_unitary(r.dim, rng)
    return v @ r.mats @ v.conj().T


@pytest.fixture(scope="module")
def block_reps(groups, regular_reps):
    """Non-monomial reps, each as (group, mats), and the blocks it must split into."""
    rng = np.random.default_rng(11)
    out = {}
    for name, group in (
        ("s3", groups["s3"]),
        ("s4", groups["s4"]),
        ("d4", groups["d4"]),
        ("d6", ak.make_dihedral(6)),
    ):
        f = ak.charfunc(ak.random_pure_state(group.order, rng), ak.regular_rep(group))
        mats = ak.gns_construct(f).rep.mats
        out[f"{name} gns"] = (group, mats, None)
    s3 = groups["s3"]
    big = ak.UnitaryRep(s3, conjugated(regular_reps["s3"], rng))
    small = ak.UnitaryRep(s3, conjugated(perm_rep(s3), rng))
    out["s3 dense 6 + dense 3"] = (s3, ak.direct_sum_rep(big, small).mats, [(0, 6), (6, 9)])
    out["s3 dense"] = (s3, big.mats, [(0, 6)])
    return out


BLOCK_REPS = ["s3 gns", "s4 gns", "d4 gns", "d6 gns", "s3 dense 6 + dense 3", "s3 dense"]


class TestBlockPath:
    """Block-by-block validation of non-monomial reps against dense products."""

    def assert_rows_match_dense(self, group, mats, form):
        _, unitarity, homomorphism = dense_rep_residuals(group.mul, mats)
        got_unitarity, got_homomorphism = residual_rows(group, mats, form)
        assert np.max(np.abs(got_unitarity - unitarity)) <= 1e-12
        assert np.max(np.abs(got_homomorphism - homomorphism)) <= 1e-12

    @pytest.mark.parametrize("name", BLOCK_REPS)
    def test_residuals_match_dense_reference(self, block_reps, name):
        group, mats, blocks = block_reps[name]
        form = reps._sparsity_form(mats)
        assert isinstance(form, list)
        spans = [(sl.start, sl.stop) for sl in form]
        if blocks is None:  # a GNS rep: one block per Gram eigenvalue cluster
            assert len(spans) > 1
        else:
            assert spans == blocks
        self.assert_rows_match_dense(group, mats, form)

    def test_mixed_state_function_on_z6(self, regular_reps, rng):
        # abelian, so the GNS rep is diagonal and takes the monomial path;
        # its 1x1 blocks through the block path give the same rows
        r = regular_reps["z6"]
        mats = ak.gns_construct(ak.charfunc(ak.random_mixed_state(6, rng), r)).rep.mats
        assert isinstance(reps._sparsity_form(mats), tuple)
        assert np.count_nonzero(mats - np.einsum("gii->gi", mats)[:, :, None] * np.eye(6)) == 0
        self.assert_rows_match_dense(r.group, mats, [slice(i, i + 1) for i in range(6)])

    @pytest.mark.parametrize("stack_bytes", [1, 3000, None])
    def test_chunked_stacks(self, monkeypatch, block_reps, stack_bytes):
        if stack_bytes is not None:
            monkeypatch.setattr(reps, "_STACK_BYTES", stack_bytes)
        for name in ("s4 gns", "s3 dense 6 + dense 3"):
            group, mats, _ = block_reps[name]
            self.assert_rows_match_dense(group, mats, reps._sparsity_form(mats))

    def test_corrupted_block_named(self, block_reps):
        # flip the sign of the last block of U(7): still unitary, and the first
        # failing row is the dense oracle's, with the one-block (dense) message
        group, mats, _ = block_reps["s4 gns"]
        mats = mats.copy()
        last = reps._sparsity_form(mats)[-1]
        mats[7, last, last] *= -1
        _, _, homomorphism = dense_rep_residuals(group.mul, mats)
        tol = scaled_tol(mats)
        first = int(np.flatnonzero(homomorphism.max(axis=1) > tol)[0])
        with pytest.raises(ak.ValidationError, match=f"at element {first}: residual ") as blocks:
            ak.UnitaryRep(group, mats)
        with pytest.raises(ak.ValidationError) as dense:
            reps._validate_rep(group, slice_stacks(mats, [slice(0, mats.shape[1])]))
        assert str(blocks.value) == str(dense.value)

    @pytest.mark.parametrize("at", [(0, 8), (8, 0)], ids=["upper", "lower"])
    def test_tiny_entry_joins_blocks(self, block_reps, at):
        group, mats, _ = block_reps["s3 dense 6 + dense 3"]
        mats = mats.copy()
        mats[(1, *at)] = 1e-300
        form = reps._sparsity_form(mats)
        assert form == [slice(0, 9)]
        ak.UnitaryRep(group, mats)
        self.assert_rows_match_dense(group, mats, form)

    def test_interleaved_blocks_are_one(self, block_reps):
        group, mats, _ = block_reps["s3 dense 6 + dense 3"]
        order = [0, 6, 1, 7, 2, 8, 3, 4, 5]
        mats = mats[:, order][:, :, order]
        form = reps._sparsity_form(mats)
        assert form == [slice(0, 9)]
        ak.UnitaryRep(group, mats)
        self.assert_rows_match_dense(group, mats, form)

    @pytest.mark.parametrize("trusted", [False, True], ids=["validated", "trusted"])
    def test_split_block_is_cut(self, block_reps, monkeypatch, trusted, rng):
        """One block that splits 6 + 3, through _block_rep or _cut and the trusted constructor, is
        cut once into stacks of sizes 3 and 6 at its dense stack's slices, and _block_rep checks
        the cut stacks; its JSON is the two blocks, which read back to the same stacks."""
        group, mats, blocks = block_reps["s3 dense 6 + dense 3"]
        one, checks, real = [(np.arange(9)[None], mats[None])], [], reps._validate_rep
        monkeypatch.setattr(reps, "_validate_rep", lambda *args: checks.append(args) or real(*args))
        r = reps.UnitaryRep(group, None, reps._cut(one)) if trusted else reps._block_rep(group, one)
        monkeypatch.undo()
        assert r._monomial is None and r._mats is None
        assert [c.shape for c, _ in r._stacks] == [(1, 3), (1, 6)]
        assert [args[1] is r._stacks for args in checks] == ([] if trusted else [True])
        obj = json.loads(json.dumps(jsonio.rep_to_json(r)))
        assert [blk["start"] for blk in obj["blocks"]] == [0, 6]
        back = jsonio.rep_from_json(obj)
        assert stack_spans(back) == stack_spans(r)
        assert [m.tobytes() for _, m in back._stacks] == [m.tobytes() for _, m in r._stacks]
        states = [ak.random_pure_state(9, rng), ak.random_mixed_state(9, rng, rank=2)]
        chis = [ak.charfunc(s, r).values for s in states]
        assert r._mats is None
        for s, chi in zip(states, chis):
            assert np.abs(chi - dense_charfunc(s, r)).max() <= 1e-12
        assert r.mats.tobytes() == mats.tobytes()
        assert stack_spans(r) == [(b.start, b.stop) for b in reps._sparsity_form(r.mats)] == blocks

    def test_zero_dimensional_rep(self, groups):
        mats = np.zeros((4, 0, 0), dtype=complex)
        assert reps._sparsity_form(mats) == []
        unitarity, homomorphism = residual_rows(groups["z4"], mats, [])
        assert unitarity.shape == (4,) and homomorphism.shape == (4, 4)
        assert not unitarity.any() and not homomorphism.any()
        ak.UnitaryRep(groups["z4"], mats)


def _split_inputs():
    """Reps whose decompositions batch several isotypes of one shape, beside the
    monomial fixtures: dense ones, a direct sum and the regular D30 (shape (2, 2) x 14)."""
    s3, s4 = ak.make_symmetric(3), ak.make_symmetric(4)
    sums = ak.direct_sum_rep(perm_rep(s4), ak.regular_rep(s4))
    return {
        "dense s3reg + s3reg": RESIDUAL_INPUTS["dense s3reg + s3reg"],
        "dense s4 perm + s4 regular": lambda: ak.UnitaryRep(
            s4, conjugated(sums, np.random.default_rng(11))
        ),
        "d16reg + d16reg": RESIDUAL_INPUTS["d16reg + d16reg"],
        "s3reg + s3 trivial + s3reg": lambda: ak.direct_sum_rep(
            ak.direct_sum_rep(ak.regular_rep(s3), ak.trivial_rep(s3)), ak.regular_rep(s3)
        ),
        "d30 regular": lambda: ak.regular_rep(ak.make_dihedral(15)),
    }


SPLIT_INPUTS = _split_inputs()


@pytest.fixture(scope="module")
def split_inputs(monomial_reps):
    return {**monomial_reps, **{name: make() for name, make in SPLIT_INPUTS.items()}}


class TestBatchedSplit:
    """Isotypes split per shape (d_mu, n_mu) against the per-isotype loop they replaced
    (:func:`helpers.per_isotype_decompose`), and the residual bound against the dense
    residual it bounds (:func:`helpers.dense_reconstruction_residual`)."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", [*MONOMIAL_REPS, *SPLIT_INPUTS])
    def test_bits_match_per_isotype_split(self, split_inputs, monkeypatch, name, seed):
        r = split_inputs[name]
        draws = count_draws(monkeypatch)
        dec = ak.decompose(r, seed=seed)
        assert len(draws) == split_isotypes(dec)  # no redraw
        assert same_bits(dec, per_isotype_decompose(r, seed=seed))

    @pytest.mark.parametrize("name", ["s4 regular", "s3reg x s3reg", "dense s4 perm + s4 regular"])
    def test_bits_match_in_chunks_of_one_element(self, split_inputs, monkeypatch, name):
        r = split_inputs[name]
        want = per_isotype_decompose(r, seed=4)
        monkeypatch.setattr(reps, "_STACK_BYTES", 1)
        assert same_bits(ak.decompose(r, seed=4), want)

    @pytest.mark.parametrize("scale", [1.0, 1 + 1e-7], ids=["basis", "scaled basis"])
    @pytest.mark.parametrize("name", [*MONOMIAL_REPS, *SPLIT_INPUTS])
    def test_residual_bounds_dense_oracle(self, split_inputs, name, scale):
        """Never below the dense residual.  Scaling W by 1 + 1e-7 makes the dense residual
        about 2e-7 sqrt(d), while ||W U - B W|| stays at rounding: the e term carries it."""
        dec = ak.decompose(split_inputs[name], seed=1)
        dec = ak.IrrepDecomposition(dec.rep, scale * dec.basis, dec.blocks)
        want = dense_reconstruction_residual(dec)
        assert want <= dec.reconstruction_residual() <= 2 * want + 1e-12
        if scale != 1.0:
            assert want > 1e-7

    def test_residual_bounds_dense_oracle_on_shared_fixtures(
        self, decompositions, s3_square_dec, z16_number_x3_dec, shuffled
    ):
        for dec in [*decompositions.values(), s3_square_dec, z16_number_x3_dec, shuffled]:
            want = dense_reconstruction_residual(dec)
            assert want <= dec.reconstruction_residual() <= 2 * want + 1e-12

    def test_residual_in_chunks_of_one_element(self, split_inputs, monkeypatch):
        for name in ("s4 regular", "dense s4 perm + s4 regular"):
            dec = ak.decompose(split_inputs[name], seed=0)
            whole = dec.reconstruction_residual()
            monkeypatch.setattr(reps, "_STACK_BYTES", 1)
            assert abs(dec.reconstruction_residual() - whole) <= 1e-15
            monkeypatch.undo()

    def test_monomial_character_is_the_trace(self, monomial_reps):
        for r in monomial_reps.values():
            assert r._monomial is not None
            assert np.abs(r.character() - np.einsum("gii->g", r.mats)).max() <= 1e-13


def zero_one_reps():
    """Reps whose every entry is exactly 0 or 1, as (group, mats)."""
    s3, s4, z6 = ak.make_symmetric(3), ak.make_symmetric(4), ak.make_cyclic(6)
    perm = perm_rep(s4)
    out = {f"{name} regular": (g, ak.regular_rep(g).mats) for name, g in
           [("z6", z6), ("s3", s3), ("s4", s4), ("d5", ak.make_dihedral(5))]}
    out["s4 perm"] = (s4, perm.mats)
    out["s4 perm x s4 perm"] = (s4, ak.tensor_rep(perm, perm).mats)
    out["s3reg + s3 trivial"] = (s3, ak.direct_sum_rep(ak.regular_rep(s3), ak.trivial_rep(s3)).mats)
    p = np.eye(6)[[3, 0, 5, 1, 4, 2]]  # a valid rep, relabelled
    out["z6 regular, relabelled"] = (z6, p @ ak.regular_rep(z6).mats @ p.T)
    return out


ZERO_ONE = zero_one_reps()
CORRUPTIONS = [
    *((name, kind) for name in ZERO_ONE for kind in ("src", "phase")),
    *((name, "table") for name in ZERO_ONE if name.endswith(" regular")),
]


def corrupted(name, kind, rng):
    """One corruption of a 0/1 rep: the regular rep of a table with two entries of one row
    swapped, two entries of one src row swapped, or one phase set to -1."""
    group, mats = ZERO_ONE[name]
    mats = mats.copy()
    d, n = mats.shape[1], group.order
    g = int(rng.integers(n))
    if kind == "table":
        mul = group.mul.copy()
        b, c = rng.choice(n, size=2, replace=False)
        mul[g, [b, c]] = mul[g, [c, b]]
        mats = np.zeros((n, n, n), dtype=complex)
        mats[np.arange(n)[:, None], mul, np.arange(n)] = 1.0
    elif kind == "src":
        i, j = rng.choice(d, size=2, replace=False)
        mats[g, [i, j]] = mats[g, [j, i]]
    else:
        i = int(rng.integers(d))
        mats[g, i] *= -1
    return group, mats


def validation_outcome(group, mats, form):
    """None if _validate_rep accepts mats given its monomial form or block slices (read as the
    stacks of mats' blocks at the slices), else the message it raises."""
    try:
        reps._validate_rep(group, form if isinstance(form, tuple) else slice_stacks(mats, form))
    except ak.ValidationError as exc:
        return str(exc)
    return None


class TestExactRoute:
    """0/1 reps are checked in integers on the greedy generators; the float pass on the
    dense stack is the oracle, and must agree on the verdict and the message."""

    @pytest.fixture()
    def float_passes(self, monkeypatch):
        calls, real = [], reps._homomorphism_residuals

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(reps, "_homomorphism_residuals", counted)
        return calls

    @pytest.mark.parametrize("name", list(ZERO_ONE))
    def test_valid_reps_pass_without_float_pass(self, float_passes, name):
        group, mats = ZERO_ONE[name]
        form = reps._sparsity_form(mats)
        assert isinstance(form, tuple) and (form[1] == 1).all()
        ak.UnitaryRep(group, mats)
        assert float_passes == []
        assert validation_outcome(group, mats, [slice(0, mats.shape[1])]) is None

    def test_every_generator_is_checked(self, float_passes):
        """On the Klein group (greedy generators 1 and 2) a stack with U(a 1) = U(a) U(1) for
        every a, but with U(2) a 3-cycle, fails only on the second generator."""
        klein = ak.direct_product(ak.make_cyclic(2), ak.make_cyclic(2))
        assert klein._generators == (1, 2)
        x, y = np.eye(3)[[1, 0, 2]], np.eye(3)[[1, 2, 0]]
        mats = np.array([np.eye(3), x, y, y @ x], dtype=complex)
        assert all(np.array_equal(mats[klein.mul[a, 1]], mats[a] @ x) for a in range(4))
        got = validation_outcome(klein, mats, reps._sparsity_form(mats))
        assert got is not None and float_passes == [1]
        assert got == validation_outcome(klein, mats, [slice(0, 3)])

    @pytest.mark.parametrize("name, kind", CORRUPTIONS)
    def test_corruptions_rejected_alike(self, float_passes, name, kind):
        rng = np.random.default_rng(len(name))
        for _ in range(8):
            group, mats = corrupted(name, kind, rng)
            form = reps._sparsity_form(mats)
            assert isinstance(form, tuple)
            assert (form[1] == 1).all() == (kind != "phase")
            float_passes.clear()
            got = validation_outcome(group, mats, form)
            assert float_passes == ([] if got is None or "identity" in got else [1])
            assert got == validation_outcome(group, mats, [slice(0, mats.shape[1])])
            assert got is not None or kind == "src"
