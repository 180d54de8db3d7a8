"""Representation construction, twirling, and irreducible decomposition."""

import numpy as np
import pytest

import asymkit as ak
from asymkit import reps
from asymkit.linalg import frob, haar_unitary, random_complex, random_hermitian, scaled_tol
from helpers import dense_rep_residuals, perm_rep


def irrep_dims_oracle(order: int, num_classes: int) -> list[int] | None:
    """Brute-force the irrep dimension multiset from |G| and the class count.

    Searches all nondecreasing k-tuples with sum of squares |G|; returns the
    multiset when it is unique, which it is for every group used in tests.
    """
    solutions = []

    def search(prefix, remaining, minimum):
        k = num_classes - len(prefix)
        if k == 0:
            if remaining == 0:
                solutions.append(list(prefix))
            return
        d = minimum
        while d * d * k <= remaining:
            search(prefix + [d], remaining - d * d, d)
            d += 1

    search([], order, 1)
    return solutions[0] if len(solutions) == 1 else None


def test_dimension_oracle_unique_for_test_groups(groups):
    for name in ("z2", "z3", "z6", "klein", "s3", "s4", "d4"):
        g = groups[name]
        assert irrep_dims_oracle(g.order, len(g.conjugacy_classes())) is not None


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

    def test_dims_match_oracle(self, groups, decompositions):
        for name in ("z2", "z3", "z6", "klein", "s3", "s4", "d4"):
            g = groups[name]
            dims = sorted(d for d, _ in decompositions[name].multiset())
            assert dims == irrep_dims_oracle(g.order, len(g.conjugacy_classes()))

    def test_regular_multiplicity_equals_dimension(self, decompositions):
        for name in ("s3", "s4", "d4", "z6"):
            for d, n in decompositions[name].multiset():
                assert d == n

    def test_reconstruction_residual(self, decompositions):
        for dec in decompositions.values():
            assert dec.reconstruction_residual() <= 1e-8

    def test_character_orthogonality(self, decompositions):
        for dec in decompositions.values():
            chars = np.array([b.character_per_element() for b in dec.blocks])
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
                norm = np.mean(np.abs(b.character_per_element()) ** 2)
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
        mats = np.array([dec.block_matrix(g) for g in range(6)])
        again = ak.decompose(ak.UnitaryRep(dec.rep.group, mats), seed=0)
        assert sorted(again.multiset()) == sorted(dec.multiset())

    def test_block_count_equals_class_count_for_regular(self, groups, decompositions):
        for name in ("z2", "z3", "z6", "klein", "s3", "s4", "d4"):
            assert len(decompositions[name].blocks) == len(groups[name].conjugacy_classes())


class TestOneDimReps:
    def test_cyclic_characters(self, groups, decompositions):
        n = 6
        om = ak.one_dim_reps(groups["z6"], decompositions["z6"])
        assert om.shape == (6, 6)
        expected = {
            tuple(np.round(np.exp(2j * np.pi * k * np.arange(n) / n), 9)) for k in range(n)
        }
        got = {tuple(np.round(row, 9)) for row in om}
        assert got == expected

    def test_s3_has_two(self, groups, decompositions):
        om = ak.one_dim_reps(groups["s3"], decompositions["s3"])
        assert om.shape[0] == 2

    def test_contains_trivial(self, groups, decompositions):
        for name in ("z2", "s3", "d4", "klein"):
            om = ak.one_dim_reps(groups[name], decompositions[name])
            assert any(np.allclose(row, 1.0) for row in om)


class TestInvariantUnitary:
    def test_commutes(self, decompositions, rng):
        for name in ("s3", "d4"):
            dec = decompositions[name]
            v = ak.random_invariant_unitary(dec, rng)
            assert frob(v @ v.conj().T - np.eye(dec.rep.dim)) < 1e-10
            worst = max(
                frob(v @ dec.rep.mats[g] - dec.rep.mats[g] @ v)
                for g in dec.rep.group.elements()
            )
            assert worst < 1e-10


class TestRepValidation:
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
    def test_retries_then_raises(self, regular_reps, monkeypatch):
        import asymkit.reps as reps_mod

        calls = {"n": 0}

        def always_retry(r, rng):
            calls["n"] += 1
            raise reps_mod._Retry("forced")

        monkeypatch.setattr(reps_mod, "_decompose_once", always_retry)
        with pytest.raises(ak.NumericalDegeneracyError):
            ak.decompose(regular_reps["z2"], seed=0)
        assert calls["n"] == 5


class TestDecomposeCompositeReps:
    """Multiplicities of built-up representations against a character oracle."""

    @staticmethod
    def multiplicity_oracle(rep, dec_regular):
        # n_mu = avg_g chi_rep(g) conj(chi_mu(g)), independent of decompose(rep)
        chi = rep.character()
        out = []
        for blk in dec_regular.blocks:
            n = np.mean(chi * blk.character_per_element().conj())
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
        dec = s3_square_dec
        for g in dec.rep.group.elements():
            want = np.zeros((dec.rep.dim, dec.rep.dim), dtype=complex)
            for i, blk in enumerate(dec.blocks):
                sl = dec.sector_slice(i)
                want[sl, sl] = np.kron(blk.mats[g], np.eye(blk.mult))
            assert np.array_equal(dec.block_matrix(g), want)

    def test_reconstruction_residual(self, s3_square_dec, rng):
        from asymkit.linalg import haar_unitary

        dec = s3_square_dec
        # the true decomposition, and one with a scrambled basis whose residual is O(1)
        scrambled = ak.IrrepDecomposition(dec.rep, haar_unitary(36, rng) @ dec.basis, dec.blocks)
        for d in (dec, scrambled):
            w = d.basis
            want = max(
                frob(w @ d.rep.mats[g] @ w.conj().T - d.block_matrix(g))
                for g in d.rep.group.elements()
            )
            assert abs(d.reconstruction_residual() - want) <= 1e-12 * max(1.0, want)
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
    """The library's unitarity and homomorphism rows, given a monomial form or block slices."""
    if not isinstance(form, tuple):
        form = reps._block_stacks(mats, form)
    rows = list(reps._homomorphism_residuals(mats, group.mul, form))
    return reps._unitarity_residuals(mats, form), np.array(rows)


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
            reps._validate_rep(group, mats, scaled_tol(mats), [slice(0, mats.shape[1])])
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
        for g in r.group.elements():  # U(g) e_h = e_gh: row gh reads column h
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
            reps._validate_rep(group, mats, tol, [slice(0, mats.shape[1])])
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

    def test_zero_dimensional_rep(self, groups):
        mats = np.zeros((4, 0, 0), dtype=complex)
        assert reps._sparsity_form(mats) == []
        unitarity, homomorphism = residual_rows(groups["z4"], mats, [])
        assert unitarity.shape == (4,) and homomorphism.shape == (4, 4)
        assert not unitarity.any() and not homomorphism.any()
        ak.UnitaryRep(groups["z4"], mats)
