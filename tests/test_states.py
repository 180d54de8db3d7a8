"""States, characteristic functions, reductions, and the Fourier bridge."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asymkit as ak
from asymkit.linalg import frob
from helpers import assert_raises_exactly


def plus_state(dim, a, b):
    v = np.zeros(dim, dtype=complex)
    v[a] = v[b] = 1 / np.sqrt(2)
    return ak.QuantumState.pure(v)


class TestStateValidation:
    @pytest.mark.parametrize("rank", [0, -1])
    def test_mixed_state_rank_below_one_rejected(self, rank):
        """No rank below 1 is read as full rank or left to numpy."""
        with pytest.raises(ak.InvalidParameterError, match="rank"):
            ak.random_mixed_state(3, np.random.default_rng(0), rank=rank)

    def test_pure_state_dim_is_read_as_a_whole_number(self):
        """2.0 reads as 2, with the same draws; 2.5 and "two" raise a typed error, not numpy's."""
        want = ak.random_pure_state(2, np.random.default_rng(0)).vec
        assert ak.random_pure_state(2.0, np.random.default_rng(0)).vec.tobytes() == want.tobytes()
        for bad in (2.5, "two"):
            with pytest.raises(ak.ValidationError, match="dim"):
                ak.random_pure_state(bad, np.random.default_rng(0))

    def test_pure_state_dim_is_not_complex(self):
        """2 + 0.5j is no dim: its imaginary part is not dropped to give a 2-dim state."""
        with pytest.raises(ak.ValidationError, match="dim: expected whole"):
            ak.random_pure_state(2 + 0.5j, np.random.default_rng(0))

    @pytest.mark.parametrize("dim", [0, -1])
    def test_pure_state_dim_below_one_rejected(self, dim):
        """A dim below 1 is a bad parameter, not numpy's negative-dimensions error."""
        with pytest.raises(ak.InvalidParameterError, match="dim"):
            ak.random_pure_state(dim, np.random.default_rng(0))

    def test_mixed_state_rank_is_read_as_a_whole_number(self):
        """rank=2.0 and dim=3.0 read as 2 and 3, with the same draws; rank=1.5 raises."""
        want = ak.random_mixed_state(3, np.random.default_rng(0), rank=2).rho
        got = ak.random_mixed_state(3.0, np.random.default_rng(0), rank=2.0).rho
        assert got.tobytes() == want.tobytes()
        with pytest.raises(ak.ValidationError, match="rank"):
            ak.random_mixed_state(3, np.random.default_rng(0), rank=1.5)

    def test_mixed_state_rank(self):
        rho = ak.random_mixed_state(4, np.random.default_rng(0), rank=1).rho
        assert np.linalg.matrix_rank(rho, tol=1e-10) == 1

    def test_pure_norm_enforced(self):
        with pytest.raises(ak.ValidationError):
            ak.QuantumState.pure([1.0, 1.0])

    def test_nan_rejected(self):
        with pytest.raises(ak.ValidationError):
            ak.QuantumState.pure([np.nan, 0.0])
        with pytest.raises(ak.ValidationError, match="max"):
            ak.states._state_chi_check(np.array([1.0, np.nan]))
        with pytest.raises(ak.ValidationError, match="chi"):
            ak.states._state_chi_check(np.array([np.nan, 0.0]))

    def test_mixed_trace_enforced(self):
        with pytest.raises(ak.ValidationError):
            ak.QuantumState.mixed(np.eye(2))

    def test_mixed_psd_enforced(self):
        with pytest.raises(ak.NotPositiveSemidefiniteError):
            ak.QuantumState.mixed(np.diag([1.5, -0.5]))

    def test_density_of_pure(self):
        s = plus_state(2, 0, 1)
        assert np.allclose(s.density(), 0.5 * np.ones((2, 2)))


class TestCharfunc:
    def test_z16_plus_state(self, z16_number_rep):
        chi = ak.charfunc(plus_state(16, 0, 1), z16_number_rep)
        expected = 0.5 * (1 + np.exp(2j * np.pi * np.arange(16) / 16))
        assert np.max(np.abs(chi.values - expected)) < 1e-12

    def test_invariant_state_gives_one_dim_rep(self, z16_number_rep):
        v = np.zeros(16)
        v[3] = 1.0
        chi = ak.charfunc(ak.QuantumState.pure(v), z16_number_rep)
        assert np.allclose(np.abs(chi.values), 1.0)
        g = z16_number_rep.group
        homo = max(
            abs(chi.values[g.mul[a, b]] - chi.values[a] * chi.values[b])
            for a in range(16)
            for b in range(16)
        )
        assert homo < 1e-12

    def test_maximally_mixed_on_regular(self, regular_reps):
        r = regular_reps["s3"]
        chi = ak.charfunc(ak.QuantumState.mixed(np.eye(6) / 6), r)
        expected = np.zeros(6)
        expected[0] = 1.0
        assert np.max(np.abs(chi.values - expected)) < 1e-12

    def test_basic_invariants_random(self, regular_reps, rng):
        r = regular_reps["d4"]
        for _ in range(20):
            s = ak.random_pure_state(8, rng) if rng.random() < 0.5 else ak.random_mixed_state(8, rng)
            chi = ak.charfunc(s, r)
            assert abs(chi.values[0] - 1.0) < 1e-10
            assert np.max(np.abs(chi.values)) <= 1.0 + 1e-10

    def test_dimension_mismatch(self, regular_reps):
        with pytest.raises(ak.DimensionMismatchError):
            ak.charfunc(plus_state(4, 0, 1), regular_reps["s3"])


class TestReduction:
    def test_single_sector_state(self, decompositions):
        dec = decompositions["z3"]
        # basis vector of one 1-dim sector, pushed back to the original basis
        e = np.zeros(3, dtype=complex)
        e[1] = 1.0
        psi = ak.QuantumState.pure(dec.basis.conj().T @ e)
        red = ak.reduction_onto_irreps(psi, dec)
        traces = red.traces()
        assert abs(traces[1] - 1.0) < 1e-12
        assert abs(traces[0]) < 1e-12 and abs(traces[2]) < 1e-12

    def test_z16_plus_state_weights(self, z16_number_dec):
        red = ak.reduction_onto_irreps(plus_state(16, 0, 1), z16_number_dec)
        nonzero = sorted(round(t, 9) for t in red.traces() if t > 1e-12)
        assert nonzero == [0.5, 0.5]

    def test_traces_sum_to_one(self, decompositions, rng):
        dec = decompositions["s3"]
        for _ in range(10):
            s = ak.random_pure_state(6, rng)
            assert abs(ak.reduction_onto_irreps(s, dec).traces().sum() - 1.0) < 1e-10

    def test_mixed_equals_pure_average(self, decompositions, rng):
        dec = decompositions["s3"]
        a = ak.random_pure_state(6, rng)
        b = ak.random_pure_state(6, rng)
        mix = ak.QuantumState.mixed(0.5 * a.density() + 0.5 * b.density())
        ra = ak.reduction_onto_irreps(a, dec)
        rb = ak.reduction_onto_irreps(b, dec)
        rm = ak.reduction_onto_irreps(mix, dec)
        for fa, fb, fm in zip(ra.blocks, rb.blocks, rm.blocks):
            assert frob(0.5 * fa + 0.5 * fb - fm) < 1e-10


class TestFourierBridge:
    def test_round_trip_pure_and_mixed(self, regular_reps, decompositions, rng):
        for name in ("z6", "s3", "d4"):
            r = regular_reps[name]
            dec = decompositions[name]
            for _ in range(5):
                for s in (
                    ak.random_pure_state(r.dim, rng),
                    ak.random_mixed_state(r.dim, rng),
                ):
                    chi = ak.charfunc(s, r)
                    red = ak.reduction_onto_irreps(s, dec)
                    chi2 = ak.charfunc_from_reduction(red, dec)
                    assert np.max(np.abs(chi.values - chi2.values)) <= 1e-10
                    red2 = ak.fourier_inverse(chi, dec)
                    worst = max(frob(a - b) for a, b in zip(red.blocks, red2.blocks))
                    assert worst <= 1e-10

    def test_constant_function_is_trivial_sector(self, decompositions):
        dec = decompositions["s3"]
        f = ak.CharFunction(dec.rep.group, np.ones(6, dtype=complex))
        red = ak.fourier_inverse(f, dec)
        for blk, mat in zip(dec.blocks, red.blocks):
            if blk.dim == 1 and np.allclose(blk.mats[:, 0, 0], 1.0):
                assert abs(mat[0, 0] - 1.0) < 1e-12
            else:
                assert frob(mat) < 1e-12

    def test_delta_function_on_z3(self, decompositions):
        dec = decompositions["z3"]
        f = ak.CharFunction(dec.rep.group, np.array([1.0, 0.0, 0.0], dtype=complex))
        red = ak.fourier_inverse(f, dec)
        assert np.allclose(red.traces(), [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_concentrated_reduction_gives_character(self, decompositions):
        dec = decompositions["z3"]
        # unit weight on the sector whose character has positive imaginary part
        idx = next(
            i for i, b in enumerate(dec.blocks) if b.mats[1, 0, 0].imag > 0.1
        )
        blocks = [np.zeros((1, 1), dtype=complex) for _ in dec.blocks]
        blocks[idx] = np.ones((1, 1), dtype=complex)
        red = ak.IrrepReduction([b.label for b in dec.blocks], blocks)
        chi = ak.charfunc_from_reduction(red, dec)
        assert np.max(np.abs(chi.values - dec.blocks[idx].mats[:, 0, 0])) < 1e-12

    def test_label_mismatch_rejected(self, decompositions):
        dec = decompositions["z3"]
        red = ak.IrrepReduction([7, 8, 9], [np.ones((1, 1))] * 3)
        with pytest.raises(ak.ValidationError):
            ak.charfunc_from_reduction(red, dec)


class TestConvolve:
    def test_identity_mass_is_neutral(self, regular_reps, rng):
        r = regular_reps["s3"]
        s = ak.random_pure_state(6, rng)
        f = ak.charfunc(s, r)
        delta = np.zeros(6, dtype=complex)
        delta[0] = 6.0  # unit mass under the normalized group average
        out = ak.convolve(f, ak.CharFunction(r.group, delta))
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_two_dim_identity_value(self, decompositions):
        blk = next(b for b in decompositions["s3"].blocks if b.dim == 2)
        g = decompositions["s3"].rep.group
        chi = ak.CharFunction(g, np.einsum("gii->g", blk.mats))
        conv = ak.convolve(chi, chi)
        assert abs(blk.dim * conv.values[0] - 2.0) < 1e-12

    def test_product_trace_identity(self, decompositions, rng):
        # tr(AB) = d * avg_h chi_A(h) chi_B(h^-1) on a single irreducible block
        dec = decompositions["s3"]
        blk = next(b for b in dec.blocks if b.dim == 2)
        g = dec.rep.group
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        chi_a = np.einsum("ij,gji->g", a, blk.mats)
        chi_b = np.einsum("ij,gji->g", b, blk.mats)
        direct = np.trace(a @ b)
        via_conv = blk.dim * np.mean(chi_a * chi_b[g.inv])
        assert abs(direct - via_conv) < 1e-10

    def test_convolution_realizes_product(self, decompositions, rng):
        # chi_AB = d * (chi_B conv chi_A) pointwise on one block; the
        # convolution picks up the reversed operator order away from the
        # identity element.
        dec = decompositions["s3"]
        blk = next(b for b in dec.blocks if b.dim == 2)
        g = dec.rep.group
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        chi_a = ak.CharFunction(g, np.einsum("ij,gji->g", a, blk.mats))
        chi_b = ak.CharFunction(g, np.einsum("ij,gji->g", b, blk.mats))
        chi_ab = np.einsum("ij,gji->g", a @ b, blk.mats)
        conv = ak.convolve(chi_b, chi_a)
        assert np.max(np.abs(blk.dim * conv.values - chi_ab)) < 1e-10
        # at the identity the order is immaterial: both give tr(AB)
        other = ak.convolve(chi_a, chi_b)
        assert abs(blk.dim * other.values[0] - np.trace(a @ b)) < 1e-10

    def test_group_mismatch(self, groups):
        f1 = ak.CharFunction(groups["z2"], np.ones(2))
        f2 = ak.CharFunction(groups["z3"], np.ones(3))
        with pytest.raises(ak.GroupMismatchError):
            ak.convolve(f1, f2)


class TestTensorState:
    def test_multiplicativity(self, regular_reps, rng):
        r = regular_reps["s3"]
        rr = ak.tensor_rep(r, r)
        for _ in range(5):
            s1 = ak.random_pure_state(6, rng)
            s2 = ak.random_pure_state(6, rng)
            chi = ak.charfunc(ak.tensor_state(s1, s2), rr)
            prod = ak.charfunc(s1, r).values * ak.charfunc(s2, r).values
            assert np.max(np.abs(chi.values - prod)) <= 1e-12

    def test_square_on_cyclic(self, z16_number_rep, rng):
        s = ak.random_pure_state(16, rng)
        rr = ak.tensor_rep(z16_number_rep, z16_number_rep)
        chi = ak.charfunc(ak.tensor_state(s, s), rr)
        base = ak.charfunc(s, z16_number_rep).values
        assert np.max(np.abs(chi.values - base**2)) <= 1e-12

    def test_invariant_factor_multiplies_by_phase(self, z16_number_rep, rng):
        v = np.zeros(16)
        v[2] = 1.0
        inv = ak.QuantumState.pure(v)
        s = ak.random_pure_state(16, rng)
        rr = ak.tensor_rep(z16_number_rep, z16_number_rep)
        chi = ak.charfunc(ak.tensor_state(inv, s), rr)
        phase = np.exp(2j * np.pi * 2 * np.arange(16) / 16)
        assert np.max(np.abs(chi.values - phase * ak.charfunc(s, z16_number_rep).values)) < 1e-12

    def test_mixed_tensor(self, regular_reps, rng):
        r = regular_reps["z2"]
        rr = ak.tensor_rep(r, r)
        m1 = ak.random_mixed_state(2, rng)
        m2 = ak.random_mixed_state(2, rng)
        chi = ak.charfunc(ak.tensor_state(m1, m2), rr)
        prod = ak.charfunc(m1, r).values * ak.charfunc(m2, r).values
        assert np.max(np.abs(chi.values - prod)) <= 1e-12


class TestSymmetrySubgroup:
    def test_pi_shift_symmetry(self, groups):
        r4 = ak.number_rep(groups["z4"], range(4))
        s = plus_state(4, 0, 2)
        assert ak.symmetry_subgroup(s, r4).elements == (0, 2)

    def test_invariant_state_full_group(self, regular_reps):
        r = regular_reps["s3"]
        s = ak.QuantumState.mixed(np.eye(6) / 6)
        assert len(ak.symmetry_subgroup(s, r)) == 6

    def test_generic_superposition_trivial(self, z16_number_rep):
        s = plus_state(16, 0, 1)
        assert ak.symmetry_subgroup(s, z16_number_rep).elements == (0,)

    def test_closure_violation_raises(self, groups):
        # Deviations scale like |i^k - 1|, so a tolerance between sqrt(2)*c
        # and 2*c accepts k=1,3 but rejects k=2: not a subgroup.
        r4 = ak.number_rep(groups["z4"], range(4))
        eps = 0.1
        v = np.array([np.sqrt(1 - eps**2), eps, 0, 0])
        s = ak.QuantumState.pure(v)
        c = frob(r4.mats[1] @ s.density() @ r4.mats[1].conj().T - s.density())
        with pytest.raises(ak.ToleranceError):
            ak.symmetry_subgroup(s, r4, tol=1.2 * c)

    def test_pure_modulus_iff_symmetry(self, z16_number_rep, rng):
        for _ in range(10):
            amps = rng.normal(size=3) + 1j * rng.normal(size=3)
            v = np.zeros(16, dtype=complex)
            v[[0, 4, 8]] = amps / np.linalg.norm(amps)
            s = ak.QuantumState.pure(v)
            chi = ak.charfunc(s, z16_number_rep)
            sym = set(ak.symmetry_subgroup(s, z16_number_rep).elements)
            from_chi = {g for g in range(16) if abs(abs(chi.values[g]) - 1.0) < 1e-8}
            assert from_chi == sym

    def test_mixed_modulus_one_implies_symmetry(self, groups):
        r4 = ak.number_rep(groups["z4"], range(4))
        rho = ak.QuantumState.mixed(np.diag([0.5, 0.0, 0.5, 0.0]))
        chi = ak.charfunc(rho, r4)
        sym = set(ak.symmetry_subgroup(rho, r4).elements)
        for g in range(4):
            if abs(abs(chi.values[g]) - 1.0) < 1e-10:
                assert g in sym
        # and the converse fails for mixed states: rho is invariant under
        # every phase shift yet |chi| < 1 away from the identity
        assert sym == {0, 1, 2, 3}
        assert abs(chi.values[1]) < 1.0 - 1e-6


class TestGroupActionProperties:
    def test_conjugate_action_identity(self, regular_reps, rng):
        r = regular_reps["s3"]
        g6 = r.group
        for _ in range(10):
            s = ak.random_mixed_state(6, rng)
            h = int(rng.integers(6))
            moved = ak.QuantumState.mixed(r.mats[h] @ s.rho @ r.mats[h].conj().T)
            chi_moved = ak.charfunc(moved, r).values
            chi = ak.charfunc(s, r).values
            hinv = g6.inv[h]
            expected = np.array([chi[g6.mul[g6.mul[hinv, g], h]] for g in range(6)])
            assert np.max(np.abs(chi_moved - expected)) <= 1e-12

    def test_invariance_under_invariant_unitaries(self, decompositions, rng):
        dec = decompositions["d4"]
        r = dec.rep
        for _ in range(5):
            s = ak.random_mixed_state(8, rng)
            v = ak.random_invariant_unitary(dec, rng)
            rotated = ak.QuantumState.mixed(v @ s.rho @ v.conj().T)
            assert np.max(np.abs(ak.charfunc(rotated, r).values - ak.charfunc(s, r).values)) < 1e-10

    def test_sector_additivity(self, regular_reps, decompositions, rng):
        r = regular_reps["s3"]
        dec = decompositions["s3"]
        s = ak.random_mixed_state(6, rng)
        red = ak.reduction_onto_irreps(s, dec)
        total = np.zeros(6, dtype=complex)
        for blk, f in zip(dec.blocks, red.blocks):
            total += np.einsum("ij,gji->g", f, blk.mats)
        assert np.max(np.abs(total - ak.charfunc(s, r).values)) <= 1e-10


class TestWeightModel:
    def test_point_mass_moments(self):
        w = ak.WeightState({0: 1.0})
        assert ak.u1_moments(w, 1) == 0.0
        assert ak.u1_moments(w, 4) == 0.0

    def test_half_half_moments(self):
        w = ak.WeightState({0: 0.5, 1: 0.5})
        assert abs(ak.u1_moments(w, 1) - 0.5) < 1e-15
        assert abs(ak.u1_moments(w, 2) - 0.5) < 1e-15

    def test_cumulant_additivity(self, rng):
        for _ in range(10):
            p1 = rng.dirichlet(np.ones(4))
            p2 = rng.dirichlet(np.ones(3))
            w1 = ak.WeightState(dict(enumerate(p1)))
            w2 = ak.WeightState(dict(enumerate(p2)))
            both = ak.weight_tensor(w1, w2)
            # oracle: variance of the summed independent variables directly
            total = ak.u1_moments(both, 2) - ak.u1_moments(both, 1) ** 2
            assert abs(ak.u1_cumulant(both, 2) - total) < 1e-12
            assert abs(
                ak.u1_cumulant(both, 2) - ak.u1_cumulant(w1, 2) - ak.u1_cumulant(w2, 2)
            ) < 1e-12
            assert abs(
                ak.u1_cumulant(both, 3) - ak.u1_cumulant(w1, 3) - ak.u1_cumulant(w2, 3)
            ) < 1e-12

    @pytest.mark.parametrize("a, b, p", [(0, 1, 0.5), (2, 7, 0.2), (3, 4, 0.9)])
    def test_cumulants_of_a_two_point_distribution(self, a, b, p):
        """Weight a with probability 1 - p and b with p is a + (b - a) Bernoulli(p), whose
        cumulants are a + s p, s^2 v, s^3 v (1 - 2p) and s^4 v (1 - 6v), s = b - a, v = p(1 - p)."""
        w, s, v = ak.WeightState({a: 1 - p, b: p}), b - a, p * (1 - p)
        want = [a + s * p, s**2 * v, s**3 * v * (1 - 2 * p), s**4 * v * (1 - 6 * v)]
        for k, kappa in enumerate(want, start=1):
            assert abs(ak.u1_cumulant(w, k) - kappa) <= 1e-10 * max(1.0, abs(kappa))

    def test_every_cumulant_order_adds(self, rng):
        for _ in range(5):
            w1 = ak.WeightState(dict(enumerate(rng.dirichlet(np.ones(4)))))
            w2 = ak.WeightState(dict(enumerate(rng.dirichlet(np.ones(3)))))
            both = ak.weight_tensor(w1, w2)
            for k in range(1, 5):
                total = ak.u1_cumulant(w1, k) + ak.u1_cumulant(w2, k)
                assert abs(ak.u1_cumulant(both, k) - total) < 1e-11

    @pytest.mark.parametrize("k", [0, 5])
    def test_cumulant_order_out_of_range(self, k):
        with pytest.raises(ak.InvalidParameterError, match="orders 1..4"):
            ak.u1_cumulant(ak.WeightState({0: 0.5, 1: 0.5}), k)

    def test_weight_state_validation(self):
        with pytest.raises(ak.ValidationError):
            ak.WeightState({0: 0.7, 1: 0.7})
        with pytest.raises(ak.InvalidParameterError):
            ak.WeightState({-1: 1.0})

    def test_weights_are_read_as_whole_numbers(self):
        """1.0 and "1" read as weight 1; 1.5 raises in the weights, the amplitudes and
        from_amplitudes, and is never truncated to weight 1."""
        one = ak.WeightState({1: 1.0})
        for w in (ak.WeightState({1.0: 1.0}), ak.WeightState({"1": 1.0}, {1.0: 1}),
                  ak.WeightState.from_amplitudes({np.float64(1.0): 1j})):
            assert list(w.weights) == [1] and ak.u1_shift_equivalence(w, one) == 0
        for make in (lambda: ak.WeightState({1.5: 1.0}), lambda: ak.WeightState({1: 1.0}, {1.5: 1}),
                     lambda: ak.WeightState.from_amplitudes({0.5: 1})):
            with pytest.raises(ak.ValidationError, match="whole"):
                make()

    def test_vector_embedding_matches_charfunc(self, groups):
        w = ak.WeightState.from_amplitudes({0: 1 / np.sqrt(2), 1: 1j / np.sqrt(2)})
        v = w.vector(16)
        r = ak.number_rep(groups["z16"], range(16))
        chi = ak.charfunc(ak.QuantumState.pure(v), r)
        expected = 0.5 * (1 + np.exp(2j * np.pi * np.arange(16) / 16))
        assert np.max(np.abs(chi.values - expected)) < 1e-12


class TestCharfuncPropertyBased:
    @given(
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_contraction_and_normalization(self, n, seed):
        g = ak.make_cyclic(n)
        r = ak.regular_rep(g)
        rng = np.random.default_rng(seed)
        s = ak.random_pure_state(n, rng) if seed % 2 else ak.random_mixed_state(n, rng)
        chi = ak.charfunc(s, r)
        assert abs(chi.values[0] - 1.0) <= 1e-10
        assert np.max(np.abs(chi.values)) <= 1.0 + 1e-10
        # the translated Gram matrix of any state function is PSD
        x = chi.values[g.mul[g.inv]]
        assert np.linalg.eigvalsh(0.5 * (x + x.conj().T))[0] >= -1e-9


def _z2_decomposition():
    return ak.decompose(ak.regular_rep(ak.make_cyclic(2)), seed=0)


def _z3_function():
    return ak.CharFunction(ak.make_cyclic(3), [1.0, 0.0, 0.0])


def _charfunc_of_2x2_blocks_on_1x1_irreps():
    dec = _z2_decomposition()
    red = ak.IrrepReduction([b.label for b in dec.blocks], [np.eye(2) / 4] * 2)
    return ak.charfunc_from_reduction(red, dec)


RAISE_SITES = {  # name -> (call, error type, message)
    "pure state of a matrix": (
        lambda: ak.QuantumState("pure", np.eye(2)),
        ak.ValidationError,
        "pure state data must be a vector",
    ),
    "mixed state of a vector": (
        lambda: ak.QuantumState("mixed", [1.0, 0.0]),
        ak.ValidationError,
        "mixed state data must be a square matrix",
    ),
    "state of another kind": (
        lambda: ak.QuantumState("thermal", [1.0]),
        ak.InvalidParameterError,
        "state kind must be 'pure' or 'mixed', got 'thermal'",
    ),
    "function of the wrong length": (
        lambda: ak.CharFunction(ak.make_cyclic(3), [1.0, 0.0]),
        ak.DimensionMismatchError,
        "characteristic function needs one value per group element",
    ),
    "reduction with a label short": (
        lambda: ak.IrrepReduction([0], [np.eye(1), np.eye(1)]),
        ak.ValidationError,
        "reduction needs one label per block",
    ),
    "reduction block of shape 2 x 3": (
        lambda: ak.IrrepReduction([0, 1], [np.eye(1), np.zeros((2, 3))]).validate(),
        ak.DimensionMismatchError,
        "reduction block 1 is not square: (2, 3)",
    ),
    "reduction block of one axis": (
        lambda: ak.IrrepReduction([4], [np.ones(1)]).validate(),
        ak.DimensionMismatchError,
        "reduction block 4 is not square: (1,)",
    ),
    "reduction of a state of another dim": (
        lambda: ak.reduction_onto_irreps(ak.QuantumState.pure(np.eye(3)[0]), _z2_decomposition()),
        ak.DimensionMismatchError,
        "state dimension 3 does not match decomposition dimension 2",
    ),
    "charfunc of reduction blocks of another shape": (
        _charfunc_of_2x2_blocks_on_1x1_irreps,
        ak.DimensionMismatchError,
        "reduction blocks do not match the decomposition blocks",
    ),
    "fourier inverse over another group": (
        lambda: ak.fourier_inverse(_z3_function(), _z2_decomposition()),
        ak.GroupMismatchError,
        "function and decomposition must share the group",
    ),
    "symmetry subgroup of a state of another dim": (
        lambda: ak.symmetry_subgroup(
            ak.QuantumState.pure(np.eye(3)[0]), ak.regular_rep(ak.make_cyclic(2))
        ),
        ak.DimensionMismatchError,
        "state dimension 3 does not match representation dimension 2",
    ),
    "weight amplitude against its probability": (
        lambda: ak.WeightState({0: 1.0}, {0: 0.5}),
        ak.ValidationError,
        "amplitude (0.5+0j) at weight 0 inconsistent with its probability",
    ),
    "weight probability NaN": (
        lambda: ak.WeightState({0: 1.0, 1: np.nan}),
        ak.ValidationError,
        "weight probability p(1) = nan is negative or not finite",
    ),
    "weight probability infinite": (
        lambda: ak.WeightState({0: np.inf}),
        ak.ValidationError,
        "weight probability p(0) = inf is negative or not finite",
    ),
    "weight amplitude NaN": (
        lambda: ak.WeightState({0: 1.0}, {0: complex(np.nan, 0.0)}),
        ak.ValidationError,
        "amplitude (nan+0j) at weight 0 inconsistent with its probability",
    ),
    "weight amplitudes missing an occupied weight": (
        lambda: ak.WeightState({0: 0.5, 1: 0.5}, {0: 0.5**0.5}),
        ak.ValidationError,
        "no amplitude at occupied weight 1",
    ),
    "weight vector of too small a dim": (
        lambda: ak.WeightState({0: 0.5, 2: 0.5}).vector(2),
        ak.DimensionMismatchError,
        "dim too small for the occupied weights",
    ),
    "negative moment order": (
        lambda: ak.u1_moments(ak.WeightState({0: 1.0}), -1),
        ak.InvalidParameterError,
        "moment order must be nonnegative",
    ),
}


@pytest.mark.parametrize("name", list(RAISE_SITES))
def test_raise_site(name):
    assert_raises_exactly(*RAISE_SITES[name])
