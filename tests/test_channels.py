"""Channels: application, covariance checking, twirling, embedding."""

import numpy as np
import pytest

import asymkit as ak
from asymkit.linalg import frob, haar_unitary


def plus_state(dim, a, b):
    v = np.zeros(dim, dtype=complex)
    v[a] = v[b] = 1 / np.sqrt(2)
    return ak.QuantumState.pure(v)


class TestChannelBasics:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kraus_rejected(self, bad):
        kraus = np.eye(2, dtype=complex)[None].copy()
        kraus[0, 0, 1] = bad
        with pytest.raises(ak.ValidationError, match="non-finite"):
            ak.QuantumChannel(kraus)

    def test_trace_preservation_enforced(self):
        with pytest.raises(ak.ValidationError):
            ak.QuantumChannel(np.array([0.5 * np.eye(2)]))

    def test_identity_channel(self, rng):
        s = ak.random_mixed_state(3, rng)
        out = ak.apply(ak.identity_channel(3), s)
        assert frob(out.rho - s.rho) < 1e-12

    def test_random_channel_is_tp(self, rng):
        c = ak.random_channel(4, 3, rng)
        total = sum(k.conj().T @ k for k in c.kraus)
        assert frob(total - np.eye(4)) < 1e-10

    def test_output_trace_one(self, rng):
        c = ak.random_channel(4, 3, rng)
        s = ak.random_pure_state(4, rng)
        assert abs(np.trace(ak.apply(c, s).rho) - 1.0) < 1e-10

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ak.DimensionMismatchError):
            ak.apply(ak.identity_channel(3), ak.random_pure_state(4, rng))

    def test_full_twirl_over_irreducible_rep_depolarizes(self, decompositions, rng):
        blk = next(b for b in decompositions["s3"].blocks if b.dim == 2)
        sub = ak.UnitaryRep(decompositions["s3"].rep.group, blk.mats)
        c = ak.uniform_twirl_over_subgroup(sub, range(6))
        s = ak.random_pure_state(2, rng)
        out = ak.apply(c, s)
        assert frob(out.rho - np.eye(2) / 2) < 1e-10


class TestShiftChannel:
    def test_maps_plus01_to_plus23(self, z16_number_rep):
        c = ak.shift_channel(16, 2)
        out = ak.apply(c, plus_state(16, 0, 1))
        assert frob(out.rho - plus_state(16, 2, 3).density()) < 1e-12

    def test_covariant_on_number_rep(self, z16_number_rep):
        check = ak.is_g_covariant(ak.shift_channel(16, 2), z16_number_rep, z16_number_rep)
        assert check.covariant
        assert check.residual <= 1e-10


class TestCovariance:
    def test_non_invariant_conjugation_fails(self, regular_reps, rng):
        r = regular_reps["s3"]
        c = ak.channel_from_unitary(haar_unitary(6, rng))
        check = ak.is_g_covariant(c, r, r)
        assert not check.covariant
        assert check.residual > 1e-3

    def test_negative_tol_rejected(self, z16_number_rep):
        with pytest.raises(ak.InvalidParameterError):
            ak.is_g_covariant(ak.identity_channel(16), z16_number_rep, z16_number_rep, tol=-1.0)

    def test_twirl_outputs_always_pass(self, regular_reps, rng):
        for name in ("z3", "s3"):
            r = regular_reps[name]
            c = ak.twirl_channel(ak.random_channel(r.dim, 2, rng), r)
            check = ak.is_g_covariant(c, r, r)
            assert check.covariant
            assert check.residual <= 1e-10


class TestTwirl:
    def test_identity_channel_fixed(self, regular_reps):
        r = regular_reps["z3"]
        out = ak.twirl_channel(ak.identity_channel(3), r)
        assert frob(out.choi() - ak.identity_channel(3).choi()) < 1e-12

    def test_covariant_input_unchanged(self, regular_reps, rng):
        r = regular_reps["z3"]
        c = ak.twirl_channel(ak.random_channel(3, 2, rng), r)
        again = ak.twirl_channel(c, r)
        assert frob(c.choi() - again.choi()) <= 1e-10

    def test_idempotence(self, regular_reps, rng):
        r = regular_reps["d4"]
        once = ak.twirl_channel(ak.random_channel(8, 2, rng), r)
        twice = ak.twirl_channel(once, r)
        assert frob(once.choi() - twice.choi()) <= 1e-10

    def test_non_endomorphic_rejected(self, regular_reps, rng):
        kraus = np.zeros((1, 3, 2), dtype=complex)
        kraus[0, :2, :] = np.eye(2)
        c = ak.QuantumChannel(kraus)
        with pytest.raises(ak.DimensionMismatchError):
            ak.twirl_channel(c, regular_reps["z3"])


class TestSubgroupTwirl:
    def test_trivial_subgroup_is_identity(self, regular_reps):
        r = regular_reps["s3"]
        c = ak.uniform_twirl_over_subgroup(r, [0])
        assert frob(c.choi() - ak.identity_channel(6).choi()) < 1e-12

    def test_whole_group_covariant(self, regular_reps):
        r = regular_reps["s3"]
        c = ak.uniform_twirl_over_subgroup(r, range(6))
        assert ak.is_g_covariant(c, r, r).covariant

    def test_normal_subgroup_covariant(self, groups):
        d4 = groups["d4"]
        r = ak.regular_rep(d4)
        c = ak.uniform_twirl_over_subgroup(r, range(4))  # rotations, index 2
        assert ak.is_g_covariant(c, r, r).covariant

    def test_non_normal_subgroup_not_covariant(self, groups):
        d3 = groups["d3"]
        r = ak.regular_rep(d3)
        refl = 3
        assert not ak.is_normal(d3, [0, refl])
        c = ak.uniform_twirl_over_subgroup(r, [0, refl])
        check = ak.is_g_covariant(c, r, r)
        assert not check.covariant
        assert check.residual > 1e-6

    def test_non_subgroup_rejected(self, regular_reps):
        with pytest.raises(ak.InvalidSubgroupError):
            ak.uniform_twirl_over_subgroup(regular_reps["s3"], [0, 3])


class TestEmbedding:
    def test_identity_embedding(self, groups):
        z16 = groups["z16"]
        r_in = ak.number_rep(z16, [0, 1])
        c = ak.embed_channel(ak.identity_channel(2), r_in, r_in)
        combined = ak.direct_sum_rep(r_in, r_in)
        assert ak.is_g_covariant(c, combined, combined).covariant
        rho = np.zeros((4, 4), dtype=complex)
        rho[:2, :2] = np.eye(2) / 2
        out = c.apply_to_density(rho)
        assert frob(out[2:, 2:] - np.eye(2) / 2) < 1e-12

    def test_shift_between_weight_sectors(self, groups):
        z16 = groups["z16"]
        r_in = ak.number_rep(z16, [0, 1])
        r_out = ak.number_rep(z16, [2, 3])
        c = ak.identity_channel(2)  # |0>,|1> carried onto |2>,|3>
        assert ak.is_g_covariant(c, r_in, r_out).covariant
        emb = ak.embed_channel(c, r_in, r_out)
        combined = ak.direct_sum_rep(r_in, r_out)
        check = ak.is_g_covariant(emb, combined, combined)
        assert check.covariant and check.residual <= 1e-10

    def test_restriction_reproduces_channel(self, groups, rng):
        z16 = groups["z16"]
        r_in = ak.number_rep(z16, [0, 1])
        r_out = ak.number_rep(z16, [2, 3])
        c = ak.identity_channel(2)
        emb = ak.embed_channel(c, r_in, r_out)
        for _ in range(5):
            s = ak.random_mixed_state(2, rng)
            padded = np.zeros((4, 4), dtype=complex)
            padded[:2, :2] = s.rho
            out = emb.apply_to_density(padded)
            direct = c.apply_to_density(s.rho)
            assert frob(out[2:, 2:] - direct) < 1e-10
            assert frob(out[:2, :2]) < 1e-12

    def test_junk_branch_maximally_mixed(self, groups):
        z16 = groups["z16"]
        r_in = ak.number_rep(z16, [0, 1])
        r_out = ak.number_rep(z16, [2, 3])
        emb = ak.embed_channel(ak.identity_channel(2), r_in, r_out)
        rho = np.zeros((4, 4), dtype=complex)
        rho[2, 2] = 1.0  # fully in the out sector
        out = emb.apply_to_density(rho)
        assert frob(out - np.eye(4) / 4) < 1e-12


class TestMonotonicity:
    def test_symmetries_never_shrink(self, regular_reps, rng):
        r = regular_reps["z6"]
        for _ in range(4):
            c = ak.twirl_channel(ak.random_channel(6, 2, rng), r)
            for _ in range(10):
                s = ak.random_mixed_state(6, rng)
                before = set(ak.symmetry_subgroup(s, r).elements)
                after = set(ak.symmetry_subgroup(ak.apply(c, s), r).elements)
                assert before <= after


class TestChannelJson:
    def test_round_trip(self, rng):
        from asymkit.jsonio import channel_from_json, channel_to_json

        c = ak.random_channel(3, 2, rng)
        back = channel_from_json(channel_to_json(c))
        assert frob(back.choi() - c.choi()) < 1e-9
