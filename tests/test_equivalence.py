"""Equivalence deciders, Gram machinery, and invariant-unitary witnesses."""

import numpy as np
import pytest

import asymkit as ak
from asymkit.linalg import frob, haar_unitary


def plus_state(dim, a, b):
    v = np.zeros(dim, dtype=complex)
    v[a] = v[b] = 1 / np.sqrt(2)
    return ak.QuantumState.pure(v)


def assert_witness_sound(verdict, rep, psi, phi, tol=1e-8):
    """Every claimed witness must commute with the action and map the states."""
    v = verdict.witness
    assert frob(v @ v.conj().T - np.eye(rep.dim)) < tol
    worst = max(frob(v @ rep.mats[g] - rep.mats[g] @ v) for g in rep.group.elements())
    assert worst < tol
    mapped = v @ psi.vec
    overlap = np.vdot(phi.vec, mapped)
    assert abs(abs(overlap) - 1.0) < tol
    phase = overlap / abs(overlap)
    assert np.linalg.norm(mapped - phase * phi.vec) < tol


class TestGram:
    def test_orthonormal_basis(self):
        states = [ak.QuantumState.pure(row) for row in np.eye(4)]
        assert np.allclose(ak.gram(states), np.eye(4))

    def test_repeated_state(self, rng):
        s = ak.random_pure_state(3, rng)
        assert np.allclose(ak.gram([s, s]), np.ones((2, 2)))

    def test_covariant_set_gram_is_charfunc(self, regular_reps, rng):
        r = regular_reps["s3"]
        s = ak.random_pure_state(6, rng)
        chi = ak.charfunc(s, r).values
        orbit = [ak.QuantumState.pure(r.mats[g] @ s.vec) for g in range(6)]
        x = ak.gram(orbit)
        g6 = r.group
        expected = np.array(
            [[chi[g6.mul[g6.inv[g1], g2]] for g2 in range(6)] for g1 in range(6)]
        )
        assert np.max(np.abs(x - expected)) < 1e-12

    def test_mixed_rejected(self, rng):
        with pytest.raises(ak.PureStateRequiredError):
            ak.gram([ak.random_mixed_state(2, rng)])


class TestSetInterconversion:
    def test_rotated_set_recovered(self, rng):
        states = [ak.random_pure_state(4, rng) for _ in range(3)]
        w = haar_unitary(4, rng)
        targets = [ak.QuantumState.pure(w @ s.vec) for s in states]
        v = ak.unitary_set_interconversion(states, targets)
        assert v is not None
        for s, t in zip(states, targets):
            assert np.linalg.norm(v @ s.vec - t.vec) <= 1e-9

    def test_phase_mismatch_returns_none(self):
        # the off-diagonal Gram entries are 1/sqrt(2) vs i/sqrt(2)
        e0 = ak.QuantumState.pure([1, 0])
        plus = ak.QuantumState.pure([1 / np.sqrt(2), 1 / np.sqrt(2)])
        rotated = ak.QuantumState.pure([1j / np.sqrt(2), 1 / np.sqrt(2)])
        assert ak.unitary_set_interconversion([e0, plus], [e0, rotated]) is None

    def test_same_gram_triples(self, rng):
        for _ in range(5):
            states = [ak.random_pure_state(4, rng) for _ in range(3)]
            w = haar_unitary(4, rng)
            targets = [ak.QuantumState.pure(w @ s.vec) for s in states]
            v = ak.unitary_set_interconversion(states, targets)
            worst = max(
                np.linalg.norm(v @ s.vec - t.vec) for s, t in zip(states, targets)
            )
            assert worst <= 1e-9

    @pytest.mark.parametrize("count, dim, rank", [(30, 24, 5), (8, 6, 6), (12, 4, 2)])
    def test_overcomplete_rank_deficient_set(self, rng, count, dim, rank):
        # More states than the span's dimension, spanning only `rank` dimensions.
        basis = haar_unitary(dim, rng)[:, :rank]
        states = [
            ak.QuantumState.pure(basis @ c / np.linalg.norm(c))
            for c in rng.normal(size=(count, rank)) + 1j * rng.normal(size=(count, rank))
        ]
        w = haar_unitary(dim, rng)
        targets = [ak.QuantumState.pure(w @ s.vec) for s in states]
        v = ak.unitary_set_interconversion(states, targets)
        assert frob(v @ v.conj().T - np.eye(dim)) <= 1e-12
        assert max(np.linalg.norm(v @ s.vec - t.vec) for s, t in zip(states, targets)) <= 1e-12


class TestUnitaryGEquivalence:
    def test_positive_with_witness(self, decompositions, rng):
        dec = decompositions["s3"]
        for _ in range(10):
            psi = ak.random_pure_state(6, rng)
            v = ak.random_invariant_unitary(dec, rng)
            phi = ak.QuantumState.pure(v @ psi.vec)
            verdict = ak.decide_unitary_g_equivalence(psi, phi, dec)
            assert verdict.status is ak.EquivalenceStatus.EQUIVALENT
            assert_witness_sound(verdict, dec.rep, psi, phi)

    def test_disjoint_weights_not_equivalent(self, z16_number_dec):
        verdict = ak.decide_unitary_g_equivalence(
            plus_state(16, 0, 1), plus_state(16, 2, 3), z16_number_dec
        )
        assert verdict.status is ak.EquivalenceStatus.NOT_EQUIVALENT

    def test_negative_tol_rejected(self, decompositions, rng):
        psi = ak.random_pure_state(6, rng)
        with pytest.raises(ak.InvalidParameterError):
            ak.decide_unitary_g_equivalence(psi, psi, decompositions["s3"], tol=-1.0)

    def test_certificate_ignores_rounding_gap_at_zero_tol(self, z16_number_dec):
        # |chi| of the two states agree exactly in theory: no modulus certificate
        psi, phi = plus_state(16, 0, 1), plus_state(16, 2, 3)
        verdict = ak.decide_unitary_g_equivalence(psi, phi, z16_number_dec, tol=0.0)
        assert verdict.status is ak.EquivalenceStatus.NOT_EQUIVALENT
        assert verdict.certificate is None

    def test_self_equivalence_identity_witness(self, decompositions, rng):
        dec = decompositions["d4"]
        psi = ak.random_pure_state(8, rng)
        verdict = ak.decide_unitary_g_equivalence(psi, psi, dec)
        assert verdict.status is ak.EquivalenceStatus.EQUIVALENT
        assert frob(verdict.witness - np.eye(8)) < 1e-8

    def test_mixed_rejected(self, decompositions, rng):
        dec = decompositions["s3"]
        with pytest.raises(ak.PureStateRequiredError):
            ak.decide_unitary_g_equivalence(
                ak.random_mixed_state(6, rng), ak.random_pure_state(6, rng), dec
            )

    def test_transitivity_by_composition(self, decompositions, rng):
        dec = decompositions["s3"]
        psi = ak.random_pure_state(6, rng)
        phi = ak.QuantumState.pure(ak.random_invariant_unitary(dec, rng) @ psi.vec)
        xi = ak.QuantumState.pure(ak.random_invariant_unitary(dec, rng) @ phi.vec)
        v1 = ak.decide_unitary_g_equivalence(psi, phi, dec).witness
        v2 = ak.decide_unitary_g_equivalence(phi, xi, dec).witness
        composed = v2 @ v1
        overlap = np.vdot(xi.vec, composed @ psi.vec)
        assert abs(abs(overlap) - 1.0) < 1e-8


class TestGEquivalence:
    def test_z16_shift_pair(self, z16_number_rep, decompositions):
        psi = plus_state(16, 0, 1)
        phi = plus_state(16, 2, 3)
        verdict = ak.decide_g_equivalence(psi, phi, z16_number_rep, decompositions["z16"])
        assert verdict.status is ak.EquivalenceStatus.EQUIVALENT
        expected = np.exp(4j * np.pi * np.arange(16) / 16)
        assert np.max(np.abs(verdict.one_dim_rep - expected)) < 1e-8

    def test_self_trivial_omega(self, regular_reps, decompositions, rng):
        psi = ak.random_pure_state(6, rng)
        verdict = ak.decide_g_equivalence(psi, psi, regular_reps["s3"], decompositions["s3"])
        assert verdict.status is ak.EquivalenceStatus.EQUIVALENT
        assert np.allclose(verdict.one_dim_rep, 1.0)

    def test_not_equivalent_when_nonvanishing(self, regular_reps, decompositions, rng):
        r = regular_reps["s3"]
        dec = decompositions["s3"]
        omegas = ak.one_dim_reps(r.group, dec)
        found = 0
        while found < 5:
            psi = ak.random_pure_state(6, rng)
            phi = ak.random_pure_state(6, rng)
            chi1 = ak.charfunc(psi, r).values
            chi2 = ak.charfunc(phi, r).values
            if min(np.min(np.abs(chi1)), np.min(np.abs(chi2))) < 1e-3:
                continue
            # oracle: exhaustive scan over the one-dimensional reps
            if any(np.max(np.abs(chi2 - om * chi1)) < 1e-8 for om in omegas):
                continue
            found += 1
            verdict = ak.decide_g_equivalence(psi, phi, r, dec)
            assert verdict.status is ak.EquivalenceStatus.NOT_EQUIVALENT

    def test_inconclusive_on_vanishing_chi(self, groups, decompositions):
        r4 = ak.number_rep(groups["z4"], range(4))
        psi = plus_state(4, 0, 1)  # chi vanishes at the half turn
        phi = plus_state(4, 0, 2)  # different moduli, no omega can match
        verdict = ak.decide_g_equivalence(psi, phi, r4, decompositions["z4"])
        assert verdict.status is ak.EquivalenceStatus.INCONCLUSIVE
        assert verdict.certificate is not None

    def test_unitary_implies_full_with_trivial_omega(self, decompositions, rng):
        dec = decompositions["d4"]
        r = dec.rep
        psi = ak.random_pure_state(8, rng)
        phi = ak.QuantumState.pure(ak.random_invariant_unitary(dec, rng) @ psi.vec)
        assert ak.decide_unitary_g_equivalence(psi, phi, dec).status is ak.EquivalenceStatus.EQUIVALENT
        verdict = ak.decide_g_equivalence(psi, phi, r, decompositions["d4"])
        assert verdict.status is ak.EquivalenceStatus.EQUIVALENT
        assert np.allclose(verdict.one_dim_rep, 1.0, atol=1e-8)

    def test_incomplete_decomposition_rejected(self, groups, decompositions):
        # psi and phi differ by a weight shift: equivalent through a 1-dim rep,
        # which a decomposition of the trivial rep alone does not list.
        z4 = groups["z4"]
        r = ak.number_rep(z4, [0, 1, 2])
        psi = ak.QuantumState.pure([np.sqrt(0.7), np.sqrt(0.3), 0.0])
        phi = ak.QuantumState.pure([0.0, np.sqrt(0.7), np.sqrt(0.3)])
        assert ak.decide_g_equivalence(psi, phi, r).status is ak.EquivalenceStatus.EQUIVALENT
        with pytest.raises(ak.InvalidParameterError):
            ak.decide_g_equivalence(psi, phi, r, ak.decompose(ak.trivial_rep(z4)))
        with pytest.raises(ak.GroupMismatchError):
            ak.decide_g_equivalence(psi, phi, r, decompositions["klein"])

    def test_regular_blocks_computed_once(self, monkeypatch):
        z6 = ak.make_cyclic(6)
        r = ak.number_rep(z6, [0, 1])
        calls = []
        decompose = ak.reps.decompose

        def counting_decompose(*args, **kwargs):
            calls.append(args)
            return decompose(*args, **kwargs)

        monkeypatch.setattr(ak.reps, "decompose", counting_decompose)
        psi = ak.QuantumState.pure([0.6, 0.8])
        for _ in range(2):
            assert ak.decide_g_equivalence(psi, psi, r).status is ak.EquivalenceStatus.EQUIVALENT
        assert len(calls) == 1
        blocks = z6._regular_blocks
        assert blocks is not None and sum(blk.dim**2 for blk in blocks) == 6
        ak.one_dim_reps(z6)
        assert z6._regular_blocks is blocks and len(calls) == 1

    def test_mixed_rejected(self, z16_number_rep, rng):
        with pytest.raises(ak.PureStateRequiredError):
            ak.decide_g_equivalence(
                plus_state(16, 0, 1), ak.random_mixed_state(16, rng), z16_number_rep
            )


class TestU1Shift:
    def test_paper_pair(self):
        w1 = ak.WeightState({0: 0.5, 1: 0.5})
        w2 = ak.WeightState({2: 0.5, 3: 0.5})
        assert ak.u1_shift_equivalence(w1, w2) == 2

    def test_identity_shift(self):
        w = ak.WeightState({1: 0.25, 4: 0.75})
        assert ak.u1_shift_equivalence(w, w) == 0

    def test_no_shift(self):
        w1 = ak.WeightState({0: 0.5, 1: 0.5})
        w2 = ak.WeightState({0: 1 / 3, 1: 2 / 3})
        assert ak.u1_shift_equivalence(w1, w2) is None

    def test_agrees_with_zn_proxy(self, groups, decompositions, rng):
        # sample weight states with n_max <= 6 and compare against the
        # finite-group decider on Z16
        z16 = groups["z16"]
        r = ak.number_rep(z16, range(16))
        dec_reg = decompositions["z16"]
        for _ in range(12):
            k1 = int(rng.integers(1, 4))
            supp1 = sorted(rng.choice(7, size=k1, replace=False))
            amps1 = rng.normal(size=k1) + 1j * rng.normal(size=k1)
            amps1 /= np.linalg.norm(amps1)
            w1 = ak.WeightState.from_amplitudes(dict(zip(map(int, supp1), amps1)))
            if rng.random() < 0.5 and max(supp1) + 2 <= 6:
                shift = int(rng.integers(0, 3))
                w2 = ak.WeightState.from_amplitudes(
                    {n + shift: a for n, a in zip(map(int, supp1), amps1)}
                )
            else:
                k2 = int(rng.integers(1, 4))
                supp2 = sorted(rng.choice(7, size=k2, replace=False))
                amps2 = rng.normal(size=k2) + 1j * rng.normal(size=k2)
                amps2 /= np.linalg.norm(amps2)
                w2 = ak.WeightState.from_amplitudes(dict(zip(map(int, supp2), amps2)))
            delta = ak.u1_shift_equivalence(w1, w2)
            psi = ak.QuantumState.pure(w1.vector(16))
            phi = ak.QuantumState.pure(w2.vector(16))
            verdict = ak.decide_g_equivalence(psi, phi, r, dec_reg)
            if delta is not None:
                assert verdict.status is ak.EquivalenceStatus.EQUIVALENT
                expected = np.exp(2j * np.pi * delta * np.arange(16) / 16)
                assert np.max(np.abs(verdict.one_dim_rep - expected)) < 1e-8
            else:
                assert verdict.status is not ak.EquivalenceStatus.EQUIVALENT


class TestCovariantFromPlain:
    """Symmetrizing an arbitrary channel by group averaging (``twirl_channel``)."""

    def test_already_covariant_unchanged(self, regular_reps, rng):
        r = regular_reps["z3"]
        c = ak.twirl_channel(ak.random_channel(3, 2, rng), r)
        again = ak.twirl_channel(c, r)
        assert frob(c.choi() - again.choi()) < 1e-10

    def test_identity_fixed(self, regular_reps):
        r = regular_reps["z2"]
        out = ak.twirl_channel(ak.identity_channel(2), r)
        assert frob(out.choi() - ak.identity_channel(2).choi()) < 1e-12

    def test_twirl_of_conjugation_is_covariant(self, groups, rng):
        z2 = groups["z2"]
        r = ak.number_rep(z2, [0, 1])
        u = haar_unitary(2, rng)
        c = ak.channel_from_unitary(u)
        out = ak.twirl_channel(c, r)
        assert ak.is_g_covariant(out, r, r).covariant

    def test_orbit_map_average_preserves_target(self, z16_number_rep):
        # a plain map sending the whole orbit of psi to the orbit of phi
        # still maps psi to phi after averaging
        psi = plus_state(16, 0, 1)
        phi = plus_state(16, 2, 3)
        c = ak.shift_channel(16, 2)
        avg = ak.twirl_channel(c, z16_number_rep)
        out = ak.apply(avg, psi)
        assert frob(out.density() - phi.density()) < 1e-10


class TestIsometryExtension:
    def test_full_projector_returns_input(self, decompositions, rng):
        dec = decompositions["s3"]
        r = dec.rep
        w = ak.random_invariant_unitary(dec, rng)
        v = ak.extend_isometry_to_ginv_unitary(w, np.eye(6), r, dec)
        assert frob(v - w) < 1e-8

    def test_trivial_isotypic_completion(self, groups):
        # Z2 acting as diag(1, 1, -1): the first two basis vectors span the
        # trivial isotypic sector.  Map e0 -> e1 on a rank-1 support.
        z2 = groups["z2"]
        r = ak.number_rep(z2, [0, 0, 1])
        proj = np.diag([1.0, 0.0, 0.0]).astype(complex)
        w = np.zeros((3, 3), dtype=complex)
        w[1, 0] = 1.0  # acts as an isometry on span{e0}
        dec = ak.decompose(r, seed=0)
        v = ak.extend_isometry_to_ginv_unitary(w, proj, r, dec)
        assert np.linalg.norm(v @ np.array([1, 0, 0]) - np.array([0, 1, 0])) < 1e-8
        worst = max(frob(v @ r.mats[g] - r.mats[g] @ v) for g in range(2))
        assert worst < 1e-8

    def test_non_commuting_rejected(self, groups, rng):
        z2 = groups["z2"]
        r = ak.number_rep(z2, [0, 1])
        w = np.array([[0, 1], [1, 0]], dtype=complex)  # swaps the sectors
        with pytest.raises(ak.NotInvariantIsometryError):
            ak.extend_isometry_to_ginv_unitary(w, np.diag([1.0, 0.0]), r)

    def test_non_isometry_rejected(self, groups):
        z2 = groups["z2"]
        r = ak.number_rep(z2, [0, 1])
        w = 0.5 * np.eye(2, dtype=complex)
        with pytest.raises(ak.NotInvariantIsometryError):
            ak.extend_isometry_to_ginv_unitary(w, np.diag([1.0, 0.0]), r)


class TestSymmetryMonotonicity:
    def test_covariant_channels_never_lose_symmetries(self, regular_reps, rng):
        r = regular_reps["s3"]
        for _ in range(5):
            c = ak.twirl_channel(ak.random_channel(6, 2, rng), r)
            for _ in range(10):
                s = ak.random_pure_state(6, rng)
                before = set(ak.symmetry_subgroup(s, r).elements)
                after = set(ak.symmetry_subgroup(ak.apply(c, s), r).elements)
                assert before <= after


class TestWitnessDeterminism:
    def test_same_inputs_same_witness(self, decompositions, rng):
        dec = decompositions["s3"]
        psi = ak.random_pure_state(6, rng)
        phi = ak.QuantumState.pure(ak.random_invariant_unitary(dec, rng) @ psi.vec)
        v1 = ak.decide_unitary_g_equivalence(psi, phi, dec).witness
        v2 = ak.decide_unitary_g_equivalence(psi, phi, dec).witness
        assert np.array_equal(v1, v2)

    def test_phase_convention(self, decompositions, rng):
        dec = decompositions["d4"]
        psi = ak.random_pure_state(8, rng)
        phi = ak.QuantumState.pure(ak.random_invariant_unitary(dec, rng) @ psi.vec)
        v = ak.decide_unitary_g_equivalence(psi, phi, dec).witness
        j = int(np.argmax(np.abs(phi.vec)))
        ratio = (v @ psi.vec)[j] / phi.vec[j]
        assert abs(ratio.imag) < 1e-9 and ratio.real > 0


class TestOrbitPerspective:
    """Mapping the whole orbit with one plain unitary is the same power as
    mapping the state with an invariant unitary."""

    def test_equal_chi_pair_both_succeed(self, decompositions, rng):
        dec = decompositions["s3"]
        r = dec.rep
        psi = ak.random_pure_state(6, rng)
        phi = ak.QuantumState.pure(ak.random_invariant_unitary(dec, rng) @ psi.vec)
        orbit_psi = [ak.QuantumState.pure(r.mats[g] @ psi.vec) for g in range(6)]
        orbit_phi = [ak.QuantumState.pure(r.mats[g] @ phi.vec) for g in range(6)]
        v = ak.unitary_set_interconversion(orbit_psi, orbit_phi)
        assert v is not None
        worst = max(
            np.linalg.norm(v @ a.vec - b.vec) for a, b in zip(orbit_psi, orbit_phi)
        )
        assert worst <= 1e-8
        assert ak.decide_unitary_g_equivalence(psi, phi, dec).status is (
            ak.EquivalenceStatus.EQUIVALENT
        )

    def test_generic_pair_both_fail(self, decompositions, rng):
        dec = decompositions["s3"]
        r = dec.rep
        psi = ak.random_pure_state(6, rng)
        phi = ak.random_pure_state(6, rng)
        orbit_psi = [ak.QuantumState.pure(r.mats[g] @ psi.vec) for g in range(6)]
        orbit_phi = [ak.QuantumState.pure(r.mats[g] @ phi.vec) for g in range(6)]
        assert ak.unitary_set_interconversion(orbit_psi, orbit_phi) is None
        assert ak.decide_unitary_g_equivalence(psi, phi, dec).status is (
            ak.EquivalenceStatus.NOT_EQUIVALENT
        )
