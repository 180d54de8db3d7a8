"""Fidelity, optimal overlap with witness, and the lower bounds."""

import numpy as np
import pytest

import asymkit as ak
from asymkit.linalg import frob
from helpers import charfunc_bound_by_convolution, trace_distance_fidelity_check


def random_psd(dim, rng, rank=None):
    a = rng.normal(size=(dim, rank or dim)) + 1j * rng.normal(size=(dim, rank or dim))
    return a @ a.conj().T


class TestFidelity:
    def test_self_fidelity_is_trace(self, rng):
        a = random_psd(4, rng)
        assert abs(ak.fidelity(a, a) - np.trace(a).real) < 1e-9

    def test_disjoint_supports(self):
        assert ak.fidelity(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) < 1e-12

    def test_half_half_vs_pure(self):
        got = ak.fidelity(np.diag([0.5, 0.5]), np.diag([1.0, 0.0]))
        assert abs(got - 1 / np.sqrt(2)) < 1e-12

    def test_symmetry(self, rng):
        a = random_psd(3, rng)
        b = random_psd(3, rng)
        assert abs(ak.fidelity(a, b) - ak.fidelity(b, a)) < 1e-9

    def test_non_psd_rejected(self):
        with pytest.raises(ak.NotPositiveSemidefiniteError):
            ak.fidelity(np.diag([1.0, -0.5]), np.eye(2))


class TestMaxOverlap:
    def test_equivalent_states_reach_one(self, decompositions, rng):
        dec = decompositions["s3"]
        psi = ak.random_pure_state(6, rng)
        phi = ak.QuantumState.pure(ak.random_invariant_unitary(dec, rng) @ psi.vec)
        report = ak.max_overlap(psi, phi, dec)
        assert abs(report.optimal - 1.0) < 1e-10

    def test_self_overlap_is_one(self, decompositions, rng):
        dec = decompositions["d4"]
        psi = ak.random_pure_state(8, rng)
        assert abs(ak.max_overlap(psi, psi, dec).optimal - 1.0) < 1e-10

    def test_disjoint_sectors_zero(self, z16_number_dec):
        v1 = np.zeros(16)
        v1[0] = 1.0
        v2 = np.zeros(16)
        v2[5] = 1.0
        report = ak.max_overlap(
            ak.QuantumState.pure(v1), ak.QuantumState.pure(v2), z16_number_dec
        )
        assert report.optimal < 1e-12

    def test_achievability(self, decompositions, rng):
        for name in ("s3", "d4"):
            dec = decompositions[name]
            d = dec.rep.dim
            for _ in range(10):
                psi = ak.random_pure_state(d, rng)
                phi = ak.random_pure_state(d, rng)
                report = ak.max_overlap(psi, phi, dec)
                achieved = abs(np.vdot(phi.vec, report.witness @ psi.vec))
                assert abs(achieved - report.optimal) <= 1e-10

    def test_witness_is_invariant(self, decompositions, rng):
        dec = decompositions["s3"]
        psi = ak.random_pure_state(6, rng)
        phi = ak.random_pure_state(6, rng)
        v = ak.max_overlap(psi, phi, dec).witness
        worst = max(
            frob(v @ dec.rep.mats[g] - dec.rep.mats[g] @ v) for g in range(6)
        )
        assert worst < 1e-10
        assert frob(v @ v.conj().T - np.eye(6)) < 1e-10

    def test_no_sampled_invariant_unitary_beats_it(self, decompositions, rng):
        dec = decompositions["s3"]
        psi = ak.random_pure_state(6, rng)
        phi = ak.random_pure_state(6, rng)
        best = ak.max_overlap(psi, phi, dec).optimal
        for _ in range(200):
            v = ak.random_invariant_unitary(dec, rng)
            assert abs(np.vdot(phi.vec, v @ psi.vec)) <= best + 1e-8

    def test_three_level_example_against_grid_oracle(self, groups):
        # action diag(1, 1, -1) of the two-element group: the optimum over
        # block unitaries diag(U2, phase) for (1,0,0) -> (0, r, r) is sqrt(1/2)
        z2 = groups["z2"]
        r = ak.number_rep(z2, [0, 0, 1])
        dec = ak.decompose(r, seed=0)
        psi = ak.QuantumState.pure([1.0, 0.0, 0.0])
        phi = ak.QuantumState.pure([0.0, np.sqrt(0.5), np.sqrt(0.5)])
        report = ak.max_overlap(psi, phi, dec)
        assert abs(report.optimal - np.sqrt(0.5)) < 1e-9
        # oracle: exhaustive grid over the two angles that matter; the first
        # column of U2 is (cos t, e^{i a} sin t) and the sign-sector phase
        # never touches psi
        best = 0.0
        for t in np.linspace(0, np.pi / 2, 401):
            for a in np.linspace(0, 2 * np.pi, 401, endpoint=False):
                mapped = np.array([np.cos(t), np.exp(1j * a) * np.sin(t), 0.0])
                best = max(best, abs(np.vdot(phi.vec, mapped)))
        assert abs(report.optimal - best) < 1e-6

    def test_mixed_rejected(self, decompositions, rng):
        with pytest.raises(ak.PureStateRequiredError):
            ak.max_overlap(
                ak.random_mixed_state(6, rng), ak.random_pure_state(6, rng),
                decompositions["s3"],
            )


class TestBounds:
    def test_identical_states_saturate(self, decompositions, rng):
        dec = decompositions["s3"]
        psi = ak.random_pure_state(6, rng)
        report = ak.max_overlap(psi, psi, dec)
        assert abs(report.bound_trace - 1.0) < 1e-10
        bg, bpm = report.bound_charfunc_global, report.bound_charfunc_per_mu
        assert abs(bg - 1.0) < 1e-10 and abs(bpm - 1.0) < 1e-10

    def test_disjoint_sectors_vacuous(self, z16_number_dec):
        v1 = np.zeros(16)
        v1[0] = 1.0
        v2 = np.zeros(16)
        v2[5] = 1.0
        bound = ak.max_overlap(
            ak.QuantumState.pure(v1), ak.QuantumState.pure(v2), z16_number_dec
        ).bound_trace
        assert bound <= 1e-12

    def test_bounds_never_exceed_optimal(self, decompositions, rng):
        for name in ("s3", "d4"):
            dec = decompositions[name]
            d = dec.rep.dim
            for _ in range(25):
                psi = ak.random_pure_state(d, rng)
                phi = ak.random_pure_state(d, rng)
                report = ak.max_overlap(psi, phi, dec)
                assert report.bound_trace <= report.optimal + 1e-8
                assert report.bound_charfunc_global <= report.optimal + 1e-8
                assert report.bound_charfunc_per_mu <= report.optimal + 1e-8


class TestIrrepComponents:
    def test_single_sector_state_components_vanish_elsewhere(self, decompositions):
        dec = decompositions["s3"]
        idx = next(i for i, b in enumerate(dec.blocks) if b.dim == 2)
        e = np.zeros(6, dtype=complex)
        e[dec.offsets[idx]] = 1.0
        psi = ak.QuantumState.pure(dec.basis.conj().T @ e)
        chi = ak.charfunc(psi, dec.rep)
        for i in range(len(dec.blocks)):
            comp = ak.irrep_component(chi, dec, i)
            if i == idx:
                assert np.max(np.abs(comp.values)) > 0.1
            else:
                assert np.max(np.abs(comp.values)) < 1e-10

    def test_components_match_reduction_traces(self, decompositions, rng):
        dec = decompositions["d4"]
        psi = ak.random_pure_state(8, rng)
        chi = ak.charfunc(psi, dec.rep)
        red = ak.reduction_onto_irreps(psi, dec)
        for i, blk in enumerate(dec.blocks):
            comp = ak.irrep_component(chi, dec, i)
            direct = np.einsum("ij,gji->g", red.blocks[i], blk.mats)
            assert np.max(np.abs(comp.values - direct)) < 1e-10

    def test_components_sum_to_function(self, decompositions, rng):
        dec = decompositions["s3"]
        psi = ak.random_pure_state(6, rng)
        chi = ak.charfunc(psi, dec.rep)
        total = sum(ak.irrep_component(chi, dec, i).values for i in range(len(dec.blocks)))
        assert np.max(np.abs(total - chi.values)) < 1e-10


class TestComponentsAgainstConvolution:
    """Components and bounds against the |G| x |G| convolution they replace."""

    @pytest.mark.parametrize("name", ["s3", "d4", "s4", "s3_square_dec"])
    def test_component_is_scaled_character_convolution(self, name, decompositions, request, rng):
        dec = decompositions.get(name) or request.getfixturevalue(name)
        n = dec.rep.group.order
        # a complex group function that is not a characteristic function
        f = ak.CharFunction(dec.rep.group, rng.normal(size=n) + 1j * rng.normal(size=n))
        for i, blk in enumerate(dec.blocks):
            character = ak.CharFunction(dec.rep.group, np.einsum("gii->g", blk.mats))
            expected = blk.dim * ak.convolve(character, f).values
            assert np.max(np.abs(ak.irrep_component(f, dec, i).values - expected)) < 1e-10

    @pytest.mark.parametrize("name", ["s4", "z16_number_x3_dec", "s3_square_dec"])
    def test_bound_matches_convolution_formula(self, name, decompositions, request, rng):
        dec = decompositions.get(name) or request.getfixturevalue(name)
        d = dec.rep.dim
        pairs = [
            (ak.random_pure_state(d, rng), ak.random_pure_state(d, rng)) for _ in range(10)
        ]
        # no weight on the first sector: in both states it drops out of the
        # sums, in one state only it stays in
        coords = [ak.random_pure_state(d, rng).vec for _ in range(2)]
        for x in coords:
            x[dec.sector_slice(0)] = 0.0
        both = [ak.QuantumState.pure(dec.basis.conj().T @ x / np.linalg.norm(x)) for x in coords]
        pairs += [tuple(both), (both[0], ak.random_pure_state(d, rng))]
        for psi, phi in pairs:
            report = ak.max_overlap(psi, phi, dec)
            got = (report.bound_charfunc_global, report.bound_charfunc_per_mu)
            expected = charfunc_bound_by_convolution(psi, phi, dec)
            assert np.max(np.abs(np.subtract(got, expected))) < 1e-10


class TestTraceDistanceFidelityInequality:
    def test_equal_matrices(self, rng):
        a = random_psd(3, rng)
        assert trace_distance_fidelity_check(a, a)

    def test_disjoint_supports(self):
        assert trace_distance_fidelity_check(np.diag([1.0, 0.0]), np.diag([0.0, 2.0]))

    def test_random_sweep(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 7))
            a = random_psd(d, rng, rank=int(rng.integers(1, d + 1)))
            b = random_psd(d, rng, rank=int(rng.integers(1, d + 1)))
            assert trace_distance_fidelity_check(a, b)
