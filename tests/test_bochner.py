"""Positive-definiteness test and the constructive inverse (GNS)."""

import numpy as np
import pytest

import asymkit as ak
from asymkit import reps
from helpers import perm_rep


def translation_gram(f: ak.CharFunction) -> np.ndarray:
    """Independent PSD oracle: the full |G| x |G| translated Gram matrix."""
    g = f.group
    return f.values[g.mul[g.inv]]


class TestPositiveDefinite:
    def test_state_functions_accepted(self, regular_reps, decompositions, rng):
        for name in ("z6", "s3", "d4"):
            r = regular_reps[name]
            dec = decompositions[name]
            for _ in range(5):
                s = ak.random_pure_state(r.dim, rng)
                report = ak.is_positive_definite(ak.charfunc(s, r), dec)
                assert report.positive_definite
                assert report.normalized

    def test_z2_negative_value(self, groups, decompositions):
        f = ak.CharFunction(groups["z2"], np.array([1.0, -3.0], dtype=complex))
        report = ak.is_positive_definite(f, decompositions["z2"])
        assert not report.positive_definite
        # Gram units: X = [[1, -3], [-3, 1]] has eigenvalue -2 = (|G|/d) * (-1)
        assert abs(report.min_eigenvalue - (-2.0)) < 1e-12
        # the offending block is the trivial one (all-ones character)
        blk = next(
            b
            for b in decompositions["z2"].blocks
            if b.label == report.worst_block
        )
        assert np.allclose(blk.mats[:, 0, 0], 1.0)

    def test_negative_tol_rejected(self, groups, decompositions):
        f = ak.CharFunction(groups["z2"], np.array([1.0, 0.5], dtype=complex))
        with pytest.raises(ak.InvalidParameterError):
            ak.is_positive_definite(f, decompositions["z2"], tol=-1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_rejected(self, groups, decompositions, bad):
        f = ak.CharFunction(groups["z4"], np.array([1.0, bad, 0.0, 0.0], dtype=complex))
        with pytest.raises(ak.InvalidCharacteristicFunctionError, match="NaN or infinite"):
            ak.is_positive_definite(f, decompositions["z4"])

    def test_delta_function_accepted(self, groups, decompositions):
        for name in ("z3", "s3"):
            g = groups[name]
            vals = np.zeros(g.order, dtype=complex)
            vals[0] = 1.0
            report = ak.is_positive_definite(ak.CharFunction(g, vals), decompositions[name])
            assert report.positive_definite
            # every Fourier block is d/|G| times the identity
            dec = decompositions[name]
            for blk, b in zip(dec.blocks, ak.states.fourier_blocks(vals, dec)):
                assert np.allclose(b, blk.dim / g.order * np.eye(blk.dim), atol=1e-12)

    def test_incomplete_decomposition_rejected(self, groups, decompositions):
        # Over the trivial irrep alone, f = [1, 3] has the PSD block [2].
        z2 = groups["z2"]
        f = ak.CharFunction(z2, np.array([1.0, 3.0], dtype=complex))
        assert not ak.is_positive_definite(f, decompositions["z2"]).positive_definite
        with pytest.raises(ak.InvalidParameterError):
            ak.is_positive_definite(f, ak.decompose(ak.trivial_rep(z2)))
        with pytest.raises(ak.GroupMismatchError):
            ak.is_positive_definite(f, decompositions["z3"])

    def test_gram_spectrum_is_block_spectrum(self, rng):
        # spec X = union over mu of (|G|/d_mu) spec Herm B_mu, each d_mu times,
        # and ||X||_F = sqrt(|G|) ||f||: the Gram test written in Fourier blocks.
        for g in (ak.make_symmetric(4), ak.make_dihedral(5), ak.make_cyclic(12)):
            dec = ak.decompose(ak.regular_rep(g), seed=0)
            vals = rng.normal(size=g.order) + 1j * rng.normal(size=g.order)
            x = translation_gram(ak.CharFunction(g, vals))
            blocks = ak.states.fourier_blocks(vals, dec)
            gammas = [
                np.repeat(g.order / blk.dim * np.linalg.eigvalsh(0.5 * (b + b.conj().T)), blk.dim)
                for blk, b in zip(dec.blocks, blocks)
            ]
            spec = np.linalg.eigvalsh(0.5 * (x + x.conj().T))
            assert np.max(np.abs(np.sort(np.concatenate(gammas)) - spec)) < 1e-12 * g.order
            assert abs(np.linalg.norm(x) - np.sqrt(g.order) * np.linalg.norm(vals)) < 1e-12 * g.order

    def test_agrees_with_gram_oracle(self, groups, decompositions, rng):
        g = groups["s3"]
        dec = decompositions["s3"]
        for _ in range(20):
            vals = rng.normal(size=6) + 1j * rng.normal(size=6)
            vals[0] = 1.0
            # symmetrize so the Gram matrix is at least Hermitian
            vals = 0.5 * (vals + np.conj(vals[g.inv]))
            f = ak.CharFunction(g, vals)
            report = ak.is_positive_definite(f, dec)
            oracle = float(np.linalg.eigvalsh(translation_gram(f))[0]) >= -1e-9
            assert report.positive_definite == oracle


@pytest.fixture(scope="module")
def sweep_decs():
    made = {"s4": ak.make_symmetric(4), "d5": ak.make_dihedral(5), "z12": ak.make_cyclic(12),
            "z120": ak.make_cyclic(120)}
    return {name: ak.decompose(ak.regular_rep(g), seed=0) for name, g in made.items()}


def gram_threshold(values: np.ndarray) -> float:
    """The Bochner threshold 1e-9 * max(1, ||X||_F), with ||X||_F = sqrt(|G|) ||f||."""
    return 1e-9 * max(1.0, np.sqrt(values.size) * np.linalg.norm(values))


def with_block_eigenvalue(chi: ak.CharFunction, dec, index: int, lam: float) -> ak.CharFunction:
    """chi with the least eigenvalue of Fourier block `index` set to lam, scaled to f(e) = 1."""
    blocks = ak.states.fourier_blocks(chi.values, dec)
    w, v = np.linalg.eigh(blocks[index])
    w[0] = lam
    blocks[index] = (v * w) @ v.conj().T
    total = sum(np.trace(b).real for b in blocks)
    red = ak.IrrepReduction([b.label for b in dec.blocks], [b / total for b in blocks])
    return ak.charfunc_from_reduction(red, dec)


def agreed_verdict(f: ak.CharFunction, dec) -> bool:
    """The verdict of both Bochner entry points, asserting that they agree and
    that the report is in Gram units."""
    report = ak.is_positive_definite(f, dec)
    try:
        ak.gns_construct(f)
        realizable = True
    except ak.InvalidCharacteristicFunctionError:
        realizable = False
    assert report.positive_definite == realizable
    x = translation_gram(f)
    n = f.group.order
    assert abs(report.min_eigenvalue - np.linalg.eigvalsh(0.5 * (x + x.conj().T))[0]) <= 1e-12 * n
    assert abs(report.hermiticity_residual - np.linalg.norm(x - x.conj().T)) <= 1e-12 * n
    return realizable


class TestOneRule:
    """is_positive_definite and gns_construct decide with one rule, in Gram units."""

    @pytest.mark.parametrize("c", [-10.0, -2.0, -0.5, 0.5, 2.0, 10.0])
    @pytest.mark.parametrize("name", ["s4", "d5", "z12"])
    def test_block_eigenvalue_at_threshold_multiples(self, sweep_decs, name, c, rng):
        # One block eigenvalue at gamma = c * t, all others far above: PD iff c > -1.
        dec = sweep_decs[name]
        n = dec.rep.group.order
        chi = ak.charfunc(ak.random_pure_state(n, rng), dec.rep)
        t = gram_threshold(chi.values)
        for index in (0, len(dec.blocks) - 1):
            lam = c * t * dec.blocks[index].dim / n
            assert agreed_verdict(with_block_eigenvalue(chi, dec, index, lam), dec) == (c > -1)

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    @pytest.mark.parametrize("name", ["s4", "d5", "z12"])
    def test_hermiticity_residual_at_threshold_multiples(self, sweep_decs, name, c, rng):
        # f(g) += eps at one g != g^-1 gives ||X - X^dag||_F = sqrt(2|G|) |eps| = c * t.
        dec = sweep_decs[name]
        group = dec.rep.group
        vals = ak.charfunc(ak.random_pure_state(group.order, rng), dec.rep).values.copy()
        g = next(k for k in range(group.order) if group.inv[k] != k)
        vals[g] += 1j * c * gram_threshold(vals) / np.sqrt(2 * group.order)
        assert agreed_verdict(ak.CharFunction(group, vals), dec) == (c < 1)

    def test_z120_dented_block_rejected_by_both(self, sweep_decs, rng):
        # A 1-dim block at -1e-9 is a Gram eigenvalue of -1.2e-7, about -8 t.
        dec = sweep_decs["z120"]
        chi = ak.charfunc(ak.random_pure_state(120, rng), dec.rep)
        assert not agreed_verdict(with_block_eigenvalue(chi, dec, 60, -1e-9), dec)


class TestGns:
    def test_one_dim_rep_recovered(self, groups, decompositions):
        om = ak.one_dim_reps(groups["z6"], decompositions["z6"])[2]
        res = ak.gns_construct(ak.CharFunction(groups["z6"], om))
        assert res.dim == 1
        assert np.max(np.abs(res.rep.mats[:, 0, 0] - om)) < 1e-9

    def test_two_level_superposition(self, groups):
        n = 16
        vals = 0.5 * (1 + np.exp(2j * np.pi * np.arange(n) / n))
        res = ak.gns_construct(ak.CharFunction(groups["z16"], vals))
        assert res.dim == 2
        chi = ak.charfunc(res.state, res.rep)
        assert np.max(np.abs(chi.values - vals)) <= 1e-10

    def test_round_trip_random_states(self, regular_reps, rng):
        r = regular_reps["s3"]
        for _ in range(10):
            s = ak.random_pure_state(6, rng)
            f = ak.charfunc(s, r)
            res = ak.gns_construct(f)
            chi = ak.charfunc(res.state, res.rep)
            assert np.max(np.abs(chi.values - f.values)) <= 1e-9

    def test_cyclicity_dimension(self, regular_reps, rng):
        # GNS dimension = rank of the Gram matrix = dim span{U(g) psi}
        r = regular_reps["d4"]
        for _ in range(5):
            s = ak.random_pure_state(8, rng)
            f = ak.charfunc(s, r)
            res = ak.gns_construct(f)
            orbit = np.array([r.mats[g] @ s.vec for g in range(8)])
            orbit_rank = int(np.sum(np.linalg.svd(orbit, compute_uv=False) > 1e-9))
            gram_rank = int(np.sum(np.linalg.eigvalsh(translation_gram(f)) > 1e-9))
            assert res.dim == orbit_rank == gram_rank
            # and the reconstructed vector is cyclic on its carrier
            rec_orbit = np.array([res.rep.mats[g] @ res.state.vec for g in range(8)])
            assert int(np.sum(np.linalg.svd(rec_orbit, compute_uv=False) > 1e-9)) == res.dim

    def test_mixed_state_function_also_realizable(self, regular_reps, rng):
        # any valid function comes from some pure cyclic vector, even when it
        # was produced by a mixed state
        r = regular_reps["z6"]
        s = ak.random_mixed_state(6, rng)
        f = ak.charfunc(s, r)
        res = ak.gns_construct(f)
        chi = ak.charfunc(res.state, res.rep)
        assert np.max(np.abs(chi.values - f.values)) <= 1e-9

    def test_invalid_function_rejected(self, groups):
        f = ak.CharFunction(groups["z2"], np.array([1.0, -3.0], dtype=complex))
        with pytest.raises(ak.InvalidCharacteristicFunctionError):
            ak.gns_construct(f)

    def test_unnormalized_rejected(self, groups):
        f = ak.CharFunction(groups["z2"], np.array([0.9, 0.0], dtype=complex))
        with pytest.raises(ak.InvalidCharacteristicFunctionError):
            ak.gns_construct(f)

    def test_nan_rejected(self, groups):
        f = ak.CharFunction(groups["z2"], np.array([1.0, np.nan], dtype=complex))
        with pytest.raises(ak.InvalidCharacteristicFunctionError, match="Hermitian"):
            ak.gns_construct(f)


def gram_rank(f: ak.CharFunction) -> int:
    """Rank of the translated Gram matrix under the GNS truncation at 1e-10 of the top."""
    spec = np.linalg.eigvalsh(translation_gram(f))
    return int(np.sum(spec > 1e-10 * spec[-1]))


def chi_error(f: ak.CharFunction, res: ak.GnsResult) -> float:
    return float(np.max(np.abs(ak.charfunc(res.state, res.rep).values - f.values)))


class TestGnsLadder:
    """Larger groups and structured functions: the block-diagonal Gram-eigenbasis carrier."""

    @pytest.mark.parametrize("make, n", [(ak.make_symmetric, 5), (ak.make_cyclic, 120)])
    def test_full_rank_regular(self, make, n, rng):
        group = make(n)
        f = ak.charfunc(ak.random_pure_state(group.order, rng), ak.regular_rep(group))
        res = ak.gns_construct(f)
        assert chi_error(f, res) <= 1e-9
        assert res.dim == gram_rank(f) == group.order

    def test_low_rank_s5_permutation_state(self, rng):
        s5 = ak.make_symmetric(5)
        f = ak.charfunc(ak.random_pure_state(5, rng), perm_rep(s5))
        res = ak.gns_construct(f)
        assert chi_error(f, res) <= 1e-9
        assert res.dim == gram_rank(f) == 5  # trivial + standard, one copy each

    @pytest.mark.parametrize("name", ["z6", "s4"])
    def test_delta_is_regular(self, groups, name):
        group = groups[name]
        f = ak.CharFunction(group, np.eye(group.order)[0].astype(complex))
        res = ak.gns_construct(f)
        assert res.dim == group.order
        assert res.rep._monomial is not None
        assert chi_error(f, res) <= 1e-9

    def test_normalized_irreducible_character(self, groups, decompositions):
        for blk in decompositions["s4"].blocks:
            f = ak.CharFunction(groups["s4"], blk.character_per_element() / blk.dim)
            res = ak.gns_construct(f)
            assert res.dim == blk.dim**2
            assert chi_error(f, res) <= 1e-9

    def test_abelian_rep_is_monomial(self, regular_reps, rng):
        f = ak.charfunc(ak.random_pure_state(16, rng), regular_reps["z16"])
        res = ak.gns_construct(f)
        assert res.rep._monomial is not None
        assert chi_error(f, res) <= 1e-9

    @pytest.mark.parametrize("name", ["s3", "s4", "d4"])
    def test_split_eigenspace_never_returned(self, monkeypatch, regular_reps, name, rng):
        # With no clustering gap every degenerate Gram eigenspace is cut into
        # pieces that are not invariant; that must raise, not realize chi != f.
        monkeypatch.setattr(reps, "_CLUSTER_GAP", 0.0)
        r = regular_reps[name]
        for _ in range(3):
            f = ak.charfunc(ak.random_pure_state(r.dim, rng), r)
            with pytest.raises(ak.NumericalDegeneracyError, match="misses f"):
                ak.gns_construct(f)


class TestPerturbationRejection:
    def test_verdict_exactly_tracks_validity(self, regular_reps, decompositions, rng):
        # A -0.1 dent at one element may or may not destroy positive
        # definiteness (at an involution it is diluted by 1/|G| per block);
        # what must hold is that the verdict agrees with the exact Gram
        # oracle in every single trial, in both directions.
        for name in ("s3", "z16", "d4"):
            r = regular_reps[name]
            dec = decompositions[name]
            for _ in range(25):
                s = ak.random_pure_state(r.dim, rng)
                vals = ak.charfunc(s, r).values.copy()
                g = int(rng.integers(1, r.dim))
                vals[g] -= 0.1
                f = ak.CharFunction(r.group, vals)
                report = ak.is_positive_definite(f, dec)
                x = translation_gram(f)
                genuinely_valid = (
                    np.linalg.norm(x - x.conj().T) <= 1e-9
                    and np.linalg.eigvalsh(0.5 * (x + x.conj().T))[0] >= -1e-9
                )
                assert report.positive_definite == genuinely_valid

    def test_high_rejection_rate_on_cyclic_proxy(self, regular_reps, decompositions, rng):
        # On Z16 only the half-turn is an involution, so a single-point dent
        # almost always breaks Hermitian symmetry or positivity outright.
        r = regular_reps["z16"]
        dec = decompositions["z16"]
        rejected = 0
        trials = 60
        for _ in range(trials):
            s = ak.random_pure_state(16, rng)
            vals = ak.charfunc(s, r).values.copy()
            vals[int(rng.integers(1, 16))] -= 0.1
            if not ak.is_positive_definite(ak.CharFunction(r.group, vals), dec):
                rejected += 1
        assert rejected >= int(0.95 * trials)
