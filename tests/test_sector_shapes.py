"""Sector queries batched by shape (d_mu, n_mu) against per-sector references.

Every reference below is the per-sector loop the batched kernels replaced:
one slice of W vec, one SVD, one ``np.kron`` or one Fourier block per sector,
in block order.  Only the summation order differs, so values agree within
1e-12; decompositions whose blocks are permuted out of table order check that
every per-block output keeps block order and labels.
"""

from __future__ import annotations

import numpy as np
import pytest

import asymkit as ak
from asymkit.equivalence import CHI_MATCH_TOL
from asymkit.linalg import assert_psd, frob, haar_unitary
from asymkit.states import _inverse_block
from helpers import sector_gaps_by_shape

TOL = 1e-12


@pytest.fixture(scope="module")
def all_decs(decompositions, s3_square_dec, z16_number_x3_dec):
    """Every regular fixture, S3reg (x) S3reg (shapes (1, 6) and (2, 12)) and Z16
    number x3 (sixteen sectors of shape (1, 3))."""
    return {**decompositions, "s3_square": s3_square_dec, "z16_number_x3": z16_number_x3_dec}


def ref_sectors(dec, vec):
    x = dec.basis @ vec
    return [x[dec.sector_slice(i)].reshape(b.dim, b.mult) for i, b in enumerate(dec.blocks)]


def ref_invariant_unitary(dec, vs):
    out = np.zeros((dec.rep.dim, dec.rep.dim), dtype=complex)
    for i, (blk, v) in enumerate(zip(dec.blocks, vs)):
        out[dec.sector_slice(i), dec.sector_slice(i)] = np.kron(np.eye(blk.dim), v)
    return dec.basis.conj().T @ out @ dec.basis


def ref_forward(values, group, blk):
    """One Fourier block d_mu avg_g values(g^-1) U_mu(g)."""
    return blk.dim * np.einsum("g,gij->ij", values[group.inv], blk.mats) / group.order


def ref_align(dec, a, b):
    vs, shares = [], []
    for x, y in zip(ref_sectors(dec, a), ref_sectors(dec, b)):
        u, s, vh = np.linalg.svd(y.conj().T @ x)
        vs.append(np.conj(u @ vh))
        shares.append(float(s.sum()))
    return ref_invariant_unitary(dec, vs), shares


def ref_bounds(dec, a, b):
    """(trace, charfunc global, charfunc per-component) bounds, one sector at a time."""
    red1 = [x @ x.conj().T for x in ref_sectors(dec, a)]
    red2 = [y @ y.conj().T for y in ref_sectors(dec, b)]
    dist = sum(np.linalg.svd(f1 - f2, compute_uv=False).sum() for f1, f2 in zip(red1, red2))
    gaps = [f1 - f2 for f1, f2 in zip(red1, red2)]
    rows = [np.einsum("ij,gji->g", gap, blk.mats) for blk, gap in zip(dec.blocks, gaps)]
    active = [
        i
        for i, (f1, f2) in enumerate(zip(red1, red2))
        if max(np.trace(f1).real, np.trace(f2).real) > 1e-12
    ]
    d2 = sum(dec.blocks[i].dim ** 2 for i in active)
    per = sum(dec.blocks[i].dim ** 2 * np.mean(np.abs(rows[i])) for i in active)
    return 1 - 0.5 * dist, 1 - 0.5 * d2 * np.mean(np.abs(sum(rows))), 1 - 0.5 * per


def state_pairs(dec, rng, count=2):
    """Random pairs, then a pair where psi misses sector 0, phi sector 1 and both sector 2."""
    for _ in range(count):
        yield (ak.random_pure_state(dec.rep.dim, rng) for _ in range(2))
    x, y = (dec.basis @ ak.random_pure_state(dec.rep.dim, rng).vec for _ in range(2))
    for z, missed in ((x, [0, 2]), (y, [1, 2])):
        for i in missed[: len(dec.blocks) - 1]:
            z[dec.sector_slice(i)] = 0.0
    yield (ak.QuantumState.pure(dec.basis.conj().T @ z / np.linalg.norm(z)) for z in (x, y))


def planted_pairs(dec, rng):
    """psi with phi = V psi for a random invariant V, and with phi's last sector then scaled by
    1.1 and renormalized, so that the pair is inequivalent."""
    psi = ak.random_pure_state(dec.rep.dim, rng)
    y = dec.basis @ ak.random_invariant_unitary(dec, rng) @ psi.vec
    yield psi, ak.QuantumState.pure(dec.basis.conj().T @ y)
    y[dec.sector_slice(len(dec.blocks) - 1)] *= 1.1
    yield psi, ak.QuantumState.pure(dec.basis.conj().T @ y / np.linalg.norm(y))


class TestAgainstPerSectorLoops:
    def test_uequiv_verdict_is_the_per_shape_svd_oracle(self, all_decs, shuffled, rng):
        """The verdict at tol 0.5x and 2x the pair's largest sector gap is the oracle's; a planted
        pair's gaps are rounding, so its tol is taken from at least 1e-12."""
        for dec in [*all_decs.values(), shuffled]:
            for psi, phi in [*state_pairs(dec, rng), *planted_pairs(dec, rng)]:
                gaps = sector_gaps_by_shape(dec, psi.vec, phi.vec)
                top = max(gaps.max(), 1e-12)
                for tol in (0.5 * top, 2 * top):
                    got = ak.decide_unitary_g_equivalence(psi, phi, dec, tol=tol)
                    assert bool(got) == bool((gaps <= tol).all())
                    assert (got.witness is None) == (not (gaps <= tol).all())

    def test_invariant_unitary_is_the_kron_assembly(self, all_decs, shuffled, rng):
        for dec in [*all_decs.values(), shuffled]:
            vs = [haar_unitary(blk.mult, rng) for blk in dec.blocks]
            assert frob(dec.invariant_unitary(vs) - ref_invariant_unitary(dec, vs)) <= TOL

    def test_vector_sectors(self, all_decs, shuffled, rng):
        for dec in [*all_decs.values(), shuffled]:
            vec = ak.random_pure_state(dec.rep.dim, rng).vec
            got, want = dec.vector_sectors(vec), ref_sectors(dec, vec)
            assert [x.shape for x in got] == [x.shape for x in want]
            assert all(np.array_equal(x, y) for x, y in zip(got, want))

    def test_align_shares_are_sector_fidelities(self, all_decs, shuffled, rng):
        for dec in [*all_decs.values(), shuffled]:
            for psi, phi in state_pairs(dec, rng):
                v, shares = dec.align(psi.vec, phi.vec)
                v_ref, shares_ref = ref_align(dec, psi.vec, phi.vec)
                assert np.allclose(shares, shares_ref, rtol=0, atol=TOL)
                # the SVD completion may differ, but not its action on psi
                assert frob(v @ psi.vec - v_ref @ psi.vec) <= 1e-10
                sectors = zip(ref_sectors(dec, psi.vec), ref_sectors(dec, phi.vec), shares)
                for x, y, share in sectors:
                    assert abs(share - ak.fidelity(x @ x.conj().T, y @ y.conj().T)) <= 1e-10

    def test_overlap_bounds(self, all_decs, shuffled, rng):
        for dec in [*all_decs.values(), shuffled]:
            for psi, phi in state_pairs(dec, rng):
                report = ak.max_overlap(psi, phi, dec)
                trace, chi_global, chi_per_mu = ref_bounds(dec, psi.vec, phi.vec)
                got = (report.bound_trace, report.bound_charfunc_global)
                assert np.allclose(got, (trace, chi_global), rtol=0, atol=TOL)
                assert abs(report.bound_charfunc_per_mu - chi_per_mu) <= TOL

    def test_reductions(self, all_decs, shuffled, rng):
        for dec in [*all_decs.values(), shuffled]:
            psi = ak.random_pure_state(dec.rep.dim, rng)
            red = ak.reduction_onto_irreps(psi, dec)
            for got, x in zip(red.blocks, ref_sectors(dec, psi.vec)):
                assert frob(got - x @ x.conj().T) <= TOL
            mixed = ak.random_mixed_state(dec.rep.dim, rng, rank=2)
            rho = dec.basis @ mixed.rho @ dec.basis.conj().T
            red = ak.reduction_onto_irreps(mixed, dec)
            for i, (blk, got) in enumerate(zip(dec.blocks, red.blocks)):
                sl = dec.sector_slice(i)
                sector = rho[sl, sl].reshape(blk.dim, blk.mult, blk.dim, blk.mult)
                assert frob(got - np.einsum("mnkn->mk", sector)) <= TOL

    def test_fourier_inverse_is_the_forward_block(self, all_decs, shuffled, rng):
        for dec in [*all_decs.values(), shuffled]:
            chi = ak.charfunc(ak.random_pure_state(dec.rep.dim, rng), dec.rep)
            red = ak.fourier_inverse(chi, dec)
            assert red.labels == [blk.label for blk in dec.blocks]
            for blk, got in zip(dec.blocks, red.blocks):
                assert frob(got - ref_forward(chi.values, dec.rep.group, blk)) <= TOL
            back = sum(_inverse_block(f, blk.mats) for blk, f in zip(dec.blocks, red.blocks))
            assert frob(back - chi.values) <= 1e-10

    def test_charfunc_from_reduction_is_the_per_block_sum(self, all_decs, shuffled, rng):
        for dec in [*all_decs.values(), shuffled]:
            d = dec.rep.dim
            for s in (ak.random_pure_state(d, rng), ak.random_mixed_state(d, rng)):
                red = ak.reduction_onto_irreps(s, dec)
                want = sum(_inverse_block(f, blk.mats) for blk, f in zip(dec.blocks, red.blocks))
                assert frob(ak.charfunc_from_reduction(red, dec).values - want) <= TOL


class TestBlockOrder:
    """Outputs keyed or listed per block follow block order, also where the sectors
    of one shape are not adjacent and the labels are not ascending."""

    def test_overlap_and_reduction(self, shuffled, rng):
        labels = [blk.label for blk in shuffled.blocks]
        assert labels == [3, 0, 2, 1, 4]
        psi, phi = (ak.random_pure_state(24, rng) for _ in range(2))
        report = ak.max_overlap(psi, phi, shuffled)
        assert list(report.per_mu_fidelity) == labels
        _, shares = ref_align(shuffled, psi.vec, phi.vec)
        assert np.allclose(list(report.per_mu_fidelity.values()), shares, rtol=0, atol=TOL)
        red = ak.reduction_onto_irreps(psi, shuffled)
        assert red.labels == labels
        assert [b.shape for b in red.blocks] == [(3, 3), (1, 1), (2, 2), (1, 1), (3, 3)]

    def test_bochner_block_minima(self, shuffled, rng):
        group = shuffled.rep.group
        chi = ak.charfunc(ak.random_pure_state(24, rng), shuffled.rep)
        report = ak.is_positive_definite(chi, shuffled)
        assert list(report.block_min_eigenvalues) == [blk.label for blk in shuffled.blocks]
        for blk in shuffled.blocks:
            b = ref_forward(chi.values, group, blk)
            want = group.order / blk.dim * np.linalg.eigvalsh(0.5 * (b + b.conj().T))[0]
            assert abs(report.block_min_eigenvalues[blk.label] - want) <= TOL * max(1.0, abs(want))
        worst = min(report.block_min_eigenvalues, key=report.block_min_eigenvalues.get)
        assert report.worst_block == worst
        assert report.min_eigenvalue == report.block_min_eigenvalues[worst]


class TestErrorsAndEarlyExits:
    def test_validate_names_the_first_failing_block(self):
        ok, bad_2x2, bad_1x1 = np.eye(1) * 0.5, np.diag([0.6, -0.1]), -0.1 * np.eye(1)
        red = ak.IrrepReduction([7, 8, 9], [ok, bad_2x2, bad_1x1])
        with pytest.raises(ak.NotPositiveSemidefiniteError) as err:
            red.validate()
        with pytest.raises(ak.NotPositiveSemidefiniteError) as want:
            assert_psd(bad_2x2, 1e-8, what="reduction block 8")
        assert str(err.value) == str(want.value)
        # a non-PSD 1x1 and a non-Hermitian 2x2 block, in either order
        skew = np.array([[0.5, 0.1], [0.0, 0.5]])
        red = ak.IrrepReduction([1, 2, 3], [ok, bad_1x1, skew])
        with pytest.raises(ak.NotPositiveSemidefiniteError, match="block 2 is not PSD"):
            red.validate()
        red = ak.IrrepReduction([1, 2, 3], [ok, skew, bad_1x1])
        with pytest.raises(ak.NotPositiveSemidefiniteError, match="block 2 is not Hermitian"):
            red.validate()
        with pytest.raises(ak.NotPositiveSemidefiniteError, match="block 1 is not Hermitian"):
            ak.IrrepReduction([1], [np.array([[np.nan]])]).validate()

    def test_unequal_first_shape_stops_there(self, decompositions, rng, monkeypatch):
        """The verdict is read from the one padded gap pass (IrrepDecomposition._gap): no SVD."""
        dec = decompositions["s4"]  # shapes (1, 1) x 2, (2, 2), (3, 3) x 2
        psi = ak.random_pure_state(24, rng)
        x = dec.basis @ psi.vec
        x[[0, 1]] = x[[1, 0]]  # swap the weights of the two 1-dim sectors
        phi = ak.QuantumState.pure(dec.basis.conj().T @ x)
        calls = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        verdict = ak.decide_unitary_g_equivalence(psi, phi, dec)
        monkeypatch.undo()
        assert calls == []
        assert verdict.status is ak.EquivalenceStatus.NOT_EQUIVALENT
        chi_psi, chi_phi = (ak.charfunc(s, dec.rep).values for s in (psi, phi))
        gap = np.abs(np.abs(chi_psi) - np.abs(chi_phi))
        assert verdict.certificate == (int(np.argmax(gap)) if gap.max() > CHI_MATCH_TOL else None)
        assert verdict.witness is None

    def test_wrong_length_vector(self, decompositions, rng):
        """Every pair query reads W vec through one checked door: a package error, not numpy's."""
        dec = decompositions["s3"]
        good, bad = ak.random_pure_state(6, rng), ak.random_pure_state(5, rng)
        calls = (lambda: dec.align(good.vec, bad.vec), lambda: dec.align(bad.vec, good.vec),
                 lambda: dec.vector_sectors(bad.vec), lambda: ak.max_overlap(good, bad, dec),
                 lambda: ak.decide_unitary_g_equivalence(bad, good, dec))
        for call in calls:
            with pytest.raises(ak.DimensionMismatchError, match="vector of shape"):
                call()

    def test_wrong_shaped_multiplicity_unitary(self, shuffled):
        vs = [np.eye(blk.mult) for blk in shuffled.blocks]
        vs[2] = np.eye(3)  # block label 2 has multiplicity 2
        wrong = r"block 2 needs a 2x2 unitary, got \(3, 3\)"
        with pytest.raises(ak.DimensionMismatchError, match=wrong):
            shuffled.invariant_unitary(vs)
        with pytest.raises(ak.DimensionMismatchError, match="one multiplicity-space unitary"):
            shuffled.invariant_unitary(vs[:-1])


def test_isometry_extension_on_a_partial_projector(shuffled, rng):
    dec = shuffled
    w = ak.random_invariant_unitary(dec, rng)
    proj = dec.invariant_unitary([np.diag([1.0] + [0.0] * (blk.mult - 1)) for blk in dec.blocks])
    v = ak.extend_isometry_to_ginv_unitary(w, proj, dec.rep, dec)
    assert frob(v @ proj - w @ proj) <= 1e-8
    assert frob(v @ v.conj().T - np.eye(24)) <= 1e-10
    assert max(frob(v @ u - u @ v) for u in dec.rep.mats) <= 1e-10


def test_decompose_keeps_its_final_residual(all_decs):
    for dec in all_decs.values():
        assert dec._residual == dec.reconstruction_residual()
    empty = ak.decompose(ak.UnitaryRep(ak.make_cyclic(3), np.zeros((3, 0, 0))))
    assert empty._residual == empty.reconstruction_residual() == 0.0
