"""State queries against the references they replaced.

* ``charfunc`` on a monomial rep is a gather, sum_i phase[g, i] rho[src[g, i], i];
  :func:`helpers.dense_charfunc`, one einsum over every dense matrix, is its oracle
  and on any other rep, where chi is one einsum per block size on the blocks of rho,
  or of a pure state on conj(psi_i) psi_j formed block by block, with no d x d array.
* Reductions are checked in one pass over all blocks, zero-padded to one size.  The
  per-block rule (``assert_psd`` on every block in block order, then the trace sum) must
  raise the same class with the same message, so the same block is named.
* State queries run on the decomposition's padded layout; the per-shape helpers in
  ``helpers`` are their oracles, and a pure state's chi on a monomial rep is the gather
  of trace_against(psi psi^dag), bit for bit, with no d x d array.
* ``decide_g_equivalence`` compares every omega with chi in one array pass.  The
  per-omega loop it replaced must return the same omega and status.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asymkit as ak
from asymkit.equivalence import CHI_MATCH_TOL, CHI_ZERO_THRESHOLD
from asymkit.linalg import assert_psd, haar_unitary, scaled_tol
from asymkit.reps import one_dim_reps
from helpers import (
    blocked_rep,
    dense_charfunc,
    gns_cases,
    per_shape_bounds,
    per_shape_fourier,
    per_shape_reduction,
    perm_rep,
)

TOL = 1e-12


def shift_rep(group, m: int) -> ak.UnitaryRep:
    """Z_N permuting m points (m divides N): g moves point i to i + g mod m."""
    mats = np.zeros((group.order, m, m), dtype=complex)
    for g in range(group.order):
        mats[g, (np.arange(m) + g) % m, np.arange(m)] = 1.0
    return ak.UnitaryRep(group, mats)


def states(dim, rng):
    return [ak.random_pure_state(dim, rng), ak.random_mixed_state(dim, rng, rank=2)]


@pytest.fixture(scope="module")
def monomial_reps(groups, regular_reps):
    rng = np.random.default_rng(7)
    z6, z16 = groups["z6"], groups["z16"]
    return {
        "z16 number, random weights": ak.number_rep(z16, rng.integers(-40, 40, size=7)),
        "z6 number, repeated weights": ak.number_rep(z6, [0, 5, 5, 2, -3]),
        "s4 regular": regular_reps["s4"],
        "d4 regular": regular_reps["d4"],
        "z6 shift (x) number": ak.tensor_rep(shift_rep(z6, 3), ak.number_rep(z6, [1, 4])),
        "s3 regular (x) s3 regular": ak.tensor_rep(regular_reps["s3"], regular_reps["s3"]),
    }


class TestCharfuncGather:
    def test_monomial_reps_match_the_dense_einsum(self, monomial_reps, rng):
        for name, r in monomial_reps.items():
            assert r._monomial is not None, name
            assert not np.allclose(r._monomial[1], 1.0) or "regular" in name
            for s in states(r.dim, rng):
                chi = ak.charfunc(s, r).values
                assert np.abs(chi - dense_charfunc(s, r)).max() <= TOL, (name, s.kind)

    def test_basis_vectors_and_maximally_mixed(self, monomial_reps):
        # exact values: chi of e_i is U(g)[i, i]; of I/d, the character over d
        for name, r in monomial_reps.items():
            diag = np.einsum("gii->gi", r.mats)
            for i in (0, r.dim - 1):
                e = np.zeros(r.dim)
                e[i] = 1.0
                chi = ak.charfunc(ak.QuantumState.pure(e), r).values
                assert np.abs(chi - diag[:, i]).max() <= TOL
            mixed = ak.QuantumState.mixed(np.eye(r.dim) / r.dim)
            assert np.abs(ak.charfunc(mixed, r).values - r.character() / r.dim).max() <= TOL

    @pytest.mark.parametrize("kind", ["dense", "blocked"])
    def test_other_reps_take_the_dense_einsum(self, kind, groups, regular_reps, rng, monkeypatch):
        if kind == "dense":
            v = haar_unitary(6, rng)
            r = ak.UnitaryRep(groups["s3"], v @ regular_reps["s3"].mats @ v.conj().T)
        else:
            r = blocked_rep(groups["z4"])
        assert r._monomial is None
        for s in states(r.dim, rng):
            want = dense_charfunc(s, r)
            calls = []
            einsum = np.einsum

            def counting_einsum(spec, *ops, **kwargs):
                calls.append(spec)
                return einsum(spec, *ops, **kwargs)

            monkeypatch.setattr(np, "einsum", counting_einsum)
            chi = ak.charfunc(s, r).values
            monkeypatch.undo()
            # one einsum per block size, on the blocks of rho, or of a pure state on
            # conj(psi_i) psi_j formed block by block: the dense einsum's sums, bit for bit
            if s.is_pure:
                assert calls == ["kij,kgij->g"] * len(r._stacks)
                dense = np.einsum("ij,gij->g", np.outer(s.vec.conj(), s.vec), r.mats)
            else:
                assert calls == ["kij,kgji->g"] * len(r._stacks)
                dense = np.einsum("ij,gji->g", s.density(), r.mats)
            assert np.array_equal(chi, dense)
            assert np.abs(chi - want).max() <= TOL

    @given(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_number_and_shift_reps_by_hypothesis(self, weights, seed, mixed):
        z12 = ak.make_cyclic(12)
        rng = np.random.default_rng(seed)
        number = ak.number_rep(z12, weights)
        reps = [number, ak.tensor_rep(shift_rep(z12, 4), number)]
        if len(weights) <= 3:
            reps.append(ak.tensor_rep(number, ak.regular_rep(z12)))
        for r in reps:
            assert r._monomial is not None
            s = ak.random_mixed_state(r.dim, rng) if mixed else ak.random_pure_state(r.dim, rng)
            assert np.abs(ak.charfunc(s, r).values - dense_charfunc(s, r)).max() <= TOL


# -- reductions: the per-block rule as an oracle -----------------------------------


def ref_check(blocks, labels, tol):
    """The rule block by block: assert_psd in block order, then the trace sum."""
    for blk, label in zip(blocks, labels):
        assert_psd(blk, tol, what=f"reduction block {label}")
    total = float(sum(np.trace(b).real for b in blocks))
    if abs(total - 1.0) > tol:
        raise ak.ValidationError(
            f"reduction invariant violated: sum of traces = {total:.12g}, must be 1"
        )


def ref_reduction_blocks(s, dec):
    """Per sector, the partial trace over the multiplicity space, in block order."""
    rho = dec.basis @ s.density() @ dec.basis.conj().T
    out = []
    for i, blk in enumerate(dec.blocks):
        sec = rho[dec.sector_slice(i), dec.sector_slice(i)]
        out.append(np.einsum("mana->mn", sec.reshape(blk.dim, blk.mult, blk.dim, blk.mult)))
    return out


def ref_fourier_blocks(values, dec):
    group = dec.rep.group
    return [
        blk.dim * np.einsum("g,gij->ij", values[group.inv], blk.mats) / group.order
        for blk in dec.blocks
    ]


def same_error(call, oracle):
    """Both raise, with the same class and message; return the message."""
    with pytest.raises(ak.AsymkitError) as got:
        call()
    with pytest.raises(ak.AsymkitError) as want:
        oracle()
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    return str(got.value)


def function_of(blocks, dec):
    """The function whose forward transform is the given blocks (any blocks at all)."""
    red = ak.IrrepReduction([b.label for b in dec.blocks], blocks)
    return ak.charfunc_from_reduction(red, dec)


class TestReductionVerdicts:
    def test_failing_block_in_a_later_shape_is_named_first(self, shuffled, rng):
        # shapes in first-seen order: (3, 3) holds blocks 0 and 4, (1, 1) blocks 1 and 3,
        # (2, 2) block 2; blocks 4 and 2 fail, so the third shape holds the one named
        red = ak.reduction_onto_irreps(ak.random_pure_state(24, rng), shuffled)
        blocks = [b.copy() for b in red.blocks]
        blocks[4] -= 0.5 * np.eye(3)
        blocks[2] = np.array([[0.3, 0.2], [0.2, -0.1]])
        f = function_of(blocks, shuffled)
        labels = [b.label for b in shuffled.blocks]
        msg = same_error(
            lambda: ak.fourier_inverse(f, shuffled),
            lambda: ref_check(ref_fourier_blocks(f.values, shuffled), labels, 1e-8),
        )
        assert f"block {labels[2]} is not PSD" in msg
        msg = same_error(
            lambda: ak.IrrepReduction(labels, blocks).validate(),
            lambda: ref_check(blocks, labels, 1e-8),
        )
        assert f"block {labels[2]} is not PSD" in msg

    def test_non_hermitian_block_of_the_first_shape_is_named_first(self, shuffled):
        # block 0 (first shape) is not Hermitian, block 3 (second shape) not PSD
        labels = [b.label for b in shuffled.blocks]
        blocks = [np.eye(3) / 15, np.eye(1) / 5, np.eye(2) / 10, np.eye(1) / 5, np.eye(3) / 15]
        blocks[3] = np.array([[-0.2]])
        blocks[0] = blocks[0] + np.triu(np.ones((3, 3)), 1) * 0.1
        msg = same_error(
            lambda: ak.IrrepReduction(labels, blocks).validate(),
            lambda: ref_check(blocks, labels, 1e-8),
        )
        assert f"block {labels[0]} is not Hermitian" in msg

    def test_nan(self, decompositions):
        dec = decompositions["s4"]
        labels = [b.label for b in dec.blocks]
        s = ak.QuantumState.pure(np.eye(24)[0])
        s.vec = np.full(24, np.nan, dtype=complex)
        tol = max(1e-8, scaled_tol(s.density(), base=1e-9))
        msg = same_error(
            lambda: ak.reduction_onto_irreps(s, dec),
            lambda: ref_check(ref_reduction_blocks(s, dec), labels, tol),
        )
        assert f"block {labels[0]} is not Hermitian" in msg
        f = ak.CharFunction(dec.rep.group, np.r_[1.0, np.full(23, np.nan)])
        same_error(
            lambda: ak.fourier_inverse(f, dec),
            lambda: ref_check(ref_fourier_blocks(f.values, dec), labels, 1e-8),
        )

    @pytest.mark.parametrize("scale", [1.5, 100.0])
    def test_trace_sum_not_one(self, scale, decompositions, rng):
        # a vector of norm^2 = scale^2: the tolerance is read from ||psi||^2, which is
        # ||psi psi^dag||_F, so both sides use the same one
        dec = decompositions["s4"]
        labels = [b.label for b in dec.blocks]
        s = ak.random_pure_state(24, rng)
        s.vec = scale * s.vec
        tol = max(1e-8, scaled_tol(s.density(), base=1e-9))
        msg = same_error(
            lambda: ak.reduction_onto_irreps(s, dec),
            lambda: ref_check(ref_reduction_blocks(s, dec), labels, tol),
        )
        assert "sum of traces" in msg
        chi = ak.charfunc(ak.random_pure_state(24, rng), dec.rep)
        f = ak.CharFunction(dec.rep.group, scale * chi.values)
        same_error(
            lambda: ak.fourier_inverse(f, dec),
            lambda: ref_check(ref_fourier_blocks(f.values, dec), labels, 1e-8),
        )

    def test_mixed_state_blocks_match_the_partial_traces(self, decompositions, s3_square_dec, rng):
        for dec in (decompositions["s4"], decompositions["d4"], s3_square_dec):
            for s in states(dec.rep.dim, rng):
                red = ak.reduction_onto_irreps(s, dec)
                for got, want in zip(red.blocks, ref_reduction_blocks(s, dec)):
                    assert np.abs(got - want).max() <= TOL


@pytest.fixture(scope="module")
def check_decs(decompositions, s3_square_dec, z16_number_x3_dec):
    """Several sector shapes (S4, S3reg (x) S3reg, D20) and one (Z16 number x3)."""
    d20 = ak.decompose(ak.regular_rep(ak.make_dihedral(10)), seed=0)
    return {"s4": decompositions["s4"], "s3xs3": s3_square_dec, "d20": d20,
            "z16 number x3": z16_number_x3_dec}


def verdict(call):
    """None if call returns, else the class and message of the AsymkitError it raises."""
    try:
        call()
    except ak.AsymkitError as exc:
        return type(exc), str(exc)
    return None


def planted_blocks(dec, rng, tol, target):
    """One Hermitian block per sector with traces summing to target.  Each block's smallest
    eigenvalue is left positive or placed at -f tol, f in (0.3, 0.7) (passes) or, with
    probability 1 / (K + 1), in (1.5, 3) (fails); the positive eigenvalues are scaled so that
    the traces sum to target."""
    spectra = [rng.uniform(0.1, 1.0, size=blk.dim) for blk in dec.blocks]
    fail = 1 / (len(spectra) + 1)
    for lam in spectra:
        mode = rng.choice(3, p=[0.75 - fail, 0.25, fail])
        if mode:
            lam[0] = -tol * (rng.uniform(0.3, 0.7) if mode == 1 else rng.uniform(1.5, 3.0))
    positive = sum(lam[lam > 0].sum() for lam in spectra)
    negative = sum(lam[lam < 0].sum() for lam in spectra)
    blocks = []
    for lam in spectra:
        lam = np.where(lam > 0, lam * (target - negative) / positive, lam)
        v = haar_unitary(len(lam), rng)
        blocks.append((v * lam) @ v.conj().T)
    return blocks


class TestPaddedCheck:
    """The one-pass check over zero-padded blocks against assert_psd block by block."""

    @given(
        st.sampled_from(["s4", "s3xs3", "d20", "z16 number x3"]),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_verdict_and_text_match_assert_psd_in_block_order(
        self, check_decs, name, seed, skew, nan, off_trace
    ):
        dec, rng, tol = check_decs[name], np.random.default_rng(seed), 1e-8
        blocks = planted_blocks(dec, rng, tol, 1.0 + (1e-6 if off_trace else 0.0))
        if skew:  # far from Hermitian, also if 1x1
            i = rng.integers(len(blocks))
            blocks[i] = blocks[i] + 1e-3j * np.triu(np.ones_like(blocks[i]))
        if nan:
            blocks[rng.integers(len(blocks))][0, 0] = np.nan
        labels = [b.label for b in dec.blocks]
        want = verdict(lambda: ref_check(blocks, labels, tol))
        assert verdict(lambda: ak.IrrepReduction(labels, blocks).validate(tol)) == want
        f = function_of(blocks, dec)
        want = verdict(lambda: ref_check(ref_fourier_blocks(f.values, dec), labels, tol))
        assert verdict(lambda: ak.fourier_inverse(f, dec)) == want

    def test_empty_reduction_fails_on_its_trace_sum(self):
        with pytest.raises(ak.ValidationError, match="sum of traces = 0, must be 1"):
            ak.IrrepReduction([], []).validate()


@pytest.fixture(scope="module")
def layout_decs(decompositions, s3_square_dec, z16_number_dec, z16_number_x3_dec, shuffled):
    """Every decomposition fixture."""
    return {**decompositions, "s3_square": s3_square_dec, "z16_number": z16_number_dec,
            "z16_number_x3": z16_number_x3_dec, "shuffled": shuffled}


class TestPaddedLayout:
    """State queries on the padded layout against one pass per sector shape."""

    def test_reduction_blocks(self, layout_decs, rng):
        for name, dec in layout_decs.items():
            for s in states(dec.rep.dim, rng):
                got = ak.reduction_onto_irreps(s, dec).blocks
                want = per_shape_reduction(s, dec)
                assert [b.shape for b in got] == [b.shape for b in want], name
                assert max(np.abs(a - b).max() for a, b in zip(got, want)) <= 1e-13, name

    def test_fourier_inverse_blocks(self, layout_decs, rng):
        for name, dec in layout_decs.items():
            chi = ak.charfunc(ak.random_pure_state(dec.rep.dim, rng), dec.rep)
            got = ak.fourier_inverse(chi, dec).blocks
            want = per_shape_fourier(chi.values, dec)
            assert [b.shape for b in got] == [b.shape for b in want], name
            assert max(np.abs(a - b).max() for a, b in zip(got, want)) <= 1e-13, name

    def test_overlap_bounds(self, layout_decs, rng):
        for name, dec in layout_decs.items():
            for _ in range(3):
                psi, phi = (ak.random_pure_state(dec.rep.dim, rng) for _ in range(2))
                report = ak.max_overlap(psi, phi, dec)
                got = report.bound_trace, report.bound_charfunc_global, report.bound_charfunc_per_mu
                assert np.abs(np.subtract(got, per_shape_bounds(psi, phi, dec))).max() <= 1e-13

    def test_pure_chi_on_monomial_reps_is_the_gather(
        self, monomial_reps, regular_reps, z16_number_rep, s3_square, z16_number_x3_dec, rng,
        monkeypatch,
    ):
        reps = [*monomial_reps.values(), *regular_reps.values(), z16_number_rep, s3_square,
                z16_number_x3_dec.rep]
        formed = []
        for r in reps:
            assert r._monomial is not None
            for _ in range(5):
                psi = ak.random_pure_state(r.dim, rng)
                want = r.trace_against(np.outer(psi.vec, psi.vec.conj()))
                with monkeypatch.context() as m:
                    m.setattr(ak.QuantumState, "density", lambda self: formed.append(self))
                    m.setattr(np, "outer", lambda *a, **k: formed.append(a))
                    chi = ak.charfunc(psi, r).values
                assert np.array_equal(chi, want)
        assert formed == []

    def test_pure_chi_on_block_reps_is_one_einsum_per_size(self, groups, regular_reps, rng,
                                                           monkeypatch):
        v4, v6 = haar_unitary(4, rng), haar_unitary(6, rng)
        perm = ak.UnitaryRep(groups["s4"], v4 @ perm_rep(groups["s4"]).mats @ v4.conj().T)
        reps = [ak.gns_construct(gns_cases()[name]).rep for name in ("s4", "d20")]
        reps += [ak.direct_sum_rep(perm, regular_reps["s4"]),
                 ak.UnitaryRep(groups["s3"], v6 @ regular_reps["s3"].mats @ v6.conj().T)]
        formed = []
        for r in reps:
            assert r._monomial is None
            for _ in range(5):
                psi = ak.random_pure_state(r.dim, rng)
                with monkeypatch.context() as m:
                    m.setattr(ak.QuantumState, "density", lambda self: formed.append(self))
                    m.setattr(np, "outer", lambda *a, **k: formed.append(a))
                    chi = ak.charfunc(psi, r).values
                assert np.abs(chi - dense_charfunc(psi, r)).max() <= 1e-13
        assert [len(r._stacks) for r in reps] == [3, 2, 2, 1]
        assert formed == []

    def test_decompose_leaves_the_layout_unbuilt(self, regular_reps, s3_square, z16_number_rep, rng):
        for r in (regular_reps["s4"], regular_reps["z6"], s3_square, z16_number_rep):
            dec = ak.decompose(r, seed=1)
            dec.multiset(), dec.reconstruction_residual()
            assert dec._pad is None
            ak.reduction_onto_irreps(ak.random_pure_state(r.dim, rng), dec)
            rows, mats, dims = dec._pad
            assert mats.shape == (len(dec.blocks), r.group.order, dims.max(), dims.max())


class TestToleranceRule:
    @pytest.mark.parametrize("tol", [-1e-3, np.nan])
    def test_validate_rejects(self, tol):
        with pytest.raises(ak.InvalidParameterError, match="tol must be nonnegative"):
            ak.IrrepReduction([0], [np.eye(1)]).validate(tol)

    @pytest.mark.parametrize("tol", [-1e-3, np.nan])
    def test_symmetry_subgroup_rejects(self, tol, z16_number_rep):
        s = ak.QuantumState.pure(np.eye(16)[3])
        with pytest.raises(ak.InvalidParameterError, match="tol must be nonnegative"):
            ak.symmetry_subgroup(s, z16_number_rep, tol=tol)

    def test_zero_tol_still_accepted(self, z16_number_rep):
        assert ak.IrrepReduction([0], [np.eye(1)]).validate(0.0).labels == [0]
        s = ak.QuantumState.pure(np.eye(16)[0])  # weight 0: every phase is exactly 1
        assert len(ak.symmetry_subgroup(s, z16_number_rep, tol=0.0)) == 16


# -- the omega scan: the per-omega loop as an oracle ---------------------------------


def ref_decide_g(psi, phi, r):
    """The loop decide_g_equivalence replaced: the first omega in one_dim_reps order with
    chi_phi = omega chi_psi where chi_psi does not vanish, and chi_phi vanishing where it does."""
    chi_psi, chi_phi = ak.charfunc(psi, r).values, ak.charfunc(phi, r).values
    for om in one_dim_reps(r.group):
        big = np.abs(chi_psi) > CHI_ZERO_THRESHOLD
        if np.any(np.abs(chi_phi[big] - om[big] * chi_psi[big]) > CHI_MATCH_TOL):
            continue
        if not np.any(np.abs(chi_phi[~big]) > CHI_ZERO_THRESHOLD):
            return ak.EquivalenceStatus.EQUIVALENT, om, None
    gap = np.abs(np.abs(chi_psi) - np.abs(chi_phi))
    cert = int(np.argmax(gap)) if gap.max() > CHI_MATCH_TOL else None
    vanish = min(np.abs(chi_psi).min(), np.abs(chi_phi).min()) <= CHI_ZERO_THRESHOLD
    status = ak.EquivalenceStatus.INCONCLUSIVE if vanish else ak.EquivalenceStatus.NOT_EQUIVALENT
    return status, None, cert


def assert_same_verdict(psi, phi, r, dec_regular=None):
    v = ak.decide_g_equivalence(psi, phi, r, dec_regular)
    status, om, cert = ref_decide_g(psi, phi, r)
    assert v.status is status
    assert v.certificate == cert
    if om is None:
        assert v.one_dim_rep is None
    else:
        assert np.array_equal(v.one_dim_rep, om)
    return v


def basis_state(dim, i):
    return ak.QuantumState.pure(np.eye(dim)[i])


class TestOmegaScan:
    @pytest.mark.parametrize("name", ["z6", "klein", "s4", "d4", "s3"])
    def test_random_and_twisted_pairs(self, name, regular_reps, decompositions, rng):
        r, dec = regular_reps[name], decompositions[name]
        omegas = one_dim_reps(r.group)
        n = r.group.order
        for k in range(len(omegas)):
            psi = ak.random_pure_state(n, rng)
            twisted = ak.QuantumState.pure(omegas[k] * psi.vec)  # chi_phi = omega_k chi_psi
            v = assert_same_verdict(psi, twisted, r, dec)
            assert v.status is ak.EquivalenceStatus.EQUIVALENT
            assert_same_verdict(psi, ak.random_pure_state(n, rng), r, dec)
            assert_same_verdict(psi, twisted, r)

    @pytest.mark.parametrize("name", ["z6", "klein", "d4"])
    def test_vanishing_chi_several_omegas_match(self, name, regular_reps, decompositions):
        # chi of a basis vector of the regular rep is the delta at e: every omega matches,
        # and the first in one_dim_reps order (the trivial one) is returned
        r, dec = regular_reps[name], decompositions[name]
        n = r.group.order
        v = assert_same_verdict(basis_state(n, 0), basis_state(n, n - 1), r, dec)
        assert v.status is ak.EquivalenceStatus.EQUIVALENT
        assert np.array_equal(v.one_dim_rep, one_dim_reps(r.group)[0])
        # chi_psi vanishing where chi_phi does not: no omega, and inconclusive
        plus = ak.QuantumState.pure(np.r_[1.0, 1.0, np.zeros(n - 2)] / np.sqrt(2))
        v = assert_same_verdict(basis_state(n, 0), plus, r, dec)
        assert v.status is ak.EquivalenceStatus.INCONCLUSIVE
        v = assert_same_verdict(plus, basis_state(n, 0), r, dec)
        assert v.status is ak.EquivalenceStatus.INCONCLUSIVE

    def test_partly_vanishing_chi_with_two_matches(self, groups):
        # Z4 number rep with weights 0 and 2: chi = (1 + (-1)^g) / 2 vanishes at odd g,
        # so omega(g) = i^(k g) matches for k = 0 and k = 2, and k = 0 comes first
        r = ak.number_rep(groups["z4"], [0, 2])
        psi = ak.QuantumState.pure(np.array([1.0, 1.0]) / np.sqrt(2))
        phi = ak.QuantumState.pure(np.array([1.0, -1.0]) / np.sqrt(2))
        omegas = one_dim_reps(groups["z4"])
        chi_psi = ak.charfunc(psi, r).values
        matches = [k for k, om in enumerate(omegas)
                   if np.abs(ak.charfunc(phi, r).values - om * chi_psi).max() <= CHI_MATCH_TOL]
        assert len(matches) == 2
        v = assert_same_verdict(psi, phi, r)
        assert np.array_equal(v.one_dim_rep, omegas[matches[0]])

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_sparse_states_by_hypothesis(self, seed, zeros):
        # states with several exact zeros on Z6 make chi vanish on some elements
        rng = np.random.default_rng(seed)
        r = ak.regular_rep(ak.make_cyclic(6))
        vecs = []
        for _ in range(2):
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            v[rng.choice(6, size=zeros, replace=False)] = 0
            vecs.append(ak.QuantumState.pure(v / np.linalg.norm(v)))
        psi, phi = vecs
        assert_same_verdict(psi, phi, r)
        assert_same_verdict(psi, ak.QuantumState.pure(np.roll(psi.vec, seed % 6)), r)
