"""Positive-definiteness test and the constructive inverse (GNS)."""

import gc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import asymkit as ak
from asymkit import bochner, reps
from helpers import check_gns, gns_by_irrep, gns_cases, gns_copy_stacks, gram_rank, perm_rep


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
    def test_one_dim_rep_recovered(self, groups):
        om = ak.one_dim_reps(groups["z6"])[2]
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
        with pytest.raises(ak.InvalidCharacteristicFunctionError, match="NaN or infinite"):
            ak.gns_construct(f)

    def test_opposite_infinities_rejected(self, groups):
        # inf at g and -inf at g^-1 used to pass the Hermitian check (inf <= inf) and
        # fail inside eigh; pytest turns the RuntimeWarning that came first into an error
        f = ak.CharFunction(groups["z4"], np.array([1.0, np.inf, 0.0, -np.inf], dtype=complex))
        with pytest.raises(ak.InvalidCharacteristicFunctionError, match="NaN or infinite"):
            ak.gns_construct(f)


def chi_error(f: ak.CharFunction, res: ak.GnsResult) -> float:
    return float(np.max(np.abs(ak.charfunc(res.state, res.rep).values - f.values)))


class TestGnsLadder:
    """Larger groups and structured functions: the carrier directsum_mu U_mu (x) I_(r_mu)."""

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
        # the regular character, |G| at e and 0 elsewhere; one block per irrep copy, so
        # monomial iff every irrep is 1-dim
        assert np.abs(res.rep.character() - group.order * f.values).max() <= 1e-9
        assert (res.rep._monomial is not None) == group.is_abelian
        assert chi_error(f, res) <= 1e-9

    def test_normalized_irreducible_character(self, groups, decompositions):
        for blk in decompositions["s4"].blocks:
            f = ak.CharFunction(groups["s4"], np.einsum("gii->g", blk.mats) / blk.dim)
            res = ak.gns_construct(f)
            assert res.dim == blk.dim**2
            assert chi_error(f, res) <= 1e-9

    def test_abelian_rep_is_monomial(self, regular_reps, rng):
        f = ak.charfunc(ak.random_pure_state(16, rng), regular_reps["z16"])
        res = ak.gns_construct(f)
        assert res.rep._monomial is not None
        assert chi_error(f, res) <= 1e-9

    @pytest.mark.parametrize("name", ["s3", "s4", "d4"])
    def test_corrupted_irrep_block_raises(self, groups, name):
        # The Fourier blocks of delta_e read U_mu(e) alone, so U_mu(g) negated in a cached
        # block of dimension > 1, at a g with chi_mu(g) != 0 and the residual kept, leaves them
        # d_mu/|G| I and moves chi(g) by 2 d_mu |chi_mu(g)| / |G|: that must raise, not
        # realize chi != f.
        f = ak.CharFunction(ak.GroupTable(groups[name].mul), np.eye(groups[name].order)[0])
        dec = ak.decompose(ak.regular_rep(f.group), seed=0)  # the one GNS caches
        for i in (i for i, b in enumerate(dec.blocks) if b.dim > 1):
            g = int(np.argmax(abs(np.einsum("gii->g", dec.blocks[i].mats[1:])))) + 1
            f.group._irreps = with_blocks(dec, lambda m, b: -m if b == i else m,
                                          dec._residual, at=g)
            with pytest.raises(ak.NumericalDegeneracyError, match="misses f"):
                ak.gns_construct(f)


def with_blocks(dec, edit, residual=None, at=slice(None)):
    """The GNS cache (``reps._regular_irreps``) of dec with edit(mats, index) in place of each
    block's mats at the elements ``at``, the residual given, or else recomputed for the new
    blocks, and the new stacks' ``reps._exact_zeros`` rows and ``reps._squared_norms``."""
    blocks = []
    for i, b in enumerate(dec.blocks):
        m = b.mats.copy()
        m[at] = edit(m[at], i)
        blocks.append(ak.IrrepBlock(b.label, b.dim, b.mult, b.character, m))
    out = ak.IrrepDecomposition(dec.rep, dec.basis, blocks)
    rho = out.reconstruction_residual() if residual is None else residual
    stacks = [m for _, _, m in out._by_shape()]
    return stacks, rho, [reps._exact_zeros(m)[:3] for m in stacks], reps._squared_norms(stacks)


GNS_CASES = list(gns_cases())


@pytest.mark.parametrize("name", GNS_CASES)
def test_gns_stack_is_the_cluster_gather_bit_for_bit(name):
    """Each irrep's copies, gathered one block at a time (:func:`helpers.gns_by_irrep`), are the
    batched route's stack and vector, bit for bit."""
    f = gns_cases()[name]
    mats, psi = gns_by_irrep(f)
    res = ak.gns_construct(f)
    assert res.rep.mats.tobytes() == mats.tobytes()
    assert res.state.vec.tobytes() == ak.QuantumState.pure(psi).vec.tobytes()
    check_gns(f, res)


@pytest.mark.parametrize("name", GNS_CASES)
def test_gns_certificate_is_never_below_the_dense_residuals(name):
    """The bound from the regular decomposition's residual is at least every residual of the
    dense check, and clears the tolerance of UnitaryRep, 1e-9 max(1, ||mats||_F)."""
    f = gns_cases()[name]
    res = ak.gns_construct(f)
    assert check_gns(f, res) <= 1e-9 * max(1.0, np.linalg.norm(res.rep.mats))


def verdict(check) -> str | None:
    """None if check() passes, else the message of the ValidationError it raises."""
    try:
        check()
    except ak.ValidationError as exc:
        return str(exc)
    return None


def spy(monkeypatch, *names) -> list:
    """Record every call of the named reps functions, which still run."""
    calls = []
    for name in names:
        real = getattr(reps, name)
        monkeypatch.setattr(reps, name,
                            lambda *a, n=name, f=real, **k: calls.append((n, a)) or f(*a, **k))
    return calls


def rotated(m, theta):
    """Each U_mu(g) of a block of dimension > 1 conjugated by a rotation by theta in rows 0, 1."""
    if m.shape[-1] == 1:
        return m
    rot = np.eye(m.shape[-1])
    rot[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    return rot @ m @ rot.T


@pytest.mark.parametrize("name", ["s4", "d12", "d20", "s3 perm", "s4 perm", "s4 irrep 4"])
@pytest.mark.parametrize("kind", ["entry", "unitary"])
def test_gns_certificate_fails_when_the_dense_check_does(name, kind, monkeypatch):
    """Cached irrep blocks bent by theta, their residual recomputed, give GNS the dense check's
    verdict and message.  Entry [0, 0] of every U_mu(e) moved by theta takes U(e) off I (and
    keeps the Fourier blocks PSD); a rotation of every block's basis keeps a rep.  The residual
    puts the bound over tolerance either way, so the pairwise check runs once and decides: the
    moved entry fails, the rotation passes, at 1e-3 and at 1e-6."""
    f = gns_cases()[name]
    dec = ak.decompose(ak.regular_rep(f.group), seed=0)
    for theta in (1e-3, 1e-6):
        if kind == "entry":
            f.group._irreps = with_blocks(dec, lambda m, _: m + theta, at=(0, 0, 0))
        else:
            f.group._irreps = with_blocks(dec, lambda m, _: rotated(m, theta))
        dense = verdict(lambda: ak.UnitaryRep(f.group, gns_by_irrep(f)[0]))
        checks = spy(monkeypatch, "_validate_rep")
        assert verdict(lambda: ak.gns_construct(f)) == dense
        monkeypatch.undo()
        assert len(checks) == 1
        assert (dense is not None) == (kind == "entry")


def test_gns_certificate_needs_a_near_isometry(monkeypatch):
    """With blocks 2 U_mu, far from a rep, the bound fails and the one pairwise check it falls
    back on rejects the GNS rep of their copies (its U(e) is 2 I)."""
    f = gns_cases()["s4"]
    dec = ak.decompose(ak.regular_rep(f.group), seed=0)
    f.group._irreps = with_blocks(dec, lambda m, _: 2 * m)
    checks = spy(monkeypatch, "_validate_rep")
    with pytest.raises(ak.ValidationError, match="must be the identity"):
        ak.gns_construct(f)
    assert len(checks) == 1


@pytest.mark.parametrize("name", GNS_CASES)
def test_gns_runs_no_pairwise_or_intertwiner_pass(name, monkeypatch):
    """A valid GNS rep is trusted with no pass over the group's elements, and a warm call hands
    its rep the form it assembled, with no pass over exact-zero masks to cut it."""
    f = gns_cases()[name]
    reps._regular_irreps(f.group)  # decompose's own check, once per group, is not GNS's
    calls = spy(monkeypatch, "_validate_rep", "_intertwiner_residual", "_unitarity_residuals",
                "_homomorphism_residuals", "_exact_zeros", "_cut")
    ak.gns_construct(f)
    assert calls == []


def same_form(rep, want) -> bool:
    """Whether rep holds the form want, a ``reps._cut`` result, array for array by bytes."""
    if isinstance(want, tuple):
        return rep._stacks is None and all(
            a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            for a, b in zip(rep._monomial, want))
    return rep._monomial is None and len(rep._stacks) == len(want) and all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for got, st in zip(rep._stacks, want) for a, b in zip(got, st))


@pytest.mark.parametrize("name", GNS_CASES)
def test_gns_form_is_the_cut_of_its_copies(name):
    """The form GNS assembles is what ``reps._cut`` makes of its copies' stacks, one per copy:
    (src, phase) for the all-1-dim cases, the per-size stacks for the others."""
    f = gns_cases()[name]
    want = reps._cut(gns_copy_stacks(f))
    assert same_form(ak.gns_construct(f).rep, want)


def test_gns_form_of_a_monomial_2_dim_irrep():
    """A cache whose 2-dim irrep of D4 is in its standard basis, r a quarter turn and s a
    mirror (entries 0 and +-1 only), is monomial with its 1-dim irreps: GNS of chi on both returns
    the (src, phase) form ``reps._cut`` gives its copies, and realizes chi."""
    group = ak.make_dihedral(4)
    turn, mirror = np.array([[0, -1], [1, 0]]), np.diag([1, -1])
    std = np.array([np.linalg.matrix_power(mirror, g // 4) @ np.linalg.matrix_power(turn, g % 4)
                    for g in range(8)], dtype=complex)
    ak.UnitaryRep(group, std)  # a rep, checked pairwise
    dec = ak.decompose(ak.regular_rep(group), seed=0)
    group._irreps = with_blocks(dec, lambda m, b: std if dec.blocks[b].dim == 2 else m)
    sign = np.einsum("gii->g", dec.blocks[1].mats)  # a 1-dim irrep that is not trivial
    assert dec.blocks[1].dim == 1 and not np.allclose(sign, 1)
    f = ak.CharFunction(group, 0.5 * np.einsum("gii->g", std) / 2 + 0.5 * sign)
    res = ak.gns_construct(f)
    want = reps._cut(gns_copy_stacks(f))
    assert isinstance(want, tuple) and same_form(res.rep, want)
    assert res.dim == 5
    assert np.abs(ak.charfunc(res.state, res.rep).values - f.values).max() <= 1e-12


@pytest.mark.parametrize("name", ["s4", "z32", "s4 delta", "s4 irrep 4"])
def test_gns_bound_over_tol_runs_one_pairwise_pass(name, monkeypatch):
    """With the bound's tolerance forced to 0, the bound is over it: the pairwise check runs
    exactly once, on the rep's own form at that check's own tolerance, and decides: the rep
    passes, bit for bit the rep of the trusted route."""
    f = gns_cases()[name]
    want = ak.gns_construct(f)
    checks = spy(monkeypatch, "_validate_rep")
    monkeypatch.setattr(bochner, "scaled_tol", lambda *args, **kwargs: 0.0)
    res = ak.gns_construct(f)
    form = res.rep._stacks if res.rep._monomial is None else res.rep._monomial
    assert len(checks) == 1 and checks[0][1][1] is form
    assert res.rep.mats.tobytes() == want.rep.mats.tobytes()
    assert res.state.vec.tobytes() == want.state.vec.tobytes()


@pytest.mark.parametrize("name", GNS_CASES)
def test_gns_gate_scales_with_the_norm_of_its_mats(name, monkeypatch):
    """The norm GNS scales its trust gate by, read off the per-irrep norms the group caches, is
    ||mats||_F of the rep it returns."""
    f = gns_cases()[name]
    norms, real = [], bochner.scaled_tol
    monkeypatch.setattr(bochner, "scaled_tol", lambda *a, **k: norms.extend(a) or real(*a, **k))
    res = ak.gns_construct(f)
    (norm,) = norms
    assert abs(norm - np.linalg.norm(res.rep.mats)) <= 1e-12 * norm


def test_second_gns_on_a_group_decomposes_no_more(monkeypatch):
    group = ak.make_dihedral(10)
    calls = spy(monkeypatch, "decompose")
    for seed in (0, 1):
        r = ak.regular_rep(group)
        ak.gns_construct(ak.charfunc(ak.random_pure_state(r.dim, np.random.default_rng(seed)), r))
    assert len(calls) == 1


def test_gns_bytes_ignore_the_callers_seed():
    """GNS reads its own seed-0 decomposition, whatever decompose a caller ran on the group."""
    made, chi = [], ak.random_pure_state(24, np.random.default_rng(5))
    for seed in (None, 0, 7):
        group = ak.make_symmetric(4)
        r = ak.regular_rep(group)
        f = ak.charfunc(chi, r)
        if seed is not None:
            dec = ak.decompose(r, seed=seed)
            assert ak.is_positive_definite(f, dec).positive_definite
        res = ak.gns_construct(f)
        made.append((res.rep.mats.tobytes(), res.state.vec.tobytes()))
    assert made[0] == made[1] == made[2]
    seeded = [m.tobytes() for _, _, m in dec._by_shape()]
    assert seeded != [m.tobytes() for m in group._irreps[0]]


def test_gns_cache_leaves_no_cycle():
    """A group on which GNS ran is freed by reference counts alone: its cache holds the irrep
    stacks and the residual, not a decomposition whose regular rep points back at the group."""
    gc.collect()
    gc.disable()
    try:
        group = ak.make_dihedral(30)
        ak.gns_construct(ak.CharFunction(group, np.eye(group.order)[0]))
        del group
        assert gc.collect() == 0
    finally:
        gc.enable()


def polygon_rep(group, speeds) -> ak.UnitaryRep:
    """The 2-dim irreps of make_dihedral(n) in which r turns by 2 pi k / n, one per k, summed:
    s^e r^j acts as diag(1, -1)^e R(2 pi k j / n)."""
    n = group.order // 2
    mats = []
    for k in speeds:
        angle = 2 * np.pi * k * (np.arange(group.order) % n) / n
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        rot[1] *= np.where(np.arange(group.order) < n, 1, -1)
        mats.append(rot.transpose(2, 0, 1))
    out = np.zeros((group.order, 2 * len(speeds), 2 * len(speeds)), dtype=complex)
    for i, m in enumerate(mats):
        out[:, 2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = m
    return ak.UnitaryRep(group, out)


class TestGnsD360:
    """make_dihedral(180), |G| = 360, cold: delta_e, whose Gram matrix is I (one eigenvalue of
    multiplicity |G|), and a low-rank chi."""

    def test_delta_is_regular(self, monkeypatch):
        group = ak.make_dihedral(180)
        reps._regular_irreps(group)
        checks = spy(monkeypatch, "_validate_rep")
        f = ak.CharFunction(group, np.eye(group.order)[0])
        res = ak.gns_construct(f)
        assert checks == [] and res.rep._mats is None
        assert res.dim == group.order
        assert np.abs(res.rep.character() - group.order * f.values).max() <= 1e-9
        assert np.abs(ak.charfunc(res.state, res.rep).values - f.values).max() <= 1e-9

    def test_low_rank(self):
        group = ak.make_dihedral(180)
        r = polygon_rep(group, [1, 7])
        f = ak.charfunc(ak.random_pure_state(r.dim, np.random.default_rng(3)), r)
        res = ak.gns_construct(f)
        assert res.dim == 4
        check_gns(f, res)


def coset_rep(group, h) -> ak.UnitaryRep:
    """The permutation rep of group on the left cosets of its subgroup h, each coset named by
    its least element."""
    least = group.mul[:, h].min(axis=1)  # least[g] names the coset g h
    names = np.unique(least)
    mats = np.zeros((group.order, names.size, names.size), dtype=complex)
    for g in range(group.order):
        mats[g, np.searchsorted(names, least[group.mul[g, names]]), np.arange(names.size)] = 1
    return ak.UnitaryRep(group, mats)


GROUPS = {"s3": ak.make_symmetric(3), "d4": ak.make_dihedral(4), "z6": ak.make_cyclic(6),
          "s4": ak.make_symmetric(4)}
KINDS = {"s3": ["regular", "permutation"], "d4": ["regular", "permutation"],
         "z6": ["regular", "number"], "s4": ["regular", "permutation"]}


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(GROUPS)), choice=st.integers(0, 1),
       state=st.sampled_from(["random", "low-rank", "basis"]), seed=st.integers(0, 2**32 - 1))
def test_gns_bounds_hold_on_random_charfuncs(name, choice, state, seed):
    """chi of a random state, a state in a few isotypes (a low-rank Gram matrix) or the first
    basis vector (delta_e on the regular rep), in a regular, permutation or number rep: GNS
    realizes it in dimension rank X, and its bound is at least each residual of the dense
    check."""
    group, rng = GROUPS[name], np.random.default_rng(seed)
    kind = KINDS[name][choice]
    if kind == "regular":
        r = ak.regular_rep(group)
    elif kind == "number":
        r = ak.number_rep(group, rng.integers(0, 6, size=int(rng.integers(1, 5))))
    else:  # on the cosets of the stabilizer of a point, or of a reflection of the square
        r = perm_rep(group) if name != "d4" else coset_rep(group, [0, 4])
    psi = np.eye(r.dim)[0].astype(complex)
    if state != "basis":
        psi = ak.random_pure_state(r.dim, rng).vec
    if state == "low-rank":  # the isotypic projection of psi onto a random set of irreps
        chars = group._character_table()
        pick = chars[rng.random(len(chars)) < 0.5]
        psi = np.tensordot((pick[:, :1] * pick.conj()).sum(0) / group.order, r.mats, 1) @ psi
        assume(np.linalg.norm(psi) > 1e-3)
    f = ak.charfunc(ak.QuantumState.pure(psi / np.linalg.norm(psi)), r)
    check_gns(f, ak.gns_construct(f))


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
