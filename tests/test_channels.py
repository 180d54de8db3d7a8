"""Channels: application, covariance checking, twirling, embedding."""

import numpy as np
import pytest

import asymkit as ak
from asymkit import channels, reps
from asymkit.linalg import frob, haar_unitary
from helpers import (
    assert_raises_exactly,
    blocked_rep,
    dense_covariance_residual,
    embedded_covariance_check,
    embedded_kraus,
    perm_rep,
)


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
        out = ak.apply(ak.channel_from_unitary(np.eye(3)), s)
        assert frob(out.rho - s.rho) < 1e-12

    def test_random_channel_is_tp(self, rng):
        c = ak.random_channel(4, 3, rng)
        total = sum(k.conj().T @ k for k in c.kraus)
        assert frob(total - np.eye(4)) < 1e-10

    @pytest.mark.parametrize("count", [0, -1])
    def test_random_channel_needs_a_kraus_operator(self, count, rng):
        """No Kraus operators is a bad parameter, not a failed trace preservation."""
        with pytest.raises(ak.InvalidParameterError, match="kraus_count"):
            ak.random_channel(3, count, rng)

    def test_random_channel_counts_are_read_as_whole_numbers(self):
        """kraus_count=2.0 and dim=3.0 read as 2 and 3, with the same draws; 2.5 raises."""
        want = ak.random_channel(3, 2, np.random.default_rng(0)).kraus
        got = ak.random_channel(3.0, 2.0, np.random.default_rng(0)).kraus
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        with pytest.raises(ak.ValidationError, match="kraus_count"):
            ak.random_channel(3, 2.5, np.random.default_rng(0))

    def test_random_channel_dim_below_one_rejected(self):
        with pytest.raises(ak.InvalidParameterError, match="dim"):
            ak.random_channel(-1, 2, np.random.default_rng(0))

    def test_shift_channel_reads_whole_numbers(self):
        """dim=4.0 and shift=1.0 read as 4 and 1; shift 1.5 and dim -1 raise typed errors."""
        want = ak.shift_channel(4, 1).kraus
        assert np.array_equal(ak.shift_channel(4.0, 1.0).kraus, want)
        with pytest.raises(ak.ValidationError, match="shift"):
            ak.shift_channel(3, 1.5)
        with pytest.raises(ak.InvalidParameterError, match="dim"):
            ak.shift_channel(-1, 1)

    @pytest.mark.parametrize("u", [np.ones(3), 1.0, np.ones((2, 2, 2))])
    def test_channel_from_a_non_matrix_rejected(self, u):
        with pytest.raises(ak.DimensionMismatchError):
            ak.channel_from_unitary(u)

    def test_output_trace_one(self, rng):
        c = ak.random_channel(4, 3, rng)
        s = ak.random_pure_state(4, rng)
        assert abs(np.trace(ak.apply(c, s).rho) - 1.0) < 1e-10

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ak.DimensionMismatchError):
            ak.apply(ak.channel_from_unitary(np.eye(3)), ak.random_pure_state(4, rng))

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
            ak.is_g_covariant(ak.channel_from_unitary(np.eye(16)), z16_number_rep,
                              z16_number_rep, tol=-1.0)

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
        out = ak.twirl_channel(ak.channel_from_unitary(np.eye(3)), r)
        assert frob(out.choi() - ak.channel_from_unitary(np.eye(3)).choi()) < 1e-12

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
        assert frob(c.choi() - ak.channel_from_unitary(np.eye(6)).choi()) < 1e-12

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

    @pytest.mark.parametrize(
        "name", ["d4 regular", "s4 perm x s4 perm", "z16 number", "blocked z4", "dense d4"]
    )
    def test_kraus_are_the_dense_rows(self, groups, name):
        """The Kraus operators are bit for bit mats[K] / sqrt|K|, and only a rep that already
        kept its dense stack has one after the call."""
        perm, d4 = perm_rep(groups["s4"]), ak.regular_rep(groups["d4"])
        dense = _conjugated(ak.regular_rep(groups["d4"]), np.random.default_rng(5))
        a4 = [g for g in range(24) if np.linalg.det(perm.mats[g]).real > 0]
        r, k = {
            "d4 regular": (d4, range(4)),
            "s4 perm x s4 perm": (ak.tensor_rep(perm, perm), a4),
            "z16 number": (ak.number_rep(groups["z16"], [0, 1, 5, 9]), [0, 4, 8, 12]),
            "blocked z4": (blocked_rep(groups["z4"]), [0, 2]),
            "dense d4": (dense, range(4)),
        }[name]
        kept = r._mats is not None
        c = ak.uniform_twirl_over_subgroup(r, k)
        assert (r._mats is not None) == kept == (name == "dense d4")
        want = r.mats[list(ak.subgroup(r.group, k).elements)] / np.sqrt(len(k))
        assert c.kraus.shape == want.shape and c.kraus.tobytes() == want.tobytes()


class TestEmbedding:
    def test_identity_embedding(self, groups):
        z16 = groups["z16"]
        r_in = ak.number_rep(z16, [0, 1])
        c = ak.embed_channel(ak.channel_from_unitary(np.eye(2)), r_in, r_in)
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
        c = ak.channel_from_unitary(np.eye(2))  # |0>,|1> carried onto |2>,|3>
        assert ak.is_g_covariant(c, r_in, r_out).covariant
        emb = ak.embed_channel(c, r_in, r_out)
        combined = ak.direct_sum_rep(r_in, r_out)
        check = ak.is_g_covariant(emb, combined, combined)
        assert check.covariant and check.residual <= 1e-10

    def test_restriction_reproduces_channel(self, groups, rng):
        z16 = groups["z16"]
        r_in = ak.number_rep(z16, [0, 1])
        r_out = ak.number_rep(z16, [2, 3])
        c = ak.channel_from_unitary(np.eye(2))
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
        emb = ak.embed_channel(ak.channel_from_unitary(np.eye(2)), r_in, r_out)
        rho = np.zeros((4, 4), dtype=complex)
        rho[2, 2] = 1.0  # fully in the out sector
        out = emb.apply_to_density(rho)
        assert frob(out - np.eye(4) / 4) < 1e-12

    def test_kraus_order(self, groups):
        # E's operators first, then |i><d_in + j| / sqrt(d), ordered by j, then i.
        r_in = ak.number_rep(groups["z4"], [0, 1])
        r_out = ak.number_rep(groups["z4"], [0, 1, 3])
        c = ak.QuantumChannel(np.eye(3, 2)[None])
        want = np.zeros((1 + 3 * 5, 5, 5), dtype=complex)
        want[0, 2:, :2] = c.kraus[0]
        for j in range(3):
            for i in range(5):
                want[1 + 5 * j + i, i, 2 + j] = 1 / np.sqrt(5)
        assert np.array_equal(ak.embed_channel(c, r_in, r_out).kraus, want)


def _conjugated(r, rng):
    """V U(g) V^dag for a Haar-random V: the same rep with no monomial form."""
    v = haar_unitary(r.dim, rng)
    out = ak.UnitaryRep(r.group, v @ r.mats @ v.conj().T)
    assert out._monomial is None
    return out


def _isometry_channel(v):
    """The channel rho -> V rho V^dag of an isometry V (d_out x d_in)."""
    return ak.QuantumChannel(np.asarray(v, dtype=complex)[None])


@pytest.fixture(scope="module")
def covariance_cases(groups):
    """name -> (channel, r_in, r_out, covariant?) over every route of is_g_covariant."""
    rng = np.random.default_rng(8)
    s3, d3, d4 = (ak.regular_rep(groups[n]) for n in ("s3", "d3", "d4"))
    perm = perm_rep(groups["s4"])
    a4 = [g for g in range(24) if np.linalg.det(perm.mats[g]).real > 0]
    z16 = ak.number_rep(groups["z16"], range(16))
    z16_low = ak.number_rep(groups["z16"], [0, 1, 2, 3])
    dense_d4, dense_perm = _conjugated(d4, rng), _conjugated(perm, rng)
    pair_in, pair_out = ak.number_rep(groups["z4"], [0, 1]), ak.number_rep(groups["z4"], [2, 3])
    v = haar_unitary(2, rng)
    dense_out = ak.UnitaryRep(pair_out.group, v @ pair_out.mats @ v.conj().T)
    wide_out = ak.number_rep(groups["z4"], [0, 1, 3])
    embed_in = ak.twirl_channel(ak.random_channel(4, 2, rng), perm)
    both = ak.direct_sum_rep(perm, perm)
    dense_embed_in = ak.twirl_channel(ak.random_channel(4, 1, rng), dense_perm)
    dense_both = ak.direct_sum_rep(dense_perm, dense_perm)
    # regular Z4 (0/1) in, number Z4 out: U_out kron conj U_in has phases other than 1, and
    # the Fourier matrix F[w, h] = i^(w h) / 2 intertwines the two, U_num(g) F = F U_reg(g)
    z4_reg, z4_num = ak.regular_rep(groups["z4"]), ak.number_rep(groups["z4"], range(4))
    fourier = np.exp(0.5j * np.pi * np.outer(range(4), range(4))) / 2
    cases = {
        "s3 regular, twirled": (ak.twirl_channel(ak.random_channel(6, 2, rng), s3), s3, s3, True),
        "s3 regular, raw": (ak.random_channel(6, 2, rng), s3, s3, False),
        "d4 regular, subgroup twirl": (ak.uniform_twirl_over_subgroup(d4, range(4)), d4, d4, True),
        "z16 number, shift": (ak.shift_channel(16, 2), z16, z16, True),
        "z16 number, raw": (ak.random_channel(4, 2, rng), z16_low, z16_low, False),
        "s4 perm, twirled": (ak.twirl_channel(ak.random_channel(4, 2, rng), perm), perm, perm, True),
        "s4 perm, raw": (ak.random_channel(4, 3, rng), perm, perm, False),
        "s4 perm, subgroup twirl": (ak.uniform_twirl_over_subgroup(perm, a4), perm, perm, True),
        "d4 regular conjugated, twirled": (
            ak.twirl_channel(ak.random_channel(8, 2, rng), dense_d4), dense_d4, dense_d4, True
        ),
        "d4 regular conjugated, raw": (ak.random_channel(8, 2, rng), dense_d4, dense_d4, False),
        "d4 regular conjugated, subgroup twirl": (
            ak.uniform_twirl_over_subgroup(dense_d4, range(4)), dense_d4, dense_d4, True
        ),
        "d3 regular, non-normal subgroup twirl": (
            ak.uniform_twirl_over_subgroup(d3, [0, 3]), d3, d3, False
        ),
        "monomial in, dense out": (_isometry_channel(v), pair_in, dense_out, True),
        "monomial in, dense out, raw": (ak.random_channel(2, 2, rng), pair_in, dense_out, False),
        "d_in 2, d_out 3": (_isometry_channel(np.eye(3, 2)), pair_in, wide_out, True),
        "d_in 2, d_out 3, raw": (
            _isometry_channel(haar_unitary(3, rng)[:, :2]), pair_in, wide_out, False
        ),
        "dense in, monomial out, d_in 4, d_out 2": (
            ak.QuantumChannel(np.stack([np.eye(2, 4), np.eye(2, 4, 2)])),
            _conjugated(ak.number_rep(groups["z4"], [0, 1, 0, 1]), rng),
            pair_in,
            False,
        ),
        "s4 perm conjugated, twirled, r > d_in d_out": (
            ak.twirl_channel(ak.random_channel(4, 2, rng), dense_perm), dense_perm, dense_perm, True
        ),
        "s4 perm conjugated, raw, r > d_in d_out": (
            ak.random_channel(4, 20, rng), dense_perm, dense_perm, False
        ),
        "s4 perm, embedded": (ak.embed_channel(embed_in, perm, perm), both, both, True),
        "s4 perm conjugated, embedded": (
            ak.embed_channel(dense_embed_in, dense_perm, dense_perm), dense_both, dense_both, True
        ),
        "s4 perm, embedded raw": (
            ak.embed_channel(ak.random_channel(4, 2, rng), perm, perm), both, both, False
        ),
        "z4 regular in, number out, Fourier": (_isometry_channel(fourier), z4_reg, z4_num, True),
        "z4 regular in, number out, raw": (ak.random_channel(4, 2, rng), z4_reg, z4_num, False),
    }
    assert sorted(cases) == sorted(COVARIANCE_CASES)
    assert len(cases["s4 perm conjugated, twirled, r > d_in d_out"][0].kraus) > 16
    mixed = reps._kron_rep(z4_num, z4_reg, conj=True)._monomial[1]
    assert (z4_reg._monomial[1] == 1).all() and not (mixed == 1).all()
    return cases


COVARIANCE_CASES = [
    "s3 regular, twirled",
    "s3 regular, raw",
    "d4 regular, subgroup twirl",
    "z16 number, shift",
    "z16 number, raw",
    "s4 perm, twirled",
    "s4 perm, raw",
    "s4 perm, subgroup twirl",
    "d4 regular conjugated, twirled",
    "d4 regular conjugated, raw",
    "d4 regular conjugated, subgroup twirl",
    "d3 regular, non-normal subgroup twirl",
    "monomial in, dense out",
    "monomial in, dense out, raw",
    "d_in 2, d_out 3",
    "d_in 2, d_out 3, raw",
    "dense in, monomial out, d_in 4, d_out 2",
    "s4 perm conjugated, twirled, r > d_in d_out",
    "s4 perm conjugated, raw, r > d_in d_out",
    "s4 perm, embedded",
    "s4 perm conjugated, embedded",
    "s4 perm, embedded raw",
    "z4 regular in, number out, Fourier",
    "z4 regular in, number out, raw",
]


class TestCovarianceOracle:
    """is_g_covariant's gather and Kraus-level routes against the Kronecker loop."""

    @pytest.mark.parametrize("chunk", ["whole group", "one element", "three elements"])
    @pytest.mark.parametrize("name", COVARIANCE_CASES)
    def test_matches_dense_kron(self, covariance_cases, monkeypatch, name, chunk):
        c, r_in, r_out, covariant = covariance_cases[name]
        j = c.choi()
        n = r_in.group.order
        if chunk != "whole group":
            per_chunk = 1 if chunk == "one element" else 3
            monkeypatch.setattr(reps, "_STACK_BYTES", per_chunk * j.nbytes)
            assert len(reps._chunk_slices(n, j.nbytes)) == -(-n // per_chunk) > 1
        scale = max(1.0, frob(j))
        oracle = dense_covariance_residual(c, r_in, r_out)
        check = ak.is_g_covariant(c, r_in, r_out)
        assert check.covariant == (oracle <= 1e-8 * scale) == covariant
        assert abs(check.residual - oracle) <= 1e-12 * scale


def _off_unitary(r, element, index, scale):
    """A trusted, unvalidated copy of r whose matrix at one element has one part scaled: the
    phase of row ``index`` if r is monomial, else the whole block holding column ``index``."""
    if r._monomial is not None:
        src, phase = r._monomial
        phase = phase.copy()
        phase[element, index] *= scale
        return ak.UnitaryRep(r.group, None, (src, phase))
    stacks = []
    for cols, sub in r._stacks:
        sub = sub.copy()
        sub[(cols == index).any(axis=1), element] *= scale
        stacks.append((cols, sub))
    return ak.UnitaryRep(r.group, None, stacks)


@pytest.fixture(scope="module")
def off_unitary_cases(groups):
    """name -> (channel, r_in, r_out, the sides bent, index bent): exactly covariant pairs whose
    reps :func:`_off_unitary` bends at element 1.  Where E never outputs into the bent index,
    E's own check cannot see the bend, and only the embedding's junk branch does."""
    rng = np.random.default_rng(11)
    z4 = groups["z4"]
    pair_in, wide_out = ak.number_rep(z4, [0, 1]), ak.number_rep(z4, [0, 1, 3])
    blocked = blocked_rep(z4)
    turn = np.sqrt(0.5) * np.array([[1, -1], [1, 1]])
    perm, d4 = perm_rep(groups["s4"]), _conjugated(ak.regular_rep(groups["d4"]), rng)
    z16 = ak.number_rep(groups["z16"], range(16))
    return {
        "monomial out, unread index": (_isometry_channel(np.eye(3, 2)), pair_in, wide_out, "out", 2),
        "blocks out, unread block": (
            _isometry_channel(np.vstack([turn, np.zeros((1, 2))])), pair_in, blocked, "out", 2
        ),
        "s4 perm in, twirled": (
            ak.twirl_channel(ak.random_channel(4, 2, rng), perm), perm, perm, "in", 0
        ),
        "dense d4 out, twirled": (ak.twirl_channel(ak.random_channel(8, 2, rng), d4), d4, d4, "out", 0),
        "z16 number both, shift": (ak.shift_channel(16, 2), z16, z16, "both", 5),
    }


class TestEmbeddingCertificate:
    """embed_channel asserts the embedding's covariance by a bound built from E's own check,
    against the second is_g_covariant it once made on the (d^2 x d^2) Choi matrix."""

    def test_bound_is_never_below_the_second_check(self, covariance_cases):
        """On every covariant pairing the bound is at least the residual of the second check,
        up to rounding, and the embedded Kraus operators are the entry-by-entry ones."""
        checked = 0
        for name, (c, r_in, r_out, covariant) in covariance_cases.items():
            if not covariant:
                continue
            emb = ak.embed_channel(c, r_in, r_out)
            assert emb.kraus.tobytes() == embedded_kraus(c).tobytes(), name
            oracle = embedded_covariance_check(emb, r_in, r_out)
            bound = channels._embedding_residual(ak.is_g_covariant(c, r_in, r_out), r_in, r_out)
            slack = 64 * np.finfo(float).eps * max(1.0, frob(emb.choi()))
            assert oracle.covariant and bound >= oracle.residual - slack, name
            checked += 1
        assert checked == sum(case[3] for case in covariance_cases.values()) >= 12

    @pytest.mark.parametrize(
        "name",
        ["monomial out, unread index", "blocks out, unread block", "s4 perm in, twirled",
         "dense d4 out, twirled", "z16 number both, shift"],
    )
    def test_raises_whenever_the_second_check_fails(self, off_unitary_cases, name):
        """Reps off unitary by sizes on both sides of the tolerance: wherever E's own check
        passes and the second check fails, embed_channel raises, and the bound is never below
        the second check's residual."""
        c, r_in, r_out, side, index = off_unitary_cases[name]
        caught = []
        for delta in (1e-12, 1e-10, 1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 1e-6, 1e-4):
            bent = _off_unitary(r_in if side == "in" else r_out, 1, index, 1 + delta)
            a, b = (bent, r_out) if side == "in" else (r_in, bent) if side == "out" else (bent, bent)
            first = ak.is_g_covariant(c, a, b)
            if not first:
                continue
            emb = ak.QuantumChannel(embedded_kraus(c))
            oracle = embedded_covariance_check(emb, a, b)
            slack = 64 * np.finfo(float).eps * max(1.0, frob(emb.choi()))
            assert channels._embedding_residual(first, a, b) >= oracle.residual - slack
            if not oracle:
                with pytest.raises(ak.ValidationError, match="embedding lost covariance"):
                    ak.embed_channel(c, a, b)
                caught.append(delta)
        if "unread" in name:  # E's check passes at every size: the junk branch must fail
            assert caught and min(caught) <= 3e-8

    def test_one_covariance_check_and_no_direct_sum(self, covariance_cases, monkeypatch):
        """E's check is the only is_g_covariant call, and no direct-sum rep is built."""
        calls, real = [], channels.is_g_covariant
        monkeypatch.setattr(channels, "is_g_covariant", lambda *a: calls.append(a) or real(*a))

        def no_direct_sum(*args):
            raise AssertionError("embed_channel built a direct-sum rep")

        monkeypatch.setattr(reps, "direct_sum_rep", no_direct_sum)
        monkeypatch.setattr(ak, "direct_sum_rep", no_direct_sum)
        assert not hasattr(channels, "direct_sum_rep")
        for name in ("s4 perm, twirled", "d4 regular conjugated, twirled", "d_in 2, d_out 3"):
            c, r_in, r_out, _ = covariance_cases[name]
            calls.clear()
            ak.embed_channel(c, r_in, r_out)
            assert len(calls) == 1 and calls[0][0] is c


class TestKrausRoute:
    @pytest.mark.parametrize("dense_side", ["in", "out"])
    def test_monomial_partner_keeps_no_dense_stack(self, groups, monkeypatch, dense_side):
        """With one rep not monomial, is_g_covariant scatters the monomial partner's matrices
        one chunk at a time and keeps no dense stack; the residual is the dense oracle's."""
        rng = np.random.default_rng(4)
        mono, dense = ak.regular_rep(groups["d4"]), _conjugated(ak.regular_rep(groups["d4"]), rng)
        r_in, r_out = (dense, mono) if dense_side == "in" else (mono, dense)
        c = ak.random_channel(8, 2, rng)
        monkeypatch.setattr(reps, "_STACK_BYTES", 3 * c.choi().nbytes)
        assert len(reps._chunk_slices(8, c.choi().nbytes)) == 3
        check = ak.is_g_covariant(c, r_in, r_out)
        assert mono._mats is None
        assert abs(check.residual - dense_covariance_residual(c, r_in, r_out)) <= 1e-12


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


RAISE_SITES = {  # name -> (call, error type, message)
    "covariance check against a rep of another dim": (
        lambda: ak.is_g_covariant(
            ak.random_channel(3, 1, np.random.default_rng(0)),
            ak.regular_rep(ak.make_cyclic(2)),
            ak.regular_rep(ak.make_cyclic(2)),
        ),
        ak.DimensionMismatchError,
        "channel dimensions must match the representations",
    ),
    "twirl against a rep of another dim": (
        lambda: ak.twirl_channel(
            ak.random_channel(3, 1, np.random.default_rng(0)), ak.regular_rep(ak.make_cyclic(2))
        ),
        ak.DimensionMismatchError,
        "channel and representation dimensions differ",
    ),
    "embedding against a rep of another dim": (
        lambda: ak.embed_channel(
            ak.random_channel(3, 1, np.random.default_rng(0)),
            ak.regular_rep(ak.make_cyclic(2)),
            ak.regular_rep(ak.make_cyclic(2)),
        ),
        ak.DimensionMismatchError,
        "channel dimensions must match the representations",
    ),
}


@pytest.mark.parametrize("name", list(RAISE_SITES))
def test_raise_site(name):
    assert_raises_exactly(*RAISE_SITES[name])
