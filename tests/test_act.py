"""U(g) x read off the rep's own form (``UnitaryRep._act``): a gather on monomial reps, one
product per block size on block reps, against the dense stack; and the passes built on it,
which never stack or keep the dense ``mats`` of a block rep."""

import numpy as np
import pytest
from helpers import blocked_rep, perm_rep

import asymkit as ak
from asymkit import jsonio, reps
from asymkit.linalg import haar_unitary
from asymkit.reps import _dagger


def gns_rep(group, seed):
    f = ak.charfunc(ak.random_pure_state(group.order, np.random.default_rng(seed)),
                    ak.regular_rep(group))
    return ak.gns_construct(f).rep


def act_reps() -> dict:
    """One rep of every form, as name -> (rep, monomial?)."""
    s3, z4 = ak.make_symmetric(3), ak.make_cyclic(4)
    dense = perm_rep(ak.make_symmetric(4))
    turn = haar_unitary(dense.dim, np.random.default_rng(3))
    return {
        "0/1 monomial s3 regular": (ak.regular_rep(s3), True),
        "phased monomial z8 number": (ak.number_rep(ak.make_cyclic(8), [0, 1, 3, 3, 6]), True),
        "gns d12": (gns_rep(ak.make_dihedral(6), 0), False),
        "gns s4": (gns_rep(ak.make_symmetric(4), 1), False),
        "blocked z4": (blocked_rep(z4), False),
        "json blocks": (jsonio.rep_from_json(jsonio.rep_to_json(gns_rep(s3, 2))), False),
        "single dense block": (ak.UnitaryRep(dense.group, turn @ dense.mats @ turn.conj().T), False),
        "0-dim": (reps._block_rep(s3, (np.zeros((6, 0), int), np.ones((6, 0)))), False),
    }


ACT_REPS = list(act_reps())


def element_sets(n):
    """The whole group, a slice, an index array out of order with a repeat, and every
    element alone as a slice and as an index array."""
    ones = [g for i in range(n) for g in (slice(i, i + 1), np.array([i]))]
    return [slice(None), slice(1, n, 2), np.array([n - 1, 0, n // 2, 0]), *ones]


@pytest.mark.parametrize("name", ACT_REPS)
def test_act_is_the_dense_product(name):
    """U(g) x and U(g)^dag x, a fresh array, against mats[g] @ x and mats[g]^dag @ x, for x with
    no element axis and with one (and a leading axis): bit for bit on monomial reps, else within
    rounding."""
    r, monomial = act_reps()[name]
    rng, n, m = np.random.default_rng(5), r.group.order, 3
    mats = r.mats
    for g in element_sets(n):
        k = len(np.arange(n)[g])
        for shape in [(1, r.dim, m), (2, 1, r.dim, m), (k, r.dim, m), (2, k, r.dim, m)]:
            x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            for adjoint in (False, True):
                got = r._act(x, g, adjoint)
                want = (_dagger(mats[g]) if adjoint else mats[g]) @ x
                assert got.shape == want.shape and not np.shares_memory(got, x)
                if monomial:
                    assert np.array_equal(got, want)
                else:
                    assert np.abs(got - want).max(initial=0.0) <= 1e-13


BLOCK_REPS = ["gns d12", "gns s4", "blocked z4", "json blocks", "0-dim"]


@pytest.mark.parametrize("name", BLOCK_REPS)
def test_block_rep_passes_keep_no_dense_stack(name):
    """decompose, conjugate, twirl_operator, symmetry_subgroup, is_g_covariant's Kraus route
    and extend_isometry_to_ginv_unitary act through the blocks: mats is never kept."""
    r, _ = act_reps()[name]
    assert r._stacks is not None and r._mats is None
    rng = np.random.default_rng(4)
    dec = ak.decompose(r, seed=0)
    assert r._mats is None
    if r.dim:
        x = ak.random_mixed_state(r.dim, rng).rho
        r.conjugate(x, slice(None))
        ak.twirl_operator(r, x)
        ak.symmetry_subgroup(ak.random_pure_state(r.dim, rng), r)
        assert r._mats is None
        assert ak.is_g_covariant(ak.channel_from_unitary(np.eye(r.dim)), r, r)  # the Kraus route
        assert not ak.is_g_covariant(ak.random_channel(r.dim, 2, rng), r, r)
        assert r._mats is None
    v = ak.random_invariant_unitary(dec, rng)
    got = ak.extend_isometry_to_ginv_unitary(v, np.eye(r.dim), r, dec)
    assert r._mats is None
    assert np.abs(got - v).max(initial=0.0) <= 1e-9


def test_direct_sum_leaves_a_monomial_summand_unstacked():
    """The mixed sum scatters the monomial summand's matrices into one block of the sum and
    keeps no dense stack on the summand; the sum's matrices are the two blocks."""
    z4 = ak.make_cyclic(4)
    mono, blocks = ak.regular_rep(z4), blocked_rep(z4)
    for a, b in ((mono, blocks), (blocks, mono)):
        s = ak.direct_sum_rep(a, b)
        assert mono._mats is None and s._stacks is not None
        want = np.zeros((4, s.dim, s.dim), complex)
        want[:, : a.dim, : a.dim], want[:, a.dim :, a.dim :] = a._scatter(), b._scatter()
        assert np.array_equal(s.mats, want)
