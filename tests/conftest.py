"""Shared fixtures: groups, regular representations, and their decompositions.

Decomposing a regular representation is the expensive step most tests lean
on, so everything here is session-scoped and computed once.
"""

from __future__ import annotations

import numpy as np
import pytest

import asymkit as ak


def _build_groups():
    return {
        "z2": ak.make_cyclic(2),
        "z3": ak.make_cyclic(3),
        "z4": ak.make_cyclic(4),
        "z6": ak.make_cyclic(6),
        "z16": ak.make_cyclic(16),
        "klein": ak.direct_product(ak.make_cyclic(2), ak.make_cyclic(2)),
        "s3": ak.make_symmetric(3),
        "s4": ak.make_symmetric(4),
        "d3": ak.make_dihedral(3),
        "d4": ak.make_dihedral(4),
    }


@pytest.fixture(scope="session")
def groups():
    return _build_groups()


@pytest.fixture(scope="session")
def regular_reps(groups):
    return {name: ak.regular_rep(g) for name, g in groups.items()}


@pytest.fixture(scope="session")
def decompositions(regular_reps):
    return {name: ak.decompose(rep, seed=0) for name, rep in regular_reps.items()}


@pytest.fixture(scope="session")
def z16_number_rep(groups):
    return ak.number_rep(groups["z16"], range(16))


@pytest.fixture(scope="session")
def z16_number_dec(z16_number_rep):
    return ak.decompose(z16_number_rep, seed=0)


@pytest.fixture(scope="session")
def s3_square(regular_reps):
    """S3reg (x) S3reg (d = 36): not regular, multiset (1,6),(1,6),(2,12)."""
    return ak.tensor_rep(regular_reps["s3"], regular_reps["s3"])


@pytest.fixture(scope="session")
def s3_square_dec(s3_square):
    return ak.decompose(s3_square, seed=0)


@pytest.fixture(scope="session")
def z16_number_x3_dec(groups):
    """Z16 number rep with every weight 0..15 three times (d = 48, sixteen (1,3) blocks)."""
    return ak.decompose(ak.number_rep(groups["z16"], [w for w in range(16) for _ in range(3)]))


@pytest.fixture(scope="session")
def shuffled(decompositions):
    """Regular S4 with shapes (3, 3), (1, 1), (2, 2), (1, 1), (3, 3): equal shapes apart.
    The same decomposition with its blocks (and basis rows) in another order."""
    dec, order = decompositions["s4"], [3, 0, 2, 1, 4]
    rows = np.concatenate([np.arange(dec.rep.dim)[dec.sector_slice(i)] for i in order])
    dec = ak.IrrepDecomposition(dec.rep, dec.basis[rows], [dec.blocks[i] for i in order])
    assert dec.multiset() == [(3, 3), (1, 1), (2, 2), (1, 1), (3, 3)]
    assert dec.reconstruction_residual() <= 1e-10
    return dec


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)
