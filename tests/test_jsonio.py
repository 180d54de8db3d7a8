"""Serialization round trips for every interchange format."""

import json

import numpy as np

import asymkit as ak
from asymkit import jsonio


def test_rep_round_trip(rng):
    z4 = ak.make_cyclic(4)
    r = ak.number_rep(z4, [0, 1, 3])
    back = jsonio.rep_from_json(jsonio.rep_to_json(r))
    assert back.dim == r.dim
    assert np.max(np.abs(back.mats - r.mats)) < 1e-12
    assert np.array_equal(back.group.mul, z4.mul)


def test_rep_round_trip_is_bit_identical(z16_number_x3_dec):
    r = z16_number_x3_dec.rep
    back = jsonio.rep_from_json(json.loads(json.dumps(jsonio.rep_to_json(r))))
    assert np.array_equal(back.mats, r.mats)
    assert ak.decompose(back, seed=0).reconstruction_residual() <= 1e-12


def test_state_round_trips(rng):
    pure = ak.random_pure_state(5, rng)
    back = jsonio.state_from_json(jsonio.state_to_json(pure))
    assert back.is_pure
    assert np.max(np.abs(back.vec - pure.vec)) < 1e-11
    mixed = ak.random_mixed_state(4, rng)
    back = jsonio.state_from_json(jsonio.state_to_json(mixed))
    assert np.max(np.abs(back.rho - mixed.rho)) < 1e-11


def test_charfunction_round_trip(regular_reps, rng):
    r = regular_reps["s3"]
    f = ak.charfunc(ak.random_pure_state(6, rng), r)
    obj = jsonio.func_to_json(f)
    assert obj["labels"] == list(r.group.labels)
    back = jsonio.func_from_json(obj, r.group)
    assert np.max(np.abs(back.values - f.values)) < 1e-11


def test_weight_state_round_trip():
    w = ak.WeightState.from_amplitudes({0: 0.6, 2: 0.8j})
    back = jsonio.weight_state_from_json(jsonio.weight_state_to_json(w))
    assert back.weights == {0: pytest_approx(0.36), 2: pytest_approx(0.64)}
    assert abs(back.amplitudes[2] - 0.8j) < 1e-11


def pytest_approx(x):
    import pytest

    return pytest.approx(x, abs=1e-11)


def test_decomposition_export_shape(decompositions):
    obj = jsonio.decomposition_to_json(decompositions["s3"])
    assert set(obj) == {"basis", "offsets", "blocks"}
    assert [b["dim"] for b in obj["blocks"]] == [1, 1, 2]
    assert obj["offsets"] == [0, 1, 2]


def test_canonical_dumps_rounds_floats():
    text = jsonio.canonical_dumps({"x": 0.1234567890123456789})
    assert "0.123456789012" in text


def test_reloaded_group_interoperates(regular_reps, rng):
    # a JSON round-tripped group is a distinct object but structurally equal;
    # cross-object operations must accept it
    r = regular_reps["z6"]
    reloaded = jsonio.rep_from_json(jsonio.rep_to_json(r))
    assert ak.same_group(r.group, reloaded.group)
    mixed = ak.tensor_rep(r, reloaded)
    assert mixed.dim == 36
    f1 = ak.charfunc(ak.random_pure_state(6, rng), r)
    f2 = ak.CharFunction(reloaded.group, f1.values.copy())
    out = ak.convolve(f1, f2)
    assert out.values.shape == (6,)
