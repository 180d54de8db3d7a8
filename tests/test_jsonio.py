"""Serialization round trips for every interchange format."""

import functools
import json
import tracemalloc

import numpy as np
import pytest
from conftest import _build_groups
from helpers import (
    assert_raises_exactly,
    MALFORMED,
    PAIR_KINDS,
    blocked_rep,
    decomposition_oracle,
    dense_charfunc,
    listed,
    malformed_payload,
    pair_payloads,
    perm_rep,
    reference_canonical_dumps,
    rejected_inputs,
    report_oracle,
    stack_spans,
    table_text,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import asymkit as ak
from asymkit import jsonio, reps
from asymkit.linalg import haar_unitary


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


@pytest.mark.parametrize("amplitudes", [{0: 0.6, 2: 0.8j}, None], ids=["amplitudes", "none"])
def test_weight_state_report_is_its_file(amplitudes):
    """A weight state's report is laid out as its file, each amplitude a 0-dim complex array:
    canonical_dumps prints it as json.dumps prints it listed, and the file is the listed report,
    the weights and [re, im] pairs of each amplitude, with no amplitudes key when there are none."""
    w = ak.WeightState.from_amplitudes(amplitudes) if amplitudes else ak.WeightState({1: 1.0})
    report = jsonio.report_to_json(w)
    assert jsonio.canonical_dumps(report) == reference_canonical_dumps(listed(report))
    want = {"weights": {str(n): float(p) for n, p in w.weights.items()}}
    if amplitudes:
        want["amplitudes"] = {str(n): [a.real, a.imag] for n, a in w.amplitudes.items()}
    obj = jsonio.weight_state_to_json(w)
    assert obj == listed(report) == want
    assert json.dumps(obj) == json.dumps(want)  # key order too: the file's bytes


def test_weight_keys_read_as_whole_numbers():
    """A weight key reads as the JSON integer fields do: "1.0" as 1, "1.5" and "one" as a
    validation error."""
    w = jsonio.weight_state_from_json({"weights": {"1.0": 1.0}, "amplitudes": {"1.0": [0, 1]}})
    assert w.weights == {1: 1.0} and w.amplitudes == {1: 1j}
    for obj in ({"weights": {"1.5": 1.0}}, {"weights": {"1": 1.0}, "amplitudes": {"1.5": [1, 0]}},
                {"weights": {"one": 1.0}}):
        with pytest.raises(ak.ValidationError, match="whole"):
            jsonio.weight_state_from_json(obj)


def pytest_approx(x):
    import pytest

    return pytest.approx(x, abs=1e-11)


def test_decomposition_export_shape(decompositions):
    obj = listed(jsonio.report_to_json(decompositions["s3"]))
    assert set(obj) == {"basis", "offsets", "blocks"}
    assert [b["dim"] for b in obj["blocks"]] == [1, 1, 2]
    assert obj["offsets"] == [0, 1, 2]
    assert obj == decomposition_oracle(decompositions["s3"])
    assert table_text(obj) == table_text(decomposition_oracle(decompositions["s3"]))


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


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_valid_pair_payloads_parse(kind):
    payload, _, read = pair_payloads()[kind]
    read(json.loads(json.dumps(payload)))


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_malformed_pairs_rejected_by_reader(kind, case):
    _, _, read = pair_payloads()[kind]
    with pytest.raises(ak.ValidationError, match="pairs"):
        read(json.loads(json.dumps(malformed_payload(kind, case))))


def test_reader_takes_what_float_takes():
    obj = [["1.5", True], ["-2e0", False], [1, "nan"], [0, "-inf"]]
    expected = np.array([complex(float(re), float(im)) for re, im in obj])
    got = jsonio.matrix_from_json(obj, 1)
    assert got.dtype == complex
    np.testing.assert_array_equal(got, expected)
    assert jsonio.weight_state_from_json(
        {"weights": {"0": 1.0}, "amplitudes": {"0": ["1", False]}}
    ).amplitudes == {0: 1.0}


@pytest.mark.parametrize("obj", [[["x", 0.0]], [[{}, 0.0]], [[10**400, 0.0]], 5, "ab", {"a": 1}])
def test_reader_rejects_what_float_rejects(obj):
    with pytest.raises(ak.ValidationError):
        jsonio.matrix_from_json(obj, 1)


def test_signed_zero_and_subnormal_round_trip():
    v = np.array([complex(-0.0, -0.0), complex(5e-324, -1e308), complex(np.nan, np.inf)])
    back = jsonio.matrix_from_json(json.loads(json.dumps(jsonio.matrix_to_json(v))), 1)
    np.testing.assert_array_equal(back.view(float), v.view(float))
    assert np.signbit(back.view(float)[:2]).all()


SPECIAL_FLOATS = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e16, 123456789012345.0]
floats = st.one_of(
    st.floats(), st.sampled_from(SPECIAL_FLOATS), st.floats(min_value=-1e3, max_value=1e3)
)
shapes = array_shapes(min_dims=1, max_dims=4, max_side=3)
number_arrays = st.one_of(
    arrays(np.float64, shapes, elements=floats), arrays(np.int64, shapes)
).map(lambda a: a.tolist())
scalars = st.one_of(
    floats,
    floats.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=5),
)
payloads = st.recursive(
    st.one_of(scalars, number_arrays),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), inner, max_size=4),
    ),
    max_leaves=30,
)


@given(payloads)
@settings(max_examples=300, deadline=None)
def test_canonical_dumps_matches_encoder(payload):
    assert jsonio.canonical_dumps(payload) == reference_canonical_dumps(payload)


def test_canonical_dumps_matches_encoder_on_large_arrays():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 5, 4, 2)) * 10.0 ** rng.integers(-320, 309, (6, 5, 4, 2))
    payload = {
        "stack": a.tolist(),
        "matrix": a[0].tolist(),
        "pairs": a[0, 0].tolist(),
        "table": rng.integers(-(2**62), 2**62, (7, 9)).tolist(),
    }
    assert jsonio.canonical_dumps(payload) == reference_canonical_dumps(payload)


wide = st.floats(min_value=1e11, max_value=1e17) | st.floats(min_value=-1e17, max_value=-1e11)
parts = st.one_of(floats, wide)  # exponents 11 to 16 and SPECIAL_FLOATS among the rest
leaf_shapes = array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3)
complex_arrays = leaf_shapes.flatmap(
    lambda shape: arrays(np.float64, shape + (2,), elements=parts)
).map(lambda pairs: pairs.view(complex)[..., 0])
array_leaves = st.one_of(
    complex_arrays,
    arrays(np.int64, leaf_shapes),
    arrays(np.float64, leaf_shapes, elements=parts),
    arrays(np.bool_, leaf_shapes),
)


def nested(leaf, depth: int):
    """Leaves at exactly ``depth`` levels of dicts and lists."""
    for _ in range(depth):
        leaf = st.lists(leaf, max_size=3) | st.dictionaries(st.text(max_size=5), leaf, max_size=3)
    return leaf


@given(st.integers(0, 3).flatmap(lambda depth: nested(array_leaves | scalars, depth)))
@settings(max_examples=300, deadline=None)
def test_canonical_dumps_of_array_leaves_matches_encoder(payload):
    """An array leaf is written as the encoder writes it listed: a complex array as its [re, im]
    pairs, an integer, float or bool one by ``tolist``, zero-length axes and 0-dim arrays
    included."""
    assert jsonio.canonical_dumps(payload) == reference_canonical_dumps(listed(payload))


def form_of(obj) -> list[str]:
    return [key for key in ("mats", "blocks", "src") if key in obj]


def haar_conjugated_rep():
    s4 = ak.make_symmetric(4)
    r = ak.direct_sum_rep(perm_rep(s4), ak.regular_rep(s4))
    u = haar_unitary(r.dim, np.random.default_rng(11))
    return ak.UnitaryRep(s4, u @ r.mats @ u.conj().T)


ROUND_TRIPS = {
    **{
        f"regular-{name}": ("src", lambda fx, name=name: fx("regular_reps")[name])
        for name in _build_groups()
    },
    "z16-number": ("src", lambda fx: fx("z16_number_rep")),
    "s3-square": ("src", lambda fx: fx("s3_square")),
    "z16-number-x3": ("src", lambda fx: fx("z16_number_x3_dec").rep),
    "gns-s4": (
        "blocks",
        lambda fx: ak.gns_construct(
            ak.charfunc(ak.random_pure_state(24, fx("rng")), fx("regular_reps")["s4"])
        ).rep,
    ),
    "haar-dense": ("mats", lambda fx: haar_conjugated_rep()),
    "zero-dim": ("blocks", lambda fx: ak.UnitaryRep(fx("groups")["z4"], np.zeros((4, 0, 0)))),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
def test_rep_round_trip_bit_identical_in_its_form(request, name):
    form, build = ROUND_TRIPS[name]
    r = build(request.getfixturevalue)
    obj = json.loads(json.dumps(jsonio.rep_to_json(r)))
    assert form_of(obj) == [form]
    back = jsonio.rep_from_json(obj)
    assert back.mats.tobytes() == r.mats.tobytes()
    assert (back._monomial is None) == (r._monomial is None)
    if r._monomial is None:  # the same diagonal blocks, bit for bit
        assert stack_spans(back) == stack_spans(r)
        assert [m.tobytes() for _, m in back._stacks] == [m.tobytes() for _, m in r._stacks]


@pytest.mark.parametrize("name", ["z16-number-x3", "regular-s4"])
def test_old_dense_file_of_monomial_rep_loads(request, name):
    r = ROUND_TRIPS[name][1](request.getfixturevalue)
    old = {"group": ak.group_to_json(r.group), "dim": r.dim, "mats": jsonio.matrix_to_json(r.mats)}
    back = jsonio.rep_from_json(json.loads(json.dumps(old)))
    assert back.mats.tobytes() == r.mats.tobytes()
    assert back._monomial is not None


def block_file_reps() -> dict:
    """Non-monomial reps with several diagonal blocks or one: a GNS rep of S4, the blocked
    rep of Z4 (2 + 1) and the Haar-conjugated regular rep of S3 (one block)."""
    rng = np.random.default_rng(5)
    s3, s4 = ak.make_symmetric(3), ak.make_symmetric(4)
    v = haar_unitary(6, rng)
    chi = ak.charfunc(ak.random_pure_state(24, rng), ak.regular_rep(s4))
    return {
        "gns s4": ak.gns_construct(chi).rep,
        "blocked z4": blocked_rep(ak.make_cyclic(4)),
        "haar s3 regular": ak.UnitaryRep(s3, v @ ak.regular_rep(s3).mats @ v.conj().T),
    }


def block_and_mats_files(r, corrupt=None) -> tuple[dict, dict]:
    """r's diagonal blocks, after corrupt edits the list of (start, (|G|, s, s)) in place, as
    a `blocks` file and as a `mats` file of the same stack, each read back from JSON text."""
    blocks = [(int(c[0]), m.copy()) for cs, ms in r._stacks for c, m in zip(cs, ms)]
    blocks.sort(key=lambda blk: blk[0])
    if corrupt is not None:
        corrupt(blocks)
    mats = np.zeros((r.group.order, r.dim, r.dim), dtype=complex)
    for a, m in blocks:
        mats[:, a : a + m.shape[1], a : a + m.shape[1]] = m
    head = {"group": ak.group_to_json(r.group), "dim": r.dim}
    by_blocks = {**head, "blocks": [{"start": a, "mats": jsonio.matrix_to_json(m)}
                                    for a, m in blocks]}
    by_mats = {**head, "mats": jsonio.matrix_to_json(mats)}
    return json.loads(json.dumps(by_blocks)), json.loads(json.dumps(by_mats))


def _swap_identity(blocks):
    for _, m in blocks:
        m[[0, 1]] = m[[1, 0]]


def _scale_one(blocks):
    blocks[-1][1][1] *= 1 + 1e-6


def _swap_elements(blocks):
    m = max(blocks, key=lambda blk: blk[1].shape[1])[1]
    m[[1, 2]] = m[[2, 1]]


def _nan_entry(blocks):
    blocks[0][1][1, 0, 0] = np.nan


BLOCK_CORRUPTIONS = {"identity slot moved": _swap_identity, "one block scaled": _scale_one,
                     "two elements swapped": _swap_elements, "one NaN entry": _nan_entry}


@pytest.mark.parametrize("name", list(block_file_reps()))
def test_blocks_file_is_read_into_its_blocks(name, rng):
    """A `blocks` file is read into the block form with no dense stack, which charfunc, the
    character and the writer never build; its stacks, chi and file are the `mats` file's."""
    r = block_file_reps()[name]
    by_blocks, by_mats = block_and_mats_files(r)
    back, dense = jsonio.rep_from_json(by_blocks), jsonio.rep_from_json(by_mats)
    psi = ak.random_pure_state(r.dim, rng)
    chi, trace, obj = ak.charfunc(psi, back).values, back.character(), jsonio.rep_to_json(back)
    assert back._monomial is None and back._mats is None
    assert stack_spans(back) == stack_spans(dense) == stack_spans(r)
    assert [m.tobytes() for _, m in back._stacks] == [m.tobytes() for _, m in dense._stacks]
    assert chi.tobytes() == ak.charfunc(psi, dense).values.tobytes()
    assert np.abs(chi - dense_charfunc(psi, dense)).max() <= 1e-12
    assert trace.tobytes() == dense.character().tobytes()
    assert obj == jsonio.rep_to_json(dense) == jsonio.rep_to_json(r)
    assert back.mats.tobytes() == dense.mats.tobytes()


@pytest.mark.parametrize("kind", list(BLOCK_CORRUPTIONS))
@pytest.mark.parametrize("name", list(block_file_reps()))
def test_malformed_blocks_file_fails_as_its_mats_file(name, kind):
    by_blocks, by_mats = block_and_mats_files(block_file_reps()[name], BLOCK_CORRUPTIONS[kind])
    with pytest.raises(ak.ValidationError) as from_blocks:
        jsonio.rep_from_json(by_blocks)
    with pytest.raises(ak.ValidationError) as from_mats:
        jsonio.rep_from_json(by_mats)
    assert type(from_blocks.value) is type(from_mats.value)
    assert str(from_blocks.value) == str(from_mats.value)


@pytest.mark.parametrize("name", ["regular s4", "z16 number"])
def test_blocks_file_of_monomial_rep_loads_as_monomial(name):
    """One block (the regular rep) or a 1x1 block per index (the number rep)."""
    if name == "regular s4":
        r = ak.regular_rep(ak.make_symmetric(4))
        blocks = [{"start": 0, "mats": jsonio.matrix_to_json(r.mats)}]
    else:
        r = ak.number_rep(ak.make_cyclic(16), [0, 3, 3, 7, -5])
        blocks = [{"start": i, "mats": jsonio.matrix_to_json(r.mats[:, i : i + 1, i : i + 1])}
                  for i in range(r.dim)]
    obj = {"group": ak.group_to_json(r.group), "dim": r.dim, "blocks": blocks}
    back = jsonio.rep_from_json(json.loads(json.dumps(obj)))
    assert back._monomial is not None and back._mats is None
    assert all(np.array_equal(x, y) for x, y in zip(back._monomial, r._monomial))


def test_blocks_file_builds_no_dense_stack(monkeypatch):
    """Reading the `blocks` file of a GNS rep of D50 (L = 100) allocates well under its
    (|G|, L, L) stack, with the pairwise check in small chunks, and builds no `mats`."""
    group = ak.make_dihedral(50)
    chi = ak.charfunc(ak.random_pure_state(100, np.random.default_rng(2)), ak.regular_rep(group))
    r = ak.gns_construct(chi).rep
    obj = json.loads(json.dumps(jsonio.rep_to_json(r)))
    dense_bytes = group.order * r.dim**2 * 16
    assert r.dim == 100 and len(obj["blocks"]) > 1
    monkeypatch.setattr(reps, "_STACK_BYTES", 1 << 16)
    tracemalloc.start()
    try:
        back = jsonio.rep_from_json(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back._mats is None and stack_spans(back) == stack_spans(r)
    assert peak < dense_bytes / 4


READERS = {
    "rep": jsonio.rep_from_json,
    "group": ak.group_from_json,
    "channel": jsonio.channel_from_json,
    "weights": jsonio.weight_state_from_json,
}


@pytest.mark.parametrize("name", sorted(rejected_inputs()))
def test_reader_rejects(name):
    kind, payload = rejected_inputs()[name]
    match = "unitarity" if name.startswith("phase-") else None
    with pytest.raises(ak.ValidationError, match=match):
        READERS[kind](json.loads(json.dumps(payload)))


def test_whole_numbers_are_read_as_integers():
    payload, _, read = pair_payloads()["rep-block"]
    obj = json.loads(json.dumps(payload))
    obj["dim"], obj["blocks"][1]["start"] = 3.0, 2.0
    assert read(obj).mats.tobytes() == read(payload).mats.tobytes()
    assert ak.group_from_json({"mul": [[0.0, 1.0], [1.0, 0.0]], "order": 2.0}).order == 2


HUGE_CLAIMS = {  # form -> (file, the bytes its form would hold on Z720)
    "monomial": ({"dim": 20000, "src": [[0]], "phase": [[[1.0, 0.0]]]}, 345600000),
    "blocks": (
        {"dim": 2000, "blocks": [{"start": 0, "mats": [[[[1.0, 0.0]]] * 20000]}]},
        4608000000000,
    ),
    "dense": ({"dim": 2000, "mats": [[[[1.0, 0.0]]]]}, 46080000000),
}


@pytest.mark.parametrize("form", sorted(HUGE_CLAIMS))
def test_size_limit_before_allocating(form):
    """Each file claims more than 256 MiB in its own form on Z720: dim 20000 as (src, phase),
    720 * 20000 * 24 bytes; a first block of 20000 rows, 720 * 20000^2 * 16; dim 2000 as
    ``mats``, 720 * 2000^2 * 16."""
    z720 = ak.make_cyclic(720)
    obj, held = HUGE_CLAIMS[form]
    tracemalloc.start()
    try:
        with pytest.raises(ak.SizeLimitError, match=f"{held} bytes"):
            jsonio.rep_from_json(obj, z720)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def plus(dim: int, *levels: int) -> ak.QuantumState:
    v = np.zeros(dim)
    v[list(levels)] = 1.0
    return ak.QuantumState.pure(v / np.linalg.norm(v))


@functools.cache
def reports() -> dict:
    """One report of each kind the CLI prints, and each verdict status: name -> report."""
    rng = np.random.default_rng(8)
    s3 = ak.regular_rep(ak.make_symmetric(3))
    dec = ak.decompose(s3, seed=0)
    psi, other = ak.random_pure_state(6, rng), ak.random_pure_state(6, rng)
    planted = ak.QuantumState.pure(ak.random_invariant_unitary(dec, rng) @ psi.vec)
    z4 = ak.number_rep(ak.make_cyclic(4), range(4))
    z16 = ak.number_rep(ak.make_cyclic(16), range(16))
    not_pd = np.full(6, -0.9)
    not_pd[0] = 1.0
    z6, d20 = ak.regular_rep(ak.make_cyclic(6)), ak.regular_rep(ak.make_dihedral(10))
    raw = ak.random_channel(6, 2, rng)
    return {
        "uequiv equivalent": ak.decide_unitary_g_equivalence(psi, planted, dec),
        "uequiv not equivalent": ak.decide_unitary_g_equivalence(psi, other, dec),
        "equiv inconclusive": ak.decide_g_equivalence(plus(4, 0, 1), plus(4, 0, 2), z4),
        "equiv one-dim rep": ak.decide_g_equivalence(plus(16, 0, 1), plus(16, 2, 3), z16),
        "overlap": ak.max_overlap(psi, other, dec),
        "bochner valid": ak.is_positive_definite(ak.charfunc(psi, s3), dec),
        "bochner invalid": ak.is_positive_definite(ak.CharFunction(s3.group, not_pd), dec),
        "gns abelian": ak.gns_construct(ak.charfunc(ak.random_pure_state(6, rng), z6)),
        "gns d20": ak.gns_construct(ak.charfunc(ak.random_pure_state(20, rng), d20)),
        "covariant": ak.is_g_covariant(ak.twirl_channel(raw, s3), s3, s3),
        "not covariant": ak.is_g_covariant(raw, s3, s3),
    }


def test_reports_cover_every_case():
    r = reports()
    status = {name: v.status for name, v in r.items() if isinstance(v, ak.EquivalenceVerdict)}
    assert status == {
        "uequiv equivalent": ak.EquivalenceStatus.EQUIVALENT,
        "uequiv not equivalent": ak.EquivalenceStatus.NOT_EQUIVALENT,
        "equiv inconclusive": ak.EquivalenceStatus.INCONCLUSIVE,
        "equiv one-dim rep": ak.EquivalenceStatus.EQUIVALENT,
    }
    assert r["uequiv equivalent"].witness is not None
    assert r["uequiv not equivalent"].certificate is not None
    assert r["equiv one-dim rep"].one_dim_rep is not None
    assert [bool(r[k]) for k in ("bochner valid", "bochner invalid")] == [True, False]
    assert r["gns abelian"].rep._monomial is not None
    assert "blocks" in jsonio.rep_to_json(r["gns d20"].rep)
    assert [bool(r[k]) for k in ("covariant", "not covariant")] == [True, False]


@pytest.mark.parametrize("name", list(reports()))
def test_report_to_json_matches_the_serializer_it_replaced(name):
    """Equal dicts, equal canonical text and equal tables, so key order holds too."""
    report = reports()[name]
    got, want = listed(jsonio.report_to_json(report)), report_oracle(report)
    assert got == want
    assert jsonio.canonical_dumps(got) == jsonio.canonical_dumps(want)
    assert table_text(got) == table_text(want)


@pytest.mark.parametrize("name", ["regular", "gns"])
def test_d360_file_reads_back_in_its_form(name):
    """The regular rep of D360 (make_dihedral(180)) as its 2.8 MB (src, phase) file, and the
    GNS rep of a generic chi on it as its 12 MB ``blocks`` file: each dense stack would take
    746 MB, over the 256 MiB cap, but neither form holds one."""
    r = ak.regular_rep(ak.make_dihedral(180))
    if name == "gns":
        chi = ak.charfunc(ak.random_pure_state(r.dim, np.random.default_rng(0)), r)
        r = ak.gns_construct(chi).rep
    obj = json.loads(json.dumps(jsonio.rep_to_json(r)))
    back = jsonio.rep_from_json(obj)
    assert form_of(obj) == ["src" if name == "regular" else "blocks"]
    assert back._mats is None
    if name == "regular":
        assert all(np.array_equal(x, y) for x, y in zip(back._monomial, r._monomial))
    else:
        assert stack_spans(back) == stack_spans(r)
        assert [m.tobytes() for _, m in back._stacks] == [m.tobytes() for _, m in r._stacks]


def _z2_rep_file(**edits) -> dict:
    """The regular rep of Z2 as its dense ``mats`` file, with the given keys set (None drops)."""
    r = ak.regular_rep(ak.make_cyclic(2))
    obj = {"group": ak.group_to_json(r.group), "dim": 2, "mats": jsonio.matrix_to_json(r.mats)}
    return {k: v for k, v in {**obj, **edits}.items() if v is not None}


def _channel_file(**edits) -> dict:
    return {**jsonio.channel_to_json(ak.random_channel(2, 1, np.random.default_rng(0))), **edits}


BLOCK = {"start": 0, "mats": [[[[1.0, 0.0]]]] * 2}
RAISE_SITES = {  # name -> (call, error type, message)
    "rep without a group": (
        lambda: jsonio.rep_from_json(_z2_rep_file(group=None)),
        ak.ValidationError,
        "representation JSON carries no group; pass one explicitly",
    ),
    "negative dim": (
        lambda: jsonio.rep_from_json(_z2_rep_file(dim=-1)),
        ak.ValidationError,
        "representation JSON 'dim' must be nonnegative, got -1",
    ),
    "dim against mats": (
        lambda: jsonio.rep_from_json(_z2_rep_file(dim=3)),
        ak.ValidationError,
        "representation JSON 'dim' does not match its matrices",
    ),
    "block without a start": (
        lambda: jsonio.rep_from_json(_z2_rep_file(mats=None, dim=1, blocks=[{"mats": []}])),
        ak.ValidationError,
        "representation JSON 'blocks' must be a list of {start, mats}",
    ),
    "block that is a list": (
        lambda: jsonio.rep_from_json(_z2_rep_file(mats=None, dim=1, blocks=[[0, []]])),
        ak.ValidationError,
        "representation JSON 'blocks' must be a list of {start, mats}",
    ),
    "blocks that are not a list": (
        lambda: jsonio.rep_from_json(_z2_rep_file(mats=None, dim=1, blocks=BLOCK)),
        ak.ValidationError,
        "representation JSON 'blocks' must be a list of {start, mats}",
    ),
    "state of another kind": (
        lambda: jsonio.state_from_json({"kind": "thermal", "data": [[1.0, 0.0]]}),
        ak.ValidationError,
        "state JSON kind must be 'pure' or 'mixed', got 'thermal'",
    ),
    "weight state without weights": (
        lambda: jsonio.weight_state_from_json({"amplitudes": {"0": [1.0, 0.0]}}),
        ak.ValidationError,
        "weight-state JSON must contain a 'weights' map",
    ),
    "d_in against the Kraus operators": (
        lambda: jsonio.channel_from_json(_channel_file(d_in=3)),
        ak.ValidationError,
        "channel JSON 'd_in' does not match its Kraus operators",
    ),
    "d_out against the Kraus operators": (
        lambda: jsonio.channel_from_json(_channel_file(d_out=3)),
        ak.ValidationError,
        "channel JSON 'd_out' does not match its Kraus operators",
    ),
}


@pytest.mark.parametrize("name", list(RAISE_SITES))
def test_raise_site(name):
    assert_raises_exactly(*RAISE_SITES[name])


def test_one_block_file_reads():
    """The block the blocks rows above wrap reads as the trivial rep of Z2."""
    r = jsonio.rep_from_json(_z2_rep_file(mats=None, dim=1, blocks=[BLOCK]))
    assert r.dim == 1 and np.array_equal(r.mats, np.ones((2, 1, 1)))
