"""Reps built from their monomial (src, phase) form: validated on the form, and the dense
``mats`` stacked only when first read, bit for bit as the dense constructors stacked it."""

import json

import numpy as np
import pytest
from helpers import (
    blocked_rep,
    cut_form,
    dense_charfunc,
    dense_rep_residuals,
    gns_cases,
    pair_payloads,
    perm_rep,
    stack_spans,
)

import asymkit as ak
from asymkit import jsonio, reps
from asymkit.linalg import haar_unitary, scaled_tol


def dense_regular(group):
    n = group.order
    mats = np.zeros((n, n, n), dtype=complex)
    mats[np.arange(n)[:, None], group.mul, np.arange(n)] = 1.0
    return mats


def dense_number(group, weights):
    """Each phase read from the table of N-th roots of unity at (g (w mod N)) mod N."""
    n, w = group.order, np.asarray(weights, dtype=np.int64)
    mats = np.zeros((n, w.size, w.size), dtype=complex)
    diagonal = np.arange(w.size)
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    mats[:, diagonal, diagonal] = roots[np.outer(np.arange(n), w % n) % n]
    return mats


def dense_tensor(a, b):
    n, d = a.shape[0], a.shape[1] * b.shape[1]
    return np.einsum("gij,gkl->gikjl", a, b).reshape(n, d, d)


def dense_sum(a, b):
    n, d = a.shape[0], a.shape[1] + b.shape[1]
    mats = np.zeros((n, d, d), dtype=complex)
    mats[:, : a.shape[1], : a.shape[1]], mats[:, a.shape[1] :, a.shape[1] :] = a, b
    return mats


def dense_scatter(src, phase):
    """The stack the JSON reader used to build from a (src, phase) file."""
    src, phase = np.asarray(src), jsonio.matrix_from_json(phase, 2)
    n, d = src.shape
    mats = np.zeros((n, d, d), dtype=complex)
    mats[np.arange(n)[:, None], np.arange(d), src] = phase
    return mats


def built_reps():
    """name -> (a fresh rep, the dense stack the dense constructors gave for it)."""
    s3, s4, z16 = ak.make_symmetric(3), ak.make_symmetric(4), ak.make_cyclic(16)
    d30 = ak.make_dihedral(15)
    w1, w2 = [0, 1, 3, 3, 7], [2, 15, 9]
    perm = perm_rep(s4)
    out = {
        "s3 regular": (ak.regular_rep(s3), dense_regular(s3)),
        "d30 regular": (ak.regular_rep(d30), dense_regular(d30)),
        "z16 number": (ak.number_rep(z16, w1), dense_number(z16, w1)),
        "s4 trivial": (ak.trivial_rep(s4), np.ones((24, 1, 1), dtype=complex)),
        "z16 number x number": (
            ak.tensor_rep(ak.number_rep(z16, w1), ak.number_rep(z16, w2)),
            dense_tensor(dense_number(z16, w1), dense_number(z16, w2)),
        ),
        "s3reg x s3reg": (
            ak.tensor_rep(ak.regular_rep(s3), ak.regular_rep(s3)),
            dense_tensor(dense_regular(s3), dense_regular(s3)),
        ),
        "s4 perm x s4 perm": (ak.tensor_rep(perm, perm), dense_tensor(perm.mats, perm.mats)),
        "s3reg + s3 trivial": (
            ak.direct_sum_rep(ak.regular_rep(s3), ak.trivial_rep(s3)),
            dense_sum(dense_regular(s3), np.ones((6, 1, 1))),
        ),
        "z16 number + number": (
            ak.direct_sum_rep(ak.number_rep(z16, w1), ak.number_rep(z16, w2)),
            dense_sum(dense_number(z16, w1), dense_number(z16, w2)),
        ),
    }
    for name in list(out):
        r = out[name][0]
        obj = json.loads(json.dumps(jsonio.rep_to_json(r)))
        out[f"json {name}"] = (jsonio.rep_from_json(obj), dense_scatter(obj["src"], obj["phase"]))
    return out


BUILT = list(built_reps())


@pytest.mark.parametrize("name", BUILT)
def test_lazy_mats_match_dense_construction(name):
    r, want = built_reps()[name]
    assert r._monomial is not None and r._mats is None
    got = r.mats
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable and r.mats is got
    with pytest.raises(ValueError):
        got[0, 0, 0] = 2.0


def test_decompose_leaves_the_stack_unbuilt():
    r = ak.regular_rep(ak.make_dihedral(15))
    dec = ak.decompose(r, seed=0)
    psi = ak.random_pure_state(r.dim, np.random.default_rng(0))
    ak.charfunc(psi, r)
    ak.twirl_operator(r, np.eye(r.dim))
    assert ak.symmetry_subgroup(psi, r).elements == (0,)
    assert len(ak.symmetry_subgroup(ak.QuantumState.mixed(np.eye(r.dim) / r.dim), r)) == 30
    assert ak.is_g_covariant(ak.channel_from_unitary(np.eye(r.dim)), r, r)
    assert r._mats is None
    assert dec.reconstruction_residual() <= 1e-12


@pytest.mark.parametrize("name", BUILT)
def test_character_reads_the_diagonal_phases(name):
    """character() sums the diagonal phases: the terms and order of trace_against(I), so
    decompose's multiplicities keep their bits, with no d x d identity and no dense stack."""
    r, want = built_reps()[name]
    assert r.character().tobytes() == r.trace_against(np.eye(r.dim)).tobytes()
    assert r._mats is None
    assert np.abs(r.character() - np.einsum("gii->g", want)).max() <= 1e-12


def test_gns_leaves_the_stack_unbuilt():
    f = ak.charfunc(ak.random_pure_state(30, np.random.default_rng(0)),
                    ak.regular_rep(ak.make_dihedral(15)))
    res = ak.gns_construct(f)
    ak.charfunc(res.state, res.rep)
    res.rep.character()
    jsonio.rep_to_json(res.rep)
    assert res.rep._monomial is None and res.rep._mats is None


def per_block_conjugate(r, x, g):
    """U(g) x U(g)^dag of a block rep as U (U x^dag)^dag, each product taken one diagonal block
    at a time: block j's matrices times x's rows cols_j, into the result's rows cols_j."""
    def act(y):  # U(g) y for y (1 or |g|, d, d)
        out = np.empty((len(np.arange(r.group.order)[g]), r.dim, r.dim), complex)
        for cols, sub in r._stacks:
            for c, m in zip(cols, sub):
                out[:, c] = m[g] @ y[:, c]
        return out

    return act(act(x.conj().T[None]).conj().swapaxes(1, 2))


def test_gns_conjugate_scatters_only_its_chunk(monkeypatch):
    """symmetry_subgroup and conjugate on a GNS rep act one chunk of g at a time and keep no
    dense stack; each chunk's product is the per-block products', bit for bit, and the dense
    stack's u x u^dag within rounding."""
    group = ak.make_dihedral(15)
    f = ak.charfunc(ak.random_pure_state(30, np.random.default_rng(0)), ak.regular_rep(group))
    res = ak.gns_construct(f)
    r, x = res.rep, ak.random_mixed_state(res.dim, np.random.default_rng(1)).rho
    monkeypatch.setattr(reps, "_STACK_BYTES", 3 * x.nbytes)  # ten chunks of three elements
    sym = ak.symmetry_subgroup(res.state, r)
    assert len(ak.symmetry_subgroup(ak.QuantumState.mixed(np.eye(r.dim) / r.dim), r)) == 30
    ak.twirl_operator(r, x)
    chunks = [slice(3, 6), np.array([7, 0, 29])]
    got = [r.conjugate(x, g) for g in chunks]
    assert r._monomial is None and r._mats is None
    for g, y in zip(chunks, got):
        assert y.tobytes() == per_block_conjugate(r, x, g).tobytes()
        u = r.mats[g]
        assert np.abs(y - u @ x @ u.conj().swapaxes(1, 2)).max() <= 1e-15
    assert sym == ak.symmetry_subgroup(res.state, ak.UnitaryRep(group, r.mats))


@pytest.mark.parametrize("name", list(gns_cases()))
def test_gns_rep_reads_its_blocks_as_the_dense_stack(name):
    """chi, the character and the JSON file of a GNS rep, read off its blocks, are those of its
    dense stack, whose exact-zero pattern gives the same form: monomial or the same slices."""
    f = gns_cases()[name]
    res = ak.gns_construct(f)
    r = res.rep
    chi, trace, obj = ak.charfunc(res.state, r).values, r.character(), jsonio.rep_to_json(r)
    assert r._mats is None
    dense = ak.UnitaryRep(f.group, r.mats)
    assert np.abs(chi - dense_charfunc(res.state, dense)).max() <= 1e-12
    assert np.abs(trace - np.einsum("gii->g", dense.mats)).max() <= 1e-12
    assert obj == jsonio.rep_to_json(dense)
    form = cut_form(r.mats)
    if isinstance(form, tuple):
        assert all(np.array_equal(x, y) for x, y in zip(r._monomial, form))
    else:
        assert r._monomial is None and stack_spans(r) == [(b.start, b.stop) for b in form]


def conjugate_reps():
    """One rep of each form UnitaryRep.conjugate branches on, or passes through."""
    s3, z4 = ak.make_symmetric(3), ak.make_cyclic(4)
    v = haar_unitary(6, np.random.default_rng(3))
    return {
        "regular s3 (unit phases)": ak.regular_rep(s3),
        "z16 number": ak.number_rep(ak.make_cyclic(16), [0, 3, 3, 7, -5]),
        "blocked z4": blocked_rep(z4),
        "dense s3": ak.UnitaryRep(s3, v @ ak.regular_rep(s3).mats @ v.conj().T),
    }


@pytest.mark.parametrize("name", list(conjugate_reps()))
def test_conjugate_matches_the_dense_product(name):
    r = conjugate_reps()[name]
    rng = np.random.default_rng(11)
    real = rng.normal(size=(r.dim, r.dim))
    n = r.group.order
    for x in (real + 1j * rng.normal(size=(r.dim, r.dim)), real):
        for g in (slice(None), slice(1, n, 2), rng.permutation(n)[: max(1, n // 2)], np.array([0])):
            got = r.conjugate(x, g)
            want = r.mats[g] @ x @ r.mats[g].conj().transpose(0, 2, 1)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13


def signed_regular_s3():
    """Regular S3 times the sign character: a signed permutation rep, phases exactly +-1."""
    s3 = ak.make_symmetric(3)
    sign = np.rint(np.linalg.det(perm_rep(s3).mats).real).astype(complex)[:, None]
    r = ak.tensor_rep(ak.regular_rep(s3), reps._block_rep(s3, (np.zeros((6, 1), int), sign)))
    assert set(r._monomial[1].ravel().tolist()) == {1, -1}
    return r


UNIT_PHASES = [name for name, (r, _) in built_reps().items() if (r._monomial[1] == 1).all()]


@pytest.mark.parametrize("name", [*UNIT_PHASES, "signed s3 regular"])
def test_conjugate_is_the_exact_dense_product(name, monkeypatch):
    """A 0/1 form is gathered with no phase product, a signed one multiplies its phases; both
    equal mats[g] x mats[g]^dag exactly, over the whole group and one element at a time."""
    r = signed_regular_s3() if name == "signed s3 regular" else built_reps()[name][0]
    rng, n, mats = np.random.default_rng(12), r.group.order, r.mats
    x = rng.normal(size=(r.dim, r.dim)) + 1j * rng.normal(size=(r.dim, r.dim))
    want = mats @ x @ mats.conj().transpose(0, 2, 1)
    calls, multiply = [], np.multiply
    monkeypatch.setattr(np, "multiply", lambda *a, **kw: calls.append(a) or multiply(*a, **kw))
    whole = r.conjugate(x)
    ones = [r.conjugate(x, g) for i in range(n) for g in (slice(i, i + 1), np.array([i]))]
    monkeypatch.undo()
    assert np.array_equal(whole, want)
    assert all(np.array_equal(one, want[i // 2 : i // 2 + 1]) for i, one in enumerate(ones))
    assert bool(calls) == (name == "signed s3 regular")


def compact_corruptions():
    """Compact rep files each holding one defect, as name -> JSON object."""
    z4_number = pair_payloads()["rep-phase"][0]
    files = {
        "z4 number": z4_number,
        "s3 regular": jsonio.rep_to_json(ak.regular_rep(ak.make_symmetric(3))),
        "z8 number x2": jsonio.rep_to_json(ak.number_rep(ak.make_cyclic(8), [0, 0, 3, 3, 5])),
    }
    out = {}
    for name, obj in files.items():
        edits = {
            "zero phase": lambda o: o["phase"][2].__setitem__(1, [0.0, 0.0]),
            "non-unit phase": lambda o: o["phase"][1].__setitem__(0, [2.0, 0.0]),
            "nan phase": lambda o: o["phase"][1].__setitem__(1, [float("nan"), 0.0]),
            "inf phase": lambda o: o["phase"][3].__setitem__(0, [0.0, float("inf")]),
            "mats[0] not I, phase": lambda o: o["phase"][0].__setitem__(1, [-1.0, 0.0]),
            "mats[0] not I, src": lambda o: o["src"][0].reverse(),
            "src not a homomorphism": lambda o: o["src"][2].reverse(),
        }
        for edit, apply in edits.items():
            bad = json.loads(json.dumps(obj))
            apply(bad)
            out[f"{name}: {edit}"] = bad
    return out


@pytest.mark.parametrize("name", list(compact_corruptions()))
def test_compact_files_fail_as_their_dense_stack_did(name):
    """The reader used to scatter a compact file into a dense stack and build the rep from
    it; reading the form directly raises the same error with the same message."""
    obj = compact_corruptions()[name]
    with pytest.raises(ak.ValidationError) as dense:
        ak.UnitaryRep(ak.group_from_json(obj["group"]), dense_scatter(obj["src"], obj["phase"]))
    with pytest.raises(ak.ValidationError) as compact:
        jsonio.rep_from_json(obj)
    assert str(compact.value) == str(dense.value)


def summands():
    """Reps of S3 and of Z4 in every form: monomial, block, dense and 0-dim."""
    s3, z4 = ak.make_symmetric(3), ak.make_cyclic(4)
    reg, rng = ak.regular_rep(s3), np.random.default_rng(3)
    u = haar_unitary(6, rng)
    gns = ak.gns_construct(ak.charfunc(ak.random_pure_state(6, rng), reg)).rep
    return [
        [reg, ak.trivial_rep(s3), perm_rep(s3), ak.UnitaryRep(s3, u @ reg.mats @ u.conj().T),
         ak.UnitaryRep(s3, np.zeros((6, 0, 0))), gns],
        [ak.number_rep(z4, [0, 1, 3]), blocked_rep(z4), ak.UnitaryRep(z4, np.zeros((4, 0, 0)))],
    ]


def fixture_sums():
    return [(a, b) for same_group in summands() for a in same_group for b in same_group]


@pytest.mark.parametrize("at", range(len(fixture_sums())))
def test_direct_sum_passes_the_dense_oracle_unchecked(at, monkeypatch):
    """direct_sum_rep skips validation, as the residuals of validated summands add in squares;
    every sum of the fixtures passes the dense oracle at the sum's own tolerance, and keeps
    the form its dense stack shows."""
    a, b = fixture_sums()[at]
    checks = []
    monkeypatch.setattr(reps, "_validate_rep", lambda *args: checks.append(args))
    s = ak.direct_sum_rep(a, b)
    assert checks == []
    identity, unitarity, homomorphism = dense_rep_residuals(s.group.mul, s.mats)
    tol = scaled_tol(s.mats)
    assert identity <= tol and unitarity.max(initial=0) <= tol and homomorphism.max() <= tol
    form = cut_form(s.mats)
    if isinstance(form, tuple):
        assert all(np.array_equal(x, y) for x, y in zip(s._monomial, form))
    else:
        assert s._monomial is None and stack_spans(s) == [(b.start, b.stop) for b in form]


def test_direct_sum_over_the_trivial_group_is_checked(monkeypatch):
    """The argument needs ||M||_F > 1 for a summand of dim >= 1, which |G| = 1 lacks."""
    z1 = ak.make_cyclic(1)
    one, empty = ak.trivial_rep(z1), ak.UnitaryRep(z1, np.zeros((1, 0, 0)))
    checks, real = [], reps._validate_rep
    monkeypatch.setattr(reps, "_validate_rep", lambda *args: checks.append(1) or real(*args))
    assert ak.direct_sum_rep(one, one)._monomial is not None
    assert ak.direct_sum_rep(one, empty).dim == 1
    assert len(checks) == 2


LARGE_GROUPS = {"s5": (ak.make_symmetric, 5), "d100": (ak.make_dihedral, 50),
                "z120": (ak.make_cyclic, 120), "s6": (ak.make_symmetric, 6),
                "d720": (ak.make_dihedral, 360), "z720": (ak.make_cyclic, 720)}


def exact_reps(group, monkeypatch):
    """regular_rep and trivial_rep of group, built while a spy on _validate_rep counts calls:
    the table's exact checks prove both, so neither is checked again."""
    checks = []
    with monkeypatch.context() as m:
        m.setattr(reps, "_validate_rep", lambda *args: checks.append(args))
        built = ak.regular_rep(group), ak.trivial_rep(group)
    assert checks == []
    return built


def assert_exact_forms(group, regular, trivial):
    """Both forms are the ones the dense matrices show, dtype and bits: row g h of the regular
    U(g) reads column h, so src[g] inverts the permutation mul[g]; and the pairwise check passes
    on each when called directly."""
    n = group.order
    wants = [(np.argsort(group.mul, axis=1), np.ones((n, n), complex)),
             (np.zeros((n, 1), np.int64), np.ones((n, 1), complex))]
    for r, want in zip((regular, trivial), wants):
        for got, w in zip(r._monomial, want):
            assert got.dtype == w.dtype and np.array_equal(got, w)
        reps._validate_rep(group, r._monomial)


def test_regular_and_trivial_reps_of_the_fixture_groups_are_exact(groups, monkeypatch):
    """Unchecked, and exact: the dense oracle reads 0.0 for every residual."""
    for group in groups.values():
        built = exact_reps(group, monkeypatch)
        assert_exact_forms(group, *built)
        for r in built:
            identity, unitarity, homomorphism = dense_rep_residuals(group.mul, r.mats)
            assert identity == 0.0 and unitarity.max() == 0.0 and homomorphism.max() == 0.0


@pytest.mark.parametrize("name", LARGE_GROUPS)
def test_regular_and_trivial_reps_up_to_the_cap_are_exact(name, monkeypatch):
    """The same up to |G| = 720, where the dense oracle's |G|^2 products are kept off."""
    make, k = LARGE_GROUPS[name]
    group = make(k)
    assert_exact_forms(group, *exact_reps(group, monkeypatch))
