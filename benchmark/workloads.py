"""The four benchmark workloads.

Each workload is a closed loop with one client: the runner asks for op ``i``,
times the call, checks the answer, and only then asks for op ``i + 1``.
:meth:`op` makes the op's inputs (untimed, numpy only, drawn from the
generator seeded by the workload's seed and ``i``) and returns
``(kind, call, check)``: ``call()``
is the timed part and calls only the public asymkit API, ``check(answer)``
raises :class:`checks.CheckError` on a wrong answer.

Ops rotate through a fixed mix of ``period`` slots, and a run always ends on
a whole period, so every run measures the same mix.  A run warms up for
``warmup_periods`` whole periods and traces ``traced_periods`` whole periods,
so the op indices, and with them every input, are fixed by the seed.  Each mix places its
median and 90th percentile among several ops of similar cost: a quantile
that sits on one kind of op, with large cost gaps to its neighbours, jumps
between kinds as the machine's speed drifts.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import checks


def unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def invariant_unitary(dec, rng: np.random.Generator) -> np.ndarray:
    """W^dag (directsum_mu I_{d_mu} kron V_mu) W with Haar V_mu: commutes with the rep."""
    d = dec.basis.shape[0]
    inner = np.zeros((d, d), dtype=complex)
    for at, blk in zip(dec.offsets, dec.blocks):
        size = blk.dim * blk.mult
        block = np.kron(np.eye(blk.dim), haar_unitary(blk.mult, rng))
        inner[at : at + size, at : at + size] = block
    return dec.basis.conj().T @ inner @ dec.basis


def random_kraus(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian Kraus operators, renormalized so that sum K^dag K = I."""
    ks = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    vals, vecs = np.linalg.eigh(np.einsum("kij,kil->jl", ks.conj(), ks))
    return ks @ ((vecs / np.sqrt(vals)) @ vecs.conj().T)


def regular_chi(mul: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """chi(g) = <psi|U(g)|psi> in the left-regular rep, where U(g) e_h = e_{gh}."""
    return (vec.conj()[mul] * vec[None, :]).sum(axis=1)


def perm_mats(group) -> np.ndarray:
    """Defining permutation rep of S_n, read off the element labels."""
    perms = [[int(c) for c in label] for label in group.labels]
    n = len(perms[0])
    mats = np.zeros((group.order, n, n), dtype=complex)
    for g, p in enumerate(perms):
        mats[g, p, np.arange(n)] = 1.0
    return mats


def even_perms(group) -> list[int]:
    out = []
    for g, label in enumerate(group.labels):
        p = [int(c) for c in label]
        inversions = sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))
        if inversions % 2 == 0:
            out.append(g)
    return out


def describe(name: str, rep, dec=None) -> dict:
    """Input descriptor: |G|, d, the block multiset and the computed dense bytes."""
    out = {
        "input": name,
        "order": rep.group.order,
        "dim": rep.dim,
        "mats_bytes_computed": rep.group.order * rep.dim * rep.dim * 16,
    }
    if dec is not None:
        out["blocks"] = [[b.dim, b.mult] for b in dec.blocks]
    return out


def block_list(dec) -> list:
    return [(b.dim, b.mult, np.asarray(b.mats)) for b in dec.blocks]


def op_rng(seed: int, i: int) -> np.random.Generator:
    """The generator for op ``i``'s inputs: fixed by the seed and the op index alone."""
    return np.random.default_rng((seed, i))


class Workload:
    name = ""
    period = 1
    warmup_periods = 1
    traced_periods = 1
    bytes_out = 0  # stdout bytes captured, for workloads that capture any

    def __init__(self, ak, seed: int, work_dir: Path):
        self.ak = ak
        self.seed = seed
        self.work_dir = work_dir
        self.rng = np.random.default_rng(seed)
        self.descriptors: dict[str, dict] = {}

    def prepare(self) -> None:
        """Up-front work, counted in set-up time."""

    def op(self, i: int):
        raise NotImplementedError


class DecomposeCold(Workload):
    """One op builds a group, builds a rep and decomposes it, all from scratch.

    Half the slots are regular reps, bound by the O(|G| d^4) twirl and subrep
    extraction; half are structured reps with small |G| and high
    multiplicity (tensor squares and number reps with repeated weights),
    where copy alignment and per-element loops dominate.  The 20 reps form a
    ladder of costs without large gaps, so the median and 90th percentile
    move smoothly with the machine's speed instead of jumping between two
    kinds of op.
    """

    name = "decompose-cold"
    # One period takes about 2 s on a 2-core x86-64 virtual machine.
    warmup_periods = 1
    traced_periods = 2

    def __init__(self, ak, seed, work_dir):
        super().__init__(ak, seed, work_dir)

        def dihedral(n):
            return f"D{2 * n} regular", lambda: ak.regular_rep(ak.make_dihedral(n))

        def cyclic(n):
            return f"Z{n} regular", lambda: ak.regular_rep(ak.make_cyclic(n))

        def number(n, copies):
            weights = [w for w in range(n) for _ in range(copies)]
            return f"Z{n} number x{copies}", lambda: ak.number_rep(ak.make_cyclic(n), weights)

        def perm_squared():
            group = ak.make_symmetric(4)
            perm = ak.UnitaryRep(group, perm_mats(group))
            return ak.tensor_rep(perm, perm)

        def s3_squared():
            group = ak.make_symmetric(3)
            return ak.tensor_rep(ak.regular_rep(group), ak.regular_rep(group))

        self.mix = [
            ("S4 regular", lambda: ak.regular_rep(ak.make_symmetric(4))),
            number(16, 3),
            dihedral(6),
            ("S3xS3 tensor", s3_squared),
            cyclic(32),
            number(8, 3),
            dihedral(10),
            number(20, 2),
            dihedral(13),
            ("S4 perm x S4 perm", perm_squared),
            dihedral(17),
            number(12, 3),
            dihedral(16),
            number(10, 3),
            dihedral(8),
            number(16, 2),
            dihedral(11),
            number(12, 2),
            dihedral(14),
            number(8, 4),
        ]
        self.period = len(self.mix)

    def op(self, i):
        kind, build = self.mix[i % self.period]
        op_seed = self.seed * 1_000_003 + i
        ak = self.ak

        def call():
            rep = build()
            return rep, ak.decompose(rep, seed=op_seed)

        def check(answer):
            rep, dec = answer
            checks.check_decomposition(np.asarray(rep.mats), np.asarray(dec.basis), block_list(dec))
            self.descriptors.setdefault(kind, describe(kind, rep, dec))

        return kind, call, check


class StateQueries(Workload):
    """Queries on fresh random state pairs against reps decomposed in set-up.

    Decomposition is paid in set-up, so op latency covers only states,
    equivalence, approx and linalg.  Query kinds rotate fastest, then reps;
    the second half of the period plants phi = V psi for a random invariant
    unitary V, the first half draws phi independently.
    """

    name = "state-queries"
    kinds = ("roundtrip", "uequiv", "equiv", "overlap")
    # One period takes about 50 ms on a 2-core x86-64 virtual machine.
    warmup_periods = 20
    traced_periods = 40

    def prepare(self):
        ak = self.ak
        s4, d20 = ak.make_symmetric(4), ak.make_dihedral(10)
        z16, s3 = ak.make_cyclic(16), ak.make_symmetric(3)
        reps = [
            ("S4 regular", ak.regular_rep(s4), None),
            ("D20 regular", ak.regular_rep(d20), None),
            ("Z16 number x3", ak.number_rep(z16, [w for w in range(16) for _ in range(3)]), z16),
            ("S3xS3 tensor", ak.tensor_rep(ak.regular_rep(s3), ak.regular_rep(s3)), s3),
        ]
        self.targets = []
        for name, rep, group in reps:
            dec = ak.decompose(rep, seed=self.seed)
            if group is None:
                dec_regular = dec
            else:
                dec_regular = ak.decompose(ak.regular_rep(group), seed=self.seed)
            self.targets.append((name, rep, dec, dec_regular))
            self.descriptors[name] = describe(name, rep, dec)
        self.period = len(self.kinds) * len(self.targets) * 2

    def op(self, i):
        ak = self.ak
        kind = self.kinds[i % len(self.kinds)]
        name, rep, dec, dec_regular = self.targets[(i // len(self.kinds)) % len(self.targets)]
        planted = i % self.period >= self.period // 2
        mats = np.asarray(rep.mats)
        rng = op_rng(self.seed, i)
        psi = unit_vector(rep.dim, rng)
        phi = invariant_unitary(dec, rng) @ psi if planted else unit_vector(rep.dim, rng)

        if kind == "roundtrip":

            def call():
                s = ak.QuantumState.pure(psi)
                chi = ak.charfunc(s, rep)
                return chi, ak.reduction_onto_irreps(s, dec), ak.fourier_inverse(chi, dec)

            def check(answer):
                chi, red, back = answer
                checks.check_chi(mats, psi, chi.values)
                checks.check_round_trip(red.blocks, back.blocks)

        elif kind == "uequiv":

            def call():
                return ak.decide_unitary_g_equivalence(
                    ak.QuantumState.pure(psi), ak.QuantumState.pure(phi), dec
                )

            def check(v):
                checks.check_unitary_verdict(mats, psi, phi, planted, v.status.value, v.witness)

        elif kind == "equiv":

            def call():
                return ak.decide_g_equivalence(
                    ak.QuantumState.pure(psi), ak.QuantumState.pure(phi), rep, dec_regular
                )

            def check(v):
                checks.check_g_verdict(
                    rep.group.mul, mats, psi, phi, planted, v.status.value, v.one_dim_rep
                )

        else:

            def call():
                return ak.max_overlap(ak.QuantumState.pure(psi), ak.QuantumState.pure(phi), dec)

            def check(r):
                bounds = (r.bound_trace, r.bound_charfunc_global, r.bound_charfunc_per_mu)
                checks.check_overlap(mats, psi, phi, planted, r.optimal, bounds, r.witness)

        return f"{kind} {name}{' planted' if planted else ''}", call, check


class ConstructValidate(Workload):
    """Ops that build new validated objects: GNS reps, Bochner tests, channels.

    Channel reps keep d <= 8 (the embedding doubles it), because
    ``embed_channel`` is very slow at d = 16.
    """

    name = "construct-validate"
    # One period takes about 80 ms on a 2-core x86-64 virtual machine.
    warmup_periods = 12
    traced_periods = 25

    def prepare(self):
        ak = self.ak
        self.groups = []
        for label, group in (
            ("S4", ak.make_symmetric(4)),
            ("D12", ak.make_dihedral(6)),
            ("Z32", ak.make_cyclic(32)),
        ):
            reg = ak.regular_rep(group)
            dec = ak.decompose(reg, seed=self.seed)
            self.groups.append((label, group, dec))
            self.descriptors[f"{label} regular"] = describe(f"{label} regular", reg, dec)
        s4, s3, d4 = ak.make_symmetric(4), ak.make_symmetric(3), ak.make_dihedral(4)
        perm = ak.UnitaryRep(s4, perm_mats(s4))
        self.perm_dec = ak.decompose(perm, seed=self.seed)
        self.descriptors["S4 perm"] = describe("S4 perm", perm, self.perm_dec)
        # (label, rep, a normal subgroup)
        self.channel_reps = [
            ("S4 perm", perm, even_perms(s4)),
            ("S3 regular", ak.regular_rep(s3), even_perms(s3)),
            ("D4 regular", ak.regular_rep(d4), list(range(4))),
        ]
        for label, rep, _ in self.channel_reps[1:]:
            self.descriptors[label] = describe(label, rep)
        self.mix = []
        for (g_label, *_), (c_label, *_) in zip(self.groups, self.channel_reps):
            self.mix += [
                ("gns", g_label),
                ("bochner", g_label),
                ("twirl", c_label),
                ("embed", "S4 perm"),
                ("subgroup twirl", c_label),
            ]
        self.period = len(self.mix)

    def op(self, i):
        kind, label = self.mix[i % self.period]
        ak = self.ak
        rng = op_rng(self.seed, i)
        if kind in ("gns", "bochner"):
            _, group, dec = next(g for g in self.groups if g[0] == label)
            f = regular_chi(np.asarray(group.mul), unit_vector(group.order, rng))
            if kind == "gns":

                def call():
                    return ak.gns_construct(ak.CharFunction(group, f))

                def check(res):
                    checks.check_gns(f, np.asarray(res.rep.mats), res.state.vec)

            else:
                # Hermitian-symmetric but |bad(g)| > bad(e): not positive definite.
                g = int(rng.integers(1, group.order))
                bad = f.copy()
                bad[g] = 1.5 * np.exp(1j * rng.uniform(0, 2 * np.pi))
                bad[group.inv[g]] = np.conj(bad[g])
                if group.inv[g] == g:
                    bad[g] = 1.5

                def call():
                    good_rep = ak.is_positive_definite(ak.CharFunction(group, f), dec)
                    bad_rep = ak.is_positive_definite(ak.CharFunction(group, bad), dec)
                    return good_rep, bad_rep

                def check(answer):
                    valid, invalid = (r.positive_definite for r in answer)
                    checks.check_flag("valid chi positive-definite", valid, True)
                    checks.check_flag("invalid candidate positive-definite", invalid, False)

        else:
            _, rep, normal = next(c for c in self.channel_reps if c[0] == label)
            mats = np.asarray(rep.mats)
            if kind == "twirl":
                raw = random_kraus(rep.dim, 2, rng)

                def call():
                    c = ak.QuantumChannel(raw)
                    twirled = ak.twirl_channel(c, rep)
                    return (
                        twirled,
                        ak.is_g_covariant(twirled, rep, rep),
                        ak.is_g_covariant(c, rep, rep),
                    )

                def check(answer):
                    twirled, cov_twirled, cov_raw = answer
                    checks.check_trace_preserving(np.asarray(twirled.kraus))
                    checks.check_flag("twirled channel covariant", cov_twirled.covariant, True)
                    checks.check_flag("raw channel covariant", cov_raw.covariant, False)

            elif kind == "embed":
                p = rng.uniform(0.2, 0.8)
                kraus = np.array(
                    [
                        np.sqrt(p) * invariant_unitary(self.perm_dec, rng),
                        np.sqrt(1 - p) * invariant_unitary(self.perm_dec, rng),
                    ]
                )

                def call():
                    return ak.embed_channel(ak.QuantumChannel(kraus), rep, rep)

                def check(out):
                    checks.check_embedding(np.asarray(out.kraus), kraus, mats, mats)

            else:

                def call():
                    c = ak.uniform_twirl_over_subgroup(rep, normal)
                    return c, ak.is_g_covariant(c, rep, rep)

                def check(answer):
                    checks.check_trace_preserving(np.asarray(answer[0].kraus))
                    checks.check_flag("normal-subgroup twirl covariant", answer[1].covariant, True)

        return f"{kind} {label}", call, check


class CliRoundtrip(Workload):
    """In-process ``asymkit.cli.main(argv)`` calls with stdout captured.

    Set-up writes the JSON inputs; every call parses them again, most calls
    decompose again, and each emits a canonical report, which must be
    byte-identical every time the same argv is run.
    """

    name = "cli-roundtrip"
    # One period takes about 2.3 s on a 2-core x86-64 virtual machine, and
    # 370k spans when traced: the per-scalar JSON helpers are traced too.

    def prepare(self):
        ak = self.ak
        jsonio = ak.jsonio
        rng = self.rng
        d = self.work_dir / "cli-inputs"
        d.mkdir(parents=True, exist_ok=True)
        files = {}

        def write(name, obj):
            path = d / f"{name}.json"
            path.write_text(json.dumps(obj))
            files[name] = str(path)

        s4, d12, z16 = ak.make_symmetric(4), ak.make_dihedral(6), ak.make_cyclic(16)
        write("s4", ak.group_to_json(s4))
        write("d12", ak.group_to_json(d12))
        z16num = ak.number_rep(z16, [w for w in range(16) for _ in range(2)])
        write("z16num", jsonio.rep_to_json(z16num))
        z12num = ak.number_rep(ak.make_cyclic(12), [w for w in range(12) for _ in range(3)])
        write("z12num", jsonio.rep_to_json(z12num))
        z20num = ak.number_rep(ak.make_cyclic(20), [w for w in range(20) for _ in range(2)])
        write("z20num", jsonio.rep_to_json(z20num))
        d20 = ak.make_dihedral(10)
        write("d20", ak.group_to_json(d20))
        perm = ak.UnitaryRep(s4, perm_mats(s4))
        write("s4perm", jsonio.rep_to_json(perm))
        for label, rep in (
            ("s4", ak.regular_rep(s4)),
            ("d12", ak.regular_rep(d12)),
            ("z16", z16num),
            ("z12", z12num),
            ("z20", z20num),
        ):
            dec = ak.decompose(rep, seed=self.seed)
            self.descriptors[label] = describe(label, rep, dec)
            psi = unit_vector(rep.dim, rng)
            write(f"{label}_psi", jsonio.state_to_json(ak.QuantumState.pure(psi)))
            planted = invariant_unitary(dec, rng) @ psi
            write(f"{label}_phi", jsonio.state_to_json(ak.QuantumState.pure(planted)))
            other = unit_vector(rep.dim, rng)
            write(f"{label}_other", jsonio.state_to_json(ak.QuantumState.pure(other)))
        for label, group in (("s4", s4), ("d12", d12), ("d20", d20)):
            f = regular_chi(np.asarray(group.mul), unit_vector(group.order, rng))
            write(f"{label}_chi", jsonio.func_to_json(ak.CharFunction(group, f)))
        perm_dec = ak.decompose(perm, seed=self.seed)
        self.descriptors["s4perm"] = describe("s4perm", perm, perm_dec)
        write("raw", jsonio.channel_to_json(ak.QuantumChannel(random_kraus(4, 2, rng))))
        cov = [invariant_unitary(perm_dec, rng) / np.sqrt(2) for _ in range(2)]
        write("cov", jsonio.channel_to_json(ak.QuantumChannel(np.array(cov))))
        shift = int(rng.integers(1, 5))
        p = rng.dirichlet(np.ones(4))
        write("w1", {"weights": {str(n): float(q) for n, q in enumerate(p)}})
        write("w2", {"weights": {str(n + shift): float(q) for n, q in enumerate(p)}})
        seed = str(self.seed)
        f = files
        # 25 argvs whose costs rise without large gaps, so that the median
        # and the 90th percentile each fall among several argvs of like cost.
        self.argvs = [
            ["u1shift", "--state", f["w1"], "--state", f["w2"]],
            ["decompose", "--rep", f["z16num"]],
            ["covcheck", "--channel", f["raw"], "--rep", f["s4perm"]],
            ["bochner", "--group", f["s4"], "--func", f["s4_chi"]],
            ["gns", "--group", f["d20"], "--func", f["d20_chi"]],
            ["equiv", "--group", f["d12"], "--state", f["d12_psi"], "--state", f["d12_phi"]],
            ["overlap", "--rep", f["z16num"], "--state", f["z16_psi"], "--state", f["z16_phi"]],
            ["bochner", "--group", f["d12"], "--func", f["d12_chi"]],
            ["uequiv", "--group", f["s4"], "--state", f["s4_psi"], "--state", f["s4_other"]],
            ["reduce", "--rep", f["z12num"], "--state", f["z12_psi"]],
            ["uequiv", "--group", f["d12"], "--state", f["d12_psi"], "--state", f["d12_phi"]],
            ["uequiv", "--rep", f["z16num"], "--state", f["z16_psi"], "--state", f["z16_other"]],
            ["overlap", "--group", f["d12"], "--state", f["d12_psi"], "--state", f["d12_other"]],
            ["equiv", "--group", f["s4"], "--state", f["s4_psi"], "--state", f["s4_phi"]],
            ["uequiv", "--rep", f["z12num"], "--state", f["z12_psi"], "--state", f["z12_phi"]],
            ["twirl", "--channel", f["raw"], "--rep", f["s4perm"]],
            ["reduce", "--rep", f["z16num"], "--state", f["z16_psi"]],
            ["decompose", "--group", f["d12"]],
            ["decompose", "--group", f["s4"]],
            ["gns", "--group", f["s4"], "--func", f["s4_chi"]],
            ["gns", "--group", f["d12"], "--func", f["d12_chi"]],
            ["overlap", "--rep", f["z20num"], "--state", f["z20_psi"], "--state", f["z20_other"]],
            ["equiv", "--rep", f["z16num"], "--state", f["z16_psi"], "--state", f["z16_phi"]],
            ["embed", "--channel", f["cov"], "--rep", f["s4perm"], "--rep-out", f["s4perm"]],
            ["reduce", "--rep", f["z20num"], "--state", f["z20_psi"]],
        ]
        self.argvs = [a + ["--seed", seed] for a in self.argvs]
        self.period = len(self.argvs)
        self.reference: dict[int, str] = {}

    def op(self, i):
        slot = i % self.period
        argv = self.argvs[slot]
        main = self.ak.cli.main

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            return code, out.getvalue(), err.getvalue()

        def check(answer):
            code, out, err = answer
            self.bytes_out += len(out)
            checks.check_cli(argv[0], code, out, err, self.reference.get(slot))
            self.reference.setdefault(slot, out)

        inputs = " ".join(Path(a).stem for a in argv if a.endswith(".json"))
        return f"{argv[0]} #{slot} {inputs}", call, check


WORKLOADS = {w.name: w for w in (DecomposeCold, StateQueries, ConstructValidate, CliRoundtrip)}
