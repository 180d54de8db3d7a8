"""Show that every correctness check passes a real answer and rejects a corrupted one.

Run with ``python3 benchmark/run.py --self-check``.  Each case computes a real
answer with asymkit, runs the check on it (it must pass), then on each
deliberately corrupted copy (it must raise :class:`checks.CheckError`).
"""

from __future__ import annotations

import contextlib
import io

import numpy as np

import checks
import workloads


def _cases(ak):
    rng = np.random.default_rng(2024)

    # decompose-cold
    rep = ak.regular_rep(ak.make_symmetric(4))
    dec = ak.decompose(rep, seed=3)
    mats, basis, blocks = np.asarray(rep.mats), np.asarray(dec.basis), workloads.block_list(dec)
    nudged = basis.copy()
    nudged[0, 0] += 1e-3
    dup = list(blocks)
    dup[1] = dup[0]
    more = list(blocks)
    more[0] = (more[0][0], more[0][1] + 1, more[0][2])
    yield "residual", lambda b: checks.check_residual(mats, b, blocks), basis, [nudged]
    yield "basis unitary", checks.check_basis_unitary, basis, [basis * 1.001]
    scaled = list(blocks)
    scaled[0] = (scaled[0][0], scaled[0][1], 1.01 * scaled[0][2])
    yield "block characters", checks.check_block_characters, blocks, [dup, scaled]
    yield "multiplicities", lambda b: checks.check_multiplicities(mats, b), blocks, [more]

    # state-queries
    rep = ak.regular_rep(ak.make_dihedral(10))
    dec = ak.decompose(rep, seed=3)
    dec_regular = dec
    mats = np.asarray(rep.mats)
    mul = np.asarray(rep.group.mul)
    psi = workloads.unit_vector(rep.dim, rng)
    phi = workloads.invariant_unitary(dec, rng) @ psi
    other = workloads.unit_vector(rep.dim, rng)
    s_psi, s_phi, s_other = (ak.QuantumState.pure(v) for v in (psi, phi, other))

    chi = ak.charfunc(s_psi, rep).values
    bad_chi = chi.copy()
    bad_chi[1] += 1e-6
    yield "charfunc", lambda v: checks.check_chi(mats, psi, v), chi, [bad_chi]

    red = ak.reduction_onto_irreps(s_psi, dec).blocks
    back = ak.fourier_inverse(ak.charfunc(s_psi, rep), dec).blocks
    bad_back = [b.copy() for b in back]
    bad_back[-1][0, 0] += 1e-6
    yield "Fourier round trip", lambda b: checks.check_round_trip(red, b), back, [bad_back]

    v = ak.decide_unitary_g_equivalence(s_psi, s_phi, dec)
    w = v.witness
    noisy = w + 1e-6 * rng.normal(size=w.shape)
    yield (
        "unitary verdict",
        lambda a: checks.check_unitary_verdict(mats, psi, a[0], a[1], a[2], a[3]),
        (phi, True, v.status.value, w),
        [
            (phi, True, "not_equivalent", None),
            (other, False, "equivalent", w),
            (phi, True, "equivalent", np.exp(0.01j) * w),
            (phi, True, "equivalent", noisy),
        ],
    )

    v = ak.decide_g_equivalence(s_psi, s_phi, rep, dec_regular)
    omega = v.one_dim_rep
    flipped = omega.copy()
    flipped[1] = -flipped[1]
    yield (
        "g verdict",
        lambda a: checks.check_g_verdict(mul, mats, psi, a[0], a[1], a[2], a[3]),
        (phi, True, v.status.value, omega),
        [
            (phi, True, "inconclusive", None),
            (other, False, "equivalent", omega),
            (phi, True, "equivalent", flipped),
            (phi, True, "equivalent", 1j * omega),
        ],
    )

    r = ak.max_overlap(s_psi, s_other, dec)
    bounds = (r.bound_trace, r.bound_charfunc_global, r.bound_charfunc_per_mu)
    yield (
        "overlap",
        lambda a: checks.check_overlap(mats, psi, other, a[0], a[1], a[2], a[3]),
        (False, r.optimal, bounds, r.witness),
        [
            (False, r.optimal + 1e-6, bounds, r.witness),
            (False, r.optimal, (r.optimal + 1e-3,) + bounds[1:], r.witness),
            (False, r.optimal, bounds, r.witness + 1e-6),
            (True, r.optimal, bounds, r.witness),
        ],
    )

    # construct-validate
    group = ak.make_dihedral(6)
    f = workloads.regular_chi(np.asarray(group.mul), workloads.unit_vector(group.order, rng))
    res = ak.gns_construct(ak.CharFunction(group, f))
    vec = res.state.vec
    gns_mats = np.asarray(res.rep.mats)
    yield "GNS state", lambda x: checks.check_gns(f, gns_mats, x), vec, [vec[::-1].copy()]

    dec_regular = ak.decompose(ak.regular_rep(group), seed=3)
    bad = f.copy()
    bad[1] = 1.5 * np.exp(0.3j)
    bad[group.inv[1]] = np.conj(bad[1])
    s4 = ak.make_symmetric(4)
    perm = ak.UnitaryRep(s4, workloads.perm_mats(s4))
    perm_mats = np.asarray(perm.mats)
    raw = ak.QuantumChannel(workloads.random_kraus(4, 2, rng))
    twirled = ak.twirl_channel(raw, perm)
    sub = ak.uniform_twirl_over_subgroup(perm, workloads.even_perms(s4))
    verdicts = (
        ak.is_positive_definite(ak.CharFunction(group, f), dec_regular).positive_definite,
        ak.is_positive_definite(ak.CharFunction(group, bad), dec_regular).positive_definite,
        ak.is_g_covariant(twirled, perm, perm).covariant,
        ak.is_g_covariant(raw, perm, perm).covariant,
        ak.is_g_covariant(sub, perm, perm).covariant,
    )
    planted = (True, False, True, False, True)

    def check_verdicts(got):
        for g, want in zip(got, planted):
            checks.check_flag("planted", g, want)

    flips = [verdicts[:k] + (not verdicts[k],) + verdicts[k + 1 :] for k in range(len(verdicts))]
    yield "planted verdicts", check_verdicts, verdicts, flips

    kraus = np.asarray(twirled.kraus)
    yield "trace preserving", checks.check_trace_preserving, kraus, [1.001 * kraus]

    perm_dec = ak.decompose(perm, seed=3)
    kraus = np.array([workloads.invariant_unitary(perm_dec, rng) / np.sqrt(2) for _ in range(2)])
    embedded = np.asarray(ak.embed_channel(ak.QuantumChannel(kraus), perm, perm).kraus)
    # Trace preserving and covariant, but the embedding of another channel.
    other_kraus = np.array(
        [workloads.invariant_unitary(perm_dec, rng) / np.sqrt(2) for _ in range(2)]
    )
    swapped = np.asarray(ak.embed_channel(ak.QuantumChannel(other_kraus), perm, perm).kraus)
    yield (
        "embedding",
        lambda k: checks.check_embedding(k, kraus, perm_mats, perm_mats),
        embedded,
        [swapped, embedded * 1.001],
    )

    # cli-roundtrip
    argv = ["decompose", "--make", "dihedral:3", "--seed", "3"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ak.cli.main(argv)
    out = buf.getvalue()
    yield (
        "cli",
        lambda a: checks.check_cli("decompose", a[0], a[1], "", out),
        (code, out),
        [(2, out), (0, out.replace("0", "1", 1)), (0, out.replace("decompose", "reduce"))],
    )


def self_check(ak) -> int:
    """Print one line per check; return 0 if every check behaves, else 1."""
    ok = True
    for name, check, good, corrupted in _cases(ak):
        try:
            check(good)
            passes = True
        except checks.CheckError as exc:
            passes = False
            print(f"FAIL  {name}: rejected a real answer: {exc}")
        reasons = []
        for bad in corrupted:
            try:
                check(bad)
            except checks.CheckError as exc:
                reasons.append(str(exc))
        line_ok = passes and len(reasons) == len(corrupted)
        ok &= line_ok
        print(
            f"{'ok  ' if line_ok else 'FAIL'}  {name}: real answer passes, "
            f"{len(reasons)}/{len(corrupted)} corruptions rejected"
        )
        for reason in reasons:
            print(f"        rejected: {reason}")
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1
