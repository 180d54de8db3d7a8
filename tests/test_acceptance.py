"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here, not configurable.
"""

import numpy as np
import pytest

import asymkit as ak
from asymkit.linalg import frob, trace_norm
from helpers import trace_distance_fidelity_check

ACCEPTANCE_GROUPS = ("z2", "z3", "z6", "klein", "s3", "s4", "d4")


def plus_state(dim, a, b):
    v = np.zeros(dim, dtype=complex)
    v[a] = v[b] = 1 / np.sqrt(2)
    return ak.QuantumState.pure(v)


def phase_free_error(mapped: np.ndarray, target: np.ndarray) -> float:
    overlap = np.vdot(target, mapped)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-12 else 1.0
    return float(np.linalg.norm(mapped - phase * target))


@pytest.fixture(scope="module")
def overlap_pairs(decompositions):
    """The shared 100 random pairs over the S3 and D4 regular actions."""
    rng = np.random.default_rng(55)
    pairs = []
    for name in ("s3", "d4"):
        dec = decompositions[name]
        for _ in range(50):
            pairs.append(
                (
                    dec,
                    ak.random_pure_state(dec.rep.dim, rng),
                    ak.random_pure_state(dec.rep.dim, rng),
                )
            )
    return pairs


def test_criterion_01_decomposition_correctness(groups, decompositions):
    for name in ACCEPTANCE_GROUPS:
        g = groups[name]
        dec = decompositions[name]
        assert dec.reconstruction_residual() <= 1e-8
        assert sum(b.dim**2 for b in dec.blocks) == g.order
        assert len(dec.blocks) == len(g.conjugacy_classes())
    print("[criterion 1] PASS - decomposition of all 7 regular actions verified")


def test_criterion_02_fourier_round_trip(groups, regular_reps, decompositions):
    rng = np.random.default_rng(2)
    worst_chi = worst_red = 0.0
    for name in ACCEPTANCE_GROUPS:
        r = regular_reps[name]
        dec = decompositions[name]
        for i in range(100):
            if i % 2 == 0:
                s = ak.random_pure_state(r.dim, rng)
            else:
                s = ak.random_mixed_state(r.dim, rng)
            chi = ak.charfunc(s, r)
            red = ak.reduction_onto_irreps(s, dec)
            chi_back = ak.charfunc_from_reduction(red, dec)
            worst_chi = max(worst_chi, float(np.max(np.abs(chi.values - chi_back.values))))
            red_back = ak.fourier_inverse(chi, dec)
            worst_red = max(
                worst_red,
                max(frob(a - b) for a, b in zip(red.blocks, red_back.blocks)),
            )
    assert worst_chi <= 1e-10
    assert worst_red <= 1e-10
    print(
        f"[criterion 2] PASS - 700 round trips, worst residuals "
        f"{worst_chi:.2e} / {worst_red:.2e}"
    )


def test_criterion_03_equivalence_positive_cases(decompositions):
    rng = np.random.default_rng(3)
    worst = 0.0
    for i in range(100):
        dec = decompositions["s3"] if i % 2 == 0 else decompositions["d4"]
        psi = ak.random_pure_state(dec.rep.dim, rng)
        v = ak.random_invariant_unitary(dec, rng)
        phi = ak.QuantumState.pure(v @ psi.vec)
        verdict = ak.decide_unitary_g_equivalence(psi, phi, dec)
        assert verdict.status is ak.EquivalenceStatus.EQUIVALENT
        worst = max(worst, phase_free_error(verdict.witness @ psi.vec, phi.vec))
    assert worst <= 1e-8
    print(f"[criterion 3] PASS - 100 positive pairs, worst witness error {worst:.2e}")


def test_criterion_04_equivalence_negative_cases(decompositions):
    rng = np.random.default_rng(4)
    dec = decompositions["s3"]
    d = dec.rep.dim
    checked = 0
    while checked < 100:
        psi = ak.random_pure_state(d, rng)
        bump = 0.05 * (rng.normal(size=d) + 1j * rng.normal(size=d))
        bumped = psi.vec + bump
        phi = ak.QuantumState.pure(bumped / np.linalg.norm(bumped))
        gap = max(
            trace_norm(a @ a.conj().T - b @ b.conj().T)
            for a, b in zip(dec.vector_sectors(psi.vec), dec.vector_sectors(phi.vec))
        )
        if gap < 1e-3:
            continue
        checked += 1
        verdict = ak.decide_unitary_g_equivalence(psi, phi, dec)
        assert verdict.status is ak.EquivalenceStatus.NOT_EQUIVALENT
        best = ak.max_overlap(psi, phi, dec).optimal
        for _ in range(200):
            v = ak.random_invariant_unitary(dec, rng)
            assert abs(np.vdot(phi.vec, v @ psi.vec)) <= best + 1e-8
    print("[criterion 4] PASS - 100 perturbed pairs rejected, optimum never beaten")


def test_criterion_05_overlap_achievability(groups, overlap_pairs):
    worst = 0.0
    for dec, psi, phi in overlap_pairs:
        report = ak.max_overlap(psi, phi, dec)
        achieved = abs(np.vdot(phi.vec, report.witness @ psi.vec))
        worst = max(worst, abs(achieved - report.optimal))
    assert worst <= 1e-10

    # three-level example over the order-2 group, against a grid oracle
    r = ak.number_rep(groups["z2"], [0, 0, 1])
    dec = ak.decompose(r, seed=0)
    psi = ak.QuantumState.pure([1.0, 0.0, 0.0])
    phi = ak.QuantumState.pure([0.0, np.sqrt(0.5), np.sqrt(0.5)])
    optimal = ak.max_overlap(psi, phi, dec).optimal
    assert abs(optimal - np.sqrt(0.5)) <= 1e-9
    oracle = 0.0
    for t in np.linspace(0.0, np.pi / 2, 1001):
        for a in np.linspace(0.0, 2 * np.pi, 64, endpoint=False):
            mapped = np.array([np.cos(t), np.exp(1j * a) * np.sin(t), 0.0])
            oracle = max(oracle, abs(np.vdot(phi.vec, mapped)))
    assert abs(optimal - oracle) <= 1e-6
    print(
        f"[criterion 5] PASS - achievability gap {worst:.2e}; "
        f"three-level optimum {optimal:.9f} matches oracle"
    )


def test_criterion_06_lower_bounds(overlap_pairs):
    for dec, psi, phi in overlap_pairs:
        report = ak.max_overlap(psi, phi, dec)
        assert report.bound_trace <= report.optimal + 1e-8
        assert report.bound_charfunc_global <= report.optimal + 1e-8
        assert report.bound_charfunc_per_mu <= report.optimal + 1e-8
    rng = np.random.default_rng(6)
    for _ in range(1000):
        dim = int(rng.integers(1, 7))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        assert trace_distance_fidelity_check(a @ a.conj().T, b @ b.conj().T)
    print("[criterion 6] PASS - 100 pairs bounded, 1000 trace-fidelity inequalities hold")


def test_criterion_07_phase_symmetry_narrative(groups, decompositions, z16_number_rep, z16_number_dec):
    psi = plus_state(16, 0, 1)
    phi = plus_state(16, 2, 3)
    unitary_verdict = ak.decide_unitary_g_equivalence(psi, phi, z16_number_dec)
    assert unitary_verdict.status is ak.EquivalenceStatus.NOT_EQUIVALENT
    full_verdict = ak.decide_g_equivalence(psi, phi, z16_number_rep, decompositions["z16"])
    assert full_verdict.status is ak.EquivalenceStatus.EQUIVALENT
    expected_omega = np.exp(4j * np.pi * np.arange(16) / 16)
    assert np.max(np.abs(full_verdict.one_dim_rep - expected_omega)) <= 1e-8
    assert ak.u1_shift_equivalence(
        ak.WeightState({0: 0.5, 1: 0.5}), ak.WeightState({2: 0.5, 3: 0.5})
    ) == 2
    channel = ak.shift_channel(16, 2)
    check = ak.is_g_covariant(channel, z16_number_rep, z16_number_rep)
    assert check.covariant and check.residual <= 1e-10
    out = ak.apply(channel, psi)
    assert frob(out.rho - phi.density()) <= 1e-10
    print("[criterion 7] PASS - shift-by-two narrative reproduced on the 16-cycle")


def test_criterion_08_mixed_state_counterexample(z16_number_rep):
    psi = plus_state(16, 0, 1)
    rho = np.zeros((16, 16), dtype=complex)
    rho[0, 0] = rho[1, 1] = 0.5
    mixed = ak.QuantumState.mixed(rho)
    chi_pure = ak.charfunc(psi, z16_number_rep).values
    chi_mixed = ak.charfunc(mixed, z16_number_rep).values
    assert np.max(np.abs(chi_pure - chi_mixed)) <= 1e-12
    with pytest.raises(ak.PureStateRequiredError):
        ak.decide_g_equivalence(psi, mixed, z16_number_rep)
    with pytest.raises(ak.PureStateRequiredError):
        ak.decide_unitary_g_equivalence(mixed, psi, ak.decompose(z16_number_rep, seed=0))
    print("[criterion 8] PASS - identical chi, mixed inputs rejected by both deciders")


def test_criterion_09_bochner_gns(groups, regular_reps, decompositions):
    rng = np.random.default_rng(9)
    # 100 valid functions validate and reconstruct
    worst = 0.0
    for i in range(100):
        name = ("z16", "s3", "d4", "z6")[i % 4]
        r = regular_reps[name]
        s = ak.random_pure_state(r.dim, rng)
        f = ak.charfunc(s, r)
        assert ak.is_positive_definite(f, decompositions[name]).positive_definite
        res = ak.gns_construct(f)
        err = np.max(np.abs(ak.charfunc(res.state, res.rep).values - f.values))
        worst = max(worst, float(err))
    assert worst <= 1e-9

    # single-point dents on the cyclic phase-symmetry proxies
    z24 = ak.make_cyclic(24)
    proxies = {
        "z16": (groups["z16"], regular_reps["z16"], decompositions["z16"]),
        "z24": (z24, ak.regular_rep(z24), None),
    }
    proxies["z24"] = (z24, proxies["z24"][1], ak.decompose(proxies["z24"][1], seed=0))
    rejected = 0
    for trial in range(100):
        g, r, dec = proxies["z16" if trial % 2 == 0 else "z24"]
        s = ak.random_pure_state(g.order, rng)
        vals = ak.charfunc(s, r).values.copy()
        vals[int(rng.integers(1, g.order))] -= 0.1
        f = ak.CharFunction(g, vals)
        verdict = ak.is_positive_definite(f, dec).positive_definite
        x = vals[g.mul[g.inv]]
        genuinely_valid = (
            np.linalg.norm(x - x.conj().T) <= 1e-9
            and np.linalg.eigvalsh(0.5 * (x + x.conj().T))[0] >= -1e-9
        )
        assert verdict == genuinely_valid  # in particular, no false rejection
        if not verdict:
            rejected += 1
    assert rejected >= 95
    print(
        f"[criterion 9] PASS - 100 reconstructions (worst {worst:.2e}), "
        f"{rejected}/100 dents rejected, zero misclassifications"
    )


def test_criterion_10_charfunc_property_suite(groups, regular_reps, decompositions):
    rng = np.random.default_rng(10)
    for name in ACCEPTANCE_GROUPS:
        g = groups[name]
        r = regular_reps[name]
        dec = decompositions[name]
        d = r.dim
        for i in range(50):
            pure = ak.random_pure_state(d, rng)
            other = ak.random_pure_state(d, rng)
            mixed = ak.random_mixed_state(d, rng)
            chi = ak.charfunc(pure, r).values
            chi_other = ak.charfunc(other, r).values
            chi_mixed = ak.charfunc(mixed, r).values

            # multiplicativity under composition of systems, sector by element
            big = np.kron(pure.vec, other.vec)
            lhs = np.array(
                [np.vdot(big, np.kron(r.mats[x], r.mats[x]) @ big) for x in range(g.order)]
            )
            assert np.max(np.abs(lhs - chi * chi_other)) <= 1e-12

            # conjugate action of the group on the function
            h = int(rng.integers(g.order))
            moved = ak.QuantumState.mixed(r.mats[h] @ mixed.rho @ r.mats[h].conj().T)
            chi_moved = ak.charfunc(moved, r).values
            hinv = int(g.inv[h])
            relabeled = chi_mixed[[g.mul[g.mul[hinv, x], h] for x in range(g.order)]]
            assert np.max(np.abs(chi_moved - relabeled)) <= 1e-12

            # normalization and contraction
            for values in (chi, chi_mixed):
                assert abs(values[0] - 1.0) <= 1e-12
                assert np.max(np.abs(values)) <= 1.0 + 1e-12

            # modulus one exactly at the state's symmetries (pure case)
            sym = set(ak.symmetry_subgroup(pure, r, tol=1e-8).elements)
            from_chi = {x for x in range(g.order) if abs(abs(chi[x]) - 1.0) <= 1e-8}
            assert from_chi == sym

            # additivity of the per-sector components
            red = ak.reduction_onto_irreps(mixed, dec)
            total = np.zeros(g.order, dtype=complex)
            for blk, fmat in zip(dec.blocks, red.blocks):
                total += np.einsum("ij,gji->g", fmat, blk.mats)
            assert np.max(np.abs(total - chi_mixed)) <= 1e-10
    print("[criterion 10] PASS - property suite held on 50 instances x 7 groups")


def test_criterion_11_symmetry_monotonicity(regular_reps):
    rng = np.random.default_rng(11)
    r = regular_reps["s3"]
    violations = 0
    for _ in range(20):
        channel = ak.twirl_channel(ak.random_channel(6, 2, rng), r)
        for _ in range(50):
            s = (
                ak.random_pure_state(6, rng)
                if rng.random() < 0.5
                else ak.random_mixed_state(6, rng)
            )
            before = set(ak.symmetry_subgroup(s, r, tol=1e-8).elements)
            after = set(ak.symmetry_subgroup(ak.apply(channel, s), r, tol=1e-8).elements)
            if not before <= after:
                violations += 1
    assert violations == 0
    print("[criterion 11] PASS - 20 channels x 50 states, zero symmetry losses")
