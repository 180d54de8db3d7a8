"""Command-line interface: reports, determinism, exit codes."""

import json

import numpy as np
import pytest
from helpers import (
    MALFORMED,
    PAIR_KINDS,
    dense_covariance_residual,
    edited_payload,
    listed,
    malformed_payload,
    pair_payloads,
    perm_rep,
    reference_canonical_dumps,
    rejected_inputs,
    table_text,
)

import asymkit as ak
from asymkit import jsonio
from asymkit.cli import main


@pytest.fixture()
def workdir(tmp_path):
    """Temp directory preloaded with the standard input files."""
    z16 = ak.make_cyclic(16)
    rep16 = ak.number_rep(z16, range(16))
    (tmp_path / "rep16.json").write_text(json.dumps(jsonio.rep_to_json(rep16)))
    psi = np.zeros(16)
    psi[[0, 1]] = 1 / np.sqrt(2)
    phi = np.zeros(16)
    phi[[2, 3]] = 1 / np.sqrt(2)
    (tmp_path / "psi.json").write_text(
        json.dumps(jsonio.state_to_json(ak.QuantumState.pure(psi)))
    )
    (tmp_path / "phi.json").write_text(
        json.dumps(jsonio.state_to_json(ak.QuantumState.pure(phi)))
    )
    (tmp_path / "badfunc.json").write_text(json.dumps({"values": [[1, 0], [-3, 0]]}))
    (tmp_path / "w1.json").write_text(json.dumps({"weights": {"0": 0.5, "1": 0.5}}))
    (tmp_path / "w2.json").write_text(json.dumps({"weights": {"2": 0.5, "3": 0.5}}))
    (tmp_path / "chan.json").write_text(
        json.dumps(jsonio.channel_to_json(ak.shift_channel(16, 2)))
    )
    (tmp_path / "broken.json").write_text("{not json")
    return tmp_path


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCommands:
    def test_group_build(self, capsys):
        code, out = run_cli(capsys, "group", "--make", "dihedral:4")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["group"]["order"] == 8
        assert len(payload["result"]["conjugacy_classes"]) == 5

    def test_decompose_regular_s3(self, capsys):
        code, out = run_cli(capsys, "decompose", "--make", "symmetric:3")
        assert code == 0
        summary = json.loads(out)["result"]["summary"]
        assert sorted((b["dim"], b["mult"]) for b in summary) == [(1, 1), (1, 1), (2, 2)]

    def test_charfunc(self, workdir, capsys):
        code, out = run_cli(
            capsys,
            "charfunc",
            "--rep", str(workdir / "rep16.json"),
            "--state", str(workdir / "psi.json"),
        )
        assert code == 0
        values = json.loads(out)["result"]["charfunc"]["values"]
        assert abs(values[0][0] - 1.0) < 1e-9
        expected = 0.5 * (1 + np.exp(2j * np.pi / 16))
        assert abs(values[1][0] - expected.real) < 1e-9

    def test_equiv_narrative(self, workdir, capsys):
        code, out = run_cli(
            capsys,
            "equiv",
            "--rep", str(workdir / "rep16.json"),
            "--state", str(workdir / "psi.json"),
            "--state", str(workdir / "phi.json"),
        )
        assert code == 0
        verdict = json.loads(out)["result"]["verdict"]
        assert verdict["status"] == "equivalent"
        omega = np.array([complex(a, b) for a, b in verdict["one_dim_rep"]])
        assert np.max(np.abs(omega - np.exp(4j * np.pi * np.arange(16) / 16))) < 1e-8

    def test_uequiv_rejects_pair(self, workdir, capsys):
        code, out = run_cli(
            capsys,
            "uequiv",
            "--rep", str(workdir / "rep16.json"),
            "--state", str(workdir / "psi.json"),
            "--state", str(workdir / "phi.json"),
        )
        assert code == 0
        assert json.loads(out)["result"]["verdict"]["status"] == "not_equivalent"

    def test_u1shift(self, workdir, capsys):
        code, out = run_cli(
            capsys,
            "u1shift",
            "--state", str(workdir / "w1.json"),
            "--state", str(workdir / "w2.json"),
        )
        assert code == 0
        assert json.loads(out)["result"]["shift"] == 2

    def test_bochner_negative(self, workdir, capsys):
        code, out = run_cli(
            capsys,
            "bochner",
            "--make", "cyclic:2",
            "--func", str(workdir / "badfunc.json"),
        )
        assert code == 0
        result = json.loads(out)["result"]["bochner"]
        assert result["positive_definite"] is False
        assert abs(result["min_eigenvalue"] - (-2.0)) < 1e-9  # Gram units: 2 * (-1)

    def test_gns_round_trip(self, workdir, capsys):
        vals = 0.5 * (1 + np.exp(2j * np.pi * np.arange(16) / 16))
        (workdir / "goodfunc.json").write_text(
            json.dumps({"values": [[z.real, z.imag] for z in vals]})
        )
        code, out = run_cli(
            capsys, "gns", "--make", "cyclic:16", "--func", str(workdir / "goodfunc.json")
        )
        assert code == 0
        assert json.loads(out)["result"]["gns"]["dim"] == 2

    def test_covcheck(self, workdir, capsys):
        code, out = run_cli(
            capsys,
            "covcheck",
            "--channel", str(workdir / "chan.json"),
            "--rep", str(workdir / "rep16.json"),
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["covariant"] is True
        assert result["residual"] <= 1e-10

    def test_twirl_subgroup(self, capsys):
        code, out = run_cli(capsys, "twirl", "--make", "cyclic:4", "--subgroup", "0,2")
        assert code == 0
        assert json.loads(out)["result"]["channel"]["d_in"] == 4

    def test_overlap(self, workdir, capsys):
        code, out = run_cli(
            capsys,
            "overlap",
            "--rep", str(workdir / "rep16.json"),
            "--state", str(workdir / "psi.json"),
            "--state", str(workdir / "phi.json"),
        )
        assert code == 0
        result = json.loads(out)["result"]["overlap"]
        assert abs(result["optimal"]) < 1e-9  # disjoint weight sectors

    def test_table_format(self, capsys):
        code, out = run_cli(capsys, "group", "--make", "cyclic:3", "--format", "table")
        assert code == 0
        assert "order" in out and "{" not in out.splitlines()[0]

    def test_twirl_channel_over_the_whole_group(self, tmp_path, capsys):
        """``twirl --channel --rep`` without ``--subgroup`` twirls over every element: the
        channel it prints is covariant by the dense oracle, and a rerun prints the same bytes."""
        rep = perm_rep(ak.make_symmetric(3))
        raw = ak.random_channel(3, 2, np.random.default_rng(5))
        assert dense_covariance_residual(raw, rep, rep) > 0.1
        (tmp_path / "rep.json").write_text(json.dumps(jsonio.rep_to_json(rep)))
        (tmp_path / "raw.json").write_text(json.dumps(jsonio.channel_to_json(raw)))
        argv = ["twirl", "--channel", str(tmp_path / "raw.json"),
                "--rep", str(tmp_path / "rep.json")]
        code, first = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv) == (0, first)
        twirled = jsonio.channel_from_json(json.loads(first)["result"]["channel"])
        assert dense_covariance_residual(twirled, rep, rep) <= 1e-10

    def test_make_klein(self, capsys):
        code, out = run_cli(capsys, "group", "--make", "klein")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["group"]["order"] == 4 and result["abelian"] is True
        assert result["inverses"] == [0, 1, 2, 3]

    def test_table_format_prints_complex_pairs_and_floats(self, workdir, capsys):
        """A charfunc report's values are complex pairs, one line of a+bj; a covcheck
        report's residual is a float, printed to 12 significant digits."""
        code, out = run_cli(
            capsys, "charfunc", "--rep", str(workdir / "rep16.json"),
            "--state", str(workdir / "psi.json"), "--format", "table",
        )
        assert code == 0
        (line,) = [x for x in out.splitlines() if "j" in x and ":" not in x]
        values = np.array([complex(x) for x in line.split()])
        expected = 0.5 * (1 + np.exp(2j * np.pi * np.arange(16) / 16))
        assert np.abs(values - expected).max() <= 1e-11
        argv = ["covcheck", "--channel", str(workdir / "chan.json"),
                "--rep", str(workdir / "rep16.json")]
        _, report = run_cli(capsys, *argv)
        code, out = run_cli(capsys, *argv, "--format", "table")
        assert code == 0
        lines = out.splitlines()
        assert "  covariant  True" in lines
        assert f"  residual   {json.loads(report)['result']['residual']:.12g}" in lines


class TestDeterminism:
    def test_byte_identical_reports(self, workdir, capsys):
        args = (
            "decompose",
            "--make", "symmetric:3",
            "--seed", "7",
        )
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_seed_echoed(self, capsys):
        _, out = run_cli(capsys, "group", "--make", "cyclic:2")
        assert json.loads(out)["seed"] == 0


class TestErrorPaths:
    def test_malformed_json_exit_2(self, workdir, capsys):
        code, _ = run_cli(capsys, "group", "--group", str(workdir / "broken.json"))
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, _ = run_cli(capsys, "group", "--group", "/nonexistent.json")
        assert code == 2

    def test_missing_state_exit_2(self, workdir, capsys):
        code, _ = run_cli(capsys, "equiv", "--rep", str(workdir / "rep16.json"))
        assert code == 2

    def test_invariant_violation_named(self, workdir, capsys, tmp_path):
        bad = {"kind": "pure", "data": [[1.0, 0.0], [1.0, 0.0]]}
        p = tmp_path / "bad_state.json"
        p.write_text(json.dumps(bad))
        code = main(
            ["charfunc", "--rep", str(workdir / "rep16.json"), "--state", str(p)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "invariant" in captured.err

    def test_nan_state_exit_2(self, capsys, tmp_path):
        p = tmp_path / "nan_state.json"
        p.write_text('{"kind": "pure", "data": [[NaN, 0], [0, 0], [0, 0], [0, 0]]}')
        code = main(["charfunc", "--make", "cyclic:4", "--state", str(p)])
        captured = capsys.readouterr()
        assert code == 2
        assert "validation error:" in captured.err
        assert "NaN" not in captured.out

    @pytest.mark.parametrize(
        "spec, says", [("foo:3", "unknown group spec"), ("cyclic:x", "integer")]
    )
    def test_malformed_group_spec_exit_2(self, capsys, spec, says):
        code = main(["group", "--make", spec])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert says in captured.err

    def test_unknown_command_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


def nan_rep_json(kind):
    """The rep payload ``kind`` of pair_payloads with its second pair NaN (json writes NaN)."""

    def nan(pairs):
        pairs = np.array(pairs, dtype=object)
        pairs.reshape(-1, 2)[1] = [float("nan"), 0.0]
        return pairs.tolist()

    return edited_payload(kind, nan)


class TestMalformedInputFiles:
    """A file that is valid JSON but not a valid object exits 2 with a message."""

    @pytest.mark.parametrize(
        "make_argv",
        [
            # a pure state without its data
            lambda d: ["charfunc", "--rep", d("rep16.json"), "--state", d({"kind": "pure"})],
            # a representation without its matrices
            lambda d: [
                "charfunc",
                "--rep", d({"group": ak.group_to_json(ak.make_cyclic(16)), "dim": 16}),
                "--state", d("psi.json"),
            ],
            # a weight state whose key is not an integer
            lambda d: ["u1shift", "--state", d({"weights": {"x": 1.0}}), "--state", d("w2.json")],
            # a state that is a list, not an object
            lambda d: ["charfunc", "--rep", d("rep16.json"), "--state", d([[1.0, 0.0]])],
            # subgroup indices that are not integers
            lambda d: ["twirl", "--make", "cyclic:4", "--subgroup", "a,b"],
            # a representation with a NaN matrix entry, phase or block entry
            lambda d: ["decompose", "--rep", d(nan_rep_json("rep"))],
            lambda d: ["decompose", "--rep", d(nan_rep_json("rep-phase"))],
            lambda d: ["decompose", "--rep", d(nan_rep_json("rep-block"))],
        ],
        ids=[
            "state-without-data",
            "rep-without-mats",
            "weight-key-x",
            "state-list",
            "subgroup-ab",
            "rep-nan",
            "rep-phase-nan",
            "rep-block-nan",
        ],
    )
    def test_exit_2(self, workdir, capsys, make_argv):
        def d(content):
            if isinstance(content, str):
                return str(workdir / content)
            path = workdir / "malformed.json"
            path.write_text(json.dumps(content))
            return str(path)

        code = main(make_argv(d))
        captured = capsys.readouterr()
        assert code == 2
        assert "validation error:" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("command", ["uequiv", "covcheck"])
def test_tol_zero_reaches_library(workdir, capsys, monkeypatch, command):
    import asymkit.cli as cli_mod

    seen = []

    def spy(real):
        def call(*args, tol):
            seen.append(tol)
            return real(*args, tol=tol)

        return call

    name = {"uequiv": "decide_unitary_g_equivalence", "covcheck": "is_g_covariant"}[command]
    monkeypatch.setattr(cli_mod, name, spy(getattr(cli_mod, name)))
    files = {
        "uequiv": ["--state", str(workdir / "psi.json"), "--state", str(workdir / "psi.json")],
        "covcheck": ["--channel", str(workdir / "chan.json")],
    }[command]
    code = main([command, "--rep", str(workdir / "rep16.json"), *files, "--tol", "0"])
    assert code == 0
    assert seen == [0.0]


@pytest.mark.parametrize(
    "argv",
    [
        ["uequiv", "--rep", "rep16.json", "--state", "psi.json", "--state", "psi.json"],
        ["covcheck", "--rep", "rep16.json", "--channel", "chan.json"],
        ["bochner", "--make", "cyclic:2", "--func", "badfunc.json"],
    ],
    ids=["uequiv", "covcheck", "bochner"],
)
def test_negative_tol_exit_2(workdir, capsys, argv):
    argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
    code = main([*argv, "--tol", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "validation error:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--rep", "rep16.json"],
        ["reduce", "--rep", "rep16.json", "--state", "psi.json"],
        ["fourier", "--rep", "rep16.json", "--func", "chi16.json"],
        ["uequiv", "--rep", "rep16.json", "--state", "psi.json", "--state", "phi.json"],
        ["overlap", "--rep", "rep16.json", "--state", "psi.json", "--state", "phi.json"],
        ["bochner", "--make", "cyclic:16", "--func", "chi16.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_exit_2(workdir, capsys, argv):
    rep = jsonio.rep_from_json(json.loads((workdir / "rep16.json").read_text()))
    psi = jsonio.state_from_json(json.loads((workdir / "psi.json").read_text()))
    chi = jsonio.func_to_json(ak.charfunc(psi, rep))
    (workdir / "chi16.json").write_text(json.dumps(chi))
    argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
    assert main([*argv, "--seed", "0"]) == 0
    capsys.readouterr()
    code = main([*argv, "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "validation error:" in captured.err and "seed" in captured.err
    assert captured.out == ""


class TestDegeneracyExitCode:
    def test_exit_3_on_numerical_degeneracy(self, capsys, monkeypatch):
        import asymkit.cli as cli_mod

        def boom(rep, seed=0, **kw):
            raise ak.NumericalDegeneracyError("forced")

        monkeypatch.setattr(cli_mod, "decompose", boom)
        code = cli_mod.main(["decompose", "--make", "cyclic:3"])
        assert code == 3
        assert "degeneracy" in capsys.readouterr().err


class TestMalformedPairArrays:
    """A pair array with a null, a ragged row, a triple or the wrong depth exits 2."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("kind", PAIR_KINDS)
    def test_exit_2(self, tmp_path, capsys, kind, case):
        files = {name: tmp_path / f"{name}.json" for name in PAIR_KINDS}
        for name, (payload, _, _) in pair_payloads().items():
            files[name].write_text(json.dumps(payload))
        files[kind].write_text(json.dumps(malformed_payload(kind, case)))
        f = {name: str(path) for name, path in files.items()}
        argv = {
            "rep": ["decompose", "--rep", f["rep"]],
            "rep-phase": ["decompose", "--rep", f["rep-phase"]],
            "rep-block": ["decompose", "--rep", f["rep-block"]],
            "state": ["charfunc", "--rep", f["rep"], "--state", f["state"]],
            "func": ["bochner", "--make", "cyclic:4", "--func", f["func"]],
            "channel": ["covcheck", "--channel", f["channel"], "--rep", f["rep"]],
        }[kind]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert "validation error:" in captured.err and f[kind] in captured.err
        assert captured.out == ""


def test_bochner_non_finite_func_exit_2(tmp_path, capsys):
    p = tmp_path / "nan_func.json"
    p.write_text('{"values": [[1, 0], [NaN, 0], [0, 0], [0, 0]]}')
    code = main(["bochner", "--make", "cyclic:4", "--func", str(p)])
    captured = capsys.readouterr()
    assert code == 2
    assert "validation error:" in captured.err
    assert captured.out == ""


def test_gns_opposite_infinities_exit_2(tmp_path, capsys, recwarn):
    p = tmp_path / "inf_func.json"
    p.write_text('{"values": [[1, 0], [Infinity, 0], [0, 0], [-Infinity, 0]]}')
    code = main(["gns", "--make", "cyclic:4", "--func", str(p)])
    captured = capsys.readouterr()
    assert code == 2
    assert "validation error:" in captured.err and "NaN or infinite" in captured.err
    assert captured.out == "" and len(recwarn) == 0


def test_equiv_never_decomposes(workdir, capsys, monkeypatch):
    def no_decomposition(*args):
        raise AssertionError("equiv decomposed a representation")

    # every decomposition, whatever path builds it, is an IrrepDecomposition
    monkeypatch.setattr(ak.IrrepDecomposition, "__init__", no_decomposition)
    states = ["--state", str(workdir / "psi.json"), "--state", str(workdir / "phi.json")]
    code, out = run_cli(capsys, "equiv", "--rep", str(workdir / "rep16.json"), *states)
    assert code == 0 and json.loads(out)["result"]["verdict"]["status"] == "equivalent"


def test_parser_built_once_per_process(workdir, capsys):
    from asymkit.cli import build_parser

    build_parser.cache_clear()
    states = ["--state", str(workdir / "w1.json"), "--state", str(workdir / "w2.json")]
    for seed in (1, 2):
        # a second parse must not see the first one's --state list
        assert main(["u1shift", *states, "--seed", str(seed)]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == seed
    assert build_parser.cache_info().misses == 1


@pytest.fixture()
def small_files(workdir):
    """A Z4 number rep with its shift channel, and a valid function over Z16."""
    rep4 = ak.number_rep(ak.make_cyclic(4), range(4))
    (workdir / "rep4.json").write_text(json.dumps(jsonio.rep_to_json(rep4)))
    (workdir / "chan4.json").write_text(
        json.dumps(jsonio.channel_to_json(ak.shift_channel(4, 1)))
    )
    vals = 0.5 * (1 + np.exp(2j * np.pi * np.arange(16) / 16))
    (workdir / "goodfunc.json").write_text(
        json.dumps({"values": [[z.real, z.imag] for z in vals]})
    )
    return workdir


REPORT_ARGVS = {
    "group": ["--make", "dihedral:4"],
    "decompose": ["--make", "symmetric:3"],
    "charfunc": ["--rep", "rep16.json", "--state", "psi.json"],
    "reduce": ["--rep", "rep16.json", "--state", "psi.json"],
    "fourier": ["--rep", "rep16.json", "--func", "goodfunc.json"],
    "uequiv": ["--rep", "rep16.json", "--state", "psi.json", "--state", "phi.json"],
    "equiv": ["--rep", "rep16.json", "--state", "psi.json", "--state", "phi.json"],
    "u1shift": ["--state", "w1.json", "--state", "w2.json"],
    "overlap": ["--rep", "rep16.json", "--state", "psi.json", "--state", "phi.json"],
    "bochner": ["--make", "cyclic:2", "--func", "badfunc.json"],
    "gns": ["--make", "cyclic:16", "--func", "goodfunc.json"],
    "covcheck": ["--channel", "chan.json", "--rep", "rep16.json"],
    "twirl": ["--make", "cyclic:4", "--subgroup", "0,2"],
    "embed": ["--channel", "chan4.json", "--rep", "rep4.json", "--rep-out", "rep4.json"],
}


@pytest.mark.parametrize("command", sorted(REPORT_ARGVS))
def test_report_text_matches_encoder(small_files, capsys, monkeypatch, command):
    reports = []
    real = jsonio.canonical_dumps

    def spy(obj):
        reports.append(obj)
        return real(obj)

    monkeypatch.setattr(jsonio, "canonical_dumps", spy)
    argv = [str(small_files / a) if a.endswith(".json") else a for a in REPORT_ARGVS[command]]
    code, out = run_cli(capsys, command, *argv)
    assert code == 0
    (report,) = reports
    assert report["command"] == command
    assert out == reference_canonical_dumps(listed(report)) + "\n"


@pytest.mark.parametrize("command", sorted(REPORT_ARGVS))
def test_table_text_is_the_listed_report(small_files, capsys, monkeypatch, command):
    """``--format table`` prints what ``_render_table`` prints of the JSON report's payload with
    its arrays listed."""
    reports = []
    real = jsonio.canonical_dumps
    monkeypatch.setattr(jsonio, "canonical_dumps", lambda obj: reports.append(obj) or real(obj))
    argv = [str(small_files / a) if a.endswith(".json") else a for a in REPORT_ARGVS[command]]
    assert run_cli(capsys, command, *argv)[0] == 0
    code, out = run_cli(capsys, command, *argv, "--format", "table")
    assert code == 0
    (report,) = reports
    assert out == table_text(listed(report))


@pytest.mark.parametrize("name", sorted(rejected_inputs()))
def test_rejected_input_exit_2(tmp_path, capsys, name):
    kind, payload = rejected_inputs()[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    argv = {
        "rep": ["decompose", "--rep", str(path)],
        "group": ["group", "--group", str(path)],
        "channel": ["covcheck", "--channel", str(path), "--make", "cyclic:2"],
    }[kind]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("validation error:") and str(path) in captured.err
    assert captured.out == ""


def test_size_limit_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": 20000, "src": [[0]], "phase": [[[1.0, 0.0]]]}))
    code = main(["decompose", "--make", "cyclic:720", "--rep", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("validation error:") and "SizeLimitError" in captured.err
    assert captured.out == ""


def gns_s3_rep(rng):
    s3 = ak.make_symmetric(3)
    return ak.gns_construct(ak.charfunc(ak.random_pure_state(6, rng), ak.regular_rep(s3))).rep


@pytest.mark.parametrize("command", ["reduce", "overlap", "uequiv", "equiv", "decompose"])
@pytest.mark.parametrize(
    "make_rep",
    [
        lambda rng: ak.number_rep(ak.make_cyclic(8), [w for w in range(8) for _ in range(2)]),
        gns_s3_rep,
    ],
    ids=["number", "gns"],
)
def test_dense_and_compact_files_report_alike(tmp_path, capsys, rng, command, make_rep):
    rep = make_rep(rng)
    compact = jsonio.rep_to_json(rep)
    dense = {"group": compact["group"], "dim": rep.dim, "mats": jsonio.matrix_to_json(rep.mats)}
    assert "mats" not in compact
    psi = ak.random_pure_state(rep.dim, rng)
    phi = ak.random_invariant_unitary(ak.decompose(rep, seed=4), rng) @ psi.vec
    for name, obj in [
        ("dense", dense),
        ("compact", compact),
        ("psi", jsonio.state_to_json(psi)),
        ("phi", jsonio.state_to_json(ak.QuantumState.pure(phi))),
    ]:
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    pair = ["--state", str(tmp_path / "psi.json"), "--state", str(tmp_path / "phi.json")]
    states = {"decompose": [], "reduce": pair[:2]}.get(command, pair)
    outs = [
        run_cli(capsys, command, "--rep", str(tmp_path / f"{form}.json"), *states, "--seed", "3")
        for form in ("dense", "compact")
    ]
    assert outs[0][0] == 0 and outs[0] == outs[1]
