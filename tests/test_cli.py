import inspect
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import breedsim
from breedsim.cli import main


PERFBENCH_CODES = Path(__file__).parent.parent / "perfbench" / "codes"


def run_cli(*args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(args))
    return code, buf.getvalue()


class TestAnalyze:
    def test_six_four_two(self):
        code, out = run_cli("analyze", "--code", "six_four_two")
        assert code == 0
        assert "n=6 k=4 d=2 pure=yes" in out

    def test_five_qubit(self):
        code, out = run_cli("analyze", "--code", "five_qubit")
        assert code == 0
        assert "n=5 k=1 d=3 pure=yes" in out

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("code x p=2 n=2 k=0 d=1 pure=1\n10|00\n00|10\n")
        code, _ = run_cli("analyze", "--code", str(bad))
        assert code == 1

    def test_unknown_name(self):
        code, _ = run_cli("analyze", "--code", "nonesuch")
        assert code == 1

    @pytest.mark.parametrize(
        "ref",
        breedsim.catalog.builtin_names() + sorted(str(path) for path in PERFBENCH_CODES.glob("*.txt")),
    )
    def test_dual_dim_is_the_dual_dimension(self, ref):
        from breedsim.cli import _load_code

        code = _load_code(ref).code
        status, out = run_cli("analyze", "--code", ref)
        assert status == 0
        assert f" dual_dim={code.dual.dim} " in out and code.n + code.k == code.dual.dim

    def test_catalog_file(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("code tiny p=2 n=4 k=2 d=2 pure=1\n1111|0000\n0000|1111\n")
        code, out = run_cli("analyze", "--code", str(path))
        assert code == 0
        assert "name=tiny n=4 k=2 d=2" in out


class TestVerify:
    def test_worked_example(self):
        code, out = run_cli("verify", "--code", "six_four_two", "--puncture", "6")
        assert code == 0
        assert "patterns=16" in out and "result=PASS" in out

    def test_hashing_five_qubit(self):
        code, out = run_cli("verify", "--code", "five_qubit")
        assert code == 0
        assert "result=PASS" in out

    def test_puncture_beyond_distance(self):
        code, _ = run_cli("verify", "--code", "six_four_two", "--puncture", "1,2")
        assert code == 1


class TestSimulate:
    def test_rate_zero(self):
        code, out = run_cli(
            "simulate", "--code", "six_four_two", "--puncture", "6",
            "--rates", "0.0", "--trials", "200",
        )
        assert code == 0
        assert "fidelity=1.000000" in out and "net=3" in out

    def test_rate_grid_row_per_rate(self):
        code, out = run_cli(
            "simulate", "--code", "six_four_two", "--puncture", "6",
            "--rates", "0.01,0.1", "--trials", "500", "--seed", "7",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_invalid_rate(self):
        code, _ = run_cli(
            "simulate", "--code", "six_four_two", "--puncture", "6",
            "--rates", "1.5", "--trials", "10",
        )
        assert code == 1

    def test_erasure_rate_reaches_the_erasure_decoder(self):
        from breedsim import engine
        from breedsim.breeding import convert_pure
        from breedsim.catalog import builtin_entry

        argv = ["simulate", "--code", "five_qubit", "--puncture", "5", "--rates", "0.05,0.1",
                "--trials", "400", "--seed", "2", "--format", "jsonl", "--erasure", "0.2"]
        code, out = run_cli(*argv)
        assert code == 0
        spec = convert_pure(builtin_entry("five_qubit").code, {4})
        for line, rate in zip(out.splitlines(), (0.05, 0.1), strict=True):
            rec = json.loads(line)
            report = engine.simulate(spec, engine.Channel(2, rate, 0.2), 400, seed=2)
            assert (rec["rate"], rec["erasure"]) == (f"{rate:.6f}", "0.200000")
            assert (rec["trials"], rec["discards"]) == (report.trials, report.discards)
            assert rec["fidelity"] == f"{report.fidelity_estimate:.6f}"

    def test_output_without_erasure_flag_is_unchanged(self):
        argv = ["simulate", "--code", "six_four_two", "--puncture", "6", "--rates", "0.05,0.1",
                "--trials", "300", "--seed", "4"]
        # recorded before simulate took --erasure
        assert run_cli(*argv) == (0, (
            "name=six_four_two rate=0.050000 trials=300 discards=0 fidelity=0.760000 "
            "ci95=0.048329 gross=4 net=3 seed=4\n"
            "name=six_four_two rate=0.100000 trials=300 discards=0 fidelity=0.566667 "
            "ci95=0.056075 gross=4 net=3 seed=4\n"
        ))
        # a zero erasure rate samples and decodes the same trials
        code, out = run_cli(*argv, "--erasure", "0")
        assert out == run_cli(*argv)[1].replace(" trials=", " erasure=0.000000 trials=")


class TestSearch:
    def test_not_exists(self):
        code, out = run_cli("search", "--p", "2", "--n", "5", "--k", "3", "--dmin", "2")
        assert code == 0
        assert "NOT EXISTS (exhaustive)" in out

    def test_exists_with_witness(self):
        code, out = run_cli("search", "--p", "2", "--n", "6", "--k", "4", "--dmin", "2")
        assert code == 0
        assert "verdict=EXISTS" in out and "witness=" in out

    def test_infeasible_exit_code(self):
        code, _ = run_cli("search", "--p", "2", "--n", "8", "--k", "3", "--dmin", "3")
        assert code == 3


class TestCompare:
    def test_contains_dominance_row(self):
        code, out = run_cli("compare", "--format", "tsv")
        assert code == 0
        lines = [l.split("\t") for l in out.strip().splitlines()]
        header = lines[0]
        rows = [dict(zip(header, l)) for l in lines[1:]]
        star = [
            r for r in rows
            if r["kind"] == "breeding" and r["name"] == "six_four_two"
        ]
        assert star and star[0]["net"] == "3" and star[0]["dominant"] == "yes"

    def test_impure_entry_gets_its_hashing_row_only(self, tmp_path):
        # breeding conversion needs a pure code; a hashing row needs only d
        path = tmp_path / "impure.txt"
        path.write_text("code impure p=2 n=5 k=2 d=2 pure=0\n11110|00000\n00000|11110\n00000|00001\n")
        code, out = run_cli("compare", "--catalog", str(path))
        assert code == 0
        assert out == "kind=hashing name=impure noisy_pairs=5 preshared=0 gross=2 net=2 d=2 dominant=no\n"


class TestFormats:
    def test_jsonl_round_trip(self):
        _, human = run_cli("analyze", "--code", "six_four_two")
        _, jsonl = run_cli("analyze", "--code", "six_four_two", "--format", "jsonl")
        rec = json.loads(jsonl)
        for token in human.strip().split():
            key, _, value = token.partition("=")
            assert str(rec[key]) == value

    def test_jsonl_simulate_round_trip(self):
        _, human = run_cli(
            "simulate", "--code", "six_four_two", "--puncture", "6",
            "--rates", "0.1", "--trials", "300",
        )
        _, jsonl = run_cli(
            "simulate", "--code", "six_four_two", "--puncture", "6",
            "--rates", "0.1", "--trials", "300", "--format", "jsonl",
        )
        rec = json.loads(jsonl)
        assert f"fidelity={rec['fidelity']}" in human


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--code", "five_qubit"],
            ["verify", "--code", "six_four_two", "--puncture", "6"],
            ["simulate", "--code", "six_four_two", "--puncture", "6",
             "--rates", "0.05,0.1", "--trials", "1000", "--seed", "3"],
            ["search", "--p", "2", "--n", "5", "--k", "3", "--dmin", "2"],
            ["compare"],
        ],
    )
    def test_repeat_runs_identical(self, argv):
        assert run_cli(*argv) == run_cli(*argv)

    def test_worker_count_does_not_change_output(self):
        base = ["simulate", "--code", "six_four_two", "--puncture", "6",
                "--rates", "0.1", "--trials", "25000", "--seed", "11"]
        outputs = [run_cli(*base, "--workers", w) for w in ("1", "2", "3")]
        assert outputs[0] == outputs[1] == outputs[2]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--code", "six_four_two"])  # missing --rates
    assert exc.value.code == 2


SIM = ["simulate", "--code", "six_four_two", "--puncture", "6", "--rates", "0.1"]
VERIFY = ["verify", "--code", "six_four_two"]
ANALYZE = ["analyze", "--code", "six_four_two"]
SEARCH = ["search", "--p", "2", "--n", "5", "--k", "3", "--dmin", "2"]


@pytest.mark.parametrize(
    "argv, expected",
    [
        # malformed tokens are usage errors
        (SIM + ["--rates", "abc"], 2),
        (SIM + ["--rates", "0.1,abc"], 2),
        (SIM + ["--puncture", "x"], 2),
        (SIM + ["--trials", "0"], 2),
        (SIM + ["--trials", "-3"], 2),
        (SIM + ["--trials", "1.5"], 2),
        (SIM + ["--postselect", "sometimes"], 2),
        (SIM + ["--postselect", "weight:x"], 2),
        (SIM + ["--erasure", "abc"], 2),
        (SIM + ["--erasure", "0.1,0.2"], 2),
        (VERIFY + ["--puncture", "x"], 2),
        (VERIFY + ["--puncture", "6,"], 2),
        (VERIFY + ["--budget", "abc"], 2),
        # well-formed values out of range are validation failures
        (SIM + ["--rates", "1.5"], 1),
        (SIM + ["--rates", "0.1,-0.2"], 1),
        (SIM + ["--puncture", "7"], 1),
        (VERIFY + ["--puncture", "0"], 1),
        (VERIFY + ["--puncture", "1,2"], 1),
        (VERIFY + ["--puncture", "1,1"], 1),
        (SIM + ["--seed", "-1"], 1),
        (SIM + ["--erasure", "1.5"], 1),
        (SIM + ["--erasure", "-0.1"], 1),
        (SIM + ["--erasure", "nan"], 1),
        # the same split for analyze, search and compare
        (ANALYZE + ["--format", "xml"], 2),
        (["analyze"], 2),
        (SEARCH + ["--p", "x"], 2),
        (SEARCH + ["--dmin", "1.5"], 2),
        (["compare", "--format", "xml"], 2),
        (ANALYZE[:2] + ["nosuch"], 1),
        (SEARCH[:2] + ["4"] + SEARCH[3:], 1),
        (SEARCH + ["--dmin", "0"], 1),
        # budgets and worker counts below 1 are usage errors
        (SEARCH + ["--budget", "-1"], 2),
        (SEARCH + ["--budget", "0"], 2),
        (VERIFY + ["--budget", "-1"], 2),
        (VERIFY + ["--budget", "0"], 2),
        (SIM + ["--workers", "0"], 2),
        (SIM + ["--workers", "-2"], 2),
        (SIM + ["--postselect", "weight:-1"], 2),
        # unreadable catalog files are validation failures, not tracebacks
        (["compare", "--catalog", "/nonexistent/catalog.txt"], 1),
        (ANALYZE[:2] + [str(Path(__file__).parent)], 1),
        # a node bound too large for a float is still a refusal, not a traceback
        (["search", "--p", "2", "--n", "30", "--k", "1", "--dmin", "2"], 3),
    ],
)
def test_bad_input_exit_codes(argv, expected, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == expected
    if expected == 1:
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (VERIFY + ["--puncture", "1,1"], "error: puncture position 1 given twice\n"),
        (SIM + ["--puncture", "6,7,6"], "error: puncture position 7 out of range 1..6\n"),
        (SIM + ["--seed", "-1"], "error: seed must be at least 0, got -1\n"),
    ],
)
def test_refusal_messages(argv, message, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err == message



IMPURE = "code impure p=2 n=5 k=2 d=2 pure=0\n11110|00000\n00000|11110\n00000|00001\n"


@pytest.mark.parametrize(
    "command", [["convert"], ["verify"], ["simulate", "--rates", "0.1"]], ids=lambda c: c[0]
)
@pytest.mark.parametrize(
    "args, message",
    [
        (
            ["--code", "six_four_two", "--puncture", "7"],
            "error: puncture position 7 out of range 1..6\n",
        ),
        (
            ["--code", "nosuch"],
            "error: 'nosuch' is neither a builtin code (six_four_two, five_qubit, four_two_two) nor a file\n",
        ),
        (["--code", "IMPURE"], "error: breeding conversion requires a pure stabilizer code\n"),
    ],
    ids=["puncture_out_of_range", "unknown_code", "impure_code"],
)
def test_protocol_commands_refuse_alike(command, args, message, tmp_path, capsys):
    path = tmp_path / "impure.txt"
    path.write_text(IMPURE)
    argv = command[:1] + [str(path) if a == "IMPURE" else a for a in args] + command[1:]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", message)

class TestLoadCode:
    @pytest.fixture
    def built(self, monkeypatch):
        """The (p, n) of every StabilizerCode the catalog builds."""
        from breedsim import catalog

        calls = []

        def counted(p, n, rows):
            calls.append((p, n))
            return code_class(p, n, rows)

        code_class = catalog.StabilizerCode
        monkeypatch.setattr(catalog, "StabilizerCode", counted)
        return calls

    def test_file_path_builds_no_builtin_code(self, tmp_path, built):
        from breedsim.cli import _load_code

        path = tmp_path / "qutrit.txt"
        path.write_text(
            "code five_qutrit p=3 n=5 k=1 d=3 pure=1\n"
            "10020|01200\n01002|00120\n20100|00012\n02010|20001\n"
        )
        assert _load_code(str(path)).name == "five_qutrit"
        assert built == [(3, 5)]

    def test_builtin_name_builds_one_code(self, built):
        from breedsim.cli import _load_code

        entry = _load_code("four_two_two")
        assert (entry.name, entry.code.k, entry.d, entry.pure) == ("four_two_two", 2, 2, True)
        assert built == [(2, 4)]

    def test_builtin_name_wins_over_a_file(self, tmp_path, monkeypatch, built):
        from breedsim.cli import _load_code

        (tmp_path / "five_qubit").write_text("code other p=2 n=4 k=2 d=2 pure=1\n1111|0000\n0000|1111\n")
        monkeypatch.chdir(tmp_path)
        assert _load_code("five_qubit").name == "five_qubit"
        assert built == [(2, 5)]

    def test_messages_unchanged(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["analyze", "--code", "nonesuch"]) == 1
        assert capsys.readouterr().err == (
            "error: 'nonesuch' is neither a builtin code (six_four_two, five_qubit, four_two_two) nor a file\n"
        )
        Path("two.txt").write_text(
            "code a p=2 n=4 k=2 d=2 pure=1\n1111|0000\n0000|1111\n\n"
            "code b p=2 n=6 k=4 d=2 pure=1\n111111|000000\n000000|111111\n"
        )
        assert main(["analyze", "--code", "two.txt"]) == 1
        assert capsys.readouterr().err == (
            "error: two.txt holds 2 entries (a, b); point --code at a single-entry file\n"
        )
        Path("bad.txt").write_text("code x p=2 n=2 k=0 d=1 pure=1\n10|00\n1|0\n")
        assert main(["analyze", "--code", "bad.txt"]) == 1
        assert capsys.readouterr().err == (
            "error: bad.txt:3: entry 'x': generator has 1 positions, expected 2\n"
        )


def test_one_parser_serves_every_call(monkeypatch):
    from breedsim import cli

    argvs = [
        ["analyze", "--code", "six_four_two"],
        ["search", "--p", "x"],
        ["search", "--p", "2", "--n", "4", "--k", "2", "--dmin", "2", "--format", "jsonl"],
        ["compare", "--format", "tsv"],
    ]

    def run_all():
        results = []
        for argv in argvs:
            try:
                results.append(run_cli(*argv))
            except SystemExit as exc:
                results.append((exc.code, ""))
        return results

    builds = []

    def counted_build():
        builds.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counted_build)
    cli._parser.cache_clear()
    shared = run_all()
    assert len(builds) == 1
    # the reference builds a fresh parser on every call
    monkeypatch.setattr(cli, "_parser", counted_build)
    assert run_all() == shared
    assert len(builds) == 1 + len(argvs)
    assert [code for code, _ in shared] == [0, 2, 0, 0]
    assert all(out for code, out in shared if code == 0)


def test_no_run_imports_numpy_ma():
    # numpy.ma is loaded lazily by helpers such as np.setdiff1d, and costs
    # about 1 MB of resident memory in every process that touches one
    script = """
import io, sys
from contextlib import redirect_stdout
import numpy as np
from breedsim import breeding, catalog, engine
from breedsim import symplectic as sp
from breedsim.cli import main
argvs = [
    ["analyze", "--code", "five_qubit"],
    ["convert", "--code", "five_qubit", "--puncture", "5"],
    ["verify", "--code", "five_qubit", "--puncture", "5"],
    ["simulate", "--code", "five_qubit", "--puncture", "5", "--rates", "0.1", "--trials", "200"],
    ["search", "--p", "2", "--n", "4", "--k", "2", "--dmin", "2"],
    ["compare"],
]
with redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in argvs]
rows = np.array([[1, 0, 1, 0, 0, 1, 1, 0], [0, 1, 0, 0, 1, 1, 0, 1], [1, 1, 0, 1, 0, 0, 0, 1]])
breeding.build_from_subspace(sp.SympSubspace.from_rows(2, 4, rows))
code = catalog.find_entry(catalog.builtin_catalog(), "five_qubit").code
engine.exact_fidelity(breeding.convert_pure(code, [4]), engine.Channel(2, 0.1, 0.1))
code.decode_table()
print(codes, "numpy.ma" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(breedsim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[0, 0, 0, 0, 0, 0] False"


# stdout, exit code and stderr of every subcommand in each --format, recorded
# before the subcommands shared their options through parent parsers
SIMULATE = ("simulate", "--code", "five_qubit", "--puncture", "5", "--rates", "0.05,0.2",
            "--trials", "300", "--seed", "3")
GOLDEN = [
    pytest.param(("analyze", "--code", "five_qubit"), {
        'human': (0, 'name=five_qubit n=5 k=1 d=3 pure=yes dual_dim=6 generators=10001|11011,01001|00110,00101|11000,00011|10111\n', ''),
        'tsv': (0, (
            'name\tn\tk\td\tpure\tdual_dim\tgenerators\n'
            'five_qubit\t5\t1\t3\tyes\t6\t10001|11011,01001|00110,00101|11000,00011|10111\n'
        ), ''),
        'jsonl': (0, '{"name": "five_qubit", "n": 5, "k": 1, "d": 3, "pure": "yes", "dual_dim": 6, "generators": "10001|11011,01001|00110,00101|11000,00011|10111"}\n', ''),
    }, id='analyze-builtin'),
    pytest.param(("analyze", "--code", str(PERFBENCH_CODES / "five_qutrit.txt")), {
        'human': (0, 'name=five_qutrit n=5 k=1 d=3 pure=yes dual_dim=6 generators=10002|21021,01002|00120,00102|21000,00012|20121\n', ''),
        'tsv': (0, (
            'name\tn\tk\td\tpure\tdual_dim\tgenerators\n'
            'five_qutrit\t5\t1\t3\tyes\t6\t10002|21021,01002|00120,00102|21000,00012|20121\n'
        ), ''),
        'jsonl': (0, '{"name": "five_qutrit", "n": 5, "k": 1, "d": 3, "pure": "yes", "dual_dim": 6, "generators": "10002|21021,01002|00120,00102|21000,00012|20121"}\n', ''),
    }, id='analyze-file'),
    pytest.param(("convert", "--code", "six_four_two", "--puncture", "6"), {
        'human': (0, 'name=six_four_two noisy_pairs=5 preshared=1 gross=4 net=3 d=2 ebit_positions=6\n', ''),
        'tsv': (0, (
            'name\tnoisy_pairs\tpreshared\tgross\tnet\td\tebit_positions\n'
            'six_four_two\t5\t1\t4\t3\t2\t6\n'
        ), ''),
        'jsonl': (0, '{"name": "six_four_two", "noisy_pairs": 5, "preshared": 1, "gross": 4, "net": 3, "d": 2, "ebit_positions": "6"}\n', ''),
    }, id='convert'),
    pytest.param(("verify", "--code", "five_qubit", "--puncture", "5"), {
        'human': (0, 'name=five_qubit preshared=1 d=3 patterns=79 result=PASS\n', ''),
        'tsv': (0, (
            'name\tpreshared\td\tpatterns\tresult\n'
            'five_qubit\t1\t3\t79\tPASS\n'
        ), ''),
        'jsonl': (0, '{"name": "five_qubit", "preshared": 1, "d": 3, "patterns": 79, "result": "PASS"}\n', ''),
    }, id='verify'),
    pytest.param(SIMULATE, {
        'human': (0, (
            'name=five_qubit rate=0.050000 trials=300 discards=0 fidelity=0.993333 ci95=0.009209 gross=1 net=0 seed=3\n'
            'name=five_qubit rate=0.200000 trials=300 discards=0 fidelity=0.823333 ci95=0.043158 gross=1 net=0 seed=3\n'
        ), ''),
        'tsv': (0, (
            'name\trate\ttrials\tdiscards\tfidelity\tci95\tgross\tnet\tseed\n'
            'five_qubit\t0.050000\t300\t0\t0.993333\t0.009209\t1\t0\t3\n'
            'five_qubit\t0.200000\t300\t0\t0.823333\t0.043158\t1\t0\t3\n'
        ), ''),
        'jsonl': (0, (
            '{"name": "five_qubit", "rate": "0.050000", "trials": 300, "discards": 0, "fidelity": "0.993333", "ci95": "0.009209", "gross": 1, "net": 0, "seed": 3}\n'
            '{"name": "five_qubit", "rate": "0.200000", "trials": 300, "discards": 0, "fidelity": "0.823333", "ci95": "0.043158", "gross": 1, "net": 0, "seed": 3}\n'
        ), ''),
    }, id='simulate'),
    pytest.param((*SIMULATE, "--erasure", "0.1"), {
        'human': (0, (
            'name=five_qubit rate=0.050000 erasure=0.100000 trials=300 discards=0 fidelity=0.923333 ci95=0.030108 gross=1 net=0 seed=3\n'
            'name=five_qubit rate=0.200000 erasure=0.100000 trials=300 discards=0 fidelity=0.726667 ci95=0.050432 gross=1 net=0 seed=3\n'
        ), ''),
        'tsv': (0, (
            'name\trate\terasure\ttrials\tdiscards\tfidelity\tci95\tgross\tnet\tseed\n'
            'five_qubit\t0.050000\t0.100000\t300\t0\t0.923333\t0.030108\t1\t0\t3\n'
            'five_qubit\t0.200000\t0.100000\t300\t0\t0.726667\t0.050432\t1\t0\t3\n'
        ), ''),
        'jsonl': (0, (
            '{"name": "five_qubit", "rate": "0.050000", "erasure": "0.100000", "trials": 300, "discards": 0, "fidelity": "0.923333", "ci95": "0.030108", "gross": 1, "net": 0, "seed": 3}\n'
            '{"name": "five_qubit", "rate": "0.200000", "erasure": "0.100000", "trials": 300, "discards": 0, "fidelity": "0.726667", "ci95": "0.050432", "gross": 1, "net": 0, "seed": 3}\n'
        ), ''),
    }, id='simulate-erasure'),
    pytest.param((*SIMULATE, "--postselect", "nonzero"), {
        'human': (0, (
            'name=five_qubit rate=0.050000 trials=300 discards=53 fidelity=1.000000 ci95=0.000000 gross=1 net=0 seed=3\n'
            'name=five_qubit rate=0.200000 trials=300 discards=184 fidelity=1.000000 ci95=0.000000 gross=1 net=0 seed=3\n'
        ), ''),
        'tsv': (0, (
            'name\trate\ttrials\tdiscards\tfidelity\tci95\tgross\tnet\tseed\n'
            'five_qubit\t0.050000\t300\t53\t1.000000\t0.000000\t1\t0\t3\n'
            'five_qubit\t0.200000\t300\t184\t1.000000\t0.000000\t1\t0\t3\n'
        ), ''),
        'jsonl': (0, (
            '{"name": "five_qubit", "rate": "0.050000", "trials": 300, "discards": 53, "fidelity": "1.000000", "ci95": "0.000000", "gross": 1, "net": 0, "seed": 3}\n'
            '{"name": "five_qubit", "rate": "0.200000", "trials": 300, "discards": 184, "fidelity": "1.000000", "ci95": "0.000000", "gross": 1, "net": 0, "seed": 3}\n'
        ), ''),
    }, id='simulate-postselect'),
    pytest.param((*SIMULATE, "--erasure", "0.1", "--postselect", "weight:1"), {
        'human': (0, (
            'name=five_qubit rate=0.050000 erasure=0.100000 trials=300 discards=15 fidelity=0.929825 ci95=0.029657 gross=1 net=0 seed=3\n'
            'name=five_qubit rate=0.200000 erasure=0.100000 trials=300 discards=34 fidelity=0.763158 ci95=0.051092 gross=1 net=0 seed=3\n'
        ), ''),
        'tsv': (0, (
            'name\trate\terasure\ttrials\tdiscards\tfidelity\tci95\tgross\tnet\tseed\n'
            'five_qubit\t0.050000\t0.100000\t300\t15\t0.929825\t0.029657\t1\t0\t3\n'
            'five_qubit\t0.200000\t0.100000\t300\t34\t0.763158\t0.051092\t1\t0\t3\n'
        ), ''),
        'jsonl': (0, (
            '{"name": "five_qubit", "rate": "0.050000", "erasure": "0.100000", "trials": 300, "discards": 15, "fidelity": "0.929825", "ci95": "0.029657", "gross": 1, "net": 0, "seed": 3}\n'
            '{"name": "five_qubit", "rate": "0.200000", "erasure": "0.100000", "trials": 300, "discards": 34, "fidelity": "0.763158", "ci95": "0.051092", "gross": 1, "net": 0, "seed": 3}\n'
        ), ''),
    }, id='simulate-erasure-postselect'),
    pytest.param(("search", "--p", "2", "--n", "5", "--k", "3", "--dmin", "2"), {
        'human': (0, 'p=2 n=5 k=3 dmin=2 verdict=NOT EXISTS (exhaustive) nodes=87978\n', ''),
        'tsv': (0, (
            'p\tn\tk\tdmin\tverdict\tnodes\n'
            '2\t5\t3\t2\tNOT EXISTS (exhaustive)\t87978\n'
        ), ''),
        'jsonl': (0, '{"p": 2, "n": 5, "k": 3, "dmin": 2, "verdict": "NOT EXISTS (exhaustive)", "nodes": 87978}\n', ''),
    }, id='search-not-exists'),
    pytest.param(("search", "--p", "2", "--n", "4", "--k", "2", "--dmin", "2"), {
        'human': (0, 'p=2 n=4 k=2 dmin=2 verdict=EXISTS nodes=1934 witness=1000|0111,0111|1000\n', ''),
        'tsv': (0, (
            'p\tn\tk\tdmin\tverdict\tnodes\twitness\n'
            '2\t4\t2\t2\tEXISTS\t1934\t1000|0111,0111|1000\n'
        ), ''),
        'jsonl': (0, '{"p": 2, "n": 4, "k": 2, "dmin": 2, "verdict": "EXISTS", "nodes": 1934, "witness": "1000|0111,0111|1000"}\n', ''),
    }, id='search-exists'),
    pytest.param(("search", "--p", "2", "--n", "6", "--k", "4", "--dmin", "2", "--budget", "10"), {
        'human': (0, 'p=2 n=6 k=4 dmin=2 verdict=INCONCLUSIVE (budget exhausted) nodes=11\n', ''),
        'tsv': (0, (
            'p\tn\tk\tdmin\tverdict\tnodes\n'
            '2\t6\t4\t2\tINCONCLUSIVE (budget exhausted)\t11\n'
        ), ''),
        'jsonl': (0, '{"p": 2, "n": 6, "k": 4, "dmin": 2, "verdict": "INCONCLUSIVE (budget exhausted)", "nodes": 11}\n', ''),
    }, id='search-inconclusive'),
    pytest.param(("compare",), {
        'human': (0, (
            'kind=hashing name=six_four_two noisy_pairs=6 preshared=0 gross=4 net=4 d=2 dominant=no\n'
            'kind=breeding name=six_four_two noisy_pairs=5 preshared=1 gross=4 net=3 d=2 dominant=yes\n'
            'kind=hashing name=five_qubit noisy_pairs=5 preshared=0 gross=1 net=1 d=3 dominant=no\n'
            'kind=breeding name=five_qubit noisy_pairs=4 preshared=1 gross=1 net=0 d=3 dominant=yes\n'
            'kind=breeding name=five_qubit noisy_pairs=3 preshared=2 gross=1 net=-1 d=3 dominant=yes\n'
            'kind=hashing name=four_two_two noisy_pairs=4 preshared=0 gross=2 net=2 d=2 dominant=no\n'
            'kind=breeding name=four_two_two noisy_pairs=3 preshared=1 gross=2 net=1 d=2 dominant=yes\n'
        ), ''),
        'tsv': (0, (
            'kind\tname\tnoisy_pairs\tpreshared\tgross\tnet\td\tdominant\n'
            'hashing\tsix_four_two\t6\t0\t4\t4\t2\tno\n'
            'breeding\tsix_four_two\t5\t1\t4\t3\t2\tyes\n'
            'hashing\tfive_qubit\t5\t0\t1\t1\t3\tno\n'
            'breeding\tfive_qubit\t4\t1\t1\t0\t3\tyes\n'
            'breeding\tfive_qubit\t3\t2\t1\t-1\t3\tyes\n'
            'hashing\tfour_two_two\t4\t0\t2\t2\t2\tno\n'
            'breeding\tfour_two_two\t3\t1\t2\t1\t2\tyes\n'
        ), ''),
        'jsonl': (0, (
            '{"kind": "hashing", "name": "six_four_two", "noisy_pairs": 6, "preshared": 0, "gross": 4, "net": 4, "d": 2, "dominant": "no"}\n'
            '{"kind": "breeding", "name": "six_four_two", "noisy_pairs": 5, "preshared": 1, "gross": 4, "net": 3, "d": 2, "dominant": "yes"}\n'
            '{"kind": "hashing", "name": "five_qubit", "noisy_pairs": 5, "preshared": 0, "gross": 1, "net": 1, "d": 3, "dominant": "no"}\n'
            '{"kind": "breeding", "name": "five_qubit", "noisy_pairs": 4, "preshared": 1, "gross": 1, "net": 0, "d": 3, "dominant": "yes"}\n'
            '{"kind": "breeding", "name": "five_qubit", "noisy_pairs": 3, "preshared": 2, "gross": 1, "net": -1, "d": 3, "dominant": "yes"}\n'
            '{"kind": "hashing", "name": "four_two_two", "noisy_pairs": 4, "preshared": 0, "gross": 2, "net": 2, "d": 2, "dominant": "no"}\n'
            '{"kind": "breeding", "name": "four_two_two", "noisy_pairs": 3, "preshared": 1, "gross": 2, "net": 1, "d": 2, "dominant": "yes"}\n'
        ), ''),
    }, id='compare'),
    pytest.param(("analyze", "--code", "nope"), {
        'human': (1, '', "error: 'nope' is neither a builtin code (six_four_two, five_qubit, four_two_two) nor a file\n"),
        'tsv': (1, '', "error: 'nope' is neither a builtin code (six_four_two, five_qubit, four_two_two) nor a file\n"),
        'jsonl': (1, '', "error: 'nope' is neither a builtin code (six_four_two, five_qubit, four_two_two) nor a file\n"),
    }, id='unknown-code'),
    pytest.param(("search", "--p", "2", "--n", "8", "--k", "3", "--dmin", "3"), {
        'human': (3, '', 'error: projected node bound (2^16)^5 exceeds 100000000\n'),
        'tsv': (3, '', 'error: projected node bound (2^16)^5 exceeds 100000000\n'),
        'jsonl': (3, '', 'error: projected node bound (2^16)^5 exceeds 100000000\n'),
    }, id='search-infeasible'),
]


@pytest.mark.parametrize("fmt", ["human", "tsv", "jsonl"])
@pytest.mark.parametrize("argv, want", GOLDEN)
def test_golden_output(argv, want, fmt, capsys):
    code = main([*argv, "--format", fmt])
    out, err = capsys.readouterr()
    assert (code, out, err) == want[fmt]


# verify of five_qubit with its distance overstated as 4, which prints a counterexample
GOLDEN_COUNTEREXAMPLE = {
    'human': (1, 'name=five_qubit preshared=0 d=4 patterns=33 result=FAIL counterexample=01000|10000 counterexample_erased=1\n', ''),
    'tsv': (1, (
        'name\tpreshared\td\tpatterns\tresult\tcounterexample\tcounterexample_erased\n'
        'five_qubit\t0\t4\t33\tFAIL\t01000|10000\t1\n'
    ), ''),
    'jsonl': (1, '{"name": "five_qubit", "preshared": 0, "d": 4, "patterns": 33, "result": "FAIL", "counterexample": "01000|10000", "counterexample_erased": "1"}\n', ''),
}


@pytest.mark.parametrize("fmt", ["human", "tsv", "jsonl"])
def test_golden_verify_counterexample(fmt, monkeypatch, capsys):
    from breedsim import cli
    from breedsim.breeding import BreedingProtocolSpec, EaqeccParams

    def overstated(code, ebits):
        return BreedingProtocolSpec(code, frozenset(), EaqeccParams(p=code.p, n=code.n, gross_k=code.k, c=0, d=4))

    monkeypatch.setattr(cli, "convert_pure", overstated)
    code = main(["verify", "--code", "five_qubit", "--format", fmt])
    out, err = capsys.readouterr()
    assert (code, out, err) == GOLDEN_COUNTEREXAMPLE[fmt]


@pytest.mark.parametrize("command", ["analyze", "convert", "verify", "simulate", "search", "compare"])
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: breedsim {command} ")


def test_budget_defaults_are_the_library_defaults():
    from breedsim import cli
    from breedsim.engine import verify_guarantee
    from breedsim.search import SearchQuery

    parser = cli.build_parser()
    max_patterns = inspect.signature(verify_guarantee).parameters["max_patterns"].default
    assert parser.parse_args(["verify", "--code", "five_qubit"]).budget == max_patterns
    search = parser.parse_args(["search", "--p", "2", "--n", "4", "--k", "2", "--dmin", "2"])
    assert search.budget == SearchQuery.budget
