import contextlib
import gc
import hashlib
import io
import json
import re
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamext.bits import read_packed_bits, write_packed_bits
from hamext.cli import _fraction, main
from hamext.errors import ConfigError
from hamext.extractor import BlockSchedule
from hamext.rng import bit_stream
from hamext.stats import CDF_GAP_CEILING, SMALL_BALL_CEILING, WEBER_CEILING
from oracles import write_text_bits


# The option keys each subcommand reads. Every subcommand also takes
# --config and --out-dir, and no other option.
KEYS = {
    "extract": ["input", "seed", "schedule-file", "blocks", "gen-budget", "budget"],
    "corrupt": ["input", "seed", "schedule-file", "blocks", "gen-budget", "budget", "targets"],
    "harper": ["n"],
    "clt-check": ["n-list"],
    "smallball": ["n-list", "budget"],
    "lil": ["input", "length", "seed", "epsilon"],
    "weber": ["n", "nu", "rate"],
    "keylemma": ["n", "trials", "threshold", "seed"],
    "select": ["rule", "input", "length", "seed"],
    "trace-refine": ["input"],
    "suite": [],
}
# Each key replaces those it maps to: a run reads one side or the other.
REPLACES = {"input": ["seed", "length"], "schedule-file": ["blocks", "gen-budget"],
            "nu": ["rate"]}
CLASHES = [(command, key, other) for command, keys in sorted(KEYS.items())
           for key, replaced in REPLACES.items() if key in keys
           for other in replaced if other in keys]
# A value other than its default for every option key; trace-refine's
# input has no default, so its runs start from strings.txt (BASE)
CHANGED = {"input": "x.txt", "seed": 5, "length": 256, "schedule-file": "sched.txt",
           "blocks": 2, "gen-budget": "table:0", "budget": "table:0", "targets": 0, "n": 2,
           "n-list": 10, "epsilon": 0.5, "nu": "2,4", "rate": "power:1/2", "trials": 5,
           "threshold": "1/3", "rule": "evens"}


def run(args):
    return main([str(a) for a in args])


def read_json(path):
    return json.loads(path.read_text())


class TestExtract:
    def test_all_zero_input(self, tmp_path, capsys):
        src = tmp_path / "x.txt"
        write_text_bits(src, ["0" * 4161])  # covers the generated (1,64,4096) blocks
        assert run(["extract", "--input", src, "--blocks", 3,
                    "--out-dir", tmp_path / "out"]) == 0
        doc = read_json(tmp_path / "out" / "extract.json")
        assert doc["outputs"] == "000"
        assert "extracted" in capsys.readouterr().out

    def test_csv_side_table(self, tmp_path):
        run(["extract", "--seed", 3, "--blocks", 2, "--out-dir", tmp_path])
        lines = (tmp_path / "extract.csv").read_text().splitlines()
        assert lines[0] == "block,margin,output"
        assert len(lines) == 3

    def test_schedule_file(self, tmp_path):
        sched = tmp_path / "sched.txt"
        sched.write_text("0 0 3 3\n1 3 8 8\n")
        src = tmp_path / "x.txt"
        write_text_bits(src, ["11001101"])
        run(["extract", "--input", src, "--schedule-file", sched,
             "--out-dir", tmp_path / "out"])
        assert read_json(tmp_path / "out" / "extract.json")["outputs"] == "11"

    def test_empty_schedule_file_is_two(self, tmp_path, capsys):
        sched = tmp_path / "sched.txt"
        sched.write_text("")
        assert run(["extract", "--schedule-file", sched, "--out-dir", tmp_path]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_default_stream_covers_schedule(self, tmp_path):
        assert run(["extract", "--seed", 4, "--blocks", 5, "--out-dir", tmp_path]) == 0
        assert len(read_json(tmp_path / "extract.json")["outputs"]) == 5

    def test_sniffing_closes_input(self, tmp_path):
        src = tmp_path / "x.txt"
        write_text_bits(src, ["11001101"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["extract", "--input", src, "--blocks", 1,
                        "--out-dir", tmp_path / "out"]) == 0
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("args", [
    ["select"], ["lil"], ["trace-refine"],
    ["extract", "--schedule-file", "sched.txt"],
    ["corrupt", "--schedule-file", "sched.txt", "--budget", "table:1"],
], ids=["select", "lil", "trace-refine", "extract", "corrupt"])
def test_text_input_with_trailing_blanks_reads_as_text(tmp_path, args):
    # "0101 \n" was sniffed as packed and exited 2 with a truncated
    # header from every --input reader but trace-refine's
    (tmp_path / "sched.txt").write_text("0 0 3 3\n1 3 8 8\n")
    args = [tmp_path / a if a == "sched.txt" else a for a in args]
    src = tmp_path / "x.txt"
    reports = []
    for k, text in enumerate(["1100110100101101\n", "1100110100101101 \t\n"]):
        src.write_text(text)
        out = tmp_path / f"o{k}"
        assert run([*args, "--input", src, "--out-dir", out]) == 0
        reports.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert reports[0] == reports[1]


class TestCorrupt:
    def test_seeded_run_report(self, tmp_path):
        assert run(["corrupt", "--seed", 1, "--budget", "power:2/3",
                    "--out-dir", tmp_path]) == 0
        doc = read_json(tmp_path / "corrupt.json")
        assert doc["budget_ok"] is True
        assert all(doc["targets_rezero"])
        assert doc["similarity_verified"] is True
        y = read_packed_bits(tmp_path / doc["y_file"])
        assert y.size == 266305

    def test_explicit_input_roundtrip(self, tmp_path):
        x = bit_stream(42, 266305)
        write_packed_bits(tmp_path / "x.bits", x)
        run(["corrupt", "--input", tmp_path / "x.bits", "--out-dir", tmp_path / "o"])
        doc = read_json(tmp_path / "o" / "corrupt.json")
        flips = sum(len(s["flips"]) for s in doc["stages"])
        y = read_packed_bits(tmp_path / "o" / "y.bits")
        assert int((x != y).sum()) == flips == doc["cumulative"][-1]

    def test_summary_names_stream_relative_to_out_dir(self, tmp_path, capsys):
        assert run(["corrupt", "--seed", 1, "--blocks", 2, "--out-dir", tmp_path]) == 0
        assert capsys.readouterr().out.endswith(", y -> y.bits\n")


def test_suite_prints_one_line_per_criterion(tmp_path, capsys):
    assert run(["suite", "--out-dir", tmp_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"[PASS] criterion {k}" for k in range(1, 11)]
    assert read_json(tmp_path / "suite.json")["all_passed"] is True


def test_suite_with_a_failing_criterion_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("hamext.acceptance.small_ball_bound", lambda n, g: 0.0)
    assert run(["suite", "--out-dir", tmp_path]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("]")[0] for line in lines] == ["[PASS"] * 6 + ["[FAIL"] + ["[PASS"] * 3
    assert read_json(tmp_path / "suite.json")["all_passed"] is False


# A wrong library answer, swapped in where the row function the command
# shares with its criterion reads it, fails the command's claim: the
# report is still written, with its verdict false, and the run exits 2.
@pytest.mark.parametrize("args, name, verdict, target, stand_in", [
    (["harper", "--n", 2], "harper.json", "all_equal",
     "harper_min_neighborhood", lambda n, size, d: (0, 1)),
    (["clt-check", "--n-list", 10], "clt_check.json", "within_bound",
     "berry_esseen_bound", lambda n: 0.0),
    (["smallball", "--n-list", 16], "smallball.json", "within_bound",
     "small_ball_bound", lambda n, g: 0.0),
], ids=["harper", "clt-check", "smallball"])
def test_a_failed_claim_exits_two_with_its_report(tmp_path, monkeypatch, capsys,
                                                  args, name, verdict, target, stand_in):
    monkeypatch.setattr(f"hamext.acceptance.{target}", stand_in)
    assert run([*args, "--out-dir", tmp_path]) == 2
    assert read_json(tmp_path / name)[verdict] is False
    assert capsys.readouterr().out.endswith(": False\n")


# The files each subcommand writes: its report, its side table when it
# has one, and corrupt's stream
WRITES = [
    (["extract", "--seed", 2, "--blocks", 2], {"extract.json", "extract.csv"}),
    (["corrupt", "--seed", 1, "--blocks", 2], {"corrupt.json", "y.bits"}),
    (["harper", "--n", 2], {"harper.json", "harper.csv"}),
    (["clt-check", "--n-list", 10], {"clt_check.json", "clt_check.csv"}),
    (["smallball", "--n-list", 16], {"smallball.json", "smallball.csv"}),
    (["lil", "--length", 256], {"lil.json", "lil.csv"}),
    (["weber", "--n", 6], {"weber.json", "weber.csv"}),
    (["keylemma", "--n", 3, "--trials", 2], {"keylemma.json"}),
    (["select", "--length", 64], {"select.json"}),
    (["trace-refine", "--input", "strings.txt"], {"trace_refine.json"}),
    (["suite"], {"suite.json"}),
]


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        for d in ("a", "b"):
            run(["corrupt", "--seed", 9, "--out-dir", tmp_path / d])
            run(["keylemma", "--n", 5, "--trials", 20, "--seed", 2,
                 "--out-dir", tmp_path / d])
        for name in ("corrupt.json", "y.bits", "keylemma.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    # sha256 of reports written by the implementation these pins were taken
    # from; a faster path must write the same bytes
    @pytest.mark.parametrize("args, name, digest", [
        (["keylemma", "--n", 4, "--trials", 200, "--seed", 0], "keylemma.json",
         "826d31afbbf62ba16d1279fd748b125efd69c54a1bb12b667b31d0e3220ccc9a"),
        (["keylemma", "--n", 8, "--trials", 200, "--seed", 0], "keylemma.json",
         "ed914fb562c34cc500d9b22a90d010335edc5ead660598b7ade723ec677dece0"),
        (["keylemma", "--n", 12, "--trials", 200, "--seed", 0], "keylemma.json",
         "869c179c90c8c4ed62372fe2374d0f483f7b07d2ff5f05953b51da9fe85fa3c7"),
        (["weber"], "weber.json",
         "aefaa3f2df9143867cc2b1724bf6296fb693fa73d17bcb126ebae95e929fd56b"),
        (["clt-check"], "clt_check.json",
         "ed773ca5539f57311ebda6082c8e0c0ea2ef421d615749ebec1fc63f0c219bd8"),
        (["smallball"], "smallball.json",
         "c8b7f3adbc74689a6fa11d1bca5312188da3bc10a6ba4dd989f8559084a43dfc"),
        (["harper", "--n", 4], "harper.json",
         "2d276291e3f9824c42992bc8549417439b60387c1a18766ac612c678ecb960d0"),
        (["extract", "--seed", 2, "--blocks", 3, "--budget", "power:1/3"], "extract.json",
         "1d77ff66786edef0112ef7a8378301d5e2f2d3c37caf736500725596807a6c63"),
        (["extract", "--seed", 2, "--blocks", 3, "--budget", "power:1/3"], "extract.csv",
         "3b1c4e33a6740697c0d4ac538482b65abe39a50ef2ec9a6ab2727586ce43dd59"),
        (["corrupt", "--seed", 1], "corrupt.json",
         "a51b357314f83df0b6f0b67260c325c3481a4b66791bedae062871c7901891db"),
        (["corrupt", "--seed", 1], "y.bits",
         "9f2bf7d3e065e843786597ab8be07bb37610cdfcb5cd6d72b3d9e1f16f8ceec4"),
        (["lil", "--seed", 5, "--length", 65536], "lil.json",
         "31c9d3c0e3e2575f673fa0b8db19e201c7850d772f25b87331952461bc67b3ee"),
        (["lil", "--seed", 5, "--length", 65536], "lil.csv",
         "1c4ef0a64376cfd21ed3096336b081a8fa9d888672f0fa9a3dafc7c39b640b45"),
        (["select", "--rule", "evens", "--seed", 3, "--length", 1000], "select.json",
         "4f0dda1033318cea47db90ca52aa53025858f51769b8b54065dbb918aa0dd6e3"),
        (["trace-refine", "--input", "strings.txt"], "trace_refine.json",
         "898bac39c1363ff6b91c639582c5d687a5d9bb0ac9c558fb7fd56f8d5ecf3210"),
        (["suite"], "suite.json",
         "8354f771f9776c87c2c4c679abb5a165e3807aa970bf91520c1f852f46447d42"),
        (["harper", "--n", 4], "harper.csv",
         "0fd24eb3ff71ee140545bcebdfc2a10a9e229aaba91a7ff4989a6b30cc4df358"),
        (["clt-check"], "clt_check.csv",
         "539b53ed71a9b3f606d4d90beac35831d0db677683be9110535533a9f6b6f04c"),
        (["smallball"], "smallball.csv",
         "678b2110343558c14473495a8b82aa3b64723ffb5d51b5d0ff965637edccf452"),
        (["weber"], "weber.csv",
         "4989590348f52d0da923ad55e71fb295a3533c0d231441d6ce554b400ef67d09"),
    ], ids=["keylemma-n4", "keylemma-n8", "keylemma-n12", "weber-default",
            "clt-check-default", "smallball-default", "harper-n4",
            "extract-json", "extract-csv", "corrupt-json", "corrupt-y-bits", "lil-json",
            "lil-csv", "select-evens", "trace-refine", "suite", "harper-n4-csv",
            "clt-check-csv", "smallball-csv", "weber-csv"])
    def test_pinned_report_digests(self, tmp_path, monkeypatch, args, name, digest):
        monkeypatch.chdir(tmp_path)  # the embedded config names the input as given
        write_text_bits("strings.txt", ["11100", "10110"])
        assert run([*args, "--out-dir", "out"]) == 0
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest

    # --format csv, which five subcommands took before every side table
    # was written, is refused by all of them and writes nothing
    @pytest.mark.parametrize("args, written", WRITES, ids=[args[0] for args, _ in WRITES])
    @pytest.mark.parametrize("fmt", ["default", "csv"])
    def test_files_each_command_writes(self, tmp_path, monkeypatch, capsys, args, written, fmt):
        monkeypatch.chdir(tmp_path)
        write_text_bits("strings.txt", ["11100", "10110"])
        extra = ["--format", "csv"] if fmt == "csv" else []
        code = run([*args, *extra, "--out-dir", "out"])
        if fmt == "csv":
            assert code == 2
            assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
            assert not (tmp_path / "out").exists()
        else:
            assert code == 0
            assert {p.name for p in (tmp_path / "out").iterdir()} == written

    def test_reports_embed_config_and_version(self, tmp_path):
        run(["harper", "--n", 2, "--out-dir", tmp_path])
        doc = read_json(tmp_path / "harper.json")
        assert doc["artifact_version"]
        assert doc["config"]["n"] == "2"


class TestConfigFile:
    def test_config_with_cli_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment line, then a blank one\n\nn = 2   # comment\n")
        run(["harper", "--config", cfg, "--out-dir", tmp_path / "o1"])
        assert read_json(tmp_path / "o1" / "harper.json")["n"] == 2
        run(["harper", "--config", cfg, "--n", 3, "--out-dir", tmp_path / "o2"])
        assert read_json(tmp_path / "o2" / "harper.json")["n"] == 3

    def test_budget_from_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("budget = power:1\nseed = 1\n")
        run(["corrupt", "--config", cfg, "--out-dir", tmp_path / "o"])
        doc = read_json(tmp_path / "o" / "corrupt.json")
        assert doc["config"]["budget"] == "power:1"

    @pytest.mark.parametrize("args, flag", [
        (["harper", "--n", 2, "--n", 3], "--n"),
        (["harper", "--n=2", "--n", 3], "--n"),
        (["harper", "--config", "a.cfg", "--config", "b.cfg"], "--config"),
        (["lil", "--length", 64, "--out-dir", "o1", "--out-dir", "o2"], "--out-dir"),
    ], ids=["n", "n-equals", "config", "out-dir"])
    def test_flag_given_twice_is_two(self, tmp_path, monkeypatch, capsys, args, flag):
        # harper ran n = 3 and its config block showed only n = 3; the first
        # --config was dropped
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.cfg").write_text("n = 2\n")
        (tmp_path / "b.cfg").write_text("n = 3\n")
        assert run(args) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and f"flag {flag} given twice" in err["message"]
        assert {p.name for p in tmp_path.iterdir()} == {"a.cfg", "b.cfg"}

    @pytest.mark.parametrize("flag", [[], ["--seed", 3]], ids=["file-only", "flag-too"])
    def test_key_set_twice_is_two(self, tmp_path, capsys, flag):
        # the last value was taken: seed = 2, and 3 with the flag
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nlength = 64\nseed = 2\n")
        assert run(["lil", "--config", cfg, *flag, "--out-dir", tmp_path / "o"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "'seed' set twice" in err["message"]
        assert not (tmp_path / "o").exists()

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just words\n")
        assert run(["harper", "--config", cfg, "--out-dir", tmp_path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"


class TestOptionTable:
    @pytest.mark.parametrize("command", sorted(KEYS))
    def test_help_lists_exactly_the_declared_keys(self, capsys, command):
        with pytest.raises(SystemExit):
            run([command, "--help"])
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags == {"--help", "--config", "--out-dir",
                         *(f"--{key}" for key in KEYS[command])}

    # format, which these five took, and extract's length, which its
    # schedule fixes, are refused as a flag and as a config key
    @pytest.mark.parametrize("command, key", [
        *((command, key) for command, keys in sorted(KEYS.items()) for key in keys),
        *((command, "format") for command in ("clt-check", "extract", "harper", "smallball",
                                               "weber")),
        ("extract", "length")])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_unreadable_value_is_two(self, tmp_path, monkeypatch, capsys, command, key, via):
        monkeypatch.chdir(tmp_path)  # so that "x" names no file
        if via == "flag":
            args = [command, f"--{key}", "x"]
        else:
            (tmp_path / "run.cfg").write_text(f"{key} = x\n")
            args = [command, "--config", "run.cfg"]
        assert run([*args, "--out-dir", "out"]) == 2
        assert json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("command, flags, config", [
        ("extract", ["--input", "x.txt", "--blocks", 3], "input = x.txt\nblocks = 3\n"),
        ("extract", ["--input", "x.txt", "--schedule-file", "sched.txt"],
         "input = x.txt\nschedule-file = sched.txt\n"),
        ("harper", ["--n", 2], "n = 2\n"),
    ], ids=["input", "schedule-file", "harper-n"])
    def test_config_line_acts_as_its_flag(self, tmp_path, monkeypatch, command, flags, config):
        monkeypatch.chdir(tmp_path)
        write_text_bits("x.txt", ["0" * 4161])
        (tmp_path / "sched.txt").write_text("0 0 3 3\n1 3 8 8\n")
        (tmp_path / "run.cfg").write_text(config)
        assert run([command, *flags, "--out-dir", "a"]) == 0
        assert run([command, "--config", "run.cfg", "--out-dir", "b"]) == 0
        written = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert written == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in written:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    # a prefix of a declared flag (--n for --n-list) is no flag either
    @pytest.mark.parametrize("args", [
        ["harper", "--seed", 5], ["clt-check", "--n", 10], ["smallball", "--n", 16],
        ["extract", "--form", "csv"], ["keylemma", "--format", "csv"],
        ["lil", "--format", "json"], ["extract", "--length", 5],
    ], ids=lambda args: "-".join(map(str, args)))
    def test_undeclared_flag_is_two(self, tmp_path, capsys, args):
        assert run([*args, "--out-dir", tmp_path]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not any(tmp_path.iterdir())

    # a key and one it replaces: the second was dropped, yet the report's
    # config block listed it
    @pytest.mark.parametrize("command, key, other", CLASHES, ids=map("-".join, CLASHES))
    @pytest.mark.parametrize("via", ["flag", "config", "mix"])
    def test_key_and_one_it_replaces_is_two(self, tmp_path, monkeypatch, capsys,
                                            command, key, other, via):
        monkeypatch.chdir(tmp_path)
        write_text_bits("x.txt", ["11001101"])
        (tmp_path / "sched.txt").write_text("0 0 3 3\n1 3 8 8\n")
        # x.txt covers sched.txt, so the run without `other` succeeds
        given = {k: CHANGED[k] for k in (key, *REPLACES) if k in KEYS[command]}
        assert run([command, *(a for k, v in given.items() for a in (f"--{k}", v)),
                    "--out-dir", "alone"]) == 0
        given[other] = CHANGED[other]
        lines = "".join(f"{k} = {v}\n" for k, v in given.items()
                        if via == "config" or via == "mix" and k != other)
        (tmp_path / "run.cfg").write_text(lines)
        flags = [a for k, v in given.items() if via == "flag" or via == "mix" and k == other
                 for a in (f"--{k}", v)]
        capsys.readouterr()
        assert run([command, "--config", "run.cfg", *flags, "--out-dir", "both"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert f"{key} replaces ['{other}']" in err["message"]
        assert not (tmp_path / "both").exists()

    # an empty value is an error, not the key's default (an empty input
    # read the Philox seed-0 stream; an empty budget, targets or nu took
    # the default one)
    @pytest.mark.parametrize("command, key, rest", [
        ("extract", "input", ["--blocks", 2]),
        ("extract", "schedule-file", ["--blocks", 2]),
        ("extract", "budget", ["--blocks", 2]),
        ("corrupt", "budget", ["--blocks", 2]),
        ("corrupt", "targets", ["--blocks", 2]),
        ("weber", "nu", ["--n", 6]),
    ], ids=["extract-input", "extract-schedule-file", "extract-budget", "corrupt-budget",
            "corrupt-targets", "weber-nu"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_empty_value_is_two(self, tmp_path, capsys, command, key, rest, via):
        if via == "flag":
            args = [command, f"--{key}", ""]
        else:
            (tmp_path / "run.cfg").write_text(f"{key} =\n")
            args = [command, "--config", tmp_path / "run.cfg"]
        assert run([*args, *rest, "--out-dir", tmp_path / "o"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, config", [
        ("harper", "n = 2\nseed = 7\n"),
        ("keylemma", "n = 2\nformat = csv\n"),
        ("extract", "blocks = 2\ncommand = harper\n"),
        # every report written while the format option existed embeds this line
        ("harper", "n = 2\nformat = json\n"),
    ], ids=["harper-seed", "keylemma-format-csv", "extract-command-harper",
            "harper-format-json"])
    def test_undeclared_config_key_is_two(self, tmp_path, capsys, command, config):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        assert run([command, "--config", cfg, "--out-dir", tmp_path / "o"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not (tmp_path / "o").exists()

    # every report embeds its merged configuration, command included;
    # written back as a config file, it replays the run
    @pytest.mark.parametrize("args", [
        ["extract", "--input", "x.txt", "--blocks", 3],
        ["corrupt", "--seed", 1, "--blocks", 2],
        ["harper", "--n", 2],
        ["clt-check", "--n-list", "10,100"],
        ["smallball", "--n-list", "16,64", "--budget", "power:1/2"],
        ["lil", "--length", 256, "--epsilon", "0.5"],
        ["weber", "--nu", "2,4,16", "--n", 6],
        ["keylemma", "--n", 4, "--trials", 5, "--seed", 3],
        ["select", "--rule", "evens", "--length", 64],
        ["trace-refine", "--input", "x.txt"],
    ], ids=lambda args: args[0])
    def test_report_config_block_replays(self, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        write_text_bits("x.txt", ["0" * 4161])
        assert run([*args, "--out-dir", "a"]) == 0
        name = args[0].replace("-", "_")
        config = read_json(tmp_path / "a" / f"{name}.json")["config"]
        assert config["command"] == args[0]
        assert config.keys() <= {"command", *KEYS[args[0]]}
        (tmp_path / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
        assert run([args[0], "--config", "run.cfg", "--out-dir", "b"]) == 0
        written = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert written == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in written:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


BASE = {"trace-refine": {"input": "strings.txt"}}
OPTIONS = [(command, key) for command, keys in sorted(KEYS.items()) for key in keys]


def written_apart_from_config(out_dir):
    """Every file a run wrote, each JSON report without its config block."""
    files = {}
    for path in out_dir.iterdir():
        files[path.name] = path.read_bytes()
        if path.suffix == ".json":
            files[path.name] = {k: v for k, v in read_json(path).items() if k != "config"}
    return files


# an option whose value changes nothing but the config block's echo is an
# option the run does not need (extract's length, which its schedule fixes)
@pytest.mark.parametrize("command, key", OPTIONS, ids=map("-".join, OPTIONS))
def test_every_option_changes_the_run(tmp_path, monkeypatch, command, key):
    monkeypatch.chdir(tmp_path)
    write_text_bits("x.txt", [bit_stream(7, 266305)])  # covers every default schedule
    write_text_bits("strings.txt", ["11100", "10110"])
    (tmp_path / "sched.txt").write_text("0 0 3 3\n1 3 8 8\n")
    def flags(options):  # a flag is given once, so the changed value replaces BASE's
        return [command, *(arg for k, v in options.items() for arg in (f"--{k}", v))]
    base = BASE.get(command, {})
    assert run([*flags(base), "--out-dir", "default"]) == 0
    assert run([*flags({**base, key: CHANGED[key]}), "--out-dir", "changed"]) == 0
    assert (written_apart_from_config(tmp_path / "default")
            != written_apart_from_config(tmp_path / "changed"))


class TestExitCodes:
    def test_resource_ceiling_is_three(self, tmp_path, capsys):
        assert run(["harper", "--n", 6, "--out-dir", tmp_path]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "resource"

    def test_small_ball_ceiling_is_three(self, tmp_path, capsys):
        # the per-term sum at n = 10^8 never finished
        assert run(["smallball", "--n-list", "16,100000000", "--out-dir", tmp_path / "o"]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "resource"
        assert not (tmp_path / "o").exists()

    def test_weber_ceiling_is_three(self, tmp_path, capsys):
        assert run(["weber", "--nu", 2, "--n", 4096, "--out-dir", tmp_path / "at"]) == 0
        assert run(["weber", "--rate", "table:0", "--n", 4096, "--out-dir", tmp_path / "sp"]) == 0
        # the scan reads power:1/2 at 2^4095 as an integer past the float range, exactly
        assert run(["weber", "--rate", "power:1/2", "--n", 4096, "--out-dir", tmp_path / "pw"]) == 0
        capsys.readouterr()
        # 16000 used to exit 1 on the 4 300-digit int-to-text limit, 10^14 never returned
        for args in (["--nu", 2, "--n", 4097], ["--n", 16000], ["--n", 10 ** 14]):
            assert run(["weber", *args, "--out-dir", tmp_path / "o"]) == 3
            assert json.loads(capsys.readouterr().err)["error"] == "resource"
        assert not (tmp_path / "o").exists()

    def test_lil_rate_past_the_float_range_is_three(self, tmp_path, capsys):
        # the sparse scan reads the rate at 2^(n-1); 2^1021 overflows lil's float envelope
        assert run(["weber", "--rate", "lil:1", "--n", 1021, "--out-dir", tmp_path / "ok"]) == 0
        capsys.readouterr()
        assert run(["weber", "--rate", "lil:1", "--n", 1022, "--out-dir", tmp_path / "o"]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "resource"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args", [
        ["lil", "--length", 10 ** 20],
        ["select", "--length", 10 ** 20],
        ["harper", "--n", 10 ** 20],
        ["extract", "--gen-budget", "table:0", "--blocks", 10 ** 20],
        ["extract", "--gen-budget", "table:0", "--blocks", 10 ** 6],
    ], ids=["lil-length", "select-length", "harper-n",
            "extract-blocks-10^20", "extract-blocks-10^6"])
    def test_sizes_no_machine_holds_are_three(self, tmp_path, capsys, args):
        # each exited 1 with a numpy ValueError or an OverflowError; the
        # 10^6 singleton blocks of table:0 took 7 s and 368 MB
        assert run([*args, "--out-dir", tmp_path / "o"]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "resource"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("budget", [
        "power:100/1", "table:100000000000000000000", "affine_sqrt:100000000000000000000:0"])
    def test_budget_past_int64_is_zero(self, tmp_path, budget):
        # each leaked OverflowError from an int64 array of budget values
        assert run(["extract", "--blocks", 2, "--budget", budget, "--out-dir", tmp_path]) == 0
        assert read_json(tmp_path / "extract.json")["robust"] == [False, False]

    def test_refused_allocation_is_three(self, tmp_path, monkeypatch, capsys):
        def refuse(seed, length):
            raise MemoryError("Unable to allocate 11.4 TiB")

        monkeypatch.setattr("hamext.cli.bit_stream", refuse)
        assert run(["lil", "--length", 10 ** 14, "--out-dir", tmp_path]) == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "resource", "message": "Unable to allocate 11.4 TiB"}

    def test_contract_violation_is_two(self, tmp_path, capsys):
        assert run(["smallball", "--budget", "power:-1", "--out-dir", tmp_path]) == 2
        assert json.loads(capsys.readouterr().err)["message"]

    def test_missing_input_is_two(self, tmp_path, capsys):
        assert run(["trace-refine", "--out-dir", tmp_path]) == 2

    def assert_exit_two(self, args, tmp_path, capsys, error="ConfigError"):
        assert run([*args, "--out-dir", tmp_path]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == error

    # each ran and exited 0, but its report's config block replayed another
    # run: a config line cuts its value at '#' and strips the blanks around it
    @pytest.mark.parametrize("args", [
        ["select", "--input", "x#1.txt"],
        ["select", "--seed", " 5"],
        ["harper", "--n", "2\t"],
        ["lil", "--epsilon", "0.5\n"],
    ], ids=["hash", "leading-blank", "trailing-tab", "line-break"])
    def test_flag_value_its_config_line_changes_is_two(self, tmp_path, monkeypatch, capsys,
                                                        args):
        monkeypatch.chdir(tmp_path)
        write_text_bits("x#1.txt", ["1101"])
        self.assert_exit_two(args, "o", capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("nu", ["1.5,2", "a", "2,,4"])
    def test_malformed_weber_nu_is_two(self, tmp_path, capsys, nu):
        self.assert_exit_two(["weber", "--nu", nu], tmp_path, capsys)

    def test_packed_payload_past_the_count_is_two(self, tmp_path, capsys):
        src = tmp_path / "x.bits"
        src.write_bytes((5).to_bytes(8, "little") + b"\x1f\x00")
        self.assert_exit_two(["select", "--input", src], tmp_path / "o", capsys, "DomainError")

    @pytest.mark.parametrize("budget", ["table:1=2=3", "table:1=0,1=5", "table:-3=1",
                                        "table:-3=1,0=2"])
    def test_malformed_table_budget_is_two(self, tmp_path, capsys, budget):
        # each ran and exited 0: the =3 dropped, length 1 set twice, the
        # -3 entry never applied
        self.assert_exit_two(["smallball", "--budget", budget], tmp_path, capsys, "DomainError")

    def test_malformed_clt_n_list_is_two(self, tmp_path, capsys):
        self.assert_exit_two(["clt-check", "--n-list", "1.5"], tmp_path, capsys)

    def test_malformed_smallball_n_list_is_two(self, tmp_path, capsys):
        self.assert_exit_two(["smallball", "--n-list", "a"], tmp_path, capsys)

    def test_malformed_n_list_in_config_is_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n-list = 16,x\n")
        self.assert_exit_two(["smallball", "--config", cfg], tmp_path, capsys)

    @pytest.mark.parametrize("threshold", ["x", "1/0"])
    def test_malformed_keylemma_threshold_is_two(self, tmp_path, capsys, threshold):
        self.assert_exit_two(["keylemma", "--n", 4, "--threshold", threshold],
                             tmp_path, capsys)

    @pytest.mark.parametrize("args", [["--n", -2], ["--n", 4, "--trials", -1]],
                             ids=["negative-n", "negative-trials"])
    def test_keylemma_negative_sizes_are_two(self, tmp_path, capsys, args):
        self.assert_exit_two(["keylemma", *args], tmp_path, capsys, "DomainError")

    def test_harper_negative_n_is_two(self, tmp_path, capsys):
        self.assert_exit_two(["harper", "--n", -1], tmp_path, capsys, "DomainError")

    @pytest.mark.parametrize("n_list", ["-3", "0"])
    def test_clt_check_size_below_one_is_two(self, tmp_path, capsys, n_list):
        self.assert_exit_two(["clt-check", "--n-list", n_list], tmp_path, capsys,
                             "DomainError")

    @pytest.mark.parametrize("args", [
        ["lil", "--length", -1],
        ["select", "--length", -5],
        ["lil", "--seed", -1],
        ["lil", "--seed", 1 << 64, "--length", 64],
        ["select", "--seed", 1 << 64, "--length", 64],
        ["keylemma", "--n", 4, "--seed", 1 << 64],
    ], ids=["lil-length", "select-length", "lil-seed-negative", "lil-seed-2^64",
            "select-seed-2^64", "keylemma-seed-2^64"])
    def test_stream_seed_and_length_domain_is_two(self, tmp_path, capsys, args):
        self.assert_exit_two(args, tmp_path, capsys, "DomainError")

    @pytest.mark.parametrize("args", [
        ["trace-refine", "--input"],
        ["extract", "--input"],
        ["extract", "--schedule-file"],
        ["lil", "--config"],
    ], ids=["trace-refine-input", "extract-input", "extract-schedule-file", "lil-config"])
    def test_unreadable_file_is_two(self, tmp_path, capsys, args):
        self.assert_exit_two([*args, tmp_path / "absent"], tmp_path, capsys)

    @pytest.mark.parametrize("args", [
        ["trace-refine", "--input"],
        ["extract", "--input"],
        ["extract", "--schedule-file"],
        ["lil", "--config"],
    ], ids=["trace-refine-input", "extract-input", "extract-schedule-file", "lil-config"])
    def test_non_text_file_is_two(self, tmp_path, capsys, args):
        path = tmp_path / "bytes"
        path.write_bytes(b"0" * 64 + b"\xff\n")  # sniffed as text by its first 64 bytes
        self.assert_exit_two([*args, path], tmp_path, capsys)

    def test_stream_input_of_two_strings_is_two(self, tmp_path, capsys):
        write_text_bits(tmp_path / "lines.txt", ["0110", "1010"])
        self.assert_exit_two(["lil", "--input", tmp_path / "lines.txt"], tmp_path, capsys)

    @pytest.mark.parametrize("args", [["--n", -1], ["--nu", "2,4", "--n", 0]],
                             ids=["sparse-n-negative", "series-n-zero"])
    def test_weber_n_below_one_is_two(self, tmp_path, capsys, args):
        self.assert_exit_two(["weber", *args], tmp_path, capsys, "DomainError")

    @pytest.mark.parametrize("text", ["0 -3 0 0\n", "0 0 3 3\n1 3 x 8\n", "0 0 3 3 x\n"],
                             ids=["start-below-zero", "non-integer-end", "non-integer-target"])
    def test_bad_schedule_file_is_two(self, tmp_path, capsys, text):
        sched = tmp_path / "sched.txt"
        sched.write_text(text)
        src = tmp_path / "x.txt"
        write_text_bits(src, ["111"])
        self.assert_exit_two(["extract", "--input", src, "--schedule-file", sched],
                             tmp_path, capsys)

    def test_five_field_schedule_line_is_two(self, tmp_path, capsys):
        # schedule text has four fields; a fifth (an output index) is refused
        text = "0 0 3 3 1\n"
        with pytest.raises(ConfigError):
            BlockSchedule.from_text(text)
        sched = tmp_path / "sched.txt"
        sched.write_text(text)
        src = tmp_path / "x.txt"
        write_text_bits(src, ["111"])
        self.assert_exit_two(["extract", "--input", src, "--schedule-file", sched],
                             tmp_path, capsys)

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_lil_non_finite_epsilon_is_two(self, tmp_path, capsys, epsilon):
        self.assert_exit_two(["lil", "--length", 64, "--epsilon", epsilon],
                             tmp_path, capsys, "DomainError")


# Values a fuzzed option may take. power:1/3 is left out, and gen-budget is
# always given (unless a schedule file replaces it), because that budget's
# 5-block schedule spans 17 million bits;
# no schedule passes 2^25 bits, which table:0 reaches at 26 blocks.
# One past each size ceiling that range(-3, 65) does not reach (weber --n,
# smallball and clt-check --n-list) must exit 3 at once; the ceilings
# themselves are left out, as smallball at n = SMALL_BALL_CEILING takes 7-14 s.
# 10^20 is past every ceiling and longer than any array; power:100/1 and
# table:10^20 are budgets past int64.
TOKENS = [*map(str, range(-3, 65)), "100000000000000", "100000000000000000000",
          "2.5", "1/2", "x",
          *(str(c + 1) for c in (WEBER_CEILING, SMALL_BALL_CEILING, CDF_GAP_CEILING)),
          "power:1/2", "power:2/3", "table:0", "table:1=2", "lil:1",
          "power:100/1", "table:100000000000000000000",
          "power:", "power:x", "table:1=", "lil:", "affine_sqrt:1", "cube:2",
          "2,4", "csv", "evens", "parity", "lnln"]
FILES = {"empty": b"", "text": b"0110100111\n", "lines": b"0110\n1010\n0011\n",
         "schedule": b"0 0 3 3\n1 3 8 8\n", "garbage": bytes(range(255, -1, -1))}


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs")
    for name, data in FILES.items():
        (path / name).write_bytes(data)
    write_packed_bits(path / "packed", bit_stream(1, 40))
    return path


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_every_command_exits_zero_two_or_three(input_dir, data):
    command = data.draw(st.sampled_from(sorted(KEYS)), label="command")
    args = [command]
    for key in KEYS[command]:
        if any(f"--{k}" in args for k, replaced in REPLACES.items() if key in replaced):
            continue  # a key and one it replaces exit 2 at once
        if key in ("input", "schedule-file"):
            token = data.draw(st.none() | st.sampled_from([*FILES, "packed", "absent"]), label=key)
            token = token and input_dir / token
        elif key == "gen-budget":
            token = data.draw(st.sampled_from(TOKENS), label=key)
        else:
            token = data.draw(st.none() | st.sampled_from(TOKENS), label=key)
        if token is not None:
            args += [f"--{key}", token]
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory(dir=input_dir) as out, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = run([*args, "--out-dir", out])
    assert code in (0, 2, 3)
    if code:
        assert {"error", "message"} <= json.loads(stderr.getvalue().splitlines()[-1]).keys()


class TestPipelines:
    def test_clt_check(self, tmp_path):
        run(["clt-check", "--n-list", "10,100", "--out-dir", tmp_path])
        doc = read_json(tmp_path / "clt_check.json")
        assert doc["within_bound"] is True
        assert (tmp_path / "clt_check.csv").read_text().splitlines()[0] == "n,gap,bound,ok"

    def test_smallball(self, tmp_path):
        run(["smallball", "--n-list", "16,64", "--out-dir", tmp_path])
        assert read_json(tmp_path / "smallball.json")["within_bound"] is True

    def test_lil_series_csv(self, tmp_path):
        run(["lil", "--seed", 4, "--length", 4096, "--out-dir", tmp_path])
        lines = (tmp_path / "lil.csv").read_text().splitlines()
        assert lines[0] == "n,statistic"
        assert len(lines) == 1 + 9  # dyadic checkpoints 16..4096

    def test_weber_modes(self, tmp_path):
        run(["weber", "--nu", "2,4,16,256", "--n", 10, "--out-dir", tmp_path / "s"])
        doc = read_json(tmp_path / "s" / "weber.json")
        assert doc["mode"] == "series"
        assert doc["p_counts"][-1] == 4
        run(["weber", "--n", 12, "--out-dir", tmp_path / "sp"])
        assert read_json(tmp_path / "sp" / "weber.json")["mode"] == "sparse"
        # a budget rate is compared as the exact integer it is, even past
        # the float range (n^100 at n = 2^19)
        assert run(["weber", "--rate", "power:100", "--n", 20, "--out-dir", tmp_path / "b"]) == 0
        assert read_json(tmp_path / "b" / "weber.json")["threshold"] == 0

    def test_weber_writes_unhit_log_rates_as_null(self, tmp_path):
        run(["weber", "--nu", "256", "--n", 10, "--out-dir", tmp_path])

        def refuse(constant):
            raise AssertionError(f"non-standard JSON constant {constant}")

        doc = json.loads((tmp_path / "weber.json").read_text(), parse_constant=refuse)
        # 256 = 2^8 lies in block 8: blocks 1-7 are unhit
        assert [r["log_rate"] for r in doc["log_rates"][:7]] == [None] * 7
        assert doc["log_rates"][7]["log_rate"] == 0.0

    def test_keylemma_writes_a_non_dyadic_threshold_as_num_den(self, tmp_path):
        run(["keylemma", "--n", 3, "--trials", 2, "--threshold", "1/3", "--out-dir", tmp_path])
        assert read_json(tmp_path / "keylemma.json")["p_threshold"] == {"num": 1, "den": 3}

    def test_report_hook_writes_nothing_but_a_fraction(self):
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            json.dumps({"x": {1}}, default=_fraction)

    def test_keylemma_without_violations_exits_zero(self, tmp_path):
        assert run(["keylemma", "--n", 5, "--trials", 10, "--seed", 1,
                    "--out-dir", tmp_path]) == 0
        doc = read_json(tmp_path / "keylemma.json")
        assert doc["violations"] == 0
        assert doc["families"][0]["rows"][0]["exact"].keys() == {"num", "den_pow2"}

    def test_select_rules(self, tmp_path, capsys):
        run(["select", "--rule", "evens", "--seed", 3, "--length", 1000,
             "--out-dir", tmp_path])
        doc = read_json(tmp_path / "select.json")
        assert doc["positions_examined"] == 500
        capsys.readouterr()
        assert run(["select", "--rule", "bogus", "--seed", 3,
                    "--out-dir", tmp_path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DomainError" and "unknown selection rule 'bogus'" in err["message"]

    @pytest.mark.parametrize("rule", ["all", "evens", "parity"])
    def test_select_empty_stream(self, tmp_path, rule):
        assert run(["select", "--rule", rule, "--length", 0, "--out-dir", tmp_path]) == 0
        assert read_json(tmp_path / "select.json")["positions_examined"] == 0

    def test_trace_refine(self, tmp_path):
        src = tmp_path / "strings.txt"
        write_text_bits(src, ["11100", "10110"])
        run(["trace-refine", "--input", src, "--out-dir", tmp_path])
        doc = read_json(tmp_path / "trace_refine.json")
        assert doc["positions"] == [0, 2]
        assert doc["constants"] == [1, 1]
