import gc
import hashlib
import json
import warnings

import pytest

from hamext.bits import read_packed_bits, write_packed_bits, write_text_bits
from hamext.cli import main
from hamext.rng import bit_stream


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
        run(["extract", "--seed", 3, "--blocks", 2, "--format", "csv",
             "--out-dir", tmp_path])
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
         "7ba1936d58e156c07b19e6184b91d9aba3ae033dad636cf2fbdb437d19821352"),
        (["keylemma", "--n", 8, "--trials", 200, "--seed", 0], "keylemma.json",
         "0d15b7ac2144a45911a1e909bca4983f747b9874fa0549efe01e5734902502a4"),
        (["keylemma", "--n", 12, "--trials", 200, "--seed", 0], "keylemma.json",
         "3c89f3a924ab58a7576596bb4d2aa92c84fb3a774f890495e2e88834a6a2e3cd"),
        (["weber"], "weber.json",
         "88e4b0fe5552ede9e2627f8a081a603fa4d275f986d53ea30634af359278dbb4"),
        (["clt-check"], "clt_check.json",
         "94b62b9852820741f19e278f1cdf943ed8a52c090418b72c887879bf6e7b4138"),
        (["smallball"], "smallball.json",
         "30d4ffc00886d4f503081f4eb4945346a5d29d47178788ebad6a26464a5ef51b"),
        (["harper", "--n", 4], "harper.json",
         "809a5d87c54c0a2a4f613d222658c63e1e7b58f0229f3995e2a570ebb33a79d1"),
    ], ids=["keylemma-n4", "keylemma-n8", "keylemma-n12", "weber-default",
            "clt-check-default", "smallball-default", "harper-n4"])
    def test_pinned_report_digests(self, tmp_path, args, name, digest):
        assert run([*args, "--out-dir", tmp_path]) == 0
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_reports_embed_config_and_version(self, tmp_path):
        run(["harper", "--n", 2, "--out-dir", tmp_path])
        doc = read_json(tmp_path / "harper.json")
        assert doc["artifact_version"]
        assert doc["config"]["n"] == "2"


class TestConfigFile:
    def test_config_with_cli_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 2\nseed = 7   # comment\n")
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

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just words\n")
        assert run(["harper", "--config", cfg, "--out-dir", tmp_path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"


class TestExitCodes:
    def test_resource_ceiling_is_three(self, tmp_path, capsys):
        assert run(["harper", "--n", 6, "--out-dir", tmp_path]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "resource"

    def test_contract_violation_is_two(self, tmp_path, capsys):
        assert run(["smallball", "--budget", "power:-1", "--out-dir", tmp_path]) == 2
        assert json.loads(capsys.readouterr().err)["message"]

    def test_missing_input_is_two(self, tmp_path, capsys):
        assert run(["trace-refine", "--out-dir", tmp_path]) == 2

    def assert_exit_two(self, args, tmp_path, capsys, error="ConfigError"):
        assert run([*args, "--out-dir", tmp_path]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == error

    @pytest.mark.parametrize("nu", ["1.5,2", "a", "2,,4"])
    def test_malformed_weber_nu_is_two(self, tmp_path, capsys, nu):
        self.assert_exit_two(["weber", "--nu", nu], tmp_path, capsys)

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

    @pytest.mark.parametrize("args", [["--n", -1], ["--nu", "2,4", "--n", 0]],
                             ids=["sparse-n-negative", "series-n-zero"])
    def test_weber_n_below_one_is_two(self, tmp_path, capsys, args):
        self.assert_exit_two(["weber", *args], tmp_path, capsys, "DomainError")


class TestPipelines:
    def test_clt_check(self, tmp_path):
        run(["clt-check", "--n-list", "10,100", "--format", "csv", "--out-dir", tmp_path])
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

    def test_keylemma_violations_exit(self, tmp_path):
        assert run(["keylemma", "--n", 5, "--trials", 10, "--seed", 1,
                    "--out-dir", tmp_path]) == 0
        doc = read_json(tmp_path / "keylemma.json")
        assert doc["violations"] == 0
        assert doc["families"][0]["rows"][0]["exact"].keys() == {"num", "den_pow2"}

    def test_select_rules(self, tmp_path):
        run(["select", "--rule", "evens", "--seed", 3, "--length", 1000,
             "--out-dir", tmp_path])
        doc = read_json(tmp_path / "select.json")
        assert doc["positions_examined"] == 500
        assert run(["select", "--rule", "bogus", "--seed", 3,
                    "--out-dir", tmp_path]) == 2

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
