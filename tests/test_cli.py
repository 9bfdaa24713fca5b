"""End-to-end tests for the `bench` command, driven through main(argv)."""
from __future__ import annotations

import contextlib
import gzip
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import multiupdate

from conftest import INDEFINITE_LINES, blob_instances, instances_to_text, separable_instances
from multiupdate.cli import main
from multiupdate.engine import BoundReport


@pytest.fixture(autouse=True)
def _serial(monkeypatch):
    # Keep CLI runs single-process regardless of the ambient environment.
    monkeypatch.delenv("BENCH_THREADS", raising=False)


@pytest.fixture()
def binary_file(tmp_path):
    path = tmp_path / "bin.txt"
    path.write_text(instances_to_text(separable_instances(40, 4, 3)))
    return str(path)


@pytest.fixture()
def multi_file(tmp_path):
    path = tmp_path / "multi.txt"
    path.write_text(instances_to_text(blob_instances(45, 4, 3, 5), multiclass=True))
    return str(path)


def run_cli(*args: str) -> int:
    return main(["bench", *args])


class TestSuccess:
    def test_table_to_stdout(self, binary_file, capsys):
        rc = run_cli("--data", binary_file, "--algos", "PA,Perceptron",
                     "--m", "1,2", "--runs", "2")
        out = capsys.readouterr().out
        assert rc == 0
        assert "Mistake Rate" in out
        assert "NB of Updates" in out
        assert "Cpu Time" in out
        assert "Dataset: bin.txt (n=40, d=4, classes=2)" in out

    def test_multiclass_dataset(self, multi_file, capsys):
        rc = run_cli("--data", multi_file, "--algos", "M_PA,M_OGD",
                     "--m", "1,4", "--runs", "2")
        out = capsys.readouterr().out
        assert rc == 0
        assert "classes=3" in out
        assert "M_PA" in out and "M_OGD" in out

    def test_gzip_input(self, tmp_path, capsys):
        path = tmp_path / "bin.txt.gz"
        text = instances_to_text(separable_instances(25, 3, 1))
        with gzip.open(path, "wt") as fh:
            fh.write(text)
        rc = run_cli("--data", str(path), "--algos", "PA", "--m", "1", "--runs", "1")
        assert rc == 0
        assert "n=25" in capsys.readouterr().out

    def test_periter_mode(self, binary_file, capsys):
        rc = run_cli("--data", binary_file, "--algos", "PA", "--m", "2",
                     "--runs", "1", "--mode", "periter")
        out = capsys.readouterr().out
        assert rc == 0
        assert "mode: periter" in out

    def test_subsample_shrinks_dataset(self, binary_file, capsys):
        rc = run_cli("--data", binary_file, "--subsample", "20",
                     "--algos", "PA", "--m", "1", "--runs", "1")
        out = capsys.readouterr().out
        assert rc == 0
        assert "n=20" in out


class TestOutputFiles:
    def test_csv_out_is_deterministic(self, binary_file, tmp_path):
        args = ("--data", binary_file, "--algos", "PA,OGD", "--m", "2,1",
                "--runs", "2", "--format", "csv")
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(first)) == 0
        assert run_cli(*args, "--out", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().splitlines()
        assert lines[0] == "algorithm,m,metric,mean,std"
        # Algorithm-major, ascending m, no timing rows.
        assert lines[1].startswith("PA,1,mistake_rate,")
        assert not any("cpu" in line for line in lines)

    def test_repeated_algorithm_runs_once(self, binary_file, tmp_path):
        args = ("--data", binary_file, "--m", "1,2", "--runs", "2", "--format", "csv")
        twice, once = tmp_path / "twice.csv", tmp_path / "once.csv"
        assert run_cli(*args, "--algos", "PA1,PA1", "--out", str(twice)) == 0
        assert run_cli(*args, "--algos", "PA1", "--out", str(once)) == 0
        assert twice.read_bytes() == once.read_bytes()

    def test_table_out_file(self, binary_file, tmp_path, capsys):
        out = tmp_path / "report.txt"
        rc = run_cli("--data", binary_file, "--algos", "PA", "--m", "1",
                     "--runs", "1", "--out", str(out))
        assert rc == 0
        assert "Mistake Rate" in out.read_text()
        assert capsys.readouterr().out == ""

    def test_trace_row_per_cycle(self, binary_file, tmp_path):
        trace = tmp_path / "trace.jsonl"
        rc = run_cli("--data", binary_file, "--algos", "PA,OGD", "--m", "1,2",
                     "--runs", "2", "--trace", str(trace),
                     "--out", str(tmp_path / "table.txt"))
        assert rc == 0
        lines = trace.read_text().splitlines()
        # 40 instances x 4 (algorithm, m) cells x 2 runs.
        assert len(lines) == 40 * 4 * 2
        row = json.loads(lines[0])
        assert {"algorithm", "m", "run", "instance", "mistake", "updates",
                "sum_delta_sq", "w_star_norm", "w0_norm"} <= set(row)

    def test_out_into_missing_directory_exits_1_before_the_sweep(
            self, binary_file, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr("multiupdate.cli.run_benchmark",
                            lambda *a, **k: calls.append(1))
        rc = run_cli("--data", binary_file, "--algos", "PA", "--m", "1", "--runs", "1",
                     "--out", str(tmp_path / "missing-dir" / "x.csv"))
        captured = capsys.readouterr()
        assert rc == 1
        assert calls == []
        assert captured.err.startswith("error: cannot write ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""

    def test_out_file_is_replaced_only_by_a_finished_report(self, binary_file, tmp_path,
                                                            capsys):
        out = tmp_path / "report.csv"
        old = "an older, longer report\n" * 20
        out.write_text(old)
        fresh = tmp_path / "fresh.csv"
        common = ("--data", binary_file, "--m", "1", "--runs", "1", "--format", "csv")
        assert run_cli(*common, "--algos", "Foo", "--out", str(out)) == 1
        assert out.read_text() == old
        assert run_cli(*common, "--algos", "PA", "--out", str(out)) == 0
        assert run_cli(*common, "--algos", "PA", "--out", str(fresh)) == 0
        assert out.read_bytes() == fresh.read_bytes()

    def test_out_to_the_null_device_exits_0(self, binary_file, capsys):
        rc = run_cli("--data", binary_file, "--algos", "PA", "--m", "1", "--runs", "1",
                     "--format", "csv", "--out", os.devnull)
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == "" and captured.out == ""

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_out_into_a_pipe_writes_the_report(self, binary_file, tmp_path, capsys):
        # A pipe cannot be emptied: the report is written to it as it is.
        fifo, plain = tmp_path / "report.fifo", tmp_path / "plain.csv"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
        reader.start()
        common = ("--data", binary_file, "--algos", "PA", "--m", "1,2", "--runs", "1",
                  "--format", "csv")
        try:
            rc = run_cli(*common, "--out", str(fifo))
        finally:
            # a reader still waiting to open the pipe, if the command never
            # opened it, gets end of file; one that has it open loses nothing
            with contextlib.suppress(OSError):
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=30)
        assert not reader.is_alive()
        assert rc == 0
        assert capsys.readouterr().err == ""
        assert run_cli(*common, "--out", str(plain)) == 0
        assert received == [plain.read_bytes()]

    @pytest.mark.parametrize("bad, message", [
        (("--algos", "NOPE"), "error: unknown algorithm 'NOPE'"),
        (("--m", "1,0"), "error: --m values must be >= 1, got 0\n"),
        (("--algos", "M_PA"), "error: algorithm 'M_PA' does not match"),
        (("--runs", "0"), "error: --runs must be >= 1\n"),
        (("--runs", "2", "--seed", str(2 ** 64 - 1)), "error: --seed must fit"),
    ], ids=["unknown-algorithm", "m-zero", "label-space", "runs-zero", "last-seed-wraps"])
    def test_usage_error_leaves_out_and_trace_untouched(self, binary_file, tmp_path,
                                                        monkeypatch, capsys, bad, message):
        calls = []
        monkeypatch.setattr("multiupdate.cli.run_benchmark",
                            lambda *a, **k: calls.append(1))
        out, trace = tmp_path / "report.csv", tmp_path / "t.jsonl"
        out.write_bytes(b"an older report\n")
        trace.write_bytes(b"keep\n")
        rc = run_cli("--data", binary_file, "--algos", "PA", "--m", "1", "--runs", "1",
                     *bad, "--out", str(out), "--trace", str(trace))
        captured = capsys.readouterr()
        assert rc == 1
        assert calls == []
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert out.read_bytes() == b"an older report\n"
        assert trace.read_bytes() == b"keep\n"

    @pytest.mark.parametrize("source", ["env", "config"])
    def test_settings_error_leaves_out_and_trace_untouched(self, binary_file, tmp_path,
                                                           monkeypatch, capsys, source):
        # BENCH_THREADS and a config file's keys are checked with the other
        # settings, before either output file is opened
        out, trace = tmp_path / "report.csv", tmp_path / "t.jsonl"
        out.write_bytes(b"an older report\n")
        trace.write_bytes(b"keep\n")
        extra = ()
        if source == "env":
            monkeypatch.setenv("BENCH_THREADS", "abc")
            message = "error: BENCH_THREADS must be an integer, got 'abc'\n"
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"config": "other.json"}))
            extra = ("--config", str(cfg))
            message = f"error: config file {cfg}: unknown option 'config'\n"
        rc = run_cli("--data", binary_file, "--algos", "PA", "--m", "1", "--runs", "2",
                     *extra, "--out", str(out), "--trace", str(trace))
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == message
        assert captured.out == ""
        assert out.read_bytes() == b"an older report\n"
        assert trace.read_bytes() == b"keep\n"

    def test_trace_into_missing_directory_exits_1(self, binary_file, tmp_path, capsys):
        out = tmp_path / "table.txt"
        rc = run_cli("--data", binary_file, "--algos", "PA", "--m", "1", "--runs", "1",
                     "--trace", str(tmp_path / "missing-dir" / "t.jsonl"), "--out", str(out))
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: cannot write ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not (tmp_path / "missing-dir").exists()

    @pytest.mark.parametrize("alias", ["same-path", "symlink"])
    def test_out_and_trace_on_one_file_exits_1(self, binary_file, tmp_path, capsys, alias):
        report = tmp_path / "report.csv"
        report.write_bytes(b"an older report\n")
        trace = report
        if alias == "symlink":
            trace = tmp_path / "link.jsonl"
            trace.symlink_to(report)
        rc = run_cli("--data", binary_file, "--algos", "PA", "--m", "1", "--runs", "1",
                     "--out", str(report), "--trace", str(trace))
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: --out and --trace name the same file {report}\n"
        assert "Traceback" not in captured.err
        assert report.read_bytes() == b"an older report\n"

    def test_set_override_changes_results(self, binary_file, tmp_path):
        base, tweaked = tmp_path / "base.csv", tmp_path / "tweaked.csv"
        args = ("--data", binary_file, "--algos", "PA1", "--m", "1",
                "--runs", "2", "--format", "csv")
        assert run_cli(*args, "--out", str(base)) == 0
        assert run_cli(*args, "--set", "C=0.001", "--out", str(tweaked)) == 0
        assert base.read_text() != tweaked.read_text()


class TestConfigFile:
    def test_config_supplies_defaults(self, binary_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"algos": "PA", "m": "1", "runs": 3, "set": {"C": 0.5}}))
        rc = run_cli("--data", binary_file, "--config", str(cfg))
        out = capsys.readouterr().out
        assert rc == 0
        assert "runs: 3" in out

    def test_explicit_flag_beats_config(self, binary_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algos": "PA", "m": "1", "runs": 5}))
        rc = run_cli("--data", binary_file, "--config", str(cfg), "--runs", "2")
        out = capsys.readouterr().out
        assert rc == 0
        assert "runs: 2" in out

    def test_cli_set_beats_config_set(self, binary_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"set": {"C": 0.001}}))
        shared = ("--data", binary_file, "--algos", "PA1", "--m", "1",
                  "--runs", "2", "--format", "csv")
        merged, plain = tmp_path / "merged.csv", tmp_path / "plain.csv"
        assert run_cli(*shared, "--config", str(cfg), "--set", "C=0.25",
                       "--out", str(merged)) == 0
        assert run_cli(*shared, "--set", "C=0.25", "--out", str(plain)) == 0
        assert merged.read_text() == plain.read_text()

    def test_unknown_config_key(self, binary_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        rc = run_cli("--data", binary_file, "--config", str(cfg))
        assert rc == 1
        assert "unknown option" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, message", [
        ({"runs": "abc"}, "option 'runs': 'abc' is not a valid integer"),
        ({"algos": 5}, "unknown algorithm '5'"),
        ({"runs": 2.7}, "option 'runs': 2.7 is not a valid integer"),
        ({"seed": True}, "option 'seed': True is not a valid integer"),
        ({"m": None}, "option 'm': null is not a valid value"),
        ({"seed": None}, "option 'seed': null is not a valid value"),
        ({"config": "other.json"}, "unknown option 'config'"),
    ])
    def test_config_value_of_wrong_type(self, binary_file, tmp_path, capsys, entry, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        rc = run_cli("--data", binary_file, "--config", str(cfg))
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("error:") == 1 and message in err
        assert "Traceback" not in err

    def test_config_integral_float_is_an_integer(self, binary_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"runs": 2.0}))
        rc = run_cli("--data", binary_file, "--config", str(cfg), "--algos", "PA", "--m", "1")
        assert rc == 0
        assert "runs: 2" in capsys.readouterr().out

    def test_config_flag_takes_bool_type(self, binary_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"audit_theorem1": "no"}))
        rc = run_cli("--data", binary_file, "--config", str(cfg),
                     "--algos", "PA", "--m", "1", "--runs", "1")
        assert rc == 0
        assert "norm-bound audit" not in capsys.readouterr().err

    def test_config_not_json(self, binary_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json {")
        rc = run_cli("--data", binary_file, "--config", str(cfg))
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_algorithm(self, binary_file, capsys):
        rc = run_cli("--data", binary_file, "--algos", "Foo", "--runs", "1")
        assert rc == 1
        assert "unknown algorithm" in capsys.readouterr().err

    def test_label_space_mismatch(self, binary_file, capsys):
        rc = run_cli("--data", binary_file, "--algos", "M_PA", "--runs", "1")
        assert rc == 1
        assert "label space" in capsys.readouterr().err

    def test_missing_data_file(self, tmp_path, capsys):
        rc = run_cli("--data", str(tmp_path / "nope.txt"), "--runs", "1")
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_data_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("+1 1:notanumber\n")
        rc = run_cli("--data", str(bad), "--runs", "1")
        assert rc == 2

    def test_non_finite_value_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "nan.txt"
        bad.write_text("+1 1:nan 2:1\n-1 1:1 2:-1\n")
        rc = run_cli("--data", str(bad), "--algos", "PA1,CW", "--m", "1", "--runs", "1")
        captured = capsys.readouterr()
        assert rc == 2
        assert "error: nan.txt:1: non-finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("index", ["99999999999999999999", "100000000000"],
                             ids=["beyond-int64", "beyond-memory"])
    def test_index_too_large_exits_2(self, tmp_path, capsys, index):
        # the first overflowed int64, the second parsed and then failed to
        # allocate the dense model; both now stop in the parser
        bad = tmp_path / "big.txt"
        bad.write_text(f"-1 1:1\n+1 {index}:1\n")
        rc = run_cli("--data", str(bad), "--algos", "PA1", "--m", "1", "--runs", "1")
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == (f"error: big.txt:2: index {index} exceeds the largest"
                                " supported index 2147483647\n")
        assert captured.out == ""

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_degenerate_covariance_exits_4(self, tmp_path, monkeypatch, capsys, threads,
                                           indefinite_m_cw):
        # M_CW starting from an indefinite Sigma stops on its first step; the
        # typed error must reach the exit code from a pool worker too
        path = tmp_path / "indefinite.txt"
        path.write_text(INDEFINITE_LINES)
        monkeypatch.setenv("BENCH_THREADS", threads)
        rc = run_cli("--data", str(path), "--algos", "M_CW", "--m", "1,4,16",
                     "--runs", "2", "--format", "csv")
        err = capsys.readouterr().err.splitlines()
        assert rc == 4
        assert len(err) == 1
        assert err[0].startswith("error: M_CW m=1 run=0: ")
        assert "positive definiteness" in err[0]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_sweep_keeps_the_report_and_the_streamed_trace(
            self, tmp_path, monkeypatch, capsys, threads, indefinite_m_cw):
        # the report is written at the end, so a failed sweep leaves the old
        # one; the trace is a streamed log, so it holds the rows of every
        # cell before the failing one: all of M_PA's, none of M_CW's
        path = tmp_path / "indefinite.txt"
        path.write_text(INDEFINITE_LINES)
        out, trace, alone = tmp_path / "report.csv", tmp_path / "t.jsonl", tmp_path / "pa.jsonl"
        out.write_bytes(b"an older report\n")
        trace.write_bytes(b"keep\n")
        monkeypatch.setenv("BENCH_THREADS", threads)
        common = ("--data", str(path), "--m", "1,4,16", "--runs", "2", "--format", "csv")
        rc = run_cli(*common, "--algos", "M_PA,M_CW", "--out", str(out), "--trace", str(trace))
        err = capsys.readouterr().err
        assert rc == 4
        assert err.startswith("error: M_CW m=1 run=0: ") and err.count("\n") == 1
        assert out.read_bytes() == b"an older report\n"
        assert run_cli(*common, "--algos", "M_PA", "--trace", str(alone)) == 0
        assert trace.read_bytes() == alone.read_bytes()
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(rows) == 3 * 2 * 6
        assert {row["algorithm"] for row in rows} == {"M_PA"}

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_rounding_level_negative_confidence_exits_0(self, tmp_path, monkeypatch, capsys,
                                                         threads):
        # heavily overlapping blobs drive x^T Sigma x of the shared-covariance
        # kinds to about -2e-22 at m=4; that cycle is passive, not an error
        path = tmp_path / "overlap.txt"
        path.write_text(instances_to_text(blob_instances(200, 19, 7, seed=6, spread=0.2),
                                          multiclass=True))
        monkeypatch.setenv("BENCH_THREADS", threads)
        rc = run_cli("--data", str(path), "--algos", "M_CW,M_SCW1,M_SCW2", "--m", "1,4,16",
                     "--runs", "2", "--format", "csv")
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        assert len(captured.out.splitlines()) == 1 + 3 * 3 * 2  # header + 2 metrics per cell

    def test_bad_m_list(self, binary_file):
        assert run_cli("--data", binary_file, "--m", "1,two", "--runs", "1") == 1
        assert run_cli("--data", binary_file, "--m", ",", "--runs", "1") == 1

    def test_nonpositive_m(self, binary_file, capsys):
        rc = run_cli("--data", binary_file, "--algos", "PA", "--m", "0",
                     "--runs", "1")
        assert rc == 1

    def test_bad_runs(self, binary_file):
        assert run_cli("--data", binary_file, "--algos", "PA", "--m", "1",
                       "--runs", "0") == 1

    def test_bad_seed(self, binary_file, tmp_path, capsys):
        assert run_cli("--data", binary_file, "--algos", "PA", "--m", "1",
                       "--runs", "1", "--seed=-1") == 1
        # run 1 would permute with seed 2**64, which wraps to run 0's seed 0;
        # that fails before the (missing) data is read
        assert run_cli("--data", str(tmp_path / "nope.txt"), "--algos", "PA", "--m", "1",
                       "--runs", "2", "--seed", str(2 ** 64 - 1)) == 1
        assert capsys.readouterr().err.startswith("error: --seed must fit")
        assert run_cli("--data", binary_file, "--algos", "PA", "--m", "1",
                       "--runs", "1", "--seed", str(2 ** 64 - 1)) == 0

    def test_bad_set_value(self, binary_file, capsys):
        rc = run_cli("--data", binary_file, "--set", "C=-1", "--runs", "1")
        assert rc == 1
        assert "must be > 0" in capsys.readouterr().err

    def test_infinite_set_value(self, binary_file, capsys):
        rc = run_cli("--data", binary_file, "--set", "eta0=inf", "--runs", "1")
        assert rc == 1
        assert "eta0 must be > 0 and finite" in capsys.readouterr().err

    def test_unknown_set_name(self, binary_file, capsys):
        rc = run_cli("--data", binary_file, "--set", "zeta=1", "--runs", "1")
        assert rc == 1
        assert "unknown hyperparameter" in capsys.readouterr().err

    def test_malformed_set_pair(self, binary_file, capsys):
        assert run_cli("--data", binary_file, "--set", "C", "--runs", "1") == 1
        assert run_cli("--data", binary_file, "--set", "C=abc", "--runs", "1") == 1

    def test_subsample_too_large(self, binary_file, capsys):
        rc = run_cli("--data", binary_file, "--subsample", "999", "--runs", "1")
        assert rc == 2

    def test_subsample_below_the_class_count(self, tmp_path, capsys):
        path = tmp_path / "three.txt"
        path.write_text("1 1:1\n2 1:-1\n3 2:1\n1 1:0.8\n2 1:-0.7\n3 2:0.9\n")
        rc = run_cli("--data", str(path), "--subsample", "2", "--algos", "M_PA",
                     "--m", "1", "--runs", "1")
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "error: subsample size 2 cannot keep all 3 classes\n"
        assert captured.out == ""

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_model_that_cannot_be_allocated_exits_2(self, binary_file, monkeypatch, capsys,
                                                    threads):
        # the factory's MemoryError must become one error line, also when it
        # happens in a forked pool worker
        def oversized(*args):
            raise MemoryError()

        monkeypatch.setattr("multiupdate.engine.make_binary", oversized)
        monkeypatch.setattr("multiupdate.bench._usable_cpus", lambda: 2)
        monkeypatch.setenv("BENCH_THREADS", threads)
        rc = run_cli("--data", binary_file, "--algos", "PA1", "--m", "1,2", "--runs", "2")
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "error: PA1: a model of dimension 4 cannot be allocated\n"
        assert captured.out == ""

    @pytest.mark.parametrize("kind", ["PA1", "SOP"])
    def test_largest_index_under_a_memory_limit_exits_2(self, tmp_path, kind):
        # d = 2**31 - 1 parses, but its 16 GiB vector (and SOP's d x d matrix)
        # cannot be allocated; the 4 GiB address-space limit keeps the attempt
        # from touching the machine's memory
        resource = pytest.importorskip("resource")
        path = tmp_path / "huge.txt"
        path.write_text("+1 2147483647:1\n-1 1:1\n")

        def limit():
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            cap = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
            resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

        env = dict(os.environ, PYTHONPATH=str(Path(multiupdate.__file__).parents[1]))
        env.pop("BENCH_THREADS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "multiupdate.cli", "bench", "--data", str(path),
             "--algos", kind, "--m", "1", "--runs", "1"],
            capture_output=True, text=True, env=env, preexec_fn=limit, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == (f"error: {kind}: a model of dimension 2147483647"
                               " cannot be allocated\n")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("value", ["abc", "1.5", ""], ids=["word", "float", "empty"])
    def test_non_integer_bench_threads(self, binary_file, monkeypatch, capsys, value):
        monkeypatch.setenv("BENCH_THREADS", value)
        rc = run_cli("--data", binary_file, "--algos", "PA1", "--m", "1", "--runs", "2")
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: BENCH_THREADS must be an integer, got {value!r}\n"
        assert captured.out == ""

    def test_bench_threads_checked_before_the_data_is_read(self, tmp_path, monkeypatch,
                                                           capsys):
        calls = []
        monkeypatch.setattr("multiupdate.cli.load_dataset", lambda *a: calls.append(a))
        monkeypatch.setenv("BENCH_THREADS", "abc")
        rc = run_cli("--data", str(tmp_path / "nope.txt"), "--m", "1", "--runs", "2")
        assert rc == 1
        assert calls == []
        assert capsys.readouterr().err == "error: BENCH_THREADS must be an integer, got 'abc'\n"

    def test_usage_errors_from_click(self, binary_file, capsys):
        assert main(["bench"]) == 1                       # missing --data
        assert run_cli("--data", binary_file, "--format", "junk") == 1
        assert run_cli("--data", binary_file, "--mode", "sideways") == 1
        err = capsys.readouterr().err
        assert "Error" in err or "error" in err


class TestAudit:
    def test_audit_pass_reports_slack(self, binary_file, capsys):
        rc = run_cli("--data", binary_file, "--algos", "PA,AROW", "--m", "1,2",
                     "--runs", "2", "--audit-theorem1")
        captured = capsys.readouterr()
        assert rc == 0
        assert "norm-bound audit:" in captured.err
        assert "min slack" in captured.err

    def test_audit_failure_exits_3(self, binary_file, monkeypatch, capsys):
        def broken(trace, m):
            return BoundReport(trace, min_slack=-4.0, failures=[(0, 5.0, 1.0)])

        monkeypatch.setattr("multiupdate.bench.check_norm_bound", broken)
        rc = run_cli("--data", binary_file, "--algos", "PA", "--m", "1",
                     "--runs", "1", "--audit-theorem1")
        captured = capsys.readouterr()
        assert rc == 3
        assert "norm-bound audit FAILED" in captured.err
        assert "error:" in captured.err


class TestVerbose:
    def test_verbose_logs_fingerprints(self, binary_file, capsys):
        rc = run_cli("--data", binary_file, "--algos", "PA", "--m", "1",
                     "--runs", "1", "--verbose")
        captured = capsys.readouterr()
        assert rc == 0
        assert "permutation fingerprint" in captured.err

    def test_quiet_by_default(self, binary_file, capsys):
        rc = run_cli("--data", binary_file, "--algos", "PA", "--m", "1",
                     "--runs", "1")
        captured = capsys.readouterr()
        assert rc == 0
        assert "fingerprint" not in captured.err
