import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaids import cli, errors, ingest, synth
from gaids.cli import EXIT_CONFIG, EXIT_OK, main
from gaids.ingest import read_records
from gaids.model import load_model
from gaids.synth import generate_lines

from conftest import REAL_LINES
from test_ingest import fuzzed_file
from test_model import model_files

# README's exit codes for a data error and a model error.
EXIT_PARSE, EXIT_MODEL = 3, 4


@pytest.fixture
def workspace(tmp_path):
    train = tmp_path / "train.kdd"
    test = tmp_path / "test.kdd"
    train.write_text("\n".join(generate_lines(3, 40, 0.5, 0.02, seed=1)) + "\n")
    test.write_text("\n".join(generate_lines(3, 15, 0.5, 0.02, seed=2)) + "\n")
    return tmp_path, train, test


def several_blocks(tmp_path):
    """A test file of 120 records: four detection blocks against the
    workspace's model, so that --workers above 1 forks."""
    test = tmp_path / "blocks.kdd"
    test.write_text("\n".join(generate_lines(3, 40, 0.5, 0.02, seed=2)) + "\n")
    return test


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynthCommand:
    def test_writes_shape_valid_lines(self, tmp_path, capsys):
        out = tmp_path / "synth.kdd"
        code, stdout, _ = run_cli(
            capsys, "synth", "--clusters", "5", "--points-per-cluster", "100",
            "--output", str(out),
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 500
        assert all(len(line.split(",")) == 42 for line in lines)
        assert "wrote 500 records" in stdout

    def test_roundtrips_through_ingest(self, tmp_path, capsys):
        out = tmp_path / "synth.kdd"
        run_cli(capsys, "synth", "--output", str(out), "--points-per-cluster", "20")
        records, skipped = read_records(out.read_text().splitlines())
        assert skipped == 0
        assert len(records) == 100

    def test_invalid_params_exit_config(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "synth", "--clusters", "5", "--separation", "2.0",
            "--output", str(tmp_path / "x.kdd"),
        )
        assert code == EXIT_CONFIG
        assert "error:" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--separation", "nan"), ("--separation", "inf"), ("--noise-sigma", "nan"),
         ("--noise-sigma", "inf")],
    )
    def test_non_finite_params_exit_config(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.kdd"
        code, stdout, err = run_cli(capsys, "synth", flag, value, "--output", str(out))
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err.startswith("error: ") and "finite non-negative" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag", [["--workers", "0"], ["--config", "run.conf"], ["--test-file", "x.kdd"]]
    )
    def test_shared_flags_are_usage_errors(self, tmp_path, capsys, flag):
        # synth reads only its own flags and --seed.
        out = tmp_path / "x.kdd"
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--output", str(out), *flag])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_separation_centers_coincide(self):
        centers = synth.make_centers(2, 0.0)
        assert np.array_equal(centers[0], centers[1])

    def test_separation_guarantee(self):
        centers = synth.make_centers(5, 0.5)
        for i in range(5):
            for j in range(i + 1, 5):
                d = np.sqrt(((centers[i] - centers[j]) ** 2).sum() / centers.shape[1])
                assert d >= 0.5 - 1e-12


class TestTrainCommand:
    def test_trains_and_reports(self, workspace, capsys):
        tmp, train, _ = workspace
        model_path = tmp / "m.model"
        code, stdout, _ = run_cli(
            capsys, "train", "--train-file", str(train), "--model", str(model_path),
        )
        assert code == EXIT_OK
        assert model_path.exists()
        assert "groups=3" in stdout
        assert "total=120" in stdout
        m = load_model(model_path)
        assert m.training_size == 120

    def test_single_record_training_file(self, tmp_path, capsys):
        train = tmp_path / "one.kdd"
        train.write_text(REAL_LINES[0] + "\n")
        model_path = tmp_path / "m.model"
        code, stdout, _ = run_cli(
            capsys, "train", "--train-file", str(train), "--model", str(model_path),
        )
        assert code == EXIT_OK
        m = load_model(model_path)
        assert len(m.groups) == 1
        assert m.groups[0].chromosomes[0].member_count == 1
        assert "chromosomes=1" in stdout

    def test_deterministic_model_files(self, workspace, capsys):
        tmp, train, _ = workspace
        p1, p2 = tmp / "m1.model", tmp / "m2.model"
        run_cli(capsys, "train", "--train-file", str(train), "--model", str(p1))
        run_cli(capsys, "train", "--train-file", str(train), "--model", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_file_exit_config(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "train", "--train-file", str(tmp_path / "nope.kdd"),
            "--model", str(tmp_path / "m.model"),
        )
        assert code == EXIT_CONFIG

    def test_unwritable_model_out_exit_config(self, workspace, capsys):
        tmp, train, _ = workspace
        code, _, err = run_cli(
            capsys, "train", "--train-file", str(train),
            "--model", str(tmp / "no-such-dir" / "m.model"),
        )
        assert code == EXIT_CONFIG
        assert err.startswith("error: ")
        # train writes to --model; there is no second flag for the path.
        with pytest.raises(SystemExit) as exc:
            main(["train", "--train-file", str(train), "--model-out", str(tmp / "m.model")])
        assert exc.value.code == EXIT_CONFIG

    def test_malformed_strict_exit_parse(self, tmp_path, capsys):
        bad = tmp_path / "bad.kdd"
        bad.write_text(REAL_LINES[0] + "\n1,2,3\n")
        code, _, err = run_cli(
            capsys, "train", "--train-file", str(bad), "--model", str(tmp_path / "m.model"),
        )
        assert code == EXIT_PARSE
        assert "bad.kdd:2" in err

    def test_missing_model_reported_before_reading(self, tmp_path, capsys):
        # A usage error wins over the training file's faults, which are
        # never reached: the file is not read.
        bad = tmp_path / "bad.kdd"
        bad.write_text(REAL_LINES[0] + "\n1,2,3\n")
        code, out, err = run_cli(capsys, "train", "--train-file", str(bad))
        assert code == EXIT_CONFIG
        assert out == ""
        assert "--model" in err

    @pytest.mark.parametrize("where", ["directory", "missing-directory"])
    def test_unusable_model_path_reported_before_reading(self, tmp_path, capsys, monkeypatch, where):
        # A --model that cannot be written is a usage error too: it wins over
        # a malformed training file, and training never starts.
        bad = tmp_path / "bad.kdd"
        bad.write_text(REAL_LINES[0] + "\n1,2,3\n")
        if where == "directory":
            model_path, fault = tmp_path, "is a directory"
        else:
            model_path, fault = tmp_path / "no-such-dir" / "m.model", "directory not found"

        def load_file(*args, **kwargs):
            raise AssertionError("the training file was read")

        monkeypatch.setattr(ingest, "load_file", load_file)
        code, out, err = run_cli(
            capsys, "train", "--train-file", str(bad), "--model", str(model_path),
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == f"error: --model {fault}: {model_path}\n"

    def test_unknown_name_strict_names_the_fault(self, tmp_path, capsys):
        train = tmp_path / "u.kdd"
        unknown = REAL_LINES[0].rsplit(",", 1)[0] + ",zerg_rush."
        train.write_text("\n".join(REAL_LINES + [unknown]) + "\n")
        code, out, err = run_cli(
            capsys, "train", "--train-file", str(train), "--model", str(tmp_path / "m.model"),
        )
        assert code == EXIT_PARSE
        assert out == ""
        assert err == (
            f"error: {train}:4: unknown attack name 'zerg_rush';"
            " --lenient maps it to category 'normal'\n"
        )

    def test_workers_below_one_exit_config(self, workspace, capsys):
        # train runs no search, but checks --workers as detect and evaluate do.
        tmp, train, _ = workspace
        model_path = tmp / "m.model"
        code, out, err = run_cli(
            capsys, "train", "--train-file", str(train), "--model", str(model_path), "--workers", "0",
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert "workers must be >= 1" in err
        assert not model_path.exists()

    def test_malformed_lenient_skips(self, tmp_path, capsys):
        bad = tmp_path / "bad.kdd"
        bad.write_text(REAL_LINES[0] + "\n1,2,3\n" + REAL_LINES[2] + "\n")
        code, stdout, _ = run_cli(
            capsys, "train", "--lenient", "--train-file", str(bad),
            "--model", str(tmp_path / "m.model"),
        )
        assert code == EXIT_OK
        assert "skipped=1" in stdout
        assert "groups=2" in stdout


    @pytest.mark.parametrize("label", ["foo bar.", "n\u00e9rmal."])
    def test_label_not_one_ascii_token_strict_exit_parse(self, tmp_path, capsys, label):
        bad = tmp_path / "bad.kdd"
        bad.write_text(REAL_LINES[0] + "\n" + REAL_LINES[2].rsplit(",", 1)[0] + "," + label + "\n")
        code, _, err = run_cli(
            capsys, "train", "--train-file", str(bad), "--model", str(tmp_path / "m.model"),
        )
        assert code == EXIT_PARSE
        assert "bad.kdd:2: label" in err

    @pytest.mark.parametrize("label", ["foo bar.", "n\u00e9rmal."])
    def test_label_not_one_ascii_token_lenient_skips(self, tmp_path, capsys, label):
        # The skipped line never reaches the model file, which stores a
        # label as one space-separated ASCII token.
        bad = tmp_path / "bad.kdd"
        bad.write_text(REAL_LINES[0] + "\n" + REAL_LINES[2].rsplit(",", 1)[0] + "," + label + "\n")
        model_path = tmp_path / "m.model"
        code, stdout, _ = run_cli(
            capsys, "train", "--lenient", "--train-file", str(bad), "--model", str(model_path),
        )
        assert code == EXIT_OK
        assert "skipped=1" in stdout
        assert "groups=1" in stdout
        code, stdout, _ = run_cli(
            capsys, "detect", "--model", str(model_path), "--test-file", str(bad), "--lenient",
        )
        assert code == EXIT_OK
        assert len(stdout.splitlines()) == 1


class TestDetectCommand:
    def test_rows_and_determinism(self, workspace, capsys):
        tmp, train, test = workspace
        model_path = tmp / "m.model"
        run_cli(capsys, "train", "--train-file", str(train), "--model", str(model_path))
        argv = ["detect", "--model", str(model_path), "--test-file", str(test), "--seed", "9"]
        code, out1, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        rows = out1.strip().splitlines()
        assert len(rows) == 45
        first = rows[0].split(",")
        assert first[0] == "0"
        assert first[1] in ("normal", "smurf", "nmap")
        assert first[2] in ("normal", "dos", "probe")
        int(first[4])
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_parallel_rows_identical(self, workspace, capsys):
        tmp, train, _ = workspace
        test = several_blocks(tmp)
        model_path = tmp / "m.model"
        run_cli(capsys, "train", "--train-file", str(train), "--model", str(model_path))
        base = ["detect", "--model", str(model_path), "--test-file", str(test)]
        _, serial, _ = run_cli(capsys, *base, "--workers", "1")
        _, parallel, _ = run_cli(capsys, *base, "--workers", "3")
        assert serial == parallel

    def test_unlabeled_input_accepted(self, workspace, capsys):
        tmp, train, test = workspace
        model_path = tmp / "m.model"
        run_cli(capsys, "train", "--train-file", str(train), "--model", str(model_path))
        unlabeled = tmp / "unlabeled.kdd"
        unlabeled.write_text(
            "\n".join(",".join(line.split(",")[:-1]) for line in test.read_text().splitlines())
            + "\n"
        )
        code, stdout, _ = run_cli(
            capsys, "detect", "--model", str(model_path), "--test-file", str(unlabeled),
        )
        assert code == EXIT_OK
        assert len(stdout.strip().splitlines()) == 45

    def test_empty_input_empty_output(self, workspace, capsys):
        tmp, train, _ = workspace
        model_path = tmp / "m.model"
        run_cli(capsys, "train", "--train-file", str(train), "--model", str(model_path))
        empty = tmp / "empty.kdd"
        empty.write_text("")
        code, stdout, _ = run_cli(
            capsys, "detect", "--model", str(model_path), "--test-file", str(empty),
        )
        assert code == EXIT_OK
        assert stdout == ""

    def test_centroid_record_degenerate_params(self, tmp_path, capsys):
        train = tmp_path / "train.kdd"
        train.write_text(REAL_LINES[0] + "\n" + REAL_LINES[2] + "\n")
        model_path = tmp_path / "m.model"
        run_cli(capsys, "train", "--train-file", str(train), "--model", str(model_path))
        code, stdout, _ = run_cli(
            capsys, "detect", "--model", str(model_path), "--test-file", str(train),
            "--population-size", "1", "--mutation-rate", "0", "--crossover-rate", "0",
        )
        assert code == EXIT_OK
        rows = [r.split(",") for r in stdout.strip().splitlines()]
        assert rows[0][1] == "normal" and rows[0][3] == "0.0"
        assert rows[1][1] == "smurf" and rows[1][3] == "0.0"

    @pytest.mark.parametrize("population", ["1000000000000", "30000000000000000", "4611686018427387904"])
    @pytest.mark.parametrize("command", ["detect", "evaluate"])
    def test_population_beyond_memory_exit_config(self, workspace, capsys, command, population):
        # 10^12 candidates need a 309 TiB tape, more than a 64-bit process
        # can even address, so the allocation fails at once and touches no
        # memory. The two larger sizes give a tape whose byte count, or one
        # of its dimensions, does not even fit in a signed 64-bit size.
        tmp, train, test = workspace
        model_path = tmp / "m.model"
        run_cli(capsys, "train", "--train-file", str(train), "--model", str(model_path))
        code, out, err = run_cli(
            capsys, command, "--model", str(model_path), "--test-file", str(test),
            "--population-size", population,
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("error: out of memory: ")

    def test_bad_model_exit_model(self, workspace, capsys):
        tmp, _, test = workspace
        junk = tmp / "junk.model"
        junk.write_text("gaids-model 42 0.125 0 38\n")
        code, _, err = run_cli(
            capsys, "detect", "--model", str(junk), "--test-file", str(test),
        )
        assert code == EXIT_MODEL

    @pytest.mark.parametrize("command", ["detect", "evaluate"])
    def test_missing_test_file_reported_before_model(self, tmp_path, capsys, command):
        # The corrupt model is never loaded: the missing --test-file is a
        # usage error, reported first.
        junk = tmp_path / "junk.model"
        junk.write_text("gaids-model 42 0.125 0 38\n")
        code, out, err = run_cli(capsys, command, "--model", str(junk))
        assert code == EXIT_CONFIG
        assert out == ""
        assert "--test-file" in err

    @pytest.mark.parametrize("command", ["detect", "evaluate"])
    def test_model_without_chromosomes_exit_model(self, tmp_path, capsys, command):
        # Exit 4 even when there is nothing to detect.
        empty_model = tmp_path / "empty.model"
        empty_model.write_text("gaids-model 1 0.125 0 38\n" + "0.0 " * 37 + "0.0\n" + "1.0 " * 37 + "1.0\n")
        empty_test = tmp_path / "empty.kdd"
        empty_test.write_text("")
        code, out, err = run_cli(
            capsys, command, "--model", str(empty_model), "--test-file", str(empty_test)
        )
        assert code == EXIT_MODEL
        assert out == ""
        assert err == "error: model holds no chromosomes\n"

    @pytest.mark.parametrize("command", ["detect", "evaluate"])
    def test_model_feature_count_exit_model(self, workspace, capsys, command):
        # A self-consistent model over 3 features: records have 38.
        tmp, _, test = workspace
        small = tmp / "small.model"
        small.write_text(
            "gaids-model 1 0.125 2 3\n"
            "normal normal 1 0.0 0.1 0.2 0.3\n"
            "smurf dos 1 0.0 0.5 0.5 0.5\n"
            "0.0 0.0 0.0\n"
            "1.0 1.0 1.0\n"
        )
        code, out, err = run_cli(capsys, command, "--model", str(small), "--test-file", str(test))
        assert code == EXIT_MODEL
        assert out == ""
        assert err == "error: model has 3 features per row, records have 38\n"


class TestEvaluateCommand:
    def test_reports_and_parallel_equivalence(self, workspace, capsys):
        tmp, train, _ = workspace
        test = several_blocks(tmp)
        model_path = tmp / "m.model"
        run_cli(capsys, "train", "--train-file", str(train), "--model", str(model_path))
        base = ["evaluate", "--model", str(model_path), "--test-file", str(test), "--seed", "5"]
        code, table1, _ = run_cli(capsys, *base, "--workers", "1")
        assert code == EXIT_OK
        assert "Confusion matrix" in table1
        assert "detection_rate=" in table1
        _, table2, _ = run_cli(capsys, *base, "--workers", "4")
        assert table1 == table2

    def test_self_evaluation_full_recall_with_zero_range(self, workspace, capsys):
        # Range 0: every distinct training record seeds its own chromosome, so
        # re-detecting the training file with the degenerate search must land
        # every record on its own zero-distance prototype.
        tmp, train, _ = workspace
        model_path = tmp / "m.model"
        run_cli(capsys, "train", "--train-file", str(train), "--model", str(model_path), "--range", "0")
        code, stdout, _ = run_cli(
            capsys, "evaluate", "--model", str(model_path), "--test-file", str(train),
            "--population-size", "1", "--mutation-rate", "0", "--crossover-rate", "0",
            "--report", "kv",
        )
        assert code == EXIT_OK
        cells = {}
        for line in stdout.splitlines():
            if line.startswith("cell,"):
                _, actual, predicted, count = line.split(",")
                cells[(actual, predicted)] = int(count)
        for (actual, predicted), count in cells.items():
            if count:
                assert actual == predicted
        assert sum(cells.values()) == 120

    def test_kv_report_selected(self, workspace, capsys):
        tmp, train, test = workspace
        model_path = tmp / "m.model"
        run_cli(capsys, "train", "--train-file", str(train), "--model", str(model_path))
        code, stdout, _ = run_cli(
            capsys, "evaluate", "--model", str(model_path), "--test-file", str(test),
            "--report", "kv",
        )
        assert code == EXIT_OK
        assert stdout.startswith("cell,normal,normal,")
        assert "true_positive=" in stdout


    @pytest.mark.parametrize(
        "row, col, value, message",
        [
            (1, 1, b"bogus", "unknown category"),
            (1, 2, b"0", "below 1"),
            (1, 3, b"nan", "spread"),
            (1, 3, b"-1.0", "spread"),
            (1, 3, b"inf", "spread"),
            (1, 4, b"nan", "non-finite"),
            (-2, 0, b"-inf", "non-finite"),
            (-1, 5, b"nan", "non-finite"),
            (1, 0, b"n\xffrmal", "ASCII"),
            (-2, 0, b"0.9", "minimum exceeds maximum"),
            (2, 0, b"normal", "listed under"),
            (1, 1, b"dos", "training gives it 'normal'"),
            (1, 4, b"1.5", "[0,1]"),
            (3, 7, b"-0.25", "[0,1]"),
            (0, 2, b"nan", "merge range"),
            (0, 2, b"inf", "merge range"),
            (0, 2, b"-1.0", "merge range"),
        ],
    )
    def test_corrupt_model_exit_model(self, workspace, capsys, row, col, value, message):
        # Each row of a trained model file corrupted in one token.
        tmp, train, test = workspace
        model_path = tmp / "m.model"
        run_cli(capsys, "train", "--train-file", str(train), "--model", str(model_path))
        lines = [ln.split(b" ") for ln in model_path.read_bytes().splitlines()]
        lines[row][col] = value
        model_path.write_bytes(b"\n".join(b" ".join(ln) for ln in lines) + b"\n")
        code, _, err = run_cli(
            capsys, "evaluate", "--model", str(model_path), "--test-file", str(test),
        )
        assert code == EXIT_MODEL
        assert err.startswith("error: ")
        assert message in err


class TestConfigFile:
    def test_config_value_applies(self, workspace, capsys):
        tmp, train, test = workspace
        model_path = tmp / "m.model"
        run_cli(capsys, "train", "--train-file", str(train), "--model", str(model_path))
        config = tmp / "run.conf"
        config.write_text(
            f"model={model_path}\ntest-file={test}\npopulation-size=1\n"
            "mutation-rate=0\ncrossover-rate=0\n# comment line\n"
        )
        code, stdout, _ = run_cli(capsys, "detect", "--config", str(config))
        assert code == EXIT_OK
        # population 1 with no variation stops after a single generation
        assert all(row.split(",")[4] == "1" for row in stdout.strip().splitlines())

    def test_cli_overrides_config(self, workspace, capsys):
        tmp, train, test = workspace
        model_path = tmp / "m.model"
        run_cli(capsys, "train", "--train-file", str(train), "--model", str(model_path))
        config = tmp / "run.conf"
        config.write_text(f"model={model_path}\ntest-file={test}\npopulation-size=1\n")
        code, stdout, _ = run_cli(
            capsys, "detect", "--config", str(config), "--population-size", "32",
        )
        assert code == EXIT_OK
        assert all(row.split(",")[4] == "13" for row in stdout.strip().splitlines())

    def test_unknown_key_exit_config(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("warp-speed=9\n")
        code, _, err = run_cli(capsys, "detect", "--config", str(config))
        assert code == EXIT_CONFIG
        assert "unknown key" in err

    def test_bad_value_exit_config(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("population-size=lots\n")
        code, _, _ = run_cli(capsys, "detect", "--config", str(config))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, source, key, value",
        [
            ("train", "flag", "removal-fraction", "1.5"),
            ("train", "flag", "range", "nan"),
            ("train", "config", "range", "nan"),
            ("train", "flag", "range", "inf"),
            ("evaluate", "flag", "mutation-sigma", "nan"),
            ("evaluate", "config", "mutation-sigma", "nan"),
            ("detect", "flag", "mutation-sigma", "inf"),
            ("detect", "config", "range", "-inf"),
        ],
    )
    def test_invalid_ga_params_exit_config(self, workspace, capsys, command, source, key, value):
        tmp, train, test = workspace
        model_path = tmp / "m.model"
        code, _, _ = run_cli(capsys, "train", "--train-file", str(train), "--model", str(model_path))
        assert code == EXIT_OK
        files = ["--train-file", str(train), "--model", str(model_path), "--test-file", str(test)]
        if source == "flag":
            setting = [f"--{key}", value]
        else:
            config = tmp / "run.conf"
            config.write_text(f"{key}={value}\n")
            setting = ["--config", str(config)]
        code, out, err = run_cli(capsys, command, *files, *setting)
        assert code == EXIT_CONFIG
        assert out == ""
        assert f"{key.replace('-', '_')} must be" in err

    def test_non_ascii_config_exit_config(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_bytes(b"seed=\xff\n")
        code, _, err = run_cli(capsys, "detect", "--config", str(config))
        assert code == EXIT_CONFIG
        assert err.startswith("error: ")
        assert "not an ASCII file" in err

    @pytest.mark.parametrize("command", ["detect", "evaluate"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_config(self, workspace, capsys, command, workers):
        tmp, train, test = workspace
        model_path = tmp / "m.model"
        code, _, _ = run_cli(capsys, "train", "--train-file", str(train), "--model", str(model_path))
        assert code == EXIT_OK
        code, out, err = run_cli(
            capsys, command, "--model", str(model_path), "--test-file", str(test),
            "--workers", workers,
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert "workers must be >= 1" in err


# -- fuzzed model and data files through the whole CLI ---------------------------

FUZZ_TOKENS = [
    "foo bar.", "normal. ", "n\u00e9rmal.", "nan", "inf", "-1", "1e308", "-1e308", "1e999",
    "", "0", "2", "x", "normal", "dos", "smurf.", "gaids-model",
]

# One edit: (operation, unit, line index, token index or splice point, new token).
# Indices wrap around, so every drawn edit applies to any file.
fuzz_edits = st.lists(
    st.tuples(
        st.sampled_from(["replace", "drop", "duplicate", "splice"]),
        st.sampled_from(["token", "line"]),
        st.integers(0, 200),
        st.integers(0, 200),
        st.sampled_from(FUZZ_TOKENS),
    ),
    min_size=1,
    max_size=3,
)


def mutate(text, sep, edits):
    """text with each edit applied to its lines, or to the sep-separated
    tokens of one line."""
    lines = text.splitlines()
    for op, unit, i, j, new in edits:
        if not lines:
            lines = [""]
        i %= len(lines)
        if unit == "line":
            if op == "replace":
                lines[i] = new
            elif op == "drop":
                del lines[i]
            elif op == "duplicate":
                lines.insert(i, lines[i])
            else:  # the head of line i joined to the tail of the next line
                other = lines[(i + 1) % len(lines)]
                lines[i] = lines[i][: j % (len(lines[i]) + 1)] + other[j % (len(other) + 1):]
        else:
            tokens = lines[i].split(sep)
            j %= len(tokens)
            if op == "replace":
                tokens[j] = new
            elif op == "drop":
                del tokens[j]
            elif op == "duplicate":
                tokens.insert(j, tokens[j])
            else:  # token j fused with its right neighbour
                tokens[j : j + 2] = ["".join(tokens[j : j + 2])]
            lines[i] = sep.join(tokens)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    data = tmp / "data.kdd"
    data.write_text("\n".join(generate_lines(2, 3, 0.5, 0.02, seed=4)) + "\n")
    model_path = tmp / "base.model"
    assert quiet_main("train", "--train-file", str(data), "--model", str(model_path)) == EXIT_OK
    return tmp, data, model_path


def captured_main(*argv):
    """(exit code, stdout, stderr) of cli.main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def quiet_main(*argv):
    """cli.main with its printed output discarded; returns the exit code."""
    return captured_main(*argv)[0]


def checked_detect(model_path, test_file):
    """The exit code of `gaids detect`; when it is 0, each printed row's
    survivor fitness, its fourth field, must read as a finite float. Only
    that field is read: a fuzzed label can be the token `nan`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["detect", "--model", str(model_path), "--test-file", str(test_file)])
    if code == EXIT_OK:
        for row in out.getvalue().splitlines():
            assert math.isfinite(float(row.split(",")[3])), row
    return code


@settings(max_examples=150, deadline=None, derandomize=True)
@given(target=st.sampled_from(["data", "model"]), edits=fuzz_edits)
# The label of the first data line becomes two tokens, or a non-ASCII one;
# each once broke the model file a lenient train wrote.
@example(target="data", edits=[("replace", "token", 0, 41, "foo bar.")])
@example(target="data", edits=[("replace", "token", 0, 41, "n\u00e9rmal.")])
# Two finite training values whose difference overflows to inf.
@example(
    target="data",
    edits=[("replace", "token", 0, 5, "1e308"), ("replace", "token", 1, 5, "-1e308")],
)
def test_fuzzed_files_exit_with_documented_codes(fuzz_files, target, edits):
    tmp, data, model_path = fuzz_files
    documented = {EXIT_OK, EXIT_CONFIG, EXIT_PARSE, EXIT_MODEL}
    if target == "model":
        bad_model = tmp / "fuzzed.model"
        bad_model.write_text(mutate(model_path.read_text(), " ", edits), encoding="utf-8")
        assert checked_detect(bad_model, data) in documented
        assert quiet_main("evaluate", "--model", str(bad_model), "--test-file", str(data)) in documented
        return

    bad_data = tmp / "fuzzed.kdd"
    bad_data.write_text(mutate(data.read_text(), ",", edits), encoding="utf-8")
    assert checked_detect(model_path, bad_data) in documented
    assert quiet_main("evaluate", "--model", str(model_path), "--test-file", str(bad_data)) in documented
    for mode in ("--strict", "--lenient"):
        trained = tmp / "trained.model"
        trained.unlink(missing_ok=True)
        code = quiet_main("train", mode, "--train-file", str(bad_data), "--model", str(trained))
        assert code in documented
        if code == EXIT_OK:
            # Whatever training accepts, detection accepts as a model.
            assert checked_detect(trained, data) == EXIT_OK


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=model_files(), lines=fuzzed_file(), mode=st.sampled_from(["--strict", "--lenient"]),
       workers=st.sampled_from(["1", "2"]))
def test_generated_files_exit_with_documented_codes(fuzz_files, case, lines, mode, workers):
    # The well-formed model files of test_model_files_load_as_canonical and
    # the data lines of test_parser_matches_reference (fields dropped or
    # repeated, numbers from 0 to 1e308 and subnormals, labels with and
    # without their trailing period) through train, detect and evaluate:
    # each exits with a documented code and no traceback, and no survivor
    # fitness is nan.
    tmp = fuzz_files[0]
    data, generated, trained = tmp / "generated.kdd", tmp / "generated.model", tmp / "trained.model"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    generated.write_text(case[0])
    documented = {EXIT_OK, EXIT_CONFIG, EXIT_PARSE, EXIT_MODEL}
    models = [generated]
    for train_mode in ("--strict", "--lenient"):
        trained.unlink(missing_ok=True)
        code, _, err = captured_main("train", train_mode, "--train-file", data, "--model", trained,
                                     "--workers", workers)
        assert code in documented and "Traceback" not in err, err
    if code == EXIT_OK:  # the lenient model; a strict run that trains writes the same
        models.append(trained)
    for model_path in models:
        for command in ("detect", "evaluate"):
            code, out, err = captured_main(command, mode, "--model", model_path, "--test-file", data,
                                           "--workers", workers)
            assert code in documented and "Traceback" not in err, err
            if command == "detect" and code == EXIT_OK:
                for row in out.splitlines():
                    assert not math.isnan(float(row.split(",")[3])), row


# -- shared settings drawn at random through the whole CLI --------------------

# Setting -> (valid texts, invalid texts). --workers stays at most 2 and
# --population-size at most 64, so no example starts many processes or
# allocates much memory.
SETTING_TEXTS = {
    "range": (["0", "0.125", "0.3", "1e308"], ["-1", "nan", "inf", "-inf", "x", "1e309"]),
    "crossover-rate": (["0", "0.5", "1", "-0"], ["1.5", "-0.1", "nan", "x"]),
    "mutation-rate": (["0", "0.35", "1"], ["2", "-1", "inf", "x"]),
    "population-size": (["1", "8", "64", "1_0"], ["0", "-3", "1.5", "x", "1e3"]),
    "removal-fraction": (["0.25", "0.75"], ["0", "1", "1.5", "nan", "x"]),
    "max-generations": (["1", "64", "99999999999999999999"], ["0", "-2", "x"]),
    "mutation-sigma": (["0", "0.05", "1", "1e308"], ["-0.5", "nan", "inf", "x"]),
    "seed": (["0", "7", str(2**64 - 1), "1_0"], [str(2**64), "-1", "x", "0x10"]),
    "workers": (["1", "2"], ["0", "-1", "x"]),
    "report": (["table", "kv"], ["html", "TABLE", ""]),
    "strict": (["true", "false"], ["maybe", "2"]),
}


@st.composite
def shared_settings(draw):
    """1-3 distinct settings as (name, text, valid, source); source is "flag"
    or "config". strict's flags are --strict/--lenient, so a bad strict text
    can only come from a config file."""
    settings = []
    for name in draw(st.lists(st.sampled_from(sorted(SETTING_TEXTS)), min_size=1, max_size=3, unique=True)):
        valid = draw(st.booleans())
        text = draw(st.sampled_from(SETTING_TEXTS[name][0 if valid else 1]))
        source = "config" if name == "strict" and not valid else draw(st.sampled_from(["flag", "config"]))
        settings.append((name, text, valid, source))
    return settings


def run_with_settings(tmp, argv, settings, shadow=False):
    """(exit code, stdout, stderr) of cli.main with each setting given as a
    flag or a config key. With shadow, the config file also sets every
    flag-set setting to another valid text, which the flag must override."""
    argv, lines = list(argv), []
    for name, text, _, source in settings:
        if source == "config":
            lines.append(f"{name}={text}")
            continue
        argv.append(f"--{name}={text}" if name != "strict" else
                    "--strict" if text == "true" else "--lenient")
        if shadow:
            lines.append(f"{name}={next(t for t in SETTING_TEXTS[name][0] if t != text)}")
    if lines:
        config = tmp / "settings.conf"
        config.write_text("\n".join(lines) + "\n")
        argv += ["--config", str(config)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(settings=shared_settings())
@example(settings=[("seed", str(2**64), False, "flag")])
@example(settings=[("report", "html", False, "config"), ("workers", "2", True, "flag")])
@example(settings=[("report", "kv", True, "flag"), ("population-size", "64", True, "config")])
# Texts at the bounds: the largest finite float, -0, a count past 64 bits,
# underscores (int() reads them), and an exponent or hex prefix int() rejects.
@example(settings=[("range", "1e308", True, "config"), ("max-generations", "99999999999999999999", True, "flag"), ("seed", "1_0", True, "config")])
@example(settings=[("crossover-rate", "-0", True, "flag"), ("mutation-sigma", "1e308", True, "config"), ("population-size", "1_0", True, "flag")])
@example(settings=[("range", "1e309", False, "flag")])
@example(settings=[("population-size", "1e3", False, "config")])
@example(settings=[("seed", "0x10", False, "config")])
def test_shared_settings_exit_codes_and_sources(fuzz_files, settings):
    tmp, data, model_path = fuzz_files
    expected = EXIT_OK if all(valid for _, _, valid, _ in settings) else EXIT_CONFIG
    swapped = [
        (name, text, valid, "flag" if source == "config" and (valid or name != "strict") else "config")
        for name, text, valid, source in settings
    ]
    for command in ("detect", "evaluate"):
        argv = [command, "--model", str(model_path), "--test-file", str(data)]
        code, out, err = run_with_settings(tmp, argv, settings)
        assert code == expected, err
        assert "Traceback" not in err
        if code == EXIT_CONFIG:
            assert out == ""
            assert err.startswith(("error: ", "usage:"))
        # A text gives the same run from either source, and a flag wins
        # over the config file.
        assert run_with_settings(tmp, argv, swapped)[:2] == (code, out)
        assert run_with_settings(tmp, argv, settings, shadow=True)[:2] == (code, out)


@pytest.mark.parametrize("command", ["detect", "evaluate"])
def test_help_lists_report_choices(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == EXIT_OK
    assert "--report {table,kv}" in capsys.readouterr().out


# -- the console entry point, `cli.run`, in a fresh interpreter --------------

SRC = Path(__file__).resolve().parent.parent / "src"


def gaids_process(*argv, **popen):
    """`gaids argv...` through cli.run in a fresh interpreter on this source
    tree, with stdout block-buffered as it is in a console script's default
    environment."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    script = "import sys; from gaids.cli import run; sys.argv[0] = 'gaids'; run()"
    return subprocess.Popen([sys.executable, "-c", script, *argv], env=env, **popen)


@pytest.fixture
def trained(workspace, capsys):
    tmp, train, test = workspace
    model_path = tmp / "m.model"
    assert run_cli(capsys, "train", "--train-file", str(train), "--model", str(model_path))[0] == EXIT_OK
    return model_path, test


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_failed_write_exits_config(trained):
    # The report fits stdout's buffer, so nothing is written before the
    # final flush, which a full device fails.
    model_path, test = trained
    with open("/dev/full", "w") as full:
        proc = gaids_process(
            "evaluate", "--model", str(model_path), "--test-file", str(test), "--report", "kv",
            stdout=full, stderr=subprocess.PIPE, text=True,
        )
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == EXIT_CONFIG
    assert err.startswith("error: ") and "No space left on device" in err
    assert "Exception ignored" not in err


def test_closed_pipe_exits_ok_quietly(trained):
    # As `gaids detect ... | head -0`: the reader is gone before any write.
    model_path, test = trained
    with gaids_process(
        "detect", "--model", str(model_path), "--test-file", str(test),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == EXIT_OK
    assert err == ""


def test_every_row_reaches_a_file(trained, tmp_path):
    # run() ends the process without the interpreter's teardown: the rows
    # still in stdout's buffer (8 KB) at the end are written first.
    model_path, _ = trained
    test = tmp_path / "many.kdd"
    test.write_text("\n".join(generate_lines(3, 200, 0.5, 0.02, seed=3)) + "\n")
    out_path = tmp_path / "rows"
    with open(out_path, "w") as out:
        proc = gaids_process(
            "detect", "--model", str(model_path), "--test-file", str(test),
            stdout=out, stderr=subprocess.PIPE, text=True,
        )
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == EXIT_OK, err
    rows = out_path.read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == [str(i) for i in range(600)]
    assert out_path.stat().st_size > 8192


def test_lenient_warnings_reach_stderr(tmp_path):
    train = tmp_path / "train.kdd"
    unknown = REAL_LINES[0].rsplit(",", 1)[0] + ",zerg_rush."
    train.write_text("\n".join(REAL_LINES + [unknown, unknown]) + "\n")
    proc = gaids_process(
        "train", "--train-file", str(train), "--model", str(tmp_path / "m.model"), "--lenient",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == EXIT_OK
    assert "unknown attack name 'zerg_rush' on 2 line(s)" in err
    assert err == (
        f"WARNING {train}: unknown attack name 'zerg_rush' on 2 line(s), assigned category 'normal'\n"
    )
    assert "chromosomes=" in out


def test_parse_and_model_errors_exit_through_the_entry_point(trained, tmp_path):
    model_path, test = trained
    bad_train = tmp_path / "bad.kdd"
    bad_train.write_text("1,2,3\n")
    bad_model = tmp_path / "bad.model"
    bad_model.write_text("hello world\n")
    for argv, code in [
        (["train", "--train-file", str(bad_train), "--model", str(tmp_path / "x.model")], EXIT_PARSE),
        (["detect", "--model", str(bad_model), "--test-file", str(test)], EXIT_MODEL),
    ]:
        proc = gaids_process(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == code
        assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("count, code", [(2**63 - 1, EXIT_OK), (2**63, EXIT_MODEL), (10**30, EXIT_MODEL)])
def test_member_count_past_int64_exits_model(trained, tmp_path, count, code):
    # Member counts are held as int64; a larger count, with the header's
    # training size to match, is a model error and not a crash.
    _, test = trained
    zeros, ones = " ".join(["0.0"] * ingest.NUM_FEATURES), " ".join(["1.0"] * ingest.NUM_FEATURES)
    model_path = tmp_path / "big.model"
    model_path.write_text(
        f"gaids-model 1 0.125 {count} {ingest.NUM_FEATURES}\nnormal normal {count} 0.0 {zeros}\n{zeros}\n{ones}\n"
    )
    proc = gaids_process(
        "evaluate", "--model", str(model_path), "--test-file", str(test),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == code, err
    assert "Traceback" not in err
    if code == EXIT_MODEL:
        assert err == f"error: member count {count} does not fit in 64 bits\n"


# Each error class and the exit code README documents for it.
DOCUMENTED_EXIT_CODES = {
    errors.GaidsError: EXIT_CONFIG,
    errors.ConfigError: EXIT_CONFIG,
    errors.MalformedRecord: EXIT_PARSE,
    errors.NonNumericFeature: EXIT_PARSE,
    errors.UnknownLabel: EXIT_PARSE,
    errors.EmptyDataset: EXIT_PARSE,
    errors.ModelFormatError: EXIT_MODEL,
    errors.ModelVersionMismatch: EXIT_MODEL,
    errors.EmptyModel: EXIT_MODEL,
}


def test_every_error_class_has_a_documented_exit_code():
    classes = {v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, errors.GaidsError)}
    assert classes == set(DOCUMENTED_EXIT_CODES)


@pytest.mark.parametrize(
    "error, code",
    [*DOCUMENTED_EXIT_CODES.items(), (OSError, EXIT_CONFIG), (ChildProcessError, EXIT_CONFIG),
     (MemoryError, EXIT_CONFIG)],
    ids=lambda value: value.__name__ if isinstance(value, type) else str(value),
)
def test_error_exits_main_with_its_documented_code(monkeypatch, capsys, error, code):
    def stub(args):
        raise error("stub failure")

    monkeypatch.setattr(cli, "cmd_detect", stub)
    assert main(["detect"]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.endswith("stub failure\n")


def test_help_exits_ok_through_the_entry_point():
    proc = gaids_process("evaluate", "--help", stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == EXIT_OK
    assert out.startswith("usage: gaids evaluate") and "--report {table,kv}" in out
    assert err == ""


def test_import_loads_no_pools_reporting_or_synth():
    # Every command pays for what `import gaids.cli` loads; the pool
    # machinery, the reports and the generator load only where they run,
    # a fork-join imports no pool machinery either, and nothing loads the
    # logging framework.
    heavy = ["concurrent.futures", "multiprocessing", "gaids.metrics", "gaids.synth", "logging", "numpy.random"]
    probe = (
        "import sys, gaids.cli; from gaids import parallel; "
        "assert parallel.map_tasks(len, ['ab', 'abc'], 2) == [2, 3]; "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def numpy_random_imports(*argv):
    """The `| numpy.random` lines `python -X importtime` writes for `gaids
    argv...` run through cli.run with two CPUs available: one for each
    process that imports it, forked workers included."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    script = (
        "import sys; from gaids import parallel; parallel.available_cpus = lambda: 2; "
        "from gaids.cli import run; sys.argv[0] = 'gaids'; run()"
    )
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", script, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    return [line for line in proc.stderr.splitlines() if line.split("|")[-1].strip() == "numpy.random"]


@pytest.mark.parametrize("command, imports", [("train", 0), ("evaluate", 1)])
def test_numpy_random_loads_once_and_only_to_detect(trained, command, imports):
    # numpy.random loads at the first draw. `gaids train` never draws, and
    # run_batch loads it before its workers fork, so that each does not
    # import it again.
    model_path, test = trained
    blocks = several_blocks(test.parent)
    argv = (["train", "--train-file", blocks, "--model", test.parent / "again.model"] if command == "train"
            else ["evaluate", "--model", model_path, "--test-file", blocks])
    assert len(numpy_random_imports(*argv, "--workers", "2")) == imports


@pytest.mark.parametrize("setting", [None, "2"])
def test_blas_runs_one_thread_unless_the_environment_says(setting):
    # --workers is the only parallelism: importing the CLI starts no BLAS
    # thread, and an explicit OPENBLAS_NUM_THREADS is left as it is.
    probe = (
        "import os, gaids.cli; "
        "status = open('/proc/self/status').read() if os.path.exists('/proc/self/status') else ''; "
        "threads = [line.split()[1] for line in status.splitlines() if line.startswith('Threads:')]; "
        "print(os.environ['OPENBLAS_NUM_THREADS'], threads)"
    )
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    value, threads = out.stdout.split(" ", 1)
    assert value == (setting or "1")
    if setting is None:
        assert threads.strip() in ("[]", "['1']")
