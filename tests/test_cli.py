"""CLI wiring: subcommands, config files, exit codes."""

import argparse
import dataclasses
import hashlib
import json

import numpy as np
import pytest

import isokernel.cli as cli
from isokernel.dataset import save_libsvm
from isokernel.errors import NumericError
from isokernel.eval import LEARNERS, ProtocolConfig, make_two_gaussians
from isokernel.learner import load_checkpoint

from helpers import (
    GZIP_DAMAGE,
    as_depth_first_release,
    damage_npz,
    damaged_gzip,
    rewrite_npz,
    set_npz_entry,
    unreadable_files,
)


@pytest.fixture
def data_files(tmp_path):
    train = make_two_gaussians(300, 5, 4.0, seed=1)
    test = make_two_gaussians(200, 5, 4.0, seed=2)
    train_path = tmp_path / "train.libsvm"
    test_path = tmp_path / "test.libsvm"
    save_libsvm(train, train_path)
    save_libsvm(test, test_path)
    return str(train_path), str(test_path)


def run_cli(argv):
    return cli.main(argv)


class TestFitTransformInspect:
    def test_fit_map_inspect_round_trip(self, tmp_path, data_files, capsys):
        train, _ = data_files
        map_path = str(tmp_path / "map.npz")
        assert run_cli([
            "fit-map", "--data", train, "--scheme", "anne",
            "--psi", "16", "--t", "25", "--seed", "7", "--out", map_path,
        ]) == 0
        fit_out = json.loads(capsys.readouterr().out.strip())
        assert fit_out["scheme"] == "anne"

        assert run_cli(["inspect", "--map", map_path]) == 0
        info = json.loads(capsys.readouterr().out.strip())
        assert (info["scheme"], info["psi"], info["t"], info["seed"]) == (
            "anne", 16, 25, 7,
        )
        assert info["cell_counts"]["max"] <= 16

    def test_transform_row_count_matches_points(
        self, tmp_path, data_files, capsys
    ):
        train, _ = data_files
        map_path = str(tmp_path / "map.npz")
        run_cli([
            "fit-map", "--data", train, "--scheme", "iforest",
            "--psi", "8", "--t", "10", "--seed", "3", "--out", map_path,
        ])
        capsys.readouterr()
        csv_path = str(tmp_path / "f.csv")
        assert run_cli([
            "transform", "--map", map_path, "--data", train,
            "--out", csv_path,
        ]) == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["rows"] == 300
        with open(csv_path) as fh:
            assert sum(1 for _ in fh) == 300


class TestTrain:
    def test_train_writes_checkpoint(self, tmp_path, data_files, capsys):
        train, _ = data_files
        ckpt = str(tmp_path / "model.npz")
        assert run_cli([
            "train", "--data", train, "--learner", "ik-ogd-anne",
            "--psi", "16", "--t", "20", "--seed", "5", "--out", ckpt,
        ]) == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["updates"] > 0
        kind, model, hyper = load_checkpoint(ckpt)
        assert kind == "ik-ogd-anne"
        assert model.updates == out["updates"]
        assert hyper["psi"] == 16

    def test_train_requires_single_psi(self, data_files, tmp_path):
        train, _ = data_files
        assert run_cli([
            "train", "--data", train, "--learner", "ogd",
            "--psi", "4,8", "--out", str(tmp_path / "m.npz"),
        ]) == 1


# sha256 (first 16 hex digits) of every array of a ``train`` checkpoint,
# by key, with its dtype and shape, as recorded when ``train`` ran a fit of
# its own rather than the protocols' one fit.
PINNED_CHECKPOINTS = {
    "ogd": "5f87affa2b023140",
    "ik-ogd-iforest": "e6f2ef7c5fc819a1",
    "ik-ogd-anne": "0b28d37e513c99d2",
    "nogd": "af330709a14eaf8b",
}


@pytest.mark.parametrize("learner", LEARNERS)
def test_train_checkpoint_arrays_are_pinned(tmp_path, data_files, learner):
    train, _ = data_files
    ckpt = str(tmp_path / "model.npz")
    assert run_cli([
        "train", "--data", train, "--learner", learner, "--psi", "16",
        "--t", "20", "--b", "20", "--r", "8", "--seed", "5", "--out", ckpt,
    ]) == 0
    digest = hashlib.sha256()
    with np.load(ckpt) as data:
        for key in sorted(set(data.files) - {"meta"}):
            arr = data[key]
            digest.update(f"{key}:{arr.dtype.str}:{arr.shape}".encode())
            digest.update(arr.tobytes())
    assert digest.hexdigest()[:16] == PINNED_CHECKPOINTS[learner]


class TestEvalCommands:
    def test_eval_batch_json_and_csv(self, tmp_path, data_files, capsys):
        train, test = data_files
        json_path = str(tmp_path / "m.json")
        csv_path = str(tmp_path / "m.csv")
        assert run_cli([
            "eval-batch", "--train", train, "--test", test,
            "--learner", "ik-ogd-anne", "--psi", "16", "--t", "40",
            "--seed", "9", "--out", csv_path, "--json", json_path,
        ]) == 0
        summary = json.loads(capsys.readouterr().out.strip())
        with open(json_path) as fh:
            on_disk = json.load(fh)
        assert summary == on_disk
        assert summary["final_accuracy"] >= 0.9  # wide margin on easy task
        assert summary["config"]["eta"] == 0.5  # defaults resolved
        with open(csv_path) as fh:
            assert sum(1 for _ in fh) == 2

    def test_eval_online_blocks_csv(self, tmp_path, data_files, capsys):
        train, _ = data_files
        csv_path = str(tmp_path / "blocks.csv")
        assert run_cli([
            "eval-online", "--data", train, "--learner", "ik-ogd-iforest",
            "--psi", "8", "--t", "20", "--train-size", "100",
            "--block-size", "50", "--out", csv_path,
        ]) == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["n_predictions"] == 200
        with open(csv_path) as fh:
            assert sum(1 for _ in fh) == 1 + 4

    def test_sweep_csv_rows(self, tmp_path, data_files, capsys):
        train, test = data_files
        csv_path = str(tmp_path / "sweep.csv")
        assert run_cli([
            "sweep", "--axis", "t", "--values", "5,20", "--train", train,
            "--test", test, "--learner", "ik-ogd-anne", "--psi", "8",
            "--out", csv_path,
        ]) == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert len(out["runs"]) == 2
        with open(csv_path) as fh:
            assert sum(1 for _ in fh) == 3


class TestConfigFile:
    def test_flags_override_config_file(self, tmp_path, data_files, capsys):
        train, test = data_files
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "learner = ik-ogd-anne\n"
            "t = 10\n"
            "psi = 8\n"
            "seed = 4  # comment\n"
        )
        assert run_cli([
            "eval-batch", "--train", train, "--test", test,
            "--config", str(cfg_path), "--t", "30",
        ]) == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["config"]["t"] == 30  # flag wins
        assert summary["config"]["seed"] == 4  # file value kept
        assert summary["config"]["psi_grid"] == [8]

    def test_config_file_alone_suffices(self, tmp_path, data_files, capsys):
        train, test = data_files
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("learner=nogd\npsi=8\nb=30\nr=6\n")
        assert run_cli([
            "eval-batch", "--train", train, "--test", test,
            "--config", str(cfg_path),
        ]) == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["learner"] == "nogd"

    def test_config_file_grid_spelling(self, tmp_path, data_files, capsys):
        train, test = data_files
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("learner=ik-ogd-anne\npsi_grid = 4,16\nt=20\n")
        assert run_cli([
            "eval-batch", "--train", train, "--test", test,
            "--config", str(cfg_path), "--cv-max-points", "150",
        ]) == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["config"]["psi_grid"] == [4, 16]
        assert summary["psi"] in (4, 16)

    @pytest.mark.parametrize("lines, flags, grid", [
        ("psi = 4,8\n", ["--psi", "16"], [16]),
        ("psi_grid = 4,8\n", ["--psi", "16"], [16]),
        ("psi = 4\npsi_grid = 8\n", [], [8]),
        ("psi_grid = 8\npsi = 4\n", [], [4]),
    ], ids=["flag-over-psi", "flag-over-psi-grid", "later-psi-grid",
            "later-psi"])
    def test_psi_spellings_and_flag(
        self, tmp_path, data_files, capsys, lines, flags, grid
    ):
        # --psi wins over either spelling; of both, the later line wins
        train, test = data_files
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"learner = ik-ogd-anne\nt = 5\n{lines}")
        assert run_cli([
            "eval-batch", "--train", train, "--test", test,
            "--config", str(cfg_path), "--cv-max-points", "100", *flags,
        ]) == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["config"]["psi_grid"] == grid

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "d", "--out", "o"],
        ["eval-online", "--data", "d"],
        ["eval-batch", "--train", "a", "--test", "b"],
        ["sweep", "--axis", "t", "--values", "1", "--train", "a",
         "--test", "b"],
    ], ids=lambda argv: argv[0])
    def test_every_config_field_is_a_flag_and_a_file_key(self, tmp_path, argv):
        parser = cli.build_parser()
        commands = next(action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))
        flags = {action.dest for action in commands.choices[argv[0]]._actions
                 if action.option_strings}
        fields = dataclasses.fields(ProtocolConfig)
        assert {field.name for field in fields} <= flags
        # a file that sets every field off its default reaches each one
        values = {field.name: _other_value(field) for field in fields}
        cfg_path = tmp_path / "all.cfg"
        cfg_path.write_text("".join(
            f"{name} = {text}\n" for name, (text, _) in values.items()))
        config = cli.build_protocol_config(
            parser.parse_args([*argv, "--config", str(cfg_path)]))
        for name, (_, value) in values.items():
            assert getattr(config, name) == value, name


def _other_value(field):
    """(config-file text, ProtocolConfig value) of a valid value of
    ``field`` other than its default."""
    if field.name == "learner":
        return "nogd", "nogd"
    if isinstance(field.default, bool):
        return str(not field.default).lower(), not field.default
    if isinstance(field.default, tuple):
        return "4,8", (4, 8)
    if isinstance(field.default, float):
        return "0.25", 0.25
    return "7", 7  # the integers, and the sizes that default to None


class TestExitCodes:
    def test_usage_errors(self, data_files, capsys):
        assert run_cli(["no-such-command"]) == 1
        assert run_cli(["fit-map", "--bogus"]) == 1
        train, test = data_files
        assert run_cli([
            "eval-batch", "--train", train, "--test", test,
        ]) == 1  # no learner anywhere
        err = capsys.readouterr().err
        assert "usage error" in err

    def test_data_errors(self, tmp_path, data_files, capsys):
        train, test = data_files
        assert run_cli([
            "eval-batch", "--train", "/nonexistent.libsvm", "--test", test,
            "--learner", "ogd", "--psi", "8",
        ]) == 2
        bad = tmp_path / "bad.libsvm"
        bad.write_text("+1 3:oops\n")
        assert run_cli([
            "eval-batch", "--train", str(bad), "--test", test,
            "--learner", "ogd", "--psi", "8",
        ]) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--train-size", "--cv-max-points"])
    def test_negative_size_is_a_data_error(self, data_files, capsys, flag):
        train, _ = data_files
        assert run_cli([
            "eval-online", "--data", train, "--learner", "ik-ogd-anne",
            "--psi", "8", "--t", "5", "--train-size", "100", flag, "-5",
        ]) == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("eta", ["-1", "0", "nan"])
    def test_bad_step_size_is_a_data_error(self, data_files, capsys, eta):
        train, _ = data_files
        assert run_cli([
            "eval-online", "--data", train, "--learner", "ik-ogd-anne",
            "--psi", "8", "--t", "5", "--train-size", "100", "--eta", eta,
        ]) == 2
        assert "eta must be" in capsys.readouterr().err

    def test_too_few_folds_for_a_grid_is_a_data_error(self, data_files,
                                                       capsys):
        # kfold raised "k must be >= 2", which names no flag
        train, test = data_files
        assert run_cli([
            "eval-batch", "--train", train, "--test", test,
            "--learner", "ogd", "--psi", "4,8", "--folds", "1",
        ]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "folds must be >= 2" in err

    # 300 training points in 5 folds train on 240 each; NOGD's CV checks
    # b, then r, on fold 0 before the final fit on all 300
    @pytest.mark.parametrize("b, r, message", [
        ("241", "5", "data error: cannot sample 241 landmarks from 240"),
        ("200", "201",
         "data error: rank must satisfy 1 <= r <= b, got r=201 b=200"),
    ])
    def test_nogd_cv_fit_errors_are_data_errors(self, data_files, capsys, b,
                                                r, message):
        train, test = data_files
        assert run_cli([
            "eval-batch", "--train", train, "--test", test,
            "--learner", "nogd", "--psi", "4,16", "--b", b, "--r", r,
        ]) == 2
        assert capsys.readouterr().err.strip() == message

    @pytest.mark.parametrize("line, message", [
        ("t = 1.5", "t must be an integer"),
        ("block_size = 2.5", "block_size must be an integer"),
        ("folds = x", "folds must be an integer"),
        ("normalize = 3", "normalize must be a bool"),
        ("seed = -1", "seed must be >= 0"),
        ("psi = x", "bad.cfg:5: bad psi"),
        ("psi_grid = 4.5", "bad.cfg:5: bad psi_grid"),
    ])
    def test_bad_config_value_is_a_data_error(
        self, tmp_path, data_files, capsys, line, message
    ):
        train, _ = data_files
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(
            f"learner = ik-ogd-anne\npsi = 8\nt = 5\ntrain_size = 100\n{line}\n"
        )
        assert run_cli([
            "eval-online", "--data", train, "--config", str(cfg_path),
        ]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and message in err

    def test_negative_fit_map_seed_is_a_data_error(
        self, tmp_path, data_files, capsys
    ):
        train, _ = data_files
        assert run_cli([
            "fit-map", "--data", train, "--out", str(tmp_path / "m.npz"),
            "--psi", "8", "--t", "3", "--scheme", "anne", "--seed", "-1",
        ]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "seed must be a non-negative" in err

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_input_is_a_data_error(
        self, tmp_path, data_files, capsys, token
    ):
        _, test = data_files
        bad = tmp_path / "bad.libsvm"
        bad.write_text(f"+1 1:0.5 2:1\n-1 1:{token} 2:1\n")
        for scheme in ("iforest", "anne"):
            assert run_cli([
                "fit-map", "--data", str(bad), "--out",
                str(tmp_path / "m.npz"), "--psi", "2", "--t", "3",
                "--scheme", scheme, "--seed", "1",
            ]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_index_past_int32_is_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.libsvm"
        bad.write_text("+1 1:0.5 2:1\n-1 3000000000:2\n")
        assert run_cli([
            "fit-map", "--data", str(bad), "--out", str(tmp_path / "m.npz"),
            "--psi", "2", "--t", "3", "--scheme", "iforest", "--seed", "1",
        ]) == 2
        assert "data error: line 2" in capsys.readouterr().err

    def test_non_utf8_input_is_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.libsvm"
        bad.write_bytes(b"+1 1:2\n\xff\n")
        assert run_cli([
            "fit-map", "--data", str(bad), "--out", str(tmp_path / "m.npz"),
            "--psi", "2", "--t", "2", "--scheme", "anne",
        ]) == 2
        assert "data error: line 2: line is not valid UTF-8" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("damage", GZIP_DAMAGE)
    def test_unreadable_gzip_input_is_a_data_error(
        self, tmp_path, data_files, capsys, damage
    ):
        train, _ = data_files
        with open(train, "rb") as fh:
            packed = damaged_gzip(fh.read(), damage)
        bad = tmp_path / "bad.libsvm.gz"
        bad.write_bytes(packed)
        assert run_cli([
            "fit-map", "--data", str(bad), "--out", str(tmp_path / "m.npz"),
            "--psi", "2", "--t", "2", "--scheme", "anne",
        ]) == 2
        err = capsys.readouterr().err
        assert "data error: cannot read LIBSVM file" in err and str(bad) in err

    def test_unreadable_map_is_a_data_error(self, tmp_path, data_files, capsys):
        train, _ = data_files
        map_path = str(tmp_path / "m.npz")
        assert run_cli([
            "fit-map", "--data", train, "--out", map_path, "--psi", "8",
            "--t", "3", "--scheme", "anne", "--seed", "1",
        ]) == 0
        damage_npz(map_path, drop="offsets")
        for path in [map_path, *unreadable_files(tmp_path)]:
            assert run_cli(["inspect", "--map", str(path)]) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value",
                             [("threshold", np.nan), ("feature", 10**6)])
    def test_bad_tree_arrays_are_a_data_error(self, tmp_path, data_files,
                                              capsys, key, value):
        train, _ = data_files
        map_path = str(tmp_path / "m.npz")
        assert run_cli([
            "fit-map", "--data", train, "--out", map_path, "--psi", "8",
            "--t", "3", "--scheme", "iforest", "--seed", "1",
        ]) == 0
        set_npz_entry(map_path, key, value)
        assert run_cli(["inspect", "--map", map_path]) == 2
        assert run_cli([
            "transform", "--map", map_path, "--data", train,
            "--out", str(tmp_path / "f.csv"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.count("data error: cannot read map file") == 2
        assert err.count(f"array '{key}'") == 2

    @pytest.mark.parametrize("scheme", ["iforest", "anne"])
    def test_more_cells_than_psi_is_a_data_error(self, tmp_path, data_files,
                                                 capsys, scheme):
        train, _ = data_files
        map_path = str(tmp_path / "m.npz")
        assert run_cli([
            "fit-map", "--data", train, "--out", map_path, "--psi", "16",
            "--t", "3", "--scheme", scheme, "--seed", "1",
        ]) == 0
        rewrite_npz(map_path, lambda meta, _: meta.update(psi=4))
        assert run_cli(["inspect", "--map", map_path]) == 2
        assert run_cli([
            "transform", "--map", map_path, "--data", train,
            "--out", str(tmp_path / "f.csv"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.count("data error: cannot read map file") == 2
        assert err.count("more than psi=4 cells") == 2

    def test_depth_first_format_1_map_is_a_data_error(
        self, tmp_path, data_files, capsys
    ):
        train, _ = data_files
        map_path = str(tmp_path / "m.npz")
        assert run_cli([
            "fit-map", "--data", train, "--out", map_path, "--psi", "8",
            "--t", "3", "--scheme", "iforest", "--seed", "1",
        ]) == 0
        as_depth_first_release(map_path, 1)
        assert run_cli(["inspect", "--map", map_path]) == 2
        assert run_cli([
            "transform", "--map", map_path, "--data", train,
            "--out", str(tmp_path / "f.csv"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.count("data error: unsupported map format 1") == 2

    def test_numeric_errors(self, data_files, monkeypatch, capsys):
        train, test = data_files
        monkeypatch.setattr(
            cli, "run_batch",
            lambda *a, **k: (_ for _ in ()).throw(NumericError("boom")),
        )
        assert run_cli([
            "eval-batch", "--train", train, "--test", test,
            "--learner", "ogd", "--psi", "8",
        ]) == 3
        assert "numeric error" in capsys.readouterr().err
