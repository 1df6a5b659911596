"""CLI wiring: subcommands, config files, exit codes."""

import json

import numpy as np
import pytest

import isokernel.cli as cli
from isokernel.dataset import save_libsvm
from isokernel.errors import NumericError
from isokernel.eval import make_two_gaussians
from isokernel.learner import load_checkpoint

from helpers import damage_npz, unreadable_files


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
        on_disk = json.loads(open(json_path).read())
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

    def test_unreadable_map_is_a_data_error(self, tmp_path, data_files, capsys):
        train, _ = data_files
        map_path = str(tmp_path / "m.npz")
        assert run_cli([
            "fit-map", "--data", train, "--out", map_path, "--psi", "8",
            "--t", "3", "--scheme", "anne", "--seed", "1",
        ]) == 0
        damage_npz(map_path, drop="part1_offsets")
        for path in [map_path, *unreadable_files(tmp_path)]:
            assert run_cli(["inspect", "--map", str(path)]) == 2
        assert "data error" in capsys.readouterr().err

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
