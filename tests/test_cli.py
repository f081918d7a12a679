"""Tests for the command-line interface (cheap paths only)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.data import HCTDataset


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--out", "x.json.gz", "--trajectories", "5"])
        assert args.trajectories == 5

    def test_generate_has_no_workers_flag(self):
        """Generation has one realization; ``train`` keeps ``--workers``."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["generate", "--out", "x.json.gz", "--workers", "2"])
        args = build_parser().parse_args(
            ["train", "--data", "x.json.gz", "--out", "m/",
             "--workers", "2"])
        assert args.workers == 2

    def test_tables_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables", "--scale", "galactic"])

    def test_stream_args(self):
        args = build_parser().parse_args(
            ["stream", "--data", "x.json.gz", "--model", "m/",
             "--tick-s", "600", "--max-sessions", "32", "--scramble", "4"])
        assert args.tick_s == 600.0
        assert args.max_sessions == 32
        assert args.scramble == 4
        assert args.checkpoint_dir is None


class TestGenerate:
    def test_generate_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "data.json.gz"
        code = main(["generate", "--out", str(out), "--trajectories", "4",
                     "--seed", "3"])
        assert code == 0
        dataset = HCTDataset.load(out)
        assert len(dataset) == 4
        assert "wrote 4" in capsys.readouterr().out


class TestVerify:
    @staticmethod
    def _model_dir(tmp_path):
        from repro.io import atomic_write_json, write_manifest
        directory = tmp_path / "model"
        directory.mkdir()
        atomic_write_json(directory / "state.json", {"normalizer": {}})
        write_manifest(directory, ["state.json"], kind="lead-model")
        return directory

    def test_verify_ok(self, tmp_path, capsys):
        directory = self._model_dir(tmp_path)
        assert main(["verify", "--model", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "ok  state.json" in out and "1 artifacts verified" in out

    def test_verify_reports_corruption(self, tmp_path, capsys):
        directory = self._model_dir(tmp_path)
        data = bytearray((directory / "state.json").read_bytes())
        data[len(data) // 2] ^= 0xFF
        (directory / "state.json").write_bytes(bytes(data))
        assert main(["verify", "--model", str(directory)]) == 2
        assert "CORRUPT" in capsys.readouterr().out

    def test_verify_requires_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert main(["verify", "--model", str(tmp_path / "empty")]) == 2


class TestTypedErrorRendering:
    def test_typed_errors_become_one_line_messages(self, tmp_path, capsys):
        """A missing data file exits 2 with a message, not a traceback."""
        code = main(["train", "--data", str(tmp_path / "missing.json.gz"),
                     "--out", str(tmp_path / "model")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error (")
        assert "Traceback" not in err

    def test_traceback_flag_reraises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["--traceback", "train",
                  "--data", str(tmp_path / "missing.json.gz"),
                  "--out", str(tmp_path / "model")])
