"""CLI tests for the dataset-free subcommands and the api commands."""

import io
import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.cli import main
from repro.dataset.registry import all_kernel_specs
from repro.version import CODE_VERSION, __version__


class TestCli:
    def test_list_kernels(self, capsys):
        assert main(["list-kernels"]) == 0
        out = capsys.readouterr().out
        assert "gemm" in out and "custom" in out
        assert len(out.strip().splitlines()) == 59

    def test_energy_model(self, capsys):
        assert main(["energy-model"]) == 0
        out = capsys.readouterr().out
        assert "Processing Element" in out
        assert "1212" in out  # the NOP energy

    def test_simulate(self, capsys):
        assert main(["simulate", "stream_triad", "--dtype", "fp32",
                     "--size", "512"]) == 0
        out = capsys.readouterr().out
        assert "<- minimum" in out
        assert "TOTAL" in out

    def test_mca(self, capsys):
        assert main(["mca", "gemm", "--size", "1024"]) == 0
        out = capsys.readouterr().out
        assert "Reverse block throughput" in out

    def test_unknown_kernel_errors(self):
        with pytest.raises(Exception):
            main(["simulate", "bogus_kernel"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert __version__ in out
        assert f"code version {CODE_VERSION}" in out

    def test_list_kernels_help_count_computed(self, capsys):
        """The help text derives the kernel count from the registry."""
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert f"list the {len(all_kernel_specs())} dataset kernels" in out


class TestCliApi:
    """train / predict / serve as thin clients of repro.api."""

    @pytest.fixture()
    def artifact(self, tmp_path, monkeypatch, tiny_dataset, capsys):
        monkeypatch.setattr("repro.api.classifier.build_dataset",
                            lambda *args, **kwargs: tiny_dataset)
        path = str(tmp_path / "model.json")
        assert main(["train", "--output", path]) == 0
        capsys.readouterr()
        return path

    def test_train_writes_artifact(self, artifact, capsys):
        with open(artifact) as handle:
            payload = json.load(handle)
        assert payload["code_version"] == CODE_VERSION
        assert payload["model_family"] == "tree"

    def test_predict_from_artifact(self, artifact, capsys):
        assert main(["predict", "gemm", "--model", artifact,
                     "--size", "512"]) == 0
        out = capsys.readouterr().out
        assert "predicted minimum-energy team size" in out

    def test_serve_from_artifact(self, artifact, capsys, monkeypatch):
        monkeypatch.setattr(
            sys, "stdin",
            io.StringIO('{"kernel": "gemm", "size": 512, "id": 1}\n'))
        assert main(["serve", "--model", artifact]) == 0
        out = capsys.readouterr().out
        response = json.loads(out.strip().splitlines()[0])
        assert response["ok"] is True
        assert response["prediction"] in range(1, 9)

    def test_predict_warm_path_hits_artifact_cache(
            self, tmp_path, monkeypatch, tiny_dataset, capsys):
        """The ROADMAP's warm pre-loading: a repeated default-model
        predict must load the cached artifact, not train again."""
        monkeypatch.setattr("repro.api.classifier.build_dataset",
                            lambda *args, **kwargs: tiny_dataset)
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE",
                           str(tmp_path / "cache"))
        from repro.api import Classifier
        trains = {"n": 0}
        real_train = Classifier.train

        def counting_train(self, *args, **kwargs):
            trains["n"] += 1
            return real_train(self, *args, **kwargs)

        monkeypatch.setattr(Classifier, "train", counting_train)
        assert main(["predict", "gemm", "--size", "512"]) == 0
        assert trains["n"] == 1
        assert "trained and cached" in capsys.readouterr().err
        assert main(["predict", "gemm", "--size", "512"]) == 0
        assert trains["n"] == 1  # served warm from the artifact cache
        assert "artifact cache hit" in capsys.readouterr().err

    def test_serve_stdio_is_fleet_backed(self, tmp_path, monkeypatch,
                                         tiny_dataset, capsys):
        """stdio serving understands the model field and admin verbs."""
        monkeypatch.setattr("repro.api.classifier.build_dataset",
                            lambda *args, **kwargs: tiny_dataset)
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE",
                           str(tmp_path / "cache"))
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            '{"cmd": "list_models", "id": 1}\n'
            '{"kernel": "gemm", "size": 512, '
            '"model": "tree:static-agg", "id": 2}\n'))
        assert main(["serve", "--models", "tree:static-agg",
                     "--preload"]) == 0
        captured = capsys.readouterr()
        frames = [json.loads(line)
                  for line in captured.out.strip().splitlines()]
        assert [f["ok"] for f in frames] == [True, True]
        specs = [m["model"] for m in frames[0]["models"]]
        assert "tree:static-agg:paper" in specs
        assert frames[1]["prediction"] in range(1, 9)
        assert "pre-loaded model tree:static-agg:paper" in captured.err


_RACY_COUNTER = textwrap.dedent("""
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self._count = 0

        def bump(self):
            with self._lock:
                self._count += 1

        def reset(self):
            self._count = 0  # bare write: races with bump()
""")


class TestLintForwarding:
    """``repro lint ARGS`` is ``python -m repro.analysis ARGS``: one
    parser owns the options, so exit code and output match."""

    @pytest.mark.parametrize("args, exit_code", [
        (["--list-rules"], 0),
        (["--select", "RPL003", "--format", "json", "pkg"], 1),
        (["pkg", "--select", "rpl001,RPL003"], 1),
        (["--select", "RPL999", "pkg"], 2),  # unknown rule
    ])
    def test_cli_matches_module(self, args, exit_code, tmp_path,
                                monkeypatch, capsys):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "counter.py").write_text(_RACY_COUNTER)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        module = subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120)
        monkeypatch.chdir(tmp_path)
        code = main(["lint", *args])
        assert (code, capsys.readouterr().out) == (module.returncode,
                                                   module.stdout)
        assert code == exit_code
