"""Tests for the experiment runner's environment handling."""

import pytest

from repro.api.config import active_profile, cv_repeats
from repro.parallel import resolve_jobs


class TestEnv:
    def test_default_profile(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert active_profile() == "paper"

    def test_profile_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "unit")
        assert active_profile() == "unit"

    def test_repeats_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CV_REPEATS", raising=False)
        assert cv_repeats() == 10

    def test_repeats_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CV_REPEATS", "100")
        assert cv_repeats() == 100

    def test_repeats_bad_value_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_CV_REPEATS", "lots")
        with pytest.warns(RuntimeWarning, match="REPRO_CV_REPEATS"):
            assert cv_repeats() == 10

    def test_unknown_profile_warns(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "bogus")
        with pytest.warns(RuntimeWarning, match="REPRO_PROFILE"):
            assert active_profile() == "bogus"

    def test_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3
        monkeypatch.delenv("REPRO_JOBS")
        assert resolve_jobs(None) == 1

    def test_repeats_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_CV_REPEATS", "0")
        assert cv_repeats() == 1
