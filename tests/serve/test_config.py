"""Tests for the ``REPRO_SERVE_*`` knob surface."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.serve.config import (
    DEFAULT_BREAKER,
    DEFAULT_BUDGET_DELTA,
    DEFAULT_BUDGET_EPSILON,
    DEFAULT_DRAIN,
    DEFAULT_MAX_SAMPLES,
    DEFAULT_QUEUE,
    DEFAULT_TIMEOUT,
    SERVE_BREAKER_ENV,
    SERVE_BUDGET_EPSILON_ENV,
    SERVE_DRAIN_ENV,
    SERVE_LEDGER_DIR_ENV,
    SERVE_MAX_SAMPLES_ENV,
    SERVE_QUEUE_ENV,
    SERVE_TIMEOUT_ENV,
    ServeConfig,
    resolve_serve_breaker,
    resolve_serve_budget_epsilon,
    resolve_serve_drain,
    resolve_serve_max_samples,
    resolve_serve_queue,
    resolve_serve_timeout,
)


class TestKnobResolution:
    def test_defaults(self, monkeypatch):
        for name in (SERVE_QUEUE_ENV, SERVE_TIMEOUT_ENV, SERVE_DRAIN_ENV,
                     SERVE_BREAKER_ENV, SERVE_MAX_SAMPLES_ENV):
            monkeypatch.delenv(name, raising=False)
        assert resolve_serve_queue() == DEFAULT_QUEUE
        assert resolve_serve_timeout() == DEFAULT_TIMEOUT
        assert resolve_serve_drain() == DEFAULT_DRAIN
        assert resolve_serve_breaker() == DEFAULT_BREAKER
        assert resolve_serve_budget_epsilon() == DEFAULT_BUDGET_EPSILON
        assert resolve_serve_max_samples() == DEFAULT_MAX_SAMPLES

    def test_environment_knobs(self, monkeypatch):
        monkeypatch.setenv(SERVE_QUEUE_ENV, "32")
        monkeypatch.setenv(SERVE_TIMEOUT_ENV, "2.5")
        monkeypatch.setenv(SERVE_BREAKER_ENV, "7")
        monkeypatch.setenv(SERVE_BUDGET_EPSILON_ENV, "3.5")
        assert resolve_serve_queue() == 32
        assert resolve_serve_timeout() == 2.5
        assert resolve_serve_breaker() == 7
        assert resolve_serve_budget_epsilon() == 3.5

    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv(SERVE_QUEUE_ENV, "32")
        assert resolve_serve_queue(2) == 2

    def test_empty_environment_means_default(self, monkeypatch):
        monkeypatch.setenv(SERVE_TIMEOUT_ENV, "")
        assert resolve_serve_timeout() == DEFAULT_TIMEOUT

    def test_malformed_environment_rejected(self, monkeypatch):
        monkeypatch.setenv(SERVE_QUEUE_ENV, "many")
        with pytest.raises(ValidationError, match=SERVE_QUEUE_ENV):
            resolve_serve_queue()
        monkeypatch.setenv(SERVE_TIMEOUT_ENV, "soon")
        with pytest.raises(ValidationError, match=SERVE_TIMEOUT_ENV):
            resolve_serve_timeout()
        for raw in ("inf", "nan"):
            monkeypatch.setenv(SERVE_TIMEOUT_ENV, raw)
            with pytest.raises(ValidationError, match=SERVE_TIMEOUT_ENV):
                resolve_serve_timeout()
            monkeypatch.setenv(SERVE_DRAIN_ENV, raw)
            with pytest.raises(ValidationError, match=SERVE_DRAIN_ENV):
                resolve_serve_drain()

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            resolve_serve_queue(0)
        with pytest.raises(ValidationError):
            resolve_serve_timeout(0.0)
        with pytest.raises(ValidationError):
            resolve_serve_drain(-1.0)
        with pytest.raises(ValidationError, match="finite"):
            resolve_serve_timeout(float("inf"))
        with pytest.raises(ValidationError, match="finite"):
            resolve_serve_drain(float("inf"))
        with pytest.raises(ValidationError):
            resolve_serve_breaker(0)
        with pytest.raises(ValidationError):
            resolve_serve_max_samples(0)

    def test_max_samples_environment_knob(self, monkeypatch):
        monkeypatch.setenv(SERVE_MAX_SAMPLES_ENV, "200")
        assert resolve_serve_max_samples() == 200
        assert resolve_serve_max_samples(16) == 16
        monkeypatch.setenv(SERVE_MAX_SAMPLES_ENV, "lots")
        with pytest.raises(ValidationError, match=SERVE_MAX_SAMPLES_ENV):
            resolve_serve_max_samples()
        monkeypatch.setenv(SERVE_MAX_SAMPLES_ENV, "0")
        with pytest.raises(ValidationError):
            resolve_serve_max_samples()


class TestServeConfig:
    def test_resolve_is_explicit_and_validated(self):
        config = ServeConfig.resolve(
            port=0, queue=2, timeout=1.5, drain=2.0, breaker=5,
            budget_epsilon=0.7, budget_delta=0.05, n_jobs=1,
        )
        assert config.port == 0
        assert config.queue_limit == 2
        assert config.timeout == 1.5
        assert config.drain_deadline == 2.0
        assert config.breaker_threshold == 5
        assert config.budget_epsilon == 0.7
        assert config.budget_delta == 0.05
        assert config.n_jobs == 1

    def test_negative_port_rejected(self):
        with pytest.raises(ValidationError):
            ServeConfig.resolve(port=-1)

    def test_ledger_dir_environment_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv(SERVE_LEDGER_DIR_ENV, str(tmp_path / "ledgers"))
        config = ServeConfig.resolve(port=0, n_jobs=1)
        assert config.ledger_dir == str(tmp_path / "ledgers")
        assert ServeConfig.resolve(port=0, n_jobs=1, ledger_dir="x").ledger_dir == "x"

    def test_cache_dir_environment_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        config = ServeConfig.resolve(port=0, n_jobs=1)
        assert config.cache_dir == str(tmp_path / "cache")

    def test_default_budget_delta(self):
        assert ServeConfig.resolve(port=0, n_jobs=1).budget_delta == (
            DEFAULT_BUDGET_DELTA
        )

    def test_max_samples_resolution(self, monkeypatch):
        monkeypatch.delenv(SERVE_MAX_SAMPLES_ENV, raising=False)
        assert ServeConfig.resolve(port=0, n_jobs=1).max_samples == (
            DEFAULT_MAX_SAMPLES
        )
        monkeypatch.setenv(SERVE_MAX_SAMPLES_ENV, "3")
        assert ServeConfig.resolve(port=0, n_jobs=1).max_samples == 3
        assert ServeConfig.resolve(port=0, n_jobs=1, max_samples=9).max_samples == 9

    def test_frozen(self):
        config = ServeConfig.resolve(port=0, n_jobs=1)
        with pytest.raises(AttributeError):
            config.port = 9
