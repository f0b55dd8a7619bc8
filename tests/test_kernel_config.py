"""KernelConfig: validation, env precedence, and how it drives the kernel."""

import pytest

from repro.kernel import Kernel, KernelConfig


def test_defaults():
    config = KernelConfig()
    assert config.ram_bytes is None
    assert config.trace is False
    assert config.label_cost_mode == "paper"
    assert config.sanitize is False
    assert config.sanitize_strict is True
    assert config.metrics is False
    assert config.spans is False


def test_frozen():
    config = KernelConfig()
    with pytest.raises(Exception):
        config.trace = True


def test_validation():
    with pytest.raises(ValueError):
        KernelConfig(label_cost_mode="imaginary")
    with pytest.raises(ValueError):
        KernelConfig(ram_bytes=-1)
    with pytest.raises(ValueError):
        KernelConfig(span_limit=0)


def test_replace():
    config = KernelConfig().replace(metrics=True)
    assert config.metrics is True
    assert config.trace is False


def test_from_env_reads_environment():
    env = {
        "REPRO_SANITIZE": "yes",
        "REPRO_ELIDE": "on",
        "REPRO_PROOFS": "/tmp/proofs.json",
        "REPRO_STORE": "/tmp/wal.log",
    }
    config = KernelConfig.from_env(env=env)
    assert config.sanitize is True
    assert config.elide_checks is True
    assert config.proof_path == "/tmp/proofs.json"
    assert config.store_path == "/tmp/wal.log"


def test_from_env_reads_only_the_variables_somebody_sets():
    # Five knobs cross the environment (CI sweeps, README); everything
    # else is configured by constructing a KernelConfig.
    env = {
        "REPRO_SANITIZE_STRICT": "0",
        "REPRO_SANITIZE_SAMPLE": "1/8",
        "REPRO_LABELOP_CACHE": "512",
        "REPRO_TRACE": "1",
        "REPRO_METRICS": "1",
        "REPRO_SPANS": "1",
        "REPRO_LABEL_COST_MODE": "fused",
        "REPRO_RAM_BYTES": "4096",
        "REPRO_FAULTS": "/nonexistent/plan.json",
        "REPRO_FAULT_SEED": "7",
    }
    assert KernelConfig.from_env(env=env) == KernelConfig()


def test_from_env_falsy_values():
    env = {"REPRO_SANITIZE": "0", "REPRO_ELIDE": "off"}
    config = KernelConfig.from_env(env=env)
    assert config.sanitize is False
    assert config.elide_checks is False


def test_from_env_overrides_beat_environment():
    env = {"REPRO_SANITIZE": "1", "REPRO_STORE": "/tmp/wal.log"}
    config = KernelConfig.from_env(env=env, sanitize=False, label_cost_mode="fused")
    assert config.sanitize is False
    assert config.store_path == "/tmp/wal.log"
    assert config.label_cost_mode == "fused"


def test_from_env_none_override_means_unset():
    # A None override means "not given": the environment still decides.
    env = {"REPRO_SANITIZE": "1"}
    config = KernelConfig.from_env(env=env, sanitize=None)
    assert config.sanitize is True


def test_config_drives_kernel():
    kernel = Kernel(config=KernelConfig(metrics=True, spans=True))
    assert kernel.metrics.enabled
    assert kernel.spans is not None
    plain = Kernel(config=KernelConfig())
    assert not plain.metrics.enabled
    assert plain.spans is None


# -- the interned-label fast path knobs (DESIGN.md §11) -----------------------------


def test_interning_defaults_off():
    config = KernelConfig()
    assert config.intern_labels is False
    assert config.labelop_cache_size == 4096


def test_interning_validation():
    with pytest.raises(ValueError):
        KernelConfig(labelop_cache_size=0)
    with pytest.raises(ValueError):
        KernelConfig(labelop_cache_size=-8)


def test_interning_from_env_round_trip():
    config = KernelConfig.from_env(env={"REPRO_INTERN_LABELS": "1"})
    assert config.intern_labels is True
    assert config.labelop_cache_size == 4096


def test_interning_env_falsy_and_unset():
    assert KernelConfig.from_env(env={"REPRO_INTERN_LABELS": "off"}).intern_labels is False
    config = KernelConfig.from_env(env={})
    assert config.intern_labels is False
    assert config.labelop_cache_size == 4096


def test_interning_explicit_overrides_beat_environment():
    env = {"REPRO_INTERN_LABELS": "1"}
    config = KernelConfig.from_env(env=env, intern_labels=False, labelop_cache_size=64)
    assert config.intern_labels is False
    assert config.labelop_cache_size == 64


def test_interning_replace_round_trip():
    config = KernelConfig().replace(intern_labels=True, labelop_cache_size=128)
    assert config.intern_labels is True
    assert config.labelop_cache_size == 128
    assert config.replace(intern_labels=False).labelop_cache_size == 128


def test_interning_config_drives_kernel():
    kernel = Kernel(config=KernelConfig(intern_labels=True, labelop_cache_size=128))
    assert kernel.labelop_cache is not None
    assert kernel.labelop_cache.size == 128
    plain = Kernel(config=KernelConfig())
    assert plain.labelop_cache is None
