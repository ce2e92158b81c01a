"""The layered Session configuration: registry, precedence, validation.

Covers the ISSUE-3 config contract: every ``REPRO_*`` variable is
declared once in :mod:`repro.session.config`, unknown ``REPRO_`` names
fail loudly at Session construction, and resolution follows

    registry default < config file/dict < REPRO_* env var < Session kwarg
"""

from __future__ import annotations

import json

import pytest

from repro.session import ConfigError, Session
from repro.session.config import (
    ENV_REGISTRY,
    REGISTRY,
    coerce_value,
    describe_registry,
    load_config_file,
    validate_environ,
)

# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_registry_covers_every_historical_env_var():
    assert set(ENV_REGISTRY) == {
        "REPRO_CACHE_BACKEND",
        "REPRO_PERF_MEMO",
        "REPRO_WORKERS",
        "REPRO_UPDATE_GOLDEN",
        "REPRO_ANALYZE",
        "REPRO_TRACE_OUT",
        "REPRO_EXEC_BACKEND",
        "REPRO_TAPE_BATCH",
        "REPRO_SEARCH_BEAM",
        "REPRO_SEARCH_DEPTH",
        "REPRO_SEARCH_SAMPLE_GROUPS",
        "REPRO_SEARCH_DEVICE",
    }
    # name <-> env spelling is a bijection
    assert len(REGISTRY) == len(ENV_REGISTRY)
    for var in REGISTRY.values():
        assert var.env == "REPRO_" + var.name.upper()
        assert var.doc  # every knob is documented


def test_describe_registry_mentions_every_var():
    text = describe_registry()
    for var in REGISTRY.values():
        assert var.name in text
        assert var.env in text


def test_unknown_repro_env_var_rejected_at_construction():
    with pytest.raises(ConfigError, match="REPRO_PREF_MEMO"):
        Session(env={"REPRO_PREF_MEMO": "0"})
    # non-REPRO names are not our business
    validate_environ({"PATH": "/bin", "REPROBE": "x"})


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, ValueError)


# ---------------------------------------------------------------------------
# precedence
# ---------------------------------------------------------------------------


def test_default_layer():
    s = Session(env={})
    assert s.get("cache_backend") == "fast"
    assert s.get("perf_memo") is True
    assert s.get("workers") == 1


def test_config_dict_beats_default():
    s = Session(config={"workers": 4}, env={})
    assert s.get("workers") == 4


def test_env_beats_config_dict():
    s = Session(config={"workers": 4}, env={"REPRO_WORKERS": "2"})
    assert s.get("workers") == 2


def test_kwarg_beats_env():
    s = Session(
        config={"workers": 4}, env={"REPRO_WORKERS": "2"}, workers=8
    )
    assert s.get("workers") == 8


def test_config_file_loads_below_config_dict(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"workers": 3, "cache_backend": "reference"}))
    s = Session(config={"workers": 5}, config_file=str(path), env={})
    assert s.get("workers") == 5  # dict updates the file layer
    assert s.get("cache_backend") == "reference"


def test_env_values_are_read_live():
    env = {}
    s = Session(env=env)
    assert s.get("workers") == 1
    env["REPRO_WORKERS"] = "6"  # mutated after construction (monkeypatch)
    assert s.get("workers") == 6


def test_empty_env_string_unsets_str_and_bool_but_not_int():
    s = Session(env={"REPRO_CACHE_BACKEND": "", "REPRO_PERF_MEMO": ""})
    assert s.get("cache_backend") == "fast"
    assert s.get("perf_memo") is True
    s2 = Session(env={"REPRO_WORKERS": ""})
    with pytest.raises(ValueError, match="REPRO_WORKERS"):
        s2.get("workers")


def test_as_dict_resolves_every_registered_name():
    s = Session(env={})
    d = s.as_dict()
    assert set(d) == set(REGISTRY)
    assert d["cache_backend"] == "fast"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("raw", ["0", "-2", "1.5", "zero", ""])
def test_bad_int_env_values(raw):
    s = Session(env={"REPRO_WORKERS": raw})
    with pytest.raises(ValueError, match="REPRO_WORKERS"):
        s.get("workers")


def test_bad_bool_env_value():
    s = Session(env={"REPRO_PERF_MEMO": "maybe"})
    with pytest.raises(ConfigError, match="REPRO_PERF_MEMO"):
        s.get("perf_memo")


@pytest.mark.parametrize("word,value", [
    ("1", True), ("true", True), ("YES", True), ("on", True),
    ("0", False), ("False", False), ("no", False), ("OFF", False),
])
def test_bool_env_words(word, value):
    s = Session(env={"REPRO_PERF_MEMO": word})
    assert s.get("perf_memo") is value


def test_choices_enforced_everywhere():
    with pytest.raises(ValueError, match="REPRO_CACHE_BACKEND"):
        Session(env={"REPRO_CACHE_BACKEND": "bogus"}).get("cache_backend")
    with pytest.raises(ConfigError, match="cache_backend"):
        Session(config={"cache_backend": "bogus"}, env={})
    with pytest.raises(ConfigError, match="cache_backend"):
        Session(env={}, cache_backend="bogus")


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        Session(config={"worker": 4}, env={})
    with pytest.raises(ConfigError, match="unknown config key"):
        Session(env={}, wrokers=4)
    with pytest.raises(ConfigError, match="unknown config key"):
        coerce_value("nope", 1, source="test")


def test_wrong_python_types_rejected():
    with pytest.raises(ConfigError, match="workers must be an int"):
        Session(config={"workers": "4"}, env={})
    with pytest.raises(ConfigError, match="workers must be an int"):
        Session(env={}, workers=True)
    with pytest.raises(ConfigError, match="perf_memo must be a bool"):
        Session(env={}, perf_memo=1)


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config_file(str(bad))
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{nope")
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config_file(str(notjson))


# ---------------------------------------------------------------------------
# set_config / activation
# ---------------------------------------------------------------------------


def test_set_config_returns_previous_and_stays_below_env():
    s = Session(env={"REPRO_CACHE_BACKEND": "reference"})
    prev = s.set_config("cache_backend", "fast")
    assert prev == "fast"  # registry default (env is a separate layer)
    # env still wins over the config layer set_config writes
    assert s.get("cache_backend") == "reference"


def test_activation_scopes_config_lookups():
    from repro.perf.fastcache import cache_backend
    from repro.session import current_session

    outer = current_session()
    s = Session(env={}, cache_backend="reference")
    assert cache_backend() != "reference" or outer.get("cache_backend") == "reference"
    with s.activate():
        assert current_session() is s
        assert cache_backend() == "reference"
    assert current_session() is not s


def test_get_unknown_name_raises():
    with pytest.raises(ConfigError, match="unknown config key"):
        Session(env={}).get("nope")


# ---------------------------------------------------------------------------
# ISSUE-4 env-coercion boundaries: every rejection is a ConfigError that
# names the offending variable (not a bare ValueError/TypeError)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("raw", ["0", "-7", "four", "2.5", "1e3"])
def test_workers_env_rejection_is_config_error_naming_variable(raw):
    s = Session(env={"REPRO_WORKERS": raw})
    with pytest.raises(
        ConfigError, match=r"\$REPRO_WORKERS must be a positive integer"
    ):
        s.get("workers")


def test_workers_env_boundary_one_is_accepted():
    assert Session(env={"REPRO_WORKERS": "1"}).get("workers") == 1


@pytest.mark.parametrize("env_name", ["REPRO_TAPE_BATCH"])
@pytest.mark.parametrize("raw", ["0", "-2", "1.5", "many", ""])
def test_batch_and_spill_env_rejected_at_construction(env_name, raw):
    """The eagerly-checked ints fail at Session() itself, not at lookup —
    a bad ``REPRO_TAPE_BATCH`` must not survive until a launch reads it."""
    with pytest.raises(ConfigError, match=env_name):
        Session(env={env_name: raw})


@pytest.mark.parametrize("env_name,name,value", [
    ("REPRO_TAPE_BATCH", "tape_batch", 64),
])
def test_batch_and_spill_env_accepted_values(env_name, name, value):
    assert Session(env={env_name: str(value)}).get(name) == value


def test_analyze_var_defaults_off_and_parses_bool_words():
    assert Session(env={}).get("analyze") is False
    assert Session(env={"REPRO_ANALYZE": "1"}).get("analyze") is True
    assert Session(env={"REPRO_ANALYZE": "off"}).get("analyze") is False
    with pytest.raises(ConfigError, match="REPRO_ANALYZE"):
        Session(env={"REPRO_ANALYZE": "maybe"}).get("analyze")


@pytest.mark.parametrize("env_name,value", [
    ("REPRO_EXEC_BACKEND", "codegen"),  # not one of the choices
    ("REPRO_CODEGEN_CACHE_DIR", "cg-artifacts"),  # not a registered variable
    ("REPRO_TRACE_SPILL_MB", "1"),  # removed: traces stay in memory
    ("REPRO_COMPILE_CACHE_SIZE", "8"),  # removed: the cache size is a constant
])
def test_cli_config_error_exits_2_with_one_line(monkeypatch, capsys, env_name, value):
    from repro.cli import main

    monkeypatch.setenv(env_name, value)
    assert main(["matrix", "--apps", "NVD-MT", "--scale", "test", "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert env_name in err
