"""Config schema: strict merging over defaults, dotted-path overrides."""

import pickle
import re

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from sawlink import config
from sawlink.config import (
    YamlLoader,
    config_from_dict,
    default_config,
    effective_dict,
    load_config,
    set_by_path,
)
from sawlink.errors import ConfigError
from sawlink.experiments import EXPERIMENTS
from sawlink.serialize import config_yaml

from test_serialize import CONFIG_KEYS, CONFIG_TREES

# YamlLoader on PyYAML's pure-Python parser, the reader used without libyaml
PURE_PYTHON_LOADER = config._loader(yaml.SafeLoader)


class TestDefaults:
    def test_every_experiment_has_defaults(self):
        for name in EXPERIMENTS:
            raw = default_config(name)
            assert raw["experiment"] == name
            assert isinstance(raw["seed"], int)
            assert set(raw) == {"experiment", "seed", "device", "params"}

    def test_unknown_experiment_lists_choices(self):
        with pytest.raises(ConfigError, match="ping_pong"):
            default_config("teleport")

    def test_round_trip_is_identity(self):
        raw = default_config("swap")
        assert effective_dict(config_from_dict(raw)) == raw

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_pickles_to_an_equal_config(self, name):
        # a parallel sweep sends each point's parsed config to a worker
        cfg = config_from_dict(default_config(name))
        assert pickle.loads(pickle.dumps(cfg)) == cfg


class TestMerging:
    def test_partial_override_keeps_other_fields(self):
        cfg = config_from_dict(
            {"experiment": "ping_pong", "device": {"eta": 0.5}}
        )
        assert cfg.device.eta == 0.5
        assert cfg.device.tau_ns == pytest.approx(508.12)
        assert cfg.device.q1.g_mhz == pytest.approx(2.57)

    def test_nested_qubit_override(self):
        cfg = config_from_dict(
            {"experiment": "swap", "device": {"q2": {"T2R_us": 1.5}}}
        )
        assert cfg.device.q2.T2R_us == 1.5
        assert cfg.device.q2.T1_int_us == pytest.approx(26.1)

    def test_int_coerced_to_float_field(self):
        cfg = config_from_dict(
            {"experiment": "ping_pong", "params": {"window_ns": 120}}
        )
        assert cfg.params["window_ns"] == 120.0
        assert isinstance(cfg.params["window_ns"], float)

    def test_optional_param_accepts_null_and_number(self):
        base = {"experiment": "ping_pong"}
        assert config_from_dict({**base, "params": {"eta": None}}).params["eta"] is None
        assert config_from_dict({**base, "params": {"eta": 0.9}}).params["eta"] == 0.9

    @pytest.mark.parametrize(
        "raw",
        [
            {"experiment": "ping_pong", "bogus": 1},
            {"experiment": "ping_pong", "device": {"bogus": 1}},
            {"experiment": "ping_pong", "params": {"bogus": 1}},
            {"experiment": "ping_pong", "device": {"q1": {"bogus": 1}}},
        ],
    )
    def test_unknown_keys_are_hard_errors(self, raw):
        with pytest.raises(ConfigError, match="bogus"):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "raw",
        [
            {"params": {"kappa_c": 0.1}},                 # no experiment
            {"experiment": "ping_pong", "seed": 1.5},     # non-integer seed
            {"experiment": "ping_pong", "seed": True},    # bool is not a seed
            {"experiment": "ping_pong", "params": {"kappa_c": "fast"}},
            {"experiment": "ping_pong", "device": {"eta": True}},
            {"experiment": "ping_pong", "device": 3},     # section not a mapping
            {"experiment": "ping_pong", "params": {"kappa_c": float("nan")}},
            {"experiment": "ping_pong", "params": {"eta": float("inf")}},
            {"experiment": "ping_pong", "device": {"q2": {"F_e": -float("inf")}}},
            {"experiment": "multi_transit", "params": {"max_transits": float("inf")}},
        ],
    )
    def test_malformed_values_rejected(self, raw):
        with pytest.raises(ConfigError):
            config_from_dict(raw)


class TestLoadFile:
    def test_yaml_file_round_trip(self, tmp_path):
        raw = default_config("multi_transit")
        raw["params"]["max_transits"] = 3
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(raw))
        cfg = load_config(path)
        assert cfg.params["max_transits"] == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            load_config(path)

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("experiment: [unclosed\n")
        with pytest.raises(ConfigError, match="parse"):
            load_config(path)

    @pytest.mark.parametrize("text, want", [
        ("1e-7", 1e-7), ("1.5e2", 150.0), ("-2E-3", -0.002), ("+1e5", 1e5),
        ("1e400", float("inf")), ("1.0e-07", 1e-7), ("0.5", 0.5),
        ("12", 12), ("0x1f", 31), ("1_000", 1000), ('"1e-7"', "1e-7"), ("1e", "1e"),
    ])
    def test_loader_reads_exponent_form_as_float(self, text, want):
        got = yaml.load(text, Loader=YamlLoader)
        assert got == want
        assert type(got) is type(want)

    def test_safe_loader_left_as_is(self):
        assert yaml.safe_load("1e-7") == "1e-7"


@pytest.fixture(params=["YamlLoader", "pure-Python"])
def either_loader(request, monkeypatch):
    """Runs a test with ``load_config`` reading through each parser backend."""
    if request.param == "pure-Python":
        monkeypatch.setattr(config, "YamlLoader", PURE_PYTHON_LOADER)


class TestStrictReading:
    @pytest.mark.parametrize("text, key, line", [
        ("experiment: ping_pong\nparams:\n  eta: 0.5\nparams:\n  window_ns: 150\n",
         "params", 4),
        ("experiment: ping_pong\ndevice:\n  q1:\n    g_mhz: 2.0\n    T1_int_us: 30.0\n"
         "    g_mhz: 3.0\n", "g_mhz", 6),
        ("experiment: ping_pong\nseed: 1\nseed: 1\n", "seed", 3),
    ], ids=["top-level", "device.q1", "same-value"])
    def test_duplicate_key_rejected(self, tmp_path, either_loader, text, key, line):
        path = tmp_path / "c.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"(?s)duplicate key '{key}'.* line {line},"):
            load_config(path)

    def test_merge_key_may_be_overridden(self, tmp_path, either_loader):
        # a key brought in by a merge is not a duplicate of one written out
        path = tmp_path / "c.yaml"
        path.write_text("experiment: ping_pong\ndevice:\n"
                        "  q1: &q {g_mhz: 2.0, T1_int_us: 30.0}\n"
                        "  q2:\n    <<: *q\n    g_mhz: 3.0\n")
        cfg = load_config(path)
        assert (cfg.device.q2.g_mhz, cfg.device.q2.T1_int_us) == (3.0, 30.0)
        assert cfg.device.q1.g_mhz == 2.0

    @pytest.mark.parametrize("data", [b"experiment: ping\xffpong\n", b"seed: 1 # \xc3\n"])
    def test_bytes_that_are_not_utf8_do_not_parse(self, tmp_path, either_loader, data):
        path = tmp_path / "c.yaml"
        path.write_bytes(data)
        with pytest.raises(ConfigError, match="does not parse"):
            load_config(path)

    @pytest.mark.parametrize("data", [b"seed: 1\nseed: 1\n", b"seed: 1 # \xff\n"])
    def test_parse_error_names_the_file(self, tmp_path, either_loader, data):
        path = tmp_path / "named.yaml"
        path.write_bytes(data)
        with pytest.raises(ConfigError, match=re.escape(f'in "{path}"')):
            load_config(path)


needs_libyaml = pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                                   reason="PyYAML built without libyaml")


def read_both(text):
    """The value of ``text`` through YamlLoader and through its pure-Python
    twin, each as its repr: types, key order and the sign of zero count."""
    return (repr(yaml.load(text, Loader=YamlLoader)),
            repr(yaml.load(text, Loader=PURE_PYTHON_LOADER)))


@needs_libyaml
class TestLoadersAgree:
    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_on_default_configs(self, experiment):
        text = config_yaml(default_config(experiment))
        c_side, python_side = read_both(text)
        assert c_side == python_side
        assert yaml.load(text, Loader=YamlLoader) == default_config(experiment)

    @settings(max_examples=200, deadline=None)
    @given(tree=st.dictionaries(CONFIG_KEYS, CONFIG_TREES, max_size=5))
    def test_on_config_shaped_trees(self, tree):
        c_side, python_side = read_both(yaml.dump(tree, Dumper=yaml.SafeDumper, sort_keys=True))
        assert c_side == python_side

    @pytest.mark.parametrize("text, want", [
        ("1e-7", 1e-7), ("-0.0", -0.0), ("null", None), ("~", None),
        (".inf", float("inf")), ("0x1A", 26), ("1_000", 1000), ("2.", 2.0),
    ])
    def test_on_sweep_values(self, text, want):
        assert read_both(text) == (repr(want), repr(want))

    @pytest.mark.parametrize("text", ["[1", "a:\n\tb: 1\n", "{[1]: 2}"],
                             ids=["unclosed", "tab-indent", "unhashable-key"])
    def test_malformed_text_fails_both(self, text):
        for loader in (YamlLoader, PURE_PYTHON_LOADER):
            with pytest.raises(yaml.YAMLError):
                yaml.load(text, Loader=loader)


class TestOverrides:
    def test_set_by_path_seed(self):
        cfg = config_from_dict(default_config("ping_pong"))
        assert set_by_path(cfg, "seed", 99).seed == 99
        assert cfg.seed == 1234  # original untouched

    def test_set_by_path_params(self):
        cfg = config_from_dict(default_config("ping_pong"))
        assert set_by_path(cfg, "params.kappa_c", 0.2).params["kappa_c"] == 0.2

    def test_set_by_path_nested_device(self):
        cfg = config_from_dict(default_config("ping_pong"))
        assert set_by_path(cfg, "device.q1.g_mhz", 2.0).device.q1.g_mhz == 2.0

    def test_set_by_path_revalidates(self):
        cfg = config_from_dict(default_config("ping_pong"))
        with pytest.raises(ConfigError):
            set_by_path(cfg, "device.eta", "high")

    @pytest.mark.parametrize(
        "path", ["experiment", "params.nope", "device", "nope.field"]
    )
    def test_bad_paths_rejected(self, path):
        cfg = config_from_dict(default_config("ping_pong"))
        with pytest.raises(ConfigError):
            set_by_path(cfg, path, 1.0)
