"""Config schema: strict merging over defaults, dotted-path overrides."""

import pickle

import pytest
import yaml

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
