"""Result-bundle writers: exact round trips and byte determinism."""

import csv
import json

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from sawlink import serialize
from sawlink.config import config_from_dict, default_config, effective_dict
from sawlink.errors import ValidationError
from sawlink.experiments import EXPERIMENTS
from sawlink.serialize import (
    TIMING_FILE,
    config_hash,
    write_bundle,
    write_matrix,
    write_metrics,
    write_series,
)


def read_matrix(path):
    """Inverse of ``write_matrix``: the complex array and its basis labels."""
    payload = json.loads(path.read_text())
    flat = np.array([complex(re, im) for re, im in payload["data"]])
    return flat.reshape(payload["shape"]), tuple(payload["basis"])


def write_series_per_scalar(path, columns):
    """The reference series writer: one ``repr(float(v))`` per value
    through ``csv.writer``."""
    cols = {k: np.asarray(v) for k, v in columns.items()}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols.keys())
        for row in zip(*cols.values()):
            writer.writerow([repr(float(v)) for v in row])


def default_effective(experiment):
    return effective_dict(config_from_dict(default_config(experiment)))


def bundle_bytes(root):
    """Map of relative path -> bytes, excluding the timing file."""
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name != TIMING_FILE:
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


class TestSeries:
    def test_float_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        cols = {"t": rng.normal(size=17), "p": rng.random(17)}
        path = tmp_path / "s.csv"
        write_series(path, cols)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,p"
        for i, line in enumerate(lines[1:]):
            t, p = (float(v) for v in line.split(","))
            assert t == cols["t"][i]
            assert p == cols["p"][i]

    SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308,
               1e300, -1e-300, 0.1, 1 / 3]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 40),
        kinds=st.lists(st.sampled_from(["float64", "float32", "int64", "uint64", "bool"]),
                       min_size=1, max_size=4),
        data=st.data(),
    )
    def test_bytes_match_per_scalar_writer(self, tmp_path_factory, n, kinds, data):
        values = {
            "float64": st.floats(width=64) | st.sampled_from(self.SPECIAL),
            "float32": st.floats(width=32),
            "int64": st.integers(-2**63, 2**63 - 1),
            "uint64": st.integers(0, 2**64 - 1),
            "bool": st.booleans(),
        }
        cols = {
            f"c{i}": np.array(data.draw(st.lists(values[kind], min_size=n, max_size=n)),
                              dtype=kind)
            for i, kind in enumerate(kinds)
        }
        root = tmp_path_factory.mktemp("series")
        write_series(root / "new.csv", cols)
        write_series_per_scalar(root / "ref.csv", cols)
        assert (root / "new.csv").read_bytes() == (root / "ref.csv").read_bytes()

    def test_long_series_bytes_match_per_scalar_writer(self, tmp_path):
        # longer than one write block, with the special values at a block edge
        n = 2 * serialize._ROWS_PER_WRITE + 7
        t = np.random.default_rng(11).normal(size=n) * 10.0 ** np.arange(-150, 150, 300 / n)
        at = serialize._ROWS_PER_WRITE - 3
        t[at:at + len(self.SPECIAL)] = self.SPECIAL
        cols = {"t": t, "k": np.arange(n), "on": np.arange(n) % 3 == 0}
        write_series(tmp_path / "new.csv", cols)
        write_series_per_scalar(tmp_path / "ref.csv", cols)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert (tmp_path / "new.csv").read_bytes().count(b"\r\n") == n + 1

    @pytest.mark.parametrize("column", [
        np.array([1.0 + 2.0j, 3.0]),
        np.ones((3, 2)),
        np.float64(1.0),
        np.array(["1.0", "2.0"]),
        np.array([1.0, None]),
    ])
    def test_column_not_1d_real_rejected(self, tmp_path, column):
        with pytest.raises(ValidationError, match="1-d and real"):
            write_series(tmp_path / "s.csv", {"a": column})

    def test_unequal_lengths_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_series(tmp_path / "s.csv", {"a": np.arange(3), "b": np.arange(4)})

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_series(tmp_path / "s.csv", {})


class TestMatrix:
    def test_complex_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        path = tmp_path / "m.json"
        write_matrix(path, m, basis=("II", "IX", "IY", "IZ"))
        back, basis = read_matrix(path)
        assert basis == ("II", "IX", "IY", "IZ")
        assert np.array_equal(back, m)

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_matrix(tmp_path / "m.json", np.arange(4.0), basis=("a",))


# what an effective config holds: identifier keys, numbers, None, bools and
# the experiment's name; the two emitters differ on some other keys and
# strings (an empty-string key, control and non-ASCII characters)
CONFIG_KEYS = st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True)
CONFIG_TREES = st.recursive(
    st.floats() | st.integers(-2**64, 2**64) | st.booleans() | st.none()
    | st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(CONFIG_KEYS, inner, max_size=4),
    max_leaves=16,
)

needs_libyaml = pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"),
                                   reason="PyYAML built without libyaml")


class TestConfigYaml:
    @needs_libyaml
    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_emitters_agree_on_default_configs(self, experiment):
        effective = default_effective(experiment)
        assert yaml.dump(effective, Dumper=yaml.CSafeDumper, sort_keys=True) == \
            yaml.dump(effective, Dumper=yaml.SafeDumper, sort_keys=True)

    @needs_libyaml
    @settings(max_examples=200, deadline=None)
    @given(tree=st.dictionaries(CONFIG_KEYS, CONFIG_TREES, max_size=5))
    def test_emitters_agree_on_config_shaped_trees(self, tree):
        assert yaml.dump(tree, Dumper=yaml.CSafeDumper, sort_keys=True) == \
            yaml.dump(tree, Dumper=yaml.SafeDumper, sort_keys=True)


class TestConfigHash:
    def test_key_order_does_not_matter(self):
        a = {"x": 1, "y": {"a": 2.0, "b": 3}}
        b = {"y": {"b": 3, "a": 2.0}, "x": 1}
        assert config_hash(a) == config_hash(b)

    def test_value_change_changes_hash(self):
        assert config_hash({"x": 1}) != config_hash({"x": 2})


class TestBundle:
    EFFECTIVE = {"experiment": "demo", "seed": 7, "params": {"k": 0.1}}

    def write_one(self, root, effective=EFFECTIVE):
        return write_bundle(
            root,
            effective,
            metrics={"f": 0.83},
            series={"trace": {"t": np.arange(3.0), "p": np.ones(3)}},
            matrices={"chi": (np.eye(2, dtype=complex), ("I", "X"))},
            wall_time_s=1.23,
            version="0.1.0",
        )

    def test_layout_and_meta(self, tmp_path):
        out = self.write_one(tmp_path / "b")
        assert (out / "config.yaml").is_file()
        assert (out / "metrics.json").is_file()
        assert (out / "series" / "trace.csv").is_file()
        assert (out / "matrices" / "chi.json").is_file()
        assert (out / TIMING_FILE).is_file()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config_hash"] == config_hash(self.EFFECTIVE)
        assert meta["seed"] == 7
        assert meta["files"] == {"series": ["trace"], "matrices": ["chi"]}

    def test_bytes_reproducible_except_timing(self, tmp_path):
        a = self.write_one(tmp_path / "a")
        b = self.write_one(tmp_path / "b")
        assert bundle_bytes(a) == bundle_bytes(b)

    def test_pure_python_emitter_writes_the_same_bundle(self, tmp_path, monkeypatch):
        effective = default_effective("swap")
        a = self.write_one(tmp_path / "a", effective)
        monkeypatch.setattr(serialize, "_DUMPER", yaml.SafeDumper)
        b = self.write_one(tmp_path / "b", effective)
        assert bundle_bytes(a) == bundle_bytes(b)

    def test_metrics_sorted_and_parseable(self, tmp_path):
        path = tmp_path / "m.json"
        write_metrics(path, {"b": 2.0, "a": 1.0})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": 1.0, "b": 2.0}
