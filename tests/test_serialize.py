"""Result-bundle writers: exact round trips and byte determinism."""

import json

import numpy as np
import pytest

from sawlink.errors import ValidationError
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


class TestConfigHash:
    def test_key_order_does_not_matter(self):
        a = {"x": 1, "y": {"a": 2.0, "b": 3}}
        b = {"y": {"b": 3, "a": 2.0}, "x": 1}
        assert config_hash(a) == config_hash(b)

    def test_value_change_changes_hash(self):
        assert config_hash({"x": 1}) != config_hash({"x": 2})


class TestBundle:
    EFFECTIVE = {"experiment": "demo", "seed": 7, "params": {"k": 0.1}}

    def write_one(self, root):
        return write_bundle(
            root,
            self.EFFECTIVE,
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

    def test_metrics_sorted_and_parseable(self, tmp_path):
        path = tmp_path / "m.json"
        write_metrics(path, {"b": 2.0, "a": 1.0})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": 1.0, "b": 2.0}
