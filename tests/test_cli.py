"""Command-line interface: bundles, sweeps, exit codes."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sawlink import multimode
from sawlink.cli import main
from sawlink.config import default_config, load_config
from sawlink.errors import IntegrationError
from sawlink.experiments import EXPERIMENTS, MAX_MODES, ExperimentOutput

from test_serialize import bundle_bytes


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "pp.yaml"
    path.write_text(yaml.safe_dump(default_config("ping_pong")))
    return str(path)


class TestDefaults:
    def test_stdout_matches_default_tree(self, capsys):
        assert main(["defaults", "swap"]) == 0
        raw = yaml.safe_load(capsys.readouterr().out)
        assert raw == default_config("swap")

    def test_written_file_validates(self, tmp_path, capsys):
        out = tmp_path / "c.yaml"
        assert main(["defaults", "bell", "--out", str(out)]) == 0
        assert main(["validate", "--config", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "ok"

    def test_unknown_experiment_is_usage_error(self, capsys):
        assert main(["defaults", "teleport"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ConfigError"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        assert "usage: sawlink sweep" in capsys.readouterr().out


class TestRun:
    def test_bundle_layout_and_summary_line(self, config_path, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 0
        reply = json.loads(capsys.readouterr().out)
        assert reply["status"] == "ok"
        assert reply["metrics"]["capture_efficiency"] == pytest.approx(0.67, abs=0.005)
        for name in ("config.yaml", "metrics.json", "meta.json", "timing.txt"):
            assert (out / name).is_file()
        assert (out / "series" / "populations.csv").is_file()

    def test_seed_flag_overrides_config(self, config_path, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["run", "--config", config_path, "--out", str(out),
                     "--seed", "9"]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["seed"] == 9
        assert yaml.safe_load((out / "config.yaml").read_text())["seed"] == 9

    def test_same_seed_bit_identical(self, config_path, tmp_path):
        for name in ("a", "b"):
            assert main(["run", "--config", config_path,
                         "--out", str(tmp_path / name), "--seed", "3"]) == 0
        assert bundle_bytes(tmp_path / "a") == bundle_bytes(tmp_path / "b")

    def test_rerun_from_emitted_config(self, config_path, tmp_path):
        out1 = tmp_path / "a"
        assert main(["run", "--config", config_path, "--out", str(out1)]) == 0
        out2 = tmp_path / "b"
        assert main(["run", "--config", str(out1 / "config.yaml"),
                     "--out", str(out2)]) == 0
        assert bundle_bytes(out1) == bundle_bytes(out2)

    def test_writes_stay_inside_out_dir(self, config_path, tmp_path, monkeypatch):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["run", "--config", config_path,
                     "--out", str(tmp_path / "r")]) == 0
        assert list(work.iterdir()) == []


class TestSweep:
    def test_points_and_summary(self, config_path, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["sweep", "device.eta", "0.5", "1.0",
                     "--config", config_path, "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["points"] == 2
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert lines[0].startswith("device.eta,")
        values = [float(line.split(",")[0]) for line in lines[1:]]
        assert values == [0.5, 1.0]
        for sub in ("point_000", "point_001"):
            assert (out / sub / "metrics.json").is_file()
        eff0 = yaml.safe_load((out / "point_000" / "config.yaml").read_text())
        assert eff0["device"]["eta"] == 0.5

    def test_null_value_is_nan_in_summary(self, config_path, tmp_path):
        # null means "use the device value"; the summary cannot show it as a number
        out = tmp_path / "s"
        assert main(["sweep", "params.eta", "0.67", "null",
                     "--config", config_path, "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert [line.split(",")[0] for line in lines[1:]] == ["0.67", "nan"]

    def test_parallel_matches_serial(self, config_path, tmp_path):
        kwargs = ["sweep", "params.window_ns", "100", "150",
                  "--config", config_path]
        assert main([*kwargs, "--out", str(tmp_path / "ser")]) == 0
        assert main([*kwargs, "--out", str(tmp_path / "par"), "--jobs", "2"]) == 0
        assert bundle_bytes(tmp_path / "ser") == bundle_bytes(tmp_path / "par")

    def test_no_values_is_usage_error(self, config_path, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["sweep", "device.eta", "--config", config_path,
                     "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ConfigError"

    def test_value_read_as_option_is_usage_error(self, config_path, tmp_path, capsys):
        # argparse takes -1e-05 for an option; "--" before the values avoids that
        out = tmp_path / "s"
        assert main(["sweep", "params.tol", "-1e-05", "--config", config_path,
                     "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert set(json.loads(err[0])) == {"error", "message"}

    def test_exponent_form_values_are_floats(self, tmp_path, capsys):
        config = tmp_path / "bell.yaml"
        config.write_text(yaml.safe_dump(default_config("bell")))
        out = tmp_path / "s"
        assert main(["sweep", "params.tol", "1e-07", "2e-08",
                     "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert [float(line.split(",")[0]) for line in lines[1:]] == [1e-07, 2e-08]
        eff1 = yaml.safe_load((out / "point_001" / "config.yaml").read_text())
        assert eff1["params"]["tol"] == 2e-08

    def test_bad_path_writes_nothing(self, config_path, tmp_path, capsys):
        out = tmp_path / "s"
        code = main(["sweep", "params.nope", "1", "2",
                     "--config", config_path, "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


class TestExitCodes:
    def test_missing_config_is_2(self, tmp_path, capsys):
        code = main(["validate", "--config", str(tmp_path / "nope.yaml")])
        assert code == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "ConfigError"
        assert "not found" in diag["message"]

    def test_unknown_key_is_2(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("experiment: ping_pong\nbogus: 1\n")
        assert main(["validate", "--config", str(path)]) == 2

    def test_runtime_validation_is_2(self, tmp_path):
        path = tmp_path / "c.yaml"
        raw = default_config("ping_pong")
        raw["params"]["window_ns"] = -5.0
        path.write_text(yaml.safe_dump(raw))
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "r")]) == 2

    def test_too_few_interference_phases_is_2(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        raw = default_config("interference")
        raw["params"].update({"n_phases": 4, "realizations": 8})
        path.write_text(yaml.safe_dump(raw))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ValidationError"

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_interference_chunk_below_one_is_2(self, tmp_path, capsys, chunk):
        path = tmp_path / "c.yaml"
        raw = default_config("interference")
        raw["params"].update({"n_phases": 5, "realizations": 8, "chunk": chunk})
        path.write_text(yaml.safe_dump(raw))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ValidationError"

    def test_run_takes_no_jobs_flag(self, config_path, tmp_path, capsys):
        # --jobs parallelises sweep points; a single run has none to share
        out = tmp_path / "r"
        assert main(["run", "--config", config_path, "--out", str(out), "--jobs", "2"]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ConfigError"

    def test_non_string_experiment_is_2(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        path.write_text("experiment: [bell]\n")
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ConfigError"

    @pytest.mark.parametrize("experiment, params", [
        ("bell", {"alpha": 0}),  # a zero release, not a full one
        ("spectroscopy", {"qubit": 0}),
        ("spectroscopy", {"qubit": 3}),
        ("vacuum_rabi", {"qubit": 3}),
        ("saw_response", {"points": -1}),
        ("spectroscopy", {"points": 0}),
        # a negative tol crashed inside scipy; zero or a subnormal one stalled RK45
        ("bell", {"tol": -2}),
        ("swap", {"tol": 0}),
        ("vacuum_rabi", {"tol": 5e-324}),
        ("double_swap", {"tol": 3.0}),
        # n_modes outside [1, MAX_MODES]
        ("spectroscopy", {"n_modes": 0}),
        ("spectroscopy", {"n_modes": 21}),
        ("vacuum_rabi", {"n_modes": 21}),
        ("vacuum_rabi", {"n_modes": 2**31}),
        # a Werner mixture is a state only for p in [0, 1]
        ("tomo_roundtrip", {"werner_p": 2.0}),
        ("tomo_roundtrip", {"werner_p": -0.5}),
    ])
    def test_out_of_range_param_is_2(self, tmp_path, capsys, monkeypatch, experiment, params):
        # too many modes must be rejected before a space is built
        build_space = multimode.build_space

        def bounded_build_space(p, *args, **kwargs):
            assert p.n_a <= MAX_MODES, "a space was built for too many modes"
            return build_space(p, *args, **kwargs)

        monkeypatch.setattr(multimode, "build_space", bounded_build_space)
        path = tmp_path / "c.yaml"
        raw = default_config(experiment)
        raw["params"].update(params)
        path.write_text(yaml.safe_dump(raw))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ValidationError"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("value", ["[", "{", ": x"])
    def test_sweep_value_that_does_not_parse_is_2(self, config_path, tmp_path, capsys, value):
        out = tmp_path / "s"
        assert main(["sweep", "--config", config_path, "--out", str(out),
                     "params.window_ns", "--", "150", value]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        diag = json.loads(err[0])
        assert diag["error"] == "ConfigError"
        assert repr(value) in diag["message"]

    @pytest.mark.parametrize("experiment, key, value", [
        ("multi_transit", "max_transits", 2.7),
        ("interference", "realizations", 2.5),
        ("interference", "n_phases", 5.5),
        ("interference", "chunk", 2.5),
        ("spectroscopy", "points", 11.5),
    ])
    def test_fractional_integer_param_is_2(self, tmp_path, capsys, experiment, key, value):
        path = tmp_path / "c.yaml"
        raw = default_config(experiment)
        raw["params"][key] = value
        path.write_text(yaml.safe_dump(raw))
        assert main(["validate", "--config", str(path)]) == 2
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert [json.loads(line)["error"] for line in err] == ["ConfigError"] * 2
        assert key in json.loads(err[0])["message"]
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
    @pytest.mark.parametrize("where, body", [
        ("params.kappa_c", "params: {kappa_c: X}"),
        ("params.window_ns", "params: {window_ns: X}"),
        ("params.eta", "params: {eta: X}"),
        ("device.eta", "device: {eta: X}"),
        ("device.q1.F_g", "device: {q1: {F_g: X}}"),
    ])
    def test_non_finite_number_is_2(self, tmp_path, capsys, where, body, value):
        # YAML's .nan and .inf are floats; a run on one would print NaN,
        # which is not JSON, or fail deep inside the integrator
        path = tmp_path / "c.yaml"
        path.write_text("experiment: ping_pong\n" + body.replace("X", value) + "\n")
        assert main(["validate", "--config", str(path)]) == 2
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert [json.loads(line)["error"] for line in err] == ["ConfigError"] * 2
        assert where in json.loads(err[0])["message"]
        assert not (tmp_path / "r").exists()

    def test_exponent_form_is_a_number(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        path.write_text("experiment: swap\nparams:\n  tol: 1e-7\n")
        assert main(["validate", "--config", str(path)]) == 0
        assert load_config(path).params["tol"] == 1e-7
        path.write_text("experiment: swap\nparams:\n  tol: 1e400\n")
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert json.loads(err[0])["error"] == "ConfigError"
        assert "finite" in json.loads(err[0])["message"]

    def test_integer_beyond_float_range_is_2(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        raw = default_config("ping_pong")
        raw["params"]["kappa_c"] = 10**400
        path.write_text(yaml.safe_dump(raw))
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert [json.loads(line)["error"] for line in err] == ["ConfigError"]

    def test_integral_float_is_taken_as_integer(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        raw = default_config("multi_transit")
        raw["params"]["max_transits"] = 2.0
        path.write_text(yaml.safe_dump(raw))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == 0
        effective = yaml.safe_load((tmp_path / "r" / "config.yaml").read_text())
        assert effective["params"]["max_transits"] == 2
        assert isinstance(effective["params"]["max_transits"], int)
        assert len(json.loads(capsys.readouterr().out)["metrics"]) > 0

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_is_2(self, tmp_path, capsys, seed):
        path = tmp_path / "c.yaml"
        raw = default_config("tomo_roundtrip")
        raw["seed"] = seed
        path.write_text(yaml.safe_dump(raw))
        assert main(["validate", "--config", str(path)]) == 2
        raw["seed"] = 1
        path.write_text(yaml.safe_dump(raw))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "r"),
                     "--seed", str(seed)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert [json.loads(line)["error"] for line in err] == ["ConfigError"] * 2
        assert not (tmp_path / "r").exists()

    def test_integration_failure_is_3(self, config_path, tmp_path,
                                      monkeypatch, capsys):
        def blow_up(*args, **kwargs):
            raise IntegrationError("step size underflow")

        monkeypatch.setattr("sawlink.cli.run_experiment", blow_up)
        code = main(["run", "--config", config_path, "--out", str(tmp_path / "r")])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "IntegrationError"

    def test_unwritable_out_is_4(self, config_path, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["run", "--config", config_path,
                     "--out", str(blocker / "sub")])
        assert code == 4

    def test_unexpected_errors_propagate(self, config_path, tmp_path,
                                         monkeypatch):
        def blow_up(*args, **kwargs):
            raise RuntimeError("logic bug")

        monkeypatch.setattr("sawlink.cli.run_experiment", blow_up)
        with pytest.raises(RuntimeError):
            main(["run", "--config", config_path, "--out", str(tmp_path / "r")])


# The fuzz runs all ten experiments end to end (the cheap ones made
# smaller still here) and validates them too.
RUN_EXPERIMENTS = ("saw_response", "spectroscopy", "tomo_roundtrip",
                   "ping_pong", "multi_transit", "interference",
                   "swap", "double_swap", "bell", "vacuum_rabi")
SMALL_PARAMS = {
    "saw_response": {"points": 21},
    "spectroscopy": {"points": 11, "n_modes": 4},
    "tomo_roundtrip": {"n_states": 4},
    "multi_transit": {"max_transits": 2},
    "interference": {"n_phases": 5, "realizations": 8},
    "vacuum_rabi": {"n_modes": 3, "points": 40},
}


def _paths(tree, prefix=()):
    """Every key path of a config tree, sections included, plus one unknown
    key at the top, under ``params`` and under ``device``."""
    for key, value in tree.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))
    if prefix in ((), ("params",), ("device",)):
        yield prefix + ("bogus",)


values = (
    st.integers(-3, 3)
    | st.floats(-5.0, 5.0)
    | st.sampled_from([float("nan"), float("inf"), -float("inf")])
    | st.none()
    | st.text("abx", max_size=3)
    | st.lists(st.integers(0, 2), max_size=2)
)


@st.composite
def cases(draw, experiments):
    """An experiment and one to three (key path, value) changes to its defaults."""
    experiment = draw(st.sampled_from(experiments))
    paths = sorted(set(_paths(default_config(experiment))))
    changes = draw(st.lists(st.tuples(st.sampled_from(paths), values), min_size=1, max_size=3))
    return experiment, changes


def _mutated(experiment, changes):
    raw = default_config(experiment)
    raw["params"].update(SMALL_PARAMS.get(experiment, {}))
    for path, value in changes:
        node = raw
        for key in path[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
        if isinstance(node, dict):
            node[path[-1]] = value
    return raw


def _main_exits_cleanly(argv):
    """Run the CLI on ``argv``; the exit code and stderr must follow the contract."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}
    return code


def _exit_cleanly(command, raw):
    """Run ``command`` on ``raw``; the exit code and stderr must follow the contract."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.yaml"
        path.write_text(yaml.safe_dump(raw))
        argv = [command, "--config", str(path)]
        if command == "run":
            argv += ["--out", str(Path(tmp) / "r")]
        _main_exits_cleanly(argv)


class TestConfigFuzz:
    @settings(max_examples=60, deadline=None)
    @given(case=cases(RUN_EXPERIMENTS))
    @example(case=("bell", [(("params", "alpha"), 0)]))  # stops at the alpha check
    @example(case=("spectroscopy", [(("params", "qubit"), 0)]))
    @example(case=("spectroscopy", [(("params", "qubit"), 3)]))
    @example(case=("saw_response", [(("params", "points"), -1)]))
    @example(case=("spectroscopy", [(("params", "points"), 0)]))
    @example(case=("tomo_roundtrip", [(("seed",), -1)]))
    def test_run_exits_cleanly(self, case):
        _exit_cleanly("run", _mutated(*case))

    @settings(max_examples=80, deadline=None)
    @given(case=cases(tuple(sorted(EXPERIMENTS))))
    @example(case=("interference", [(("seed",), -1)]))
    def test_validate_exits_cleanly(self, case):
        _exit_cleanly("validate", _mutated(*case))


# sweeps run every point twice (serial and parallel), so they leave out
# the slowest experiment
SWEEP_EXPERIMENTS = tuple(e for e in RUN_EXPERIMENTS if e != "double_swap")
# swept values that are not YAML
UNPARSEABLE = ("[", "{", ": x")


@st.composite
def sweeps(draw):
    """An experiment, a swept key path with one to three values (near the
    default, anywhere, or not YAML at all), and an optional --seed."""
    experiment = draw(st.sampled_from(SWEEP_EXPERIMENTS))
    raw = _mutated(experiment, [])
    paths = sorted(p for p in _paths(raw) if p[0] in ("params", "device", "seed"))
    path = draw(st.sampled_from(paths))
    node = raw
    for key in path:
        node = node.get(key) if isinstance(node, dict) else None
    near = values
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        near = st.floats(0.5, 1.5).map(lambda f: type(node)(f * node)) | values
    texts = near.map(json.dumps) | st.sampled_from(UNPARSEABLE)
    swept = draw(st.lists(texts, min_size=1, max_size=3))
    seed = draw(st.none() | st.integers(-1, 2**64))
    return experiment, ".".join(path), swept, seed


def _sweep_exits_cleanly(raw, path, swept, extra, out):
    """Sweep ``path`` over ``swept`` into ``out``, returning the exit code."""
    config = out.parent / "c.yaml"
    config.write_text(yaml.safe_dump(raw))
    # options first and the values after "--", so a value such as -1e-05 is
    # not read as an option
    return _main_exits_cleanly(
        ["sweep", "--config", str(config), "--out", str(out), *extra, path, "--", *swept]
    )


class TestSweepFuzz:
    @settings(max_examples=15, deadline=None)
    @given(case=sweeps(), jobs=st.integers(0, 3))
    @example(case=("ping_pong", "params.window_ns", ["100", "150", "140"], 3), jobs=2)
    @example(case=("swap", "params.eta", ["0.6", "0.7"], None), jobs=2)
    @example(case=("bell", "params.alpha", ["0.4", "0.6"], 5), jobs=2)
    @example(case=("interference", "seed", ["1", "2"], None), jobs=2)
    def test_parallel_sweep_matches_serial(self, case, jobs):
        experiment, path, swept, seed = case
        raw = _mutated(experiment, [])
        extra = [] if seed is None else ["--seed", str(seed)]
        with tempfile.TemporaryDirectory() as tmp:
            serial, parallel = Path(tmp) / "ser" / "s", Path(tmp) / "par" / "s"
            serial.parent.mkdir()
            parallel.parent.mkdir()
            code = _sweep_exits_cleanly(raw, path, swept, extra, serial)
            assert _sweep_exits_cleanly(raw, path, swept, [*extra, "--jobs", str(jobs)],
                                        parallel) == code
            if code == 0:
                assert bundle_bytes(serial) == bundle_bytes(parallel)
