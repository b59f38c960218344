"""Command-line interface: bundles, sweeps, exit codes."""

import concurrent.futures
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sawlink
from sawlink import cli, multimode
from sawlink.cli import main
from sawlink.config import default_config, load_config
from sawlink.errors import IntegrationError
from sawlink.experiments import EXPERIMENTS, ExperimentOutput

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

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_stdout_bytes_match_safe_dump(self, experiment, capsysbinary):
        assert main(["defaults", experiment]) == 0
        want = yaml.safe_dump(default_config(experiment), sort_keys=True)
        assert capsysbinary.readouterr().out == want.encode()

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

    def test_vacuum_rabi_mode_counts_do_not_leak(self, tmp_path):
        # the ladder is built once per mode count: an 11-mode point after a
        # 5-mode one gives the first 11-mode point's bundle
        path = tmp_path / "vr.yaml"
        path.write_text(yaml.safe_dump(default_config("vacuum_rabi")))
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(path), "--out", str(out),
                     "params.n_modes", "--", "11", "5", "11"]) == 0
        first, other, again = (bundle_bytes(out / f"point_{i:03d}") for i in range(3))
        assert first == again
        assert first["metrics.json"] != other["metrics.json"]

    def test_parallel_matches_serial(self, config_path, tmp_path):
        kwargs = ["sweep", "params.window_ns", "100", "150",
                  "--config", config_path]
        assert main([*kwargs, "--out", str(tmp_path / "ser")]) == 0
        assert main([*kwargs, "--out", str(tmp_path / "par"), "--jobs", "2"]) == 0
        assert bundle_bytes(tmp_path / "ser") == bundle_bytes(tmp_path / "par")

    def test_pool_has_no_more_workers_than_points(self, config_path, tmp_path, monkeypatch):
        # the pool forks every worker at the first submit, so a few points
        # with many jobs must not ask for more workers than there are points
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        kwargs = ["sweep", "params.window_ns", "100", "150", "--config", config_path]
        assert main([*kwargs, "--out", str(tmp_path / "ser")]) == 0
        assert main([*kwargs, "--out", str(tmp_path / "par"), "--jobs", "64"]) == 0
        assert sizes == [2]
        assert bundle_bytes(tmp_path / "ser") == bundle_bytes(tmp_path / "par")

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_worker_count_below_one_is_usage_error(self, config_path, tmp_path, capsys, jobs):
        # a sweep asked for no workers, or a negative count, runs nothing
        out = tmp_path / "s"
        assert main(["sweep", "params.window_ns", "100", "--config", config_path,
                     "--out", str(out), "--jobs", jobs]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {
            "error": "ConfigError",
            "message": f"sawlink sweep: argument --jobs: worker count must be at least 1, "
                       f"not {jobs}"}

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_invalid_point_writes_nothing(self, tmp_path, capsys, jobs):
        # every point is checked before the first bundle is written
        config = tmp_path / "tomo.yaml"
        config.write_text(yaml.safe_dump(default_config("tomo_roundtrip")))
        out = tmp_path / "s"
        assert main(["sweep", "params.werner_p", "--config", str(config), "--out", str(out),
                     "--jobs", jobs, "--", "0.5", "2.0"]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "werner_p" in json.loads(err[0])["message"]

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

    @pytest.mark.parametrize("experiment", ["ping_pong", "multi_transit", "interference"])
    def test_fast_coupling_runs(self, tmp_path, capsys, experiment):
        # a coupling past 0.4/ns is resolved by a shorter delay-loop step
        path = tmp_path / "c.yaml"
        raw = default_config(experiment)
        raw["params"]["kappa_c"] = 1.0
        if experiment == "interference":
            raw["params"].update({"n_phases": 5, "realizations": 8})
        path.write_text(yaml.safe_dump(raw))
        assert main(["validate", "--config", str(path)]) == 0
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == 0
        assert capsys.readouterr().err == ""

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

    @pytest.mark.parametrize("update", [
        {"g_mhz": 0.3, "horizon_tau": 0.5, "points": 120},
        {"g_mhz": 0.01, "horizon_tau": 1.0, "n_modes": 3, "points": 120},
    ], ids=["short-window", "weak-coupling"])
    def test_unconverged_revival_fit_is_2(self, tmp_path, capsys, update):
        # the config is valid; the revival edge fit on its result does not
        # converge, which is a run-time ValidationError, not a traceback
        path = tmp_path / "c.yaml"
        raw = default_config("vacuum_rabi")
        raw["params"].update(update)
        path.write_text(yaml.safe_dump(raw))
        assert main(["validate", "--config", str(path)]) == 0
        capsys.readouterr()
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {
            "error": "ValidationError",
            "message": "revival edge fit did not converge on the given window",
        }

    # 10**17 float64 elements are 711 PiB, beyond any address space, so the
    # allocation fails at once whatever the host's memory or overcommit
    # policy: the grids of saw_response and vacuum_rabi, and multi_transit's
    # transit counts
    @pytest.mark.parametrize("experiment, params", [
        ("saw_response", {"points": 10**17}),
        ("vacuum_rabi", {"points": 10**17}),
        ("multi_transit", {"max_transits": 10**17}),
    ], ids=["saw_response", "vacuum_rabi", "multi_transit"])
    def test_grid_too_large_for_memory_fails_validate(self, tmp_path, capsys, experiment,
                                                      params):
        code, err = _validate(tmp_path, capsys, experiment, params)
        assert code == 2
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "MemoryError"

    def test_million_transits_run(self, tmp_path, capsys):
        # the transit count sizes no delay loop: two passes of ping_pong's
        # loop serve every count, so a million transits run
        code, _ = _validate(tmp_path, capsys, "multi_transit", {"max_transits": 1000000})
        assert code == 0
        assert main(["run", "--config", str(tmp_path / "c.yaml"),
                     "--out", str(tmp_path / "r")]) == 0
        assert capsys.readouterr().err == ""

    # the delay loop is sized from its grid before anything is allocated:
    # against 8 GiB, ping_pong and multi_transit at kappa_c 1e4/ns (78.5M
    # steps) fail `validate`
    @pytest.mark.parametrize("experiment, params, steps", [
        ("ping_pong", {"kappa_c": 10000.0}, 78515000),
        ("multi_transit", {"kappa_c": 10000.0}, 78515000),
    ])
    def test_delay_loop_too_large_for_memory_fails_validate(self, tmp_path, capsys, monkeypatch,
                                                            experiment, params, steps):
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**21}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        code, err = _validate(tmp_path, capsys, experiment, params)
        assert code == 2
        assert len(err) == 1
        diag = json.loads(err[0])
        assert diag["error"] == "ValidationError"
        assert f"the delay loop takes {steps} steps" in diag["message"]
        assert f"the {2**33} bytes of physical memory" in diag["message"]

    def test_realizations_too_large_for_memory_fail_run(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        raw = default_config("interference")
        raw["params"]["realizations"] = 10**17
        path.write_text(yaml.safe_dump(raw))
        assert main(["validate", "--config", str(path)]) == 0
        capsys.readouterr()
        out = tmp_path / "r"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "MemoryError"

    def test_sweep_point_too_large_for_memory_writes_nothing(self, tmp_path, capsys):
        config = tmp_path / "saw.yaml"
        config.write_text(yaml.safe_dump(default_config("saw_response")))
        out = tmp_path / "s"
        assert main(["sweep", "params.points", "--config", str(config), "--out", str(out),
                     "--", "401", str(10**17)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "MemoryError"

    def test_run_takes_no_jobs_flag(self, config_path, tmp_path, capsys):
        # --jobs parallelises sweep points; a single run has none to share
        out = tmp_path / "r"
        assert main(["run", "--config", config_path, "--out", str(out), "--jobs", "2"]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ConfigError"

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_coherence_beyond_two_t1_fails_validate(self, tmp_path, capsys, experiment):
        # q2's T2R of 60 us exceeds 2 T1 = 52.2 us: the device table is
        # inconsistent whichever experiment reads it
        path = tmp_path / "c.yaml"
        raw = default_config(experiment)
        raw["device"]["q2"]["T2R_us"] = 60
        path.write_text(yaml.safe_dump(raw))
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        diag = json.loads(err[0])
        assert diag["error"] == "ValidationError"
        assert "2*T1" in diag["message"]

    def test_vacuum_rabi_tol_is_an_unknown_key(self, tmp_path, capsys):
        # its decay is solved exactly, so there is no tolerance to set
        path = tmp_path / "c.yaml"
        raw = default_config("vacuum_rabi")
        raw["params"]["tol"] = 1e-9
        path.write_text(yaml.safe_dump(raw))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "ConfigError",
                                      "message": "unknown key(s) under params: tol"}
        assert not (tmp_path / "r").exists()

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
        # a negative tol crashed inside scipy and a zero one stalled RK45;
        # qubits count from 1
        ("bell", {"tol": -2}),
        ("swap", {"tol": 0}),
        ("vacuum_rabi", {"qubit": 0}),
        ("double_swap", {"tol": 3.0}),
        # n_modes outside [1, multimode.MAX_MODES]
        ("spectroscopy", {"n_modes": 0}),
        ("spectroscopy", {"n_modes": 21}),
        ("vacuum_rabi", {"n_modes": 21}),
        ("vacuum_rabi", {"n_modes": 2**31}),
        # a Werner mixture is a state only for p in [0, 1]
        ("tomo_roundtrip", {"werner_p": 2.0}),
        ("tomo_roundtrip", {"werner_p": -0.5}),
    ])
    def test_out_of_range_param_is_2(self, tmp_path, capsys, monkeypatch, experiment, params):
        # too many modes must be rejected before a sector is built
        sector_hamiltonian = multimode.sector_hamiltonian

        def bounded_sector(p):
            assert p.n_a <= multimode.MAX_MODES, "a sector was built for too many modes"
            return sector_hamiltonian(p)

        monkeypatch.setattr(multimode, "sector_hamiltonian", bounded_sector)
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

    def test_sweep_value_with_duplicate_key_is_2(self, config_path, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["sweep", "--config", config_path, "--out", str(out),
                     "params.window_ns", "--", "150", "{a: 1, a: 2}"]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        diag = json.loads(err[0])
        assert diag["error"] == "ConfigError"
        assert "duplicate key 'a'" in diag["message"]

    def test_config_that_is_not_utf8_is_2(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        path.write_bytes(b"experiment: ping_pong\nparams:\n  eta: 0.5 # \xff\n")
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        diag = json.loads(err[0])
        assert diag["error"] == "ConfigError"
        assert "does not parse" in diag["message"]

    @pytest.mark.parametrize("text, key, line", [
        ("experiment: ping_pong\nparams:\n  eta: 0.5\nparams:\n  window_ns: 150\n",
         "params", 4),
        ("experiment: ping_pong\ndevice:\n  q1:\n    g_mhz: 2.0\n    T1_int_us: 30.0\n"
         "    g_mhz: 3.0\n", "g_mhz", 6),
    ], ids=["top-level", "device.q1"])
    def test_duplicate_key_is_2(self, tmp_path, capsys, text, key, line):
        # the later section must not silently replace the earlier one
        path = tmp_path / "c.yaml"
        path.write_text(text)
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        diag = json.loads(err[0])
        assert diag["error"] == "ConfigError"
        assert f"duplicate key {key!r}" in diag["message"]
        assert f"line {line}," in diag["message"]

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


class TestParserCache:
    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_state_between_calls(self, config_path, tmp_path, capsys):
        sweep = ["sweep", "params.window_ns", "150", "--config", config_path]
        assert main([*sweep, "--out", str(tmp_path / "a")]) == 0
        # a usage error after options that the sweeps below do not give
        assert main(["sweep", "params.window_ns", "--config", config_path, "--seed", "7",
                     "--jobs", "2", "--out", str(tmp_path / "x")]) == 2
        assert main([*sweep, "--out", str(tmp_path / "b")]) == 0
        assert not (tmp_path / "x").exists()
        assert bundle_bytes(tmp_path / "a") == bundle_bytes(tmp_path / "b")

    def test_command_looked_up_when_called(self, config_path, tmp_path, monkeypatch, capsys):
        # a function replaced on the module after the parser exists is the one that runs
        assert main(["validate", "--config", config_path]) == 0
        calls = []
        monkeypatch.setattr("sawlink.cli.cmd_sweep", lambda args: calls.append(args) or 0)
        out = tmp_path / "s"
        assert main(["sweep", "params.window_ns", "150", "--config", config_path,
                     "--out", str(out)]) == 0
        assert [(args.param, args.values) for args in calls] == [("params.window_ns", ["150"])]
        assert not out.exists()


# Each parameter of each experiment set to 0, then to -1, one at a time.
PROBES = [(name, key, value) for name in sorted(EXPERIMENTS)
          for key in EXPERIMENTS[name].defaults for value in (0, -1)]
# the probes inside every range: a line with no transmission, no phase noise,
# a zero or reversed spectroscopy span, a zero or negative vacuum-Rabi
# coupling, and a Werner mixture with no Bell part
PROBES_IN_RANGE = {(name, "eta", 0) for name in ("ping_pong", "multi_transit", "interference",
                                                 "swap", "double_swap", "bell")} | {
    ("interference", "sigma_phi", 0), ("spectroscopy", "span_mhz", 0),
    ("spectroscopy", "span_mhz", -1), ("vacuum_rabi", "g_mhz", -1),
    ("vacuum_rabi", "g_mhz", 0), ("tomo_roundtrip", "werner_p", 0),
}


def _validate(tmp_path, capsys, experiment, params):
    """``validate`` on the defaults of ``experiment`` updated by ``params``:
    the exit code and the stderr lines."""
    path = tmp_path / "c.yaml"
    raw = default_config(experiment)
    raw["params"].update(params)
    path.write_text(yaml.safe_dump(raw))
    code = main(["validate", "--config", str(path)])
    return code, capsys.readouterr().err.strip().splitlines()


class TestValidateChecksRanges:
    def test_probe_set(self):
        assert len(PROBES) == 86
        assert PROBES_IN_RANGE <= set(PROBES) and len(PROBES_IN_RANGE) == 12

    @pytest.mark.parametrize("experiment, key, value", PROBES)
    def test_zero_or_negative_param(self, tmp_path, capsys, experiment, key, value):
        code, err = _validate(tmp_path, capsys, experiment, {key: value})
        if (experiment, key, value) in PROBES_IN_RANGE:
            assert (code, err) == (0, [])
        else:
            assert code == 2
            assert len(err) == 1
            assert json.loads(err[0])["error"] == "ValidationError"

    def test_missing_revival_fails_at_run(self, tmp_path, capsys):
        # whether the decay revives is known only from the result
        raw = default_config("vacuum_rabi")
        raw["params"].update({"g_mhz": 0, "n_modes": 3, "points": 40})
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["validate", "--config", str(path)]) == 0
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "no revival" in json.loads(err[0])["message"]

    @pytest.mark.parametrize("experiment, params", [
        # qubit 1's release [w, 2w] runs into its capture at tau = 508 ns
        ("double_swap", {"window_ns": 300.0}),
        # the longest phase pulse, 48 ns, runs from w into the capture at tau
        ("interference", {"window_ns": 480.0}),
        # of the pulses 0, 12.5, 25, 37.5 and 0 ns only the fourth, the
        # longest and not the last, reaches the capture
        ("interference", {"window_ns": 475.0, "n_phases": 5}),
    ])
    def test_pulse_overlapping_capture_fails_validate(self, tmp_path, capsys, experiment,
                                                      params):
        code, err = _validate(tmp_path, capsys, experiment, params)
        assert code == 2
        assert len(err) == 1
        diag = json.loads(err[0])
        assert diag["error"] == "ValidationError"
        assert "overlapping segments on qubit 1" in diag["message"]


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
    # a subnormal T2R makes interference's derived sigma_phi overflow to inf
    @example(case=("interference", [(("device", "q1", "T2R_us"), 2.225073858507203e-309)]))
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
            # a worker count below 1 is a usage error, whatever the sweep
            assert _sweep_exits_cleanly(raw, path, swept, [*extra, "--jobs", str(jobs)],
                                        parallel) == (code if jobs >= 1 else 2)
            if code == 0 and jobs >= 1:
                assert bundle_bytes(serial) == bundle_bytes(parallel)


def _modules_after(script: str, *args: str, cwd: Path) -> list[str]:
    """The modules a fresh interpreter holds once ``script`` ran with ``args``."""
    script += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    src = str(Path(sawlink.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env, check=True,
                         capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def _lindblad(modules: list[str]) -> list[str]:
    return [m for m in modules if m in ("sawlink.cascade", "sawlink.dynamics")
            or m == "scipy" or m.startswith("scipy.")]


# the runs whose physics needs numpy alone, interference reduced as in CI
NUMPY_RUNS = ("ping_pong", "multi_transit", "interference", "saw_response", "spectroscopy",
              "tomo_roundtrip", "vacuum_rabi")
RUN_DEFAULTS = (
    "import sys\n"
    "import yaml\n"
    "from sawlink.cli import main\n"
    "from sawlink.config import default_config\n"
    "for name in sys.argv[1:]:\n"
    "    raw = default_config(name)\n"
    "    if name == 'interference':\n"
    "        raw['params'].update(n_phases=5, realizations=64)\n"
    "    with open(f'{name}.yaml', 'w') as f:\n"
    "        yaml.safe_dump(raw, f)\n"
    "    assert main(['run', '--config', f'{name}.yaml', '--out', name]) == 0\n"
)


class TestImportGraph:
    """The Lindblad side (cascade, dynamics, scipy) loads only when swap,
    double_swap or bell runs, and scipy.integrate never; vacuum_rabi's
    revival fit is the package's own, so it loads no scipy."""

    def test_cli_import_loads_no_scipy_and_no_process_pool(self, tmp_path):
        loaded = _modules_after("import sawlink.cli", cwd=tmp_path)
        assert _lindblad(loaded) == []
        assert "concurrent.futures.process" not in loaded

    def test_every_default_config_builds_without_scipy(self, tmp_path):
        script = (
            "import sys\n"
            "from sawlink.config import config_from_dict, default_config\n"
            "for name in sys.argv[1:]:\n"
            "    config_from_dict(default_config(name))\n"
        )
        assert _lindblad(_modules_after(script, *sorted(EXPERIMENTS), cwd=tmp_path)) == []

    def test_numpy_only_runs_load_no_scipy(self, tmp_path):
        assert _lindblad(_modules_after(RUN_DEFAULTS, *NUMPY_RUNS, cwd=tmp_path)) == []

    def test_bell_run_loads_scipy(self, tmp_path):
        # the control: the same check sees the Lindblad side once a Lindblad runner runs
        loaded = _modules_after(RUN_DEFAULTS, "bell", cwd=tmp_path)
        assert "sawlink.dynamics" in loaded and "scipy.sparse" in loaded

    def test_lindblad_runs_load_no_scipy_integrate(self, tmp_path):
        # the stepper is numpy: scipy serves the Lindblad side with sparse alone
        loaded = _modules_after(RUN_DEFAULTS, "bell", "vacuum_rabi", cwd=tmp_path)
        assert "sawlink.dynamics" in loaded
        assert [m for m in loaded if m == "scipy.integrate" or m.startswith("scipy.integrate.")] == []

    def test_vacuum_rabi_run_loads_no_lindblad_module(self, tmp_path):
        # its decay is solved exactly in the one-excitation sector, and its
        # revival edge fitted by multimode's own Levenberg-Marquardt, with numpy
        loaded = _modules_after(RUN_DEFAULTS, "vacuum_rabi", cwd=tmp_path)
        assert "sawlink.multimode" in loaded
        assert _lindblad(loaded) == []
