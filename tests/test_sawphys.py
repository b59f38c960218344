"""Acoustic hardware closed forms against measured device numbers."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sawlink
from sawlink import sawphys
from sawlink.errors import ValidationError
from sawlink.sawphys import FreeSpace, Grating, SawGeometry

GEOM = sawphys.default_geometry()


def test_is_a_leaf_module():
    # the hardware closed forms sit below every model: importing them
    # loads no other sawlink module but errors
    script = "import sys, sawlink.sawphys; print(*sorted(m for m in sys.modules if 'sawlink' in m))"
    src = str(Path(sawlink.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.split() == ["sawlink", "sawlink.errors", "sawlink.sawphys"]


class TestGeometryValidation:
    def test_defaults_valid(self):
        assert GEOM.idt.cells == 20
        assert GEOM.mirror.cells == 400

    def test_bad_pitch(self):
        with pytest.raises(ValidationError):
            Grating(pitch_um=0.0, cells=20, reflectivity=0.01j, speed_km_s=3.9)

    def test_reflectivity_magnitude(self):
        with pytest.raises(ValidationError):
            Grating(pitch_um=0.5, cells=400, reflectivity=1.0, speed_km_s=3.9)

    def test_negative_loss(self):
        with pytest.raises(ValidationError):
            FreeSpace(speed_km_s=4.0, loss_np_m=-1.0)

    def test_bad_distance(self):
        with pytest.raises(ValidationError):
            SawGeometry(GEOM.mirror, GEOM.idt, GEOM.free,
                        eff_mirror_distance_um=-1.0, band_center_ghz=3.97)


class TestIdtSpectrum:
    def test_peak_at_synchronous_frequency(self):
        f0 = GEOM.idt_center_ghz
        assert f0 == pytest.approx(3.911 / 0.985, abs=1e-12)
        assert sawphys.idt_rate_spectrum(np.array([f0]), GEOM, 0.13) == pytest.approx([0.13])

    def test_first_null_location(self):
        # cell count 20 puts the first null a 5% fractional detuning up
        null = GEOM.idt_center_ghz * (1 + 1 / GEOM.idt.cells)
        assert null == pytest.approx(4.169, abs=0.005)
        assert sawphys.idt_rate_spectrum(np.array([null]), GEOM, 0.13)[0] < 1e-20

    def test_nonnegative_on_grid(self):
        f = np.linspace(3.5, 4.5, 501)
        k = sawphys.idt_rate_spectrum(f, GEOM, 0.1)
        assert np.all(k >= 0)
        assert k.shape == f.shape

    @given(st.floats(min_value=0.0, max_value=0.4))
    def test_symmetric_about_center(self, df):
        f0 = GEOM.idt_center_ghz
        lo, hi = sawphys.idt_rate_spectrum(np.array([f0 - df, f0 + df]), GEOM, 0.1)
        assert lo == pytest.approx(hi, abs=1e-12)

    def test_window_enforced(self):
        with pytest.raises(ValidationError):
            sawphys.idt_rate_spectrum(np.array([3.0]), GEOM, 0.1)
        with pytest.raises(ValidationError):
            sawphys.idt_rate_spectrum(np.array([3.9, 4.6]), GEOM, 0.1)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            sawphys.idt_rate_spectrum(np.array([3.97]), GEOM, -0.1)


class TestMirrorStopband:
    def test_saturated_at_center(self):
        # 400 lines at |r| = 0.049: tanh^2(19.6), indistinguishable from 1
        assert sawphys.mirror_stopband(np.array([GEOM.band_center_ghz]), GEOM)[0] >= 0.999

    def test_width_from_edge_condition(self):
        assert sawphys.stopband_width_mhz(GEOM) == pytest.approx(125.0, abs=10.0)

    def test_low_outside_band(self):
        f0 = GEOM.band_center_ghz
        assert np.all(sawphys.mirror_stopband(np.array([f0 + 0.5, 3.5]), GEOM) <= 0.05)

    def test_monotone_within_first_lobe(self):
        f0 = GEOM.band_center_ghz
        half = sawphys.stopband_width_mhz(GEOM) / 2e3
        up = sawphys.mirror_stopband(np.linspace(f0, f0 + half, 200), GEOM)
        down = sawphys.mirror_stopband(np.linspace(f0, f0 - half, 200), GEOM)
        assert np.all(np.diff(up) <= 1e-12)
        assert np.all(np.diff(down) <= 1e-12)

    def test_range(self):
        f = np.linspace(3.5, 4.5, 801)
        r = sawphys.mirror_stopband(f, GEOM)
        assert np.all(r >= 0) and np.all(r <= 1)


class TestTransit:
    def test_geometric_part(self):
        geometric = sawphys.transit_time(GEOM) - GEOM.penetration_delay_ns
        assert geometric == pytest.approx(2029.6 / 4.034, abs=1e-9)
        assert geometric == pytest.approx(503.1, abs=0.1)

    def test_default_round_trip(self):
        assert sawphys.transit_time(GEOM) == pytest.approx(508.12, abs=0.01)
        assert sawphys.fsr_mhz(GEOM) == pytest.approx(1.97, abs=0.005)

    def test_distance_linearity(self):
        import dataclasses

        doubled = dataclasses.replace(GEOM, eff_mirror_distance_um=2 * 2029.6)
        base = sawphys.transit_time(GEOM) - GEOM.penetration_delay_ns
        assert sawphys.transit_time(doubled) - GEOM.penetration_delay_ns == (
            pytest.approx(2 * base, rel=1e-12)
        )

    def test_fsr_inverse_identity(self):
        assert sawphys.fsr_mhz(GEOM) * sawphys.transit_time(GEOM) == (
            pytest.approx(1e3, rel=1e-12)
        )


class TestLossBudget:
    def test_measured_loss_figures(self):
        lb = sawphys.loss_budget(GEOM, 3.97)
        assert lb.t1_saw_us == pytest.approx(1.8, abs=0.1)
        assert 4e4 <= lb.q_factor <= 6e4

    def test_q_identity(self):
        lb = sawphys.loss_budget(GEOM, 4.1)
        assert lb.q_factor == pytest.approx(
            2 * np.pi * 4.1e9 * lb.t1_saw_us * 1e-6, rel=1e-12
        )

    def test_lossless_limit(self):
        import dataclasses

        nearly = dataclasses.replace(GEOM, free=FreeSpace(4.034, 1e-9))
        lb = sawphys.loss_budget(nearly, 3.97)
        assert lb.t1_saw_us > 1e9

    def test_zero_loss_rejected(self):
        import dataclasses

        broken = dataclasses.replace(GEOM, free=FreeSpace(4.034, 0.0))
        with pytest.raises(ValidationError):
            sawphys.loss_budget(broken, 3.97)
