import os
import subprocess
import sys
from pathlib import Path

import pytest

import sawlink
from sawlink.device import dephasing_rate
from sawlink.errors import ValidationError


class TestDephasingRate:
    def test_lifetime_limited_coherence_gives_zero(self):
        assert dephasing_rate(2 * 21.7, 21.7) == pytest.approx(0.0, abs=1e-15)

    def test_first_qubit_value(self):
        assert dephasing_rate(2.10, 21.7) == pytest.approx(0.45315, abs=5e-5)

    def test_second_qubit_value(self):
        assert dephasing_rate(0.60, 26.1) == pytest.approx(1.64751, abs=5e-5)

    def test_inconsistent_inputs_rejected(self):
        with pytest.raises(ValidationError):
            dephasing_rate(60.0, 26.1)


def test_base_modules_load_no_scipy_and_no_lindblad_module():
    # the imports run one way: the base modules need numpy alone, and the
    # Lindblad side (`dynamics`, `cascade`) sits on top of them
    script = (
        "import sys\n"
        "import sawlink.qcore, sawlink.device, sawlink.multimode, sawlink.tomo, sawlink.serialize\n"
        "print(*sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')\n"
        "              or m in ('sawlink.dynamics', 'sawlink.cascade')))\n"
    )
    src = str(Path(sawlink.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.split() == []
