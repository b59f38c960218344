import pytest

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
