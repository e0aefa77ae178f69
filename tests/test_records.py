"""The result records are named tuples, immutable like the frozen dataclasses
they replaced."""

import numpy as np
import pytest

from mpembasim.channels import ThermalEnvironment, build_heat_exchange, swap_window
from mpembasim.liouville import decompose, extract_generator
from mpembasim.mpemba import mpemba_unitary
from mpembasim.operators import qubit_hamiltonian
from mpembasim.otto import CycleConfig, power_ratio, run_cycle
from mpembasim.thermo import RelaxationTrajectory, detect_crossing


def channel():
    return build_heat_exchange(ThermalEnvironment(4.77, 2.0), 215.1, 1.0)


#: the delay grid of the cycle commands at the default config
GRID = np.linspace(0.0, swap_window(CycleConfig().j_hz), 64)


def flat_trajectory():
    return RelaxationTrajectory(np.arange(3.0), np.ones(3), np.ones(3), "flat")


BUILDERS = {
    "CrossingReport": lambda: detect_crossing(flat_trajectory(), flat_trajectory()),
    "StrokeRecord": lambda: run_cycle(CycleConfig(), 1.0)[2],
    "SpectralDecomposition": lambda: decompose(extract_generator(channel(), 1.0)),
    "MpembaTransform": lambda: mpemba_unitary(
        np.array([[0.5, -0.2], [-0.2, 0.5]]), qubit_hamiltonian(2.0, axis="z")
    ),
    "PowerReport": lambda: power_ratio(CycleConfig(), GRID)[0],
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_a_result_record_refuses_attribute_assignment(name):
    record = BUILDERS[name]()
    assert type(record).__name__ == name
    assert isinstance(record, tuple)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.note = "added"
