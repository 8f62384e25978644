import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from acfdi import estimation
from acfdi.attacks import (
    AttackSpec, OverloadTarget, SolverParams, assemble_attack_vector, design_attack,
)
from acfdi.estimation import MeasurementModel, network_powers
from acfdi.network import StateVector, build_admittance, load_bundled_case39
from acfdi.powerflow import newton_power_flow
from acfdi.zones import validate_zone

import reference39 as ref


TWO_BUS_CASE = """function mpc = case2
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0 0 0 0 1 1.0 0 345 1 1.06 0.94;
    2 1 50 20 0 0 1 1.0 0 345 1 1.06 0.94;
];
mpc.gen = [
    1 0 0 300 -300 1.0 100 1 500 0;
];
mpc.branch = [
    1 2 0.01 0.1 0.02 250 250 250 0 0 1;
];
"""


@pytest.fixture(scope="session")
def case39():
    return load_bundled_case39()


@pytest.fixture(scope="session")
def adm39(case39):
    return build_admittance(case39)


@pytest.fixture(scope="session")
def base39(case39, adm39):
    return newton_power_flow(case39, adm39).state


@pytest.fixture(scope="session")
def zone39(case39):
    return validate_zone(case39, ref.ZONE_INTERIOR, ref.ZONE_BOUNDARY)


@pytest.fixture(scope="session")
def attack_optimal(case39, adm39, base39, zone39):
    spec = AttackSpec(
        zone=zone39,
        targets=(OverloadTarget(*ref.TARGET, ref.OVERLOAD_FACTOR),),
        mode="optimal",
    )
    return design_attack(case39, base39, spec, adm39)


@pytest.fixture(scope="session")
def attack_arbitrary(case39, adm39, base39, zone39):
    spec = AttackSpec(
        zone=zone39,
        targets=(OverloadTarget(*ref.TARGET, ref.OVERLOAD_FACTOR),),
        mode="arbitrary",
        params=SolverParams(seed=1),
    )
    return design_attack(case39, base39, spec, adm39)


def flow_of(adm, state, br):
    """One branch's flow at a state, read from network_powers, keyed as the
    impact report's flow objects: {"pf", "qf", "pt", "qt"}."""
    sf, st = network_powers(state, adm)[1:]
    k = adm.position[br.index]
    return {"pf": sf[k].real, "qf": sf[k].imag, "pt": st[k].real, "qt": st[k].imag}


def replace_buses(state, vm_by_bus, va_by_bus):
    """state with the magnitudes and angles of these buses replaced."""
    vm = state.vm.copy()
    va = state.va.copy()
    for bus, v in vm_by_bus.items():
        vm[state.index(bus)] = v
    for bus, a in va_by_bus.items():
        va[state.index(bus)] = a
    return StateVector(state.bus_ids, vm, va)


def state_bytes(state):
    """A state as bytes, the key of an evaluation in `record_evaluations`."""
    return state.vm.tobytes() + state.va.tobytes()


def assemble(case, base, x_attacked, zone, adm, solver_info=None):
    """`assemble_attack_vector` from the full layout's evaluations at base and
    at x_attacked, as `design_attack` passes them."""
    model = MeasurementModel(adm, adm.full_layout)
    at_base, at_attacked = model.evaluate(base), model.evaluate(x_attacked)
    return assemble_attack_vector(case, at_base, at_attacked, zone, adm, solver_info)


def record_evaluations(monkeypatch):
    """(rows of the model, state as bytes) of each `MeasurementModel.evaluate`
    call, in call order."""
    calls = []
    evaluate = estimation.MeasurementModel.evaluate

    def recording(model, state):
        calls.append((model.m, state_bytes(state)))
        return evaluate(model, state)

    monkeypatch.setattr(estimation.MeasurementModel, "evaluate", recording)
    return calls


def table_state(base, scenario):
    """Base state with the zone buses replaced by the pinned reference voltages."""
    vm = {b: cols[scenario][0] for b, cols in ref.VOLTAGES.items()}
    va = {b: np.radians(cols[scenario][1]) for b, cols in ref.VOLTAGES.items()}
    return replace_buses(base, vm, va)


@pytest.fixture(scope="session")
def zero_sigmas():
    return {k: 0.0 for k in ("Pflow", "Qflow", "Pinj", "Qinj", "Vmag", "Vang")}
