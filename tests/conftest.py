import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from acfdi.attacks import AttackSpec, OverloadTarget, SolverParams, design_attack
from acfdi.network import build_admittance, load_bundled_case39
from acfdi.powerflow import BranchFlow, branch_flows, newton_power_flow
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
    """One branch's flow record at a state, read from branch_flows."""
    sf, st = branch_flows(state, adm)
    k = adm.position[br.index]
    return BranchFlow(sf[k].real, sf[k].imag, st[k].real, st[k].imag)


def table_state(base, scenario):
    """Base state with the zone buses replaced by the pinned reference voltages."""
    vm = {b: cols[scenario][0] for b, cols in ref.VOLTAGES.items()}
    va = {b: np.radians(cols[scenario][1]) for b, cols in ref.VOLTAGES.items()}
    return base.replace_buses(vm, va)


@pytest.fixture(scope="session")
def zero_sigmas():
    return {k: 0.0 for k in ("Pflow", "Qflow", "Pinj", "Qinj", "Vmag", "Vang")}
