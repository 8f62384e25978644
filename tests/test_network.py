import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import reference39 as ref
from acfdi.network import (
    CaseParseError,
    CaseValidationError,
    build_admittance,
    case_from_json,
    case_to_json,
    parse_case,
)
from conftest import TWO_BUS_CASE
from meshgrid import meshed_case

sys.path.insert(0, str(Path(__file__).parent.parent / "bench"))
from grids import tiled_case39  # noqa: E402


def _count_table_rows(text, name):
    # independent scan: count data lines inside the bracketed table
    block = re.search(rf"mpc\.{name}\s*=\s*\[(.*?)\];", text, re.DOTALL).group(1)
    return sum(
        1 for line in block.splitlines() if line.split("%")[0].strip().rstrip(";").strip()
    )


def test_case39_counts_match_independent_text_scan(case39):
    from importlib import resources

    text = resources.files("acfdi.data").joinpath("case39.m").read_text()
    assert case39.n_bus == _count_table_rows(text, "bus") == 39
    assert len(case39.branches) == _count_table_rows(text, "branch") == 46
    assert len(case39.gens) == _count_table_rows(text, "gen") == 10


def test_minimal_two_bus_case_parses():
    case = parse_case(TWO_BUS_CASE)
    assert case.n_bus == 2
    assert len(case.branches) == 1
    assert case.slack_bus == 1
    # MW inputs land in per-unit on baseMVA
    assert case.bus(2).pd == pytest.approx(0.5)
    assert case.bus(2).qd == pytest.approx(0.2)
    assert case.branches[0].rating == pytest.approx(2.5)


def test_unknown_endpoint_rejected():
    bad = TWO_BUS_CASE.replace("1 2 0.01 0.1", "1 99 0.01 0.1")
    with pytest.raises(CaseValidationError, match="unknown endpoint.*99"):
        parse_case(bad)


def test_duplicate_bus_id_rejected():
    bad = TWO_BUS_CASE.replace("2 1 50 20", "1 1 50 20")
    with pytest.raises(CaseValidationError, match="duplicate bus id 1"):
        parse_case(bad)


def test_missing_slack_rejected():
    bad = TWO_BUS_CASE.replace("1 3 0 0", "1 1 0 0")
    with pytest.raises(CaseValidationError, match="no slack bus"):
        parse_case(bad)


def test_disconnected_graph_rejected():
    bad = TWO_BUS_CASE.replace(
        "mpc.bus = [",
        "mpc.bus = [\n    3 1 10 0 0 0 1 1.0 0 345 1 1.06 0.94;",
    )
    with pytest.raises(CaseValidationError, match="disconnected graph.*3"):
        parse_case(bad)


def test_missing_table_rejected():
    bad = TWO_BUS_CASE.replace("mpc.gen", "mpc.generators")
    with pytest.raises(CaseParseError, match="missing table mpc.gen"):
        parse_case(bad)


def test_malformed_row_rejected():
    bad = TWO_BUS_CASE.replace("1 2 0.01 0.1 0.02", "1 2 oops 0.1 0.02")
    with pytest.raises(CaseParseError, match="malformed row"):
        parse_case(bad)


def test_zero_impedance_branch_rejected():
    bad = TWO_BUS_CASE.replace("1 2 0.01 0.1", "1 2 0 0")
    with pytest.raises(CaseValidationError, match="zero impedance"):
        parse_case(bad)


def test_self_loop_rejected():
    bad = TWO_BUS_CASE.replace("1 2 0.01 0.1", "2 2 0.01 0.1")
    with pytest.raises(CaseValidationError, match="self-loop"):
        parse_case(bad)


def test_tap_zero_normalized_to_one(case39):
    taps = {br.tap for br in case39.branches}
    assert 0.0 not in taps
    assert 1.025 in taps  # transformer rows keep their declared ratio


def test_shift_converted_to_radians():
    shifted = TWO_BUS_CASE.replace(
        "1 2 0.01 0.1 0.02 250 250 250 0 0 1",
        "1 2 0.01 0.1 0.02 250 250 250 1.0 30 1",
    )
    case = parse_case(shifted)
    assert case.branches[0].shift == pytest.approx(math.radians(30))


def test_single_branch_admittance_analytic():
    text = TWO_BUS_CASE.replace("1 2 0.01 0.1 0.02", "1 2 0 0.1 0")
    adm = build_admittance(parse_case(text))
    expected = np.array([[-10j, 10j], [10j, -10j]])
    assert np.allclose(adm.ybus, expected, atol=1e-14)


def test_tap_scaling_two_port():
    text = TWO_BUS_CASE.replace(
        "1 2 0.01 0.1 0.02 250 250 250 0 0 1",
        "1 2 0.01 0.1 0.02 250 250 250 1.025 0 1",
    )
    adm = build_admittance(parse_case(text))
    y = 1.0 / complex(0.01, 0.1)
    charging = 0.5j * 0.02
    assert adm.ybus[0, 0] == pytest.approx((y + charging) / 1.025**2)
    assert adm.ybus[0, 1] == pytest.approx(-y / 1.025)
    assert adm.ybus[1, 0] == pytest.approx(-y / 1.025)
    assert adm.ybus[1, 1] == pytest.approx(y + charging)


def test_case39_admittance_matches_bruteforce_stamps(case39, adm39):
    # independent element-by-element construction
    n = case39.n_bus
    oracle = np.zeros((n, n), dtype=complex)
    for br in case39.branches:
        if not br.status:
            continue
        i = case39.bus_index(br.from_bus)
        j = case39.bus_index(br.to_bus)
        ys = 1.0 / complex(br.r, br.x)
        tap = br.tap * np.exp(1j * br.shift)
        oracle[i, i] += (ys + 0.5j * br.b) / (br.tap**2)
        oracle[i, j] += -ys / np.conj(tap)
        oracle[j, i] += -ys / tap
        oracle[j, j] += ys + 0.5j * br.b
    for k, bus in enumerate(case39.buses):
        oracle[k, k] += complex(bus.gs, bus.bs)
    assert np.max(np.abs(adm39.ybus - oracle)) < 1e-12


@pytest.mark.parametrize("grid", ["case39", "tile8", "mesh6x7"])
def test_ybus_cells_keep_the_bits_of_the_stamp_loop(grid, case39):
    # Ybus sums its cells in the order the entry-by-entry loop does, so
    # every entry keeps the loop's bits; the cells are the loop's pattern
    case = {"case39": lambda: case39, "tile8": lambda: tiled_case39(8),
            "mesh6x7": lambda: meshed_case(6, 7)}[grid]()
    adm = build_admittance(case)
    n = case.n_bus
    assert np.array_equal(adm.ybus, ref.loop_ybus(adm))
    pattern = {(i, i) for i in range(n)}
    pattern |= {(i, j) for i, j in zip(adm.f_idx.tolist(), adm.t_idx.tolist())}
    pattern |= {(j, i) for i, j in pattern}
    assert adm.ybus_cells.tolist() == sorted(i * n + j for i, j in pattern)


def test_admittance_sparsity_symmetric(adm39):
    nz = np.abs(adm39.ybus) > 0
    assert (nz == nz.T).all()


def test_admittance_complex_symmetric_without_transformers():
    case = parse_case(TWO_BUS_CASE)
    adm = build_admittance(case)
    assert np.allclose(adm.ybus, adm.ybus.T)


def test_out_of_service_branch_dropped():
    text = TWO_BUS_CASE.replace(
        "mpc.branch = [\n    1 2 0.01 0.1 0.02 250 250 250 0 0 1;",
        "mpc.branch = [\n    1 2 0.01 0.1 0.02 250 250 250 0 0 1;\n"
        "    1 2 0.05 0.5 0 250 250 250 0 0 0;",
    )
    case = parse_case(text)
    assert len(case.branches) == 2
    adm = build_admittance(case)
    assert len(adm.branches) == 1
    ys = 1.0 / complex(0.01, 0.1)
    assert adm.ybus[0, 1] == pytest.approx(-ys)


def test_json_round_trip(case39):
    again = case_from_json(case_to_json(case39))
    assert again == case39
    # and the rendering itself is stable
    assert case_to_json(again) == case_to_json(case39)


def test_per_unit_consistency():
    # scaling every MW/MVAr input together with baseMVA leaves the model unchanged
    doubled = TWO_BUS_CASE
    doubled = doubled.replace("mpc.baseMVA = 100;", "mpc.baseMVA = 200;")
    doubled = doubled.replace("2 1 50 20 0 0", "2 1 100 40 0 0")
    doubled = doubled.replace(
        "1 0 0 300 -300 1.0 100 1 500 0", "1 0 0 600 -600 1.0 100 1 1000 0"
    )
    doubled = doubled.replace(
        "1 2 0.01 0.1 0.02 250 250 250", "1 2 0.01 0.1 0.02 500 500 500"
    )
    a = parse_case(TWO_BUS_CASE)
    b = parse_case(doubled)
    assert a.buses == b.buses
    assert a.branches == b.branches
    assert a.gens == b.gens


def test_case_json_is_valid_json(case39):
    doc = json.loads(case_to_json(case39))
    assert doc["base_mva"] == 100.0
    assert len(doc["buses"]) == 39
