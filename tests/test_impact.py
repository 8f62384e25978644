import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import reference39 as ref
from acfdi.attacks import apply_attack, assemble_attack_vector
from acfdi.estimation import generate_measurements, wls_estimate
from acfdi.impact import (
    ReportError,
    compute_impact,
    render_report,
    report_to_json,
)
from acfdi.powerflow import branch_flows
from conftest import flow_of
from acfdi.zones import validate_zone


@pytest.fixture(scope="module")
def estimates(case39, adm39, base39, zone39, attack_optimal, zero_sigmas):
    ms = generate_measurements(case39, base39, sigmas=zero_sigmas, seed=0, adm=adm39)
    clean = wls_estimate(ms, case39, adm39)
    attacked = wls_estimate(apply_attack(ms, attack_optimal), case39, adm39)
    return ms, clean, attacked


@pytest.fixture(scope="module")
def report(case39, adm39, base39, zone39, attack_optimal, estimates):
    _, clean, attacked = estimates
    return compute_impact(
        case39, base39, attack_optimal, clean, attacked, zone39,
        targets=((26, 27, 1.3),),
        metadata={"mode": "optimal"},
        adm=adm39,
    )


def test_replay_zero_vector_equals_base(case39, adm39, base39, zone39):
    av = assemble_attack_vector(case39, base39, base39, zone39, adm=adm39)
    for attacked, base in zip(branch_flows(av.x_attacked, adm39), branch_flows(base39, adm39)):
        assert np.array_equal(attacked, base)


def test_replay_tie_line_invariant(case39, adm39, base39, attack_arbitrary):
    sf_att, _ = branch_flows(attack_arbitrary.x_attacked, adm39)
    sf_base, _ = branch_flows(base39, adm39)
    for pair in ref.INVARIANT_FLOWS:
        k = adm39.pair_position.get(pair)
        if k is None:
            continue
        assert sf_att[k].real == pytest.approx(sf_base[k].real, abs=1e-10)
        assert sf_att[k].imag == pytest.approx(sf_base[k].imag, abs=1e-10)


def test_report_covers_every_in_service_branch(case39, report):
    assert len(report.branches) == len(case39.in_service_branches())
    assert report.schema == "impact/1"
    for b in report.branches:
        if b.loading_base is not None:
            assert b.loading_base >= 0.0
            assert b.loading_attacked >= 0.0


def test_zone_conservation(case39, adm39, zone39, base39, attack_optimal, report):
    # injection changes summed over the zone equal the interior-line loss change
    d_inj = 0.0
    for b in report.buses:
        if b.p_falsified is not None:
            d_inj += b.p_falsified - b.p_base
    d_loss = 0.0
    for br in zone39.interior_lines:
        before = flow_of(adm39, base39, br)
        after = flow_of(adm39, attack_optimal.x_attacked, br)
        d_loss += (after.pf + after.pt) - (before.pf + before.pt)
    assert d_inj == pytest.approx(d_loss, abs=1e-6)


def test_zone_conservation_arbitrary_attack(case39, adm39, base39, zone39, attack_arbitrary):
    from acfdi.powerflow import all_injections

    av = attack_arbitrary
    p_base, q_base = all_injections(base39, adm39)
    d_inj = d_inj_q = 0.0
    for bus, (p, q) in av.falsified_injections.items():
        i = case39.bus_index(bus)
        d_inj += p - p_base[i]
        d_inj_q += q - q_base[i]
    d_loss = d_loss_q = 0.0
    for br in zone39.interior_lines:
        before = flow_of(adm39, base39, br)
        after = flow_of(adm39, av.x_attacked, br)
        d_loss += (after.pf + after.pt) - (before.pf + before.pt)
        d_loss_q += (after.qf + after.qt) - (before.qf + before.qt)
    assert d_inj == pytest.approx(d_loss, abs=1e-6)
    assert d_inj_q == pytest.approx(d_loss_q, abs=1e-6)


def test_inert_boundary_invariance(report):
    for b in report.buses:
        if b.role == "inert-boundary":
            assert b.p_falsified == pytest.approx(b.p_base, abs=1e-12)
            assert b.q_falsified == pytest.approx(b.q_base, abs=1e-12)


def test_report_agrees_with_attack_deltas_on_interior_lines(zone39, attack_optimal, report):
    rows = {(b.from_bus, b.to_bus): b for b in report.branches}
    for br in zone39.interior_lines:
        row = rows[(br.from_bus, br.to_bus)]
        delta = attack_optimal.deltas[f"Pf:{br.from_bus}-{br.to_bus}"]
        assert row.attacked.pf == pytest.approx(row.base.pf + delta, abs=1e-10)


def test_loading_formula(case39, report):
    br = next(b for b in case39.branches if (b.from_bus, b.to_bus) == (26, 27))
    assert br.rating == pytest.approx(6.0)  # 600 MVA on a 100 MVA base
    row = next(b for b in report.branches if (b.from_bus, b.to_bus) == (26, 27))
    assert row.loading_base == pytest.approx(
        100.0 * max(row.base.sf, row.base.st) / 6.0
    )
    assert row.loading_attacked == pytest.approx(
        100.0 * max(row.attacked.sf, row.attacked.st) / 6.0
    )
    # the attack drives the target line harder
    assert row.loading_attacked > row.loading_base


def test_target_summary(report):
    (t,) = report.target_summary
    assert (t["from"], t["to"]) == (26, 27)
    assert t["factor_attained"] >= 1.3
    assert t["p_attacked"] >= 1.3 * t["p_base"]


def test_verdicts_pass_at_zero_noise(report):
    assert report.residuals.clean_passed
    assert report.residuals.attacked_passed
    assert report.residuals.j_change < 1e-10


def test_render_deterministic(report):
    for fmt in ("json", "csv", "svg"):
        first = render_report(report, fmt)
        second = render_report(report, fmt)
        assert first == second


def test_unknown_format_rejected(report):
    with pytest.raises(ReportError, match="unknown report format"):
        render_report(report, "pdf")


def test_csv_voltage_table_shape(report, zone39):
    voltages = render_report(report, "csv")["voltages.csv"]
    lines = voltages.strip().splitlines()
    assert lines[0] == "bus,role,vm_base_pu,va_base_deg,vm_attacked_pu,va_attacked_deg"
    assert len(lines) == 1 + len(zone39.buses)
    row17 = next(l for l in lines if l.startswith("17,"))
    fields = row17.split(",")
    assert fields[1] == "interior"
    # angles rendered in degrees
    assert abs(float(fields[3])) > 1.0


def test_csv_flow_table_sorted(report):
    flows = render_report(report, "csv")["flows.csv"].strip().splitlines()[1:]
    pairs = [(int(r.split(",")[0]), int(r.split(",")[1])) for r in flows]
    assert pairs == sorted(pairs)


def test_svg_bar_heights_proportional_to_values(report):
    for name, svg in render_report(report, "svg").items():
        root = ET.fromstring(svg)
        scale = float(root.attrib["data-scale"])
        bars = [
            el for el in root.iter("{http://www.w3.org/2000/svg}rect")
            if "data-value" in el.attrib
        ]
        assert bars, name
        for el in bars:
            value = float(el.attrib["data-value"])
            height = float(el.attrib["height"])
            assert height == pytest.approx(abs(value) * scale, abs=1e-3)


def test_json_report_round_trips_and_sorted(report):
    doc = json.loads(report_to_json(report))
    assert doc["schema"] == "impact/1"
    assert [b["bus"] for b in doc["state_deviation"]] == sorted(ref.ZONE_INTERIOR | ref.ZONE_BOUNDARY)
    assert doc["residuals"]["clean_passed"] is True


def test_missing_rating_flagged(case39, adm39, base39, zone39, attack_optimal, estimates):
    import dataclasses

    _, clean, attacked = estimates
    branches = tuple(
        dataclasses.replace(br, rating=0.0) if (br.from_bus, br.to_bus) == (26, 28) else br
        for br in case39.branches
    )
    case_norating = dataclasses.replace(case39, branches=branches)
    from acfdi.network import build_admittance

    adm = build_admittance(case_norating)
    rep = compute_impact(
        case_norating, base39, attack_optimal, clean, attacked, zone39, adm=adm
    )
    row = next(b for b in rep.branches if (b.from_bus, b.to_bus) == (26, 28))
    assert row.loading_base is None and row.loading_attacked is None
    assert any("26-28 has no rating" in n for n in rep.notes)


def test_requires_converged_estimations(case39, adm39, base39, zone39, attack_optimal, estimates):
    import dataclasses

    _, clean, attacked = estimates
    broken = dataclasses.replace(clean, converged=False)
    with pytest.raises(ReportError, match="converged"):
        compute_impact(case39, base39, attack_optimal, broken, attacked, zone39, adm=adm39)
