import contextlib
import io
import json
import math
import re
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import reference39 as ref
from acfdi import cli, impact
from acfdi.attacks import apply_attack
from acfdi.estimation import generate_measurements, network_powers, wls_estimate
from acfdi.impact import ReportError, compute_impact, render_report
from acfdi.network import case_to_json
from conftest import assemble, flow_of, record_evaluations, state_bytes
from acfdi.zones import validate_zone

sys.path.insert(0, str(Path(__file__).parent.parent / "bench"))
from grids import tiled_case39  # noqa: E402

SHIPPED = Path(__file__).parent.parent / "scenarios" / "case39_overload.json"


@pytest.fixture(scope="module")
def estimates(case39, adm39, base39, zone39, attack_optimal, zero_sigmas):
    ms = generate_measurements(case39, base39, sigmas=zero_sigmas, seed=0, adm=adm39)
    clean = wls_estimate(ms, case39, adm39)
    attacked = wls_estimate(apply_attack(ms, attack_optimal), case39, adm39)
    return ms, clean, attacked


@pytest.fixture(scope="module")
def report(case39, adm39, zone39, attack_optimal, estimates):
    _, clean, attacked = estimates
    return compute_impact(
        case39, attack_optimal, clean, attacked, zone39,
        metadata={"mode": "optimal"},
        adm=adm39,
    )


def test_report_evaluates_the_full_layout_once_per_state(
    case39, adm39, zone39, attack_optimal, estimates, monkeypatch
):
    _, clean, attacked = estimates
    calls = record_evaluations(monkeypatch)
    compute_impact(case39, attack_optimal, clean, attacked, zone39, adm=adm39)
    full = len(adm39.full_layout)
    assert calls == [
        (full, state_bytes(attack_optimal.x_base)),
        (full, state_bytes(attack_optimal.x_attacked)),
    ]


def test_replay_zero_vector_equals_base(case39, adm39, base39, zone39):
    av = assemble(case39, base39, base39, zone39, adm39)
    for attacked, base in zip(network_powers(av.x_attacked, adm39)[1:], network_powers(base39, adm39)[1:]):
        assert np.array_equal(attacked, base)


def test_replay_tie_line_invariant(case39, adm39, base39, attack_arbitrary):
    sf_att = network_powers(attack_arbitrary.x_attacked, adm39)[1]
    sf_base = network_powers(base39, adm39)[1]
    for pair in ref.INVARIANT_FLOWS:
        k = adm39.pair_position.get(pair)
        if k is None:
            continue
        assert sf_att[k].real == pytest.approx(sf_base[k].real, abs=1e-10)
        assert sf_att[k].imag == pytest.approx(sf_base[k].imag, abs=1e-10)


def test_report_covers_every_in_service_branch(case39, report):
    assert len(report["branches"]) == len(case39.in_service_branches())
    assert report["schema"] == "impact/1"
    for b in report["branches"]:
        if b["loading_base"] is not None:
            assert b["loading_base"] >= 0.0
            assert b["loading_attacked"] >= 0.0


def test_zone_conservation(case39, adm39, zone39, base39, attack_optimal, report):
    # injection changes summed over the zone equal the interior-line loss change
    d_inj = 0.0
    for b in report["buses"]:
        if b["p_falsified"] is not None:
            d_inj += b["p_falsified"] - b["p_base"]
    d_loss = 0.0
    for br in zone39.interior_lines:
        before = flow_of(adm39, base39, br)
        after = flow_of(adm39, attack_optimal.x_attacked, br)
        d_loss += (after["pf"] + after["pt"]) - (before["pf"] + before["pt"])
    assert d_inj == pytest.approx(d_loss, abs=1e-6)


def test_zone_conservation_arbitrary_attack(case39, adm39, base39, zone39, attack_arbitrary):
    av = attack_arbitrary
    s_base = network_powers(base39, adm39)[0]
    p_base, q_base = s_base.real, s_base.imag
    d_inj = d_inj_q = 0.0
    for bus, (p, q) in av.falsified_injections.items():
        i = case39.bus_index(bus)
        d_inj += p - p_base[i]
        d_inj_q += q - q_base[i]
    d_loss = d_loss_q = 0.0
    for br in zone39.interior_lines:
        before = flow_of(adm39, base39, br)
        after = flow_of(adm39, av.x_attacked, br)
        d_loss += (after["pf"] + after["pt"]) - (before["pf"] + before["pt"])
        d_loss_q += (after["qf"] + after["qt"]) - (before["qf"] + before["qt"])
    assert d_inj == pytest.approx(d_loss, abs=1e-6)
    assert d_inj_q == pytest.approx(d_loss_q, abs=1e-6)


def test_inert_boundary_invariance(report):
    for b in report["buses"]:
        if b["role"] == "inert-boundary":
            assert b["p_falsified"] == pytest.approx(b["p_base"], abs=1e-12)
            assert b["q_falsified"] == pytest.approx(b["q_base"], abs=1e-12)


def test_report_agrees_with_attack_deltas_on_interior_lines(zone39, attack_optimal, report):
    rows = {(b["from"], b["to"]): b for b in report["branches"]}
    for br in zone39.interior_lines:
        row = rows[(br.from_bus, br.to_bus)]
        delta = attack_optimal.deltas[f"Pf:{br.from_bus}-{br.to_bus}"]
        assert row["attacked"]["pf"] == pytest.approx(row["base"]["pf"] + delta, abs=1e-10)


def test_loading_formula(case39, report):
    br = next(b for b in case39.branches if (b.from_bus, b.to_bus) == (26, 27))
    assert br.rating == pytest.approx(6.0)  # 600 MVA on a 100 MVA base
    row = next(b for b in report["branches"] if (b["from"], b["to"]) == (26, 27))

    def apparent(flow):
        return max(np.hypot(flow["pf"], flow["qf"]), np.hypot(flow["pt"], flow["qt"]))

    assert row["loading_base"] == pytest.approx(100.0 * apparent(row["base"]) / 6.0)
    assert row["loading_attacked"] == pytest.approx(100.0 * apparent(row["attacked"]) / 6.0)
    # the attack drives the target line harder
    assert row["loading_attacked"] > row["loading_base"]


def _scalar_loading(flow: dict, rating):
    """A branch's loading as the report computed it branch by branch, with
    scalar hypot calls: the reference for the array-built `impact._loadings`."""
    if rating is None:
        return None
    sf = float(np.hypot(flow["pf"], flow["qf"]))
    st = float(np.hypot(flow["pt"], flow["qt"]))
    return 100.0 * max(sf, st) / rating


def _assert_scalar_loadings(doc):
    for row in doc["branches"]:
        for state in ("base", "attacked"):
            expected = _scalar_loading(row[state], row["rating"])
            assert repr(row[f"loading_{state}"]) == repr(expected), (row["from"], row["to"])


def test_loadings_equal_the_scalar_formula_on_the_shipped_and_tile4_reports(report, tmp_path):
    _assert_scalar_loadings(report)
    case_path = tmp_path / "case39x4.json"
    case_path.write_text(case_to_json(tiled_case39(4)))
    config = json.loads(SHIPPED.read_text())
    config.update(case=str(case_path), zone={"focal": [18, 26, 27, 28]})
    (tmp_path / "tile4.json").write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        argv = ["scenario", "run", str(tmp_path / "tile4.json"), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_OK
    for mode in ("optimal", "arbitrary"):
        doc = json.loads((tmp_path / "out" / f"impact_{mode}.json").read_text())
        assert len(doc["branches"]) == 4 * 46 + 3  # every copy's branches and the tie lines
        _assert_scalar_loadings(doc)


def test_loadings_equal_the_scalar_formula_on_extreme_flows():
    # signed zeros, subnormals and 1e300 among ordinary flows; a host whose
    # array hypot rounds other than its scalar hypot fails here
    rng = np.random.default_rng(2024)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e300, -1e300]
    n = 2000
    parts = rng.standard_normal((4, n)) * 10.0 ** rng.uniform(-8, 8, (4, n))
    picked = rng.random((4, n)) < 0.4
    parts[picked] = rng.choice(special, picked.sum())
    sf, st = np.empty(n, complex), np.empty(n, complex)
    sf.real, sf.imag, st.real, st.imag = parts
    ratings = rng.choice([0.0, -1.0, 0.01, 1.0, 6.0, 1e3], n) * rng.uniform(1, 2, n)
    loadings = impact._loadings((None, sf, st), ratings)
    flows = [dict(zip(("pf", "qf", "pt", "qt"), flow)) for flow in zip(*parts.tolist())]
    expected = [
        _scalar_loading(flow, rating if rating > 0 else None)
        for flow, rating in zip(flows, ratings.tolist())
    ]
    assert list(map(repr, loadings)) == list(map(repr, expected))
    assert {None, 0.0} <= set(loadings)


def test_target_summary(report):
    (t,) = report["targets"]
    assert (t["from"], t["to"]) == (26, 27)
    assert t["factor_attained"] >= 1.3
    assert t["p_attacked"] >= 1.3 * t["p_base"]


def test_verdicts_pass_at_zero_noise(report):
    assert report["residuals"]["clean_passed"]
    assert report["residuals"]["attacked_passed"]
    assert report["residuals"]["j_change"] < 1e-10


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
    doc = json.loads(render_report(report, "json")["impact.json"])
    assert doc["schema"] == "impact/1"
    assert [b["bus"] for b in doc["state_deviation"]] == sorted(ref.ZONE_INTERIOR | ref.ZONE_BOUNDARY)
    assert doc["residuals"]["clean_passed"] is True


def test_missing_rating_flagged(case39, zone39, attack_optimal, estimates):
    import dataclasses

    _, clean, attacked = estimates
    branches = tuple(
        dataclasses.replace(br, rating=0.0) if (br.from_bus, br.to_bus) == (26, 28) else br
        for br in case39.branches
    )
    case_norating = dataclasses.replace(case39, branches=branches)
    from acfdi.network import build_admittance

    adm = build_admittance(case_norating)
    rep = compute_impact(case_norating, attack_optimal, clean, attacked, zone39, adm=adm)
    row = next(b for b in rep["branches"] if (b["from"], b["to"]) == (26, 28))
    assert row["loading_base"] is None and row["loading_attacked"] is None
    assert any("26-28 has no rating" in n for n in rep["notes"])


def test_requires_converged_estimations(case39, adm39, zone39, attack_optimal, estimates):
    import dataclasses

    _, clean, attacked = estimates
    broken = dataclasses.replace(clean, converged=False)
    with pytest.raises(ReportError, match="converged"):
        compute_impact(case39, attack_optimal, broken, attacked, zone39, adm=adm39)


def test_report_is_the_document_that_every_renderer_reads(report):
    assert json.loads(render_report(report, "json")["impact.json"]) == report
    tables = render_report(report, "csv")
    flows = tables["flows.csv"].splitlines()[1:]
    assert len(flows) == len(report["branches"])
    for line, b in zip(flows, report["branches"]):
        want = [
            str(b["from"]), str(b["to"]), b["role"],
            *(format(v, ".10g") if v is not None else "" for v in (
                b["base"]["pf"], b["base"]["qf"], b["attacked"]["pf"], b["attacked"]["qf"],
                b["dp"], b["dq"], b["loading_base"], b["loading_attacked"],
            )),
        ]
        assert line.split(",") == want
    voltages = tables["voltages.csv"].splitlines()[1:]
    assert len(voltages) == len(report["state_deviation"])
    for line, d in zip(voltages, report["state_deviation"]):
        values = (d["vm_base"], d["va_base_deg"], d["vm_attacked"], d["va_attacked_deg"])
        assert line.split(",") == [str(d["bus"]), d["role"], *(format(v, ".10g") for v in values)]


def test_target_with_no_in_service_branch_is_rejected(
    case39, adm39, zone39, attack_optimal, estimates
):
    import dataclasses

    _, clean, attacked = estimates
    av = dataclasses.replace(
        attack_optimal, solver_info={"targets": [{"from": 1, "to": 99, "factor": 1.3}]}
    )
    with pytest.raises(ReportError, match="1-99 not found"):
        compute_impact(case39, av, clean, attacked, zone39, adm=adm39)


def test_readme_library_example_runs_as_written():
    # the python block under README's "## Library", executed verbatim
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    names = {}
    exec(code, names)
    (target,) = names["report"]["targets"]
    assert names["attack"].solver_info["mode"] == "optimal"
    assert target["factor_attained"] >= 1.3
    tables = names["acfdi"].render_report(names["report"], "csv")
    assert set(tables) == {"flows.csv", "voltages.csv", "injections.csv"}
