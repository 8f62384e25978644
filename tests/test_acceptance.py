"""Acceptance suite: every shipped claim checked at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import reference39 as ref
from acfdi.attacks import AttackSpec, OverloadTarget, apply_attack, design_attack
from acfdi.estimation import (
    MeasurementModel,
    bus_injection,
    chi_square_test,
    chi_square_threshold,
    eval_h,
    eval_jacobian,
    full_layout,
    generate_measurements,
    largest_normalized_residual,
    network_powers,
    wls_estimate,
)
from acfdi.impact import base_document, compute_impact
from acfdi.network import StateVector, build_admittance
from acfdi.powerflow import solve_power_flow
from conftest import assemble, flow_of, replace_buses, table_state
from test_estimation import _chi2_ppf_oracle

N_SEEDS = 20


@contextmanager
def criterion(num, label):
    """Print one pass/fail line per criterion; strings appended to the yielded
    list are printed on that line."""
    notes = []
    try:
        yield notes
    except BaseException:
        print(f"\nACCEPTANCE {num} ({label}): FAIL" + "".join(f"; {n}" for n in notes))
        raise
    print(f"\nACCEPTANCE {num} ({label}): PASS" + "".join(f"; {n}" for n in notes))


@pytest.fixture(scope="module")
def noisy_runs(case39, adm39, base39, zone39, attack_optimal):
    """Per-seed estimates for the clean, optimal-attacked, and arbitrary-attacked
    measurement streams at default noise."""
    runs = []
    for seed in range(N_SEEDS):
        spec = AttackSpec(
            zone=zone39,
            targets=(OverloadTarget(*ref.TARGET, ref.OVERLOAD_FACTOR),),
            mode="arbitrary",
            seed=seed,
        )
        av_arb = design_attack(case39, base39, spec, adm39)
        ms = generate_measurements(case39, base39, seed=seed, adm=adm39)
        runs.append(
            {
                "seed": seed,
                "ms": ms,
                "av_arb": av_arb,
                "clean": wls_estimate(ms, case39, adm39),
                "opt": wls_estimate(apply_attack(ms, attack_optimal), case39, adm39),
                "arb": wls_estimate(apply_attack(ms, av_arb), case39, adm39),
            }
        )
    return runs


def _residual_projector(jac, w):
    """S = W - W H (H^T W H)^-1 H^T W (Abur and Exposito, Power System State
    Estimation, 2004, ch. 2)."""
    jw = jac * w[:, None]
    return np.diag(w) - jw @ np.linalg.solve(jac.T @ jw, jw.T)


def _branch(case, pair):
    return next(b for b in case.branches if (b.from_bus, b.to_bus) == pair)


def test_criterion_1_flow_replay(case39, adm39, base39):
    with criterion(1, "flow replay vs published line-flow table"):
        replayable = {
            pair: cols
            for pair, cols in ref.FLOWS.items()
            if pair[0] in ref.VOLTAGES and pair[1] in ref.VOLTAGES
        }
        assert (26, 27) in replayable and len(replayable) == 12
        start = time.perf_counter()
        for scenario in ("before", "optimal", "arbitrary"):
            state = table_state(base39, scenario)
            for pair, cols in replayable.items():
                fl = flow_of(adm39, state, _branch(case39, pair))
                p_ref, q_ref = cols[scenario]
                assert fl["pf"] == pytest.approx(p_ref, abs=0.05), (pair, scenario)
                assert fl["qf"] == pytest.approx(q_ref, abs=0.05), (pair, scenario)
        elapsed = time.perf_counter() - start
        # headline values
        state_b = table_state(base39, "before")
        target = flow_of(adm39, state_b, _branch(case39, (26, 27)))
        assert target["pf"] == pytest.approx(2.573, abs=0.05)
        assert elapsed < 1.0


def test_criterion_2_injection_replay(case39, adm39, base39, zone39):
    with criterion(2, "injection replay vs published injection table"):
        from acfdi.attacks import compute_falsified_injections

        for scenario in ("optimal", "arbitrary"):
            x_att = table_state(base39, scenario)
            # boundary rows in the published table equal the base state; keep
            # the replay faithful by only moving interior buses
            interior_vm = {b: x_att.magnitude(b) for b in ref.ZONE_INTERIOR}
            interior_va = {b: x_att.angle(b) for b in ref.ZONE_INTERIOR}
            mixed = replace_buses(base39, interior_vm, interior_va)
            falsified = compute_falsified_injections(case39, zone39, network_powers(mixed, adm39))
            for bus, cols in ref.INJECTIONS.items():
                p_ref, q_ref = cols[scenario]
                p, q = falsified[bus]
                assert p == pytest.approx(p_ref, abs=0.05), (bus, scenario)
                assert q == pytest.approx(q_ref, abs=0.05), (bus, scenario)
        # direct injection evaluation where the full neighborhood is published
        arb = table_state(base39, "arbitrary")
        p27, q27 = bus_injection(arb, case39, 27, adm39)
        assert p27 == pytest.approx(-16.7259, abs=0.05)
        assert q27 == pytest.approx(-1.9921, abs=0.05)
        for bus, cols in ref.INJECTIONS.items():
            p, q = bus_injection(base39, case39, bus, adm39)
            assert p == pytest.approx(cols["before"][0], abs=0.05)
            assert q == pytest.approx(cols["before"][1], abs=0.05)


def test_criteria_1_and_2_replay_from_the_base_document_and_the_report(
    case39, adm39, base39, zone39, zero_sigmas
):
    # the published tables read off the written documents: the "before"
    # column off base.json, each attack's column off the report's rows, and a
    # flow the report omits off base.json, since the attack did not move it
    with criterion("1-2", "flow and injection replay from base.json and impact.json"):
        base_doc = base_document(case39, base39, adm39)
        base_flows = {(b["from"], b["to"]): b for b in base_doc["branches"]}
        base_injections = {b["bus"]: (b["p"], b["q"]) for b in base_doc["buses"]}
        ms = generate_measurements(case39, base39, sigmas=zero_sigmas, seed=0, adm=adm39)
        clean = wls_estimate(ms, case39, adm39)
        for scenario in ("before", "optimal", "arbitrary"):
            flows, injections = base_flows, base_injections
            if scenario != "before":
                # boundary rows in the published table equal the base state, so
                # only the interior moves, as the attack moves it
                table = table_state(base39, scenario)
                mixed = replace_buses(
                    base39,
                    {b: table.magnitude(b) for b in ref.ZONE_INTERIOR},
                    {b: table.angle(b) for b in ref.ZONE_INTERIOR},
                )
                av = assemble(case39, base39, mixed, zone39, adm39)
                report = compute_impact(
                    case39, av, clean, wls_estimate(apply_attack(ms, av), case39, adm39),
                    zone39, adm=adm39,
                )
                rows = {(b["from"], b["to"]): b["attacked"] for b in report["branches"]}
                flows = {pair: rows.get(pair, base_flows[pair]) for pair in base_flows}
                injections = {b["bus"]: (b["p_falsified"], b["q_falsified"])
                              for b in report["buses"]}
            for pair, cols in ref.FLOWS.items():
                p_ref, q_ref = cols[scenario]
                assert flows[pair]["pf"] == pytest.approx(p_ref, abs=0.05), (pair, scenario)
                assert flows[pair]["qf"] == pytest.approx(q_ref, abs=0.05), (pair, scenario)
            for bus, cols in ref.INJECTIONS.items():
                p_ref, q_ref = cols[scenario]
                assert injections[bus][0] == pytest.approx(p_ref, abs=0.05), (bus, scenario)
                assert injections[bus][1] == pytest.approx(q_ref, abs=0.05), (bus, scenario)
        assert flows[ref.TARGET]["pf"] == pytest.approx(ref.TARGET_FLOW["arbitrary"], abs=0.05)


def test_criterion_3_base_case(case39, adm39):
    with criterion(3, "base power flow vs published operating point"):
        state = solve_power_flow(case39, adm39, tol=1e-8)
        for bus, cols in ref.VOLTAGES.items():
            vm_ref, va_ref = cols["before"]
            assert state.magnitude(bus) == pytest.approx(vm_ref, abs=0.01), bus
            assert math.degrees(state.angle(bus)) == pytest.approx(va_ref, abs=0.5), bus
        fl = flow_of(adm39, state, _branch(case39, (26, 27)))
        assert fl["pf"] == pytest.approx(2.573, abs=0.02)


def test_criterion_4_undetectability(case39, adm39, base39, zone39, attack_optimal,
                                     zero_sigmas, noisy_runs):
    with criterion(4, "attack invisibility to the bad-data detector") as notes:
        ms0 = generate_measurements(case39, base39, sigmas=zero_sigmas, seed=0, adm=adm39)
        clean0 = wls_estimate(ms0, case39, adm39)
        attacked0 = wls_estimate(apply_attack(ms0, attack_optimal), case39, adm39)
        assert abs(attacked0.j_statistic - clean0.j_statistic) < 1e-8
        _, lnr = largest_normalized_residual(attacked0)
        assert lnr < 1e-6

        # With noise e the statistic is J = e^T S(x) e to second order, with
        # the residual projector S taken at the true state. An exactly
        # consistent attack moves the true state, so J moves by
        # dJ_pred = e^T (S(x_att) - S(x_base)) e; only what that leaves
        # unexplained is held to 1e-6.
        layout = full_layout(case39)
        h_base = eval_h(adm39, base39, layout)
        jac_base = eval_jacobian(adm39, base39, layout)
        jac_att = eval_jacobian(adm39, attack_optimal.x_attacked, layout)
        worst_shift = worst_unexplained = 0.0
        for run in noisy_runs:
            seed, ms, clean, opt = run["seed"], run["ms"], run["clean"], run["opt"]
            assert chi_square_test(opt).passed == chi_square_test(clean).passed, seed
            assert largest_normalized_residual(opt)[0] == largest_normalized_residual(clean)[0], seed

            w = 1.0 / ms.variances
            e = ms.values - h_base
            dj = opt.j_statistic - clean.j_statistic
            dj_pred = e @ (_residual_projector(jac_att, w) - _residual_projector(jac_base, w)) @ e
            unexplained = abs(dj - dj_pred) / clean.j_statistic
            assert unexplained < 1e-6, (
                f"seed {seed}: chi-square change {dj:.6e} differs from its "
                f"second-order prediction dJ_pred = e^T (S(x_att) - S(x_base)) e "
                f"= {dj_pred:.6e} by {unexplained:.3e} of J, over 1e-6: the attack is not "
                "consistent with the shifted state, or an estimate is inexact"
            )
            worst_shift = max(worst_shift, abs(dj) / clean.j_statistic)
            worst_unexplained = max(worst_unexplained, unexplained)
        notes.append(
            f"noisy |dJ|/J max {worst_shift:.3e}, |dJ - dJ_pred|/J max {worst_unexplained:.3e}"
        )
        # the second-order shift must be present, or the prediction check is vacuous
        assert worst_shift > 1e-5, f"max per-seed |dJ|/J {worst_shift:.3e} is not above 1e-5"


def test_criterion_5_optimal_attack_structure(case39, adm39, base39, zone39, attack_optimal):
    with criterion(5, "optimal attack constraint structure"):
        av = attack_optimal
        br = _branch(case39, ref.TARGET)
        pf_base = flow_of(adm39, base39, br)["pf"]
        pf_att = flow_of(adm39, av.x_attacked, br)["pf"]
        bound = ref.OVERLOAD_FACTOR * pf_base
        assert bound <= pf_att <= bound + 1e-3  # binding

        for bus in zone39.zero_injection_interior(case39):
            p, q = bus_injection(av.x_attacked, case39, bus, adm39)
            assert abs(p) < 1e-6 and abs(q) < 1e-6

        for line in zone39.tie_lines + zone39.frozen_lines:
            before = flow_of(adm39, base39, line)
            after = flow_of(adm39, av.x_attacked, line)
            for a, b in ((after["pf"], before["pf"]), (after["qf"], before["qf"]),
                         (after["pt"], before["pt"]), (after["qt"], before["qt"])):
                assert abs(a - b) < 1e-8

        for bus in case39.buses:
            if bus.id in zone39.interior:
                continue
            assert av.x_attacked.magnitude(bus.id) == base39.magnitude(bus.id)
            assert av.x_attacked.angle(bus.id) == base39.angle(bus.id)


def test_criterion_6_tradeoff_ordering(case39, adm39, base39, zone39, attack_optimal, noisy_runs):
    with criterion(6, "stealth/impact trade-off ordering over seeds"):
        br = _branch(case39, ref.TARGET)
        dev_opt = np.sqrt(
            sum(
                (attack_optimal.x_attacked.magnitude(b) - base39.magnitude(b)) ** 2
                + (attack_optimal.x_attacked.angle(b) - base39.angle(b)) ** 2
                for b in zone39.interior
            )
        )
        flow_opt = flow_of(adm39, attack_optimal.x_attacked, br)["pf"]

        def shift_norm(est):
            return float(
                np.linalg.norm(
                    np.concatenate(
                        [est.x_hat.vm - base39.vm, est.x_hat.va - base39.va]
                    )
                )
            )

        flow_wins = 0
        for run in noisy_runs:
            av_arb = run["av_arb"]
            dev_arb = np.sqrt(
                sum(
                    (av_arb.x_attacked.magnitude(b) - base39.magnitude(b)) ** 2
                    + (av_arb.x_attacked.angle(b) - base39.angle(b)) ** 2
                    for b in zone39.interior
                )
            )
            assert dev_opt <= dev_arb, run["seed"]

            j_change_opt = abs(run["opt"].j_statistic - run["clean"].j_statistic)
            j_change_arb = abs(run["arb"].j_statistic - run["clean"].j_statistic)
            assert j_change_opt <= j_change_arb, run["seed"]

            assert shift_norm(run["opt"]) <= shift_norm(run["arb"]), run["seed"]

            if flow_of(adm39, av_arb.x_attacked, br)["pf"] >= flow_opt:
                flow_wins += 1
        assert flow_wins >= 18, f"arbitrary flow exceeded optimal in only {flow_wins}/20 seeds"


def test_criterion_7_numerical_hygiene(case39, adm39, base39):
    with criterion(7, "numerical hygiene oracles"):
        layout = full_layout(case39)
        rng = np.random.default_rng(2024)
        step = 1e-6
        worst = 0.0
        for _ in range(10):
            vm = base39.vm * (1.0 + 0.03 * rng.standard_normal(case39.n_bus))
            va = base39.va + 0.15 * rng.standard_normal(case39.n_bus)
            va[case39.bus_index(case39.slack_bus)] = 0.0
            state = StateVector(base39.bus_ids, vm, va)
            jac = eval_jacobian(adm39, state, layout)
            model = MeasurementModel(adm39, layout)
            x0 = np.concatenate([np.delete(va, case39.bus_index(case39.slack_bus)), vm])
            fd = np.empty_like(jac)
            for k in range(len(x0)):
                xp, xm = x0.copy(), x0.copy()
                xp[k] += step
                xm[k] -= step
                fd[:, k] = (
                    eval_h(adm39, model.state_of(xp), layout)
                    - eval_h(adm39, model.state_of(xm), layout)
                ) / (2 * step)
            rel = np.abs(jac - fd) / np.maximum(np.abs(fd), 1.0)
            worst = max(worst, float(rel.max()))
        assert worst < 1e-6

        # admittance matrix vs independent element-by-element stamps
        n = case39.n_bus
        oracle = np.zeros((n, n), dtype=complex)
        for b in case39.branches:
            if not b.status:
                continue
            i, j = case39.bus_index(b.from_bus), case39.bus_index(b.to_bus)
            ys = 1.0 / complex(b.r, b.x)
            tap = b.tap * np.exp(1j * b.shift)
            oracle[i, i] += (ys + 0.5j * b.b) / (b.tap**2)
            oracle[i, j] += -ys / np.conj(tap)
            oracle[j, i] += -ys / tap
            oracle[j, j] += ys + 0.5j * b.b
        for k, bus in enumerate(case39.buses):
            oracle[k, k] += complex(bus.gs, bus.bs)
        assert np.max(np.abs(adm39.ybus - oracle)) < 1e-12

        assert chi_square_threshold(0.95, 10) == pytest.approx(18.307, abs=1e-3)
        assert chi_square_threshold(0.95, 10) == pytest.approx(
            _chi2_ppf_oracle(0.95, 10), abs=1e-3
        )


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "byte-identical artifacts under fixed seeds"):
        from acfdi.cli import EXIT_OK, main

        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "case": "case39",
                    "zone": {
                        "interior": sorted(ref.ZONE_INTERIOR),
                        "boundary": sorted(ref.ZONE_BOUNDARY),
                    },
                    "targets": [{"from": 26, "to": 27, "lambda": 1.3}],
                    "mode": "both",
                    "sigmas": {
                        k: 0.0
                        for k in ("Pflow", "Qflow", "Pinj", "Qinj", "Vmag", "Vang")
                    },
                    "seeds": {"noise": 0, "arbitrary_start": 1},
                    "output": {"formats": ["json", "csv", "svg"]},
                }
            )
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["scenario", "run", str(config), "--out", str(out_a)]) == EXIT_OK
        assert main(["scenario", "run", str(config), "--out", str(out_b)]) == EXIT_OK
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b and files_a
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
