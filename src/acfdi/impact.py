"""Attack impact quantification and report rendering.

Evaluates every branch flow at the base state and at the mixed state
(interior buses attacked, everything else at base, the deterministic
stand-in for re-running the network with boundary voltages held by
regulators), tabulates flow/injection/state changes and the
detector's view of both measurement sets, and renders the result as JSON,
CSV tables, or SVG bar charts. The report is one document, the content of
`impact.json`; the CSV and SVG renderers and the scenario summary read it.

An attack moves only interior states, so a flow can change only on a zone
line and an injection only at a zone bus: the report lists those rows, the
attack's footprint, and counts the rows it omits, which must not have moved.
The base state's flows and injections of every branch and bus are one
document of their own, `base.json`, written once per scenario. All output
is deterministic byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from .artifacts import to_json
from .attacks import AttackVector, compute_falsified_injections
from .estimation import (
    BddPolicy,
    EstimationResult,
    chi_square_test,
    largest_normalized_residual,
    network_powers,
)
from .network import AdmittanceModel, NetworkCase, StateVector, build_admittance
from .zones import AttackZone

SCHEMA = "impact/2"
BASE_SCHEMA = "base/1"


class ReportError(ValueError):
    pass


def _bus_role(bus: int, zone: AttackZone) -> str:
    if bus in zone.interior:
        return "interior"
    if bus in zone.inert_boundary:
        return "inert-boundary"
    if bus in zone.boundary:
        return "boundary"
    return "exterior"


def _flows(powers: tuple[np.ndarray, ...], rows: np.ndarray) -> list[tuple[float, ...]]:
    """The flow (pf, qf, pt, qt) of each in-service branch at these positions
    of adm.branches, from the `network_powers` triple of a state."""
    _, sf, st = powers
    sf, st = sf[rows], st[rows]
    return list(zip(sf.real.tolist(), sf.imag.tolist(), st.real.tolist(), st.imag.tolist()))


def _loadings(powers: tuple[np.ndarray, ...], ratings: np.ndarray) -> np.ndarray:
    """Each in-service branch's percent of rating carried by the larger
    apparent power of its two ends, from the `network_powers` triple of a
    state; 0.0 where ratings holds no positive rating."""
    _, sf, st = powers
    larger = np.maximum(np.hypot(sf.real, sf.imag), np.hypot(st.real, st.imag))
    rated = ratings > 0
    loading = np.zeros(len(ratings))
    loading[rated] = 100.0 * larger[rated] / ratings[rated]
    return loading


def _rated(values: np.ndarray, ratings: np.ndarray) -> list[float | None]:
    """values as floats, None where ratings holds no positive rating."""
    return [x if r > 0 else None for x, r in zip(values.tolist(), ratings.tolist())]


def _ratings(adm: AdmittanceModel) -> np.ndarray:
    return np.array([br.rating for br in adm.branches])


def _by_ends(rows: list[dict]) -> list[dict]:
    return sorted(rows, key=lambda b: (b["from"], b["to"]))


def base_document(
    case: NetworkCase, state: StateVector, adm: AdmittanceModel | None = None
) -> dict:
    """The base.json document of a base state: every in-service branch's
    flow and loading, sorted by its ends as the report's rows are, and every
    bus's injection, in case order. Powers are in per unit."""
    if adm is None:
        adm = build_admittance(case)
    powers = network_powers(state, adm)
    ratings = _ratings(adm)
    rows = [
        {"from": br.from_bus, "to": br.to_bus, "pf": pf, "qf": qf, "pt": pt, "qt": qt,
         "loading": loading}
        for br, (pf, qf, pt, qt), loading in zip(
            adm.branches, _flows(powers, slice(None)), _rated(_loadings(powers, ratings), ratings)
        )
    ]
    s = powers[0]
    buses = [
        {"bus": b.id, "p": p, "q": q}
        for b, p, q in zip(case.buses, s.real.tolist(), s.imag.tolist())
    ]
    return {"schema": BASE_SCHEMA, "branches": _by_ends(rows), "buses": buses}


def compute_impact(
    case: NetworkCase,
    av: AttackVector,
    clean_est: EstimationResult,
    attacked_est: EstimationResult,
    zone: AttackZone,
    policy: BddPolicy | None = None,
    metadata: dict | None = None,
    adm: AdmittanceModel | None = None,
) -> dict:
    """The impact.json document of av: flows of the zone's lines and
    injections of its buses at av.x_base and av.x_attacked, the count of the
    rows it omits and their largest changes, the zone's state deviation,
    both estimates' residuals and the overload targets that av.solver_info
    names. An omitted row that moved raises ReportError. Powers are in per
    unit, angles in degrees except the per-state estimate shift (radians)."""
    if policy is None:
        policy = BddPolicy()
    if adm is None:
        adm = build_admittance(case)
    if not (clean_est.converged and attacked_est.converged):
        raise ReportError("impact report requires converged estimations")
    base = av.x_base

    lines = {"interior": zone.interior_lines, "frozen": zone.frozen_lines, "tie": zone.tie_lines}
    # reversed, so that the first role listed wins for a line in two lists
    role_of = {br.index: role for role, group in reversed(lines.items()) for br in group}
    notes = [
        f"branch {br.from_bus}-{br.to_bus} has no rating; loading omitted"
        for br in adm.branches if not br.rating > 0
    ]
    powers_base = network_powers(base, adm)
    powers_att = network_powers(av.x_attacked, adm)
    (s_base, sf_base, _), (s_att, sf_att, _) = powers_base, powers_att
    ratings = _ratings(adm)
    loading_base, loading_att = _loadings(powers_base, ratings), _loadings(powers_att, ratings)
    dp, dq = sf_att.real - sf_base.real, sf_att.imag - sf_base.imag
    ds = s_att - s_base

    # the attack's footprint: the zone's lines, in adm.branches order, and its buses
    kept = np.array(sorted(adm.position[i] for i in role_of), dtype=int)
    in_zone = np.array([b.id in zone.buses for b in case.buses])
    lines_out = np.ones(len(adm.branches), dtype=bool)
    lines_out[kept] = False
    buses_out = ~in_zone
    omitted = {"branches": int(lines_out.sum()), "buses": int(buses_out.sum())}
    for name, change, out in (
        ("dp", dp, lines_out),
        ("dq", dq, lines_out),
        ("dloading", loading_att - loading_base, lines_out),
        ("dp_injection", ds.real, buses_out),
        ("dq_injection", ds.imag, buses_out),
    ):
        moved = np.flatnonzero(out & (change != 0))
        if len(moved):
            k = moved[0]
            br = adm.branches[k] if out is lines_out else None
            where = f"bus {case.buses[k].id}" if br is None else f"branch {br.from_bus}-{br.to_bus}"
            raise ReportError(f"{where} lies outside the zone, yet the attack moves it "
                              f"({name} {float(change[k])!r})")
        omitted[f"max_abs_{name}"] = float(np.max(np.abs(change[out]), initial=0.0))

    rows = [
        {
            "from": br.from_bus, "to": br.to_bus,
            "role": role_of[br.index],
            "rating": br.rating if br.rating > 0 else None,
            "base": dict(zip(("pf", "qf", "pt", "qt"), before)),
            "attacked": dict(zip(("pf", "qf", "pt", "qt"), after)),
            "dp": dp_k, "dq": dq_k,
            "loading_base": at_base,
            "loading_attacked": at_att,
        }
        for br, before, after, dp_k, dq_k, at_base, at_att in zip(
            map(adm.branches.__getitem__, kept.tolist()),
            _flows(powers_base, kept), _flows(powers_att, kept),
            dp[kept].tolist(), dq[kept].tolist(),
            _rated(loading_base[kept], ratings[kept]), _rated(loading_att[kept], ratings[kept]),
        )
    ]

    falsified = compute_falsified_injections(case, zone, powers_att)
    zone_buses = np.flatnonzero(in_zone)
    buses = []
    for i, p_base, q_base, p_att, q_att in zip(
        zone_buses.tolist(), s_base.real[zone_buses].tolist(), s_base.imag[zone_buses].tolist(),
        s_att.real[zone_buses].tolist(), s_att.imag[zone_buses].tolist(),
    ):
        bus = case.buses[i].id
        p_fal, q_fal = falsified[bus]
        buses.append(
            {
                "bus": bus, "role": _bus_role(bus, zone),
                "p_base": p_base, "q_base": q_base,
                "p_attacked": p_att, "q_attacked": q_att,
                "p_falsified": p_fal, "q_falsified": q_fal,
            }
        )
    deviations = []
    for bus in sorted(zone.buses):
        vm_base, va_base = base.magnitude(bus), base.angle(bus)
        vm_att, va_att = av.x_attacked.magnitude(bus), av.x_attacked.angle(bus)
        deviations.append(
            {
                "bus": bus, "role": _bus_role(bus, zone),
                "vm_base": vm_base, "va_base_deg": math.degrees(va_base),
                "vm_attacked": vm_att, "va_attacked_deg": math.degrees(va_att),
                "dvm": vm_att - vm_base, "dva_deg": math.degrees(va_att - va_base),
            }
        )

    verdict_clean = chi_square_test(clean_est, policy)
    verdict_attacked = chi_square_test(attacked_est, policy)
    shift = np.concatenate(
        [
            attacked_est.x_hat.vm - base.vm,
            attacked_est.x_hat.va - base.va,
        ]
    )
    # Two readings of "estimator residuals", reported side by side:
    # (a) change in the weighted measurement residual statistic
    # (b) distance of the attacked estimate from the base state
    residuals = {
        "j_clean": clean_est.j_statistic,
        "j_attacked": attacked_est.j_statistic,
        "j_change": abs(attacked_est.j_statistic - clean_est.j_statistic),
        "threshold": verdict_clean.threshold,
        "dof": clean_est.dof,
        "clean_passed": verdict_clean.passed,
        "attacked_passed": verdict_attacked.passed,
        "lnr_clean": list(largest_normalized_residual(clean_est)),
        "lnr_attacked": list(largest_normalized_residual(attacked_est)),
        "estimate_shift_norm": float(np.linalg.norm(shift)),
        "per_state": [
            {
                "bus": bus,
                "dvm_est": float(abs(attacked_est.x_hat.magnitude(bus) - base.magnitude(bus))),
                "dva_est": float(abs(attacked_est.x_hat.angle(bus) - base.angle(bus))),
            }
            for bus in sorted(zone.buses)
        ],
    }

    targets = []
    for t in av.solver_info.get("targets", []):
        f, to = t["from"], t["to"]
        k = adm.pair_position.get((f, to))
        if k is None:
            raise ReportError(f"target branch {f}-{to} not found among in-service branches")
        p_base, p_attacked = float(sf_base.real[k]), float(sf_att.real[k])
        targets.append(
            {
                "from": f,
                "to": to,
                "factor_required": t["factor"],
                "p_base": p_base,
                "p_attacked": p_attacked,
                "factor_attained": p_attacked / p_base if p_base else None,
            }
        )

    return {
        "schema": SCHEMA,
        "metadata": metadata or {},
        "zone": zone.to_dict(),
        "branches": _by_ends(rows),
        "buses": buses,
        "omitted": omitted,
        "state_deviation": deviations,
        "residuals": residuals,
        "targets": targets,
        "notes": list(dict.fromkeys(notes)),
    }


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    return format(x, ".10g")


def _csv_rows(header: str, rows, labels: tuple[str, ...], values) -> str:
    """header, then each row's label fields as text and its values(row) as .10g."""
    lines = [header]
    for row in rows:
        lines.append(",".join([*(str(row[k]) for k in labels), *map(_fmt, values(row))]))
    return "\n".join(lines) + "\n"


def report_to_csv(doc: dict) -> dict[str, str]:
    """Three tables: the zone's voltages, its buses' injections and its lines' flows."""
    return {
        "voltages.csv": _csv_rows(
            "bus,role,vm_base_pu,va_base_deg,vm_attacked_pu,va_attacked_deg",
            doc["state_deviation"],
            ("bus", "role"),
            lambda d: (d["vm_base"], d["va_base_deg"], d["vm_attacked"], d["va_attacked_deg"]),
        ),
        "injections.csv": _csv_rows(
            "bus,role,p_base_pu,q_base_pu,p_falsified_pu,q_falsified_pu",
            doc["buses"],
            ("bus", "role"),
            lambda b: (b["p_base"], b["q_base"], b["p_falsified"], b["q_falsified"]),
        ),
        "flows.csv": _csv_rows(
            "from,to,role,p_base_pu,q_base_pu,p_attacked_pu,q_attacked_pu,"
            "dp_pu,dq_pu,loading_base_pct,loading_attacked_pct",
            doc["branches"],
            ("from", "to", "role"),
            lambda b: (
                b["base"]["pf"], b["base"]["qf"], b["attacked"]["pf"], b["attacked"]["qf"],
                b["dp"], b["dq"], b["loading_base"], b["loading_attacked"],
            ),
        ),
    }


def _svg_bar_chart(
    title: str,
    categories: list[str],
    series: list[tuple[str, list[float], str]],
    unit: str,
) -> str:
    """Grouped bar chart of |value| heights, annotated with the exact scale."""
    width, height = 640, 320
    margin_left, margin_bottom, margin_top = 50, 40, 30
    plot_h = height - margin_bottom - margin_top
    plot_w = width - margin_left - 10
    max_abs = max((abs(v) for _, vals, _ in series for v in vals), default=0.0)
    scale = plot_h / max_abs if max_abs > 0 else 0.0

    n_cat = max(len(categories), 1)
    group_w = plot_w / n_cat
    bar_w = group_w / (len(series) + 1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" data-scale="{scale:.6f}" data-unit="{unit}">',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" font-size="13">{title}</text>',
        f'<line x1="{margin_left}" y1="{height - margin_bottom}" x2="{width - 10}" '
        f'y2="{height - margin_bottom}" stroke="black"/>',
    ]
    for si, (label, values, color) in enumerate(series):
        lx = margin_left + 110 * si
        parts.append(
            f'<rect x="{lx}" y="{margin_top - 18}" width="10" height="10" fill="{color}"/>'
            f'<text x="{lx + 14}" y="{margin_top - 9}" font-size="11">{label}</text>'
        )
        for ci, value in enumerate(values):
            h = abs(value) * scale
            x = margin_left + ci * group_w + (si + 0.5) * bar_w
            y = height - margin_bottom - h
            parts.append(
                f'<rect x="{x:.4f}" y="{y:.4f}" width="{bar_w:.4f}" height="{h:.4f}" '
                f'fill="{color}" data-series="{label}" data-category="{categories[ci]}" '
                f'data-value="{value!r}"/>'
            )
    for ci, cat in enumerate(categories):
        x = margin_left + (ci + 0.5) * group_w
        parts.append(
            f'<text x="{x:.4f}" y="{height - margin_bottom + 16}" text-anchor="middle" '
            f'font-size="11">{cat}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def report_to_svg(doc: dict) -> dict[str, str]:
    interior = doc["zone"]["interior"]  # sorted
    cats = [str(b) for b in interior]
    dev = {d["bus"]: d for d in doc["state_deviation"]}
    angle_deltas = [dev[b]["dva_deg"] for b in interior]
    mag_deltas = [dev[b]["dvm"] for b in interior]
    per_state = {row["bus"]: row for row in doc["residuals"]["per_state"]}
    est_vm = [per_state[b]["dvm_est"] for b in interior]
    est_va = [math.degrees(per_state[b]["dva_est"]) for b in interior]

    return {
        "attack_angle.svg": _svg_bar_chart(
            "Voltage angle attack components (degrees)",
            cats,
            [("angle delta", angle_deltas, "#b22222")],
            "deg",
        ),
        "attack_magnitude.svg": _svg_bar_chart(
            "Voltage magnitude attack components (p.u.)",
            cats,
            [("magnitude delta", mag_deltas, "#808080")],
            "pu",
        ),
        "residuals.svg": _svg_bar_chart(
            "Estimated-state shift from base under attack",
            cats,
            [
                ("|est - base| magnitude (p.u.)", est_vm, "#b22222"),
                ("|est - base| angle (deg)", est_va, "#808080"),
            ],
            "mixed",
        ),
    }


def render_report(doc: dict, fmt: str) -> dict[str, str]:
    """Render the document to named files; callers decide where the bytes go."""
    if fmt == "json":
        return {"impact.json": to_json(doc, sort_keys=True)}
    if fmt == "csv":
        return report_to_csv(doc)
    if fmt == "svg":
        return report_to_svg(doc)
    raise ReportError(f"unknown report format {fmt!r}")
