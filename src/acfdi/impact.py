"""Attack impact quantification and report rendering.

Evaluates every branch flow at the base state and at the mixed state
(interior buses attacked, everything else at base, the deterministic
stand-in for re-running the network with boundary voltages held by
regulators), tabulates flow/injection/state changes and the
detector's view of both measurement sets, and renders the result as JSON,
CSV tables, or SVG bar charts. The report is one document, the content of
`impact.json`; the CSV and SVG renderers and the scenario summary read it.
All output is deterministic byte for byte.
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
from .network import AdmittanceModel, NetworkCase, build_admittance
from .zones import AttackZone

SCHEMA = "impact/1"


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


def _flows(powers: tuple[np.ndarray, ...]) -> list[dict]:
    """Each in-service branch's flow {pf, qf, pt, qt} in adm.branches order,
    from the `network_powers` triple of a state."""
    _, sf, st = powers
    parts = (sf.real.tolist(), sf.imag.tolist(), st.real.tolist(), st.imag.tolist())
    return [dict(zip(("pf", "qf", "pt", "qt"), flow)) for flow in zip(*parts)]


def _loading(flow: dict, rating: float | None) -> float | None:
    """Percent of rating carried by the larger apparent power of the two ends."""
    if rating is None:
        return None
    sf = float(np.hypot(flow["pf"], flow["qf"]))
    st = float(np.hypot(flow["pt"], flow["qt"]))
    return 100.0 * max(sf, st) / rating


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
    """The impact.json document of av: flows and injections at av.x_base and
    av.x_attacked, the zone's state deviation, both estimates' residuals and
    the overload targets that av.solver_info names. Powers are in per unit,
    angles in degrees except the per-state estimate shift (radians)."""
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
    notes: list[str] = []
    rows = []  # in adm.branches order
    powers_base = network_powers(base, adm)
    powers_att = network_powers(av.x_attacked, adm)
    s_base, s_att = powers_base[0], powers_att[0]
    for br, before, after in zip(adm.branches, _flows(powers_base), _flows(powers_att)):
        rating = br.rating if br.rating > 0 else None
        if rating is None:
            notes.append(f"branch {br.from_bus}-{br.to_bus} has no rating; loading omitted")
        rows.append(
            {
                "from": br.from_bus, "to": br.to_bus,
                "role": role_of.get(br.index, "exterior"),
                "rating": rating,
                "base": before, "attacked": after,
                "dp": after["pf"] - before["pf"], "dq": after["qf"] - before["qf"],
                "loading_base": _loading(before, rating),
                "loading_attacked": _loading(after, rating),
            }
        )

    falsified = compute_falsified_injections(case, zone, adm, powers_base, powers_att)
    buses = []
    for i, b in enumerate(case.buses):
        fal = falsified.get(b.id)
        buses.append(
            {
                "bus": b.id, "role": _bus_role(b.id, zone),
                "p_base": float(s_base[i].real), "q_base": float(s_base[i].imag),
                "p_attacked": float(s_att[i].real), "q_attacked": float(s_att[i].imag),
                "p_falsified": None if fal is None else fal[0],
                "q_falsified": None if fal is None else fal[1],
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
        p_base, p_attacked = rows[k]["base"]["pf"], rows[k]["attacked"]["pf"]
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
        "branches": sorted(rows, key=lambda b: (b["from"], b["to"])),
        "buses": buses,
        "state_deviation": deviations,
        "residuals": residuals,
        "targets": targets,
        "notes": list(dict.fromkeys(notes)),
    }


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    return format(x, ".10g")


def _csv_rows(header: str, rows: list[dict], labels: tuple[str, ...], values) -> str:
    """header, then each row's label fields as text and its values(row) as .10g."""
    lines = [header]
    for row in rows:
        lines.append(",".join([*(str(row[k]) for k in labels), *map(_fmt, values(row))]))
    return "\n".join(lines) + "\n"


def report_to_csv(doc: dict) -> dict[str, str]:
    """Three tables: zone voltages, zone injections, all branch flows."""
    return {
        "voltages.csv": _csv_rows(
            "bus,role,vm_base_pu,va_base_deg,vm_attacked_pu,va_attacked_deg",
            doc["state_deviation"],
            ("bus", "role"),
            lambda d: (d["vm_base"], d["va_base_deg"], d["vm_attacked"], d["va_attacked_deg"]),
        ),
        "injections.csv": _csv_rows(
            "bus,role,p_base_pu,q_base_pu,p_falsified_pu,q_falsified_pu",
            [b for b in doc["buses"] if b["p_falsified"] is not None],
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
