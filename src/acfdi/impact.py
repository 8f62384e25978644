"""Attack impact quantification and report rendering.

Evaluates every branch flow at the base state and at the mixed state
(interior buses attacked, everything else at base, the deterministic
stand-in for re-running the network with boundary voltages held by
regulators), tabulates flow/injection/state changes and the
detector's view of both measurement sets, and renders the result as JSON,
CSV tables, or SVG bar charts. All output is deterministic byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import to_json
from .attacks import AttackVector, compute_falsified_injections
from .estimation import (
    BddPolicy,
    EstimationResult,
    chi_square_test,
    largest_normalized_residual,
)
from .network import AdmittanceModel, NetworkCase, build_admittance
from .powerflow import BranchFlow, StateVector, network_powers
from .zones import AttackZone

SCHEMA = "impact/1"


class ReportError(ValueError):
    pass


@dataclass(frozen=True)
class BranchImpact:
    from_bus: int
    to_bus: int
    role: str  # interior | frozen | tie | exterior
    rating: float | None  # p.u., None when the case gives no rating
    base: BranchFlow
    attacked: BranchFlow
    loading_base: float | None  # percent
    loading_attacked: float | None

    @property
    def dp(self) -> float:
        return self.attacked.pf - self.base.pf

    @property
    def dq(self) -> float:
        return self.attacked.qf - self.base.qf


@dataclass(frozen=True)
class BusImpact:
    bus: int
    role: str  # interior | boundary | inert-boundary | exterior
    p_base: float
    q_base: float
    p_attacked: float
    q_attacked: float
    p_falsified: float | None  # zone buses only
    q_falsified: float | None


@dataclass(frozen=True)
class StateDeviation:
    bus: int
    role: str
    vm_base: float
    va_base: float  # radians
    vm_attacked: float
    va_attacked: float

    @property
    def dvm(self) -> float:
        return self.vm_attacked - self.vm_base

    @property
    def dva(self) -> float:
        return self.va_attacked - self.va_base


@dataclass(frozen=True)
class ResidualSummary:
    j_clean: float
    j_attacked: float
    threshold: float
    dof: int
    clean_passed: bool
    attacked_passed: bool
    lnr_clean: tuple[str, float]
    lnr_attacked: tuple[str, float]
    # Two readings of "estimator residuals", reported side by side:
    # (a) change in the weighted measurement residual statistic
    # (b) distance of the attacked estimate from the base state
    j_change: float
    estimate_shift_norm: float
    per_state: tuple[tuple[int, float, float], ...]  # bus, |est-base| vm, va


@dataclass(frozen=True)
class ImpactReport:
    schema: str
    metadata: dict
    zone: AttackZone
    branches: tuple[BranchImpact, ...]
    buses: tuple[BusImpact, ...]
    state_deviation: tuple[StateDeviation, ...]
    residuals: ResidualSummary
    target_summary: tuple[dict, ...]
    notes: tuple[str, ...]


def _bus_role(bus: int, zone: AttackZone) -> str:
    if bus in zone.interior:
        return "interior"
    if bus in zone.inert_boundary:
        return "inert-boundary"
    if bus in zone.boundary:
        return "boundary"
    return "exterior"


def _loading(flow: BranchFlow, rating: float | None) -> float | None:
    if rating is None:
        return None
    return 100.0 * max(flow.sf, flow.st) / rating


def _flow_records(sf: np.ndarray, st: np.ndarray) -> list[BranchFlow]:
    return [
        BranchFlow(*flow)
        for flow in zip(sf.real.tolist(), sf.imag.tolist(), st.real.tolist(), st.imag.tolist())
    ]


def compute_impact(
    case: NetworkCase,
    base: StateVector,
    av: AttackVector,
    clean_est: EstimationResult,
    attacked_est: EstimationResult,
    zone: AttackZone,
    policy: BddPolicy | None = None,
    targets: tuple[tuple[int, int, float], ...] = (),
    metadata: dict | None = None,
    adm: AdmittanceModel | None = None,
) -> ImpactReport:
    if policy is None:
        policy = BddPolicy()
    if adm is None:
        adm = build_admittance(case)
    if not (clean_est.converged and attacked_est.converged):
        raise ReportError("impact report requires converged estimations")

    lines = {"interior": zone.interior_lines, "frozen": zone.frozen_lines, "tie": zone.tie_lines}
    # reversed, so that the first role listed wins for a line in two lists
    role_of = {br.index: role for role, group in reversed(lines.items()) for br in group}
    notes: list[str] = []
    impacts = []  # in adm.branches order
    s_base, *flows_base = network_powers(base, adm)
    s_att, *flows_att = network_powers(av.x_attacked, adm)
    for br, base_flow, attacked in zip(
        adm.branches, _flow_records(*flows_base), _flow_records(*flows_att)
    ):
        rating = br.rating if br.rating > 0 else None
        if rating is None:
            notes.append(f"branch {br.from_bus}-{br.to_bus} has no rating; loading omitted")
        impacts.append(
            BranchImpact(
                from_bus=br.from_bus,
                to_bus=br.to_bus,
                role=role_of.get(br.index, "exterior"),
                rating=rating,
                base=base_flow,
                attacked=attacked,
                loading_base=_loading(base_flow, rating),
                loading_attacked=_loading(attacked, rating),
            )
        )
    branches = sorted(impacts, key=lambda b: (b.from_bus, b.to_bus))

    falsified = compute_falsified_injections(case, base, av.x_attacked, zone, adm)
    buses = []
    for i, b in enumerate(case.buses):
        fal = falsified.get(b.id)
        buses.append(
            BusImpact(
                bus=b.id,
                role=_bus_role(b.id, zone),
                p_base=float(s_base[i].real),
                q_base=float(s_base[i].imag),
                p_attacked=float(s_att[i].real),
                q_attacked=float(s_att[i].imag),
                p_falsified=None if fal is None else fal[0],
                q_falsified=None if fal is None else fal[1],
            )
        )

    deviations = tuple(
        StateDeviation(
            bus=bus,
            role=_bus_role(bus, zone),
            vm_base=base.magnitude(bus),
            va_base=base.angle(bus),
            vm_attacked=av.x_attacked.magnitude(bus),
            va_attacked=av.x_attacked.angle(bus),
        )
        for bus in sorted(zone.buses)
    )

    verdict_clean = chi_square_test(clean_est, policy)
    verdict_attacked = chi_square_test(attacked_est, policy)
    shift = np.concatenate(
        [
            attacked_est.x_hat.vm - base.vm,
            attacked_est.x_hat.va - base.va,
        ]
    )
    per_state = tuple(
        (
            bus,
            float(abs(attacked_est.x_hat.magnitude(bus) - base.magnitude(bus))),
            float(abs(attacked_est.x_hat.angle(bus) - base.angle(bus))),
        )
        for bus in sorted(zone.buses)
    )
    residuals = ResidualSummary(
        j_clean=clean_est.j_statistic,
        j_attacked=attacked_est.j_statistic,
        threshold=verdict_clean.threshold,
        dof=clean_est.dof,
        clean_passed=verdict_clean.passed,
        attacked_passed=verdict_attacked.passed,
        lnr_clean=largest_normalized_residual(clean_est),
        lnr_attacked=largest_normalized_residual(attacked_est),
        j_change=abs(attacked_est.j_statistic - clean_est.j_statistic),
        estimate_shift_norm=float(np.linalg.norm(shift)),
        per_state=per_state,
    )

    target_summary = []
    for f, t, factor in targets:
        k = adm.pair_position.get((f, t))
        if k is None:
            raise ReportError(f"target branch {f}-{t} not found among in-service branches")
        row = impacts[k]
        target_summary.append(
            {
                "from": f,
                "to": t,
                "factor_required": factor,
                "p_base": row.base.pf,
                "p_attacked": row.attacked.pf,
                "factor_attained": row.attacked.pf / row.base.pf if row.base.pf else None,
            }
        )

    return ImpactReport(
        schema=SCHEMA,
        metadata=metadata or {},
        zone=zone,
        branches=tuple(branches),
        buses=tuple(buses),
        state_deviation=deviations,
        residuals=residuals,
        target_summary=tuple(target_summary),
        notes=tuple(dict.fromkeys(notes)),
    )


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    return format(x, ".10g")


def report_to_json(report: ImpactReport) -> str:
    doc = {
        "schema": report.schema,
        "metadata": report.metadata,
        "zone": report.zone.to_dict(),
        "branches": [
            {
                "from": b.from_bus, "to": b.to_bus, "role": b.role,
                "rating": b.rating,
                "base": {"pf": b.base.pf, "qf": b.base.qf, "pt": b.base.pt, "qt": b.base.qt},
                "attacked": {
                    "pf": b.attacked.pf, "qf": b.attacked.qf,
                    "pt": b.attacked.pt, "qt": b.attacked.qt,
                },
                "dp": b.dp, "dq": b.dq,
                "loading_base": b.loading_base,
                "loading_attacked": b.loading_attacked,
            }
            for b in report.branches
        ],
        "buses": [
            {
                "bus": b.bus, "role": b.role,
                "p_base": b.p_base, "q_base": b.q_base,
                "p_attacked": b.p_attacked, "q_attacked": b.q_attacked,
                "p_falsified": b.p_falsified, "q_falsified": b.q_falsified,
            }
            for b in report.buses
        ],
        "state_deviation": [
            {
                "bus": d.bus, "role": d.role,
                "vm_base": d.vm_base, "va_base_deg": math.degrees(d.va_base),
                "vm_attacked": d.vm_attacked,
                "va_attacked_deg": math.degrees(d.va_attacked),
                "dvm": d.dvm, "dva_deg": math.degrees(d.dva),
            }
            for d in report.state_deviation
        ],
        "residuals": {
            "j_clean": report.residuals.j_clean,
            "j_attacked": report.residuals.j_attacked,
            "j_change": report.residuals.j_change,
            "threshold": report.residuals.threshold,
            "dof": report.residuals.dof,
            "clean_passed": report.residuals.clean_passed,
            "attacked_passed": report.residuals.attacked_passed,
            "lnr_clean": list(report.residuals.lnr_clean),
            "lnr_attacked": list(report.residuals.lnr_attacked),
            "estimate_shift_norm": report.residuals.estimate_shift_norm,
            "per_state": [
                {"bus": bus, "dvm_est": dv, "dva_est": da}
                for bus, dv, da in report.residuals.per_state
            ],
        },
        "targets": list(report.target_summary),
        "notes": list(report.notes),
    }
    return to_json(doc, sort_keys=True)


def report_to_csv(report: ImpactReport) -> dict[str, str]:
    """Three tables: zone voltages, zone injections, all branch flows."""
    voltages = ["bus,role,vm_base_pu,va_base_deg,vm_attacked_pu,va_attacked_deg"]
    for d in report.state_deviation:
        voltages.append(
            ",".join(
                [
                    str(d.bus), d.role,
                    _fmt(d.vm_base), _fmt(math.degrees(d.va_base)),
                    _fmt(d.vm_attacked), _fmt(math.degrees(d.va_attacked)),
                ]
            )
        )

    injections = [
        "bus,role,p_base_pu,q_base_pu,p_falsified_pu,q_falsified_pu"
    ]
    for b in report.buses:
        if b.p_falsified is None:
            continue
        injections.append(
            ",".join(
                [
                    str(b.bus), b.role,
                    _fmt(b.p_base), _fmt(b.q_base),
                    _fmt(b.p_falsified), _fmt(b.q_falsified),
                ]
            )
        )

    flows = [
        "from,to,role,p_base_pu,q_base_pu,p_attacked_pu,q_attacked_pu,"
        "dp_pu,dq_pu,loading_base_pct,loading_attacked_pct"
    ]
    for b in report.branches:
        flows.append(
            ",".join(
                [
                    str(b.from_bus), str(b.to_bus), b.role,
                    _fmt(b.base.pf), _fmt(b.base.qf),
                    _fmt(b.attacked.pf), _fmt(b.attacked.qf),
                    _fmt(b.dp), _fmt(b.dq),
                    _fmt(b.loading_base), _fmt(b.loading_attacked),
                ]
            )
        )

    return {
        "voltages.csv": "\n".join(voltages) + "\n",
        "injections.csv": "\n".join(injections) + "\n",
        "flows.csv": "\n".join(flows) + "\n",
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


def report_to_svg(report: ImpactReport) -> dict[str, str]:
    interior = sorted(report.zone.interior)
    cats = [str(b) for b in interior]
    dev = {d.bus: d for d in report.state_deviation}
    angle_deltas = [math.degrees(dev[b].dva) for b in interior]
    mag_deltas = [dev[b].dvm for b in interior]
    per_state = {bus: (dv, da) for bus, dv, da in report.residuals.per_state}
    est_vm = [per_state[b][0] for b in interior]
    est_va = [math.degrees(per_state[b][1]) for b in interior]

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


def render_report(report: ImpactReport, fmt: str) -> dict[str, str]:
    """Render to named documents; callers decide where the bytes go."""
    if fmt == "json":
        return {"impact.json": report_to_json(report)}
    if fmt == "csv":
        return report_to_csv(report)
    if fmt == "svg":
        return report_to_svg(report)
    raise ReportError(f"unknown report format {fmt!r}")
