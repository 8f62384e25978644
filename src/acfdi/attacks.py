"""Attack design: craft an interior state that respects every zone constraint,
then translate it into additive measurement deltas.

Two modes:
  optimal   - minimize the squared interior state deviation from the base
              point subject to the constraints; the stealthiest attack that
              still meets the overload targets.
  arbitrary - pure feasibility from a seeded random interior perturbation;
              respects the same constraints but lands far from the base
              point, trading stealth margin for impact.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .estimation import KIND_CODE, Layout, MeasurementSet, eval_h, eval_jacobian, measurement_model
from .network import AdmittanceModel, NetworkCase, build_admittance
from .nlsolver import SolverError, solve_constrained
from .powerflow import StateVector, all_injections, branch_flows
from .zones import AttackZone


class AttackError(RuntimeError):
    pass


@dataclass(frozen=True)
class OverloadTarget:
    """Require the from-end active flow of a branch to reach factor x base flow."""

    from_bus: int
    to_bus: int
    factor: float


@dataclass(frozen=True)
class SolverParams:
    tol_eq: float = 1e-6
    tol_step: float = 1e-12
    max_outer: int = 20
    max_inner: int = 60
    penalty0: float = 10.0
    penalty_growth: float = 10.0
    seed: int = 0
    ang_perturbation: float = 0.35  # radians, arbitrary-mode start
    mag_perturbation: float = 0.05  # p.u., arbitrary-mode start
    vm_relax: float = 0.1  # widening of magnitude bounds in arbitrary mode
    overload_margin: float = 1e-4  # strict-feasibility offset on the overload bound
    max_start_draws: int = 100

    def __post_init__(self):
        # written as `not value > bound` so that NaN is rejected too
        for name in ("max_outer", "max_inner", "max_start_draws"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("tol_eq", "tol_step", "penalty0"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.penalty_growth > 1:
            raise ValueError("penalty_growth must be greater than 1")
        for name in ("ang_perturbation", "mag_perturbation", "vm_relax", "overload_margin"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class AttackSpec:
    zone: AttackZone
    targets: tuple[OverloadTarget, ...]
    mode: str  # 'optimal' | 'arbitrary'
    params: SolverParams = field(default_factory=SolverParams)

    def __post_init__(self):
        if self.mode not in ("optimal", "arbitrary"):
            raise AttackError(f"unknown attack mode {self.mode!r}")
        for t in self.targets:
            if t.factor <= 0:
                raise AttackError(f"overload factor must be positive, got {t.factor}")


@dataclass(frozen=True)
class AttackVector:
    """Additive measurement-space attack consistent with a shifted state.

    x_attacked differs from x_base only on zone-interior buses; every delta
    equals the measurement function evaluated at both states and subtracted,
    so appending the deltas to consistent data keeps it consistent.
    """

    x_base: StateVector
    x_attacked: StateVector
    deltas: dict[str, float]
    falsified_injections: dict[int, tuple[float, float]]
    solver_info: dict

    def to_json(self) -> str:
        return json.dumps(
            {
                "x_base": self.x_base.to_dict(),
                "x_attacked": self.x_attacked.to_dict(),
                "deltas": dict(sorted(self.deltas.items())),
                "falsified_injections": {
                    str(b): [p, q] for b, (p, q) in sorted(self.falsified_injections.items())
                },
                "solver_info": self.solver_info,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "AttackVector":
        doc = json.loads(text)
        return cls(
            x_base=StateVector.from_dict(doc["x_base"]),
            x_attacked=StateVector.from_dict(doc["x_attacked"]),
            deltas=dict(doc["deltas"]),
            falsified_injections={
                int(b): (pq[0], pq[1]) for b, pq in doc["falsified_injections"].items()
            },
            solver_info=doc["solver_info"],
        )


def design_attack(
    case: NetworkCase,
    base: StateVector,
    spec: AttackSpec,
    adm: AdmittanceModel | None = None,
) -> AttackVector:
    """Solve the attack-design problem and assemble the measurement deltas.

    Decision variables are (angle, magnitude) at interior buses plus one
    non-negative slack per overload target. Constraints: zero net injection
    at zero-injection interior buses, from-end active flow of each target at
    or above factor x base (held strictly feasible by a small margin), and
    interior magnitudes inside the case voltage band (widened in arbitrary
    mode). Boundary and exterior states are never touched.
    """
    if adm is None:
        adm = build_admittance(case)
    zone = spec.zone
    params = spec.params
    interior = sorted(zone.interior)
    n_int = len(interior)

    interior_positions = {adm.position[br.index] for br in zone.interior_lines}
    target_lines = []
    for t in spec.targets:
        k = adm.pair_position.get((t.from_bus, t.to_bus))
        if k is None:
            raise AttackError(f"no in-service branch {t.from_bus}-{t.to_bus}")
        if k not in interior_positions:
            raise AttackError(
                f"target branch {t.from_bus}-{t.to_bus} is not an interior line of the zone"
            )
        target_lines.append(k)

    zero_inj = list(zone.zero_injection_interior(case))

    # constraint rows evaluated through the measurement machinery: P and Q
    # injection at each zero-injection interior bus, then the from-end active
    # flow of each target
    con_layout = Layout.from_rows(
        [(f"{kind}:{b}", KIND_CODE[kind], b, False) for b in zero_inj for kind in ("Pinj", "Qinj")]
        + [(f"Pf:{t.from_bus}-{t.to_bus}", KIND_CODE["Pflow"], k, True)
           for t, k in zip(spec.targets, target_lines)]
    )
    n_targets = len(target_lines)
    target_rows = 2 * len(zero_inj) + np.arange(n_targets)

    def target_flows(state: StateVector) -> np.ndarray:
        """From-end active flow of each target, read from its constraint row."""
        return eval_h(adm, state, con_layout)[target_rows]

    base_flows = target_flows(base)
    bounds_flow = np.array(
        [t.factor * f + params.overload_margin for t, f in zip(spec.targets, base_flows)]
    )

    int_pos = np.array([case.bus_index(b) for b in interior], dtype=int)
    int_cols = measurement_model(adm, con_layout).state_columns(int_pos)
    va0, vm0 = base.va[int_pos], base.vm[int_pos]

    def state_of(z: np.ndarray) -> StateVector:
        vm, va = base.vm.copy(), base.va.copy()
        vm[int_pos] = z[n_int : 2 * n_int]
        va[int_pos] = z[:n_int]
        return StateVector(base.bus_ids, vm, va)

    # the solver calls `constraints` at every trial point and
    # `constraint_jacobian` only at points it accepts
    slack_cols = 2 * n_int + np.arange(n_targets)

    def constraints(z: np.ndarray) -> np.ndarray:
        c = eval_h(adm, state_of(z), con_layout)
        c[target_rows] = c[target_rows] - bounds_flow - z[slack_cols]
        return c

    def constraint_jacobian(z: np.ndarray) -> np.ndarray:
        jac = np.zeros((len(con_layout), 2 * n_int + n_targets))
        jac[:, : 2 * n_int] = eval_jacobian(adm, state_of(z), con_layout)[:, int_cols]
        jac[target_rows, slack_cols] = -1.0
        return jac

    def objective(z: np.ndarray) -> np.ndarray:
        return np.concatenate([z[:n_int] - va0, z[n_int : 2 * n_int] - vm0])

    vm_lo = np.array([case.bus(b).vmin for b in interior])
    vm_hi = np.array([case.bus(b).vmax for b in interior])
    if spec.mode == "arbitrary":
        vm_lo = vm_lo - params.vm_relax
        vm_hi = vm_hi + params.vm_relax
    lower = np.concatenate([np.full(n_int, -np.inf), vm_lo, np.zeros(n_targets)])
    upper = np.concatenate([np.full(n_int, np.inf), vm_hi, np.full(n_targets, np.inf)])

    if spec.mode == "optimal":
        z0 = np.concatenate([va0, vm0, np.maximum(base_flows - bounds_flow, 0.0)])
        # the objective is linear in z, so its Jacobian is one constant matrix
        objective_jac = np.zeros((2 * n_int, 2 * n_int + n_targets))
        objective_jac[:, : 2 * n_int] = np.eye(2 * n_int)
        obj_fn, obj_jac_fn = objective, lambda z: objective_jac
        start_draws = 0
    else:
        # seeded start; redraw until the overload targets already hold so the
        # feasibility solve is not dragged down onto the overload bound
        rng = np.random.default_rng(params.seed)
        for start_draws in range(1, params.max_start_draws + 1):
            va_try = va0 + rng.uniform(-params.ang_perturbation, params.ang_perturbation, n_int)
            vm_try = np.clip(
                vm0 + rng.uniform(-params.mag_perturbation, params.mag_perturbation, n_int),
                vm_lo,
                vm_hi,
            )
            z_try = np.concatenate([va_try, vm_try, np.zeros(n_targets)])
            flows = target_flows(state_of(z_try))
            z_try[2 * n_int :] = np.maximum(flows - bounds_flow, 0.0)
            z0 = z_try
            if np.all(flows >= bounds_flow):
                break
        obj_fn = obj_jac_fn = None

    try:
        result = solve_constrained(
            z0,
            constraints=constraints,
            constraint_jacobian=constraint_jacobian,
            objective=obj_fn,
            objective_jacobian=obj_jac_fn,
            lower=lower,
            upper=upper,
            tol_eq=params.tol_eq,
            tol_step=params.tol_step,
            max_outer=params.max_outer,
            max_inner=params.max_inner,
            penalty0=params.penalty0,
            penalty_growth=params.penalty_growth,
        )
    except SolverError as exc:
        raise AttackError(
            f"{spec.mode} attack design infeasible: constraint {con_layout.ids[exc.row]} "
            f"still off by {exc.value:+.3e} after {params.max_outer} outer rounds"
        ) from exc

    x_attacked = state_of(result.z)
    info = {
        "mode": spec.mode,
        "targets": [
            {"from": t.from_bus, "to": t.to_bus, "factor": t.factor} for t in spec.targets
        ],
        "max_violation": result.max_violation,
        "objective": result.objective,
        "outer_iterations": result.outer_iterations,
        "inner_iterations": result.inner_iterations,
        "start_draws": start_draws,
        "rounds": [asdict(rd) for rd in result.rounds],
        "target_flows": target_flows(x_attacked).tolist(),
        "target_bounds": [float(b) for b in bounds_flow],
    }
    return assemble_attack_vector(case, base, x_attacked, zone, adm=adm, solver_info=info)


def compute_falsified_injections(
    case: NetworkCase,
    base: StateVector,
    x_attacked: StateVector,
    zone: AttackZone,
    adm: AdmittanceModel | None = None,
    *,
    flows: tuple[np.ndarray, ...] | None = None,
    base_injections: tuple[np.ndarray, np.ndarray] | None = None,
) -> dict[int, tuple[float, float]]:
    """What each zone bus must appear to inject after the attack.

    Non-zero-injection zone buses report their base injection plus the sum of
    interior-line flow changes on lines touching them; zero-injection interior
    buses stay at exactly (0, 0); inert boundary buses keep their base values.
    A caller that has them passes `flows`, (sf, st) of `branch_flows` at base
    and then at x_attacked, and `base_injections`, `all_injections` at base.
    """
    if adm is None:
        adm = build_admittance(case)
    if flows is None:
        flows = (*branch_flows(base, adm), *branch_flows(x_attacked, adm))
    p_base, q_base = all_injections(base, adm) if base_injections is None else base_injections
    sf_base, st_base, sf_att, st_att = flows

    # each interior line's flow change lands on its from bus, then its to bus,
    # in zone order; bincount adds them in that order, so every bus sums its
    # lines in the order the zone lists them
    lines = np.array([adm.position[br.index] for br in zone.interior_lines], dtype=int)
    ends = np.column_stack([adm.f_idx[lines], adm.t_idx[lines]]).ravel()
    change = np.column_stack(
        [sf_att[lines] - sf_base[lines], st_att[lines] - st_base[lines]]
    ).ravel()
    dp = np.bincount(ends, weights=change.real, minlength=case.n_bus)
    dq = np.bincount(ends, weights=change.imag, minlength=case.n_bus)

    out: dict[int, tuple[float, float]] = {}
    for bus in sorted(zone.buses):
        i = case.bus_index(bus)
        if bus in zone.interior and not case.has_injection(bus):
            out[bus] = (0.0, 0.0)
        elif bus in zone.inert_boundary:
            out[bus] = (float(p_base[i]), float(q_base[i]))
        else:
            out[bus] = (float(p_base[i] + dp[i]), float(q_base[i] + dq[i]))
    return out


def assemble_attack_vector(
    case: NetworkCase,
    base: StateVector,
    x_attacked: StateVector,
    zone: AttackZone,
    layout: Layout | None = None,
    adm: AdmittanceModel | None = None,
    solver_info: dict | None = None,
) -> AttackVector:
    """Populate the per-measurement deltas for everything the attack touches:
    interior V and angle readings, both ends of interior-line flows, and zone
    bus injections. Every other measurement keeps a zero delta (omitted)."""
    if adm is None:
        adm = build_admittance(case)
    if layout is None:
        layout = adm.full_layout

    moved = (base.vm != x_attacked.vm) | (base.va != x_attacked.va)
    moved &= ~np.isin(base.bus_ids, list(zone.interior))
    if moved.any():
        raise AttackError(f"attacked state moves non-interior bus {base.bus_ids[moved.argmax()]}")

    # the first row of each flow reading by (branch row, P or Q, from end),
    # len(layout) for none; then Pf, Pt, Qf, Qt of each interior line
    nl, none = len(adm.branches), len(layout)
    flow = np.flatnonzero((layout.kind < 2) & (layout.where >= 0) & (layout.where < nl))
    reading = np.full((nl, 2, 2), none)
    cell = (layout.where[flow], layout.kind[flow], layout.from_side[flow].astype(int))
    np.minimum.at(reading, cell, flow)
    lines = [adm.position[br.index] for br in zone.interior_lines]
    rows = reading[lines][:, [0, 0, 1, 1], [1, 0, 1, 0]]
    missing = np.flatnonzero((rows == none).any(axis=1))
    if len(missing):
        br = zone.interior_lines[missing[0]]
        raise AttackError(
            f"measurement layout is missing flow readings for interior line "
            f"{br.from_bus}-{br.to_bus}"
        )
    wanted = [f"{kind}:{bus}" for bus in sorted(zone.buses) for kind in ("Pinj", "Qinj")]
    wanted += [f"{kind}:{bus}" for bus in sorted(zone.interior) for kind in ("Vmag", "Vang")]
    for meas_id in wanted:
        if meas_id not in layout.position:
            raise AttackError(
                f"measurement layout is missing {meas_id!r}, which the attack must alter"
            )

    sub_layout = layout.subset(rows.ravel().tolist() + [layout.position[i] for i in wanted])
    h_att = eval_h(adm, x_attacked, sub_layout)
    h_base = eval_h(adm, base, sub_layout)

    return AttackVector(
        x_base=base,
        x_attacked=x_attacked,
        deltas=dict(zip(sub_layout.ids, (h_att - h_base).tolist())),
        falsified_injections=compute_falsified_injections(case, base, x_attacked, zone, adm),
        solver_info=solver_info or {},
    )


def apply_attack(ms: MeasurementSet, av: AttackVector) -> MeasurementSet:
    """Shift measurement values by the attack deltas; variances stay put."""
    try:
        rows = [ms.layout.position[meas_id] for meas_id in av.deltas]
    except KeyError as exc:
        raise AttackError(f"measurement set has no id {exc.args[0]!r}") from None
    values = ms.values.copy()
    values[rows] += list(av.deltas.values())
    return MeasurementSet(ms.layout, values, ms.variances)
