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
from dataclasses import asdict, dataclass

import numpy as np

from . import artifacts
from .artifacts import ConfigError, known, member, typed
# eval_h and eval_jacobian are not called here: bench/spans.py patches them in this module
from .estimation import (
    KIND_CODE, Evaluation, Layout, MeasurementModel, MeasurementSet, eval_h, eval_jacobian,
    full_layout_powers,
)
from .network import AdmittanceModel, NetworkCase, StateVector, build_admittance
from .nlsolver import SolverError, solve_constrained
from .zones import AttackZone


# the solver's step cap, the default of `AttackSpec.max_outer`
MAX_OUTER = 20
# arbitrary mode: its start offsets the base by seeded uniform draws of up to
# these angles (radians) and magnitudes (p.u.), redrawn at most
# _MAX_START_DRAWS times until one meets the targets, and it widens the
# magnitude bounds by _VM_RELAX
_ANG_PERTURBATION = 0.35
_MAG_PERTURBATION = 0.05
_MAX_START_DRAWS = 100
_VM_RELAX = 0.1
_OVERLOAD_MARGIN = 1e-4  # strict-feasibility offset on the overload bound
# the keys of the solver report that `design_attack` writes
_SOLVER_INFO_KEYS = ("mode", "targets", "max_violation", "objective", "outer_iterations",
                     "inner_iterations", "start_draws", "rounds", "target_flows",
                     "target_bounds", "target_multipliers", "target_prices", "active_targets",
                     "active_bounds", "stationarity")


class AttackError(RuntimeError):
    pass


@dataclass(frozen=True)
class OverloadTarget:
    """Require the from-end active flow of a branch to reach factor x base flow."""

    from_bus: int
    to_bus: int
    factor: float


@dataclass(frozen=True)
class AttackSpec:
    zone: AttackZone
    targets: tuple[OverloadTarget, ...]
    mode: str  # 'optimal' | 'arbitrary'
    seed: int = 0  # of the arbitrary-mode start
    max_outer: int = MAX_OUTER  # projection steps before the design is infeasible

    def __post_init__(self):
        if self.mode not in ("optimal", "arbitrary"):
            raise AttackError(f"unknown attack mode {self.mode!r}")
        if not self.max_outer >= 1:
            raise AttackError(f"max_outer must be at least 1, got {self.max_outer}")
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
        return artifacts.to_json(
            {
                "x_base": self.x_base.to_dict(),
                "x_attacked": self.x_attacked.to_dict(),
                "deltas": dict(sorted(self.deltas.items())),
                "falsified_injections": {
                    str(b): [p, q] for b, (p, q) in sorted(self.falsified_injections.items())
                },
                "solver_info": self.solver_info,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "AttackVector":
        """The attack that `to_json` wrote. Text that is not such a document
        raises ConfigError naming the missing or mistyped field."""
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"attack is not valid JSON: {exc}") from None
        states = {
            key: StateVector.from_dict(member(doc, key, dict, "attack"), f"attack {key}")
            for key in ("x_base", "x_attacked")
        }
        known(doc, ("x_base", "x_attacked", "deltas", "falsified_injections", "solver_info"),
              "attack")
        deltas = member(doc, "deltas", dict, "attack")
        falsified = member(doc, "falsified_injections", dict, "attack")
        solver_info = member(doc, "solver_info", dict, "attack")
        known(solver_info, _SOLVER_INFO_KEYS, "attack solver_info")
        if "targets" in solver_info:
            for i, t in enumerate(member(solver_info, "targets", list, "attack solver_info")):
                for key, kind in (("from", int), ("to", int), ("factor", float)):
                    member(t, key, kind, f"attack solver_info targets[{i}]")
        injections = {}
        for bus, pq in falsified.items():
            where = f"attack falsified_injections '{bus}'"
            try:
                bus_id = int(bus)
            except ValueError:
                raise ConfigError(f"{where}: key must be a bus id") from None
            if not isinstance(pq, list) or len(pq) != 2:
                raise ConfigError(f"{where} must be a [p, q] pair")
            injections[bus_id] = tuple(typed(x, float, where) for x in pq)
        return cls(
            **states,
            deltas={key: member(deltas, key, float, "attack deltas") for key in deltas},
            falsified_injections=injections,
            solver_info=solver_info,
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
    model = MeasurementModel(adm, con_layout)

    # the target flows and the attack read the full layout's model at the
    # base and at the attacked state, each evaluated once
    full_model = MeasurementModel(adm, adm.full_layout)
    at_base = full_model.evaluate(base)
    base_flows = full_layout_powers(at_base, adm)[1][target_lines].real
    for t, flow in zip(spec.targets, base_flows.tolist()):
        if not flow > 0:
            raise AttackError(
                f"target branch {t.from_bus}-{t.to_bus} has base from-end flow "
                f"{flow:+.6g} p.u.; an overload factor needs a positive one"
            )
    bounds_flow = np.array(
        [t.factor * f + _OVERLOAD_MARGIN for t, f in zip(spec.targets, base_flows)]
    )

    int_pos = np.array([case.bus_index(b) for b in interior], dtype=int)
    va0, vm0 = base.va[int_pos], base.vm[int_pos]
    # dc/dz's entries: the model's nonzeros in the interior state columns,
    # each at its row and its variable (angles, then magnitudes)
    variable = np.full(model.n_state, -1)
    variable[model.state_columns(int_pos)] = np.arange(2 * n_int)
    entries = np.flatnonzero(variable[model.cols] >= 0)
    entry_rows, entry_vars = model.rows[entries], variable[model.cols[entries]]

    def state_of(z: np.ndarray) -> StateVector:
        vm, va = base.vm.copy(), base.va.copy()
        vm[int_pos] = z[n_int : 2 * n_int]
        va[int_pos] = z[:n_int]
        return StateVector(base.bus_ids, vm, va)

    slack_cols = 2 * n_int + np.arange(n_targets)

    def constraints_at(z: np.ndarray, at: Evaluation) -> tuple:
        """The constraints at z, read off the model's evaluation at state_of(z)."""
        c = at.h()
        c[target_rows] = c[target_rows] - bounds_flow - z[slack_cols]

        def jacobian() -> np.ndarray:
            jac = np.zeros((model.m, 2 * n_int + n_targets))
            jac[entry_rows, entry_vars] = at.jacobian_values()[entries]
            jac[target_rows, slack_cols] = -1.0
            return jac

        return c, jacobian

    def constraints(z: np.ndarray) -> tuple:
        return constraints_at(z, model.evaluate(state_of(z)))

    vm_lo = np.array([case.bus(b).vmin for b in interior])
    vm_hi = np.array([case.bus(b).vmax for b in interior])
    if spec.mode == "arbitrary":
        vm_lo = vm_lo - _VM_RELAX
        vm_hi = vm_hi + _VM_RELAX
    lower = np.concatenate([np.full(n_int, -np.inf), vm_lo, np.zeros(n_targets)])
    upper = np.concatenate([np.full(n_int, np.inf), vm_hi, np.full(n_targets, np.inf)])

    if spec.mode == "optimal":
        anchor = np.concatenate([va0, vm0])
        z0 = np.concatenate([anchor, np.maximum(base_flows - bounds_flow, 0.0)])
        z0 = np.minimum(np.maximum(z0, lower), upper)  # the solver's start lies in the bounds
        start = (z0, *constraints(z0))
        start_draws = 0
    else:
        # seeded start; redraw until the overload targets already hold so the
        # feasibility solve is not dragged down onto the overload bound. The
        # last draw's evaluation is the solver's start
        rng = np.random.default_rng(spec.seed)
        for start_draws in range(1, _MAX_START_DRAWS + 1):
            va_try = va0 + rng.uniform(-_ANG_PERTURBATION, _ANG_PERTURBATION, n_int)
            vm_try = np.clip(
                vm0 + rng.uniform(-_MAG_PERTURBATION, _MAG_PERTURBATION, n_int),
                vm_lo,
                vm_hi,
            )
            z0 = np.concatenate([va_try, vm_try, np.zeros(n_targets)])
            at = model.evaluate(state_of(z0))
            flows = at.h()[target_rows]
            z0[2 * n_int :] = np.maximum(flows - bounds_flow, 0.0)
            if np.all(flows >= bounds_flow):
                break
        start = (z0, *constraints_at(z0, at))
        anchor = None

    try:
        result = solve_constrained(
            start,
            constraints=constraints,
            anchor=anchor,
            lower=lower,
            upper=upper,
            max_outer=spec.max_outer,
        )
    except SolverError as exc:
        raise AttackError(
            f"{spec.mode} attack design infeasible: constraint {con_layout.ids[exc.row]} "
            f"still off by {exc.value:+.3e} after {spec.max_outer} outer rounds"
        ) from exc

    at_attacked = full_model.evaluate(state_of(result.z))
    # the last KKT solve's multipliers: a target's mu prices its bound, and mu
    # p0 is the rise of the objective per unit of its overload factor. A
    # target is active while its slack is held at 0
    mu = result.multipliers[target_rows]
    magnitudes = slice(n_int, 2 * n_int)
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
        "target_flows": full_layout_powers(at_attacked, adm)[1][target_lines].real.tolist(),
        "target_bounds": [float(b) for b in bounds_flow],
        "target_multipliers": mu.tolist(),
        "target_prices": (mu * base_flows).tolist(),
        "active_targets": [con_layout.ids[r] for r in target_rows[result.at_lower[slack_cols]]],
        "active_bounds": {
            "vmin": [b for b, held in zip(interior, result.at_lower[magnitudes]) if held],
            "vmax": [b for b, held in zip(interior, result.at_upper[magnitudes]) if held],
        },
        "stationarity": result.stationarity,
    }
    return assemble_attack_vector(case, at_base, at_attacked, zone, adm=adm, solver_info=info)


def compute_falsified_injections(
    case: NetworkCase,
    zone: AttackZone,
    attacked_powers: tuple[np.ndarray, ...],
) -> dict[int, tuple[float, float]]:
    """What each zone bus must appear to inject after the attack: exactly
    (0, 0) at a zero-injection interior bus and, at every other zone bus, its
    injection in the `estimation.network_powers` triple of the attacked
    state, which is what the attacked injection meters show. An inert
    boundary bus has no moved Ybus neighbour, so that is its base injection."""
    buses = sorted(zone.buses)
    s_bus = attacked_powers[0][[case.bus_index(b) for b in buses]].tolist()
    zero = zone.zero_injection_interior(case)
    return {b: (0.0, 0.0) if b in zero else (s.real, s.imag) for b, s in zip(buses, s_bus)}


def check_moves_only_interior(
    base: StateVector, x_attacked: StateVector, zone: AttackZone, error: type[Exception]
) -> None:
    """Raise error naming the first bus outside the zone interior whose
    magnitude or angle differs between the two states."""
    moved = (base.vm != x_attacked.vm) | (base.va != x_attacked.va)
    moved &= ~np.isin(base.bus_ids, list(zone.interior))
    if moved.any():
        raise error(f"attacked state moves non-interior bus {base.bus_ids[moved.argmax()]}")


def assemble_attack_vector(
    case: NetworkCase,
    at_base: Evaluation,
    at_attacked: Evaluation,
    zone: AttackZone,
    adm: AdmittanceModel,
    solver_info: dict | None = None,
) -> AttackVector:
    """Populate the per-measurement deltas for everything the attack touches:
    both ends of interior-line flows, zone bus injections, and interior V and
    angle readings. at_base and at_attacked are evaluations of the case's
    full layout (`AdmittanceModel.full_layout`) at the base and the attacked
    state; they give the deltas on those rows, and at_attacked the powers
    of the falsified injections. Every other measurement keeps a zero delta
    (omitted)."""
    layout = adm.full_layout
    base, x_attacked = at_base.state, at_attacked.state
    check_moves_only_interior(base, x_attacked, zone, AttackError)

    # `where` is a flow row's branch row and any other row's bus id
    kind, where = layout.kind, layout.where
    lines = [adm.position[br.index] for br in zone.interior_lines]
    rows = np.flatnonzero(np.select(
        [kind < 2, kind < 4], [np.isin(where, lines), np.isin(where, list(zone.buses))],
        np.isin(where, list(zone.interior)),
    ))
    deltas = at_attacked.h()[rows] - at_base.h()[rows]
    falsified = compute_falsified_injections(case, zone, full_layout_powers(at_attacked, adm))

    return AttackVector(
        x_base=base,
        x_attacked=x_attacked,
        deltas=dict(zip([layout.ids[i] for i in rows.tolist()], deltas.tolist())),
        falsified_injections=falsified,
        solver_info=solver_info or {},
    )


def apply_attack(ms: MeasurementSet, av: AttackVector) -> MeasurementSet:
    """Shift measurement values by the attack deltas; variances stay put."""
    try:
        rows = [ms.layout.position[meas_id] for meas_id in av.deltas]
    except KeyError as exc:
        raise AttackError(f"measurement set has no id {exc.args[0]!r}") from None
    return ms.shifted(rows, list(av.deltas.values()))
