import dataclasses
import inspect

import numpy as np
import pytest

import acfdi.attacks
import reference39 as ref
from acfdi import estimation, nlsolver
from acfdi.attacks import AttackSpec, OverloadTarget, design_attack
from acfdi.network import StateVector
from acfdi.nlsolver import SolverError, solve_constrained
from conftest import record_evaluations, state_bytes

A = np.array([0.3, -1.2, 2.5, 0.7])


def _sum_to_one(z):
    return np.array([z.sum() - 1.0]), lambda: np.ones((1, len(z)))


def _solve(z0, constraints, **given):
    """solve_constrained from z0, which this evaluates as the caller does,
    with no anchor or bounds and the attack's step cap unless given."""
    settings = {
        "anchor": None, "lower": np.full(len(z0), -np.inf), "upper": np.full(len(z0), np.inf),
        "max_outer": acfdi.attacks.MAX_OUTER,
        **given,
    }
    return solve_constrained((z0, *constraints(z0)), constraints=constraints, **settings)


def test_projection_onto_hyperplane_matches_closed_form():
    # argmin ||z - a||^2 s.t. sum(z) = 1 is a + (1 - sum(a)) / n
    res = _solve(np.zeros(len(A)), _sum_to_one, anchor=A)
    expected = A + (1.0 - A.sum()) / len(A)
    np.testing.assert_allclose(res.z, expected, rtol=0, atol=1e-8)
    assert res.max_violation < 1e-10


def test_anchor_shorter_than_z_leaves_the_rest_free_of_cost():
    # argmin ||z[:k] - a||^2 s.t. sum(z[:k]) = 1 and z[k] = 2 is
    # z[:k] = a + (1 - sum(a)) / k and z[k] = 2
    k = len(A)
    res = _solve(
        np.zeros(k + 1),
        lambda z: (
            np.array([z[:k].sum() - 1.0, z[k] - 2.0]),
            lambda: np.vstack([np.r_[np.ones(k), 0.0], np.eye(1, k + 1, k)]),
        ),
        anchor=A,
    )
    np.testing.assert_allclose(res.z[:k], A + (1.0 - A.sum()) / k, rtol=0, atol=1e-8)
    np.testing.assert_allclose(res.z[k], 2.0, rtol=0, atol=1e-8)
    assert res.max_violation < 1e-10
    assert res.objective == pytest.approx(k * ((1.0 - A.sum()) / k) ** 2, rel=1e-8)


@pytest.mark.parametrize("floor, binds", [(3.0, True), (1.0, False)])
def test_a_slack_held_at_zero_is_a_binding_constraint(floor, binds):
    # sum(z[:k]) >= floor, written sum(z[:k]) - floor - s = 0 with a slack
    # s >= 0 free of cost. sum(A) = 2.3: below 3 the slack is held at 0 and
    # z[:k] is the projection a + (floor - sum(a)) / k, whose multiplier
    # (2 (z - a) = J^T mu) is 2 (floor - sum(a)) / k; above 1 the anchor
    # itself is the solution, the slack is free and its multiplier is 0
    k = len(A)
    row = np.r_[np.ones(k), -1.0]
    res = _solve(
        np.zeros(k + 1),
        lambda z: (np.array([z[:k].sum() - floor - z[k]]), lambda: row[None, :]),
        anchor=A, lower=np.r_[np.full(k, -np.inf), 0.0],
    )
    gap = max(floor - A.sum(), 0.0)
    np.testing.assert_allclose(res.z[:k], A + gap / k, rtol=0, atol=1e-12)
    assert res.z[k] == pytest.approx(max(A.sum() - floor, 0.0), abs=1e-12)
    assert res.at_lower.tolist() == [False] * k + [binds]
    assert res.multipliers[0] == pytest.approx(2.0 * gap / k, abs=1e-12)
    assert res.stationarity < 1e-12


def test_the_active_set_holds_and_releases_bounds():
    # the projection of b onto the simplex sum(z) = 1, z >= 0, is
    # max(b - tau, 0) with tau set by the sum: here tau = 1/6 and the second
    # component sits at 0. The start holds z[0] at its bound, which the
    # solution leaves, and z[1] free, which the solution holds
    b = np.array([0.3, -1.2, 0.5, 0.7])
    expected = np.maximum(b - 1.0 / 6.0, 0.0)
    res = _solve(
        np.array([0.0, 0.25, 0.25, 0.5]), _sum_to_one, anchor=b, lower=np.zeros(len(b)),
    )
    np.testing.assert_allclose(res.z, expected, rtol=0, atol=1e-12)
    assert res.at_lower.tolist() == [False, True, False, False]
    assert res.inner_iterations > res.outer_iterations  # the working set changed
    assert sum(rd.kkt_solves for rd in res.rounds) == res.inner_iterations


def _curve(residual_points, jacobian_points):
    """c(z) = [z.z - 1, z0 - z1^3], recording each point it evaluates and each
    point whose Jacobian is read."""

    def curve(z):
        residual_points.append(z.copy())

        def jacobian():
            jacobian_points.append(z.copy())
            return np.array([2.0 * z, [1.0, -3.0 * z[1] ** 2, 0.0]])

        return np.array([z @ z - 1.0, z[0] - z[1] ** 3]), jacobian

    return curve


def test_jacobians_are_evaluated_only_at_the_start_and_accepted_iterates():
    # every step is taken: each iterate is evaluated once, by the caller at
    # the start and by the solver after each step, and its Jacobian is read
    # once, for the step from it. Each step is the projection of the anchor
    # onto the constraints linearized at the iterate, in its closed form
    # y = a - J^T (J J^T)^-1 (c + J (a - z)) for a full anchor and no bounds
    target = np.array([0.7, 0.6, 0.5])
    residual_points, jacobian_points = [], []
    z0 = np.array([0.2, 1.0, 0.3])
    res = _solve(z0, _curve(residual_points, jacobian_points), anchor=target)

    assert np.array_equal(residual_points[0], z0)
    assert len(residual_points) == res.outer_iterations
    assert [z.tobytes() for z in jacobian_points] == [z.tobytes() for z in residual_points]
    assert res.outer_iterations >= 4
    for z, y in zip(residual_points, residual_points[1:]):
        c, read = _curve([], [])(z)
        jac = read()
        nu = np.linalg.solve(jac @ jac.T, c + jac @ (target - z))
        np.testing.assert_allclose(y, target - jac.T @ nu, rtol=0, atol=1e-12)
    assert res.z.tobytes() == residual_points[-1].tobytes()
    assert res.max_violation < 1e-14


def test_steps_diverge_where_the_curvature_outweighs_the_objective():
    # the point of the curve nearest the far anchor (3, -4, 1) is about
    # z* = (-0.194449, -0.579342, 0.791550), at distance^2 21.9489. There the
    # multipliers (2 (z* - a) = J^T mu) times the constraints' curvature
    # along the curve are about 4 times the objective's Hessian, which is all
    # a Gauss-Newton step models: each step multiplies the error along the
    # curve by about -4, and from (3, -2, 0.5) the solve ends in SolverError
    # still far from the curve. The augmented Lagrangian that projection
    # steps replaced reached z* to its 1e-6 violation tolerance in 9 rounds;
    # this pins that loss
    anchor = np.array([3.0, -4.0, 1.0])
    z = np.array([-0.194449, -0.579342, 0.791550])
    jac = _curve([], [])(z)[1]()
    mu = np.linalg.lstsq(jac.T, 2.0 * (z - anchor))[0]
    tangent = np.cross(*jac)
    curvature = 2.0 * mu[0] * np.eye(3) + mu[1] * np.diag([0.0, -6.0 * z[1], 0.0])
    assert abs(tangent @ curvature @ tangent) / (2.0 * tangent @ tangent) > 4.0
    with pytest.raises(SolverError, match=f"after {acfdi.attacks.MAX_OUTER} outer rounds") as err:
        _solve(np.array([3.0, -2.0, 0.5]), _curve([], []), anchor=anchor)
    assert abs(err.value.value) > 0.1


@pytest.mark.parametrize("mode", ["optimal", "arbitrary"])
def test_design_builds_one_constraint_model_and_reads_each_jacobian_once(
    case39, adm39, base39, zone39, monkeypatch, mode
):
    # one model of the constraint layout, evaluated once at each point design
    # visits: the optimal start or each arbitrary-mode start draw, the last
    # of which is the solver's start, then each step's point. The full
    # layout's model is evaluated at the base and the attacked state only. A
    # Jacobian is read once per point the solver steps from
    built, read = [], []
    build = estimation.MeasurementModel.__init__
    jacobian_values = estimation.Evaluation.jacobian_values

    def building(model, adm, layout):
        built.append(len(layout))
        build(model, adm, layout)

    def reading(at):
        read.append((at.model.m, state_bytes(at.state)))
        return jacobian_values(at)

    monkeypatch.setattr(estimation.MeasurementModel, "__init__", building)
    monkeypatch.setattr(estimation.Evaluation, "jacobian_values", reading)
    calls = record_evaluations(monkeypatch)
    spec = AttackSpec(
        zone=zone39, targets=(OverloadTarget(*ref.TARGET, ref.OVERLOAD_FACTOR),), mode=mode,
        seed=1,
    )
    av = design_attack(case39, base39, spec, adm39)
    info = av.solver_info

    full = len(adm39.full_layout)
    (rows,) = [m for m in built if m != full]
    evaluated = [state for m, state in calls if m == rows]
    # the last step is solved at the returned point and moves nowhere
    starts = 1 if mode == "optimal" else info["start_draws"]
    assert len(evaluated) == starts + info["outer_iterations"] - 1
    assert len(evaluated) == len(set(evaluated)) == {"optimal": 6, "arbitrary": 9}[mode]
    assert [state for m, state in calls if m == full] == [
        state_bytes(base39), state_bytes(av.x_attacked)
    ]
    # one Jacobian per step, read at the start and at each iterate
    jacobian_points = [state for m, state in read if m == rows]
    assert jacobian_points == evaluated[starts - 1:]
    assert jacobian_points[-1] == state_bytes(av.x_attacked)


def test_optimal_design_projects_a_base_outside_the_voltage_band(
    case39, adm39, base39, zone39, monkeypatch
):
    # bus 28's base magnitude lies above its vmax: design projects the start
    # onto the band before it evaluates it, and evaluates every point once
    bus = 28
    i = case39.bus_index(bus)
    vmax = case39.bus(bus).vmax
    vm = base39.vm.copy()
    vm[i] = vmax + 0.02
    base = StateVector(base39.bus_ids, vm, base39.va)
    calls = record_evaluations(monkeypatch)
    spec = AttackSpec(
        zone=zone39, targets=(OverloadTarget(*ref.TARGET, ref.OVERLOAD_FACTOR),), mode="optimal"
    )
    av = design_attack(case39, base, spec, adm39)

    full = len(adm39.full_layout)
    evaluated = [state for m, state in calls if m != full]
    assert len(evaluated) == len(set(evaluated))
    projected = vm.copy()
    projected[i] = vmax
    assert evaluated[0] == state_bytes(StateVector(base39.bus_ids, projected, base39.va))
    interior = [case39.bus_index(b) for b in zone39.interior]
    for j in interior:
        assert case39.buses[j].vmin <= av.x_attacked.vm[j] <= case39.buses[j].vmax
    assert av.x_base.vm[i] == vmax + 0.02
    # the anchor pulls bus 28 past its band, so the solution holds it there
    assert av.x_attacked.vm[i] == vmax
    assert av.solver_info["active_bounds"] == {"vmin": [], "vmax": [bus]}


@pytest.mark.parametrize("mode", ["optimal", "arbitrary"])
def test_design_evaluates_constraints_a_few_times_per_step(
    case39, adm39, base39, zone39, monkeypatch, mode
):
    evals = []
    original = acfdi.attacks.solve_constrained

    def counted(*args, constraints, **kwargs):
        def wrapped(z):
            evals.append(1)
            return constraints(z)

        return original(*args, constraints=wrapped, **kwargs)

    monkeypatch.setattr(acfdi.attacks, "solve_constrained", counted)
    spec = AttackSpec(
        zone=zone39, targets=(OverloadTarget(*ref.TARGET, ref.OVERLOAD_FACTOR),), mode=mode,
        seed=1,
    )
    info = design_attack(case39, base39, spec, adm39).solver_info
    # design evaluates the start; the solver evaluates the point each step
    # reaches, and the last step, solved at the returned point, reaches none
    rounds = info["rounds"]
    assert len(evals) == info["outer_iterations"] - 1 > 0
    assert len(rounds) == info["outer_iterations"]
    assert sum(rd["kkt_solves"] for rd in rounds) == info["inner_iterations"]
    assert rounds[-1]["violation"] == info["max_violation"]
    assert sorted(rounds[0]) == ["kkt_solves", "step", "violation"]


def test_solver_error_names_the_most_violated_row():
    # z0 <= 1 keeps the second constraint, z0 = 5, from being met: the first
    # step holds z0 at 1, which leaves that row no free variable and 4 short
    with pytest.raises(SolverError, match="every variable of row 1 is held") as err:
        _solve(
            np.zeros(2),
            lambda z: (
                np.array([z[1] - 1.0, z[0] - 5.0]), lambda: np.array([[0.0, 1.0], [1.0, 0.0]])
            ),
            upper=np.array([1.0, np.inf]),
            max_outer=3,
        )
    assert err.value.row == 1
    assert err.value.value == pytest.approx(-4.0)


def test_solver_takes_the_problem_and_its_round_cap_alone():
    # projection steps have no tuning: the attack keeps its step cap, a
    # scenario setting, and neither module keeps the augmented Lagrangian's
    # constants
    params = inspect.signature(solve_constrained).parameters
    assert list(params) == ["start", "constraints", "anchor", "lower", "upper", "max_outer"]
    for name in ("_TOL_EQ", "_MAX_INNER", "_PENALTY0", "_PENALTY_GROWTH", "_TOL_STEP"):
        assert not hasattr(nlsolver, name) and not hasattr(acfdi.attacks, name), name
    # the step count, the KKT solves and the final violation are read off
    # the steps; the rest is the last KKT solve's
    fields = [f.name for f in dataclasses.fields(nlsolver.SolveResult)]
    assert fields == ["z", "objective", "rounds", "multipliers", "at_lower", "at_upper",
                      "stationarity"]
    assert [f.name for f in dataclasses.fields(nlsolver.RoundInfo)] == [
        "violation", "step", "kkt_solves"
    ]
    res = _solve(np.zeros(len(A)), _sum_to_one, anchor=A)
    assert (res.outer_iterations, res.max_violation) == (len(res.rounds), res.rounds[-1].violation)
    assert res.inner_iterations == sum(rd.kkt_solves for rd in res.rounds)


def test_a_start_outside_the_bounds_is_refused():
    # the caller evaluated the start where it is, so the solver cannot move it
    with pytest.raises(ValueError, match="outside the bounds"):
        _solve(np.array([2.0, 0.0]), _sum_to_one, lower=np.zeros(2), upper=np.ones(2))


@pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
def test_the_stop_is_relative_to_the_size_of_the_point(scale):
    # the hyperplane projection at every scale: one step reaches the solution
    # and a second, at rounding level of the point, confirms it. At 1e-20 the
    # start already meets the constraint to 1e-20, which an absolute
    # violation tolerance would have accepted as the solution
    def constraints(z):
        return np.array([z.sum() - scale]), lambda: np.ones((1, len(z)))

    res = _solve(np.zeros(len(A)), constraints, anchor=scale * A)
    expected = scale * (A + (1.0 - A.sum()) / len(A))
    np.testing.assert_allclose(res.z, expected, rtol=0, atol=1e-14 * scale)
    assert res.outer_iterations == 2
