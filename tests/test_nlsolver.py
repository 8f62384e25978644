import numpy as np
import pytest

import acfdi.attacks
import reference39 as ref
from acfdi import estimation
from acfdi.attacks import AttackSpec, OverloadTarget, SolverParams, design_attack
from acfdi.network import StateVector
from acfdi.nlsolver import _MIN_GAIN, _TOL_STEP, Damping, SolverError, solve_constrained
from conftest import record_evaluations, state_bytes

A = np.array([0.3, -1.2, 2.5, 0.7])


def _sum_to_one(z):
    return np.array([z.sum() - 1.0]), lambda: np.ones((1, len(z)))


def _solve(z0, constraints, **given):
    """solve_constrained from z0, which this evaluates as the caller does,
    with no anchor or bounds and SolverParams' tuning unless given."""
    params = SolverParams()
    settings = {
        "anchor": None, "lower": np.full(len(z0), -np.inf), "upper": np.full(len(z0), np.inf),
        **{key: getattr(params, key)
           for key in ("tol_eq", "max_outer", "max_inner", "penalty0", "penalty_growth")},
        **given,
    }
    return solve_constrained((z0, *constraints(z0)), constraints=constraints, **settings)


def test_projection_onto_hyperplane_matches_closed_form():
    # argmin ||z - a||^2 s.t. sum(z) = 1 is a + (1 - sum(a)) / n
    res = _solve(np.zeros(len(A)), _sum_to_one, anchor=A, tol_eq=1e-10)
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
        tol_eq=1e-10,
    )
    np.testing.assert_allclose(res.z[:k], A + (1.0 - A.sum()) / k, rtol=0, atol=1e-8)
    np.testing.assert_allclose(res.z[k], 2.0, rtol=0, atol=1e-8)
    assert res.max_violation < 1e-10
    assert res.objective == pytest.approx(k * ((1.0 - A.sum()) / k) ** 2, rel=1e-8)


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
    # one outer round, so the multipliers are zero and the merit function the
    # solver minimises is ||z - a||^2 + rho/2 ||c(z)||^2 with rho = penalty0
    target = np.array([3.0, -4.0, 1.0])
    rho = 10.0
    residual_points, jacobian_points = [], []

    def stacked(z):
        # same operations as the solver's stacked residual and Jacobian, so
        # ties break alike
        c = np.array([z @ z - 1.0, z[0] - z[1] ** 3])
        r = np.concatenate([z - target, np.sqrt(rho / 2.0) * c])
        j_pen = np.sqrt(rho / 2.0) * np.array([2.0 * z, [1.0, -3.0 * z[1] ** 2, 0.0]])
        return r, np.vstack([np.eye(3), j_pen])

    z0 = np.array([3.0, -2.0, 0.5])
    with pytest.raises(SolverError):
        _solve(
            z0, _curve(residual_points, jacobian_points), anchor=target,
            penalty0=rho, max_outer=1,
        )

    # replay the acceptance rule (gain ratio and rounding floor) over every
    # trial point; the first evaluation is the caller's, at the start point
    assert np.array_equal(residual_points[0], z0)
    iterates, rejected = [z0], 0
    for z in residual_points[1:]:
        r, jac = stacked(iterates[-1])
        f_cur = float(r @ r)
        lin = r + jac @ (z - iterates[-1])
        r_try, _ = stacked(z)
        f_try = float(r_try @ r_try)
        gain = (f_cur - f_try) / (f_cur - float(lin @ lin))
        if gain > _MIN_GAIN and f_try < f_cur - Damping(0.0, len(r)).floor(f_cur):
            iterates.append(z)
        else:
            rejected += 1

    assert rejected >= 1  # the rule was exercised on a trial it turned down
    assert len(jacobian_points) == len(iterates)
    for zj, zi in zip(jacobian_points, iterates):
        np.testing.assert_allclose(zj, zi, rtol=0, atol=1e-14)

    # over several rounds, a round starts from the Jacobian of the iterate the
    # last one accepted: no point has its Jacobian read twice, and each one
    # read is the start or an accepted trial
    residual_points, jacobian_points = [], []
    res = _solve(z0, _curve(residual_points, jacobian_points), anchor=target, penalty0=0.01)
    assert res.outer_iterations >= 3
    read = [z.tobytes() for z in jacobian_points]
    assert len(set(read)) == len(read)
    assert read[0] == z0.tobytes()
    assert len(read) <= 1 + sum(rd.accepted_steps for rd in res.rounds)
    assert set(read) <= {z.tobytes() for z in residual_points}


@pytest.mark.parametrize("mode", ["optimal", "arbitrary"])
def test_design_builds_one_constraint_model_and_reads_each_jacobian_once(
    case39, adm39, base39, zone39, monkeypatch, mode
):
    # one model of the constraint layout, evaluated once at each point design
    # visits: the optimal start or each arbitrary-mode start draw, the last
    # of which is the solver's start, then each trial. The full layout's
    # model is evaluated at the base and the attacked state only. A Jacobian
    # is read at most once per point
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
        params=SolverParams(seed=1),
    )
    av = design_attack(case39, base39, spec, adm39)
    info = av.solver_info

    full = len(adm39.full_layout)
    (rows,) = [m for m in built if m != full]
    evaluated = [state for m, state in calls if m == rows]
    trials = sum(rd["accepted_steps"] + rd["rejected_trials"] for rd in info["rounds"])
    starts = 1 if mode == "optimal" else info["start_draws"]
    assert len(evaluated) == starts + trials
    assert len(evaluated) == len(set(evaluated)) == 8
    assert [state for m, state in calls if m == full] == [
        state_bytes(base39), state_bytes(av.x_attacked)
    ]
    jacobian_points = [state for m, state in read if m == rows]
    assert len(set(jacobian_points)) == len(jacobian_points)
    assert len(jacobian_points) <= 1 + sum(rd["accepted_steps"] for rd in info["rounds"])
    assert set(jacobian_points) <= set(evaluated)


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
        params=SolverParams(seed=1),
    )
    info = design_attack(case39, base39, spec, adm39).solver_info
    assert 0 < len(evals) <= 3 * info["inner_iterations"] + info["outer_iterations"]
    # design evaluates the start; the solver evaluates one point per trial,
    # accepted or rejected
    rounds = info["rounds"]
    assert len(evals) == sum(rd["accepted_steps"] + rd["rejected_trials"] for rd in rounds)
    assert len(rounds) == info["outer_iterations"]
    assert rounds[-1]["violation"] == info["max_violation"]
    assert rounds[0]["penalty"] == SolverParams().penalty0


def test_solver_error_names_the_most_violated_row():
    # z0 <= 1 keeps the second constraint, z0 = 5, from being met
    with pytest.raises(SolverError) as err:
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


def test_a_start_outside_the_bounds_is_refused():
    # the caller evaluated the start where it is, so the solver cannot move it
    with pytest.raises(ValueError, match="outside the bounds"):
        _solve(np.array([2.0, 0.0]), _sum_to_one, lower=np.zeros(2), upper=np.ones(2))


def test_an_undamped_step_shorter_than_the_step_tolerance_ends_the_round():
    # c(z) = 1e13 (z - 1) from z0 = 1 + 1e-13: the first step, taken at the
    # starting mu, lands on z = 1 but moves about 1e-13, below _TOL_STEP, so
    # the round ends without a Jacobian at the new point
    jacobian_points = []

    def constraints(z):
        def jacobian():
            jacobian_points.append(z.copy())
            return np.array([[1e13]])

        return 1e13 * (z - 1.0), jacobian

    res = _solve(np.array([1.0 + 1e-13]), constraints)
    assert 1e-13 < _TOL_STEP
    assert res.z.tolist() == [1.0]
    assert (res.outer_iterations, res.inner_iterations) == (1, 1)
    assert res.rounds[0].accepted_steps == 1
    assert len(jacobian_points) == 1
