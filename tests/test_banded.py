"""The banded gain: RCM order, block Cholesky solve and selected inverse.

Every check runs on case39, on two chained case39 copies and on a 2-D
lattice, whose bandwidth grows with the grid, against dense numpy and
scipy.sparse.csgraph oracles.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee

from acfdi.banded import BlockCholesky, rcm_order
from acfdi.estimation import (
    _require_observable,
    eval_jacobian,
    generate_measurements,
    measurement_model,
    wls_estimate,
)
from acfdi.network import build_admittance, load_bundled_case39
from acfdi.powerflow import StateVector, newton_power_flow

from meshgrid import meshed_case

sys.path.insert(0, str(Path(__file__).parent.parent / "bench"))
from grids import tiled_case39  # noqa: E402

GRIDS = {
    "case39": load_bundled_case39,
    "case39x2": lambda: tiled_case39(2),
    "mesh10x10": lambda: meshed_case(10, 10),
}


@pytest.fixture(scope="module", params=sorted(GRIDS))
def grid(request):
    """(case, adm, model, measurements, state) at a seeded state near the
    power-flow solution, where no Jacobian entry is zero by accident."""
    case = GRIDS[request.param]()
    adm = build_admittance(case)
    base = newton_power_flow(case, adm).state
    rng = np.random.default_rng(4)
    state = StateVector(
        base.bus_ids,
        base.vm * (1 + 0.01 * rng.standard_normal(case.n_bus)),
        base.va + 0.01 * rng.standard_normal(case.n_bus),
    )
    ms = generate_measurements(case, base, seed=2, adm=adm)
    return case, adm, measurement_model(adm, ms.layout), ms, state


def _band_positions(model):
    order = model.pattern._band.order
    pos = np.empty(len(order), dtype=int)
    pos[order] = np.arange(len(order))
    return pos


def _dense_gain(adm, ms, state):
    jac = eval_jacobian(adm, state, ms.layout)
    return (jac / ms.variances[:, None]).T @ jac


def test_rcm_bandwidth_within_tenth_of_scipy(grid):
    _, adm, model, ms, state = grid
    pattern = _dense_gain(adm, ms, state) != 0
    i, j = np.nonzero(pattern)
    pos = _band_positions(model)
    assert np.array_equal(np.sort(model.pattern._band.order), np.arange(model.n_state))
    assert np.max(np.abs(pos[i] - pos[j])) <= model.pattern._band.size
    oracle = reverse_cuthill_mckee(csr_matrix(pattern), symmetric_mode=True)
    oracle_pos = np.empty_like(oracle)
    oracle_pos[oracle] = np.arange(len(oracle))
    assert model.pattern._band.size <= 1.1 * np.max(np.abs(oracle_pos[i] - oracle_pos[j]))


def test_lattice_bandwidth_grows_with_its_side():
    sizes = []
    for side in (5, 10):
        case = meshed_case(side, side)
        adm = build_admittance(case)
        base = newton_power_flow(case, adm).state
        ms = generate_measurements(case, base, seed=0, adm=adm)
        sizes.append(measurement_model(adm, ms.layout).pattern._band.size)
    assert sizes[1] >= 1.8 * sizes[0], sizes


def test_banded_solve_matches_dense(grid):
    _, adm, model, ms, state = grid
    values = model.jacobian_values(state)
    chol = BlockCholesky(*model.gain(values, 1.0 / ms.variances))
    rhs = np.random.default_rng(7).standard_normal(model.n_state)
    expected = np.linalg.solve(_dense_gain(adm, ms, state), rhs)
    x = model.solve(chol, rhs)
    assert np.max(np.abs(x - expected)) <= 1e-10 * np.max(np.abs(expected))


def test_pivot_test_builds_no_block_inverses(grid):
    # the observability test reads only the pivots; the inverses of the
    # diagonal factor blocks (0.7 ms at n = 312) wait for the first solve
    _, _, model, ms, state = grid
    chol = BlockCholesky(*model.gain(model.jacobian_values(state), 1.0 / ms.variances))
    _require_observable(chol, model.n_state)
    assert "inverse" not in vars(chol)
    model.solve(chol, np.ones(model.n_state))
    assert "inverse" in vars(chol)


def test_selected_inverse_matches_dense_on_band(grid):
    _, adm, model, ms, state = grid
    values = model.jacobian_values(state)
    chol = BlockCholesky(*model.gain(values, 1.0 / ms.variances))
    z_diag, z_sub = chol.selected_inverse()
    size, n = model.pattern._band.size, model.n_state
    padded = np.full(len(z_diag) * size, -1)
    padded[:n] = model.pattern._band.order
    expected = np.linalg.inv(_dense_gain(adm, ms, state))
    scale = np.max(np.abs(expected))
    for k, block in enumerate(z_diag):
        rows = padded[k * size : (k + 1) * size]
        real = rows >= 0
        got = block[np.ix_(real, real)]
        assert np.max(np.abs(got - expected[np.ix_(rows[real], rows[real])])) <= 1e-10 * scale
    for k, block in enumerate(z_sub):
        rows = padded[(k + 1) * size : (k + 2) * size]
        cols = padded[k * size : (k + 1) * size]
        got = block[np.ix_(rows >= 0, cols >= 0)]
        want = expected[np.ix_(rows[rows >= 0], cols[cols >= 0])]
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-10 * scale


def test_band_keeps_cells_that_are_zero_at_flat_start():
    # on a lossless grid the Jacobian decouples at flat start (dP/dV and
    # dQ/dtheta vanish), so every angle x magnitude cell of the first gain is
    # zero. Those cells are structural: at the estimate they are not zero,
    # and leverage reads G^-1 on them, so the band must hold them
    case = meshed_case(8, 8, r=0.0)
    adm = build_admittance(case)
    base = newton_power_flow(case, adm).state
    ms = generate_measurements(case, base, seed=3, adm=adm)
    model = measurement_model(adm, ms.layout)
    n_ang = case.n_bus - 1
    flat = StateVector(base.bus_ids, np.ones(case.n_bus), np.zeros(case.n_bus))
    flat_values = model.jacobian_values(flat)
    assert np.any((flat_values == 0) & (model.cols >= n_ang))
    assert np.all(_dense_gain(adm, ms, flat)[:n_ang, n_ang:] == 0)

    res = wls_estimate(ms, case, adm)
    jac = eval_jacobian(adm, res.x_hat, ms.layout)
    gain = (jac / ms.variances[:, None]).T @ jac
    # the band is as narrow as an RCM order of the pattern at the estimate
    i, j = np.nonzero(gain)
    oracle = reverse_cuthill_mckee(csr_matrix(gain != 0), symmetric_mode=True)
    oracle_pos = np.empty_like(oracle)
    oracle_pos[oracle] = np.arange(len(oracle))
    assert model.pattern._band.size <= 1.1 * np.max(np.abs(oracle_pos[i] - oracle_pos[j]))
    g_inv = np.linalg.inv(gain)
    _, a, b = model.pattern._pairs
    cross = (model.cols[a] < n_ang) & (model.cols[b] >= n_ang)
    assert np.min(np.abs(g_inv[model.cols[a][cross], model.cols[b][cross]])) > 0
    omega = ms.variances - np.diag(jac @ g_inv @ jac.T)
    assert res.critical_ids == ()
    implied = (res.residual / res.r_normalized) ** 2
    assert np.all(np.abs(implied - omega) <= 1e-9 * ms.variances)


def test_rcm_order_covers_every_component():
    # a path 0-3-1, a pair 2-5 and an isolated node 4
    i = np.array([0, 3, 3, 1, 2, 5])
    j = np.array([3, 0, 1, 3, 5, 2])
    order = rcm_order(6, i, j)
    assert sorted(order) == list(range(6))
    pos = np.empty(6, dtype=int)
    pos[order] = np.arange(6)
    assert np.max(np.abs(pos[i] - pos[j])) == 1


def test_block_cholesky_rejects_an_indefinite_block():
    diag = np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]])
    with pytest.raises(np.linalg.LinAlgError):
        BlockCholesky(diag, np.zeros((1, 2, 2)))

