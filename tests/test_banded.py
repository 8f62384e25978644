"""The banded gain: RCM order, its band storage, the band Cholesky solve
and the selected inverse, and the two LAPACK bindings that factor it.

Every check runs on case39, on two chained case39 copies and on a 2-D
lattice, whose bandwidth grows with the grid, against dense numpy and
scipy.sparse.csgraph oracles.
"""

import ctypes
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee

from acfdi import banded, network
from acfdi.banded import BlockBand, BlockCholesky, _lower_inverses, concat_ranges, rcm_order
from acfdi.estimation import (
    MeasurementModel,
    _nonsingular_factor,
    chi_square_test,
    eval_jacobian,
    generate_measurements,
    largest_normalized_residual,
    wls_estimate,
)
from acfdi.network import StateVector, build_admittance, load_bundled_case39
from acfdi.powerflow import newton_power_flow

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
    return case, adm, MeasurementModel(adm, ms.layout), ms, state


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
        sizes.append(MeasurementModel(adm, ms.layout).pattern._band.size)
    assert sizes[1] >= 1.8 * sizes[0], sizes


def test_banded_solve_matches_dense(grid):
    _, adm, model, ms, state = grid
    values = model.evaluate(state).jacobian_values()
    chol = BlockCholesky(model.gain(values, 1.0 / ms.variances))
    rhs = np.random.default_rng(7).standard_normal(model.n_state)
    expected = np.linalg.solve(_dense_gain(adm, ms, state), rhs)
    x = model.solve(chol, rhs)
    assert np.max(np.abs(x - expected)) <= 1e-10 * np.max(np.abs(expected))


def test_pivot_test_builds_no_block_inverses(grid):
    # the pivot test reads the band's diagonal and dpbtrs solves on the band;
    # only the selected inverse reads the factor's blocks and inverts the
    # diagonal ones (0.7 ms at n = 312)
    _, _, model, ms, state = grid
    gain = model.gain(model.evaluate(state).jacobian_values(), 1.0 / ms.variances)
    chol = _nonsingular_factor(gain, model.n_state, "singular")
    model.solve(chol, np.ones(model.n_state))
    assert "inverse" not in vars(chol) and "coupling" not in vars(chol)
    chol.selected_inverse()
    assert "inverse" in vars(chol) and "coupling" in vars(chol)


def test_selected_inverse_matches_dense_on_band(grid):
    _, adm, model, ms, state = grid
    values = model.evaluate(state).jacobian_values()
    chol = BlockCholesky(model.gain(values, 1.0 / ms.variances))
    blocks = model.pattern._band.blocks
    z = chol.selected_inverse()
    assert z.shape[0] == 2 * blocks - 1 and z.flags.c_contiguous
    z_sub, z_diag = z[: blocks - 1], z[blocks - 1 :]
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
    model = MeasurementModel(adm, ms.layout)
    n_ang = case.n_bus - 1
    flat = StateVector(base.bus_ids, np.ones(case.n_bus), np.zeros(case.n_bus))
    flat_values = model.evaluate(flat).jacobian_values()
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
    cells = model.pattern._gain_cells
    i, j = model.cols[cells.a], model.cols[cells.b]
    cross = (np.minimum(i, j) < n_ang) & (np.maximum(i, j) >= n_ang)
    assert np.min(np.abs(g_inv[i[cross], j[cross]])) > 0
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
    # blocks I and [[1, 2], [2, 1]] in lower band storage of half-bandwidth 2
    band = np.array([[1.0, 0, 0], [1, 0, 0], [1, 2, 0], [1, 0, 0]])
    with pytest.raises(np.linalg.LinAlgError):
        BlockCholesky(band)


LOWER_GRIDS = {
    "case39": load_bundled_case39,
    "tile4": lambda: tiled_case39(4),
    "mesh10x10": lambda: meshed_case(10, 10),
}


@pytest.mark.parametrize("name", sorted(LOWER_GRIDS))
def test_gain_band_is_the_dense_lower_band(name):
    # row q of the band storage holds G[q, q], G[q + 1, q], ..., G[q + b, q]
    # of the gain in band order; past the dimension it holds the identity
    case = LOWER_GRIDS[name]()
    adm = build_admittance(case)
    base = newton_power_flow(case, adm).state
    ms = generate_measurements(case, base, seed=6, adm=adm)
    model = MeasurementModel(adm, ms.layout)
    gain = model.gain(model.evaluate(base).jacobian_values(), 1.0 / ms.variances)
    band = model.pattern._band
    b, n = band.size, model.n_state
    assert gain.shape == (band.blocks * b, b + 1)
    padded = np.eye(len(gain))
    padded[:n, :n] = _dense_gain(adm, ms, base)[np.ix_(band.order, band.order)]
    q, d = np.indices(gain.shape)
    inside = q + d < len(gain)
    want = np.zeros_like(gain)
    want[inside] = padded[(q + d)[inside], q[inside]]
    assert np.max(np.abs(gain - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.all(gain[~inside] == 0) and np.all(gain[n:, 0] == 1.0)


def _ordered_pairs(model):
    """(row, a, b) of every ordered pair of entries sharing a row, as the
    gain and the leverage first listed them."""
    m = model.m
    row_ptr = np.searchsorted(model.rows, np.arange(m + 1))
    per_row = np.diff(row_ptr)
    sq = per_row * per_row
    step = concat_ranges(np.zeros(m, dtype=int), sq)
    width = np.repeat(per_row, sq)
    start = np.repeat(row_ptr[:-1], sq)
    return np.repeat(np.arange(m), sq), start + step // width, start + step % width


def _ordered_pair_gain(model, values, w):
    """The gain as the ordered pairs first assembled it: the pairs whose cell
    lies on or below the diagonal of the band order, summed in row order."""
    band = model.pattern._band
    _, a, b = _ordered_pairs(model)
    lower = band.pos[model.cols[a]] >= band.pos[model.cols[b]]
    a, b = a[lower], b[lower]
    width = band.size + 1
    g = np.bincount(
        band.band_slot(model.cols[a], model.cols[b]),
        weights=(values * w[model.rows])[a] * values[b],
        minlength=band.blocks * band.size * width,
    )
    g[band.dim * width :: width] = 1.0
    return g.reshape(-1, width)


def _ordered_pair_leverage(model, values, chol):
    """The leverages as the ordered pairs first summed them: G⁻¹ read at
    both (a, b) and (b, a), a cell of a block above the diagonal at its
    mirror's slot."""
    band = model.pattern._band
    row, a, b = _ordered_pairs(model)
    size = band.size
    p, q = band.pos[model.cols[a]], band.pos[model.cols[b]]
    kept = p // size >= q // size
    high, low = np.where(kept, p, q), np.where(kept, q, p)
    first = np.where(high // size > low // size, 0, band.blocks - 1)
    slot = ((first + low // size) * size + high % size) * size + low % size
    g_inv = chol.selected_inverse().reshape(-1)
    return np.bincount(row, weights=values[a] * g_inv[slot] * values[b], minlength=model.m)


@pytest.mark.parametrize("name", sorted(LOWER_GRIDS))
def test_pair_index_matches_the_ordered_pairs(name):
    # one unordered pair per two entries of a row, and one per entry: the
    # gain sums the same products into the same slots in the same row order
    # as the ordered list, so its band is the same bytes; the leverage adds
    # each off-diagonal product twice, which moves it at rounding level of
    # the row's variance, its scale (0 <= leverage <= variance). Measured:
    # at most 4.1e-13 from the ordered sum and 7.2e-13 from the dense
    # diag(H G⁻¹ Hᵀ), on these grids at seeds 1, 2 and 6
    case = LOWER_GRIDS[name]()
    adm = build_admittance(case)
    base = newton_power_flow(case, adm).state
    ms = generate_measurements(case, base, seed=6, adm=adm)
    model = MeasurementModel(adm, ms.layout)
    w = 1.0 / ms.variances
    per_row = np.bincount(model.rows, minlength=model.m)
    assert len(model.pattern._gain_cells.row) == np.sum(per_row * (per_row + 1) // 2)
    # the band of the ordered pairs' cells is the band of the index's, mirrored
    _, a, b = _ordered_pairs(model)
    n = model.n_state
    ordered = BlockBand(n, *np.divmod(np.unique(model.cols[a] * n + model.cols[b]), n))
    assert np.array_equal(ordered.order, model.pattern._band.order)
    assert ordered.size == model.pattern._band.size
    flat = StateVector(base.bus_ids, np.ones(case.n_bus), np.zeros(case.n_bus))
    for state in (flat, wls_estimate(ms, case, adm).x_hat):
        values = model.evaluate(state).jacobian_values()
        gain = model.gain(values, w)
        assert gain.tobytes() == _ordered_pair_gain(model, values, w).tobytes()
        chol = BlockCholesky(gain)
        leverage = model.leverage(values, chol)
        jac = eval_jacobian(adm, state, ms.layout)
        g_inv = np.linalg.inv((jac * w[:, None]).T @ jac)
        dense = np.einsum("ij,ji->i", jac, g_inv @ jac.T)
        for want in (_ordered_pair_leverage(model, values, chol), dense):
            assert np.all(np.abs(leverage - want) <= 1e-12 * ms.variances)


def _padded_lower_inverses(lower):
    """The doubling recursion on an identity-padded copy and a separate
    inverse array, as `_lower_inverses` first computed it."""
    count, b, _ = lower.shape
    size = 1 << (b - 1).bit_length()
    padded = np.broadcast_to(np.eye(size), (count, size, size)).copy()
    padded[:, :b, :b] = lower
    inv = np.zeros_like(padded)
    d = np.arange(size)
    inv[:, d, d] = 1.0 / padded[:, d, d]
    half = 1
    while half < size:
        pairs = size // (2 * half)
        q = np.arange(pairs)
        shape = (count, pairs, 2 * half, pairs, 2 * half)
        low, out = padded.reshape(shape), inv.reshape(shape)
        out[:, q, half:, q, :half] = -(
            out[:, q, half:, q, half:] @ low[:, q, half:, q, :half] @ out[:, q, :half, q, :half]
        )
        half *= 2
    return inv[:, :b, :b]


@pytest.mark.parametrize("size", [1, 2, 3, 31, 32, 33, 57, 64])
@pytest.mark.parametrize("count", [1, 3, 11])
def test_lower_inverses_match_the_padded_recursion_bit_for_bit(size, count):
    rng = np.random.default_rng(size * 100 + count)
    a = rng.standard_normal((count, size, size))
    lower = np.linalg.cholesky(a @ np.swapaxes(a, 1, 2) + size * np.eye(size))
    got = _lower_inverses(lower)
    assert got.tobytes() == _padded_lower_inverses(lower).tobytes()
    assert np.max(np.abs(got @ lower - np.eye(size))) <= 1e-12


def test_block_inverses_are_read_only(grid):
    _, _, model, ms, state = grid
    chol = BlockCholesky(model.gain(model.evaluate(state).jacobian_values(), 1.0 / ms.variances))
    for array in (chol.factor, chol.inverse, chol.coupling):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.0


def _binding_results(name):
    """The power flow, the gain's factor and the estimator verdicts, from the
    binding `banded.lapack` gives."""
    case = GRIDS[name]()
    network._shared.clear()  # no flat-start factor from the other binding
    adm = build_admittance(case)
    flow = newton_power_flow(case, adm)
    ms = generate_measurements(case, flow.state, seed=5, adm=adm)
    model = MeasurementModel(adm, ms.layout)
    gain = model.gain(model.evaluate(flow.state).jacobian_values(), 1.0 / ms.variances)
    res = wls_estimate(ms, case, adm)
    verdicts = (res.converged, res.iterations, res.critical_ids, chi_square_test(res).passed,
                largest_normalized_residual(res)[0])
    return flow, BlockCholesky(gain).factor, verdicts


@pytest.mark.parametrize("name", ["case39", "case39x2"])
def test_cython_lapack_fallback_matches_numpys_openblas(name, monkeypatch):
    # where numpy's wheel bundles no OpenBLAS the routines come from scipy's
    # cython_lapack, whose OpenBLAS may round otherwise: the power flow takes
    # the same iterations to a state that agrees to rounding, the factor
    # agrees to rounding and every estimator verdict is the same
    banded.lapack.cache_clear()
    primary = _binding_results(name)
    assert banded.lapack()._index is ctypes.c_int64
    monkeypatch.setattr(banded, "_numpy_openblas", lambda: None)
    banded.lapack.cache_clear()
    try:
        fallback = _binding_results(name)
        assert banded.lapack()._index is ctypes.c_int
    finally:
        banded.lapack.cache_clear()
        network._shared.clear()  # no flat start keeps a fallback factor
    (flow, factor, verdicts), (fallback_flow, fallback_factor, fallback_verdicts) = (
        primary, fallback
    )
    assert fallback_flow.iterations == flow.iterations
    assert np.max(np.abs(fallback_flow.state.vm - flow.state.vm)) <= 1e-12
    assert np.max(np.abs(fallback_flow.state.va - flow.state.va)) <= 1e-12
    assert np.max(np.abs(fallback_factor - factor)) <= 1e-12 * np.max(np.abs(factor))
    assert fallback_verdicts == verdicts


def test_kept_newton_factor_solves_under_the_other_binding(monkeypatch):
    # the Newton flat start's band LU is kept across calls: its interchanges,
    # ILP64 from numpy's OpenBLAS, reach cython_lapack's LP64 dgbtrs as its
    # index type, so the first step is the one the factor gives
    case = load_bundled_case39()
    banded.lapack.cache_clear()
    network._shared.clear()
    primary = newton_power_flow(case)
    monkeypatch.setattr(banded, "_numpy_openblas", lambda: None)
    banded.lapack.cache_clear()
    try:
        fallback = newton_power_flow(case)
        assert banded.lapack()._index is ctypes.c_int
    finally:
        banded.lapack.cache_clear()
        network._shared.clear()
    assert fallback.iterations == primary.iterations
    assert np.max(np.abs(fallback.state.vm - primary.state.vm)) <= 1e-12
    assert np.max(np.abs(fallback.state.va - primary.state.va)) <= 1e-12
