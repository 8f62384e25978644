"""Pinned reference values for the bundled 39-bus overload study.

Voltages are (magnitude p.u., angle degrees); flows are from-end (P, Q) in
p.u.; injections are net (P, Q) in p.u. The three columns correspond to the
base operating point, the minimum-deviation attack, and the arbitrary
(feasibility-only) attack from the published benchmark run this scenario
reproduces. Values carry four decimals.
"""

ZONE_INTERIOR = {17, 18, 26, 27, 28}
ZONE_BOUNDARY = {3, 15, 16, 21, 24, 25, 29}
INERT_BOUNDARY = {15, 21, 24}
TARGET = (26, 27)
OVERLOAD_FACTOR = 1.3

# bus -> {scenario: (vm, va_deg)}
VOLTAGES = {
    3:  {"before": (1.0307, -12.2763), "optimal": (1.0307, -12.2764), "arbitrary": (1.0307, -12.2764)},
    15: {"before": (1.0161, -11.3453), "optimal": (1.0161, -11.3454), "arbitrary": (1.0162, -11.3454)},
    16: {"before": (1.0325, -10.0333), "optimal": (1.0325, -10.0333), "arbitrary": (1.0325, -10.0333)},
    17: {"before": (1.0342, -11.1164), "optimal": (1.0342, -11.1659), "arbitrary": (1.0140, -13.1662)},
    18: {"before": (1.0315, -11.9861), "optimal": (1.0316, -11.9655), "arbitrary": (1.0167, -13.6340)},
    21: {"before": (1.0323, -7.6287), "optimal": (1.0323, -7.6287), "arbitrary": (1.0323, -7.6287)},
    24: {"before": (1.0380, -9.9137), "optimal": (1.0380, -9.9138), "arbitrary": (1.0380, -9.9138)},
    25: {"before": (1.0576, -8.3692), "optimal": (1.0576, -8.3692), "arbitrary": (1.0577, -8.3692)},
    26: {"before": (1.0525, -9.4387), "optimal": (1.0533, -9.1370), "arbitrary": (1.0081, -8.9311)},
    27: {"before": (1.0383, -11.3621), "optimal": (1.0381, -11.6541), "arbitrary": (0.9749, -18.5778)},
    28: {"before": (1.0503, -5.9283), "optimal": (1.0504, -5.9284), "arbitrary": (1.0328, -5.2174)},
    29: {"before": (1.0501, -3.1698), "optimal": (1.0501, -3.1699), "arbitrary": (1.0501, -3.1699)},
}

# (from, to) -> {scenario: (P, Q)}; rows whose flows must stay frozen under
# any zone-respecting attack are listed in INVARIANT_FLOWS as well.
FLOWS = {
    (2, 3):   {"before": (3.1991, 0.8859), "optimal": (3.1991, 0.8859), "arbitrary": (3.1991, 0.8859)},
    (2, 25):  {"before": (-2.4459, 0.8297), "optimal": (-2.4459, 0.8297), "arbitrary": (-2.4459, 0.8297)},
    (3, 4):   {"before": (0.3734, 1.1306), "optimal": (0.3734, 1.1306), "arbitrary": (0.3734, 1.1306)},
    (3, 18):  {"before": (-0.4076, -0.1459), "optimal": (-0.4363, -0.1435), "arbitrary": (1.9449, 0.8295)},
    (14, 15): {"before": (0.5031, -0.4068), "optimal": (0.5031, -0.4068), "arbitrary": (0.5031, -0.4068)},
    (15, 16): {"before": (-2.6974, -1.5666), "optimal": (-2.6974, -1.5666), "arbitrary": (-2.6974, -1.5666)},
    (16, 17): {"before": (2.2402, -0.4254), "optimal": (2.3436, -0.4246), "arbitrary": (6.5711, 1.7311)},
    (16, 19): {"before": (-4.5130, -0.5420), "optimal": (-4.5130, -0.5420), "arbitrary": (-4.5130, -0.5420)},
    (16, 21): {"before": (-3.2960, 0.1444), "optimal": (-3.2960, 0.1444), "arbitrary": (-3.2960, 0.1444)},
    (16, 24): {"before": (-0.4268, -0.9733), "optimal": (-0.4268, -0.9733), "arbitrary": (-0.4268, -0.9733)},
    (17, 18): {"before": (1.9904, 0.1105), "optimal": (1.8313, 0.1139), "arbitrary": (0.9912, -0.4829)},
    (17, 27): {"before": (0.2464, -0.4356), "optimal": (0.5086, -0.4421), "arbitrary": (5.5494, 1.9669)},
    (21, 22): {"before": (-6.0442, -0.8726), "optimal": (-6.0442, -0.8726), "arbitrary": (-6.0442, -0.8726)},
    (23, 24): {"before": (3.5384, -0.0050), "optimal": (3.5384, -0.0050), "arbitrary": (3.5384, -0.0050)},
    (25, 26): {"before": (0.6541, -0.1881), "optimal": (0.4722, -0.1962), "arbitrary": (0.4800, 1.2808)},
    (25, 37): {"before": (-5.3834, 0.6545), "optimal": (-5.3834, 0.6545), "arbitrary": (-5.3834, 0.6545)},
    (26, 27): {"before": (2.5730, 0.6821), "optimal": (3.3466, 0.7074), "arbitrary": (11.4067, 2.0141)},
    (26, 28): {"before": (-1.4082, -0.2121), "optimal": (-1.2867, -0.2151), "arbitrary": (-1.4543, -0.7444)},
    (26, 29): {"before": (-1.9019, -0.2496), "optimal": (-1.8111, -0.2566), "arbitrary": (-1.7398, -0.9564)},
    (28, 29): {"before": (-3.4761, 0.2876), "optimal": (-3.4761, 0.2875), "arbitrary": (-2.6488, -1.0236)},
    (29, 38): {"before": (-8.2477, 0.8033), "optimal": (-8.2477, 0.8033), "arbitrary": (-8.2477, 0.8033)},
}

INVARIANT_FLOWS = {
    (2, 3), (2, 25), (3, 4), (14, 15), (15, 16), (16, 19), (16, 21),
    (16, 24), (21, 22), (23, 24), (25, 37), (29, 38),
}

# bus -> {scenario: (P, Q)}; the non-zero-injection zone buses.
INJECTIONS = {
    3:  {"before": (-3.2200, -0.0240), "optimal": (-3.2487, -0.0217), "arbitrary": (-0.8675, 0.9514)},
    16: {"before": (-3.2900, -0.3230), "optimal": (-3.1866, -0.3222), "arbitrary": (1.0409, 1.8335)},
    18: {"before": (-1.5800, -0.3000), "optimal": (-1.3926, -0.3101), "arbitrary": (-2.9305, -0.6390)},
    25: {"before": (-2.2400, -0.4720), "optimal": (-2.4220, -0.4801), "arbitrary": (-2.4141, 0.9969)},
    26: {"before": (-1.3900, -0.1700), "optimal": (-0.2226, -0.1528), "arbitrary": (7.7404, -1.4558)},
    27: {"before": (-2.8100, -0.7550), "optimal": (-3.8398, -0.7094), "arbitrary": (-16.7259, -1.9921)},
    28: {"before": (-2.0600, -0.2760), "optimal": (-2.1829, -0.2878), "arbitrary": (-1.1850, -0.9875)},
    29: {"before": (-2.8350, -0.2690), "optimal": (-2.9275, -0.2822), "arbitrary": (-3.8308, 1.7312)},
}

# headline target-line active flows, p.u.
TARGET_FLOW = {"before": 2.5730, "optimal": 3.3466, "arbitrary": 11.4067}


# --- scalar oracles for the network equations -----------------------------------
# h, its Jacobian, the bus injections and the power-flow mismatch evaluated
# key by key in Python complex arithmetic, which rounds each product as
# a.real * b.real - a.imag * b.imag and a.real * b.imag + a.imag * b.real, on
# every host. Each current is summed over its row's nonzeros in column order.
# The voltages v and v / |v| come from numpy, as the package computes them;
# the oracle checks the sums and products built on them. The package must
# match these bit for bit; the artifacts' byte identity rests on it.

def loop_ybus(adm):
    """Dense Ybus summed entry by entry from the branch stamps in branch
    order, then the bus shunts."""
    import numpy as np

    n = adm.case.n_bus
    ybus = np.zeros((n, n), dtype=complex)
    for k in range(len(adm.branches)):
        i, j = adm.f_idx[k], adm.t_idx[k]
        ybus[i, i] += adm.yff[k]
        ybus[i, j] += adm.yft[k]
        ybus[j, i] += adm.ytf[k]
        ybus[j, j] += adm.ytt[k]
    for i, b in enumerate(adm.case.buses):
        ybus[i, i] += complex(b.gs, b.bs)
    return ybus


def current_rows(adm):
    """(Ybus rows by bus position, Yf rows and Yt rows by branch), each row a
    list of (column, admittance as Python complex) in column order. A Ybus
    row holds its bus and the buses a branch joins it to."""
    n = adm.case.n_bus
    f, t = adm.f_idx.tolist(), adm.t_idx.tolist()
    neighbours = [{i} for i in range(n)]
    for i, j in zip(f, t):
        neighbours[i].add(j)
        neighbours[j].add(i)
    ybus = loop_ybus(adm).tolist()
    ybus_rows = [[(j, ybus[i][j]) for j in sorted(neighbours[i])] for i in range(n)]
    yf_rows = [sorted([(i, a), (j, b)]) for i, j, a, b in zip(f, t, adm.yff.tolist(), adm.yft.tolist())]
    yt_rows = [sorted([(i, a), (j, b)]) for i, j, a, b in zip(f, t, adm.ytf.tolist(), adm.ytt.tolist())]
    return ybus_rows, yf_rows, yt_rows


def row_current(row, v):
    total = 0j
    for j, y in row:
        total += y * v[j]
    return total


def loop_injections(adm, state):
    """Net complex injection v_i conj(sum_j Y_ij v_j) at every bus."""
    v = state.complex_voltages().tolist()
    return [v[i] * row_current(row, v).conjugate() for i, row in enumerate(current_rows(adm)[0])]


def layout_rows(layout):
    """Each layout row as (kind, where, from_end): the name of its kind, the
    bus of an injection or voltage row or the branch row of a flow, and
    whether a flow is metered at its from end."""
    from acfdi.estimation import KINDS

    return [
        (KINDS[code], where, from_end)
        for code, where, from_end in zip(
            layout.kind.tolist(), layout.where.tolist(), layout.from_side.tolist()
        )
    ]


def _current_row(adm, kind, where, from_end, rows):
    """The current row a flow or injection row reads and the bus of its voltage."""
    ybus_rows, yf_rows, yt_rows = rows
    if kind in ("Pflow", "Qflow"):
        if from_end:
            return yf_rows[where], int(adm.f_idx[where])
        return yt_rows[where], int(adm.t_idx[where])
    i = adm.case.bus_index(where)
    return ybus_rows[i], i


def loop_eval_h(adm, state, layout):
    import numpy as np

    case = adm.case
    v = state.complex_voltages().tolist()
    rows = current_rows(adm)
    out = np.empty(len(layout))
    for i, (kind, where, from_end) in enumerate(layout_rows(layout)):
        if kind == "Vmag":
            out[i] = state.vm[case.bus_index(where)]
        elif kind == "Vang":
            out[i] = state.va[case.bus_index(where)]
        else:
            row, own = _current_row(adm, kind, where, from_end, rows)
            s = v[own] * row_current(row, v).conjugate()
            out[i] = s.real if kind in ("Pflow", "Pinj") else s.imag
    return out


def loop_eval_jacobian(adm, state, layout):
    """dS/dva_c = j a and dS/dvm_c = b for each nonzero y of the row's current row,
    with a = d v_o conj(I) - v_o conj(y v_c), b = v_o conj(y vn_c) + d conj(I) vn_o,
    own bus o, vn = v / |v| and d = 1 at c = o, else 0."""
    import numpy as np

    case = adm.case
    n_bus = case.n_bus
    v_array = state.complex_voltages()
    v = v_array.tolist()
    vnorm = (v_array / np.abs(v_array)).tolist()
    rows = current_rows(adm)

    slack = case.bus_index(case.slack_bus)
    ang_col = {c: k for k, c in enumerate(c for c in range(n_bus) if c != slack)}
    jac = np.zeros((len(layout), len(ang_col) + n_bus))
    for i, (kind, where, from_end) in enumerate(layout_rows(layout)):
        if kind == "Vmag":
            jac[i, len(ang_col) + case.bus_index(where)] = 1.0
            continue
        if kind == "Vang":
            if where != case.slack_bus:
                jac[i, ang_col[case.bus_index(where)]] = 1.0
            continue
        row, own = _current_row(adm, kind, where, from_end, rows)
        conj_i = row_current(row, v).conjugate()
        real = kind in ("Pflow", "Pinj")
        for c, y in row:
            a = -(v[own] * (y * v[c]).conjugate())
            b = v[own] * (y * vnorm[c]).conjugate()
            if c == own:
                a += v[own] * conj_i
                b += conj_i * vnorm[own]
            d_va = 1j * a
            if c in ang_col:
                jac[i, ang_col[c]] = d_va.real if real else d_va.imag
            jac[i, len(ang_col) + c] = b.real if real else b.imag
    return jac


def loop_mismatch(case, adm, state):
    """Scheduled minus calculated [P at PV and PQ buses | Q at PQ buses]."""
    import numpy as np

    from acfdi.powerflow import scheduled_injections

    pvpq, pq = _pvpq_pq(case)
    p_sched, q_sched = scheduled_injections(case)
    s = loop_injections(adm, state)
    return np.array([p_sched[i] - s[i].real for i in pvpq] + [q_sched[i] - s[i].imag for i in pq])


# --- dense oracle for the power-flow Jacobian ----------------------------------
# The dense formulation that the compiled model replaced in Newton-Raphson:
# diag(V) products through BLAS, then [[j11, j12], [j21, j22]] blocks taken
# with np.ix_. BLAS rounds the diag products with FMA, so the compiled
# Jacobian agrees with it to rounding, not bit for bit.

def dense_dSbus_dV(ybus, v):
    """Partials of complex bus injections w.r.t. angle and magnitude."""
    import numpy as np

    ibus = ybus @ v
    diag_v = np.diag(v)
    diag_i = np.diag(ibus)
    diag_vnorm = np.diag(v / np.abs(v))
    ds_dva = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
    ds_dvm = diag_v @ np.conj(ybus @ diag_vnorm) + np.conj(diag_i) @ diag_vnorm
    return ds_dva, ds_dvm


def _pvpq_pq(case):
    kinds = [b.kind for b in case.buses]
    pq = [i for i, k in enumerate(kinds) if k == "PQ"]
    return sorted([i for i, k in enumerate(kinds) if k == "PV"] + pq), pq


def dense_power_flow_jacobian(case, adm, state):
    """[[j11, j12], [j21, j22]] over PV+PQ angles and PQ magnitudes."""
    import numpy as np

    pvpq, pq = _pvpq_pq(case)
    ds_dva, ds_dvm = dense_dSbus_dV(adm.ybus, state.complex_voltages())
    j11 = ds_dva.real[np.ix_(pvpq, pvpq)]
    j12 = ds_dvm.real[np.ix_(pvpq, pq)]
    j21 = ds_dva.imag[np.ix_(pq, pvpq)]
    j22 = ds_dvm.imag[np.ix_(pq, pq)]
    return np.block([[j11, j12], [j21, j22]])


def dense_mismatch(case, adm, vm, va):
    """Scheduled minus calculated [P at PV and PQ buses | Q at PQ buses]."""
    import numpy as np

    from acfdi.powerflow import scheduled_injections

    pvpq, pq = _pvpq_pq(case)
    p_sched, q_sched = scheduled_injections(case)
    v = vm * np.exp(1j * va)
    s_calc = v * np.conj(adm.ybus @ v)
    return np.concatenate([p_sched[pvpq] - s_calc.real[pvpq], q_sched[pq] - s_calc.imag[pq]])


def dense_newton_replay(case, adm, tol=1e-8, max_iter=20):
    """Newton-Raphson from a flat start on the dense Jacobian and mismatch:
    returns (vm, va, mismatch history)."""
    import numpy as np

    from acfdi.network import StateVector
    from acfdi.powerflow import flat_start

    start = flat_start(case)
    vm, va = start.vm.copy(), start.va.copy()
    pvpq, pq = _pvpq_pq(case)
    history = []
    for _ in range(max_iter):
        mismatch = dense_mismatch(case, adm, vm, va)
        history.append(float(np.max(np.abs(mismatch))))
        if history[-1] < tol:
            return vm, va, history
        jac = dense_power_flow_jacobian(case, adm, StateVector(start.bus_ids, vm, va))
        step = np.linalg.solve(jac, mismatch)
        va[pvpq] += step[: len(pvpq)]
        vm[pq] += step[len(pvpq):]
    raise AssertionError(f"dense replay: no convergence in {max_iter} iterations")
