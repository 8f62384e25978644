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


# --- loop oracles for the measurement function ---------------------------------
# The per-key implementation of h and its Jacobian that the compiled
# measurement model replaced: dense derivative matrices, then one row per
# key. The compiled model repeats the same elementwise arithmetic, so it must
# match these bit for bit; the attack artifacts' byte identity rests on it.

def current_maps(adm):
    """Dense nl x n from- and to-end current maps, If = Yf @ V and It = Yt @ V,
    laid out from the branch stamps."""
    import numpy as np

    nl, n = len(adm.branches), adm.case.n_bus
    rows = np.arange(nl)
    yf = np.zeros((nl, n), dtype=complex)
    yt = np.zeros((nl, n), dtype=complex)
    yf[rows, adm.f_idx], yf[rows, adm.t_idx] = adm.yff, adm.yft
    yt[rows, adm.f_idx], yt[rows, adm.t_idx] = adm.ytf, adm.ytt
    return yf, yt


def loop_eval_h(adm, state, layout):
    import numpy as np

    case = adm.case
    v = state.complex_voltages()
    yf, yt = current_maps(adm)
    sbus = v * np.conj(adm.ybus @ v)
    sf = v[adm.f_idx] * np.conj(yf @ v)
    st = v[adm.t_idx] * np.conj(yt @ v)

    out = np.empty(len(layout))
    for i, key in enumerate(layout.keys()):
        if key.kind in ("Pflow", "Qflow"):
            s = sf[key.branch_index] if key.side == "from" else st[key.branch_index]
            out[i] = s.real if key.kind == "Pflow" else s.imag
        elif key.kind == "Pinj":
            out[i] = sbus.real[case.bus_index(key.bus)]
        elif key.kind == "Qinj":
            out[i] = sbus.imag[case.bus_index(key.bus)]
        elif key.kind == "Vmag":
            out[i] = state.vm[case.bus_index(key.bus)]
        elif key.kind == "Vang":
            out[i] = state.va[case.bus_index(key.bus)]
    return out


def loop_eval_jacobian(adm, state, layout):
    import numpy as np

    case = adm.case
    n_bus = case.n_bus
    v = state.complex_voltages()
    vnorm = v / np.abs(v)
    ibus = adm.ybus @ v

    ds_dva = 1j * (np.diag(v * np.conj(ibus)) - v[:, None] * np.conj(adm.ybus * v[None, :]))
    ds_dvm = v[:, None] * np.conj(adm.ybus * vnorm[None, :]) + np.diag(np.conj(ibus) * vnorm)

    nl = len(adm.branches)
    yf, yt = current_maps(adm)
    i_f = yf @ v
    i_t = yt @ v
    rows = np.arange(nl)

    dsf_dva = -1j * v[adm.f_idx, None] * np.conj(yf * v[None, :])
    dsf_dva[rows, adm.f_idx] += 1j * np.conj(i_f) * v[adm.f_idx]
    dsf_dvm = v[adm.f_idx, None] * np.conj(yf * vnorm[None, :])
    dsf_dvm[rows, adm.f_idx] += np.conj(i_f) * vnorm[adm.f_idx]

    dst_dva = -1j * v[adm.t_idx, None] * np.conj(yt * v[None, :])
    dst_dva[rows, adm.t_idx] += 1j * np.conj(i_t) * v[adm.t_idx]
    dst_dvm = v[adm.t_idx, None] * np.conj(yt * vnorm[None, :])
    dst_dvm[rows, adm.t_idx] += np.conj(i_t) * vnorm[adm.t_idx]

    slack = case.slack_bus
    ang_cols = {}
    for b in case.buses:
        if b.id != slack:
            ang_cols[b.id] = len(ang_cols)
    n_ang = len(ang_cols)
    ang_sel = [case.bus_index(b) for b in ang_cols]

    jac = np.zeros((len(layout), n_ang + n_bus))
    for i, key in enumerate(layout.keys()):
        if key.kind in ("Pflow", "Qflow"):
            da = dsf_dva[key.branch_index] if key.side == "from" else dst_dva[key.branch_index]
            dm = dsf_dvm[key.branch_index] if key.side == "from" else dst_dvm[key.branch_index]
            part = np.real if key.kind == "Pflow" else np.imag
            jac[i, :n_ang] = part(da)[ang_sel]
            jac[i, n_ang:] = part(dm)
        elif key.kind in ("Pinj", "Qinj"):
            bi = case.bus_index(key.bus)
            part = np.real if key.kind == "Pinj" else np.imag
            jac[i, :n_ang] = part(ds_dva[bi])[ang_sel]
            jac[i, n_ang:] = part(ds_dvm[bi])
        elif key.kind == "Vmag":
            jac[i, n_ang + case.bus_index(key.bus)] = 1.0
        elif key.kind == "Vang":
            if key.bus != slack:
                jac[i, ang_cols[key.bus]] = 1.0
    return jac


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

    from acfdi.powerflow import StateVector, flat_start

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
