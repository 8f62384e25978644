"""Synthetic grids for the benchmark, built from the bundled IEEE 39-bus case.

`tiled_case39(k)` joins k copies of case39 into one network: copy c keeps the
original bus ids plus ``c * ID_STRIDE``, the slack of every copy after the
first becomes a PV bus scheduled at the slack output of the solved case39,
and copy c is tied to copy c + 1 by one line from bus 8 to bus 4. Both tie
ends are loaded buses far from the copy-0 attack zone (interior 17, 18, 26,
27, 28 and its boundary), so zones built in copy 0 are the case39 zones.

`perturb_loads` scales every bus load by its own seeded factor in
``1 +- spread``; the generators are untouched, so the one slack in copy 0
absorbs the net change.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from acfdi import Branch, NetworkCase, bus_injection, load_bundled_case39, newton_power_flow

ID_STRIDE = 100
TIE_FROM, TIE_TO = 8, 4
TIE_R, TIE_X, TIE_B, TIE_RATING = 0.001, 0.02, 0.1, 6.0


def _slack_output(case: NetworkCase) -> float:
    """Active generation the case39 slack supplies at the solved base point."""
    state = newton_power_flow(case).state
    p_net, _ = bus_injection(state, case, case.slack_bus)
    return p_net + case.bus(case.slack_bus).pd


def tiled_case39(k: int) -> NetworkCase:
    """k chained copies of case39 as one network with n = 39 k buses."""
    if k < 1:
        raise ValueError("k must be >= 1")
    src = load_bundled_case39()
    slack_pg = _slack_output(src)
    slack = src.slack_bus
    buses, branches, gens = [], [], []
    for c in range(k):
        off = c * ID_STRIDE
        for b in src.buses:
            kind = "PV" if (c > 0 and b.id == slack) else b.kind
            buses.append(dataclasses.replace(b, id=b.id + off, kind=kind))
        for br in src.branches:
            branches.append(
                dataclasses.replace(
                    br, from_bus=br.from_bus + off, to_bus=br.to_bus + off, index=len(branches)
                )
            )
        for g in src.gens:
            pg = slack_pg if (c > 0 and g.bus == slack) else g.pg
            gens.append(dataclasses.replace(g, bus=g.bus + off, pg=pg))
    for c in range(k - 1):
        branches.append(
            Branch(
                from_bus=TIE_FROM + c * ID_STRIDE,
                to_bus=TIE_TO + (c + 1) * ID_STRIDE,
                r=TIE_R,
                x=TIE_X,
                b=TIE_B,
                rating=TIE_RATING,
                index=len(branches),
            )
        )
    return NetworkCase(
        base_mva=src.base_mva,
        buses=tuple(buses),
        branches=tuple(branches),
        gens=tuple(gens),
        name=f"case39x{k}",
    )


def perturb_loads(case: NetworkCase, rng: np.random.Generator, spread: float = 0.05) -> NetworkCase:
    """Copy of case with every bus load scaled by its own factor in 1 +- spread."""
    factors = rng.uniform(1.0 - spread, 1.0 + spread, case.n_bus)
    buses = tuple(
        dataclasses.replace(b, pd=b.pd * f, qd=b.qd * f) for b, f in zip(case.buses, factors)
    )
    return dataclasses.replace(case, buses=buses)
