"""A 2-D meshed test grid: rows x cols buses on a lattice.

Bus (i, j) has id 1 + i * cols + j and is joined to its right and lower
neighbours. Bus 1 is the slack, every bus with (i + j) % 3 == 1 is a PV
generator bus, and every other bus carries a load. Unlike the tiled case39
chain, whose gain keeps a fixed bandwidth as it grows, a lattice's RCM
bandwidth grows like its side, the square root of n.
"""

from __future__ import annotations

from acfdi.network import Branch, Bus, Gen, NetworkCase

LOAD_P, LOAD_Q = 0.3, 0.1  # p.u. at each PQ bus
PV_OUTPUT = 0.55  # p.u. at each PV bus; the slack supplies the rest
LINE_X, LINE_B = 0.05, 0.02  # p.u. series reactance and charging of every line


def meshed_case(rows: int, cols: int, r: float = 0.005) -> NetworkCase:
    """A rows x cols lattice; r = 0 gives a lossless grid."""
    buses, gens, branches = [], [], []
    for i in range(rows):
        for j in range(cols):
            bus_id = 1 + i * cols + j
            if bus_id == 1:
                kind = "slack"
            elif (i + j) % 3 == 1:
                kind = "PV"
            else:
                kind = "PQ"
            load = kind == "PQ"
            buses.append(
                Bus(bus_id, kind, LOAD_P * load, LOAD_Q * load, 0.0, 0.0, 0.9, 1.1)
            )
            if kind != "PQ":
                pg = PV_OUTPUT if kind == "PV" else 0.0
                gens.append(Gen(bus_id, pg, 0.0, 1.0, -9.0, 9.0, 0.0, 9.0))
            for ni, nj in ((i, j + 1), (i + 1, j)):
                if ni < rows and nj < cols:
                    branches.append(
                        Branch(bus_id, 1 + ni * cols + nj, r, LINE_X, LINE_B, index=len(branches))
                    )
    return NetworkCase(
        base_mva=100.0,
        buses=tuple(buses),
        branches=tuple(branches),
        gens=tuple(gens),
        name=f"mesh{rows}x{cols}",
    )
