"""Attack zone construction and validation.

A zone is an enclosed region: interior buses whose states the attacker may
move, surrounded by boundary buses with nonzero injection whose states stay
frozen. Lines are classified by how the attack can touch them:

  interior lines - both ends in the zone, at least one interior end; their
                   flows change and the attacker must rationalize them.
  frozen lines   - both ends on the boundary; flows cannot change.
  tie lines      - boundary to exterior; flows cannot change, which is what
                   hides the attack from the rest of the system.
"""

from __future__ import annotations

from dataclasses import dataclass

from .network import Branch, NetworkCase


class ZoneError(ValueError):
    pass


@dataclass(frozen=True)
class AttackZone:
    focal: frozenset[int]
    interior: frozenset[int]
    boundary: frozenset[int]
    inert_boundary: frozenset[int]  # boundary buses with no interior neighbor
    interior_lines: tuple[Branch, ...]
    frozen_lines: tuple[Branch, ...]
    tie_lines: tuple[Branch, ...]

    @property
    def buses(self) -> frozenset[int]:
        return self.interior | self.boundary

    def zero_injection_interior(self, case: NetworkCase) -> tuple[int, ...]:
        return tuple(sorted(b for b in self.interior if not case.has_injection(b)))

    def to_dict(self) -> dict:
        return {
            "focal": sorted(self.focal),
            "interior": sorted(self.interior),
            "boundary": sorted(self.boundary),
            "inert_boundary": sorted(self.inert_boundary),
            "interior_lines": [[b.from_bus, b.to_bus] for b in self.interior_lines],
            "frozen_lines": [[b.from_bus, b.to_bus] for b in self.frozen_lines],
            "tie_lines": [[b.from_bus, b.to_bus] for b in self.tie_lines],
        }


def _classify_lines(
    case: NetworkCase, interior: frozenset[int], boundary: frozenset[int]
) -> tuple[tuple[Branch, ...], tuple[Branch, ...], tuple[Branch, ...]]:
    zone = interior | boundary
    interior_lines, frozen_lines, tie_lines = [], [], []
    for br in case.in_service_branches():
        f_in, t_in = br.from_bus in zone, br.to_bus in zone
        if f_in and t_in:
            if br.from_bus in interior or br.to_bus in interior:
                interior_lines.append(br)
            else:
                frozen_lines.append(br)
        elif f_in or t_in:
            tie_lines.append(br)
    return tuple(interior_lines), tuple(frozen_lines), tuple(tie_lines)


def _finish_zone(
    case: NetworkCase,
    focal: frozenset[int],
    interior: frozenset[int],
    boundary: frozenset[int],
) -> AttackZone:
    interior_lines, frozen_lines, tie_lines = _classify_lines(case, interior, boundary)
    with_interior_neighbor = set()
    for br in interior_lines:
        with_interior_neighbor.update((br.from_bus, br.to_bus))
    inert = frozenset(b for b in boundary if b not in with_interior_neighbor)
    return AttackZone(
        focal=focal,
        interior=interior,
        boundary=boundary,
        inert_boundary=inert,
        interior_lines=interior_lines,
        frozen_lines=frozen_lines,
        tie_lines=tie_lines,
    )


def build_zone(case: NetworkCase, focal: set[int] | frozenset[int]) -> AttackZone:
    """Expand focal buses to a closed zone.

    Interior grows to the fixed point of "a zero-injection neighbor of an
    interior bus joins the interior"; every remaining neighbor becomes
    boundary and is guaranteed nonzero-injection by construction.
    """
    focal = frozenset(focal)
    if not focal:
        raise ZoneError("empty focal set")
    slack = case.slack_bus
    for b in sorted(focal):
        case.bus_index(b)  # raises on unknown id
        if b == slack:
            raise ZoneError(f"focal set contains the slack bus {b}")

    interior = set(focal)
    frontier = sorted(interior)
    while frontier:
        bus = frontier.pop()
        for nb in case.neighbors(bus):
            if nb in interior:
                continue
            if not case.has_injection(nb):
                if nb == slack:
                    raise ZoneError("zone expansion reached the slack bus")
                interior.add(nb)
                frontier.append(nb)

    boundary = set()
    for bus in interior:
        for nb in case.neighbors(bus):
            if nb not in interior:
                boundary.add(nb)
    if slack in boundary or slack in interior:
        raise ZoneError("zone expansion reached the slack bus")

    return _finish_zone(case, focal, frozenset(interior), frozenset(boundary))


def validate_zone(
    case: NetworkCase, interior: set[int] | frozenset[int], boundary: set[int] | frozenset[int]
) -> AttackZone:
    """Accept an explicitly declared zone after checking every invariant.

    Boundary buses without any interior neighbor are legal; they are flagged
    inert (the attack cannot touch their measurements).
    """
    interior = frozenset(interior)
    boundary = frozenset(boundary)
    if not interior and not boundary:
        raise ZoneError("empty zone")
    if not interior:
        raise ZoneError("zone has no interior buses")
    overlap = interior & boundary
    if overlap:
        raise ZoneError(f"buses {sorted(overlap)} are both interior and boundary")
    for b in sorted(interior | boundary):
        case.bus_index(b)

    slack = case.slack_bus
    if slack in interior or slack in boundary:
        raise ZoneError(f"slack bus {slack} cannot belong to a zone")

    for b in sorted(boundary):
        if not case.has_injection(b):
            raise ZoneError(f"boundary bus {b} has zero injection")

    for b in sorted(interior):
        for nb in case.neighbors(b):
            if nb not in interior and nb not in boundary:
                raise ZoneError(f"bus {nb} is an exterior neighbor of interior bus {b}")

    return _finish_zone(case, frozenset(), interior, boundary)
