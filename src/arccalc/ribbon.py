"""
Brute-force boundary counter for thickened arc systems.

The thickened system deformation-retracts onto a two-vertex graph embedded in
the surface: one vertex per marked boundary circle end, one edge per arc, and
the marked boundary circle(s) contributing two more edges (two loops when the
endpoints sit on distinct circles, two parallel edges subdividing the shared
circle otherwise).  The embedding equips the graph with a rotation system,
and boundary circles of the thickening are exactly the faces obtained by
tracing dart orbits.  No cycle-count formula enters anywhere here, so the
trace count is an independent check of the closed-form one.

Darts are ``(edge, end)`` pairs: arcs are edges ``0..p-1`` oriented from
vertex 0 to vertex 1, and edges ``p`` and ``p+1`` carry the boundary circles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .perms import inverse
from .surfaces import ArcClass

Dart = tuple[int, int]


@dataclass(frozen=True)
class RibbonGraph:
    """Two-vertex rotation system; ``rotations[v]`` lists darts at vertex ``v`` in cyclic order."""

    arc_count: int
    side: int
    rotations: tuple[tuple[Dart, ...], tuple[Dart, ...]]

    def __post_init__(self) -> None:
        seen: set[Dart] = set()
        for rot in self.rotations:
            for d in rot:
                if d in seen:
                    raise ValueError(f"dart {d} appears twice")
                seen.add(d)
        for d in seen:
            if involution(d) not in seen:
                raise ValueError(f"dart {d} has no partner")
        if len(seen) != 2 * self.edge_count:
            raise ValueError("dart count does not match edge count")

    @property
    def vertex_count(self) -> int:
        return 2

    @property
    def edge_count(self) -> int:
        return self.arc_count + 2

    @property
    def euler_char(self) -> int:
        return self.vertex_count - self.edge_count


def involution(d: Dart) -> Dart:
    e, end = d
    return (e, 1 - end)


def build_ribbon(a: ArcClass) -> RibbonGraph:
    """
    Rotation system of the thickened arc system of ``a``.

    At vertex 0 the arcs appear in arrival order, flanked by the boundary
    darts; at vertex 1 they appear in reversed order of their positions at
    the far end (the two vertices face each other, so the induced rotations
    run opposite ways), again flanked by boundary darts.
    """
    p = a.arc_count
    inv = inverse(a.perm)
    at_v1 = [(inv[j], 1) for j in range(p - 1, -1, -1)]
    if a.side == 2:
        rot0 = [(p, 0)] + [(j, 0) for j in range(p)] + [(p, 1)]
        rot1 = [(p + 1, 0)] + at_v1 + [(p + 1, 1)]
    else:
        rot0 = [(p, 0)] + [(j, 0) for j in range(p)] + [(p + 1, 0)]
        rot1 = [(p + 1, 1)] + at_v1 + [(p, 1)]
    return RibbonGraph(p, a.side, (tuple(rot0), tuple(rot1)))


def trace_faces(graph: RibbonGraph) -> tuple[tuple[Dart, ...], ...]:
    """
    Orbits of ``dart -> successor(partner(dart))``, each rotated to start at
    its least dart; orbits sorted by that least dart.
    """
    succ: dict[Dart, Dart] = {}
    for rot in graph.rotations:
        n = len(rot)
        for i, d in enumerate(rot):
            succ[d] = rot[(i + 1) % n]

    faces: list[tuple[Dart, ...]] = []
    todo = set(succ)
    while todo:
        start = min(todo)
        orbit = [start]
        todo.discard(start)
        d = succ[involution(start)]
        while d != start:
            orbit.append(d)
            todo.discard(d)
            d = succ[involution(d)]
        faces.append(tuple(orbit))
    return tuple(sorted(faces))


def oracle_boundary_count(a: ArcClass) -> int:
    """
    Boundary circles of the thickening, by face tracing.

    >>> oracle_boundary_count(ArcClass((1, 2, 0), 1))
    3
    >>> oracle_boundary_count(ArcClass((1, 2, 0), 2))
    5
    """
    return len(trace_faces(build_ribbon(a)))


def debug_dump(a: ArcClass) -> dict:
    """Rotation system and traced faces in JSON form, for failure triage."""
    graph = build_ribbon(a)
    return {
        "arc_class": a.to_json(),
        "rotations": [[list(d) for d in rot] for rot in graph.rotations],
        "faces": [[list(d) for d in f] for f in trace_faces(graph)],
    }
