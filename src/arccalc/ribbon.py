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

Darts are ints: dart ``2*e + end`` is end ``end`` of edge ``e``, its partner
is ``d ^ 1``, and integer order is the order of the ``(edge, end)`` pairs.
Arcs are edges ``0..p-1`` oriented from vertex 0 to vertex 1, and edges
``p`` and ``p+1`` carry the boundary circles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .perms import inverse
from .surfaces import ArcClass

Dart = int  # 2*edge + end


@dataclass(frozen=True)
class RibbonGraph:
    """Two-vertex rotation system; ``rotations[v]`` lists darts at vertex ``v`` in cyclic order."""

    arc_count: int
    side: int
    rotations: tuple[tuple[Dart, ...], tuple[Dart, ...]]

    def __post_init__(self) -> None:
        # catches a repeated dart, a missing partner and a wrong dart count
        rot0, rot1 = self.rotations
        if sorted([*rot0, *rot1]) != list(range(2 * self.edge_count)):
            raise ValueError(f"rotations must hold each dart 0..{2 * self.edge_count - 1} exactly once")

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
    return d ^ 1


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
    at_v0 = range(0, 2 * p, 2)
    at_v1 = [2 * inv[j] + 1 for j in range(p - 1, -1, -1)]
    b, c = 2 * p, 2 * p + 2  # first darts of the boundary edges p, p + 1
    if a.side == 2:
        rot0 = (b, *at_v0, b + 1)
        rot1 = (c, *at_v1, c + 1)
    else:
        rot0 = (b, *at_v0, c)
        rot1 = (c + 1, *at_v1, b + 1)
    return RibbonGraph(p, a.side, (rot0, rot1))


def trace_faces(graph: RibbonGraph) -> tuple[tuple[Dart, ...], ...]:
    """
    Orbits of ``dart -> successor(partner(dart))``, each starting at its
    least dart; orbits sorted by that least dart.
    """
    step = [0] * (2 * graph.edge_count)
    for rot in graph.rotations:
        for d, after in zip(rot, rot[1:] + rot[:1]):
            step[d ^ 1] = after

    # rising starts that skip traced darts meet each orbit at its least dart
    seen = bytearray(len(step))
    faces = []
    for start in range(len(step)):
        if seen[start]:
            continue
        orbit = [start]
        d = step[start]
        while d != start:
            orbit.append(d)
            seen[d] = 1
            d = step[d]
        faces.append(tuple(orbit))
    return tuple(faces)


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
        "rotations": [[list(divmod(d, 2)) for d in rot] for rot in graph.rotations],
        "faces": [[list(divmod(d, 2)) for d in f] for f in trace_faces(graph)],
    }
