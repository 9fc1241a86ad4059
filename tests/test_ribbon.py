import os
import subprocess
import sys

import pytest

import arccalc
from arccalc.perms import all_perms, hat, identity
from arccalc.ribbon import (
    RibbonGraph,
    build_ribbon,
    debug_dump,
    involution,
    oracle_boundary_count,
    trace_faces,
)
from arccalc.surfaces import ArcClass, boundary_of_neighborhood, simplex_genus


class TestConstruction:
    def test_counts(self):
        g = build_ribbon(ArcClass((1, 2, 0), 1))
        assert (g.vertex_count, g.edge_count) == (2, 5)
        g = build_ribbon(ArcClass((1, 2, 0), 2))
        assert (g.vertex_count, g.edge_count) == (2, 5)
        g = build_ribbon(ArcClass((0,), 2))
        assert (g.vertex_count, g.edge_count) == (2, 3)

    def test_euler_char(self):
        for p in range(1, 6):
            for side in (1, 2):
                g = build_ribbon(ArcClass(identity(p), side))
                assert g.euler_char == -p

    def test_involution_fixed_point_free(self):
        g = build_ribbon(ArcClass((2, 0, 1), 1))
        for rot in g.rotations:
            for d in rot:
                assert involution(d) != d
                assert involution(involution(d)) == d

    # one arc: three edges, darts 0..5; one case per rule of the check
    BAD_ROTATIONS = {
        "repeated dart": ((0, 0, 2, 3), (4, 5)),
        "dart outside range(2E), so 4 has no partner": ((0, 1, 2, 3), (4, 6)),
        "wrong dart count": ((0, 1, 2, 3), (4, 5, 6, 7)),
    }

    def test_validation(self):
        for rotations in self.BAD_ROTATIONS.values():
            with pytest.raises(ValueError):
                RibbonGraph(1, 1, rotations)

    def test_validation_under_python_O(self):
        src = os.path.dirname(os.path.dirname(arccalc.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "from arccalc.ribbon import RibbonGraph\n"
            f"for rotations in {list(self.BAD_ROTATIONS.values())!r}:\n"
            "    try:\n"
            "        RibbonGraph(1, 1, rotations)\n"
            "    except ValueError:\n"
            "        print('raised')\n"
        )
        res = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["raised"] * len(self.BAD_ROTATIONS)

    def test_built_graphs_pass_validation(self):
        for p in range(1, 7):
            for w in all_perms(p):
                for side in (1, 2):
                    # the constructor raises on a bad rotation system
                    build_ribbon(ArcClass(w, side))


class TestTrace:
    def test_anchor_values(self):
        assert oracle_boundary_count(ArcClass((1, 2, 0), 1)) == 3
        assert oracle_boundary_count(ArcClass((1, 2, 0), 2)) == 5

    def test_single_arc(self):
        assert oracle_boundary_count(ArcClass((0,), 1)) == 3
        assert oracle_boundary_count(ArcClass((0,), 2)) == 3

    def test_faces_partition_darts(self):
        g = build_ribbon(ArcClass((0, 3, 1, 2), 2))
        darts = [d for f in trace_faces(g) for d in f]
        assert len(darts) == len(set(darts)) == 2 * g.edge_count

    def test_faces_are_the_sorted_orbits_of_the_face_step(self):
        # the step is rebuilt here from the rotations and the involution
        # alone, so the check holds for any representation of the darts
        for p in range(1, 6):
            for w in all_perms(p):
                for side in (1, 2):
                    g = build_ribbon(ArcClass(w, side))
                    after = {}
                    for rot in g.rotations:
                        for i, d in enumerate(rot):
                            after[d] = rot[(i + 1) % len(rot)]
                    step = {d: after[involution(d)] for d in after}
                    faces = trace_faces(g)
                    for f in faces:
                        assert all(step[d] == e for d, e in zip(f, f[1:] + f[:1])), (w, side, f)
                        assert f[0] == min(f)
                    assert list(faces) == sorted(faces)
                    darts = [d for f in faces for d in f]
                    assert sorted(darts) == sorted(step)

    def test_trace_deterministic(self):
        a = ArcClass((3, 1, 0, 2), 1)
        assert trace_faces(build_ribbon(a)) == trace_faces(build_ribbon(a))


class TestAgreement:
    def test_matches_formula_exhaustively(self):
        for p in range(1, 7):
            for w in all_perms(p):
                for side in (1, 2):
                    a = ArcClass(w, side)
                    assert oracle_boundary_count(a) == boundary_of_neighborhood(a), a

    def test_face_count_detects_genus(self):
        # V - E + F = 2 - 2 * (thickening genus)
        for p in range(1, 6):
            for w in all_perms(p):
                for side in (1, 2):
                    a = ArcClass(w, side)
                    g = build_ribbon(a)
                    faces = len(trace_faces(g))
                    assert g.euler_char + faces == 2 - 2 * simplex_genus(a)

    def test_hat_compatibility(self):
        # closing up the shared circle turns a one-circle system into a
        # two-circle system with one more boundary component
        for p in range(1, 6):
            for w in all_perms(p):
                one = oracle_boundary_count(ArcClass(w, 1))
                two = oracle_boundary_count(ArcClass(hat(w), 2))
                assert one == two - 1


def test_debug_dump_shape():
    dump = debug_dump(ArcClass((1, 0), 2))
    assert dump["arc_class"] == {"perm": [1, 0], "side": 2}
    assert len(dump["rotations"]) == 2
    assert len(dump["faces"]) == oracle_boundary_count(ArcClass((1, 0), 2))


def test_debug_dump_literal():
    # darts appear as [edge, end] pairs
    assert debug_dump(ArcClass((1, 0), 2)) == {
        "arc_class": {"perm": [1, 0], "side": 2},
        "rotations": [[[2, 0], [0, 0], [1, 0], [2, 1]], [[3, 0], [0, 1], [1, 1], [3, 1]]],
        "faces": [[[0, 0], [1, 1], [2, 1]], [[0, 1], [1, 0], [3, 1]], [[2, 0]], [[3, 0]]],
    }
