"""Domain geometry: containment, projection, frames, grammar."""

import numpy as np
import pytest

from critsense.cli import parse_domain
from critsense.domains import (Ball, Box, Interval, components,
                               superlevel_join)
from critsense.errors import UsageError
from oracles import bfs_components, brute_pass_value


@pytest.mark.parametrize("dom", [
    Interval(-1.0, 2.0),
    Box([-1.0, 0.0], [1.0, 3.0]),
    Ball([0.5, -0.5], 2.0),
])
def test_projection_lands_inside(dom):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-5, 5, size=(40, dom.dim))
    proj = np.array([dom.project(p) for p in pts])
    assert np.all(dom.contains(proj, tol=1e-9))


def test_interval_boundary_distance():
    dom = Interval(-1.0, 1.0)
    assert dom.boundary_distance(np.array([0.0])) == pytest.approx(1.0)
    assert dom.boundary_distance(np.array([0.75])) == pytest.approx(0.25)
    assert dom.euler_char == 1
    assert dom.diameter == pytest.approx(2.0)


def test_ball_frames_are_outward_unit_normals():
    dom = Ball([0.0, 0.0], 2.0)
    pts, normals = dom.boundary_frames(64)
    assert np.allclose(np.linalg.norm(pts, axis=1), 2.0)
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)
    # outward: normal parallel to the radius
    perp = pts[:, 0] * normals[:, 1] - pts[:, 1] * normals[:, 0]
    assert np.allclose(perp, 0.0, atol=1e-12)
    assert np.all(np.sum(pts * normals, axis=1) > 0)


@pytest.mark.parametrize("dom", [Box([0.0, 0.0], [2.0, 1.0]),
                                 Ball([0.5, -0.5], 2.0)],
                         ids=["box", "disk"])
def test_boundary_curves_walk_the_rim(dom):
    curves = dom.boundary_curves()
    center = np.mean(dom.bounding_box(), axis=0)
    for i, c in enumerate(curves):
        # closed chain: each piece ends where the next one starts
        nxt = curves[(i + 1) % len(curves)]
        assert np.allclose(c.point(c.length), nxt.point(0.0), atol=1e-12)
        assert c.cyclic == (len(curves) == 1)
        t = np.linspace(0.0, c.length, 17)
        tan, nrm = c.tangent(t), c.normal(t)
        assert np.allclose(np.linalg.norm(tan, axis=-1), 1.0)
        assert np.allclose(np.linalg.norm(nrm, axis=-1), 1.0)
        assert np.allclose(np.sum(tan * nrm, axis=-1), 0.0, atol=1e-15)
        rel = c.point(t) - center
        assert np.all(np.sum(nrm * rel, axis=-1) > 0)  # outward
        # counter-clockwise: the tangent turns left of the radius
        assert np.all(rel[:, 0] * tan[:, 1] - rel[:, 1] * tan[:, 0] > 0)
        feet = [c.point(c.locate(p)) for p in c.point(t)]
        assert np.allclose(feet, c.point(t), atol=1e-12)
    pts, normals = dom.boundary_frames(64)
    for p, n in zip(pts, normals):
        # some piece holds p, at a parameter in its range, with n as normal
        assert any((c.cyclic or 0.0 <= c.locate(p) < c.length)
                   and np.allclose(c.point(c.locate(p)), p, atol=1e-12)
                   and np.allclose(c.normal(c.locate(p)), n, atol=1e-12)
                   for c in curves)


def test_box_faces_have_outward_axis_normals():
    dom = Box([-1.0, 0.0, 0.5], [1.0, 3.0, 2.0])
    pts, normals = dom.boundary_frames(256)
    assert pts.shape == normals.shape == (6 * 16 * 16, 3)
    assert np.all(dom.boundary_distance(pts) == 0.0)
    assert np.all(np.sort(np.abs(normals), axis=1) == [0.0, 0.0, 1.0])
    assert not np.any(dom.contains(pts + 0.01 * normals))


def test_interval_is_a_one_dimensional_box():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a, b = np.sort(rng.uniform(-3, 3, 2))
        iv, box = Interval(a, b), Box([a], [b])
        pts = rng.uniform(a - 1, b + 1, size=(50, 1))
        pts[:2] = [[a], [b]]
        for meth in ("contains", "boundary_distance", "project"):
            assert np.array_equal(getattr(iv, meth)(pts),
                                  getattr(box, meth)(pts))
        for mine, theirs in zip(iv.boundary_frames(8), box.boundary_frames(8)):
            assert np.array_equal(mine, theirs)
        assert (iv.a, iv.b) == (a, b)
        assert iv.descriptor().startswith("interval:")


def test_lattice_has_res_plus_one_nodes_per_axis():
    dom = Box([0.0, 0.0], [1.0, 1.0])
    assert dom.lattice(8).shape == (9, 9, 2)
    dom1 = Interval(0.0, 1.0)
    assert dom1.lattice(16).shape == (17, 1)


@pytest.mark.parametrize("text,cls", [
    ("interval:-1,1", Interval),
    ("box:-1,-1:1,1", Box),
    ("ball:0,0:1", Ball),
])
def test_domain_grammar_round_trip(text, cls):
    dom = parse_domain(text)
    assert isinstance(dom, cls)
    assert dom.descriptor() == text


@pytest.mark.parametrize("text", ["disk:0,0:1", "ball:0,0", "interval:a,b"])
def test_domain_grammar_rejects_malformed(text):
    with pytest.raises(UsageError):
        parse_domain(text)


@pytest.mark.parametrize("shape", [(1,), (50,), (1, 1), (9, 13), (6, 5, 7)])
def test_components_match_breadth_first_search(shape):
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    masks = [np.ones(shape, dtype=bool), np.zeros(shape, dtype=bool)]
    single = np.zeros(shape, dtype=bool)
    single[tuple(n // 2 for n in shape)] = True
    masks.append(single)
    masks += [rng.random(shape) < p for p in (0.2, 0.35, 0.5, 0.65, 0.8)
              for _ in range(4)]
    for mask in masks:
        assert components(mask) == bfs_components(mask)


@pytest.mark.parametrize("shape,levels", [
    ((30,), None), ((9, 11), None), ((9, 11), 4), ((5, 6, 7), None),
    ((5, 6, 7), 3)])
def test_superlevel_join_is_the_bottleneck_level(shape, levels):
    # integer levels force ties, which the sweep breaks in flat order
    rng = np.random.default_rng(sum(shape))
    grid = np.indices(shape).reshape(len(shape), -1).T
    centre = (np.array(shape) - 1) / 2.0
    for trial in range(8):
        values = rng.random(shape)
        if levels:
            values = np.floor(levels * values)
        inside = np.ones(shape, dtype=bool)
        if trial % 2:  # a digital ball
            inside = (np.linalg.norm(np.indices(shape).T - centre, axis=-1).T
                      <= 0.5 * min(shape))
        cells = grid[inside.ravel()]
        a, b = (tuple(cells[i]) for i in rng.choice(len(cells), 2))
        v, path = superlevel_join(values, inside, a, b)
        level = values[v]
        assert level == brute_pass_value(values, inside, a, b)
        assert tuple(path[0]) == a and tuple(path[-1]) == b
        assert np.all(np.abs(np.diff(path, axis=0)) <= 1)
        on_path = values[tuple(path.T)]
        assert np.all(inside[tuple(path.T)]) and np.all(on_path >= level)
        assert any(tuple(row) == v for row in path)
