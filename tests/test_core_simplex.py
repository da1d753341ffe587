"""Geometry and bookkeeping tests for the Simplex class."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    Simplex,
    collapse_point,
    contract_point,
    diameter,
    expand_point,
    reflect_point,
)
from repro.noise import VertexEvaluation


def make_eval(theta, g):
    ev = VertexEvaluation(theta, sigma0=0.0)
    ev.merge_block(1.0, g)
    return ev


def make_simplex(points, values):
    return Simplex([make_eval(p, v) for p, v in zip(points, values)])


point = hnp.arrays(float, (3,), elements=st.floats(-50, 50, allow_nan=False))


class TestTransforms:
    def test_reflection_paper_coefficients(self):
        """alpha=1: ref = 2 cent - max (Algorithm 1 line 3)."""
        cent = np.array([1.0, 1.0])
        worst = np.array([3.0, -1.0])
        np.testing.assert_allclose(reflect_point(cent, worst), [-1.0, 3.0])

    def test_expansion_paper_coefficients(self):
        """gamma=2: exp = 2 ref - cent (Algorithm 1 line 5)."""
        ref = np.array([2.0, 0.0])
        cent = np.array([1.0, 1.0])
        np.testing.assert_allclose(expand_point(ref, cent), [3.0, -1.0])

    def test_contraction_paper_coefficients(self):
        """beta=0.5: con = 0.5 max + 0.5 cent (Algorithm 1 line 15)."""
        worst = np.array([4.0, 0.0])
        cent = np.array([0.0, 2.0])
        np.testing.assert_allclose(contract_point(worst, cent), [2.0, 1.0])

    def test_collapse_halfway(self):
        np.testing.assert_allclose(
            collapse_point(np.array([4.0, 0.0]), np.array([0.0, 2.0])), [2.0, 1.0]
        )

    @given(cent=point, worst=point)
    @settings(max_examples=40)
    def test_reflection_is_involution(self, cent, worst):
        """Reflecting the reflection recovers the original point."""
        ref = reflect_point(cent, worst)
        back = reflect_point(cent, ref)
        np.testing.assert_allclose(back, worst, atol=1e-9)

    @given(cent=point, worst=point)
    @settings(max_examples=40)
    def test_reflection_preserves_distance_to_centroid(self, cent, worst):
        ref = reflect_point(cent, worst)
        assert np.linalg.norm(ref - cent) == pytest.approx(
            np.linalg.norm(worst - cent), abs=1e-9
        )

    @given(cent=point, worst=point)
    @settings(max_examples=40)
    def test_expansion_doubles_centroid_distance(self, cent, worst):
        ref = reflect_point(cent, worst)
        exp = expand_point(ref, cent)
        assert np.linalg.norm(exp - cent) == pytest.approx(
            2.0 * np.linalg.norm(ref - cent), abs=1e-9
        )

    @given(cent=point, worst=point)
    @settings(max_examples=40)
    def test_contraction_halves_centroid_distance(self, cent, worst):
        con = contract_point(worst, cent)
        assert np.linalg.norm(con - cent) == pytest.approx(
            0.5 * np.linalg.norm(worst - cent), abs=1e-9
        )

    @given(cent=point, worst=point)
    @settings(max_examples=40)
    def test_reflect_expand_contract_are_collinear(self, cent, worst):
        """All trial points lie on the worst-through-centroid line."""
        ref = reflect_point(cent, worst)
        exp = expand_point(ref, cent)
        con = contract_point(worst, cent)
        direction = worst - cent
        for p in (ref, exp, con):
            rel = p - cent
            cross = np.linalg.norm(
                rel * np.linalg.norm(direction) + direction * np.linalg.norm(rel)
            ) * np.linalg.norm(
                rel * np.linalg.norm(direction) - direction * np.linalg.norm(rel)
            )
            # rel is parallel (or anti-parallel) to direction
            assert min(
                np.linalg.norm(rel / max(np.linalg.norm(rel), 1e-300) - direction / max(np.linalg.norm(direction), 1e-300)),
                np.linalg.norm(rel / max(np.linalg.norm(rel), 1e-300) + direction / max(np.linalg.norm(direction), 1e-300)),
            ) == pytest.approx(0.0, abs=1e-6) or np.linalg.norm(rel) < 1e-9 or np.linalg.norm(direction) < 1e-9
            del cross


class TestDiameter:
    def test_two_points(self):
        assert diameter([np.zeros(2), np.array([3.0, 4.0])]) == pytest.approx(5.0)

    def test_max_pairwise(self):
        pts = [np.array([0.0]), np.array([1.0]), np.array([10.0])]
        assert diameter(pts) == pytest.approx(10.0)

    def test_identical_points_zero(self):
        assert diameter([np.ones(3)] * 4) == pytest.approx(0.0)

    def test_collapsed_simplex_away_from_origin(self):
        # the Gram form alone reads ~1e-6 here: cancellation, not geometry
        assert diameter([np.full(3, 41.18575477)] * 5) == 0.0
        pts = np.full((3, 2), 1e3)
        pts[1, 0] += 1e-7
        assert diameter(pts) == pytest.approx(1e-7, rel=1e-6)

    @given(
        pts=hnp.arrays(
            float, (5, 3), elements=st.floats(-100, 100, allow_nan=False)
        ),
        shift=point,
    )
    @settings(max_examples=40)
    def test_translation_invariance(self, pts, shift):
        assert diameter(pts) == pytest.approx(diameter(pts + shift), abs=1e-6)


class TestSimplexContainer:
    def test_requires_d_plus_one_vertices(self):
        pts = np.eye(3)  # only 3 vertices for d=3
        with pytest.raises(ValueError):
            make_simplex(pts, [1.0, 2.0, 3.0])

    def test_order_returns_min_smax_max(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        s = make_simplex(pts, [5.0, 1.0, 3.0])
        mn, smax, mx = s.order()
        assert mn.estimate == 1.0
        assert smax.estimate == 3.0
        assert mx.estimate == 5.0

    def test_best_worst(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        s = make_simplex(pts, [5.0, 1.0, 3.0])
        assert s.best().estimate == 1.0
        assert s.worst().estimate == 5.0

    def test_centroid_excludes_vertex(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        s = make_simplex(pts, [9.0, 1.0, 1.0])
        worst = s.worst()
        np.testing.assert_allclose(s.centroid_excluding(worst), [1.0, 1.0])

    def test_centroid_requires_member(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        s = make_simplex(pts, [9.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            s.centroid_excluding(make_eval([5.0, 5.0], 0.0))

    def test_internal_variance(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        s = make_simplex(pts, [1.0, 2.0, 3.0])
        assert s.internal_variance() == pytest.approx(np.var([1.0, 2.0, 3.0]))

    def test_replace_updates_contraction_level(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        s = make_simplex(pts, [5.0, 1.0, 3.0])
        assert s.contraction_level == 0
        new = make_eval([0.5, 0.5], 0.5)
        s.replace(s.worst(), new, "contract")
        assert s.contraction_level == 1
        s.replace(s.worst(), make_eval([0.2, 0.2], 0.1), "expand")
        assert s.contraction_level == 0
        s.replace(s.worst(), make_eval([0.1, 0.1], 0.05), "reflect")
        assert s.contraction_level == 0

    def test_replace_rejects_unknown_vertex(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        s = make_simplex(pts, [5.0, 1.0, 3.0])
        with pytest.raises(ValueError):
            s.replace(make_eval([9.0, 9.0], 0.0), make_eval([0.0, 0.0], 0.0), "reflect")

    def test_replace_rejects_unknown_operation(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        s = make_simplex(pts, [5.0, 1.0, 3.0])
        with pytest.raises(ValueError):
            s.replace(s.worst(), make_eval([0.0, 0.5], 0.0), "teleport")

    def test_collapse_keeps_best_and_adds_d_levels(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        s = make_simplex(pts, [1.0, 5.0, 7.0])
        best = s.best()
        reps = [make_eval([1.0, 0.0], 2.0), make_eval([0.0, 1.0], 2.0)]
        s.collapse(reps)
        assert best in s.vertices
        assert s.contraction_level == 2
        assert len(s) == 3

    def test_collapse_requires_d_replacements(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        s = make_simplex(pts, [1.0, 5.0, 7.0])
        with pytest.raises(ValueError):
            s.collapse([make_eval([1.0, 0.0], 2.0)])

    def test_collapse_halves_diameter_geometrically(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        s = make_simplex(pts, [1.0, 5.0, 7.0])
        d0 = s.diameter()
        best = s.best()
        reps = [
            make_eval(collapse_point(ev.theta, best.theta), 0.0)
            for ev in s.vertices
            if ev is not best
        ]
        s.collapse(reps)
        assert s.diameter() == pytest.approx(d0 / 2.0)
