"""Simplex geometry and bookkeeping (paper §2.1-§2.2).

A d-dimensional simplex is ``d+1`` vertices; here each vertex is a
:class:`~repro.noise.evaluation.VertexEvaluation` so the geometric object also
carries the noisy objective estimates the move decisions are made from.

The transformation operations use the paper's coefficients (``alpha=1``
reflection, ``gamma=2`` expansion, ``beta=0.5`` contraction):

* reflection   ``ref = (1+alpha) cent - alpha max      = 2 cent - max``
* expansion    ``exp = gamma ref - (gamma-1) cent      = 2 ref - cent``
* contraction  ``con = beta max + (1-beta) cent        = 0.5 max + 0.5 cent``
* collapse     ``theta_i <- 0.5 theta_i + 0.5 theta_min`` for all i != min

The *contraction level* ``l`` tracks the size of the simplex as a power of two
of its initial size (§2.2): contraction increments ``l``, expansion decrements
it, reflection leaves it unchanged and a collapse adds ``d``.  The Anderson
criterion (eq. 2.4) keys its noise threshold off ``l``.

This module sits *below* the ask/tell seam and deliberately does not route
through it: the transformations are pure geometry over already-merged
estimates — they read vertex positions and values but never sample, so there
is no evaluation traffic here to intercept.  All sampling triggered by a
transformation (activating the trial point, gate waits) flows through
:class:`~repro.noise.stochastic.SamplingPool`, which is the seam's single
interception point.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.noise.evaluation import VertexEvaluation

# -- pure geometric transforms (stateless, shared with the Anderson search) --


def reflect_point(cent: np.ndarray, worst: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """Reflection of ``worst`` through the centroid ``cent``."""
    return (1.0 + alpha) * cent - alpha * worst


def expand_point(ref: np.ndarray, cent: np.ndarray, gamma: float = 2.0) -> np.ndarray:
    """Expansion past the reflected point ``ref`` away from ``cent``."""
    return gamma * ref - (gamma - 1.0) * cent


def contract_point(worst: np.ndarray, cent: np.ndarray, beta: float = 0.5) -> np.ndarray:
    """Contraction of ``worst`` toward the centroid ``cent``."""
    return beta * worst + (1.0 - beta) * cent


def collapse_point(theta: np.ndarray, theta_min: np.ndarray) -> np.ndarray:
    """Collapse of a vertex halfway toward the best vertex."""
    return 0.5 * (theta + theta_min)


def diameter(points: Sequence[np.ndarray]) -> float:
    """Simplex "diameter" D = max pairwise distance (eq. 2.2)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"expected a stack of points, got shape {pts.shape}")
    # pairwise distances without scipy: ||a-b||^2 = |a|^2 + |b|^2 - 2 a.b
    sq = np.einsum("ij,ij->i", pts, pts)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    np.maximum(d2, 0.0, out=d2)
    d2max = d2.max()
    # That form cancels away ~eps * |x|^2: for a simplex tiny next to its
    # distance from the origin (or collapsed to one point) the rounding is
    # most of d2, so take the differences directly there.
    if d2max <= _GRAM_RTOL * sq.max():
        diff = pts[:, None, :] - pts[None, :, :]
        d2max = np.einsum("ijk,ijk->ij", diff, diff).max()
    return float(np.sqrt(d2max))


#: Below this ratio of D^2 to the largest |x|^2 the Gram-form diameter is
#: recomputed from differences (its relative error there is ~eps / ratio).
_GRAM_RTOL = 1e-8


class Simplex:
    """Ordered collection of ``d+1`` vertex evaluations plus size bookkeeping.

    Parameters
    ----------
    evaluations:
        Exactly ``d+1`` evaluations whose ``theta`` vectors all have length
        ``d`` and are affinely independent enough to span the space (a strict
        check is not enforced; a degenerate simplex still *works*, it just
        explores a subspace, matching standard NM behaviour).
    """

    def __init__(self, evaluations: Sequence[VertexEvaluation]) -> None:
        evals = list(evaluations)
        if len(evals) < 2:
            raise ValueError("a simplex needs at least 2 vertices (d >= 1)")
        dim = evals[0].theta.shape[0]
        if len(evals) != dim + 1:
            raise ValueError(
                f"{dim}-dim simplex requires {dim + 1} vertices, got {len(evals)}"
            )
        for ev in evals:
            if ev.theta.shape != (dim,):
                raise ValueError("vertex dimensionality mismatch")
        self.vertices: List[VertexEvaluation] = evals
        self.dim = dim
        self.contraction_level = 0  # l in §2.2
        self.initial_diameter = self.diameter()

    # -- ordering ----------------------------------------------------------

    def order(self) -> Tuple[VertexEvaluation, VertexEvaluation, VertexEvaluation]:
        """Return ``(min, smax, max)`` by the current (noisy) estimates.

        The identification of lowest / second-highest / highest vertices is
        done on plain estimates, as in the paper; it is the *move decisions*
        that get confidence treatment in the PC algorithms.
        """
        ordered = sorted(self.vertices, key=lambda ev: ev.estimate)
        return ordered[0], ordered[-2], ordered[-1]

    def best(self) -> VertexEvaluation:
        """Vertex with the lowest current estimate."""
        return min(self.vertices, key=lambda ev: ev.estimate)

    def worst(self) -> VertexEvaluation:
        """Vertex with the highest current estimate."""
        return max(self.vertices, key=lambda ev: ev.estimate)

    def estimates(self) -> np.ndarray:
        """Current objective estimates, one per vertex."""
        return np.array([ev.estimate for ev in self.vertices], dtype=float)

    def variances(self) -> np.ndarray:
        """Current noise variances ``sigma_i^2(t_i)``, one per vertex."""
        return np.array([ev.variance for ev in self.vertices], dtype=float)

    def internal_variance(self) -> float:
        """Mean squared deviation of the estimates from their mean.

        This is the "internal variance of the vertices themselves" that the
        MN gate (eq. 2.3) compares the worst-case noise variance against.
        """
        g = self.estimates()
        return float(np.mean((g - g.mean()) ** 2))

    # -- geometry ------------------------------------------------------------

    def points(self) -> np.ndarray:
        """Stack of vertex coordinates, shape ``(d+1, d)``."""
        return np.array([ev.theta for ev in self.vertices], dtype=float)

    def centroid_excluding(self, excluded: VertexEvaluation) -> np.ndarray:
        """Centroid of all vertices except ``excluded`` (normally the worst)."""
        pts = [ev.theta for ev in self.vertices if ev is not excluded]
        if len(pts) == len(self.vertices):
            raise ValueError("excluded vertex is not part of this simplex")
        return np.mean(pts, axis=0)

    def diameter(self) -> float:
        """Current simplex diameter (eq. 2.2)."""
        return diameter(self.points())

    # -- mutation -------------------------------------------------------------

    def replace(
        self, old: VertexEvaluation, new: VertexEvaluation, operation: str
    ) -> None:
        """Swap ``old`` for ``new`` and update the contraction level.

        ``operation`` must be ``"reflect"``, ``"expand"`` or ``"contract"``.
        """
        try:
            idx = self.vertices.index(old)
        except ValueError:
            raise ValueError("old vertex is not part of this simplex") from None
        self.vertices[idx] = new
        if operation == "reflect":
            pass
        elif operation == "expand":
            self.contraction_level -= 1
        elif operation == "contract":
            self.contraction_level += 1
        else:
            raise ValueError(f"unknown operation {operation!r}")

    def collapse(self, replacements: Sequence[VertexEvaluation]) -> None:
        """Replace every vertex except the current best with ``replacements``.

        The caller supplies the ``d`` new evaluations (at the halfway points);
        the contraction level increases by ``d`` (§2.2: "collapse operations
        increase l by d").
        """
        best = self.best()
        if len(replacements) != self.dim:
            raise ValueError(
                f"collapse needs {self.dim} replacement vertices, got {len(replacements)}"
            )
        self.vertices = [best, *replacements]
        self.contraction_level += self.dim

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simplex d={self.dim} l={self.contraction_level} "
            f"D={self.diameter():.4g} best={self.best().estimate:.6g}>"
        )
