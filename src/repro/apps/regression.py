"""Learning linear regression models over joins (Section 6.2).

The training dataset is the (never materialized) join of the database
relations; the sufficient statistics for least squares — count, per-variable
sums, and the cofactor matrix of pairwise products — are maintained as one
compound payload in the degree-m matrix ring.  Computing them over all
variables "suffices to learn linear regression models over any label and set
of features" [36]: training restricts the maintained moment matrix, so the
convergence loop never touches the data again.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import FIVMEngine
from repro.core.query import Query
from repro.core.variable_order import VariableOrder
from repro.core.view_tree import ViewTree
from repro.data.database import Database
from repro.data.relation import Relation
from repro.rings.cofactor import CofactorRing, CofactorTriple
from repro.rings.lifting import Lifting

__all__ = ["cofactor_query", "CofactorModel", "TrainedModel", "least_squares_from_moments"]


def cofactor_query(
    name: str,
    relations: Mapping[str, Sequence[str]],
    numeric_variables: Sequence[str],
    free: Iterable[str] = (),
) -> Query:
    """A query maintaining the compound (c, s, Q) aggregate over a join.

    ``numeric_variables`` fixes the model's variable indexing: position j in
    the maintained vectors/matrices is ``numeric_variables[j]``.  Variables
    listed as ``free`` are group-by keys (one model per group) and must not
    appear among the numeric variables.
    """
    free = tuple(free)
    numeric = tuple(numeric_variables)
    overlap = set(free) & set(numeric)
    if overlap:
        raise ValueError(
            f"group-by variables {sorted(overlap)} cannot also be model "
            "variables"
        )
    ring = CofactorRing(len(numeric))
    lifting = Lifting(ring)
    for index, variable in enumerate(numeric):
        lifting.set(variable, ring.lift(index))
    return Query(name, relations, free=free, ring=ring, lifting=lifting)


class TrainedModel:
    """Parameters of a trained linear model ``label ≈ θ₀ + Σ θᵢ·featureᵢ``."""

    def __init__(
        self,
        features: Tuple[str, ...],
        label: str,
        theta: np.ndarray,
        iterations: int,
    ):
        self.features = features
        self.label = label
        self.theta = theta  # [bias, per-feature...]
        self.iterations = iterations

    def predict(self, values: Mapping[str, float]) -> float:
        total = float(self.theta[0])
        for weight, feature in zip(self.theta[1:], self.features):
            total += float(weight) * float(values[feature])
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        terms = " + ".join(
            f"{w:.4g}*{f}" for w, f in zip(self.theta[1:], self.features)
        )
        return f"{self.label} ≈ {self.theta[0]:.4g} + {terms}"


def least_squares_from_moments(
    moments: np.ndarray,
    feature_idx: Sequence[int],
    label_idx: int,
    ridge: float = 0.0,
) -> np.ndarray:
    """Solve the normal equations from an extended moment matrix.

    ``moments`` is the (m+1)×(m+1) matrix with row/col 0 the constant
    feature.  Returns θ (bias first).  ``ridge`` adds λI for stability on
    collinear data (the bias is not regularized).
    """
    cols = [0] + [i + 1 for i in feature_idx]
    a = moments[np.ix_(cols, cols)].copy()
    b = moments[np.ix_(cols, [label_idx + 1])].ravel()
    if ridge > 0.0:
        a[1:, 1:] += ridge * np.eye(len(feature_idx))
    theta, *_ = np.linalg.lstsq(a, b, rcond=None)
    return theta


class CofactorModel:
    """Maintains cofactor matrices over a join and trains models from them."""

    def __init__(
        self,
        name: str,
        relations: Mapping[str, Sequence[str]],
        numeric_variables: Sequence[str],
        free: Iterable[str] = (),
        order: Optional[VariableOrder] = None,
        updatable: Optional[Iterable[str]] = None,
        tree: Optional[ViewTree] = None,
        db: Optional[Database] = None,
        storage: Optional[str] = None,
    ):
        self.query = cofactor_query(name, relations, numeric_variables, free)
        self.numeric_variables = tuple(numeric_variables)
        self._index: Dict[str, int] = {
            v: i for i, v in enumerate(self.numeric_variables)
        }
        self.engine = FIVMEngine(
            self.query, order=order, updatable=updatable, tree=tree, db=db,
            storage=storage,
        )

    # ------------------------------------------------------------------

    def apply_update(self, delta: Relation) -> Relation:
        return self.engine.apply_update(delta)

    def result(self) -> Relation:
        return self.engine.result()

    def view_sizes(self) -> Dict[str, int]:
        return self.engine.view_sizes()

    def triple(self, key: tuple = ()) -> CofactorTriple:
        """The maintained (c, s, Q) for a group key (() for global)."""
        return self.engine.result().payload(key)

    def moment_matrix(self, key: tuple = ()) -> np.ndarray:
        """The extended moment matrix ``MᵀM`` (constant column included)."""
        return self.triple(key).moment_matrix()

    # ------------------------------------------------------------------

    def solve(
        self,
        features: Sequence[str],
        label: str,
        key: tuple = (),
        ridge: float = 0.0,
    ) -> TrainedModel:
        """Closed-form least squares over the maintained statistics."""
        feature_idx = [self._index[f] for f in features]
        theta = least_squares_from_moments(
            self.moment_matrix(key), feature_idx, self._index[label], ridge
        )
        return TrainedModel(tuple(features), label, theta, iterations=0)

    def gradient_descent(
        self,
        features: Sequence[str],
        label: str,
        key: tuple = (),
        step_size: Optional[float] = None,
        max_iterations: int = 10_000,
        tolerance: float = 1e-9,
    ) -> TrainedModel:
        """Batch gradient descent using only the moment matrix (Section 6.2).

        Each step is O(m²) — ``θ := θ − α (Aθ − b)`` with A and b read from
        the maintained statistics — independent of the training-set size,
        the property that makes in-database learning fast.
        """
        moments = self.moment_matrix(key)
        count = moments[0, 0]
        if count <= 0:
            raise ValueError("cannot train on an empty join result")
        cols = [0] + [self._index[f] + 1 for f in features]
        a = moments[np.ix_(cols, cols)] / count
        b = moments[np.ix_(cols, [self._index[label] + 1])].ravel() / count
        # 1/L step size from the largest eigenvalue of the (PSD) system.
        if step_size is None:
            eigenvalues = np.linalg.eigvalsh(a)
            largest = float(eigenvalues[-1])
            step_size = 1.0 / largest if largest > 0 else 1.0
        theta = np.zeros(len(cols))
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            gradient = a @ theta - b
            theta = theta - step_size * gradient
            if float(np.linalg.norm(gradient)) < tolerance:
                break
        return TrainedModel(tuple(features), label, theta, iterations)
