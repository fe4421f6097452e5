"""Scalar (semi)rings: ℤ, ℝ, Booleans, max-product, and fixed-width vectors.

These are the workhorse payload domains for COUNT and SUM queries (Examples
2.2 and 2.3 of the paper) and the building blocks for compound aggregates.
"""

from __future__ import annotations

import math
import operator
from typing import Tuple

import numpy as np

from repro.rings.base import Ring

__all__ = [
    "IntegerRing",
    "RealRing",
    "BooleanSemiring",
    "MaxProductSemiring",
    "VectorRing",
    "ScalarKernelOps",
    "INT_RING",
    "REAL_RING",
    "BOOL_SEMIRING",
]


class ScalarKernelOps:
    """Array hooks for ℝ: a payload column is one float64 array.

    Triggers never run over these hooks (``vectorizes_triggers``): one
    Python ``*`` per row already beats packing, so there is no packed
    product hook here.  The float64 ``dtype`` is what marks ℝ as the ring
    whose columns multiply as plain arrays
    (:func:`repro.data.relation.float_column_ops`): array factor
    programs, the resident root, and bulk evaluation's packed join and
    grouped sum use ``pack`` / ``reduce`` / ``zero_mask`` / ``unpack``, a
    partial view's filter ``take``, the resident root ``add_packed``.
    """

    __slots__ = ("tolerance",)

    dtype = np.float64
    vectorizes_triggers = False

    def __init__(self, tolerance: float = 0.0):
        self.tolerance = tolerance

    def pack(self, column, n):
        return np.asarray(column, dtype=np.float64)

    def unpack(self, reduced):
        return reduced.tolist()

    def reduce(self, packed, group_ids, n_groups):
        """Fold rows onto their output keys (one grouped reduction)."""
        return np.bincount(group_ids, weights=packed, minlength=n_groups)

    def add_packed(self, a, b):
        return a + b

    def take(self, packed, rows):
        return packed[rows]

    def zero_mask(self, packed):
        if self.tolerance:
            return np.abs(packed) <= self.tolerance
        return packed == 0


class IntegerRing(Ring):
    """The ring ℤ of integers; the default ring for multiplicities."""

    name = "Z"

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    # Built-in functions do not bind as methods: ``ring.add(a, b)`` is
    # ``operator.add(a, b)``, with no Python frame per ring operation in
    # the generated ℤ triggers.
    add = operator.add
    mul = operator.mul
    neg = operator.neg
    is_zero = operator.not_

    def from_int(self, n: int) -> int:
        return n

    def sum(self, items) -> int:
        return sum(items)


class RealRing(Ring):
    """The ring ℝ of floats with tolerance-based zero/equality tests.

    Floating-point sums do not cancel exactly under insert/delete churn, so
    ``is_zero`` uses an absolute tolerance; without it deleted keys would
    linger in views with payloads like ``1e-17``.
    """

    name = "R"

    def __init__(self, tolerance: float = 1e-9):
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        self.tolerance = tolerance

    @property
    def zero(self) -> float:
        return 0.0

    @property
    def one(self) -> float:
        return 1.0

    def add(self, a: float, b: float) -> float:
        return a + b

    def mul(self, a: float, b: float) -> float:
        return a * b

    def neg(self, a: float) -> float:
        return -a

    def eq(self, a: float, b: float) -> bool:
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=self.tolerance)

    def is_zero(self, a: float) -> bool:
        return abs(a) <= self.tolerance

    def from_int(self, n: int) -> float:
        return float(n)

    def sum(self, items) -> float:
        return sum(items)

    def kernel_ops(self):
        ops = getattr(self, "_kernel_ops", None)
        if ops is None:
            ops = ScalarKernelOps(self.tolerance)
            self._kernel_ops = ops
        return ops


class BooleanSemiring(Ring):
    """The Boolean semiring ({true, false}, ∨, ∧); no deletions possible."""

    name = "B"
    has_additive_inverse = False

    @property
    def zero(self) -> bool:
        return False

    @property
    def one(self) -> bool:
        return True

    def add(self, a: bool, b: bool) -> bool:
        return a or b

    def mul(self, a: bool, b: bool) -> bool:
        return a and b

    def from_int(self, n: int) -> bool:
        if n < 0:
            raise ValueError("Boolean semiring has no additive inverse")
        return n > 0


class MaxProductSemiring(Ring):
    """The max-product semiring (ℝ₊, max, ×, 0, 1) from Appendix A.

    Useful for maximum-probability style aggregates; supports inserts only.
    """

    name = "max-product"
    has_additive_inverse = False

    @property
    def zero(self) -> float:
        return 0.0

    @property
    def one(self) -> float:
        return 1.0

    def add(self, a: float, b: float) -> float:
        return a if a >= b else b

    def mul(self, a: float, b: float) -> float:
        return a * b

    def eq(self, a: float, b: float) -> bool:
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)

    def from_int(self, n: int) -> float:
        if n < 0:
            raise ValueError("max-product semiring has no additive inverse")
        return 1.0 if n > 0 else 0.0


class VectorRing(Ring):
    """ℝ^k with element-wise operations (the paper's ℝ², ℝ³ examples).

    A cheap way to maintain ``k`` independent SUM aggregates in one payload;
    the degree-m matrix ring of :mod:`repro.rings.cofactor` goes further and
    *shares* computation across aggregates.
    """

    name = "R^k"

    def __init__(self, width: int, tolerance: float = 1e-9):
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = width
        self.tolerance = tolerance
        self._zero: Tuple[float, ...] = (0.0,) * width
        self._one: Tuple[float, ...] = (1.0,) * width
        self.name = f"R^{width}"

    @property
    def zero(self) -> Tuple[float, ...]:
        return self._zero

    @property
    def one(self) -> Tuple[float, ...]:
        return self._one

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def mul(self, a, b):
        return tuple(x * y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def eq(self, a, b) -> bool:
        return all(
            math.isclose(x, y, rel_tol=1e-9, abs_tol=self.tolerance)
            for x, y in zip(a, b)
        )

    def is_zero(self, a) -> bool:
        return all(abs(x) <= self.tolerance for x in a)

    def from_int(self, n: int):
        return (float(n),) * self.width


#: Shared default instances (rings are stateless, so sharing is safe).
INT_RING = IntegerRing()
REAL_RING = RealRing()
BOOL_SEMIRING = BooleanSemiring()
