"""Product rings: tuples of payloads combined component-wise.

The product of rings ``D1 × ... × Dk`` is again a ring; it models compound
aggregates that are maintained together but do not share computation (e.g.
several independent SUMs).  The degree-m matrix ring of
:mod:`repro.rings.cofactor` is the paper's sharing-aware alternative; keeping
both lets benchmarks quantify the benefit of sharing.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.rings.base import Ring

__all__ = ["ProductRing", "ProductKernelOps"]


class ProductKernelOps:
    """Component-wise delegation of the packed-column kernel protocol.

    A packed column (and a store block) is a tuple with one packed column
    per component ring; every operation fans out to the component ops.
    Available only when *all* component rings expose kernel ops — a single
    opaque component forces the whole product back to dict payloads.
    """

    __slots__ = ("ops",)

    def __init__(self, component_ops):
        self.ops = tuple(component_ops)

    @property
    def vectorizes_triggers(self) -> bool:
        """Triggers run over arrays only when every component's do: one
        scalar component (ℤ, ℝ) keeps the product's triggers scalar —
        and its integers unbounded — and has no packed product to call."""
        return all(ops.vectorizes_triggers for ops in self.ops)

    def pack(self, column, n):
        packed = []
        for i, ops in enumerate(self.ops):
            comp = ops.pack([payload[i] for payload in column], n)
            if comp is None:
                return None
            packed.append(comp)
        return tuple(packed)

    def payload_layout(self, payload):
        return tuple(
            ops.payload_layout(comp) for ops, comp in zip(self.ops, payload)
        )

    def unpack(self, packed):
        return list(zip(*(ops.unpack(comp) for ops, comp in zip(self.ops, packed))))

    def mul_packed(self, a, b, n):
        return tuple(
            ops.mul_packed(x, y, n) for ops, x, y in zip(self.ops, a, b)
        )

    def add_packed(self, a, b):
        return tuple(ops.add_packed(x, y) for ops, x, y in zip(self.ops, a, b))

    def neg_packed(self, a):
        return tuple(ops.neg_packed(x) for ops, x in zip(self.ops, a))

    def reduce(self, packed, group_ids, n_groups):
        return tuple(
            ops.reduce(comp, group_ids, n_groups)
            for ops, comp in zip(self.ops, packed)
        )

    def zero_mask(self, packed):
        mask = None
        for ops, comp in zip(self.ops, packed):
            m = ops.zero_mask(comp)
            mask = m if mask is None else mask & m
        return mask if mask is not None else np.zeros(0, dtype=bool)

    # -- store hooks ----------------------------------------------------

    def alloc(self, cap, layout=None):
        if layout is None:
            layout = tuple(() for _ in self.ops)
        return tuple(
            ops.alloc(cap, comp) for ops, comp in zip(self.ops, layout)
        )

    def grow(self, block, used, cap):
        return tuple(
            ops.grow(comp, used, cap) for ops, comp in zip(self.ops, block)
        )

    def take(self, block, rows):
        return tuple(ops.take(comp, rows) for ops, comp in zip(self.ops, block))

    def put(self, block, rows, packed):
        return tuple(
            ops.put(comp, rows, values)
            for ops, comp, values in zip(self.ops, block, packed)
        )

    def add_at(self, block, rows, packed):
        return tuple(
            ops.add_at(comp, rows, values)
            for ops, comp, values in zip(self.ops, block, packed)
        )

    def zero_rows(self, block, rows):
        return tuple(ops.zero_rows(comp, rows) for ops, comp in zip(self.ops, block))


class ProductRing(Ring):
    """Component-wise product of the given rings."""

    def __init__(self, rings: Sequence[Ring]):
        if not rings:
            raise ValueError("product of zero rings is not useful")
        self.rings: Tuple[Ring, ...] = tuple(rings)
        self.name = " x ".join(r.name for r in self.rings)
        self.has_additive_inverse = all(r.has_additive_inverse for r in self.rings)
        self.is_commutative = all(r.is_commutative for r in self.rings)
        self._zero = tuple(r.zero for r in self.rings)
        self._one = tuple(r.one for r in self.rings)

    @property
    def zero(self) -> tuple:
        return self._zero

    @property
    def one(self) -> tuple:
        return self._one

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple(r.add(x, y) for r, x, y in zip(self.rings, a, b))

    def mul(self, a: tuple, b: tuple) -> tuple:
        return tuple(r.mul(x, y) for r, x, y in zip(self.rings, a, b))

    def neg(self, a: tuple) -> tuple:
        return tuple(r.neg(x) for r, x in zip(self.rings, a))

    def eq(self, a: tuple, b: tuple) -> bool:
        return all(r.eq(x, y) for r, x, y in zip(self.rings, a, b))

    def is_zero(self, a: tuple) -> bool:
        return all(r.is_zero(x) for r, x in zip(self.rings, a))

    def sum(self, items) -> tuple:
        """Column-wise sum: each component ring folds its own column once.

        Transposing the batch lets component rings with vectorized sums
        (cofactor, degree) fold their column in one shot instead of per
        pairwise ``add`` — and avoids allocating one intermediate tuple per
        element even for plain scalar components.
        """
        batch = items if isinstance(items, list) else list(items)
        if not batch:
            return self._zero
        if len(batch) == 1:
            return batch[0]
        return tuple(
            r.sum(column) for r, column in zip(self.rings, zip(*batch))
        )

    def from_int(self, n: int) -> tuple:
        return tuple(r.from_int(n) for r in self.rings)

    def kernel_ops(self):
        ops = getattr(self, "_kernel_ops", None)
        if ops is None:
            component_ops = [r.kernel_ops() for r in self.rings]
            if any(comp is None for comp in component_ops):
                return None
            ops = ProductKernelOps(component_ops)
            self._kernel_ops = ops
        return ops
