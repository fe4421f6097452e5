"""Ring and semiring abstractions for view payloads.

F-IVM (Section 2 of the paper) models relations as functions from keys to
*payloads*, where payloads are elements of a ring ``(D, +, *, 0, 1)``.  The
maintenance machinery is generic in the ring: swapping the ring (and the
lifting functions) retargets the same view trees from COUNT/SUM queries to
gradient computation or factorized query evaluation.

Payload values themselves are plain Python objects (ints, floats, numpy-backed
triples, nested relations); a :class:`Ring` instance supplies the operations.
This keeps the common scalar path free of wrapper overhead.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable

__all__ = ["Ring", "RingElement", "check_ring_axioms"]

RingElement = Any


class Ring(ABC):
    """A ring ``(D, +, *, 0, 1)`` over payload values.

    Subclasses provide the two binary operations, the identities, and the
    additive inverse.  Semirings (no additive inverse) set
    ``has_additive_inverse = False`` and raise on :meth:`neg`; they support
    static evaluation but not deletions.
    """

    #: Human-readable name used in reprs and error messages.
    name: str = "ring"

    #: Whether :meth:`neg` is available (required for deletions / IVM).
    has_additive_inverse: bool = True

    #: Whether ``a * b == b * a`` holds; matrix rings are non-commutative.
    is_commutative: bool = True

    @property
    @abstractmethod
    def zero(self) -> RingElement:
        """The additive identity ``0``."""

    @property
    @abstractmethod
    def one(self) -> RingElement:
        """The multiplicative identity ``1``."""

    @abstractmethod
    def add(self, a: RingElement, b: RingElement) -> RingElement:
        """Return ``a + b``."""

    @abstractmethod
    def mul(self, a: RingElement, b: RingElement) -> RingElement:
        """Return ``a * b``."""

    def neg(self, a: RingElement) -> RingElement:
        """Return the additive inverse ``-a``."""
        raise NotImplementedError(f"{self.name} has no additive inverse")

    def sub(self, a: RingElement, b: RingElement) -> RingElement:
        """Return ``a - b`` (``a + (-b)``)."""
        return self.add(a, self.neg(b))

    def eq(self, a: RingElement, b: RingElement) -> bool:
        """Ring-aware equality (overridden for float-backed rings)."""
        return a == b

    def is_zero(self, a: RingElement) -> bool:
        """Whether ``a`` equals the additive identity.

        Relations eagerly drop keys whose payload is zero, so this test
        defines relation membership (``t in R`` iff ``R[t] != 0``).
        """
        return self.eq(a, self.zero)

    def is_one(self, a: RingElement) -> bool:
        """Whether ``a`` equals the multiplicative identity."""
        return self.eq(a, self.one)

    def sum(self, items: Iterable[RingElement]) -> RingElement:
        """Sum an iterable of ring values (``0`` for the empty iterable)."""
        total = self.zero
        for item in items:
            total = self.add(total, item)
        return total

    def product(self, items: Iterable[RingElement]) -> RingElement:
        """Multiply an iterable of ring values (``1`` for the empty one)."""
        result = self.one
        for item in items:
            result = self.mul(result, item)
        return result

    def from_int(self, n: int) -> RingElement:
        """Embed the integer ``n`` as ``n * 1`` (the canonical ℤ image).

        Used to turn tuple multiplicities (inserts ``+1`` / deletes ``-1``)
        into payloads of the target ring.
        """
        if n == 0:
            return self.zero
        if n < 0:
            return self.neg(self.from_int(-n))
        result = self.zero
        for _ in range(n):
            result = self.add(result, self.one)
        return result

    def scale(self, n: int, a: RingElement) -> RingElement:
        """Return ``a`` added to itself ``n`` times (``n`` may be negative)."""
        return self.mul(self.from_int(n), a)

    def kernel_ops(self):
        """Array-execution hooks for the array form of the triggers
        (:mod:`repro.core.kernels`) and the columnar relation store.

        Rings that can pack payload columns into arrays return an object
        with the packed-column protocol shared by
        :mod:`repro.core.kernels` and :mod:`repro.data.columnar`:

        * ``pack(column, n)`` / ``unpack(packed)`` — payload list ↔
          packed column (``pack`` may return ``None`` for layout-mixed
          columns, e.g. cofactor columns with differing supports, which
          sends that batch down the scalar fallback);
        * ``payload_layout(payload)`` — the hashable layout key a payload
          packs under (used to group a mixed column into packable runs);
        * ``add_packed(a, b)`` / ``neg_packed(a)`` — vectorized ring
          addition on packed columns;
        * ``reduce(packed, group_ids, n_groups)`` — the grouped
          ``Ring.sum`` fold (group ids assigned first-seen);
        * ``zero_mask(packed)`` — per-row ``is_zero`` as one bool array
          (tolerance-aware for float-backed rings);
        * ``vectorizes_triggers`` — whether running a trigger over packed
          columns beats the ring's scalar arithmetic on large deltas.
          True where one scalar product is itself array work (cofactor,
          degree); false for machine scalars and tuples of them, whose
          Python arithmetic is a single operation per row (measured
          0.4–0.8× the scalar triggers at 8 to 5000 rows), so those
          rings' triggers always run scalar — and ℤ stays unbounded
          Python ints, never int64.  Hooks that say true also provide
          the packed product ``mul_packed(a, b, n)``, which only the
          array triggers call;
        * store hooks ``alloc(cap, layout)`` / ``grow(block, used,
          cap)`` / ``take(block, rows)`` / ``put`` / ``add_at`` /
          ``zero_rows`` — preallocated payload blocks with in-place row
          writes and duplicate-safe scatter-adds, the backing storage of
          :class:`repro.data.columnar.ColumnarRelation`.

        All of it is semantically equal to the scalar ``mul``/``sum``
        fold.  ``None`` (the default) means triggers over this ring only
        run in scalar form and columnar relations keep payloads as an
        object column.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


def check_ring_axioms(ring: Ring, elements: list) -> None:
    """Assert the ring axioms of Definition A.1 on the given sample values.

    Raises ``AssertionError`` naming the violated axiom.  Used by the test
    suite (including hypothesis-generated samples) for every concrete ring.
    """
    zero, one = ring.zero, ring.one
    for a in elements:
        assert ring.eq(ring.add(zero, a), a), "0 + a != a"
        assert ring.eq(ring.add(a, zero), a), "a + 0 != a"
        assert ring.eq(ring.mul(one, a), a), "1 * a != a"
        assert ring.eq(ring.mul(a, one), a), "a * 1 != a"
        if ring.has_additive_inverse:
            assert ring.is_zero(ring.add(a, ring.neg(a))), "a + (-a) != 0"
            assert ring.is_zero(ring.add(ring.neg(a), a)), "(-a) + a != 0"
    for a in elements:
        for b in elements:
            assert ring.eq(ring.add(a, b), ring.add(b, a)), "a + b != b + a"
            if ring.is_commutative:
                assert ring.eq(ring.mul(a, b), ring.mul(b, a)), "a*b != b*a"
    for a in elements:
        for b in elements:
            for c in elements:
                assert ring.eq(
                    ring.add(ring.add(a, b), c), ring.add(a, ring.add(b, c))
                ), "(a+b)+c != a+(b+c)"
                assert ring.eq(
                    ring.mul(ring.mul(a, b), c), ring.mul(a, ring.mul(b, c))
                ), "(a*b)*c != a*(b*c)"
                assert ring.eq(
                    ring.mul(a, ring.add(b, c)),
                    ring.add(ring.mul(a, b), ring.mul(a, c)),
                ), "a*(b+c) != a*b + a*c"
                assert ring.eq(
                    ring.mul(ring.add(a, b), c),
                    ring.add(ring.mul(a, c), ring.mul(b, c)),
                ), "(a+b)*c != a*c + b*c"
