"""Bit-size measures and magnitude bounds for search boxes.

The magnitude bounds are astronomically large powers of two; they are exact
big integers and only used when an instance does not declare a bounding box.
"""

from __future__ import annotations

from typing import Iterable

from .linalg import integer_row
from .rational import Rat, size_of


def magnitude_bound(s: int) -> Rat:
    """2 ** (2**5 * s**2) as an exact rational: the coordinate bound of the
    feasibility argument for data of bit size s."""
    if s < 1:
        raise ValueError("size must be >= 1")
    return Rat(1 << (32 * s * s))


def scaled_integer_system_size(matrices: Iterable, vectors: Iterable, scalars: Iterable) -> int:
    """Bit size of the system after scaling all data to integers.

    Each matrix row is scaled by the lcm of its denominators together with
    the matching vector entry; scalars are scaled by their own denominators.
    The result is the total bit size of the integer data plus the dimensions.
    """
    total = 0
    dims = 0
    for a, b in zip(matrices, vectors):
        for row, rhs in zip(a, b + [Rat(0)] * (len(a) - len(b))):
            ints, _ = integer_row(list(row) + [rhs])
            total += sum(size_of(v) for v in ints)
            dims += 1 + len(row)
    for s in scalars:
        ints, ell = integer_row([s])
        total += size_of(ints[0]) + size_of(ell)
    return max(1, total + dims)
