"""Bit-size measures and magnitude bounds for search boxes.

The magnitude bounds are astronomically large powers of two; they are exact
big integers and only used when an instance does not declare a bounding box.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable

from .rational import Rat, denom, numer, size_of


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
    mats = list(matrices)
    vecs = list(vectors)
    for a, b in zip(mats, vecs):
        for row, rhs in zip(a, b + [Rat(0)] * (len(a) - len(b))):
            ell = lcm(*([denom(v) for v in row] + [denom(rhs)]))
            for v in row:
                total += size_of(Rat(numer(v) * (ell // denom(v))))
            total += size_of(Rat(numer(rhs) * (ell // denom(rhs))))
            dims += 1 + len(row)
    for s in scalars:
        ell = denom(s)
        total += size_of(Rat(numer(s)))
        total += size_of(Rat(ell))
    return max(1, total + dims)
