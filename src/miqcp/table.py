"""One table per `optimize` call: the results that do not depend on eta.

`optimize` runs the feasibility recursion on many level sets {q <= eta} of
one instance.  The reduction of a polyhedron and the minimum of q over it do
not depend on eta, so every probe after the first would compute them again.
`optimize` runs under `per_solve`, which opens a table and drops it when the
call returns or raises; it is the only caller that opens one.  A lone
`feasibility` or `boundedness` call runs one recursion, which repeats none
of these, so it keeps nothing, nor does any other code outside `optimize`.

The table holds three kinds of result, each keyed by content: a
polyhedron's `polyhedra.integer_system` (rows and their scales) with p and
n (`polyhedra.content_key`), and an objective's `integer_form`
(`qp.objective_key`) or a declared box where one is involved.

- `polyhedra.fulldim_reduce_polyhedron`'s (tau, reduced polyhedron) or
  Empty, looked up in `cqs._reduce_step`; a hit hands back the same
  reduced object, with the probe, phase-1 start and integer rows it keeps,
  so a repeated polyhedron is answered before its full-dimensionality
  probe is asked for (the probe is kept per object only,
  `polyhedra._fulldim_probe`);
- the start-less minimum of q over P in `cqs._split_level`;
- P cut by a declared box, duplicate rows merged (`solver._boxed`), keyed
  by P and the box's lo and hi: the MILP check and every level-set probe
  of `optimize` run on one boxed object, with its kept probe and phase-1
  start.

Each is a deterministic function of its key and nothing writes to a kept
result, so a hit returns what a miss would compute: answers, traces and
the recursion are those of a solve without the table.  A miss calls the
computing function through its module attribute (`fulldim_reduce_polyhedron`,
`qp_min`, ...), so a wrapper installed there counts every computation.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Hashable, Optional, TypeVar

T = TypeVar("T")

_TABLE: ContextVar[Optional[dict]] = ContextVar("miqcp_solve_table", default=None)
_MISSING = object()


@contextmanager
def open_table():
    """A new table for the duration of the block."""
    token = _TABLE.set({})
    try:
        yield
    finally:
        _TABLE.reset(token)


def per_solve(fn: Callable[..., T]) -> Callable[..., T]:
    """fn run inside `open_table`."""

    @functools.wraps(fn)
    def solve(*args, **kwargs):
        with open_table():
            return fn(*args, **kwargs)

    return solve


def remember(key: Callable[[], Hashable], compute: Callable[[], T]) -> T:
    """compute(), kept in the open table under key(); without a table,
    compute() every time and key() never."""
    table = _TABLE.get()
    if table is None:
        return compute()
    k = key()
    out = table.get(k, _MISSING)
    if out is _MISSING:
        out = table[k] = compute()
    return out
