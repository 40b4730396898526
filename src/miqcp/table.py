"""One table per top-level solve: the results that do not depend on eta.

`optimize` runs the feasibility recursion on many level sets {q <= eta} of
one instance.  The reduction of a polyhedron and the minimum of q over it do
not depend on eta, so every probe after the first would compute them again.
`optimize`, `feasibility` and `boundedness` run under `per_solve`: the
outermost of them opens a table, a nested one shares it, and the table is
dropped when that call returns or raises.  Outside a solve nothing is kept.

The table holds four kinds of result, each keyed by content: a
polyhedron's `polyhedra.integer_system` (rows and their scales) with p and
n (`polyhedra.content_key`), and an objective's `integer_form`
(`qp.objective_key`) and a declared box where one is involved; or an
equality system's matrix, scaled to ints, with p
(`diophantine._family_key`).

- `polyhedra.fulldim_reduce_polyhedron`, (tau, reduced polyhedron) or
  Empty; a hit hands back the same reduced object, with the probe,
  phase-1 start and integer rows it keeps, so a repeated polyhedron is
  answered before its full-dimensionality probe is asked for (the probe
  is kept per object only, `polyhedra._fulldim_probe`);
- the start-less minimum of q over P in `cqs._split_level`;
- the rhs-free part of `diophantine.parametrize_mixed_integer_solutions`
  (its g-inverses, projector and M, `diophantine._param_family`), keyed by
  W and p: the bands of a thin node differ only in the right-hand side,
  so they share one, and so do equal nodes of later probes;
- P cut by a declared box, duplicate rows merged (`solver._boxed`), keyed
  by P and the box's lo and hi: the MILP check and every level-set probe
  of `optimize` run on one boxed object, with its kept probe and phase-1
  start.

Each is a deterministic function of its key and nothing writes to a kept
result, so a hit returns what a miss would compute: answers, traces and
the recursion are those of a solve without the table.  A miss calls the
same module attribute as before (`_reduce_polyhedron`, `qp_min`, ...).
A shared family hands its M to every parametrization it makes; nothing
writes to an `AffineParam`'s M.
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
    """A table for the duration of the block, unless one is open already."""
    if _TABLE.get() is not None:
        yield
        return
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
