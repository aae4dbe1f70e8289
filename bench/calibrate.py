"""A fixed reference computation that measures how fast the machine is
running right now.

On a shared virtual machine the speed of the same Python code drifts by
a factor of up to two within minutes, because other tenants load the
host.  The benchmark therefore times this reference before and after
every job and every set-up, and reports times in *reference seconds*:
the raw time scaled by ``NOMINAL_S`` over the mean of the two reference
times around it.  The reference does not use lttight, so a change to the
library moves the job times and not the reference.  It imitates the library's kind of work: frozen dataclass
trees walked recursively with ``isinstance`` dispatch, tuple and set
construction, dict lookups.

Never change this file: every reference-second figure depends on it.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter

# Time of one _work() on the machine the benchmark was defined on
# (Intel Xeon at 2.1 GHz under KVM, 2 vCPUs, CPython 3.11.7), in its
# fast state.
NOMINAL_S = 0.0125


@dataclass(frozen=True)
class _Leaf:
    index: int


@dataclass(frozen=True)
class _Node:
    conjunctive: bool
    items: tuple


def _build(depth: int, index: int):
    if depth == 0:
        return _Leaf(index % 11)
    return _Node(depth % 2 == 0, (_build(depth - 1, 2 * index),
                                  _build(depth - 1, 2 * index + 1)))


def _holds(node, true: frozenset) -> bool:
    if isinstance(node, _Leaf):
        return node.index in true
    if node.conjunctive:
        return all(_holds(x, true) for x in node.items)
    return any(_holds(x, true) for x in node.items)


def _work() -> int:
    tree = _build(11, 1)
    hits = 0
    for mask in range(64):
        true = frozenset(i for i in range(11) if mask * 37 >> i & 1)
        hits += _holds(tree, true)
    table = {}
    for i in range(20000):
        table[(i % 31, i % 17)] = table.get((i % 31, i % 17), 0) + i
    return hits + len(table)


def reference() -> float:
    """Seconds the reference computation takes now: the median of three
    timings.  The collector is paused so that garbage left by a job is
    not billed to the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = perf_counter()
            _work()
            times.append(perf_counter() - start)
        return sorted(times)[1]
    finally:
        if enabled:
            gc.enable()
