"""Seeded inputs for the benchmark workloads.

Every workload cycles through a fixed pool of objects in a seeded order.
Sizes are log-uniform, drawn one per stratum of the log range (a jittered
grid), so every seed covers the whole range with the same shape: two
seeds differ in contents, order and exact sizes, but not in the size or
kind distribution the latency percentiles depend on.  A run stops only at
a cycle boundary, so every count metric is an exact per-cycle ratio.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KiB = 1024
MiB = 1024 * KiB

#: The serializer's compact-frame threshold; every ``task_small`` object
#: and every inlined stream item must serialize to at most this.
SMALL_FRAME_BYTES = 16 * KiB

#: Kinds of small object: task arguments and stream items of every sort.
SMALL_KINDS = ('bytes', 'str', 'dict', 'f64', 'u8')

#: Share of a stratum's width the size may move off its midpoint.
_JITTER = 0.2


@dataclass(frozen=True)
class Item:
    """One pooled input: the object and the payload bytes it carries."""

    obj: object
    nbytes: int


@dataclass(frozen=True)
class Inputs:
    """A workload's object pool and the order one cycle visits it in."""

    items: tuple[Item, ...]
    order: tuple[int, ...]

    def cycle(self):
        """Yield the pooled items of one cycle, in order."""
        for index in self.order:
            yield self.items[index]


def _sizes(rng: np.random.Generator, count: int, lo: int, hi: int) -> list[int]:
    edges = np.linspace(np.log(lo), np.log(hi), count + 1)
    width = edges[1:] - edges[:-1]
    offset = 0.5 + _JITTER * (rng.random(count) - 0.5)
    return [int(s) for s in np.exp(edges[:-1] + offset * width)]


def _small_object(rng: np.random.Generator, kind: str, nbytes: int) -> object:
    if kind == 'bytes':
        return rng.bytes(nbytes)
    if kind == 'str':
        return rng.integers(97, 123, nbytes, dtype=np.uint8).tobytes().decode('ascii')
    if kind == 'dict':
        return {
            'id': int(rng.integers(1 << 30)),
            'name': f'task-{int(rng.integers(1 << 20))}',
            'weights': rng.random(max(1, nbytes // 32)).tolist(),
            'blob': rng.bytes(nbytes // 2),
        }
    dtype = np.float64 if kind == 'f64' else np.uint8
    return _array(rng, dtype, nbytes)


def _array(rng: np.random.Generator, dtype: type, nbytes: int) -> np.ndarray:
    count = max(1, nbytes // np.dtype(dtype).itemsize)
    if dtype is np.uint8:
        return rng.integers(0, 256, count, dtype=np.uint8)
    if dtype is np.float32:
        return rng.random(count, dtype=np.float32)
    return rng.random(count)


def _small_items(rng: np.random.Generator, strata: int, lo: int, hi: int) -> list[Item]:
    """One object of each kind per size stratum.

    The costliest objects are then always the top stratum's, one of each
    kind, so the latency tail does not depend on which kind the seed
    happened to give the largest sizes.
    """
    return [
        Item(_small_object(rng, kind, n), n)
        for n in _sizes(rng, strata, lo, hi)
        for kind in SMALL_KINDS
    ]


def _large_items(rng: np.random.Generator, count: int, lo: int, hi: int) -> list[Item]:
    """Arrays alternating uint8 and float32 by size rank.

    A fixed dtype per rank keeps the largest array's dtype, and with it the
    peak memory of the run, the same for every seed.
    """
    arrays = [
        _array(rng, (np.uint8, np.float32)[rank % 2], n)
        for rank, n in enumerate(_sizes(rng, count, lo, hi))
    ]
    return [Item(a, a.nbytes) for a in arrays]


def make_inputs(workload: str, seed: int, *, tiny: bool = False) -> Inputs:
    """Build ``workload``'s object pool and cycle order from ``seed``.

    ``tiny`` shrinks the pool and the large sizes (still above the
    compact-frame threshold) for the self-tests.
    """
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    if workload == 'task_small':
        items = _small_items(rng, 3 if tiny else 51, 64, 15 * KiB)
    elif workload == 'task_large':
        hi = 1 * MiB if tiny else 32 * MiB
        items = _large_items(rng, 3 if tiny else 9, hi // 32, hi)
    elif workload == 'stream_mixed':
        return _stream_inputs(rng, tiny)
    else:
        raise ValueError(f'unknown workload {workload!r}')
    order = tuple(int(i) for i in rng.permutation(len(items)))
    return Inputs(tuple(items), order)


def _stream_inputs(rng: np.random.Generator, tiny: bool) -> Inputs:
    """Four small items to one large, the large one in every fifth slot.

    A fixed slot pattern keeps the queueing among the items in flight the
    same for every seed; the seed picks sizes, kinds, contents and which
    item takes which slot of its class.
    """
    strata, large = (4, 5) if tiny else (8, 10)
    hi = 512 * KiB if tiny else 4 * MiB
    items = _small_items(rng, strata, 256, 4 * KiB) + _large_items(rng, large, hi // 16, hi)
    small = len(items) - large
    smalls = iter(rng.permutation(small))
    larges = iter(small + rng.permutation(large))
    order = tuple(
        int(next(larges) if slot % 5 == 4 else next(smalls))
        for slot in range(small + large)
    )
    return Inputs(tuple(items), order)


def same(got: object, want: object) -> bool:
    """Whether a resolved object equals its source, type and dtype included."""
    if isinstance(want, np.ndarray):
        return (
            isinstance(got, np.ndarray)
            and got.dtype == want.dtype
            and got.shape == want.shape
            and bool(np.array_equal(got, want))
        )
    return type(got) is type(want) and got == want
