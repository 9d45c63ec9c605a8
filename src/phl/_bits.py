"""Small helpers for index sets stored as integer bitmasks and relation rows."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def submasks(mask: int) -> Iterator[int]:
    """Yield every submask of mask in increasing numeric order."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def down_rows(up_rows: Sequence[int]) -> list[int]:
    """Transpose of a relation: bit i of row j set iff bit j of up_rows[i] is."""
    down = [0] * len(up_rows)
    for i, row in enumerate(up_rows):
        for j in bits(row):
            down[j] |= 1 << i
    return down


def heights(down: Sequence[int]) -> list[int]:
    """Length of the longest chain strictly below each element, from down-rows."""
    h = [0] * len(down)
    layer, alive = range(len(down)), (1 << len(down)) - 1
    while layer:
        # the next layer: elements with some element of this one strictly below
        layer = [i for i in layer if down[i] & alive & ~(1 << i)]
        alive = mask_of(layer)
        for i in layer:
            h[i] += 1
    return h
