"""Scrambling (§6.2, Algorithm 5).

Scrambling shuffles the chunk order *within each segment* before the chunks
are encrypted and uploaded, so the adversary's view of neighbor
co-occurrence no longer reflects plaintext chunk locality — the signal the
locality-based attack feeds on. File recipes keep the original order, so
restores are unaffected, and because reordering happens within segments
(smaller than storage containers), the on-disk chunk layout barely changes.

The paper's algorithm builds the scrambled segment by appending each chunk
to either the front or the back of a deque by a random bit. We implement
that exactly, plus a Fisher–Yates full shuffle as an ablation alternative
(compared in ``tests/experiments/test_ablations.py``).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Sequence, TypeVar

from repro.common.errors import ConfigurationError
from repro.datasets.model import Backup
from repro.defenses.segmentation import Segment

T = TypeVar("T")

DEQUE = "deque"
FISHER_YATES = "fisher-yates"
_MODES = (DEQUE, FISHER_YATES)


def check_scramble_mode(mode: str) -> None:
    """Reject an unknown scramble mode when a pipeline is configured,
    not inside its first segmented backup."""
    if mode not in _MODES:
        raise ConfigurationError(
            f"unknown scramble mode {mode!r}; use one of {_MODES}"
        )


def scramble_indices(
    length: int, rng: random.Random, mode: str = DEQUE
) -> list[int]:
    """Return a scrambled permutation of ``range(length)``.

    ``deque`` is the paper's Algorithm 5: each element goes to the front of
    the output when the random draw is odd, else to the back.
    ``fisher-yates`` is a uniform random permutation (ablation).
    """
    if mode == DEQUE:
        output: deque[int] = deque()
        for index in range(length):
            if rng.getrandbits(1):
                output.appendleft(index)
            else:
                output.append(index)
        return list(output)
    check_scramble_mode(mode)
    order = list(range(length))
    rng.shuffle(order)
    return order


def scramble_segmented(
    items: Sequence[T],
    segments: Sequence[Segment],
    rng: random.Random,
    mode: str = DEQUE,
) -> list[T]:
    """Scramble ``items`` independently within each segment.

    ``segments`` must tile ``items`` exactly (contiguous, in order); the
    result preserves the multiset of each segment and the segment order.
    """
    expected = 0
    output: list[T] = []
    for segment in segments:
        if segment.start != expected:
            raise ConfigurationError("segments must tile the stream contiguously")
        expected = segment.end
        order = scramble_indices(len(segment), rng, mode)
        output.extend(items[segment.start + offset] for offset in order)
    if expected != len(items):
        raise ConfigurationError("segments do not cover the whole stream")
    return output


def scramble_backup(
    backup: Backup,
    segments: Sequence[Segment],
    rng: random.Random,
    mode: str = DEQUE,
) -> Backup:
    """Return a new backup with each segment's chunk order scrambled."""
    order: list[int] = []
    expected = 0
    for segment in segments:
        if segment.start != expected:
            raise ConfigurationError("segments must tile the stream contiguously")
        expected = segment.end
        permutation = scramble_indices(len(segment), rng, mode)
        order.extend(segment.start + offset for offset in permutation)
    if expected != len(backup):
        raise ConfigurationError("segments do not cover the whole stream")
    return Backup(
        label=backup.label,
        fingerprints=[backup.fingerprints[i] for i in order],
        sizes=[backup.sizes[i] for i in order],
    )
