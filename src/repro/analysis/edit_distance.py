"""Wagner-Fischer edit distance.

The paper (Section 5) scores transmissions with the edit distance between
the sent and received sequences because the channel exhibits three error
types — bit flips, bit insertions and bit losses — and plain Hamming
distance mis-scores the latter two catastrophically.
"""

from __future__ import annotations

from typing import Sequence


def edit_distance(source: Sequence[int], target: Sequence[int]) -> int:
    """Levenshtein distance via the Wagner-Fischer dynamic program.

    Runs in O(len(source) * len(target)) time and O(min) space.

    >>> edit_distance([1, 0, 1], [1, 1, 1])
    1
    >>> edit_distance([1, 0, 1, 0], [1, 0, 1])
    1
    """
    if len(source) < len(target):
        source, target = target, source
    if not target:
        return len(source)
    previous = list(range(len(target) + 1))
    for i, source_item in enumerate(source, start=1):
        current = [i] + [0] * len(target)
        for j, target_item in enumerate(target, start=1):
            substitution = previous[j - 1] + (source_item != target_item)
            insertion = current[j - 1] + 1
            deletion = previous[j] + 1
            current[j] = min(substitution, insertion, deletion)
        previous = current
    return previous[-1]

