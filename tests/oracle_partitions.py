"""Test-side references for partitions, built without the package.

`oracle_partitions` is the recursive generator the character registry
once used, kept as the reference for the order of its labels and as
the brute force the registry sizes are counted against.
`partition_numbers` counts p(0), ..., p(n) by Euler's pentagonal
number recurrence, a different method from the package's one-part-size-
at-a-time count, so the closed-form counts can be checked at ranks no
enumeration reaches.
"""

from __future__ import annotations


def oracle_partitions(n: int, max_part: int | None = None):
    """The partitions of n with parts at most max_part, largest part
    first, in descending lex order."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, 0, -1):
        for rest in oracle_partitions(n - first, first):
            yield (first,) + rest


def partition_numbers(n: int) -> list[int]:
    """p(0), ..., p(n) from p(m) = sum over k >= 1 of
    (-1)^(k+1) (p(m - k(3k-1)/2) + p(m - k(3k+1)/2))."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k, total = 1, 0
        while (low := k * (3 * k - 1) // 2) <= m:
            sign = 1 if k % 2 else -1
            total += sign * p[m - low]
            if (high := low + k) <= m:
                total += sign * p[m - high]
            k += 1
        p[m] = total
    return p
