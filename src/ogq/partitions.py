"""Strict partitions with parts bounded by m, the Schubert index set of OG.

A strict partition with distinct parts in {1..m} is stored as a tuple of
decreasing positive integers; the empty tuple is the empty partition.  There
are exactly 2^m of them, one per subset of {1..m}, and the Poincare dual of a
class indexed by lambda is indexed by the complement of its part set.
"""

from __future__ import annotations

import itertools


Partition = tuple[int, ...]


class InvalidInput(ValueError):
    """The caller's input is malformed or out of range: the base of every
    input error, and the one type the command line reports as bad input."""


class InvalidPartitionError(InvalidInput):
    """Raised for a tuple that is not a strict partition inside {1..m}."""


def is_valid(parts: Partition, m: int) -> bool:
    """True when parts are ints, strictly decreasing and contained in {1..m}."""
    previous = m + 1
    for p in parts:
        if not isinstance(p, int) or not 0 < p < previous:
            return False
        previous = p
    return True


def validate(parts, m: int) -> Partition:
    parts = tuple(parts)
    if not is_valid(parts, m):
        raise InvalidPartitionError(f"{parts} is not a strict partition with parts <= {m}")
    return parts


def weight(parts: Partition) -> int:
    return sum(parts)


def rho(k: int) -> Partition:
    """The staircase (k, k-1, ..., 1); rho(0) is empty.

    >>> rho(3)
    (3, 2, 1)
    """
    return tuple(range(k, 0, -1))


def dual(parts: Partition, m: int) -> Partition:
    """Complement of the part set inside {1..m}, the Poincare-dual index.

    >>> dual((2,), 2)
    (1,)
    >>> dual((), 3)
    (3, 2, 1)
    """
    parts = validate(parts, m)
    missing = set(range(1, m + 1)) - set(parts)
    return tuple(sorted(missing, reverse=True))


def all_strict(m: int) -> list[Partition]:
    """All 2^m strict partitions with parts <= m, in lexicographic order.

    >>> all_strict(2)
    [(), (1,), (2,), (2, 1)]
    """
    if m < 0:
        raise InvalidInput("m must be nonnegative")
    out = []
    for r in range(m + 1):
        for combo in itertools.combinations(range(m, 0, -1), r):
            out.append(combo)
    out.sort()
    return out


def parse_partition(text: str) -> Partition:
    """Parse "3,1" style input; "" and "0" both denote the empty partition."""
    text = text.strip()
    if text in ("", "0"):
        return ()
    try:
        parts = tuple(int(tok.strip()) for tok in text.split(","))
    except ValueError as exc:
        raise InvalidPartitionError(f"cannot parse partition from {text!r}") from exc
    if any(p < 1 for p in parts) or any(a <= b for a, b in zip(parts, parts[1:])):
        raise InvalidPartitionError(f"{text!r} is not a strictly decreasing list of positive parts")
    return parts


def format_partition(parts: Partition) -> str:
    return ",".join(str(p) for p in parts)
