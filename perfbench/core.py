"""What the workloads share: a problem and the error a check raises."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


class CheckError(AssertionError):
    """A program output that the benchmark's own check refuses."""


def expect(cond, message):
    if not cond:
        raise CheckError(message)


def never_failed(out):
    return False


@dataclass
class Problem:
    """One timed operation.

    ``run`` calls the library and returns its raw output (the only timed
    part); ``plain`` turns that output into plain Python data, ``verify``
    raises CheckError unless that data is right, and ``failed`` says whether
    the operation failed (a failed operation is counted, not checked).
    """

    name: str
    kind: str
    run: Callable[[], Any]
    plain: Callable[[Any], Any]
    verify: Callable[[Any], None]
    failed: Callable[[Any], bool] = never_failed
    data: Any = None  # the generated input, for the self-test
