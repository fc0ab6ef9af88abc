"""Allocation accounting for the streaming kernels.

The edge path promises to stay within O(d*(r + b)) auxiliary memory without
DP and O(d*(b + c)) with DP. Kernels report the shapes of the work buffers
they materialize through :func:`note`; a test harness wraps a run in
:func:`track` and inspects the recorded sizes afterwards. When no tracker
is active, :func:`note` is a cheap no-op.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class AllocationTracker:
    """Records element counts of work buffers reported by kernels."""

    max_elements: int = 0
    by_label: dict[str, int] = field(default_factory=dict)
    total_events: int = 0

    def note(self, label: str, shape) -> None:
        elements = 1
        for dim in shape:
            elements *= int(dim)
        self.total_events += 1
        prev = self.by_label.get(label, 0)
        if elements > prev:
            self.by_label[label] = elements
        self.max_elements = max(self.max_elements, elements)


_active: list[AllocationTracker] = []


def note(label: str, shape) -> None:
    """Report a freshly materialized buffer of the given shape."""
    if _active:
        for tracker in _active:
            tracker.note(label, shape)


@contextmanager
def track():
    """Context manager yielding an AllocationTracker capturing kernel buffers."""
    tracker = AllocationTracker()
    _active.append(tracker)
    try:
        yield tracker
    finally:
        _active.remove(tracker)
