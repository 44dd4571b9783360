"""Shared result types of the benchmark.

The metric catalogue lives in ``BENCHMARK.json`` at the repository
root: every workload prints every ``end_to_end`` metric with
``--trace 0`` and every ``per_layer`` metric with ``--trace 1`` (zero
where a layer does not run on that workload).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any


def nearest_rank(ordered: list, q: float) -> float:
    """The nearest-rank *q* quantile of an ascending list (0 if empty)."""
    if not ordered:
        return 0.0
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


@dataclass
class Phase:
    """Operations sent, succeeded and failed in one phase of a run."""

    name: str
    sent: int = 0
    succeeded: int = 0
    failed: int = 0

    def record(self, ok: bool) -> None:
        self.sent += 1
        if ok:
            self.succeeded += 1
        else:
            self.failed += 1

    def add(self, sent: int, failed: int) -> None:
        self.sent += sent
        self.succeeded += sent - failed
        self.failed += failed


@dataclass
class Run:
    """Everything one workload run measured and checked."""

    workload: str
    #: Seconds of each setup repetition; ``setup_s`` is their median.
    setup_s: list[float] = field(default_factory=list)
    #: Per repetition, the seconds of each setup part.
    setup_parts: list[dict[str, float]] = field(default_factory=list)
    phases: list[Phase] = field(default_factory=list)
    #: End-to-end metrics other than ``setup_s``/``rss_mb``: ``name -> (value, unit)``.
    e2e: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: The workload's own named metrics, printed beside the result.
    detail: dict[str, tuple[float, str]] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: Per-layer values measured by the benchmark loop rather than by spans.
    layer_extra: dict[str, float] = field(default_factory=dict)
    #: Traced runs: the recorder and the span ranges of each phase.
    trace: dict[str, Any] | None = None
    ops_per_s: float = 0.0
    workers: int = 0
    rss_mb: float = 0.0
