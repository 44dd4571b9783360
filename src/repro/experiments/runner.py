"""Monte-Carlo repetition harness.

The paper measures on production systems where "the variance in
execution time ... can be high" and aims for accuracy *on average*.
The reproduction's analogue: every contended measurement is repeated
with independent random streams and averaged. :class:`Replication`
summarizes one such batch; the replication loop itself lives behind
:func:`repro.experiments.simulate.simulate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..obs import context as _obs
from ..parallel import Quarantined
from ..reliability.degrade import Confidence
from ..reliability.retry import retry_with_backoff
from ..sim.rng import RandomStreams

__all__ = ["Replication"]

#: Salt applied per retry attempt when re-forking a replication's
#: streams — a fixed prime so retried runs are reproducible yet
#: decorrelated from the failed attempt.
_RETRY_SALT = 7919


@dataclass(frozen=True)
class Replication:
    """Summary of repeated measurements of one scalar quantity.

    ``values`` holds the replications that actually produced a number.
    When containment quarantined some replications (worker crash,
    deadline — see :mod:`repro.parallel.containment`), the sentinels
    land in ``quarantined`` and :attr:`confidence` degrades instead of
    the sweep aborting.
    """

    values: tuple[float, ...]
    quarantined: tuple[Quarantined, ...] = field(default=())

    @property
    def confidence(self) -> Confidence:
        """How much measured data backs this summary.

        ``CALIBRATED`` when every replication produced a value,
        ``EXTRAPOLATED`` when some were quarantined (the mean stands on
        fewer measurements than requested), ``ANALYTIC`` when *all*
        were quarantined — there is no data, only model fallback.
        """
        if not self.quarantined:
            return Confidence.CALIBRATED
        if self.values:
            return Confidence.EXTRAPOLATED
        return Confidence.ANALYTIC

    @property
    def mean(self) -> float:
        return float(np.mean(self.values)) if self.values else float("nan")

    @property
    def std(self) -> float:
        return float(np.std(self.values, ddof=1)) if len(self.values) > 1 else 0.0

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def cv(self) -> float:
        """Coefficient of variation (std/mean).

        A zero mean with nonzero dispersion has *infinite* relative
        variation, so that case reports ``float("inf")`` rather than
        pretending to be noiseless; only a genuinely degenerate sample
        (zero mean **and** zero spread) reports 0.0. An empty sample
        (everything quarantined) reports NaN, like the mean.
        """
        if not self.values:
            return float("nan")
        m = self.mean
        if m:
            return self.std / m
        return float("inf") if self.std else 0.0

    def ci95(self) -> tuple[float, float]:
        """95 % t-confidence interval for the mean.

        Degenerates to ``(mean, mean)`` for a single repetition — no
        dispersion information, not a claim of certainty.
        """
        if self.n < 2:
            return (self.mean, self.mean)
        from scipy import stats

        half = stats.t.ppf(0.975, df=self.n - 1) * self.std / np.sqrt(self.n)
        return (self.mean - half, self.mean + half)

    def within(self, value: float) -> bool:
        """Is *value* inside the 95 % confidence interval?"""
        lo, hi = self.ci95()
        return lo <= value <= hi


@dataclass(frozen=True)
class _ReplicationTask:
    """One replication as a picklable callable: ``task(k) -> value``.

    Frozen dataclasses of picklable fields cross the process-pool
    boundary intact (closures would not), and replication *k* derives
    its streams purely from ``(seed, k)`` — which is why running it in
    a worker process yields the exact value the serial loop computes.
    """

    measure: Callable[[RandomStreams], float]
    seed: int
    retry_attempts: int
    retry_on: type[BaseException] | tuple[type[BaseException], ...]

    def __call__(self, k: int) -> float:
        with _obs.span("experiment.replication", kind="experiment", replication=k) as sp:
            value = self._one(k)
            sp.set("value", value)
        _obs.inc("experiment.replications")
        return value

    def _one(self, k: int) -> float:
        base = RandomStreams(self.seed)
        attempt = 0

        def run() -> float:
            nonlocal attempt
            streams = base.fork(k + _RETRY_SALT * attempt)
            attempt += 1
            return self.measure(streams)

        if self.retry_attempts <= 1:
            return run()
        return retry_with_backoff(
            run, attempts=self.retry_attempts, retry_on=self.retry_on, seed=self.seed
        )
