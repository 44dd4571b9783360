"""Contention-aware task-to-machine mapping.

The paper motivates the contention model with a scheduling example
(Tables 1–4): an application of coarse-grained tasks executing in
sequence, with a data transfer whenever consecutive tasks sit on
different machines. The best mapping flips as contention changes the
effective cost matrices.

This module provides that example's machinery in general form:

* :class:`MappingProblem` — non-dedicated execution-time and
  communication-time matrices for *k* tasks over *m* machines,
  with helpers that apply slowdown factors to dedicated matrices
  (producing exactly the paper's Tables 3/4 from Tables 1/2);
* :func:`evaluate_mapping` — elapsed time of one assignment under the
  paper's serial-chain execution model;
* :func:`best_mapping` — exhaustive search (machines^tasks candidates;
  the paper targets "a few coarse-grained tasks", so exhaustive
  enumeration is the honest algorithm) with an optional
  branch-and-bound cutoff for larger instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..errors import ScheduleError
from ..obs import context as _obs
from ..reliability.degrade import Confidence, TaggedSlowdown, combine_confidence

__all__ = [
    "MappingProblem",
    "MappingResult",
    "ConfidentMapping",
    "evaluate_mapping",
    "best_mapping",
    "rank_mappings",
]


@dataclass(frozen=True)
class MappingProblem:
    """A serial-chain mapping instance.

    Attributes
    ----------
    tasks:
        Task names, in execution (chain) order.
    machines:
        Machine names.
    exec_time:
        ``exec_time[task][machine]`` — predicted (already
        contention-adjusted) elapsed time of *task* on *machine*.
    comm_time:
        ``comm_time[(src_machine, dst_machine)]`` — predicted transfer
        time of the chain's data when consecutive tasks sit on
        ``src_machine`` then ``dst_machine``. Pairs with equal
        endpoints are free (same machine ⇒ no transfer); missing
        cross pairs are an error at evaluation time.
    """

    tasks: tuple[str, ...]
    machines: tuple[str, ...]
    exec_time: Mapping[str, Mapping[str, float]]
    comm_time: Mapping[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ScheduleError("a mapping problem needs at least one task")
        if not self.machines:
            raise ScheduleError("a mapping problem needs at least one machine")
        for task in self.tasks:
            row = self.exec_time.get(task)
            if row is None:
                raise ScheduleError(f"no execution times given for task {task!r}")
            for machine in self.machines:
                if machine not in row:
                    raise ScheduleError(
                        f"no execution time for task {task!r} on machine {machine!r}"
                    )
                if row[machine] < 0:
                    raise ScheduleError(
                        f"negative execution time for {task!r} on {machine!r}"
                    )

    def transfer(self, src: str, dst: str) -> float:
        """Transfer cost between consecutive tasks on *src* → *dst*."""
        if src == dst:
            return 0.0
        try:
            cost = self.comm_time[(src, dst)]
        except KeyError:
            raise ScheduleError(f"no communication time for machine pair {(src, dst)!r}") from None
        if cost < 0:
            raise ScheduleError(f"negative communication time for {(src, dst)!r}")
        return cost

    def with_slowdowns(
        self,
        comp_slowdown: Mapping[str, float],
        comm_slowdown: Mapping[tuple[str, str], float] | float = 1.0,
    ) -> "MappingProblem":
        """Apply per-machine / per-link slowdown factors.

        This is precisely how the paper derives Tables 3–4 from
        Tables 1–2: multiply M1's column by 3 (Table 3), and also the
        M1↔M2 transfer times by 3 (Table 4).

        Parameters
        ----------
        comp_slowdown:
            Factor per machine (machines not listed keep factor 1).
        comm_slowdown:
            Either one factor for every machine pair, or a mapping per
            ordered pair (pairs not listed keep factor 1).
        """
        for machine, factor in comp_slowdown.items():
            if factor < 1.0:
                raise ScheduleError(f"slowdown for {machine!r} must be >= 1, got {factor!r}")
        new_exec = {
            task: {
                machine: t * comp_slowdown.get(machine, 1.0)
                for machine, t in row.items()
            }
            for task, row in self.exec_time.items()
        }
        if isinstance(comm_slowdown, Mapping):
            new_comm = {
                pair: t * comm_slowdown.get(pair, 1.0) for pair, t in self.comm_time.items()
            }
        else:
            if comm_slowdown < 1.0:
                raise ScheduleError(f"comm slowdown must be >= 1, got {comm_slowdown!r}")
            new_comm = {pair: t * comm_slowdown for pair, t in self.comm_time.items()}
        return MappingProblem(
            tasks=self.tasks,
            machines=self.machines,
            exec_time=new_exec,
            comm_time=new_comm,
        )


@dataclass(frozen=True)
class MappingResult:
    """One candidate assignment and its predicted elapsed time."""

    assignment: tuple[str, ...]
    elapsed: float

    def placement(self, tasks: Sequence[str]) -> dict[str, str]:
        """Assignment as a {task: machine} dict."""
        return dict(zip(tasks, self.assignment))


def evaluate_mapping(problem: MappingProblem, assignment: Sequence[str]) -> float:
    """Elapsed time of *assignment* under the serial-chain model.

    ``assignment[k]`` is the machine of ``problem.tasks[k]``. The
    application executes its tasks in order; a data transfer is charged
    between consecutive tasks mapped to different machines — the
    execution model of the paper's introductory example (both-on-M1:
    12 + 4 = 16; split: 18 + 8 + 12 = 38; etc.).
    """
    if len(assignment) != len(problem.tasks):
        raise ScheduleError(
            f"assignment length {len(assignment)} != number of tasks {len(problem.tasks)}"
        )
    for machine in assignment:
        if machine not in problem.machines:
            raise ScheduleError(f"unknown machine {machine!r}")
    total = 0.0
    for k, task in enumerate(problem.tasks):
        total += problem.exec_time[task][assignment[k]]
        if k + 1 < len(assignment):
            total += problem.transfer(assignment[k], assignment[k + 1])
    return total


def rank_mappings(problem: MappingProblem) -> list[MappingResult]:
    """All assignments, best first (ties broken lexicographically).

    Exhaustive: ``len(machines) ** len(tasks)`` candidates.
    """
    results = [
        MappingResult(assignment=combo, elapsed=evaluate_mapping(problem, combo))
        for combo in itertools.product(problem.machines, repeat=len(problem.tasks))
    ]
    results.sort(key=lambda r: (r.elapsed, r.assignment))
    return results


def _search_best(problem: MappingProblem, max_candidates: int) -> MappingResult:
    """Exhaustive minimum-elapsed-time search with a prefix-cost cutoff."""
    space = len(problem.machines) ** len(problem.tasks)
    if space > max_candidates:
        raise ScheduleError(
            f"search space of {space} assignments exceeds max_candidates={max_candidates}"
        )

    tasks = problem.tasks
    machines = problem.machines
    best_assignment: tuple[str, ...] | None = None
    best_cost = float("inf")

    def extend(prefix: list[str], cost: float) -> None:
        nonlocal best_assignment, best_cost
        if cost >= best_cost:
            return
        k = len(prefix)
        if k == len(tasks):
            # cost < best_cost guaranteed by the guard above; prefer the
            # lexicographically smallest assignment on exact ties.
            best_cost = cost
            best_assignment = tuple(prefix)
            return
        task = tasks[k]
        row = problem.exec_time[task]
        # Expand cheapest immediate step first: the DFS then reaches a
        # near-optimal complete assignment early, and the tightened
        # incumbent prunes most of the remaining subtrees. The stable
        # sort keeps the original machine order on equal-cost steps, so
        # ties still resolve deterministically.
        if k == 0:
            steps = [(row[machine], machine) for machine in machines]
        else:
            prev = prefix[-1]
            steps = [
                (row[machine] + problem.transfer(prev, machine), machine)
                for machine in machines
            ]
        steps.sort(key=lambda sm: sm[0])
        for step, machine in steps:
            prefix.append(machine)
            extend(prefix, cost + step)
            prefix.pop()

    # Seed the incumbent with the lexicographically first assignment so
    # ties resolve the same way as rank_mappings().
    first = tuple(machines[0] for _ in tasks)
    best_assignment = first
    best_cost = evaluate_mapping(problem, first)
    extend([], 0.0)
    assert best_assignment is not None
    return MappingResult(assignment=best_assignment, elapsed=best_cost)


@dataclass(frozen=True)
class ConfidentMapping:
    """A :class:`MappingResult` with the confidence of the slowdowns behind it.

    Forwards the :class:`MappingResult` surface (``assignment``,
    ``elapsed``, :meth:`placement`) so it drops into call sites that
    consumed the bare result.
    """

    result: MappingResult
    confidence: Confidence

    @property
    def assignment(self) -> tuple[str, ...]:
        return self.result.assignment

    @property
    def elapsed(self) -> float:
        return self.result.elapsed

    def placement(self, tasks: Sequence[str]) -> dict[str, str]:
        """Assignment as a {task: machine} dict."""
        return self.result.placement(tasks)


def _tagged_value(slowdown: float | TaggedSlowdown, tags: list[Confidence]) -> float:
    """Collect a slowdown input's confidence into *tags*, return its value."""
    if isinstance(slowdown, TaggedSlowdown):
        tags.append(slowdown.confidence)
        return slowdown.value
    tags.append(Confidence.CALIBRATED)
    return float(slowdown)


def best_mapping(
    problem: MappingProblem,
    comp_slowdown: Mapping[str, float | TaggedSlowdown] | None = None,
    comm_slowdown: (
        float | TaggedSlowdown | Mapping[tuple[str, str], float | TaggedSlowdown] | None
    ) = None,
    max_candidates: int = 1_000_000,
) -> ConfidentMapping:
    """The minimum-elapsed-time assignment, with the confidence behind it.

    Uses exhaustive enumeration with a prefix-cost cutoff (a running
    partial sum already exceeding the incumbent prunes the subtree),
    which keeps moderate instances fast without changing the result.

    With no slowdown arguments the problem's matrices are searched as
    given (the caller asserts them: CALIBRATED confidence). With
    *comp_slowdown* / *comm_slowdown* the factors are first applied via
    :meth:`MappingProblem.with_slowdowns` — each may be a bare float
    (CALIBRATED) or a :class:`~repro.reliability.degrade.TaggedSlowdown`
    from the :class:`~repro.core.runtime.SlowdownManager` — and the
    result's ``confidence`` is the minimum over every factor that shaped
    the cost matrices. With tables missing the manager hands over
    ANALYTIC-tagged factors and the scheduler still ranks placements;
    the caller just sees how much trust the ranking deserves.

    Raises
    ------
    ScheduleError
        If the search space exceeds *max_candidates* (a guard against
        accidentally exponential calls; raise the limit explicitly for
        big instances).
    """
    tags: list[Confidence] = []
    contended = problem
    if comp_slowdown is not None or comm_slowdown is not None:
        comp_values = {
            machine: _tagged_value(t, tags) for machine, t in (comp_slowdown or {}).items()
        }
        comm_values: Mapping[tuple[str, str], float] | float
        if comm_slowdown is None:
            comm_values = 1.0
        elif isinstance(comm_slowdown, Mapping):
            comm_values = {pair: _tagged_value(t, tags) for pair, t in comm_slowdown.items()}
        else:
            comm_values = _tagged_value(comm_slowdown, tags)
        contended = problem.with_slowdowns(comp_values, comm_values)
    with _obs.span("schedule.best_mapping", kind="prediction") as sp:
        result = _search_best(contended, max_candidates)
        confident = ConfidentMapping(result=result, confidence=combine_confidence(*tags))
        sp.set("tasks", len(problem.tasks))
        sp.set("machines", len(problem.machines))
        sp.set("elapsed", result.elapsed)
        sp.set("confidence", confident.confidence.name)
    _obs.inc("prediction.mappings")
    return confident
