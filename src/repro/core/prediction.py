"""Contended performance predictions and the offloading rule.

Combines dedicated-mode costs with slowdown factors to produce the
quantities a scheduler compares:

* ``T_frontend`` — elapsed time executing the task on the front-end
  (Sun) under contention: ``dcomp_sun × slowdown``.
* ``T_backend`` (CM2 form) — elapsed time executing on the back-end:
  ``max(dcomp_cm2 + didle_cm2, dserial_cm2 × slowdown)`` (§3.1.2); the
  back-end is gated either by its own work + idle gaps, or by the
  contended serial stream on the front-end, whichever dominates.
* ``C_out`` / ``C_in`` — contended communication costs:
  ``dcomm × slowdown``.

and the paper's Equation (1): offload a task to the back-end only when

.. math::

   T_{front} > T_{back} + C_{front \\to back} + C_{back \\to front}.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs import context as _obs
from ..reliability.degrade import Confidence, TaggedSlowdown, combine_confidence
from ..units import check_nonnegative
from . import batch as _batch

__all__ = [
    "BackendTaskCosts",
    "PlacementPrediction",
    "ConfidentPlacement",
    "predict_frontend_time",
    "predict_backend_time",
    "predict_comm_cost",
    "should_offload",
    "decide_placement",
]


@dataclass(frozen=True)
class BackendTaskCosts:
    """Dedicated-mode cost breakdown of a task run on the back-end (§3.1.2).

    Attributes
    ----------
    dcomp:
        Time the back-end spends executing the task's parallel
        instructions (dedicated mode).
    didle:
        Back-end idle time while waiting for instructions from the
        front-end (dedicated mode).
    dserial:
        Front-end time executing the task's serial/scalar instructions
        (dedicated mode). Invariant from the paper: ``didle <= dserial``
        because the front-end may pre-execute serial code while the
        back-end computes.
    """

    dcomp: float
    didle: float
    dserial: float

    def __post_init__(self) -> None:
        check_nonnegative(self.dcomp, "dcomp")
        check_nonnegative(self.didle, "didle")
        check_nonnegative(self.dserial, "dserial")

    @property
    def dedicated_elapsed(self) -> float:
        """Elapsed time in a dedicated system (slowdown = 1)."""
        return max(self.dcomp + self.didle, self.dserial)


def predict_frontend_time(dcomp: float, slowdown: float) -> float:
    """``T_front = dcomp × slowdown`` (§3.1.2 / §3.2.2).

    Delegates to :func:`repro.core.batch.frontend_times` — the batch
    kernel is the single implementation of the formula.
    """
    return float(_batch.frontend_times(dcomp, slowdown))


def predict_backend_time(costs: BackendTaskCosts, slowdown: float) -> float:
    """``T_back = max(dcomp + didle, dserial × slowdown)`` (§3.1.2).

    With no contention this reduces to the dedicated elapsed time; as
    contention grows, the contended serial stream on the front-end
    eventually becomes the bottleneck — the effect behind the Figure 3
    crossover at M ≈ 200.

    Delegates to :func:`repro.core.batch.backend_times` — the batch
    kernel is the single implementation of the formula.
    """
    return float(_batch.backend_times(costs.dcomp, costs.didle, costs.dserial, slowdown))


def predict_comm_cost(dcomm: float, slowdown: float) -> float:
    """``C = dcomm × slowdown`` (§3.1.1 / §3.2.1).

    Delegates to :func:`repro.core.batch.comm_costs` — the batch
    kernel is the single implementation of the formula.
    """
    return float(_batch.comm_costs(dcomm, slowdown))


def should_offload(t_frontend: float, t_backend: float, c_out: float, c_in: float) -> bool:
    """Equation (1): run on the back-end iff it wins *including* transfers."""
    return t_frontend > t_backend + c_out + c_in


def predict_mixed_time(
    dcomp: float,
    dcomm_out: float,
    dcomm_in: float,
    comp_slowdown: float,
    comm_slowdown: float,
) -> float:
    """Prediction for an application alternating computation and communication.

    The paper's typical applications "execute for a long period of
    time, alternating computation with communication cycles" (§2); the
    natural long-term prediction applies each slowdown to its own
    share:

    .. math::

       T = dcomp \\cdot s_{comp} + (dcomm_{out} + dcomm_{in}) \\cdot s_{comm}

    Cycle boundaries are ignored — exactly the long-term view the
    paper argues for; the mixed-workload experiment quantifies how
    well it holds. Delegates to :func:`repro.core.batch.mixed_times` —
    the batch kernel is the single implementation of the formula.
    """
    return float(
        _batch.mixed_times(dcomp, dcomm_out, dcomm_in, comp_slowdown, comm_slowdown)
    )


@dataclass(frozen=True)
class PlacementPrediction:
    """The full comparison a scheduler makes for one task.

    ``offload`` is True when Equation (1) favours the back-end.
    """

    t_frontend: float
    t_backend: float
    c_out: float
    c_in: float

    @property
    def backend_total(self) -> float:
        """Back-end elapsed time including both transfers."""
        return self.t_backend + self.c_out + self.c_in

    @property
    def offload(self) -> bool:
        return should_offload(self.t_frontend, self.t_backend, self.c_out, self.c_in)

    @property
    def best_time(self) -> float:
        """Predicted elapsed time of the better placement."""
        return min(self.t_frontend, self.backend_total)

    @property
    def advantage(self) -> float:
        """Time saved by the better placement over the alternative."""
        return abs(self.t_frontend - self.backend_total)


def _split_slowdown(
    slowdown: "float | TaggedSlowdown | None",
) -> tuple[float | None, Confidence | None]:
    """(value, confidence) of a slowdown input.

    A bare float is taken at face value — the caller asserts the
    number, so it carries CALIBRATED confidence; a
    :class:`~repro.reliability.degrade.TaggedSlowdown` carries its own
    tag; ``None`` passes through (no value, no opinion).
    """
    if slowdown is None:
        return None, None
    if isinstance(slowdown, TaggedSlowdown):
        return slowdown.value, slowdown.confidence
    return float(slowdown), Confidence.CALIBRATED


@dataclass(frozen=True)
class ConfidentPlacement:
    """A :class:`PlacementPrediction` with the confidence of its inputs.

    ``confidence`` is the minimum over the slowdown factors that fed the
    comparison — the Equation (1) verdict is only as trustworthy as its
    least-calibrated input. Every :class:`PlacementPrediction` property
    is forwarded, so a ``ConfidentPlacement`` drops into any call site
    that read the bare prediction.
    """

    prediction: PlacementPrediction
    confidence: Confidence

    @property
    def t_frontend(self) -> float:
        return self.prediction.t_frontend

    @property
    def t_backend(self) -> float:
        return self.prediction.t_backend

    @property
    def c_out(self) -> float:
        return self.prediction.c_out

    @property
    def c_in(self) -> float:
        return self.prediction.c_in

    @property
    def backend_total(self) -> float:
        return self.prediction.backend_total

    @property
    def offload(self) -> bool:
        return self.prediction.offload

    @property
    def best_time(self) -> float:
        return self.prediction.best_time

    @property
    def advantage(self) -> float:
        return self.prediction.advantage


def decide_placement(
    dcomp_frontend: float,
    backend_costs: BackendTaskCosts,
    dcomm_out: float,
    dcomm_in: float,
    comp_slowdown: float | TaggedSlowdown,
    comm_slowdown: float | TaggedSlowdown,
    backend_serial_slowdown: float | TaggedSlowdown | None = None,
) -> ConfidentPlacement:
    """Assemble a confidence-carrying placement from dedicated costs.

    Slowdowns may be bare floats (taken at face value: CALIBRATED) or
    :class:`~repro.reliability.degrade.TaggedSlowdown` values from
    :meth:`~repro.core.runtime.SlowdownManager.comp_slowdown_tagged` /
    :meth:`~repro.core.runtime.SlowdownManager.comm_slowdown_tagged`;
    either way the result is a :class:`ConfidentPlacement` whose
    ``confidence`` is the weakest input's. The placement decision thus
    stays available even when the model has degraded to its analytic
    fallbacks — tagged so the caller knows.

    Parameters
    ----------
    dcomp_frontend:
        Dedicated time of the task on the front-end.
    backend_costs:
        Dedicated cost breakdown of the task on the back-end.
    dcomm_out, dcomm_in:
        Dedicated transfer costs to and from the back-end.
    comp_slowdown:
        Slowdown applied to front-end computation (and, by default, to
        the back-end task's serial stream).
    comm_slowdown:
        Slowdown applied to transfers.
    backend_serial_slowdown:
        Override for the slowdown of the back-end task's serial stream;
        defaults to *comp_slowdown* (they coincide on the Sun/CM2,
        where all contention is front-end CPU contention).
    """
    comp_value, comp_conf = _split_slowdown(comp_slowdown)
    comm_value, comm_conf = _split_slowdown(comm_slowdown)
    serial_value, serial_conf = _split_slowdown(backend_serial_slowdown)
    assert comp_value is not None and comm_value is not None
    tags = [comp_conf, comm_conf]
    if serial_conf is not None:
        tags.append(serial_conf)
    serial_slow = serial_value if serial_value is not None else comp_value
    with _obs.span("predict.placement", kind="prediction") as sp:
        prediction = PlacementPrediction(
            t_frontend=predict_frontend_time(dcomp_frontend, comp_value),
            t_backend=predict_backend_time(backend_costs, serial_slow),
            c_out=predict_comm_cost(dcomm_out, comm_value),
            c_in=predict_comm_cost(dcomm_in, comm_value),
        )
        result = ConfidentPlacement(
            prediction=prediction, confidence=combine_confidence(*tags)
        )
        sp.set("offload", result.offload)
        sp.set("confidence", result.confidence.name)
        sp.set("best_time", result.best_time)
    _obs.inc("prediction.placements")
    return result
