"""Adaptive, on-the-fly optimization decisions.

dbTouch cannot optimize a query up front: it does not know how much data
will be processed, in which order, or which region of the data the gesture
will visit — the user decides all of that while the query runs.  The
optimizer therefore works from *observations*: it picks the sample level
that matches the gesture's observed stride, shrinks the summary window
while touches overrun the latency budget, and tunes how aggressively to
prefetch based on how steady the gesture velocity has been.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OptimizationError


@dataclass
class OptimizerDecision:
    """The bundle of adaptive decisions returned for the next touch."""

    sample_stride: int
    prefetch_horizon_touches: int
    summary_k: int


class AdaptiveOptimizer:
    """Combine observed gesture behaviour into per-touch execution decisions.

    Parameters
    ----------
    latency_budget_s:
        The per-touch response-time bound the kernel must honor.
    base_summary_k:
        The user-requested summary half-window; shrunk when the budget is
        violated and restored when there is slack.
    """

    def __init__(self, latency_budget_s: float = 0.05, base_summary_k: int = 8):
        if latency_budget_s <= 0:
            raise OptimizationError("latency budget must be positive")
        if base_summary_k < 0:
            raise OptimizationError("base_summary_k must be non-negative")
        self.latency_budget_s = latency_budget_s
        self.base_summary_k = base_summary_k
        self._current_k = base_summary_k
        self._recent_strides: list[int] = []
        self._recent_latencies: list[float] = []
        self._speculated_kind: str | None = None
        self.budget_violations = 0
        self.k_adjustments = 0

    # ------------------------------------------------------------------ #
    # observations
    # ------------------------------------------------------------------ #
    def observe_touch(self, stride: int, latency_s: float) -> None:
        """Record the stride and processing latency of the latest touch."""
        if latency_s < 0:
            raise OptimizationError("latency cannot be negative")
        self._recent_strides.append(max(1, stride))
        self._recent_latencies.append(latency_s)
        if len(self._recent_strides) > 32:
            self._recent_strides.pop(0)
        if len(self._recent_latencies) > 32:
            self._recent_latencies.pop(0)
        self._adjust_summary_k(latency_s, violations=1)

    def observe_batch(self, strides, latency_s: float) -> None:
        """Batch equivalent of :meth:`observe_touch` for one whole gesture.

        ``strides`` is the per-touch stride sequence of a gesture executed
        by the vectorized batch path and ``latency_s`` the amortized
        per-touch latency (batch wall time / touches).  The stride window
        is updated exactly as a loop of ``observe_touch`` calls would;
        the summary window ``k`` is adjusted once per batch rather than
        once per violating touch, because individual touch latencies do
        not exist on the batch path.
        """
        if latency_s < 0:
            raise OptimizationError("latency cannot be negative")
        count = len(strides)
        tail = [max(1, int(s)) for s in strides[-32:]]
        if not tail:
            return
        self._recent_strides.extend(tail)
        del self._recent_strides[:-32]
        self._recent_latencies.extend([latency_s] * len(tail))
        del self._recent_latencies[:-32]
        self._adjust_summary_k(latency_s, violations=count)

    def _adjust_summary_k(self, latency_s: float, violations: int) -> None:
        """The shared budget-violation / window-adjustment policy.

        Shrink the summary window while the budget is violated (counting
        ``violations`` touches), restore it gradually when there is ample
        slack; both observers apply this one rule so the per-touch and
        batch paths cannot drift apart.
        """
        if latency_s > self.latency_budget_s:
            self.budget_violations += violations
            if self._current_k > 1:
                self._current_k = max(1, self._current_k // 2)
                self.k_adjustments += 1
        elif (
            self._current_k < self.base_summary_k
            and latency_s < 0.5 * self.latency_budget_s
        ):
            self._current_k = min(self.base_summary_k, self._current_k * 2)
            self.k_adjustments += 1

    def speculation_hint(self, predicted_kind: str | None) -> None:
        """Advise the optimizer what a mined policy predicts comes next.

        Advisory only: the hint scales the prefetch horizon
        :meth:`decide` reports (a predicted continued slide justifies a
        deeper horizon; anything else falls back to the observed-velocity
        rule) and never touches the summary window or sample stride, so
        outcome counters are unaffected by hinting.
        """
        self._speculated_kind = predicted_kind

    # ------------------------------------------------------------------ #
    # decisions
    # ------------------------------------------------------------------ #
    def decide(self) -> OptimizerDecision:
        """Return the decisions to use for the next touch."""
        if self._recent_strides:
            stride = int(sorted(self._recent_strides)[len(self._recent_strides) // 2])
        else:
            stride = 1
        velocity_steady = self._velocity_is_steady()
        prefetch_horizon = 32 if velocity_steady else 8
        if velocity_steady and self._speculated_kind in ("slide", "slide-path"):
            prefetch_horizon = 64
        return OptimizerDecision(
            sample_stride=stride,
            prefetch_horizon_touches=prefetch_horizon,
            summary_k=self._current_k,
        )

    def _velocity_is_steady(self) -> bool:
        if len(self._recent_strides) < 4:
            return False
        window = self._recent_strides[-8:]
        lo, hi = min(window), max(window)
        if lo == 0:
            return False
        return hi <= 2 * lo

    @property
    def current_summary_k(self) -> int:
        """The currently allowed summary half-window."""
        return self._current_k

    def reset(self) -> None:
        """Forget all observations (a new gesture session starts)."""
        self._recent_strides.clear()
        self._recent_latencies.clear()
        self._speculated_kind = None
        self._current_k = self.base_summary_k
        self.budget_violations = 0
        self.k_adjustments = 0
