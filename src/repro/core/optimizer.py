"""The latency-bound summary window.

dbTouch cannot optimize a query up front: it does not know how much data
will be processed, in which order, or which region of the data the gesture
will visit — the user decides all of that while the query runs.  The
optimizer therefore works from *observations* of one thing, each touch's
processing latency: it halves the summary window ``k`` while touches
overrun the latency budget and restores it while there is ample slack.
"""

from __future__ import annotations

from repro.errors import OptimizationError


class AdaptiveOptimizer:
    """Size the summary window against the per-touch latency budget.

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
        self.budget_violations = 0
        self.k_adjustments = 0

    # ------------------------------------------------------------------ #
    # observations
    # ------------------------------------------------------------------ #
    def observe_touch(self, latency_s: float) -> None:
        """Record the processing latency of the latest touch."""
        if latency_s < 0:
            raise OptimizationError("latency cannot be negative")
        self._adjust_summary_k(latency_s, violations=1)

    def observe_batch(self, touches: int, latency_s: float) -> None:
        """Batch equivalent of :meth:`observe_touch` for one whole gesture.

        ``touches`` is the number of touches of a gesture executed by the
        vectorized batch path and ``latency_s`` the amortized per-touch
        latency (batch wall time / touches).  The summary window ``k`` is
        adjusted once per batch rather than once per violating touch,
        because individual touch latencies do not exist on the batch path.
        """
        if latency_s < 0:
            raise OptimizationError("latency cannot be negative")
        if touches:
            self._adjust_summary_k(latency_s, violations=touches)

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

    @property
    def current_summary_k(self) -> int:
        """The currently allowed summary half-window."""
        return self._current_k

    def reset(self) -> None:
        """Forget all observations (a new gesture session starts)."""
        self._current_k = self.base_summary_k
        self.budget_violations = 0
        self.k_adjustments = 0
