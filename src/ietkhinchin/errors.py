"""Exception types shared across the package."""


class AlgorithmStopped(Exception):
    """Induction hit the tie case u_t == u_b (the map is undefined there).

    Carries the step index at which the tie occurred.
    """

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"induction stopped at step {step} (tie)")


class StepBudgetExhausted(AlgorithmStopped):
    """The step budget ran out before the induction covered what was asked.

    A subclass of AlgorithmStopped, so callers that stop on either case keep
    working; callers that must tell a budget from a tie catch it first.
    """

    def __init__(self, step, message=None):
        super().__init__(step, message or f"step budget exhausted after {step} steps")


class PrecisionExhausted(Exception):
    """A float comparison fell inside the guard band and cannot be trusted."""

    def __init__(self, step=None, message=None):
        self.step = step
        super().__init__(message or f"float precision exhausted at step {step}")


class NotDetected(Exception):
    """Detection gave up before the step budget covered the requested n."""

    def __init__(self, horizon, message=None):
        self.horizon = horizon
        super().__init__(message or f"not detected within {horizon} steps")


class ConstructionFailed(Exception):
    """A combinatorial search exhausted its budget without a witness."""

    def __init__(self, budget, message=None):
        self.budget = budget
        super().__init__(message or f"construction failed within budget {budget}")
