"""Application functions the benchmark's real campaigns execute.

Module-level and side-effect free, so the process pool can pickle them
by name and the FAIR5xx lint gate admits them.  The module stays small
on purpose: the gate parses it on every submission.
"""


def noop_app(parameters):
    """A no-op run that reports ``loss`` and ``cost`` at once.

    It does no work, so a campaign of these measures the per-task cost of
    dispatch, journaling and recording rather than the application.
    """
    x = parameters["x"]
    return {"loss": (x * 7919 % 1000) / 100.0, "cost": (x * 104729 % 500) / 10.0}
