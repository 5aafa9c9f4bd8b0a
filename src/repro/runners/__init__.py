"""Trial execution subsystem: parallel, batched Monte-Carlo replication.

``repro.runners`` is the scaling substrate for every sweep in the
reproduction: :class:`TrialRunner` fans independent protocol trials out
across worker processes with per-trial timeout/retry and structured
progress reporting, while :func:`route_collection_trials` packages the
common "route this collection N times" workload in picklable form.
Seeding goes through :func:`spawn_seeds`, so parallel runs are
bit-identical to serial ones and adding trials never perturbs earlier
results.
"""

from repro.runners.protocol_trials import (
    instrumented_protocol_trial_batch,
    protocol_trial,
    protocol_trial_batch,
    route_collection_trials,
)
from repro.runners.trial import TrialProgress, TrialRunner, spawn_seeds

__all__ = [
    "TrialProgress",
    "TrialRunner",
    "spawn_seeds",
    "protocol_trial",
    "protocol_trial_batch",
    "instrumented_protocol_trial_batch",
    "route_collection_trials",
]
