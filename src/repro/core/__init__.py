"""The paper's contribution: SRPT-based task-cloning schedulers and their theory.

* :mod:`repro.core.offline` -- Algorithm 1, the offline bulk-arrival scheduler.
  Algorithm 2, the SRPTMS+C online scheduler, is the ``srpt+share+clone``
  composition registered as ``SRPTMS+C`` in :mod:`repro.policies`.
* :mod:`repro.core.speedup` -- the concave speedup functions of Section III-A.
* :mod:`repro.core.effective_workload`, :mod:`repro.core.priority`,
  :mod:`repro.core.allocation` -- the building blocks (Equations 2-4 and the
  epsilon-fraction sharing rule).
* :mod:`repro.core.bounds` -- Lemma 1 / Theorem 1 / Remark 2 quantities.
"""

from repro.core.allocation import epsilon_shares, fractional_shares, ranked_shares
from repro.core.bounds import (
    critical_path,
    empirical_competitive_ratio,
    lemma1_probability,
    offline_flowtime_bound,
    offline_flowtime_bounds,
    online_competitive_bound,
    srpt_relaxation_lower_bound,
    theorem1_probability,
    weighted_flowtime_lower_bound,
)
from repro.core.effective_workload import accumulated_higher_priority_workload
from repro.core.offline import OfflineScheduler
from repro.core.priority import (
    offline_priority,
    online_priority,
    sort_jobs_by_remaining_priority,
    sort_specs_by_priority,
    srpt_priority,
)
from repro.core.speedup import (
    CappedLinearSpeedup,
    LogSpeedup,
    NoSpeedup,
    ParetoSpeedup,
    PowerSpeedup,
    SpeedupFunction,
    check_speedup_properties,
)

__all__ = [
    "OfflineScheduler",
    "SpeedupFunction",
    "ParetoSpeedup",
    "PowerSpeedup",
    "LogSpeedup",
    "CappedLinearSpeedup",
    "NoSpeedup",
    "check_speedup_properties",
    "accumulated_higher_priority_workload",
    "srpt_priority",
    "offline_priority",
    "online_priority",
    "sort_specs_by_priority",
    "sort_jobs_by_remaining_priority",
    "ranked_shares",
    "fractional_shares",
    "epsilon_shares",
    "lemma1_probability",
    "theorem1_probability",
    "offline_flowtime_bound",
    "offline_flowtime_bounds",
    "critical_path",
    "srpt_relaxation_lower_bound",
    "weighted_flowtime_lower_bound",
    "empirical_competitive_ratio",
    "online_competitive_bound",
]
