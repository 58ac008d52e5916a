"""Scheduling of precedence-constrained unit jobs on identical machines.

Library layout:

- ``core``       instances, schedules, chains, validity checks
- ``transform``  horizon padding, discard re-insertion, makespan search
- ``baselines``  Graham list scheduling, capacity-constrained variant, exact oracle
- ``dyadic``     parameters, interval tree, job-to-interval systems, the split loop
- ``convert``    conversions between valid and virtually-valid schedules
- ``solver``     the recursive guessing solver and its hinted replay mode
- ``pipeline``   horizon choice, solve, conversions and re-insertion as a library
- ``io``         instance and schedule file formats
- ``generators`` seeded instance generators
- ``cli``        command-line front end over the library
"""

from .core import (
    DISC,
    Instance,
    Interval,
    Schedule,
    ValidityReport,
    build_instance,
    count_inversions,
    iter_jobs,
    job_count,
    longest_chain,
    mask_from,
    verify_valid,
)
from .dyadic import Params, PartialDyadicSystem, compute_params

__all__ = [
    "DISC",
    "Instance",
    "Interval",
    "Params",
    "PartialDyadicSystem",
    "Schedule",
    "ValidityReport",
    "build_instance",
    "compute_params",
    "count_inversions",
    "iter_jobs",
    "job_count",
    "longest_chain",
    "mask_from",
    "verify_valid",
]
