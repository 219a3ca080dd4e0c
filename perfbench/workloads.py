"""The four benchmark workloads as plain data.

Imported by both the orchestrator (which must not import numpy or treetrace,
so that every timed process starts cold) and the worker.  README.md in this
directory gives the reason each workload exists.
"""

from __future__ import annotations

# kind: "sweep" runs harness.run_experiment, "search" harness.doubling_search,
#       "battery" verify.run_checks.
# tail_pct: the percentile reported as op_ms_tail, taken over the operations
#       of all the run's untraced units together.  It is the highest
#       percentile with at least ten operations beyond it at min_units
#       units, except for lp-search (see README.md).
# min_units: the fewest untraced units a run makes, however long they take,
#       so that tail_pct always has ten operations beyond it.
# gauge: the reference kernel that scales the workload's times (reference.py).
#       ml-sweep spends its time in numpy; a python kernel missed slow spells
#       that only its numpy work felt.
# smoke: the same workload at minimal size, for the smoke test.
WORKLOADS = {
    "ml-sweep": {
        "kind": "sweep",
        "tail_pct": 95,  # 72 operations per unit: 3 units leave 10 beyond p95
        "min_units": 3,
        "gauge": "numpy",
        "params": dict(family="random", model="ted", n=12, q=0.3,
                       trace_grid=(4, 16, 64), trials=24),
        "smoke": dict(family="random", model="ted", n=6, q=0.3,
                      trace_grid=(4, 16), trials=2),
    },
    "lp-search": {
        "kind": "search",
        "tail_pct": 95,  # about 1,800 operations per unit
        "min_units": 3,
        "gauge": "python",
        "params": dict(family="forked", model="lp", n=7, q=0.5,
                       target_rate=0.88, trials=200),
        "smoke": dict(family="forked", model="lp", n=4, q=0.5,
                      target_rate=0.8, trials=5),
    },
    "fuzzy-sweep": {
        "kind": "sweep",
        "tail_pct": 75,  # 6 operations per unit: 7 units leave 10 beyond p75
        "min_units": 7,
        "gauge": "python",
        "params": dict(family="fuzzy", model="ted", n=30, q=0.2,
                       trace_grid=(4, 16, 64), trials=2),
        "smoke": dict(family="fuzzy", model="ted", n=12, q=0.2,
                      trace_grid=(4,), trials=1),
    },
    "verify-quick": {
        "kind": "battery",
        "tail_pct": 75,  # 22 operations per unit
        "min_units": 3,
        "gauge": "python",
        "params": dict(level="quick"),
        "smoke": dict(level="quick"),
    },
}

# Plausibility checks for full-size runs at seeds without a pinned digest.
MIN_FINAL_RATE = 0.5  # sweeps: success rate at the largest trace count
# lp-search: only deletion-free traces reveal the fork, so the rate at 2^k
# traces is 1 - exp(-2^(k-n)) / 2: 0.82 at 2^n, 0.93 at 2^(n+1), 0.99 at
# 2^(n+2).  With 200 trials the search stops at 2^(n+1) for about 98.6% of
# seeds and one step to either side for the rest.
SEARCH_BUDGET_RANGE = (2**7, 2**9)
