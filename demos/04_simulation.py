"""Run the bakery to completion under a monitored random scheduler.

Pass a seed to vary the interleaving:  python3 demos/04_simulation.py 7

The runner steps the processes with the model's own `next`, compiled once,
and watches the whole-system measure: one rank bnl per process, read as an
ordinal below w^w. A step moves one process, so only that process's bnl is
re-measured, and the runner raises if the measure ever fails to strictly
fall. Termination of this loop is therefore not an observation, it is
enforced.
"""

import sys

from wfgraph.bakery import Bakery
from wfgraph.ordinals import o_lt, ordinal_text

seed = int(sys.argv[1]) if len(sys.argv) > 1 else 2026

bakery = Bakery(n=2, r=2, w=3)
result = bakery.run(seed=seed)
print(f"n=2 processes, r=2 rounds each, tickets {bakery.w} bits wide")
print(f"initial measure: {ordinal_text(result.measures[0])}")
print(f"\nseed {seed}: all processes done after {result.steps} steps")

print("\nfirst steps of the trace:")
for line in result.trace[:8]:
    print(f"  {line}")
print("  ...")
for line in result.trace[-2:]:
    print(f"  {line}")

drops = sum(o_lt(m2, m1)
            for m1, m2 in zip(result.measures, result.measures[1:]))
print(f"\nmeasure fell on {drops} of {result.steps} steps")
print(f"final measure: {ordinal_text(result.measures[-1])}")

# the deterministic schedule (no oracle) always steps the witness process
# that the blocker chain proves ready
witness = bakery.run()
print(f"\nwitness schedule, same parameters: {witness.steps} steps")
