"""Why a ready process always exists: the blocking relation is well-founded.

`blok(a, b)` says process a cannot move until b does. The same pipeline
that orders the step relation orders this one, so chasing blockers is a
descent and must bottom out at a process that is free. The scheduler
leans on that: its witness for "someone can move" is the end of the
chain, checked against the synthesized measure at every hop.
"""

import random

from wfgraph.absgraph import map_graph, tag_graph
from wfgraph.bakery import Bakery, choose_ready
from wfgraph.model import value_text
from wfgraph.ordinals import ordinal_text

bakery = Bakery(n=4, r=1, w=3)
system = bakery.system

g = map_graph(bakery.model, "nlock")
tg = tag_graph(bakery.model, "nlock", g)
print(f"blocking graph: {len(g.nodes)} abstract nodes, {len(g.arcs)} arcs")
for m in tg.measures:
    of = [tg.tags[(i, j, m)] for (i, j) in tg.arcs]
    print(f"  {m}: {of.count('strict-dec')} strict-dec, "
          f"{of.count('non-inc')} non-inc, {of.count('may-inc')} may-inc")

print("\nnodes needing a compound descriptor (the ticket-wait loop):")
for node, desc in bakery.nlock_omap.descriptors:
    if len(desc) > 2:
        print(f"  {value_text(node):38s} {desc}")

# Replay a seeded run and keep the state with the deepest blocker chain
# starting from any process that still has work to do.
rng = random.Random(1)
st = system.initial
deepest = (0, st, 0)
while not all(system.done(a) for a in st.trs):
    for s0 in range(bakery.n):
        if system.done(st.trs[s0]):
            continue
        chain = []
        k = system.blocker(st.trs[s0], st.trs)
        while k is not None:
            chain.append(k)
            k = system.blocker(st.trs[k], st.trs)
        if len(chain) > deepest[0]:
            deepest = (len(chain), st, s0)
    st = bakery.step(st, choose_ready(st.trs, system, rng.choice,
                                      bakery.nlock_msr))

depth, st, k = deepest
print(f"\ndeepest chain seen in a seeded run: {depth} hops")
while True:
    a = st.trs[k]
    ndx, loc, pos = (a.get(f).val for f in ("ndx", "loc", "pos"))
    m = ordinal_text(bakery.nlock_msr(a))
    k = system.blocker(a, st.trs)
    if k is None:
        print(f"  ndx {ndx} at loc {loc} (pos {pos})  measure {m}"
              f"  -- unblocked, ready to step")
        break
    print(f"  ndx {ndx} at loc {loc} (pos {pos})  measure {m}"
          f"  waits on")
