"""Certify both bundled relations, then try to sneak a lie past the checker.

The certifier recomputes everything the synthesis claimed from one
enumeration that sweeps the concrete relation.  Plain-Python checks of
those cases confirm that the graph is closed under the relation, that
every tag holds on its arc, and that the composed measure strictly falls,
all by plain tuple comparison, nothing shared with the construction.  A
symbolic scan checks that descriptors fall along arcs.
"""

from wfgraph.absgraph import TaggedGraph, map_graph, tag_graph
from wfgraph.bakery import bakery_model, bakery_text
from wfgraph.certify import certify_relation
from wfgraph.measure import synthesize_omap

model = bakery_model(n=2, r=2, w=2)
text = bakery_text()

tagged = {}
for name in ("rank", "nlock"):
    g = map_graph(model, name)
    tg = tag_graph(model, name, g)
    tagged[name] = tg
    om = synthesize_omap(tg)
    cert = certify_relation(model, name, tg, om, text)
    print(f"relation {name}: {len(tg.nodes)} nodes, {len(tg.arcs)} arcs")
    for c in cert.checks:
        print(f"  {c.name:24s} {'pass' if c.passed else 'FAIL'}  [{c.method}]")
    print(f"  => certificate {'PASSES' if cert.passed else 'FAILS'}\n")

# Now lie. Promote one honest non-inc tag on the rank graph to strict-dec
# and rerun synthesis and certification on the doctored graph.
tg = tagged["rank"]
victim = next((i, j) for (i, j) in tg.arcs
              if tg.tags[(i, j, "runs")] == "non-inc")
lies = dict(tg.tags)
lies[(victim[0], victim[1], "runs")] = "strict-dec"
doctored = TaggedGraph(tg.nodes, tg.arcs, tg.measures, tg.widths, lies)

om = synthesize_omap(doctored)  # happily believes the tag
cert = certify_relation(model, "rank", doctored, om, text)
print(f"after forging runs:strict-dec on arc {victim}:")
for c in cert.checks:
    print(f"  {c.name:24s} {'pass' if c.passed else 'FAIL'}")
print("\nthe forged tag is caught twice in the one sweep: once when a case on")
print("its arc fails to fall, and again as a step the measure fails to drop.")
