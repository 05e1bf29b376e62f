#!/usr/bin/env python3
"""Record the references the benchmark checks every operation against.

    python3 perfbench/record_refs.py

Writes perfbench/refs/references.json (per instance x map: the sha256 of
the reach graph, the tagged graph and the omap text, and the certificate's
checks) from the exhaustive backend, and perfbench/refs/run_traces.json (per
bakery parameter set: the step count every seeded run takes and the sha256
of each seed's run trace).  Re-record only for a change that is meant to
alter these artifacts, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys

import run

# every instance x map any workload or the smoke test verifies
INSTANCES = sorted({op for spec in run.WORKLOADS.values()
                    if isinstance(spec, run.Pipeline) for op in spec.ops})
TRACE_POOLS = {(2, 2, 3): 1000,   # monitored-runs draws its seeds from here
               (2, 1, 2): 3}      # smoke test


def record_instances() -> dict:
    from wfgraph import absgraph, bakery, certify, measure
    out = {}
    for params, map_name in INSTANCES:
        model = bakery.bakery_model(*params)
        g = absgraph.map_graph(model, map_name)
        tg = absgraph.tag_graph(model, map_name, g)
        om = measure.synthesize_omap(tg)
        cert = certify.certify_relation(model, map_name, tg, om,
                                        bakery.bakery_text())
        digest = run.verdict_digest(g, tg, om, cert)
        if not (digest.pop("cert_hashes_match") and digest["passed"]):
            sys.exit(f"{params} {map_name}: certificate does not pass")
        out[run.instance_key(params, map_name)] = digest
        print(run.instance_key(params, map_name), "ok", flush=True)
    return out


def record_traces() -> dict:
    from wfgraph import bakery
    out = {}
    for params, pool in TRACE_POOLS.items():
        b = bakery.Bakery(*params)
        results = [b.run(seed=s) for s in range(pool)]
        steps = {r.steps for r in results}
        if len(steps) != 1:
            sys.exit(f"{params}: step counts vary across seeds: {steps}")
        out[run.params_key(params)] = {
            "steps": steps.pop(),
            "traces": [run.trace_digest(r) for r in results]}
        print(params, "runs ok", flush=True)
    return out


def main():
    run.load_wfgraph()
    from wfgraph import bakery
    run.REFS.mkdir(exist_ok=True)
    refs = {"recorded_with": "exhaustive",
            "model_sha256": run.sha256(bakery.bakery_text()),
            "instances": record_instances()}
    with open(run.REFS / "references.json", "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    with open(run.REFS / "run_traces.json", "w") as f:
        json.dump(record_traces(), f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
