#!/usr/bin/env python3
"""wfgraph benchmark: time from a parsed model to a checked verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/``.  Workloads (see perfbench/NOTES.md for why each exists):

  exhaustive-ladder  map_graph -> tag_graph -> synthesize_omap ->
                     certify_relation on the exhaustive backend, maps rank
                     and nlock, bakery (2,2,3) and (2,3,4)
  sat-rank           the same pipeline on the sat backend, map rank,
                     bakery (1,1,2) and (2,1,2)
  monitored-runs     Bakery(2,2,3) set-up, then 100 seeded monitored runs
  all                each of the above in a fresh process, one after another

Each workload is a closed loop with one caller.  A pass runs every operation
once (an operation is one instance x map verdict or one seeded run); passes
repeat until --seconds have gone by.  A pass time is the mean over the
run's passes; a set-up time is the median over its set-ups.
Every operation's output is checked against perfbench/refs; a mismatch or an
exception counts as one failed operation and makes the exit code 1.

--trace 0 prints the end-to-end metrics, --trace 1 runs one untraced and one
traced pass and prints the per-layer metrics of the traced one.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the run metadata, the failures and the figures that are
not declared metrics go to the lines before it and to perfbench/out/.
"""

from __future__ import annotations

import os

# single-threaded numpy: set before anything imports it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean, median
from typing import Optional

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"
OUT = HERE / "out"

IMPORT_CODE = (
    "import time; t = time.perf_counter()\n"
    "import wfgraph.absgraph, wfgraph.bakery, wfgraph.certify, "
    "wfgraph.measure\n"
    "print(time.perf_counter() - t)\n")


@dataclass(frozen=True)
class Pipeline:
    backend: str
    ops: tuple[tuple[tuple[int, int, int], str], ...]  # ((n, r, w), map)


@dataclass(frozen=True)
class Monitored:
    params: tuple[int, int, int]
    runs: int


WORKLOADS = {
    "exhaustive-ladder": Pipeline("exhaustive", (
        ((2, 2, 3), "rank"), ((2, 2, 3), "nlock"),
        ((2, 3, 4), "rank"), ((2, 3, 4), "nlock"))),
    "sat-rank": Pipeline("sat", (((1, 1, 2), "rank"), ((2, 1, 2), "rank"))),
    "monitored-runs": Monitored((2, 2, 3), 100),
}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no library, no references)."""


def load_wfgraph():
    """Import the library from this checkout's src/, never from elsewhere."""
    if not (SRC / "wfgraph" / "__init__.py").is_file():
        raise SetupError(f"no wfgraph sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import wfgraph
    if Path(wfgraph.__file__).resolve().parent != SRC / "wfgraph":
        raise SetupError(f"wfgraph imported from {wfgraph.__file__}")
    return wfgraph


def load_refs() -> tuple[dict, dict]:
    try:
        with open(REFS / "references.json") as f:
            pipeline = json.load(f)
        with open(REFS / "run_traces.json") as f:
            runs = json.load(f)
    except OSError as e:
        raise SetupError(f"missing references: {e}") from None
    return pipeline, runs


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def params_key(params) -> str:
    return ",".join(map(str, params))


def instance_key(params, map_name: str) -> str:
    return f"{params_key(params)}/{map_name}"


def verdict_digest(g, tg, om, cert) -> dict:
    """What an instance x map verdict must reproduce: the artifacts' hashes
    and every check's outcome."""
    from wfgraph.absgraph import graph_text
    from wfgraph.measure import omap_text
    tagged, omap = sha256(graph_text(tg)), sha256(omap_text(om))
    return {"graph_sha256": sha256(graph_text(g)),
            "tagged_sha256": tagged,
            "omap_sha256": omap,
            "cert_hashes_match": (cert.graph_sha256 == tagged
                                  and cert.omap_sha256 == omap),
            "checks": {c.name: c.passed for c in cert.checks},
            "passed": cert.passed}


def trace_digest(result) -> str:
    return sha256("\n".join(result.trace))


def percentile(xs, p: float):
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(len(s) * p / 100) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Outcome:
    """Everything one workload run measured."""
    attempted: int = 0
    failures: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    figures: dict = field(default_factory=dict)   # printed, not declared
    tracer: Optional[Tracer] = None

    def fail(self, op: str, error: str, detail: str):
        self.failures.append({"op": op, "error": error,
                              "detail": detail[:300]})


# -- set-up ------------------------------------------------------------------

def import_seconds() -> float:
    """Import time of the library in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_CODE],
                         env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                         capture_output=True, text=True, timeout=60,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


def parse_all(params_list) -> dict:
    from wfgraph import bakery
    return {p: bakery.bakery_model(*p) for p in params_list}


def repeat_passes(setup, one_pass, seconds: float):
    """Alternate set-ups and passes, starting and ending with a set-up,
    until ``seconds`` have gone by since the first pass began (at least one
    pass runs).  Spreading the set-ups over the run lets their median see
    the same machine as the passes.  ``setup()`` returns (state, seconds);
    each pass runs on the state of the set-up before it.  Returns the set-up
    seconds and the pass results."""
    state, seconds_taken = setup()
    setups, passes = [seconds_taken], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(one_pass(state))
        state, seconds_taken = setup()
        setups.append(seconds_taken)
    return setups, passes


# -- pipeline workloads ------------------------------------------------------

def pipeline_op(spec: Pipeline, model, params, map_name, ref: Optional[dict],
                out: Outcome, stage: dict):
    """One instance x map verdict; stage times are added into ``stage``."""
    from wfgraph import absgraph, bakery, certify, measure
    op = f"{spec.backend}:{instance_key(params, map_name)}"
    out.attempted += 1
    text = bakery.bakery_text()
    try:
        t0 = time.perf_counter()
        g = absgraph.map_graph(model, map_name, spec.backend)
        t1 = time.perf_counter()
        tg = absgraph.tag_graph(model, map_name, g, spec.backend)
        t2 = time.perf_counter()
        om = measure.synthesize_omap(tg)
        t3 = time.perf_counter()
        cert = certify.certify_relation(model, map_name, tg, om, text,
                                        spec.backend)
        t4 = time.perf_counter()
    except Exception as e:  # one failed operation; the workload goes on
        out.fail(op, type(e).__name__, str(e))
        return
    stage["reach_s"] += t1 - t0
    stage["tag_s"] += t2 - t1
    stage["synth_s"] += t3 - t2
    stage["certify_s"] += t4 - t3
    stage["verdict_s"] += t4 - t0
    if ref is None:
        out.fail(op, "NoReference", "no recorded reference for this instance")
        return
    got = verdict_digest(g, tg, om, cert)
    want = dict(ref, cert_hashes_match=True)
    bad = sorted(k for k in want if got.get(k) != want[k])
    if bad:
        out.fail(op, "Mismatch", f"differs from the reference in {bad}")


def pipeline_pass(spec, models, order, refs, out, tracer=None) -> dict:
    stage = dict.fromkeys(
        ("verdict_s", "reach_s", "tag_s", "synth_s", "certify_s"), 0.0)
    for params, map_name in order:
        if tracer is not None:
            tracer.set_op(f"{spec.backend}:{instance_key(params, map_name)}")
        pipeline_op(spec, models[params], params, map_name,
                    refs["instances"].get(instance_key(params, map_name)),
                    out, stage)
    return stage


def run_pipeline(spec: Pipeline, seed: int, seconds: float, trace: bool,
                 refs: dict) -> Outcome:
    out = Outcome()
    params_list = sorted({p for p, _ in spec.ops})
    order = list(spec.ops)
    random.Random(seed).shuffle(order)

    if trace:
        measure_layers(out, lambda tracer: pipeline_pass(
            spec, parse_all(params_list), order, refs, out, tracer))
        return out

    def setup():
        imported = import_seconds()
        t0 = time.perf_counter()
        models = parse_all(params_list)
        return models, imported + time.perf_counter() - t0

    setups, passes = repeat_passes(
        setup, lambda models: pipeline_pass(spec, models, order, refs, out),
        seconds)
    out.metrics = {
        "verdict_s": (fmean(p["verdict_s"] for p in passes), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB")}
    out.figures = {
        name: (fmean(p[name] for p in passes), "s")
        for name in ("reach_s", "tag_s", "synth_s", "certify_s")}
    out.figures["passes"] = (len(passes), "count")
    return out


# -- monitored runs ----------------------------------------------------------

def monitored_pass(b, spec: Monitored, seeds, ref: dict, out: Outcome,
                   tracer=None) -> tuple[list, int]:
    times, steps = [], 0
    for s in seeds:
        op = f"run:{params_key(spec.params)}:seed={s}"
        if tracer is not None:
            tracer.set_op(op)
        out.attempted += 1
        try:
            t0 = time.perf_counter()
            res = b.run(seed=s)
            times.append(time.perf_counter() - t0)
        except Exception as e:  # one failed operation; the workload goes on
            out.fail(op, type(e).__name__, str(e))
            continue
        steps += res.steps
        if not all(tr.done for tr in res.final.trs):
            out.fail(op, "Mismatch", "a process is not done")
        elif res.steps != ref["steps"]:
            out.fail(op, "Mismatch",
                     f"{res.steps} steps, expected {ref['steps']}")
        elif trace_digest(res) != ref["traces"][s]:
            out.fail(op, "Mismatch", "trace differs from the reference")
    return times, steps


def run_monitored(spec: Monitored, seed: int, seconds: float, trace: bool,
                  refs: dict) -> Outcome:
    from wfgraph import bakery
    out = Outcome()
    ref = refs[params_key(spec.params)]
    seeds = random.Random(seed).sample(range(len(ref["traces"])), spec.runs)

    if trace:
        measure_layers(out, lambda tracer: monitored_pass(
            bakery.Bakery(*spec.params), spec, seeds, ref, out, tracer))
        return out

    def setup():
        t0 = time.perf_counter()
        b = bakery.Bakery(*spec.params)
        return b, time.perf_counter() - t0

    setups, passes = repeat_passes(
        setup, lambda b: monitored_pass(b, spec, seeds, ref, out), seconds)
    all_times = [t for times, _ in passes for t in times]
    all_steps = sum(steps for _, steps in passes)
    out.metrics = {
        "verdict_s": (sum(all_times) / len(passes), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if all_times:
        out.figures = {
            "run_s.p50": (median(all_times), "s"),
            "run_s.p90": (percentile(all_times, 90), "s"),
            "steps_per_s": (all_steps / sum(all_times), "1/s"),
            "runs": (len(all_times), "count"),
            "passes": (len(passes), "count"),
        }
    return out


# -- per-layer metrics -------------------------------------------------------

def measure_layers(out: Outcome, work):
    """Run ``work`` (set-up plus one pass) untraced, then traced, and keep
    the per-layer metrics of the traced round.  ``work`` takes the tracer,
    or None, to tag its operations."""
    t0 = time.perf_counter()
    work(None)
    untraced = time.perf_counter() - t0
    with Tracer() as tracer:
        tracer.set_op("setup")
        t0 = time.perf_counter()
        work(tracer)
        traced = time.perf_counter() - t0
    out.tracer = tracer
    summary = tracer.summary()
    if summary["negative_self"]:
        out.fail("trace", "NegativeSelfTime",
                 f"{summary['negative_self']} spans")
    out.metrics = layer_metrics(tracer, summary, traced, untraced)


def layer_metrics(tracer: Tracer, s: dict, traced_s: float,
                  untraced_s: float) -> dict:
    """Per boundary the call count and its busy and self time as a share of
    the traced wall time, plus the layers' work counters and the tracing
    overhead."""
    wall_ns = traced_s * 1e9
    m = {}
    for b in tracer.boundaries:
        m[b.calls_name or f"{b.key}_calls"] = (s["calls"][b.key], "count")
        m[f"{b.key}_busy_pct"] = (100 * s["busy_ns"][b.key] / wall_ns, "%")
        m[f"{b.key}_self_pct"] = (100 * s["self_ns"][b.key] / wall_ns, "%")
    c = s["counters"]
    for name in ("enumeration.values", "enumeration.solve_calls",
                 "veceval.rows", "veceval.distinct_values", "bitblast.vars",
                 "bitblast.clauses", "absgraph.nodes", "absgraph.arcs",
                 "bakery.steps"):
        m[name] = (c[name], "count")
    m["veceval.row_yield"] = (
        c["veceval.distinct_values"] / c["veceval.rows"]
        if c["veceval.rows"] else 0.0, "ratio")
    solves = s["calls"]["sat.solve"]
    m["sat.sat_share"] = (c["sat.sat_answers"] / solves if solves else 0.0,
                          "ratio")
    m["certify.sweep_cases"] = (s["sweep_cases"], "count")
    m["trace.spans"] = (len(tracer.spans), "count")
    m["trace.traced_s"] = (traced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return m


# -- run metadata and output -------------------------------------------------

def git_commit() -> Optional[str]:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def src_sha256() -> str:
    """Digest of the library sources, which identifies the code measured
    when the checkout is not a git work tree."""
    h = hashlib.sha256()
    for p in sorted((SRC / "wfgraph").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".wfm"):
            h.update(str(p.relative_to(SRC)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def run_metadata(workload: str, seed: int, seconds: float, trace: bool
                 ) -> dict:
    import numpy
    from wfgraph import bakery
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "model_sha256": sha256(bakery.bakery_text()),
            "git_commit": git_commit(), "src_sha256": src_sha256()}


def fmt(name, value, unit) -> str:
    return f"{name}={value:.6g} {unit}" if isinstance(value, float) else \
        f"{name}={value} {unit}"


def report(out: Outcome, meta: dict) -> dict:
    result = {
        "correct": not out.failures,
        "attempted": out.attempted,
        "failed": len(out.failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in out.metrics.items()},
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for f in out.failures:
        print(f"failed {f['op']}: {f['error']}: {f['detail']}")
    shown = dict(out.metrics, **out.figures)
    shown["failed_share"] = (len(out.failures) / max(out.attempted, 1),
                             "ratio")
    shown["attempted"] = (out.attempted, "count")
    for k, (v, u) in shown.items():
        print(fmt(k, v, u))
    OUT.mkdir(exist_ok=True)
    stem = f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}"
    with open(OUT / f"{stem}.json", "w") as f:
        json.dump({"meta": meta, "result": result, "failures": out.failures,
                   "figures": {k: {"value": v, "unit": u}
                               for k, (v, u) in out.figures.items()}},
                  f, indent=1)
    if out.tracer is not None:
        out.tracer.write(OUT / f"{stem}.spans.json.gz", meta)
    return result


def run_all(args) -> int:
    """Every workload, each in a fresh process; the worst exit code."""
    code = 0
    for name in WORKLOADS:
        r = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                            "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], cwd=ROOT)
        code = max(code, r.returncode)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        load_wfgraph()
        pipeline_refs, run_refs = load_refs()
    except (SetupError, ImportError) as e:
        print(f"run.py: cannot run the benchmark here: {e}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    trace = bool(args.trace)
    if isinstance(spec, Pipeline):
        out = run_pipeline(spec, args.seed, args.seconds, trace,
                           pipeline_refs)
    else:
        out = run_monitored(spec, args.seed, args.seconds, trace, run_refs)
    result = report(out, run_metadata(args.workload, args.seed,
                                      args.seconds, trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
