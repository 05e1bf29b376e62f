"""Smoke test of the benchmark on its smallest instances.

    python3 -m pytest perfbench/test_smoke.py -q

Runs rank at (1,1,2) on both backends and 3 seeded runs at (2,1,2), checks
that every metric is printed by name with its unit and that the result line
carries exactly the metrics BENCHMARK.json declares, and that a corrupted
reference is reported as a failed operation.
"""

import copy
import json

import pytest

import run

SMALL = {b: run.Pipeline(b, (((1, 1, 2), "rank"),))
         for b in ("exhaustive", "sat")}
SMALL_RUNS = run.Monitored((2, 1, 2), 3)

# every end-to-end figure the benchmark prints, by workload kind
PRINTED = {
    "pipeline": {"verdict_s": "s", "reach_s": "s", "tag_s": "s",
                 "certify_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                 "failed_share": "ratio", "attempted": "count"},
    "monitored": {"verdict_s": "s", "run_s.p50": "s", "run_s.p90": "s",
                  "steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
                  "failed_share": "ratio", "attempted": "count"},
}


@pytest.fixture(scope="module")
def refs():
    run.load_wfgraph()
    return run.load_refs()


@pytest.fixture(scope="module")
def declared():
    with open(run.ROOT / "BENCHMARK.json") as f:
        doc = json.load(f)
    return {kind: {m["name"]: m["unit"] for m in doc[kind]}
            for kind in ("end_to_end", "per_layer")}


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)


def report(out, capsys):
    meta = {"workload": "smoke", "seed": 0, "trace": 0}
    capsys.readouterr()
    result = run.report(out, meta)
    return result, capsys.readouterr().out.splitlines()


def assert_printed(lines, names):
    for name, unit in names.items():
        hits = [ln for ln in lines if ln.startswith(f"{name}=")]
        assert len(hits) == 1, name
        value, got_unit = hits[0][len(name) + 1:].split(" ")
        float(value)
        assert got_unit == unit, name


def assert_declared(result, names):
    assert {k: m["unit"] for k, m in result["metrics"].items()} == names
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


@pytest.mark.parametrize("backend", sorted(SMALL))
def test_pipeline_metrics(refs, declared, backend, capsys):
    out = run.run_pipeline(SMALL[backend], 0, 0, False, refs[0])
    result, lines = report(out, capsys)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1
    assert_declared(result, declared["end_to_end"])
    assert_printed(lines, PRINTED["pipeline"])


def test_monitored_metrics(refs, declared, capsys):
    out = run.run_monitored(SMALL_RUNS, 0, 0, False, refs[1])
    result, lines = report(out, capsys)
    assert result["correct"] and result["attempted"] == 3
    assert_declared(result, declared["end_to_end"])
    assert_printed(lines, PRINTED["monitored"])


@pytest.mark.parametrize("which", ["pipeline", "monitored"])
def test_traced_metrics(refs, declared, which, capsys):
    if which == "pipeline":
        out = run.run_pipeline(SMALL["sat"], 0, 0, True, refs[0])
    else:
        out = run.run_monitored(SMALL_RUNS, 0, 0, True, refs[1])
    result, lines = report(out, capsys)
    assert result["correct"]
    assert_declared(result, declared["per_layer"])
    assert_printed(lines, declared["per_layer"])
    assert out.tracer.summary()["negative_self"] == 0
    assert list(run.OUT.glob("*.spans.json.gz"))


def test_corrupted_instance_reference_fails(refs, capsys):
    bad = copy.deepcopy(refs[0])
    bad["instances"]["1,1,2/rank"]["omap_sha256"] = "0" * 64
    out = run.run_pipeline(SMALL["exhaustive"], 0, 0, False, bad)
    result, lines = report(out, capsys)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert out.failures[0]["error"] == "Mismatch"
    assert any(ln.startswith("failed ") for ln in lines)


def test_corrupted_trace_reference_fails(refs, capsys):
    bad = copy.deepcopy(refs[1])
    bad["2,1,2"]["traces"][1] = "0" * 64
    out = run.run_monitored(SMALL_RUNS, 0, 0, False, bad)
    result, _ = report(out, capsys)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (3, 1)


def test_operation_exception_is_one_failure(refs, monkeypatch):
    from wfgraph import absgraph

    def broken(*args, **kwargs):
        raise absgraph.NotTotal("step", 1)

    monkeypatch.setattr(absgraph, "map_graph", broken)
    out = run.run_pipeline(SMALL["exhaustive"], 0, 0, False, refs[0])
    assert [f["error"] for f in out.failures] == ["NotTotal"]
    assert out.attempted == 1


def test_checkout_without_sources_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path)
    with pytest.raises(run.SetupError):
        run.load_wfgraph()
