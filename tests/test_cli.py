"""Command line surface: exit codes, artifact files, and rerun stability.

Everything drives cli_main in process; one subprocess test confirms the
installed console script wires up the same entry point.
"""

import hashlib
import json
import shutil
import subprocess

import pytest

import wfgraph.cli as cli
from wfgraph import enumeration, veceval
from wfgraph import bakery
from wfgraph.bakery import Bakery, bakery_model, bakery_text
from wfgraph.certify import DescentError
from wfgraph.cli import cli_main
from wfgraph.enumeration import BACKENDS
from wfgraph.measure import CycleCounterexample, Omap
from wfgraph.model import NatV

CHECK_LINE = ("ok: model bakery, params {'n': 2, 'r': 2, 'w': 3}, "
              "maps: rank (step), nlock (blok)\n")


def test_check_default(capsys):
    assert cli_main(["check"]) == 0
    assert capsys.readouterr().out == CHECK_LINE


def test_check_param_override(capsys):
    assert cli_main(["check", "--width", "2", "--runs", "1"]) == 0
    out = capsys.readouterr().out
    assert "params {'n': 2, 'r': 1, 'w': 2}" in out


def test_check_reads_model_file(tmp_path, capsys):
    f = tmp_path / "copy.wfm"
    f.write_text(bakery_text())
    assert cli_main(["check", "--model", str(f)]) == 0
    assert capsys.readouterr().out == CHECK_LINE


def test_check_dump_cnf(tmp_path, capsys):
    out = tmp_path / "rel.cnf"
    assert cli_main(["check", "--map", "rank", "--dump-cnf", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0].startswith("p cnf ")
    assert lines[1] == "1 0"  # the reserved TRUE literal
    assert all(l.endswith(" 0") for l in lines[1:])


# sha256 of each relation's DIMACS text at (2,2,3): the encoding (variable
# numbering, gates, clause order) changes only when a change says so
CNF_SHA256 = {
    "rank": ("p cnf 26 8", "3d97b4324f93b4b481aad1dace1573628249066d"
                           "06028855d013f4c8745afbc4"),
    "nlock": ("p cnf 125 286", "ba33f8f813a392a732a92b15e0fe375e245e65b6"
                               "4929bc828baa0cc6e79e3142"),
}


@pytest.mark.parametrize("map_name", CNF_SHA256)
def test_dump_cnf_is_pinned(map_name, tmp_path, capsys):
    out = tmp_path / "rel.cnf"
    assert cli_main(["check", "--map", map_name, "--n", "2", "--runs", "2",
                     "--width", "3", "--dump-cnf", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    header, digest = CNF_SHA256[map_name]
    assert text.splitlines()[0] == header
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_dump_cnf_needs_map(capsys):
    assert cli_main(["check", "--dump-cnf", "x.cnf"]) == 1
    assert "needs --map" in capsys.readouterr().err


def test_pipeline_artifacts_and_idempotence(tmp_path, capsys):
    args = ["--width", "2", "--out"]
    g1 = tmp_path / "g.json"
    assert cli_main(["reach", "--map", "rank"] + args + [str(g1)]) == 0
    tg1 = tmp_path / "tg.json"
    assert cli_main(["order", "--map", "rank"] + args + [str(tg1)]) == 0
    om1 = tmp_path / "om.json"
    assert cli_main(["synth", "--map", "rank"] + args + [str(om1)]) == 0
    dot1 = tmp_path / "g.dot"
    assert cli_main(["export-dot", "--map", "rank"] + args + [str(dot1)]) == 0

    # rerunning writes byte-identical artifacts
    g2 = tmp_path / "g2.json"
    assert cli_main(["reach", "--map", "rank"] + args + [str(g2)]) == 0
    assert g1.read_bytes() == g2.read_bytes()

    plain = json.loads(g1.read_text())
    assert len(plain["nodes"]) == 21 and len(plain["arcs"]) == 23
    tagged = json.loads(tg1.read_text())
    assert tagged["measures"] == ["runs", "loop"]

    omdoc = json.loads(om1.read_text())
    assert omdoc["map"] == "rank"
    assert len(omdoc["descriptors"]) == 21

    assert dot1.read_text().startswith('digraph "rank" {')
    capsys.readouterr()


def test_synth_to_stdout(capsys):
    assert cli_main(["synth", "--map", "rank", "--width", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "wfgraph-omap-v1"


def test_certify_infers_map_from_omap(tmp_path, capsys):
    om = tmp_path / "om.json"
    assert cli_main(["synth", "--map", "rank", "--width", "2",
                     "--out", str(om)]) == 0
    cert = tmp_path / "cert.json"
    assert cli_main(["certify", "--omap", str(om), "--width", "2",
                     "--out", str(cert)]) == 0
    doc = json.loads(cert.read_text())
    assert doc["pass"] is True
    assert doc["map"] == "rank"
    assert [c["name"] for c in doc["checks"]] == [
        "closure", "strict-arc-decrease", "noninc-arc-nonincrease",
        "omap-valid", "measure-decrease"]
    capsys.readouterr()


def test_certify_requires_some_map(tmp_path, capsys):
    om = tmp_path / "om.json"
    assert cli_main(["synth", "--map", "rank", "--width", "2",
                     "--out", str(om)]) == 0
    doc = json.loads(om.read_text())
    del doc["map"]
    om.write_text(json.dumps(doc))
    assert cli_main(["certify", "--omap", str(om), "--width", "2"]) == 1
    assert "pass --map" in capsys.readouterr().err


@pytest.fixture(scope="module")
def rank_omap_doc(tmp_path_factory):
    om = tmp_path_factory.mktemp("omap") / "om.json"
    assert cli_main(["synth", "--map", "rank", "--width", "2",
                     "--out", str(om)]) == 0
    return json.loads(om.read_text())


def test_malformed_omap_is_a_one_line_error(rank_omap_doc, tmp_path,
                                            capsys):
    doc = rank_omap_doc
    cases = {"not an object": [],
             "no nodes": {"format": "wfgraph-omap-v1", "map": "rank"}}
    for key in ("nodes", "descriptors", "measures", "widths"):
        cases[f"no {key}"] = {k: v for k, v in doc.items() if k != key}
        cases[f"{key} not a container"] = dict(doc, **{key: 7})
    cases["node not a value"] = dict(doc, nodes=[{"n": 1}] + doc["nodes"][1:])
    cases["descriptor not a list"] = dict(
        doc, descriptors=["ab"] + doc["descriptors"][1:])
    cases["measure not a name"] = dict(doc, measures=[1])
    cases["descriptor names no measure of the omap"] = dict(
        doc, descriptors=[["zzz"] + d for d in doc["descriptors"]])
    # every reader of an omap takes one descriptor per node
    cases["node listed twice"] = dict(
        doc, nodes=doc["nodes"] + doc["nodes"][:1],
        descriptors=[[0]] + doc["descriptors"][1:] + doc["descriptors"][:1])
    cases["width not a natural"] = dict(
        doc, widths={k: str(w) for k, w in doc["widths"].items()})
    # a node that is a value, but not of the map's node sort
    loc, done, *rest = doc["nodes"][0]["t"]
    assert (loc, done) == (["loc", {"n": 0, "w": 5}], ["done", {"b": False}])
    off_sort = {"node width changed": {"t": [["loc", {"n": 0, "w": 9}],
                                             done, *rest]},
                "node field renamed": {"t": [loc, ["dome", done[1]], *rest]},
                "node field dropped": {"t": [loc, *rest]},
                "node a scalar": {"n": 0, "w": 5}}
    for name, node in off_sort.items():
        cases[name] = dict(doc, nodes=[node] + doc["nodes"][1:])
    # entries of another JSON type are refused, not coerced into some node
    coerced = {"nat a float": ["loc", {"n": 1.9, "w": 5}],
               "bool a string": ["done", {"b": "no"}],
               "nat strings": ["loc", {"n": "3", "w": "5"}],
               "nat a bool": ["loc", {"n": True, "w": 5}]}
    for name, entry in coerced.items():
        items = [entry if item[0] == entry[0] else item
                 for item in doc["nodes"][0]["t"]]
        cases[name] = dict(doc, nodes=[{"t": items}] + doc["nodes"][1:])
    om = tmp_path / "om.json"
    for backend in ("exhaustive", "sat"):
        for name, bad in cases.items():
            om.write_text(json.dumps(bad))
            assert cli_main(["certify", "--omap", str(om), "--width", "2",
                             "--backend", backend]) == 1, (backend, name)
            err = capsys.readouterr().err
            assert err.startswith("wfgraph: error: "), (backend, name, err)
            assert err.count("\n") == 1 and "Traceback" not in err, \
                (backend, name, err)
            if name in off_sort:
                assert "is not a node of map 'rank'" in err, (backend, name)
            if name in coerced:
                assert "bad omap node" in err, (backend, name)


@pytest.mark.parametrize("edit", ["rename", "widths"])
def test_omap_for_other_measures_is_refused(edit, rank_omap_doc, tmp_path,
                                            capsys):
    # an omap whose measures or widths are not the map's own is refused
    # before any check runs, with both declarations named
    doc = json.loads(json.dumps(rank_omap_doc))
    if edit == "rename":
        doc = json.loads(json.dumps(doc).replace('"loop"', '"fuel"'))
        assert doc["measures"] == ["runs", "fuel"]
    else:
        doc["widths"] = {"runs": 2, "loop": 1}
    om = tmp_path / "om.json"
    om.write_text(json.dumps(doc))
    assert cli_main(["certify", "--omap", str(om), "--width", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wfgraph: error: omap measures ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(doc["measures"]) in err and "['runs', 'loop']" in err


def test_certify_nlock_passes(tmp_path, capsys):
    om = tmp_path / "om.json"
    assert cli_main(["synth", "--map", "nlock", "--width", "2",
                     "--out", str(om)]) == 0
    assert cli_main(["certify", "--omap", str(om), "--width", "2"]) == 0
    capsys.readouterr()


def test_negative_descriptor_entry_is_refused(tmp_path, capsys):
    # the node touches no arc, so no case of the sweep builds its bnl: only
    # the refusal before any check sees the negative entry
    inst = ["--map", "nlock", "--n", "2", "--runs", "2", "--width", "3"]
    om, g = tmp_path / "om.json", tmp_path / "g.json"
    assert cli_main(["synth", *inst, "--out", str(om)]) == 0
    assert cli_main(["reach", *inst, "--out", str(g)]) == 0
    doc, graph = json.loads(om.read_text()), json.loads(g.read_text())
    touched = {i for arc in graph["arcs"] for i in arc}
    untouched = [node for i, node in enumerate(graph["nodes"])
                 if i not in touched]
    assert len(untouched) == 42
    doc["descriptors"][doc["nodes"].index(untouched[0])] = [-1, 0]
    om.write_text(json.dumps(doc))
    assert cli_main(["certify", *inst, "--omap", str(om)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wfgraph: error: omap descriptor [-1, 0] of ")
    assert err.count("\n") == 1 and "Traceback" not in err


def _mutant(tmp_path, name, old, new):
    text = bakery_text()
    assert old in text, "transform target drifted"
    f = tmp_path / name
    f.write_text(text.replace(old, new))
    return f


def test_synth_rejects_runs_decrement_removed(tmp_path, capsys):
    # the outer loop no longer counts down, so the progress cycle through
    # loc 15 never decreases anything
    f = _mutant(tmp_path, "mut_runs.wfm",
                "(14 (update a :loc 15 :runs (1- a.runs)))",
                "(14 (update a :loc 15))")
    assert cli_main(["synth", "--map", "rank", "--model", str(f),
                     "--width", "2"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("non-decreasing cycle of 16 arcs:")
    assert "(:loc 15)" in out and "(:loc 0)" in out
    # with --out the same report is printed and the cycle written as JSON
    cx = tmp_path / "cx.json"
    assert cli_main(["synth", "--map", "rank", "--model", str(f),
                     "--width", "2", "--out", str(cx)]) == 2
    assert capsys.readouterr().out == out
    doc = json.loads(cx.read_text())
    assert (doc["format"], doc["map"]) == ("wfgraph-counterexample-v1", "rank")
    texts = doc["cycle_texts"]
    assert len(doc["cycle"]) == len(texts) == len(doc["arc_tags"]) + 1 == 17
    arcs = [f"  {u} -> {v}  "
            f"[{' '.join(f'{k}:{t}' for k, t in sorted(tags.items()))}]\n"
            for u, v, tags in zip(texts, texts[1:], doc["arc_tags"])]
    assert out == "non-decreasing cycle of 16 arcs:\n" + "".join(arcs)


def test_synth_rejects_truncated_nlock_measures(tmp_path, capsys):
    # without the position measure the waiting chain at loc 10 only ties
    f = _mutant(tmp_path, "mut_nlock.wfm",
                "    (measure pos (tuple a.pos))\n", "")
    assert cli_main(["synth", "--map", "nlock", "--model", str(f),
                     "--width", "2"]) == 2
    out = capsys.readouterr().out
    assert "non-decreasing cycle" in out
    assert "ndx:may-inc" in out


def test_run_trace(tmp_path, capsys):
    out = tmp_path / "trace.txt"
    assert cli_main(["run", "--width", "2", "--runs", "1", "--seed", "3",
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines and all(l.startswith("step ") for l in lines)
    assert " measure " in lines[-1]
    out2 = tmp_path / "trace2.txt"
    assert cli_main(["run", "--width", "2", "--runs", "1", "--seed", "3",
                     "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()
    # the sat backend synthesizes the same measures, so the same trace
    out3 = tmp_path / "trace3.txt"
    assert cli_main(["run", "--width", "2", "--runs", "1", "--seed", "3",
                     "--backend", "sat", "--out", str(out3)]) == 0
    assert out3.read_bytes() == out.read_bytes()
    capsys.readouterr()


def test_unset_parameters_come_from_the_model(monkeypatch, capsys):
    # the default bakery instance is declared once, by the model's params:
    # Bakery, bakery_model and `run` leave every unset parameter to it
    b = Bakery(r=1, w=2)
    assert (b.n, b.r, b.w) == (2, 1, 2)
    declared = "(params (n 2) (r 2) (w 3))"
    text = bakery_text()
    assert declared in text, "transform target drifted"
    monkeypatch.setattr(bakery, "bakery_text", lambda: text.replace(
        declared, "(params (n 2) (r 1) (w 2))"))
    assert dict(bakery_model().params) == {"n": 2, "r": 1, "w": 2}
    assert cli_main(["run", "--seed", "3"]) == 0
    implicit = capsys.readouterr().out
    assert cli_main(["run", "--seed", "3", "--runs", "1", "--width", "2"]) == 0
    assert capsys.readouterr().out == implicit


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as e:
        cli_main([])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        cli_main(["frobnicate"])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        cli_main(["reach"])  # --map is required
    assert e.value.code == 1
    capsys.readouterr()
    for backend in ("quantum", "ipasir"):
        with pytest.raises(SystemExit) as e:
            cli_main(["reach", "--map", "rank", "--backend", backend])
        assert e.value.code == 1
        err = capsys.readouterr().err
        assert [l for l in err.splitlines() if "error" in l] == [
            f"wfgraph reach: error: argument --backend: invalid choice: "
            f"'{backend}' (choose from 'exhaustive', 'sat')"]
        assert "Traceback" not in err


def test_tool_errors_exit_1(tmp_path, capsys, monkeypatch):
    assert cli_main(["reach", "--map", "bogus"]) == 1
    assert cli_main(["reach", "--map", "rank",
                     "--model", str(tmp_path / "missing.wfm")]) == 1
    assert cli_main(["run", "--n", "0"]) == 1
    err = capsys.readouterr().err
    assert "error" in err
    # no flag sets a value budget
    with pytest.raises(SystemExit) as e:
        cli_main(["synth", "--map", "rank", "--num", "4096"])
    assert e.value.code == 1
    capsys.readouterr()
    # a query that reaches the one value bound is a one-line tool error: at
    # (2,1,2) nlock's tag image has 196 values and its sweep 2,816 cases
    inst = ["--map", "nlock", "--runs", "1", "--width", "2"]
    for backend in BACKENDS:
        om = tmp_path / f"om-{backend}.json"
        assert cli_main(["synth", *inst, "--backend", backend,
                         "--out", str(om)]) == 0
        monkeypatch.setattr(enumeration, "VALUE_BOUND", 500)
        assert cli_main(["certify", *inst, "--backend", backend,
                         "--omap", str(om)]) == 1
        monkeypatch.setattr(enumeration, "VALUE_BOUND", 2)
        assert cli_main(["reach", "--map", "rank", "--width", "2",
                         "--backend", backend]) == 1
        monkeypatch.undo()
        assert capsys.readouterr().err == (
            "wfgraph: error: certificate sweep enumeration exceeded the "
            "bound of 500 values; the abstraction is too large\n"
            "wfgraph: error: step enumeration exceeded the bound of 2 "
            "values; the abstraction is too large\n")


def test_natural_constant_past_int64_is_a_tool_error(tmp_path, capsys):
    # a map node reading a 64-bit constant of 2^63: the exhaustive backend
    # refuses the constant, sat the 64-bit output natural
    f = _mutant(tmp_path, "big.wfm", "(:inv (counters-ok a)))",
                "(:inv (counters-ok a)) (:big (big)))")
    text, anchor = f.read_text(), "(define done ((a proc)) bool a.done)"
    assert anchor in text, "transform target drifted"
    f.write_text(text.replace(anchor, anchor + "\n  (define big () (nat 64) "
                              "9223372036854775808)"))
    for backend, msg in (
            ("exhaustive", "the natural constant 9223372036854775808 does not "
                           "fit an int64 column"),
            ("sat", "an output natural of 64 bits is wider than an int64 "
                    "code's 63")):
        assert cli_main(["reach", "--map", "rank", "--model", str(f),
                         "--backend", backend]) == 1
        assert capsys.readouterr().err == f"wfgraph: error: {msg}\n"


def test_default_flags_certify_a_180224_case_sweep(tmp_path, capsys):
    # nlock (2,3,5)'s certificate sweep has 180,224 cases; every query runs
    # under the one value bound, so default flags certify it
    inst = ["--map", "nlock", "--n", "2", "--runs", "3", "--width", "5"]
    om = tmp_path / "om.json"
    assert cli_main(["synth", *inst, "--out", str(om)]) == 0
    assert cli_main(["certify", *inst, "--omap", str(om)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_model_without_system_is_a_tool_error(tmp_path, capsys):
    # a map's relation is defined by the system declaration, so a graph and
    # a relation dump both need one
    f = tmp_path / "nosys.wfm"
    f.write_text("(model nosys\n  (sort proc (x (nat 2)))\n"
                 "  (map m ((a proc)) (kind step) (node (:x a.x))\n"
                 "    (measure x (tuple a.x))))\n")
    for argv in (["reach"], ["check", "--dump-cnf", str(tmp_path / "m.cnf")]):
        assert cli_main([*argv, "--map", "m", "--model", str(f)]) == 1
        assert capsys.readouterr().err == \
            "wfgraph: error: model 'nosys' declares no system\n"


def test_deep_nesting_is_a_tool_error(tmp_path, capsys):
    # expressions are elaborated, compiled and translated by recursion, one
    # level per nesting level: a chain past Python's limit is a one-line
    # tool error, not a traceback
    f = tmp_path / "deep.wfm"
    f.write_text("(model deep\n  (sort s (x (nat 2)))\n"
                 "  (define p ((a s)) bool " + "(not " * 1000 + "(= a.x 0)"
                 + ")" * 1000 + "))\n")
    assert cli_main(["check", "--model", str(f)]) == 1
    assert capsys.readouterr().err == \
        "wfgraph: error: model nests too deeply\n"


def test_both_backends_run_a_400_deep_rank_node(tmp_path, capsys):
    # each nesting level costs the sat encoder as many frames as the
    # scalarizer every backend runs first, so a model that reach runs on
    # exhaustive is not too deep for sat
    text = bakery_text()
    d = 400
    deep = text.replace("(:inv (counters-ok a)))", "(:inv " + "(not " * d
                        + "(counters-ok a)" + ")" * d + "))")
    assert deep != text
    f = tmp_path / "deep.wfm"
    f.write_text(deep)
    out = {}
    for backend in BACKENDS:
        assert cli_main(["reach", "--backend", backend, "--map", "rank",
                         "--model", str(f)]) == 0, capsys.readouterr().err
        out[backend] = capsys.readouterr().out
    assert out["sat"] == out["exhaustive"]
    # an even chain of negations keeps every node's value
    assert cli_main(["reach", "--map", "rank"]) == 0
    assert capsys.readouterr().out == out["exhaustive"]


def test_capacity_is_a_tool_error(monkeypatch, capsys):
    # a query whose table passes a lowered row cap is one line naming the
    # query: at (2,2,2) rank's step table has 512 rows, nlock's domain
    # table 128 and its relation table 2,816
    for cap, map_name, what, rows in ((64, "rank", "step", 512),
                                      (64, "nlock", "domain", 128),
                                      (1000, "nlock", "relation", 2816)):
        monkeypatch.setattr(veceval, "DEFAULT_ROW_CAP", cap)
        assert cli_main(["reach", "--map", map_name, "--width", "2"]) == 1
        assert capsys.readouterr().err == (
            f"wfgraph: error: {what} enumeration needs {rows} rows, "
            f"cap is {cap}\n")


def test_descent_error_is_a_verdict(monkeypatch, capsys):
    # a failed run monitor exits 2 although DescentError, like every
    # library error, is a ValueError: verdicts are caught first
    assert issubclass(DescentError, ValueError)

    class Tampered(Bakery):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            om = self.rank_omap
            d = list(om.descriptors)
            d[0], d[1] = (d[0][0], d[1][1]), (d[1][0], d[0][1])
            self.rank_omap = Omap(tuple(d), om.measures, om.widths)

    monkeypatch.setattr(cli, "Bakery", Tampered)
    assert cli_main(["run", "--width", "2", "--runs", "1", "--seed", "3"]) \
        == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("wfgraph: rank measure failed to fall at "
                              "step 1: ")
    assert out.err.count("\n") == 1


def test_sum_past_int64_prints_no_warning(tmp_path, capsys):
    # a rank node reading the sum of two 63-bit constants: the exhaustive
    # backend's scalar sum passes int64 and wraps, which the mask undoes,
    # so both backends print the same graph and nothing on stderr
    f = _mutant(tmp_path, "sum.wfm", "(:inv (counters-ok a)))",
                "(:inv (counters-ok a)) (:big (+ (big) (big))))")
    text, anchor = f.read_text(), "(define done ((a proc)) bool a.done)"
    assert anchor in text, "transform target drifted"
    f.write_text(text.replace(anchor, anchor + "\n  (define big () (nat 63) "
                              "9223372036854775807)"))
    outs = []
    for backend in BACKENDS:
        assert cli_main(["reach", "--map", "rank", "--model", str(f),
                         "--backend", backend]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        outs.append(out.out)
    assert outs[0] == outs[1]
    texts = json.loads(outs[0])["node_texts"]
    assert texts and all("(:big 9223372036854775806)" in t for t in texts)


def test_synth_refuses_unverified_counterexample(monkeypatch, capsys):
    def bogus(tg):  # a "cycle" that is not closed and not in the graph
        raise CycleCounterexample([NatV(0, 1), NatV(1, 1)], [{}])

    monkeypatch.setattr(cli, "synthesize_omap", bogus)
    assert cli_main(["synth", "--map", "rank", "--width", "2"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "counterexample failed verification" in out.err


def test_non_covering_omap_fails_as_a_check(tmp_path, capsys):
    om = tmp_path / "om.json"
    assert cli_main(["synth", "--map", "nlock", "--width", "2",
                     "--out", str(om)]) == 0
    tg = tmp_path / "tg.json"
    assert cli_main(["order", "--map", "nlock", "--width", "2",
                     "--out", str(tg)]) == 0
    graph = json.loads(tg.read_text())
    doc = json.loads(om.read_text())
    k = graph["arcs"][0][1]  # a node with an incoming arc
    dropped = doc["node_texts"][k]
    for key in ("nodes", "node_texts", "descriptors"):
        del doc[key][k]
    om.write_text(json.dumps(doc))
    cert = tmp_path / "cert.json"
    assert cli_main(["certify", "--omap", str(om), "--width", "2",
                     "--out", str(cert)]) == 2
    checks = {c["name"]: c for c in json.loads(cert.read_text())["checks"]}
    assert not checks["omap-valid"]["pass"]
    assert checks["omap-valid"]["witness"]["node"] == dropped
    assert checks["omap-valid"]["witness"]["reason"] == "node not in omap"
    capsys.readouterr()


def test_console_script(tmp_path):
    exe = shutil.which("wfgraph")
    assert exe, "console script not installed"
    r = subprocess.run([exe, "check"], capture_output=True, text=True)
    assert r.returncode == 0
    assert r.stdout == CHECK_LINE
