"""Batch front end: each pipeline stage as a subcommand, artifacts as files.

Exit codes: 0 on success, 2 when a verdict goes against the model (a
non-decreasing cycle, a failed certificate, a monitor violation), 1 for
usage and tool errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .absgraph import (
    graph_text,
    graph_to_dot,
    map_graph,
    tag_graph,
)
from .bakery import Bakery, bakery_text
from .bitblast import bitblast, dimacs
from .certify import (
    DescentError,
    certificate_text,
    certify_relation,
)
from .enumeration import BACKENDS
from .measure import (
    CycleCounterexample,
    SynthesisError,
    counterexample_report,
    counterexample_to_json,
    omap_from_json,
    omap_to_json,
    synthesize_omap,
    verify_counterexample,
)
from .model import Model, ModelError, parse_model
from .system import BakeryError, relation_parts

# every other library error (model, graph, enumeration bound or capacity,
# bitblast, ordinal, synthesis, certification) is a ValueError; the verdict
# errors are caught first
_TOOL_ERRORS = (ValueError, OSError)
_VERDICT_ERRORS = (CycleCounterexample, DescentError, BakeryError)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit(self._fail(message))

    def _fail(self, message: str) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return 1


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _params(args) -> dict[str, Optional[int]]:
    """The parameters given on the command line; None keeps the model's."""
    return {"n": args.n, "r": args.runs, "w": args.width}


def _load_model(args) -> tuple[Model, str]:
    if args.model is None:
        text = bakery_text()
    else:
        with open(args.model) as fh:
            text = fh.read()
    return parse_model(text, _params(args)), text


def _add_common(p: argparse.ArgumentParser, *, map_required: bool = True):
    p.add_argument("--model", help="model file (default: bundled bakery)")
    p.add_argument("--map", required=map_required,
                   help="abstraction map name")
    p.add_argument("--backend", choices=BACKENDS, default="exhaustive")
    _add_params(p)
    p.add_argument("--out", help="output file (default: stdout)")


def _add_params(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, help="process count parameter")
    p.add_argument("--runs", type=int, help="outer loop pass parameter")
    p.add_argument("--width", type=int, help="ticket counter bit width")


def _tagged(model: Model, map_name: str, backend: str):
    return tag_graph(model, map_name, map_graph(model, map_name, backend),
                     backend)


def _cmd_check(args) -> int:
    model, _ = _load_model(args)
    if args.dump_cnf:
        if args.map is None:
            raise ModelError("--dump-cnf needs --map to pick a relation")
        mp, rel, _, var_sorts = relation_parts(model, args.map)
        circuit = bitblast(mp.node, rel, var_sorts)
        _emit(dimacs(circuit), args.dump_cnf)
    maps = ", ".join(f"{n} ({model.map_decl(n).kind})"
                     for n in model.map_names)
    print(f"ok: model {model.name}, params "
          f"{dict(model.params)}, maps: {maps or 'none'}")
    return 0


def _cmd_reach(args) -> int:
    model, _ = _load_model(args)
    _emit(graph_text(map_graph(model, args.map, args.backend)), args.out)
    return 0


def _cmd_order(args) -> int:
    model, _ = _load_model(args)
    _emit(graph_text(_tagged(model, args.map, args.backend)), args.out)
    return 0


def _cmd_synth(args) -> int:
    model, _ = _load_model(args)
    tg = _tagged(model, args.map, args.backend)
    try:
        doc, code = omap_to_json(synthesize_omap(tg)), 0
    except CycleCounterexample as cc:
        if not verify_counterexample(tg, cc):
            raise SynthesisError(f"counterexample failed verification: {cc}")
        sys.stdout.write(counterexample_report(cc))
        if args.out is None:  # the report says it all
            return 2
        doc, code = counterexample_to_json(cc), 2
    doc["map"] = args.map
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return code


def _cmd_certify(args) -> int:
    model, text = _load_model(args)
    with open(args.omap) as fh:
        doc = json.load(fh)
    omap = omap_from_json(doc)
    map_name = args.map or doc.get("map")
    if not map_name:
        raise ModelError("omap names no map; pass --map")
    tg = _tagged(model, map_name, args.backend)
    cert = certify_relation(model, map_name, tg, omap, text, args.backend)
    _emit(certificate_text(cert), args.out)
    return 0 if cert.passed else 2


def _cmd_run(args) -> int:
    b = Bakery(**_params(args), backend=args.backend)
    res = b.run(seed=args.seed)
    _emit("".join(line + "\n" for line in res.trace), args.out)
    return 0


def _cmd_export_dot(args) -> int:
    model, _ = _load_model(args)
    tg = _tagged(model, args.map, args.backend)
    _emit(graph_to_dot(tg, title=args.map), args.out)
    return 0


def _build_parser() -> _Parser:
    ap = _Parser(prog="wfgraph",
                 description="prove relations over finite models well-founded")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="parse and typecheck a model")
    p.add_argument("--model")
    p.add_argument("--map", help="relation to dump with --dump-cnf")
    p.add_argument("--dump-cnf", help="write the relation circuit as DIMACS")
    _add_params(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("reach", help="abstract graph of a map")
    _add_common(p)
    p.set_defaults(fn=_cmd_reach)

    p = sub.add_parser("order", help="abstract graph with arc order tags")
    _add_common(p)
    p.set_defaults(fn=_cmd_order)

    p = sub.add_parser("synth", help="synthesize a measure for a map")
    _add_common(p)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("certify", help="independently certify an omap")
    _add_common(p, map_required=False)
    p.add_argument("--omap", required=True, help="omap JSON from synth")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("run", help="simulate the bundled bakery")
    _add_params(p)
    p.add_argument("--seed", type=int, help="seed for the choice oracle")
    p.add_argument("--backend", choices=BACKENDS, default="exhaustive")
    p.add_argument("--out", help="trace file (default: stdout)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("export-dot", help="tagged graph as Graphviz source")
    _add_common(p)
    p.set_defaults(fn=_cmd_export_dot)

    return ap


def cli_main(argv: Optional[list[str]] = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
        for flag in ("n", "runs", "width"):
            v = getattr(args, flag, None)
            if v is not None and v < 1:
                return ap._fail(f"--{flag} must be at least 1")
        return args.fn(args)
    except SystemExit:
        raise
    except _VERDICT_ERRORS as err:
        print(f"wfgraph: {err}", file=sys.stderr)
        return 2
    except _TOOL_ERRORS as err:
        print(f"wfgraph: error: {err}", file=sys.stderr)
        return 1
    except RecursionError:  # expressions are walked by recursion
        print("wfgraph: error: model nests too deeply", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    console_main()
