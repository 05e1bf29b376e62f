"""Finite-domain model language.

A model declares record sorts over booleans, fixed-width naturals, and
enumerations, plus named total functions, abstraction maps, and the system
wiring (init / next / shared-next / blok / done).  Expressions are elaborated
against declared sorts at parse time, so every ``Expr`` reaching the
evaluator or the CNF translator is well-sorted by construction.

The surface syntax is s-expressions (see ``sexpr``).  ``a.field`` reads a
record field, ``(update a :f e ...)`` copies a record with fields replaced,
``t`` / ``nil`` are the boolean literals, and ``(case e (0 ...) (t ...))``
dispatches on a natural with a mandatory default arm.

Evaluation compiles: ``compile_expr`` turns an expression into a Python
closure in one pass, one closure per node, and a caller that evaluates an
expression many times (the abstraction functions, the run monitor) compiles
it once and calls the closure.  ``eval_expr`` is compile-then-call, for
one-shot evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

from .sexpr import SExpr, SExprError, parse_sexprs, pretty, lst, sym, kw, num


# ---------------------------------------------------------------------------
# errors


class ModelError(ValueError):
    """Base for all model-language errors; may carry a source position."""

    def __init__(self, message: str, pos: Optional[tuple[int, int]] = None):
        if pos is not None:
            super().__init__(f"{pos[0]}:{pos[1]}: {message}")
        else:
            super().__init__(message)
        self.message = message
        self.pos = pos


class ParseError(ModelError):
    pass


class SortError(ModelError):
    pass


class EvalError(ModelError):
    pass


# ---------------------------------------------------------------------------
# sorts


@dataclass(frozen=True)
class BoolSort:
    def __repr__(self):
        return "BoolSort()"


@dataclass(frozen=True)
class NatSort:
    width: int

    def __post_init__(self):
        if self.width < 1:
            raise SortError("nat width must be at least 1")


@dataclass(frozen=True)
class EnumSort:
    syms: tuple[str, ...]

    def __post_init__(self):
        if len(self.syms) < 1:
            raise SortError("enum needs at least one symbol")
        if len(set(self.syms)) != len(self.syms):
            raise SortError("duplicate enum symbol")


@dataclass(frozen=True)
class TupleSort:
    """Ordered fields; names are set for records and node sorts, None for
    plain tuples such as measure vectors."""

    fields: tuple[tuple[Optional[str], "Sort"], ...]

    def field_sort(self, name: str) -> "Sort":
        for fname, fsort in self.fields:
            if fname == name:
                return fsort
        raise SortError(f"unknown field '{name}'")

    def has_field(self, name: str) -> bool:
        return any(fname == name for fname, _ in self.fields)


Sort = Union[BoolSort, NatSort, EnumSort, TupleSort]

BOOL = BoolSort()


def sort_bits(s: Sort) -> int:
    """Number of bits in the encoding of a value of sort ``s``."""
    if isinstance(s, BoolSort):
        return 1
    if isinstance(s, NatSort):
        return s.width
    if isinstance(s, EnumSort):
        return max(1, (len(s.syms) - 1).bit_length())
    return sum(sort_bits(fs) for _, fs in s.fields)


def sort_card(s: Sort) -> int:
    """Number of distinct values of sort ``s``."""
    if isinstance(s, BoolSort):
        return 2
    if isinstance(s, NatSort):
        return 1 << s.width
    if isinstance(s, EnumSort):
        return len(s.syms)
    n = 1
    for _, fs in s.fields:
        n *= sort_card(fs)
    return n


def sort_text(s: Sort) -> str:
    if isinstance(s, BoolSort):
        return "bool"
    if isinstance(s, NatSort):
        return f"(nat {s.width})"
    if isinstance(s, EnumSort):
        return "(enum " + " ".join(s.syms) + ")"
    parts = []
    for fname, fsort in s.fields:
        if fname is None:
            parts.append(sort_text(fsort))
        else:
            parts.append(f"({fname} {sort_text(fsort)})")
    return "(tuple " + " ".join(parts) + ")"


# ---------------------------------------------------------------------------
# values


@dataclass(frozen=True)
class BoolV:
    val: bool


@dataclass(frozen=True)
class NatV:
    val: int
    width: int

    def __post_init__(self):
        if self.width < 1:
            raise ModelError("nat width must be at least 1")
        if not (0 <= self.val < (1 << self.width)):
            raise ModelError(f"natural {self.val} out of range for width {self.width}")


@dataclass(frozen=True)
class EnumV:
    sym: str
    syms: tuple[str, ...]

    def __post_init__(self):
        if self.sym not in self.syms:
            raise ModelError(f"enum symbol '{self.sym}' not among {self.syms}")

    @property
    def index(self) -> int:
        return self.syms.index(self.sym)


@dataclass(frozen=True)
class TupleV:
    items: tuple[tuple[Optional[str], "Value"], ...]

    def get(self, name: str) -> "Value":
        for iname, ival in self.items:
            if iname == name:
                return ival
        raise EvalError(f"unknown field '{name}'")

    def __getattr__(self, name: str):
        """Read-only attribute view of the named fields (``v.pos_valid`` reads
        ``pos-valid``; a bool or nat field comes back as ``bool``/``int``).
        The library reads with ``get``; ``perfbench/run.py`` reads ``done``."""
        if name == "items" or name.startswith("__"):
            raise AttributeError(name)
        fname = name.replace("_", "-")
        for iname, ival in self.items:
            if iname == fname:
                return ival.val if isinstance(ival, (BoolV, NatV)) else ival
        raise AttributeError(f"no field '{fname}'")


Value = Union[BoolV, NatV, EnumV, TupleV]


def value_key(v: Value):
    """Total canonical order key: by kind, then content, recursively."""
    if isinstance(v, BoolV):
        return (0, int(v.val))
    if isinstance(v, NatV):
        return (1, v.width, v.val)
    if isinstance(v, EnumV):
        return (2, v.syms, v.index)
    return (3, tuple((n or "", value_key(x)) for n, x in v.items))


def canonical_sorted(values: Iterable[Value]) -> list[Value]:
    return sorted(values, key=value_key)


def value_text(v: Value) -> str:
    """Render a value in the surface syntax."""
    if isinstance(v, BoolV):
        return "t" if v.val else "nil"
    if isinstance(v, NatV):
        return str(v.val)
    if isinstance(v, EnumV):
        return v.sym
    parts = []
    for name, item in v.items:
        if name is None:
            parts.append(value_text(item))
        else:
            parts.append(f"(:{name} {value_text(item)})")
    return "(" + " ".join(parts) + ")"


def value_to_json(v: Value):
    if isinstance(v, BoolV):
        return {"b": v.val}
    if isinstance(v, NatV):
        return {"n": v.val, "w": v.width}
    if isinstance(v, EnumV):
        return {"e": v.sym, "of": list(v.syms)}
    return {"t": [[name, value_to_json(item)] for name, item in v.items]}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def value_from_json(obj) -> Value:
    """The value that ``value_to_json`` wrote as ``obj``.  Entries are
    read as they are, never coerced: anything else raises ModelError."""
    if isinstance(obj, dict):
        if isinstance(obj.get("b"), bool):
            return BoolV(obj["b"])
        if _is_int(obj.get("n")) and _is_int(obj.get("w")):
            return NatV(obj["n"], obj["w"])
        of = obj.get("of")
        if isinstance(obj.get("e"), str) and isinstance(of, list) \
                and all(isinstance(s, str) for s in of):
            return EnumV(obj["e"], tuple(of))
        items = obj.get("t")
        if isinstance(items, list) and all(
                isinstance(i, list) and len(i) == 2
                and (i[0] is None or isinstance(i[0], str)) for i in items):
            return TupleV(tuple((n, value_from_json(x)) for n, x in items))
    raise ModelError(f"bad value json {obj!r}")


def default_value(s: Sort) -> Value:
    """The all-zero value of a sort (used to fill unconstrained fields)."""
    if isinstance(s, BoolSort):
        return BoolV(False)
    if isinstance(s, NatSort):
        return NatV(0, s.width)
    if isinstance(s, EnumSort):
        return EnumV(s.syms[0], s.syms)
    return TupleV(tuple((n, default_value(fs)) for n, fs in s.fields))


def has_sort(v: Value, s: Sort) -> bool:
    """Whether ``v`` is a value of sort ``s``: same kind, nat width, enum
    symbols, and field names in order, recursively."""
    if isinstance(s, BoolSort):
        return isinstance(v, BoolV)
    if isinstance(s, NatSort):
        return isinstance(v, NatV) and v.width == s.width
    if isinstance(s, EnumSort):
        return isinstance(v, EnumV) and v.syms == s.syms
    return (isinstance(v, TupleV) and len(v.items) == len(s.fields)
            and all(n == fn and has_sort(x, fs)
                    for (n, x), (fn, fs) in zip(v.items, s.fields)))


# ---------------------------------------------------------------------------
# expressions


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: Value


@dataclass(frozen=True)
class Field:
    rec: "Expr"
    name: str


@dataclass(frozen=True)
class Update:
    rec: "Expr"
    updates: tuple[tuple[str, "Expr"], ...]


@dataclass(frozen=True)
class Ite:
    cond: "Expr"
    then: "Expr"
    alt: "Expr"


@dataclass(frozen=True)
class Eq:
    a: "Expr"
    b: "Expr"


@dataclass(frozen=True)
class Lt:
    a: "Expr"
    b: "Expr"


@dataclass(frozen=True)
class Le:
    a: "Expr"
    b: "Expr"


@dataclass(frozen=True)
class AddMod:
    """Addition modulo 2^width (both operands share the width)."""

    a: "Expr"
    b: "Expr"


@dataclass(frozen=True)
class SubSat:
    """Subtraction floored at zero."""

    a: "Expr"
    b: "Expr"


@dataclass(frozen=True)
class Not:
    a: "Expr"


@dataclass(frozen=True)
class And:
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class Or:
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class TupleE:
    items: tuple[tuple[Optional[str], "Expr"], ...]


@dataclass(frozen=True)
class CaseNat:
    """Dispatch on a natural scrutinee; the default arm is mandatory."""

    scrut: "Expr"
    arms: tuple[tuple[int, "Expr"], ...]
    default: "Expr"


Expr = Union[Var, Const, Field, Update, Ite, Eq, Lt, Le, AddMod, SubSat,
             Not, And, Or, TupleE, CaseNat]


def expr_children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, (Var, Const)):
        return ()
    if isinstance(e, Field):
        return (e.rec,)
    if isinstance(e, Update):
        return (e.rec,) + tuple(x for _, x in e.updates)
    if isinstance(e, Ite):
        return (e.cond, e.then, e.alt)
    if isinstance(e, (Eq, Lt, Le, AddMod, SubSat)):
        return (e.a, e.b)
    if isinstance(e, Not):
        return (e.a,)
    if isinstance(e, (And, Or)):
        return e.args
    if isinstance(e, TupleE):
        return tuple(x for _, x in e.items)
    if isinstance(e, CaseNat):
        return (e.scrut,) + tuple(x for _, x in e.arms) + (e.default,)
    raise TypeError(f"not an expression: {e!r}")


def subst_vars(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Replace free variables; unchanged subtrees are shared, not copied."""
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Const):
        return e
    kids = expr_children(e)
    new_kids = tuple(subst_vars(c, mapping) for c in kids)
    if all(a is b for a, b in zip(kids, new_kids)):
        return e
    it = iter(new_kids)
    if isinstance(e, Field):
        return Field(next(it), e.name)
    if isinstance(e, Update):
        rec = next(it)
        return Update(rec, tuple((n, next(it)) for n, _ in e.updates))
    if isinstance(e, Ite):
        return Ite(next(it), next(it), next(it))
    if isinstance(e, (Eq, Lt, Le, AddMod, SubSat)):
        return type(e)(next(it), next(it))
    if isinstance(e, Not):
        return Not(next(it))
    if isinstance(e, (And, Or)):
        return type(e)(new_kids)
    if isinstance(e, TupleE):
        return TupleE(tuple((n, next(it)) for n, _ in e.items))
    if isinstance(e, CaseNat):
        scrut = next(it)
        arms = tuple((k, next(it)) for k, _ in e.arms)
        return CaseNat(scrut, arms, next(it))
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# evaluation

Env = dict[str, Value]
Compiled = Callable[[Env], Value]

TRUE, FALSE = BoolV(True), BoolV(False)


def compile_expr(e: Expr) -> Compiled:
    """Compile an expression to a closure over an environment.

    One recursive pass builds one closure per node, so a call walks no tree
    and dispatches on no node type.  A call raises ``EvalError`` for an
    unbound variable and for field access or update on a non-record value,
    and asserts the sort of every operand; a case takes its first arm whose
    key equals the scrutinee, else its default.  Total on well-sorted input.
    """
    if isinstance(e, Var):
        name = e.name

        def var(env: Env) -> Value:
            try:
                return env[name]
            except KeyError:
                raise EvalError(f"unbound variable '{name}'") from None
        return var
    if isinstance(e, Const):
        value = e.value
        return lambda env: value
    if isinstance(e, Field):
        # the evaluator's hottest closure: a record variable is read from env
        # directly and its items are scanned here, with no closure or method
        # call in between (the attribute view makes TupleV lookups dearer)
        rec, fname = compile_expr(e.rec), e.name
        var = e.rec.name if isinstance(e.rec, Var) else None

        def field(env: Env) -> Value:
            r = env.get(var) if var is not None else rec(env)
            if not isinstance(r, TupleV):
                rec(env)  # an unbound variable raises its own error
                raise EvalError("field access on non-record value")
            for iname, ival in r.items:
                if iname == fname:
                    return ival
            raise EvalError(f"unknown field '{fname}'")
        return field
    if isinstance(e, Update):
        rec = compile_expr(e.rec)
        updates = tuple((n, compile_expr(x)) for n, x in e.updates)

        def update(env: Env) -> Value:
            r = rec(env)
            if not isinstance(r, TupleV):
                raise EvalError("update on non-record value")
            news = {n: f(env) for n, f in updates}
            return TupleV(tuple((n, news.get(n, v)) for n, v in r.items))
        return update
    if isinstance(e, Ite):
        cond, then, alt = (compile_expr(e.cond), compile_expr(e.then),
                           compile_expr(e.alt))

        def ite(env: Env) -> Value:
            c = cond(env)
            assert isinstance(c, BoolV)
            return then(env) if c.val else alt(env)
        return ite
    if isinstance(e, Not):
        fa = compile_expr(e.a)

        def not_(env: Env) -> Value:
            a = fa(env)
            assert isinstance(a, BoolV)
            return FALSE if a.val else TRUE
        return not_
    if isinstance(e, Eq):
        fa, fb = compile_expr(e.a), compile_expr(e.b)
        return lambda env: TRUE if fa(env) == fb(env) else FALSE
    if isinstance(e, Lt):
        fa, fb = compile_expr(e.a), compile_expr(e.b)

        def lt(env: Env) -> Value:
            a, b = fa(env), fb(env)
            assert isinstance(a, NatV) and isinstance(b, NatV)
            return TRUE if a.val < b.val else FALSE
        return lt
    if isinstance(e, Le):
        fa, fb = compile_expr(e.a), compile_expr(e.b)

        def le(env: Env) -> Value:
            a, b = fa(env), fb(env)
            assert isinstance(a, NatV) and isinstance(b, NatV)
            return TRUE if a.val <= b.val else FALSE
        return le
    if isinstance(e, AddMod):
        fa, fb = compile_expr(e.a), compile_expr(e.b)

        def add_mod(env: Env) -> Value:
            a, b = fa(env), fb(env)
            assert isinstance(a, NatV) and isinstance(b, NatV) \
                and a.width == b.width
            return NatV((a.val + b.val) & ((1 << a.width) - 1), a.width)
        return add_mod
    if isinstance(e, SubSat):
        fa, fb = compile_expr(e.a), compile_expr(e.b)

        def sub_sat(env: Env) -> Value:
            a, b = fa(env), fb(env)
            assert isinstance(a, NatV) and isinstance(b, NatV) \
                and a.width == b.width
            return NatV(max(a.val - b.val, 0), a.width)
        return sub_sat
    if isinstance(e, And):
        conjuncts = tuple(compile_expr(x) for x in e.args)

        def and_(env: Env) -> Value:
            for f in conjuncts:
                v = f(env)
                assert isinstance(v, BoolV)
                if not v.val:
                    return FALSE
            return TRUE
        return and_
    if isinstance(e, Or):
        disjuncts = tuple(compile_expr(x) for x in e.args)

        def or_(env: Env) -> Value:
            for f in disjuncts:
                v = f(env)
                assert isinstance(v, BoolV)
                if v.val:
                    return TRUE
            return FALSE
        return or_
    if isinstance(e, TupleE):
        names = tuple(n for n, _ in e.items)
        fns = tuple(compile_expr(x) for _, x in e.items)

        def tuple_(env: Env) -> Value:
            return TupleV(tuple(zip(names, [f(env) for f in fns])))
        return tuple_
    if isinstance(e, CaseNat):
        scrut, default = compile_expr(e.scrut), compile_expr(e.default)
        arms: dict[int, Compiled] = {}
        for key, body in e.arms:
            arms.setdefault(key, compile_expr(body))  # the first arm wins

        def case(env: Env) -> Value:
            s = scrut(env)
            assert isinstance(s, NatV)
            return arms.get(s.val, default)(env)
        return case
    raise TypeError(f"not an expression: {e!r}")


def eval_expr(e: Expr, env: Env) -> Value:
    """Evaluate ``e`` once under ``env``: ``compile_expr(e)(env)``.  A
    caller that evaluates the same expression many times compiles it once
    with ``compile_expr`` and calls the closure instead."""
    return compile_expr(e)(env)


# ---------------------------------------------------------------------------
# model containers


@dataclass(frozen=True)
class Define:
    """A named total function; the stored body has all calls inlined."""

    name: str
    params: tuple[tuple[str, Sort], ...]
    result: Sort
    body: Expr

    def apply(self, *args: Expr) -> Expr:
        if len(args) != len(self.params):
            raise SortError(f"'{self.name}' expects {len(self.params)} arguments")
        return subst_vars(self.body, {p: a for (p, _), a in zip(self.params, args)})


@dataclass(frozen=True)
class MapDecl:
    """An abstraction map: a node expression over one state variable, plus
    an ordered family of measure vectors."""

    name: str
    var: str
    state_sort_name: str
    state_sort: TupleSort
    kind: str                      # "step" | "blok"
    domain: Expr                   # bool over var (true if unrestricted)
    node: TupleE
    node_sort: TupleSort
    measures: tuple[tuple[str, TupleE], ...]

    @property
    def measure_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.measures)

    def measure_expr(self, name: str) -> TupleE:
        for n, e in self.measures:
            if n == name:
                return e
        raise SortError(f"map '{self.name}' has no measure '{name}'")

    @property
    def widths(self) -> dict[str, int]:
        return {n: len(e.items) for n, e in self.measures}


@dataclass(frozen=True)
class SystemDecl:
    state_sort_name: str
    shared_sort_name: str
    init: str
    next: str
    shared_next: str
    blok: str
    done: str


@dataclass(frozen=True)
class Model:
    name: str
    params: tuple[tuple[str, int], ...]
    record_sorts: tuple[tuple[str, TupleSort], ...]
    defines: tuple[tuple[str, Define], ...]
    maps: tuple[tuple[str, MapDecl], ...]
    system: Optional[SystemDecl]

    def record_sort(self, name: str) -> TupleSort:
        for n, s in self.record_sorts:
            if n == name:
                return s
        raise ModelError(f"unknown sort '{name}'")

    def define(self, name: str) -> Define:
        for n, d in self.defines:
            if n == name:
                return d
        raise ModelError(f"unknown definition '{name}'")

    def map_decl(self, name: str) -> MapDecl:
        for n, m in self.maps:
            if n == name:
                return m
        raise ModelError(f"unknown map '{name}'")

    @property
    def map_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.maps)


# ---------------------------------------------------------------------------
# elaboration: surface syntax -> typed Expr

_RESERVED_HEADS = {
    "if", "=", "<", "<=", ">", ">=", "and", "or", "not",
    "+", "1+", "-", "1-", "update", "tuple", "case", "bits",
    "t", "nil", "model", "bool", "nat", "enum",
}


class _NeedsContext(Exception):
    """A bare literal whose sort cannot be synthesized bottom-up."""

    def __init__(self, pos):
        self.pos = pos


class _Elab:
    def __init__(self, params: dict[str, int], sorts: dict[str, TupleSort],
                 defines: dict[str, Define]):
        self.params = params
        self.sorts = sorts
        self.defines = defines

    # -- entry points --------------------------------------------------
    def check(self, sx: SExpr, expected: Sort, env: dict[str, Sort]) -> Expr:
        e, s = self._elab(sx, expected, env)
        if s != expected:
            raise SortError(
                f"expected {sort_text(expected)}, got {sort_text(s)}", sx.pos())
        return e

    def synth(self, sx: SExpr, env: dict[str, Sort]) -> tuple[Expr, Sort]:
        try:
            return self._elab(sx, None, env)
        except _NeedsContext as nc:
            raise SortError("cannot infer a sort for this literal here",
                            nc.pos) from None

    # -- helpers -------------------------------------------------------
    def _enum_symbol(self, name: str, env: dict[str, Sort]) -> bool:
        """Whether ``name`` is a symbol of an enum sort that a declared
        sort, a definition or a bound name carries."""
        sorts = [*self.sorts.values(), *env.values()]
        for d in self.defines.values():
            sorts += [d.result, *(s for _, s in d.params)]
        while sorts:
            s = sorts.pop()
            if isinstance(s, EnumSort) and name in s.syms:
                return True
            if isinstance(s, TupleSort):
                sorts.extend(fs for _, fs in s.fields)
        return False

    def _elab_pair(self, sa: SExpr, sb: SExpr, env) -> tuple[Expr, Expr, Sort]:
        """Elaborate two operands that must share a sort; a literal on either
        side takes its width from the other."""
        try:
            ea, sort_a = self._elab(sa, None, env)
        except _NeedsContext:
            eb, sort_b = self.synth(sb, env)
            return self.check(sa, sort_b, env), eb, sort_b
        eb = self.check(sb, sort_a, env)
        return ea, eb, sort_a

    def _nat_literal(self, value: int, expected: Optional[Sort], pos) -> tuple[Expr, Sort]:
        if expected is None:
            raise _NeedsContext(pos)
        if not isinstance(expected, NatSort):
            raise SortError(f"a natural literal cannot have sort "
                            f"{sort_text(expected)}", pos)
        if value >= (1 << expected.width):
            raise SortError(f"literal {value} does not fit in {expected.width} bits", pos)
        return Const(NatV(value, expected.width)), expected

    # -- the main dispatcher -------------------------------------------
    def _elab(self, sx: SExpr, expected: Optional[Sort], env) -> tuple[Expr, Sort]:
        if sx.kind == "int":
            return self._nat_literal(sx.value, expected, sx.pos())

        if sx.kind == "kw":
            raise SortError("keyword in expression position", sx.pos())

        if sx.kind == "sym":
            name = sx.value
            if name == "t":
                return Const(BoolV(True)), BOOL
            if name == "nil":
                return Const(BoolV(False)), BOOL
            if "." in name:
                base, _, rest = name.partition(".")
                if base in env:
                    e: Expr = Var(base)
                    s = env[base]
                    for fld in rest.split("."):
                        if not isinstance(s, TupleSort) or not s.has_field(fld):
                            raise SortError(f"unknown field '{fld}'", sx.pos())
                        e = Field(e, fld)
                        s = s.field_sort(fld)
                    return e, s
            if name in env:
                return Var(name), env[name]
            if name in self.params:
                return self._nat_literal(self.params[name], expected, sx.pos())
            if isinstance(expected, EnumSort) and name in expected.syms:
                return Const(EnumV(name, expected.syms)), expected
            if expected is None and self._enum_symbol(name, env):
                raise _NeedsContext(sx.pos())  # like a natural literal
            raise SortError(f"unbound name '{name}'", sx.pos())

        items = sx.items
        if not items:
            raise SortError("empty form", sx.pos())
        head = items[0]
        if head.kind != "sym":
            raise SortError("expected an operator or function name", head.pos())
        op = head.value
        args = items[1:]

        def arity(n):
            if len(args) != n:
                raise SortError(f"'{op}' expects {n} arguments, got {len(args)}",
                                sx.pos())

        if op == "if":
            arity(3)
            c = self.check(args[0], BOOL, env)
            if expected is not None:
                tb = self.check(args[1], expected, env)
                eb = self.check(args[2], expected, env)
                return Ite(c, tb, eb), expected
            try:
                tb, ts = self._elab(args[1], None, env)
            except _NeedsContext:
                eb, es = self.synth(args[2], env)
                return Ite(c, self.check(args[1], es, env), eb), es
            return Ite(c, tb, self.check(args[2], ts, env)), ts

        if op == "=":
            arity(2)
            a, b, _ = self._elab_pair(args[0], args[1], env)
            return Eq(a, b), BOOL

        if op in ("<", "<=", ">", ">="):
            arity(2)
            a, b, s = self._elab_pair(args[0], args[1], env)
            if not isinstance(s, NatSort):
                raise SortError(f"'{op}' compares naturals, got {sort_text(s)}",
                                sx.pos())
            if op == "<":
                return Lt(a, b), BOOL
            if op == "<=":
                return Le(a, b), BOOL
            if op == ">":
                return Lt(b, a), BOOL
            return Le(b, a), BOOL

        if op in ("and", "or"):
            xs = tuple(self.check(a, BOOL, env) for a in args)
            return (And(xs) if op == "and" else Or(xs)), BOOL

        if op == "not":
            arity(1)
            return Not(self.check(args[0], BOOL, env)), BOOL

        if op in ("+", "-"):
            arity(2)
            a, b, s = self._elab_pair(args[0], args[1], env)
            if not isinstance(s, NatSort):
                raise SortError(f"'{op}' works on naturals", sx.pos())
            return (AddMod(a, b) if op == "+" else SubSat(a, b)), s

        if op in ("1+", "1-"):
            arity(1)
            a, s = self.synth(args[0], env)
            if not isinstance(s, NatSort):
                raise SortError(f"'{op}' works on naturals", sx.pos())
            one = Const(NatV(1, s.width))
            return (AddMod(a, one) if op == "1+" else SubSat(a, one)), s

        if op == "update":
            if not args or (len(args) - 1) % 2 != 0:
                raise SortError("(update rec :field expr ...)", sx.pos())
            rec, rsort = self.synth(args[0], env)
            if not isinstance(rsort, TupleSort):
                raise SortError("update needs a record", args[0].pos())
            ups = []
            seen = set()
            for i in range(1, len(args), 2):
                fname = args[i].kw()
                if not rsort.has_field(fname):
                    raise SortError(f"unknown field '{fname}'", args[i].pos())
                if fname in seen:
                    raise SortError(f"duplicate field '{fname}'", args[i].pos())
                seen.add(fname)
                ups.append((fname, self.check(args[i + 1], rsort.field_sort(fname), env)))
            return Update(rec, tuple(ups)), rsort

        if op == "tuple":
            if expected is not None and not isinstance(expected, TupleSort):
                raise SortError(f"a tuple cannot have sort {sort_text(expected)}",
                                sx.pos())
            members: list[tuple[Optional[str], SExpr]] = []
            for a in args:
                if a.is_list and len(a.items) == 2 and a.items[0].kind == "kw":
                    members.append((a.items[0].kw(), a.items[1]))
                else:
                    members.append((None, a))
            if expected is not None:
                if len(expected.fields) != len(members) or any(
                        fn != mn for (fn, _), (mn, _) in zip(expected.fields, members)):
                    raise SortError("tuple shape does not match the expected sort",
                                    sx.pos())
                elts = tuple(
                    (mn, self.check(msx, fs, env))
                    for (mn, msx), (_, fs) in zip(members, expected.fields))
                return TupleE(elts), expected
            elts2 = []
            for mn, msx in members:
                e, s = self.synth(msx, env)
                elts2.append((mn, (e, s)))
            return (TupleE(tuple((n, e) for n, (e, _) in elts2)),
                    TupleSort(tuple((n, s) for n, (_, s) in elts2)))

        if op == "case":
            if len(args) < 2:
                raise SortError("(case scrut (key body)... (t body))", sx.pos())
            scrut, ssort = self.synth(args[0], env)
            if not isinstance(ssort, NatSort):
                raise SortError("case dispatches on a natural", args[0].pos())
            raw_arms = []
            default_sx = None
            for a in args[1:]:
                if not a.is_list or len(a.items) != 2:
                    raise SortError("case arm must be (key body)", a.pos())
                k, body = a.items
                if k.kind == "sym" and k.value == "t":
                    if default_sx is not None:
                        raise SortError("duplicate default arm", k.pos())
                    if a is not args[-1]:
                        raise SortError("default arm must come last", k.pos())
                    default_sx = body
                elif k.kind == "int":
                    if k.value >= (1 << ssort.width):
                        raise SortError(f"case key {k.value} exceeds the scrutinee range",
                                        k.pos())
                    raw_arms.append((k.value, body))
                else:
                    raise SortError("case key must be a natural or t", k.pos())
            if default_sx is None:
                raise SortError("case requires a default (t ...) arm", sx.pos())
            if len({k for k, _ in raw_arms}) != len(raw_arms):
                raise SortError("duplicate case key", sx.pos())
            if expected is None:
                for probe in [b for _, b in raw_arms] + [default_sx]:
                    try:
                        _, expected = self._elab(probe, None, env)
                        break
                    except _NeedsContext:
                        continue
                if expected is None:
                    raise _NeedsContext(sx.pos())
            arms = tuple((k, self.check(b, expected, env)) for k, b in raw_arms)
            dflt = self.check(default_sx, expected, env)
            return CaseNat(scrut, arms, dflt), expected

        if op in self.defines:
            d = self.defines[op]
            if len(args) != len(d.params):
                raise SortError(f"'{op}' expects {len(d.params)} arguments", sx.pos())
            exprs = tuple(self.check(a, ps, env)
                          for a, (_, ps) in zip(args, d.params))
            return d.apply(*exprs), d.result

        raise SortError(f"unknown operator or function '{op}'", head.pos())


# ---------------------------------------------------------------------------
# model parsing


def _resolve_width(sx: SExpr, params: dict[str, int]) -> int:
    if sx.kind == "int":
        return sx.value
    if sx.kind == "sym":
        name = sx.value
        if name in params:
            return params[name]
        raise ParseError(f"unknown parameter '{name}'", sx.pos())
    if sx.is_list and sx.items and sx.items[0].kind == "sym" \
            and sx.items[0].value == "bits":
        if len(sx.items) != 2:
            raise ParseError("(bits n)", sx.pos())
        n = _resolve_width(sx.items[1], params)
        return max(1, n.bit_length())
    raise ParseError("bad width expression", sx.pos())


def _parse_scalar_sort(sx: SExpr, params: dict[str, int]) -> Sort:
    if sx.kind == "sym" and sx.value == "bool":
        return BOOL
    if sx.is_list and sx.items and sx.items[0].kind == "sym":
        head = sx.items[0].value
        if head == "nat":
            if len(sx.items) != 2:
                raise ParseError("(nat width)", sx.pos())
            w = _resolve_width(sx.items[1], params)
            if w < 1:
                raise ParseError("nat width must be at least 1", sx.pos())
            return NatSort(w)
        if head == "enum":
            syms = tuple(s.sym() for s in sx.items[1:])
            if not syms:
                raise ParseError("enum needs at least one symbol", sx.pos())
            return EnumSort(syms)
    raise ParseError("expected bool, (nat w) or (enum ...)", sx.pos())


def _parse_param_sort(sx: SExpr, params, sorts) -> Sort:
    if sx.kind == "sym" and sx.value in sorts:
        return sorts[sx.value]
    return _parse_scalar_sort(sx, params)


def parse_model(text: str, params: Optional[dict[str, int]] = None) -> Model:
    """Parse ``text`` into a ``Model``.

    ``params`` overrides the declared parameter defaults before widths are
    resolved, so the same source instantiates at different scales; an
    override of None keeps the declared default.
    """
    try:
        forms = parse_sexprs(text)
    except SExprError as err:
        raise ParseError(err.message, (err.line, err.col)) from None
    if len(forms) != 1 or not forms[0].is_list or not forms[0].items \
            or forms[0].items[0].kind != "sym" or forms[0].items[0].value != "model":
        pos = forms[0].pos() if forms else (1, 1)
        raise ParseError("expected model header '(model name ...)'", pos)
    body = forms[0].items
    if len(body) < 2 or body[1].kind != "sym":
        raise ParseError("expected model header '(model name ...)'", forms[0].pos())
    model_name = body[1].sym()

    param_list: list[tuple[str, int]] = []
    param_map: dict[str, int] = {}
    sorts: dict[str, TupleSort] = {}
    sort_list: list[tuple[str, TupleSort]] = []
    defines: dict[str, Define] = {}
    define_list: list[tuple[str, Define]] = []
    maps: dict[str, MapDecl] = {}
    map_list: list[tuple[str, MapDecl]] = []
    system: Optional[SystemDecl] = None

    def elab() -> _Elab:
        return _Elab(param_map, sorts, defines)

    for form in body[2:]:
        if not form.is_list or not form.items or form.items[0].kind != "sym":
            raise ParseError("expected a (keyword ...) form", form.pos())
        head = form.items[0].value
        rest = form.items[1:]

        if head == "params":
            for p in rest:
                if not p.is_list or len(p.items) != 2 or p.items[1].kind != "int":
                    raise ParseError("(params (name default)...)", p.pos())
                pname = p.items[0].sym()
                if pname in param_map:
                    raise ParseError(f"duplicate parameter '{pname}'", p.pos())
                val = int(p.items[1].value)
                if params and params.get(pname) is not None:
                    val = int(params[pname])
                if val < 0:
                    raise ParseError("parameter must be a natural", p.pos())
                param_map[pname] = val
                param_list.append((pname, val))

        elif head == "sort":
            if not rest or rest[0].kind != "sym":
                raise ParseError("(sort name (field sort)...)", form.pos())
            sname = rest[0].sym()
            if sname in sorts:
                raise ParseError(f"duplicate sort '{sname}'", rest[0].pos())
            fields = []
            seen = set()
            for f in rest[1:]:
                if not f.is_list or len(f.items) != 2:
                    raise ParseError("sort field must be (name sort)", f.pos())
                fname = f.items[0].sym()
                if fname in seen:
                    raise ParseError(f"duplicate field '{fname}'", f.pos())
                seen.add(fname)
                fields.append((fname, _parse_scalar_sort(f.items[1], param_map)))
            sorts[sname] = TupleSort(tuple(fields))
            sort_list.append((sname, sorts[sname]))

        elif head == "define":
            if len(rest) != 4 or rest[0].kind != "sym" or not rest[1].is_list:
                raise ParseError("(define name ((p sort)...) result body)",
                                 form.pos())
            dname = rest[0].sym()
            if dname in defines or dname in _RESERVED_HEADS:
                raise ParseError(f"duplicate or reserved definition '{dname}'",
                                 rest[0].pos())
            dparams = []
            env: dict[str, Sort] = {}
            for p in rest[1].items:
                if not p.is_list or len(p.items) != 2:
                    raise ParseError("parameter must be (name sort)", p.pos())
                pname = p.items[0].sym()
                if pname.startswith("@"):
                    raise ParseError("names starting with '@' are reserved",
                                     p.items[0].pos())
                psort = _parse_param_sort(p.items[1], param_map, sorts)
                dparams.append((pname, psort))
                env[pname] = psort
            result = _parse_param_sort(rest[2], param_map, sorts)
            bodye = elab().check(rest[3], result, env)
            d = Define(dname, tuple(dparams), result, bodye)
            defines[dname] = d
            define_list.append((dname, d))

        elif head == "map":
            if len(rest) < 2 or rest[0].kind != "sym" or not rest[1].is_list \
                    or len(rest[1].items) != 1:
                raise ParseError("(map name ((var sort)) ...)", form.pos())
            mname = rest[0].sym()
            if mname in maps:
                raise ParseError(f"duplicate map '{mname}'", rest[0].pos())
            var_form = rest[1].items[0]
            if not var_form.is_list or len(var_form.items) != 2:
                raise ParseError("map variable must be (name sort)", var_form.pos())
            mvar = var_form.items[0].sym()
            if mvar.startswith("@"):
                raise ParseError("names starting with '@' are reserved",
                                 var_form.items[0].pos())
            ssname = var_form.items[1].sym()
            if ssname not in sorts:
                raise ParseError(f"unknown sort '{ssname}'", var_form.items[1].pos())
            ssort = sorts[ssname]
            env = {mvar: ssort}
            kind = None
            domain: Expr = Const(BoolV(True))
            node = None
            measures: list[tuple[str, TupleE]] = []
            for f in rest[2:]:
                if not f.is_list or not f.items or f.items[0].kind != "sym":
                    raise ParseError("expected (kind|domain|node|measure ...)",
                                     f.pos())
                fh = f.items[0].value
                if fh == "kind":
                    if len(f.items) != 2 or f.items[1].sym() not in ("step", "blok"):
                        raise ParseError("(kind step) or (kind blok)", f.pos())
                    kind = f.items[1].sym()
                elif fh == "domain":
                    if len(f.items) != 2:
                        raise ParseError("(domain expr)", f.pos())
                    domain = elab().check(f.items[1], BOOL, env)
                elif fh == "node":
                    members = SExpr("list", (sym("tuple"),) + tuple(f.items[1:]),
                                    f.line, f.col)
                    e, s = elab().synth(members, env)
                    assert isinstance(e, TupleE) and isinstance(s, TupleSort)
                    if any(n is None for n, _ in s.fields):
                        raise ParseError("node components must be keyword-tagged",
                                         f.pos())
                    node = (e, s)
                elif fh == "measure":
                    if len(f.items) != 3 or f.items[1].kind != "sym":
                        raise ParseError("(measure name (tuple ...))", f.pos())
                    oname = f.items[1].sym()
                    if any(n == oname for n, _ in measures):
                        raise ParseError(f"duplicate measure '{oname}'", f.pos())
                    me, ms = elab().synth(f.items[2], env)
                    if not isinstance(me, TupleE) or not isinstance(ms, TupleSort) \
                            or not ms.fields:
                        raise ParseError("measure must be a nonempty tuple", f.pos())
                    for _, fs in ms.fields:
                        if not isinstance(fs, NatSort):
                            raise ParseError("measure components must be naturals",
                                             f.pos())
                    measures.append((oname, me))
                else:
                    raise ParseError(f"unknown map form '{fh}'", f.pos())
            if kind is None:
                raise ParseError(f"map '{mname}' is missing (kind ...)", form.pos())
            if node is None:
                raise ParseError(f"map '{mname}' is missing (node ...)", form.pos())
            m = MapDecl(mname, mvar, ssname, ssort, kind, domain,
                        node[0], node[1], tuple(measures))
            maps[mname] = m
            map_list.append((mname, m))

        elif head == "system":
            fields = {}
            for f in rest:
                if not f.is_list or len(f.items) != 2 or f.items[0].kind != "sym":
                    raise ParseError("(system (role name)...)", f.pos())
                fields[f.items[0].value] = f.items[1].sym()
            required = ("state", "shared", "init", "next", "shared-next",
                        "blok", "done")
            for r in required:
                if r not in fields:
                    raise ParseError(f"system is missing ({r} ...)", form.pos())
            for role in ("state", "shared"):
                if fields[role] not in sorts:
                    raise ParseError(f"unknown sort '{fields[role]}'", form.pos())
            st = sorts[fields["state"]]
            sh = sorts[fields["shared"]]
            sigs = {
                "init": ((), st),
                "next": ((st, sh), st),
                "shared-next": ((sh, st), sh),
                "blok": ((st, st), BOOL),
                "done": ((st,), BOOL),
            }
            for role, (psorts, rsort) in sigs.items():
                dn = fields[role]
                if dn not in defines:
                    raise ParseError(f"unknown definition '{dn}'", form.pos())
                d = defines[dn]
                if tuple(s for _, s in d.params) != psorts or d.result != rsort:
                    raise ParseError(f"'{dn}' has the wrong signature for "
                                     f"({role} ...)", form.pos())
            system = SystemDecl(fields["state"], fields["shared"], fields["init"],
                                fields["next"], fields["shared-next"],
                                fields["blok"], fields["done"])

        else:
            raise ParseError(f"unknown top-level form '{head}'", form.pos())

    if params:
        unknown = sorted(k for k, v in params.items()
                         if v is not None and k not in param_map)
        if unknown:
            raise ModelError(
                f"override for undeclared parameter(s): {', '.join(unknown)}")

    return Model(model_name, tuple(param_list), tuple(sort_list),
                 tuple(define_list), tuple(map_list), system)


# ---------------------------------------------------------------------------
# canonical pretty printer


def _expr_to_sexpr(e: Expr) -> SExpr:
    if isinstance(e, Var):
        return sym(e.name)
    if isinstance(e, Const):
        v = e.value
        if isinstance(v, BoolV):
            return sym("t" if v.val else "nil")
        if isinstance(v, NatV):
            return num(v.val)
        if isinstance(v, EnumV):
            return sym(v.sym)
        raise ModelError("tuple constants have no literal syntax")
    if isinstance(e, Field):
        parts = []
        cur: Expr = e
        while isinstance(cur, Field):
            parts.append(cur.name)
            cur = cur.rec
        if not isinstance(cur, Var):
            raise ModelError("cannot print a field access on a non-variable")
        return sym(".".join([cur.name] + list(reversed(parts))))
    if isinstance(e, Update):
        items = [sym("update"), _expr_to_sexpr(e.rec)]
        for n, x in e.updates:
            items.append(kw(n))
            items.append(_expr_to_sexpr(x))
        return lst(*items)
    if isinstance(e, Ite):
        return lst(sym("if"), _expr_to_sexpr(e.cond), _expr_to_sexpr(e.then),
                   _expr_to_sexpr(e.alt))
    if isinstance(e, Eq):
        return lst(sym("="), _expr_to_sexpr(e.a), _expr_to_sexpr(e.b))
    if isinstance(e, Lt):
        return lst(sym("<"), _expr_to_sexpr(e.a), _expr_to_sexpr(e.b))
    if isinstance(e, Le):
        return lst(sym("<="), _expr_to_sexpr(e.a), _expr_to_sexpr(e.b))
    if isinstance(e, AddMod):
        return lst(sym("+"), _expr_to_sexpr(e.a), _expr_to_sexpr(e.b))
    if isinstance(e, SubSat):
        return lst(sym("-"), _expr_to_sexpr(e.a), _expr_to_sexpr(e.b))
    if isinstance(e, Not):
        return lst(sym("not"), _expr_to_sexpr(e.a))
    if isinstance(e, And):
        return lst(sym("and"), *(_expr_to_sexpr(x) for x in e.args))
    if isinstance(e, Or):
        return lst(sym("or"), *(_expr_to_sexpr(x) for x in e.args))
    if isinstance(e, TupleE):
        items = [sym("tuple")]
        for n, x in e.items:
            if n is None:
                items.append(_expr_to_sexpr(x))
            else:
                items.append(lst(kw(n), _expr_to_sexpr(x)))
        return lst(*items)
    if isinstance(e, CaseNat):
        items = [sym("case"), _expr_to_sexpr(e.scrut)]
        for k, body in e.arms:
            items.append(lst(num(k), _expr_to_sexpr(body)))
        items.append(lst(sym("t"), _expr_to_sexpr(e.default)))
        return lst(*items)
    raise TypeError(f"not an expression: {e!r}")


def _sort_to_sexpr(s: Sort) -> SExpr:
    if isinstance(s, BoolSort):
        return sym("bool")
    if isinstance(s, NatSort):
        return lst(sym("nat"), num(s.width))
    if isinstance(s, EnumSort):
        return lst(sym("enum"), *(sym(x) for x in s.syms))
    raise ModelError("record sorts are printed by name")


def pretty_print(model: Model) -> str:
    """Canonical text for a model: parse(pretty_print(m)) == m, and printing
    the reparse gives byte-identical text."""
    sort_names = {s: n for n, s in model.record_sorts}

    def named_sort(s: Sort) -> SExpr:
        if isinstance(s, TupleSort):
            if s in sort_names:
                return sym(sort_names[s])
            raise ModelError("cannot print an anonymous record sort")
        return _sort_to_sexpr(s)

    forms: list[SExpr] = []
    forms.append(lst(sym("params"),
                     *(lst(sym(n), num(v)) for n, v in model.params)))
    for name, s in model.record_sorts:
        forms.append(lst(sym("sort"), sym(name),
                         *(lst(sym(fn), _sort_to_sexpr(fs))
                           for fn, fs in s.fields)))
    for name, d in model.defines:
        forms.append(lst(sym("define"), sym(name),
                         lst(*(lst(sym(pn), named_sort(ps))
                               for pn, ps in d.params)),
                         named_sort(d.result),
                         _expr_to_sexpr(d.body)))
    for name, m in model.maps:
        sub: list[SExpr] = [sym("map"), sym(name),
                            lst(lst(sym(m.var), sym(m.state_sort_name))),
                            lst(sym("kind"), sym(m.kind))]
        if m.domain != Const(BoolV(True)):
            sub.append(lst(sym("domain"), _expr_to_sexpr(m.domain)))
        node_sx = _expr_to_sexpr(m.node)
        sub.append(lst(sym("node"), *node_sx.items[1:]))
        for oname, oexpr in m.measures:
            sub.append(lst(sym("measure"), sym(oname), _expr_to_sexpr(oexpr)))
        forms.append(lst(*sub))
    if model.system is not None:
        sy = model.system
        forms.append(lst(sym("system"),
                         lst(sym("state"), sym(sy.state_sort_name)),
                         lst(sym("shared"), sym(sy.shared_sort_name)),
                         lst(sym("init"), sym(sy.init)),
                         lst(sym("next"), sym(sy.next)),
                         lst(sym("shared-next"), sym(sy.shared_next)),
                         lst(sym("blok"), sym(sy.blok)),
                         lst(sym("done"), sym(sy.done))))

    lines = [f"(model {model.name}"]
    for f in forms:
        rendered = pretty(f, indent=2)
        lines.append("\n".join("  " + ln for ln in rendered.split("\n")))
    lines[-1] += ")"
    return "\n".join(lines) + "\n"
