"""The compiled simulation backend.

Instead of walking AST nodes for every evaluation (the
:class:`~repro.sim.engine.InterpSimulator` strategy), this backend lowers an
:class:`~repro.hdl.elaborate.ElaboratedDesign` **once** into generated
Python source:

* every continuous assignment and every comb, clocked and initial block
  becomes one Python function, emitted as straight-line statements on
  local ints over two flat integer arrays (one slot per signal) and built
  by ``compile()``/``exec``.  Emitted code names signals only by slot index
  and takes every literal from a Python int, so no Verilog identifier ever
  reaches the generated source;
* each node has a precomputed read-set and write-set, and combinational
  settling is **dependency driven**: a signal write marks only the nodes
  that read that signal dirty, and the settle loop drains the dirty set in
  topologically-levelled order;
* the trace is one per-slot change-event log
  (:class:`~repro.sim.trace.DiffTrace`): flat ints, from which columns are
  built with numpy and samples only when read.

The backend is behaviourally identical to the interpreter: the differential
suites assert ``equals()``-identical traces cycle by cycle.  Designs using
constructs the compiler does not support -- or whose generated code Python
refuses to compile -- raise :class:`CompileError`, which the
:func:`~repro.sim.engine.Simulator` factory turns into a fallback to the
interpreter.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Mapping, Optional, Union

from repro.hdl import ast
from repro.hdl.elaborate import ElaboratedDesign, ProceduralBlock
from repro.sim.engine import _MAX_SETTLE_ITERATIONS, SimulationError, SimulatorOptions, detect_clock
from repro.sim.evaluator import EvalError, Evaluator
from repro.sim.trace import DiffTrace, TraceSample
from repro.sim.values import LogicValue

#: An emitted operand: (value source, xmask source, width).  The sources are
#: atoms -- a decimal literal, a local name or ``V[slot]``/``X[slot]`` -- and
#: the width is an int wherever it is static, else the name of a local.
Operand = tuple[str, str, Union[int, str]]


class CompileError(Exception):
    """Raised when a design uses a construct the compiled backend rejects."""


# --------------------------------------------------------------------------- #
# runtime helpers the generated code calls (rare paths only)
# --------------------------------------------------------------------------- #


def _merge_select_write(
    cur_v: int, cur_x: int, v: int, x: int, msb: int, lsb: int, sm: int
) -> tuple[int, int]:
    """(value, xmask) after writing ``v``/``x`` into bits [msb:lsb] of current.

    Mirrors :func:`repro.sim.values.merge_bits` plus the final resize to the
    signal mask ``sm``; generated code calls it for select writes whose
    bounds are not constants.
    """
    if msb < lsb:
        raise SimulationError(f"invalid write slice [{msb}:{lsb}]")
    slice_w = msb - lsb + 1
    slice_m = ((1 << slice_w) - 1) << lsb
    rx = x & ((1 << slice_w) - 1)
    rv = v & ((1 << slice_w) - 1) & ~rx
    nv = (cur_v & ~slice_m) | ((rv << lsb) & slice_m)
    nx = ((cur_x & ~slice_m) | ((rx << lsb) & slice_m)) & sm
    return nv & sm & ~nx, nx


def _part_select(bv: int, bx: int, bw: int, mv: int, mx: int, lv: int, lx: int) -> tuple:
    """``base[msb:lsb]`` with runtime bounds: (value, xmask, width)."""
    if mx or lx:
        return (0, (1 << bw) - 1, bw)
    if mv < lv:
        raise SimulationError(f"invalid slice [{mv}:{lv}]")
    w = mv - lv + 1
    m = (1 << w) - 1
    if lv >= bw:
        return (0, m, w)
    v = bv >> lv
    x = bx >> lv
    if mv >= bw:
        x |= ((1 << (mv - bw + 1)) - 1) << (bw - lv)
    x &= m
    return (v & m & ~x, x, w)


def _replicate(pv: int, px: int, pw: int, count: int) -> tuple:
    """``{count{value}}`` with a runtime count or width: (value, xmask, width)."""
    v = 0
    x = 0
    for _ in range(count):
        v = (v << pw) | pv
        x = (x << pw) | px
    return (v, x, max(pw * count, 1))


def _replication_error(unknown: int) -> None:
    if unknown:
        raise SimulationError("replication count is unknown")
    raise SimulationError("replication count must be >= 1")


#: The only globals generated code sees: no builtins, just these helpers.
_NAMESPACE_TEMPLATE = {
    "__builtins__": {},
    "msw": _merge_select_write,
    "psel": _part_select,
    "rep": _replicate,
    "rerr": _replication_error,
}

#: Emitted node functions memoised by their exact source text.  Slots,
#: widths and constants are all spelled out in the text, so equal text means
#: an interchangeable, stateless function -- across designs, mutants and
#: simulators.  Cleared whole at this many entries (like the lexer's line
#: memo) and by :func:`repro.artifacts.reset_process_stores`.
CODE_MEMO_LIMIT = 1 << 12
_CODE_MEMO: dict[str, Callable] = {}


def clear_code_memo() -> None:
    """Drop every memoised node function."""
    _CODE_MEMO.clear()


def _build_function(source: str) -> Callable:
    fn = _CODE_MEMO.get(source)
    if fn is not None:
        return fn
    try:
        code = compile(source, "<repro.sim.compile>", "exec")
    except (SyntaxError, RecursionError, MemoryError, ValueError, OverflowError) as exc:
        # "too many levels of indentation", a too-deep expression and the
        # like: the design is fine, Python just cannot hold its code.
        raise CompileError(f"generated code does not compile ({type(exc).__name__})") from exc
    namespace = dict(_NAMESPACE_TEMPLATE)
    exec(code, namespace)
    fn = namespace["f"]
    if len(_CODE_MEMO) >= CODE_MEMO_LIMIT:
        _CODE_MEMO.clear()
    _CODE_MEMO[source] = fn
    return fn


def _is_literal(source: str) -> bool:
    return source[0].isdigit()


def _mask(w: Union[int, str]) -> str:
    return str((1 << w) - 1) if type(w) is int else f"((1 << {w}) - 1)"


# --------------------------------------------------------------------------- #
# the emitter
# --------------------------------------------------------------------------- #


class _Emitter:
    """Emits one node function: straight-line statements on local ints.

    Expressions lower to statements that leave their result in locals and
    return an :data:`Operand`.  The emitted code mirrors the interpreter's
    semantics exactly: both operands of ``&&``/``||`` are evaluated, an
    untaken ternary branch is not, case labels stop at the first hit, and
    runtime errors raise the same :class:`SimulationError` messages.

    Procedural bodies keep every blocking-assigned signal in a pair of
    locals (``v<slot>``/``x<slot>``) initialised from the arrays, so reads
    see earlier blocking writes while the arrays stay untouched until the
    caller commits.
    """

    def __init__(self, slots: dict[str, int], widths: list[int], parameters: Mapping[str, int]):
        self._slots = slots
        self._widths = widths
        self._parameters = parameters
        self.lines: list[str] = []
        self._indent = 1
        self._temps = 0
        self._locals: frozenset = frozenset()
        self._mode = "assign"

    # -- plumbing -------------------------------------------------------- #

    def _line(self, text: str) -> None:
        self.lines.append("    " * self._indent + text)

    def _fresh(self) -> str:
        self._temps += 1
        return f"t{self._temps}"

    def _nested(self, emit: Callable[[], object]) -> tuple[list[str], object]:
        """Run ``emit`` one indentation level deeper; return (its lines, result)."""
        mark = len(self.lines)
        self._indent += 1
        try:
            result = emit()
        finally:
            self._indent -= 1
        lines = self.lines[mark:]
        del self.lines[mark:]
        return lines, result

    def _block(self, header: str, lines: list[str]) -> None:
        self._line(header)
        self.lines.extend(lines or ["    " * (self._indent + 1) + "pass"])

    def _max_width(self, a: Union[int, str], b: Union[int, str]) -> Union[int, str]:
        if type(a) is int and type(b) is int:
            return a if a >= b else b
        if a == b:
            return a
        t = self._fresh()
        self._line(f"{t}w = {a} if {a} >= {b} else {b}")
        return f"{t}w"

    def _fold(self, expr: ast.Expression) -> Optional[Operand]:
        """Constant-fold an expression whose operands are all literals."""
        try:
            value = Evaluator({}, self._parameters).evaluate(expr)
        except (EvalError, ValueError):
            return None
        return str(value.value), str(value.xmask), value.width

    def _signal(self, name: str) -> tuple[int, int]:
        slot = self._slots.get(name)
        if slot is None:
            raise CompileError(f"assignment to undeclared signal '{name}'")
        return slot, self._widths[slot]

    def _read(self, slot: int) -> tuple[str, str]:
        if slot in self._locals:
            return f"v{slot}", f"x{slot}"
        return f"V[{slot}]", f"X[{slot}]"

    # -- expressions ----------------------------------------------------- #

    def expr(self, expr: ast.Expression) -> Operand:
        kind = type(expr)
        if kind is ast.Identifier:
            slot = self._slots.get(expr.name)
            if slot is not None:
                return (*self._read(slot), self._widths[slot])
            if expr.name in self._parameters:
                return str(self._parameters[expr.name] & 0xFFFFFFFF), "0", 32
            raise CompileError(f"unknown signal '{expr.name}'")
        if kind is ast.Number:
            w = expr.width if expr.width is not None else 32
            m = (1 << w) - 1
            x = expr.xz_mask & m
            return str(expr.value & m & ~x), str(x), w
        method = self._EXPRESSIONS.get(kind)
        if method is None:
            raise CompileError(f"cannot compile expression of type {kind.__name__}")
        return method(self, expr)

    def _unary(self, expr: ast.Unary) -> Operand:
        op = expr.op
        v, x, w = self.expr(expr.operand)
        if op == "+":
            return v, x, w
        if _is_literal(v) and _is_literal(x):
            folded = self._fold(expr)
            if folded is not None:
                return folded
        t = self._fresh()
        if op in ("-", "~"):
            m = _mask(w)
            self._line(f"if {x}: {t}v = 0; {t}x = {m}")
            self._line(f"else: {t}v = {op}{v} & {m}; {t}x = 0")
            return f"{t}v", f"{t}x", w
        if op == "!":
            self._line(f"if {v}: {t}v = 0; {t}x = 0")
            self._line(f"elif {x}: {t}v = 0; {t}x = 1")
            self._line(f"else: {t}v = 1; {t}x = 0")
            return f"{t}v", f"{t}x", 1
        if op == "&":
            known = f"1 if {v} == {_mask(w)} else 0"
        elif op == "|":
            known = f"1 if {v} else 0"
        elif op == "^":
            known = f"({v}).bit_count() & 1"
        else:
            raise CompileError(f"unsupported unary operator '{op}'")
        self._line(f"if {x}: {t}v = 0; {t}x = 1")
        self._line(f"else: {t}v = {known}; {t}x = 0")
        return f"{t}v", f"{t}x", 1

    _ARITH = {
        "+": "{a} + {b}",
        "-": "{a} - {b}",
        "*": "{a} * {b}",
        "/": "{a} // {b}",
        "%": "{a} % {b}",
        "**": "{a} ** ({b} if {b} < 64 else 64)",
        "&": "{a} & {b}",
        "|": "{a} | {b}",
        "^": "{a} ^ {b}",
        "~^": "~({a} ^ {b})",
        "^~": "~({a} ^ {b})",
    }
    _RELATIONAL = {"==": "==", "!=": "!=", "<": "<", ">": ">", "<=": "<=", ">=": ">="}

    def _binary(self, expr: ast.Binary) -> Operand:
        op = expr.op
        v1, x1, w1 = self.expr(expr.left)
        v2, x2, w2 = self.expr(expr.right)
        if _is_literal(v1) and _is_literal(x1) and _is_literal(v2) and _is_literal(x2):
            folded = self._fold(expr)
            if folded is not None:
                return folded
        t = self._fresh()
        line = self._line
        if op == "&&":
            line(f"if (not {v1} and not {x1}) or (not {v2} and not {x2}): {t}v = 0; {t}x = 0")
            line(f"elif not {v1} or not {v2}: {t}v = 0; {t}x = 1")
            line(f"else: {t}v = 1; {t}x = 0")
            return f"{t}v", f"{t}x", 1
        if op == "||":
            line(f"if {v1} or {v2}: {t}v = 1; {t}x = 0")
            line(f"elif {x1} or {x2}: {t}v = 0; {t}x = 1")
            line(f"else: {t}v = 0; {t}x = 0")
            return f"{t}v", f"{t}x", 1
        if op in ("===", "!=="):
            hit, miss = (1, 0) if op == "===" else (0, 1)
            line(f"{t}v = {hit} if {v1} == {v2} and {x1} == {x2} else {miss}")
            return f"{t}v", "0", 1
        cmp = self._RELATIONAL.get(op)
        if cmp is not None:
            line(f"if {x1} or {x2}: {t}v = 0; {t}x = 1")
            line(f"else: {t}v = 1 if {v1} {cmp} {v2} else 0; {t}x = 0")
            return f"{t}v", f"{t}x", 1
        if op in ("<<", "<<<", ">>", ">>>"):
            amount = str(min(int(v2), 1024)) if _is_literal(v2) else f"({v2} if {v2} < 1024 else 1024)"
            m1 = _mask(w1)
            shifted = f"({v1} << {amount}) & {m1}" if op in ("<<", "<<<") else f"{v1} >> {amount}"
            line(f"if {x1} or {x2}: {t}v = 0; {t}x = {m1}")
            line(f"else: {t}v = {shifted}; {t}x = 0")
            return f"{t}v", f"{t}x", w1
        template = self._ARITH.get(op)
        if template is None:
            raise CompileError(f"unsupported binary operator '{op}'")
        w = self._max_width(w1, w2)
        m = _mask(w)
        unknown = f"{x1} or {x2} or not {v2}" if op in ("/", "%") else f"{x1} or {x2}"
        line(f"if {unknown}: {t}v = 0; {t}x = {m}")
        line(f"else: {t}v = ({template.format(a=v1, b=v2)}) & {m}; {t}x = 0")
        return f"{t}v", f"{t}x", w

    def _ternary(self, expr: ast.Ternary) -> Operand:
        cv, cx, _ = self.expr(expr.condition)
        if _is_literal(cv) and _is_literal(cx):
            if int(cv):
                return self.expr(expr.if_true)
            if not int(cx):
                return self.expr(expr.if_false)
        # Each branch is emitted once, guarded by when it is needed: the
        # true branch unless the condition is known false, the false branch
        # unless it is known true (an x condition evaluates both, in order).
        true_lines, (tv, tx, tw) = self._nested(lambda: self.expr(expr.if_true))
        false_lines, (fv, fx, fw) = self._nested(lambda: self.expr(expr.if_false))
        if true_lines:
            self._block(f"if {cv} or {cx}:", true_lines)
        if false_lines:
            self._block(f"if not {cv}:", false_lines)
        t = self._fresh()
        if tw == fw:
            w: Union[int, str] = tw
            set_t = set_f = set_w = ""
            mask = _mask(w)
        else:
            w = f"{t}w"
            set_t, set_f = f"; {w} = {tw}", f"; {w} = {fw}"
            set_w = f"{w} = {tw} if {tw} >= {fw} else {fw}; "
            mask = _mask(w)
        self._line(f"if {cv}: {t}v = {tv}; {t}x = {tx}{set_t}")
        self._line(f"elif not {cx}: {t}v = {fv}; {t}x = {fx}{set_f}")
        self._line(
            f"elif {tx} == 0 and {fx} == 0 and {tv} == {fv}: {set_w}{t}v = {tv}; {t}x = 0"
        )
        self._line(f"else: {set_w}{t}v = 0; {t}x = {mask}")
        return f"{t}v", f"{t}x", w

    def _bit_select(self, expr: ast.BitSelect) -> Operand:
        bv, bx, bw = self.expr(expr.base)
        iv, ix, _ = self.expr(expr.index)
        t = self._fresh()
        if _is_literal(iv) and _is_literal(ix) and type(bw) is int:
            index = int(iv)
            if int(ix) or index >= bw:
                return "0", "1", 1
            self._line(f"{t}v = ({bv} >> {index}) & 1; {t}x = ({bx} >> {index}) & 1")
            return f"{t}v", f"{t}x", 1
        self._line(f"if {ix} or {iv} >= {bw}: {t}v = 0; {t}x = 1")
        self._line(f"else: {t}v = ({bv} >> {iv}) & 1; {t}x = ({bx} >> {iv}) & 1")
        return f"{t}v", f"{t}x", 1

    def _part_select(self, expr: ast.PartSelect) -> Operand:
        bv, bx, bw = self.expr(expr.base)
        mv, mx, _ = self.expr(expr.msb)
        lv, lx, _ = self.expr(expr.lsb)
        t = self._fresh()
        if not all(_is_literal(s) for s in (mv, mx, lv, lx)) or type(bw) is not int:
            self._line(f"{t}v, {t}x, {t}w = psel({bv}, {bx}, {bw}, {mv}, {mx}, {lv}, {lx})")
            return f"{t}v", f"{t}x", f"{t}w"
        if int(mx) or int(lx):
            return "0", str((1 << bw) - 1), bw
        msb, lsb = int(mv), int(lv)
        if msb < lsb:
            self._line(f"psel(0, 0, 1, {msb}, 0, {lsb}, 0)")  # raises "invalid slice"
            return "0", "0", 1
        w = msb - lsb + 1
        m = (1 << w) - 1
        if lsb >= bw:
            return "0", str(m), w
        extra = ((1 << (msb - bw + 1)) - 1) << (bw - lsb) if msb >= bw else 0
        xm = f"(({bx} >> {lsb}) | {extra}) & {m}" if extra else f"({bx} >> {lsb}) & {m}"
        self._line(f"{t}x = {xm}; {t}v = ({bv} >> {lsb}) & {m} & ~{t}x")
        return f"{t}v", f"{t}x", w

    def _concat(self, expr: ast.Concat) -> Operand:
        parts = [self.expr(part) for part in expr.parts]
        t = self._fresh()
        if all(type(pw) is int for _, _, pw in parts):
            vterms: list[str] = []
            xterms: list[str] = []
            shift = 0
            for pv, px, pw in reversed(parts):
                vterms.append(f"({pv} << {shift})" if shift else pv)
                xterms.append(f"({px} << {shift})" if shift else px)
                shift += pw
            self._line(f"{t}v = {' | '.join(vterms)}; {t}x = {' | '.join(xterms)}")
            return f"{t}v", f"{t}x", max(shift, 1)
        self._line(f"{t}v = 0; {t}x = 0; {t}w = 0")
        for pv, px, pw in parts:
            self._line(f"{t}v = ({t}v << {pw}) | {pv}; {t}x = ({t}x << {pw}) | {px}; {t}w += {pw}")
        self._line(f"if {t}w < 1: {t}w = 1")
        return f"{t}v", f"{t}x", f"{t}w"

    def _replicate(self, expr: ast.Replicate) -> Operand:
        cv, cx, _ = self.expr(expr.count)
        if _is_literal(cv) and _is_literal(cx):
            if int(cx) or int(cv) < 1:
                self._line(f"rerr({1 if int(cx) else 0})")
                return "0", "0", 1
        else:
            self._line(f"if {cx}: rerr(1)")
            self._line(f"if {cv} < 1: rerr(0)")
        pv, px, pw = self.expr(expr.value)
        t = self._fresh()
        if _is_literal(cv) and type(pw) is int and pw > 0:
            count = int(cv)
            # {n{v}} == v * (1 + 2**pw + 2**(2*pw) + ...): one multiply.
            spread = ((1 << (pw * count)) - 1) // ((1 << pw) - 1)
            self._line(f"{t}v = {pv} * {spread}; {t}x = {px} * {spread}")
            return f"{t}v", f"{t}x", max(pw * count, 1)
        self._line(f"{t}v, {t}x, {t}w = rep({pv}, {px}, {pw}, {cv})")
        return f"{t}v", f"{t}x", f"{t}w"

    def _system_call(self, expr: ast.SystemCall) -> Operand:
        name = expr.name
        if not expr.args:
            raise CompileError(f"system function '{name}' without arguments")
        if name in ("$signed", "$unsigned"):
            return self.expr(expr.args[0])
        v, x, _ = self.expr(expr.args[0])
        t = self._fresh()
        if name == "$countones":
            self._line(f"if {x}: {t}v = 0; {t}x = 4294967295")
            self._line(f"else: {t}v = ({v}).bit_count(); {t}x = 0")
            return f"{t}v", f"{t}x", 32
        if name in ("$onehot", "$onehot0"):
            cmp = "== 1" if name == "$onehot" else "<= 1"
            self._line(f"if {x}: {t}v = 0; {t}x = 1")
            self._line(f"else: {t}v = 1 if ({v}).bit_count() {cmp} else 0; {t}x = 0")
            return f"{t}v", f"{t}x", 1
        if name == "$clog2":
            self._line(f"if {x}: {t}v = 0; {t}x = 4294967295")
            self._line(f"else: {t}v = ({v} - 1).bit_length() if {v} > 1 else 0; {t}x = 0")
            return f"{t}v", f"{t}x", 32
        # Sampled-value functions ($past, $rose, ...) only appear inside
        # assertions, which the simulator never executes (the SVA checker
        # lowers them itself, in repro.sva.vector).
        raise CompileError(f"unsupported system function '{name}'")

    _EXPRESSIONS = {
        ast.Unary: _unary,
        ast.Binary: _binary,
        ast.Ternary: _ternary,
        ast.BitSelect: _bit_select,
        ast.PartSelect: _part_select,
        ast.Concat: _concat,
        ast.Replicate: _replicate,
        ast.SystemCall: _system_call,
    }

    # -- assignment targets ---------------------------------------------- #

    def _resized(self, v: str, x: str, w: Union[int, str], width: int) -> tuple[str, str]:
        """An operand truncated to a ``width``-bit signal: (value, xmask) atoms."""
        if x == "0" and type(w) is int and w <= width:
            return v, "0"
        t = self._fresh()
        sm = (1 << width) - 1
        if x == "0":
            self._line(f"{t}v = {v} & {sm}")
            return f"{t}v", "0"
        fits = type(w) is int and w <= width  # operands never exceed their width
        value = f"{v} & ~{t}x" if fits else f"{v} & {sm} & ~{t}x"
        self._line(f"{t}x = {x}" + ("" if fits else f" & {sm}") + f"; {t}v = {value}")
        return f"{t}v", f"{t}x"

    def _targets(self, target: ast.Expression, v: str, x: str, w) -> list[tuple[int, str, str]]:
        """(slot, value, xmask) writes of one assignment, in application order."""
        if isinstance(target, ast.Identifier):
            slot, width = self._signal(target.name)
            return [(slot, *self._resized(v, x, w, width))]
        if isinstance(target, (ast.BitSelect, ast.PartSelect)):
            if isinstance(target, ast.BitSelect):
                base, msb_expr, lsb_expr = target.base, target.index, target.index
            else:
                base, msb_expr, lsb_expr = target.base, target.msb, target.lsb
            if not isinstance(base, ast.Identifier):
                raise CompileError("nested select targets are not supported")
            slot, width = self._signal(base.name)
            sm = (1 << width) - 1
            mv, mx, _ = self.expr(msb_expr)
            lv, lx, _ = self.expr(lsb_expr)
            cur_v, cur_x = self._read(slot)
            t = self._fresh()
            if all(_is_literal(s) for s in (mv, mx, lv, lx)):
                msb, lsb = int(mv), int(lv)
                if int(mx) or int(lx):
                    return [(slot, "0", str(sm))]
                if msb < lsb:
                    self._line(f"msw(0, 0, 0, 0, {msb}, {lsb}, 0)")
                    return []
                low = (1 << (msb - lsb + 1)) - 1
                field = (low << lsb) & sm
                keep = sm & ~(low << lsb)
                self._line(f"{t}x = ({cur_x} & {keep}) | ((({x}) & {low}) << {lsb}) & {field}")
                self._line(
                    f"{t}v = (({cur_v} & {keep}) | ((({v}) & {low}) << {lsb}) & {field}) & ~{t}x"
                )
            else:
                self._line(f"if {mx} or {lx}: {t}v = 0; {t}x = {sm}")
                self._line(
                    f"else: {t}v, {t}x = msw({cur_v}, {cur_x}, {v}, {x}, {mv}, {lv}, {sm})"
                )
            return [(slot, f"{t}v", f"{t}x")]
        if isinstance(target, ast.Concat):
            pieces: list[tuple[int, int, int]] = []
            offset = 0
            for part in reversed(target.parts):
                if not isinstance(part, ast.Identifier):
                    raise CompileError("concatenation targets must be simple identifiers")
                slot, width = self._signal(part.name)
                pieces.append((slot, width, offset))
                offset += width
            writes = []
            for slot, width, shift in reversed(pieces):
                t = self._fresh()
                m = (1 << width) - 1
                self._line(f"{t}x = ({x} >> {shift}) & {m}; {t}v = ({v} >> {shift}) & {m} & ~{t}x")
                writes.append((slot, f"{t}v", f"{t}x"))
            return writes
        raise CompileError(f"unsupported assignment target {type(target).__name__}")

    # -- statements ------------------------------------------------------ #

    def stmt(self, statement: ast.Statement) -> None:
        if isinstance(statement, ast.Block):
            for sub in statement.statements:
                self.stmt(sub)
        elif isinstance(statement, ast.Assign):
            v, x, w = self.expr(statement.value)
            for slot, nv, nx in self._targets(statement.target, v, x, w):
                if statement.blocking:
                    # Every blocking target is a local (see _procedural).
                    self._line(f"v{slot} = {nv}; x{slot} = {nx}")
                    if self._mode == "proc":
                        self._line(f"B[{slot}] = (v{slot}, x{slot})")
                elif self._mode == "proc":
                    self._line(f"N[{slot}] = ({nv}, {nx})")
                else:
                    self._line(f"n{slot} = ({nv}, {nx})")
        elif isinstance(statement, ast.If):
            self._if(statement)
        elif isinstance(statement, ast.Case):
            self._case(statement)
        elif not isinstance(statement, (ast.SystemTaskCall, ast.NullStatement)):
            raise CompileError(f"cannot compile statement {type(statement).__name__}")

    def _if(self, statement: ast.If) -> None:
        cv, cx, _ = self.expr(statement.condition)
        if _is_literal(cv) and _is_literal(cx):
            if int(cv):
                self.stmt(statement.then_branch)
            elif not int(cx) and statement.else_branch is not None:
                self.stmt(statement.else_branch)
            return
        then_lines, _ = self._nested(lambda: self.stmt(statement.then_branch))
        self._block(f"if {cv}:", then_lines)
        # Unknown condition: conservatively take neither branch.
        if statement.else_branch is not None:
            else_lines, _ = self._nested(lambda: self.stmt(statement.else_branch))
            self._block(f"elif not {cx}:", else_lines)

    def _label_hit(self, variant: str, sv: str, sx: str, sw, label: Operand) -> str:
        lv, lx, lw = label
        if variant == "case":
            if lx == "0":
                return f"not {sx} and {sv} == {lv}"
            return f"(({sx} == {lx} and {sv} == {lv}) if {sx} or {lx} else {sv} == {lv})"
        w = self._max_width(sw, lw)
        care = str(~int(lx) & ((1 << w) - 1)) if type(w) is int and _is_literal(lx) else (
            f"(~{lx} & {_mask(w)})"
        )
        if variant == "casex":
            care = f"{care} & ~{sx}"
        return f"({sv} & {care}) == ({lv} & {care})"

    def _case(self, statement: ast.Case) -> None:
        sv, sx, sw = self.expr(statement.subject)
        default: Optional[ast.Statement] = None
        arms: list[tuple[list[tuple[list[str], str]], ast.Statement]] = []
        for item in statement.items:
            if not item.labels:
                default = item.body
                continue
            labels = []
            for label in item.labels:
                labels.append(self._nested(
                    lambda label=label: self._label_hit(
                        statement.variant, sv, sx, sw, self.expr(label)
                    )
                ))
            arms.append((labels, item.body))
        if all(not lines for labels, _ in arms for lines, _ in labels):
            # Labels without statements (the usual constants) test inline.
            conditions = [" or ".join(f"({hit})" for _, hit in labels) for labels, _ in arms]
        else:
            # Labels that need statements are evaluated lazily, in order,
            # until the first hit; the hit arm's number selects the body.
            h = self._fresh()
            self._line(f"{h} = 0")
            for number, (labels, _) in enumerate(arms, start=1):
                for lines, hit in labels:
                    self._line(f"if not {h}:")
                    self.lines.extend(lines)
                    self._line(f"    if {hit}: {h} = {number}")
            conditions = [f"{h} == {number}" for number in range(1, len(arms) + 1)]
        keyword = "if"
        for condition, (_, body) in zip(conditions, arms):
            lines, _ = self._nested(lambda body=body: self.stmt(body))
            self._block(f"{keyword} {condition}:", lines)
            keyword = "elif"
        if default is not None and not arms:
            self.stmt(default)
        elif default is not None:
            lines, _ = self._nested(lambda: self.stmt(default))
            self._block("else:", lines)

    # -- whole node functions -------------------------------------------- #

    def assign_function(self, assign: ast.ContinuousAssign) -> str:
        """``f(V, X, w)``: evaluate, then write only what changed."""
        v, x, w = self.expr(assign.value)
        for slot, nv, nx in self._targets(assign.target, v, x, w):
            self._line(f"if V[{slot}] != {nv} or X[{slot}] != {nx}: w({slot}, {nv}, {nx})")
        return self._source("V, X, w")

    def comb_function(self, body: ast.Statement) -> str:
        """``f(V, X, w)``: run the body on locals, then write what changed.

        A blocking target that was not assigned still holds its array value,
        so comparing every local against the array writes exactly the
        assigned-and-changed signals; a non-blocking write overrides.
        """
        blocking, nonblocking = self._procedural(body, "comb")
        for slot in nonblocking:
            self._line(f"n{slot} = None")
        self.stmt(body)
        for slot in sorted(blocking | nonblocking):
            if slot in nonblocking:
                if slot in blocking:
                    self._line(f"if n{slot} is not None: v{slot}, x{slot} = n{slot}")
                else:
                    self._line(f"if n{slot} is None: v{slot} = V[{slot}]; x{slot} = X[{slot}]")
                    self._line(f"else: v{slot}, x{slot} = n{slot}")
            self._line(
                f"if V[{slot}] != v{slot} or X[{slot}] != x{slot}: w({slot}, v{slot}, x{slot})"
            )
        return self._source("V, X, w")

    def proc_function(self, body: ast.Statement) -> str:
        """``f(V, X, B, N)``: blocking writes into ``B``, non-blocking into ``N``."""
        self._procedural(body, "proc")
        self.stmt(body)
        return self._source("V, X, B, N")

    def _procedural(self, body: ast.Statement, mode: str) -> tuple[frozenset, frozenset]:
        blocking: set[int] = set()
        nonblocking: set[int] = set()
        for node in body.walk():
            if isinstance(node, ast.Assign):
                for name in ast._target_names(node.target):
                    slot = self._slots.get(name)
                    if slot is not None:
                        (blocking if node.blocking else nonblocking).add(slot)
        self._mode = mode
        self._locals = frozenset(blocking)
        for slot in sorted(blocking):
            self._line(f"v{slot} = V[{slot}]; x{slot} = X[{slot}]")
        return self._locals, frozenset(nonblocking)

    def _source(self, params: str) -> str:
        body = self.lines or ["    pass"]
        return f"def f({params}):\n" + "\n".join(body) + "\n"


def _emit(design_slots, widths, parameters, build: Callable[[_Emitter], str]) -> Callable:
    emitter = _Emitter(design_slots, widths, parameters)
    try:
        source = build(emitter)
    except RecursionError as exc:
        raise CompileError("expression too deep for the code generator") from exc
    except ValueError as exc:  # an int too wide to spell out as a literal
        raise CompileError(f"cannot emit a literal: {exc}") from exc
    return _build_function(source)


# --------------------------------------------------------------------------- #
# node construction and levelization
# --------------------------------------------------------------------------- #


class _CompiledBlock:
    """A procedural block lowered to one function plus its trigger edges."""

    __slots__ = ("fn", "edges", "pure_nba", "reads")

    def __init__(self, fn: Callable, edges: list[tuple[str, str]], pure_nba: bool,
                 reads: frozenset):
        self.fn = fn
        self.edges = edges  # [(signal, "posedge"|"negedge")]
        #: True when the body contains no blocking assignment: the block
        #: never writes ``B``, so a group of such blocks can read the live
        #: arrays and commit their non-blocking writes together.
        self.pure_nba = pure_nba
        #: Signal names the body reads (conditions, RHS, select indices).
        self.reads = reads


def _assign_reads(assign: ast.ContinuousAssign) -> set[str]:
    reads = set(assign.value.identifiers())
    if isinstance(assign.target, (ast.BitSelect, ast.PartSelect)):
        # A select write merges into the current value, so it also *reads*
        # the target signal (and its index expressions).
        reads |= assign.target.identifiers()
    return reads


def _block_reads(body: ast.Statement) -> set[str]:
    reads: set[str] = set()
    for node in body.walk():
        if isinstance(node, ast.Assign):
            reads |= node.value.identifiers()
            if isinstance(node.target, (ast.BitSelect, ast.PartSelect)):
                reads |= node.target.identifiers()
        elif isinstance(node, ast.If):
            reads |= node.condition.identifiers()
        elif isinstance(node, ast.Case):
            reads |= node.subject.identifiers()
            for item in node.items:
                for label in item.labels:
                    reads |= label.identifiers()
    return reads


def _toposort(order: list[int], edges: dict[int, set[int]]) -> list[int]:
    """Kahn's algorithm; members of dependency cycles keep their input order."""
    incoming: dict[int, int] = {n: 0 for n in order}
    for src, dsts in edges.items():
        for dst in dsts:
            if dst in incoming:
                incoming[dst] += 1
    ready = [n for n in order if incoming[n] == 0]
    heapify(ready)
    result: list[int] = []
    while ready:
        n = heappop(ready)
        result.append(n)
        for dst in edges.get(n, ()):
            incoming[dst] -= 1
            if incoming[dst] == 0:
                heappush(ready, dst)
    if len(result) < len(order):  # combinational cycle: append in input order
        placed = set(result)
        result.extend(n for n in order if n not in placed)
    return result


def _relower_incompatibility(
    base: "CompiledDesign", design: ElaboratedDesign
) -> Optional[str]:
    """Why ``base``'s node functions cannot be reused for ``design`` (None: they can).

    Emitted functions spell slot indices, widths/masks and parameter values
    out as constants, so incremental relowering requires the whole signal
    table and parameter environment to be identical; anything else falls
    back to a full recompile (correct, just slower).
    """
    names = sorted(design.signals)
    if base.names != names:
        return "signal table changed"
    if base.widths != [design.signals[n].width for n in names]:
        return "signal widths changed"
    if base.is_input != [design.signals[n].is_input for n in names]:
        return "port directions changed"
    if base.design.parameters != design.parameters:
        return "parameters changed"
    return None


class CompiledDesign:
    """One design lowered to node functions, ready to instantiate simulators from.

    With a ``base`` (a previously compiled, signal-table-identical design --
    in practice the unpatched design a candidate repair mutates), lowering
    is *incremental*: every node whose content key
    (:mod:`repro.artifacts.canon`) is unchanged reuses the base's function
    verbatim, and only the dirty cone -- the nodes the patch actually
    touched -- is relowered.  The dependency levels and settle schedule are
    recomputed from the new node graph either way, so an incremental lower
    is byte-identical to a full recompile by construction (and pinned so by
    ``tests/test_artifacts.py``).
    """

    def __init__(self, design: ElaboratedDesign, base: Optional["CompiledDesign"] = None):
        # Imported here (not at module top) to keep this module importable
        # before the repro.artifacts package exists in partial checkouts;
        # canon depends only on repro.hdl, so there is no cycle either way.
        from repro.artifacts.canon import (
            assign_node_key,
            block_node_key,
            initial_node_key,
        )

        self.design = design
        self.names: list[str] = sorted(design.signals)
        self.slots: dict[str, int] = {name: i for i, name in enumerate(self.names)}
        self.widths: list[int] = [design.signals[n].width for n in self.names]
        self.masks: list[int] = [(1 << w) - 1 for w in self.widths]
        self.is_input: list[bool] = [design.signals[n].is_input for n in self.names]

        #: Why an offered base was rejected (None: no base, or it was used).
        self.relower_fallback_reason: Optional[str] = None
        self.relower_nodes_reused = 0
        self.relower_nodes_total = 0
        if base is not None:
            self.relower_fallback_reason = _relower_incompatibility(base, design)
            if self.relower_fallback_reason is not None:
                base = None

        # Per-node reuse indexes: content key -> lowered state.  They make
        # this instance usable as the ``base`` of the next incremental
        # lower, whether it was itself lowered fully or incrementally.
        self._assign_index: dict[str, Callable] = {}
        self._comb_index: dict[str, Callable] = {}
        self._seq_index: dict[str, _CompiledBlock] = {}
        self._init_index: dict[str, Callable] = {}
        base_assigns = base._assign_index if base is not None else {}
        base_combs = base._comb_index if base is not None else {}
        base_seqs = base._seq_index if base is not None else {}
        base_inits = base._init_index if base is not None else {}

        def emit(build: Callable[[_Emitter], str]) -> Callable:
            return _emit(self.slots, self.widths, design.parameters, build)

        # -- settle nodes: continuous assigns + comb blocks ------------- #
        raw_nodes: list[tuple[Callable, set[str], set[str]]] = []
        for assign in design.continuous_assigns:
            key = assign_node_key(assign)
            runner = base_assigns.get(key)
            if runner is None:
                runner = emit(lambda e, assign=assign: e.assign_function(assign))
            else:
                self.relower_nodes_reused += 1
            self._assign_index[key] = runner
            writes = set(ast._target_names(assign.target))
            raw_nodes.append((runner, _assign_reads(assign), writes))
        for block in design.comb_blocks:
            key = block_node_key(block)
            runner = base_combs.get(key)
            if runner is None:
                runner = emit(lambda e, block=block: e.comb_function(block.body))
            else:
                self.relower_nodes_reused += 1
            self._comb_index[key] = runner
            writes = set(ast.assignment_targets(block.body))
            raw_nodes.append((runner, _block_reads(block.body), writes))

        # Topologically level the nodes: an edge src -> dst when src writes
        # a signal dst reads.  The settle heap pops lower ids first, so
        # levelled ids give single-pass settling for acyclic logic.
        writers: dict[str, list[int]] = {}
        for nid, (_, _, writes) in enumerate(raw_nodes):
            for name in writes:
                writers.setdefault(name, []).append(nid)
        # A signal with several writers needs every combinational writer to
        # observe the others' writes: contradictory continuous drivers then
        # keep re-triggering each other until the settle budget is exhausted
        # (the interpreter's "did not settle"), and a clocked write to a
        # comb-driven signal re-runs the combinational driver, which wins the
        # settle exactly like the interpreter's fixed-point loop.
        seq_written: set[str] = set()
        for block in design.seq_blocks:
            seq_written.update(ast.assignment_targets(block.body))
        for name, writer_ids in writers.items():
            if len(writer_ids) > 1 or name in seq_written:
                for nid in writer_ids:
                    raw_nodes[nid][1].add(name)
        dep_edges: dict[int, set[int]] = {}
        for nid, (_, reads, _) in enumerate(raw_nodes):
            for name in reads:
                for src in writers.get(name, ()):
                    if src != nid:
                        dep_edges.setdefault(src, set()).add(nid)
        level_order = _toposort(list(range(len(raw_nodes))), dep_edges)

        self.nodes: list[Callable] = [raw_nodes[nid][0] for nid in level_order]
        self.readers: list[list[int]] = [[] for _ in self.names]
        self.writer_nodes: list[list[int]] = [[] for _ in self.names]
        for new_id, old_id in enumerate(level_order):
            for name in raw_nodes[old_id][1]:
                slot = self.slots.get(name)
                if slot is not None:
                    self.readers[slot].append(new_id)
            for name in raw_nodes[old_id][2]:
                slot = self.slots.get(name)
                if slot is not None:
                    self.writer_nodes[slot].append(new_id)

        # -- clocked and initial blocks --------------------------------- #
        self.seq_blocks: list[_CompiledBlock] = []
        for block in design.seq_blocks:
            key = block_node_key(block)
            compiled = base_seqs.get(key)
            if compiled is None:
                compiled = self._compile_block(block, emit)
            else:
                self.relower_nodes_reused += 1
            self._seq_index[key] = compiled
            self.seq_blocks.append(compiled)
        self.initial_bodies: list[Callable] = []
        for initial in design.initial_blocks:
            key = initial_node_key(initial)
            body = base_inits.get(key)
            if body is None:
                body = emit(lambda e, initial=initial: e.proc_function(initial.body))
            else:
                self.relower_nodes_reused += 1
            self._init_index[key] = body
            self.initial_bodies.append(body)

        self.relower_nodes_total = (
            len(design.continuous_assigns)
            + len(design.comb_blocks)
            + len(design.seq_blocks)
            + len(design.initial_blocks)
        )
        if base is not None or self.relower_fallback_reason is not None:
            from repro.obs.metrics import get_registry

            registry = get_registry()
            registry.inc("relower.nodes_reused", self.relower_nodes_reused)
            registry.inc(
                "relower.nodes_lowered",
                self.relower_nodes_total - self.relower_nodes_reused,
            )

    @staticmethod
    def _compile_block(block: ProceduralBlock, emit) -> _CompiledBlock:
        fn = emit(lambda e: e.proc_function(block.body))
        edges = [(item.signal, item.edge) for item in block.clock_edges()]
        pure_nba = not any(
            isinstance(node, ast.Assign) and node.blocking for node in block.body.walk()
        )
        return _CompiledBlock(fn, edges, pure_nba, frozenset(_block_reads(block.body)))


def compile_design(
    design: ElaboratedDesign, base: Optional[CompiledDesign] = None
) -> CompiledDesign:
    """Lower ``design`` for the compiled backend (raises :class:`CompileError`).

    With ``base`` -- a previously compiled design sharing the same signal
    table and parameters, typically the unpatched design a candidate repair
    mutates -- only the nodes the patch touched are relowered; everything
    else reuses the base's functions (see :class:`CompiledDesign`).
    """
    return CompiledDesign(design, base=base)


# --------------------------------------------------------------------------- #
# the compiled simulator
# --------------------------------------------------------------------------- #

_NOT_SETTLED = "combinational logic did not settle (possible combinational loop)"


def _make_writer(val: list, xm: list, changed: set, readers: list, dirty: list, heap: list):
    """The write the node functions call for a changed signal: store, log, wake readers."""

    def write(slot: int, v: int, x: int) -> None:
        val[slot] = v
        xm[slot] = x
        changed.add(slot)
        for nid in readers[slot]:
            if not dirty[nid]:
                dirty[nid] = True
                heappush(heap, nid)

    return write


class CompiledSimulator:
    """Drop-in replacement for :class:`~repro.sim.engine.InterpSimulator`.

    Same public API and -- by construction plus differential testing -- the
    same cycle-level behaviour, built on the lowered design: flat integer
    state, dirty-set settling and a per-slot change-event trace.
    """

    def __init__(
        self,
        design: ElaboratedDesign,
        options: Optional[SimulatorOptions] = None,
        compiled: Optional[CompiledDesign] = None,
    ):
        self._design = design
        self._options = options or SimulatorOptions()
        self._compiled = compiled if compiled is not None else compile_design(design)
        self._clock = self._options.clock or detect_clock(design)

        c = self._compiled
        self._names = list(c.names)
        self._slots = dict(c.slots)
        self._sig_width = list(c.widths)
        self._sig_mask = list(c.masks)
        self._readers: list[list[int]] = [list(r) for r in c.readers]
        self._writer_nodes: list[list[int]] = [list(w) for w in c.writer_nodes]
        self._nodes = c.nodes

        # The clock may be virtual (purely combinational designs): give it a
        # synthetic slot so the trace and value() behave like the engine's.
        if self._clock not in self._slots:
            self._slots[self._clock] = len(self._names)
            self._names.append(self._clock)
            self._sig_width.append(1)
            self._sig_mask.append(1)
            self._readers.append([])
            self._writer_nodes.append([])
        self._clock_slot = self._slots[self._clock]
        if self._sig_width[self._clock_slot] != 1:
            raise CompileError(f"clock '{self._clock}' is not a 1-bit signal")

        # Clock-edge trigger lists mirror InterpSimulator._fire_clock_edge /
        # _fire_async_edges: posedge/negedge of the active clock fire every
        # cycle; every other edge is an asynchronous trigger.
        self._posedge_blocks: list[_CompiledBlock] = []
        self._negedge_blocks: list[_CompiledBlock] = []
        self._async_slots: list[int] = []
        async_index: dict[int, int] = {}
        self._async_triggers: list[tuple[_CompiledBlock, list[tuple[int, bool]]]] = []
        for block in c.seq_blocks:
            triggers: list[tuple[int, bool]] = []
            for signal, edge in block.edges:
                if signal == self._clock:
                    if edge == "posedge":
                        self._posedge_blocks.append(block)
                    else:
                        self._negedge_blocks.append(block)
                    continue
                slot = self._slots.get(signal)
                if slot is None:
                    continue
                if slot not in async_index:
                    async_index[slot] = len(self._async_slots)
                    self._async_slots.append(slot)
                triggers.append((async_index[slot], edge == "negedge"))
            if triggers:
                self._async_triggers.append((block, triggers))

        # -- mutable state ---------------------------------------------- #
        n = len(self._names)
        self._val: list[int] = [0] * n
        self._xm: list[int] = [0] * n
        self._dirty: list[bool] = [False] * len(self._nodes)
        self._heap: list[int] = []
        self._budget = _MAX_SETTLE_ITERATIONS * max(1, len(self._nodes))
        self._changed: set[int] = set()
        self._write = _make_writer(
            self._val, self._xm, self._changed, self._readers, self._dirty, self._heap
        )
        self._input_lookup: dict[str, tuple[int, int, list[int]]] = {}
        self._prev_async_v: list[int] = [0] * len(self._async_slots)
        self._prev_async_x: list[int] = [0] * len(self._async_slots)
        # The 0->1->0 clock pulse is unobservable (and therefore skippable)
        # when no combinational node and no clocked block reads the clock
        # signal itself; the per-cycle check on the current value keeps a
        # stimulus-driven clock exactly engine-identical.
        self._clock_pulse_observable = bool(self._readers[self._clock_slot]) or any(
            self._clock in block.reads for block in c.seq_blocks
        )
        self._cycle = 0

        self._initialise_state()
        self._shadow_v: list[int] = self._val.copy()
        self._shadow_x: list[int] = self._xm.copy()
        self._changed.clear()
        self._trace = DiffTrace(
            sorted(design.signals), self._names, self._sig_width, self._val, self._xm
        )

    # ------------------------------------------------------------------ #
    # public API (mirrors InterpSimulator)
    # ------------------------------------------------------------------ #

    @property
    def design(self) -> ElaboratedDesign:
        return self._design

    @property
    def clock(self) -> str:
        return self._clock

    @property
    def trace(self) -> DiffTrace:
        return self._trace

    @property
    def cycle(self) -> int:
        return self._cycle

    def value(self, name: str) -> LogicValue:
        """Current (post-edge, settled) value of a signal."""
        slot = self._slots.get(name)
        if slot is None:
            raise SimulationError(f"unknown signal '{name}'")
        return LogicValue(
            value=self._val[slot], xmask=self._xm[slot], width=self._sig_width[slot]
        )

    def peek(self, name: str) -> Optional[int]:
        """Current value as an int, or ``None`` when unknown."""
        slot = self._slots.get(name)
        if slot is None:
            raise SimulationError(f"unknown signal '{name}'")
        return None if self._xm[slot] else self._val[slot]

    def step(self, inputs: Optional[Mapping[str, int]] = None) -> TraceSample:
        """Simulate one full clock cycle with the given input values."""
        self.run([inputs or {}])
        return self._trace[self._cycle - 1]

    def run(self, stimulus: list) -> DiffTrace:
        """Run one clock cycle per entry of ``stimulus``; return the (event) trace.

        The whole stimulus runs in this one frame: inputs, settling,
        asynchronous edges, the clock edge and recording are inlined, so a
        cycle costs no simulator method calls on the common path.  Samples
        are never materialised here, so a run whose trace is only read as
        columns stays cheap.
        """
        val = self._val
        xm = self._xm
        changed = self._changed
        dirty = self._dirty
        heap = self._heap
        nodes = self._nodes
        write = self._write
        budget = self._budget
        lookup = self._input_lookup
        shadow_v = self._shadow_v
        shadow_x = self._shadow_x
        trace = self._trace
        halves = trace.event_halves
        values = trace.event_values
        xmasks = trace.event_xmasks
        async_slots = self._async_slots
        async_triggers = self._async_triggers
        prev_v = self._prev_async_v
        prev_x = self._prev_async_x
        clock = self._clock_slot
        observable = self._clock_pulse_observable
        # Idiomatic RTL (posedge blocks with only non-blocking writes, no
        # negedge blocks) commits its registers right here.
        fast_edge = not self._negedge_blocks and all(
            block.pure_nba for block in self._posedge_blocks
        )
        posedge = [block.fn for block in self._posedge_blocks]
        cycle = self._cycle
        try:
            for inputs in stimulus:
                for i, slot in enumerate(async_slots):
                    prev_v[i] = val[slot]
                    prev_x[i] = xm[slot]
                for name, value in inputs.items():
                    entry = lookup.get(name)
                    if entry is None:
                        entry = self._input_entry(name)
                    slot, m, wake = entry
                    if type(value) is int:
                        v = value & m
                        x = 0
                    elif isinstance(value, LogicValue):
                        x = value.xmask & m
                        v = value.value & m & ~x
                    else:
                        v = int(value) & m
                        x = 0
                    if val[slot] != v or xm[slot] != x:
                        val[slot] = v
                        xm[slot] = x
                        changed.add(slot)
                        # Readers, plus any combinational driver of the
                        # signal: in the interpreter's fixed-point settle
                        # the driver always wins over the forced value.
                        for nid in wake:
                            if not dirty[nid]:
                                dirty[nid] = True
                                heappush(heap, nid)
                # A pre-edge change is sampled from its own cycle on (half
                # 2c); a post-edge change is first sampled at c + 1 (2c + 1).
                half = cycle + cycle
                for after_edge in (False, True):
                    if after_edge and fast_edge:
                        toggle = observable or val[clock] != 0
                        if toggle and (val[clock] != 1 or xm[clock]):
                            write(clock, 1, 0)
                        nonblocking: dict = {}
                        for fn in posedge:
                            fn(val, xm, nonblocking, nonblocking)
                        for slot, (v, x) in nonblocking.items():
                            if val[slot] != v or xm[slot] != x:
                                write(slot, v, x)
                        if toggle and (val[clock] or xm[clock]):
                            write(clock, 0, 0)
                    elif after_edge:
                        self._fire_clock_edge()
                    execs = 0
                    while heap:
                        nid = heappop(heap)
                        if dirty[nid]:
                            dirty[nid] = False
                            execs += 1
                            if execs > budget:
                                raise SimulationError(_NOT_SETTLED)
                            nodes[nid](val, xm, write)
                    if async_triggers and not after_edge:
                        triggered = []
                        for block, triggers in async_triggers:
                            for index, negedge in triggers:
                                slot = async_slots[index]
                                if prev_x[index] or xm[slot]:
                                    continue
                                before = prev_v[index] & 1
                                if before != val[slot] & 1 and before == negedge:
                                    triggered.append(block)
                                    break
                        if triggered:
                            self._run_blocks(triggered)
                            self._settle()
                    if changed:
                        for slot in changed:
                            v = val[slot]
                            x = xm[slot]
                            if shadow_v[slot] != v or shadow_x[slot] != x:
                                shadow_v[slot] = v
                                shadow_x[slot] = x
                                halves[slot].append(half)
                                values[slot].append(v)
                                xmasks[slot].append(x)
                        changed.clear()
                    half += 1
                cycle += 1
        finally:
            if cycle != self._cycle:
                self._cycle = cycle
                trace._extend_to(cycle)
        return trace

    def _input_entry(self, name: str) -> tuple[int, int, list[int]]:
        """(slot, mask, nodes to wake) of a stimulus signal, resolved once."""
        if name not in self._design.signals:
            raise SimulationError(f"unknown input signal '{name}'")
        slot = self._slots[name]
        wake = list(self._readers[slot])
        wake.extend(nid for nid in self._writer_nodes[slot] if nid not in wake)
        entry = self._input_lookup[name] = (slot, self._sig_mask[slot], wake)
        return entry

    # ------------------------------------------------------------------ #
    # initialisation and the less common phases
    # ------------------------------------------------------------------ #

    def _initialise_state(self) -> None:
        val = self._val
        xm = self._xm
        x_init = self._options.x_initial_state
        design_signals = self._design.signals
        for i, name in enumerate(self._names):
            signal = design_signals.get(name)
            if x_init and signal is not None and not signal.is_input:
                val[i] = 0
                xm[i] = self._sig_mask[i]
        for fn in self._compiled.initial_bodies:
            blocking: dict[int, tuple[int, int]] = {}
            nonblocking: dict[int, tuple[int, int]] = {}
            fn(val, xm, blocking, nonblocking)
            blocking.update(nonblocking)
            for slot, (v, x) in blocking.items():
                val[slot] = v
                xm[slot] = x
        # Everything is potentially stale: settle the whole design once.
        self._heap[:] = range(len(self._nodes))
        for nid in self._heap:
            self._dirty[nid] = True
        heapify(self._heap)
        self._settle()

    def _settle(self) -> None:
        heap = self._heap
        dirty = self._dirty
        nodes = self._nodes
        val = self._val
        xm = self._xm
        write = self._write
        execs = 0
        while heap:
            nid = heappop(heap)
            if dirty[nid]:
                dirty[nid] = False
                execs += 1
                if execs > self._budget:
                    raise SimulationError(_NOT_SETTLED)
                nodes[nid](val, xm, write)

    def _commit(self, updates: dict) -> None:
        val = self._val
        xm = self._xm
        for slot, (v, x) in updates.items():
            if val[slot] != v or xm[slot] != x:
                self._write(slot, v, x)

    def _fire_clock_edge(self) -> None:
        clock = self._clock_slot
        toggle = self._clock_pulse_observable or self._val[clock] != 0
        if toggle:
            self._commit({clock: (1, 0)})
        self._run_blocks(self._posedge_blocks)
        if self._negedge_blocks:
            # Negedge-clocked blocks fire "half a cycle later": settle, then run.
            self._settle()
            self._run_blocks(self._negedge_blocks)
        if toggle:
            self._commit({clock: (0, 0)})

    def _run_blocks(self, blocks: list[_CompiledBlock]) -> None:
        """Execute blocks against the pre-edge state; commit NBAs together."""
        nonblocking: dict[int, tuple[int, int]] = {}
        if all(block.pure_nba for block in blocks):
            # No block writes B, and nothing is committed until every block
            # has run: all of them can read the live arrays.
            for block in blocks:
                block.fn(self._val, self._xm, nonblocking, nonblocking)
        else:
            # Blocking writes land after each block; every block reads the
            # pre-edge snapshot (the functions never write their arrays).
            base_v = self._val.copy()
            base_x = self._xm.copy()
            for block in blocks:
                blocking: dict[int, tuple[int, int]] = {}
                block.fn(base_v, base_x, blocking, nonblocking)
                self._commit(blocking)
        self._commit(nonblocking)
