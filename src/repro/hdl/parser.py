"""Recursive-descent parser for the Verilog-2001 / SVA subset.

The grammar covers exactly what the synthetic corpus generator and the
hand-written RTLLM-style designs use: ANSI and non-ANSI module headers,
parameters, net/reg declarations, continuous assignments, clocked and
combinational ``always`` blocks, ``if``/``case``/``for`` statements,
module instantiation, named and inline concurrent SVA assertions.
Anything outside that subset produces a :class:`~repro.hdl.errors.ParseError`
with a precise location, which is what the pipeline's compile stage needs.
"""

from __future__ import annotations

from typing import Optional

from repro.hdl import ast
from repro.hdl.errors import ParseError
from repro.hdl.lexer import Token, TokenKind, tokenize

#: Binary operator precedence levels (higher binds tighter).
_BINARY_PRECEDENCE: dict[str, int] = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "~^": 4,
    "^~": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "===": 6,
    "!==": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "<<<": 8,
    ">>>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
    "**": 11,
}

_UNARY_OPERATORS = frozenset({"~", "!", "-", "+", "&", "|", "^"})


class Parser:
    """Parses a token stream into a :class:`repro.hdl.ast.SourceUnit`."""

    def __init__(self, tokens: list[Token], text: str = ""):
        self._tokens = tokens
        self._pos = 0
        self._text = text

    # ------------------------------------------------------------------ #
    # token-stream helpers
    # ------------------------------------------------------------------ #

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _peek(self, offset: int = 1) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._current
        if self._pos < len(self._tokens) - 1:
            self._pos += 1
        return token

    def _error(self, message: str, token: Optional[Token] = None) -> ParseError:
        token = token or self._current
        return ParseError(message, token.line, token.column, "syntax-error")

    def _expect_punct(self, punct: str) -> Token:
        if not self._current.is_punct(punct):
            raise self._error(f"expected '{punct}', found '{self._current.value or 'EOF'}'")
        return self._advance()

    def _expect_op(self, op: str) -> Token:
        if not self._current.is_op(op):
            raise self._error(f"expected '{op}', found '{self._current.value or 'EOF'}'")
        return self._advance()

    def _expect_keyword(self, *names: str) -> Token:
        if not self._current.is_keyword(*names):
            expected = " or ".join(f"'{n}'" for n in names)
            raise self._error(f"expected {expected}, found '{self._current.value or 'EOF'}'")
        return self._advance()

    def _expect_ident(self) -> Token:
        if self._current.kind is not TokenKind.IDENT:
            raise self._error(f"expected identifier, found '{self._current.value or 'EOF'}'")
        return self._advance()

    def _accept_punct(self, punct: str) -> bool:
        if self._current.is_punct(punct):
            self._advance()
            return True
        return False

    def _accept_op(self, op: str) -> bool:
        if self._current.is_op(op):
            self._advance()
            return True
        return False

    def _accept_keyword(self, *names: str) -> bool:
        if self._current.is_keyword(*names):
            self._advance()
            return True
        return False

    # ------------------------------------------------------------------ #
    # top level
    # ------------------------------------------------------------------ #

    def parse(self) -> ast.SourceUnit:
        """Parse the full token stream into a source unit."""
        unit = ast.SourceUnit(text=self._text)
        while self._current.kind is not TokenKind.EOF:
            if self._current.is_keyword("module"):
                unit.modules.append(self._parse_module())
            else:
                raise self._error(
                    f"expected 'module' at top level, found '{self._current.value}'"
                )
        if not unit.modules:
            raise ParseError("source contains no module", 1, 1, "no-module")
        return unit

    def _parse_module(self) -> ast.Module:
        start = self._expect_keyword("module")
        name = self._expect_ident().value
        module = ast.Module(name=name, line=start.line)

        if self._current.is_op("#"):
            self._advance()
            self._parse_parameter_port_list(module)

        if self._accept_punct("("):
            self._parse_port_list(module)
            self._expect_punct(")")
        self._expect_punct(";")

        while not self._current.is_keyword("endmodule"):
            if self._current.kind is TokenKind.EOF:
                raise self._error("unexpected end of file: missing 'endmodule'")
            self._parse_module_item(module)
        self._expect_keyword("endmodule")
        return module

    def _parse_parameter_port_list(self, module: ast.Module) -> None:
        self._expect_punct("(")
        while True:
            self._expect_keyword("parameter")
            decl = self._parse_single_parameter(local=False)
            module.parameters.append(decl)
            if not self._accept_punct(","):
                break
        self._expect_punct(")")

    def _parse_single_parameter(self, local: bool) -> ast.ParamDecl:
        rng = None
        if self._current.is_punct("["):
            rng = self._parse_range()
        token = self._expect_ident()
        self._expect_op("=")
        value = self._parse_expression()
        return ast.ParamDecl(name=token.value, value=value, local=local, range=rng, line=token.line)

    def _parse_port_list(self, module: ast.Module) -> None:
        if self._current.is_punct(")"):
            return
        while True:
            if self._current.is_keyword("input", "output", "inout"):
                module.ports.append(self._parse_ansi_port())
            elif self._current.kind is TokenKind.IDENT:
                # Non-ANSI style: just a name; direction comes from body decls.
                token = self._advance()
                module.ports.append(
                    ast.Port(direction="", net_type="wire", name=token.value, line=token.line)
                )
            else:
                raise self._error("expected port declaration")
            if not self._accept_punct(","):
                break

    def _parse_ansi_port(self) -> ast.Port:
        direction_token = self._advance()
        direction = direction_token.value
        net_type = "wire"
        signed = False
        if self._current.is_keyword("wire", "reg", "logic"):
            net_type = self._advance().value
        if self._current.is_keyword("signed"):
            signed = True
            self._advance()
        rng = None
        if self._current.is_punct("["):
            rng = self._parse_range()
        name = self._expect_ident().value
        return ast.Port(
            direction=direction,
            net_type=net_type,
            name=name,
            range=rng,
            signed=signed,
            line=direction_token.line,
        )

    def _parse_range(self) -> ast.Range:
        self._expect_punct("[")
        msb = self._parse_expression()
        self._expect_op(":")
        lsb = self._parse_expression()
        self._expect_punct("]")
        return ast.Range(msb=msb, lsb=lsb)

    # ------------------------------------------------------------------ #
    # module items
    # ------------------------------------------------------------------ #

    def _parse_module_item(self, module: ast.Module) -> None:
        token = self._current
        if token.is_keyword("input", "output", "inout"):
            self._parse_body_port_decl(module)
        elif token.is_keyword("wire", "reg", "logic", "integer", "genvar"):
            module.items.append(self._parse_net_decl())
        elif token.is_keyword("parameter", "localparam"):
            local = token.value == "localparam"
            self._advance()
            decl = self._parse_single_parameter(local=local)
            self._expect_punct(";")
            if local:
                module.items.append(decl)
            else:
                module.parameters.append(decl)
        elif token.is_keyword("assign"):
            module.items.append(self._parse_continuous_assign())
        elif token.is_keyword("always", "always_ff", "always_comb"):
            module.items.append(self._parse_always())
        elif token.is_keyword("initial"):
            self._advance()
            body = self._parse_statement()
            module.items.append(ast.InitialBlock(body=body, line=token.line))
        elif token.is_keyword("property"):
            module.items.append(self._parse_property_decl())
        elif token.is_keyword("assert", "assume", "cover"):
            module.items.append(self._parse_concurrent_assertion(label=""))
        elif token.is_keyword("generate", "endgenerate", "function", "task", "for"):
            raise self._error(f"construct '{token.value}' is not supported at module scope")
        elif token.kind is TokenKind.IDENT:
            self._parse_labeled_or_instantiation(module)
        else:
            raise self._error(f"unexpected token '{token.value}' in module body")

    def _parse_body_port_decl(self, module: ast.Module) -> None:
        """Non-ANSI body declaration: ``input [3:0] a, b;`` updates header ports."""
        direction_token = self._advance()
        direction = direction_token.value
        net_type = "wire"
        if self._current.is_keyword("wire", "reg", "logic"):
            net_type = self._advance().value
        signed = False
        if self._current.is_keyword("signed"):
            signed = True
            self._advance()
        rng = None
        if self._current.is_punct("["):
            rng = self._parse_range()
        while True:
            name = self._expect_ident().value
            port = module_port_by_name(module, name)
            if port is None:
                module.ports.append(
                    ast.Port(
                        direction=direction,
                        net_type=net_type,
                        name=name,
                        range=rng,
                        signed=signed,
                        line=direction_token.line,
                    )
                )
            else:
                port.direction = direction
                port.net_type = net_type
                port.range = rng
                port.signed = signed
            if not self._accept_punct(","):
                break
        self._expect_punct(";")

    def _parse_net_decl(self) -> ast.NetDecl:
        kind_token = self._advance()
        kind = kind_token.value
        signed = False
        if self._current.is_keyword("signed"):
            signed = True
            self._advance()
        rng = None
        if self._current.is_punct("["):
            rng = self._parse_range()
        names: list[str] = []
        initial: Optional[ast.Expression] = None
        while True:
            names.append(self._expect_ident().value)
            if self._current.is_op("="):
                self._advance()
                initial = self._parse_expression()
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        return ast.NetDecl(
            kind=kind,
            names=names,
            range=rng,
            signed=signed,
            initial=initial,
            line=kind_token.line,
        )

    def _parse_continuous_assign(self) -> ast.ContinuousAssign:
        token = self._expect_keyword("assign")
        target = self._parse_lvalue()
        self._expect_op("=")
        value = self._parse_expression()
        self._expect_punct(";")
        return ast.ContinuousAssign(target=target, value=value, line=token.line)

    def _parse_always(self) -> ast.AlwaysBlock:
        keyword_token = self._advance()
        keyword = keyword_token.value
        sensitivity: list[ast.SensitivityItem] = []
        star = False
        if keyword == "always_comb":
            star = True
        else:
            self._expect_punct("@")
            if self._accept_op("*"):
                star = True
            else:
                self._expect_punct("(")
                if self._accept_op("*"):
                    star = True
                else:
                    sensitivity = self._parse_sensitivity_list()
                self._expect_punct(")")
        body = self._parse_statement()
        return ast.AlwaysBlock(
            sensitivity=sensitivity,
            star=star,
            body=body,
            keyword=keyword,
            line=keyword_token.line,
        )

    def _parse_sensitivity_list(self) -> list[ast.SensitivityItem]:
        items: list[ast.SensitivityItem] = []
        while True:
            edge: Optional[str] = None
            if self._current.is_keyword("posedge", "negedge"):
                edge = self._advance().value
            name = self._expect_ident().value
            items.append(ast.SensitivityItem(edge=edge, signal=name))
            if self._accept_keyword("or") or self._accept_punct(","):
                continue
            break
        return items

    def _parse_labeled_or_instantiation(self, module: ast.Module) -> None:
        """Disambiguate ``label: assert property`` from a module instantiation."""
        ident_token = self._current
        nxt = self._peek(1)
        if nxt.is_op(":"):
            self._advance()
            self._advance()
            if self._current.is_keyword("assert", "assume", "cover"):
                module.items.append(self._parse_concurrent_assertion(label=ident_token.value))
                return
            raise self._error("only assertion statements may be labelled at module scope")
        if nxt.kind is TokenKind.IDENT or nxt.is_op("#"):
            module.items.append(self._parse_instantiation())
            return
        raise self._error(f"unexpected identifier '{ident_token.value}' in module body")

    def _parse_instantiation(self) -> ast.Instantiation:
        module_token = self._expect_ident()
        parameter_overrides: dict[str, ast.Expression] = {}
        if self._accept_op("#"):
            self._expect_punct("(")
            while True:
                self._expect_punct(".")
                pname = self._expect_ident().value
                self._expect_punct("(")
                parameter_overrides[pname] = self._parse_expression()
                self._expect_punct(")")
                if not self._accept_punct(","):
                    break
            self._expect_punct(")")
        instance_name = self._expect_ident().value
        self._expect_punct("(")
        connections: list[ast.PortConnection] = []
        if not self._current.is_punct(")"):
            while True:
                self._expect_punct(".")
                port = self._expect_ident().value
                self._expect_punct("(")
                expr: Optional[ast.Expression] = None
                if not self._current.is_punct(")"):
                    expr = self._parse_expression()
                self._expect_punct(")")
                connections.append(ast.PortConnection(port=port, expr=expr))
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")
        self._expect_punct(";")
        return ast.Instantiation(
            module_name=module_token.value,
            instance_name=instance_name,
            connections=connections,
            parameter_overrides=parameter_overrides,
            line=module_token.line,
        )

    # ------------------------------------------------------------------ #
    # SVA properties and assertions
    # ------------------------------------------------------------------ #

    def _parse_property_decl(self) -> ast.PropertyDecl:
        token = self._expect_keyword("property")
        name = self._expect_ident().value
        self._expect_punct(";")
        clock, disable_iff, body = self._parse_property_spec()
        self._expect_punct(";")
        self._expect_keyword("endproperty")
        return ast.PropertyDecl(
            name=name, clock=clock, disable_iff=disable_iff, body=body, line=token.line
        )

    def _parse_property_spec(
        self,
    ) -> tuple[Optional[ast.ClockEvent], Optional[ast.Expression], ast.SvaProperty]:
        clock: Optional[ast.ClockEvent] = None
        disable_iff: Optional[ast.Expression] = None
        if self._current.is_punct("@"):
            self._advance()
            self._expect_punct("(")
            edge = self._expect_keyword("posedge", "negedge").value
            signal = self._expect_ident().value
            self._expect_punct(")")
            clock = ast.ClockEvent(edge=edge, signal=signal)
        if self._current.is_keyword("disable"):
            self._advance()
            self._expect_keyword("iff")
            self._expect_punct("(")
            disable_iff = self._parse_expression()
            self._expect_punct(")")
        body = self._parse_property_body()
        return clock, disable_iff, body

    def _parse_property_body(self) -> ast.SvaProperty:
        first = self._parse_sva_sequence()
        if self._current.is_op("|->", "|=>"):
            overlapping = self._current.value == "|->"
            self._advance()
            consequent = self._parse_sva_sequence()
            return ast.SvaProperty(antecedent=first, consequent=consequent, overlapping=overlapping)
        return ast.SvaProperty(antecedent=None, consequent=first, overlapping=True)

    def _parse_sva_sequence(self) -> ast.SvaSequence:
        elements: list[ast.SequenceElement] = []
        delay = 0
        if self._current.is_op("##"):
            self._advance()
            delay = self._parse_delay_count()
        elements.append(ast.SequenceElement(delay=delay, expr=self._parse_expression()))
        while self._current.is_op("##"):
            self._advance()
            delay = self._parse_delay_count()
            elements.append(ast.SequenceElement(delay=delay, expr=self._parse_expression()))
        return ast.SvaSequence(elements=elements)

    def _parse_delay_count(self) -> int:
        if self._current.kind is not TokenKind.NUMBER:
            raise self._error("expected a constant delay after '##'")
        token = self._advance()
        try:
            return int(token.value)
        except ValueError as exc:
            raise self._error(f"invalid delay '{token.value}'", token) from exc

    def _parse_concurrent_assertion(self, label: str) -> ast.ConcurrentAssertion:
        kind_token = self._advance()  # assert / assume / cover
        kind = kind_token.value
        self._expect_keyword("property")
        self._expect_punct("(")
        property_name: Optional[str] = None
        inline: Optional[ast.PropertyDecl] = None
        if (
            self._current.kind is TokenKind.IDENT
            and self._peek(1).is_punct(")")
        ):
            property_name = self._advance().value
        else:
            clock, disable_iff, body = self._parse_property_spec()
            inline = ast.PropertyDecl(
                name=f"__inline_{label or kind}_{kind_token.line}",
                clock=clock,
                disable_iff=disable_iff,
                body=body,
                line=kind_token.line,
            )
        self._expect_punct(")")
        error_message = ""
        if self._current.is_keyword("else"):
            self._advance()
            if self._current.kind is TokenKind.SYSTEM_IDENT:
                self._advance()
                self._expect_punct("(")
                if self._current.kind is TokenKind.STRING:
                    error_message = self._advance().value
                while not self._current.is_punct(")"):
                    if self._current.kind is TokenKind.EOF:
                        raise self._error("unterminated assertion action block")
                    self._advance()
                self._expect_punct(")")
            else:
                raise self._error("expected system task after 'else' in assertion")
        self._expect_punct(";")
        return ast.ConcurrentAssertion(
            label=label,
            property_name=property_name,
            inline=inline,
            kind=kind,
            error_message=error_message,
            line=kind_token.line,
        )

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #

    def _parse_statement(self) -> ast.Statement:
        token = self._current
        if token.is_keyword("begin"):
            return self._parse_block()
        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_keyword("case", "casez", "casex"):
            return self._parse_case()
        if token.is_keyword("for"):
            return self._parse_for()
        if token.kind is TokenKind.SYSTEM_IDENT:
            return self._parse_system_task()
        if token.is_punct(";"):
            self._advance()
            return ast.NullStatement(line=token.line)
        if token.kind is TokenKind.IDENT or token.is_punct("{"):
            return self._parse_assignment()
        raise self._error(f"unexpected token '{token.value}' in statement")

    def _parse_block(self) -> ast.Block:
        self._expect_keyword("begin")
        name: Optional[str] = None
        if self._accept_op(":"):
            name = self._expect_ident().value
        statements: list[ast.Statement] = []
        while not self._current.is_keyword("end"):
            if self._current.kind is TokenKind.EOF:
                raise self._error("unexpected end of file: missing 'end'")
            statements.append(self._parse_statement())
        self._expect_keyword("end")
        return ast.Block(statements=statements, name=name)

    def _parse_if(self) -> ast.If:
        token = self._expect_keyword("if")
        self._expect_punct("(")
        condition = self._parse_expression()
        self._expect_punct(")")
        then_branch = self._parse_statement()
        else_branch: Optional[ast.Statement] = None
        if self._current.is_keyword("else"):
            self._advance()
            else_branch = self._parse_statement()
        return ast.If(
            condition=condition,
            then_branch=then_branch,
            else_branch=else_branch,
            line=token.line,
        )

    def _parse_case(self) -> ast.Case:
        token = self._advance()
        variant = token.value
        self._expect_punct("(")
        subject = self._parse_expression()
        self._expect_punct(")")
        items: list[ast.CaseItem] = []
        while not self._current.is_keyword("endcase"):
            if self._current.kind is TokenKind.EOF:
                raise self._error("unexpected end of file: missing 'endcase'")
            if self._current.is_keyword("default"):
                self._advance()
                self._accept_op(":")
                body = self._parse_statement()
                items.append(ast.CaseItem(labels=[], body=body))
                continue
            labels = [self._parse_expression()]
            while self._accept_punct(","):
                labels.append(self._parse_expression())
            self._expect_op(":")
            body = self._parse_statement()
            items.append(ast.CaseItem(labels=labels, body=body))
        self._expect_keyword("endcase")
        return ast.Case(subject=subject, items=items, variant=variant, line=token.line)

    def _parse_for(self) -> ast.For:
        token = self._expect_keyword("for")
        self._expect_punct("(")
        init_var = self._expect_ident().value
        self._expect_op("=")
        init_value = self._parse_expression()
        self._expect_punct(";")
        condition = self._parse_expression()
        self._expect_punct(";")
        step_var = self._expect_ident().value
        self._expect_op("=")
        step_value = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return ast.For(
            init_var=init_var,
            init_value=init_value,
            condition=condition,
            step_var=step_var,
            step_value=step_value,
            body=body,
            line=token.line,
        )

    def _parse_system_task(self) -> ast.SystemTaskCall:
        token = self._advance()
        args: list[ast.Expression] = []
        if self._accept_punct("("):
            if not self._current.is_punct(")"):
                while True:
                    if self._current.kind is TokenKind.STRING:
                        string_token = self._advance()
                        args.append(
                            ast.Number(0, text=f'"{string_token.value}"')
                        )
                    else:
                        args.append(self._parse_expression())
                    if not self._accept_punct(","):
                        break
            self._expect_punct(")")
        self._expect_punct(";")
        return ast.SystemTaskCall(name=token.value, args=args, line=token.line)

    def _parse_assignment(self) -> ast.Assign:
        token = self._current
        target = self._parse_lvalue()
        if self._current.is_op("<="):
            self._advance()
            value = self._parse_expression()
            blocking = False
        elif self._current.is_op("="):
            self._advance()
            value = self._parse_expression()
            blocking = True
        else:
            raise self._error("expected '=' or '<=' in assignment")
        self._expect_punct(";")
        return ast.Assign(target=target, value=value, blocking=blocking, line=token.line)

    def _parse_lvalue(self) -> ast.Expression:
        if self._current.is_punct("{"):
            self._advance()
            parts = [self._parse_lvalue()]
            while self._accept_punct(","):
                parts.append(self._parse_lvalue())
            self._expect_punct("}")
            return ast.Concat(parts=parts)
        name_token = self._expect_ident()
        expr: ast.Expression = ast.Identifier(name=name_token.value)
        while self._current.is_punct("["):
            self._advance()
            first = self._parse_expression()
            if self._accept_op(":"):
                second = self._parse_expression()
                self._expect_punct("]")
                expr = ast.PartSelect(base=expr, msb=first, lsb=second)
            else:
                self._expect_punct("]")
                expr = ast.BitSelect(base=expr, index=first)
        return expr

    # ------------------------------------------------------------------ #
    # expressions
    # ------------------------------------------------------------------ #

    def _parse_expression(self) -> ast.Expression:
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expression:
        condition = self._parse_binary(1)
        if self._current.is_op("?"):
            self._advance()
            if_true = self._parse_expression()
            self._expect_op(":")
            if_false = self._parse_expression()
            return ast.Ternary(condition=condition, if_true=if_true, if_false=if_false)
        return condition

    def _parse_binary(self, min_precedence: int) -> ast.Expression:
        left = self._parse_unary()
        while True:
            token = self._current
            if token.kind is not TokenKind.OPERATOR:
                break
            precedence = _BINARY_PRECEDENCE.get(token.value)
            if precedence is None or precedence < min_precedence:
                break
            self._advance()
            right = self._parse_binary(precedence + 1)
            left = ast.Binary(op=token.value, left=left, right=right)
        return left

    def _parse_unary(self) -> ast.Expression:
        token = self._current
        if token.kind is TokenKind.OPERATOR and token.value in _UNARY_OPERATORS:
            self._advance()
            operand = self._parse_unary()
            return ast.Unary(op=token.value, operand=operand)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self._current
        if token.kind is TokenKind.NUMBER:
            self._advance()
            return parse_number(token)
        if token.kind is TokenKind.SYSTEM_IDENT:
            return self._parse_system_call()
        if token.is_punct("("):
            self._advance()
            expr = self._parse_expression()
            self._expect_punct(")")
            return self._parse_postfix(expr)
        if token.is_punct("{"):
            return self._parse_concat_or_replicate()
        if token.kind is TokenKind.IDENT:
            self._advance()
            return self._parse_postfix(ast.Identifier(name=token.value))
        raise self._error(f"unexpected token '{token.value or 'EOF'}' in expression")

    def _parse_system_call(self) -> ast.Expression:
        token = self._advance()
        args: list[ast.Expression] = []
        if self._accept_punct("("):
            if not self._current.is_punct(")"):
                while True:
                    args.append(self._parse_expression())
                    if not self._accept_punct(","):
                        break
            self._expect_punct(")")
        return ast.SystemCall(name=token.value, args=args)

    def _parse_concat_or_replicate(self) -> ast.Expression:
        self._expect_punct("{")
        first = self._parse_expression()
        if self._current.is_punct("{"):
            # Replication: {count{value}}
            self._advance()
            value = self._parse_expression()
            self._expect_punct("}")
            self._expect_punct("}")
            return ast.Replicate(count=first, value=value)
        parts = [first]
        while self._accept_punct(","):
            parts.append(self._parse_expression())
        self._expect_punct("}")
        return ast.Concat(parts=parts)

    def _parse_postfix(self, expr: ast.Expression) -> ast.Expression:
        while self._current.is_punct("["):
            self._advance()
            first = self._parse_expression()
            if self._accept_op(":"):
                second = self._parse_expression()
                self._expect_punct("]")
                expr = ast.PartSelect(base=expr, msb=first, lsb=second)
            else:
                self._expect_punct("]")
                expr = ast.BitSelect(base=expr, index=first)
        return expr


def parse_number(token: Token) -> ast.Number:
    """Convert a NUMBER token into an :class:`ast.Number` node."""
    text = token.value
    if "'" not in text:
        cleaned = text.replace("_", "")
        return ast.Number(value=int(cleaned), width=None, base="", text=text)
    size_part, _, rest = text.partition("'")
    rest = rest.lstrip("sS")
    base_char = rest[0].lower()
    digits = rest[1:].replace("_", "")
    width = int(size_part.replace("_", "")) if size_part else None
    base_map = {"b": 2, "d": 10, "h": 16, "o": 8}
    radix = base_map[base_char]
    value = 0
    xz_mask = 0
    digit_bits = {2: 1, 8: 3, 16: 4, 10: 0}[radix]
    if radix == 10:
        if any(c in "xXzZ?" for c in digits):
            xz_mask = (1 << (width or 32)) - 1
            value = 0
        else:
            try:
                value = int(digits) if digits else 0
            except ValueError as exc:
                raise ParseError(
                    f"invalid decimal literal '{text}'", token.line, token.column, "bad-literal"
                ) from exc
    else:
        for ch in digits:
            value <<= digit_bits
            xz_mask <<= digit_bits
            if ch in "xXzZ?":
                xz_mask |= (1 << digit_bits) - 1
            else:
                try:
                    value |= int(ch, radix)
                except ValueError as exc:
                    raise ParseError(
                        f"invalid digit '{ch}' for base-{radix} literal",
                        token.line,
                        token.column,
                        "bad-literal",
                    ) from exc
    if width is not None:
        mask = (1 << width) - 1
        value &= mask
        xz_mask &= mask
    return ast.Number(value=value, width=width, base=base_char, xz_mask=xz_mask, text=text)


def module_port_by_name(module: ast.Module, name: str) -> Optional[ast.Port]:
    """Find a port of ``module`` by name, or ``None``."""
    for port in module.ports:
        if port.name == name:
            return port
    return None


def parse_source(text: str) -> ast.SourceUnit:
    """Parse Verilog source text into a :class:`SourceUnit`.

    Raises:
        LexError: on invalid characters or malformed literals.
        ParseError: on grammar violations.
    """
    tokens = tokenize(text)
    return Parser(tokens, text=text).parse()
