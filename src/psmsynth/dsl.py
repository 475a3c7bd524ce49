"""Textual format for component and system models.

`.psm` files are UTF-8 (LF or CRLF) with `//` comments; numbers and `intN`
widths are written in ASCII digits.  The grammar covers exactly the model
constructs: period declarations, event/variable/mcc declarations, state
blocks with import transitions, timing specifications, guards, and entry
actions.  Diagnostics carry 1-based source spans and print
as `file:line:col: severity: message`.

`_tokenize` reads a file in one pass with one pattern (`_TOKEN`).  A tab is
one column; a carriage return outside a string and a `//` comment advance
none, so a file ending in a comment ends at the comment's first column; a
string advances by its full length, carriage returns included.  A word that
starts with neither a letter nor `_` (such as `²`) is an unexpected character.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import expr as ex
from . import model as m
from .timeunits import UNITS, duration_from_decimal, format_duration


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int
    length: int


@dataclass(frozen=True)
class Diagnostic:
    span: SourceSpan
    severity: str
    message: str

    def __str__(self) -> str:
        s = self.span
        return f"{s.file}:{s.line}:{s.column}: {self.severity}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("\n".join(str(d) for d in diagnostics))


_KEYWORDS = {
    "component", "system", "period", "input", "output", "event", "var",
    "mcc", "dfg", "initial", "state", "entry", "import", "ts", "inf",
    "delta", "notify", "export", "invoke", "when", "instance", "connect",
    "port",
}

_PUNCT = [
    "->", "&&", "||", "==", "!=", "<=", ">=",
    "{", "}", "(", ")", ";", ":", ",", ".", "=", "<", ">",
    "+", "-", "*", "/", "%", "!",
]


@dataclass(frozen=True)
class _Token:
    kind: str  # 'ident', 'keyword', 'number', 'string', punctuation text, 'eof'
    text: str
    span: SourceSpan


# One alternative per token form, tried in order at the cursor; `other` is a
# character that starts none of them.
_TOKEN = re.compile(
    r"(?P<blank>[ \t\r]+)|(?P<comment>//[^\n]*)|(?P<newline>\n)"
    r'|(?P<number>[0-9]+(?:\.[0-9]+)?)|(?P<word>\w+)|(?P<string>"[^"\n]*"?)'
    f"|(?P<punct>{'|'.join(map(re.escape, _PUNCT))})|(?P<other>.)"
)


def _tokenize(source: str, filename: str) -> tuple[list[_Token], list[Diagnostic]]:
    tokens: list[_Token] = []
    diagnostics: list[Diagnostic] = []
    line, col, pos = 1, 1, 0
    while pos < len(source):
        match = _TOKEN.match(source, pos)
        kind, text, pos = match.lastgroup, match.group(), match.end()
        if kind == "newline":
            line, col = line + 1, 1
        elif kind == "blank":
            col += len(text) - text.count("\r")
        elif kind == "other" or kind == "word" and not (text[0].isalpha() or text[0] == "_"):
            span = SourceSpan(filename, line, col, 1)
            diagnostics.append(Diagnostic(span, "error", f"unexpected character {text[0]!r}"))
            pos, col = match.start() + 1, col + 1
        elif kind != "comment":
            span = SourceSpan(filename, line, col, len(text))
            col += len(text)
            if kind == "string":
                closed = len(text) > 1 and text[-1] == '"'
                if not closed:
                    diagnostics.append(Diagnostic(span, "error", "unterminated string literal"))
                tokens.append(_Token("string", text[1:-1] if closed else text[1:], span))
            elif kind == "word":
                tokens.append(_Token("keyword" if text in _KEYWORDS else "ident", text, span))
            else:
                tokens.append(_Token(text if kind == "punct" else kind, text, span))
    tokens.append(_Token("eof", "", SourceSpan(filename, line, col, 1)))
    return tokens, diagnostics


class _Parser:
    def __init__(self, tokens: list[_Token], diagnostics: list[Diagnostic]):
        self.tokens = tokens
        self.pos = 0
        self.diagnostics = diagnostics

    @property
    def here(self) -> _Token:
        return self.tokens[self.pos]

    def fail(self, message: str, span: SourceSpan | None = None):
        self.diagnostics.append(Diagnostic(span or self.here.span, "error", message))
        raise ParseError(self.diagnostics)

    def accept(self, kind: str, text: str | None = None) -> _Token | None:
        tok = self.here
        if tok.kind == kind and (text is None or tok.text == text):
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.accept(kind, text)
        if tok is None:
            want = text or kind
            got = self.here.text or self.here.kind
            self.fail(f"expected '{want}', found '{got}'")
        return tok

    def keyword(self, word: str) -> _Token:
        return self.expect("keyword", word)

    def ident(self, what: str) -> _Token:
        tok = self.accept("ident")
        if tok is None:
            self.fail(f"expected {what}, found '{self.here.text or self.here.kind}'")
        return tok

    # -- shared pieces --------------------------------------------------------

    def declare(self, name: _Token, declared: set[str]) -> str:
        """`name`'s text, once checked to be new to the scope whose names are
        `declared` and added to them."""
        if name.text in declared:
            self.fail(f"duplicate declaration of '{name.text}'", name.span)
        declared.add(name.text)
        return name.text

    def variable_list(self) -> tuple[str, ...]:
        """A comma-separated list of variables, possibly empty."""
        if self.here.kind != "ident":
            return ()
        names = [self.ident("a variable").text]
        while self.accept(","):
            names.append(self.ident("a variable").text)
        return tuple(names)

    def duration(self) -> Fraction:
        num = self.expect("number")
        unit = self.here
        if unit.kind in ("ident", "keyword") and unit.text in UNITS:
            self.pos += 1
        else:
            self.fail("expected a time unit (ns, us, ms, s)")
        return duration_from_decimal(num.text, unit.text)

    def integer(self, message: str) -> int:
        """A number without a fraction; `message` is the error for one with."""
        tok = self.expect("number")
        if "." in tok.text:
            self.fail(message, tok.span)
        return int(tok.text)

    def payload_width(self) -> int:
        tok = self.ident("a payload type like int32")
        if not re.fullmatch("int[0-9]+", tok.text):  # ASCII digits: `int` cannot read '²'
            self.fail(f"unknown payload type '{tok.text}'", tok.span)
        return int(tok.text[3:])

    def expression(self) -> ex.Expr:
        return self._expr_binary(1)

    def _expr_binary(self, min_prec: int) -> ex.Expr:
        left = self._expr_unary()
        while True:
            tok = self.here
            if tok.kind in ex.BINARY_OPS:
                prec = ex.PRECEDENCE[tok.kind]
                if prec < min_prec:
                    return left
                self.pos += 1
                right = self._expr_binary(prec + 1)
                left = ex.BinOp(tok.kind, left, right)
            else:
                return left

    def _expr_unary(self) -> ex.Expr:
        if self.accept("-"):
            return ex.UnOp("-", self._expr_unary())
        if self.accept("!"):
            return ex.UnOp("!", self._expr_unary())
        if self.accept("("):
            inner = self.expression()
            self.expect(")")
            return inner
        tok = self.here
        if tok.kind == "number":
            self.pos += 1
            if "." in tok.text:
                self.fail("expressions are integer-only", tok.span)
            return ex.Num(int(tok.text))
        if tok.kind == "ident":
            self.pos += 1
            return ex.Var(tok.text)
        self.fail(f"expected an expression, found '{tok.text or tok.kind}'")

    # -- component ------------------------------------------------------------

    def component(self) -> m.PsmComponent:
        self.keyword("component")
        name = self.ident("a component name").text
        self.expect("{")

        period: Fraction | None = None
        events: list[m.EventDecl] = []
        variables: list[m.VarDecl] = []
        mccs: list[m.MccSignature] = []
        initial: str | None = None
        states: list[m.State] = []
        declared: set[str] = set()

        while not self.accept("}"):
            tok = self.here
            if self.accept("keyword", "period"):
                if period is not None:
                    self.fail("duplicate period declaration", tok.span)
                period = self.duration()
                self.expect(";")
            elif tok.kind == "keyword" and tok.text in ("input", "output"):
                self.pos += 1
                direction = m.Direction.INPUT if tok.text == "input" else m.Direction.OUTPUT
                self.keyword("event")
                ev_name = self.ident("an event name")
                width = None
                if self.accept("("):
                    width = self.payload_width()
                    self.expect(")")
                self.expect(";")
                events.append(m.EventDecl(self.declare(ev_name, declared), direction, width))
            elif self.accept("keyword", "var"):
                var_name = self.ident("a variable name")
                self.expect(":")
                width = self.payload_width()
                init = 0
                if self.accept("="):
                    sign = -1 if self.accept("-") else 1
                    init = sign * self.integer("variable initializers are integers")
                self.expect(";")
                variables.append(m.VarDecl(self.declare(var_name, declared), width, init))
            elif self.accept("keyword", "mcc"):
                mcc_name = self.ident("an mcc name")
                self.expect("(")
                n_args = self.integer("mcc argument and result counts are integers")
                self.expect("->")
                n_results = self.integer("mcc argument and result counts are integers")
                self.expect(")")
                self.keyword("dfg")
                ref = self.expect("string").text
                self.expect(";")
                mccs.append(
                    m.MccSignature(self.declare(mcc_name, declared), ref, n_args, n_results)
                )
            elif self.accept("keyword", "initial"):
                if initial is not None:
                    self.fail("duplicate initial-state declaration", tok.span)
                initial = self.ident("a state name").text
                self.expect(";")
            elif tok.kind == "keyword" and tok.text == "state":
                states.append(self.state())
            else:
                self.fail(
                    f"expected a component item, found '{tok.text or tok.kind}'"
                )

        if period is None:
            self.fail(f"component '{name}' declares no period")
        if initial is None:
            initial = states[0].name if states else ""
        return m.PsmComponent(
            name=name,
            period=period,
            events=tuple(events),
            variables=tuple(variables),
            mccs=tuple(mccs),
            initial=initial,
            states=tuple(states),
        )

    def state(self) -> m.State:
        self.keyword("state")
        name = self.ident("a state name").text
        self.expect("{")
        entry: tuple[m.Action, ...] = ()
        imports: list[m.Import] = []
        timed: m.TimedTransition | None = None
        guards: list[m.GuardTransition] = []
        while not self.accept("}"):
            tok = self.here
            if self.accept("keyword", "entry"):
                if entry:
                    self.fail("duplicate entry block", tok.span)
                entry = self.entry_block()
            elif self.accept("keyword", "import"):
                ev = self.ident("an event name").text
                self.expect("->")
                target = self.ident("a state name").text
                self.expect(";")
                imports.append(m.Import(ev, target))
            elif self.accept("keyword", "ts"):
                if timed is not None:
                    self.fail("a state has at most one timing specification", tok.span)
                self.expect("(")
                if self.accept("keyword", "inf"):
                    kind, duration = m.TimingKind.INFINITE, None
                elif self.accept("keyword", "delta"):
                    kind, duration = m.TimingKind.DELTA, None
                else:
                    kind, duration = m.TimingKind.FINITE, self.duration()
                self.expect(")")
                target = None
                if self.accept("->"):
                    target = self.ident("a state name").text
                self.expect(";")
                timed = m.TimedTransition(kind, target, duration)
            elif self.accept("keyword", "when"):
                self.expect("(")
                guard = self.expression()
                self.expect(")")
                self.expect("->")
                target = self.ident("a state name").text
                self.expect(";")
                guards.append(m.GuardTransition(guard, target))
            else:
                self.fail(f"expected a state item, found '{tok.text or tok.kind}'")
        return m.State(name, entry, tuple(imports), timed, tuple(guards))

    def entry_block(self) -> tuple[m.Action, ...]:
        self.expect("{")
        actions: list[m.Action] = []
        while not self.accept("}"):
            tok = self.here
            if tok.kind == "keyword" and tok.text in ("notify", "export"):
                self.pos += 1
                ev = self.ident("an event name").text
                value = None
                if tok.text == "export":  # only a data event carries a value
                    self.expect("(")
                    value = self.expression()
                    self.expect(")")
                self.expect(";")
                actions.append(m.Emit(ev, value))
            elif self.accept("keyword", "invoke"):
                mcc = self.ident("an mcc name").text
                self.expect("(")
                args = self.variable_list()
                self.expect("->")
                results = self.variable_list()
                self.expect(")")
                self.expect(";")
                actions.append(m.InvokeMcc(mcc, args, results))
            elif tok.kind == "ident":
                var = self.ident("a variable").text
                self.expect("=")
                value = self.expression()
                self.expect(";")
                actions.append(m.Assign(var, value))
            else:
                self.fail(f"expected an action, found '{tok.text or tok.kind}'")
        return tuple(actions)

    # -- system ---------------------------------------------------------------

    def system(self) -> m.PsmSystem:
        self.keyword("system")
        name = self.ident("a system name").text
        self.expect("{")
        instances: list[m.Instance] = []
        connections: list[m.Connection] = []
        ports: list[m.ExternalPort] = []
        declared: set[str] = set()
        while not self.accept("}"):
            tok = self.here
            if self.accept("keyword", "instance"):
                inst = self.ident("an instance name")
                self.expect(":")
                comp = self.ident("a component name").text
                override = None
                if self.accept("keyword", "period"):
                    override = self.duration()
                self.expect(";")
                instances.append(m.Instance(self.declare(inst, declared), comp, override))
            elif self.accept("keyword", "connect"):
                src = self.endpoint(declared)
                self.expect("->")
                dst = self.endpoint(declared)
                self.expect(";")
                connections.append(m.Connection(src[0], src[1], dst[0], dst[1]))
            elif self.accept("keyword", "port"):
                dir_tok = self.here
                if dir_tok.kind == "keyword" and dir_tok.text in ("input", "output"):
                    self.pos += 1
                else:
                    self.fail("expected 'input' or 'output'")
                if dir_tok.text == "input":
                    port_name = self.ident("a port name").text
                    self.expect("->")
                    inst, ev = self.endpoint(declared)
                    direction = m.Direction.INPUT
                else:
                    inst, ev = self.endpoint(declared)
                    self.expect("->")
                    port_name = self.ident("a port name").text
                    direction = m.Direction.OUTPUT
                self.expect(";")
                ports.append(m.ExternalPort(port_name, direction, inst, ev))
            else:
                self.fail(f"expected a system item, found '{tok.text or tok.kind}'")
        return m.PsmSystem(name, tuple(instances), tuple(connections), tuple(ports))

    def endpoint(self, declared: set[str]) -> tuple[str, str]:
        inst = self.ident("an instance name")
        if inst.text not in declared:
            self.fail(f"connection names undeclared instance '{inst.text}'", inst.span)
        self.expect(".")
        ev = self.ident("an event name").text
        return inst.text, ev


def _parse(source: str, filename: str, entry: str | None = None):
    """Parse `source` as `entry` ("component" or "system"); None takes the
    one that the first keyword names."""
    tokens, diagnostics = _tokenize(source, filename)
    if diagnostics:
        raise ParseError(diagnostics)
    if entry is None:
        first = next((t for t in tokens if t.kind == "keyword"), None)
        entry = "system" if first is not None and first.text == "system" else "component"
    parser = _Parser(tokens, diagnostics)
    result = getattr(parser, entry)()
    parser.expect("eof")
    return result


def parse_component(source: str, filename: str = "<component>") -> m.PsmComponent:
    return _parse(source, filename, "component")


def parse_system(source: str, filename: str = "<system>") -> m.PsmSystem:
    return _parse(source, filename, "system")


def parse_text(source: str, filename: str = "<model>") -> m.PsmComponent | m.PsmSystem:
    """Dispatch on the leading keyword: `component` or `system`."""
    return _parse(source, filename)


def parse_file(path) -> m.PsmComponent | m.PsmSystem:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_text(handle.read(), str(path))


# --- Pretty printing ---------------------------------------------------------

def _payload(width: int | None) -> str:
    return f"(int{width})" if width is not None else ""


def pretty_component(comp: m.PsmComponent) -> str:
    out: list[str] = [f"component {comp.name} {{"]
    out.append(f"  period {format_duration(comp.period)};")
    for e in comp.events:
        out.append(f"  {e.direction.value} event {e.name}{_payload(e.payload_width)};")
    for v in comp.variables:
        out.append(f"  var {v.name}: int{v.width} = {v.init};")
    for s in comp.mccs:
        out.append(f'  mcc {s.name}({s.n_args} -> {s.n_results}) dfg "{s.dfg_ref}";')
    if comp.states:
        out.append(f"  initial {comp.initial};")
    for st in comp.states:
        out.append(f"  state {st.name} {{")
        if st.entry:
            out.append("    entry {")
            for a in st.entry:
                if isinstance(a, m.Emit):
                    word, value = ("notify", "") if a.value is None else ("export", f"({ex.to_text(a.value)})")
                    out.append(f"      {word} {a.event}{value};")
                elif isinstance(a, m.Assign):
                    out.append(f"      {a.var} = {ex.to_text(a.value)};")
                elif isinstance(a, m.InvokeMcc):
                    args = ", ".join(a.args)
                    results = ", ".join(a.results)
                    out.append(f"      invoke {a.mcc}({args} -> {results});")
            out.append("    }")
        for imp in st.imports:
            out.append(f"    import {imp.event} -> {imp.target};")
        timed = st.timed
        if timed is not None and timed.kind is m.TimingKind.INFINITE:
            out.append("    ts(inf);")
        elif timed is not None:
            spec = "delta" if timed.kind is m.TimingKind.DELTA else format_duration(timed.duration)
            out.append(f"    ts({spec}) -> {timed.target};")
        for g in st.guards:
            out.append(f"    when ({ex.to_text(g.guard)}) -> {g.target};")
        out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"


def pretty_system(system: m.PsmSystem) -> str:
    out: list[str] = [f"system {system.name} {{"]
    for inst in system.instances:
        suffix = "" if inst.period_override is None else f" period {format_duration(inst.period_override)}"
        out.append(f"  instance {inst.name}: {inst.component}{suffix};")
    for c in system.connections:
        out.append(f"  connect {c.src_instance}.{c.src_event} -> {c.dst_instance}.{c.dst_event};")
    for p in system.ports:
        if p.direction is m.Direction.INPUT:
            out.append(f"  port input {p.name} -> {p.instance}.{p.event};")
        else:
            out.append(f"  port output {p.instance}.{p.event} -> {p.name};")
    out.append("}")
    return "\n".join(out) + "\n"


def pretty(model: m.PsmComponent | m.PsmSystem) -> str:
    if isinstance(model, m.PsmComponent):
        return pretty_component(model)
    return pretty_system(model)
