"""Text format: parsing, diagnostics, pretty-printing, and round-trips."""

import hashlib
import pathlib
import random

import pytest

from psmsynth.dsl import (
    _PUNCT,
    ParseError,
    _tokenize,
    parse_component,
    parse_file,
    parse_system,
    parse_text,
    pretty,
)
from psmsynth.model import PsmComponent, PsmSystem

COMPONENT_FIXTURES = ["mhr.psm", "spo2.psm", "emg.psm", "sensor.psm", "monitor.psm"]


def test_parse_text_dispatches_on_leading_keyword():
    c = parse_text("component C { period 1 s; initial A; state A { ts(inf); } }")
    assert isinstance(c, PsmComponent)
    s = parse_text("system S { }")
    assert isinstance(s, PsmSystem)


@pytest.mark.parametrize("name", COMPONENT_FIXTURES + ["wpm_system.psm"])
def test_fixture_round_trip(fixtures, name):
    model = parse_file(fixtures / name)
    text = pretty(model)
    assert parse_text(text) == model
    # Pretty output is a fixed point.
    assert pretty(parse_text(text)) == text


def test_golden_pretty_output(fixtures):
    model = parse_file(fixtures / "mhr.psm")
    golden = (fixtures / "golden" / "mhr_pretty.psm").read_text()
    assert pretty(model) == golden


def test_crlf_and_comments_accepted():
    text = "component C { // comment\r\n period 1 s;\r\n initial A; state A { ts(inf); }\r\n}\r\n"
    c = parse_component(text)
    assert c.name == "C"


def test_diagnostic_has_file_line_column():
    with pytest.raises(ParseError) as err:
        parse_component("component C {\n  period 1 q;\n}", "m.psm")
    d = err.value.diagnostics[0]
    assert (d.span.file, d.span.line) == ("m.psm", 2)
    assert d.span.column > 1
    assert "time unit" in d.message
    assert str(d).startswith("m.psm:2:")


def test_missing_period_diagnosed():
    with pytest.raises(ParseError) as err:
        parse_component("component C { initial A; state A { ts(inf); } }")
    assert any("period" in d.message for d in err.value.diagnostics)


def test_duplicate_declaration_diagnosed():
    with pytest.raises(ParseError) as err:
        parse_component(
            "component C { period 1 s; var x: int32; var x: int32; "
            "initial A; state A { ts(inf); } }"
        )
    assert any("duplicate" in d.message for d in err.value.diagnostics)


def test_unexpected_character_diagnosed():
    with pytest.raises(ParseError) as err:
        parse_component("component C @ {}")
    assert any("unexpected character" in d.message for d in err.value.diagnostics)


def test_unterminated_string_diagnosed():
    with pytest.raises(ParseError) as err:
        parse_component(
            'component C { period 1 s; mcc F(1 -> 1) dfg "open; '
            "initial A; state A { ts(inf); } }"
        )
    assert any("unterminated" in d.message for d in err.value.diagnostics)


def test_connection_to_undeclared_instance_diagnosed():
    with pytest.raises(ParseError) as err:
        parse_system("system S { instance a: A; connect a.Out -> ghost.In; }")
    assert any("undeclared instance 'ghost'" in d.message for d in err.value.diagnostics)


def test_guard_expression_precedence():
    c = parse_component(
        """
        component C { period 1 s; var a: int32; var b: int32;
          initial S;
          state S { when (a + 1 * b >= 2 && !(a == b) || b < 0) -> S; ts(inf); } }
        """
    )
    from psmsynth import expr as ex

    g = c.states[0].guards[0].guard
    assert ex.evaluate(g, {"a": 1, "b": 1}) == 0
    assert ex.evaluate(g, {"a": 1, "b": 2}) == 1
    assert ex.evaluate(g, {"a": 5, "b": -1}) == 1
    # Render and re-parse preserves the tree.
    text = ex.to_text(g)
    c2 = parse_component(
        "component C { period 1 s; var a: int32; var b: int32; initial S;"
        f" state S {{ when ({text}) -> S; ts(inf); }} }}"
    )
    assert c2.states[0].guards[0].guard == g


def test_instance_period_override_round_trip():
    s = parse_system("system S { instance a: A period 20 ms; }")
    from fractions import Fraction

    assert s.instances[0].period_override == Fraction(1, 50)
    assert parse_text(pretty(s)) == s


def test_parse_file_reports_path_in_diagnostics(tmp_path: pathlib.Path):
    bad = tmp_path / "bad.psm"
    bad.write_text("component C { period 1 s; state }")
    with pytest.raises(ParseError) as err:
        parse_file(bad)
    assert err.value.diagnostics[0].span.file == str(bad)


# --- Golden front end ---------------------------------------------------------
# sha256 over the tokenizer's tokens and diagnostics for seeded random strings,
# and over `parse_text` outcomes for seeded one-character mutations and
# duplicated lines of every fixture model.  Any change to a token, span,
# column or diagnostic changes these digests.

CHARS = 'az_Z09. \t\r\n/"{}();:,=<>+-*%!&|éßΩ½²٣$#'
PIECES = [*CHARS, "//", "\r\n", "x1", "state", "int32", "3.5", '"s"', '"a\rb"', *_PUNCT]
TOKENIZE_SHA256 = "e111d68dc30bab7a259337cecc155a00b42b9bb4d7d1583e2ea76ec5061c0f4d"
MUTATED_FIXTURES_SHA256 = "f702a02c8f30e5951e5c1349238967299eae4b414828708f5b7a238af1fd787f"


def test_golden_tokens_of_random_strings():
    rng = random.Random(19)
    digest = hashlib.sha256()
    for _ in range(4000):
        tokens, diagnostics = _tokenize("".join(rng.choices(PIECES, k=rng.randint(0, 24))), "t")
        for t in tokens:
            s = t.span
            digest.update(f"{t.kind}|{t.text!r}|{s.line}:{s.column}:{s.length}\n".encode())
        for d in diagnostics:
            digest.update(f"{d}\n".encode())
        digest.update(b"--\n")
    assert digest.hexdigest() == TOKENIZE_SHA256


def test_golden_parses_of_mutated_fixtures(fixtures):
    rng = random.Random(23)
    digest = hashlib.sha256()
    for path in sorted(fixtures.rglob("*.psm")):
        source = path.read_text()
        for _ in range(80):
            i = rng.randrange(len(source))
            c = rng.choice(CHARS)
            start, end = source.rfind("\n", 0, i) + 1, source.find("\n", i) + 1 or len(source)
            mutated = rng.choice([
                source[:i] + source[i + 1:],
                source[:i] + c + source[i:],
                source[:i] + c + source[i + 1:],
                source[:end] + source[start:end] + source[end:],  # the line holding i, twice
            ])
            try:
                digest.update(pretty(parse_text(mutated, path.name)).encode())
            except ParseError as err:
                digest.update(f"{err}\n".encode())
    assert digest.hexdigest() == MUTATED_FIXTURES_SHA256
