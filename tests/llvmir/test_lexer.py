"""Unit tests for the .ll tokenizer."""

import hashlib
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llvmir.lexer import Lexer, LexError
from repro.tools.qir_bench import _generated_workloads
from repro.workloads.qec import repetition_code_qir, teleportation_qir
from repro.workloads.qir_programs import (
    bell_qir,
    counted_loop_qir,
    ghz_qir,
    ghz_qir_legacy,
    qft_qir,
    random_qir,
    reset_chain_qir,
    rotation_ladder_qir,
    vqe_ansatz_qir,
)

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples")

#: sha256 over (kind, text, line, column) of every token of
#: :func:`token_corpus`, recorded with the original character-at-a-time
#: lexer.  Any lexer must reproduce it exactly.
CORPUS_TOKEN_DIGEST = "cca32794b6d8796f59e11c8873ff330cd980e36eaa19a75523adc29eb3ab6984"


def kinds(source):
    return [(t.kind, t.text) for t in Lexer(source).tokenize()[:-1]]


def token_corpus():
    """Real ``.ll`` text: the examples the digest was recorded on, every
    ``*_qir`` generator, and the generated ``qir-bench`` parse workloads,
    in a fixed order."""
    corpus = []
    for name in ("bell.ll", "counted_loop.ll", "ghz.ll"):
        with open(os.path.join(EXAMPLES_DIR, name), "r", encoding="utf-8") as handle:
            corpus.append(handle.read())
    corpus += [
        bell_qir(),
        bell_qir("dynamic"),
        ghz_qir(5),
        ghz_qir(5, "dynamic"),
        qft_qir(4),
        qft_qir(3, "dynamic", measure=False),
        random_qir(5, 6, seed=11),
        random_qir(4, 4, seed=3, addressing="dynamic", clifford_only=True),
        counted_loop_qir(6),
        counted_loop_qir(4, gate="x", measure=False, step=2),
        rotation_ladder_qir(2, 8, 0.3),
        reset_chain_qir(3, 3, 0.7),
        vqe_ansatz_qir([0.1, 0.2, 0.3, 0.4]),
        vqe_ansatz_qir([0.5, -0.6, 0.7, -0.8], measure_basis="xx"),
        ghz_qir_legacy(4, legacy=True),
        ghz_qir_legacy(4, legacy=False),
        repetition_code_qir(3, inject_error=1, rounds=2),
        repetition_code_qir(3, logical_one=True, classical_work=2, idle_rounds=1),
        teleportation_qir(0.7),
    ]
    workloads = _generated_workloads()
    corpus += [workloads[name] for name in sorted(workloads)]
    return corpus


def token_digest(sources):
    digest = hashlib.sha256()
    for source in sources:
        for tok in Lexer(source).tokenize():
            digest.update(repr((tok.kind, tok.text, tok.line, tok.column)).encode())
    return digest.hexdigest()


class TestBasicTokens:
    def test_local_and_global(self):
        assert kinds("%x @f") == [("LOCAL", "x"), ("GLOBAL", "f")]

    def test_numeric_local(self):
        assert kinds("%0 %12") == [("LOCAL", "0"), ("LOCAL", "12")]

    def test_quantum_function_name(self):
        toks = kinds("@__quantum__qis__h__body")
        assert toks == [("GLOBAL", "__quantum__qis__h__body")]

    def test_integers(self):
        assert kinds("42 -7") == [("INT", "42"), ("INT", "-7")]

    def test_integer_at_end_of_input(self):
        assert kinds("0") == [("INT", "0")]
        assert kinds("-0") == [("INT", "-0")]

    def test_floats(self):
        assert kinds("1.5 2.0e-3 1e6") == [
            ("FLOAT", "1.5"),
            ("FLOAT", "2.0e-3"),
            ("FLOAT", "1e6"),
        ]

    def test_hex_float(self):
        assert kinds("0x3FF0000000000000") == [("FLOAT", "0x3FF0000000000000")]

    def test_number_stops_before_word_chars(self):
        assert kinds("12abc 1.x 0x1fg") == [
            ("INT", "12"),
            ("WORD", "abc"),
            ("INT", "1"),
            ("WORD", ".x"),
            ("FLOAT", "0x1f"),
            ("WORD", "g"),
        ]

    def test_punctuation(self):
        assert [k for k, _ in kinds("= , ( ) { } [ ] * :")] == ["PUNCT"] * 10

    def test_words(self):
        assert kinds("define void") == [("WORD", "define"), ("WORD", "void")]

    def test_ellipsis_is_word(self):
        assert kinds("...") == [("WORD", "...")]


class TestStrings:
    def test_plain_string(self):
        assert kinds('"hello"') == [("STRING", "hello")]

    def test_c_string(self):
        assert kinds('c"ab\\00"') == [("CSTRING", "ab\x00")]

    def test_hex_escape(self):
        assert kinds('"\\41"') == [("STRING", "A")]

    def test_escaped_backslash(self):
        assert kinds('"a\\\\41"') == [("STRING", "a\\41")]

    def test_quoted_identifier(self):
        assert kinds('%"my var" @"g v"') == [("LOCAL", "my var"), ("GLOBAL", "g v")]

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError, match="unterminated string"):
            Lexer('"abc').tokenize()

    def test_unterminated_sigil_string_raises(self):
        with pytest.raises(LexError, match="unterminated string"):
            Lexer('@"abc\\5c').tokenize()

    @pytest.mark.parametrize(
        "source", ['"a\\zz"', '"\\+1"', '"\\ 1"', '"\\4"', 'c"\\"', '!"\\g0"']
    )
    def test_bad_escape_raises(self, source):
        with pytest.raises(LexError, match="bad escape in string"):
            Lexer(source).tokenize()


class TestMetadataAndAttrs:
    def test_metadata_ref(self):
        assert kinds("!0 !llvm.module.flags") == [
            ("METADATA", "0"),
            ("METADATA", "llvm.module.flags"),
        ]

    def test_metadata_string(self):
        assert kinds('!"key"') == [("MDSTRING", "key")]

    def test_metadata_brace(self):
        assert kinds("!{") == [("PUNCT", "!{")]

    def test_attribute_group(self):
        assert kinds("#0") == [("ATTRGROUP", "0")]

    @pytest.mark.parametrize("source", ["%", "@ x", "!;", "#="])
    def test_bare_sigil_raises(self, source):
        with pytest.raises(LexError, match="empty identifier after sigil"):
            Lexer(source).tokenize()


class TestNumbersRejected:
    @pytest.mark.parametrize("source", ["ret i32 ²", "١", "1٢"])
    def test_non_ascii_digit(self, source):
        with pytest.raises(LexError, match="unexpected character"):
            Lexer(source).tokenize()

    @pytest.mark.parametrize("source", ["ret double 0x", "-0X", "0xg"])
    def test_bare_hex_prefix(self, source):
        with pytest.raises(LexError, match="hex digits"):
            Lexer(source).tokenize()


class TestTrivia:
    def test_comments_skipped(self):
        assert kinds("; a comment\n42") == [("INT", "42")]

    def test_whitespace_insensitive(self):
        assert kinds("  %a\n\t%b ") == [("LOCAL", "a"), ("LOCAL", "b")]

    def test_line_column_tracking(self):
        toks = Lexer("a\n  b").tokenize()
        assert toks[0].line == 1 and toks[0].column == 1
        assert toks[1].line == 2 and toks[1].column == 3

    def test_eof_token(self):
        toks = Lexer("").tokenize()
        assert toks[-1].kind == "EOF"

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            Lexer("`").tokenize()

    def test_error_position(self):
        with pytest.raises(LexError) as excinfo:
            Lexer("a\n  b `").tokenize()
        assert (excinfo.value.line, excinfo.value.column) == (2, 5)


class TestPositions:
    def test_sigil_column_is_one_past_the_sigil(self):
        toks = Lexer('%a @b !c #0 %"q" @"r"').tokenize()
        assert [t.column for t in toks[:-1]] == [2, 5, 8, 11, 14, 19]

    def test_quoted_and_brace_column_is_first_character(self):
        toks = Lexer('!"k" "s" c"t" !{').tokenize()
        assert [(t.kind, t.column) for t in toks[:-1]] == [
            ("MDSTRING", 1),
            ("STRING", 6),
            ("CSTRING", 10),
            ("PUNCT", 15),
        ]

    def test_newlines_inside_strings_advance_the_line(self):
        toks = Lexer('x "a\nb\n" c"\n" y\n  z').tokenize()
        assert [(t.text, t.line, t.column) for t in toks] == [
            ("x", 1, 1),
            ("a\nb\n", 1, 3),
            ("\n", 3, 3),
            ("y", 4, 3),
            ("z", 5, 3),
            ("", 5, 4),
        ]


class TestCorpusDigest:
    def test_token_stream_matches_recorded_digest(self):
        assert token_digest(token_corpus()) == CORPUS_TOKEN_DIGEST


# -- property: random token sequences round-trip ---------------------------

_IDENT = st.from_regex(r"[-A-Za-z0-9_.$]+", fullmatch=True)
_SIGILS = {"LOCAL": "%", "GLOBAL": "@", "METADATA": "!", "ATTRGROUP": "#"}


@st.composite
def _quoted(draw):
    """A quoted string: (source spelling, decoded text)."""
    text = draw(st.text(st.characters(max_codepoint=0x2FF), max_size=12))
    parts = []
    for ch in text:
        if ch == "\\" and draw(st.booleans()):
            parts.append("\\\\")
        elif ch in '"\\' or (ord(ch) < 256 and draw(st.booleans())):
            parts.append("\\" + draw(st.sampled_from(["%02x", "%02X"])) % ord(ch))
        else:
            parts.append(ch)
    return '"' + "".join(parts) + '"', text


@st.composite
def _token(draw):
    """One token: (kind, source spelling, decoded text)."""
    kind = draw(
        st.sampled_from(
            ["LOCAL", "GLOBAL", "METADATA", "ATTRGROUP", "MDSTRING", "STRING",
             "CSTRING", "WORD", "INT", "FLOAT", "PUNCT"]
        )
    )
    if kind in _SIGILS:
        if kind != "METADATA" and draw(st.booleans()):
            spelling, text = draw(_quoted())
        else:
            spelling = text = draw(_IDENT)
        return kind, _SIGILS[kind] + spelling, text
    if kind in ("MDSTRING", "STRING", "CSTRING"):
        spelling, text = draw(_quoted())
        prefix = {"MDSTRING": "!", "STRING": "", "CSTRING": "c"}[kind]
        return kind, prefix + spelling, text
    pattern = {
        "WORD": r"[A-Za-z_.$][-A-Za-z0-9_.$]*",
        "INT": r"-?[0-9]+",
        "FLOAT": r"-?(0[xX][0-9A-Fa-f]+|[0-9]+\.[0-9]+([eE][+-]?[0-9]+)?|[0-9]+[eE][+-]?[0-9]+)",
        "PUNCT": r"[=,(){}\[\]<>*:]|!\{",
    }[kind]
    text = draw(st.from_regex(pattern, fullmatch=True))
    return kind, text, text


_TRIVIA = st.lists(
    st.one_of(
        st.sampled_from([" ", "\t", "\r", "\n"]),
        st.text(st.characters(exclude_characters="\n"), max_size=8).map(
            lambda body: ";" + body + "\n"
        ),
    ),
    min_size=1,
    max_size=3,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_TRIVIA, _token()), max_size=12), st.booleans())
def test_random_token_sequences_round_trip(pieces, trailing_trivia):
    source = ""
    expected = []
    for trivia, (kind, spelling, text) in pieces:
        source += trivia
        start = len(source)
        line = source.count("\n", 0, start) + 1
        column = start - source.rfind("\n", 0, start) + (kind in _SIGILS)
        expected.append((kind, text, line, column))
        source += spelling
    if trailing_trivia:
        source += " \n"
    toks = Lexer(source).tokenize()
    assert [(t.kind, t.text, t.line, t.column) for t in toks[:-1]] == expected
    assert toks[-1].kind == "EOF"


# -- adversarial string lengths stay linear --------------------------------

MEGABYTE = 1 << 20
#: A string may cost a few times more per byte than program text (each
#: escape is a regex group iteration), but a super-linear scan of a
#: megabyte would miss this bound by orders of magnitude.
LINEAR_FACTOR = 4


def _lex_seconds(source, expect_error=None, repeats=1):
    best, toks = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        if expect_error is None:
            toks = Lexer(source).tokenize()
        else:
            with pytest.raises(LexError, match=expect_error):
                Lexer(source).tokenize()
        best = min(best, time.perf_counter() - start)
    return best, toks


class TestLongStrings:
    @pytest.fixture(scope="class")
    def program_seconds(self):
        program = qft_qir(6)
        source = program * (MEGABYTE // len(program) + 1)
        return _lex_seconds(source[:MEGABYTE].rsplit("\n", 1)[0])[0]

    def test_unterminated_megabyte_string(self, program_seconds):
        seconds, _ = _lex_seconds('"' + "a" * MEGABYTE, "unterminated string", 2)
        assert seconds < LINEAR_FACTOR * program_seconds

    def test_megabyte_of_escapes_is_one_token(self, program_seconds):
        seconds, toks = _lex_seconds('"' + "\\41\\\\" * (MEGABYTE // 5) + '"', None, 2)
        assert [t.kind for t in toks] == ["STRING", "EOF"]
        assert toks[0].text == "A\\" * (MEGABYTE // 5)
        assert seconds < LINEAR_FACTOR * program_seconds
