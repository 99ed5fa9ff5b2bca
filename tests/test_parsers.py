"""The front and certificate parsers against the line-loop oracles in
``helpers``: equal results, or the same exception type and message.

Each text is what ``render_front`` or ``render_certificate`` writes, then
changed by a few of the edits in ``MUTATIONS``: comments, CRLF, tabs,
blank lines, no final newline, other spellings of an integer (``+3``,
``0``, ``-1``, ``03``, non-ASCII digits), a bad integer, a third token,
an unknown kind or move, and a second EXPECT line.  Every edit is tried
on its own, and in random sequences of up to four.  The examples are
derandomized.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from diskfill.front import (  # noqa: E402
    MOVE_KINDS,
    Death,
    FillingCertificate,
    FrontWord,
    Move,
    Pinch,
    parse_certificate,
    parse_front,
    render_certificate,
    render_front,
)

from helpers import line_loop_certificate, line_loop_front  # noqa: E402

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _last_token(new):
    def edit(line):
        head, _, _ = line.rpartition(" ")
        return f"{head} {new}" if head else new
    return edit


def _unknown_kind(line):
    parts = line.split(" ")
    if parts[0] == "MOVE" and len(parts) > 2:
        parts[1] = "r9a+"
    else:
        parts[0] = "Q"
    return " ".join(parts)


# edits of one content line
LINE_EDITS = {
    "comment": lambda line: line + "  # note",
    "tab": lambda line: line.replace(" ", "\t", 1),
    "plus": _last_token("+3"),
    "zero": _last_token("0"),
    "minus_one": _last_token("-1"),
    "leading_zero": _last_token("03"),
    "arabic_indic_digit": _last_token("٣"),
    "fullwidth_digits": _last_token("１２"),
    "bad_integer": _last_token("x"),
    "third_token": lambda line: line + " 7",
    "unknown_kind": _unknown_kind,
}
# edits of the list of lines, before line i
INSERTS = {
    "comment_line": "# a comment line",
    "blank_line": "",
    "spaces_line": "   ",
    "second_expect": "EXPECT 1 2",
}
# edits of the whole text
TEXT_EDITS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "no_final_newline": lambda text: text[:-1] if text.endswith("\n") else text,
}
MUTATIONS = sorted([*LINE_EDITS, *INSERTS, *TEXT_EDITS])


def mutate(text, mutation, i):
    """``text`` with ``mutation`` applied at its content line i (taken
    modulo their count); a text with no content line gets one."""
    if mutation in TEXT_EDITS:
        return TEXT_EDITS[mutation](text)
    lines = text.split("\n")
    content = [j for j, line in enumerate(lines) if line.strip() and not line.startswith("#")]
    if not content:
        lines.insert(0, "L 1")
        content = [0]
    j = content[i % len(content)]
    if mutation in INSERTS:
        lines.insert(j, INSERTS[mutation])
    else:
        lines[j] = LINE_EDITS[mutation](lines[j])
    return "\n".join(lines)


def outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc), str(exc)


headers = st.none() | st.text(st.characters(whitelist_categories=("L", "N", "Zs", "P")),
                              max_size=20)
# words need not be valid: parsing does not validate
words = st.lists(st.tuples(st.sampled_from("LRX"), st.integers(0, 40)), max_size=20).map(
    lambda events: FrontWord(tuple(events)))
front_texts = st.builds(render_front, words, headers)
naturals = st.integers(0, 500)
steps = st.one_of(
    st.builds(Move, st.sampled_from([k for k in MOVE_KINDS if k != "slide"]), naturals, naturals),
    st.builds(Move, st.just("slide"), naturals, st.just(0)),
    st.builds(Pinch, naturals, naturals),
    st.builds(Death, naturals),
)
certificate_texts = st.builds(
    render_certificate,
    st.builds(FillingCertificate, st.lists(steps, max_size=20).map(tuple),
              st.none() | st.tuples(naturals, naturals)),
    headers,
)
line_numbers = st.integers(0, 1000)
# a sequence edits the first few content lines, so that its edits often meet
mutation_sequences = st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 3)),
                              min_size=1, max_size=4)

PARSERS = {
    "front": (parse_front, line_loop_front, front_texts),
    "certificate": (parse_certificate, line_loop_certificate, certificate_texts),
}


@pytest.mark.parametrize("which", sorted(PARSERS))
@PROPERTY
@given(data=st.data())
def test_canonical_texts_parse_as_the_oracle_does(which, data):
    parse, oracle, texts = PARSERS[which]
    text = data.draw(texts)
    assert outcome(parse, text) == outcome(oracle, text)


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("which", sorted(PARSERS))
@settings(PROPERTY, max_examples=8)
@given(data=st.data())
def test_each_mutation_parses_as_the_oracle_does(which, mutation, data):
    parse, oracle, texts = PARSERS[which]
    text = mutate(data.draw(texts), mutation, data.draw(line_numbers))
    assert outcome(parse, text) == outcome(oracle, text)


@pytest.mark.parametrize("which", sorted(PARSERS))
@settings(PROPERTY, max_examples=80)
@given(data=st.data())
def test_mutation_sequences_parse_as_the_oracle_does(which, data):
    parse, oracle, texts = PARSERS[which]
    text = data.draw(texts)
    for mutation, i in data.draw(mutation_sequences):
        text = mutate(text, mutation, i)
    assert outcome(parse, text) == outcome(oracle, text)


# lines where two rules meet, so that the order of the checks decides
MET = [
    "MOVE r9a+ 3 x\n",
    "MOVE slide 3 4\n",
    "MOVE slide x\n",
    "MOVE r1a+ 3\n",
    "EXPECT 1 2\nEXPECT x 2\n",
    "EXPECT 1 2 # c\nMOVE r9a+ x 1\n",
    "DEATH 1 2\n",
    "L 1\nX 2 3\n",
    "L x y\n",
    "L 1\r\nX 1" + "0" * 700 + "\n",
    "L 1" + "0" * 5000 + "\n",
]


@pytest.mark.parametrize("text", MET, ids=[repr(text[:20]) for text in MET])
@pytest.mark.parametrize("which", sorted(PARSERS))
def test_met_rules_parse_as_the_oracle_does(which, text):
    parse, oracle, _ = PARSERS[which]
    assert outcome(parse, text) == outcome(oracle, text)


def test_mutations_change_the_text():
    front = render_front(FrontWord((("L", 1), ("X", 2), ("R", 1))), header="h")
    cert = render_certificate(FillingCertificate((Move("r1a+", 0, 1), Death(1)), (0, 1)))
    for mutation in MUTATIONS:
        assert mutate(front, mutation, 1) != front and mutate(cert, mutation, 1) != cert, mutation
    assert mutate(cert, "unknown_kind", 1) == "EXPECT 0 1\nMOVE r9a+ 0 1\nDEATH 1\n"
    assert mutate(front, "third_token", 2) == "# h\nL 1\nX 2\nR 1 7\n"
