"""Pinned outcomes of the relation DSL on seeded mutations of the builtin
sources.

Each input is a builtin source (read by ``parse_presentation``) or one of
its relation bodies (read by ``parse_expression``) with one to three
characters deleted, inserted or cut off.  The outcome of each input is
the exception type, message, line and column, or, when the text parses,
dim R and a digest of R's rows (of the expression's rendering, for an
expression).  The outcomes are stored in ``data/parse_outcomes.json``;
any change to the scanner or the parser that moves a token, a message or
a position shows up as a changed entry.

Regenerate the file with::

    PYTHONPATH=src python tests/test_parse_pins.py
"""

import hashlib
import json
import random
import re
from pathlib import Path

from operadlab.presentation import (_BUILTIN_SRC, ParseError, parse_expression,
                                    parse_presentation)
from operadlab.scalar import as_scalar

DATA = Path(__file__).parent / "data" / "parse_outcomes.json"
SEED = 20261018
COUNT = {"presentation": 600, "expression": 400}
# characters an edit may insert: the DSL's own punctuation, letters and
# digits, and characters that must stay lexical errors or be skipped
INSERTS = "(){};:,=+-*/^#0123qxyzm \t\n$²٣é"


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(text) + 1)
        edit = rng.choice(("delete", "delete", "insert", "insert", "truncate"))
        if edit == "delete":
            text = text[:k] + text[k + rng.randint(1, 3):]
        elif edit == "insert":
            text = text[:k] + rng.choice(INSERTS) + text[k:]
        else:
            text = text[:k]
    return text


def inputs():
    """(kind, text) for every pinned input, in a fixed order."""
    sources = [_BUILTIN_SRC[name] for name in sorted(_BUILTIN_SRC)]
    bodies = [m.group(1) for src in sources
              for m in re.finditer(r"\brel (.*?);", src, re.S)]
    rng = random.Random(SEED)
    out = []
    for kind, seeds in (("presentation", sources), ("expression", bodies)):
        for _ in range(COUNT[kind]):
            out.append((kind, _mutate(rng, rng.choice(seeds))))
    return out


def outcome(kind, text):
    try:
        if kind == "presentation":
            p = parse_presentation(text)
            rows = "|".join(",".join(as_scalar(c).render() for c in r) for r in p.R.rows)
            return ["ok", p.R.dim, _digest(rows)]
        return ["ok", None, _digest(parse_expression(text).render())]
    except ParseError as e:
        return [type(e).__name__, e.msg, e.line, e.col]
    except Exception as e:   # any other fault is pinned by type and message
        return [type(e).__name__, str(e), None, None]


def table():
    return [[kind, _digest(text), outcome(kind, text)] for kind, text in inputs()]


def test_outcomes_match_the_pins():
    pinned = json.loads(DATA.read_text())
    got = table()
    assert [e[:2] for e in got] == [e[:2] for e in pinned], \
        "the input generator changed; regenerate the pins"
    changed = [(k, g, p) for k, (g, p) in enumerate(zip(got, pinned)) if g != p]
    assert not changed, changed[:5]


def test_pins_cover_both_readers_and_each_outcome_kind():
    pinned = json.loads(DATA.read_text())
    kinds = {(e[0], e[2][0]) for e in pinned}
    assert kinds >= {(k, o) for k in COUNT for o in ("ok", "ParseError")}
    messages = {e[2][1] for e in pinned}
    assert {"unbalanced parentheses", "relations must end in '= 0'",
            "lexical error: unexpected character '²'"} <= messages


if __name__ == "__main__":
    DATA.write_text("[\n" + ",\n".join(json.dumps(e, ensure_ascii=True)
                                       for e in table()) + "\n]\n")
