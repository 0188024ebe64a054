"""Parser fuzz: every input is either refused with InputError or parsed to
a value whose written text parses back to that same value.

Each input is a valid document with up to three random edits, so many
of them parse: a token replaced by one the formats refuse (out of range,
malformed, or read by `int` or `Fraction` but not by the formats), or a
line dropped, repeated or inserted as junk.  `derandomize=True` keeps the
examples the same on every run.
"""

from functools import reduce
from operator import or_

from hypothesis import given, settings, strategies as st

from polybound.errors import InputError
from polybound.formats import (HREP_MAGIC, INC_MAGIC, VREP_MAGIC, hrep_to_text,
                               incidence_to_text, parse_hrep, parse_incidence, parse_vrep,
                               vrep_to_text)
from polybound.rational import format_rational, parse_rational

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200)

LITERAL = st.builds("{}{}{}{}".format, st.sampled_from(["", "+", "-"]), st.sampled_from(["", "0"]),
                    st.integers(0, 999), st.one_of(st.just(""), st.integers(1, 99).map("/{}".format)))
JUNK = st.text(st.characters(max_codepoint=127), max_size=6)
# tokens the formats refuse, though int or Fraction alone reads many of them
BAD = st.one_of(JUNK, st.sampled_from([
    "-1", "+1", "1/0", "1.5", "1e3", "1.5e2", "1e99999999", ".5", "1/", "/2", "1_0", "0x1",
    "-", "inf", "nan", "99999999999", "999999999992", "9" * 5000, ""]))


def words(draw, width, token):
    return " ".join(draw(st.lists(token, min_size=width, max_size=width)))


@st.composite
def hrep_documents(draw):
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    return [HREP_MAGIC, f"dim {d} rows {m}"] + [words(draw, d + 1, LITERAL) for _ in range(m)]


@st.composite
def vrep_documents(draw):
    d, k, r = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return ([VREP_MAGIC, f"dim {d}", f"vertices {k}"]
            + [words(draw, d, LITERAL) for _ in range(k)]
            + [f"rays {r}"] + [words(draw, d, LITERAL) for _ in range(r)])


@st.composite
def incidence_documents(draw):
    """A polygon's or a simplex's incidences, rows shuffled, or random rows,
    which are seldom a polytope's and so are mostly refused."""
    n = draw(st.integers(1, 5))
    full = (1 << n) - 1
    kind = draw(st.sampled_from(["polygon", "simplex", "random"]))
    if kind == "polygon" and n >= 3:
        rows = draw(st.permutations([1 << v | 1 << (v + 1) % n for v in range(n)]))
    elif kind == "simplex" and n >= 2:
        rows = draw(st.permutations([full & ~(1 << v) for v in range(n)]))
    else:
        rows = draw(st.lists(st.integers(1, full), min_size=1, max_size=5))
        # every vertex lies on a row: the last row takes in those on none
        rows[-1] |= full & ~reduce(or_, rows)
    lines = [INC_MAGIC, f"facets {len(rows)} vertices {n}"]
    lines += ["".join("1" if row >> v & 1 else "0" for v in range(n)) for row in rows]
    # the meet of some rows is a face, when it is not empty
    far = full
    for row in draw(st.lists(st.sampled_from(rows), max_size=3)):
        far &= row
    if draw(st.booleans()):
        lines.append("farface " + " ".join(str(v) for v in range(n) if far >> v & 1))
    return lines


@st.composite
def mutated(draw, documents):
    """A valid document with up to three random edits: a token replaced by
    a bad one, a line dropped, repeated, or inserted as junk."""
    lines = draw(documents)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["token", "drop", "repeat", "insert"]))
        if edit == "token":
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(BAD)
            lines[i] = " ".join(tokens)
        elif edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        else:
            lines.insert(i, draw(JUNK))
        if not lines:
            break
    return lines


def fuzz(strategy, parse, write):
    """Run parse over the strategy's examples; return how many parsed."""
    parsed = []

    @FUZZ
    @given(strategy)
    def check(text):
        try:
            value = parse(text)
        except InputError:
            return
        assert parse(write(value)) == value
        parsed.append(value)

    check()
    return len(parsed)


def lines_of(writer):
    return lambda value: writer(value).splitlines()


def test_parse_rational_round_trips_or_refuses():
    assert fuzz(st.one_of(LITERAL, BAD), parse_rational, format_rational) > 40


def test_parse_hrep_round_trips_or_refuses():
    assert fuzz(mutated(hrep_documents()), parse_hrep, lines_of(hrep_to_text)) > 40


def test_parse_vrep_round_trips_or_refuses():
    assert fuzz(mutated(vrep_documents()), parse_vrep, lines_of(vrep_to_text)) > 40


def test_parse_incidence_round_trips_or_refuses():
    assert fuzz(mutated(incidence_documents()), parse_incidence,
                lines_of(incidence_to_text)) > 40
