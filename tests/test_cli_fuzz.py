"""The CLI's exit-code contract under drawn command lines.

Each example runs cli.main in process on one command line: a
subcommand from the real parser, a type text (every series letter in
either case, with or without '_', ranks 1-8 and 12, the sides of the
rank ceiling, the budget refusals, the torus spellings and garbage) and
the subcommand's flags, each omitted, valid for the type or garbage.
Whatever is drawn, the exit code is 0 or 2 (1 only from verify), no
traceback is printed, a refusal starts 'error:' or 'usage:' and names
the token it refuses (or the canonical name of a type spelled another
way), and a success prints something.

Left out, because their commands take seconds: the identity tables of
A40-A47 (tau A47 builds 147,273 rows in about 2 s), B and C of ranks
13-26, whose triples fit the budget, and triples or verify of A48,
whose triples fit it too (triples A48 takes 2-3 s).  A48 is drawn
only for tau, strata, fiber and cstar, which refuse it at once.
"""

import argparse
import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from charstrata import cli
from charstrata.cartan import CharstrataError, parse_type
from charstrata.cuspidal import enumerate_cs_prime
from charstrata.schema import canonical_json, table_document
from charstrata.strata import strata
from charstrata.tables import TableStore

(_SUB,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
SUBCOMMANDS = tuple(_SUB.choices)

# What argparse names when a required argument is missing.
REQUIRED = ("type", "--stratum", "--char", "--what", "--in")

RANKS = (1, 2, 3, 4, 5, 6, 7, 8, 12, 999, 1000, 1001, 5000)


def _spellings(name):
    """The spellings of a canonical type name that parse_type reads as it."""
    if name == "Torus":
        return ["Torus", "torus", "TORUS", "T", "t", "T_"]
    return [f"{s}{sep}{name[1:]}" for s in (name[0], name[0].lower()) for sep in ("", "_")]


def _levi_spellings(levi):
    """The spellings tables.levi_name_of reads as this Levi name."""
    return ["-", ""] if levi == "-" else _spellings(levi) + [f" {levi.lower()} "]


# No ASCII digit, so no garbage text spells a type of large rank.
GARBAGE_TEXT = st.text(alphabet="xyzAbT_-()²٣５ ,|{}'.", max_size=5)
GARBAGE = st.one_of(
    GARBAGE_TEXT,
    st.sampled_from(["", "-", "Z9", "B²", "B٣", "1_0", "(2)", "(1,1)", "eps", "E9", "all"]),
)

NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "5", "-1", "+1", "٣", "５", "1" * 13, "0" * 13,
                     "9" * 12, "1_0", "1.0", " 1", ""]),
    GARBAGE_TEXT,
)

CHAR_CLASSES = st.one_of(
    st.sampled_from(["generic", "0", "2", "3", "5", "7", "4", "1", "-3", "٣", "1000003",
                     "1" * 13, "02", "Generic"]),
    GARBAGE_TEXT,
)

WHAT = st.sampled_from(["table", "triples", "strata", "report"])
TWO_IN_THREE = st.sampled_from((True, True, False))
STRAY = st.sampled_from([["--expand"], ["--timings"], ["--what", "table"], ["--bogus"],
                         ["--json"]])

# Types with a built-in table.  Each pool holds strategies that draw a
# spelling of the type, one of a few of its heads and the coordinates
# (levi, character, d, index) of one of a few of its triples, and the
# set of those triples' Levis.
TABLE_TYPES = ("Torus", "A1", "A3", "A5", "A8", "G2", "F4", "E6", "E7", "E8")


def _pools(name):
    t = parse_type(name)
    heads = [lab.text for lab in strata(t, TableStore())]
    triples = enumerate_cs_prime(t)
    coords = [(tr.levi.levi_name, tr.character.text, tr.d, tr.index)
              for tr in triples[:: max(1, len(triples) // 8)]]
    return (st.sampled_from(_spellings(name)),
            st.sampled_from(heads[:: max(1, len(heads) // 6)] + heads[-1:]),
            st.sampled_from(coords), {levi for levi, *_ in coords})


POOLS = {name: _pools(name) for name in TABLE_TYPES}
LEVI_TEXTS = {levi: st.one_of(st.sampled_from(_levi_spellings(levi)), GARBAGE)
              for pool in POOLS.values() for levi in sorted(pool[3])}

# Other type texts: the series letters at the menu's ranks, the budget
# refusals A70, B27 and D30, the torus and garbage.  A48 is refused at
# once only by the table queries.
MENU = st.sampled_from([text for series in "ABCDEFG" for n in RANKS
                        for text in _spellings(f"{series}{n}")])
SPELLED = ["A70", "B27", "D30", "Torus"]
OTHER_TYPES = {
    table_query: st.one_of(MENU, GARBAGE, st.sampled_from(
        [text for name in SPELLED + ["A48"] * table_query for text in _spellings(name)]))
    for table_query in (False, True)
}
TABLE_QUERIES = ("tau", "strata", "fiber", "cstar")


def _canonical_spelling(text):
    """The name a refusal prints for a type text: the torus, or the
    series letter upper-cased and the rank, with '_' and the surrounding
    space dropped as parse_type drops them."""
    try:
        return parse_type(text).name
    except CharstrataError:
        s = text.strip().replace("_", "")
        return s[:1].upper() + s[1:] if s[:1].isalpha() else None


def _flags(draw, command, name):
    """The optional groups of a subcommand's flags, valid for the type
    name (None for a type without a pool) two times in three."""
    def value(valid, garbage=GARBAGE):
        return valid if draw(TWO_IN_THREE) else draw(garbage)

    if name is None:
        head, (levi, char, d, index) = "1", ("-", "1", 0, 0)
    else:
        head, (levi, char, d, index) = draw(POOLS[name][1]), draw(POOLS[name][2])
    if command in ("fiber", "cstar"):
        return [["--stratum", value(head)]] + [["--expand"]] * (command == "fiber")
    if command == "tau":
        return [["--levi", value(levi, LEVI_TEXTS[levi])],
                ["--char", value(char)],
                ["--d", draw(NUMBERS) if d is None else value(str(d), NUMBERS)],
                ["--index", value(str(index), NUMBERS)]]
    if command == "centralizers":
        return [["--d", draw(NUMBERS)], ["--char-class", draw(CHAR_CLASSES)]]
    if command == "export":
        return [["--what", value(draw(WHAT))]]
    return [["--timings"]] if command == "verify" else []


@st.composite
def command_lines(draw, paths):
    """(argv, the canonical name of its type or None)."""
    command = draw(st.sampled_from(SUBCOMMANDS))
    canonical = None
    if command == "register":
        groups = [["--in", draw(st.sampled_from(paths))]] if draw(TWO_IN_THREE) else []
    else:
        name = draw(st.sampled_from(TABLE_TYPES)) if draw(st.booleans()) else None
        text = draw(POOLS[name][0] if name else OTHER_TYPES[command in TABLE_QUERIES])
        canonical = _canonical_spelling(text)
        groups = [[text]] + [g for g in _flags(draw, command, name) if draw(TWO_IN_THREE)]
    groups = draw(st.permutations(groups))
    if draw(st.integers(0, 5)) == 0:
        groups.append(draw(STRAY))
    front = ["--json"] if draw(st.booleans()) else []
    return front + [command] + [token for group in groups for token in group], canonical


@pytest.fixture(scope="module")
def register_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("register")
    latin1, e6 = root / "latin1.json", root / "E6.json"
    latin1.write_bytes(b'{"type": "E6\xff"}')
    e6.write_text(canonical_json(table_document(parse_type("E6"))))
    return [str(root / "missing.json"), str(root), "/dev/null", str(latin1), str(e6)]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_every_command_line_keeps_the_exit_code_contract(register_paths, data):
    argv, canonical = data.draw(command_lines(register_paths))
    code, out, err = _run(argv)
    command = next(token for token in argv if token in SUBCOMMANDS)
    assert code in (0, 2) or (code == 1 and command == "verify"), (argv, code, err)
    assert "Traceback" not in err, argv
    if code == 2:
        assert err.startswith(("error:", "usage:")), (argv, err)
        message = err.rsplit("error: ", 1)[-1]
        tokens = [token for token in argv if token != command]
        if err.startswith("usage:"):
            tokens += REQUIRED
        needles = [form for token in tokens for form in (token, repr(token)) if form]
        needles += [canonical] if canonical else []
        assert any(needle in message for needle in needles), (argv, err)
    if code == 0:
        assert out, argv
