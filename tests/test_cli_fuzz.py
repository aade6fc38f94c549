"""Property: no JSON payload makes the CLI crash.

Every JSON flag of a fixed small command (A_2, ``--n 2``) gets random small
JSON values: values built from scratch out of the keys and tokens the CLI
reads, and valid payloads with one or two sub-values replaced.  Whatever the
value, ``cli.run`` returns 0, 1 or 2 without raising, and on 0 or 1 stdout is
one JSON document.  Integers stay in [-3, 3] and lists stay short, so every
ring and root system that a payload sets up is small.  The integer flags
(``--n``, ``--samples``) are drawn from the same range, and any command may
get an ``--output`` that cannot be written, which must exit 1 with the error
object on stdout.
"""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import given, settings, strategies as st

from weylfan import cli

KEYS = ("pairs", "positive_root", "ratio", "chart", "coords", "n", "terms", "chain",
        "coeff", "coeffs", "subset", "a", "blocks", "i", "pos", "family", "rank")
TOKENS = KEYS + ("A", "B", "G", "E", "0", "1", "-1", "2", "1/2", "1/0", "x", "")

SCALARS = st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(TOKENS)
VALUES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(KEYS), kids,
                                                                max_size=3),
    max_leaves=10)


@st.composite
def near(draw, obj):
    """``obj`` with one sub-value (possibly itself) replaced by a random value."""
    if isinstance(obj, (list, dict)) and obj and draw(st.integers(0, 3)):
        obj = list(obj) if isinstance(obj, list) else dict(obj)
        key = draw(st.sampled_from(range(len(obj)) if isinstance(obj, list) else sorted(obj)))
        obj[key] = draw(near(obj[key]))
        return obj
    return draw(VALUES)


A2 = ["--type", "A", "--rank", "2"]
A2_DATA = {"pairs": [
    {"positive_root": [1, -1, 0], "ratio": ["1", "1"]},
    {"positive_root": [0, 1, -1], "ratio": ["2", "1"]},
    {"positive_root": [1, 0, -1], "ratio": ["2", "1"]},
]}
A2_POINT = {"chart": [[1, -1, 0], [0, 1, -1]], "coords": ["1", "1/2"]}
CHAIN = {"n": 2, "blocks": [[1, 2], [3]], "coords": [
    {"i": 1, "pos": ["1", "1"]}, {"i": 2, "pos": ["1", "2"]}, {"i": 3, "pos": ["1", "1"]}]}
CLASS = {"n": 2, "terms": [{"chain": [[1], [1, 2]], "coeff": 1}]}
DIVISOR = {"coeffs": [{"subset": [1], "a": 1}, {"subset": [1, 2], "a": 2}]}

# (argv without the fuzzed flag, fuzzed flag, a valid value of that flag)
CASES = [
    (["fan"], "--factors", [{"family": "A", "rank": 2}, ["B", 2]]),
    (["morphism", *A2], "--sub-roots", [[1, -1, 0]]),
    (["orbit", *A2], "--cone", [[1, 0]]),
    (["rdata", "validate", *A2], "--data-json", A2_DATA),
    (["rdata", "to-point", *A2], "--data-json", A2_DATA),
    (["rdata", "universal-at", *A2], "--point-json", A2_POINT),
    (["reduce"], "--class-json", CLASS),
    (["reduce", "--class-json", json.dumps(CLASS)], "--times-json", CLASS),
    (["nef", "--n", "2"], "--divisor-json", DIVISOR),
    (["ample", "--n", "2"], "--divisor-json", DIVISOR),
    (["lm", "type"], "--data-json", A2_DATA),
    (["lm", "from-data"], "--data-json", A2_DATA),
    (["lm", "membership", "--point-json", '[["1","1"],["1","1"],["2","1"]]'],
     "--data-json", A2_DATA),
    (["lm", "membership", "--data-json", json.dumps(A2_DATA)], "--point-json",
     [["1", "1"], ["1", "1"], ["2", "1"]]),
    (["lm", "extract"], "--chain-json", CHAIN),
    (["lm", "contract", "--keep", "1,3"], "--chain-json", CHAIN),
    (["lm", "orbit-type", "--n", "2"], "--cone", [[1], [1, 2]]),
]


# Commands whose integer flags are drawn: --n always, --samples for roundtrip.
N_CASES = [["betti"], ["basis"], ["primcol"], ["polytope"], ["sigma-delta"], ["crepant"],
           ["nef", "--divisor-json", json.dumps(DIVISOR)],
           ["ample", "--divisor-json", json.dumps(DIVISOR)],
           ["lm", "universal"], ["lm", "orbit-type", "--cone", "[[1]]"], ["lm", "roundtrip"]]

# Paths that open() refuses for writing: a file in a missing directory, and
# a directory.  Neither can be created by a run, so a draw writes nothing.
HERE = Path(__file__).resolve().parent
UNWRITABLE = [str(HERE / "no-such-directory" / "out.json"), str(HERE)]


@st.composite
def argvs(draw):
    argv, flag, valid = draw(st.sampled_from(CASES))
    value = draw(VALUES | near(valid) | near(valid).flatmap(near))
    return [*argv, flag, json.dumps(value)]


@st.composite
def int_argvs(draw):
    argv = [*draw(st.sampled_from(N_CASES)), "--n", str(draw(st.integers(-3, 3)))]
    if argv[1] == "roundtrip":
        argv += ["--samples", str(draw(st.integers(-3, 3)))]
    return argv


def run_checked(argv, output):
    """``cli.run`` on argv (plus ``--output`` when given): exit 0, 1 or 2,
    and on 0 or 1 one JSON document on stdout unless the file took it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv if output is None else [*argv, "--output", output])
    assert code in (0, 1, 2), argv
    if output is not None:
        assert code != 0, argv
    if code in (0, 1):
        json.loads(out.getvalue())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argvs(), st.sampled_from([None, None, *UNWRITABLE]))
def test_cli_never_crashes(argv, output):
    run_checked(argv, output)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(int_argvs(), st.sampled_from([None, None, *UNWRITABLE]))
def test_integer_flags_never_crash(argv, output):
    run_checked(argv, output)


def test_valid_cases_succeed():
    """The unmutated payloads are valid, so the fuzz starts from working input."""
    for argv, flag, valid in CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run([*argv, flag, json.dumps(valid)]) == 0, (argv, out.getvalue())
