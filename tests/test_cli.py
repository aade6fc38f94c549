import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from weylfan import cli


def run_json(argv, capsys, expect_code=0):
    code = cli.run(argv)
    out = capsys.readouterr().out
    assert code == expect_code, out
    return json.loads(out)


def test_fan_verb(capsys):
    out = run_json(["fan", "--type", "A", "--rank", "3"], capsys)
    assert len(out["rays"]) == 14
    assert len(out["max_cones"]) == 24
    out = run_json(["fan", "--factors", '[{"family":"A","rank":1},{"family":"A","rank":1}]'],
                   capsys)
    assert len(out["max_cones"]) == 4


# `fan` output of G_2 and B_2, pinned before the chamber fan was read off the
# simple-root sets as dual bases.
G2_FAN = {"rank": 2, "rays": [[-2, 3], [-1, 0], [-1, 1], [-1, 2], [-1, 3], [0, -1], [0, 1],
                              [1, -3], [1, -2], [1, -1], [1, 0], [2, -3]],
          "max_cones": [[0, 2], [0, 3], [1, 2], [1, 5], [3, 4], [4, 6], [5, 7], [6, 10],
                        [7, 8], [8, 11], [9, 10], [9, 11]]}
B2_FAN = {"rank": 2, "rays": [[-2, 1], [-1, 0], [-1, 1], [0, -1], [0, 1], [1, -1], [1, 0],
                              [2, -1]],
          "max_cones": [[0, 1], [0, 2], [1, 3], [2, 4], [3, 5], [4, 6], [5, 7], [6, 7]]}


def test_fan_verb_pinned(capsys):
    assert run_json(["fan", "--type", "G"], capsys) == G2_FAN
    assert run_json(["fan", "--type", "B", "--rank", "2"], capsys) == B2_FAN


# sha256 of the stdout of verbs that read the chamber fan, pinned before its
# rays were carried along the orbit walk by wall-crossing.
PINNED_STDOUT = [
    (["fan", "--type", "D", "--rank", "4"],
     "0b0cbaadbd70ec83bb43c79f45ae8e51965792489c53b209256c4eef87ce8d0e"),
    (["fan", "--type", "B", "--rank", "4"],
     "33691ef7c979f76dca57ac2b7616cad1a5cfff273d4fb0ab7648c03681cfa6ba"),
    (["fan", "--type", "C", "--rank", "3"],
     "b33e84d6c7d1f0514dc835b35aac492a7d9b502399e34c5df21821d270a43835"),
    (["fan", "--factors", '[{"family":"A","rank":2},{"family":"B","rank":2}]'],
     "e03856987b6bf7749e07c4418de0f408d945f98c1cc0f786f4b30cb28e66ebf9"),
    (["morphism", "--type", "A", "--rank", "2", "--embed-products"],
     "2df2550215c5ee662fefcc8702d6a55c554a6a800c1a9e79a8039d46148ac6cd"),
    (["morphism", "--type", "B", "--rank", "2", "--embed-products"],
     "b21f93aae374f9f6b55e693bf9a88f6e9a1266c778b0fccba19a5a2d9dfadc02"),
    (["lm", "universal", "--n", "3"],
     "f6328c40b5cf2aee93415a0a52c589367231a43ce7aae3457ade905bbcbef631"),
]


# Inputs of the ratio-printing verbs: fractional, decimal, negative and
# rescaled ratios, pairs given by their negative root, and degenerate (1:0)
# and (0:1) ratios, so that the walk of ``to-point`` leaves the base chart.
B3_POINT = json.dumps({"chart": [[-1, 1, 0], [1, 0, -1], [0, 0, 1]],
                       "coords": ["-3/2", "0", "0.25"]})
A3_DATA = json.dumps({"pairs": [
    {"positive_root": [0, 0, 1, -1], "ratio": ["4", "-2"]},
    {"positive_root": [0, -1, 1, 0], "ratio": ["3/2", "0"]},
    {"positive_root": [0, 1, 0, -1], "ratio": ["0", "-5"]},
    {"positive_root": [1, -1, 0, 0], "ratio": ["-7", "0"]},
    {"positive_root": [-1, 0, 1, 0], "ratio": ["10", "6"]},
    {"positive_root": [1, 0, 0, -1], "ratio": ["-1.2", "1"]}]})
CHAIN4 = json.dumps({"n": 4, "blocks": [[3, 1], [5], [2, 4]], "coords": [
    {"i": 1, "pos": ["-4", "6"]}, {"i": 2, "pos": ["1/2", "3"]}, {"i": 3, "pos": ["7", "-5"]},
    {"i": 4, "pos": ["0.5", "1"]}, {"i": 5, "pos": ["2", "2"]}]})

# sha256 of the stdout of the verbs that print ratios, pinned while the
# ratios were still stored as pairs of Fractions.
PINNED_STDOUT += [
    (["rdata", "universal-at", "--type", "B", "--rank", "3", "--point-json", B3_POINT],
     "9a50284cc6266a2b220b47194b40452d1ff2d846d5f241ee4429e355a5296acc"),
    (["rdata", "to-point", "--type", "A", "--rank", "3", "--data-json", A3_DATA],
     "5e344e83c0e7d462a56015ab363a92eb7bc2a53491f1ac5f5d4371a5d4e19828"),
    (["lm", "extract", "--chain-json", CHAIN4],
     "2cae5a666408fc2943859c6eed560c9a52799b3690a3f5b816c99360a3c57950"),
    (["lm", "from-data", "--data-json", A3_DATA],
     "1796dcae9d3003ced8f5f44eee559a30308cccd9c8e9cd5985ad9262b029955b"),
    (["lm", "contract", "--chain-json", CHAIN4, "--keep", "1,2,4"],
     "701220177bc44bdf9f1b1e4adb96dfc7bc6a470c972beb71265396eb3c0262e9"),
    (["lm", "roundtrip", "--n", "4", "--samples", "25", "--seed", "3"],
     "4f1bd69a14edfc55d6dc2800760bbf4cf517b128cb089fc98e89628ec80468e6"),
]

# sha256 of the stdout of the largest chamber fans and of orbit closures off
# the base chamber, pinned while W was still walked breadth-first and the
# charts of an orbit closure were found by a scan of every chamber.
PINNED_STDOUT += [
    (["fan", "--type", "A", "--rank", "6"],
     "d5102b5ba7ba2de969f3c575ac707553a73d579401959a3647738874fa39e4e8"),
    (["fan", "--type", "B", "--rank", "5"],
     "53957fc1063b99477152b35843ccdfa51f01d40b5ad1fbd2db5b2b6199d91e18"),
    (["orbit", "--type", "D", "--rank", "4", "--cone", "[[0,1,0,0],[-1,1,0,0]]"],
     "061776572ebb9a8b102d7104c67d76f34ec31624b3e34cdf8c455fbacc4dabb4"),
    (["orbit", "--type", "A", "--rank", "5", "--cone", "[[0,-1,1,0,0]]"],
     "6c2fb8a2600808fe8fceb5251b87689d6fde8d0982bd80a724822e60797e65ad"),
]


# sha256 of the stdout of the root polytope, pinned while its vertices were
# found by a double description inside ``typea``.
PINNED_STDOUT += [
    (["polytope", "--n", "4"],
     "8c1b8eb51bc06802c345a5d938db84a09a4d3b19027f00361280b750f6c923f8"),
    (["polytope", "--n", "5"],
     "3ecbbc7363c946e20f5e4b950c25626e9585b0a2621262809381503e37c2b3f0"),
]


# sha256 of the stdout of the fan morphisms of a subsystem and of the universal
# chain, pinned while root-lattice coordinates were solved by a Hermite normal
# form rather than read off the mcoords of a root.
PINNED_STDOUT += [
    (["morphism", "--type", "C", "--rank", "3", "--sub-roots", "[[1,0,0],[0,1,0]]"],
     "a313a70da60defe5aa41aca18c101645188b4b82c62937383ab4a300e5cb5bf9"),
    (["morphism", "--type", "G", "--sub-roots", "[[1,-1,0]]"],
     "0fdeb01d59a2bac23b54b19514014a1dbfc829432ae491bd75f451778b0c6563"),
    (["lm", "universal", "--n", "2"],
     "ac1fc27b47c6a347f23c193600b256dfd7839536c04d63d6e0fae616f61de432"),
]


# sha256 of the stdout of the subset fans of type A, pinned while ``typea``'s
# subset fans went through ``make_fan``; crepant --n 6 prints fan-A6.
PINNED_STDOUT += [
    (["sigma-delta", "--n", "5"],
     "9edfa69bca231be54c29c92f31548ed8449534eddb78c6409a8299f6c2498e6f"),
    (["crepant", "--n", "6"],
     "d5102b5ba7ba2de969f3c575ac707553a73d579401959a3647738874fa39e4e8"),
]


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT, ids=[
    "fan-D4", "fan-B4", "fan-C3", "fan-A2xB2", "embed-A2", "embed-B2", "lm-universal-3",
    "universal-at-B3", "to-point-A3", "lm-extract-4", "lm-from-data-3", "lm-contract-4",
    "lm-roundtrip-4", "fan-A6", "fan-B5", "orbit-D4", "orbit-A5", "polytope-4", "polytope-5",
    "morphism-C3-sub", "morphism-G2-sub", "lm-universal-2", "sigma-delta-5", "crepant-6"])
def test_stdout_pinned(argv, digest, capsys):
    assert cli.run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of `reduce` on a random full chain at the widest n,
# pinned while the normal form was still computed by a worklist.
FULL_CHAIN_62_DIGEST = "10d35f097e885ef0595c9f599bbdb2267e130d0d35d7160b2ba3c02d4e181512"


def test_reduce_full_chain_at_the_widest_n():
    """The rewrites of a full chain at n = 62 go about n^2 / 4 deep: a new
    process must print the normal form, with no traceback."""
    n = 62
    labels = list(range(1, n + 2))
    random.Random(62).shuffle(labels)
    chain = [sorted(labels[:t]) for t in range(1, n + 1)]
    payload = json.dumps({"n": n, "terms": [{"chain": chain, "coeff": 1}]})
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-m", "weylfan.cli", "reduce", "--class-json", payload],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == FULL_CHAIN_62_DIGEST


def test_betti_verb(capsys):
    assert run_json(["betti", "--n", "3"], capsys) == [1, 11, 11, 1]


def test_deterministic_output(capsys):
    code1 = cli.run(["lm", "roundtrip", "--n", "3", "--samples", "20", "--seed", "7"])
    out1 = capsys.readouterr().out
    code2 = cli.run(["lm", "roundtrip", "--n", "3", "--samples", "20", "--seed", "7"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1) == {"ok": True, "samples": 20}


def test_seed_belongs_to_lm_only(capsys):
    """Only ``lm roundtrip`` reads --seed, so no other verb accepts it."""
    assert cli.run(["fan", "--type", "A", "--rank", "2", "--seed", "1"]) == 2
    capsys.readouterr()


def test_error_object_and_codes(capsys):
    out = run_json(["fan", "--type", "E", "--rank", "6"], capsys, expect_code=1)
    assert out["error"] == "UnsupportedFamily"
    # usage error: unknown verb
    assert cli.run(["definitely-not-a-verb"]) == 2
    capsys.readouterr()
    # domain error: invalid data
    bad = json.dumps({"pairs": [
        {"positive_root": [1, -1, 0], "ratio": ["1", "1"]},
        {"positive_root": [0, 1, -1], "ratio": ["2", "1"]},
        {"positive_root": [1, 0, -1], "ratio": ["1", "1"]},
    ]})
    out = run_json(["rdata", "to-point", "--type", "A", "--rank", "2",
                    "--data-json", bad], capsys, expect_code=1)
    assert "error" in out


@pytest.mark.parametrize("verb", ["nef", "ample"])
def test_divisor_verbs_refuse_a_wide_n_with_an_empty_divisor(verb, capsys):
    """An empty divisor has no subset to check n by: n itself is checked
    before a coefficient list of 2^(n+1) entries is built."""
    argv = [verb, "--n", "100", "--divisor-json", '{"coeffs": []}']
    assert run_json(argv, capsys, expect_code=1)["error"] == "InvalidInput"


@pytest.mark.parametrize("argv", [
    ["fan", "--type", "G", "--rank", "5"],
    ["fan", "--type", "A", "--rank", "2", "--factors", '[{"family":"B","rank":2}]'],
    ["fan", "--rank", "3", "--factors", '[{"family":"A","rank":1}]'],
])
def test_conflicting_system_flags_are_invalid_input(argv, capsys):
    """A given rank is checked, and --factors excludes --type and --rank:
    no system flag is silently ignored."""
    assert run_json(argv, capsys, expect_code=1)["error"] == "InvalidInput"


def test_rdata_verbs(capsys):
    good = json.dumps({"pairs": [
        {"positive_root": [1, -1, 0], "ratio": ["1", "1"]},
        {"positive_root": [0, 1, -1], "ratio": ["2", "1"]},
        {"positive_root": [1, 0, -1], "ratio": ["2", "1"]},
    ]})
    out = run_json(["rdata", "validate", "--type", "A", "--rank", "2",
                    "--data-json", good], capsys)
    assert out == {"ok": True, "violations": []}
    point = run_json(["rdata", "to-point", "--type", "A", "--rank", "2",
                      "--data-json", good], capsys)
    back = run_json(["rdata", "universal-at", "--type", "A", "--rank", "2",
                     "--point-json", json.dumps(point)], capsys)
    assert json.loads(good)["pairs"][0]["positive_root"] in \
        [e["positive_root"] for e in back["pairs"]]
    out = run_json(["rdata", "verify-gen", "--type", "B", "--rank", "3"], capsys)
    assert out == {"ok": True}


def test_morphism_verbs(capsys):
    out = run_json(["morphism", "--type", "A", "--rank", "2",
                    "--sub-roots", "[[1,-1,0]]"], capsys)
    assert len(out["target_fan"]["rays"]) == 2
    assert len(out["cone_image"]) == 6
    out = run_json(["morphism", "--type", "A", "--rank", "2", "--embed-products"], capsys)
    assert out["kernel"] == [[1, 1, -1]]
    assert len(out["charts"]) == 8


def test_orbit_verb(capsys):
    out = run_json(["orbit", "--type", "A", "--rank", "2", "--cone", "[[1,0]]"], capsys)
    assert sorted(map(tuple, out["subsystem_roots"])) == [(0, -1, 1), (0, 1, -1)]
    assert out["opposite"]["minus_cone"] == [[-1, 0]]


def test_typea_verbs(capsys):
    out = run_json(["basis", "--n", "2"], capsys)
    assert len(out["monomials"]) == 6
    out = run_json(["reduce", "--class-json",
                    json.dumps({"n": 2, "terms": [{"chain": [[3]], "coeff": 1}]})], capsys)
    assert out["terms"] == [
        {"chain": [[2]], "coeff": 1},
        {"chain": [[1, 2]], "coeff": 1},
        {"chain": [[1, 3]], "coeff": -1},
    ]
    out = run_json(["primcol", "--n", "1"], capsys)
    assert out["collections"] == [{"pair": [[1], [2]], "kind": "opposite", "rhs": []}]
    anti = json.dumps({"coeffs": [{"subset": [1], "a": 1}, {"subset": [2], "a": 1},
                                  {"subset": [3], "a": 1}, {"subset": [1, 2], "a": 1},
                                  {"subset": [1, 3], "a": 1}, {"subset": [2, 3], "a": 1}]})
    out = run_json(["nef", "--n", "2", "--divisor-json", anti], capsys)
    assert out == {"nef": True, "wall_convex": True}
    out = run_json(["ample", "--n", "2", "--divisor-json", anti], capsys)
    assert out == {"ample": True}
    out = run_json(["polytope", "--n", "2"], capsys)
    assert len(out["vertices"]) == 6 and out["is_reflexive"]
    out = run_json(["sigma-delta", "--n", "3"], capsys)
    assert len(out["max_cones"]) == 12
    out = run_json(["crepant", "--n", "3"], capsys)
    crepant = out
    out = run_json(["fan", "--type", "A", "--rank", "3"], capsys)
    assert crepant == out
    # n = 0: one chamber, the zero cone, as betti [1] and basis [[]] say
    for verb in ("sigma-delta", "crepant"):
        assert run_json([verb, "--n", "0"], capsys) == {"rank": 0, "rays": [], "max_cones": [[]]}


# Literal stdout of `polytope --n 2` and of `nef`/`ample` on the
# anticanonical divisor of X(A_3) (nef, not ample), pinned before the
# double-description vertices and the closed-form chamber functionals.
POLYTOPE_2_STDOUT = """\
{
  "n": 2,
  "vertices": [
    [
      -1,
      -1
    ],
    [
      -1,
      0
    ],
    [
      0,
      -1
    ],
    [
      0,
      1
    ],
    [
      1,
      0
    ],
    [
      1,
      1
    ]
  ],
  "lattice_points": [
    [
      -1,
      -1
    ],
    [
      -1,
      0
    ],
    [
      0,
      -1
    ],
    [
      0,
      0
    ],
    [
      0,
      1
    ],
    [
      1,
      0
    ],
    [
      1,
      1
    ]
  ],
  "interior_points": [
    [
      0,
      0
    ]
  ],
  "is_reflexive": true,
  "polar_vertices": [
    [
      -1,
      0
    ],
    [
      -1,
      1
    ],
    [
      0,
      -1
    ],
    [
      0,
      1
    ],
    [
      1,
      -1
    ],
    [
      1,
      0
    ]
  ]
}
"""
NEF_3_STDOUT = '{\n  "nef": true,\n  "wall_convex": true\n}\n'
AMPLE_3_STDOUT = '{\n  "ample": false\n}\n'


def test_typea_verbs_pinned(capsys):
    assert cli.run(["polytope", "--n", "2"]) == 0
    assert capsys.readouterr().out == POLYTOPE_2_STDOUT
    anti = json.dumps({"coeffs": [
        {"subset": s, "a": 1}
        for s in ([1], [2], [3], [4], [1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4],
                  [1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4])]})
    assert cli.run(["nef", "--n", "3", "--divisor-json", anti]) == 0
    assert capsys.readouterr().out == NEF_3_STDOUT
    assert cli.run(["ample", "--n", "3", "--divisor-json", anti]) == 0
    assert capsys.readouterr().out == AMPLE_3_STDOUT


def test_reduce_times(capsys):
    # Every boundary divisor of X(A_2), the hexagon, is a (-1)-curve; the
    # rays {1} and {1,2} span a cone, so [[1],[1,2]] is the point class.
    d1 = json.dumps({"n": 2, "terms": [{"chain": [[1]], "coeff": 1}]})
    out = run_json(["reduce", "--class-json", d1, "--times-json", d1], capsys)
    assert out == {"n": 2, "terms": [{"chain": [[1], [1, 2]], "coeff": -1}]}
    other = json.dumps({"n": 3, "terms": [{"chain": [[1]], "coeff": 1}]})
    out = run_json(["reduce", "--class-json", d1, "--times-json", other], capsys,
                   expect_code=1)
    assert out["error"] == "InvalidInput"


A2_DATA = json.dumps({"pairs": [
    {"positive_root": [1, -1, 0], "ratio": ["1", "1"]},
    {"positive_root": [0, 1, -1], "ratio": ["2", "1"]},
    {"positive_root": [1, 0, -1], "ratio": ["2", "1"]},
]})
CHAIN = json.dumps({"n": 2, "blocks": [[1, 2, 3]], "coords": [
    {"i": 1, "pos": ["1", "1"]}, {"i": 2, "pos": ["1", "1"]}, {"i": 3, "pos": ["1", "2"]}]})


@pytest.mark.parametrize("argv, flag", [
    (["lm", "type", "--data-json", '{"pairs": []}'], "--data-json"),
    (["lm", "from-data", "--data-json", '{"pairs": []}'], "--data-json"),
    (["lm", "membership", "--data-json", '{"pairs": []}', "--point-json", "[]"], "--data-json"),
    (["lm", "universal"], "--n"),
    (["lm", "orbit-type", "--cone", "[[1]]"], "--n"),
    (["lm", "roundtrip"], "--n"),
    (["lm", "membership", "--data-json", A2_DATA, "--point-json", '[["1", "1"]]'],
     "--point-json"),
    (["rdata", "validate", "--type", "A", "--rank", "2"], "--data-json"),
    (["rdata", "to-point", "--type", "A", "--rank", "2"], "--data-json"),
    (["rdata", "universal-at", "--type", "A", "--rank", "2"], "--point-json"),
    (["lm", "extract"], "--chain-json"),
    (["lm", "contract", "--chain-json", CHAIN], "--keep"),
    # a payload of the wrong JSON type or shape
    (["rdata", "validate", "--type", "A", "--rank", "2", "--data-json", "[]"], "--data-json"),
    (["lm", "membership", "--data-json", A2_DATA, "--point-json", "[1,2,3]"], "--point-json"),
    (["fan", "--factors", "5"], "--factors"),
    (["nef", "--n", "2", "--divisor-json", "[]"], "--divisor-json"),
    (["reduce", "--class-json", '{"n":2,"terms":[{"chain":[3],"coeff":1}]}'], "--class-json"),
    (["lm", "contract", "--chain-json", "[]", "--keep", "1"], "--chain-json"),
    (["orbit", "--type", "A", "--rank", "2", "--cone", "5"], "--cone"),
    (["lm", "orbit-type", "--n", "2", "--cone", "[3]"], "--cone"),
    (["morphism", "--type", "A", "--rank", "2", "--sub-roots", "[[1,-1]]"], "--sub-roots"),
    (["lm", "extract", "--chain-json", json.dumps({"blocks": [[1], [5]], "coords": [
        {"i": 1, "pos": ["1", "1"]}, {"i": 5, "pos": ["1", "1"]}]})], "--chain-json"),
    (["lm", "roundtrip", "--n", "2", "--samples", "-1"], "--samples"),
    (["polytope", "--n", "0"], "n >= 1"),
    # a ratio that is not a list of exactly two numbers, or a boolean number
    (["rdata", "validate", "--type", "A", "--rank", "2", "--data-json",
      A2_DATA.replace('["2", "1"]', '"35"', 1)], "--data-json"),
    (["rdata", "to-point", "--type", "A", "--rank", "2", "--data-json",
      A2_DATA.replace('["2", "1"]', '["3", "5", "7"]', 1)], "--data-json"),
    (["lm", "membership", "--data-json", A2_DATA, "--point-json",
      '[["1", "1"], [true, 2], ["2", "1"]]'], "--point-json"),
    (["rdata", "universal-at", "--type", "A", "--rank", "2", "--point-json",
      '{"chart": [[1, -1, 0], [0, 1, -1]], "coords": [true, "1"]}'], "--point-json"),
])
def test_missing_or_short_input_is_invalid_input(argv, flag, capsys):
    out = run_json(argv, capsys, expect_code=1)
    assert out["error"] == "InvalidInput"
    assert flag in out["detail"]


@pytest.mark.parametrize("argv, key", [
    (["fan", "--factors", '[{"family": "A"}]'], "rank"),
    (["rdata", "validate", "--type", "A", "--rank", "2", "--data-json",
      A2_DATA.replace(', "ratio": ["2", "1"]', "", 1)], "ratio"),
], ids=["factor-without-rank", "pair-without-ratio"])
def test_missing_key_is_named(argv, key, capsys):
    """A JSON object without a required key is invalid input whose detail
    names the key, not the bare key alone."""
    out = run_json(argv, capsys, expect_code=1)
    assert out == {"error": "InvalidInput", "detail": f"missing key {key!r}"}


@pytest.mark.parametrize("argv", [
    ["rdata", "validate", "--type", "A", "--rank", "2", "--data-json",
     A2_DATA.replace("[0, 1, -1]", "[1, -1, 0]")],
    ["rdata", "to-point", "--type", "A", "--rank", "2", "--data-json",
     A2_DATA.replace("[0, 1, -1]", "[-1, 1, 0]")],
    ["lm", "extract", "--chain-json", CHAIN.replace('"i": 2', '"i": 1')],
    ["rdata", "universal-at", "--type", "A", "--rank", "2", "--point-json",
     json.dumps({"chart": [[1, -1, 0], [1, -1, 0]], "coords": ["1", "2"]})],
], ids=["same-root", "root-and-negative", "same-mark", "same-chart-root"])
def test_duplicate_entry_is_invalid_input(argv, capsys):
    """A pair, a mark or a chart root given twice is refused, not resolved
    by the later one."""
    out = run_json(argv, capsys, expect_code=1)
    assert out["error"] == "InvalidInput"
    assert "twice" in out["detail"]


@pytest.mark.parametrize("rank, chart, error, detail", [
    (2, [[1, -1, 0], [1, 0, -1]], "NotInSpan",
     "the roots [[1, -1, 0], [1, 0, -1]] are not a simple set"),
    (2, [[-1, 1, 0], [1, -1, 0]], "NotInSpan",
     "the roots [[-1, 1, 0], [1, -1, 0]] are not a simple set"),
    (3, [[0, 1, -1, 0], [1, -1, 0, 0], [1, 0, -1, 0]], "NotInSpan",
     "the roots [[0, 1, -1, 0], [1, -1, 0, 0], [1, 0, -1, 0]] are not a simple set"),
    (2, [[0, 1, -1], [0, 1, -1]], "InvalidInput", "the chart root [0, 1, -1] is given twice"),
], ids=["mixed-sign", "singular", "singular-A3", "repeated"])
def test_a_chart_that_is_not_a_simple_set_is_refused(rank, chart, error, detail):
    """A new process exits 1 with one error object and no traceback.  The
    detail names the chart's root vectors, in the lex order a chart is kept
    in, not root indices."""
    point = json.dumps({"chart": chart, "coords": ["1"] * rank})
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-m", "weylfan.cli", "rdata", "universal-at",
                           "--type", "A", "--rank", str(rank), "--point-json", point],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stderr) == (1, "")
    assert json.loads(proc.stdout) == {"error": error, "detail": detail}


@pytest.mark.parametrize("point", [
    {"chart": [[1, -1, 0], [0, 1, -1]], "coords": "12"},
    {"chart": [[1, -1, 0], [0, 1, -1]], "coords": {"1": "1", "2": "2"}},
    {"chart": "[[1,-1,0],[0,1,-1]]", "coords": ["1", "2"]},
    {"chart": {"a": [1, -1, 0], "b": [0, 1, -1]}, "coords": ["1", "2"]},
], ids=["coords-string", "coords-object", "chart-string", "chart-object"])
def test_a_chart_point_reads_json_lists_only(point, capsys):
    """A string is not read character by character, nor an object by its
    keys: the string "12" is no pair of coordinates 1 and 2."""
    out = run_json(["rdata", "universal-at", "--type", "A", "--rank", "2",
                    "--point-json", json.dumps(point)], capsys, expect_code=1)
    assert out == {"error": "InvalidInput", "detail": "--point-json has the wrong shape: "
                   "a chart point's chart and coords are JSON lists"}


@pytest.mark.parametrize("argv", [
    ["rdata", "universal-at", "--type", "A", "--rank", "2", "--point-json",
     json.dumps({"chart": [[1, -1, 0], [0, 1, -1]], "coords": ["1e300000", "1"]})],
    ["lm", "membership", "--data-json", A2_DATA, "--point-json",
     json.dumps([["1", "1"], ["1E300000", "1"], ["2", "1"]])],
    ["rdata", "validate", "--type", "A", "--rank", "2", "--data-json",
     A2_DATA.replace('["2", "1"]', '["2", "1e300000"]', 1)],
    ["rdata", "to-point", "--type", "A", "--rank", "2", "--data-json",
     A2_DATA.replace('["1", "1"]', '["-1.5e300000", "1"]', 1)],
    ["rdata", "validate", "--type", "A", "--rank", "2", "--data-json",
     A2_DATA.replace('["2", "1"]', '[2, 1e5]', 1)],
    ["rdata", "universal-at", "--type", "A", "--rank", "2", "--point-json",
     '{"chart": [[1, -1, 0], [0, 1, -1]], "coords": [1e300000, 1]}'],
])
def test_exponent_notation_is_invalid_input(argv, capsys):
    """A ratio or coordinate in exponent notation, as a string or as a JSON
    number, is refused before it is turned into a 300,000-digit integer."""
    out = run_json(argv, capsys, expect_code=1)
    assert out["error"] == "InvalidInput"
    assert "exponent" in out["detail"]


@pytest.mark.parametrize("quote", ["", '"'], ids=["numbers", "strings"])
def test_json_decimals_are_exact(quote, capsys):
    """A JSON decimal means the decimal it spells, not the nearest binary
    float: 0.1 * 0.2 = 0.02 holds for JSON numbers as for strings."""
    data = ('{"pairs":[{"positive_root":[1,-1,0],"ratio":[Q0.1Q,1]},'
            '{"positive_root":[0,1,-1],"ratio":[Q0.2Q,1]},'
            '{"positive_root":[1,0,-1],"ratio":[Q0.02Q,1]}]}').replace("Q", quote)
    out = run_json(["rdata", "validate", "--type", "A", "--rank", "2", "--data-json", data],
                   capsys)
    assert out == {"ok": True, "violations": []}


def test_infinite_json_number_is_invalid_input(capsys):
    point = '{"chart": [[1, -1, 0], [0, 1, -1]], "coords": [1e999, 1]}'
    out = run_json(["rdata", "universal-at", "--type", "A", "--rank", "2",
                    "--point-json", point], capsys, expect_code=1)
    assert out["error"] == "InvalidInput"


def test_integer_fraction_and_decimal_coordinates(capsys):
    point = {"chart": [[1, -1, 0], [0, 1, -1]], "coords": ["3", "0.5"]}
    out = run_json(["rdata", "universal-at", "--type", "A", "--rank", "2",
                    "--point-json", json.dumps(point)], capsys)
    point["coords"] = ["6/2", "1/2"]
    assert run_json(["rdata", "universal-at", "--type", "A", "--rank", "2",
                     "--point-json", json.dumps(point)], capsys) == out
    assert {tuple(e["positive_root"]): e["ratio"] for e in out["pairs"]} == {
        (1, -1, 0): ["3", "1"], (0, 1, -1): ["1", "2"], (1, 0, -1): ["3", "2"]}


@pytest.mark.parametrize("argv", [
    ["reduce", "--class-json",
     json.dumps({"n": 2, "terms": [{"chain": [[50_000_000]], "coeff": 1}]})],
    ["nef", "--n", "2", "--divisor-json",
     json.dumps({"coeffs": [{"subset": [50_000_000], "a": 1}]})],
    ["lm", "orbit-type", "--n", "2", "--cone", "[[50000000]]"],
    ["lm", "orbit-type", "--n", "50000000", "--cone", "[[1]]"],
], ids=["reduce", "nef", "orbit-type-label", "orbit-type-n"])
def test_out_of_range_label_is_refused_before_any_shift(argv, capsys):
    """A label or n far out of range exits 1 without building its bit mask:
    label 50,000,000 as a mask is a 6 MB integer."""
    tracemalloc.start()
    try:
        out = run_json(argv, capsys, expect_code=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out["error"] == "InvalidInput"
    assert peak < 1_000_000


def _chain_json(first_label, coord_label=1):
    return json.dumps({"n": 2, "blocks": [[first_label, 2], [3]], "coords": [
        {"i": coord_label, "pos": ["1", "1"]}, {"i": 2, "pos": ["2", "1"]},
        {"i": 3, "pos": ["1", "1"]}]})


@pytest.mark.parametrize("argv", [
    ["nef", "--n", "2", "--divisor-json",
     json.dumps({"coeffs": [{"subset": [1], "a": -0.5}]})],
    ["ample", "--n", "2", "--divisor-json",
     json.dumps({"coeffs": [{"subset": [1], "a": "1"}]})],
    ["nef", "--n", "2", "--divisor-json",
     json.dumps({"coeffs": [{"subset": [True], "a": 1}]})],
    ["nef", "--n", "2", "--divisor-json",
     json.dumps({"coeffs": [{"subset": [1.0], "a": 1}]})],
    ["reduce", "--class-json",
     json.dumps({"n": 2, "terms": [{"chain": [[3]], "coeff": 1.5}]})],
    ["reduce", "--class-json",
     json.dumps({"n": 2.9, "terms": [{"chain": [[3]], "coeff": 1}]})],
    ["reduce", "--class-json",
     json.dumps({"n": "2", "terms": [{"chain": [[3]], "coeff": 1}]})],
    ["reduce", "--class-json",
     json.dumps({"n": 2, "terms": [{"chain": [[True]], "coeff": 1}]})],
    ["lm", "orbit-type", "--n", "2", "--cone", "[[true]]"],
    ["lm", "contract", "--chain-json", _chain_json(1.0), "--keep", "1,2"],
    ["lm", "contract", "--chain-json", _chain_json(1, 1.0), "--keep", "1,2"],
    ["lm", "extract", "--chain-json", _chain_json(True)],
    *(["fan", "--factors", json.dumps([{"family": "A", "rank": rank}])]
      for rank in (2.9, 2.5, "2", True)),
    ["rdata", "validate", "--type", "A", "--rank", "2", "--data-json",
     A2_DATA.replace("[1, -1, 0]", "[1.0, -1, 0]")],
    ["rdata", "validate", "--type", "A", "--rank", "2", "--data-json",
     A2_DATA.replace("[1, -1, 0]", "[true, -1, 0]")],
    ["rdata", "universal-at", "--type", "A", "--rank", "2", "--point-json",
     json.dumps({"chart": [[1.0, -1, 0], [0, 1, -1]], "coords": ["2", "1"]})],
    ["lm", "membership", "--data-json", A2_DATA.replace("[0, 1, -1]", "[0, true, -1]"),
     "--point-json", json.dumps([["1", "1"], ["1", "1"], ["2", "1"]])],
], ids=["nef-coeff-float", "ample-coeff-string", "nef-label-bool", "nef-label-float",
        "reduce-coeff-float", "reduce-n-float", "reduce-n-string", "reduce-label-bool",
        "orbit-type-label-bool", "contract-block-float", "contract-mark-float",
        "extract-block-bool", "fan-rank-float", "fan-rank-half", "fan-rank-string",
        "fan-rank-bool", "validate-root-float", "validate-root-bool",
        "universal-at-chart-float", "membership-root-bool"])
def test_only_json_integers_are_read_as_integers(argv, capsys, request):
    """A coefficient, n, rank, label or root entry that is not a JSON integer
    is invalid input: int() would read 1.5 as 1 and true as 1, a float label
    would be echoed back, and 1.0 == true == 1 would match a root.  The
    detail quotes a JSON decimal as the number it spells, and a JSON string
    as a string."""
    out = run_json(argv, capsys, expect_code=1)
    assert out["error"] == "InvalidInput"
    detail = {"fan-rank-half": "A: the rank must be an integer, not 2.5",
              "fan-rank-string": "A: the rank must be an integer, not '2'",
              "validate-root-float": "the entries of (1.0, -1, 0) are not all integers"}
    assert out["detail"] == detail.get(request.node.callspec.id, out["detail"])


def test_chart_point_needs_one_coordinate_per_simple_root(capsys):
    for point in ({"chart": [], "coords": []},
                  {"chart": [[1, -1, 0], [0, 1, -1]], "coords": ["1", "1", "5"]}):
        out = run_json(["rdata", "universal-at", "--type", "A", "--rank", "2",
                        "--point-json", json.dumps(point)], capsys, expect_code=1)
        assert out["error"] == "InvalidInput"


def test_orbit_cone_with_a_repeated_ray(capsys):
    once = run_json(["orbit", "--type", "A", "--rank", "2", "--cone", "[[1,0]]"], capsys)
    twice = run_json(["orbit", "--type", "A", "--rank", "2", "--cone", "[[1,0],[1,0]]"],
                     capsys)
    assert once == twice


def test_orbit_of_a_non_cone_names_its_rays(capsys):
    """The error names the cone by its ray vectors, as --cone gives them,
    not by ray indices of the fan, which the user never sees."""
    out = run_json(["orbit", "--type", "A", "--rank", "2", "--cone", "[[1,0],[-1,0]]"], capsys,
                   expect_code=1)
    assert out == {"error": "NotInSpan",
                   "detail": "the cone spanned by [[-1, 0], [1, 0]] is not a cone of the fan"}


def test_internal_check_failure_is_a_domain_error(capsys, monkeypatch):
    from weylfan import rdata

    good = rdata.universal_rdata_at
    monkeypatch.setattr(rdata, "universal_rdata_at",
                        lambda r, p: rdata.RData(good(r, p).ratios[1:]))
    out = run_json(["rdata", "to-point", "--type", "A", "--rank", "2",
                    "--data-json", A2_DATA], capsys, expect_code=1)
    assert out["error"] == "InternalCheckFailed"


def test_lm_verbs(capsys, tmp_path):
    data = json.dumps({"pairs": [
        {"positive_root": [1, -1, 0], "ratio": ["1", "1"]},
        {"positive_root": [0, 1, -1], "ratio": ["2", "1"]},
        {"positive_root": [1, 0, -1], "ratio": ["2", "1"]},
    ]})
    out = run_json(["lm", "type", "--data-json", data], capsys)
    assert out == {"blocks": [[1, 2, 3]]}
    chain = run_json(["lm", "from-data", "--data-json", data], capsys)
    assert chain["blocks"] == [[1, 2, 3]]
    back = run_json(["lm", "extract", "--chain-json", json.dumps(chain)], capsys)
    assert {tuple(e["positive_root"]): e["ratio"] for e in back["pairs"]} == \
        {tuple(e["positive_root"]): e["ratio"] for e in json.loads(data)["pairs"]}
    out = run_json(["lm", "contract", "--chain-json", json.dumps(chain),
                    "--keep", "1,3"], capsys)
    assert out["blocks"] == [[1, 3]]
    point = json.dumps([["1", "1"], ["1", "1"], ["2", "1"]])
    out = run_json(["lm", "membership", "--data-json", data, "--point-json", point], capsys)
    assert out["ok"] is True
    out = run_json(["lm", "universal", "--n", "1"], capsys)
    assert len(out["source_fan"]["max_cones"]) == 6
    assert [e["count"] for e in out["fiber_counts"]] == [3, 3]
    out = run_json(["lm", "orbit-type", "--n", "2", "--cone", "[[1]]"], capsys)
    assert out == {"blocks": [[2, 3], [1]]}
    # --output writes the file instead of stdout
    target = tmp_path / "result.json"
    code = cli.run(["betti", "--n", "2", "--output", str(target)])
    assert code == 0 and capsys.readouterr().out == ""
    assert json.loads(target.read_text()) == [1, 4, 1]


# One small argv per verb and action; test_every_operation_reachable runs them.
VERB_ARGV = [
    ["fan", "--type", "A", "--rank", "2"],
    ["morphism", "--type", "A", "--rank", "2", "--sub-roots", "[[1,-1,0]]"],
    ["morphism", "--type", "A", "--rank", "2", "--embed-products"],
    ["orbit", "--type", "A", "--rank", "2", "--cone", "[[1,0]]"],
    ["rdata", "validate", "--type", "A", "--rank", "2", "--data-json", A2_DATA],
    ["rdata", "to-point", "--type", "A", "--rank", "2", "--data-json", A2_DATA],
    ["rdata", "universal-at", "--type", "A", "--rank", "2", "--point-json",
     json.dumps({"chart": [[1, -1, 0], [0, 1, -1]], "coords": ["2", "0"]})],
    ["rdata", "verify-gen", "--type", "B", "--rank", "2"],
    ["betti", "--n", "2"],
    ["basis", "--n", "2"],
    ["reduce", "--class-json", json.dumps({"n": 2, "terms": [{"chain": [[3]], "coeff": 1}]})],
    ["reduce", "--class-json", json.dumps({"n": 2, "terms": [{"chain": [[1]], "coeff": 1}]}),
     "--times-json", json.dumps({"n": 2, "terms": [{"chain": [[2]], "coeff": 1}]})],
    ["primcol", "--n", "2"],
    ["nef", "--n", "2", "--divisor-json", json.dumps({"coeffs": [{"subset": [1], "a": 1}]})],
    ["ample", "--n", "2", "--divisor-json", json.dumps({"coeffs": [{"subset": [1], "a": 1}]})],
    ["polytope", "--n", "2"],
    ["sigma-delta", "--n", "2"],
    ["crepant", "--n", "2"],
    ["lm", "type", "--data-json", A2_DATA],
    ["lm", "from-data", "--data-json", A2_DATA],
    ["lm", "extract", "--chain-json", CHAIN],
    ["lm", "contract", "--chain-json", CHAIN, "--keep", "1,3"],
    ["lm", "membership", "--data-json", A2_DATA, "--point-json",
     json.dumps([["1", "1"], ["1", "1"], ["2", "1"]])],
    ["lm", "universal", "--n", "1"],
    ["lm", "orbit-type", "--n", "2", "--cone", "[[1]]"],
    ["lm", "roundtrip", "--n", "2", "--samples", "2"],
]


def test_every_operation_reachable(capsys):
    """Each public library operation is entered by at least one verb.

    Every verb of VERB_ARGV runs under ``sys.setprofile`` with the library
    caches emptied, so a cached result cannot hide a function.
    """
    import inspect
    import sys

    from weylfan import chains, fans, linalg, rdata, roots, typea

    covered = {
        # verb fan
        roots.build_root_system, roots.chamber_orbit, roots.reflection_table,
        fans.weyl_chamber_fan,
        # morphism
        fans.subsystem_morphism, fans.projection_embedding_equations,
        fans.chamber_face,
        # orbit
        fans.orbit_closure, fans.opposite_sections, roots.dynkin_components,
        # rdata
        rdata.validate_rdata, rdata.rdata_to_point, rdata.universal_rdata_at,
        rdata.verify_relation_generation, roots.descend, roots.additive_triples,
        # type A
        typea.betti_numbers, typea.eulerian_numbers,
        typea.descent_basis, typea.reduce_to_basis,
        typea.multiply, typea.primitive_collections, typea.is_nef,
        typea.is_ample, typea.nef_oracle, typea.delta_polytope,
        typea.sigma_delta_fan, typea.crepant_subdivision, linalg.extreme_rays,
        # lm
        chains.comb_type_from_data, chains.chain_from_data, chains.data_from_chain,
        chains.contract, chains.curve_membership, chains.universal_curve_structure,
        chains.comb_type_over_cone, rdata.RData.as_dict,
    }
    # Library operations that no verb reaches; the tests of their modules
    # exercise them.
    library_only = {fans.check_complete, fans.check_smooth}
    for fn in covered | library_only:
        assert callable(fn)
    parser = cli.build_parser()
    verbs = set(parser._subparsers._group_actions[0].choices)
    assert verbs == {"fan", "morphism", "orbit", "rdata", "betti", "basis",
                     "reduce", "primcol", "nef", "ample", "polytope",
                     "sigma-delta", "crepant", "lm"}
    assert {argv[0] for argv in VERB_ARGV} == verbs

    for module in (linalg, roots, fans, rdata, typea, chains):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [cli.run(argv) for argv in VERB_ARGV]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(VERB_ARGV)
    name = lambda fn: f"{fn.__module__}.{fn.__name__}"
    assert sorted(name(fn) for fn in covered
                  if inspect.unwrap(fn).__code__ not in entered) == []


# One verb per import group, and the exact weylfan modules it may load.
LAYERS_BY_VERB = [
    ([], {"cli", "errors"}),
    (["fan", "--type", "A", "--rank", "2"], {"cli", "errors", "fans", "linalg", "roots"}),
    (["rdata", "validate", "--type", "A", "--rank", "2", "--data-json", A2_DATA],
     {"cli", "errors", "linalg", "rdata", "roots"}),
    (["betti", "--n", "2"], {"cli", "errors", "linalg", "typea"}),
    (["nef", "--n", "2", "--divisor-json", json.dumps({"coeffs": [{"subset": [1], "a": 1}]})],
     {"cli", "errors", "linalg", "typea"}),
    (["lm", "type", "--data-json", A2_DATA],
     {"chains", "cli", "errors", "linalg", "rdata", "roots"}),
    (["lm", "universal", "--n", "1"],
     {"chains", "cli", "errors", "fans", "linalg", "rdata", "roots"}),
]

LOADED_MODULES = """
import contextlib, io, json, sys
from weylfan import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.run(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m[8:] for m in sys.modules if m.startswith("weylfan.")),
                  sorted({"dataclasses", "fractions"} & set(sys.modules))]))
"""


@pytest.mark.parametrize("argv,layers", LAYERS_BY_VERB,
                         ids=["usage-error", "fan", "rdata", "betti", "nef", "lm-type",
                              "lm-universal"])
def test_verbs_load_only_their_layers(argv, layers):
    """A fresh interpreter that runs one verb imports only the layers of that
    verb: a layer imported at the top of a module it does not need fails here.
    No verb imports ``dataclasses``, and only the ratios of ``rdata`` and the
    root polytope (no verb here) import ``fractions``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, json.dumps(argv)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stderr == ""
    code, loaded, stdlib = json.loads(proc.stdout)
    assert (code, set(loaded)) == (2 if not argv else 0, layers)
    assert "dataclasses" not in stdlib
    if "rdata" not in layers:
        assert "fractions" not in stdlib


@pytest.mark.parametrize("name", ["missing/out.json", "."])
def test_unwritable_output_is_an_error_object(name, tmp_path, capsys):
    """An --output that cannot be written (a missing directory, a directory)
    gives the error object on stdout and exit 1, not a traceback."""
    out = run_json(["betti", "--n", "2", "--output", str(tmp_path / name)], capsys,
                   expect_code=1)
    assert out["error"] == "InvalidInput" and "--output" in out["detail"]
    assert list(tmp_path.iterdir()) == []


def test_roundtrip_with_a_negative_n_is_invalid_input(capsys):
    out = run_json(["lm", "roundtrip", "--n", "-1", "--samples", "1"], capsys, expect_code=1)
    assert out["error"] == "InvalidInput"


# A_2 data with a pair missing, and A_2 data whose ratios (1:1), (1:1), (5:1)
# break the identity t_12 t_23 t_31 = t_21 t_32 t_13 of the triple.
A2_MISSING = json.dumps({"pairs": [
    {"positive_root": [1, -1, 0], "ratio": ["1", "1"]},
    {"positive_root": [0, 1, -1], "ratio": ["1", "1"]}]})
A2_VIOLATED = json.dumps({"pairs": [
    {"positive_root": [1, -1, 0], "ratio": ["1", "1"]},
    {"positive_root": [0, 1, -1], "ratio": ["1", "1"]},
    {"positive_root": [1, 0, -1], "ratio": ["5", "1"]}]})
POINT3 = json.dumps([["1", "1"], ["1", "1"], ["1", "1"]])


@pytest.mark.parametrize("argv", [
    ["lm", "type", "--data-json"],
    ["lm", "from-data", "--data-json"],
    ["lm", "membership", "--point-json", POINT3, "--data-json"],
    ["rdata", "to-point", "--type", "A", "--rank", "2", "--data-json"],
], ids=["lm-type", "lm-from-data", "lm-membership", "rdata-to-point"])
def test_data_verbs_refuse_data_with_a_missing_pair_or_a_broken_triple(argv, capsys):
    """The verbs that read ratio data validate it first: a missing pair is
    named by its root, and violated triples are a domain error of their own,
    not a failed self-check, a generic error or an answer."""
    out = run_json(argv + [A2_MISSING], capsys, expect_code=1)
    assert out == {"error": "MissingPair", "detail": "no ratio for the pair of (1, 0, -1)"}
    out = run_json(argv + [A2_VIOLATED], capsys, expect_code=1)
    assert out == {"error": "ViolatedTriples", "detail": "6 violated triple identities"}


@pytest.mark.parametrize("argv", [
    ["lm", "type", "--data-json"],
    ["lm", "from-data", "--data-json"],
    ["lm", "membership", "--point-json", POINT3, "--data-json"],
], ids=["lm-type", "lm-from-data", "lm-membership"])
def test_data_verbs_refuse_too_few_pairs_before_building_a_n(argv, capsys, monkeypatch):
    """The rank is read from the first root, and data with fewer than
    n(n+1)/2 pairs are refused before A_n is built: one pair with a root of
    121 entries names the first missing root of A_120 at once."""
    from weylfan import chains, roots

    def refuse(spec):
        raise AssertionError(f"A_n was built for {spec}")

    monkeypatch.setattr(roots, "build_root_system", refuse)
    chains._an_system.cache_clear()  # a cached A_2 would hide a late check
    out = run_json(argv + [A2_MISSING], capsys, expect_code=1)
    assert out == {"error": "MissingPair", "detail": "no ratio for the pair of (1, 0, -1)"}
    one = json.dumps({"pairs": [{"positive_root": [1] + [0] * 119 + [-1], "ratio": ["1", "1"]}]})
    out = run_json(argv + [one], capsys, expect_code=1)
    assert out == {"error": "MissingPair",
                   "detail": f"no ratio for the pair of {(0,) * 119 + (1, -1)}"}


ONE_MARK = json.dumps({"n": 0, "blocks": [[1]], "coords": [{"i": 1, "pos": ["1", "1"]}]})


@pytest.mark.parametrize("argv", [
    ["lm", "extract", "--chain-json", ONE_MARK],
    ["lm", "roundtrip", "--n", "0", "--samples", "3"],
], ids=["extract", "roundtrip"])
def test_a_one_mark_chain_has_no_ratio_data(argv, capsys):
    """``lm contract --keep 1`` prints a valid chain of one mark; the verbs
    that would read its ratio data refuse it in terms of marks, not of A_0."""
    assert run_json(["lm", "contract", "--chain-json", CHAIN, "--keep", "1"], capsys) == \
        json.loads(ONE_MARK)
    out = run_json(argv, capsys, expect_code=1)
    assert out == {"error": "InvalidInput", "detail": "ratio data need at least two marks"}


@pytest.mark.parametrize("verb", ["universal", "roundtrip"])
def test_a_chain_with_no_mark_is_refused_in_terms_of_marks(verb, capsys, monkeypatch):
    """n = -1 would be a chain with no mark; both lm verbs that read --n
    refuse it with one text, before any root system (here A_0) is built."""
    from weylfan import roots

    def refuse(spec):
        raise AssertionError(f"a root system was built for {spec}")

    monkeypatch.setattr(roots, "build_root_system", refuse)
    out = run_json(["lm", verb, "--n", "-1"], capsys, expect_code=1)
    assert out == {"error": "InvalidInput", "detail": "a chain needs n >= 0, got n = -1"}
