"""The CLI's argparse output, byte for byte: the help of the program and of
every subcommand, and the usage errors of bad argument vectors.  And the
exit of drawn argument vectors: a result or a one-line error, never an
escaping exception.

`golden_usage.json` holds what `record_usage` wrote; rewrite it, with
`PYTHONPATH=src python3 scripts/record_goldens.py`, only for an intended
change of the command line.
"""

import contextlib
import io
import json
import os
import pathlib
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from optiform import cli, oracle
from tests.conftest import FIXTURES

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_usage.json"

SUBCOMMANDS = (
    "scsp-solve", "scsp-join", "cpnet-optimal", "cpnet-sweep", "cpnet-eligible",
    "cpnet-opt-constraints", "cpnet-reduce", "cpnet-eliminate", "cpnet-dominates",
    "game-nash", "game-pareto", "game-eliminate", "game-hierarchical", "to-game",
    "to-cpnet", "map-local", "map-global", "map-to-scsp", "regret-constraints",
    "pareto-nash", "tech-game", "well-structured", "check",
)

#: Argument vectors that argparse rejects before any file is read, so the
#: document names need not exist.
BAD_ARGV = (
    ["nope"],
    ["nope", "F.json"],
    ["--mode", "nbr"],
    ["tech-game", "F.json"],
    ["cpnet-dominates", "F.json"],
    ["cpnet-dominates", "F.json", "--worse", "a,b"],
    ["scsp-join", "F.json"],
    ["cpnet-optimal"],
    ["cpnet-optimal", "F.json", "extra"],
    ["cpnet-optimal", "F.json", "--mode", "nbr"],
    ["cpnet-eliminate", "F.json", "--mode", "x"],
    ["game-eliminate", "F.json", "--mode"],
    ["check"],
    ["check", "--theorem", "nope"],
    ["tech-game", "F.json", "--k", "two"],
    ["cpnet-dominates", "F.json", "--better", "a", "--worse", "b", "--budget", "x"],
)


def usage_cases():
    """(key, argv) pairs: no arguments, the help flags, every subcommand's
    help and each vector of BAD_ARGV."""
    argvs = [[], ["-h"], ["--help"]] + [[name, "--help"] for name in SUBCOMMANDS]
    argvs += BAD_ARGV
    return [(" ".join(argv) or "(no arguments)", argv) for argv in argvs]


def run(argv):
    """stdout, stderr and exit code of `cli.main(argv)` at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80", "LINES": "24"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record_usage():
    return {key: run(argv) for key, argv in usage_cases()}


def test_usage_cases_cover_every_subcommand():
    assert SUBCOMMANDS == tuple(cli.COMMANDS)


def test_usage_outputs():
    expected = json.loads(GOLDEN.read_text())
    got = record_usage()
    assert sorted(got) == sorted(expected)
    for key in expected:
        assert got[key] == expected[key], key


#: The subcommands that read each kind of fixture, and the options of those
#: that have any besides -h.
READERS = {
    "scsp": ("scsp-solve", "scsp-join", "map-local", "map-global"),
    "cpnet": ("cpnet-optimal", "cpnet-sweep", "cpnet-eligible", "cpnet-opt-constraints",
              "cpnet-reduce", "cpnet-eliminate", "cpnet-dominates", "to-game"),
    "ppgame": ("game-nash", "game-eliminate", "game-hierarchical", "to-cpnet"),
    "payoffgame": ("game-nash", "game-pareto", "map-to-scsp", "regret-constraints",
                   "pareto-nash"),
    "graph": ("tech-game", "well-structured"),
}
OPTIONS = {
    "cpnet-eliminate": ("--mode",), "game-eliminate": ("--mode",),
    "cpnet-dominates": ("--better", "--worse", "--budget"),
    "map-to-scsp": ("--offset",), "pareto-nash": ("--offset",), "tech-game": ("--k",),
}

_junk = st.one_of(
    st.sampled_from(["nbr", "s", "two", "a,b,c,d", "a,a~,b,c", "N1,N2", "1/2", "inf",
                     "1e9999", "-0", "7", "1..2", "pareto_nash", "--"]),
    st.integers(min_value=-2, max_value=12).map(str),
    st.text(alphabet="abx-,/~", max_size=4),
)


def _reading(name):
    """`name` on a fixture it reads, then up to three of its options (or
    of options it lacks, if it has none) with drawn values."""
    paths = [str(p) for kind, names in READERS.items() if name in names
             for p in sorted(FIXTURES.glob("*.%s.json" % kind))]
    flags = st.sampled_from(OPTIONS.get(name, ("--nope", "--k", "-h")))
    return st.builds(lambda path, pairs: [name, path] + [a for pair in pairs for a in pair],
                     st.sampled_from(paths), st.lists(st.tuples(flags, _junk), max_size=3))


_readings = st.sampled_from(sorted({n for names in READERS.values() for n in names})).flatmap(
    _reading)
_any_argv = st.builds(
    lambda name, rest: [name] + rest,
    st.sampled_from(SUBCOMMANDS + ("nope", "-h", "")),
    st.lists(st.one_of(
        st.sampled_from([str(FIXTURES / "missing.json"), str(FIXTURES), ""]),
        st.sampled_from(sorted({f for fs in OPTIONS.values() for f in fs})), _junk), max_size=5),
)
_check_argv = st.builds(
    lambda theorem, first, count: ["check", "--theorem", theorem,
                                   "--seeds", "%d..%d" % (first, first + count - 1)],
    st.sampled_from(sorted(oracle.THEOREMS)), st.integers(min_value=0, max_value=500),
    st.integers(min_value=1, max_value=3),
)


@settings(max_examples=200, deadline=None)
# an offset that is no rational, or whose exponent is too large to expand
@example(["pareto-nash", str(FIXTURES / "pd.payoffgame.json"), "--offset", "x"])
@example(["map-to-scsp", str(FIXTURES / "pd.payoffgame.json"), "--offset", "1e999999999"])
@given(st.one_of(_readings, _any_argv, _check_argv))
def test_drawn_argument_vectors_exit_cleanly(argv):
    """A result (0, or 1 for a failed check), an invalid input (2) or an
    exhausted bound (3); argparse exits 0 after help and 2 on a usage
    error.  Any other exception fails the test."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2), argv
        else:
            assert code in (0, 1, 2, 3), argv
