"""Mutated input files through every file-reading CLI command.

Each example takes a valid graph, partition and chain config, applies up to
three mutations to the JSON of one of them (a value swapped for one of
another type, a key or element deleted, a list element duplicated, one
value copied over another: duplicated edges, corrupted rotations) and runs
every command that reads that file in process through ``cli.main``.
Whatever the input, each command exits 0, or 1 with exactly one JSON error
line on stderr and nothing on stdout, or 2 from a report command. An
exception escaping ``main`` fails the test.
"""

import contextlib
import copy
import io
import json
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treescore import graph_to_json_str, make_grid
from treescore.cli import main
from treescore.fixtures import _add_loop, _add_parallel

BASES = {
    "graph": [
        json.loads(graph_to_json_str(make_grid(4, 2))),
        json.loads(graph_to_json_str(_add_loop(_add_parallel(make_grid(4, 4), 5), 6, 1))),
    ],
    "partition": [
        {"m": 2, "assignment": {str(v): v % 4 // 2 for v in range(8)}},
        {"m": 2, "assignment": {str(v): v // 8 for v in range(16)}},
    ],
    "config": [{"steps": 3, "seed": 1}, {"steps": 2, "seed": 0, "balance-tolerance": 1}],
}
SWAPS = [None, True, 0, -1, 1.5, "0", "x", [], {}, [0, 0], 2**70]
REPORTS = {"verify", "check-bounded"}
COMMAND_SECONDS = 10  # each command takes milliseconds; a hang fails the test instead


@contextlib.contextmanager
def time_limit(argv):
    """Fail the test when ``argv`` runs past ``COMMAND_SECONDS``.

    ``pytest.fail`` raises an exception that ``main`` does not catch, so the
    command cannot report the interruption as an input error.
    """

    def expire(signum, frame):
        pytest.fail(f"{argv} ran past {COMMAND_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, COMMAND_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _paths(node, path=()):
    """Every path to a value below the root of a JSON tree."""
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent, key = _at(doc, path[:-1]), path[-1]
        kind = draw(st.sampled_from(["swap", "delete", "duplicate", "copy"]))
        if kind == "swap":
            parent[key] = copy.deepcopy(draw(st.sampled_from(SWAPS)))
        elif kind == "delete":
            del parent[key]
        elif kind == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:  # "copy", and "duplicate" of an object member
            parent[key] = copy.deepcopy(_at(doc, draw(st.sampled_from(paths))))
    return doc


def _commands(draw, files):
    """One command line per subcommand that reads an input file, arguments drawn."""
    graph = ["--graph", files["graph"]]
    seed = ["--seed", str(draw(st.integers(0, 3)))]
    m = ["--m", str(draw(st.one_of(st.just(2), st.sampled_from([4, 0, -1, 17, 10**9]))))]
    k = ["--k1", str(draw(st.sampled_from([4, 3, 0]))), "--k2", "4"]
    sampler = draw(st.sampled_from(["alg1", "wilson"]))
    trace = ["--trace", files["trace"]] if sampler == "alg1" and draw(st.booleans()) else []
    claim = draw(st.sampled_from(["eq4", "theorem31", "corollary", "lemma32"]))
    claim_args = ["--runs", "2", *seed] if claim == "lemma32" else m
    recom = ["recom", *graph, "--partition", files["partition"]]
    return [
        ["count-trees", *graph],
        ["resistance", *graph, "--edge", str(draw(st.integers(-1, 30)))],
        ["sample-tree", *graph, *seed, "--sampler", sampler, *trace],
        ["distribution", *graph, *m, "--format", draw(st.sampled_from(["json", "csv"]))],
        [*recom, "--steps", "3", *seed],
        [*recom, "--config", files["config"]],
        ["verify", "--claim", claim, *graph, *k, *claim_args],
        ["check-bounded", *graph, *k],
    ]


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(data=st.data())
@settings(max_examples=100, deadline=1000)
def test_mutated_inputs_exit_cleanly(folder, data):
    files = {kind: str(folder / f"{kind}.json") for kind in BASES}
    files["trace"] = str(folder / "trace.jsonl")
    target = data.draw(st.sampled_from(sorted(BASES)), label="mutated file")
    for kind, bases in BASES.items():
        doc = data.draw(st.sampled_from(bases), label=kind)
        if kind == target:
            doc = data.draw(mutated(doc), label="mutated")
        with open(files[kind], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    for argv in _commands(data.draw, files):
        if files[target] not in argv:
            continue
        out, err = io.StringIO(), io.StringIO()
        with time_limit(argv), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 1:
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}
        else:
            assert code == 0 or (code == 2 and argv[0] in REPORTS), (code, argv)
