"""scipy is a test dependency only: every runtime path works without it.

One subprocess hides scipy (``sys.modules["scipy"] = None`` makes any import
of it fail) and then runs CLI commands that cover exact counts, exact
resistances, exact and float alg1 samples and an eq4 report, plus every
demo script. Each must exit 0.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import treescore
from treescore import make_grid
from treescore.graphs import graph_to_json_str

SCRIPT = r"""
import contextlib, io, json, runpy, sys
sys.modules["scipy"] = None
from treescore import cli

commands, demos = json.loads(sys.argv[1])
failures = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = repr(exc)
    if code != 0:
        failures.append((argv, code))
for path in demos:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_path(path, run_name="__main__")
        except Exception as exc:
            failures.append((path, repr(exc)))
print(json.dumps(failures))
"""


def test_runtime_runs_without_scipy(tmp_path):
    graphs = {}
    for w in (4, 9):
        path = tmp_path / f"grid{w}.json"
        path.write_text(graph_to_json_str(make_grid(w, w)))
        graphs[w] = str(path)
    commands = [
        ["count-trees", "--graph", graphs[4]],
        ["resistance", "--graph", graphs[4], "--edge", "0"],
        ["resistance", "--graph", graphs[9], "--edge", "0"],
        ["sample-tree", "--graph", graphs[4], "--seed", "1", "--sampler", "alg1"],
        ["sample-tree", "--graph", graphs[9], "--seed", "1", "--sampler", "alg1"],
        ["verify", "--claim", "eq4", "--graph", graphs[4], "--k1", "4", "--k2", "4", "--m", "2"],
    ]
    root = Path(treescore.__file__).resolve().parents[2]
    demos = [str(p) for p in sorted((root / "demos").glob("*.py"))]
    assert len(demos) == 6
    src = str(Path(treescore.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps([commands, demos])],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
