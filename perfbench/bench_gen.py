"""Seeded benchmark inputs, built only through treescore's public API.

Every input is a file: graph JSON, partition JSON, plus a manifest listing
the ops and the argument vectors that drive the ``treescore`` CLI over them.
The same ``(workload, seed)`` gives byte-identical files, and no two ops of a
run share an input (graphs differ, or at least their vertex labels or seeds).

Run as a script, this module is one set-up repetition of the benchmark: it
imports treescore, writes the first rounds of inputs and prints the elapsed
time as JSON, so that import-time work is measured in a fresh process, with
the calibration kernel's time (bench_clock.py) for the same process.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import bench_clock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("count", "sample", "recom", "verify")

# Ops per round. Each round runs every class once, in order of cost, so the
# latency mix of a run does not depend on the seed: with five classes the
# median sits inside the third class and the 90th percentile inside the fifth.
OPS_PER_ROUND = 5
COUNT_SHAPES = ((8, 8), (9, 10), (11, 11), (12, 12), (13, 13))
SAMPLE_SHAPES = ((6, 6), (6, 7), (7, 7), (7, 8), (8, 8))
RECOM_GRID = (16, 16)
RECOM_DISTRICTS = 4
RECOM_SEGMENT_STEPS = 10
VERIFY_K = 4

# Rounds written during set-up; the harness writes more between timed ops
# when a run outlasts them.
SETUP_ROUNDS = 12
# Calibration kernel runs after set-up; their median scales the set-up time.
KERNEL_RUNS = 5


def import_treescore():
    """Import treescore from this checkout's ``src``; refuse any other copy."""
    if not (SRC / "treescore" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no treescore sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import treescore

    if Path(treescore.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: imported treescore from {treescore.__file__}")
    return treescore


# --- graph edits on the public API -----------------------------------------


def _delete_non_bridges(ts, g, rng: random.Random, k: int):
    for _ in range(k):
        bridges = ts.sampler.find_bridges(g.edges_dict(), g.vertices)
        cand = [e for e in g.edge_ids if e not in bridges and not g.is_loop(e)]
        g = g.delete_edge(rng.choice(cand))
    return g


def _add_parallel(obj: dict, rng: random.Random, k: int) -> None:
    """Duplicate k random edges; each copy hugs its original, so the embedding stays planar."""
    rot = obj["rotation"]
    for _ in range(k):
        rec = rng.choice([r for r in obj["edges"] if r["u"] != r["v"]])
        new = max(r["id"] for r in obj["edges"]) + 1
        obj["edges"].append({"id": new, "u": rec["u"], "v": rec["v"]})
        ru, rv = rot[str(rec["u"])], rot[str(rec["v"])]
        ru.insert(ru.index([rec["id"], 0]) + 1, [new, 0])
        rv.insert(rv.index([rec["id"], 1]), [new, 1])


def _add_loops(obj: dict, rng: random.Random, k: int) -> None:
    """Attach k empty self-loops between two consecutive darts of random vertices."""
    rot = obj["rotation"]
    for _ in range(k):
        v = rng.choice(obj["vertices"])
        new = max(r["id"] for r in obj["edges"]) + 1
        obj["edges"].append({"id": new, "u": v, "v": v})
        darts = rot[str(v)]
        pos = rng.randrange(len(darts) + 1)
        darts[pos:pos] = [[new, 0], [new, 1]]


def _relabel(obj: dict, rng: random.Random, order: str) -> tuple[dict, dict]:
    """New vertex and edge ids: ``order`` "keep" draws increasing vertex ids, "shuffle" any.

    Returns the relabelled graph object and the vertex map.
    """
    verts = obj["vertices"]
    ids = sorted(rng.sample(range(4 * len(verts)), len(verts)))
    if order == "shuffle":
        rng.shuffle(ids)
    vmap = dict(zip(verts, ids))
    eids = [r["id"] for r in obj["edges"]]
    emap = dict(zip(eids, rng.sample(range(2 * len(eids)), len(eids))))
    out = {
        "vertices": sorted(ids),
        "edges": [
            {"id": emap[r["id"]], "u": vmap[r["u"]], "v": vmap[r["v"]]} for r in obj["edges"]
        ],
        "rotation": {
            str(vmap[int(v)]): [[emap[e], s] for e, s in darts]
            for v, darts in obj["rotation"].items()
        },
    }
    return out, vmap


def _write_graph(ts, obj: dict, path: Path) -> None:
    """Validate through graph_from_json and write the canonical JSON form."""
    path.write_text(ts.graph_to_json_str(ts.graph_from_json(obj)), encoding="utf-8")


def _grid_variant(ts, w: int, h: int, variant: int, rng: random.Random) -> dict:
    """Grid inputs of the count and sample workloads.

    Variants: 0 row-major ids, 1 shuffled ids, 2 non-bridge edges deleted,
    3 parallel edges added, 4 self-loops added, 5 parallel edges and
    self-loops. Every variant draws fresh ids, so no two inputs coincide.
    """
    g = ts.make_grid(w, h)
    n = w * h
    if variant == 2:
        g = _delete_non_bridges(ts, g, rng, max(1, n // 10))
    obj = ts.graph_to_json(g)
    if variant in (3, 5):
        _add_parallel(obj, rng, max(1, n // 10))
    if variant in (4, 5):
        _add_loops(obj, rng, max(1, n // 16))
    return _relabel(obj, rng, "shuffle" if variant == 1 else "keep")[0]


# --- workloads ---------------------------------------------------------------


def _op(name: str, kind: str, argv: list[str], **extra) -> dict:
    return {"name": name, "kind": kind, "argv": argv, **extra}


def _count_round(ts, seed: int, r: int, out: Path) -> list[dict]:
    ops = []
    for c, (w, h) in enumerate(COUNT_SHAPES):
        rng = random.Random(f"count/{seed}/{r}/{c}")
        name = f"r{r:04d}c{c}"
        # Shuffled ids make elimination 1.7x dearer, so the largest class always
        # has them: one homogeneous top class keeps the 90th percentile steady.
        obj = _grid_variant(ts, w, h, (r + c) % 4 if c < 4 else 1, rng)
        _write_graph(ts, obj, out / f"{name}.json")
        ops.append(
            _op(name, "count", ["count-trees", "--graph", f"{{in}}/{name}.json",
                                "--output", f"{{out}}/{name}.json"])
        )
    return ops


def _sample_round(ts, seed: int, r: int, out: Path) -> list[dict]:
    ops = []
    for c, (w, h) in enumerate(SAMPLE_SHAPES):
        rng = random.Random(f"sample/{seed}/{r}/{c}")
        name = f"r{r:04d}c{c}"
        obj = _grid_variant(ts, w, h, 1 + (r + c) % 5, rng)
        _write_graph(ts, obj, out / f"{name}.json")
        ops.append(
            _op(name, "sample", [
                "sample-tree", "--graph", f"{{in}}/{name}.json", "--sampler", "alg1",
                "--seed", str(rng.randrange(2**31)), "--trace", f"{{out}}/{name}.jsonl",
                "--output", f"{{out}}/{name}.json",
            ])
        )
    return ops


def _recom_round(ts, seed: int, r: int, out: Path) -> list[dict]:
    """One chain: a grid with shuffled ids, started from quadrants, run in segments.

    Each segment starts from the previous segment's final partition. Every
    round starts a fresh chain, so a run averages many chains' costs instead
    of depending on where one long chain wanders.
    """
    w, h = RECOM_GRID
    rng = random.Random(f"recom/{seed}/{r}")
    name = f"r{r:04d}"
    grid = ts.graph_to_json(ts.make_grid(w, h))
    obj, vmap = _relabel(grid, rng, "shuffle")
    _write_graph(ts, obj, out / f"{name}.json")
    quadrants = {new: 2 * (v // w * 2 // h) + v % w * 2 // w for v, new in vmap.items()}
    ts.save_partition(ts.Partition.from_dict(RECOM_DISTRICTS, quadrants), out / f"{name}.start.json")
    ops = []
    for c in range(OPS_PER_ROUND):
        seg = f"{name}c{c}"
        op = _op(seg, "recom", [
            "recom", "--graph", f"{{in}}/{name}.json", "--partition", f"{{out}}/{seg}.start.json",
            "--steps", str(RECOM_SEGMENT_STEPS), "--seed", str(rng.randrange(2**31)),
            "--format", "json", "--output", f"{{out}}/{seg}.json",
        ], steps=RECOM_SEGMENT_STEPS)
        if c == 0:
            op["start"] = f"{name}.start.json"
        ops.append(op)
    return ops


def _verify_round(ts, seed: int, r: int, out: Path) -> list[dict]:
    k = ["--k1", str(VERIFY_K), "--k2", str(VERIFY_K)]
    specs = [
        ((4, 4), ["verify", "--claim", "lemma32", "--mode", "deletion", "--runs", "6", *k], "report"),
        ((4, 5), ["verify", "--claim", "lemma32", "--mode", "mixed", "--runs", "4", *k], "report"),
        ((4, 4), ["distribution", "--m", "2", "--format", "csv"], "distribution"),
        ((4, 4), ["verify", "--claim", "eq4", "--m", "2", *k], "report"),
        ((4, 4), ["verify", "--claim", "eq4", "--m", "4", *k], "report"),
    ]
    ops = []
    for c, ((w, h), cmd, kind) in enumerate(specs):
        rng = random.Random(f"verify/{seed}/{r}/{c}")
        name = f"r{r:04d}c{c}"
        obj, _ = _relabel(ts.graph_to_json(ts.make_grid(w, h)), rng, "shuffle")
        _write_graph(ts, obj, out / f"{name}.json")
        argv = [cmd[0], "--graph", f"{{in}}/{name}.json", *cmd[1:]]
        if "lemma32" in cmd:
            argv += ["--seed", str(rng.randrange(2**31))]
        ops.append(_op(name, kind, argv + ["--output", f"{{out}}/{name}.out"]))
    return ops


_ROUNDS = {
    "count": _count_round,
    "sample": _sample_round,
    "recom": _recom_round,
    "verify": _verify_round,
}


def make_rounds(ts, workload: str, seed: int, first: int, count: int, out: Path) -> list[dict]:
    """Write the inputs of rounds ``first .. first+count-1`` into ``out``; return their ops."""
    out.mkdir(parents=True, exist_ok=True)
    ops = []
    for r in range(first, first + count):
        ops.extend(_ROUNDS[workload](ts, seed, r, out))
    return ops


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    ts = import_treescore()
    ops = make_rounds(ts, args.workload, args.seed, 0, SETUP_ROUNDS, args.out)
    (args.out / "manifest.json").write_text(json.dumps(ops, indent=1) + "\n", encoding="utf-8")
    setup_s = time.perf_counter() - _T0
    kernel = statistics.median(bench_clock.kernel_ns() for _ in range(KERNEL_RUNS))
    print(json.dumps({"setup_s": setup_s, "kernel_ns": kernel}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
