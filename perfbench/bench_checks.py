"""Output checks for benchmark ops, run outside the timed phase.

Each check reads an op's input and output files and returns ``None`` when
the output is right, or a one-line description of what is wrong. Tree
counts are checked by an independent route: the Laplacian-minor determinant
modulo a prime, computed here with numpy from the input file.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

# A prime below 2**31, so that every product of two residues fits in int64.
PRIME = 2_147_483_629


def det_mod(a: np.ndarray, p: int) -> int:
    """Determinant of an integer matrix modulo the prime p (Gaussian elimination)."""
    a = a.astype(np.int64) % p
    n = len(a)
    det = 1
    for k in range(n):
        nz = np.flatnonzero(a[k:, k])
        if nz.size == 0:
            return 0
        i = k + int(nz[0])
        if i != k:
            a[[k, i]] = a[[i, k]]
            det = -det
        pivot = int(a[k, k])
        det = det * pivot % p
        f = a[k + 1:, k] * pow(pivot, p - 2, p) % p
        sub = a[k + 1:, k + 1:]
        sub -= np.multiply.outer(f, a[k, k + 1:])
        sub %= p
    return det % p


def laplacian_minor(graph: dict) -> np.ndarray:
    """Laplacian of a graph JSON object without its first row and column."""
    verts = graph["vertices"]
    idx = {v: i for i, v in enumerate(verts)}
    lap = np.zeros((len(verts), len(verts)), dtype=np.int64)
    for rec in graph["edges"]:
        u, v = idx[rec["u"]], idx[rec["v"]]
        if u != v:
            lap[u, u] += 1
            lap[v, v] += 1
            lap[u, v] -= 1
            lap[v, u] -= 1
    return lap[1:, 1:]


def tree_count_problem(value: int, graph: dict) -> str | None:
    """Check a spanning-tree count against the Laplacian-minor determinant
    modulo PRIME; a wrong count passes with probability about 1 in 2e9."""
    if value % PRIME != det_mod(laplacian_minor(graph), PRIME):
        return f"{value} disagrees with the Laplacian-minor determinant modulo {PRIME}"
    return None


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def check_count(ts, op: dict, files: dict[str, Path]) -> str | None:
    out = _read_json(files["--output"])
    if out.get("exact") is not True:
        return "count is not exact"
    return tree_count_problem(int(out["spanning_trees"]), _read_json(files["--graph"]))


def _spans(graph: dict, tree: list[int]) -> bool:
    ends = {rec["id"]: (rec["u"], rec["v"]) for rec in graph["edges"]}
    parent = {v: v for v in graph["vertices"]}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in tree:
        if e not in ends:
            return False
        ru, rv = find(ends[e][0]), find(ends[e][1])
        if ru == rv:
            return False
        parent[ru] = rv
    return len(tree) == len(parent) - 1


def check_sample(ts, op: dict, files: dict[str, Path]) -> str | None:
    graph = _read_json(files["--graph"])
    out = _read_json(files["--output"])
    if out.get("sampler") != "alg1" or out.get("complete") is not True:
        return "run is not a complete alg1 run"
    if not _spans(graph, out["tree"]):
        return "tree does not span the graph"
    num, den = (int(x) for x in out["probability-product"].split("/"))
    if num != 1:
        return f"probability-product {num}/{den} is not 1/tau(G)"
    problem = tree_count_problem(den, graph)
    if problem is not None:
        return f"probability-product is not 1/tau(G): {problem}"
    lines = files["--trace"].read_text(encoding="utf-8").splitlines()
    if len(lines) != out["steps"]:
        return f"trace has {len(lines)} lines for {out['steps']} steps"
    prod = Fraction(1)
    for line in lines:
        prod *= Fraction(json.loads(line)["p"])
    if prod != Fraction(num, den):
        return "trace probabilities do not multiply to the certificate"
    return None


def check_recom(ts, op: dict, files: dict[str, Path]) -> str | None:
    out = _read_json(files["--output"])
    steps = op["steps"]
    if out["steps"] != steps or len(out["samples"]) != steps + 1:
        return f"expected {steps} steps and {steps + 1} samples"
    if sum(out["histogram"].values()) != steps + 1:
        return "histogram does not total steps + 1"
    g = ts.load_graph(files["--graph"])
    p = ts.partition_from_json({"m": out["m"], "assignment": out["final-partition"]})
    check = ts.validate_partition(g, p)
    if not check.valid:
        return f"final partition is invalid: {check.problems[0]}"
    return None


def check_report(ts, op: dict, files: dict[str, Path]) -> str | None:
    out = _read_json(files["--output"])
    if out["violations"] or out["holds"] is not True:
        return f"report has {len(out['violations'])} violations"
    if out["instances-checked"] < 1:
        return "report checked no instances"
    return None


def check_distribution(ts, op: dict, files: dict[str, Path]) -> str | None:
    with files["--output"].open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return "distribution has no rows"
    total = sum(
        Fraction(int(r["probability-numerator"]), int(r["probability-denominator"]))
        for r in rows
    )
    if total != 1:
        return f"probabilities sum to {total}, not 1"
    return None


CHECKS = {
    "count": check_count,
    "sample": check_sample,
    "recom": check_recom,
    "report": check_report,
    "distribution": check_distribution,
}
