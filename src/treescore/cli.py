"""Command-line front-end: graph I/O, sampling, enumeration, chains, reports.

Exit codes: 0 on success, 1 on input or usage errors (a single-line JSON
object ``{"error": ...}`` is written to stderr), 2 when a verification
report contains violations, so CI pipelines can gate on the result.

Exact values are emitted as decimal strings or ``num/den`` strings, never
as floats: JSON numbers lose precision above 2**53 and these outputs are
meant to be reproducible bit for bit. Stochastic subcommands require an
explicit ``--seed`` for the same reason. Values that are floats to begin
with, such as the sampler's above its exact threshold, stay JSON numbers.
A tree count is always exact: a graph whose count would exceed the
elimination work limit is refused with exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import (
    CLAIMS,
    LambdaParams,
    verify_exponential_gap,
    verify_pair_dominance,
    verify_score_ratios,
)
from .counterexample import (
    floor_pow_4_3,
    unbounded_degree_log_bounds,
    unbounded_degree_resistances,
    unbounded_face_scores,
)
from .graphs import (
    check_bounded,
    graph_to_json_str,
    load_graph,
    make_grid,
)
from .partition import load_partition, spanning_tree_distribution
from .pebbles import verify_run_products
from .recom import ChainConfig, run_chain
from .sampler import _num, sample_tree_resistance, sample_tree_wilson, trace_to_jsonl
from .spectral import count_spanning_trees, effective_resistance, enumerate_spanning_trees

DEFAULT_ENUM_CAP = 100_000
COUNTEREXAMPLE_FAMILIES = ("3.3", "3.4")


class UsageError(ValueError):
    """Bad flags or arguments; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that raises instead of calling sys.exit(2).

    The exit-code contract reserves 2 for verification failures, so usage
    errors must become exceptions that the dispatcher maps to exit 1.
    """

    def error(self, message):  # noqa: D401 - argparse override
        raise UsageError(message)


def _emit(text: str, output: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(payload: dict, output: str | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True), output)


def _report_exit(report) -> int:
    return 2 if report.violations else 0


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the process exit code)
# ---------------------------------------------------------------------------


def _cmd_make_grid(args) -> int:
    g = make_grid(args.width, args.height)
    _emit(graph_to_json_str(g), args.output)
    return 0


def _cmd_count_trees(args) -> int:
    g = load_graph(args.graph)  # refuses an empty or disconnected graph
    tc = count_spanning_trees(g)
    _emit_json({"spanning_trees": str(tc.value), "exact": tc.exact}, args.output)
    return 0


def _cmd_resistance(args) -> int:
    g = load_graph(args.graph)
    if args.edge not in g.edges_dict():
        raise UsageError(f"edge {args.edge} is not in the graph")
    res = effective_resistance(g, args.edge)
    payload = {
        "edge": res.edge,
        "approx": res.approx,
        "resistance": _num(res.exact),
    }
    _emit_json(payload, args.output)
    return 0


def _cmd_sample_tree(args) -> int:
    g = load_graph(args.graph)
    if args.sampler == "wilson":
        if args.trace:
            raise UsageError("--trace records resistance-sampler runs only")
        tree = sample_tree_wilson(g, seed=args.seed)
        payload = {
            "sampler": "wilson",
            "seed": args.seed,
            "tree": sorted(tree),
        }
    else:
        trace = sample_tree_resistance(g, seed=args.seed)
        payload = {
            "sampler": "alg1",
            "seed": args.seed,
            "tree": sorted(trace.tree),
            "steps": len(trace.steps),
            "complete": trace.complete,
            "probability-product": _num(trace.p_product()),
        }
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write(trace_to_jsonl(trace))
    _emit_json(payload, args.output)
    return 0


def _cmd_enumerate(args) -> int:
    g = load_graph(args.graph)
    cap = DEFAULT_ENUM_CAP if args.limit is None else args.limit
    tc = count_spanning_trees(g)
    if tc.value > cap:
        raise UsageError(
            f"graph has {tc.value} spanning trees, above the enumeration cap {cap}"
        )
    trees = enumerate_spanning_trees(g)
    payload = {
        "spanning_trees": str(len(trees)),
        "trees": sorted(sorted(t) for t in trees),
    }
    _emit_json(payload, args.output)
    return 0


def _cmd_distribution(args) -> int:
    g = load_graph(args.graph)
    table = spanning_tree_distribution(g, args.m, max_vertices=args.max_vertices)
    if args.format == "csv":
        _emit(table.to_csv(), args.output)
        return 0
    payload = {
        "m": table.m,
        "graph-trees": str(table.graph_trees),
        "total-score": str(table.total_score),
        "beta": _num(table.beta),
        "entries": [
            {
                "partition-hash": ent.digest,
                "cut-edges": ent.cut_size,
                "score": str(ent.score),
                "probability": _num(ent.probability),
            }
            for ent in sorted(table.entries, key=lambda x: x.digest)
        ],
    }
    _emit_json(payload, args.output)
    return 0


def _cmd_recom(args) -> int:
    g = load_graph(args.graph)
    p0 = load_partition(args.partition)
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            cfg = ChainConfig.from_json_str(fh.read())
    else:
        if args.steps is None or args.seed is None:
            raise UsageError("recom needs --config or both --steps and --seed")
        cfg = ChainConfig(
            steps=args.steps,
            seed=args.seed,
            balance_tolerance=args.balance_tolerance,
            max_resample=args.max_resample,
        )
    stats = run_chain(g, p0, cfg)
    if args.histogram:
        with open(args.histogram, "w", encoding="utf-8") as fh:
            json.dump(stats.histogram_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.format == "json":
        _emit_json(stats.to_json(), args.output)
    else:
        _emit(stats.to_csv(), args.output)
    return 0


def _cmd_verify(args) -> int:
    g = load_graph(args.graph)
    if args.claim == "lemma32":
        if args.seed is None:
            raise UsageError("verify --claim lemma32 is stochastic: --seed is required")
        report = verify_run_products(
            g, args.k1, args.k2, runs=args.runs, mode=args.mode, seed=args.seed
        )
    else:
        if args.m is None:
            raise UsageError(f"verify --claim {args.claim} requires --m")
        if args.claim == "eq4":
            report = verify_score_ratios(
                g, args.m, args.k1, args.k2, max_vertices=args.max_vertices
            )
        elif args.claim == "theorem31":
            report = verify_pair_dominance(
                g,
                args.m,
                args.k1,
                args.k2,
                alpha=args.alpha,
                epsilon=args.epsilon,
                max_vertices=args.max_vertices,
            )
        else:
            report = verify_exponential_gap(
                g, args.m, args.k1, args.k2, max_vertices=args.max_vertices
            )
    _emit_json(report.to_json(), args.output)
    return _report_exit(report)


def _cmd_lambda(args) -> int:
    params = LambdaParams.compute(args.k1, args.k2, alpha=args.alpha, epsilon=args.epsilon)
    _emit_json(params.to_json(), args.output)
    return 0


def _cmd_counterexample(args) -> int:
    if args.theorem == "3.3":
        scores = unbounded_face_scores(args.n)
        _emit_json(scores.to_json(), args.output)
        return 0 if scores.ratio_bound_ok else 2
    i_max = args.i_max
    if i_max is None:
        i_max = min(2 * floor_pow_4_3(args.n), 100_000)
    chain = unbounded_degree_resistances(args.n, i_max)
    payload = {
        "resistances": chain.to_json(),
        "log-bounds": unbounded_degree_log_bounds(args.n).to_json(),
    }
    _emit_json(payload, args.output)
    return 0 if chain.holds else 2


def _cmd_check_bounded(args) -> int:
    g = load_graph(args.graph)
    cert = check_bounded(g, args.k1, args.k2)
    _emit_json(cert.to_json(), args.output)
    return 0 if cert.holds else 2


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_graph(p: _Parser) -> None:
    p.add_argument("--graph", required=True, help="graph JSON file")


def _add_output(p: _Parser) -> None:
    p.add_argument("--output", help="write the result here instead of stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="treescore", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    p = sub.add_parser("make-grid", help="write a grid graph in canonical JSON")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    _add_output(p)
    p.set_defaults(func=_cmd_make_grid)

    p = sub.add_parser("count-trees", help="count spanning trees exactly")
    _add_graph(p)
    _add_output(p)
    p.set_defaults(func=_cmd_count_trees)

    p = sub.add_parser("resistance", help="effective resistance of one edge")
    _add_graph(p)
    p.add_argument("--edge", type=int, required=True)
    _add_output(p)
    p.set_defaults(func=_cmd_resistance)

    p = sub.add_parser("sample-tree", help="sample one spanning tree")
    _add_graph(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sampler", choices=("alg1", "wilson"), default="alg1")
    p.add_argument("--trace", help="write the per-step trace as JSONL here")
    _add_output(p)
    p.set_defaults(func=_cmd_sample_tree)

    p = sub.add_parser("enumerate", help="list all spanning trees (capped)")
    _add_graph(p)
    p.add_argument(
        "--limit",
        type=int,
        help=f"enumeration cap (default {DEFAULT_ENUM_CAP})",
    )
    _add_output(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "distribution", help="exact tree-score distribution over partitions"
    )
    _add_graph(p)
    p.add_argument("--m", type=int, required=True, help="number of districts")
    p.add_argument("--max-vertices", type=int, help="enumeration size guard")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_output(p)
    p.set_defaults(func=_cmd_distribution)

    p = sub.add_parser("recom", help="run a recombination chain")
    _add_graph(p)
    p.add_argument("--partition", required=True, help="starting partition JSON file")
    p.add_argument("--config", help="chain config JSON file")
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--balance-tolerance", type=int, default=0)
    p.add_argument("--max-resample", type=int, default=64)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--histogram", help="write the partition histogram JSON here")
    _add_output(p)
    p.set_defaults(func=_cmd_recom)

    p = sub.add_parser("verify", help="run a verification report")
    p.add_argument("--claim", choices=CLAIMS, required=True)
    _add_graph(p)
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--m", type=int, help="districts (claims over partitions)")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--runs", type=int, default=200)
    p.add_argument("--mode", choices=("deletion", "mixed"), default="mixed")
    p.add_argument("--seed", type=int, help="required for the sampled claim")
    p.add_argument("--max-vertices", type=int, help="enumeration size guard")
    _add_output(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("lambda", help="perimeter-ratio threshold")
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=1.0)
    _add_output(p)
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser(
        "counterexample", help="score and resistance families beyond bounded degree"
    )
    p.add_argument("--theorem", choices=COUNTEREXAMPLE_FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True, help="family size parameter")
    p.add_argument("--i-max", type=int, help="iteration cap for the resistance chain")
    _add_output(p)
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("check-bounded", help="degree-boundedness certificate")
    _add_graph(p)
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    _add_output(p)
    p.set_defaults(func=_cmd_check_bounded)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "subcommand", None) is None:
        raise UsageError("a subcommand is required (see --help)")
    return args.func(args)


def main(argv: list[str] | None = None) -> int:
    try:
        return dispatch(argv)
    except (ValueError, OSError) as exc:
        # ValueError covers every library error type (all are subclasses)
        # plus UsageError and json.JSONDecodeError.
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
