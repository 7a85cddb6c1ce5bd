"""Command-line surface.

Exit codes: 0 for success / embedding found / clean harness; 2 when the
result is negative evidence (kernel witness, structural certificate, or an
unsuccessful embedding search); 1 for usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from raag import _kernel
from raag.embedding import (
    FullEmbedding,
    KernelWitness,
    StructuralCertificate,
    extract_full,
    parse_hom,
    validate_hom,
)
from raag.extension import ball_as_graph, ext_ball
from raag.graphs import (
    Graph,
    complement,
    format_graph,
    full_embedding_search,
    graph_to_dot,
    join_decompose,
    parse_graph,
    recognize_linear_forest_complement,
)
from raag.harness import HarnessConfig, run_harness
from raag.words import (
    canonical_form,
    commutes,
    is_trivial,
    parse_word,
    reduce,
    support,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _emit(pairs):
    for key, value in pairs:
        print(f"{key}: {value}")


# -- subcommand handlers -----------------------------------------------------------


def _cmd_word(args) -> int:
    g = _load_graph(args.graph)
    w = parse_word(g, args.word)
    if args.cmd == "reduce":
        _emit([("reduced", str(reduce(w)))])
    elif args.cmd == "canon":
        _emit([("canonical", str(canonical_form(w)))])
    elif args.cmd == "triv":
        _emit([("trivial", _bool(is_trivial(w)))])
    else:  # support
        supp = support(w)
        ordered = " ".join(v for v in g.vertices if v in supp)
        _emit([("support", ordered)])
    return 0


def _cmd_commute(args) -> int:
    g = _load_graph(args.graph)
    w1 = parse_word(g, args.word1)
    w2 = parse_word(g, args.word2)
    _emit([("commute", _bool(commutes(w1, w2)))])
    return 0


def _cmd_complement(args) -> int:
    g = _load_graph(args.graph)
    c = complement(g)
    print(graph_to_dot(c) if args.format == "dot" else format_graph(c), end="")
    return 0


def _cmd_decompose(args) -> int:
    g = _load_graph(args.graph)
    decomp = join_decompose(g)
    pairs = [("components", len(decomp.components))]
    for i, comp in enumerate(decomp.components, 1):
        pairs.append((f"component{i}", " ".join(comp.graph.vertices)))
        pairs.append((f"kind{i}", comp.kind))
        if comp.order is not None:
            pairs.append((f"labeling{i}", " ".join(comp.order)))
    _emit(pairs)
    return 0


def _cmd_recognize(args) -> int:
    g = _load_graph(args.graph)
    orders = recognize_linear_forest_complement(g)
    pairs = [("linear_forest_complement", _bool(orders is not None))]
    if orders is not None:
        for i, order in enumerate(orders, 1):
            pairs.append((f"labeling{i}", " ".join(order)))
    _emit(pairs)
    return 0


def _cmd_embed_search(args) -> int:
    lam = _load_graph(args.graph)
    gamma = _load_graph(args.target)
    restrict = None
    if args.restrict is not None:
        # an empty --restrict is the empty subset, not the absence of one
        restrict = args.restrict.split(",") if args.restrict else []
    found = full_embedding_search(lam, gamma, restrict)
    _emit([("found", _bool(found is not None))])
    if found is None:
        return 2
    for v in lam.vertices:
        print(f"embed {v} -> {found[v]}")
    return 0


def _cmd_ext_ball(args) -> int:
    g = _load_graph(args.graph)
    ball = ext_ball(g, args.radius)
    bg = ball_as_graph(ball)
    print(graph_to_dot(bg) if args.format == "dot" else format_graph(bg), end="")
    return 0


def _cmd_check_hom(args) -> int:
    h = parse_hom(_read(args.hom), base_dir=os.path.dirname(os.path.abspath(args.hom)))
    report = validate_hom(h)
    pairs = [("homomorphism", _bool(report.is_homomorphism))]
    for u, v in report.relator_failures:
        pairs.append(("relator_failure", f"{u} {v}"))
    pairs.append(("clique_support", _bool(not report.clique_violations)))
    for v, supp_v in report.clique_violations:
        pairs.append(("clique_support_violation", f"{v} : " + " ".join(sorted(supp_v))))
    pairs.append(("supp", " ".join(report.supp)))
    for v in report.trivial_images:
        pairs.append(("trivial_image", v))
    _emit(pairs)
    return 0


def _cmd_extract(args) -> int:
    h = parse_hom(_read(args.hom), base_dir=os.path.dirname(os.path.abspath(args.hom)))
    outcome = extract_full(h)
    if isinstance(outcome, FullEmbedding):
        if not args.json:
            print("full embedding found (image inside the homomorphism support):")
        _emit([("result", "embedding")])
        for v in h.source.vertices:
            print(f"embed {v} -> {outcome.mapping[v]}")
        _emit([("verified", _bool(outcome.check(h) is None))])
        return 0
    if isinstance(outcome, KernelWitness):
        if not args.json:
            print("non-injectivity witness (nontrivial source word with trivial image):")
        _emit([("result", "witness")])
        print(f"witness {outcome.word}")
        _emit([
            ("witness_nontrivial", _bool(not is_trivial(outcome.word))),
            ("witness_image_trivial", _bool(is_trivial(h.apply(outcome.word)))),
            ("component", " ".join(outcome.component or ())),
        ])
        return 2
    assert isinstance(outcome, StructuralCertificate)
    if not args.json:
        print("non-injectivity certificate for a 3-vertex anti-path component:")
    _emit([("result", "certificate")])
    print("certificate complement-of-supp-is-union-of-cliques")
    pairs = [
        ("component", " ".join(outcome.component)),
        ("supp", " ".join(outcome.supp)),
    ]
    for i, comp in enumerate(outcome.complement_components, 1):
        pairs.append((f"complement_component{i}", " ".join(comp)))
    pairs.append(("verified", _bool(outcome.check(h) is None)))
    _emit(pairs)
    return 2


def _cmd_verify(args) -> int:
    cfg = HarnessConfig(
        trials=args.trials,
        seed=args.seed,
        max_target_vertices=args.max_target,
        edge_density=args.density,
    )
    report = run_harness(cfg)
    print(report.format(), end="")
    return 0 if report.clean else 1


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# -- parser ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, and each handler looks its callees up in the module at call
    time."""
    parser = _Parser(prog="raag", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    for name, help_text in [
        ("reduce", "reduce a word"),
        ("canon", "canonical form of a word"),
        ("triv", "decide whether a word is trivial"),
        ("support", "support of a word"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--graph", required=True, help="ambient graph file")
        p.add_argument("word", help="word, e.g. 'a b^-1'; empty word is '1'")
        p.set_defaults(func=_cmd_word)

    p = sub.add_parser("commute", help="decide whether two words commute")
    p.add_argument("--graph", required=True)
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=_cmd_commute)

    p = sub.add_parser("complement", help="complement of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--format", choices=["plain", "dot"], default="plain")
    p.set_defaults(func=_cmd_complement)

    p = sub.add_parser("decompose", help="join decomposition of a graph")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("recognize", help="recognize a complement of a linear forest")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("embed-search", help="search a full embedding of --graph into --target")
    p.add_argument("--graph", required=True, help="source graph file")
    p.add_argument("--target", required=True, help="target graph file")
    p.add_argument("--restrict", help="comma-separated target vertices restricting the image")
    p.set_defaults(func=_cmd_embed_search)

    p = sub.add_parser("ext-ball", help="finite ball of the extension graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--format", choices=["plain", "dot"], default="plain")
    p.set_defaults(func=_cmd_ext_ball)

    p = sub.add_parser("check-hom", help="validate a homomorphism table")
    p.add_argument("--hom", required=True, help="homomorphism file")
    p.set_defaults(func=_cmd_check_hom)

    p = sub.add_parser("extract", help="extract an embedding or a non-injectivity certificate")
    p.add_argument("--hom", required=True)
    p.add_argument("--json", action="store_true", help="omit the prose header line")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("verify", help="seeded randomized verification harness")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--max-target", type=int, default=7)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("kernel", help="report which normalization kernel is active")
    p.set_defaults(func=lambda args: (_emit([("kernel", _kernel.kernel_name())]), 0)[1])

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
