"""Command-line interface.

::

    repro dataset --scale small --seed 7 --out data/small   # build & save
    repro info --dataset data/small                          # dataset stats
    repro query "best freestyle swimmer" --dataset data/small --top-k 5
    repro index --dataset data/small --out data/small.idx    # finder snapshot
    repro index --snapshot data/small.idx --compact --out data/small.opt
    repro inspect data/small.idx                             # snapshot as JSON
    repro serve-bench --dataset data/small --snapshot data/small.idx
    repro serve --snapshot data/small.idx --port 8080        # HTTP gateway
    repro experiments --only tab3,fig7 --scale tiny          # reproduce paper

Every subcommand also works without a saved dataset by generating one
on the fly (``--scale``/``--seed``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Callable, Sequence
from pathlib import Path

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.socialgraph.metamodel import Platform
from repro.synthetic.dataset import DatasetScale, EvaluationDataset, build_dataset

_PLATFORMS = {
    "all": None,
    "fb": Platform.FACEBOOK,
    "facebook": Platform.FACEBOOK,
    "tw": Platform.TWITTER,
    "twitter": Platform.TWITTER,
    "li": Platform.LINKEDIN,
    "linkedin": Platform.LINKEDIN,
}

_EXPERIMENTS = (
    "fig5", "fig6", "fig7", "tab2", "tab3", "tab4", "fig10", "fig11", "ablations",
)


def _positive_int(text: str) -> int:
    """argparse type of the count flags: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", help="directory of a saved dataset (repro dataset)")
    parser.add_argument(
        "--scale",
        choices=[s.value for s in DatasetScale],
        default="tiny",
        help="generate a dataset at this scale when --dataset is not given",
    )
    parser.add_argument("--seed", type=int, default=7, help="master seed")


def _load_dataset(args: argparse.Namespace) -> EvaluationDataset:
    if args.dataset:
        from repro.storage.dataset_io import load_dataset

        return load_dataset(args.dataset)
    return build_dataset(DatasetScale(args.scale), args.seed)


def _cmd_dataset(args: argparse.Namespace) -> int:
    from repro.storage.dataset_io import save_dataset

    t0 = time.time()
    dataset = build_dataset(DatasetScale(args.scale), args.seed)
    save_dataset(dataset, args.out)
    counts = dataset.merged_graph.counts()
    print(
        f"built scale={args.scale} seed={args.seed} in {time.time() - t0:.1f}s: "
        f"{counts['profiles']} profiles, {counts['resources']} resources, "
        f"{counts['containers']} containers → {args.out}"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    print(f"scale={dataset.scale.value} seed={dataset.seed}")
    print(f"candidates: {len(dataset.people)}")
    for platform, graph in dataset.graphs.items():
        counts = graph.counts()
        print(
            f"  {platform.value:<9} profiles={counts['profiles']:<6}"
            f" resources={counts['resources']:<7} containers={counts['containers']}"
        )
    overall = dataset.ground_truth.overall_stats()
    print(
        f"ground truth: avg {overall['avg_experts_per_domain']:.1f} experts/domain,"
        f" avg expertise {overall['avg_expertise']:.2f}"
    )
    return 0


def _load_snapshot(path: str, dataset: EvaluationDataset) -> ExpertFinder:
    from repro.storage.jsonl import StorageFormatError

    try:
        return ExpertFinder.load(path, dataset.analyzer)
    except (OSError, EOFError, StorageFormatError) as exc:
        raise SystemExit(f"error: cannot load snapshot {path}: {exc}") from exc


def _cmd_query(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    if args.snapshot:
        finder = _load_snapshot(args.snapshot, dataset)
    else:
        finder = _build_finder(dataset, args)
    try:
        experts = finder.find_experts(args.text, top_k=args.top_k)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    if not experts:
        print("no candidate shows matching expertise")
        return 1
    names = {p.person_id: p.name for p in dataset.people}
    print(f"{'rank':<5} {'candidate':<22} {'score':>10} {'#resources':>11}")
    for rank, expert in enumerate(experts, start=1):
        label = f"{expert.candidate_id} ({names.get(expert.candidate_id, '?')})"
        print(
            f"{rank:<5} {label:<22} {expert.score:>10.2f}"
            f" {expert.supporting_resources:>11}"
        )
    return 0


def _build_finder(
    dataset: EvaluationDataset, args: argparse.Namespace
) -> ExpertFinder:
    platform = _PLATFORMS[args.platform]
    config = FinderConfig(
        alpha=args.alpha, window=args.window, max_distance=args.distance
    )
    cold = getattr(args, "cold", False)
    url_content: Callable[[str], str] | None = None
    if cold:
        # re-analyze every node as the dataset's corpus analysis did,
        # URL text included; a saved dataset keeps no web pages, and
        # without them the cold build would index different text
        from repro.extraction.url_content import UrlContentExtractor

        web = dataset.networks.web
        if web is None:
            print(
                "error: --cold needs the dataset's web pages, which a saved "
                "dataset does not keep; use --scale instead of --dataset",
                file=sys.stderr,
            )
            raise SystemExit(2)
        url_content = UrlContentExtractor(web)
    return ExpertFinder.build(
        dataset.graph_for(platform),
        dataset.candidates_for(platform),
        dataset.analyzer,
        config,
        corpus=None if cold else dataset.corpus,
        url_content=url_content,
        seal_threshold=getattr(args, "seal_threshold", None),
    )


def _cmd_index(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    t0 = time.time()
    if args.snapshot:
        finder = _load_snapshot(args.snapshot, dataset)
        source = f"snapshot {args.snapshot}"
    else:
        finder = _build_finder(dataset, args)
        source = "cold build"
    if args.compact:
        segmented = finder.segmented_index
        before = segmented.stats
        segmented.compact(full=True)
        after = segmented.stats
        print(
            f"compacted {before.segments} segment(s) + "
            f"{before.buffered} buffered resource(s) → "
            f"{after.segments} segment(s)"
        )
    built = time.time()
    finder.save(args.out)
    saved = time.time()
    print(
        f"indexed {finder.indexed_resources} resources "
        f"({source}, {built - t0:.1f}s; save {saved - built:.1f}s) → {args.out}"
    )
    seg_stats = finder.index_stats
    print(
        f"segments: {seg_stats.segments} live "
        f"(docs per segment: {list(seg_stats.segment_docs)}), "
        f"{seg_stats.buffered} buffered, "
        f"{seg_stats.seals} seals, {seg_stats.compactions} compactions"
    )
    stats = finder.build_stats
    if stats is not None:
        print(f"build stages: {stats.render()}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.storage.jsonl import StorageFormatError
    from repro.storage.snapshot import inspect_snapshot

    try:
        report = inspect_snapshot(args.snapshot)
    except (OSError, StorageFormatError) as exc:
        raise SystemExit(
            f"error: cannot inspect snapshot {args.snapshot}: {exc}"
        ) from exc
    print(json.dumps(report, indent=2))
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.core.service import ExpertSearchService

    dataset = _load_dataset(args)
    t0 = time.time()
    if args.snapshot:
        finder = _load_snapshot(args.snapshot, dataset)
        source = f"snapshot {args.snapshot}"
    else:
        finder = _build_finder(dataset, args)
        source = "cold build"
    ready = time.time()
    service = ExpertSearchService(finder, cache_size=args.cache_size)
    queries = list(dataset.queries)
    started = time.time()
    try:
        for _ in range(args.rounds):
            service.find_experts_batch(queries, top_k=args.top_k)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    elapsed = time.time() - started
    stats = service.stats
    qps = stats.queries / elapsed if elapsed > 0 else float("inf")
    if args.json:
        # the same dict /v1/metrics serves under "service" — one
        # serialization helper (ServiceStats.to_dict) for both surfaces
        print(
            json.dumps(
                {
                    "source": source,
                    "elapsed_s": elapsed,
                    "qps": qps,
                    "service": stats.to_dict(),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(f"finder ready in {ready - t0:.1f}s ({source})")
    print(
        f"{stats.queries} queries in {elapsed:.2f}s — {qps:.0f} q/s, "
        f"hit rate {stats.hit_rate:.0%}, "
        f"p50 {stats.p50_latency * 1e3:.2f}ms, "
        f"p95 {stats.p95_latency * 1e3:.2f}ms"
    )
    print(
        f"segments: {stats.segments} live, {stats.buffered_docs} buffered, "
        f"{stats.compactions} compactions, "
        f"cache survivals {stats.cache_survivals} vs "
        f"clears {stats.invalidations}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core.service import ExpertSearchService
    from repro.serve import GatewayConfig, ServeApp, run_gateway
    from repro.serve.reload import build_service
    from repro.storage.snapshot import snapshot_generation

    cache_size = args.cache_size
    label = None
    if args.snapshot:
        # Hot-reloadable: every (re)load reads the snapshot directory's
        # CURRENT generation, so `repro index --out <same dir>` followed
        # by SIGHUP or POST /admin/reload serves the new build.
        snapshot_path = args.snapshot
        if args.dataset:
            analyzer = _load_dataset(args).analyzer
        else:
            from repro.synthetic.dataset import default_analyzer

            analyzer = default_analyzer()

        def source() -> ExpertSearchService:
            finder = ExpertFinder.load(snapshot_path, analyzer)
            return build_service(finder, cache_size=cache_size)

        def label() -> str | None:  # noqa: F811 (one branch wins)
            return snapshot_generation(snapshot_path)

        reloadable = True
    else:
        dataset = _load_dataset(args)

        def source() -> ExpertSearchService:
            finder = _build_finder(dataset, args)
            return build_service(finder, cache_size=cache_size)

        reloadable = False
    config = GatewayConfig(
        rate_limit=args.rate_limit if args.rate_limit > 0 else None,
        burst=args.burst,
        max_batch_needs=args.max_batch_needs,
    )
    app = ServeApp(source, label=label, config=config, reloadable=reloadable)
    try:
        asyncio.run(run_gateway(app, host=args.host, port=args.port))
    except KeyboardInterrupt:
        pass
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.evaluation.runner import ExperimentRunner
    from repro.experiments import (
        ablations,
        fig5_dataset,
        fig6_window,
        fig7_alpha,
        fig10_trust,
        fig11_delta,
        tab2_fig8_friends,
        tab3_fig9_networks,
        tab4_domains,
    )
    from repro.experiments.context import ExperimentContext

    drivers = {
        "fig5": fig5_dataset,
        "fig6": fig6_window,
        "fig7": fig7_alpha,
        "tab2": tab2_fig8_friends,
        "tab3": tab3_fig9_networks,
        "tab4": tab4_domains,
        "fig10": fig10_trust,
        "fig11": fig11_delta,
        "ablations": ablations,
    }
    selected = (
        [name.strip() for name in args.only.split(",")] if args.only else list(drivers)
    )
    unknown = [name for name in selected if name not in drivers]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(drivers)}", file=sys.stderr)
        return 2
    dataset = _load_dataset(args)
    context = ExperimentContext(dataset=dataset, runner=ExperimentRunner(dataset))
    for name in selected:
        t0 = time.time()
        result = drivers[name].run(context)
        print(f"\n=== {name} [{time.time() - t0:.1f}s] ===")
        print(result.render())
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import DEFAULT_EXCLUDE, ALL_CHECKERS, lint_paths

    paths = args.paths or [
        path for path in ("src", "tests", "benchmarks") if Path(path).exists()
    ]
    if not paths:
        print("lint: no paths given and no default paths exist", file=sys.stderr)
        return 2
    exclude = list(DEFAULT_EXCLUDE) + (args.exclude or [])
    cache_path = None if args.no_cache else args.cache
    try:
        report = lint_paths(paths, cache_path=cache_path, exclude=exclude)
    except FileNotFoundError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.render())
        rules = ", ".join(sorted({c.rule for c in ALL_CHECKERS}))
        print(
            f"checked {report.files_checked} files "
            f"({report.files_cached} cached): "
            f"{len(report.findings)} findings, "
            f"{report.suppressed} suppressed [{rules}]"
        )
    return 0 if report.is_clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Expert finding in social networks (EDBT 2013 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dataset = sub.add_parser("dataset", help="generate and save a dataset")
    p_dataset.add_argument(
        "--scale", choices=[s.value for s in DatasetScale], default="small"
    )
    p_dataset.add_argument("--seed", type=int, default=7)
    p_dataset.add_argument("--out", required=True, help="output directory")
    p_dataset.set_defaults(func=_cmd_dataset)

    p_info = sub.add_parser("info", help="show dataset statistics")
    _add_dataset_args(p_info)
    p_info.set_defaults(func=_cmd_info)

    p_query = sub.add_parser("query", help="rank experts for an expertise need")
    p_query.add_argument("text", help="the expertise need")
    _add_dataset_args(p_query)
    p_query.add_argument("--platform", choices=sorted(_PLATFORMS), default="all")
    p_query.add_argument(
        "--snapshot", help="warm-start from a snapshot (repro index) instead of building"
    )
    p_query.add_argument("--top-k", type=int, default=10)
    p_query.add_argument("--alpha", type=float, default=0.6)
    p_query.add_argument("--window", type=int, default=100)
    p_query.add_argument("--distance", type=int, default=2, choices=(0, 1, 2))
    p_query.set_defaults(func=_cmd_query)

    p_index = sub.add_parser(
        "index", help="build a finder and save its snapshot for warm starts"
    )
    _add_dataset_args(p_index)
    p_index.add_argument("--out", required=True, help="snapshot output directory")
    p_index.add_argument("--platform", choices=sorted(_PLATFORMS), default="all")
    p_index.add_argument("--alpha", type=float, default=0.6)
    p_index.add_argument("--window", type=int, default=100)
    p_index.add_argument("--distance", type=int, default=2, choices=(0, 1, 2))
    p_index.add_argument(
        "--cold",
        action="store_true",
        help="ignore the dataset's pre-analyzed corpus and re-analyze "
        "every node, URL text included (writes the same snapshot; "
        "needs a generated dataset, not --dataset)",
    )
    p_index.add_argument(
        "--snapshot",
        help="start from an existing snapshot instead of building "
        "(e.g. to --compact it into a fresh snapshot)",
    )
    p_index.add_argument(
        "--seal-threshold",
        type=_positive_int,
        default=None,
        help="write-buffer size (resources) at which it seals",
    )
    p_index.add_argument(
        "--compact",
        action="store_true",
        help="merge every segment (and the write buffer) into one "
        "segment before saving",
    )
    p_index.set_defaults(func=_cmd_index)

    p_inspect = sub.add_parser(
        "inspect",
        help="print a snapshot's current generation as JSON (read-only)",
    )
    p_inspect.add_argument("snapshot", help="snapshot directory (repro index)")
    p_inspect.set_defaults(func=_cmd_inspect)

    p_serve = sub.add_parser(
        "serve-bench", help="serve the query set through the cached service"
    )
    _add_dataset_args(p_serve)
    p_serve.add_argument(
        "--snapshot", help="warm-start from a snapshot (repro index) instead of building"
    )
    p_serve.add_argument("--platform", choices=sorted(_PLATFORMS), default="all")
    p_serve.add_argument("--alpha", type=float, default=0.6)
    p_serve.add_argument("--window", type=int, default=100)
    p_serve.add_argument("--distance", type=int, default=2, choices=(0, 1, 2))
    p_serve.add_argument("--top-k", type=int, default=10)
    p_serve.add_argument("--rounds", type=int, default=3, help="passes over the query set")
    p_serve.add_argument("--cache-size", type=int, default=1024)
    p_serve.add_argument(
        "--seal-threshold",
        type=_positive_int,
        default=None,
        help="write-buffer size (resources) at which it seals",
    )
    p_serve.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable stats (the same dict the gateway's "
        "/v1/metrics endpoint serves) instead of the human summary",
    )
    p_serve.set_defaults(func=_cmd_serve_bench)

    p_gw = sub.add_parser(
        "serve", help="run the HTTP serving gateway (repro.serve)"
    )
    _add_dataset_args(p_gw)
    p_gw.add_argument("--host", default="127.0.0.1")
    p_gw.add_argument("--port", type=int, default=8080)
    p_gw.add_argument(
        "--snapshot",
        help="serve this snapshot directory; SIGHUP or POST /admin/reload "
        "re-reads its CURRENT generation without dropping requests "
        "(omit to build a finder in process — not reloadable)",
    )
    p_gw.add_argument("--platform", choices=sorted(_PLATFORMS), default="all")
    p_gw.add_argument("--alpha", type=float, default=0.6)
    p_gw.add_argument("--window", type=int, default=100)
    p_gw.add_argument("--distance", type=int, default=2, choices=(0, 1, 2))
    p_gw.add_argument("--cache-size", type=int, default=1024)
    p_gw.add_argument(
        "--rate-limit",
        type=float,
        default=50.0,
        help="per-client token-bucket refill rate in requests/second "
        "(0 disables rate limiting)",
    )
    p_gw.add_argument(
        "--burst",
        type=float,
        default=100.0,
        help="token-bucket capacity (burst size) per client",
    )
    p_gw.add_argument(
        "--max-batch-needs",
        type=int,
        default=256,
        help="largest accepted /v1/query/batch request",
    )
    p_gw.set_defaults(func=_cmd_serve)

    p_lint = sub.add_parser(
        "lint",
        help="run the repo's custom static-analysis rules "
        "(determinism, mmap discipline, ...)",
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src tests benchmarks)",
    )
    p_lint.add_argument(
        "--format", choices=["text", "json"], default="text", dest="format"
    )
    p_lint.add_argument(
        "--cache",
        default=".repro_lint_cache.json",
        help="per-file verdict cache path (default: %(default)s)",
    )
    p_lint.add_argument(
        "--no-cache", action="store_true", help="disable the verdict cache"
    )
    p_lint.add_argument(
        "--exclude",
        action="append",
        help="additional path substring to skip (repeatable)",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_exp = sub.add_parser("experiments", help="reproduce the paper's tables/figures")
    _add_dataset_args(p_exp)
    p_exp.add_argument(
        "--only",
        help=f"comma-separated subset of: {', '.join(_EXPERIMENTS)}",
    )
    p_exp.set_defaults(func=_cmd_experiments)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
