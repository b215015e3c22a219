"""Command-line interface: ``kanon anonymize --k 3 table.csv``.

Subcommands
-----------

``anonymize``
    Read a CSV, k-anonymize with a chosen algorithm, write the result.
``algorithms``
    List every registered algorithm with its kind and proven bound
    (``--json`` for machine-readable capability metadata).
``check``
    Report the anonymity level and star count of a (possibly already
    anonymized) CSV.

The ``--algorithm`` choices (and the ``algorithms`` listing) come from
the central capability registry (:mod:`repro.registry`) — the CLI holds
no private name→class table of its own.  The one extra choice is
``auto``, which defers the pick to :mod:`repro.planner`: the planner
ranks the registered portfolio against the instance and the time
budget, the strongest affordable tier wins, and the decision is printed
to stderr (and recorded in the run trace).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import registry
from repro.core.anonymity import anonymity_level, suppressed_cell_count
from repro.core.metrics import metric_report
from repro.instrument import BudgetExceededError, format_trace
from repro.io import read_csv, write_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kanon",
        description=(
            "Optimal k-anonymity via suppression — reproduction of "
            "Meyerson & Williams (PODS 2004)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    anonymize = sub.add_parser("anonymize", help="k-anonymize a CSV table")
    anonymize.add_argument("input", help="input CSV path")
    anonymize.add_argument("-k", type=int, required=True, help="anonymity parameter")
    anonymize.add_argument(
        "--algorithm",
        choices=[*registry.names(include_aliases=True), "auto"],
        default="center_cover",
        metavar="NAME",
        help=(
            "algorithm name or alias — see `kanon algorithms` for the "
            "full list; 'auto' lets the planner pick (default: "
            "center_cover, the Theorem 4.2 algorithm)"
        ),
    )
    anonymize.add_argument("-o", "--output", help="output CSV path (default: stdout)")
    anonymize.add_argument(
        "--ldiv",
        type=int,
        default=None,
        metavar="L",
        help=(
            "also enforce distinct L-diversity, treating the LAST column "
            "as the sensitive attribute (released untouched)"
        ),
    )
    anonymize.add_argument(
        "--no-header", action="store_true", help="input has no header row"
    )
    _add_run_flags(anonymize)

    check = sub.add_parser("check", help="report anonymity level and stars")
    check.add_argument("input", help="input CSV path")
    check.add_argument("-k", type=int, default=None,
                       help="also report utility metrics at this k")
    check.add_argument(
        "--no-header", action="store_true", help="input has no header row"
    )

    risk = sub.add_parser(
        "risk", help="prosecutor re-identification risk of a release"
    )
    risk.add_argument("input", help="released CSV path")
    risk.add_argument(
        "--external",
        help="adversary's external CSV (same schema) for a linkage attack",
    )
    risk.add_argument(
        "--sensitive",
        help="name of a sensitive column (released untouched, NOT a "
             "quasi-identifier); projected out before risk is computed",
    )
    risk.add_argument(
        "--no-header", action="store_true", help="inputs have no header row"
    )

    attack = sub.add_parser(
        "attack",
        help="simulate a projection linkage attack on a release",
    )
    attack.add_argument("input", help="original CSV path")
    attack.add_argument("released", help="released CSV path (same schema)")
    attack.add_argument(
        "--aux", required=True,
        help="comma-separated auxiliary columns the adversary knows "
             "(names, or 0-based indices with --no-header)",
    )
    attack.add_argument(
        "--sensitive", default=None,
        help="column whose value the adversary infers by majority vote "
             "over each match set (excluded from matching)",
    )
    attack.add_argument(
        "--json", action="store_true",
        help="emit the attack report as JSON",
    )
    attack.add_argument(
        "--no-header", action="store_true", help="inputs have no header row"
    )

    validate = sub.add_parser(
        "validate", help="gate a release against its original table"
    )
    validate.add_argument("input", help="original CSV path")
    validate.add_argument("released", help="released CSV path")
    validate.add_argument("-k", type=int, required=True,
                          help="claimed anonymity parameter")
    validate.add_argument(
        "--no-header", action="store_true", help="inputs have no header row"
    )

    dossier = sub.add_parser(
        "dossier", help="full release dossier for an (original, released) pair"
    )
    dossier.add_argument("input", help="original CSV path")
    dossier.add_argument("released", help="released CSV path")
    dossier.add_argument("-k", type=int, required=True)
    dossier.add_argument(
        "--sensitive",
        help="name of a sensitive column present in BOTH files (released "
             "untouched); enables the attribute-disclosure section",
    )
    dossier.add_argument(
        "--no-header", action="store_true", help="inputs have no header row"
    )

    algorithms = sub.add_parser(
        "algorithms",
        help="list registered algorithms with kinds and proven bounds",
    )
    algorithms.add_argument(
        "-k", type=int, default=3,
        help="evaluate proven bounds at this k (default: 3)",
    )
    algorithms.add_argument(
        "-m", type=int, default=4,
        help="evaluate proven bounds at this attribute count (default: 4)",
    )
    algorithms.add_argument(
        "-n", type=int, default=None,
        help="also evaluate planner capabilities (applicable / estimated "
             "seconds) at this row count",
    )
    algorithms.add_argument(
        "--sigma", type=int, default=2,
        help="alphabet size for the capability evaluation (default: 2)",
    )
    algorithms.add_argument(
        "--json", action="store_true",
        help="emit the registry as JSON (machine-readable capabilities)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the anonymization service (JSON lines over TCP)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=None,
        help="TCP port (default: 7683; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes; with N > 1 each cache miss is sent to "
             "an idle worker as soon as one is free (default: 1, solve "
             "in-process)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=256, metavar="N",
        help="in-memory solution-cache entries (default: 256)",
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="enable the on-disk cache tier in this directory",
    )
    serve.add_argument(
        "--max-timeout", type=float, default=None, metavar="SECONDS",
        help="admission cap: reject requests asking for more budget",
    )
    serve.add_argument(
        "--max-tasks-per-child", type=int, default=None, metavar="N",
        help="recycle each --jobs worker after N tasks",
    )
    serve.add_argument(
        "--inject-faults", action="store_true",
        help="honour per-request 'fault' fields (chaos testing only; "
             "also: REPRO_SERVICE_FAULTS=1)",
    )
    serve.add_argument(
        "--privacy-budget", type=float, default=None, metavar="EPSILON",
        help="per-dataset ε ceiling for DP releases; requests beyond it "
             "are rejected with privacy-budget-exhausted (default: "
             "track spends, no limit)",
    )

    route = sub.add_parser(
        "route",
        help="run a consistent-hash router over `kanon serve` shards",
    )
    route.add_argument(
        "--shard", action="append", required=True, dest="shards",
        metavar="HOST:PORT",
        help="a shard address (repeat once per `kanon serve` instance)",
    )
    route.add_argument("--host", default="127.0.0.1")
    route.add_argument(
        "--port", type=int, default=None,
        help="TCP port (default: 7690; 0 picks an ephemeral port)",
    )
    route.add_argument(
        "--vnodes", type=int, default=64, metavar="N",
        help="virtual nodes per shard on the hash ring (default: 64)",
    )
    route.add_argument(
        "--health-interval", type=float, default=1.0, metavar="SECONDS",
        help="seconds between shard health sweeps; dead shards are "
             "evicted from the ring and rejoin when they answer again "
             "(0 disables the sweep; default: 1.0)",
    )
    route.add_argument(
        "--ping-timeout", type=float, default=2.0, metavar="SECONDS",
        help="budget for one health-check ping (default: 2.0)",
    )

    submit = sub.add_parser(
        "submit",
        help="send a table to a running `kanon serve` or `kanon route`",
    )
    submit.add_argument(
        "input", nargs="?", default=None,
        help="input CSV path (omit with --stats / --shutdown / --ping)",
    )
    submit.add_argument("-k", type=int, default=None,
                        help="anonymity parameter")
    submit.add_argument(
        "--algorithm", default="center_cover", metavar="NAME",
        help="algorithm name or alias; 'auto' lets the server's planner "
             "pick (default: center_cover)",
    )
    submit.add_argument("-o", "--output",
                        help="output CSV path (default: stdout)")
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=None)
    submit.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-request wall-clock budget on the server",
    )
    submit.add_argument(
        "--no-cache", action="store_true",
        help="bypass the server's solution cache for this request",
    )
    submit.add_argument(
        "--no-header", action="store_true", help="input has no header row"
    )
    submit.add_argument(
        "--trace", action="store_true",
        help="print the server-side run trace to stderr",
    )
    submit.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="reconnect-and-retry attempts on connection errors "
             "(idempotent requests only; default: 2)",
    )
    submit.add_argument(
        "--fault", default=None, metavar="MODE",
        help="ask a chaos-enabled server to misbehave: kill-worker, "
             "delay:SECONDS, or drop-connection",
    )
    submit.add_argument(
        "--ldiv", type=int, default=None, metavar="L",
        help="privacy block: ask for distinct L-diversity on the "
             "sensitive column (default sensitive: the last column)",
    )
    submit.add_argument(
        "--tclose", type=float, default=None, metavar="T",
        help="privacy block: ask for T-closeness on the sensitive column",
    )
    submit.add_argument(
        "--epsilon", type=float, default=None, metavar="EPS",
        help="privacy block: also release an ε-DP noisy equivalence-"
             "class histogram (charged against the server's privacy "
             "budget; printed to stderr)",
    )
    submit.add_argument(
        "--sensitive", type=int, default=None, metavar="COLUMN",
        help="privacy block: 0-based index of the sensitive column "
             "(default: the last column when --ldiv/--tclose is given)",
    )
    submit.add_argument(
        "--delta", default=None, metavar="STATE_KEY",
        help="treat the input CSV as rows appended to the incremental "
             "stream stored under STATE_KEY (printed to stderr by a "
             "previous --algorithm incremental submit)",
    )
    submit.add_argument(
        "--stats", action="store_true",
        help="print the server's cache/batch counters and exit",
    )
    submit.add_argument(
        "--ping", action="store_true",
        help="health-check the server and exit",
    )
    submit.add_argument(
        "--shutdown", action="store_true",
        help="stop the server and exit",
    )

    experiment = sub.add_parser(
        "experiment",
        help="rerun a paper experiment (no input file needed)",
    )
    experiment.add_argument(
        "name",
        choices=["ratio-greedy", "ratio-center", "threshold-entries",
                 "threshold-attributes", "k-sweep", "privacy"],
        help="which experiment to run",
    )
    experiment.add_argument("-k", type=int, default=3)
    experiment.add_argument("--trials", type=int, default=10)
    experiment.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run independent trials on N worker processes (default: 1; "
             "results are bit-identical to a serial run)",
    )
    experiment.add_argument(
        "--out", default=None, metavar="DIR",
        help="record per-trial JSON artifacts into this run directory",
    )
    experiment.add_argument(
        "--resume", action="store_true",
        help="continue a previous --out run, skipping completed trials",
    )
    _add_run_flags(experiment)
    return parser


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Shared per-run flags: deadline, tracing."""
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock budget per anonymization; iterative algorithms "
            "return their best valid release on expiry, exact solvers "
            "exit with status 2"
        ),
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print a structured run trace to stderr (also: REPRO_TRACE=1)",
    )


def _list_algorithms(args) -> int:
    """The ``algorithms`` command: render the capability registry.

    With ``-n`` the planner's capability metadata is evaluated against a
    concrete instance shape (n, m, sigma, k); ``--json`` emits the same
    information machine-readably for scripting.
    """
    from repro.planner import tier_of

    infos = registry.all()
    features = (
        None if args.n is None else (args.n, args.m, args.sigma, args.k)
    )
    if args.json:
        import json as _json

        records = []
        for info in infos:
            record = {
                "name": info.name,
                "aliases": list(info.aliases),
                "kind": info.kind,
                "tier": tier_of(info),
                "anytime": info.anytime,
                "parameterized": info.parameterized,
                "bound": info.proven_bound(args.k, args.m),
                "bound_label": info.bound_label,
                "summary": info.summary,
            }
            if features is not None:
                record["applicable"] = info.is_applicable(*features)
                record["estimated_seconds"] = info.estimated_seconds(
                    *features
                )
            records.append(record)
        print(_json.dumps({
            "algorithms": records,
            "bound_at": {"k": args.k, "m": args.m},
            "features": None if features is None else {
                "n": args.n, "m": args.m, "sigma": args.sigma, "k": args.k,
            },
        }, indent=2))
        return 0
    name_width = max(len(info.name) for info in infos)
    kind_width = max(len(info.kind) for info in infos)
    capability_header = ""
    if features is not None:
        capability_header = f"  {'applicable':<10}  {'est_s':<9}"
    print(f"{'name':<{name_width}}  {'kind':<{kind_width}}  "
          f"{'anytime':<7}  {'fpt':<3}{capability_header}  "
          f"bound(k={args.k}, m={args.m})")
    for info in infos:
        bound = info.proven_bound(args.k, args.m)
        label = "—" if bound is None else f"{bound:.2f}"
        if info.bound_label:
            label += f"  [{info.bound_label}]"
        anytime = "yes" if info.anytime else "no"
        fpt = "yes" if info.parameterized else "no"
        capability = ""
        if features is not None:
            applicable = "yes" if info.is_applicable(*features) else "no"
            est = info.estimated_seconds(*features)
            capability = f"  {applicable:<10}  {est:<9.3g}"
        print(f"{info.name:<{name_width}}  {info.kind:<{kind_width}}  "
              f"{anytime:<7}  {fpt:<3}{capability}  {label}")
        if info.aliases:
            print(f"{'':<{name_width}}  aliases: {', '.join(info.aliases)}")
        if info.summary:
            print(f"{'':<{name_width}}  {info.summary}")
    return 0


def _experiment_store(args, experiment: str, config: dict):
    """The RunStore for ``--out`` (None when not requested)."""
    if args.out is None:
        if args.resume:
            print("error: --resume requires --out", file=sys.stderr)
            raise SystemExit(2)
        return None
    from repro.artifacts import RunStore

    return RunStore(args.out, experiment=experiment, config=config,
                    resume=args.resume)


def _run_experiment(args) -> int:
    """The `experiment` command: rerun a paper experiment from scratch.

    ``--jobs N`` fans trials out over N worker processes (bit-identical
    to a serial run); ``--out DIR`` records per-trial artifacts and
    ``--resume`` continues an interrupted sweep without re-solving
    finished trials.
    """
    from repro.experiments import k_sweep, ratio_experiment, threshold_sweep

    trace = True if args.trace else None
    if args.name.startswith("ratio-"):
        algorithm_name = (
            "greedy_cover" if args.name == "ratio-greedy" else "center_cover"
        )
        store = _experiment_store(args, "ratio", {
            "algorithm": algorithm_name, "k": args.k,
        })
        exp = ratio_experiment(
            registry.create(algorithm_name), k=args.k, trials=args.trials,
            timeout=args.timeout, trace=trace, jobs=args.jobs, store=store,
        )
        bound = "none" if exp.bound is None else f"{exp.bound:.1f}"
        print(f"{exp.algorithm}, k={exp.k}: "
              f"mean ratio {exp.mean_ratio:.3f}, max {exp.max_ratio:.3f}, "
              f"proven bound {bound}")
        for row in exp.rows:
            print(f"  seed {row.seed}: OPT {row.opt}, cost {row.cost} "
                  f"({row.ratio:.2f}x)")
        for run_trace in exp.traces:
            print(format_trace(run_trace), file=sys.stderr)
        return 0 if (not exp.has_bound or exp.within_bound) else 1
    if args.name.startswith("threshold-"):
        kind = args.name.split("-", 1)[1]
        store = _experiment_store(args, "threshold", {"kind": kind})
        results = threshold_sweep(
            kind=kind, cases=((True, 0), (False, 0)),
            jobs=args.jobs, store=store,
        )
        for result in results:
            print(f"{kind}, matching={result.has_matching}: threshold "
                  f"{result.threshold}, optimum {result.optimum}, "
                  f"consistent={result.consistent_with_theorem}")
        return 0 if all(r.consistent_with_theorem for r in results) else 1
    if args.name == "privacy":
        from repro.experiments import privacy_experiment

        store = _experiment_store(args, "privacy", {
            "workload": "census-120-seed0", "epsilon": 1.0,
        })
        exp = privacy_experiment(
            timeout=args.timeout, trace=trace, jobs=args.jobs, store=store,
        )
        print(f"{exp.algorithm} on census n={exp.n}, ε={exp.epsilon:g}:")
        for point in exp.points:
            print(f"  k={point.k}: {point.stars} stars, "
                  f"re-identified {point.fraction_unique:.1%}, "
                  f"inference {point.inference_accuracy:.1%}, "
                  f"dp overhead {point.dp_overhead:.1%} of solve")
        drop = exp.reidentification_drop
        drop_text = "inf" if drop == float("inf") else f"{drop:.1f}"
        print(f"unique re-identification drop "
              f"k={min(p.k for p in exp.points)} -> "
              f"k={max(p.k for p in exp.points)}: {drop_text}x")
        return 0
    # k-sweep
    from repro.workloads import census_table, quasi_identifiers

    table = quasi_identifiers(census_table(120, seed=0))
    store = _experiment_store(args, "k_sweep", {
        "workload": "census-120-seed0",
    })
    for point in k_sweep(table, timeout=args.timeout, trace=trace,
                         jobs=args.jobs, store=store):
        print(f"k={point.k}: {point.stars} stars, "
              f"precision {point.precision:.3f}, {point.classes} classes")
        if point.trace is not None:
            print(format_trace(point.trace), file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Exit status 2 means a ``--timeout`` expired inside an exact solver
    (no feasible incumbent exists mid-flight, so nothing can be
    released); iterative algorithms instead degrade gracefully and
    report the deadline on stderr.
    """
    from repro.artifacts import ArtifactMismatchError

    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArtifactMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _serve(args) -> int:
    """The ``serve`` command: run the service until shut down."""
    from repro.service import AnonymizationService, serve

    service = AnonymizationService(
        max_entries=args.cache_size,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        max_timeout=args.max_timeout,
        max_tasks_per_child=args.max_tasks_per_child,
        fault_injection=True if args.inject_faults else None,
        privacy_budget=args.privacy_budget,
    )
    try:
        serve(service, host=args.host, port=args.port, log=sys.stderr)
    except KeyboardInterrupt:
        print("kanon service interrupted", file=sys.stderr)
    return 0


def _render_pool(pool: dict) -> str:
    extras = ""
    if pool.get("mode") == "persistent":
        extras = (f", {pool['batches']} batches, "
                  f"{pool['tasks']} tasks, "
                  f"{pool['rebuilds']} rebuilds, "
                  f"{pool['recycled']} recycles")
    return f"{pool['mode']} ({pool['workers']} workers{extras})"


def _render_stats(stats: dict) -> None:
    """Print the ``--stats`` report (single server or merged fleet)."""
    cache = stats["cache"]
    print(f"uptime: {stats['uptime_seconds']:.1f}s  "
          f"jobs: {stats['jobs']}")
    solved = ""
    if "solved_instances" in stats:
        solved = f"  solved instances: {stats['solved_instances']}"
    print(f"requests: {stats['requests']}  "
          f"rejected: {stats['rejected']}  "
          f"coalesced: {stats['coalesced']}{solved}")
    print(f"cache: {cache['hits']} hits "
          f"({cache['memory_hits']} memory, {cache['disk_hits']} "
          f"disk), {cache['misses']} misses, "
          f"{cache['evictions']} evictions, "
          f"{cache['entries']}/{cache['max_entries']} resident")
    batches = stats["batches"]
    print(f"batches: {batches['count']} dispatched, "
          f"max size {batches['max_size']}, "
          f"mean size {batches['mean_size']:.2f}")
    privacy = stats.get("privacy")
    if privacy:
        budget = privacy.get("budget")
        ceiling = "unlimited" if budget is None else f"{budget:g}"
        spends = ", ".join(
            f"{dataset}: ε={spent:g}"
            for dataset, spent in (privacy.get("datasets") or {}).items()
        ) or "no ε spent"
        print(f"privacy budget: {ceiling}  ({spends})")
    pool = stats.get("pool")
    if pool:
        print(f"pool: {_render_pool(pool)}")
    router = stats.get("router")
    if not router:
        return
    counters = router.get("counters", {})
    print(f"router: {router['shards_alive']}/{router['shards_total']} "
          f"shards alive (routed {counters.get('routed', 0)}, "
          f"rerouted {counters.get('rerouted', 0)}, "
          f"failovers {counters.get('failovers', 0)}, "
          f"evicted {counters.get('evicted', 0)}, "
          f"rejoined {counters.get('rejoined', 0)})")
    for address, shard in sorted((stats.get("shards") or {}).items()):
        if "error" in shard:
            print(f"shard {address}: DEAD ({shard['error']})")
            continue
        shard_cache = shard.get("cache", {})
        line = (f"shard {address}: {shard_cache.get('hits', 0)} hits, "
                f"{shard_cache.get('misses', 0)} misses, "
                f"{shard.get('solved_instances', 0)} solved instances, "
                f"{shard_cache.get('entries', 0)}/"
                f"{shard_cache.get('max_entries', 0)} resident")
        pool = shard.get("pool")
        if pool:
            line += f", pool {_render_pool(pool)}"
        print(line)


def _submit(args) -> int:
    """The ``submit`` command: one request to a running service."""
    from repro.service import DEFAULT_PORT, ServiceClient, ServiceError

    port = DEFAULT_PORT if args.port is None else args.port
    client = ServiceClient(args.host, port, retries=max(0, args.retries))
    try:
        if args.ping:
            response = client.ping()
            router = response.get("router")
            if router:
                print(f"ok (protocol {response['protocol']}, router "
                      f"{router['shards_alive']}/{router['shards_total']} "
                      f"shards alive)")
            else:
                print(f"ok (protocol {response['protocol']})")
            return 0
        if args.stats:
            _render_stats(client.stats())
            return 0
        if args.shutdown:
            response = client.shutdown()
            for address, verdict in sorted(
                (response.get("shards") or {}).items()
            ):
                print(f"shard {address}: {verdict}", file=sys.stderr)
            print("server stopped", file=sys.stderr)
            return 0
        if args.input is None or (args.k is None and args.delta is None):
            print("error: submit needs an input CSV and -k (or --delta "
                  "STATE_KEY, or one of --stats / --ping / --shutdown)",
                  file=sys.stderr)
            return 2
        table = read_csv(args.input, header=not args.no_header)
        if args.delta is not None:
            response = client.delta(
                args.delta, table,
                k=args.k,
                header=not args.no_header,
                timeout=args.timeout,
                use_cache=not args.no_cache,
                fault=args.fault,
            )
            disposition = response.get("delta")
            if disposition:
                print(f"delta: +{disposition['rows_added']} rows "
                      f"({disposition['rows_total']} total), "
                      f"{disposition['untouched_groups']}/"
                      f"{disposition['groups']} groups untouched",
                      file=sys.stderr)
        else:
            privacy = {}
            if args.ldiv is not None:
                privacy["l"] = args.ldiv
            if args.tclose is not None:
                privacy["t"] = args.tclose
            if args.epsilon is not None:
                privacy["epsilon"] = args.epsilon
            if args.sensitive is not None:
                privacy["sensitive"] = args.sensitive
            response = client.anonymize(
                table, args.k,
                algorithm=args.algorithm,
                header=not args.no_header,
                timeout=args.timeout,
                use_cache=not args.no_cache,
                trace=args.trace,
                fault=args.fault,
                privacy=privacy or None,
            )
        dp = response.get("dp")
        if dp:
            print(f"dp: ε={dp['epsilon']:g} {dp['mechanism']} noise "
                  f"(scale {dp['scale']:g}) over {len(dp['classes'])} "
                  f"equivalence classes", file=sys.stderr)
        if response.get("state_key"):
            print(f"state key: {response['state_key']}", file=sys.stderr)
        plan = response.get("plan")
        if plan:
            print(f"plan: {response['algorithm']} ({plan['reason']})",
                  file=sys.stderr)
        if response.get("deadline_hit"):
            print("deadline hit: the server returned its best valid "
                  "release within the budget", file=sys.stderr)
        if args.trace and response.get("trace"):
            print(format_trace(response["trace"]), file=sys.stderr)
        solve = response.get("solve_seconds")
        timing = "" if solve is None else f" in {solve:.3f}s"
        print(f"cache: {response['cache']}  "
              f"({response['algorithm']}, k={response['k']}, "
              f"{response['stars']} stars{timing})", file=sys.stderr)
        if response.get("shard"):
            rerouted = " (rerouted)" if response.get("rerouted") else ""
            print(f"shard: {response['shard']}{rerouted}", file=sys.stderr)
        if args.output:
            write_csv(response["table"], args.output,
                      header=not args.no_header)
        else:
            sys.stdout.write(response["csv"])
        return 0
    except ServiceError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2 if exc.code == "budget-exceeded" else 1
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach the service at {args.host}:{port} "
              f"({exc}); is `kanon serve` running?", file=sys.stderr)
        return 2
    finally:
        client.close()


def _route(args) -> int:
    """The ``route`` command: front a shard fleet until shut down."""
    from repro.service import ShardRouter, serve

    try:
        router = ShardRouter(
            args.shards,
            vnodes=args.vnodes,
            health_interval=args.health_interval,
            ping_timeout=args.ping_timeout,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        serve(router, host=args.host, port=args.port, log=sys.stderr)
    except KeyboardInterrupt:
        print("kanon router interrupted", file=sys.stderr)
    return 0


def _dispatch(args) -> int:
    if args.command == "algorithms":
        return _list_algorithms(args)
    if args.command == "experiment":
        return _run_experiment(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "route":
        return _route(args)
    if args.command == "submit":
        return _submit(args)
    table = read_csv(args.input, header=not args.no_header)

    if args.command == "anonymize":
        if args.algorithm == "auto":
            from repro.planner import PlannedAnonymizer

            algorithm = PlannedAnonymizer()
        else:
            algorithm = registry.create(args.algorithm)
        trace = True if args.trace else None
        if args.ldiv is not None:
            from repro.privacy import LDiverseAnonymizer

            # the wrapper's template path splits off the last column,
            # anonymizes the rest, and reattaches it untouched — the
            # release keeps the input's schema
            algorithm = LDiverseAnonymizer(args.ldiv, inner=algorithm)
        result = algorithm.anonymize(
            table, args.k, timeout=args.timeout, trace=trace,
        )
        plan = result.extras.get("plan")
        if plan is not None:
            print(f"plan: {result.algorithm} ({plan['reason']})",
                  file=sys.stderr)
            if "fallback" in plan:
                fallback = plan["fallback"]
                print(f"plan fallback: {fallback['from']} failed "
                      f"({fallback['error']})", file=sys.stderr)
        if result.extras.get("deadline_hit"):
            print(
                "deadline hit: returning the best valid release found "
                "within the budget",
                file=sys.stderr,
            )
        if "trace" in result.extras:
            print(format_trace(result.extras["trace"]), file=sys.stderr)
        output = result.anonymized.to_csv(header=not args.no_header)
        if args.output:
            write_csv(result.anonymized, args.output, header=not args.no_header)
            print(
                f"{result.algorithm}: {result.stars} cells suppressed "
                f"({result.stars / max(1, table.total_cells()):.1%}) -> "
                f"{args.output}",
                file=sys.stderr,
            )
        else:
            sys.stdout.write(output)
        return 0

    if args.command == "check":
        level = anonymity_level(table)
        stars = suppressed_cell_count(table)
        print(f"rows: {table.n_rows}  degree: {table.degree}")
        print(f"anonymity level: {level}")
        print(f"suppressed cells: {stars}")
        if args.k is not None:
            for key, value in metric_report(table, args.k).items():
                print(f"{key}: {value}")
        return 0

    if args.command == "validate":
        from repro.validate import validate_release

        released = read_csv(args.released, header=not args.no_header)
        report = validate_release(table, released, args.k)
        print(report.summary())
        return 0 if report.ok else 1

    if args.command == "dossier":
        from repro.report import release_dossier

        released = read_csv(args.released, header=not args.no_header)
        sensitive = None
        if args.sensitive:
            sensitive = released.column(args.sensitive)
            keep = [a for a in released.attributes if a != args.sensitive]
            released = released.project(keep)
            table = table.project(keep)
        text = release_dossier(table, released, args.k, sensitive=sensitive)
        print(text)
        return 0 if text.splitlines()[0].endswith(f"APPROVED (k={args.k})") else 1

    if args.command == "attack":
        from repro.privacy import projection_attack

        released = read_csv(args.released, header=not args.no_header)
        aux: list = [col.strip() for col in args.aux.split(",") if col.strip()]
        sensitive = args.sensitive
        if args.no_header:
            # headerless tables have synthetic attribute names; accept
            # 0-based indices on the command line instead
            aux = [int(col) for col in aux]
            sensitive = int(sensitive) if sensitive is not None else None
        report = projection_attack(
            released, table, aux, sensitive=sensitive
        )
        if args.json:
            print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
            return 0
        print(f"targets: {report.targets}")
        print(f"uniquely re-identified: {report.unique} "
              f"({report.fraction_unique:.1%})")
        print(f"match-set size: min {report.min_match}, "
              f"mean {report.mean_match:.2f}")
        if sensitive is not None:
            print(f"sensitive-value inference accuracy: "
                  f"{report.inference_accuracy:.1%} "
                  f"({report.inference_correct}/{report.targets})")
        return 0

    # risk
    from repro.privacy import linkage_attack, risk_report

    if args.sensitive:
        # the sensitive column is released untouched and is NOT a
        # quasi-identifier — counting it would report a false max
        # prosecutor risk of 1.0 on any release with distinct values
        keep = [a for a in table.attributes if a != args.sensitive]
        if len(keep) == len(table.attributes):
            print(f"error: no column named {args.sensitive!r}",
                  file=sys.stderr)
            return 2
        table = table.project(keep)
    report = risk_report(table)
    print(f"classes: {report.class_count}")
    print(f"max prosecutor risk: {report.max_risk:.4f}")
    print(f"mean prosecutor risk: {report.mean_risk:.4f}")
    print(f"records at max risk: {report.records_at_max}")
    if args.external:
        external = read_csv(args.external, header=not args.no_header)
        if args.sensitive and args.sensitive in external.attributes:
            external = external.project(
                [a for a in external.attributes if a != args.sensitive]
            )
        counts = linkage_attack(
            table, external, list(range(external.n_rows))
        )
        pinned = sum(1 for c in counts.values() if c == 1)
        print(
            f"linkage attack: {pinned}/{external.n_rows} external records "
            f"match exactly one released record"
        )
        print(f"minimum match set size: {min(counts.values(), default=0)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
