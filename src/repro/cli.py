"""Command-line interface to the library's engines.

Installed as the ``repro`` console script::

    repro info design.bench
    repro convert design.bench design.blif
    repro engines
    repro mc design.blif --method reach_aig --property "!bad"
    repro mc counter.bench --method itp --max-depth 32
    repro mc counter.bench --method pdr --max-depth 32
    repro portfolio a.bench b.blif --engines bmc,reach_aig --timeout 5 \
        --jobs 4 --cache results.jsonl
    repro quantify design.bench --output G22 --vars G1,G3 --preset full
    repro fraig design.bench
    repro atpg design.bench --rounds 4

File formats are chosen by extension: ``.bench`` (ISCAS-89), ``.blif``
(Berkeley), anything else is the native line-oriented netlist format of
:mod:`repro.circuits.parse`.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Sequence

from repro.aig.graph import edge_not
from repro.circuits.bench_format import parse_bench, serialize_bench
from repro.circuits.blif import parse_blif, serialize_blif
from repro.circuits.netlist import Netlist
from repro.circuits.parse import parse_netlist, serialize_netlist
from repro.errors import ReproError


def _load(path: str) -> Netlist:
    text = pathlib.Path(path).read_text()
    suffix = pathlib.Path(path).suffix.lower()
    if suffix == ".bench":
        return parse_bench(text, name=pathlib.Path(path).stem)
    if suffix == ".blif":
        return parse_blif(text)
    return parse_netlist(text)


def _save(netlist: Netlist, path: str) -> None:
    suffix = pathlib.Path(path).suffix.lower()
    if suffix == ".bench":
        text = serialize_bench(netlist)
    elif suffix == ".blif":
        text = serialize_blif(netlist)
    else:
        text = serialize_netlist(netlist)
    pathlib.Path(path).write_text(text)


def _resolve_signal(netlist: Netlist, token: str) -> int:
    """An output name or input/latch name, with optional ``!`` prefix."""
    invert = token.startswith("!")
    name = token[1:] if invert else token
    edge = None
    if name in netlist.outputs:
        edge = netlist.outputs[name]
    else:
        for latch in netlist.latches:
            if latch.name == name:
                edge = 2 * latch.node
                break
        else:
            for node in netlist.aig.inputs:
                if netlist.aig.input_name(node) == name:
                    edge = 2 * node
                    break
    if edge is None:
        raise ReproError(
            f"unknown signal {name!r}; outputs are "
            f"{sorted(netlist.outputs)}"
        )
    return edge_not(edge) if invert else edge


# ---------------------------------------------------------------------- #
# Subcommands
# ---------------------------------------------------------------------- #


def _cmd_info(args: argparse.Namespace) -> int:
    netlist = _load(args.file)
    aig = netlist.aig
    print(f"name:      {netlist.name}")
    print(f"inputs:    {netlist.num_inputs}")
    print(f"latches:   {netlist.num_latches}")
    print(f"and gates: {aig.num_ands}")
    print(f"outputs:   {', '.join(sorted(netlist.outputs)) or '(none)'}")
    print(f"property:  {'yes' if netlist.has_property else 'no'}")
    if netlist.num_latches:
        inits = "".join(
            str(int(latch.init)) for latch in netlist.latches
        )
        print(f"init:      {inits} ({[l.name for l in netlist.latches]})")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    netlist = _load(args.input)
    _save(netlist, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_engines(args: argparse.Namespace) -> int:
    from repro.api.registry import iter_engines

    if getattr(args, "json", False):
        import json

        from repro.api.registry import engine_catalog

        print(json.dumps({"engines": engine_catalog()}, indent=2))
        return 0

    def capability_flags(spec) -> str:
        flags = []
        if spec.complete:
            flags.append("complete")
        if spec.produces_trace:
            flags.append("trace")
        if spec.supports_constraints:
            flags.append("constraints")
        if spec.quick:
            flags.append("quick")
        if spec.composite:
            flags.append("composite")
        if spec.variant_of:
            flags.append(f"variant:{spec.variant_of}")
        return ",".join(flags)

    specs = list(iter_engines())
    name_width = max(len(spec.name) for spec in specs) + 2
    flag_width = max(
        len("capabilities"),
        max(len(capability_flags(spec)) for spec in specs),
    ) + 2
    print(f"{'engine':<{name_width}}{'direction':<11}"
          f"{'capabilities':<{flag_width}}summary")
    for spec in specs:
        print(f"{spec.name:<{name_width}}{spec.direction:<11}"
              f"{capability_flags(spec):<{flag_width}}{spec.summary}")
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    from repro.mc import verify

    netlist = _load(args.file)
    if args.property is not None:
        netlist.set_property(_resolve_signal(netlist, args.property))
    if not netlist.has_property:
        print(
            "error: the file carries no property; pass --property SIGNAL",
            file=sys.stderr,
        )
        return 2
    extra: dict[str, object] = {}
    if args.method.startswith("reach_bdd") and args.schedule is not None:
        extra["schedule"] = args.schedule
    elif args.method == "cnc" and args.workers is not None:
        extra["workers"] = args.workers
    elif args.method.startswith("reach_aig") and args.schedule is not None:
        from dataclasses import replace

        from repro.api import get_engine

        # The engine's own quantification defaults, rescheduled.
        defaults = get_engine(args.method).options_class().quantify
        extra["quantify"] = replace(defaults, schedule=args.schedule)
    # Bare --trace keeps its original meaning (print the counterexample
    # states); --trace PATH and --report additionally turn on the
    # repro.obs instrumentation for the run.
    trace_path = args.trace if isinstance(args.trace, str) else None
    if trace_path is not None:
        extra["trace"] = trace_path
    elif args.report is not None:
        extra["trace"] = True
    result = verify(
        netlist, method=args.method, max_depth=args.max_depth, **extra
    )
    print(f"engine:  {result.engine}")
    print(f"verdict: {result.status.value}")
    print(f"iterations: {result.iterations}")
    if result.trace is not None:
        print(f"counterexample depth: {result.trace.depth}")
        if args.minimize:
            from repro.mc.minimize import minimize_trace

            minimized = minimize_trace(netlist, result.trace)
            print(
                f"minimized: {minimized.care_count} of "
                f"{minimized.total_inputs} trace inputs matter "
                f"({minimized.care_ratio:.0%})"
            )
            result.trace = minimized.trace
        if args.trace:
            latch_order = netlist.latch_nodes
            names = [latch.name for latch in netlist.latches]
            print("trace (" + " ".join(names) + "):")
            for step, state in enumerate(result.trace.states):
                bits = "".join(
                    str(int(state[node])) for node in latch_order
                )
                print(f"  step {step}: {bits}")
    if trace_path is not None:
        print(f"trace: wrote {trace_path}")
    if args.report is not None:
        from repro.obs import build_report

        report = build_report(result, getattr(result, "tracer", None))
        if isinstance(args.report, str):
            report.write_json(args.report)
            print(f"report: wrote {args.report}")
        else:
            print(report.render())
    if args.stats:
        print(result.stats.report(), file=sys.stderr)
    if result.failed:
        return 1
    if not result.status.is_conclusive:
        return 3
    return 0


def _cmd_portfolio(args: argparse.Namespace) -> int:
    from repro.mc.result import Status
    from repro.portfolio import portfolio_verify
    from repro.util.stats import StatsBag

    netlists = []
    for path in args.files:
        netlist = _load(path)
        if args.property is not None:
            netlist.set_property(_resolve_signal(netlist, args.property))
        if not netlist.has_property:
            print(
                f"error: {path} carries no property; pass --property SIGNAL",
                file=sys.stderr,
            )
            return 2
        netlists.append(netlist)
    engines = (
        [name.strip() for name in args.engines.split(",") if name.strip()]
        if args.engines
        else None
    )
    stats = StatsBag()
    results = portfolio_verify(
        netlists,
        engines=engines,
        policy=args.policy,
        budget=args.timeout,
        jobs=args.jobs,
        max_depth=args.max_depth,
        cache=args.cache,
        fraig_preprocess=args.fraig,
        stats=stats,
    )
    width = max(len(pathlib.Path(p).name) for p in args.files)
    print(f"{'design':<{width + 2}}{'verdict':<10}{'engine':<18}"
          f"{'time':>8}  cached")
    for path, result in zip(args.files, results):
        wall = result.stats.get("portfolio_wall_seconds", 0.0)
        cached = "yes" if result.stats.get("cache_hit") else "no"
        print(
            f"{pathlib.Path(path).name:<{width + 2}}"
            f"{result.status.value:<10}{result.engine:<18}"
            f"{wall * 1000:>6.0f}ms  {cached}"
        )
    hits = stats.get("cache_hits")
    winners = {
        key[len("winner_"):]: int(value)
        for key, value in stats
        if key.startswith("winner_") and value > 0
    }
    print(f"cache: {hits:.0f} hits, {stats.get('cache_misses'):.0f} misses")
    if winners:
        print("winners: " + ", ".join(
            f"{name} x{count}" for name, count in sorted(winners.items())
        ))
    if args.stats:
        print(stats.report(), file=sys.stderr)
    statuses = {result.status for result in results}
    if Status.FAILED in statuses:
        return 1
    if Status.UNKNOWN in statuses:
        return 3
    return 0


def _cmd_quantify(args: argparse.Namespace) -> int:
    from repro.core.quantify import QuantifyOptions, quantify_exists

    netlist = _load(args.file)
    root = _resolve_signal(netlist, args.output)
    by_name = {
        netlist.aig.input_name(node): node for node in netlist.aig.inputs
    }
    variables = []
    for token in args.vars.split(","):
        token = token.strip()
        if token not in by_name:
            raise ReproError(f"unknown input variable {token!r}")
        variables.append(by_name[token])
    options = QuantifyOptions.preset(args.preset)
    options.schedule = args.schedule
    outcome = quantify_exists(netlist.aig, root, variables, options)
    print(f"quantified: {len(outcome.quantified)} of "
          f"{len(variables)} variables")
    print(f"size: {outcome.stats.get('initial_size'):.0f} -> "
          f"{outcome.size} AND nodes "
          f"(peak {outcome.stats.get('peak_size', 0):.0f})")
    # Every counter of each phase the preset runs, zeros included: a
    # phase that made no check prints 0 rather than nothing.
    counters = []
    if options.bdd_sweep:
        counters.append("bdd_merges")
    if options.sat_merge or options.optimize:
        counters.append("sat_checks")
    if options.sat_merge:
        counters += ["proved_equal", "merge_sat_checks"]
    if options.optimize:
        counters += [
            "input_dc_checks", "input_dc_trivial", "input_dc_replacements"
        ]
    for key in counters:
        print(f"{key}: {outcome.stats.get(key):.0f}")
    return 0


def _cmd_fraig(args: argparse.Namespace) -> int:
    from repro.sweep.fraig import fraig

    netlist = _load(args.file)
    roots = list(netlist.outputs.values())
    if netlist.has_property:
        roots.append(netlist.property_edge)
    if not roots:
        print("error: no outputs to reduce", file=sys.stderr)
        return 2
    result = fraig(netlist.aig, roots)
    print(f"size: {result.stats.get('size_before'):.0f} -> "
          f"{result.size} AND nodes "
          f"({result.stats.get('rounds'):.0f} rounds, "
          f"{result.stats.get('sat_checks', 0):.0f} SAT checks)")
    return 0


def _cmd_atpg(args: argparse.Namespace) -> int:
    from repro.atpg import FaultSimulator, SatTestGenerator

    netlist = _load(args.file)
    roots = list(netlist.outputs.values())
    if not roots:
        print("error: no outputs to test", file=sys.stderr)
        return 2
    simulator = FaultSimulator(netlist.aig, roots)
    total = len(simulator.remaining)
    coverage = simulator.run_random(words=args.words, rounds=args.rounds)
    print(f"fault list: {total} collapsed faults")
    print(f"random-pattern coverage: {coverage:.1%} "
          f"({len(simulator.remaining)} survivors)")
    generator = SatTestGenerator(netlist.aig, roots)
    redundant = aborted = detected = 0
    for fault in list(simulator.remaining):
        testable, _ = generator.generate(fault)
        if testable is True:
            detected += 1
        elif testable is False:
            redundant += 1
            if args.verbose:
                print(f"  redundant: {fault.describe(netlist.aig)}")
        else:
            aborted += 1
    print(f"deterministic pass: {detected} detected, "
          f"{redundant} redundant, {aborted} aborted")
    return 0


# ---------------------------------------------------------------------- #
# Service subcommands
# ---------------------------------------------------------------------- #


def _http_json(url: str, payload: dict | None = None) -> dict:
    """One JSON request against the service API (POST iff a payload)."""
    import json
    import urllib.error
    import urllib.request

    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        body = exc.read().decode()
        try:
            error = json.loads(body).get("error", body)
        except ValueError:
            error = body or str(exc)
        raise ReproError(f"service returned {exc.code}: {error}") from None
    except urllib.error.URLError as exc:
        raise ReproError(f"cannot reach service at {url}: {exc.reason}") from None


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.svc.server import VerificationServer

    server = VerificationServer(
        args.store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        lease_seconds=args.lease,
        max_pending=args.max_pending,
        trace_jobs=args.trace_jobs,
    )
    import signal
    import threading

    host, port = server.start()
    print(f"serving on http://{host}:{port} "
          f"(store {args.store}, {args.workers} workers)")
    stopped = threading.Event()
    # SIGTERM (docker stop, CI cleanup) must tear the worker fleet down
    # as cleanly as ^C, or their engine subprocesses outlive the server.
    signal.signal(signal.SIGTERM, lambda *_: stopped.set())
    try:
        stopped.wait()
    except KeyboardInterrupt:
        pass
    print("shutting down")
    server.stop()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json
    import time

    netlist = _load(args.file)
    if args.property is not None:
        netlist.set_property(_resolve_signal(netlist, args.property))
    if not netlist.has_property:
        print(
            "error: the file carries no property; pass --property SIGNAL",
            file=sys.stderr,
        )
        return 2
    text = serialize_netlist(netlist)
    name = args.name or pathlib.Path(args.file).stem
    fields = dict(
        method=args.method,
        max_depth=args.max_depth,
        timeout=args.timeout,
        priority=args.priority,
        namespace=args.namespace,
        name=name,
    )
    if args.url is not None:
        job_id = _http_json(
            f"{args.url.rstrip('/')}/submit",
            {"netlist": text, "format": "net", **fields},
        )["job_id"]
    else:
        from repro.svc.queue import TaskQueue
        from repro.svc.store import Store

        queue = TaskQueue(Store(args.store))
        job_id = queue.submit(text, fmt="net", **fields)
    print(f"job {job_id} submitted ({name}, method {args.method})")
    if not args.wait:
        return 0
    if args.url is None:
        # Offline mode has no server fleet; lend a hand draining the
        # store so --wait terminates (a no-op if another worker got
        # there first).
        from repro.svc.worker import Worker

        Worker(queue.store).run(drain=True)
    while True:
        if args.url is not None:
            status = _http_json(f"{args.url.rstrip('/')}/jobs/{job_id}")
        else:
            status = queue.job(job_id).to_dict()
        if status["state"] in ("done", "failed", "cancelled"):
            break
        time.sleep(args.poll)
    print(json.dumps(status, indent=2))
    if status["state"] == "failed":
        print(f"error: {status.get('reason')}", file=sys.stderr)
        return 2
    if status["state"] == "cancelled":
        return 3
    verdict = status.get("verdict")
    return {"proved": 0, "failed": 1}.get(verdict, 3)


def _follow_job(base_url: str, job_id: int, on_event) -> dict:
    """Consume a job's SSE stream until its terminal ``end`` event.

    Calls ``on_event(kind, event_dict)`` per persisted event; returns
    the ``end`` event's data.  A dropped connection (worker churn,
    proxy timeout) reconnects with ``Last-Event-ID``, so no events are
    missed and none repeat.
    """
    import json
    import time
    import urllib.error
    import urllib.request

    last_seq = 0
    while True:
        request = urllib.request.Request(
            f"{base_url}/jobs/{job_id}/events",
            headers={"Accept": "text/event-stream",
                     "Last-Event-ID": str(last_seq)},
        )
        try:
            response = urllib.request.urlopen(request, timeout=60)
        except urllib.error.HTTPError as exc:
            raise ReproError(
                f"service returned {exc.code} for job {job_id}"
            ) from None
        except urllib.error.URLError as exc:
            raise ReproError(
                f"cannot reach service at {base_url}: {exc.reason}"
            ) from None
        try:
            event_name: str | None = None
            event_id: str | None = None
            data_lines: list[str] = []
            for raw in response:
                line = raw.decode().rstrip("\r\n")
                if line == "":
                    if data_lines:
                        data = json.loads("\n".join(data_lines))
                        if event_id is not None:
                            last_seq = int(event_id)
                        if event_name == "end":
                            return data
                        on_event(event_name or "message", data)
                    event_name, event_id, data_lines = None, None, []
                    continue
                if line.startswith(":"):
                    continue  # keepalive comment
                field, _, value = line.partition(":")
                if value.startswith(" "):
                    value = value[1:]
                if field == "event":
                    event_name = value
                elif field == "id":
                    event_id = value
                elif field == "data":
                    data_lines.append(value)
        except (ConnectionError, TimeoutError, OSError):
            pass  # stream died mid-read; resume from last_seq
        finally:
            response.close()
        time.sleep(0.5)


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json

    if getattr(args, "follow", None) is not None:
        if args.url is None:
            print("error: --follow needs --url (SSE is served over HTTP)",
                  file=sys.stderr)
            return 2

        def on_event(kind: str, event: dict) -> None:
            payload = event.get("payload")
            detail = json.dumps(payload) if payload else ""
            print(f"[{event.get('seq', '?'):>4}] {kind:<18}{detail}")

        end = _follow_job(args.url.rstrip("/"), args.follow, on_event)
        print(f"job {args.follow} {end.get('state')}"
              + (f" ({end.get('verdict')})" if end.get("verdict") else ""))
        if end.get("state") == "failed":
            if end.get("reason"):
                print(f"error: {end['reason']}", file=sys.stderr)
            return 2
        if end.get("state") == "cancelled":
            return 3
        return {"proved": 0, "failed": 1}.get(end.get("verdict"), 3)

    if args.url is not None:
        query = f"?state={args.state}" if args.state else ""
        records = _http_json(f"{args.url.rstrip('/')}/jobs{query}")["jobs"]
    else:
        from repro.svc.queue import TaskQueue
        from repro.svc.store import Store

        queue = TaskQueue(Store(args.store))
        records = [
            job.to_dict() for job in queue.jobs(state=args.state or None)
        ]
    if args.json:
        print(json.dumps({"jobs": records}, indent=2))
        return 0
    if not records:
        print("no jobs")
        return 0
    print(f"{'id':>5}  {'state':<10}{'verdict':<9}{'method':<12}"
          f"{'att':>3}  name")
    for record in records:
        print(
            f"{record['job_id']:>5}  {record['state']:<10}"
            f"{(record.get('verdict') or '-'):<9}{record['method']:<12}"
            f"{record['attempts']:>3}  {record.get('name') or ''}"
        )
    return 0


def _render_top(doc: dict) -> str:
    """One ``repro top`` frame out of the ``/metrics`` JSON document."""
    from repro.obs.metrics import histogram_quantile

    families = doc.get("metrics", {})
    jobs = doc.get("jobs", {})
    lines = [
        f"queue depth {doc.get('queue_depth', 0)}    "
        f"active leases {doc.get('active_leases', 0)}    "
        f"sse streams {doc.get('sse_streams', 0)}",
        "jobs  " + "  ".join(
            f"{state}={jobs.get(state, 0)}"
            for state in ("queued", "running", "done", "failed", "cancelled")
        ),
        f"store  results {doc.get('results', 0)}  "
        f"certificates {doc.get('certificates', 0)}  "
        f"traces {doc.get('traces', 0)}",
    ]
    wins = families.get("repro_jobs_won_total", {}).get("samples", [])
    if wins:
        lines.append("")
        lines.append(f"{'method':<14}{'verdict':<12}{'jobs':>6}")
        for sample in wins:
            labels = sample.get("labels", {})
            lines.append(
                f"{labels.get('method', '?'):<14}"
                f"{labels.get('verdict', '?'):<12}"
                f"{int(sample.get('value', 0)):>6}"
            )
    latency = families.get("repro_job_latency_seconds", {}).get("samples", [])
    if latency:
        lines.append("")
        lines.append(
            f"{'method':<14}{'runs':>6}{'mean':>10}{'p50':>10}{'p95':>10}"
        )
        for sample in latency:
            labels = sample.get("labels", {})
            buckets = sample.get("buckets", [])
            count = sample.get("count", 0)
            mean = sample.get("sum", 0.0) / count if count else 0.0
            lines.append(
                f"{labels.get('method', '?'):<14}{count:>6}"
                f"{mean * 1000:>8.1f}ms"
                f"{histogram_quantile(0.5, buckets) * 1000:>8.1f}ms"
                f"{histogram_quantile(0.95, buckets) * 1000:>8.1f}ms"
            )
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    base = args.url.rstrip("/")
    frames = 0
    while True:
        doc = _http_json(f"{base}/metrics")
        if args.iterations != 1:
            # Clear and home between frames; a single frame prints plain
            # (scripts and CI grep it).
            print("\x1b[2J\x1b[H", end="")
        print(_render_top(doc))
        frames += 1
        if args.iterations and frames >= args.iterations:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


# ---------------------------------------------------------------------- #
# Parser
# ---------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    # Engine and schedule choices come from the registries, so a newly
    # registered engine appears in the CLI without edits here.
    from repro.api.registry import engine_names
    from repro.core.schedule import scheduler_names
    from repro.portfolio.options import PortfolioOptions
    from repro.portfolio.policy import POLICIES, default_engines

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Circuit-based quantification for unbounded model checking "
            "(Cabodi et al., DATE 2005)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="structural summary of a netlist")
    p_info.add_argument("file")
    p_info.set_defaults(func=_cmd_info)

    p_convert = sub.add_parser(
        "convert", help="convert between .bench/.blif/native formats"
    )
    p_convert.add_argument("input")
    p_convert.add_argument("output")
    p_convert.set_defaults(func=_cmd_convert)

    p_engines = sub.add_parser(
        "engines",
        help="list the registered verification engines and their "
        "capability flags",
    )
    p_engines.add_argument(
        "--json",
        action="store_true",
        help="machine-readable registry (the /engines payload of the "
        "verification service)",
    )
    p_engines.set_defaults(func=_cmd_engines)

    p_mc = sub.add_parser("mc", help="model check an invariant")
    p_mc.add_argument("file")
    p_mc.add_argument(
        "--method",
        default="reach_aig",
        choices=list(engine_names()),
    )
    p_mc.add_argument(
        "--property",
        help="output/input name to assert invariantly true ('!name' negates)",
    )
    p_mc.add_argument("--max-depth", type=int, default=100)
    p_mc.add_argument(
        "--schedule",
        choices=scheduler_names(),
        help="quantification-scheduling heuristic for the reach engines "
        "(shared by the AIG and BDD image pipelines)",
    )
    p_mc.add_argument(
        "--trace",
        nargs="?",
        const=True,
        default=False,
        metavar="PATH",
        help="print the counterexample states; with a PATH, also record "
        "the run into a Chrome trace_event JSON file there "
        "(chrome://tracing / Perfetto); pass after the input file",
    )
    p_mc.add_argument(
        "--report",
        nargs="?",
        const=True,
        default=None,
        metavar="PATH",
        help="print a post-run report (timeline, per-phase breakdown, "
        "peak gauges); with a PATH, write the machine-readable JSON "
        "document there instead",
    )
    p_mc.add_argument(
        "--workers",
        type=int,
        help="conquer-pool size for --method cnc (0 solves in-process)",
    )
    p_mc.add_argument(
        "--stats",
        action="store_true",
        help="print the engine's stats bag to stderr",
    )
    p_mc.add_argument(
        "--minimize",
        action="store_true",
        help="don't-care-minimize the counterexample inputs",
    )
    p_mc.set_defaults(func=_cmd_mc)

    p_port = sub.add_parser(
        "portfolio",
        help="race several engines over one or more designs, with caching",
    )
    p_port.add_argument("files", nargs="+", metavar="FILE")
    p_port.add_argument(
        "--engines",
        help="comma-separated engine list "
        f"(default: {','.join(default_engines())})",
    )
    p_port.add_argument(
        "--policy",
        default="race_all",
        choices=list(POLICIES),
    )
    p_port.add_argument(
        "--timeout",
        type=float,
        default=PortfolioOptions.budget,
        help="per-engine wall-clock budget in seconds",
    )
    p_port.add_argument(
        "--jobs", type=int, help="max concurrent engine workers"
    )
    p_port.add_argument(
        "--cache", metavar="PATH", help="persistent JSON-lines result cache"
    )
    p_port.add_argument("--max-depth", type=int, default=100)
    p_port.add_argument(
        "--property",
        help="output/input/latch name asserted invariantly true "
        "('!name' negates); applied to every file",
    )
    p_port.add_argument(
        "--fraig",
        action="store_true",
        help="FRAIG-preprocess the cones before dispatch",
    )
    p_port.add_argument(
        "--stats",
        action="store_true",
        help="print the aggregated portfolio stats bag to stderr",
    )
    p_port.set_defaults(func=_cmd_portfolio)

    p_quant = sub.add_parser(
        "quantify", help="existentially quantify inputs out of an output cone"
    )
    p_quant.add_argument("file")
    p_quant.add_argument("--output", required=True, help="root signal")
    p_quant.add_argument(
        "--vars", required=True, help="comma-separated input names"
    )
    p_quant.add_argument(
        "--preset",
        default="full",
        choices=["shannon", "hash", "bdd", "sat", "full"],
    )
    p_quant.add_argument(
        "--schedule",
        default="min_dependence",
        choices=scheduler_names(),
    )
    p_quant.set_defaults(func=_cmd_quantify)

    p_fraig = sub.add_parser(
        "fraig", help="functionally reduce the output cones"
    )
    p_fraig.add_argument("file")
    p_fraig.set_defaults(func=_cmd_fraig)

    p_serve = sub.add_parser(
        "serve",
        help="run the verification service: durable store, job queue, "
        "HTTP JSON API, worker fleet",
    )
    p_serve.add_argument("store", help="path of the SQLite service store")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8349)
    p_serve.add_argument(
        "--workers", type=int, default=2,
        help="worker processes draining the queue (0 = front only)",
    )
    p_serve.add_argument(
        "--lease", type=float, default=30.0,
        help="worker lease seconds (crash-recovery latency bound)",
    )
    p_serve.add_argument(
        "--max-pending", type=int, default=1024,
        help="queued-job bound; past it, submits are rejected with "
        "retry-after (backpressure)",
    )
    p_serve.add_argument(
        "--trace-jobs", action="store_true",
        help="workers record an obs trace per job, stored "
        "content-addressed and served at GET /jobs/<id>/trace",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit a circuit to a verification service"
    )
    p_submit.add_argument("file")
    target = p_submit.add_mutually_exclusive_group(required=True)
    target.add_argument("--url", help="service base URL (http://host:port)")
    target.add_argument(
        "--store", help="enqueue directly into a store file (no server)"
    )
    p_submit.add_argument(
        "--method", default="portfolio", choices=list(engine_names())
    )
    p_submit.add_argument("--max-depth", type=int, default=100)
    p_submit.add_argument("--timeout", type=float)
    p_submit.add_argument("--priority", type=int, default=0)
    p_submit.add_argument(
        "--namespace", default="", help="tenant namespace for cache isolation"
    )
    p_submit.add_argument("--name", help="display name (default: file stem)")
    p_submit.add_argument(
        "--property",
        help="output/input/latch name asserted invariantly true "
        "('!name' negates)",
    )
    p_submit.add_argument(
        "--wait", action="store_true",
        help="poll until the job is terminal; exit like 'repro mc' "
        "(0 proved / 1 failed / 3 unknown or cancelled)",
    )
    p_submit.add_argument("--poll", type=float, default=0.2)
    p_submit.set_defaults(func=_cmd_submit)

    p_jobs = sub.add_parser(
        "jobs", help="list a verification service's job table"
    )
    jobs_target = p_jobs.add_mutually_exclusive_group(required=True)
    jobs_target.add_argument("--url", help="service base URL")
    jobs_target.add_argument("--store", help="store file (no server needed)")
    p_jobs.add_argument(
        "--state", choices=["queued", "running", "done", "failed",
                            "cancelled"],
    )
    p_jobs.add_argument("--json", action="store_true")
    p_jobs.add_argument(
        "--follow", type=int, metavar="JOB_ID",
        help="stream one job's events live over SSE (needs --url); "
        "exits on the terminal event like 'repro submit --wait'",
    )
    p_jobs.set_defaults(func=_cmd_jobs)

    p_top = sub.add_parser(
        "top",
        help="live fleet telemetry: queue depth, leases, per-engine "
        "wins and latency quantiles from a service's /metrics",
    )
    p_top.add_argument("--url", required=True, help="service base URL")
    p_top.add_argument("--interval", type=float, default=2.0)
    p_top.add_argument(
        "--iterations", type=int, default=0,
        help="frames to render (0 = until interrupted; 1 prints a "
        "single plain frame without clearing the screen)",
    )
    p_top.set_defaults(func=_cmd_top)

    p_atpg = sub.add_parser(
        "atpg", help="stuck-at fault campaign on the output cones"
    )
    p_atpg.add_argument("file")
    p_atpg.add_argument("--words", type=int, default=4)
    p_atpg.add_argument("--rounds", type=int, default=4)
    p_atpg.add_argument("--verbose", action="store_true")
    p_atpg.set_defaults(func=_cmd_atpg)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
