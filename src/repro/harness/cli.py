"""Command-line interface: run sweeps, cache results, render figures.

Examples::

    repro-harness list
    repro-harness run --scale tiny --figures fig2,fig7 --out results.csv
    repro-harness run --scale small --all --out sweep.csv
    repro-harness report --results sweep.csv --scale small --figures all
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..malleability.config import ALL_CONFIGS
from ..sanitize import static_check
from ..synthetic.presets import SCALES
from .experiments import EXPERIMENTS, pairs_for
from .expmd import experiments_markdown, headline_speedups
from .report import figure_report
from .runner import ResultSet, run_sweep

__all__ = ["main"]


def _workers_arg(text: str):
    """``--workers`` value: a positive int or the literal ``auto``."""
    if text.strip().lower() == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be an integer or 'auto', not {text!r}"
        ) from None


def _parse_figures(text: str) -> list[str]:
    if text == "all":
        return list(EXPERIMENTS)
    figs = [f.strip() for f in text.split(",") if f.strip()]
    unknown = [f for f in figs if f not in EXPERIMENTS]
    if unknown:
        raise SystemExit(
            f"unknown figures: {unknown}; choose from {sorted(EXPERIMENTS)}"
        )
    return figs


def cmd_list(_args) -> int:
    print(f"{'id':6s} {'paper':10s} description")
    for exp_id, spec in EXPERIMENTS.items():
        print(f"{exp_id:6s} {spec.paper_ref:10s} {spec.description}")
    print("\nscales:", ", ".join(SCALES))
    print("configurations:", ", ".join(c.key for c in ALL_CONFIGS))
    return 0


def cmd_run(args) -> int:
    figures = _parse_figures(args.figures)
    pairs: set[tuple[int, int]] = set()
    fabrics: set[str] = set()
    keys: set[str] = set()
    for fig in figures:
        spec = EXPERIMENTS[fig]
        pairs.update(pairs_for(spec, args.scale))
        fabrics.update(spec.fabrics)
        keys.update(spec.config_keys)
    # alpha figures need the sync counterparts too — config_keys already
    # include everything (the registry lists _ALL for fig4/5).
    progress = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
    registry = None
    if getattr(args, "metrics_out", None):
        from ..obs import MetricsRegistry

        registry = MetricsRegistry()
    cache = None if args.no_cache else args.cache
    try:
        rs = run_sweep(
            sorted(pairs),
            sorted(keys),
            sorted(fabrics),
            scale=args.scale,
            repetitions=args.reps,
            progress=progress,
            workers=args.workers,
            metrics=registry,
            faults=args.faults or "",
            sanitize=args.sanitize,
            cache=cache,
        )
    except Exception as exc:
        from ..sanitize import SanitizerError

        if not isinstance(exc, SanitizerError):
            raise
        print(exc, file=sys.stderr)
        return 1
    if args.sanitize:
        print("sanitizer: no findings")
    out_path = Path(args.out)
    if args.append and out_path.exists():
        rs = ResultSet.from_csv(out_path).merge(rs)
    rs.to_csv(out_path)
    print(f"wrote {len(rs)} results to {args.out}")
    if registry is not None:
        from ..obs import write_metrics_json

        write_metrics_json(
            registry, args.metrics_out, meta={"scale": args.scale}
        )
        print(f"wrote aggregated metrics to {args.metrics_out}")
    return 0


def cmd_observe(args) -> int:
    """One instrumented run: metrics.json + Perfetto trace + ASCII summary."""
    from ..analysis.obs_summary import metrics_summary
    from ..obs import MetricsRegistry, build_metrics_doc, write_metrics_json
    from ..trace.recorder import Tracer
    from .runner import RunSpec, run_one

    spec = RunSpec(
        args.ns, args.nt, args.config, args.fabric, args.scale, args.rep,
        faults=getattr(args, "faults", None) or "",
    )
    registry = MetricsRegistry()
    tracer = Tracer()
    sanitizer = None
    if args.sanitize:
        from ..sanitize import Sanitizer

        sanitizer = Sanitizer()
    result = run_one(spec, metrics=registry, tracer=tracer, sanitizer=sanitizer)
    # Replay the per-stage reconfiguration spans into Perfetto lanes.
    registry.feed_tracer(tracer)
    write_metrics_json(registry, args.metrics_out)
    Path(args.trace_out).write_text(tracer.to_chrome_trace())
    print(f"{spec.config.name}: {spec.ns} -> {spec.nt} on {args.fabric} "
          f"({args.scale} scale)")
    print(f"  reconfig {result.reconfig_time:.6f}s  app {result.app_time:.6f}s")
    print(f"wrote {args.metrics_out} and {args.trace_out}\n")
    print(metrics_summary(build_metrics_doc(registry)))
    if sanitizer is not None:
        print()
        print(sanitizer.report())
        if sanitizer.findings:
            return 1
    return 0


def cmd_report(args) -> int:
    if args.metrics:
        import json

        from ..analysis.obs_summary import metrics_summary
        from ..obs import validate_metrics

        doc = json.loads(Path(args.metrics).read_text())
        validate_metrics(doc)
        print(metrics_summary(doc))
        if not args.results:
            return 0
    if not args.results:
        raise SystemExit("report needs --results and/or --metrics")
    rs = ResultSet.from_csv(Path(args.results))
    figures = _parse_figures(args.figures)
    for fig in figures:
        try:
            print(figure_report(fig, rs, args.scale))
        except KeyError as missing:
            print(
                f"-- {fig}: results missing a needed cell ({missing}); "
                f"re-run with --figures {fig}",
                file=sys.stderr,
            )
        print()
    if args.headline:
        print("== Headline speedups (paper: 1.14x Ethernet, 1.21x Infiniband) ==")
        for fabric, (name, value) in headline_speedups(rs, args.scale).items():
            print(f"  {fabric}: {value:.3f}x with {name}")
    return 0


def cmd_experiments_md(args) -> int:
    rs = ResultSet.from_csv(Path(args.results))
    text = experiments_markdown(rs, args.scale)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_predict(args) -> int:
    """Closed-form reconfiguration estimate (no simulation)."""
    from ..analysis.models import predict_reconfiguration
    from ..cluster.fabrics import fabric_by_name
    from ..redistribution.plan import RedistributionPlan
    from ..synthetic.presets import SCALES as _SCALES, cg_emulation_config

    preset = _SCALES[args.scale]
    cfg = cg_emulation_config(args.scale)
    plan = RedistributionPlan.block(cfg.n_rows, args.ns, args.nt)
    bytes_per_row = cfg.total_bytes / cfg.n_rows
    pred = predict_reconfiguration(
        plan,
        bytes_per_row,
        fabric_by_name(args.fabric),
        preset.spawn_model,
        preset.cores_per_node,
        method=args.method,
        merge=not args.baseline,
    )
    spawn_method = "Baseline" if args.baseline else "Merge"
    print(f"{spawn_method} {args.method.upper()}S {args.ns} -> {args.nt} "
          f"on {args.fabric} ({args.scale} scale):")
    print(f"  spawn          : {pred.spawn * 1e3:10.3f} ms")
    print(f"  redistribution : {pred.redistribution * 1e3:10.3f} ms")
    print(f"  total          : {pred.total * 1e3:10.3f} ms")
    if args.baseline:
        print("(Baseline's groups are disjoint: index-equal chunks cross the "
              "wire too)")
    print("(uncontended closed form; a simulation adds CPU/network contention)")
    return 0


def cmd_rmsim(args) -> int:
    """Trace-driven datacenter RMS simulation (docs/rmsim.md)."""
    from ..analysis.rmsim_summary import schedule_summary, summary_json
    from ..cluster.fabrics import fabric_by_name
    from ..rmsim import (
        TraceConfig,
        TraceScheduler,
        WorkloadTrace,
        generate_trace,
        policy_by_name,
    )

    total_slots = args.nodes * args.cores_per_node
    if args.trace:
        trace = WorkloadTrace.load(args.trace)
    else:
        cfg = TraceConfig.sized(
            total_slots, args.jobs, seed=args.seed, load=args.load
        )
        trace = generate_trace(cfg)
    if args.save_trace:
        trace.save(args.save_trace)
    registry = None
    if args.metrics_out:
        from ..obs import MetricsRegistry

        registry = MetricsRegistry()
    sched = TraceScheduler(
        total_slots,
        trace.jobs,
        policy=policy_by_name(args.policy),
        fabric=fabric_by_name(args.fabric),
        cores_per_node=args.cores_per_node,
        registry=registry,
    )
    result = sched.run()
    summary = schedule_summary(result)
    summary["trace"] = {
        "n_jobs": len(trace.jobs),
        "source": args.trace or "generated",
        "seed": trace.meta.get("config", {}).get("seed"),
    }
    text = summary_json(summary)
    if args.out:
        Path(args.out).write_text(text)
    if registry is not None:
        from ..obs.export import write_metrics_json

        write_metrics_json(
            registry,
            args.metrics_out,
            meta={"tool": "repro-harness rmsim", "policy": args.policy},
        )
    w = summary["waiting_s"]
    print(
        f"{args.policy} on {args.nodes}x{args.cores_per_node} cores, "
        f"{summary['n_completed']}/{summary['n_jobs']} jobs:"
    )
    print(f"  makespan      : {summary['makespan_s']:12.1f} s")
    print(f"  utilization   : {summary['utilization']:12.3f}")
    print(f"  energy        : {summary['energy_j'] / 3.6e6:12.3f} kWh")
    print(f"  wait mean/p95 : {w['mean']:8.1f} / {w['p95']:.1f} s")
    print(
        f"  events        : {summary['n_events']:8d}  "
        f"(grows {summary['n_grows']}, shrinks {summary['n_shrinks']})"
    )
    if args.out:
        print(f"  summary JSON  : {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description="Regenerate the figures of 'Efficient data redistribution "
        "for malleable applications' (SC-W 2023) on the simulated substrate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list experiments, scales, configs")
    p_list.set_defaults(fn=cmd_list)

    p_run = sub.add_parser("run", help="run the sweeps a set of figures needs")
    p_run.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    p_run.add_argument("--figures", default="all",
                       help="comma-separated figure ids, or 'all'")
    p_run.add_argument("--reps", type=int, default=None,
                       help="override the scale's repetition count")
    p_run.add_argument("--out", default="results.csv")
    p_run.add_argument(
        "--workers", type=_workers_arg, default=None, metavar="N|auto",
        help="fan the sweep out over N processes, or 'auto' for "
        "min(cpu_count, cells); results are bit-identical to a sequential "
        "run; N<=1 or N>cells falls back to sequential (default: sequential)",
    )
    p_run.add_argument(
        "--cache", default=".repro-cache", metavar="DIR",
        help="cell-result cache directory (default: .repro-cache); cache "
        "hits replay a cell's exact result row and metrics document, so "
        "cached sweeps stay byte-identical to fresh ones",
    )
    p_run.add_argument(
        "--no-cache", action="store_true",
        help="disable the cell-result cache (every cell re-simulates)",
    )
    p_run.add_argument("--verbose", action="store_true")
    p_run.add_argument("--append", action="store_true",
                       help="merge into an existing results CSV")
    p_run.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="also aggregate an obs metrics registry across the sweep and "
        "write it as metrics.json (works with --workers; merge is "
        "deterministic)",
    )
    p_run.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="seeded fault schedule applied to every cell, e.g. "
        "'crash@redist+0.002:node=1' or "
        "'spawnfail:attempt=0;degrade@1:node=0,factor=0.5' "
        "(see docs/faults.md); adds faults/retries/recovery_time columns",
    )
    p_run.add_argument(
        "--sanitize", action="store_true",
        help="attach the MPI-correctness sanitizer to every cell "
        "(docs/sanitizer.md); any SAN finding fails the sweep with a "
        "full report and exit code 1",
    )
    p_run.set_defaults(fn=cmd_run)

    p_obs = sub.add_parser(
        "observe",
        help="one fully instrumented run: metrics.json + Perfetto trace "
        "+ ASCII metrics summary",
    )
    p_obs.add_argument("--ns", type=int, default=2)
    p_obs.add_argument("--nt", type=int, default=4)
    p_obs.add_argument("--config", default="merge-col-t",
                       help="configuration key or name (e.g. 'Merge COLT')")
    p_obs.add_argument("--fabric", choices=["ethernet", "infiniband"],
                       default="ethernet")
    p_obs.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    p_obs.add_argument("--rep", type=int, default=0)
    p_obs.add_argument("--metrics-out", default="metrics.json")
    p_obs.add_argument("--trace-out", default="trace.json")
    p_obs.add_argument("--faults", default=None, metavar="SPEC",
                       help="seeded fault schedule for the run")
    p_obs.add_argument(
        "--sanitize", action="store_true",
        help="attach the MPI-correctness sanitizer; findings are printed "
        "after the metrics summary, flushed into metrics.json as "
        "sanitizer_findings{rule=...}, and flip the exit code to 1",
    )
    p_obs.set_defaults(fn=cmd_observe)

    p_rep = sub.add_parser("report", help="render figures from cached results")
    p_rep.add_argument("--results", default=None)
    p_rep.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    p_rep.add_argument("--figures", default="all")
    p_rep.add_argument("--headline", action="store_true",
                       help="print the abstract's speedup numbers")
    p_rep.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="print the ASCII summary of a metrics.json document "
        "(alone or alongside --results)",
    )
    p_rep.set_defaults(fn=cmd_report)

    p_md = sub.add_parser(
        "experiments-md",
        help="generate the EXPERIMENTS.md paper-vs-measured record",
    )
    p_md.add_argument("--results", required=True)
    p_md.add_argument("--scale", choices=sorted(SCALES), default="small")
    p_md.add_argument("--out", default=None)
    p_md.set_defaults(fn=cmd_experiments_md)

    p_rms = sub.add_parser(
        "rmsim",
        help="trace-driven datacenter RMS simulation (docs/rmsim.md)",
    )
    p_rms.add_argument(
        "--trace", default=None, metavar="PATH",
        help="replay a saved trace JSON (default: generate one from "
        "--jobs/--seed/--load)",
    )
    p_rms.add_argument("--nodes", type=int, default=64,
                       help="cluster nodes (default: 64)")
    p_rms.add_argument("--cores-per-node", type=int, default=16)
    p_rms.add_argument("--jobs", type=int, default=200,
                       help="jobs to generate when no --trace is given")
    p_rms.add_argument("--seed", type=int, default=0)
    p_rms.add_argument(
        "--load", type=float, default=0.85,
        help="target offered load of the generated trace (default: 0.85)",
    )
    p_rms.add_argument(
        "--policy", choices=["fifo", "priority", "easy", "malleable"],
        default="malleable",
    )
    p_rms.add_argument("--fabric", choices=["ethernet", "infiniband"],
                       default="ethernet")
    p_rms.add_argument(
        "--save-trace", default=None, metavar="PATH",
        help="write the (generated or loaded) trace JSON here",
    )
    p_rms.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the canonical summary JSON here (byte-identical "
        "across repeat runs of the same trace + policy)",
    )
    p_rms.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="also write the rmsim.* obs metrics registry as metrics.json",
    )
    p_rms.set_defaults(fn=cmd_rmsim)

    p_pred = sub.add_parser(
        "predict",
        help="closed-form reconfiguration time estimate (no simulation)",
    )
    p_pred.add_argument("--ns", type=int, required=True)
    p_pred.add_argument("--nt", type=int, required=True)
    p_pred.add_argument("--fabric", choices=["ethernet", "infiniband"],
                        default="ethernet")
    p_pred.add_argument("--method", choices=["p2p", "col", "rma"], default="p2p")
    p_pred.add_argument("--baseline", action="store_true",
                        help="Baseline spawn method (default: Merge)")
    p_pred.add_argument("--scale", choices=sorted(SCALES), default="paper")
    p_pred.set_defaults(fn=cmd_predict)

    p_ver = sub.add_parser(
        "verify-plans",
        help="statically verify the redistribution schedules of the config "
        "matrix (STA0xx rules, no simulation; docs/sanitizer.md)",
        description="Static plan & protocol verifier (STA0xx): prove the "
        "redistribution schedules of the config matrix correct without "
        "executing the simulator; exit code 1 when findings exist.",
    )
    static_check.add_arguments(p_ver)
    p_ver.set_defaults(fn=static_check.run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
