"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``         run one A-DKG (``--transport sim|tcp``) and print
                the outcome + word/byte costs
``beacon``      pipelined ADKG epochs feeding a verifiable randomness
                beacon (the session-multiplexed service layer)
``sweep``       words/rounds across a range of n (quick Theorem-10 view)
``drill``       the Byzantine fault matrix (Theorems 1/3/4/5 in action)
``compare``     this work vs the Ω(n⁴) baseline (the Section-1 headline)
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import Any, Callable, Optional


def _guarded(
    args: argparse.Namespace, run: Callable[..., Any], *positional: Any, **keywords: Any
) -> tuple[Any, float]:
    """One library run for a ``run``/``beacon`` body: ``(report, seconds)``.

    Every failure the library reports — a missed deadline, a dead socket,
    a stalled or refused run, a bad parameter (``StorageError`` is a
    ``ValueError``) — becomes one ``error:`` line and ``(None, 0.0)``;
    the caller returns exit status 1.  ``--profile`` wraps whichever run it is.
    """
    profiler = None
    if getattr(args, "profile", False):
        import cProfile  # with pstats, 20 ms no other run should pay
        import pstats

        profiler = cProfile.Profile()
    started = time.perf_counter()
    try:
        if profiler is None:
            report = run(*positional, **keywords)
        else:
            report = profiler.runcall(run, *positional, **keywords)
    except (OSError, RuntimeError, ValueError) as exc:
        message = str(exc)
        if isinstance(exc, TimeoutError):  # an OSError; asyncio's carries no text
            message = (
                f"no agreement within {args.timeout}s on the "
                f"{args.transport} transport (raise --timeout?)"
            )
        print(f"error: {message}", file=sys.stderr)
        return None, 0.0
    elapsed = time.perf_counter() - started
    if profiler is not None:
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(20)
    return report, elapsed


def _parse_at(spec: str, flag: str, whole: bool = False) -> tuple[int, float]:
    """Parse one ``i@t`` CLI value into ``(party_index, t)``: ``t`` finite
    and not negative, and a ``whole`` number where it counts deliveries."""
    try:
        index_text, _, when_text = spec.partition("@")
        index, when = int(index_text), float(when_text)
        if not 0 <= when < math.inf or (whole and when != int(when)):
            raise ValueError(spec)
        return index, when
    except ValueError:
        print(
            f"error: {flag} expects i@t (party index @ time), got {spec!r}",
            file=sys.stderr,
        )
        raise SystemExit(2)  # usage error, matching the sibling validations


def _parse_crash(args: argparse.Namespace) -> Optional[dict]:
    """``--crash`` / ``--recover`` / ``--cadence`` as the keywords of one
    ``CrashPlan``: ``indices, after, delay, cadence``.

    All named parties crash together at the earliest threshold and
    recover together after the longest requested delay (default 5).
    ``None`` (after the ``error:`` line) when they name different parties.
    """
    crashes = [_parse_at(spec, "--crash", whole=True) for spec in args.crash]
    recovers = dict(_parse_at(spec, "--recover") for spec in (args.recover or []))
    indices = tuple(index for index, _t in crashes)
    unknown = set(recovers) - set(indices)
    if unknown:
        print(
            f"error: --recover names parties that never crash: {sorted(unknown)}",
            file=sys.stderr,
        )
        return None
    return {
        "indices": indices,
        "after": int(min(t for _i, t in crashes)),
        "delay": max(recovers.values(), default=5.0),
        "cadence": 16 if args.cadence is None else args.cadence,
    }


def _cmd_run_with_recovery(args: argparse.Namespace, chaos, crash: dict) -> int:
    """``repro run --crash i@t [--recover i@t]``: the durable-recovery path."""
    from repro.storage import run_crash_recovery

    report, elapsed = _guarded(
        args,
        run_crash_recovery,
        transport=args.transport,
        n=args.n,
        seed=args.seed,
        crash_indices=crash["indices"],
        crash_after=crash["after"],
        recovery_delay=crash["delay"],
        cadence=crash["cadence"],
        storage_dir=args.storage_dir,
        timeout=args.timeout,
        chaos=chaos,
    )
    if report is None:
        return 1
    unit = "rounds" if args.transport == "sim" else "s"
    print(
        f"n={report['n']} f={report['f']} seed={args.seed} "
        f"transport={report['transport']}"
    )
    print(f"crashed:           {report['crash_indices']} after "
          f"{report['crash_after']} deliveries (at {report['crash_at']:.1f} {unit})")
    print(f"recovered:         at {report['reattach_at']:.1f} {unit} "
          f"(snapshot cadence {report['cadence']})")
    for index, stats in report["replay"].items():
        print(
            f"  party {index}: thawed in {stats['thaw_seconds'] * 1000:.1f}ms, "
            f"replayed {stats['wal_records']} WAL records "
            f"in {stats['replay_seconds'] * 1000:.1f}ms "
            f"({stats['suppressed_sends']} duplicate sends suppressed), "
            f"{report['parked_delivered'][index]} parked deliveries drained"
        )
    print(f"agreed:            {report['agreement']}")
    print(f"transcript valid:  {report['valid']}")
    print(f"recovery latency:  {report['recovery_latency']:.2f} {unit}")
    print(f"done at:           {report['rounds']:.2f} {unit}")
    print(f"words sent:        {report['words_total']:,}")
    print(f"wall clock:        {elapsed:.2f}s")
    return 0 if report["agreement"] and report["valid"] else 1


def _cmd_churn(
    args: argparse.Namespace, *, epochs: int, rounds: int, overlays: dict
) -> int:
    """``repro run --reshare`` / ``repro beacon --churn``: handoff epochs."""
    from repro.service import run_churn

    report, elapsed = _guarded(
        args,
        run_churn,
        args.n,
        epochs=epochs,
        churn=args.churn,
        rounds_per_epoch=rounds,
        transport=args.transport,
        seed=args.seed,
        timeout=args.timeout,
        storage_dir=getattr(args, "storage_dir", None),
        **overlays,
    )
    if report is None:
        return 1
    membership = report.membership
    unit = "rounds" if args.transport == "sim" else "s"
    print(
        f"universe={args.n} transport={args.transport} "
        f"seed={args.seed} epochs={len(membership.results)} "
        f"handoffs={membership.handoffs}"
    )
    for result in membership.results:
        mode = "adkg" if result.epoch == 0 else "reshare"
        overlays = ""
        if result.epoch in membership.chaos_epochs:
            overlays += " +chaos"
        if result.epoch in membership.crash_epochs:
            overlays += " +crash"
        print(
            f"epoch {result.epoch} ({mode}): "
            f"committee={list(result.committee)} f={result.threshold} "
            f"[{result.started_at:.1f}, {result.completed_at:.1f}] {unit}"
            f"{overlays}"
        )
    for output in report.outputs:
        print(f"  beacon {output.epoch}.{output.round}: {output.value:032x}")
    print(f"group key:          {membership.key_encoded.hex()[:40]}")
    print(f"key invariant:      {membership.key_invariant}")
    print(f"chain verified:     {report.all_verified}")
    print(f"wall clock:         {elapsed:.2f}s")
    return 0 if report.all_verified else 1


def _cmd_run(args: argparse.Namespace) -> int:
    from repro import run_adkg

    if args.full and args.transport != "sim":
        print("error: --full applies to the sim transport only", file=sys.stderr)
        return 2
    for flag, given in (
        ("--recover", args.recover),
        ("--cadence", args.cadence is not None),
        ("--storage-dir", args.storage_dir is not None),
    ):
        if given and not args.crash:
            print(f"error: {flag} requires --crash", file=sys.stderr)
            return 2
    if args.cadence is not None and args.cadence < 1:
        print("error: --cadence must be >= 1", file=sys.stderr)
        return 2
    if args.churn and args.reshare is None:
        print("error: --churn requires --reshare EPOCHS", file=sys.stderr)
        return 2
    if args.reshare is not None and args.reshare < 1:
        print("error: --reshare expects >= 1 epochs", file=sys.stderr)
        return 2
    # --chaos, --crash and --reshare compose freely; --full, a diagnostic
    # of one plain ADKG, is all that is refused beside them.
    if args.full and (args.reshare is not None or args.crash):
        print(
            "error: --full is incompatible with --crash/--reshare "
            "(it describes one committee's single ADKG)",
            file=sys.stderr,
        )
        return 2
    chaos = None
    if args.chaos:
        from repro.net.chaos import ChaosSpec

        try:
            chaos = ChaosSpec.parse(args.chaos)
        except ValueError as exc:
            print(f"error: --chaos: {exc}", file=sys.stderr)
            return 2
    crash = None
    if args.crash:
        crash = _parse_crash(args)
        if crash is None:
            return 2
    if args.reshare is not None:
        from repro.service.membership import handoff_overlays

        try:
            overlays = handoff_overlays(args.reshare, chaos, crash)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.reshare is not None:
        return _cmd_churn(args, epochs=args.reshare, rounds=1, overlays=overlays)
    if crash is not None:
        return _cmd_run_with_recovery(args, chaos, crash)
    result, elapsed = _guarded(
        args,
        run_adkg,
        n=args.n,
        seed=args.seed,
        to_quiescence=args.full,
        transport=args.transport,
        measure_bytes=True,
        timeout=args.timeout,
        chaos=chaos,
    )
    if result is None:
        return 1
    summary = result.metrics_summary
    print(f"n={result.n} f={result.f} seed={args.seed} transport={result.transport}")
    print(f"agreed:        {result.agreed}")
    print(f"contributors:  {sorted(result.transcript.contributors)}")
    print(f"words sent:    {result.words_total:,}")
    print(f"messages sent: {result.messages_total:,}")
    if result.bytes_total:
        print(f"protocol bytes: {result.bytes_total:,}")
    if summary["frames_total"]:
        print(
            f"wire frames:   {summary['frames_total']:,} "
            f"(saved {summary['frames_saved']:,}, "
            f"{summary['batch_occupancy_mean']:.1f} envelopes/frame, "
            f"max {summary['batch_occupancy_max']})"
        )
    if summary["wire_bytes_total"]:
        print(
            f"wire bytes:    {summary['wire_bytes_total']:,} "
            f"(saved {summary['wire_bytes_saved']:,})"
        )
    counters = summary.get("counters", {})
    chaos_counts = counters.get("chaos", {})
    if chaos_counts:
        injected = ", ".join(
            f"{name}={count:,}" for name, count in sorted(chaos_counts.items())
        )
        print(f"chaos faults:  {injected}")
    tcp_counts = counters.get("tcp", {})
    if tcp_counts:
        health = ", ".join(
            f"{name}={count:,}" for name, count in sorted(tcp_counts.items())
        )
        print(f"tcp health:    {health}")
    print(f"async rounds:  {result.rounds:.0f}")
    print(f"NWH views:     {result.views}")
    print(f"wall clock:    {elapsed:.2f}s")
    return 0 if result.agreed else 1


def _cmd_beacon(args: argparse.Namespace) -> int:
    from repro.service import run_beacon

    depth = 2 if args.pipeline_depth is None else args.pipeline_depth
    if depth < 1 or args.epochs < 1 or args.rounds < 1:
        print(
            "error: --epochs, --pipeline-depth and --rounds must be >= 1",
            file=sys.stderr,
        )
        return 2
    if args.pipeline_depth is not None and args.churn is not None:
        # Churned epochs run one at a time on each transport.
        print(
            "error: --pipeline-depth applies to the plain beacon only, "
            "not beside --churn",
            file=sys.stderr,
        )
        return 2
    if args.churn is not None:
        return _cmd_churn(args, epochs=args.epochs, rounds=args.rounds, overlays={})
    report, _elapsed = _guarded(
        args,
        run_beacon,
        n=args.n,
        epochs=args.epochs,
        pipeline_depth=depth,
        rounds_per_epoch=args.rounds,
        transport=args.transport,
        seed=args.seed,
        timeout=args.timeout,
    )
    if report is None:
        return 1
    unit = "rounds" if args.transport == "sim" else "s"
    print(
        f"n={report.n} f={report.f} seed={report.seed} "
        f"transport={report.transport} epochs={report.epochs} "
        f"pipeline-depth={report.pipeline_depth}"
    )
    for result in report.epoch_results:
        key = result.public_key
        print(
            f"epoch {result.epoch}: key established "
            f"[{result.started_at:.1f}, {result.completed_at:.1f}] {unit}"
            + (f"  pk={str(key)[:40]}" if key is not None else "")
        )
    for output in report.outputs:
        print(
            f"  beacon {output.epoch}.{output.round}: {output.value:032x}"
        )
    print(f"beacon outputs verified:  {report.all_verified}")
    print(f"end-to-end:               {report.end_to_end:.2f} {unit}")
    print(f"mean epoch latency:       {report.mean_epoch_latency:.2f} {unit}")
    print(f"epochs/sec (wall clock):  {report.epochs_per_sec:.2f}")
    print(f"words sent:               {report.words_total:,}")
    if report.bytes_total:
        print(f"protocol bytes:           {report.bytes_total:,}")
    return 0 if report.all_verified else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.complexity import fit_power_law
    from repro.analysis.experiments import e6_adkg
    from repro.analysis.tables import render_table

    ns = list(range(args.min_n, args.max_n + 1, 3))
    rows = e6_adkg(ns, seeds=(args.seed,)).rows
    print(render_table(rows, columns=["n", "mean_words", "mean_rounds", "mean_views"]))
    fit = fit_power_law([r["n"] for r in rows], [r["mean_words"] for r in rows])
    print(f"\nfitted words ~ n^{fit.exponent:.2f}  (paper: Õ(n³))")
    return 0


def _cmd_drill(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import e8_fault_matrix
    from repro.analysis.tables import render_table

    rows = e8_fault_matrix(((args.n, args.seed),)).rows
    print(
        render_table(
            rows, columns=["fault", "honest_outputs", "agreement", "valid", "rounds"]
        )
    )
    ok = all(row["agreement"] and row["valid"] for row in rows)
    print(f"\nsafety held in every case: {ok}")
    return 0 if ok else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import e7_baseline
    from repro.analysis.tables import render_table

    section = e7_baseline(list(range(args.min_n, args.max_n + 1, 3)), seed=args.seed)
    print(render_table(section.rows, columns=section.columns))
    for finding in section.findings:
        print(f"\n{finding}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.net.transport import TRANSPORT_KINDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="A-DKG reproduction (Abraham et al., PODC 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one A-DKG over a chosen transport")
    run_p.add_argument("-n", type=int, default=7, help="number of parties")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--transport",
        choices=TRANSPORT_KINDS,
        default="sim",
        help="runtime: deterministic simulator or TCP sockets",
    )
    run_p.add_argument(
        "--full",
        action="store_true",
        help="run to quiescence (count all words; sim transport only)",
    )
    run_p.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="wall-clock limit on tcp (seconds)",
    )
    run_p.add_argument(
        "--profile",
        action="store_true",
        help="wrap the run (whichever the other flags select) in cProfile and "
        "print the top-20 cumulative entries",
    )
    run_p.add_argument(
        "--chaos",
        metavar="SPEC",
        help="link-fault plane spec, e.g. 'partition:0|1,2,3@2-20;drop:0.05' "
        "(clauses: partition, partition-oneway, drop, dup, reorder, corrupt, "
        "delay; times are rounds on sim, seconds on tcp); "
        "composes with --crash and --reshare (the handoff epochs)",
    )
    run_p.add_argument(
        "--crash",
        action="append",
        metavar="I@T",
        help="crash party I (losing its memory) after it processed T network "
        "deliveries; repeatable — all named parties crash together at the "
        "earliest T, each recovering from its snapshot + WAL; with --reshare "
        "in every handoff epoch",
    )
    run_p.add_argument(
        "--recover",
        action="append",
        metavar="I@T",
        help="reattach the crashed parties after T rounds (sim) / seconds "
        "(tcp) measured from the crash; all crashed parties recover "
        "together at the largest requested T (default 5)",
    )
    run_p.add_argument(
        "--reshare",
        type=int,
        default=None,
        metavar="EPOCHS",
        help="run EPOCHS membership epochs: a fresh ADKG, then proactive "
        "resharing handoffs that keep the group key byte-identical "
        "(DESIGN section 13); --chaos and --crash apply to the handoff "
        "epochs",
    )
    run_p.add_argument(
        "--churn",
        metavar="SPEC",
        help="committee churn schedule for --reshare, e.g. "
        "'join:6@1;leave:0@2;threshold:1@3' (event@epoch; epochs are 1-based "
        "because epoch 0 establishes the key)",
    )
    run_p.add_argument(
        "--cadence",
        type=int,
        default=None,
        help="snapshot every this many deliveries at crash-recovering parties "
        "(default 16; needs --crash)",
    )
    run_p.add_argument(
        "--storage-dir",
        default=None,
        help="directory for snapshots + WALs (default: a temp dir; needs "
        "--crash)",
    )
    run_p.set_defaults(func=_cmd_run)

    beacon_p = sub.add_parser(
        "beacon",
        help="pipelined ADKG epochs + verifiable randomness beacon",
    )
    beacon_p.add_argument("-n", type=int, default=7, help="number of parties")
    beacon_p.add_argument("--seed", type=int, default=0)
    beacon_p.add_argument(
        "--epochs", type=int, default=5, help="number of ADKG epochs (key rotations)"
    )
    beacon_p.add_argument(
        "--pipeline-depth",
        type=int,
        default=None,
        help="epochs in flight at once (default 2; 1 = strictly sequential); "
        "the plain beacon only, not with --churn",
    )
    beacon_p.add_argument(
        "--rounds", type=int, default=2, help="beacon rounds emitted per epoch"
    )
    beacon_p.add_argument(
        "--transport",
        choices=TRANSPORT_KINDS,
        default="sim",
        help="runtime: deterministic simulator or TCP sockets",
    )
    beacon_p.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="per-epoch wall-clock limit on tcp (seconds)",
    )
    beacon_p.add_argument(
        "--churn",
        metavar="SPEC",
        help="drive --epochs as membership epochs under this churn schedule "
        "(e.g. 'join:6@1;leave:0@2'); keys hand off by proactive resharing",
    )
    beacon_p.set_defaults(func=_cmd_beacon)

    sweep_p = sub.add_parser("sweep", help="words/rounds across n")
    sweep_p.add_argument("--min-n", type=int, default=4)
    sweep_p.add_argument("--max-n", type=int, default=13)
    sweep_p.add_argument("--seed", type=int, default=1)
    sweep_p.set_defaults(func=_cmd_sweep)

    drill_p = sub.add_parser("drill", help="Byzantine fault matrix")
    drill_p.add_argument("-n", type=int, default=4)
    drill_p.add_argument("--seed", type=int, default=1)
    drill_p.set_defaults(func=_cmd_drill)

    compare_p = sub.add_parser("compare", help="vs the Ω(n⁴) baseline")
    compare_p.add_argument("--min-n", type=int, default=4)
    compare_p.add_argument("--max-n", type=int, default=10)
    compare_p.add_argument("--seed", type=int, default=1)
    compare_p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
