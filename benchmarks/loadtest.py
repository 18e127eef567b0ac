"""Ramp load test: find the tick-deadline breaking point of one world.

Real-time games have a hard per-tick budget (Section 2: the tick loop must
finish before the next frame).  This driver answers the capacity question
"how many entities and subscribers can one world carry before it misses
that budget?" by growing a single RTS world in place — spawning more units
and attaching more fog-of-war subscribers each step — and timing a batch of
ticks at every size.  The ramp stops at the first step whose *median* tick
time exceeds ``--deadline-ms`` (median, not max, so one GC pause cannot end
the run early) and reports that breaking point together with the
per-phase latency percentiles (p50/p95/p99) accumulated by the live
metrics registry over the whole ramp — the same
``repro_tick_phase_seconds`` histograms a Prometheus scrape sees.

The result is appended to the ``history`` list of ``BENCH_tick.json`` (the
artifact ``ci_bench.py`` maintains), so capacity trends ride along with the
speedup trajectory.  Absolute numbers are machine-dependent and never
gated; the artifact records them for trend reading only.

Usage::

    python benchmarks/loadtest.py                        # defaults
    python benchmarks/loadtest.py --deadline-ms 25 --growth 200
    python benchmarks/loadtest.py --trace ramp.trace.json  # Perfetto trace
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro import ExecutionMode  # noqa: E402
from repro.workloads.rts import attach_fog_of_war, build_rts_world, unit_rows  # noqa: E402

__all__ = ["run_loadtest", "append_history", "main"]


def run_loadtest(
    *,
    start_units: int = 100,
    growth: int = 100,
    max_steps: int = 12,
    ticks_per_step: int = 5,
    deadline_ms: float = 50.0,
    subscribers_per_step: int = 8,
    vision: float = 12.0,
    world_size: float = 200.0,
    seed: int = 17,
    tracer=None,
) -> dict:
    """Grow one world until the median tick breaches *deadline_ms*.

    Each step spawns *growth* more units and connects
    *subscribers_per_step* more AOI subscribers into the **same** world
    (state, plan caches and indexes persist across steps, as
    they would in a long-running server), then times *ticks_per_step*
    ticks.  Returns a summary dict with per-step samples, the breaking
    point (or ``None`` when the ramp completed under deadline), and the
    phase-histogram percentiles from the attached metrics registry.
    """
    world = build_rts_world(
        start_units, mode=ExecutionMode.COMPILED, world_size=world_size, seed=seed
    )
    metrics = world.attach_metrics()
    if tracer is not None:
        world.attach_tracer(tracer)
    sessions: list = []
    units = start_units
    steps: list[dict] = []
    breaking_point: dict | None = None
    for step in range(max_steps):
        if step > 0:
            world.spawn_many("Unit", unit_rows(growth, world_size, seed + step))
            units += growth
        _, new_sessions, _ = attach_fog_of_war(
            world, n_observers=subscribers_per_step, vision=vision, seed=seed + step
        )
        sessions.extend(new_sessions)
        world.tick()  # warm plans/views for the new size before sampling
        for session in sessions:
            session.take()
        samples = []
        messages = 0
        for _ in range(ticks_per_step):
            start = time.perf_counter()
            world.tick()
            samples.append(time.perf_counter() - start)
            for session in sessions:
                messages += len(session.take())
        median_ms = statistics.median(samples) * 1000.0
        entry = {
            "step": step,
            "units": units,
            "subscribers": len(sessions),
            "median_tick_ms": round(median_ms, 3),
            "max_tick_ms": round(max(samples) * 1000.0, 3),
            "subscription_messages": messages,
        }
        steps.append(entry)
        if median_ms > deadline_ms:
            breaking_point = entry
            break
    return {
        "workload": "rts+aoi",
        "deadline_ms": deadline_ms,
        "start_units": start_units,
        "growth": growth,
        "ticks_per_step": ticks_per_step,
        "subscribers_per_step": subscribers_per_step,
        "steps": steps,
        "breached": breaking_point is not None,
        "breaking_point": breaking_point,
        "phase_quantiles_ms": {
            phase: {name: round(value * 1000.0, 3) for name, value in quantiles.items()}
            for phase, quantiles in metrics.phase_quantiles().items()
        },
    }


def append_history(result: dict, output_path: str, limit: int = 200) -> None:
    """Append one loadtest entry to the artifact's ``history`` list.

    ``BENCH_tick.json`` is owned by ``ci_bench.py``; this only touches the
    carried-forward ``history`` so both tools accumulate into one
    trajectory.  Creates a minimal artifact when none exists yet.
    """
    data: dict = {}
    try:
        with open(output_path) as handle:
            data = json.load(handle)
            if not isinstance(data, dict):
                data = {}
    except (OSError, ValueError):
        pass
    history = data.get("history")
    if not isinstance(history, list):
        history = []
    compact = {k: v for k, v in result.items() if k != "steps"}
    history.append(
        {
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "loadtest": compact,
        }
    )
    data["history"] = history[-limit:]
    with open(output_path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--start-units", type=int, default=100)
    parser.add_argument("--growth", type=int, default=100)
    parser.add_argument("--max-steps", type=int, default=12)
    parser.add_argument("--ticks-per-step", type=int, default=5)
    parser.add_argument("--deadline-ms", type=float, default=50.0)
    parser.add_argument("--subscribers-per-step", type=int, default=8)
    parser.add_argument("--world-size", type=float, default=200.0)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument(
        "--output", default="BENCH_tick.json", help="artifact whose history to append to"
    )
    parser.add_argument(
        "--no-history", action="store_true", help="do not touch the artifact"
    )
    parser.add_argument(
        "--trace", default=None, help="also export a Chrome trace-event JSON here"
    )
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from repro.obs.tracing import TickTracer

        tracer = TickTracer()
    result = run_loadtest(
        start_units=args.start_units,
        growth=args.growth,
        max_steps=args.max_steps,
        ticks_per_step=args.ticks_per_step,
        deadline_ms=args.deadline_ms,
        subscribers_per_step=args.subscribers_per_step,
        world_size=args.world_size,
        seed=args.seed,
        tracer=tracer,
    )
    print(json.dumps(result, indent=2, sort_keys=True))
    if result["breached"]:
        bp = result["breaking_point"]
        print(
            f"deadline {args.deadline_ms}ms breached at {bp['units']} units / "
            f"{bp['subscribers']} subscribers (median {bp['median_tick_ms']}ms)",
            file=sys.stderr,
        )
    else:
        last = result["steps"][-1]
        print(
            f"ramp completed under the {args.deadline_ms}ms deadline at "
            f"{last['units']} units / {last['subscribers']} subscribers "
            f"(median {last['median_tick_ms']}ms)",
            file=sys.stderr,
        )
    if tracer is not None:
        tracer.export(args.trace)
        print(f"wrote trace {args.trace}", file=sys.stderr)
    if not args.no_history:
        append_history(result, args.output)
        print(f"appended loadtest entry to {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
