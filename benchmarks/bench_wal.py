"""E18 — WAL persist cost and replay-vs-live throughput.

The durability gates (ISSUE 6):

* the persist phase (consolidate every table's change log, append one
  compressed commit record) must cost at most ``PERSIST_GATE`` times a
  plain ``json.dumps`` of the same tick's changed rows, on the gated rts
  workload (150 units, compiled mode) — durability as a serialization
  tax, not a second engine;
* replaying a run from the log (checkpoint + deltas) must beat re-running
  the live world by **>= 2x** — otherwise "recover from the log" loses to
  "just re-simulate", and time-travel debugging is slower than reproducing
  the bug live.

Both gates are ratios of timings taken on the same machine in the same
process, so they are stable across runner speeds (the repo's benchmark
convention; see ``ci_bench.py``).
"""

from __future__ import annotations

import json
import statistics
import tempfile
import time

from repro import ExecutionMode
from repro.persistence.replay import replay_tables
from repro.workloads import build_rts_world

N_UNITS = 150
TICKS = 15
#: Ticks sampled by the persist gate (each ~1.5 ms persist + ~1 ms encode).
PERSIST_TICKS = 40
#: Gate on the median over ticks of (persist phase / plain JSON encode of the
#: same rows, timed right after it).  Calibrated on the persist code this
#: gate was introduced against: 1.31–1.36 over 8 runs (median 1.34); the
#: gate is 1.25x that median, so a persist phase 1.5x slower fails it.
PERSIST_GATE = 1.68
REPLAY_GATE = 2.0  # replay >= 2x faster than the live run


def build_world():
    return build_rts_world(N_UNITS, mode=ExecutionMode.COMPILED)


def state_versions(world) -> list[tuple[object, int]]:
    """Every state table of *world* with its current change-log version."""
    return [
        (world.catalog.table(name), world.catalog.table(name).version)
        for generated in world.schemas.values()
        for name in generated.state_table_names()
    ]


def json_encode_seconds(versions: list[tuple[object, int]]) -> float:
    """Seconds to ``json.dumps`` the rows changed since *versions*.

    The comparator of the persist gate: the same netted ``[rowid, old row,
    new row]`` triples the persist phase writes, encoded as plain row
    dicts with no column framing, compression or file I/O.  Neither side
    runs a query, so a faster query engine cannot move the ratio, and both
    spend most of their time formatting the same floats, so host speed
    cancels out of it.
    """
    rows = []
    for table, version in versions:
        changes = table.consolidate_changes(version)
        assert changes is not None, "change log cannot serve the tick's delta"
        rows.extend([rowid, old, new] for rowid, old, new in changes)
    start = time.perf_counter()
    json.dumps(rows, separators=(",", ":"))
    return time.perf_counter() - start


def persist_vs_encode(world, ticks: int) -> tuple[list[float], list[float]]:
    """Tick a WAL-attached *world*; per tick, the persist phase's seconds and
    the seconds of :func:`json_encode_seconds` right after it."""
    persists, encodes = [], []
    for _ in range(ticks):
        versions = state_versions(world)
        report = world.tick()
        persists.append(report.persist_seconds)
        encodes.append(json_encode_seconds(versions))
    return persists, encodes


def test_persist_overhead_gate():
    """The persist phase costs at most ``PERSIST_GATE`` times a plain JSON
    encode of the rows it persists (medians over the same ticks).

    The gate used to be "persist < 10% of the tick"; that share grows
    whenever the query engine gets faster, although persist itself does
    not change, so it is now measured against a comparator that excludes
    query time.
    """
    world = build_world()
    world.attach_wal(tempfile.mkdtemp(prefix="bench-wal-"), checkpoint_interval=50)
    world.tick()  # warm plan caches
    persists, encodes = persist_vs_encode(world, PERSIST_TICKS)
    ratio = statistics.median(p / e for p, e in zip(persists, encodes))
    print(
        f"\npersist {statistics.median(persists) * 1e3:.2f} ms vs json encode "
        f"{statistics.median(encodes) * 1e3:.2f} ms of the same rows = {ratio:.2f}x "
        f"({world.reports[-1].wal_bytes} bytes/tick)"
    )
    assert ratio <= PERSIST_GATE, (
        f"persist phase is {ratio:.2f}x a plain JSON encode of its rows "
        f"(gate {PERSIST_GATE}x)"
    )


def test_replay_speedup_gate():
    """Reconstructing the final state from the log must be >= 2x faster
    than re-running the simulation, and exactly equal to it."""
    path = tempfile.mkdtemp(prefix="bench-replay-")
    world = build_world()
    wal = world.attach_wal(path, checkpoint_interval=50)
    for _ in range(TICKS + 1):
        world.tick()
    expected = {name: table.snapshot() for name, table in wal._tables()}
    world.detach_wal()

    start = time.perf_counter()
    rerun = build_world()
    for _ in range(TICKS + 1):
        rerun.tick()
    live_seconds = time.perf_counter() - start

    start = time.perf_counter()
    state = replay_tables(path)
    replay_seconds = time.perf_counter() - start

    assert state.tables == expected  # fast AND right
    speedup = live_seconds / replay_seconds
    print(
        f"\nlive {live_seconds * 1e3:.1f} ms vs replay {replay_seconds * 1e3:.1f} ms "
        f"= {speedup:.1f}x"
    )
    assert speedup >= REPLAY_GATE, (
        f"replay is only {speedup:.2f}x faster than the live run (gate {REPLAY_GATE}x)"
    )


def test_compression_earns_its_keep():
    """Commit records deflate: the on-disk log must be well under the raw
    JSON it encodes (the optimization the persist gate depends on)."""
    import json

    from repro.persistence.replay import iter_log_records

    path = tempfile.mkdtemp(prefix="bench-bytes-")
    world = build_world()
    wal = world.attach_wal(path, checkpoint_interval=50)
    for _ in range(10):
        world.tick()
    on_disk = wal.log.byte_size
    raw = sum(
        len(json.dumps(record, separators=(",", ":"), default=repr))
        for record in iter_log_records(wal.log)
    )
    ratio = raw / on_disk
    print(f"\n{on_disk} bytes on disk for {raw} bytes of JSON = {ratio:.1f}x")
    assert ratio >= 2.0, f"compression ratio {ratio:.2f}x is below 2x"


if __name__ == "__main__":
    import pytest

    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
