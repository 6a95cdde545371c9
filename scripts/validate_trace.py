#!/usr/bin/env python3
"""End-to-end validation of mstc_sim's observability output.

Runs the simulator with every observability output on (--trace,
--trace-jsonl, --metrics-out, --metrics-stream, --metrics-prom, --flight 8,
--postmortem with a 1 ns --soft-deadline, so every replication writes a
post-mortem) into a temporary directory and validates every artifact
against the documented schema (docs/OBSERVABILITY.md):

  * the Chrome trace is valid JSON in trace_event format (loadable by
    Perfetto / chrome://tracing): a traceEvents array whose instant events
    carry pid/tid/ts/name and whose processes are named replications,
  * the JSONL trace has one object per line with exactly the documented
    keys, per-run consecutive seq numbering and non-decreasing sim-time,
  * the manifest records the config, seed, counter totals and wall-clock
    profile, with hello counters matching the closed form of the scenario
    (static nodes, proactive rounds => hello_tx == rounds * nodes), and a
    ledger whose `events` mean times the repeats is the processed count
    `wall.events`,
  * the manifest, the last metrics-stream line, the Prometheus ledger
    series and every post-mortem carry the same ledger field names,
  * every replication wrote a post-mortem whose flight ring holds at most
    --flight records.

A second, smaller run checks that a negative MSTC_THREADS falls back to
the hardware default: the manifest's pool_threads must match the run with
the variable unset (two replications start at most one helper thread).

Usage: validate_trace.py /path/to/mstc-sim
Registered as ctest "mstc_trace_e2e".
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

EXPECTED_JSONL_KEYS = {"run", "seq", "t", "node", "kind", "value", "aux"}

# Scenario chosen so the Hello counters have a closed form: proactive mode
# fires synchronized rounds at t = 0..10 (11 rounds), static nodes, zero
# loss, and a transmission range exceeding the 900x900 arena diagonal
# (~1273 m) so every node hears every round.
NODES = 5
ROUNDS = 11
REPEATS = 2
FLIGHT = 8
ARGS = [
    "--mode", "proactive", "--mobility", "static", "--nodes", str(NODES),
    "--duration", "10.5", "--hello-interval", "1", "--range", "1300",
    "--repeats", str(REPEATS), "--seed", "7",
]


def fail(message: str) -> None:
    print(f"validate_trace: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_chrome(path: Path) -> None:
    with open(path) as handle:
        document = json.load(handle)  # must parse — Perfetto requires it
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("chrome trace: traceEvents missing or empty")
    process_names = 0
    instants = 0
    for event in events:
        if event.get("ph") == "M":
            if event.get("name") == "process_name":
                process_names += 1
            continue
        if event.get("ph") != "i":
            fail(f"chrome trace: unexpected phase {event.get('ph')!r}")
        instants += 1
        for key in ("pid", "tid", "ts", "name"):
            if key not in event:
                fail(f"chrome trace: instant event missing {key!r}: {event}")
        if event["ts"] < 0:
            fail("chrome trace: negative timestamp")
    if process_names < 2:
        fail("chrome trace: expected one process_name per replication")
    if instants == 0:
        fail("chrome trace: no instant events")
    print(f"  chrome trace ok: {instants} instants, "
          f"{process_names} named processes")


def check_jsonl(path: Path) -> None:
    per_run_seq: dict[int, int] = {}
    per_run_time: dict[int, float] = {}
    records = 0
    kinds = set()
    with open(path) as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if set(record) != EXPECTED_JSONL_KEYS:
                fail(f"jsonl line {line_no}: keys {sorted(record)} != "
                     f"{sorted(EXPECTED_JSONL_KEYS)}")
            run = record["run"]
            expected_seq = per_run_seq.get(run, 0)
            if record["seq"] != expected_seq:
                fail(f"jsonl line {line_no}: run {run} seq {record['seq']}, "
                     f"expected {expected_seq} (per-run consecutive)")
            per_run_seq[run] = expected_seq + 1
            if record["t"] < per_run_time.get(run, 0.0):
                fail(f"jsonl line {line_no}: sim-time went backwards")
            per_run_time[run] = record["t"]
            if not (0 <= record["node"] < NODES):
                fail(f"jsonl line {line_no}: node {record['node']} "
                     f"out of range")
            kinds.add(record["kind"])
            records += 1
    if records == 0:
        fail("jsonl: no records")
    if len(per_run_seq) != 2:
        fail(f"jsonl: expected 2 runs, saw {sorted(per_run_seq)}")
    if "hello_tx" not in kinds:
        fail(f"jsonl: no hello_tx events (kinds: {sorted(kinds)})")
    print(f"  jsonl ok: {records} records, {len(per_run_seq)} runs, "
          f"{len(kinds)} kinds")


def check_manifest(path: Path) -> dict:
    with open(path) as handle:
        manifest = json.load(handle)
    for key in ("tool", "version", "seed", "repeats", "config", "counters",
                "histograms", "wall"):
        if key not in manifest:
            fail(f"manifest: missing key {key!r}")
    if manifest["tool"] != "mstc_sim":
        fail(f"manifest: tool = {manifest['tool']!r}")
    counters = manifest["counters"]
    expected_tx = ROUNDS * NODES * manifest["repeats"]
    if counters.get("hello_tx") != expected_tx:
        fail(f"manifest: hello_tx = {counters.get('hello_tx')}, expected "
             f"{expected_tx} ({ROUNDS} rounds x {NODES} nodes x "
             f"{manifest['repeats']} repeats)")
    expected_rx = expected_tx * (NODES - 1)
    if counters.get("hello_rx") != expected_rx:
        fail(f"manifest: hello_rx = {counters.get('hello_rx')}, "
             f"expected {expected_rx}")
    wall = manifest["wall"]
    if wall.get("runs") != manifest["repeats"]:
        fail(f"manifest: wall.runs = {wall.get('runs')}")
    if not wall.get("events", 0) > 0:
        fail("manifest: wall.events not positive")
    ledger = manifest.get("ledger", {})
    if ledger.get("replications") != manifest["repeats"]:
        fail(f"manifest: ledger.replications = {ledger.get('replications')}")
    events = ledger.get("events", {}).get("mean", -1) * manifest["repeats"]
    if not math.isclose(events, wall["events"], rel_tol=1e-9):
        fail(f"manifest: ledger events mean x repeats = {events}, "
             f"wall.events = {wall['events']}")
    print(f"  manifest ok: hello_tx={expected_tx} hello_rx={expected_rx} "
          f"exact, ledger events = wall.events = {wall['events']}")
    return manifest


def manifest_ledger_names(manifest: dict) -> set[str]:
    return set(manifest["ledger"]) - {"replications"}


def stream_ledger_names(path: Path) -> set[str]:
    with open(path) as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    if len(lines) != REPEATS:
        fail(f"metrics stream: {len(lines)} lines, expected one per "
             f"replication ({REPEATS})")
    last = lines[-1]
    if last.get("type") != "metrics" or last.get("completed") != REPEATS:
        fail(f"metrics stream: last line type={last.get('type')!r} "
             f"completed={last.get('completed')}")
    print(f"  metrics stream ok: {len(lines)} lines")
    return set(last["ledger"])


def prom_ledger_names(path: Path) -> set[str]:
    names = set()
    series = 0
    with open(path) as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            if "{" not in name or not name.endswith("}"):
                fail(f"prometheus line {line_no}: not a labelled series")
            float(value)  # must parse
            metric = name[:name.index("{")]
            if metric.startswith("mstc_ledger_"):
                names.add(metric[len("mstc_ledger_"):])
            series += 1
    print(f"  prometheus ok: {series} series")
    return names


def postmortem_ledger_names(path: Path) -> list[set[str]]:
    with open(path) as handle:
        incidents = [json.loads(line) for line in handle if line.strip()]
    if len(incidents) != REPEATS:
        fail(f"postmortem: {len(incidents)} incidents, expected one per "
             f"replication ({REPEATS}) under a 1 ns soft deadline")
    for incident in incidents:
        if incident.get("reason") != "soft_deadline_exceeded":
            fail(f"postmortem: reason {incident.get('reason')!r}")
        ring = incident.get("flight")
        if not isinstance(ring, list) or not ring or len(ring) > FLIGHT:
            fail(f"postmortem: flight ring of {len(ring or [])} records, "
                 f"expected 1..{FLIGHT}")
        if incident.get("flight_total_recorded", 0) < len(ring):
            fail("postmortem: flight_total_recorded below the ring size")
    print(f"  postmortem ok: {len(incidents)} incidents, rings <= {FLIGHT}")
    return [set(incident.get("ledger", {})) for incident in incidents]


def check_ledger_names(manifest: dict, stream: Path, prom: Path,
                       postmortem: Path) -> None:
    expected = manifest_ledger_names(manifest)
    if not expected:
        fail("manifest: no ledger fields")
    if "allocations" in expected:
        fail("manifest: ledger still reports allocations")
    writers = [("metrics stream", stream_ledger_names(stream)),
               ("prometheus", prom_ledger_names(prom))]
    writers += [(f"postmortem {i}", names)
                for i, names in enumerate(postmortem_ledger_names(postmortem))]
    for writer, names in writers:
        if names != expected:
            fail(f"{writer}: ledger fields {sorted(names)} differ from the "
                 f"manifest's {sorted(expected)}")
    print(f"  ledger ok: {len(expected)} fields, same in every writer")


def pool_threads(binary: Path, out: Path, threads: str | None) -> int:
    env = dict(os.environ)
    env.pop("MSTC_THREADS", None)
    if threads is not None:
        env["MSTC_THREADS"] = threads
    manifest = out / f"threads_{threads}.json"
    result = subprocess.run(
        [str(binary), "--nodes", "10", "--duration", "4", "--repeats", "2",
         "--metrics-out", str(manifest)],
        capture_output=True, text=True, check=False, env=env)
    if result.returncode != 0:
        fail(f"mstc_sim (MSTC_THREADS={threads}) exited "
             f"{result.returncode}:\n{result.stderr}")
    with open(manifest) as handle:
        return json.load(handle)["wall"]["pool_threads"]


def check_negative_threads(binary: Path, out: Path) -> None:
    default = pool_threads(binary, out, None)
    negative = pool_threads(binary, out, "-1")
    if negative != default:
        fail(f"MSTC_THREADS=-1 gave pool_threads {negative}, expected the "
             f"hardware default {default}")
    print(f"  MSTC_THREADS=-1 ok: pool_threads {negative} (the default)")


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: validate_trace.py /path/to/mstc-sim", file=sys.stderr)
        return 2
    binary = Path(sys.argv[1])
    if not binary.is_file():
        fail(f"no such binary: {binary}")

    with tempfile.TemporaryDirectory(prefix="mstc_trace_") as raw:
        out = Path(raw)
        chrome = out / "run.trace.json"
        jsonl = out / "run.jsonl"
        manifest = out / "manifest.json"
        stream = out / "metrics.jsonl"
        prom = out / "metrics.prom"
        postmortem = out / "postmortem.jsonl"
        command = [str(binary), *ARGS,
                   "--trace", str(chrome),
                   "--trace-jsonl", str(jsonl),
                   "--metrics-out", str(manifest),
                   "--metrics-stream", str(stream),
                   "--metrics-prom", str(prom),
                   "--flight", str(FLIGHT),
                   "--postmortem", str(postmortem),
                   "--soft-deadline", "1e-9"]
        result = subprocess.run(command, capture_output=True, text=True,
                                check=False)
        if result.returncode != 0:
            fail(f"mstc_sim exited {result.returncode}:\n{result.stderr}")
        for artifact in (chrome, jsonl, manifest, stream, prom, postmortem):
            if not artifact.is_file():
                fail(f"artifact not written: {artifact.name}")
        check_chrome(chrome)
        check_jsonl(jsonl)
        check_ledger_names(check_manifest(manifest), stream, prom,
                           postmortem)
        check_negative_threads(binary, out)
    print("validate_trace: all artifacts conform to the documented schema")
    return 0


if __name__ == "__main__":
    sys.exit(main())
