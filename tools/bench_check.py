#!/usr/bin/env python3
"""bench_check: benchmark regression gate.

Compares freshly produced bench JSON (BENCH_kernel.json /
BENCH_medium.json / BENCH_snapshot.json) against the checked-in baselines,
separating what must match exactly from what only a machine can change:

  deterministic columns   event / query / link counts, cache hit counts,
                          skip rates and the
                          results_identical flags are pure functions of
                          (config, seed) — any drift means the simulation
                          changed and the baselines need a deliberate
                          regeneration, so they are compared exactly.
  machine-normalized      wall-clock throughput differs per machine, so
  ratios                  raw wall columns are never gated. Ratios of two
                          measurements from the SAME file (grid-vs-brute
                          wall_speedup, snapshot speedup, cache-on vs
                          cache-off events/s, trace-cache amortization)
                          cancel the machine out; a fresh ratio may not
                          fall below baseline * (1 - tolerance). Ratios
                          whose slow side ran under --min-wall seconds in
                          the baseline are skipped as noise.
  allocation columns      allocs_per_event is deterministic for one
                          toolchain but shifts across stdlib versions; a
                          fresh value may not exceed
                          baseline + max(0.05, 25% of baseline).
  scaling slope           bench_kernel's scaling block must keep
                          large-fleet events/s at a healthy fraction of
                          small-fleet events/s; both sides come from one
                          file, so the guard runs on any machine. Its
                          event counts are deterministic and compared
                          exactly.

Also supports --self FILE: schema / internal-invariant checks on a single
bench JSON (used by the `bench_check_baselines` ctest to keep the
checked-in baselines well-formed).

Usage:
  bench_check.py --compare fresh/BENCH_kernel.json BENCH_kernel.json \
                 [--compare ...] [--tolerance 0.5] [--min-wall 0.05]
  bench_check.py --self BENCH_kernel.json [--self ...]

Exit status: 0 when every check passes, 1 on regression / invariant
failure, 2 on unreadable or unrecognized input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

PROBLEMS: list[str] = []
CHECKS = 0


def problem(message: str) -> None:
    PROBLEMS.append(message)


def check(condition: bool, message: str) -> None:
    global CHECKS
    CHECKS += 1
    if not condition:
        problem(message)


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"bench_check: cannot read {path}: {error}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(data, dict) or "bench" not in data:
        print(f"bench_check: {path} has no 'bench' discriminator",
              file=sys.stderr)
        sys.exit(2)
    version = str(data.get("version", ""))
    if "-dirty" in version:
        # Loud: a -dirty baseline or fresh run is not reproducible from any
        # commit, so whatever it gates cannot be re-derived later.
        print(f"bench_check: WARNING: {path} was produced by a -dirty build "
              f"('{version}') — its numbers are not reproducible from a "
              "commit; regenerate from a clean tree before trusting gates",
              file=sys.stderr)
    return data


def check_ratio(name: str, fresh: float, base: float, tolerance: float,
                baseline_floor_wall: float, min_wall: float) -> None:
    """Gates a machine-normalized ratio: fresh may not fall below
    baseline * (1 - tolerance). Skipped when the baseline's slow side ran
    under min_wall seconds (too noisy to gate) or the baseline ratio is
    degenerate."""
    if baseline_floor_wall < min_wall or base <= 0.0:
        return
    check(fresh >= base * (1.0 - tolerance),
          f"{name}: ratio regressed {base:.2f} -> {fresh:.2f} "
          f"(floor {base * (1.0 - tolerance):.2f})")


def check_allocs(name: str, fresh: float, base: float) -> None:
    ceiling = base + max(0.05, 0.25 * base)
    check(fresh <= ceiling,
          f"{name}: allocs_per_event grew {base:.4f} -> {fresh:.4f} "
          f"(ceiling {ceiling:.4f})")


def index_rows(rows: list[dict], key: str) -> dict:
    return {row[key]: row for row in rows if key in row}


# --- bench_kernel ----------------------------------------------------------

def compare_kernel(fresh: dict, base: dict, args) -> None:
    fresh_rows = index_rows(fresh.get("results", []), "label")
    base_rows = index_rows(base.get("results", []), "label")
    shared = sorted(set(fresh_rows) & set(base_rows))
    check(bool(shared), "bench_kernel: no common row labels to compare")
    for label in shared:
        fr, br = fresh_rows[label], base_rows[label]
        check(fr.get("results_identical") is True,
              f"kernel[{label}]: cache-on run diverged from cache-off "
              "(results_identical false)")
        for mode in ("cache_off", "cache_on"):
            check(fr[mode]["events"] == br[mode]["events"],
                  f"kernel[{label}].{mode}: event count changed "
                  f"{br[mode]['events']} -> {fr[mode]['events']} — "
                  "simulation behavior drifted; regenerate baselines "
                  "deliberately if intended")
            check(abs(fr[mode]["skip_rate"] - br[mode]["skip_rate"]) <= 1e-3,
                  f"kernel[{label}].{mode}: skip_rate changed "
                  f"{br[mode]['skip_rate']:.4f} -> "
                  f"{fr[mode]['skip_rate']:.4f}")
            check_allocs(f"kernel[{label}].{mode}",
                         fr[mode]["allocs_per_event"],
                         br[mode]["allocs_per_event"])
        # Cache-on vs cache-off throughput from the same file cancels the
        # machine; gate the ratio-of-ratios.
        def cache_ratio(row: dict) -> float:
            off = row["cache_off"]["events_per_s"]
            return row["cache_on"]["events_per_s"] / off if off > 0 else 0.0
        check_ratio(f"kernel[{label}]: cache_on/cache_off events/s",
                    cache_ratio(fr), cache_ratio(br), args.tolerance,
                    min(br["cache_off"]["wall_s"], br["cache_on"]["wall_s"]),
                    args.min_wall)
        if "speedup_vs_pre_pr" in fr and "speedup_vs_pre_pr" in br:
            check_ratio(f"kernel[{label}]: speedup_vs_pre_pr",
                        fr["speedup_vs_pre_pr"], br["speedup_vs_pre_pr"],
                        args.tolerance, br["cache_on"]["wall_s"],
                        args.min_wall)
    fresh_scaling = fresh.get("scaling")
    check(fresh_scaling is not None, "bench_kernel: missing scaling block")
    if fresh_scaling is None:
        return
    base_scaling = base.get("scaling")
    if base_scaling is not None:
        fresh_scale_rows = index_rows(fresh_scaling.get("rows", []), "label")
        for label, br in index_rows(base_scaling.get("rows", []),
                                    "label").items():
            fr = fresh_scale_rows.get(label)
            check(fr is not None, f"kernel.scaling[{label}]: row missing")
            if fr is not None:
                check(fr["events"] == br["events"],
                      f"kernel.scaling[{label}]: event count changed "
                      f"{br['events']} -> {fr['events']} — simulation "
                      "behavior drifted; regenerate baselines deliberately "
                      "if intended")
    scaling_guard(fresh_scaling, "fresh")


def self_kernel(data: dict) -> None:
    rows = data.get("results", [])
    check(bool(rows), "bench_kernel: empty results")
    for row in rows:
        label = row.get("label", "?")
        check(row.get("results_identical") is True,
              f"kernel[{label}]: results_identical is not true")
        for mode in ("cache_off", "cache_on"):
            check(mode in row, f"kernel[{label}]: missing '{mode}'")
            if mode in row:
                check(row[mode].get("events", 0) > 0,
                      f"kernel[{label}].{mode}: zero events")
        if "cache_off" in row and "cache_on" in row:
            check(row["cache_off"]["events"] == row["cache_on"]["events"],
                  f"kernel[{label}]: event counts differ across cache modes")
    scaling = data.get("scaling")
    check(scaling is not None, "bench_kernel: missing scaling block")
    if scaling is not None:
        config_ok = scaling.get("threads") == 1 and scaling.get("cores", 0) > 0
        check(config_ok, "kernel.scaling: must record threads = 1 and cores")
        for row in scaling.get("rows", []):
            check(row.get("events", 0) > 0,
                  f"kernel.scaling[{row.get('label', '?')}]: zero events")
        scaling_guard(scaling, "self")


# Scaling-slope guard: cache-on events/s at the largest fleet may not fall
# below this fraction of the small-fleet rate. Both rows run on one thread
# of one machine in one bench_kernel run, so the ratio gates on any core
# count; a slide under the floor means large-fleet cost per event grew
# (event queue, medium grid or view-store scaling).
SCALING_FLOOR = 0.40
SCALING_SMALL_NODES = 2500
SCALING_LARGE_NODES = 100000


def scaling_guard(scaling: dict, where: str) -> None:
    """events/s-vs-n slope of a bench_kernel scaling block."""
    by_nodes = index_rows(scaling.get("rows", []), "nodes")
    small = by_nodes.get(SCALING_SMALL_NODES)
    large = by_nodes.get(SCALING_LARGE_NODES)
    check(small is not None and large is not None,
          f"kernel.scaling({where}): needs rows at n={SCALING_SMALL_NODES} "
          f"and n={SCALING_LARGE_NODES}")
    if small is None or large is None:
        return
    small_rate = small["events_per_s"]
    if small_rate <= 0.0:
        problem(f"kernel.scaling({where}): zero small-fleet events/s")
        return
    ratio = large["events_per_s"] / small_rate
    check(ratio >= SCALING_FLOOR,
          f"kernel.scaling({where}): events/s slope "
          f"n={SCALING_LARGE_NODES} / n={SCALING_SMALL_NODES} = {ratio:.2f}, "
          f"below the {SCALING_FLOOR} floor — large-fleet cost per event "
          "degraded")


# --- bench_scale (BENCH_medium.json) ---------------------------------------

SCALE_EXACT = ("queries", "distance_checks", "accepted", "grid_rebuilds")


def compare_scale(fresh: dict, base: dict, args) -> None:
    fresh_rows = index_rows(fresh.get("results", []), "nodes")
    base_rows = index_rows(base.get("results", []), "nodes")
    shared = sorted(set(fresh_rows) & set(base_rows))
    check(bool(shared), "bench_scale: no common node counts to compare")
    for nodes in shared:
        fr, br = fresh_rows[nodes], base_rows[nodes]
        check(fr.get("results_identical") is True,
              f"scale[n={nodes}]: grid diverged from brute "
              "(results_identical false)")
        for mode in ("brute", "grid"):
            for column in SCALE_EXACT:
                check(fr[mode][column] == br[mode][column],
                      f"scale[n={nodes}].{mode}.{column}: "
                      f"{br[mode][column]} -> {fr[mode][column]} — "
                      "deterministic column drifted")
        check_ratio(f"scale[n={nodes}]: wall_speedup", fr["wall_speedup"],
                    br["wall_speedup"], args.tolerance, br["brute"]["wall_s"],
                    args.min_wall)


def self_scale(data: dict) -> None:
    rows = data.get("results", [])
    check(bool(rows), "bench_scale: empty results")
    for row in rows:
        nodes = row.get("nodes", "?")
        check(row.get("results_identical") is True,
              f"scale[n={nodes}]: results_identical is not true")
        modes = [m for m in ("brute", "grid") if m in row]
        check(len(modes) == 2, f"scale[n={nodes}]: missing a serving mode")
        accepted = {row[m]["accepted"] for m in modes}
        check(len(accepted) == 1,
              f"scale[n={nodes}]: accepted counts differ across modes "
              f"({sorted(accepted)})")


# --- bench_snapshot --------------------------------------------------------

def compare_snapshot(fresh: dict, base: dict, args) -> None:
    fresh_rows = index_rows(fresh.get("snapshot_rows", []), "label")
    base_rows = index_rows(base.get("snapshot_rows", []), "label")
    shared = sorted(set(fresh_rows) & set(base_rows))
    check(bool(shared), "bench_snapshot: no common row labels to compare")
    for label in shared:
        fr, br = fresh_rows[label], base_rows[label]
        check(fr.get("results_identical") is True,
              f"snapshot[{label}]: grid diverged from brute "
              "(results_identical false)")
        for mode in ("brute", "grid"):
            for column in ("snapshots", "links_examined"):
                check(fr[mode][column] == br[mode][column],
                      f"snapshot[{label}].{mode}.{column}: "
                      f"{br[mode][column]} -> {fr[mode][column]} — "
                      "deterministic column drifted")
        check_ratio(f"snapshot[{label}]: speedup", fr["speedup"],
                    br["speedup"], args.tolerance,
                    br["brute"]["snapshot_wall_s"], args.min_wall)

    fs, bs = fresh.get("trace_cache_sweep"), base.get("trace_cache_sweep")
    if fs and bs:
        check(fs.get("results_identical") is True,
              "snapshot.trace_cache_sweep: shared traces diverged from "
              "regenerated (results_identical false)")
        for section, column in (("regenerate", "cache_misses"),
                                ("shared", "cache_hits"),
                                ("shared", "cache_misses")):
            check(fs[section][column] == bs[section][column],
                  f"snapshot.trace_cache_sweep.{section}.{column}: "
                  f"{bs[section][column]} -> {fs[section][column]}")
        check_ratio("snapshot.trace_cache_sweep: setup_amortization",
                    fs["setup_amortization"], bs["setup_amortization"],
                    args.tolerance, bs["regenerate"]["setup_wall_s"],
                    # Setup runs are short; gate down to 10 ms.
                    min(args.min_wall, 0.01))


def self_snapshot(data: dict) -> None:
    rows = data.get("snapshot_rows", [])
    check(bool(rows), "bench_snapshot: empty snapshot_rows")
    for row in rows:
        label = row.get("label", "?")
        check(row.get("results_identical") is True,
              f"snapshot[{label}]: results_identical is not true")
        if "brute" in row and "grid" in row:
            check(row["brute"]["snapshots"] == row["grid"]["snapshots"],
                  f"snapshot[{label}]: snapshot counts differ across modes")
    sweep = data.get("trace_cache_sweep")
    check(sweep is not None, "bench_snapshot: missing trace_cache_sweep")
    if sweep:
        check(sweep.get("results_identical") is True,
              "snapshot.trace_cache_sweep: results_identical is not true")


HANDLERS = {
    "bench_kernel": (compare_kernel, self_kernel),
    "bench_scale": (compare_scale, self_scale),
    "bench_snapshot": (compare_snapshot, self_snapshot),
}


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="bench_check.py",
        description="Benchmark regression gate (see module docstring).")
    parser.add_argument("--compare", nargs=2, action="append", default=[],
                        metavar=("FRESH", "BASELINE"),
                        help="compare a fresh bench JSON against a baseline")
    parser.add_argument("--self", dest="self_checks", action="append",
                        default=[], metavar="FILE",
                        help="schema / invariant check on one bench JSON")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="allowed relative drop in machine-normalized "
                             "ratios (default: 0.5)")
    parser.add_argument("--min-wall", type=float, default=0.05,
                        help="skip ratio gates whose baseline slow side ran "
                             "under this many seconds (default: 0.05)")
    args = parser.parse_args()

    if not args.compare and not args.self_checks:
        parser.print_usage(sys.stderr)
        return 2

    for path in args.self_checks:
        data = load(path)
        handler = HANDLERS.get(data["bench"])
        if handler is None:
            print(f"bench_check: unknown bench '{data['bench']}' in {path}",
                  file=sys.stderr)
            return 2
        handler[1](data)

    for fresh_path, base_path in args.compare:
        fresh, base = load(fresh_path), load(base_path)
        if fresh["bench"] != base["bench"]:
            print(f"bench_check: bench mismatch {fresh['bench']} vs "
                  f"{base['bench']} ({fresh_path} vs {base_path})",
                  file=sys.stderr)
            return 2
        handler = HANDLERS.get(fresh["bench"])
        if handler is None:
            print(f"bench_check: unknown bench '{fresh['bench']}'",
                  file=sys.stderr)
            return 2
        handler[0](fresh, base, args)

    for entry in PROBLEMS:
        print(entry)
    if PROBLEMS:
        print(f"bench_check: {len(PROBLEMS)} of {CHECKS} checks FAILED",
              file=sys.stderr)
        return 1
    print(f"bench_check: {CHECKS} checks OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
