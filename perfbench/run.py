#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/bench.exe with dune,
then runs episodes of the workload for S seconds (at least one pass over
the run's sub-seeds plus one repeat), checks every episode and prints a
report whose last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 they are its per_layer metrics, taken from traced episodes
each paired with an untraced one on the same sub-seed.  See
perfbench/README.md for the workloads, metrics and checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")

# Flow populations per run.  Episode j of a run draws its initial flow
# population from j and everything else from the sub-seed 1000*seed + j;
# the simulated percentiles pool the completions of all of them.  One
# population alone moves p99 by ~15%, so the populations are a fixed
# corpus and the run's seed varies the traffic over it.
SUBSEEDS = {"update-storm": 20, "probe-audit": 16, "fault-recovery": 6}

# Wall-clock figures are rescaled to a host that runs the reference
# kernels (perfbench/reference.ml) in this many seconds.
NOMINAL_REFERENCE_S = 0.05

# A run must end well inside 180 s whatever --seconds says.
HARD_LIMIT_S = 150.0

# The layer rows that must add up to dessim.step_s in a traced episode.
ROWS = [
    "switch.data_s", "traffic.hop_s", "controller.handle_s", "controller.prepare_s",
    "controller.push_s", "invariants.check_s", "traffic.drain_s", "other.step_s",
    "unattributed_s",
]

# End-to-end figures printed but not in BENCHMARK.json: each is 0 on
# some workload, so it cannot carry a relative bound.
PRINTED_UNITS = {
    "pkts_per_s": "1/s", "sim_probe_p50_ms": "sim_ms", "sim_probe_p99_ms": "sim_ms",
    "update_fail_ratio": "ratio", "probe_violation_ratio": "ratio", "sim_ms": "sim_ms",
    "raw_events_per_s": "1/s", "reference_s": "s",
}
PROBE_ONLY = ("pkts_per_s", "sim_probe_p50_ms", "sim_probe_p99_ms", "probe_violation_ratio")


class Failure(Exception):
    pass


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        raise Failure("no dune-project here: run from the root of a checkout of the repository")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        cwd=ROOT, env=dict(os.environ, DUNE_CACHE="disabled"),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=900,
    )
    if r.returncode != 0:
        raise Failure("build failed:\n" + r.stdout)


def episode(workload, seed, traced, timeout):
    r = subprocess.run(
        [EXE, workload, str(seed % 1000), str(seed), "1" if traced else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=max(timeout, 1.0),
    )
    if r.returncode != 0:
        raise Failure(f"episode {workload} seed {seed} exited {r.returncode}:\n{r.stderr}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def percentile(p, xs):
    """Type-7 linear interpolation, as Harness.Stats.percentile."""
    xs = sorted(xs)
    if not xs:
        return 0.0
    rank = p / 100.0 * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def ratio(a, b):
    return a / b if b else 0.0


def run_episodes(workload, seed, seconds, traced):
    """Episodes in sub-seed order, round robin until the time is up.
    Untraced: every sub-seed once plus one repeat at least.  Traced: each
    sub-seed as a traced/untraced pair, every sub-seed at least once."""
    seeds = [seed * 1000 + j for j in range(SUBSEEDS[workload])]
    minimum = len(seeds) if traced else len(seeds) + 1
    started = time.monotonic()
    episodes = []  # (sub-seed, traced, result), pairs adjacent
    i = 0
    while True:
        elapsed = time.monotonic() - started
        if i >= minimum and (elapsed >= seconds or elapsed >= HARD_LIMIT_S):
            break
        s = seeds[i % len(seeds)]
        budget = HARD_LIMIT_S + 20.0 - elapsed
        if traced:
            episodes.append((s, True, episode(workload, s, True, budget)))
        episodes.append((s, False, episode(workload, s, False, budget)))
        i += 1
    return seeds, episodes, time.monotonic() - started


def check(workload, seeds, episodes, bounds):
    """Correctness, determinism, layer-split and backlog checks."""
    problems = []
    first = {}
    for s, traced, e in episodes:
        sim = e["sim"]
        for key in ("invariant_violations", "probe_violations", "stuck"):
            if sim[key]:
                problems.append(f"sub-seed {s}: {key} = {sim[key]}")
        ref = first.setdefault(s, e)
        if sim != ref["sim"] or e["update_samples"] != ref["update_samples"]:
            diff = sorted(k for k in sim if sim[k] != ref["sim"].get(k))
            problems.append(f"sub-seed {s}: not deterministic ({', '.join(diff) or 'samples'})")
        if traced:
            lay = e["layers"]
            if lay["trace.overlaps"]:
                problems.append(f"sub-seed {s}: {lay['trace.overlaps']} steps with overlapping spans")
            rows = sum(lay[k] for k in ROWS)
            if abs(rows - lay["dessim.step_s"]) > 1e-6:
                problems.append(f"sub-seed {s}: layer rows sum to {rows:.9f} s, "
                                f"steps took {lay['dessim.step_s']:.9f} s")
    heaps = {}
    for s, traced, e in episodes:
        if not traced:
            heaps.setdefault(s, set()).add(e["wall"]["peak_heap_mb"])
    problems += [f"sub-seed {s}: peak heap differs between repeats {sorted(hs)}"
                 for s, hs in heaps.items() if len(hs) > 1]
    if max(sum(1 for x, _, _ in episodes if x == s) for s in seeds) < 2:
        problems.append("no sub-seed ran twice: determinism unchecked")
    backlog = None
    if workload == "update-storm":
        # Pooled over sub-seeds: first vs last quarter of each episode's
        # completions.  A saturated plane would show a growing p50.
        q1, q4 = [], []
        for s in seeds:
            xs = first[s]["update_samples"]
            q = len(xs) // 4
            q1 += xs[:q]
            q4 += xs[len(xs) - q:]
        a, b = percentile(50, q1), percentile(50, q4)
        backlog = (a, b, ratio(abs(b - a), a))
        if backlog[2] > bounds["sim_update_p50_ms"]:
            problems.append(f"backlog: update p50 moved {backlog[2]:.1%} from first to last quarter "
                            f"(bound {bounds['sim_update_p50_ms']:.0%})")
    return problems, backlog


def end_to_end(seeds, episodes):
    untraced = [e for _, traced, e in episodes if not traced]
    first = {}
    for s, _, e in episodes:
        first.setdefault(s, e)
    sims = [first[s]["sim"] for s in seeds]
    samples = [x for s in seeds for x in first[s]["update_samples"]]

    def total(key):
        return sum(sim[key] for sim in sims)

    # Each episode's wall time is rescaled by the reference kernels timed
    # around it: on a shared host the episodes' speed drifts by up to
    # ~1.6x with other tenants' load, and the kernels drift with it.
    # Throughputs other than events/s divide pooled work by events, so
    # they do not depend on which sub-seeds a run's episodes drew.
    def host_scale(e):
        return statistics.fmean(e["reference_s"]) / NOMINAL_REFERENCE_S

    events_per_s = statistics.median(
        e["sim"]["events"] / e["wall"]["wall_s"] * host_scale(e) for e in untraced)

    def per_event(key):
        return events_per_s * ratio(total(key), total("events"))

    n_ep = f"median of {len(untraced)} episodes, host-rescaled"
    raw = statistics.median(e["sim"]["events"] / e["wall"]["wall_s"] for e in untraced)
    reference = statistics.median(statistics.fmean(e["reference_s"]) for e in untraced)
    probes = f"median over {len(seeds)} sub-seeds, n={total('probes_delivered')} deliveries"
    return {
        "setup_s": (statistics.median(e["wall"]["setup_s"] / host_scale(e) for e in untraced),
                    f"median of {len(untraced)} set-ups, host-rescaled"),
        "events_per_s": (events_per_s, n_ep),
        "updates_per_s": (per_event("completed"), "events_per_s x completions per event"),
        "pkts_per_s": (per_event("probes_injected"), "events_per_s x probes per event"),
        "raw_events_per_s": (raw, f"median of {len(untraced)} episodes, not rescaled"),
        "reference_s": (reference, f"median reference kernel time (nominal {NOMINAL_REFERENCE_S} s)"),
        "sim_update_p50_ms": (percentile(50, samples), f"n={len(samples)} completions"),
        "sim_update_p99_ms": (percentile(99, samples), f"n={len(samples)} completions"),
        "sim_probe_p50_ms": (statistics.median(x["sim_probe_p50_ms"] for x in sims), probes),
        "sim_probe_p99_ms": (statistics.median(x["sim_probe_p99_ms"] for x in sims), probes),
        "update_fail_ratio": (ratio(total("aborted") + total("stuck"), total("pushed")),
                              f"{total('aborted')} aborted + {total('stuck')} stuck "
                              f"of {total('pushed')} pushed"),
        "probe_violation_ratio": (ratio(total("probe_violations"), total("probes_injected")),
                                  f"{total('probe_violations')} of {total('probes_injected')} probes"),
        "peak_heap_mb": (max(e["wall"]["peak_heap_mb"] for e in untraced),
                         f"max over {len(seeds)} sub-seeds"),
        "sim_ms": (statistics.median(x["sim_ms"] for x in sims),
                   f"median over {len(seeds)} sub-seeds, run to drain"),
    }


def layer_values(e, u):
    """Per-layer metrics of one traced episode [e] and its untraced
    partner [u], which gives the throughput and gc.* figures."""
    sim, wall, uwall = e["sim"], e["wall"], u["wall"]
    v = dict(e["layers"])
    v.update({k: x for k, x in sim.items() if "." in k})
    v.update({
        "dessim.events": sim["events"],
        "dessim.sim_ms": sim["sim_ms"],
        "switch.wait_ratio": ratio(sim["switch.waits"], sim["switch.commits"] + sim["switch.waits"]),
        "controller.completed_ratio": ratio(sim["completed"], sim["pushed"]),
        "controller.update_fail_ratio": ratio(sim["aborted"] + sim["stuck"], sim["pushed"]),
        "traffic.audited": sim["probes_injected"],
        "traffic.pkts_per_s": ratio(sim["probes_injected"], uwall["wall_s"]),
        "traffic.sim_probe_p50_ms": sim["sim_probe_p50_ms"],
        "traffic.sim_probe_p99_ms": sim["sim_probe_p99_ms"],
        "traffic.violation_ratio": ratio(sim["probe_violations"], sim["probes_injected"]),
        "invariants.checks": sim["invariant_checks"],
        "setup.paths_s": wall["setup.paths_s"],
        "setup.world_s": wall["setup.world_s"],
        "gc.minor_words_per_event": ratio(uwall["minor_words"], sim["events"]),
        "gc.major_collections": uwall["major_collections"],
        "trace.overhead": wall["wall_s"] / uwall["wall_s"] - 1.0,
        "host.reference_s": statistics.fmean(e["reference_s"]),
    })
    return v


def per_layer(seeds, episodes, names):
    """Median over each sub-seed's traced episodes, then the mean over
    sub-seeds, so counts are exact and times steady."""
    by_seed = {}
    for (s, _, e), (_, _, u) in zip(episodes[0::2], episodes[1::2]):
        by_seed.setdefault(s, []).append(layer_values(e, u))
    return {n: statistics.fmean(statistics.median(v[n] for v in by_seed[s]) for s in seeds)
            for n in names}


def main():
    ap = argparse.ArgumentParser(description="Run one workload of the repository benchmark.")
    ap.add_argument("--workload", required=True, choices=sorted(SUBSEEDS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    traced = args.trace == 1
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        build()
        seeds, episodes, wall = run_episodes(args.workload, args.seed, args.seconds, traced)
    except (Failure, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(PRINTED_UNITS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    problems, backlog = check(args.workload, seeds, episodes, bounds)
    e2e = end_to_end(seeds, episodes)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(episodes)} episodes over {len(seeds)} sub-seeds in {wall:.1f} s")
    for name, (v, note) in e2e.items():
        if e2e["pkts_per_s"][0] > 0 or name not in PROBE_ONLY:
            print(f"  {name:24s} {v:14.6g} {units[name]:8s} ({note})")
    if backlog:
        print(f"  backlog guard: update p50 {backlog[0]:.2f} -> {backlog[1]:.2f} sim ms "
              f"from first to last quarter ({backlog[2]:.1%})")
    if traced:
        names = [m["name"] for m in spec["per_layer"]]
        layers = per_layer(seeds, episodes, names)
        for name in names:
            print(f"  {name:36s} {layers[name]:14.6g} {units[name]}")
        metrics = {n: {"value": layers[n], "unit": units[n]} for n in names}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for p in problems:
        print(f"  FAIL {p}")
    untraced = [e for _, t, e in episodes if not t]
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(e["sim"]["pushed"] for e in untraced),
        "failed": sum(e["sim"]["stuck"] for e in untraced),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
