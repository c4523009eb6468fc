#!/usr/bin/env python3
"""ObfusMem simulator benchmark: end-to-end and per-layer host metrics.

Builds perfbench_driver (perfbench/driver.cc, linked against the
simulator library) from the sources of this checkout, runs one workload
for a fixed time, checks the simulated outputs and prints the metrics.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See perfbench/README.md.

Usage:
    run.py --workload spec|rack|oram|all [--seed N] [--seconds S]
           [--trace 0|1]
    run.py --record      re-record expected.json (after a model change)
    run.py --self-test   a perturbed recorded value must fail its op
    run.py --spread N [--workload W]
                         re-measure spread.json over seeds 1..N

Build outputs, results and span files go to .bench_build/perfbench/
at the root of the checkout.
"""

import argparse
import copy
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
OUT_DIR = CHECKOUT / ".bench_build" / "perfbench"
EXPECTED = BENCH_DIR / "expected.json"
SPREAD = BENCH_DIR / "spread.json"

WORKLOADS = ("spec", "rack", "oram")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
# The driver must end well inside the 180 s a run may take.
DRIVER_TIMEOUT_S = 160

END_TO_END = {
    "host_s": "s",
    "setup_s": "s",
    "sim_req_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_overhead_pct": "%",
}

# Per-layer metrics the benchmark derives from its spans and from the
# statistics below, with their units.
DERIVED = {
    "system.build_s": "s",
    "system.warmup_s": "s",
    "system.build_rss_mb": "MB",
    "cpu.run_s": "s",
    "secure.run_s": "s",
    "obfusmem.run_s": "s",
    "obfusmem.unopt_run_s": "s",
    "obfusmem.pad_use_ratio": "ratio",
    "obfusmem.msgs_per_req": "msgs/req",
    "pcm.row_hit_rate": "ratio",
    "oram.path.run_s": "s",
    "oram.flat.run_s": "s",
    "oram.wo.run_s": "s",
    "oram.fixed.run_s": "s",
    "oram.transfers_per_access": "ratio",
    "sim.ns_per_event": "ns",
    "trace.overhead_s": "s",
}

# Statistics read from the simulator by name, summed over channels,
# sockets and the workload's configs. These, the simulated ticks and
# the request count are what the check compares with expected.json.
STATS = {
    "caches.l1Hits": "count",
    "caches.l2Hits": "count",
    "caches.l3Hits": "count",
    "caches.llcMisses": "count",
    "caches.writebacks": "count",
    "caches.mshrStalls": "count",
    "caches.missLatencyNs": "ns",
    "encEngine.ctrHits": "count",
    "encEngine.ctrMisses": "count",
    "encEngine.padMemoMisses": "count",
    "encEngine.blocksEncrypted": "count",
    "encEngine.blocksDecrypted": "count",
    "obfusProc.realReads": "count",
    "obfusProc.realWrites": "count",
    "obfusProc.pairedDummies": "count",
    "obfusProc.channelFillGroups": "count",
    "obfusProc.padsUsed": "count",
    "obfusProc.padsPrefetched": "count",
    "obfusMem.dummyWritesDropped": "count",
    "bus.messages": "count",
    "bus.bytes": "B",
    "pcm.readReqs": "count",
    "pcm.writeReqs": "count",
    "pcm.rowHits": "count",
    "pcm.rowMisses": "count",
    "oram.accesses": "count",
    "oram.physicalTransfers": "count",
    "oram.stashPeakOccupancy": "blocks",
    "oram.writeProbes": "probes",
    "eventq.eventsExecuted": "count",
    "eventq.overflowPromotions": "count",
    "shardkernel.epochs": "count",
    "shardkernel.crossPosted": "count",
}
# Averages, not sums: reported as the mean over the configs with cores.
AVERAGED = {"caches.missLatencyNs", "oram.stashPeakOccupancy",
            "oram.writeProbes"}
PER_LAYER = {**DERIVED, **STATS}
# Any nonzero statistic with one of these names fails its op.
FAILURE_STATS = ("macFailures", "headerDesyncs", "integrityViolations")

# Host time a layer adds: the run of one label minus the run of
# another label of the same profile (or rack shape), summed.
RUN_DIFFS = {
    "secure.run_s": [("encryption-only", "unprotected")],
    "obfusmem.run_s": [("obfusmem+auth", "encryption-only"),
                       ("opt", "unprotected")],
    "obfusmem.unopt_run_s": [("unopt", "opt")],
    "oram.path.run_s": [("oram-detailed", "unprotected")],
    "oram.flat.run_s": [("flat-oram", "unprotected")],
    "oram.wo.run_s": [("wo-oram", "unprotected")],
    "oram.fixed.run_s": [("oram-fixed", "unprotected")],
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure (until a build succeeds) and build the driver.

    Exits 1 without a result if either step fails.
    """
    build_dir = OUT_DIR / "build"
    exe = build_dir / "perfbench_driver"
    steps = []
    if not exe.exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(1)
    return exe


def run_driver(exe, workload, seed, seconds, trace, min_passes=3):
    """Run the driver; returns (meta, ops, spans, peak_rss_mb, ok)."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--min-passes", str(min_passes)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
        out, ok = proc.stdout, proc.returncode == 0
        if not ok:
            log(f"perfbench: driver exited with {proc.returncode}")
    except subprocess.TimeoutExpired as err:
        out, ok = err.stdout or "", False
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        log(f"perfbench: driver timed out after {DRIVER_TIMEOUT_S} s")
    meta, ops, spans, peak = {}, [], [], 0.0
    for line in out.splitlines():
        try:
            rec = json.loads(line)
        except ValueError:
            ok = False
            break
        meta = rec.get("meta", meta)
        if "op" in rec:
            ops.append(rec["op"])
        if "span" in rec:
            spans.append(rec["span"])
        peak = rec.get("peak_rss_mb", peak)
    return meta, ops, spans, peak, ok


def recorded_values(op):
    """The values of one op that expected.json records."""
    values = {"ticks": op["ticks"], "requests": op["requests"]}
    values.update({n: op["stats"][n] for n in STATS if n in op["stats"]})
    return values


def check(ops, reference):
    """Failure messages per op record (index -> list of strings).

    Each op must complete, show no MAC, header or integrity failure,
    and match @p reference (op id -> recorded values). Where the seed
    has no recorded values (@p reference is None), every pass must
    repeat the first pass exactly.
    """
    first = {}
    failures = {}
    for i, op in enumerate(ops):
        problems = []
        if not op["complete"]:
            problems.append("did not complete")
        problems += [f"{name} = {value:g}"
                     for name, value in op["stats"].items()
                     if name.rsplit(".", 1)[-1] in FAILURE_STATS and value]
        got = recorded_values(op)
        if reference is None:
            ref = first.setdefault(op["id"], got)
        else:
            ref = reference.get(op["id"], {})
        problems += [f"{key} = {got.get(key)}, recorded {ref.get(key)}"
                     for key in sorted(set(ref) | set(got))
                     if ref.get(key) != got.get(key)]
        if problems:
            failures[i] = problems
    return failures


def total_time(spans, name):
    """Summed duration of the spans called @p name."""
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def pass_layers(ops, spans, untraced_host):
    """Per-layer metrics of one traced pass."""
    dur = defaultdict(float)
    for s in spans:
        dur[s["config"], s["name"]] += s["end"] - s["start"]
    run = {(o["group"], o["label"]): dur[o["id"], "run"] for o in ops}
    cored = [o for o in ops if o["cores"]]
    obfus = [o for o in ops if "obfusProc.realReads" in o["stats"]]
    detailed = [o for o in ops if "oram.physicalTransfers" in o["stats"]]

    def total(name, subset=ops):
        return sum(o["stats"].get(name, 0) for o in subset)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    m["system.build_s"] = total_time(spans, "build")
    m["system.warmup_s"] = sum(dur[o["id"], "build"]
                               - dur[o["id"], "build.mempath"]
                               for o in cored)
    m["system.build_rss_mb"] = max(o["build_rss_mb"] for o in ops)
    m["cpu.run_s"] = sum(run[o["group"], o["label"]] for o in cored
                         if o["label"] == "unprotected")
    for name, pairs in RUN_DIFFS.items():
        m[name] = sum(run[g, a] - run[g, b] for a, b in pairs
                      for g, label in run if label == a and (g, b) in run)
    for name in STATS:
        if name in AVERAGED:
            have = [o["stats"][name] for o in cored if name in o["stats"]]
            m[name] = statistics.fmean(have) if have else 0.0
        else:
            m[name] = total(name)
    m["obfusmem.pad_use_ratio"] = ratio(total("obfusProc.padsUsed"),
                                        total("obfusProc.padsPrefetched"))
    m["obfusmem.msgs_per_req"] = ratio(total("bus.messages", obfus),
                                       sum(o["requests"] for o in obfus))
    m["pcm.row_hit_rate"] = ratio(total("pcm.rowHits"),
                                  total("pcm.rowHits")
                                  + total("pcm.rowMisses"))
    m["oram.transfers_per_access"] = ratio(
        total("oram.physicalTransfers", detailed),
        total("oram.accesses", detailed))
    m["sim.ns_per_event"] = ratio(1e9 * total_time(spans, "run"),
                                  total("eventq.eventsExecuted"))
    m["trace.overhead_s"] = total_time(spans, "workload") - untraced_host
    return m


def overhead_pct(ops):
    """Time-weighted mean simulated overhead of the protected configs.

    Their summed ticks over the summed ticks of their unprotected twins
    (same profile or rack shape). Weighting by simulated time keeps a
    short, seed-sensitive profile (bwaves) from setting the figure.
    """
    base = {o["group"]: o["ticks"] for o in ops
            if o["label"] == "unprotected"}
    protected = [o for o in ops if o["label"] != "unprotected"]
    return 100.0 * (sum(o["ticks"] for o in protected)
                    / sum(base[o["group"]] for o in protected) - 1)


def measure(exe, workload, seed, seconds, trace, expected):
    """Run and check one workload.

    Returns (result, meta, spans, untraced passes, traced passes), where
    result is the dict printed as the last line of a run.
    """
    meta, ops, spans, peak, ok = run_driver(exe, workload, seed, seconds,
                                            trace)
    reference = expected.get(str(seed))
    failures = check(ops, reference)
    for i, problems in failures.items():
        log(f"FAILED {ops[i]['id']} (pass {ops[i]['pass']}): "
            + "; ".join(problems))
    attempted = len(ops) + (0 if ok else 1)
    failed = len(failures) + (0 if ok else 1)

    passes = defaultdict(list)
    for o in ops:
        passes[o["pass"], o["traced"]].append(o)
    pass_spans = defaultdict(list)
    for s in spans:
        pass_spans[s["pass"]].append(s)

    def phase(p, name):
        return total_time(pass_spans[p], name)

    untraced = [p for (p, traced) in passes if not traced]
    traced = [p for (p, traced) in passes if traced]
    metrics = {}
    if ok and untraced:
        if not trace:
            values = {
                "host_s": statistics.median(phase(p, "workload")
                                            for p in untraced),
                "setup_s": statistics.median(phase(p, "build")
                                             for p in untraced),
                "sim_req_per_s": statistics.median(
                    sum(o["requests"] for o in passes[p, False])
                    / phase(p, "run") for p in untraced),
                "peak_rss_mb": peak,
                "sim_overhead_pct": overhead_pct(passes[untraced[0],
                                                        False]),
            }
            units = END_TO_END
        else:
            untraced_host = statistics.median(phase(p, "workload")
                                              for p in untraced)
            per_pass = [pass_layers(passes[p, True], pass_spans[p],
                                    untraced_host) for p in traced]
            values = {name: statistics.median(m[name] for m in per_pass)
                      for name in PER_LAYER}
            units = PER_LAYER
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name in units}
    result = {"correct": ok and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, meta, spans, len(untraced), len(traced)


def save(workload, seed, trace, result, meta, spans):
    """Write the result beside its host metadata (and the spans)."""
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=1)
    if trace:
        path = results / f"{stem}-spans.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spans, fh, indent=0)
        log(f"perfbench: span tree written to {path}")


def report(workload, seed, result, meta, untraced, traced):
    print(f"workload {workload}, seed {seed}: {untraced} untraced and "
          f"{traced} traced passes; jobs={meta.get('jobs')} "
          f"shards={meta.get('shards')} aes={meta.get('aes_impl')} "
          f"cpu={meta.get('cpu_features')} "
          f"build={meta.get('build_type')} env={meta.get('env')}")
    for name, m in result["metrics"].items():
        print(f"  {workload:5s} {name:28s} {m['value']:>16.6g} "
              f"{m['unit']}")
    print(f"  {workload:5s} operations: {result['attempted']} attempted, "
          f"{result['failed']} failed")


def load_expected():
    if not EXPECTED.exists():
        return {}
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def record(exe):
    """Re-record expected.json for the default and held-out seeds."""
    expected = {}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        values = {}
        for workload in WORKLOADS:
            _, ops, _, _, ok = run_driver(exe, workload, seed, 0, False,
                                          min_passes=1)
            failures = check(ops, None)
            if not ok or failures:
                log(f"perfbench: {workload} seed {seed} failed; "
                    "nothing recorded")
                return 1
            values.update({o["id"]: recorded_values(o) for o in ops})
        expected[str(seed)] = values
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    log(f"perfbench: recorded {EXPECTED}")
    return 0


def self_test(exe):
    """Recorded values pass; a perturbed one fails exactly its op."""
    errors = []
    spec = CHECKOUT / "BENCHMARK.json"
    if spec.exists():
        with open(spec, encoding="utf-8") as fh:
            declared = json.load(fh)
        for key, table in (("end_to_end", END_TO_END),
                           ("per_layer", PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in declared[key]}
            if listed != table:
                errors.append(f"BENCHMARK.json {key} differs from run.py")
    expected = load_expected()
    reference = expected.get(str(DEFAULT_SEED), {})
    _, ops, _, _, ok = run_driver(exe, "oram", DEFAULT_SEED, 0, False,
                                  min_passes=1)
    if not ok or not ops:
        errors.append("driver run failed")
    elif check(ops, reference):
        errors.append("unperturbed recorded values reported failures")
    else:
        for target, key in ((ops[0], "ticks"),
                            (ops[-1], "oram.physicalTransfers")):
            perturbed = copy.deepcopy(reference)
            perturbed[target["id"]][key] += 1
            failed = [ops[i]["id"] for i in check(ops, perturbed)]
            if failed != [target["id"]]:
                errors.append(f"perturbed {target['id']} {key}: "
                              f"failed ops {failed}")
    for e in errors:
        log("self-test:", e)
    print("perfbench self-test:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


def spread(exe, names, runs, seconds, expected):
    """Measure each end-to-end metric's spread over seeds 1..runs.

    Updates the entries of the workloads in @p names in spread.json.
    """
    with open(CHECKOUT / "BENCHMARK.json", encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    table = {}
    if SPREAD.exists():
        with open(SPREAD, encoding="utf-8") as fh:
            table = json.load(fh)["workloads"]
    for workload in names:
        values = defaultdict(list)
        for seed in range(1, runs + 1):
            result, meta, *_ = measure(exe, workload, seed, seconds, False,
                                       expected)
            if not result["correct"]:
                log(f"perfbench: {workload} seed {seed} failed")
                return 1
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        table[workload] = {}
        for name, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            table[workload][name] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": bounds[name]}
            log(f"{workload:5s} {name:18s} median {median:12.6g} "
                f"spread {(q3 - q1) / median:.4f} bound {bounds[name]}")
    host = {k: meta.get(k) for k in ("cpu_features", "aes_impl",
                                      "build_type")}
    host["cpus"] = os.cpu_count()
    with open(SPREAD, "w", encoding="utf-8") as fh:
        json.dump({"runs": runs, "seconds": seconds, "seeds": [1, runs],
                   "host": host, "workloads": table}, fh, indent=1)
        fh.write("\n")
    log(f"perfbench: wrote {SPREAD}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--spread", type=int, metavar="N")
    args = ap.parse_args()
    if not (args.workload or args.record or args.self_test or args.spread):
        ap.error("one of --workload, --record, --self-test, --spread "
                 "is required")

    exe = build()
    if args.record:
        return record(exe)
    if args.self_test:
        return self_test(exe)
    expected = load_expected()
    names = (WORKLOADS if args.workload in (None, "all")
             else (args.workload,))
    if args.spread:
        return spread(exe, names, args.spread, args.seconds, expected)

    results = {}
    for workload in names:
        result, meta, spans, untraced, traced = measure(
            exe, workload, args.seed, args.seconds, args.trace, expected)
        save(workload, args.seed, args.trace, result, meta, spans)
        report(workload, args.seed, result, meta, untraced, traced)
        results[workload] = result

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
