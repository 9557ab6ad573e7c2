#!/usr/bin/env python3
"""cicbench: the cicmon benchmark.

Builds the Release library, the `cicmon` CLI and the benchmark harness from
the source tree this directory sits in, runs one workload for a fixed time as
a closed loop, checks every output, and prints one JSON line of metrics.

    python3 cicbench/run.py --workload kernels --seed 42 --seconds 10 --trace 0
    python3 cicbench/run.py                      # both workloads, untraced
                                                 # then traced, as tables

Workloads: kernels, campaign-bus (see README.md); a traced campaign-bus run
also dispatches a campaign to a 2-worker fleet.
--seed is the workload seed: the kernel input seed for `kernels` (default
42) and the campaign seed for campaign-bus and its fleet (default 2026).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics. Outputs land in
.bench_build/ (the build) and .bench_out/ (spans, dispatch artifacts).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchstats  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REFERENCES = BENCH / "references.json"

WORKLOADS = ("kernels", "campaign-bus")
DEFAULT_SEED = {"kernels": 42, "campaign-bus": 2026}

# End-to-end metrics, reported by every workload (README.md defines each per
# workload): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_mips": "MIPS",
    "items_per_s": "1/s",
    "item_us_p50": "us",
    "item_us_p90": "us",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: name -> unit. Layers a workload does not exercise read 0.
PER_LAYER = {
    "workloads.build_ms": "ms",
    "cpu.preload_ms": "ms",
    "cfg.build_fht_ms": "ms",
    "cpu.construct_ms": "ms",
    "cpu.run_ms": "ms",
    "cpu.mips.baseline": "MIPS",
    "cpu.mips.cic8": "MIPS",
    "cpu.mips.cic16": "MIPS",
    "cpu.mips.cic32": "MIPS",
    "cpu.residual_ns_per_instr": "ns",
    "cpu.trial_construct_us": "us",
    "cpu.restore_us": "us",
    "mem.fetch_ns": "ns",
    "hash.step_ns": "ns",
    "cic.lookup_ns.8": "ns",
    "cic.lookup_ns.16": "ns",
    "cic.lookup_ns.32": "ns",
    "cic.iht.miss_rate": "ratio",
    "os.miss_handler_ns": "ns",
    "os.miss_exceptions": "count",
    "fault.golden_ms": "ms",
    "fault.golden_encode_ms": "ms",
    "fault.golden_decode_ms": "ms",
    "fault.golden_blob_bytes": "bytes",
    "uop.tcache.hit_rate": "ratio",
    "uop.chain.follow_rate": "ratio",
    "uop.translations_per_trial": "count",
    "uop.invalidations_per_trial": "count",
    "uop.chain.severed_per_trial": "count",
    "mem.cow_pages_per_trial": "count",
    "fault.executed_instr_per_trial": "count",
    "fault.restores_per_trial": "count",
    "fault.trial_us_p99": "us",
    "dist.busy_ms": "ms",
    "dist.queue_wait_ms": "ms",
    "dist.utilization": "ratio",
    "dist.overhead_ms": "ms",
    "dist.golden_shipped": "count",
    "dist.retried": "count",
    "wire.bytes_sent": "bytes",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}

# The fleet: the dispatch anchor campaign on two one-job worker sessions,
# dispatched FLEET_PASSES times in a traced campaign-bus run.
FLEET_WORKERS = 2
FLEET_TRIALS = 1000
FLEET_SHARDS = 8
FLEET_PASSES = 4


def fleet_campaign_args(seed):
    return ["campaign", "--workload", "stringsearch", "--scale", "4.0", "--site", "fetch-bus",
            "--trials", str(FLEET_TRIALS), "--seed", str(seed)]


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


# --- Build ------------------------------------------------------------------

def build():
    """Configures (once) and builds the harness and the CLI; returns their paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no cicmon source tree at {ROOT} (expected CMakeLists.txt and src/)")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4",
                    "--target", "cicbench_harness", "cicmon_cli"],
                   check=True, stdout=sys.stderr, timeout=900)
    return build_dir / "cicbench_harness", build_dir / "cicmon" / "cicmon"


# --- In-process workloads -------------------------------------------------------

def run_harness(harness, args):
    proc = subprocess.run([str(harness), *args], capture_output=True, text=True, timeout=170)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"harness {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counter_layers(counters):
    """Per-run engine/campaign ratios from obs counter totals."""
    def c(name):
        return counters.get(name, 0)
    runs = max(c("engine.runs"), 1)
    lookups = c("engine.tcache.hits") + c("engine.tcache.translations")
    transitions = c("engine.chain.follows") + c("engine.chain.breaks")
    return {
        "uop.tcache.hit_rate": c("engine.tcache.hits") / lookups if lookups else 0.0,
        "uop.chain.follow_rate": c("engine.chain.follows") / transitions if transitions else 0.0,
        "uop.translations_per_trial": c("engine.tcache.translations") / runs,
        "uop.invalidations_per_trial": c("engine.tcache.invalidations") / runs,
        "uop.chain.severed_per_trial": c("engine.chain.severed") / runs,
        "mem.cow_pages_per_trial": c("campaign.cow_pages_copied") / runs,
        # engine.instructions includes the golden prefix a restored trial
        # skipped; campaign.skipped_instructions takes it back out.
        "fault.executed_instr_per_trial":
            (c("engine.instructions") - c("campaign.skipped_instructions")) / runs,
        "fault.restores_per_trial": c("campaign.snapshot_restores") / runs,
    }


def overhead_layers(passes):
    untraced = [p["wall_ns"] for p in passes if not p["traced"]]
    traced = [p["wall_ns"] for p in passes if p["traced"]]
    if not untraced or not traced:
        return {"trace.overhead_ms": 0.0, "trace.overhead_pct": 0.0}
    base = benchstats.fastest(untraced)
    delta = benchstats.fastest(traced) - base
    return {"trace.overhead_ms": delta / 1e6, "trace.overhead_pct": 100.0 * delta / base}


def run_inprocess(harness, workload, seed, seconds, trace):
    doc = run_harness(harness, [workload, "--seed", str(seed), "--seconds", str(seconds),
                                "--trace", "1" if trace else "0",
                                "--spans", str(OUT / f"spans-{workload}.jsonl")])
    passes = doc["passes"]
    quiet_figures = doc["quiet"]
    items = quiet_figures["item_ns"]
    e2e = {
        "wall_s": quiet_figures["wall_ns"] / 1e9,
        "setup_s": quiet_figures["setup_ns"] / 1e9,
        "sim_mips": 1e3 * quiet_figures["instructions"] / quiet_figures["exec_ns"],
        "items_per_s": 1e9 * len(items) / quiet_figures["wall_ns"],
        "item_us_p50": benchstats.percentile(items, 50) / 1e3,
        "item_us_p90": benchstats.percentile(items, 90) / 1e3,
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
    }
    layers = {}
    if trace:
        layers.update(doc["probe"])
        layers.update(counter_layers(doc["counters"]))
        layers["fault.trial_us_p99"] = benchstats.percentile(items, 99) / 1e3
        layers.update(overhead_layers(passes))
    recorded = sum(1 for p in passes if not p["traced"])
    return {
        "e2e": e2e,
        "layers": layers,
        "attempted": len(items) * len(passes),
        "failed": doc["checks"]["failed"],
        "messages": doc["checks"]["messages"],
        "samples": f"{len(items)} items, each the median of its fastest "
                   f"{benchstats.FASTEST_KEEP} of {recorded} passes",
        "reference": reference_view(workload, doc),
        "fidelity": doc.get("fidelity"),
    }


def reference_view(workload, doc):
    """The deterministic outputs a reference pins, for the default seed."""
    if workload == "kernels":
        return {"cells": doc["cells"]}
    return {"summary": doc["summary"], "golden_instructions": doc["golden_instructions"]}


# --- Fleet ------------------------------------------------------------------------

def parse_campaign_stdout(text):
    """Outcome counts and golden instruction count from `cicmon campaign` output."""
    summary = {}
    golden = None
    for line in text.splitlines():
        cols = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cols) == 2 and cols[1].isdigit():
            summary[cols[0].replace("-", "_")] = int(cols[1])
        if "golden instructions" in line:
            golden = int(line.split(":")[1].split()[0])
    return {"summary": summary, "golden_instructions": golden}


def run_dispatch(cicmon, seed):
    """One fresh 2-worker dispatch of the fleet campaign."""
    work = OUT / "fleet-pass"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    files = {k: work / f"{k}.out" for k in ("json", "metrics")}
    cmd = [str(cicmon), "dispatch", *fleet_campaign_args(seed),
           "--workers", str(FLEET_WORKERS), "--shards", str(FLEET_SHARDS), "--jobs", "1",
           "--timeout", "120", "--dir", str(work / "shards"), "--quiet",
           "--json", str(files["json"]), "--metrics", "json",
           "--metrics-out", str(files["metrics"])]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=work)
    if proc.returncode != 0:
        raise BenchError(f"dispatch exited {proc.returncode}: {proc.stderr[-500:]}")
    return {
        "stdout": proc.stdout,
        "dispatch": json.loads(files["json"].read_text())["campaign"]["dispatch"],
        "counters": json.loads(files["metrics"].read_text())["counters"],
    }


def direct_fleet_campaign(cicmon, seed):
    """The fleet's campaign run directly in one process: the stdout every
    dispatch must reproduce."""
    direct = subprocess.run([str(cicmon), *fleet_campaign_args(seed), "--jobs", "1"],
                            capture_output=True, text=True, timeout=170, cwd=OUT)
    if direct.returncode != 0:
        raise BenchError(f"direct campaign exited {direct.returncode}: {direct.stderr[-500:]}")
    return direct.stdout


def fleet_layers(cicmon, seed, references):
    """The dist/wire layers, measured on a few checked dispatches of the fleet
    campaign. Part of a traced campaign-bus run: a multi-process pass on a
    shared host is too noisy for a bounded end-to-end metric."""
    direct = direct_fleet_campaign(cicmon, seed)
    failed, messages = 0, []
    ref = references.get("fleet")
    if ref is not None and ref["seed"] == seed:
        mismatches = benchstats.compare_reference(ref["expect"], parse_campaign_stdout(direct))
        failed += len(mismatches)
        messages += [f"fleet reference: {m}" for m in mismatches[:20]]
    passes = []
    for i in range(FLEET_PASSES):
        p = run_dispatch(cicmon, seed)
        d = p["dispatch"]
        bad = []
        if p["stdout"] != direct:
            bad.append("dispatch stdout differs from the direct campaign")
        if d["golden_shipped"] != FLEET_WORKERS:
            bad.append(f"golden shipped to {d['golden_shipped']} of {FLEET_WORKERS} workers")
        if d["retried"] or d["reused"]:
            bad.append(f"{d['retried']} shard(s) retried, {d['reused']} reused")
        if bad:
            failed += FLEET_TRIALS
            messages.append(f"fleet dispatch {i}: " + "; ".join(bad))
        passes.append(p)
    shutil.rmtree(OUT / "fleet-pass", ignore_errors=True)

    def med(fn):
        return benchstats.median([fn(p["dispatch"]) for p in passes])
    last = passes[-1]
    layers = {
        "dist.busy_ms": med(lambda d: d["busy_ms"]),
        "dist.queue_wait_ms": med(lambda d: d["queue_wait_ms"]),
        "dist.utilization": med(lambda d: d["busy_ms"] / (d["elapsed_ms"] * FLEET_WORKERS)),
        "dist.overhead_ms": med(lambda d: d["elapsed_ms"] - d["worker_wall_ms"] / FLEET_WORKERS),
        "dist.golden_shipped": last["dispatch"]["golden_shipped"],
        "dist.retried": sum(p["dispatch"]["retried"] for p in passes),
        "wire.bytes_sent": last["counters"].get("wire.bytes.sent", 0),
    }
    return {"layers": layers, "attempted": FLEET_TRIALS * FLEET_PASSES, "failed": failed,
            "messages": messages}


# --- Main ---------------------------------------------------------------------------

def run_workload(binaries, workload, seed, seconds, trace, references):
    harness, cicmon = binaries
    OUT.mkdir(exist_ok=True)
    result = run_inprocess(harness, workload, seed, seconds, trace)
    if trace and workload == "campaign-bus":
        fleet = fleet_layers(cicmon, seed, references)
        result["layers"].update(fleet["layers"])
        result["attempted"] += fleet["attempted"]
        result["failed"] += fleet["failed"]
        result["messages"] += fleet["messages"]
    ref = references.get(workload)
    if ref is not None and ref["seed"] == seed:
        mismatches = benchstats.compare_reference(ref["expect"], result["reference"])
        if mismatches:
            result["failed"] += len(mismatches)
            result["messages"] += [f"reference: {m}" for m in mismatches[:20]]
    result["failed"] = min(result["failed"], result["attempted"])
    wanted = PER_LAYER if trace else END_TO_END
    source = result["layers"] if trace else result["e2e"]
    metrics = {}
    for name, unit in wanted.items():
        if not benchstats.valid_metric_name(name):
            raise BenchError(f"invalid metric name {name!r}")
        metrics[name] = {"value": float(source.get(name, 0.0)), "unit": unit}
    result["metrics"] = metrics
    return result


def load_references(path):
    return json.loads(Path(path).read_text()) if Path(path).is_file() else {}


def record_references(binaries):
    references = {}
    for workload in WORKLOADS:
        seed = DEFAULT_SEED[workload]
        result = run_workload(binaries, workload, seed, 1, False, {})
        if result["failed"]:
            raise BenchError(f"{workload}: checks failed, not recording: {result['messages']}")
        references[workload] = {"seed": seed, "expect": result["reference"]}
    seed = DEFAULT_SEED["campaign-bus"]
    references["fleet"] = {"seed": seed, "expect": parse_campaign_stdout(
        direct_fleet_campaign(binaries[1], seed))}
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    log(f"wrote {REFERENCES}")


def print_report(untraced, traced):
    """The one-command report: end-to-end per workload, then per-layer."""
    print("end-to-end (untraced; each item the median of its fastest repetitions)")
    print(f"| {'metric':<14} | {'unit':<5} | " + " | ".join(f"{w:>13}" for w in WORKLOADS) + " |")
    for name, unit in END_TO_END.items():
        row = " | ".join(f"{untraced[w]['metrics'][name]['value']:>13.4g}" for w in WORKLOADS)
        print(f"| {name:<14} | {unit:<5} | {row} |")
    for w in WORKLOADS:
        r = untraced[w]
        print(f"{w}: figures from {r['samples']}; failed_frac {r['failed'] / r['attempted']:.4f}"
              f" ({r['failed']}/{r['attempted']})")
    print()
    print("per-layer (traced run; 0 = layer not exercised by the workload; the dist.* and")
    print(f"wire.* figures in the campaign-bus column come from {FLEET_PASSES} dispatches of the fleet)")
    print(f"| {'metric':<30} | {'unit':<5} | " + " | ".join(f"{w:>13}" for w in WORKLOADS) + " |")
    for name, unit in PER_LAYER.items():
        row = " | ".join(f"{traced[w]['metrics'][name]['value']:>13.4g}" for w in WORKLOADS)
        print(f"| {name:<30} | {unit:<5} | {row} |")
    fidelity = untraced["kernels"]["fidelity"]
    print()
    print("model fidelity (simulated time at scale 1.0, not a performance metric;")
    print("paper anchors from bench/table1_cycle_overhead.cc; every other simulated")
    print("number in this report is unvalidated against the paper):")
    print(f"  stringsearch CIC8 {fidelity['stringsearch']['cic8_pct']:.1f}% (paper 50.1%), "
          f"CIC16 {fidelity['stringsearch']['cic16_pct']:.1f}% (paper 49.4%)")
    print(f"  bitcount     CIC8 {fidelity['bitcount']['cic8_pct']:.1f}% (paper ~0%), "
          f"CIC16 {fidelity['bitcount']['cic16_pct']:.1f}% (paper ~0%)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references", default=str(REFERENCES))
    parser.add_argument("--record-references", action="store_true",
                        help="re-record references.json at the default seeds (only for an "
                             "intended change of simulated behaviour)")
    args = parser.parse_args(argv)
    try:
        binaries = build()
        if args.record_references:
            record_references(binaries)
            return 0
        references = load_references(args.references)
        if args.workload is None:
            untraced = {}
            traced = {}
            for trace, into in ((False, untraced), (True, traced)):
                for w in WORKLOADS:
                    seed = DEFAULT_SEED[w] if args.seed is None else args.seed
                    into[w] = run_workload(binaries, w, seed, args.seconds, trace, references)
            print_report(untraced, traced)
            failed = [(w, m) for d in (untraced, traced) for w, r in d.items() for m in r["messages"]]
            for w, m in failed:
                log(f"FAILED {w}: {m}")
            return 1 if any(r["failed"] for d in (untraced, traced) for r in d.values()) else 0
        seed = DEFAULT_SEED[args.workload] if args.seed is None else args.seed
        result = run_workload(binaries, args.workload, seed, args.seconds, bool(args.trace),
                              references)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as error:
        log(f"cicbench: {error}")
        return 2
    for m in result["messages"]:
        log(f"FAILED {args.workload}: {m}")
    if result["fidelity"]:
        f = result["fidelity"]
        log(f"fidelity (simulated, scale 1.0): stringsearch CIC8 {f['stringsearch']['cic8_pct']:.1f}%"
            f" / CIC16 {f['stringsearch']['cic16_pct']:.1f}% vs paper 50.1% / 49.4%; bitcount "
            f"{f['bitcount']['cic8_pct']:.1f}% / {f['bitcount']['cic16_pct']:.1f}% vs paper ~0%")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
