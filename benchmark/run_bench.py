#!/usr/bin/env python3
"""Runner of the repository benchmark (see benchmark/README.md).

Every subcommand that measures first builds benchmark/ftgcs_e2e from the
sources next to this directory (CMake, Release) into $CARGO_TARGET_DIR or
.bench_build/, then starts one driver process per repetition, one at a
time.

  run --workload W --seed N --seconds S --trace 0|1
      Repeats workload W in fresh driver processes for about S seconds.
      --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
      metrics of one traced repetition. The last stdout line is one JSON
      object: {"correct", "attempted", "failed", "metrics"}.
  set [--scale full|smoke] [--seed N] [--out FILE]
      Every workload with its repetitions interleaved (W1, W2, W3, W4, W1,
      ...), then one traced run each. Prints every end-to-end metric with
      median, quartiles and n, then the per-layer table; writes a results
      JSON.
  verify [--scale full|smoke|all]
      Regenerates pins.json from exp::run_point and checks that the traced
      and product paths reproduce it, and that workloads sharing a pin
      agree.
  compare BASE.json NEW.json
      A verdict per (metric, workload) pair; exits 1 on any regression.
  check
      Validates BENCHMARK.json and workloads.json.
"""
import argparse
import fcntl
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
DRIVER_TIMEOUT_S = 150
MIN_REPS = 3
SETUP_PROBES = 5
# Benchmark seed 1 runs every scenario's registered seeds; only it is pinned.
PINNED_SEED = 1


def note(message):
    print(message, file=sys.stderr, flush=True)


def fail(message, code):
    note(f"run_bench: {message}")
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def load_spec():
    bench = load_json(ROOT / "BENCHMARK.json")
    workloads = {w["name"]: w for w in load_json(HERE / "workloads.json")["workloads"]}
    return bench, workloads


def build_root():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def check_nproc():
    cpus = len(os.sched_getaffinity(0))
    if cpus < 4:
        note(f"run_bench: warning: {cpus} CPUs available; workloads use up to 4 threads")
    return cpus


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no ftgcs sources next to {HERE.name}/ (need CMakeLists.txt and src/)", 2)
    out = build_root() / "ftgcs_e2e"
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "build.ninja").is_file() and not (out / "Makefile").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(out), *generator])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(out), "--target", "ftgcs_e2e", "-j", jobs])
        with open(log, "w") as f:
            for cmd in steps:
                if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                  timeout=800).returncode != 0:
                    fail(f"build failed: {' '.join(cmd)}\n{log.read_text()[-3000:]}", 3)
    return out / "ftgcs_e2e"


def run_driver(exe, mode, wl, seed, tokens, extra=()):
    """One driver process. Returns (output, seconds, error)."""
    scratch = build_root() / "scratch" / f"{mode}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    cmd = [str(exe), mode, "--seed", str(seed), "--scratch", str(scratch),
           *(["--capture"] if wl["capture"] else []), *extra, "--", *tokens]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, DRIVER_TIMEOUT_S, "timed out"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        return None, elapsed, proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed, ""
    except (ValueError, IndexError):
        return None, elapsed, "unreadable driver output"


def run_single(exe, mode, wl, seed, scale, extra=()):
    """All of the workload's groups in one driver process (traced, pins)."""
    tokens = [t for process in wl["args"][scale] for t in process]
    return run_driver(exe, mode, wl, seed, tokens, extra)


# Occupancy counts combine by maximum; every other count adds up.
MAX_COUNTS = {"overflow_peak", "cut_edges", "mailbox_peak"}


def run_product(exe, wl, seed, scale, setup_probes):
    """One repetition: each of the workload's driver processes in turn, as a
    user runs one ftgcs_bench command after another. Times and counts add
    up, the peak RSS is the largest process's."""
    outs = []
    total = 0.0
    for tokens in wl["args"][scale]:
        out, elapsed, error = run_driver(exe, "product", wl, seed, tokens,
                                         ["--setup-probes", str(setup_probes)])
        total += elapsed
        if out is None:
            return None, total, error
        outs.append(out)
    merged = {key: sum(o[key] for o in outs)
              for key in ("wall_s", "events", "tasks", "task_wall_s", "pool_capacity_s")}
    merged["pool_busy_share"] = merged["task_wall_s"] / merged["pool_capacity_s"]
    merged["peak_rss_mb"] = max(o["peak_rss_mb"] for o in outs)
    merged["setup_s"] = [sum(probe) for probe in zip(*(o["setup_s"] for o in outs))]
    merged["counts"] = {key: (max if key in MAX_COUNTS else sum)(o["counts"][key] for o in outs)
                        for key in outs[0]["counts"]}
    merged["fingerprint"] = [fp for o in outs for fp in o["fingerprint"]]
    return merged, total, ""


def pinned_tasks(wl, scale, seed):
    if seed != PINNED_SEED or not PINS.is_file():
        return None
    return load_json(PINS).get(scale, {}).get(wl["pin"], {}).get("tasks")


def bad_tasks(fps, expected):
    """Indices of tasks that differ from `expected`, or that broke a monitor
    bound although their fault plan was within the budget f."""
    if expected is not None and len(expected) != len(fps):
        return set(range(max(len(fps), len(expected))))
    bad = {i for i, fp in enumerate(fps)
           if fp["monitor_violations"] > 0 and not fp["over_budget"]}
    if expected is not None:
        bad |= {i for i, (a, b) in enumerate(zip(fps, expected)) if a != b}
    return bad


class Ledger:
    """Tasks attempted and failed over all repetitions of one workload."""

    def __init__(self, expected):
        self.expected = expected  # pinned tasks, else the first good repetition's
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, what, out, error):
        if out is None:
            tasks = len(self.expected) if self.expected else 1
            self.attempted += tasks
            self.failed += tasks
            self.problems.append(f"{what}: {error}")
            return
        fps = out["fingerprint"]
        bad = bad_tasks(fps, self.expected)
        self.attempted += len(fps)
        self.failed += len(bad)
        for i in sorted(bad)[:3]:
            self.problems.append(f"{what}: task {fps[i]['task'] if i < len(fps) else i} "
                                 "does not match its pin / first repetition or broke a monitor bound")
        if self.expected is None and not bad:
            self.expected = fps

    def compare_reference(self, name, out, error):
        """The reference workload must reproduce this one's tasks exactly."""
        if out is None:
            self.problems.append(f"reference {name}: {error}")
            self.failed += 1
            return
        bad = bad_tasks(out["fingerprint"], self.expected)
        if bad:
            self.failed += len(bad)
            self.problems.append(f"reference {name} disagrees on {len(bad)} task(s)")


def check_reference(exe, wl, workloads, seed, scale, ledger):
    """For an unpinned seed, one repetition of the workload's reference
    (the same simulated run on another backend) must reproduce its rows."""
    if not wl.get("reference") or ledger.expected is None or pinned_tasks(wl, scale, seed):
        return
    ref = workloads[wl["reference"]]
    out, _, error = run_product(exe, ref, seed, scale, 0)
    ledger.compare_reference(ref["name"], out, error)


def summary(values):
    values = sorted(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def rep_values(rep):
    """The end-to-end metrics of one repetition."""
    return {
        "events_per_s": rep["events"] / rep["wall_s"],
        "wall_s": rep["wall_s"],
        "setup_s": statistics.median(rep["setup_s"]),
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def layer_metrics(traced, reps):
    spans = traced["spans"]
    counts = dict(traced["counts"])
    for key in ("events", "messages", "violations", "trace_records", "trace_bytes",
                "series_bytes"):
        counts[key] = sum(fp.get(key, 0) for fp in traced["fingerprint"])
    par = traced["par"]

    def span(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    capture_s = span("trace.commit") + span("trace.finish")
    return {
        "exp.resolve_s": span("exp.resolve"),
        "exp.probe_setup_s": span("exp.probe_setup"),
        "exp.unattributed_s": traced["task_root_s"] - traced["task_attributed_s"],
        "exp.pool_busy_share": statistics.median(r["pool_busy_share"] for r in reps),
        "exp.tasks": traced["tasks"],
        "net.topology_build_s": span("net.topology_build"),
        "net.messages": counts["messages"],
        "net.msgs_per_node_round": ratio(counts["messages"], counts["node_rounds"]),
        "core.system_build_s": span("core.system_build"),
        "core.start_s": span("core.start"),
        "core.violations": counts["violations"],
        "sim.run_until_s": span("sim.run_until"),
        "sim.ns_per_event": ratio(span("sim.run_until") * 1e9, counts["events"]),
        "sim.events": counts["events"],
        "sim.narrow_events": counts["narrow_events"],
        "sim.wide_events": counts["wide_events"],
        "sim.group_inserts": counts["group_inserts"],
        "sim.entry_bytes": counts["entry_bytes"],
        "sim.bytes_per_event": ratio(counts["entry_bytes"], counts["events"]),
        "sim.unordered_events": counts["unordered_events"],
        "sim.unordered_share": ratio(counts["unordered_events"], counts["events"]),
        "sim.ordered_run_events": counts["ordered_run_events"],
        "sim.overflow_pushes": counts["overflow_pushes"],
        "sim.reseeds": counts["reseeds"],
        "sim.rung_spawns": counts["rung_spawns"],
        "sim.overflow_peak": counts["overflow_peak"],
        "par.plan_s": span("par.plan"),
        "par.merge_s": par["merge_s"],
        "par.busy_s": par["busy_s"],
        "par.wait_s": par["wait_s"],
        "par.imbalance": par["imbalance"],
        "par.cpu_per_wall": par["cpu_per_wall"],
        "par.windows": counts["windows"],
        "par.cut_edges": counts["cut_edges"],
        "par.mailbox_peak": counts["mailbox_peak"],
        "metrics.snapshot_s": span("metrics.snapshot"),
        "metrics.measure_skews_s": span("metrics.measure_skews"),
        "metrics.probes": traced["probes"],
        "metrics.probe_p50_us": traced["probe_p50_us"],
        "metrics.probe_p99_us": traced["probe_p99_us"],
        "trace.monitor_observe_s": span("trace.monitor_observe"),
        "trace.commit_s": span("trace.commit"),
        "trace.finish_s": span("trace.finish"),
        "trace.records": counts["trace_records"],
        "trace.bytes": counts["trace_bytes"],
        "trace.mb_per_s": ratio(counts["trace_bytes"] / 1e6, capture_s),
        "obs.sample_s": span("obs.sample"),
        "obs.series_bytes": counts["series_bytes"],
    }


def trace_overhead(traced, reps):
    return traced["wall_s"] / statistics.median(r["wall_s"] for r in reps) - 1.0


def fmt(value):
    if isinstance(value, float) and value != int(value):
        return f"{value:.6g}"
    return f"{value:.0f}" if isinstance(value, (int, float)) else str(value)


def print_e2e_table(bench, by_workload):
    print(f"{'workload':<22} {'metric':<14} {'unit':<9} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}")
    for name, stats in by_workload.items():
        for m in bench["end_to_end"]:
            s = stats[m["name"]]
            print(f"{name:<22} {m['name']:<14} {m['unit']:<9} {fmt(s['median']):>12} "
                  f"{fmt(s['q1']):>12} {fmt(s['q3']):>12} {s['n']:>4}")


def print_layer_table(bench, layers):
    names = list(layers)
    print(f"{'layer metric':<26} {'unit':<16}" + "".join(f" {n[:20]:>20}" for n in names))
    for m in bench["per_layer"]:
        print(f"{m['name']:<26} {m['unit']:<16}" +
              "".join(f" {fmt(layers[n][m['name']]):>20}" for n in names))


# ---- run: one workload, the driver's contract ---------------------------------------

def cmd_run(args):
    bench, workloads = load_spec()
    if args.workload not in workloads:
        fail(f"unknown workload '{args.workload}' (have: {', '.join(workloads)})", 2)
    wl = workloads[args.workload]
    exe = build()
    check_nproc()

    scale = "full"
    ledger = Ledger(pinned_tasks(wl, scale, args.seed))
    reps = []
    start = time.perf_counter()
    longest = 0.0
    attempts = 0
    # A traced run needs room for its own repetition after the untraced ones.
    reserve = 2.5 if args.trace else 1.0
    while attempts < MIN_REPS or time.perf_counter() - start + reserve * longest <= args.seconds:
        out, elapsed, error = run_product(exe, wl, args.seed, scale, SETUP_PROBES)
        attempts += 1
        longest = max(longest, elapsed)
        ledger.record(f"repetition {attempts}", out, error)
        if out is not None:
            reps.append(out)
        elif attempts >= MIN_REPS and not reps:
            break
    traced = None
    if args.trace and reps:
        traced, _, error = run_single(exe, "traced", wl, args.seed, scale)
        ledger.record("traced run", traced, error)
    check_reference(exe, wl, workloads, args.seed, scale, ledger)

    for problem in ledger.problems:
        note(f"run_bench: {problem}")
    if not reps or (args.trace and traced is None):
        fail(f"no successful repetition of {wl['name']}", 1)

    if args.trace:
        metrics = layer_metrics(traced, reps)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        print_layer_table(bench, {wl["name"]: metrics})
        print(f"tracing overhead vs the untraced median: {trace_overhead(traced, reps):+.1%}; "
              f"unattributed task time: {metrics['exp.unattributed_s']:.4f} s")
    else:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for rep in reps:
            for key, value in rep_values(rep).items():
                values[key].append(value)
        values["setup_s"] = [s for rep in reps for s in rep["setup_s"]]
        stats = {key: summary(v) for key, v in values.items()}
        print_e2e_table(bench, {wl["name"]: stats})
        metrics = {key: s["median"] for key, s in stats.items()}
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


# ---- set: every workload, interleaved -----------------------------------------------

def cmd_set(args):
    bench, workloads = load_spec()
    names = list(workloads)
    exe = build()
    cpus = check_nproc()
    ledgers = {n: Ledger(pinned_tasks(workloads[n], args.scale, args.seed)) for n in names}
    reps = {n: [] for n in names}
    rounds = max(workloads[n]["reps"][args.scale] for n in names)
    started = time.time()
    for r in range(rounds):
        for name in names:
            wl = workloads[name]
            if r >= wl["reps"][args.scale]:
                continue
            out, elapsed, error = run_product(exe, wl, args.seed, args.scale, SETUP_PROBES)
            ledgers[name].record(f"{name} repetition {r + 1}", out, error)
            if out is not None:
                reps[name].append(out)
            note(f"{name} {r + 1}/{wl['reps'][args.scale]}: {elapsed:.2f} s")

    spans_dir = build_root() / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    results = {"schema": "ftgcs-bench-results-v1", "scale": args.scale, "seed": args.seed,
               "nproc": cpus, "started": time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime(started)),
               "workloads": {}}
    e2e, layers = {}, {}
    for name in names:
        wl = workloads[name]
        ledger = ledgers[name]
        traced, _, error = run_single(exe, "traced", wl, args.seed, args.scale,
                                      ["--spans", str(spans_dir / f"{name}.tsv")])
        ledger.record(f"{name} traced run", traced, error)
        check_reference(exe, wl, workloads, args.seed, args.scale, ledger)
        for problem in ledger.problems:
            note(f"run_bench: {problem}")
        if not reps[name]:
            fail(f"no successful repetition of {name}", 1)
        per_rep = [rep_values(rep) for rep in reps[name]]
        e2e[name] = {m["name"]: summary([v[m["name"]] for v in per_rep])
                     for m in bench["end_to_end"]}
        entry = {
            "end_to_end": e2e[name],
            "reps": per_rep,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "failed_share": ledger.failed / max(1, ledger.attempted),
            "counts": reps[name][0]["counts"],
        }
        if traced is not None:
            layers[name] = layer_metrics(traced, reps[name])
            entry["per_layer"] = layers[name]
            entry["trace_overhead"] = trace_overhead(traced, reps[name])
            entry["spans"] = traced["spans"]
        results["workloads"][name] = entry

    print_e2e_table(bench, e2e)
    print()
    for name in names:
        entry = results["workloads"][name]
        overhead = entry.get("trace_overhead")
        print(f"{name}: failed_share {entry['failed_share']:.3f} "
              f"({entry['failed']}/{entry['attempted']} tasks)" +
              (f", tracing overhead {overhead:+.1%}" if overhead is not None else ""))
    if layers:
        print()
        print_layer_table(bench, layers)
    out_path = Path(args.out) if args.out else \
        build_root() / f"results-{args.scale}-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as f:
        json.dump(results, f, indent=1)
    print(f"\nresults: {out_path} ({time.time() - started:.0f} s)")
    if any(ledgers[n].failed for n in names):
        sys.exit(1)


# ---- verify: regenerate the pins -------------------------------------------------------

def cmd_verify(args):
    _, workloads = load_spec()
    exe = build()
    scales = ["full", "smoke"] if args.scale == "all" else [args.scale]
    pins = load_json(PINS) if PINS.is_file() else {}
    ok = True
    for scale in scales:
        fresh = {}
        for name, wl in workloads.items():
            out, _, error = run_single(exe, "pins", wl, PINNED_SEED, scale)
            if out is None:
                fail(f"{scale}/{name}: run_point failed: {error}", 1)
            tasks = out["fingerprint"]
            problems = []
            if bad_tasks(tasks, None):
                problems.append("a monitor bound broke within the fault budget")
            if wl["pin"] in fresh and fresh[wl["pin"]] != tasks:
                problems.append(f"disagrees with another workload pinned as '{wl['pin']}'")
            fresh.setdefault(wl["pin"], tasks)
            for mode in ("traced", "product"):
                if mode == "product":
                    other, _, error = run_product(exe, wl, PINNED_SEED, scale, 0)
                else:
                    other, _, error = run_single(exe, mode, wl, PINNED_SEED, scale)
                if other is None:
                    problems.append(f"{mode} run failed: {error}")
                elif other["fingerprint"] != tasks:
                    problems.append(f"{mode} rows differ from exp::run_point")
            ok &= not problems
            print(f"{scale}/{name}: {len(tasks)} tasks " +
                  ("ok" if not problems else "FAILED: " + "; ".join(problems)))
        if ok:
            pins[scale] = {pin: {"seed": PINNED_SEED, "tasks": tasks}
                           for pin, tasks in fresh.items()}
    if not ok:
        fail("pins not written", 1)
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1)
        f.write("\n")
    print(f"wrote {PINS.relative_to(ROOT)}")


# ---- compare: verdicts between two result sets ------------------------------------------

def judge(base, new, better, bound):
    """improved / unchanged / regressed / unresolved, per the benchmark's
    bounds and the rule for claiming a gain: >= 10 pairs, the new side wins
    >= 9/10 of them, and the medians differ by more than the base IQR."""
    sign = 1.0 if better == "lower" else -1.0

    def beats(x, y):  # y better than x
        return sign * (y - x) < 0

    b, n = summary(base), summary(new)
    worse = sign * (n["median"] - b["median"]) / b["median"]
    spread = max((b["q3"] - b["q1"]) / b["median"], (n["q3"] - n["q1"]) / n["median"])
    pairs = list(zip(base, new))
    wins = sum(beats(x, y) for x, y in pairs)
    all_better = all(beats(x, y) for x in base for y in new)
    gain = (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and
            beats(b["median"], n["median"]) and
            abs(n["median"] - b["median"]) > b["q3"] - b["q1"])
    if gain and (spread <= bound or all_better):
        verdict = "improved"
    elif all_better:
        verdict = "unchanged"
    elif spread > bound:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regressed"
    else:
        verdict = "unchanged"
    return verdict, worse, spread, wins, len(pairs)


def cmd_compare(args):
    bench, _ = load_spec()
    base, new = load_json(args.base), load_json(args.new)
    regressed = False
    print(f"{'workload':<22} {'metric':<14} {'base':>12} {'new':>12} {'worse':>8} "
          f"{'spread':>7} {'wins':>6}  verdict")
    for name in base["workloads"]:
        if name not in new["workloads"]:
            print(f"{name:<22} missing from {args.new}")
            regressed = True
            continue
        a, b = base["workloads"][name], new["workloads"][name]
        for m in bench["end_to_end"]:
            xs = [r[m["name"]] for r in a["reps"]]
            ys = [r[m["name"]] for r in b["reps"]]
            verdict, worse, spread, wins, pairs = judge(xs, ys, m["better"], m["bound"])
            regressed |= verdict == "regressed"
            print(f"{name:<22} {m['name']:<14} {fmt(statistics.median(xs)):>12} "
                  f"{fmt(statistics.median(ys)):>12} {worse:>+8.1%} {spread:>7.1%} "
                  f"{wins:>3}/{pairs:<2}  {verdict}")
        if b["failed_share"] > a["failed_share"]:
            print(f"{name:<22} failed_share {a['failed_share']:.3f} -> {b['failed_share']:.3f}  regressed")
            regressed = True
        if (base["seed"], base["scale"]) == (new["seed"], new["scale"]) and a["counts"] != b["counts"]:
            print(f"{name:<22} deterministic counts differ  regressed")
            regressed = True
    sys.exit(1 if regressed else 0)


# ---- check: validate the benchmark definition ---------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def check_definition(bench, workloads, raw_size):
    errors = []

    def expect(cond, message):
        if not cond:
            errors.append(message)

    expect(raw_size <= 64 * 1024, "BENCHMARK.json is larger than 64 KiB")
    expect(set(bench) == TOP_KEYS, f"BENCHMARK.json keys must be exactly {sorted(TOP_KEYS)}")
    command = bench.get("command", [])
    expect(isinstance(command, list) and 1 <= len(command) <= 32 and
           all(isinstance(c, str) and len(c) <= 200 for c in command),
           "command: 1 to 32 strings of at most 200 characters")
    for c in command:
        expect(not c.startswith("/") and ".." not in c.split("/"), f"command: '{c}' leaves the repo")
    paths = bench.get("paths", [])
    expect(isinstance(paths, list) and 1 <= len(paths) <= 16, "paths: 1 to 16 entries")
    for p in paths:
        expect(isinstance(p, str) and PATH.fullmatch(p) and not p.startswith("/") and
               ".." not in p.split("/") and (ROOT / p).is_dir(), f"paths: bad entry '{p}'")
        links = [f for f in (ROOT / p).rglob("*") if f.is_symlink()]
        expect(not links, f"paths: {p} holds links: {links[:3]}")
    for c in command[1:]:
        if (ROOT / c).exists():
            expect(any(Path(c).parts[:len(Path(p).parts)] == Path(p).parts for p in paths),
                   f"command: '{c}' names a file outside paths")
    seconds = bench.get("run_seconds")
    expect(isinstance(seconds, int) and 1 <= seconds <= 60, "run_seconds: whole number in [1, 60]")

    names = []
    wls = bench.get("workloads", [])
    expect(2 <= len(wls) <= 8, "workloads: 2 to 8")
    for w in wls:
        expect(set(w) == {"name", "why"}, f"workload {w.get('name')}: keys must be name, why")
        why = w.get("why", "")
        expect(isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why,
               f"workload {w.get('name')}: why must be one line of at most 200 characters")
        names.append(w.get("name", ""))
    metrics = {}
    e2e = bench.get("end_to_end", [])
    expect(1 <= len(e2e) <= 16, "end_to_end: 1 to 16 metrics")
    for m in e2e:
        expect(set(m) == {"name", "unit", "better", "bound"},
               f"end_to_end {m.get('name')}: keys must be name, unit, better, bound")
        bound = m.get("bound")
        expect(isinstance(bound, (int, float)) and 0 <= bound <= 0.25,
               f"end_to_end {m.get('name')}: bound must be in [0, 0.25]")
        metrics[m.get("name")] = m
    setup = metrics.get("setup_s", {})
    expect(setup.get("unit") == "s" and setup.get("better") == "lower",
           "end_to_end must have setup_s with unit s, better lower")
    expect(all(setup.get("bound", 0) >= m.get("bound", 0) for m in e2e),
           "setup_s must have the largest bound")
    layer = bench.get("per_layer", [])
    expect(1 <= len(layer) <= 128, "per_layer: 1 to 128 metrics")
    for m in layer:
        expect(set(m) == {"name", "unit", "better"},
               f"per_layer {m.get('name')}: keys must be name, unit, better")
    for m in e2e + layer:
        expect(m.get("better") in ("higher", "lower"), f"{m.get('name')}: better is higher or lower")
        expect(isinstance(m.get("unit"), str) and UNIT.fullmatch(m["unit"]),
               f"{m.get('name')}: bad unit")
        names.append(m.get("name", ""))
    for n in names:
        expect(isinstance(n, str) and NAME.fullmatch(n), f"bad name '{n}'")
        expect(names.count(n) == 1, f"name '{n}' is used more than once")

    wl_names = [w.get("name") for w in wls]
    expect(sorted(wl_names) == sorted(workloads["by_name"]),
           "workloads.json must define exactly the BENCHMARK.json workloads")
    for name, w in workloads["by_name"].items():
        for key in ("why", "pin", "args", "reps", "capture"):
            expect(key in w, f"workloads.json {name}: missing '{key}'")
        for scale in ("full", "smoke"):
            processes = w.get("args", {}).get(scale)
            expect(isinstance(processes, list) and processes and
                   all(isinstance(p, list) and p and all(isinstance(t, str) for t in p)
                       for p in processes),
                   f"workloads.json {name}: args.{scale} must list driver processes, "
                   "each a non-empty list of strings")
            reps = w.get("reps", {}).get(scale)
            expect(isinstance(reps, int) and reps >= 1, f"workloads.json {name}: reps.{scale} >= 1")
        if "reference" in w:
            expect(w["reference"] in workloads["by_name"], f"workloads.json {name}: unknown reference")
    moves = {entry["metric"]: entry.get("moves", []) for entry in workloads["layers"]}
    expect(sorted(moves) == sorted(m.get("name") for m in layer),
           "workloads.json layers must list exactly the per_layer metrics")
    for metric, targets in moves.items():
        expect(len(targets) >= 1, f"layer metric {metric}: names no end-to-end metric it moves")
        for t in targets:
            expect(t.get("metric") in metrics, f"layer metric {metric}: unknown end-to-end metric")
            expect(t.get("workloads") and all(x in wl_names for x in t["workloads"]),
                   f"layer metric {metric}: unknown or missing workloads")
    return errors


def cmd_check(_args):
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    wl_file = load_json(HERE / "workloads.json")
    workloads = {"by_name": {w["name"]: w for w in wl_file["workloads"]},
                 "layers": wl_file["layers"]}
    errors = check_definition(json.loads(raw), workloads, len(raw))
    for e in errors:
        print(f"check: {e}")
    if errors:
        sys.exit(1)
    bench = json.loads(raw)
    runs = 4 + 22 * len(bench["workloads"])
    print(f"check: ok ({len(bench['workloads'])} workloads, {len(bench['end_to_end'])} end-to-end "
          f"and {len(bench['per_layer'])} per-layer metrics; {runs} runs of {bench['run_seconds']} s)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="measure one workload for --seconds")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run.set_defaults(func=cmd_run)
    bset = sub.add_parser("set", help="every workload, repetitions interleaved")
    bset.add_argument("--scale", choices=("full", "smoke"), default="full")
    bset.add_argument("--seed", type=int, default=PINNED_SEED)
    bset.add_argument("--out")
    bset.set_defaults(func=cmd_set)
    verify = sub.add_parser("verify", help="regenerate pins.json")
    verify.add_argument("--scale", choices=("full", "smoke", "all"), default="all")
    verify.set_defaults(func=cmd_verify)
    compare = sub.add_parser("compare", help="verdicts between two result sets")
    compare.add_argument("base")
    compare.add_argument("new")
    compare.set_defaults(func=cmd_compare)
    check = sub.add_parser("check", help="validate BENCHMARK.json and workloads.json")
    check.set_defaults(func=cmd_check)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
