#!/usr/bin/env python3
"""Fleet benchmark for the Kite simulator.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the simulator from src/ in
its own build tree (Release for timed runs, -pg -g for the traced run), runs
one workload for S seconds, checks every op, and prints as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json, measured
with every instrument off. --trace 1 reports the per-layer metrics: it runs
the untraced build as a reference, then the -pg build with the program's
accounting-only ledgers on, and folds gprof's flat profile and call graph by
source directory.

The build tree is $CARGO_TARGET_DIR when set, else .bench_build/.
"""
import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("udp_bulk", "kv_fleet", "blk_mixed", "guest_churn")
RUN_TIMEOUT_S = 170

# The -pg build keeps out-of-line every function not declared inline, and
# keeps each function in one piece under its own name: gprof does not know
# GCC's split-off parts and clones ("foo.part.0", "foo.isra.0", "foo.cold")
# and charges their samples and calls to whatever symbol precedes them. Every
# call is a real call, so each arc names its true caller. Call counts for
# functions such as XenStore::FindNode or DiskMedia::Read are then exact. The
# build links statically, so that gprof also samples time spent in the C and
# C++ runtime libraries (malloc, memcpy, std::string).
GPROF_FLAGS = ("-O2 -g -pg -fno-omit-frame-pointer -fno-inline-functions "
               "-fno-inline-small-functions -fno-inline-functions-called-once "
               "-fno-partial-inlining -fno-ipa-sra -fno-ipa-cp-clone "
               "-fno-reorder-blocks-and-partition -fno-optimize-sibling-calls")
VARIANTS = {
    "release": ["-DCMAKE_BUILD_TYPE=Release"],
    "gprof": ["-DCMAKE_BUILD_TYPE=None", "-DPERFBENCH_GPROF=ON",
              "-DCMAKE_CXX_FLAGS=" + GPROF_FLAGS, "-DCMAKE_EXE_LINKER_FLAGS=-pg -static"],
}

# Public functions whose exact call counts the traced run reports per op.
CALL_COUNTS = {
    "net.reasm_adds_per_op": ["kite::Ipv4Reassembler::Add("],
    "bmk.parks_per_op": ["kite::BmkSched::Park("],
    "hv.watch_checks_per_op": ["kite::PathIsUnder("],
    "hv.xenstore_lookups_per_op": ["kite::XenStore::FindNode("],
    "hv.pages_granted_per_op": ["kite::GrantTable::GrantAccess("],
    "blk.media_calls_per_op": ["kite::DiskMedia::Read(", "kite::DiskMedia::Write("],
}


# gprof's own routines, and the symbols their samples land on: gprof leaves
# _mcount and __mcount_internal out of its symbol table, so in the static
# binary their samples are charged to the symbols just before them
# (__profile_frequency, tcgetattr), which the program never calls.
PROFILER_SYMBOLS = {"_mcount", "mcount", "__mcount_internal", "__fentry__",
                    "__profile_frequency", "tcgetattr", "__tcgetattr"}


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(variant):
    """Configures and (incrementally) builds one variant; returns its dir."""
    out = os.path.join(build_root(), "perfbench-" + variant)
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", out] + generator + VARIANTS[variant],
                    ["cmake", "--build", out, "-j", jobs]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("building the %s variant failed (log: %s)" % (variant, log_path), 3)
    return out


def stamp(build_dir):
    """Source revision, compiler and flags the numbers were produced with."""
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"([A-Z_]+):\w+=(.*)", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "-dumpfullversion"], capture_output=True,
                             text=True).stdout.strip()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(x for x in (cache.get("CMAKE_CXX_FLAGS", ""),
                                 cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""))
                     if x)
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                         text=True).stdout.strip() or "none"
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "git=%s sources=%s compiler=%s-%s flags=[%s]" % (
        sha[:12], digest.hexdigest()[:12], os.path.basename(compiler), version, flags)


def run_binary(build_dir, args, workdir):
    binary = os.path.join(build_dir, "perfbench_kite")
    out = os.path.join(workdir, "result.json")
    proc = subprocess.run([binary] + args + ["--out", out], cwd=workdir,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("perfbench_kite exited with %d" % proc.returncode)
    with open(out) as f:
        return json.load(f)


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def check_repeat(build_dir, key, exact):
    """Cross-run determinism guard: the exact metrics of one seed on one
    binary must repeat bit for bit. Returns the first metric that differs."""
    binary = os.path.join(build_dir, "perfbench_kite")
    record_dir = os.path.join(build_root(), "determinism", file_digest(binary))
    os.makedirs(record_dir, exist_ok=True)
    path = os.path.join(record_dir, key + ".json")
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(exact, f, sort_keys=True)
        return ""
    with open(path) as f:
        before = json.load(f)
    for name in sorted(set(before) | set(exact)):
        if before.get(name) != exact.get(name):
            return "%s was %r in an earlier run of this seed and binary, now %r" % (
                name, before.get(name), exact.get(name))
    return ""


def demangle(names):
    proc = subprocess.run(["c++filt"], input="\n".join(names), capture_output=True,
                          text=True)
    out = proc.stdout.split("\n")
    return dict(zip(names, out)) if proc.returncode == 0 else {n: n for n in names}


def parse_flat(text):
    """gprof -p: {symbol: (self_seconds, calls)} and the sample period."""
    period = 0.01
    m = re.search(r"Each sample counts as ([0-9.]+) seconds", text)
    if m:
        period = float(m.group(1))
    flat = {}
    row = re.compile(r"^\s*[0-9.]+\s+[0-9.]+\s+([0-9.]+)\s+(?:(\d+)\s+[0-9.]+\s+[0-9.]+\s+)?(\S.*)$")
    for line in text.splitlines():
        m = row.match(line)
        if m:
            self_s, calls, name = m.groups()
            flat[name.strip()] = (float(self_s), int(calls or 0))
    return flat, period


def parse_callers(text):
    """gprof -q: {symbol: [(caller, calls)]}."""
    callers = {}
    for block in text.split("-----------------------------------------------"):
        parents = []
        for line in block.splitlines():
            if line.startswith("["):
                m = re.match(r"^\[\d+\]\s+[0-9.]+\s+[0-9.]+\s+[0-9.]+\s+(?:[0-9+]+\s+)?(\S+)",
                             line)
                if m:
                    callers[m.group(1)] = parents
                break
            m = re.match(r"^\s+[0-9.]+\s+[0-9.]+\s+(\d+)(?:/\d+)?\s+(\S+)\s+\[\d+\]", line)
            if m:
                parents.append((m.group(2), int(m.group(1))))
    return callers


def type_modules():
    """Maps each class/struct name defined under src/ to its module."""
    modules = {}
    pattern = re.compile(r"^\s*(?:class|struct)\s+([A-Za-z_]\w*)\b[^;]*$")
    src = os.path.join(ROOT, "src")
    for module in sorted(os.listdir(src)):
        mdir = os.path.join(src, module)
        if not os.path.isdir(mdir):
            continue
        for name in sorted(os.listdir(mdir)):
            if name.endswith((".h", ".cc")):
                with open(os.path.join(mdir, name), errors="replace") as f:
                    for line in f:
                        m = pattern.match(line)
                        if m:
                            modules.setdefault(m.group(1), module)
    return modules


ENTITY = re.compile(r"\b(kite|perfbench)::(?:\(anonymous namespace\)::)?(\w+)")


def lambda_scope(text):
    """The Kite or benchmark entity whose body defines the first lambda named
    in a demangled symbol (e.g. MemcachedServer for a std::function wrapping
    a lambda from MemcachedServer's constructor), or None."""
    p = text.find("::{lambda")
    if p < 0:
        return None
    head = text[:p]
    if head.endswith(" const"):
        head = head[:-len(" const")]
    if head.endswith(")"):
        depth = 0
        for k in range(len(head) - 1, -1, -1):
            depth += {")": 1, "(": -1}.get(head[k], 0)
            if depth == 0:
                head = head[:k]
                break
    found = list(ENTITY.finditer(head))
    return found[-1] if found else None


def fold_profile(build_dir, workdir):
    """Self time and call counts per symbol, each symbol placed in a module.

    A lambda, and any template instantiated with one (a std::function or an
    executor callback wrapping it), belongs to the module of the function
    that defines the lambda. Any other symbol defined in src/<module>/
    belongs to <module>, one defined in perfbench/ to `bench`. A library
    template instantiated for a Kite type (a set of scheduler slots) belongs
    to the module of the first Kite entity in its name. Any other symbol
    inherits the modules of its callers, split by call count; what is left
    (the runtime libraries, which gprof samples but cannot see callers of)
    is unplaced.
    """
    binary = os.path.join(build_dir, "perfbench_kite")
    gmon = os.path.join(workdir, "gmon.out")
    if not os.path.exists(gmon):
        fail("the traced run wrote no gmon.out")
    flat_text = subprocess.run(["gprof", "-b", "-p", "--no-demangle", binary, gmon],
                               capture_output=True, text=True, check=True).stdout
    graph_text = subprocess.run(["gprof", "-b", "-q", "--no-demangle", binary, gmon],
                                capture_output=True, text=True, check=True).stdout
    flat, period = parse_flat(flat_text)
    callers = parse_callers(graph_text)
    files = {}
    nm = subprocess.run(["nm", "-l", "--defined-only", binary], capture_output=True,
                        text=True, check=True).stdout
    for line in nm.splitlines():
        parts = line.split("\t")
        fields = parts[0].split()
        if len(parts) == 2 and len(fields) == 3:
            files[fields[2]] = parts[1].rsplit(":", 1)[0]
    names = demangle(sorted(set(flat) | set(files) |
                            {c for cs in callers.values() for c, _ in cs}))
    src = os.path.join(ROOT, "src") + os.sep

    def file_module(symbol):
        path = os.path.realpath(files.get(symbol, ""))
        if path.startswith(src):
            return path[len(src):].split(os.sep)[0]
        if path.startswith(HERE + os.sep):
            return "bench"
        return None

    # Kite entities (classes and free functions) by module: from the symbols
    # defined in each module, then from the class definitions in its sources.
    entities = {}
    for symbol in files:
        module = file_module(symbol)
        m = ENTITY.match(names.get(symbol, ""))
        if module and m:
            entities.setdefault(m.group(2), module)
    for name, module in type_modules().items():
        entities.setdefault(name, module)

    def entity_module(m):
        return "bench" if m.group(1) == "perfbench" else entities.get(m.group(2))

    def direct(symbol):
        text = names.get(symbol, symbol)
        scope = lambda_scope(text)
        if scope is not None and entity_module(scope):
            return entity_module(scope)
        module = file_module(symbol)
        if module:
            return module
        for m in ENTITY.finditer(text):
            if entity_module(m):
                return entity_module(m)
        return None

    memo = {}

    def shares(symbol, depth=0):
        """{module: fraction} of the work done in `symbol`."""
        if symbol in memo:
            return memo[symbol]
        module = direct(symbol)
        if module is not None:
            result = {module: 1.0}
        else:
            memo[symbol] = {}  # Recursion guard.
            result = {}
            parents = [(c, n) for c, n in callers.get(symbol, []) if c != symbol]
            total = sum(n for _, n in parents)
            if depth < 16 and total > 0:
                for caller, n in parents:
                    for mod, frac in shares(caller, depth + 1).items():
                        result[mod] = result.get(mod, 0.0) + frac * n / total
        memo[symbol] = result
        return result

    self_s = {}
    calls = {}
    for symbol, (seconds, count) in flat.items():
        if symbol in PROFILER_SYMBOLS:
            continue
        placed = shares(symbol)
        for module, frac in placed.items():
            self_s[module] = self_s.get(module, 0.0) + seconds * frac
        # Whatever the callers could not place stays unplaced.
        self_s["?"] = self_s.get("?", 0.0) + seconds * (1.0 - sum(placed.values()))
        text = names.get(symbol, symbol)
        for metric, prefixes in CALL_COUNTS.items():
            if any(text.startswith(p) for p in prefixes):
                calls[metric] = calls.get(metric, 0) + count
    return self_s, calls, period


def host_median(result, key):
    """Median over rounds of a host-clock value, skipping the first round,
    which also pays for the process's own warm-up."""
    values = result[key]
    return statistics.median(values[1:] if len(values) > 1 else values)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        fail("no BENCHMARK.json at the checkout root")
    with open(path) as f:
        return json.load(f)


def end_to_end(result):
    sim = result["sim"]
    return {
        "host_ns_per_op": host_median(result, "host_ns_per_op"),
        "setup_s": host_median(result, "setup_s"),
        "peak_rss_mb": result["peak_rss_mb"],
        "sim_ops_per_s": sim["sim_ops_per_s"],
        "sim_p50_us": sim["sim_p50_us"],
        "sim_p99_us": sim["sim_p99_us"],
        "sim_driver_cpu_ns_per_op": sim["sim_driver_cpu_ns_per_op"],
        "ok_ratio": sim["ok_ratio"],
    }


def exact_metrics(result):
    exact = dict(result["sim"])
    exact.update(result["counts"])
    return exact


def per_layer(args, release_dir, gprof_dir, workdir):
    """The traced run: per-layer metrics plus its consistency checks."""
    ref = run_binary(release_dir, ["--workload", args.workload, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds)], workdir)
    traced = run_binary(gprof_dir, ["--workload", args.workload, "--seed", str(args.seed),
                                    "--seconds", str(args.seconds), "--traced"], workdir)
    errors = []
    for name in sorted(set(ref["sim"]) | {"sim.events_per_op"}):
        a = ref["sim"].get(name, ref["counts"].get(name))
        b = traced["sim"].get(name, traced["counts"].get(name))
        if a != b:
            errors.append("%s differs between the untraced (%r) and traced (%r) runs"
                          % (name, a, b))
    if traced["mismatches"]:
        errors.append("%d ops of the traced run failed verification, first: %s"
                      % (traced["mismatches"], traced["first_mismatch"]))
    self_s, calls, period = fold_profile(gprof_dir, workdir)
    ops = traced["samples"]
    m = dict(traced["counts"])
    for metric, count in calls.items():
        m[metric] = count / ops
    for metric in CALL_COUNTS:
        m.setdefault(metric, 0.0)
    modules = sorted(d for d in os.listdir(os.path.join(ROOT, "src"))
                     if os.path.isdir(os.path.join(ROOT, "src", d))) + ["bench"]
    sampled = sum(self_s.values())
    for module in modules:
        seconds = self_s.get(module, 0.0)
        m[module + ".self_ns_per_op"] = seconds * 1e9 / ops
        m[module + ".samples"] = round(seconds / period)
    # Sampled time in symbols that have no module and no profiled caller:
    # the C and C++ runtime libraries (malloc, memcpy, std::string).
    unattributed = self_s.get("?", 0.0)
    m["unattributed.self_ns_per_op"] = unattributed * 1e9 / ops
    m["gprof.samples"] = round(sampled / period)
    m["gprof.unattributed_share"] = unattributed / sampled if sampled > 0 else 0.0
    # Window CPU time the profile does not show: gprof's call counting.
    cpu_s = traced["seed_window_cpu_s"]
    m["gprof.overhead_share"] = max(0.0, cpu_s - sampled) / cpu_s
    traced_host = host_median(traced, "host_ns_per_op")
    untraced_host = host_median(ref, "host_ns_per_op")
    m["trace.overhead_ratio"] = traced_host / untraced_host
    m["sim.host_ns_per_event"] = untraced_host / ref["counts"]["sim.events_per_op"]
    host = traced["host"]
    for metric, span in (("net.send_call_ns", "net.send_call_ns"),
                         ("blkdrv.submit_call_ns", "blkdrv.submit_call_ns")):
        if span in host:
            m[metric] = host[span]
    if "core.bringup_ns" in host:
        m["core.bringup_ms_per_guest"] = host["core.bringup_ns"] / 1e6
    else:
        m["core.bringup_ms_per_guest"] = host["core.setup_bringup_ms_per_guest"]
    if "core.teardown_ns" in host:
        m["core.teardown_ms_per_guest"] = host["core.teardown_ns"] / 1e6
    for metric in ("netdrv.rss_kb_per_vif", "blkdrv.rss_kb_per_vbd"):
        if metric in host:
            m[metric] = host[metric]
    return ref, traced, m, errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "core", "system.h")):
        fail("no simulator sources under %s/src; run from a source checkout"
             % ROOT)
    spec = load_spec()

    # Both variants are built on every run (a no-op once up to date), so only
    # the first run in a checkout pays for compilation.
    release_dir = build("release")
    gprof_dir = build("gprof")
    workdir = os.path.join(build_root(), "runs", "%s-%d-%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if args.trace == 0:
            print("build: " + stamp(release_dir))
            result = run_binary(release_dir, ["--workload", args.workload, "--seed",
                                              str(args.seed), "--seconds",
                                              str(args.seconds)], workdir)
            values = end_to_end(result)
            wanted = spec["end_to_end"]
            errors = []
            repeat = check_repeat(release_dir, "%s-%d" % (args.workload, args.seed),
                                  exact_metrics(result))
        else:
            print("build: " + stamp(gprof_dir))
            result, traced, values, errors = per_layer(args, release_dir, gprof_dir,
                                                       workdir)
            wanted = spec["per_layer"]
            repeat = (check_repeat(release_dir, "%s-%d" % (args.workload, args.seed),
                                   exact_metrics(result)) or
                      check_repeat(gprof_dir, "%s-%d" % (args.workload, args.seed),
                                   exact_metrics(traced)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if repeat:
        errors.append(repeat)
    if result["determinism_error"]:
        errors.append("rounds of one seed disagree: " + result["determinism_error"])
    if result["mismatches"]:
        errors.append("%d ops failed verification, first: %s"
                      % (result["mismatches"], result["first_mismatch"]))

    print("workload %s  seed %d  rounds %d  ops %d  failed %d  p99 over %d samples "
          "(%d beyond)" % (args.workload, args.seed, result["rounds"], result["attempted"],
                           result["failed"], result["samples"], result["p99_beyond"]))
    print("host clock before scaling to the reference speed: %.6g ns/op, set-up %.6g s"
          % (host_median(result, "raw_host_ns_per_op"), host_median(result, "raw_setup_s")))
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        value = values.get(name)
        if value is None and args.trace == 0:
            fail("end-to-end metric %s is not measured" % name)
        shown = "n/a" if value is None else "%.6g" % value
        clock = ("sim" if "sim" in entry["unit"] else
                 "-" if entry["unit"] in ("count", "ratio") else "host")
        print("  %-34s %14s %-8s %s" % (name, shown, entry["unit"], clock))
        metrics[name] = {"value": 0.0 if value is None else value, "unit": entry["unit"]}
    for e in errors:
        print("perfbench: FAILED: " + e, file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
