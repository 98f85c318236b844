#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload reduce-gnp --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The first run builds the benchmark
driver and the `detcol` CLI under .bench_build/ (Release); every run then
generates its workload's input files from --seed (cached per seed), measures
for about --seconds, checks every coloring, and prints one JSON object as
the last line of stdout. --trace 0 reports the end-to-end metrics;
--trace 1 runs the per-layer pass instead, writes a Chrome trace-event file
under .bench_build/traces/ and reports the per-layer metrics.
"""

import argparse
import hashlib
import json
import math
import os
import random
import socket
import struct
import subprocess
import sys
import threading
import time
from statistics import fmean, median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BENCH_DIR, "cmake")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
DETCOL = os.path.join(BUILD_DIR, "detcol", "detcol")
MIN_CPUS = 4


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Workloads. Generator flags go to `perfbench_driver gen`, which writes the
# file through the library writer; the program only ever sees those files.
# ---------------------------------------------------------------------------

BATCH = {
    "reduce-gnp": {
        "algo": "reduce", "palette": "--palette=delta1", "file": "gnp.dcg",
        "gen": ["--gen=gnp", "--n=262144", "--p=2e-4"], "setups": 1,
    },
    "reduce-powerlaw": {
        "algo": "reduce", "palette": "--palette=delta1", "file": "powerlaw.dcg",
        "gen": ["--gen=powerlaw", "--n=8192", "--beta=2.1", "--avgdeg=16"],
        "setups": 3,
    },
    "lowspace-dense": {
        "algo": "lowspace", "palette": "--palette=deg1", "file": "dense.txt",
        "gen": ["--gen=gnp", "--n=16384", "--p=0.03"], "setups": 1,
    },
}

# serve-mix input files: (name, generator flags, served with --mmap=1).
SERVE_FILES = [
    ("gnp-a.dcg", ["--gen=gnp", "--n=4096", "--p=0.004"], True),
    ("gnp-b.txt", ["--gen=gnp", "--n=8192", "--p=0.002"], False),
    ("gnp-c.dcg", ["--gen=gnp", "--n=4096", "--p=0.01"], False),
    ("gnp-d.dcg", ["--gen=gnp", "--n=8192", "--p=0.004"], True),
    ("pl-a.txt", ["--gen=powerlaw", "--n=4096", "--beta=2.5", "--avgdeg=8"], False),
    ("pl-b.dcg", ["--gen=powerlaw", "--n=8192", "--beta=2.5", "--avgdeg=8"], True),
    ("pl-c.dcg", ["--gen=powerlaw", "--n=4096", "--beta=2.2", "--avgdeg=12"], False),
    ("pl-d.txt", ["--gen=powerlaw", "--n=8192", "--beta=2.8", "--avgdeg=6"], False),
    ("geo-a.dcg", ["--gen=geometric", "--n=4096", "--radius=0.03"], True),
    ("geo-b.txt", ["--gen=geometric", "--n=8192", "--radius=0.02"], False),
    ("geo-c.dcg", ["--gen=geometric", "--n=4096", "--radius=0.05"], False),
    ("geo-d.dcg", ["--gen=geometric", "--n=8192", "--radius=0.03"], True),
]
SERVE_PALETTES = ["--palette=delta1", "--palette=deg1"]
SERVE_ALGOS = ["reduce", "lowspace", "mis"]
SERVE_BUDGETS = [1, 2]
SERVE_KEYS_PER_FILE = 5
SERVE_CLIENTS = 2
SERVE_MIN_REQUESTS = 1000
SERVE_BLOCK = 1000
SERVE_ZIPF = 1.2
SERVE_SPAWNS = 5
SERVE_CHECKED_KEYS = 4
SERVE_PINGS = 50

WORKLOADS = list(BATCH) + ["serve-mix"]


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def nearest_rank(xs, q):
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def run_driver(args, what):
    proc = subprocess.run([DRIVER] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError("%s failed (exit %d): %s" %
                         (what, proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def coloring_body(text):
    """The color lines of a coloring file (header lines name the input path)."""
    return "\n".join(l for l in text.splitlines() if not l.startswith("#"))


def body_hash(text):
    return hashlib.sha256(coloring_body(text).encode()).hexdigest()


def file_hash(path):
    with open(path) as f:
        return body_hash(f.read())


def canonical(obj):
    return json.dumps(obj, sort_keys=True)


def load_metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


# ---------------------------------------------------------------------------
# Build and run envelope
# ---------------------------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no detcol sources next to perfbench/ (run from the "
                         "root of a source checkout)")
    os.makedirs(BENCH_DIR, exist_ok=True)
    logfile = os.path.join(BENCH_DIR, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(logfile, "a") as out:
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            if subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR],
                              stdout=out, stderr=out).returncode != 0:
                raise BenchError("cmake configure failed, see " + logfile)
        if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                          stdout=out, stderr=out).returncode != 0:
            raise BenchError("build failed, see " + logfile)


def source_revision():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            with open(os.path.join(base, name), "rb") as f:
                digest.update(name.encode() + f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def envelope(seed):
    proc = subprocess.run([DRIVER, "envelope"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(proc.stderr.strip() or "envelope check failed")
    env = json.loads(proc.stdout)
    env["usable_cpus"] = len(os.sched_getaffinity(0))
    env["cpu_model"] = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env["revision"] = source_revision()
    env["workload_seed"] = seed
    if env["usable_cpus"] < MIN_CPUS:
        raise BenchError("only %d usable CPUs; solve_s and .t4 figures need "
                         "at least %d" % (env["usable_cpus"], MIN_CPUS))
    return env


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def ensure_input(workload, seed, name, gen_flags, graph_seed):
    d = os.path.join(BENCH_DIR, "inputs", workload, "seed-%d" % seed)
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, name)
    if not os.path.isfile(path):
        ext = os.path.splitext(name)[1]
        tmp = path + ".tmp" + ext
        run_driver(["gen", "--out=" + tmp, "--seed=%d" % graph_seed] +
                   gen_flags, "generating " + name)
        os.replace(tmp, path)
        os.sync()  # no writeback of fresh inputs while a solve is timed
    return path


def workdir(workload):
    d = os.path.join(BENCH_DIR, "work", workload)
    os.makedirs(d, exist_ok=True)
    return d


# ---------------------------------------------------------------------------
# Batch workloads
# ---------------------------------------------------------------------------

class Gate:
    """Counts operations and failures; every result must match the first."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.problems = []

    def fail(self, msg):
        self.failed += 1
        self.problems.append(msg)
        log("CHECK FAILED: " + msg)

    def match(self, what, fingerprint):
        if self.reference is None:
            self.reference = fingerprint
        elif fingerprint != self.reference:
            self.fail("%s differs from the first result" % what)


def batch_fingerprint(res, coloring_path):
    return (file_hash(coloring_path), res["rounds"], res["colors_used"],
            canonical(res["mpc"]))


def solve_once(w, path, threads, out, gate):
    gate.attempted += 1
    t0 = time.perf_counter()
    try:
        res = run_driver(["solve", "--input=" + path, w["palette"],
                          "--algo=" + w["algo"], "--threads=%d" % threads,
                          "--setups=%d" % w["setups"], "--out=" + out],
                         "solve at %d threads" % threads)
    except BenchError as e:
        gate.fail(str(e))
        return None
    res["wall_s"] = time.perf_counter() - t0
    gate.match("solve at %d threads" % threads, batch_fingerprint(res, out))
    return res


def batch_untraced(name, seed, seconds, gate):
    w = BATCH[name]
    path = ensure_input(name, seed, w["file"], w["gen"], seed)
    wd = workdir(name)
    runs = {4: [], 1: []}
    start = time.perf_counter()
    i = 0
    while True:
        threads = 4 if i % 2 == 0 else 1
        res = solve_once(w, path, threads,
                         os.path.join(wd, "solve-%d.colors" % i), gate)
        if res is None:
            break
        runs[threads].append(res)
        i += 1
        if (time.perf_counter() - start >= seconds and runs[4] and runs[1]):
            break
    if not runs[4] or not runs[1]:
        raise BenchError("no successful solve at 1 and 4 threads")
    both = runs[4] + runs[1]
    walls = [r["wall_s"] for r in runs[4]]
    sample = {"solves_t4": len(runs[4]), "solves_t1": len(runs[1]),
              "setups": sum(len(r["setup_s"]) for r in both)}
    log("%s: n=%d m=%d Delta=%d, %s" % (name, both[0]["n"], both[0]["m"],
                                        both[0]["max_degree"], sample))
    return {
        "setup_s": median([s for r in both for s in r["setup_s"]]),
        "solve_s": median([r["solve_s"] for r in runs[4]]),
        "solve_s_t1": median([r["solve_s"] for r in runs[1]]),
        "peak_rss_mib": median([r["peak_rss_kib"] for r in both]) / 1024.0,
        "rounds": both[0]["rounds"],
        "colors_used": both[0]["colors_used"],
        "req_p50_ms": 1e3 * median(walls),
        "req_p99_ms": 1e3 * nearest_rank(walls, 0.99),
        "req_per_s": len(walls) / sum(walls),
    }, both[0]


def batch_traced(name, seed, gate):
    w = BATCH[name]
    path = ensure_input(name, seed, w["file"], w["gen"], seed)
    wd = workdir(name)
    trace_dir = os.path.join(BENCH_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, "%s-seed%d.json" % (name, seed))
    gate.attempted += 1
    traced_out = os.path.join(wd, "traced.colors")
    res = run_driver(["trace", "--input=" + path, w["palette"],
                      "--algo=" + w["algo"], "--out=" + traced_out,
                      "--trace-out=" + trace_path, "--track=" + name],
                     "traced run")
    gate.match("traced run", batch_fingerprint(res, traced_out))
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    # Tracing overhead: the same solve, untraced, in a fresh process.
    plain = solve_once(w, path, 4, os.path.join(wd, "untraced.colors"), gate)
    if plain is not None:
        metrics["trace.overhead_ratio"] = (metrics["trace.solve_s.t4"] /
                                           plain["solve_s"])
    with open(trace_path) as f:
        json.load(f)  # the trace must be valid JSON
    log("%s: trace written to %s" % (name, trace_path))
    return metrics, res


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------

def frame(payload):
    data = payload.encode()
    return b"DCS1" + struct.pack("<I", len(data)) + data


def recv_exact(sock, n):
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise BenchError("server closed the connection")
        buf.extend(chunk)
    return bytes(buf)


def roundtrip(sock, request):
    sock.sendall(frame(json.dumps(request)))
    header = recv_exact(sock, 8)
    if header[:4] != b"DCS1":
        raise BenchError("bad frame magic from server")
    (length,) = struct.unpack("<I", header[4:])
    return json.loads(recv_exact(sock, length))


def connect(sock_name, deadline):
    while True:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(sock_name)
            return s
        except OSError:
            s.close()
            if time.perf_counter() > deadline:
                raise BenchError("server did not start listening")
            time.sleep(0.001)


class Server:
    """One `detcol serve` process on a Unix socket in the work directory."""

    def __init__(self, wd, tag):
        self.sock_name = "serve-%d-%s.sock" % (os.getpid(), tag)
        self.wd = wd
        path = os.path.join(wd, self.sock_name)
        if os.path.exists(path):
            os.unlink(path)
        self.log = open(os.path.join(wd, "serve-%s.log" % tag), "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [DETCOL, "serve", "--listen=" + self.sock_name, "--threads=2",
             "--quiet"], cwd=wd, stdout=subprocess.DEVNULL, stderr=self.log)
        try:
            s = connect(self.sock_name, t0 + 30)
            if not roundtrip(s, {"op": "ping"}).get("ok"):
                raise BenchError("ping failed")
            s.close()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def connect(self):
        return connect(self.sock_name, time.perf_counter() + 30)

    def peak_rss_mib(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("cannot read server peak RSS")

    def stop(self):
        if self.proc.poll() is None:
            try:
                s = self.connect()
                roundtrip(s, {"op": "shutdown"})
                s.close()
                self.proc.wait(timeout=30)
            except (BenchError, OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        path = os.path.join(self.wd, self.sock_name)
        if os.path.exists(path):
            os.unlink(path)


def serve_keys(paths):
    """The request keys, most popular first.

    Each file gets SERVE_KEYS_PER_FILE of the 12 (palette, algo, budget)
    combinations, rotating so every combination appears equally often.
    There are 60 keys, within the server's default result cache of 64, so a
    result miss is always a key's first request. The popularity order is
    fixed (not seeded).
    """
    combos = [(pal, algo, budget) for pal in SERVE_PALETTES
              for algo in SERVE_ALGOS for budget in SERVE_BUDGETS]
    keys = []
    for fi, (_, _, mmap) in enumerate(SERVE_FILES):
        graph = "--input=" + paths[fi] + (" --mmap=1" if mmap else "")
        for j in range(SERVE_KEYS_PER_FILE):
            pal, algo, budget = combos[(fi * SERVE_KEYS_PER_FILE + j) %
                                       len(combos)]
            keys.append({"file": fi, "graph": graph, "palette": pal,
                         "algo": algo, "threads": budget})
    random.Random(20200803).shuffle(keys)
    return keys


class RequestStream:
    """The seeded request sequence, shared by the client connections.

    Requests come in blocks of SERVE_BLOCK. Each block holds every key a
    fixed number of times, in proportion to its Zipf weight (largest
    remainder rounding), shuffled by the seeded generator. The request mix
    is therefore the same at every seed and only its order varies, which
    keeps the hit/miss split steady from run to run.
    """

    def __init__(self, keys, seed, seconds, first_id):
        self.keys = keys
        self.rng = random.Random(seed)
        weights = [1.0 / (r + 1) ** SERVE_ZIPF for r in range(len(keys))]
        share = [SERVE_BLOCK * w / sum(weights) for w in weights]
        quota = [int(x) for x in share]
        by_remainder = sorted(range(len(keys)), key=lambda r: quota[r] - share[r])
        for r in by_remainder[:SERVE_BLOCK - sum(quota)]:
            quota[r] += 1
        self.block = [r for r in range(len(keys)) for _ in range(quota[r])]
        self.pending = []
        self.lock = threading.Lock()
        self.first_id = first_id
        self.issued = 0
        self.start = time.perf_counter()
        self.seconds = seconds

    def next(self):
        with self.lock:
            elapsed = time.perf_counter() - self.start
            if (elapsed >= self.seconds and
                    self.issued >= SERVE_MIN_REQUESTS) or elapsed > 150:
                return None, None
            if not self.pending:
                self.pending = list(self.block)
                self.rng.shuffle(self.pending)
            self.issued += 1
            return self.first_id + self.issued - 1, self.pending.pop()


class KeyPass:
    """Every key once, most popular first, on one connection.

    This is where the pipelines run: on a fresh server every request of the
    pass is a result miss. It runs before the timed window, one request at a
    time, because with two clients computing at once the compute times
    varied by 15-25% from run to run on the sizing host.
    """

    def __init__(self, keys):
        self.keys = keys
        self.ranks = iter(range(len(keys)))

    def next(self):
        rank = next(self.ranks, None)
        return rank, rank


def client_loop(server, stream, conn_id, records, errors):
    try:
        sock = server.connect()
    except BenchError as e:
        errors.append(str(e))
        return
    with sock:
        while True:
            req_id, rank = stream.next()
            if req_id is None:
                return
            key = stream.keys[rank]
            request = {"op": "color", "graph": key["graph"],
                       "palette": key["palette"], "algo": key["algo"],
                       "threads": key["threads"]}
            t0 = time.perf_counter()
            try:
                resp = roundtrip(sock, request)
            except (BenchError, OSError, ValueError) as e:
                errors.append("request %d: %s" % (req_id, e))
                return
            t1 = time.perf_counter()
            rec = {"id": req_id, "rank": rank, "conn": conn_id,
                   "t0": t0, "rtt_s": t1 - t0, "ok": bool(resp.get("ok"))}
            if rec["ok"]:
                result, tr = resp["result"], resp["transient"]
                rec.update(service_s=tr["wall_seconds"],
                           result_hit=tr["result_hit"],
                           instance_hit=tr["instance_hit"],
                           verified=result.get("verified") is True,
                           rounds=result["rounds"],
                           colors_used=result["colors_used"],
                           total_words=result["mpc"]["ledger"]["total_words"],
                           peak_local_words=result["mpc"]["peak_local_words"],
                           body=body_hash(result["coloring_file"]))
            else:
                rec["error_class"] = resp.get("error_class", "?")
            records.append(rec)


def serve_session(seed, seconds, gate, traced):
    wd = workdir("serve-mix")
    # Socket names stay relative (a Unix socket path is limited to ~107
    # bytes), so server and clients share the work directory as cwd.
    os.chdir(wd)
    paths = [ensure_input("serve-mix", seed, name, flags, seed * 100 + i + 1)
             for i, (name, flags, _) in enumerate(SERVE_FILES)]
    keys = serve_keys(paths)

    setups = []
    for i in range(SERVE_SPAWNS - 1):
        s = Server(wd, "setup%d" % i)
        setups.append(s.setup_s)
        s.stop()
    server = Server(wd, "main")
    setups.append(server.setup_s)
    try:
        pings = []
        sock = server.connect()
        with sock:
            for _ in range(SERVE_PINGS):
                t0 = time.perf_counter()
                roundtrip(sock, {"op": "ping"})
                pings.append(time.perf_counter() - t0)
        first, records, errors = [], [], []
        t0 = time.perf_counter()
        client_loop(server, KeyPass(keys), 0, first, errors)
        # The compute pass counts towards the run's --seconds.
        stream = RequestStream(keys, seed,
                               seconds - (time.perf_counter() - t0), len(keys))
        clients = [threading.Thread(target=client_loop,
                                    args=(server, stream, c, records, errors))
                   for c in range(SERVE_CLIENTS)]
        for t in clients:
            t.start()
        for t in clients:
            t.join()
        window = time.perf_counter() - stream.start
        sock = server.connect()
        with sock:
            info = roundtrip(sock, {"op": "info"})["result"]
        rss = server.peak_rss_mib()
    finally:
        server.stop()

    for e in errors:
        gate.attempted += 1
        gate.fail(e)
    records.sort(key=lambda r: r["id"])
    window_ok = [r for r in records if r["ok"]]
    records = first + records
    ok = [r for r in records if r["ok"]]
    gate.attempted += len(records)
    for r in records:
        if not r["ok"]:
            gate.fail("request %d: error frame %s" % (r["id"], r["error_class"]))
        elif not r["verified"]:
            gate.fail("request %d: result not verified" % r["id"])
    # One coloring per (file, palette, algo), whatever the budget, cache
    # state or connection.
    seen = {}
    for r in ok:
        k = keys[r["rank"]]
        ident = (k["file"], k["palette"], k["algo"])
        fp = (r["body"], r["rounds"], r["colors_used"], r["total_words"])
        if seen.setdefault(ident, fp) != fp:
            gate.fail("request %d: result differs from an earlier one for the "
                      "same key" % r["id"])
    # A sample of served results must equal the in-process run.
    checked = []
    for r in ok:
        k = keys[r["rank"]]
        ident = (k["file"], k["palette"], k["algo"])
        if ident in checked or len(checked) >= SERVE_CHECKED_KEYS:
            continue
        checked.append(ident)
        gate.attempted += 1
        out = os.path.join(wd, "inproc-%d.colors" % len(checked))
        flags = ["--input=" + paths[k["file"]]]
        if SERVE_FILES[k["file"]][2]:
            flags.append("--mmap=1")
        try:
            res = run_driver(["solve"] + flags +
                             [k["palette"], "--algo=" + k["algo"],
                              "--threads=1", "--out=" + out],
                             "in-process run of a served key")
        except BenchError as e:
            gate.fail(str(e))
            continue
        if (file_hash(out), res["rounds"], res["colors_used"]) != \
                (r["body"], r["rounds"], r["colors_used"]):
            gate.fail("served result for %s differs from the in-process run"
                      % (ident,))

    hits = [r for r in window_ok if r["result_hit"]]
    misses = [r for r in ok if not r["result_hit"]]
    if not hits or not misses or info["instances"]["evictions"] == 0:
        raise BenchError("engagement guard: serve-mix needs result hits (%d), "
                         "result misses (%d) and evictions (%d)" %
                         (len(hits), len(misses),
                          info["instances"]["evictions"]))
    computed = [r for r in first if r["ok"]]
    if len(computed) != len(keys) or any(r["result_hit"] for r in computed):
        raise BenchError("the compute pass did not compute every key")
    miss_t = {b: [r["service_s"] for r in computed
                  if keys[r["rank"]]["threads"] == b] for b in SERVE_BUDGETS}
    head = computed[0]
    rtts = [r["rtt_s"] for r in window_ok]
    overloaded = sum(1 for r in records
                     if not r["ok"] and r["error_class"] == "overloaded")
    log("serve-mix: %d keys computed, then %d requests in %.1f s: %d result "
        "hits, %d evictions" % (len(computed), len(window_ok), window,
                                len(hits), info["instances"]["evictions"]))
    e2e = {
        "setup_s": median(setups),
        # The computed keys span two orders of magnitude in cost, so the
        # median of this fixed set jumps between neighbouring keys from run
        # to run; the mean (compute time per key) does not.
        "solve_s": fmean(miss_t[2]),
        "solve_s_t1": fmean(miss_t[1]),
        "peak_rss_mib": rss,
        "rounds": fmean(r["rounds"] for r in computed),
        "colors_used": fmean(r["colors_used"] for r in computed),
        "req_p50_ms": 1e3 * median(rtts),
        "req_p99_ms": 1e3 * nearest_rank(rtts, 0.99),
        "req_per_s": len(window_ok) / window,
    }
    if not traced:
        return e2e, None

    resident = [r for r in computed if r["instance_hit"]]
    loaded = [r for r in ok if not r["instance_hit"]]
    layer = {
        "serve.ping_ms": 1e3 * median(pings),
        "serve.hit_ms": 1e3 * median(r["rtt_s"] for r in hits),
        "serve.compute_ms": 1e3 * median(r["rtt_s"] for r in resident)
        if resident else 0.0,
        "serve.load_ms": 1e3 * median(r["rtt_s"] for r in loaded),
        "serve.service_ms": 1e3 * median(r["service_s"] for r in computed),
        "serve.wait_ms": 1e3 * median(r["rtt_s"] - r["service_s"]
                                      for r in window_ok),
        "serve.result_hit_ratio": len(hits) / len(window_ok),
        "serve.instance_hit_ratio":
            sum(r["instance_hit"] for r in window_ok) / len(window_ok),
        "serve.evictions": info["instances"]["evictions"],
        "serve.overloaded": overloaded,
        "sim.total_words": head["total_words"],
        "sim.peak_local_words": head["peak_local_words"],
    }
    write_serve_trace(seed, records, keys)
    return e2e, layer


def write_serve_trace(seed, records, keys):
    origin = min(r["t0"] for r in records)
    events = [{"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
               "args": {"name": "serve-mix"}}]
    for c in range(SERVE_CLIENTS):
        events.append({"ph": "M", "name": "thread_name", "pid": 1,
                       "tid": c + 1, "args": {"name": "connection %d" % c}})
    for r in records:
        k = keys[r["rank"]]
        args = {"req_id": r["id"], "file": SERVE_FILES[k["file"]][0],
                "palette": k["palette"], "algo": k["algo"],
                "threads": k["threads"], "ok": r["ok"]}
        if r["ok"]:
            args.update(result_hit=r["result_hit"],
                        instance_hit=r["instance_hit"],
                        service_ms=1e3 * r["service_s"])
        events.append({"ph": "X", "cat": "serve", "name": "serve.color",
                       "pid": 1, "tid": r["conn"] + 1,
                       "ts": 1e6 * (r["t0"] - origin),
                       "dur": 1e6 * r["rtt_s"], "args": args})
    trace_dir = os.path.join(BENCH_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, "serve-mix-seed%d.json" % seed)
    with open(path, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)
    log("serve-mix: trace written to %s" % path)


# ---------------------------------------------------------------------------
# Engagement guards: the workload must exercise the layers it exists for.
# The count guards need the traced run's counters; the degree guard holds on
# every run.
# ---------------------------------------------------------------------------

def engagement(name, max_degree, m=None):
    if name == "reduce-powerlaw" and max_degree < 1000:
        return "max degree %d < 1000" % max_degree
    if m is None:
        return None
    if name == "reduce-gnp" and m["core.max_depth"] < 2:
        return "core.max_depth %g < 2" % m["core.max_depth"]
    if name == "lowspace-dense" and (m["lowspace.depth"] < 2 or
                                     m["lowspace.partitions"] < 1):
        return "lowspace.depth %g, lowspace.partitions %g" % (
            m["lowspace.depth"], m["lowspace.partitions"])
    return None


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be >= 0")

    e2e_specs, layer_specs = load_metric_specs()
    build()
    env = envelope(a.seed)
    log("envelope: " + canonical(env))
    gate = Gate()
    if a.workload == "serve-mix":
        e2e, layer = serve_session(a.seed, a.seconds, gate, a.trace == 1)
    else:
        if a.trace == 0:
            e2e, res = batch_untraced(a.workload, a.seed, a.seconds, gate)
            guard = engagement(a.workload, res["max_degree"])
        else:
            layer, res = batch_traced(a.workload, a.seed, gate)
            guard = engagement(a.workload, res["max_degree"], layer)
        if guard:
            raise BenchError("engagement guard: " + guard)

    if a.trace == 0:
        e2e["success_rate"] = 1.0 - gate.failed / gate.attempted
        specs = e2e_specs
        values = e2e
    else:
        specs = layer_specs
        # A layer the workload's pipeline never enters spends nothing there.
        values = {s["name"]: layer.get(s["name"], 0.0) for s in specs}
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
               for s in specs}
    results_dir = os.path.join(BENCH_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json" %
                           (a.workload, a.seed, a.trace)), "w") as f:
        json.dump({"envelope": env, "metrics": metrics,
                   "problems": gate.problems}, f, indent=1)
    for s in specs:
        log("%-34s %16.6g %s" % (s["name"], values[s["name"]], s["unit"]))
    print(json.dumps({"correct": gate.failed == 0,
                      "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log("error: %s" % e)
        sys.exit(1)
