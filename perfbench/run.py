#!/usr/bin/env python3
"""Benchmark launcher.

Builds the benchmark together with the program's own sources (its own sbt
build in this directory, outputs in .bench_build/), then runs one workload
in a JVM whose settings are pinned here: heap, cores and Spark shuffle
partitions. Run it from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The JVM prints every figure it measured; this launcher keeps the metrics
BENCHMARK.json names for the run's mode (end_to_end with --trace 0,
per_layer with --trace 1), checks that each is there with its unit, and
prints them as the last line of standard output, the JSON result.
"""
import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build"
WORKLOADS = ["seq-fingerprint", "seq-classifier", "grid-variants", "stream-multikey"]
HEAP = "2g"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700
JAVA_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
              "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
              "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar"]
] + ["-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    roots = [ROOT / "src" / "main" / "scala", ROOT / "jobs", BENCH / "src"]
    files = [BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for r in roots:
        files += sorted(p for p in r.rglob("*.scala") if p.is_file())
    return files


def source_digest():
    h = hashlib.sha256()
    for p in source_files():
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    repos = Path.home() / ".sbt" / "repositories"
    default_opts = "-Dsbt.offline=true -Xmx2g"
    if repos.is_file():
        default_opts = f"-Dsbt.override.build.repos=true -Dsbt.repository.config={repos} " + default_opts
    env.setdefault("SBT_OPTS", default_opts)
    return env


def build():
    """Compiles once per source state; returns the runtime classpath."""
    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        fail(f"program sources not found under {ROOT / 'src' / 'main' / 'scala'}")
    digest = source_digest()
    stamp, cp_file = WORK / "build.stamp", WORK / "classpath.txt"
    if stamp.is_file() and cp_file.is_file() and stamp.read_text() == digest:
        return cp_file.read_text().strip(), digest
    WORK.mkdir(parents=True, exist_ok=True)
    log = WORK / "build.log"
    cmd = ["sbt", "-Dsbt.server.autostart=false", f"-Dsbt.global.base={WORK / 'sbt-global'}",
           "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"]
    with open(log, "w") as out:
        try:
            rc = subprocess.run(cmd, cwd=BENCH, env=sbt_env(), stdout=out, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            fail(f"build timed out; see {log}", 3)
    lines = log.read_text().splitlines()
    cps = [l for l in lines if "sbt-target" in l and ":" in l and not l.startswith("[")]
    if rc != 0 or not cps:
        print("\n".join(lines[-30:]), file=sys.stderr)
        fail(f"build failed (exit {rc}); see {log}", 3)
    cp_file.write_text(cps[-1])
    stamp.write_text(digest)
    return cps[-1], digest


def commit():
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    return "none"


def run_java(cp, digest, args, timeout):
    """Runs perfbench.Main, streaming its stdout; returns (exit code, lines)."""
    nproc = len(os.sched_getaffinity(0))
    java = str(Path(os.environ["JAVA_HOME"]) / "bin" / "java") if os.environ.get("JAVA_HOME") else "java"
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseG1GC", *JAVA_OPENS,
           f"-Djava.io.tmpdir={tmp}", "-Dspark.driver.host=127.0.0.1",
           f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}",
           f"-Dperfbench.nproc={nproc}", f"-Dperfbench.heap={HEAP}", f"-Dperfbench.commit={commit()}",
           f"-Dperfbench.sources={digest[:16]}", f"-Dperfbench.work={WORK}",
           "-cp", cp, "perfbench.Main", *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            text=True, start_new_session=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        os.killpg(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout, kill)
    timer.start()
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            if not lines[-1].startswith("{"):
                print(lines[-1], flush=True)
        rc = proc.wait()
    except KeyboardInterrupt:
        kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    if timed_out.is_set():
        fail(f"run exceeded {timeout} s and was stopped", 4)
    return rc, lines


def result_of(lines):
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return res if set(res) == {"correct", "attempted", "failed", "metrics"} else None


def wanted(trace):
    """Name -> unit of the metrics BENCHMARK.json names for a mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}


def select(res, want):
    """The result with only the wanted metrics, and what is wrong with it."""
    got = res["metrics"]
    problems = [f"{n} not measured" for n in want if n not in got]
    problems += [f"{n} has unit {got[n]['unit']}, expected {u}" for n, u in want.items()
                 if n in got and got[n]["unit"] != u]
    problems += [f"{n} is {got[n]['value']}" for n in want
                 if n in got and not math.isfinite(got[n]["value"])]
    return dict(res, metrics={n: got[n] for n in want if n in got}), problems


def bench_main(argv):
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--corrupt", action="store_true", help="corrupt one outcome (self-test)")
    a = ap.parse_args(argv)
    cp, digest = build()
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", a.trace, "--size", a.size] + (["--corrupt"] if a.corrupt else [])
    rc, lines = run_java(cp, digest, args, RUN_TIMEOUT_S)
    res = result_of(lines)
    if rc != 0 or res is None:
        fail(f"workload {a.workload} failed (exit {rc})", rc or 1)
    res, problems = select(res, wanted(a.trace))
    if problems:
        fail(f"workload {a.workload}: " + "; ".join(problems), 5)
    print(json.dumps(res))
    return 0


def selftest():
    """Tiny runs: every metric BENCHMARK.json names is printed with its unit,
    and a deliberately corrupted outcome is counted as failed."""
    cp, digest = build()
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            rc, lines = run_java(cp, digest, ["--workload", w, "--seed", "7", "--seconds", "1",
                                              "--trace", str(trace), "--size", "tiny"], RUN_TIMEOUT_S)
            res = result_of(lines)
            if rc != 0 or res is None:
                problems.append(f"{w} trace={trace}: exit {rc}, no result line")
                continue
            res, issues = select(res, wanted(str(trace)))
            problems += [f"{w} trace={trace}: {m}" for m in issues]
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{w} trace={trace}: outputs not correct ({res['failed']} failed)")
        rc, lines = run_java(cp, digest, ["--workload", w, "--seed", "7", "--seconds", "1",
                                          "--trace", "0", "--size", "tiny", "--corrupt"], RUN_TIMEOUT_S)
        res = result_of(lines)
        if res is None or res["correct"] or res["failed"] < 1:
            problems.append(f"{w}: a corrupted outcome was not counted as failed")
    for p in problems:
        print(f"SELFTEST FAIL {p}")
    print("SELFTEST " + ("FAILED" if problems else "PASSED"))
    return 1 if problems else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--selftest"]:
        sys.exit(selftest())
    sys.exit(bench_main(sys.argv[1:]))
