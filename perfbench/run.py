"""The repository benchmark: stand-in sweeps through `multiupdate bench`.

    python3 perfbench/run.py --workload ingest --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Each repetition is a fresh `multiupdate bench` process (interpreter start,
imports and parsing are paid on every invocation, as users pay them). With
``--trace 0`` the end-to-end metrics are reported over the repetitions that
fit in ``--seconds`` (see REDUCE). With ``--trace 1`` traced and untraced
repetitions alternate and the per-layer metrics are reported instead.

Workloads, their argv and the per-layer to end-to-end mapping live in
workloads.json beside this file. Every repetition's CSV (and, for the audit
workload, its trace file) is checked: against the committed golden files for
the default seed, and for any other seed against the first repetition. The
last line of standard output is one JSON object; the exit code is 0 only if
every check passed. Inputs and scratch output live under ``.perfbench/`` at
the checkout root.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDEN = HERE / "golden"
SPEC = json.loads((HERE / "workloads.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else None

MIN_REPS = 3
CHILD_TIMEOUT_S = 150
# How each end-to-end metric is reduced over a run's repetitions. Set-up time
# and memory report the median. Sweep and CPU time report the mean, and
# visits_per_s the harmonic mean (all visits over all sweep time): on a
# shared 2-vCPU VM a repetition's speed moved by up to 1.8x as other tenants
# came and went, and across ten seeds the mean of each run spread about half
# as much as its median or its fastest repetition. The median, min and max
# of every metric are kept in the results.
REDUCE = {"setup_s": statistics.median, "sweep_s": statistics.mean,
          "visits_per_s": statistics.harmonic_mean, "cpu_s": statistics.mean,
          "peak_rss_mb": statistics.median}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def flag(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def machine_block() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy")}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info[f"l{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    info["commit"] = git_head()
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "multiupdate").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    info["src_sha256"] = src_hash.hexdigest()
    return info


def git_head() -> str | None:
    """HEAD's commit from the checkout's own .git, without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env(threads: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "BENCH_THREADS")}
    env["PYTHONPATH"] = str(SRC)
    env["BENCH_THREADS"] = str(threads)
    return env


def spawn(cmd: list[str], env: dict, out_dir: Path) -> dict:
    """Run one child to completion; return its exit code, wall span and rusage."""
    with open(out_dir / "stdout.txt", "wb") as so, open(out_dir / "stderr.txt", "wb") as se:
        launched = clock()
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env, cwd=out_dir)
        # A hung child is killed; its pool workers exit when their pipe closes.
        timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        exited = clock()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "launched": launched, "exited": exited,
            "cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "stderr": (out_dir / "stderr.txt").read_text(errors="replace")}


class Workload:
    def __init__(self, name: str, seed: int):
        spec = SPEC["workloads"][name]
        self.name = name
        self.seed = seed
        self.spec = spec
        self.argv_template = spec["argv"]
        self.threads = min(spec.get("bench_threads", 1), len(os.sched_getaffinity(0)))
        self.audit = "--audit-theorem1" in self.argv_template
        self.traces = "{trace}" in self.argv_template

    def materialize(self) -> Path:
        import synth
        data = self.spec["data"]
        path = synth.materialize(WORK / "data", data["generator"], data["n"], self.seed, data["gzip"])
        self.data_sha256 = sha256_file(path)
        return path

    def visits(self) -> int:
        """Instance visits per invocation: rows x runs x (algorithms x m values)."""
        from multiupdate.binary import BINARY_KINDS
        from multiupdate.multiclass import MULTICLASS_KINDS
        argv = self.argv_template
        rows = int(flag(argv, "--subsample", self.spec["data"]["n"]))
        algos = flag(argv, "--algos")
        if algos == "all":
            multiclass = self.spec["data"]["label_space"] == "multiclass"
            n_algos = len(MULTICLASS_KINDS if multiclass else BINARY_KINDS)
        else:
            n_algos = len(algos.split(","))
        n_m = len(set(flag(argv, "--m").split(",")))
        return rows * int(flag(argv, "--runs")) * n_algos * n_m

    def argv(self, data: Path, rep_dir: Path) -> list[str]:
        subs = {"{data}": str(data), "{seed}": str(self.seed), "{out}": str(rep_dir / "out.csv"),
                "{trace}": str(rep_dir / "trace.jsonl")}
        return [subs.get(a, a) for a in self.argv_template]


def run_rep(wl: Workload, data: Path, rep_dir: Path, *, traced: bool, threads: int) -> dict:
    rep_dir.mkdir(parents=True)
    script = HERE / ("traced.py" if traced else "launch.py")
    facts_path = rep_dir / "facts.json"
    cmd = [sys.executable, str(script), str(facts_path), str(SRC)] + wl.argv(data, rep_dir)[1:]
    rep = spawn(cmd, child_env(threads), rep_dir)
    rep["traced"] = traced
    csv = rep_dir / "out.csv"
    rep["csv"] = csv.read_bytes() if csv.is_file() else None
    trace = rep_dir / "trace.jsonl"
    if trace.is_file():
        rep["trace_sha256"] = sha256_file(trace)
        with open(trace, "rb") as fh:
            rep["trace_rows"] = sum(1 for _ in fh)
        trace.unlink()
    if facts_path.is_file():
        facts = json.loads(facts_path.read_text())
        rep["fingerprints"] = facts.get("fingerprints", [])
        if facts.get("entry") is not None:
            rep["setup_s"] = facts["entry"] - rep["launched"]
            rep["sweep_s"] = rep["exited"] - facts["entry"] - facts.get("postprocess_s", 0.0)
        rep["layers"] = facts.get("metrics")
        rep["absent"] = facts.get("absent", {})
    return rep


def check(wl: Workload, rep: dict, reference: dict | None, visits: int) -> list[str]:
    """Problems with one repetition's outputs; empty when it is correct."""
    problems = []
    if rep["code"] != 0:
        problems.append(f"exit code {rep['code']}: {rep['stderr'].strip()[-300:]}")
    if rep["csv"] is None:
        problems.append("no CSV written")
    if "sweep_s" not in rep:
        problems.append("run_benchmark was never entered")
    if wl.audit and "norm-bound audit:" not in rep["stderr"]:
        problems.append("missing norm-bound audit pass line")
    if wl.traces and rep.get("trace_rows") != visits:
        problems.append(f"trace has {rep.get('trace_rows')} rows, expected {visits}")
    if reference is not None:
        if rep["csv"] is not None and rep["csv"] != reference["csv"]:
            problems.append(f"CSV differs from {reference['label']}")
        if wl.traces and rep.get("trace_sha256") != reference.get("trace_sha256"):
            problems.append(f"trace SHA-256 differs from {reference['label']}")
    return problems


def golden_reference(wl: Workload) -> dict | None:
    if wl.seed != SPEC["default_seed"]:
        return None
    meta = json.loads((GOLDEN / "golden.json").read_text())[wl.name]
    ref = {"label": "golden", "csv": (GOLDEN / f"{wl.name}.csv").read_bytes(),
           "data_sha256": meta["data_sha256"]}
    if wl.traces:
        ref["trace_sha256"] = meta["trace_sha256"]
    return ref


def measure(wl: Workload, seconds: float, trace: bool, run_dir: Path) -> dict:
    data = wl.materialize()
    visits = wl.visits()
    env = child_env(1)
    # Compile the package's bytecode once, untimed; users have it cached too.
    subprocess.run([sys.executable, "-c", "import multiupdate.cli"], env=env, cwd=run_dir)

    import_s = []
    if trace:
        probe = ("import time; t = time.perf_counter(); import multiupdate.cli; "
                 "print(repr(time.perf_counter() - t))")
        for _ in range(5):
            out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=run_dir,
                                 capture_output=True, text=True)
            if out.returncode == 0:
                import_s.append(float(out.stdout))

    reps = []
    started = clock()
    while True:
        traced = trace and len(reps) % 2 == 1
        rep = run_rep(wl, data, run_dir / f"rep{len(reps)}", traced=traced, threads=wl.threads)
        rep["wall_s"] = rep["exited"] - rep["launched"]
        reps.append(rep)
        enough = len(reps) >= (2 * MIN_REPS if trace else MIN_REPS)
        if enough and clock() - started + statistics.median(r["wall_s"] for r in reps) > seconds:
            break

    # Once per invocation: a serial run must give the same bytes as the pool.
    serial = None
    if wl.threads > 1:
        serial = run_rep(wl, data, run_dir / "serial", traced=False, threads=1)

    reference = golden_reference(wl)
    problems: dict[str, list[str]] = {}
    if reference is not None and wl.data_sha256 != reference["data_sha256"]:
        problems["dataset"] = [f"generated file SHA-256 {wl.data_sha256} differs from golden"]
    if reference is None:
        reference = dict(reps[0], label="repetition 0")
    for i, rep in enumerate(reps):
        found = check(wl, rep, reference, visits)
        if serial is not None and rep["csv"] != serial["csv"]:
            found.append("CSV differs from the serial run")
        if serial is not None and wl.traces and rep.get("trace_sha256") != serial.get("trace_sha256"):
            found.append("trace differs from the serial run")
        if found:
            problems[f"rep{i}"] = found
    if serial is not None:
        found = check(wl, serial, reference, visits)
        if found:
            problems["serial"] = found
    attempted = len(reps) + (serial is not None)
    failed = sum(1 for key in problems if key != "dataset")

    fingerprints = sorted({tuple(r.get("fingerprints", [])) for r in reps})
    result = {"workload": wl.name, "seed": wl.seed, "trace": int(trace),
              "argv": wl.argv_template, "bench_threads": wl.threads, "visits": visits,
              "dataset": {"path": data.name, "sha256": wl.data_sha256},
              "permutation_fingerprints": [list(f) for f in fingerprints],
              "machine": machine_block(), "attempted": attempted, "failed": failed,
              "correct": not problems,
              "problems": problems, "reps": [
                  {k: r.get(k) for k in ("traced", "code", "wall_s", "setup_s", "sweep_s",
                                         "cpu_s", "peak_rss_mb", "trace_rows", "trace_sha256")}
                  for r in reps]}
    ok = [r for r in reps if "sweep_s" in r and r["code"] == 0]
    plain = [r for r in ok if not r["traced"]]
    if trace:
        result["metrics"], result["absent"] = layer_summary(wl, [r for r in ok if r["traced"]], plain, import_s)
    elif plain:
        samples = {
            "setup_s": [r["setup_s"] for r in plain],
            "sweep_s": [r["sweep_s"] for r in plain],
            "visits_per_s": [visits / r["sweep_s"] for r in plain],
            "cpu_s": [r["cpu_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        result["metrics"] = {name: REDUCE[name](values) for name, values in samples.items()}
        result["stats"] = {name: {"median": statistics.median(v), "min": min(v), "max": max(v)}
                           for name, v in samples.items()}
    result["samples"] = len(plain)
    return result


def layer_summary(wl: Workload, traced: list[dict], plain: list[dict],
                  import_s: list[float]) -> tuple[dict, dict]:
    """Each per-layer metric: its mean over the traced repetitions."""
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    absent: dict[str, str] = {}
    if not import_s:
        absent["cli.import_s"] = "the import probe failed"
    for rep in traced:
        for pattern, reason in rep["absent"].items():
            for name in names:
                if name == pattern or (pattern.endswith("*") and name.startswith(pattern[:-1])):
                    absent[name] = reason
    metrics = {}
    for name in names:
        values = [r["layers"][name] for r in traced if name in (r["layers"] or {})]
        if name == "cli.import_s":
            metrics[name] = statistics.median(import_s) if import_s else 0.0
        elif name == "trace.overhead_s":
            metrics[name] = (statistics.mean(r["sweep_s"] for r in traced)
                             - statistics.mean(r["sweep_s"] for r in plain)) if traced and plain else 0.0
        elif values:
            metrics[name] = statistics.mean(values)
        else:
            metrics[name] = 0.0
            absent.setdefault(name, "no traced repetition produced it")
        if name in absent:
            continue
        owners = SPEC["per_layer_map"].get(name, {}).get("on", [])
        if metrics[name] == 0.0 and wl.name not in owners:
            absent[name] = f"not exercised by {wl.name} (measured on {', '.join(owners)})"
    return metrics, absent


def report(result: dict, units: dict[str, str]) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"samples {result['samples']}  visits/invocation {result['visits']}  "
          f"BENCH_THREADS={result['bench_threads']}")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print(f"dataset {result['dataset']['path']} sha256 {result['dataset']['sha256']}")
    print("permutation fingerprints " + json.dumps(result["permutation_fingerprints"]))
    for name, value in result.get("metrics", {}).items():
        note = result.get("absent", {}).get(name)
        stats = result.get("stats", {}).get(name)
        if stats:
            note = "median {median:.6g}, min {min:.6g}, max {max:.6g}".format(**stats)
        elif note:
            note = "absent: " + note
        print(f"  {name:<40} {value:>16.6g} {units[name]:<6}" + (f"  {note}" if note else ""))
    error_rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<40} {error_rate:>16.6g} ratio   ({result['failed']} of {result['attempted']})")
    for key, problems in result["problems"].items():
        for problem in problems:
            print(f"  FAILED {key}: {problem}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = Workload(name, seed)
    run_dir = WORK / "runs" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        result = measure(wl, seconds, trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    return result


def update_golden(name: str) -> None:
    """Rewrite the golden files of one workload from a fresh run of the default seed."""
    wl = Workload(name, SPEC["default_seed"])
    run_dir = WORK / "runs" / f"golden-{name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    data = wl.materialize()
    rep = run_rep(wl, data, run_dir, traced=False, threads=1)
    if rep["code"] != 0 or rep["csv"] is None:
        raise SystemExit(f"golden run of {name} failed: {rep['stderr']}")
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / f"{name}.csv").write_bytes(rep["csv"])
    meta_path = GOLDEN / "golden.json"
    meta = json.loads(meta_path.read_text()) if meta_path.is_file() else {}
    meta[name] = {"data_sha256": wl.data_sha256}
    if wl.traces:
        meta[name].update(trace_sha256=rep["trace_sha256"], trace_rows=rep["trace_rows"])
    meta_path.write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(run_dir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*SPEC["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"] if BENCHMARK else 20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite the golden outputs from the default seed, then exit")
    args = parser.parse_args()

    if not (SRC / "multiupdate" / "cli.py").is_file() or BENCHMARK is None:
        print(f"error: no multiupdate sources under {SRC} (or no BENCHMARK.json); "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(SPEC["workloads"]) if args.workload == "all" else [args.workload]
    if args.update_golden:
        for name in names:
            update_golden(name)
        return 0

    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in BENCHMARK[group]}
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results.append(result)
        report(result, units)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result.get("metrics", {}).items()
                   if k in units}
        print(json.dumps({"correct": result["correct"] and len(metrics) == len(units),
                          "attempted": result["attempted"], "failed": result["failed"],
                          "metrics": metrics}), flush=True)
    return 0 if all(r["correct"] and r.get("metrics") for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
