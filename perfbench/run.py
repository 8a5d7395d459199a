"""thmc benchmark: closed-loop CLI workloads, one fresh process per operation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload klotz-test --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One client sends one operation at a time.  Each operation is a fresh
interpreter (``child.py``) that imports ``thmc`` from ``src/`` and calls
``thmc.cli.main``, so it pays the import and the cold caches a command-line
user pays.  Timings are seconds at reference speed: each child divides
its measured times by how much slower than reference a fixed calibration
kernel ran around them (``child.Speedometer``), because other tenants of a
shared machine change its speed by tens of percent from one minute to the
next.  Every output is checked.  With ``--trace 0`` the last line of
standard output carries the end-to-end metrics; with ``--trace 1`` traced
and untraced operations alternate and it carries the per-layer metrics.
The line before it is a JSON object with the details: environment,
generated-input hash, sample counts, tail percentiles, raw times and
slowdowns, and failures.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
CHILD = BENCH / "child.py"

clock = time.perf_counter

#: Every run makes at least this many CLI operations, so that a median of
#: the 20-second sweep has two samples and a traced run has both kinds.
MIN_OPS = 2
#: An untraced run tops its setup samples up to this many with
#: import-only processes.
SETUP_SAMPLES = 10
#: No operation starts that would end past this many seconds of the run,
#: which leaves time for the setup probes and the chains timing.
OPS_DEADLINE_S = 125.0
#: Every child process is stopped this many seconds into the run.
DEADLINE_S = 170.0

KLOTZ_CSV = "src/thmc/data/klotz.csv"
KLOTZ_EXPECTED = {"n": 177, "T": 4, "b": [142, 136, 122, 131], "df": 1,
                  "samples": 10000, "burnin": 5000}
KLOTZ_L = 0.11209849699857966
KLOTZ_P_ASYMPTOTIC = 0.73776755933085614
#: Exact conditional p-value of the Klotz table (from the conditional law
#: of the initial-state count).  MCMC estimates at the CLI defaults spread
#: with standard deviation 0.060 over seeds 0-79 (range 0.641-0.920), so
#: the tolerance is five of those deviations.
KLOTZ_P_EXACT = 0.8101
KLOTZ_P_EXACT_TOL = 0.30
FLOAT_TOL = 1e-12

SPARSE_T = 12
SPARSE_PATHS = 30
SPARSE_REFERENCE = BENCH / "sparse_t12_reference.json"

SWEEP_STDOUT = "checked 895 fibers at T=5, n<=4: 0 disconnected\n"
#: sha256 of ``thmc verify-basis --T 5 --n-max 4 --report`` output, which
#: must stay byte-identical.
SWEEP_SHA256 = "72aa606089a48b662915d5b5845f6f31843070d321d3493d314b2fe82552d2dc"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    "ingest.ingest_s": "s",
    "core.suff_stat_calls": "count",
    "core.suff_stat_s": "s",
    "moves.sample_calls": "count",
    "moves.sample_s": "s",
    "moves.null_ratio": "ratio",
    "moves.enumerate_s": "s",
    "inference.exact_test_s": "s",
    "inference.step_us": "us",
    "inference.chain_self_s": "s",
    "inference.fit_calls": "count",
    "inference.fit_s": "s",
    "inference.accept_ratio": "ratio",
    "inference.chains2_speedup": "ratio",
    "fiber.realizable_stats_s": "s",
    "fiber.enumerate_calls": "count",
    "fiber.enumerate_s": "s",
    "fiber.connectivity_calls": "count",
    "fiber.connectivity_s": "s",
    "fiber.sweep_self_s": "s",
    "fiber.fibers": "count",
    "fiber.tables": "count",
    "fiber.largest_fiber": "count",
    "cli.component_tables_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, or thmc will not import)."""


class ChildFailed(RuntimeError):
    """A child process crashed, timed out or printed no result."""


# --------------------------------------------------------------------------
# Inputs and correctness checks


def sparse_csv(seed: int) -> str:
    """30 paths drawn uniformly from {1,2}^12, as ``path,count`` CSV."""
    rng = random.Random(seed)
    paths = Counter(
        "".join(rng.choice("12") for _ in range(SPARSE_T)) for _ in range(SPARSE_PATHS)
    )
    return "path,count\n" + "".join(f"{p},{c}\n" for p, c in sorted(paths.items()))


def transition_stat(csv_text: str) -> list[int]:
    """(b11, b12, b21, b22) of a ``path,count`` CSV over the digits 1 and 2."""
    b = Counter()
    for line in csv_text.splitlines()[1:]:
        path, count = line.split(",")
        for a, c in zip(path, path[1:]):
            b[a + c] += int(count)
    return [b["11"], b["12"], b["21"], b["22"]]


def close(actual, expected: float, tol: float = FLOAT_TOL) -> bool:
    return isinstance(actual, (int, float)) and abs(actual - expected) <= tol


def check_klotz(op: dict, seed: int) -> list[str]:
    out = json.loads(op["stdout"])
    problems = [f"{k}={out.get(k)!r}, expected {v!r}"
                for k, v in KLOTZ_EXPECTED.items() if out.get(k) != v]
    if out.get("seed") != seed:
        problems.append(f"seed={out.get('seed')!r}, expected {seed}")
    if not close(out.get("L"), KLOTZ_L):
        problems.append(f"L={out.get('L')!r}, expected {KLOTZ_L!r}")
    if not close(out.get("p_asymptotic"), KLOTZ_P_ASYMPTOTIC):
        problems.append(f"p_asymptotic={out.get('p_asymptotic')!r}")
    if not close(out.get("p_exact"), KLOTZ_P_EXACT, KLOTZ_P_EXACT_TOL):
        problems.append(f"p_exact={out.get('p_exact')!r} is not within "
                        f"{KLOTZ_P_EXACT_TOL} of {KLOTZ_P_EXACT}")
    return problems


def check_sparse(op: dict, b: list[int], ref: dict) -> list[str]:
    out = json.loads(op["stdout"])
    problems = []
    if (out.get("n"), out.get("T"), out.get("b")) != (SPARSE_PATHS, SPARSE_T, b):
        problems.append(f"n,T,b={out.get('n')},{out.get('T')},{out.get('b')}, "
                        f"expected {SPARSE_PATHS},{SPARSE_T},{b}")
    for key in ("L", "p_asymptotic"):
        if not close(out.get(key), ref[key]):
            problems.append(f"{key}={out.get(key)!r}, expected {ref[key]!r}")
    p = out.get("p_exact")
    if not (isinstance(p, (int, float)) and 0.0 <= p <= 1.0):
        problems.append(f"p_exact={p!r} is not in [0, 1]")
    return problems


def check_sweep(op: dict) -> list[str]:
    problems = []
    if op["stdout"] != SWEEP_STDOUT:
        problems.append(f"stdout {op['stdout'][:200]!r}, expected {SWEEP_STDOUT!r}")
    if op["report_sha256"] != SWEEP_SHA256:
        problems.append(f"report sha256 {op['report_sha256']}, expected {SWEEP_SHA256}")
    return problems


def prepare(workload: str, seed: int, work: Path, deadline: float):
    """CLI arguments, output check and input record for one run's operations."""
    if workload == "klotz-test":
        argv = ["test", "--input", KLOTZ_CSV, "--map", "M=1,F=2", "--seed", str(seed)]
        return argv, lambda op: check_klotz(op, seed), {"input": KLOTZ_CSV}
    if workload == "sparse-t12-test":
        text = sparse_csv(seed)
        csv_path = work / "sparse.csv"
        csv_path.write_text(text, encoding="utf-8")
        b = transition_stat(text)
        recorded = json.loads(SPARSE_REFERENCE.read_text(encoding="utf-8"))
        if str(seed) in recorded:
            ref = dict(zip(("L", "p_asymptotic"), recorded[str(seed)]), source="recorded")
        else:
            computed = child("ref", ["--csv", str(csv_path)], deadline)
            ref = {"L": computed["L"], "p_asymptotic": computed["p_asymptotic"],
                   "source": "computed through the library"}
        argv = ["test", "--input", str(csv_path), "--seed", str(seed)]
        info = {"input_sha256": hashlib.sha256(text.encode()).hexdigest(), "b": b,
                "reference": ref}
        return argv, lambda op: check_sparse(op, b, ref), info
    if workload == "basis-sweep":
        argv = ["verify-basis", "--T", "5", "--n-max", "4", "--report", str(work / "report.json")]
        return argv, check_sweep, {"note": "the sweep has no random input"}
    raise ValueError(workload)


WORKLOADS = ("klotz-test", "sparse-t12-test", "basis-sweep")


# --------------------------------------------------------------------------
# Child processes


def child(mode: str, args: list[str], deadline: float) -> dict:
    """Run ``child.py`` to completion and return its JSON result."""
    cmd = [sys.executable, str(CHILD), mode, "--src", str(SRC), *args]
    timeout = max(1.0, deadline - clock())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child timed out after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}")
        result = json.loads(lines[-1])
    except (ValueError, IndexError) as exc:
        raise ChildFailed(f"{mode} child failed ({exc}): {proc.stderr.strip()[-500:]}") from None
    if Path(result["thmc_file"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"imported thmc from {result['thmc_file']}, not from {SRC}")
    return result


def run_op(argv: list[str], check, traced: bool, work: Path, deadline: float) -> dict:
    """One CLI operation; ``problems`` lists every way it went wrong."""
    args = ["--trace", "--spans", str(work / "spans.json")] if traced else []
    try:
        op = child("cli", [*args, "--", *argv], deadline)
    except ChildFailed as exc:
        return {"traced": traced, "problems": [str(exc)]}
    op["traced"] = traced
    report = work / "report.json"
    op["report_sha256"] = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None
    op["problems"] = [f"exit code {op['exit_code']}"] if op["exit_code"] != 0 else []
    if not op["problems"]:
        try:
            op["problems"] = check(op)
        except (ValueError, KeyError, TypeError) as exc:
            op["problems"] = [f"unreadable output: {exc!r}"]
    return op


# --------------------------------------------------------------------------
# Statistics and environment


def tail(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    summary = {"median": statistics.median(ordered), "samples": n,
               "percentile": None, "value": None}
    q = 100 * (n - 10) // n if n else 0
    if q >= 50:
        rank = -(-q * n // 100)  # nearest rank, at most n - 10
        summary.update(percentile=q, value=ordered[rank - 1])
    return summary


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "git_commit": git_commit(),
    }


# --------------------------------------------------------------------------
# Runs


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run of a workload: (details, result line)."""
    if not (SRC / "thmc" / "__init__.py").is_file():
        raise BenchError(f"no thmc source tree at {SRC}")
    begin = clock()
    deadline = begin + DEADLINE_S
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        try:
            child("import", [], deadline)  # compiles bytecode; not timed
        except ChildFailed as exc:
            raise BenchError(str(exc)) from None
        argv, check, info = prepare(workload, seed, work, deadline)
        ops: list[dict] = []
        loop_start = clock()
        last = 0.0
        while clock() - loop_start < seconds or len(ops) < MIN_OPS:
            if clock() + last > begin + OPS_DEADLINE_S:
                break
            started = clock()
            op = run_op(argv, check, trace and len(ops) % 2 == 1, work, deadline)
            last = clock() - started
            ops.append(op)
            if "wall_s" not in op:
                break
            output = (op["stdout"], op["report_sha256"])
            if output != (ops[0]["stdout"], ops[0]["report_sha256"]):
                op["problems"].append("output differs from the first operation of the run")

        done = [op for op in ops if "wall_s" in op]
        plain = [op for op in done if not op["traced"]]
        traced = [op for op in done if op["traced"]]
        setups = [op["setup_s"] for op in done]
        if not trace:
            setups += [child("import", [], deadline)["setup_s"]
                       for _ in range(SETUP_SAMPLES - len(setups))]
        failed = sum(1 for op in ops if op["problems"])
        details = {
            "workload": workload,
            "seed": seed,
            "trace": int(trace),
            "environment": environment(),
            "input": info,
            "wall_s": tail([op["wall_s"] for op in plain]) if plain else None,
            "setup_s": tail(setups) if setups else None,
            "peak_rss_mib": tail([op["peak_rss_mib"] for op in plain]) if plain else None,
            "op_wall_raw_s": [op["wall_raw_s"] for op in plain],
            "op_slowdown": [op["slowdown"] for op in done],
            "failures": [p for op in ops for p in op["problems"]][:20],
        }
        if trace:
            metrics = layer_medians(traced, plain, seed, deadline, details)
            if traced:
                (OUT / f"spans-{workload}.json").write_bytes((work / "spans.json").read_bytes())
        else:
            metrics = {
                "wall_s": details["wall_s"]["median"] if plain else None,
                "setup_s": details["setup_s"]["median"] if setups else None,
                "peak_rss_mib": details["peak_rss_mib"]["median"] if plain else None,
            }
        units = PER_LAYER if trace else END_TO_END
        complete = all(metrics.get(k) is not None for k in units)
        result = {
            "correct": failed == 0 and complete,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {k: {"value": metrics.get(k), "unit": u} for k, u in units.items()},
        }
        details["elapsed_s"] = clock() - begin
        (OUT / f"result-{workload}-trace{int(trace)}.json").write_text(
            json.dumps({"details": details, "result": result}, indent=1), encoding="utf-8")
        return details, result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_medians(traced: list[dict], plain: list[dict], seed: int, deadline: float,
                  details: dict) -> dict:
    """Per-layer metrics: medians over the traced operations of the run."""
    metrics: dict = {}
    if traced:
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(op["layers"][key] for op in traced)
    if traced and plain:
        metrics["trace.overhead_s"] = (statistics.median(op["wall_s"] for op in traced)
                                       - statistics.median(op["wall_s"] for op in plain))
        accounted = sum(metrics[k] for k in (
            "ingest.ingest_s", "inference.exact_test_s", "fiber.realizable_stats_s",
            "fiber.enumerate_s", "fiber.connectivity_s", "fiber.sweep_self_s",
            "moves.enumerate_s", "cli.component_tables_s", "cli.self_s"))
        details["accounting"] = {
            "layers_sum_s": accounted,
            "untraced_wall_s": statistics.median(op["wall_s"] for op in plain),
            "overhead_s": metrics["trace.overhead_s"],
        }
    try:
        chains = child("chains", ["--seed", str(seed)], deadline)
    except ChildFailed as exc:
        details["failures"].append(str(exc))
    else:
        metrics["inference.chains2_speedup"] = chains["speedup"]
        details["chains"] = chains
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="thmc CLI benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if args.workload != "all":
            details, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps({"details": details}))
            print(json.dumps(result))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (False, True):
                details, result = run(workload, args.seed, args.seconds, trace)
                print(json.dumps({"details": details}))
                print(json.dumps({"workload": workload, **result}))
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                for name, metric in result["metrics"].items():
                    combined["metrics"][f"{workload}/{name}"] = metric
        print(json.dumps(combined))
        return 0
    except (BenchError, ChildFailed) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
