"""One benchmark operation, run in a fresh interpreter.

The parent (``run.py``) starts this script once per operation, so each
operation pays what a command-line user pays: the import of ``thmc`` and
cold ``lru_cache``s.  Modes:

``import``  time ``import thmc, thmc.cli`` and stop.
``cli``     time the import, then time ``thmc.cli.main(ARGS)``; with
            ``--trace`` the layer entry points are wrapped in spans first.
``chains``  time library ``exact_test`` on the bundled Klotz table with
            ``chains=1`` and ``chains=2`` at equal total samples.
``ref``     likelihood ratio and asymptotic p-value of a CSV table,
            computed through the library rather than the CLI.

The result is one JSON object on standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import resource
import signal
import statistics
import sys
import time

clock = time.perf_counter

#: Time of one calibration kernel at reference speed: close to its fastest
#: time on the machine the baseline in README.md was measured on.
REFERENCE_KERNEL_S = 0.0085
#: Seconds between calibration samples during a CLI call.
SAMPLE_PERIOD_S = 0.25
#: Alternating chains=1 / chains=2 pairs timed in ``chains`` mode.
CHAINS_PAIRS = 2


def kernel_s() -> float:
    """Time a fixed interpreter-bound kernel: tuple building, dict updates
    and a sort, like the program's own work.  The collector is off so the
    program's heap cannot slow the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    start = clock()
    counts: dict = {}
    for i in range(20000):
        key = (i % 97, i % 13, i & 7)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())
    elapsed = clock() - start
    if enabled:
        gc.enable()
    return elapsed


def slowdown(samples: list[float]) -> float:
    """Mean kernel time over its time at reference speed."""
    return statistics.fmean(samples) / REFERENCE_KERNEL_S


class Speedometer:
    """How much slower than reference speed the machine ran during a call.

    Other tenants of a shared machine slow it by tens of percent for tens
    of seconds at a time, which moves every timing the same way.  The
    kernel is timed right before, during (on a timer signal) and right
    after the measured interval; the mean of those kernel times over
    ``REFERENCE_KERNEL_S`` is the slowdown, and a time divided by it is
    seconds at reference speed.  The mean, not the median, because a
    call's time adds up its slow and fast stretches alike.
    """

    def __init__(self) -> None:
        self.during: list[float] = []
        self.handler_s = 0.0

    @staticmethod
    def take(count: int) -> list[float]:
        return [kernel_s() for _ in range(count)]

    def _on_alarm(self, signum, frame) -> None:
        start = clock()
        self.during.append(kernel_s())
        self.handler_s += clock() - start

    @contextlib.contextmanager
    def sampling(self):
        """Sample every ``SAMPLE_PERIOD_S`` seconds inside the block."""
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


class Tracer:
    """Wraps callables with spans kept in memory.

    A span is ``[name, start, end, parent, note, paused]``: ``parent`` is
    the index of the enclosing span (-1 at top level), ``note`` is an
    optional value taken from the call's result for the layer metrics, and
    ``paused`` is the calibration time that fell inside the span, read from
    the ``paused`` clock.  The traced CLI runs a single chain, so one span
    stack serves the whole process.
    """

    def __init__(self, paused) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._paused = paused

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        fn = getattr(owner, attr)
        spans, stack, paused = self.spans, self._stack, self._paused

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, paused()]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                span[5] = paused() - span[5]
                stack.pop()
            if note is not None:
                span[4] = note(result)
            return result

        setattr(owner, attr, wrapper)


def install(tracer: Tracer, thmc) -> None:
    """Wrap the public entry points each layer is called through.

    Every wrapped name is looked up through a module global or a class
    attribute at call time, so the wrappers see every call.
    """
    tracer.wrap(thmc.cli, "ingest", "ingest")
    tracer.wrap(thmc.inference, "exact_test", "exact_test",
                note=lambda r: [r.samples + r.burnin, r.acceptance_rate])
    tracer.wrap(thmc.inference, "fit_mle", "fit_mle")
    tracer.wrap(thmc.inference, "suff_stat", "suff_stat")
    tracer.wrap(thmc.moves.ProposalSampler, "sample", "sample",
                note=lambda r: r is None)
    tracer.wrap(thmc.fiber, "sweep", "sweep",
                note=lambda r: [len(r), sum(x.fiber_size for x in r),
                                max((x.fiber_size for x in r), default=0)])
    tracer.wrap(thmc.fiber, "realizable_stats", "realizable_stats")
    tracer.wrap(thmc.fiber, "enumerate_fiber", "enumerate_fiber")
    tracer.wrap(thmc.fiber, "connectivity", "connectivity")
    tracer.wrap(thmc.fiber, "enumerate_families", "enumerate_families")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times from the spans of one traced CLI call."""
    def duration(span):
        return span[2] - span[1] - span[5]

    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += duration(span)

    def pick(name, parent_name=None):
        return [
            (i, s) for i, s in enumerate(spans)
            if s[0] == name
            and (parent_name is None or (s[3] >= 0 and spans[s[3]][0] == parent_name))
        ]

    def total(items):
        return sum(duration(s) for _, s in items)

    def self_time(items):
        return sum(duration(s) - child_time[i] for i, s in items)

    tests = pick("exact_test")
    samples = pick("sample")
    swept = pick("enumerate_fiber", "sweep")
    sweeps = pick("sweep")
    steps = sum(s[4][0] for _, s in tests)
    return {
        "ingest.ingest_s": total(pick("ingest")),
        "core.suff_stat_calls": len(pick("suff_stat")),
        "core.suff_stat_s": total(pick("suff_stat")),
        "moves.sample_calls": len(samples),
        "moves.sample_s": total(samples),
        "moves.null_ratio": (sum(1 for _, s in samples if s[4]) / len(samples)
                             if samples else 0.0),
        "moves.enumerate_s": total(pick("enumerate_families")),
        "inference.exact_test_s": total(tests),
        "inference.step_us": total(tests) / steps * 1e6 if steps else 0.0,
        "inference.chain_self_s": self_time(tests),
        "inference.fit_calls": len(pick("fit_mle")),
        "inference.fit_s": total(pick("fit_mle")),
        "inference.accept_ratio": (sum(s[4][1] for _, s in tests) / len(tests)
                                   if tests else 0.0),
        "fiber.realizable_stats_s": total(pick("realizable_stats")),
        "fiber.enumerate_calls": len(swept),
        "fiber.enumerate_s": total(swept),
        "fiber.connectivity_calls": len(pick("connectivity")),
        "fiber.connectivity_s": total(pick("connectivity")),
        "fiber.sweep_self_s": self_time(sweeps),
        "fiber.fibers": sum(s[4][0] for _, s in sweeps),
        "fiber.tables": sum(s[4][1] for _, s in sweeps),
        "fiber.largest_fiber": max((s[4][2] for _, s in sweeps), default=0),
        "cli.component_tables_s": total(pick("enumerate_fiber", "cli")),
        "cli.self_s": self_time(pick("cli")),
    }


def run_cli(thmc, argv: list[str]) -> tuple[int, str]:
    """Call the CLI in-process; return its exit code and captured stdout."""
    import click

    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out):
        try:
            thmc.cli.main(argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except click.exceptions.Exit as exc:
            code = exc.exit_code
        except click.ClickException as exc:
            code = exc.exit_code
    return code, out.getvalue()


def time_chains(thmc, seed: int) -> dict:
    """Median time of exact_test with one chain over that with two."""
    table = thmc.klotz_table()
    thmc.exact_test(table, steps=100, burnin=0, seed=seed)  # fill caches
    times: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(CHAINS_PAIRS):
        for chains in (1, 2):
            start = clock()
            thmc.exact_test(table, seed=seed, chains=chains)
            times[chains].append(clock() - start)
    return {
        "chains1_s": times[1],
        "chains2_s": times[2],
        "speedup": statistics.median(times[1]) / statistics.median(times[2]),
    }


def reference(thmc, csv_path: str) -> dict:
    table = thmc.ingest(csv_path)
    L = thmc.likelihood_ratio(table)
    return {"L": L, "p_asymptotic": thmc.chi2_sf(L, thmc.lr_df(table.T))}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("import", "cli", "chains", "ref"))
    parser.add_argument("--src", required=True, help="directory holding the thmc package")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the spans of a traced call here")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv")
    own = sys.argv[1:]
    argv = []
    if "--" in own:
        cut = own.index("--")
        own, argv = own[:cut], own[cut + 1:]
    args = parser.parse_args(own)

    sys.path.insert(0, args.src)
    speed = Speedometer()
    before = speed.take(5)
    start = clock()
    import thmc
    import thmc.cli
    result: dict = {"setup_raw_s": clock() - start, "thmc_file": thmc.__file__}
    after = speed.take(3)
    result["setup_slowdown"] = slowdown(before + after)
    result["setup_s"] = result["setup_raw_s"] / result["setup_slowdown"]

    if args.mode == "cli":
        tracer = None
        if args.trace:
            tracer = Tracer(lambda: speed.handler_s)
            install(tracer, thmc)
            tracer.wrap(sys.modules[__name__], "run_cli", "cli")
        with speed.sampling():
            start = clock()
            code, out = run_cli(thmc, argv)
            wall = clock() - start
        result["wall_raw_s"] = wall - speed.handler_s
        result["slowdown"] = slowdown(after + speed.during + speed.take(3))
        result["wall_s"] = result["wall_raw_s"] / result["slowdown"]
        result["exit_code"] = code
        result["stdout"] = out
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["layers"] = {
                key: value / result["slowdown"] if key.endswith(("_s", "_us")) else value
                for key, value in layer_metrics(tracer.spans).items()
            }
            if args.spans:
                with open(args.spans, "w", encoding="utf-8") as fh:
                    json.dump(tracer.spans, fh)
    elif args.mode == "chains":
        result.update(time_chains(thmc, args.seed))
    elif args.mode == "ref":
        result.update(reference(thmc, args.csv))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
