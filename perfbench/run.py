"""hdqkd benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep_dense --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``./src``.
Each workload is a closed loop: one caller in one process makes one call
at a time.  Inputs come from ``--seed`` only.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports per-layer metrics from a run
with spans recorded around the library's public functions.  Human-readable
lines come first, then a metadata JSON line, and the last line is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH, "out")

#: Fresh interpreters timed for ``setup_s``; traced runs use fewer.
SETUP_REPEATS = {0: 5, 1: 3}
#: Share of the call time that goes to the workload's own block.
OWN_SHARE = 0.7
#: Spans a traced run keeps; a sweep_dense round records about 0.7 million.
MAX_SPANS = 700_000
PHYSICS_POINTS = 200
SHOWN_PROBLEMS = 20


def library_path() -> str:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "hdqkd", "__init__.py")):
        raise SystemExit(
            "perfbench: no src/hdqkd in the current directory; run from the root of a checkout"
        )
    return src


class Tally:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < SHOWN_PROBLEMS:
                self.problems.append(f"{what}: {'; '.join(problems[:3])}")


def run_op(op, scenarios, tally: Tally, digests: dict):
    """Time one call, then check its output; return (seconds, output or None)."""
    import workloads
    from hdqkd.errors import HdqkdError

    what = f"{op.kind} {op.key[0]} {op.key[1]!r}".replace("\n", " ")
    started = perf_counter()
    try:
        out = workloads.execute(op, scenarios)
    except HdqkdError as exc:
        tally.record(what, [f"{type(exc).__name__}: {exc}"])
        return perf_counter() - started, None
    seconds = perf_counter() - started
    tally.record(what, workloads.check(op, out, scenarios, digests))
    return seconds, out


def op_stream(block, size, presets, scenarios, rng):
    """Endless calls of a block, pass after pass, flagging each pass's last call."""
    import workloads

    while True:
        ops = workloads.make_pass(block, size, presets, scenarios, rng)
        for index, op in enumerate(ops):
            yield op, index == len(ops) - 1


def measure(plan, presets, scenarios, seed, seconds, tally, digests, probe, probes):
    """Interleave the blocks' calls for ``seconds`` of call time.

    The workload's own block gets OWN_SHARE of the call time and the others
    split the rest; the next call always comes from the block furthest
    below its share.  Every block's calls thus spread over the whole run
    and see the same machine conditions, which on a shared host drift by
    tens of percent within a minute.  The ``probes`` set-up probes are
    spread over the run the same way.  A block that has not completed a
    pass when the time is up runs on until it has.  Returns the end-to-end
    metrics and the probe results.
    """
    import workloads

    own = plan[0][0]
    shares = {block: OWN_SHARE if block == own else (1.0 - OWN_SHARE) / (len(plan) - 1)
              for block, _ in plan}
    streams = {
        block: op_stream(block, size, presets, scenarios, random.Random(f"{seed}:{block}"))
        for block, size in plan
    }
    busy = dict.fromkeys(streams, 0.0)
    passes = dict.fromkeys(streams, 0)
    samples: dict[str, list] = {block: [] for block in streams}
    probed = []
    while True:
        total = sum(busy.values())
        if len(probed) < probes and total >= len(probed) * seconds / probes:
            probed.append(probe())
            continue
        candidates = list(streams)
        if total >= seconds:
            candidates = [b for b in streams if passes[b] == 0]
            if not candidates:
                break
        block = max(candidates, key=lambda b: shares[b] * total - busy[b])
        op, last = next(streams[block])
        elapsed, out = run_op(op, scenarios, tally, digests)
        busy[block] += elapsed
        passes[block] += last
        if out is not None:
            samples[block].append((op.kind, elapsed, workloads.work(op, out)))
    metrics = {}
    calls: dict[str, int] = {}
    for block in streams:
        metrics.update(workloads.block_metrics(block, samples[block]))
        for kind, _seconds, _work in samples[block]:
            calls[kind] = calls.get(kind, 0) + 1
    return metrics, probed, calls


def trace_plan(plan, presets, scenarios, seed, seconds, tally, digests, spans_path):
    """Per-layer metrics from rounds of one pass of every block in ``plan``.

    Each round runs the same calls untraced, then again with spans
    recorded.  Rounds repeat for about ``seconds`` while the spans held
    stay below MAX_SPANS.  Counts are per round, so for one seed they
    repeat exactly.
    """
    import hdqkd
    import tracing
    import workloads

    ops = [
        op
        for block, size in plan
        for op in workloads.make_pass(
            block, size, presets, scenarios, random.Random(f"{seed}:{block}")
        )
    ]
    rec = tracing.Recorder()
    untraced = traced = 0.0
    rounds = 0
    while True:
        untraced += math.fsum(run_op(op, scenarios, tally, digests)[0] for op in ops)
        begun = perf_counter()
        with tracing.patched(tracing.library_targets(rec, hdqkd)):
            for op in ops:
                rec.new_op(op.kind)
                with rec.span(f"op.{op.kind}"):
                    workloads.execute(op, scenarios)
        traced += perf_counter() - begun
        rounds += 1
        # Start another round only if that ends nearer to ``seconds``.
        if untraced + traced + (untraced + traced) / rounds / 2.0 >= seconds:
            break
        if len(rec.start) * (rounds + 1) > MAX_SPANS * rounds:
            break
    metrics = tracing.round_metrics(rec, rounds)
    metrics["trace.overhead"] = traced / untraced
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracing.write_spans(rec, spans_path)
    return metrics


def setup_probe(configs, trace: bool, src: str) -> dict:
    """Run the set-up probe in a fresh interpreter and wait for it."""
    job = json.dumps({"src": src, "bench": BENCH, "configs": configs, "trace": trace})
    proc = subprocess.run(
        [sys.executable, "-I", os.path.join(BENCH, "setup_child.py")],
        input=job,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_layer_metrics(children: list[dict]) -> dict[str, float]:
    """Per-layer metrics of the set-up, medians over the probes."""
    import tracing

    def med(fn) -> float:
        return statistics.median(fn(child) for child in children)

    def span(child, name, field):
        return child["spans"].get(name, {}).get(field, 0.0)

    out = {
        "cli.import_s": med(lambda c: c["import_s"]),
        "scenario.numpy_on_cli_import": med(lambda c: float(c["numpy_on_cli_import"])),
        "scenario.parse_config.ms_per_call": med(
            lambda c: 1e3 * span(c, "scenario.parse_config", "dur")
            / span(c, "scenario.parse_config", "calls")
        ),
        "scenario.pinned_table_loads": med(
            lambda c: span(c, "security.load_pinned_table", "calls")
        ),
    }
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = med(
            lambda c: (c["import_s"] if layer == "cli" else 0.0)
            + sum(v["self"] for name, v in c["spans"].items() if tracing.layer_of(name) == layer)
        )
    return out


def git_commit() -> str:
    """Commit of ``./.git`` when the checkout is a repository, else "unknown"."""
    head_path = os.path.join(".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown"
    with open(head_path, encoding="utf-8") as handle:
        head = handle.read().strip()
    if not head.startswith("ref: "):
        return head
    ref_path = os.path.join(".git", head[len("ref: "):])
    if not os.path.isfile(ref_path):
        return "unknown"
    with open(ref_path, encoding="utf-8") as handle:
        return handle.read().strip()


def metadata(args, sizes, presets, src: str) -> dict:
    """Machine, versions, source identity and sizes of one run."""
    import hashlib

    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass  # not Linux, or not readable: keep the architecture name
    digest = hashlib.sha256()
    package = os.path.join(src, "hdqkd")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + handle.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "presets": len(presets),
        "sizes": sizes,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, *, presets=None, sizes=None,
        setup_repeats=None) -> tuple[dict, dict, list[str]]:
    """Run one workload; return the result, the block sizes and report lines."""
    import hdqkd.scenario
    import workloads

    src = library_path()
    presets = workloads.PRESETS if presets is None else presets
    sizes = workloads.SIZES if sizes is None else sizes
    repeats = SETUP_REPEATS[int(trace)] if setup_repeats is None else setup_repeats
    own = workloads.WORKLOADS[workload]
    plan = [(own, sizes["full"])] + [(b, sizes["small"]) for b in workloads.BLOCKS if b != own]
    keys = sorted({key for block, size in plan for key in workloads.scenario_keys(block, size, presets)})

    configs = [list(key) for key in keys]
    scenarios = {key: hdqkd.scenario.parse_config(key[1], preset=key[0]) for key in keys}
    tally = Tally()
    digests: dict = {}
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    notes: list[str] = []
    if trace:
        import tracing

        spans_path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.npz")
        metrics.update(setup_layer_metrics([setup_probe(configs, True, src) for _ in range(repeats)]))
        layer = trace_plan(plan, presets, scenarios, seed, seconds, tally, digests, spans_path)
        for name, value in layer.items():
            metrics[name] = metrics.get(name, 0.0) + value
        units.update(tracing.UNITS)
    else:
        measured, children, calls = measure(
            plan, presets, scenarios, seed, seconds, tally, digests,
            lambda: setup_probe(configs, False, src), repeats,
        )
        metrics["setup_s"] = statistics.median(c["import_s"] + c["parse_s"] for c in children)
        metrics.update(measured)
        notes.append("timed calls: " + ", ".join(f"{k} {n}" for k, n in sorted(calls.items())))
        units.update(workloads.UNITS, setup_s="s")

    # Determinism: one more sweep of a scenario drawn from the seed, whose
    # CSV digest the check compares with the one recorded in the run.
    rng = random.Random(f"{seed}:checks")
    sweep_size = dict(plan)["sweep"]
    key = rng.choice(workloads.scenario_keys("sweep", sweep_size, presets))
    grid = (workloads.L_MIN_KM, workloads.L_MAX_KM, sweep_size["step_km"])
    run_op(workloads.Op("sweep", key, grid), scenarios, tally, digests)
    for problems in workloads.physics_problems(scenarios, rng, PHYSICS_POINTS):
        tally.record("postselection closed form vs series", problems)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    report = [f"{name} = {value:.6g} {units[name]}" for name, value in metrics.items()] + notes
    report.append(f"error_rate = {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted})")
    report += [f"problem: {text}" for text in tally.problems]
    return result, dict(plan), report


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, sizes, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report:
        print(line)
    print(json.dumps({"meta": metadata(args, sizes, workloads.PRESETS, library_path())}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, library_path())
    sys.exit(main())
