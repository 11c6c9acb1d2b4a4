#!/usr/bin/env python3
"""End-to-end benchmark of the consensus simulator, with a layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload table1-lockstep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload smr-tcp --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --record-goldens     # rewrite perfbench/golden.json
    python3 perfbench/run.py --selftest           # tracer self-test only

A run executes a fixed list of passes chosen by ``--seed`` and
``--seconds``; every pass runs the same cases.  Timings are reported in
reference units (``ref``): wall time over the duration of the stdlib-only
kernel in ``refkernel.py``, timed around and during each execution.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the run's manifest (versions,
raw seconds, kernel statistics, per-pass work) and, with ``--trace 1``,
its spans are written under ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: Hash randomization is pinned so a seed names one execution list.
HASH_SEED = "0"
#: Slots that must lie beyond the percentile reported as the tail.
TAIL_BEYOND = 10


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.record_goldens or args.selftest or args.workload):
        parser.error("--workload is required")
    return args


def git_sha() -> str | None:
    """HEAD's commit, read from ``.git`` without running git."""
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


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest order statistic with at least
    ``TAIL_BEYOND`` values beyond it (the minimum if there are too few)."""
    ordered = sorted(values)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def measure_setup(workload: str, seed: int) -> float:
    """Wall seconds of a fresh interpreter going from start to ready."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        check=True, cwd=ROOT, stdin=subprocess.DEVNULL,
    )
    return time.perf_counter() - started


class Runner:
    """Executes a run's passes and collects timings, work and verdicts."""

    def __init__(self, workloads: Any, refkernel: Any, workload: Any,
                 seed: int, seconds: int) -> None:
        self.w = workloads
        self.kernel = refkernel
        self.workload = workload
        self.goldens = workloads.load_goldens()
        self.cases, self.passes = workloads.plan(workload, seed, seconds, self.goldens)
        self.expected_work = workloads.golden_work(self.goldens, self.cases)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: Every reference-kernel duration timed, for the manifest.
        self.kernel_s: list[float] = []
        #: Per pass, the mean kernel duration before each execution and
        #: after the last one.
        self.brackets: list[list[float]] = []
        #: (pass index, case key, wall seconds, seconds of one ref unit)
        #: per execution.
        self.executions: list[tuple[int, str, float, float]] = []
        self.pass_work: list[tuple[int, int, int]] = []
        self.stores: dict[int, dict[int, int]] = {}
        self.ever_faulty: set[int] = set()

    def warm_up(self) -> None:
        """Fill program caches such as the shared spreading graph, untimed."""
        for case in self.cases:
            self.w.build_once(case)

    def time_kernel(self) -> float:
        # Every execution starts from a collected heap, so it does not pay
        # for the garbage of the one before.
        gc.collect()
        samples = self.kernel.sample()
        self.kernel_s.extend(samples)
        return statistics.fmean(samples)

    def probe_sample(self) -> float:
        (sample,) = self.kernel.sample(1)
        self.kernel_s.append(sample)
        return sample

    def run_pass(self, index: int, tracer: Any = None) -> list[Any]:
        outcomes = []
        brackets = []
        for case in self.cases:
            brackets.append(self.time_kernel())
            around = None
            if tracer is not None:
                def around(call: Any, key: str = case.key) -> Any:
                    with tracer.execution(key):
                        return call()
            probe = self.w.HostProbe(self.probe_sample)
            outcome = self.w.run_case(case, around=around, probe=probe)
            self.w.verify_golden(outcome, self.goldens)
            self.attempted += 1
            if outcome.error is not None:
                self.failed += 1
                self.errors.append(f"pass {index} {case.key}: {outcome.error}")
            elif case.cell.protocol == "multivalued":
                self.apply_slot(outcome)
            outcomes.append(outcome)
        brackets.append(self.time_kernel())
        self.brackets.append(brackets)
        for position, outcome in enumerate(outcomes):
            # One ref unit is the mean kernel duration over the probe's
            # samples and the two bracketing means.  The mean, not the
            # median: the host flips between speeds within a second, and
            # the share of time spent in each is what the execution feels.
            unit = statistics.fmean(
                [*outcome.probe_samples, brackets[position], brackets[position + 1]]
            )
            self.executions.append((index, outcome.case.key, outcome.wall_s, unit))
        work = (
            sum(o.rounds for o in outcomes),
            sum(o.copies for o in outcomes),
            sum(o.bits for o in outcomes),
        )
        self.pass_work.append(work)
        if work != self.expected_work:
            self.errors.append(f"pass {index}: work {work} != golden {self.expected_work}")
        print(
            f"pass {index}{' traced' if tracer else ''}: {len(outcomes)} executions, "
            f"rounds={work[0]} copies={work[1]} bits={work[2]} "
            f"time={sum(o.wall_s for o in outcomes):.3f} s",
            flush=True,
        )
        return outcomes

    def apply_slot(self, outcome: Any) -> None:
        """Replicated KV store: every correct replica applies the decision."""
        for pid in range(outcome.case.cell.n):
            store = self.stores.setdefault(pid, {})
            if pid not in outcome.faulty:
                self.w.SMR.apply_command(store, outcome.decided)
        self.ever_faulty |= outcome.faulty

    def stores_agree(self) -> bool:
        correct = [s for pid, s in self.stores.items() if pid not in self.ever_faulty]
        return all(store == correct[0] for store in correct)

    def pass_s(self, passes: range) -> list[float]:
        return [
            sum(wall for p, _, wall, _ in self.executions if p == index)
            for index in passes
        ]

    def pass_refs(self, passes: range) -> list[float]:
        return [
            sum(wall / unit for p, _, wall, unit in self.executions if p == index)
            for index in passes
        ]

    def execution_s(self, passes: range) -> list[float]:
        return [wall for p, _, wall, _ in self.executions if p in passes]

    def execution_refs(self, passes: range) -> list[float]:
        return [wall / unit for p, _, wall, unit in self.executions if p in passes]


def end_to_end(runner: Runner, setup: list[float]) -> tuple[dict[str, Any], dict[str, Any]]:
    """End-to-end metrics and their raw-second counterparts."""
    passes = range(runner.passes)
    pass_s = runner.pass_s(passes)
    execution_s = runner.execution_s(passes)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_ref": (statistics.median(runner.pass_refs(passes)), "ref"),
        "commit_p50_ref": (statistics.median(runner.execution_refs(passes)), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = {
        "setup_s_samples": setup,
        "pass_s": pass_s,
        "pass_ref_s": statistics.median(pass_s),
        "commit_p50_ref_s": statistics.median(execution_s),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, raw


def per_layer(
    runner: Runner, tracer: Any, traced: range, outcomes: list[Any]
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Per-layer metrics of the traced passes, per pass (per slot on the
    SMR workload), plus the tracing overhead against the untraced passes;
    and their raw-second counterparts."""
    from tracer import LAYERS

    per = len(runner.cases) if runner.workload.name == "smr-tcp" else 1
    units = len(traced) * per
    unit = statistics.fmean(u for p, _, _, u in runner.executions if p in traced)
    self_ref = {layer: tracer.self_s.get(layer, 0.0) / unit / units for layer in LAYERS}
    total = sum(self_ref.values())
    counts = {key: value / units for key, value in tracer.counts.items()}
    copies = sum(o.copies for o in outcomes) / units
    delivered = sum(o.delivered for o in outcomes) / units
    untraced = range(runner.passes)
    overhead = statistics.median(runner.pass_refs(traced)) / statistics.median(runner.pass_refs(untraced))
    percentile, tail_ref = tail(runner.execution_refs(untraced))
    values = {
        "harness.build_ref": (self_ref["harness.build"], "ref"),
        "protocol.self_ref": (self_ref["protocol"], "ref"),
        "process.send_ref": (self_ref["process.send"], "ref"),
        "process.send_calls": (counts.get("process.send_calls", 0), "count"),
        "process.sends_per_copy": (counts.get("process.send_calls", 0) / copies, "ratio"),
        "messages.sizing_ref": (self_ref["messages.sizing"], "ref"),
        "messages.sizing_calls": (counts.get("messages.sizing_calls", 0), "count"),
        "messages.sizing_per_copy": (counts.get("messages.sizing_calls", 0) / copies, "ratio"),
        "columnar.batch_ref": (self_ref["columnar.batch"], "ref"),
        "columnar.materialize_ref": (self_ref["columnar.materialize"], "ref"),
        "columnar.materialized_per_delivered": (
            counts.get("columnar.materialized", 0) / delivered, "ratio"),
        "delivery.deliver_ref": (self_ref["delivery.deliver"], "ref"),
        "delivery.validate_ref": (self_ref["delivery.validate"], "ref"),
        "delivery.copies": (counts.get("delivery.copies", 0), "count"),
        "adversary.act_ref": (self_ref["adversary.act"], "ref"),
        "adversary.omissions": (counts.get("adversary.omissions", 0), "count"),
        "models.self_ref": (self_ref["models"], "ref"),
        "models.deferred_copies": (counts.get("models.deferred_copies", 0), "count"),
        "observers.hook_ref": (self_ref["observers"], "ref"),
        "transport.spawn_ref": (self_ref["transport.spawn"], "ref"),
        "transport.step_ref": (self_ref["transport.step"], "ref"),
        "transport.close_ref": (self_ref["transport.close"], "ref"),
        "transport.frames": (counts.get("transport.frames", 0), "count"),
        "transport.frame_bytes": (counts.get("transport.frame_bytes", 0), "count"),
        "transport.link_retries": (counts.get("transport.link_retries", 0), "count"),
        "transport.link_failures": (counts.get("transport.link_failures", 0), "count"),
        "network.rounds": (sum(o.rounds for o in outcomes) / units, "count"),
        "network.copies_sent": (copies, "count"),
        "network.bits_sent": (sum(o.bits for o in outcomes) / units, "count"),
        "trace.overhead": (overhead, "ratio"),
        "other.self_ref": (self_ref["other"], "ref"),
        "commit_tail_ref": (tail_ref, "ref"),
    }
    shares = {
        "harness": ("harness.build",),
        "protocol": ("protocol",),
        "process": ("process.send",),
        "messages": ("messages.sizing",),
        "columnar": ("columnar.batch", "columnar.materialize"),
        "delivery": ("delivery.deliver", "delivery.validate"),
        "adversary": ("adversary.act",),
        "models": ("models",),
        "observers": ("observers",),
        "transport": ("transport.spawn", "transport.step", "transport.close"),
        "other": ("other",),
    }
    for name, layers in shares.items():
        values[f"{name}.share"] = (sum(self_ref[layer] for layer in layers) / total, "fraction")
    raw = {
        "traced_self_s": dict(tracer.self_s),
        "counts": dict(tracer.counts),
        "commit_tail_percentile": percentile,
        "commit_tail_ref_s": tail(runner.execution_s(untraced))[1],
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, raw


def selftest(workloads: Any) -> list[str]:
    """Tiny-n executions of every protocol and transport the workloads
    use, untraced and traced: fingerprints must match and no patch may
    outlive the tracer.  Returns the problems found."""
    import tracer as tracer_module

    problems = []
    for workload in workloads.WORKLOADS.values():
        for cell in workload.cells:
            small = workloads.Cell(
                f"selftest-{cell.name}", cell.protocol, 16, cell.adversary,
                rounds=0, options=cell.options, inputs=cell.inputs, seed=cell.seed,
            )
            case = workloads.Case(small, 1)
            plain = workloads.run_case(case)
            with tracer_module.traced() as tracer:
                traced = workloads.run_case(case)
            if plain.error or traced.error:
                problems.append(f"{case.key}: {plain.error or traced.error}")
            elif plain.fingerprint != traced.fingerprint:
                problems.append(f"{case.key}: traced fingerprint differs")
            problems.extend(f"patch left behind: {name}" for name in tracer.leftovers())
    return problems


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    sys.path[:0] = [str(SRC), str(HERE)]
    import refkernel
    import workloads

    if args.setup_probe:
        # Fresh interpreter to ready: imports (above), inputs, adversaries
        # and one build per distinct cell.
        cases, _ = workloads.plan(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds, workloads.load_goldens()
        )
        for case in cases:
            case.adversary()
            workloads.build_once(case)
        return 0
    if args.record_goldens:
        goldens = workloads.record_goldens()
        workloads.GOLDEN_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
        return 0
    if args.selftest:
        problems = selftest(workloads)
        print("\n".join(problems) or "selftest ok")
        return 1 if problems else 0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    runner = Runner(workloads, refkernel, workload, args.seed, args.seconds)
    problems = selftest(workloads) if args.trace else []
    runner.warm_up()
    setup = []
    for index in range(runner.passes):
        if not args.trace:
            # One fresh interpreter per pass (at least three), spread over
            # the run so the median sees the host as the passes do.
            setup.append(measure_setup(args.workload, args.seed))
        runner.run_pass(index)
    spans: list[dict[str, Any]] = []
    if args.trace:
        import tracer as tracer_module

        traced = range(runner.passes, runner.passes + 1)
        with tracer_module.traced() as tracer:
            # The probe is a layer of its own, reported in no metric.
            tracer.patch_method(workloads.HostProbe, "on_round_end", "probe")
            outcomes = runner.run_pass(traced.start, tracer)
        problems.extend(f"patch left behind: {name}" for name in tracer.leftovers())
        metrics, raw = per_layer(runner, tracer, traced, outcomes)
        spans = tracer.spans
    else:
        metrics, raw = end_to_end(runner, setup)
    if workload.name == "smr-tcp" and not runner.stores_agree():
        problems.append("replicated stores diverged")
    problems.extend(runner.errors)

    kernel = runner.kernel_s
    manifest = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "nproc": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "passes": runner.passes,
        "pass_cases": [case.key for case in runner.cases],
        "pass_work": runner.pass_work,
        "executions": [
            {"pass": p, "case": key, "wall_s": wall, "unit_s": unit}
            for p, key, wall, unit in runner.executions
        ],
        "kernel_s": {
            "median": statistics.median(kernel),
            "quartiles": statistics.quantiles(kernel, n=4),
            "bracket_means": runner.brackets,
        },
        "raw": raw,
        "metrics": metrics,
        "problems": problems,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"manifest-{stem}.json").write_text(json.dumps(manifest, indent=1) + "\n")
    if spans:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans) + "\n")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
