"""Workload definitions: cells, case spaces, run plans and checked execution.

A *cell* is one protocol configuration (protocol, n, adversary kind, round
model, transport).  A *case* is one concrete execution of a cell: inputs,
adversary and execution seed, all derived from an integer case seed.  A
run's plan is a fixed list of passes; every pass executes the same cases,
round-robin over the cells, so a run's passes differ only in what the host
did while they ran.

Each cell's case space is the finite list of case seeds stored in
``golden.json`` -- the cases the record mode found in the cell's *work
class* (a fixed round count, copies and bits within a narrow band), each
with its golden fingerprint.  The run seed picks which case of the space a
run executes, so different seeds run different executions of the same work
class.  Without the class filter a pass's cost would swing with the seed:
at n=128 an early-stopping execution runs 136 or 278 rounds, and one
Algorithm 1 case in twelve takes its 8x-bits fallback phase.  The
early-stopping exit paths are kept as two cells; the fallback phase is
left out of the table1 case space (it would be half of every pass).

Importing this module imports ``repro``; run.py puts the checkout's
``src`` first on ``sys.path`` before it does.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import statistics
import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType, ModuleType
from typing import Any

from repro.adversary import (
    RandomOmissionAdversary,
    SilenceAdversary,
    VoteBalancingAdversary,
)
from repro.harness import ExecutionRequest, execute, protocol_spec
from repro.params import ProtocolParams
from repro.runtime import Adversary, RoundObserver
from repro.runtime.serialization import result_to_dict
from repro.transport import LinkMetricsObserver

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
PARAMS = ProtocolParams.practical()

#: Case seeds kept per cell by the record mode.
CASES_PER_CELL = 6
#: Band of a work class around the class median, for copies and for bits.
WORK_BAND = 0.10
#: Fewest passes of a run: a median needs three.
MIN_PASSES = 3


def load_smr_example() -> ModuleType:
    """The replicated KV store of ``examples/state_machine_replication.py``."""
    path = ROOT / "examples" / "state_machine_replication.py"
    spec = importlib.util.spec_from_file_location("perfbench_smr", path)
    if spec is None or spec.loader is None:
        raise FileNotFoundError(path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SMR = load_smr_example()


@dataclass(frozen=True)
class Cell:
    """One protocol configuration of a workload."""

    name: str
    protocol: str
    n: int
    #: (case seed, n, t) -> a fresh adversary; adversaries are stateful.
    adversary: Callable[[int, int, int], Adversary | None]
    #: Rounds every case of the cell's work class runs.
    rounds: int
    options: Mapping[str, Any] = field(default_factory=dict)
    #: Inputs of a case; the campaign's balanced split by default.
    inputs: Callable[[int, int], tuple[int, ...]] = (
        lambda case_seed, n: tuple(pid % 2 for pid in range(n))
    )
    #: Execution seed of a case.
    seed: Callable[[int], int] = lambda case_seed: case_seed

    def t(self) -> int:
        if "t" in self.options:
            return int(self.options["t"])
        return protocol_spec(self.protocol).campaign_t(self.n, PARAMS)


@dataclass(frozen=True)
class Case:
    """One concrete execution of a cell."""

    cell: Cell
    case_seed: int

    @property
    def key(self) -> str:
        return f"{self.cell.name}/{self.case_seed}"

    @property
    def inputs(self) -> tuple[int, ...]:
        return self.cell.inputs(self.case_seed, self.cell.n)

    def adversary(self) -> Adversary | None:
        return self.cell.adversary(self.case_seed, self.cell.n, self.cell.t())


def _silence_sampled(case_seed: int, n: int, t: int) -> Adversary:
    return SilenceAdversary(random.Random(case_seed).sample(range(n), t))


def _random_omission(case_seed: int, n: int, t: int) -> Adversary:
    return RandomOmissionAdversary(0.6, seed=case_seed)


def _smr_inputs(case_seed: int, n: int) -> tuple[int, ...]:
    rng = random.Random(case_seed)
    return tuple(
        SMR.encode(
            rng.choice(SMR.OPS[:3]), rng.randrange(4), rng.randrange(1, 4)
        )
        for _ in range(n)
    )


def _smr_adversary(case_seed: int, n: int, t: int) -> Adversary | None:
    # The example alternates silence and random omission by slot parity.
    return SMR._slot_adversary(
        "alternate", case_seed, n, t, random.Random(case_seed)
    )


#: Pre-GST latency draws of 1..3 time units against a 2-unit receive
#: timeout: a third of the copies sent before GST miss their round.
PSYNC_MODEL_OPTIONS = {"min_latency": 1, "max_latency": 3, "gst": 100, "timeout": 2}
SMR_N = 16

TABLE1_CELLS = (
    Cell(
        "algorithm1", "algorithm1", 128,
        lambda s, n, t: VoteBalancingAdversary(seed=s), rounds=138,
    ),
    Cell("early-stopping-exit", "early-stopping", 128, _random_omission, rounds=136),
    Cell("early-stopping-full", "early-stopping", 128, _random_omission, rounds=278),
    Cell("tradeoff", "tradeoff", 128, _random_omission, rounds=682),
    Cell("dolev-strong", "dolev-strong", 128, _silence_sampled, rounds=17),
)
PSYNC_CELLS = (
    Cell(
        "phase-king-psync", "phase-king", 256, _random_omission, rounds=99,
        options={
            "model": "partial-synchrony",
            "model_options": PSYNC_MODEL_OPTIONS,
        },
    ),
)
SMR_CELLS = (
    Cell(
        "smr-slot", "multivalued", SMR_N, _smr_adversary, rounds=445,
        options={
            "value_bits": SMR.VALUE_BITS,
            "t": PARAMS.max_faults(SMR_N),
            "transport": "tcp",
            "transport_options": {"processes_per_worker": 8},
        },
        inputs=_smr_inputs,
        seed=lambda case_seed: 500 + case_seed,
    ),
)


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[Cell, ...]
    #: Cases drawn per cell into one pass.
    per_cell: int
    #: Nominal seconds of one untraced pass; passes = seconds / this.
    nominal_pass_s: float


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("table1-lockstep", TABLE1_CELLS, 1, 8.5),
        Workload("all-to-all-psync", PSYNC_CELLS, 1, 8.5),
        Workload("smr-tcp", SMR_CELLS, 4, 8.0),
    )
}


# ---------------------------------------------------------------------------
# Goldens and plans.
def load_goldens() -> dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def cell_cases(goldens: Mapping[str, Any], cell: Cell) -> list[Case]:
    """The cell's case space: every case seed with a golden."""
    return [Case(cell, seed) for seed in goldens["cells"][cell.name]]


def plan(
    workload: Workload, run_seed: int, seconds: int, goldens: Mapping[str, Any]
) -> tuple[list[Case], int]:
    """The cases of one pass (round-robin over cells) and the pass count.

    Both depend only on the run seed and ``seconds``, never on the host.
    """
    rng = random.Random(f"perfbench:{workload.name}:{run_seed}")
    picked = [
        rng.sample(cell_cases(goldens, cell), workload.per_cell)
        for cell in workload.cells
    ]
    pass_cases = [
        cases[index]
        for index in range(workload.per_cell)
        for cases in picked
    ]
    passes = max(MIN_PASSES, round(seconds / workload.nominal_pass_s))
    return pass_cases, passes


# ---------------------------------------------------------------------------
# Checked execution.
class MeteringCheck(RoundObserver):
    """Checks ``sent = delivered + omitted + lost + Δin-flight`` per round.

    O(1) per round, so it rides timed executions without moving them.
    """

    def __init__(self) -> None:
        self.error: str | None = None
        self._seen = (0, 0, 0, 0, 0)

    @staticmethod
    def _totals(network: Any) -> tuple[int, int, int, int, int]:
        metrics = network.metrics
        return (
            metrics.messages_sent,
            metrics.messages_delivered,
            metrics.messages_omitted,
            metrics.messages_lost,
            network.in_flight_messages,
        )

    def on_run_start(self, network: Any) -> None:
        self._seen = self._totals(network)

    def on_round_end(self, round_no: int, network: Any) -> None:
        now = self._totals(network)
        sent = now[0] - self._seen[0]
        balance = sum(now[i] - self._seen[i] for i in range(1, 5))
        if sent != balance and self.error is None:
            self.error = (
                f"round {round_no}: sent {sent} != delivered+omitted+lost"
                f"+Δin-flight {balance}"
            )
        self._seen = now

    def on_run_end(self, result: Any, network: Any) -> None:
        if network.in_flight_messages and self.error is None:
            self.error = f"{network.in_flight_messages} copies still in flight"


class HostProbe(RoundObserver):
    """Times the reference kernel at round ends, at most every
    ``interval`` seconds, so the ref unit follows the host's speed while an
    execution runs.  The probe's own time is reported in ``spent`` and
    taken out of the execution's wall time."""

    def __init__(self, sample: Callable[[], float], interval: float = 0.1) -> None:
        self.sample = sample
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._due = 0.0

    def on_run_start(self, network: Any) -> None:
        self._due = time.perf_counter() + self.interval

    def on_round_end(self, round_no: int, network: Any) -> None:
        started = time.perf_counter()
        if started < self._due:
            return
        self.samples.append(self.sample())
        ended = time.perf_counter()
        self.spent += ended - started
        self._due = ended + self.interval


def execution_kwargs(case: Case, in_process: bool = False) -> dict[str, Any]:
    """Keyword arguments of the case's :func:`repro.harness.execute` call."""
    kwargs = dict(case.cell.options)
    if in_process:
        kwargs.pop("transport", None)
        kwargs.pop("transport_options", None)
    return kwargs


def build_once(case: Case) -> None:
    """One ``ProtocolSpec.build`` of the case, as ``execute`` calls it;
    fills program caches such as the shared spreading graph."""
    options = execution_kwargs(case)
    t = options.pop("t", None)
    model = options.pop("model", None)
    model_options = options.pop("model_options", None)
    transport = options.pop("transport", None)
    transport_options = options.pop("transport_options", None)
    inputs = case.inputs
    protocol_spec(case.cell.protocol).build(
        ExecutionRequest(
            n=len(inputs), inputs=inputs, t=t, params=PARAMS,
            seed=case.cell.seed(case.case_seed), graph_seed=0,
            adversary=case.adversary(), max_rounds=None,
            options=MappingProxyType(options), model=model,
            model_options=model_options, transport=transport,
            transport_options=transport_options,
        )
    )


def fingerprint(result: Any) -> str:
    """Digest of the full metered result (decisions, every counter and
    per-round series, randomness, faults)."""
    payload = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class Outcome:
    """One execution: its wall time, metered work and verdict."""

    case: Case
    wall_s: float
    rounds: int = 0
    copies: int = 0
    bits: int = 0
    delivered: int = 0
    fingerprint: str = ""
    #: Reference-kernel durations the host probe took during the run.
    probe_samples: list[float] = field(default_factory=list)
    decided: Any = None
    faulty: frozenset[int] = frozenset()
    error: str | None = None


def run_case(
    case: Case,
    in_process: bool = False,
    around: Callable[[Callable[[], Any]], Any] | None = None,
    probe: HostProbe | None = None,
) -> Outcome:
    """Execute one case, timed around ``execute`` only (less the probe's
    own time), then check agreement, validity, termination and the
    metering identity.

    ``around`` wraps the timed call (the tracer uses it for its
    per-execution span).  Exceptions become a failed outcome.
    """
    check = MeteringCheck()
    observers: list[RoundObserver] = [check]
    if probe is not None:
        observers.append(probe)
    if case.cell.options.get("transport"):
        observers.append(LinkMetricsObserver())
    inputs = case.inputs
    adversary = case.adversary()
    kwargs = execution_kwargs(case, in_process)

    def call() -> Any:
        return execute(
            case.cell.protocol, inputs, adversary=adversary, params=PARAMS,
            seed=case.cell.seed(case.case_seed), graph_seed=0,
            observers=observers, **kwargs,
        )

    started = time.perf_counter()
    try:
        run = around(call) if around is not None else call()
    except Exception as exc:  # a failed operation, reported, never fatal
        wall = time.perf_counter() - started
        return Outcome(case, wall, error=f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - started - (probe.spent if probe else 0.0)
    result = run.result
    metrics = result.metrics
    outcome = Outcome(
        case, wall, rounds=result.rounds, copies=metrics.messages_sent,
        bits=metrics.bits_sent, delivered=metrics.messages_delivered,
        fingerprint=fingerprint(result), faulty=frozenset(result.faulty),
        probe_samples=probe.samples if probe else [],
    )
    try:
        outcome.decided = result.agreement_value()  # agreement + termination
    except AssertionError as exc:
        outcome.error = str(exc)
        return outcome
    if outcome.decided not in inputs:
        outcome.error = f"validity: decided {outcome.decided!r}, not an input"
    elif check.error is not None:
        outcome.error = f"metering identity: {check.error}"
    return outcome


def verify_golden(outcome: Outcome, goldens: Mapping[str, Any]) -> None:
    """Turn a fingerprint mismatch against the golden into an error."""
    if outcome.error is not None:
        return
    golden = goldens["cases"].get(outcome.case.key)
    if golden is None:
        outcome.error = f"no golden for case {outcome.case.key}"
    elif golden["fingerprint"] != outcome.fingerprint:
        outcome.error = (
            f"fingerprint {outcome.fingerprint[:12]} != golden "
            f"{golden['fingerprint'][:12]} for {outcome.case.key}"
        )


def golden_work(goldens: Mapping[str, Any], cases: Sequence[Case]) -> tuple[int, int, int]:
    """(rounds, copies, bits) the goldens promise for a list of cases."""
    entries = [goldens["cases"][case.key] for case in cases]
    return (
        sum(entry["rounds"] for entry in entries),
        sum(entry["copies"] for entry in entries),
        sum(entry["bits"] for entry in entries),
    )


# ---------------------------------------------------------------------------
# Record mode.
def record_goldens(scan: int = 64, say: Callable[[str], None] = print) -> dict[str, Any]:
    """Scan case seeds of every cell in-process and keep the first
    ``CASES_PER_CELL`` in the cell's work class, with their fingerprints.

    The class is the cell's declared round count, with copies and bits
    within ``WORK_BAND`` of the medians of the scanned cases with that
    count.  A case that fails a check is a defect, not a case to skip.
    """
    goldens: dict[str, Any] = {"cells": {}, "cases": {}}
    for workload in WORKLOADS.values():
        for cell in workload.cells:
            seen: list[Outcome] = []
            for case_seed in range(scan):
                outcome = run_case(Case(cell, case_seed), in_process=True)
                if outcome.error is not None:
                    raise RuntimeError(f"{outcome.case.key}: {outcome.error}")
                if outcome.rounds == cell.rounds:
                    seen.append(outcome)
                if len(seen) >= CASES_PER_CELL + 2:
                    break
            copies = statistics.median(o.copies for o in seen)
            bits = statistics.median(o.bits for o in seen)
            kept = [
                o for o in seen
                if abs(o.copies - copies) <= WORK_BAND * copies
                and abs(o.bits - bits) <= WORK_BAND * bits
            ][:CASES_PER_CELL]
            if len(kept) < CASES_PER_CELL:
                raise RuntimeError(f"cell {cell.name}: only {len(kept)} cases in class")
            goldens["cells"][cell.name] = [o.case.case_seed for o in kept]
            for o in kept:
                goldens["cases"][o.case.key] = {
                    "fingerprint": o.fingerprint,
                    "rounds": o.rounds,
                    "copies": o.copies,
                    "bits": o.bits,
                }
            say(f"{cell.name}: cases {goldens['cells'][cell.name]}")
    return goldens
