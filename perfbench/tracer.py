"""Outside-in layer tracer: patches the public entry points of each
``src/repro`` layer, accounts self time and counts at the boundaries, and
restores every patched attribute on exit.

Self time of a layer is the time inside its entry points minus the time
inside entry points of *other* layers they call.  A call that enters a
layer it is already inside (``payload_bits`` recursing into a container,
``broadcast`` reaching ``send_many``, a combinator adversary calling an
inner ``act``) passes straight through: it is neither a new span nor a new
count, so counts are top-level calls.

Per-copy boundaries (``send``, ``payload_bits``) are aggregated into
counters; only per-execution and per-round spans are kept, in memory, and
written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

import repro.adversary as adversary_pkg
from repro.harness import registry
from repro.runtime import columnar, delivery, engine, messages, network, observers, process
from repro.runtime.models import lockstep, partial_synchrony
from repro.transport import inprocess, metrics as transport_metrics, tcp

_MISSING = object()

#: Layers whose self time the benchmark reports, in report order.
LAYERS = (
    "harness.build",
    "protocol",
    "process.send",
    "messages.sizing",
    "columnar.batch",
    "columnar.materialize",
    "delivery.deliver",
    "delivery.validate",
    "adversary.act",
    "models",
    "observers",
    "transport.spawn",
    "transport.step",
    "transport.close",
    "other",
)


class Tracer:
    """Self-time accounting over a stack of open layer spans."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        #: Per-execution and per-round spans, written out at run end.
        self.spans: list[dict[str, Any]] = []
        self._stack: list[list[Any]] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.patched: list[tuple[Any, str, Any]] = []
        self._execution = -1
        self._round: dict[str, Any] | None = None

    # ------------------------------------------------------------------
    # Span accounting.
    def _enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        layer, started, children = self._stack.pop()
        elapsed = time.perf_counter() - started
        self.self_s[layer] += elapsed - children
        if self._stack:
            self._stack[-1][2] += elapsed

    def inside(self, layer: str) -> bool:
        return bool(self._stack) and self._stack[-1][0] == layer

    def wrap(
        self,
        layer: str,
        function: Callable[..., Any],
        on_call: Callable[..., None] | None = None,
        on_return: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        """``function`` as a span of ``layer``; re-entry passes through.

        ``on_call(*args)`` runs before and ``on_return(result, *args)``
        after each top-level call, for counts.
        """
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer.inside(layer):
                return function(*args, **kwargs)
            if on_call is not None:
                on_call(*args)
            tracer._enter(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._exit()
            if on_return is not None:
                on_return(result, *args)
            return result

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------------
    # Patching.
    def patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__.get(name, _MISSING)))
        setattr(owner, name, replacement)

    def patch_method(self, cls: type, name: str, layer: str, **hooks: Any) -> None:
        original = cls.__dict__[name]
        if isinstance(original, classmethod):
            wrapped = self.wrap(layer, original.__func__, **hooks)
            self.patch(cls, name, classmethod(wrapped))
        else:
            self.patch(cls, name, self.wrap(layer, original, **hooks))

    def restore(self) -> None:
        self.patched = list(self._patches)
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def leftovers(self) -> list[str]:
        """Patched attributes that are not their original after restore."""
        return [
            f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, original in self.patched
            if owner.__dict__.get(name, _MISSING) is not original
        ]

    def install(self) -> None:
        count = self.counts

        def add(key: str) -> Callable[..., None]:
            def hook(*args: Any) -> None:
                count[key] += 1
            return hook

        # harness: ProtocolSpec.build, reached through protocol_spec().
        lookup = registry.protocol_spec

        def traced_spec(name: str) -> registry.ProtocolSpec:
            spec = lookup(name)
            return dataclasses.replace(spec, build=self.wrap("harness.build", spec.build))

        self.patch(registry, "protocol_spec", traced_spec)

        # Protocol compute is the core's local-computation phase; the TCP
        # core's phase is a transport step (workers compute remotely).
        self.patch_method(engine.ExecutionCore, "advance", "protocol", on_call=self._mark_round)
        self.patch_method(tcp.RemoteExecutionCore, "advance", "transport.step", on_call=self._mark_round)

        for name in ("send", "send_many", "broadcast"):
            self.patch_method(process.ProcessEnv, name, "process.send", on_call=add("process.send_calls"))
        sizing = self.wrap("messages.sizing", messages.payload_bits, on_call=add("messages.sizing_calls"))
        self.patch(messages, "payload_bits", sizing)
        self.patch(process, "payload_bits", sizing)

        self.patch_method(columnar.ColumnarBatch, "from_records", "columnar.batch")

        # Only a first read materializes; cached reads stay untraced.
        span = self.wrap("columnar.materialize", columnar.LazyMessageList.__dict__["_materialize"])

        def materialize(lazy: Any) -> list[Any]:
            if lazy._items is not None:
                return lazy._items
            items = span(lazy)
            count["columnar.materialized"] += len(items)
            return items

        self.patch(columnar.LazyMessageList, "_materialize", materialize)

        def delivered(backend: Any, batch: Any, *rest: Any) -> None:
            count["delivery.copies"] += len(batch)

        for backend in (delivery.ObjectDeliveryBackend, delivery.ColumnarDeliveryBackend):
            self.patch_method(backend, "deliver", "delivery.deliver", on_call=delivered)
            self.patch_method(backend, "validate_omissions", "delivery.validate")

        def omissions(action: Any, *args: Any) -> None:
            count["adversary.omissions"] += len(action.omit)

        for name in adversary_pkg.__all__:
            cls = getattr(adversary_pkg, name)
            if isinstance(cls, type) and issubclass(cls, network.Adversary) and "act" in cls.__dict__:
                self.patch_method(cls, "act", "adversary.act", on_return=omissions)

        self.patch_method(lockstep.LockstepModel, "run_rounds", "models")

        def deferred(result: Any, model: Any, net: Any) -> None:
            # The model numbers every copy it defers; run_rounds resets it.
            count["models.deferred_copies"] += model._sequence

        self.patch_method(partial_synchrony.PartialSynchronyModel, "run_rounds", "models", on_return=deferred)
        # Engine glue between the layers: arbitration, delivery dispatch,
        # round epilogue.  Its self time is reported as ``other``.
        for name in ("_apply_adversary", "_deliver", "_dispatch_round_end"):
            self.patch_method(network.SyncNetwork, name, "other")

        for cls in (observers.RoundObserver, observers.MetricsObserver, transport_metrics.LinkMetricsObserver):
            for name, member in list(cls.__dict__.items()):
                if name.startswith("on_") and callable(member):
                    self.patch_method(cls, name, "observers")

        for cls in (inprocess.InProcessTransport, tcp.AsyncioTcpTransport):
            self.patch_method(cls, "create_core", "transport.spawn")
        self.patch_method(tcp.RemoteExecutionCore, "close", "transport.close")

        def link_samples(samples: tuple[Any, ...], core: Any) -> None:
            for sample in samples:
                if sample.round < 0:
                    count["transport.link_retries"] += sample.retries
                    continue
                count["transport.frames"] += 1
                count["transport.frame_bytes"] += sample.bytes_sent + sample.bytes_received
                count["transport.link_failures"] += not sample.ok

        self.patch_method(tcp.RemoteExecutionCore, "drain_link_samples", "transport.step", on_return=link_samples)

    # ------------------------------------------------------------------
    # Spans.
    def _mark_round(self, core: Any, round_no: int) -> None:
        now = time.perf_counter()
        if self._round is not None:
            self._round["end"] = now
        self._round = {"span": "round", "execution": self._execution, "round": round_no, "start": now}
        self.spans.append(self._round)

    @contextmanager
    def execution(self, key: str) -> Iterator[None]:
        """The per-execution root span; time not claimed by a layer is
        charged to ``other``."""
        self._execution += 1
        span = {"span": "execution", "id": self._execution, "case": key, "start": time.perf_counter()}
        self.spans.append(span)
        self._enter("other")
        try:
            yield
        finally:
            self._exit()
            span["end"] = time.perf_counter()
            if self._round is not None:
                self._round["end"] = span["end"]
                self._round = None


@contextmanager
def traced() -> Iterator[Tracer]:
    """Install a tracer for the duration of the block; always restores."""
    tracer = Tracer()
    try:
        tracer.install()
        yield tracer
    finally:
        tracer.restore()
