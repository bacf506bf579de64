"""Violation-triggered flight recorder: bounded evidence rings per server.

Large streaming runs disable the retained :class:`~repro.sim.tracing.Tracer`
(the trace alone would dwarf the simulation), so when something goes wrong
at 10⁵ users there is normally *nothing* to look at.  The
:class:`FlightRecorder` is the bounded substitute: every node keeps a ring
of its most recent events (network sends, proof evaluations, transaction
lifecycle edges), and on a :class:`~repro.errors.VerificationError`, a
conformance violation, or an explicit trigger the recorder dumps a
self-contained :class:`IncidentBundle` — the merged recent-event window as
JSONL, a metrics snapshot in OpenMetrics text (strictly valid, see
:func:`repro.obs.openmetrics.validate_openmetrics`), and, when spans were
recorded, a waterfall render of each implicated transaction.

Rings hold plain tuples copied out of the simulation objects — never the
pooled kernel/event objects themselves — so eviction order and content are
bit-identical whether the kernel pools timeouts or not (tested in
``tests/obs/test_flight.py``).

Enable with ``CloudConfig.flight_recorder``; the conformance entry point
:func:`repro.verify.verify_cluster` triggers a dump automatically whenever
a checked run has violations.  Library code never writes to disk —
:meth:`IncidentBundle.write` is for callers (CLIs, benches, tests).
"""

from __future__ import annotations

import json
import pathlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs.render import render_waterfall
from repro.obs.spans import SpanRecorder

__all__ = ["FlightEvent", "FlightRecorder", "IncidentBundle"]

#: Default per-node ring capacity (events retained per server/TM).
DEFAULT_CAPACITY = 256
#: Incident bundles retained in memory (oldest dropped first).
MAX_BUNDLES = 8


@dataclass(frozen=True)
class FlightEvent:
    """One ring entry: a compact, JSON-ready observation on one node."""

    seq: int
    time: float
    node: str
    category: str
    txn_id: Optional[str]
    detail: Tuple[Tuple[str, Any], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "seq": self.seq,
            "time": self.time,
            "node": self.node,
            "category": self.category,
        }
        if self.txn_id is not None:
            record["txn_id"] = self.txn_id
        for key, value in self.detail:
            record[key] = value
        return record


@dataclass
class IncidentBundle:
    """A self-contained, replayable snapshot of one incident."""

    reason: str
    created_at: float
    #: Merged recent-event window across every node ring, in record order.
    events: List[Dict[str, Any]]
    #: Formatted conformance violations that triggered the dump (if any).
    violations: Tuple[str, ...] = ()
    #: Strict OpenMetrics snapshot of the run's counters (and sketches).
    openmetrics: Optional[str] = None
    #: txn_id → ASCII waterfall of its span tree (span-recorded runs only).
    waterfalls: Dict[str, str] = field(default_factory=dict)

    def events_jsonl(self) -> str:
        """The event window as JSON Lines (one event per line)."""
        return "\n".join(json.dumps(event, sort_keys=True) for event in self.events) + (
            "\n" if self.events else ""
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "reason": self.reason,
            "created_at": self.created_at,
            "violations": list(self.violations),
            "events": self.events,
            "waterfalls": dict(self.waterfalls),
            "has_openmetrics": self.openmetrics is not None,
        }

    def write(self, directory: "pathlib.Path | str") -> pathlib.Path:
        """Materialize the bundle under ``directory``; returns the path.

        Layout: ``manifest.json`` (reason, violations, file inventory),
        ``events.jsonl`` (the evidence window), ``metrics.om`` (OpenMetrics
        snapshot, when captured), and ``waterfall.txt`` (one section per
        implicated transaction, when spans were available).
        """
        path = pathlib.Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        (path / "events.jsonl").write_text(self.events_jsonl(), encoding="utf-8")
        files = ["events.jsonl"]
        if self.openmetrics is not None:
            (path / "metrics.om").write_text(self.openmetrics, encoding="utf-8")
            files.append("metrics.om")
        if self.waterfalls:
            sections = []
            for txn_id in sorted(self.waterfalls):
                sections.append(f"== {txn_id} ==\n{self.waterfalls[txn_id]}")
            (path / "waterfall.txt").write_text(
                "\n\n".join(sections) + "\n", encoding="utf-8"
            )
            files.append("waterfall.txt")
        manifest = {
            "reason": self.reason,
            "created_at": self.created_at,
            "violations": list(self.violations),
            "n_events": len(self.events),
            "files": files,
        }
        (path / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return path


class FlightRecorder:
    """Per-node bounded rings of recent events, dumped on demand.

    Wire as ``Metrics.flight`` (the testbed does this when
    ``CloudConfig.flight_recorder`` is on): the network's message hook and
    the server/TM instrumentation call :meth:`record`/:meth:`on_message`,
    each appending one plain tuple to the source node's ring.  Memory is
    ``capacity × nodes`` events, independent of run length.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, enabled: bool = True) -> None:
        if capacity < 1:
            raise ValueError("flight-recorder capacity must be positive")
        self.capacity = capacity
        self.enabled = enabled
        #: Simulation-time source for hooks that receive no timestamp (the
        #: network message hook); the testbed binds ``env.now`` here.
        self.clock: Optional[Any] = None
        self._rings: Dict[str, Deque[FlightEvent]] = {}
        self._seq = 0
        self.recorded = 0
        self.dumps = 0
        #: Most recent bundles (bounded); the newest is :attr:`last_bundle`.
        self.bundles: List[IncidentBundle] = []

    # -- recording -------------------------------------------------------------

    def record(
        self,
        node: str,
        time: float,
        category: str,
        txn_id: Optional[str] = None,
        detail: Tuple[Tuple[str, Any], ...] = (),
    ) -> None:
        """Append one event to ``node``'s ring (evicting the oldest)."""
        if not self.enabled:
            return
        ring = self._rings.get(node)
        if ring is None:
            ring = deque(maxlen=self.capacity)
            self._rings[node] = ring
        ring.append(FlightEvent(self._seq, time, node, category, txn_id, detail))
        self._seq += 1
        self.recorded += 1

    def on_message(self, message: Any) -> None:
        """Network hook: record the send on the source node's ring."""
        if not self.enabled:
            return
        self.record(
            message.src,
            self.clock() if self.clock is not None else 0.0,
            "net.send",
            txn_id=message.payload.get("txn_id"),
            detail=(("kind", message.kind), ("dst", message.dst)),
        )

    # -- inspection ------------------------------------------------------------

    def nodes(self) -> List[str]:
        return sorted(self._rings)

    def events(self, node: Optional[str] = None) -> List[FlightEvent]:
        """The retained window, in global record order (``seq``).

        ``node`` restricts to one ring; the merged view interleaves every
        ring exactly as the events were recorded.
        """
        if node is not None:
            return list(self._rings.get(node, ()))
        merged: List[FlightEvent] = []
        for name in sorted(self._rings):
            merged.extend(self._rings[name])
        merged.sort(key=lambda event: event.seq)
        return merged

    def clear(self) -> None:
        self._rings.clear()

    @property
    def last_bundle(self) -> Optional[IncidentBundle]:
        return self.bundles[-1] if self.bundles else None

    # -- dumping ---------------------------------------------------------------

    def dump(
        self,
        reason: str,
        now: float,
        violations: Any = None,
        metrics: Any = None,
        recorder: Optional[SpanRecorder] = None,
        live: Any = None,
    ) -> IncidentBundle:
        """Build (and retain) an incident bundle from the current rings.

        ``violations`` is a :class:`repro.verify.report.VerificationReport`
        (or any object with a ``violations`` list); ``metrics``/``live``
        feed the OpenMetrics snapshot; ``recorder`` supplies span trees for
        waterfalls of the implicated transactions.
        """
        events = [event.to_dict() for event in self.events()]
        formatted: Tuple[str, ...] = ()
        implicated: List[str] = []
        if violations is not None:
            rows = getattr(violations, "violations", violations)
            formatted = tuple(
                violation.format() if hasattr(violation, "format") else str(violation)
                for violation in rows
            )
            seen = set()
            for violation in rows:
                txn_id = getattr(violation, "txn_id", None)
                if txn_id and txn_id not in seen:
                    seen.add(txn_id)
                    implicated.append(txn_id)
        snapshot: Optional[str] = None
        if metrics is not None:
            # Local import: repro.obs.openmetrics sits above repro.metrics;
            # importing it eagerly would cycle through this package init.
            from repro.obs.openmetrics import render_openmetrics

            snapshot = render_openmetrics(metrics, recorder=recorder, live=live)
        waterfalls: Dict[str, str] = {}
        if recorder is not None and recorder.enabled:
            available = set(recorder.traces())
            for txn_id in implicated:
                if txn_id in available:
                    waterfalls[txn_id] = render_waterfall(recorder.tree(txn_id))
        bundle = IncidentBundle(
            reason=reason,
            created_at=now,
            events=events,
            violations=formatted,
            openmetrics=snapshot,
            waterfalls=waterfalls,
        )
        self.bundles.append(bundle)
        del self.bundles[:-MAX_BUNDLES]
        self.dumps += 1
        return bundle
