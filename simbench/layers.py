"""Per-layer self time from the interpreter's profiling hook.

The traced run enables :class:`cProfile.Profile` around the measured region
of each cell.  Every function's self time is charged to the layer of the
``repro`` module that defines it.  Code outside ``repro`` -- builtins such
as ``isinstance``, the standard library (``typing``, ``enum``, ...) and
functions that ``dataclasses`` generates from strings -- is charged to the
``repro`` modules that called it, split by the profile's caller edges.
Time that reaches no layer (the benchmark's own hooks, unmatched modules,
calls from outside any layer) is reported as unattributed.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Optional, Tuple

import repro

#: Layer name → ``repro`` modules (dotted, relative to the package) it covers.
#: A module belongs to the layer with its longest matching prefix.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    (
        "sim.kernel",
        ("sim.kernel", "sim.events", "sim.process", "sim.queues", "sim.resources", "sim.rng"),
    ),
    ("sim.network", ("sim.network",)),
    ("sim.topology", ("sim.topology",)),
    ("sim.tracing", ("sim.tracing",)),
    ("db.locks", ("db.locks",)),
    ("db.wal", ("db.wal", "db.recovery")),
    ("db.storage", ("db.storage", "db.items", "db.constraints")),
    ("policy.rules", ("policy.rules", "policy.rules_reference", "policy.parser")),
    ("policy.proofcache", ("policy.proofcache",)),
    ("policy.analyze", ("policy.analyze",)),
    ("policy.proofs", ("policy.proofs", "policy.credentials", "policy.ocsp")),
    ("policy.store", ("policy.store", "policy.policy", "policy.admin")),
    ("core", ("core",)),
    ("transactions", ("transactions", "errors")),
    ("cloud.server", ("cloud.server", "cloud.messages", "cloud.config", "cloud.sharding")),
    ("cloud.master", ("cloud.master",)),
    ("cloud.replication", ("cloud.replication",)),
    ("metrics", ("metrics", "analysis")),
    ("obs", ("obs",)),
    ("verify", ("verify", "db.serializability")),
    ("workloads", ("workloads",)),
)

LAYER_NAMES = tuple(name for name, _ in LAYERS)

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_PREFIXES = sorted(
    ((prefix, name) for name, prefixes in LAYERS for prefix in prefixes),
    key=lambda item: -len(item[0]),
)

# pstats keys: (filename, first line, function name).
Func = Tuple[str, int, str]
#: Marks functions that end attribution without reaching a layer.
_NOWHERE = ""
#: Fixed-point rounds; each carries shares one more caller up a chain.
_ITERATIONS = 40


def module_of(filename: str) -> Optional[str]:
    """``repro``-relative dotted module of a source file, or None."""
    path = os.path.abspath(filename)
    if not path.startswith(_REPRO_DIR) or not path.endswith(".py"):
        return None
    dotted = path[len(_REPRO_DIR) : -3].replace(os.sep, ".")
    return dotted[: -len(".__init__")] if dotted.endswith(".__init__") else dotted


def layer_of_module(module: str) -> str:
    for prefix, name in _PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return name
    return _NOWHERE


class Attribution:
    """Self time per layer, and call counts, from one profile's stats."""

    def __init__(self, stats: Dict[Func, tuple], harness_dir: str) -> None:
        self.stats = stats
        self.harness_dir = os.path.abspath(harness_dir) + os.sep
        self._terminal: Dict[Func, Optional[str]] = {}
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYER_NAMES}
        self.total_s = 0.0
        shares = self._caller_shares()
        for func, (_cc, _nc, tt, _ct, callers) in stats.items():
            self.total_s += tt
            layer = self._terminal_layer(func)
            if layer is not None:
                if layer:
                    self.self_s[layer] += tt
                continue
            # Not a layer's own code: split its self time over its callers.
            for caller, edge in callers.items():
                for name, share in self._shares_of(caller, shares).items():
                    if name:
                        self.self_s[name] += edge[2] * share

    @property
    def unattributed_s(self) -> float:
        return self.total_s - sum(self.self_s.values())

    def _terminal_layer(self, func: Func) -> Optional[str]:
        """Layer of a ``repro`` function, ``""`` for the benchmark's own
        code and unmatched modules, None for code charged to its callers."""
        if func not in self._terminal:
            filename = func[0]
            module = module_of(filename)
            if module is not None:
                self._terminal[func] = layer_of_module(module)
            elif os.path.abspath(filename).startswith(self.harness_dir):
                self._terminal[func] = _NOWHERE
            else:
                self._terminal[func] = None
        return self._terminal[func]

    def _shares_of(self, func: Func, shares: Dict[Func, Dict[str, float]]) -> Dict[str, float]:
        layer = self._terminal_layer(func)
        return {layer: 1.0} if layer is not None else shares.get(func, {})

    def _caller_shares(self) -> Dict[Func, Dict[str, float]]:
        """For each function charged to its callers: how time spent inside
        a call *from* it splits over layers.

        Each caller weighs in by the cumulative time of the calls it made
        (call counts when the clock saw nothing).  Callers that are charged
        to their own callers in turn -- ``isinstance`` calling
        ``typing.__instancecheck__`` calling ``issubclass`` calling
        ``isinstance`` -- form chains and cycles, so the shares are found by
        iterating to a fixed point.
        """
        weights: Dict[Func, Dict[Func, float]] = {}
        for func, entry in self.stats.items():
            if self._terminal_layer(func) is not None:
                continue
            edges = {caller: edge[3] for caller, edge in entry[4].items()}
            if not sum(edges.values()):
                edges = {caller: edge[0] for caller, edge in entry[4].items()}
            total = sum(edges.values())
            weights[func] = {c: w / total for c, w in edges.items() if w} if total else {}
        shares: Dict[Func, Dict[str, float]] = {}
        for _ in range(_ITERATIONS):
            updated: Dict[Func, Dict[str, float]] = {}
            for func, edges in weights.items():
                acc: Dict[str, float] = {}
                for caller, weight in edges.items():
                    for name, share in self._shares_of(caller, shares).items():
                        acc[name] = acc.get(name, 0.0) + weight * share
                updated[func] = acc
            shares = updated
        return shares

    # -- call counts ------------------------------------------------------------

    def _functions(self, module: str) -> Iterable[Tuple[Func, tuple]]:
        for func, entry in self.stats.items():
            if module_of(func[0]) == module:
                yield func, entry

    def calls(self, module: str, prefix: str) -> int:
        """Calls, recursive ones included, of the functions in ``module``
        whose names start with ``prefix``."""
        return sum(
            entry[1] for func, entry in self._functions(module) if func[2].startswith(prefix)
        )

    def entries(self, module: str) -> int:
        """Calls into ``module`` from code outside it."""
        total = 0
        for _func, entry in self._functions(module):
            for caller, edge in entry[4].items():
                if module_of(caller[0]) != module:
                    total += edge[0]
        return total
