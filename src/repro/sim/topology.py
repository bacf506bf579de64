"""Multi-datacenter topology: regions, a latency matrix, and bandwidth.

The seed-era network drew every delay from one global :class:`~repro.sim.
network.LatencyModel`, which is fine for a rack but wrong for a planet:
cross-datacenter links have a different base delay, different jitter, and
finite bandwidth.  This module adds the placement layer:

* :class:`LinkProfile` — one directed region pair's base one-way delay,
  jitter fraction, and bandwidth (bytes per simulation unit);
* :class:`RegionTopology` — the region set, the pairwise profile matrix
  (symmetric fill), and the node → region placement map;
* :class:`RegionalLatency` — a :class:`~repro.sim.network.LatencyModel`
  that samples ``base · (1 + U(−jitter, +jitter))`` for the link between
  the endpoints' regions and, when bandwidth modeling is on, adds a
  message-size / bandwidth transfer term.

Latency units follow the repo convention (one unit ≈ 1 ms); bandwidth is
bytes per unit, so 12 500 bytes/unit ≈ 100 Mbit/s.  Message sizes are
*estimated* from payload structure (:func:`estimate_wire_size`) — objects
may publish an explicit ``__wire_size__()`` — and the estimate is
deterministic, so topology-aware runs remain seed-reproducible.  Both
per-message costs are flat: a payload is sized in one pass through a
per-class sizer table, and each node pair's region pair and link profile
are looked up once and memoized (:meth:`RegionTopology.link`).

See docs/scale.md for the full semantics and the default WAN matrix.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.network import LatencyModel, Message

#: The canonical three-datacenter layout used by the scale bench.
DEFAULT_REGIONS: Tuple[str, ...] = ("us-east", "eu-west", "ap-south")

#: Fixed per-message overhead (framing, headers) in bytes.
MESSAGE_OVERHEAD_BYTES = 64

#: Flat size charged for payload objects without an explicit hint.
DEFAULT_OBJECT_BYTES = 128


@dataclass(frozen=True)
class LinkProfile:
    """One region pair's link characteristics.

    ``base`` is the one-way propagation delay in simulation units;
    ``jitter`` is a fraction of ``base`` (a delay sample is uniform in
    ``[base·(1−jitter), base·(1+jitter)]``); ``bandwidth`` is bytes per
    simulation unit (``None`` = infinite, i.e. no transfer term).
    """

    base: float
    jitter: float = 0.0
    bandwidth: Optional[float] = None

    def __post_init__(self) -> None:
        if self.base < 0:
            raise SimulationError(f"negative base latency {self.base!r}")
        if not 0.0 <= self.jitter <= 1.0:
            raise SimulationError(f"jitter must be in [0, 1], got {self.jitter!r}")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise SimulationError(f"bandwidth must be positive, got {self.bandwidth!r}")

    def sample_delay(self, rng: random.Random) -> float:
        """Propagation delay: base with uniform multiplicative jitter."""
        if self.jitter == 0.0:
            return self.base
        return self.base * (1.0 + rng.uniform(-self.jitter, self.jitter))

    def transfer_time(self, size_bytes: float) -> float:
        """Serialization delay for ``size_bytes`` over this link."""
        if self.bandwidth is None:
            return 0.0
        return size_bytes / self.bandwidth


class RegionTopology:
    """Region set, pairwise link profiles, and node placement.

    The profile matrix is symmetric by construction: a profile given for
    ``(a, b)`` also answers ``(b, a)`` unless the reverse direction is
    declared explicitly.  Intra-region pairs fall back to
    ``intra_profile`` and unknown pairs to ``default_profile``, so a
    topology only needs to spell out the links that matter.

    Nodes that were never :meth:`place`\\ d live in ``default_region``
    (the first region unless overridden) — the network stays usable while
    a testbed is being wired up.

    :meth:`link` memoizes each node pair's region pair and profile, filled
    on the pair's first message; placing a node, declaring a profile, or
    rebinding ``intra_profile``, ``default_profile`` or ``default_region``
    empties the memo.
    """

    def __init__(
        self,
        regions: Iterable[str],
        profiles: Optional[Mapping[Tuple[str, str], LinkProfile]] = None,
        intra_profile: Optional[LinkProfile] = None,
        default_profile: Optional[LinkProfile] = None,
        default_region: Optional[str] = None,
    ) -> None:
        self.regions: Tuple[str, ...] = tuple(regions)
        if not self.regions:
            raise SimulationError("a topology needs at least one region")
        if len(set(self.regions)) != len(self.regions):
            raise SimulationError(f"duplicate regions in {self.regions!r}")
        self._links: Dict[Tuple[str, str], Tuple[Tuple[str, str], LinkProfile]] = {}
        self.intra_profile = intra_profile or LinkProfile(0.5, 0.3)
        self.default_profile = default_profile or LinkProfile(60.0, 0.15, 2_500.0)
        self.default_region = default_region or self.regions[0]
        if self.default_region not in self.regions:
            raise SimulationError(f"default region {self.default_region!r} not in topology")
        self._profiles: Dict[Tuple[str, str], LinkProfile] = {}
        for (src, dst), profile in (profiles or {}).items():
            self.set_profile(src, dst, profile)
        self._placement: Dict[str, str] = {}

    # Rebinding any of these changes what some node pair's link resolves
    # to, so each setter empties the link memo.

    @property
    def intra_profile(self) -> LinkProfile:
        """Profile of every intra-region pair without an explicit one."""
        return self._intra_profile

    @intra_profile.setter
    def intra_profile(self, profile: LinkProfile) -> None:
        self._intra_profile = profile
        self._links.clear()

    @property
    def default_profile(self) -> LinkProfile:
        """Profile of every cross-region pair without an explicit one."""
        return self._default_profile

    @default_profile.setter
    def default_profile(self, profile: LinkProfile) -> None:
        self._default_profile = profile
        self._links.clear()

    @property
    def default_region(self) -> str:
        """Region of every node that was never placed."""
        return self._default_region

    @default_region.setter
    def default_region(self, region: str) -> None:
        self._default_region = region
        self._links.clear()

    # -- matrix ------------------------------------------------------------

    def set_profile(self, src: str, dst: str, profile: LinkProfile) -> None:
        """Declare the link profile for a (directed) region pair."""
        for region in (src, dst):
            if region not in self.regions:
                raise SimulationError(f"unknown region {region!r}")
        self._profiles[(src, dst)] = profile
        self._links.clear()

    def profile_between(self, src_region: str, dst_region: str) -> LinkProfile:
        """The effective profile for a region pair (symmetric fill)."""
        profile = self._profiles.get((src_region, dst_region))
        if profile is None:
            profile = self._profiles.get((dst_region, src_region))
        if profile is None:
            profile = (
                self.intra_profile if src_region == dst_region else self.default_profile
            )
        return profile

    # -- placement ---------------------------------------------------------

    def place(self, node: str, region: str) -> None:
        """Pin a node name to a region."""
        if region not in self.regions:
            raise SimulationError(f"unknown region {region!r}")
        self._placement[node] = region
        self._links.clear()

    def place_all(self, nodes: Iterable[str], region: str) -> None:
        for node in nodes:
            self.place(node, region)

    def region_of(self, node: str) -> str:
        """The region a node lives in (``default_region`` if unplaced)."""
        return self._placement.get(node, self._default_region)

    def placement(self) -> Dict[str, str]:
        """A copy of the node → region map (placed nodes only)."""
        return dict(self._placement)

    def is_cross_region(self, src: str, dst: str) -> bool:
        return self.region_of(src) != self.region_of(dst)

    def profile(self, src: str, dst: str) -> LinkProfile:
        """The link profile between two *nodes*."""
        return self.link(src, dst)[1]

    def link(self, src: str, dst: str) -> Tuple[Tuple[str, str], LinkProfile]:
        """``((src region, dst region), profile)`` for a node pair, memoized."""
        link = self._links.get((src, dst))
        if link is None:
            pair = (self.region_of(src), self.region_of(dst))
            link = self._links[(src, dst)] = (pair, self.profile_between(*pair))
        return link


def default_wan_topology(
    regions: Tuple[str, ...] = DEFAULT_REGIONS,
    wan_bandwidth: Optional[float] = 2_500.0,
    lan_bandwidth: Optional[float] = None,
) -> RegionTopology:
    """The canonical three-datacenter matrix (units ≈ ms; bytes/unit).

    Numbers follow public inter-region RTT tables, halved to one-way:
    us-east ↔ eu-west ≈ 40, us-east ↔ ap-south ≈ 90, eu-west ↔ ap-south ≈ 65,
    intra-region ≈ 0.5, with proportionally larger jitter on longer links.
    WAN bandwidth defaults to 2 500 bytes/unit (≈ 20 Mbit/s effective per
    flow) so KB-scale payloads (policy bodies, proof bundles) pay a
    visible serialization cost cross-region; LAN bandwidth is infinite by
    default.  For region sets beyond the canonical three, extra pairs fall
    back to the topology's defaults (intra 0.5, cross 60 · 15 % jitter).
    """
    topo = RegionTopology(
        regions,
        intra_profile=LinkProfile(0.5, 0.3, lan_bandwidth),
        default_profile=LinkProfile(60.0, 0.15, wan_bandwidth),
    )
    canonical = {
        ("us-east", "eu-west"): LinkProfile(40.0, 0.15, wan_bandwidth),
        ("us-east", "ap-south"): LinkProfile(90.0, 0.20, wan_bandwidth),
        ("eu-west", "ap-south"): LinkProfile(65.0, 0.15, wan_bandwidth),
    }
    for (a, b), profile in canonical.items():
        if a in topo.regions and b in topo.regions:
            topo.set_profile(a, b, profile)
    return topo


# -- message size estimation ---------------------------------------------------
#
# One sizer per concrete class, chosen on the class's first appearance by
# the rules of estimate_wire_size's docstring, so that sizing a value costs
# one table lookup and one call (none for strings inside containers) rather
# than a chain of isinstance checks against ABCs.

#: Containers nested this deep are charged a flat size instead of walked.
MAX_WALK_DEPTH = 4

Sizer = Callable[[Any, int], int]


def _size_one(value: Any, depth: int) -> int:
    return 1


def _size_number(value: Any, depth: int) -> int:
    return 8


def _size_len(value: Any, depth: int) -> int:
    return len(value)


def _size_dict(value: Any, depth: int) -> int:
    if depth >= MAX_WALK_DEPTH:
        return DEFAULT_OBJECT_BYTES
    depth += 1
    sizers = _SIZERS
    total = 8
    for key, item in value.items():
        total += len(key) if type(key) is str else sizers[type(key)](key, depth)
        total += len(item) if type(item) is str else sizers[type(item)](item, depth)
    return total


def _size_sequence(value: Any, depth: int) -> int:
    if depth >= MAX_WALK_DEPTH:
        return DEFAULT_OBJECT_BYTES
    depth += 1
    sizers = _SIZERS
    total = 8
    for item in value:
        total += len(item) if type(item) is str else sizers[type(item)](item, depth)
    return total


def _object_sizer(walk: Optional[Sizer]) -> Sizer:
    """Sizer for a class that is not a builtin scalar: an instance's own
    ``__wire_size__`` first, then ``walk`` (a container's) or the flat size."""

    def size(value: Any, depth: int) -> int:
        wire_size = getattr(value, "__wire_size__", None)
        if wire_size is not None:
            return int(wire_size())
        return DEFAULT_OBJECT_BYTES if walk is None else walk(value, depth)

    return size


def _sizer_for(cls: type) -> Sizer:
    if cls is type(None) or issubclass(cls, bool):
        return _size_one
    if issubclass(cls, (int, float)):
        return _size_number
    if issubclass(cls, (str, bytes, bytearray)):
        return _size_len
    # Exact builtin containers take no attributes, so they can have no
    # __wire_size__; subclasses, namedtuples and other mappings can.
    if cls is dict:
        return _size_dict
    if cls is list or cls is tuple:
        return _size_sequence
    if issubclass(cls, Mapping):
        return _object_sizer(_size_dict)
    if issubclass(cls, (tuple, list)):
        return _object_sizer(_size_sequence)
    return _object_sizer(None)


class _SizerTable(dict):
    """Class → sizer, filled on each class's first lookup."""

    def __missing__(self, cls: type) -> Sizer:
        sizer = self[cls] = _sizer_for(cls)
        return sizer


_SIZERS = _SizerTable()


def estimate_wire_size(value: Any, _depth: int = 0) -> int:
    """Deterministic, structural wire-size estimate (bytes) for a payload.

    ``None`` and booleans count 1 byte, other numbers 8, strings/bytes
    their length — subclasses included, and before any ``__wire_size__``.
    Other objects answer ``__wire_size__()`` if they have one (looked up on
    the instance); otherwise mappings, tuples and lists are walked to a
    bounded depth (8 bytes plus their keys and items) and everything else
    is charged a flat :data:`DEFAULT_OBJECT_BYTES`.  The estimate never
    inspects object internals, so it is cheap on the send hot path and
    stable across runs.
    """
    return _SIZERS[type(value)](value, _depth)


def estimate_message_size(payload: Mapping[str, Any]) -> int:
    """Bytes on the wire for one message: framing overhead + payload."""
    return MESSAGE_OVERHEAD_BYTES + _SIZERS[type(payload)](payload, 0)


def message_wire_size(message: Message) -> int:
    """:func:`estimate_message_size` of ``message``'s payload, estimated
    once per message and kept on it (the latency model and the region
    counters both charge it)."""
    size = message.wire_size
    if size is None:
        size = message.wire_size = estimate_message_size(message.payload)
    return size


class RegionalLatency(LatencyModel):
    """Latency model backed by a :class:`RegionTopology`.

    Delay = link propagation (base + jitter) plus, when
    ``model_transfer_time`` is on, the message-size / bandwidth transfer
    term for the link.  The network delivers every message through
    :meth:`sample_message`, which estimates the payload's wire size;
    plain :meth:`sample` calls — e.g. from code unaware of sizes — charge
    propagation only.
    """

    def __init__(self, topology: RegionTopology, model_transfer_time: bool = True) -> None:
        self.topology = topology
        self.model_transfer_time = model_transfer_time

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        return self.topology.profile(src, dst).sample_delay(rng)

    def sample_sized(self, rng: random.Random, src: str, dst: str, size_bytes: int) -> float:
        profile = self.topology.profile(src, dst)
        delay = profile.sample_delay(rng)
        if self.model_transfer_time:
            delay += profile.transfer_time(size_bytes)
        return delay

    def sample_message(self, rng: random.Random, message: Message) -> float:
        if not self.model_transfer_time:
            return self.sample(rng, message.src, message.dst)
        return self.sample_sized(rng, message.src, message.dst, message_wire_size(message))
