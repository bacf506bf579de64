"""The per-class wire sizer agrees with the recursive reference walk.

:func:`repro.sim.topology.estimate_wire_size` picks one sizer per concrete
class; :func:`tests.oracles.reference_wire_size` is the ``isinstance``
chain it replaced.  Bandwidth delays and region byte counters are charged
from these sizes, so any disagreement would change simulated results.
"""

from __future__ import annotations

import enum
import importlib.util
import os
import subprocess
import sys
from collections import OrderedDict, namedtuple
from types import MappingProxyType

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.sim.network import Network
from repro.sim.topology import estimate_message_size, estimate_wire_size

from tests.oracles import reference_message_size, reference_wire_size

SIMBENCH_WORKLOADS = os.path.join(
    os.path.dirname(__file__), "..", "..", "simbench", "workloads.py"
)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str, enum.Enum):
    RED = "red"
    GREEN = "green-ish"


class Phase(enum.Enum):
    VOTE = "vote"
    DECIDE = 2


Point = namedtuple("Point", "x y")


class SizedPoint(Point):
    __slots__ = ()

    def __wire_size__(self):
        return 19


class SizedDict(dict):
    def __wire_size__(self):
        return 7


class PlainList(list):
    pass


class SizedStr(str):
    """Builtin scalars are sized before ``__wire_size__`` is consulted."""

    def __wire_size__(self):
        return 1000


class SizedInt(int):
    def __wire_size__(self):
        return 1000


class FloatSized:
    def __wire_size__(self):
        return 12.9


class Opaque:
    pass


def _instance_sized(size):
    value = Opaque()
    value.__wire_size__ = lambda: size
    return value


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.binary(max_size=8).map(bytearray),
    st.sampled_from(list(Level) + list(Tag) + list(Phase)),
    st.text(max_size=4).map(SizedStr),
    st.integers().map(SizedInt),
    st.just(FloatSized()),
    st.just(Opaque()),
    st.integers(min_value=0, max_value=500).map(_instance_sized),
    st.just(frozenset({1, 2})),
)
keys = st.one_of(
    st.text(max_size=6),
    st.integers(),
    st.none(),
    st.booleans(),
    st.sampled_from(list(Level) + list(Tag)),
    st.tuples(st.integers(), st.text(max_size=3)),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(PlainList),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(keys, children, max_size=4).map(OrderedDict),
        st.dictionaries(keys, children, max_size=4).map(MappingProxyType),
        st.dictionaries(keys, children, max_size=4).map(SizedDict),
        st.tuples(children, children).map(lambda pair: Point(*pair)),
        st.tuples(children, children).map(lambda pair: SizedPoint(*pair)),
    )


payloads = st.recursive(scalars, _containers, max_leaves=40)

WRAPPERS = {
    "list": lambda value: [value],
    "tuple": lambda value: (value,),
    "dict": lambda value: {"k": value},
    "namedtuple": lambda value: Point(value, 1),
    "mappingproxy": lambda value: MappingProxyType({"k": value}),
    "ordereddict": lambda value: OrderedDict(k=value),
}


class TestSizerAgainstReference:
    @given(payloads)
    @settings(max_examples=400, deadline=None)
    def test_arbitrary_nested_payloads(self, value):
        assert estimate_wire_size(value) == reference_wire_size(value)

    @given(st.dictionaries(st.text(max_size=6), payloads, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_message_payloads(self, payload):
        assert estimate_message_size(payload) == reference_message_size(payload)

    @pytest.mark.parametrize("wrap", WRAPPERS.values(), ids=list(WRAPPERS))
    @pytest.mark.parametrize("depth", range(7))
    def test_depth_cutoff(self, wrap, depth):
        value = "leaf"
        for _ in range(depth):
            value = wrap(value)
        for start in (0, 3):
            assert estimate_wire_size(value, start) == reference_wire_size(value, start)

    def test_bool_is_not_an_int(self):
        assert estimate_wire_size(True) == reference_wire_size(True) == 1
        assert estimate_wire_size(Level.LOW) == reference_wire_size(Level.LOW) == 8
        assert estimate_wire_size({"a": False}) == reference_wire_size({"a": False})

    def test_instance_level_wire_size(self):
        sized, plain = _instance_sized(33), Opaque()
        assert estimate_wire_size(sized) == reference_wire_size(sized) == 33
        assert estimate_wire_size(plain) == reference_wire_size(plain) == 128
        # Deeper than the walk goes, an explicit size still counts.
        assert estimate_wire_size(sized, 6) == reference_wire_size(sized, 6) == 33


def check_workload_sizes(workload: str) -> int:
    """Run one seed-1 pass of a benchmark workload at scale 0.2, comparing
    the size of every message sent with the reference; returns how many."""
    name = "simbench_workloads"
    spec = importlib.util.spec_from_file_location(name, SIMBENCH_WORKLOADS)
    bench = importlib.util.module_from_spec(spec)
    sys.modules[name] = bench
    spec.loader.exec_module(bench)
    send = Network.send
    sized = []

    def checked_send(self, src, dst, kind, payload, category, *args, **kwargs):
        message = send(self, src, dst, kind, payload, category, *args, **kwargs)
        fast = estimate_message_size(message.payload)
        assert fast == reference_message_size(message.payload), (kind, message.payload)
        if message.wire_size is not None:
            assert message.wire_size == fast
        sized.append(fast)
        return message

    Network.send = checked_send
    try:
        bench.run_pass(bench.WORKLOADS[workload], 1, 0.2)
    finally:
        Network.send = send
    return len(sized)


@pytest.mark.parametrize("workload", ["wan-hotspot", "policy-churn", "audited-grid"])
def test_every_workload_message_sizes_like_the_reference(workload):
    """Every message a benchmark workload sends, at scale 0.2.

    Each pass runs in a child process: a pass interns thousands of user
    and transaction ids, and the interpreter-wide intern table it leaves
    behind would shift the memory peaks later tests measure.
    """
    root = os.path.join(os.path.dirname(__file__), "..", "..")
    code = (
        "from tests.sim.test_wire_size_equivalence import check_workload_sizes; "
        f"print(check_workload_sizes({workload!r}))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.split()[-1]) > 1000
