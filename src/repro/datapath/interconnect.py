"""Point-to-point interconnect model with incremental cost maintenance.

The paper evaluates allocations under a point-to-point interconnection
style: module outputs connect to module inputs through a single level of
multiplexers, and interconnect cost is the number of **equivalent 2-to-1
multiplexers** — a sink (module input) driven by *k* distinct sources costs
``k - 1`` (Sec. 1, 4).  Because the iterative allocator re-evaluates cost
after every move, the ledger maintains the mux total incrementally: adding
or removing one connection use is O(1).

Sources and sinks are plain tuples:

===================  =============================================
``("fu_out", f)``    output of functional unit *f*
``("reg_out", r)``   output of register *r*
``("in_port", v)``   primary input port carrying value *v*
``("fu_in", f, p)``  input port *p* (0/1) of functional unit *f*
``("reg_in", r)``    data input of register *r*
``("out_port", v)``  primary output port sampling value *v*
===================  =============================================

A connection may be *used* by many events (the same register feeding the
same FU port in several control steps); the ledger reference-counts uses so
that removing one use does not delete a connection that another control
step still needs.

Internally the refcounts live in slot-indexed integer columns, not a
``dict``: each distinct pair ever seen is interned to a dense *slot* id and
each sink to a dense sink id, and the hot state is two flat lists of ints
(``uses`` per slot, ``fanin`` per sink).  Slots are append-only for the
life of the ledger.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Tuple

from repro.errors import DatapathError

Endpoint = Tuple  # ("fu_out", name) etc.
Connection = Tuple[Endpoint, Endpoint]


def fu_out(fu: str) -> Endpoint:
    return ("fu_out", fu)


def reg_out(reg: str) -> Endpoint:
    return ("reg_out", reg)


def in_port(value: str) -> Endpoint:
    return ("in_port", value)


def fu_in(fu: str, port: int) -> Endpoint:
    return ("fu_in", fu, port)


def reg_in(reg: str) -> Endpoint:
    return ("reg_in", reg)


def out_port(value: str) -> Endpoint:
    return ("out_port", value)


class ConnectionLedger:
    """Reference-counted (source, sink) connection set with O(1) mux total."""

    def __init__(self) -> None:
        #: (src, sink) -> slot id (append-only intern table)
        self._slot_ids: Dict[Connection, int] = {}
        #: slot id -> pair
        self._pairs: List[Connection] = []
        #: slot id -> number of events using this connection (0 = absent)
        self._uses: List[int] = []
        #: slot id -> sink id of the pair's sink
        self._slot_sink: List[int] = []
        #: sink -> sink id (append-only intern table)
        self._sink_ids: Dict[Endpoint, int] = {}
        #: sink id -> sink
        self._sinks: List[Endpoint] = []
        #: sink id -> number of *distinct* live sources driving it
        self._fanin: List[int] = []
        self._mux_total = 0
        self._wire_total = 0
        #: Σ_sink ceil(log2(fanin)) — total 2-1 mux-tree levels (delay proxy)
        self._depth_total = 0

    # -- mutation -------------------------------------------------------------

    def add_pair(self, pair: Connection) -> None:
        """Record one more use of the ``(src, sink)`` connection *pair*.

        The pair tuple itself is the intern key, so hot callers that
        already hold one (the site-event lists are lists of pairs) pay no
        re-packing.
        """
        slot = self._slot_ids.get(pair)
        if slot is None:
            sink = pair[1]
            sink_id = self._sink_ids.get(sink)
            if sink_id is None:
                sink_id = len(self._sinks)
                self._sink_ids[sink] = sink_id
                self._sinks.append(sink)
                self._fanin.append(0)
            slot = len(self._pairs)
            self._slot_ids[pair] = slot
            self._pairs.append(pair)
            self._uses.append(0)
            self._slot_sink.append(sink_id)
        uses = self._uses
        count = uses[slot]
        uses[slot] = count + 1
        if count == 0:
            self._wire_total += 1
            fanin = self._fanin
            sink_id = self._slot_sink[slot]
            sink_fanin = fanin[sink_id] + 1
            fanin[sink_id] = sink_fanin
            if sink_fanin > 1:
                self._mux_total += 1
                # ceil(log2(n)) == (n-1).bit_length() for n >= 2, 0 below;
                # the fanin step k -> k+1 moves tree depth by the difference
                self._depth_total += ((sink_fanin - 1).bit_length() -
                                      (sink_fanin - 2).bit_length())

    def remove_pair(self, pair: Connection) -> None:
        """Drop one use; the connection goes dead when uses reach zero."""
        slot = self._slot_ids.get(pair)
        if slot is None or self._uses[slot] <= 0:
            raise DatapathError(f"removing non-existent connection {pair}")
        uses = self._uses
        count = uses[slot] - 1
        uses[slot] = count
        if count == 0:
            self._wire_total -= 1
            fanin = self._fanin
            sink_id = self._slot_sink[slot]
            sink_fanin = fanin[sink_id] - 1
            fanin[sink_id] = sink_fanin
            if sink_fanin > 0:
                self._mux_total -= 1
                self._depth_total -= (sink_fanin.bit_length() -
                                      (sink_fanin - 1).bit_length())

    def add(self, src: Endpoint, sink: Endpoint) -> None:
        """Record one more use of the connection *src* -> *sink*."""
        self.add_pair((src, sink))

    def remove(self, src: Endpoint, sink: Endpoint) -> None:
        """Drop one use; deletes the connection when uses reach zero."""
        self.remove_pair((src, sink))

    def add_events(self, events: Iterable[Connection]) -> None:
        add_pair = self.add_pair
        for pair in events:
            add_pair(pair)

    def remove_events(self, events: Iterable[Connection]) -> None:
        remove_pair = self.remove_pair
        for pair in events:
            remove_pair(pair)

    # -- queries --------------------------------------------------------------

    @property
    def mux_count(self) -> int:
        """Total equivalent 2-1 multiplexers: Σ_sink max(0, fanin-1)."""
        return self._mux_total

    @property
    def wire_count(self) -> int:
        """Number of distinct point-to-point connections."""
        return self._wire_total

    @property
    def mux_depth(self) -> int:
        """Total mux-tree levels: Σ_sink ceil(log2(max(1, fanin))).

        A sink with fanin *k* needs a tree of ``ceil(log2(k))`` 2-1 mux
        levels on its critical path; the sum over all sinks is the O(1)
        delay proxy the ``latency`` cost weight prices.  Maintained
        incrementally at fanin transitions in :meth:`add_pair` /
        :meth:`remove_pair`.
        """
        return self._depth_total

    def fanin(self, sink: Endpoint) -> int:
        sink_id = self._sink_ids.get(sink)
        return 0 if sink_id is None else self._fanin[sink_id]

    def sources_of(self, sink: Endpoint) -> List[Endpoint]:
        """Distinct sources driving *sink*, sorted for determinism."""
        pairs = self._pairs
        return sorted({pairs[slot][0]
                       for slot, count in enumerate(self._uses)
                       if count and pairs[slot][1] == sink})

    def sinks(self) -> List[Endpoint]:
        return sorted(sink for sink_id, sink in enumerate(self._sinks)
                      if self._fanin[sink_id] > 0)

    def connections(self) -> List[Connection]:
        """All distinct live connections, sorted."""
        pairs = self._pairs
        return sorted(pairs[slot] for slot, count in enumerate(self._uses)
                      if count)

    def uses(self, src: Endpoint, sink: Endpoint) -> int:
        slot = self._slot_ids.get((src, sink))
        return 0 if slot is None else self._uses[slot]

    def use_counts(self) -> Dict[Connection, int]:
        """Snapshot of every live connection's reference count.

        The sanitizer and the legality checker compare this against a
        from-scratch re-derivation: totals (``mux_count``/``wire_count``)
        can agree while an individual connection's count is off, so the
        per-connection map is the stronger oracle.
        """
        pairs = self._pairs
        return {pairs[slot]: count
                for slot, count in enumerate(self._uses) if count}

    def verify(self) -> None:
        """Cross-check the incremental counters (used by tests)."""
        pairs = self._pairs
        fanin = Counter(pairs[slot][1]
                        for slot, count in enumerate(self._uses) if count)
        live_fanin = {sink: self._fanin[sink_id]
                      for sink, sink_id in self._sink_ids.items()
                      if self._fanin[sink_id]}
        if fanin != live_fanin:
            raise DatapathError("ledger fanin counters out of sync")
        mux = sum(max(0, n - 1) for n in fanin.values())
        if mux != self._mux_total:
            raise DatapathError(
                f"ledger mux total out of sync: {self._mux_total} != {mux}")
        wires = sum(1 for count in self._uses if count)
        if wires != self._wire_total:
            raise DatapathError(
                f"ledger wire total out of sync: "
                f"{self._wire_total} != {wires}")
        depth = sum((n - 1).bit_length() for n in fanin.values() if n > 1)
        if depth != self._depth_total:
            raise DatapathError(
                f"ledger mux-depth total out of sync: "
                f"{self._depth_total} != {depth}")

    def __repr__(self) -> str:
        return (f"ConnectionLedger(wires={self.wire_count}, "
                f"mux={self.mux_count}, depth={self.mux_depth})")
