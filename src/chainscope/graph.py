"""Temporal event graph construction and candidate chain extraction.

Tagged events become nodes (the events themselves, with their chosen
steps in a parallel tuple); an edge connects two events when the later
one falls inside a bounded window of the earlier one and they share a
join key (host, user, process lineage, or consistent network endpoints).
Edges always point forward under the (ts, event_id) order, so the graph
is a DAG and nodes in that order are already topologically sorted.
build_event_graph is the one place that pairs decisions with events: an
edge names its endpoints by node position, and later stages index by it.

build_event_graph does not test every pair inside the window. It files
each node in keyed buckets -- host, user, pid, ppid, destination endpoint
and unordered endpoint pair -- and takes a node's candidate partners from
the buckets a later partner must share with it, cut to the window by
bisection. A same-host candidate is always a shared_host edge; any other
candidate goes through join_reason, whose fixed priority decides the
reason. Every accepted pair shares at least one of these keys, so the
edge set and its (source, target) position order equal those of a full
scan of the window.

Chains are path projections: walk any forward path, record each step tag
at its first occurrence, and you get an ordered step sequence. Distinct
paths often project to the same sequence, so sequences are deduplicated
keeping the best representative path -- smallest temporal span, then
earliest start, then shortest path, then smallest when read back-to-front
in (ts, event_id) node order. These rules are shared verbatim by the
brute-force enumeration oracle in tests/conftest.py; extract_chains
reaches the same result with a dynamic program over (node,
projected-sequence) states, which stays polynomial because there are at
most 325 distinct sequences over the five-step alphabet. Sequences are
coded as ints, and a table built once maps (sequence, step) to the
extended sequence, so a DP state is the int node * 326 + sequence and a
path is a chain of such parent ints. The back-to-front tie-break matters
for throughput: two candidate paths for one state almost always arrive
through different predecessors, so the comparison resolves without
walking whole paths. In place of a subgraph, extract_chains takes the
node positions to use: an edge depends only on its two events and
positions keep their order, so that equals the graph built on their events.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, DefaultDict, Dict, List, Optional, Sequence, Set, Tuple

from .errors import EventIdError
from .model import NormalizedEvent
from .tagging import StepTag, TagDecision

DEFAULT_WINDOW_MS = 10 * 60 * 1000
DEFAULT_GAP_MS = 10 * 60 * 1000
DEFAULT_TOP_K = 5

JOIN_SHARED_HOST = "shared_host"
JOIN_SHARED_USER = "shared_user"
JOIN_SHARED_PROCESS = "shared_process"
JOIN_NETWORK = "network_consistent"
JOIN_REASONS = (JOIN_SHARED_HOST, JOIN_SHARED_USER, JOIN_SHARED_PROCESS, JOIN_NETWORK)


@dataclass(frozen=True, slots=True)
class Edge:
    src: int  # node positions in the EventGraph
    dst: int
    join_reason: str
    gap_ms: int


@dataclass(frozen=True)
class EventGraph:
    """The tagged events, in (ts, event_id) order, and the edges between them.

    steps[i] is the step chosen for nodes[i].
    """

    nodes: Tuple[NormalizedEvent, ...]
    steps: Tuple[StepTag, ...]
    edges: Tuple[Edge, ...]
    window_ms: int


@dataclass(frozen=True)
class Chain:
    """An ordered step sequence with its supporting evidence path."""

    steps: Tuple[StepTag, ...]
    supporting_events: Tuple[Tuple[str, ...], ...]  # aligned with steps
    score: int
    continuity_flags: Tuple[Tuple[int, int], ...]  # (transition index, gap_ms)
    first_ts: int
    span_ms: int


def join_reason(a: NormalizedEvent, b: NormalizedEvent) -> Optional[str]:
    """First matching join criterion between two events, in fixed priority order."""
    if a.host is not None and b.host is not None and a.host == b.host:
        return JOIN_SHARED_HOST
    if a.user is not None and b.user is not None and a.user == b.user:
        return JOIN_SHARED_USER
    # process lineage only makes sense when hosts do not contradict
    hosts_compatible = a.host is None or b.host is None or a.host == b.host
    if hosts_compatible and a.pid is not None:
        if b.pid is not None and (a.pid == b.pid or b.ppid == a.pid):
            return JOIN_SHARED_PROCESS
        if b.pid is not None and a.ppid is not None and a.ppid == b.pid:
            return JOIN_SHARED_PROCESS
    if a.dst_ip is not None and a.dst_port is not None and (a.dst_ip, a.dst_port) == (b.dst_ip, b.dst_port):
        return JOIN_NETWORK
    if (
        a.src_ip is not None
        and a.dst_ip is not None
        and b.src_ip is not None
        and b.dst_ip is not None
        and (a.proto is None or b.proto is None or a.proto == b.proto)
    ):
        ends_a = {(a.src_ip, a.src_port), (a.dst_ip, a.dst_port)}
        ends_b = {(b.src_ip, b.src_port), (b.dst_ip, b.dst_port)}
        if ends_a == ends_b:
            return JOIN_NETWORK
    return None


def build_event_graph(
    events: Sequence[NormalizedEvent],
    decisions: Sequence[TagDecision],
    window_ms: int = DEFAULT_WINDOW_MS,
) -> EventGraph:
    """Connect tagged events that exhibit plausible temporal continuity.

    Only events whose decision chose a step become nodes. An edge (a, b)
    exists iff 0 <= ts_b - ts_a <= window_ms, (a, b) are distinct and
    forward-ordered under (ts, event_id), and a join criterion holds.
    Edges are ordered by (a, b) node position. Event ids must be unique
    and every event must have exactly one decision; otherwise
    EventIdError names the first offender.
    """
    if window_ms <= 0:
        raise ValueError("window_ms must be positive")
    event_ids: Set[str] = set()
    for event in events:
        if event.event_id in event_ids:
            raise EventIdError(f"duplicate event id {event.event_id!r}")
        event_ids.add(event.event_id)
    chosen: Dict[str, StepTag] = {}
    decided: Set[str] = set()
    for decision in decisions:
        if decision.event_id not in event_ids:
            raise EventIdError(f"decision for unknown event id {decision.event_id!r}")
        if decision.event_id in decided:
            raise EventIdError(f"repeated decision for event id {decision.event_id!r}")
        decided.add(decision.event_id)
        if decision.chosen is not None:
            chosen[decision.event_id] = decision.chosen
    if len(decided) < len(event_ids):
        missing = next(e.event_id for e in events if e.event_id not in decided)
        raise EventIdError(f"no decision for event id {missing!r}")
    nodes = sorted((e for e in events if e.event_id in chosen), key=lambda e: (e.ts, e.event_id))
    ts = [node.ts for node in nodes]
    buckets, partners = _candidate_buckets(nodes, ts)
    edges: List[Edge] = []
    for i, a in enumerate(nodes):
        limit = ts[i] + window_ms
        same_host: List[int] = []
        if a.host is not None:
            same_host = _later_within(buckets[("host", a.host)], i, limit)
        others: Set[int] = set()
        for bucket in partners[i]:
            others.update(_later_within(bucket, i, limit))
        others.difference_update(same_host)
        joined = [(j, JOIN_SHARED_HOST) for j in same_host]
        if others:
            joined.extend((j, r) for j in others if (r := join_reason(a, nodes[j])) is not None)
            joined.sort()
        ts_a = ts[i]
        edges.extend(Edge(i, j, reason, ts[j] - ts_a) for j, reason in joined)
    steps = tuple(chosen[node.event_id] for node in nodes)
    return EventGraph(nodes=tuple(nodes), steps=steps, edges=tuple(edges), window_ms=window_ms)


# A bucket holds the ascending positions, and their timestamps, of the
# nodes filed under one join key.
JoinKey = Tuple[str, object]
Bucket = Tuple[List[int], List[int]]


def _join_keys(node: NormalizedEvent) -> Tuple[List[JoinKey], List[JoinKey]]:
    """Keys the node is filed under, and keys a later partner is filed under.

    Every pair join_reason accepts shares a host, a user, a pid/ppid link,
    a destination endpoint or an unordered endpoint pair, so the buckets
    of the second list plus the node's host bucket hold all its edges.
    """
    shared: List[JoinKey] = []
    if node.user is not None:
        shared.append(("user", node.user))
    if node.dst_ip is not None and node.dst_port is not None:
        shared.append(("dst", (node.dst_ip, node.dst_port)))
    if node.src_ip is not None and node.dst_ip is not None:
        shared.append(("ends", frozenset(((node.src_ip, node.src_port), (node.dst_ip, node.dst_port)))))
    filed, wanted = list(shared), shared
    if node.host is not None:
        filed.append(("host", node.host))
    if node.pid is not None:
        # a later b joins when b.pid == a.pid, b.ppid == a.pid or b.pid == a.ppid
        filed.append(("pid", node.pid))
        wanted += [("pid", node.pid), ("ppid", node.pid)]
        if node.ppid is not None:
            filed.append(("ppid", node.ppid))
            wanted.append(("pid", node.ppid))
    return filed, wanted


def _candidate_buckets(
    nodes: Sequence[NormalizedEvent], ts: Sequence[int]
) -> Tuple[Dict[JoinKey, Bucket], List[List[Bucket]]]:
    """Every join key's bucket, and per node the buckets of its later partners."""
    keys = [_join_keys(node) for node in nodes]
    members: DefaultDict[JoinKey, List[int]] = defaultdict(list)
    for i, (filed, _wanted) in enumerate(keys):
        for key in filed:
            members[key].append(i)
    buckets = {key: (positions, [ts[i] for i in positions]) for key, positions in members.items()}
    return buckets, [[buckets[key] for key in wanted if key in buckets] for _filed, wanted in keys]


def _later_within(bucket: Bucket, i: int, limit: int) -> List[int]:
    """Positions in the bucket after node i whose ts is at most limit."""
    positions, stamps = bucket
    lo = bisect_right(positions, i)
    return positions[lo : bisect_right(stamps, limit, lo)]


# --- chain extraction -------------------------------------------------------


def build_chain(graph: EventGraph, path: Sequence[int], gap_threshold_ms: int) -> Chain:
    """Project one concrete path, as node positions, onto its first-occurrence step chain."""
    steps: List[StepTag] = []
    supporting: Dict[StepTag, List[str]] = {}
    first_pos: Dict[StepTag, int] = {}
    for pos, i in enumerate(path):
        step = graph.steps[i]
        if step not in supporting:
            steps.append(step)
            supporting[step] = []
            first_pos[step] = pos
        supporting[step].append(graph.nodes[i].event_id)
    ts = [graph.nodes[i].ts for i in path]
    flags: List[Tuple[int, int]] = []
    for k in range(1, len(steps)):
        pos = first_pos[steps[k]]
        gap = ts[pos] - ts[pos - 1]
        if gap > gap_threshold_ms:
            flags.append((k - 1, gap))
    return Chain(
        steps=tuple(steps),
        supporting_events=tuple(tuple(supporting[s]) for s in steps),
        score=len(steps),
        continuity_flags=tuple(flags),
        first_ts=ts[0],
        span_ms=ts[-1] - ts[0],
    )


def chain_order_key(chain: Chain, rev_indexes: Tuple[int, ...]) -> Tuple:
    """Output order: score desc, then span asc, then earliest start.

    rev_indexes (the path read back-to-front as node positions in the
    (ts, event_id) order) makes the ordering total.
    """
    return (-chain.score, chain.span_ms, chain.first_ts, rev_indexes)


# Step sequences are coded as ints, 0 being the empty one: _EXTEND[c][k]
# is the code of sequence k after a node with step code c, which is k
# itself when the step already occurs in it.
_STEP_CODES = {step: code for code, step in enumerate(StepTag)}


def _sequence_table() -> Tuple[Tuple[int, ...], ...]:
    sequences: List[Tuple[StepTag, ...]] = [()]
    for seq in sequences:  # grows while iterating: breadth-first by length
        sequences.extend(seq + (step,) for step in StepTag if step not in seq)
    codes = {seq: k for k, seq in enumerate(sequences)}
    return tuple(
        tuple(k if step in seq else codes[seq + (step,)] for k, seq in enumerate(sequences)) for step in StepTag
    )


_EXTEND = _sequence_table()
_NSEQ = len(_EXTEND[0])  # 326: the empty sequence and 325 non-empty ones


def extract_chains(
    graph: EventGraph,
    top_k: Optional[int] = DEFAULT_TOP_K,
    gap_threshold_ms: int = DEFAULT_GAP_MS,
    nodes: Optional[Sequence[int]] = None,
) -> List[Chain]:
    """Extract candidate chains as deduplicated ordered step sequences.

    Equivalent to enumerating every forward path, projecting it onto its
    first-occurrence step sequence, and keeping the best representative
    per distinct sequence -- but runs as a DP over (node, sequence)
    states. nodes, node positions in any order (None: all of them),
    limits the paths to those nodes and the edges between them. No nodes
    yield an empty list.
    """
    if top_k is not None and top_k < 1:
        raise ValueError("top_k must be >= 1")
    n = len(graph.nodes)
    if nodes is None:
        nodes = range(n)
    if not nodes:
        return []
    kept = bytearray(n)  # 1 at each position in nodes
    for v in nodes:
        kept[v] = 1
    nodes = [v for v in range(n) if kept[v]]  # the DP visits nodes in ascending order
    # edges come in (src, dst) order, so every predecessor list ascends
    preds: List[List[int]] = [[] for _ in range(n)]
    for edge in graph.edges:
        if kept[edge.src] and kept[edge.dst]:
            preds[edge.dst].append(edge.src)
    ts = [node.ts for node in graph.nodes]

    # states[v][seq] = (first_ts, length, parent), a fresh dict for each kept
    # v; a state is the int v * _NSEQ + seq, and parent is the predecessor's
    # state or -1
    states: List[Dict[int, Tuple[int, int, int]]] = [{}] * n

    def back_less(a: int, b: int) -> bool:
        """Compare two stored paths back-to-front by node index.

        Both chains have equal length whenever this is reached, so the
        walk terminates on both sides together.
        """
        while a >= 0 and b >= 0:
            node_a, seq_a = divmod(a, _NSEQ)
            node_b, seq_b = divmod(b, _NSEQ)
            if node_a != node_b:
                return node_a < node_b
            a, b = states[node_a][seq_a][2], states[node_b][seq_b][2]
        return False

    for v in nodes:
        extend = _EXTEND[_STEP_CODES[graph.steps[v]]]
        here = states[v] = {extend[0]: (ts[v], 1, -1)}
        for u in preds[v]:
            base = u * _NSEQ
            for seq_u, (first, length, _parent) in states[u].items():
                seq = extend[seq_u]
                length += 1
                # larger first_ts -> smaller span at every extension; then
                # shorter path; back-to-front order only on a full tie.
                # Predecessors come in ascending order, so an incumbent
                # whose parent is an earlier node (state below base) wins
                # the tie without a walk.
                incumbent = here.get(seq)
                if (
                    incumbent is None
                    or first > incumbent[0]
                    or (
                        first == incumbent[0]
                        and (
                            length < incumbent[1]
                            or (
                                length == incumbent[1]
                                and incumbent[2] >= base
                                and back_less(base + seq_u, incumbent[2])
                            )
                        )
                    )
                ):
                    here[seq] = (first, length, base + seq_u)

    # best representative per distinct sequence across all endpoints
    best: Dict[int, Tuple[Tuple[int, int, int], int]] = {}
    for v in nodes:
        base = v * _NSEQ
        for seq, (first, length, _parent) in states[v].items():
            key = (ts[v] - first, first, length)
            incumbent = best.get(seq)
            # on equal keys the ends differ (same end would be the same
            # state), so the back-to-front comparison resolves on the first step
            if incumbent is None or key < incumbent[0] or (key == incumbent[0] and back_less(base + seq, incumbent[1])):
                best[seq] = (key, base + seq)

    chains: List[Tuple[Tuple, Chain]] = []
    for _key, state in best.values():
        indexes: List[int] = []
        while state >= 0:
            v, seq = divmod(state, _NSEQ)
            indexes.append(v)
            state = states[v][seq][2]
        indexes.reverse()
        chain = build_chain(graph, indexes, gap_threshold_ms)
        chains.append((chain_order_key(chain, tuple(reversed(indexes))), chain))
    chains.sort(key=lambda item: item[0])
    ordered = [c for _, c in chains]
    return ordered[:top_k] if top_k is not None else ordered


def chain_ambiguity(chains: Sequence[Chain], k: int = DEFAULT_TOP_K) -> Dict[str, Any]:
    """The ambiguity.json document: top-2 score margin and normalized top-K entropy.

    top2_margin is None with fewer than two chains.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m = min(k, len(chains))
    top = [float(c.score) for c in chains[:m]]
    margin = float(chains[0].score - chains[1].score) if len(chains) >= 2 else None
    total = sum(top)
    entropy = 0.0
    if m >= 2 and total > 0:
        entropy = -sum(w * math.log(w) for w in (s / total for s in top) if w > 0) / math.log(m)
    return {"top2_margin": margin, "entropy_topk": entropy, "k": m}


def chain_to_dict(chain: Chain) -> Dict:
    return {
        "steps": [s.value for s in chain.steps],
        "supporting_events": [list(ids) for ids in chain.supporting_events],
        "score": chain.score,
        "continuity_flags": [{"transition": t, "gap_ms": g} for t, g in chain.continuity_flags],
        "first_ts": chain.first_ts,
        "span_ms": chain.span_ms,
    }


def graph_to_dict(graph: EventGraph) -> Dict:
    """The graph.json document: nodes, and edges with their endpoints as event ids."""
    nodes = graph.nodes
    return {
        "window_ms": graph.window_ms,
        "nodes": [{"event_id": n.event_id, "ts": n.ts, "step": step.value} for n, step in zip(nodes, graph.steps)],
        "edges": [
            {"src": nodes[e.src].event_id, "dst": nodes[e.dst].event_id, "join_reason": e.join_reason, "gap_ms": e.gap_ms}
            for e in graph.edges
        ],
    }
