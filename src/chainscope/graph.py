"""Temporal event graph construction and candidate chain extraction.

Tagged events become nodes; an edge connects two events when the later
one falls inside a bounded window of the earlier one and they share a
join key (host, user, process lineage, or consistent network endpoints).
Edges always point forward under the (ts, event_id) order, so the graph
is a DAG and nodes in that order are already topologically sorted.

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
brute-force enumeration oracle in the synth module; extract_chains
reaches the same result with a dynamic program over (node,
projected-sequence) states, which stays polynomial because there are at
most 325 distinct sequences over the five-step alphabet. Sequences are
coded as ints, and a table built once maps (sequence, step) to the
extended sequence, so a DP state is the int node * 326 + sequence and a
path is a chain of such parent ints. The back-to-front tie-break matters
for throughput: two candidate paths for one state almost always arrive
through different predecessors, so the comparison resolves without
walking whole paths.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from typing import DefaultDict, Dict, List, Optional, Sequence, Set, Tuple

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

TOP2_MARGIN_SENTINEL = math.inf


@dataclass(frozen=True, slots=True)
class GraphNode:
    event_id: str
    ts: int
    step: StepTag
    host: Optional[str]
    user: Optional[str]
    pid: Optional[int]
    ppid: Optional[int]
    src_ip: Optional[str]
    src_port: Optional[int]
    dst_ip: Optional[str]
    dst_port: Optional[int]
    proto: Optional[str]


@dataclass(frozen=True, slots=True)
class Edge:
    src: str
    dst: str
    join_reason: str
    gap_ms: int


@dataclass(frozen=True)
class EventGraph:
    nodes: Tuple[GraphNode, ...]  # sorted by (ts, event_id)
    edges: Tuple[Edge, ...]
    window_ms: int

    @property
    def node_ids(self) -> Tuple[str, ...]:
        return tuple(n.event_id for n in self.nodes)


@dataclass(frozen=True)
class Chain:
    """An ordered step sequence with its supporting evidence path."""

    steps: Tuple[StepTag, ...]
    supporting_events: Tuple[Tuple[str, ...], ...]  # aligned with steps
    score: int
    continuity_flags: Tuple[Tuple[int, int], ...]  # (transition index, gap_ms)
    first_ts: int
    span_ms: int


@dataclass(frozen=True)
class ChainAmbiguity:
    top2_margin: float
    entropy_topk: float
    k: int


def join_reason(a: GraphNode, b: GraphNode) -> Optional[str]:
    """First matching join criterion between two nodes, in fixed priority order."""
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


def _node_from_event(event: NormalizedEvent, step: StepTag) -> GraphNode:
    return GraphNode(
        event_id=event.event_id,
        ts=event.ts,
        step=step,
        host=event.host,
        user=event.user,
        pid=event.process.pid,
        ppid=event.process.ppid,
        src_ip=event.network.src_ip,
        src_port=event.network.src_port,
        dst_ip=event.network.dst_ip,
        dst_port=event.network.dst_port,
        proto=event.network.proto,
    )


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
    and every decision must name a distinct event of the table; otherwise
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
    nodes = sorted(
        (_node_from_event(e, chosen[e.event_id]) for e in events if e.event_id in chosen),
        key=lambda n: (n.ts, n.event_id),
    )
    ids = [node.event_id for node in nodes]
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
        src, ts_a = ids[i], ts[i]
        edges.extend(Edge(src, ids[j], reason, ts[j] - ts_a) for j, reason in joined)
    return EventGraph(nodes=tuple(nodes), edges=tuple(edges), window_ms=window_ms)


def induced_subgraph(graph: EventGraph, event_ids: Set[str]) -> EventGraph:
    """The graph restricted to the nodes whose event id is in event_ids.

    Equals build_event_graph on the events and decisions of that subset:
    an edge depends only on its two events, and positions in the subset
    keep their order, so nodes and edges keep theirs.
    """
    return EventGraph(
        nodes=tuple(n for n in graph.nodes if n.event_id in event_ids),
        edges=tuple(e for e in graph.edges if e.src in event_ids and e.dst in event_ids),
        window_ms=graph.window_ms,
    )


# A bucket holds the ascending positions, and their timestamps, of the
# nodes filed under one join key.
JoinKey = Tuple[str, object]
Bucket = Tuple[List[int], List[int]]


def _join_keys(node: GraphNode) -> Tuple[List[JoinKey], List[JoinKey]]:
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
    nodes: Sequence[GraphNode], ts: Sequence[int]
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


def build_chain(path_nodes: Sequence[GraphNode], gap_threshold_ms: int) -> Chain:
    """Project one concrete path onto its first-occurrence step chain."""
    steps: List[StepTag] = []
    supporting: Dict[StepTag, List[str]] = {}
    first_pos: Dict[StepTag, int] = {}
    for pos, node in enumerate(path_nodes):
        if node.step not in supporting:
            steps.append(node.step)
            supporting[node.step] = []
            first_pos[node.step] = pos
        supporting[node.step].append(node.event_id)
    flags: List[Tuple[int, int]] = []
    for k in range(1, len(steps)):
        pos = first_pos[steps[k]]
        gap = path_nodes[pos].ts - path_nodes[pos - 1].ts
        if gap > gap_threshold_ms:
            flags.append((k - 1, gap))
    return Chain(
        steps=tuple(steps),
        supporting_events=tuple(tuple(supporting[s]) for s in steps),
        score=len(steps),
        continuity_flags=tuple(flags),
        first_ts=path_nodes[0].ts,
        span_ms=path_nodes[-1].ts - path_nodes[0].ts,
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
) -> List[Chain]:
    """Extract candidate chains as deduplicated ordered step sequences.

    Equivalent to enumerating every forward path, projecting it onto its
    first-occurrence step sequence, and keeping the best representative
    per distinct sequence -- but runs as a DP over (node, sequence)
    states. An empty graph yields an empty list.
    """
    if top_k is not None and top_k < 1:
        raise ValueError("top_k must be >= 1")
    nodes = graph.nodes
    n = len(nodes)
    if n == 0:
        return []
    index = {node.event_id: i for i, node in enumerate(nodes)}
    preds: List[List[int]] = [[] for _ in range(n)]
    for edge in graph.edges:
        preds[index[edge.dst]].append(index[edge.src])
    for plist in preds:
        plist.sort()
    ts = [node.ts for node in nodes]

    # states[v][seq] = (first_ts, length, parent); a state is the int
    # v * _NSEQ + seq, and parent is the predecessor's state or -1
    states: List[Dict[int, Tuple[int, int, int]]] = []

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

    for v in range(n):
        extend = _EXTEND[_STEP_CODES[nodes[v].step]]
        here = {extend[0]: (ts[v], 1, -1)}
        states.append(here)
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
    for v in range(n):
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
        chain = build_chain([nodes[i] for i in indexes], gap_threshold_ms)
        chains.append((chain_order_key(chain, tuple(reversed(indexes))), chain))
    chains.sort(key=lambda item: item[0])
    ordered = [c for _, c in chains]
    return ordered[:top_k] if top_k is not None else ordered


def chain_ambiguity(chains: Sequence[Chain], k: int = DEFAULT_TOP_K) -> ChainAmbiguity:
    """Chain-level ambiguity: top-2 score margin and normalized top-K entropy."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(chains) < 2:
        return ChainAmbiguity(top2_margin=TOP2_MARGIN_SENTINEL, entropy_topk=0.0, k=min(k, len(chains)))
    scores = [float(c.score) for c in chains]
    margin = scores[0] - scores[1]
    m = min(k, len(scores))
    top = scores[:m]
    total = sum(top)
    if m < 2 or total <= 0:
        return ChainAmbiguity(top2_margin=margin, entropy_topk=0.0, k=m)
    weights = [s / total for s in top]
    entropy = -sum(w * math.log(w) for w in weights if w > 0) / math.log(m)
    return ChainAmbiguity(top2_margin=margin, entropy_topk=entropy, k=m)


def ambiguity_to_dict(ambiguity: ChainAmbiguity) -> Dict:
    return {
        "top2_margin": None if ambiguity.top2_margin == TOP2_MARGIN_SENTINEL else ambiguity.top2_margin,
        "entropy_topk": ambiguity.entropy_topk,
        "k": ambiguity.k,
    }


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
    return {
        "window_ms": graph.window_ms,
        "nodes": [{"event_id": n.event_id, "ts": n.ts, "step": n.step.value} for n in graph.nodes],
        "edges": [
            {"src": e.src, "dst": e.dst, "join_reason": e.join_reason, "gap_ms": e.gap_ms} for e in graph.edges
        ],
    }
