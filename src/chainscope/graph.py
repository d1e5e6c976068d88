"""Temporal event graph construction and candidate chain extraction.

Tagged events become nodes; an edge connects two events when the later
one falls inside a bounded window of the earlier one and they share a
join key (host, user, process lineage, or consistent network endpoints).
Edges always point forward under the (ts, event_id) order, so the graph
is a DAG and nodes in that order are already topologically sorted.

Chains are path projections: walk any forward path, record each step tag
at its first occurrence, and you get an ordered step sequence. Distinct
paths often project to the same sequence, so sequences are deduplicated
keeping the best representative path -- smallest temporal span, then
earliest start, then shortest path, then smallest when read back-to-front
in (ts, event_id) node order. These rules are shared verbatim by the
brute-force enumeration oracle in the synth module; extract_chains
reaches the same result with a dynamic program over (node,
projected-sequence) states, which stays polynomial because there are at
most 325 distinct sequences over the five-step alphabet. The
back-to-front tie-break matters for throughput: two candidate paths for
one state almost always arrive through different predecessors, so the
comparison resolves in one step instead of materializing whole paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    Event ids must be unique and every decision must name a distinct
    event of the table; otherwise EventIdError names the first offender.
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
    edges: List[Edge] = []
    n = len(nodes)
    for i in range(n):
        a = nodes[i]
        for j in range(i + 1, n):
            b = nodes[j]
            gap = b.ts - a.ts
            if gap > window_ms:
                break
            reason = join_reason(a, b)
            if reason is not None:
                edges.append(Edge(src=a.event_id, dst=b.event_id, join_reason=reason, gap_ms=gap))
    return EventGraph(nodes=tuple(nodes), edges=tuple(edges), window_ms=window_ms)


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

    # states[v][seq] = (first_ts, length, parent) with parent = (u, seq_u) | None
    StateKey = Tuple[int, Tuple[StepTag, ...]]
    states: List[Dict[Tuple[StepTag, ...], Tuple[int, int, Optional[StateKey]]]] = [{} for _ in range(n)]

    def parent_of(key: StateKey) -> Optional[StateKey]:
        return states[key[0]][key[1]][2]

    def back_less(a: Optional[StateKey], b: Optional[StateKey]) -> bool:
        """Compare two stored paths back-to-front by node index.

        Both chains have equal length whenever this is reached, so the
        walk terminates on both sides together.
        """
        while a is not None and b is not None:
            if a[0] != b[0]:
                return a[0] < b[0]
            a, b = parent_of(a), parent_of(b)
        return False

    def merge(v: int, seq: Tuple[StepTag, ...], entry: Tuple[int, int, Optional[StateKey]]) -> None:
        incumbent = states[v].get(seq)
        if incumbent is None:
            states[v][seq] = entry
            return
        # larger first_ts -> smaller span at every extension; then shorter
        # path; back-to-front order only on a full tie (parents are final
        # under topo order, and usually differ at the first comparison)
        if entry[0] != incumbent[0]:
            if entry[0] > incumbent[0]:
                states[v][seq] = entry
            return
        if entry[1] != incumbent[1]:
            if entry[1] < incumbent[1]:
                states[v][seq] = entry
            return
        if back_less(entry[2], incumbent[2]):
            states[v][seq] = entry

    for v in range(n):
        step_v = nodes[v].step
        merge(v, (step_v,), (nodes[v].ts, 1, None))
        for u in preds[v]:
            for seq_u, entry_u in list(states[u].items()):
                new_seq = seq_u if step_v in seq_u else seq_u + (step_v,)
                merge(v, new_seq, (entry_u[0], entry_u[1] + 1, (u, seq_u)))

    def path_indexes(key: StateKey) -> List[int]:
        out: List[int] = []
        cursor: Optional[StateKey] = key
        while cursor is not None:
            out.append(cursor[0])
            cursor = parent_of(cursor)
        out.reverse()
        return out

    # best representative per distinct sequence across all endpoints
    best: Dict[Tuple[StepTag, ...], Tuple[Tuple[int, int, int], StateKey]] = {}
    for v in range(n):
        for seq, (first_ts, length, _parent) in states[v].items():
            span = nodes[v].ts - first_ts
            key = (span, first_ts, length)
            incumbent = best.get(seq)
            if incumbent is None or key < incumbent[0]:
                best[seq] = (key, (v, seq))
            elif key == incumbent[0]:
                # ends differ (same end would be the same state), so the
                # back-to-front comparison resolves on the first step
                if back_less((v, seq), incumbent[1]):
                    best[seq] = (key, (v, seq))

    chains: List[Tuple[Tuple, Chain]] = []
    for seq, (_key, state_key) in best.items():
        indexes = path_indexes(state_key)
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
