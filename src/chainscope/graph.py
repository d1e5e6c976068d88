"""Temporal event graph construction and candidate chain extraction.

Tagged events become nodes (the events themselves, with their chosen
steps in a parallel tuple); an edge connects two events when the later
one falls inside a bounded window of the earlier one and they share a
join key (host, user, process lineage, or consistent network endpoints).
Edges always point forward under the (ts, event_id) order, so the graph
is a DAG and nodes in that order are already topologically sorted.
build_event_graph is the one place that pairs decisions with events: an
edge names its endpoints by node position, and later stages index by it.

The graph holds no Python object per edge. Its edges are four parallel
arrays -- source and target positions, a code into JOIN_REASONS and the
gap -- and each node's predecessors are kept in compressed sparse row
form: an offset per node into one array of source positions, built once
per graph, so every extract_chains call (one per sweep budget) reads
them without scanning the edges. EventGraph.edges builds a tuple of
Edge from the columns on every read, and write_graph_json writes
graph.json from the columns, encoding each event id once and holding one
slice of records at a time.

build_event_graph does not test every pair inside the window. It files
each node in keyed buckets -- host, user, pid, ppid and destination
endpoint -- and takes a node's candidate partners from the buckets a
later partner must be filed in, cut to the window by bisection. For an
unordered endpoint pair that is the bucket of either of the node's
endpoints, since a partner's destination is one of them, and no bucket
is keyed by a whole flow. A same-host candidate is always a shared_host
edge; any other candidate goes through join_reason, whose fixed priority
decides the reason. Every accepted pair meets in one of these buckets,
so the edge set and its (source, target) position order equal those of a
full scan of the window. The nodes are joined from the last one back,
each filed after its own join, so a bucket holds only later nodes: their
positions, descending, and their negated timestamps, ascending, in two
arrays. Nothing is held per node but its entries in the buckets, and the
predecessor rows are counted and filled from the finished edge columns.

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
coded as ints, and a table built on first use maps (sequence, step) to
the extended sequence, so a DP state is named by the code node * 326 +
sequence and a path is a chain of such parent codes. The states are kept
node by node, as a tuple of sequences and a tuple of ranks per node and
the parent codes in one array, so the DP holds no Python object per
state; only the node being computed keeps its candidates in dicts. A
rank folds a path's first_ts and length into one int, first_ts * (nodes
+ 1) - length, which orders paths by the first two tie rules at once,
and ranks are shared per distinct value. A code is resolved to its
position by scanning its node's few sequences, which only path walks
need. The back-to-front tie-break matters for throughput: two candidate
paths for one state almost always arrive through different predecessors,
so the comparison resolves without walking whole paths. In place of a
subgraph, extract_chains takes the node positions to use: an edge
depends only on its two events and positions keep their order, so that
equals the graph built on their events.

With a top_k, the DP drops every state that cannot change the returned
chains. A reverse pass gives each node the mask of the steps on it and
on every kept node reachable from it. A state's completions -- its
sequence followed by any order of any subset of those steps it lacks --
hold every sequence a path through it can end with, at a span no smaller
than the state's. The DP keeps per sequence the smallest span stored so
far; once top_k sequences are stored, the bound K is the top_k-th
smallest (-score, span) pair among them. A state is kept only if some
completion has (-score, span) <= K and is not stored yet or is stored
with a span >= the state's. Along a path the completions only shrink and
the span only grows, while K and the stored spans only fall, so every
state on a returned chain's best path is kept, with its best candidate,
and the chains equal the first top_k of the unpruned DP. Both tests are
non-strict, so ties still reach the back-to-front rule. On the
benchmark's dense 13k fixture (seed 13: 5,021 nodes, 26,987 edges) the
DP keeps 1,356 of the 113,352 states, and the unpruned DP (top_k None,
which the oracle tests use) keeps them all.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, islice, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from .errors import EventIdError
from .model import SLICE_RECORDS, NormalizedEvent
from .tagging import StepTag, TagDecision

DEFAULT_WINDOW_MS = 10 * 60 * 1000
DEFAULT_GAP_MS = 10 * 60 * 1000
DEFAULT_TOP_K = 5

JOIN_SHARED_HOST = "shared_host"
JOIN_SHARED_USER = "shared_user"
JOIN_SHARED_PROCESS = "shared_process"
JOIN_NETWORK = "network_consistent"
JOIN_REASONS = (JOIN_SHARED_HOST, JOIN_SHARED_USER, JOIN_SHARED_PROCESS, JOIN_NETWORK)
_REASON_CODES = {reason: code for code, reason in enumerate(JOIN_REASONS)}


@dataclass(frozen=True, slots=True)
class Edge:
    src: int  # node positions in the EventGraph
    dst: int
    join_reason: str
    gap_ms: int


def _edge(src: int, dst: int, reason: int, gap_ms: int) -> Edge:
    return Edge(src, dst, JOIN_REASONS[reason], gap_ms)


@dataclass(frozen=True)
class EventGraph:
    """The tagged events, in (ts, event_id) order, and the edges between them.

    steps[i] is the step chosen for nodes[i]. Edge k runs from node
    edge_src[k] to node edge_dst[k], joined by JOIN_REASONS[edge_reason[k]]
    and edge_gap[k] ms apart; edges are in (src, dst) order. The
    predecessors of node v, ascending, are
    pred_sources[pred_offsets[v]:pred_offsets[v + 1]].
    """

    nodes: Tuple[NormalizedEvent, ...]
    steps: Tuple[StepTag, ...]
    window_ms: int
    edge_src: "array[int]"
    edge_dst: "array[int]"
    edge_reason: "array[int]"
    edge_gap: "array[int]"
    pred_offsets: "array[int]"
    pred_sources: "array[int]"

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """The edges as Edge objects, built from the columns on every read."""
        return tuple(map(_edge, self.edge_src, self.edge_dst, self.edge_reason, self.edge_gap))


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
    # event id -> the step its decision chose (None: none), or undecided until a decision names it
    undecided = object()
    steps: Dict[str, Any] = {}
    for event in events:
        if event.event_id in steps:
            raise EventIdError(f"duplicate event id {event.event_id!r}")
        steps[event.event_id] = undecided
    for decision in decisions:
        if decision.event_id not in steps:
            raise EventIdError(f"decision for unknown event id {decision.event_id!r}")
        if steps[decision.event_id] is not undecided:
            raise EventIdError(f"repeated decision for event id {decision.event_id!r}")
        steps[decision.event_id] = decision.chosen
    if len(decisions) < len(steps):
        missing = next(e.event_id for e in events if steps[e.event_id] is undecided)
        raise EventIdError(f"no decision for event id {missing!r}")
    nodes = sorted((e for e in events if steps[e.event_id] is not None), key=lambda e: (e.ts, e.event_id))
    ts = [node.ts for node in nodes]
    src, dst, reasons, gaps = array("i"), array("i"), array("B"), array("q")
    # joined from the last node back, so a bucket holds only later nodes;
    # edges go in by descending (src, dst), and the columns are reversed after
    buckets: Dict[JoinKey, Bucket] = {}
    no_bucket: Bucket = (array("i"), array("q"))  # ("host", None) is never filed
    for i in range(len(nodes) - 1, -1, -1):
        a = nodes[i]
        filed, wanted = _join_keys(a)
        ts_a = ts[i]
        limit = -(ts_a + window_ms)
        same_host = _within(buckets.get(("host", a.host), no_bucket), limit)
        others: Set[int] = set()
        for key in wanted:
            bucket = buckets.get(key)
            if bucket is not None:
                others.update(_within(bucket, limit))
        others.difference_update(same_host)
        targets, codes = same_host, bytes(len(same_host))  # code 0 is JOIN_SHARED_HOST
        if others:
            joined = [(j, 0) for j in same_host]
            joined.extend((j, _REASON_CODES[r]) for j in others if (r := join_reason(a, nodes[j])) is not None)
            joined.sort(reverse=True)
            targets, codes = [j for j, _code in joined], bytes(code for _j, code in joined)
        src.extend(repeat(i, len(targets)))
        dst.extend(targets)
        reasons.frombytes(codes)
        gaps.extend([ts[j] - ts_a for j in targets])
        for key in filed:
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = (array("i"), array("q"))
            bucket[0].append(i)
            bucket[1].append(-ts_a)
    del buckets  # before the predecessor columns are allocated
    for column in (src, dst, reasons, gaps):
        column.reverse()
    pred_offsets, pred_sources = _predecessors(len(nodes), src, dst)
    return EventGraph(
        nodes=tuple(nodes),
        steps=tuple(steps[node.event_id] for node in nodes),
        window_ms=window_ms,
        edge_src=src,
        edge_dst=dst,
        edge_reason=reasons,
        edge_gap=gaps,
        pred_offsets=pred_offsets,
        pred_sources=pred_sources,
    )


# A bucket holds the positions, descending, and the negated timestamps,
# ascending, of the nodes filed under one join key.
JoinKey = Tuple[str, object]
Bucket = Tuple["array[int]", "array[int]"]


def _join_keys(node: NormalizedEvent) -> Tuple[List[JoinKey], List[JoinKey]]:
    """Keys the node is filed under, and keys a later partner is filed under.

    Every pair join_reason accepts shares a host, a user, a pid/ppid link
    or a destination endpoint, or one's destination is the other's source
    (an unordered endpoint pair: a partner's destination is one of the
    node's two endpoints), so the buckets of the second list plus the
    node's host bucket hold all its edges.
    """
    filed: List[JoinKey] = []
    if node.user is not None:
        filed.append(("user", node.user))
    wanted = list(filed)
    if node.dst_ip is not None:
        # a later b joins when b.dst == a.dst with a port, or when both have
        # two ips and {b.src, b.dst} == {a.src, a.dst}: then b.dst is a.dst or a.src
        if node.dst_port is not None or node.src_ip is not None:
            filed.append(("dst", (node.dst_ip, node.dst_port)))
            wanted.append(("dst", (node.dst_ip, node.dst_port)))
        if node.src_ip is not None:
            wanted.append(("dst", (node.src_ip, node.src_port)))
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


def _within(bucket: Bucket, limit: int) -> "array[int]":
    """The positions in the bucket whose negated ts is at least limit, descending."""
    positions, stamps = bucket
    return positions[bisect_left(stamps, limit) :]


def _predecessors(n: int, src: "array[int]", dst: "array[int]") -> Tuple["array[int]", "array[int]"]:
    """The CSR offsets and sources of each node's predecessors, ascending:
    a counting sort of the (src, dst)-ordered edges on dst."""
    indegree = array("q", bytes(8 * n))
    for j in dst:
        indegree[j] += 1
    offsets = array("q", accumulate(indegree, initial=0))
    cursor = array("q", offsets)  # the next free slot of each node
    sources = array("i", bytes(4 * len(src)))
    for i, j in zip(src, dst):
        sources[cursor[j]] = i
        cursor[j] += 1
    return offsets, sources


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


# Step sequences are coded as ints, 0 being the empty one. A step's code
# is its position in StepTag and its bit in a step mask is 1 << code.
_STEP_CODES = {step: code for code, step in enumerate(StepTag)}
# 326: the empty sequence and the 325 orders of the non-empty step subsets
_NSEQ = sum(math.perm(len(StepTag), k) for k in range(len(StepTag) + 1))


@lru_cache(maxsize=None)
def _sequence_tables() -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]:
    """(extend, masks): extend[c][k] is the code of sequence k after a node
    with step code c, which is k itself when the step already occurs in it;
    masks[k] is the step mask of sequence k."""
    sequences: List[Tuple[StepTag, ...]] = [()]
    for seq in sequences:  # grows while iterating: breadth-first by length
        sequences.extend(seq + (step,) for step in StepTag if step not in seq)
    codes = {seq: k for k, seq in enumerate(sequences)}
    extend = tuple(
        tuple(k if step in seq else codes[seq + (step,)] for k, seq in enumerate(sequences)) for step in StepTag
    )
    return extend, tuple(sum(1 << _STEP_CODES[step] for step in seq) for seq in sequences)


@lru_cache(maxsize=None)
def _completions(seq: int, rest: int) -> Tuple[int, ...]:
    """The codes of seq followed by any order of any subset of the steps in
    mask rest (none of which occurs in seq), longest first."""
    extend, masks = _sequence_tables()
    found = [seq]
    for code in found:  # grows while iterating: breadth-first by length
        found.extend(extend[c][code] for c in range(len(StepTag)) if rest >> c & 1 and not masks[code] >> c & 1)
    found.reverse()
    return tuple(found)


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
    ts = [node.ts for node in graph.nodes]
    pred_offsets, pred_sources = graph.pred_offsets, graph.pred_sources
    extend_by, masks = _sequence_tables()
    steps = [_STEP_CODES[step] for step in graph.steps]
    # A path of first_ts f and length l ranks f * scale - l: a larger rank
    # is a later start, then a shorter path.
    scale = n + 1

    if top_k is not None:
        # reach[v]: the steps of v and of every kept node reachable from it
        reach = [0] * n
        for v in reversed(nodes):
            r = reach[v] = reach[v] | 1 << steps[v]
            for u in pred_sources[pred_offsets[v] : pred_offsets[v + 1]]:
                reach[u] |= r
        # per sequence the smallest span of a stored state (none: inf), and
        # the sorted (-score, span) pairs of the stored sequences
        best_span: List[float] = [math.inf] * _NSEQ
        pairs: List[Tuple[int, int]] = []
        bound: Optional[Tuple[int, int]] = None  # the top_k-th pair, once there are top_k

    # The (node, sequence) states, node by node: seqs_of[v] holds the
    # sequences of v's states and ranks_of[v] the ranks of their best
    # paths, in one order; their parent states follow from parents[off[v]]
    # on, as codes node * _NSEQ + sequence (-1: none). A node outside
    # nodes has no states.
    seqs_of: List[Tuple[int, ...]] = [()] * n
    ranks_of: List[Tuple[int, ...]] = [()] * n
    parents = array("q")
    off = [0] * n
    lowered: Dict[int, int] = {}  # rank -> rank - 1, one int object per distinct rank

    def parent_of(code: int) -> int:
        v, seq = divmod(code, _NSEQ)
        return parents[off[v] + seqs_of[v].index(seq)]

    def back_less(a: int, b: int) -> bool:
        """Compare two stored paths, as state codes, back-to-front by node index.

        Both chains have equal length whenever this is reached, so the
        walk terminates on both sides together.
        """
        while a >= 0 and b >= 0:
            node_a, node_b = a // _NSEQ, b // _NSEQ
            if node_a != node_b:
                return node_a < node_b
            a, b = parent_of(a), parent_of(b)
        return False

    for v in nodes:
        extend = extend_by[steps[v]]
        # the candidates for v's states, by sequence: the rank of the path
        # up to the predecessor (the path to v ranks one less), and the
        # predecessor's state
        rank_of = {extend[0]: ts[v] * scale}
        via = {extend[0]: -1}
        for u in pred_sources[pred_offsets[v] : pred_offsets[v + 1]]:
            base = u * _NSEQ
            for seq_u, rank in zip(seqs_of[u], ranks_of[u]):
                seq = extend[seq_u]
                # larger first_ts -> smaller span at every extension; then
                # shorter path; back-to-front order only on a full tie.
                # Predecessors come in ascending order, so an incumbent
                # whose parent is an earlier node (code below base) wins
                # the tie without a walk.
                incumbent = rank_of.get(seq)
                if (
                    incumbent is None
                    or rank > incumbent
                    or (rank == incumbent and via[seq] >= base and back_less(base + seq_u, via[seq]))
                ):
                    rank_of[seq] = rank
                    via[seq] = base + seq_u
        if top_k is not None:
            # keep a state only if some completion by the steps reachable
            # from v scores at least need and is not stored with a smaller
            # span (see the module docstring). The test reads a candidate's
            # span only, which is smallest for the best candidate, so a
            # kept state keeps its unpruned best candidate.
            reach_v = reach[v]
            spans = []  # (sequence, span) of v's kept states
            for seq, rank in list(rank_of.items()):
                span = ts[v] + (-rank // scale)  # ts[v] - first_ts
                need = 0
                if bound is not None:
                    need = -bound[0] if span <= bound[1] else 1 - bound[0]
                reaches = False
                for code in _completions(seq, reach_v & ~masks[seq]):
                    if masks[code].bit_count() < need:
                        break
                    if best_span[code] >= span:
                        reaches = True
                        break
                if reaches:
                    spans.append((seq, span))
                else:
                    del rank_of[seq], via[seq]
            for seq, span in spans:
                old = best_span[seq]
                if span < old:
                    score = -masks[seq].bit_count()
                    if old != math.inf:
                        del pairs[bisect_left(pairs, (score, old))]
                    insort(pairs, (score, span))
                    best_span[seq] = span
            if len(pairs) >= top_k:
                bound = pairs[top_k - 1]
        seqs_of[v] = tuple(rank_of)
        # a stored 0 is falsy, but setdefault then returns that same 0
        ranks_of[v] = tuple([lowered.get(rank) or lowered.setdefault(rank, rank - 1) for rank in rank_of.values()])
        off[v] = len(parents)
        parents.extend(via.values())

    # best representative per distinct sequence across all endpoints
    best: Dict[int, Tuple[Tuple[int, int, int], int]] = {}
    for v in nodes:
        base = v * _NSEQ
        for seq, rank in zip(seqs_of[v], ranks_of[v]):
            before, rest = divmod(rank, scale)
            key = (ts[v] - before - 1, before + 1, scale - rest)  # span, first_ts, length
            incumbent = best.get(seq)
            # on equal keys the ends differ (same end would be the same
            # state), so the back-to-front comparison resolves on the first step
            if incumbent is None or key < incumbent[0] or (key == incumbent[0] and back_less(base + seq, incumbent[1])):
                best[seq] = (key, base + seq)

    chains: List[Tuple[Tuple, Chain]] = []
    for _key, code in best.values():
        indexes: List[int] = []
        while code >= 0:
            indexes.append(code // _NSEQ)
            code = parent_of(code)
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
    # math.fsum: correctly rounded, so the same bits in any order and on any Python
    total = math.fsum(top)
    entropy = 0.0
    if m >= 2 and total > 0:
        entropy = -math.fsum(w * math.log(w) for w in (s / total for s in top) if w > 0) / math.log(m)
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


def write_graph_json(path: Path, graph: EventGraph) -> None:
    """Write graph.json: the nodes, and the edges with their endpoints as event ids.

    The bytes are json.dumps(doc, indent=2, sort_keys=True) and a newline
    for doc = {"edges": [{"dst", "gap_ms", "join_reason", "src"}, ...],
    "nodes": [{"event_id", "step", "ts"}, ...], "window_ms"}. Each event id
    is encoded once, and records are rendered SLICE_RECORDS at a time, so
    the largest string held is one slice.
    """
    ids = [encode_basestring_ascii(node.event_id) for node in graph.nodes]
    reasons = [encode_basestring_ascii(reason) for reason in JOIN_REASONS]
    steps = {step: encode_basestring_ascii(step.value) for step in StepTag}
    edges = (
        f'    {{\n      "dst": {ids[d]},\n      "gap_ms": {g},\n'
        f'      "join_reason": {reasons[r]},\n      "src": {ids[s]}\n    }}'
        for s, d, r, g in zip(graph.edge_src, graph.edge_dst, graph.edge_reason, graph.edge_gap)
    )
    nodes = (
        f'    {{\n      "event_id": {node_id},\n      "step": {steps[step]},\n      "ts": {node.ts}\n    }}'
        for node_id, node, step in zip(ids, graph.nodes, graph.steps)
    )
    with open(path, "w", encoding="utf-8") as out:
        out.write("{\n")
        for key, records in (("edges", edges), ("nodes", nodes)):
            out.write(f'  "{key}": [')
            separator = "\n"
            while chunk := list(islice(records, SLICE_RECORDS)):
                out.write(separator + ",\n".join(chunk))
                separator = ",\n"
            out.write("],\n" if separator == "\n" else "\n  ],\n")
        out.write(f'  "window_ms": {graph.window_ms}\n}}\n')
