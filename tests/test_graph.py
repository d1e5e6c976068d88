import gc
import json
import random
import tempfile
import tracemalloc
from array import array
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainscope import graph as graph_module
from chainscope.errors import EventIdError
from chainscope.graph import (
    DEFAULT_WINDOW_MS,
    Chain,
    build_event_graph,
    chain_ambiguity,
    extract_chains,
    join_reason,
    write_graph_json,
)
from chainscope.ingest import ingest_scenario
from chainscope.tagging import StepTag, TagDecision, load_rules, tag_run
from conftest import make_event, make_random_tagged_table, oracle_chains
from golden_corpus import DENSE_RULES_TEXT

MIN = 60 * 1000


def tag(event, step):
    return TagDecision(event_id=event.event_id, candidates=(), chosen=step, diagnostics=())


def tagged_pair(ts_gap_ms, host_a="h1", host_b="h1", **net_b):
    a = make_event(event_id="a", ts=1_000_000, host=host_a)
    b = make_event(event_id="b", ts=1_000_000 + ts_gap_ms, host=host_b, **net_b)
    decisions = [tag(a, StepTag.INSTALL), tag(b, StepTag.DOWNLOAD)]
    return [a, b], decisions


def scan_edges(nodes, window_ms):
    """Reference edge set: join_reason on every node pair inside the window."""
    edges = []
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            gap = b.ts - a.ts
            if gap > window_ms:
                break
            reason = join_reason(a, b)
            if reason is not None:
                edges.append((a.event_id, b.event_id, reason, gap))
    return edges


def edge_tuples(graph):
    """The graph's edges with their endpoint positions mapped to event ids."""
    ids = [n.event_id for n in graph.nodes]
    return [(ids[e.src], ids[e.dst], e.join_reason, e.gap_ms) for e in graph.edges]


# small value pools, so that hosts, users, pids/ppids and endpoints collide,
# including endpoint pairs seen from the other side
ENDPOINTS = st.sampled_from([("10.0.0.1", 1), ("10.0.0.1", None), ("10.0.0.2", 1), ("10.0.0.2", 2)])


@st.composite
def keyed_events(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    events = []
    for i in range(n):
        net = {}
        if draw(st.booleans()):
            (src_ip, src_port), (dst_ip, dst_port) = draw(ENDPOINTS), draw(ENDPOINTS)
            net = dict(
                src_ip=draw(st.sampled_from([src_ip, None])),
                src_port=src_port,
                dst_ip=draw(st.sampled_from([dst_ip, dst_ip, None])),
                dst_port=dst_port,
                proto=draw(st.sampled_from([None, "tcp", "udp"])),
            )
        events.append(
            make_event(
                event_id=f"e{i:02d}",
                ts=draw(st.integers(min_value=0, max_value=12)) * MIN,
                host=draw(st.sampled_from([None, "h1", "h2"])),
                user=draw(st.sampled_from([None, None, "u1", "u2"])),
                pid=draw(st.sampled_from([None, 1, 2, 3])),
                ppid=draw(st.sampled_from([None, 1, 2, 3])),
                **net,
            )
        )
    return events


class TestRestrictedExtraction:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        keep_seed=st.integers(min_value=0, max_value=10**6),
        window_min=st.integers(min_value=1, max_value=40),
    )
    def test_equals_extraction_from_graph_built_on_the_subset(self, seed, keep_seed, window_min):
        events, decisions = make_random_tagged_table(seed)
        rng = random.Random(keep_seed)
        density = rng.random()
        keep = {e.event_id for e in events if rng.random() < density}
        whole = build_event_graph(events, decisions, window_ms=window_min * MIN)
        direct = build_event_graph(
            [e for e in events if e.event_id in keep],
            [d for d in decisions if d.event_id in keep],
            window_ms=window_min * MIN,
        )
        nodes = [i for i, node in enumerate(whole.nodes) if node.event_id in keep]
        assert [whole.nodes[i] for i in nodes] == list(direct.nodes)
        for top_k in (None, 2):
            assert extract_chains(whole, top_k=top_k, nodes=nodes) == extract_chains(direct, top_k=top_k)
        # the positions may come in any order
        assert extract_chains(whole, nodes=nodes[::-1]) == extract_chains(direct)


class TestKeyedEdgesEqualScan:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6), window_min=st.integers(min_value=1, max_value=40))
    def test_random_tagged_tables(self, seed, window_min):
        events, decisions = make_random_tagged_table(seed)
        graph = build_event_graph(events, decisions, window_ms=window_min * MIN)
        assert edge_tuples(graph) == scan_edges(graph.nodes, window_min * MIN)

    @settings(max_examples=150, deadline=None)
    @given(events=keyed_events(), window_min=st.integers(min_value=1, max_value=15))
    def test_colliding_keys(self, events, window_min):
        decisions = [tag(e, StepTag.INSTALL) for e in events]
        graph = build_event_graph(events, decisions, window_ms=window_min * MIN)
        assert edge_tuples(graph) == scan_edges(graph.nodes, window_min * MIN)

    @pytest.mark.parametrize(
        "a, b, reason",
        [
            (dict(pid=7), dict(pid=7), "shared_process"),
            (dict(pid=7), dict(pid=8, ppid=7), "shared_process"),
            (dict(pid=7, ppid=3), dict(pid=3), "shared_process"),
            (dict(pid=7), dict(ppid=7), None),  # a later child needs its own pid
            (dict(ppid=7), dict(pid=7), None),  # an earlier event needs its own pid
            (dict(pid=7, host="h1"), dict(pid=7, host="h2"), None),  # contradicting hosts
            (
                dict(src_ip="10.0.0.1", src_port=5, dst_ip="10.0.0.2", dst_port=6),
                dict(src_ip="10.0.0.2", src_port=6, dst_ip="10.0.0.1", dst_port=5, proto="tcp"),
                "network_consistent",
            ),
            (
                dict(src_ip="10.0.0.1", src_port=5, dst_ip="10.0.0.2", dst_port=6, proto="udp"),
                dict(src_ip="10.0.0.2", src_port=6, dst_ip="10.0.0.1", dst_port=5, proto="tcp"),
                None,
            ),
            (dict(dst_ip="10.0.0.2", dst_port=6), dict(dst_ip="10.0.0.2", dst_port=6), "network_consistent"),
            (dict(dst_ip="10.0.0.2"), dict(dst_ip="10.0.0.2"), None),  # no port, no endpoint
        ],
    )
    def test_lineage_and_endpoint_keys(self, a, b, reason):
        a = make_event(event_id="a", ts=0, **{"host": None, **a})
        b = make_event(event_id="b", ts=MIN, **{"host": None, **b})
        graph = build_event_graph([a, b], [tag(a, StepTag.INSTALL), tag(b, StepTag.EXFIL)], window_ms=DEFAULT_WINDOW_MS)
        assert edge_tuples(graph) == scan_edges(graph.nodes, DEFAULT_WINDOW_MS)
        assert [e.join_reason for e in graph.edges] == ([reason] if reason else [])


class TestTiedTimestamps:
    @settings(max_examples=150, deadline=None)
    @given(events=keyed_events(), steps=st.lists(st.sampled_from(list(StepTag)[:3]), min_size=25, max_size=25))
    def test_extraction_equals_oracle(self, events, steps):
        # a dozen events over 13 distinct minutes: equal first_ts, equal
        # lengths and the back-to-front tie-break all occur often
        events = events[:12]
        decisions = [tag(e, step) for e, step in zip(events, steps)]
        graph = build_event_graph(events, decisions, window_ms=5 * MIN)
        want = oracle_chains(events, decisions, window_ms=5 * MIN, gap_threshold_ms=MIN)
        assert extract_chains(graph, top_k=None, gap_threshold_ms=MIN) == want


SIX_HOURS = 6 * 3600 * 1000


class TestTopKPruning:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        keep_seed=st.integers(min_value=0, max_value=10**6),
        minutes=st.integers(min_value=1, max_value=13),
        alphabet=st.integers(min_value=1, max_value=5),
        window_min=st.integers(min_value=1, max_value=4),
    )
    def test_top_k_equals_the_unpruned_prefix_and_the_oracle(self, seed, keep_seed, minutes, alphabet, window_min):
        events, decisions = make_random_tagged_table(seed, max_events=30)
        # the six hours of the table squeezed onto a few minutes and steps:
        # equal timestamps, spans and (score, span) pairs occur often
        base = min((e.ts for e in events), default=0)
        events = [replace(e, ts=base + (e.ts - base) * minutes // SIX_HOURS * MIN) for e in events]
        steps = list(StepTag)
        decisions = [replace(d, chosen=steps[steps.index(d.chosen) % alphabet]) for d in decisions]
        rng = random.Random(keep_seed)
        density = rng.random()
        keep = {e.event_id for e in events if rng.random() < density}
        graph = build_event_graph(events, decisions, window_ms=window_min * MIN)
        nodes = [i for i, node in enumerate(graph.nodes) if node.event_id in keep]
        unpruned = extract_chains(graph, top_k=None, gap_threshold_ms=MIN, nodes=nodes)
        oracle = oracle_chains(
            [e for e in events if e.event_id in keep],
            [d for d in decisions if d.event_id in keep],
            window_ms=window_min * MIN,
            gap_threshold_ms=MIN,
        )
        assert unpruned == oracle
        for k in range(1, 7):
            assert extract_chains(graph, top_k=k, gap_threshold_ms=MIN, nodes=nodes) == oracle[:k], k

    def test_a_later_shorter_path_of_equal_span_is_kept(self):
        # DOWNLOAD, AUTH, INSTALL has two paths of span 2 and first_ts 0:
        # e00 e02 e04 e06, stored first, and e00 e02 e07, one node shorter,
        # which ends at the same minute and wins. At e07 its (score, span)
        # equals both the sequence's stored pair and the top-2 bound.
        install, download, auth = StepTag.INSTALL, StepTag.DOWNLOAD, StepTag.AUTH
        rows = [("e00", 0, "h1", None, download), ("e02", 1, "h1", None, auth), ("e04", 1, "h1", "u2", download)]
        rows += [("e06", 2, "h3", "u2", install), ("e07", 2, "h1", None, install)]
        events = [make_event(event_id=i, ts=t * MIN, host=host, user=user) for i, t, host, user, _ in rows]
        graph = build_event_graph(events, [tag(e, row[4]) for e, row in zip(events, rows)], window_ms=2 * MIN)
        top = extract_chains(graph, top_k=2, gap_threshold_ms=MIN)
        assert top == extract_chains(graph, top_k=None, gap_threshold_ms=MIN)[:2]
        assert top[1].supporting_events == (("e00",), ("e02",), ("e07",))


# event id characters that JSON escapes, and non-ASCII ones it writes as \u escapes
ID_TEXT = st.text(alphabet=st.sampled_from(['"', "\\", "\n", "/", "\x7f", "é", "✓", "𝄞", "a"]), max_size=3)


class TestGraphJson:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        size=st.integers(min_value=0, max_value=50),
        window_min=st.integers(min_value=1, max_value=40),
        prefix=ID_TEXT,
    )
    @example(seed=0, size=0, window_min=10, prefix="")  # no nodes
    @example(seed=0, size=1, window_min=10, prefix="")  # one node, no edges
    def test_streamed_text_equals_stdlib_dump(self, seed, size, window_min, prefix):
        events, decisions = make_random_tagged_table(seed)
        events = [replace(e, event_id=prefix + e.event_id) for e in events[:size]]
        decisions = [replace(d, event_id=prefix + d.event_id) for d in decisions[:size]]
        graph = build_event_graph(events, decisions, window_ms=window_min * MIN)
        ids = [node.event_id for node in graph.nodes]
        doc = {
            "window_ms": window_min * MIN,
            "nodes": [{"event_id": n.event_id, "ts": n.ts, "step": s.value} for n, s in zip(graph.nodes, graph.steps)],
            "edges": [
                {"src": ids[e.src], "dst": ids[e.dst], "join_reason": e.join_reason, "gap_ms": e.gap_ms}
                for e in graph.edges
            ],
        }
        # slices of three records, so that graphs of a few edges cross slice boundaries
        with patch.object(graph_module, "SLICE_RECORDS", 3), tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "graph.json"
            write_graph_json(path, graph)
            assert path.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def two_thousand_node_graph():
    """2,000 tagged events on 10 hosts, 0-45 s apart: about 5k edges and 78k DP states."""
    rng = random.Random(7)
    events, decisions = [], []
    ts = 1_700_000_000_000
    for i in range(2000):
        ts += rng.randrange(0, 45_000)
        event = make_event(event_id=f"e{i:04d}", ts=ts, host=f"h{rng.randrange(10)}")
        events.append(event)
        decisions.append(tag(event, rng.choice(list(StepTag))))
    return build_event_graph(events, decisions)


class TestMemory:
    def test_edges_are_array_columns(self, random_tagged_table):
        graph = build_event_graph(*random_tagged_table(3), window_ms=60 * MIN)
        n, e = len(graph.nodes), len(graph.edges)
        assert e > 0
        for column in (graph.edge_src, graph.edge_dst, graph.edge_reason, graph.edge_gap, graph.pred_sources):
            # one array per column, and no object per edge for the GC to visit
            assert isinstance(column, array) and len(column) == e and gc.get_referents(column) == [array]
        assert isinstance(graph.pred_offsets, array) and len(graph.pred_offsets) == n + 1
        offsets = graph.pred_offsets
        for v in range(n):
            want = [edge.src for edge in graph.edges if edge.dst == v]
            assert list(graph.pred_sources[offsets[v] : offsets[v + 1]]) == want

    def test_predecessor_rows_ascend(self):
        graph = two_thousand_node_graph()
        rows = [[] for _ in graph.nodes]
        for src, dst in zip(graph.edge_src, graph.edge_dst):
            rows[dst].append(src)
        assert max(map(len, rows)) > 1
        offsets = graph.pred_offsets
        assert [list(graph.pred_sources[offsets[v] : offsets[v + 1]]) for v in range(len(rows))] == [sorted(r) for r in rows]

    def test_the_build_holds_the_graph_not_per_node_lists(self, bulk_scenario_dir, adapters, aliases):
        events = ingest_scenario(bulk_scenario_dir, adapters, aliases).merged()
        decisions, _diag = tag_run(events, load_rules(yaml.safe_load(DENSE_RULES_TEXT)), aliases=aliases)
        gc.collect()
        tracemalloc.start()
        try:
            graph = build_event_graph(events, decisions)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(graph.nodes) > 1_000 and len(graph.edge_src) > 5_000
        # the id check and the buckets pass; lists per node would take several times the graph
        assert peak - held < 1.5 * held, (peak, held)

    def test_chain_dp_peak_per_state(self):
        graph = two_thousand_node_graph()
        # the (node, sequence) states: the distinct step sequences of the paths ending at each node
        preds = [[] for _ in graph.nodes]
        for edge in graph.edges:
            preds[edge.dst].append(edge.src)
        reach = []
        for v, step in enumerate(graph.steps):
            here = {(step,)}
            here.update(seq if step in seq else seq + (step,) for u in preds[v] for seq in reach[u])
            reach.append(here)
        states = sum(map(len, reach))
        assert states > 50_000
        tracemalloc.start()
        try:
            # unpruned, so that every state is held
            extract_chains(graph, top_k=None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the states take about 26 bytes each here; a dict entry and a tuple
        # per state, as a DP of one object per state holds, take about 140
        assert peak < 64 * states + 2**20, (peak, states)


class TestBuildEventGraph:
    def test_shared_host_one_minute_apart(self):
        events, decisions = tagged_pair(MIN)
        graph = build_event_graph(events, decisions, window_ms=DEFAULT_WINDOW_MS)
        assert len(graph.edges) == 1
        edge = graph.edges[0]
        assert edge_tuples(graph) == [("a", "b", "shared_host", MIN)]
        assert (edge.src, edge.dst) == (0, 1)

    def test_eleven_minutes_outside_ten_minute_window(self):
        events, decisions = tagged_pair(11 * MIN)
        graph = build_event_graph(events, decisions, window_ms=DEFAULT_WINDOW_MS)
        assert graph.edges == ()

    def test_window_boundary_inclusive(self):
        events, decisions = tagged_pair(DEFAULT_WINDOW_MS)
        assert len(build_event_graph(events, decisions, window_ms=DEFAULT_WINDOW_MS).edges) == 1

    def test_network_consistent_across_hosts(self):
        a = make_event(event_id="a", ts=0, host="h1", dst_ip="203.0.113.9", dst_port=443)
        b = make_event(event_id="b", ts=MIN, host="h2", dst_ip="203.0.113.9", dst_port=443)
        decisions = [tag(a, StepTag.OUTBOUND_CONN), tag(b, StepTag.EXFIL)]
        graph = build_event_graph([a, b], decisions, window_ms=DEFAULT_WINDOW_MS)
        assert [e.join_reason for e in graph.edges] == ["network_consistent"]

    def test_five_tuple_endpoints_match_reversed(self):
        a = make_event(event_id="a", ts=0, host="h1", src_ip="10.0.0.5", src_port=50000, dst_ip="203.0.113.9", dst_port=443, proto="tcp")
        b = make_event(event_id="b", ts=MIN, host="h2", src_ip="203.0.113.9", src_port=443, dst_ip="10.0.0.5", dst_port=50000, proto="tcp")
        decisions = [tag(a, StepTag.OUTBOUND_CONN), tag(b, StepTag.EXFIL)]
        graph = build_event_graph([a, b], decisions, window_ms=DEFAULT_WINDOW_MS)
        assert [e.join_reason for e in graph.edges] == ["network_consistent"]

    def test_duplicate_event_id_is_rejected(self):
        # unchecked, the second x overwrote the first: nodes [x:AUTH, x:AUTH],
        # a self-loop x->x, and no chain containing INSTALL
        x1 = make_event(event_id="x", ts=1_000)
        x2 = make_event(event_id="x", ts=2_000)
        y = make_event(event_id="y", ts=3_000)
        decisions = [tag(x1, StepTag.INSTALL), tag(x2, StepTag.AUTH), tag(y, StepTag.EXFIL)]
        with pytest.raises(EventIdError, match="duplicate event id 'x'"):
            build_event_graph([x1, x2, y], decisions, window_ms=DEFAULT_WINDOW_MS)

    @pytest.mark.parametrize("decided, offender", [((), "a"), (("a",), "b"), (("b",), "a")])
    def test_missing_decision_is_rejected(self, decided, offender):
        events = [make_event(event_id="a", ts=1_000), make_event(event_id="b", ts=2_000)]
        decisions = [tag(e, StepTag.INSTALL) for e in events if e.event_id in decided]
        with pytest.raises(EventIdError, match=f"no decision for event id '{offender}'"):
            build_event_graph(events, decisions, window_ms=DEFAULT_WINDOW_MS)

    def test_process_lineage_join(self):
        a = make_event(event_id="a", ts=0, host=None, pid=100)
        b = make_event(event_id="b", ts=MIN, host=None, pid=101, ppid=100)
        decisions = [tag(a, StepTag.INSTALL), tag(b, StepTag.DOWNLOAD)]
        graph = build_event_graph([a, b], decisions, window_ms=DEFAULT_WINDOW_MS)
        assert [e.join_reason for e in graph.edges] == ["shared_process"]

    def test_untagged_events_are_not_nodes(self):
        a = make_event(event_id="a", ts=0)
        b = make_event(event_id="b", ts=MIN)
        decisions = [
            tag(a, StepTag.INSTALL),
            TagDecision(event_id="b", candidates=(), chosen=None, diagnostics=()),
        ]
        graph = build_event_graph([a, b], decisions, window_ms=DEFAULT_WINDOW_MS)
        assert [n.event_id for n in graph.nodes] == ["a"]

    def test_edges_form_a_dag_with_no_self_edges(self, random_tagged_table):
        for seed in range(10):
            events, decisions = random_tagged_table(seed)
            graph = build_event_graph(events, decisions, window_ms=DEFAULT_WINDOW_MS)
            for edge in graph.edges:
                src, dst = graph.nodes[edge.src], graph.nodes[edge.dst]
                assert src.event_id != dst.event_id
                assert edge.src < edge.dst
                assert (src.ts, src.event_id) < (dst.ts, dst.event_id)
                assert 0 <= edge.gap_ms == dst.ts - src.ts <= graph.window_ms

    def test_widening_window_never_removes_edges(self, random_tagged_table):
        for seed in range(8):
            events, decisions = random_tagged_table(seed)
            narrow = build_event_graph(events, decisions, window_ms=5 * MIN)
            wide = build_event_graph(events, decisions, window_ms=20 * MIN)
            assert narrow.nodes == wide.nodes
            assert set(edge_tuples(narrow)) <= set(edge_tuples(wide))

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            build_event_graph([], [], window_ms=0)

    def test_absent_pids_never_join_as_process(self):
        a = make_event(event_id="a", ts=0, host=None)
        b = make_event(event_id="b", ts=MIN, host=None, ppid=100)
        decisions = [tag(a, StepTag.INSTALL), tag(b, StepTag.DOWNLOAD)]
        assert build_event_graph([a, b], decisions, window_ms=DEFAULT_WINDOW_MS).edges == ()


class TestExtractChains:
    def test_single_tagged_event(self):
        a = make_event(event_id="a", ts=123)
        chains = extract_chains(build_event_graph([a], [tag(a, StepTag.INSTALL)], window_ms=MIN))
        assert len(chains) == 1
        chain = chains[0]
        assert chain.steps == (StepTag.INSTALL,)
        assert chain.supporting_events == (("a",),)
        assert chain.score == 1
        assert chain.continuity_flags == ()

    def test_empty_graph(self):
        graph = build_event_graph([], [], window_ms=MIN)
        assert extract_chains(graph) == []

    def test_six_node_fixture_equals_exhaustive_oracle(self):
        events = [
            make_event(event_id="e0", ts=0 * MIN, host="h1"),
            make_event(event_id="e1", ts=1 * MIN, host="h1"),
            make_event(event_id="e2", ts=2 * MIN, host="h1", user="u1"),
            make_event(event_id="e3", ts=3 * MIN, host="h2", user="u1"),
            make_event(event_id="e4", ts=4 * MIN, host="h2"),
            make_event(event_id="e5", ts=30 * MIN, host="h2"),
        ]
        steps = [StepTag.INSTALL, StepTag.DOWNLOAD, StepTag.DOWNLOAD, StepTag.OUTBOUND_CONN, StepTag.EXFIL, StepTag.AUTH]
        decisions = [tag(e, s) for e, s in zip(events, steps)]
        graph = build_event_graph(events, decisions, window_ms=10 * MIN)
        got = extract_chains(graph, top_k=None, gap_threshold_ms=10 * MIN)
        want = oracle_chains(events, decisions, window_ms=10 * MIN, gap_threshold_ms=10 * MIN)
        assert got == want

    def test_scenario_ordered_steps_project_in_order(self):
        # connection, then install, then download: expected projection
        events = [
            make_event(event_id="c", ts=0, host="h1", dst_ip="203.0.113.5", dst_port=4444),
            make_event(event_id="i", ts=45_000, host="h1"),
            make_event(event_id="d", ts=110_000, host="h1"),
        ]
        decisions = [tag(events[0], StepTag.OUTBOUND_CONN), tag(events[1], StepTag.INSTALL), tag(events[2], StepTag.DOWNLOAD)]
        chains = extract_chains(build_event_graph(events, decisions, window_ms=DEFAULT_WINDOW_MS))
        assert chains[0].steps == (StepTag.OUTBOUND_CONN, StepTag.INSTALL, StepTag.DOWNLOAD)
        assert chains[0].score == 3

    def test_duplicate_sequences_merged_keeping_smallest_span(self):
        # two disconnected pairs with the same projection; tighter pair wins
        events = [
            make_event(event_id="a1", ts=0, host="h1"),
            make_event(event_id="a2", ts=5 * MIN, host="h1"),
            make_event(event_id="b1", ts=60 * MIN, host="h2"),
            make_event(event_id="b2", ts=61 * MIN, host="h2"),
        ]
        decisions = [
            tag(events[0], StepTag.INSTALL),
            tag(events[1], StepTag.DOWNLOAD),
            tag(events[2], StepTag.INSTALL),
            tag(events[3], StepTag.DOWNLOAD),
        ]
        chains = extract_chains(build_event_graph(events, decisions, window_ms=10 * MIN), top_k=None)
        two_step = [c for c in chains if c.steps == (StepTag.INSTALL, StepTag.DOWNLOAD)]
        assert len(two_step) == 1
        assert two_step[0].supporting_events == (("b1",), ("b2",))
        assert two_step[0].span_ms == MIN

    def test_top_k_truncates(self):
        events = [make_event(event_id=f"e{i}", ts=i * MIN, host=f"h{i}") for i in range(4)]
        steps = [StepTag.INSTALL, StepTag.DOWNLOAD, StepTag.EXFIL, StepTag.AUTH]
        decisions = [tag(e, s) for e, s in zip(events, steps)]
        graph = build_event_graph(events, decisions, window_ms=MIN)
        assert len(extract_chains(graph, top_k=2)) == 2
        assert len(extract_chains(graph, top_k=None)) == 4

    def test_every_step_has_supporting_evidence(self, random_tagged_table):
        for seed in range(12):
            events, decisions = random_tagged_table(seed, max_events=30)
            graph = build_event_graph(events, decisions, window_ms=DEFAULT_WINDOW_MS)
            for chain in extract_chains(graph, top_k=None):
                assert len(chain.steps) == len(chain.supporting_events)
                for ids in chain.supporting_events:
                    assert len(ids) >= 1

    def test_continuity_flag_on_wide_gap(self):
        # window wider than the continuity threshold; 8-minute transition flagged
        events, decisions = tagged_pair(8 * MIN)
        graph = build_event_graph(events, decisions, window_ms=20 * MIN)
        chains = extract_chains(graph, gap_threshold_ms=5 * MIN)
        best = chains[0]
        assert best.steps == (StepTag.INSTALL, StepTag.DOWNLOAD)
        assert best.continuity_flags == ((0, 8 * MIN),)


class TestChainAmbiguity:
    def chain(self, score, first_ts=0):
        return Chain(
            steps=tuple(list(StepTag)[:score]),
            supporting_events=tuple(("x",) for _ in range(score)),
            score=score,
            continuity_flags=(),
            first_ts=first_ts,
            span_ms=0,
        )

    def test_single_chain_sentinel(self):
        result = chain_ambiguity([self.chain(2)], k=3)
        assert result["top2_margin"] is None
        assert result["entropy_topk"] == 0.0

    def test_tied_scores_margin_zero(self):
        result = chain_ambiguity([self.chain(4), self.chain(4)], k=2)
        assert result["top2_margin"] == 0.0

    def test_three_equal_scores_uniform_entropy(self):
        result = chain_ambiguity([self.chain(2), self.chain(2), self.chain(2)], k=3)
        assert result["entropy_topk"] == pytest.approx(1.0)
        assert result["k"] == 3

    def test_entropy_bounded(self):
        result = chain_ambiguity([self.chain(5), self.chain(1)], k=2)
        assert 0.0 <= result["entropy_topk"] <= 1.0
        assert result["top2_margin"] == 4.0

    def test_k_validation(self):
        with pytest.raises(ValueError):
            chain_ambiguity([], k=0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 12), min_size=2, max_size=8))
    @example([1, 2, 3])  # with a plain sum(): 0.920619835714305 in this order, 0.9206198357143047 reversed
    def test_the_chain_order_moves_no_bit_of_the_entropy(self, scores):
        chains = [self.chain(score) for score in scores]
        k = len(chains)
        assert chain_ambiguity(chains, k)["entropy_topk"] == chain_ambiguity(chains[::-1], k)["entropy_topk"]
