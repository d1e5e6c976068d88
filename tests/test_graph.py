import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope.errors import EventIdError
from chainscope.graph import (
    DEFAULT_WINDOW_MS,
    TOP2_MARGIN_SENTINEL,
    Chain,
    build_event_graph,
    chain_ambiguity,
    extract_chains,
    induced_subgraph,
    join_reason,
)
from chainscope.synth import oracle_chains
from chainscope.tagging import StepTag, TagDecision
from conftest import make_event, make_random_tagged_table

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
    return [(e.src, e.dst, e.join_reason, e.gap_ms) for e in graph.edges]


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


class TestInducedSubgraph:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        keep_seed=st.integers(min_value=0, max_value=10**6),
        window_min=st.integers(min_value=1, max_value=40),
    )
    def test_equals_graph_built_on_the_subset(self, seed, keep_seed, window_min):
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
        assert induced_subgraph(whole, keep) == direct


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


class TestBuildEventGraph:
    def test_shared_host_one_minute_apart(self):
        events, decisions = tagged_pair(MIN)
        graph = build_event_graph(events, decisions, window_ms=DEFAULT_WINDOW_MS)
        assert len(graph.edges) == 1
        edge = graph.edges[0]
        assert (edge.src, edge.dst, edge.join_reason, edge.gap_ms) == ("a", "b", "shared_host", MIN)

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
        assert graph.node_ids == ("a",)

    def test_edges_form_a_dag_with_no_self_edges(self, random_tagged_table):
        for seed in range(10):
            events, decisions = random_tagged_table(seed)
            graph = build_event_graph(events, decisions, window_ms=DEFAULT_WINDOW_MS)
            order = {n.event_id: i for i, n in enumerate(graph.nodes)}
            for edge in graph.edges:
                assert edge.src != edge.dst
                assert order[edge.src] < order[edge.dst]
                assert 0 <= edge.gap_ms <= graph.window_ms

    def test_widening_window_never_removes_edges(self, random_tagged_table):
        for seed in range(8):
            events, decisions = random_tagged_table(seed)
            narrow = build_event_graph(events, decisions, window_ms=5 * MIN)
            wide = build_event_graph(events, decisions, window_ms=20 * MIN)
            assert set(narrow.edges) <= set(wide.edges)

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
        assert result.top2_margin == TOP2_MARGIN_SENTINEL
        assert result.entropy_topk == 0.0

    def test_tied_scores_margin_zero(self):
        result = chain_ambiguity([self.chain(4), self.chain(4)], k=2)
        assert result.top2_margin == 0.0

    def test_three_equal_scores_uniform_entropy(self):
        result = chain_ambiguity([self.chain(2), self.chain(2), self.chain(2)], k=3)
        assert result.entropy_topk == pytest.approx(1.0)
        assert result.k == 3

    def test_entropy_bounded(self):
        result = chain_ambiguity([self.chain(5), self.chain(1)], k=2)
        assert 0.0 <= result.entropy_topk <= 1.0
        assert result.top2_margin == 4.0

    def test_k_validation(self):
        with pytest.raises(ValueError):
            chain_ambiguity([], k=0)
