import hashlib
from dataclasses import replace
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope.cli import main
from chainscope.configio import load_policy, packaged_scenario_ids
from chainscope.errors import SanitizeError
from chainscope.model import events_to_jsonl
from chainscope.sanitize import (
    PseudonymMap,
    SanitizeReport,
    _domain_rewritable,
    _substitute,
    is_token,
    pseudonymize_value,
    salt_reference,
    sanitize_dataset,
)
from chainscope.tagging import tag_run
from conftest import make_event

SALT = b"test-salt"
POLICY = load_policy()


class TestPseudonymizeValue:
    def test_deterministic_and_map_stable(self):
        pmap = PseudonymMap()
        first = pseudonymize_value("user", "alice", SALT, pmap, POLICY)
        size = pmap.size()
        second = pseudonymize_value("user", "alice", SALT, pmap, POLICY)
        assert first == second
        assert pmap.size() == size

    def test_matches_independent_hash_oracle(self):
        # oracle: first 8 digest bytes of SHA-256(salt || value), mod 10^6
        digest = hashlib.sha256(SALT + b"alice").digest()
        expected = f"USER_{int.from_bytes(digest[:8], 'big') % 10 ** 6:06d}"
        assert expected == "USER_723551"
        assert pseudonymize_value("user", "alice", SALT, PseudonymMap(), POLICY) == expected

    def test_retain_list_passthrough(self):
        pmap = PseudonymMap()
        assert pseudonymize_value("user", "SYSTEM", SALT, pmap, POLICY) == "SYSTEM"
        assert pseudonymize_value("user", "NT AUTHORITY\\SYSTEM", SALT, pmap, POLICY) == "NT AUTHORITY\\SYSTEM"
        assert pseudonymize_value("user", "S-1-5-18", SALT, pmap, POLICY) == "S-1-5-18"
        assert pmap.size() == 0

    def test_unknown_category_rejected(self):
        with pytest.raises(SanitizeError):
            pseudonymize_value("flavor", "x", SALT, PseudonymMap(), POLICY)

    def test_empty_salt_rejected(self):
        with pytest.raises(SanitizeError):
            pseudonymize_value("user", "x", b"", PseudonymMap(), POLICY)

    def test_collision_resolved_deterministically(self):
        # host-499 and host-838 truncate to the same 6-digit token under
        # this salt; the later one probes with an appended counter byte
        pmap = PseudonymMap()
        t1 = pseudonymize_value("host", "host-499", SALT, pmap, POLICY)
        t2 = pseudonymize_value("host", "host-838", SALT, pmap, POLICY)
        assert t1 == "HOST_255790"
        assert t2 == "HOST_497883"
        assert t1 != t2

    def test_token_grammar_reserved(self):
        pmap = PseudonymMap()
        assert pseudonymize_value("user", "USER_123456", SALT, pmap, POLICY) == "USER_123456"
        assert is_token("HOST_000001")
        assert not is_token("host_x")
        assert not is_token("HOST_000001\n")
        assert not is_token("HOST_\u0661\u0662\u0663\u0664\u0665\u0666")  # Arabic-Indic digits


class TestSanitizeDataset:
    def tables(self):
        return {
            "syslog": [
                make_event(
                    event_id="s0",
                    source="syslog",
                    host="buildbox",
                    user="alice",
                    text_blob="session opened for user alice",
                ),
                make_event(
                    event_id="s1",
                    source="syslog",
                    host="buildbox",
                    user="SYSTEM",
                    cmdline="type C:\\Users\\alice\\notes.txt",
                    text_blob="type C:\\Users\\alice\\notes.txt",
                ),
            ],
            "zeek": [
                make_event(
                    event_id="z0",
                    source="zeek",
                    host="buildbox",
                    dst_ip="203.0.113.9",
                    dst_port=443,
                    proto="tcp",
                    text_blob="flow from buildbox to 203.0.113.9:443",
                ),
            ],
        }

    def test_cross_source_equality(self):
        sanitized, pmap, _report = sanitize_dataset(self.tables(), POLICY, SALT)
        token = pmap.get("host", "buildbox")
        assert token is not None
        assert sanitized["syslog"][0].host == token
        assert sanitized["zeek"][0].host == token
        assert token in sanitized["zeek"][0].text_blob

    def test_path_substring_replacement(self):
        sanitized, pmap, _ = sanitize_dataset(self.tables(), POLICY, SALT)
        user_token = pmap.get("user", "alice")
        cmdline = sanitized["syslog"][1].cmdline
        assert cmdline == f"type C:\\Users\\{user_token}\\notes.txt"

    def test_retain_listed_only_dataset_is_byte_identical(self):
        tables = {
            "syslog": [
                make_event(event_id="s0", host=None, user="SYSTEM", text_blob="run as SYSTEM"),
                make_event(event_id="s1", host=None, user="S-1-5-18", text_blob="sid S-1-5-18"),
            ]
        }
        sanitized, _, report = sanitize_dataset(tables, POLICY, SALT)
        assert events_to_jsonl(sanitized["syslog"]) == events_to_jsonl(tables["syslog"])
        assert report.total_replacements == 0

    def test_network_ts_source_untouched(self):
        network = attrgetter("src_ip", "src_port", "dst_ip", "dst_port", "proto")
        tables = self.tables()
        sanitized, _, _ = sanitize_dataset(tables, POLICY, SALT)
        for source in tables:
            for before, after in zip(tables[source], sanitized[source]):
                assert before.ts == after.ts
                assert before.source == after.source
                assert network(before) == network(after)
                assert before.event_id == after.event_id

    def test_counts_reported_per_category(self):
        _, _, report = sanitize_dataset(self.tables(), POLICY, SALT)
        assert report.replacements["host"] >= 3  # field on three events plus text mention
        assert report.replacements["user"] >= 2
        assert report.identifiers["host"] == 1
        assert report.identifiers["user"] == 1

    def test_determinism_under_fixed_salt(self):
        a, _, _ = sanitize_dataset(self.tables(), POLICY, SALT)
        b, _, _ = sanitize_dataset(self.tables(), POLICY, SALT)
        for source in a:
            assert events_to_jsonl(a[source]) == events_to_jsonl(b[source])

    def test_equality_preservation(self):
        tables = {
            "syslog": [
                make_event(event_id=f"e{i}", host=f"host-{i % 5}", text_blob=f"on host-{i % 5}")
                for i in range(20)
            ]
        }
        sanitized, pmap, _ = sanitize_dataset(tables, POLICY, SALT)
        for before, after in zip(tables["syslog"], sanitized["syslog"]):
            assert after.host == pmap.get("host", before.host)
        # injective: distinct originals got distinct tokens
        tokens = [pmap.get("host", f"host-{i}") for i in range(5)]
        assert len(set(tokens)) == 5

    def test_idempotence(self):
        once, pmap, _ = sanitize_dataset(self.tables(), POLICY, SALT)
        twice, _, report = sanitize_dataset(once, POLICY, SALT, pmap=pmap)
        for source in once:
            assert events_to_jsonl(once[source]) == events_to_jsonl(twice[source])
        assert report.total_replacements == 0

    def test_distinct_salts_unrelated_tokens(self):
        values = [f"node-{i:04d}" for i in range(1000)]
        map_a, map_b = PseudonymMap(), PseudonymMap()
        for value in values:
            pseudonymize_value("host", value, b"salt-a", map_a, POLICY)
            pseudonymize_value("host", value, b"salt-b", map_b, POLICY)
        same = sum(1 for v in values if map_a.get("host", v) == map_b.get("host", v))
        # 1000 draws over a 10^6 token space: expected chance overlap ~0.001
        assert same <= 3

    def test_domain_policy_preserves_public_fqdns(self):
        tables = {
            "syslog": [
                make_event(
                    event_id="d0",
                    host=None,
                    text_blob="lookup mirror.example.org and vm-7731.internal.cloudapp.net",
                )
            ]
        }
        sanitized, pmap, _ = sanitize_dataset(tables, POLICY, SALT)
        blob = sanitized["syslog"][0].text_blob
        assert "mirror.example.org" in blob
        assert "internal.cloudapp.net" not in blob
        assert pmap.get("domain", "vm-7731.internal.cloudapp.net") is not None

    def test_tagging_outcomes_survive_sanitization(self, default_rules, aliases):
        tables = {
            "syslog": [
                make_event(
                    event_id="t0",
                    host="buildbox",
                    user="alice",
                    cmdline="pip install colorsapi",
                    text_blob="pip install colorsapi",
                ),
                make_event(
                    event_id="t1",
                    host="buildbox",
                    text_blob="conn established",
                    dst_port=4444,
                ),
                make_event(event_id="t2", host="buildbox", text_blob="routine message"),
            ]
        }
        before, _ = tag_run(tables["syslog"], default_rules, aliases=aliases)
        sanitized, _, _ = sanitize_dataset(tables, POLICY, SALT)
        after, _ = tag_run(sanitized["syslog"], default_rules, aliases=aliases)
        assert [d.chosen for d in before] == [d.chosen for d in after]
        assert [d.candidates for d in before] == [d.candidates for d in after]


# --- reference: one identifier scan and one dataclasses.replace per event ---


def reference_collect_identifiers(tables, policy):
    found = {spec.name: set() for spec in policy.categories}
    retain = policy.compiled_retain()

    def keep(value):
        if not value or value in policy.retain_literals or is_token(value):
            return False
        return not any(p.match(value) for p in retain)

    category_names = {spec.name for spec in policy.categories}
    for events in tables.values():
        for event in events:
            if "host" in category_names and event.host and keep(event.host):
                found["host"].add(event.host)
            if "user" in category_names and event.user and keep(event.user):
                found["user"].add(event.user)
            texts = [event.text_blob or "", event.cmdline or "", event.image or ""]
            texts.extend(str(v) for v in event.extras.values())
            for spec in policy.categories:
                for pattern in spec.compiled():
                    for text in texts:
                        for match in pattern.finditer(text):
                            value = match.group(1) if match.groups() else match.group(0)
                            if spec.name == "domain" and not _domain_rewritable(value, policy):
                                continue
                            if keep(value):
                                found[spec.name].add(value)
    return found


def reference_sanitize_dataset(tables, policy, salt, pmap):
    identifiers = reference_collect_identifiers(tables, policy)
    tokens, cat_of, mapped_counts = {}, {}, {}
    for spec in policy.categories:
        values = sorted(identifiers.get(spec.name, ()))
        mapped_counts[spec.name] = len(values)
        for value in values:
            tokens[value] = pseudonymize_value(spec.name, value, salt, pmap, policy)
            cat_of[value] = spec.name
    ordered = sorted(tokens.items(), key=lambda item: (-len(item[0]), item[0]))

    counts = {}
    sanitized = {}
    for source, events in tables.items():
        out = []
        for event in events:
            host = event.host
            if host is not None and host in tokens:
                counts[cat_of[host]] = counts.get(cat_of[host], 0) + 1
                host = tokens[host]
            user = event.user
            if user is not None and user in tokens:
                counts[cat_of[user]] = counts.get(cat_of[user], 0) + 1
                user = tokens[user]
            image = _substitute(event.image, ordered, counts, cat_of) if event.image else event.image
            cmdline = _substitute(event.cmdline, ordered, counts, cat_of) if event.cmdline else event.cmdline
            text_blob = _substitute(event.text_blob, ordered, counts, cat_of) if event.text_blob else event.text_blob
            extras = {k: _substitute(v, ordered, counts, cat_of) for k, v in event.extras.items()}
            out.append(
                replace(event, host=host, user=user, image=image, cmdline=cmdline, text_blob=text_blob, extras=extras)
            )
        sanitized[source] = out
    report = SanitizeReport(replacements=dict(sorted(counts.items())), identifiers=dict(sorted(mapped_counts.items())))
    return sanitized, pmap, report


HOST_NAMES = ["buildbox", "alice-laptop", "SYSTEM", "HOST_123456", "root"]
USER_NAMES = ["alice", "bob", "root", "SYSTEM", "S-1-5-18", "USER_000042"]
FRAGMENTS = st.sampled_from(
    [
        "/home/alice/.cache",
        "/home/bob",
        "/home/root/x",
        "C:\\Users\\alice\\notes.txt",
        "vm-7.internal.cloudapp.net",
        "store1.blob.core.windows.net",
        "mirror.example.org",
        "/subscriptions/0123456789abcdef0123/rg",
        "buildbox",
        "alice-laptop",
        "alice",
        "S-1-5-18",
        "USER_000042",
        "ok",
    ]
)
TEXTS = st.lists(FRAGMENTS, max_size=4).map(" ".join)
SANITIZE_EVENTS = st.lists(
    st.builds(
        make_event,
        host=st.none() | st.sampled_from(HOST_NAMES),
        user=st.none() | st.sampled_from(USER_NAMES),
        image=st.none() | TEXTS,
        cmdline=st.none() | TEXTS,
        text_blob=TEXTS,
        extras=st.dictionaries(st.sampled_from(["path", "Image"]), TEXTS, max_size=2),
    ),
    max_size=8,
)


class TestSanitizeEqualsReference:
    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.sampled_from(["syslog", "zeek", "azure_events"]), SANITIZE_EVENTS, max_size=3))
    def test_tables_map_and_report(self, tables):
        got = sanitize_dataset(tables, POLICY, SALT, PseudonymMap(salt_ref=salt_reference(SALT)))
        want = reference_sanitize_dataset(tables, POLICY, SALT, PseudonymMap(salt_ref=salt_reference(SALT)))
        assert got[0] == want[0]
        assert got[1].to_dict() == want[1].to_dict()
        assert got[2] == want[2]


@pytest.mark.parametrize("scenario", packaged_scenario_ids())
def test_reconstruct_from_sanitized_events_writes_the_same_bytes(tmp_path, scenario):
    # sanitizing renames hosts and users but keeps equality and event ids,
    # so the run's own decisions over the sanitized events give the run's graph and chains
    run, sanitized, rebuilt = tmp_path / "run", tmp_path / "sanitized.jsonl", tmp_path / "rebuilt"
    assert main(["synth", "--spec", scenario, "--out", str(tmp_path / "scenario")]) == 0
    assert main(["evaluate", "--scenario-dir", str(tmp_path / "scenario"), "--out", str(run)]) == 0
    (tmp_path / "salt.txt").write_bytes(SALT)
    sanitize = ["sanitize", "--in", str(run / "events.jsonl"), "--salt-file", str(tmp_path / "salt.txt")]
    assert main(sanitize + ["--mappings-dir", str(tmp_path / "mappings"), "--out", str(sanitized)]) == 0
    assert sanitized.read_bytes() != (run / "events.jsonl").read_bytes()
    reconstruct = ["reconstruct", "--events", str(sanitized), "--decisions", str(run / "decisions.jsonl")]
    assert main(reconstruct + ["--out", str(rebuilt)]) == 0
    for name in ("graph.json", "chains.json", "ambiguity.json"):
        assert (rebuilt / name).read_bytes() == (run / name).read_bytes(), name
