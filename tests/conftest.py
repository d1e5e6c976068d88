import dataclasses
import random

import pytest

from chainscope.configio import (
    load_adapters,
    load_aliases,
    load_packaged_scenario,
    load_packaged_template,
    load_rules_doc,
    load_technique_map,
    packaged_scenario_ids,
    packaged_template_ids,
)
from chainscope.model import NetworkInfo, NormalizedEvent, ProcessInfo
from chainscope.synth import generate_scenario
from chainscope.tagging import StepTag, TagDecision, load_rules


@pytest.fixture(scope="session")
def adapters():
    return load_adapters()


@pytest.fixture(scope="session")
def aliases():
    return load_aliases()


@pytest.fixture(scope="session")
def default_rules():
    return load_rules(load_rules_doc())


@pytest.fixture(scope="session")
def technique_map():
    return load_technique_map()


@pytest.fixture(scope="session")
def all_template_ids():
    return packaged_template_ids()


@pytest.fixture(scope="session")
def all_scenarios():
    out = []
    for name in packaged_scenario_ids():
        spec = load_packaged_scenario(name)
        template = load_packaged_template(spec.attack_template) if spec.attack_template else None
        out.append((spec, template))
    return out


def make_event(
    event_id="syslog:000:000000",
    ts=1714554000000,
    source="syslog",
    host="h1",
    user=None,
    pid=None,
    ppid=None,
    image=None,
    cmdline=None,
    src_ip=None,
    src_port=None,
    dst_ip=None,
    dst_port=None,
    proto=None,
    text_blob="",
    extras=None,
    scenario_id="test",
    trust_origin="target",
):
    return NormalizedEvent(
        event_id=event_id,
        ts=ts,
        scenario_id=scenario_id,
        source=source,
        trust_origin=trust_origin,
        host=host,
        user=user,
        process=ProcessInfo(pid=pid, ppid=ppid, image=image, cmdline=cmdline),
        network=NetworkInfo(src_ip=src_ip, src_port=src_port, dst_ip=dst_ip, dst_port=dst_port, proto=proto),
        text_blob=text_blob,
        extras=dict(extras or {}),
    )


@pytest.fixture
def mk_event():
    return make_event


def make_random_tagged_table(seed, max_events=50):
    """Random tagged tables sized for exhaustive path enumeration."""
    rng = random.Random(seed)
    n = rng.randint(0, max_events)
    hosts = [f"h{i}" for i in range(rng.randint(4, 10))]
    users = [f"u{i}" for i in range(6)]
    ips = [f"198.51.100.{i}" for i in range(6)]
    steps = list(StepTag)
    base = 1_700_000_000_000
    events, decisions = [], []
    for i in range(n):
        ts = base + rng.randrange(0, 6 * 3600 * 1000)
        pid = rng.randrange(100, 140) if rng.random() < 0.3 else None
        net = {}
        if rng.random() < 0.25:
            net = dict(
                src_ip=rng.choice(ips),
                src_port=rng.randrange(40000, 40010),
                dst_ip=rng.choice(ips),
                dst_port=rng.choice([22, 443, 4444]),
                proto="tcp",
            )
        event = make_event(
            event_id=f"ev:{i:03d}",
            ts=ts,
            host=rng.choice(hosts) if rng.random() < 0.75 else None,
            user=rng.choice(users) if rng.random() < 0.25 else None,
            pid=pid,
            ppid=(pid - rng.randint(0, 3)) if pid and rng.random() < 0.5 else None,
            text_blob="x",
            **net,
        )
        events.append(event)
        decisions.append(
            TagDecision(event_id=event.event_id, candidates=(), chosen=rng.choice(steps), diagnostics=())
        )
    return events, decisions


def make_scenario_data(name, seed):
    """A packaged scenario's generated data under another seed."""
    spec = dataclasses.replace(load_packaged_scenario(name), seed=seed)
    template = load_packaged_template(spec.attack_template) if spec.attack_template else None
    return generate_scenario(spec, template)


@pytest.fixture
def random_tagged_table():
    return make_random_tagged_table
