"""Loading of declarative config documents (YAML) and packaged defaults.

All pipeline behavior that is content rather than mechanism -- rules,
adapters, alias maps, technique-to-step tables, sanitization policy,
attack templates, scenario specs, budget lists -- lives in config
documents. The package ships working defaults under chainscope/config/.
"""

from __future__ import annotations

import importlib.resources
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

import yaml

from .errors import ConfigError, ScenarioError
from .ingest import SourceAdapterSpec
from .metrics import BudgetConfig, categorize_budget
from .model import FieldAliasMap, canonicalize_ts
from .sanitize import CategorySpec, PseudonymPolicy
from .synth import (
    ACTIVE_HOURS_DEFAULT,
    ACTIVITY_SET,
    AttackEventSpec,
    AttackStepSpec,
    AttackTemplate,
    BenignConfig,
    HostSpec,
    ScenarioSpec,
)
from .tagging import parse_step


def load_yaml(path: Path) -> Any:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}")


def _packaged(name: str) -> Any:
    ref = importlib.resources.files("chainscope").joinpath("config").joinpath(name)
    return yaml.safe_load(ref.read_text(encoding="utf-8"))


def load_adapters_doc(doc: Mapping[str, Any]) -> List[SourceAdapterSpec]:
    adapters = []
    for item in doc.get("adapters", []):
        try:
            adapters.append(
                SourceAdapterSpec(
                    source=str(item["source"]),
                    format=str(item["format"]),
                    field_map={str(k): str(v) for k, v in (item.get("field_map") or {}).items()},
                    trust_origin=str(item.get("trust_origin", "target")),
                    ts_format=str(item.get("ts_format", "auto")),
                    default_year=item.get("default_year"),
                    file_pattern=item.get("file_pattern"),
                    parse_threshold=float(item.get("parse_threshold", 0.9)),
                )
            )
        except KeyError as exc:
            raise ConfigError(f"adapter entry missing {exc}: {item!r}")
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed adapter entry {item!r}: {exc}")
    if not adapters:
        raise ConfigError("adapters document defines no adapters")
    return adapters


def load_adapters(path: Optional[Path] = None) -> List[SourceAdapterSpec]:
    """Load adapter specs from a YAML file, a directory of them, or the default.

    A directory is read as one document per file (sorted by name); each may
    carry an ``adapters`` list or a single adapter mapping.
    """
    if path is None:
        return load_adapters_doc(_packaged("adapters.yml"))
    path = Path(path)
    if path.is_dir():
        adapters: List[SourceAdapterSpec] = []
        for child in sorted(path.glob("*.yml")) + sorted(path.glob("*.yaml")):
            doc = load_yaml(child)
            if isinstance(doc, Mapping) and "adapters" not in doc:
                doc = {"adapters": [doc]}
            adapters.extend(load_adapters_doc(doc))
        if not adapters:
            raise ConfigError(f"adapter directory {path} holds no adapter documents")
        return adapters
    return load_adapters_doc(load_yaml(path))


def load_aliases(path: Optional[Path] = None) -> FieldAliasMap:
    doc = load_yaml(path) if path else _packaged("aliases.yml")
    entries = doc.get("aliases", {}) if isinstance(doc, Mapping) else {}
    return FieldAliasMap({str(k): [str(a) for a in v] for k, v in entries.items()})


def load_rules_doc(path: Optional[Path] = None) -> Dict[str, Any]:
    return load_yaml(path) if path else _packaged("rules.yml")


def load_technique_map(path: Optional[Path] = None) -> Dict[str, List[str]]:
    doc = load_yaml(path) if path else _packaged("technique_steps.yml")
    table = doc.get("technique_steps", {})
    return {str(step): [str(t) for t in ids] for step, ids in table.items()}


def load_policy(path: Optional[Path] = None) -> PseudonymPolicy:
    doc = load_yaml(path) if path else _packaged("sanitize_policy.yml")
    categories = tuple(
        CategorySpec(
            name=str(item["name"]),
            prefix=str(item["prefix"]),
            patterns=tuple(str(p) for p in item.get("patterns", [])),
        )
        for item in doc.get("categories", [])
    )
    if not categories:
        raise ConfigError("sanitize policy defines no categories")
    return PseudonymPolicy(
        categories=categories,
        retain_literals=frozenset(str(v) for v in doc.get("retain_literals", [])),
        retain_patterns=tuple(str(p) for p in doc.get("retain_patterns", [])),
        domain_rewrite_suffixes=tuple(str(s) for s in doc.get("domain_rewrite_suffixes", [])),
    )


def load_weights(path: Path) -> Dict[str, int]:
    doc = load_yaml(path)
    table = doc.get("weights", doc) if isinstance(doc, Mapping) else {}
    return {str(k): int(v) for k, v in (table or {}).items()}


def load_budgets(path: Path, extra_weights: Optional[Mapping[str, int]] = None) -> List[BudgetConfig]:
    doc = load_yaml(path)
    weights = {str(k): int(v) for k, v in (doc.get("weights") or {}).items()}
    if extra_weights:
        weights.update(extra_weights)
    budgets = []
    for item in doc.get("budgets", []):
        if isinstance(item, Mapping):
            sources = [str(s) for s in item.get("sources", [])]
        else:
            sources = [str(s) for s in item]
        if not sources:
            raise ConfigError(f"budget entry has no sources: {item!r}")
        budgets.append(categorize_budget(sources, weights))
    if not budgets:
        raise ConfigError(f"budgets file {path} defines no budgets")
    return budgets


def _parse_active_hours(value: Any) -> Tuple[int, int]:
    if value is None:
        return ACTIVE_HOURS_DEFAULT
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ScenarioError(f"active_hours must be a [start, end] pair, got {value!r}")

    def seconds(text: str) -> int:
        parts = str(text).split(":")
        if len(parts) not in (2, 3):
            raise ScenarioError(f"bad active-hours time {text!r}")
        h, m = int(parts[0]), int(parts[1])
        s = int(parts[2]) if len(parts) == 3 else 0
        return h * 3600 + m * 60 + s

    return seconds(value[0]), seconds(value[1])


def load_scenario_spec(path: Path) -> ScenarioSpec:
    doc = load_yaml(path)
    return scenario_spec_from_doc(doc)


def scenario_spec_from_doc(doc: Mapping[str, Any]) -> ScenarioSpec:
    try:
        hosts = tuple(
            HostSpec(name=str(h["name"]), profile=str(h.get("profile", "development")))
            for h in doc["hosts"]
        )
        benign_doc = doc.get("benign") or {}
        active = _parse_active_hours(benign_doc.get("active_hours"))
        benign = BenignConfig(
            n_activities=int(benign_doc.get("n_activities", 40)),
            min_interval_s=float(benign_doc.get("min_interval_s", 30)),
            max_interval_s=float(benign_doc.get("max_interval_s", 300)),
            activity_set=tuple(str(a) for a in benign_doc.get("activity_set", ACTIVITY_SET)),
            active_start_s=active[0],
            active_end_s=active[1],
        )
        attack_doc = doc.get("attack") or {}
        return ScenarioSpec(
            scenario_id=str(doc["scenario_id"]),
            seed=int(doc.get("seed", 0)),
            hosts=hosts,
            sources=tuple(str(s) for s in doc["sources"]),
            start_ms=canonicalize_ts(str(doc.get("start", "2024-05-01T09:00:00+00:00"))),
            duration_s=int(doc.get("duration_s", 8 * 3600)),
            benign=benign,
            attack_template=str(attack_doc["template"]) if attack_doc.get("template") else None,
            attack_start_s=int(attack_doc.get("start_s", 2 * 3600)),
        )
    except KeyError as exc:
        raise ScenarioError(f"scenario spec missing {exc}")


def template_from_doc(doc: Mapping[str, Any]) -> AttackTemplate:
    try:
        steps = []
        for item in doc["steps"]:
            events = tuple(
                AttackEventSpec(
                    source=str(ev["source"]),
                    fields={str(k): v for k, v in ev.items() if k not in ("source", "offset_s")},
                    offset_s=float(ev.get("offset_s", 0.0)),
                )
                for ev in item.get("events", [])
            )
            steps.append(
                AttackStepSpec(
                    step=parse_step(str(item["step"])),
                    offset_s=float(item.get("offset_s", 0.0)),
                    technique_ids=tuple(str(t) for t in item.get("technique_ids", [])),
                    events=events,
                )
            )
        return AttackTemplate(
            template_id=str(doc["template_id"]),
            steps=tuple(steps),
            omit=frozenset(parse_step(str(s)) for s in doc.get("omit", [])),
            attack_user=str(doc.get("attack_user", "dev01")),
            description=str(doc.get("description", "")),
        )
    except KeyError as exc:
        raise ScenarioError(f"attack template missing {exc}")


def load_template(path: Path) -> AttackTemplate:
    return template_from_doc(load_yaml(path))


def packaged_template_ids() -> List[str]:
    root = importlib.resources.files("chainscope").joinpath("config").joinpath("templates")
    return sorted(p.name[: -len(".yml")] for p in root.iterdir() if p.name.endswith(".yml"))


def load_packaged_template(template_id: str) -> AttackTemplate:
    ref = (
        importlib.resources.files("chainscope")
        .joinpath("config")
        .joinpath("templates")
        .joinpath(f"{template_id}.yml")
    )
    try:
        text = ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ScenarioError(f"no packaged attack template named {template_id!r}; available: {packaged_template_ids()}")
    return template_from_doc(yaml.safe_load(text))


def load_packaged_scenario(name: str) -> ScenarioSpec:
    ref = (
        importlib.resources.files("chainscope")
        .joinpath("config")
        .joinpath("scenarios")
        .joinpath(f"{name}.yml")
    )
    try:
        text = ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ScenarioError(f"no packaged scenario named {name!r}")
    return scenario_spec_from_doc(yaml.safe_load(text))


def packaged_scenario_ids() -> List[str]:
    root = importlib.resources.files("chainscope").joinpath("config").joinpath("scenarios")
    return sorted(p.name[: -len(".yml")] for p in root.iterdir() if p.name.endswith(".yml"))
