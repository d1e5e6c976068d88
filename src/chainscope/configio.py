"""Loading of declarative config documents (YAML) and packaged defaults.

All pipeline behavior that is content rather than mechanism -- rules,
adapters, alias maps, sanitization policy, attack templates, scenario
specs, budget lists -- lives in config documents. The package ships
working defaults under chainscope/config/.
"""

from __future__ import annotations

import importlib.resources
import re
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import yaml

from .errors import ConfigError, ParseError, SanitizeError, ScenarioError
from .ingest import SourceAdapterSpec
from .metrics import BudgetConfig, categorize_budget
from .model import FieldAliasMap, canonicalize_ts, compile_regex, float_value, object_field, object_list, string_list
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


def _document(origin: str, doc: Any) -> Dict[str, Any]:
    """A config document's top level: a mapping (an empty document: none), else ConfigError naming the file."""
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{origin} must hold a mapping, not {type(doc).__name__}")
    return doc


def _load(path: Optional[Path], packaged: str) -> Tuple[str, Dict[str, Any]]:
    """(origin, document) of a config file, or of the packaged default when path is None."""
    origin = f"packaged {packaged}" if path is None else str(path)
    return origin, _document(origin, _packaged(packaged) if path is None else load_yaml(path))


def _required(origin: str, doc: Dict[str, Any], keys: Sequence[str], kind: str) -> None:
    for key in keys:
        if key not in doc:
            raise ScenarioError(f"{origin}: {kind} missing {key!r}")


_KINDS = {int: "an integer", float: "a number"}


def _number(origin: str, doc: Mapping[str, Any], key: str, kind: type, default: Any, where: str = "") -> Any:
    """kind(doc[key]) (absent: kind(default)), else ConfigError naming the file and the key.

    A number must convert exactly (3.7 is not an integer) and a boolean is
    not a number; a string converts as kind parses it.
    """
    value = doc.get(key, default)
    try:
        number = kind(value)
        exact = isinstance(value, str) or (number == value and not isinstance(value, bool))
    except (TypeError, ValueError):
        exact = False
    if not exact:
        raise ConfigError(f"{origin}: {where}{key!r} must be {_KINDS[kind]}, got {value!r}")
    return number


def load_adapters_doc(doc: Any, origin: str) -> List[SourceAdapterSpec]:
    adapters = []
    for i, item in enumerate(object_list(origin, _document(origin, doc), "adapters")):
        try:
            adapters.append(
                SourceAdapterSpec(
                    source=str(item["source"]),
                    format=str(item["format"]),
                    field_map={str(k): str(v) for k, v in object_field(origin, item, "field_map", f"adapters[{i}].").items()},
                    trust_origin=str(item.get("trust_origin", "target")),
                    ts_format=str(item.get("ts_format", "auto")),
                    default_year=item.get("default_year"),
                    file_pattern=item.get("file_pattern"),
                    parse_threshold=float_value(item.get("parse_threshold", 0.9)),
                )
            )
        except KeyError as exc:
            raise ConfigError(f"{origin}: adapter entry missing {exc}: {item!r}")
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{origin}: malformed adapter entry {item!r}: {exc}")
    if not adapters:
        raise ConfigError(f"{origin}: adapters document defines no adapters")
    return adapters


def load_adapters(path: Optional[Path] = None) -> List[SourceAdapterSpec]:
    """Load adapter specs from a YAML file, a directory of them, or the default.

    A directory is read as one document per file (sorted by name); each may
    carry an ``adapters`` list or a single adapter mapping.
    """
    if path is not None and Path(path).is_dir():
        adapters: List[SourceAdapterSpec] = []
        for child in sorted(Path(path).glob("*.yml")) + sorted(Path(path).glob("*.yaml")):
            doc = load_yaml(child)
            if isinstance(doc, Mapping) and "adapters" not in doc:
                doc = {"adapters": [doc]}
            adapters.extend(load_adapters_doc(doc, str(child)))
        if not adapters:
            raise ConfigError(f"adapter directory {path} holds no adapter documents")
        return adapters
    origin, doc = _load(path, "adapters.yml")
    return load_adapters_doc(doc, origin)


def load_aliases(path: Optional[Path] = None) -> FieldAliasMap:
    origin, doc = _load(path, "aliases.yml")
    entries = object_field(origin, doc, "aliases")
    return FieldAliasMap({str(k): string_list(origin, entries, k, "aliases.") for k in entries})


def load_rules_doc(path: Optional[Path] = None) -> Dict[str, Any]:
    return load_yaml(path) if path else _packaged("rules.yml")


def _regex_list(origin: str, doc: Mapping[str, Any], key: str, where: str = "") -> Tuple[str, ...]:
    """doc[key] as a list of strings that each compile as a regular expression, else ConfigError naming the entry."""
    patterns = tuple(string_list(origin, doc, key, where))
    for j, pattern in enumerate(patterns):
        try:
            compile_regex(pattern)
        except re.error as exc:
            raise ConfigError(f"{origin}: {where}{key}[{j}] is not a valid regular expression: {exc}")
    return patterns


def load_policy(path: Optional[Path] = None) -> PseudonymPolicy:
    """The sanitize policy; every pattern must compile, and every prefix must
    be ASCII capital letters followed by '_', so that its tokens are tokens."""
    origin, doc = _load(path, "sanitize_policy.yml")
    categories = []
    for i, item in enumerate(object_list(origin, doc, "categories", ("name", "prefix"))):
        patterns = _regex_list(origin, item, "patterns", f"categories[{i}].")
        try:
            categories.append(CategorySpec(name=str(item["name"]), prefix=str(item["prefix"]), patterns=patterns))
        except SanitizeError as exc:  # an unknown name, or a prefix outside the token grammar
            raise ConfigError(f"{origin}: categories[{i}]: {exc}")
    if not categories:
        raise ConfigError(f"{origin}: sanitize policy defines no categories")
    try:
        return PseudonymPolicy(
            categories=tuple(categories),
            retain_literals=frozenset(string_list(origin, doc, "retain_literals")),
            retain_patterns=_regex_list(origin, doc, "retain_patterns"),
            domain_rewrite_suffixes=tuple(string_list(origin, doc, "domain_rewrite_suffixes")),
        )
    except SanitizeError as exc:  # a category name or prefix used twice
        raise ConfigError(f"{origin}: {exc}")


def load_budgets(path: Path) -> List[BudgetConfig]:
    """Budgets, categorized with the document's ``weights`` over DEFAULT_COMPOSITE_WEIGHTS.

    Each entry is a list of sources or an object with a ``sources`` list.
    """
    origin = str(path)
    doc = _document(origin, load_yaml(path))
    table = object_field(origin, doc, "weights")
    weights = {str(k): _number(origin, table, k, int, None, "weights.") for k in table}
    entries = doc.get("budgets", [])
    if not isinstance(entries, list):
        raise ConfigError(f"{origin}: 'budgets' must be a list, got {type(entries).__name__}")
    budgets = []
    for i, item in enumerate(entries):
        if isinstance(item, Mapping):
            sources = string_list(origin, item, "sources", f"budgets[{i}].")
        elif isinstance(item, list) and all(isinstance(s, str) for s in item):
            sources = item
        else:
            raise ConfigError(f"{origin}: budgets[{i}] must be a list of sources or an object with 'sources', got {item!r}")
        if not sources:
            raise ConfigError(f"{origin}: budgets[{i}] has no sources")
        budgets.append(categorize_budget(sources, weights))
    if not budgets:
        raise ConfigError(f"budgets file {origin} defines no budgets")
    return budgets


def _parse_active_hours(origin: str, value: Any) -> Tuple[int, int]:
    if value is None:
        return ACTIVE_HOURS_DEFAULT
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ScenarioError(f"{origin}: active_hours must be a [start, end] pair, got {value!r}")

    def seconds(text: str) -> int:
        parts = str(text).split(":")
        try:  # h:m or h:m:s, each an integer
            h, m, s = map(int, parts + ["0"] if len(parts) == 2 else parts)
        except ValueError:
            raise ScenarioError(f"{origin}: bad active-hours time {text!r}")
        return h * 3600 + m * 60 + s

    return seconds(value[0]), seconds(value[1])


def load_scenario_spec(path: Path) -> ScenarioSpec:
    return scenario_spec_from_doc(load_yaml(path), str(path))


def scenario_spec_from_doc(doc: Any, origin: str) -> ScenarioSpec:
    doc = _document(origin, doc)
    _required(origin, doc, ("scenario_id", "hosts", "sources"), "scenario spec")
    benign_doc = object_field(origin, doc, "benign")
    active = _parse_active_hours(origin, benign_doc.get("active_hours"))
    activity_set = ACTIVITY_SET
    if "activity_set" in benign_doc:
        activity_set = tuple(string_list(origin, benign_doc, "activity_set", "benign."))
    benign = BenignConfig(
        n_activities=_number(origin, benign_doc, "n_activities", int, 40, "benign."),
        min_interval_s=_number(origin, benign_doc, "min_interval_s", float, 30, "benign."),
        max_interval_s=_number(origin, benign_doc, "max_interval_s", float, 300, "benign."),
        activity_set=activity_set,
        active_start_s=active[0],
        active_end_s=active[1],
    )
    attack_doc = object_field(origin, doc, "attack")
    try:
        start_ms = canonicalize_ts(str(doc.get("start", "2024-05-01T09:00:00+00:00")))
    except ParseError as exc:
        raise ConfigError(f"{origin}: 'start': {exc}")
    return ScenarioSpec(
        scenario_id=str(doc["scenario_id"]),
        seed=_number(origin, doc, "seed", int, 0),
        hosts=tuple(
            HostSpec(name=str(h["name"]), profile=str(h.get("profile", "development")))
            for h in object_list(origin, doc, "hosts", ("name",))
        ),
        sources=tuple(string_list(origin, doc, "sources")),
        start_ms=start_ms,
        duration_s=_number(origin, doc, "duration_s", int, 8 * 3600),
        benign=benign,
        attack_template=str(attack_doc["template"]) if attack_doc.get("template") else None,
        attack_start_s=_number(origin, attack_doc, "start_s", int, 2 * 3600, "attack."),
    )


def template_from_doc(doc: Any, origin: str) -> AttackTemplate:
    doc = _document(origin, doc)
    _required(origin, doc, ("template_id", "steps"), "attack template")
    steps = []
    for i, item in enumerate(object_list(origin, doc, "steps", ("step",))):
        where = f"steps[{i}]."
        events = tuple(
            AttackEventSpec(
                source=str(ev["source"]),
                fields={str(k): v for k, v in ev.items() if k not in ("source", "offset_s")},
                offset_s=_number(origin, ev, "offset_s", float, 0.0, f"{where}events[{j}]."),
            )
            for j, ev in enumerate(object_list(origin, item, "events", ("source",), where))
        )
        steps.append(
            AttackStepSpec(
                step=parse_step(str(item["step"])),
                offset_s=_number(origin, item, "offset_s", float, 0.0, where),
                technique_ids=tuple(string_list(origin, item, "technique_ids", where)),
                events=events,
            )
        )
    return AttackTemplate(
        template_id=str(doc["template_id"]),
        steps=tuple(steps),
        omit=frozenset(parse_step(s) for s in string_list(origin, doc, "omit")),
        attack_user=str(doc.get("attack_user", "dev01")),
        description=str(doc.get("description", "")),
    )


def load_template(path: Path) -> AttackTemplate:
    return template_from_doc(load_yaml(path), str(path))


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
    return template_from_doc(yaml.safe_load(text), f"packaged template {template_id}")


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
    return scenario_spec_from_doc(yaml.safe_load(text), f"packaged scenario {name}")

