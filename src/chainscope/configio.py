"""Loading of declarative config documents (YAML) and packaged defaults.

All pipeline behavior that is content rather than mechanism -- rules,
adapters, alias maps, sanitization policy, attack templates, scenario
specs, budget lists -- lives in config documents. The package ships
working defaults under chainscope/config/.
"""

from __future__ import annotations

import importlib.resources
import re
from datetime import date
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import yaml

from .errors import ConfigError, ParseError, SanitizeError, ScenarioError
from .ingest import SourceAdapterSpec
from .metrics import BudgetConfig, categorize_budget
from .model import FieldAliasMap, compile_regex, object_field, object_list, parse_timestamp, string_list, typed_value
from .sanitize import CategorySpec, PseudonymPolicy
from .synth import (
    AttackEventSpec,
    AttackStepSpec,
    AttackTemplate,
    BenignConfig,
    HostSpec,
    ScenarioSpec,
)
from .tagging import parse_step

# libyaml's loader where PyYAML was built with it: the same documents, several times faster
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(path: Path) -> Any:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return yaml.load(path.read_text(encoding="utf-8"), Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}")


def _packaged(*parts: str) -> Any:
    """The packaged resource config/<parts...>."""
    return importlib.resources.files("chainscope").joinpath("config", *parts)


def _packaged_yaml(*parts: str) -> Any:
    """The packaged YAML document config/<parts...>; FileNotFoundError when there is none."""
    return yaml.load(_packaged(*parts).read_text(encoding="utf-8"), Loader=_LOADER)


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
    return origin, _document(origin, _packaged_yaml(packaged) if path is None else load_yaml(path))


def _required(origin: str, doc: Dict[str, Any], keys: Sequence[str], kind: str) -> None:
    for key in keys:
        if key not in doc:
            raise ScenarioError(f"{origin}: {kind} missing {key!r}")


def _present(origin: str, doc: Mapping[str, Any], where: str = "", **kinds: type) -> Dict[str, Any]:
    """{key: typed_value(...)} of each key of kinds that doc holds, a float kind read as a float.

    A key doc lacks is left out, so that the spec dataclass's own default applies.
    """
    values = {}
    for key, kind in kinds.items():
        if key in doc:
            value = typed_value(origin, doc, key, kind, where)
            values[key] = float(value) if kind is float else value
    return values


def load_adapters_doc(doc: Any, origin: str) -> List[SourceAdapterSpec]:
    adapters = []
    for i, item in enumerate(object_list(origin, _document(origin, doc), "adapters", ("source", "format"))):
        where = f"adapters[{i}]."
        table = object_field(origin, item, "field_map", where)
        threshold = _present(origin, item, where, parse_threshold=float)
        if threshold and not 0 <= threshold["parse_threshold"] <= 1:  # NaN too
            raise ConfigError(f"{origin}: {where}'parse_threshold' must be a number in [0, 1], got {threshold['parse_threshold']!r}")
        try:  # the adapter's own checks, such as a known format and ts_format
            adapters.append(
                SourceAdapterSpec(
                    source=typed_value(origin, item, "source", str, where),
                    format=typed_value(origin, item, "format", str, where),
                    field_map={str(k): typed_value(origin, table, k, str, f"{where}field_map.") for k in table},
                    default_year=item.get("default_year"),  # SourceAdapterSpec checks it
                    **_present(origin, item, where, trust_origin=str, ts_format=str, file_pattern=str),
                    **threshold,
                )
            )
        except ConfigError as exc:
            raise ConfigError(f"{origin}: adapters[{i}]: {exc}")
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
    return load_yaml(path) if path else _packaged_yaml("rules.yml")


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
        name = typed_value(origin, item, "name", str, f"categories[{i}].")
        try:
            categories.append(CategorySpec(name=name, prefix=item["prefix"], patterns=patterns))
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
    weights = {str(k): typed_value(origin, table, k, int, "weights.") for k in table}
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
    benign = {}
    if benign_doc.get("active_hours") is not None:
        benign["active_start_s"], benign["active_end_s"] = _parse_active_hours(origin, benign_doc["active_hours"])
    if "activity_set" in benign_doc:
        benign["activity_set"] = tuple(string_list(origin, benign_doc, "activity_set", "benign."))
    start = {}
    if "start" in doc:
        # an unquoted YAML timestamp loads as a datetime, or a date
        value = doc["start"] if isinstance(doc["start"], date) else typed_value(origin, doc, "start", str)
        try:
            start["start_ms"] = parse_timestamp(str(value)).ts_ms
        except ParseError as exc:
            raise ConfigError(f"{origin}: 'start': {exc}")
    attack_doc = object_field(origin, doc, "attack")
    try:  # the spec types' own checks, such as min_interval_s <= max_interval_s
        return ScenarioSpec(
            scenario_id=typed_value(origin, doc, "scenario_id", str),
            seed=typed_value(origin, doc, "seed", int, "", 0),
            hosts=tuple(
                HostSpec(name=typed_value(origin, h, "name", str, f"hosts[{i}]."), **_present(origin, h, f"hosts[{i}].", profile=str))
                for i, h in enumerate(object_list(origin, doc, "hosts", ("name",)))
            ),
            sources=tuple(string_list(origin, doc, "sources")),
            **start,
            **_present(origin, doc, duration_s=int),
            benign=BenignConfig(
                **_present(origin, benign_doc, "benign.", n_activities=int, min_interval_s=float, max_interval_s=float), **benign
            ),
            **{f"attack_{key}": value for key, value in _present(origin, attack_doc, "attack.", template=str, start_s=int).items()},
        )
    except ScenarioError as exc:
        raise ScenarioError(f"{origin}: {exc}")


def template_from_doc(doc: Any, origin: str) -> AttackTemplate:
    doc = _document(origin, doc)
    _required(origin, doc, ("template_id", "steps"), "attack template")
    steps = []
    for i, item in enumerate(object_list(origin, doc, "steps", ("step",))):
        where = f"steps[{i}]."
        events = tuple(
            AttackEventSpec(
                source=typed_value(origin, ev, "source", str, f"{where}events[{j}]."),
                fields={str(k): v for k, v in ev.items() if k not in ("source", "offset_s")},
                **_present(origin, ev, f"{where}events[{j}].", offset_s=float),
            )
            for j, ev in enumerate(object_list(origin, item, "events", ("source",), where))
        )
        steps.append(
            AttackStepSpec(
                step=parse_step(typed_value(origin, item, "step", str, where), f"{origin}: {where}'step': "),
                offset_s=float(typed_value(origin, item, "offset_s", float, where, 0)),
                technique_ids=tuple(string_list(origin, item, "technique_ids", where)),
                events=events,
            )
        )
    try:  # the template's own checks, such as non-decreasing step offsets
        return AttackTemplate(
            template_id=typed_value(origin, doc, "template_id", str),
            steps=tuple(steps),
            omit=frozenset(
                parse_step(name, f"{origin}: omit[{j}]: ") for j, name in enumerate(string_list(origin, doc, "omit"))
            ),
            **_present(origin, doc, attack_user=str, description=str),
        )
    except ScenarioError as exc:
        raise ScenarioError(f"{origin}: {exc}")


def load_template(path: Path) -> AttackTemplate:
    return template_from_doc(load_yaml(path), str(path))


def packaged_template_ids() -> List[str]:
    return sorted(p.name[: -len(".yml")] for p in _packaged("templates").iterdir() if p.name.endswith(".yml"))


def load_packaged_template(template_id: str) -> AttackTemplate:
    try:
        doc = _packaged_yaml("templates", f"{template_id}.yml")
    except FileNotFoundError:
        raise ScenarioError(f"no packaged attack template named {template_id!r}; available: {packaged_template_ids()}")
    return template_from_doc(doc, f"packaged template {template_id}")


def load_packaged_scenario(name: str) -> ScenarioSpec:
    try:
        doc = _packaged_yaml("scenarios", f"{name}.yml")
    except FileNotFoundError:
        raise ScenarioError(f"no packaged scenario named {name!r}")
    return scenario_spec_from_doc(doc, f"packaged scenario {name}")
