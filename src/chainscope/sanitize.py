"""Stable pseudonymization of environment-specific identifiers.

Tokens are derived as ``PREFIX_`` plus the first 8 bytes of
SHA-256(salt || value) reduced modulo 10^6 and zero-padded to six digits,
so the same original maps to the same token across every log source and
every run under a fixed salt. Rare collisions (two originals hashing to
one token within a category) are resolved deterministically by appending
an incrementing counter byte to the hashed value until a free token is
found; identifiers are assigned in sorted order per category so the final
maps do not depend on processing order.

The token grammar PREFIX_DDDDDD is reserved: values that already look
like tokens are left alone, which makes sanitization idempotent.
Retain-listed values (well-known system accounts, placeholders) pass
through unchanged, and only identifier fields are rewritten -- ports,
protocols, IP addresses, event ordering, and everything else needed for
correlation stay exactly as collected.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Mapping, Optional, Pattern, Sequence, Set, Tuple

from .errors import SanitizeError
from .model import NormalizedEvent

CATEGORY_NAMES = ("host", "user", "resource", "path", "domain")

TOKEN_DIGITS = 6
_TOKEN_RE = re.compile(r"^[A-Z]+_\d{6}$")


@dataclass(frozen=True)
class CategorySpec:
    name: str
    prefix: str
    patterns: Tuple[str, ...] = ()  # extraction regexes; group 1 if present, else whole match

    def __post_init__(self) -> None:
        if self.name not in CATEGORY_NAMES:
            raise SanitizeError(f"unknown category {self.name!r}; valid: {CATEGORY_NAMES}")

    def compiled(self) -> Tuple[Pattern[str], ...]:
        return tuple(re.compile(p) for p in self.patterns)


@dataclass(frozen=True)
class PseudonymPolicy:
    categories: Tuple[CategorySpec, ...]
    retain_literals: FrozenSet[str]
    retain_patterns: Tuple[str, ...]
    domain_rewrite_suffixes: Tuple[str, ...]

    def __post_init__(self) -> None:
        prefixes = [c.prefix for c in self.categories]
        if len(set(prefixes)) != len(prefixes):
            raise SanitizeError("category prefixes must be unique")

    def compiled_retain(self) -> Tuple[Pattern[str], ...]:
        return tuple(re.compile(p) for p in self.retain_patterns)

    def category(self, name: str) -> CategorySpec:
        for spec in self.categories:
            if spec.name == name:
                return spec
        raise SanitizeError(f"unknown category {name!r}")


class PseudonymMap:
    """Per-category original -> token dictionary. The salt never lives here."""

    def __init__(self, mappings: Optional[Mapping[str, Mapping[str, str]]] = None, salt_ref: str = ""):
        self._maps: Dict[str, Dict[str, str]] = {}
        self._used: Dict[str, Set[str]] = {}
        self.salt_ref = salt_ref
        for category, entries in (mappings or {}).items():
            for original, token in entries.items():
                self._insert(category, original, token)

    def _insert(self, category: str, original: str, token: str) -> None:
        cat_map = self._maps.setdefault(category, {})
        used = self._used.setdefault(category, set())
        existing = cat_map.get(original)
        if existing is not None and existing != token:
            raise SanitizeError(f"conflicting token for {category}:{original!r}")
        if existing is None and token in used:
            raise SanitizeError(f"token collision in persisted map for {category}: {token}")
        cat_map[original] = token
        used.add(token)

    def get(self, category: str, original: str) -> Optional[str]:
        return self._maps.get(category, {}).get(original)

    def token_used(self, category: str, token: str) -> bool:
        return token in self._used.get(category, set())

    def add(self, category: str, original: str, token: str) -> None:
        self._insert(category, original, token)

    def to_dict(self) -> Dict[str, Dict[str, str]]:
        return {cat: dict(sorted(entries.items())) for cat, entries in sorted(self._maps.items())}

    def size(self) -> int:
        return sum(len(m) for m in self._maps.values())


def salt_reference(salt: bytes) -> str:
    return hashlib.sha256(b"salt-ref:" + salt).hexdigest()[:12]


def _digest_token(prefix: str, salt: bytes, material: bytes) -> str:
    digest = hashlib.sha256(salt + material).digest()
    number = int.from_bytes(digest[:8], "big") % (10 ** TOKEN_DIGITS)
    return f"{prefix}{number:0{TOKEN_DIGITS}d}"


def is_token(value: str) -> bool:
    return bool(_TOKEN_RE.match(value))


def pseudonymize_value(
    category: str,
    value: str,
    salt: bytes,
    pmap: PseudonymMap,
    policy: PseudonymPolicy,
) -> str:
    """Stable category-prefixed token for one identifier.

    Retain-listed values come back unchanged; collisions are resolved by
    hashing value + counter byte until a free token appears. The map is
    updated in place.
    """
    if not salt:
        raise SanitizeError("salt must be non-empty")
    spec = policy.category(category)
    if value in policy.retain_literals:
        return value
    for pattern in policy.compiled_retain():
        if pattern.match(value):
            return value
    if is_token(value):
        return value  # already sanitized
    existing = pmap.get(category, value)
    if existing is not None:
        return existing
    material = value.encode("utf-8")
    token = _digest_token(spec.prefix, salt, material)
    counter = 1
    while pmap.token_used(category, token):
        token = _digest_token(spec.prefix, salt, material + bytes([counter % 256]))
        counter += 1
        if counter > 10_000:
            raise SanitizeError(f"could not resolve token collision for {category}:{value!r}")
    pmap.add(category, value, token)
    return token


@dataclass(frozen=True)
class SanitizeReport:
    replacements: Mapping[str, int]  # category -> occurrence count
    identifiers: Mapping[str, int]  # category -> distinct originals mapped

    @property
    def total_replacements(self) -> int:
        return sum(self.replacements.values())


def _collect_identifiers(
    tables: Mapping[str, Sequence[NormalizedEvent]], policy: PseudonymPolicy
) -> Dict[str, Set[str]]:
    """First pass: gather every identifier per category across all sources."""
    found: Dict[str, Set[str]] = {spec.name: set() for spec in policy.categories}
    retain = policy.compiled_retain()

    def keep(value: str) -> bool:
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
            texts = [event.text_blob or "", event.process.cmdline or "", event.process.image or ""]
            texts.extend(str(v) for v in event.extras.values())
            for spec in policy.categories:
                if not spec.patterns:
                    continue
                for pattern in spec.compiled():
                    for text in texts:
                        for match in pattern.finditer(text):
                            value = match.group(1) if match.groups() else match.group(0)
                            if spec.name == "domain" and not _domain_rewritable(value, policy):
                                continue
                            if keep(value):
                                found[spec.name].add(value)
    return found


def _domain_rewritable(domain: str, policy: PseudonymPolicy) -> bool:
    """Public Internet FQDNs are preserved; only configured suffixes rewrite."""
    return any(domain.endswith(suffix) for suffix in policy.domain_rewrite_suffixes)


def _substitute(text: str, ordered: Sequence[Tuple[str, str]], counts: Dict[str, int], cat_of: Mapping[str, str]) -> str:
    for original, token in ordered:
        if original in text:
            hits = text.count(original)
            text = text.replace(original, token)
            counts[cat_of[original]] = counts.get(cat_of[original], 0) + hits
    return text


def sanitize_dataset(
    tables: Mapping[str, Sequence[NormalizedEvent]],
    policy: PseudonymPolicy,
    salt: bytes,
    pmap: Optional[PseudonymMap] = None,
) -> Tuple[Dict[str, List[NormalizedEvent]], PseudonymMap, SanitizeReport]:
    """Rewrite every category-matched identifier across all sources.

    Identifier occurrences are replaced everywhere they appear, including
    as substrings of file paths and command lines. IPs, ports, protocols,
    timestamps, and source names are untouched. Returns sanitized tables,
    the updated map, and a per-category replacement report.
    """
    if not salt:
        raise SanitizeError("salt must be non-empty")
    pmap = pmap if pmap is not None else PseudonymMap(salt_ref=salt_reference(salt))
    if not pmap.salt_ref:
        pmap.salt_ref = salt_reference(salt)

    identifiers = _collect_identifiers(tables, policy)
    tokens: Dict[str, str] = {}
    cat_of: Dict[str, str] = {}
    mapped_counts: Dict[str, int] = {}
    for spec in policy.categories:
        values = sorted(identifiers.get(spec.name, ()))
        mapped_counts[spec.name] = len(values)
        for value in values:
            tokens[value] = pseudonymize_value(spec.name, value, salt, pmap, policy)
            cat_of[value] = spec.name
    # longest-first so "alice-laptop" is rewritten before "alice"
    ordered = sorted(tokens.items(), key=lambda item: (-len(item[0]), item[0]))

    counts: Dict[str, int] = {}
    sanitized: Dict[str, List[NormalizedEvent]] = {}
    for source, events in tables.items():
        out: List[NormalizedEvent] = []
        for event in events:
            host = event.host
            if host is not None and host in tokens:
                counts[cat_of[host]] = counts.get(cat_of[host], 0) + 1
                host = tokens[host]
            user = event.user
            if user is not None and user in tokens:
                counts[cat_of[user]] = counts.get(cat_of[user], 0) + 1
                user = tokens[user]
            proc = event.process
            new_proc = proc
            if proc.image or proc.cmdline:
                new_proc = replace(
                    proc,
                    image=_substitute(proc.image, ordered, counts, cat_of) if proc.image else proc.image,
                    cmdline=_substitute(proc.cmdline, ordered, counts, cat_of) if proc.cmdline else proc.cmdline,
                )
            text_blob = _substitute(event.text_blob, ordered, counts, cat_of) if event.text_blob else event.text_blob
            extras = event.extras
            if extras:
                new_extras = {k: _substitute(v, ordered, counts, cat_of) for k, v in extras.items()}
                if new_extras != dict(extras):
                    extras = new_extras
            if host is event.host and user is event.user and new_proc is proc and text_blob is event.text_blob and extras is event.extras:
                out.append(event)
            else:
                out.append(replace(event, host=host, user=user, process=new_proc, text_blob=text_blob, extras=extras))
        sanitized[source] = out
    report = SanitizeReport(
        replacements=dict(sorted(counts.items())),
        identifiers=dict(sorted(mapped_counts.items())),
    )
    return sanitized, pmap, report
