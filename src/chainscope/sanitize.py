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
import itertools
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Mapping, Optional, Pattern, Sequence, Set, Tuple

from .errors import ParseError, SanitizeError
from .model import NormalizedEvent, object_field, parse_regex, read_json, write_json
from .tagging import required_literals

CATEGORY_NAMES = ("host", "user", "resource", "path", "domain")

TOKEN_DIGITS = 6
# ASCII digits only; \Z, unlike $, does not let a trailing newline through
_TOKEN_RE = re.compile(r"[A-Z]+_[0-9]{6}\Z")


@dataclass(frozen=True)
class CategorySpec:
    name: str
    prefix: str
    patterns: Tuple[str, ...] = ()  # extraction regexes; group 1 if present, else whole match

    def __post_init__(self) -> None:
        if self.name not in CATEGORY_NAMES:
            raise SanitizeError(f"unknown category {self.name!r}; valid: {CATEGORY_NAMES}")
        if not (isinstance(self.prefix, str) and is_token(self.prefix + "0" * TOKEN_DIGITS)):  # its tokens must be tokens
            raise SanitizeError(f"prefix must be ASCII capital letters followed by '_', got {self.prefix!r}")

    def compiled(self) -> Tuple[Pattern[str], ...]:
        return tuple(re.compile(p) for p in self.patterns)


@dataclass(frozen=True)
class PseudonymPolicy:
    categories: Tuple[CategorySpec, ...]
    retain_literals: FrozenSet[str]
    retain_patterns: Tuple[str, ...]
    domain_rewrite_suffixes: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len({c.name for c in self.categories}) != len(self.categories):
            raise SanitizeError("category names must be unique")
        if len({c.prefix for c in self.categories}) != len(self.categories):
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
                self.add(category, original, token)

    def add(self, category: str, original: str, token: str) -> None:
        """Map original to token in category; a second token for original,
        or a token another original holds, raises SanitizeError."""
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

    def to_dict(self) -> Dict[str, Dict[str, str]]:
        return {cat: dict(sorted(entries.items())) for cat, entries in sorted(self._maps.items())}


def read_mappings(directory: Path, policy: PseudonymPolicy, salt: bytes) -> PseudonymMap:
    """The map write_mappings left in directory, one <category>.json per category.

    A file without 'salt_ref' or 'category' (written by hand) is taken as
    this salt's and its name's. A file of another salt, of another category
    or of one the policy lacks, or a token that is not PREFIX_DDDDDD with
    its category's prefix raises, naming the file.
    """
    salt_ref = salt_reference(salt)
    prefixes = {spec.name: spec.prefix for spec in policy.categories}
    persisted = {}
    for path in sorted(Path(directory).glob("*.json")):
        doc = read_json(path)
        for key, expected in (("salt_ref", salt_ref), ("category", path.stem)):
            if key in doc and doc[key] != expected:
                raise SanitizeError(f"mapping file {path}: {key!r} is {doc[key]!r}, expected {expected!r}")
        prefix = prefixes.get(path.stem)
        if prefix is None:
            raise SanitizeError(f"mapping file {path}: the policy has no category {path.stem!r}; it has {sorted(prefixes)}")
        entries = object_field(path, doc, "mappings")
        for original, token in entries.items():
            if not isinstance(token, str) or not is_token(token) or not token.startswith(prefix):
                raise ParseError(f"mapping file {path}: the token of {original!r} is not a {prefix}DDDDDD token: {token!r}")
        persisted[path.stem] = entries
    return PseudonymMap(persisted, salt_ref=salt_ref)


def write_mappings(directory: Path, pmap: PseudonymMap) -> None:
    """Write each category of pmap to directory/<category>.json, as read_mappings reads it."""
    Path(directory).mkdir(parents=True, exist_ok=True)
    for category, mapping in pmap.to_dict().items():
        write_json(Path(directory) / f"{category}.json", {"category": category, "salt_ref": pmap.salt_ref, "mappings": mapping})


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


def _distinct_values(tables: Mapping[str, Sequence[NormalizedEvent]]) -> Tuple[Set[Optional[str]], Set[Optional[str]], Set[str]]:
    """Every distinct host, user and non-empty text (image, cmdline,
    text_blob and extras values) across all sources."""
    hosts = {e.host for events in tables.values() for e in events}
    users = {e.user for events in tables.values() for e in events}
    texts = {e.text_blob for events in tables.values() for e in events}
    texts |= {e.cmdline for events in tables.values() for e in events}
    texts |= {e.image for events in tables.values() for e in events}
    texts |= {v for events in tables.values() for e in events for v in e.extras.values()}
    texts -= {None, ""}
    return hosts, users, texts


def _collect_identifiers(
    hosts: Set[Optional[str]], users: Set[Optional[str]], texts: Set[str], policy: PseudonymPolicy
) -> Dict[str, Set[str]]:
    """First pass: gather every identifier per category from the distinct
    values of ``_distinct_values``.

    A pattern runs only on the texts that hold one of its required literals
    (``tagging.required_literals``); a text without any cannot match.
    """
    found: Dict[str, Set[str]] = {spec.name: set() for spec in policy.categories}
    retain = policy.compiled_retain()

    def keep(value: str) -> bool:
        if not value or value in policy.retain_literals or is_token(value):
            return False
        return not any(p.match(value) for p in retain)

    for name, values in (("host", hosts), ("user", users)):
        if name in found:
            found[name].update(v for v in values if v and keep(v))
    for spec in policy.categories:
        scanned = texts
        if spec.name == "domain":  # a kept domain ends with a rewrite suffix, so its text holds one
            scanned = {t for suffix in policy.domain_rewrite_suffixes for t in texts if suffix in t}
        for source, pattern in zip(spec.patterns, spec.compiled()):
            literals, fold = required_literals(parse_regex(source))
            if literals is None:
                candidates = scanned
            elif fold:  # as tagging's prefilter: lowered literals, looked for in lowered ASCII text only
                candidates = {t for literal in literals for t in scanned if not t.isascii() or literal in t.lower()}
            else:
                candidates = {t for literal in literals for t in scanned if literal in t}
            for text in candidates:
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
    """Replace the originals in text by their tokens, one original after
    another in ``ordered``'s order, but never inside a token already put in.

    When several originals occur, each first becomes one private-use
    character that text does not hold, so no later original can match in
    or across it; the marks become their tokens at the end. Returns text
    itself when no original occurs in it.
    """
    pairs = iter(ordered)
    for original, token in pairs:
        if original in text:
            break
    else:
        return text
    later = [(o, t) for o, t in pairs if o in text]
    if not later:  # one original: no token to protect
        counts[cat_of[original]] = counts.get(cat_of[original], 0) + text.count(original)
        return text.replace(original, token)
    free_marks = (mark for mark in map(chr, itertools.count(0xE000)) if mark not in text)
    out = text
    placed = []
    for (original, token), mark in zip([(original, token), *later], free_marks):
        found = out.count(original)
        if found:  # an earlier, longer original may have taken every occurrence
            counts[cat_of[original]] = counts.get(cat_of[original], 0) + found
            out = out.replace(original, mark)
            placed.append((mark, token))
    for mark, token in placed:
        out = out.replace(mark, token)
    return out


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

    hosts, users, texts = _distinct_values(tables)
    identifiers = _collect_identifiers(hosts, users, texts, policy)
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

    # each distinct text is rewritten once: the texts that change, with their
    # rewrite and its per-category replacements, counted again per occurrence
    rewritten: Dict[str, Tuple[str, Tuple[Tuple[str, int], ...]]] = {}
    for text in texts:
        found: Dict[str, int] = {}
        new = _substitute(text, ordered, found, cat_of)
        if new is not text:
            rewritten[text] = (new, tuple(found.items()))

    counts: Dict[str, int] = {}

    def rewrite(text: Optional[str]) -> Optional[str]:
        """text's rewrite, counted, or text itself when nothing in it changes."""
        hit = rewritten.get(text)
        if hit is None:
            return text
        for category, n in hit[1]:
            counts[category] = counts.get(category, 0) + n
        return hit[0]

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
            image, cmdline, text_blob = rewrite(event.image), rewrite(event.cmdline), rewrite(event.text_blob)
            extras = event.extras
            if extras and not rewritten.keys().isdisjoint(extras.values()):
                extras = {k: rewrite(v) for k, v in extras.items()}
            # rewrite returns its argument itself when nothing changed
            if (
                host is event.host
                and user is event.user
                and image is event.image
                and cmdline is event.cmdline
                and text_blob is event.text_blob
                and extras is event.extras
            ):
                out.append(event)
            else:
                out.append(
                    NormalizedEvent(
                        event.event_id,
                        event.ts,
                        event.scenario_id,
                        event.source,
                        event.trust_origin,
                        host,
                        user,
                        event.pid,
                        event.ppid,
                        image,
                        cmdline,
                        event.src_ip,
                        event.src_port,
                        event.dst_ip,
                        event.dst_port,
                        event.proto,
                        text_blob,
                        extras,
                    )
                )
        sanitized[source] = out
    report = SanitizeReport(
        replacements=dict(sorted(counts.items())),
        identifiers=dict(sorted(mapped_counts.items())),
    )
    return sanitized, pmap, report
