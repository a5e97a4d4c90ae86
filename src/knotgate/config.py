"""Server configuration: TOML-style sections of key = value pairs.

Supported values: quoted strings, integers, booleans, and lists of quoted
strings.  Paths in the [load] section are resolved relative to the config
file's directory.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .model import data_lines


class ConfigError(ValueError):
    pass


@dataclass
class HttpConfig:
    enabled: bool = True
    host: str = "127.0.0.1"
    port: int = 8080


@dataclass
class MqttConfig:
    enabled: bool = False
    broker_url: str = ""


@dataclass
class CoapConfig:
    enabled: bool = False
    host: str = "127.0.0.1"
    port: int = 5683


@dataclass
class LoadConfig:
    sensors: list[str] = field(default_factory=list)
    rulepacks: list[str] = field(default_factory=list)
    packs: list[str] = field(default_factory=list)


@dataclass
class AppConfig:
    http: HttpConfig = field(default_factory=HttpConfig)
    mqtt: MqttConfig = field(default_factory=MqttConfig)
    coap: CoapConfig = field(default_factory=CoapConfig)
    load: LoadConfig = field(default_factory=LoadConfig)


_SECTION_RE = re.compile(r"\[([a-z]+)\]\Z")
_KEY_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _parse_value(raw: str, lineno: int) -> object:
    raw = raw.strip()
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    if raw in ("true", "false"):
        return raw == "true"
    if raw.startswith("[") and raw.endswith("]"):
        inner = raw[1:-1].strip()
        if not inner:
            return []
        items = []
        for part in inner.split(","):
            part = part.strip()
            if not (part.startswith('"') and part.endswith('"') and len(part) >= 2):
                raise ConfigError(f"line {lineno}: list items must be quoted strings")
            items.append(part[1:-1])
        return items
    if re.fullmatch(r"-?\d+", raw):
        return int(raw)
    raise ConfigError(f"line {lineno}: cannot parse value {raw!r}")


def parse_sections(text: str) -> dict[str, dict[str, object]]:
    sections: dict[str, dict[str, object]] = {}
    current: dict[str, object] | None = None
    for lineno, line in data_lines(text):
        m = _SECTION_RE.match(line)
        if m:
            current = sections.setdefault(m.group(1), {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"line {lineno}: bad key {key!r}")
        current[key] = _parse_value(value, lineno)
    return sections


def _apply(target: object, section: dict[str, object], name: str) -> None:
    for key, value in section.items():
        if not hasattr(target, key):
            raise ConfigError(f"unknown key {key!r} in [{name}]")
        current = getattr(target, key)
        if type(value) is not type(current):
            raise ConfigError(f"[{name}] {key}: expected {type(current).__name__}")
        setattr(target, key, value)


def parse_config(text: str) -> AppConfig:
    sections = parse_sections(text)
    cfg = AppConfig()
    known = {"http": cfg.http, "mqtt": cfg.mqtt, "coap": cfg.coap, "load": cfg.load}
    for name, section in sections.items():
        if name not in known:
            raise ConfigError(f"unknown section [{name}]")
        _apply(known[name], section, name)
    return cfg


def load_config(path: str | Path) -> tuple[AppConfig, Path]:
    """Parse a config file; returns the config and its directory (for paths)."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from None
    cfg = parse_config(text)
    return cfg, p.parent
