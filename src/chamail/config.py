"""The proxy's configuration file: where it listens, its TLS files, the
store it reads, and per-account upstream overrides.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError


@dataclass(frozen=True)
class UpstreamOverride:
    host: str
    port: int
    use_tls: bool = False


@dataclass(frozen=True)
class ProxyConfig:
    store_path: str
    listen_host: str = "127.0.0.1"
    listen_port: int = 1143
    tls_certfile: str | None = None
    tls_keyfile: str | None = None
    upstream_overrides: dict[str, UpstreamOverride] = field(default_factory=dict)

    @classmethod
    def from_json(cls, obj) -> "ProxyConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config root must be an object")
        try:
            store_path = obj["store"]
            listen = obj.get("listen", {})
            host = listen.get("host", "127.0.0.1")
            port = int(listen.get("port", 1143))
            tls = obj.get("tls")
            certfile = keyfile = None
            if tls is not None:
                certfile = tls["certfile"]
                keyfile = tls["keyfile"]
            overrides = {}
            for email_key, ov in obj.get("upstream_overrides", {}).items():
                overrides[email_key.lower()] = UpstreamOverride(
                    ov["host"], int(ov["port"]), bool(ov.get("use_tls", False))
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad config: {exc}") from exc
        if not isinstance(store_path, str):
            raise ConfigError("store path must be a string")
        if not 1 <= port <= 65535:
            raise ConfigError(f"listen port {port} out of range")
        return cls(store_path, host, port, certfile, keyfile, overrides)


def load_config(path: str | Path) -> ProxyConfig:
    try:
        with open(path, "rb") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return ProxyConfig.from_json(obj)
