"""Near-RT RIC skeleton: message router, shared data layer, xApp registry.

xApps run cooperatively: the frame loop drains message queues between radio
frames and dispatches synchronously, so no component ever observes a
partially advanced frame. The router is the only cross-xApp channel.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

from . import e2
from .core import FRAME_MS
from .e2 import DecodeError, E2Message, MsgKind


class RegistrationError(ValueError):
    pass


class SubscriptionError(ValueError):
    pass


@dataclass
class AuditLog:
    """Append-only JSON-lines audit trail (dead letters, replays, decisions).

    Every record is stamped here with its frame: `time_ms` first, then
    `actor`, `action` and `detail`, then `frame`, then any extra keys.
    """

    entries: list[dict] = field(default_factory=list)

    def record(self, frame: int, actor: str, action: str, detail: str, **extra: Any) -> None:
        entry = {"time_ms": frame * FRAME_MS, "actor": actor, "action": action,
                 "detail": detail, "frame": frame}
        entry.update(extra)
        self.entries.append(entry)

    def scan(self, action: str) -> list[dict]:
        return [e for e in self.entries if e["action"] == action]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for entry in self.entries:
                fh.write(json.dumps(entry) + "\n")


class Sdl:
    """In-memory shared data layer: namespaced keys, per-key write versions."""

    def __init__(self) -> None:
        self._store: dict[tuple[str, str], tuple[bytes, int]] = {}

    def put(self, namespace: str, key: str, value: bytes) -> int:
        if not isinstance(value, bytes):
            raise TypeError("SDL values are byte sequences")
        _, version = self._store.get((namespace, key), (b"", 0))
        version += 1
        self._store[(namespace, key)] = (value, version)
        return version

    def get(self, namespace: str, key: str) -> tuple[bytes, int] | None:
        return self._store.get((namespace, key))

    def delete(self, namespace: str, key: str) -> None:
        self._store.pop((namespace, key), None)

    def snapshot(self) -> dict[str, dict[str, str]]:
        out: dict[str, dict[str, str]] = {}
        for (ns, key), (value, version) in self._store.items():
            out.setdefault(ns, {})[key] = f"v{version}:{value.hex()}"
        return out


class SdlWindow:
    """Bounded JSON lists under one SDL namespace, held in memory and written through.

    The intrusion xApp keeps each UE's report window in one. `load` turns a
    decoded JSON value into an item and `dump` an item into its JSON text,
    which must equal `json.dumps` of the value `load` was given. Per key the
    window caches the bytes last put or read, the items and their texts, so
    an append costs one get, one join and one put. It decodes the stored
    bytes only when they are not that object, which means another writer
    replaced them; the version cannot tell, since a delete then a put
    restarts it at 1.
    """

    def __init__(self, sdl: Sdl, namespace: str, keep: int, load: Callable, dump: Callable) -> None:
        self.sdl, self.namespace, self.keep = sdl, namespace, keep
        self._load, self._dump = load, dump
        self._cache: dict[str, tuple[bytes, list, list[str]]] = {}

    def _entry(self, key: str) -> tuple[bytes, list, list[str]]:
        stored = self.sdl.get(self.namespace, key)
        if stored is None:
            return b"", [], []
        cached = self._cache.get(key)
        if cached is None or cached[0] is not stored[0]:
            items = [self._load(v) for v in json.loads(stored[0])]
            cached = self._cache[key] = (stored[0], items, [self._dump(x) for x in items])
        return cached

    def append(self, key: str, item: Any) -> list:
        """Append `item`, keep the newest `keep`, put the window back and return it."""
        _, items, texts = self._entry(key)
        items.append(item)
        texts.append(self._dump(item))
        del items[: -self.keep], texts[: -self.keep]
        data = ("[" + ", ".join(texts) + "]").encode()  # == json.dumps(items), byte for byte
        self.sdl.put(self.namespace, key, data)
        self._cache[key] = (data, items, texts)
        return items


@dataclass(frozen=True)
class InternalMessage:
    """xApp-to-xApp message routed alongside E2 traffic, keyed by a kind string."""

    kind: str
    payload: Any


RoutableKind = MsgKind | str
Handler = Callable[[Any], None]


class Router:
    """Pub/sub by message kind with per-source FIFO delivery.

    E2 ingress decodes frames, drops stale sequence numbers with an audit
    record, and fans each message out to every subscriber of its kind in
    subscription order. A message with no subscriber lands in the
    dead-letter log, which is not an error. `frame` is the RIC's one clock:
    the registry sets it at each frame boundary, and the router's and every
    xApp's audit records carry it.
    """

    def __init__(self, audit: AuditLog) -> None:
        self.audit = audit
        self._handlers: dict[RoutableKind, list[tuple[str, Handler]]] = {}
        self._last_seq: dict[tuple[int, int], int] = {}
        self.frame = 0

    def subscribe(self, xapp: str, kinds: set[RoutableKind] | list[RoutableKind], handler: Handler) -> None:
        for kind in kinds:
            subs = self._handlers.setdefault(kind, [])
            if any(name == xapp for name, _ in subs):
                raise SubscriptionError(f"{xapp} already subscribed to {kind}")
            subs.append((xapp, handler))

    def ingest_frame(self, data: bytes) -> None:
        """Decode one RAN frame, enforce seq monotonicity, then route."""
        try:
            msg = e2.decode(data)
        except DecodeError as err:
            self.audit.record(self.frame, "router", "decode_error", str(err))
            return
        conn = (msg.cell, msg.e2)
        last = self._last_seq.get(conn, 0)
        if msg.seq <= last:
            self.audit.record(
                self.frame,
                "router",
                "replay_dropped",
                f"seq {msg.seq} <= last {last} on cell {msg.cell} e2 {msg.e2}",
            )
            return
        self._last_seq[conn] = msg.seq
        self.route(msg)

    def route(self, msg: E2Message | InternalMessage) -> None:
        subs = self._handlers.get(msg.kind, ())
        for _, handler in subs:
            handler(msg)
        if not subs:
            kind = msg.kind
            name = kind.name if isinstance(kind, MsgKind) else kind
            self.audit.record(self.frame, "router", "dead_letter", f"no subscriber for {name}")


@dataclass
class XappContext:
    """Handles an xApp is built with: router, SDL, audit, and the RIC's E2 send."""

    router: Router
    sdl: Sdl
    audit: AuditLog
    send_e2: Callable[[MsgKind, Any], None]


class Xapp:
    """Base xApp, built wired: a subclass subscribes in `__init__`. Its
    `frame` reads the router's, the RIC's one clock."""

    name = "xapp"

    def __init__(self, ctx: XappContext) -> None:
        self.ctx = ctx

    @property
    def frame(self) -> int:
        return self.ctx.router.frame

    def on_frame_boundary(self, frame: int) -> None:
        """Boundary work, for a subclass to override; the base has none."""

    def record(self, action: str, detail: str, **extra: Any) -> None:
        """Audit `action` as this xApp at the current frame."""
        self.ctx.audit.record(self.frame, self.name, action, detail, **extra)


class XappRegistry:
    """The registered xApps, by name, in registration order.

    `frame_boundary` sets the router's frame, then calls `on_frame_boundary`
    only on the xApps whose class overrides it, so every xApp reads the new
    frame before any of them does boundary work.
    """

    def __init__(self, router: Router) -> None:
        self.router = router
        self._xapps: dict[str, Xapp] = {}
        self._hooked: list[Xapp] = []  # those overriding on_frame_boundary

    def register(self, xapp: Xapp) -> None:
        if xapp.name in self._xapps:
            raise RegistrationError(f"xApp {xapp.name!r} already registered")
        self._xapps[xapp.name] = xapp
        if type(xapp).on_frame_boundary is not Xapp.on_frame_boundary:
            self._hooked.append(xapp)

    def frame_boundary(self, frame: int) -> None:
        self.router.frame = frame
        for xapp in self._hooked:
            xapp.on_frame_boundary(frame)
