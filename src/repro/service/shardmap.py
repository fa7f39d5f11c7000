"""The shard map: which shard owns which texts, and where it lives.

A scatter-gather deployment splits the corpus into shards of contiguous
text-id ranges (exactly :class:`~repro.index.sharded.ShardedIndex`'s
partitioning), serves each shard from its own search server, and fans
queries out to all of them.  The map is the piece both parties share:

* the **router** reads it to know the shard endpoints and the
  ``first_text`` offset that translates each shard's local text ids
  back to global corpus ids;
* the **fleet launcher** (``repro-cli serve-shards``) writes it next to
  the ``shard<i>/`` directories it serves.

The fleet only reads: every shard is built offline, so the map assigns
no new texts.  Format 2 adds **replica sets**: each shard names a *list*
of endpoints serving identical copies of that shard's index, so capacity
grows by adding replicas without touching the partition, and the router
can balance, fail over, and hedge across them.  The serialized form is
one JSON document, ``shardmap.json``::

    {"format": 2,
     "shards": [{"name": "shard0", "first_text": 0, "count": 500,
                 "replicas": [{"host": "127.0.0.1", "port": 8101},
                              {"host": "127.0.0.1", "port": 8103}]},
                ...]}

Format-1 documents (one ``host``/``port`` per shard) still load and are
promoted to one-replica sets.  Both formats may carry the vnode count of
a consistent-hash ring an earlier build kept (format 1 under
``"replicas"``, format 2 under ``"ring_replicas"``); loading ignores
it, and a re-save drops it.
"""

from __future__ import annotations

import bisect
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.exceptions import InvalidParameterError
from repro.index.lsm.manifest import _fsync_directory

_FORMAT_VERSION = 2
_READABLE_FORMATS = (1, 2)


@dataclass(frozen=True)
class Replica:
    """One endpoint serving a full copy of a shard's index."""

    host: str
    port: int

    @property
    def endpoint(self) -> str:
        """The ``host:port`` string used as the replica's stats key."""
        return f"{self.host}:{self.port}"

    def to_dict(self) -> dict[str, Any]:
        return {"host": self.host, "port": int(self.port)}

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "Replica":
        try:
            return cls(host=str(raw["host"]), port=int(raw["port"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidParameterError(f"malformed replica entry {raw!r}: {exc}")


@dataclass(frozen=True)
class ShardEntry:
    """One shard: its replica endpoints and the text-id range it serves.

    The shard's own index numbers texts locally from 0; ``first_text``
    is the offset back to global corpus ids (the router adds it to
    every ``text_id`` in the shard's answers).  ``replicas`` holds one
    or more endpoints serving identical copies of the shard; ``host``/
    ``port`` always describe the *primary* (first) replica, so format-1
    era callers keep working unchanged.
    """

    name: str
    host: str | None = None
    port: int | None = None
    first_text: int = 0
    count: int = 0
    replicas: tuple[Replica, ...] = field(default=())

    def __post_init__(self) -> None:
        replicas = tuple(self.replicas)
        if not replicas:
            if self.host is None or self.port is None:
                raise InvalidParameterError(
                    f"shard {self.name!r} needs either host/port or a "
                    "non-empty replica list"
                )
            replicas = (Replica(str(self.host), int(self.port)),)
        endpoints = [replica.endpoint for replica in replicas]
        if len(set(endpoints)) != len(endpoints):
            raise InvalidParameterError(
                f"shard {self.name!r} lists duplicate replica endpoints "
                f"{endpoints}"
            )
        object.__setattr__(self, "replicas", replicas)
        object.__setattr__(self, "host", replicas[0].host)
        object.__setattr__(self, "port", replicas[0].port)

    @property
    def primary(self) -> Replica:
        """The first replica, the one ``pick-first`` routes to."""
        return self.replicas[0]

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "first_text": int(self.first_text),
            "count": int(self.count),
            "replicas": [replica.to_dict() for replica in self.replicas],
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ShardEntry":
        try:
            name = str(raw["name"])
            first_text = int(raw["first_text"])
            count = int(raw["count"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidParameterError(f"malformed shard entry {raw!r}: {exc}")
        if "replicas" in raw:
            replicas = raw["replicas"]
            if not isinstance(replicas, list) or not replicas:
                raise InvalidParameterError(
                    f"shard {name!r} has an empty or non-list 'replicas'"
                )
            return cls(
                name=name,
                first_text=first_text,
                count=count,
                replicas=tuple(Replica.from_dict(entry) for entry in replicas),
            )
        # Format-1 entry: one endpoint, promoted to a one-replica set.
        try:
            return cls(
                name=name,
                host=str(raw["host"]),
                port=int(raw["port"]),
                first_text=first_text,
                count=count,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidParameterError(f"malformed shard entry {raw!r}: {exc}")


class ShardMap:
    """Shard entries ordered by text range, validated to tile it."""

    def __init__(self, entries: Sequence[ShardEntry]) -> None:
        if not entries:
            raise InvalidParameterError("a shard map needs at least one shard")
        ordered = sorted(entries, key=lambda entry: entry.first_text)
        expected = 0
        seen_endpoints: dict[str, str] = {}
        for entry in ordered:
            if entry.first_text != expected:
                raise InvalidParameterError(
                    f"shard text ranges must be contiguous; expected start "
                    f"{expected}, got {entry.first_text} ({entry.name})"
                )
            if entry.count < 0:
                raise InvalidParameterError(
                    f"shard {entry.name} has negative count {entry.count}"
                )
            for replica in entry.replicas:
                owner = seen_endpoints.setdefault(replica.endpoint, entry.name)
                if owner != entry.name:
                    raise InvalidParameterError(
                        f"replica {replica.endpoint} serves both {owner} and "
                        f"{entry.name}; an endpoint holds one shard's data"
                    )
            expected += entry.count
        self.entries: list[ShardEntry] = ordered
        self._by_name = {entry.name: entry for entry in ordered}
        self._starts = [entry.first_text for entry in ordered]

    # -- lookups --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, name: str) -> ShardEntry:
        return self._by_name[name]

    @property
    def num_texts(self) -> int:
        return sum(entry.count for entry in self.entries)

    @property
    def num_replicas(self) -> int:
        """Total replica endpoints across every shard."""
        return sum(len(entry.replicas) for entry in self.entries)

    def locate(self, text_id: int) -> tuple[ShardEntry, int]:
        """``(owning shard, local text id)`` of a *built* global text id."""
        text_id = int(text_id)
        if not 0 <= text_id < self.num_texts:
            raise InvalidParameterError(
                f"text id {text_id} outside [0, {self.num_texts})"
            )
        slot = bisect.bisect_right(self._starts, text_id) - 1
        entry = self.entries[slot]
        return entry, text_id - entry.first_text

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "format": _FORMAT_VERSION,
            "shards": [entry.to_dict() for entry in self.entries],
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ShardMap":
        if not isinstance(raw, dict):
            raise InvalidParameterError("shard map must be a JSON object")
        version = raw.get("format")
        if version not in _READABLE_FORMATS:
            raise InvalidParameterError(
                f"unsupported shard map format {version!r} "
                f"(this build reads formats {list(_READABLE_FORMATS)})"
            )
        shards = raw.get("shards")
        if not isinstance(shards, list) or not shards:
            raise InvalidParameterError("shard map has no 'shards' list")
        return cls([ShardEntry.from_dict(entry) for entry in shards])

    def save(self, path: str | Path) -> Path:
        """Write ``shardmap.json`` crash-safely.

        Same discipline as the live index's MANIFEST commit: write to a
        temp path, fsync the file, ``os.replace`` into place, fsync the
        directory entry — so a crash leaves either the old map or the
        new one, never a torn document, and the rename is durable.
        """
        path = Path(path)
        temp = path.with_suffix(path.suffix + ".tmp")
        with open(temp, "w") as handle:
            handle.write(json.dumps(self.to_dict(), indent=2) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
        _fsync_directory(path.parent)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ShardMap":
        path = Path(path)
        if not path.exists():
            raise InvalidParameterError(f"shard map {path} does not exist")
        try:
            raw = json.loads(path.read_text())
        except ValueError as exc:
            raise InvalidParameterError(f"{path} is not valid JSON: {exc}")
        return cls.from_dict(raw)


def with_added_replicas(
    shard_map: ShardMap, replicas_per_shard: int, *, base_port: int
) -> ShardMap:
    """A map grown to ``replicas_per_shard`` endpoints per shard.

    Existing replicas keep their endpoints; new ones are assigned
    deterministic ports — replica ``r`` of shard ``i`` lands on
    ``base_port + i * replicas_per_shard + r`` (skipping any port a
    kept replica already occupies).  The partition is untouched: this
    is exactly the "grow capacity without re-partitioning" move.
    """
    if replicas_per_shard <= 0:
        raise InvalidParameterError(
            f"replicas_per_shard must be positive, got {replicas_per_shard}"
        )
    taken = {
        replica.endpoint
        for entry in shard_map
        for replica in entry.replicas
    }
    grown = []
    for shard_id, entry in enumerate(shard_map):
        replicas = list(entry.replicas)
        offset = 0
        while len(replicas) < replicas_per_shard:
            candidate = Replica(
                entry.replicas[0].host,
                base_port + shard_id * replicas_per_shard + offset,
            )
            offset += 1
            if candidate.endpoint in taken:
                continue
            taken.add(candidate.endpoint)
            replicas.append(candidate)
        grown.append(
            ShardEntry(
                name=entry.name,
                first_text=entry.first_text,
                count=entry.count,
                replicas=tuple(replicas),
            )
        )
    return ShardMap(grown)

