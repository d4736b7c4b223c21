"""Content-addressed on-disk cache of executed sweep points.

Every :class:`~repro.runtime.spec.RunSpec` is a deterministic simulation:
the bench suite asserts bit-identical quantities across repeats, and the
runtime tests assert serial == parallel byte-identity.  A spec's result
is therefore a pure function of the spec's *content* plus the simulator's
code version -- exactly what a content-addressed cache wants.  Reruns of
benchmarks, CI sweeps and experiment scripts skip simulation entirely.

**Cache key** (:func:`spec_key`): sha256 over the canonical JSON of
``spec.to_dict()`` together with :data:`CACHE_SCHEMA` (this module's
payload layout) and :data:`CODE_VERSION` (bumped whenever the simulator's
observable results change).  ``wall_time`` is *not* part of the cached
identity -- it is measurement, not result -- and a hit returns the stored
result with its **original** wall time, so a fully cached rerun's JSON is
byte-for-byte identical to the run that populated the cache.

**Storage**: an append-only segment store.  Every :class:`ResultCache`
that writes owns one uniquely named ``*.seg`` file under ``root`` and
appends one framed record per result -- ``(key digest, payload length,
crc32 of the payload)`` then the pickled payload -- with a single
unbuffered ``write``, so a result costs one ``write`` instead of a
directory, a temp file and a rename.  Writers never share a segment, so
concurrent sweep processes on one directory never meet a lock, and a
reader indexes whole records only: it stops at a torn tail (a writer
killed mid-record) and sees every record before it.

**Payload**: the pickled tuple ``(CACHE_SCHEMA, ident, point, wall_time,
metrics, spans)``; ``ident`` is the canonical JSON :func:`spec_key`
hashes, and no spec is stored.  A lookup has just encoded its spec to
find the record, so when ``ident`` equals that encoding byte for byte --
one check in place of a key and a spec check -- the hit is built around
the **caller's** spec.

**Invalidation**: a CRC or unpickle failure, a payload that is not such a
tuple, a foreign schema or another spec's ``ident`` drops the entry from
this instance's index (counted in ``invalidations``) and reads as a miss;
the next execution appends a fresh record, and the last record of a key
wins.  A flipped byte therefore costs one entry, not the file.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import tempfile
import time
import zlib
from typing import BinaryIO, Dict, Iterable, Optional, Tuple

from .spec import PointResult, RunSpec

#: payload layout version, part of every key; entries written under
#: another schema are invalidated on first touch.  2: the spec-free
#: tuple above (1 pickled the dict ``{schema, key, spec, result}``)
CACHE_SCHEMA = 2

#: observable-results version of the simulator.  Part of every cache key:
#: bump it whenever an engine/routing change alters what any spec
#: produces, and every stale entry silently becomes a miss.
#: 2: the pluggable routing-scheme layer -- ``RunSpec.to_dict()`` gained
#:    the ``scheme`` identity, so every spec's canonical form changed.
#: 3: online deadlock recovery + stall-watchdog fixes -- the watchdog now
#:    fires one cycle earlier (detection cycles shifted) and
#:    ``RunSpec.to_dict()`` gained the ``recovery`` flag, so no
#:    pre-recovery entry may serve a post-recovery spec.
#: 4: sweep-runtime telemetry -- ``LoadPoint`` grew ``recoveries`` and
#:    ``PointResult.to_dict()`` now emits it, so every result's canonical
#:    form changed; cached pre-telemetry ``PointResult`` pickles would
#:    also deserialize without the new field.
#: 5: the batched SoA engine mode -- ``RunSpec.to_dict()`` gained the
#:    ``engine`` driver selection, and the route phase now offers
#:    candidates in sorted-cid order (grant-conflict winners are
#:    candidate-order dependent, so heavily contended runs' observable
#:    results shifted).
#: 6: one route-decision memo keyed on the switch rule's key -- the
#:    metrics payload lost ``route_cache.evictions``, and
#:    ``route_cache.hits`` / ``misses`` / ``size`` now count that memo.
CODE_VERSION = 6


_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _identity(spec: RunSpec) -> bytes:
    """The UTF-8 canonical JSON naming ``spec``'s result on this code
    version: what :func:`spec_key` hashes and every record stores."""
    ident = {
        "cache_schema": CACHE_SCHEMA,
        "code_version": CODE_VERSION,
        "spec": spec.to_dict(),
    }
    return _canonical(ident).encode("utf-8")


def spec_key(spec: RunSpec) -> str:
    """Content hash identifying ``spec``'s result on this code version."""
    return hashlib.sha256(_identity(spec)).hexdigest()


def result_identity(results: Iterable[PointResult]) -> str:
    """Canonical JSON of a result list with ``wall_time`` (the only
    non-deterministic field) removed.

    Two runs of the same specs must match on this string byte-for-byte
    whether they ran serially, chunked across a warm pool, or straight
    out of the cache -- the identity the ``tests/runtime`` identity tests
    gate on, and that ``sysbench/expected.json`` pins for the
    ``fault_sweep_cold`` / ``fault_sweep_replay`` workloads.
    """
    docs = []
    for r in results:
        d = r.to_dict()
        d.pop("wall_time", None)
        docs.append(d)
    return json.dumps(docs, sort_keys=True, separators=(",", ":"))


#: record header: the key's sha256 digest, the payload's length and its
#: crc32; the pickled payload follows
_HEADER = struct.Struct("<32sII")

_SEGMENT_SUFFIX = ".seg"


class ResultCache:
    """Append-only segments of spec-free pickled results under ``root``,
    keyed by content hash.

    ``_index`` maps a key digest to ``(segment, offset, length)`` of its
    newest whole record.  It is filled lazily: a lookup that does not find
    its key scans the segments that are new or have grown since the last
    scan -- the first lookup scans everything -- so a record another
    process (or another instance) appended is visible as soon as its
    ``put`` returned.  Segments are scanned in name order and names start
    with their creation time, so when two segments hold a record for one
    key the later-created segment wins, as the later record does inside a
    segment.  Loose ``<key[:2]>/<key>.pkl`` entries written by earlier
    versions are neither read nor removed.

    The counters feed :class:`repro.obs.collectors.ResultCacheStats`:

    * ``hits``          -- entries served without simulating;
    * ``misses``        -- absent (or invalidated) entries;
    * ``invalidations`` -- corrupt/stale entries dropped (each also
      counts as a miss);
    * ``puts``          -- entries written.
    """

    def __init__(self, root: str = ".repro-cache") -> None:
        self.root = root
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.puts = 0
        self._index: Dict[bytes, Tuple[str, int, int]] = {}
        #: segment -> (bytes indexed, file size at that scan); a segment
        #: is read again only when its size has moved
        self._scanned: Dict[str, Tuple[int, int]] = {}
        #: this instance's own segment: (file, path, owning pid)
        self._writer: Optional[Tuple] = None
        #: segment -> file held open for reading hits, oldest first
        self._readers: Dict[str, BinaryIO] = {}

    def get(self, spec: RunSpec) -> Optional[PointResult]:
        """The cached result for ``spec``, or None (counted as a miss)."""
        # encode the spec exactly once per lookup: the index probe's
        # digest and the payload's identity check share that encoding
        ident = _identity(spec)
        digest = hashlib.sha256(ident).digest()
        where = self._index.get(digest)
        if where is None:
            self._refresh()
            where = self._index.get(digest)
            if where is None:
                self.misses += 1
                return None
        payload = self._load(digest, where)
        if (
            not isinstance(payload, tuple)
            or len(payload) != 6
            or payload[:2] != (CACHE_SCHEMA, ident)
        ):
            # forget the bad record; the next put of this key supersedes
            # it on disk (last record wins)
            del self._index[digest]
            self.invalidations += 1
            self.misses += 1
            return None
        self.hits += 1
        # ``ident`` matched byte for byte: the probe is the stored spec
        return PointResult(spec, *payload[2:])

    def put(self, result: PointResult) -> None:
        """Append ``result`` under its spec's content key; visible to
        every reader of ``root`` when this returns."""
        ident = _identity(result.spec)
        blob = pickle.dumps(
            (CACHE_SCHEMA, ident, result.point, result.wall_time,
             result.metrics, result.spans),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        digest = hashlib.sha256(ident).digest()
        record = _HEADER.pack(digest, len(blob), zlib.crc32(blob)) + blob
        self._index[digest] = self._append(record)
        self.puts += 1

    def close(self) -> None:
        """Release this instance's segment files.  Optional: every record
        is on its way to disk when ``put`` returns, a later ``put`` simply
        starts a new segment and a later hit reopens its segment."""
        if self._writer is not None:
            self._writer[0].close()
            self._writer = None
        for f in self._readers.values():
            f.close()
        self._readers.clear()

    def _append(self, record: bytes) -> Tuple[str, int, int]:
        """Write one whole record to this instance's segment."""
        if self._writer is None or self._writer[2] != os.getpid():
            # first put -- or a forked child, which must not append to
            # the segment its parent is still writing
            os.makedirs(self.root, exist_ok=True)
            fd, path = tempfile.mkstemp(
                prefix=f"{time.time_ns():020d}-",
                suffix=_SEGMENT_SUFFIX,
                dir=self.root,
            )
            f = os.fdopen(fd, "wb", buffering=0)
            self._writer = (f, path, os.getpid())
        f, path, _pid = self._writer
        offset = f.tell()
        try:
            if f.write(record) != len(record):
                raise OSError(f"short write to {path}")
        except BaseException:
            # part of the record may be on disk: nothing may follow a
            # torn tail, so this segment takes no more records
            self.close()
            raise
        end = offset + len(record)
        self._scanned[path] = (end, end)
        return path, offset, len(record)

    def _refresh(self) -> None:
        """Index the whole records that appeared under ``root`` since the
        last scan."""
        try:
            names = sorted(
                n for n in os.listdir(self.root) if n.endswith(_SEGMENT_SUFFIX)
            )
        except OSError:
            return
        for name in names:
            path = os.path.join(self.root, name)
            start, seen = self._scanned.get(path, (0, 0))
            try:
                size = os.stat(path).st_size
                if size == seen:
                    continue
                with open(path, "rb") as f:
                    while True:
                        f.seek(start)
                        head = f.read(_HEADER.size)
                        if len(head) < _HEADER.size:
                            break
                        digest, length, _crc = _HEADER.unpack(head)
                        end = start + _HEADER.size + length
                        if end > size:
                            break  # torn tail: whole records or none
                        self._index[digest] = (path, start, end - start)
                        start = end
            except OSError:
                continue  # removed under us: its records are just absent
            self._scanned[path] = (start, size)

    def _load(self, digest: bytes, where: Tuple[str, int, int]):
        """The payload of the record at ``where``, or None when the record
        is unreadable, fails its checksum or does not unpickle."""
        path, offset, length = where
        try:
            f = self._readers.get(path)
            if f is None:
                if len(self._readers) >= 64:
                    # oldest out: thousands of segments must not EMFILE
                    self._readers.pop(next(iter(self._readers))).close()
                f = self._readers[path] = open(path, "rb", buffering=0)
            record = os.pread(f.fileno(), length, offset)
            stored, size, crc = _HEADER.unpack_from(record)
            blob = record[_HEADER.size:]
            if (stored, size, crc) != (digest, len(blob), zlib.crc32(blob)):
                return None
            return pickle.loads(blob)
        except Exception:  # unpickling bad bytes can raise anything
            return None

    def stats(self) -> Dict[str, int]:
        """Counter snapshot (the shape ``ResultCacheStats`` wraps)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "puts": self.puts,
        }

    def metrics(self):
        """The counters as a mergeable :class:`~repro.obs.metrics.MetricSet`."""
        from ..obs.collectors import ResultCacheStats

        return ResultCacheStats(self).metrics()

    def describe(self) -> str:
        s = self.stats()
        return (
            f"cache: {s['hits']} hit(s), {s['misses']} miss(es), "
            f"{s['invalidations']} invalidation(s), {s['puts']} put(s) "
            f"-> {self.root}"
        )
