"""The content-addressed result cache: key definition, round-trips, the
append-only segment store (visibility across instances and processes,
torn tails, invalidation of corrupt/stale records), and the
wall_time-excluding result identity."""

import functools
import hashlib
import json
import multiprocessing
import os
import pickle
import tempfile
import zlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Fault
from repro.runtime import ResultCache, RunSpec, result_identity, spec_key
from repro.runtime.cache import _HEADER, CACHE_SCHEMA, CODE_VERSION, _identity

SHAPE = (3, 3)
FAST = dict(shape=SHAPE, warmup=30, window=60, drain=600)


def spec(**kw):
    base = dict(load=0.1, **FAST)
    base.update(kw)
    return RunSpec(**base)


@functools.lru_cache(maxsize=None)
def executed(seed):
    """One executed spec per seed, simulated once per test session."""
    return spec(seed=seed).execute()


def segments(root):
    return sorted(str(p) for p in root.glob("*.seg"))


def payload_of(result, schema=CACHE_SCHEMA, ident=None):
    """The tuple ``put`` stores for ``result``, with the schema or the
    identity swapped for another."""
    if ident is None:
        ident = _identity(result.spec)
    return (
        schema, ident, result.point, result.wall_time,
        result.metrics, result.spans,
    )


def craft(root, key, payload, name="crafted.seg"):
    """Append a well-framed record holding ``payload`` under ``key`` to a
    segment that sorts after every writer's, so it is the record a reader
    finds for that key."""
    blob = pickle.dumps(payload)
    with open(root / name, "ab") as f:
        f.write(
            _HEADER.pack(bytes.fromhex(key), len(blob), zlib.crc32(blob))
            + blob
        )


def chop(path, nbytes):
    with open(path, "r+b") as f:
        f.truncate(os.path.getsize(path) - nbytes)


def put_in_child(cache, seed):
    cache.put(executed(seed))


class TestSpecKey:
    def test_stable_for_equal_specs(self):
        assert spec_key(spec()) == spec_key(spec())

    def test_sensitive_to_every_content_field(self):
        base = spec()
        variants = [
            spec(load=0.2),
            spec(seed=2),
            spec(shape=(4, 3)),
            spec(warmup=31),
            spec(window=61),
            spec(drain=601),
            spec(stall_limit=999),
            spec(pattern="transpose"),
            spec(packet_length=8),
            spec(metrics=True),
            spec(faults=(Fault.router((1, 1)),)),
            spec(label="named"),
            spec(engine="soa"),
        ]
        keys = {spec_key(v) for v in variants}
        assert spec_key(base) not in keys
        assert len(keys) == len(variants)

    def test_is_hex_sha256(self):
        key = spec_key(spec())
        assert len(key) == 64
        int(key, 16)  # raises if not hex

    def test_hashes_the_stored_identity(self):
        """The key is the sha256 of the canonical JSON every record
        stores, so a record's ident names the spec its key was made of."""
        s = spec(faults=(Fault.router((1, 1)),))
        ident = _identity(s)
        assert spec_key(s) == hashlib.sha256(ident).hexdigest()
        assert json.loads(ident) == {
            "cache_schema": CACHE_SCHEMA,
            "code_version": CODE_VERSION,
            "spec": s.to_dict(),
        }


class TestResultIdentity:
    def test_excludes_wall_time_only(self):
        result = spec().execute()
        other = replace(result, wall_time=result.wall_time + 1.0)
        assert result_identity([result]) == result_identity([other])
        moved = replace(result, spec=spec(load=0.2))
        assert result_identity([result]) != result_identity([moved])

    def test_order_sensitive(self):
        a, b = spec().execute(), spec(load=0.2).execute()
        assert result_identity([a, b]) != result_identity([b, a])


class TestRoundTrip:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        s = spec()
        assert cache.get(s) is None
        assert cache.stats() == {
            "hits": 0, "misses": 1, "invalidations": 0, "puts": 0,
        }
        result = s.execute()
        cache.put(result)
        got = cache.get(s)
        assert got is not None
        # the stored result replays byte-identically, wall_time included
        assert json.dumps(got.to_dict()) == json.dumps(result.to_dict())
        assert cache.stats() == {
            "hits": 1, "misses": 1, "invalidations": 0, "puts": 1,
        }

    def test_segment_layout(self, tmp_path):
        """One writer, one segment, however many results; nothing else
        is created under the root."""
        cache = ResultCache(str(tmp_path / "cache"))
        for seed in (1, 2, 3):
            cache.put(executed(seed))
        names = os.listdir(tmp_path / "cache")
        assert len(names) == 1 and names[0].endswith(".seg")
        cache.close()
        cache.put(executed(4))  # a closed writer starts a new segment
        assert len(segments(tmp_path / "cache")) == 2
        assert all(
            ResultCache(str(tmp_path / "cache")).get(spec(seed=seed))
            for seed in (1, 2, 3, 4)
        )

    def test_get_hashes_the_spec_exactly_once(self, tmp_path, monkeypatch):
        """A lookup encodes the spec a single time: the index probe's
        digest and the payload's identity check share that encoding."""
        cache = ResultCache(str(tmp_path))
        s = spec()
        cache.put(s.execute())
        calls = []
        real = RunSpec.to_dict
        monkeypatch.setattr(
            RunSpec, "to_dict", lambda sp: calls.append(sp) or real(sp)
        )
        assert cache.get(s) is not None
        assert calls == [s]

    def test_put_hashes_the_spec_exactly_once(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path))
        result = executed(1)
        calls = []
        real = RunSpec.to_dict
        monkeypatch.setattr(
            RunSpec, "to_dict", lambda sp: calls.append(sp) or real(sp)
        )
        cache.put(result)
        assert calls == [result.spec]

    def test_records_are_spec_free(self, tmp_path):
        """A record stores the spec's identity, not the spec: a hit
        hands back the probing spec itself, and no RunSpec or Fault is
        pickled into the segment."""
        s = spec(faults=(Fault.router((1, 1)),))
        result = s.execute()
        ResultCache(str(tmp_path)).put(result)
        blob = next(tmp_path.glob("*.seg")).read_bytes()
        assert b"RunSpec" not in blob and b"Fault" not in blob
        probe = spec(faults=(Fault.router((1, 1)),))
        got = ResultCache(str(tmp_path)).get(probe)
        assert got.spec is probe
        assert got.to_dict() == result.to_dict()

    def test_metrics_payload_rides_along(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        s = spec(metrics=True)
        cache.put(s.execute())
        got = cache.get(s)
        assert got.metrics is not None
        assert got.metrics["deliveries"].value > 0


class TestSegmentStore:
    def test_put_is_visible_to_another_instance_at_once(self, tmp_path):
        writer = ResultCache(str(tmp_path))
        reader = ResultCache(str(tmp_path))
        assert reader.get(spec(seed=1)) is None  # scanned the empty root
        writer.put(executed(1))
        # no close(), no flush: a reader that already looked, and one
        # that never did, both find the record
        assert reader.get(spec(seed=1)) is not None
        assert ResultCache(str(tmp_path)).get(spec(seed=1)) is not None
        writer.put(executed(2))  # the segment a reader has scanned grows
        assert reader.get(spec(seed=2)) is not None
        assert (reader.hits, reader.misses) == (2, 1)

    def test_two_writers_never_share_a_segment(self, tmp_path):
        a, b = ResultCache(str(tmp_path)), ResultCache(str(tmp_path))
        a.put(executed(1))
        b.put(executed(2))
        a.put(executed(3))
        assert len(segments(tmp_path)) == 2
        reader = ResultCache(str(tmp_path))
        for seed in (1, 2, 3):
            got = reader.get(spec(seed=seed))
            assert got.to_dict() == executed(seed).to_dict()

    def test_forked_writer_takes_its_own_segment(self, tmp_path):
        """A child process that inherits an open writer must not append
        to its parent's segment."""
        cache = ResultCache(str(tmp_path))
        cache.put(executed(1))
        executed(2)  # simulated before the fork, so the child inherits it
        child = multiprocessing.get_context("fork").Process(
            target=put_in_child, args=(cache, 2)
        )
        child.start()
        child.join(60)
        assert child.exitcode == 0
        cache.put(executed(3))
        assert len(segments(tmp_path)) == 2
        reader = ResultCache(str(tmp_path))
        for seed in (1, 2, 3):
            assert reader.get(spec(seed=seed)) is not None
        assert cache.get(spec(seed=2)) is not None  # refreshed on the miss

    def test_torn_tail_loses_only_the_torn_record(self, tmp_path):
        writer = ResultCache(str(tmp_path))
        for seed in (1, 2, 3):
            writer.put(executed(seed))
        writer.close()
        chop(segments(tmp_path)[0], 10)
        reader = ResultCache(str(tmp_path))
        assert reader.get(spec(seed=1)) is not None
        assert reader.get(spec(seed=2)) is not None
        assert reader.get(spec(seed=3)) is None
        # a record that never became whole is absent, not corrupt
        assert reader.stats() == {
            "hits": 2, "misses": 1, "invalidations": 0, "puts": 0,
        }
        reader.put(executed(3))
        assert ResultCache(str(tmp_path)).get(spec(seed=3)) is not None

    def test_torn_header_is_a_torn_tail_too(self, tmp_path):
        writer = ResultCache(str(tmp_path))
        writer.put(executed(1))
        size = os.path.getsize(segments(tmp_path)[0])
        writer.put(executed(2))
        writer.close()
        path = segments(tmp_path)[0]
        chop(path, os.path.getsize(path) - size - _HEADER.size // 2)
        reader = ResultCache(str(tmp_path))
        assert reader.get(spec(seed=1)) is not None
        assert reader.get(spec(seed=2)) is None
        assert reader.invalidations == 0

    def test_legacy_pickle_tree_is_neither_read_nor_removed(self, tmp_path):
        """Entries of the one-file-per-result layout read as an empty
        cache, and stay where they are."""
        result = executed(1)
        key = spec_key(result.spec)
        legacy = tmp_path / key[:2] / f"{key}.pkl"
        legacy.parent.mkdir()
        legacy.write_bytes(pickle.dumps(payload_of(result)))
        before = legacy.read_bytes()
        cache = ResultCache(str(tmp_path))
        assert cache.get(result.spec) is None
        assert cache.stats() == {
            "hits": 0, "misses": 1, "invalidations": 0, "puts": 0,
        }
        cache.put(result)
        assert cache.get(result.spec) is not None
        assert legacy.read_bytes() == before


class TestInvalidation:
    def test_corrupt_payload_is_dropped_and_recovered(self, tmp_path):
        """One flipped payload byte costs that entry and no other."""
        cache = ResultCache(str(tmp_path))
        ends = []
        for seed in (1, 2, 3):
            cache.put(executed(seed))
            ends.append(os.path.getsize(segments(tmp_path)[0]))
        cache.close()
        with open(segments(tmp_path)[0], "r+b") as f:
            f.seek(ends[1] - 20)  # inside the middle record's pickle
            byte = f.read(1)
            f.seek(-1, os.SEEK_CUR)
            f.write(bytes([byte[0] ^ 0x40]))
        cache = ResultCache(str(tmp_path))
        assert cache.get(spec(seed=2)) is None
        assert (cache.invalidations, cache.misses) == (1, 1)
        assert cache.get(spec(seed=1)) is not None
        assert cache.get(spec(seed=3)) is not None
        # the dropped entry is a plain miss until it is put again
        assert cache.get(spec(seed=2)) is None
        assert (cache.invalidations, cache.misses) == (1, 2)
        cache.put(executed(2))  # the newer record supersedes the bad one
        assert cache.get(spec(seed=2)) is not None
        assert ResultCache(str(tmp_path)).get(spec(seed=2)) is not None

    def test_foreign_schema_is_dropped(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        result = executed(1)
        cache.put(result)
        craft(
            tmp_path,
            spec_key(result.spec),
            payload_of(result, schema=CACHE_SCHEMA + 1),
        )
        cache = ResultCache(str(tmp_path))
        assert cache.get(result.spec) is None
        assert cache.invalidations == 1

    def test_key_collision_guard(self, tmp_path):
        """A record whose embedded spec disagrees with the probing spec
        (a hash collision, or a record filed under the wrong key) reads
        as a miss."""
        cache = ResultCache(str(tmp_path))
        a, b = executed(1), executed(2)
        cache.put(a)
        craft(tmp_path, spec_key(b.spec), payload_of(a))
        assert cache.get(b.spec) is None
        assert cache.invalidations == 1
        assert cache.get(a.spec) is not None  # the honest entry still hits

    @pytest.mark.parametrize(
        "damage, hit",
        [
            (lambda p: p, True),  # the crafted record itself is sound
            # six entries, so only the type check stands between it and
            # a slice that raises
            (lambda p: dict(enumerate(p)), False),
            (lambda p: p[:5], False),
            (lambda p: (CACHE_SCHEMA + 1,) + p[1:], False),
            (lambda p: p[:1] + (_identity(executed(2).spec),) + p[2:], False),
        ],
        ids=["sound", "not-a-tuple", "short-tuple", "foreign-schema",
             "other-spec"],
    )
    def test_each_payload_check_alone_invalidates(self, tmp_path, damage, hit):
        """Each case changes one thing in the payload ``put`` would
        write, filed under the probe's current key."""
        result = executed(1)
        craft(tmp_path, spec_key(result.spec), damage(payload_of(result)))
        cache = ResultCache(str(tmp_path))
        got = cache.get(result.spec)
        if hit:
            assert got.to_dict() == result.to_dict()
            assert (cache.invalidations, cache.misses, cache.hits) == (0, 0, 1)
        else:
            assert got is None
            assert (cache.invalidations, cache.misses, cache.hits) == (1, 1, 0)

    def test_schema_1_record_is_one_invalidation(self, tmp_path):
        """A record of the old ``{schema, key, spec, result}`` dict
        layout, even filed under a current key, is dropped once and then
        superseded by the next put."""
        result = executed(1)
        key = spec_key(result.spec)
        craft(
            tmp_path,
            key,
            {
                "schema": 1,
                "key": key,
                "spec": result.spec.to_dict(),
                "result": result,
            },
        )
        cache = ResultCache(str(tmp_path))
        assert cache.get(result.spec) is None
        assert (cache.invalidations, cache.misses, cache.hits) == (1, 1, 0)
        cache.put(result)
        assert cache.get(result.spec).to_dict() == result.to_dict()

    @pytest.mark.parametrize("damage", ["truncate", "unlink"])
    def test_segment_damaged_after_indexing(self, tmp_path, damage):
        """A segment cut short or removed after a reader indexed it
        costs that reader one invalidation, never an exception, and the
        entry is served again once it is put again."""
        writer = ResultCache(str(tmp_path))
        writer.put(executed(1))
        writer.close()
        reader = ResultCache(str(tmp_path))
        assert reader.get(spec(seed=2)) is None  # the miss indexes seed 1
        holder = ResultCache(str(tmp_path))
        assert holder.get(spec(seed=1)) is not None  # opens the segment
        path = segments(tmp_path)[0]
        if damage == "truncate":
            chop(path, os.path.getsize(path) // 2)
        else:
            os.unlink(path)
        assert reader.get(spec(seed=1)) is None
        # an open segment reads short once cut; unlinked, it stays whole
        assert (holder.get(spec(seed=1)) is None) == (damage == "truncate")
        holder.close()
        assert reader.stats() == {
            "hits": 0, "misses": 2, "invalidations": 1, "puts": 0,
        }
        reader.put(executed(1))
        assert reader.get(spec(seed=1)).to_dict() == executed(1).to_dict()
        assert reader.hits == 1

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_held_segments_are_bounded_and_closed(self, tmp_path):
        """A reader holds segments open for its hits, but never more than
        64 of them however many it reads, and none after ``close()``."""
        result = executed(1)
        probes = [spec(seed=seed) for seed in range(100, 200)]
        for i, probe in enumerate(probes):
            payload = payload_of(result, ident=_identity(probe))
            craft(tmp_path, spec_key(probe), payload, name=f"{i:03d}.seg")
        before = len(os.listdir("/proc/self/fd"))
        cache = ResultCache(str(tmp_path))
        for probe in probes:
            assert cache.get(probe).point == result.point
        assert len(os.listdir("/proc/self/fd")) - before <= 64
        cache.close()
        assert len(os.listdir("/proc/self/fd")) == before
        assert cache.get(probes[0]) is not None  # reopened on demand
        cache.close()

    def test_describe_mentions_counts_and_root(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.get(spec())
        text = cache.describe()
        assert "1 miss(es)" in text and str(tmp_path) in text


class TestObsIntegration:
    def test_counters_export_as_metrics(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        s = spec()
        cache.get(s)
        cache.put(s.execute())
        cache.get(s)
        ms = cache.metrics()
        assert ms["result_cache.hits"].value == 1
        assert ms["result_cache.misses"].value == 1
        assert ms["result_cache.puts"].value == 1
        assert ms["result_cache.invalidations"].value == 0


class TestDictLaw:
    """Any interleaving of puts, gets, re-puts and crashes behaves like a
    dict from which the records a crash tore are missing."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("put"), st.integers(1, 4)),
                st.tuples(st.just("get"), st.integers(1, 4)),
                # the writer dies having written all but ``cut`` bytes of
                # its last record; another process carries on
                st.tuples(st.just("crash"), st.integers(1, 400)),
            ),
            max_size=24,
        )
    )
    def test_store_behaves_like_a_dict(self, actions):
        with tempfile.TemporaryDirectory() as root:
            writer, reader = ResultCache(root), ResultCache(root)
            #: what the writer's segment holds; ``whole`` is everything
            #: in the segments of the writers before it
            current, whole = [], []
            for action, arg in actions:
                if action == "put":
                    writer.put(executed(arg))
                    current.append(arg)
                elif action == "get":
                    want = arg in current or arg in whole
                    for cache in (reader, writer, ResultCache(root)):
                        got = cache.get(spec(seed=arg))
                        assert (got is not None) == want
                        if want:
                            assert got.to_dict() == executed(arg).to_dict()
                else:
                    writer.close()
                    if current:
                        # segment names sort by creation time, and a
                        # record is well over 400 bytes
                        chop(os.path.join(root, max(os.listdir(root))), arg)
                        current.pop()
                    whole += current
                    current = []
                    # nobody saw the torn record whole: the processes
                    # that carry on start from the disk
                    writer, reader = ResultCache(root), ResultCache(root)
            writer.close()
