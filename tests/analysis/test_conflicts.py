"""Unit tests for the static conflict analysis (Section 3.1)."""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.analysis import (
    channel_route_counts,
    check_all_embeddings,
    measure_conflicts,
    permutation_conflict_comparison,
    random_permutation_pairs,
    summarize_conflicts,
)
from repro.analysis.properties import route_stats
from repro.core.config import ConfigError
from repro.core.multifault import all_single_faults
from repro.routing import get_scheme, make_scheme, scheme_names
from repro.traffic import KERNELS, compare_topologies

#: the Section 3.1 analyses' outputs, recorded before they resolved their
#: networks through the routing registry (see :class:`TestRouteGolden`)
with open(os.path.join(os.path.dirname(__file__), "routes_golden.json")) as _fh:
    GOLDEN = json.load(_fh)


class TestPermutationPairs:
    def test_is_permutation(self):
        rng = np.random.default_rng(0)
        pairs = random_permutation_pairs((4, 4), rng)
        srcs = [s for s, _ in pairs]
        dsts = [t for _, t in pairs]
        assert len(set(srcs)) == len(srcs)
        assert len(set(dsts)) == len(dsts)

    def test_no_self_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            assert all(s != t for s, t in random_permutation_pairs((4, 4), rng))


class TestMeasure:
    def test_disjoint_routes_conflict_free(self):
        stats = measure_conflicts(
            "toy", lambda s, t: [hash((s, t)) % (1 << 30)], [((0,), (1,)), ((2,), (3,))]
        )
        assert stats.conflict_free
        assert stats.max_channel_load == 1

    def test_shared_channel_counted(self):
        stats = measure_conflicts(
            "toy", lambda s, t: [42], [((0,), (1,)), ((2,), (3,))]
        )
        assert not stats.conflict_free
        assert stats.max_channel_load == 2
        assert stats.conflicted_channels == 1
        assert stats.conflicted_transfers == 2

    def test_row_renders(self):
        stats = measure_conflicts("toy", lambda s, t: [1], [((0,), (1,))])
        assert "toy" in stats.row()


class TestComparison:
    @pytest.fixture(scope="class")
    def results(self):
        return permutation_conflict_comparison((4, 4), samples=8, seed=3)

    def test_all_topologies_present(self, results):
        assert set(results) == {"md-crossbar", "mesh", "torus"}
        assert all(len(v) == 8 for v in results.values())

    def test_paper_claim_fewer_conflicts_than_mesh(self, results):
        summary = summarize_conflicts(results)
        assert (
            summary["md-crossbar"]["mean_conflicted_channels"]
            < summary["mesh"]["mean_conflicted_channels"]
        )

    def test_paper_claim_fewer_conflicts_than_torus(self, results):
        summary = summarize_conflicts(results)
        assert (
            summary["md-crossbar"]["mean_conflicted_channels"]
            < summary["torus"]["mean_conflicted_channels"]
        )

    def test_hypercube_included_on_request(self):
        results = permutation_conflict_comparison(
            (4, 4), samples=2, include=("md-crossbar", "hypercube")
        )
        assert set(results) == {"md-crossbar", "hypercube"}


# -- the analyses against the past ---------------------------------------------
ALL_KINDS = ("md-crossbar", "mesh", "torus", "hypercube")


def _shape_id(shape) -> str:
    return "x".join(map(str, shape))


def dependency_edge_cases():
    """``(scheme, shape, faults)`` per pinned dependency-edge set: every
    scheme on its bench and doctor shapes, fault-free and, where the
    scheme models faults, under every single fault; the safety audit's
    three schemes on 6x6; ``hyperx_ft``'s escape lane on a 3-D shape
    under every single fault; and the torus's second VC on 4x4 and
    3x3x2."""
    for name in scheme_names():
        cls = get_scheme(name)
        for shape in sorted({cls.bench_shape, cls.doctor_shape}):
            faults = all_single_faults(shape) if cls.supports_faults else []
            yield name, shape, [None, *faults]
    for name in ("adaptive", "dxb", "hyperx_ft"):
        yield name, (6, 6), [None]
    yield "hyperx_ft", (3, 3, 2), [None, *all_single_faults((3, 3, 2))]
    for shape in ((3, 3, 2), (4, 4)):
        yield "torus", shape, [None]


def dependency_edge_digests():
    """The sha256 of the ``dependency_edges()`` set of every
    :func:`dependency_edge_cases` case."""
    digests = {}
    for name, shape, faults in dependency_edge_cases():
        for fault in faults:
            case = f"{name} {_shape_id(shape)} | {fault or 'fault-free'}"
            try:
                scheme = make_scheme(name, shape, faults=[fault] if fault else ())
            except ConfigError as e:
                digests[case] = {"config_error": str(e)}
                continue
            edges = sorted(scheme.dependency_edges())
            digests[case] = {
                "edges": len(edges),
                "sha256": hashlib.sha256(json.dumps(edges).encode()).hexdigest(),
            }
    return digests


def route_golden():
    """Every value ``routes_golden.json`` pins, keyed as in the file."""
    counts = {}
    for kind in ("md-crossbar", "mesh", "torus"):
        for shape in ((3, 3), (4, 4), (8, 8)):
            items = sorted(channel_route_counts(kind, shape)[0].items())
            counts[f"{kind} {_shape_id(shape)}"] = hashlib.sha256(
                json.dumps(items).encode()
            ).hexdigest()
    stats = {}
    for name in scheme_names():
        cls = get_scheme(name)
        for shape in sorted({cls.bench_shape, cls.doctor_shape}):
            stats[f"{name} {_shape_id(shape)}"] = route_stats(
                make_scheme(name, shape)
            )
    return {
        "channel_route_counts": counts,
        "conflicts": summarize_conflicts(
            permutation_conflict_comparison(
                (4, 4), samples=8, seed=3, include=ALL_KINDS
            )
        ),
        "dependency_edges": dependency_edge_digests(),
        "embeddings": {
            guest: r.row() for guest, r in check_all_embeddings((4, 4)).items()
        },
        "kernels": {
            kernel: {
                kind: res.row()
                for kind, res in compare_topologies(kernel, (4, 4)).items()
            }
            for kernel in sorted(KERNELS)
        },
        "route_stats": stats,
    }


class TestRouteGolden:
    """Channel route counts, permutation conflicts, embeddings, kernel
    rows and scheme path statistics, recorded while each analysis still
    built its own networks and walked its own routes, and every scheme's
    dependency-edge set, recorded while ``dependency_edges`` was its own
    per-destination walk.  A change in how a network kind is resolved or
    a route or a dependency is walked fails here."""

    @pytest.fixture(scope="class")
    def now(self):
        return route_golden()

    @pytest.mark.parametrize("section", sorted(GOLDEN))
    def test_section_unchanged(self, now, section):
        assert now[section] == GOLDEN[section]
