"""Shared fixtures: canonical topologies, configurations and logics.

The 4x3 network matches the paper's running example (Figs. 2 and 5-10);
3D shapes exercise the generalized facility.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core import Fault, SwitchLogic, make_config
from repro.core.config import BroadcastMode, DetourScheme
from repro.topology import MDCrossbar

#: ``pytest --hypothesis-profile=thorough`` runs ten times the examples of
#: every law sized by :func:`examples` or left at hypothesis' default
THOROUGH = 10
settings.register_profile(
    "thorough", max_examples=THOROUGH * settings.default.max_examples
)


def examples(n: int) -> int:
    """A law's example count: ``n``, sized for the tier-1 wall, or
    ``THOROUGH * n`` under the ``thorough`` profile."""
    thorough = settings.get_current_profile_name() == "thorough"
    return THOROUGH * n if thorough else n


@pytest.fixture(scope="session")
def topo43() -> MDCrossbar:
    return MDCrossbar((4, 3))


@pytest.fixture(scope="session")
def topo44() -> MDCrossbar:
    return MDCrossbar((4, 4))


@pytest.fixture(scope="session")
def topo333() -> MDCrossbar:
    return MDCrossbar((3, 3, 3))


@pytest.fixture()
def logic43(topo43) -> SwitchLogic:
    return SwitchLogic(topo43, make_config(topo43.shape))


@pytest.fixture()
def logic43_faulty_rtr(topo43) -> SwitchLogic:
    cfg = make_config(topo43.shape, fault=Fault.router((2, 0)))
    return SwitchLogic(topo43, cfg)


@pytest.fixture()
def logic43_naive_detour(topo43) -> SwitchLogic:
    cfg = make_config(
        topo43.shape,
        fault=Fault.router((2, 0)),
        detour_scheme=DetourScheme.NAIVE,
    )
    return SwitchLogic(topo43, cfg)


@pytest.fixture()
def logic43_naive_broadcast(topo43) -> SwitchLogic:
    cfg = make_config(topo43.shape, broadcast_mode=BroadcastMode.NAIVE)
    return SwitchLogic(topo43, cfg)


@pytest.fixture()
def logic333(topo333) -> SwitchLogic:
    return SwitchLogic(topo333, make_config(topo333.shape))


def make_logic(topo: MDCrossbar, **kw) -> SwitchLogic:
    """Helper used across test modules."""
    return SwitchLogic(topo, make_config(topo.shape, **kw))
