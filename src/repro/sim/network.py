"""The user-facing simulator: a thin facade over the cycle engine.

The phase pipeline, fabric state and hook bus live in
:mod:`repro.sim.engine` (the engine layer).  :class:`NetworkSimulator`
specializes the engine with the MD-crossbar-specific machinery the
experiments need -- today that is the *online fault event*
(:meth:`NetworkSimulator.inject_fault`), which models a switch dying while
the network is running and the facility reconfiguring around it.

Everything observable is public: read ``sim.vcs``, ``sim.connections``,
``sim.in_flight`` etc. or subscribe to ``sim.hooks``; nothing outside
:mod:`repro.sim` should ever touch a ``_``-prefixed attribute of the
simulator.
"""

from __future__ import annotations

from typing import Set

from ..core.packet import RC
from .engine import (  # noqa: F401  (re-exported for compatibility)
    CycleEngine,
    DeadlockError,
    DeadlockReport,
    HookBus,
    PHASES,
    ReconfigReport,
    RecoveryEvent,
    SimResult,
    find_pid_cycle,
)


class NetworkSimulator(CycleEngine):
    """Flit-level simulator over an adapter-routed topology.

    All simulation mechanics are inherited from :class:`CycleEngine`; this
    class adds the online-fault facility of the MD crossbar network.
    """

    # -------------------------------------------------- online fault events
    def inject_fault(self, fault) -> ReconfigReport:
        """A switch fails *while the network is running*.

        Models what the hardware facility's "information ... is set in
        advance" looks like at the moment of failure: the facility
        reconfigures (new fault bits, possibly a substituted S-XB/D-XB per
        rules R1/R2), and every packet currently holding a channel into or
        out of the dead switch is lost -- cut-through hardware cannot
        un-send flits; recovery of lost messages belongs to the software
        layers above.  Subsequent packets route around the fault.

        Only available on MD crossbar adapters (the facility under study).
        Raises :class:`~repro.core.config.ConfigError` if the accumulated
        fault set is beyond the facility (rule R1/R2 infeasible).
        """
        from ..core.switch_logic import SwitchLogic

        logic = getattr(self.adapter, "logic", None)
        if logic is None:
            raise TypeError("inject_fault needs an MD crossbar adapter")
        new_cfg = logic.config.with_faults(logic.config.all_faults() + (fault,))
        new_logic = SwitchLogic(self.topo, new_cfg)

        dead_el = fault.element
        touching = {
            ch.cid
            for ch in list(self.topo.channels_from(dead_el))
            + list(self.topo.channels_to(dead_el))
        }
        victims: Set[int] = set()
        for key, vc in self.vcs.items():
            if key[0] in touching:
                if vc.owner is not None:
                    victims.add(vc.owner)
                victims.update(f.pid for f in vc.buffer)
        for conn in self.connections.values():
            if conn.element == dead_el:
                victims.add(conn.pid)
        lost = [self.kill_packet(pid) for pid in sorted(victims)]
        self.adapter.logic = new_logic
        self._set_live_nodes()
        # rebase surviving broadcasts: a dead PE will never take delivery
        live = self._live_set
        for pid, inf in list(self.in_flight.items()):
            if inf.packet.header.rc in (RC.BROADCAST_REQUEST, RC.BROADCAST):
                inf.expected_deliveries = len(inf.served) + len(
                    live - inf.served
                )
                if inf.done:
                    inf.packet.delivered_at = self.cycle
                    self.delivered.append(inf.packet)
                    del self.in_flight[pid]
        self._last_progress = self.cycle
        self.log(f"fault injected: {fault}; {len(lost)} packets lost")
        return ReconfigReport(
            cycle=self.cycle,
            fault=fault,
            lost_packets=[p for p in lost if p is not None],
            new_sxb_line=new_cfg.sxb_line,
            new_order=new_cfg.order,
        )
