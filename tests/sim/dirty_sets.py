"""The active driver's oracle: exact stepping plus the dirty-set law.

The active driver does not scan the fabric.  Each phase reads a dirty
set that the other phases keep up to date, and it skips idle cycles and
streams body flits in bulk windows.  Any ``cycle_start`` subscriber turns
off both shortcuts (and the SoA kernel), so :func:`exact_stepping` gives
a twin that runs every phase of every cycle.  :class:`DirtySetLaw` then
checks, cycle by cycle and just before the phase that reads it, that each
dirty set names everything a full scan of the fabric would find:

* ``_eject_pending`` holds every PE input VC with buffered flits;
* ``_nonempty_sources`` is exactly the set of PEs with a queued packet;
* after route, ``_serial_active`` is exactly the set of elements whose
  ``serial_queues`` entry is non-empty;
* ``_route_candidates`` holds every switch input VC with an unrouted
  header at its head (no connection, no pending request).

A run that keeps these laws and equals its twin's fingerprint is what a
driver that rescans the whole fabric every cycle would have produced.
"""

from __future__ import annotations


def exact_stepping(sim):
    """Make ``sim.run`` step every cycle: no SoA kernel, no idle skip,
    no stream windows.  Returns ``sim``."""
    sim.hooks.on_cycle_start(lambda s: None)
    return sim


class DirtySetLaw:
    """A hook subscriber asserting the dirty-set laws on every cycle.

    ``cycles`` counts the cycles checked; the subscriber also asserts
    that no cycle was skipped since it was attached."""

    def __init__(self) -> None:
        self.cycles = 0

    def attach(self, sim) -> "DirtySetLaw":
        self._pe_keys = [key for _, key in sim._pe_inputs]
        self._switch_inputs = sorted(sim._element_of_input.items())
        self._next_cycle = sim.cycle
        sim.hooks.on_cycle_start(self._cycle_start)
        sim.hooks.on_phase_end(self._phase_end)
        return self

    def _cycle_start(self, sim) -> None:
        assert sim.cycle == self._next_cycle, (
            f"cycles {self._next_cycle}..{sim.cycle - 1} were not stepped"
        )
        self._next_cycle += 1
        self.cycles += 1
        vcs = sim.vcs
        missed = [
            k
            for k in self._pe_keys
            if vcs[k].buffer and k not in sim._eject_pending
        ]
        assert not missed, f"cycle {sim.cycle}: eject misses {missed}"
        queued = {c for c, q in sim.source_queues.items() if q}
        assert sim._nonempty_sources == queued, (
            f"cycle {sim.cycle}: sources {sorted(sim._nonempty_sources)} "
            f"!= queued {sorted(queued)}"
        )

    def _phase_end(self, sim, phase: str) -> None:
        if phase == "eject":
            vcs = sim.vcs
            missed = [
                key
                for key, el in self._switch_inputs
                if vcs[key].buffer
                and vcs[key].buffer[0].is_head
                and (el, key) not in sim.connections
                and key not in sim._pending_by_cin
                and key not in sim._route_candidates
            ]
            assert not missed, f"cycle {sim.cycle}: route misses {missed}"
        elif phase == "route":
            active = {el for el, q in sim.serial_queues.items() if q}
            assert sim._serial_active == active, (
                f"cycle {sim.cycle}: serial {sim._serial_active} "
                f"!= queued {active}"
            )


def exact_twin(sim) -> DirtySetLaw:
    """Exact stepping with the law attached; returns the law."""
    return DirtySetLaw().attach(exact_stepping(sim))
