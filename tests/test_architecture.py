"""Layering guards for the engine / runtime / consumer architecture.

The engine owns its private state: nothing outside ``repro.sim`` may read
``_``-prefixed simulator attributes -- observers go through the hook bus
and the public observability helpers.  The guard introspects the engine
for its actual private names, so it tracks refactors automatically.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

from repro.core import SwitchLogic, make_config
from repro.sim import MDCrossbarAdapter, SimConfig
from repro.sim.engine import CycleEngine
from repro.topology import MDCrossbar

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def engine_private_names():
    """Every ``_name`` (not dunder) the engine defines, class or instance."""
    shape = (3, 3)
    sim = CycleEngine(
        MDCrossbarAdapter(SwitchLogic(MDCrossbar(shape), make_config(shape))),
        SimConfig(),
    )
    names = {n for n in vars(sim) if n.startswith("_") and not n.startswith("__")}
    names |= {
        n
        for n in vars(CycleEngine)
        if n.startswith("_") and not n.startswith("__")
    }
    return names


def outside_sim_sources():
    for path in sorted(SRC.rglob("*.py")):
        if (SRC / "sim") in path.parents:
            continue
        yield path


def test_engine_has_private_state_to_guard():
    names = engine_private_names()
    assert len(names) >= 5, f"introspection broke: {sorted(names)}"


def test_no_module_outside_sim_touches_engine_privates():
    names = engine_private_names()
    pattern = re.compile(
        r"\.(" + "|".join(re.escape(n) for n in sorted(names)) + r")\b"
    )
    offenders = []
    for path in outside_sim_sources():
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            m = pattern.search(line)
            # a module may use a colliding name on *its own* instance
            if m and not re.search(r"\b(self|cls)" + re.escape(m.group(0)), line):
                offenders.append(f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert not offenders, (
        "engine internals referenced outside repro.sim "
        "(use the hook bus / public attributes):\n" + "\n".join(offenders)
    )


def test_no_legacy_private_cycle_finder_outside_sim():
    for path in outside_sim_sources():
        assert "_find_pid_cycle" not in path.read_text(), (
            f"{path} imports the legacy private name; "
            "use repro.sim.find_pid_cycle"
        )


def test_consumers_import_the_runtime_not_the_engine_guts():
    """The consumer layer (experiments, cli) reaches simulation through
    the runtime/spec API or the public simulator surface only."""
    sweeps = (SRC / "experiments" / "sweeps.py").read_text()
    assert "runtime" in sweeps
    cli = (SRC / "cli.py").read_text()
    assert "from .runtime import" in cli


def test_import_repro_leaves_numpy_and_networkx_unloaded():
    """Every CLI call and worker launch pays for whatever ``import repro``
    pulls in, so numpy is imported inside the functions that use it."""
    code = (
        "import sys, repro; "
        "sys.exit(bool({'numpy', 'networkx'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_no_module_imports_networkx():
    """The ordering certificate ranks by Kahn's algorithm; networkx is no
    dependency of the package."""
    pattern = re.compile(r"^\s*(import|from)\s+networkx\b", re.M)
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if pattern.search(path.read_text())
    ]
    assert not offenders, f"networkx imported by {offenders}"
