"""Global vs. distributed state (paper §4).

High-line-rate devices cannot afford multi-ported memory, so the paper
merges the logical event pipelines into one physical pipeline and keeps
algorithmic state in *single-ported* register arrays, coordinated by
aggregation registers (Figure 3):

* packet-event read-modify-writes always operate on the **main**
  register holding the algorithmic state,
* enqueue and dequeue read-modify-writes accumulate in separate
  **aggregation** register arrays,
* during **idle clock cycles** the aggregated operations are applied to
  the main register.

The result is bounded staleness: the main register lags truth by at
most the backlog the aggregation arrays can accumulate between idle
cycles, which shrinks as the pipeline runs faster than line rate.
This subpackage provides the memory-port cost model, the Figure 3
register file, the staleness tracker, and a clock-cycle pipeline
simulator that the Figure 3 / staleness benches drive.
"""

# Re-exports are lazy (PEP 562): the stateful models below import the
# low-level ``repro.state.store`` module, and the PISA externs import it
# too — an eager package __init__ would make ``repro.state`` and
# ``repro.pisa.externs`` mutually recursive.  Lazy loading keeps
# ``import repro.state.store`` dependency-free from either direction.
_EXPORTS = {
    "MemoryPortModel": "repro.state.memory",
    "PortConflictError": "repro.state.memory",
    "AggregationRegisterFile": "repro.state.aggregation",
    "PendingOp": "repro.state.aggregation",
    "StalenessTracker": "repro.state.staleness",
    "StalenessReport": "repro.state.staleness",
    "CyclePipelineSim": "repro.state.cyclesim",
    "CycleSimConfig": "repro.state.cyclesim",
    "CycleSimResult": "repro.state.cyclesim",
    "DelayedRmwRegister": "repro.state.consistency",
    "ContentionResult": "repro.state.consistency",
    "run_contention": "repro.state.consistency",
    "ReplicatedRegister": "repro.state.replication",
    "MultiPipeResult": "repro.state.replication",
    "run_multipipe": "repro.state.replication",
    "StateStore": "repro.state.store",
    "make_store": "repro.state.store",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
