"""repro — packet-level reproduction of Homa (SIGCOMM 2018).

Public API surface; ``examples/quickstart.py`` is the tour, and docs/
holds the references (CONFIG.md, FABRICS.md, CAMPAIGNS.md,
PERFORMANCE.md, STATIC_ANALYSIS.md).

Exports resolve lazily (PEP 562): ``import repro`` must stay free of
third-party imports so ``python -m repro.analysis`` — the simlint gate
CI runs *before* ``pip install`` — works in containers without numpy.
Attribute access (``repro.Simulator``) imports the defining module on
first use and caches the result in the package namespace.
"""

from importlib import import_module

__version__ = "0.1.0"

#: public name -> defining module
_EXPORTS = {
    "Simulator": "repro.core.engine",
    "Network": "repro.core.topology",
    "NetworkConfig": "repro.core.topology",
    "build_network": "repro.core.topology",
    "Packet": "repro.core.packet",
    "PacketType": "repro.core.packet",
    "HomaConfig": "repro.homa.config",
    "HomaTransport": "repro.homa.transport",
    "allocate_priorities": "repro.homa.priorities",
    "WORKLOADS": "repro.workloads.catalog",
    "Workload": "repro.workloads.catalog",
    "get_workload": "repro.workloads.catalog",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(module), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(__all__)
