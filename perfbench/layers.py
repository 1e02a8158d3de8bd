"""Host self time per simulator layer, from one ``cProfile`` run.

The profiler records self time per function.  Each function is charged
to a layer by the module it lives in; a C builtin (``heapq.heappush``,
``min``, ``dict.get``) has no module of its own and is charged to the
layers of its callers, split by the time each caller spent in it.
"""

from __future__ import annotations

import pstats
from typing import Dict, Tuple

#: layer names, in the order they are reported
LAYERS = (
    "sim.engine", "sim.memory", "softcore",
    "index.hash", "index.skiplist", "index.common",
    "comm", "dora", "txn", "mem", "core", "frontend", "workloads",
    "analysis", "isa", "other",
)

#: packages of ``repro`` that are a layer of their own
_PACKAGES = ("softcore", "comm", "dora", "txn", "mem", "core", "frontend",
             "workloads", "analysis", "isa")

FuncKey = Tuple[str, int, str]


def layer_of_file(filename: str) -> str:
    """The layer a source file belongs to (``other`` outside ``repro``)."""
    if filename.startswith("<repro.compiled"):
        return "softcore"          # procedure code the softcore generates
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return "other"
    parts = path[at + len(marker):].split("/")
    top = parts[0]
    if top == "sim":
        return "sim.memory" if parts[-1] == "memory.py" else "sim.engine"
    if top == "index":
        if parts[1] in ("hash", "skiplist"):
            return f"index.{parts[1]}"
        if parts[1] in ("common.py", "__init__.py"):
            return "index.common"
        return "other"             # the B+ tree is outside this benchmark
    if top in _PACKAGES:
        return top
    return "other"


def _is_builtin(key: FuncKey) -> bool:
    return key[0] == "~"


def self_time_by_layer(stats: pstats.Stats) -> Dict[str, float]:
    """Seconds of self time per layer; the values sum to the profile's
    total self time."""
    table = stats.stats
    shares: Dict[FuncKey, Dict[str, float]] = {}

    def split(key: FuncKey, active: frozenset) -> Dict[str, float]:
        """Fractions of ``key``'s self time owed to each layer."""
        if not _is_builtin(key):
            return {layer_of_file(key[0]): 1.0}
        if key in shares:
            return shares[key]
        callers = table[key][4] if key in table else {}
        weights: Dict[str, float] = {}
        total = 0.0
        for caller, edge in callers.items():
            spent = edge[2]
            if spent <= 0 or caller in active:
                continue
            total += spent
            for layer, frac in split(caller, active | {key}).items():
                weights[layer] = weights.get(layer, 0.0) + spent * frac
        out = ({layer: w / total for layer, w in weights.items()}
               if total > 0 else {"other": 1.0})
        shares[key] = out
        return out

    totals = {layer: 0.0 for layer in LAYERS}
    for key, (_cc, _nc, self_s, _cum, _callers) in table.items():
        for layer, frac in split(key, frozenset()).items():
            totals[layer] += self_s * frac
    return totals
