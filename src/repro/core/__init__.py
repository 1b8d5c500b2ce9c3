"""The iOLAP online engine: mini-batch incremental query processing."""

from repro.core.blocks import BlockOutput, OnlineConfig, RuntimeContext
from repro.core.compiler import CompiledQuery, compile_online
from repro.core.controller import OnlineQueryEngine
from repro.core.ranges import RangeMonitor
from repro.core.result import PartialResult
from repro.core.uncertainty import NodeTags, analyze
from repro.core.values import UncertainValue, VariationRange

__all__ = [
    "BlockOutput",
    "CompiledQuery",
    "NodeTags",
    "OnlineConfig",
    "OnlineQueryEngine",
    "PartialResult",
    "RangeMonitor",
    "RuntimeContext",
    "UncertainValue",
    "VariationRange",
    "analyze",
    "compile_online",
]
