"""SAM/SAMML dataflow primitives."""

from .base import ExecutionContext, NodeStats, Primitive
from .compute import BinaryALU, UnaryALU, ValArray
from .fiberops import FiberNorm, FiberOp, FiberSoftmax
from .joiner import Intersect, Union
from .reduce import AlignCheck, Reduce, VectorReducer
from .repeat import Repeat, ScalarRepeat
from .scanner import CrdSource, LevelScanner, Locate, Root
from .writer import TensorWriter

__all__ = [
    "Primitive",
    "ExecutionContext",
    "NodeStats",
    "Root",
    "LevelScanner",
    "Locate",
    "CrdSource",
    "Intersect",
    "Union",
    "Repeat",
    "ScalarRepeat",
    "BinaryALU",
    "UnaryALU",
    "ValArray",
    "Reduce",
    "VectorReducer",
    "AlignCheck",
    "TensorWriter",
    "FiberOp",
    "FiberSoftmax",
    "FiberNorm",
]
