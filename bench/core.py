"""What every workload hands the benchmark loop: operations and input properties."""

from __future__ import annotations

import statistics
from typing import Any, Callable, NamedTuple

from ref import depth


class Op(NamedTuple):
    """One operation.  `run(L)` calls the library through the namespace
    L and returns what the oracle needs; `check(result)` is the oracle,
    true when the result is right.  `layer` names the module the
    operation is mostly about, for per-layer error counts."""

    kind: str
    layer: str
    run: Callable[[Any], Any]
    check: Callable[[Any], bool]


class Speed(NamedTuple):
    """How a workload gauges the machine's current speed: `measure()`
    times a fixed reference task that takes ref_s at full speed; it runs
    at least every every_s seconds between operations."""

    measure: Callable[[], float]
    ref_s: float
    every_s: float


class Inputs:
    """Properties of the generated inputs: every ordinal the benchmark
    creates (nested model, see ref.py) and every map's piece count."""

    def __init__(self):
        self.ordinals: list[tuple] = []
        self.pieces: list[int] = []

    def metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        if self.ordinals:
            depths = [depth(x) for x in self.ordinals]
            out["inputs.distinct_ordinal_ratio"] = (
                len(set(self.ordinals)) / len(self.ordinals), "ratio")
            out["inputs.ordinals"] = (len(self.ordinals), "count")
            out["inputs.nesting_depth.mean"] = (statistics.fmean(depths), "levels")
            out["inputs.nesting_depth.max"] = (max(depths), "levels")
        else:
            for name, unit in (("inputs.distinct_ordinal_ratio", "ratio"),
                               ("inputs.ordinals", "count"),
                               ("inputs.nesting_depth.mean", "levels"),
                               ("inputs.nesting_depth.max", "levels")):
                out[name] = (0, unit)
        ps = sorted(self.pieces) or [0]
        out["inputs.pieces.p50"] = (statistics.median(ps), "pieces")
        out["inputs.pieces.max"] = (ps[-1], "pieces")
        return out
