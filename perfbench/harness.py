"""Harness arithmetic and program loading, kept free of workload details."""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The layers of the program, in dependency order; each is one module of the
# allocflow package.
LAYERS = ("model", "lattice", "memory", "timing", "optimizer", "baseline", "simulate")

# A tail percentile is only reported where at least this many samples lie
# beyond it, so one slow request cannot set it alone.
TAIL_BEYOND = 10


# Machine-speed calibration.  On a shared host the speed of the same Python
# code drifts by 50% and more within a minute, so each timed interval is
# bracketed by runs of a fixed calibration loop that calls nothing of the
# program, and reported as time on a reference machine on which one
# calibration sample takes REFERENCE_CALIBRATION_S.
REFERENCE_CALIBRATION_S = 1e-3
CALIBRATION_REPEATS = 3


class _Cell:
    __slots__ = ("name", "speed", "links")

    def __init__(self, name: str, speed: float):
        self.name = name
        self.speed = speed
        self.links: list = []


def _link_cost(a: _Cell, b: _Cell, bits: float) -> float:
    return bits / (a.speed + b.speed) + 0.001


def calibration_loop() -> tuple:
    """A fixed mix of what the program spends its time on: dict lookups keyed
    by tuples, attribute access, small calls, float arithmetic and a sort.
    Its result is constant; only its running time matters."""
    table: Dict[tuple, float] = {}
    acc = 0.0
    for i in range(750):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += abs(table[key] - acc) * 0.5
    cells = [_Cell(f"c{i}", 1.0 + i * 0.25) for i in range(17)]
    for i, cell in enumerate(cells):
        cell.links = cells[i + 1:i + 4]
    memo: Dict[tuple, float] = {}
    best = float("inf")
    for a in cells:
        for b in cells:
            pair = (a.name, b.name)
            cost = memo.get(pair)
            if cost is None:
                cost = memo[pair] = _link_cost(a, b, 1e6)
            total = cost + sum(_link_cost(b, c, 5e5) for c in b.links)
            if total < best:
                best = total
    order = sorted(memo.items(), key=lambda kv: kv[1])
    return acc + min(table.values()), best, order[0][0]


def calibrate() -> float:
    """Seconds one calibration sample takes now: the fastest of a few runs,
    so an interrupt in one of them does not count."""
    fastest = float("inf")
    for _ in range(CALIBRATION_REPEATS):
        started = time.perf_counter()
        calibration_loop()
        fastest = min(fastest, time.perf_counter() - started)
    return fastest


def normalize(seconds: float, calibration_before: float, calibration_after: float) -> float:
    """An interval measured between two calibrations, as seconds on the
    reference machine."""
    return seconds * REFERENCE_CALIBRATION_S * 2 / (calibration_before + calibration_after)


class ProgramMissing(RuntimeError):
    """The checkout holds no allocflow sources to benchmark."""


def load_allocflow() -> SimpleNamespace:
    """Import allocflow afresh from the checkout's src/ tree.

    Modules imported earlier are dropped first, so every call pays the full
    import and no module-level state survives from a previous set-up.
    """
    if not (SRC / "allocflow" / "__init__.py").is_file():
        raise ProgramMissing(f"no allocflow package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "allocflow" or n.startswith("allocflow.")]:
        del sys.modules[name]
    package = importlib.import_module("allocflow")
    if Path(package.__file__).resolve().parent != SRC / "allocflow":
        raise ProgramMissing(f"allocflow imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(
        package=package,
        **{layer: importlib.import_module(f"allocflow.{layer}") for layer in LAYERS},
    )


def tail_latency(samples: Sequence[float]) -> Tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples
    beyond it.  With too few samples for that, the maximum at percentile 100."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND  # ordered[k - 1] has exactly TAIL_BEYOND samples after it
    return ordered[k - 1], 100.0 * k / n


def failed_ratio(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no request attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..{attempted}")
    return failed / attempted


def count_failed(served: Sequence[int], exceptions: Dict[int, str],
                 bad_answers: Dict[int, list]) -> int:
    """Requests that raised, or whose answer failed a check.

    served[i] is the pool index served by request i; bad_answers is keyed
    by pool index, exceptions and mismatches by request ordinal.  A request
    that fails in several ways counts once.
    """
    return sum(1 for i, index in enumerate(served) if i in exceptions or index in bad_answers)


def covered_ns(lo: int, hi: int, intervals: Sequence[Tuple[int, int]]) -> int:
    """Length of [lo, hi) covered by the union of intervals, clipped to it."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_self_and_busy(parents: Sequence[int], starts: Sequence[int], ends: Sequence[int],
                       layers: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Per span: self time (its interval minus all child spans) and busy time
    (its interval minus the nearest descendant spans of another layer, so a
    call keeps the time of same-layer helpers it makes)."""
    n = len(parents)
    children: List[List[int]] = [[] for _ in range(n)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(i)
    self_t = [0] * n
    busy_t = [0] * n
    for i in range(n):
        lo, hi = starts[i], ends[i]
        self_t[i] = (hi - lo) - covered_ns(lo, hi, [(starts[c], ends[c]) for c in children[i]])
        foreign = []
        stack = list(children[i])
        while stack:
            c = stack.pop()
            if layers[c] != layers[i]:
                foreign.append((starts[c], ends[c]))
            else:
                stack.extend(children[c])
        busy_t[i] = (hi - lo) - covered_ns(lo, hi, foreign)
    return self_t, busy_t
