"""A fixed reference workload that measures how fast the machine runs Python now.

On a shared machine the same kdb call can take twice as long in one minute
as in the next, because other tenants load the processor. A run reports
its times scaled by the reference: raw seconds × NOMINAL_S / the median
time of the reference measured in the same process during the run. A
change to kdb moves the scaled time exactly as it moves the raw time; a
change in the machine's speed moves the reference too and cancels out.

The reference does what kdb spends its time on, without kdb: regex
tokenizing, building and hashing small frozen dataclasses, dictionary
counting, sorting and string rendering.
"""

from __future__ import annotations

import gc
import re
import statistics
import time
from dataclasses import dataclass

# Typical reference time on the 2-vCPU Xeon VM the benchmark was tuned on.
NOMINAL_S = 0.012

_TOKEN = re.compile(r"\s+|(?P<int>\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>[(),.;=<>!@$])")
_TEXT = " ".join(f"insert(T{i % 7}@$l{i % 3}, (x{i}, {i * 37 % 1000}, y))." for i in range(300))


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str


def reference() -> int:
    """The fixed work; returns a checksum so nothing is optimized away."""
    toks = [_Tok(m.lastgroup, m.group()) for m in _TOKEN.finditer(_TEXT) if m.lastgroup]
    counts: dict = {}
    for t in toks:
        counts[t] = counts.get(t, 0) + 1
    rows = sorted(counts.items(), key=lambda kv: (kv[0].kind, kv[0].text, kv[1]))
    rendered = "{" + ", ".join(f"({t.kind}, {t.text!r}, {n})" for t, n in rows) + "}"
    return len(rendered) + hash(frozenset(counts)) % 7


def reference_seconds(repeats: int = 1) -> list:
    """Wall time of `repeats` reference runs."""
    out = []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        reference()
        out.append(time.perf_counter() - start)
    return out


def scale(raw_s: float, reference_s: list) -> float:
    """Raw seconds as seconds at the nominal reference speed."""
    return raw_s * NOMINAL_S / statistics.median(reference_s)
