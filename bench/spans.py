"""In-memory spans for the traced benchmark run.

A span has a name, a layer (the evalanche module it measures), a start, an
end and a parent.  Spans are recorded only from the benchmark's own files,
around calls into the library's public functions; nothing inside the
library is instrumented.

Some library calls run inside another layer's call (``draw_streams`` inside
``run_experiment``, the writers inside ``write_bundle``).  The traced run
times those by calling the inner function again on the same inputs right
after the outer call.  Such a *replay* span names the outer span as its
parent although it does not lie inside it in time, and every span's self
time is found by subtraction: its duration minus its children's durations.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    pass_no: int
    replay: bool
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for one run; ``pass_no`` tags the pass being traced."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_no = 0

    @contextmanager
    def span(self, name: str, parent: Span | None = None, replay: bool = False):
        s = Span(
            id=len(self.spans),
            parent=None if parent is None else parent.id,
            name=name,
            layer=name.split(".", 1)[0],
            pass_no=self.pass_no,
            replay=replay,
            start=time.perf_counter(),
        )
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()

    def of_pass(self, pass_no: int) -> list[Span]:
        return [s for s in self.spans if s.pass_no == pass_no]

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the summed durations of its children."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in out:
            out[s.parent] -= s.duration
    return out


def replay_time(spans: list[Span]) -> float:
    """Wall time spent in replays.  Each replay span wraps one library call
    and replays run one after another, so their durations never overlap."""
    return sum(s.duration for s in spans if s.replay)


def total(spans: list[Span], name: str) -> float:
    return sum(s.duration for s in spans if s.name == name)


def durations(spans: list[Span], name: str) -> list[float]:
    return [s.duration for s in spans if s.name == name]
