"""Line-oriented instance and schedule files.

Instance files::

    psched 1 <n> <m>
    <u> <v>        # one line per precedence edge, u before v

Schedule files::

    sched 1 <n> <T>
    <job> <slot or "disc">

Blank lines and ``#`` comments are ignored on input; the formatters emit
deterministic ascending-job order so files round-trip byte-exactly.
"""

from __future__ import annotations

from .core import DISC, Instance, Schedule, Slot, build_instance

INSTANCE_MAGIC = "psched"
SCHEDULE_MAGIC = "sched"
FORMAT_VERSION = 1


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def parse_instance(text: str) -> Instance:
    lines = _content_lines(text)
    if not lines:
        raise ValueError("empty instance file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != INSTANCE_MAGIC or head[1] != str(FORMAT_VERSION):
        raise ValueError(f"bad instance header: {lines[0]!r}")
    n, m = int(head[2]), int(head[3])
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    try:
        return build_instance(n, m, edges)
    except IndexError as exc:  # an edge names a job outside 0..n-1
        raise ValueError(str(exc)) from None


def format_instance(inst: Instance, direct_edges: list[tuple[int, int]] | None = None) -> str:
    """Serialize an instance; closure pairs by default, given edges if passed."""
    edges = sorted(direct_edges) if direct_edges is not None else sorted(inst.edges())
    lines = [f"{INSTANCE_MAGIC} {FORMAT_VERSION} {inst.n} {inst.m}"]
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def parse_schedule(text: str) -> Schedule:
    lines = _content_lines(text)
    if not lines:
        raise ValueError("empty schedule file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != SCHEDULE_MAGIC or head[1] != str(FORMAT_VERSION):
        raise ValueError(f"bad schedule header: {lines[0]!r}")
    n, T = int(head[2]), int(head[3])
    assign: list[Slot] = [DISC] * n
    seen = set()
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad schedule line: {line!r}")
        j = int(parts[0])
        if not 0 <= j < n:
            raise ValueError(f"job {j} out of range")
        if j in seen:
            raise ValueError(f"job {j} assigned twice")
        seen.add(j)
        assign[j] = DISC if parts[1] == "disc" else int(parts[1])
    if len(seen) != n:
        raise ValueError(f"schedule covers {len(seen)} of {n} jobs")
    return Schedule(T=T, assign=tuple(assign))


def format_schedule(sched: Schedule) -> str:
    lines = [f"{SCHEDULE_MAGIC} {FORMAT_VERSION} {sched.n} {sched.T}"]
    for j, t in enumerate(sched.assign):
        lines.append(f"{j} {'disc' if t is None else t}")
    return "\n".join(lines) + "\n"


def _read_text(path: str) -> str:
    """The file's bytes decoded as UTF-8 in one call; ``splitlines`` in the
    parsers ends lines at ``\\r\\n`` and a lone ``\\r`` as text mode would."""
    with open(path, "rb", buffering=0) as fh:
        return fh.read().decode("utf-8")


def read_instance(path: str) -> Instance:
    return parse_instance(_read_text(path))


def read_schedule(path: str) -> Schedule:
    return parse_schedule(_read_text(path))
