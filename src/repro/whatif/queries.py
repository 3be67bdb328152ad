"""Grammar and parsing for what-if queries.

A query is a single token of the form::

    kind[:arg]@time[+duration][,key=value]...

mirroring the fault-spec grammar of :mod:`repro.faults.schedule` so
operators only learn one shape. ``time`` (and ``duration``) accept an
optional ``%`` suffix meaning *fraction of the baseline makespan* --
``kill_link:h0-leaf0@50%`` injects the failure halfway through the
baseline run regardless of its absolute length. Resolution to absolute
seconds happens in :meth:`WhatIfQuery.resolved`, once the service knows
the baseline end time.

Supported kinds:

``submit_job:paradigm``
    Admit one extra job of ``paradigm`` (``dp``/``fsdp``/``pp``/``tp``)
    at the query time. Options: ``layers=N``, ``hosts=N``.
``add_tenant:paradigm``
    Alias of ``submit_job`` with a tenant-sized default (``jobs=N``
    copies, default 2), modelling a new tenant's arrival.
``remove_job:job_id``
    Cancel a job whose arrival is still pending at the query time.
``kill_link:linkspec``
    Take links down (fail-stop) at the query time; ``+duration``
    schedules the matching restore.
``degrade_link:linkspec``
    Scale link capacity by ``factor=F`` (default 0.5); ``+duration``
    restores nominal capacity.

Link specs reuse the fault grammar verbatim (``h0-leaf0``,
``h0-leaf0/rev``, ``h0-leaf0|h1-leaf0``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

_QUERY_KINDS = ("submit_job", "add_tenant", "remove_job", "kill_link", "degrade_link")
_LINK_KINDS = ("kill_link", "degrade_link")

_TIME_RE = re.compile(r"^(?P<value>[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)(?P<pct>%?)$")


class WhatIfQueryError(ValueError):
    """A query string does not parse or is semantically malformed."""


#: Numeric options: name -> (type, predicate, the rule in words).
_NUMERIC_OPTIONS = {
    "factor": (float, lambda value: 0.0 < value < 1.0, "0 < factor < 1"),
    "jobs": (int, lambda value: value >= 1, "an integer >= 1"),
    "layers": (int, lambda value: value >= 1, "an integer >= 1"),
    "hosts": (int, lambda value: value >= 0, "an integer >= 0"),
}


@dataclass(frozen=True)
class WhatIfQuery:
    """One parsed counterfactual intervention.

    ``time``/``duration`` are stored as ``(value, is_fraction)`` pairs;
    call :meth:`resolved` with the baseline makespan to get absolute
    seconds. ``arg`` is the ``:``-suffix (paradigm, job id, or raw link
    spec) and ``options`` the trailing ``k=v`` pairs as strings. The
    numeric options (``factor``, ``jobs``, ``layers``, ``hosts``) are
    checked here, so a malformed one fails before any engine work.
    """

    kind: str
    arg: str
    time: Tuple[float, bool]
    duration: Optional[Tuple[float, bool]] = None
    options: Dict[str, str] = field(default_factory=dict)
    raw: str = ""

    def __post_init__(self) -> None:
        for key, value in self.options.items():
            if key not in _NUMERIC_OPTIONS:
                continue
            convert, valid, rule = _NUMERIC_OPTIONS[key]
            try:
                ok = valid(convert(value))
            except ValueError:
                ok = False
            if not ok:
                raise WhatIfQueryError(
                    f"option {key}={value!r} in query {self.describe()!r} "
                    f"must be {rule}"
                )

    def resolved(self, makespan: float) -> Tuple[float, Optional[float]]:
        """Return ``(abs_time, abs_duration_or_None)`` in seconds."""
        value, pct = self.time
        time = value * makespan / 100.0 if pct else value
        duration: Optional[float] = None
        if self.duration is not None:
            dvalue, dpct = self.duration
            duration = dvalue * makespan / 100.0 if dpct else dvalue
        return time, duration

    def describe(self) -> str:
        return self.raw or f"{self.kind}:{self.arg}@{self.time[0]:g}"


def _parse_time(token: str, *, what: str, raw: str) -> Tuple[float, bool]:
    match = _TIME_RE.match(token)
    if match is None:
        raise WhatIfQueryError(f"bad {what} {token!r} in query {raw!r}")
    value = float(match.group("value"))
    if value < 0:
        raise WhatIfQueryError(f"negative {what} in query {raw!r}")
    return value, match.group("pct") == "%"


def parse_query(spec: str) -> WhatIfQuery:
    """Parse one ``kind[:arg]@time[+duration][,k=v]`` token."""
    raw = spec.strip()
    if not raw:
        raise WhatIfQueryError("empty what-if query")
    body, _, opt_blob = raw.partition(",")
    options: Dict[str, str] = {}
    if opt_blob:
        for pair in opt_blob.split(","):
            key, eq, value = pair.partition("=")
            if not eq or not key.strip() or not value.strip():
                raise WhatIfQueryError(f"bad option {pair!r} in query {raw!r}")
            options[key.strip()] = value.strip()
    head, at, when = body.partition("@")
    if not at:
        raise WhatIfQueryError(f"query {raw!r} is missing '@time'")
    kind, _, arg = head.partition(":")
    kind = kind.strip()
    arg = arg.strip()
    if kind not in _QUERY_KINDS:
        raise WhatIfQueryError(
            f"unknown query kind {kind!r} in {raw!r} "
            f"(expected one of {', '.join(_QUERY_KINDS)})"
        )
    if not arg:
        raise WhatIfQueryError(f"query kind {kind!r} needs a ':arg' in {raw!r}")
    when = when.strip()
    time_token, plus, duration_token = when.partition("+")
    time = _parse_time(time_token.strip(), what="time", raw=raw)
    duration: Optional[Tuple[float, bool]] = None
    if plus:
        if kind not in _LINK_KINDS:
            raise WhatIfQueryError(
                f"'+duration' only applies to link queries, not {kind!r} ({raw!r})"
            )
        duration = _parse_time(duration_token.strip(), what="duration", raw=raw)
        if duration[0] == 0:
            raise WhatIfQueryError(f"zero duration in query {raw!r}")
    return WhatIfQuery(
        kind=kind, arg=arg, time=time, duration=duration, options=options, raw=raw
    )


def parse_batch(text: str) -> List[WhatIfQuery]:
    """Parse a batch file: one query per line, ``#`` comments, blanks ok."""
    queries: List[WhatIfQuery] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            queries.append(parse_query(stripped))
        except WhatIfQueryError as exc:
            raise WhatIfQueryError(f"line {lineno}: {exc}") from exc
    return queries
