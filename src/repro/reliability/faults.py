"""Deterministic fault injection: named sites, seedable triggers, zero cost off.

Every long-running subsystem — compilation, the persistent disk cache,
sweep workers, the serve front end — declares *fault sites*: named points
where a :class:`FaultPlan` may inject a failure.  With no plan installed a
site is a single ``None`` check, so production paths pay nothing; with a
plan, each matching rule decides deterministically (call counts, seeded
probabilities, cross-process fuse files) whether to fire one of four
fault kinds:

``raise``
    Raise :class:`InjectedFault` (a ``RuntimeError``) at the site.
``hang:<seconds>``
    Sleep for ``seconds`` — long enough to trip the consumer's deadline
    or wall-clock timeout.  Semantically identical to ``slow``; the two
    names document intent (a hang should be *detected*, slowness
    *absorbed*).
``slow:<seconds>``
    Sleep for ``seconds`` and continue normally (transient latency).
``crash``
    ``os._exit`` the process — the OOM-killer simulation.  Fires only in
    worker (non-main) processes; in the main process it downgrades to
    ``raise`` so an injected crash can never take out the test runner or
    an interactive session.

Plans come from the ``FUSEFLOW_FAULTS`` environment variable (parsed
lazily on the first site call, so worker processes — forked *or* spawned
— inherit the same spec) or programmatically via :func:`install_plan` /
:func:`injected_faults`.  The spec grammar (see ``docs/reliability.md``)::

    FUSEFLOW_FAULTS = rule (";" rule)*
    rule    = site ":" kind ["@" trigger ("," trigger)*]
    site    = "compile" | "diskcache.get" | "diskcache.put"
            | "sweep.point" | "serve.request"
    kind    = "raise" | "crash" | "hang:" seconds | "slow:" seconds
    trigger = "p=" float        # fire with this probability (seeded RNG)
            | "every=" n        # fire on calls n, 2n, 3n, ...
            | "nth=" n          # fire only on call n
            | "times=" n        # at most n fires (per process, or per
                                # fuse directory when fuse= is set)
            | "match=" text     # only at calls whose key contains text
                                # (or fnmatch-globs it, e.g. "*unfused*");
                                # "\\," in text is a literal comma
            | "seed=" n         # RNG seed for p= (default 0)
            | "fuse=" dir       # claim fire tokens as files in dir, so
                                # "times" bounds fires ACROSS processes

Call counts, RNG streams, and fire caps are all per (plan, rule, site)
— and per process, except when ``fuse=`` pins them to a directory — so a
given spec replays the same fault sequence every run: chaos tests are
deterministic, not flaky.
"""

from __future__ import annotations

import fnmatch
import os
import random
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "FAULT_SITES",
    "FaultPlan",
    "FaultRule",
    "FaultSpecError",
    "InjectedFault",
    "clear_plan",
    "fault_point",
    "injected_faults",
    "install_plan",
]

#: Every fault site declared in the codebase.  Parsing rejects unknown
#: sites loudly — a typoed site that silently never fires would make a
#: chaos test vacuously green.
FAULT_SITES = frozenset(
    {
        "compile",
        "diskcache.get",
        "diskcache.put",
        "sweep.point",
        "serve.request",
    }
)

_KINDS = ("raise", "hang", "slow", "crash")

#: Exit status used by the ``crash`` kind, chosen to be distinguishable
#: from Python's own exits (0/1/2) in worker post-mortems.
CRASH_EXIT_CODE = 86


class FaultSpecError(ValueError):
    """Malformed ``FUSEFLOW_FAULTS`` spec string."""


class InjectedFault(RuntimeError):
    """The failure raised by a firing ``raise`` (or main-process ``crash``)."""

    def __init__(self, site: str, key: Optional[str] = None) -> None:
        detail = f" (key {key!r})" if key else ""
        super().__init__(f"injected fault at site {site!r}{detail}")
        self.site = site
        self.key = key


@dataclass
class FaultRule:
    """One parsed rule: a site, a fault kind, and its firing triggers."""

    site: str
    kind: str  # "raise" | "hang" | "slow" | "crash"
    seconds: float = 0.0
    p: Optional[float] = None
    every: Optional[int] = None
    nth: Optional[int] = None
    times: Optional[int] = None
    match: Optional[str] = None
    seed: int = 0
    fuse: Optional[str] = None
    # Mutable per-process state (never shared between rules).
    calls: int = field(default=0, repr=False)
    fires: int = field(default=0, repr=False)
    _rng: Optional[random.Random] = field(default=None, repr=False)

    def should_fire(self, key: Optional[str]) -> bool:
        """Decide (and record) whether this call fires the fault."""
        if self.match is not None:
            # Substring test, or an fnmatch glob when the pattern carries
            # metacharacters — "unfused" and "*unfused*" both select
            # "sae/synthetic/unfused/rda".
            if key is None:
                return False
            if self.match not in key and not fnmatch.fnmatchcase(
                key, self.match
            ):
                return False
        self.calls += 1
        if self.nth is not None and self.calls != self.nth:
            return False
        if self.every is not None and self.calls % self.every != 0:
            return False
        if self.p is not None:
            if self._rng is None:
                self._rng = random.Random(self.seed)
            if self._rng.random() >= self.p:
                return False
        if self.fuse is not None:
            if not self._claim_fuse_token():
                return False
        elif self.times is not None and self.fires >= self.times:
            return False
        self.fires += 1
        return True

    def _claim_fuse_token(self) -> bool:
        """Atomically claim one of the rule's ``times`` cross-process tokens.

        Tokens are ``O_CREAT|O_EXCL`` marker files in the fuse directory,
        so N cooperating processes (sweep workers, serve threads, resumed
        runs) fire this rule at most ``times`` times *in total* — the
        exactly-N semantics chaos tests need to assert that a retried
        point eventually succeeds.
        """
        limit = self.times if self.times is not None else 1
        os.makedirs(self.fuse, exist_ok=True)
        stem = f"{self.site}.{self.kind}".replace("/", "_")
        for index in range(limit):
            path = os.path.join(self.fuse, f"{stem}.{index}.fired")
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            except OSError:
                return False
            with os.fdopen(fd, "w") as fh:
                fh.write(f"pid={os.getpid()} call={self.calls}\n")
            return True
        return False

    def execute(self, key: Optional[str]) -> None:
        """Perform the fault's effect (raise / sleep / exit)."""
        if self.kind in ("hang", "slow"):
            time.sleep(self.seconds)
            return
        if self.kind == "crash":
            import multiprocessing

            if multiprocessing.current_process().name != "MainProcess":
                os._exit(CRASH_EXIT_CODE)
            # Crashing the main process would take out the test runner /
            # CLI itself; degrade to a raise that is still a hard failure.
            raise InjectedFault(self.site, key)
        raise InjectedFault(self.site, key)


class FaultPlan:
    """A set of fault rules, consulted by :func:`fault_point` calls.

    Thread-safe: rule counters advance under a lock, so concurrent serve
    threads observe one global call sequence per rule.
    """

    def __init__(self, rules: List[FaultRule]) -> None:
        self.rules = list(rules)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``FUSEFLOW_FAULTS`` spec string (see module docstring).

        Raises
        ------
        FaultSpecError
            On unknown sites/kinds/triggers or unparsable values — a
            typoed chaos spec must fail loudly, never silently no-op.
        """
        rules: List[FaultRule] = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            rules.append(cls._parse_rule(chunk))
        if not rules:
            raise FaultSpecError(f"fault spec {spec!r} contains no rules")
        return cls(rules)

    @staticmethod
    def _parse_rule(text: str) -> FaultRule:
        body, _, trigger_text = text.partition("@")
        site, sep, kind_text = body.partition(":")
        site = site.strip()
        kind_text = kind_text.strip()
        if not sep or not kind_text:
            raise FaultSpecError(
                f"fault rule {text!r} must look like 'site:kind[@trigger,...]'"
            )
        if site not in FAULT_SITES:
            raise FaultSpecError(
                f"unknown fault site {site!r}; expected one of "
                f"{sorted(FAULT_SITES)}"
            )
        kind, _, seconds_text = kind_text.partition(":")
        if kind not in _KINDS:
            raise FaultSpecError(
                f"unknown fault kind {kind!r}; expected one of {list(_KINDS)}"
            )
        seconds = 0.0
        if kind in ("hang", "slow"):
            if not seconds_text:
                raise FaultSpecError(
                    f"fault kind {kind!r} needs a duration: '{kind}:<seconds>'"
                )
            try:
                seconds = float(seconds_text)
            except ValueError:
                raise FaultSpecError(
                    f"bad {kind} duration {seconds_text!r} in {text!r}"
                ) from None
            if seconds < 0:
                raise FaultSpecError(f"{kind} duration must be >= 0, got {seconds}")
        elif seconds_text:
            raise FaultSpecError(
                f"fault kind {kind!r} takes no argument, got {kind_text!r}"
            )
        rule = FaultRule(site=site, kind=kind, seconds=seconds)
        # Split on unescaped commas: "\," is a literal one (sweep labels).
        triggers = re.split(r"(?<!\\),", trigger_text)
        for part in filter(None, (p.strip().replace("\\,", ",") for p in triggers)):
            name, sep, value = part.partition("=")
            if not sep:
                raise FaultSpecError(
                    f"trigger {part!r} in {text!r} must look like name=value"
                )
            try:
                if name == "p":
                    rule.p = float(value)
                    if not 0.0 <= rule.p <= 1.0:
                        raise FaultSpecError(f"p must be in [0, 1], got {value}")
                elif name == "every":
                    rule.every = int(value)
                    if rule.every < 1:
                        raise FaultSpecError(
                            f"every must be >= 1, got {value}"
                        )
                elif name == "nth":
                    rule.nth = int(value)
                    if rule.nth < 1:
                        raise FaultSpecError(f"nth must be >= 1, got {value}")
                elif name == "times":
                    rule.times = int(value)
                    if rule.times < 0:
                        raise FaultSpecError(
                            f"times must be >= 0, got {value}"
                        )
                elif name == "match":
                    rule.match = value
                elif name == "seed":
                    rule.seed = int(value)
                elif name == "fuse":
                    rule.fuse = value
                else:
                    raise FaultSpecError(
                        f"unknown trigger {name!r} in {text!r}; expected "
                        "p/every/nth/times/match/seed/fuse"
                    )
            except ValueError:
                raise FaultSpecError(
                    f"bad value {value!r} for trigger {name!r} in {text!r}"
                ) from None
        return rule

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def check(self, site: str, key: Optional[str] = None) -> None:
        """Fire every matching rule's fault for one call at ``site``."""
        due: List[FaultRule] = []
        with self._lock:
            for rule in self.rules:
                if rule.site == site and rule.should_fire(key):
                    due.append(rule)
        # Effects run outside the lock: a hang must not serialize every
        # other site behind it.
        for rule in due:
            rule.execute(key)

    def stats(self) -> Dict[Tuple[str, str], Dict[str, int]]:
        """Per-rule call/fire counters, keyed by (site, kind) — for tests."""
        with self._lock:
            out: Dict[Tuple[str, str], Dict[str, int]] = {}
            for rule in self.rules:
                entry = out.setdefault(
                    (rule.site, rule.kind), {"calls": 0, "fires": 0}
                )
                entry["calls"] += rule.calls
                entry["fires"] += rule.fires
            return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FaultPlan {len(self.rules)} rule(s)>"


# ----------------------------------------------------------------------
# The process-wide active plan
# ----------------------------------------------------------------------

#: Programmatically installed plan (overrides the environment).
_PLAN: Optional[FaultPlan] = None
#: Lazily parsed environment plan: ``None`` = not looked yet, ``False`` =
#: looked, no faults configured.  Lazy (not import-time) so spawned
#: worker processes and late ``os.environ`` edits both take effect.
_ENV_PLAN = None  # type: ignore[assignment]


#: The spec string the cached ``_ENV_PLAN`` was parsed from, so a changed
#: environment variable (tests, long-lived processes) is picked up instead
#: of being shadowed by a stale parse.
_ENV_SPEC: Optional[str] = None


def _env_plan() -> Optional[FaultPlan]:
    global _ENV_PLAN, _ENV_SPEC
    spec = os.environ.get("FUSEFLOW_FAULTS", "").strip()
    if _ENV_PLAN is None or spec != _ENV_SPEC:
        _ENV_SPEC = spec
        _ENV_PLAN = FaultPlan.parse(spec) if spec else False
    return _ENV_PLAN or None


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` as the process-wide fault plan (``None`` = env only)."""
    global _PLAN
    _PLAN = plan


def clear_plan() -> None:
    """Remove any active plan and forget the cached environment parse."""
    global _PLAN, _ENV_PLAN, _ENV_SPEC
    _PLAN = None
    _ENV_PLAN = None
    _ENV_SPEC = None


class injected_faults:
    """Context manager: install a plan (or spec string) for a ``with`` block.

    >>> with injected_faults("compile:raise@nth=1") as plan:
    ...     ...  # the first compile in this block raises InjectedFault
    """

    def __init__(self, plan) -> None:
        self.plan = FaultPlan.parse(plan) if isinstance(plan, str) else plan

    def __enter__(self) -> FaultPlan:
        self._previous = _PLAN
        install_plan(self.plan)
        return self.plan

    def __exit__(self, *exc) -> None:
        install_plan(self._previous)


def fault_point(site: str, key: Optional[str] = None) -> None:
    """Declare a fault site: inject the active plan's faults, if any.

    The hot-path cost with no plan configured is one global read, a
    cached-``False`` check, and one environ lookup — measured in
    nanoseconds, so sites can sit on compile and serve hot paths
    permanently.

    Parameters
    ----------
    site:
        A name from :data:`FAULT_SITES`.
    key:
        Optional identity of the work unit (point ID, request key, cache
        key) that ``match=`` triggers select on.
    """
    plan = _PLAN
    if plan is None:
        if _ENV_PLAN is False and not os.environ.get("FUSEFLOW_FAULTS"):
            return
        plan = _env_plan()
        if plan is None:
            return
    plan.check(site, key)
