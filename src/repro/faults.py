"""Deterministic, seeded fault injection for the serving stack.

Crash safety is only trustworthy if failures can be *provoked on
purpose*: this module lets a test (or a chaos CI job) arm named
**fail points** threaded through :mod:`repro.gateway`,
:mod:`repro.serve`, :mod:`repro.registry` and
:mod:`repro.ticketstore`, then drive the stack and assert that every
injected failure surfaces as a typed error or a clean crash — never a
hang, never a wrong report (``tests/test_faults.py``).

Each production call site names itself once::

    from .faults import fault_point
    ...
    fault_point("serve.run_group")   # no-op unless armed

Disabled (the default) the call is a module-attribute read and an
``is None`` test — there is nothing to configure, no locks taken, no
environment reads on the hot path.  Armed, the site consults its
:class:`FailPoint`: fire on the *N*-th hit (``at``), with seeded
probability ``p`` (``seed`` — two identical runs fire identically), at
most ``times`` times, and with one of three actions:

``raise``
    Raise :class:`FaultInjected` (the default) — exercises error
    propagation and typed-error mapping.
``exit``
    ``os._exit(exit_code)`` — a hard crash with no cleanup, the moral
    equivalent of ``kill -9``; the chaos suite uses it to kill the
    HTTP server between two journal writes.
``sleep``
    Block ``delay`` seconds, then continue — a stall, not a failure;
    results must be unaffected.

Faults arm either programmatically (:func:`install_faults` /
:func:`clear_faults`) or through the ``REPRO_FAULTS`` environment
variable, read once when this module is imported (so
``python -m repro serve`` subprocesses inherit a chaos plan from
their parent)::

    REPRO_FAULTS="ticketstore.after_write:at=7:action=exit"
    REPRO_FAULTS="serve.run_group:p=0.2:seed=3,gateway.submit:action=sleep:delay=0.01"
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, replace

__all__ = [
    "SITES",
    "FaultInjected",
    "FailPoint",
    "FaultRegistry",
    "fault_point",
    "install_faults",
    "clear_faults",
    "active_faults",
]

#: The named fail points wired into the serving stack, with the
#: production failure each one simulates.
SITES = {
    "gateway.submit": "admission stall or death before queue checks",
    "serve.run_group": "worker death mid-way through a fused group",
    "registry.attach": "dataset copy failure",
    "ticketstore.write": "journal write error (disk full, I/O error)",
    "ticketstore.after_write": "process death right after a journal "
    "commit (the chaos crash window)",
}

#: Actions a fired fail point can take.
ACTIONS = ("raise", "exit", "sleep")


class FaultInjected(RuntimeError):
    """An armed fail point fired with ``action='raise'``.

    Attributes
    ----------
    site : str
        The fail point that fired.
    """

    def __init__(self, site: str):
        super().__init__(f"injected fault at {site!r}")
        self.site = site


@dataclass(frozen=True)
class FailPoint:
    """One armed fail point's firing rule.

    Parameters
    ----------
    site : str
        The call site this rule arms (see :data:`SITES`).
    p : float, default 1.0
        Firing probability per hit, decided by a per-site
        ``random.Random`` stream seeded from ``seed`` and the site
        name — two identical runs fire on exactly the same hits.
    seed : int, default 0
        Seed of that stream (ignored when ``p >= 1``).
    at : int, optional
        Fire on exactly the ``at``-th hit of the site (1-based) and
        never otherwise; overrides ``p``.
    times : int, optional
        Stop firing after this many fires (``None`` = unlimited).
    action : str, default "raise"
        One of :data:`ACTIONS`.
    delay : float, default 0.05
        Sleep duration for ``action='sleep'``.
    exit_code : int, default 23
        Process exit status for ``action='exit'``.
    """

    site: str
    p: float = 1.0
    seed: int = 0
    at: int | None = None
    times: int | None = None
    action: str = "raise"
    delay: float = 0.05
    exit_code: int = 23

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(
                f"action: expected one of {ACTIONS}, got {self.action!r}"
            )
        if not 0.0 <= float(self.p) <= 1.0:
            raise ValueError(f"p: expected 0..1, got {self.p!r}")
        if self.at is not None and int(self.at) < 1:
            raise ValueError(f"at: expected >= 1, got {self.at!r}")
        if self.times is not None and int(self.times) < 1:
            raise ValueError(f"times: expected >= 1, got {self.times!r}")
        if float(self.delay) < 0:
            raise ValueError(f"delay: expected >= 0, got {self.delay!r}")

    @classmethod
    def parse(cls, text: str) -> "FailPoint":
        """Parse one ``site[:key=value]...`` clause of ``REPRO_FAULTS``.

        >>> FailPoint.parse("serve.run_group:at=2:action=raise").at
        2
        """
        parts = [p for p in text.strip().split(":") if p]
        if not parts:
            raise ValueError("empty fault clause")
        site, kwargs = parts[0], {}
        casts = {
            "p": float,
            "seed": int,
            "at": int,
            "times": int,
            "action": str,
            "delay": float,
            "exit_code": int,
        }
        for part in parts[1:]:
            key, sep, value = part.partition("=")
            if not sep or key not in casts:
                raise ValueError(
                    f"fault clause {text!r}: bad option {part!r} "
                    f"(known: {sorted(casts)})"
                )
            kwargs[key] = casts[key](value)
        return cls(site=site, **kwargs)

    def describe(self) -> str:
        """The clause in ``REPRO_FAULTS`` syntax."""
        out = [self.site]
        defaults = FailPoint(site=self.site)
        for key in ("p", "seed", "at", "times", "action", "delay",
                    "exit_code"):
            value = getattr(self, key)
            if value != getattr(defaults, key):
                out.append(f"{key}={value}")
        return ":".join(out)


class FaultRegistry:
    """The armed fail points plus per-site hit/fire accounting.

    Thread-safe: the firing decision (hit counters, the seeded random
    stream) runs under a lock; the action itself (raise, exit, sleep)
    runs outside it so a sleeping site cannot block other sites.

    Parameters
    ----------
    points : sequence of FailPoint
        The rules to arm, at most one per site.
    """

    def __init__(self, points):
        points = list(points)
        by_site = {}
        for point in points:
            if point.site in by_site:
                raise ValueError(
                    f"duplicate fail point for site {point.site!r}"
                )
            by_site[point.site] = point
        self._points = by_site
        self._hits = dict.fromkeys(by_site, 0)
        self._fired = dict.fromkeys(by_site, 0)
        self._rngs = {
            site: random.Random(f"{point.seed}:{site}")
            for site, point in by_site.items()
        }
        self._lock = threading.Lock()

    def sites(self) -> list:
        """The armed site names, sorted."""
        return sorted(self._points)

    def hit(self, site: str) -> None:
        """Register one hit of ``site``; fire its action if armed.

        Raises
        ------
        FaultInjected
            When the site fires with ``action='raise'``.
        """
        point = self._points.get(site)
        if point is None:
            return
        with self._lock:
            self._hits[site] += 1
            hits = self._hits[site]
            if point.times is not None and (
                self._fired[site] >= point.times
            ):
                return
            if point.at is not None:
                fire = hits == point.at
            elif point.p >= 1.0:
                fire = True
            else:
                fire = self._rngs[site].random() < point.p
            if not fire:
                return
            self._fired[site] += 1
        if point.action == "sleep":
            time.sleep(point.delay)
            return
        if point.action == "exit":
            os._exit(point.exit_code)
        raise FaultInjected(site)

    def stats(self) -> dict:
        """Per-site ``{"hits": int, "fired": int, "rule": str}``."""
        with self._lock:
            return {
                site: {
                    "hits": self._hits[site],
                    "fired": self._fired[site],
                    "rule": self._points[site].describe(),
                }
                for site in self._points
            }


#: The active registry; ``None`` means fault injection is disabled
#: and every :func:`fault_point` call is a no-op.
_ACTIVE: FaultRegistry | None = None


def fault_point(site: str) -> None:
    """Production hook: fire ``site``'s armed fault, if any.

    Call this at every named failure site.  With no faults installed
    (the default) it returns immediately — one global read and an
    ``is None`` test — so the serving hot path pays nothing.

    Parameters
    ----------
    site : str
        A :data:`SITES` key.

    Raises
    ------
    FaultInjected
        When the site is armed with ``action='raise'`` and fires.
    """
    registry = _ACTIVE
    if registry is None:
        return
    registry.hit(site)


def install_faults(config, strict: bool = True) -> FaultRegistry:
    """Arm a fault plan for this process (replacing any previous one).

    Parameters
    ----------
    config : str or sequence of FailPoint
        Either a ``REPRO_FAULTS``-syntax string
        (comma-separated ``site[:key=value]...`` clauses) or explicit
        :class:`FailPoint` rules.
    strict : bool, default True
        Reject sites not listed in :data:`SITES` (catches typos in a
        chaos plan); pass ``False`` to arm scratch sites in tests.

    Returns
    -------
    FaultRegistry
        The registry now active.
    """
    global _ACTIVE
    if isinstance(config, str):
        points = [
            FailPoint.parse(clause)
            for clause in config.split(",")
            if clause.strip()
        ]
    else:
        points = [
            p if isinstance(p, FailPoint) else replace(p)
            for p in config
        ]
    if strict:
        unknown = [p.site for p in points if p.site not in SITES]
        if unknown:
            raise ValueError(
                f"unknown fault site(s) {unknown}; known: "
                f"{sorted(SITES)}"
            )
    registry = FaultRegistry(points)
    _ACTIVE = registry
    return registry


def clear_faults() -> None:
    """Disarm every fail point (back to the zero-cost default)."""
    global _ACTIVE
    _ACTIVE = None


def active_faults() -> FaultRegistry | None:
    """The registry currently armed, or ``None`` when disabled."""
    return _ACTIVE


def _install_from_env() -> None:
    """Arm ``REPRO_FAULTS`` at import, so subprocesses inherit the
    parent's chaos plan; a malformed value fails loudly here rather
    than silently running without faults."""
    plan = os.environ.get("REPRO_FAULTS", "").strip()
    if plan:
        install_faults(plan)


_install_from_env()
