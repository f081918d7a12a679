"""Deterministic, seed-driven fault injection.

A :class:`ChaosEngine` owns a set of :class:`FaultSpec` rules ("fail
5% of atomic writes", "always crash the detector for truck-7") and a
:class:`numpy.random.SeedSequence`-derived stream *per fault site*, so
the k-th decision at a site is a pure function of ``(seed, site, k)`` —
never of wall clock or scheduling.  Running the same soak with the same
seed reproduces the same fault ledger bit for bit.

Production code is instrumented with :func:`chaos_point` calls at its
fault sites — a module-global lookup that costs one ``is None`` check
when no engine is installed.  Install an engine with the context
manager (``with ChaosEngine(seed=7, specs=[...]):``) or the
:func:`inject` decorator.

Fault sites instrumented across the repository::

    io.write         atomic_write_bytes     fail | torn (partial bytes)
    io.rename        replace_file           fail
    io.read          load_checked_json/npz  fail
    stream.ping      chaos_ping_stream      corrupt | duplicate | skew
    detector.batch   fleet batched detect   fail
    detector.forward fleet per-session      fail   (key = "truck|day")
    fleet.snapshot   fleet snapshot build   fail   (key = "truck|day")
    serve.worker     FleetService submit    kill | crash | hang
                                                   (key = shard index)

The injected faults are *additive or recoverable by design*: an engine
only ever raises injected exceptions, emits extra hostile pings, or
tears files mid-write — it never silently mutates healthy data in
place.  That is what lets chaos soaks assert bit-identical healthy
output against a fault-free run with the same data seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["FaultSpec", "Fault", "ChaosEngine", "chaos_point",
           "active_engine", "inject", "InjectedFault"]


class InjectedFault(OSError):
    """Exception type raised for injected IO-style faults.

    Subclasses ``OSError`` so the production retry paths treat injected
    faults exactly like real transient IO errors — chaos exercises the
    same handlers real faults would hit.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: where, what, how often.

    ``rate`` is the per-hit firing probability (1.0 = always).  ``keys``
    restricts the rule to specific hit keys (e.g. one truck's sessions).
    ``max_fires`` stops the rule after N firings; ``param`` carries a
    kind-specific knob (torn-write cut position in bytes, hang duration
    in seconds, clock-skew offset).
    """

    site: str
    kind: str
    rate: float = 1.0
    keys: frozenset[str] | None = None
    max_fires: int | None = None
    param: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if self.keys is not None:
            object.__setattr__(self, "keys",
                               frozenset(str(k) for k in self.keys))


@dataclass(frozen=True)
class Fault:
    """One fired fault decision, handed to the instrumented call site.

    ``draw`` is the uniform variate that fired the rule; ``aux`` is a
    second deterministic variate for the site to shape the fault with
    (cut position, corruption variant).  Picklable, so parallel workers
    can apply decisions drawn in the parent.
    """

    spec: FaultSpec
    seq: int            # global ledger position
    fire: int           # n-th firing of this spec (1-based)
    key: str | None
    draw: float
    aux: float

    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def param(self) -> float | None:
        return self.spec.param

    def cut(self, size: int) -> int:
        """Torn-write cut position in ``[0, size]``.

        Uses ``spec.param`` when set (crash-consistency fuzzers sweep
        it over every byte boundary), otherwise the deterministic
        ``aux`` draw.
        """
        if self.param is not None:
            return max(0, min(int(self.param), size))
        return int(self.aux * (size + 1)) if size >= 0 else 0


def _site_spawn_key(site: str) -> int:
    digest = hashlib.blake2b(site.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass
class _SpecState:
    spec: FaultSpec
    fires: int = 0


class ChaosEngine:
    """Installable fault injector with a replayable ledger."""

    def __init__(self, seed: int = 0,
                 specs: Iterable[FaultSpec] = ()) -> None:
        self.seed = int(seed)
        self._specs: list[_SpecState] = [_SpecState(s) for s in specs]
        self._rngs: dict[str, np.random.Generator] = {}
        self._ledger: list[dict] = []

    # ------------------------------------------------------------------
    def _rng(self, site: str) -> np.random.Generator:
        rng = self._rngs.get(site)
        if rng is None:
            rng = np.random.default_rng(np.random.SeedSequence(
                self.seed, spawn_key=(_site_spawn_key(site),)))
            self._rngs[site] = rng
        return rng

    def hit(self, site: str, key: str | None = None) -> Fault | None:
        """Evaluate one pass through a fault site.

        Specs matching ``(site, key)`` are consulted in registration
        order; the first one whose draw fires wins.  Every consulted
        spec consumes exactly one draw from the site's stream whether
        it fires or not, so the decision sequence is independent of
        which rules happen to fire first.
        """
        fault: Fault | None = None
        for state in self._specs:
            spec = state.spec
            if spec.site != site:
                continue
            if spec.keys is not None and str(key) not in spec.keys:
                continue
            if spec.max_fires is not None and state.fires >= spec.max_fires:
                continue
            draw = float(self._rng(site).random())
            if fault is None and draw < spec.rate:
                state.fires += 1
                aux = float(self._rng(site).random())
                fault = Fault(spec=spec, seq=len(self._ledger),
                              fire=state.fires,
                              key=None if key is None else str(key),
                              draw=draw, aux=aux)
                self._ledger.append({
                    "seq": fault.seq, "site": site, "kind": spec.kind,
                    "key": fault.key, "fire": fault.fire,
                    "draw": round(draw, 12),
                })
        return fault

    # ------------------------------------------------------------------
    @property
    def ledger(self) -> list[dict]:
        """Every fired fault, in order — JSON-safe and replayable."""
        return [dict(entry) for entry in self._ledger]

    def fired(self, site: str | None = None) -> int:
        if site is None:
            return len(self._ledger)
        return sum(1 for entry in self._ledger if entry["site"] == site)

    # ------------------------------------------------------------------
    def __enter__(self) -> "ChaosEngine":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a ChaosEngine is already installed")
        _ACTIVE = self
        return self

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE
        _ACTIVE = None


_ACTIVE: ChaosEngine | None = None


def active_engine() -> ChaosEngine | None:
    """The installed engine, or ``None`` (the production fast path)."""
    return _ACTIVE


def chaos_point(site: str, key: str | None = None) -> Fault | None:
    """Evaluate a fault site; ``None`` (no fault) when chaos is off."""
    if _ACTIVE is None:
        return None
    return _ACTIVE.hit(site, key)


def inject(seed: int = 0, specs: Sequence[FaultSpec] = ()):
    """Decorator: run the wrapped callable under a fresh engine.

    The engine is exposed to the callable via the keyword argument
    ``chaos_engine`` when its signature accepts one.
    """
    def decorate(fn):
        def wrapped(*args, **kwargs):
            with ChaosEngine(seed=seed, specs=specs) as engine:
                if "chaos_engine" in getattr(
                        fn, "__code__", None).co_varnames:
                    kwargs.setdefault("chaos_engine", engine)
                return fn(*args, **kwargs)
        wrapped.__name__ = getattr(fn, "__name__", "wrapped")
        wrapped.__doc__ = fn.__doc__
        return wrapped
    return decorate
