"""Deterministic fault injection for the mediation stack.

The subsystem splits cleanly into *what* goes wrong, *when* it fires,
and *where* it is enacted:

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultRule` /
  :class:`FaultEvent`: the declarative, JSON-round-trip-safe description
  of a chaos scenario and its deterministic, timestamp-free event log,
* :mod:`repro.faults.injector` — :class:`FaultInjector`: the seeded,
  thread-safe trigger engine shared by every injection site of a run,
* :mod:`repro.faults.transport` — :class:`FaultyTransport`: decorator
  injecting faults above any carrier (bus or TCP),
* :mod:`repro.faults.leaky` — :class:`LeakyTransport`: a deliberately
  size-leaking decorator, the canary proving the CI leakage gate bites,
* :mod:`repro.faults.proxy` — :class:`ChaosProxy`: an in-process TCP
  relay injecting faults below the carrier, at the frame level,
* :mod:`repro.faults.storage` — :class:`FaultyStorage`: decorator
  injecting faults into any storage backend.

See ``docs/robustness.md`` for the fault model and a plan cookbook;
``repro query --fault-plan plan.json`` runs one from the CLI.
"""

from repro.faults.injector import FAULTS_INJECTED_METRIC, FaultInjector
from repro.faults.plan import (
    ACTIONS,
    SITE_ACTIONS,
    FaultEvent,
    FaultPlan,
    FaultRule,
)
from repro.faults.leaky import PAD_KIND, LeakyTransport
from repro.faults.proxy import ChaosProxy
from repro.faults.storage import FaultyStorage
from repro.faults.transport import FaultyTransport

__all__ = [
    "ACTIONS",
    "SITE_ACTIONS",
    "FAULTS_INJECTED_METRIC",
    "ChaosProxy",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "FaultyStorage",
    "FaultyTransport",
    "LeakyTransport",
    "PAD_KIND",
]
