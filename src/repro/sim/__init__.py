"""Discrete-event simulation substrate (stands in for SimOS's event core)."""

from .engine import Engine, Interrupt, Process, SimEvent, SimulationError
from .resources import Mutex, Semaphore, Server, serve_legs

__all__ = [
    "Engine", "Interrupt", "Process", "SimEvent", "SimulationError",
    "Mutex", "Semaphore", "Server", "serve_legs",
]
