"""Software agents exchanging dataset credentials over signed HTTP envelopes.

A publisher agent issues credentials to a dataset agent over an established
connection; user agents request proof of those credentials and verify the
returned presentation against their own challenge. No human in the loop.
"""

from .config import AgentConfig, Policy
from .envelopes import MessageEnvelope
from .service import Agent
from .state import Connection

__all__ = [
    "Agent",
    "AgentConfig",
    "Connection",
    "MessageEnvelope",
    "Policy",
]
