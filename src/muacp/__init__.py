"""Minimal four-verb agent messaging.

Layers, bottom up: wire (binary codec), resources (cost accounting),
agent (processing semantics), simnet (seeded discrete-event network),
then three siblings over simnet that import none of each other: fipa
(performative translation and protocol checking), consensus
(single-decree agreement) and workloads (scale traffic); compression
(entropy analysis) sits on wire, and cli (command line entry points)
imports each layer only in the command that runs it.
"""

__version__ = "0.1.0"

from .wire import (  # noqa: F401
    Header,
    Message,
    Option,
    OptionType,
    Verb,
    WireError,
    decode,
    encode,
    message,
    validate,
)
