"""Execution-control modes derived from the IE / reset / write-enable lines."""

from __future__ import annotations

import enum


class ControlMode(enum.Enum):
    PROGRAMMING = "programming"    # IE=0, reset=0, external writes enabled
    RESET_HOLD = "reset_hold"      # reset=1; pc held at zero
    EXECUTING = "executing"        # IE=1, reset=0
    OBSERVATION = "observation"    # IE=0, writes disabled; memory read-only

    # Singletons compared by identity, so identity is a valid hash (Enum's
    # own hashes the name in Python); a store through the bus tests WRITE_MODES.
    __hash__ = object.__hash__


def mode_from_lines(ie: int, reset: int, write_enable: int) -> ControlMode:
    """Reset dominates, then IE, then the external write enable."""
    if reset:
        return ControlMode.RESET_HOLD
    if ie:
        return ControlMode.EXECUTING
    if write_enable:
        return ControlMode.PROGRAMMING
    return ControlMode.OBSERVATION


# Modes in which a write may land in memory: external loading, or the
# core's own store path while executing.  Observation and reset never write.
WRITE_MODES = frozenset({ControlMode.PROGRAMMING, ControlMode.EXECUTING})
