"""Exception types shared across the package."""

from __future__ import annotations


class RadioLBError(Exception):
    """Base class for all domain errors raised by radiolb."""


class UnknownLabel(RadioLBError):
    """A label was used that does not belong to the network."""


class LegalityViolation(RadioLBError):
    """A node broke the transmission rules in one round; equal by kind, node and round."""

    def __init__(self, message: str, label: int, round: int):
        super().__init__(message)
        self.label = label
        self.round = round

    def __eq__(self, other):
        return type(other) is type(self) and (self.label, self.round) == (other.label, other.round)

    def __hash__(self):
        return hash((type(self).__name__, self.label, self.round))


class NonSourceRoundZero(LegalityViolation):
    """A node other than the source attempted to transmit in round 0."""

    def __init__(self, label: int, round: int = 0):
        super().__init__(f"node {label} transmitted in round 0 but is not the source", label, round)


class SpontaneityViolation(LegalityViolation):
    """A node transmitted before ever receiving a message (and is not the source)."""

    def __init__(self, label: int, round: int):
        super().__init__(f"node {label} transmitted spontaneously in round {round}", label, round)


def unheard_transmission(label: int, round: int) -> LegalityViolation:
    """The violation of a node other than the source that transmits in
    ``round`` before it has received any message."""
    return SpontaneityViolation(label, round) if round else NonSourceRoundZero(label)


class InvalidTau(RadioLBError):
    """A topology integer is outside the valid range [1, 2^k)."""


class EnumerationTooLarge(RadioLBError):
    """A family enumeration would exceed the configured cap."""


class IndexOutOfUniverse(RadioLBError):
    """A set family does not match the universe it is being used against."""


class StageMismatch(RadioLBError):
    """A protocol transformer was fed a protocol from the wrong stage."""


class UniverseTooLarge(RadioLBError):
    """An exhaustive subset search would exceed the configured universe cap."""


class FreeComponentMissing(RadioLBError):
    """Pruning marked every component, leaving no free component to vary."""


class ProtocolBindingError(RadioLBError):
    """A protocol that needs per-network setup data was used without binding."""


class WitnessInconsistency(RadioLBError):
    """A candidate witness failed its direct cross-check; indicates a transformer bug."""
