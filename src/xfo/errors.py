"""Kernel error types.

Every error class carries a stable ``code`` used by the DSL diagnostics
layer; the mapping is one code per class.
"""
from __future__ import annotations


class XfoError(Exception):
    """Base class for all kernel errors."""

    code = "E_KERNEL"

    def within(self, where: str) -> XfoError:
        """This error, its message prefixed with ``where``, the place the
        fault was written (a rule, a scenario); its class, and so its
        code, and its attributes are kept."""
        self.args = (f"{where}: {self}",)
        return self


class InvalidNameError(XfoError):
    code = "E_BAD_NAME"


class DuplicateNameError(XfoError):
    code = "E_DUP_NAME"


class BadParentError(XfoError):
    code = "E_BAD_PARENT"


class UnknownParentError(BadParentError):
    code = "E_UNKNOWN_PARENT"


class UnknownEntityError(XfoError):
    code = "E_UNKNOWN_ENTITY"


class UnknownKindError(XfoError):
    code = "E_UNKNOWN_KIND"


class BadBoundError(XfoError):
    code = "E_BAD_BOUND"


class SignatureMismatchError(XfoError):
    """Tier-1 failure: a B-level signature does not cover the declaration."""

    code = "E_SIG_MISMATCH"


class LinkEditError(XfoError):
    """``World.edit`` refused its batch; ``triple`` is the link at fault."""

    code = "E_LINK_EDIT"

    def __init__(self, message, triple=None):
        super().__init__(message)
        self.triple = triple


class InvalidLinkError(LinkEditError):
    """A particular-level link failed validation; ``result`` is its verdict."""

    code = "E_INVALID_LINK"

    def __init__(self, message, result=None, triple=None):
        super().__init__(message, triple)
        self.result = result


class Tier2UncoveredError(InvalidLinkError):
    """Tier-2 failure: no U-level declaration covers the link."""

    code = "E_TIER2_UNCOVERED"


class DuplicateActiveLinkError(LinkEditError):
    code = "E_DUP_LINK"


class NoActiveLinkError(LinkEditError):
    code = "E_NO_ACTIVE_LINK"


class NotIndependentContinuantError(XfoError):
    code = "E_NOT_INDEPENDENT"


class InvalidTemplateError(XfoError):
    code = "E_INVALID_TEMPLATE"


class PreconditionFailedError(XfoError):
    """An atomic edit batch was rejected; the world is unchanged.

    ``predicate`` names the implicit state predicate that failed, rendered
    in DSL syntax.
    """

    code = "E_PRECONDITION"

    def __init__(self, message, predicate=None):
        super().__init__(message)
        self.predicate = predicate


class UnknownSlotError(XfoError):
    code = "E_UNKNOWN_SLOT"


class IncompleteBindingError(XfoError):
    code = "E_INCOMPLETE_BINDING"


class AlreadyActiveError(XfoError):
    code = "E_ALREADY_ACTIVE"


class NotActiveError(XfoError):
    code = "E_NOT_ACTIVE"


class UnboundedLoopError(XfoError):
    code = "E_UNBOUNDED_LOOP"


class MissingAgentError(XfoError):
    code = "E_MISSING_AGENT"


class UnknownActionError(XfoError):
    code = "E_UNKNOWN_ACTION"


class ResolveError(XfoError):
    code = "E_RESOLVE"


class InvalidInitialLinkError(XfoError):
    code = "E_INVALID_INIT_LINK"


class NotInterruptibleError(XfoError):
    code = "E_NOT_INTERRUPTIBLE"


class MalformedTraceError(XfoError):
    code = "E_MALFORMED_TRACE"


class TickOutOfRangeError(XfoError):
    code = "E_TICK_RANGE"


class TickOrderError(XfoError):
    """A world edit or event is dated before the world's last recorded tick."""

    code = "E_TICK_ORDER"


class SimulationError(XfoError):
    """A scenario-level failure outside any modeled run outcome."""

    code = "E_SIMULATION"
