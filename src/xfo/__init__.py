"""Semantic-modeling kernel: layered entity definitions, validated
relationships, transitionals, frames, checked workflows, and deterministic
microworld simulation."""

from .dynamics import (
    ActivateDirective,
    ApplyDirective,
    CompletenessReport,
    Cond,
    DeactivateDirective,
    Frame,
    LinkTemplate,
    Loop,
    Rule,
    RunSpec,
    Seq,
    StatePredicate,
    Transitional,
    Wildcard,
    Workflow,
    WorkflowStep,
    activate_frame,
    apply_transitional,
    check_completeness,
    deactivate_frame,
    define_frame,
    define_rule,
    define_transitional,
    define_workflow,
)
from .microworld import (
    RunStatus,
    Scenario,
    Simulation,
    WorkflowRun,
    load_scenario,
)
from .ontology import (
    B_TAXONOMY,
    EntityDef,
    EntityId,
    Layer,
    Registry,
    bootstrap_b_taxonomy,
)
from .relations import (
    BUILTIN_KINDS,
    LinkInstance,
    RelationDeclaration,
    RelationKind,
    State,
    TIC,
    ValidationResult,
    World,
)
from .trace import TraceDoc, TraceEvent, parse_trace, replay_spans, trace_parts, trace_to_json

__version__ = "0.1.0"
