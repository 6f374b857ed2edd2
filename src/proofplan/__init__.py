"""Dependency-matrix planned logical reasoning.

Natural-language logic problems are translated into a typed first-order
representation, planned as a binary dependency matrix over inference steps,
executed by frontier scheduling, and repaired by feedback-driven replanning.
A deterministic forward-chaining solver doubles as a pipeline backend and as
ground truth for verification.
"""

from .backends import Backend, BackendError, LiveBackend, ScriptedBackend, SolverStubBackend
from .fol import Formula, SymbolTable, free_vars, parse_formula, render_formula
from .harness import Instance, RunReport, evaluate, load_dataset, stratify_by_depth
from .pipeline import (
    Diagnosis,
    PipelineConfig,
    PipelineResult,
    Problem,
    Trace,
    diagnose,
    run_pipeline,
)
from .plan import (
    AddEdge,
    DelEdge,
    EditOp,
    Plan,
    PlanStep,
    apply_edits,
    transitive_reduce,
)
from .solver import (
    KnowledgeBase,
    Literal,
    Verdict,
    brute_force_entails,
    decide,
    forward_chain,
    kb_from_repr,
)
from .structured import (
    StructuredRepr,
    build_repr,
    deserialize_repr,
)

__version__ = "0.1.0"
