"""Genetic-programming symbolic regression (the paper's formula inference)."""

from .functions import DEFAULT_FUNCTION_NAMES, FUNCTION_SET, GpFunction
from .tree import Node, random_tree
from .batch import batched_maes
from .cache import FitnessCache
from .compile import CompiledProgram, compile_tree, prime_instruction_tables, tree_key
from .engine import GeneticProgrammer, GpConfig, GpResult, polish_constants
from .serialize import tree_from_tokens, tree_to_tokens
from .simplify import fold_constants, pretty

__all__ = [
    "batched_maes",
    "DEFAULT_FUNCTION_NAMES",
    "FUNCTION_SET",
    "GpFunction",
    "Node",
    "random_tree",
    "FitnessCache",
    "CompiledProgram",
    "compile_tree",
    "prime_instruction_tables",
    "tree_key",
    "tree_to_tokens",
    "tree_from_tokens",
    "GeneticProgrammer",
    "GpConfig",
    "GpResult",
    "polish_constants",
    "fold_constants",
    "pretty",
]
