"""An occurrence-typed lambda calculus: typechecker, small-step
evaluator, refinement erasure, and a randomized soundness harness.

Each public name is imported from the layer module that defines it."""

# The benchmark imports the package and reads each layer module off
# sys.modules, so importing the package imports them all.
from . import checker, harness, refine, semantics, subtyping, syntax
