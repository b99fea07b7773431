"""Static binary analysis for SpecVM executables.

A five-stage pipeline (Sections 9 and 13 of DESIGN.md) in which each
decision has one home:

1. :mod:`repro.analysis.cfg` — basic blocks and their edges, and the
   two graph routines later stages share (one depth-first
   ``reachable``, one ``dominator_sets`` fixpoint);
2. :mod:`repro.analysis.dataflow` — what each instruction defines and
   uses under the SpecVM calling convention;
3. :mod:`repro.analysis.absint` — abstract interpretation over a value
   range / function-pointer / stack-slot domain, and the one
   per-function fixpoint engine (``solve_function``) every dataflow
   problem of stages 3 and 5 runs on;
4. :mod:`repro.analysis.driver` — whole-binary facts: transfer
   resolution, speculation and syscall reachability, and lint findings;
5. :mod:`repro.analysis.taint` — the speculation-security lint: a taint
   domain carried through stage 3's engine alongside its lattice,
   proving (or refuting, with a witness def-use chain over reaching
   definitions, which run on the same engine) that secret-marked data
   regions cannot flow into the operands of a disclosed I/O hint.

The analysis reports and lints; it changes no binary.  The SpecHint tool
(:mod:`repro.spechint.tool`) transforms every binary mechanically, giving
every shadow load and store its COW check as the paper does, and imports
nothing from this package, so a simulated run loads none of it.
"""
