"""Static binary analysis for SpecVM executables.

A five-stage pipeline (Sections 9 and 13 of DESIGN.md) in which each
decision has one home:

1. :mod:`repro.analysis.cfg` — basic blocks, dominators, natural loops,
   and the two graph routines every stage shares (one depth-first
   ``reachable``, one ``dominator_sets`` fixpoint);
2. :mod:`repro.analysis.dataflow` — generic worklist solver, reaching
   definitions, liveness;
3. :mod:`repro.analysis.absint` — abstract interpretation over a value
   range / function-pointer / stack-slot domain, and the one
   per-function fixpoint engine (``solve_function``) stages 3 and 5 run;
4. :mod:`repro.analysis.driver` — whole-binary facts: transfer
   resolution, store classification, speculation and syscall
   reachability, lint findings, and the
   :class:`~repro.analysis.driver.ElisionPlan` the SpecHint tool
   consumes — whose ``site_check`` is the only place that decides what
   check a load/store site gets;
5. :mod:`repro.analysis.taint` — the speculation-security lint: a taint
   domain carried through stage 3's engine alongside its lattice,
   proving (or refuting, with a witness def-use chain) that
   secret-marked data regions cannot flow into the operands of a
   disclosed I/O hint.

The analysis is advisory: the runtime isolation auditor remains the
soundness oracle, so a wrong fact degrades to a quarantine (performance
loss), never to corrupted output.
"""
