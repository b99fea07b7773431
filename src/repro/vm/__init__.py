"""SpecVM: the execution substrate standing in for Alpha binaries.

The paper's SpecHint tool rewrites Digital UNIX Alpha binaries.  This
package provides the synthetic equivalent: a small load/store register ISA
with text/data/stack sections, a symbol table, function boundaries, jump
tables, and indirect control transfers — exactly the binary features
SpecHint's transformations operate on.  Programs (the benchmark
applications) are written against :class:`~repro.vm.assembler.Assembler`
and executed by :class:`~repro.vm.machine.Machine` with per-instruction
cycle accounting on the shared simulation clock.
"""
