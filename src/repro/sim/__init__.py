"""Discrete-event simulation core.

The whole reproduction runs on a single simulated clock measured in
*processor cycles* (integers).  The SpecVM interpreter advances the clock as
it executes instructions; the storage substrate schedules I/O completion
events at absolute cycle times on the shared :class:`~repro.sim.engine.EventEngine`.
"""
