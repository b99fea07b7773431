"""Figure 6: simulating a widening gap between processor and disk speeds.

Paper methodology: delay I/O completion *notification* by the ratio (with
at most one outstanding prefetch per disk) and scale the measurements back
down.  Expectations: manual improvements "increase steadily but
insignificantly"; speculating Agrep and XDataSlice track their manual
counterparts (Agrep catches up around a ratio of 3: 87% vs 84%); Gnuld's
data dependencies are independent of processor speed, so its speculating
curve stays offset below the manual one.
"""

from conftest import banner, once

from repro.harness import paper
from repro.harness.experiments import run_sweep
from repro.harness.tables import format_improvement_series

RATIOS = (1, 2, 3, 5, 7, 9)


def test_fig6_cpu_disk_ratio(benchmark):
    sweep = once(benchmark, lambda: run_sweep("ratio", RATIOS))
    print(banner("Figure 6 - widening processor/disk speed gap"))
    print(format_improvement_series(sweep, "processor/disk speed ratio"))

    def improvement(ratio, app, variant):
        matrix = sweep[ratio][app]
        return matrix[variant].improvement_over(matrix["original"])

    # Manual improvements never collapse as the gap widens.
    for app in ("agrep", "gnuld", "xds"):
        first = improvement(RATIOS[0], app, "manual")
        last = improvement(RATIOS[-1], app, "manual")
        assert last > first - 8, f"{app}: manual curve collapsed"

    # Speculating Agrep closes on manual as stalls lengthen (the paper's
    # ratio-3 crossover: more cycles per stall => more hints per stall).
    gap_at_1 = improvement(1, "agrep", "manual") - \
        improvement(1, "agrep", "speculating")
    gap_at_9 = improvement(9, "agrep", "manual") - \
        improvement(9, "agrep", "speculating")
    assert gap_at_9 <= gap_at_1 + 2

    # Gnuld's speculating curve stays offset below manual at every ratio:
    # its limits are data dependencies, which faster processors cannot fix.
    for ratio in RATIOS:
        assert improvement(ratio, "gnuld", "speculating") < \
            improvement(ratio, "gnuld", "manual")

    # XDataSlice speculation already keeps the disks busy at ratio 1;
    # it tracks manual within a modest band at every ratio.
    for ratio in RATIOS:
        gap = abs(
            improvement(ratio, "xds", "speculating")
            - improvement(ratio, "xds", "manual")
        )
        assert gap < 15
