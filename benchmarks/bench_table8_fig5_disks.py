"""Table 8 and Figure 5: varying available I/O parallelism (1/2/4/10 disks).

Paper:
* Table 8 — the original, non-hinting applications "are unable to derive
  much benefit from additional disks";
* Figure 5 — the hinting applications' benefit grows with disks; all
  benchmarks gain much less with a single disk (prefetching can only
  overlap computation); the speculating Gnuld *degrades* with one disk
  (erroneous prefetches consume scarce bandwidth); and at 10 disks the
  speculating Agrep can no longer generate hints fast enough (its dilation
  factor), unlike its manual counterpart.
"""

from conftest import banner, once

from repro.harness import paper
from repro.harness.experiments import run_sweep
from repro.harness.tables import format_improvement_series, format_table8


def test_table8_and_fig5_disks(benchmark):
    sweep = once(benchmark, lambda: run_sweep("disks", (1, 2, 4, 10)))
    print(banner("Table 8 - original applications vs number of disks"))
    print(format_table8(sweep))
    print(banner("Figure 5 - improvement vs number of disks"))
    print(format_improvement_series(sweep, "number of disks"))
    print(f"\npaper notes: {paper.FIG5_NOTES}")

    def improvement(ndisks, app, variant):
        matrix = sweep[ndisks][app]
        return matrix[variant].improvement_over(matrix["original"])

    # Table 8 shape: originals gain comparatively little from extra disks
    # (< 45% from 1 to 10 disks; the paper sees < 15%, our Gnuld's useful
    # read-ahead overlaps a bit more).
    for app in ("agrep", "gnuld", "xds"):
        one = sweep[1][app]["original"].elapsed_s
        ten = sweep[10][app]["original"].elapsed_s
        assert ten > one * 0.55, f"{app}: original scales too well with disks"

    # Figure 5 shape: everything benefits much less with a single disk.
    for app in ("agrep", "xds"):
        for variant in ("speculating", "manual"):
            assert improvement(1, app, variant) < improvement(4, app, variant)

    # Speculating Gnuld with one disk: erroneous prefetches consume scarce
    # bandwidth — it trails its manual counterpart by far more than at
    # 4 disks (the paper even sees a net slowdown).
    assert improvement(1, "gnuld", "speculating") < \
        improvement(1, "gnuld", "manual") - 10
    assert improvement(1, "gnuld", "speculating") < \
        improvement(4, "gnuld", "speculating")

    # Manual improvements grow (weakly) with disk count for every app.
    for app in ("agrep", "gnuld", "xds"):
        assert improvement(10, app, "manual") >= \
            improvement(1, app, "manual")

    # At 10 disks, speculating Agrep trails its manual counterpart by more
    # than it does at 4 disks (hint generation cannot keep 10 disks busy).
    agrep_gap_4 = improvement(4, "agrep", "manual") - \
        improvement(4, "agrep", "speculating")
    agrep_gap_10 = improvement(10, "agrep", "manual") - \
        improvement(10, "agrep", "speculating")
    assert agrep_gap_10 >= agrep_gap_4 - 1.0
