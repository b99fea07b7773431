"""Table 7: elapsed time as the file cache size is varied (6/12/64 MB).

Paper: the cache size barely matters for Agrep and XDataSlice (little
reuse, read-ahead rarely fetches far-future data), but the original Gnuld
improves significantly with a 64 MB cache, shrinking the benefit available
to prefetching — the speculating Gnuld's relative gain drops (29% -> 20%)
while many of the reads it cannot hint keep stalling.
"""

from conftest import banner, once

from repro.harness.experiments import run_sweep
from repro.harness.tables import format_table7


#: Our large-cache point: at the paper's 64 MB the ~8x-scaled cache would
#: exceed the scaled datasets entirely (everything cached after one pass);
#: 32 MB preserves the paper's 64 MB regime (cache large relative to reuse
#: but smaller than the data).
CACHE_POINTS = (6.0, 12.0, 32.0)


def test_table7_cache_size(benchmark):
    sweep = once(benchmark, lambda: run_sweep("cache", CACHE_POINTS))
    print(banner("Table 7 - varying the file cache size"))
    print(format_table7(sweep))

    small, default, big = CACHE_POINTS

    def improvement(mb, app, variant):
        matrix = sweep[mb][app]
        return matrix[variant].improvement_over(matrix["original"])

    # Gnuld's original run benefits from a big cache...
    gnuld_small = sweep[small]["gnuld"]["original"].elapsed_s
    gnuld_big = sweep[big]["gnuld"]["original"].elapsed_s
    assert gnuld_big < gnuld_small * 0.9

    # ...which shrinks the manual Gnuld's relative benefit (paper: 68% ->
    # 55%) and keeps the speculating one from growing (paper: 30% -> 20%).
    assert improvement(big, "gnuld", "manual") < \
        improvement(small, "gnuld", "manual")
    assert improvement(big, "gnuld", "speculating") < \
        improvement(small, "gnuld", "speculating") + 5

    # Agrep stays flat across cache sizes (no reuse at all).
    agrep_originals = [sweep[mb]["agrep"]["original"].elapsed_s
                       for mb in CACHE_POINTS]
    assert max(agrep_originals) < min(agrep_originals) * 1.15

    # Hinting keeps winning at every cache size.
    for mb in CACHE_POINTS:
        for app in ("agrep", "gnuld", "xds"):
            assert improvement(mb, app, "manual") > 15
            assert improvement(mb, app, "speculating") > 15
