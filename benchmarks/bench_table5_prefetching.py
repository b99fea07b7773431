"""Table 5: prefetching and caching statistics.

Paper signatures:
* the original XDataSlice's sequential read-ahead is "entirely too
  aggressive": 58% of its prefetched blocks go unused, while the hinting
  XDataSlices almost eliminate unused prefetches (0.3% / 0.0%);
* the speculating Gnuld sees far more *partial* prefetches than the manual
  one (its data-dependent hints arrive late) and far more *unused* blocks
  (erroneous hints);
* cache-block reuse figures stay close across variants ("erroneous
  prefetching did not significantly harm caching behavior").
"""

from conftest import banner, headline_matrix, once

from repro.harness.tables import format_table5


def test_table5_prefetching(benchmark):
    matrix = once(benchmark, headline_matrix)
    print(banner("Table 5 - prefetching and caching statistics"))
    print(format_table5(matrix))

    xds = matrix["xds"]
    xds_orig_unused = xds["original"].prefetched_unused / max(
        1, xds["original"].prefetched_blocks
    )
    xds_manual_unused = xds["manual"].prefetched_unused / max(
        1, xds["manual"].prefetched_blocks
    )
    assert xds_orig_unused > 0.30, "read-ahead should waste heavily on XDS"
    assert xds_manual_unused < xds_orig_unused / 3

    gnuld = matrix["gnuld"]
    # Erroneous speculation leaves unused prefetched blocks behind.
    assert gnuld["speculating"].prefetched_unused > \
        gnuld["manual"].prefetched_unused

    # Hint-driven prefetching raises the fully-prefetched share for the
    # well-behaved applications.
    for app in ("agrep", "xds"):
        results = matrix[app]
        spec_fully = results["speculating"].prefetched_fully / max(
            1, results["speculating"].prefetched_blocks
        )
        orig_fully = results["original"].prefetched_fully / max(
            1, results["original"].prefetched_blocks
        )
        assert spec_fully > orig_fully

    # Cache reuse is not destroyed by speculation (within 2x).
    for results in matrix.values():
        orig_reuse = results["original"].cache_block_reuses
        spec_reuse = results["speculating"].cache_block_reuses
        assert spec_reuse >= orig_reuse * 0.5
