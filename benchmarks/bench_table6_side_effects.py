"""Table 6: performance side-effects of speculation.

Paper: the speculating applications have larger memory footprints (shadow
code, COW copies), more page reclaims and faults, and generate extraneous
signals from computing on erroneous data (up to 39 for Gnuld); the manual
applications look essentially like the originals.
"""

from conftest import banner, headline_matrix, once

from repro.harness.tables import format_table6


def test_table6_side_effects(benchmark):
    matrix = once(benchmark, headline_matrix)
    print(banner("Table 6 - performance side-effects"))
    print(format_table6(matrix))

    for results in matrix.values():
        original = results["original"]
        speculating = results["speculating"]
        manual = results["manual"]

        # Footprint: speculating > original; manual ~ original.
        assert speculating.footprint_bytes > original.footprint_bytes
        assert manual.footprint_bytes <= original.footprint_bytes * 1.2

        # Reclaims/faults rise under speculation.
        assert speculating.page_reclaims >= original.page_reclaims
        assert speculating.page_faults >= original.page_faults

    # Signals: only Gnuld computes on erroneous data aggressively enough
    # to fault (paper: 39 for Gnuld, 0 and 2 for the others).
    assert matrix["gnuld"]["speculating"].spec_signals > 0
    assert matrix["agrep"]["speculating"].spec_signals == 0
