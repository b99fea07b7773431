"""The paper's published numbers, for side-by-side reporting.

Values transcribed from Chang & Gibson, OSDI 1999 (tables and figures of
Section 4).  Used by the benchmark harness to print paper-vs-measured
comparisons; absolute values are not expected to match (scaled workloads,
simulated substrate — see DESIGN.md), the *shapes* are.
"""

from __future__ import annotations

#: Table 1 (background; Patterson's manually hinted applications, 4 disks).
TABLE1_MANUAL_IMPROVEMENT = {
    "agrep": 72.0,
    "gnuld": 66.0,
    "xds": 70.0,
}

#: Table 3: (modification time s, transformed size KB, % size increase).
TABLE3 = {
    "agrep": (21.0, 1648, 610.0),
    "gnuld": (23.0, 2408, 349.0),
    "xds": (151.0, 10792, 138.0),
}

#: Figure 3 / Table 7 @ 12 MB: elapsed seconds (original, spec, manual).
FIG3_ELAPSED = {
    "agrep": (21.4, 6.5, 6.2),
    "gnuld": (89.5, 63.3, 30.2),
    "xds": (324.6, 97.0, 94.1),
}

#: Figure 3: % improvement (speculating, manual).
FIG3_IMPROVEMENT = {
    "agrep": (69.0, 70.0),
    "gnuld": (29.0, 66.0),
    "xds": (70.0, 71.0),
}

#: Figure 4: worst-case overhead bound with TIP ignoring hints.
FIG4_MAX_OVERHEAD_PCT = 4.0

#: Table 4: hinting statistics for the speculating applications:
#: (% read calls hinted, % blocks hinted, % bytes hinted, inaccurate hints).
TABLE4_SPECULATING = {
    "agrep": (68.1, 99.6, 99.7, 0),
    "gnuld": (54.9, 67.5, 89.7, 2336),
    "xds": (97.5, 97.5, 99.9, 0),
}

#: Table 4: % read calls hinted by the manually modified applications.
TABLE4_MANUAL_PCT_CALLS = {
    "agrep": 68.3,
    "gnuld": 78.4,
    "xds": 97.6,
}

#: Table 5 rows: {app: {variant: (cache block reads, prefetched, fully %,
#: partially %, unused %, reuses)}}.
TABLE5 = {
    "agrep": {
        "original": (3424, 1031, 51.3, 48.4, 0.4, 416),
        "speculating": (3726, 3003, 90.2, 9.1, 0.8, 655),
        "manual": (3423, 2947, 91.2, 8.8, 0.0, 421),
    },
    "gnuld": {
        "original": (24074, 5511, 46.2, 36.6, 17.3, 12435),
        "speculating": (25353, 12855, 27.2, 42.3, 30.5, 13646),
        "manual": (23892, 10018, 89.2, 10.6, 0.3, 13519),
    },
    "xds": {
        "original": (49997, 60702, 21.1, 20.9, 58.0, 4162),
        "speculating": (50810, 45338, 88.9, 10.8, 0.3, 4973),
        "manual": (49782, 44938, 89.4, 10.6, 0.0, 4491),
    },
}

#: Table 6: {app: {variant: (footprint KB, reclaims, faults, signals)}}.
TABLE6 = {
    "agrep": {
        "original": (160, 39, 4, 0),
        "speculating": (704, 134, 16, 0),
        "manual": (152, 39, 4, 0),
    },
    "gnuld": {
        "original": (10_342, 1341, 12, 0),
        "speculating": (14_541, 1974, 52, 39),
        "manual": (10_752, 1389, 14, 0),
    },
    "xds": {
        "original": (63_488, 8105, 61, 0),
        "speculating": (64_000, 8202, 93, 2),
        "manual": (63_590, 8104, 60, 0),
    },
}

#: Table 7: elapsed seconds by cache size {app: {mb: (orig, spec, manual)}}.
TABLE7 = {
    "agrep": {6: (21.3, 6.5, 6.3), 12: (21.4, 6.5, 6.2), 64: (21.2, 6.4, 6.1)},
    "gnuld": {6: (106.3, 74.7, 34.4), 12: (89.5, 63.3, 30.2),
              64: (56.5, 45.2, 25.4)},
    "xds": {6: (295.0, 94.6, 91.4), 12: (324.6, 97.0, 94.1),
            64: (279.0, 87.8, 85.8)},
}

#: Table 8: elapsed seconds of the original applications by disk count.
TABLE8 = {
    "agrep": {1: 23.8, 2: 24.1, 4: 21.4, 10: 20.1},
    "gnuld": {1: 93.7, 2: 101.3, 4: 89.5, 10: 82.8},
    "xds": {1: 303.5, 2: 292.0, 4: 324.6, 10: 265.7},
}

#: Section 4.4: dilation factors (median hint interval / median read
#: interval).
SECTION44_DILATION = {"agrep": 7.5, "gnuld": 1.6, "xds": 1.3}
