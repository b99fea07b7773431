"""Extension: the Table 1 Postgres join, automatically transformed.

Table 1 lists Patterson's manually hinted Postgres join: 48 % improvement
with 20 % of outer tuples matching and 69 % with 80 %.  The paper never
ran SpecHint over it — this bench does, exercising a database access
pattern (sequential outer scan + data-dependent index probes) through the
whole pipeline.
"""

from conftest import banner, once

from repro.harness.config import ExperimentConfig, Variant
from repro.harness.runner import run_experiment

PAPER_MANUAL = {"postgres20": 48.0, "postgres80": 69.0}


def run_postgres():
    results = {}
    for app in ("postgres20", "postgres80"):
        results[app] = {
            v: run_experiment(ExperimentConfig(app=app, variant=v))
            for v in Variant
        }
    return results


def test_ext_postgres_join(benchmark):
    results = once(benchmark, run_postgres)
    print(banner("Extension - Postgres join (Table 1 workload)"))
    for app, matrix in results.items():
        original = matrix[Variant.ORIGINAL]
        spec = matrix[Variant.SPECULATING]
        manual = matrix[Variant.MANUAL]
        print(
            f"{app}: original {original.elapsed_s:6.2f}s | "
            f"speculating {spec.improvement_over(original):5.1f}% "
            f"(hints {spec.pct_calls_hinted:4.1f}%, "
            f"restarts {spec.spec_restarts}) | "
            f"manual {manual.improvement_over(original):5.1f}% "
            f"[paper manual: {PAPER_MANUAL[app]:.0f}%]"
        )

    for matrix in results.values():
        original = matrix[Variant.ORIGINAL]
        # Both hinting variants must win substantially.
        assert matrix[Variant.SPECULATING].improvement_over(original) > 25
        assert matrix[Variant.MANUAL].improvement_over(original) > 20

    # Table 1's shape: the high-selectivity join benefits more.
    def manual_improvement(app):
        matrix = results[app]
        return matrix[Variant.MANUAL].improvement_over(
            matrix[Variant.ORIGINAL]
        )

    assert manual_improvement("postgres80") > manual_improvement("postgres20")
