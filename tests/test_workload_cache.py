"""The memo bench's campaign units: enumeration and byte-stable results."""


def test_bench_cells_enumeration_and_determinism():
    from repro.experiments import ALL_EXPERIMENT_NAMES, EXPERIMENT_NAMES
    from repro.experiments.bench_cells import (
        BENCH_CELL_POLICIES,
        enumerate_bench_cell_units,
    )
    from repro.experiments.campaign_tasks import run_campaign_task
    from repro.experiments.common import SMOKE
    from repro.harness import dump_json

    units = enumerate_bench_cell_units(SMOKE)
    assert len(units) == 2 * len(BENCH_CELL_POLICIES)
    # registered for campaigns, excluded from the default experiment set
    assert "bench_cells" in ALL_EXPERIMENT_NAMES
    assert "bench_cells" not in EXPERIMENT_NAMES

    one = dump_json(run_campaign_task("bench_cells", units[0], "smoke"))
    two = dump_json(run_campaign_task("bench_cells", units[0], "smoke"))
    assert one == two, "bench cell results must be byte-stable"
