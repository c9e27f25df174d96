"""EXPERIMENTS.md quotes the committed default-scale artefacts.

Each checked row of the per-experiment index is read number by number,
in order, from its measured and verdict cells, and compared with the
values read or derived from ``benchmarks/results/default/*.txt`` at the
precision the prose prints them; the explorer paragraph is checked the
same way against ``benchmarks/results/BENCH_explore.json``.  The shape
claims the cells make (a peak, an ordering, a flat line) are asserted
on the artefacts too, so neither the prose nor the verdicts can drift
from the committed numbers.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"
DOC = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")

#: A quoted number; digits inside names (``CP_SD_Th8``) are not quotes.
NUMBER = re.compile(r"(?<![\w.])[-+]?\d+(?:\.\d+)?")


def artefact(name):
    """Rows of an artefact table: first cell -> {column: float or None}."""
    lines = (RESULTS / "default" / name).read_text(encoding="utf-8").splitlines()
    columns = lines[1].split()[1:]
    rows = {}
    for line in lines[3:]:
        cells = line.split()
        values = [None if cell == "-" else float(cell) for cell in cells[1:]]
        rows[cells[0]] = dict(zip(columns, values))
    return rows


def change(new, old):
    """Relative change in percent."""
    return (new / old - 1.0) * 100.0


def numbers(text):
    return NUMBER.findall(text.replace("−", "-"))


def quoted(label):
    """Numbers in the measured and verdict cells of index row ``label``."""
    row = next(
        line for line in DOC.splitlines() if line.startswith(f"| **{label}** |")
    )
    measured, verdict = row.split("|")[3:5]
    return numbers(measured + " " + verdict)


def assert_quotes(texts, expected):
    assert len(texts) == len(expected), (texts, expected)
    for text, value in zip(texts, expected):
        decimals = len(text.partition(".")[2])
        assert float(text) == round(value, decimals), (text, value)


def test_fig6_row():
    table = artefact("fig6_hit_rate_sweep.txt")
    cp_sd = table.pop("CP_SD")["ca_rwr_hits_norm"]
    ca = {int(k): row["ca_hits_norm"] for k, row in table.items()}
    rwr = {int(k): row["ca_rwr_hits_norm"] for k, row in table.items()}
    peak = max(ca, key=ca.get)
    best_rwr = max(rwr.values())
    assert rwr[30] >= ca[30]
    assert cp_sd >= best_rwr
    assert_quotes(
        quoted("Fig. 6"),
        [ca[30], ca[peak], 30, peak, ca[64], 64, 30, rwr[30], ca[30],
         cp_sd, best_rwr],
    )


def test_fig7_row():
    table = artefact("fig7_bytes_written_sweep.txt")
    cp_sd = table.pop("CP_SD")["ca_rwr_bytes_norm"]
    ca = {int(k): row["ca_bytes_norm"] for k, row in table.items()}
    rwr = {int(k): row["ca_rwr_bytes_norm"] for k, row in table.items()}
    assert list(ca.values()) == sorted(ca.values())  # bytes grow with CP_th
    assert rwr[64] < ca[64]
    assert cp_sd > rwr[58]  # the paper's "CP_SD below CA_RWR@58" fails
    assert_quotes(
        quoted("Fig. 7"),
        [ca[30], ca[64], 64, rwr[64], ca[64], cp_sd, 58, rwr[58], 64, 58],
    )


def test_fig10b_row():
    t = artefact("fig10b_way_split.txt")

    def deltas(policy):
        row = t[policy]
        return [
            change(row["ipc_3_13"], row["ipc_4_12"]),
            change(row["life_mo_3_13"], row["life_mo_4_12"]),
        ]

    bh = t["bh"]
    assert_quotes(
        quoted("Fig. 10b"),
        [bh["ipc_4_12"], bh["ipc_3_13"], bh["life_mo_4_12"], bh["life_mo_3_13"],
         *deltas("cp_sd"), *deltas("cp_sd_th8"), *deltas("lhybrid")],
    )


def test_fig10c_row():
    t = artefact("fig10c_cv_sensitivity.txt")
    retained = {policy: row["retained"] for policy, row in t.items()}
    assert max(retained["bh"], retained["lhybrid"]) < min(
        retained["bh_cp"], retained["cp_sd"]
    )
    assert_quotes(
        quoted("Fig. 10c"),
        [retained[p] for p in ("bh", "lhybrid", "bh_cp", "cp_sd")],
    )


def test_fig11a_row():
    t = artefact("fig11a_l2_size.txt")
    assert all(row["ipc_256k"] > row["ipc_128k"] for row in t.values())
    assert t["bh"]["life_mo_256k"] == t["bh"]["life_mo_128k"]

    def life(policy):
        return change(t[policy]["life_mo_256k"], t[policy]["life_mo_128k"])

    assert life("lhybrid") < 0
    assert_quotes(
        quoted("Fig. 11a"),
        [t["bh"]["life_mo_128k"],
         *(life(p) for p in ("bh_cp", "cp_sd", "cp_sd_th8", "lhybrid"))],
    )


def test_explorer_paragraph():
    envelope = json.loads((RESULTS / "BENCH_explore.json").read_text())
    explore = envelope["payload"]["values"]["document"]["explore"]
    frontier = explore["frontier"]
    assert all(key.startswith(("lhybrid(", "tap(")) for key in frontier)
    paragraph = next(
        block for block in DOC.split("\n\n")
        if block.startswith("Measured on the committed sweep")
    )
    assert_quotes(
        numbers(paragraph),
        [explore["confirmed"], explore["n_points"],
         explore["instruction_speedup"], explore["speedup_floor"],
         len(frontier)],
    )
