"""Section 6.5 — prefetcher storage / area arithmetic.

Reproduces the paper's overhead numbers: a 32-entry first-level voter
table is 108 bytes (23-bit treelet address + 4-bit count per entry), the
16-entry second level is 52 bytes (23 + 3 bits), the synthesized
sequential logic is 461 um^2 in FreePDK45, and duplicating first-level
tables divides decision latency (512 -> 128 -> 32 cycles).
"""

from repro.prefetch import (
    SEQUENTIAL_AREA_UM2,
    first_level_table_bytes,
    second_level_table_bytes,
    voter_latency_for_copies,
    voter_storage_bytes,
)

from common import print_figure, record


def run_sec65() -> dict:
    designs = [1, 4, 16]
    rows = []
    payload = {
        "first_level_bytes": first_level_table_bytes(),
        "second_level_bytes": second_level_table_bytes(),
        "sequential_area_um2": SEQUENTIAL_AREA_UM2,
    }
    for copies in designs:
        storage = voter_storage_bytes(copies)
        latency = voter_latency_for_copies(copies)
        payload[f"copies_{copies}"] = {
            "storage_bytes": storage,
            "latency_cycles": latency,
        }
        rows.append([copies, storage, latency])
    print_figure(
        "Section 6.5: voter storage and decision latency per design point",
        ["1st-level copies", "storage (B)", "latency (cycles)"],
        rows,
        "108B first-level table, 52B second-level, 461 um^2 sequential "
        "logic; 1/4/16 copies -> 512/128/32-cycle decisions",
    )
    record("sec65_area", payload)
    return payload


def test_sec65_area():
    payload = run_sec65()
    assert payload["first_level_bytes"] == 108
    assert payload["second_level_bytes"] == 52
    assert payload["copies_1"]["latency_cycles"] == 512
    assert payload["copies_16"]["latency_cycles"] == 32
