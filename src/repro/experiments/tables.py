"""Tables 1, 2, and 3 of the paper.

* Table 1: the fixed system parameters (from the configuration object).
* Table 2: Starburst read I/O cost for mean operation sizes 100 B /
  10 KB / 100 KB (paper: 37 / 54 / 201 ms).
* Table 3: Starburst insert and delete I/O cost (paper: 22.3 s for all
  three operation sizes — the cost of copying the object's segments).
"""

from __future__ import annotations

import dataclasses

from repro.analysis.report import format_table
from repro.core.config import PAPER_CONFIG, SystemConfig
from repro.experiments.common import MEAN_OP_SIZES, Scale, resolve_scale
from repro.experiments.random_ops import run_random_ops


def table1(config: SystemConfig = PAPER_CONFIG) -> str:
    """Render Table 1: fixed system parameters."""
    rows = [
        ("Page (block) size", f"{config.page_size >> 10}K-byte"),
        ("Buffer pool size", f"{config.buffer_pool_pages} pages"),
        ("Largest segment in pool", f"{config.max_buffered_segment_pages} pages"),
        ("I/O seek cost", f"{config.seek_ms:g} milliseconds"),
        ("I/O transfer rate",
         f"{config.transfer_kb_per_ms:g}K-byte/millisecond"),
    ]
    return "Table 1: Fixed system parameters\n" + format_table(
        ("Parameter", "Value"), rows
    )


@dataclasses.dataclass
class StarburstCosts:
    """Measured Starburst costs per mean operation size."""

    mean_ops: tuple[int, ...]
    read_ms: list[float]
    insert_s: list[float]
    delete_s: list[float]

    def format_table2(self) -> str:
        """Render Table 2: Starburst read I/O cost."""
        rows = [("Read I/O Cost (milliseconds)",
                 *(f"{v:.0f}" for v in self.read_ms))]
        headers = ("Mean Operation size (bytes)",
                   *(_size_label(s) for s in self.mean_ops))
        return "Table 2: Starburst read I/O cost\n" + format_table(
            headers, rows
        )

    def format_table3(self) -> str:
        """Render Table 3: Starburst insert and delete I/O cost."""
        rows = [
            ("Insert I/O Cost (seconds)",
             *(f"{v:.1f}" for v in self.insert_s)),
            ("Delete I/O Cost (seconds)",
             *(f"{v:.1f}" for v in self.delete_s)),
        ]
        headers = ("Mean Operation size (bytes)",
                   *(_size_label(s) for s in self.mean_ops))
        return "Table 3: Starburst insert and delete I/O cost\n" + format_table(
            headers, rows
        )


def _size_label(nbytes: int) -> str:
    return f"{nbytes >> 10}K" if nbytes >= 1024 else str(nbytes)


def run_starburst_costs(
    scale: Scale | None = None, config: SystemConfig = PAPER_CONFIG
) -> StarburstCosts:
    """Measure the Starburst costs behind Tables 2 and 3."""
    scale = scale or resolve_scale()
    read_ms: list[float] = []
    insert_s: list[float] = []
    delete_s: list[float] = []
    for mean_op in MEAN_OP_SIZES:
        result = run_random_ops("starburst", 0, mean_op, scale, config)
        read_ms.append(result.steady_read_ms())
        insert_s.append(result.steady_insert_ms() / 1000.0)
        delete_s.append(result.steady_delete_ms() / 1000.0)
    return StarburstCosts(
        mean_ops=MEAN_OP_SIZES,
        read_ms=read_ms,
        insert_s=insert_s,
        delete_s=delete_s,
    )
