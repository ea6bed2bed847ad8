"""Parameter grids for every reproduced table and figure.

Centralising the sweeps keeps the experiments and the tests in exact
agreement about what each experiment runs.
"""

from __future__ import annotations

#: Figure 6: full-prefill context lengths (2K - 128K).
FIG6_CONTEXT_LENGTHS: list[int] = [2048, 4096, 8192, 16384, 32768, 65536, 98304, 131072]

#: Figure 6 CP rank counts per platform.
FIG6_GTT_RANKS: list[int] = [1, 2, 4, 8]
FIG6_GTI_RANKS: list[int] = [1, 2, 4]

#: Figure 7: scaling-ratio node counts at 128K.
FIG7_NODE_COUNTS: list[int] = [1, 2, 4, 8]
FIG7_CONTEXT: int = 131072

#: Figure 8: long-context TTFT lengths on CP8 / CP16.
FIG8_CONTEXT_LENGTHS: list[int] = [131072, 262144, 524288, 1048576]
FIG8_RANKS: list[int] = [8, 16]

#: Table 4 / Figure 9: partial-prefill sweep, P + T = 128000 on CP4.
TABLE4_TOTAL: int = 128000
TABLE4_RANKS: int = 4
TABLE4_SWEEP: list[tuple[int, int]] = [
    (126720, 1280),
    (124800, 3200),
    (123840, 4160),
    (121600, 6400),
    (115200, 12800),
    (102400, 25600),
    (89600, 38400),
    (76800, 51200),
    (64000, 64000),
    (51200, 76800),
    (38400, 89600),
    (25600, 102400),
    (12800, 115200),
    (0, 128000),
]

#: Table 5: breakdown miss rates (2.5% and 10%).
TABLE5_POINTS: list[tuple[int, int]] = [(124800, 3200), (115200, 12800)]

#: Table 6: context lengths for TP8 vs CP2 TTFT/TTIT.
TABLE6_CONTEXT_LENGTHS: list[int] = [8192, 32768, 131072]

#: Table 7: parallelism configs at 128K (label, kind, nodes).
TABLE7_CONFIGS: list[tuple[str, str, int]] = [
    ("CP1+TP8", "cp", 1),
    ("CP2+TP8", "cp", 2),
    ("TP16", "tp", 2),
    ("CP4+TP8", "cp", 4),
    ("TP32", "tp", 4),
]

#: Table 8: decode attention scaling scenarios (context, batch, ranks).
TABLE8_SCENARIOS: list[tuple[int, int, list[int]]] = [
    (131072, 1, [1, 2, 4]),
    (32768, 4, [1, 2, 4]),
]
