"""Reference values read off the paper's figures and tables.

These are approximate (read from plots), used by benchmarks to print
paper-vs-measured comparisons.  They are *shape* targets: who wins, by
what rough factor, and where crossovers fall — not absolute
microseconds, since the substrate differs.
"""

# Figure 12(a): 99th-percentile slowdown at 80% load, short messages
# (smallest ~50% of messages).  "99th-percentile slowdown for the
# shortest 50% of messages is never worse than 2.2 at 80% network load."
FIG12_SHORT_MSG_P99_80 = {
    # workload: {protocol: approximate p99 slowdown for short messages}
    "W1": {"homa": 1.5, "pfabric": 1.5, "phost": 3.0, "pias": 4.0},
    "W2": {"homa": 2.0, "pfabric": 2.0, "phost": 4.0, "pias": 5.0},
    "W3": {"homa": 2.2, "pfabric": 2.0, "phost": 4.0, "pias": 2.5},
    "W4": {"homa": 2.0, "pfabric": 2.0, "phost": 4.0, "pias": 10.0},
    "W5": {"homa": 2.0, "pfabric": 2.0, "phost": 5.0, "pias": 8.0,
           "ndp": 15.0},
}

# Figure 15: maximum sustainable network load (% of bandwidth), and the
# application-data share at that load (bottom of each bar).
FIG15_MAX_LOAD = {
    "W1": {"homa": 92, "pfabric": 52, "phost": 58, "pias": 75},
    "W2": {"homa": 91, "pfabric": 71, "phost": 43, "pias": 83},
    "W3": {"homa": 90, "pfabric": 83, "phost": 69, "pias": 85},
    "W4": {"homa": 89, "pfabric": 87, "phost": 79, "pias": 85},
    "W5": {"homa": 87, "pfabric": 86, "phost": 81, "pias": 77, "ndp": 73},
}

# Table 1: queue lengths (KB) at 80% load.
TABLE1 = {
    # workload: {level: (mean_kb, max_kb)}
    "W1": {"TOR->Aggr": (0.7, 21.1), "Aggr->TOR": (0.8, 22.4),
           "TOR->host": (1.7, 58.7)},
    "W2": {"TOR->Aggr": (1.0, 30.0), "Aggr->TOR": (1.1, 34.1),
           "TOR->host": (5.5, 93.0)},
    "W3": {"TOR->Aggr": (1.6, 50.3), "Aggr->TOR": (1.8, 57.1),
           "TOR->host": (12.8, 117.9)},
    "W4": {"TOR->Aggr": (1.7, 82.7), "Aggr->TOR": (1.7, 92.2),
           "TOR->host": (17.3, 146.1)},
    "W5": {"TOR->Aggr": (1.7, 93.6), "Aggr->TOR": (1.6, 78.1),
           "TOR->host": (17.3, 126.4)},
}

# Figure 14: sources of tail delay for short messages at 80% load (us).
# Preemption lag dominates; queueing is a small fraction.
FIG14_DELAYS_US = {
    "W1": {"queueing": 0.35, "preemption": 0.85},
    "W2": {"queueing": 0.25, "preemption": 1.15},
    "W3": {"queueing": 0.35, "preemption": 1.75},
    "W4": {"queueing": 0.5, "preemption": 2.2},
    "W5": {"queueing": 0.3, "preemption": 2.3},
}

# Figure 16: maximum sustainable load for W4 as a function of the
# number of scheduled priorities (the overcommitment degree).
FIG16_W4_MAX_LOAD_BY_DEGREE = {1: 63, 2: 73, 3: 80, 4: 84, 5: 87, 7: 89}

# Figure 10: incast throughput (Gbps) vs concurrent RPCs.
FIG10 = {
    "control_flat_gbps": 9.0,      # with incast control: flat near line rate
    "no_control_cliff_rpcs": 300,  # without: degrades past ~300 RPCs
}

# Figure 8 (implementation, 99% slowdown at 80% load): qualitative.
FIG8 = {
    "homa_small_rpc_us": 14.0,     # 100-byte echo at 99th percentile
    "basic_vs_homa_tail": (5, 15),  # Basic is 5-15x worse than Homa
    "stream_vs_multi": 100,        # single stream ~100x worse than multi
}

# Figure 17: W1 with a single unscheduled priority is >2.5x worse.
FIG17_SINGLE_UNSCHED_PENALTY = 2.5

# Figure 18: W3 balanced cutoff near 1930 B is a good operating point.
FIG18_BALANCED_CUTOFF = 1930

# Figure 20: W4 messages just above a tiny unscheduled limit suffer
# ~2.5x worse latency than with the RTTbytes default.
FIG20_PENALTY = 2.5

# Figure 21: priority usage for W3.  At low load scheduled traffic
# rides the lowest level; at high load all scheduled levels are used.
FIG21_NOTE = ("P0-P3 scheduled / P4-P7 unscheduled; unscheduled levels "
              "carry equal bytes; scheduled usage spreads with load")

# The campaign index: every reproduced figure/table, the benchmark
# module that declares its CampaignSpec, and a one-line description.
# ``python -m repro campaign <id|all>`` resolves targets here; figure
# pairs that share one campaign (8/9, 12/13) map to the same module.
CAMPAIGNS = {
    "fig01": ("bench_fig01_workloads",
              "workload CDF reconstruction (no simulation)"),
    "fig04": ("bench_fig04_unsched_alloc",
              "unscheduled priority allocation (no simulation)"),
    "fig08": ("bench_fig08_fig09_implementation",
              "implementation proxy, 99th-percentile echo-RPC slowdown"),
    "fig09": ("bench_fig08_fig09_implementation",
              "implementation proxy, median (shares fig08's runs)"),
    "fig10": ("bench_fig10_incast",
              "incast throughput with/without incast control"),
    "fig12": ("bench_fig12_fig13_slowdown",
              "slowdown vs message size, 99th percentile"),
    "fig13": ("bench_fig12_fig13_slowdown",
              "slowdown vs message size, median (shares fig12's runs)"),
    "fig14": ("bench_fig14_delay_sources",
              "tail delay decomposition for short messages"),
    "fig15": ("bench_fig15_max_load",
              "maximum sustainable load per protocol (speculative sweep)"),
    "fig16": ("bench_fig16_wasted_bandwidth",
              "wasted receiver bandwidth vs overcommitment degree"),
    "fig17": ("bench_fig17_unsched_prios",
              "unscheduled priority level count, W1"),
    "fig18": ("bench_fig18_cutoff",
              "unscheduled cutoff placement, W3"),
    "fig19": ("bench_fig19_sched_prios",
              "scheduled priority level count, W4"),
    "fig20": ("bench_fig20_unsched_bytes",
              "unscheduled byte limit, W4"),
    "fig21": ("bench_fig21_priority_usage",
              "priority level usage vs load, W3"),
    "table1": ("bench_table1_queue_lengths",
               "switch egress queue lengths at 80% load"),
    "ablations": ("bench_ablations",
                  "link preemption / grant-oldest / online priorities"),
    "fabric": ("bench_fabric_stress",
               "fabric stress: loss + failure injection recovery grid"),
}
