"""The metric names the result line carries; ``BENCHMARK.json`` mirrors them.

Every workload emits every name: the end-to-end list with ``--trace 0``,
the per-layer list with ``--trace 1``.  A per-layer value stays 0 on a
workload that does not exercise that layer (``wal.commit.calls`` on
``sim_query``), which is itself the prediction "this layer cannot move
this workload".  Per-layer *times* are listed here only where every
workload exercises the layer; the workload-specific ones (insert, move,
WAL commit, client round trips, ``server.self_s``) enter through the
``budget.<layer>.share`` ratios and are printed in the budget table.
"""

#: (name, unit, better, bound) -- bound is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
#: Timings get the widest bound allowed: on a shared 2-vCPU host their
#: run-to-run spread is 10-25 % (see README.md, "Bounds and noise").
#: The counts move only with the stream seed and get tight bounds.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p99_ms", "ms", "lower", 0.25),
    ("disk_reads_per_op", "pages", "lower", 0.10),
    ("pages_per_1k_objects", "pages", "lower", 0.02),
)

#: (name, unit, better) -- per-layer metrics carry no bound.
PER_LAYER = (
    ("datasets.generate_s", "s", "lower"),
    ("sam.bulk_load_s", "s", "lower"),
    ("sam.search.calls", "count", "lower"),
    ("sam.insert.calls", "count", "lower"),
    ("sam.delete.calls", "count", "lower"),
    ("sam.move.calls", "count", "lower"),
    ("sam.pages_allocated", "count", "lower"),
    ("sam.pages_freed", "count", "lower"),
    ("buffer.fetch.calls", "count", "lower"),
    ("buffer.fetch.busy_s", "s", "lower"),
    ("buffer.hit_ratio", "ratio", "higher"),
    ("buffer.evictions", "count", "lower"),
    ("buffer.writebacks", "count", "lower"),
    ("buffer.coalesced", "count", "higher"),
    ("policies.select_victim.calls", "count", "lower"),
    ("policies.select_victim.busy_s", "s", "lower"),
    ("policies.asb.candidate_size_mean", "pages", "lower"),
    ("policies.asb.overflow_hits", "count", "lower"),
    ("policies.asb.overflow_hit_ratio", "ratio", "lower"),
    ("storage.read.calls", "count", "lower"),
    ("storage.read.busy_s", "s", "lower"),
    ("storage.write.calls", "count", "lower"),
    ("storage.encode_page_us", "us", "lower"),
    ("storage.decode_page_us", "us", "lower"),
    ("wal.commit.calls", "count", "lower"),
    ("wal.bytes_flushed", "bytes", "lower"),
    ("wal.fsyncs", "count", "lower"),
    ("server.admission.peak_queued", "count", "lower"),
    ("server.admission.queued_total", "count", "lower"),
    ("server.responses_retry", "count", "lower"),
    ("server.responses_error", "count", "lower"),
    ("client.fetch.calls", "count", "higher"),
    ("budget.harness.share", "ratio", "lower"),
    ("budget.sam.share", "ratio", "lower"),
    ("budget.buffer.share", "ratio", "lower"),
    ("budget.policies.share", "ratio", "lower"),
    ("budget.storage.share", "ratio", "lower"),
    ("budget.wal.share", "ratio", "lower"),
    ("budget.server.share", "ratio", "lower"),
    ("budget.client.share", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

WORKLOADS = (
    ("sim_query", "paper replay: 200k-object R*-tree, five query families, LRU then ASB "
     "at 4.7% buffer; index search, buffer core and policy"),
    ("sim_update", "100k objects, INT-W-333 windows interleaved with insert/delete/move "
     "through an ASB buffer; R*-tree updates and dirty write-back"),
    ("serve_mixed", "page server in its own process, 2 connections x 8 closed-loop "
     "sessions, 1 in 20 writes with commit; wire, admission, executor, WAL"),
)
