"""Per-layer metrics of one workload, derived from repetitions of
perfbench_rep (see bench.cc for the JSON each repetition prints).

Counts come from the merged metrics registry of the traced
repetition: per-queue entries (``lynx.mq.*``, ``gio.*``, ``rdma.qp.*``)
are summed here, and a sharded run's registries were already merged
by ``sim::mergeRegistries`` before the repetition printed them.
Host-time figures come from the untraced repetitions of the same
invocation, so tracing does not inflate them.

Every ratio keeps its base: ``per_layer()`` returns, for each metric,
its value and, where it is a ratio, the numerator and denominator.
"""

import statistics

# (name, unit, better). The doc (README.md) says which end-to-end
# metric and workload each one should move.
PER_LAYER = [
    # sim: the engine
    ("sim.events_per_req", "count/req", "lower"),
    ("sim.host_ns_per_event", "ns/event", "lower"),
    ("sim.events_per_host_s", "events/s", "higher"),
    ("sim.shard.windows", "count", "lower"),
    ("sim.shard.events_per_window", "events", "higher"),
    ("sim.shard.barrier_stalls", "count", "lower"),
    ("sim.shard.cross_msgs", "count", "lower"),
    ("sim.shard.speedup_vs_serial", "ratio", "higher"),
    # net
    ("net.msgs_per_req", "count/req", "lower"),
    ("net.bytes_per_req", "B/req", "lower"),
    ("net.drops", "count", "lower"),
    # rdma
    ("rdma.write_ops_per_req", "count/req", "lower"),
    ("rdma.read_ops_per_req", "count/req", "lower"),
    ("rdma.write_bytes_per_req", "B/req", "lower"),
    ("rdma.errors", "count", "lower"),
    # lynx: dispatcher, forwarder, mqueue, gio, runtime
    ("lynx.mq.tx_poll_hit_ratio", "ratio", "higher"),
    ("lynx.mq.rx_write_ops_per_req", "count/req", "lower"),
    ("lynx.mq.rx_full", "count", "lower"),
    ("lynx.mq.overflow", "count", "lower"),
    ("lynx.gio.rx_skipped", "count", "lower"),
    ("lynx.gio.tx_stalls", "count", "lower"),
    ("lynx.dispatch.drops", "count", "lower"),
    ("admission.shed", "count", "lower"),
    ("admission.shed_ratio", "ratio", "lower"),
    ("steer.rss_picks", "count", "higher"),
    ("steer.rss_fallbacks", "count", "lower"),
    # accel
    ("accel.gpu.kernels_per_req", "count/req", "lower"),
    ("accel.gpu.device_launches_per_req", "count/req", "lower"),
    # apps
    ("apps.lenet.host_us_per_inference", "us", "lower"),
    ("apps.host_share", "ratio", "lower"),
    # workload
    ("workload.sent", "count", "higher"),
    ("workload.completed", "count", "higher"),
    ("workload.lost", "count", "lower"),
    ("workload.late", "count", "lower"),
    ("workload.validation_failures", "count", "lower"),
    ("workload.in_flight_end", "count", "lower"),
    ("workload.failed_ratio", "ratio", "lower"),
    ("workload.callback_host_us_per_req", "us", "lower"),
    # set-up phases
    ("setup.net_s", "s", "lower"),
    ("setup.accel_s", "s", "lower"),
    ("setup.runtime_s", "s", "lower"),
    ("setup.loadgen_s", "s", "lower"),
    # tracing overhead (untraced minus traced host_req_per_s)
    ("trace.overhead_req_per_s", "req/s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# Span stages of sim::SpanCollector, in pipeline order. Each stage's
# histogram holds the delta from the previous stamped stage, so the
# stage p50s of one request telescope to its end-to-end latency.
SPAN_STAGES = ["nic_tx", "snic_ingress", "dispatch_enqueue",
               "mqueue_write", "gio_pop", "app_start", "app_end",
               "forwarder_tx", "client_rx"]
for _stage in SPAN_STAGES:
    for _q in ("p50", "p99"):
        PER_LAYER.append((f"span.{_stage}.{_q}_us", "us", "lower"))

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def counter_sum(registry, prefix, names):
    """Sum counters ``names`` over every registry path under ``prefix``."""
    if isinstance(names, str):
        names = [names]
    total = 0
    for path, entry in registry.items():
        if path == prefix or path.startswith(prefix + "."):
            counters = entry["counters"]
            total += sum(counters.get(n, 0) for n in names)
    return total


def counters_matching(registry, prefix, start):
    """Sum every counter whose name starts with ``start`` under ``prefix``."""
    total = 0
    for path, entry in registry.items():
        if path == prefix or path.startswith(prefix + "."):
            total += sum(v for k, v in entry["counters"].items()
                         if k.startswith(start))
    return total


def host_req_per_s(rep):
    """Simulated requests completed per host second of the run loop."""
    return rep["sim"]["responses"] / rep["host"]["run_s"]


def per_layer(traced_reps, plain, sharded):
    """Per-layer metrics of one workload.

    traced_reps: traced repetitions (counts, spans, callback time are
            taken from the first; all of them time the traced loop).
    plain:  untraced repetitions of the same workload and seed.
    sharded: untraced repetitions of the same inputs on the sharded
            engine (empty if the workload has no sharded twin); the
            sim.shard.* metrics describe them.
    Returns {name: {"value", "unit"[, "num", "den"]}}.
    """
    traced = traced_reps[0]
    reg = traced["registry"]
    sim = traced["sim"]
    host = traced["host"]
    req = sim["issued"]
    # Host time of the same part as the traced repetition.
    run_s = statistics.median(r["host"]["run_s"] for r in plain
                              if r["part"] == traced["part"])
    out = {}

    def put(name, value):
        out[name] = {"value": float(value), "unit": UNITS[name]}

    def ratio(name, num, den, scale=1.0):
        out[name] = {"value": scale * num / den if den else 0.0,
                     "unit": UNITS[name], "num": num, "den": den}

    ratio("sim.events_per_req", sim["events"], req)
    ratio("sim.host_ns_per_event", run_s, sim["events"], 1e9)
    ratio("sim.events_per_host_s", sim["events"], run_s)
    sh = sharded[0] if sharded else traced
    put("sim.shard.windows", sh["shard"]["windows"])
    ratio("sim.shard.events_per_window", sh["sim"]["events"],
          sh["shard"]["windows"])
    put("sim.shard.barrier_stalls", sh["shard"]["barrier_stalls"])
    put("sim.shard.cross_msgs", sh["shard"]["cross_msgs"])
    if sharded:
        ratio("sim.shard.speedup_vs_serial", run_s,
              statistics.median(r["host"]["run_s"] for r in sharded))
    else:
        ratio("sim.shard.speedup_vs_serial", 0, 0)

    ratio("net.msgs_per_req", counter_sum(reg, "net.nic", "tx_msgs"), req)
    ratio("net.bytes_per_req", counter_sum(reg, "net.nic", "tx_bytes"), req)
    put("net.drops",
        counter_sum(reg, "net.fabric", ["dropped_in_fabric",
                                        "dropped_by_fault",
                                        "partition_drops"])
        + counter_sum(reg, "net.ecn", "egress_drops")
        + counters_matching(reg, "net.nic", "rx_drop_"))

    ratio("rdma.write_ops_per_req", counter_sum(reg, "rdma.qp", "write_ops"),
          req)
    ratio("rdma.read_ops_per_req", counter_sum(reg, "rdma.qp", "read_ops"),
          req)
    ratio("rdma.write_bytes_per_req",
          counter_sum(reg, "rdma.qp", "write_bytes"), req)
    put("rdma.errors", counter_sum(reg, "rdma.qp", ["wc_errors",
                                                    "hw_retransmits",
                                                    "fetch_errors"]))

    ratio("lynx.mq.tx_poll_hit_ratio",
          counter_sum(reg, "lynx.mq", "tx_popped"),
          counter_sum(reg, "lynx.mq", "tx_polls"))
    ratio("lynx.mq.rx_write_ops_per_req",
          counter_sum(reg, "lynx.mq", "rx_write_ops"), req)
    put("lynx.mq.rx_full", counter_sum(reg, "lynx.mq", "rx_full"))
    put("lynx.mq.overflow", counter_sum(reg, "lynx.mq", "overflow"))
    put("lynx.gio.rx_skipped", counter_sum(reg, "gio", "rx_skipped"))
    put("lynx.gio.tx_stalls", counter_sum(reg, "gio", "tx_stalls"))
    put("lynx.dispatch.drops",
        counters_matching(reg, "lynx.dispatch", "dropped_"))
    shed = counter_sum(reg, "admission", "shed_ring_full")
    put("admission.shed", shed)
    ratio("admission.shed_ratio", shed,
          shed + counter_sum(reg, "admission", "admitted"))
    put("steer.rss_picks", counter_sum(reg, "steer", "rss_picks"))
    put("steer.rss_fallbacks", counter_sum(reg, "steer", "rss_fallbacks"))

    ratio("accel.gpu.kernels_per_req", sim["gpu_kernels"], req)
    ratio("accel.gpu.device_launches_per_req", sim["gpu_device_launches"],
          req)

    ratio("apps.lenet.host_us_per_inference", host["replay_s"],
          host["replay_images"], 1e6)
    app_s = (host["replay_s"] / host["replay_images"] * sim["responses"]
             if host["replay_images"] else 0.0)
    ratio("apps.host_share", app_s, run_s)

    for key in ("sent", "completed", "lost", "late", "validation_failures",
                "in_flight_end"):
        put(f"workload.{key}", sim[key])
    ratio("workload.failed_ratio", sim["sent"] - served(sim), sim["sent"])
    ratio("workload.callback_host_us_per_req",
          statistics.median(r["host"]["callback_s"] for r in traced_reps),
          req, 1e6)

    for phase in ("net", "accel", "runtime", "loadgen"):
        name = f"setup.{phase}_s"
        put(name, statistics.median(r["host"][name] for r in plain))

    fast = statistics.median(host_req_per_s(r) for r in plain)
    slow = statistics.median(host_req_per_s(r) for r in traced_reps)
    put("trace.overhead_req_per_s", fast - slow)
    ratio("trace.overhead_ratio", fast - slow, fast)

    spans = traced["spans"]
    for stage in SPAN_STAGES:
        for q in ("p50", "p99"):
            ns = spans.get(stage, {}).get(f"{q}_ns", 0)
            put(f"span.{stage}.{q}_us", ns / 1e3)
    return out


def served(sim):
    """Requests served correctly: open loop, completions within the
    deadline; closed loop, requests neither timed out nor failed."""
    if sim["open_loop"]:
        return sim["completed"]
    return sim["sent"] - sim["timeouts"] - sim["validation_failures"]
