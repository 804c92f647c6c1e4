#!/usr/bin/env python3
"""Repository benchmark: the simulator's host cost and the simulated
proxy's results on four SIP workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds the `perfbench` package (release, offline) and then:

--trace 0  runs the workload untraced until --seconds have passed (at
           least MIN_REPEATS runs), each run in its own process, and prints
           the end-to-end metrics: medians of the host timings, and the
           virtual results, which every run of one seed must repeat exactly.
--trace 1  runs the workload once untraced and once traced in fixed
           virtual slices (spans go to perfbench/traces/), times the layer
           probes on inputs derived from the run, and prints the per-layer
           metrics.

Readable lines come first; the last line of stdout is one JSON object. A
failed correctness check prints its reason on stderr and exits 1 without a
result line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["udp-closed-500", "tcp50-closed-500", "udp-open-24k-qt", "sctp-closed-500"]
# Workloads the paper's Figure 3 has a cell for; paper_ratio is 0 elsewhere.
VALIDATED = {"udp-closed-500", "tcp50-closed-500"}
MIN_REPEATS = 3
RUN_TIMEOUT_S = 150
# p99.9 needs at least ten samples beyond it.
MIN_INVITE_SAMPLES = 10_000

END_TO_END = {
    "host_s_per_sim_s": "s/s",
    "sim_ops_per_host_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "virt_ops_per_s": "ops/s",
    "invite_p50_ms": "ms",
    "invite_p999_ms": "ms",
    "call_ok_ratio": "ratio",
}

PROBES = [
    "simcore.queue.ns_per_event",
    "simos.kernel.ns_per_syscall",
    "sip.parse.ns_per_msg",
    "sip.serialize.ns_per_msg",
    "sip.framer.ns_per_msg",
    "simnet.udp.ns_per_datagram",
    "simnet.tcp.ns_per_segment",
    "simnet.tcp.ns_per_conn_cycle",
    "simnet.sctp.ns_per_message",
    "proxy.core.ns_per_msg",
    "proxy.core.ns_per_shed",
    "proxy.core.ns_per_timer_pass",
]

# Virtual per-layer counters, read as-is from the untraced run, with units.
COUNTERS = {
    "simos.syscalls_per_op": "count",
    "simos.context_switches_per_op": "count",
    "simos.lock_yields_per_op": "count",
    "simos.wakeups_per_op": "count",
    "simos.preemptions_per_op": "count",
    "simos.server_util": "ratio",
    "simos.cpu_share.kernel": "ratio",
    "simos.cpu_share.sched_yield": "ratio",
    "simos.cpu_share.ipc": "ratio",
    "simnet.udp_sent_per_op": "count",
    "simnet.udp_queue_drops": "count",
    "simnet.tcp_segments_per_op": "count",
    "simnet.tcp_established_per_op": "count",
    "simnet.sctp_messages_per_op": "count",
    "simnet.server_time_wait": "count",
    "proxy.lock_contention.txn_table": "ratio",
    "proxy.lock_contention.timer_list": "ratio",
    "proxy.lock_contention.tcpconn_hash": "ratio",
    "proxy.fd_requests_per_op": "count",
    "proxy.idle_scan_entries_per_op": "count",
    "proxy.cpu_share.tcpconn_timeout": "ratio",
    "proxy.txns_reaped_per_op": "count",
    "proxy.txn_timeouts": "count",
    "proxy.parse_errors": "count",
    "overload.rejections_per_attempt": "ratio",
    "overload.cpu_share.shed_fast": "ratio",
    "workload.offered_per_s": "1/s",
    "workload.arrival_rate_ratio": "ratio",
    "workload.rejection_retries_per_attempt": "ratio",
    "workload.phone_retransmits_per_attempt": "ratio",
    "workload.open_calls_peak": "count",
    "paper_ratio": "ratio",
}


class CheckFailed(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Builds the measurement binary and returns its path."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise CheckFailed(f"building {manifest} failed (exit {done.returncode})")
    return os.path.join(target, "release", "perfbench")


def invoke(binary, *args):
    """Runs the binary once and returns the JSON object it prints."""
    done = subprocess.run(
        [binary, *map(str, args)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise CheckFailed(f"perfbench {' '.join(map(str, args))} failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_run(run):
    """Correctness checks on one run's virtual results."""
    v = run["virt"]
    problems = []
    if v["proxy_parse_errors"] != 0:
        problems.append(f"proxy.parse_errors = {v['proxy_parse_errors']}, expected 0")
    if v["registered"] != v["phones"]:
        problems.append(f"registered {v['registered']} != phones spawned {v['phones']}")
    # Every 503 the proxy sent is counted by exactly one phone. 503s sent in
    # the last SETTLE before the run ends may still be on the wire, so the
    # phones' count lies between the proxy's count then and at the end.
    settled, sent, got = (
        v["proxy_overload_rejections_settled"],
        v["proxy_overload_rejections"],
        v["calls_rejected"],
    )
    if not settled <= got <= sent:
        problems.append(
            f"calls_rejected {got} outside [{settled}, {sent}] of proxy.overload_rejections "
            "(20 virtual ms before the end, at the end)"
        )
    if v["invite_samples"] < MIN_INVITE_SAMPLES:
        problems.append(f"only {v['invite_samples']} INVITE samples; p99.9 needs {MIN_INVITE_SAMPLES}")
    if v["window_ops"] <= 0 or v["call_attempts"] <= 0:
        problems.append("no operation completed in the window")
    if problems:
        raise CheckFailed(f"{run['workload']} seed {run['seed']}: " + "; ".join(problems))


def check_repeats(runs):
    """Every run of one seed must reproduce the same virtual results."""
    first = runs[0]
    for r in runs[1:]:
        if r["fingerprint"] != first["fingerprint"]:
            raise CheckFailed(
                f"nondeterminism: report fingerprints {first['fingerprint']} and {r['fingerprint']} "
                f"differ between runs of seed {first['seed']}"
            )
        diff = sorted(k for k in first["virt"] if first["virt"][k] != r["virt"].get(k))
        if diff:
            raise CheckFailed(f"nondeterminism: virtual metrics differ between runs of one seed: {diff}")


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(binary, workload, seed, seconds):
    runs = []
    start = time.monotonic()
    while len(runs) < MIN_REPEATS or time.monotonic() - start < seconds:
        run = invoke(binary, "run", workload, seed)
        check_run(run)
        runs.append(run)
        h = run["host"]
        log(f"perfbench: run {len(runs)}: setup {h['setup_s']:.3f} s, window {h['window_host_s']:.3f} host s")
    check_repeats(runs)
    med = statistics.median
    host = [r["host"] for r in runs]
    v = runs[0]["virt"]
    metrics = {
        "host_s_per_sim_s": med([h["window_host_s"] / h["window_virt_s"] for h in host]),
        "sim_ops_per_host_s": med([v["window_ops"] / h["window_host_s"] for h in host]),
        "setup_s": med([h["setup_s"] for h in host]),
        "peak_rss_mb": med([r["peak_rss_kib"] / 1024 for r in runs]),
        "virt_ops_per_s": v["virt_ops_per_s"],
        "invite_p50_ms": v["invite_p50_ms"],
        "invite_p999_ms": v["invite_p999_ms"],
        "call_ok_ratio": v["call_ok_ratio"],
    }
    print(f"{workload}  seed {seed}  {len(runs)} runs, each in its own process")
    print(
        f"  window {host[0]['window_virt_s']:.1f} virtual s from {host[0]['window_from_virt_s']:.1f} s; "
        f"txns_reaped_per_op {v['proxy.txns_reaped_per_op']:.4f} "
        f"({'pre-reaping regime' if v['proxy.txns_reaped_per_op'] == 0 else 'reaping regime'})"
    )
    for name, unit in END_TO_END.items():
        print(f"  {name:<20} {metrics[name]:>14.6g} {unit}")
    beyond = v["invite_samples"] * 0.001
    print(f"  INVITE samples {v['invite_samples']} ({beyond:.0f} beyond p99.9)")
    print(f"  call_fail_ratio {v['call_fail_ratio']:.6g} (1 - call_ok_ratio)")
    paper_line(workload, v)
    result = {name: metric(metrics[name], unit) for name, unit in END_TO_END.items()}
    attempted = sum(r["virt"]["call_attempts"] for r in runs)
    failed = sum(r["virt"]["call_failures"] for r in runs)
    return attempted, failed, result


def paper_line(workload, v):
    if workload in VALIDATED:
        print(f"  paper_ratio {v['paper_ratio']:.4f} (virt_ops_per_s / Figure 3 cell)")
    else:
        print("  paper_ratio: unvalidated, the paper has no cell for this workload")


def quartile_spread(xs):
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)


def per_layer(binary, workload, seed):
    spans = os.path.join(HERE, "traces", f"{workload}-seed{seed}.json")
    t = invoke(binary, "trace", workload, seed, spans)
    plain = {"workload": workload, "seed": seed, "virt": t["virt"]}
    check_run(plain)
    p, c, v = t["probes"], t["counts"], t["virt"]
    untraced, traced = t["untraced"], t["traced"]
    window_ns = untraced["window_host_s"] * 1e9
    pi = t["probe_inputs"]
    table_scale = pi["txn_table"] / max(pi["ladder_txns"], 1)
    # Host-time shares: probe ns/op x the run's own counts over the window.
    est = {
        "sip": c["inbound_msgs"] * p["sip.serialize.ns_per_msg"]
        + (c["inbound_msgs"] + c["outbound_msgs"]) * p["sip.parse.ns_per_msg"]
        + c["framed_msgs"] * p["sip.framer.ns_per_msg"],
        "proxy_core": c["core_msgs"] * p["proxy.core.ns_per_msg"]
        + c["core_sheds"] * p["proxy.core.ns_per_shed"]
        + c["timer_passes"] * p["proxy.core.ns_per_timer_pass"] * table_scale,
        "simnet": c["udp_datagrams"] * p["simnet.udp.ns_per_datagram"]
        + c["tcp_segments"] * p["simnet.tcp.ns_per_segment"]
        + c["tcp_conns"] * p["simnet.tcp.ns_per_conn_cycle"]
        + c["sctp_messages"] * p["simnet.sctp.ns_per_message"],
        "simcore_queue": (c["syscalls"] + c["udp_datagrams"] + c["tcp_segments"] + c["sctp_messages"])
        * p["simcore.queue.ns_per_event"],
    }
    shares = {k: ns / window_ns for k, ns in est.items()}
    shares["unattributed"] = 1.0 - sum(shares.values())
    slices = t["slice_ms"]
    q = statistics.quantiles(slices, n=10)
    metrics = {name: metric(p[name], "ns") for name in PROBES}
    metrics.update({f"host_share.{k}": metric(s, "ratio") for k, s in shares.items()})
    metrics["simos.run_until.slice_ms_p50"] = metric(statistics.median(slices), "ms")
    metrics["simos.run_until.slice_ms_p90"] = metric(q[8], "ms")
    metrics["simos.run_until.slice_spread"] = metric(quartile_spread(slices), "ratio")
    metrics["simos.run_until.host_ns_per_syscall"] = metric(window_ns / max(c["syscalls"], 1), "ns")
    metrics["trace.overhead_ratio"] = metric(traced["window_host_s"] / untraced["window_host_s"], "ratio")
    metrics.update({name: metric(v[name], unit) for name, unit in COUNTERS.items()})
    metrics["workload.call_fail_ratio"] = metric(v["call_fail_ratio"], "ratio")
    metrics["workload.invite_samples"] = metric(v["invite_samples"], "count")

    print(f"{workload}  seed {seed}  traced run: {t['spans']} spans -> {os.path.relpath(spans, ROOT)}")
    print(f"  probe inputs: {json.dumps(pi)}")
    for name in PROBES:
        print(f"  {name:<36} {p[name]:>12.1f} ns/op  ({p[name + '.samples']} samples)")
    print("  host-time shares (estimates: probe ns/op x the run's window counts / window host ns):")
    for k, s in shares.items():
        print(f"    host_share.{k:<16} {s:>8.3f}")
    for name, m in metrics.items():
        if name in PROBES or name.startswith("host_share."):
            continue
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    paper_line(workload, v)
    return v["call_attempts"], v["call_failures"], metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        binary = build()
        if args.trace:
            attempted, failed, metrics = per_layer(binary, args.workload, args.seed)
        else:
            attempted, failed, metrics = end_to_end(binary, args.workload, args.seed, args.seconds)
    except (CheckFailed, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log(f"perfbench: FAILED: {e}")
        return 1
    result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
