//! Transport microbenchmark with machine-readable output: times a
//! guaranteed-delivered roundtrip (encode → send → flush → recv)
//! through every `Transport` backend and writes
//! `results/BENCH_transport.json` — the artifact CI uploads on every run
//! to track the perf trajectory of the wire path.
//!
//! Quick mode (default) keeps total runtime around a second; `--full`
//! measures longer. `ns_per_roundtrip` is a mean over the measured
//! iterations; the TCP row includes the wire barrier, i.e. it prices real
//! kernel socket delivery, not just an enqueue.
//!
//! A second section sweeps the fault-injection layer over the TCP
//! backend: drop rate vs. per-cycle cost and realized delivery
//! fraction, so CI tracks both the wrapper's overhead (the 0-rate row
//! vs. the plain TCP row) and its behaviour under loss.
//!
//! A third section prices connection *scale* on a star fabric: one hub
//! endpoint fans in a full epoch of frames from 64–512 spokes through a
//! single poller thread, so CI tracks the reactor's per-connection cost
//! at the fan-ins the paper's 610-node deployments imply.
//!
//! `--check-baseline <path>` compares this run's `tcp_mem_ratio_256`
//! (TCP roundtrip cost over the in-memory backend's, 256 B payload —
//! a machine-speed-independent gauge of wire-path overhead) against a
//! committed baseline JSON and exits non-zero when it regressed more
//! than 25%.

use rex_bench::{baseline, output, BenchArgs};
use rex_net::channel::ChannelTransport;
use rex_net::codec::encode_plain;
use rex_net::fault::{FaultPlan, FaultyTransport, LinkFaults};
use rex_net::mem::MemNetwork;
use rex_net::message::Plain;
use rex_net::tcp::TcpTransport;
use rex_net::transport::Transport;
use std::time::Instant;

const PAYLOAD_SIZES: [usize; 4] = [256, 4_096, 65_536, 262_144];
const STAR_FAN_INS: [usize; 3] = [64, 256, 512];

struct Row {
    backend: &'static str,
    payload_bytes: usize,
    encoded_bytes: usize,
    iters: u64,
    ns_per_roundtrip: f64,
    mib_per_sec: f64,
}

/// Times `roundtrip` adaptively: warm up once, then size the iteration
/// count to fill `window_ms`.
fn measure(window_ms: u64, mut roundtrip: impl FnMut()) -> (u64, f64) {
    let probe = Instant::now();
    roundtrip();
    let once_ns = probe.elapsed().as_nanos().max(1) as u64;
    let iters = (window_ms * 1_000_000 / once_ns).clamp(10, 200_000);
    let start = Instant::now();
    for _ in 0..iters {
        roundtrip();
    }
    let total = start.elapsed().as_nanos() as f64;
    (iters, total / iters as f64)
}

fn bench_backend(
    backend: &'static str,
    window_ms: u64,
    plain: &Plain,
    payload_bytes: usize,
    mut net: impl Transport,
    flush: bool,
) -> Row {
    let encoded_bytes = encode_plain(plain).len();
    let (iters, ns) = measure(window_ms, || {
        let bytes = encode_plain(plain);
        net.send(0, 1, bytes);
        if flush {
            net.flush();
        }
        let got = net.recv(1);
        assert!(!got.is_empty(), "{backend}: roundtrip lost the message");
    });
    Row {
        backend,
        payload_bytes,
        encoded_bytes,
        iters,
        ns_per_roundtrip: ns,
        mib_per_sec: encoded_bytes as f64 / (1024.0 * 1024.0) / (ns / 1e9),
    }
}

/// One row of the drop-rate sweep over the fault-wrapped TCP backend.
struct FaultRow {
    drop_rate: f64,
    iters: u64,
    ns_per_cycle: f64,
    delivered_fraction: f64,
}

/// Times `send → flush (wire barrier) → recv` cycles through
/// `FaultyTransport<TcpTransport>` at the given drop rate, counting how
/// many messages actually came out the far end.
fn bench_fault_sweep(window_ms: u64, payload: usize) -> Vec<FaultRow> {
    [0.0, 0.1, 0.3, 0.5]
        .into_iter()
        .map(|drop_rate| {
            let plan = FaultPlan::uniform(0xBE9C, LinkFaults::drop_rate(drop_rate));
            let mut net =
                FaultyTransport::new(TcpTransport::loopback(2).expect("loopback fabric"), plan);
            net.epoch_begin(0);
            let plain = Plain::Model {
                bytes: vec![0x5Au8; payload],
                degree: 8,
            };
            let (iters, ns) = measure(window_ms, || {
                let bytes = encode_plain(&plain);
                net.send(0, 1, bytes);
                net.flush();
                // Drain so the mailbox stays bounded; the realized
                // fraction comes from the delivery counters below, which
                // also cover the warm-up probe's send.
                net.recv(1);
            });
            let counts = net.take_delivery();
            let attempts = counts.delivered + counts.dropped;
            FaultRow {
                drop_rate,
                iters,
                ns_per_cycle: ns,
                delivered_fraction: counts.delivered as f64 / attempts.max(1) as f64,
            }
        })
        .collect()
}

/// One row of the connection-scale arm: a full fan-in epoch on a star
/// fabric (`peers` spokes each deliver one 256 B frame to the hub, all
/// links flush, the hub drains).
struct ScaleRow {
    peers: usize,
    iters: u64,
    ns_per_epoch: f64,
    ns_per_message: f64,
}

fn bench_conn_scale(window_ms: u64) -> Vec<ScaleRow> {
    STAR_FAN_INS
        .into_iter()
        .map(|peers| {
            let mut net = TcpTransport::star(peers + 1).expect("star fabric");
            net.epoch_begin(0);
            let plain = Plain::Model {
                bytes: vec![0xA5u8; PAYLOAD_SIZES[0]],
                degree: 8,
            };
            let bytes = encode_plain(&plain);
            let (iters, ns) = measure(window_ms, || {
                for spoke in 1..=peers {
                    net.send(spoke, 0, bytes.clone());
                }
                net.flush();
                let got = net.recv(0);
                assert_eq!(got.len(), peers, "star fan-in lost frames");
            });
            ScaleRow {
                peers,
                iters,
                ns_per_epoch: ns,
                ns_per_message: ns / peers as f64,
            }
        })
        .collect()
}

fn json_escape_free(
    rows: &[Row],
    fault_rows: &[FaultRow],
    scale_rows: &[ScaleRow],
    tcp_mem_ratio_256: f64,
    mode: &str,
) -> String {
    // Hand-rolled JSON: fixed schema, no strings that need escaping.
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": \"transport_roundtrip\",\n  \"mode\": \"{mode}\",\n"
    ));
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"backend\": \"{}\", \"payload_bytes\": {}, \"encoded_bytes\": {}, \"iters\": {}, \"ns_per_roundtrip\": {:.1}, \"mib_per_sec\": {:.2}}}{}\n",
            r.backend,
            r.payload_bytes,
            r.encoded_bytes,
            r.iters,
            r.ns_per_roundtrip,
            r.mib_per_sec,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"fault_sweep\": [\n");
    for (i, r) in fault_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"backend\": \"tcp+fault\", \"drop_rate\": {:.2}, \"iters\": {}, \"ns_per_cycle\": {:.1}, \"delivered_fraction\": {:.4}}}{}\n",
            r.drop_rate,
            r.iters,
            r.ns_per_cycle,
            r.delivered_fraction,
            if i + 1 < fault_rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"conn_scale\": [\n");
    for (i, r) in scale_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"backend\": \"tcp-star\", \"peers\": {}, \"iters\": {}, \"ns_per_epoch\": {:.1}, \"ns_per_message\": {:.1}}}{}\n",
            r.peers,
            r.iters,
            r.ns_per_epoch,
            r.ns_per_message,
            if i + 1 < scale_rows.len() { "," } else { "" },
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"summary\": {{\"tcp_mem_ratio_256\": {tcp_mem_ratio_256:.2}}}\n}}\n"
    ));
    out
}

fn main() {
    let args = BenchArgs::parse();
    let window_ms = if args.full { 500 } else { 60 };
    let mode = if args.full { "full" } else { "quick" };

    let mut rows = Vec::new();
    for size in PAYLOAD_SIZES {
        let plain = Plain::Model {
            bytes: vec![0xA5u8; size],
            degree: 8,
        };
        rows.push(bench_backend(
            "mem",
            window_ms,
            &plain,
            size,
            MemNetwork::new(2),
            false,
        ));
        rows.push(bench_backend(
            "channel",
            window_ms,
            &plain,
            size,
            ChannelTransport::new(2),
            false,
        ));
        rows.push(bench_backend(
            "tcp",
            window_ms,
            &plain,
            size,
            TcpTransport::loopback(2).expect("loopback fabric"),
            true,
        ));
    }

    println!("transport roundtrip ({mode} mode):");
    for r in &rows {
        println!(
            "  {:<8} {:>7} B payload: {:>10.0} ns/rt  {:>9.2} MiB/s",
            r.backend, r.payload_bytes, r.ns_per_roundtrip, r.mib_per_sec
        );
    }

    let fault_rows = bench_fault_sweep(window_ms, PAYLOAD_SIZES[0]);
    println!("fault-injected tcp sweep ({} B payload):", PAYLOAD_SIZES[0]);
    for r in &fault_rows {
        println!(
            "  drop {:>4.2}: {:>10.0} ns/cycle  delivered {:>6.2}%",
            r.drop_rate,
            r.ns_per_cycle,
            100.0 * r.delivered_fraction
        );
    }

    let scale_rows = bench_conn_scale(window_ms);
    println!(
        "connection-scale star fan-in ({} B payload):",
        PAYLOAD_SIZES[0]
    );
    for r in &scale_rows {
        println!(
            "  {:>4} peers: {:>12.0} ns/epoch  {:>8.0} ns/message",
            r.peers, r.ns_per_epoch, r.ns_per_message
        );
    }

    let ns_at = |backend: &str| {
        rows.iter()
            .find(|r| r.backend == backend && r.payload_bytes == PAYLOAD_SIZES[0])
            .expect("sweep covers every backend at 256 B")
            .ns_per_roundtrip
    };
    let tcp_mem_ratio_256 = ns_at("tcp") / ns_at("mem");
    println!("summary: tcp/mem roundtrip ratio at 256 B = {tcp_mem_ratio_256:.2}");

    // Read the baseline *before* saving: the committed baseline is
    // usually the same results/ file this run is about to overwrite.
    let baseline = args
        .check_baseline
        .as_ref()
        .map(|path| baseline::read(path, ["tcp_mem_ratio_256"]));

    let json = json_escape_free(&rows, &fault_rows, &scale_rows, tcp_mem_ratio_256, mode);
    match output::save("BENCH_transport.json", &json) {
        Ok(path) => println!("[saved] {}", path.display()),
        Err(e) => {
            eprintln!("could not save BENCH_transport.json: {e}");
            std::process::exit(1);
        }
    }

    if let Some([committed]) = baseline {
        let name = "tcp_mem_ratio_256";
        if !baseline::holds_ceiling(name, tcp_mem_ratio_256, committed) {
            std::process::exit(1);
        }
    }
}
