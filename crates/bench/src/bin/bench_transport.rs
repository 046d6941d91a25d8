//! Transport microbenchmark with machine-readable output: times a
//! guaranteed-delivered roundtrip (encode → send → flush → recv)
//! through every `Transport` backend — the in-memory one both unsplit
//! (`mem`) and split into its channel endpoints (`channel`) — and writes
//! `results/BENCH_transport.json` — the artifact CI uploads on every run
//! to track the perf trajectory of the wire path.
//!
//! Quick mode (default) keeps total runtime to a few seconds; `--full`
//! measures longer windows. Each row is the best of [`WINDOW_REPS`]
//! windows rotated across the arms it is compared with
//! ([`rex_bench::harness`]); `ns_per_roundtrip` is a mean over one
//! window's iterations, sized once per arm to fill the window. The TCP
//! row includes the wire barrier, i.e. it prices real kernel socket
//! delivery, not just an enqueue.
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
//! A fourth section, `round_overlap`, prices the per-node round loop's
//! split-phase barriers: two loopback endpoints on their own threads run
//! rounds of a fixed front and back spin around a 3.6 KB share (one
//! `rex-raw` epoch's share), once **lockstep** — whole barriers, both
//! spins before the send — and once **split** — each spin in the gap
//! between a barrier's arrive and its wait, as
//! `rex_core::round::run_node_loop` runs them. The spins are short, so
//! the barriers' wire latency is a large share of a lockstep round. What
//! the split can hide depends on a free core: a peer's token is read by
//! the endpoint's poller thread, which competes with both spinning node
//! threads on a two-core host.
//!
//! `--check-baseline <path>` compares this run's `tcp_mem_ratio_256`
//! (TCP roundtrip cost over the in-memory backend's, 256 B payload —
//! a machine-speed-independent gauge of wire-path overhead) and its
//! `split_round_speedup` (lockstep ns per round over split) against a
//! committed baseline JSON and exits non-zero when either regressed more
//! than 25%.

use rex_bench::harness::{self, Arm, Gate, Report, Row};
use rex_bench::BenchArgs;
use rex_net::codec::encode_plain;
use rex_net::fault::{FaultPlan, FaultyEndpoint, LinkFaults};
use rex_net::mem::{Envelope, MemNetwork};
use rex_net::message::Plain;
use rex_net::tcp::{TcpEndpoint, TcpTransport};
use rex_net::transport::{BarrierKind, Endpoint, Fabric, Transport};
use std::time::{Duration, Instant};

const PAYLOAD_SIZES: [usize; 4] = [256, 4_096, 65_536, 262_144];
const STAR_FAN_INS: [usize; 3] = [64, 256, 512];
const DROP_RATES: [f64; 4] = [0.0, 0.1, 0.3, 0.5];
/// Rotated windows per arm: every arm of a three-arm section runs first
/// once.
const WINDOW_REPS: usize = 3;

/// The `round_overlap` rounds: compute before the share (merge, train,
/// share) and after it (test, commit), and the share's size (300 raw
/// points of 12 B). On a two-core host, 100 µs / 150 µs spins (nearer a
/// `rex-raw` epoch's) read a `split_round_speedup` of 0.71-1.09 over
/// three quick runs: the gain drowned in the noise.
const FRONT: Duration = Duration::from_micros(20);
const BACK: Duration = Duration::from_micros(40);
const SHARE_BYTES: usize = 3_600;

/// One fault-sweep window: ns per cycle, messages delivered, dropped.
type FaultWindow = (f64, u64, u64);

/// Sizes an arm's per-window iteration count to fill `window_ms` from
/// one (warm-up) call of `op`.
fn iters_for(window_ms: u64, op: &mut impl FnMut()) -> u64 {
    let once_ns = harness::time_ns(op).max(1.0);
    ((window_ms as f64 * 1e6 / once_ns) as u64).clamp(10, 200_000)
}

/// An arm that runs `op` `iters` times per window and reports ns per call.
fn per_call<'a>(iters: u64, mut op: impl FnMut() + 'a) -> Arm<'a> {
    Box::new(move || {
        harness::time_ns(|| {
            for _ in 0..iters {
                op();
            }
        }) / iters as f64
    })
}

/// A roundtrip arm, with its sized iteration count: `roundtrip` sends
/// one encoded `plain` from node 0 and returns what node 1 drained.
fn roundtrip_arm<'a>(
    window_ms: u64,
    plain: &'a Plain,
    mut roundtrip: impl FnMut(Vec<u8>) -> Vec<Envelope> + 'a,
) -> (u64, Arm<'a>) {
    let mut op = move || {
        let inbox = roundtrip(encode_plain(plain));
        assert!(!inbox.is_empty(), "roundtrip lost the message");
    };
    let iters = iters_for(window_ms, &mut op);
    (iters, per_call(iters, op))
}

/// A roundtrip through the fabric view of `net`: send, `flush` when
/// `flush`, recv.
fn fabric_roundtrip(mut net: impl Transport, flush: bool) -> impl FnMut(Vec<u8>) -> Vec<Envelope> {
    move |bytes| {
        net.send(0, 1, bytes);
        if flush {
            net.flush();
        }
        net.recv(1)
    }
}

/// Busy-waits `d`: compute that holds the core, as an epoch does.
fn spin(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// One node's `rounds` rounds of the per-node loop against its one peer:
/// recv, the drain barrier, the [`FRONT`] spin, the share, the round
/// barrier, the [`BACK`] spin. `split` puts each spin between its
/// barrier's arrive and wait; otherwise the barriers are whole and both
/// spins run before the send.
fn overlap_rounds(ep: &mut TcpEndpoint, rounds: u64, split: bool) {
    let peer = 1 - ep.id();
    let barrier = |ep: &mut TcpEndpoint, kind, work: Option<Duration>| {
        ep.arrive(kind);
        if let Some(d) = work {
            spin(d);
        }
        ep.wait(kind).expect("loopback barrier");
    };
    for _ in 0..rounds {
        // After a completed round barrier every round's share is in.
        assert!(
            Endpoint::recv(ep).len() <= 1,
            "a round's share arrived late"
        );
        if split {
            barrier(ep, BarrierKind::Drain, Some(FRONT));
            Endpoint::send(ep, peer, vec![0xA5; SHARE_BYTES]);
            barrier(ep, BarrierKind::Round, Some(BACK));
        } else {
            barrier(ep, BarrierKind::Drain, None);
            spin(FRONT + BACK);
            Endpoint::send(ep, peer, vec![0xA5; SHARE_BYTES]);
            barrier(ep, BarrierKind::Round, None);
        }
    }
}

/// A `round_overlap` arm: its own loopback pair, `rounds` rounds per
/// window with one thread per node; reports ns per round.
fn overlap_arm(rounds: u64, split: bool) -> Arm<'static> {
    let mut endpoints = TcpTransport::loopback(2)
        .expect("loopback fabric")
        .into_endpoints();
    Box::new(move || {
        harness::time_ns(|| {
            std::thread::scope(|scope| {
                for ep in &mut endpoints {
                    scope.spawn(move || overlap_rounds(ep, rounds, split));
                }
            });
        }) / rounds as f64
    })
}

fn main() {
    let args = BenchArgs::parse();
    let window_ms = if args.full { 500 } else { 60 };
    let mode = if args.full { "full" } else { "quick" };

    let mut rows = Vec::new();
    let mut tcp_mem_ratio_256 = 0.0;
    for size in PAYLOAD_SIZES {
        let plain = Plain::Model {
            bytes: vec![0xA5u8; size],
            degree: 8,
        };
        let encoded_bytes = encode_plain(&plain).len();
        let tcp = TcpTransport::loopback(2).expect("loopback fabric");
        // The split in-memory pair, both endpoints on this thread.
        let mut channel = MemNetwork::new(2).into_endpoints();
        let (iters, mut arms): (Vec<u64>, Vec<Arm<'_>>) = [
            roundtrip_arm(
                window_ms,
                &plain,
                fabric_roundtrip(MemNetwork::new(2), false),
            ),
            roundtrip_arm(window_ms, &plain, move |bytes| {
                channel[0].send(1, bytes);
                channel[1].recv()
            }),
            roundtrip_arm(window_ms, &plain, fabric_roundtrip(tcp, true)),
        ]
        .into_iter()
        .unzip();
        let ns = harness::best_of(&format!("roundtrip {size} B"), WINDOW_REPS, &mut arms);
        for ((backend, iters), ns) in ["mem", "channel", "tcp"].into_iter().zip(iters).zip(&ns) {
            rows.push(
                Row::new()
                    .str("backend", backend)
                    .int("payload_bytes", size)
                    .int("encoded_bytes", encoded_bytes)
                    .int("iters", iters)
                    .num("ns_per_roundtrip", *ns, 1)
                    .num(
                        "mib_per_sec",
                        encoded_bytes as f64 / 1048576.0 / (ns / 1e9),
                        2,
                    ),
            );
        }
        if size == PAYLOAD_SIZES[0] {
            tcp_mem_ratio_256 = ns[2] / ns[0];
        }
    }

    // Drop-rate sweep over the faulty TCP loopback fabric: send → flush
    // (wire barrier) → recv cycles, counting what came out the far end.
    let fault_plain = Plain::Model {
        bytes: vec![0x5Au8; PAYLOAD_SIZES[0]],
        degree: 8,
    };
    let (fault_iters, mut arms): (Vec<u64>, Vec<Arm<'_, FaultWindow>>) = DROP_RATES
        .into_iter()
        .map(|drop_rate| {
            let plan = FaultPlan::uniform(0xBE9C, LinkFaults::drop_rate(drop_rate));
            let tcp = TcpTransport::loopback(2).expect("loopback fabric");
            let wrap = |e| FaultyEndpoint::new(e, plan.clone());
            let mut net =
                Fabric::from_endpoints(tcp.into_endpoints().into_iter().map(wrap).collect());
            net.epoch_begin(0);
            let cycle = |net: &mut Fabric<FaultyEndpoint<TcpEndpoint>>| {
                net.send(0, 1, encode_plain(&fault_plain));
                net.flush();
                // Drain so the mailbox stays bounded; the realized
                // fraction comes from the delivery counters, which
                // also cover the warm-up call's send.
                net.recv(1);
            };
            let iters = iters_for(window_ms, &mut || cycle(&mut net));
            let arm: Arm<'_, FaultWindow> = Box::new(move || {
                let ns = harness::time_ns(|| {
                    for _ in 0..iters {
                        cycle(&mut net);
                    }
                });
                let counts = net.take_delivery();
                (ns / iters as f64, counts.delivered, counts.dropped)
            });
            (iters, arm)
        })
        .unzip();
    let windows = harness::rotate("fault sweep", WINDOW_REPS, &mut arms);
    drop(arms);
    let fault_rows: Vec<Row> = DROP_RATES
        .into_iter()
        .zip(fault_iters)
        .zip(windows)
        .map(|((drop_rate, iters), windows)| {
            let ns = windows.iter().map(|w| w.0).fold(f64::INFINITY, f64::min);
            let delivered: u64 = windows.iter().map(|w| w.1).sum();
            let dropped: u64 = windows.iter().map(|w| w.2).sum();
            let fraction = delivered as f64 / (delivered + dropped).max(1) as f64;
            Row::new()
                .str("backend", "tcp+fault")
                .num("drop_rate", drop_rate, 2)
                .int("iters", iters)
                .num("ns_per_cycle", ns, 1)
                .num("delivered_fraction", fraction, 4)
        })
        .collect();

    // Connection scale: a full fan-in epoch on a star fabric (`peers`
    // spokes each deliver one 256 B frame to the hub, all links flush,
    // the hub drains).
    let frame = encode_plain(&Plain::Model {
        bytes: vec![0xA5u8; PAYLOAD_SIZES[0]],
        degree: 8,
    });
    // One fabric alive at a time: every endpoint runs a reactor thread,
    // and another fabric's idle pollers would share the window. The rows
    // are not ratios of each other, so there is nothing to rotate.
    let scale_rows: Vec<Row> = STAR_FAN_INS
        .into_iter()
        .map(|peers| {
            let mut net = TcpTransport::star(peers + 1).expect("star fabric");
            net.epoch_begin(0);
            let mut op = || {
                for spoke in 1..=peers {
                    net.send(spoke, 0, frame.clone());
                }
                net.flush();
                assert_eq!(net.recv(0).len(), peers, "star fan-in lost frames");
            };
            let iters = iters_for(window_ms, &mut op);
            let label = format!("star fan-in {peers}");
            let ns = harness::best_of(&label, WINDOW_REPS, &mut [per_call(iters, op)])[0];
            Row::new()
                .str("backend", "tcp-star")
                .int("peers", peers)
                .int("iters", iters)
                .num("ns_per_epoch", ns, 1)
                .num("ns_per_message", ns / peers as f64, 1)
        })
        .collect();

    // Split-phase rounds against lockstep ones, same work, same share.
    let rounds = window_ms * 4;
    let arms_named = ["lockstep", "split"];
    let mut arms: Vec<Arm<'_>> = arms_named
        .iter()
        .map(|&arm| overlap_arm(rounds, arm == "split"))
        .collect();
    let ns = harness::best_of("round overlap", WINDOW_REPS, &mut arms);
    drop(arms);
    let overlap_rows: Vec<Row> = arms_named
        .into_iter()
        .zip(&ns)
        .map(|(arm, ns)| {
            Row::new()
                .str("backend", "tcp")
                .str("barriers", arm)
                .int("front_us", FRONT.as_micros())
                .int("back_us", BACK.as_micros())
                .int("share_bytes", SHARE_BYTES)
                .int("rounds", rounds)
                .num("ns_per_round", *ns, 1)
        })
        .collect();
    let split_round_speedup = ns[0] / ns[1];

    let json = Report::new("transport_roundtrip", mode)
        .rows("results", &rows)
        .rows("fault_sweep", &fault_rows)
        .rows("conn_scale", &scale_rows)
        .rows("round_overlap", &overlap_rows)
        .render(
            &Row::new()
                .num("tcp_mem_ratio_256", tcp_mem_ratio_256, 2)
                .num("split_round_speedup", split_round_speedup, 3),
        );
    harness::finish(
        &args,
        "BENCH_transport.json",
        &json,
        &[
            Gate::ceiling("tcp_mem_ratio_256", tcp_mem_ratio_256),
            Gate::floor("split_round_speedup", split_round_speedup),
        ],
    );
}
