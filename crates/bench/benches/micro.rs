//! Criterion microbenches over the substrates: crypto, attestation,
//! model training/merging, codecs, topology generation, and the
//! `Transport` backends.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rex_core::config::{GossipAlgorithm, ProtocolConfig, SharingMode};
use rex_crypto::{ChaCha20Poly1305, Sha256, StaticSecret};
use rex_data::{Rating, SyntheticConfig};
use rex_ml::{MfHyperParams, MfModel, Model};
use rex_net::codec::{decode_plain, encode_plain};
use rex_net::message::Plain;
use rex_tee::attestation::Attestor;
use rex_tee::measurement::REX_ENCLAVE_V1;
use rex_tee::{DcapService, SgxCostModel, SgxPlatform};
use rex_topology::{erdos_renyi, small_world};

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    for size in [1_024usize, 65_536] {
        let data = vec![0xA5u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("sha256", size), &data, |b, d| {
            b.iter(|| Sha256::digest(d));
        });
        let cipher = ChaCha20Poly1305::new(&[7u8; 32]);
        let nonce = [1u8; 12];
        group.bench_with_input(BenchmarkId::new("aead_seal", size), &data, |b, d| {
            b.iter(|| cipher.seal(&nonce, b"", d));
        });
        let sealed = cipher.seal(&nonce, b"", &data);
        group.bench_with_input(BenchmarkId::new("aead_open", size), &sealed, |b, s| {
            b.iter(|| cipher.open(&nonce, b"", s).unwrap());
        });
    }
    group.finish();

    c.bench_function("crypto/x25519_dh", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        let a = StaticSecret::random(&mut rng);
        let p = StaticSecret::random(&mut rng).public_key();
        b.iter(|| a.diffie_hellman(&p).unwrap());
    });
}

fn bench_attestation(c: &mut Criterion) {
    c.bench_function("tee/mutual_attestation", |b| {
        let dcap = DcapService::new();
        let mut rng = StdRng::seed_from_u64(2);
        let p1 = SgxPlatform::provision(1, &dcap, &mut rng);
        let p2 = SgxPlatform::provision(2, &dcap, &mut rng);
        b.iter(|| {
            let e1 = p1.create_enclave(REX_ENCLAVE_V1, SgxCostModel::default());
            let e2 = p2.create_enclave(REX_ENCLAVE_V1, SgxCostModel::default());
            let mut e1 = e1;
            let mut e2 = e2;
            let a1 = Attestor::new(&mut rng);
            let a2 = Attestor::new(&mut rng);
            let q1 = p1.quote_report(&e1.create_report(a1.user_data())).unwrap();
            let q2 = p2.quote_report(&e2.create_report(a2.user_data())).unwrap();
            let hello = Attestor::hello(q1.clone());
            let (reply, sb) = a2.respond(&e2, &dcap, q2, &hello).unwrap();
            let sa = a1.finish(&e1, &dcap, &q1, &reply).unwrap();
            (sa, sb)
        });
    });
}

fn bench_kernels(c: &mut Criterion) {
    // The kernel layer, per dispatch level (scalar, AVX2): the MF
    // hot-path dot product at the paper's embedding scale and the
    // 8-block-wide ChaCha20 keystream behind share sealing.
    use rex_crypto::chacha20;
    use rex_ml::kernel;

    let k = 32usize;
    let a: Vec<f32> = (0..k).map(|i| (i as f32 - 16.0) * 0.031).collect();
    let b_vec: Vec<f32> = (0..k).map(|i| (i as f32 - 7.0) * 0.017).collect();

    let mut group = c.benchmark_group("kernel/dot_k32");
    for level in kernel::available_levels() {
        group.bench_function(level.name(), |bch| {
            bch.iter(|| kernel::dot_with(level, &a, &b_vec));
        });
    }
    group.finish();

    // One 8-block batch = 512 bytes: the smallest buffer the wide
    // kernel runs whole, so both levels price the same work.
    let mut group = c.benchmark_group("kernel/chacha20_8block");
    group.throughput(Throughput::Bytes(chacha20::WIDE_LEN as u64));
    for level in rex_crypto::simd::available_levels() {
        group.bench_function(level.name(), |bch| {
            let key = [7u8; 32];
            let nonce = [9u8; 12];
            let mut buf = vec![0u8; chacha20::WIDE_LEN];
            bch.iter(|| chacha20::xor_stream_with(level, &key, 1, &nonce, &mut buf));
        });
    }
    group.finish();
}

fn mf_training_set() -> Vec<Rating> {
    SyntheticConfig {
        num_users: 200,
        num_items: 2_000,
        num_ratings: 20_000,
        seed: 3,
        ..SyntheticConfig::default()
    }
    .generate()
    .ratings
}

fn bench_mf(c: &mut Criterion) {
    let data = mf_training_set();
    c.bench_function("mf/epoch_300_steps", |b| {
        let mut model = MfModel::new(200, 2_000, MfHyperParams::default(), 3.5, 0);
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| model.train_steps(&data, 300, &mut rng));
    });

    c.bench_function("mf/serialize", |b| {
        let model = MfModel::new(200, 2_000, MfHyperParams::default(), 3.5, 0);
        b.iter(|| model.to_bytes());
    });

    let mut group = c.benchmark_group("mf/merge");
    for neighbors in [1usize, 8, 30] {
        group.bench_with_input(
            BenchmarkId::from_parameter(neighbors),
            &neighbors,
            |b, &n| {
                let mut rng = StdRng::seed_from_u64(5);
                let data = mf_training_set();
                let mut local = MfModel::new(200, 2_000, MfHyperParams::default(), 3.5, 0);
                local.train_steps(&data, 500, &mut rng);
                let alien: Vec<MfModel> = (0..n)
                    .map(|i| {
                        let mut m =
                            MfModel::new(200, 2_000, MfHyperParams::default(), 3.5, i as u64);
                        m.train_steps(&data, 200, &mut rng);
                        m
                    })
                    .collect();
                let w = 1.0 / (n + 1) as f64;
                b.iter(|| {
                    let mut target = local.clone();
                    let contributions: Vec<(f64, &MfModel)> =
                        alien.iter().map(|m| (w, m)).collect();
                    target.merge(&contributions, w);
                    target
                });
            },
        );
    }
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let ratings: Vec<Rating> = (0..300)
        .map(|i| Rating {
            user: i,
            item: i * 7,
            value: 3.5,
        })
        .collect();
    let plain = Plain::RawData { ratings, degree: 6 };
    c.bench_function("codec/encode_300_triplets", |b| {
        b.iter(|| encode_plain(&plain));
    });
    let bytes = encode_plain(&plain);
    c.bench_function("codec/decode_300_triplets", |b| {
        b.iter(|| decode_plain(&bytes).unwrap());
    });
}

fn bench_transport(c: &mut Criterion) {
    // Encode + send + recv roundtrip through each Transport backend, per
    // payload size — the baseline for backend work (batching, zero-copy).
    // The TCP variant includes the delivery barrier (flush), so it prices
    // a *guaranteed-delivered* roundtrip through the kernel's TCP stack.
    use rex_net::channel::ChannelTransport;
    use rex_net::mem::MemNetwork;
    use rex_net::tcp::TcpTransport;
    use rex_net::transport::Transport;

    let mut group = c.benchmark_group("transport_roundtrip");
    for size in [256usize, 4_096, 65_536] {
        let plain = Plain::Model {
            bytes: vec![0xA5u8; size],
            degree: 8,
        };
        let encoded_len = encode_plain(&plain).len() as u64;
        group.throughput(Throughput::Bytes(encoded_len));
        group.bench_with_input(BenchmarkId::new("mem", size), &plain, |b, p| {
            let mut net = MemNetwork::new(2);
            b.iter(|| {
                let bytes = encode_plain(p);
                Transport::send(&mut net, 0, 1, bytes);
                Transport::recv(&mut net, 1)
            });
        });
        group.bench_with_input(BenchmarkId::new("channel", size), &plain, |b, p| {
            let mut net = ChannelTransport::new(2);
            b.iter(|| {
                let bytes = encode_plain(p);
                Transport::send(&mut net, 0, 1, bytes);
                Transport::recv(&mut net, 1)
            });
        });
        group.bench_with_input(BenchmarkId::new("tcp", size), &plain, |b, p| {
            let mut net = TcpTransport::loopback(2).expect("loopback fabric");
            b.iter(|| {
                let bytes = encode_plain(p);
                Transport::send(&mut net, 0, 1, bytes);
                net.flush();
                Transport::recv(&mut net, 1)
            });
        });
    }
    group.finish();
}

fn bench_store(c: &mut Criterion) {
    // RawDataStore::append_batch is the merge stage's hot path: every
    // epoch each node appends all neighbor shares in one call. Priced
    // flat (arrival-order Vec, single reserve) and sharded (plus the
    // per-user row index maintenance).
    use rex_core::store::RawDataStore;
    use rex_data::UserBlock;

    let mut group = c.benchmark_group("store/append_batch");
    for batch_size in [64usize, 1_024, 16_384] {
        let batch: Vec<Rating> = (0..batch_size)
            .map(|i| Rating {
                user: (i % 256) as u32,
                item: (i * 13 % 4_096) as u32,
                value: 3.5,
            })
            .collect();
        group.throughput(Throughput::Elements(batch_size as u64));
        group.bench_with_input(BenchmarkId::new("flat", batch_size), &batch, |b, batch| {
            b.iter(|| {
                let mut store = RawDataStore::new();
                store.append_batch(batch);
                store
            });
        });
        group.bench_with_input(
            BenchmarkId::new("sharded_256u", batch_size),
            &batch,
            |b, batch| {
                b.iter(|| {
                    let mut store =
                        RawDataStore::with_shard(UserBlock { start: 0, end: 256 }, Vec::new());
                    store.append_batch(batch);
                    store
                });
            },
        );
    }
    group.finish();
}

fn bench_topology(c: &mut Criterion) {
    c.bench_function("topology/small_world_610", |b| {
        b.iter(|| small_world(610, 6, 0.03, 1));
    });
    c.bench_function("topology/erdos_renyi_610", |b| {
        b.iter(|| erdos_renyi(610, 0.05, 1));
    });
}

fn bench_protocol_epoch(c: &mut Criterion) {
    // One full node epoch (merge+train+share+test), REX vs MS, as the
    // headline end-to-end microbenchmark.
    let mut group = c.benchmark_group("node_epoch");
    group.sample_size(20);
    for (name, sharing) in [("rex", SharingMode::RawData), ("ms", SharingMode::Model)] {
        group.bench_function(name, |b| {
            let ds = SyntheticConfig {
                num_users: 64,
                num_items: 800,
                num_ratings: 8_000,
                seed: 9,
                ..SyntheticConfig::default()
            }
            .generate();
            let split = rex_data::TrainTestSplit::standard(&ds, 1);
            let part = rex_data::Partition::multi_user(&split, 8);
            let graph = rex_topology::TopologySpec::FullyConnected.build(8, 0);
            let nodes = rex_core::builder::build_mf_nodes(
                &part,
                &graph,
                64,
                800,
                MfHyperParams::default(),
                ProtocolConfig {
                    sharing,
                    algorithm: GossipAlgorithm::DPsgd,
                    points_per_epoch: 300,
                    steps_per_epoch: 300,
                    seed: 1,
                    ..ProtocolConfig::default()
                },
                rex_core::builder::NodeSeeds::default(),
            );
            let mut node = nodes.into_iter().next().unwrap();
            b.iter(|| node.epoch(Vec::new()));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_crypto,
    bench_attestation,
    bench_kernels,
    bench_mf,
    bench_codec,
    bench_transport,
    bench_store,
    bench_topology,
    bench_protocol_epoch
);
criterion_main!(benches);
