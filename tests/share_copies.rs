//! Integration: a dense model share costs one model-sized buffer per
//! recipient. The share is serialised straight into the buffer it is
//! sealed and sent in, and a received share is opened and merged where
//! it lands, so one SGX model-sharing epoch front allocates little more
//! than the wire size of the model it sends. A counting global
//! allocator (this test binary's own) holds that figure to a ceiling.

use rex_repro::core::builder::Scenario;
use rex_repro::core::config::{ProtocolConfig, SharingMode};
use rex_repro::core::setup::establish_tee;
use rex_repro::data::SyntheticConfig;
use rex_repro::ml::Model;
use rex_repro::net::mem::MemNetwork;
use rex_repro::net::transport::{Endpoint, Transport};
use rex_repro::tee::SgxCostModel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes the current thread allocates while counting is on:
/// every allocation's size, and a reallocation's whole new size.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator runs while thread-locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes as u64));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// counting touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes `op` allocated on this thread.
fn allocated_by<T>(op: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATED.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = op();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATED.with(Cell::get))
}

/// Ceiling on the bytes one epoch front allocates per recipient, in
/// model wire sizes: the sent buffer is one, plus its headers and tag.
const CEILING: f64 = 1.25;

#[test]
fn a_model_share_allocates_about_one_model_per_recipient() {
    // The paper's 610 x 9 000 shape, two SGX nodes sharing models.
    let mut nodes = Scenario {
        dataset: SyntheticConfig {
            num_users: 610,
            num_items: 9_000,
            num_ratings: 20_000,
            seed: 42,
            ..SyntheticConfig::default()
        },
        split_seed: 1,
        nodes: 2,
        protocol: ProtocolConfig {
            sharing: SharingMode::Model,
            seed: 8,
            ..ProtocolConfig::default()
        },
        ..Scenario::default()
    }
    .build_fleet();
    establish_tee(
        &mut nodes,
        &mut MemNetwork::new(2),
        SgxCostModel::default(),
        1,
        3,
    );
    let mut endpoints = MemNetwork::new(2).into_endpoints();

    // Epoch 0 fills the inboxes; epoch 1's front opens, merges and shares.
    let mut ratios = Vec::new();
    for epoch in 0..2 {
        let inboxes: Vec<_> = endpoints.iter_mut().map(|e| e.recv()).collect();
        let mut sends = Vec::new();
        for (node, inbox) in nodes.iter_mut().zip(inboxes) {
            assert_eq!(inbox.len(), epoch, "node {}'s inbox", node.id());
            let ((outgoing, pending), bytes) = allocated_by(|| node.epoch_front(inbox));
            assert_eq!(outgoing.len(), 1);
            if epoch == 1 {
                let wire = node.model().wire_size() as f64;
                ratios.push(bytes as f64 / outgoing.len() as f64 / wire);
            }
            sends.push((node.id(), outgoing));
            assert!(node.epoch_back(pending).bytes_out > 0);
        }
        for (from, outgoing) in sends {
            for (dest, share) in outgoing {
                endpoints[from].send(dest, share);
            }
        }
    }
    eprintln!("bytes allocated per recipient, in model wire sizes: {ratios:.3?}");
    for ratio in ratios {
        assert!(
            ratio <= CEILING,
            "an epoch front allocated {ratio:.2} model wire sizes per recipient (ceiling {CEILING})"
        );
    }
}

/// A raw share is read where it lands: decoding its plain borrows the
/// triplets and allocates nothing, and a hostile count is refused with
/// no allocation of its size (an error message's few bytes at most).
#[test]
fn a_raw_share_is_read_in_place_and_a_hostile_count_allocates_nothing() {
    use rex_repro::data::Rating;
    use rex_repro::net::codec::{decode_plain_ref, encode_plain, PlainRef};
    use rex_repro::net::message::Plain;
    let ratings: Vec<Rating> = (0..300)
        .map(|n| Rating {
            user: n % 610,
            item: n * 29 % 9_000,
            value: 3.5,
        })
        .collect();
    let bytes = encode_plain(&Plain::RawData {
        ratings: ratings.clone(),
        degree: 5,
    });
    let (plain, allocated) = allocated_by(|| decode_plain_ref(&bytes));
    assert_eq!(allocated, 0, "decoding a raw share allocated");
    let Ok(PlainRef::RawData { triplets, .. }) = plain else {
        panic!("not a raw share");
    };
    assert!(triplets.iter().eq(ratings));

    for count in [u32::MAX, 16 * 1024 * 1024, 16 * 1024 * 1024 - 1, 301] {
        let mut hostile = bytes.clone();
        hostile[5..9].copy_from_slice(&count.to_le_bytes());
        let (plain, allocated) = allocated_by(|| decode_plain_ref(&hostile).is_err());
        assert!(plain, "count {count} accepted");
        assert!(
            allocated < 256,
            "count {count}: {allocated} bytes allocated"
        );
    }
}
