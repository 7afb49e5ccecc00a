//! What the two crash suites (`crash_recovery`, `region_failover`) share:
//! the WAL and link settings their sweeps run under, and the bookkeeping
//! around a receiver's acks and a store's canonical bytes.

use std::collections::BTreeMap;

use uburst::prelude::*;
use uburst::telemetry::Workload;

/// Small segments so a sweep crosses many rotation boundaries.
pub const SEGMENT_BYTES: usize = 512;
/// Acceptance bar: at least this many crash points in a sweep.
pub const MIN_CRASH_POINTS: usize = 200;

pub fn wal_config() -> WalConfig {
    WalConfig {
        segment_max_bytes: SEGMENT_BYTES,
        fsync: FsyncPolicy::Always,
    }
}

pub fn link_plan() -> LinkPlan {
    LinkPlan {
        drop_p: 0.10,
        dup_p: 0.08,
        delay_p: 0.15,
        max_delay_ticks: 3,
    }
}

/// A receiver issues `ack`: `acked` keeps the highest one per source — the
/// durability promises outstanding if the receiver dies now, whether or
/// not the wire loses the ack — and the session gets it to send.
pub fn issue(acked: &mut BTreeMap<SourceId, u64>, acks: &mut Vec<AckMsg>, ack: AckMsg) {
    let best = acked.entry(ack.source).or_insert(0);
    *best = (*best).max(ack.cum);
    acks.push(ack);
}

/// The store's canonical CSV export: what "the same store" means here.
pub fn csv(store: &SampleStore) -> Vec<u8> {
    let mut csv = Vec::new();
    store.export_csv(&mut csv).expect("export");
    csv
}

/// Expected store content for an acked prefix: the first `n` batches of
/// each source, ingested in order.
pub fn prefix_csv(work: &Workload, acked: &BTreeMap<SourceId, u64>) -> Vec<u8> {
    let store = SampleStore::new();
    for (&source, &n) in acked {
        for i in 0..n {
            store
                .ingest(&work.batch(source.0, i))
                .expect("prefix batches are well-formed");
        }
    }
    csv(&store)
}
