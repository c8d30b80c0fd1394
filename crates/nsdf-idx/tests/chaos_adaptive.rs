//! Differential chaos test for mixed-codec datasets: an adaptive dataset
//! read through the full resilience stack (retry → integrity → fault
//! injection) under 20 % transient faults and 5 % payload corruption must
//! deliver samples bitwise-identical to a fault-free oracle. This is the
//! end-to-end guarantee that per-block codec tags survive a lossy
//! substrate: a corrupted header or payload is caught by the integrity
//! layer and re-fetched, never handed to the wrong decoder.

use nsdf_compress::Codec;
use nsdf_idx::{Field, IdxDataset, IdxMeta};
use nsdf_storage::{EndpointPolicy, FailScope, FaultPlan, MemoryStore, ObjectStore, RetryPolicy};
use nsdf_util::{DType, Obs, Raster, SimClock};
use std::sync::Arc;

fn adaptive_meta() -> IdxMeta {
    IdxMeta::new_2d(
        "chaos",
        96,
        96,
        vec![Field::new("v", DType::F32).unwrap()],
        8,
        Codec::Adaptive { sample_size: 4 },
    )
    .unwrap()
}

/// Mixed-content raster: a constant plateau (run-coder food), a smooth ramp
/// (shuffle/delta food), and deterministic pseudo-noise (incompressible:
/// random NaN-free bit patterns) — forcing the per-block selector to mix
/// codecs across the dataset.
fn mixed_raster() -> Raster<f32> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    Raster::from_fn(96, 96, move |x, y| {
        if y < 32 {
            7.5
        } else if y < 64 {
            (y * 96 + x) as f32 * 0.25
        } else {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Bit 30 clear: the exponent is never all ones, so no NaN.
            f32::from_bits((state >> 32) as u32 & 0xBFFF_FFFF)
        }
    })
}

#[test]
fn adaptive_dataset_survives_chaos_bitwise() {
    // Fault-free oracle over a plain in-memory store.
    let mem = Arc::new(MemoryStore::new());
    let oracle =
        IdxDataset::create(mem.clone() as Arc<dyn ObjectStore>, "data/chaos", adaptive_meta())
            .unwrap();
    let raster = mixed_raster();
    let w = oracle.write_raster("v", 0, &raster).unwrap();
    assert!(w.codecs.len() >= 2, "selector should mix codecs per block, got {:?}", w.codecs);
    let (expect, _) = oracle.read_full::<f32>("v", 0).unwrap();
    assert_eq!(expect.data(), raster.data());

    // Same stored bytes read through the chaos stack.
    let clock = SimClock::new();
    let plan = FaultPlan::new(1234)
        .with_scope(FailScope::Reads)
        .with_fault_rate(0.20)
        .with_corrupt_rate(0.05);
    let policy = EndpointPolicy {
        retry: RetryPolicy { max_attempts: 8, initial_backoff_secs: 0.05, multiplier: 2.0 },
        hedge: None,
        breaker: None,
        ..EndpointPolicy::default()
    };
    let retry = policy.resilient(mem, plan, &clock, &Obs::default()).unwrap();
    let chaotic = IdxDataset::open(retry, "data/chaos").unwrap();
    let (got, q) = chaotic.read_full::<f32>("v", 0).unwrap();
    assert!(!q.degraded);
    assert_eq!(got.data(), expect.data(), "chaos read must be bitwise-identical to the oracle");
}
