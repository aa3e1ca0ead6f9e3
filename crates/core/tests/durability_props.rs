//! Property-based durability: the frame codec and the corruption scanner
//! hold their contracts for *any* record stream and *any* storage strike.
//!
//! 1. **Codec round-trip**: every [`JournalRecord`] variant survives
//!    `encode_record` → `decode_record` unchanged, and a [`DurableLog`]
//!    built from any record stream scans back clean: every frame
//!    verified, no anomaly, and a seal that verifies against the image.
//! 2. **Salvage is a prefix, never an inflation**: however the image is
//!    struck (torn tail, bit flip, dropped write, duplicated frame) and
//!    then additionally truncated at an arbitrary byte, the scanner's
//!    salvaged records are a *prefix* of the original stream — so no
//!    request's `Complete` can ever be counted more times than it was
//!    journaled, which is what makes replay-after-corruption safe to
//!    feed into the ledger.

use proptest::collection::vec;
use proptest::prelude::*;

use std::collections::BTreeMap;

use jord_core::durability::{decode_record, encode_record, scan};
use jord_core::{durability, BrownoutLevel, DurableLog, FunctionId, InvocationId, JournalRecord};
use jord_hw::{StorageFaultKind, StorageStrike};
use jord_sim::SimTime;

fn arb_time() -> impl Strategy<Value = SimTime> {
    (0u64..1 << 48).prop_map(SimTime::from_ps)
}

fn arb_id() -> impl Strategy<Value = InvocationId> {
    (0usize..1 << 40).prop_map(InvocationId)
}

fn arb_func() -> impl Strategy<Value = FunctionId> {
    (0u32..1 << 20).prop_map(FunctionId)
}

/// Every [`JournalRecord`] variant, fields drawn across their full
/// encodable ranges.
fn arb_record() -> impl Strategy<Value = JournalRecord> {
    prop_oneof![
        (
            arb_id(),
            arb_func(),
            0u64..1 << 32,
            arb_time(),
            0u32..1 << 16,
            0u64..1 << 40,
        )
            .prop_map(|(id, func, bytes, arrival, attempt, tag)| {
                JournalRecord::Admit {
                    id,
                    func,
                    bytes,
                    arrival,
                    attempt,
                    tag,
                }
            }),
        (arb_id(), 0usize..1 << 16)
            .prop_map(|(id, executor)| JournalRecord::Dispatch { id, executor }),
        (arb_id(), 0u32..u32::from(u16::MAX))
            .prop_map(|(id, pd)| JournalRecord::PdCreate { id, pd: pd as u16 }),
        (arb_id(), 0u64..1 << 48, 0u64..1 << 32)
            .prop_map(|(id, va, bytes)| JournalRecord::ArgBufGrant { id, va, bytes }),
        (arb_id(), any::<bool>())
            .prop_map(|(id, measured)| JournalRecord::Complete { id, measured }),
        (arb_id(), any::<bool>()).prop_map(|(id, measured)| JournalRecord::Fail { id, measured }),
        (arb_func(), any::<bool>())
            .prop_map(|(func, measured)| JournalRecord::Shed { func, measured }),
        (
            (0u64..1 << 40, arb_id(), arb_func(), 0u64..1 << 32),
            (arb_time(), 0u32..1 << 16, arb_time(), 0u64..1 << 40),
            any::<bool>(),
        )
            .prop_map(
                |((token, id, func, bytes), (arrival, attempt, due, tag), measured)| {
                    JournalRecord::RetryScheduled {
                        token,
                        id,
                        func,
                        bytes,
                        arrival,
                        attempt,
                        due,
                        tag,
                        measured,
                    }
                }
            ),
        (0u64..1 << 40).prop_map(|token| JournalRecord::RetryFired { token }),
        (0u64..1 << 40, any::<bool>())
            .prop_map(|(token, measured)| JournalRecord::RetryDropped { token, measured }),
        arb_id().prop_map(|id| JournalRecord::Cancel { id }),
        prop_oneof![
            Just("executor"),
            Just("orchestrator"),
            Just("worker"),
            Just("cluster-worker"),
        ]
        .prop_map(|scope| JournalRecord::Crash { scope }),
        Just(JournalRecord::Checkpoint),
        prop_oneof![
            Just(BrownoutLevel::Normal),
            Just(BrownoutLevel::Degraded),
            Just(BrownoutLevel::ShedHeavy),
        ]
        .prop_map(|level| JournalRecord::Brownout { level }),
    ]
}

fn arb_strike() -> impl Strategy<Value = StorageStrike> {
    (
        prop_oneof![
            Just(StorageFaultKind::TornTail),
            Just(StorageFaultKind::BitFlip),
            Just(StorageFaultKind::DroppedWrite),
            Just(StorageFaultKind::DuplicatedFrame),
            Just(StorageFaultKind::TruncatedCheckpoint),
        ],
        any::<u64>(),
        any::<u64>(),
        0u32..8,
    )
        .prop_map(|(kind, frame_pick, byte_pick, bit_pick)| StorageStrike {
            kind,
            frame_pick,
            byte_pick,
            bit_pick: bit_pick as u8,
        })
}

/// Measured `Complete` records per invocation id — the counts the replay
/// ledger ultimately credits.
fn completes(records: &[JournalRecord]) -> BTreeMap<usize, u64> {
    let mut by_id = BTreeMap::new();
    for r in records {
        if let JournalRecord::Complete { id, measured: true } = r {
            *by_id.entry(id.0).or_insert(0) += 1;
        }
    }
    by_id
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn every_record_variant_round_trips(r in arb_record()) {
        let mut payload = Vec::new();
        encode_record(&r, &mut payload);
        prop_assert_eq!(decode_record(&payload), Some(r));
    }

    #[test]
    fn clean_logs_scan_back_exactly(records in vec(arb_record(), 1..40)) {
        let mut log = DurableLog::new();
        for r in &records {
            log.append(r);
        }
        let report = scan(log.bytes());
        prop_assert_eq!(report.records.as_slice(), records.as_slice());
        prop_assert_eq!(report.frames_verified, records.len() as u64);
        prop_assert_eq!(report.duplicates_dropped, 0);
        prop_assert_eq!(report.truncated_bytes, 0);
        prop_assert!(report.anomaly.is_none());
        prop_assert!(log.seal().verifies(log.bytes()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn corrupted_then_truncated_salvage_never_double_counts(
        records in vec(arb_record(), 2..40),
        strike in arb_strike(),
        cut_pick in any::<u64>(),
    ) {
        let mut log = DurableLog::new();
        for r in &records {
            log.append(r);
        }
        let mut image = log.bytes().to_vec();
        durability::apply_strike(&mut image, &strike);
        // A second, independent device failure: the image additionally
        // loses an arbitrary tail.
        let cut = (cut_pick % (image.len() as u64 + 1)) as usize;
        image.truncate(image.len() - cut);

        let report = scan(&image);
        // The salvage is a prefix of the original stream: corruption can
        // shorten history, never rewrite or repeat it.
        prop_assert!(report.records.len() <= records.len());
        prop_assert_eq!(
            report.records.as_slice(),
            &records[..report.records.len()]
        );
        // Hence no request is ever double-counted, even when the strike
        // duplicated the very frame that completed it.
        let original = completes(&records);
        for (id, n) in completes(&report.records) {
            prop_assert!(original.get(&id).copied().unwrap_or(0) >= n);
        }
    }
}
