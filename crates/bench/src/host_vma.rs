//! Host-side microbenchmarks of the VMA table data structures.
//!
//! Unlike the simulation harnesses (which report *simulated* nanoseconds),
//! these measure real wall-clock throughput of the software structures —
//! the plain list's closed-form slot computation plus one keyed fetch from
//! its sparse host store vs the B-tree's walk, free list pops, and the VA
//! codec. The simulated costs come from the charged accesses, not from
//! these host timings.
//!
//! Each row is the mean wall-clock time per iteration over a timed loop
//! of at least half a second. Insert/remove rows build a fresh table per
//! iteration, outside the timed region.

use std::hint::black_box;
use std::time::{Duration, Instant};

use jord_hw::types::{PdId, Perm};
use jord_vma::{BTreeTable, FreeLists, PlainListTable, SizeClass, VaCodec, VmaTable};

const MEASURE: Duration = Duration::from_millis(500);
/// Timed iterations of a benchmark that needs fresh input each time.
const FRESH_ITERS: u32 = 1024;

fn report(name: &str, elapsed: Duration, iters: u64) {
    let ns = elapsed.as_secs_f64() * 1e9 / iters as f64;
    println!("{name:<40} {ns:>12.1} ns/iter");
}

/// Times `routine` in batches of doubling size and reports the first
/// batch that runs for at least [`MEASURE`]; the shorter batches before it
/// are the warm-up.
fn bench<O>(name: &str, mut routine: impl FnMut() -> O) {
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        let elapsed = start.elapsed();
        if elapsed >= MEASURE {
            return report(name, elapsed, iters);
        }
        iters *= 2;
    }
}

/// Times `routine` on a fresh `setup()` value per iteration; only the
/// routine is inside the timed region.
fn bench_fresh<I, O>(
    name: &str,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(&mut I) -> O,
) {
    let mut total = Duration::ZERO;
    for _ in 0..FRESH_ITERS {
        let mut input = setup();
        let start = Instant::now();
        black_box(routine(&mut input));
        total += start.elapsed();
    }
    report(name, total, FRESH_ITERS.into());
}

fn populated_plain(n: u32) -> (PlainListTable, Vec<u64>) {
    let codec = VaCodec::isca25();
    let mut t = PlainListTable::new(codec, 0x4000_0000);
    let mut acc = Vec::new();
    let sc = SizeClass::for_len(1024).unwrap();
    let vas = (0..n)
        .map(|i| {
            t.insert(sc, i, 1024, 0, &mut acc);
            t.set_perm(sc, i, PdId(1), Perm::RW, &mut acc);
            codec.base_of(sc, i).unwrap()
        })
        .collect();
    (t, vas)
}

fn populated_btree(n: u32) -> (BTreeTable, Vec<u64>) {
    let codec = VaCodec::isca25();
    let mut t = BTreeTable::new(codec, 0x8000_0000, 0x9000_0000);
    let mut acc = Vec::new();
    let sc = SizeClass::for_len(1024).unwrap();
    let vas = (0..n)
        .map(|i| {
            t.insert(sc, i, 1024, 0, &mut acc);
            t.set_perm(sc, i, PdId(1), Perm::RW, &mut acc);
            codec.base_of(sc, i).unwrap()
        })
        .collect();
    (t, vas)
}

fn lookup() {
    let (mut plain, vas) = populated_plain(1000);
    let mut acc = Vec::with_capacity(16);
    let mut i = 0usize;
    bench("table_lookup_1k_vmas/plain_list", || {
        i = (i + 7) % vas.len();
        acc.clear();
        plain.lookup(black_box(vas[i] + 13), PdId(1), &mut acc)
    });
    let (mut btree, vas) = populated_btree(1000);
    bench("table_lookup_1k_vmas/btree", || {
        i = (i + 7) % vas.len();
        acc.clear();
        btree.lookup(black_box(vas[i] + 13), PdId(1), &mut acc)
    });
}

fn insert_remove() {
    let sc = SizeClass::for_len(1024).unwrap();
    bench_fresh(
        "table_insert_remove/plain_list",
        || populated_plain(512).0,
        |t| {
            let mut acc = Vec::new();
            t.insert(sc, 1000, 1024, 0, &mut acc);
            t.remove(sc, 1000, &mut acc);
        },
    );
    bench_fresh(
        "table_insert_remove/btree",
        || populated_btree(512).0,
        |t| {
            let mut acc = Vec::new();
            t.insert(sc, 1000, 1024, 0, &mut acc);
            t.remove(sc, 1000, &mut acc);
        },
    );
}

fn codec() {
    let codec = VaCodec::isca25();
    let sc = SizeClass::for_len(4096).unwrap();
    let mut i = 0u32;
    bench("va_codec_roundtrip", || {
        i = (i + 1) & 0xFFF;
        let va = codec.encode(sc, black_box(i), 17).unwrap();
        codec.decode(black_box(va))
    });
}

fn free_lists() {
    let mut f = FreeLists::new(&VaCodec::isca25(), 0x7000_0000);
    let sc = SizeClass::MIN;
    bench("free_list_pop_push", || {
        let i = f.pop(black_box(sc)).unwrap();
        f.push(sc, black_box(i));
    });
}

// Each group drops its tables before the next one runs: the timed insert
// can grow a table's `Vec`, and what that costs depends on the heap layout
// the earlier groups leave behind.
pub fn main() {
    lookup();
    insert_remove();
    codec();
    free_lists();
}
