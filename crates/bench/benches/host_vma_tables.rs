//! Criterion host-side microbenchmarks of the VMA table data structures.
//!
//! Unlike the simulation harnesses (which report *simulated* nanoseconds),
//! these measure real wall-clock throughput of the software structures —
//! the plain list's closed-form slot computation plus one keyed fetch from
//! its sparse host store vs the B-tree's walk, free list pops, and the VA
//! codec. The simulated costs come from the charged accesses, not from
//! these host timings.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use jord_hw::types::{PdId, Perm};
use jord_vma::{BTreeTable, FreeLists, PlainListTable, SizeClass, VaCodec, VmaTable};

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

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_lookup_1k_vmas");
    let (mut plain, vas) = populated_plain(1000);
    let mut acc = Vec::with_capacity(16);
    let mut i = 0usize;
    group.bench_function("plain_list", |b| {
        b.iter(|| {
            i = (i + 7) % vas.len();
            acc.clear();
            black_box(plain.lookup(black_box(vas[i] + 13), PdId(1), &mut acc))
        })
    });
    let (mut btree, vas) = populated_btree(1000);
    group.bench_function("btree", |b| {
        b.iter(|| {
            i = (i + 7) % vas.len();
            acc.clear();
            black_box(btree.lookup(black_box(vas[i] + 13), PdId(1), &mut acc))
        })
    });
    group.finish();
}

fn bench_insert_remove(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_insert_remove");
    let sc = SizeClass::for_len(1024).unwrap();
    group.bench_function("plain_list", |b| {
        b.iter_batched_ref(
            || populated_plain(512).0,
            |t| {
                let mut acc = Vec::new();
                t.insert(sc, 1000, 1024, 0, &mut acc);
                t.remove(sc, 1000, &mut acc);
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("btree", |b| {
        b.iter_batched_ref(
            || populated_btree(512).0,
            |t| {
                let mut acc = Vec::new();
                t.insert(sc, 1000, 1024, 0, &mut acc);
                t.remove(sc, 1000, &mut acc);
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let codec = VaCodec::isca25();
    let sc = SizeClass::for_len(4096).unwrap();
    c.bench_function("va_codec_roundtrip", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) & 0xFFF;
            let va = codec.encode(sc, black_box(i), 17).unwrap();
            black_box(codec.decode(black_box(va)))
        })
    });
}

fn bench_free_lists(c: &mut Criterion) {
    c.bench_function("free_list_pop_push", |b| {
        let codec = VaCodec::isca25();
        let mut f = FreeLists::new(&codec, 0x7000_0000);
        let sc = SizeClass::MIN;
        b.iter(|| {
            let i = f.pop(black_box(sc)).unwrap();
            f.push(sc, black_box(i));
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_lookup, bench_insert_remove, bench_codec, bench_free_lists
}
criterion_main!(benches);
