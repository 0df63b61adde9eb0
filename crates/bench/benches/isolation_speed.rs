//! Isolation-cost benchmarks: heap-image capture, serialization, and the
//! two isolation algorithm families — the paper's "post-mortem" costs.
//!
//! ```text
//! cargo bench -p bench --bench isolation_speed
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use xt_alloc::{Heap, Rng, SiteHash};
use xt_diefast::{DieFastConfig, DieFastHeap};
use xt_image::HeapImage;
use xt_isolate::cumulative::summarize_run;
use xt_isolate::iterative::isolate;

fn scripted_heap(seed: u64, steps: usize) -> DieFastHeap {
    let mut h = DieFastHeap::new(
        DieFastConfig::with_seed(seed)
            .heap(xt_diehard::DieHardConfig::with_seed(seed).track_history(true)),
    );
    let mut script = Rng::new(4242);
    let mut live = Vec::new();
    for step in 0..steps {
        if !live.is_empty() && script.chance(0.45) {
            let v: xt_arena::Addr = live.swap_remove(script.below_usize(live.len()));
            h.free(v, SiteHash::from_raw(0xF));
        } else {
            let size = 16 + script.below_usize(120);
            live.push(
                h.malloc(size, SiteHash::from_raw(step as u32 % 19))
                    .unwrap(),
            );
        }
    }
    h
}

fn isolation(c: &mut Criterion) {
    let mut group = c.benchmark_group("isolation");
    for steps in [200usize, 800] {
        let heaps: Vec<DieFastHeap> = (0..3).map(|i| scripted_heap(i, steps)).collect();
        let images: Vec<HeapImage> = heaps
            .iter()
            .map(|h| {
                HeapImage::try_capture(h)
                    .expect("the allocator mapped every miniheap this heap records")
            })
            .collect();

        group.bench_with_input(BenchmarkId::new("capture", steps), &steps, |b, _| {
            b.iter(|| {
                HeapImage::try_capture(&heaps[0])
                    .expect("the allocator mapped every miniheap this heap records")
            });
        });
        group.bench_with_input(BenchmarkId::new("encode", steps), &steps, |b, _| {
            b.iter(|| images[0].to_bytes());
        });
        let bytes = images[0].to_bytes();
        group.bench_with_input(BenchmarkId::new("decode", steps), &steps, |b, _| {
            b.iter(|| HeapImage::from_bytes(&bytes).unwrap());
        });
        group.bench_with_input(
            BenchmarkId::new("iterative_isolate_k3", steps),
            &steps,
            |b, _| {
                b.iter(|| isolate(&images).unwrap());
            },
        );
        let log = heaps[0].inner().history().unwrap();
        group.bench_with_input(
            BenchmarkId::new("cumulative_summary", steps),
            &steps,
            |b, _| {
                b.iter(|| summarize_run(&images[0], log, true, 0.5));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, isolation);
criterion_main!(benches);
