//! Randomized property tests of the vgpu substrate and I/O layers: simulated
//! clocks are monotone under arbitrary operation sequences, memory pools
//! account exactly, transfer costs are monotone in size, MatrixMarket
//! round-trips preserve edge lists, and the `SyncPoint` rendezvous returns
//! the serial device-order fold under every arrival schedule.
//!
//! These were originally written with `proptest`; the offline build vendors
//! only a minimal `rand`, so each property is now driven by a seeded ChaCha
//! stream over the same input distribution (fixed trial count, deterministic
//! per seed — failures reproduce exactly).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use mgpu_graph_analytics::graph::{read_mtx, write_mtx, Coo};
use mgpu_graph_analytics::vgpu::sync::{Contribution, GlobalReduce};
use mgpu_graph_analytics::vgpu::{
    Device, HardwareProfile, Interconnect, KernelKind, SyncPoint, COMM_STREAM, COMPUTE_STREAM,
};

const CASES: usize = 64;

/// An arbitrary device operation.
#[derive(Debug, Clone)]
enum Op {
    Kernel { comm: bool, kind: u8, items: u16 },
    Charge { comm: bool, us: u16 },
    CrossWait,
    Superstep { n: u8 },
}

fn arb_op(rng: &mut ChaCha8Rng) -> Op {
    match rng.gen_range(0usize..4) {
        0 => Op::Kernel {
            comm: rng.gen(),
            kind: rng.gen_range(0u8..7),
            items: rng.gen_range(0u32..=u16::MAX as u32) as u16,
        },
        1 => Op::Charge { comm: rng.gen(), us: rng.gen_range(0u32..=u16::MAX as u32) as u16 },
        2 => Op::CrossWait,
        _ => Op::Superstep { n: rng.gen_range(1u8..6) },
    }
}

fn kind_of(k: u8) -> KernelKind {
    match k {
        0 => KernelKind::Advance,
        1 => KernelKind::Filter,
        2 => KernelKind::FusedAdvanceFilter,
        3 => KernelKind::Compute,
        4 => KernelKind::Combine,
        5 => KernelKind::Split,
        _ => KernelKind::Bulk,
    }
}

#[test]
fn device_clock_is_monotone_under_any_op_sequence() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB21);
    for _ in 0..CASES {
        let ops: Vec<Op> = (0..rng.gen_range(0usize..60)).map(|_| arb_op(&mut rng)).collect();
        let mut dev = Device::new(0, HardwareProfile::k40());
        let mut last = 0.0f64;
        for op in ops {
            match op {
                Op::Kernel { comm, kind, items } => {
                    let s = if comm { COMM_STREAM } else { COMPUTE_STREAM };
                    dev.kernel(s, kind_of(kind), || ((), items as u64)).unwrap();
                }
                Op::Charge { comm, us } => {
                    let s = if comm { COMM_STREAM } else { COMPUTE_STREAM };
                    dev.charge(s, us as f64 / 16.0, 0.0).unwrap();
                }
                Op::CrossWait => {
                    let ev = dev.record_event(COMPUTE_STREAM);
                    dev.stream_wait(COMM_STREAM, ev).unwrap();
                }
                Op::Superstep { n } => {
                    dev.end_superstep(n as usize, 0.0);
                }
            }
            let now = dev.now();
            assert!(now >= last, "clock went backwards: {now} < {last}");
            assert!(now.is_finite());
            last = now;
        }
    }
}

#[test]
fn kernel_work_accounting_matches_the_items_charged() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB22);
    for _ in 0..CASES {
        let items: Vec<u32> =
            (0..rng.gen_range(1usize..30)).map(|_| rng.gen_range(0u32..10_000)).collect();
        let mut dev = Device::new(0, HardwareProfile::k40());
        let mut expect_w = 0u64;
        let mut expect_c = 0u64;
        for (i, &n) in items.iter().enumerate() {
            let kind = if i % 3 == 0 { KernelKind::Combine } else { KernelKind::Advance };
            dev.kernel(COMPUTE_STREAM, kind, || ((), n as u64)).unwrap();
            if kind.is_communication_computation() {
                expect_c += n as u64;
            } else {
                expect_w += n as u64;
            }
        }
        assert_eq!(dev.counters.w_items, expect_w);
        assert_eq!(dev.counters.c_items, expect_c);
        assert_eq!(dev.counters.kernel_launches, items.len() as u64);
    }
}

#[test]
fn pool_accounting_is_exact_under_alloc_free_sequences() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB23);
    for _ in 0..CASES {
        let sizes: Vec<usize> =
            (0..rng.gen_range(1usize..40)).map(|_| rng.gen_range(1usize..4_000)).collect();
        let keep_mask: Vec<bool> = (0..40).map(|_| rng.gen()).collect();
        let pool = mgpu_graph_analytics::vgpu::MemoryPool::new(0, 1 << 26);
        let mut live_model = 0u64;
        let mut held = Vec::new();
        for (i, &n) in sizes.iter().enumerate() {
            let a = pool.alloc::<u64>(n).unwrap();
            live_model += (n * 8) as u64;
            if keep_mask[i % keep_mask.len()] {
                held.push(a);
            } else {
                live_model -= (n * 8) as u64;
                drop(a);
            }
            assert_eq!(pool.live(), live_model);
            assert!(pool.peak() >= pool.live());
        }
        drop(held);
        let total: u64 = sizes.iter().map(|&n| (n * 8) as u64).sum();
        assert_eq!(pool.live(), 0);
        assert!(pool.peak() <= total);
    }
}

#[test]
fn transfer_cost_is_monotone_in_bytes_and_respects_topology() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB24);
    for _ in 0..CASES {
        let a = rng.gen_range(0usize..8);
        let b = rng.gen_range(0usize..8);
        let bytes = rng.gen_range(0u64..(1 << 24));
        let ic = Interconnect::pcie3(8, 4);
        let t1 = ic.transfer_us(a, b, bytes);
        let t2 = ic.transfer_us(a, b, bytes + 1024);
        assert!(t2 >= t1);
        if a == b {
            assert_eq!(t1, 0.0);
        } else {
            assert!(t1 >= ic.latency_us(a, b));
            // symmetric links
            assert_eq!(t1, ic.transfer_us(b, a, bytes));
        }
    }
}

#[test]
fn two_level_fabric_charges_more_across_nodes() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB25);
    for _ in 0..CASES {
        let bytes = rng.gen_range(1u64..(1 << 22));
        let ic = Interconnect::two_level(2, 4);
        let intra = ic.transfer_us(0, 3, bytes);
        let inter = ic.transfer_us(0, 4, bytes);
        assert!(inter > intra);
    }
}

#[test]
fn mtx_round_trip_preserves_weighted_edges() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB26);
    for _ in 0..CASES {
        let n = rng.gen_range(2usize..40);
        let raw: Vec<(u32, u32, u32)> = (0..rng.gen_range(0usize..80))
            .map(|_| (rng.gen_range(0u32..40), rng.gen_range(0u32..40), rng.gen_range(1u32..1000)))
            .collect();
        let edges: Vec<(u32, u32)> =
            raw.iter().map(|&(s, d, _)| (s % n as u32, d % n as u32)).collect();
        let weights: Vec<u32> = raw.iter().map(|&(_, _, w)| w).collect();
        let coo = Coo::<u32>::from_edges(n, edges, Some(weights));
        let mut buf = Vec::new();
        write_mtx(&coo, &mut buf).unwrap();
        let back = read_mtx::<u32, _>(std::io::BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back.n_vertices, coo.n_vertices);
        assert_eq!(back.edges, coo.edges);
        assert_eq!(back.weights, coo.weights);
    }
}

#[test]
fn generators_are_seed_deterministic() {
    use mgpu_graph_analytics::gen::{preferential_attachment, rmat, web_crawl, RmatParams};
    let mut rng = ChaCha8Rng::seed_from_u64(0xB27);
    for _ in 0..8 {
        let seed = rng.gen_range(0u64..1000);
        let scale = rng.gen_range(4u32..9);
        let n = 1usize << scale;
        assert_eq!(
            rmat(scale, 4, RmatParams::paper(), seed).edges,
            rmat(scale, 4, RmatParams::paper(), seed).edges
        );
        assert_eq!(
            preferential_attachment(n.max(16), 3, seed).edges,
            preferential_attachment(n.max(16), 3, seed).edges
        );
        assert_eq!(web_crawl(n.max(16), 3, seed).edges, web_crawl(n.max(16), 3, seed).edges);
    }
}

// --- SyncPoint: stress + property suite -----------------------------------
//
// Every generation, every participant checks the reduction it was handed
// against a fold it computes itself, serially and in device-id order, from
// inputs that are a pure function of (generation, id). Seeded jitter before
// each arrival (nothing / `yield_now` / a 50 µs sleep) makes some waits end
// in the spin and others park; n = 8 oversubscribes any host with fewer than
// eight cores, where spinning is off. CI also runs this file under
// `taskset -c 0`, where it is off for every n ≥ 2.

const GENERATIONS: usize = 10_000;

/// Run `body` on its own thread and fail — not hang — if it has not
/// finished within 30 s: a lost wake-up leaves `body` blocked forever.
fn within_watchdog(what: String, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(std::time::Duration::from_secs(30)) {
        Ok(()) => worker.join().expect("the body already finished"),
        // a panic in the body drops the sender without a send
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("sender dropped without a send"))
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what}: no result within the 30 s watchdog — a rendezvous never completed")
        }
    }
}

/// Participant `id`'s input to generation `gen`. Every fourth generation
/// carries the order-sensitive quadruple `(1e16, 1, −1e16, 1)`, whose sum is
/// 1 in id order and 0 or 2 in others.
fn sync_input(gen: usize, id: usize) -> (f64, bool, Contribution) {
    let mut rng = ChaCha8Rng::seed_from_u64((gen * 64 + id) as u64);
    let f64_add = if gen.is_multiple_of(4) {
        [1e16, 1.0, -1e16, 1.0][id % 4]
    } else {
        rng.gen_range(0u32..1_000_000) as f64 * 1e-7 + 1e9 * (id % 2) as f64
    };
    let c = Contribution {
        f64_add,
        f64_max: rng.gen_range(0u32..1000) as f64 - 500.0,
        u64_add: rng.gen_range(0u64..1 << 40),
        aborting: rng.gen_range(0u32..16) == 0,
    };
    (rng.gen_range(0u32..1 << 20) as f64 / 8.0, rng.gen(), c)
}

/// The oracle: a left fold over ids 0..n, written without `SyncPoint`.
fn serial_fold(inputs: &[(f64, bool, Contribution)]) -> GlobalReduce {
    let mut r = GlobalReduce {
        max_time_us: 0.0,
        min_time_us: f64::INFINITY,
        abort_count: 0,
        done_count: 0,
        f64_sum: 0.0,
        f64_max: f64::NEG_INFINITY,
        u64_sum: 0,
    };
    for (time, done, c) in inputs {
        r.max_time_us = r.max_time_us.max(*time);
        r.min_time_us = r.min_time_us.min(*time);
        r.done_count += *done as usize;
        r.abort_count += c.aborting as usize;
        r.f64_sum += c.f64_add;
        r.f64_max = r.f64_max.max(c.f64_max);
        r.u64_sum += c.u64_add;
    }
    r
}

fn reduce_bits(r: &GlobalReduce) -> (u64, u64, usize, usize, u64, u64, u64) {
    (
        r.max_time_us.to_bits(),
        r.min_time_us.to_bits(),
        r.abort_count,
        r.done_count,
        r.f64_sum.to_bits(),
        r.f64_max.to_bits(),
        r.u64_sum,
    )
}

fn sync_point_stress(n: usize) {
    within_watchdog(format!("SyncPoint stress, n = {n}"), move || {
        let sync = SyncPoint::new(n);
        std::thread::scope(|scope| {
            for id in 0..n {
                let sync = &sync;
                scope.spawn(move || {
                    // the call kind is drawn from a stream every participant
                    // shares; the jitter from one of its own
                    let mut kinds = ChaCha8Rng::seed_from_u64(0x5C0 + n as u64);
                    let mut jitter = ChaCha8Rng::seed_from_u64((0x5C1 + n * 64 + id) as u64);
                    for gen in 0..GENERATIONS {
                        match jitter.gen_range(0u32..16) {
                            0 => std::thread::sleep(std::time::Duration::from_micros(50)),
                            1..=4 => std::thread::yield_now(),
                            _ => {}
                        }
                        let inputs: Vec<_> = (0..n).map(|peer| sync_input(gen, peer)).collect();
                        let (time, done, c) = inputs[id];
                        let kind = kinds.gen_range(0u32..4);
                        if kind == 3 {
                            // the id-less form carries time and the flag only
                            let got = sync.barrier(time, done);
                            let bare: Vec<_> = inputs
                                .iter()
                                .map(|&(t, d, _)| (t, d, Contribution::default()))
                                .collect();
                            assert_eq!(
                                reduce_bits(&got),
                                reduce_bits(&serial_fold(&bare)),
                                "n {n} generation {gen} barrier"
                            );
                            continue;
                        }
                        if kind < 2 {
                            // the enactor's own mix: a bare rendezvous, then
                            // the reducing one
                            sync.rendezvous(id);
                        }
                        let got = sync.superstep(id, time, done, c);
                        assert_eq!(
                            reduce_bits(&got),
                            reduce_bits(&serial_fold(&inputs)),
                            "n {n} generation {gen} participant {id}"
                        );
                    }
                });
            }
        });
        let stats = sync.host_stats();
        let attended: u64 = stats.iter().map(|s| s.rendezvous).sum();
        let per_participant = attended / n as u64;
        assert_eq!(attended, per_participant * n as u64);
        assert!(per_participant >= GENERATIONS as u64, "every generation is at least one");
        assert!(stats.iter().all(|s| s.parked <= s.rendezvous));
    });
}

#[test]
fn sync_point_stress_one_participant() {
    sync_point_stress(1);
}

#[test]
fn sync_point_stress_two_participants() {
    sync_point_stress(2);
}

#[test]
fn sync_point_stress_three_participants() {
    sync_point_stress(3);
}

#[test]
fn sync_point_stress_four_participants() {
    sync_point_stress(4);
}

#[test]
fn sync_point_stress_eight_participants_oversubscribed() {
    sync_point_stress(8);
}

#[test]
fn sync_point_poison_releases_every_waiter() {
    // n − 1 participants wait, all parked by the time the poison lands;
    // the n-th never arrives
    for n in [2usize, 4, 8] {
        within_watchdog(format!("poison, n = {n}"), move || {
            let sync = SyncPoint::new(n);
            std::thread::scope(|scope| {
                for id in 1..n {
                    let sync = &sync;
                    scope.spawn(move || {
                        let r = sync.superstep(id, id as f64, false, Contribution::default());
                        assert!(r.abort_count >= 1, "a poisoned rendezvous reports an abort");
                        sync.rendezvous(id); // and every later one returns at once
                        assert!(sync.barrier(0.0, false).abort_count >= 1);
                    });
                }
                // let the waiters get as far as the Condvar before poisoning
                while sync.host_stats().iter().skip(1).any(|s| s.parked == 0) {
                    std::thread::yield_now();
                }
                sync.poison();
            });
        });
    }
}
