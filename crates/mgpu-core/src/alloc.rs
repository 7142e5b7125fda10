//! Memory allocation schemes for frontier buffers (§VI-B, Fig. 3).
//!
//! "Iterative graph primitives usually produce frontiers with a size that is
//! unknown until the finish of an advance or filter kernel." The paper
//! compares four ways to size the buffers that hold them:
//!
//! * **Just-enough** — estimate before each operation, reallocate when the
//!   estimate proves insufficient (rare in practice). Smallest footprint.
//! * **Fixed** — preallocate `sizing_factor × |V_i|` from previous runs of
//!   similar graphs; just-enough stays armed as a backstop "to prevent
//!   illegal memory access".
//! * **Max** — worst-case `|E_i|`-sized buffers; never reallocates but
//!   "artificially limits the size of the subgraph we can place onto one
//!   GPU".
//! * **Prealloc + fusion** — fixed preallocation, and the fused
//!   advance+filter kernel (§VI-C) eliminates the intermediate frontier
//!   buffer entirely.

use mgpu_graph::Id;
use vgpu::interconnect::Link;
use vgpu::{Device, DeviceArray, Result, VgpuError, COMPUTE_STREAM};

use crate::comm::SplitScratch;
use crate::governor::{self, GovernorLog};

/// Frontier-buffer allocation scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AllocScheme {
    /// Estimate then reallocate on demand (§VI-B's contribution).
    JustEnough,
    /// Preallocate `sizing_factor × |V_i|` elements per buffer.
    Fixed {
        /// Multiplier on `|V_i|` derived "from previous runs of similar
        /// graphs".
        sizing_factor: f64,
    },
    /// Preallocate `|E_i|` elements per buffer (the worst case an advance
    /// can produce).
    Max,
    /// [`AllocScheme::Fixed`] sizing plus kernel fusion: the intermediate
    /// advance output buffer is never allocated.
    PreallocFusion {
        /// See [`AllocScheme::Fixed::sizing_factor`].
        sizing_factor: f64,
    },
}

impl AllocScheme {
    /// Does this scheme use the fused advance+filter path?
    pub fn fused(&self) -> bool {
        matches!(self, AllocScheme::PreallocFusion { .. })
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            AllocScheme::JustEnough => "just-enough",
            AllocScheme::Fixed { .. } => "fixed",
            AllocScheme::Max => "max",
            AllocScheme::PreallocFusion { .. } => "prealloc+fusion",
        }
    }

    /// The scheme with its preallocation multiplier replaced (a no-op for
    /// the two schemes that have none).
    pub fn with_sizing_factor(self, sizing_factor: f64) -> Self {
        match self {
            AllocScheme::Fixed { .. } => AllocScheme::Fixed { sizing_factor },
            AllocScheme::PreallocFusion { .. } => AllocScheme::PreallocFusion { sizing_factor },
            other => other,
        }
    }

    /// Elements every buffer is preallocated to. The float-to-int cast
    /// saturates (a NaN or negative factor preallocates nothing, an infinite
    /// one asks for `usize::MAX`), and the pool refuses what it cannot hold.
    fn prealloc_elems(&self, n_vertices: usize, n_edges: usize) -> usize {
        match *self {
            AllocScheme::JustEnough => 0,
            AllocScheme::Fixed { sizing_factor }
            | AllocScheme::PreallocFusion { sizing_factor } => {
                (n_vertices as f64 * sizing_factor).ceil() as usize
            }
            AllocScheme::Max => n_edges,
        }
    }
}

/// The inverse of [`AllocScheme::label`], at sizing factor 1. The flag
/// spelling `prealloc-fusion` is accepted beside the report's.
impl std::str::FromStr for AllocScheme {
    type Err = ();
    fn from_str(s: &str) -> std::result::Result<Self, ()> {
        match s {
            "just-enough" => Ok(AllocScheme::JustEnough),
            "fixed" => Ok(AllocScheme::Fixed { sizing_factor: 1.0 }),
            "max" => Ok(AllocScheme::Max),
            "prealloc-fusion" | "prealloc+fusion" => {
                Ok(AllocScheme::PreallocFusion { sizing_factor: 1.0 })
            }
            _ => Err(()),
        }
    }
}

/// The scheme-managed frontier buffers of one GPU: input/output vertex
/// frontiers plus (for unfused pipelines) the intermediate advance output.
#[derive(Debug)]
pub struct FrontierBufs<V: Id> {
    scheme: AllocScheme,
    /// Current input frontier contents.
    pub input: DeviceArray<V>,
    /// Output frontier under construction.
    pub output: DeviceArray<V>,
    /// Advance's pre-filter output; `None` under prealloc+fusion.
    pub intermediate: Option<DeviceArray<V>>,
    /// Reusable scratch for the selective split's count pass — lives here so
    /// every per-iteration split reuses one histogram allocation.
    pub split: SplitScratch,
    /// Host-staged link spills go over; `None` until the enactor attaches
    /// the interconnect's host path, and until then every OOM propagates.
    host_link: Option<Link>,
    /// Mid-run governor decisions (spills, reclaim retries, chunked passes).
    pub(crate) gov: GovernorLog,
    /// Recycling pool for per-chunk kernel scratch (host-side only, never
    /// accounted against the device pool — see `vgpu::arena`). Trimmed at
    /// every output commit, i.e. at each superstep barrier.
    pub arena: vgpu::Arena<V>,
}

impl<V: Id> FrontierBufs<V> {
    /// Allocate buffers for a subgraph with `n_vertices` local vertices and
    /// `n_edges` local edges under `scheme`. Fails with OutOfMemory if the
    /// preallocation does not fit — the very failure mode just-enough
    /// allocation exists to avoid.
    pub fn new(
        dev: &mut Device,
        scheme: AllocScheme,
        n_vertices: usize,
        n_edges: usize,
    ) -> Result<Self> {
        // Under Max, *every* frontier buffer is worst-case sized — "allocate
        // memory that is large enough to handle any case, e.g. a size |E|
        // array for advance" — which is exactly what makes the scheme
        // memory-hungry in Fig. 3. The fixed schemes size vertex frontiers
        // by the sizing factor (capped estimates from previous runs).
        let pre = scheme.prealloc_elems(n_vertices, n_edges).max(1);
        let input = dev.alloc_with_capacity::<V>(pre)?;
        let output = dev.alloc_with_capacity::<V>(pre)?;
        let intermediate =
            if scheme.fused() { None } else { Some(dev.alloc_with_capacity::<V>(pre)?) };
        Ok(FrontierBufs {
            scheme,
            input,
            output,
            intermediate,
            split: SplitScratch::default(),
            host_link: None,
            gov: GovernorLog::default(),
            arena: vgpu::Arena::new(),
        })
    }

    /// Attach the host-staged link spills are charged over. From then on an
    /// OOM on a grow spills cold capacity to host and, for the intermediate,
    /// grants a chunk budget instead of failing; a run that fits never
    /// spills, so the link changes nothing for it.
    pub fn with_host_link(mut self, host_link: Link) -> Self {
        self.host_link = Some(host_link);
        self
    }

    /// The scheme in force.
    pub fn scheme(&self) -> AllocScheme {
        self.scheme
    }

    /// Mid-run governor decisions recorded on these buffers.
    pub fn governor(&self) -> &GovernorLog {
        &self.gov
    }

    /// Clear the per-enact governor decisions (the enactor calls this so
    /// each enact reports its own degradation events).
    pub fn reset_governor(&mut self) {
        self.gov = GovernorLog::default();
    }

    /// Make sure the intermediate buffer can hold `need` elements before an
    /// unfused advance, and return the number of slots actually *granted*.
    /// Under just-enough this grows the buffer exactly to `need` (charging
    /// the reallocation copy); under the preallocating schemes it is the
    /// "backstop" reallocation that §VI-B keeps armed. Normally
    /// `granted == need`. When the grow OOMs and a host link is attached,
    /// cold frontier capacity is spilled to host and the grow retried; if
    /// `need` still does not fit, the grant drops to what the pool's free
    /// bytes allow and the caller runs the advance as a chunked multi-pass.
    /// Every decision here is a function of pool accounting only, so the
    /// degraded schedule is identical at any `kernel_threads`.
    pub fn prepare_intermediate_budget(&mut self, dev: &mut Device, need: usize) -> Result<usize> {
        if self.intermediate.is_none() {
            return Ok(need); // fused pipeline: nothing to size
        }
        let first = dev.ensure_capacity(self.intermediate.as_mut().expect("checked above"), need);
        match first {
            Ok(()) => Ok(need),
            Err(e) if !self.can_spill(&e) => Err(e),
            Err(_) => {
                // Reclaim tier: the output buffer's contents are dead between
                // commits and the input only needs its in-use length — spill
                // the cold capacity to host and retry the grow.
                self.gov.reclaim_retries += 1;
                let mut freed = 0u64;
                self.output.clear();
                freed += self.output.shrink_to(1);
                freed += self.input.shrink_to(0);
                self.charge_spill(dev, freed)?;
                if dev
                    .ensure_capacity(self.intermediate.as_mut().expect("checked above"), need)
                    .is_ok()
                {
                    return Ok(need);
                }
                // Chunk tier: grant what fits, holding half the free bytes in
                // reserve so the output frontier can still be committed.
                let buf = self.intermediate.as_mut().expect("checked above");
                let free_elems = dev.pool().free_bytes() as usize / std::mem::size_of::<V>();
                let granted = (buf.capacity() + free_elems / 2).max(governor::MIN_CHUNK);
                dev.ensure_capacity(buf, granted)?;
                Ok(granted)
            }
        }
    }

    /// Store the post-filter output frontier, growing the output buffer per
    /// the scheme, and swap it to become the next input. With a host link
    /// attached, an OOM on the grow spills the intermediate (dead between
    /// advances) and the input's slack capacity before retrying; a second
    /// failure is hard-infeasible and propagates typed.
    pub fn commit_output(&mut self, dev: &mut Device, frontier: &[V]) -> Result<()> {
        if let Err(e) = dev.ensure_capacity(&mut self.output, frontier.len()) {
            if !self.can_spill(&e) {
                return Err(e);
            }
            self.gov.reclaim_retries += 1;
            let mut freed = 0u64;
            if let Some(buf) = &mut self.intermediate {
                buf.clear();
                freed += buf.shrink_to(1);
            }
            freed += self.input.shrink_to(0);
            self.charge_spill(dev, freed)?;
            dev.ensure_capacity(&mut self.output, frontier.len())?;
        }
        self.output.clear();
        self.output.extend_from_slice(frontier);
        std::mem::swap(&mut self.input, &mut self.output);
        // superstep barrier: bound the host footprint the arena carries over
        self.arena.trim(vgpu::arena::ARENA_RETAIN);
        Ok(())
    }

    /// Record that an unfused advance produced `len` intermediate elements.
    /// An under-prepared buffer *grows* — a counted backstop reallocation
    /// that can fail with a typed `OutOfMemory` — instead of silently
    /// truncating the frontier, which was a wrong-answer bug in release
    /// builds. The resize is length-only: the residency model never reads
    /// the intermediate's contents, so steady-state supersteps must not
    /// re-zero `len` elements every iteration (they used to `clear()` first,
    /// which made `resize` rewrite the whole buffer each superstep).
    pub fn record_intermediate(&mut self, dev: &mut Device, len: usize) -> Result<()> {
        if let Some(buf) = &mut self.intermediate {
            if len > buf.capacity() {
                dev.ensure_capacity(buf, len)?;
            }
            buf.resize_within_capacity(len);
        }
        Ok(())
    }

    /// Is `e` an OOM these buffers may answer by spilling to host?
    fn can_spill(&self, e: &VgpuError) -> bool {
        self.host_link.is_some() && matches!(e, VgpuError::OutOfMemory { .. })
    }

    /// Charge a host spill of `freed` bytes over the staged link (D2H
    /// occupancy plus latency on the compute stream, occupancy counted as
    /// communication time) and record it in the governor log.
    fn charge_spill(&mut self, dev: &mut Device, freed: u64) -> Result<()> {
        if freed == 0 {
            return Ok(());
        }
        // Injected spill-transfer faults fire here, at the k-th spill on
        // this device: the failed attempt still occupies the staged link
        // (charged below, exactly like a failed peer send), then the spill
        // fails typed. There is no in-place retry — recovery is owned by
        // the resilience layer's attempt restart.
        let faulted = dev.fault_injector().is_some_and(|inj| inj.on_spill(dev.id()));
        let link = self.host_link.expect("only a buffer with a host link spills");
        let occupancy = freed as f64 / (link.bandwidth_gb_s * 1e3);
        // one enqueue of occupancy+latency (splitting it would shift the
        // clock); the span's `h_us` carries the occupancy portion that lands
        // in the H counter
        let meta =
            vgpu::SpanMeta::new(vgpu::TraceKind::Spill, "host-spill").bytes(freed).h_us(occupancy);
        dev.charge_as(COMPUTE_STREAM, occupancy + link.latency_us, 0.0, meta)?;
        dev.counters.h_time_us += occupancy;
        if faulted {
            return Err(VgpuError::TransferFailed { from: dev.id(), to: dev.id() });
        }
        self.gov.spill_events += 1;
        self.gov.spilled_bytes += freed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu::HardwareProfile;

    fn dev() -> Device {
        Device::new(0, HardwareProfile::k40())
    }

    #[test]
    fn max_scheme_preallocates_edge_sized_buffers() {
        let mut d = dev();
        let bufs = FrontierBufs::<u32>::new(&mut d, AllocScheme::Max, 100, 5000).unwrap();
        assert_eq!(bufs.intermediate.as_ref().unwrap().capacity(), 5000);
        // "a size |E| array for advance" — worst-case sizing applies to the
        // frontier buffers too, which is what makes Max memory-hungry
        assert_eq!(bufs.input.capacity(), 5000);
    }

    #[test]
    fn fixed_scheme_scales_with_vertices() {
        let mut d = dev();
        let bufs =
            FrontierBufs::<u32>::new(&mut d, AllocScheme::Fixed { sizing_factor: 2.5 }, 100, 5000)
                .unwrap();
        assert_eq!(bufs.intermediate.as_ref().unwrap().capacity(), 250);
    }

    #[test]
    fn fusion_has_no_intermediate() {
        let mut d = dev();
        let bufs = FrontierBufs::<u32>::new(
            &mut d,
            AllocScheme::PreallocFusion { sizing_factor: 2.0 },
            100,
            5000,
        )
        .unwrap();
        assert!(bufs.intermediate.is_none());
        assert!(AllocScheme::PreallocFusion { sizing_factor: 2.0 }.fused());
    }

    #[test]
    fn just_enough_grows_on_demand_only() {
        let mut d = dev();
        let mut bufs =
            FrontierBufs::<u32>::new(&mut d, AllocScheme::JustEnough, 100, 5000).unwrap();
        let base = d.pool().live();
        assert_eq!(bufs.prepare_intermediate_budget(&mut d, 640).unwrap(), 640);
        assert_eq!(d.pool().live() - base, (640 - 1) * 4);
        assert!(d.pool().reallocs() >= 1);
    }

    #[test]
    fn peak_ordering_just_enough_below_fixed_below_max() {
        let peak = |scheme| {
            let mut d = dev();
            let mut bufs = FrontierBufs::<u32>::new(&mut d, scheme, 1000, 50_000).unwrap();
            bufs.prepare_intermediate_budget(&mut d, 300).unwrap();
            bufs.commit_output(&mut d, &[1, 2, 3]).unwrap();
            d.pool().peak()
        };
        let je = peak(AllocScheme::JustEnough);
        let fx = peak(AllocScheme::Fixed { sizing_factor: 3.0 });
        let mx = peak(AllocScheme::Max);
        let pf = peak(AllocScheme::PreallocFusion { sizing_factor: 3.0 });
        assert!(je < fx, "just-enough {je} < fixed {fx}");
        assert!(fx < mx, "fixed {fx} < max {mx}");
        assert!(pf < fx, "fusion {pf} saves the intermediate vs fixed {fx}");
    }

    #[test]
    fn commit_swaps_output_into_input() {
        let mut d = dev();
        let mut bufs = FrontierBufs::<u32>::new(&mut d, AllocScheme::JustEnough, 10, 100).unwrap();
        bufs.commit_output(&mut d, &[7, 8]).unwrap();
        assert_eq!(bufs.input.as_slice(), &[7, 8]);
        bufs.commit_output(&mut d, &[9]).unwrap();
        assert_eq!(bufs.input.as_slice(), &[9]);
    }

    #[test]
    fn record_intermediate_grows_instead_of_truncating() {
        let mut d = dev();
        let mut bufs =
            FrontierBufs::<u32>::new(&mut d, AllocScheme::JustEnough, 100, 5000).unwrap();
        // prepare_intermediate_budget was never called: recording must grow the
        // buffer (a counted backstop realloc), never truncate the frontier
        bufs.record_intermediate(&mut d, 640).unwrap();
        assert_eq!(bufs.intermediate.as_ref().unwrap().len(), 640);
        assert!(d.pool().reallocs() >= 1);
    }

    #[test]
    fn record_intermediate_reuses_capacity_across_supersteps() {
        let mut d = dev();
        let mut bufs =
            FrontierBufs::<u32>::new(&mut d, AllocScheme::JustEnough, 100, 5000).unwrap();
        bufs.record_intermediate(&mut d, 640).unwrap();
        let (allocs, reallocs) = (d.pool().allocs(), d.pool().reallocs());
        // poison the contents: a steady-state re-record must not rewrite them
        bufs.intermediate.as_mut().unwrap().as_mut_slice().fill(0xDEAD_BEEF);
        for _ in 0..100 {
            bufs.record_intermediate(&mut d, 640).unwrap();
        }
        assert_eq!(d.pool().allocs(), allocs, "steady state allocates nothing");
        assert_eq!(d.pool().reallocs(), reallocs, "steady state never re-grows");
        assert!(
            bufs.intermediate.as_ref().unwrap().as_slice().iter().all(|&x| x == 0xDEAD_BEEF),
            "same-length re-records are length-only (no clear+refill churn)"
        );
        // shrinking then growing back within capacity also stays quiet
        bufs.record_intermediate(&mut d, 10).unwrap();
        bufs.record_intermediate(&mut d, 640).unwrap();
        assert_eq!(d.pool().reallocs(), reallocs);
    }

    #[test]
    fn record_intermediate_oom_is_typed_not_truncated() {
        let mut d = Device::new(0, HardwareProfile::k40().with_capacity(2_000));
        let mut bufs = FrontierBufs::<u32>::new(&mut d, AllocScheme::JustEnough, 10, 100).unwrap();
        let err = bufs.record_intermediate(&mut d, 10_000).unwrap_err();
        assert!(matches!(err, VgpuError::OutOfMemory { .. }));
        // the buffer stays usable at its old capacity
        bufs.record_intermediate(&mut d, 1).unwrap();
    }

    #[test]
    fn pressure_spills_cold_capacity_and_grants_a_chunk_budget() {
        let mut d = Device::new(0, HardwareProfile::k40().with_capacity(4_000));
        let mut bufs = FrontierBufs::<u32>::new(&mut d, AllocScheme::JustEnough, 10, 100)
            .unwrap()
            .with_host_link(Link { bandwidth_gb_s: 16.0, latency_us: 25.0 });
        // fatten the output buffer, then swap a tiny frontier in so the fat
        // capacity ends up cold on the output side
        let fat: Vec<u32> = (0..500).collect();
        bufs.commit_output(&mut d, &fat).unwrap();
        bufs.commit_output(&mut d, &[1, 2]).unwrap();
        // 2000 intermediate slots (8000 B) cannot fit a 4000 B pool: the
        // governor spills the cold 499 slots and grants a partial budget
        let t0 = d.now();
        let granted = bufs.prepare_intermediate_budget(&mut d, 2000).unwrap();
        assert!(granted < 2000, "grant degrades to a chunk budget, got {granted}");
        assert!(granted >= 1);
        let gov = bufs.governor();
        assert_eq!(gov.reclaim_retries, 1);
        assert_eq!(gov.spill_events, 1);
        assert_eq!(gov.spilled_bytes, 499 * 4);
        assert!(d.now() > t0, "the spill transfer was charged to the clock");
        // with nowhere to spill the same request is a plain OOM
        let mut d2 = Device::new(0, HardwareProfile::k40().with_capacity(4_000));
        let mut plain =
            FrontierBufs::<u32>::new(&mut d2, AllocScheme::JustEnough, 10, 100).unwrap();
        plain.commit_output(&mut d2, &fat).unwrap();
        plain.commit_output(&mut d2, &[1, 2]).unwrap();
        assert!(plain.prepare_intermediate_budget(&mut d2, 2000).is_err());
    }

    #[test]
    fn commit_output_spills_the_intermediate_under_pressure() {
        let mut d = Device::new(0, HardwareProfile::k40().with_capacity(4_000));
        let mut bufs = FrontierBufs::<u32>::new(&mut d, AllocScheme::JustEnough, 10, 100)
            .unwrap()
            .with_host_link(Link { bandwidth_gb_s: 16.0, latency_us: 25.0 });
        bufs.prepare_intermediate_budget(&mut d, 800).unwrap(); // 3200 B resident
        let frontier: Vec<u32> = (0..400).collect(); // needs 1600 B more
        bufs.commit_output(&mut d, &frontier).unwrap();
        assert_eq!(bufs.input.as_slice(), &frontier[..]);
        assert!(bufs.governor().spilled_bytes > 0);
        assert_eq!(bufs.governor().reclaim_retries, 1);
    }

    #[test]
    fn an_absurd_sizing_factor_is_a_typed_oom_or_no_preallocation() {
        for sizing_factor in [f64::INFINITY, 1e30, 1e12] {
            for scheme in [
                AllocScheme::Fixed { sizing_factor },
                AllocScheme::PreallocFusion { sizing_factor },
            ] {
                let err = FrontierBufs::<u32>::new(&mut dev(), scheme, 100, 5000).unwrap_err();
                assert!(matches!(err, VgpuError::OutOfMemory { .. }), "{scheme:?}: {err}");
            }
        }
        for sizing_factor in [f64::NAN, -1.0] {
            let scheme = AllocScheme::Fixed { sizing_factor };
            let bufs = FrontierBufs::<u32>::new(&mut dev(), scheme, 100, 5000).unwrap();
            assert_eq!(bufs.input.capacity(), 1, "{scheme:?} preallocates nothing");
        }
    }

    #[test]
    fn max_scheme_can_oom_where_just_enough_fits() {
        let small = HardwareProfile::k40().with_capacity(10_000);
        let mut d = Device::new(0, small);
        // 3000 edges × 4 B = 12 KB intermediate alone exceeds the 10 KB pool
        assert!(FrontierBufs::<u32>::new(&mut d, AllocScheme::Max, 100, 3000).is_err());
        let mut d = Device::new(0, HardwareProfile::k40().with_capacity(10_000));
        assert!(FrontierBufs::<u32>::new(&mut d, AllocScheme::JustEnough, 100, 3000).is_ok());
    }
}
