//! Deterministic fault injection for the virtual-GPU substrate.
//!
//! A [`FaultPlan`] is a declarative list of fault events keyed by *logical*
//! progress indices — the k-th kernel launch on a device, the k-th transfer
//! on a link — never by wall-clock or thread scheduling. The same plan on
//! the same workload therefore fires at exactly the same simulated points in
//! every run, which is what lets the resilience tests assert bit-identical
//! reports (including recovery events) across repetitions and across
//! `kernel_threads` settings.
//!
//! A [`FaultInjector`] is the runtime half: it owns the per-device launch
//! counters and per-link transfer counters and is consulted by
//! [`crate::Device::kernel`] and [`crate::Mailbox::send`]. Faults fire
//! *before* the kernel body runs or the payload is posted, so a failed
//! launch has no side effects on device state — retrying it is safe for
//! any primitive whose kernels are idempotent at launch granularity.
//!
//! Fault taxonomy:
//!
//! * **Kernel failure** ([`KernelFault::Fail`]) — the launch errors after
//!   paying its launch overhead; transient.
//! * **Transient OOM** ([`KernelFault::TransientOom`]) — the launch reports
//!   an allocation spike; transient.
//! * **Straggler delay** ([`KernelFault::Straggle`]) — the launch succeeds
//!   but costs `delay_us` extra *simulated* microseconds, exactly as a slow
//!   clock or a contended link would; charged in simulated time so the
//!   metering-invariance contract (`kernel_threads` never changes simulated
//!   time) is preserved.
//! * **Device loss** ([`KernelFault::DeviceLoss`]) — the device is marked
//!   permanently lost; this and every later launch or send on it fails with
//!   [`crate::VgpuError::DeviceLost`].
//! * **Transfer failure / timeout** ([`TransferFault`]) — a peer-to-peer
//!   push fails; transient.
//! * **Pressure faults** ([`PressureSite`]) — the memory-pressure machinery
//!   itself fails: the k-th host spill on a device aborts mid-copy, the
//!   k-th chunked-advance pass fails at launch, or the k-th arena-leasing
//!   advance hits an allocation spike. These compose governor downgrade
//!   chains with recovery, so the two subsystems are tested together
//!   instead of in isolation.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// What goes wrong at a kernel-launch fault site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelFault {
    /// The launch fails ([`crate::VgpuError::KernelFailed`]); transient.
    Fail,
    /// The launch reports a transient allocation spike
    /// ([`crate::VgpuError::OutOfMemory`]).
    TransientOom,
    /// The launch succeeds but costs `delay_us` extra simulated time.
    Straggle {
        /// Extra simulated microseconds charged to the launch.
        delay_us: f64,
    },
    /// The device is permanently lost from this launch on.
    DeviceLoss,
}

/// What goes wrong at a transfer fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferFault {
    /// The push fails ([`crate::VgpuError::TransferFailed`]); transient.
    Fail,
    /// The push times out ([`crate::VgpuError::Timeout`]); transient.
    Timeout,
}

/// Which memory-pressure mechanism a [`FaultEvent::Pressure`] targets.
/// Sites are counted per device in the order the governor reaches them —
/// logical progress indices, like launches and transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PressureSite {
    /// The k-th host-spill transfer on the device fails mid-copy
    /// (surfaces as a transient [`crate::VgpuError::TransferFailed`] on the
    /// device's host link).
    Spill,
    /// The k-th chunked-advance pass on the device fails at launch
    /// (surfaces as a transient [`crate::VgpuError::KernelFailed`]).
    ChunkPass,
    /// The k-th arena-leasing advance on the device hits an allocation
    /// spike (surfaces as a transient [`crate::VgpuError::OutOfMemory`]).
    ArenaLease,
}

/// One planned fault, keyed by its deterministic site index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Fires at the `launch`-th kernel launch (0-based) on `device`.
    Kernel {
        /// Target device id.
        device: usize,
        /// 0-based kernel-launch index on that device.
        launch: u64,
        /// What happens.
        fault: KernelFault,
    },
    /// Fires at the `index`-th send (0-based) on the `from → to` link.
    Transfer {
        /// Sending device id.
        from: usize,
        /// Receiving device id.
        to: usize,
        /// 0-based transfer index on that link.
        index: u64,
        /// What happens.
        fault: TransferFault,
    },
    /// Fires at the `index`-th time `device`'s pressure machinery reaches
    /// `site` (0-based, counted per device per site kind).
    Pressure {
        /// Target device id.
        device: usize,
        /// 0-based site index on that device (per site kind).
        index: u64,
        /// Which pressure mechanism fails.
        site: PressureSite,
    },
}

impl FaultEvent {
    /// Device ids this event references.
    fn devices(&self) -> (usize, Option<usize>) {
        match *self {
            FaultEvent::Kernel { device, .. } => (device, None),
            FaultEvent::Transfer { from, to, .. } => (from, Some(to)),
            FaultEvent::Pressure { device, .. } => (device, None),
        }
    }
}

impl fmt::Display for FaultEvent {
    /// The exact textual form [`FaultPlan::parse`] reads back.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultEvent::Kernel { device, launch, fault } => match fault {
                KernelFault::Fail => write!(f, "kfail:{device}@{launch}"),
                KernelFault::TransientOom => write!(f, "oom:{device}@{launch}"),
                KernelFault::Straggle { delay_us } => {
                    write!(f, "slow:{device}@{launch}:{delay_us}")
                }
                KernelFault::DeviceLoss => write!(f, "lose:{device}@{launch}"),
            },
            FaultEvent::Transfer { from, to, index, fault } => match fault {
                TransferFault::Fail => write!(f, "tfail:{from}>{to}@{index}"),
                TransferFault::Timeout => write!(f, "ttimeout:{from}>{to}@{index}"),
            },
            FaultEvent::Pressure { device, index, site } => match site {
                PressureSite::Spill => write!(f, "spill:{device}@{index}"),
                PressureSite::ChunkPass => write!(f, "pass:{device}@{index}"),
                PressureSite::ArenaLease => write!(f, "lease:{device}@{index}"),
            },
        }
    }
}

impl fmt::Display for FaultPlan {
    /// The exact inverse of [`FaultPlan::parse`]: a comma-separated event
    /// list in plan order, so any chaos-soak failure prints a spec that
    /// replays verbatim via `--fault-plan`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{ev}")?;
        }
        Ok(())
    }
}

/// A deterministic, declarative fault schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The planned events (order is irrelevant; sites are unique keys —
    /// a later event at an already-planned site replaces the earlier one).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// True if the plan contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The largest device id any event names (`None` for an empty plan).
    pub fn max_device(&self) -> Option<usize> {
        self.events
            .iter()
            .map(|ev| match ev.devices() {
                (a, Some(b)) => a.max(b),
                (a, None) => a,
            })
            .max()
    }

    /// Plan a kernel failure at `device`'s `launch`-th kernel launch.
    pub fn kernel_fail(mut self, device: usize, launch: u64) -> Self {
        self.events.push(FaultEvent::Kernel { device, launch, fault: KernelFault::Fail });
        self
    }

    /// Plan a transient OOM spike at `device`'s `launch`-th kernel launch.
    pub fn transient_oom(mut self, device: usize, launch: u64) -> Self {
        self.events.push(FaultEvent::Kernel { device, launch, fault: KernelFault::TransientOom });
        self
    }

    /// Plan a straggler delay of `delay_us` simulated microseconds at
    /// `device`'s `launch`-th kernel launch.
    pub fn straggle(mut self, device: usize, launch: u64, delay_us: f64) -> Self {
        self.events.push(FaultEvent::Kernel {
            device,
            launch,
            fault: KernelFault::Straggle { delay_us },
        });
        self
    }

    /// Plan permanent loss of `device` at its `launch`-th kernel launch.
    pub fn device_loss(mut self, device: usize, launch: u64) -> Self {
        self.events.push(FaultEvent::Kernel { device, launch, fault: KernelFault::DeviceLoss });
        self
    }

    /// Plan a transfer failure at the `index`-th send on `from → to`.
    pub fn transfer_fail(mut self, from: usize, to: usize, index: u64) -> Self {
        self.events.push(FaultEvent::Transfer { from, to, index, fault: TransferFault::Fail });
        self
    }

    /// Plan a transfer timeout at the `index`-th send on `from → to`.
    pub fn transfer_timeout(mut self, from: usize, to: usize, index: u64) -> Self {
        self.events.push(FaultEvent::Transfer { from, to, index, fault: TransferFault::Timeout });
        self
    }

    /// Plan a failure of `device`'s `index`-th host-spill transfer.
    pub fn spill_fail(mut self, device: usize, index: u64) -> Self {
        self.events.push(FaultEvent::Pressure { device, index, site: PressureSite::Spill });
        self
    }

    /// Plan a launch failure of `device`'s `index`-th chunked-advance pass.
    pub fn chunk_pass_fail(mut self, device: usize, index: u64) -> Self {
        self.events.push(FaultEvent::Pressure { device, index, site: PressureSite::ChunkPass });
        self
    }

    /// Plan an allocation spike on `device`'s `index`-th arena-leasing
    /// advance.
    pub fn arena_lease_oom(mut self, device: usize, index: u64) -> Self {
        self.events.push(FaultEvent::Pressure { device, index, site: PressureSite::ArenaLease });
        self
    }

    /// A seed-driven random plan of `n_faults` *transient* faults (kernel
    /// failures, OOM spikes, straggler delays, transfer failures/timeouts)
    /// spread over `n_devices` devices with site indices below `horizon`.
    /// Fully determined by `seed` — the generator is a fixed splitmix64
    /// stream, so the same arguments always produce the same plan.
    pub fn random(seed: u64, n_devices: usize, n_faults: usize, horizon: u64) -> Self {
        Self::random_of(5, seed, n_devices, n_faults, horizon)
    }

    /// Like [`FaultPlan::random`] but the draw also covers the pressure
    /// sites (spill transfers, chunked-advance passes, arena leases), so a
    /// seeded chaos sweep exercises governor machinery and recovery
    /// together. Still transient-only. A distinct function rather than a
    /// flag so existing `random:` seed banks keep their exact plans.
    pub fn random_pressure_aware(
        seed: u64,
        n_devices: usize,
        n_faults: usize,
        horizon: u64,
    ) -> Self {
        Self::random_of(8, seed, n_devices, n_faults, horizon)
    }

    /// The draw behind both random plans: each fault's class is one of the
    /// first `classes` arms below (5: the transient classes, 8: plus the
    /// pressure sites).
    fn random_of(classes: u64, seed: u64, n_devices: usize, n_faults: usize, horizon: u64) -> Self {
        assert!(n_devices > 0 && horizon > 0, "need at least one device and a nonzero horizon");
        let mut s = seed ^ 0x51ed_270b_d4d2_5f84;
        let mut next = move || splitmix64(&mut s);
        let mut plan = FaultPlan::new();
        for _ in 0..n_faults {
            let device = (next() % n_devices as u64) as usize;
            let site = next() % horizon;
            match next() % classes {
                0 => plan = plan.kernel_fail(device, site),
                1 => plan = plan.transient_oom(device, site),
                2 => {
                    let delay_us = 10.0 + (next() % 90) as f64;
                    plan = plan.straggle(device, site, delay_us);
                }
                3 if n_devices > 1 => {
                    let to = (device + 1 + (next() % (n_devices as u64 - 1)) as usize) % n_devices;
                    plan = plan.transfer_fail(device, to, site);
                }
                4 if n_devices > 1 => {
                    let to = (device + 1 + (next() % (n_devices as u64 - 1)) as usize) % n_devices;
                    plan = plan.transfer_timeout(device, to, site);
                }
                // Pressure sites are rare in a run (a handful per enact at
                // most), so key them to a compressed horizon where they
                // have a realistic chance of firing.
                5 => plan = plan.spill_fail(device, site % 4),
                6 => plan = plan.chunk_pass_fail(device, site % 8),
                7 => plan = plan.arena_lease_oom(device, site % 8),
                _ => plan = plan.kernel_fail(device, site),
            }
        }
        plan
    }

    /// Parse a textual plan. Grammar (comma-separated events):
    ///
    /// ```text
    /// kfail:D@N        kernel failure on device D, launch N
    /// oom:D@N          transient OOM on device D, launch N
    /// slow:D@N:US      straggler delay of US µs on device D, launch N
    /// lose:D@N         permanent loss of device D at launch N
    /// tfail:S>D@N      transfer failure on link S→D, transfer N
    /// ttimeout:S>D@N   transfer timeout on link S→D, transfer N
    /// spill:D@N        host-spill transfer N on device D fails
    /// pass:D@N         chunked-advance pass N on device D fails
    /// lease:D@N        arena-leasing advance N on device D OOMs
    /// ```
    ///
    /// [`FaultPlan`]'s `Display` impl is the exact inverse: for any plan
    /// `p`, `FaultPlan::parse(&p.to_string())` reproduces `p`.
    pub fn parse(spec: &str) -> std::result::Result<Self, String> {
        let mut plan = FaultPlan::new();
        for raw in spec.split(',') {
            let ev = raw.trim();
            if ev.is_empty() {
                continue;
            }
            let (kind, rest) =
                ev.split_once(':').ok_or_else(|| format!("fault event `{ev}`: missing `:`"))?;
            let site = |s: &str| -> std::result::Result<(usize, u64), String> {
                let (d, n) =
                    s.split_once('@').ok_or_else(|| format!("fault event `{ev}`: missing `@`"))?;
                Ok((
                    d.parse().map_err(|_| format!("fault event `{ev}`: bad device `{d}`"))?,
                    n.parse().map_err(|_| format!("fault event `{ev}`: bad index `{n}`"))?,
                ))
            };
            let link = |s: &str| -> std::result::Result<(usize, usize, u64), String> {
                let (from, rest) =
                    s.split_once('>').ok_or_else(|| format!("fault event `{ev}`: missing `>`"))?;
                let (to, n) = site(rest)?;
                Ok((
                    from.parse().map_err(|_| format!("fault event `{ev}`: bad device `{from}`"))?,
                    to,
                    n,
                ))
            };
            plan = match kind {
                "kfail" => {
                    let (d, n) = site(rest)?;
                    plan.kernel_fail(d, n)
                }
                "oom" => {
                    let (d, n) = site(rest)?;
                    plan.transient_oom(d, n)
                }
                "slow" => {
                    let (head, us) = rest
                        .rsplit_once(':')
                        .ok_or_else(|| format!("fault event `{ev}`: missing delay"))?;
                    let (d, n) = site(head)?;
                    let delay: f64 =
                        us.parse().map_err(|_| format!("fault event `{ev}`: bad delay `{us}`"))?;
                    plan.straggle(d, n, delay)
                }
                "lose" => {
                    let (d, n) = site(rest)?;
                    plan.device_loss(d, n)
                }
                "tfail" => {
                    let (f, t, n) = link(rest)?;
                    plan.transfer_fail(f, t, n)
                }
                "ttimeout" => {
                    let (f, t, n) = link(rest)?;
                    plan.transfer_timeout(f, t, n)
                }
                "spill" => {
                    let (d, n) = site(rest)?;
                    plan.spill_fail(d, n)
                }
                "pass" => {
                    let (d, n) = site(rest)?;
                    plan.chunk_pass_fail(d, n)
                }
                "lease" => {
                    let (d, n) = site(rest)?;
                    plan.arena_lease_oom(d, n)
                }
                other => return Err(format!("unknown fault kind `{other}` in `{ev}`")),
            };
        }
        Ok(plan)
    }

    /// Remap the plan onto a degraded system. `runtime_to_original[r]` is
    /// the original id of the device running as runtime id `r` after a
    /// failover; events that reference a device no longer alive are
    /// dropped (its planned faults died with it).
    pub fn remap(&self, runtime_to_original: &[usize]) -> FaultPlan {
        let original_to_runtime: HashMap<usize, usize> =
            runtime_to_original.iter().enumerate().map(|(r, &o)| (o, r)).collect();
        let events = self
            .events
            .iter()
            .filter_map(|ev| {
                let (a, b) = ev.devices();
                let ra = *original_to_runtime.get(&a)?;
                let rb = match b {
                    Some(b) => Some(*original_to_runtime.get(&b)?),
                    None => None,
                };
                Some(match *ev {
                    FaultEvent::Kernel { launch, fault, .. } => {
                        FaultEvent::Kernel { device: ra, launch, fault }
                    }
                    FaultEvent::Transfer { index, fault, .. } => FaultEvent::Transfer {
                        from: ra,
                        to: rb.expect("transfer events carry both endpoints"),
                        index,
                        fault,
                    },
                    FaultEvent::Pressure { index, site, .. } => {
                        FaultEvent::Pressure { device: ra, index, site }
                    }
                })
            })
            .collect();
        FaultPlan { events }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The runtime side of a plan: deterministic per-device launch counters,
/// per-link transfer counters and sticky lost flags.
#[derive(Debug)]
pub struct FaultInjector {
    n_devices: usize,
    kernel: HashMap<(usize, u64), KernelFault>,
    transfer: HashMap<(usize, usize, u64), TransferFault>,
    pressure: HashSet<(usize, u64, PressureSite)>,
    launches: Vec<AtomicU64>,
    transfers: Vec<AtomicU64>,
    spills: Vec<AtomicU64>,
    passes: Vec<AtomicU64>,
    leases: Vec<AtomicU64>,
    lost: Vec<AtomicBool>,
    fired: AtomicU64,
}

impl FaultInjector {
    /// Compile `plan` for a system of `n_devices` devices. Events that
    /// reference devices outside the system are ignored.
    pub fn new(plan: &FaultPlan, n_devices: usize) -> Self {
        let mut kernel = HashMap::new();
        let mut transfer = HashMap::new();
        let mut pressure = HashSet::new();
        for ev in &plan.events {
            match *ev {
                FaultEvent::Kernel { device, launch, fault } if device < n_devices => {
                    kernel.insert((device, launch), fault);
                }
                FaultEvent::Transfer { from, to, index, fault }
                    if from < n_devices && to < n_devices =>
                {
                    transfer.insert((from, to, index), fault);
                }
                FaultEvent::Pressure { device, index, site } if device < n_devices => {
                    pressure.insert((device, index, site));
                }
                _ => {}
            }
        }
        FaultInjector {
            n_devices,
            kernel,
            transfer,
            pressure,
            launches: (0..n_devices).map(|_| AtomicU64::new(0)).collect(),
            transfers: (0..n_devices * n_devices).map(|_| AtomicU64::new(0)).collect(),
            spills: (0..n_devices).map(|_| AtomicU64::new(0)).collect(),
            passes: (0..n_devices).map(|_| AtomicU64::new(0)).collect(),
            leases: (0..n_devices).map(|_| AtomicU64::new(0)).collect(),
            lost: (0..n_devices).map(|_| AtomicBool::new(false)).collect(),
            fired: AtomicU64::new(0),
        }
    }

    /// Number of devices this injector was compiled for.
    pub fn n_devices(&self) -> usize {
        self.n_devices
    }

    /// Consume `device`'s next launch index and return the fault planned at
    /// that site, if any. [`KernelFault::DeviceLoss`] also marks the device
    /// lost for all future operations.
    pub fn on_kernel(&self, device: usize) -> Option<KernelFault> {
        let idx = self.launches[device].fetch_add(1, Relaxed);
        let fault = self.kernel.get(&(device, idx)).copied()?;
        if fault == KernelFault::DeviceLoss {
            self.mark_lost(device);
        }
        self.fired.fetch_add(1, Relaxed);
        Some(fault)
    }

    /// Consume the `from → to` link's next transfer index and return the
    /// fault planned at that site, if any.
    pub fn on_transfer(&self, from: usize, to: usize) -> Option<TransferFault> {
        let idx = self.transfers[from * self.n_devices + to].fetch_add(1, Relaxed);
        let fault = self.transfer.get(&(from, to, idx)).copied()?;
        self.fired.fetch_add(1, Relaxed);
        Some(fault)
    }

    /// Consume `device`'s next `site` index and report whether a pressure
    /// fault was planned there.
    fn on_pressure(&self, counters: &[AtomicU64], device: usize, site: PressureSite) -> bool {
        let idx = counters[device].fetch_add(1, Relaxed);
        let hit = self.pressure.contains(&(device, idx, site));
        if hit {
            self.fired.fetch_add(1, Relaxed);
        }
        hit
    }

    /// Consume `device`'s next host-spill index; true if that spill is
    /// planned to fail.
    pub fn on_spill(&self, device: usize) -> bool {
        self.on_pressure(&self.spills, device, PressureSite::Spill)
    }

    /// Consume `device`'s next chunked-advance-pass index; true if that
    /// pass is planned to fail at launch.
    pub fn on_chunk_pass(&self, device: usize) -> bool {
        self.on_pressure(&self.passes, device, PressureSite::ChunkPass)
    }

    /// Consume `device`'s next arena-leasing-advance index; true if that
    /// launch is planned to hit an allocation spike.
    pub fn on_lease(&self, device: usize) -> bool {
        self.on_pressure(&self.leases, device, PressureSite::ArenaLease)
    }

    /// Has `device` been permanently lost?
    pub fn is_lost(&self, device: usize) -> bool {
        self.lost[device].load(Relaxed)
    }

    /// Mark `device` permanently lost (also done by an injected
    /// [`KernelFault::DeviceLoss`]).
    pub fn mark_lost(&self, device: usize) {
        self.lost[device].store(true, Relaxed);
    }

    /// Number of fault events that have fired so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_at_exact_launch_indices() {
        let plan = FaultPlan::new().kernel_fail(0, 2).straggle(1, 0, 40.0);
        let inj = FaultInjector::new(&plan, 2);
        assert_eq!(inj.on_kernel(0), None);
        assert_eq!(inj.on_kernel(0), None);
        assert_eq!(inj.on_kernel(0), Some(KernelFault::Fail));
        assert_eq!(inj.on_kernel(0), None);
        assert_eq!(inj.on_kernel(1), Some(KernelFault::Straggle { delay_us: 40.0 }));
        assert_eq!(inj.fired(), 2);
    }

    #[test]
    fn device_loss_is_sticky() {
        let plan = FaultPlan::new().device_loss(1, 1);
        let inj = FaultInjector::new(&plan, 2);
        assert!(!inj.is_lost(1));
        assert_eq!(inj.on_kernel(1), None);
        assert_eq!(inj.on_kernel(1), Some(KernelFault::DeviceLoss));
        assert!(inj.is_lost(1));
        assert!(!inj.is_lost(0));
    }

    #[test]
    fn transfer_faults_are_per_link() {
        let plan = FaultPlan::new().transfer_fail(0, 1, 1).transfer_timeout(1, 0, 0);
        let inj = FaultInjector::new(&plan, 2);
        assert_eq!(inj.on_transfer(0, 1), None);
        assert_eq!(inj.on_transfer(0, 1), Some(TransferFault::Fail));
        assert_eq!(inj.on_transfer(1, 0), Some(TransferFault::Timeout));
        assert_eq!(inj.on_transfer(1, 0), None);
    }

    #[test]
    fn max_device_reads_both_ends_of_a_link() {
        assert_eq!(FaultPlan::new().max_device(), None);
        assert_eq!(FaultPlan::new().kernel_fail(2, 0).transfer_fail(1, 5, 0).max_device(), Some(5));
        assert_eq!(FaultPlan::new().spill_fail(3, 0).transfer_fail(2, 0, 0).max_device(), Some(3));
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let a = FaultPlan::random(7, 4, 10, 100);
        let b = FaultPlan::random(7, 4, 10, 100);
        let c = FaultPlan::random(8, 4, 10, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.events.len(), 10);
        // random plans are transient-only: no device loss
        assert!(!a
            .events
            .iter()
            .any(|e| matches!(e, FaultEvent::Kernel { fault: KernelFault::DeviceLoss, .. })));
    }

    #[test]
    fn parse_round_trips_the_documented_grammar() {
        let plan = FaultPlan::parse(
            "kfail:0@5, oom:1@2, slow:2@7:35.5, lose:1@40, tfail:0>1@3, ttimeout:2>0@9",
        )
        .unwrap();
        assert_eq!(
            plan,
            FaultPlan::new()
                .kernel_fail(0, 5)
                .transient_oom(1, 2)
                .straggle(2, 7, 35.5)
                .device_loss(1, 40)
                .transfer_fail(0, 1, 3)
                .transfer_timeout(2, 0, 9)
        );
        assert!(FaultPlan::parse("explode:0@1").is_err());
        assert!(FaultPlan::parse("kfail:0").is_err());
        assert!(FaultPlan::parse("slow:0@1").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn remap_drops_dead_devices_and_renumbers() {
        let plan = FaultPlan::new()
            .kernel_fail(0, 5)
            .kernel_fail(2, 3)
            .transfer_fail(2, 1, 0)
            .transfer_fail(2, 0, 1)
            .device_loss(1, 7);
        // device 1 died; survivors 0 and 2 become runtime 0 and 1
        let remapped = plan.remap(&[0, 2]);
        assert_eq!(
            remapped,
            FaultPlan::new().kernel_fail(0, 5).kernel_fail(1, 3).transfer_fail(1, 0, 1)
        );
    }
}
