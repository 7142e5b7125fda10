//! A node: a set of devices plus the interconnect.

use std::sync::Arc;

use crate::counters::BspCounters;
use crate::device::Device;
use crate::error::{Result, VgpuError};
use crate::fault::{FaultInjector, FaultPlan};
use crate::interconnect::Interconnect;
use crate::profile::HardwareProfile;

/// A single node with `n` (possibly heterogeneous) devices and a fabric.
///
/// The devices are plain values: the framework moves each one into its
/// dedicated control thread for the duration of a traversal and moves them
/// back afterwards, so no locking is needed on the hot path.
#[derive(Debug)]
pub struct SimSystem {
    /// The devices, indexed by device id.
    pub devices: Vec<Device>,
    /// The shared inter-device fabric.
    pub interconnect: Arc<Interconnect>,
    /// The attached fault plan and the shared injector compiled from it.
    fault: Option<(FaultPlan, Arc<FaultInjector>)>,
}

impl SimSystem {
    /// Build a system from explicit per-device profiles.
    pub fn new(profiles: Vec<HardwareProfile>, interconnect: Interconnect) -> Result<Self> {
        if interconnect.n_devices() != profiles.len() {
            return Err(VgpuError::BadDevice {
                device: interconnect.n_devices(),
                have: profiles.len(),
            });
        }
        Ok(SimSystem {
            devices: profiles.into_iter().enumerate().map(|(i, p)| Device::new(i, p)).collect(),
            interconnect: Arc::new(interconnect),
            fault: None,
        })
    }

    /// A homogeneous node of `n` devices with the paper's PCIe topology
    /// (peer groups of 4).
    pub fn homogeneous(n: usize, profile: HardwareProfile) -> Self {
        Self::new(vec![profile; n], Interconnect::pcie3(n, 4))
            .expect("matching sizes by construction")
    }

    /// Attach a fault plan: builds the shared [`FaultInjector`] and wires it
    /// into every device. Call before enacting; an empty plan is free (the
    /// injector's probe maps are empty, so no launch behaviour changes).
    pub fn attach_fault_plan(&mut self, plan: &FaultPlan) {
        let inj = Arc::new(FaultInjector::new(plan, self.devices.len()));
        for d in &mut self.devices {
            d.set_fault_injector(Some(Arc::clone(&inj)));
        }
        self.fault = Some((plan.clone(), inj));
    }

    /// The attached fault injector, if any (shared with mailboxes by the
    /// enactors so transfers consult the same plan).
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.fault.as_ref().map(|(_, inj)| Arc::clone(inj))
    }

    /// A fresh system of the devices `keep` names, in that order: their
    /// profiles, the fabric restricted to them and the plan remapped onto
    /// them ([`FaultPlan::remap`]), every clock, pool and counter at zero.
    pub fn survivors(&self, keep: &[usize]) -> SimSystem {
        let profiles = keep.iter().map(|&d| self.devices[d].profile().clone()).collect();
        let mut system = SimSystem::new(profiles, self.interconnect.restricted(keep))
            .expect("one profile per kept device");
        if let Some((plan, _)) = &self.fault {
            system.attach_fault_plan(&plan.remap(keep));
        }
        system
    }

    /// Number of devices.
    pub fn n_devices(&self) -> usize {
        self.devices.len()
    }

    /// The latest simulated clock over all devices: the traversal makespan.
    pub fn makespan_us(&self) -> f64 {
        self.devices.iter().map(Device::now).fold(0.0, f64::max)
    }

    /// Aggregate BSP counters over all devices.
    pub fn total_counters(&self) -> BspCounters {
        let mut total = BspCounters::default();
        for d in &self.devices {
            total.merge(&d.counters);
        }
        total
    }

    /// Peak memory use over devices (bytes) — the per-GPU footprint Fig. 3
    /// reports is the max, since the graph must *fit* on every device.
    pub fn peak_memory_per_device(&self) -> u64 {
        self.devices.iter().map(|d| d.pool().peak()).max().unwrap_or(0)
    }

    /// Sum of peak memory over devices (bytes) — total footprint.
    pub fn total_peak_memory(&self) -> u64 {
        self.devices.iter().map(|d| d.pool().peak()).sum()
    }

    /// Reset all device clocks and counters (memory persists).
    pub fn reset_clocks(&mut self) {
        for d in &mut self.devices {
            d.reset_clock();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{KernelKind, COMPUTE_STREAM};

    #[test]
    fn homogeneous_system_has_n_devices() {
        let sys = SimSystem::homogeneous(6, HardwareProfile::k40());
        assert_eq!(sys.n_devices(), 6);
        assert_eq!(sys.devices[5].id(), 5);
    }

    #[test]
    fn mismatched_interconnect_is_rejected() {
        let err =
            SimSystem::new(vec![HardwareProfile::k40(); 2], Interconnect::pcie3(3, 4)).unwrap_err();
        assert!(matches!(err, VgpuError::BadDevice { .. }));
    }

    #[test]
    fn makespan_is_max_over_devices() {
        let mut sys = SimSystem::homogeneous(2, HardwareProfile::k40());
        sys.devices[0].kernel(COMPUTE_STREAM, KernelKind::Advance, || ((), 30_000)).unwrap();
        sys.devices[1].kernel(COMPUTE_STREAM, KernelKind::Advance, || ((), 3_000)).unwrap();
        assert!((sys.makespan_us() - 13.0).abs() < 1e-9);
    }

    #[test]
    fn heterogeneous_profiles_are_allowed() {
        let sys = SimSystem::new(
            vec![HardwareProfile::k40(), HardwareProfile::xeon_e5()],
            Interconnect::pcie3(2, 4),
        )
        .unwrap();
        assert_eq!(sys.devices[1].profile().name, "Xeon E5-2690 v2");
    }

    #[test]
    fn survivors_start_fresh_with_the_plan_remapped() {
        use crate::fault::KernelFault;
        let mut sys = SimSystem::homogeneous(4, HardwareProfile::k40().with_capacity(1 << 20));
        sys.attach_fault_plan(&FaultPlan::new().kernel_fail(1, 0).kernel_fail(3, 0));
        sys.devices[0].kernel(COMPUTE_STREAM, KernelKind::Advance, || ((), 10)).unwrap();
        let inj = sys.fault_injector().unwrap();
        assert_eq!(inj.on_kernel(3), Some(KernelFault::Fail));

        let rest = sys.survivors(&[0, 2, 3]);
        assert_eq!(rest.n_devices(), 3);
        assert_eq!(rest.devices[2].id(), 2, "runtime ids are renumbered");
        assert_eq!(rest.devices[1].pool().capacity(), 1 << 20, "profiles are kept");
        assert_eq!(rest.makespan_us(), 0.0, "clocks start fresh");
        let inj = rest.fault_injector().unwrap();
        assert_eq!(inj.on_kernel(1), None, "device 1's event died with it");
        assert_eq!(inj.on_kernel(2), Some(KernelFault::Fail), "device 3 is now 2, counters reset");
        assert!(SimSystem::homogeneous(2, HardwareProfile::k40())
            .survivors(&[1])
            .fault_injector()
            .is_none());
    }

    #[test]
    fn counters_aggregate() {
        let mut sys = SimSystem::homogeneous(3, HardwareProfile::k40());
        for d in &mut sys.devices {
            d.kernel(COMPUTE_STREAM, KernelKind::Advance, || ((), 10)).unwrap();
        }
        assert_eq!(sys.total_counters().w_items, 30);
        assert_eq!(sys.total_counters().kernel_launches, 3);
    }
}
