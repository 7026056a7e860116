//! The manager's view of the cluster at one management round.
//!
//! The observation deliberately carries only what a real management plane
//! can see — power states, capacities, commitments, and measured demand —
//! so policies cannot accidentally peek at simulator internals (e.g.
//! future demand traces).

use cluster::{HostId, ServiceClass, VmId};
use power::breakeven::LadderSummary;
use power::{PowerState, TransitionKind};
use simcore::SimTime;

/// What the manager sees about one host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostObservation {
    /// The host's id.
    pub id: HostId,
    /// Current power state.
    pub state: PowerState,
    /// In-flight power transition, if any.
    pub pending: Option<TransitionKind>,
    /// CPU capacity, cores.
    pub cpu_capacity: f64,
    /// Memory capacity, GB.
    pub mem_capacity: f64,
    /// Memory committed (placed VMs + inbound migration reservations), GB.
    pub mem_committed: f64,
    /// Measured CPU demand this round (including migration tax), cores.
    pub cpu_demand: f64,
    /// Whether the host currently hosts no VMs and has no inbound
    /// migrations (i.e. may be powered down).
    pub evacuated: bool,
    /// Cumulative power transitions that failed on this host — the error
    /// feed a real management plane gets from the BMC/IPMI path. The
    /// manager diffs it against the previous round to detect fresh
    /// failures.
    pub failed_transitions: u64,
    /// Summary of the host's power-state ladder (supported rungs with
    /// wake latency and break-even gap) — the datasheet-class facts a
    /// management plane knows about its fleet. Empty under profiles with
    /// no low-power rungs.
    pub ladder: LadderSummary,
}

impl Default for HostObservation {
    /// A zero-capacity placeholder (`Off`, id 0) — the pre-fill value of
    /// reusable observation buffers, which the simulator's observation
    /// fill completes before the manager sees them.
    fn default() -> Self {
        HostObservation {
            id: HostId(0),
            state: PowerState::Off,
            pending: None,
            cpu_capacity: 0.0,
            mem_capacity: 0.0,
            mem_committed: 0.0,
            cpu_demand: 0.0,
            evacuated: false,
            failed_transitions: 0,
            ladder: LadderSummary::default(),
        }
    }
}

impl HostObservation {
    /// Free memory after commitments, GB.
    pub fn mem_free(&self) -> f64 {
        (self.mem_capacity - self.mem_committed).max(0.0)
    }

    /// Measured utilization fraction (demand may exceed capacity under
    /// overload, so this can exceed 1.0).
    pub fn utilization(&self) -> f64 {
        if self.cpu_capacity > 0.0 {
            self.cpu_demand / self.cpu_capacity
        } else {
            0.0
        }
    }

    /// Whether the host is serving load (`On`).
    pub fn is_operational(&self) -> bool {
        self.state.is_operational()
    }

    /// Whether the host is `On` or on its way to `On`.
    pub fn is_arriving_or_on(&self) -> bool {
        matches!(
            self.state,
            PowerState::On | PowerState::Resuming | PowerState::Booting
        )
    }
}

/// What the manager sees about one VM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmObservation {
    /// The VM's id.
    pub id: VmId,
    /// The host the VM currently runs on (`None` only before initial
    /// placement).
    pub host: Option<HostId>,
    /// Measured CPU demand this round, cores.
    pub cpu_demand: f64,
    /// Configured CPU cap, cores.
    pub cpu_cap: f64,
    /// Memory footprint, GB.
    pub mem_gb: f64,
    /// Whether a live migration of this VM is in flight.
    pub migrating: bool,
    /// The VM's service class (the manager prefers disrupting batch VMs).
    pub service_class: ServiceClass,
}

impl Default for VmObservation {
    /// An unplaced, idle placeholder (id 0) — the pre-fill value of
    /// reusable observation buffers, which the simulator's observation
    /// fill completes before the manager sees them.
    fn default() -> Self {
        VmObservation {
            id: VmId(0),
            host: None,
            cpu_demand: 0.0,
            cpu_cap: 0.0,
            mem_gb: 0.0,
            migrating: false,
            service_class: ServiceClass::default(),
        }
    }
}

/// A full snapshot handed to [`crate::VirtManager::plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterObservation {
    /// The time of this management round.
    pub now: SimTime,
    /// Per-host observations, indexed by `HostId::index()`.
    pub hosts: Vec<HostObservation>,
    /// Per-VM observations, indexed by `VmId::index()`.
    pub vms: Vec<VmObservation>,
}

impl Default for ClusterObservation {
    /// An empty observation at time zero — the initial state of reusable
    /// observation buffers (see the engine's per-tick buffer reuse).
    fn default() -> Self {
        ClusterObservation {
            now: SimTime::ZERO,
            hosts: Vec::new(),
            vms: Vec::new(),
        }
    }
}

impl ClusterObservation {
    /// Total measured VM demand, cores (excludes migration tax).
    pub fn total_vm_demand(&self) -> f64 {
        self.vms.iter().map(|v| v.cpu_demand).sum()
    }

    /// Ids of hosts currently in `state`.
    pub fn hosts_in_state(&self, state: PowerState) -> impl Iterator<Item = HostId> + '_ {
        self.hosts
            .iter()
            .filter(move |h| h.state == state)
            .map(|h| h.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(state: PowerState, demand: f64) -> HostObservation {
        HostObservation {
            id: HostId(0),
            state,
            pending: None,
            cpu_capacity: 8.0,
            mem_capacity: 32.0,
            mem_committed: 24.0,
            cpu_demand: demand,
            evacuated: false,
            failed_transitions: 0,
            ladder: LadderSummary::default(),
        }
    }

    #[test]
    fn host_derived_quantities() {
        let h = host(PowerState::On, 4.0);
        assert_eq!(h.mem_free(), 8.0);
        assert_eq!(h.utilization(), 0.5);
        assert!(h.is_operational());
        assert!(h.is_arriving_or_on());
    }

    #[test]
    fn arriving_states() {
        assert!(host(PowerState::Resuming, 0.0).is_arriving_or_on());
        assert!(host(PowerState::Booting, 0.0).is_arriving_or_on());
        assert!(!host(PowerState::Suspended, 0.0).is_arriving_or_on());
        assert!(!host(PowerState::Suspending, 0.0).is_arriving_or_on());
    }

    #[test]
    fn overload_utilization_exceeds_one() {
        let h = host(PowerState::On, 12.0);
        assert_eq!(h.utilization(), 1.5);
    }

    #[test]
    fn observation_aggregates() {
        let obs = ClusterObservation {
            now: SimTime::ZERO,
            hosts: vec![host(PowerState::On, 1.0), host(PowerState::Suspended, 0.0)],
            vms: vec![
                VmObservation {
                    id: VmId(0),
                    host: Some(HostId(0)),
                    cpu_demand: 1.5,
                    cpu_cap: 2.0,
                    mem_gb: 8.0,
                    migrating: false,
                    service_class: Default::default(),
                },
                VmObservation {
                    id: VmId(1),
                    host: None,
                    cpu_demand: 0.5,
                    cpu_cap: 2.0,
                    mem_gb: 8.0,
                    migrating: false,
                    service_class: Default::default(),
                },
            ],
        };
        assert_eq!(obs.total_vm_demand(), 2.0);
        assert_eq!(obs.hosts_in_state(PowerState::Suspended).count(), 1);
    }
}
