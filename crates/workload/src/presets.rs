//! Canonical fleets used by the experiment harness.
//!
//! Each preset reproduces a workload archetype from the paper's
//! evaluation. Parameters are chosen so a fleet sized at ~4 VMs per host
//! produces the day/night utilization swing (roughly 25 %–75 % of cluster
//! capacity) that makes consolidation worthwhile.

use cluster::Resources;
use simcore::SimDuration;

use crate::{DemandProcess, FleetSpec, Shape, VmClass};

/// The main evaluation mix: interactive web/app tiers with a strong
/// diurnal swing plus a night-shifted batch tier.
///
/// * 50 % `web` — 2 cores / 4 GB, diurnal 0.40 ± 0.28, noisy.
/// * 30 % `app` — 4 cores / 8 GB, diurnal 0.35 ± 0.20, noisy.
/// * 20 % `batch` — 4 cores / 8 GB, square wave active 30 % of the day
///   (anti-phase with the interactive peak), light noise.
pub fn enterprise_diurnal() -> FleetSpec {
    FleetSpec::new(vec![
        VmClass::new(
            "web",
            Resources::new(2.0, 4.0),
            DemandProcess::new(Shape::diurnal(0.40, 0.28)).with_noise(0.9, 0.06),
            0.5,
        ),
        VmClass::new(
            "app",
            Resources::new(4.0, 8.0),
            DemandProcess::new(Shape::diurnal(0.35, 0.20)).with_noise(0.9, 0.05),
            0.3,
        ),
        VmClass::new(
            "batch",
            Resources::new(4.0, 8.0),
            DemandProcess::new(Shape::Square {
                low: 0.05,
                high: 0.75,
                period: SimDuration::from_hours(24),
                duty: 0.3,
                phase: 0.55, // runs overnight, opposite the web peak
            })
            .with_noise(0.8, 0.04),
            0.2,
        )
        .batch(),
    ])
}

/// The enterprise mix with fleet-correlated flash crowds layered on the
/// web tier — used by experiments that stress responsiveness under burst
/// arrivals. The spikes hit every web VM simultaneously (a service-wide
/// flash crowd), which is precisely the regime where host wake-up latency
/// shows up as unserved demand.
pub fn enterprise_with_spikes() -> FleetSpec {
    FleetSpec::new(vec![
        VmClass::new(
            "web-spiky",
            Resources::new(2.0, 4.0),
            DemandProcess::new(Shape::diurnal(0.40, 0.28))
                .with_noise(0.9, 0.06)
                .with_fleet_spikes(6.0, 0.35, SimDuration::from_mins(15)),
            0.5,
        ),
        VmClass::new(
            "app",
            Resources::new(4.0, 8.0),
            DemandProcess::new(Shape::diurnal(0.35, 0.20)).with_noise(0.9, 0.05),
            0.3,
        ),
        VmClass::new(
            "batch",
            Resources::new(4.0, 8.0),
            DemandProcess::new(Shape::Square {
                low: 0.05,
                high: 0.75,
                period: SimDuration::from_hours(24),
                duty: 0.3,
                phase: 0.55,
            })
            .with_noise(0.8, 0.04),
            0.2,
        )
        .batch(),
    ])
}

/// A week-long enterprise mix: the diurnal web/app tiers damp to 40 % on
/// weekends while batch keeps its nightly windows — the multi-day regime
/// where consolidation harvests whole weekend days and the learned
/// time-of-day profile (pre-waking) has something to learn.
pub fn enterprise_weekly() -> FleetSpec {
    FleetSpec::new(vec![
        VmClass::new(
            "web",
            Resources::new(2.0, 4.0),
            DemandProcess::new(Shape::WeeklyDiurnal {
                base: 0.40,
                amplitude: 0.28,
                phase: 0.0,
                weekend_scale: 0.4,
            })
            .with_noise(0.9, 0.06),
            0.5,
        ),
        VmClass::new(
            "app",
            Resources::new(4.0, 8.0),
            DemandProcess::new(Shape::WeeklyDiurnal {
                base: 0.35,
                amplitude: 0.20,
                phase: 0.0,
                weekend_scale: 0.4,
            })
            .with_noise(0.9, 0.05),
            0.3,
        ),
        VmClass::new(
            "batch",
            Resources::new(4.0, 8.0),
            DemandProcess::new(Shape::Square {
                low: 0.05,
                high: 0.75,
                period: SimDuration::from_hours(24),
                duty: 0.3,
                phase: 0.55,
            })
            .with_noise(0.8, 0.04),
            0.2,
        )
        .batch(),
    ])
}

/// A synchronized flash-crowd stimulus: every VM idles at `low` until
/// `step_at`, then jumps to `high` simultaneously. Used by the wake-latency
/// responsiveness sweep (experiment F7), where the interesting quantity is
/// how long demand goes unserved while hosts wake up.
pub fn flash_crowd(low: f64, high: f64, step_at: SimDuration) -> FleetSpec {
    FleetSpec::new(vec![VmClass::new(
        "flash",
        Resources::new(2.0, 4.0),
        DemandProcess::new(Shape::Step {
            low,
            high,
            at: step_at,
        }),
        1.0,
    )
    .aligned()])
}

/// A flat, tunable load for energy-proportionality curves (experiment F6):
/// every VM draws `level` of its cap continuously.
pub fn steady(level: f64) -> FleetSpec {
    FleetSpec::new(vec![VmClass::new(
        "steady",
        Resources::new(2.0, 4.0),
        DemandProcess::new(Shape::constant(level)),
        1.0,
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    #[test]
    fn enterprise_mix_has_diurnal_swing() {
        let fleet = enterprise_diurnal().generate(
            200,
            SimDuration::from_hours(24),
            SimDuration::from_mins(15),
            42,
        );
        // Aggregate demand at the daily peak should be well above the
        // trough — the swing consolidation exploits.
        let samples = fleet.demand().rows();
        let series: Vec<f64> = (0..samples)
            .map(|k| fleet.aggregate_demand_cores(k))
            .collect();
        let peak = series.iter().copied().fold(0.0, f64::max);
        let trough = series.iter().copied().fold(f64::MAX, f64::min);
        assert!(
            peak > 1.8 * trough,
            "peak {peak:.1} vs trough {trough:.1}: no usable swing"
        );
    }

    #[test]
    fn weekly_mix_damps_weekend_aggregate() {
        let fleet = enterprise_weekly().generate(
            120,
            SimDuration::from_hours(7 * 24),
            SimDuration::from_mins(30),
            4,
        );
        // Compare the same daytime window on day 2 (weekday) and day 6
        // (weekend).
        let k = |day: usize, hour: usize| (day * 24 + hour) * 2; // 30-min samples
        let weekday: f64 = (10..16)
            .map(|h| fleet.aggregate_demand_cores(k(1, h)))
            .sum();
        let weekend: f64 = (10..16)
            .map(|h| fleet.aggregate_demand_cores(k(5, h)))
            .sum();
        assert!(
            weekend < 0.75 * weekday,
            "weekend {weekend:.0} not damped vs weekday {weekday:.0}"
        );
    }

    #[test]
    fn flash_crowd_steps_everywhere_at_once() {
        let fleet = flash_crowd(0.1, 0.9, SimDuration::from_hours(1)).generate(
            10,
            SimDuration::from_hours(2),
            SimDuration::from_mins(5),
            1,
        );
        for t in fleet.traces() {
            assert_eq!(t.sample(0), 0.1);
            assert_eq!(t.sample(t.len() - 1), 0.9);
        }
    }

    #[test]
    fn steady_is_flat() {
        let fleet =
            steady(0.5).generate(5, SimDuration::from_hours(1), SimDuration::from_mins(5), 1);
        for t in fleet.traces() {
            assert!(t.samples().all(|s| s == 0.5));
        }
    }

    #[test]
    fn spiky_preset_raises_aggregate_demand() {
        // Correlated flash crowds land at random times of day, so compare
        // demand mass rather than a single peak, across a few seeds.
        let mut spikier = 0;
        for seed in 1..=5 {
            let calm = enterprise_diurnal().generate(
                100,
                SimDuration::from_hours(24),
                SimDuration::from_mins(5),
                seed,
            );
            let spiky = enterprise_with_spikes().generate(
                100,
                SimDuration::from_hours(24),
                SimDuration::from_mins(5),
                seed,
            );
            let mass = |f: &crate::Fleet| -> f64 {
                (0..f.demand().rows())
                    .map(|k| f.aggregate_demand_cores(k))
                    .sum()
            };
            if mass(&spiky) > mass(&calm) {
                spikier += 1;
            }
        }
        assert!(spikier >= 4, "spiky mix heavier in only {spikier}/5 seeds");
    }

    #[test]
    fn spiky_preset_web_tier_spikes_together() {
        let fleet = enterprise_with_spikes().generate(
            60,
            SimDuration::from_hours(24),
            SimDuration::from_mins(5),
            9,
        );
        // Collect web VMs and confirm their biggest positive demand jumps
        // coincide (fleet-correlated windows).
        let web: Vec<usize> = (0..fleet.len())
            .filter(|&i| fleet.class_name(i) == "web-spiky")
            .collect();
        assert!(web.len() > 10);
        let jump_instant = |i: usize| -> usize {
            let s: Vec<f64> = fleet.traces().get(i).samples().collect();
            (1..s.len())
                .max_by(|&a, &b| (s[a] - s[a - 1]).partial_cmp(&(s[b] - s[b - 1])).unwrap())
                .unwrap()
        };
        let first = jump_instant(web[0]);
        let agreeing = web
            .iter()
            .filter(|&&i| jump_instant(i).abs_diff(first) <= 1)
            .count();
        assert!(
            agreeing * 2 > web.len(),
            "only {agreeing}/{} web VMs jump together",
            web.len()
        );
    }
}
