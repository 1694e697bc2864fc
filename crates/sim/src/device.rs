//! Device classes, calibrated to the paper's §4 infrastructure assumptions.
//!
//! The paper's feasibility argument (and its §5.2 "quality vs quantity"
//! discussion) rests on four coarse device classes: datacenter servers,
//! personal computers, smartphones, and tablets. Each class here carries
//! the link bandwidth §4 assumes plus a quality model (availability duty
//! cycle, session lengths, latency spread) used by the churn and link
//! layers. §4's per-device compute and storage (Table 3's spare cores, free
//! storage, the ×8 PC core derate) live in `agora_feasibility::Assumptions`.

use crate::time::SimDuration;

/// The four device classes of the paper's §4 capacity model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceClass {
    /// A datacenter server behind a fat pipe; the "cloud" side of Table 3.
    DatacenterServer,
    /// A home PC on consumer broadband (§4 assumes 1 Mbps upstream).
    PersonalComputer,
    /// A smartphone on a slow 3G link (1 Mbps upstream, no spare storage,
    /// battery-constrained — §4 excludes phones from compute).
    Smartphone,
    /// A tablet (1 spare core, 10 GB free storage, 1 Mbps upstream).
    Tablet,
}

/// Static resource and quality profile of a device class.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceProfile {
    /// Upstream bandwidth in bits per second.
    pub uplink_bps: u64,
    /// Downstream bandwidth in bits per second.
    pub downlink_bps: u64,
    /// Long-run fraction of time the device is powered on and connected.
    pub duty_cycle: f64,
    /// Mean length of an online session (drives the churn process).
    pub mean_session: SimDuration,
    /// Base one-way latency to a random peer.
    pub base_latency: SimDuration,
    /// Latency jitter expressed as a log-normal sigma (0 = none). Consumer
    /// access links show heavy-tailed latency; datacenters do not.
    pub latency_sigma: f64,
}

impl DeviceClass {
    /// The profile the paper's assumptions imply for this class.
    ///
    /// Upstream figures are exactly §4's ("1 Mbps upstream"). Quality
    /// figures (duty cycle, session length, latency) are not given by the
    /// paper; we choose fixed values consistent with its characterization
    /// of user-device infrastructure as intermittent and variable. E8's
    /// churn runs on the duty cycle and session length, and T3 discounts
    /// PC and phone capacity by the same duty cycles.
    pub fn profile(self) -> DeviceProfile {
        match self {
            DeviceClass::DatacenterServer => DeviceProfile {
                uplink_bps: 10_000_000_000,
                downlink_bps: 10_000_000_000,
                duty_cycle: 0.9995, // EC2's advertised 99.95% region availability
                mean_session: SimDuration::from_days(30),
                base_latency: SimDuration::from_micros(500),
                latency_sigma: 0.1,
            },
            DeviceClass::PersonalComputer => DeviceProfile {
                uplink_bps: 1_000_000, // §4: "slow broadband ... 1 Mbps upstream"
                downlink_bps: 10_000_000,
                duty_cycle: 0.45,
                mean_session: SimDuration::from_hours(5),
                base_latency: SimDuration::from_millis(20),
                latency_sigma: 0.5,
            },
            DeviceClass::Smartphone => DeviceProfile {
                uplink_bps: 1_000_000, // §4: "slow 3G ... 1 Mbps upstream"
                downlink_bps: 4_000_000,
                duty_cycle: 0.30,
                mean_session: SimDuration::from_mins(30),
                base_latency: SimDuration::from_millis(60),
                latency_sigma: 0.8,
            },
            DeviceClass::Tablet => DeviceProfile {
                uplink_bps: 1_000_000,
                downlink_bps: 4_000_000,
                duty_cycle: 0.25,
                mean_session: SimDuration::from_hours(1),
                base_latency: SimDuration::from_millis(40),
                latency_sigma: 0.7,
            },
        }
    }

    /// All classes, cloud first.
    pub fn all() -> [DeviceClass; 4] {
        [
            DeviceClass::DatacenterServer,
            DeviceClass::PersonalComputer,
            DeviceClass::Smartphone,
            DeviceClass::Tablet,
        ]
    }

    /// Short human label.
    pub fn label(self) -> &'static str {
        match self {
            DeviceClass::DatacenterServer => "server",
            DeviceClass::PersonalComputer => "pc",
            DeviceClass::Smartphone => "phone",
            DeviceClass::Tablet => "tablet",
        }
    }
}

impl DeviceProfile {
    /// Mean length of an offline gap implied by duty cycle and session length:
    /// duty = up / (up + down)  ⇒  down = up * (1 - duty) / duty.
    pub fn mean_offtime(&self) -> SimDuration {
        if self.duty_cycle >= 1.0 {
            return SimDuration::ZERO;
        }
        if self.duty_cycle <= 0.0 {
            return SimDuration::from_days(365);
        }
        let up = self.mean_session.secs_f64();
        SimDuration::from_secs_f64(up * (1.0 - self.duty_cycle) / self.duty_cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_encoded() {
        // §4: "1 Mbps upstream" for every consumer class.
        for class in [
            DeviceClass::PersonalComputer,
            DeviceClass::Smartphone,
            DeviceClass::Tablet,
        ] {
            assert_eq!(class.profile().uplink_bps, 1_000_000, "{class:?}");
        }
    }

    #[test]
    fn offtime_consistent_with_duty_cycle() {
        let pc = DeviceClass::PersonalComputer.profile();
        let up = pc.mean_session.secs_f64();
        let down = pc.mean_offtime().secs_f64();
        let duty = up / (up + down);
        assert!((duty - pc.duty_cycle).abs() < 1e-6, "duty {duty}");
    }

    #[test]
    fn offtime_degenerate_duty_cycles() {
        let mut p = DeviceClass::PersonalComputer.profile();
        p.duty_cycle = 1.0;
        assert_eq!(p.mean_offtime(), SimDuration::ZERO);
        p.duty_cycle = 0.0;
        assert!(p.mean_offtime().secs_f64() > 1e6);
    }

    #[test]
    fn class_ordering_and_labels() {
        let all = DeviceClass::all();
        assert_eq!(all[0].label(), "server");
        assert_eq!(all[1].label(), "pc");
        assert_eq!(all[2].label(), "phone");
        assert_eq!(all[3].label(), "tablet");
    }
}
