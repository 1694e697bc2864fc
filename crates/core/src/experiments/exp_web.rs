//! E7: hostless-site availability as a function of visitor seeding.

use agora_sim::{DeviceClass, Metrics, SimDuration, Simulation};
use agora_web::{SitePublisher, SwarmNode, VisitResult};

use super::{Report, VariantStats};

/// Visitors who fetch the site before its origin dies.
const FIRST_WAVES: [usize; 4] = [0, 1, 3, 5];

/// E7: publish a site, let `w` visitors fetch it, kill the origin, then
/// measure whether fresh visitors can still load the site — §3.4's "seeded
/// and served by visitors" property, quantified. Keys `e7.survival.w*`.
pub fn e7_metrics(seed: u64) -> Metrics {
    let mut m = Metrics::new();
    for first_wave in FIRST_WAVES {
        let mut sim = Simulation::new(seed + first_wave as u64);
        let tracker = sim.add_node(SwarmNode::tracker(), DeviceClass::DatacenterServer);
        let origin = sim.add_node(SwarmNode::peer(tracker), DeviceClass::PersonalComputer);
        let mut peers = Vec::new();
        for _ in 0..8 {
            peers.push(sim.add_node(SwarmNode::peer(tracker), DeviceClass::PersonalComputer));
        }
        let mut publisher = SitePublisher::new(b"e7-site");
        let content = vec![42u8; 80_000];
        let bundle = publisher.publish(&[("index.html", content.as_slice())]);
        let site = publisher.site_id();
        sim.with_ctx(origin, |n, ctx| n.host_site(ctx, &bundle));
        sim.run_for(SimDuration::from_secs(5));

        // First wave visits while the origin is alive.
        let mut wave_ops = Vec::new();
        for &p in peers.iter().take(first_wave) {
            if let Some(op) = sim.with_ctx(p, |n, ctx| n.start_visit(ctx, site)) {
                wave_ops.push((p, op));
            }
        }
        sim.run_for(SimDuration::from_mins(5));
        for (p, op) in wave_ops {
            let _ = sim.node_mut(p).take_result(op);
        }

        // Origin dies.
        sim.kill(origin);
        sim.run_for(SimDuration::from_secs(5));

        // Second wave: three fresh visitors.
        let second: Vec<_> = peers.iter().skip(5).copied().collect();
        let mut ok = 0usize;
        let mut total = 0usize;
        for p in second {
            total += 1;
            if let Some(op) = sim.with_ctx(p, |n, ctx| n.start_visit(ctx, site)) {
                sim.run_for(SimDuration::from_mins(5));
                if matches!(
                    sim.node_mut(p).take_result(op),
                    Some(VisitResult::Ok { .. })
                ) {
                    ok += 1;
                }
            }
        }
        m.gauge_set(
            &format!("e7.survival.w{first_wave}"),
            ok as f64 / total as f64,
        );
    }
    m
}

/// E7's report from its one variant.
pub fn e7_report(variants: &[VariantStats]) -> Report {
    let v = &variants[0];
    let mut body = String::from(
        "Origin publishes an 80 KB site, N visitors fetch it, origin dies,\n\
         then 3 fresh visitors try to load it:\n",
    );
    for n in FIRST_WAVES {
        body.push_str(&format!(
            "  prior visitors = {:>2} → post-death visit success {:>5.1}%\n",
            n,
            v.mean(&format!("e7.survival.w{n}")) * 100.0
        ));
    }
    Report {
        id: "E7",
        title: "Hostless web apps: availability via visitor seeding",
        claim: "web applications are seeded and served by visitors via the \
                BitTorrent protocol (§3.4): the site outlives its origin \
                iff visitors seed it",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_seeding_threshold() {
        let m = e7_metrics(51);
        let rate = |n: usize| m.gauge(&format!("e7.survival.w{n}"));
        // With no prior visitors the site dies with its origin.
        assert_eq!(rate(0), 0.0);
        // With several prior visitors it survives.
        assert!(rate(5) > 0.9, "{m}");
        // Monotone in seeders.
        assert!(rate(5) >= rate(1));
    }
}
