//! The reference pool engine for the differential tests: the original
//! `Vec<Instance>` implementation with per-arrival `retain`/`filter`/
//! `sort_by` scans — `O(instances)` per request, quadratic under bursts,
//! and simple enough to read as the specification. The event-driven
//! engine behind `lambda_sim::simulate_pool_ext_stream_traced` must match
//! it byte for byte: stats and the full event stream.

use lambda_sim::pool::AWS_PROVISIONED_PRICE_PER_GB_S;
use lambda_sim::{
    simulate_pool_ext_stream_traced, AppProfile, ExtPoolStats, Platform, PoolEvent, PoolOptions,
    StartKind,
};

/// Run sorted `arrivals` through the reference engine.
pub fn naive_pool(
    platform: &Platform,
    app: &AppProfile,
    arrivals: &[f64],
    options: &PoolOptions,
) -> (ExtPoolStats, Vec<PoolEvent>) {
    #[derive(Clone, Copy)]
    struct Instance {
        free_at: f64,
        expires_at: f64,
        provisioned: bool,
    }
    fn reap(instances: &mut Vec<Instance>, now: f64) {
        instances.retain(|i| i.provisioned || !(i.free_at <= now && i.expires_at < now));
    }
    let mut instances: Vec<Instance> = (0..options.provisioned)
        .map(|_| Instance {
            free_at: 0.0,
            expires_at: f64::INFINITY,
            provisioned: true,
        })
        .collect();
    let mut stats = ExtPoolStats::default();
    let mut events = Vec::with_capacity(arrivals.len());
    for &arrival in arrivals {
        // Reap on-demand instances that expired before this arrival.
        let mut now = arrival;
        reap(&mut instances, now);

        if let Some(cap) = options.max_concurrency {
            let cap = cap.max(1);
            let mut busy: Vec<f64> = instances
                .iter()
                .filter(|i| i.free_at > now)
                .map(|i| i.free_at)
                .collect();
            if busy.len() >= cap {
                busy.sort_by(f64::total_cmp);
                now = busy[busy.len() - cap];
                stats.queued_requests += 1;
                stats.total_queue_secs += now - arrival;
                reap(&mut instances, now);
            }
        }

        // Prefer provisioned instances, then the most-recently-used warm one.
        let idle = instances
            .iter_mut()
            .filter(|i| i.free_at <= now && i.expires_at >= now)
            .max_by(|a, b| {
                (a.provisioned, a.free_at)
                    .partial_cmp(&(b.provisioned, b.free_at))
                    .expect("no NaN in pool times")
            });
        let (inv, kind) = match idle {
            Some(slot) => {
                let inv = platform.warm_invocation(app);
                let finish = now + inv.e2e_secs();
                slot.free_at = finish;
                if !slot.provisioned {
                    slot.expires_at = finish + options.keep_alive_secs;
                }
                (inv, StartKind::Warm)
            }
            None => {
                let inv = platform.cold_invocation(app, options.mode);
                let finish = now + inv.e2e_secs();
                instances.push(Instance {
                    free_at: finish,
                    expires_at: finish + options.keep_alive_secs,
                    provisioned: false,
                });
                (inv, StartKind::Cold)
            }
        };
        match kind {
            StartKind::Cold => stats.cold_starts += 1,
            StartKind::Warm => stats.warm_starts += 1,
        }
        stats.invocation_cost += inv.cost;
        stats.total_e2e_secs += inv.e2e_secs() + (now - arrival);
        events.push(PoolEvent {
            arrival,
            start: now,
            finish: now + inv.e2e_secs(),
            kind,
        });
    }
    // Reserved capacity is billed for the whole window regardless of use.
    let mem_gb = platform.config.pricing.configured_memory_mb(app.mem_mb) as f64 / 1024.0;
    stats.provisioned_cost =
        options.provisioned as f64 * mem_gb * options.window_secs * AWS_PROVISIONED_PRICE_PER_GB_S;
    (stats, events)
}

/// Run sorted `arrivals` through the event-driven engine, collecting its
/// events the same way.
pub fn event_pool(
    platform: &Platform,
    app: &AppProfile,
    arrivals: &[f64],
    options: &PoolOptions,
) -> (ExtPoolStats, Vec<PoolEvent>) {
    let mut events = Vec::with_capacity(arrivals.len());
    let stats =
        simulate_pool_ext_stream_traced(platform, app, arrivals.iter().copied(), options, |e| {
            events.push(e)
        })
        .expect("sorted, NaN-free arrivals");
    (stats, events)
}
