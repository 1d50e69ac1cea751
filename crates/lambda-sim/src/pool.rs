//! The instance-pool simulator: keep-alive reuse, provisioned concurrency,
//! account concurrency limits, and request queueing (§2.1, Figure 1).
//!
//! Besides the plain keep-alive pool, the simulator models the platform
//! features the paper's related work cites (§3.1: provisioned concurrency,
//! pre-warming) so their cost/latency trade-offs can be compared against
//! debloating:
//!
//! * **provisioned concurrency** — `n` instances are initialized ahead of
//!   time and never expire; requests landing on them are always warm, but
//!   the reserved capacity is billed for the whole window whether used or
//!   not (AWS prices provisioned GB-seconds at a discounted rate);
//! * **concurrency limit** — at most `max_concurrency` instances may run
//!   at once; excess arrivals queue and their queueing delay is added to
//!   E2E latency.
//!
//! With both features off (`provisioned = 0`, `max_concurrency = None`) it
//! is the paper's basic keep-alive pool.
//!
//! # Engine
//!
//! [`simulate_pool_ext_stream_traced`] is the one entry point. It is
//! event-driven: busy instances live in a min-heap on `free_at` and idle
//! instances in ordered multisets, so each arrival costs `O(log n)`
//! amortized instead of an `O(n)` scan of the pool. Arrivals stream in
//! from any iterator, so callers never have to materialize a trace.
//!
//! The design rests on a structural invariant of the pool: a
//! non-provisioned instance always satisfies
//! `expires_at == free_at + keep_alive_secs` (set identically on creation
//! and on every warm reuse), and a provisioned instance never expires. An
//! instance's observable state is therefore exactly `(free_at,
//! provisioned)`, which is what the ordered containers key on; instances
//! that tie on that pair are interchangeable. The differential tests
//! replay randomized workloads through a straightforward `Vec<Instance>`
//! reference engine and require byte-identical stats and event streams.
//!
//! # Expiry boundary
//!
//! Keep-alive expiry is **exclusive**: an idle instance is reaped when
//! `expires_at < now` and still usable when `expires_at == now`. With
//! `keep_alive_secs == 0` a queued request dispatching at the exact instant
//! its slot frees therefore still reuses it warm (see
//! `expiry_boundary_is_exclusive`).

use crate::platform::{AppProfile, Platform, StartKind, StartMode};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// AWS provisioned-concurrency price: $ per GB-second of reserved capacity
/// (lower than the on-demand duration price).
pub const AWS_PROVISIONED_PRICE_PER_GB_S: f64 = 0.000_004_166_7;

/// Options for [`simulate_pool_ext_stream_traced`].
#[derive(Debug, Clone, PartialEq)]
pub struct PoolOptions {
    /// Idle instance lifetime in seconds.
    pub keep_alive_secs: f64,
    /// How cold starts initialize.
    pub mode: StartMode,
    /// Number of pre-initialized, never-expiring instances.
    pub provisioned: usize,
    /// Maximum concurrently running instances (`None` = unlimited).
    pub max_concurrency: Option<usize>,
    /// Window length in seconds (for provisioned-capacity billing).
    pub window_secs: f64,
}

impl Default for PoolOptions {
    fn default() -> Self {
        PoolOptions {
            keep_alive_secs: 900.0,
            mode: StartMode::Standard,
            provisioned: 0,
            max_concurrency: None,
            window_secs: 24.0 * 3600.0,
        }
    }
}

/// Results of an extended pool simulation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExtPoolStats {
    /// Cold starts (full initialization on the critical path).
    pub cold_starts: u64,
    /// Warm starts (reused keep-alive or provisioned instances).
    pub warm_starts: u64,
    /// Requests that had to queue for a concurrency slot.
    pub queued_requests: u64,
    /// Total queueing delay in seconds.
    pub total_queue_secs: f64,
    /// Sum of invocation costs (Equation 1) in dollars.
    pub invocation_cost: f64,
    /// Reserved-capacity cost for provisioned instances in dollars.
    pub provisioned_cost: f64,
    /// Sum of E2E latencies (including queueing) in seconds.
    pub total_e2e_secs: f64,
}

impl ExtPoolStats {
    /// Total invocations.
    pub fn invocations(&self) -> u64 {
        self.cold_starts + self.warm_starts
    }

    /// Total dollars: invocations + reserved capacity.
    pub fn total_cost(&self) -> f64 {
        self.invocation_cost + self.provisioned_cost
    }

    /// Mean E2E latency in seconds.
    pub fn mean_e2e_secs(&self) -> f64 {
        let n = self.invocations();
        if n == 0 {
            0.0
        } else {
            self.total_e2e_secs / n as f64
        }
    }
}

/// One dispatched request, reported by [`simulate_pool_ext_stream_traced`]'s
/// event sink. Lets callers reconstruct the full execution timeline — e.g.
/// per-invocation E2E latency percentiles, or an instantaneous-concurrency
/// sweep in a property test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolEvent {
    /// When the request arrived (seconds from window start).
    pub arrival: f64,
    /// When it actually started running (= `arrival` unless it queued).
    pub start: f64,
    /// When it finished (start + invocation E2E).
    pub finish: f64,
    /// Cold or warm.
    pub kind: StartKind,
}

/// Typed errors from the extended pool simulator's input validation.
#[derive(Debug, Clone, PartialEq)]
pub enum PoolError {
    /// The arrival sequence is not sorted ascending: out-of-order arrivals
    /// silently corrupt cold/warm accounting (the pool clock only moves
    /// forward), so they are rejected up front.
    UnsortedArrivals {
        /// 0-based index of the offending arrival.
        index: usize,
        /// The preceding arrival timestamp.
        previous: f64,
        /// The out-of-order timestamp found at `index`.
        found: f64,
    },
    /// An arrival timestamp is NaN, which has no place on a timeline.
    NanArrival {
        /// 0-based index of the NaN arrival.
        index: usize,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::UnsortedArrivals {
                index,
                previous,
                found,
            } => write!(
                f,
                "arrivals must be sorted ascending: arrivals[{index}] = {found} \
                 after {previous}"
            ),
            PoolError::NanArrival { index } => {
                write!(f, "arrivals[{index}] is NaN")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Total-order key for pool timestamps (`f64::total_cmp`); the simulator
/// rejects NaN at the boundary, and all derived times are NaN-free, so the
/// total order coincides with the numeric order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Time(f64);

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Ordered multiset of idle-instance `free_at` times.
type IdleSet = BTreeMap<Time, usize>;

fn idle_insert(set: &mut IdleSet, t: f64) {
    *set.entry(Time(t)).or_insert(0) += 1;
}

/// Remove and return the greatest `free_at` (most recently used).
fn idle_take_max(set: &mut IdleSet) -> Option<f64> {
    let (&key, count) = set.iter_mut().next_back()?;
    *count -= 1;
    if *count == 0 {
        set.remove(&key);
    }
    Some(key.0)
}

/// Simulate an arrival process through the pool. Arrivals (seconds from
/// window start) stream in from any iterator and are never materialized;
/// ordering is validated on the fly. `on_event` is called once per
/// arrival, in arrival order, with the dispatched request's timeline.
///
/// Busy instances live in a min-heap keyed on `free_at` (tagged
/// provisioned/on-demand); idle instances live in two ordered multisets of
/// `free_at` (provisioned instances never expire; on-demand instances
/// expire at `free_at + keep_alive_secs`, so the key determines expiry
/// too). Each arrival settles freed instances out of the heap, reaps
/// expired idle instances from the cheap end of the multiset, and — under
/// a concurrency cap — pops exactly `busy - cap + 1` heap entries to find
/// the queued request's dispatch time, the `(busy - cap + 1)`-th earliest
/// `free_at`.
///
/// # Errors
///
/// [`PoolError::UnsortedArrivals`] or [`PoolError::NanArrival`].
pub fn simulate_pool_ext_stream_traced(
    platform: &Platform,
    app: &AppProfile,
    arrivals: impl IntoIterator<Item = f64>,
    options: &PoolOptions,
    mut on_event: impl FnMut(PoolEvent),
) -> Result<ExtPoolStats, PoolError> {
    let keep_alive = options.keep_alive_secs;
    // Busy = dispatched and not yet freed: min-heap on (free_at, provisioned).
    let mut busy: BinaryHeap<Reverse<(Time, bool)>> = BinaryHeap::new();
    let mut idle_demand: IdleSet = IdleSet::new();
    let mut idle_prov: IdleSet = IdleSet::new();
    for _ in 0..options.provisioned {
        idle_insert(&mut idle_prov, 0.0);
    }

    // Move every busy instance freed by `now` into its idle set.
    let settle = |busy: &mut BinaryHeap<Reverse<(Time, bool)>>,
                  idle_demand: &mut IdleSet,
                  idle_prov: &mut IdleSet,
                  now: f64| {
        while let Some(&Reverse((t, provisioned))) = busy.peek() {
            if t.0 > now {
                break;
            }
            busy.pop();
            idle_insert(if provisioned { idle_prov } else { idle_demand }, t.0);
        }
    };
    // Reap idle on-demand instances whose keep-alive ran out strictly
    // before `now` (exclusive expiry; see the module docs). Every entry
    // already satisfies `free_at <= now`, and the reap predicate is
    // monotone in `free_at`, so popping from the low end suffices. The
    // negated comparison is deliberate: it is the exact complement of the
    // `expires_at < now` reap test, NaN semantics included.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    let reap = |idle_demand: &mut IdleSet, now: f64| {
        while let Some((&key, count)) = idle_demand.iter_mut().next() {
            if !(key.0 + keep_alive < now) {
                break;
            }
            *count -= 1;
            if *count == 0 {
                idle_demand.remove(&key);
            }
        }
    };

    let mut stats = ExtPoolStats::default();
    let mut prev = f64::NEG_INFINITY;
    for (index, arrival) in arrivals.into_iter().enumerate() {
        if arrival.is_nan() {
            return Err(PoolError::NanArrival { index });
        }
        if arrival < prev {
            return Err(PoolError::UnsortedArrivals {
                index,
                previous: prev,
                found: arrival,
            });
        }
        prev = arrival;
        let mut now = arrival;
        settle(&mut busy, &mut idle_demand, &mut idle_prov, now);
        reap(&mut idle_demand, now);

        // Concurrency limiting. With `busy >= cap` instances running, the
        // request must wait until the pool is down to `cap - 1` running
        // instances — i.e. until the `(busy - cap + 1)`-th earliest
        // `free_at`, not the earliest (waiting only for the earliest lets a
        // burst of b > cap simultaneous arrivals run b instances at once).
        //
        // Popped entries free *after* `arrival` but by the waited dispatch
        // time; they must NOT settle into the idle sets (the next arrival
        // in a burst may be earlier than the waited clock, at which point
        // they count as busy again). They become warm candidates for this
        // dispatch only, and the unchosen ones go straight back into the
        // busy heap to settle at whatever later arrival overtakes them.
        let mut waiters: Vec<(f64, bool)> = Vec::new();
        if let Some(cap) = options.max_concurrency {
            let cap = cap.max(1);
            if busy.len() >= cap {
                for _ in 0..(busy.len() - cap + 1) {
                    let Reverse((t, provisioned)) =
                        busy.pop().expect("pop count bounded by busy.len()");
                    now = t.0;
                    waiters.push((t.0, provisioned));
                }
                // Entries tied at the new clock freed by dispatch time too.
                while let Some(&Reverse((t, _))) = busy.peek() {
                    if t.0 > now {
                        break;
                    }
                    let Reverse((t, provisioned)) = busy.pop().expect("peeked");
                    waiters.push((t.0, provisioned));
                }
                stats.queued_requests += 1;
                stats.total_queue_secs += now - arrival;
                // The wait moved the clock: idle instances (and just-freed
                // waiters) whose keep-alive ran out inside `(arrival, now)`
                // are gone by dispatch time.
                reap(&mut idle_demand, now);
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                waiters.retain(|&(f, provisioned)| provisioned || !(f + keep_alive < now));
            }
        }

        // Prefer provisioned instances, then the most-recently-used warm
        // one. After settling and reaping, every idle entry and every
        // surviving waiter is dispatchable (`free_at <= now`, not expired),
        // so this is a max over (provisioned, free_at) across both.
        enum WarmSource {
            IdleProv,
            IdleDemand,
            Waiter(usize),
        }
        let mut best: Option<(bool, Time, WarmSource)> = None;
        let mut consider = |prov: bool, t: Time, src: WarmSource| {
            if best
                .as_ref()
                .is_none_or(|&(bp, bt, _)| (prov, t) > (bp, bt))
            {
                best = Some((prov, t, src));
            }
        };
        if let Some(&t) = idle_prov.keys().next_back() {
            consider(true, t, WarmSource::IdleProv);
        }
        if let Some(&t) = idle_demand.keys().next_back() {
            consider(false, t, WarmSource::IdleDemand);
        }
        for (i, &(f, provisioned)) in waiters.iter().enumerate() {
            consider(provisioned, Time(f), WarmSource::Waiter(i));
        }
        let warm_slot = best.map(|(provisioned, _, src)| {
            match src {
                WarmSource::IdleProv => {
                    idle_take_max(&mut idle_prov);
                }
                WarmSource::IdleDemand => {
                    idle_take_max(&mut idle_demand);
                }
                WarmSource::Waiter(i) => {
                    waiters.swap_remove(i);
                }
            }
            provisioned
        });
        for (f, provisioned) in waiters {
            busy.push(Reverse((Time(f), provisioned)));
        }
        let (inv, start_kind, provisioned) = match warm_slot {
            Some(provisioned) => (platform.warm_invocation(app), StartKind::Warm, provisioned),
            None => (
                platform.cold_invocation(app, options.mode),
                StartKind::Cold,
                false,
            ),
        };
        let finish = now + inv.e2e_secs();
        busy.push(Reverse((Time(finish), provisioned)));
        match start_kind {
            StartKind::Cold => stats.cold_starts += 1,
            StartKind::Warm => stats.warm_starts += 1,
        }
        stats.invocation_cost += inv.cost;
        stats.total_e2e_secs += inv.e2e_secs() + (now - arrival);
        on_event(PoolEvent {
            arrival,
            start: now,
            finish,
            kind: start_kind,
        });
    }
    // Reserved capacity is billed for the whole window regardless of use.
    let mem_gb = platform.config.pricing.configured_memory_mb(app.mem_mb) as f64 / 1024.0;
    stats.provisioned_cost =
        options.provisioned as f64 * mem_gb * options.window_secs * AWS_PROVISIONED_PRICE_PER_GB_S;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> AppProfile {
        AppProfile::new("demo", 100.0, 1.0, 0.2, 512.0)
    }

    /// Run `arrivals` through the pool, collecting every event.
    fn run(
        app: &AppProfile,
        arrivals: &[f64],
        options: &PoolOptions,
    ) -> (ExtPoolStats, Vec<PoolEvent>) {
        let mut events = Vec::new();
        let stats = simulate_pool_ext_stream_traced(
            &Platform::default(),
            app,
            arrivals.iter().copied(),
            options,
            |e| events.push(e),
        )
        .expect("sorted arrivals");
        (stats, events)
    }

    fn stats(app: &AppProfile, arrivals: &[f64], options: &PoolOptions) -> ExtPoolStats {
        run(app, arrivals, options).0
    }

    #[test]
    fn pool_reuses_warm_instances() {
        // Arrivals far enough apart to finish, close enough to stay warm.
        let a = AppProfile::new("a", 50.0, 0.5, 0.1, 200.0);
        let s = stats(&a, &[0.0, 10.0, 20.0, 30.0], &PoolOptions::default());
        assert_eq!((s.cold_starts, s.warm_starts), (1, 3));
    }

    #[test]
    fn pool_expires_idle_instances() {
        let a = AppProfile::new("a", 50.0, 0.5, 0.1, 200.0);
        let options = PoolOptions {
            keep_alive_secs: 60.0,
            ..PoolOptions::default()
        };
        let s = stats(&a, &[0.0, 10_000.0], &options);
        assert_eq!(s.cold_starts, 2, "keep-alive elapsed between arrivals");
    }

    #[test]
    fn pool_bursts_force_concurrent_cold_starts() {
        // Three simultaneous arrivals — no instance is free.
        let a = AppProfile::new("a", 50.0, 0.5, 2.0, 200.0);
        let s = stats(&a, &[0.0, 0.0, 0.0], &PoolOptions::default());
        assert_eq!((s.cold_starts, s.warm_starts), (3, 0));
    }

    #[test]
    fn provisioned_instances_eliminate_cold_starts() {
        let arrivals: Vec<f64> = (0..10).map(|i| i as f64 * 100.0).collect();
        let none = stats(&app(), &arrivals, &PoolOptions::default());
        let provisioned = stats(
            &app(),
            &arrivals,
            &PoolOptions {
                provisioned: 1,
                ..PoolOptions::default()
            },
        );
        assert!(none.cold_starts >= 1);
        assert_eq!(
            provisioned.cold_starts, 0,
            "pre-warmed instance absorbs all"
        );
        assert!(provisioned.provisioned_cost > 0.0);
        assert!(provisioned.mean_e2e_secs() < none.mean_e2e_secs());
    }

    #[test]
    fn provisioned_capacity_costs_even_when_idle() {
        let s = stats(
            &app(),
            &[],
            &PoolOptions {
                provisioned: 3,
                ..PoolOptions::default()
            },
        );
        assert_eq!(s.invocations(), 0);
        assert!(s.provisioned_cost > 0.0, "idle capacity is still billed");
    }

    #[test]
    fn concurrency_limit_queues_bursts() {
        // Ten simultaneous arrivals, capacity two.
        let arrivals = vec![0.0; 10];
        let limited = stats(
            &app(),
            &arrivals,
            &PoolOptions {
                max_concurrency: Some(2),
                ..PoolOptions::default()
            },
        );
        // Exactly the first two arrivals run immediately (cold); the other
        // eight each wait for a slot and reuse the instance that freed it
        // (warm) — capacity 2 means exactly 2 instances ever exist.
        assert_eq!(limited.cold_starts, 2);
        assert_eq!(limited.warm_starts, 8);
        assert_eq!(limited.queued_requests, 8);
        assert!(limited.total_queue_secs > 0.0);
        let unlimited = stats(&app(), &arrivals, &PoolOptions::default());
        assert_eq!(unlimited.queued_requests, 0);
        assert!(limited.mean_e2e_secs() > unlimited.mean_e2e_secs());
    }

    /// Max simultaneously running requests over the event timeline.
    fn peak_concurrency(events: &[PoolEvent]) -> usize {
        let mut deltas: Vec<(f64, i64)> = Vec::with_capacity(events.len() * 2);
        for e in events {
            deltas.push((e.start, 1));
            deltas.push((e.finish, -1));
        }
        // At a tie, finishes release their slot before starts claim one.
        deltas.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let (mut cur, mut peak) = (0i64, 0i64);
        for (_, d) in deltas {
            cur += d;
            peak = peak.max(cur);
        }
        peak as usize
    }

    #[test]
    fn burst_larger_than_cap_never_exceeds_cap() {
        // Regression: waiting only for the *earliest* free_at let a burst of
        // b > cap simultaneous arrivals all dispatch at the same instant.
        let arrivals = vec![0.0; 10];
        for cap in [1, 2, 3] {
            let (_, events) = run(
                &app(),
                &arrivals,
                &PoolOptions {
                    max_concurrency: Some(cap),
                    ..PoolOptions::default()
                },
            );
            assert_eq!(events.len(), 10);
            assert!(
                peak_concurrency(&events) <= cap,
                "cap {cap} violated: peak {}",
                peak_concurrency(&events)
            );
        }
    }

    #[test]
    fn zero_cap_is_treated_as_one() {
        let s = stats(
            &app(),
            &[0.0, 0.0, 0.0],
            &PoolOptions {
                max_concurrency: Some(0),
                ..PoolOptions::default()
            },
        );
        assert_eq!(s.invocations(), 3, "requests still run, serialized");
        assert_eq!(s.queued_requests, 2);
    }

    #[test]
    fn queued_request_dispatches_at_slot_free_time() {
        // Reaping and dispatch now both happen at the (possibly waited)
        // dispatch time: the queued request starts exactly when the slot
        // holder frees, and reuses it warm — even at keep_alive 0, where
        // the holder expires the same instant it frees (expiry is
        // exclusive: `expires_at < now` reaps, equality does not).
        let slow = AppProfile::new("slow", 10.0, 0.1, 100.0, 128.0);
        let options = PoolOptions {
            keep_alive_secs: 0.0,
            max_concurrency: Some(1),
            ..PoolOptions::default()
        };
        let (s, events) = run(&slow, &[0.0, 1.0], &options);
        assert_eq!(s.cold_starts, 1);
        assert_eq!(s.warm_starts, 1);
        assert_eq!(s.queued_requests, 1);
        assert_eq!(events[1].arrival, 1.0);
        assert!(
            (events[1].start - events[0].finish).abs() < 1e-12,
            "queued request starts exactly when the slot frees"
        );
        // A third arrival after the pool drains and keep-alive (0 s)
        // elapses must cold-start: the expired instance is not revived.
        let late = stats(&slow, &[0.0, 1.0, 500.0], &options);
        assert_eq!(late.cold_starts, 2);
        assert_eq!(late.warm_starts, 1);
    }

    #[test]
    fn expiry_boundary_is_exclusive() {
        // The pinned boundary: an idle instance whose keep-alive runs out at
        // *exactly* the arrival instant (`expires_at == now`) is still warm;
        // one that expired any earlier (`expires_at < now`) is reaped. With
        // keep_alive 0, an instance freeing at time `f` expires at `f` too,
        // so an arrival at exactly `f` reuses it and an arrival at
        // `f + ε` cold-starts.
        let a = app();
        let cold_e2e = Platform::default()
            .cold_invocation(&a, StartMode::Standard)
            .e2e_secs();
        let options = PoolOptions {
            keep_alive_secs: 0.0,
            ..PoolOptions::default()
        };
        for (arrivals, expect_warm) in [
            (vec![0.0, cold_e2e], 1u64),        // expires_at == now: kept
            (vec![0.0, cold_e2e + 1e-9], 0u64), // expires_at < now: reaped
        ] {
            assert_eq!(
                stats(&a, &arrivals, &options).warm_starts,
                expect_warm,
                "{arrivals:?}"
            );
        }
    }

    #[test]
    fn malformed_arrivals_are_a_typed_error() {
        let platform = Platform::default();
        let options = PoolOptions::default();
        let simulate = |arrivals: &[f64]| {
            simulate_pool_ext_stream_traced(
                &platform,
                &app(),
                arrivals.iter().copied(),
                &options,
                |_| {},
            )
        };
        let err = simulate(&[0.0, 10.0, 5.0]).expect_err("unsorted arrivals must be rejected");
        assert_eq!(
            err,
            PoolError::UnsortedArrivals {
                index: 2,
                previous: 10.0,
                found: 5.0
            }
        );
        assert!(err.to_string().contains("sorted ascending"));
        let nan = simulate(&[0.0, f64::NAN]).expect_err("NaN arrivals must be rejected");
        assert_eq!(nan, PoolError::NanArrival { index: 1 });
        assert!(simulate(&[0.0, 0.0, 3.5]).is_ok(), "ties are sorted");
    }

    #[test]
    fn trimming_and_provisioning_are_complementary() {
        // Debloating reduces the per-cold-start bill; provisioning reduces
        // cold-start *count* — both improve E2E but provisioning costs
        // standing money.
        let arrivals: Vec<f64> = (0..50).map(|i| i as f64 * 2400.0).collect();
        let trimmed = AppProfile::new("demo-trim", 100.0, 0.3, 0.2, 380.0);
        let base = stats(&app(), &arrivals, &PoolOptions::default());
        let trim_only = stats(&trimmed, &arrivals, &PoolOptions::default());
        assert!(trim_only.total_cost() < base.total_cost());
        assert!(trim_only.total_e2e_secs < base.total_e2e_secs);
    }
}
