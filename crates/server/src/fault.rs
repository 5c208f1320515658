//! Deterministic fault injection and fault-domain machinery: seeded
//! [`FaultPlan`]s, the compiled-in [`FaultInjector`] the hot paths
//! consult, the supervision [`CircuitBreaker`], and the poison-immune
//! lock helper every shared-state guard in this crate goes through.
//!
//! # Determinism contract
//!
//! A [`FaultPlan`] is a pure value, exactly like
//! [`crate::workload::WorkloadSpec`]: every injection decision is a
//! SplitMix64 hash of `(seed, site, per-site counter)`, so the *n*-th
//! draw at a given site always lands the same way regardless of thread
//! interleaving across sites. Replaying a trace against a server built
//! with the same plan therefore injects the same fault sequence per
//! site — a chaos run is replayable byte for byte.
//!
//! # Injection-point map
//!
//! | site      | layer                       | faults drawn                |
//! |-----------|-----------------------------|-----------------------------|
//! | `engine`  | worker batch loop, at the   | panic, artificial latency,  |
//! |           | engine-stage boundary       | allocation failure          |
//! | `socket`  | TCP connection loop, per    | connection reset, write     |
//! |           | command line                | stall                       |
//!
//! Every site is compiled into the real code path; with no plan
//! configured the [`FaultInjector`] handle is a `None` and the check is
//! one branch.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks a mutex, recovering the guard even if a previous holder
/// panicked. Every value guarded this way is kept consistent by
/// construction (single-assignment publishes, append-only counters), so
/// a poisoned flag carries no information beyond "a neighbor crashed" —
/// and one crash must never wedge a neighbor.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// SplitMix64 — the same finalizer [`blockgnn_graph::generate::Rng64`]
/// uses, applied statelessly to a composed key so draws are a pure
/// function of `(seed, site, counter)`.
pub(crate) fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything that determines an injected fault sequence. Same plan →
/// same per-site fault decisions, byte for byte.
///
/// Rates are per-mille of draws at the site; budgets (`max_*`) cap how
/// many of a fault kind ever fire (0 = unlimited). Engine-site draws
/// stack their rates: a roll under `panic_permille` panics, under
/// `panic + latency` sleeps, under `panic + latency + alloc` fails the
/// batch with a typed allocation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the stateless SplitMix64 stream every decision hashes.
    pub seed: u64,
    /// Worker panics per 1000 engine-stage draws.
    pub panic_permille: u32,
    /// Cap on injected panics (0 = unlimited).
    pub max_panics: u32,
    /// Artificial latency injections per 1000 engine-stage draws.
    pub latency_permille: u32,
    /// Duration of one injected latency stall, microseconds.
    pub latency_us: u64,
    /// Simulated allocation failures per 1000 engine-stage draws.
    pub alloc_permille: u32,
    /// Connection resets per 1000 socket draws (one draw per command
    /// line).
    pub reset_permille: u32,
    /// Cap on injected resets (0 = unlimited).
    pub max_resets: u32,
    /// Write stalls per 1000 socket draws.
    pub stall_permille: u32,
    /// Duration of one injected socket stall, microseconds.
    pub stall_us: u64,
}

impl FaultPlan {
    /// A plan with the given seed and every rate zero — a no-op until
    /// rates are set (useful for measuring injection-point overhead).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            panic_permille: 0,
            max_panics: 0,
            latency_permille: 0,
            latency_us: 500,
            alloc_permille: 0,
            reset_permille: 0,
            max_resets: 0,
            stall_permille: 0,
            stall_us: 1000,
        }
    }

    /// Sets the worker-panic rate and budget (0 budget = unlimited).
    #[must_use]
    pub fn with_panics(mut self, permille: u32, max: u32) -> Self {
        self.panic_permille = permille;
        self.max_panics = max;
        self
    }

    /// Sets the artificial-latency rate and stall length.
    #[must_use]
    pub fn with_latency(mut self, permille: u32, stall_us: u64) -> Self {
        self.latency_permille = permille;
        self.latency_us = stall_us;
        self
    }

    /// Sets the simulated allocation-failure rate.
    #[must_use]
    pub fn with_alloc_failures(mut self, permille: u32) -> Self {
        self.alloc_permille = permille;
        self
    }

    /// Sets the connection-reset rate and budget (0 budget = unlimited).
    #[must_use]
    pub fn with_resets(mut self, permille: u32, max: u32) -> Self {
        self.reset_permille = permille;
        self.max_resets = max;
        self
    }

    /// Sets the socket write-stall rate and stall length.
    #[must_use]
    pub fn with_stalls(mut self, permille: u32, stall_us: u64) -> Self {
        self.stall_permille = permille;
        self.stall_us = stall_us;
        self
    }

    /// Parses the compact `key=value[,key=value…]` spec the
    /// `blockgnn-serve --faults` flag carries, e.g.
    /// `seed=0xFA17,panic=40,max_panics=3,reset=30,max_resets=5`.
    ///
    /// Keys: `seed` (decimal or `0x` hex), `panic`, `max_panics`,
    /// `latency`, `latency_us`, `alloc`, `reset`, `max_resets`,
    /// `stall`, `stall_us`. Rates are per-mille and clamped to 1000.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending field; parsing
    /// never panics, however garbled the input.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new(0xFA17_5EED);
        if spec.trim().is_empty() {
            return Err("empty fault plan".into());
        }
        for field in spec.split(',') {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("fault-plan field {field:?} is not key=value"))?;
            let permille = |v: &str| -> Result<u32, String> {
                v.parse::<u32>()
                    .map(|p| p.min(1000))
                    .map_err(|_| format!("bad fault-plan rate {v:?} for {key}"))
            };
            let count = |v: &str| -> Result<u32, String> {
                v.parse::<u32>().map_err(|_| format!("bad fault-plan count {v:?} for {key}"))
            };
            let micros = |v: &str| -> Result<u64, String> {
                v.parse::<u64>().map_err(|_| format!("bad fault-plan micros {v:?} for {key}"))
            };
            match key {
                "seed" => {
                    let parsed =
                        match value.strip_prefix("0x").or_else(|| value.strip_prefix("0X")) {
                            Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
                            None => value.parse().ok(),
                        };
                    plan.seed =
                        parsed.ok_or_else(|| format!("bad fault-plan seed {value:?}"))?;
                }
                "panic" => plan.panic_permille = permille(value)?,
                "max_panics" => plan.max_panics = count(value)?,
                "latency" => plan.latency_permille = permille(value)?,
                "latency_us" => plan.latency_us = micros(value)?,
                "alloc" => plan.alloc_permille = permille(value)?,
                "reset" => plan.reset_permille = permille(value)?,
                "max_resets" => plan.max_resets = count(value)?,
                "stall" => plan.stall_permille = permille(value)?,
                "stall_us" => plan.stall_us = micros(value)?,
                other => return Err(format!("unknown fault-plan key {other:?}")),
            }
        }
        Ok(plan)
    }
}

/// What an engine-stage draw decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineFault {
    /// Proceed normally.
    None,
    /// Panic the worker mid-batch (the supervision path's test vector).
    Panic,
    /// Sleep for the given stall before executing.
    Latency(Duration),
    /// Fail the batch with a typed allocation error (no crash).
    AllocFail,
}

/// What a socket draw decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketFault {
    /// Proceed normally.
    None,
    /// Drop the connection without replying (a TCP reset, as the client
    /// sees it).
    Reset,
    /// Sleep for the given stall before replying.
    Stall(Duration),
}

/// Per-site decision state: a draw counter and how many faults of each
/// budgeted kind have fired.
#[derive(Debug, Default)]
struct SiteState {
    draws: AtomicU64,
    fired: AtomicU32,
}

#[derive(Debug)]
struct InjectorInner {
    plan: FaultPlan,
    engine: SiteState,
    socket: SiteState,
}

/// The handle the hot paths consult. Cloning is cheap; a disabled
/// injector is a `None` and every check is a single branch.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    inner: Option<Arc<InjectorInner>>,
}

/// Site salts: distinct per injection point so each site sees an
/// independent deterministic stream from one seed.
const SITE_ENGINE: u64 = 0x1111_1111_1111_1111;
const SITE_SOCKET: u64 = 0x2222_2222_2222_2222;

impl FaultInjector {
    /// An injector that never fires — the default, and free.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An injector executing the given plan.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            inner: Some(Arc::new(InjectorInner {
                plan,
                engine: SiteState::default(),
                socket: SiteState::default(),
            })),
        }
    }

    /// Whether a plan is loaded (even an all-zero-rate one).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Draws one engine-stage decision. Called by the worker loop at
    /// the batch's engine boundary.
    #[must_use]
    pub fn engine_fault(&self) -> EngineFault {
        let Some(inner) = &self.inner else { return EngineFault::None };
        let plan = &inner.plan;
        let stacked = plan.panic_permille + plan.latency_permille + plan.alloc_permille;
        if stacked == 0 {
            return EngineFault::None;
        }
        let n = inner.engine.draws.fetch_add(1, Ordering::Relaxed);
        let roll = (splitmix(plan.seed ^ SITE_ENGINE ^ n) % 1000) as u32;
        if roll < plan.panic_permille {
            if Self::budget_ok(&inner.engine.fired, plan.max_panics) {
                return EngineFault::Panic;
            }
            return EngineFault::None;
        }
        if roll < plan.panic_permille + plan.latency_permille {
            return EngineFault::Latency(Duration::from_micros(plan.latency_us));
        }
        if roll < stacked {
            return EngineFault::AllocFail;
        }
        EngineFault::None
    }

    /// Draws one socket decision. Called by the TCP connection loop once
    /// per command line.
    #[must_use]
    pub fn socket_fault(&self) -> SocketFault {
        let Some(inner) = &self.inner else { return SocketFault::None };
        let plan = &inner.plan;
        if plan.reset_permille + plan.stall_permille == 0 {
            return SocketFault::None;
        }
        let n = inner.socket.draws.fetch_add(1, Ordering::Relaxed);
        let roll = (splitmix(plan.seed ^ SITE_SOCKET ^ n) % 1000) as u32;
        if roll < plan.reset_permille {
            if Self::budget_ok(&inner.socket.fired, plan.max_resets) {
                return SocketFault::Reset;
            }
            return SocketFault::None;
        }
        if roll < plan.reset_permille + plan.stall_permille {
            return SocketFault::Stall(Duration::from_micros(plan.stall_us));
        }
        SocketFault::None
    }

    /// Claims one unit of a budget; `max == 0` means unlimited.
    fn budget_ok(fired: &AtomicU32, max: u32) -> bool {
        if max == 0 {
            fired.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        fired
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| (n < max).then_some(n + 1))
            .is_ok()
    }
}

/// The supervision circuit breaker: opens (pool degraded) once
/// `threshold` crashes land within `window`, and closes again after
/// `cooldown` passes with no further crash. Time is injected, so the
/// state machine is a pure function of the crash instants — tests drive
/// it deterministically with synthetic clocks.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: usize,
    window: Duration,
    cooldown: Duration,
    crashes: VecDeque<Instant>,
    open_until: Option<Instant>,
}

impl CircuitBreaker {
    /// A breaker that opens at `threshold` crashes within `window` and
    /// closes `cooldown` after the last crash.
    #[must_use]
    pub fn new(threshold: usize, window: Duration, cooldown: Duration) -> Self {
        Self {
            threshold: threshold.max(1),
            window,
            cooldown,
            crashes: VecDeque::new(),
            open_until: None,
        }
    }

    /// Records a crash at `now`; returns whether the breaker is open
    /// afterwards.
    pub fn record_crash(&mut self, now: Instant) -> bool {
        self.crashes.push_back(now);
        while self.crashes.front().is_some_and(|&t| now.duration_since(t) > self.window) {
            self.crashes.pop_front();
        }
        if self.crashes.len() >= self.threshold {
            self.open_until = Some(now + self.cooldown);
        }
        self.is_open(now)
    }

    /// Whether the breaker is open (pool degraded) at `now`. Reaching
    /// the cooldown boundary closes it and clears the crash history.
    pub fn is_open(&mut self, now: Instant) -> bool {
        if let Some(until) = self.open_until {
            if now >= until {
                self.open_until = None;
                self.crashes.clear();
            }
        }
        self.open_until.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pinned chaos plan the CI `chaos` lane drives (its `--faults`
    /// spec): a handful of worker panics and connection resets plus
    /// background latency, all from one frozen seed.
    fn ci_chaos() -> FaultPlan {
        FaultPlan::new(0xC4A0_5F17)
            .with_panics(120, 6)
            .with_latency(40, 400)
            .with_alloc_failures(20)
            .with_resets(60, 8)
            .with_stalls(20, 800)
    }

    #[test]
    fn plans_parse_and_round_trip_the_ci_spec() {
        let plan = FaultPlan::parse(
            "seed=0xC4A0_5F17,panic=120,max_panics=6,latency=40,latency_us=400,\
             alloc=20,reset=60,max_resets=8,stall=20,stall_us=800",
        )
        .unwrap();
        assert_eq!(plan, ci_chaos());
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("panic=abc").is_err());
        assert!(FaultPlan::parse("seed=0xZZ").is_err());
        assert!(FaultPlan::parse("warp=9").is_err());
        // Rates clamp rather than reject.
        assert_eq!(FaultPlan::parse("panic=5000").unwrap().panic_permille, 1000);
    }

    #[test]
    fn draws_are_deterministic_per_site() {
        let a = FaultInjector::new(ci_chaos());
        let b = FaultInjector::new(ci_chaos());
        let seq_a: Vec<EngineFault> = (0..200).map(|_| a.engine_fault()).collect();
        let seq_b: Vec<EngineFault> = (0..200).map(|_| b.engine_fault()).collect();
        assert_eq!(seq_a, seq_b, "same plan → same engine fault sequence");
        let socket_a: Vec<SocketFault> = (0..200).map(|_| a.socket_fault()).collect();
        let socket_b: Vec<SocketFault> = (0..200).map(|_| b.socket_fault()).collect();
        assert_eq!(socket_a, socket_b, "same plan → same socket fault sequence");
        // Budgets cap the panics and resets.
        let panics = seq_a.iter().filter(|f| **f == EngineFault::Panic).count();
        assert_eq!(panics, 6, "panic budget of the CI plan");
        let resets = socket_a.iter().filter(|f| **f == SocketFault::Reset).count();
        assert!(resets <= 8, "reset budget of the CI plan");
        assert!(seq_a.contains(&EngineFault::Panic));
        assert!(seq_a.contains(&EngineFault::Latency(Duration::from_micros(400))));
    }

    #[test]
    fn disabled_injector_never_fires() {
        let off = FaultInjector::disabled();
        assert!(!off.enabled());
        for _ in 0..50 {
            assert_eq!(off.engine_fault(), EngineFault::None);
            assert_eq!(off.socket_fault(), SocketFault::None);
        }
        // A zero-rate plan is also a no-op (the overhead-lane config).
        let zero = FaultInjector::new(FaultPlan::new(1));
        assert!(zero.enabled());
        for _ in 0..50 {
            assert_eq!(zero.engine_fault(), EngineFault::None);
            assert_eq!(zero.socket_fault(), SocketFault::None);
        }
    }

    #[test]
    fn breaker_opens_and_closes_deterministically() {
        let window = Duration::from_secs(1);
        let cooldown = Duration::from_secs(2);
        let mut breaker = CircuitBreaker::new(3, window, cooldown);
        let t0 = Instant::now();
        assert!(!breaker.is_open(t0));
        assert!(!breaker.record_crash(t0), "1 of 3");
        assert!(!breaker.record_crash(t0 + Duration::from_millis(100)), "2 of 3");
        assert!(breaker.record_crash(t0 + Duration::from_millis(200)), "3rd crash opens");
        assert!(breaker.is_open(t0 + Duration::from_millis(300)));
        // Still open until the cooldown since the last crash passes…
        let last = t0 + Duration::from_millis(200);
        assert!(breaker.is_open(last + cooldown - Duration::from_millis(1)));
        // … and closed exactly at it, with history cleared.
        assert!(!breaker.is_open(last + cooldown));
        assert!(!breaker.record_crash(last + cooldown + window), "history was cleared");
        // Spread-out crashes outside the window never open it.
        let mut slow = CircuitBreaker::new(2, window, cooldown);
        assert!(!slow.record_crash(t0));
        assert!(!slow.record_crash(t0 + window * 2), "window pruned the first crash");
    }

    #[test]
    fn poisoned_locks_recover() {
        let shared = Arc::new(Mutex::new(7u32));
        let poisoner = Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(shared.is_poisoned(), "the panic poisoned the mutex");
        assert_eq!(*lock_recover(&shared), 7, "lock_recover reads through the poison");
        *lock_recover(&shared) = 9;
        assert_eq!(*lock_recover(&shared), 9);
    }
}
