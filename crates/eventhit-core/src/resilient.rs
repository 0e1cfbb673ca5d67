//! The resilient CI client: retry/backoff, circuit breaking, deadlines,
//! and graceful degradation around the faulty channel of [`crate::faults`].
//!
//! Everything runs on *simulated* wall-clock seconds (the discrete-event
//! convention of [`crate::ci_queue`]) and a dedicated RNG stream for
//! backoff jitter, so a submission's entire retry schedule is a pure
//! function of `(seed, submission order)` — faulted runs replay
//! bit-identically.
//!
//! The pieces:
//!
//! * [`RetryPolicy`] — capped exponential backoff with decorrelated
//!   jitter (the AWS architecture-blog discipline) plus a bounded
//!   per-submission retry budget.
//! * [`CircuitBreaker`] — the classic closed → open → half-open machine:
//!   consecutive failures trip it open, a cool-down admits probe
//!   requests, and enough probe successes close it again.
//! * [`ResilientCiClient`] — wraps a [`FaultInjector`] with the policy,
//!   the breaker, and a per-submission deadline, and degrades gracefully
//!   (dead-letter, defer, or local-only fallback) when delivery is
//!   impossible.

use std::sync::Arc;

use eventhit_rng::rngs::StdRng;
use eventhit_rng::Rng;
use eventhit_telemetry::{percentile, Telemetry};
use eventhit_video::detector::StageModel;

use crate::error::CoreError;
use crate::faults::{AttemptOutcome, FaultConfig, FaultInjector, FaultKind};

/// RNG stream id for backoff jitter (distinct from the fault stream).
pub const JITTER_STREAM_ID: u64 = 0xB0_FF;

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

/// Capped exponential backoff with decorrelated jitter and a bounded
/// retry budget.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// First backoff delay (seconds).
    pub base_delay: f64,
    /// Hard cap on any single backoff delay (seconds).
    pub max_delay: f64,
    /// Maximum attempts per submission (1 = no retries).
    pub max_attempts: u32,
    /// Maximum cumulative backoff seconds per submission; once spent, no
    /// further retries regardless of `max_attempts`.
    pub retry_budget: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_delay: 0.5,
            max_delay: 30.0,
            max_attempts: 4,
            retry_budget: 60.0,
        }
    }
}

impl RetryPolicy {
    /// The deterministic cap on the delay before retry number `retry`
    /// (1-based): `min(max_delay, base * 2^(retry-1))`. Monotone
    /// non-decreasing in `retry`.
    pub fn cap_for(&self, retry: u32) -> f64 {
        let exp = retry.saturating_sub(1).min(52);
        (self.base_delay * (1u64 << exp) as f64).min(self.max_delay)
    }

    /// Samples the decorrelated-jitter delay for the next retry:
    /// `min(cap, uniform(base, 3 * prev))`, never below
    /// `min(base, max_delay)` and never above [`RetryPolicy::cap_for`].
    /// `prev` is the previous delay (pass `base_delay` before the first
    /// retry).
    pub fn backoff(&self, retry: u32, prev: f64, rng: &mut StdRng) -> f64 {
        let cap = self.cap_for(retry);
        let lo = self.base_delay.min(cap);
        let hi = (3.0 * prev.max(self.base_delay)).min(cap).max(lo);
        if hi <= lo {
            return lo;
        }
        rng.random_range(lo..=hi)
    }

    /// Validates the policy's domains.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.base_delay.is_finite() && self.base_delay > 0.0) {
            return Err(CoreError::InvalidConfig(format!(
                "base_delay = {} must be finite and positive",
                self.base_delay
            )));
        }
        if !(self.max_delay.is_finite() && self.max_delay >= self.base_delay) {
            return Err(CoreError::InvalidConfig(format!(
                "max_delay = {} must be >= base_delay",
                self.max_delay
            )));
        }
        if self.max_attempts == 0 {
            return Err(CoreError::InvalidConfig(
                "max_attempts must be at least 1".into(),
            ));
        }
        if !(self.retry_budget.is_finite() && self.retry_budget >= 0.0) {
            return Err(CoreError::InvalidConfig(format!(
                "retry_budget = {} must be finite and non-negative",
                self.retry_budget
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// Circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// Requests are rejected without touching the network.
    Open,
    /// Cool-down elapsed: probe requests are admitted one at a time.
    HalfOpen,
}

/// Circuit-breaker thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures (while closed) that trip the breaker.
    pub failure_threshold: u32,
    /// Seconds the breaker stays open before admitting probes.
    pub open_seconds: f64,
    /// Probe successes (while half-open) required to close again.
    pub close_threshold: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            open_seconds: 30.0,
            close_threshold: 2,
        }
    }
}

/// The closed → open → half-open machine. Purely time-driven on the
/// simulated clock: no background threads, every transition happens
/// inside [`CircuitBreaker::allow`] / `on_success` / `on_failure`.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    probe_successes: u32,
    opened_at: f64,
    /// Every state transition as `(sim_time, new_state)`, for tests and
    /// reports.
    pub transitions: Vec<(f64, BreakerState)>,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            probe_successes: 0,
            opened_at: 0.0,
            transitions: Vec::new(),
        }
    }

    /// Current state, after applying any cool-down transition due at `now`.
    pub fn state_at(&mut self, now: f64) -> BreakerState {
        if self.state == BreakerState::Open && now - self.opened_at >= self.cfg.open_seconds {
            self.transition(now, BreakerState::HalfOpen);
            self.probe_successes = 0;
        }
        self.state
    }

    /// True iff a request may be issued at `now`.
    pub fn allow(&mut self, now: f64) -> bool {
        self.state_at(now) != BreakerState::Open
    }

    /// Records a successful request finishing at `now`.
    pub fn on_success(&mut self, now: f64) {
        self.consecutive_failures = 0;
        if self.state_at(now) == BreakerState::HalfOpen {
            self.probe_successes += 1;
            if self.probe_successes >= self.cfg.close_threshold {
                self.transition(now, BreakerState::Closed);
            }
        }
    }

    /// Records a failed request finishing at `now`.
    pub fn on_failure(&mut self, now: f64) {
        match self.state_at(now) {
            // A failed probe re-opens immediately: the service is still
            // down, restart the cool-down.
            BreakerState::HalfOpen => {
                self.opened_at = now;
                self.transition(now, BreakerState::Open);
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.cfg.failure_threshold {
                    self.opened_at = now;
                    self.transition(now, BreakerState::Open);
                }
            }
            BreakerState::Open => {}
        }
    }

    fn transition(&mut self, now: f64, to: BreakerState) {
        self.state = to;
        self.transitions.push((now, to));
    }
}

// ---------------------------------------------------------------------------
// Degradation
// ---------------------------------------------------------------------------

/// What to do with a submission that cannot be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationMode {
    /// Drop the segment and log it to the dead-letter queue; its frames
    /// are lost and any event they covered becomes a fault-attributed
    /// miss.
    DropDeadLetter,
    /// Requeue the segment onto the next horizon's submission (one extra
    /// chance); if that fails too, dead-letter it.
    DeferNextHorizon,
    /// Trust the local C-REGRESS interval without CI confirmation: the
    /// segment counts as covered, flagged unconfirmed.
    LocalOnly,
}

/// How a decision was (or wasn't) degraded — carried on relay decisions
/// so downstream consumers can tell a clean verdict from a compromised
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradationTag {
    /// Delivered first try.
    #[default]
    None,
    /// Delivered after `retries` retries.
    Retried {
        /// Number of retries (attempts − 1).
        retries: u32,
    },
    /// Dropped to the dead-letter queue.
    Dropped,
    /// Deferred to the next horizon.
    Deferred,
    /// Served locally without CI confirmation.
    LocalOnly,
}

/// Why a submission could not be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReason {
    /// The breaker was open when the submission arrived.
    CircuitOpen,
    /// The per-submission deadline elapsed mid-retry.
    DeadlineExceeded,
    /// All attempts (or the whole retry budget) were spent.
    RetriesExhausted,
}

impl From<FailReason> for CoreError {
    fn from(r: FailReason) -> CoreError {
        match r {
            FailReason::CircuitOpen => CoreError::CircuitOpen,
            FailReason::DeadlineExceeded => CoreError::DeadlineExceeded { deadline: f64::NAN },
            FailReason::RetriesExhausted => CoreError::RetriesExhausted { attempts: 0 },
        }
    }
}

/// A dead-lettered submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadLetter {
    /// Simulated second the submission was abandoned.
    pub abandoned_at: f64,
    /// Frames that were never delivered.
    pub frames: u64,
    /// Why delivery failed.
    pub reason: FailReason,
}

/// Outcome of one resilient submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubmissionOutcome {
    /// Delivered to the CI.
    Delivered {
        /// Seconds lost to failed attempts and backoff before the
        /// successful attempt started.
        wasted: f64,
        /// Service seconds of the successful attempt (inflation included).
        service: f64,
        /// Total attempts made (≥ 1).
        attempts: u32,
    },
    /// Not delivered; handled according to the degradation mode.
    Degraded {
        /// How the submission was degraded.
        mode: DegradationMode,
        /// Attempts made before giving up (0 when the breaker rejected).
        attempts: u32,
        /// Why delivery failed.
        reason: FailReason,
    },
}

impl SubmissionOutcome {
    /// The degradation tag this outcome puts on the decision.
    pub fn tag(&self) -> DegradationTag {
        match *self {
            SubmissionOutcome::Delivered { attempts: 1, .. } => DegradationTag::None,
            SubmissionOutcome::Delivered { attempts, .. } => DegradationTag::Retried {
                retries: attempts - 1,
            },
            SubmissionOutcome::Degraded { mode, .. } => match mode {
                DegradationMode::DropDeadLetter => DegradationTag::Dropped,
                DegradationMode::DeferNextHorizon => DegradationTag::Deferred,
                DegradationMode::LocalOnly => DegradationTag::LocalOnly,
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Running counters and latency samples for one resilient client.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceStats {
    /// Submissions issued.
    pub submissions: u64,
    /// Submissions delivered.
    pub delivered: u64,
    /// Submissions degraded (not delivered).
    pub degraded: u64,
    /// Total attempts across all submissions.
    pub attempts: u64,
    /// Total retries (attempts beyond each submission's first).
    pub retries: u64,
    /// Faults observed, by kind: transient, timeout, throttled, outage.
    pub faults: [u64; 4],
    /// Submissions rejected outright by the open breaker.
    pub breaker_rejections: u64,
    /// Submissions that blew their deadline.
    pub deadline_blown: u64,
    /// Frames submitted / delivered / dropped / served locally.
    pub frames_submitted: u64,
    /// Frames the CI actually received.
    pub frames_delivered: u64,
    /// Frames abandoned to the dead-letter queue.
    pub frames_dropped: u64,
    /// Frames served by the local-only fallback.
    pub frames_local: u64,
    /// End-to-end latency (wasted + service) of each delivered
    /// submission, in submission order.
    pub latencies: Vec<f64>,
}

impl ResilienceStats {
    /// Fraction of submissions delivered; 1.0 when nothing was submitted.
    pub fn availability(&self) -> f64 {
        if self.submissions == 0 {
            1.0
        } else {
            self.delivered as f64 / self.submissions as f64
        }
    }

    /// Latency quantile over delivered submissions (q in [0, 1]); `None`
    /// when nothing was delivered.
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        let mut sorted = self.latencies.clone();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, q)
    }

    /// `(p50, p95, p99)` faulted latency; `None` when nothing delivered.
    pub fn latency_percentiles(&self) -> Option<(f64, f64, f64)> {
        Some((
            self.latency_quantile(0.50)?,
            self.latency_quantile(0.95)?,
            self.latency_quantile(0.99)?,
        ))
    }

    fn record_fault(&mut self, kind: FaultKind) {
        let idx = match kind {
            FaultKind::Transient => 0,
            FaultKind::Timeout => 1,
            FaultKind::Throttled => 2,
            FaultKind::Outage => 3,
        };
        self.faults[idx] += 1;
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Full configuration of the resilient layer.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Retry/backoff policy.
    pub retry: RetryPolicy,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// End-to-end deadline per submission (seconds of simulated time from
    /// submission to delivery).
    pub deadline: f64,
    /// What to do with undeliverable submissions.
    pub degradation: DegradationMode,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            deadline: 120.0,
            degradation: DegradationMode::DropDeadLetter,
        }
    }
}

impl ResilienceConfig {
    /// Validates the nested policies and the deadline.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.retry.validate()?;
        if !(self.deadline.is_finite() && self.deadline > 0.0) {
            return Err(CoreError::InvalidConfig(format!(
                "deadline = {} must be finite and positive",
                self.deadline
            )));
        }
        if !(self.breaker.open_seconds.is_finite() && self.breaker.open_seconds >= 0.0) {
            return Err(CoreError::InvalidConfig(format!(
                "breaker open_seconds = {} must be finite and non-negative",
                self.breaker.open_seconds
            )));
        }
        if self.breaker.failure_threshold == 0 || self.breaker.close_threshold == 0 {
            return Err(CoreError::InvalidConfig(
                "breaker thresholds must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// The resilient CI submission client: faults in, typed outcomes out.
#[derive(Debug, Clone)]
pub struct ResilientCiClient {
    cfg: ResilienceConfig,
    service: StageModel,
    injector: FaultInjector,
    breaker: CircuitBreaker,
    jitter: StdRng,
    /// Running counters and latency samples.
    pub stats: ResilienceStats,
    /// Abandoned submissions, in abandonment order.
    pub dead_letters: Vec<DeadLetter>,
    telemetry: Option<Arc<Telemetry>>,
}

/// Stable label for a fault kind (counter label on `ci.faults`).
fn fault_label(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Transient => "transient",
        FaultKind::Timeout => "timeout",
        FaultKind::Throttled => "throttled",
        FaultKind::Outage => "outage",
    }
}

/// Stable label for a breaker state (counter label on
/// `ci.breaker_transitions`).
fn breaker_label(state: BreakerState) -> &'static str {
    match state {
        BreakerState::Closed => "closed",
        BreakerState::Open => "open",
        BreakerState::HalfOpen => "half_open",
    }
}

/// Stable label for a degradation mode (counter label on `ci.degraded`).
fn degradation_label(mode: DegradationMode) -> &'static str {
    match mode {
        DegradationMode::DropDeadLetter => "drop_dead_letter",
        DegradationMode::DeferNextHorizon => "defer_next_horizon",
        DegradationMode::LocalOnly => "local_only",
    }
}

impl ResilientCiClient {
    /// Builds a client over the given fault profile and CI service model.
    /// All randomness (faults and jitter) derives from `seed` on streams
    /// disjoint from the pipeline's.
    pub fn new(
        faults: FaultConfig,
        cfg: ResilienceConfig,
        service: StageModel,
        seed: u64,
    ) -> Result<Self, CoreError> {
        faults.validate()?;
        cfg.validate()?;
        Ok(ResilientCiClient {
            breaker: CircuitBreaker::new(cfg.breaker.clone()),
            cfg,
            service,
            injector: FaultInjector::new(faults, seed),
            jitter: StdRng::stream(seed, JITTER_STREAM_ID),
            stats: ResilienceStats::default(),
            dead_letters: Vec::new(),
            telemetry: None,
        })
    }

    /// Attaches a telemetry recorder: each submission then records the
    /// `ci.submissions` / `ci.delivered` / `ci.retries` counters, faults
    /// by kind (`ci.faults{transient,…}`), breaker transitions by target
    /// state, degradations by mode, and delivered latencies into the
    /// `ci.latency_seconds` histogram. With a manual-clock recorder the
    /// client also advances the clock to each submission's `now`.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// The configured per-submission deadline (seconds).
    pub fn config_deadline(&self) -> f64 {
        self.cfg.deadline
    }

    /// The fault trace accumulated so far (bit-reproducible from the seed).
    pub fn fault_trace(&self) -> &crate::faults::FaultTrace {
        &self.injector.trace
    }

    /// The breaker's transition history `(sim_time, new_state)`.
    pub fn breaker_transitions(&self) -> &[(f64, BreakerState)] {
        &self.breaker.transitions
    }

    /// Submits `frames` frames at simulated time `now`. Runs the full
    /// retry/breaker/deadline pipeline and returns how the submission
    /// ended. Zero-frame submissions deliver instantly without touching
    /// the channel.
    pub fn submit(&mut self, frames: u64, now: f64) -> SubmissionOutcome {
        let Some(tel) = self.telemetry.clone() else {
            return self.submit_inner(frames, now);
        };
        tel.set_time(now);
        let _sub = tel.span("ci.submit");
        // Diff the running stats around the inner pipeline rather than
        // threading the recorder through the retry loop.
        let faults_before = self.stats.faults;
        let retries_before = self.stats.retries;
        let rejections_before = self.stats.breaker_rejections;
        let transitions_before = self.breaker.transitions.len();

        let out = self.submit_inner(frames, now);

        tel.add("ci.submissions", 1);
        match out {
            SubmissionOutcome::Delivered {
                wasted, service, ..
            } => {
                tel.add("ci.delivered", 1);
                tel.observe("ci.latency_seconds", wasted + service);
            }
            SubmissionOutcome::Degraded { mode, .. } => {
                tel.add_labeled("ci.degraded", degradation_label(mode), 1);
            }
        }
        for (kind, (&after, &before)) in [
            FaultKind::Transient,
            FaultKind::Timeout,
            FaultKind::Throttled,
            FaultKind::Outage,
        ]
        .into_iter()
        .zip(self.stats.faults.iter().zip(&faults_before))
        {
            if after > before {
                tel.add_labeled("ci.faults", fault_label(kind), after - before);
            }
        }
        if self.stats.retries > retries_before {
            tel.add("ci.retries", self.stats.retries - retries_before);
        }
        if self.stats.breaker_rejections > rejections_before {
            tel.add(
                "ci.breaker_rejections",
                self.stats.breaker_rejections - rejections_before,
            );
        }
        for &(_, state) in &self.breaker.transitions[transitions_before..] {
            tel.add_labeled("ci.breaker_transitions", breaker_label(state), 1);
        }
        out
    }

    fn submit_inner(&mut self, frames: u64, now: f64) -> SubmissionOutcome {
        self.stats.submissions += 1;
        self.stats.frames_submitted += frames;
        if frames == 0 {
            // Nothing to send: trivially delivered, no attempt consumed.
            self.stats.delivered += 1;
            self.stats.latencies.push(0.0);
            return SubmissionOutcome::Delivered {
                wasted: 0.0,
                service: 0.0,
                attempts: 1,
            };
        }

        if !self.breaker.allow(now) {
            self.stats.breaker_rejections += 1;
            return self.degrade(frames, now, 0, FailReason::CircuitOpen);
        }

        let service_nominal = self.service.seconds_for(frames);
        let mut wasted = 0.0f64;
        let mut backoff_spent = 0.0f64;
        let mut prev_delay = self.cfg.retry.base_delay;
        let mut attempts = 0u32;

        loop {
            attempts += 1;
            self.stats.attempts += 1;
            if attempts > 1 {
                self.stats.retries += 1;
            }
            let t_attempt = now + wasted;
            match self.injector.attempt(service_nominal) {
                AttemptOutcome::Success { latency } => {
                    let total = wasted + latency;
                    if total > self.cfg.deadline {
                        // Delivered too late to matter: the verdict is
                        // useless past the deadline, treat as failure.
                        self.stats.deadline_blown += 1;
                        self.breaker.on_failure(t_attempt + latency);
                        return self.degrade(
                            frames,
                            now + total,
                            attempts,
                            FailReason::DeadlineExceeded,
                        );
                    }
                    self.breaker.on_success(t_attempt + latency);
                    self.stats.delivered += 1;
                    self.stats.frames_delivered += frames;
                    self.stats.latencies.push(total);
                    return SubmissionOutcome::Delivered {
                        wasted,
                        service: latency,
                        attempts,
                    };
                }
                AttemptOutcome::Fault {
                    kind,
                    wasted: attempt_cost,
                    retry_after,
                } => {
                    self.stats.record_fault(kind);
                    wasted += attempt_cost;
                    self.breaker.on_failure(now + wasted);

                    if attempts >= self.cfg.retry.max_attempts {
                        return self.degrade(
                            frames,
                            now + wasted,
                            attempts,
                            FailReason::RetriesExhausted,
                        );
                    }
                    if !self.breaker.allow(now + wasted) {
                        // Mid-retry trip: stop hammering a dead service.
                        self.stats.breaker_rejections += 1;
                        return self.degrade(
                            frames,
                            now + wasted,
                            attempts,
                            FailReason::CircuitOpen,
                        );
                    }

                    let delay = self
                        .cfg
                        .retry
                        .backoff(attempts, prev_delay, &mut self.jitter)
                        .max(retry_after);
                    prev_delay = delay;
                    backoff_spent += delay;
                    if backoff_spent > self.cfg.retry.retry_budget {
                        return self.degrade(
                            frames,
                            now + wasted,
                            attempts,
                            FailReason::RetriesExhausted,
                        );
                    }
                    wasted += delay;
                    if wasted >= self.cfg.deadline {
                        self.stats.deadline_blown += 1;
                        return self.degrade(
                            frames,
                            now + wasted,
                            attempts,
                            FailReason::DeadlineExceeded,
                        );
                    }
                }
            }
        }
    }

    fn degrade(
        &mut self,
        frames: u64,
        at: f64,
        attempts: u32,
        reason: FailReason,
    ) -> SubmissionOutcome {
        self.stats.degraded += 1;
        match self.cfg.degradation {
            DegradationMode::DropDeadLetter => {
                self.stats.frames_dropped += frames;
                self.dead_letters.push(DeadLetter {
                    abandoned_at: at,
                    frames,
                    reason,
                });
            }
            // Deferral bookkeeping is the caller's job (it owns the next
            // horizon); frames count as dropped only if the redelivery
            // fails too, which the caller reports via `dead_letter`.
            DegradationMode::DeferNextHorizon => {}
            DegradationMode::LocalOnly => {
                self.stats.frames_local += frames;
            }
        }
        SubmissionOutcome::Degraded {
            mode: self.cfg.degradation,
            attempts,
            reason,
        }
    }

    /// Explicitly dead-letters frames (used by callers implementing
    /// deferral when the second chance fails too).
    pub fn dead_letter(&mut self, frames: u64, at: f64, reason: FailReason) {
        self.stats.frames_dropped += frames;
        self.dead_letters.push(DeadLetter {
            abandoned_at: at,
            frames,
            reason,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventhit_rng::SeedableRng;

    fn client(faults: FaultConfig, cfg: ResilienceConfig) -> ResilientCiClient {
        ResilientCiClient::new(faults, cfg, StageModel::new("ci", 10.0), 11).unwrap()
    }

    #[test]
    fn backoff_caps_are_monotone_and_bounded() {
        let p = RetryPolicy::default();
        let mut prev = 0.0;
        for retry in 1..20 {
            let cap = p.cap_for(retry);
            assert!(cap >= prev, "caps must not decrease");
            assert!(cap <= p.max_delay);
            prev = cap;
        }
        assert_eq!(p.cap_for(1), p.base_delay);
    }

    #[test]
    fn backoff_samples_respect_bounds() {
        let p = RetryPolicy {
            base_delay: 0.25,
            max_delay: 8.0,
            max_attempts: 10,
            retry_budget: 1e9,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut prev = p.base_delay;
        for retry in 1..12 {
            let d = p.backoff(retry, prev, &mut rng);
            assert!(
                d >= p.base_delay.min(p.cap_for(retry)),
                "delay {d} below floor"
            );
            assert!(d <= p.cap_for(retry) + 1e-12, "delay {d} above cap");
            prev = d;
        }
    }

    #[test]
    fn reliable_channel_delivers_first_try() {
        let mut c = client(FaultConfig::reliable(), ResilienceConfig::default());
        let out = c.submit(100, 0.0);
        assert_eq!(
            out,
            SubmissionOutcome::Delivered {
                wasted: 0.0,
                service: 10.0,
                attempts: 1
            }
        );
        assert_eq!(out.tag(), DegradationTag::None);
        assert_eq!(c.stats.availability(), 1.0);
        assert_eq!(c.stats.frames_delivered, 100);
    }

    #[test]
    fn zero_frames_deliver_without_an_attempt() {
        let mut c = client(FaultConfig::lossy(), ResilienceConfig::default());
        let out = c.submit(0, 0.0);
        assert!(matches!(out, SubmissionOutcome::Delivered { .. }));
        assert!(c.fault_trace().entries.is_empty(), "channel untouched");
    }

    #[test]
    fn transient_faults_are_retried_and_tagged() {
        // Fail the first attempts deterministically high transient prob,
        // generous retry allowance: deliveries should mostly succeed with
        // Retried tags.
        let faults = FaultConfig {
            transient_prob: 0.5,
            ..FaultConfig::reliable()
        };
        let cfg = ResilienceConfig {
            retry: RetryPolicy {
                max_attempts: 8,
                retry_budget: 1e6,
                ..RetryPolicy::default()
            },
            // Keep the breaker out of the picture: at p=0.5 a run of five
            // consecutive failed attempts is common over 50 submissions.
            breaker: BreakerConfig {
                failure_threshold: u32::MAX,
                ..BreakerConfig::default()
            },
            deadline: 1e6,
            ..ResilienceConfig::default()
        };
        let mut c = client(faults, cfg);
        let mut retried = 0;
        for i in 0..50 {
            match c.submit(10, i as f64 * 100.0) {
                SubmissionOutcome::Delivered { attempts, .. } if attempts > 1 => retried += 1,
                SubmissionOutcome::Delivered { .. } => {}
                o => panic!("with 8 attempts at p=0.5 failure is ~0.4%: {o:?}"),
            }
        }
        assert!(retried > 10, "retries happened: {retried}");
        assert_eq!(c.stats.retries as usize, c.stats.attempts as usize - 50);
        assert!(c.stats.availability() > 0.99);
    }

    #[test]
    fn permanent_outage_exhausts_retries_then_trips_breaker() {
        let faults = FaultConfig {
            p_good_to_bad: 1.0,
            p_bad_to_good: 0.0,
            bad_loss: 1.0,
            ..FaultConfig::reliable()
        };
        let mut c = client(faults, ResilienceConfig::default());
        let out = c.submit(50, 0.0);
        match out {
            SubmissionOutcome::Degraded {
                mode: DegradationMode::DropDeadLetter,
                reason,
                ..
            } => assert!(
                matches!(
                    reason,
                    FailReason::RetriesExhausted | FailReason::CircuitOpen
                ),
                "reason {reason:?}"
            ),
            o => panic!("expected degradation, got {o:?}"),
        }
        assert_eq!(out.tag(), DegradationTag::Dropped);
        assert_eq!(c.dead_letters.len(), 1);
        assert_eq!(c.stats.frames_dropped, 50);

        // Keep submitting: the breaker must eventually reject without
        // attempting (consecutive failures >= threshold).
        let mut rejected = false;
        let mut t = 1.0;
        for _ in 0..5 {
            if let SubmissionOutcome::Degraded {
                reason: FailReason::CircuitOpen,
                attempts: 0,
                ..
            } = c.submit(50, t)
            {
                rejected = true;
                break;
            }
            t += 1.0;
        }
        assert!(rejected, "breaker should open under sustained failure");
        assert!(c.stats.breaker_rejections > 0);
        assert!(c.stats.availability() < 1.0);
    }

    #[test]
    fn breaker_recovers_through_half_open() {
        let cfg = BreakerConfig {
            failure_threshold: 2,
            open_seconds: 10.0,
            close_threshold: 2,
        };
        let mut b = CircuitBreaker::new(cfg);
        assert_eq!(b.state_at(0.0), BreakerState::Closed);
        b.on_failure(1.0);
        b.on_failure(2.0);
        assert_eq!(b.state_at(2.0), BreakerState::Open);
        assert!(!b.allow(5.0), "still cooling down");
        assert!(b.allow(12.5), "cool-down elapsed admits probes");
        assert_eq!(b.state_at(12.5), BreakerState::HalfOpen);
        b.on_success(13.0);
        assert_eq!(b.state_at(13.0), BreakerState::HalfOpen);
        b.on_success(14.0);
        assert_eq!(b.state_at(14.0), BreakerState::Closed);

        // Transition log: Closed →(2.0) Open →(12.5) HalfOpen →(14.0) Closed.
        assert_eq!(
            b.transitions,
            vec![
                (2.0, BreakerState::Open),
                (12.5, BreakerState::HalfOpen),
                (14.0, BreakerState::Closed),
            ]
        );
    }

    #[test]
    fn failed_probe_reopens() {
        let cfg = BreakerConfig {
            failure_threshold: 1,
            open_seconds: 5.0,
            close_threshold: 1,
        };
        let mut b = CircuitBreaker::new(cfg);
        b.on_failure(0.0);
        assert_eq!(b.state_at(0.0), BreakerState::Open);
        assert!(b.allow(6.0));
        b.on_failure(6.0);
        assert_eq!(b.state_at(6.0), BreakerState::Open);
        assert!(!b.allow(10.0), "cool-down restarted at 6.0");
        assert!(b.allow(11.5));
    }

    #[test]
    fn local_only_mode_marks_frames_local() {
        let faults = FaultConfig {
            transient_prob: 1.0,
            ..FaultConfig::reliable()
        };
        let cfg = ResilienceConfig {
            degradation: DegradationMode::LocalOnly,
            retry: RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            },
            ..ResilienceConfig::default()
        };
        let mut c = client(faults, cfg);
        let out = c.submit(30, 0.0);
        assert_eq!(out.tag(), DegradationTag::LocalOnly);
        assert_eq!(c.stats.frames_local, 30);
        assert!(c.dead_letters.is_empty(), "local fallback is not a drop");
    }

    #[test]
    fn deadline_blows_are_counted() {
        let faults = FaultConfig {
            latency_inflation: 0.0,
            ..FaultConfig::reliable()
        };
        let cfg = ResilienceConfig {
            deadline: 1.0, // service of 100 frames at 10 fps = 10 s > 1 s
            ..ResilienceConfig::default()
        };
        let mut c = client(faults, cfg);
        let out = c.submit(100, 0.0);
        assert!(matches!(
            out,
            SubmissionOutcome::Degraded {
                reason: FailReason::DeadlineExceeded,
                ..
            }
        ));
        assert_eq!(c.stats.deadline_blown, 1);
    }

    #[test]
    fn stats_percentiles_are_ordered() {
        let mut c = client(FaultConfig::lossy(), ResilienceConfig::default());
        for i in 0..200 {
            c.submit(20, i as f64 * 50.0);
        }
        if let Some((p50, p95, p99)) = c.stats.latency_percentiles() {
            assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        }
        assert_eq!(
            c.stats.delivered + c.stats.degraded,
            c.stats.submissions,
            "every submission accounted"
        );
    }

    #[test]
    fn telemetry_mirrors_resilience_stats() {
        let mut c = client(FaultConfig::lossy(), ResilienceConfig::default());
        let tel = Arc::new(Telemetry::with_manual_clock());
        c.set_telemetry(Arc::clone(&tel));
        for i in 0..100 {
            c.submit(20, i as f64 * 50.0);
        }
        let snap = tel.snapshot();
        assert_eq!(snap.counter("ci.submissions"), Some(c.stats.submissions));
        assert_eq!(snap.counter("ci.delivered").unwrap_or(0), c.stats.delivered);
        assert_eq!(snap.counter("ci.retries").unwrap_or(0), c.stats.retries);
        assert_eq!(
            snap.counter_total("ci.faults"),
            c.stats.faults.iter().sum::<u64>()
        );
        assert_eq!(
            snap.counter_labeled("ci.faults", "outage").unwrap_or(0),
            c.stats.faults[3]
        );
        assert_eq!(snap.counter_total("ci.degraded"), c.stats.degraded);
        assert_eq!(
            snap.counter_total("ci.breaker_transitions") as usize,
            c.breaker_transitions().len()
        );
        let h = snap.histogram("ci.latency_seconds").unwrap();
        assert_eq!(h.count(), c.stats.latencies.len() as u64);
        // Attaching telemetry must not perturb the client's own behavior:
        // same seed without a recorder yields identical stats.
        let mut plain = client(FaultConfig::lossy(), ResilienceConfig::default());
        for i in 0..100 {
            plain.submit(20, i as f64 * 50.0);
        }
        assert_eq!(plain.stats, c.stats);
        assert_eq!(
            plain.fault_trace().fingerprint(),
            c.fault_trace().fingerprint()
        );
    }

    #[test]
    fn same_seed_same_everything() {
        let run = |seed: u64| {
            let mut c = ResilientCiClient::new(
                FaultConfig::lossy(),
                ResilienceConfig::default(),
                StageModel::new("ci", 10.0),
                seed,
            )
            .unwrap();
            let outs: Vec<SubmissionOutcome> =
                (0..100).map(|i| c.submit(25, i as f64 * 40.0)).collect();
            (outs, c.fault_trace().fingerprint(), c.stats.clone())
        };
        let (oa, fa, sa) = run(77);
        let (ob, fb, sb) = run(77);
        assert_eq!(oa, ob);
        assert_eq!(fa, fb);
        assert_eq!(sa, sb);
        let (_, fc, _) = run(78);
        assert_ne!(fa, fc);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad_retry = ResilienceConfig {
            retry: RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            },
            ..ResilienceConfig::default()
        };
        assert!(ResilientCiClient::new(
            FaultConfig::reliable(),
            bad_retry,
            StageModel::new("ci", 10.0),
            1
        )
        .is_err());
        let bad_faults = FaultConfig {
            bad_loss: 2.0,
            ..FaultConfig::reliable()
        };
        assert!(ResilientCiClient::new(
            bad_faults,
            ResilienceConfig::default(),
            StageModel::new("ci", 10.0),
            1
        )
        .is_err());
    }
}
