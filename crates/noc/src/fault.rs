//! Deterministic fault-injection configuration for the interconnect.
//!
//! A [`FaultPlan`] describes *which* network-level misbehaviours a run
//! should inject and at what rates; it is pure configuration. The machine
//! applies it per message from `SimRng` streams derived per directed
//! channel, so fault placement is a deterministic function of the machine
//! seed — a failing faulty run reproduces bit-for-bit.
//!
//! Four fault modes exist, each scoped to the message kinds the DASH-style
//! protocol can absorb (see `scd-machine`'s failure-model notes and
//! DESIGN.md):
//!
//! * **nack** — the home converts an arriving coherence request into a
//!   transient NACK instead of servicing it; the requester retries with
//!   exponential backoff. This is the paper's §7 DASH behaviour (the
//!   Remote Access Cache exists precisely to absorb NAK/retry).
//! * **dup** — a read request is delivered twice (at-least-once request
//!   channel); the home re-services it and the requester drops the stray
//!   reply.
//! * **delay** — a request-class message suffers a latency spike. Delivery
//!   order *within* a (src, dst) channel is preserved (the machine clamps
//!   per channel), matching what a congested but FIFO link can do.
//! * **reorder** — a coherence request is jittered *without* the channel
//!   clamp, so it can overtake earlier traffic (e.g. its own cluster's
//!   writeback), exercising the home's park/NACK recovery paths.
//!
//! The plan is off by default ([`FaultPlan::default`] injects nothing) and
//! a disabled plan leaves the simulation bit-identical to a build without
//! fault hooks.

use std::ops::RangeInclusive;

/// The cycle bounds a fault accepts: a delay spike's or reorder window's
/// maximum, and an explored delay or duplicate gap. The top keeps a
/// delivery cycle far from wrapping the clock (the longest run in
/// `results/` takes 1.44 M cycles).
pub const FAULT_CYCLES: RangeInclusive<u64> = 1..=u32::MAX as u64;

/// Fault-injection rates for one run. All probabilities are per eligible
/// message, in `[0, 1]`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Probability an arriving coherence request (read or write) is NACKed
    /// by the home instead of serviced.
    pub nack_prob: f64,
    /// Probability a read request is delivered twice.
    pub dup_prob: f64,
    /// Probability a request-class message suffers a latency spike.
    pub delay_prob: f64,
    /// Maximum extra cycles of one latency spike (uniform in
    /// `[1, delay_cycles]`).
    pub delay_cycles: u64,
    /// Probability a coherence request is jittered out of channel order.
    pub reorder_prob: f64,
    /// Maximum out-of-order jitter in cycles (uniform in
    /// `[1, reorder_window]`).
    pub reorder_window: u64,
}

impl FaultPlan {
    /// A plan injecting nothing (identical to running without one).
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any fault mode is enabled.
    pub fn is_active(&self) -> bool {
        self.nack_prob > 0.0
            || self.dup_prob > 0.0
            || (self.delay_prob > 0.0 && self.delay_cycles > 0)
            || (self.reorder_prob > 0.0 && self.reorder_window > 0)
    }

    /// NACK-only plan.
    pub fn nack(prob: f64) -> Self {
        FaultPlan {
            nack_prob: prob,
            ..Self::default()
        }
    }

    /// Duplication-only plan.
    pub fn dup(prob: f64) -> Self {
        FaultPlan {
            dup_prob: prob,
            ..Self::default()
        }
    }

    /// Latency-spike-only plan.
    pub fn delay(prob: f64, cycles: u64) -> Self {
        FaultPlan {
            delay_prob: prob,
            delay_cycles: cycles,
            ..Self::default()
        }
    }

    /// Reorder-only plan.
    pub fn reorder(prob: f64, window: u64) -> Self {
        FaultPlan {
            reorder_prob: prob,
            reorder_window: window,
            ..Self::default()
        }
    }

    /// Parses a fault specification string.
    ///
    /// Grammar: comma-separated clauses, each one of
    ///
    /// * `nack:<prob>`
    /// * `dup:<prob>`
    /// * `delay:<prob>:<max-cycles>`
    /// * `reorder:<prob>:<max-cycles>`
    ///
    /// e.g. `nack:0.01`, `delay:0.02:200`, or `nack:0.01,dup:0.005`.
    /// Later clauses for the same mode overwrite earlier ones. A cycle
    /// bound is any `u64` here; [`FaultPlan::validate`] refuses an enabled
    /// one outside [`FAULT_CYCLES`].
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let mut parts = clause.split(':');
            let mode = parts.next().unwrap_or("");
            let prob = parts
                .next()
                .ok_or_else(|| format!("fault clause `{clause}`: missing probability"))?
                .parse::<f64>()
                .map_err(|e| format!("fault clause `{clause}`: bad probability ({e})"))?;
            if !(0.0..=1.0).contains(&prob) {
                return Err(format!(
                    "fault clause `{clause}`: probability {prob} outside [0, 1]"
                ));
            }
            let cycles = parts
                .next()
                .map(|c| {
                    c.parse::<u64>()
                        .map_err(|e| format!("fault clause `{clause}`: bad cycle count ({e})"))
                })
                .transpose()?;
            if parts.next().is_some() {
                return Err(format!("fault clause `{clause}`: too many fields"));
            }
            match (mode, cycles) {
                ("nack", None) => plan.nack_prob = prob,
                ("dup", None) => plan.dup_prob = prob,
                ("delay", Some(c)) => {
                    plan.delay_prob = prob;
                    plan.delay_cycles = c;
                }
                ("reorder", Some(c)) => {
                    plan.reorder_prob = prob;
                    plan.reorder_window = c;
                }
                ("delay" | "reorder", None) => {
                    return Err(format!(
                        "fault clause `{clause}`: needs a cycle bound ({mode}:<prob>:<cycles>)"
                    ));
                }
                ("nack" | "dup", Some(_)) => {
                    return Err(format!("fault clause `{clause}`: too many fields"));
                }
                _ => {
                    return Err(format!(
                        "fault clause `{clause}`: unknown mode `{mode}` \
                         (expected nack, dup, delay, or reorder)"
                    ));
                }
            }
        }
        Ok(plan)
    }

    /// Refuses an enabled delay or reorder mode whose cycle bound lies
    /// outside [`FAULT_CYCLES`], however the plan was built.
    /// `MachineConfig::validate` calls it.
    pub fn validate(&self) -> Result<(), String> {
        let modes = [
            ("delay", self.delay_prob, self.delay_cycles),
            ("reorder", self.reorder_prob, self.reorder_window),
        ];
        match modes.into_iter().find(|&(_, p, c)| p > 0.0 && !FAULT_CYCLES.contains(&c)) {
            Some((mode, _, c)) => {
                Err(format!("fault {mode} cycle bound = {c} (want {FAULT_CYCLES:?})"))
            }
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_inert() {
        assert!(!FaultPlan::default().is_active());
        assert!(!FaultPlan::none().is_active());
    }

    #[test]
    fn parse_single_clauses() {
        assert_eq!(FaultPlan::parse("nack:0.01").unwrap(), FaultPlan::nack(0.01));
        assert_eq!(FaultPlan::parse("dup:0.005").unwrap(), FaultPlan::dup(0.005));
        assert_eq!(
            FaultPlan::parse("delay:0.02:200").unwrap(),
            FaultPlan::delay(0.02, 200)
        );
        assert_eq!(
            FaultPlan::parse("reorder:0.1:50").unwrap(),
            FaultPlan::reorder(0.1, 50)
        );
    }

    #[test]
    fn parse_combined_clauses() {
        let plan = FaultPlan::parse("nack:0.01, dup:0.005").unwrap();
        assert_eq!(plan.nack_prob, 0.01);
        assert_eq!(plan.dup_prob, 0.005);
        assert!(plan.is_active());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "nack",
            "nack:2.0",
            "nack:-0.1",
            "nack:0.1:5",
            "delay:0.1",
            "delay:0.1:10:3",
            "delay:1:18446744073709551616",
            "jitter:0.1",
            "dup:zero",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    /// Parsing leaves the cycle bound to `validate`, so a spec meets the
    /// one rule a plan built in code meets.
    #[test]
    fn a_parsed_bound_outside_fault_cycles_is_refused_by_validate() {
        for bad in [
            "delay:0.1:0",
            // A bound past `FAULT_CYCLES` would wrap the delivery clock.
            "delay:1:18446744073709551615",
            "delay:1:9223372036854775808",
            "delay:1:4294967296",
            "reorder:1:18446744073709551615",
        ] {
            let plan = FaultPlan::parse(bad).unwrap_or_else(|e| panic!("`{bad}`: {e}"));
            assert!(plan.validate().is_err(), "accepted `{bad}`");
        }
        let disabled = FaultPlan::parse("delay:0:18446744073709551615").unwrap();
        assert_eq!((disabled.is_active(), disabled.validate()), (false, Ok(())));
    }

    #[test]
    fn validate_refuses_an_enabled_bound_outside_fault_cycles() {
        assert_eq!(FaultPlan::delay(1.0, u32::MAX as u64).validate(), Ok(()));
        assert_eq!(FaultPlan::nack(0.5).validate(), Ok(()), "a disabled mode's zero bound is fine");
        for (plan, needle) in [
            (FaultPlan::delay(1.0, u64::MAX), "fault delay cycle bound = 18446744073709551615"),
            (FaultPlan::delay(0.5, 0), "fault delay cycle bound = 0"),
            (FaultPlan::reorder(0.1, 1 << 32), "fault reorder cycle bound = 4294967296"),
        ] {
            let e = plan.validate().expect_err(needle);
            assert!(e.starts_with(needle), "`{e}` lacks `{needle}`");
        }
    }

    #[test]
    fn parse_empty_is_inert() {
        assert!(!FaultPlan::parse("").unwrap().is_active());
    }
}
