//! Policy-state invariants: the DPA occupancy registers and any
//! policy-specific self-check ([`PriorityPolicy::check_invariant`]).
//!
//! [`PriorityPolicy::check_invariant`]: crate::arbitration::PriorityPolicy::check_invariant

use super::{Checker, OracleViolation};
use crate::network::Network;

/// After the state-update phase every router's `ovc_native`/`ovc_foreign`
/// registers must equal a fresh occupancy recount — both for updated
/// routers (just recomputed) and for skipped ones (unchanged occupancy is
/// exactly the skip condition). On top, the active policy gets to verify
/// the state it maintains (e.g. RAIR checks the DPA bit is a fixed point of
/// its own hysteresis transition, the soundness condition of the
/// skip-if-idempotent optimization).
#[derive(Debug, Default)]
pub struct PolicyInvariant;

impl Checker for PolicyInvariant {
    fn name(&self) -> &'static str {
        "policy-invariant"
    }

    fn end_of_cycle(&mut self, net: &Network, out: &mut Vec<OracleViolation>) {
        for r in &net.routers {
            let (native, foreign) = r.recount_occupancy();
            if (native, foreign) != (r.ovc_native, r.ovc_foreign) {
                out.push(OracleViolation {
                    cycle: net.cycle(),
                    checker: self.name(),
                    router: Some(r.id),
                    detail: format!(
                        "OVC registers ({}, {}) drifted from recount ({native}, {foreign})",
                        r.ovc_native, r.ovc_foreign
                    ),
                });
            }
            if let Some(detail) = net.policy().check_invariant(r) {
                out.push(OracleViolation {
                    cycle: net.cycle(),
                    checker: self.name(),
                    router: Some(r.id),
                    detail,
                });
            }
        }
    }
}
