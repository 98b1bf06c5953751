//! Figure 7: the combined WBHT + snarf system — with each table halved
//! to 16K entries to keep the total area constant (§5.3) — versus
//! outstanding loads per thread.
//!
//! Paper shape: benefits are not additive; TP beats either mechanism
//! alone, Trade2's combined gain falls below WBHT-only at high pressure
//! but wins at low pressure.

use crate::experiments::{combined_cfg, default_entries, pressure_sweep};
use crate::Profile;

/// Runs the sweep and renders percentage improvements per pressure.
pub fn run(p: &Profile) -> String {
    let entries = default_entries(p);
    pressure_sweep(p, |p, n| combined_cfg(p, n, entries)).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_sweep() {
        let p = Profile {
            scale_factor: 16,
            refs_per_thread: 1_000,
            seeds: 1,
        };
        let out = run(&p);
        assert!(out.contains("CPW2"));
    }
}
