//! Adaptive commit coalescing: how long a tenant's commit lingers to
//! collect followers, sized from what its group applies have cost so far
//! and discounted by its batch-safety certificate (`CascadeRequired` → no
//! window, `Stratified` → discounted by the observed fence-hit rate).

use tdb_core::BatchCertificate;

/// Widest window the adaptive coalescer will ever open.
pub(crate) const ADAPTIVE_MAX_WINDOW_US: u64 = 5_000;
/// First-commit bootstrap window (no latency observation yet).
const ADAPTIVE_BOOTSTRAP_US: u64 = 100;

/// Per-tenant observations driving the adaptive commit coalescer. Lives on
/// the owning worker (no locks) and migrates with the tenant.
#[derive(Debug, Clone, Default)]
pub(crate) struct AdaptiveState {
    /// EWMA of ns one group apply takes — dominated by the WAL fsync for
    /// durable tenants, by the evaluation slice for volatile ones.
    apply_ns: u64,
    /// `batch_fence_drains()` value at the last observation.
    fences_at: u64,
    /// EWMA of fence drains per 1000 ops (the stratified discount).
    fence_permille: u64,
}

impl AdaptiveState {
    pub(crate) fn observe(&mut self, ops: u64, dt_ns: u64, fences_total: u64) {
        self.apply_ns = if self.apply_ns == 0 {
            dt_ns
        } else {
            (self.apply_ns * 3 + dt_ns) / 4
        };
        let delta = fences_total.saturating_sub(self.fences_at);
        self.fences_at = fences_total;
        if ops > 0 {
            let inst = delta
                .saturating_mul(1000)
                .checked_div(ops)
                .unwrap_or(0)
                .min(1000);
            self.fence_permille = (self.fence_permille * 3 + inst) / 4;
        }
    }

    /// The window this tenant's commits should coalesce over:
    /// `discount(certificate) × clamp(apply_ewma)`. Waiting about one
    /// group-apply time collects everything that would otherwise queue
    /// behind the fsync anyway, so the window buys batching without adding
    /// latency beyond what the slowest-path op already costs.
    pub(crate) fn window_us(&self, cert: &BatchCertificate) -> u64 {
        let discount_permille = match cert {
            BatchCertificate::CascadeRequired => return 0,
            BatchCertificate::Exact => 1000,
            // A stratified tenant loses fusion at every fence; discount
            // the window by the observed fence-hit rate.
            BatchCertificate::Stratified { .. } => 1000 - self.fence_permille.min(1000),
        };
        let base = if self.apply_ns == 0 {
            ADAPTIVE_BOOTSTRAP_US
        } else {
            (self.apply_ns / 1000).clamp(ADAPTIVE_BOOTSTRAP_US / 2, ADAPTIVE_MAX_WINDOW_US)
        };
        base * discount_permille / 1000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The adaptive window follows the certificate: cascade-required
    /// tenants never open one, stratified tenants discount by fence rate,
    /// exact tenants track the observed apply latency.
    #[test]
    fn adaptive_window_respects_certificate_and_latency() {
        let mut a = AdaptiveState::default();
        assert_eq!(
            a.window_us(&BatchCertificate::Exact),
            ADAPTIVE_BOOTSTRAP_US,
            "bootstrap before any observation"
        );
        assert_eq!(a.window_us(&BatchCertificate::CascadeRequired), 0);

        // Observe ~2ms applies with no fences: window tracks latency.
        for _ in 0..8 {
            a.observe(10, 2_000_000, 0);
        }
        let w = a.window_us(&BatchCertificate::Exact);
        assert!((1_000..=3_000).contains(&w), "window {w}µs tracks ~2ms");

        // Every op fences: a stratified tenant's window collapses.
        let mut fences = 0;
        for _ in 0..8 {
            fences += 10;
            a.observe(10, 2_000_000, fences);
        }
        let w = a.window_us(&BatchCertificate::Stratified { strata: 2 });
        assert!(
            w < 300,
            "fence-saturated stratified window should collapse, got {w}µs"
        );
        // Latency is capped so a pathological fsync can't freeze a worker.
        let mut b = AdaptiveState::default();
        b.observe(1, u64::MAX / 2, 0);
        assert!(b.window_us(&BatchCertificate::Exact) <= ADAPTIVE_MAX_WINDOW_US);
    }
}
