//! Server-side observability: request counters, latency histograms,
//! connection/tenant gauges — all registered in the shared `tdb-obs`
//! registry so one `Metrics` request (or scrape of the daemon's output)
//! sees the server *and* every tenant's manager-level instrumentation in a
//! single exposition.
//!
//! Naming: `tdb_server_*` for server-owned series; per-tenant gauges carry
//! a `tenant` label (`tdb_server_tenant_states{tenant="acme"}`), matching
//! the labeled-family support in [`tdb_obs::Registry::render_prometheus`].

use tdb_obs::{elapsed_ns, global, now, Counter, Gauge};

/// Pre-resolved handles for the per-request hot path.
#[derive(Debug, Clone)]
pub struct ServerMetrics {
    pub connections_open: Gauge,
    pub connections_total: Counter,
    pub requests_total: Counter,
    pub request_errors: Counter,
    pub frames_rejected: Counter,
    pub tenants: Gauge,
    pub subscriptions: Gauge,
    pub firings_streamed: Counter,
    /// Outbound-queue stall episodes (a connection crossed its soft
    /// backpressure limit).
    pub conn_backpressure: Counter,
    /// Tenant re-pins executed by the load balancer.
    pub repins: Counter,
    /// Valid-time stream events by phase: announced-before-the-watermark
    /// firings, definite confirmations, and retroactive retractions.
    pub vt_tentative: Counter,
    pub vt_confirmed: Counter,
    pub vt_retractions: Counter,
}

impl ServerMetrics {
    /// Resolves every handle from the global registry.
    pub fn resolve() -> ServerMetrics {
        let r = global();
        ServerMetrics {
            connections_open: r.gauge("tdb_server_connections_open"),
            connections_total: r.counter("tdb_server_connections_total"),
            requests_total: r.counter("tdb_server_requests_total"),
            request_errors: r.counter("tdb_server_request_errors_total"),
            frames_rejected: r.counter("tdb_server_frames_rejected_total"),
            tenants: r.gauge("tdb_server_tenants"),
            subscriptions: r.gauge("tdb_server_subscriptions"),
            firings_streamed: r.counter("tdb_server_firings_streamed_total"),
            conn_backpressure: r.counter("tdb_server_conn_backpressure_total"),
            repins: r.counter("tdb_server_tenant_repins_total"),
            vt_tentative: r.counter("tdb_vt_tentative_total"),
            vt_confirmed: r.counter("tdb_vt_confirmed_total"),
            vt_retractions: r.counter("tdb_vt_retractions_total"),
        }
    }

    /// Records one serviced request: a per-kind counter and its latency.
    pub fn observe_request(&self, kind: &'static str, t0: Option<std::time::Instant>, ok: bool) {
        self.requests_total.inc();
        if !ok {
            self.request_errors.inc();
        }
        let r = global();
        r.counter_with("tdb_server_requests", &[("kind", kind)])
            .inc();
        r.histogram_with("tdb_server_request_ns", &[("kind", kind)])
            .observe(elapsed_ns(t0));
    }
}

/// Starts a latency measurement (None under miri — records 0).
pub fn request_timer() -> Option<std::time::Instant> {
    now()
}

/// Publishes one tenant's point-in-time gauges under its `tenant` label.
pub fn publish_tenant_gauges(name: &str, stats: &tdb_core::ShardStats, wal_bytes: u64) {
    let r = global();
    let labels: &[(&str, &str)] = &[("tenant", name)];
    let as_i64 = |v: usize| i64::try_from(v).unwrap_or(i64::MAX);
    r.gauge_with("tdb_server_tenant_states", labels)
        .set(as_i64(stats.states));
    r.gauge_with("tdb_server_tenant_rules", labels)
        .set(as_i64(stats.rules));
    r.gauge_with("tdb_server_tenant_firings", labels)
        .set(as_i64(stats.firings));
    r.gauge_with("tdb_server_tenant_retained", labels)
        .set(as_i64(stats.retained));
    r.gauge_with("tdb_server_tenant_wal_bytes", labels)
        .set(i64::try_from(wal_bytes).unwrap_or(i64::MAX));
    // Batch-safety certificate as a scalar: 0 = exact, k ≥ 1 = stratified
    // with k strata, -1 = cascade-required.
    r.gauge_with("tdb_server_batch_safety", labels)
        .set(stats.batch_safety.gauge_value());
}

/// Publishes a valid-time tenant's watermark gauge (`W = now − Δ`): the
/// instant up to which its firing stream is definite.
pub fn publish_vt_watermark(name: &str, watermark: tdb_relation::Timestamp) {
    global()
        .gauge_with("tdb_server_vt_watermark", &[("tenant", name)])
        .set(watermark.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_observation_lands_in_registry() {
        let m = ServerMetrics::resolve();
        let errors = m.request_errors.get();
        // A kind of its own: other tests in this process serve real
        // requests concurrently, so only this family's count is exact.
        m.observe_request("probe", request_timer(), true);
        m.observe_request("probe", request_timer(), false);
        let snap = global().snapshot();
        assert!(snap.counter_family("tdb_server_requests_total") >= 2);
        assert!(snap.counter_family("tdb_server_request_errors_total") > errors);
        let text = snap.render_prometheus();
        assert!(
            text.contains("tdb_server_requests{kind=\"probe\"} 2"),
            "{text}"
        );
    }

    #[test]
    fn tenant_gauges_carry_tenant_label() {
        let stats = tdb_core::ShardStats {
            states: 3,
            rules: 2,
            firings: 1,
            retained: 8,
            now: tdb_relation::Timestamp(5),
            batch_safety: tdb_core::BatchCertificate::Stratified { strata: 2 },
        };
        publish_tenant_gauges("acme", &stats, 4096);
        let text = global().snapshot().render_prometheus();
        assert!(
            text.contains("tdb_server_tenant_states{tenant=\"acme\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("tdb_server_tenant_wal_bytes{tenant=\"acme\"} 4096"),
            "{text}"
        );
        assert!(
            text.contains("tdb_server_batch_safety{tenant=\"acme\"} 2"),
            "{text}"
        );
    }
}
