//! Results as JSON: the one-line result the driver reads, and the result
//! sets `ledger compare` reads back.

use crate::json::Json;
use crate::run::Report;
use crate::spec::Scale;

/// Version of the result-set layout.
pub const SCHEMA: &str = "monkey-ledger/1";

fn metrics_json(report: &Report) -> Json {
    Json::object(report.metrics.iter().map(|m| {
        (
            m.name,
            Json::object([
                ("value", Json::Number(m.value)),
                ("unit", Json::string(m.unit)),
            ]),
        )
    }))
}

/// The driver's contract: exactly `correct`, `attempted`, `failed` and
/// `metrics`, on one line.
pub fn contract_line(report: &Report) -> String {
    Json::object([
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::Number(report.attempted as f64)),
        ("failed", Json::Number(report.failed as f64)),
        ("metrics", metrics_json(report)),
    ])
    .render()
}

/// One run of a result set, with the host stamp: `nproc`, git rev, seed,
/// op counts, effective backend, the store directory's filesystem and the
/// `single_core` flag.
pub fn run_json(report: &Report) -> Json {
    let config = &report.config;
    Json::object([
        ("workload", Json::string(config.workload.name())),
        ("seed", Json::Number(config.seed as f64)),
        ("seconds", Json::Number(config.seconds as f64)),
        ("smoke", Json::Bool(config.scale == Scale::SMOKE)),
        ("trace", Json::Bool(report.traced)),
        ("entries", Json::Number(config.scale.entries as f64)),
        ("half_ops", Json::Number(config.half_ops() as f64)),
        (
            "latency_samples",
            Json::Number(report.latency_samples as f64),
        ),
        ("nproc", Json::Number(report.host.nproc as f64)),
        // One core: nothing that depends on a second thread is meaningful.
        ("single_core", Json::Bool(report.host.nproc < 2)),
        ("git_rev", Json::string(report.host.git_rev.as_str())),
        ("fs_type", Json::string(report.host.fs_type.as_str())),
        ("backend", Json::string(report.backend.as_str())),
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::Number(report.attempted as f64)),
        ("failed", Json::Number(report.failed as f64)),
        ("metrics", metrics_json(report)),
    ])
}

/// A result set. This PR defines the instrument and claims no gain, which
/// every set it writes states as `"claim": null`.
pub fn set_json(runs: Vec<Json>) -> Json {
    Json::object([
        ("schema", Json::string(SCHEMA)),
        ("claim", Json::Null),
        ("runs", Json::Array(runs)),
    ])
}
