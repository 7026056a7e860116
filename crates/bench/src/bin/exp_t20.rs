//! T20: per-class SLA accounting (interactive vs batch).
fn main() -> std::process::ExitCode {
    bench::cli::experiment("T20", "Per-class SLA accounting", bench::exp_t20)
}
