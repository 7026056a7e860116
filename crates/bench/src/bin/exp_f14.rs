//! F14: lifecycle churn (VM provisioning/retirement).
fn main() -> std::process::ExitCode {
    bench::cli::experiment("F14", "Lifecycle churn", bench::exp_f14)
}
