//! T22: DVFS-only vs consolidation.
fn main() -> std::process::ExitCode {
    bench::cli::experiment("T22", "DVFS-only vs consolidation", bench::exp_t22)
}
