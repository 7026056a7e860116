//! T18: proactive pre-wake ablation.
fn main() -> std::process::ExitCode {
    bench::cli::experiment("T18", "Proactive pre-wake ablation", bench::exp_t18)
}
